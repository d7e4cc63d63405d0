"""Edge-aggregation kernels, the hot inner loops of every architecture.

Each kernel is one product of a cached unit-valued CSR operator of the
graph (see ``SparseAdjacency``) with a dense array. ``to`` names the edge
endpoint whose node rows receive the sums: ``"dst"`` aggregates along the
edges, ``"src"`` along reversed edges, which is the backward of the
``"dst"`` direction. ``gated_neighbor_sum`` has only the ``"dst"``
direction, and no library code calls it: ``tensor.gated_aggregate``
computes the same products on two halves of the edges, one per thread,
with the operators of ``SparseAdjacency.halves``. It stays as the
reference the kernel tests check and as a name the benchmark's tracer
wraps.

The products are bit-identical to an unbuffered scatter-add that visits
the edges in storage order. scipy's CSR product fills each output row
from zero, adding 1.0 * x for each stored column in index order, and each
operator's row lists its columns in exactly that edge order.

``tensor`` looks the kernels up as ``kernels.<name>`` at call time, so
rebinding a module attribute (as a profiler does) reaches every call.
"""

import numpy as np


def scatter_rows(rows, adj, to):
    """out[adj.<to>[e]] += rows[e] for every edge e; one row per node."""
    return adj.incidence(to) @ rows


def neighbor_sum(h, adj, to):
    """out[dst[e]] += h[src[e]] for every edge e (``to="src"``: reversed)."""
    return adj.adjacency_matrix(to) @ h


def gated_neighbor_sum(h, gates, adj):
    """out[dst[e]] += gates[e] * h[src[e]] for every edge e."""
    return adj.incidence("dst") @ (gates * np.take(h, adj.src, axis=0))
