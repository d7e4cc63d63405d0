"""Edge-aggregation kernels, the hot inner loops of every architecture.

Each kernel sums per-edge rows into per-node rows with ``np.add.at``,
which accumulates in edge order, so results are reproducible bit for bit.
The backward of a neighbor sum is the same kernel along reversed edges.
``tensor`` looks the kernels up as ``kernels.<name>`` at call time, so
rebinding a module attribute (as a profiler does) reaches every call.
"""

import numpy as np


def scatter_rows(rows, idx, n_out):
    """out[idx[e]] += rows[e] for every edge e; out has n_out rows."""
    out = np.zeros((n_out, rows.shape[1]))
    np.add.at(out, idx, rows)
    return out


def neighbor_sum(h, src, dst, n_out):
    """out[dst[e]] += h[src[e]] for every edge e."""
    out = np.zeros((n_out, h.shape[1]))
    np.add.at(out, dst, h[src])
    return out


def gated_neighbor_sum(h, gates, src, dst, n_out):
    """out[dst[e]] += gates[e] * h[src[e]] for every edge e."""
    out = np.zeros((n_out, h.shape[1]))
    np.add.at(out, dst, gates * h[src])
    return out
