"""Sparse adjacency in canonical edge-list form.

Edges are directed (src -> dst) and stored sorted by (dst, src), so all
in-edges of a node are contiguous and kernels accumulate per destination
in ascending neighbor order. Undirected graphs store both directions.
That order comes from one stable argsort of the int64 key
dst * n_nodes + src, which is unique per edge (duplicates are rejected)
and cannot overflow while n_nodes**2 < 2**63.

The kernels multiply by four unit-valued CSR operators (the adjacency,
its transpose, and the incidence by dst and by src), each built on first
use and kept for the life of the graph, with every row's columns in the
order a scatter-add over the stored edges would reach them.

``halves`` cuts the edges in two at a destination boundary, also once
per graph, so that ``tensor.gated_aggregate`` can sum each half's node
rows on its own thread: every node's in-edges fall in one half, so each
output row is summed whole, in the same order, by one thread.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ContractError


class SparseAdjacency:
    """Directed edge list with per-destination row offsets.

    Attributes:
        n_nodes: node count.
        src, dst: int64 arrays of equal length E, sorted by (dst, src).
        offsets: int64 array of length n_nodes + 1; in-edges of node i are
            the slice offsets[i]:offsets[i+1].
    """

    __slots__ = ("n_nodes", "src", "dst", "offsets", "_halves",
                 "_adj_to_dst", "_adj_to_src", "_inc_to_dst", "_inc_to_src")

    def __init__(self, n_nodes, src, dst):
        """Sort the edges by the key dst * n_nodes + src.

        Raises ContractError for an index outside [0, n_nodes) and for
        a repeated edge. The key is unique per edge once both checks pass,
        so the stable argsort yields exactly the (dst, src) lexicographic
        order; n_nodes**2 must stay below 2**63.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ContractError("src/dst must be 1-d arrays of equal length")
        _check_node_range(n_nodes, src, dst)
        keys = dst * n_nodes + src
        order = np.argsort(keys, kind="stable")
        if _has_repeat(keys[order]):
            raise ContractError("duplicate directed edge")
        self.n_nodes = int(n_nodes)
        self.src = src[order]
        self.dst = dst[order]
        self.offsets = _row_offsets(self.dst, n_nodes)
        self._adj_to_dst = None
        self._adj_to_src = None
        self._inc_to_dst = None
        self._inc_to_src = None
        self._halves = None

    @classmethod
    def from_undirected(cls, n_nodes, pairs):
        """Build from unordered node pairs; both directions are stored.

        Rejects self-loops, out-of-range indices and duplicate pairs, in
        that order; a pair is a duplicate when its key lo * n_nodes + hi
        repeats.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise ContractError("self-loop in undirected edge list")
        _check_node_range(n_nodes, pairs)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        if _has_repeat(np.sort(lo * n_nodes + hi)):
            raise ContractError("duplicate undirected edge")
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        return cls(n_nodes, src, dst)

    @property
    def n_edges(self):
        return int(self.src.size)

    def in_degree(self):
        return np.diff(self.offsets)

    def undirected_pairs(self):
        """Unique (i, j) pairs with i < j, sorted. Requires a symmetric edge set."""
        # edges are stored sorted by (dst, src), so those with dst < src,
        # read as (dst, src), are already the sorted pairs
        keep = self.dst < self.src
        return np.stack([self.dst[keep], self.src[keep]], axis=1)

    def endpoint(self, name):
        """The ``dst`` or ``src`` index array, selected by name."""
        if name == "dst":
            return self.dst
        if name == "src":
            return self.src
        raise ContractError(f"edge endpoint must be 'dst' or 'src', not {name!r}")

    def adjacency_matrix(self, to):
        """n x n operator M with (M @ h)[v] = sum of h[u] over edges u -> v.

        ``to="src"`` gives the transpose: sums along reversed edges.
        """
        self.endpoint(to)  # rejects any name but "dst" and "src"
        if to == "dst":
            if self._adj_to_dst is None:
                self._adj_to_dst = _unit_csr(self.src, self.offsets, self.n_nodes)
            return self._adj_to_dst
        if self._adj_to_src is None:
            by_src = self.incidence("src")
            self._adj_to_src = _unit_csr(self.dst[by_src.indices], by_src.indptr,
                                         self.n_nodes)
        return self._adj_to_src

    def incidence(self, to):
        """n x E operator M with (M @ rows)[v] = sum of rows[e] over the edges
        whose ``to`` endpoint is v."""
        self.endpoint(to)
        if to == "dst":
            if self._inc_to_dst is None:
                self._inc_to_dst = _unit_csr(np.arange(self.n_edges), self.offsets,
                                             self.n_edges)
            return self._inc_to_dst
        if self._inc_to_src is None:
            # a stable sort keeps each source's edges in ascending edge order,
            # which (edges being sorted by (dst, src)) is also ascending dst
            order = np.argsort(self.src, kind="stable")
            self._inc_to_src = _unit_csr(order, _row_offsets(self.src, self.n_nodes),
                                         self.n_edges)
        return self._inc_to_src

    def halves(self):
        """The edges cut in two at the first node whose in-edge offset
        reaches E / 2, as two ``EdgeHalf`` records, built on first use.

        Half 0 owns node rows [0, cut) and half 1 rows [cut, n_nodes), each
        with all of its rows' in-edges; either half may have no edges.
        """
        if self._halves is None:
            cut = int(np.searchsorted(self.offsets, self.n_edges / 2))
            self._halves = (self._half(0, cut), self._half(cut, self.n_nodes))
        return self._halves

    def _half(self, first, stop):
        start, end = int(self.offsets[first]), int(self.offsets[stop])
        incidence = _unit_csr(np.arange(end - start), self.offsets[first:stop + 1] - start,
                              end - start)
        return EdgeHalf(slice(first, stop), slice(start, end), incidence)

    def to_dense(self):
        """The n x n matrix with A[i, j] = 1 for each edge j -> i.

        No library code calls it: it is the dense reference against which
        the tests check the sparse operators, kernels and aggregation ops.
        """
        a = np.zeros((self.n_nodes, self.n_nodes))
        a[self.dst, self.src] = 1.0
        return a

    def __repr__(self):
        return f"SparseAdjacency(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


class EdgeHalf(NamedTuple):
    """One half of a graph's edges, cut at a destination boundary.

    ``nodes`` slices the node rows the half owns and ``edges`` their
    in-edges, which are contiguous because edges are sorted by dst.
    ``incidence`` is rows ``nodes`` of ``incidence("dst")`` with columns
    counted from ``edges.start``: it sums a half-length edge array into
    the half's node rows.
    """

    nodes: slice
    edges: slice
    incidence: sp.csr_matrix


def _check_node_range(n_nodes, *indices):
    """Raise unless every index lies in [0, n_nodes)."""
    if indices[0].size:
        if min(a.min() for a in indices) < 0:
            raise ContractError("negative node index")
        if max(a.max() for a in indices) >= n_nodes:
            raise ContractError("node index out of range")


def _has_repeat(sorted_keys):
    """Whether any two neighbouring entries of a sorted array are equal."""
    return bool((sorted_keys[1:] == sorted_keys[:-1]).any())


def _row_offsets(keys, n_rows):
    """CSR row pointer: row r spans offsets[r]:offsets[r+1] of keys sorted by row."""
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_rows), out=offsets[1:])
    return offsets


def _unit_csr(columns, indptr, n_cols):
    """Unit-valued CSR matrix; each row's columns must already ascend."""
    n_rows = indptr.size - 1
    return sp.csr_matrix((np.ones(columns.size), columns, indptr), shape=(n_rows, n_cols))
