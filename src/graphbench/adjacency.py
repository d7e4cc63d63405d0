"""Sparse adjacency in canonical edge-list form.

Edges are directed (src -> dst) and stored sorted by (dst, src), so all
in-edges of a node are contiguous and kernels accumulate per destination
in ascending neighbor order. Undirected graphs store both directions.

The kernels multiply by four unit-valued CSR operators (the adjacency,
its transpose, and the incidence by dst and by src), each built on first
use and kept for the life of the graph, with every row's columns in the
order a scatter-add over the stored edges would reach them.
"""

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, GraphStructureError


class SparseAdjacency:
    """Directed edge list with per-destination row offsets.

    Attributes:
        n_nodes: node count.
        src, dst: int64 arrays of equal length E, sorted by (dst, src).
        offsets: int64 array of length n_nodes + 1; in-edges of node i are
            the slice offsets[i]:offsets[i+1].
    """

    __slots__ = ("n_nodes", "src", "dst", "offsets",
                 "_adj_to_dst", "_adj_to_src", "_inc_to_dst", "_inc_to_src")

    def __init__(self, n_nodes, src, dst):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphStructureError("src/dst must be 1-d arrays of equal length")
        if src.size:
            if src.min() < 0 or dst.min() < 0:
                raise GraphStructureError("negative node index")
            if src.max() >= n_nodes or dst.max() >= n_nodes:
                raise GraphStructureError("node index out of range")
        order = np.lexsort((src, dst))
        src = src[order]
        dst = dst[order]
        if src.size > 1:
            same = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
            if same.any():
                raise GraphStructureError("duplicate directed edge")
        self.n_nodes = int(n_nodes)
        self.src = src
        self.dst = dst
        self.offsets = _row_offsets(dst, n_nodes)
        self._adj_to_dst = None
        self._adj_to_src = None
        self._inc_to_dst = None
        self._inc_to_src = None

    @classmethod
    def from_undirected(cls, n_nodes, pairs):
        """Build from unordered node pairs; both directions are stored.

        Rejects self-loops and duplicate pairs.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs[:, 0] == pairs[:, 1]).any():
            raise GraphStructureError("self-loop in undirected edge list")
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        if pairs.size:
            keys = lo * n_nodes + hi
            if np.unique(keys).size != keys.size:
                raise GraphStructureError("duplicate undirected edge")
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
        keep = self.src < self.dst
        pairs = np.stack([self.src[keep], self.dst[keep]], axis=1)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        return pairs[order]

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

    def to_dense(self):
        a = np.zeros((self.n_nodes, self.n_nodes))
        a[self.dst, self.src] = 1.0
        return a

    def __repr__(self):
        return f"SparseAdjacency(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def _row_offsets(keys, n_rows):
    """CSR row pointer: row r spans offsets[r]:offsets[r+1] of keys sorted by row."""
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_rows), out=offsets[1:])
    return offsets


def _unit_csr(columns, indptr, n_cols):
    """Unit-valued CSR matrix; each row's columns must already ascend."""
    n_rows = indptr.size - 1
    return sp.csr_matrix((np.ones(columns.size), columns, indptr), shape=(n_rows, n_cols))
