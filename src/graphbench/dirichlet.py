"""Label propagation by minimizing the graph Dirichlet energy.

Seed nodes carry fixed one-hot class indicators; every other node gets the
harmonic extension of those indicators (equivalently, the probability that
a random walk from the node hits that class's seeds first). With the
combinatorial Laplacian L = D - A split into labeled (L) and unlabeled (U)
blocks, the per-class potentials solve

    L_UU x_c = -L_UL m_c

where m_c marks the seeds of class c. Each node takes the argmax class
over its potentials. Components containing no seed have no boundary
condition; their nodes are assigned the globally most frequent seed class
and flagged. They are found by a sweep outward from the seeds, one
product with the Laplacian per ring of neighbours, so a node is flagged
exactly when no path joins it to a seed.

The solver is a hand-written conjugate gradient with Jacobi (diagonal)
preconditioning; scipy.sparse supplies only matrix assembly and products.
All classes share L_UU, so their right-hand sides -L_UL M (M the seeds x
classes indicator matrix) come from one sparse-dense product and one CG
loop solves them together, each class's iterates bit-for-bit those of
solving it alone.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, SolverError

CG_TOL = 1e-8


def build_laplacian(graph):
    """Combinatorial Laplacian L = D - A with unit edge weights, CSR.

    Assembled straight from the stored edges: sorted by (dst, src), they
    are already -A in CSR order. Each node with neighbours gains one
    diagonal entry, its in-degree (its degree, the edge set being
    symmetric), inserted where its key v * n + v sorts among the edge keys
    dst * n + src. An isolated node's row stays empty, so L stores no
    zeros; every row's columns ascend.
    """
    adj = graph.adjacency
    n = adj.n_nodes
    degrees = adj.in_degree()
    nodes = np.flatnonzero(degrees)
    at = np.searchsorted(adj.dst * n + adj.src, nodes * (n + 1))
    indptr = adj.offsets.copy()
    indptr[1:] += np.cumsum(degrees > 0)
    data = np.insert(np.full(adj.n_edges, -1.0), at, degrees[nodes])
    return sp.csr_matrix((data, np.insert(adj.src, at, nodes), indptr), shape=(n, n))


def jacobi_pcg(a, b, tol=CG_TOL, max_iters=None, column_iterations=None):
    """Solve a @ x = b for SPD sparse a; returns (x, iterations).

    ``b`` is one right-hand side (n,) or k of them as columns (n, k); x has
    its shape. One loop advances every column, each bit-for-bit as if solved
    alone: right-hand sides are C-contiguous rows, dots and norms are the
    BLAS ``ddot`` of 1-D ``@`` and ``np.linalg.norm`` (via ``np.vecdot``),
    and scipy's multi-vector CSR product sums each row in its one-vector
    order. A column leaves the loop once ||r|| <= tol * ||b||; a zero column
    takes 0 iterations. ``iterations`` sums the columns' counts, and
    ``column_iterations`` (an int array of length k), if given, receives
    each one. Raises SolverError, with the relative residual of the
    lowest-index unconverged column, if max_iters passes.
    """
    rows = np.ascontiguousarray(np.atleast_2d(b.T))
    k, n = rows.shape
    if max_iters is None:
        max_iters = 10 * n
    b_norm = np.sqrt(np.vecdot(rows, rows))
    x_out = np.zeros((k, n))
    iters = np.zeros(k, dtype=np.int64)
    active = np.flatnonzero(b_norm != 0.0)
    if active.size:
        diag = a.diagonal()
        if np.any(diag <= 0):
            raise ContractError("Jacobi preconditioner needs a positive diagonal")
        inv_diag = 1.0 / diag
        bound = tol * b_norm[active]

        x = np.zeros((active.size, n))
        r = rows[active]
        z = inv_diag * r
        p = z.copy()
        rz = np.vecdot(r, z)
        for it in range(1, max_iters + 1):
            ap = np.ascontiguousarray((a @ p.T).T)
            alpha = (rz / np.vecdot(p, ap))[:, None]
            x += alpha * p
            r -= alpha * ap
            done = np.sqrt(np.vecdot(r, r)) <= bound
            if done.any():
                x_out[active[done]] = x[done]
                iters[active[done]] = it
                if done.all():
                    break
                keep = ~done
                active, bound = active[keep], bound[keep]
                x, r, p, rz = x[keep], r[keep], p[keep], rz[keep]
            z = inv_diag * r
            rz_new = np.vecdot(r, z)
            p = z + (rz_new / rz)[:, None] * p
            rz = rz_new
        else:
            raise SolverError(f"CG did not converge in {max_iters} iterations",
                              residual=float(np.linalg.norm(r[0]) / b_norm[active[0]]),
                              iterations=max_iters)
    if column_iterations is not None:
        column_iterations[:] = iters
    return (x_out.T if b.ndim == 2 else x_out[0]), int(iters.sum())


def _reached_from(lap, seed_mask):
    """Nodes joined to some seed by a path, found one ring at a time.

    For a node v outside the frontier indicator f, (L @ f)[v] is minus v's
    number of frontier neighbours, negative exactly where v borders the
    frontier. The rounds number the largest distance from the seeds plus
    one, about as many as CG needs iterations to carry a seed's value that
    far. The edge set being symmetric, the result is exactly the seeds'
    connected components.
    """
    reached = seed_mask.copy()
    frontier = seed_mask
    while frontier.any():
        frontier = (lap @ frontier < 0) & ~reached
        reached |= frontier
    return reached


@dataclass
class DirichletResult:
    assignment: np.ndarray
    potentials: np.ndarray
    flagged: np.ndarray
    cg_iterations: list


def dirichlet_assign(graph, seed_mask, seed_labels, n_classes):
    """Assign every node a class by harmonic extension of the seed labels.

    ``seed_labels`` is a full-length int array consulted where ``seed_mask``
    is True. Seeds keep their own label. Returns potentials (n x n_classes,
    rows of solved nodes sum to one), the assignment, and a flag mask for
    nodes in seedless components.
    """
    n = graph.n_nodes
    seed_mask = np.asarray(seed_mask, dtype=bool)
    seed_labels = np.asarray(seed_labels)
    if seed_mask.shape != (n,):
        raise ContractError("seed_mask must have one entry per node")
    if not seed_mask.any():
        raise ContractError("at least one seed node is required")
    labels = seed_labels[seed_mask]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ContractError("seed labels out of range")

    lap = build_laplacian(graph)
    reachable = _reached_from(lap, seed_mask)
    flagged = ~reachable
    majority = int(np.bincount(labels, minlength=n_classes).argmax())

    solve_mask = reachable & ~seed_mask
    potentials = np.zeros((n, n_classes))
    potentials[seed_mask, labels] = 1.0
    potentials[flagged, majority] = 1.0

    cg_iters = []
    if solve_mask.any():
        free_rows = lap[solve_mask]
        luu = free_rows[:, solve_mask].tocsr()
        lul = free_rows[:, seed_mask].tocsr()
        indicators = (labels[:, None] == np.arange(n_classes)).astype(float)
        iters = np.zeros(n_classes, dtype=np.int64)
        x, _ = jacobi_pcg(luu, (-lul) @ indicators, column_iterations=iters)
        potentials[solve_mask] = x
        cg_iters = iters.tolist()

    assignment = potentials.argmax(axis=1)
    assignment[seed_mask] = labels
    return DirichletResult(assignment=assignment, potentials=potentials,
                           flagged=flagged, cg_iterations=cg_iters)
