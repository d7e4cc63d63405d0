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
and flagged.

The solver is a hand-written conjugate gradient with Jacobi (diagonal)
preconditioning; scipy.sparse supplies only matrix assembly and products.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ContractError, SolverError

CG_TOL = 1e-8


def build_laplacian(graph):
    """Combinatorial Laplacian L = D - A with unit edge weights, CSR."""
    pairs = graph.adjacency.undirected_pairs()
    n = graph.n_nodes
    if pairs.size == 0:
        return sp.csr_matrix((n, n))
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    return sp.diags(degrees).tocsr() - adj


def jacobi_pcg(a, b, tol=CG_TOL, max_iters=None):
    """Solve a @ x = b for SPD sparse a; returns (x, iterations).

    Convergence is relative: ||r|| <= tol * ||b||. Raises SolverError with
    the residual attached if max_iters passes without convergence.
    """
    n = b.shape[0]
    if max_iters is None:
        max_iters = 10 * n
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(n), 0
    diag = a.diagonal()
    if np.any(diag <= 0):
        raise ContractError("Jacobi preconditioner needs a positive diagonal")
    inv_diag = 1.0 / diag

    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for it in range(1, max_iters + 1):
        ap = a @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        res = np.linalg.norm(r)
        if res <= tol * b_norm:
            return x, it
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"CG did not converge in {max_iters} iterations",
                      residual=float(np.linalg.norm(r) / b_norm),
                      iterations=max_iters)


@dataclass
class DirichletResult:
    assignment: np.ndarray
    potentials: np.ndarray
    flagged: np.ndarray
    cg_iterations: list


def dirichlet_assign(graph, seed_mask, seed_labels, n_classes, tol=CG_TOL):
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
    # L's off-diagonal pattern is the adjacency; its diagonal only adds self-loops
    _, component = connected_components(lap, directed=False)

    seeded_components = np.unique(component[seed_mask])
    reachable = np.isin(component, seeded_components)
    flagged = ~reachable
    majority = int(np.bincount(labels, minlength=n_classes).argmax())

    solve_mask = reachable & ~seed_mask
    potentials = np.zeros((n, n_classes))
    potentials[seed_mask, labels] = 1.0
    potentials[flagged, majority] = 1.0

    cg_iters = []
    if solve_mask.any():
        luu = lap[solve_mask][:, solve_mask].tocsr()
        lul = lap[solve_mask][:, seed_mask].tocsr()
        for c in range(n_classes):
            m_c = (labels == c).astype(float)
            rhs = -lul @ m_c
            x, iters = jacobi_pcg(luu, rhs, tol=tol)
            potentials[solve_mask, c] = x
            cg_iters.append(iters)

    assignment = potentials.argmax(axis=1)
    assignment[seed_mask] = labels
    return DirichletResult(assignment=assignment, potentials=potentials,
                           flagged=flagged, cg_iterations=cg_iters)
