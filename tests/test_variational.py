import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from graphbench.adjacency import SparseAdjacency
from graphbench.dirichlet import (
    CG_TOL,
    build_laplacian,
    dirichlet_assign,
    jacobi_pcg,
)
from graphbench.errors import ContractError, SolverError
from graphbench.generators import (
    Graph,
    SbmParams,
    make_clustering_instance,
    sbm_generate,
)


def graph_from_pairs(n, pairs):
    adj = SparseAdjacency.from_undirected(n, np.asarray(pairs))
    return Graph(n_nodes=n, adjacency=adj,
                 signal=np.zeros(n, dtype=np.int64),
                 community=np.zeros(n, dtype=np.int64), n_communities=1)


def clique_pairs(nodes):
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]


def test_laplacian_structure():
    graph = sbm_generate(SbmParams(0.7, 0.2, (5, 6)), 0)
    lap = build_laplacian(graph).toarray()
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.array_equal(lap, lap.T)
    assert np.array_equal(np.diag(lap), graph.adjacency.in_degree())
    dense = graph.adjacency.to_dense()
    off = lap - np.diag(np.diag(lap))
    assert np.array_equal(off, -dense)


def coo_laplacian(graph):
    """L = D - A assembled from the sorted undirected pairs through COO, as
    build_laplacian did before it reused the graph's adjacency operator."""
    pairs = graph.adjacency.undirected_pairs()
    n = graph.n_nodes
    if pairs.size == 0:
        return sp.csr_matrix((n, n))
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    return sp.diags(degrees).tocsr() - adj


def test_laplacian_bit_identical_to_coo_assembly():
    rng = np.random.default_rng(21)
    seen = {"empty": 0, "isolated": 0, "single": 0}
    for k in range(1000):
        n = 1 if k % 10 == 0 else int(rng.integers(2, 40))
        p = (0.0, 0.05, 0.3, 1.0)[k % 4] if k % 5 else rng.uniform()
        i, j = np.nonzero(np.triu(rng.uniform(size=(n, n)) < p, 1))
        flip = rng.uniform(size=i.size) < 0.5
        pairs = np.stack([np.where(flip, j, i), np.where(flip, i, j)], axis=1)
        graph = graph_from_pairs(n, pairs[rng.permutation(i.size)])
        got, expect = build_laplacian(graph), coo_laplacian(graph)
        assert got.format == "csr" and got.shape == (n, n)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expect, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.has_sorted_indices == expect.has_sorted_indices
        seen["empty"] += i.size == 0
        seen["isolated"] += i.size > 0 and bool((graph.adjacency.in_degree() == 0).any())
        seen["single"] += n == 1
    assert min(seen.values()) >= 50, seen


def test_pcg_agrees_with_dense_solve():
    rng = np.random.default_rng(0)
    for n in (5, 12, 30, 50):
        # SPD system: Laplacian of a random connected-ish graph plus identity
        graph = sbm_generate(SbmParams(0.6, 0.3, (n // 2, n - n // 2)),
                             int(rng.integers(1 << 30)))
        a = (build_laplacian(graph) + sp.identity(n)).tocsr()
        b = rng.normal(size=n)
        x, iters = jacobi_pcg(a, b, tol=1e-10)
        expect = np.linalg.solve(a.toarray(), b)
        assert np.abs(x - expect).max() < 1e-6
        assert 0 < iters <= 10 * n


def test_pcg_zero_rhs_short_circuits():
    a = sp.identity(4, format="csr")
    x, iters = jacobi_pcg(a, np.zeros(4))
    assert np.array_equal(x, np.zeros(4))
    assert iters == 0


def test_pcg_iteration_budget():
    graph = sbm_generate(SbmParams(0.5, 0.3, (10, 10)), 3)
    a = (build_laplacian(graph) + sp.identity(20)).tocsr()
    b = np.ones(20)
    with pytest.raises(SolverError) as err:
        jacobi_pcg(a, b, tol=1e-14, max_iters=1)
    assert err.value.iterations == 1
    assert err.value.residual > 0


def test_pcg_rejects_nonpositive_diagonal():
    a = sp.diags([0.0, 1.0]).tocsr()
    with pytest.raises(ContractError):
        jacobi_pcg(a, np.ones(2))


def test_two_cliques_one_seed_each():
    left = clique_pairs(list(range(6)))
    right = clique_pairs(list(range(6, 11)))
    graph = graph_from_pairs(11, left + right)
    seed_mask = np.zeros(11, dtype=bool)
    seed_mask[[0, 6]] = True
    labels = np.zeros(11, dtype=np.int64)
    labels[6] = 1
    result = dirichlet_assign(graph, seed_mask, labels, n_classes=2)
    assert np.array_equal(result.assignment, [0] * 6 + [1] * 5)
    assert not result.flagged.any()
    # constant harmonic extension within each clique
    assert np.allclose(result.potentials[:6, 0], 1.0, atol=1e-7)
    assert np.allclose(result.potentials[6:, 1], 1.0, atol=1e-7)


def test_potentials_partition_unity_and_stay_in_range():
    graph = sbm_generate(SbmParams(0.6, 0.3, (8, 8, 8)), 5)
    seed_mask = np.zeros(24, dtype=bool)
    seed_mask[[0, 8, 16]] = True
    labels = np.zeros(24, dtype=np.int64)
    labels[8] = 1
    labels[16] = 2
    result = dirichlet_assign(graph, seed_mask, labels, n_classes=3)
    assert np.abs(result.potentials.sum(axis=1) - 1.0).max() < 1e-6
    assert result.potentials.min() > -1e-8
    assert result.potentials.max() < 1.0 + 1e-8


def test_matches_dense_block_solve():
    inst = make_clustering_instance(0.1, rng_seed=11)
    graph, seeds, targets = inst.graph, inst.seed_mask, inst.targets
    result = dirichlet_assign(graph, seeds, targets, n_classes=10)

    lap = build_laplacian(graph).toarray()
    free = ~seeds
    luu = lap[np.ix_(free, free)]
    lul = lap[np.ix_(free, seeds)]
    labels = targets[seeds]
    for c in range(10):
        rhs = -lul @ (labels == c).astype(float)
        expect = np.linalg.solve(luu, rhs)
        assert np.abs(result.potentials[free, c] - expect).max() < 1e-6


def test_seedless_component_gets_majority_and_flag():
    pairs = clique_pairs([0, 1, 2, 3]) + clique_pairs([4, 5, 6])
    graph = graph_from_pairs(7, pairs)
    seed_mask = np.zeros(7, dtype=bool)
    seed_mask[[0, 1, 2]] = True
    labels = np.array([1, 1, 0, 0, 0, 0, 0])
    result = dirichlet_assign(graph, seed_mask, labels, n_classes=2)
    assert result.flagged.tolist() == [False] * 4 + [True] * 3
    assert np.array_equal(result.assignment[4:], [1, 1, 1])  # majority seed class
    assert np.array_equal(result.potentials[4:], [[0.0, 1.0]] * 3)


def component_oracle_flags(graph, seed_mask):
    """Nodes in no seed's component, by scipy's connected_components."""
    _, component = connected_components(build_laplacian(graph), directed=False)
    return ~np.isin(component, np.unique(component[seed_mask]))


def seedless_communities(rng_seed):
    """A clustering graph with no cross-community edges, two seeds dropped."""
    inst = make_clustering_instance(0.0, rng_seed=rng_seed)
    mask = inst.seed_mask.copy()
    mask[np.flatnonzero(mask)[[1, 6]]] = False
    return inst.graph, mask, None


def mask_of(n, seeds):
    mask = np.zeros(n, dtype=bool)
    mask[seeds] = True
    return mask


# (graph, seed mask, number of flagged nodes, None where not worked out)
REACH_CASES = {
    # 0 and 11 are isolated seeds, 1 and 10 isolated non-seeds; the clique
    # {2, 3, 4} holds a seed, the path 5-6-7 and the edge 8-9 hold none
    "isolated_nodes_and_seedless_components": (
        graph_from_pairs(12, clique_pairs([2, 3, 4]) + [(5, 6), (6, 7), (8, 9)]),
        mask_of(12, [0, 2, 11]), 7),
    "long_path_seeded_at_one_end": (
        graph_from_pairs(60, [(i, i + 1) for i in range(59)]), mask_of(60, [0]), 0),
    "long_path_beside_a_seedless_path": (
        graph_from_pairs(66, [(i, i + 1) for i in range(59)]
                         + [(i, i + 1) for i in range(60, 65)]),
        mask_of(66, [30]), 6),
    "all_seeds": (graph_from_pairs(5, [(0, 1), (2, 3)]), np.ones(5, dtype=bool), 0),
    "clustering_graph_with_seedless_communities": seedless_communities(4),
}


@pytest.mark.parametrize("case", REACH_CASES)
def test_flagged_matches_connected_components(case):
    graph, seed_mask, n_flagged = REACH_CASES[case]
    labels = np.zeros(graph.n_nodes, dtype=np.int64)
    result = dirichlet_assign(graph, seed_mask, labels, n_classes=2)
    expect = component_oracle_flags(graph, seed_mask)
    assert np.array_equal(result.flagged, expect)
    if n_flagged is None:
        assert expect.any()
    else:
        assert int(expect.sum()) == n_flagged


def test_seeds_keep_their_labels():
    inst = make_clustering_instance(0.1, rng_seed=2)
    result = dirichlet_assign(inst.graph, inst.seed_mask, inst.targets, 10)
    seeds = inst.seed_mask
    assert np.array_equal(result.assignment[seeds], inst.targets[seeds])
    assert set(np.unique(result.assignment)) <= set(range(10))


def test_assignment_is_deterministic():
    inst = make_clustering_instance(0.1, rng_seed=9)
    a = dirichlet_assign(inst.graph, inst.seed_mask, inst.targets, 10)
    b = dirichlet_assign(inst.graph, inst.seed_mask, inst.targets, 10)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.potentials, b.potentials)
    assert a.cg_iterations == b.cg_iterations


def test_input_validation():
    graph = graph_from_pairs(4, clique_pairs([0, 1, 2, 3]))
    with pytest.raises(ContractError):
        dirichlet_assign(graph, np.zeros(3, dtype=bool), np.zeros(3), 2)
    with pytest.raises(ContractError):
        dirichlet_assign(graph, np.zeros(4, dtype=bool), np.zeros(4), 2)
    bad = np.array([5, 0, 0, 0])
    mask = np.array([True, False, False, False])
    with pytest.raises(ContractError):
        dirichlet_assign(graph, mask, bad, 2)


def solo_pcg(a, b, tol=CG_TOL, max_iters=None):
    """Reference: the single right-hand-side solver, as first written."""
    n = b.shape[0]
    if max_iters is None:
        max_iters = 10 * n
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(n), 0
    inv_diag = 1.0 / a.diagonal()
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


def per_class_potentials(graph, seed_mask, labels_full, n_classes):
    """Reference: one solo CG per class, as ``dirichlet_assign`` first did."""
    n = graph.n_nodes
    labels = labels_full[seed_mask]
    lap = build_laplacian(graph)
    _, component = connected_components(lap, directed=False)
    reachable = np.isin(component, np.unique(component[seed_mask]))
    majority = int(np.bincount(labels, minlength=n_classes).argmax())
    solve_mask = reachable & ~seed_mask
    potentials = np.zeros((n, n_classes))
    potentials[seed_mask, labels] = 1.0
    potentials[~reachable, majority] = 1.0
    cg_iters = []
    if solve_mask.any():
        luu = lap[solve_mask][:, solve_mask].tocsr()
        lul = lap[solve_mask][:, seed_mask].tocsr()
        for c in range(n_classes):
            x, iters = solo_pcg(luu, -lul @ (labels == c).astype(float))
            potentials[solve_mask, c] = x
            cg_iters.append(iters)
    assignment = potentials.argmax(axis=1)
    assignment[seed_mask] = labels
    return potentials, assignment, cg_iters


def test_dirichlet_bit_identical_to_per_class_solves():
    # every third graph loses one seed: that class's right-hand side is all
    # zeros, and at q = 0 its community becomes a seedless component
    seedless = zero_columns = 0
    for i in range(120):
        inst = make_clustering_instance((0.0, 0.02, 0.1, 0.3)[i % 4], 500 + i)
        seeds = inst.seed_mask.copy()
        if i % 3 == 0:
            seeds[np.flatnonzero(seeds)[i % 10]] = False
        result = dirichlet_assign(inst.graph, seeds, inst.targets, 10)
        potentials, assignment, cg_iters = per_class_potentials(
            inst.graph, seeds, inst.targets, 10)
        assert result.potentials.tobytes() == potentials.tobytes(), i
        assert np.array_equal(result.assignment, assignment)
        assert result.cg_iterations == cg_iters
        assert all(type(it) is int for it in result.cg_iterations)
        seedless += bool(result.flagged.any())
        zero_columns += 0 in cg_iters
    assert seedless > 0 and zero_columns > 0


def spd_system(seed, n=40):
    graph = sbm_generate(SbmParams(0.4, 0.1, (n // 2, n - n // 2)), seed)
    return (build_laplacian(graph) + 0.05 * sp.identity(n)).tocsr()


def one_step_direction(a):
    """v with a @ v = lam * diag(a) * v: for b = diag(a) * v, the first
    Jacobi-preconditioned search direction is the solution's direction."""
    diag = a.diagonal()
    _, vecs = np.linalg.eigh(a.toarray() / np.sqrt(np.outer(diag, diag)))
    return vecs[:, -1] / np.sqrt(diag)


def test_pcg_columns_match_solo_solves():
    a = spd_system(4)
    rng = np.random.default_rng(8)
    # a zero column, an eigen-direction of the preconditioned system
    # (one iteration) and random columns scaled over many decades
    b = rng.normal(size=(40, 5)) * np.array([1.0, 1e-6, 1e6, 1.0, 1.0])
    b[:, 0] = 0.0
    b[:, 3] = a.diagonal() * one_step_direction(a)
    iters = np.zeros(5, dtype=np.int64)
    x, total = jacobi_pcg(a, b, column_iterations=iters)
    assert x.shape == (40, 5)
    assert type(total) is int and total == iters.sum()
    for c in range(5):
        x_c, iters_c = solo_pcg(a, b[:, c])
        assert x[:, c].tobytes() == x_c.tobytes()
        assert iters[c] == iters_c
    assert iters[0] == 0 and iters[3] == 1
    assert len(set(iters.tolist())) >= 3
    # a 1-D right-hand side keeps the solo return types
    x1, it1 = jacobi_pcg(a, b[:, 2])
    assert x1.tobytes() == x[:, 2].tobytes() and it1 == iters[2]
    assert type(it1) is int


def test_pcg_budget_reports_lowest_unconverged_column():
    a = spd_system(6)
    b = np.random.default_rng(1).normal(size=(40, 3))
    b[:, 0] = a.diagonal() * one_step_direction(a)
    solo_iters = [solo_pcg(a, b[:, c])[1] for c in range(3)]
    budget = min(solo_iters[1:]) - 1
    assert solo_iters[0] <= budget
    with pytest.raises(SolverError) as solo_err:
        solo_pcg(a, b[:, 1], max_iters=budget)
    # column 0 converges inside the budget, columns 1 and 2 both fail, and
    # the lower-index one is reported
    with pytest.raises(SolverError) as err:
        jacobi_pcg(a, b, max_iters=budget)
    assert err.value.iterations == budget
    assert err.value.residual == solo_err.value.residual
    # only column 1 fails
    with pytest.raises(SolverError) as err:
        jacobi_pcg(a, b[:, :2], max_iters=budget)
    assert err.value.residual == solo_err.value.residual
