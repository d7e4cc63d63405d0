import numpy as np
import pytest

from graphbench.errors import ContractError, InsufficientSamplesError
from graphbench.generators import (
    SbmParams,
    _sbm_edge_pairs,
    graph_from_text,
    graph_to_text,
    instance_from_text,
    instance_to_text,
    make_clustering_instance,
    make_matching_instance,
    make_pattern,
    sbm_generate,
    validate_sbm_stats,
)


def test_sbm_params_validated():
    with pytest.raises(ContractError):
        SbmParams(1.5, 0.1, (5,))
    with pytest.raises(ContractError):
        SbmParams(0.5, -0.1, (5,))
    with pytest.raises(ContractError):
        SbmParams(0.5, 0.1, ())
    with pytest.raises(ContractError):
        SbmParams(0.5, 0.1, (5, 0))


@pytest.mark.parametrize("q", [1.5, -0.2, float("nan")])
def test_instances_reject_noise_outside_unit_interval(q):
    # u < q would silently clamp q to 0 or 1 instead of failing
    with pytest.raises(ContractError, match="q_noise must lie in"):
        make_clustering_instance(q, 0)
    with pytest.raises(ContractError, match="q_noise must lie in"):
        make_matching_instance(q, 0)


def per_block_edge_pairs(rng, sizes, intra_p, inter_q):
    """Reference: one ``rng.random`` call per block pair, as first written."""
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    chunks = []
    for a in range(len(sizes)):
        ii, jj = np.triu_indices(sizes[a], k=1)
        keep = rng.random(ii.size) < intra_p
        chunks.append(np.column_stack((ii[keep] + starts[a], jj[keep] + starts[a])))
        for b in range(a + 1, len(sizes)):
            mask = rng.random((sizes[a], sizes[b])) < inter_q
            ii, jj = np.nonzero(mask)
            chunks.append(np.column_stack((ii + starts[a], jj + starts[b])))
    pairs = np.concatenate(chunks) if chunks else np.zeros((0, 2), dtype=np.int64)
    community = np.repeat(np.arange(len(sizes)), sizes)
    return pairs, community


def test_edge_pairs_bit_identical_to_per_block_draws():
    # same pairs in the same order, same communities, and the generator
    # left in the same state, over 1,200 random block layouts
    cases = np.random.default_rng(2026)
    for case in range(1200):
        n_blocks = 1 if case % 10 == 0 else int(cases.integers(1, 8))
        sizes = cases.integers(1, 4 if case % 3 == 0 else 14, size=n_blocks)
        p = (0.0, 1.0, float(cases.random()))[case % 3]
        q = (0.0, 1.0, float(cases.random()), float(cases.random()))[case % 4]
        seed = int(cases.integers(1 << 31))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs, community = _sbm_edge_pairs(rng, sizes, p, q)
        ref_pairs, ref_community = per_block_edge_pairs(ref_rng, sizes, p, q)
        assert pairs.dtype == ref_pairs.dtype and pairs.shape == ref_pairs.shape
        assert np.array_equal(pairs, ref_pairs), (sizes, p, q)
        assert np.array_equal(community, ref_community)
        assert rng.random() == ref_rng.random()


def test_sbm_generate_deterministic():
    params = SbmParams(0.5, 0.1, (6, 7, 5))
    a = sbm_generate(params, 123)
    b = sbm_generate(params, 123)
    assert graph_to_text(a) == graph_to_text(b)
    c = sbm_generate(params, 124)
    assert graph_to_text(a) != graph_to_text(c)


def test_sbm_disconnected_blocks_at_q0():
    g = sbm_generate(SbmParams(1.0, 0.0, (4, 4)), 0)
    pairs = g.adjacency.undirected_pairs()
    # p=1: both 4-cliques complete, q=0: no cross edges
    assert len(pairs) == 12
    assert np.all(g.community[pairs[:, 0]] == g.community[pairs[:, 1]])


def test_pattern_shape():
    pat = make_pattern(9)
    assert pat.n_nodes == 20
    assert pat.n_communities == 1
    assert set(np.unique(pat.signal)) <= {0, 1, 2}


def test_matching_instance_structure():
    inst, pattern = make_matching_instance(0.1, 42)
    g = inst.graph
    host_n = g.n_nodes - 20
    assert 150 <= host_n <= 250  # ten communities of 15..25
    assert g.n_communities == 11
    assert inst.targets.sum() == 20
    assert np.array_equal(np.nonzero(inst.targets)[0], np.arange(host_n, g.n_nodes))
    assert inst.n_classes == 2 and inst.input_dim == 3


def test_matching_pattern_embedded_edge_exact():
    inst, pattern = make_matching_instance(0.2, 7)
    g = inst.graph
    host_n = g.n_nodes - 20
    pairs = g.adjacency.undirected_pairs()
    inside = pairs[(pairs[:, 0] >= host_n) & (pairs[:, 1] >= host_n)] - host_n
    assert np.array_equal(inside, pattern.adjacency.undirected_pairs())
    assert np.array_equal(g.signal[host_n:], pattern.signal)


def test_matching_pattern_reused_across_series():
    _, pattern = make_matching_instance(0.1, 1)
    inst2, pattern2 = make_matching_instance(0.1, 2, pattern)
    assert pattern2 is pattern
    host_n = inst2.graph.n_nodes - 20
    assert np.array_equal(inst2.graph.signal[host_n:], pattern.signal)


def test_matching_features_one_hot_signal():
    inst, _ = make_matching_instance(0.1, 11)
    feats = inst.node_features()
    assert feats.shape == (inst.graph.n_nodes, 3)
    assert np.array_equal(feats.argmax(axis=1), inst.graph.signal)
    assert np.array_equal(feats.sum(axis=1), np.ones(inst.graph.n_nodes))


def test_clustering_instance_structure():
    inst = make_clustering_instance(0.1, 5)
    g = inst.graph
    assert 50 <= g.n_nodes <= 250  # ten communities of 5..25
    assert g.n_communities == 10
    assert inst.seed_mask.sum() == 10
    # exactly one seed inside each community
    assert np.array_equal(np.sort(g.community[inst.seed_mask]), np.arange(10))
    assert np.array_equal(inst.targets, g.community)


def test_clustering_features_encoding():
    inst = make_clustering_instance(0.1, 6)
    feats = inst.node_features()
    assert feats.shape == (inst.graph.n_nodes, 11)
    seeded = inst.seed_mask
    assert np.array_equal(feats[seeded].argmax(axis=1), inst.targets[seeded])
    assert np.all(feats[~seeded, 10] == 1.0)
    assert np.all(feats[~seeded, :10] == 0.0)
    assert np.array_equal(feats.sum(axis=1), np.ones(inst.graph.n_nodes))


def test_instance_text_roundtrip():
    for inst in (make_clustering_instance(0.15, 8),
                 make_matching_instance(0.15, 8)[0]):
        text = instance_to_text(inst)
        again = instance_from_text(text)
        assert instance_to_text(again) == text


def test_graph_text_roundtrip():
    g = make_pattern(3)
    text = graph_to_text(g)
    assert graph_to_text(graph_from_text(text)) == text


def test_instance_text_is_stable_for_seed():
    a = instance_to_text(make_clustering_instance(0.1, 77))
    b = instance_to_text(make_clustering_instance(0.1, 77))
    assert a == b


def test_parse_rejects_malformed():
    with pytest.raises(ContractError):
        instance_from_text("not a header\n")
    good = instance_to_text(make_clustering_instance(0.1, 1))
    with pytest.raises(ContractError):
        instance_from_text(good.replace("task clustering", "task foo"))


def _break_instance_text(how):
    """A clustering instance's text, broken one way, and the line to blame."""
    lines = instance_to_text(make_clustering_instance(0.1, 1)).splitlines()
    edges = lines.index("edges")
    if how == "cut before end":
        return "\n".join(lines[:-1]) + "\n", len(lines) - 1
    if how == "cut inside the nodes":
        return "\n".join(lines[:9]) + "\n", 9
    if how == "letter in the header":
        lines[2] = "n_nodes 1x"
        return "\n".join(lines) + "\n", 3
    if how == "letter in a node line":
        lines[7] = "x " + lines[7].split(" ", 1)[1]
        return "\n".join(lines) + "\n", 8
    if how == "negative node count":
        lines[2] = "n_nodes -3"
        return "\n".join(lines) + "\n", 3
    if how == "label past n_communities":
        lines[3] = "n_communities 2"
        first = next(k for k in range(lines.index("nodes") + 1, edges)
                     if int(lines[k].split()[1]) >= 2)
        return "\n".join(lines) + "\n", first + 1
    lines[edges + 1] += " 4"  # three fields on an edge line
    return "\n".join(lines) + "\n", edges + 2


@pytest.mark.parametrize("how", ["cut before end", "cut inside the nodes",
                                 "letter in the header", "letter in a node line",
                                 "three fields on an edge line"])
def test_malformed_instance_text_names_its_line(how):
    text, lineno = _break_instance_text(how)
    with pytest.raises(ContractError, match=f"^line {lineno}: "):
        instance_from_text(text)


@pytest.mark.parametrize("how, field", [("negative node count", "n_nodes"),
                                        ("label past n_communities", "community")])
def test_out_of_range_count_or_label_names_its_line_and_field(how, field):
    text, lineno = _break_instance_text(how)
    with pytest.raises(ContractError, match=f"^line {lineno}: {field} "):
        instance_from_text(text)


def test_validate_sbm_stats_needs_samples():
    graphs = [sbm_generate(SbmParams(0.5, 0.1, (5, 5)), s) for s in range(10)]
    with pytest.raises(InsufficientSamplesError):
        validate_sbm_stats(graphs, 0.5, 0.1)


def test_validate_sbm_stats_on_target():
    params = SbmParams(0.5, 0.1, (8, 8, 8))
    graphs = [sbm_generate(params, s) for s in range(100)]
    stats = validate_sbm_stats(graphs, 0.5, 0.1)
    assert stats.flags == []
    assert abs(stats.intra_density - 0.5) < 0.02
    assert abs(stats.inter_density - 0.1) < 0.02


def test_validate_sbm_stats_flags_wrong_probability():
    params = SbmParams(0.5, 0.1, (8, 8, 8))
    graphs = [sbm_generate(params, s) for s in range(100)]
    stats = validate_sbm_stats(graphs, 0.8, 0.1)  # wrong intra target
    assert any("intra" in f for f in stats.flags)
