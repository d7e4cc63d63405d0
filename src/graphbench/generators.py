"""Stochastic block model task generators.

Two node-classification tasks on SBM graphs:

* ``matching``: a fixed 20-node pattern graph (drawn once per run) is
  embedded edge-exact into a fresh 10-community host graph; the model must
  label which nodes belong to the pattern. Node inputs are a one-hot code
  of a ternary node signal; the pattern keeps its signal, so the task is
  solvable but the same code values also appear all over the host.
* ``clustering``: a 10-community SBM with exactly one labeled seed node
  per community; the model must propagate the seed labels to everyone
  else. Node inputs are the seed's community one-hot plus an "unlabeled"
  indicator column.

All draws flow through numpy Generators seeded explicitly, so instances
are reproducible byte-for-byte through the text serialization below.
"""

from dataclasses import dataclass

import numpy as np

from .adjacency import SparseAdjacency
from .errors import ContractError
from .seeding import derive_seed

TASK_MATCHING = "matching"
TASK_CLUSTERING = "clustering"
TASKS = (TASK_MATCHING, TASK_CLUSTERING)

N_SIGNALS = 3
PATTERN_SIZE = 20
PATTERN_INTRA_P = 0.5
HOST_COMMUNITIES = 10
HOST_SIZE_RANGE = (15, 25)
HOST_INTRA_P = 0.5
CLUSTER_COMMUNITIES = 10
CLUSTER_SIZE_RANGE = (5, 25)
CLUSTER_INTRA_P = 0.5
SBM_STATS_MIN_GRAPHS = 100  # fewest graphs validate_sbm_stats pools
# (input_dim, n_classes) per task, matching TaskInstance.node_features
TASK_DIMS = {TASK_MATCHING: (N_SIGNALS, 2),
             TASK_CLUSTERING: (CLUSTER_COMMUNITIES + 1, CLUSTER_COMMUNITIES)}


def check_probability(name, p):
    """Raise ContractError unless ``p`` lies in [0, 1] (NaN does not)."""
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"{name} must lie in [0, 1], got {p!r}")


@dataclass(frozen=True)
class SbmParams:
    intra_p: float
    inter_q: float
    community_sizes: tuple

    def __post_init__(self):
        check_probability("intra_p", self.intra_p)
        check_probability("inter_q", self.inter_q)
        if len(self.community_sizes) == 0 or any(s < 1 for s in self.community_sizes):
            raise ContractError("community sizes must be positive")


@dataclass
class Graph:
    n_nodes: int
    adjacency: SparseAdjacency
    signal: np.ndarray
    community: np.ndarray
    n_communities: int


@dataclass
class TaskInstance:
    graph: Graph
    task: str
    targets: np.ndarray
    seed_mask: np.ndarray = None

    @property
    def n_classes(self):
        return TASK_DIMS[self.task][1]

    def node_features(self):
        """Input encoding: n x 3 signal one-hot (matching) or
        n x 11 seed-label one-hot plus unlabeled flag (clustering)."""
        n = self.graph.n_nodes
        if self.task == TASK_MATCHING:
            return np.eye(N_SIGNALS)[self.graph.signal]
        feats = np.zeros((n, CLUSTER_COMMUNITIES + 1))
        seeded = self.seed_mask
        feats[np.nonzero(seeded)[0], self.targets[seeded]] = 1.0
        feats[~seeded, CLUSTER_COMMUNITIES] = 1.0
        return feats


def _sbm_edge_pairs(rng, sizes, intra_p, inter_q):
    """Draw undirected SBM edges, every candidate pair from one ``rng.random``.

    Draw order is fixed: block a's internal pairs (upper triangle,
    row-major), then its s_a x s_b row-major grid of cross pairs with each
    later block b, then block a + 1, and so on. PCG64 spends one 64-bit draw
    per double, so one call yields the stream of one call per block pair,
    and a given generator state always yields the same graph.

    The candidates are laid out in that order as runs, one per block pair
    a <= b and node i of block a: i against the consecutive nodes j of
    block b (those after i when b == a).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    pair_a, pair_b = np.triu_indices(len(sizes))
    runs = sizes[pair_a]
    # the runs of pair (a, b) take nodes starts[a], starts[a] + 1, ... in turn
    run_i = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs - starts[pair_a], runs)
    run_b = np.repeat(pair_b, runs)
    intra = run_b == np.repeat(pair_a, runs)
    first_j = np.where(intra, run_i + 1, starts[run_b])
    run_len = starts[run_b + 1] - first_j
    run_end = np.cumsum(run_len)
    u = rng.random(run_len.sum())
    drawn = np.flatnonzero(u < np.repeat(np.where(intra, intra_p, inter_q), run_len))
    run = np.searchsorted(run_end, drawn, side="right")
    # draw d of run r pairs run_i[r] with first_j[r] + (d - where r starts)
    pairs = np.column_stack((run_i[run], drawn + (first_j - run_end + run_len)[run]))
    community = np.repeat(np.arange(len(sizes)), sizes)
    return pairs, community


def sbm_generate(params: SbmParams, rng_seed):
    """One SBM graph with a uniform ternary signal on every node."""
    rng = np.random.default_rng(rng_seed)
    pairs, community = _sbm_edge_pairs(rng, params.community_sizes,
                                       params.intra_p, params.inter_q)
    n = int(np.sum(params.community_sizes))
    signal = rng.integers(0, N_SIGNALS, size=n)
    adj = SparseAdjacency.from_undirected(n, pairs)
    return Graph(n_nodes=n, adjacency=adj, signal=signal,
                 community=community, n_communities=len(params.community_sizes))


def make_pattern(rng_seed):
    """The 20-node pattern graph: a single dense block plus its signal."""
    params = SbmParams(intra_p=PATTERN_INTRA_P, inter_q=0.0,
                       community_sizes=(PATTERN_SIZE,))
    return sbm_generate(params, rng_seed)


def make_matching_instance(q_noise, rng_seed, pattern=None):
    """Host graph with the pattern embedded as an extra community.

    Pattern edges and signals are copied verbatim; host communities and all
    cross edges (including host-to-pattern, at probability ``q_noise``) are
    fresh draws. Returns (instance, pattern) so callers can reuse the
    pattern across a series of instances.
    """
    check_probability("q_noise", q_noise)
    rng = np.random.default_rng(rng_seed)
    if pattern is None:
        pattern = make_pattern(derive_seed(rng_seed, "pattern"))
    if pattern.n_nodes != PATTERN_SIZE:
        raise ContractError(f"pattern must have {PATTERN_SIZE} nodes")

    host_sizes = rng.integers(HOST_SIZE_RANGE[0], HOST_SIZE_RANGE[1] + 1,
                              size=HOST_COMMUNITIES)
    host_pairs, host_comm = _sbm_edge_pairs(rng, host_sizes, HOST_INTRA_P, q_noise)
    host_n = int(host_sizes.sum())
    n = host_n + PATTERN_SIZE

    cross = rng.random((host_n, PATTERN_SIZE)) < q_noise
    ci, cj = np.nonzero(cross)
    pattern_pairs = pattern.adjacency.undirected_pairs() + host_n
    pairs = np.concatenate([host_pairs,
                            np.column_stack((ci, cj + host_n)),
                            pattern_pairs])

    signal = np.concatenate([rng.integers(0, N_SIGNALS, size=host_n),
                             pattern.signal])
    community = np.concatenate([host_comm,
                                np.full(PATTERN_SIZE, HOST_COMMUNITIES)])
    targets = np.zeros(n, dtype=np.int64)
    targets[host_n:] = 1

    graph = Graph(n_nodes=n, adjacency=SparseAdjacency.from_undirected(n, pairs),
                  signal=signal, community=community,
                  n_communities=HOST_COMMUNITIES + 1)
    return TaskInstance(graph=graph, task=TASK_MATCHING, targets=targets), pattern


def make_clustering_instance(q_noise, rng_seed):
    """Ten-community SBM with one uniformly chosen seed node per community."""
    check_probability("q_noise", q_noise)
    rng = np.random.default_rng(rng_seed)
    sizes = rng.integers(CLUSTER_SIZE_RANGE[0], CLUSTER_SIZE_RANGE[1] + 1,
                         size=CLUSTER_COMMUNITIES)
    pairs, community = _sbm_edge_pairs(rng, sizes, CLUSTER_INTRA_P, q_noise)
    n = int(sizes.sum())

    starts = np.concatenate(([0], np.cumsum(sizes)))
    seed_mask = np.zeros(n, dtype=bool)
    for c in range(CLUSTER_COMMUNITIES):
        seed_mask[starts[c] + rng.integers(0, sizes[c])] = True

    graph = Graph(n_nodes=n, adjacency=SparseAdjacency.from_undirected(n, pairs),
                  signal=np.zeros(n, dtype=np.int64), community=community,
                  n_communities=CLUSTER_COMMUNITIES)
    return TaskInstance(graph=graph, task=TASK_CLUSTERING,
                        targets=community.copy(), seed_mask=seed_mask)


# ---------------------------------------------------------------------------
# text serialization (canonical, so equal instances serialize byte-for-byte)

def _to_text(magic, fields, graph, node_columns):
    """Header lines, then one line per node from ``node_columns``, then the edges."""
    lines = [magic, *(f"{name} {value}" for name, value in fields.items()),
             f"n_nodes {graph.n_nodes}", f"n_communities {graph.n_communities}", "nodes"]
    lines += [" ".join(map(str, row)) for row in zip(*node_columns)]
    lines.append("edges")
    lines += [f"{i} {j}" for i, j in graph.adjacency.undirected_pairs()]
    lines.append("end")
    return "\n".join(lines) + "\n"


def graph_to_text(graph: Graph):
    return _to_text("graphbench-graph v1", {}, graph, (graph.signal, graph.community))


def instance_to_text(inst: TaskInstance):
    graph = inst.graph
    seeded = (inst.seed_mask.astype(np.int64) if inst.seed_mask is not None
              else np.zeros(graph.n_nodes, dtype=np.int64))
    return _to_text("graphbench-instance v1", {"task": inst.task}, graph,
                    (graph.signal, graph.community, inst.targets, seeded))


def _parse_header(lines, magic, fields):
    """Header values by field name, each converted by its type in ``fields``."""
    if not lines or lines[0] != magic:
        raise ContractError(f"expected header {magic!r}")
    values = {}
    for pos, (name, kind) in enumerate(fields.items(), start=1):
        try:
            key, raw = lines[pos].split(" ", 1)
        except (IndexError, ValueError):
            raise ContractError(f"missing header field {name!r}") from None
        if key != name:
            raise ContractError(f"expected field {name!r}, found {key!r}")
        try:
            values[name] = kind(raw)
        except ValueError:
            raise ContractError(f"line {pos + 1}: {name} expects {kind.__name__}, "
                                f"got {raw!r}") from None
    return values, len(fields) + 1


def _parse_sections(lines, pos, n_nodes, node_width):
    # with an 'end' line ahead, every line read below exists: a node line
    # that reads 'end' fails to parse before the text runs out
    if "end" not in lines[pos:]:
        raise ContractError(f"line {len(lines)}: text ends before 'end'")

    def ints(k, width, what):
        parts = lines[k].split()
        try:
            if len(parts) != width:
                raise ValueError
            return [int(p) for p in parts]
        except ValueError:
            raise ContractError(f"line {k + 1}: {what} must be {width} integers, "
                                f"got {lines[k]!r}") from None

    if lines[pos] != "nodes":
        raise ContractError(f"line {pos + 1}: expected 'nodes' section")
    rows = [ints(pos + 1 + i, node_width, "a node line") for i in range(n_nodes)]
    pos += 1 + n_nodes
    if lines[pos] != "edges":
        raise ContractError(f"line {pos + 1}: expected 'edges' section")
    pos += 1
    pairs = []
    while lines[pos] != "end":
        pairs.append(ints(pos, 2, "an edge line"))
        pos += 1
    node_rows = np.asarray(rows, dtype=np.int64).reshape(n_nodes, node_width)
    pair_arr = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
    return node_rows, pair_arr


def _parse_graph(text, magic, fields, node_width):
    """(header values, Graph, node rows) of a text ``_to_text`` wrote."""
    lines = text.splitlines()
    header, pos = _parse_header(lines, magic,
                                {**fields, "n_nodes": int, "n_communities": int})
    # the two counts are the header's last lines, n_nodes first
    for lineno, name in enumerate(("n_nodes", "n_communities"), start=pos - 1):
        if header[name] < 0:
            raise ContractError(f"line {lineno}: {name} must not be negative, "
                                f"got {header[name]}")
    n, k = header["n_nodes"], header["n_communities"]
    rows, pairs = _parse_sections(lines, pos, n, node_width)
    community = rows[:, 1]
    bad = np.flatnonzero((community < 0) | (community >= k))
    if bad.size:
        raise ContractError(
            f"line {pos + 2 + bad[0]}: community {community[bad[0]]} is out of "
            f"range for n_communities {k}")
    graph = Graph(n_nodes=n, adjacency=SparseAdjacency.from_undirected(n, pairs),
                  signal=rows[:, 0], community=community, n_communities=k)
    return header, graph, rows


def graph_from_text(text):
    return _parse_graph(text, "graphbench-graph v1", {}, node_width=2)[1]


def instance_from_text(text):
    header, graph, rows = _parse_graph(text, "graphbench-instance v1", {"task": str},
                                       node_width=4)
    task = header["task"]
    if task not in TASKS:
        raise ContractError(f"unknown task {task!r}")
    seed_mask = rows[:, 3].astype(bool) if task == TASK_CLUSTERING else None
    return TaskInstance(graph=graph, task=task, targets=rows[:, 2],
                        seed_mask=seed_mask)


# ---------------------------------------------------------------------------
# distribution sanity check

@dataclass
class SbmStats:
    n_graphs: int
    intra_density: float
    inter_density: float
    intra_z: float
    inter_z: float
    flags: list


def _z_score(edges, possible, prob):
    if possible == 0:
        return 0.0
    if prob in (0.0, 1.0):
        return 0.0 if edges == possible * prob else float("inf")
    mean = possible * prob
    sd = np.sqrt(possible * prob * (1.0 - prob))
    return float((edges - mean) / sd)


def validate_sbm_stats(graphs, intra_p, inter_q):
    """Pooled intra/inter edge-density check against the target probabilities.

    Densities are binomial proportions, so the pooled z-scores should stay
    small; |z| > 4 raises a flag rather than an exception because a single
    extreme draw is legitimate. A graph with HOST_COMMUNITIES + 1
    communities is read as a matching instance: the pairs inside its
    pattern community (label HOST_COMMUNITIES) are one draw copied into
    every instance, not fresh draws at ``intra_p``, so they are left out.
    """
    if len(graphs) < SBM_STATS_MIN_GRAPHS:
        raise ContractError(
            f"need at least {SBM_STATS_MIN_GRAPHS} graphs, got {len(graphs)}")
    intra_edges = inter_edges = 0
    intra_possible = inter_possible = 0
    for g in graphs:
        fresh = np.ones(g.n_communities, dtype=bool)
        if g.n_communities == HOST_COMMUNITIES + 1:
            fresh[HOST_COMMUNITIES] = False
        pairs = g.adjacency.undirected_pairs()
        if pairs.size:
            comm = g.community[pairs[:, 0]]
            same = comm == g.community[pairs[:, 1]]
            intra_edges += int((same & fresh[comm]).sum())
            inter_edges += int((~same).sum())
        sizes = np.bincount(g.community, minlength=g.n_communities)
        block_pairs = sizes * (sizes - 1) // 2
        intra_possible += int(block_pairs[fresh].sum())
        inter_possible += g.n_nodes * (g.n_nodes - 1) // 2 - int(block_pairs.sum())
    intra_z = _z_score(intra_edges, intra_possible, intra_p)
    inter_z = _z_score(inter_edges, inter_possible, inter_q)
    flags = []
    if abs(intra_z) > 4.0:
        flags.append(f"intra-community density off target (z={intra_z:.2f})")
    if abs(inter_z) > 4.0:
        flags.append(f"inter-community density off target (z={inter_z:.2f})")
    return SbmStats(
        n_graphs=len(graphs),
        intra_density=intra_edges / max(intra_possible, 1),
        inter_density=inter_edges / max(inter_possible, 1),
        intra_z=intra_z,
        inter_z=inter_z,
        flags=flags,
    )
