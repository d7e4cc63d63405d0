"""Golden instances and baseline potentials: generator and solver refactors
must leave every instance and every potential bit-identical.

Each hash covers 20 instances or solves, computed before the block-row
generator draw and the batched conjugate gradient replaced their per-block
and per-class loops. The clustering and matching hashes cover
``instance_to_text``; the Dirichlet hash covers the raw bytes of the
potentials (so signed zeros count) and the per-class CG iteration counts.

``instance_to_text`` re-sorts the edges, so it cannot see the order they
are stored in. The structure hash, computed before the single-key edge
sort and the operator-based Laplacian replaced the lexsort constructor and
the COO assembly, pins the dtype and raw bytes of every graph's ``src``,
``dst`` and ``offsets`` and of its Laplacian's CSR arrays.
"""

import hashlib

from graphbench.dirichlet import build_laplacian, dirichlet_assign
from graphbench.generators import (
    CLUSTER_COMMUNITIES,
    instance_to_text,
    make_clustering_instance,
    make_matching_instance,
)

GOLDEN = {
    "clustering": "1a9628ab9fc3b8f409136831136daa09034cf16d9c2231b3e4196387dbcf63cc",
    "matching": "8ce13e9a88fba48884ca607c3f29c861069bd2e4535e6e18197d9bc39f06d52e",
    "dirichlet": "d4126b59f791d87eca8ccde97a112f8f70fad3416c8578081e74881dd05425f3",
    "structure": "1f3f278e460e16bb669a072b4223840f47d1a21153ce3aa65dec36f1722d22ba",
}

NOISE = (0.0, 0.05, 0.1, 0.3)


def clustering_instances():
    return [make_clustering_instance(NOISE[i % 4], 1000 + i) for i in range(20)]


def clustering_sha256():
    digest = hashlib.sha256()
    for inst in clustering_instances():
        digest.update(instance_to_text(inst).encode())
    return digest.hexdigest()


def matching_instances():
    return [make_matching_instance(NOISE[i % 4], 2000 + i)[0] for i in range(20)]


def matching_sha256():
    digest = hashlib.sha256()
    for inst in matching_instances():
        digest.update(instance_to_text(inst).encode())
    return digest.hexdigest()


def structure_sha256():
    digest = hashlib.sha256()
    for inst in clustering_instances() + matching_instances():
        adj = inst.graph.adjacency
        lap = build_laplacian(inst.graph)
        for array in (adj.src, adj.dst, adj.offsets, lap.indptr, lap.indices, lap.data):
            digest.update(array.dtype.str.encode())
            digest.update(array.tobytes())
        digest.update(repr(lap.has_sorted_indices).encode())
    return digest.hexdigest()


def dirichlet_sha256():
    digest = hashlib.sha256()
    for inst in clustering_instances():
        result = dirichlet_assign(inst.graph, inst.seed_mask, inst.targets,
                                  CLUSTER_COMMUNITIES)
        digest.update(result.potentials.tobytes())
        digest.update(repr(result.cg_iterations).encode())
    return digest.hexdigest()


def test_clustering_instances_match_golden():
    assert clustering_sha256() == GOLDEN["clustering"]


def test_matching_instances_match_golden():
    assert matching_sha256() == GOLDEN["matching"]


def test_dirichlet_potentials_match_golden():
    assert dirichlet_sha256() == GOLDEN["dirichlet"]


def test_stored_structure_matches_golden():
    assert structure_sha256() == GOLDEN["structure"]
