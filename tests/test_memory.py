"""The training step reuses its memory and keeps little of it alive.

Both tests measure ``training.backprop``, the step ``training.train`` takes.

The page-fault test runs in a fresh interpreter so that no earlier test's
allocations shape the heap being measured. With glibc tuned, a step faults
only where the heap grows, and the heap grows only when fragmentation
leaves no free block big enough for one of the step's arrays. On graphs it
has not seen, whether that happens depends on where earlier steps left
their long-lived blocks, which varies with the address-space layout and
the string hash seed. So the measured graphs are first stepped through
twice untimed: that builds their cached operators and sets the long-lived
blocks in place, and the measured pass repeats the requests of the pass
before it.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import graphbench
from graphbench import acceptance, tensor
from graphbench.models import GraphModel
from graphbench.seeding import derive_seed
from graphbench.training import backprop, make_instance_fn

MAX_FAULTS_PER_ITER = 200
# peak bytes allocated during one taped step, in units of one E x H float64
# array; the per-edge gate op keeps one such array per layer (per inner
# step after the first in glstm), so a regression that tapes more edge
# arrays shows here. The tape keeps only what backward reads: no op
# output, and each rule only the arrays it uses, which measured 10.1 and
# 22.6 (9.6 and 22.2 before gated_aggregate's backward kept both per-edge
# products for its two threads; 10.6 and 23.1 while it kept g[dst] alive
# past its last use). A tape whose entries hold their op outputs measured
# 18.3 and 40.9 (bounded at 22 and 48 then), and also keeping every
# intermediate gradient until backward returns measured 24.8 and 54.7;
# both fail
MAX_PEAK_EDGE_ARRAYS = {"gated_gcn": 12, "glstm": 27}

STEADY_STATE_FAULTS = """
import json, resource
from graphbench import acceptance, tensor
from graphbench.models import GraphModel
from graphbench.seeding import derive_seed
from graphbench.training import ADAM_DEFAULT_LR, Adam, backprop, make_instance_fn

config = acceptance.timing_configs()["gated_gcn"]
model = GraphModel(config, seed=1)
params = model.parameters()
opt = Adam(ADAM_DEFAULT_LR)
instance_fn = make_instance_fn("clustering", 0.1, 1)
insts = [instance_fn(derive_seed(1, "train", it)) for it in range(30)]


def step(inst):
    backprop(model, inst)
    opt.step(params)


for inst in insts[:20] + insts[20:] * 2:
    step(inst)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for inst in insts[20:]:
    step(inst)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"tuned": tensor.MALLOC_TUNED,
                  "faults_per_iter": (after - before) / 10}))
"""


@pytest.mark.skipif(not tensor.MALLOC_TUNED,
                    reason="glibc mallopt is not available here")
def test_training_step_does_not_refault_its_memory():
    # acceptance configuration (gated_gcn, L=6, T=3, 100K params): 20
    # warm-up iterations, two untimed passes over the 10 measured graphs,
    # then the measured pass
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(graphbench.__file__)))
    proc = subprocess.run([sys.executable, "-c", STEADY_STATE_FAULTS],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    measured = json.loads(proc.stdout)
    assert measured["tuned"]
    assert measured["faults_per_iter"] < MAX_FAULTS_PER_ITER, measured


@pytest.mark.parametrize("arch", sorted(MAX_PEAK_EDGE_ARRAYS))
def test_taped_step_peak_memory_in_edge_arrays(arch):
    # acceptance configuration (L=6, T=3, 100K params); one untraced step
    # first builds the graph's cached operators, then one step is traced
    config = acceptance.timing_configs()[arch]
    model = GraphModel(config, seed=1)
    inst = make_instance_fn("clustering", 0.1, 1)(derive_seed(1, "train", 0))
    backprop(model, inst)
    tracemalloc.start()
    try:
        backprop(model, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edge_arrays = peak / (inst.graph.adjacency.n_edges * config.hidden_dim * 8)
    assert edge_arrays <= MAX_PEAK_EDGE_ARRAYS[arch], edge_arrays
