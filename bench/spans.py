"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces the public entry points of each graphbench
module with thin wrappers that record a span (name, start, end, parent)
and a few counts; ``Tracer.uninstall`` puts the originals back. Nothing in
``src/graphbench`` knows about it. A function is replaced under every
module attribute of the same name that is bound to it, so calls made
through ``from .x import f`` bindings are seen too (the tensor ops are
traced as ``models`` calls them, the generators as ``training`` calls
them).

Spans are kept in memory. ``summary`` reduces them to per-name call
counts, inclusive time and self time (inclusive minus the time covered by
child spans). Spans under ``training.evaluate`` are left out: they belong
to the end-of-run evaluation, not to a timed graph.
"""

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

KERNELS = ("scatter_rows", "neighbor_sum", "gated_neighbor_sum")
EXCLUDED_ROOT = "training.evaluate"


def _nbytes(values):
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self):
        # one entry per span: (name, start_ns, end_ns, parent index or -1,
        # counts dict or None)
        self.spans = []
        self.in_backward = False
        self._stack = []
        self._restore = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, after=None, backward_split=False):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name
            if backward_split:
                span_name += ".backward" if tracer.in_backward else ".forward"
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[index] = (span_name, start, end, parent, None)
            if after is not None:
                tracer.spans[index] = (span_name, start, end, parent, after(args, out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, attr, original, wrapped):
        """Rebind every graphbench module attribute ``attr`` that is ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "graphbench" and not mod_name.startswith("graphbench."):
                continue
            if getattr(mod, attr, None) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def _replace_method(self, cls, attr, wrapped):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    # -- counts attached to a span when it closes ---------------------------

    @staticmethod
    def _count_instance(args, out):
        inst = out[0] if isinstance(out, tuple) else out
        return {"nodes": inst.graph.n_nodes, "edges": inst.graph.adjacency.n_edges}

    @staticmethod
    def _count_tape_op(args, out):
        # an op output requires grad exactly when it was recorded on a tape
        return {"tape_ops": 1} if out.requires_grad else None

    @staticmethod
    def _count_kernel(args, out):
        return {"bytes": _nbytes(args) + out.nbytes}

    @staticmethod
    def _count_cg(args, out):
        return {"iters": out[1]}

    # -- installation ----------------------------------------------------------

    def install(self, gb):
        """Wrap the public entry points of each measured graphbench module."""
        for attr in ("make_clustering_instance", "make_matching_instance"):
            fn = getattr(gb.generators, attr)
            self._replace(attr, fn, self._wrap("generators.instance", fn,
                                               after=self._count_instance))

        build = gb.SparseAdjacency.__dict__["from_undirected"].__func__
        self._replace_method(gb.SparseAdjacency, "from_undirected",
                             classmethod(self._wrap("adjacency.build", build)))

        self._replace_method(gb.GraphModel, "forward",
                             self._wrap("models.forward", gb.GraphModel.forward))
        for cls in vars(gb.models).values():
            if inspect.isclass(cls) and getattr(cls, "arch", None) in gb.ARCHITECTURES:
                self._replace_method(cls, "__call__",
                                     self._wrap("models.layer", cls.__call__))

        ops = {attr: fn for attr, fn in vars(gb.models).items()
               if inspect.isfunction(fn) and fn.__module__ == gb.tensor.__name__}
        ops["softmax_cross_entropy"] = gb.tensor.softmax_cross_entropy
        for attr, fn in ops.items():
            self._replace(attr, fn, self._wrap(f"tensor.op.{attr}", fn,
                                               after=self._count_tape_op))

        backward = gb.tensor.backward
        traced_backward = self._wrap("tensor.backward", backward)

        def backward_flagged(loss):
            self.in_backward = True
            try:
                return traced_backward(loss)
            finally:
                self.in_backward = False

        self._replace("backward", backward, backward_flagged)

        for attr in KERNELS:
            fn = getattr(gb.kernels, attr)
            self._replace(attr, fn, self._wrap(f"kernels.{attr}", fn,
                                               after=self._count_kernel,
                                               backward_split=True))

        for cls in (gb.Adam, gb.Sgd):
            self._replace_method(cls, "step", self._wrap("training.optimizer", cls.step))
        for attr, name in (("weighted_loss", "training.loss"),
                           ("evaluate", EXCLUDED_ROOT)):
            fn = getattr(gb.training, attr)
            self._replace(attr, fn, self._wrap(name, fn))

        for attr, name, after in (("dirichlet_assign", "dirichlet.assign", None),
                                  ("build_laplacian", "dirichlet.laplacian", None),
                                  ("jacobi_pcg", "dirichlet.cg", self._count_cg)):
            fn = getattr(gb.dirichlet, attr)
            self._replace(attr, fn, self._wrap(name, fn, after=after))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive ms, self ms and summed counts.

        Also returns the inclusive ms of all top-level spans together.
        Spans inside ``training.evaluate`` (and the span itself) are dropped.
        """
        n = len(self.spans)
        excluded = [False] * n
        child_ns = [0] * n
        stats = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        top_level_ms = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            excluded[i] = name == EXCLUDED_ROOT or (parent >= 0 and excluded[parent])
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            if excluded[i]:
                continue
            dur_ms = (end - start) / 1e6
            entry = stats[name]
            entry["calls"] += 1
            entry["total_ms"] += dur_ms
            entry["self_ms"] += dur_ms - child_ns[i] / 1e6
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
            if parent < 0:
                top_level_ms += dur_ms
        return dict(stats), top_level_ms
