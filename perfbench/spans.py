"""Span tracing of cmigan's layers, applied from outside the package.

Each wrapper replaces a module attribute that a caller looks up when it
calls (``cmigan.estimators.mlp_forward_cached``, ``cmigan.knn.cKDTree``,
...), so the package source stays untouched and an untraced run executes
exactly the package's own code. A span's self time is its duration minus
the durations of the spans it directly encloses, so the self times of all
spans opened under a root add up to the root's duration.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span and counter store for one traced region."""

    def __init__(self):
        self.total = defaultdict(float)  # span name -> summed duration
        self.self_time = defaultdict(float)  # span name -> summed self time
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)  # counters recorded at span boundaries
        self.dataset_s = []  # (estimator, duration) of each dataset citest scores
        self.eval_rows = None  # row count of the data under estimation
        self._stack = []  # enclosed-child time of each open span

    def call(self, name, fn, *args, after=None, **kwargs):
        """Run ``fn`` inside a span; ``after(duration, args, result)`` then
        records counters. The callback runs after the span has closed, so
        its cost lands in the enclosing span's self time."""
        stack = self._stack
        stack.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            child = stack.pop()
            self.total[name] += duration
            self.self_time[name] += duration - child
            self.calls[name] += 1
            if stack:
                stack[-1] += duration
        if after is not None:
            after(self, duration, args, result)
        return result

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, after=after, **kwargs)

        return traced


def call(tracer, name, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


_MATMUL_SIZE = {}


def _matmul_size(spec) -> int:
    """Sum over layers of fan_in * fan_out for a network spec."""
    size = _MATMUL_SIZE.get(spec)
    if size is None:
        dims = spec.layer_dims()
        size = _MATMUL_SIZE[spec] = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    return size


def _after_forward(tracer, duration, args, result):
    # a forward pass does one (rows x fan_in) @ (fan_in x fan_out) matmul
    # per layer: 2 * rows * fan_in * fan_out flops, bias adds and ReLUs
    # not counted
    rows = args[1].shape[0]
    tracer.counts["neuralnet.forward_rows"] += rows
    tracer.counts["neuralnet.flops"] += 2 * rows * _matmul_size(args[0].spec)
    if rows == tracer.eval_rows:
        tracer.counts["estimators.eval_s"] += duration


def _after_backward(tracer, duration, args, result):
    # per layer: the weight gradient and the propagated delta are one
    # matmul each (the delta is formed for the input layer too)
    rows = args[2].shape[0]
    tracer.counts["neuralnet.flops"] += 4 * rows * _matmul_size(args[0].spec)


def _after_read(tracer, duration, args, result):
    tracer.counts["dataio.bytes_read"] += os.path.getsize(args[0])


def _after_write_path_arg(tracer, duration, args, result):
    tracer.counts["dataio.bytes_written"] += os.path.getsize(args[1])


def _after_write_first_arg(tracer, duration, args, result):
    tracer.counts["dataio.bytes_written"] += os.path.getsize(args[0])


def _after_write_returned(tracer, duration, args, result):
    tracer.counts["dataio.bytes_written"] += os.path.getsize(result)


def _after_ball_count(tracer, duration, args, result):
    tracer.counts["knn.marginal_neighbors"] += int(result.sum())


class _TracedTree:
    """A kd-tree whose construction and queries are spans."""

    def __init__(self, tracer, tree_cls, *args, **kwargs):
        self._tracer = tracer
        self._tree = tracer.call("knn.tree_build", tree_cls, *args, **kwargs)

    def query(self, *args, **kwargs):
        return self._tracer.call("knn.joint_query", self._tree.query, *args, **kwargs)

    def query_ball_point(self, *args, **kwargs):
        # knn calls this with return_length=True: the result holds ball counts
        return self._tracer.call(
            "knn.marginal_count", self._tree.query_ball_point, *args,
            after=_after_ball_count, **kwargs,
        )


# (module, attribute, span name, counter callback).
# Each attribute is the name the calling module looks up, so wrapping it
# times exactly the calls that module makes.
_PATCHES = (
    ("cmigan.estimators", "mlp_forward", "neuralnet.forward", _after_forward),
    ("cmigan.estimators", "mlp_forward_cached", "neuralnet.forward", _after_forward),
    ("cmigan.estimators", "mlp_backward_cached", "neuralnet.backward", _after_backward),
    ("cmigan.estimators", "add_grads", "neuralnet.add_grads", None),
    ("cmigan.estimators", "rmsprop_step", "neuralnet.rmsprop", None),
    ("cmigan.estimators", "log_mean_exp", "bounds.objective", None),
    ("cmigan.estimators", "softmax_weights", "bounds.objective", None),
    ("cmigan.estimators", "dv_objective", "bounds.objective", None),
    ("cmigan.estimators", "fdiv_objective", "bounds.objective", None),
    ("cmigan.estimators", "ScorePair", "bounds.objective", None),
    ("cmigan.estimators", "ksg_cmi_result", "knn", None),
    ("cmigan.estimators", "ksg_mi_result", "knn", None),
    ("cmigan.knn", "digamma", "knn.digamma", None),
    ("cmigan.cli", "run_cit_benchmark", "citest", None),
    ("cmigan.cli", "read_manifest", "dataio.read", _after_read),
    ("cmigan.cli", "load_csv", "dataio.read", _after_read),
    ("cmigan.cli", "gen_cit", "datagen.generate", None),
    ("cmigan.cli", "save_csv", "dataio.write", _after_write_path_arg),
    ("cmigan.cli", "write_sidecar", "dataio.write", _after_write_returned),
    ("cmigan.cli", "write_manifest", "dataio.write", _after_write_first_arg),
)


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore
    the original attributes."""
    saved = []
    try:
        for module_name, attr, span, after in _PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, after))

        knn = importlib.import_module("cmigan.knn")
        tree_cls = knn.cKDTree
        saved.append((knn, "cKDTree", tree_cls))
        knn.cKDTree = lambda *a, **k: _TracedTree(tracer, tree_cls, *a, **k)

        citest = importlib.import_module("cmigan.citest")
        estimate = citest.estimate
        saved.append((citest, "estimate", estimate))

        def score_dataset(samples, estimator, *args, **kwargs):
            start = perf_counter()
            try:
                return estimator_entry(tracer, estimate, samples, estimator, *args, **kwargs)
            finally:
                tracer.dataset_s.append((estimator, perf_counter() - start))

        citest.estimate = score_dataset
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def estimator_entry(tracer, fn, samples, *args, **kwargs):
    """Call a public estimator function inside an ``estimators`` span,
    marking forward passes over all of ``samples``' rows as eval passes."""
    if tracer is None:
        return fn(samples, *args, **kwargs)
    tracer.eval_rows = samples.n
    return tracer.call("estimators", fn, samples, *args, **kwargs)
