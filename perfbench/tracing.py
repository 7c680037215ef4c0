"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each ``fdpriv`` module from outside
the library: ``install`` replaces every binding of a wrapped function in every
loaded ``fdpriv`` module, because several modules bind imported names at
import time (``from .spectral import kernel_basis``).  Spans are kept in
memory as ``[name, start, end, parent, op]`` and written out when the run
ends.  A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.

Wrappers cost one attribute test when the tracer is inactive, so checks and
set-up run with ``tracer.active = False`` and are neither timed nor counted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

#: Public functions timed as spans: (module, function).  The span is named
#: "<module>.<function>".
SPAN_FUNCTIONS = (
    ("kernels", "gram_matrix"),
    ("spectral", "kernel_basis"),
    ("spectral", "compatibility_check"),
    ("smoothing", "penalized_mean"),
    ("simulate", "kl_simulate"),
    ("calibration", "calibrate"),
    ("mechanism", "release_function"),
    ("mechanism", "sample_noise"),
    ("mechanism", "dp_audit"),
    ("selection", "pcv_score"),
    ("selection", "cv_score"),
    ("io", "write_curves_csv"),
    ("io", "read_curves_csv"),
    ("io", "write_meta"),
)

#: Counts that add up within a cycle of a workload; "spectral.modes" instead
#: keeps the largest number of modes any basis of the cycle retained.
COUNT_NAMES = (
    "kernels.Curve.count",
    "spectral.kernel_basis.calls",
    "spectral.modes",
    "smoothing.SampleSet.count",
    "selection.pcv_score.calls",
    "selection.mc_normals",
    "io.write_bytes",
    "io.read_bytes",
    "mechanism.audit_samples",
    "rng.make_rng.calls",
)
MAX_COUNTS = ("spectral.modes",)


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block when the tracer is active."""
        if not self.active:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def paused(self):
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def add_count(self, name: str, amount) -> None:
        if name in MAX_COUNTS:
            self.counts[name] = max(self.counts[name], int(amount))
        else:
            self.counts[name] += int(amount)

    def merge(self, spans, counts) -> None:
        """Adopt spans and counts recorded by another process (a traced CLI call).

        Its root spans become children of the span open here, and every
        adopted span is labelled with this tracer's current op.
        """
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, p, _ in spans:
            self.spans.append([name, start, end, p + offset if p >= 0 else parent, self.op])
        for name, amount in counts.items():
            self.add_count(name, amount)


def self_times_by_op(spans) -> dict:
    """{op: {span name: summed self time}} over a list of spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, op) in enumerate(spans):
        out[op][name] += (end - start) - child_time[i]
    return out


def _rebind(original, replacement) -> None:
    """Replace every binding of ``original`` in every loaded fdpriv module."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "fdpriv" and not mod_name.startswith("fdpriv."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(tracer: Tracer) -> None:
    """Wrap fdpriv's public functions so that they record into ``tracer``.

    Call it before the calls to be traced.  A function or method the library
    no longer has is skipped, so its counts read 0 rather than the run
    failing.
    """
    modules = {name: importlib.import_module(f"fdpriv.{name}") for name, _ in SPAN_FUNCTIONS}
    from fdpriv import kernels, rng, smoothing, spectral

    original_kernel_basis = spectral.kernel_basis
    modes_memo: dict = {}

    def modes_for(spec, grid, tol) -> int:
        key = (spec.family, spec.rho, grid.size, float(grid.points[0]),
               float(grid.points[-1]), tol)
        if key not in modes_memo:
            with tracer.paused():
                modes_memo[key] = original_kernel_basis(spec, grid, tol).m
        return modes_memo[key]

    def counter_for(module: str, function: str):
        """Count recorded after a call: (args, result) -> None, or None."""
        if (module, function) == ("spectral", "kernel_basis"):
            def count(args, result):
                tracer.add_count("spectral.kernel_basis.calls", 1)
                tracer.add_count("spectral.modes", result.m)
            return count
        if (module, function) == ("mechanism", "dp_audit"):
            return lambda args, result: tracer.add_count(
                "mechanism.audit_samples", args["n_samples"])
        if module == "io" and function.startswith("write"):
            return lambda args, result: tracer.add_count(
                "io.write_bytes", os.path.getsize(args["path"]))
        if (module, function) == ("io", "read_curves_csv"):
            return lambda args, result: tracer.add_count(
                "io.read_bytes", os.path.getsize(args["path"]))
        return None

    def span_wrapper(module: str, function: str, fn):
        name = f"{module}.{function}"
        count = counter_for(module, function)
        pcv = (module, function) == ("selection", "pcv_score")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            bound = _bound_args(fn, args, kwargs) if (count or pcv) else None
            if pcv:
                # Normals a Monte-Carlo PCV cell draws: folds x draws x modes.
                draws = bound.get("mc_draws", 0)
                modes = modes_for(bound["spec"], bound["data"].grid, bound["tol"])
                tracer.add_count("selection.pcv_score.calls", 1)
                tracer.add_count("selection.mc_normals", bound.get("folds", 0) * draws * modes)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count:
                count(bound, result)
            return result

        return wrapper

    for module, function in SPAN_FUNCTIONS:
        original = getattr(modules[module], function, None)
        if original is not None:
            _rebind(original, span_wrapper(module, function, original))

    def method_wrapper(cls, attr: str, span: str | None, count: str | None):
        if cls is None or attr not in cls.__dict__:
            return
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count:
                tracer.counts[count] += 1
            if span is None:
                return fn(*args, **kwargs)
            with tracer.span(span):
                return fn(*args, **kwargs)

        setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)

    curve = getattr(kernels, "Curve", None)
    basis = getattr(spectral, "SpectralBasis", None)
    sample_set = getattr(smoothing, "SampleSet", None)
    method_wrapper(curve, "__post_init__", None, "kernels.Curve.count")
    method_wrapper(basis, "__post_init__", "spectral.SpectralBasis_validate", None)
    method_wrapper(sample_set, "__post_init__", "smoothing.SampleSet", "smoothing.SampleSet.count")
    # Building a SampleSet from rows includes the per-row Curve objects, so
    # the constructors' spans share the SampleSet name.
    method_wrapper(sample_set, "from_values", "smoothing.SampleSet", None)
    method_wrapper(sample_set, "from_curves", "smoothing.SampleSet", None)

    original_make_rng = rng.make_rng

    @functools.wraps(original_make_rng)
    def make_rng(*args, **kwargs):
        if tracer.active:
            tracer.counts["rng.make_rng.calls"] += 1
        return original_make_rng(*args, **kwargs)

    _rebind(original_make_rng, make_rng)
