"""Per-layer tracing from outside the library.

The tracer replaces public functions of ``actionorbits`` with timing
wrappers in every module namespace that binds them (``descent.forces``,
``integrate.forces``, ``descent.EvalKernel``, ...), so the library source
stays untouched.  Wrappers are installed only for traced passes and
removed afterwards; they time and count calls and never alter arguments
or results, so traced and untraced passes produce identical outputs.

Every call is aggregated under (bucket, layer, parent layer), where the
parent is the nearest enclosing traced call and the bucket names the
benchmark pass it belongs to.  Calls outside the hot inner loops are also
kept as spans (name, parent span, start, end); spans and aggregates stay
in memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

# Layers called thousands of times per operation: aggregated, no spans.
HOT = {"dynamics.forces", "dynamics.potential", "symmetry.sample",
       "integrate.rk4_step"}

# (module, attribute, layer): every binding through which the library or
# the benchmark reaches a layer.  ``actionorbits.integrate`` is shadowed
# by the function of the same name, hence the module lookup by string.
BINDINGS = [
    ("symmetry", "build_cubic_family", "symmetry.build"),
    ("symmetry", "build_crisscross", "symmetry.build"),
    ("symmetry", "build_choreography", "symmetry.build"),
    ("records", "build_cubic_family", "symmetry.build"),
    ("records", "build_crisscross", "symmetry.build"),
    ("records", "build_choreography", "symmetry.build"),
    ("symmetry", "sample_positions", "symmetry.sample"),
    ("action", "sample_positions", "symmetry.sample"),
    ("dynamics", "sample_positions", "symmetry.sample"),
    ("integrate", "sample_positions", "symmetry.sample"),
    ("symmetry", "verify_symmetry", "symmetry.verify"),
    ("descent", "EvalKernel", "action.kernel_build"),
    ("action", "EvalKernel", "action.kernel_build"),
    ("descent", "run", "descent.run"),
    ("dynamics", "forces", "dynamics.forces"),
    ("descent", "forces", "dynamics.forces"),
    ("action", "forces", "dynamics.forces"),
    ("integrate", "forces", "dynamics.forces"),
    ("dynamics", "potential_energy", "dynamics.potential"),
    ("action", "potential_energy", "dynamics.potential"),
    ("dynamics", "residual", "dynamics.residual"),
    ("descent", "residual", "dynamics.residual"),
    ("records", "residual", "dynamics.residual"),
    ("integrate", "rk4_step", "integrate.rk4_step"),
    ("integrate", "return_error", "integrate.return_error"),
    ("integrate", "perturb_and_track", "integrate.perturb"),
    ("records", "save_record", "records.save"),
    ("records", "load_record", "records.load"),
]


def _pair_evals(positions) -> int:
    """Pairs times configurations of one ``forces`` call (computed)."""
    shape = np.shape(positions)
    n = shape[0]
    configs = shape[1] if len(shape) == 3 else 1
    return n * (n - 1) // 2 * configs


def _kernel_bytes(kernel) -> int:
    """Bytes of the sampled bases an ``EvalKernel`` holds (computed)."""
    return int(kernel.basis_pos.nbytes + kernel.basis_vel.nbytes
               + kernel.basis_acc.nbytes)


# Counters derived from a call's arguments or result, per layer.
def _on_call(layer, args, result):
    if layer == "dynamics.forces":
        return "dynamics.pair_evals", _pair_evals(args[2])
    if layer == "action.kernel_build":
        return "action.kernel_bytes", _kernel_bytes(result)
    if layer == "descent.run":
        return "descent.iterations", result.iterations
    if layer in ("records.save", "records.load"):
        return "records.bytes", os.path.getsize(args[1] if layer ==
                                                "records.save" else args[0])
    return None


class Tracer:
    """Timing wrappers plus the spans and aggregates they record."""

    def __init__(self):
        self.bucket = "once"
        self.totals = defaultdict(lambda: [0, 0.0])  # (bucket, layer, parent)
        self.counters = defaultdict(int)             # (bucket, counter)
        self.spans: list[tuple] = []
        self._stack: list[tuple[str, int | None]] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, layer: str):
        """Record a span opened by the benchmark itself."""
        start = self._enter(layer)
        try:
            yield
        finally:
            self._exit(layer, start)

    def _enter(self, layer: str):
        start = time.perf_counter()
        span_id = None
        if layer not in HOT:
            parent_span = self._stack[-1][1] if self._stack else None
            span_id = len(self.spans)
            self.spans.append([layer, parent_span, self.bucket, start, None])
        self._stack.append((layer, span_id))
        return start

    def _exit(self, layer: str, start: float):
        end = time.perf_counter()
        _, span_id = self._stack.pop()
        if span_id is not None:
            self.spans[span_id][4] = end
        parent = self._stack[-1][0] if self._stack else None
        entry = self.totals[(self.bucket, layer, parent)]
        entry[0] += 1
        entry[1] += end - start

    def _wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, start)
            counted = _on_call(layer, args, result)
            if counted is not None:
                self.counters[(self.bucket, counted[0])] += counted[1]
            return result
        return traced

    def activate(self, bucket: str):
        """Record into ``bucket`` from now on, installing the wrappers
        (every binding in :data:`BINDINGS`) if they are not in place."""
        self.bucket = bucket
        if self._saved:
            return
        for mod_name, attr, layer in BINDINGS:
            module = importlib.import_module(f"actionorbits.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))

    def deactivate(self):
        """Put the library's own functions back."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def buckets(self) -> list[str]:
        return sorted({key[0] for key in self.totals} |
                      {key[0] for key in self.counters})

    def bucket_view(self, bucket: str) -> "LayerTotals":
        view = LayerTotals()
        for (b, layer, parent), (count, secs) in self.totals.items():
            if b == bucket:
                view.add(layer, parent, count, secs)
        for (b, name), value in self.counters.items():
            if b == bucket:
                view.counters[name] += value
        return view

    def dump(self) -> dict:
        """Spans and aggregates as plain JSON-ready data."""
        return {
            "spans": [{"id": i, "layer": s[0], "parent": s[1], "bucket": s[2],
                       "start": s[3], "end": s[4]}
                      for i, s in enumerate(self.spans)],
            "totals": [{"bucket": b, "layer": layer, "parent": parent,
                        "calls": c, "seconds": s}
                       for (b, layer, parent), (c, s) in self.totals.items()],
            "counters": [{"bucket": b, "name": name, "value": v}
                         for (b, name), v in self.counters.items()],
        }


class LayerTotals:
    """Calls, seconds and counters of one bucket, or a combination."""

    def __init__(self):
        self.calls = defaultdict(int)      # (layer, parent)
        self.seconds = defaultdict(float)  # (layer, parent)
        self.counters = defaultdict(int)

    def add(self, layer, parent, count, secs):
        self.calls[(layer, parent)] += count
        self.seconds[(layer, parent)] += secs

    @classmethod
    def combine(cls, once: "LayerTotals", passes: list["LayerTotals"]):
        """``once`` plus the per-key median over ``passes``."""
        out = cls()
        for attr in ("calls", "seconds", "counters"):
            maps = [getattr(p, attr) for p in passes]
            base = getattr(once, attr)
            for key in set(base).union(*maps):
                per_pass = [m.get(key, 0) for m in maps] or [0]
                getattr(out, attr)[key] = base.get(key, 0) + float(
                    np.median(per_pass))
        return out

    def count(self, layer, parent=...):
        return sum(c for (l, p), c in self.calls.items()
                   if l == layer and (parent is ... or p == parent))

    def time(self, layer, parent=...):
        return sum(s for (l, p), s in self.seconds.items()
                   if l == layer and (parent is ... or p == parent))


def layer_metrics(t: LayerTotals) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from combined totals."""
    iterations = t.counters["descent.iterations"]
    loop_s = (t.time("descent.run")
              - t.time("action.kernel_build", "descent.run")
              - t.time("dynamics.residual", "descent.run"))
    rk4_steps = t.count("integrate.rk4_step")
    perturb_s = t.time("integrate.perturb")
    return {
        "symmetry.build_s": t.time("symmetry.build"),
        "symmetry.sample_calls": t.count("symmetry.sample"),
        "symmetry.sample_s": t.time("symmetry.sample"),
        "symmetry.verify_s": t.time("symmetry.verify"),
        "action.kernel_build_s": t.time("action.kernel_build"),
        "action.kernel_bytes": t.counters["action.kernel_bytes"],
        "descent.iterations": iterations,
        "descent.loop_s": loop_s,
        "descent.loop_s_per_iter": loop_s / iterations if iterations else 0.0,
        "dynamics.force_calls": t.count("dynamics.forces"),
        "dynamics.force_s": t.time("dynamics.forces"),
        "dynamics.pair_evals": t.counters["dynamics.pair_evals"],
        "dynamics.potential_calls": t.count("dynamics.potential"),
        "dynamics.potential_s": t.time("dynamics.potential"),
        "dynamics.residual_s": t.time("dynamics.residual"),
        "integrate.rk4_steps": rk4_steps,
        "integrate.rk4_s": t.time("integrate.rk4_step"),
        "integrate.force_calls_per_step": (
            t.count("dynamics.forces", "integrate.rk4_step") / rk4_steps
            if rk4_steps else 0.0),
        "integrate.return_error_s": t.time("integrate.return_error"),
        "integrate.perturb_s": perturb_s,
        "integrate.perturb_other_s": (
            perturb_s - t.time("integrate.rk4_step", "integrate.perturb")),
        "records.save_s": t.time("records.save"),
        "records.load_s": t.time("records.load"),
        "records.bytes": t.counters["records.bytes"],
    }


# Which end-to-end metric, on which workload, each layer metric should move.
LAYER_TAGS = {
    "symmetry.build_s": "find_s/discover",
    "symmetry.sample_calls": "find_s/discover, certify_s/certify",
    "symmetry.sample_s": "find_s/discover, certify_s/certify",
    "symmetry.verify_s": "certify_s/certify",
    "action.kernel_build_s": "find_s/discover",
    "action.kernel_bytes": "find_s/discover",
    "descent.iterations": "find_s/discover",
    "descent.loop_s": "find_s/discover",
    "descent.loop_s_per_iter": "find_s/discover",
    "dynamics.force_calls": "find_s/discover, certify_s/certify, track_s/stress",
    "dynamics.force_s": "find_s/discover, certify_s/certify, track_s/stress",
    "dynamics.pair_evals": "find_s/discover, certify_s/certify, track_s/stress",
    "dynamics.potential_calls": "find_s/discover",
    "dynamics.potential_s": "find_s/discover",
    "dynamics.residual_s": "certify_s/certify, find_s/discover",
    "integrate.rk4_steps": "certify_s/certify, track_s/stress",
    "integrate.rk4_s": "certify_s/certify, track_s/stress",
    "integrate.force_calls_per_step": "certify_s/certify, track_s/stress",
    "integrate.return_error_s": "certify_s/certify",
    "integrate.perturb_s": "track_s/stress",
    "integrate.perturb_other_s": "track_s/stress",
    "records.save_s": "find_s/discover, certify_s/certify",
    "records.load_s": "find_s/discover, certify_s/certify",
    "records.bytes": "find_s/discover, certify_s/certify",
}

# How each count is obtained; layer metrics not listed are timings.
COUNT_KIND = {
    "symmetry.sample_calls": "exact count",
    "descent.iterations": "exact count",
    "dynamics.force_calls": "exact count",
    "dynamics.potential_calls": "exact count",
    "integrate.rk4_steps": "exact count",
    "integrate.force_calls_per_step": "exact ratio",
    "action.kernel_bytes": "computed",
    "dynamics.pair_evals": "computed",
    "records.bytes": "measured file size",
}
