"""The three benchmark workloads and the output checks they make.

Every workload runs all three stages of the pipeline, so every
end-to-end metric has samples on every workload.  The workload's own
stage is repeated in timed passes for the requested seconds; the other
stages are side operations, run a few times and spread over the run:

=========  =========================  =====================================
workload   timed passes               side operations
=========  =========================  =====================================
discover   find 7 orbits              certify twice each orbit whose stored
                                      residual passes; 10 half-period tracks
certify    certify 3 records          find those 3 orbits 3 more times;
                                      10 half-period tracks
stress     track 4 perturbed runs     find their 2 orbits 3 more times;
                                      certify them
=========  =========================  =====================================

Orbits a workload needs are found once before its passes.  A find that
serves only as input is still a find and adds its sample to ``find_s``.
The calibration loop of calibrate.py runs before every operation, and
each timing keeps the intervals it was summed over, so that it can be
scaled to the host's speed at that moment.

* find: builder seed (jittered by the workload seed) -> ``run`` ->
  ``make_record`` -> ``save_record``.
* certify: ``load_record`` -> ``record_to_model`` -> ``verify_record`` ->
  ``verify_symmetry`` -> ``return_error``, the calls of ``orbitctl verify``
  in the same order.
* track: one ``perturb_and_track`` run.

The library is reached through module attributes (``_m.descent.run``),
so the tracer's wrappers see the benchmark's own calls as well.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.util
import itertools
import math
import os
import subprocess
import sys
import time
import traceback
import types
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

from calibrate import calibration_loop

# The library's modules by name.  ``actionorbits.integrate`` is the
# function of that name, so the modules are imported by their full names.
_m = types.SimpleNamespace(**{
    name: importlib.import_module(f"actionorbits.{name}")
    for name in ("descent", "fourier", "integrate", "records", "symmetry")})

JITTER = 0.02                  # relative jitter of the builder seed values
SYMMETRY_TOL = 1e-9            # ``orbitctl verify`` defaults
RETURN_TOL = 1e-3
MIN_PASSES = 2                 # bit-identity needs two passes
PREP_REPEATS = 4               # finds per orbit outside discover's passes
SHORT_TRACKS = 10              # tracks outside stress's passes
SHORT_PERIODS = 0.5
STRESS_PERIODS = 10.0
DISCOVER_CERTIFIES = 2         # certifications per candidate in discover
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "setup_probe.py")


def _figure_eight():
    return _m.symmetry.build_choreography(
        3, active={"x": ("sin",), "y": ("sin",)},
        seed={("x", "sin", 1): 1.1, ("y", "sin", 2): 0.35},
        k_max=32, parity=_m.fourier.Parity.ALL)


# Catalogue order fixes each orbit's random stream; append, never reorder.
ORBITS = {
    "cubic-m1": lambda: _m.symmetry.build_cubic_family(1, k_max=27),
    "cubic-m3": lambda: _m.symmetry.build_cubic_family(3, k_max=27),
    "cubic-m5": lambda: _m.symmetry.build_cubic_family(5, k_max=27),
    "cubic-m7": lambda: _m.symmetry.build_cubic_family(7, k_max=27),
    "crisscross": lambda: _m.symmetry.build_crisscross(k_max=35),
    "crisscross-123": lambda: _m.symmetry.build_crisscross(
        (1.0, 2.0, 3.0), k_max=35),
    "figure-eight": _figure_eight,
}
STRESS_STREAM = len(ORBITS)


def seeded_params(name: str, params, seed: int):
    """The builder's seed values, each scaled by 1 +- JITTER."""
    rng = np.random.default_rng([seed, list(ORBITS).index(name)])
    scale = 1.0 + JITTER * rng.uniform(-1.0, 1.0, len(params))
    return params.with_values(params.values * scale)


def in_plane_direction(seed: int) -> np.ndarray:
    angle = np.random.default_rng([seed, STRESS_STREAM]).uniform(0, 2 * np.pi)
    return np.array([math.cos(angle), math.sin(angle), 0.0])


def load_references(path: str):
    """The frozen reference tables of the test suite, read in place."""
    spec = importlib.util.spec_from_file_location("reference_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def interval_seconds(intervals) -> float:
    """The summed length of [(start, end), ...]."""
    return sum(end - start for start, end in intervals)


@dataclass
class Found:
    name: str
    model: object
    result: object
    path: str


@dataclass
class CheckTally:
    passed: int = 0
    failed: int = 0
    detail: str = ""


@dataclass
class Bench:
    """State of one benchmark run: samples, checks and operation counts."""

    workdir: str
    src: str
    refs: object
    seed: int
    tracer: object = None
    side_ops: list = field(default_factory=list)
    # metric -> operation label -> one [(start, end), ...] per repeat: the
    # intervals its time is summed over
    samples: dict = field(default_factory=lambda: defaultdict(
        lambda: defaultdict(list)))
    # (perf_counter at its middle, seconds) of each calibration
    calibrations: list = field(default_factory=list)
    traced_pass_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    certified: int = 0
    certify_attempted: int = 0
    checks: dict = field(default_factory=dict)
    _prints: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    # -- bookkeeping ---------------------------------------------------

    def _check(self, op: str, label: str, ok: bool, detail: str = "") -> bool:
        tally = self.checks.setdefault((op, label), CheckTally())
        if ok:
            tally.passed += 1
        else:
            tally.failed += 1
            tally.detail = tally.detail or detail
        return ok

    def _same(self, op: str, fingerprint) -> bool:
        """True when ``fingerprint`` equals the first one seen for ``op``."""
        first = self._prints.setdefault(op, fingerprint)
        return self._check(op, "bit-identical across passes",
                           first == fingerprint,
                           f"{fingerprint!r:.80} != {first!r:.80}")

    def _operation(self, op: str, body):
        """Run one operation; count it, and count it failed if it raises or
        any of its checks fails.  Returns the body's result or None."""
        self.attempted += 1
        before = sum(t.failed for t in self.checks.values())
        try:
            out = body()
        except Exception:
            traceback.print_exc()
            self._check(op, "completes", False, "raised, see stderr")
            out = None
        if sum(t.failed for t in self.checks.values()) > before:
            self.failed += 1
        return out

    def _sample(self, metric: str, op: str, start: float) -> None:
        self.samples[metric][op].append([(start, time.perf_counter())])

    def calibrate(self) -> None:
        """Time the calibration loop now; see calibrate.py."""
        start = time.perf_counter()
        seconds = calibration_loop()
        self.calibrations.append(
            ((start + time.perf_counter()) / 2.0, seconds))

    def _span(self, stage: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(stage)

    # -- stages --------------------------------------------------------

    def find(self, name: str) -> Found | None:
        op = f"find {name}"

        def body():
            with self._span("stage.find"):
                start = time.perf_counter()
                model, params = ORBITS[name]()
                result = _m.descent.run(model, seeded_params(name, params,
                                                             self.seed))
                record = _m.records.make_record(
                    model, result.params, result,
                    _m.descent.DescentSchedule.preconditioned(),
                    _m.descent.StopRule())
                path = os.path.join(self.workdir, f"{name}.json")
                _m.records.save_record(record, path)
                self._sample("find_s", op, start)
                loaded = _m.records.load_record(path)
            self._check(op, "converged", result.converged, result.outcome)
            self._check(op, "record round-trips",
                        asdict(loaded) == asdict(record))
            self._same(op, (result.outcome, result.iterations, result.residual,
                            result.grad_norm, result.params.values.tobytes()))
            self._check_tables(op, name, result)
            return Found(name, model, result, path)

        return self._operation(op, body)

    def certify(self, found: Found) -> None:
        op = f"certify {found.name}"

        def body():
            self.certify_attempted += 1
            with self._span("stage.certify"):
                start = time.perf_counter()
                record = _m.records.load_record(found.path)
                model, params = _m.records.record_to_model(record)
                ok_residual, recomputed = _m.records.verify_record(record)
                symmetry = _m.symmetry.verify_symmetry(model, params,
                                                       tol=SYMMETRY_TOL)
                ret = _m.integrate.return_error(model, params)
                self._sample("certify_s", op, start)
            certified = (recomputed <= _m.records.RESIDUAL_CERTIFICATE
                         and symmetry.passed and ret <= RETURN_TOL)
            self.certified += certified
            self.verdicts[op] = (f"residual={recomputed:.3e} symmetry="
                                 f"{symmetry.max_error:.1e} return_error="
                                 f"{ret:.3e} certified={certified}")
            self._check(op, "residual within 2x stored", ok_residual,
                        f"{recomputed:.3e} vs {record.residual}")
            self._same(op, (recomputed, symmetry.element_errors, ret))

        self._operation(op, body)

    def track(self, found: Found, label: str, deviation, n_periods: float,
              must_exit: bool = False) -> None:
        op = f"track {found.name} {label}"

        def body():
            dev = np.zeros((found.model.n_bodies, 3))
            dev[0] = deviation
            with self._span("stage.track"):
                start = time.perf_counter()
                rep = _m.integrate.perturb_and_track(
                    found.model, found.result.params, dev, n_periods)
                self._sample("track_s", op, start)
            self.verdicts[op] = (f"{rep.verdict} max_deviation="
                                 f"{rep.max_deviation:.3e} exit_time="
                                 f"{rep.exit_time}")
            self._same(op, (rep.verdict, rep.max_deviation, rep.exit_time))
            if must_exit:
                self._check(op, "exits", rep.verdict == _m.integrate.EXITED,
                            rep.verdict)

        self._operation(op, body)

    def not_certified(self, found: Found) -> None:
        """Count an orbit whose stored residual already fails the
        certificate, without running the certify chain."""
        self.certify_attempted += 1
        self.verdicts[f"certify {found.name}"] = (
            f"stored residual {found.result.residual:.3e} fails the "
            f"certificate; chain not run")

    # -- output checks against the frozen tables -----------------------

    def _check_tables(self, op: str, name: str, result) -> None:
        refs = self.refs
        values = result.params.values
        slots = result.params.layout.slots
        if name.startswith("cubic-m"):
            m = int(name[len("cubic-m"):])
            ks = [s.k for s in slots]
            norm = values / values[0]
            worst = max(abs(norm[ks.index(k)] - v)
                        for k, v in refs.CUBIC_TABLES[m].items())
            self._check(op, "cubic table", worst <= refs.CUBIC_TABLE_TOL,
                        f"worst deviation {worst:.2e}")
        elif name == "crisscross":
            index = {(s.gen, s.channel, s.basis, s.k): i
                     for i, s in enumerate(slots)}
            worst = 0.0
            for k, row in refs.CRISSCROSS_TABLE.items():
                for key, expected in zip(((0, 0, "cos", k), (0, 1, "sin", k),
                                          (2, 0, "cos", k)), row):
                    worst = max(worst, abs(values[index[key]] - expected))
            self._check(op, "criss-cross table",
                        worst <= refs.CRISSCROSS_TABLE_TOL,
                        f"worst deviation {worst:.2e}")
            x1 = sum(values[i] for key, i in index.items()
                     if key[:3] == (0, 0, "cos"))
            self._check(op, "criss-cross x_1(0)",
                        abs(x1 - refs.CRISSCROSS_X1_SUM)
                        <= refs.CRISSCROSS_X1_TOL, f"{x1:.5f}")
        elif name == "crisscross-123":
            self._check(op, "no collision", result.collision_pair is None,
                        str(result.collision_pair))

    def check_a3_trend(self, found: dict) -> None:
        """a_3(m) of the normalized cubic tables rises toward the band."""
        a3 = [found[f"cubic-m{m}"].result.params.values[1]
              / found[f"cubic-m{m}"].result.params.values[0]
              for m in (3, 5, 7)]
        self._check("find cubic family", "a_3 monotone toward band",
                    a3[0] < a3[1] < a3[2] < self.refs.A3_BAND,
                    " < ".join(f"{v:.5f}" for v in a3))

    # -- set-up probes and passes --------------------------------------

    def setup_probe(self) -> None:
        """Time one fresh interpreter running ``setup_probe.py``."""
        op = "setup probe"

        def body():
            start = time.perf_counter()
            done = subprocess.run([sys.executable, PROBE, self.src],
                                  stdout=subprocess.DEVNULL, timeout=120)
            self._sample("setup_s", op, start)
            self._check(op, "exits 0", done.returncode == 0,
                        f"exit code {done.returncode}")

        self._operation(op, body)

    def _trace_into(self, bucket: str | None) -> None:
        if self.tracer is None:
            return
        if bucket is None:
            self.tracer.deactivate()
        else:
            self.tracer.activate(bucket)

    def passes(self, pass_ops, seconds: float, side_groups) -> None:
        """Repeat the pass, the operations ``pass_ops`` in order, until the
        passes have taken ``seconds`` and at least MIN_PASSES have run.

        The side operations (``side_groups`` interleaved with the set-up
        probes) run before the first pass operation and between any two,
        in equal shares over the passes the first one predicts, so their
        samples cover the whole run rather than one stretch of it.  A
        pass's time is that of its own operations.  With a tracer, passes
        alternate untraced and traced; side operations are traced into
        the "once" bucket.
        """
        side = [op for ops in itertools.zip_longest(self.side_ops,
                                                    *side_groups)
                for op in ops if op is not None]
        done = 0

        def run_side(slot, slots):
            nonlocal done
            due = min(len(side), math.ceil(len(side) * slot / slots))
            for op in side[done:due]:
                self.calibrate()
                op()
            done = max(done, due)

        count = 0
        spent = 0.0
        planned = MIN_PASSES
        per_pass = len(pass_ops)
        run_side(1, planned * per_pass + 1)
        while count < MIN_PASSES or spent < seconds:
            traced = self.tracer is not None and count % 2 == 1
            intervals = []
            for i, op in enumerate(pass_ops):
                self.calibrate()
                self._trace_into(f"pass{count}" if traced else None)
                start = time.perf_counter()
                op()
                intervals.append((start, time.perf_counter()))
                self._trace_into("once")
                run_side(count * per_pass + i + 2, planned * per_pass + 1)
            elapsed = interval_seconds(intervals)
            if traced:
                self.traced_pass_s.append(elapsed)
            else:
                self.samples["pass_s"]["pass"].append(intervals)
            spent += elapsed
            count += 1
            if count == 1:
                planned = max(MIN_PASSES, math.ceil(seconds / elapsed))
        run_side(1, 1)
        self.calibrate()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

DISCOVER = list(ORBITS)
CERTIFY = ["cubic-m1", "cubic-m5", "crisscross"]
STRESS = ["crisscross", "cubic-m1"]


def _certify_candidate(bench: Bench, f: Found) -> None:
    """Certify an orbit unless its stored residual already fails."""
    if f.result.residual is not None and \
            f.result.residual <= _m.records.RESIDUAL_CERTIFICATE:
        bench.certify(f)
    else:
        bench.not_certified(f)


def _short_tracks(bench: Bench, found: dict, name: str) -> list:
    """Short tracks of ``found[name]`` displaced 1e-3 in the plane."""
    step = 1e-3 * in_plane_direction(bench.seed)

    def one():
        if found[name] is not None:
            bench.track(found[name], f"dx=1e-3 {SHORT_PERIODS:g} periods",
                        step, SHORT_PERIODS)

    return [one] * SHORT_TRACKS


def _prepare(bench: Bench, names, repeats: int) -> tuple[dict, list]:
    """Find ``names`` now, plus side operations that find them again
    ``repeats - 1`` times."""
    found = {}
    for name in names:
        bench.calibrate()
        found[name] = bench.find(name)
    again = [functools.partial(bench.find, name) for name in names]
    return found, again * (repeats - 1)


def discover(bench: Bench, seconds: float) -> None:
    found, _ = _prepare(bench, DISCOVER, 1)
    current = {}

    def find(name):
        current[name] = bench.find(name)

    def a3_trend():
        if all(current[f"cubic-m{m}"] for m in (3, 5, 7)):
            bench.check_a3_trend(current)

    pass_ops = [functools.partial(find, name) for name in DISCOVER]
    certify_ops = [functools.partial(_certify_candidate, bench, found[name])
                   for name in DISCOVER if found[name] is not None]
    bench.passes(pass_ops + [a3_trend], seconds,
                 [certify_ops * DISCOVER_CERTIFIES,
                  _short_tracks(bench, found, "figure-eight")])


def certify(bench: Bench, seconds: float) -> None:
    found, finds = _prepare(bench, CERTIFY, PREP_REPEATS)
    pass_ops = [functools.partial(bench.certify, f)
                for f in found.values() if f is not None]
    bench.passes(pass_ops, seconds,
                 [finds, _short_tracks(bench, found, "crisscross")])


def stress(bench: Bench, seconds: float) -> None:
    found, finds = _prepare(bench, STRESS, PREP_REPEATS)
    certify_ops = [functools.partial(bench.certify, f)
                   for f in found.values() if f is not None]
    cc, cubic = found["crisscross"], found["cubic-m1"]
    direction = in_plane_direction(bench.seed)
    pass_ops = []
    if cc is not None:
        for d in (1e-3, 5e-3):
            pass_ops.append(functools.partial(
                bench.track, cc, f"dx={d:g} in-plane", d * direction,
                STRESS_PERIODS))
        pass_ops.append(functools.partial(
            bench.track, cc, "dz=0.005", np.array([0.0, 0.0, 5e-3]),
            STRESS_PERIODS))
    if cubic is not None:
        pass_ops.append(functools.partial(
            bench.track, cubic, "dx=0.001", np.array([1e-3, 0.0, 0.0]),
            STRESS_PERIODS, must_exit=True))
    bench.passes(pass_ops, seconds, [finds, certify_ops])


WORKLOADS = {"discover": discover, "certify": certify, "stress": stress}
