"""Benchmark of the actionorbits pipeline: find, certify and stress orbits.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload discover --seed 0 --seconds 8 --trace 0

The workload seed generates the inputs (the jitter of the builder seeds
and the stress directions); the library only receives those inputs.
The run prints a report, with every metric by name, unit and direction,
the output checks and the environment, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures with no tracing and reports the ``end_to_end``
metrics of BENCHMARK.json.  The timings of library operations are
scaled to the speed of a fixed calibration loop run before every
operation (``calibrate.py``), so that the shared host's changing speed
does not move them; the report also prints each one unscaled.
``setup_s`` is plain seconds.  The samples and calibrations are written
to ``.perfbench/samples-<workload>-seed<seed>.json``.

``--trace 1`` alternates untraced and traced passes and reports the
``per_layer`` metrics, in plain seconds: the median traced pass plus
everything outside the passes (preparation and side operations), each
tagged with the end-to-end metric and workload it should move.  It also
gives the tracing overhead (traced minus untraced pass time) and writes
the spans to ``.perfbench/trace-<workload>-seed<seed>.json``.

BLAS and OpenMP are pinned to one thread before NumPy is imported, which
is why NumPy is imported inside functions here.  The set-up probes
(``setup_probe.py``) run in fresh interpreters that inherit the same pins.
Everything the run writes stays under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = ROOT / "tests" / "reference_values.py"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def tail(samples):
    """(p, value) for the highest ladder percentile with at least ten
    samples beyond it, or None when there are fewer than twenty samples."""
    import numpy as np
    for p in TAIL_LADDER:
        if len(samples) * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(samples, p))
    return None


def environment(seed) -> dict:
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "actionorbits" / "__init__.py").is_file() \
            or not REFERENCES.is_file():
        print(f"perfbench: no actionorbits sources and reference tables "
              f"under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import setup_probe
    import tracer as tracing
    import workloads

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    env = environment(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env))
    try:
        setup_probe.first_calls()
        tracer = tracing.Tracer() if args.trace else None
        bench = workloads.Bench(workdir=workdir, src=str(SRC), seed=args.seed,
                                tracer=tracer,
                                refs=workloads.load_references(str(REFERENCES)))
        if tracer is None:
            bench.side_ops = [bench.setup_probe] * SETUP_PROBES
        else:
            tracer.activate("once")
        try:
            workloads.WORKLOADS[args.workload](bench, args.seconds)
        finally:
            if tracer is not None:
                tracer.deactivate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("checks:")
    for (op, label), tally in sorted(bench.checks.items()):
        verdict = "PASS" if tally.failed == 0 else "FAIL"
        detail = f"  [{tally.detail}]" if tally.failed else ""
        print(f"  {verdict} {op}: {label} ({tally.passed} passed, "
              f"{tally.failed} failed){detail}")
    print("verdicts:")
    for op, text in sorted(bench.verdicts.items()):
        print(f"  {op}: {text}")

    if args.trace:
        metrics, declared = trace_metrics(args, env, bench, tracer, tracing,
                                          out_dir), spec["per_layer"]
    else:
        metrics, declared = end_to_end_metrics(bench), spec["end_to_end"]
        path = out_dir / f"samples-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "environment": env, "samples": bench.samples,
            "calibrations": bench.calibrations}))
        print(f"samples written to {path.relative_to(ROOT)}")
    result = {}
    complete = True
    print("metrics:")
    for entry in declared:
        value, detail = metrics[entry["name"]]
        if value is None:  # every operation that would measure it failed
            value, complete = 0.0, False
        result[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
        print(f"  {entry['name']:32s} {value:14.6g} {entry['unit']:10s} "
              f"{entry['better']:6s} {detail}")
    print(json.dumps({"correct": bench.failed == 0 and complete,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": result}))
    return 0


def _timing(bench, metric: str, scale: bool = True
            ) -> tuple[float | None, str]:
    """Mean over operations of each operation's median time, so that a
    mix of fast and slow operations cannot flip the value between them;
    the tail percentile is over all samples.  With ``scale``, each sample
    is first scaled to the calibration loop's nominal speed, interval by
    interval (see calibrate.py)."""
    from calibrate import scaled_seconds
    from workloads import interval_seconds
    by_op = bench.samples[metric]
    if not by_op:
        return None, "no samples"
    raw = {op: [interval_seconds(iv) for iv in runs]
           for op, runs in by_op.items()}
    scaled = {op: [scaled_seconds(bench.calibrations, iv) for iv in runs]
              for op, runs in by_op.items()} if scale else raw
    samples = [s for runs in scaled.values() for s in runs]
    value = sum(median(runs) for runs in scaled.values()) / len(scaled)
    unscaled = sum(median(runs) for runs in raw.values()) / len(raw)
    t = tail(samples)
    extra = f"p{t[0]:g}={t[1]:.6g}" if t else "no tail (n<20)"
    return value, (f"mean of per-operation medians over {len(by_op)} "
                   f"operations; {extra}; n={len(samples)}; "
                   f"unscaled {unscaled:.6g}")


def end_to_end_metrics(bench) -> dict:
    ops = max(bench.attempted, 1)
    metrics = {
        "certified_share": (
            bench.certified / max(bench.certify_attempted, 1),
            f"{bench.certified} of {bench.certify_attempted} orbits"),
        "ok_share": (1.0 - bench.failed / ops,
                     f"{ops - bench.failed} of {ops} operations"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ru_maxrss of the workload process"),
    }
    # Set-up runs in fresh interpreters, mostly imports: the calibration
    # loop does not track it, so it is reported in plain seconds.
    metrics["setup_s"] = _timing(bench, "setup_s", scale=False)
    for name in ("pass_s", "find_s", "certify_s", "track_s"):
        metrics[name] = _timing(bench, name)
    return metrics


def trace_metrics(args, env, bench, tracer, tracing, out_dir) -> dict:
    from workloads import interval_seconds
    passes = [tracer.bucket_view(b) for b in tracer.buckets()
              if b.startswith("pass")]
    totals = tracing.LayerTotals.combine(tracer.bucket_view("once"), passes)
    values = tracing.layer_metrics(totals)
    untraced_s = [interval_seconds(iv)
                  for iv in bench.samples["pass_s"]["pass"]]
    untraced = median(untraced_s)
    traced = median(bench.traced_pass_s)
    print(f"tracing overhead: traced pass median {traced:.4f} s - untraced "
          f"{untraced:.4f} s = {traced - untraced:+.4f} s "
          f"({(traced - untraced) / untraced:+.1%})")
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    dump = tracer.dump()
    dump["environment"] = env
    dump["metrics"] = values
    dump["pass_s"] = {"untraced": untraced_s,
                      "traced": bench.traced_pass_s}
    path.write_text(json.dumps(dump))
    print(f"trace written to {path.relative_to(ROOT)}")
    return {name: (value, f"{tracing.COUNT_KIND.get(name, 'timing')}; "
                   f"moves {tracing.LAYER_TAGS[name]}")
            for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
