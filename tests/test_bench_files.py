"""The committed benchmark files still answer to the benchmark.

A performance change commits its paired parent/change runs as
``BENCH_<n>.json`` at the repository root, so later changes cite a file,
not prose.  Each file must parse, its claim must name a workload and an
end-to-end metric that ``BENCHMARK.json`` declares, and every workload it
reports must carry the parent's and the change's median of every
end-to-end metric.  ``BENCHMARK.json`` is only read here.
"""

import json
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_answers_to_the_benchmark(path):
    bench = json.loads(path.read_text())
    claim = bench["claim"]
    assert claim["workload"] in WORKLOADS, claim
    assert claim["metric"] in END_TO_END, claim
    assert set(bench["workloads"]) == WORKLOADS
    for workload, runs in bench["workloads"].items():
        metrics = runs["metrics"]
        for name in END_TO_END:
            for side in ("parent", "change"):
                median = metrics[name][side]["median"]
                assert isinstance(median, (int, float)) and \
                    math.isfinite(median), (workload, name, side, median)
