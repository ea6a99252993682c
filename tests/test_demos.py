"""Every demo script runs to a clean finish.

Demo 04 is left out: its 40-period stability experiments take about
4 s on a 2-core Xeon VM (3.8-4.7 s over three runs, interpreter start
included; 16 s when they tracked with fixed-step RK4), and acceptance
criterion 7 already runs them.
"""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize(
    "demo", [d for d in DEMOS if not d.name.startswith("04_")],
    ids=lambda d: d.stem)
def test_demo_runs(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue()
