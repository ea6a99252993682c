"""Shared converged-orbit fixtures, and the benchmark's workloads.

Minimizations are deterministic, so each family is converged once per
session and reused by every test that needs it.
"""

import importlib.util
import pathlib
import sys

import pytest

import actionorbits as ao

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def workloads():
    """``perfbench/workloads.py``, loaded read-only from its file: its
    orbits, their seeded starts and its stages.  It imports calibrate from
    its own directory, and its dataclasses need the module registered."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        yield module


def _converge(model, params, schedule=None):
    result = ao.run(model, params, schedule)
    assert result.outcome == ao.CONVERGED, result.outcome
    return model, result


@pytest.fixture(scope="session")
def circle():
    """Two equal masses on a shared circle (analytic oracle family)."""
    model, params = ao.build_choreography(2, k_max=27)
    return _converge(model, params, ao.DescentSchedule.preconditioned(0.05))


@pytest.fixture(scope="session")
def cubic1():
    model, params = ao.build_cubic_family(1)
    return _converge(model, params)


@pytest.fixture(scope="session")
def cubic3():
    model, params = ao.build_cubic_family(3)
    return _converge(model, params)


@pytest.fixture(scope="session")
def cubic5():
    model, params = ao.build_cubic_family(5)
    return _converge(model, params)


@pytest.fixture(scope="session")
def cubic7():
    model, params = ao.build_cubic_family(7)
    return _converge(model, params)


@pytest.fixture(scope="session")
def crisscross():
    """Equal-mass criss-cross at k_max = 35 (comfortably certified)."""
    model, params = ao.build_crisscross(k_max=35)
    return _converge(model, params)


@pytest.fixture(scope="session")
def crisscross123():
    """Mass-ratio 1:2:3 criss-cross."""
    model, params = ao.build_crisscross((1.0, 2.0, 3.0), k_max=35)
    return _converge(model, params)
