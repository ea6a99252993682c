"""The benchmark's per-layer tracer still finds what it wraps, its set-up
probe still runs, and every exported name still resolves.

``perfbench/tracer.py`` times the library by rebinding names in its module
namespaces and reads the sampled bases of every ``EvalKernel`` it sees.  A
name that stops resolving breaks traced benchmark runs without failing any
library test, so the contract is checked here.  So is ``__all__``: a
deleted name left in it breaks ``from actionorbits import *`` only.
"""

import importlib
import importlib.util
import math
import pathlib

import numpy as np

import actionorbits
from actionorbits import EvalKernel, build_cubic_family

TWO_PI = 2.0 * math.pi

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """The benchmark's module ``name``, loaded from its file in place."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_setup_probe_first_calls_run():
    # the benchmark pays each stage's first call through this probe before
    # it times anything, so an API change that breaks the probe breaks
    # every benchmark run
    _load("setup_probe").first_calls()


def test_every_traced_binding_resolves():
    tracer = _load("tracer")
    for mod_name, attr, layer in tracer.BINDINGS:
        module = importlib.import_module(f"actionorbits.{mod_name}")
        assert callable(getattr(module, attr, None)), (mod_name, attr, layer)


def test_every_exported_name_resolves():
    names = actionorbits.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(actionorbits, name), name
    namespace = {}
    exec("from actionorbits import *", namespace)
    assert set(names) <= set(namespace)


def test_kernel_exposes_the_traced_bases():
    tracer = _load("tracer")
    model, params = build_cubic_family(1, k_max=5)
    kernel = EvalKernel(model, params)
    bases = [kernel.basis_pos, kernel.basis_vel, kernel.basis_acc]
    assert tracer._kernel_bytes(kernel) == sum(b.nbytes for b in bases)


def _counted(monkeypatch, module, attr):
    """Rebind ``module.attr`` to a wrapper that records each call."""
    real, calls = getattr(module, attr), []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)
    return calls


def test_every_rk4_step_goes_through_the_traced_binding(monkeypatch, circle):
    # the tracer counts ``integrate.rk4_steps`` by rebinding the module
    # global, so every fixed-step run must reach the step through it
    module = importlib.import_module("actionorbits.integrate")
    calls = _counted(monkeypatch, module, "rk4_step")
    model, result = circle
    state = module.extract_ics(model, result.params)
    module.integrate(state, model.masses, model.potential, dt=TWO_PI / 100,
                     horizon=1.5 * TWO_PI, record_stride=7)
    assert len(calls) == 150


def test_adaptive_checks_make_one_dop853_drive_each(monkeypatch, circle):
    # the return map and the tracker both run on the one DOP853 drive;
    # neither takes a fixed step the tracer would count as integrate.rk4_step
    module = importlib.import_module("actionorbits.integrate")
    steps = _counted(monkeypatch, module, "rk4_step")
    drives = _counted(monkeypatch,
                      importlib.import_module("actionorbits.dop853"), "drive")
    model, result = circle
    module.return_error(model, result.params)
    assert len(drives) == 1
    dev = np.zeros((2, 3))
    dev[0, 0] = 1e-6
    report = module.perturb_and_track(model, result.params, dev, 1.5,
                                      samples_per_period=10)
    assert report.verdict == module.BOUNDED
    assert len(drives) == 2
    assert steps == []

def test_samplers_go_through_the_traced_bindings(monkeypatch, circle):
    # the tracer counts ``symmetry.sample_calls`` by rebinding
    # ``sample_positions`` in each module that calls it, so these callers
    # must sample through their module's global, not a private path
    model, result = circle
    integrate = importlib.import_module("actionorbits.integrate")
    dynamics = importlib.import_module("actionorbits.dynamics")
    by_integrate = _counted(monkeypatch, integrate, "sample_positions")
    by_dynamics = _counted(monkeypatch, dynamics, "sample_positions")
    integrate.extract_ics(model, result.params)
    assert len(by_integrate) == 1          # positions and velocities
    integrate._CurveMetric(model, result.params)
    assert len(by_integrate) == 2          # the reference curve
    dynamics.residual(model, result.params)
    assert len(by_dynamics) == 1           # positions and accelerations
    dynamics.observables_series(model, result.params, np.linspace(0, 1, 5))
    assert len(by_dynamics) == 2           # positions and velocities
