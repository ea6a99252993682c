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
from oracles import rk4_trajectory

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


def _bench(workloads, tmp_path):
    root = PERFBENCH.parent
    return workloads.Bench(
        workdir=str(tmp_path), src=str(root / "src"),
        refs=workloads.load_references(str(root / "tests" /
                                           "reference_values.py")),
        seed=1)


def test_benchmark_stages_run(workloads, tmp_path):
    # find, certify and track as the benchmark runs them, so that a
    # library change that breaks a stage fails here and not only as a
    # failed benchmark run
    bench = _bench(workloads, tmp_path)
    found = bench.find("cubic-m1")
    bench.certify(found)
    bench.track(found, "dx=1e-3", (1e-3, 0.0, 0.0), 0.5)
    assert (bench.attempted, bench.failed, bench.certified) == (3, 0, 1)


def test_benchmark_certifies_with_the_certificates_bounds(workloads, tmp_path,
                                                          monkeypatch):
    # the benchmark's certify stage times verify_record, verify_symmetry
    # and return_error one by one and composes the verdict itself, so its
    # bounds must stay those of records.certify: its own symmetry and
    # return tolerances, and the library's residual certificate
    records = importlib.import_module("actionorbits.records")
    assert workloads.SYMMETRY_TOL == records.SYMMETRY_TOL
    assert workloads.RETURN_TOL == records.RETURN_TOL
    # cubic m=3 at k_max=27 stops with a residual of about 2.6e-5 and a
    # return error of about 1.2e-4: a certificate of 1e-4 passes it
    bench = _bench(workloads, tmp_path)
    found = bench.find("cubic-m3")
    record = records.load_record(found.path)
    assert not records.certify(record).certified
    monkeypatch.setattr(records, "RESIDUAL_CERTIFICATE", 1e-4)
    bench.certify(found)
    assert (bench.attempted, bench.failed, bench.certified) == (2, 0, 1)
    assert records.certify(record).certified


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


def test_integrate_names_its_module():
    # no function of the package shadows the integrate module, so a test
    # or probe that patches ``actionorbits.integrate`` patches the module
    # (``actionorbits.action`` still names the function; see the README)
    assert importlib.import_module("actionorbits.integrate") \
        is actionorbits.integrate


def test_every_rk4_step_goes_through_the_traced_binding(monkeypatch, circle):
    # the tracer counts ``integrate.rk4_steps`` by rebinding the module
    # global; the library takes no fixed step, and the tests' RK4 oracle
    # reaches every step through it
    module = importlib.import_module("actionorbits.integrate")
    calls = _counted(monkeypatch, module, "rk4_step")
    model, result = circle
    state = module.extract_ics(model, result.params)
    rk4_trajectory(state, model.masses, model.potential, dt=TWO_PI / 100,
                   horizon=1.5 * TWO_PI, record_stride=7)
    assert len(calls) == 150


def test_adaptive_checks_make_one_dop853_drive_each(monkeypatch, circle):
    # the return map, the tracker and the exported trajectory each run on
    # one DOP853 drive; none takes a fixed step the tracer would count as
    # integrate.rk4_step
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
    traj = module.trajectory(model, result.params, 1.5, 10)
    assert traj.times.size == 16
    assert len(drives) == 3
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


def test_seed_and_record_loading_build_through_the_traced_bindings(
        monkeypatch, tmp_path):
    # the tracer times ``symmetry.build`` by rebinding the builders in
    # ``records``, so ``orbitctl seed`` and ``record_to_model`` must both
    # build a family through those module globals
    records = importlib.import_module("actionorbits.records")
    cli = importlib.import_module("actionorbits.cli")
    for family, builder in (
            (["cubic", "--m", "1"], "build_cubic_family"),
            (["crisscross", "--masses", "1:2:3"], "build_crisscross"),
            (["choreography", "--n", "3"], "build_choreography")):
        calls = _counted(monkeypatch, records, builder)
        path = str(tmp_path / f"{builder}.json")
        assert cli.main(["seed", "--family", *family, "--k-max", "5",
                         "--out", path]) == 0
        assert len(calls) == 1
        records.record_to_model(records.load_record(path))
        assert len(calls) == 2
