"""Tests for the integration checks: the DOP853 return error, trajectory
export and perturbation runs, with the tests' fixed-step RK4 driver as
their oracle, and the RK4 step that driver takes."""

import importlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import actionorbits as ao
from actionorbits import (
    BOUNDED,
    EXITED,
    CollisionError,
    PhaseState,
    PotentialSpec,
    build_choreography,
    extract_ics,
    forces,
    perturb_and_track,
    return_error,
    rk4_step,
    trajectory,
    write_trajectory,
)
from oracles import configuration_forces, rk4_trajectory

TWO_PI = 2.0 * math.pi
dop853 = importlib.import_module("actionorbits.dop853")
dynamics = importlib.import_module("actionorbits.dynamics")
integrate_module = importlib.import_module("actionorbits.integrate")


def _accelerator(model):
    return dynamics.pair_table(model.potential, model.masses).accelerator()


def _model_drive(model, pos, vel, horizon, times=(),
                 tol=integrate_module.DRIVE_TOL):
    """The drive ``return_error`` makes, the model's pair accelerator at
    the step budget and the return tolerance; at ``tol=TRACK_TOL``, the
    drive ``perturb_and_track`` makes."""
    return dop853.drive(_accelerator(model), pos, vel, horizon, times, tol,
                        math.ceil(integrate_module._step_budget(horizon)))


def _circle_state(a=1.0):
    """Two unit masses opposite each other on a radius-a circle, with the
    circular-orbit speed for the 1/r pair potential: v^2 = 1/(4a)."""
    pos = np.array([[a, 0.0, 0.0], [-a, 0.0, 0.0]])
    v = math.sqrt(1.0 / (4.0 * a))
    vel = np.array([[0.0, v, 0.0], [0.0, -v, 0.0]])
    return PhaseState(pos, vel)


class TestPhaseState:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseState(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            PhaseState(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ao.IntegrationError):
            PhaseState(np.full((2, 3), np.nan), np.zeros((2, 3)))

    def test_arrays_are_read_only(self):
        s = _circle_state()
        with pytest.raises(ValueError):
            s.positions[0, 0] = 9.9

    def test_extract_ics_matches_series(self, circle):
        model, result = circle
        state = extract_ics(model, result.params, t=0.7)
        assert np.allclose(state.positions,
                           ao.sample_positions(model, result.params, 0.7))
        assert np.allclose(state.velocities,
                           ao.sample_positions(model, result.params, 0.7,
                                               deriv=1))


class TestRK4:
    def test_fourth_order_convergence(self):
        # halving the step should shrink the one-period error ~16x;
        # allow a wide band because roundoff and error mixing blur it
        state = _circle_state()
        masses = np.ones(2)
        spec = PotentialSpec()
        errs = []
        for n in (256, 512):
            traj = rk4_trajectory(state, masses, spec, dt=TWO_PI * 2.0 / n,
                                  horizon=2.0 * TWO_PI, record_stride=n)
            errs.append(np.abs(traj.positions[-1] - state.positions).max())
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_energy_and_momentum_conserved(self):
        state = _circle_state(0.8)
        traj = rk4_trajectory(state, np.ones(2), PotentialSpec(),
                              dt=TWO_PI / 2048, horizon=TWO_PI,
                              record_stride=64)
        assert np.ptp(traj.energy) < 1e-12
        assert np.ptp(traj.angular_momentum[:, 2]) < 1e-12

    def test_recorded_invariants_match_single_configurations(self):
        spec = PotentialSpec()
        masses = np.array([1.0, 2.5, 0.7, 1.9])
        rng = np.random.default_rng(11)
        state = PhaseState(rng.normal(scale=1.5, size=(4, 3)),
                           rng.normal(scale=0.3, size=(4, 3)))
        traj = rk4_trajectory(state, masses, spec, dt=1e-3, horizon=0.05,
                              record_stride=3)
        singles = [ao.observables(spec, masses, p, v)
                   for p, v in zip(traj.positions, traj.velocities)]
        for got, want in ((traj.energy, np.array([o.E for o in singles])),
                          (traj.angular_momentum,
                           np.array([o.J for o in singles]))):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_single_step_signature(self):
        state = _circle_state()
        pos, vel = rk4_step(PotentialSpec(), np.ones(2), state.positions,
                            state.velocities, 0.0, 1e-3)
        assert pos.shape == (2, 3)
        assert vel.shape == (2, 3)
        assert not np.allclose(pos, state.positions)

    def test_head_on_collision_detected(self, monkeypatch):
        monkeypatch.setattr(dynamics, "COLLISION_THRESHOLD", 1e-2)
        pos = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        vel = np.zeros((2, 3))
        with pytest.raises(CollisionError) as exc:
            rk4_trajectory(PhaseState(pos, vel), np.ones(2), PotentialSpec(),
                           dt=1e-3, horizon=TWO_PI)
        err = exc.value
        assert err.pair == (0, 1)
        assert err.distance < 1e-2
        # radial free fall from rest at separation 2 under the 1/r pair
        # potential reaches the origin at t = (pi/2) sqrt(2)
        assert err.t == pytest.approx(0.5 * math.pi * math.sqrt(2.0), abs=1e-2)
        assert "[integration]" in str(err)

    @pytest.mark.parametrize("softening", [0.0, 0.3])
    @pytest.mark.parametrize("alpha", [-1.0, -2.0, 0.5, 1.0])
    def test_matches_plain_rk4_on_public_forces(self, alpha, softening):
        # the integrator's own pair path must reproduce, bit for bit, a
        # textbook RK4 driven by the public force routine
        spec = PotentialSpec(alpha=alpha, softening=softening)
        masses = np.array([1.0, 2.5, 0.7, 1.9])
        rng = np.random.default_rng(5)
        pos = rng.normal(scale=1.5, size=(4, 3))
        vel = rng.normal(scale=0.3, size=(4, 3))
        dt, n_steps = 1e-3, 200

        def acc(p):
            return forces(spec, masses, p)[0] / masses[:, None]

        p, v = pos.copy(), vel.copy()
        for _ in range(n_steps):
            a1 = acc(p)
            p2, v2 = p + 0.5 * dt * v, v + 0.5 * dt * a1
            a2 = acc(p2)
            p3, v3 = p + 0.5 * dt * v2, v + 0.5 * dt * a2
            a3 = acc(p3)
            p4, v4 = p + dt * v3, v + dt * a3
            a4 = acc(p4)
            p, v = (p + (dt / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4),
                    v + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4))
        traj = rk4_trajectory(PhaseState(pos, vel), masses, spec, dt=dt,
                              horizon=n_steps * dt, record_stride=n_steps)
        assert traj.times.size == 2
        assert np.array_equal(traj.positions[-1], p)
        assert np.array_equal(traj.velocities[-1], v)


class TestReturnError:
    def test_converged_orbit_closes(self, circle):
        model, result = circle
        err = return_error(model, result.params)
        assert err < 1e-9

    def test_unchanged_seed_does_not_close(self):
        model, params = build_choreography(2, k_max=9)
        err = return_error(model, params)
        assert err > 1e-2

    @pytest.mark.parametrize("fixture", ["circle", "crisscross"])
    def test_agrees_with_fixed_step_rk4(self, fixture, request):
        # the RK4 one-period map is the independent oracle for DOP853
        model, result = request.getfixturevalue(fixture)
        state = extract_ics(model, result.params)
        traj = rk4_trajectory(state, model.masses, model.potential,
                              dt=ao.DEFAULT_DT, horizon=TWO_PI,
                              record_stride=10_000)
        rk4 = max(np.abs(traj.positions[-1] - state.positions).max(),
                  np.abs(traj.velocities[-1] - state.velocities).max())
        err = return_error(model, result.params)
        assert abs(err - rk4) <= 2e-12 + 1e-6 * rk4

    def test_collision_is_reported_not_a_solver_traceback(self, circle,
                                                          monkeypatch):
        monkeypatch.setattr(dynamics, "COLLISION_THRESHOLD", 10.0)
        model, result = circle
        with pytest.raises(CollisionError) as exc:
            return_error(model, result.params)
        assert "[integration]" in str(exc.value)
        assert exc.value.pair == (0, 1)

    def test_non_finite_start_raises_instead_of_hanging(self, circle,
                                                        monkeypatch):
        # coincident bodies without a collision test give a NaN acceleration,
        # from which DOP853 would pick a NaN first step and never finish
        module = importlib.import_module("actionorbits.integrate")
        start = PhaseState(np.zeros((2, 3)),
                           [[0.0, 0.5, 0.0], [0.0, -0.5, 0.0]])
        monkeypatch.setattr(module, "extract_ics", lambda model, params: start)
        monkeypatch.setattr(dynamics, "COLLISION_THRESHOLD", 0.0)
        model, result = circle
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(ao.IntegrationError):
            return_error(model, result.params)

    def test_verify_and_perturb_load_no_scipy(self, crisscross, tmp_path):
        # the certificate and the tracker run on NumPy alone: a fresh
        # interpreter verifies a certified record and tracks it one period
        model, result = crisscross
        path = str(tmp_path / "crisscross.json")
        ao.save_record(ao.make_record(model, result.params, result), path)
        assert ao.load_record(path).converged
        code = ("import sys\n"
                "from actionorbits.cli import main\n"
                f"assert main(['verify', {path!r}]) == 0\n"
                f"assert main(['perturb', {path!r}, '--dx', '0.005',"
                " '--periods', '1']) == 0\n"
                "print(sorted(m for m in sys.modules"
                " if m == 'scipy' or m.startswith('scipy.')))\n")
        src = os.path.dirname(os.path.dirname(ao.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        lines = out.stdout.splitlines()
        assert lines[2].startswith("return_error:")
        assert lines[-1] == "[]"


class TestDOP853Driver:
    def test_tracker_samples_agree_with_fixed_step_rk4(self, crisscross):
        # one period of a displaced criss-cross at the tracker's sample
        # times; RK4 at 1000 steps per period is the independent oracle
        model, result = crisscross
        base = extract_ics(model, result.params)
        dev = np.zeros((3, 3))
        dev[0, 0] = 0.005
        rep = perturb_and_track(model, result.params, dev, 1.0)
        traj = rk4_trajectory(
            PhaseState(base.positions + dev, base.velocities), model.masses,
            model.potential, dt=TWO_PI / 1000, horizon=TWO_PI,
            record_stride=20)
        assert rep.verdict == BOUNDED
        assert np.allclose(rep.sample_times, traj.times, rtol=0, atol=1e-12)
        assert np.abs(rep.section_points - traj.positions).max() <= 1e-7

    def test_interior_samples_agree_with_step_ends(self, crisscross):
        # interior times read a step's dense interpolant; a drive that ends
        # at the same time reads the step's end state instead
        model, result = crisscross
        base = extract_ics(model, result.params)
        drive = list(_model_drive(
            model, base.positions, base.velocities, TWO_PI, (1.0, 2.5)))
        assert [t for t, _, _ in drive] == [0.0, 1.0, 2.5, TWO_PI]
        assert np.array_equal(drive[0][1], base.positions)
        assert np.array_equal(drive[0][2], base.velocities)
        for t, pos, vel in drive[1:]:
            *_, (end, pos_end, vel_end) = _model_drive(
                model, base.positions, base.velocities, t)
            assert end == t
            assert np.abs(pos - pos_end).max() <= 1e-11
            assert np.abs(vel - vel_end).max() <= 1e-11

    def test_non_finite_start_is_an_integration_error(self, circle):
        # checked before the first right-hand side call
        model, result = circle
        base = extract_ics(model, result.params)
        pos = base.positions.copy()
        pos[1, 2] = math.nan
        drive = _model_drive(model, pos, base.velocities, TWO_PI)
        assert next(drive)[0] == 0.0
        with pytest.raises(ao.IntegrationError, match="non-finite") as exc:
            next(drive)
        assert exc.value.t == 0.0

    def test_a_step_that_cannot_shrink_enough_fails(self, circle,
                                                    monkeypatch):
        # a NaN right-hand side rejects every step size until it falls
        # below ten spacings of floats; the drive reports where it stood
        dop = importlib.import_module("actionorbits.dop853")

        def nan(pos, t, out):
            out.fill(math.nan)

        assert dop.step(nan, 1.0, np.ones(4), np.ones(4), 0.1, 2.0, 1e-13,
                        dop.StagePlan((2,))) is None
        real = dop.step
        monkeypatch.setattr(dop, "step", lambda fun, t, *args: None
                            if t > 1.0 else real(fun, t, *args))
        model, result = circle
        with pytest.raises(ao.IntegrationError,
                           match="spacing between numbers") as exc:
            return_error(model, result.params)
        assert 1.0 < exc.value.t < TWO_PI

    def test_nothing_returned_shares_the_plan(self, crisscross, monkeypatch):
        # the stages are written in place into the plan's rows; no step
        # end, derivative, dense sample or yielded state may be one of them
        dop = importlib.import_module("actionorbits.dop853")
        plans = []
        build = dop.StagePlan
        monkeypatch.setattr(dop, "StagePlan",
                            lambda shape: plans.append(build(shape))
                            or plans[-1])

        def owned(value):
            # every array the plan holds, in lists and tuples too
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from owned(item)

        def shares_plan(a, plan):
            arrays = list(owned(list(vars(plan).values())))
            assert len(arrays) > 16 * 4    # the rows and their views
            return any(np.shares_memory(a, b) for b in arrays)

        def spring(pos, t, out):    # y'' = -y on a 2-entry position
            np.negative(pos, out)

        y = np.array([1.0, 0.0, 0.0, 1.0])
        plan = dop.StagePlan((2,))
        dop._derive(spring, 0.0, y, 0, plan)
        f = plan.K[0].copy()    # the first derivative a drive starts from
        assert f.tolist() == [0.0, 1.0, -1.0, -0.0]
        h_abs = dop.initial_step(spring, 0.0, y, f, 2.0, 1e-13, plan)
        t1, y1, f1, h_abs = dop.step(spring, 0.0, y, f, h_abs, 2.0, 1e-13,
                                     plan)
        kept = f1.copy()
        dense = dop.dense_output(spring, 0.0, t1, y, y1, f1, plan)
        sample = dense(0.5 * t1)
        t2, y2, f2, _ = dop.step(spring, t1, y1, f1, h_abs, 2.0, 1e-13, plan)
        for a in (f, y1, f1, sample, y2, f2):
            assert not shares_plan(a, plan)
        assert f1.tobytes() == kept.tobytes()    # the next step left it
        drive = list(dop.drive(spring, y[:2], y[2:], 2.0, (0.5, 1.0), 1e-13,
                               100))
        for _, pos, vel in drive:
            assert not (shares_plan(pos, plans[-1])
                        or shares_plan(vel, plans[-1]))
        model, result = crisscross
        base = extract_ics(model, result.params)
        drive = list(_model_drive(
            model, base.positions, base.velocities, TWO_PI, (1.0, 2.5)))
        for _, pos, vel in drive:
            assert not (shares_plan(pos, plans[-1])
                        or shares_plan(vel, plans[-1]))

    def test_tracked_deviation_agrees_with_fixed_step_rk4(self, crisscross):
        # two periods of a displaced criss-cross: the same curve metric on
        # RK4 samples at 1000 steps per period agrees to 1.2e-8 relative
        model, result = crisscross
        base = extract_ics(model, result.params)
        dev = np.zeros((3, 3))
        dev[0, 0] = 0.005
        rep = perturb_and_track(model, result.params, dev, 2.0)
        traj = rk4_trajectory(
            PhaseState(base.positions + dev, base.velocities), model.masses,
            model.potential, dt=TWO_PI / 1000, horizon=2.0 * TWO_PI,
            record_stride=20)
        metric = integrate_module._CurveMetric(model, result.params)
        rk4 = max(metric.distance(pos) for pos in traj.positions)
        assert rep.verdict == BOUNDED
        assert abs(rep.max_deviation - rk4) <= 1e-6 * rk4

    def test_step_budget_ends_a_crawling_run(self, monkeypatch):
        # the criss-cross seed needs over 100 steps a period; a budget of
        # 10 makes both callers stop where the drive gave up
        monkeypatch.setattr(integrate_module, "MAX_STEPS_PER_PERIOD", 10)
        model, params = ao.build_crisscross(k_max=35)
        with pytest.raises(ao.IntegrationError,
                           match="step budget of 10 spent") as exc:
            return_error(model, params)
        assert 0.0 < exc.value.t < TWO_PI
        base = extract_ics(model, params)
        dev = np.zeros((3, 3))
        dev[0, 0] = 1e-3
        rep = perturb_and_track(model, params, dev, 1.0, envelope=10.0)
        with pytest.raises(ao.IntegrationError) as exc:
            list(_model_drive(
                model, base.positions + dev, base.velocities, TWO_PI,
                tol=integrate_module.TRACK_TOL))
        assert rep.verdict == EXITED
        assert rep.exit_time == exc.value.t
        assert rep.sample_times[-1] <= rep.exit_time


class TestTrajectory:
    """``trajectory`` samples one DOP853 drive on the tracker's grid; RK4
    at 10,000 steps a period is its oracle."""

    @pytest.fixture(scope="class")
    def figure_eight(self, workloads):
        model, params = workloads.ORBITS["figure-eight"]()
        result = ao.run(model, params)
        assert result.outcome == ao.CONVERGED
        return model, result

    @pytest.mark.parametrize("fixture", ["circle", "crisscross", "cubic1",
                                         "figure_eight"])
    def test_agrees_with_fixed_step_rk4(self, fixture, request):
        # the default grid's 1,001 samples against every 10th RK4 step at
        # dt = 2pi 1e-4; the largest difference read 6.6e-12
        model, result = request.getfixturevalue(fixture)
        traj = trajectory(model, result.params)
        rk4 = rk4_trajectory(extract_ics(model, result.params), model.masses,
                             model.potential, dt=TWO_PI * 1e-4,
                             horizon=TWO_PI, record_stride=10)
        assert traj.times.size == rk4.times.size == 1001
        assert np.abs(traj.times - rk4.times).max() <= 1e-14
        assert np.abs(traj.positions - rk4.positions).max() <= 1e-10
        assert np.abs(traj.velocities - rk4.velocities).max() <= 1e-10

    @pytest.mark.parametrize("fixture", ["circle", "crisscross", "cubic1",
                                         "figure_eight"])
    def test_energy_spread(self, fixture, request):
        # at most 4.4e-12 over one period
        model, result = request.getfixturevalue(fixture)
        assert np.ptp(trajectory(model, result.params).energy) <= 1e-10

    @pytest.mark.parametrize("n_periods, samples", [(1.0, 1000), (2.5, 50),
                                                    (0.01, 7)])
    def test_times_are_the_trackers(self, circle, n_periods, samples):
        model, result = circle
        dev = np.zeros((2, 3))
        dev[0, 0] = 1e-6
        rep = perturb_and_track(model, result.params, dev, n_periods,
                                samples_per_period=samples)
        traj = trajectory(model, result.params, n_periods, samples)
        assert rep.verdict == BOUNDED
        assert traj.times.tobytes() == rep.sample_times.tobytes()
        assert traj.times[0] == 0.0
        assert traj.times[-1] == n_periods * TWO_PI
        assert traj.positions.shape == traj.velocities.shape == (
            traj.times.size, 2, 3)

    def test_repeated_calls_give_the_same_bytes(self, crisscross):
        model, result = crisscross
        first, second = (trajectory(model, result.params, 2.0, 100)
                         for _ in range(2))
        for name in ("times", "positions", "velocities", "energy",
                     "angular_momentum"):
            assert getattr(first, name).tobytes() == \
                getattr(second, name).tobytes(), name

    def test_blocks_keep_the_bits_of_one_batch(self):
        # 2,501 samples of cubic m = 5 (20 bodies, 190 pairs) come in
        # blocks of 1,024, 1,024 and 453, whose E and J are the bits of one
        # observables batch of every sample: observables sums bodies and
        # pairs in an order that neither the batch size nor the BLAS
        # thread count moves.
        code = ("import numpy as np\n"
                "import actionorbits as ao\n"
                "from actionorbits import integrate\n"
                "model, params = ao.build_cubic_family(5)\n"
                "params = ao.run(model, params).params\n"
                "blocks = integrate.trajectory_blocks(model, params, 2.5)\n"
                "print([block.times.size for block in blocks])\n"
                "traj = integrate.trajectory(model, params, 2.5)\n"
                "whole = ao.observables(model.potential, model.masses,\n"
                "    traj.positions.transpose(1, 0, 2),\n"
                "    traj.velocities.transpose(1, 0, 2))\n"
                "print(traj.energy.tobytes() == whole.E.tobytes(),\n"
                "      traj.angular_momentum.tobytes() == whole.J.tobytes())\n")
        src = os.path.dirname(os.path.dirname(ao.__file__))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.split("\n")[:2] == ["[1024, 1024, 453]", "True True"]

    def test_invariants_are_each_samples(self, cubic1):
        model, result = cubic1
        traj = trajectory(model, result.params, 0.25, 40)
        singles = [ao.observables(model.potential, model.masses, p, v)
                   for p, v in zip(traj.positions, traj.velocities)]
        for got, want in ((traj.energy, np.array([o.E for o in singles])),
                          (traj.angular_momentum,
                           np.array([o.J for o in singles]))):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n_periods", [0.0, -1.0, math.inf, math.nan,
                                           True, 1e307, 1e305])
    def test_bad_horizon_rejected(self, circle, n_periods):
        # 1e307 periods overflow the sample count, 1e305 the step budget
        model, result = circle
        with pytest.raises(ValueError):
            trajectory(model, result.params, n_periods)

    @pytest.mark.parametrize("samples", [
        0, -3, True, 2.5, integrate_module.MAX_SAMPLES_PER_PERIOD + 1])
    def test_bad_sample_grid_rejected(self, circle, samples):
        model, result = circle
        with pytest.raises(ValueError, match="samples_per_period"):
            trajectory(model, result.params, 1.0, samples)


def _scipy_drive(accelerate, pos, vel, times, tol=integrate_module.DRIVE_TOL):
    """Reference: scipy's DOP853 object at rtol = atol = ``tol`` on the
    drive's right-hand side (q', a(q)) for the accelerator, keyed by time:
    the state at t = 0 and at every step end, and the step's dense output
    at each of ``times`` inside a step; with the solver's count of
    right-hand-side evaluations."""
    from scipy.integrate import DOP853

    shape, half = pos.shape, pos.size

    def rhs(t, y):
        out = np.empty_like(y)
        out[:half] = y[half:]
        accelerate(y[:half].reshape(shape), t, out[half:].reshape(shape))
        return out

    y0 = np.concatenate((pos.ravel(), vel.ravel()))
    solver = DOP853(rhs, 0.0, y0, times[-1], rtol=tol, atol=tol)
    states, i = {0.0: y0}, 0
    while solver.status == "running":
        solver.step()
        states[solver.t] = solver.y
        dense = None
        while i < len(times) and times[i] <= solver.t:
            if times[i] < solver.t:
                if dense is None:
                    dense = solver.dense_output()
                states[times[i]] = dense(times[i])
            i += 1
    assert solver.status == "finished"
    return states, solver.nfev


class TestSciPyOracle:
    """The in-repo DOP853 is scipy's, transcribed: same tableau, same
    steps, same interpolant, to the bit."""

    def test_tableau_and_controller_are_scipys(self):
        from scipy.integrate import DOP853
        from scipy.integrate._ivp import rk

        dop = importlib.import_module("actionorbits.dop853")
        s = DOP853.n_stages
        for ours, theirs in ((dop._A[:s, :s], DOP853.A), (dop._B, DOP853.B),
                             (dop._C[:s], DOP853.C), (dop._E3, DOP853.E3),
                             (dop._E5, DOP853.E5), (dop._D, DOP853.D),
                             (dop._A[s + 1:], DOP853.A_EXTRA),
                             (dop._C[s + 1:], DOP853.C_EXTRA)):
            assert ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()
        assert (dop.N_STAGES, dop.ERROR_ORDER) == (
            s, DOP853.error_estimator_order)
        assert (dop.SAFETY, dop.MIN_FACTOR, dop.MAX_FACTOR) == (
            rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)

    @staticmethod
    def _assert_drive_is_scipys(accelerate, pos, vel, times,
                                tol=integrate_module.DRIVE_TOL):
        """Every step end and every interior (dense) sample of a drive at
        ``tol`` equals scipy's, byte for byte; returns the number of step
        ends that are not among ``times``."""
        states, _ = _scipy_drive(accelerate, pos, vel, times, tol)
        asked = sorted(states)[1:]
        drive = list(dop853.drive(
            accelerate, pos, vel, asked[-1], asked[:-1], tol,
            math.ceil(integrate_module._step_budget(asked[-1]))))
        assert [t for t, _, _ in drive] == [0.0, *asked]
        for t, p, v in drive:
            assert np.concatenate((p.ravel(), v.ravel())).tobytes() \
                == states[t].tobytes(), t
        return len(asked) - len(times)

    @pytest.mark.parametrize("case", ["crisscross-10-periods",
                                      "cubic1-return-map",
                                      "cubic5-return-map"])
    def test_drive_matches_scipy_bit_for_bit(self, request, case):
        # a 3-body track with interior samples, and one-period maps of 4
        # and of 20 bodies (a 120-entry state)
        if case == "crisscross-10-periods":
            model, result = request.getfixturevalue("crisscross")
            dev = np.zeros((3, 3))
            dev[0, 0] = 0.005
            interval = TWO_PI / 50
            times = [k * interval for k in range(1, 500)] + [10 * TWO_PI]
        else:
            model, result = request.getfixturevalue(case.split("-")[0])
            dev = np.zeros((model.n_bodies, 3))
            times = [TWO_PI]
        base = extract_ics(model, result.params)
        steps = self._assert_drive_is_scipys(_accelerator(model),
                                             base.positions + dev,
                                             base.velocities, times)
        assert steps > 50    # many step ends as well

    def test_tracking_drive_is_scipys_at_the_tracking_tolerance(
            self, crisscross):
        # perturb_and_track drives at TRACK_TOL: that drive is scipy's at
        # rtol = atol = TRACK_TOL, and the tracker reports its positions
        # at the tracker's sample times, to the bit
        tol = integrate_module.TRACK_TOL
        model, result = crisscross
        base = extract_ics(model, result.params)
        dev = np.zeros((3, 3))
        dev[0, 0] = 1e-3
        pos = base.positions + dev
        interval = TWO_PI / 50
        times = [k * interval for k in range(1, 500)] + [10 * TWO_PI]
        steps = self._assert_drive_is_scipys(_accelerator(model), pos,
                                             base.velocities, times, tol)
        assert steps > 50
        drive = _model_drive(model, pos, base.velocities, times[-1],
                             times[:-1], tol)
        rep = perturb_and_track(model, result.params, dev, 10.0)
        assert rep.sample_times.tolist() == [0.0, *times]
        expected = np.array([p for _, p, _ in drive])
        assert rep.section_points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("softening", [0.0, 0.3])
    @pytest.mark.parametrize("alpha", [-1.0, -2.0, 0.5, 1.0])
    def test_drive_matches_scipy_on_other_potentials(self, alpha, softening):
        # a short drive of the unequal-mass criss-cross seed under each
        # pair law, with interior samples and, for alpha = 1, rejected
        # steps (the seed falls into a collision by t = 0.44 under the
        # unsoftened 1/r^2 law)
        spec = PotentialSpec(alpha=alpha, softening=softening)
        model, params = ao.build_crisscross((1.0, 2.0, 3.0), k_max=9,
                                            potential=spec)
        base = extract_ics(model, params)
        steps = self._assert_drive_is_scipys(
            _accelerator(model), base.positions, base.velocities,
            [0.1, 0.2, 0.3, 0.4])
        assert steps >= 6

    def test_model_free_drive_is_the_oscillator_and_scipys(self):
        # y'' = -y on a (2,) position from (1, 0) at velocity (0, 1) is
        # (cos t, sin t): no model, pair table or (n, 3) shape is involved
        def spring(pos, t, out):
            np.negative(pos, out)

        pos, vel = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        times = [0.5, 1.0, 2.5]
        steps = self._assert_drive_is_scipys(spring, pos, vel,
                                             times + [TWO_PI])
        assert steps > 10
        drive = list(dop853.drive(spring, pos, vel, TWO_PI, times,
                                  integrate_module.DRIVE_TOL, 1000))
        assert [t for t, _, _ in drive] == [0.0, *times, TWO_PI]
        for t, p, v in drive:
            assert p.shape == v.shape == (2,)
            assert np.abs(p - [math.cos(t), math.sin(t)]).max() <= 1e-11
            assert np.abs(v - [-math.sin(t), math.cos(t)]).max() <= 1e-11

    def test_drive_makes_scipys_evaluations(self, crisscross, monkeypatch):
        # the 10-period displaced criss-cross, with rejected steps and
        # dense outputs, takes as many right-hand sides as scipy's drive
        # (17,267 on both)
        model, result = crisscross
        base = extract_ics(model, result.params)
        pos = base.positions.copy()
        pos[0, 0] += 0.005
        interval = TWO_PI / 50
        times = [k * interval for k in range(1, 500)] + [10 * TWO_PI]
        _, nfev = _scipy_drive(_accelerator(model), pos, base.velocities,
                               times)
        calls = []
        accelerator = dynamics.PairTable.accelerator

        def counted(table):
            # every right-hand side writes its accelerations once
            accelerate = accelerator(table)
            return lambda pos, t, out: calls.append(t) or accelerate(pos, t,
                                                                     out)

        monkeypatch.setattr(dynamics.PairTable, "accelerator", counted)
        drive = list(_model_drive(
            model, pos, base.velocities, times[-1], times[:-1]))
        assert len(drive) == len(times) + 1
        assert len(calls) == nfev

    def test_return_error_is_scipys_end_state(self, cubic1):
        model, result = cubic1
        base = extract_ics(model, result.params)
        states, _ = _scipy_drive(_accelerator(model), base.positions,
                                 base.velocities, [TWO_PI])
        end = states[TWO_PI]
        half = base.positions.size
        expected = max(np.abs(end[:half] - base.positions.ravel()).max(),
                       np.abs(end[half:] - base.velocities.ravel()).max())
        assert return_error(model, result.params) == float(expected)


class TestOracleAccelerator:
    """Whole drives on the model's pair accelerator give the bytes of the
    same drives on an allocating oracle, ``configuration_forces(table,
    x) / masses``.  The benchmark's orbits have unit masses, so the
    accelerator drops its exact factors there; this holds that route to
    the oracle over every stage of a drive, not one call at a time."""

    @staticmethod
    def _use_oracle(monkeypatch, masses):
        def oracle_accelerator(table):
            def accelerate(pos, t, out):
                out[...] = configuration_forces(table, pos, t) \
                    / masses[:, None]
            return accelerate

        monkeypatch.setattr(dynamics.PairTable, "accelerator",
                            oracle_accelerator)

    @pytest.mark.parametrize("fixture", ["cubic1", "crisscross"])
    def test_return_error(self, fixture, request, monkeypatch):
        model, result = request.getfixturevalue(fixture)
        table = dynamics.pair_table(model.potential, model.masses)
        assert table.unit_coef and table.unit_mass
        fast = return_error(model, result.params)
        self._use_oracle(monkeypatch, model.masses)
        assert return_error(model, result.params).hex() == fast.hex()

    @pytest.mark.parametrize("fixture", ["cubic1", "crisscross"])
    def test_two_period_track(self, fixture, request, monkeypatch):
        model, result = request.getfixturevalue(fixture)
        dev = np.zeros((model.n_bodies, 3))
        dev[0] = (3e-3, 4e-3, 1e-3)
        fast = perturb_and_track(model, result.params, dev, 2.0)
        self._use_oracle(monkeypatch, model.masses)
        slow = perturb_and_track(model, result.params, dev, 2.0)
        assert _report_bytes(slow) == _report_bytes(fast)
        # cubic m = 1 leaves the envelope after 1.28 periods
        assert slow.sample_times[-1] > TWO_PI


class TestPerturbAndTrack:
    def test_zero_perturbation_rejected(self, circle):
        model, result = circle
        with pytest.raises(ValueError):
            perturb_and_track(model, result.params, np.zeros((2, 3)), 1.0)

    @pytest.mark.parametrize("deviation", [
        [1e-3, 0.0, 0.0], np.full((1, 3), 1e-3), np.full((3, 1), 1e-3),
        np.full((4, 3), 1e-3), np.full((3, 3, 1), 1e-3), 1e-3],
        ids=["vector", "one-row", "column", "extra-body", "3d", "scalar"])
    def test_deviation_must_have_one_row_per_body(self, deviation):
        # a (3,) deviation used to be broadcast onto every body: a rigid
        # translation of the criss-cross that reported "bounded"
        model, params = ao.build_crisscross(k_max=9)
        with pytest.raises(ValueError,
                           match=r"deviation must have shape \(3, 3\)"):
            perturb_and_track(model, params, deviation, 1.0)

    @pytest.mark.parametrize("n_periods", [0.0, -1.0, math.inf, math.nan,
                                           1e307, 1e305, True])
    def test_empty_horizon_rejected(self, circle, n_periods):
        # 1e307 periods overflow the sample count, 1e305 the step budget;
        # True is a flag, not one period
        model, result = circle
        dev = np.zeros((2, 3))
        dev[0, 0] = 0.5
        with pytest.raises(ValueError):
            perturb_and_track(model, result.params, dev, n_periods)

    @pytest.mark.parametrize("n_periods", [0.01, 1.01])
    def test_horizon_end_is_sampled(self, circle, n_periods):
        # 10 and 1010 steps against a stride of 20: the last sample is the
        # end of the horizon, not the last whole stride before it
        model, result = circle
        dev = np.zeros((2, 3))
        dev[0, 0] = 1e-6
        rep = perturb_and_track(model, result.params, dev, n_periods)
        assert rep.sample_times[-1] == pytest.approx(n_periods * TWO_PI)
        assert len(rep.sample_times) == len(rep.section_points)

    @pytest.mark.parametrize("options", [
        {"samples_per_period": 0}, {"samples_per_period": -5},
        {"samples_per_period": True},
        {"samples_per_period": 2.5}, {"samples_per_period": 10**400},
        {"samples_per_period": 10**300},
        {"samples_per_period": integrate_module.MAX_SAMPLES_PER_PERIOD + 1}])
    def test_bad_step_rejected(self, circle, options):
        model, result = circle
        dev = np.zeros((2, 3))
        dev[0, 0] = 1e-6
        with pytest.raises(ValueError):
            perturb_and_track(model, result.params, dev, 1.0, **options)

    def test_collision_exit_time_is_when_it_was_detected(self, circle,
                                                         monkeypatch):
        # pulling one body halfway to the centre closes the pair from 0.94
        # to below 0.7 within the first period
        monkeypatch.setattr(dynamics, "COLLISION_THRESHOLD", 0.7)
        model, result = circle
        base = extract_ics(model, result.params)
        dev = np.zeros((2, 3))
        dev[0] = -0.5 * base.positions[0]
        rep = perturb_and_track(model, result.params, dev, 1.0, envelope=10.0)
        with pytest.raises(CollisionError) as exc:
            list(_model_drive(
                model, base.positions + dev, base.velocities, TWO_PI,
                tol=integrate_module.TRACK_TOL))
        assert rep.verdict == EXITED
        assert rep.exit_time == exc.value.t
        assert rep.sample_times[-1] <= rep.exit_time

    def test_tracking_tolerance_keeps_the_reported_deviation(
            self, crisscross, monkeypatch):
        # a 10-period criss-cross track displaced by 1e-3 reports what
        # the same track at the return tolerance reports, well inside the
        # curve metric's resolution, although the drives differ
        model, result = crisscross
        dev = np.zeros((3, 3))
        dev[0, 0] = 1e-3
        rep = perturb_and_track(model, result.params, dev, 10.0)
        monkeypatch.setattr(integrate_module, "TRACK_TOL",
                            integrate_module.DRIVE_TOL)
        tight = perturb_and_track(model, result.params, dev, 10.0)
        assert rep.section_points.tobytes() != tight.section_points.tobytes()
        assert rep.verdict == tight.verdict == BOUNDED
        assert rep.exit_time == tight.exit_time
        assert abs(rep.max_deviation - tight.max_deviation) \
            <= 1e-4 * tight.max_deviation

    def test_tiny_perturbation_stays_bounded(self, circle):
        model, result = circle
        dev = np.zeros((2, 3))
        dev[0, 0] = 1e-6
        rep = perturb_and_track(model, result.params, dev, n_periods=3.0)
        assert rep.verdict == BOUNDED
        assert rep.exit_time is None
        assert rep.max_deviation <= rep.envelope
        assert rep.envelope == pytest.approx(1e-4)  # 100x the displacement
        assert rep.z_extent == 0.0
        assert rep.section_points.shape[2] == 3
        assert rep.sample_times[-1] == pytest.approx(3.0 * TWO_PI)

    def test_huge_perturbation_exits(self, circle):
        model, result = circle
        dev = np.zeros((2, 3))
        dev[0, 0] = 0.3
        rep = perturb_and_track(model, result.params, dev, n_periods=3.0,
                                envelope=0.05)
        assert rep.verdict == EXITED
        assert rep.exit_time is not None

    def test_deviation_metric_quotients_phase_and_rotation(self, circle):
        # the deviation metric measures distance to the orbit band, so a
        # configuration on the curve at any phase -- or rigidly rotated
        # about the normal axis, as a precessing perturbation would be --
        # must measure as (nearly) zero
        from actionorbits.integrate import _CurveMetric

        model, result = circle
        metric = _CurveMetric(model, result.params)
        rng = np.random.default_rng(6)
        for t in (0.0, 0.31, 2.17, 5.9):
            pos = ao.sample_positions(model, result.params, t)
            assert metric.distance(pos) < 1e-5
            ang = rng.uniform(0.0, TWO_PI)
            rot = np.array([[math.cos(ang), -math.sin(ang), 0.0],
                            [math.sin(ang), math.cos(ang), 0.0],
                            [0.0, 0.0, 1.0]])
            assert metric.distance(pos @ rot.T) < 1e-5

    def test_deviation_metric_reads_on_orbit_phases_between_samples(
            self, crisscross):
        # halfway between two curve samples of the criss-cross, a point of
        # the orbit read 1e-3 when the refinement fitted a parabola to the
        # distance, a V near its minimum; the squared distance is
        # quadratic there.  (Every phase of the circle is a rotation of
        # every other, so the circle cannot show this.)
        model, result = crisscross
        metric = integrate_module._CurveMetric(model, result.params)
        h = TWO_PI / integrate_module.CURVE_SAMPLES
        mids = [metric.distance(ao.sample_positions(
            model, result.params, (j + 0.5) * h))
            for j in range(0, integrate_module.CURVE_SAMPLES, 64)]
        assert max(mids) < 1e-4
        # the band's resolution is this reading, made once per reference
        resolution = integrate_module._tracking_reference(
            model, result.params)[2]
        assert resolution == pytest.approx(max(mids), rel=1e-6)

    @pytest.mark.parametrize("displacement", [1e-5, 1e-6, 1e-7, 1e-8])
    def test_tiny_criss_cross_displacement_stays_bounded(self, crisscross,
                                                         displacement):
        # the envelope of 100x the displacement sits below the grid error
        # of the old refinement, so 1e-5 and 1e-6 used to read 'exited';
        # 1e-7 and 1e-8 did too, at t = 0.126 with a deviation of 1.4e-5,
        # until the default envelope was floored at a multiple of the
        # band's own resolution (5e-5 here)
        model, result = crisscross
        dev = np.zeros((3, 3))
        dev[0, 0] = displacement
        rep = perturb_and_track(model, result.params, dev, 2.0)
        assert rep.verdict == BOUNDED
        assert rep.exit_time is None
        assert rep.max_deviation <= rep.envelope
        resolution = integrate_module._tracking_reference(
            model, result.params)[2]
        assert 1e-5 < resolution < 1e-4
        assert rep.envelope == max(
            100.0 * displacement,
            integrate_module.RESOLUTION_MARGIN * resolution)

    def test_given_envelope_is_kept_below_the_resolution(self, crisscross):
        # only the default envelope is floored: a given one stays as
        # given, and the band's own reading on the orbit exceeds this one
        model, result = crisscross
        dev = np.zeros((3, 3))
        dev[0, 0] = 1e-8
        rep = perturb_and_track(model, result.params, dev, 2.0,
                                envelope=1e-6)
        assert rep.envelope == 1e-6
        assert rep.verdict == EXITED
        assert rep.exit_time is not None

    def test_deviation_metric_sees_real_displacement(self, circle):
        from actionorbits.integrate import _CurveMetric

        model, result = circle
        metric = _CurveMetric(model, result.params)
        pos = ao.sample_positions(model, result.params, 0.0)
        assert metric.distance(1.3 * pos) > 0.1
        out_of_plane = pos + np.array([0.0, 0.0, 0.2])
        assert metric.distance(out_of_plane) > 0.1

    def test_unmeasurable_displacement_exits_without_warnings(self):
        # |p|^2 overflows at 1e160; such a start is outside any envelope
        model, params = build_choreography(2, k_max=9)
        dev = np.zeros((2, 3))
        dev[0, 0] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = perturb_and_track(model, params, dev, 1.0)
        assert rep.verdict == EXITED
        assert rep.exit_time == rep.sample_times[-1] == 0.0
        assert rep.max_deviation == math.inf

    def test_sample_times_are_made_as_the_drive_reaches_them(self):
        # a run that ends at t = 0 holds no list of the horizon's sample
        # times, so its memory does not grow with the horizon, and a
        # horizon of more times than a list can index still runs
        model, params = build_choreography(2, k_max=9)
        dev = np.zeros((2, 3))
        dev[0, 0] = 1e160

        def peak(n_periods):
            tracemalloc.start()
            try:
                rep = perturb_and_track(model, params, dev, n_periods)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.exit_time == rep.sample_times[-1] == 0.0
            return peak

        short = peak(200.0)
        assert peak(20000.0) <= short + 1e6
        assert peak(1e300) <= short + 1e6

    def test_finest_sample_grid_is_accepted(self):
        # the cap itself is a valid grid: an unmeasurable start ends the
        # run at t = 0 before any sample inside a step is made
        model, params = build_choreography(2, k_max=9)
        dev = np.zeros((2, 3))
        dev[0, 0] = 1e160
        rep = perturb_and_track(
            model, params, dev, 1.0,
            samples_per_period=integrate_module.MAX_SAMPLES_PER_PERIOD)
        assert rep.verdict == EXITED
        assert rep.exit_time == 0.0
        assert rep.sample_times.tolist() == [0.0]

    @pytest.mark.parametrize("fixture", ["crisscross", "cubic1"])
    def test_one_product_metric_matches_direct_differences(self, fixture,
                                                           request):
        # |p|^2 + |c|^2 - 2 p.c per phase against the differences p - c,
        # with p rotated about z to its best alignment on a planar curve
        model, result = request.getfixturevalue(fixture)
        metric = integrate_module._CurveMetric(model, result.params)
        assert metric.planar == (fixture == "crisscross")
        phases = np.arange(integrate_module.CURVE_SAMPLES) * (
            TWO_PI / integrate_module.CURVE_SAMPLES)
        curve = ao.sample_positions(model, result.params,
                                    phases).transpose(1, 0, 2)
        radius = math.sqrt(np.einsum("mic,mic->m", curve, curve).max()
                           / metric.n)
        rng = np.random.default_rng(9)
        for t in rng.uniform(0.0, TWO_PI, 4):
            pos = ao.sample_positions(model, result.params, t)
            pos = pos + rng.normal(scale=0.05, size=pos.shape)
            p = np.broadcast_to(pos, curve.shape)
            if metric.planar:
                along = np.einsum("mi,mi->m", p[..., 0], curve[..., 0]) + \
                    np.einsum("mi,mi->m", p[..., 1], curve[..., 1])
                cross = np.einsum("mi,mi->m", p[..., 0], curve[..., 1]) - \
                    np.einsum("mi,mi->m", p[..., 1], curve[..., 0])
                ang = np.arctan2(cross, along)[:, None]
                cos, sin = np.cos(ang), np.sin(ang)
                p = np.stack((cos * p[..., 0] - sin * p[..., 1],
                              sin * p[..., 0] + cos * p[..., 1],
                              p[..., 2]), axis=-1)
            diff = p - curve
            direct = np.sqrt(np.einsum("mic,mic->m", diff, diff) / metric.n)
            fast = np.sqrt(np.maximum(metric._per_phase(pos), 0.0) / metric.n)
            assert np.abs(fast - direct).max() <= 1e-12 * radius


def _report_bytes(rep):
    return (rep.verdict, repr(rep.max_deviation), repr(rep.exit_time),
            repr(rep.z_extent), rep.sample_times.tobytes(),
            rep.section_points.tobytes())


class TestTrackingReference:
    """Every track of an orbit reads one cached reference: the band of
    :class:`_CurveMetric` and the unperturbed start state."""

    @staticmethod
    def _sampler_calls(monkeypatch):
        # counted through the module binding, as the tracer counts them
        real, calls = integrate_module.sample_positions, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(integrate_module, "sample_positions", counting)
        return calls

    def test_second_track_samples_nothing(self, circle, monkeypatch):
        model, result = circle
        integrate_module._cached_reference.cache_clear()
        calls = self._sampler_calls(monkeypatch)
        dev = np.zeros((2, 3))
        dev[0, 0] = 1e-6
        perturb_and_track(model, result.params, dev, 0.1)
        assert len(calls) == 3   # the band, its resolution, the start state
        dev[1, 1] = 2e-6
        perturb_and_track(model, result.params, dev, 0.1)
        assert len(calls) == 3

    def test_one_changed_value_builds_a_new_reference(self, circle,
                                                      monkeypatch):
        model, result = circle
        integrate_module._cached_reference.cache_clear()
        calls = self._sampler_calls(monkeypatch)
        values = result.params.values.copy()
        values[0] = np.nextafter(values[0], math.inf)
        moved = result.params.with_values(values)
        first = integrate_module._tracking_reference(model, result.params)
        second = integrate_module._tracking_reference(model, moved)
        assert len(calls) == 6
        assert second is not first
        assert integrate_module._tracking_reference(
            model, result.params.with_values(result.params.values)) is first
        assert len(calls) == 6

    def test_cache_holds_at_most_its_bound(self, circle):
        model, result = circle
        integrate_module._cached_reference.cache_clear()
        bound = integrate_module.REFERENCE_CACHE_SIZE
        for i in range(bound + 3):
            params = result.params.with_values(
                result.params.values * (1.0 + 1e-9 * i))
            integrate_module._tracking_reference(model, params)
            info = integrate_module._cached_reference.cache_info()
            assert info.currsize == min(i + 1, bound)

    def test_cached_arrays_are_read_only(self, crisscross):
        model, result = crisscross
        metric, base, _ = integrate_module._tracking_reference(
            model, result.params)
        for a in (metric.rows, metric.curve_sq, base.positions,
                  base.velocities):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 0.0

    def test_rebuilt_params_read_the_cached_reference(self, crisscross):
        # the cache keys on the layout as a value, so params rebuilt from a
        # record hit the entry that the original params filled
        model, result = crisscross
        integrate_module._cached_reference.cache_clear()
        first = integrate_module._tracking_reference(model, result.params)
        rebuilt_model, rebuilt = ao.record_to_model(
            ao.make_record(model, result.params, result))
        assert rebuilt.layout is not result.params.layout
        hits = integrate_module._cached_reference.cache_info().hits
        assert integrate_module._tracking_reference(rebuilt_model,
                                                    rebuilt) is first
        assert integrate_module._cached_reference.cache_info().hits == hits + 1

    @pytest.mark.parametrize("fixture", ["crisscross", "cubic1"])
    def test_warm_report_equals_cold_report(self, fixture, request):
        # planar (criss-cross) and non-planar (cubic m=1) bands alike
        model, result = request.getfixturevalue(fixture)
        dev = np.zeros((model.n_bodies, 3))
        dev[0] = (1e-3, 0.0, 1e-3)
        integrate_module._cached_reference.cache_clear()
        cold = perturb_and_track(model, result.params, dev, 1.0)
        warm = perturb_and_track(model, result.params, dev, 1.0)
        assert integrate_module._cached_reference.cache_info().hits == 1
        assert _report_bytes(warm) == _report_bytes(cold)


class TestWriteTrajectory:
    def test_round_trip_columns(self, circle):
        model, result = circle
        traj = trajectory(model, result.params, samples_per_period=8)
        buf = io.StringIO()
        write_trajectory(traj, buf)
        lines = buf.getvalue().strip().split("\n")
        header = lines[0]
        assert header.startswith("# t ")
        assert "x1" in header and "vz2" in header and header.endswith("Jz")
        data = np.loadtxt(io.StringIO("\n".join(lines[1:])))
        # t + 6 columns per body + E + 3 angular momentum components
        assert data.shape[1] == 1 + 6 * 2 + 4
        assert np.allclose(data[:, 0], traj.times)
        assert np.allclose(data[0, 1:4], traj.positions[0, 0])
        assert np.allclose(data[:, -4], traj.energy)
