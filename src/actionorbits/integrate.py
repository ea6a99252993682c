"""Direct integration checks: does the Fourier orbit solve the ODE?

Two integrators advance the phase state (positions, velocities) under the
same pair forces the action uses.  One adaptive driver, scipy's 8th-order
Dormand-Prince method (DOP853) at a fixed tight tolerance with its dense
output, serves both checks: ``return_error`` measures how well a converged
orbit closes after one period, and ``perturb_and_track`` follows
deliberately perturbed initial conditions over many periods to probe
stability.  At that tolerance one period takes a few hundred steps where
fixed steps take 10,000.  A classical fixed-step fourth-order Runge-Kutta
integrator, ``integrate``, records trajectory samples for export and is
the tests' independent oracle for both.  A run cut short ends when the
failure is detected: at ``CollisionError.t``, or at the end of a step that
left a non-finite state.

Both evaluate F / m straight on the (n, 3) state through the model's
cached :class:`.dynamics.PairTable`: one gather of pair differences, one
square root, one power and one incidence product, with no batching
reshapes, potential energy or per-call set-up.  The arithmetic is the one
:func:`.dynamics.forces` performs, so the two agree to the bit.
``rk4_step`` fetches the table from the cache on every call (well under a
microsecond against tens per stage); a run therefore builds it once, and
each step stays one call that per-layer tracing can see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import observables, pair_table
from .dynamics import forces  # noqa: F401  (kept bound: perfbench traces integrate.forces)
from .errors import CollisionError, IntegrationError
from .potential import PotentialSpec
from .symmetry import OrbitModel, ReducedParams, sample_positions

TWO_PI = 2.0 * math.pi
DEFAULT_DT = TWO_PI * 1e-4
# DOP853 rtol = atol (scipy floors rtol at 100 * eps)
RETURN_TOL = 1e-13
# DOP853 steps per period of the horizon: over 10x the 310 of cubic m=7 at
# k_max=27, the most a shipped orbit needs, so a non-orbit cannot crawl
MAX_STEPS_PER_PERIOD = 4000
# reference-curve phases the perturbation tracker measures deviation against
CURVE_SAMPLES = 2048


@dataclass(frozen=True)
class PhaseState:
    """Instantaneous positions and velocities of all bodies."""

    positions: np.ndarray    # (n, 3)
    velocities: np.ndarray   # (n, 3)
    t: float = 0.0

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        vel = np.array(self.velocities, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape != vel.shape:
            raise ValueError("phase state needs matching (n, 3) arrays")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
            raise IntegrationError("phase state must be finite")
        pos.setflags(write=False)
        vel.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)


def extract_ics(model: OrbitModel, params: ReducedParams,
                t: float = 0.0) -> PhaseState:
    """Initial conditions read directly off the Fourier series at time t,
    at the physical (unnormalized) scale."""
    pos, vel = sample_positions(model, params, float(t), deriv=(0, 1))
    return PhaseState(pos, vel, float(t))


def rk4_step(spec: PotentialSpec, masses: np.ndarray, pos: np.ndarray,
             vel: np.ndarray, t: float, dt: float
             ) -> tuple[np.ndarray, np.ndarray]:
    """One classical Runge-Kutta step of size dt."""
    table = pair_table(spec, masses)
    a1 = table.accelerations(pos, t)
    p2 = pos + 0.5 * dt * vel
    v2 = vel + 0.5 * dt * a1
    a2 = table.accelerations(p2, t + 0.5 * dt)
    p3 = pos + 0.5 * dt * v2
    v3 = vel + 0.5 * dt * a2
    a3 = table.accelerations(p3, t + 0.5 * dt)
    p4 = pos + dt * v3
    v4 = vel + dt * a3
    a4 = table.accelerations(p4, t + dt)
    new_pos = pos + (dt / 6.0) * (vel + 2.0 * v2 + 2.0 * v3 + v4)
    new_vel = vel + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return new_pos, new_vel


@dataclass(frozen=True)
class Trajectory:
    """Recorded integration samples with energy and angular momentum."""

    times: np.ndarray        # (M,)
    positions: np.ndarray    # (M, n, 3)
    velocities: np.ndarray   # (M, n, 3)
    energy: np.ndarray       # (M,)
    angular_momentum: np.ndarray  # (M, 3)


def _check_steps(stride: str, count: int, **spans: float) -> None:
    """ValueError unless every span is positive and finite and count >= 1."""
    for name, x in spans.items():
        if not 0.0 < x < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {x!r}")
    if not (isinstance(count, (int, np.integer)) and count > 0):
        raise ValueError(f"{stride} must be a positive integer, got {count!r}")


def integrate(state: PhaseState, masses, spec: PotentialSpec,
              dt: float = DEFAULT_DT, horizon: float = TWO_PI,
              record_stride: int = 1) -> Trajectory:
    """Advance the state for ``horizon`` time units with fixed steps.

    Records every ``record_stride``-th step (plus the initial and final
    states).  Raises ValueError on a bad step, stride or horizon or a mass
    vector that does not match the bodies, CollisionError if bodies
    approach below :data:`.dynamics.COLLISION_THRESHOLD` and
    IntegrationError on a non-finite state.
    """
    _check_steps("record_stride", record_stride, horizon=horizon, dt=dt)
    n_steps = max(1, int(round(horizon / dt)))
    masses = np.asarray(masses, dtype=float)
    n = state.positions.shape[0]
    if masses.shape != (n,):
        raise ValueError(f"{n} bodies need {n} masses, "
                         f"got shape {masses.shape}")
    pos, vel, t0 = state.positions, state.velocities, state.t
    samples = [(t0, pos, vel)]
    for i in range(n_steps):
        # a module-global lookup, so per-layer tracing counts every step
        pos, vel = rk4_step(spec, masses, pos, vel, t0 + i * dt, dt)
        t = t0 + (i + 1) * dt
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
            raise IntegrationError(f"non-finite state at t={t:.6f}", t=t)
        if (i + 1) % record_stride == 0 or i == n_steps - 1:
            samples.append((t, pos, vel))
    times, pos, vel = (np.array(column) for column in zip(*samples))
    obs = observables(spec, masses, pos.transpose(1, 0, 2),
                      vel.transpose(1, 0, 2))
    return Trajectory(times, pos, vel, energy=obs.E, angular_momentum=obs.J)


def _dop853_samples(model: OrbitModel, pos: np.ndarray, vel: np.ndarray,
                    times):
    """Step DOP853 from (pos, vel) at t = 0 to the last of the ascending
    ``times``, yielding (t, pos, vel) at 0 and at each of them: the step's
    end state where a time ends a step, its dense interpolant elsewhere.

    Raises IntegrationError (with ``t``) on a failed step, a non-finite
    state or a spent step budget, and CollisionError (context
    'integration') below :data:`.dynamics.COLLISION_THRESHOLD`.
    """
    from scipy.integrate import DOP853

    table = pair_table(model.potential, model.masses)
    shape, half = pos.shape, pos.size

    def rhs(t, y):
        acc = table.accelerations(y[:half].reshape(shape), t)
        return np.concatenate((y[half:], acc.ravel()))

    yield 0.0, pos, vel
    y0 = np.concatenate((pos.ravel(), vel.ravel()))
    solver = DOP853(rhs, 0.0, y0, times[-1], rtol=RETURN_TOL, atol=RETURN_TOL)
    if not np.all(np.isfinite(solver.f)):
        # a non-finite start gives a NaN first step and a loop that never ends
        raise IntegrationError("non-finite acceleration at t=0", t=0.0)
    budget = math.ceil(MAX_STEPS_PER_PERIOD * times[-1] / TWO_PI)
    i = 0
    for _ in range(budget):
        message = solver.step()
        if solver.status == "failed" or not np.all(np.isfinite(solver.y)):
            raise IntegrationError(f"integration failed at t={solver.t:.6f} "
                                   f"({message or 'non-finite state'})",
                                   t=solver.t)
        dense = None
        while i < len(times) and times[i] <= solver.t:
            if times[i] == solver.t:
                y = solver.y
            else:
                if dense is None:
                    dense = solver.dense_output()
                y = dense(times[i])
            yield times[i], y[:half].reshape(shape), y[half:].reshape(shape)
            i += 1
        if i == len(times):
            return
    raise IntegrationError(f"step budget of {budget} spent by "
                           f"t={solver.t:.6f}", t=solver.t)


def return_error(model: OrbitModel, params: ReducedParams) -> float:
    """Max-norm phase-space mismatch after integrating one full period.

    The one-period map is the end state of :func:`_dop853_samples` with no
    interior samples, so it raises what that driver raises.
    """
    state = extract_ics(model, params)
    *_, (_, pos, vel) = _dop853_samples(model, state.positions,
                                        state.velocities, (TWO_PI,))
    return float(max(np.abs(pos - state.positions).max(),
                     np.abs(vel - state.velocities).max()))


BOUNDED = "bounded"
EXITED = "exited"


@dataclass(frozen=True)
class PerturbationReport:
    """Outcome of tracking perturbed initial conditions for many periods.

    ``verdict`` is 'bounded' when the largest deviation from the reference
    Fourier orbit stayed inside the envelope for the whole horizon, else
    'exited' (including runs cut short by collision or a non-finite state).
    ``section_points`` holds the sampled perturbed positions for plotting;
    ``z_extent`` is the largest |z| reached (out-of-plane growth probe).
    """

    deviation: np.ndarray
    n_periods: float
    envelope: float
    max_deviation: float
    verdict: str
    exit_time: float | None
    sample_times: np.ndarray
    section_points: np.ndarray
    z_extent: float


class _CurveMetric:
    """rms configuration distance to the nearest point of a reference orbit
    curve, minimized over a common reference phase.

    Perturbing a stable orbit typically shifts its period and angular
    momentum a little; the motion then drifts in phase and (for planar
    orbits) slowly precesses while staying on a tight band around the
    curve.  Both are neutral directions, not instabilities, so the metric
    quotients them out: phase by the min over curve samples, precession --
    for planar reference orbits only -- by the optimal rigid rotation about
    the normal axis (closed-form 2D Procrustes).  Any genuine departure
    from the band (escape, collision approach, out-of-plane growth) still
    registers at full size.
    """

    def __init__(self, model: OrbitModel, params: ReducedParams):
        phases = np.arange(CURVE_SAMPLES) * (TWO_PI / CURVE_SAMPLES)
        self.curve = sample_positions(model, params, phases).transpose(1, 0, 2)
        self.n = self.curve.shape[1]
        self.planar = bool(np.abs(self.curve[:, :, 2]).max() < 1e-9)
        self.curve_sq = np.einsum("mic,mic->m", self.curve, self.curve)

    def _per_phase(self, pos: np.ndarray) -> np.ndarray:
        if self.planar:
            pos_sq = float(np.einsum("ic,ic->", pos, pos))
            dots = np.einsum("ic,mic->m", pos, self.curve)
            cross = np.einsum("i,mi->m",
                              pos[:, 0], self.curve[:, :, 1]) - \
                    np.einsum("i,mi->m", pos[:, 1], self.curve[:, :, 0])
            along = dots - np.einsum("i,mi->m", pos[:, 2], self.curve[:, :, 2])
            best = np.sqrt(along * along + cross * cross)
            sq = pos_sq + self.curve_sq - 2.0 * best
        else:
            diff = pos[None, :, :] - self.curve
            sq = np.einsum("mic,mic->m", diff, diff)
        return np.sqrt(np.maximum(sq, 0.0) / self.n)

    def distance(self, pos: np.ndarray) -> float:
        per_phase = self._per_phase(pos)
        j = int(np.argmin(per_phase))
        m = per_phase.shape[0]
        # parabolic refinement through the cyclic neighbors
        f0, f1, f2 = per_phase[j - 1], per_phase[j], per_phase[(j + 1) % m]
        denom = f0 - 2.0 * f1 + f2
        if denom > 0.0:
            offset = 0.5 * (f0 - f2) / denom
            refined = f1 - 0.25 * (f0 - f2) * offset
            return float(max(min(f1, refined), 0.0))
        return float(f1)


def perturb_and_track(model: OrbitModel, params: ReducedParams,
                      deviation, n_periods: float,
                      envelope: float | None = None,
                      samples_per_period: int = 50) -> PerturbationReport:
    """Integrate from displaced initial positions and watch the deviation.

    ``deviation`` is an (n, 3) array added to the initial positions; any
    other shape is a ValueError, not a broadcast.  The
    deviation at each sample time is the distance from the perturbed
    configuration to the unperturbed orbit band (see :class:`_CurveMetric`:
    phase drift and, for planar orbits, slow precession are quotiented out
    as neutral directions).  The default envelope is 100x the largest
    applied displacement; a given envelope must be positive and finite, and
    the deviation finite.  The run is one :func:`_dop853_samples` drive; it
    samples every ``samples_per_period``-th of a period and the end of the
    horizon, and stops at the first later sample outside the envelope.
    """
    _check_steps("samples_per_period", samples_per_period, n_periods=n_periods)
    dev = np.array(deviation, dtype=float)
    if dev.shape != (model.n_bodies, 3):
        raise ValueError(f"deviation must have shape ({model.n_bodies}, 3), "
                         f"got {dev.shape}")
    applied = float(np.abs(dev).max())   # NaN when any entry is NaN
    if not 0.0 < applied < math.inf:
        raise ValueError("perturbation must be finite and displace at least one body")
    if envelope is None:
        envelope = 100.0 * applied
    if not 0.0 < envelope < math.inf:
        raise ValueError(f"envelope must be positive and finite, got {envelope!r}")
    horizon = n_periods * TWO_PI
    interval = TWO_PI / samples_per_period
    times = [k * interval
             for k in range(1, math.ceil(n_periods * samples_per_period))
             if k * interval < horizon]
    times.append(horizon)

    metric = _CurveMetric(model, params)
    base = extract_ics(model, params)
    samples = _dop853_samples(model, base.positions + dev, base.velocities,
                              times)
    sample_times, sections, deviations = [], [], []
    exit_time = None
    try:
        for t, pos, _ in samples:
            sample_times.append(t)
            sections.append(pos)
            deviations.append(metric.distance(pos))
            if deviations[-1] > envelope and t > 0.0:
                exit_time = t
                break
    except (CollisionError, IntegrationError) as err:
        exit_time = err.t
    max_dev = float(max(deviations))
    verdict = EXITED if (exit_time is not None or max_dev > envelope) else BOUNDED
    sections_arr = np.array(sections)
    return PerturbationReport(
        deviation=dev,
        n_periods=float(n_periods),
        envelope=float(envelope),
        max_deviation=max_dev,
        verdict=verdict,
        exit_time=exit_time,
        sample_times=np.array(sample_times),
        section_points=sections_arr,
        z_extent=float(np.abs(sections_arr[:, :, 2]).max()),
    )


def write_trajectory(traj: Trajectory, stream) -> None:
    """Write samples as delimited text: t, then x y z vx vy vz per body,
    then E and the angular momentum components."""
    n = traj.positions.shape[1]
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"x{i}", f"y{i}", f"z{i}", f"vx{i}", f"vy{i}", f"vz{i}"]
    header += ["E", "Jx", "Jy", "Jz"]
    stream.write("# " + " ".join(header) + "\n")
    for j, t in enumerate(traj.times):
        row = [t]
        for i in range(n):
            row.extend(traj.positions[j, i])
            row.extend(traj.velocities[j, i])
        row.append(traj.energy[j])
        row.extend(traj.angular_momentum[j])
        stream.write(" ".join(f"{v:.12e}" for v in row) + "\n")
