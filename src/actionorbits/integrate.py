"""Direct integration checks: does the Fourier orbit solve the ODE?

Two integrators advance the phase state (positions, velocities) under the
same pair forces the action uses.  One adaptive driver, the 8th-order
Dormand-Prince method (DOP853, :mod:`.dop853`) at a fixed tight tolerance
with its dense output, serves both checks: ``return_error`` measures how
well a converged orbit closes after one period, and ``perturb_and_track``
follows deliberately perturbed initial conditions over many periods to
probe stability.  At that tolerance one period takes a few hundred steps
where fixed steps take 10,000.  :func:`.dop853.drive` owns the step
loop, its state and its failures; this module holds only the policy: the
tolerance :data:`RETURN_TOL`, the step budget (:data:`MAX_STEPS_PER_PERIOD`
per period of the horizon), the sample grid and the curve metric.  A
classical fixed-step fourth-order Runge-Kutta integrator, ``integrate``,
records trajectory samples for export and is the tests' independent
oracle for both.  A run cut short ends when the failure is detected: at
``CollisionError.t``, or at the end of a step that left a non-finite
state.

Both evaluate F / m straight on the (n, 3) state through the model's
cached :class:`.dynamics.PairTable`: its
:meth:`~.dynamics.PairTable.accelerator` writes the accelerations of one
configuration into the caller's array through pair buffers it builds
once (one difference-matrix product for the pair differences, one product
for their squared norms, one square root, one power and one incidence
product), with no batching reshapes, potential energy or per-call
set-up.  The arithmetic is the one :func:`.dynamics.forces` performs, so
the two agree to the bit.  Each DOP853 drive gets one accelerator of its
own, the right-hand side of the second-order system.  ``rk4_step``
fetches the table from the cache and builds an accelerator on every call
(a few microseconds against tens per step); a run therefore builds the
table once, and each step stays one call that per-layer tracing can see.

``perturb_and_track`` measures every perturbed track of an orbit against
one tracking reference, built once per orbit and shared by every later
track of it: the reference band (:class:`_CurveMetric`, the orbit sampled
at :data:`CURVE_SAMPLES` phases) and the unperturbed start state
(:func:`extract_ics`).  Both follow from the model and the parameter
values alone, so a small bounded cache keyed by value keeps the last few
orbits' references, every array read-only, as :func:`.dynamics.pair_table`
keeps pair tables.  The deviation, the drive and its accelerator stay
per track.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dop853
from .dynamics import observables, pair_table
from .dynamics import forces  # noqa: F401  (kept bound: perfbench traces integrate.forces)
from .errors import CollisionError, IntegrationError
from .potential import PotentialSpec
from .symmetry import OrbitModel, ParamLayout, ReducedParams, sample_positions

TWO_PI = 2.0 * math.pi
DEFAULT_DT = TWO_PI * 1e-4
# DOP853 rtol = atol
RETURN_TOL = 1e-13
# DOP853 steps per period of the horizon: over 10x the 310 of cubic m=7 at
# k_max=27, the most a shipped orbit needs, so a non-orbit cannot crawl
MAX_STEPS_PER_PERIOD = 4000
# reference-curve phases the perturbation tracker measures deviation against
CURVE_SAMPLES = 2048
# orbits whose tracking reference stays cached: the stress benchmark's two
# orbits with room to spare
REFERENCE_CACHE_SIZE = 4
# the finest tracking grid: 25 samples per step at the step budget's
# finest steps (see perturb_and_track)
MAX_SAMPLES_PER_PERIOD = 25 * MAX_STEPS_PER_PERIOD


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
    accelerate = pair_table(spec, masses).accelerator()
    a1, a2, a3, a4 = np.empty((4,) + pos.shape)
    accelerate(pos, t, a1)
    p2 = pos + 0.5 * dt * vel
    v2 = vel + 0.5 * dt * a1
    accelerate(p2, t + 0.5 * dt, a2)
    p3 = pos + 0.5 * dt * v2
    v3 = vel + 0.5 * dt * a2
    accelerate(p3, t + 0.5 * dt, a3)
    p4 = pos + dt * v3
    v4 = vel + dt * a3
    accelerate(p4, t + dt, a4)
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
    """ValueError unless every span is positive and finite and count is
    an integer >= 1, a bool excluded from both."""
    for name, x in spans.items():
        if isinstance(x, bool) or not 0.0 < x < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {x!r}")
    if (isinstance(count, bool) or not isinstance(count, (int, np.integer))
            or count < 1):
        raise ValueError(f"{stride} must be a positive integer, got {count!r}")


def integrate(state: PhaseState, masses, spec: PotentialSpec,
              dt: float = DEFAULT_DT, horizon: float = TWO_PI,
              record_stride: int = 1) -> Trajectory:
    """Advance the state for ``horizon`` time units with fixed steps.

    Records every ``record_stride``-th step (plus the initial and final
    states).  Raises ValueError on a bad step, stride or horizon, a step
    count horizon / dt that is not finite or a mass vector that does not
    match the bodies, CollisionError if bodies approach below
    :data:`.dynamics.COLLISION_THRESHOLD` and IntegrationError on a
    non-finite state.
    """
    _check_steps("record_stride", record_stride, horizon=horizon, dt=dt)
    if not horizon / dt < math.inf:    # a subnormal dt overflows the count
        raise ValueError(f"horizon / dt must be finite, got {horizon!r} / "
                         f"{dt!r}")
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


def _step_budget(horizon: float) -> float:
    """The most DOP853 steps a drive to ``horizon`` may take, before
    rounding up: :data:`MAX_STEPS_PER_PERIOD` per period."""
    return MAX_STEPS_PER_PERIOD * horizon / TWO_PI


def return_error(model: OrbitModel, params: ReducedParams) -> float:
    """Max-norm phase-space mismatch after integrating one full period.

    The one-period map is the end state of a :func:`.dop853.drive` with no
    interior samples, so it raises what that drive raises, and
    CollisionError (context 'integration') below
    :data:`.dynamics.COLLISION_THRESHOLD`.
    """
    state = extract_ics(model, params)
    accelerate = pair_table(model.potential, model.masses).accelerator()
    *_, (_, pos, vel) = dop853.drive(accelerate, state.positions,
                                     state.velocities, TWO_PI, (), RETURN_TOL,
                                     math.ceil(_step_budget(TWO_PI)))
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
        curve = sample_positions(model, params, phases).transpose(1, 0, 2)
        self.n = curve.shape[1]
        self.planar = bool(np.abs(curve[:, :, 2]).max() < 1e-9)
        self.curve_sq = np.einsum("mic,mic->m", curve, curve)
        # rows of 2c, so that one product gives 2 p.c per phase; for a
        # planar curve, the in-plane dot and cross products of p with c,
        # whose norm is the largest 2 p.c over rotations about the normal
        if self.planar:
            zero = np.zeros_like(curve[:, :, 0])
            rows = np.concatenate((
                np.stack((curve[:, :, 0], curve[:, :, 1], zero), axis=-1),
                np.stack((curve[:, :, 1], -curve[:, :, 0], zero), axis=-1)))
        else:
            rows = curve
        self.rows = 2.0 * rows.reshape(rows.shape[0], -1)
        self.curve_sq.setflags(write=False)
        self.rows.setflags(write=False)

    def _per_phase(self, pos: np.ndarray) -> np.ndarray:
        """n times the squared rms distance from pos to each curve sample
        (rotated optimally for a planar curve): |p|^2 + |c|^2 - 2 p.c."""
        p = pos.ravel()
        dots = np.dot(self.rows, p)
        if self.planar:
            along, cross = dots[:CURVE_SAMPLES], dots[CURVE_SAMPLES:]
            dots = np.sqrt(along * along + cross * cross)
        return (np.dot(p, p) + self.curve_sq) - dots

    def distance(self, pos: np.ndarray) -> float:
        """The refined minimum over phases; inf when the sample overflows
        the expanded form, which a far enough displacement does."""
        with np.errstate(over="ignore", invalid="ignore"):
            per_phase = self._per_phase(pos)
        j = int(np.argmin(per_phase))    # a NaN or -inf overflow wins here
        if not math.isfinite(per_phase[j]):
            return math.inf
        m = per_phase.shape[0]
        # parabolic refinement through the cyclic neighbors
        f0, f1, f2 = (math.sqrt(max(per_phase[k], 0.0) / self.n)
                      for k in (j - 1, j, (j + 1) % m))
        denom = f0 - 2.0 * f1 + f2
        if denom > 0.0:
            offset = 0.5 * (f0 - f2) / denom
            refined = f1 - 0.25 * (f0 - f2) * offset
            return float(max(min(f1, refined), 0.0))
        return float(f1)


@functools.lru_cache(maxsize=REFERENCE_CACHE_SIZE)
def _cached_reference(model: OrbitModel, slots: tuple, couplings: tuple,
                      k_max: int, gen_channels: tuple,
                      kinetic_mass: bytes, values: bytes
                      ) -> tuple[_CurveMetric, PhaseState]:
    layout = ParamLayout(slots, couplings, k_max, gen_channels,
                         np.frombuffer(kinetic_mass))
    params = ReducedParams(layout, np.frombuffer(values))
    return _CurveMetric(model, params), extract_ics(model, params)


def _tracking_reference(model: OrbitModel, params: ReducedParams
                        ) -> tuple[_CurveMetric, PhaseState]:
    """The (cached, read-only) tracking reference of an orbit: its band
    and its unperturbed start state, keyed by the model, the layout and
    the parameter values' bytes."""
    layout = params.layout
    return _cached_reference(model, layout.slots, layout.couplings,
                             layout.k_max, layout.gen_channels,
                             layout.kinetic_mass.tobytes(),
                             params.values.tobytes())


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
    the deviation finite.  The run is one :func:`.dop853.drive`; it
    samples every ``samples_per_period``-th of a period, each time made as
    the drive reaches it, and the end of the horizon.  It stops at the
    first later sample outside the envelope, or at any sample, the start
    included, too far out for the metric to measure (an infinite
    ``max_deviation``).  A horizon, sample count or step budget that
    overflows a float is a ValueError, as a non-positive ``n_periods`` is,
    and so is a ``samples_per_period`` above
    :data:`MAX_SAMPLES_PER_PERIOD`: each sample is a dense interpolation
    kept in the report, a finer grid than 25 samples per step of the
    finest stepping the step budget allows shows nothing the interpolant
    does not, and a vast one would interpolate and keep samples inside one
    step without end.  The total sample count is not capped: the samples
    of a long horizon are made one at a time.

    The band and the unperturbed start come from the orbit's tracking
    reference, built on the first track of an orbit and shared by later
    tracks of the same model and parameter values (see the module
    docstring); nothing of a track's own is kept.
    """
    _check_steps("samples_per_period", samples_per_period, n_periods=n_periods)
    if samples_per_period > MAX_SAMPLES_PER_PERIOD:
        raise ValueError(f"samples_per_period must be at most "
                         f"{MAX_SAMPLES_PER_PERIOD}, got {samples_per_period!r}")
    horizon = n_periods * TWO_PI
    n_samples = n_periods * int(samples_per_period)
    for name, x in (("horizon", horizon), ("sample count", n_samples),
                    ("step budget", _step_budget(horizon))):
        if not x < math.inf:
            raise ValueError(f"the {name} overflows (n_periods={n_periods!r},"
                             f" samples_per_period={samples_per_period!r})")
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
    interval = TWO_PI / samples_per_period
    # k * interval grows with k, so the first time past the horizon ends
    # the samples; they are made one at a time, as the drive reaches them
    times = itertools.takewhile(
        lambda time: time < horizon,
        (k * interval
         for k in range(1, math.ceil(n_samples))))

    metric, base = _tracking_reference(model, params)
    accelerate = pair_table(model.potential, model.masses).accelerator()
    samples = dop853.drive(accelerate, base.positions + dev, base.velocities,
                           horizon, times, RETURN_TOL,
                           math.ceil(_step_budget(horizon)))
    sample_times, sections, deviations = [], [], []
    exit_time = None
    try:
        for t, pos, _ in samples:
            sample_times.append(t)
            sections.append(pos)
            deviations.append(metric.distance(pos))
            # the start may exceed a given envelope, but not be unmeasurable
            if not math.isfinite(deviations[-1]) or (deviations[-1] > envelope
                                                     and t > 0.0):
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
