"""Direct integration checks: does the Fourier orbit solve the ODE?

One integrator advances the phase state (positions, velocities) under the
same pair forces the action uses: the adaptive 8th-order Dormand-Prince
method (DOP853, :mod:`.dop853`) with its dense output, at one of two
fixed tolerances.  ``return_error`` measures how well a converged orbit
closes after one period, and ``trajectory_blocks`` samples the orbit for
export in blocks of :data:`TRAJECTORY_BLOCK` samples, made as the drive
reaches them (``trajectory`` joins them); both drive at
:data:`DRIVE_TOL` = 1e-13, tight enough to read closures of 1e-11.
``perturb_and_track`` follows deliberately perturbed initial conditions
over many periods to probe stability at :data:`TRACK_TOL` = 1e-10: the
global error scales with the tolerance, and there it stays below what
the curve metric reporting the track can resolve, at well under half the
steps.  At 1e-13 one period takes a few hundred steps where fixed steps
take 10,000.  :func:`.dop853.drive` owns the step loop, its state and its
failures; this module holds only the policy: the two tolerances, the
step budget (:data:`MAX_STEPS_PER_PERIOD` per period of the horizon),
the sample grid and the curve metric.  A run cut short ends when the
failure is detected: at ``CollisionError.t``, or at the end of a step
that left a non-finite state.

Each DOP853 drive gets one :meth:`~.dynamics.PairTable.accelerator` of
its own from the model's cached :class:`.dynamics.PairTable`, the
right-hand side of the second-order system: it writes F / m of the
(n, 3) state into the drive's array through pair buffers it builds once,
the bits of :func:`.dynamics.forces` over the masses on a finite state.

``perturb_and_track`` measures every perturbed track of an orbit against
one tracking reference, built once per orbit and shared by every later
track of it: the reference band (:class:`_CurveMetric`, the orbit sampled
at :data:`CURVE_SAMPLES` phases), the band's resolution (what it reads on
the orbit between its samples, which floors the default envelope) and the
unperturbed start state (:func:`extract_ics`).  All three follow from the
model and the parameter values alone, so a small bounded cache keeps the
last few orbits' references, every array read-only, as
:func:`.dynamics.pair_table` keeps pair tables.  Its key is the model,
the layout (a value: two equal layouts hit one entry, whichever built
them) and the parameter values' bytes.  The deviation, the drive and its
accelerator stay per track.
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
from .errors import CollisionError, IntegrationError, integer, real
from .potential import PotentialSpec
from .symmetry import OrbitModel, ParamLayout, ReducedParams, sample_positions

TWO_PI = 2.0 * math.pi
# rk4_step and DEFAULT_DT stay exported only because the benchmark's set-up
# probe takes one RK4 step and its tracer binds integrate.rk4_step; nothing
# in the library calls them, and the tests' RK4 oracle steps through them
DEFAULT_DT = TWO_PI * 1e-4
# DOP853 rtol = atol of the orbit's own drives: return_error reads
# closures of 1e-11 (records.RETURN_TOL bounds it), and trajectory
# exports keep the bits they had
DRIVE_TOL = 1e-13
# DOP853 rtol = atol of perturb_and_track's drives.  The global error
# scales with the tolerance, and at 1e-10 it stays below the curve
# metric's own resolution (a point of the criss-cross orbit between two of
# the CURVE_SAMPLES phases reads up to about 5e-5), so a tighter drive
# would pay for accuracy no report can show
TRACK_TOL = 1e-10
# DOP853 steps per period of the horizon: over 10x the 310 of cubic m=7 at
# k_max=27, the most a shipped orbit needs, so a non-orbit cannot crawl
MAX_STEPS_PER_PERIOD = 4000
# reference-curve phases the perturbation tracker measures deviation against
CURVE_SAMPLES = 2048
# the default envelope is at least this multiple of the band's resolution,
# so that a tiny displacement is not read as an exit from the band
RESOLUTION_MARGIN = 10.0
# orbits whose tracking reference stays cached: the stress benchmark's two
# orbits with room to spare
REFERENCE_CACHE_SIZE = 4
# the finest sample grid: 25 samples per step at the step budget's finest
# steps.  Each sample is a dense interpolation that is kept, so a finer grid
# shows nothing the interpolant does not, and a vast one would interpolate
# and keep samples inside one step without end
MAX_SAMPLES_PER_PERIOD = 25 * MAX_STEPS_PER_PERIOD
# samples per block of an exported trajectory.  A power of two: the
# observables' vectorized sums round a batch's last few samples (its tail
# past a multiple of the vector width) apart from the rest, so on one BLAS
# thread power-of-two blocks keep the bits of one batch of every sample,
# where 999 or 1,001 move the last bits of E
TRAJECTORY_BLOCK = 1024


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


def _step_budget(horizon: float) -> float:
    """The most DOP853 steps a drive to ``horizon`` may take, before
    rounding up: :data:`MAX_STEPS_PER_PERIOD` per period."""
    return MAX_STEPS_PER_PERIOD * horizon / TWO_PI


def _sample_grid(n_periods: float, samples_per_period: int):
    """The horizon, the interior sample times k * 2pi / samples_per_period
    (made one at a time, as the drive reaches them, so a long horizon's
    count is not capped) and the step budget of a drive over ``n_periods``.

    ValueError unless ``n_periods`` is positive and finite and
    ``samples_per_period`` an integer in [1, :data:`MAX_SAMPLES_PER_PERIOD`]
    (a bool is neither), or when the horizon, the sample count or the step
    budget overflows a float.
    """
    n_periods = real(n_periods, "n_periods")
    if not 0.0 < n_periods < math.inf:
        raise ValueError(f"n_periods must be positive and finite, "
                         f"got {n_periods!r}")
    samples_per_period = integer(samples_per_period, "samples_per_period",
                                 least=1)
    if samples_per_period > MAX_SAMPLES_PER_PERIOD:
        raise ValueError(f"samples_per_period must be at most "
                         f"{MAX_SAMPLES_PER_PERIOD}, got {samples_per_period!r}")
    horizon = n_periods * TWO_PI
    n_samples = n_periods * samples_per_period
    budget = _step_budget(horizon)
    for name, x in (("horizon", horizon), ("sample count", n_samples),
                    ("step budget", budget)):
        if not x < math.inf:
            raise ValueError(f"the {name} overflows (n_periods={n_periods!r},"
                             f" samples_per_period={samples_per_period!r})")
    interval = TWO_PI / samples_per_period
    # k * interval grows with k, so the first time past the horizon ends
    # the samples
    times = itertools.takewhile(
        lambda time: time < horizon,
        (k * interval for k in range(1, math.ceil(n_samples))))
    return horizon, times, math.ceil(budget)


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
                                     state.velocities, TWO_PI, (), DRIVE_TOL,
                                     math.ceil(_step_budget(TWO_PI)))
    return float(max(np.abs(pos - state.positions).max(),
                     np.abs(vel - state.velocities).max()))


def trajectory_blocks(model: OrbitModel, params: ReducedParams,
                      n_periods: float = 1.0, samples_per_period: int = 1000):
    """The orbit's own :func:`.dop853.drive` from :func:`extract_ics`,
    sampled on ``perturb_and_track``'s grid (:func:`_sample_grid`), with
    the energy and angular momentum of each sample: an iterator of
    :class:`Trajectory` blocks of :data:`TRAJECTORY_BLOCK` samples (the
    last one fewer), each made as the drive reaches it, so a long horizon
    is never held whole.  The grid is checked here, before the first
    block; the blocks raise what the drive raises, and CollisionError
    (context 'integration') below :data:`.dynamics.COLLISION_THRESHOLD`.
    """
    horizon, times, max_steps = _sample_grid(n_periods, samples_per_period)
    state = extract_ics(model, params)
    accelerate = pair_table(model.potential, model.masses).accelerator()
    samples = dop853.drive(accelerate, state.positions, state.velocities,
                           horizon, times, DRIVE_TOL, max_steps)

    def blocks():
        while block := list(itertools.islice(samples, TRAJECTORY_BLOCK)):
            times, pos, vel = (np.array(column) for column in zip(*block))
            obs = observables(model.potential, model.masses,
                              pos.transpose(1, 0, 2), vel.transpose(1, 0, 2))
            yield Trajectory(times, pos, vel, energy=obs.E,
                             angular_momentum=obs.J)

    return blocks()


def trajectory(model: OrbitModel, params: ReducedParams,
               n_periods: float = 1.0,
               samples_per_period: int = 1000) -> Trajectory:
    """The blocks of :func:`trajectory_blocks`, joined into one."""
    blocks = trajectory_blocks(model, params, n_periods, samples_per_period)
    fields = zip(*(vars(block).values() for block in blocks))
    return Trajectory(*(np.concatenate(field) for field in fields))


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
        # parabolic refinement through the cyclic neighbors, of the
        # squared distance: it is quadratic in the phase near its minimum,
        # where the distance itself has a V
        f0, f1, f2 = (max(per_phase[k], 0.0)
                      for k in (j - 1, j, (j + 1) % m))
        denom = f0 - 2.0 * f1 + f2
        if denom > 0.0:
            offset = 0.5 * (f0 - f2) / denom
            f1 = max(min(f1, f1 - 0.25 * (f0 - f2) * offset), 0.0)
        return math.sqrt(f1 / self.n)


@functools.lru_cache(maxsize=REFERENCE_CACHE_SIZE)
def _cached_reference(model: OrbitModel, layout: ParamLayout, values: bytes
                      ) -> tuple[_CurveMetric, PhaseState, float]:
    params = ReducedParams(layout, np.frombuffer(values))
    metric = _CurveMetric(model, params)
    # the band's resolution: its largest reading of an orbit point midway
    # between two curve samples, at every 64th pair (1.3e-5 on cubic m=1,
    # 5e-5 on the criss-cross, 1.3e-3 on the figure-eight near t = pi)
    mids = (np.arange(0, CURVE_SAMPLES, 64) + 0.5) * (TWO_PI / CURVE_SAMPLES)
    resolution = max(map(metric.distance, sample_positions(
        model, params, mids).transpose(1, 0, 2)))
    return metric, extract_ics(model, params), resolution


def _tracking_reference(model: OrbitModel, params: ReducedParams
                        ) -> tuple[_CurveMetric, PhaseState, float]:
    """The (cached, read-only) tracking reference of an orbit: its band,
    its unperturbed start state and the band's resolution."""
    return _cached_reference(model, params.layout, params.values.tobytes())


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
    applied displacement, and at least :data:`RESOLUTION_MARGIN` times the
    band's own resolution; a given envelope is kept as given and must be
    positive and finite, and the deviation must be finite.  The run is one
    :func:`.dop853.drive` at :data:`TRACK_TOL`; it samples every
    ``samples_per_period``-th of a period and the end of the horizon, on
    the grid :func:`_sample_grid` checks and makes.  It stops at the first
    later sample outside the envelope, or at any sample, the start
    included, too far out for the metric to measure (an infinite
    ``max_deviation``).

    The band, its resolution and the unperturbed start come from the
    orbit's tracking reference, built on the first track of an orbit and
    shared by later tracks of the same model and parameter values (see the
    module docstring); nothing of a track's own is kept.
    """
    horizon, times, max_steps = _sample_grid(n_periods, samples_per_period)
    dev = np.array(deviation, dtype=float)
    if dev.shape != (model.n_bodies, 3):
        raise ValueError(f"deviation must have shape ({model.n_bodies}, 3), "
                         f"got {dev.shape}")
    applied = float(np.abs(dev).max())   # NaN when any entry is NaN
    if not 0.0 < applied < math.inf:
        raise ValueError("perturbation must be finite and displace at least one body")
    metric, base, resolution = _tracking_reference(model, params)
    envelope = (max(100.0 * applied, RESOLUTION_MARGIN * resolution)
                if envelope is None else real(envelope, "envelope"))
    if not 0.0 < envelope < math.inf:
        raise ValueError(f"envelope must be positive and finite, got {envelope!r}")
    accelerate = pair_table(model.potential, model.masses).accelerator()
    samples = dop853.drive(accelerate, base.positions + dev, base.velocities,
                           horizon, times, TRACK_TOL, max_steps)
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

