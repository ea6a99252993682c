"""Gradient descent on the action over reduced Fourier coefficients.

The update per iteration is c_k <- c_k - dtau_k * dS/dc_k with per-slot
step sizes from a :class:`DescentSchedule`:

* ``uniform(dtau)``: the same step everywhere.  The kinetic part of the
  gradient is pi * m_eff * k^2 * c_k, so the highest harmonic bounds
  stability: dtau < 2 / (pi * m_eff * k_max^2).
* ``preconditioned(delta)``: dtau_k = delta / (m_eff * k^2), which scales
  the step to each mode's own curvature.  Every harmonic then contracts at
  the same rate 1 - delta*pi in the kinetic-only limit, and the stability
  bound delta < 2/pi is independent of the truncation order.  With an
  attractive power-law potential r^alpha the overall-scale mode is stiffer
  than the kinetic analysis suggests: homogeneity ties its curvature at any
  minimum to (2 - alpha) times the kinetic curvature, so full convergence
  needs delta < 2 / ((2 - alpha) * pi) -- about 0.212 for alpha = -1.  The
  default 0.15 sits below that with margin.
* ``custom(table)``: explicit per-harmonic steps; negative entries turn the
  marked harmonics into ascent directions (saddle searches).

``naive_time_descent`` implements the same flow on raw sampled paths with a
three-point second difference.  Its stability bound h^2 / (2 m) collapses
as the grid is refined, and just above it the alternating (Nyquist) mode
grows geometrically -- the "zig-zag" instability the coefficient-space
preconditioner removes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .action import EvalKernel, _with_gradient
from .dynamics import forces, residual
from .errors import CollisionError, LayoutError
from .potential import PotentialSpec
from .quadrature import QuadratureGrid
from .symmetry import OrbitModel, ParamLayout, ReducedParams

UNIFORM = "uniform"
PRECONDITIONED = "preconditioned"
CUSTOM = "custom"

CONVERGED = "converged"
COLLISION = "collision"
ESCAPE = "escape"
MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class DescentSchedule:
    """Step-size rule; build via :meth:`uniform`, :meth:`preconditioned`,
    or :meth:`custom`."""

    rule: str
    delta: float | None = None
    table: tuple[tuple[int, float], ...] | None = None

    @classmethod
    def uniform(cls, dtau: float) -> "DescentSchedule":
        if dtau == 0.0 or not math.isfinite(dtau):
            raise ValueError("uniform schedule needs a nonzero finite step")
        return cls(UNIFORM, delta=float(dtau))

    @classmethod
    def preconditioned(cls, delta: float = 0.15) -> "DescentSchedule":
        if delta == 0.0 or not math.isfinite(delta):
            raise ValueError("preconditioned schedule needs a nonzero finite delta")
        return cls(PRECONDITIONED, delta=float(delta))

    @classmethod
    def custom(cls, table: Mapping[int, float]) -> "DescentSchedule":
        entries = tuple(sorted((int(k), float(v)) for k, v in table.items()))
        if not entries or all(v == 0.0 for _, v in entries):
            raise ValueError("custom schedule needs at least one nonzero entry")
        return cls(CUSTOM, table=entries)

    def step_sizes(self, layout: ParamLayout) -> np.ndarray:
        """Per-slot steps dtau_k for a concrete layout."""
        k = layout.slot_k.astype(float)
        if self.rule == UNIFORM:
            return np.full(layout.n_slots, self.delta)
        if self.rule == PRECONDITIONED:
            if np.any(k < 1):
                raise LayoutError(
                    "preconditioned schedule requires harmonics k >= 1 "
                    "(a constant term has no kinetic curvature to scale by)"
                )
            return self.delta / (layout.kinetic_mass * k * k)
        lookup = dict(self.table)
        missing = sorted({int(v) for v in k} - set(lookup))
        if missing:
            raise LayoutError(f"custom schedule missing harmonics {missing}")
        return np.array([lookup[int(v)] for v in k])


def stability_bound(schedule: DescentSchedule, k_max: int, mass: float) -> float:
    """Largest stable magnitude of the schedule's free parameter.

    Derived from the kinetic-only update factor 1 - dtau * pi * mass * k^2:
    uniform steps must keep the highest harmonic stable, preconditioned
    steps are harmonic-independent, and a custom table is scaled by its
    most restrictive entry.
    """
    if k_max < 1 or mass <= 0.0:
        raise ValueError("stability bound needs k_max >= 1 and mass > 0")
    if schedule.rule == UNIFORM:
        return 2.0 / (math.pi * mass * k_max ** 2)
    if schedule.rule == PRECONDITIONED:
        return 2.0 / math.pi
    worst = max(abs(v) * k * k for k, v in schedule.table if v != 0.0)
    return 2.0 / (math.pi * mass * worst)


def step(params: ReducedParams, grad: np.ndarray,
         schedule: DescentSchedule) -> ReducedParams:
    """One explicit update c <- c - dtau (.) grad."""
    dtau = schedule.step_sizes(params.layout)
    return params.with_values(params.values - dtau * np.asarray(grad, dtype=float))


@dataclass(frozen=True)
class StopRule:
    """Termination settings for :func:`run`.

    Raises ValueError for settings that could only end in a false or silent
    outcome: a NaN or negative ``grad_tol``, a ``max_iters`` that is not a
    non-negative integer, and an ``escape_radius`` that is NaN or not
    positive (``inf`` turns escape detection off).  Collisions are judged
    by :data:`.dynamics.COLLISION_THRESHOLD`, as in every other layer.
    """

    grad_tol: float = 1e-10
    max_iters: int = 200_000
    escape_radius: float = 50.0

    def __post_init__(self):
        if not self.grad_tol >= 0.0:
            raise ValueError(f"grad_tol must be non-negative, got {self.grad_tol}")
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, numbers.Integral)
                or self.max_iters < 0):
            raise ValueError(
                f"max_iters must be a non-negative integer, got {self.max_iters!r}")
        if not self.escape_radius > 0.0:
            raise ValueError(
                f"escape_radius must be positive, got {self.escape_radius}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of a descent run.

    ``outcome`` is 'converged' (gradient norm reached the tolerance),
    'collision', 'escape', or 'max_iters'.  ``residual`` is the final
    equations-of-motion defect when it could be evaluated; labeling a
    converged result as an orbit additionally requires the residual
    certificate (see :mod:`.records`).
    """

    outcome: str
    params: ReducedParams
    iterations: int
    grad_norm: float
    action_trace: np.ndarray
    residual: float | None = None
    collision_pair: tuple[int, int] | None = None
    collision_time: float | None = None
    escape_body: int | None = None

    @property
    def converged(self) -> bool:
        return self.outcome == CONVERGED


def run(model: OrbitModel, params: ReducedParams,
        schedule: DescentSchedule | None = None,
        stop: StopRule | None = None,
        grid: QuadratureGrid | None = None,
        callback: Callable[[int, ReducedParams, float, float], None] | None = None,
        ) -> RunResult:
    """Iterate gradient descent until convergence or a terminal event.

    Collision and escape are reported in the outcome rather than raised.
    ``callback(iteration, params, S, grad_norm)``, when given, runs once per
    evaluated iterate; it is the one progress hook.
    With fixed inputs the result is deterministic down to the bit level.
    """
    schedule = schedule or DescentSchedule.preconditioned()
    stop = stop or StopRule()
    kernel = EvalKernel(model, params, grid)
    grid = kernel.grid
    dtau = schedule.step_sizes(params.layout)

    v = np.array(params.values, dtype=float)
    trace: list[float] = []
    outcome = MAX_ITERS
    grad_norm = math.inf
    collision_pair = collision_time = escape_body = None
    iteration = 0

    while True:
        pos = kernel.positions(v)
        radii = np.sqrt(np.einsum("itc,itc->it", pos, pos))
        if radii.max() > stop.escape_radius:
            outcome = ESCAPE
            escape_body = int(np.unravel_index(np.argmax(radii), radii.shape)[0])
            break
        try:
            report = _with_gradient(kernel, v, pos,
                                    f"descent iteration {iteration}")
        except CollisionError as err:
            outcome = COLLISION
            collision_pair, collision_time = err.pair, err.t
            break
        trace.append(report.S)
        grad_norm = report.grad_norm
        if callback is not None:
            callback(iteration, params.with_values(v), report.S, grad_norm)
        if grad_norm <= stop.grad_tol:
            outcome = CONVERGED
            break
        if iteration >= stop.max_iters:
            outcome = MAX_ITERS
            break
        v = v - dtau * report.gradient
        iteration += 1

    final = params.with_values(v)
    final_residual = None
    try:
        final_residual = residual(model, final, grid).max_violation
    except CollisionError:
        pass
    return RunResult(
        outcome=outcome,
        params=final,
        iterations=iteration,
        grad_norm=grad_norm,
        action_trace=np.array(trace),
        residual=final_residual,
        collision_pair=collision_pair,
        collision_time=collision_time,
        escape_body=escape_body,
    )


# ----------------------------------------------------------------------
# naive position-space descent (diagnostic)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ZigZagDiagnostic:
    """Trace of the alternating-sample (Nyquist) mode during naive descent."""

    nyquist_amplitudes: np.ndarray
    delta_tau: float
    stability_bound: float

    @property
    def growth_factor(self) -> float:
        start = self.nyquist_amplitudes[0]
        end = self.nyquist_amplitudes[-1]
        return float(end / start) if start > 0.0 else math.inf

    @property
    def growing(self) -> bool:
        return self.growth_factor > 1.0


def naive_stability_bound(n_samples: int, mass: float) -> float:
    """Largest stable step for the three-point time-domain scheme.

    The second difference acts on Fourier mode q as -(4/h^2) sin^2(q h / 2)
    with h = 2*pi/N, so the update factor at the Nyquist mode is
    1 - 4 dtau m / h^2; stability requires dtau < h^2 / (2 m).
    """
    if n_samples < 4 or mass <= 0.0:
        raise ValueError("need at least 4 samples and positive mass")
    h = 2.0 * math.pi / n_samples
    return h * h / (2.0 * mass)


def _nyquist_amplitude(paths: np.ndarray) -> float:
    n_t = paths.shape[1]
    signs = np.where(np.arange(n_t) % 2 == 0, 1.0, -1.0)
    comp = np.einsum("t,itc->ic", signs, paths) / n_t
    return float(np.max(np.abs(comp)))


def naive_time_descent(paths: np.ndarray, masses, spec: PotentialSpec,
                       delta_tau: float, iters: int
                       ) -> tuple[np.ndarray, ZigZagDiagnostic]:
    """Descend the action on raw sampled paths (no Fourier parameterization).

    ``paths`` has shape (n_bodies, n_samples, 3) on a uniform periodic time
    grid.  Each iteration applies x <- x + dtau (m x'' - F) with a periodic
    three-point second difference.  Returns the updated paths and a
    diagnostic tracing the Nyquist-mode amplitude per iteration.
    """
    x = np.array(paths, dtype=float)
    if x.ndim != 3 or x.shape[2] != 3:
        raise ValueError(f"paths must have shape (n, T, 3), got {x.shape}")
    if iters < 0:
        raise ValueError("iteration count must be non-negative")
    masses = np.asarray(masses, dtype=float)
    n_t = x.shape[1]
    h = 2.0 * math.pi / n_t
    amplitudes = [_nyquist_amplitude(x)]
    for _ in range(int(iters)):
        acc = (np.roll(x, -1, axis=1) - 2.0 * x + np.roll(x, 1, axis=1)) / (h * h)
        F, _ = forces(spec, masses, x, context="naive descent")
        x = x + delta_tau * (masses[:, None, None] * acc - F)
        amplitudes.append(_nyquist_amplitude(x))
    diag = ZigZagDiagnostic(
        nyquist_amplitudes=np.array(amplitudes),
        delta_tau=float(delta_tau),
        stability_bound=naive_stability_bound(n_t, float(masses.max())),
    )
    return x, diag
