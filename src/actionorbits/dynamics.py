"""Forces, energies, conserved quantities, and the equations-of-motion residual.

All pair interactions follow the homogeneous law in :mod:`.potential` and
go through one :class:`PairTable` per (potential, masses): the index pairs
i < j, the signed couplings c_ij (and -alpha * c_ij for the force), and the
body-by-pair incidence matrix that sums pair forces onto bodies.  The table
is built once and cached, so a force call only gathers separations, takes
their norms and powers, and applies the incidence matrix.  Positions may be
a single configuration of shape (n, 3) or a batch of shape (n, T, 3); they
reach the table in the shape they come in, with no batching reshape, and
forces and energies are evaluated vectorized over the batch axis with a
deterministic reduction order.  :func:`observables` takes the same two
shapes: for a batch every field gains a leading T axis, so a time series
is one call, not a loop over samples.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError
from .potential import PotentialSpec
from .quadrature import QuadratureGrid
from .symmetry import OrbitModel, ReducedParams, _as_times, sample_positions

COLLISION_THRESHOLD = 1e-8


def _separations(i_idx: np.ndarray, j_idx: np.ndarray, x: np.ndarray):
    """Pair differences x_i - x_j and their squared norms for x of shape
    (n, 3) or (n, T, 3)."""
    d = x.take(i_idx, axis=0) - x.take(j_idx, axis=0)
    return d, np.einsum("...c,...c->...", d, d)


class PairTable:
    """Everything about the pairs of one (potential, masses) that does not
    depend on positions.  Build through :func:`pair_table`, which caches.

    Methods take positions of shape (n, 3) or (n, T, 3); ``times`` is the
    matching scalar or (T,) array, used only to report a collision.
    """

    def __init__(self, spec: PotentialSpec, masses: np.ndarray):
        n = masses.size
        self.alpha = spec.alpha
        self.softening = spec.softening
        self.i_idx, self.j_idx = np.triu_indices(n, 1)
        self.coupling = np.array([spec.pair_coupling(masses[i], masses[j])
                                  for i, j in zip(self.i_idx, self.j_idx)])
        # F_i = -dV/dx_i = -c * alpha * r**(alpha-2) * (x_i - x_j) per pair
        self.force_coef = (-spec.alpha) * self.coupling
        pairs = np.arange(self.i_idx.size)
        self.incidence = np.zeros((n, pairs.size))
        self.incidence[self.i_idx, pairs] = 1.0
        self.incidence[self.j_idx, pairs] = -1.0
        self.mass_column = masses[:, None]
        for a in (self.i_idx, self.j_idx, self.coupling, self.force_coef,
                  self.incidence, self.mass_column):
            a.setflags(write=False)

    def distances(self, x: np.ndarray, times, collision_threshold: float,
                  context: str):
        """Pair differences d and (softened) distances r.

        Raises CollisionError when any true separation drops below the
        threshold; softening applies only after that test.
        """
        d, r2 = _separations(self.i_idx, self.j_idx, x)
        r = np.sqrt(r2)
        if collision_threshold > 0.0 and r.size and r.min() < collision_threshold:
            at = np.unravel_index(np.argmin(r), r.shape)   # (pair[, time])
            t = None if times is None else float(
                np.ravel(times)[at[1] if r.ndim == 2 else 0])
            raise CollisionError((self.i_idx[at[0]], self.j_idx[at[0]]), t=t,
                                 distance=r[at], context=context)
        if self.softening > 0.0:
            r = np.sqrt(r2 + self.softening ** 2)
        return d, r

    def potential(self, r: np.ndarray):
        """sum_ij c_ij r_ij**alpha, per configuration."""
        return self.coupling @ (r ** self.alpha)

    def forces(self, d: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Per-body forces, shaped like the positions d and r came from."""
        coef = self.force_coef.reshape(self.force_coef.shape + (1,) * (r.ndim - 1))
        pair_f = (coef * r ** (self.alpha - 2.0))[..., None] * d
        # the same BLAS product np.tensordot would form, without its
        # per-call overhead (about 10 us, half a small force call)
        F = np.dot(self.incidence, pair_f.reshape(pair_f.shape[0], -1))
        return F.reshape((-1,) + d.shape[1:])

    def accelerations(self, pos: np.ndarray, t: float,
                      collision_threshold: float) -> np.ndarray:
        """F / m for one (n, 3) configuration: the integrator's right side."""
        d, r = self.distances(pos, t, collision_threshold, "integration")
        return self.forces(d, r) / self.mass_column


@functools.lru_cache(maxsize=64)
def _cached_pair_table(spec: PotentialSpec, mass_bytes: bytes) -> PairTable:
    return PairTable(spec, np.frombuffer(mass_bytes))


def pair_table(spec: PotentialSpec, masses) -> PairTable:
    """The (cached, read-only) pair table of a potential and mass vector."""
    return _cached_pair_table(spec, np.asarray(masses, dtype=float).tobytes())


def _positions(positions) -> np.ndarray:
    x = np.asarray(positions, dtype=float)
    if x.ndim not in (2, 3):
        raise ValueError(f"positions must have shape (n, 3) or (n, T, 3), got {x.shape}")
    return x


def potential_energy(spec: PotentialSpec, masses, positions, times=None,
                     collision_threshold: float = COLLISION_THRESHOLD,
                     context: str = "") -> np.ndarray | float:
    """Total pair potential; scalar for a single configuration, else (T,)."""
    x = _positions(positions)
    table = pair_table(spec, masses)
    _, r = table.distances(x, times, collision_threshold, context)
    v = table.potential(r)
    return float(v) if x.ndim == 2 else v


def forces(spec: PotentialSpec, masses, positions, times=None,
           collision_threshold: float = COLLISION_THRESHOLD,
           context: str = "") -> tuple[np.ndarray, np.ndarray | float]:
    """Pairwise forces and total potential energy.

    Returns (F, V) with F matching the shape of ``positions``.  Newton's
    third law holds to machine precision because each pair contributes the
    same term with opposite signs.
    """
    x = _positions(positions)
    table = pair_table(spec, masses)
    d, r = table.distances(x, times, collision_threshold, context)
    v = table.potential(r)
    F = table.forces(d, r) if d.size else np.zeros_like(x)   # no pairs: n < 2
    return (F, float(v)) if x.ndim == 2 else (F, v)


def min_pair_distance(positions) -> float:
    """Smallest body separation over a configuration or batch."""
    x = _positions(positions)
    _, r2 = _separations(*np.triu_indices(x.shape[0], 1), x)
    return float(np.sqrt(r2.min())) if r2.size else np.inf


@dataclass(frozen=True)
class Observables:
    """Mechanical invariants of one configuration, or of a batch.

    I is the standard inertia tensor sum m (|x|^2 1 - x x^T); Q is the
    traceless quadrupole sum m (3 x x^T - |x|^2 1).  A body exactly at the
    origin contributes zero to both.  For a batch of T configurations every
    field leads with the T axis: E, kinetic and potential are (T,) arrays,
    J, P and com (T, 3), I and Q (T, 3, 3).
    """

    E: float | np.ndarray
    kinetic: float | np.ndarray
    potential: float | np.ndarray
    J: np.ndarray          # angular momentum ([T,] 3)
    P: np.ndarray          # linear momentum ([T,] 3)
    I: np.ndarray          # inertia tensor ([T,] 3, 3)
    Q: np.ndarray          # quadrupole tensor ([T,] 3, 3)
    com: np.ndarray        # center of mass ([T,] 3)


def observables(spec: PotentialSpec, masses, positions, velocities) -> Observables:
    """E, J, P, I, Q and the center of mass of an (n, 3) configuration or
    an (n, T, 3) batch, with velocities of the same shape."""
    x = _positions(positions)
    v = np.asarray(velocities, dtype=float)
    m = np.asarray(masses, dtype=float)
    if x.shape != v.shape:
        raise ValueError("observables expects matching positions/velocities")
    mw = m.reshape(m.shape + (1,) * (x.ndim - 1))
    kin = 0.5 * (m @ np.einsum("i...c,i...c->i...", v, v))
    pot = potential_energy(spec, m, x, collision_threshold=0.0)
    if x.ndim == 2:
        kin = float(kin)
    xxt = np.einsum("i,i...c,i...d->...cd", m, x, x)
    r2 = np.einsum("i,i...c,i...c->...", m, x, x)[..., None, None]
    return Observables(E=kin + pot, kinetic=kin, potential=pot,
                       J=(mw * np.cross(x, v)).sum(axis=0),
                       P=(mw * v).sum(axis=0),
                       I=r2 * np.eye(3) - xxt, Q=3.0 * xxt - r2 * np.eye(3),
                       com=(mw * x).sum(axis=0) / m.sum())


def observables_series(model: OrbitModel, params: ReducedParams, times):
    """Observables along sampled times of a model trajectory, as one batch."""
    t, _ = _as_times(times)
    pos = sample_positions(model, params, t)
    vel = sample_positions(model, params, t, deriv=1)
    return t, observables(model.potential, model.masses, pos, vel)


@dataclass(frozen=True)
class ResidualReport:
    """How far sampled trajectories are from solving m x'' = F."""

    max_violation: float
    spectrum: np.ndarray       # per-harmonic amplitude of the violation
    worst_body: int
    worst_time: float


def residual(model: OrbitModel, params: ReducedParams,
             grid: QuadratureGrid | None = None,
             collision_threshold: float = COLLISION_THRESHOLD) -> ResidualReport:
    """Equations-of-motion defect max_{i,t} |m_i x_i''(t) - F_i(t)|.

    The spectrum entry at harmonic q is the largest one-sided Fourier
    amplitude of the defect over bodies and coordinates, which separates
    truncation-tail error (q > k_max) from genuine non-convergence.
    """
    if grid is None:
        grid = QuadratureGrid.for_kmax(model.k_max)
    grid.require(model.k_max)
    t = grid.nodes
    pos = sample_positions(model, params, t)
    acc = sample_positions(model, params, t, deriv=2)
    F, _ = forces(model.potential, model.masses, pos, times=t,
                  collision_threshold=collision_threshold, context="residual")
    defect = model.masses[:, None, None] * acc - F             # (n, T, 3)
    norms = np.sqrt(np.einsum("itc,itc->it", defect, defect))
    i, j = np.unravel_index(np.argmax(norms), norms.shape)
    spec = np.fft.rfft(defect, axis=1)
    amp = 2.0 * np.abs(spec) / grid.n
    amp[:, 0, :] *= 0.5
    if grid.n % 2 == 0:
        amp[:, -1, :] *= 0.5
    spectrum = amp.max(axis=(0, 2))
    return ResidualReport(
        max_violation=float(norms[i, j]),
        spectrum=spectrum,
        worst_body=int(i),
        worst_time=float(t[j]),
    )
