"""Forces, energies, conserved quantities, and the equations-of-motion residual.

All pair interactions follow the homogeneous law in :mod:`.potential` and
go through one :class:`PairTable` per (potential, masses): the index pairs
i < j, the pair-by-body difference matrix, the signed couplings c_ij (and
-alpha * c_ij for the force), and the body-by-pair incidence matrix that
sums pair forces onto bodies.  The table is built once and cached, so a
force call only forms separations (one difference-matrix product for a
configuration, two gathers for a batch), takes their norms and powers, and
applies the incidence matrix.  Each force path fills pair buffers that an
evaluator builds once: :meth:`PairTable.accelerator` for one
configuration, the integrators' right side, which the DOP853 drive calls
once per stage on the views of its stage plan, and
:meth:`PairTable.batch_evaluator` for a batch of shape (n, T, 3), which
the descent's kernel builds once, for the pairs that touch one body of
each symmetry orbit, and :func:`forces` builds on every batch call, for
every pair.  The accelerator takes r^(alpha - 2) with ``np.power`` as the
single-configuration path of :func:`forces` does, and its division by the
masses repeated along the coordinates is the broadcast one's element by
element, so the two agree to the bit.  Positions may be a single
configuration of shape (n, 3) or a batch of shape (n, T, 3); they reach
the table in the shape they come in, with no batching reshape, and
forces and energies are evaluated vectorized over the batch axis with a
deterministic reduction order.  :func:`observables` takes the same two
shapes: for a batch every field gains a leading T axis, so a time series
is one call, not a loop over samples.  :func:`residual` samples on the
grid the action is evaluated on, ``QuadratureGrid.for_kmax(k_max)``,
unless it is given another: a run's final residual, the one a record
stores and the one ``verify_record`` recomputes are then the same number,
and another grid serves only a recheck independent of the descent's.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError
from .potential import PotentialSpec
from .quadrature import QuadratureGrid
from .symmetry import OrbitModel, ReducedParams, _as_times, sample_positions

# The one collision test of every layer: the action is singular only at
# collisions, so a pair closer than this raises CollisionError wherever
# distances are taken.  PairTable reads it at each call.
COLLISION_THRESHOLD = 1e-8


# sums the squares of a pair difference over its last axis in coordinate
# order, ((dx^2 + dy^2) + dz^2), for one configuration and a batch alike
_ONES3 = np.ones(3)
_ONES3.setflags(write=False)


@functools.lru_cache(maxsize=64)
def _pair_index(n: int):
    """Read-only (i_idx, j_idx, difference) of the pairs i < j of n bodies.

    ``difference`` is the (P, n) matrix with +1 at body i and -1 at body j
    of each pair row.  Each product ``difference @ x`` adds one +x_i and one
    -x_j to exact zeros, so it rounds once and gives the bits of x_i - x_j.
    """
    i_idx, j_idx = np.triu_indices(n, 1)
    difference = np.zeros((i_idx.size, n))
    difference[np.arange(i_idx.size), i_idx] = 1.0
    difference[np.arange(i_idx.size), j_idx] = -1.0
    for a in (i_idx, j_idx, difference):
        a.setflags(write=False)
    return i_idx, j_idx, difference


def _separations(i_idx: np.ndarray, j_idx: np.ndarray,
                 difference: np.ndarray, x: np.ndarray):
    """Pair differences x_i - x_j and their squared norms for x of shape
    (n, 3) or (n, T, 3).

    One configuration takes one product with the difference matrix, which
    costs less per call than two gathers and a subtraction; a batch keeps
    the gather, which is cheaper for many bodies (28 bodies at 64 times).
    Both give the same bits.
    """
    if x.ndim == 2:
        d = np.dot(difference, x)
        return d, np.dot(d * d, _ONES3)
    d = x.take(i_idx, axis=0) - x.take(j_idx, axis=0)
    return d, (d * d) @ _ONES3


class PairTable:
    """Everything about the pairs of one (potential, masses) that does not
    depend on positions.  Build through :func:`pair_table`, which caches.

    Methods take positions of shape (n, 3) or (n, T, 3); ``times`` is a
    scalar or one-element array (the time of every configuration) or a
    (T,) array, used only to report a collision.
    """

    def __init__(self, spec: PotentialSpec, masses: np.ndarray):
        self.alpha = spec.alpha
        self.softening = spec.softening
        self.i_idx, self.j_idx, self.difference = _pair_index(masses.size)
        self.coupling = np.array([spec.pair_coupling(masses[i], masses[j])
                                  for i, j in zip(self.i_idx, self.j_idx)])
        # F_i = -dV/dx_i = -c * alpha * r**(alpha-2) * (x_i - x_j) per pair
        self.force_coef = (-spec.alpha) * self.coupling
        # a C-order copy: BLAS sums products with a transposed view in
        # another order, which would change the forces' last bits
        self.incidence = np.ascontiguousarray(self.difference.T)
        # masses repeated along the coordinates of one configuration,
        # which a division reads without broadcasting
        self.mass_rows = np.repeat(masses[:, None], 3, axis=1)
        for a in (self.coupling, self.force_coef, self.incidence,
                  self.mass_rows):
            a.setflags(write=False)

    def distances(self, x: np.ndarray, times, context: str,
                  check: bool = True):
        """Pair differences d and (softened) distances r.

        Raises CollisionError when any true separation drops below
        :data:`COLLISION_THRESHOLD`, read at each call, unless ``check`` is
        false; softening applies only after that test.
        """
        d, r2 = _separations(self.i_idx, self.j_idx, self.difference, x)
        r = np.sqrt(r2)
        # the reduction r.min() makes, without its Python layers
        if check and r.size and np.minimum.reduce(r, axis=None) \
                < COLLISION_THRESHOLD:
            raise self._collision(r, times, context)
        if self.softening > 0.0:
            r = np.sqrt(r2 + self.softening ** 2)
        return d, r

    def _collision(self, r: np.ndarray, times, context: str,
                   pairs: np.ndarray | None = None):
        """The CollisionError of the closest pair of true distances r, whose
        rows are the table's pairs or, when given, the table's pairs
        ``pairs``."""
        at = np.unravel_index(np.argmin(r), r.shape)   # (pair[, time])
        p = at[0] if pairs is None else pairs[at[0]]
        t = None
        if times is not None:
            # one time stands for every member of a batch
            times = np.ravel(times)
            t = float(times[at[1] if times.size > 1 else 0])
        return CollisionError((self.i_idx[p], self.j_idx[p]), t=t,
                              distance=r[at], context=context)

    def potential(self, r: np.ndarray):
        """sum_ij c_ij r_ij**alpha, per configuration."""
        return self.coupling @ (r ** self.alpha)

    def forces(self, d: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Per-body forces (n, 3) of one configuration's d and r."""
        pair_f = (self.force_coef * np.power(r, self.alpha - 2.0))[:, None] * d
        return np.dot(self.incidence, pair_f)

    def accelerator(self):
        """The integrator's right side for one configuration:
        ``accelerate(pos, t, out)`` writes F / m of the (n, 3) positions
        into the (n, 3) array ``out``, which may be a view.

        Its pair buffers are built here, once: the differences,
        their squares, r^2, r (then r^(alpha - 2) and the pair coefficients
        in place), the pair forces and the body forces.  Each call fills
        them with ``out=`` by the NumPy calls :meth:`distances` and
        :meth:`forces` make, the products through the arrays' bound
        ``dot`` methods, so ``out`` holds the bits of
        ``forces(...)[0] / masses[:, None]``.  The collision test is the
        one :meth:`distances` makes (context 'integration', time ``t``),
        read at the closest pair, which a NaN distance is, so that a NaN
        never raises; softening applies after it.  A call overwrites the
        buffers, so ``accelerate`` serves one caller at a time.
        """
        n_pairs = self.difference.shape[0]
        coef, mass = self.force_coef, self.mass_rows
        exponent = self.alpha - 2.0
        softening2 = self.softening ** 2 if self.softening > 0.0 else None
        d, d2, pair_f = (np.empty((n_pairs, 3)) for _ in range(3))
        r2, r = np.empty(n_pairs), np.empty(n_pairs)
        r_col, F = r[:, None], np.empty(mass.shape)
        differences, squared_norms = self.difference.dot, d2.dot
        body_sums, closest = self.incidence.dot, r.argmin

        def accelerate(x: np.ndarray, t, out: np.ndarray) -> None:
            differences(x, d)
            np.multiply(d, d, d2)
            squared_norms(_ONES3, r2)
            np.sqrt(r2, r)
            if n_pairs and r[closest()] < COLLISION_THRESHOLD:
                raise self._collision(r, t, "integration")
            if softening2 is not None:
                np.add(r2, softening2, r)
                np.sqrt(r, r)
            np.power(r, exponent, r)
            np.multiply(coef, r, r)
            np.multiply(r_col, d, pair_f)
            body_sums(pair_f, F)
            np.divide(F, mass, out)

        return accelerate

    def batch_evaluator(self, n_times: int, orbits=None):
        """Forces and potential of a batch: ``evaluate(x, times, context)``
        returns (F, V) of the (n, n_times, 3) positions ``x``.

        ``orbits`` groups the bodies as :func:`.body_orbits` does, each
        orbit led by its representative; by default every body is its own.
        The evaluator takes the pairs that touch a representative, in table
        order.  F holds the forces on the representatives, in their order,
        and V weights pair (i, j) by (|O_i| [i leads] + |O_j| [j leads]) / 2,
        each body's half share of its pairs counted once per member of its
        orbit.  Over a batch of grid positions whose orbits these are, V's
        sum is the full potential's.  With every body its own
        representative that is every pair at weight 1, and (F, V) are the
        bits :func:`forces` returns.

        Its buffers are built here, once: the differences d, one scratch
        array for the second gather, the squares and the pair forces, r^2
        (then r^alpha), r (then r^(alpha - 2) and the pair coefficients in
        place) and the forces F.  The gathers take ``mode="clip"``, since
        the default mode buffers its output; the indices are always in
        range.  The collision test is the one :meth:`distances` makes, and
        when some pairs are left out a collision is raised as an evaluator
        of every pair raises it, built then, so that its pair and time are
        the full path's; should that evaluator find no collision (a
        rounding edge), the error of the pairs taken is raised.  Softening
        applies after the test, and r^alpha is taken by the power
        operator, as :meth:`potential` takes it.  A call overwrites the
        buffers, F included, so ``evaluate`` serves one caller at a time
        and its F is valid until the next call; V is a new array.
        """
        i_idx, j_idx, coupling, coef, incidence = (
            self.i_idx, self.j_idx, self.coupling, self.force_coef,
            self.incidence)
        pairs = None
        if orbits is not None:
            size = np.zeros(incidence.shape[0])   # |O_i| at a representative
            for orbit in orbits:
                size[orbit[0]] = len(orbit)
            pairs = np.flatnonzero(size[i_idx] + size[j_idx])
            i_idx, j_idx = i_idx[pairs], j_idx[pairs]
            coupling = coupling[pairs] * (0.5 * (size[i_idx] + size[j_idx]))
            coef = coef[pairs]
            # C order, as the table's incidence is kept
            incidence = np.ascontiguousarray(
                incidence[np.ix_(np.flatnonzero(size), pairs)])
        n_pairs, n_bodies = i_idx.size, incidence.shape[0]
        every_pair = n_pairs == self.i_idx.size
        coef, alpha, exponent = coef[:, None], self.alpha, self.alpha - 2.0
        softening2 = self.softening ** 2 if self.softening > 0.0 else None
        d, scratch = (np.empty((n_pairs, n_times, 3)) for _ in range(2))
        r2, r = (np.empty((n_pairs, n_times)) for _ in range(2))
        F = np.empty((n_bodies, n_times, 3))
        r_col, pair_rows = r[..., None], scratch.reshape(n_pairs, 3 * n_times)
        body_rows = F.reshape(n_bodies, 3 * n_times)

        def evaluate(x: np.ndarray, times, context: str):
            np.take(x, i_idx, 0, d, "clip")
            np.take(x, j_idx, 0, scratch, "clip")
            np.subtract(d, scratch, d)
            np.multiply(d, d, scratch)
            np.matmul(scratch, _ONES3, r2)
            np.sqrt(r2, r)
            if r.size and np.minimum.reduce(r, axis=None) \
                    < COLLISION_THRESHOLD:
                error = self._collision(r, times, context, pairs)
                if not every_pair:
                    self.batch_evaluator(n_times)(x, times, context)
                raise error
            if softening2 is not None:
                np.add(r2, softening2, r)
                np.sqrt(r, r)
            np.copyto(r2, r)
            operator.ipow(r2, alpha)
            V = coupling @ r2
            np.power(r, exponent, r)
            np.multiply(coef, r, r)
            np.multiply(r_col, d, scratch)
            np.dot(incidence, pair_rows, body_rows)
            return F, V

        return evaluate


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
                     context: str = "") -> np.ndarray | float:
    """Total pair potential; scalar for a single configuration, else (T,)."""
    x = _positions(positions)
    table = pair_table(spec, masses)
    _, r = table.distances(x, times, context)
    v = table.potential(r)
    return float(v) if x.ndim == 2 else v


def forces(spec: PotentialSpec, masses, positions, times=None,
           context: str = "") -> tuple[np.ndarray, np.ndarray | float]:
    """Pairwise forces and total potential energy.

    Returns (F, V) with F matching the shape of ``positions``.  Newton's
    third law holds to machine precision because each pair contributes the
    same term with opposite signs.  A batch goes through a
    :meth:`PairTable.batch_evaluator` of its own, so F is a new array.
    """
    x = _positions(positions)
    table = pair_table(spec, masses)
    if x.ndim == 3:
        return table.batch_evaluator(x.shape[1])(x, times, context)
    d, r = table.distances(x, times, context)
    v = table.potential(r)
    F = table.forces(d, r) if d.size else np.zeros_like(x)   # no pairs: n < 2
    return F, float(v)


def min_pair_distance(positions) -> float:
    """Smallest body separation over a configuration or batch."""
    x = _positions(positions)
    _, r2 = _separations(*_pair_index(x.shape[0]), x)
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
    an (n, T, 3) batch, with velocities of the same shape.

    Both are copied to C order first: einsum's summation order follows the
    strides, so a strided view would otherwise change the last bits.  It
    never raises a collision: coincident bodies give a non-finite energy.
    """
    x = np.ascontiguousarray(_positions(positions))
    v = np.ascontiguousarray(velocities, dtype=float)
    m = np.asarray(masses, dtype=float)
    if x.shape != v.shape:
        raise ValueError("observables expects matching positions/velocities")
    mw = m.reshape(m.shape + (1,) * (x.ndim - 1))
    kin = 0.5 * (m @ np.einsum("i...c,i...c->i...", v, v))
    table = pair_table(spec, m)
    pot = table.potential(table.distances(x, None, "", check=False)[1])
    if x.ndim == 2:
        kin, pot = float(kin), float(pot)
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
    pos, vel = sample_positions(model, params, t, deriv=(0, 1))
    return t, observables(model.potential, model.masses, pos, vel)


@dataclass(frozen=True)
class ResidualReport:
    """How far sampled trajectories are from solving m x'' = F."""

    max_violation: float
    spectrum: np.ndarray       # per-harmonic amplitude of the violation
    worst_body: int
    worst_time: float


def residual(model: OrbitModel, params: ReducedParams,
             grid: QuadratureGrid | None = None) -> ResidualReport:
    """Equations-of-motion defect max_{i,t} |m_i x_i''(t) - F_i(t)|.

    The spectrum entry at harmonic q is the largest one-sided Fourier
    amplitude of the defect over bodies and coordinates, which separates
    truncation-tail error (q > k_max) from genuine non-convergence.
    """
    if grid is None:
        grid = QuadratureGrid.for_kmax(model.k_max)
    grid.require(model.k_max)
    t = grid.nodes
    pos, acc = sample_positions(model, params, t, deriv=(0, 2))
    F, _ = forces(model.potential, model.masses, pos, times=t,
                  context="residual")
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
