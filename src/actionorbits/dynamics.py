"""Forces, energies, conserved quantities, and the equations-of-motion residual.

All pair interactions follow the homogeneous law in :mod:`.potential` and
go through one :class:`PairTable` per (potential, masses): the index pairs
i < j, the pair-by-body difference matrix, the signed couplings c_ij (and
-alpha * c_ij for the force), and the body-by-pair incidence matrix that
sums pair forces onto bodies.  The table is built once and cached.  It
writes the pair law once: from the pair differences d it takes the
squared norms r^2, the distances r, the collision test, the softening,
the potential, r^(alpha - 2) and the pair coefficients, and the pair
forces, in buffers each evaluator builds once.  Its two evaluators keep
only what differs between them: how they form the differences and how
they sum the pair forces onto bodies.  :meth:`PairTable.accelerator`
takes one (n, 3) configuration, with one difference-matrix product for
the differences: it is the integrators' right side, which the DOP853
drive calls once per stage on the views of its stage plan.
:meth:`PairTable.batch_evaluator` takes an (n, T, 3) batch, with two
gathers: the descent's kernel builds one for the pairs of one (body,
node) of each space-time symmetry orbit, and :func:`forces` and
:func:`potential_energy` build one on every call, for every pair, with a
single configuration taken as the batch ``x[:, None]`` of one.  On finite
positions the two evaluators round alike, so the accelerator writes the
bits of ``forces(...)[0] / masses[:, None]`` (an infinite coordinate is
the exception, see :meth:`PairTable.accelerator`).  The law and the
evaluators skip the factors that are exact: force coefficients that are
all -1 (equal unit masses at G = 1 and alpha = -1) and masses that are
all 1, so no output changes.  Positions reach the table in the shape
they come in, with no batching reshape, and forces and energies are
evaluated vectorized over the batch axis with a deterministic reduction
order.
:func:`observables` takes the same two shapes: for a batch every field
gains a leading T axis, so a time series is one call, not a loop over
samples; it and :func:`min_pair_distance` read distances through
:func:`_separations`, with no collision test.
:func:`residual` samples on the grid the action is evaluated on,
``QuadratureGrid.for_kmax(k_max)``, unless it is given another: a run's
final residual, the one a record stores and the one ``verify_record``
recomputes are then the same number, and another grid serves only a
recheck independent of the descent's.
"""

from __future__ import annotations

import functools
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


def _separations(i_idx: np.ndarray, j_idx: np.ndarray, x: np.ndarray):
    """Pair differences x_i - x_j and their squared norms for x of shape
    (n, 3) or (n, T, 3), by two gathers, with no collision test."""
    d = x.take(i_idx, axis=0) - x.take(j_idx, axis=0)
    return d, (d * d) @ _ONES3


class PairTable:
    """Everything about the pairs of one (potential, masses) that does not
    depend on positions.  Build through :func:`pair_table`, which caches.

    Its pair law (:meth:`_law`) is the only pair arithmetic.  On pair
    differences d it sums the squares in coordinate order,
    ((dx^2 + dy^2) + dz^2), through the bound ``dot`` of a buffer's rows
    of three, so one configuration and a batch round alike.  It tests the
    closest true distance r against :data:`COLLISION_THRESHOLD`, read at
    each call; a NaN distance is the closest, so a NaN never raises.  The
    softening applies after the test.  Then come the potential, when the
    evaluator asks for one, and the pair forces c_f r^(alpha - 2) d with
    the force coefficients c_f = -alpha c; when every one is -1 the law
    skips their product and the evaluators' body sums carry the sign.
    :meth:`_collision` builds every CollisionError.  The law runs in two
    evaluators: :meth:`accelerator` for one (n, 3) configuration and
    :meth:`batch_evaluator` for an (n, T, 3) batch.
    ``times`` is a scalar or one-element array (the time of every
    configuration) or a (T,) array, used only to report a collision.
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
        # exact unit factors, which the evaluators skip (module docstring)
        self.unit_coef = bool(np.all(self.force_coef == -1.0))
        self.unit_mass = bool(np.all(masses == 1.0))
        self.signed_incidence = -self.incidence if self.unit_coef \
            else self.incidence
        for a in (self.coupling, self.force_coef, self.incidence,
                  self.mass_rows, self.signed_incidence):
            a.setflags(write=False)

    def _collision(self, r: np.ndarray, times, context: str, ends=None,
                   columns=None):
        """The CollisionError of the closest pair of true distances r.

        By default r's rows are the table's pairs and its columns, if any,
        the times.  ``ends``, two arrays of r's shape, name instead the
        bodies of each distance, and ``columns`` the index into ``times``
        of each column of r.
        """
        at = np.unravel_index(np.argmin(r), r.shape)   # (row[, column])
        pair = (self.i_idx[at[0]], self.j_idx[at[0]]) if ends is None \
            else sorted(end[at] for end in ends)
        t = None
        if times is not None:
            # one time stands for every member of a batch
            times = np.ravel(times)
            t = times[(at[1] if columns is None else columns[at[1]])
                      if times.size > 1 else 0]
        return CollisionError(pair, t=t, distance=r[at], context=context)

    def _law(self, d: np.ndarray, pair_f: np.ndarray, coef: np.ndarray,
             coupling=None, ends=None, columns=None):
        """The pair law on the pair differences ``d`` (..., 3): builds
        its buffers r^2 and r once and returns ``law(times, context)``.

        A call reads ``d``, which the caller has filled, and writes the
        pair forces into ``pair_f`` (d's shape; it holds the squares
        first), with the pair coefficients ``coef`` (broadcast against
        r), and returns the potential ``coupling @ r^alpha`` over r's
        rows, or None with no ``coupling``.  ``ends`` and ``columns`` go
        to :meth:`_collision`.
        """
        alpha, exponent = self.alpha, self.alpha - 2.0
        softening2 = self.softening ** 2 if self.softening > 0.0 else None
        unit_coef, has_pairs = self.unit_coef, d.size > 0
        r2, r = np.empty(d.shape[:-1]), np.empty(d.shape[:-1])
        r_col, rows = r[..., None], r.reshape(-1)
        coef = coef.reshape(coef.shape + (1,) * (r.ndim - coef.ndim))
        # bound methods, and argmin for the collision test: cheaper per
        # call than np.matmul and np.minimum.reduce, at one call per
        # DOP853 stage in the accelerator
        squared_norms, norms = pair_f.reshape(-1, 3).dot, r2.reshape(-1)
        closest = r.argmin
        # coupling weighs r's rows, or, with one entry per distance, each
        # distance as a row of its own
        powers = (-1, 1) if coupling is not None and coupling.size > len(r) \
            else r.shape

        def law(times, context: str):
            np.multiply(d, d, pair_f)
            squared_norms(_ONES3, norms)
            np.sqrt(r2, r)
            if has_pairs and rows[closest()] < COLLISION_THRESHOLD:
                raise self._collision(r, times, context, ends, columns)
            if softening2 is not None:
                np.add(r2, softening2, r)
                np.sqrt(r, r)
            V = None if coupling is None \
                else coupling @ (r ** alpha).reshape(powers)
            np.power(r, exponent, r)
            if not unit_coef:
                np.multiply(coef, r, r)
            np.multiply(r_col, d, pair_f)
            return V

        return law

    def accelerator(self):
        """The integrator's right side for one configuration:
        ``accelerate(pos, t, out)`` writes F / m of the (n, 3) positions
        into the (n, 3) array ``out``, which may be a view.

        The pair differences are one product with the table's difference
        matrix, through the bound ``dot`` of the arrays built here, as are
        the body sums.  A row of that matrix adds one +x_i and one -x_j to
        exact zeros, so a finite x_i - x_j rounds as the batch evaluator's
        gathers round it, and ``out`` holds the bits of
        ``forces(...)[0] / masses[:, None]``.  At an infinite coordinate
        the rows' zeros times it make that coordinate of every pair's
        difference a NaN, where the gathers keep other bodies' pairs
        finite.  With every mass 1 and a C-contiguous ``out``, as the
        stage plan's rows are, the body sums go straight into ``out``,
        with the same bits, since the division they skip is exact.  A
        collision is raised with context 'integration' at time ``t``.  A
        call overwrites the buffers, so ``accelerate`` serves one caller at
        a time.
        """
        mass, unit_mass = self.mass_rows, self.unit_mass
        d, pair_f = (np.empty(self.difference.shape[:1] + (3,))
                     for _ in range(2))
        law = self._law(d, pair_f, self.force_coef)
        F = np.empty(mass.shape)
        differences, body_sums = self.difference.dot, self.signed_incidence.dot

        def accelerate(x: np.ndarray, t, out: np.ndarray) -> None:
            differences(x, d)
            law(t, "integration")
            # a product writes only into an aligned, writeable C array
            if unit_mass and out.flags.carray:
                body_sums(pair_f, out)
            else:
                body_sums(pair_f, F)
                np.divide(F, mass, out)

        return accelerate

    def batch_evaluator(self, n_times: int, representatives=None):
        """Forces and potential of a batch: ``evaluate(x, times, context)``
        returns (F, V) of the (n, n_times, 3) positions ``x``.

        By default it takes every pair at every time, by two gathers: F
        holds the forces on every body (n, n_times, 3) and V the potential
        at every time, the bits :func:`forces` returns.
        ``representatives``, rows (body, time, size) as
        :func:`.space_time_orbits` gives them with each time an index into
        the batch, makes it take each representative's pairs with every
        other body at its time: F holds the forces on the representatives
        (R, 3), and V (one entry) the sum of each representative's half
        share of its pair potentials times its size.  Over the grid
        positions whose orbits these represent, that is the full
        potential's grid sum.

        The gathers take ``mode="clip"``, since the default mode buffers
        its output; the indices are always in range.  With every force
        coefficient -1 the body sums carry the sign: the negated incidence
        for every pair, -1 partner weights for representatives.  V's
        r^alpha is a new array from the power operator, whose scalar fast
        path (the reciprocal at alpha = -1) rounds unlike ``np.power``.  A
        call overwrites the buffers, F included, so ``evaluate`` serves one
        caller at a time and its F is valid until the next call; V is a
        new array.
        """
        if representatives is None:
            i_idx, j_idx = self.i_idx, self.j_idx
            incidence = self.signed_incidence
            d, scratch = (np.empty((i_idx.size, n_times, 3)) for _ in range(2))
            law = self._law(d, scratch, self.force_coef, self.coupling)
            F = np.empty((incidence.shape[0], n_times, 3))
            pair_rows = scratch.reshape(i_idx.size, 3 * n_times)
            body_rows = F.reshape(F.shape[0], 3 * n_times)

            def differences(x):
                np.take(x, i_idx, 0, d, "clip")
                np.take(x, j_idx, 0, scratch, "clip")
                np.subtract(d, scratch, d)

            def body_forces():
                np.dot(incidence, pair_rows, body_rows)
        else:
            bodies, columns, sizes = np.asarray(representatives).T
            n = self.incidence.shape[0]
            # the other bodies of each representative, partner-major (the
            # q-th other body of every representative in one row), their
            # pairs, and the rows of x.reshape(-1, 3) that they read
            others = np.arange(n - 1)[:, None]
            others = others + (others >= bodies)
            pair = np.zeros((n, n), dtype=int)
            pair[self.i_idx, self.j_idx] = pair[self.j_idx, self.i_idx] = \
                np.arange(self.i_idx.size)
            pair = pair[bodies, others]
            lead_rows = bodies * n_times + columns
            other_rows = others * n_times + columns
            lead = np.empty((bodies.size, 3))
            d, scratch = (np.empty(pair.shape + (3,)) for _ in range(2))
            law = self._law(
                d, scratch, self.force_coef[pair],
                coupling=(self.coupling[pair] * (0.5 * sizes)).reshape(-1),
                ends=(np.broadcast_to(bodies, others.shape), others),
                columns=columns)
            F = np.empty((bodies.size, 3))
            # the body sums' weights: the coefficients' sign, when it is
            # all they hold
            partner_signs = np.full(n - 1, -1.0 if self.unit_coef else 1.0)
            pair_rows = scratch.reshape(n - 1, -1)
            body_rows = F.reshape(-1)

            def differences(x):
                rows = x.reshape(-1, 3)
                np.take(rows, lead_rows, 0, lead, "clip")
                np.take(rows, other_rows, 0, d, "clip")
                np.subtract(lead, d, d)

            def body_forces():
                np.dot(partner_signs, pair_rows, body_rows)

        def evaluate(x: np.ndarray, times, context: str):
            differences(x)
            V = law(times, context)
            body_forces()
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


def _evaluate(spec: PotentialSpec, masses, positions, times, context: str):
    """(F, V) of an (n, 3) configuration or an (n, T, 3) batch through a
    :meth:`PairTable.batch_evaluator` of its own, one configuration as the
    batch of one ``x[:, None]``."""
    x = _positions(positions)
    table = pair_table(spec, masses)
    if x.ndim == 3:
        return table.batch_evaluator(x.shape[1])(x, times, context)
    F, V = table.batch_evaluator(1)(x[:, None], times, context)
    return F[:, 0], float(V[0])


def potential_energy(spec: PotentialSpec, masses, positions, times=None,
                     context: str = "") -> np.ndarray | float:
    """Total pair potential; scalar for a single configuration, else (T,)."""
    return _evaluate(spec, masses, positions, times, context)[1]


def forces(spec: PotentialSpec, masses, positions, times=None,
           context: str = "") -> tuple[np.ndarray, np.ndarray | float]:
    """Pairwise forces and total potential energy.

    Returns (F, V) with F matching the shape of ``positions``.  Newton's
    third law holds to machine precision because each pair contributes the
    same term with opposite signs.  Every call goes through a
    :meth:`PairTable.batch_evaluator` of its own, so F is a new array.
    """
    return _evaluate(spec, masses, positions, times, context)


def min_pair_distance(positions) -> float:
    """Smallest body separation over a configuration or batch."""
    x = _positions(positions)
    i_idx, j_idx, _ = _pair_index(x.shape[0])
    _, r2 = _separations(i_idx, j_idx, x)
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


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """The sum over axis 0, row after row: unlike a BLAS product or
    ``sum``'s pairwise order, it adds every column of every shape alike."""
    return np.add.accumulate(a, axis=0)[-1] if len(a) else a.sum(axis=0)


def observables(spec: PotentialSpec, masses, positions, velocities) -> Observables:
    """E, J, P, I, Q and the center of mass of an (n, 3) configuration or
    an (n, T, 3) batch, with velocities of the same shape.

    Both are copied to C order first: einsum's summation order follows the
    strides, so a strided view would otherwise change the last bits.  Sums
    over bodies and pairs go row by row (:func:`_sum_rows`) and one
    configuration is the batch ``x[:, None]`` of one, so neither its batch
    nor the BLAS thread count moves a sample's bits.  It reads distances
    through :func:`_separations`, so it never raises a collision:
    coincident bodies give a non-finite energy.
    """
    x = np.ascontiguousarray(_positions(positions))
    v = np.ascontiguousarray(velocities, dtype=float)
    m = np.asarray(masses, dtype=float)
    if x.shape != v.shape:
        raise ValueError("observables expects matching positions/velocities")
    if x.ndim == 2:
        batch = vars(observables(spec, m, x[:, None], v[:, None]))
        return Observables(**{name: value[0] if value.ndim > 1 else
                              float(value[0]) for name, value in batch.items()})
    mw = m[:, None, None]
    kin = 0.5 * _sum_rows(m[:, None] * np.einsum("itc,itc->it", v, v))
    table = pair_table(spec, m)
    _, r2 = _separations(table.i_idx, table.j_idx, x)
    r = np.sqrt(r2 + table.softening ** 2) if table.softening > 0.0 \
        else np.sqrt(r2)
    pot = _sum_rows(table.coupling[:, None] * r ** table.alpha)
    xxt = _sum_rows(mw[..., None] * x[..., :, None] * x[..., None, :])
    r2 = _sum_rows(m[:, None] * np.einsum("itc,itc->it", x, x))[:, None, None]
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
