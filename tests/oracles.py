"""Reference algebra the tests check the library against.

The library's runtime paths never call these: the sampler reads one
``trig_table`` at the plain times through ``shift``-ed coefficients
(the oracles here take a table per column, at (t + phase) + offset, or
evaluate in 40-digit arithmetic), the gradient reads generator
columns instead of projecting coefficient tables, the action takes its
kinetic term in coefficient space, the pair evaluators fill buffers they
reuse, the descent's kernel evaluates pair forces at one (body, node)
pair per symmetry orbit and projects them with one matrix-vector product
instead of an ``einsum`` per orbit, and the symmetry groups are built from
explicit matrices.  The tests
still use them as oracles.
"""

import numpy as np
from mpmath import mp, mpf

from actionorbits import OrthTransform, QuadratureGrid, sample_positions
from actionorbits.dynamics import COLLISION_THRESHOLD, forces
from actionorbits.fourier import contract, trig_table
from actionorbits.symmetry import _BASIS_AXIS, channel_multiplicity


def evaluate(coeffs, t: np.ndarray, order: int) -> np.ndarray:
    """Derivative of order 0, 1 or 2 at times ``t`` of the series whose
    ``coeffs`` = (sin, cos) are indexed by harmonic: ``contract`` on the
    series' own ``trig_table``."""
    return contract(trig_table(t, coeffs[0].shape[0] - 1), coeffs, order)


def per_column_sampler(model, tables, t, deriv):
    """The sampler as it was before shifts moved into the coefficients:
    one ``evaluate`` (one trig table) per column of every (generator,
    phase), at the angles (t + phase) + offset."""
    out = np.empty((model.n_bodies, t.size) + tables[0].shape[3:] + (3,))
    sampled = {}
    for i, b in enumerate(model.bindings):
        key = (b.generator, b.phase)
        if key not in sampled:
            table = tables[b.generator]
            sampled[key] = np.stack(
                [evaluate(table[ch], (t + b.phase) + off, deriv)
                 for ch, off in model.generators[b.generator].columns],
                axis=-1)
        out[i] = sampled[key] @ b.transform.matrix.T
    return out


def exact_sampler(model, tables, t, orders):
    """The sampler in 40-digit arithmetic, from unbatched expanded
    ``tables``: each (generator, phase)'s columns are its series at the
    exact sum t + phase + offset of the floats, and each order's result is
    a pair (hi, lo) of (n, T, 3) float arrays whose sum holds it to about
    32 digits.  A body's signed permutation moves the pair exactly."""
    out = [(np.empty((model.n_bodies, t.size, 3)),
            np.empty((model.n_bodies, t.size, 3))) for _ in orders]
    sampled = {}
    with mp.workdps(40):
        for i, b in enumerate(model.bindings):
            key = (b.generator, b.phase)
            if key not in sampled:
                sampled[key] = [(np.empty((t.size, 3)), np.empty((t.size, 3)))
                                for _ in orders]
                gen = model.generators[b.generator]
                for j, (ch, off) in enumerate(gen.columns):
                    series = _exact_series(tables[b.generator][ch],
                                           mpf(b.phase) + mpf(off), t)
                    for (hi, lo), order in zip(sampled[key], orders):
                        for ti, value in enumerate(series[order]):
                            hi[ti, j] = float(value)
                            lo[ti, j] = float(value - hi[ti, j])
            turn = b.transform.matrix.T
            for (hi, lo), (body_hi, body_lo) in zip(sampled[key], out):
                body_hi[i], body_lo[i] = hi @ turn, lo @ turn
    return out


def _exact_series(coeffs, shift, t):
    """Orders 0, 1 and 2 of one series at the times ``t`` + ``shift``, in
    the working precision of mpmath; sin(k theta) and cos(k theta) come
    from theta's by the angle-addition recurrence."""
    sin, cos = coeffs
    terms = {k: (mpf(float(a)), mpf(float(b)))
             for k, (a, b) in enumerate(zip(sin, cos)) if k and (a or b)}
    out = {0: [], 1: [], 2: []}
    for time in t:
        c1, s1 = mp.cos_sin(mpf(float(time)) + shift)
        c, s = mpf(1), mpf(0)
        x, v, acc = mpf(float(cos[0])), mpf(0), mpf(0)
        for k in range(1, max(terms, default=0) + 1):
            c, s = c * c1 - s * s1, s * c1 + c * s1
            if k in terms:
                a, b = terms[k]
                x += a * s + b * c
                v += k * (a * c - b * s)
                acc -= k * k * (a * s + b * c)
        out[0].append(x)
        out[1].append(v)
        out[2].append(acc)
    return out


def direct_full_gradient(model, params) -> list:
    """``action.full_gradient`` with nothing shared with the sampler's
    shifts: positions from :func:`per_column_sampler`, and each column's
    potential projection onto sin and cos of k (t + phase + offset) taken
    directly, one binding and column at a time."""
    grid = QuadratureGrid.for_kmax(model.k_max)
    t, k_max = grid.nodes, model.k_max
    ks = np.arange(k_max + 1, dtype=float)
    tables = params.layout.expand(params.values)
    F, _ = forces(model.potential, model.masses,
                  per_column_sampler(model, tables, t, 0), times=t,
                  context="direct full gradient")
    out = []
    for g_idx, gen in enumerate(model.generators):
        table = np.zeros((gen.n_channels, 2, k_max + 1))
        for ch in range(gen.n_channels):
            mult = channel_multiplicity(model, g_idx, ch)
            table[ch] += np.pi * mult * ks * ks * tables[g_idx][ch]
        for i, b in enumerate(model.bindings):
            if b.generator != g_idx:
                continue
            rotated = F[i] @ b.transform.matrix
            for c, (ch, off) in enumerate(gen.columns):
                ang = np.multiply.outer(ks, t + b.phase + off)
                table[ch, 0] += grid.weight * (np.sin(ang) @ rotated[:, c])
                table[ch, 1] += grid.weight * (np.cos(ang) @ rotated[:, c])
        table[:, 0, 0] = 0.0
        out.append(table)
    return out


def relative_error(got, exact) -> float:
    """Largest |got - exact| over the largest |exact|, for an ``exact``
    (hi, lo) pair from :func:`exact_sampler`."""
    hi, lo = exact
    return float(np.abs((got - hi) - lo).max() / np.abs(hi).max())


def project(layout, tables) -> np.ndarray:
    """Chain-rule transpose of ``layout.expand``: full-coefficient gradient
    tables -> reduced gradient vector."""
    out = np.zeros(layout.n_slots)
    for i, s in enumerate(layout.slots):
        out[i] += tables[s.gen][s.channel, _BASIS_AXIS[s.basis], s.k]
    for c in layout.couplings:
        out[c.slot] += c.sign * tables[c.gen][c.channel, _BASIS_AXIS[c.basis], c.k]
    return out


def compose(a: OrthTransform, b: OrthTransform) -> OrthTransform:
    """The transform that applies ``b``, then ``a``."""
    return OrthTransform(a.matrix @ b.matrix)


def inverse(a: OrthTransform) -> OrthTransform:
    """The inverse of a signed permutation: its transpose."""
    return OrthTransform(a.matrix.T)


def velocities(kernel, values) -> np.ndarray:
    """Sampled velocities (n, T, 3) of ``values`` through the kernel's
    velocity basis."""
    return np.tensordot(values, kernel.basis_vel, axes=1)


def accelerations(kernel, values) -> np.ndarray:
    """Sampled accelerations (n, T, 3) through the kernel's basis."""
    return np.tensordot(values, kernel.basis_acc, axes=1)


def kinetic_quadrature(model, params) -> float:
    """int K dt from sampled velocities on the action's grid."""
    grid = QuadratureGrid.for_kmax(model.k_max)
    vel = sample_positions(model, params, grid.nodes, deriv=1)
    k_samples = 0.5 * np.einsum("i,itc,itc->t", model.masses, vel, vel)
    return float(grid.integrate(k_samples))


def pair_forces(table, x, times, context=""):
    """(F, V) of an (n, T, 3) batch by allocating NumPy expressions: two
    gathers, the squared norms, the collision test of
    ``PairTable.batch_evaluator``, then the potential and the pair forces
    summed onto bodies."""
    d = x.take(table.i_idx, axis=0) - x.take(table.j_idx, axis=0)
    r2 = (d * d) @ np.ones(3)
    r = np.sqrt(r2)
    if r.size and r.min() < COLLISION_THRESHOLD:
        raise table._collision(r, times, context)
    if table.softening > 0.0:
        r = np.sqrt(r2 + table.softening ** 2)
    V = table.coupling @ (r ** table.alpha)
    pair_f = (table.force_coef[:, None]
              * np.power(r, table.alpha - 2.0))[..., None] * d
    F = np.dot(table.incidence, pair_f.reshape(pair_f.shape[0], -1))
    return F.reshape(x.shape), V


def configuration_forces(table, x, t=None, context="integration"):
    """Forces (n, 3) on one (n, 3) configuration by allocating NumPy
    expressions in ``PairTable.accelerator``'s arithmetic: one product
    with the difference matrix for the pair differences, the squared
    norms in coordinate order, its collision test, then the pair forces
    summed onto bodies by the incidence product."""
    d = np.dot(table.difference, x)
    r2 = np.dot(d * d, np.ones(3))
    r = np.sqrt(r2)
    if r.size and r.min() < COLLISION_THRESHOLD:
        raise table._collision(r, t, context)
    if table.softening > 0.0:
        r = np.sqrt(r2 + table.softening ** 2)
    pair_f = (table.force_coef * np.power(r, table.alpha - 2.0))[:, None] * d
    return np.dot(table.incidence, pair_f)


def einsum_projection(kernel, F) -> np.ndarray:
    """Quadrature of F . (dx/dc) over every body and node for every slot,
    from the representatives' forces ``F``: each representative's
    contraction with its own row of ``basis_pos``, counted once per member
    of its orbit."""
    out = np.zeros(kernel.layout.n_slots)
    orbits = kernel.orbits
    if F.ndim == 3:   # every pair its own orbit: the forces on every body
        F = F[orbits.bodies, orbits.nodes]
    for F_r, b, j, size in zip(F, orbits.bodies, orbits.nodes, orbits.sizes):
        out += size * np.einsum("c,sc->s", F_r, kernel.basis_pos[:, b, j])
    return kernel.grid.weight * out


def full_pair_action(kernel, values):
    """(S, gradient) at ``values`` from the kernel's full-grid positions and
    basis, with the forces on every body from every pair: the arithmetic
    of a kernel whose pairs are each their own orbit, down to its one
    matrix-vector product of the flattened basis and forces."""
    model, grid = kernel.model, kernel.grid
    F, V = forces(model.potential, model.masses, kernel.full_positions(values),
                  times=grid.nodes, context="full pair oracle")
    kinetic_grad = kernel.kinetic_stiffness * values
    rows = kernel.basis_pos.reshape(kernel.layout.n_slots, -1)
    grad = kinetic_grad + grid.weight * np.dot(rows, F.reshape(-1))
    S = 0.5 * float(values @ kinetic_grad) - float(grid.integrate(V))
    return S, grad
