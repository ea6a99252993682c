"""Reference algebra the tests check the library against.

The library's runtime paths never call these: the sampler reads
``trig_table`` and ``contract`` directly, the gradient reads generator
columns instead of projecting coefficient tables, the action takes its
kinetic term in coefficient space, the descent's kernel evaluates pair
forces in buffers it reuses, on one body per symmetry orbit, and the
symmetry groups are built from explicit matrices.  The tests still use
them as oracles.
"""

import numpy as np

from actionorbits import OrthTransform, QuadratureGrid, sample_positions
from actionorbits.dynamics import COLLISION_THRESHOLD, forces
from actionorbits.fourier import contract, trig_table
from actionorbits.symmetry import _BASIS_AXIS


def evaluate(coeffs, t: np.ndarray, order: int) -> np.ndarray:
    """Derivative of order 0, 1 or 2 at times ``t`` of the series whose
    ``coeffs`` = (sin, cos) are indexed by harmonic: ``contract`` on the
    series' own ``trig_table``."""
    return contract(trig_table(t, coeffs[0].shape[0] - 1), coeffs, order)


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
    ``PairTable.distances``, then the potential and the pair forces summed
    onto bodies."""
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


def full_pair_action(kernel, values):
    """(S, gradient) at ``values`` from the kernel's sampled positions and
    basis, with the forces on every body from every pair: the arithmetic
    of a kernel whose bodies are each their own representative."""
    model, grid = kernel.model, kernel.grid
    F, V = forces(model.potential, model.masses, kernel.positions(values),
                  times=grid.nodes, context="full pair oracle")
    kinetic_grad = kernel.kinetic_stiffness * values
    grad = kinetic_grad + grid.weight * np.einsum("itc,sitc->s", F,
                                                  kernel.basis_pos)
    S = 0.5 * float(values @ kinetic_grad) - float(grid.integrate(V))
    return S, grad
