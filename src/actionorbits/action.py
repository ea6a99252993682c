"""Action functional and its gradient over reduced Fourier coefficients.

With the period fixed at 2*pi, the action of a candidate trajectory is

    S = int_0^{2pi} (K - V) dt,   K = sum_i (1/2) m_i |x_i'(t)|^2,

with the potential integral taken by uniform periodic quadrature on the
one grid the truncation fixes, ``QuadratureGrid.for_kmax(model.k_max)``
(4 k_max + 4 nodes).  No entry point here takes another grid, so the
descent, its final residual and ``verify_record``'s recomputation of it
read the same nodes.  Because every body coordinate is linear in the
reduced coefficients, and distinct coefficients of one coordinate are
orthogonal over the period, the kinetic part is diagonal and exact:

    int K dt = (1/2) c . (pi * k^2 * m_eff(c) * c),
    dS/dc = pi * k^2 * m_eff(c) * c  -  int (dV/dx) . (dx/dc) dt,

where m_eff is the slot's effective kinetic mass (mass-weighted count of
body coordinates the slot feeds; see :func:`..symmetry.compute_kinetic_mass`).
The kinetic integral therefore needs no sampled velocities; it equals their
quadrature on the grid, which is exact for the truncation.  The
orthogonality factor pi is kept explicit rather than folded into step
sizes, and the potential term is projected on the grid.  Zeros of this
gradient are exactly the Fourier-projected equations of motion.

The gradient's :class:`EvalKernel`, which the descent iterates, takes the
potential term from one body per orbit of the model's binding symmetries
(:func:`.body_orbits`): a body's grid sum of F . dx/dc is its
representative's, so the pairs that touch a representative are all the
kernel evaluates (27 of 378 at cubic m = 7).  :func:`action`,
:func:`full_gradient` and the residual still evaluate every pair, so they
check the reduced evaluation independently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import forces, pair_table, potential_energy
from .quadrature import QuadratureGrid
from .symmetry import (OrbitModel, ParamLayout, ReducedParams, body_orbits,
                       channel_multiplicity, sample_positions, sample_tables)


def _kinetic_stiffness(layout: ParamLayout) -> np.ndarray:
    """pi * k^2 * m_eff per slot: the kinetic gradient is this times c."""
    k = layout.slot_k.astype(float)
    return math.pi * k * k * layout.kinetic_mass


class EvalKernel:
    """The descent's linear map from reduced values to sampled positions,
    and the buffers it evaluates the action in.

    Sampling is linear in the reduced vector, so positions on the grid are
    one matrix product with the sampler's Jacobian, ``basis_pos`` (slot
    axis first): one :func:`.sample_tables` call on the expanded identity.
    The products write into one position buffer, and the forces into the
    buffers of one :meth:`.PairTable.batch_evaluator`, both built here, so
    an iteration allocates no array of the batch's size.

    The evaluator takes only the pairs that touch one representative body
    of each of the model's :func:`.body_orbits` on the grid, and returns
    the forces on the representatives: by symmetry, a body's grid sum of
    F . dx/dc is its representative's, so the gradient's potential term is
    w sum_r |O_r| sum_t F_r . dx_r/dc, and the evaluator weights the pair
    potentials to give the full potential's grid sum.  With every body its
    own representative (the criss-crosses) this is the full evaluation, bit
    for bit.  The action's kinetic term reads no samples; the velocity and
    acceleration bases are sampled on first use only.  Used by the descent
    loop and :func:`action_with_gradient`.
    """

    def __init__(self, model: OrbitModel, params: ReducedParams):
        self.model = model
        self.layout = params.layout
        self.grid = QuadratureGrid.for_kmax(model.k_max)
        self.kinetic_stiffness = _kinetic_stiffness(self.layout)
        self.basis_pos = self._basis(0)
        n_slots, *shape = self.basis_pos.shape
        self._positions = np.empty(shape)
        self._basis_rows = self.basis_pos.reshape(n_slots, self._positions.size)
        self._position_row = self._positions.reshape(-1)
        self.orbits = body_orbits(model, self.grid.n)
        self._evaluate = pair_table(model.potential, model.masses) \
            .batch_evaluator(self.grid.n, self.orbits)
        # dx_r/dc of each representative r, counted |O_r| times; with every
        # body its own representative that is basis_pos itself
        self._projection = self.basis_pos
        if len(self.orbits) < model.n_bodies:
            leads = [orbit[0] for orbit in self.orbits]
            sizes = np.array([len(orbit) for orbit in self.orbits], dtype=float)
            self._projection = self.basis_pos[:, leads] * sizes[:, None, None]

    def _basis(self, order: int) -> np.ndarray:
        units = self.layout.expand(np.eye(self.layout.n_slots))
        (sampled,) = sample_tables(self.model, units, self.grid.nodes, (order,))
        return np.ascontiguousarray(np.moveaxis(sampled, 2, 0))

    @functools.cached_property
    def basis_vel(self) -> np.ndarray:
        return self._basis(1)

    @functools.cached_property
    def basis_acc(self) -> np.ndarray:
        return self._basis(2)

    def positions(self, values: np.ndarray) -> np.ndarray:
        """Sampled positions (n, T, 3) of ``values``, in the kernel's one
        position buffer: the next call overwrites them."""
        np.dot(values, self._basis_rows, self._position_row)
        return self._positions

    def forces(self, pos: np.ndarray, context: str):
        """(F, V) of positions ``pos`` that :meth:`positions` sampled: F on
        the representatives (n_orbits, T, 3), in a buffer the next call
        overwrites, and V with the weights whose grid sum is the full
        potential's (see :meth:`.PairTable.batch_evaluator`)."""
        return self._evaluate(pos, self.grid.nodes, context)

    def project_forces(self, F: np.ndarray) -> np.ndarray:
        """Quadrature of F . (dx/dc) over every body for every slot, from
        the representatives' forces F."""
        return self.grid.weight * np.einsum("itc,sitc->s", F, self._projection)


@dataclass(frozen=True)
class ActionReport:
    """Action value split into its kinetic and potential integrals."""

    S: float
    kinetic: float
    potential: float
    gradient: np.ndarray | None = None

    @property
    def grad_norm(self) -> float | None:
        if self.gradient is None:
            return None
        return float(np.max(np.abs(self.gradient)))


def action(model: OrbitModel, params: ReducedParams) -> ActionReport:
    """Evaluate S = int (K - V) dt on the grid."""
    grid = QuadratureGrid.for_kmax(model.k_max)
    pos = sample_positions(model, params, grid.nodes)
    v_samples = potential_energy(model.potential, model.masses, pos,
                                 times=grid.nodes, context="action")
    v = params.values
    return _report(grid, v, _kinetic_stiffness(params.layout) * v, v_samples)


def _report(grid, v, kinetic_grad, v_samples, gradient=None) -> ActionReport:
    """S from the values ``v``, their kinetic gradient and the potential V
    on the grid, as returned by :func:`.potential_energy` or
    :func:`.forces`."""
    kin = 0.5 * float(v @ kinetic_grad)
    pot = float(grid.integrate(v_samples))
    return ActionReport(S=kin - pot, kinetic=kin, potential=pot,
                        gradient=gradient)


def action_with_gradient(model: OrbitModel, params: ReducedParams,
                         kernel: EvalKernel | None = None) -> ActionReport:
    """Action plus its reduced gradient in one force evaluation.

    A ``kernel`` must have been built for this model and layout: its
    bases, grid and body orbits are theirs.
    """
    if kernel is None:
        kernel = EvalKernel(model, params)
    elif kernel.model != model or kernel.layout != params.layout:
        raise ValueError("the kernel was built for another model or layout")
    v = params.values
    return _with_gradient(kernel, v, kernel.positions(v), "gradient")


def _with_gradient(kernel: EvalKernel, v: np.ndarray, pos: np.ndarray,
                   context: str) -> ActionReport:
    """Action and reduced gradient at values ``v`` whose sampled positions
    ``pos`` the caller already holds; the descent loop iterates this."""
    F, V = kernel.forces(pos, context)
    kinetic_grad = kernel.kinetic_stiffness * v
    # dS/dc = pi k^2 m_eff c + int F . dx/dc dt  (the potential term carries
    # +F because F = -dV/dx).
    grad = kinetic_grad + kernel.project_forces(F)
    return _report(kernel.grid, v, kinetic_grad, V, grad)


def gradient(model: OrbitModel, params: ReducedParams) -> np.ndarray:
    """Reduced gradient dS/dc (infinity-norm-ready 1-D array)."""
    return action_with_gradient(model, params).gradient


def fd_gradient_oracle(model: OrbitModel, params: ReducedParams,
                       h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the quadrature action, slot by slot.

    An independent check of the analytic gradient; h must be positive.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"finite-difference step must be positive, got {h}")
    base = np.asarray(params.values, dtype=float)
    out = np.empty_like(base)
    for s in range(base.size):
        bump = np.zeros_like(base)
        bump[s] = h
        s_plus = action(model, params.with_values(base + bump)).S
        s_minus = action(model, params.with_values(base - bump)).S
        out[s] = (s_plus - s_minus) / (2.0 * h)
    return out


def full_gradient(model: OrbitModel, params: ReducedParams) -> list[np.ndarray]:
    """Gradient over the complete coefficient lattice, one table per generator.

    Covers every (channel, basis, harmonic) up to the model's k_max --
    including coefficients outside the reduced layout -- so tests can verify
    that descent directions never leak out of the symmetric subspace.
    Returns tables shaped (n_channels, 2, k_max+1) with axis 1 = (sin, cos).
    """
    grid = QuadratureGrid.for_kmax(model.k_max)
    t = grid.nodes
    k_max = model.k_max
    ks = np.arange(k_max + 1, dtype=float)
    pos = sample_positions(model, params, t)
    F, _ = forces(model.potential, model.masses, pos, times=t,
                  context="full gradient")
    tables = params.layout.expand(params.values)
    out = []
    for g_idx, gen in enumerate(model.generators):
        table = np.zeros((gen.n_channels, 2, k_max + 1))
        # Exact kinetic part: pi * multiplicity * k^2 * coefficient.
        for ch in range(gen.n_channels):
            mult = channel_multiplicity(model, g_idx, ch)
            table[ch] += math.pi * mult * ks * ks * tables[g_idx][ch]
        # Potential part: + int F . dx/dcoeff dt on the grid.
        for i, b in enumerate(model.bindings):
            if b.generator != g_idx:
                continue
            rotated = F[i] @ b.transform.matrix      # (T, 3); column c reads
            for c, (ch, off) in enumerate(gen.columns):   # channel ch at off
                ang = np.multiply.outer(ks, t + b.phase + off)
                table[ch, 0] += grid.weight * (np.sin(ang) @ rotated[:, c])
                table[ch, 1] += grid.weight * (np.cos(ang) @ rotated[:, c])
        table[:, 0, 0] = 0.0   # sine basis has no k=0 member
        out.append(table)
    return out
