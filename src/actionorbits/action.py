"""Action functional and its gradient over reduced Fourier coefficients.

With the period fixed at 2*pi, the action of a candidate trajectory is

    S = int_0^{2pi} (K - V) dt,   K = sum_i (1/2) m_i |x_i'(t)|^2,

evaluated by uniform periodic quadrature.  Because every body coordinate
is linear in the reduced coefficients, the kinetic contribution to the
gradient is diagonal and exact:

    dS/dc = pi * k^2 * m_eff(c) * c  -  int (dV/dx) . (dx/dc) dt,

where m_eff is the slot's effective kinetic mass (mass-weighted count of
body coordinates the slot feeds; see :func:`..symmetry.compute_kinetic_mass`).
The orthogonality factor pi is kept explicit rather than folded into step
sizes, and the potential term is projected on the grid.  Zeros of this
gradient are exactly the Fourier-projected equations of motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import forces, potential_energy
from .quadrature import QuadratureGrid
from .symmetry import (OrbitModel, ReducedParams, channel_multiplicity,
                       sample_positions, sample_tables)


def _require_grid(model: OrbitModel, grid: QuadratureGrid | None) -> QuadratureGrid:
    grid = grid or QuadratureGrid.for_kmax(model.k_max)
    grid.require(model.k_max)
    return grid


class EvalKernel:
    """Cached linear maps from reduced values to sampled kinematics.

    Sampling is linear in the reduced vector, so positions, velocities, and
    accelerations on a fixed grid are matrix products with bases that are
    the sampler's Jacobian: one batched :func:`.sample_tables` call for
    all three derivatives on the expanded identity, slot axis first.  Used
    by the descent loop and :func:`action_with_gradient`.
    """

    def __init__(self, model: OrbitModel, params: ReducedParams,
                 grid: QuadratureGrid | None = None):
        self.model = model
        self.layout = params.layout
        self.grid = _require_grid(model, grid)
        units = self.layout.expand(np.eye(self.layout.n_slots))
        sampled = sample_tables(model, units, self.grid.nodes, (0, 1, 2))
        # slot axis first; each sampled array is dropped once copied
        self.basis_pos, self.basis_vel, self.basis_acc = (
            np.ascontiguousarray(np.moveaxis(sampled.pop(0), 2, 0))
            for _ in range(3))

    def positions(self, values: np.ndarray) -> np.ndarray:
        return np.tensordot(values, self.basis_pos, axes=1)

    def velocities(self, values: np.ndarray) -> np.ndarray:
        return np.tensordot(values, self.basis_vel, axes=1)

    def accelerations(self, values: np.ndarray) -> np.ndarray:
        return np.tensordot(values, self.basis_acc, axes=1)

    def project_forces(self, F: np.ndarray) -> np.ndarray:
        """Quadrature of F . (dx/dc) for every slot."""
        return self.grid.weight * np.einsum("itc,sitc->s", F, self.basis_pos)


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


def action(model: OrbitModel, params: ReducedParams,
           grid: QuadratureGrid | None = None) -> ActionReport:
    """Evaluate S = int (K - V) dt on the grid."""
    grid = _require_grid(model, grid)
    pos, vel = sample_positions(model, params, grid.nodes, deriv=(0, 1))
    v_samples = potential_energy(model.potential, model.masses, pos,
                                 times=grid.nodes, context="action")
    return _report(model, grid, vel, v_samples)


def _report(model, grid, vel, v_samples) -> ActionReport:
    """S from sampled velocities and the potential V on the grid, as
    returned by :func:`.potential_energy` or :func:`.forces`."""
    k_samples = 0.5 * np.einsum("i,itc,itc->t", model.masses, vel, vel)
    kin = grid.integrate(k_samples)
    pot = grid.integrate(v_samples)
    return ActionReport(S=float(kin - pot), kinetic=float(kin), potential=float(pot))


def action_with_gradient(model: OrbitModel, params: ReducedParams,
                         grid: QuadratureGrid | None = None,
                         kernel: EvalKernel | None = None) -> ActionReport:
    """Action plus its reduced gradient in one force evaluation."""
    if kernel is None:
        kernel = EvalKernel(model, params, grid)
    v = params.values
    return _with_gradient(kernel, v, kernel.positions(v), "gradient")


def _with_gradient(kernel: EvalKernel, v: np.ndarray, pos: np.ndarray,
                   context: str) -> ActionReport:
    """Action and reduced gradient at values ``v`` whose sampled positions
    ``pos`` the caller already holds; the descent loop iterates this."""
    model, grid = kernel.model, kernel.grid
    F, V = forces(model.potential, model.masses, pos, times=grid.nodes,
                  context=context)
    report = _report(model, grid, kernel.velocities(v), V)
    # dS/dc = pi k^2 m_eff c + int F . dx/dc dt  (the potential term carries
    # +F because F = -dV/dx).
    k = kernel.layout.slot_k.astype(float)
    grad = math.pi * k * k * kernel.layout.kinetic_mass * v + kernel.project_forces(F)
    return replace(report, gradient=grad)


def gradient(model: OrbitModel, params: ReducedParams,
             grid: QuadratureGrid | None = None,
             kernel: EvalKernel | None = None) -> np.ndarray:
    """Reduced gradient dS/dc (infinity-norm-ready 1-D array)."""
    return action_with_gradient(model, params, grid, kernel).gradient


def fd_gradient_oracle(model: OrbitModel, params: ReducedParams,
                       grid: QuadratureGrid | None = None,
                       h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the quadrature action, slot by slot.

    An independent check of the analytic gradient; h must be positive.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"finite-difference step must be positive, got {h}")
    grid = _require_grid(model, grid)
    base = np.asarray(params.values, dtype=float)
    out = np.empty_like(base)
    for s in range(base.size):
        bump = np.zeros_like(base)
        bump[s] = h
        s_plus = action(model, params.with_values(base + bump), grid).S
        s_minus = action(model, params.with_values(base - bump), grid).S
        out[s] = (s_plus - s_minus) / (2.0 * h)
    return out


def full_gradient(model: OrbitModel, params: ReducedParams,
                  grid: QuadratureGrid | None = None) -> list[np.ndarray]:
    """Gradient over the complete coefficient lattice, one table per generator.

    Covers every (channel, basis, harmonic) up to the model's k_max --
    including coefficients outside the reduced layout -- so tests can verify
    that descent directions never leak out of the symmetric subspace.
    Returns tables shaped (n_channels, 2, k_max+1) with axis 1 = (sin, cos).
    """
    grid = _require_grid(model, grid)
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
