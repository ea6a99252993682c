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
body coordinates the slot feeds; see :class:`.symmetry.ParamLayout`).
The kinetic integral therefore needs no sampled velocities; it equals their
quadrature on the grid, which is exact for the truncation.  The
orthogonality factor pi is kept explicit rather than folded into step
sizes, and the potential term is projected on the grid.  Zeros of this
gradient are exactly the Fourier-projected equations of motion.

The gradient's :class:`EvalKernel`, which the descent iterates, takes the
potential term from one (body, node) pair per orbit of the symmetries
that permute the grid (:func:`.space_time_orbits`): for a symmetric loop
the action is the group's order times the action on a fundamental domain
(Ferrario & Terracini, Invent. Math. 155, 2004), and on the grid a
(body, node) pair's F . dx/dc and its share of the potential are its
representative's.  So the kernel samples positions at the
representatives' nodes only and evaluates each representative's pairs
(29 representatives on 5 of 112 nodes, 783 pair evaluations instead of
the 42,336 of every pair on the whole grid, at cubic m = 7).
:func:`action` and the residual still evaluate every pair on the whole
grid, so they check the reduction independently.  They sample through
the same shifted trig table as the kernel
(:func:`.symmetry.sample_tables`), so they do not check the sampler; the
tests check it against direct evaluations at t + phase + offset, and
hold the gradient over the complete coefficient lattice as an oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import forces  # noqa: F401  (kept bound: perfbench traces action.forces)
from .dynamics import pair_table, potential_energy
from .errors import CollisionError
from .quadrature import QuadratureGrid
from .symmetry import (OrbitModel, ParamLayout, ReducedParams,
                       sample_positions, sample_tables, space_time_orbits)


def _kinetic_stiffness(layout: ParamLayout) -> np.ndarray:
    """pi * k^2 * m_eff per slot: the kinetic gradient is this times c."""
    k = layout.slot_k.astype(float)
    return math.pi * k * k * layout.kinetic_mass


class EvalKernel:
    """The descent's linear map from reduced values to sampled positions,
    and the buffers it evaluates the action in.

    The grid's (body, node) pairs fall into the model's
    :func:`.space_time_orbits`: an element of its symmetry group carries
    body i at node j to body sigma(i) at node tau(j), and with it the
    pair forces and each body's share of the pair potential.  So the
    gradient's potential term is w sum_r |O_r| F_r . dx_r/dc over one
    representative pair r per orbit, and the potential's grid sum is the
    sum of the representatives' half shares of their pair potentials,
    each counted |O_r| times.

    Sampling is linear in the reduced vector, so the positions of every
    body at the representatives' nodes (:attr:`nodes`) are one matrix
    product with the sampler's Jacobian there, from one
    :func:`.sample_tables` call on the expanded identity.  The product
    writes into one position buffer, and the forces go into the buffers of
    one :meth:`.PairTable.batch_evaluator` that takes each
    representative's pairs at its node, both built here, so an iteration
    allocates no array of the batch's size.  :meth:`project_forces` is one
    matrix-vector product with the representatives' rows of the Jacobian
    times their orbit sizes.  When every (body, node) is its own orbit, the
    nodes are the whole grid, the evaluator takes every pair, the
    projection's rows are a view of ``basis_pos``, and the action and
    gradient are the full evaluation, bit for bit.

    The full-grid bases ``basis_pos``, ``basis_vel`` and ``basis_acc``
    are sampled on first use only: the descent reads ``basis_pos`` only
    when a body may have escaped or a pair may have collided, so that
    the outcome is the full grid's.  Used by the descent loop and
    :func:`action_with_gradient`.
    """

    def __init__(self, model: OrbitModel, params: ReducedParams):
        self.model = model
        self.layout = params.layout
        self.grid = QuadratureGrid.for_kmax(model.k_max)
        self.kinetic_stiffness = _kinetic_stiffness(self.layout)
        self.orbits = space_time_orbits(model, self.layout, self.grid.n)
        table = pair_table(model.potential, model.masses)
        n_slots = self.layout.n_slots
        self._reduced = self.orbits.sizes.size < self.orbits.orbit.size
        if self._reduced:
            self.nodes = np.flatnonzero(np.bincount(self.orbits.nodes))
            basis = self._basis(0, self.nodes)
            columns = np.searchsorted(self.nodes, self.orbits.nodes)
            self._evaluate = table.batch_evaluator(self.nodes.size, np.stack(
                [self.orbits.bodies, columns, self.orbits.sizes], axis=1))
            # dx_r/dc of each representative r, counted |O_r| times, one
            # row per slot
            self._projection_rows = (basis[:, self.orbits.bodies, columns]
                                     * self.orbits.sizes[:, None]
                                     ).reshape(n_slots, -1)
        else:
            self.nodes = np.arange(self.grid.n)
            basis = self.basis_pos
            self._evaluate = table.batch_evaluator(self.grid.n)
        self._times = self.grid.nodes[self.nodes]
        self._positions = np.empty(basis.shape[1:])
        self._basis_rows = basis.reshape(n_slots, self._positions.size)
        self._position_row = self._positions.reshape(-1)
        self._values = None
        if not self._reduced:   # every body's rows: basis_pos itself
            self._projection_rows = self._basis_rows

    def _basis(self, order: int, nodes=slice(None)) -> np.ndarray:
        units = self.layout.expand(np.eye(self.layout.n_slots))
        (sampled,) = sample_tables(self.model, units, self.grid.nodes[nodes],
                                   (order,))
        return np.ascontiguousarray(np.moveaxis(sampled, 2, 0))

    @functools.cached_property
    def basis_pos(self) -> np.ndarray:
        return self._basis(0)

    @functools.cached_property
    def basis_vel(self) -> np.ndarray:
        return self._basis(1)

    @functools.cached_property
    def basis_acc(self) -> np.ndarray:
        return self._basis(2)

    def positions(self, values: np.ndarray) -> np.ndarray:
        """Sampled positions (n, len(nodes), 3) of ``values`` at the
        kernel's nodes, in its one position buffer: the next call
        overwrites them."""
        np.dot(values, self._basis_rows, self._position_row)
        self._values = values
        return self._positions

    def full_positions(self, values: np.ndarray) -> np.ndarray:
        """Sampled positions (n, T, 3) of ``values`` on the whole grid:
        the :meth:`positions` buffer when the nodes are the grid, else a
        new array from ``basis_pos``."""
        if self.nodes.size == self.grid.n:
            return self.positions(values)
        rows = self.basis_pos.reshape(self.layout.n_slots, -1)
        return np.dot(values, rows).reshape(self.basis_pos.shape[1:])

    def forces(self, pos: np.ndarray, context: str):
        """(F, V) of positions ``pos`` that :meth:`positions` sampled: F on
        the representatives, in a buffer the next call overwrites, and V
        with the weights whose sum is the full potential's grid sum (see
        :meth:`.PairTable.batch_evaluator`).

        A collision among the representatives' pairs is raised as every
        pair on the whole grid raises it, at the values ``pos`` were
        sampled from, so that it names the full evaluation's pair, time
        and distance; should that find none (a rounding edge), the
        representatives' collision is raised.
        """
        try:
            return self._evaluate(pos, self._times, context)
        except CollisionError as error:
            if self._reduced:
                potential_energy(self.model.potential, self.model.masses,
                                 self.full_positions(self._values),
                                 times=self.grid.nodes, context=context)
            raise error

    def project_forces(self, F: np.ndarray) -> np.ndarray:
        """Quadrature of F . (dx/dc) over every body and node for every
        slot, from the representatives' forces F as :meth:`forces` returns
        them.

        One matrix-vector product: the projection's rows (one per slot,
        each the representatives' dx_r/dc times |O_r|, flattened like F)
        against F flattened, times the quadrature weight.
        """
        return self.grid.weight * np.dot(self._projection_rows, F.reshape(-1))


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
        return float(np.abs(self.gradient).max())


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
    whose sum is its grid sum: on the grid, as :func:`.potential_energy`
    returns it, or as :meth:`EvalKernel.forces` weights it."""
    kin = 0.5 * float(v @ kinetic_grad)
    pot = float(v_samples.sum() * grid.weight)
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
