"""Tests for the action functional and its analytic gradient."""

import dataclasses
import math

import numpy as np
import pytest

import actionorbits as ao
from actionorbits import (
    EvalKernel,
    PotentialSpec,
    QuadratureGrid,
    action,
    action_with_gradient,
    build_choreography,
    build_crisscross,
    build_cubic_family,
    fd_gradient_oracle,
    full_gradient,
    gradient,
    sample_positions,
)
from oracles import (accelerations, direct_full_gradient, einsum_projection,
                     full_pair_action, kinetic_quadrature, project,
                     velocities)

TWO_PI = 2.0 * math.pi


def _two_body_circle(a=1.0, k_max=9):
    """Two unit masses on a radius-a circle: S(a) = 2 pi a^2 + pi / a."""
    return build_choreography(2, seed={("x", "sin", 1): a, ("y", "cos", 1): a},
                              k_max=k_max)


class TestActionValues:
    @pytest.mark.parametrize("a", [0.5, 0.63, 1.0, 1.3])
    def test_two_body_circle_closed_form(self, a):
        # kinetic: 2 * (1/2) * a^2 over a period = 2 pi a^2; the pair
        # distance is the constant 2a sin(pi/2)... i.e. separation is
        # constant |x1 - x2| = 2a sin(pi * 1/2) = 2a; V = -1/(2a) always,
        # so -int V dt = pi / a.
        model, params = _two_body_circle(a)
        rep = action(model, params)
        assert rep.kinetic == pytest.approx(TWO_PI * a * a, rel=1e-12)
        assert rep.potential == pytest.approx(-math.pi / a, rel=1e-12)
        assert rep.S == pytest.approx(TWO_PI * a * a + math.pi / a, rel=1e-12)

    def test_report_decomposition(self):
        model, params = _two_body_circle(0.8)
        rep = action(model, params)
        assert rep.S == pytest.approx(rep.kinetic - rep.potential)
        assert rep.gradient is None
        assert rep.grad_norm is None

    def test_kinetic_only_action(self):
        model, params = _two_body_circle(1.0)
        free = ao.OrbitModel(
            generators=model.generators,
            bindings=model.bindings,
            potential=PotentialSpec(G=0.0),
            family=model.family,
            symmetries=model.symmetries,
        )
        rep = action(free, params)
        assert rep.potential == 0.0
        assert rep.S == pytest.approx(TWO_PI)

    def test_minimum_matches_scaling_prediction(self, circle):
        # S(a) = 2 pi a^2 + pi/a is minimized at a = 2**(-2/3)
        model, result = circle
        a_min = 2.0 ** (-2.0 / 3.0)
        s_min = TWO_PI * a_min**2 + math.pi / a_min
        rep = action(model, result.params)
        assert rep.S == pytest.approx(s_min, abs=1e-9)


class TestGradient:
    def test_circle_gradient_hand_value(self):
        # dS/da at a = 1 along either k=1 slot: d(2 pi a^2)/da = 4 pi a
        # splits evenly between the x-sine and y-cosine slots (2 pi each),
        # and d(pi/a)/da = -pi/a^2 splits as -pi/2 each: total 3 pi / 2.
        model, params = _two_body_circle(1.0)
        g = gradient(model, params)
        k1_slots = [i for i, s in enumerate(params.layout.slots) if s.k == 1]
        for i in k1_slots:
            assert g[i] == pytest.approx(1.5 * math.pi, rel=1e-12)

    def test_kinetic_only_gradient_is_exactly_diagonal(self):
        model, params = build_crisscross((1.0, 2.0, 3.0), k_max=9)
        free = ao.OrbitModel(
            generators=model.generators,
            bindings=model.bindings,
            potential=PotentialSpec(G=0.0),
            family=model.family,
            symmetries=model.symmetries,
        )
        rng = np.random.default_rng(8)
        params = params.with_values(rng.normal(size=len(params)))
        g = gradient(free, params)
        layout = params.layout
        expected = math.pi * layout.slot_k**2 * layout.kinetic_mass * params.values
        assert np.allclose(g, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("builder", [
        lambda: build_cubic_family(1, k_max=9),
        lambda: build_crisscross(k_max=9),
        lambda: build_crisscross((1.0, 2.0, 3.0), k_max=9),
        lambda: build_choreography(3, k_max=9),
    ])
    def test_matches_finite_differences(self, builder):
        model, params = builder()
        rng = np.random.default_rng(17)
        grid = QuadratureGrid.for_kmax(model.k_max)
        checked = 0
        for trial in range(8):
            noise = 0.2 * rng.normal(size=len(params))
            probe = params.with_values(params.values + noise)
            pos = sample_positions(model, probe, grid)
            if ao.min_pair_distance(pos) < 0.2:
                continue  # FD truncation error blows up near collisions
            g = gradient(model, probe)
            fd = fd_gradient_oracle(model, probe)
            assert np.max(np.abs(g - fd)) < 1e-6
            checked += 1
        assert checked >= 3

    def test_fd_oracle_rejects_bad_step(self):
        model, params = _two_body_circle()
        with pytest.raises(ValueError):
            fd_gradient_oracle(model, params, h=0.0)
        with pytest.raises(ValueError):
            fd_gradient_oracle(model, params, h=-1e-6)

    def test_gradient_vanishes_at_the_minimum(self, circle):
        model, result = circle
        g = gradient(model, result.params)
        assert np.max(np.abs(g)) < 1e-9


def _coupled_choreography():
    """Three bodies on one curve whose even-harmonic y cosines are tied to
    the x sines by alternating signs: a choreography with couplings."""
    model, _ = build_choreography(3, active={"x": ("sin",)}, k_max=9,
                                  parity=ao.Parity.ALL)
    slots = [ao.Slot(0, 0, "sin", k) for k in range(1, 10)]
    slots += [ao.Slot(0, 1, "cos", k) for k in range(1, 10, 2)]
    couplings = [ao.Coupling(k - 1, 0, 1, "cos", k, (-1.0) ** (k // 2))
                 for k in range(2, 10, 2)]
    layout = ao.make_layout(model, slots, couplings)
    values = np.zeros(layout.n_slots)
    values[0] = values[9] = 1.0
    return model, ao.ReducedParams(layout, values)


class TestKineticTerm:
    """The kinetic integral in coefficient space, 1/2 c . (pi k^2 m_eff c),
    equals the quadrature of sampled velocities it replaces."""

    @staticmethod
    def _check(model, params, label):
        rng = np.random.default_rng(len(params))
        noise = 1.0 + 0.1 * rng.normal(size=len(params))
        for probe in (params, params.with_values(params.values * noise)):
            expected = kinetic_quadrature(model, probe)
            for report in (action(model, probe),
                           action_with_gradient(model, probe)):
                assert abs(report.kinetic - expected) <= 1e-13 * expected, \
                    (label, report.kinetic, expected)

    def test_benchmark_orbits(self, workloads):
        # every orbit builder of the benchmark, the 1:2:3 masses included
        for name, build in workloads.ORBITS.items():
            model, params = build()
            self._check(model, workloads.seeded_params(name, params, 1), name)

    def test_choreography_with_couplings(self):
        model, params = _coupled_choreography()
        assert len(params.layout.couplings) == 4
        self._check(model, params, "coupled choreography")


KERNEL_MODELS = {
    # scalar generator read at three time offsets
    "cubic-m3": lambda: build_cubic_family(3, k_max=9),
    # sign couplings across generators
    "crisscross": lambda: build_crisscross(k_max=9),
    "crisscross-123": lambda: build_crisscross((1.0, 2.0, 3.0), k_max=9),
    # sin and cos on one channel, all harmonics
    "choreography-sincos": lambda: build_choreography(
        3, active={"x": ("sin", "cos"), "y": ("cos",)}, k_max=9,
        parity=ao.Parity.ALL),
}


class TestEvalKernel:
    @pytest.mark.parametrize("name", list(KERNEL_MODELS))
    def test_kernel_matches_direct_sampling(self, name):
        model, params = KERNEL_MODELS[name]()
        kernel = EvalKernel(model, params)
        t = kernel.grid.nodes
        # Each basis entry is exactly the sampled unit vector of its slot.
        for s, unit in enumerate(np.eye(len(params))):
            probe = params.with_values(unit)
            for basis, deriv in ((kernel.basis_pos, 0), (kernel.basis_vel, 1),
                                 (kernel.basis_acc, 2)):
                assert np.array_equal(
                    basis[s], sample_positions(model, probe, t, deriv)), (s, deriv)
        rng = np.random.default_rng(23)
        params = params.with_values(rng.normal(size=len(params)))
        assert np.allclose(kernel.positions(params.values),
                           sample_positions(model, params, t[kernel.nodes]))
        assert np.allclose(kernel.full_positions(params.values),
                           sample_positions(model, params, t))
        assert np.allclose(velocities(kernel, params.values),
                           sample_positions(model, params, t, deriv=1))
        assert np.allclose(accelerations(kernel, params.values),
                           sample_positions(model, params, t, deriv=2))

    def test_kernel_reuse_gives_same_gradient(self):
        model, params = _two_body_circle(0.9)
        kernel = EvalKernel(model, params)
        rep_direct = action_with_gradient(model, params)
        rep_cached = action_with_gradient(model, params, kernel=kernel)
        assert rep_direct.S == pytest.approx(rep_cached.S)
        assert np.allclose(rep_direct.gradient, rep_cached.gradient)


class TestSymmetryReducedKernel:
    """The kernel evaluates the pairs of one (body, node) pair per symmetry
    orbit; its action and gradient are the full pair sum's."""

    @staticmethod
    def _probes(workloads, name):
        model, params = workloads.ORBITS[name]()
        start = workloads.seeded_params(name, params, 1)
        rng = np.random.default_rng(list(workloads.ORBITS).index(name))
        noise = 0.02 * rng.normal(size=len(start))
        return model, {"seed-1 start": start,
                       "converged": ao.run(model, start).params,
                       "random": start.with_values(start.values + noise)}

    def test_benchmark_orbits_agree_with_every_pair(self, workloads):
        # relative to the potential term, which is O(1) where the
        # gradient itself vanishes
        for name in workloads.ORBITS:
            model, probes = self._probes(workloads, name)
            for label, probe in probes.items():
                kernel = EvalKernel(model, probe)
                report = action_with_gradient(model, probe, kernel=kernel)
                S, grad = full_pair_action(kernel, probe.values)
                scale = np.max(np.abs(grad - kernel.kinetic_stiffness
                                      * probe.values))
                assert abs(report.S - S) <= 1e-12 * abs(S), (name, label)
                assert np.max(np.abs(report.gradient - grad)) \
                    <= 1e-12 * scale, (name, label)

    def test_kernel_without_an_element_gives_the_full_bytes(self):
        # mixed sin and cos, every harmonic, and the shift 2 pi/3 off the
        # 40-node grid: every (body, node) pair is its own orbit
        model, params = KERNEL_MODELS["choreography-sincos"]()
        rng = np.random.default_rng(31)
        for probe in (params, params.with_values(
                params.values + 0.05 * rng.normal(size=len(params)))):
            kernel = EvalKernel(model, probe)
            assert kernel.orbits.elements == ()
            assert kernel.nodes.size == kernel.grid.n
            report = action_with_gradient(model, probe, kernel=kernel)
            S, grad = full_pair_action(kernel, probe.values)
            assert report.S == S
            assert report.gradient.tobytes() == grad.tobytes()

    def test_projection_agrees_with_the_einsum_form(self, workloads):
        # one matrix-vector product against an einsum per orbit: the two
        # sum in different orders, and each lies within 1e-15 of the
        # fsum of the rounded products (relative to the largest slot),
        # so they differ by at most twice that
        for name in workloads.ORBITS:
            model, probes = self._probes(workloads, name)
            for label, probe in probes.items():
                kernel = EvalKernel(model, probe)
                F, _ = kernel.forces(kernel.positions(probe.values), "test")
                got = kernel.project_forces(F)
                want = einsum_projection(kernel, F)
                rows = kernel._projection_rows
                fsum = kernel.grid.weight * np.array(
                    [math.fsum(row * F.reshape(-1)) for row in rows])
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - fsum)) <= 1e-15 * scale, \
                    (name, label)
                assert np.max(np.abs(want - fsum)) <= 1e-15 * scale, \
                    (name, label)
                assert np.max(np.abs(got - want)) <= 2e-15 * scale, \
                    (name, label)

    def test_bodies_reduced_at_every_node(self):
        # without its claims the cubic loop keeps only its bindings' Klein
        # turns, which move no node: body 0 at every node stands for the
        # four bodies there, and the kernel samples the whole grid
        model, params = build_cubic_family(1, k_max=9)
        model = dataclasses.replace(model, symmetries=())
        kernel = EvalKernel(model, params)
        assert kernel.nodes.size == kernel.grid.n
        assert kernel.orbits.bodies.tolist() == [0] * kernel.grid.n
        F, _ = kernel.forces(kernel.positions(params.values), "test")
        assert F.shape == (kernel.grid.n, 3)
        rng = np.random.default_rng(37)
        probe = params.with_values(params.values
                                   + 0.05 * rng.normal(size=len(params)))
        report = action_with_gradient(model, probe, kernel=kernel)
        S, grad = full_pair_action(kernel, probe.values)
        scale = np.max(np.abs(grad - kernel.kinetic_stiffness * probe.values))
        assert abs(report.S - S) <= 1e-12 * abs(S)
        assert np.max(np.abs(report.gradient - grad)) <= 1e-12 * scale

    def test_unreduced_projection_is_a_view_of_the_basis(self):
        # a kernel whose pairs are each their own orbit projects through
        # basis_pos itself, not through a copy of it
        model, params = KERNEL_MODELS["choreography-sincos"]()
        kernel = EvalKernel(model, params)
        assert np.shares_memory(kernel._projection_rows, kernel.basis_pos)

    def test_forces_are_the_representatives(self, workloads):
        model, params = workloads.ORBITS["cubic-m7"]()
        kernel = EvalKernel(model, params)
        pos = kernel.positions(params.values)
        F, _ = kernel.forces(pos, "test")
        F_all, _ = ao.forces(model.potential, model.masses,
                             kernel.full_positions(params.values),
                             times=kernel.grid.nodes)
        orbits = kernel.orbits
        assert kernel.nodes.tolist() == [0, 1, 2, 3, 4]
        assert F.shape == (29, 3)
        assert np.allclose(F, F_all[orbits.bodies, orbits.nodes], rtol=0,
                           atol=1e-13)

    def test_kernel_of_another_model_or_layout_is_rejected(self):
        model, params = build_cubic_family(1, k_max=9)
        kernel = EvalKernel(model, params)
        action_with_gradient(model, params, kernel=kernel)
        stronger, _ = build_cubic_family(1, k_max=9,
                                         potential=PotentialSpec(alpha=-2.0))
        more_bodies, _ = build_cubic_family(3, k_max=9)
        _, finer = build_cubic_family(1, k_max=11)
        for other, probe in ((stronger, params), (more_bodies, params),
                             (model, finer)):
            with pytest.raises(ValueError, match="another model or layout"):
                action_with_gradient(other, probe, kernel=kernel)


class TestFullGradient:
    def test_agrees_with_reduced_gradient_via_projection(self):
        for builder in (lambda: build_cubic_family(1, k_max=9),
                        lambda: build_crisscross(k_max=9)):
            model, params = builder()
            rng = np.random.default_rng(5)
            probe = params.with_values(params.values
                                       + 0.1 * rng.normal(size=len(params)))
            tables = full_gradient(model, probe)
            projected = project(probe.layout, tables)
            assert np.allclose(projected, gradient(model, probe),
                               rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("builder", [
        lambda: build_cubic_family(1, k_max=9),
        lambda: build_cubic_family(3, k_max=9),
        lambda: build_crisscross(k_max=9),
        lambda: build_choreography(3, k_max=9)],
        ids=["cubic-m1", "cubic-m3", "crisscross", "choreography3"])
    def test_matches_the_direct_projection(self, builder):
        # the transposed shift on one trig table against sin and cos of
        # k (t + phase + offset) per column, with positions that share no
        # shift with the library's sampler
        model, params = builder()
        rng = np.random.default_rng(7)
        probe = params.with_values(params.values
                                   + 0.1 * rng.normal(size=len(params)))
        for got, expected in zip(full_gradient(model, probe),
                                 direct_full_gradient(model, probe)):
            assert (np.abs(got - expected).max()
                    <= 1e-13 * np.abs(expected).max())

    def test_no_leakage_at_the_reduced_minimum(self, crisscross):
        # symmetric criticality: at a minimum over the symmetric subspace
        # the gradient over the complete coefficient lattice also vanishes
        model, result = crisscross
        tables = full_gradient(model, result.params)
        worst = max(float(np.max(np.abs(t))) for t in tables)
        assert worst < 1e-8

    def test_no_leakage_for_cubic(self, cubic1):
        model, result = cubic1
        tables = full_gradient(model, result.params)
        worst = max(float(np.max(np.abs(t))) for t in tables)
        assert worst < 1e-8
