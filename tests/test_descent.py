"""Tests for the coefficient-space descent loop and its diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

import actionorbits as ao
from actionorbits import (
    COLLISION,
    CONVERGED,
    ESCAPE,
    MAX_ITERS,
    DescentSchedule,
    EvalKernel,
    LayoutError,
    PotentialSpec,
    StopRule,
    action_with_gradient,
    build_choreography,
    build_crisscross,
    build_cubic_family,
    naive_stability_bound,
    naive_time_descent,
    run,
    stability_bound,
    step,
    verify_symmetry,
)

TWO_PI = 2.0 * math.pi


class TestScheduleConstruction:
    def test_uniform_validation(self):
        DescentSchedule.uniform(1e-3)
        DescentSchedule.uniform(-1e-3)  # ascent is allowed
        with pytest.raises(ValueError):
            DescentSchedule.uniform(0.0)
        with pytest.raises(ValueError):
            DescentSchedule.uniform(math.inf)

    def test_preconditioned_validation(self):
        DescentSchedule.preconditioned()
        with pytest.raises(ValueError):
            DescentSchedule.preconditioned(0.0)

    def test_custom_validation(self):
        DescentSchedule.custom({1: 1e-3, 3: -1e-3})
        with pytest.raises(ValueError):
            DescentSchedule.custom({})
        with pytest.raises(ValueError):
            DescentSchedule.custom({1: 0.0})

    def test_custom_missing_harmonic(self):
        model, params = build_cubic_family(1, k_max=5)
        sched = DescentSchedule.custom({1: 1e-3})
        with pytest.raises(LayoutError, match="missing harmonics"):
            sched.step_sizes(params.layout)

    def test_step_sizes_per_rule(self):
        model, params = build_cubic_family(1, k_max=5)
        layout = params.layout  # harmonics 1, 3, 5; kinetic mass 12
        uni = DescentSchedule.uniform(2e-4).step_sizes(layout)
        assert np.all(uni == 2e-4)
        pre = DescentSchedule.preconditioned(0.12).step_sizes(layout)
        assert np.allclose(pre, 0.12 / (12.0 * np.array([1.0, 9.0, 25.0])))
        cus = DescentSchedule.custom({1: 1e-3, 3: 2e-3, 5: 0.0}).step_sizes(layout)
        assert np.allclose(cus, [1e-3, 2e-3, 0.0])


class TestStopRule:
    def test_accepts_its_limits(self):
        StopRule(grad_tol=0.0, max_iters=0, escape_radius=math.inf)
        StopRule(max_iters=np.int64(5))

    @pytest.mark.parametrize("setting", [
        {"grad_tol": math.nan}, {"grad_tol": -1.0},
        {"max_iters": -5}, {"max_iters": 2.5}, {"max_iters": 10.0},
        {"max_iters": True},
        {"escape_radius": -1.0}, {"escape_radius": 0.0},
        {"escape_radius": math.nan}],
        ids=lambda d: "{}={}".format(*next(iter(d.items()))))
    def test_rejects_false_or_silent_settings(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            StopRule(**setting)


class TestStabilityBound:
    def test_uniform_bound_shrinks_with_harmonics(self):
        sched = DescentSchedule.uniform(1e-4)
        b27 = stability_bound(sched, 27, 1.0)
        assert b27 == pytest.approx(2.0 / (math.pi * 729.0))
        # doubling the truncation order quarters the stable step
        assert stability_bound(sched, 54, 1.0) == pytest.approx(b27 / 4.0)

    def test_preconditioned_bound_is_truncation_free(self):
        sched = DescentSchedule.preconditioned()
        assert stability_bound(sched, 27, 1.0) == pytest.approx(2.0 / math.pi)
        assert stability_bound(sched, 999, 5.0) == pytest.approx(2.0 / math.pi)

    def test_custom_bound_uses_most_restrictive_entry(self):
        sched = DescentSchedule.custom({1: 1e-3, 5: 1e-3})
        assert stability_bound(sched, 5, 2.0) == pytest.approx(
            2.0 / (math.pi * 2.0 * 1e-3 * 25.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            stability_bound(DescentSchedule.preconditioned(), 0, 1.0)
        with pytest.raises(ValueError):
            stability_bound(DescentSchedule.preconditioned(), 5, 0.0)


class TestStep:
    def test_zero_gradient_leaves_values_unchanged(self):
        _, params = build_cubic_family(1, k_max=5)
        out = step(params, np.zeros(len(params)), DescentSchedule.uniform(1e-3))
        assert np.array_equal(out.values, params.values)

    def test_kinetic_only_contraction_is_uniform(self):
        # with G = 0 the preconditioned update multiplies every harmonic
        # by exactly 1 - delta * pi
        model, params = build_cubic_family(1, k_max=9)
        free = ao.OrbitModel(
            generators=model.generators, bindings=model.bindings,
            potential=PotentialSpec(G=0.0), family=model.family,
            symmetries=model.symmetries)
        rng = np.random.default_rng(4)
        params = params.with_values(rng.normal(size=len(params)))
        delta = 0.1
        g = ao.gradient(free, params)
        out = step(params, g, DescentSchedule.preconditioned(delta))
        assert np.allclose(out.values, (1.0 - delta * math.pi) * params.values,
                           rtol=1e-12)

    def test_negative_custom_step_ascends(self):
        _, params = build_cubic_family(1, k_max=5)
        g = np.array([1.0, 1.0, 1.0])
        out = step(params, g, DescentSchedule.custom({1: -1e-2, 3: -1e-2, 5: -1e-2}))
        assert np.all(out.values > params.values)


class TestRunOutcomes:
    def test_two_body_circle_converges_to_the_analytic_radius(self, circle):
        model, result = circle
        assert result.outcome == CONVERGED
        assert result.converged
        a = abs(result.params.values[0])
        assert a == pytest.approx(2.0 ** (-2.0 / 3.0), abs=1e-9)
        assert result.residual is not None and result.residual < 1e-8
        assert result.grad_norm <= 1e-10

    def test_collision_outcome(self):
        # two bodies seeded on the same curve point collide immediately
        model, params = build_choreography(
            1, active={"x": ("sin",), "y": ("cos",)}, k_max=5)
        import dataclasses
        bindings = (model.bindings[0],
                    dataclasses.replace(model.bindings[0], phase=0.0))
        clash = dataclasses.replace(model, bindings=bindings)
        result = run(clash, params, stop=StopRule(max_iters=10))
        assert result.outcome == COLLISION
        assert result.collision_pair == (0, 1)

    def test_collision_names_the_full_pair_path(self):
        # two bodies 2e-9 apart: the outcome, pair and time of the full
        # pair evaluation, though the kernel evaluates body 0's pairs only
        a = 1e-9
        model, params = build_choreography(
            2, seed={("x", "sin", 1): a, ("y", "cos", 1): a}, k_max=9)
        result = run(model, params)
        assert result.outcome == COLLISION
        assert result.collision_pair == (0, 1)
        assert result.collision_time == 3.4557519189487724
        assert result.iterations == 0

    def test_escape_outcome(self):
        model, params = build_choreography(2, k_max=5)
        params = params.with_values(60.0 * params.values)
        result = run(model, params, stop=StopRule(escape_radius=50.0))
        assert result.outcome == ESCAPE
        assert result.escape_body is not None
        assert result.iterations == 0

    def test_max_iters_outcome(self):
        model, params = build_choreography(2, k_max=5)
        result = run(model, params, stop=StopRule(max_iters=3))
        assert result.outcome == MAX_ITERS
        assert result.iterations == 3
        assert not result.converged

    def test_action_decreases_monotonically(self):
        model, params = build_choreography(2, k_max=9)
        result = run(model, params, DescentSchedule.preconditioned(0.1),
                     StopRule(max_iters=500))
        trace = result.action_trace
        assert trace.size > 10
        assert np.all(np.diff(trace) <= 1e-12)

    def test_determinism(self):
        model, params = build_crisscross(k_max=9)
        r1 = run(model, params, stop=StopRule(max_iters=40))
        r2 = run(model, params, stop=StopRule(max_iters=40))
        assert np.array_equal(r1.params.values, r2.params.values)
        assert np.array_equal(r1.action_trace, r2.action_trace)
        assert r1.grad_norm == r2.grad_norm

    def test_run_iterates_the_public_gradient_and_step(self):
        model, params = build_crisscross(k_max=9)
        schedule = DescentSchedule.preconditioned()
        kernel = EvalKernel(model, params)
        trace = []
        current = params
        for _ in range(5):
            report = action_with_gradient(model, current, kernel=kernel)
            trace.append(report.S)
            current = step(current, report.gradient, schedule)
        trace.append(action_with_gradient(model, current, kernel=kernel).S)
        result = run(model, params, schedule, StopRule(max_iters=5))
        assert result.iterations == 5
        assert np.array_equal(result.action_trace, np.array(trace))
        assert np.array_equal(result.params.values, current.values)

    def test_symmetry_preserved_every_iteration(self):
        model, params = build_crisscross(k_max=9)
        worst = 0.0

        def check(iteration, current, S, grad_norm):
            nonlocal worst
            report = verify_symmetry(model, current, tol=1e-12)
            worst = max(worst, report.max_error)

        run(model, params, stop=StopRule(max_iters=25), callback=check)
        assert worst <= 1e-12

    def test_benchmark_iteration_counts_stay_the_same(self, workloads):
        # the seven benchmark orbits from their seed-1 starts at their fixed
        # k_max: a change to the descent's arithmetic that moves any count
        # moves the benchmark's work, not only its speed
        counts = {}
        for name, build in workloads.ORBITS.items():
            model, params = build()
            counts[name] = run(model, workloads.seeded_params(
                name, params, 1)).iterations
        assert counts == {"cubic-m1": 41, "cubic-m3": 41, "cubic-m5": 45,
                          "cubic-m7": 46, "crisscross": 101,
                          "crisscross-123": 314, "figure-eight": 52}

    def test_iterations_allocate_no_batch_sized_array(self):
        # cubic m=7 has 378 pairs on 112 nodes: after the first iteration
        # an iteration allocates less than one (pairs, nodes, 3) array,
        # since the kernel's position and pair buffers take every
        # batch-sized result
        model, params = build_cubic_family(7, k_max=27)
        pair_array = 378 * 112 * 3 * 8
        per_iteration = []

        def measure(iteration, current, S, grad_norm):
            current_bytes, peak = tracemalloc.get_traced_memory()
            if iteration > 1:
                per_iteration.append(peak - measure.start)
            measure.start = current_bytes
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            run(model, params, stop=StopRule(max_iters=5), callback=measure)
        finally:
            tracemalloc.stop()
        assert len(per_iteration) == 4
        assert max(per_iteration) < pair_array, per_iteration

    def test_radial_mode_instability_above_the_homogeneity_bound(self):
        # for alpha = -1 the scale mode diverges once delta exceeds
        # 2 / (3 pi) ~ 0.212, even though the kinetic-only analysis
        # allows delta up to 2 / pi
        model, params = build_choreography(2, k_max=5)
        bad = run(model, params, ao.DescentSchedule.preconditioned(0.30),
                  StopRule(max_iters=4000))
        assert bad.outcome in (ESCAPE, MAX_ITERS, COLLISION)
        good = run(model, params, ao.DescentSchedule.preconditioned(0.15),
                   StopRule(max_iters=4000))
        assert good.outcome == CONVERGED


class TestNaiveTimeDescent:
    def _circle_paths(self, n_t):
        t = np.arange(n_t) * TWO_PI / n_t
        x = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)
        return np.stack([x, -x])

    def test_stability_bound_value(self):
        h = TWO_PI / 64
        assert naive_stability_bound(64, 1.0) == pytest.approx(h * h / 2.0)
        with pytest.raises(ValueError):
            naive_stability_bound(2, 1.0)
        with pytest.raises(ValueError):
            naive_stability_bound(64, 0.0)

    @pytest.mark.parametrize("margin,grows", [(0.9, False), (1.1, True)])
    def test_nyquist_mode_across_the_bound(self, margin, grows):
        n_t = 64
        paths = self._circle_paths(n_t)
        # inject a small alternating-sample (zig-zag) perturbation
        signs = np.where(np.arange(n_t) % 2 == 0, 1.0, -1.0)
        paths[0, :, 0] += 1e-6 * signs
        bound = naive_stability_bound(n_t, 1.0)
        _, diag = naive_time_descent(paths, np.ones(2), PotentialSpec(),
                                     margin * bound, iters=200)
        assert diag.stability_bound == pytest.approx(bound)
        assert diag.growing == grows
        if grows:
            assert diag.growth_factor > 1e3
        else:
            assert diag.growth_factor < 1e-2

    def test_input_validation(self):
        paths = self._circle_paths(16)
        with pytest.raises(ValueError):
            naive_time_descent(paths[:, :, :2], np.ones(2), PotentialSpec(),
                               1e-5, 1)
        with pytest.raises(ValueError):
            naive_time_descent(paths, np.ones(2), PotentialSpec(), 1e-5, -1)
