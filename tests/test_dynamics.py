"""Tests for forces, energies, conserved quantities, and the EOM residual."""

import collections
import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import actionorbits as ao
from actionorbits import (
    CollisionError,
    EvalKernel,
    PotentialSpec,
    QuadratureGrid,
    build_choreography,
    build_crisscross,
    build_cubic_family,
    forces,
    min_pair_distance,
    observables,
    observables_series,
    potential_energy,
    residual,
    sample_positions,
)
from actionorbits.dynamics import pair_table
from oracles import configuration_forces, pair_forces

TWO_PI = 2.0 * math.pi
dynamics = importlib.import_module("actionorbits.dynamics")
integrate = importlib.import_module("actionorbits.integrate")


def _collides(call) -> bool:
    try:
        call()
    except CollisionError:
        return True
    return False


def _perturbed_exits(model, params) -> bool:
    dev = np.zeros((model.n_bodies, 3))
    dev[0, 0] = 1e-6
    report = integrate.perturb_and_track(model, params, dev, 0.5)
    return report.exit_time is not None


# whether each layer meets a collision on a model's orbit
COLLIDES = {
    "run": lambda model, params: ao.run(model, params).outcome == ao.COLLISION,
    "residual": lambda model, params: _collides(
        lambda: residual(model, params)),
    "return_error": lambda model, params: _collides(
        lambda: integrate.return_error(model, params)),
    "trajectory": lambda model, params: _collides(
        lambda: integrate.trajectory(model, params)),
    "perturb_and_track": _perturbed_exits,
}


def _pair(r):
    return np.array([[0.0, 0.0, 0.0], [r, 0.0, 0.0]])


class TestPotentialSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PotentialSpec(alpha=2.0)
        with pytest.raises(ValueError):
            PotentialSpec(alpha=0.0)
        with pytest.raises(ValueError):
            PotentialSpec(G=-1.0)
        with pytest.raises(ValueError):
            PotentialSpec(softening=-0.1)

    def test_coupling_sign_keeps_force_attractive(self):
        m = (1.0, 1.0)
        assert PotentialSpec(alpha=-1.0).pair_coupling(*m) == -1.0
        assert PotentialSpec(alpha=-2.0).pair_coupling(*m) == -1.0
        assert PotentialSpec(alpha=1.0).pair_coupling(*m) == 1.0


class TestPotentialEnergy:
    def test_two_body_hand_values(self):
        masses = np.ones(2)
        x = _pair(2.0)
        assert potential_energy(PotentialSpec(alpha=-1.0), masses, x) == \
            pytest.approx(-0.5)
        assert potential_energy(PotentialSpec(alpha=-2.0), masses, x) == \
            pytest.approx(-0.25)
        assert potential_energy(PotentialSpec(alpha=1.0), masses, x) == \
            pytest.approx(2.0)

    def test_masses_and_coupling_scale(self):
        x = _pair(1.0)
        spec = PotentialSpec(alpha=-1.0, G=2.0)
        assert potential_energy(spec, [2.0, 3.0], x) == pytest.approx(-12.0)

    def test_three_body_sum_over_pairs(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        v = potential_energy(PotentialSpec(alpha=-1.0), np.ones(3), x)
        assert v == pytest.approx(-(1.0 + 1.0 + 1.0 / math.sqrt(2.0)))

    def test_softening_lifts_the_singularity(self):
        spec = PotentialSpec(alpha=-1.0, softening=0.5)
        v = potential_energy(spec, np.ones(2), _pair(1.0))
        assert v == pytest.approx(-1.0 / math.sqrt(1.25))

    def test_batch_shape(self):
        x = np.stack([_pair(1.0), _pair(2.0)], axis=1)  # (2, T=2, 3)
        v = potential_energy(PotentialSpec(), np.ones(2), x)
        assert v.shape == (2,)
        assert np.allclose(v, [-1.0, -0.5])

    def test_single_body_has_no_potential(self):
        # no pairs: zero energy (per configuration) and zero force
        spec = PotentialSpec()
        x = np.full((1, 3), 0.3)
        F, V = forces(spec, [1.0], x)
        assert potential_energy(spec, [1.0], x) == 0.0 and V == 0.0
        assert isinstance(V, float)
        assert F.shape == (1, 3) and not F.any()
        batch = np.full((1, 4, 3), 0.3)
        F, V = forces(spec, [1.0], batch)
        assert np.array_equal(potential_energy(spec, [1.0], batch), np.zeros(4))
        assert np.array_equal(V, np.zeros(4))
        assert F.shape == (1, 4, 3) and not F.any()

    def test_bad_shape_rejected(self):
        spec = PotentialSpec()
        for call in (lambda x: potential_energy(spec, [1.0], x),
                     lambda x: forces(spec, [1.0], x),
                     min_pair_distance):
            for shape in ((3,), (1, 1, 1, 3)):
                with pytest.raises(ValueError, match="shape"):
                    call(np.zeros(shape))


class TestForces:
    def test_attractive_along_the_pair_axis(self):
        F, V = forces(PotentialSpec(alpha=-1.0), np.ones(2), _pair(2.0))
        # |F| = 1/r^2 = 0.25, body 0 pulled toward +x
        assert np.allclose(F[0], [0.25, 0.0, 0.0])
        assert np.allclose(F[1], [-0.25, 0.0, 0.0])
        assert V == pytest.approx(-0.5)

    @pytest.mark.parametrize("alpha", [-1.0, -2.0, 0.5, 1.0])
    def test_matches_finite_differences(self, alpha):
        spec = PotentialSpec(alpha=alpha)
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(30):
            n = rng.integers(2, 6)
            masses = rng.uniform(0.5, 3.0, size=n)
            x = rng.normal(scale=2.0, size=(n, 3))
            if min_pair_distance(x) < 0.3:
                continue
            F, _ = forces(spec, masses, x)
            for i in range(n):
                for c in range(3):
                    xp, xm = x.copy(), x.copy()
                    xp[i, c] += h
                    xm[i, c] -= h
                    fd = -(potential_energy(spec, masses, xp)
                           - potential_energy(spec, masses, xm)) / (2.0 * h)
                    assert F[i, c] == pytest.approx(fd, abs=1e-6)

    def test_newtons_third_law_to_machine_precision(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3))
        masses = rng.uniform(0.5, 2.0, size=6)
        F, _ = forces(PotentialSpec(), masses, x)
        assert np.max(np.abs(F.sum(axis=0))) < 1e-13

    def test_batch_matches_per_time(self):
        rng = np.random.default_rng(3)
        x = rng.normal(scale=2.0, size=(4, 5, 3))
        masses = rng.uniform(0.5, 2.0, size=4)
        Fb, Vb = forces(PotentialSpec(), masses, x)
        for j in range(5):
            Fj, Vj = forces(PotentialSpec(), masses, x[:, j])
            assert np.allclose(Fb[:, j], Fj)
            assert Vb[j] == pytest.approx(Vj)


def _assert_accelerator_bits(spec, masses, rng, contiguous=False):
    # writes 22 configurations into a strided (n, 3) view inside
    # sentinels, and with ``contiguous`` into a C-contiguous one as well,
    # and checks each against the oracles; returns the table
    n = masses.size
    table = pair_table(spec, masses)
    accelerate = table.accelerator()
    around = np.full((n + 2, 5), 7.0)
    strided = around[1:-1, 1:4]
    flat = np.full(3 * n + 2, 7.0)
    outs = [strided, flat[1:-1].reshape(n, 3)] if contiguous else [strided]
    assert not strided.flags.c_contiguous
    for k in range(22):
        x = rng.normal(scale=2.0, size=(n, 3))
        if k % 2:
            x[:, 2] = 0.0
        if k >= 20:
            x[n // 2, 0] = (math.nan, math.inf)[k - 20]
        before = x.copy()
        oracle = configuration_forces(table, x) / masses[:, None]
        F = forces(spec, masses, x)[0]
        for out in outs:
            accelerate(x, 0.5, out)
            got = np.ascontiguousarray(out).tobytes()
            assert got == oracle.tobytes(), k
            if k < 20:
                assert got == (F / masses[:, None]).tobytes(), k
            elif k == 21:
                assert np.isfinite(F[:, 1:]).all()
        assert x.tobytes() == before.tobytes()
        outside = around.copy()
        outside[1:-1, 1:4] = 7.0
        assert np.all(outside == 7.0), k
        assert flat[0] == flat[-1] == 7.0, k
    return table


@pytest.mark.parametrize("softening", [0.0, 0.3])
@pytest.mark.parametrize("alpha", [-1.0, -2.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [2, 3, 4, 20])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_accelerator_writes_the_bits_of_forces_over_masses(n, alpha,
                                                           softening):
    # the integrators' in-place right side writes into out the bytes of
    # the allocating difference-matrix oracle over the masses, planar
    # configurations (exact zeros in z) and a NaN or an infinite coordinate
    # (no collision) included, and nothing else; on finite configurations
    # those are the bytes of forces(), whose gathers round as the product
    # does.  At an infinite coordinate the product's zeros times inf make
    # every pair a NaN, while forces() keeps y and z finite.
    spec = PotentialSpec(alpha=alpha, softening=softening)
    rng = np.random.default_rng([n, int(4 * alpha) + 8, int(10 * softening)])
    masses = rng.uniform(0.5, 3.0, n)
    _assert_accelerator_bits(spec, masses, rng)


@pytest.mark.parametrize("n,mass", [(3, 1.0), (4, 1.0), (20, 1.0),
                                    (4, 2.0)])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_unit_factors_are_dropped_with_the_same_bits(n, mass):
    # Newtonian unit masses make every force coefficient -1 and every mass
    # 1: the accelerator drops both factors and writes the body sums
    # straight into a C-contiguous out (a strided one still divides), with
    # the oracle's bits in both; equal masses of 2 keep the general route
    table = _assert_accelerator_bits(PotentialSpec(), np.full(n, mass),
                                     np.random.default_rng([n, 77]),
                                     contiguous=True)
    unit = mass == 1.0
    assert table.unit_coef is table.unit_mass is unit
    assert np.array_equal(table.signed_incidence,
                          -table.incidence if unit else table.incidence)


def _assert_collision_of_forces(monkeypatch, masses):
    spec, masses = PotentialSpec(), np.array(masses)
    accelerate = pair_table(spec, masses).accelerator()
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                  [3.0, 1.0, 0.0], [3.0, 1.0 + 3e-9, 0.0]])
    with pytest.raises(CollisionError) as expected:
        forces(spec, masses, x, times=0.75, context="integration")
    with pytest.raises(CollisionError) as exc:
        accelerate(x, 0.75, np.empty((4, 3)))
    for field in ("pair", "t", "distance"):
        assert getattr(exc.value, field) == getattr(expected.value, field)
    assert exc.value.pair == (2, 3)
    assert str(exc.value) == str(expected.value)
    x[3, 1] = 1.0 + 3e-7
    accelerate(x, 0.75, np.empty((4, 3)))
    monkeypatch.setattr(dynamics, "COLLISION_THRESHOLD", 1e-6)
    with pytest.raises(CollisionError) as exc:
        accelerate(x, 0.75, np.empty((4, 3)))
    assert exc.value.pair == (2, 3)


def test_accelerator_raises_the_collision_of_forces(monkeypatch):
    # a near-coincident pair raises the CollisionError forces() raises
    # (pair, time, distance, context), at the threshold read at each
    # call, not when the accelerator was built
    _assert_collision_of_forces(monkeypatch, [1.0, 2.0, 3.0, 4.0])


def test_unit_accelerator_raises_the_collision_of_forces(monkeypatch):
    # unit masses, whose accelerator drops the exact factors, raise the
    # same error as forces() before any body sum
    assert pair_table(PotentialSpec(), np.ones(4)).unit_mass
    _assert_collision_of_forces(monkeypatch, [1.0] * 4)


# orbits and pair laws for the descent's batch evaluator: 378 pairs, three
# unequal masses, a softened law and a non-Newtonian one
EVALUATOR_CASES = {
    "cubic-m7": (lambda: build_cubic_family(7, k_max=27), PotentialSpec()),
    "crisscross-123": (lambda: build_crisscross((1.0, 2.0, 3.0), k_max=35),
                       PotentialSpec()),
    "softened": (lambda: build_cubic_family(3, k_max=9),
                 PotentialSpec(softening=0.3)),
    "alpha=-0.5": (lambda: build_crisscross(k_max=9),
                   PotentialSpec(alpha=-0.5)),
}


@pytest.mark.parametrize("case", list(EVALUATOR_CASES))
def test_batch_evaluator_writes_the_bits_of_the_allocating_path(case):
    # one evaluator, reused across configurations as the descent reuses
    # it, gives the bytes of allocating NumPy expressions and of forces()
    builder, spec = EVALUATOR_CASES[case]
    model, params = builder()
    grid = QuadratureGrid.for_kmax(model.k_max)
    table = pair_table(spec, model.masses)
    evaluate = table.batch_evaluator(grid.n)
    rng = np.random.default_rng(len(params))
    for _ in range(3):
        scale = 1.0 + 0.05 * rng.normal(size=len(params))
        x = sample_positions(model, params.with_values(params.values * scale),
                             grid.nodes)
        F, V = evaluate(x, grid.nodes, "test")
        for F_ref, V_ref in (pair_forces(table, x, grid.nodes),
                             forces(spec, model.masses, x, times=grid.nodes)):
            assert F.tobytes() == F_ref.tobytes(), case
            assert V.tobytes() == V_ref.tobytes(), case


def test_batch_evaluator_raises_the_collision_of_forces():
    # bodies 0 and 2 meet at the sixth grid node: one buffered evaluator
    # of every pair, forces() and the distances of potential_energy() name
    # the same pair, time, distance and context
    model, params = build_crisscross((1.0, 2.0, 3.0), k_max=9)
    t = QuadratureGrid.for_kmax(model.k_max).nodes
    x = sample_positions(model, params, t)
    x[2, 5] = x[0, 5] + [0.0, 3e-9, 0.0]
    evaluate = pair_table(model.potential, model.masses).batch_evaluator(t.size)
    calls = [lambda: evaluate(x, t, "unit test"),
             lambda: forces(model.potential, model.masses, x, times=t,
                            context="unit test"),
             lambda: potential_energy(model.potential, model.masses, x,
                                      times=t, context="unit test")]
    errors = []
    for call in calls:
        with pytest.raises(CollisionError) as exc:
            call()
        errors.append(exc.value)
    assert (errors[0].pair, errors[0].t) == ((0, 2), t[5])
    for err in errors[1:]:
        assert (err.pair, err.t, err.distance, str(err)) == (
            errors[0].pair, errors[0].t, errors[0].distance, str(errors[0]))


@pytest.mark.parametrize("n,k_max", [(2, 9), (3, 8)])
def test_reduced_kernel_raises_the_collision_of_forces(n, k_max):
    # n bodies on a circle of radius 1e-9 collide at every node; the
    # kernel samples only its first nodes (half the grid at n = 2, a sixth
    # at n = 3), whose pairs alone would name node 0, but it names the
    # whole grid's closest pair, time and distance, at a node it does not
    # sample.  Three bodies are equidistant, so their closest pair is a
    # rounding tie: the sampled positions' last bits pick (0, 1) at node
    # 12 (t = 2 pi / 3).
    a = 1e-9
    model, params = build_choreography(
        n, seed={("x", "sin", 1): a, ("y", "cos", 1): a}, k_max=k_max)
    kernel = EvalKernel(model, params)
    assert kernel.nodes.size == kernel.grid.n // {2: 2, 3: 6}[n]
    x = kernel.positions(params.values)
    full = kernel.full_positions(params.values)
    errors = []
    for call in (lambda: kernel.forces(x, "unit test"),
                 lambda: forces(model.potential, model.masses, full,
                                times=kernel.grid.nodes, context="unit test")):
        with pytest.raises(CollisionError) as exc:
            call()
        errors.append(exc.value)
    assert errors[0].pair == (0, 1)
    assert errors[0].t not in kernel.grid.nodes[kernel.nodes]
    assert (errors[0].pair, errors[0].t, errors[0].distance, str(errors[0])) \
        == (errors[1].pair, errors[1].t, errors[1].distance, str(errors[1]))


def test_each_layer_reaches_pair_arithmetic_through_one_evaluator(
        circle, monkeypatch):
    # forces, potential_energy, residual and the descent's kernel take
    # their pairs only through batch evaluators, and return_error and
    # perturb_and_track only through accelerators; none of them reads
    # distances through _separations
    model, result = circle
    params, spec, masses = result.params, model.potential, model.masses
    calls = collections.Counter()

    def counted(name):
        build = getattr(dynamics.PairTable, name)

        def builder(table, *args):
            evaluate = build(table, *args)

            def call(*call_args):
                calls[name] += 1
                return evaluate(*call_args)
            return call
        return builder

    separations = dynamics._separations

    def counted_separations(*args):
        calls["_separations"] += 1
        return separations(*args)

    for name in ("accelerator", "batch_evaluator"):
        monkeypatch.setattr(dynamics.PairTable, name, counted(name))
    monkeypatch.setattr(dynamics, "_separations", counted_separations)
    x = sample_positions(model, params, np.linspace(0.0, 1.0, 4))
    dev = np.zeros((model.n_bodies, 3))
    dev[0, 0] = 1e-6
    layers = [
        ("batch_evaluator", lambda: (forces(spec, masses, x),
                                     forces(spec, masses, x[:, 0]))),
        ("batch_evaluator", lambda: (potential_energy(spec, masses, x),
                                     potential_energy(spec, masses, x[:, 0]))),
        ("batch_evaluator", lambda: residual(model, params)),
        ("batch_evaluator", lambda: ao.action_with_gradient(
            model, params, EvalKernel(model, params))),
        ("accelerator", lambda: integrate.return_error(model, params)),
        ("accelerator", lambda: integrate.perturb_and_track(
            model, params, dev, 0.5)),
    ]
    for k, (through, call) in enumerate(layers):
        calls.clear()
        call()
        assert set(calls) == {through}, (k, calls)
    calls.clear()
    observables(spec, masses, x, x)
    min_pair_distance(x)
    assert calls == {"_separations": 2}


def test_every_evaluator_runs_the_one_pair_law(circle, monkeypatch):
    # accelerator() and batch_evaluator(), over every pair and over
    # representatives, each build the table's one pair law once and run
    # it on every call; forces, potential_energy, a reduced kernel and
    # return_error reach their pairs through it
    model, result = circle
    params, spec, masses = result.params, model.potential, model.masses
    builds, runs = collections.Counter(), collections.Counter()
    law = dynamics.PairTable._law

    def counted(table, *args, **kwargs):
        builds["law"] += 1
        run = law(table, *args, **kwargs)

        def call(*call_args):
            runs["law"] += 1
            return run(*call_args)
        return call

    def counts(call):
        # (builds, runs) of the law during call()
        builds.clear()
        runs.clear()
        call()
        return builds["law"], runs["law"]

    monkeypatch.setattr(dynamics.PairTable, "_law", counted)
    table = pair_table(spec, masses)
    x = sample_positions(model, params, np.linspace(0.0, 1.0, 4))
    for build, run in (
            (table.accelerator,
             lambda f: f(x[:, 0], 0.0, np.empty((2, 3)))),
            (lambda: table.batch_evaluator(4),
             lambda f: f(x, np.arange(4.0), "")),
            (lambda: table.batch_evaluator(2, [[0, 0, 1], [1, 1, 1]]),
             lambda f: f(x[:, :2], np.arange(2.0), ""))):
        built = []
        assert counts(lambda: built.append(build())) == (1, 0)
        assert counts(lambda: (run(built[0]), run(built[0]))) == (0, 2)
    kernel = EvalKernel(model, params)
    assert kernel.nodes.size < kernel.grid.n
    pos = kernel.positions(params.values)
    assert counts(lambda: forces(spec, masses, x)) == (1, 1)
    assert counts(lambda: potential_energy(spec, masses, x[:, 0])) == (1, 1)
    assert counts(lambda: kernel.forces(pos, "")) == (0, 1)
    made, ran = counts(lambda: integrate.return_error(model, params))
    assert made == 1 and ran > 100


def test_one_collision_report_names_every_evaluators_collision(monkeypatch):
    # the accelerator, the batch evaluator over every pair and the one
    # over representatives build their CollisionError through the table's
    # one _collision
    reports = collections.Counter()
    collision = dynamics.PairTable._collision

    def counted(table, *args, **kwargs):
        reports["_collision"] += 1
        return collision(table, *args, **kwargs)

    monkeypatch.setattr(dynamics.PairTable, "_collision", counted)
    a = 1e-9
    model, params = build_choreography(
        2, seed={("x", "sin", 1): a, ("y", "cos", 1): a}, k_max=9)
    kernel = EvalKernel(model, params)
    x = kernel.full_positions(params.values)
    table = pair_table(model.potential, model.masses)
    for call in (
            lambda: table.accelerator()(x[:, 0], 0.5, np.empty((2, 3))),
            lambda: forces(model.potential, model.masses, x),
            lambda: kernel._evaluate(kernel.positions(params.values),
                                     kernel._times, "")):
        reports.clear()
        with pytest.raises(CollisionError):
            call()
        assert reports == {"_collision": 1}


@pytest.mark.parametrize("n", [2, 3, 28])
def test_pair_differences_match_the_gather_bit_for_bit(n):
    # a difference-matrix row adds one +x_i and one -x_j to exact zeros,
    # so the accelerator's product rounds once, as the gathers' x_i - x_j
    # does; the squared norms sum in coordinate order, so the product's
    # norms, a batch and its columns agree to the bit
    i_idx, j_idx, difference = dynamics._pair_index(n)
    rng = np.random.default_rng(n)
    for shape in [(n, 3), (n, 5, 3)]:
        for _ in range(200):
            x = rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4, shape)
            gather = x.take(i_idx, axis=0) - x.take(j_idx, axis=0)
            product = np.dot(difference, x.reshape(n, -1))
            assert product.reshape(gather.shape).tobytes() == gather.tobytes()
            d, r2 = dynamics._separations(i_idx, j_idx, x)
            assert d.tobytes() == gather.tobytes()
            sq = gather * gather
            assert r2.tobytes() == (sq[..., 0] + sq[..., 1]
                                    + sq[..., 2]).tobytes()
            if x.ndim == 2:
                norms = np.dot(product * product, np.ones(3))
                assert norms.tobytes() == r2.tobytes()
            if x.ndim == 3:
                for j in range(shape[1]):
                    single = dynamics._separations(i_idx, j_idx, x[:, j])
                    assert single[0].tobytes() == d[:, j].tobytes()
                    assert single[1].tobytes() == r2[:, j].tobytes()


class TestCollisionDetection:
    def test_collision_error_carries_details(self):
        x = np.stack([_pair(1.0), _pair(1e-12)], axis=1)
        with pytest.raises(CollisionError) as exc:
            potential_energy(PotentialSpec(), np.ones(2), x,
                             times=[0.0, 0.5], context="unit test")
        err = exc.value
        assert err.pair == (0, 1)
        assert err.t == pytest.approx(0.5)
        assert err.distance < 1e-8
        assert "unit test" in str(err)

    def test_one_time_stands_for_every_batch_member(self):
        # three bodies at two times: bodies 0 and 1 meet in member 1 only;
        # a scalar or one-element time is the time of every member
        pos = np.zeros((3, 2, 3))
        pos[:, :, 0] = [[0.0, 0.0], [1.0, 0.0], [3.0, 3.0]]
        with pytest.raises(CollisionError) as exc:
            forces(PotentialSpec(), np.ones(3), pos, times=0.25)
        assert (exc.value.pair, exc.value.t) == ((0, 1), 0.25)
        with pytest.raises(CollisionError) as exc:
            potential_energy(PotentialSpec(), np.ones(3), pos,
                             times=np.array([0.75]))
        assert (exc.value.pair, exc.value.t) == ((0, 1), 0.75)

    def test_observables_do_not_raise_on_close_bodies(self):
        # observables summarize degenerate records, so they skip the test
        x = _pair(1e-12)
        obs = observables(PotentialSpec(alpha=-1.0), np.ones(2), x,
                          np.zeros_like(x))
        assert np.isfinite(obs.potential) and np.isfinite(obs.E)

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_observables_of_coincident_bodies_are_not_finite(self):
        # r = 0 in one configuration, and in one member of a batch: the
        # energy is not finite there, and no CollisionError is raised
        spec, masses = PotentialSpec(alpha=-1.0), np.ones(3)
        x = np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 0.0], [2.0, 1.0, 0.0]])
        obs = observables(spec, masses, x, np.ones_like(x))
        assert not np.isfinite(obs.E) and not np.isfinite(obs.potential)
        assert np.isfinite(obs.kinetic)
        batch = np.stack([x + [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                [0.0, 0.0, 0.5 * j]] for j in range(3)],
                         axis=1)
        obs = observables(spec, masses, batch, np.ones_like(batch))
        assert np.isfinite(obs.E).tolist() == [False, True, True]

    @pytest.mark.parametrize("layer", sorted(COLLIDES))
    def test_one_patched_threshold_moves_every_layer(self, circle, layer,
                                                     monkeypatch):
        # the circle's bodies stay about 1.26 apart; one name moves the
        # collision test of descent, residual and every DOP853 drive
        model, result = circle
        gap = min_pair_distance(sample_positions(model, result.params,
                                                 QuadratureGrid(256)))
        for threshold, collides in ((0.5 * gap, False), (2.0 * gap, True)):
            monkeypatch.setattr(dynamics, "COLLISION_THRESHOLD", threshold)
            assert COLLIDES[layer](model, result.params) is collides, threshold

    def test_min_pair_distance(self):
        x = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert min_pair_distance(x) == pytest.approx(1.0)
        assert min_pair_distance(x[:1]) == np.inf


@pytest.mark.parametrize("spec", [PotentialSpec(),
                                  PotentialSpec(alpha=0.5, softening=0.2)])
def test_batch_matches_single_configurations(spec):
    rng = np.random.default_rng(8)
    x = rng.normal(scale=2.0, size=(5, 7, 3))
    masses = rng.uniform(0.5, 2.0, size=5)
    v = potential_energy(spec, masses, x)
    singles = [x[:, j] for j in range(7)]
    # min and sqrt are exact, so the batch minimum is one of the singles
    assert min_pair_distance(x) == min(min_pair_distance(s) for s in singles)
    for j, s in enumerate(singles):
        assert v[j] == pytest.approx(potential_energy(spec, masses, s),
                                     rel=1e-14)


class TestObservables:
    def test_hand_checked_configuration(self):
        masses = np.array([1.0, 2.0])
        x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        v = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        obs = observables(PotentialSpec(alpha=-1.0), masses, x, v)
        assert obs.kinetic == pytest.approx(0.5)
        assert obs.potential == pytest.approx(-2.0)
        assert obs.E == pytest.approx(-1.5)
        assert np.allclose(obs.J, [0.0, 0.0, 1.0])
        assert np.allclose(obs.P, [0.0, 1.0, 0.0])
        assert np.allclose(obs.com, [1.0 / 3.0, 0.0, 0.0])
        # the body at the origin contributes nothing to I or Q
        assert np.allclose(obs.I, np.diag([0.0, 1.0, 1.0]))
        assert np.allclose(obs.Q, np.diag([2.0, -1.0, -1.0]))
        assert abs(np.trace(obs.Q)) < 1e-14

    def test_quadrupole_is_traceless_for_random_configs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = rng.integers(2, 7)
            masses = rng.uniform(0.5, 2.0, size=n)
            x = rng.normal(size=(n, 3))
            v = rng.normal(size=(n, 3))
            obs = observables(PotentialSpec(), masses, x, v)
            assert abs(np.trace(obs.Q)) < 1e-12 * max(1.0, np.abs(obs.Q).max())
            assert np.allclose(obs.I, obs.I.T)

    def test_batch_matches_single_configurations(self):
        rng = np.random.default_rng(17)
        spec = PotentialSpec()
        for n in range(2, 8):
            masses = rng.uniform(0.5, 2.0, size=n)
            x = rng.normal(scale=2.0, size=(n, 16, 3))
            v = rng.normal(size=(n, 16, 3))
            batch = observables(spec, masses, x, v)
            singles = [observables(spec, masses, x[:, j], v[:, j])
                       for j in range(16)]
            for field, shape in (("E", ()), ("kinetic", ()), ("potential", ()),
                                 ("J", (3,)), ("P", (3,)), ("com", (3,)),
                                 ("I", (3, 3)), ("Q", (3, 3))):
                got = getattr(batch, field)
                want = np.array([getattr(o, field) for o in singles])
                assert got.shape == (16,) + shape, field
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-14 * scale, field

    def test_bits_do_not_depend_on_memory_layout(self):
        # the 1:2:3 criss-cross once gave different I and Q for a strided
        # sample and its C-ordered copy
        model, params = build_crisscross((1.0, 2.0, 3.0), k_max=35)
        t = QuadratureGrid(64).nodes
        pos = sample_positions(model, params, t)
        vel = sample_positions(model, params, t, deriv=1)
        spec, masses = model.potential, model.masses
        pairs = [(observables(spec, masses, pos[:, j], vel[:, j]),
                  observables(spec, masses, np.ascontiguousarray(pos[:, j]),
                              np.ascontiguousarray(vel[:, j])))
                 for j in range(t.size)]
        # an (n, T, 3) view of (T, n, 3) samples, as integrate passes them
        pairs.append((observables(spec, masses,
                                  np.ascontiguousarray(pos.transpose(1, 0, 2))
                                  .transpose(1, 0, 2),
                                  np.ascontiguousarray(vel.transpose(1, 0, 2))
                                  .transpose(1, 0, 2)),
                      observables(spec, masses, pos, vel)))
        for strided, contiguous in pairs:
            for field in ("E", "kinetic", "potential", "J", "P", "I", "Q",
                          "com"):
                assert np.array_equal(getattr(strided, field),
                                      getattr(contiguous, field)), field

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # 2,501 samples of cubic m = 5 (20 bodies, 190 pairs): a matrix
        # product over the pairs gave E other last bits on two OpenBLAS
        # threads than on one.  Each run also checks that one sample, alone
        # or in a batch of 453, keeps the bits of its column.
        code = ("import hashlib, math\n"
                "import numpy as np\n"
                "import actionorbits as ao\n"
                "model, params = ao.build_cubic_family(5)\n"
                "params = ao.run(model, params).params\n"
                "t = np.linspace(0.0, 2.0 * math.pi, 2501)\n"
                "_, obs = ao.observables_series(model, params, t)\n"
                "pos, vel = ao.sample_positions(model, params, t, "
                "deriv=(0, 1))\n"
                "one = ao.observables(model.potential, model.masses,\n"
                "                     pos[:, 700], vel[:, 700])\n"
                "part = ao.observables(model.potential, model.masses,\n"
                "                      pos[:, 600:1053], vel[:, 600:1053])\n"
                "for name in ('E', 'J', 'I'):\n"
                "    print(name, hashlib.sha1(getattr(obs, name).tobytes())"
                ".hexdigest(),\n"
                "          np.asarray(getattr(one, name)).tobytes() =="
                " getattr(obs, name)[700].tobytes(),\n"
                "          getattr(part, name).tobytes() =="
                " getattr(obs, name)[600:1053].tobytes())\n")
        src = os.path.dirname(os.path.dirname(ao.__file__))
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src,
                   "OPENBLAS_NUM_THREADS": threads}
            runs.append(subprocess.run(
                [sys.executable, "-c", code], check=True,
                capture_output=True, text=True, env=env).stdout.split("\n"))
        assert runs[0] == runs[1]
        assert [line.split()[2:] for line in runs[0][:3]] == [
            ["True", "True"]] * 3

    @pytest.mark.parametrize("name", [
        "cubic-m1", "cubic-m3", "cubic-m5", "cubic-m7", "crisscross",
        "crisscross-123", "figure-eight"])
    def test_record_summary_keeps_the_bits_of_one_batch(self, name,
                                                        workloads):
        # a record's E and J at t = 0 and its largest |Q| over 64 nodes
        # were read off one observables batch over all 64 nodes; the first
        # configuration's observables and the positions' Q give those bits
        model, params = workloads.ORBITS[name]()
        params = workloads.seeded_params(name, params, 1)
        grid = QuadratureGrid(64)
        _, batch = observables_series(model, params, grid)
        start, quadrupole = dynamics.start_and_quadrupole(model, params, grid)
        assert np.float64(start.E).tobytes() == batch.E[0].tobytes()
        assert start.J.tobytes() == batch.J[0].tobytes()
        assert quadrupole.tobytes() == batch.Q.tobytes()
        summary = ao.make_record(model, params).observables
        assert repr(summary) == repr({
            "E": float(batch.E[0]), "J": [float(v) for v in batch.J[0]],
            "Q_max": float(np.abs(batch.Q).max())})

    def test_shape_validation(self):
        spec = PotentialSpec()
        with pytest.raises(ValueError):
            observables(spec, [1.0], np.zeros(3), np.zeros(3))
        masses = np.ones(2)
        with pytest.raises(ValueError):   # batch lengths differ
            observables(spec, masses, np.ones((2, 4, 3)), np.ones((2, 5, 3)))
        with pytest.raises(ValueError):   # batch against one configuration
            observables(spec, masses, np.ones((2, 4, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):   # 4-D input
            observables(spec, masses, np.ones((2, 4, 1, 3)),
                        np.ones((2, 4, 1, 3)))


class TestCircleConstants:
    """The converged two-body circle has closed-form invariants."""

    def test_energy_constant_and_angular_momentum(self, circle):
        model, result = circle
        params = result.params
        a = abs(params.values[0])
        t, obs = observables_series(model, params, np.linspace(0, TWO_PI, 32))
        assert obs.E.shape == t.shape
        assert np.ptp(obs.E) < 1e-9
        # two unit masses on a radius-a circle at unit angular rate,
        # traversed clockwise by the seed orientation: J_z = -2 a^2
        assert obs.J[:, 2] == pytest.approx(np.full(t.size, -2.0 * a * a),
                                            abs=1e-9)
        assert np.allclose(obs.P, 0.0, atol=1e-12)


class TestResidual:
    def test_converged_orbit_is_a_solution(self, circle):
        model, result = circle
        params = result.params
        rep = residual(model, params)
        assert rep.max_violation < 1e-8

    def test_unit_circle_seed_defect_hand_value(self):
        # seed: two unit masses on the unit circle. |x''| = 1 and the
        # pair force magnitude is 1/4, radially aligned, so the defect is
        # |-1 + 1/4| = 3/4 everywhere.
        model, params = build_choreography(2, k_max=9)
        rep = residual(model, params)
        assert rep.max_violation == pytest.approx(0.75, abs=1e-6)

    def test_spectrum_localizes_truncation_tail(self, circle):
        model, result = circle
        params = result.params
        rep = residual(model, params)
        k_max = model.k_max
        inside = rep.spectrum[: k_max + 1].max()
        assert inside == pytest.approx(rep.spectrum.max(), rel=1e-6) or \
            rep.spectrum.max() < 1e-8

    def test_report_fields(self, circle):
        model, result = circle
        params = result.params
        rep = residual(model, params)
        assert 0 <= rep.worst_body < model.n_bodies
        assert 0.0 <= rep.worst_time < TWO_PI
        assert rep.spectrum.ndim == 1

    def test_coarse_grid_rejected(self, circle):
        model, result = circle
        params = result.params
        with pytest.raises(ValueError):
            residual(model, params, grid=QuadratureGrid(8))

    def test_collision_during_residual(self):
        model, params = build_crisscross(k_max=5)
        # zero out everything: all three bodies sit at the origin
        params = params.with_values(np.zeros(len(params)))
        with pytest.raises(CollisionError):
            residual(model, params)
