"""Tests for transform groups, family builders, and reduced layouts."""

import dataclasses
import importlib
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import actionorbits as ao
from actionorbits import (
    COS,
    SIN,
    BodyBinding,
    CollisionError,
    Coupling,
    LayoutError,
    OrthTransform,
    Parity,
    ReducedParams,
    Slot,
    SpaceTimeSymmetry,
    Verdict,
    a4_elements,
    all_signed_permutations,
    build_choreography,
    build_crisscross,
    build_cubic_family,
    collision_parity_check,
    crisscross_coupling_sign,
    klein_elements,
    make_layout,
    sample_positions,
    verify_symmetry,
)
from actionorbits.integrate import CURVE_SAMPLES
from actionorbits.symmetry import (_element_costs, _nearest_image_error,
                                  sample_tables, space_time_orbits)
from oracles import (compose, exact_sampler, full_pair_action, inverse,
                     per_column_sampler, project, relative_error)

IDENTITY = OrthTransform(np.eye(3, dtype=int))


def _per_sample_matching_errors(model, params, times):
    """Reference: one Hungarian assignment per (symmetry, sample), so the
    body permutation may change from sample to sample."""
    from scipy.optimize import linear_sum_assignment

    base = sample_positions(model, params, times)
    errors = []
    for sym in model.symmetries:
        shifted = -times if sym.time_reversal else times + sym.time_shift
        target = sample_positions(model, params, shifted)
        moved = base @ sym.transform.matrix.T
        worst = 0.0
        for j in range(times.size):
            diff = moved[:, j, :][:, None, :] - target[:, j, :][None, :, :]
            cost = np.sqrt(np.einsum("ilc,ilc->il", diff, diff))
            rows, cols = linear_sum_assignment(cost)
            worst = max(worst, float(cost[rows, cols].max()))
        errors.append(worst)
    return tuple(errors)


def _assignment_errors(model, params):
    """Reference: the optimal assignment's largest matched cost per
    element where the nearest images form a permutation, else inf."""
    from scipy.optimize import linear_sum_assignment

    errors = []
    for cost in _element_costs(model, params, ao.QuadratureGrid(64).nodes):
        nearest = cost.argmin(axis=1)
        if len(set(nearest)) < len(nearest):
            errors.append(math.inf)
            continue
        rows, cols = linear_sum_assignment(cost)
        errors.append(float(cost[rows, cols].max()))
    return tuple(errors)


# claimed elements that the criss-cross does not have
BOGUS_ELEMENTS = (
    SpaceTimeSymmetry(OrthTransform([[0, 1, 0], [1, 0, 0], [0, 0, 1]])),
    SpaceTimeSymmetry(OrthTransform(np.diag([-1, 1, 1])),
                      time_reversal=True),
)


def _random_values(build, seed, scale):
    model, params = build()
    rng = np.random.default_rng(seed)
    return model, params.with_values(scale * rng.normal(size=len(params)))


# random-coefficient models for the oracle comparison: (builder, seed, scale)
RANDOM_MODELS = {
    "cubic3-random": (lambda: build_cubic_family(3, k_max=9), 11, 0.5),
    "choreography4-random": (lambda: build_choreography(4, k_max=9), 13, 0.3),
}


# the seven orbits of the benchmark's catalogue, at their builder seeds
BENCHMARK_FAMILIES = {
    "cubic-m1": lambda: build_cubic_family(1, k_max=27),
    "cubic-m3": lambda: build_cubic_family(3, k_max=27),
    "cubic-m5": lambda: build_cubic_family(5, k_max=27),
    "cubic-m7": lambda: build_cubic_family(7, k_max=27),
    "crisscross": lambda: build_crisscross(k_max=35),
    "crisscross-123": lambda: build_crisscross((1.0, 2.0, 3.0), k_max=35),
    "figure-eight": lambda: build_choreography(
        3, active={"x": ("sin",), "y": ("sin",)},
        seed={("x", "sin", 1): 1.1, ("y", "sin", 2): 0.35},
        k_max=32, parity=Parity.ALL),
}


# Bound on the sampler's largest error over the largest exact value, at
# orders 0-2, against a 40-digit evaluation.  The models here read at most
# 1.2e-14 (cubic m=5 with unit normal values up to k = 27, at order 1),
# where the per-column evaluation at (t + phase) + offset that the sampler
# replaced reads up to 3.8e-14.
EXACT_BOUND = 2e-14


def _counting(monkeypatch, module, name):
    """Rebind ``module.name`` to a wrapper that records each call."""
    real, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestOrthTransform:
    def test_rejects_bad_shapes_and_entries(self):
        with pytest.raises(ValueError):
            OrthTransform(np.eye(2))
        with pytest.raises(ValueError):
            OrthTransform(np.eye(3) * 0.5)
        with pytest.raises(ValueError):
            OrthTransform(np.diag([2, 1, 1]))
        # two entries in one row: not a signed permutation
        with pytest.raises(ValueError):
            OrthTransform([[1, 1, 0], [0, 0, 1], [0, 1, 0]])
        with pytest.raises(ValueError):
            OrthTransform(np.zeros((3, 3), dtype=int))
        # non-finite and huge entries: a ValueError, not a cast warning
        for bad in (math.nan, math.inf, 1e30):
            with pytest.raises(ValueError):
                OrthTransform([[bad, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_int_float_and_list_inputs_agree(self):
        rows = [[0, -1, 0], [0, 0, 1], [-1, 0, 0]]
        made = [OrthTransform(np.array(rows)),
                OrthTransform(np.array(rows, dtype=float)),
                OrthTransform(rows)]
        for r in made:
            assert r == made[0] and hash(r) == hash(made[0])
            assert r.matrix.dtype == int and not r.matrix.flags.writeable
            assert np.array_equal(r.matrix, rows)
            assert r.key() == tuple(np.ravel(rows))
            assert all(type(v) is int for v in r.key())

    def test_is_immutable_and_pickles(self):
        r = OrthTransform(np.diag([1, -1, -1]))
        table = all_signed_permutations()
        with pytest.raises(AttributeError):
            r.matrix = np.eye(3, dtype=int)
        with pytest.raises(AttributeError):
            del r.matrix
        with pytest.raises(AttributeError):
            table[0].matrix = np.eye(3, dtype=int)
        assert all_signed_permutations() == table
        assert [t.key() for t in table] == [
            tuple(t.matrix.ravel().tolist()) for t in table]
        assert r == OrthTransform(np.diag([1, -1, -1]))
        copy = pickle.loads(pickle.dumps(r))
        assert copy == r and hash(copy) == hash(r)
        assert np.array_equal(copy.matrix, r.matrix)

    def test_det_and_negative_count(self):
        r = OrthTransform(np.diag([1, -1, -1]))
        assert r.det == 1
        assert r.n_negative == 2
        s = OrthTransform([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert s.det == -1

    def test_apply_moves_points(self):
        r = OrthTransform([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        p = np.array([1.0, 2.0, 3.0])
        assert np.allclose(r.apply(p), r.matrix @ p)
        batch = np.arange(12.0).reshape(4, 3)
        out = r.apply(batch)
        assert out.shape == (4, 3)
        assert np.allclose(out, batch @ r.matrix.T)

    def test_compose_and_inverse(self):
        a = OrthTransform([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        b = OrthTransform(np.diag([1, -1, -1]))
        ab = compose(a, b)
        p = np.array([0.3, -0.7, 1.1])
        assert np.allclose(ab.apply(p), a.apply(b.apply(p)))
        assert compose(a, inverse(a)) == IDENTITY
        assert compose(inverse(a), a) == IDENTITY

    def test_key_equality_hash(self):
        a = OrthTransform(np.diag([1, -1, -1]))
        b = OrthTransform(np.diag([1, -1, -1]))
        assert a == b
        assert hash(a) == hash(b)
        assert isinstance(a.key(), tuple)
        assert a.key() == b.key()
        assert len({a, b}) == 1


class TestGroups:
    def test_klein_four_group(self):
        elems = klein_elements()
        assert len(elems) == 4
        assert IDENTITY in elems
        for r in elems:
            assert r.det == 1
            # every element is an involution
            assert compose(r, r) == IDENTITY
            for s in elems:
                assert compose(r, s) in elems

    def test_klein_matrices_sum_to_zero(self):
        # this is what makes the cubic family's angular momentum vanish
        # identically: the four loop transforms cancel in pairs
        total = sum(r.matrix for r in klein_elements())
        assert np.array_equal(total, np.zeros((3, 3), dtype=int))

    def test_rotation_group_of_the_cube_orientation_class(self):
        elems = a4_elements()
        assert len(elems) == 12
        keys = {r.key() for r in elems}
        assert len(keys) == 12
        assert [r.key() for r in elems] == sorted(keys)
        for r in elems:
            assert r.det == 1
            assert r.n_negative % 2 == 0
            for s in elems:
                assert compose(r, s).key() in keys
        for k in klein_elements():
            assert k.key() in keys

    def test_all_signed_permutations(self):
        elems = all_signed_permutations()
        assert len(elems) == 48
        assert len({r.key() for r in elems}) == 48
        assert sum(1 for r in elems if r.det == 1) == 24
        for r in a4_elements():
            assert r in elems

    def test_all_signed_permutations_is_a_new_list_each_call(self):
        first = all_signed_permutations()
        first.clear()
        second = all_signed_permutations()
        assert len(second) == 48
        assert second is not all_signed_permutations()
        assert second == all_signed_permutations()

    @pytest.mark.parametrize("elements, size", [(klein_elements, 4),
                                                (a4_elements, 12)])
    def test_subgroups_are_new_lists_of_the_same_transforms(self, elements,
                                                            size):
        first = elements()
        first.clear()
        second = elements()
        assert len(second) == size
        assert second is not elements()
        assert all(a is b for a, b in zip(second, elements()))

    def test_a4_elements_takes_determinants_once(self, monkeypatch):
        expected = a4_elements()

        def no_det(_):
            raise AssertionError("determinant taken again")

        monkeypatch.setattr(np.linalg, "det", no_det)
        assert a4_elements() == expected


class TestCollisionParity:
    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
    def test_odd_is_safe(self, m):
        assert collision_parity_check(m) is Verdict.SAFE

    @pytest.mark.parametrize("m", [2, 4, 6, 10])
    def test_even_collides(self, m):
        assert collision_parity_check(m) is Verdict.COLLISION

    @pytest.mark.parametrize("m", [0, -1, 1.5, 3.0, True])
    def test_invalid_occupancy(self, m):
        with pytest.raises(ValueError):
            collision_parity_check(m)
        with pytest.raises(ValueError):
            build_cubic_family(m)


class TestCubicFamily:
    def test_even_occupancy_raises_collision(self):
        with pytest.raises(CollisionError) as exc:
            build_cubic_family(2)
        assert exc.value.pair is not None

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_body_count_and_masses(self, m):
        model, params = build_cubic_family(m, k_max=9)
        assert model.n_bodies == 4 * m
        assert np.all(model.masses == 1.0)
        assert model.family.kind == "cubic"
        assert model.family.m == m

    def test_seed_is_unit_first_harmonic(self):
        model, params = build_cubic_family(1, k_max=9)
        slots = params.layout.slots
        assert [s.k for s in slots] == [1, 3, 5, 7, 9]
        assert all(s.basis == SIN for s in slots)
        assert params.values[0] == 1.0
        assert np.all(params.values[1:] == 0.0)

    @pytest.mark.parametrize("m", [1, 3])
    def test_kinetic_mass_counts_all_coordinates(self, m):
        # one scalar generator feeds 3 coordinates of 4m unit masses
        model, params = build_cubic_family(m, k_max=9)
        assert np.allclose(params.layout.kinetic_mass, 12.0 * m)

    def test_bodies_are_klein_images_of_the_first(self):
        model, params = build_cubic_family(1, k_max=9)
        rng = np.random.default_rng(3)
        params = params.with_values(rng.normal(size=len(params)))
        t = np.linspace(0.0, 2.0 * math.pi, 17)
        pos = sample_positions(model, params, t)
        for i, binding in enumerate(model.bindings):
            assert np.allclose(pos[i], pos[0] @ binding.transform.matrix.T)

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    def test_sampler_matches_per_binding_evaluation(self, deriv):
        # m=5 puts 20 bindings on 5 phases, so bindings share sampled
        # columns; each body must still match its own 40-digit evaluation,
        # no further off than the per-column evaluation
        model, params = build_cubic_family(5)
        assert len({(b.generator, b.phase) for b in model.bindings}) == 5
        rng = np.random.default_rng(5)
        params = params.with_values(rng.normal(size=len(params)))
        t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        tables = params.layout.expand(params.values)
        pos = sample_positions(model, params, t, deriv=deriv)
        (hi, lo), = exact_sampler(model, tables, t, (deriv,))
        for i in range(model.n_bodies):
            assert relative_error(pos[i], (hi[i], lo[i])) <= EXACT_BOUND, i
        assert relative_error(pos, (hi, lo)) <= relative_error(
            per_column_sampler(model, tables, t, deriv), (hi, lo))

    @pytest.mark.parametrize("m", [1, 3, 5, 9])
    def test_each_symmetry_is_claimed_once(self, m):
        model, _ = build_cubic_family(m, k_max=3)
        claims = [(s.transform.key(), s.time_shift, s.time_reversal)
                  for s in model.symmetries]
        assert len(claims) == len(set(claims))
        rotations = {c[0] for c in claims if c[1:] == (0.0, False)}
        expected = a4_elements() if m % 3 == 0 else klein_elements()
        assert rotations == {r.key() for r in expected}

    def test_triple_occupancy_carries_full_rotation_set(self):
        model, _ = build_cubic_family(3, k_max=9)
        keys = {s.transform.key() for s in model.symmetries}
        for r in a4_elements():
            assert r.key() in keys

    def test_symmetries_hold_for_any_reduced_values(self):
        # the layout enforces the symmetry structurally, so even random
        # coefficients must verify
        model, params = build_cubic_family(3, k_max=9)
        rng = np.random.default_rng(11)
        params = params.with_values(0.5 * rng.normal(size=len(params)))
        report = verify_symmetry(model, params, tol=1e-9)
        assert report.passed
        assert report.max_error <= 1e-12


class TestCrisscrossFamily:
    def test_coupling_sign_pattern(self):
        assert crisscross_coupling_sign(3) == 1.0
        assert crisscross_coupling_sign(7) == 1.0
        assert crisscross_coupling_sign(11) == 1.0
        assert crisscross_coupling_sign(1) == -1.0
        assert crisscross_coupling_sign(5) == -1.0
        assert crisscross_coupling_sign(9) == -1.0
        with pytest.raises(LayoutError):
            crisscross_coupling_sign(2)

    def test_equal_mass_layout_and_seed(self):
        model, params = build_crisscross(k_max=9)
        assert model.n_bodies == 3
        layout = params.layout
        # three free coefficients and three couplings per odd harmonic
        assert layout.n_slots == 3 * 5
        assert len(layout.couplings) == 3 * 5
        assert np.allclose(layout.kinetic_mass, 2.0)
        first = layout.slots[:3]
        assert (first[0].gen, first[0].channel, first[0].basis) == (0, 0, COS)
        assert (first[1].gen, first[1].channel, first[1].basis) == (0, 1, SIN)
        assert (first[2].gen, first[2].channel, first[2].basis) == (2, 0, COS)
        assert params.values[0] == 1.0
        assert params.values[1] == 0.0
        assert params.values[2] == -1.0

    def test_equal_mass_coupling_relations_in_samples(self):
        model, params = build_crisscross(k_max=9)
        rng = np.random.default_rng(5)
        params = params.with_values(rng.normal(size=len(params)))
        # per generator: (channel x|y|z, basis sin|cos, harmonic k)
        tables = params.layout.expand(params.values)
        for k in (1, 3, 5, 7, 9):
            s = crisscross_coupling_sign(k)
            assert tables[1][0, 1, k] == s * tables[0][1, 0, k]
            assert tables[1][1, 0, k] == s * tables[0][0, 1, k]
            assert tables[2][1, 0, k] == s * tables[2][0, 1, k]
        # z stays identically zero
        t = np.linspace(0.0, 2.0 * math.pi, 33)
        pos = sample_positions(model, params, t)
        assert np.all(pos[:, :, 2] == 0.0)

    @pytest.mark.parametrize("build, per_harmonic", [
        (lambda: build_crisscross(k_max=9), [2.0] * 3),
        (lambda: build_crisscross((1.0, 2.0, 3.0), k_max=9),
         [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]),
        (lambda: build_choreography(3, k_max=9), [3.0, 3.0])],
        ids=["crisscross", "crisscross-123", "choreography3"])
    def test_kinetic_masses_add_every_coupled_channel(self, build,
                                                      per_harmonic):
        # per odd harmonic, in slot order; an equal-mass criss-cross slot
        # adds its coupled coefficient's channel to its own
        layout = build()[1].layout
        assert layout.kinetic_mass.tolist() == per_harmonic * 5

    def test_unequal_mass_seed_has_zero_center_of_mass(self):
        model, params = build_crisscross((1.0, 2.0, 3.0), k_max=9)
        layout = params.layout
        assert len(layout.couplings) == 0
        assert layout.n_slots == 6 * 5
        masses = model.masses
        for i, s in enumerate(layout.slots):
            assert layout.kinetic_mass[i] == masses[s.gen]
        t = np.linspace(0.0, 2.0 * math.pi, 33)
        pos = sample_positions(model, params, t)
        com = np.einsum("i,itc->tc", masses, pos) / masses.sum()
        assert np.max(np.abs(com)) < 1e-14
        # the documented seed pattern after the single centering pass
        val = {(s.gen, s.channel, s.k): v
               for s, v in zip(layout.slots, params.values)}
        assert val[(0, 0, 1)] == pytest.approx(4.0 / 3.0)
        assert val[(1, 0, 1)] == pytest.approx(1.0 / 3.0)
        assert val[(2, 0, 1)] == pytest.approx(-2.0 / 3.0)
        assert val[(0, 1, 1)] == pytest.approx(-1.0 / 6.0)
        assert val[(1, 1, 1)] == pytest.approx(-7.0 / 6.0)
        assert val[(2, 1, 1)] == pytest.approx(5.0 / 6.0)

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            build_crisscross((1.0, 2.0))
        with pytest.raises(ValueError):
            build_crisscross((1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            build_crisscross((1.0, math.inf, 1.0))

    def test_bogus_symmetry_fails_verification(self):
        model, params = build_crisscross(k_max=9)
        rng = np.random.default_rng(7)
        params = params.with_values(rng.normal(size=len(params)))
        bogus = dataclasses.replace(model, symmetries=BOGUS_ELEMENTS)
        report = verify_symmetry(bogus, params, tol=1e-9)
        assert not report.passed
        # swap_xy sends every body nearest to body 2: no permutation
        # matches it; the reversed x-flip has one, which fails by 3.2
        assert report.element_errors[0] == math.inf
        assert 1e-3 < report.element_errors[1] < math.inf
        assert report.element_errors == _assignment_errors(bogus, params)


class TestVerifySymmetry:
    @pytest.mark.parametrize("orbit", [
        "cubic1", "cubic5", "cubic3-random", "crisscross", "crisscross123",
        "choreography4-random"])
    def test_one_permutation_per_element_matches_per_sample_matching(
            self, request, orbit):
        if orbit in RANDOM_MODELS:
            model, params = _random_values(*RANDOM_MODELS[orbit])
        else:
            model, result = request.getfixturevalue(orbit)
            params = result.params
        times = ao.QuadratureGrid(64).nodes
        report = verify_symmetry(model, params)
        assert report.element_errors == _per_sample_matching_errors(
            model, params, times)
        assert report.passed

    @pytest.mark.parametrize("orbit", [
        "cubic1", "cubic5", "cubic3-random", "crisscross", "crisscross123",
        "choreography4-random", "bogus-random"])
    def test_nearest_images_give_the_optimal_assignment(self, request,
                                                        orbit):
        # bit for bit, on the claimed elements of converged and random
        # orbits and on bogus elements of a random criss-cross
        if orbit == "bogus-random":
            model, params = _random_values(
                lambda: build_crisscross(k_max=9), 23, 1.0)
            model = dataclasses.replace(model, symmetries=BOGUS_ELEMENTS)
        elif orbit in RANDOM_MODELS:
            model, params = _random_values(*RANDOM_MODELS[orbit])
        else:
            model, result = request.getfixturevalue(orbit)
            params = result.params
        errors = verify_symmetry(model, params).element_errors
        assert errors == _assignment_errors(model, params)
        if orbit == "bogus-random":   # both fail, each with a permutation
            assert all(1.0 < e < math.inf for e in errors)

    def test_nearest_image_error_on_ties_and_permutations(self):
        # images counted by bincount decide as distinct images do: on
        # permutations, on shared nearest images and on tied minima
        rng = np.random.default_rng(29)
        for n in (1, 2, 3, 5, 8):
            perm = rng.permutation(n)
            cost = rng.uniform(1.0, 2.0, (n, n))
            cost[np.arange(n), perm] = rng.uniform(0.0, 0.5, n)
            shared, tied = cost.copy(), cost.copy()
            shared[-1, perm[0]] = 0.0          # two rows, one image
            tied[0, :] = tied[0, perm[0]]      # argmin takes column 0
            for c in (cost, shared, tied, np.ones((n, n)), np.eye(n)):
                nearest = c.argmin(axis=1)
                expected = (math.inf if len(set(nearest.tolist())) < n
                            else float(c[np.arange(n), nearest].max()))
                assert _nearest_image_error(c) == expected, (n, c)

    def test_verify_symmetry_imports_no_masked_arrays(self):
        # a fresh interpreter that verifies a record's symmetries never
        # loads numpy.ma (np.unique would, on its first call)
        code = ("import sys\n"
                "import actionorbits as ao\n"
                "model, params = ao.build_cubic_family(3, k_max=9)\n"
                "report = ao.verify_symmetry(model, params)\n"
                "print(report.passed, 'numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(ao.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.split() == ["True", "False"]

    @pytest.mark.parametrize("times", [[], np.array([]), [0.0, math.nan],
                                       [math.inf], [0.5, -math.inf]],
                             ids=["list", "array", "nan", "inf", "-inf"])
    def test_times_must_be_nonempty_and_finite(self, times):
        model, params = build_crisscross(k_max=9)
        with pytest.raises(ValueError, match="finite times"):
            verify_symmetry(model, params, times=times)


class TestSharedTrigTables:
    """The sampler reads one trig table per call, at the plain times, and
    moves each column's shift into its coefficients.  It must stay within
    EXACT_BOUND of a 40-digit evaluation, no further off than the
    per-column evaluation at (t + phase) + offset on the benchmark's
    orbits, and sample a batch to the bits of each entry alone."""

    @pytest.fixture(params=list(BENCHMARK_FAMILIES) + list(RANDOM_MODELS))
    def orbit(self, request):
        if request.param in RANDOM_MODELS:
            return _random_values(*RANDOM_MODELS[request.param])
        return BENCHMARK_FAMILIES[request.param]()

    def test_positions_match_per_column_evaluation(self, orbit):
        model, params = orbit
        tables = params.layout.expand(params.values)
        rng = np.random.default_rng(17)
        for t in (np.array([0.37]), rng.uniform(-7.0, 7.0, 17),
                  np.arange(32) * (2.0 * math.pi / 32)):
            together = sample_positions(model, params, t, (0, 1, 2))
            exact = exact_sampler(model, tables, t, (0, 1, 2))
            for deriv in (0, 1, 2):
                got = sample_positions(model, params, t, deriv)
                assert np.array_equal(together[deriv], got), deriv
                assert relative_error(got, exact[deriv]) <= EXACT_BOUND, \
                    (t.size, deriv)
        # the curve's and the track's sample count, where the 40-digit
        # oracle would take seconds per orbit: the sampler stays within
        # EXACT_BOUND of the per-column evaluation it replaced
        t = np.arange(CURVE_SAMPLES) * (2.0 * math.pi / CURVE_SAMPLES)
        together = sample_positions(model, params, t, (0, 1, 2))
        for deriv in (0, 1, 2):
            got = sample_positions(model, params, t, deriv)
            assert np.array_equal(together[deriv], got), deriv
            expected = per_column_sampler(model, tables, t, deriv)
            assert (np.abs(got - expected).max()
                    <= EXACT_BOUND * np.abs(expected).max()), deriv
        together = sample_positions(model, params, 0.37, (0, 1, 2))
        for deriv in (0, 1, 2):
            expected = sample_positions(model, params, np.array([0.37]),
                                        deriv)[:, 0]
            got = sample_positions(model, params, 0.37, deriv)
            assert np.array_equal(got, expected), deriv
            assert np.array_equal(together[deriv], expected), deriv

    @pytest.mark.parametrize("family", list(BENCHMARK_FAMILIES))
    def test_no_less_accurate_than_per_column_evaluation(self, family):
        # at the builder seed and at the descent's converged values
        model, params = BENCHMARK_FAMILIES[family]()
        rng = np.random.default_rng(19)
        for values in (params, ao.run(model, params).params):
            tables = values.layout.expand(values.values)
            for t in (rng.uniform(-7.0, 7.0, 17),
                      np.arange(32) * (2.0 * math.pi / 32)):
                exact = exact_sampler(model, tables, t, (0, 1, 2))
                got = sample_positions(model, values, t, (0, 1, 2))
                for deriv in (0, 1, 2):
                    assert relative_error(got[deriv], exact[deriv]) \
                        <= relative_error(per_column_sampler(
                            model, tables, t, deriv), exact[deriv]), deriv

    def test_batched_units_match_per_column_evaluation(self, orbit):
        # each slot's unit vector in a batch samples to the bits of the
        # same unit sampled alone
        model, params = orbit
        units = np.eye(len(params))
        t = ao.QuadratureGrid.for_kmax(model.k_max).nodes
        sampled = sample_tables(model, params.layout.expand(units), t,
                                (0, 1, 2))
        for s, unit in enumerate(units):
            alone = sample_tables(model, params.layout.expand(unit), t,
                                  (0, 1, 2))
            for deriv in (0, 1, 2):
                assert np.array_equal(sampled[deriv][:, :, s],
                                      alone[deriv]), (s, deriv)

    @pytest.mark.parametrize("family, shifts", [
        ("crisscross", 1), ("figure-eight", 3), ("cubic-m3", 9)])
    def test_each_distinct_table_is_built_once_per_call(
            self, monkeypatch, family, shifts):
        # criss-cross: 3 generators x 3 columns at phase 0, offset 0;
        # figure-eight: 3 phases; cubic m=3: 3 phases x 3 offsets.  The
        # columns at those distinct shifts all read one table at the
        # plain times.
        module = importlib.import_module("actionorbits.symmetry")
        calls = _counting(monkeypatch, module, "trig_table")
        model, params = BENCHMARK_FAMILIES[family]()
        assert len({(b.phase, off) for b in model.bindings
                    for _, off in model.generators[b.generator].columns}) \
            == shifts
        t = np.linspace(0.0, 6.0, 50)
        sample_positions(model, params, t, deriv=2)
        assert len(calls) == 1
        assert calls[0][0] is t
        # the kernel's position basis at its nodes, once the orbits that
        # choose them are derived (they sample their own check times)
        _orbits(model, params)
        calls.clear()
        kernel = ao.EvalKernel(model, params)
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], kernel.grid.nodes[kernel.nodes])

    @pytest.mark.parametrize("family", ["crisscross", "crisscross-123"])
    def test_zero_shift_columns_keep_the_per_column_bytes(self, monkeypatch,
                                                          family):
        # every criss-cross column has phase 0 and offset 0, and a turn by
        # 0 leaves its coefficients as they are: its samples, its run and
        # its track are the bytes of the per-column evaluation
        model, params = BENCHMARK_FAMILIES[family]()
        rng = np.random.default_rng(31)
        moved = params.with_values(params.values
                                   + 0.01 * rng.normal(size=len(params)))
        tables = moved.layout.expand(moved.values)
        t = np.concatenate([rng.uniform(-7.0, 7.0, 17),
                            ao.QuadratureGrid.for_kmax(model.k_max).nodes])
        for deriv, got in enumerate(sample_positions(model, moved, t,
                                                     (0, 1, 2))):
            assert np.array_equal(
                got, per_column_sampler(model, tables, t, deriv)), deriv

        def outcome():   # with the sampler's caches emptied
            space_time_orbits.cache_clear()
            importlib.import_module(
                "actionorbits.integrate")._cached_reference.cache_clear()
            result = ao.run(model, params)
            report = ao.perturb_and_track(
                model, result.params, np.full((model.n_bodies, 3), 1e-6),
                n_periods=1.0)
            return (result.params.values.tobytes(), result.iterations,
                    result.residual, result.grad_norm,
                    report.max_deviation, report.sample_times.tobytes(),
                    report.section_points.tobytes())

        current = outcome()

        def per_column(model, tables, t, orders):
            return [per_column_sampler(model, tables, t, order)
                    for order in orders]

        for name in ("actionorbits.symmetry", "actionorbits.action"):
            monkeypatch.setattr(importlib.import_module(name),
                                "sample_tables", per_column)
        assert outcome() == current

    @pytest.mark.parametrize("deriv", [3, -1, 5])
    def test_derivative_order_outside_0_to_2_rejected(self, deriv):
        model, params = build_crisscross(k_max=9)
        with pytest.raises(ValueError, match="derivative order"):
            sample_positions(model, params, 0.1, deriv=deriv)
        with pytest.raises(ValueError, match="derivative order"):
            sample_tables(model, params.layout.expand(params.values),
                          np.array([0.1]), (0, deriv))

    def test_verify_symmetry_samples_only_moved_times(self, monkeypatch):
        # cubic m=3 claims 15 elements; 12 keep the times (sigma is the
        # identity) and reuse the base samples
        module = importlib.import_module("actionorbits.symmetry")
        model, params = _random_values(*RANDOM_MODELS["cubic3-random"])
        moved = [s for s in model.symmetries
                 if s.time_reversal or s.time_shift != 0.0]
        assert (len(model.symmetries), len(moved)) == (15, 3)
        calls = _counting(monkeypatch, module, "sample_positions")
        verify_symmetry(model, params)
        assert len(calls) == 1 + len(moved)


@pytest.mark.parametrize("build", [
    lambda k: build_cubic_family(1, k_max=k),
    lambda k: build_crisscross(k_max=k),
    lambda k: build_crisscross((1.0, 2.0, 3.0), k_max=k)],
    ids=["cubic", "crisscross", "crisscross-123"])
@pytest.mark.parametrize("k_max", [0, -1])
def test_builders_reject_k_max_below_one(build, k_max):
    with pytest.raises(ValueError, match="k_max"):
        build(k_max)


class TestChoreography:
    def test_default_seed_is_unit_circle(self):
        model, params = build_choreography(3, k_max=9)
        t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        pos = sample_positions(model, params, t)
        radii = np.sqrt(np.sum(pos**2, axis=2))
        assert np.allclose(radii, 1.0)
        # bodies sit at Lagrange phases on a shared curve
        assert np.allclose(
            sample_positions(model, params, 0.0)[1],
            sample_positions(model, params, 2.0 * math.pi / 3.0)[0])

    def test_seed_entries_and_validation(self):
        model, params = build_choreography(
            2, seed={("x", SIN, 3): 0.25, ("y", COS, 1): 1.0}, k_max=9)
        (table,) = params.layout.expand(params.values)
        assert table[0, 0, 3] == 0.25   # x, sin, k = 3
        assert table[1, 1, 1] == 1.0    # y, cos, k = 1
        with pytest.raises(LayoutError):
            build_choreography(2, seed={("x", COS, 1): 1.0}, k_max=9)
        # an unknown seed coordinate was a bare KeyError
        for name in ("w", "X", 0):
            for kwargs in ({"active": {name: (SIN,)}},
                           {"seed": {(name, SIN, 1): 1.0}}):
                with pytest.raises(LayoutError,
                                   match=f"unknown coordinate {name!r}"):
                    build_choreography(2, **kwargs)
        # each of these harmonics used to be truncated to seed k = 1
        for k in (1.5, True, "1"):
            with pytest.raises(LayoutError, match="integer"):
                build_choreography(2, seed={("x", SIN, k): 1.0}, k_max=9)
        _, params = build_choreography(2, seed={("x", SIN, np.int64(3)): 0.5},
                                       k_max=9)
        assert params.layout.expand(params.values)[0][0, 0, 3] == 0.5
        for n in (0, -1, 1.5, 3.0, True):
            with pytest.raises(ValueError):
                build_choreography(n)

    def test_shift_symmetry_holds(self):
        model, params = build_choreography(4, k_max=9)
        rng = np.random.default_rng(13)
        params = params.with_values(0.3 * rng.normal(size=len(params)))
        report = verify_symmetry(model, params)
        assert report.passed


def _all_harmonics_model():
    """Two bodies on one vector curve of every harmonic up to 3."""
    return build_choreography(2, k_max=3, parity=Parity.ALL)[0]


class TestLayout:
    def test_slot_validation(self):
        # a slot is a plain value; make_layout checks its basis and the
        # basis's lowest harmonic
        model = _all_harmonics_model()
        Slot(0, 0, "tan", 1)
        with pytest.raises(LayoutError, match="unknown basis"):
            make_layout(model, [Slot(0, 0, "tan", 1)])
        with pytest.raises(LayoutError, match="harmonic k=0"):
            make_layout(model, [Slot(0, 0, SIN, 0)])
        with pytest.raises(LayoutError, match="expected a Slot"):
            make_layout(model, [(0, 0, SIN, 1)])
        # constant term is a valid cosine slot
        make_layout(model, [Slot(0, 0, COS, 0)])

    def test_coupling_validation(self):
        model = _all_harmonics_model()
        slots = [Slot(0, 0, SIN, 1)]
        Coupling(0, 0, 1, SIN, 1, 0.5)
        with pytest.raises(LayoutError, match="unknown basis"):
            make_layout(model, slots, [Coupling(0, 0, 1, "tan", 1, 1.0)])
        with pytest.raises(LayoutError, match="sign"):
            make_layout(model, slots, [Coupling(0, 0, 1, SIN, 1, 0.5)])
        with pytest.raises(LayoutError, match="expected a Coupling"):
            make_layout(model, slots, [Slot(0, 1, SIN, 1)])
        make_layout(model, slots, [Coupling(0, 0, 1, SIN, 1, -1.0)])

    def test_coupling_target_is_a_valid_slot(self):
        # a coupling's target is checked as a slot is: no sine at k = 0
        with pytest.raises(LayoutError, match="harmonic k=0"):
            make_layout(_all_harmonics_model(), [Slot(0, 0, SIN, 1)],
                        [Coupling(0, 0, 1, SIN, 0, 1.0)])

    @pytest.mark.parametrize("target, name, value", [
        ("slot", "gen", True), ("slot", "channel", False),
        ("slot", "k", True), ("slot", "k", np.True_), ("slot", "k", 1.0),
        ("slot", "k", "1"), ("coupling", "slot", True),
        ("coupling", "slot", 0.0), ("coupling", "gen", False),
        ("coupling", "channel", True), ("coupling", "k", True),
        ("coupling", "sign", True), ("coupling", "sign", np.True_),
        ("coupling", "sign", "1")])
    def test_indices_and_signs_are_integers_not_bools(self, target, name,
                                                       value):
        # True == 1 and hashes as 1, so a bool used to pass for 0 or 1 and
        # the layout compared equal to the one with the integer
        model = _all_harmonics_model()
        slots, couplings = [Slot(0, 0, SIN, 1)], [Coupling(0, 0, 1, SIN, 1, 1.0)]
        make_layout(model, slots, couplings)
        if target == "slot":
            slots = [dataclasses.replace(slots[0], **{name: value})]
        else:
            couplings = [dataclasses.replace(couplings[0], **{name: value})]
        with pytest.raises(LayoutError, match=f"{name} must be"):
            make_layout(model, slots, couplings)

    def test_harmonic_beyond_its_channels_k_max_rejected(self):
        # the layout's k_max is the largest channel's; a harmonic must also
        # fit its own channel's
        odd = Parity.ODD_ONLY
        gen = ao.VectorGenerator(ao.Harmonics(1, odd), ao.Harmonics(9, odd),
                                 ao.Harmonics(9, odd))
        model = ao.OrbitModel((gen,), (BodyBinding(0, IDENTITY, 0.0),),
                              ao.PotentialSpec(), ao.Family("custom"))
        make_layout(model, [Slot(0, 0, SIN, 1), Slot(0, 1, SIN, 9)],
                    [Coupling(1, 0, 2, SIN, 9, 1.0)])
        with pytest.raises(LayoutError,
                           match="k_max=1 of generator 0 channel 0"):
            make_layout(model, [Slot(0, 0, SIN, 9)])
        with pytest.raises(LayoutError,
                           match="k_max=1 of generator 0 channel 0"):
            make_layout(model, [Slot(0, 1, SIN, 3)],
                        [Coupling(0, 0, 0, SIN, 3, 1.0)])

    def test_make_layout_builds_one_layout(self, monkeypatch):
        # every target is checked once, by the one layout make_layout
        # builds; a coupling builds no slot to check itself
        counts = {"layout": 0, "slot": 0}

        def counted(key, method):
            def wrapper(self, *args, **kwargs):
                counts[key] += 1
                return method(self, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(ao.ParamLayout, "__post_init__",
                            counted("layout", ao.ParamLayout.__post_init__))
        monkeypatch.setattr(Slot, "__init__", counted("slot", Slot.__init__))
        Coupling(0, 0, 1, SIN, 1, 1.0)
        assert counts == {"layout": 0, "slot": 0}
        _, params = build_crisscross(k_max=9)
        assert len(params.layout.couplings) == 15
        assert counts == {"layout": 1, "slot": params.layout.n_slots}

    def test_coupling_at_another_harmonic_rejected(self):
        # the kinetic term would apply slot 0's k = 1 to the tied k = 3
        # coefficient: a wrong analytic gradient
        model, params = build_choreography(3, k_max=5)
        slots = [s for s in params.layout.slots
                 if (s.channel, s.basis, s.k) != (1, COS, 3)]
        with pytest.raises(LayoutError, match="same harmonic"):
            make_layout(model, slots, [Coupling(0, 0, 1, COS, 3, 1.0)])

    def test_duplicate_targets_rejected(self):
        model, _ = build_crisscross(k_max=5)
        with pytest.raises(LayoutError, match="duplicate"):
            make_layout(model, [Slot(0, 0, COS, 1), Slot(0, 0, COS, 1)])
        with pytest.raises(LayoutError, match="duplicate"):
            make_layout(model, [Slot(0, 0, COS, 1)],
                        [Coupling(0, 0, 0, COS, 1, 1.0)])

    def test_coupling_must_reference_existing_slot(self):
        model, _ = build_crisscross(k_max=5)
        with pytest.raises(LayoutError):
            make_layout(model, [Slot(0, 0, COS, 1)],
                        [Coupling(5, 0, 1, SIN, 1, 1.0)])

    def test_missing_generator_or_channel_is_a_layout_error(self):
        # the layout's own checks run before the parity mask is read, so
        # neither target reaches the model's generators
        model, _ = build_cubic_family(1, k_max=9)
        with pytest.raises(LayoutError, match="missing generator 1"):
            make_layout(model, [Slot(1, 0, SIN, 1)])
        with pytest.raises(LayoutError, match="no channel 1"):
            make_layout(model, [Slot(0, 1, SIN, 1)])
        with pytest.raises(LayoutError, match="missing generator 2"):
            make_layout(model, [Slot(0, 0, SIN, 1)],
                        [Coupling(0, 2, 0, SIN, 1, 1.0)])

    def test_parity_and_range_guards(self):
        model, _ = build_cubic_family(1, k_max=9)
        with pytest.raises(LayoutError):
            make_layout(model, [Slot(0, 0, SIN, 2)])  # even harmonic
        with pytest.raises(LayoutError):
            make_layout(model, [Slot(0, 0, SIN, 11)])  # beyond k_max
        with pytest.raises(LayoutError):
            make_layout(model, [Slot(0, 0, COS, 0)])  # constant under ODD_ONLY

    def test_two_builds_compare_and_hash_equal(self):
        for builder in (lambda: build_cubic_family(3, k_max=9),
                        lambda: build_crisscross(k_max=9),
                        lambda: build_choreography(3, k_max=9)):
            (model, first), (other, second) = builder(), builder()
            for a, b in ((first.layout, second.layout), (model, other)):
                assert a is not b
                assert a == b and hash(a) == hash(b) == hash(a)

    def test_cached_hash_is_left_out_of_pickles(self):
        # the model and layout hash once; a copy made by pickling hashes
        # afresh, since string hashes differ between processes
        model, params = build_choreography(3, k_max=9)
        for value in (model, params.layout):
            hash(value)
            state = value.__getstate__()
            assert "_hash" not in state
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and hash(copy) == hash(value)

    @pytest.mark.parametrize("change", [
        lambda lay: dataclasses.replace(lay, slots=lay.slots[:-1] + (
            dataclasses.replace(lay.slots[-1], channel=1),)),
        lambda lay: dataclasses.replace(lay, couplings=(dataclasses.replace(
            lay.couplings[0], sign=-lay.couplings[0].sign),)
            + lay.couplings[1:]),
        lambda lay: dataclasses.replace(lay, k_max=lay.k_max + 2),
        lambda lay: dataclasses.replace(lay, channels=[
            [ao.Harmonics(lay.k_max, Parity.ALL)] * 3] * 3)],
        ids=["slot", "coupling", "k_max", "channels"])
    def test_a_changed_field_compares_unequal(self, change):
        layout = build_crisscross(k_max=9)[1].layout
        assert change(layout) != layout

    def test_kinetic_mass_is_not_part_of_the_identity(self):
        # the kinetic masses follow from the channel multiplicities, and
        # neither is compared or hashed
        layout = build_crisscross(k_max=9)[1].layout
        heavier = dataclasses.replace(layout, channel_multiplicity=[
            [2.0 * m for m in ch] for ch in layout.channel_multiplicity])
        assert heavier.kinetic_mass.tolist() == (
            2.0 * layout.kinetic_mass).tolist()
        assert heavier == layout and hash(heavier) == hash(layout)
        with pytest.raises(LayoutError, match="one entry per channel"):
            dataclasses.replace(layout, channel_multiplicity=[[1.0]] * 3)

    def test_project_is_the_transpose_of_expand(self):
        # project is the chain-rule adjoint, so project(expand(v)) scales
        # each slot by 1 + (number of couplings hanging off it)
        for builder in (lambda: build_crisscross(k_max=9),
                        lambda: build_crisscross((1.0, 2.0, 3.0), k_max=9),
                        lambda: build_cubic_family(3, k_max=9)):
            model, params = builder()
            layout = params.layout
            mult = np.ones(layout.n_slots)
            for c in layout.couplings:
                mult[c.slot] += c.sign**2
            rng = np.random.default_rng(layout.n_slots)
            v = rng.normal(size=layout.n_slots)
            assert np.allclose(project(layout, layout.expand(v)), mult * v)

    def test_expand_respects_coupling_signs(self):
        model, params = build_crisscross(k_max=5)
        layout = params.layout
        rng = np.random.default_rng(2)
        v = rng.normal(size=layout.n_slots)
        tables = layout.expand(v)
        for c in layout.couplings:
            axis = 0 if c.basis == SIN else 1
            assert tables[c.gen][c.channel, axis, c.k] == c.sign * v[c.slot]

    def test_expand_leaves_off_slots_zero(self):
        model, params = build_cubic_family(1, k_max=9)
        tables = params.layout.expand(params.values)
        assert len(tables) == 1
        table = tables[0]
        # channel 0, sin row: only k=1 set; cos row and even k all zero
        assert table[0, 0, 1] == 1.0
        table[0, 0, 1] = 0.0
        assert np.all(table == 0.0)

    def test_reduced_params_validation(self):
        model, params = build_cubic_family(1, k_max=9)
        with pytest.raises(LayoutError):
            ReducedParams(params.layout, np.zeros(3))
        with pytest.raises(ValueError):
            ReducedParams(params.layout,
                          np.full(params.layout.n_slots, np.nan))

    def test_values_are_read_only(self):
        _, params = build_cubic_family(1, k_max=9)
        with pytest.raises(ValueError):
            params.values[0] = 2.0


class TestModelValidation:
    def test_binding_requires_existing_generator(self):
        model, _ = build_cubic_family(1, k_max=5)
        bad = model.bindings + (BodyBinding(7, IDENTITY, 0.0, 1.0),)
        with pytest.raises(ValueError):
            dataclasses.replace(model, bindings=bad)

    def test_binding_mass_and_index_guards(self):
        with pytest.raises(ValueError):
            BodyBinding(-1, IDENTITY, 0.0, 1.0)
        with pytest.raises(ValueError):
            BodyBinding(0, IDENTITY, 0.0, 0.0)

    @pytest.mark.parametrize("generator,phase,match", [
        (True, 0.0, "generator index"), (False, 0.0, "generator index"),
        (1.5, 0.0, "generator index"), (1.0, 0.0, "generator index"),
        ("0", 0.0, "generator index"), (None, 0.0, "generator index"),
        (0, math.nan, "phase"), (0, math.inf, "phase"),
        (0, -math.inf, "phase")],
        ids=["true", "false", "float-1.5", "float-1.0", "string", "none",
             "nan-phase", "inf-phase", "minus-inf-phase"])
    def test_binding_refuses_a_bad_generator_or_phase(self, generator, phase,
                                                      match):
        # a generator that is not a non-negative integer (a bool is not
        # one) and a phase that is not finite are refused, not stored
        with pytest.raises(ValueError, match=match):
            BodyBinding(generator, IDENTITY, phase)

    def test_binding_takes_numpy_integers(self):
        binding = BodyBinding(np.int64(2), IDENTITY, -0.5)
        assert binding.generator == 2
        assert binding.phase == -0.5 % (2 * math.pi)

    @pytest.mark.parametrize("mass,phase,match", [
        ("1", 0.0, "mass"), (True, 0.0, "mass"), (np.bool_(True), 0.0, "mass"),
        (None, 0.0, "mass"), (1.0, "0.5", "phase"), (1.0, True, "phase"),
        (1.0, None, "phase")],
        ids=["string-mass", "true-mass", "numpy-bool-mass", "none-mass",
             "string-phase", "true-phase", "none-phase"])
    def test_binding_mass_and_phase_are_numbers(self, mass, phase, match):
        # a string, a bool or None is not a mass or a phase: refused with a
        # ValueError, not a TypeError, and never stored
        with pytest.raises(ValueError, match=match):
            BodyBinding(0, IDENTITY, phase, mass)

    def test_binding_takes_numpy_floats(self):
        binding = BodyBinding(0, IDENTITY, np.float64(0.5), np.float32(2.0))
        assert (binding.phase, binding.mass) == (0.5, 2.0)

    @pytest.mark.parametrize("change", [
        {"time_shift": math.nan}, {"time_shift": math.inf},
        {"time_shift": "0.5"}, {"time_shift": True}, {"time_shift": None},
        {"time_reversal": 1}, {"time_reversal": "yes"},
        {"time_reversal": None}],
        ids=["nan-shift", "inf-shift", "string-shift", "bool-shift",
             "none-shift", "int-reversal", "string-reversal",
             "none-reversal"])
    def test_symmetry_checks_its_fields(self, change):
        # a claimed element with a time shift that is not a finite number,
        # or a time reversal that is not a bool, is refused where it is
        # made, before descent or verify_symmetry reads it
        model, _ = build_choreography(3, k_max=9)
        with pytest.raises(ValueError, match=next(iter(change))):
            dataclasses.replace(model.symmetries[0], **change)

    def test_model_needs_bodies(self):
        model, _ = build_cubic_family(1, k_max=5)
        with pytest.raises(ValueError):
            dataclasses.replace(model, bindings=())


def _screw_model(k_max=5):
    """Four unit masses x_j(t) = R_z^j g(t + j pi/2), R_z the quarter
    turn about z, and values whose g is a circle at twice the frequency
    plus small random terms, so that the bodies stay apart."""
    quarter = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    bindings = [BodyBinding(0, OrthTransform(np.linalg.matrix_power(quarter, j)),
                            j * math.pi / 2) for j in range(4)]
    gen = ao.VectorGenerator(*(ao.Harmonics(k_max, Parity.ALL)
                               for _ in range(3)))
    model = ao.OrbitModel((gen,), bindings, ao.PotentialSpec(),
                          ao.Family("custom"))
    slots = [Slot(0, ch, basis, k) for ch in range(3) for basis in (SIN, COS)
             for k in range(1, k_max + 1)]
    values = 0.05 * np.random.default_rng(4).normal(size=len(slots))
    values[slots.index(Slot(0, 0, COS, 2))] = 1.0
    values[slots.index(Slot(0, 1, SIN, 2))] = 1.0
    return model, ReducedParams(make_layout(model, slots), values)


def _custom_model(phases, masses):
    """Bodies on one curve at the given phases and masses, untransformed."""
    model, _ = build_choreography(len(phases), k_max=9)
    bindings = [BodyBinding(0, IDENTITY, p, m) for p, m in zip(phases, masses)]
    return dataclasses.replace(model, bindings=bindings)


def _orbits(model, params, n_nodes=None):
    if n_nodes is None:
        n_nodes = ao.QuadratureGrid.for_kmax(model.k_max).n
    return space_time_orbits(model, params.layout, n_nodes)


def _orbit_counts(model, params):
    """(orbits, pairs of the grid, nodes of the representatives, pair
    evaluations of the representatives)."""
    orbits = _orbits(model, params)
    return (orbits.sizes.size, orbits.orbit.size,
            np.unique(orbits.nodes).size,
            orbits.sizes.size * (model.n_bodies - 1))


def _walk(orbits, n_nodes):
    """Per orbit, every (body, node) reached from its representative by
    the elements, with the transform that carries the representative
    there."""
    images = [(e, e.node_images(n_nodes)) for e in orbits.elements]
    for lead in zip(orbits.bodies.tolist(), orbits.nodes.tolist()):
        seen = {lead: np.eye(3, dtype=int)}
        frontier = [lead]
        while frontier:
            i, j = frontier.pop()
            for e, nodes in images:
                image = (e.bodies[i], int(nodes[j]))
                if image not in seen:
                    seen[image] = e.transform.matrix @ seen[(i, j)]
                    frontier.append(image)
        yield lead, seen


def _check_orbits(model, params, n_nodes=None):
    """At the values ``params``, every (body, node) equals its orbit's
    representative turned by the element that carries it there; the
    orbits partition the grid's pairs, each led by its first pair node
    by node, and their sizes count their members."""
    orbits = _orbits(model, params, n_nodes)
    n_nodes = orbits.orbit.shape[1]
    pos = sample_positions(model, params, ao.QuadratureGrid(n_nodes))
    members = 0
    for k, (lead, seen) in enumerate(_walk(orbits, n_nodes)):
        assert min((j, i) for i, j in seen) == lead[::-1]
        assert len(seen) == orbits.sizes[k]
        members += len(seen)
        for (i, j), turn in seen.items():
            assert orbits.orbit[i, j] == k
            assert np.allclose(pos[i, j], turn @ pos[lead], rtol=0,
                               atol=1e-12), (lead, i, j)
    assert members == orbits.orbit.size


class TestSpaceTimeOrbits:
    @pytest.mark.parametrize("name,counts", [
        ("cubic-m1", (29, 448, 29, 87)),
        ("cubic-m3", (29, 1344, 29, 319)),
        ("cubic-m5", (141, 2240, 29, 2679)),
        ("cubic-m7", (29, 3136, 5, 783)),
        ("crisscross", (111, 432, 37, 222)),
        ("crisscross-123", (111, 432, 37, 222)),
        ("figure-eight", (132, 396, 44, 264)),
    ])
    def test_benchmark_orbits(self, name, counts):
        # the cubic families keep their rotations, the half-period turn
        # and the time reversal on 112 nodes, and the Lagrange shift
        # 2 pi/m where 112 is a multiple of m; the criss-crosses keep the
        # half-period turn and the reversal, the figure-eight its shift
        # 2 pi/3 (44 of its 132 nodes)
        model, params = BENCHMARK_FAMILIES[name]()
        assert _orbit_counts(model, params) == counts
        _, params = _random_values(BENCHMARK_FAMILIES[name], 3, 0.3)
        _check_orbits(model, params)

    def test_orbit_sizes_at_the_fixed_nodes(self):
        # t -> -t fixes the nodes at 0 and pi, t -> pi - t those at pi/2
        # and 3 pi/2: there an orbit has half the pairs of a generic one
        for build, generic in ((BENCHMARK_FAMILIES["cubic-m1"], 16),
                               (lambda: build_crisscross(k_max=9), 4)):
            model, params = build()
            orbits = _orbits(model, params)
            n_nodes = orbits.orbit.shape[1]
            sizes = orbits.sizes[orbits.orbit[0]]
            fixed = [0, n_nodes // 4, n_nodes // 2, 3 * n_nodes // 4]
            assert sizes[fixed].tolist() == [generic // 2] * 4
            others = np.delete(sizes, fixed)
            assert others.tolist() == [generic] * others.size

    def test_screw_model_is_one_body_orbit(self):
        # R_z carries body 0 to body 1 with the phase gap +pi/2 and no
        # claim says so; the element with the gap's opposite, -pi/2,
        # maps no binding onto a binding.  Every body at the first 6 of
        # 24 nodes represents an orbit of 4 pairs.
        model, params = _screw_model()
        assert model.symmetries == ()
        assert _orbit_counts(model, params) == (24, 96, 6, 72)
        assert {e.steps for e in _orbits(model, params).elements} \
            == {6, 12, 18}
        _check_orbits(model, params)
        kernel = ao.EvalKernel(model, params)
        report = ao.action_with_gradient(model, params, kernel=kernel)
        S, grad = full_pair_action(kernel, params.values)
        assert ao.min_pair_distance(kernel.full_positions(params.values)) \
            > 0.5
        assert abs(report.S - S) <= 1e-12 * abs(S)
        assert np.max(np.abs(report.gradient - grad)) <= \
            1e-12 * np.max(np.abs(grad))

    def test_lagrange_shift_on_a_grid_that_resolves_it(self):
        # 4 * 29 + 4 = 120 nodes hold the shift 2 pi/5 as 24 steps
        model, params = build_cubic_family(5, k_max=29)
        assert _orbit_counts(model, params) == (31, 2400, 7, 589)
        _check_orbits(model, _random_values(
            lambda: build_cubic_family(5, k_max=29), 5, 0.3)[1])

    @pytest.mark.parametrize("phases,masses", [
        # the shift 2 pi/5 takes the phase 4 pi/5 to 6 pi/5, no body's
        ((0.0, 2 * math.pi / 5, 4 * math.pi / 5), (1.0, 1.0, 1.0)),
        # a choreography's phases with one heavier body
        ((0.0, 2 * math.pi / 3, 4 * math.pi / 3), (1.0, 1.0, 2.0)),
    ])
    def test_bindings_that_are_not_closed_keep_their_bodies(self, phases,
                                                            masses):
        # the claimed shift 2 pi/3 is false for these bindings; only the
        # half-period turn of the odd harmonics holds, body by body
        model = _custom_model(phases, masses)
        _, params = build_choreography(3, k_max=9)
        orbits = _orbits(model, params, 120)
        assert [(e.bodies, e.reversal, e.steps) for e in orbits.elements] \
            == [((0, 1, 2), False, 60)]
        assert orbits.sizes.tolist() == [2] * 180

    def test_equal_masses_at_those_phases_reduce(self):
        model = _custom_model((0.0, 2 * math.pi / 3, 4 * math.pi / 3),
                              (2.0, 2.0, 2.0))
        _, params = build_choreography(3, k_max=9)
        # 120 nodes hold the shift 2 pi/3 as 40 steps, 40 nodes do not
        assert _orbits(model, params, 120).sizes.tolist() == [6] * 60
        assert _orbits(model, params, 40).sizes.tolist() == [2] * 60
        _check_orbits(model, _random_values(
            lambda: (model, params), 7, 0.3)[1], 120)

    def test_a_half_period_turn_needs_odd_harmonics(self):
        # x(t + pi) = -x(t) holds for a layout of odd harmonics only; the
        # generator allows every harmonic, so the claim alone decides
        # nothing
        half_turn = SpaceTimeSymmetry(OrthTransform(-np.eye(3, dtype=int)),
                                      time_shift=math.pi)
        for parity, holds in ((Parity.ODD_ONLY, True), (Parity.ALL, False)):
            model, params = build_choreography(2, k_max=9)
            model = dataclasses.replace(model, generators=(ao.VectorGenerator(
                *(ao.Harmonics(9, Parity.ALL) for _ in range(3))),),
                symmetries=(half_turn,))
            slots = [Slot(0, ch, basis, k) for ch, basis in ((0, SIN), (1, COS))
                     for k in range(1, 10) if parity.allows(k)]
            layout = make_layout(model, slots)
            orbits = space_time_orbits(model, layout, 40)
            steps = {e.steps for e in orbits.elements if e.reversal is False
                     and e.transform.matrix[0, 0] == -1}
            assert (20 in steps) is holds, parity

    def test_a_reversal_needs_one_basis_per_channel(self):
        # x sine and y cosine: g(-t) = diag(-1, 1, 1) g(t), so t -> -t
        # with that turn maps body j onto body -j; with x also carrying
        # cosines it holds for no body
        reversal = SpaceTimeSymmetry(OrthTransform(np.diag([-1, 1, 1])),
                                     time_reversal=True)
        for x_bases, holds in (((SIN,), True), ((SIN, COS), False)):
            model, params = build_choreography(
                3, active={"x": x_bases, "y": (COS,)}, k_max=9,
                parity=Parity.ALL)
            model = dataclasses.replace(model, symmetries=(reversal,))
            elements = _orbits(model, params).elements
            assert [(e.bodies, e.reversal) for e in elements] == \
                ([((0, 2, 1), True)] if holds else []), x_bases
            if holds:
                _check_orbits(model, params.with_values(
                    np.random.default_rng(2).normal(size=len(params))))

    def test_coincident_bodies_get_no_body_map(self):
        # bodies 0 and 1 share a binding, so both match body 2's image under
        # the shift by pi: no permutation, no element that moves a body
        model = _custom_model((0.0, 0.0, math.pi), (1.0, 1.0, 1.0))
        _, params = build_choreography(3, k_max=9)
        assert all(e.bodies == (0, 1, 2)
                   for e in _orbits(model, params, 40).elements)

    def test_a_mass_changing_element_is_not_used(self):
        # the bindings at Lagrange phases match under the shift 2 pi/3
        # whatever the masses, but a heavier body cannot stand for a
        # lighter one
        model = _custom_model((0.0, 2 * math.pi / 3, 4 * math.pi / 3),
                              (1.0, 1.0, 2.0))
        _, params = build_choreography(3, k_max=9)
        assert all(e.bodies == (0, 1, 2)
                   for e in _orbits(model, params, 120).elements)
