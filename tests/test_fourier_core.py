"""Fourier evaluation, harmonic shapes, scaling law, and periodic quadrature."""

import math

import numpy as np
import pytest

import actionorbits as ao
from actionorbits import Harmonics, Parity, QuadratureGrid
from actionorbits.fourier import contract, trig_table
from oracles import evaluate

TWO_PI = 2.0 * math.pi


def _random_coeffs(rng, k_max, parity):
    sin = rng.normal(size=k_max + 1)
    cos = rng.normal(size=k_max + 1)
    sin[0] = 0.0
    if parity is Parity.ODD_ONLY:
        sin[::2] = 0.0
        cos[::2] = 0.0
    return sin, cos


class TestEvaluation:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k_max = int(rng.integers(1, 13))
            parity = Parity.ALL if rng.random() < 0.5 else Parity.ODD_ONLY
            sin, cos = _random_coeffs(rng, k_max, parity)
            ts = rng.uniform(0.0, TWO_PI, size=17)
            ks = np.arange(k_max + 1)
            direct = (sin[None, :] * np.sin(np.outer(ts, ks))
                      + cos[None, :] * np.cos(np.outer(ts, ks))).sum(axis=1)
            value = contract(trig_table(ts, k_max), (sin, cos), 0)
            assert np.allclose(value, direct, atol=1e-12, rtol=0.0)

    def test_derivatives_match_direct_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            k_max = int(rng.integers(1, 10))
            sin, cos = _random_coeffs(rng, k_max, Parity.ALL)
            ts = rng.uniform(0.0, TWO_PI, size=11)
            ks = np.arange(k_max + 1)
            d1 = (sin[None, :] * ks * np.cos(np.outer(ts, ks))
                  - cos[None, :] * ks * np.sin(np.outer(ts, ks))).sum(axis=1)
            d2 = (-sin[None, :] * ks**2 * np.sin(np.outer(ts, ks))
                  - cos[None, :] * ks**2 * np.cos(np.outer(ts, ks))).sum(axis=1)
            table = trig_table(ts, k_max)
            assert np.allclose(contract(table, (sin, cos), 1), d1,
                               atol=1e-11, rtol=0.0)
            assert np.allclose(contract(table, (sin, cos), 2), d2,
                               atol=1e-10, rtol=0.0)

    def test_periodicity(self):
        sin = np.array([0.0, 1.0, 0.0, -0.2])
        cos = np.array([0.0, 0.0, 0.4, 0.0])
        ts = np.linspace(0.0, TWO_PI, 9)
        assert np.allclose(evaluate((sin, cos), ts, 0),
                           evaluate((sin, cos), ts + TWO_PI, 0), atol=1e-12)


class TestParity:
    def test_parity_allows(self):
        assert Parity.ALL.allows(2)
        assert Parity.ODD_ONLY.allows(3)
        assert not Parity.ODD_ONLY.allows(2)

    @pytest.mark.parametrize("k_max, parity", [
        (-1, Parity.ALL), (9.5, Parity.ALL), (True, Parity.ALL),
        ("9", Parity.ALL), (9, "odd_only")])
    def test_harmonics_rejects_malformed_shape(self, k_max, parity):
        with pytest.raises(ValueError):
            Harmonics(k_max, parity)


class TestScalingLaw:
    def test_gravity_period_doubling(self):
        law = ao.ScalingLaw(alpha=-1.0, period=2.0 * TWO_PI)
        assert law.scale_factor == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-12)

    def test_strong_force_period_doubling(self):
        law = ao.ScalingLaw(alpha=-2.0, period=2.0 * TWO_PI)
        assert law.scale_factor == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_identity_at_base_period(self):
        law = ao.ScalingLaw(alpha=-1.0, period=TWO_PI)
        assert law.scale_factor == pytest.approx(1.0, abs=1e-15)

    def test_invalid_exponents_rejected(self):
        with pytest.raises(ValueError):
            ao.ScalingLaw(alpha=2.0, period=TWO_PI)
        with pytest.raises(ValueError):
            ao.ScalingLaw(alpha=0.0, period=TWO_PI)
        with pytest.raises(ValueError):
            ao.ScalingLaw(alpha=-1.0, period=0.0)


class TestQuadrature:
    def test_nodes_and_weight(self):
        grid = QuadratureGrid(8)
        assert np.allclose(grid.nodes, np.arange(8) * TWO_PI / 8)
        assert grid.weight == pytest.approx(TWO_PI / 8)

    def test_trig_products_integrate_exactly(self):
        grid = QuadratureGrid.for_kmax(9)
        t = grid.nodes
        for k in range(1, 10):
            assert grid.integrate(np.sin(k * t) ** 2) == pytest.approx(
                math.pi, abs=1e-12)
            assert grid.integrate(np.cos(k * t) ** 2) == pytest.approx(
                math.pi, abs=1e-12)
            assert grid.integrate(np.sin(k * t) * np.cos(k * t)) == pytest.approx(
                0.0, abs=1e-12)
        assert grid.integrate(np.ones_like(t)) == pytest.approx(TWO_PI)

    def test_orthogonality_of_distinct_harmonics(self):
        grid = QuadratureGrid.for_kmax(6)
        t = grid.nodes
        rng = np.random.default_rng(3)
        for _ in range(20):
            j, k = rng.integers(1, 7, size=2)
            if j == k:
                continue
            assert grid.integrate(np.sin(j * t) * np.sin(k * t)) == pytest.approx(
                0.0, abs=1e-12)

    def test_for_kmax_supports_its_order(self):
        for k_max in (1, 5, 27):
            grid = QuadratureGrid.for_kmax(k_max)
            assert grid.n == 4 * k_max + 4
            assert grid.supports(k_max)
            grid.require(k_max)

    def test_require_raises_when_too_coarse(self):
        grid = QuadratureGrid(8)
        assert not grid.supports(2)
        with pytest.raises(ValueError):
            grid.require(2)

    def test_integrate_validates_sample_count(self):
        grid = QuadratureGrid(8)
        with pytest.raises(ValueError):
            grid.integrate(np.ones(7))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            QuadratureGrid(3)

    @pytest.mark.parametrize("n", [8.0, 5.5, True, "8", 2.5, 1.9])
    def test_node_count_must_be_an_integer(self, n):
        # 8.0 used to be accepted, and 5.5 and True rejected as too few;
        # a k_max was truncated by int(): for_kmax(2.5) built the k_max = 2
        # grid, for_kmax(True) an 8-node one, and supports(1.9) was True
        grid = QuadratureGrid(8)
        for call in (QuadratureGrid, QuadratureGrid.for_kmax, grid.supports,
                     grid.require):
            with pytest.raises(ValueError, match="integer"):
                call(n)

    def test_numpy_integer_node_count(self):
        grid = QuadratureGrid(np.int64(8))
        assert grid.n == 8 and type(grid.n) is int
        assert QuadratureGrid.for_kmax(np.int64(2)).n == 12
        assert grid.supports(np.int64(1)) and not grid.supports(np.int64(2))
