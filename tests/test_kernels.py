"""Kernel evaluation: frozen examples, closed-form vs Bessel oracle, Gram properties."""

import math

import numpy as np
import pytest

from gprates.errors import ConfigurationError, SingularGramWarning
from gprates.kernels import (
    KernelSpec,
    cross_matrix,
    gram,
    matern_eval,
    matern_of_r,
    min_eigenvalue,
)


class TestSpecValidation:
    def test_tau_must_exceed_half_dim(self):
        with pytest.raises(ConfigurationError):
            KernelSpec(tau=0.5, dim=1)
        with pytest.raises(ConfigurationError):
            KernelSpec(tau=1.0, dim=2)

    def test_positive_scales(self):
        with pytest.raises(ConfigurationError):
            KernelSpec(tau=2.0, lengthscale=0.0)
        with pytest.raises(ConfigurationError):
            KernelSpec(tau=2.0, amplitude=-1.0)

    def test_derived_order(self):
        assert KernelSpec(tau=2.0, dim=1).nu == 1.5
        assert KernelSpec(tau=2.0, dim=2).nu == 1.0
        assert KernelSpec(tau=2.0, dim=1).is_half_integer
        assert not KernelSpec(tau=2.0, dim=2).is_half_integer


class TestMaternValues:
    def test_coincident_points_give_amplitude(self):
        spec = KernelSpec(tau=1.0, lengthscale=1.0, amplitude=1.0, dim=1)
        assert matern_eval(spec, [0.0], [0.0]) == 1.0
        spec = KernelSpec(tau=1.7, lengthscale=0.3, amplitude=2.5, dim=1)
        assert matern_eval(spec, [0.4], [0.4]) == 2.5

    def test_exponential_closed_form(self):
        # nu = 1/2: A * exp(-r/l)
        spec = KernelSpec(tau=1.0, lengthscale=1.0, amplitude=1.0, dim=1)
        assert matern_eval(spec, [0.0], [1.0]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_nu_three_halves_closed_form(self):
        # nu = 3/2: A * (1 + sqrt(3) r/l) exp(-sqrt(3) r/l); at r = l = 1 the
        # value is (1 + sqrt(3)) exp(-sqrt(3)) = 0.48335772..., frozen from the
        # Bessel-series oracle below
        spec = KernelSpec(tau=2.0, lengthscale=1.0, amplitude=1.0, dim=1)
        v = matern_eval(spec, [0.0], [1.0])
        assert v == pytest.approx(0.4833577245965077, rel=1e-12)
        assert v == pytest.approx((1 + math.sqrt(3)) * math.exp(-math.sqrt(3)), rel=1e-12)

    def test_closed_forms_match_bessel_oracle(self):
        # half-integer orders nu = 1/2, 3/2, 5/2, 7/2 over r/l in [1e-6, 20]
        r = np.concatenate([np.logspace(-6, math.log10(20.0), 120), [1.0]])
        for tau in (1.0, 2.0, 3.0, 4.0):
            spec = KernelSpec(tau=tau, lengthscale=1.0, amplitude=1.4, dim=1)
            fast = matern_of_r(spec, r)
            oracle = matern_of_r(spec, r, use_bessel=True)
            np.testing.assert_allclose(fast, oracle, rtol=1e-9)

    def test_general_order_uses_bessel(self):
        spec = KernelSpec(tau=1.75, lengthscale=0.5, amplitude=1.0, dim=1)
        assert not spec.is_half_integer
        v = matern_eval(spec, [0.0], [0.25])
        assert 0.0 < v < 1.0
        assert matern_eval(spec, [0.1], [0.1]) == 1.0  # r = 0 handled analytically

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        spec = KernelSpec(tau=2.2, lengthscale=0.4, amplitude=1.1, dim=3)
        for _ in range(25):
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert matern_eval(spec, x, y) == matern_eval(spec, y, x)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        spec = KernelSpec(tau=1.6, lengthscale=0.7, amplitude=0.9, dim=2)
        for _ in range(25):
            x, y, c = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
            a = matern_eval(spec, x, y)
            b = matern_eval(spec, x + c, y + c)
            assert a == pytest.approx(b, abs=1e-12)

    def test_monotone_decay(self):
        spec = KernelSpec(tau=2.5, lengthscale=0.3, amplitude=1.0, dim=1)
        radii = np.linspace(0.0, 5.0, 400)
        vals = matern_of_r(spec, radii)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_dimension_mismatch_rejected(self):
        spec = KernelSpec(tau=2.0, dim=2)
        with pytest.raises(ConfigurationError):
            matern_eval(spec, [0.0], [1.0])


class TestGram:
    def test_single_point(self):
        spec = KernelSpec(tau=2.0, amplitude=1.7)
        K = gram(spec, np.array([[0.3]]), jitter=0.0)
        assert K.shape == (1, 1) and K[0, 0] == 1.7

    def test_duplicate_points_warn_and_return_rank_one(self):
        spec = KernelSpec(tau=2.0, amplitude=2.0)
        with pytest.warns(SingularGramWarning):
            K = gram(spec, np.array([[0.5], [0.5]]), jitter=0.0)
        np.testing.assert_allclose(K, [[2.0, 2.0], [2.0, 2.0]])

    def test_two_point_values(self):
        spec = KernelSpec(tau=1.0, lengthscale=1.0, amplitude=1.0)
        K = gram(spec, np.array([[0.0], [1.0]]), jitter=0.0)
        e1 = math.exp(-1.0)
        np.testing.assert_allclose(K, [[1.0, e1], [e1, 1.0]], rtol=1e-12)

    def test_exact_symmetry_and_jitter(self):
        rng = np.random.default_rng(7)
        spec = KernelSpec(tau=2.3, lengthscale=0.2, dim=2)
        X = rng.random((40, 2))
        K = gram(spec, X, jitter=1e-8)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == spec.amplitude + 1e-8)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            spec = KernelSpec(tau=rng.uniform(0.8, 3.0), lengthscale=rng.uniform(0.1, 1.0))
            X = rng.random((30, 1))
            K = gram(spec, X, jitter=0.0)
            assert min_eigenvalue(K) >= -1e-8 * spec.amplitude


class TestCrossVector:
    """The kernel vector ``k(x, X)`` of one point: a one-row cross matrix."""

    def test_at_design_point(self):
        spec = KernelSpec(tau=2.0, amplitude=1.3)
        v = cross_matrix(spec, [[0.4]], np.array([[0.4]]))[0]
        np.testing.assert_allclose(v, [1.3])

    def test_equidistant_symmetric(self):
        # dyadic coordinates so both distances are exactly 0.25
        spec = KernelSpec(tau=1.5, lengthscale=0.5)
        v = cross_matrix(spec, [[0.5]], np.array([[0.25], [0.75]]))[0]
        assert v[0] == v[1]

    def test_closed_form_values(self):
        spec = KernelSpec(tau=1.0, lengthscale=1.0, amplitude=1.0)
        v = cross_matrix(spec, [[0.5]], np.array([[0.0], [1.0]]))[0]
        np.testing.assert_allclose(v, [math.exp(-0.5)] * 2, rtol=1e-12)


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficient(self):
        assert min_eigenvalue(np.ones((2, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two(self):
        # char poly (2 - t)^2 - 1 = 0 -> t = 1, 3
        assert min_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))
