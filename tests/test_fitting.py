"""Conditioning: interpolation/regression identities and RKHS-norm properties."""

import math

import numpy as np
import pytest

from gprates.designs import Domain, PointSet, gen_grid
from gprates.errors import ConfigurationError
from gprates.fitting import (
    MeanSpec,
    fit,
    noise_interpolant_norm,
    posterior_mean,
    posterior_var,
    rkhs_norm_expansion,
)
from gprates.kernels import KernelSpec, gram, matern_eval, min_eigenvalue

UNIT = Domain((0.0,), (1.0,))
ZERO = MeanSpec("constant", 0.0)


def jittered_design(rng, n, lo=0.0, hi=1.0):
    """One point per cell keeps the separation radius bounded below."""
    u = rng.uniform(0.2, 0.8, n)
    pts = lo + (np.arange(n) + u) * (hi - lo) / n
    return PointSet(pts.reshape(-1, 1), Domain((lo,), (hi,)))


class TestFitBasics:
    def test_single_point_dual(self):
        spec = KernelSpec(tau=2.0, amplitude=2.0)
        X = PointSet(np.array([[0.4]]), UNIT)
        model = fit(spec, ZERO, X, [3.0], 0.0)
        np.testing.assert_allclose(model.dual, [1.5])  # c / A
        assert posterior_mean(model, [0.4]) == pytest.approx(3.0, rel=1e-9)

    def test_observations_equal_prior_mean(self):
        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        mean = MeanSpec("constant", 1.25)
        X = gen_grid(9, UNIT)
        for lam in (0.0, 0.1, 10.0):
            model = fit(spec, mean, X, np.full(9, 1.25), lam)
            np.testing.assert_allclose(model.dual, 0.0, atol=1e-12)
            assert posterior_mean(model, [0.05]) == pytest.approx(1.25)

    def test_ridge_shrinkage_limit(self):
        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        X = gen_grid(12, UNIT)
        y = np.sin(2 * np.pi * X.points[:, 0])
        model = fit(spec, ZERO, X, y, 1e12)
        assert np.linalg.norm(model.dual) <= 1e-9 * np.linalg.norm(y)

    def test_observation_count_checked(self):
        spec = KernelSpec(tau=2.0)
        with pytest.raises(ConfigurationError):
            fit(spec, ZERO, gen_grid(4, UNIT), [1.0, 2.0], 0.0)

    def test_chol_reconstructs_system(self):
        spec = KernelSpec(tau=2.0, lengthscale=0.25)
        X = gen_grid(20, UNIT)
        lam = 0.04
        model = fit(spec, ZERO, X, np.ones(20), lam)
        K = gram(spec, X, 0.0) + lam * np.eye(20)
        rel = np.linalg.norm(model.chol @ model.chol.T - K) / np.linalg.norm(K)
        assert rel < 1e-8


class TestReplicateColumns:
    """A fit to r columns of observations is bitwise r one-column fits."""

    @pytest.mark.parametrize("lam", [0.01, 0.0], ids=["ridge", "interpolation_jitter"])
    def test_columns_equal_single_fits(self, lam):
        rng = np.random.default_rng(4)
        spec = KernelSpec(tau=2.0, lengthscale=0.25)
        X = jittered_design(rng, 40)
        mean = MeanSpec("constant", 0.3)
        Y = np.sin(5 * X.points) + rng.normal(0.0, 0.1, (40, 6))
        batch = fit(spec, mean, X, Y, lam)
        assert batch.dual.shape == (40, 6)
        grid = gen_grid(300, UNIT).points
        means = posterior_mean(batch, grid)
        assert means.shape == (300, 6)
        for k in range(6):
            single = fit(spec, mean, X, Y[:, k], lam)
            assert batch.jitter == single.jitter
            assert np.array_equal(batch.dual[:, k], single.dual)
            assert np.array_equal(batch.replicate(k).dual, single.dual)
            # per-column matrix-vector products, not one matrix-matrix product
            assert np.array_equal(means[:, k], posterior_mean(single, grid))
        if lam == 0.0:
            assert batch.jitter > 0.0


class TestPosteriorMean:
    def test_interpolates_at_design_points(self):
        rng = np.random.default_rng(10)
        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        X = jittered_design(rng, 30)
        y = rng.standard_normal(30)
        model = fit(spec, ZERO, X, y, 0.0)
        pred = posterior_mean(model, X.points)
        scale = np.abs(y).max() + spec.amplitude
        assert np.max(np.abs(pred - y)) <= 1e-6 * scale

    def test_reverts_to_prior_far_away(self):
        dom = Domain((0.0,), (10.0,))
        spec = KernelSpec(tau=1.0, lengthscale=0.1)
        mean = MeanSpec("constant", 0.7)
        X = PointSet(np.array([[0.5], [0.6]]), dom)
        model = fit(spec, mean, X, [2.0, -1.0], 0.0)
        assert posterior_mean(model, [9.5]) == pytest.approx(0.7, abs=1e-6)

    def test_symmetric_two_point_system_matches_hand_solution(self):
        # midpoint prediction solved by hand from the 2x2 system
        spec = KernelSpec(tau=2.0, lengthscale=0.4, amplitude=1.0)
        X = PointSet(np.array([[0.25], [0.75]]), UNIT)
        kd = matern_eval(spec, [0.5], [0.25])
        k2 = matern_eval(spec, [0.25], [0.75])
        # equal observations c: prediction is 2 kd c / (A + k2)
        model = fit(spec, ZERO, X, [0.8, 0.8], 0.0)
        expected = 2 * kd * 0.8 / (1.0 + k2)
        assert posterior_mean(model, [0.5]) == pytest.approx(expected, rel=1e-9)
        # antisymmetric observations: prediction is their average, zero
        model = fit(spec, ZERO, X, [0.8, -0.8], 0.0)
        assert posterior_mean(model, [0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_linearity_in_observations(self):
        rng = np.random.default_rng(17)
        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        X = jittered_design(rng, 16)
        y1, y2 = rng.standard_normal(16), rng.standard_normal(16)
        grid = np.linspace(0.01, 0.99, 37)
        m1 = posterior_mean(fit(spec, ZERO, X, y1, 0.0), grid)
        m2 = posterior_mean(fit(spec, ZERO, X, y2, 0.0), grid)
        m12 = posterior_mean(fit(spec, ZERO, X, y1 + y2, 0.0), grid)
        np.testing.assert_allclose(m12, m1 + m2, rtol=1e-9, atol=1e-12)


class TestPosteriorVar:
    def test_zero_at_design_points(self):
        spec = KernelSpec(tau=2.0, lengthscale=0.3, amplitude=1.2)
        X = gen_grid(10, UNIT)
        model = fit(spec, ZERO, X, np.zeros(10), 0.0)
        assert max(posterior_var(model, p) for p in X.points) <= 1e-8 * 1.2

    def test_amplitude_far_away(self):
        dom = Domain((0.0,), (10.0,))
        spec = KernelSpec(tau=1.0, lengthscale=0.1, amplitude=1.5)
        X = PointSet(np.array([[0.5]]), dom)
        model = fit(spec, ZERO, X, [1.0], 0.0)
        assert posterior_var(model, [9.5]) == pytest.approx(1.5, rel=1e-6)

    def test_bounded_by_amplitude(self):
        rng = np.random.default_rng(23)
        spec = KernelSpec(tau=2.0, lengthscale=0.25, amplitude=0.8)
        X = jittered_design(rng, 12)
        model = fit(spec, ZERO, X, rng.standard_normal(12), 0.01)
        vals = posterior_var(model, np.linspace(0.01, 0.99, 101))
        assert np.all(vals <= 0.8 + 1e-12)
        assert np.all(vals >= 0.0)


class TestRkhsNorms:
    def test_single_center(self):
        spec = KernelSpec(tau=2.0, amplitude=1.69)
        assert rkhs_norm_expansion(spec, np.array([[0.3]]), [1.0]) == pytest.approx(1.3)

    def test_zero_coefficients(self):
        spec = KernelSpec(tau=2.0)
        assert rkhs_norm_expansion(spec, np.array([[0.2], [0.8]]), [0.0, 0.0]) == 0.0

    def test_two_centers_hand_value(self):
        # alpha = (1, 1), K = [[1, e^-1], [e^-1, 1]]: norm^2 = 2 + 2 e^-1
        spec = KernelSpec(tau=1.0, lengthscale=1.0, amplitude=1.0)
        centers = np.array([[0.0], [1.0]])
        assert gram(spec, centers)[0, 1] == pytest.approx(math.exp(-1), rel=1e-12)
        v = rkhs_norm_expansion(spec, centers, [1.0, 1.0])
        assert v == pytest.approx(math.sqrt(2 + 2 * math.exp(-1)), rel=1e-12)
        # sqrt(2 + 2 e^-1) = 1.6540129631725637, frozen from the closed form
        # above evaluated in float64
        assert v == pytest.approx(1.6540129631725637, rel=1e-9)

    def test_noise_interpolant_norm_basics(self):
        spec = KernelSpec(tau=2.0, amplitude=4.0)
        X = PointSet(np.array([[0.5]]), UNIT)
        assert noise_interpolant_norm(spec, X, [0.0]) == 0.0
        assert noise_interpolant_norm(spec, X, [3.0]) == pytest.approx(1.5, rel=1e-5)

    def test_noise_interpolant_rayleigh_bound(self):
        rng = np.random.default_rng(31)
        spec = KernelSpec(tau=1.5, lengthscale=0.3)
        X = jittered_design(rng, 20)
        eps = rng.standard_normal(20)
        lhs = noise_interpolant_norm(spec, X, eps) ** 2
        lam_min = min_eigenvalue(gram(spec, X, 0.0))
        assert lhs <= float(eps @ eps) / lam_min * (1 + 1e-9)


class TestInterpolantOptimality:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        spec = KernelSpec(
            tau=rng.uniform(0.75, 2.0), lengthscale=rng.uniform(0.15, 0.6)
        )
        m = int(rng.integers(3, 8))
        Z = rng.uniform(0.05, 0.95, (m, 1))
        alpha = rng.standard_normal(m)
        n = int(rng.integers(8, 24))
        X = jittered_design(rng, n)
        return rng, spec, Z, alpha, X

    def test_pythagorean_split(self):
        for seed in range(8):
            _, spec, Z, alpha, X = self._setup(seed)
            n = len(X)
            allpts = np.vstack([X.points, Z])
            Kall = gram(spec, allpts, 0.0)
            fX = Kall[:n, n:] @ alpha
            w = np.linalg.solve(Kall[:n, :n], fX)
            norm_f2 = float(alpha @ Kall[n:, n:] @ alpha)
            norm_rf2 = float(w @ Kall[:n, :n] @ w)
            coeff = np.concatenate([-w, alpha])
            norm_diff2 = float(coeff @ Kall @ coeff)
            assert norm_diff2 + norm_rf2 == pytest.approx(norm_f2, rel=1e-6)

    def test_minimum_norm_among_agreeing_functions(self):
        # competitors g = R_f + h with h vanishing on X, built by projecting
        # random expansions; the interpolant must have the smallest norm
        rng, spec, Z, alpha, X = self._setup(99)
        n = len(X)
        allZ = np.vstack([X.points, Z])
        Kall = gram(spec, allZ, 0.0)
        fX = Kall[:n, n:] @ alpha
        w = np.linalg.solve(Kall[:n, :n], fX)
        norm_rf = math.sqrt(max(float(w @ Kall[:n, :n] @ w), 0.0))
        for _ in range(50):
            m2 = int(rng.integers(2, 7))
            W = rng.uniform(0.05, 0.95, (m2, 1))
            beta = rng.standard_normal(m2)
            pool = np.vstack([X.points, W])
            Kp = gram(spec, pool, 0.0)
            uX = Kp[:n, n:] @ beta
            v = np.linalg.solve(Kp[:n, :n], uX)
            # g = R_f + (u - R_u): coefficients (w - v) on X, beta on W
            coeff = np.concatenate([w - v, beta])
            norm_g = math.sqrt(max(float(coeff @ Kp @ coeff), 0.0))
            assert norm_rf <= norm_g + 1e-8

    def test_ridge_norm_and_residual_bounds(self):
        # variational bounds for the regularized fit, exact expansions
        rng = np.random.default_rng(7)
        for _ in range(25):
            spec = KernelSpec(tau=rng.uniform(0.75, 2.5), lengthscale=rng.uniform(0.15, 0.6))
            m = int(rng.integers(3, 8))
            Z = rng.uniform(0.05, 0.95, (m, 1))
            alpha = rng.standard_normal(m)
            n = int(rng.integers(8, 32))
            X = jittered_design(rng, n)
            sigma = rng.uniform(0.05, 1.0)
            eps = rng.normal(0.0, 0.3, n)
            allpts = np.vstack([X.points, Z])
            Kall = gram(spec, allpts, 0.0)
            KXX = Kall[:n, :n]
            fX = Kall[:n, n:] @ alpha
            w = np.linalg.solve(KXX + sigma**2 * np.eye(n), fX + eps)
            norm_f = math.sqrt(max(float(alpha @ Kall[n:, n:] @ alpha), 0.0))
            norm_r = math.sqrt(max(float(w @ KXX @ w), 0.0))
            resid = float(np.linalg.norm(fX - KXX @ w))
            e2 = float(eps @ eps)
            assert norm_r <= math.sqrt(e2 / sigma**2 + norm_f**2) * (1 + 1e-8)
            assert resid <= (math.sqrt(e2) + math.sqrt(e2 + sigma**2 * norm_f**2)) * (1 + 1e-8)


class TestMeanSpecs:
    def test_polynomial_mean(self):
        mean = MeanSpec("polynomial", coeffs=(1.0, 2.0, 3.0))  # 1 + 2x + 3x^2
        np.testing.assert_allclose(mean(np.array([[0.0], [1.0]])), [1.0, 6.0])

    def test_fit_with_nonzero_mean_interpolates(self):
        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        mean = MeanSpec("polynomial", coeffs=(0.5, 1.0, 0.0))
        X = gen_grid(8, UNIT)
        y = np.cos(3 * X.points[:, 0])
        model = fit(spec, mean, X, y, 0.0)
        np.testing.assert_allclose(posterior_mean(model, X.points), y, atol=1e-7)
