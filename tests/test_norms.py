"""Grid norms, residuals, and the midpoint integration oracle."""

import math

import numpy as np
import pytest

from gprates.designs import Domain, PointSet, gen_grid
from gprates.fitting import MeanSpec, fit
from gprates.kernels import KernelSpec
from gprates.norms import integrate, lq_error, lq_norm, make_grid, overflow_safe, residual_norm
from gprates.targets import TargetSpec, named_target

UNIT = Domain((0.0,), (1.0,))
ZERO = MeanSpec("constant", 0.0)


def inline(fn, tau_f=1.0):
    """A target whose ``fn`` maps the (m, 1) query batch to its m values."""
    return TargetSpec(name="inline", tau_f=tau_f, domain=UNIT, fn=fn)


def zero_model(spec=None, mean_value=0.0):
    spec = spec or KernelSpec(tau=2.0, lengthscale=0.3)
    X = gen_grid(4, UNIT)
    mean = MeanSpec("constant", mean_value)
    return fit(spec, mean, X, np.full(4, mean_value), 0.0)


class TestLqError:
    def test_identity_target_against_zero_model(self):
        # f(x) = x vs the zero approximant: L2 norm is 1/sqrt(3)
        t = inline(lambda x: x[:, 0])
        grid = make_grid(UNIT, 4096)
        err = lq_error(t, zero_model(), 2, grid)
        assert err == pytest.approx(1 / math.sqrt(3), abs=1e-4)

    def test_constant_target_with_matching_mean(self):
        t = inline(lambda x: np.full(x.shape[0], 0.7))
        model = zero_model(mean_value=0.7)
        grid = make_grid(UNIT, 512)
        assert lq_error(t, model, 2, grid) <= 1e-10

    def test_self_interpolation_is_exact(self):
        # target defined as the model's own posterior mean
        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        X = gen_grid(6, UNIT)
        base = fit(spec, ZERO, X, np.sin(3 * X.points[:, 0]), 0.0)
        from gprates.fitting import posterior_mean

        t = inline(lambda x: posterior_mean(base, x))
        grid = make_grid(UNIT, 1024)
        assert lq_error(t, base, 2, grid) <= 1e-8

    def test_invalid_q(self):
        t = inline(lambda x: x[:, 0])
        with pytest.raises(Exception):
            lq_error(t, zero_model(), 3, make_grid(UNIT, 64))

    def test_norm_ordering(self):
        # normalized: mean-absolute <= rms <= max on unit-volume domains
        t = inline(lambda x: np.sin(7 * x[:, 0]))
        grid = make_grid(UNIT, 2048)
        l1, l2, linf = (lq_error(t, zero_model(), q, grid) for q in (1, 2, "inf"))
        assert l1 <= l2 + 1e-15
        assert l2 <= linf + 1e-15


class TestResidualNorm:
    def test_zero_for_interpolation(self):
        t = named_target("bump")
        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        X = gen_grid(12, UNIT)
        from gprates.targets import eval_target

        model = fit(spec, ZERO, X, eval_target(t, X.points), 0.0)
        assert residual_norm(t, model) <= 1e-6

    def test_single_point_ridge_formula(self):
        # residual = |y| sigma^2 / (A + sigma^2) for one noiseless point
        A, sig2, c = 1.3, 0.25, 2.0
        spec = KernelSpec(tau=2.0, amplitude=A)
        X = PointSet(np.array([[0.5]]), UNIT)
        t = inline(lambda x: np.full(x.shape[0], c))
        model = fit(spec, ZERO, X, [c], sig2)
        assert residual_norm(t, model) == pytest.approx(c * sig2 / (A + sig2), rel=1e-9)

    def test_monotone_in_lambda(self):
        t = named_target("layered_tau2")
        from gprates.targets import eval_target

        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        X = gen_grid(24, UNIT)
        y = eval_target(t, X.points)
        values = [
            residual_norm(t, fit(spec, ZERO, X, y, lam))
            for lam in (0.0, 1e-4, 1e-2, 1.0, 100.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestIntegrate:
    def test_constant(self):
        grid = make_grid(UNIT, 1024)
        ones = np.ones(grid.size)
        assert integrate(ones, ones, grid) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        grid = make_grid(UNIT, 1024)
        x = grid.points[:, 0]
        assert integrate(x, np.ones(grid.size), grid) == pytest.approx(0.5, abs=1e-10)

    def test_full_period_sine(self):
        grid = make_grid(UNIT, 2048)
        val = integrate(np.sin(2 * np.pi * grid.points[:, 0]), np.ones(grid.size), grid)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_cell_volumes_sum_to_volume(self):
        dom = Domain((0.0, -1.0), (2.0, 1.0))
        grid = make_grid(dom, 32)
        assert grid.cell_volume * grid.size == pytest.approx(dom.volume, rel=1e-12)
        assert grid.size == 32 ** 2

    @pytest.mark.parametrize("q", [1, 2])
    def test_one_cell_volume_is_the_weight_array_bit_for_bit(self, q):
        # each product with the scalar is the double a full weight array gives
        grid = make_grid(Domain((0.0, -1.0), (2.0, 1.0)), 64)
        g, p = np.random.default_rng(5).standard_normal((2, grid.size))
        weights = np.full(grid.size, grid.cell_volume)
        assert integrate(g, p, grid) == float(np.sum(weights * g * p))
        assert lq_norm(g, q, grid) == float(np.sum(weights * np.abs(g) ** float(q)) ** (1.0 / q))


class TestOverflowSafe:
    GRID = make_grid(UNIT, 4)

    @pytest.mark.parametrize("q", [1, 2, "inf"])
    def test_huge_finite_errors_have_a_finite_norm(self, q):
        values = np.array([3e200, -4e200, 0.0, 1e-300])
        scaled = lq_norm(values / 1e200, q, self.GRID) * 1e200
        with np.errstate(over="raise"):
            norm = lq_norm(values, q, self.GRID)
        assert math.isfinite(norm) and norm == pytest.approx(scaled, rel=1e-15)

    def test_plain_form_is_kept_bit_for_bit(self):
        values = np.random.default_rng(2).standard_normal(4) * 1e100
        plain = float(np.sum(self.GRID.cell_volume * np.abs(values) ** 2.0) ** 0.5)
        assert lq_norm(values, 2, self.GRID) == plain
        assert overflow_safe(lambda v: float(np.std(v)), values) == float(np.std(values))

    def test_spread_of_huge_values(self):
        values = [1e300, 1.5e300, 2e300]
        with np.errstate(over="raise"):
            spread = overflow_safe(lambda v: float(np.std(v)), values)
        assert spread == pytest.approx(np.std(np.array(values) / 1e300) * 1e300, rel=1e-15)

    def test_infinite_values_keep_the_plain_form(self):
        assert lq_norm(np.array([1.0, math.inf, 0.0, 0.0]), 2, self.GRID) == math.inf
        with np.errstate(invalid="ignore"):  # inf - inf in the spread
            assert math.isnan(overflow_safe(lambda v: float(np.std(v)), [1.0, math.inf]))
