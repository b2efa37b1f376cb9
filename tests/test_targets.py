"""Targets, corruption models, and noise-growth exponents."""

import numpy as np
import pytest

from gprates.designs import Domain
from gprates.errors import ConfigurationError, InfiniteMomentError
from gprates.fitting import rkhs_norm_expansion
from gprates.kernels import KernelSpec, cross_matrix
from gprates.targets import (
    NoiseModel,
    TargetSpec,
    draw_noise,
    eval_target,
    expected_noise_growth,
    named_target,
    random_expansion_target,
    registry_entries,
)

UNIT = Domain((0.0,), (1.0,))


def _redrawn_expansion(seed, n_centers=40):
    """The centers and coefficients ``random_expansion_target`` draws on UNIT."""
    rng = np.random.default_rng(seed)
    c = np.array(UNIT.lower) + rng.random((n_centers, 1)) * UNIT.widths
    return c, rng.standard_normal(n_centers)


class TestTargetShape:
    def test_fn_gets_the_query_batch(self):
        seen = []

        def fn(x):
            seen.append(x.shape)
            return x[:, 0]

        t = TargetSpec(name="inline", tau_f=1.0, domain=UNIT, fn=fn, scale=2.0)
        np.testing.assert_array_equal(eval_target(t, 0.25), [0.5])
        xs = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(eval_target(t, xs), 2.0 * xs)
        np.testing.assert_array_equal(eval_target(t, xs[:, None]), 2.0 * xs)
        assert seen == [(1, 1), (11, 1), (11, 1)]

    def test_one_center_expansion_peaks_at_the_amplitude(self):
        spec = KernelSpec(tau=2.0, amplitude=1.8)
        t = TargetSpec(name="inline", tau_f=2.0, domain=UNIT,
                       fn=lambda x: cross_matrix(spec, x, np.array([[0.4]])) @ np.ones(1))
        assert eval_target(t, 0.4)[0] == pytest.approx(1.8)

    def test_smoothness_floor(self):
        square = Domain((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ConfigurationError, match="tau_f must exceed"):
            TargetSpec(name="inline", tau_f=1.0, domain=square, fn=lambda x: x[:, 0])


class TestExpansionTargets:
    def test_values_are_the_cross_matrix_product(self):
        t = random_expansion_target(1.5, UNIT, seed=5)
        c, a = _redrawn_expansion(5)
        spec = KernelSpec(tau=1.5, lengthscale=0.25)
        xs = np.linspace(0.0, 1.0, 101)[:, None]
        np.testing.assert_array_equal(eval_target(t, xs), cross_matrix(spec, xs, c) @ a)
        assert t.tau_f == 1.5

    def test_rkhs_norm_is_the_scaled_quadratic_form(self):
        t = random_expansion_target(2.0, UNIT, seed=5, n_centers=12, lengthscale=0.3,
                                    amplitude=1.7, scale=2.5)
        c, a = _redrawn_expansion(5, n_centers=12)
        spec = KernelSpec(tau=2.0, lengthscale=0.3, amplitude=1.7)
        assert t.rkhs_norm == 2.5 * rkhs_norm_expansion(spec, c, a)

    def test_random_expansion_deterministic(self):
        a = random_expansion_target(2.0, UNIT, seed=5)
        b = random_expansion_target(2.0, UNIT, seed=5)
        xs = np.linspace(0.05, 0.95, 9)
        np.testing.assert_array_equal(eval_target(a, xs), eval_target(b, xs))

    def test_scale_multiplies_values_and_norm(self):
        t1 = random_expansion_target(2.0, UNIT, seed=5)
        t3 = random_expansion_target(2.0, UNIT, seed=5, scale=3.0)
        assert eval_target(t3, 0.3)[0] == pytest.approx(3.0 * eval_target(t1, 0.3)[0])
        assert t3.rkhs_norm == pytest.approx(3.0 * t1.rkhs_norm)


class TestRegistry:
    def test_known_ids_present(self):
        ids = [name for name, _, _ in registry_entries()]
        for name in ("layered_tau1", "layered_tau2", "layered_tau2p5", "bump", "peaks3"):
            assert name in ids

    def test_named_targets_have_no_rkhs_norm(self):
        assert all(named_target(name).rkhs_norm is None for name, _, _ in registry_entries())

    def test_bump_peak_documented_value(self):
        t = named_target("bump")
        assert eval_target(t, 0.5)[0] == pytest.approx(1.0)
        xs = np.linspace(0.0, 1.0, 501)
        assert np.max(eval_target(t, xs)) <= 1.0 + 1e-12

    def test_layered_smoothness_documented(self):
        entries = dict((n, tau) for n, tau, _ in registry_entries())
        assert entries["layered_tau1"] == 1.0
        assert entries["layered_tau2"] == 2.0
        assert entries["layered_tau2p5"] == 2.5

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="known: bump, cusp_tau2p5, layered_tau1"):
            named_target("no_such_target")

    def test_named_targets_are_deterministic(self):
        xs = np.linspace(0.01, 0.99, 101)
        a = eval_target(named_target("layered_tau2"), xs)
        b = eval_target(named_target("layered_tau2"), xs)
        np.testing.assert_array_equal(a, b)


def _frozen_layered(tau_f, seed):
    """The layered target's formula as first written: every profile on every
    point, masked to its support by ``np.where``."""
    spots = np.random.default_rng(seed).uniform(0.1, 0.9, 12)

    def profile(u):
        return np.where(np.abs(u) < 1.0, (1.0 - np.minimum(u * u, 1.0)) ** 3, 0.0)

    def f(x):
        total = np.sin(2.0 * x)
        for j in range(12):
            spacing = 2.0 ** (-j)
            half = spacing / 2.0
            dense_amp = 2.0 ** (-j * tau_f * (1.0 + 0.02))
            lac_amp = 2.0 * 2.0 ** (-j * (tau_f - 0.5) * (1.0 + 0.02))
            t = x / spacing - 0.37
            u = (t - np.round(t)) * spacing / half
            total = total + dense_amp * profile(u)
            total = total + lac_amp * profile((x - spots[j]) / half)
        return total

    return f, spots


def _support_edges(spots):
    """Points within 4 ulps of a bump's support edge, and which of them have
    ``|u| = 1`` (a dense row) or ``|v| = 1`` (a lacunary bump) exactly."""
    centres = []
    for j in range(12):
        spacing = 2.0 ** (-j)
        centres += [spots[j] - spacing / 2, spots[j] + spacing / 2]
        centres += list((np.arange(2**j) + 0.87) * spacing)
    x = np.array(centres)
    near = [x]
    for direction in (0.0, 1.0):
        y = x
        for _ in range(4):
            y = np.nextafter(y, direction)
            near.append(y)
    x = np.concatenate(near)
    x = x[(x > 0) & (x < 1)]
    u_edge = v_edge = np.zeros(len(x), dtype=bool)
    for j in range(12):
        spacing = 2.0 ** (-j)
        t = x / spacing - 0.37
        u_edge = u_edge | (np.abs((t - np.round(t)) * spacing / (spacing / 2)) == 1.0)
        v_edge = v_edge | (np.abs((x - spots[j]) / (spacing / 2)) == 1.0)
    return x, u_edge, v_edge


class TestLayeredFormula:
    """The layered targets are bitwise their formula as first written."""

    @pytest.mark.parametrize("name, tau_f, seed", [
        ("layered_tau1", 1.0, 9), ("layered_tau2", 2.0, 7), ("layered_tau2p5", 2.5, 5)])
    def test_bitwise_the_frozen_formula(self, name, tau_f, seed):
        target = named_target(name)
        assert target.tau_f == tau_f
        frozen, spots = _frozen_layered(tau_f, seed)
        edges, u_edge, v_edge = _support_edges(spots)
        assert u_edge.any() and v_edge.any()
        grids = [(np.arange(m) + 0.5) / m for m in (2**k for k in range(4, 15))]
        for x in [*grids, np.random.default_rng(seed).random(5000), edges]:
            assert target.fn(x[:, None]).tobytes() == frozen(x).tobytes()


class TestCorrupt:
    def test_no_noise(self):
        np.testing.assert_array_equal(draw_noise(NoiseModel("none"), 8), np.zeros(8))

    def test_fixed_outliers_exact_count_and_norm(self):
        noise = NoiseModel("outliers", schedule="fixed", k=2, magnitude=1.5, seed=4)
        eps = draw_noise(noise, 32)
        nz = eps[eps != 0]
        assert len(nz) == 2
        assert set(np.abs(nz)) == {1.5}
        assert np.linalg.norm(eps) == pytest.approx(1.5 * np.sqrt(2))

    def test_gaussian_sample_variance(self):
        noise = NoiseModel("gaussian", sigma=0.3, seed=11)
        eps = draw_noise(noise, 10_000)
        assert eps.var() == pytest.approx(0.09, rel=0.05)

    def test_determinism_in_seed_and_replicate(self):
        noise = NoiseModel("gaussian", sigma=1.0, seed=3)
        a = draw_noise(noise, 64, replicate=2)
        b = draw_noise(noise, 64, replicate=2)
        c = draw_noise(noise, 64, replicate=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_outlier_schedules_count(self):
        power = NoiseModel("outliers", schedule="power", alpha=0.5, seed=0)
        assert power.outlier_count(100) == 10
        frac = NoiseModel("outliers", schedule="fraction", beta=0.25, seed=0)
        assert frac.outlier_count(100) == 25
        fixed = NoiseModel("outliers", schedule="fixed", k=7, seed=0)
        assert fixed.outlier_count(3) == 3  # capped at n


class TestNoiseGrowth:
    def test_declared_exponents(self):
        assert expected_noise_growth(NoiseModel("gaussian", sigma=0.5)) == 0.5
        assert expected_noise_growth(NoiseModel("outliers", schedule="fixed", k=3)) == 0.0
        assert expected_noise_growth(NoiseModel("outliers", schedule="power", alpha=0.5)) == 0.25
        assert expected_noise_growth(NoiseModel("outliers", schedule="fraction", beta=0.5)) == 0.5
        assert expected_noise_growth(NoiseModel("none")) is None

    def test_student_t_finite_df(self):
        assert expected_noise_growth(NoiseModel("student_t", df=3.0)) == 0.5

    def test_student_t_infinite_moment_rejected(self):
        with pytest.raises(InfiniteMomentError):
            expected_noise_growth(NoiseModel("student_t", df=2.0))
        # generation for demonstration runs is still allowed
        eps = draw_noise(NoiseModel("student_t", df=1.5, seed=1), 16)
        assert eps.shape == (16,)

    def test_empirical_growth_matches_declared(self):
        ns = [32, 64, 128, 256, 512, 1024, 2048]
        cases = [
            (NoiseModel("gaussian", sigma=0.5, seed=2), 0.5, 0.1),
            (NoiseModel("outliers", schedule="fixed", k=3, seed=2), 0.0, 0.05),
            (NoiseModel("outliers", schedule="power", alpha=0.5, seed=2), 0.25, 0.1),
            (NoiseModel("outliers", schedule="fraction", beta=0.25, seed=2), 0.5, 0.1),
        ]
        for noise, expected, tol in cases:
            means = []
            for n in ns:
                norms = [np.linalg.norm(draw_noise(noise, n, replicate=r)) for r in range(50)]
                means.append(np.mean(norms))
            slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
            assert abs(slope - expected) <= tol


class TestValidation:
    def test_bad_schedules(self):
        with pytest.raises(ConfigurationError):
            NoiseModel("outliers", schedule="weird")
        with pytest.raises(ConfigurationError):
            NoiseModel("outliers", schedule="power", alpha=1.5)
        with pytest.raises(ConfigurationError):
            NoiseModel("gaussian", sigma=0.0)

    def test_target_smoothness_floor(self):
        with pytest.raises(ConfigurationError):
            named_target("layered_tau2", Domain((0.0, 0.0), (1.0, 1.0)))
