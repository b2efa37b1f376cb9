"""Targets, corruption models, and noise-growth exponents."""

import numpy as np
import pytest

from gprates.designs import Domain
from gprates.errors import ConfigurationError, InfiniteMomentError
from gprates.kernels import KernelSpec
from gprates.targets import (
    BUMP_PEAK_LOCATION,
    BUMP_PEAK_VALUE,
    NoiseModel,
    draw_noise,
    eval_target,
    expected_noise_growth,
    make_expansion_target,
    named_target,
    random_expansion_target,
    registry_entries,
    registry_ids,
)

UNIT = Domain((0.0,), (1.0,))


class TestExpansionTargets:
    def test_zero_coefficients_vanish(self):
        spec = KernelSpec(tau=2.0)
        t = make_expansion_target(spec, np.array([[0.3], [0.7]]), [0.0, 0.0], UNIT)
        grid = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(eval_target(t, grid), 0.0)

    def test_single_center_peak_is_amplitude(self):
        spec = KernelSpec(tau=2.0, amplitude=1.8)
        t = make_expansion_target(spec, np.array([[0.4]]), [1.0], UNIT)
        assert eval_target(t, 0.4) == pytest.approx(1.8)

    def test_tau_f_matches_kernel(self):
        spec = KernelSpec(tau=1.5)
        t = make_expansion_target(spec, np.array([[0.5]]), [1.0], UNIT)
        assert t.tau_f == 1.5
        assert t.rkhs_norm() == pytest.approx(1.0)  # sqrt(A) = 1

    def test_random_expansion_deterministic(self):
        a = random_expansion_target(2.0, UNIT, seed=5)
        b = random_expansion_target(2.0, UNIT, seed=5)
        xs = np.linspace(0.05, 0.95, 9)
        np.testing.assert_array_equal(eval_target(a, xs), eval_target(b, xs))

    def test_scale_multiplies_values_and_norm(self):
        t1 = random_expansion_target(2.0, UNIT, seed=5)
        t3 = random_expansion_target(2.0, UNIT, seed=5, scale=3.0)
        assert eval_target(t3, 0.3) == pytest.approx(3.0 * eval_target(t1, 0.3))
        assert t3.rkhs_norm() == pytest.approx(3.0 * t1.rkhs_norm())


class TestRegistry:
    def test_known_ids_present(self):
        ids = registry_ids()
        for name in ("layered_tau1", "layered_tau2", "layered_tau2p5", "bump", "peaks3"):
            assert name in ids

    def test_bump_peak_documented_value(self):
        t = named_target("bump")
        assert eval_target(t, BUMP_PEAK_LOCATION) == pytest.approx(BUMP_PEAK_VALUE)
        xs = np.linspace(0.0, 1.0, 501)
        assert np.max(eval_target(t, xs)) <= BUMP_PEAK_VALUE + 1e-12

    def test_layered_smoothness_documented(self):
        entries = dict((n, tau) for n, tau, _ in registry_entries())
        assert entries["layered_tau1"] == 1.0
        assert entries["layered_tau2"] == 2.0
        assert entries["layered_tau2p5"] == 2.5

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            named_target("no_such_target")

    def test_named_targets_are_deterministic(self):
        xs = np.linspace(0.01, 0.99, 101)
        a = eval_target(named_target("layered_tau2"), xs)
        b = eval_target(named_target("layered_tau2"), xs)
        np.testing.assert_array_equal(a, b)


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
