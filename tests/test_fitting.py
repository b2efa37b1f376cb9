"""Conditioning: interpolation/regression identities and RKHS-norm properties."""

import functools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import gprates
from gprates import fitting
from gprates.designs import Domain, PointSet, gen_grid, gen_p_greedy
from gprates.errors import ConfigurationError, SingularDesignError
from gprates.fitting import (
    DEFAULT_JITTER_FACTOR,
    TOEPLITZ_BYTES,
    MeanSpec,
    PosteriorModel,
    fit,
    noise_interpolant_norm,
    posterior_mean,
    rkhs_norm_expansion,
)
from gprates.kernels import (
    BLOCK_ENTRIES,
    KernelSpec,
    blocks_per_strip,
    cross_matrix,
    distances,
    gram,
    kernel_blocks,
    lattice_table,
    matern_of_r,
    min_eigenvalue,
    row_block,
    table_blocks,
)

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
        assert posterior_mean(model, [0.4])[0] == pytest.approx(3.0, rel=1e-9)

    def test_observations_equal_prior_mean(self):
        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        mean = MeanSpec("constant", 1.25)
        X = gen_grid(9, UNIT)
        for lam in (0.0, 0.1, 10.0):
            model = fit(spec, mean, X, np.full(9, 1.25), lam)
            np.testing.assert_allclose(model.dual, 0.0, atol=1e-12)
            assert posterior_mean(model, [0.05])[0] == pytest.approx(1.25)

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_gram_not_finite_is_a_kernel_overflow(self, monkeypatch, value):
        # one entry far off the diagonal is enough
        def spoiled(*args):
            K = gram(*args)
            K[-1, 0] = value
            return K

        monkeypatch.setattr(fitting, "gram", spoiled)
        with pytest.raises(ConfigurationError, match="^kernel matrix not finite"):
            fit(KernelSpec(tau=2.0), ZERO, gen_grid(40, UNIT), np.zeros(40), 0.0)

    def test_dual_solves_system(self):
        spec = KernelSpec(tau=2.0, lengthscale=0.25)
        X = gen_grid(20, UNIT)
        lam = 0.04
        model = fit(spec, ZERO, X, np.ones(20), lam)
        residual = (gram(spec, X) + lam * np.eye(20)) @ model.dual - 1.0
        assert np.linalg.norm(residual) < 1e-8 * math.sqrt(20)


class TestInPlaceFactor:
    """``fit`` factors K in place and keeps only the dual weights."""

    SPEC = KernelSpec(tau=3.0, lengthscale=0.2, amplitude=1.3)  # nu = 5/2

    def _oracle(self, X, Y, lam, jitter):
        n = len(X)
        K = gram(self.SPEC, X) + (lam + jitter) * np.eye(n)
        return cho_solve(cho_factor(K, lower=True), Y - 0.2)

    @pytest.mark.parametrize("lam", [1e-3, 0.0], ids=["ridge", "interpolation_jitter"])
    def test_dual_is_bitwise_the_copying_oracle(self, lam):
        n = 600  # several row blocks and a ragged tail
        assert n // row_block(n) >= 3 and n % row_block(n) != 0
        rng = np.random.default_rng(3)
        X = jittered_design(rng, n)
        Y = np.sin(7.0 * X.points) + 0.1 * rng.standard_normal((n, 4))
        model = fit(self.SPEC, MeanSpec("constant", 0.2), X, Y, lam)
        jitter = 0.0 if lam > 0 else DEFAULT_JITTER_FACTOR * self.SPEC.amplitude
        assert model.jitter == jitter
        assert np.array_equal(model.dual, self._oracle(X, Y, lam, jitter))

    def test_failed_step_rebuilds_the_matrix(self, failing_cho_factor):
        # no design tried fails at 1e-10 A for real (the computed Gram's smallest
        # eigenvalue stays above -1e-12 A), so the first step is made to fail
        # after LAPACK has overwritten K, as a near-duplicate design would
        rng = np.random.default_rng(8)
        pts = np.sort(rng.uniform(0.05, 0.95, 300))
        pts[1] = pts[0] + 1e-7
        X = PointSet(pts, UNIT)
        Y = np.cos(4.0 * X.points) + 0.05 * rng.standard_normal((300, 2))
        failing_cho_factor(1)
        model = fit(self.SPEC, MeanSpec("constant", 0.2), X, Y, 0.0)
        jitter = 1e-8 * self.SPEC.amplitude
        assert model.jitter == jitter
        assert np.array_equal(model.dual, self._oracle(X, Y, 0.0, jitter))

    @pytest.mark.parametrize("failures, lam", [(0, 1e-4), (1, 1e-4), (1, 0.0)],
                             ids=["ridge", "ridge_escalated", "interpolation_escalated"])
    def test_traced_peak_is_one_matrix(self, failing_cho_factor, failing_solve_toeplitz,
                                       failures, lam):
        # a 1024-point Gram is 8 MiB; with the Toeplitz route switched off, K
        # is written whole and factored in place, and beside its n^2 doubles
        # the peak holds at most two blocks of BLOCK_ENTRIES doubles (the
        # finiteness check's buffer and the table); the copying factor
        # peaked at 3.1 x 8 n^2.  A failed factor is dropped before the next
        # jitter step writes its Gram; kept, it peaked at 2.01 x 8 n^2
        n = 1024
        assert 8 * n * n >= TOEPLITZ_BYTES
        X = gen_grid(n, UNIT)
        y = np.sin(5.0 * X.points[:, 0])
        factored = failing_cho_factor(failures)
        failing_solve_toeplitz(math.inf)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit(KernelSpec(tau=2.0, lengthscale=0.2), ZERO, X, y, lam)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert factored == [n] * (failures + 1)
        assert peak <= 8 * n * n + 2 * 8 * BLOCK_ENTRIES

    @pytest.mark.parametrize("n", [512, 1024])
    def test_fit_allocates_no_n_by_n_temporary_besides_k(self, failing_solve_toeplitz, n):
        # K's finiteness is checked in blocks, and the right-hand side is
        # solved in place, so beyond K (with the Toeplitz route switched off
        # at 1024 points) and the n x r weights the peak holds only
        # block-sized buffers; a finiteness check of all of K at once
        # (scipy's check_finite, in the factor and again in the solve)
        # allocates a boolean array of n^2 bytes
        failing_solve_toeplitz(math.inf)
        r = 20
        X = gen_grid(n, UNIT)
        Y = np.sin(5.0 * X.points) + 0.1 * np.random.default_rng(4).standard_normal((n, r))
        for lam in (1e-4, 0.0):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                model = fit(KernelSpec(tau=2.0, lengthscale=0.2), MeanSpec("constant", 0.3), X,
                            Y, lam)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert model.dual.shape == (n, r)
            assert peak - 8 * n * r - 8 * n * n < n * n / 8

    def test_model_holds_no_n_by_n_array(self):
        n = 1024
        X = gen_grid(n, UNIT)
        y = np.sin(5.0 * X.points[:, 0])
        model = fit(KernelSpec(tau=2.0, lengthscale=0.2), ZERO, X, y, 1e-4)
        arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.size < n * n for a in arrays)


def _large_designs():
    """Designs of 4 MiB Grams or more, one per source of their blocks: a
    dyadic progression (window), lattice picks in pick order (gather) and
    a jittered design (direct)."""
    rng = np.random.default_rng(12)
    picks = rng.permutation(2048)[:726]
    return {"window": PointSet(gen_grid(1024, UNIT).points[:725], UNIT),
            "gather": PointSet(gen_grid(2048, UNIT).points[picks], UNIT),
            "direct": jittered_design(rng, 726)}


class TestLargeWholeFit:
    """A Gram of ``TOEPLITZ_BYTES`` or more that the Toeplitz route does not
    solve is written whole and factored by ``cho_factor``, as a smaller one is."""

    SPEC = KernelSpec(tau=3.0, lengthscale=0.2, amplitude=1.3)  # nu = 5/2
    DESIGNS = _large_designs()

    @pytest.fixture(autouse=True)
    def no_toeplitz_route(self, failing_solve_toeplitz):
        # the window design is a progression, whose ridge fits would take the
        # Toeplitz route; switched off, they fall back to the whole factor
        failing_solve_toeplitz(math.inf)

    @pytest.mark.parametrize("path", ["window", "gather", "direct"])
    def test_duals_are_within_1e_10_of_the_whole_factor(self, failing_cho_factor, path):
        X = self.DESIGNS[path]
        n, lam = len(X), 0.01
        Y = np.sin(7.0 * X.points) + 0.1 * np.random.default_rng(n).standard_normal((n, 3))
        factored = failing_cho_factor(0)
        model = fit(self.SPEC, MeanSpec("constant", 0.2), X, Y, lam)
        assert factored == [n]
        whole = cho_solve(cho_factor(gram(self.SPEC, X) + lam * np.eye(n), lower=True), Y - 0.2)
        assert np.abs(model.dual - whole).max() <= 1e-10 * np.abs(whole).max()
        # every column agrees with its own fit to rounding
        for k in range(3):
            single = fit(self.SPEC, MeanSpec("constant", 0.2), X, Y[:, k], lam).dual
            assert np.allclose(model.dual[:, k], single, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("lam", [1e-3, 0.0], ids=["ridge", "interpolation_jitter"])
    @pytest.mark.parametrize("path", ["window", "gather", "direct"])
    def test_failed_step_is_a_clean_fit_at_the_next_jitter(self, failing_cho_factor, path, lam):
        # the failed cho_factor has overwritten K, so the next step
        # rebuilds it; a fit whose lambda is the escalated lam + jitter adds
        # the same double to the diagonal, and its duals are bitwise equal
        X = self.DESIGNS[path]
        n = len(X)
        Y = np.cos(4.0 * X.points) + 0.05 * np.random.default_rng(n).standard_normal((n, 2))
        factored = failing_cho_factor(1)
        model = fit(self.SPEC, MeanSpec("constant", 0.2), X, Y, lam)
        jitter = (1e-10 if lam > 0 else 1e-8) * self.SPEC.amplitude
        assert factored == [n, n] and model.jitter == jitter
        failing_cho_factor(0)
        clean = fit(self.SPEC, MeanSpec("constant", 0.2), X, Y, lam + jitter)
        assert clean.jitter == 0.0
        assert model.dual.tobytes() == clean.dual.tobytes()

    def test_every_step_failing_names_the_closest_pair(self, failing_cho_factor):
        X = self.DESIGNS["direct"]
        pts = X.points.copy()
        pts[101] = pts[100] + 1e-7
        factored = failing_cho_factor(3)
        with pytest.raises(SingularDesignError, match=r"closest design pair is \(100, 101\) at "
                                                      r"distance 1\.000e-07"):
            fit(self.SPEC, ZERO, PointSet(pts, UNIT), np.zeros(len(pts)), 0.0)
        assert factored == [len(pts)] * 3


def _progression(n):
    """n points of a dyadic grid: equal steps, so a ridge Gram is Toeplitz."""
    return PointSet(gen_grid(1 << (n - 1).bit_length(), UNIT).points[:n], UNIT)


class TestToeplitzFit:
    """A ridge fit of ``TOEPLITZ_BYTES`` or more on an equally spaced 1-d
    design solves its Toeplitz system from the first column in O(n^2),
    holding no n x n array, and falls back to the whole factor when the
    backward error is not certified."""

    SPEC = KernelSpec(tau=3.0, lengthscale=0.2, amplitude=1.3)  # nu = 5/2

    @pytest.mark.parametrize("n, toeplitz", [(724, False), (725, True)])
    def test_4_mib_and_more_is_toeplitz(self, failing_cho_factor, failing_solve_toeplitz, n,
                                        toeplitz):
        # 8 n^2 crosses 4 MiB between n = 724 and 725; both are ridge fits
        # on a dyadic progression
        factored, solved = failing_cho_factor(0), failing_solve_toeplitz(0)
        X = _progression(n)
        fit(self.SPEC, ZERO, X, np.sin(7.0 * X.points[:, 0]), 1e-3)
        assert (factored, solved) == (([], [n]) if toeplitz else ([n], []))

    @pytest.mark.parametrize("n", [725, 1024, 2048])
    def test_duals_are_within_1e_10_of_the_whole_factor(self, failing_cho_factor,
                                                        failing_solve_toeplitz, n):
        factored, solved = failing_cho_factor(0), failing_solve_toeplitz(0)
        X, lam = _progression(n), 0.01
        Y = np.sin(7.0 * X.points) + 0.1 * np.random.default_rng(n).standard_normal((n, 3))
        model = fit(self.SPEC, MeanSpec("constant", 0.2), X, Y, lam)
        assert (factored, solved, model.jitter) == ([], [n], 0.0)
        whole = cho_solve(cho_factor(gram(self.SPEC, X) + lam * np.eye(n), lower=True), Y - 0.2)
        assert np.abs(model.dual - whole).max() <= 1e-10 * np.abs(whole).max()
        for k in range(3):
            single = fit(self.SPEC, MeanSpec("constant", 0.2), X, Y[:, k], lam).dual
            assert np.allclose(model.dual[:, k], single, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("r", [1, 20])
    def test_traced_peak_is_a_few_fft_arrays(self, failing_solve_toeplitz, r):
        # the FFTs work on r rows of 2n doubles (or n + 1 complex numbers),
        # at most five at once, beside a few vectors of 2n doubles; a whole
        # Gram alone is 8 n^2 bytes, 32 MiB at n = 2048
        n = 2048
        solved = failing_solve_toeplitz(0)
        X = _progression(n)
        Y = np.sin(5.0 * X.points) + 0.1 * np.random.default_rng(4).standard_normal((n, r))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model = fit(KernelSpec(tau=2.0, lengthscale=0.2), MeanSpec("constant", 0.3), X, Y,
                        1e-4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert solved == [n] and model.dual.shape == (n, r)
        assert peak <= 8 * 2 * n * (5 * r + 20)
        assert all(a.size < n * n for a in vars(model).values() if isinstance(a, np.ndarray))

    @pytest.mark.parametrize("factor", [math.nan, -1.0, 1.0 + 1e-6],
                             ids=["not_finite", "negative_g0", "backward_error"])
    def test_uncertified_solve_falls_back_to_the_whole_fit(self, failing_cho_factor,
                                                           failing_solve_toeplitz, factor):
        # g times 1 + 1e-6 is finite with g_0 > 0, and it scales the weights
        # by 1 + 1e-6: a backward error of about 1e-6 / (1 + kappa), far past
        # n eps at lambda = 0.01
        n = 1024
        X = _progression(n)
        Y = np.cos(4.0 * X.points) + 0.05 * np.random.default_rng(n).standard_normal((n, 2))
        factored, solved = failing_cho_factor(0), failing_solve_toeplitz(1, factor)
        model = fit(self.SPEC, MeanSpec("constant", 0.2), X, Y, 0.01)
        assert (factored, solved, model.jitter) == ([n], [n], 0.0)
        failing_solve_toeplitz(math.inf)
        whole = fit(self.SPEC, MeanSpec("constant", 0.2), X, Y, 0.01)
        assert model.dual.tobytes() == whole.dual.tobytes()

    @pytest.mark.parametrize("case", ["interpolation", "gather", "direct", "square", "midpoints"])
    def test_other_large_fits_are_factored_whole(self, failing_cho_factor, failing_solve_toeplitz,
                                                 case):
        # the route takes only lambda > 0 on a 1-d design of equal steps
        rng = np.random.default_rng(13)
        spec, lam = self.SPEC, 0.01
        if case == "interpolation":
            X, lam = _progression(1024), 0.0
        elif case == "square":
            X = gen_grid(32, Domain((0.0, 0.0), (1.0, 1.0)))  # 32 x 32 points
            spec = KernelSpec(tau=3.5, lengthscale=0.2, dim=2)
        elif case == "midpoints":
            # the midpoints of 725 cells are equally spaced, but their
            # rounded differences are not all one double
            X = gen_grid(725, UNIT)
            steps = np.diff(X.points[:, 0])
            assert np.allclose(steps, 1 / 725, rtol=1e-12) and not (steps == steps[0]).all()
        else:
            X = _large_designs()[case]
        factored, solved = failing_cho_factor(0), failing_solve_toeplitz(0)
        fit(spec, ZERO, X, rng.standard_normal(len(X)), lam)
        assert (factored, solved) == ([len(X)], [])


@functools.lru_cache(maxsize=None)
def _toeplitz_model(n):
    """A ridge fit of 3 columns on the n-point grid, on the Toeplitz route."""
    X = gen_grid(n, UNIT)
    Y = np.sin(7.0 * X.points) + 0.1 * np.random.default_rng(n).standard_normal((n, 3))
    model = fit(TestToeplitzFit.SPEC, MeanSpec("constant", 0.2), X, Y, 0.01)
    assert model.route == "toeplitz"
    return model


def _fine_midpoints(n, b, m):
    """The first m midpoints of cells b times finer than an n-point grid's,
    from 0 on: equal dyadic steps of 1 / (b n), so the design step is b
    query steps (past 1 when m > b n)."""
    return ((np.arange(m) + 0.5) / (b * n)).reshape(-1, 1)


class TestToeplitzProduct:
    """A Toeplitz-route model predicts 1-d queries whose step divides the
    design's step b times by one FFT product per phase ``x[e::b]``; every
    other prediction streams kernel blocks."""

    # and one length past a power of two: 2050 + 2048 - 1 = 4097 needs N = 8192
    CASES = [(n, b, m) for n in (1024, 2048) for b in (1, 2, 4) for m in (4096, 4095)]
    CASES.append((2048, 2, 4099))

    @pytest.mark.parametrize("n, b, m", CASES)
    def test_within_fft_rounding_of_the_block_product(self, toeplitz_products, n, b, m):
        # Higham (2002), Theorem 24.2: one radix-2 transform of length N has
        # relative 2-norm error at most log2(N) eta, eta = mu + gamma_4
        # (sqrt 2 + mu) ~ 3.3 eps for twiddle factors exact to mu ~ u.  A
        # product takes three transforms (the kernel's, the weights' and the
        # inverse), so c = 3 x 3.3 = 10, scaled by |h|_2 |w|_2 (h the
        # longest phase's kernel vector, w a column of weights).  The block
        # product's own dot-product rounding falls inside it here, and the
        # worst case carries a further sqrt(N) that this check drops; the
        # measured difference is at most 0.05 of the bound, and an index
        # slip moves a mean by O(1)
        model, start = _toeplitz_model(n), len(toeplitz_products)
        Q = _fine_midpoints(n, b, m)
        means = posterior_mean(model, Q)
        N = 1 << (-(-m // b) + n - 2).bit_length()
        assert toeplitz_products[start:] == [(n, m, b)]
        blocks = posterior_mean(replace(model, route="cholesky"), Q)
        X = model.design.points
        h = max(np.linalg.norm(np.r_[cross_matrix(model.kernel, Q[e : e + 1], X)[0],
                                     cross_matrix(model.kernel, Q[e::b], X[:1])[:, 0]])
                for e in range(b))
        bound = 10 * math.log2(N) * np.finfo(float).eps * h * np.linalg.norm(model.dual, axis=0)
        assert np.all(np.abs(means - blocks).max(axis=0) <= bound)

    @pytest.mark.parametrize("n, b, m", CASES)
    def test_every_column_is_bitwise_its_one_column_prediction(self, toeplitz_products, n, b, m):
        model, start = _toeplitz_model(n), len(toeplitz_products)
        Q = _fine_midpoints(n, b, m)
        means = posterior_mean(model, Q)
        for k in range(3):
            assert means[:, k].tobytes() == posterior_mean(model.replicate(k), Q).tobytes()
        assert toeplitz_products[start:] == [(n, m, b)] * 4

    @pytest.mark.parametrize("case", ["unequal_steps", "step_not_a_multiple", "step_off_by_an_ulp",
                                      "coarser_queries", "fewer_queries_than_phases", "square",
                                      "cholesky_route"])
    def test_other_predictions_stream_blocks(self, toeplitz_products, failing_solve_toeplitz,
                                             case):
        # bitwise the per-column gemv of each block, the parent's product
        model, Q = _toeplitz_model(1024), _fine_midpoints(1024, 2, 4096)
        start = len(toeplitz_products)
        if case == "unequal_steps":
            Q = gen_grid(3000, UNIT).points  # midpoints whose rounded steps differ
            assert len(set(np.diff(Q[:, 0]))) > 1
        elif case == "step_not_a_multiple":
            Q = (np.arange(3000) + 0.5).reshape(-1, 1) / 1536  # 1.5 query steps a design step
        elif case == "step_off_by_an_ulp":
            # two points 3 query steps and one ulp apart: the ratio rounds to 3
            X = PointSet(np.array([[0.5], [np.nextafter(0.5 + 3 / 4096, 1.0)]]), UNIT)
            assert round((X.points[1, 0] - 0.5) * 4096) == 3 and X.points[1, 0] - 0.5 != 3 / 4096
            model = PosteriorModel(model.kernel, model.prior_mean, X, np.array([0.5, -0.25]),
                                   0.0, "toeplitz")
            Q = _fine_midpoints(1024, 4, 4096)
        elif case == "coarser_queries":
            Q = _fine_midpoints(512, 1, 512)  # half a query step a design step
        elif case == "fewer_queries_than_phases":
            Q = _fine_midpoints(1024, 4, 3)
        elif case == "square":
            X = gen_grid(32, Domain((0.0, 0.0), (1.0, 1.0)))
            spec = KernelSpec(tau=3.5, lengthscale=0.2, dim=2)
            dual = np.random.default_rng(2).standard_normal((len(X), 3))
            model = PosteriorModel(spec, MeanSpec("constant", 0.2), X, dual, 0.0, "toeplitz")
            Q = gen_grid(64, Domain((0.0, 0.0), (1.0, 1.0))).points
        else:
            failing_solve_toeplitz(math.inf)
            X = model.design
            model = fit(model.kernel, model.prior_mean, X, np.sin(7.0 * X.points), 0.01)
            assert model.route == "cholesky"
        assert posterior_mean(model, Q).tobytes() == _per_column_means(model, Q).tobytes()
        assert toeplitz_products[start:] == []

    def test_traced_peak_is_the_result_and_one_column_of_ffts(self, toeplitz_products):
        # 20 columns of 4096 queries against 2048 points take two phases of
        # N = 4096: their two spectra and the kernel vectors, and per column
        # one rfft, one product and one irfft of N, under 0.25 MiB beside the
        # (4096, 20) result; the block product's strip alone is 9/8 of
        # 512 KiB, and a spectrum of every column at once is 20 x 32 KiB
        n, r = 2048, 20
        X = gen_grid(n, UNIT)
        Y = np.sin(5.0 * X.points) + 0.1 * np.random.default_rng(4).standard_normal((n, r))
        model = fit(KernelSpec(tau=3.0, lengthscale=0.25), MeanSpec("constant", 0.3), X, Y, 1e-2)
        Q, start = gen_grid(4096, UNIT).points, len(toeplitz_products)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            means = posterior_mean(model, Q)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert toeplitz_products[start:] == [(n, 4096, 2)] and means.shape == (4096, r)
        assert peak <= means.nbytes + 2**20


class TestReplicateColumns:
    """A fit to r columns of observations is bitwise r one-column fits."""

    @pytest.mark.parametrize("n, lam", [(40, 0.01), (40, 0.0), (1024, 0.01)],
                             ids=["ridge", "interpolation_jitter", "toeplitz"])
    def test_columns_equal_single_fits(self, n, lam):
        # 1024 grid points take the Toeplitz route, whose FFTs take every
        # column at once and still give each column its one-column bits
        rng = np.random.default_rng(4)
        spec = KernelSpec(tau=2.0, lengthscale=0.25)
        X = jittered_design(rng, n) if n == 40 else gen_grid(n, UNIT)
        mean = MeanSpec("constant", 0.3)
        Y = np.sin(5 * X.points) + rng.normal(0.0, 0.1, (n, 6))
        batch = fit(spec, mean, X, Y, lam)
        assert batch.dual.shape == (n, 6)
        assert batch.route == ("toeplitz" if n == 1024 else "cholesky")
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

    def test_overwrite_y_solves_in_the_observations(self):
        # a Fortran-ordered y becomes the dual weights, bitwise those of the
        # fit that forms its own right-hand side and leaves y alone
        rng = np.random.default_rng(5)
        spec = KernelSpec(tau=2.0, lengthscale=0.25)
        X = jittered_design(rng, 40)
        mean = MeanSpec("constant", 0.3)
        Y = np.asfortranarray(np.sin(5 * X.points) + rng.normal(0.0, 0.1, (40, 6)))
        kept = Y.copy()
        plain = fit(spec, mean, X, Y, 0.01)
        assert np.array_equal(Y, kept)
        model = fit(spec, mean, X, Y, 0.01, overwrite_y=True)
        assert np.shares_memory(model.dual, Y)
        assert np.array_equal(model.dual, plain.dual)


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
        assert posterior_mean(model, [9.5])[0] == pytest.approx(0.7, abs=1e-6)

    def test_symmetric_two_point_system_matches_hand_solution(self):
        # midpoint prediction solved by hand from the 2x2 system
        spec = KernelSpec(tau=2.0, lengthscale=0.4, amplitude=1.0)
        X = PointSet(np.array([[0.25], [0.75]]), UNIT)
        kd, k2 = matern_of_r(spec, np.array([0.25, 0.5]))
        # equal observations c: prediction is 2 kd c / (A + k2)
        model = fit(spec, ZERO, X, [0.8, 0.8], 0.0)
        expected = 2 * kd * 0.8 / (1.0 + k2)
        assert posterior_mean(model, [0.5])[0] == pytest.approx(expected, rel=1e-9)
        # antisymmetric observations: prediction is their average, zero
        model = fit(spec, ZERO, X, [0.8, -0.8], 0.0)
        assert posterior_mean(model, [0.5])[0] == pytest.approx(0.0, abs=1e-12)

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


# design size of TestRowBlocks; posterior_mean streams row_block(128) = 512 rows
ROW_BLOCK_N = 128
ROW_BLOCK = row_block(ROW_BLOCK_N)


class TestRowBlocks:
    """``posterior_mean`` streams queries in blocks of ``row_block(n)`` rows."""

    def _model(self, r, mean=ZERO):
        rng = np.random.default_rng(r)
        X = jittered_design(rng, ROW_BLOCK_N)
        y = np.sin(6.0 * X.points) + 0.1 * rng.standard_normal((ROW_BLOCK_N, r))
        model = fit(KernelSpec(tau=2.0, lengthscale=0.25), mean, X, y, 1e-6)
        assert row_block(len(model.design)) == ROW_BLOCK
        return model, rng

    @staticmethod
    def _whole(model, Q):
        Kq = cross_matrix(model.kernel, Q, model.design)
        m_q = model.prior_mean(Q)
        return Kq, np.column_stack([m_q + Kq @ model.dual[:, k]
                                    for k in range(model.dual.shape[1])])

    @pytest.mark.parametrize("r", [1, 3])
    def test_full_blocks_are_bitwise_the_whole_product(self, r):
        model, rng = self._model(r, MeanSpec("polynomial", coeffs=(0.3, -0.5, 0.2)))
        Q = rng.random((3 * ROW_BLOCK, 1))
        _, whole = self._whole(model, Q)
        assert np.array_equal(posterior_mean(model, Q), whole)
        assert np.array_equal(posterior_mean(model.replicate(0), Q), whole[:, 0])

    @pytest.mark.parametrize("m", [ROW_BLOCK + 1, 3 * ROW_BLOCK + 5])
    @pytest.mark.parametrize("r", [1, 3])
    def test_ragged_last_block_within_dot_product_rounding(self, m, r):
        # each side is a length-n dot product, rounded within n eps |K_q| @ |dual|
        model, rng = self._model(r)
        Q = rng.random((m, 1))
        Kq, whole = self._whole(model, Q)
        n = len(model.design)
        bound = 2 * n * np.finfo(float).eps * (np.abs(Kq) @ np.abs(model.dual))
        assert np.all(np.abs(posterior_mean(model, Q) - whole) <= bound)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5, 1.3],
                             ids=["nu1/2", "nu3/2", "nu5/2", "nu7/2", "bessel1.3"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_buffered_blocks_are_bitwise_the_whole_kernel_split_at_the_blocks(self, nu, dim):
        # the whole cross matrix, unblocked, multiplied block by block at the
        # same row boundaries; 2 * 512 + 37 queries leave a ragged last block
        spec = KernelSpec(tau=nu + dim / 2, lengthscale=0.3, amplitude=1.2, dim=dim)
        rng = np.random.default_rng(dim)
        domain = Domain((0.0,) * dim, (1.0,) * dim)
        X = PointSet(rng.uniform(0.05, 0.95, (ROW_BLOCK_N, dim)), domain)
        model = fit(spec, ZERO, X, rng.standard_normal((ROW_BLOCK_N, 2)), 1e-6)
        Q = rng.random((2 * ROW_BLOCK + 37, dim))
        K = matern_of_r(spec, distances(Q, X.points))
        whole = np.vstack([np.column_stack([K[i : i + ROW_BLOCK] @ w for w in model.dual.T])
                           for i in range(0, len(Q), ROW_BLOCK)])
        assert np.array_equal(posterior_mean(model, Q), whole)


SPEC_STACK = KernelSpec(tau=2.0, lengthscale=0.25)


def _per_column_means(model, Q):
    """``posterior_mean`` as one ``Kq @ dual[:, k]`` per column of each block,
    over the same blocks: the loop the stacked product replaced."""
    design = model.design.points
    dual = model.dual if model.dual.ndim == 2 else model.dual[:, None]
    out = np.empty((len(Q), dual.shape[1]))
    out[:] = model.prior_mean(Q)[:, None]
    for rows, Kq in kernel_blocks(model.kernel, Q, design):
        for k in range(dual.shape[1]):
            out[rows, k] += Kq @ dual[:, k]
    return out[:, 0] if model.dual.ndim == 1 else out


def _strip_layout():
    # two grids: blocks are column slices of shared strip windows
    X = gen_grid(256, UNIT).points
    return X, gen_grid(4096, UNIT).points


def _gathered_layout():
    # P-greedy-like picks of a dyadic grid: a lattice set that is no progression
    cand = gen_grid(2048, UNIT).points
    X = cand[np.random.default_rng(5).permutation(2048)[:200]]
    return X, cand


def _direct_layout():
    # a design on no dyadic lattice: every block is a cross matrix
    return jittered_design(np.random.default_rng(6), 100).points, gen_grid(1000, UNIT).points


def _ragged_layout():
    # 1000 grid queries against 512 points: 7 full blocks of 128 rows and 104 left
    return gen_grid(512, UNIT).points, gen_grid(1024, UNIT).points[:1000]


class TestStackedColumns:
    """Every column's block product comes from one stacked gemv call, bitwise
    the per-column loop."""

    @pytest.mark.parametrize("r", [1, 3, 20])
    @pytest.mark.parametrize("layout, path", [
        (_strip_layout, "strip"), (_gathered_layout, "gather"),
        (_direct_layout, "direct"), (_ragged_layout, "ragged"),
    ], ids=["strip", "gather", "direct", "ragged"])
    def test_bitwise_the_per_column_loop(self, layout, path, r):
        X, Q = layout()
        table = lattice_table(SPEC_STACK, Q, X)
        if path == "strip":
            assert blocks_per_strip(table) >= 2
        elif path == "gather":
            assert table is not None and table.step_b is None
        elif path == "direct":
            assert table is None
        else:
            assert len(Q) % row_block(len(X)) != 0 and blocks_per_strip(table) is not None
        dual = np.random.default_rng(r).standard_normal((len(X), r))
        model = PosteriorModel(SPEC_STACK, MeanSpec("constant", 0.3), PointSet(X, UNIT),
                               dual[:, 0] if r == 1 else dual, 0.0)
        means = posterior_mean(model, Q)
        assert means.shape == ((len(Q),) if r == 1 else (len(Q), r))
        assert means.tobytes() == _per_column_means(model, Q).tobytes()


# A fresh interpreter: earlier tests can raise glibc's dynamic mmap threshold
# above a block's size, and then even one fresh temporary per block faults
# rarely.  The child pins BLAS to one thread, as the CLI does.
_FAULTS_CHILD = """
import resource, gprates.cli
gprates.cli._pin_blas_threads()
import numpy as np
from gprates.designs import UNIT_INTERVAL, gen_grid
from gprates.fitting import MeanSpec, fit, posterior_mean
from gprates.kernels import KernelSpec, lattice_table
X = gen_grid(512, UNIT_INTERVAL)
model = fit(KernelSpec(tau=2.0, lengthscale=0.25), MeanSpec(), X, np.sin(6.0 * X.points[:, 0]))
Q = gen_grid(8192, UNIT_INTERVAL).points
assert lattice_table(model.kernel, Q, X.points) is not None
posterior_mean(model, Q)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
posterior_mean(model, Q)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


# A fresh interpreter, so that what is resident before the measured fit is
# this process's own.  The first fit of the same size loads OpenBLAS's
# buffers for that size; the second's peak above what was resident before
# it is then its own Gram and block buffers.
_RESIDENCY_CHILD = """
import gprates.cli
gprates.cli._pin_blas_threads()
import numpy as np
import gprates.fitting
from gprates.designs import UNIT_INTERVAL, gen_grid
from gprates.fitting import MeanSpec, fit
from gprates.kernels import KernelSpec


def status(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))


gprates.fitting.solve_toeplitz = lambda c, b, **kwargs: np.full(len(c), np.nan)  # route off
n, r = 2048, 20
X = gen_grid(n, UNIT_INTERVAL)
Y = np.sin(5.0 * X.points) + 0.1 * np.random.default_rng(4).standard_normal((n, r))
spec = KernelSpec(tau=2.0, lengthscale=0.2)
fit(spec, MeanSpec("constant", 0.3), X, Y, 1e-4)
before = status("VmRSS")
fit(spec, MeanSpec("constant", 0.3), X, Y, 1e-4)
print(1024 * (status("VmHWM") - before))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmRSS and VmHWM from Linux's /proc/self/status")
def test_whole_gram_keeps_one_matrix_resident():
    # With the Toeplitz route switched off in the child, a 2048-point Gram
    # is written whole and factored in place: its 32 MiB are resident, and
    # no copy of K (scipy's copying factor, or a finiteness mask of all of
    # K) is.  The slack of 2 MiB holds the n x r right-hand side (320 KiB),
    # the block buffers and the lattice table.
    src = os.path.dirname(os.path.dirname(os.path.abspath(gprates.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _RESIDENCY_CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    n = 2048
    assert int(proc.stdout) <= 8 * n * n + 2 * 2**20


def test_gathered_gram_of_a_fit_takes_no_write_back_buffer():
    # P-greedy picks are no progression, so the Gram's blocks are gathered
    # by np.take into whole rows of K, each C-contiguous, in place.  Into a
    # block that is not C-contiguous (a half Gram's K[rows, first:]), np.take
    # copies its offsets and buffers the block with a write-back: 847 KB
    # traced beyond K, against 193 KB into whole rows.
    spec = KernelSpec(tau=2.0, lengthscale=0.2)
    X = gen_p_greedy(512, spec, gen_grid(2048, UNIT))
    n = len(X)
    table = lattice_table(spec, X.points, X.points)
    assert table is not None and table.step_a is None
    peaks = []

    def traced_gram(*args, **kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            K = gram(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return K

    with pytest.MonkeyPatch.context() as m:
        m.setattr(fitting, "gram", traced_gram)
        fit(spec, ZERO, X, np.sin(5.0 * X.points[:, 0]), 1e-4)
    assert len(peaks) == 1 and peaks[0] - 8 * n * n < 8 * BLOCK_ENTRIES / 2


@pytest.mark.parametrize("m, n, r", [(8192, 512, 1), (4096, 2048, 20)])
def test_grid_prediction_peaks_at_a_strip_of_9_8_blocks(m, n, r):
    # Both grids are progressions with a whole-number shift of M = 8 and 16
    # columns, so 9 and 17 blocks share a strip of exactly 9/8 of a block.
    # Beyond the strip, a call holds its output, the lattice table with its
    # integer coordinates, one gemv result of a block's height and a few
    # Python objects; a strip of twice a block would pass the bound by
    # BLOCK_ENTRIES float64s less one eighth.
    X = gen_grid(n, UNIT)
    Q = gen_grid(m, UNIT).points
    spec = KernelSpec(tau=2.0, lengthscale=0.25)
    dual = np.random.default_rng(m).standard_normal((n, r))
    model = PosteriorModel(spec, ZERO, X, dual[:, 0] if r == 1 else dual, 0.0)
    table = lattice_table(spec, Q, X.points)
    for _, block in table_blocks(table):
        assert block.base.size == row_block(n) * (n + n // 8)
    held = table.H.nbytes + 8 * (m + n)
    del table, block
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        means = posterior_mean(model, Q)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 9 / 8 * 8 * BLOCK_ENTRIES + means.nbytes + held + 16 * 1024


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_minflt counts minor page faults on Linux; other systems may leave it 0")
def test_repeat_prediction_does_not_refault_its_block_memory():
    # 8192 queries against 512 points stream 64 blocks; one fresh 512 KiB
    # temporary per block cost 14,592 minor faults per call, and buffers
    # reused across the blocks cost a few hundred at most.  Both grids are
    # dyadic, so the blocks are gathered from a lattice table, in place in
    # the one block buffer.
    src = os.path.dirname(os.path.dirname(os.path.abspath(gprates.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2000


class TestPosteriorVar:
    def test_zero_at_design_points(self, posterior_var):
        spec = KernelSpec(tau=2.0, lengthscale=0.3, amplitude=1.2)
        X = gen_grid(10, UNIT)
        model = fit(spec, ZERO, X, np.zeros(10), 0.0)
        assert posterior_var(model, X).max() <= 1e-8 * 1.2

    def test_amplitude_far_away(self, posterior_var):
        dom = Domain((0.0,), (10.0,))
        spec = KernelSpec(tau=1.0, lengthscale=0.1, amplitude=1.5)
        X = PointSet(np.array([[0.5]]), dom)
        model = fit(spec, ZERO, X, [1.0], 0.0)
        assert posterior_var(model, [9.5])[0] == pytest.approx(1.5, rel=1e-6)

    def test_bounded_by_amplitude(self, posterior_var):
        rng = np.random.default_rng(23)
        spec = KernelSpec(tau=2.0, lengthscale=0.25, amplitude=0.8)
        X = jittered_design(rng, 12)
        model = fit(spec, ZERO, X, rng.standard_normal(12), 0.01)
        vals = posterior_var(model, np.linspace(0.01, 0.99, 101), lam=0.01)
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
        lam_min = min_eigenvalue(gram(spec, X))
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
            Kall = gram(spec, allpts)
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
        Kall = gram(spec, allZ)
        fX = Kall[:n, n:] @ alpha
        w = np.linalg.solve(Kall[:n, :n], fX)
        norm_rf = math.sqrt(max(float(w @ Kall[:n, :n] @ w), 0.0))
        for _ in range(50):
            m2 = int(rng.integers(2, 7))
            W = rng.uniform(0.05, 0.95, (m2, 1))
            beta = rng.standard_normal(m2)
            pool = np.vstack([X.points, W])
            Kp = gram(spec, pool)
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
            Kall = gram(spec, allpts)
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

    def test_polynomial_mean_of_the_wrong_length_is_rejected_at_the_call(self):
        # a library caller builds MeanSpec with no config parser in between
        mean = MeanSpec("polynomial", coeffs=(1.0, 2.0, 3.0))
        with pytest.raises(ConfigurationError, match=r"1 \+ 2\*dim coefficients, got 3"):
            mean(np.zeros((4, 2)))

    def test_fit_with_nonzero_mean_interpolates(self):
        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        mean = MeanSpec("polynomial", coeffs=(0.5, 1.0, 0.0))
        X = gen_grid(8, UNIT)
        y = np.cos(3 * X.points[:, 0])
        model = fit(spec, mean, X, y, 0.0)
        np.testing.assert_allclose(posterior_mean(model, X.points), y, atol=1e-7)
