"""Conditioning: interpolation/regression identities and RKHS-norm properties."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import gprates
from gprates.designs import Domain, PointSet, gen_grid
from gprates.errors import ConfigurationError
from gprates.fitting import (
    DEFAULT_JITTER_FACTOR,
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
    cross_matrix,
    distances,
    gram,
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

    def test_traced_peak_is_one_matrix(self):
        # K itself, then gram's distance block and the two block temporaries
        # of nu = 3/2, each n^2 / 16 at n = 1024 (nu = 5/2 adds a third and
        # lands just over the bound); the copying factor peaked at 3.1 x 8 n^2
        n = 1024
        X = gen_grid(n, UNIT)
        y = np.sin(5.0 * X.points[:, 0])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit(KernelSpec(tau=2.0, lengthscale=0.2), ZERO, X, y, 1e-4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n

    def test_model_holds_no_n_by_n_array(self):
        n = 1024
        X = gen_grid(n, UNIT)
        y = np.sin(5.0 * X.points[:, 0])
        model = fit(KernelSpec(tau=2.0, lengthscale=0.2), ZERO, X, y, 1e-4)
        arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.size < n * n for a in arrays)


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

    def test_fit_with_nonzero_mean_interpolates(self):
        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        mean = MeanSpec("polynomial", coeffs=(0.5, 1.0, 0.0))
        X = gen_grid(8, UNIT)
        y = np.cos(3 * X.points[:, 0])
        model = fit(spec, mean, X, y, 0.0)
        np.testing.assert_allclose(posterior_mean(model, X.points), y, atol=1e-7)
