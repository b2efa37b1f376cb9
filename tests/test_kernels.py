"""Kernel evaluation: frozen examples, closed-form vs Bessel oracle, Gram properties."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma, kv

from gprates import designs, kernels
from gprates.designs import UNIT_INTERVAL, Domain, PointSet, gen_grid, gen_p_greedy
from gprates.errors import ConfigurationError, SingularGramWarning
from gprates.fitting import MeanSpec, PosteriorModel, posterior_mean
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
    row_blocks,
    table_block,
    work_arrays,
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


def k(spec, x, y):
    """The kernel value between two points, through the one batch path."""
    return cross_matrix(spec, [x], [y])[0, 0]


class TestMaternValues:
    def test_coincident_points_give_amplitude(self):
        spec = KernelSpec(tau=1.0, lengthscale=1.0, amplitude=1.0, dim=1)
        assert k(spec, [0.0], [0.0]) == 1.0
        spec = KernelSpec(tau=1.7, lengthscale=0.3, amplitude=2.5, dim=1)
        assert k(spec, [0.4], [0.4]) == 2.5

    def test_exponential_closed_form(self):
        # nu = 1/2: A * exp(-r/l)
        spec = KernelSpec(tau=1.0, lengthscale=1.0, amplitude=1.0, dim=1)
        assert k(spec, [0.0], [1.0]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_nu_three_halves_closed_form(self):
        # nu = 3/2: A * (1 + sqrt(3) r/l) exp(-sqrt(3) r/l); at r = l = 1 the
        # value is (1 + sqrt(3)) exp(-sqrt(3)) = 0.48335772..., frozen from the
        # Bessel-series oracle below
        spec = KernelSpec(tau=2.0, lengthscale=1.0, amplitude=1.0, dim=1)
        v = k(spec, [0.0], [1.0])
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

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
    @pytest.mark.parametrize("ell, amplitude", [(0.25, 1.3), (0.3, 0.04)])
    def test_closed_forms_are_bitwise_the_displayed_formulas(self, nu, ell, amplitude):
        # the in-place evaluation keeps each formula's operation order; a
        # lengthscale that is a power of two and one that is not both catch
        # a reordering of (c r) / l
        def displayed(r):
            t = np.sqrt(2.0 * nu) * r / ell
            if nu == 0.5:
                return amplitude * np.exp(-t)
            if nu == 1.5:
                return amplitude * (1.0 + t) * np.exp(-t)
            if nu == 2.5:
                return amplitude * (1.0 + t + t * t / 3.0) * np.exp(-t)
            return amplitude * (1.0 + t + 0.4 * t * t + t ** 3 / 15.0) * np.exp(-t)

        spec = KernelSpec(tau=nu + 0.5, lengthscale=ell, amplitude=amplitude, dim=1)
        rng = np.random.default_rng(17)
        r = np.concatenate([[0.0], rng.random(3000) * 3.0, np.logspace(-12, 1.5, 400)])
        kept = r.copy()
        assert np.array_equal(matern_of_r(spec, r), displayed(r))
        assert np.array_equal(r, kept)  # the distances are not overwritten
        square = r[:3000].reshape(60, 50)
        assert np.array_equal(matern_of_r(spec, square), displayed(square))

    @pytest.mark.parametrize("nu, use_bessel", [(1.3, False), (2.0, False), (2.5, True)])
    def test_bessel_path_is_bitwise_the_displayed_formula(self, nu, use_bessel):
        # the formula on the positive distances alone, and the amplitude at
        # r = 0, as the path once computed it through a mask and a gather
        spec = KernelSpec(tau=nu + 0.5, lengthscale=0.3, amplitude=1.7, dim=1)

        def displayed(r):
            t = np.sqrt(2.0 * nu) * r / 0.3
            out = np.full_like(t, 1.7)
            tp = t[t > 0]
            out[t > 0] = 1.7 * (2.0 ** (1.0 - nu) / gamma(nu)) * tp ** nu * kv(nu, tp)
            return out

        rng = np.random.default_rng(19)
        r = np.concatenate([[0.0], rng.random(2000) * 3.0, [0.0], np.logspace(-12, 1.5, 398)])
        assert np.array_equal(matern_of_r(spec, r, use_bessel), displayed(r))
        square = r.reshape(60, 40)
        assert np.array_equal(matern_of_r(spec, square, use_bessel), displayed(square))

    def test_general_order_uses_bessel(self):
        spec = KernelSpec(tau=1.75, lengthscale=0.5, amplitude=1.0, dim=1)
        assert not spec.is_half_integer
        v = k(spec, [0.0], [0.25])
        assert 0.0 < v < 1.0
        assert k(spec, [0.1], [0.1]) == 1.0  # r = 0 handled analytically

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        spec = KernelSpec(tau=2.2, lengthscale=0.4, amplitude=1.1, dim=3)
        for _ in range(25):
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert k(spec, x, y) == k(spec, y, x)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        spec = KernelSpec(tau=1.6, lengthscale=0.7, amplitude=0.9, dim=2)
        for _ in range(25):
            x, y, c = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
            a = k(spec, x, y)
            b = k(spec, x + c, y + c)
            assert a == pytest.approx(b, abs=1e-12)

    def test_monotone_decay(self):
        spec = KernelSpec(tau=2.5, lengthscale=0.3, amplitude=1.0, dim=1)
        radii = np.linspace(0.0, 5.0, 400)
        vals = matern_of_r(spec, radii)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_dimension_mismatch_rejected(self):
        spec = KernelSpec(tau=2.0, dim=2)
        with pytest.raises(ConfigurationError):
            cross_matrix(spec, [0.0], [1.0])
        with pytest.raises(ConfigurationError):
            cross_matrix(spec, np.zeros((3, 1)), np.zeros((3, 2)))


class TestGram:
    def test_single_point(self):
        spec = KernelSpec(tau=2.0, amplitude=1.7)
        K = gram(spec, np.array([[0.3]]))
        assert K.shape == (1, 1) and K[0, 0] == 1.7

    def test_duplicate_points_warn_and_return_rank_one(self):
        spec = KernelSpec(tau=2.0, amplitude=2.0)
        with pytest.warns(SingularGramWarning):
            K = gram(spec, np.array([[0.5], [0.5]]))
        np.testing.assert_allclose(K, [[2.0, 2.0], [2.0, 2.0]])

    def test_two_point_values(self):
        spec = KernelSpec(tau=1.0, lengthscale=1.0, amplitude=1.0)
        K = gram(spec, np.array([[0.0], [1.0]]))
        e1 = math.exp(-1.0)
        np.testing.assert_allclose(K, [[1.0, e1], [e1, 1.0]], rtol=1e-12)

    def test_exact_symmetry_and_amplitude_diagonal(self):
        rng = np.random.default_rng(7)
        spec = KernelSpec(tau=2.3, lengthscale=0.2, amplitude=1.3, dim=2)
        X = rng.random((40, 2))
        K = gram(spec, X)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == spec.amplitude)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            spec = KernelSpec(tau=rng.uniform(0.8, 3.0), lengthscale=rng.uniform(0.1, 1.0))
            X = rng.random((30, 1))
            K = gram(spec, X)
            assert min_eigenvalue(K) >= -1e-8 * spec.amplitude

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("nu", [1.5, 1.3], ids=["half_integer", "bessel"])
    def test_one_distance_path(self, dim, nu):
        # gram, cross_matrix and the profile on distances agree bit for bit
        rng = np.random.default_rng(dim)
        spec = KernelSpec(tau=nu + dim / 2, lengthscale=0.3, amplitude=1.4, dim=dim)
        X = rng.random((25, dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # distinct points must not warn
            K = gram(spec, X)
        assert np.array_equal(K, cross_matrix(spec, X, X))
        assert np.array_equal(K, matern_of_r(spec, distances(X, X)))
        assert np.array_equal(K, K.T)


class TestRowBlock:
    """Streamed blocks are sized in entries, with heights a multiple of 8."""

    @pytest.mark.parametrize("n", [1, 7, 8, 100, 1000, 2048, 8191, 8192, 8193, 10**5])
    def test_height_is_a_positive_multiple_of_8(self, n):
        step = row_block(n)
        assert step >= 8 and step % 8 == 0

    def test_at_most_block_entries_per_block(self):
        for n in range(1, BLOCK_ENTRIES // 8 + 1):
            assert row_block(n) * n <= BLOCK_ENTRIES


class TestBlockedGram:
    """``gram`` fills row blocks of ``row_block(n)`` into one n x n matrix."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("nu", [1.5, 2.5, 1.3, 0.5, 3.5],
                             ids=["nu3/2", "nu5/2", "bessel1.3", "nu1/2", "nu7/2"])
    def test_blocks_are_bitwise_the_whole_matrix(self, dim, nu):
        n = 1000
        assert n // row_block(n) >= 3 and n % row_block(n) != 0  # ragged tail
        rng = np.random.default_rng(dim)
        spec = KernelSpec(tau=nu + dim / 2, lengthscale=0.3, amplitude=1.4, dim=dim)
        X = rng.random((n, dim))
        K = gram(spec, X)
        assert np.array_equal(K, matern_of_r(spec, distances(X, X)))

    def test_duplicate_pair_in_different_blocks_warns(self):
        n = 1000
        X = np.random.default_rng(5).random((n, 1))
        X[n - 1] = X[0]  # first and last block
        assert row_block(n) < n - 1
        with pytest.warns(SingularGramWarning):
            gram(KernelSpec(tau=2.0), X)


# every closed form and one Bessel order, as (nu, id)
ORDERS = pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5, 1.3],
                                 ids=["nu1/2", "nu3/2", "nu5/2", "nu7/2", "bessel1.3"])


class TestBuffers:
    """Kernel blocks written into caller-owned buffers are bitwise the unbuffered ones."""

    def test_row_blocks_cover_the_rows_with_one_stack(self):
        m, n = 1000, 300
        step = row_block(n)
        assert m % step != 0  # ragged tail
        seen, bases = [], set()
        for rows, bufs in row_blocks(m, n, 3):
            assert bufs.shape == (3, rows.stop - rows.start, n)
            assert all(b.flags.c_contiguous for b in bufs)
            seen.extend(range(rows.start, rows.stop))
            bases.add(bufs.__array_interface__["data"][0])
        assert seen == list(range(m)) and len(bases) == 1

    @pytest.mark.parametrize("nu, count", [(0.5, 0), (1.5, 0), (2.5, 1), (3.5, 2), (1.3, 0)])
    def test_work_arrays(self, nu, count):
        assert work_arrays(KernelSpec(tau=nu + 0.5)) == count

    @pytest.mark.parametrize("dim", [1, 2])
    def test_distances_into_out(self, dim):
        rng = np.random.default_rng(dim)
        a, b = rng.random((70, dim)), rng.random((40, dim))
        out = np.full((70, 40), np.nan)
        assert distances(a, b, out=out) is out
        assert np.array_equal(out, distances(a, b))

    @ORDERS
    def test_matern_of_r_into_out(self, nu):
        spec = KernelSpec(tau=nu + 0.5, lengthscale=0.3, amplitude=1.4)
        r = np.random.default_rng(4).random((60, 50)) * 3.0
        r[0, :3] = 0.0
        expected = matern_of_r(spec, r)
        work = np.full((2, 60, 50), np.nan)
        out = np.full((60, 50), np.nan)
        assert matern_of_r(spec, r.copy(), out=out, work=work) is out
        assert np.array_equal(out, expected)
        assert not np.isnan(work[: work_arrays(spec)]).any()  # the terms went into work
        out = np.full((60, 50), np.nan)  # no work arrays: the terms are allocated
        assert np.array_equal(matern_of_r(spec, r.copy(), out=out), expected)

    @ORDERS
    @pytest.mark.parametrize("dim", [1, 2])
    def test_cross_matrix_into_buffers(self, nu, dim):
        spec = KernelSpec(tau=nu + dim / 2, lengthscale=0.3, amplitude=1.4, dim=dim)
        rng = np.random.default_rng(dim)
        Xq, X = rng.random((90, dim)), rng.random((35, dim))
        out, *work = np.full((2 + work_arrays(spec), 90, 35), np.nan)
        assert cross_matrix(spec, Xq, X, out=out, work=work) is out
        assert np.array_equal(out, matern_of_r(spec, distances(Xq, X)))


def test_distances_in_1d_are_absolute_differences():
    rng = np.random.default_rng(2)
    a, b = rng.random((300, 1)), rng.random((200, 1))
    D = distances(a, b)
    # bitwise the root of the squared difference while it neither under- nor overflows
    assert np.array_equal(D, np.sqrt((a - b.T) ** 2))
    tiny = distances(np.array([[1e-200]]), np.array([[0.0]]))
    assert tiny[0, 0] == 1e-200  # the root of the underflowed square would be 0


def _tensor_distances(A, B):
    """Distances through the (m, n, d) difference tensor, the formula the
    coordinate-by-coordinate sum replaces."""
    return np.sqrt(np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=-1))


@pytest.mark.parametrize("dim", [2, 3])
def test_blocked_distances_are_bitwise_the_tensor_formula(dim):
    rng = np.random.default_rng(dim)
    A, B = rng.standard_normal((1000, dim)), rng.random((300, dim))
    assert len(A) % row_block(len(B))  # a ragged last block
    expected = _tensor_distances(A, B)
    for rows, (d, work) in row_blocks(len(A), len(B), 2):
        assert np.array_equal(distances(A[rows], B, out=d, work=work), expected[rows])
    assert np.array_equal(distances(A, B), expected)


def test_2d_block_allocates_no_difference_tensor():
    import tracemalloc

    rng = np.random.default_rng(5)
    A, B = rng.random((128, 2)), rng.random((576, 2))
    spec = KernelSpec(tau=3.5, dim=2)  # nu = 5/2: one matern work array
    dist, out, *work = np.empty((2 + work_arrays(spec), 128, 576))
    bound = A.shape[0] * B.shape[0] * 8 // 4  # a quarter of one block
    peaks = []
    for call in (lambda: distances(A, B, out=dist, work=out),
                 lambda: cross_matrix(spec, A, B, out=out, work=[dist, *work]),
                 lambda: _tensor_distances(A, B)):
        tracemalloc.start()
        call()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < bound and peaks[1] < bound
    assert peaks[2] > 8 * bound  # the (m, n, d) tensor and its square
    assert np.array_equal(out, matern_of_r(spec, _tensor_distances(A, B)))


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


# Orders on the lattice-table path: the four closed forms, a7's Bessel order
# nu = 2 (tau = 2.5 in 1-d) and nu = 1.3.  Amplitude 1.7 and lengthscale 0.3
# (not a power of two) keep both scales inexact in binary.
TABLE_ORDERS = pytest.mark.parametrize(
    "nu", [0.5, 1.5, 2.5, 3.5, 2.0, 1.3],
    ids=["nu1/2", "nu3/2", "nu5/2", "nu7/2", "bessel2", "bessel1.3"])


def _table_spec(nu):
    return KernelSpec(tau=nu + 0.5, lengthscale=0.3, amplitude=1.7)


def _model(spec, X, rng):
    """A model at the 1-d design ``X`` with two columns of random dual weights."""
    domain = Domain((float(X.min()) - 1.0,), (float(X.max()) + 1.0,))
    return PosteriorModel(spec, MeanSpec(), PointSet(X, domain),
                          rng.standard_normal((len(X), 2)), 0.0)


def _blocked_product(K, dual, step):
    """``K @ dual`` as ``posterior_mean`` forms it: one gemv per column and
    per block of ``step`` rows."""
    return np.vstack([np.column_stack([K[i : i + step] @ w for w in dual.T])
                      for i in range(0, len(K), step)])


def _distinct_offsets(rng, n, span, low):
    """``n`` distinct integers in ``[0, span]``, shuffled, holding both ends and
    ``-low`` (the offset of coordinate zero)."""
    fixed = np.unique([0, span, -low])
    pool = np.setdiff1d(np.arange(span + 1), fixed)
    offsets = np.concatenate([fixed, rng.choice(pool, n - len(fixed), replace=False)])
    rng.shuffle(offsets)
    return offsets


@st.composite
def dyadic_gram_sets(draw):
    """Distinct multiples of ``2^-p`` (p in 0 ... 20) whose integer coordinates
    run from ``low <= 0`` to ``low + span >= 0``, zero included: at least two
    row blocks of ``gram``, the last one ragged, on a span the table takes."""
    n = draw(st.integers(257, 320).filter(lambda n: n % row_block(n)))
    span = draw(st.integers(n - 1, n * n // 4 - 1))
    low = draw(st.integers(-span, 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ints = low + _distinct_offsets(rng, n, span, low)
    return np.ldexp(ints.astype(float), -draw(st.integers(0, 20)))[:, None]


@st.composite
def dyadic_prediction_sets(draw):
    """``(queries, design, seed)`` on one lattice as in :func:`dyadic_gram_sets`:
    two row blocks of queries, the last ragged, which repeat each other and
    meet the design points."""
    n = draw(st.integers(8, 48))
    step = row_block(n)
    m = draw(st.integers(step + 1, 2 * step - 1))
    span = draw(st.integers(n - 1, m * n // 4 - 1))
    low = draw(st.integers(-span, 0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    design = low + _distinct_offsets(rng, n, span, low)
    queries = low + rng.integers(0, span + 1, m)
    p = draw(st.integers(0, 20))
    return (np.ldexp(queries.astype(float), -p)[:, None],
            np.ldexp(design.astype(float), -p)[:, None], seed)


def _is_progression(ints):
    """Whether consecutive integers all differ by one step (one point: step 0)."""
    return len(set(np.diff(ints).tolist())) <= 1


@st.composite
def lattice_ints(draw, max_len):
    """Integer lattice coordinates: a progression of step 1 ... 8, ascending
    or descending, one point, or points drawn with repeats from a window.
    Sets of 40 or more points keep two of them on a table of their union
    most of the time (``4 (S + 1) <= m n``)."""
    kind = draw(st.sampled_from(["progression", "progression", "scattered", "one"]))
    start = draw(st.integers(-16, 16))
    if kind == "one":
        return np.array([start])
    n = draw(st.integers(40, max_len))
    if kind == "progression":
        step = draw(st.integers(1, 8)) * draw(st.sampled_from([1, -1]))
        return start + step * np.arange(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return start + rng.integers(0, draw(st.integers(1, n)) + 1, n)


@st.composite
def progression_ints(draw, n):
    """``n`` distinct integers in a progression of step 1 ... 8, ascending or
    descending, starting between -64 and 64."""
    step = draw(st.integers(1, 8)) * draw(st.sampled_from([1, -1]))
    return draw(st.integers(-64, 64)) + step * np.arange(n)


def _on_lattice(ints, p):
    return np.ldexp(np.asarray(ints, dtype=float), -p)[:, None]


def _picks(n, spec, cand):
    """``gen_p_greedy``'s picks, or the type of the error it raises."""
    try:
        return gen_p_greedy(n, spec, cand).points
    except ConfigurationError as exc:
        return type(exc)


class TestLatticeTable:
    """1-d sets on a small dyadic lattice gather their kernel blocks from one
    table, bitwise the direct evaluation; every other set is evaluated directly."""

    @TABLE_ORDERS
    @settings(max_examples=12, deadline=None)
    @given(X=dyadic_gram_sets())
    def test_gram_through_the_table_is_bitwise_the_direct_matrix(self, nu, X):
        spec = _table_spec(nu)
        assert lattice_table(spec, X, X) is not None
        K = gram(spec, X)
        assert np.array_equal(K, matern_of_r(spec, distances(X, X)))
        assert np.array_equal(K, cross_matrix(spec, X, X))

    @TABLE_ORDERS
    @settings(max_examples=12, deadline=None)
    @given(case=dyadic_prediction_sets())
    def test_prediction_through_the_table_is_bitwise_the_blocked_product(self, nu, case):
        Q, X, seed = case
        spec = _table_spec(nu)
        model = _model(spec, X, np.random.default_rng(seed))
        assert lattice_table(spec, Q, X) is not None
        K = matern_of_r(spec, distances(Q, X))
        assert np.array_equal(K, cross_matrix(spec, Q, X))
        assert np.array_equal(posterior_mean(model, Q),
                              _blocked_product(K, model.dual, row_block(len(X))))

    @TABLE_ORDERS
    @settings(max_examples=15, deadline=None)
    @given(ia=lattice_ints(160), ib=lattice_ints(64), p=st.integers(0, 20),
           height=st.integers(1, 64))
    # one-point sets take a table only against repeated points
    @example(ia=np.full(16, 5), ib=np.array([7]), p=3, height=5)
    @example(ia=np.array([1, 2] * 20), ib=np.array([2]), p=0, height=7)
    def test_window_and_gather_blocks_are_bitwise_the_direct_block(self, nu, ia, ib, p, height):
        A, B = _on_lattice(ia, p), _on_lattice(ib, p)
        spec = _table_spec(nu)
        table = lattice_table(spec, A, B)
        # the rule reads the span in steps of the offsets' lattice, which is
        # coarser than 2^-p when every offset from the lowest point shares a
        # factor 2
        offsets = np.concatenate([ia, ib]) - min(ia.min(), ib.min())
        bits = int(np.bitwise_or.reduce(offsets))
        shared = p if bits == 0 else min(p, (bits & -bits).bit_length() - 1)
        span = int(offsets.max()) >> shared
        assert (table is None) == (4 * (span + 1) > len(A) * len(B))
        if table is None:
            return
        for ints, index, step in ((ia, table.ia, table.step_a), (ib, table.ib, table.step_b)):
            assert (step is None) == (not _is_progression(ints))
            if step is not None:
                assert np.array_equal(index, index[0] + step * np.arange(len(index)))
        direct = matern_of_r(spec, distances(A, B))
        gather = table._replace(step_a=None)  # the same table, read by offsets
        # blocks of ``height`` rows, the last one ragged
        for start in range(0, len(A), height):
            rows = slice(start, min(start + height, len(A)))
            for t in (table, gather):
                out = np.full((rows.stop - rows.start, len(B)), np.nan)
                assert table_block(t, rows, out) is out
                assert np.array_equal(out, direct[rows])

    @TABLE_ORDERS
    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), p=st.integers(0, 20))
    def test_grids_through_the_window_are_bitwise_the_direct_path(self, nu, data, p):
        spec = _table_spec(nu)
        # gram: two row blocks, the last one ragged
        n = data.draw(st.integers(257, 320).filter(lambda n: n % row_block(n)))
        X = _on_lattice(data.draw(progression_ints(n)), p)
        table = lattice_table(spec, X, X)
        assert table is not None and None not in (table.step_a, table.step_b)
        assert np.array_equal(gram(spec, X), matern_of_r(spec, distances(X, X)))
        # prediction: a grid of queries against a grid design, two row
        # blocks, the last one ragged; from n = 33 on, the union of two such
        # progressions spans at most 8 (m + n) + 112 <= m n / 4 - 1 steps,
        # so every drawn pair takes a table (at n = 32 some did not)
        n = data.draw(st.integers(33, 48))
        step = row_block(n)
        m = data.draw(st.integers(step + 1, 2 * step - 1))
        Q = _on_lattice(data.draw(progression_ints(m)), p)
        X = _on_lattice(data.draw(progression_ints(n)), p)
        table = lattice_table(spec, Q, X)
        assert table is not None and None not in (table.step_a, table.step_b)
        model = _model(spec, X[:, 0], np.random.default_rng(m))
        K = matern_of_r(spec, distances(Q, X))
        assert np.array_equal(posterior_mean(model, Q), _blocked_product(K, model.dual, step))

    @TABLE_ORDERS
    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), p=st.integers(0, 20))
    def test_p_greedy_columns_from_the_table_are_bitwise_the_direct_ones(self, nu, data, p):
        from unittest import mock

        spec = _table_spec(nu)
        m = data.draw(st.integers(32, 96))  # a span of 8 (m - 1) takes the table
        if data.draw(st.booleans(), label="grid"):
            ints = data.draw(progression_ints(m))
        else:
            ints = data.draw(st.lists(st.integers(-m, m), min_size=m, max_size=m, unique=True))
        C = _on_lattice(ints, p)
        table = lattice_table(spec, C, C)
        assert table is not None
        assert (table.step_a is not None) == _is_progression(ints)
        row = np.empty((1, m))
        for j in range(m):
            assert np.array_equal(table_block(table, slice(j, j + 1), row)[0],
                                  cross_matrix(spec, C, C[j : j + 1])[:, 0])
        cand = PointSet(C, Domain((float(C.min()) - 1.0,), (float(C.max()) + 1.0,)))
        n = data.draw(st.integers(1, min(m, 12)))
        picks = _picks(n, spec, cand)
        with mock.patch.object(designs, "lattice_table", lambda *args: None):
            direct = _picks(n, spec, cand)
        assert np.array_equal(picks, direct) if isinstance(direct, np.ndarray) else picks is direct

    @pytest.mark.parametrize("X", [
        gen_grid(100, UNIT_INTERVAL).points,
        # the lower end 0.1 lies on no coarse lattice (a domain [0, 3] with a
        # power-of-two grid does: see the next test)
        gen_grid(64, Domain((0.1,), (3.1,))).points,
        np.random.default_rng(8).random((300, 1)),
        gen_grid(16, Domain((0.0, 0.0), (1.0, 1.0))).points,
        np.ldexp(np.sort(np.random.default_rng(9).choice(2**20 + 1, 64, replace=False)),
                 -20)[:, None],
    ], ids=["grid100", "width3_offset", "random", "grid2d", "span_over_threshold"])
    def test_other_sets_take_the_direct_path(self, counted, X):
        spec = KernelSpec(tau=2.0 + X.shape[1] / 2, lengthscale=0.3, amplitude=1.7,
                          dim=X.shape[1])
        assert lattice_table(spec, X, X) is None
        evaluated = counted(kernels, "matern_of_r")
        K = gram(spec, X)
        model = _model(spec, X, np.random.default_rng(1)) if X.shape[1] == 1 else None
        means = None if model is None else posterior_mean(model, X)
        n = len(X)
        assert evaluated["entries"] == n * n * (1 if model is None else 2)
        direct = matern_of_r(spec, distances(X, X))
        assert np.array_equal(K, direct)
        if model is not None:
            assert np.array_equal(means, _blocked_product(direct, model.dual, row_block(n)))

    @pytest.mark.parametrize("X", [
        gen_grid(64, Domain((0.0,), (3.0,))).points,  # multiples of 3/128
        gen_grid(1024, UNIT_INTERVAL).points,
        gen_grid(256, Domain((-1.0,), (1.0,))).points,
    ], ids=["width3_grid64", "grid1024", "symmetric_grid256"])
    def test_dyadic_grids_evaluate_one_table(self, counted, X):
        spec = KernelSpec(tau=2.0, lengthscale=0.3, amplitude=1.7)
        table = lattice_table(spec, X, X)
        # a grid is a progression, so its blocks are windows of the table
        assert table.step_a == table.step_b and table.step_a is not None
        # one two-sided table, evaluated once on its nonnegative half
        assert len(table.H) == 2 * table.S + 1 and np.array_equal(table.H, table.H[::-1])
        evaluated = counted(kernels, "matern_of_r")
        K = gram(spec, X)
        assert evaluated == {"calls": 1, "entries": table.S + 1}
        assert 4 * (table.S + 1) <= len(X) ** 2
        assert np.array_equal(K, matern_of_r(spec, distances(X, X)))

    @TABLE_ORDERS
    @pytest.mark.parametrize("n, domain", [
        (8, UNIT_INTERVAL), (512, UNIT_INTERVAL), (4096, UNIT_INTERVAL),
        (256, Domain((-1.0,), (1.0,))),
    ], ids=["grid8", "grid512", "grid4096", "symmetric_grid256"])
    def test_midpoint_grid_has_one_offset_per_point(self, nu, n, domain):
        # coordinates are odd multiples of half a cell and their differences
        # whole cells, so the table of the grid against itself holds n offsets
        X = gen_grid(n, domain).points
        spec = _table_spec(nu)
        table = lattice_table(spec, X, X)
        assert table.S == n - 1 and table.step_a == table.step_b == 1
        rng = np.random.default_rng(n)
        for start in [0, n - 8, *rng.integers(0, n - 7, 4)]:
            rows = slice(start, start + 8)
            out = np.empty((8, n))
            assert np.array_equal(table_block(table, rows, out),
                                  matern_of_r(spec, distances(X[rows], X)))
            assert np.array_equal(table_block(table._replace(step_a=None), rows, out),
                                  cross_matrix(spec, X[rows], X))

    @pytest.mark.parametrize("span, taken", [(15, True), (16, False)])
    def test_table_is_at_most_a_quarter_of_the_block(self, span, taken):
        # 8 points on the integers 0 ... span: a table of span + 1 entries
        # against a block of 64
        X = np.array([0.0, 1, 2, 3, 4, 5, 6, span])[:, None]
        assert (lattice_table(KernelSpec(tau=2.0), X, X) is not None) == taken

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_small_midpoint_grids_gate_on_their_offsets(self, n):
        # n offsets against an n x n block: a table from n = 4 on (4 <= 16 / 4),
        # although at n = 4 the coordinates span 6 steps of their own lattice
        X = gen_grid(n, UNIT_INTERVAL).points
        spec = _table_spec(2.5)
        table = lattice_table(spec, X, X)
        assert (table is not None) == (n >= 4)
        if table is not None:
            assert table.S == n - 1
            assert np.array_equal(gram(spec, X), matern_of_r(spec, distances(X, X)))

    def test_duplicate_pair_in_different_blocks_warns_on_the_table_path(self):
        X = gen_grid(1024, UNIT_INTERVAL).points.copy()
        X[-1] = X[0]  # first and last block
        spec = KernelSpec(tau=2.0)
        assert lattice_table(spec, X, X) is not None and row_block(1024) < 1023
        with pytest.warns(SingularGramWarning):
            K = gram(spec, X)
        assert np.array_equal(K, matern_of_r(spec, distances(X, X)))

    @pytest.mark.parametrize("coords", [[0.0, 0.5, np.inf], [np.inf, np.inf, np.inf],
                                        [-np.inf, 0.5, np.inf], [0.25, np.nan, 0.5],
                                        [-1e308, 0.5, 1e308], [-2.0**70, 0.5, 2.0**70]],
                             ids=["inf", "all_inf", "both_infs", "nan", "overflowing_span",
                                  "span_past_2^53_steps"])
    def test_unbounded_coordinates_have_no_table(self, coords):
        X = np.array(coords)[:, None]
        assert lattice_table(KernelSpec(tau=2.0), X, X) is None


# Orders of the strip tests: the four closed forms and a7's Bessel order nu = 2.
STRIP_ORDERS = pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5, 2.0],
                                       ids=["nu1/2", "nu3/2", "nu5/2", "nu7/2", "bessel2"])


def _strip_model(spec, X, r, seed):
    """A model at the 1-d design ``X`` with a nonzero prior mean and ``r``
    columns of random dual weights (one fit of shape (n,) when r = 1)."""
    rng = np.random.default_rng(seed)
    dual = rng.standard_normal((len(X), r))
    domain = Domain((float(X.min()) - 1.0,), (float(X.max()) + 1.0,))
    return PosteriorModel(spec, MeanSpec("constant", 0.3), PointSet(X, domain),
                          dual[:, 0] if r == 1 else dual, 0.0)


def _per_block_means(model, Q, table):
    """``posterior_mean`` as the per-block window path forms it: each block of
    ``row_block(n)`` rows copied by ``table_block`` into a C-contiguous array,
    ``m(x) + block @ w`` per column."""
    dual = model.dual.reshape(len(model.design), -1)
    m_q = model.prior_mean(Q)
    step = row_block(len(model.design))
    out = np.empty((len(Q), dual.shape[1]))
    for start in range(0, len(Q), step):
        rows = slice(start, min(start + step, len(Q)))
        block = table_block(table, rows, np.empty((rows.stop - start, len(model.design))))
        for k in range(dual.shape[1]):
            out[rows, k] = m_q[rows] + block @ dual[:, k]
    return out[:, 0] if model.dual.ndim == 1 else out


def _query_count(draw, h):
    """A query count against blocks of ``h`` rows: one point, below one block,
    an exact multiple of ``h``, ``1 (mod 8)``, or ragged after full blocks."""
    kind = draw(st.sampled_from(["one", "below", "multiple", "one_mod_8", "ragged"]))
    if kind == "one":
        return 1
    if kind == "below":
        return draw(st.integers(2, h - 1))
    if kind == "multiple":
        return h * draw(st.integers(1, 4))
    if kind == "one_mod_8":
        return 8 * draw(st.integers(1, h // 2)) + 1
    return h * draw(st.integers(1, 3)) + draw(st.integers(1, h - 1))


@st.composite
def strip_cases(draw):
    """``(query ints, design ints, r)``: two progressions, ascending, descending,
    of one point or of one point repeated (step 0), whose table is at most a
    quarter of the block.  Half of
    the design steps make the block shift ``M = h s_a / s_b`` a whole number
    of at most n / 8 columns, so several blocks share a strip; the others
    are drawn freely, and ``M`` is then mostly no whole number."""
    n = draw(st.sampled_from([1, 8, 40, 100, 256, 512]))
    h = row_block(n)
    m = _query_count(draw, h)
    s_a = draw(st.integers(0, 3)) * draw(st.sampled_from([1, -1]))
    whole = [M for M in range(1, n // 8 + 1) if h * abs(s_a) % M == 0]
    if s_a and whole and draw(st.booleans(), label="whole shift"):
        s_b = h * abs(s_a) // draw(st.sampled_from(whole))
    else:
        s_b = draw(st.integers(0, 64))
    s_b *= draw(st.sampled_from([1, -1]))
    ia = draw(st.integers(-64, 64)) + s_a * np.arange(m)
    ib = draw(st.integers(-64, 64)) + s_b * np.arange(n)
    ints = np.concatenate([ia, ib])
    assume(4 * (int(ints.max() - ints.min()) + 1) <= m * n)
    return ia, ib, draw(st.sampled_from([1, 3, 20]))


class TestStrips:
    """Grid predictions read G consecutive blocks as column slices of one strip
    window of the lattice table, bitwise the per-block windows and the
    direct path, with the strip at most 9/8 of a block."""

    @STRIP_ORDERS
    @settings(max_examples=25, deadline=None)
    @given(case=strip_cases(), p=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
    # one query point against a repeated design point, and repeated queries
    # against one design point: a single point takes a table only against
    # repeats of one point
    @example(case=(np.array([3]), np.full(40, 5), 3), p=2, seed=0)
    @example(case=(np.full(40, 3), np.array([5]), 20), p=0, seed=1)
    def test_strip_means_are_bitwise_the_block_windows_and_the_direct_path(
            self, nu, case, p, seed):
        from unittest import mock

        from gprates import fitting

        ia, ib, r = case
        Q, X = _on_lattice(ia, p), _on_lattice(ib, p)
        spec = _table_spec(nu)
        model = _strip_model(spec, X, r, seed)
        table = lattice_table(spec, Q, X)
        assert table is not None and kernels.blocks_per_strip(table) is not None
        means = posterior_mean(model, Q)
        assert np.array_equal(means, _per_block_means(model, Q, table))
        with mock.patch.object(fitting, "lattice_table", lambda *args: None):
            assert np.array_equal(means, posterior_mean(model, Q))

    @pytest.mark.parametrize("s_a, s_b", [(2, 32), (-2, -32), (2, -32), (-2, 32), (3, 48)],
                             ids=["ascending", "descending", "design_descending",
                                  "queries_descending", "odd_steps"])
    @pytest.mark.parametrize("extra", [0, 1, 77], ids=["whole", "one_mod_8", "ragged"])
    def test_strips_span_several_blocks_in_every_direction(self, s_a, s_b, extra):
        # h = 128 rows against 512 points and M = 128 s_a / s_b = +-8 columns:
        # G = 1 + 512 // 64 = 9 blocks per strip, fewer than the 11 full blocks
        n, h = 512, row_block(512)
        m = 11 * h + extra
        Q, X = _on_lattice(s_a * np.arange(m), 4), _on_lattice(5 + s_b * np.arange(n), 4)
        spec = _table_spec(2.5)
        table = lattice_table(spec, Q, X)
        assert kernels.blocks_per_strip(table) == 9
        direct = matern_of_r(spec, distances(Q, X))
        walked, buffers = [], set()
        # a block is a view of a buffer that the next strip overwrites, so
        # each is checked as it is yielded
        for rows, block in kernels.table_blocks(table):
            walked.append(rows)
            buffers.add((block.base.ctypes.data, block.base.size))
            assert block.strides[1] == 8 and block.strides[0] >= 8 * n
            assert np.array_equal(block, direct[rows])
        assert walked == [slice(i, min(i + h, m)) for i in range(0, m, h)]
        # every block is a view of the one strip buffer, 9/8 of a block wide
        assert [size for _, size in buffers] == [h * (n + n // 8)]
        model = _strip_model(spec, X, 3, m)
        assert np.array_equal(posterior_mean(model, Q), _per_block_means(model, Q, table))

    @pytest.mark.parametrize("s_a, s_b, G", [
        (2, 33, 1),    # M = 256 / 33 is no whole number
        (1, 128, 4),   # M = 1: G = 1 + 512 // 8 = 65, capped at the 4 full blocks
        (0, 7, 1),     # repeated queries: M = 0
        (2, 0, 1),     # repeated design points
    ], ids=["shift_not_whole", "capped_by_full_blocks", "query_step_0", "design_step_0"])
    def test_strip_length(self, s_a, s_b, G):
        n, h = 512, row_block(512)
        ia, ib = s_a * np.arange(4 * h), s_b * np.arange(n)
        table = kernels.LatticeTable(ia - min(ia.min(), ib.min()), ib - min(ia.min(), ib.min()),
                                     np.zeros(1), 0, s_a, s_b)
        assert kernels.blocks_per_strip(table) == G
        assert kernels.blocks_per_strip(table._replace(step_b=None)) is None
