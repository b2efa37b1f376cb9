"""Design generators and the fill/separation/mesh-ratio metrics."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gprates import designs, kernels
from gprates.designs import (
    Domain,
    MeshRatioTracker,
    NewtonBasis,
    PointSet,
    fill_distance,
    gen_grid,
    gen_p_greedy,
    gen_uniform_random,
    lattice_columns,
    quasi_uniformity_trace,
    separation_radius,
)
from gprates.errors import ConfigurationError
from gprates.experiments import _csv
from gprates.fitting import DEFAULT_JITTER_FACTOR, MeanSpec, fit, posterior_mean
from gprates.kernels import KernelSpec, cross_matrix, distances, row_block

UNIT = Domain((0.0,), (1.0,))
SQUARE = Domain((0.0, 0.0), (1.0, 1.0))


def _mesh_ratio(X, probe_resolution=None):
    """Fill distance over separation radius."""
    return fill_distance(X, probe_resolution)[0] / separation_radius(X)


class TestDomain:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Domain((0.0,), (0.0,))
        with pytest.raises(ConfigurationError):
            Domain((0.0, 0.0), (1.0,))

    def test_volume_and_corners(self):
        d = Domain((0.0, 1.0), (2.0, 4.0))
        assert d.volume == 6.0
        assert len(d.corners()) == 4

    def test_points_must_be_strictly_inside(self):
        with pytest.raises(ConfigurationError):
            PointSet(np.array([[0.0]]), UNIT)


class TestGrid:
    def test_one_point(self):
        X = gen_grid(1, UNIT)
        np.testing.assert_allclose(X.points, [[0.5]])

    def test_two_points(self):
        X = gen_grid(2, UNIT)
        np.testing.assert_allclose(X.points, [[0.25], [0.75]])

    def test_square_midpoints(self):
        X = gen_grid(2, SQUARE)
        assert len(X) == 4
        expected = {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
        assert {tuple(p) for p in X.points} == expected


class TestUniformRandom:
    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            gen_uniform_random(0, UNIT, seed=1)

    def test_single_point_inside(self):
        X = gen_uniform_random(1, UNIT, seed=5)
        assert 0.0 < X.points[0, 0] < 1.0

    def test_determinism(self):
        a = gen_uniform_random(50, SQUARE, seed=123)
        b = gen_uniform_random(50, SQUARE, seed=123)
        assert np.array_equal(a.points, b.points)
        c = gen_uniform_random(50, SQUARE, seed=124)
        assert not np.array_equal(a.points, c.points)

    def test_law_of_large_numbers(self):
        X = gen_uniform_random(10_000, UNIT, seed=42)
        assert abs(X.points.mean() - 0.5) < 0.02


class TestFillDistance:
    def test_single_center_point(self):
        X = PointSet(np.array([[0.5]]), UNIT)
        h, bound = fill_distance(X, probe_resolution=2048)
        assert h == pytest.approx(0.5, abs=bound + 1e-12)

    def test_two_points(self):
        X = PointSet(np.array([[0.25], [0.75]]), UNIT)
        h, bound = fill_distance(X, probe_resolution=2048)
        assert h == pytest.approx(0.25, abs=bound + 1e-12)

    def test_midpoint_grid_formula(self):
        # farthest point of a d-dim midpoint grid is a domain corner:
        # h = sqrt(d) / (2 n)
        for d, n in ((1, 8), (2, 5)):
            dom = UNIT if d == 1 else SQUARE
            X = gen_grid(n, dom)
            h, bound = fill_distance(X)
            assert h == pytest.approx(np.sqrt(d) / (2 * n), abs=bound + 1e-12)

    def test_bracket_contains_finer_oracle(self):
        rng = np.random.default_rng(9)
        X = PointSet(rng.uniform(0.05, 0.95, (17, 1)), UNIT)
        h, bound = fill_distance(X, probe_resolution=128)
        oracle, _ = fill_distance(X, probe_resolution=512)
        assert h - bound / 4 - 1e-12 <= oracle <= h + bound

    @pytest.mark.parametrize("dim", [1, 2])
    def test_streamed_blocks_give_the_whole_maximum(self, dim):
        # the probes fill several blocks of one reused buffer and a ragged last one
        domain = Domain((0.0,) * dim, (1.0,) * dim)
        X = PointSet(np.random.default_rng(dim).uniform(0.05, 0.95, (300, dim)), domain)
        res = 512 if dim == 1 else 128
        probes = np.vstack([gen_grid(res, domain).points, domain.corners()])
        assert len(probes) // row_block(300) >= 2 and len(probes) % row_block(300) != 0
        assert fill_distance(X)[0] == float(distances(probes, X.points).min(axis=1).max())


class TestSeparationAndMeshRatio:
    def test_examples(self):
        X = PointSet(np.array([[0.25], [0.75]]), UNIT)
        assert separation_radius(X) == 0.25
        grid = gen_grid(8, UNIT)
        assert separation_radius(grid) == pytest.approx(1.0 / 16)

    def test_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            separation_radius(PointSet(np.array([[0.5]]), UNIT))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_streamed_blocks_give_the_whole_minimum(self, dim):
        # the closest pair lies in the last, ragged row block
        rng = np.random.default_rng(dim)
        pts = rng.uniform(0.1, 0.9, (1000, dim))
        pts[-1] = pts[-2] + 1e-9
        X = PointSet(pts, Domain((0.0,) * dim, (1.0,) * dim))
        d = np.sqrt(((X.points[:, None, :] - X.points[None, :, :]) ** 2).sum(-1))
        d[np.diag_indices(1000)] = np.inf
        assert separation_radius(X) == d.min() / 2.0

    def test_mesh_ratio_grid_is_one(self):
        assert _mesh_ratio(gen_grid(16, UNIT), probe_resolution=4096) == pytest.approx(1.0, abs=0.01)

    def test_mesh_ratio_three_points(self):
        X = PointSet(np.array([[0.25], [0.5], [0.75]]), UNIT)
        assert _mesh_ratio(X, probe_resolution=4096) == pytest.approx(2.0, abs=0.01)

    def test_removing_a_point_grows_rho(self):
        full = gen_grid(16, UNIT)
        holed = PointSet(np.delete(full.points, 7, axis=0), UNIT)
        assert _mesh_ratio(holed) > _mesh_ratio(full)

    def test_rho_at_least_one(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            X = PointSet(rng.uniform(0.02, 0.98, (12, 1)), UNIT)
            assert _mesh_ratio(X) >= 1.0 - 1e-9


    @pytest.mark.parametrize("dim, res, ends", [
        (1, None, False), (1, None, True), (1, 7, True), (2, None, False), (2, 9, False)])
    def test_tracker_is_bitwise_fill_over_separation(self, dim, res, ends):
        rng = np.random.default_rng(40 + dim)
        domain = Domain((0.0,) * dim, (1.0,) * dim)
        pts = rng.uniform(0.01, 0.99, (30, dim))
        if ends:
            # the points nearest both domain ends (a point set lies strictly
            # inside), and a point between two close neighbours, added in
            # random order
            a = pts[3, 0]
            close = [[5e-324], [np.nextafter(1.0, 0.0)], [a + 2e-9], [a + 1e-9],
                     [np.nextafter(a, 1.0)]]
            pts = rng.permutation(np.vstack([pts, close]))
        tracker = MeshRatioTracker(domain, res)
        for k, x in enumerate(pts, start=1):
            tracker.add(x)
            if k >= 2:
                X = PointSet(pts[:k], domain)
                assert tracker.ratio() == fill_distance(X, res)[0] / separation_radius(X)

    def test_tracker_needs_two_distinct_points(self):
        tracker = MeshRatioTracker(UNIT)
        tracker.add([0.5])
        with pytest.raises(ConfigurationError):
            tracker.ratio()
        tracker.add([0.5])
        with pytest.raises(ZeroDivisionError):
            tracker.ratio()

@st.composite
def _one_d_sets(draw):
    """A 1-d point set that is strictly ascending, unsorted, holds duplicates
    (sorted, so it ascends but not strictly) or holds two points, with a
    probe resolution."""
    shape = draw(st.sampled_from(["ascending", "unsorted", "duplicates", "two_points"]))
    domain = draw(st.sampled_from([UNIT, Domain((-1.0,), (3.0,))]))
    coord = st.floats(domain.lower[0], domain.upper[0], exclude_min=True, exclude_max=True)
    x = draw(st.lists(coord, min_size=2, max_size=2 if shape == "two_points" else 60))
    if shape == "ascending":
        x = sorted(set(x))
    elif shape == "duplicates":
        x = sorted(x + draw(st.lists(st.sampled_from(x), min_size=1, max_size=3)))
    return shape, PointSet(np.array(x), domain), draw(st.integers(1, 600))


def _bits(value):
    return np.float64(value).tobytes()


class TestNeighbourGeometry:
    """A strictly ascending 1-d set's fill distance and separation radius come
    from neighbours, bitwise the streamed distances."""

    @settings(max_examples=200, deadline=None)
    @given(case=_one_d_sets())
    def test_bitwise_the_streaming_oracle(self, case):
        shape, X, res = case
        x = X.points[:, 0]
        assert (designs._ascending(X) is not None) == bool(np.all(np.diff(x) > 0))
        if shape == "ascending":
            assert designs._ascending(X) is not None
        probes = designs._probe_points(X.domain, res)
        oracle = distances(probes, X.points).min(axis=1).max()
        assert _bits(fill_distance(X, res)[0]) == _bits(oracle)
        if len(X) >= 2:
            d = distances(X.points, X.points)
            d[np.diag_indices(len(X))] = np.inf
            assert _bits(separation_radius(X)) == _bits(d.min() / 2.0)

    def test_other_sets_stream(self):
        # an unsorted set and a 2-d grid never take the neighbour path
        unsorted = PointSet(np.array([0.5, 0.25, 0.75]), UNIT)
        assert designs._ascending(unsorted) is None
        assert designs._ascending(gen_grid(4, SQUARE)) is None


class TestQuasiUniformityTrace:
    def test_grid_slope_1d(self):
        rows, slope = quasi_uniformity_trace([gen_grid(n, UNIT) for n in (4, 8, 16, 32)])
        assert slope == pytest.approx(-1.0, abs=0.01)
        assert all(r[3] <= 1.1 for r in rows)

    def test_grid_slope_2d(self):
        rows, slope = quasi_uniformity_trace([gen_grid(n, SQUARE) for n in (2, 4, 8)])
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_random_trace_is_reported_only(self):
        sets = [gen_uniform_random(n, UNIT, seed=n) for n in (16, 32, 64)]
        rows, slope = quasi_uniformity_trace(sets)
        assert len(rows) == 3 and np.isfinite(slope)


# candidate indices chosen by gen_p_greedy, recorded with the code before the
# Newton basis was shared with the BO loop: tau 2, lengthscale 0.25, 2048
# candidates, n 512 (the benchmark's P-greedy ladder) ...
P_GREEDY_1D = [
    0, 2047, 1023, 1535, 507, 1794, 765, 245, 1279, 1924, 376, 894, 1407, 116, 1665,
    636, 1151, 1988, 441, 1600, 830, 180, 1215, 1857, 573, 960, 1469, 310, 1729,
    701, 54, 1087, 1343, 1891, 474, 927, 1502, 343, 669, 1633, 212, 798, 1761, 2019,
    1183, 1311, 1055, 541, 85, 1376, 278, 1567, 409, 862, 733, 1697, 1119, 1956,
    1247, 148, 1826, 605, 991, 1438, 25, 524, 1874, 359, 1584, 229, 911, 781, 1486,
    1777, 457, 653, 1359, 1135, 1263, 1681, 1039, 1940, 132, 294, 846, 717, 1199,
    589, 393, 944, 1519, 1617, 2004, 1422, 196, 70, 1810, 1327, 1745, 1071, 491,
    1007, 1907, 327, 261, 557, 814, 1551, 878, 685, 425, 1649, 1231, 749, 164, 1167,
    1295, 1713, 1103, 1972, 2034, 1842, 621, 1454, 975, 1391, 101, 39, 11, 482, 368,
    1882, 532, 1576, 903, 1510, 269, 789, 1785, 220, 319, 1916, 1609, 936, 645,
    1367, 1478, 465, 385, 515, 1865, 1207, 1079, 1705, 1287, 725, 1143, 156, 1015,
    838, 581, 1964, 1657, 1818, 1753, 677, 1335, 417, 1239, 1430, 1543, 870, 188,
    757, 1111, 1047, 1175, 124, 983, 1996, 62, 613, 1399, 93, 286, 237, 806, 351,
    549, 1932, 1625, 449, 1721, 1303, 693, 1255, 1673, 952, 1446, 1834, 1899, 1592,
    919, 499, 1527, 302, 1802, 886, 1559, 2027, 1494, 1351, 401, 204, 773, 1769,
    661, 335, 253, 1095, 1191, 1031, 597, 140, 1980, 822, 741, 1127, 999, 565, 1641,
    433, 1948, 1271, 1737, 854, 1319, 172, 1223, 709, 1159, 1689, 1063, 46, 1383,
    1462, 629, 1850, 108, 967, 1415, 77, 2011, 18, 2041, 32, 5, 1886, 520, 364, 470,
    1572, 899, 274, 1514, 793, 1789, 224, 315, 1605, 932, 1912, 537, 381, 487, 1869,
    641, 1371, 1474, 1083, 713, 1685, 1267, 1187, 160, 1019, 842, 1741, 1323, 1139,
    1960, 585, 429, 753, 1645, 1227, 1822, 673, 192, 1051, 128, 987, 1442, 1539,
    874, 1717, 1291, 1115, 1984, 609, 249, 339, 818, 1765, 1936, 405, 561, 1347,
    1163, 1403, 89, 58, 298, 453, 1498, 1621, 777, 697, 1243, 1669, 1203, 737, 948,
    1838, 1588, 915, 503, 1806, 1555, 208, 657, 1067, 144, 1003, 858, 1307, 1701,
    1099, 1035, 176, 2015, 1426, 112, 971, 1387, 1458, 625, 2000, 1903, 265, 355,
    802, 1523, 890, 233, 545, 389, 1781, 323, 1363, 1482, 1920, 282, 1147, 437,
    1637, 1733, 1259, 593, 1968, 769, 689, 1211, 834, 1331, 729, 1179, 1661, 1123,
    1283, 413, 569, 1757, 1944, 1861, 66, 2023, 50, 97, 956, 1411, 1846, 81, 478,
    528, 1878, 372, 1596, 923, 1563, 1798, 306, 511, 461, 1895, 649, 216, 1506,
    1613, 785, 907, 940, 495, 1580, 1075, 1011, 168, 1709, 136, 866, 1235, 1043,
    1450, 617, 1992, 979, 257, 347, 810, 1531, 1355, 1299, 721, 1155, 1677, 1107,
    681, 1830, 200, 761, 1395, 120, 1434, 882, 241, 1773, 397, 553, 1928, 1490, 290,
    331, 1195, 445, 1629, 1725, 1251, 1976, 601, 826, 1339, 1547, 1814, 665, 1059,
    995, 184, 1749, 1219, 577, 1315, 1091, 1653, 1952, 1275, 421, 1027, 1693, 152,
    850, 1131, 745, 1171, 705, 28, 2038, 15, 42, 1466, 1379, 633, 1854, 2008, 104,
    1418, 963, 73, 2030, 35, 21, 2044, 8,
]
# ... and tau 2.5, lengthscale 0.3, a 32 x 32 grid in the unit square, n 64
P_GREEDY_2D = [
    0, 1023, 31, 992, 495, 543, 1008, 16, 512, 280, 759, 776, 231, 256, 287, 1000,
    8, 1016, 799, 768, 24, 239, 487, 503, 751, 644, 148, 371, 883, 627, 619, 635,
    363, 900, 156, 891, 99, 412, 908, 387, 108, 671, 1012, 20, 640, 4, 996, 159,
    128, 384, 12, 1004, 415, 763, 887, 359, 1020, 235, 152, 772, 499, 927, 623, 896,
]


class TestNewtonBasis:
    def _basis_and_fit(self):
        spec = KernelSpec(tau=2.5, lengthscale=0.2, amplitude=2.0)
        cand = gen_grid(64, UNIT)
        chosen = [5, 40, 20, 63, 0, 31, 12]
        y = np.sin(6.0 * cand.points[chosen, 0])
        eps = DEFAULT_JITTER_FACTOR * spec.amplitude
        newton = NewtonBasis(spec.amplitude, len(cand), len(chosen), eps)
        for j, value in zip(chosen, y):
            newton.add(j, cross_matrix(spec, cand, cand.points[j])[:, 0], value)
        model = fit(spec, MeanSpec("constant", 0.0), PointSet(cand.points[chosen], UNIT), y, 0.0)
        assert model.jitter == eps
        return cand, chosen, newton, model

    def test_matches_fit_with_its_jitter(self, posterior_var):
        cand, _, newton, model = self._basis_and_fit()
        np.testing.assert_allclose(newton.power, posterior_var(model, cand), rtol=0, atol=1e-14)
        mean = newton.mean(np.arange(len(cand)), np.empty(len(cand)))
        np.testing.assert_allclose(mean, posterior_mean(model, cand), rtol=0, atol=1e-14)

    def test_rows_at_chosen_points_extend_the_cholesky_factor(self, oracle_factor):
        _, chosen, newton, model = self._basis_and_fit()
        L = oracle_factor(model)
        for i, j in enumerate(chosen):
            np.testing.assert_allclose(newton.basis[j, :i], L[i, :i], rtol=0, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mean_on_rows_is_bitwise_the_whole_product(self, data):
        # any number of candidates (a multiple of 8 or not; m = 8 g + 1, whose
        # last group holds one row, is drawn on its own), any fill of the
        # basis, and rows that are a random mask, one row, the last row, the
        # two end rows or one contiguous run
        m = data.draw(st.one_of(st.integers(1, 64), st.integers(65, 4500),
                                st.integers(1, 560).map(lambda g: 8 * g + 1)), label="m")
        capacity = data.draw(st.integers(1, min(m, 200)), label="capacity")
        k = data.draw(st.integers(1, capacity), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        spec = KernelSpec(tau=2.5, lengthscale=0.15, amplitude=1.3)
        cand = gen_grid(m, UNIT)
        newton = NewtonBasis(spec.amplitude, m, capacity, DEFAULT_JITTER_FACTOR * spec.amplitude)
        for j in rng.choice(m, k, replace=False):
            newton.add(j, cross_matrix(spec, cand, cand.points[j])[:, 0], rng.standard_normal())
        kind = data.draw(st.sampled_from(["mask", "one", "last", "ends", "run"]), label="rows")
        if kind == "mask":
            rows = np.flatnonzero(rng.random(m) < data.draw(st.floats(0.01, 1.0)))
        elif kind == "one":
            rows = np.array([data.draw(st.integers(0, m - 1))])
        elif kind == "last":
            rows = np.array([m - 1])
        elif kind == "ends":
            rows = np.unique([0, m - 1])
        else:
            start = data.draw(st.integers(0, m - 1))
            rows = np.arange(start, data.draw(st.integers(start + 1, m)))
        whole = newton.basis[:, :k] @ newton.z[:k]
        out = np.full(m, np.nan)
        assert newton.mean(rows, out) is out
        assert np.array_equal(out[rows], whole[rows])
        # the rows formed beside them, in the same 8-row groups, are exact too
        formed = ~np.isnan(out)
        assert np.array_equal(out[formed], whole[formed])
        assert np.array_equal(newton.mean(np.arange(m), out), whole)


class TestPGreedy:
    def test_first_point_is_lowest_index(self):
        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        cand = gen_grid(32, UNIT)
        X = gen_p_greedy(1, spec, cand)
        np.testing.assert_allclose(X.points, cand.points[:1])

    def test_second_point_maximizes_posterior_sd(self, posterior_var):
        # brute force over the candidate set
        spec = KernelSpec(tau=1.0, lengthscale=1.0)
        cand = PointSet(np.array([[0.1], [0.5], [0.9]]), UNIT)
        X = gen_p_greedy(2, spec, cand)
        first = PointSet(X.points[:1], UNIT)
        model = fit(spec, MeanSpec("constant", 0.0), first, [0.0], 0.0)
        best = cand.points[int(np.argmax(posterior_var(model, cand)))]
        np.testing.assert_allclose(X.points[1], best)
        np.testing.assert_allclose(X.points[1], [0.9])  # farthest from 0.1

    def test_selected_points_have_zero_variance(self, posterior_var):
        spec = KernelSpec(tau=2.0, lengthscale=0.3)
        X = gen_p_greedy(9, spec, gen_grid(64, UNIT))
        model = fit(spec, MeanSpec("constant", 0.0), X, np.zeros(9), 0.0)
        assert posterior_var(model, X).max() <= 1e-8

    def test_needs_enough_candidates(self):
        spec = KernelSpec(tau=2.0)
        with pytest.raises(ConfigurationError):
            gen_p_greedy(5, spec, gen_grid(2, UNIT))

    def test_mesh_ratio_stays_bounded(self):
        # smooth kernel (tau > d/2 + 1): rho trend over doublings within 20%
        spec = KernelSpec(tau=2.0, lengthscale=0.25)
        cand = gen_grid(1024, UNIT)
        rhos = []
        for n in (16, 32, 64, 128):
            X = gen_p_greedy(n, spec, cand)
            rhos.append(_mesh_ratio(X))
        cap = max(rhos)
        assert cap < 4.0
        for a, b in zip(rhos, rhos[1:]):
            assert b <= 1.2 * a

    def test_selection_frozen_1d(self):
        cand = gen_grid(2048, UNIT)
        X = gen_p_greedy(512, KernelSpec(tau=2.0, lengthscale=0.25), cand)
        assert np.array_equal(X.points, cand.points[P_GREEDY_1D])

    def test_selection_frozen_2d(self):
        cand = gen_grid(32, SQUARE)
        X = gen_p_greedy(64, KernelSpec(tau=2.5, lengthscale=0.3, dim=2), cand)
        assert np.array_equal(X.points, cand.points[P_GREEDY_2D])

    @pytest.mark.parametrize("dim, resolution, sizes", [(1, 2048, (16, 128, 512)),
                                                        (2, 32, (8, 16, 32, 64))])
    def test_first_picks_do_not_depend_on_the_size_asked_for(self, dim, resolution, sizes):
        # a ladder grows one design to its largest rung and gives each rung a prefix
        spec = KernelSpec(tau=2.0 + dim / 2, lengthscale=0.25, dim=dim)
        cand = gen_grid(resolution, Domain((0.0,) * dim, (1.0,) * dim))
        longest = gen_p_greedy(sizes[-1], spec, cand).points
        for n in sizes[:-1]:
            assert np.array_equal(gen_p_greedy(n, spec, cand).points, longest[:n])

    def test_low_smoothness_trace_is_diagnostic_only(self):
        # d/2 < tau <= d/2 + 1 carries no quasi-uniformity claim; just run it
        spec = KernelSpec(tau=1.25, lengthscale=0.25)
        X = gen_p_greedy(12, spec, gen_grid(256, UNIT))
        assert np.isfinite(_mesh_ratio(X))


class TestLatticeColumns:
    """A progression with a lattice table reads its kernel columns as views of the table."""

    @pytest.mark.parametrize("nu", [1.5, 2.0], ids=["nu3/2", "bessel"])
    @pytest.mark.parametrize("n, domain", [
        (1, UNIT), (4, UNIT), (512, UNIT), (4096, UNIT), (256, Domain((-1.0,), (1.0,))),
    ], ids=["grid1", "grid4", "grid512", "grid4096", "symmetric_grid256"])
    def test_column_is_a_read_only_view_of_the_table(self, monkeypatch, nu, n, domain):
        spec = KernelSpec(tau=nu + 0.5, lengthscale=0.15, amplitude=1.3)
        pts = gen_grid(n, domain).points
        tables = []
        monkeypatch.setattr(designs, "lattice_table",
                            lambda *args: tables.append(kernels.lattice_table(*args)) or tables[-1])
        column_of = lattice_columns(spec, pts)
        # a midpoint grid takes a table from 4 points on (see test_kernels)
        assert (column_of is None) == (tables[0] is None) == (n < 4)
        if column_of is None:
            return
        picks = sorted({0, n // 2, n - 1})
        # every view stays valid while later columns are read
        columns = [column_of(j) for j in picks]
        for j, column in zip(picks, columns):
            assert not column.flags.writeable
            assert np.shares_memory(column, tables[0].H)
            assert np.array_equal(column, cross_matrix(spec, pts, pts[j : j + 1])[:, 0])

    @pytest.mark.parametrize("pts, has_table", [
        (gen_grid(32, SQUARE).points, False),
        (gen_grid(100, UNIT).points, False),  # midpoints (j + 1/2) / 100 are not dyadic
        # P-greedy-like picks of a dyadic grid: a table, but no progression
        (gen_grid(512, UNIT).points[np.sort(np.random.default_rng(3).choice(512, 300, False))],
         True),
    ], ids=["grid2d", "non_dyadic", "no_progression"])
    def test_other_sets_have_no_lattice_columns(self, pts, has_table):
        spec = KernelSpec(tau=2.0 + pts.shape[1] / 2, dim=pts.shape[1])
        assert (kernels.lattice_table(spec, pts, pts) is not None) == has_table
        assert lattice_columns(spec, pts) is None


class TestCsv:
    def test_round_trip_and_header(self):
        # the one CSV writer: 17 significant digits round-trip every float
        X = gen_uniform_random(7, SQUARE, seed=3)
        text = _csv(["i", "x1", "x2"], ((i, *x) for i, x in enumerate(X.points)))
        lines = text.split("\n")
        assert lines[0] == "i,x1,x2" and lines[-1] == "" and len(lines) == 9
        assert [line.split(",")[0] for line in lines[1:-1]] == [str(i) for i in range(7)]
        back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 1:], X.points)
