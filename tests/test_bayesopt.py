"""The stabilized BO harness: budgets nested in one trajectory, frozen selections."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gprates import bayesopt, designs, kernels
from gprates.acceptance import acceptance_configs
from conftest import masked_expected_improvement
from gprates.bayesopt import BOConfig, expected_improvement, run_gamma_F_n
from gprates.designs import (
    Domain, NewtonBasis, PointSet, fill_distance, gen_grid, separation_radius,
)
from gprates.errors import ConfigurationError, SingularDesignError
from gprates.experiments import config_from_dict, run_bo_experiment
from gprates.fitting import DEFAULT_JITTER_FACTOR, MeanSpec, fit
from gprates.kernels import KernelSpec, cross_matrix
from gprates.targets import eval_target, random_expansion_target

# a7's kernel, target and strategy on 512 candidates; from step 51 on,
# expected improvement is exactly 0 on every stabilized candidate, so
# budget 64 also checks that ties break to the first maximizer
SMALL_BO = {
    "kind": "bo", "name": "small_bo", "seed": 1,
    "kernel": {"tau": 2.5, "lengthscale": 0.15, "amplitude": 1.0, "dim": 1},
    "target": {"name": "peaks3"},
    "design": {"kind": "grid", "candidate_resolution": 512},
    "bo": {"gamma": 0.3, "budgets": [8, 16, 32, 64]},
}

# recorded with the code that refitted at every step and ran each budget on
# its own: the 62 trace points of budget 64 (each budget's trace is a prefix)
TRACE_X = [
    0.6025390625, 0.7314453125, 0.4892578125, 0.9990234375, 0.2119140625,
    0.2841796875, 0.1435546875, 0.6376953125, 0.8857421875, 0.3603515625,
    0.2451171875, 0.5712890625, 0.8349609375, 0.9287109375, 0.0751953125,
    0.1845703125, 0.4208984375, 0.6748046875, 0.3134765625, 0.5361328125,
    0.1123046875, 0.7802734375, 0.0361328125, 0.1650390625, 0.8681640625,
    0.9677734375, 0.2607421875, 0.6201171875, 0.4541015625, 0.2275390625,
    0.8564453125, 0.3896484375, 0.5888671875, 0.3349609375, 0.7021484375,
    0.6533203125, 0.8056640625, 0.2001953125, 0.5146484375, 0.2978515625,
    0.7548828125, 0.2724609375, 0.5556640625, 0.0947265625, 0.9482421875,
    0.0166015625, 0.9052734375, 0.1298828125, 0.0556640625, 0.0244140625,
    0.0458984375, 0.0830078125, 0.1513671875, 0.3212890625, 0.3408203125,
    0.3662109375, 0.3740234375, 0.3955078125, 0.1748046875, 0.4033203125,
    0.4267578125, 0.4345703125,
]
# (n, x_final, regret, sup_error, rho_selected, certificate_ok)
RUNS = [
    (8, 0.2177734375, 0.13288831328174722, 1.139079562112927, 3.675675675675676, True),
    (16, 0.2294921875, 0.12245395596801723, 0.46007364027575637, 4.5, True),
    (32, 0.8662109375, 0.0607559694270946, 0.32668054604600494, 3.75, True),
    (64, 0.8701171875, 0.0029632925815058497, 0.02382094870014942, 6.0, True),
]


def test_budgets_frozen():
    result = run_bo_experiment(config_from_dict(SMALL_BO))
    assert len(result["runs"]) == len(RUNS)
    for run, (n, x_final, regret, sup_error, rho, cert) in zip(result["runs"], RUNS):
        assert run["n"] == n
        assert [row["x"] for row in run["trace"]] == [[x] for x in TRACE_X[: n - 2]]
        assert run["x_final"] == [x_final]
        assert run["regret"] == regret
        assert run["sup_error"] == sup_error
        assert run["rho_selected"] == rho
        assert run["certificate_ok"] is cert


def _trajectory(n):
    cfg = config_from_dict(SMALL_BO)
    bo = BOConfig(gamma=0.3, n=n, kernel=cfg.kernel_for(0),
                  candidates=gen_grid(512, cfg.domain))
    return run_gamma_F_n(cfg.target, bo)


def test_budget_result_is_the_trajectory_prefix():
    trajectory = _trajectory(12)
    assert len(trajectory.trace) == 10
    res = trajectory.result(7)
    assert res["n"] == 7
    assert res["trace"] == trajectory.trace[:5]
    assert res["rho_selected"] == trajectory.trace[4]["rho_so_far"]
    # the first candidate, then the point of each trace row
    cand = trajectory.config.candidates.points
    selected = cand[trajectory.chosen[1:6], 0]
    np.testing.assert_array_equal(selected, [r["x"][0] for r in res["trace"]])


def test_candidate_regret_is_never_negative_on_an_expansion_target():
    # every target value comes from the one batch evaluation on the
    # candidates, so the final point can never beat the candidates' maximum
    cfg = dict(SMALL_BO, target={"expansion": {"tau": 3.0, "seed": 10}})
    runs = run_bo_experiment(config_from_dict(cfg))["runs"]
    assert [run["n"] for run in runs] == [8, 16, 32, 64]
    for run in runs:
        assert run["regret_candidates"] >= 0.0


@pytest.mark.parametrize("n", [1, 13])
def test_budget_outside_the_trajectory_is_rejected(n):
    with pytest.raises(ConfigurationError):
        _trajectory(12).result(n)


@pytest.mark.parametrize("power, error, message", [
    (0.0, SingularDesignError, r"^step 2 would score candidate 5 \("),
    (np.nan, ConfigurationError, r"^largest posterior sd nan after 1 points: kernel\.amplitude"),
], ids=["zero", "nan"])
def test_a_zero_or_nan_sd_stops_the_loop(monkeypatch, power, error, message):
    # gamma 5e-324 times a largest sd below 1/2 rounds the threshold to 0, so
    # every candidate is stabilized; with every sd positive the run goes on.
    # A basis that sets candidate 5's power to 0 stops it at the first step,
    # as a singular design; a NaN power, a variance past the float range, is
    # a configuration error
    cfg = config_from_dict(SMALL_BO)
    spec = KernelSpec(tau=2.5, lengthscale=0.15, amplitude=0.1)
    config = BOConfig(gamma=5e-324, n=8, kernel=spec, candidates=gen_grid(512, cfg.domain))
    assert [row["threshold"] for row in run_gamma_F_n(cfg.target, config).trace] == [0.0] * 6

    class SpoiledPower(NewtonBasis):
        def add(self, *args):
            super().add(*args)
            self.power[5] = power

    monkeypatch.setattr(bayesopt, "NewtonBasis", SpoiledPower)
    with pytest.raises(error, match=message):
        run_gamma_F_n(cfg.target, config)


def test_rho_so_far_is_the_prefix_mesh_ratio():
    trajectory = _trajectory(40)
    cand = trajectory.config.candidates
    for k, row in enumerate(trajectory.trace, start=2):
        prefix = PointSet(cand.points[trajectory.chosen[:k]], cand.domain)
        assert row["rho_so_far"] == fill_distance(prefix)[0] / separation_radius(prefix)


def test_trajectory_evaluates_each_candidate_distance_once(counted):
    # 512 grid candidates have 512 distinct pairwise distances: the whole
    # loop may evaluate the kernel on at most that many, and computes no
    # cross matrix, fill distance or separation radius
    counts = {name: counted(owner, name) for owner, name in [
        (kernels, "matern_of_r"), (kernels, "cross_matrix"),
        (designs, "fill_distance"), (designs, "separation_radius")]}
    trajectory = _trajectory(40)
    assert len(trajectory.trace) == 38
    assert 0 < counts["matern_of_r"]["entries"] <= 512
    assert counts["cross_matrix"]["calls"] == 0
    assert counts["fill_distance"]["calls"] == 0
    assert counts["separation_radius"]["calls"] == 0


def test_expected_improvement_is_bitwise_the_scipy_stats_formula():
    from scipy.stats import norm  # the oracle; gprates itself never imports scipy.stats

    rng = np.random.default_rng(9)
    mean = np.concatenate([rng.standard_normal(20000) * 3.0, [0.0, -0.0, 1e-300, -1e-300,
                                                               50.0, -50.0, 0.7]])
    sd = np.concatenate([rng.random(20000) * 2.0, [1.0, 1.0, 1e-3, 1e-3, 1.0, 1.0, 1e-320]])
    assert sd.min() > 0
    best = 0.2
    gap = mean - best
    with np.errstate(over="ignore"):  # gap / 1e-320
        z = gap / sd
        oracle = gap * norm.cdf(z) + sd * norm.pdf(z)
        assert np.array_equal(expected_improvement(mean, sd, best), oracle)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 2000), ties=st.floats(0.0, 1.0))
def test_one_pass_expected_improvement_is_bitwise_the_masked_formula(seed, size, ties):
    # positive sd, gaps of both signs, and means that tie the incumbent
    rng = np.random.default_rng(seed)
    best = float(rng.standard_normal())
    mean = rng.standard_normal(size) * 3.0
    mean[rng.random(size) < ties] = best
    sd = 2.0 - rng.random(size) * 2.0  # in (0, 2]
    ei, oracle = expected_improvement(mean, sd, best), masked_expected_improvement(mean, sd, best)
    assert np.array_equal(ei, oracle)
    assert np.array_equal(np.signbit(ei), np.signbit(oracle))


def test_expected_improvement_holds_three_arrays_at_its_peak():
    # gap, z (which becomes Phi(z) and the result) and the pdf term; the
    # masked formula kept both branches and six arrays
    m = 100_000
    rng = np.random.default_rng(11)
    mean, sd = rng.standard_normal(m), rng.random(m)
    assert sd.min() > 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        expected_improvement(mean, sd, 0.1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * m


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 300), best=st.floats(-3.0, 3.0))
def test_expected_improvement_on_a_subset_is_bitwise_the_full_call(seed, size, best):
    # the BO loop scores only its stabilized set; any subset, of any length
    # and offset, gets bitwise the entries of the call on every candidate
    rng = np.random.default_rng(seed)
    mean = np.concatenate([rng.standard_normal(4000) * 3.0, [0.0, 1e-300, 50.0, -50.0]])
    sd = np.concatenate([2.0 - rng.random(4000) * 2.0, [1.0, 1e-320, 1e-3, 1.0]])
    rows = np.sort(rng.choice(len(mean), size, replace=False))
    with np.errstate(over="ignore"):  # gap / 1e-320
        full = expected_improvement(mean, sd, best)
        assert np.array_equal(expected_improvement(mean[rows], sd[rows], best), full[rows])


def _plain_bo_loop(target, config, whole_product=False):
    """The strategy as a plain loop that scores every candidate: the mean is
    the Newton form's sum ``z_1 v_1 + ... + z_k v_k`` over the basis columns
    in pick order (the whole product ``basis @ z`` with ``whole_product``),
    expected improvement the masked formula, the pick the first maximizer
    with sd at least the threshold, and each mesh ratio
    ``fill_distance / separation_radius`` of the selected prefix.  With
    ``whole_product`` it also returns, per step, ``NewtonBasis.mean``'s
    distance from that product and the float64 bound
    ``2 k eps sum_l |z_l| |basis[:, l]|`` on the distance of two k-term sums."""
    cand, spec = config.candidates, config.kernel
    pts, m = cand.points, len(cand)
    f = eval_target(target, pts)
    newton = NewtonBasis(spec.amplitude, m, config.n - 1, DEFAULT_JITTER_FACTOR * spec.amplitude)
    chosen, slacks, trace, errors = [], [], [], []

    def choose(j):
        chosen.append(j)
        newton.add(j, cross_matrix(spec, pts, pts[j : j + 1])[:, 0], f[j])

    choose(0)
    best = f[0]
    for step in range(2, config.n):
        k = newton.size
        basis, z = newton.basis[:, :k], newton.z[:k]
        sd = np.sqrt(newton.power)
        threshold = config.gamma * sd.max()
        if whole_product:
            mean = basis @ z
            bound = 2 * k * np.finfo(float).eps * (np.abs(basis) @ np.abs(z))
            errors.append((np.abs(newton.mean - mean), bound))
        else:
            mean = np.zeros(m)
            for l in range(k):
                mean += z[l] * basis[:, l]
        acq = masked_expected_improvement(mean, sd, best)
        j = int(np.argmax(np.where(sd >= threshold, acq, -np.inf)))
        slacks.append(threshold - sd[j])
        choose(j)
        best = max(best, f[j])
        X = PointSet(pts[chosen], cand.domain)
        trace.append({"step": step, "x": [float(v) for v in pts[j]], "f": float(f[j]),
                      "threshold": float(threshold), "sd": float(sd[j]),
                      "acquisition": float(acq[j]),
                      "rho_so_far": fill_distance(X)[0] / separation_radius(X)})
    return chosen, slacks, trace, errors


def _a7_config():
    cfg = config_from_dict(acceptance_configs()["a7"])
    return cfg.target, BOConfig(gamma=cfg.bo_gamma, n=max(cfg.bo_budgets),
                                kernel=cfg.kernel_for(0),
                                candidates=gen_grid(cfg.candidate_resolution, cfg.domain))


def _grid_config(resolution, domain, n):
    dim = domain.dim
    spec = KernelSpec(tau=2.5 if dim == 1 else 3.0, lengthscale=0.15, dim=dim)
    target = (config_from_dict(SMALL_BO).target if resolution == 512
              else random_expansion_target(tau_f=3.0, domain=domain, seed=10))
    return target, BOConfig(gamma=0.3, n=n, kernel=spec, candidates=gen_grid(resolution, domain))


# a lattice table, cross_matrix columns, and a 2-d grid; the dyadic run
# reaches steps where expected improvement ties at 0 on every stabilized
# candidate
GRIDS = {
    "dyadic_512": (512, Domain((0.0,), (1.0,)), 64),
    "offset_777": (777, Domain((0.1,), (3.1,)), 48),
    "25x25": (25, Domain((0.0, 0.0), (1.0, 1.0)), 40),
}


@pytest.mark.parametrize("grid", GRIDS)
def test_loop_is_bitwise_a_plain_loop_over_every_candidate(grid):
    target, config = _grid_config(*GRIDS[grid])
    run = run_gamma_F_n(target, config)
    chosen, slacks, trace, _ = _plain_bo_loop(target, config)
    assert run.chosen == chosen
    assert np.array(run.slacks).tobytes() == np.array(slacks).tobytes()
    # json spells out every float, sign of zero included
    assert json.dumps(run.trace) == json.dumps(trace)


@pytest.mark.parametrize("case", [*GRIDS, "a7_200"])
def test_loop_picks_what_the_whole_product_picks(case):
    # the mean summed in pick order and the whole product, whose gemv sums
    # in blocks, round differently; every pick, slack, threshold and sd must
    # still be bitwise the whole-product loop's, and at every step the
    # basis's mean must lie within float64's bound of the product
    target, config = _a7_config() if case == "a7_200" else _grid_config(*GRIDS[case])
    run = run_gamma_F_n(target, config)
    chosen, slacks, trace, errors = _plain_bo_loop(target, config, whole_product=True)
    assert run.chosen == chosen
    assert np.array(run.slacks).tobytes() == np.array(slacks).tobytes()
    for key in ("threshold", "sd"):
        assert [row[key] for row in run.trace] == [row[key] for row in trace], key
    assert len(errors) == config.n - 2
    assert all(np.all(error <= bound) for error, bound in errors)


def test_a7_reads_every_column_from_the_lattice_table(counted):
    # a7's 4096 midpoint candidates have a table of 4096 offsets against
    # themselves: the whole loop evaluates the kernel once, on that table
    target, config = _a7_config()
    columns = counted(kernels, "cross_matrix")
    evaluated = counted(kernels, "matern_of_r")
    trajectory = run_gamma_F_n(target, config)
    assert len(trajectory.chosen) == 199
    assert columns["calls"] == 0
    assert evaluated == {"calls": 1, "entries": 4096}


@pytest.mark.parametrize("resolution, domain", [
    (32, Domain((0.0, 0.0), (1.0, 1.0))),
    (1000, Domain((0.1,), (3.1,))),
], ids=["32x32", "offset_1000"])
def test_other_candidates_take_cross_matrix_columns(monkeypatch, resolution, domain):
    # one column per selected point but the last, which the Newton basis
    # never reads
    dim = domain.dim
    spec = KernelSpec(tau=2.0 + dim / 2, lengthscale=0.3, dim=dim)
    cand = gen_grid(resolution, domain)
    assert kernels.lattice_table(spec, cand.points, cand.points) is None
    target = random_expansion_target(tau_f=3.0, domain=domain, seed=10)
    columns = []
    monkeypatch.setattr(kernels, "cross_matrix",
                        lambda *args: columns.append(args[2]) or cross_matrix(*args))
    trajectory = run_gamma_F_n(target, BOConfig(gamma=0.3, n=24, kernel=spec, candidates=cand))
    assert len(trajectory.chosen) == 23
    assert np.array_equal(np.vstack(columns), cand.points[trajectory.chosen[:-1]])


def test_run_on_a_dyadic_grid_evaluates_the_kernel_once(counted):
    # 512 midpoint candidates take one table of 512 offsets; the loop reads
    # its columns there, and every budget's Gram matrix and prediction on
    # the candidates read the same table
    evaluated = counted(kernels, "matern_of_r")
    grams = counted(kernels, "gram")
    result = run_bo_experiment(config_from_dict(SMALL_BO))
    assert [run["n"] for run in result["runs"]] == [8, 16, 32, 64]
    assert grams["calls"] == 4
    assert evaluated == {"calls": 1, "entries": 512}


def test_run_holds_the_candidates_table():
    # the final fits read their Grams and predictions from the held table
    _trajectory(12)
    spec, table = kernels._held
    assert not table.H.flags.writeable
    assert table.H.size == 2 * table.S + 1 == 1023
    assert np.array_equal(table.ia, np.arange(512)) and table.step_a == table.step_b == 1


def test_table_trajectory_is_bitwise_the_direct_one(monkeypatch):
    run = _trajectory(60)
    spec, pts = run.config.kernel, run.config.candidates.points
    # json spells out every float (and budget 2's NaN rho) for an exact comparison
    results = [json.dumps(run.result(n)) for n in range(2, 61)]
    column_of = kernels.kernel_columns(spec, pts)
    for j in run.chosen:
        assert np.array_equal(column_of(j), cross_matrix(spec, pts, pts[j])[:, 0])
    # every column, Gram matrix and prediction evaluated directly
    monkeypatch.setattr(kernels, "lattice_table", lambda *args: None)
    direct = _trajectory(60)
    assert kernels._held is None
    assert run.chosen == direct.chosen
    assert run.trace == direct.trace
    assert results == [json.dumps(direct.result(n)) for n in range(2, 61)]


def test_trajectory_holds_no_candidate_by_budget_array():
    trajectory = _trajectory(60)
    m, n = len(trajectory.config.candidates), trajectory.config.n
    arrays = [v for v in vars(trajectory).values() if isinstance(v, np.ndarray)]
    assert arrays and all(a.size < m * (n - 1) for a in arrays)


@pytest.mark.parametrize("resolution, domain", [
    (777, Domain((0.0,), (1.0,))),
    (1000, Domain((0.1,), (3.1,))),
], ids=["777", "offset_1000"])
def test_final_fits_are_the_whole_product_with_a_ragged_last_block(resolution, domain):
    # neither count is a multiple of 8, so once a block of row_block(n - 1)
    # rows no longer holds every candidate (from 85 and 66 selected points),
    # posterior_mean's last block is ragged; each budget's final point and
    # sup error are still those of the whole product over the candidates
    spec = KernelSpec(tau=2.0, lengthscale=0.15)  # nu = 3/2: no Bessel K, fast enough
    cand = gen_grid(resolution, domain)
    target = random_expansion_target(tau_f=3.0, domain=domain, seed=10)
    trajectory = run_gamma_F_n(target, BOConfig(gamma=0.3, n=200, kernel=spec, candidates=cand))
    f = trajectory.f_cand
    for n in [2, 3, 17, *range(60, 201, 7), 200]:
        chosen = trajectory.chosen[: n - 1]
        X = PointSet(cand.points[chosen], domain)
        dual = fit(spec, MeanSpec("constant", 0.0), X, f[chosen], 0.0).dual
        whole = cross_matrix(spec, cand.points, X.points) @ dual
        result = trajectory.result(n)
        assert result["x_final"] == [float(cand.points[int(np.argmax(whole)), 0])]
        assert result["sup_error"] == float(np.abs(f - whole).max())
