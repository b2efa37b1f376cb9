"""Harness outputs frozen against recorded values, and the gates' theory exponents."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import gprates
from conftest import FAST_PATHS
from gprates import designs, experiments
from gprates.acceptance import DEFAULT_SEED, acceptance_configs
from gprates.designs import UNIT_INTERVAL
from gprates.errors import ConfigurationError
from gprates.fitting import MeanSpec
from gprates.kernels import KernelSpec, blocks_per_strip, lattice_table, row_block
from gprates.norms import make_grid
from gprates.rates import NuggetPolicy
from gprates.targets import NoiseModel, eval_target, random_expansion_target
from gprates.experiments import (
    _designs,
    _theoretical_exponent,
    config_from_dict,
    pythagorean_suite,
    rayleigh_suite,
    regression_bound_suite,
    run_bq_experiment,
    run_experiment,
    run_rate_experiment,
)

# random designs, a tau schedule, Gaussian noise and four replicates per rung
RATES = {
    "kind": "rates", "name": "frozen_rates", "seed": 3,
    "kernel": {"tau": [2.0, 2.5], "lengthscale": 0.25},
    "target": {"name": "layered_tau1"},
    "design": {"kind": "random"},
    "noise": {"kind": "gaussian", "sigma": 0.05},
    "nugget": {"kind": "fixed", "sigma": 0.05},
    "ladder": [8, 16, 32, 64], "replicates": 4, "burn_in": 1,
    "q": 2, "grid_resolution": 512,
}
BQ = {
    "kind": "bq", "name": "frozen_bq", "seed": 5,
    "kernel": {"tau": 2.0, "lengthscale": 0.25},
    "target": {"name": "layered_tau2"},
    "noise": {"kind": "gaussian", "sigma": 0.05},
    "nugget": {"kind": "fixed", "sigma": 0.05},
    "density": "tent",
    "ladder": [8, 16, 32, 64], "replicates": 3, "burn_in": 1,
    "grid_resolution": 512,
}

# recorded from the per-harness rung loops that the shared ladder driver replaced
RATES_FITTED = -0.5650329503608622
RATES_ROWS = [
    (8, 0.2944277883415588, 0.01994326207899507),
    (16, 0.16498887423733663, 0.027364595644347973),
    (32, 0.1041245469754579, 0.012183820802006317),
    (64, 0.07538256763663626, 0.004947415321215216),
]
BQ_FITTED = -0.46736993345170647
BQ_ROWS = [
    (8, 0.021027760327891443, 0.014948265802643306),
    (16, 0.01519602680473886, 0.013604674161410492),
    (32, 0.009455622507514269, 0.0030344354481437537),
    (64, 0.007949600659988398, 0.0061532656878626),
]


# grid designs under an adaptive nugget: lambda = h^3 falls to 7.5e-9 at
# n = 256, so rounding differences in the prediction are amplified into the
# replicate spread
ILL_CONDITIONED = {
    "kind": "rates", "name": "frozen_ill", "seed": 11,
    "kernel": {"tau": 2.0, "lengthscale": 0.25},
    "target": {"name": "layered_tau1"},
    "design": {"kind": "grid"},
    "noise": {"kind": "outliers", "schedule": "fixed", "k": 3},
    "nugget": {"kind": "adaptive_h", "exponent": 1.5},
    "ladder": [32, 64, 128, 256], "replicates": 4, "burn_in": 1,
    "q": 2, "grid_resolution": 1024,
}
# recorded with one fit per replicate, before replicate batching, BLAS on one thread
ILL_FITTED = -0.5233679899424433
ILL_ROWS = [
    (32, 0.28357427406860475, 0.010389778119259584),
    (64, 0.20690532778676318, 0.0028314658920380363),
    (128, 0.14536712819487804, 0.0020737496427357164),
    (256, 0.10015502561307559, 0.0019497602539020947),
]


# a 1-d expansion target at scale 2 on random designs, with a kernel rougher
# than the target's declared smoothness; recorded with BLAS on one thread before
# targets became one shape
EXPANSION = {
    "kind": "rates", "name": "frozen_expansion", "seed": 4,
    "kernel": {"tau": 2.0, "lengthscale": 0.25},
    "target": {"scale": 2.0, "expansion": {"tau": 2.5, "seed": 3, "n_centers": 20}},
    "design": {"kind": "random"},
    "ladder": [16, 32, 64, 128], "burn_in": 1, "grid_resolution": 1024,
}
EXPANSION_FITTED = -2.831608660917534
EXPANSION_ROWS = [
    (16, 0.07457465988606568, 0.0),
    (32, 0.002403373405999839, 0.0),
    (64, 0.00019274502875168959, 0.0),
    (128, 4.742670637787801e-05, 0.0),
]
EXPANSION_RKHS_NORM = 4.843618804857773


def _assert_rows(rows, expected):
    assert [r[0] for r in rows] == [r[0] for r in expected]
    for got, want in zip(rows, expected):
        assert got[1:] == pytest.approx(want[1:], rel=1e-12)


def test_rates_rows_frozen():
    report = run_rate_experiment(config_from_dict(RATES))
    assert report.fitted == pytest.approx(RATES_FITTED, rel=1e-12)
    _assert_rows(report.rows, RATES_ROWS)


def test_bq_rows_frozen():
    report = run_bq_experiment(config_from_dict(BQ))
    assert report.fitted == pytest.approx(BQ_FITTED, rel=1e-12)
    _assert_rows(report.rows, BQ_ROWS)


def test_expansion_rows_frozen():
    report = run_rate_experiment(config_from_dict(EXPANSION))
    assert report.fitted == pytest.approx(EXPANSION_FITTED, rel=1e-12)
    _assert_rows(report.rows, EXPANSION_ROWS)
    assert report.extras["target_rkhs_norm"] == pytest.approx(EXPANSION_RKHS_NORM, rel=1e-12)


def test_ill_conditioned_rows_frozen(tmp_path):
    # A fresh interpreter, so that the CLI pins BLAS to one thread before numpy
    # loads: a threaded BLAS alone moves these rows by up to 2e-10.
    config = tmp_path / "ill.json"
    config.write_text(json.dumps(ILL_CONDITIONED))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(gprates.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = ("import sys, gprates.cli\n"
             f"sys.exit(gprates.cli.main(['run', '--config', {str(config)!r}, "
             f"'--out', {str(tmp_path)!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((tmp_path / "frozen_ill_report.json").read_text())
    assert report["fitted"] == pytest.approx(ILL_FITTED, rel=1e-12)
    _assert_rows([tuple(r) for r in report["rows"]], ILL_ROWS)


def test_every_tau_of_the_schedule_is_validated():
    with pytest.raises(ConfigurationError, match="tau must exceed"):
        config_from_dict(dict(RATES, kernel={"tau": [2.0, 0.4], "lengthscale": 0.25}))


@pytest.mark.parametrize("name, exponent", [
    ("a1_l2", -2.0),        # noiseless interpolation, L2: -tau/d
    ("a1_linf", -1.5),      # noiseless interpolation, Linf: -(tau - d/2)/d
    ("a2", -1.0),           # rough target, smoother kernel: -tau_f/d
    ("a3", -5.0 / 12.0),    # prescribed smoothness: -tau_f/(2 tau_f + d)
    ("a4", -0.5),           # fixed outliers, constant nugget: -1/2
    ("a5", -0.5),           # fixed outliers, adaptive nugget: -1/2
    ("a6", -2.0),           # noiseless quadrature: -min(tau_f, tau_k)/d
])
def test_gate_theoretical_exponents(name, exponent):
    cfg = config_from_dict(acceptance_configs()[name])
    assert _theoretical_exponent(cfg, 0.0, True)[0] == pytest.approx(exponent, rel=1e-12)


# fixed outliers with k = 3 under a zero nugget and a fixed one: the L1 rate
# of the matching rates config, -1/2, not the well-specified -tau_f/(2 tau_f + d)
OUTLIERS = {"kind": "outliers", "schedule": "fixed", "k": 3}


@pytest.mark.parametrize("nugget", [{"kind": "zero"}, {"kind": "fixed", "sigma": 0.1}],
                         ids=["zero_nugget", "fixed_nugget"])
def test_noisy_bq_takes_the_l1_theorem_of_its_rates_config(nugget):
    bq = dict(BQ, noise=OUTLIERS, nugget=nugget, ladder=[8, 16, 32], replicates=2,
              grid_resolution=256, density="uniform")
    theory = run_bq_experiment(config_from_dict(bq)).theoretical
    assert theory == run_rate_experiment(config_from_dict(_rates_twin(bq))).theoretical
    assert theory == pytest.approx(-0.5, rel=1e-12)


def _rates_twin(bq: dict) -> dict:
    """The rates config that measures a bq config's ladder in L1."""
    rates = {k: v for k, v in bq.items() if k != "density"}
    rates.update(kind="rates", q=1)
    return rates


# noiseless random designs: their mesh ratio grows with n, so they are not
# quasi-uniform and the rough target's theorem carries the mesh-ratio trend
RANDOM_BQ = {
    "kind": "bq", "name": "random_bq", "seed": 3,
    "kernel": {"tau": 2.0, "lengthscale": 0.25},
    "target": {"name": "layered_tau1"},
    "design": {"kind": "random"},
    "ladder": [16, 32, 64, 128], "burn_in": 1, "grid_resolution": 1024,
}


def test_random_design_bq_takes_the_l1_theorem_of_its_rates_config():
    report = run_bq_experiment(config_from_dict(RANDOM_BQ))
    twin = run_rate_experiment(config_from_dict(_rates_twin(RANDOM_BQ)))
    assert report.theoretical == twin.theoretical
    for key in ("design_trace", "h_slope", "rho_trend", "quasi_uniform", "notes"):
        assert report.extras[key] == twin.extras[key], key
    assert report.extras["quasi_uniform"] is False
    # not the quasi-uniform -tau_f/d = -1.0
    assert report.theoretical == pytest.approx(-0.0667, abs=1e-4)


P_GREEDY_LADDER = {
    "kind": "rates", "name": "pgreedy", "seed": 2,
    "kernel": {"tau": 2.0, "lengthscale": 0.25},
    "target": {"name": "layered_tau2"},
    "design": {"kind": "p_greedy", "candidate_resolution": 512},
    "ladder": [16, 32, 64, 128], "burn_in": 1, "grid_resolution": 1024,
}


@pytest.mark.parametrize("taus, runs", [(2.0, 1), ([2.0, 2.5], 2)], ids=["one_kernel", "schedule"])
def test_p_greedy_ladder_grows_one_design_per_kernel(counted, taus, runs):
    raw = dict(P_GREEDY_LADDER, kernel={"tau": taus, "lengthscale": 0.25})
    calls = counted(designs, "gen_p_greedy")
    report = run_rate_experiment(config_from_dict(raw))
    assert calls["calls"] == runs
    # every rung's design is the one a run to its own size picks
    cfg = config_from_dict(raw)
    cand = designs.gen_grid(512, cfg.domain)
    own = [designs.gen_p_greedy(n, cfg.kernel_for(i), cand) for i, n in enumerate(cfg.ladder)]
    trace, _ = designs.quasi_uniformity_trace(own)
    assert report.extras["design_trace"] == [list(r) for r in trace]


def _bench_child():
    """The benchmark's ``perfbench/child.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_child", os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "child.py"))
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def _shipped_configs():
    """Every raw config the repo runs: the acceptance presets and each benchmark
    workload's configs, full and cut down."""
    child = _bench_child()
    for name, raw in acceptance_configs().items():
        yield pytest.param(raw, id=f"accept-{name}")
    for workload in sorted(child.WORKLOADS):
        for smoke in (False, True):
            for raw in child.workload_configs(workload, DEFAULT_SEED, smoke):
                size = "smoke" if smoke else "full"
                yield pytest.param(raw, id=f"{workload}-{size}-{raw['name']}")


@pytest.mark.parametrize("raw", list(_shipped_configs()))
def test_shipped_configs_parse(raw):
    config_from_dict(raw)


# each section's kind with only the keys that kind requires, and the object
# built from the same arguments: every optional key keeps its field's default
BARE_SECTIONS = [
    ("noise", {"kind": "none"}, NoiseModel("none", seed=3)),
    ("noise", {"kind": "gaussian", "sigma": 0.2}, NoiseModel("gaussian", sigma=0.2, seed=3)),
    ("noise", {"kind": "outliers"}, NoiseModel("outliers", seed=3)),
    ("noise", {"kind": "student_t", "df": 4}, NoiseModel("student_t", df=4.0, seed=3)),
    ("nugget", {"kind": "zero"}, NuggetPolicy("zero")),
    ("nugget", {"kind": "fixed", "sigma": 0.1}, NuggetPolicy("fixed", sigma=0.1)),
    ("nugget", {"kind": "adaptive_h", "exponent": 1.5}, NuggetPolicy("adaptive_h", exponent=1.5)),
    ("mean", {"kind": "constant"}, MeanSpec("constant")),
    ("mean", {"kind": "polynomial", "coeffs": [1, 2, 3]},
     MeanSpec("polynomial", coeffs=(1.0, 2.0, 3.0))),
]


@pytest.mark.parametrize("section, value, expected", BARE_SECTIONS,
                         ids=lambda v: v.get("kind") if isinstance(v, dict) else None)
def test_bare_section_takes_the_field_defaults(section, value, expected):
    cfg = config_from_dict(dict(RATES, seed=3, **{section: value}))
    assert getattr(cfg, section) == expected


def test_every_section_kind_has_a_defaults_row():
    # a kind added to the schema table without a row above fails here
    table = {(section, kind) for section in ("noise", "nugget", "mean")
             for kind in experiments._SECTIONS[section]}
    assert table == {(section, value["kind"]) for section, value, _ in BARE_SECTIONS}
    assert len(table) == 9


def test_bare_kernel_and_expansion_target_take_the_field_defaults():
    cfg = config_from_dict(dict(RATES, kernel={"tau": 2.0},
                                target={"expansion": {"tau": 2.0, "seed": 3}}))
    assert cfg.kernels == (KernelSpec(tau=2.0),)
    expected = random_expansion_target(2.0, UNIT_INTERVAL, seed=3)
    for field in ("name", "tau_f", "domain", "scale", "rkhs_norm"):
        assert getattr(cfg.target, field) == getattr(expected, field)
    xs = [0.1, 0.5, 0.9]
    assert list(eval_target(cfg.target, xs)) == list(eval_target(expected, xs))


def _table_guard_configs():
    """The 1-d rates and bq accept presets, and the benchmark's P-greedy ladder."""
    presets = dict(acceptance_configs(), pgreedy_l2=dict(_bench_child().P_GREEDY, seed=DEFAULT_SEED))
    for name, raw in presets.items():
        if raw["kind"] in ("rates", "bq") and raw["kernel"].get("dim", 1) == 1:
            yield pytest.param(raw, id=name)


@pytest.mark.parametrize("raw", list(_table_guard_configs()))
def test_shipped_ladders_gather_from_a_kernel_table(raw):
    # every prediction on the evaluation grid and on the doubled stability
    # grid, and every Gram matrix of a grid design, takes the lattice table:
    # a change that silently falls back to the direct path fails here.  A
    # grid against a grid reads its blocks from strip windows of the table
    # (both steps known); a grid against P-greedy picks, which are no
    # progression, is a gather.  On every grid rung, block k + 1 is block k
    # moved a whole number M = h s_a / s_b of columns, and a rung of two or
    # more full blocks shares a strip among two or more of them wherever the
    # 9/8 width cap admits two (8 |M| <= n; rungs of 16 and 32 points, and
    # a3's 64 on its 4096-point grid, have M > n / 8 and read one block per
    # strip).
    cfg = config_from_dict(raw)
    grid = make_grid(cfg.domain, cfg.grid_resolution).points
    fine = make_grid(cfg.domain, 2 * len(grid)).points
    window = cfg.design_kind == "grid"
    assert window or cfg.design_kind == "p_greedy"
    shared = 0
    for idx, X in enumerate(_designs(cfg, cfg.ladder)):
        kernel = cfg.kernel_for(idx)
        for queries in (grid, fine):
            table = lattice_table(kernel, queries, X.points)
            assert table is not None and table.step_a is not None
            assert (table.step_b is not None) == window
            G = blocks_per_strip(table)
            assert (G is not None) == window
            if window:
                h, n = row_block(len(X)), len(X)
                shift, rest = divmod(h * table.step_a, table.step_b)
                assert rest == 0 and shift != 0
                full = len(queries) // h
                # two or more blocks per strip when full >= 2 and 8 |M| <= n
                assert G == min(full, 1 + n // (8 * abs(shift)))
                shared += G >= 2
        if window:
            table = lattice_table(kernel, X.points, X.points)
            assert table is not None and None not in (table.step_a, table.step_b)
    assert shared > 0 or not window
    if not window:  # every P-greedy column is a window of the candidates' table
        candidates = designs.gen_grid(cfg.candidate_resolution, cfg.domain).points
        table = lattice_table(cfg.kernel_for(0), candidates, candidates)
        assert table is not None and None not in (table.step_a, table.step_b)


def test_only_a3s_largest_rungs_take_the_toeplitz_route(tmp_path, failing_cho_factor,
                                                        failing_solve_toeplitz,
                                                        toeplitz_products):
    # every shipped fit, by its route: a whole Gram (cho_factor) or a
    # Toeplitz solve (solve_toeplitz): the accept presets, BO final fits and
    # a8's suites included, and the benchmark's P-greedy ladder.  Exactly
    # a3's ridge rungs of 1024 and 2048 grid points cross TOEPLITZ_BYTES,
    # and both are Toeplitz; a change of the threshold that moves a ladder's
    # rung across it, or a fit that takes another route, fails here.  Each
    # of those two fits makes one FFT product, its certificate (n, n, 1), and
    # only those two models predict by FFT products: each on the 4096-point
    # grid, and the last rung also on the 8192-point grid of the stability
    # check; every other prediction streams kernel blocks
    whole, toeplitz = failing_cho_factor(0), failing_solve_toeplitz(0)
    raw = dict(acceptance_configs(), pgreedy_l2=dict(_bench_child().P_GREEDY, seed=DEFAULT_SEED))
    runs = {name: lambda cfg=cfg: run_experiment(config_from_dict(cfg), str(tmp_path))
            for name, cfg in raw.items()}
    runs.update({suite.__name__: lambda suite=suite: suite(DEFAULT_SEED)
                 for suite in (pythagorean_suite, regression_bound_suite, rayleigh_suite)})
    sizes, products = {}, {}
    for name, run in runs.items():
        start = len(whole), len(toeplitz), len(toeplitz_products)
        run()
        sizes[name] = whole[start[0]:], toeplitz[start[1]:]
        products[name] = toeplitz_products[start[2]:]
    assert {name: t for name, (_, t) in sizes.items() if t} == {"a3": [1024, 2048]}
    assert {name: p for name, p in products.items() if p} == {"a3": [
        (1024, 1024, 1), (1024, 4096, 4), (2048, 2048, 1), (2048, 4096, 2), (2048, 8192, 4)]}
    assert all(w for w, _ in sizes.values())
    assert max(n for w, _ in sizes.values() for n in w) == 512


# the configs that reach each fast path of the switchboard: a1_l2 and a3
# predict grids on grids (strips), a3 with 20 replicates, and a3 reads its
# Grams of up to 512 points from the table's windows; a7 reads its BO
# columns and final fits from the candidates' table; a cut P-greedy ladder
# reads its columns and predictions from tables through gathers
REACHES = {
    "lattice_tables": ("a1_l2", "a3", "a7", "pgreedy_l2"),
    "strip_windows": ("a1_l2", "a3"),
}


@pytest.fixture(scope="module")
def switchboard_runs(tmp_path_factory):
    """The configs of ``REACHES`` by name, and a7 to its budget 100
    (``a7_100``), with the bytes of each one's files from a normal run."""
    raw = acceptance_configs()
    raw["pgreedy_l2"] = dict(_bench_child().P_GREEDY, seed=DEFAULT_SEED, ladder=[16, 32, 64, 128],
                             grid_resolution=2048)
    raw["a7_100"] = dict(raw["a7"], bo=dict(raw["a7"]["bo"], budgets=[25, 50, 100]))
    cfgs = {name: config_from_dict(raw[name]) for name in (*REACHES["lattice_tables"], "a7_100")}
    out = tmp_path_factory.mktemp("normal")
    return cfgs, {name: _artifacts(out, cfg) for name, cfg in cfgs.items()}


def _artifacts(out_dir, cfg):
    """Run ``cfg`` into ``out_dir``; the bytes of each file written."""
    return {f: (out_dir / f).read_bytes() for f in run_experiment(cfg, str(out_dir))[3]}


@pytest.mark.parametrize("switches", [*([name] for name in FAST_PATHS), list(FAST_PATHS)],
                         ids=[*FAST_PATHS, "all"])
def test_fast_paths_write_the_files_of_their_off_switch(tmp_path, monkeypatch, switchboard_runs,
                                                        switches):
    # each fast path switched off alone, and all of them together, on the
    # configs that reach it: every file keeps the normal run's bytes, and a
    # switch off alone is called (with the tables off, no strip is reached).
    # Alone, each switch runs the whole a7 preset; all together run a7 to its
    # budget 100, whose picks are the first 99 of the preset's one trajectory,
    # to keep the test under 5 s
    assert set(REACHES) == set(FAST_PATHS)
    cfgs, normal = switchboard_runs
    calls = {}
    for switch in switches:
        for module, attr, off in FAST_PATHS[switch]:
            def counted_off(*args, off=off, switch=switch, **kwargs):
                calls[switch] = calls.get(switch, 0) + 1
                return off(*args, **kwargs)

            monkeypatch.setattr(sys.modules[f"gprates.{module}"], attr, counted_off)
    names = {name for switch in switches for name in REACHES[switch]}
    if len(switches) > 1:
        names = names - {"a7"} | {"a7_100"}
    for name in sorted(names):
        assert _artifacts(tmp_path, cfgs[name]) == normal[name], name
    assert len(switches) > 1 or list(calls) == switches


def test_linf_minus_l2_slope_tells_the_q_term():
    # a1_l2 and a1_linf differ only in q: the theorem's d (1/2 - 1/q)_+ term
    # predicts their exponents differ by +0.5 (d = 1, q = inf), and by 0
    # without it; the measured difference must be nearer the prediction
    cfgs = acceptance_configs()
    l2, linf = (run_rate_experiment(config_from_dict(cfgs[name])) for name in ("a1_l2", "a1_linf"))
    assert linf.theoretical - l2.theoretical == 0.5
    measured = linf.fitted - l2.fitted
    assert abs(measured - 0.5) < abs(measured - 0.0)


# the 2-d rows of the same check: an expansion target (tau_f 2.5) on grid
# ladders of the unit square; the exponent -(tau_f - d (1/2 - 1/q)_+) / d
# again differs by +0.5 between q = inf and q = 2, and by 0 without the term
SQUARE_RATES = {
    "kind": "rates", "name": "square", "seed": 1,
    "target": {"expansion": {"tau": 2.5, "seed": 3, "n_centers": 40}},
    "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "design": {"kind": "grid"}, "ladder": [16, 36, 64, 144, 256, 576],
    "tolerance": 0.4, "grid_resolution": 96,
}


@pytest.mark.parametrize("tau", [2.5, 3.5])
def test_linf_minus_l2_slope_tells_the_q_term_in_2d(tau):
    # measured +0.429 (tau 2.5) and +0.524 (tau 3.5)
    kernel = {"tau": tau, "lengthscale": 0.25, "amplitude": 1.0, "dim": 2}
    l2, linf = (run_rate_experiment(config_from_dict(dict(SQUARE_RATES, kernel=kernel, q=q)))
                for q in (2, "inf"))
    assert linf.theoretical - l2.theoretical == 0.5
    measured = linf.fitted - l2.fitted
    assert abs(measured - 0.5) < abs(measured - 0.0)
