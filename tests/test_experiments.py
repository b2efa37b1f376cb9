"""Harness outputs frozen against recorded values, and the gates' theory exponents."""

import json
import os
import subprocess
import sys

import pytest

import gprates
from gprates.acceptance import acceptance_configs
from gprates.errors import ConfigurationError
from gprates.experiments import (
    _theoretical_exponent,
    config_from_dict,
    run_bq_experiment,
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
