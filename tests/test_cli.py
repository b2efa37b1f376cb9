"""Command-line exit codes, config validation and the BLAS thread pin."""

import contextlib
import copy
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gprates
import gprates.acceptance
import gprates.experiments
from gprates.cli import _report_errors, main
from gprates.errors import SingularDesignError

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# a noiseless grid ladder small enough for tier-1; fitted slope about -2.25
SMALL_RATES = {
    "kind": "rates", "name": "small",
    "kernel": {"tau": 2.0, "lengthscale": 0.25},
    "target": {"name": "layered_tau2"},
    "ladder": [16, 32, 64, 128], "grid_resolution": 1024,
}

SMALL_BO = {
    "kind": "bo", "name": "small_bo",
    "kernel": {"tau": 2.5, "lengthscale": 0.15},
    "target": {"name": "peaks3"},
    "design": {"kind": "grid", "candidate_resolution": 64},
}

SMALL_FIT = {
    "kind": "interpolate", "name": "fit",
    "kernel": {"tau": 2.0, "lengthscale": 0.25},
    "target": {"name": "layered_tau2"},
    "n": 32, "grid_resolution": 256,
}
SMALL_REGRESS = dict(
    SMALL_FIT, kind="regress", noise={"kind": "gaussian", "sigma": 0.1},
    nugget={"kind": "fixed", "sigma": 0.1},
)


@pytest.fixture(autouse=True)
def _restore_thread_vars(monkeypatch):
    # main() pins these in os.environ; monkeypatch restores them afterwards
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")


# a ``config`` for ``_run`` that makes ``--config`` name an empty directory
A_DIRECTORY = object()


def _run(tmp_path, config, *extra):
    """Run ``config`` (a dict, JSON text, raw bytes or ``A_DIRECTORY``) through ``main``."""
    path = tmp_path / "config.json"
    if config is A_DIRECTORY:
        path.mkdir()
    elif isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    return main(["run", "--config", str(path), "--out", str(out), *extra]), out


def test_passing_rates_run_exits_0(tmp_path):
    code, out = _run(tmp_path, SMALL_RATES)
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["small_curve.csv", "small_report.json"]


def test_failed_gate_exits_1(tmp_path):
    code, out = _run(tmp_path, dict(SMALL_RATES, tolerance=0.001))
    assert code == 1
    assert json.loads((out / "small_report.json").read_text())["verdict"] == "fail"


def test_list_prints_every_registry_entry(capsys):
    from gprates.quadrature import DENSITY_REGISTRY
    from gprates.targets import registry_entries

    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    targets = [line.split()[0] for line in lines if line.startswith("  ")]
    assert targets == [name for name, _, _ in registry_entries()]
    listed = {line.split(":")[0]: line.split(": ")[1].split(", ")
              for line in lines if not line.startswith(("  ", "targets"))}
    assert listed == {
        "densities": sorted(DENSITY_REGISTRY),
        "designs": list(gprates.experiments._SECTIONS["design"]),
        "experiments": sorted(gprates.acceptance.acceptance_configs()),
    }
    assert listed["designs"] == ["grid", "random", "p_greedy"]


SMALL_DESIGN = {"kind": "design", "name": "des", "ladder": [8, 16, 32]}


def _cut_preset(name, section, **fields):
    """Accept preset ``name`` on the ladder [16, 32, 64] with 256 grid points,
    its ``section`` updated with ``fields``."""
    raw = gprates.acceptance.acceptance_configs()[name]
    return dict(raw, ladder=[16, 32, 64], grid_resolution=256,
                **{section: dict(raw[section], **fields)})


def _a7(section, value):
    """Accept preset a7 with its ``section`` updated (a dict) or replaced."""
    raw = gprates.acceptance.acceptance_configs()["a7"]
    return dict(raw, **{section: dict(raw[section], **value) if section in raw else value})


# ``field`` is the name the one-line message must contain, or None where there
# is no field to name (the file is not a JSON object)
@pytest.mark.parametrize("config, field", [
    (dict(SMALL_RATES, bogus=1), "bogus"),
    ("{", None),
    ("[1, 2]", None),
    (dict(SMALL_RATES, ladder=[]), "ladder"),
    (dict(SMALL_RATES, kernel={"tau": [2.0, 0.4], "lengthscale": 0.25}), "tau"),
    (dict(SMALL_RATES, replicates=0), "replicates"),
    (dict(SMALL_RATES, replicates=2.7), "replicates"),
    (dict(SMALL_BO, bo={"budgets": []}), "budgets"),
    (dict(SMALL_BO, bo={"budgets": [8, 1]}), "budgets"),
    (dict(SMALL_BO, design={"kind": "grid", "candidate_resolution": 8},
          bo={"budgets": [4, 10]}), "budget 10"),
    (dict(SMALL_RATES, q="two"), "q"),
    (dict(SMALL_RATES, q="-inf"), "q"),
    (dict(SMALL_RATES, tolerance="x"), "tolerance"),
    (dict(SMALL_RATES, kernel={"tau": "a"}), "kernel.tau"),
    (dict(SMALL_RATES, tolerance=True), "tolerance"),
    (dict(SMALL_RATES, kernel={"tau": True}), "kernel.tau"),
    (dict(SMALL_RATES, domain={"lower": 0, "upper": [1.0]}), "domain.lower"),
    (dict(SMALL_RATES, ladder=5), "ladder"),
    (dict(SMALL_RATES, kernel=3), "kernel"),
    (dict(SMALL_RATES, noise="gaussian"), "noise"),
    (dict(SMALL_BO, bo=0), "bo"),
    (dict(SMALL_BO, bo={"budgets": [8, 16], "acquisition": "ucb"}), "acquisition"),
    (dict(SMALL_RATES, s=0), "'s'"),
    (dict(SMALL_REGRESS, nugget={"kind": "zero"}), "nugget"),
    (dict(SMALL_FIT, nugget={"kind": "fixed", "sigma": 0.1}), "nugget"),
    (dict(SMALL_RATES, kind="bq", q="inf"), "'q'"),
    (dict(SMALL_FIT, q="inf"), "'q'"),
    (dict(SMALL_BO, q=1), "'q'"),
    (dict(SMALL_DESIGN, q=1), "'q'"),
    (dict(SMALL_RATES, name="../escape"), "name"),
    (dict(SMALL_RATES, name=["a"]), "name"),
    (dict(SMALL_RATES, name=""), "name"),
    (dict(SMALL_RATES, density="tent"), "'density'"),
    (dict(SMALL_RATES, kind="bq", n=64), "'n'"),
    (dict(SMALL_BO, noise={"kind": "gaussian", "sigma": 0.1}), "'noise'"),
    (dict(SMALL_FIT, ladder=[8, 16]), "'ladder'"),
    (dict(SMALL_REGRESS, replicates=2), "'replicates'"),
    (dict(SMALL_DESIGN, target={"name": "layered_tau2"}), "'target'"),
    (dict(SMALL_BO, design={"kind": "random"}), "design.kind"),
    (dict(SMALL_DESIGN, design={"kind": "p_greedy"}), "'kernel'"),
    (dict(SMALL_RATES, noise={"kind": "none", "sigma": 0.5}), "'sigma'"),
    (dict(SMALL_RATES, noise={"kind": "gaussian", "sigma": 0.1, "df": 3}), "'df'"),
    (dict(SMALL_RATES, nugget={"kind": "zero", "sigma": 0.1}), "'sigma'"),
    (dict(SMALL_RATES, mean={"kind": "constant", "coeffs": [0.0, 1.0, 0.0]}), "'coeffs'"),
    (dict(SMALL_RATES, design={"kind": "grid", "candidate_resolution": 64}),
     "'candidate_resolution'"),
    (dict(SMALL_DESIGN, design={"kind": "random", "candidate_resolution": 64}),
     "'candidate_resolution'"),
    (dict(SMALL_RATES, burn_in=-3), "burn_in"),
    (dict(SMALL_RATES, grid_resolution=0), "grid_resolution"),
    (dict(SMALL_BO, design={"kind": "grid", "candidate_resolution": 0}),
     "design.candidate_resolution"),
    (dict(SMALL_RATES, design={"kind": "p_greedy", "candidate_resolution": -5}),
     "design.candidate_resolution"),
    (dict(SMALL_FIT, n=0), "n must be at least 1"),
    (dict(SMALL_REGRESS, n=-3), "n must be at least 1"),
    (dict(SMALL_RATES, tolerance=-1), "tolerance must be at least 0"),
    (dict(SMALL_RATES, tolerance=float("nan")), "tolerance must be at least 0"),
    (dict(SMALL_FIT, target={"expansion": {"tau": 2.0, "seed": 1, "n_centers": 0}}),
     "target.expansion.n_centers"),
    (dict(SMALL_FIT, target={"expansion": {"tau": 2.0, "seed": 1, "n_centers": -2}}),
     "target.expansion.n_centers"),
    # a finite tau past what the kernel can raise to a power
    (dict(SMALL_FIT, target={"expansion": {"tau": 1e300, "seed": 1}}), "target.expansion.tau"),
    # every required key of a section, left out
    (dict(SMALL_RATES, noise={"kind": "gaussian"}), "missing field 'sigma' in noise"),
    (dict(SMALL_RATES, noise={"kind": "student_t"}), "missing field 'df' in noise"),
    (dict(SMALL_REGRESS, nugget={"sigma": 0.1}), "missing field 'kind' in nugget"),
    (dict(SMALL_REGRESS, nugget={"kind": "fixed"}), "missing field 'sigma' in nugget"),
    (dict(SMALL_RATES, nugget={"kind": "adaptive_h"}), "missing field 'exponent' in nugget"),
    # a noise or nugget scale of 0 or below
    (dict(SMALL_RATES, noise={"kind": "student_t", "df": 3.0, "scale": 0.0}), "noise.scale"),
    (dict(SMALL_RATES, noise={"kind": "student_t", "df": 3.0, "scale": -1.0}), "noise.scale"),
    (dict(SMALL_RATES, noise={"kind": "outliers", "magnitude": 0.0}), "noise.magnitude"),
    (dict(SMALL_RATES, noise={"kind": "outliers", "magnitude": -2.0}), "noise.magnitude"),
    (dict(SMALL_REGRESS, nugget={"kind": "adaptive_h", "exponent": 1.0, "coeff": 0.0}),
     "nugget.coeff"),
    (dict(SMALL_RATES, nugget={"kind": "adaptive_h", "exponent": 1.0, "coeff": -0.5}),
     "nugget.coeff"),
    (dict(SMALL_RATES, mean={"kind": "polynomial"}), "missing field 'coeffs' in mean"),
    (dict(SMALL_RATES, domain={"upper": [1.0]}), "missing field 'lower' in domain"),
    (dict(SMALL_RATES, domain={"lower": [0.0]}), "missing field 'upper' in domain"),
    (dict(SMALL_RATES, kernel={"lengthscale": 0.25}), "missing field 'tau' in kernel"),
    (dict(SMALL_RATES, target={"scale": 2.0}), "missing field 'name' in target"),
    (dict(SMALL_FIT, target={"expansion": {"seed": 1}}), "missing field 'tau' in target.expansion"),
    (dict(SMALL_FIT, target={"expansion": {"tau": 2.0}}), "missing field 'seed' in target.expansion"),
    # json.load reads Infinity and NaN; no number field takes them
    (dict(SMALL_RATES, kernel={"tau": 2.0, "amplitude": math.inf}), "kernel.amplitude"),
    (dict(SMALL_RATES, kernel={"tau": math.inf}), "kernel.tau"),
    (dict(SMALL_RATES, kernel={"tau": 2.0, "lengthscale": math.inf}), "kernel.lengthscale"),
    (dict(SMALL_REGRESS, noise={"kind": "gaussian", "sigma": math.inf}), "noise.sigma"),
    (dict(SMALL_REGRESS, nugget={"kind": "fixed", "sigma": math.inf}), "nugget.sigma"),
    (dict(SMALL_RATES, target={"name": "layered_tau2", "scale": math.inf}), "target.scale"),
    (dict(SMALL_RATES, mean={"value": math.inf}), "mean.value"),
    (dict(SMALL_RATES, mean={"value": math.nan}), "mean.value"),
    (dict(SMALL_RATES, tolerance=math.inf), "tolerance must be finite"),
    (dict(SMALL_RATES, tolerance=10**400), "tolerance must be finite"),  # past float range
    # finite numbers whose kernel, observations or nugget leave the float range
    (_cut_preset("a1_l2", "kernel", lengthscale=1e-320), "kernel.lengthscale"),
    (_cut_preset("a1_l2", "kernel", amplitude=1e308), "kernel.amplitude"),
    (_cut_preset("a1_l2", "target", scale=1e308), "target.scale"),
    (_cut_preset("a3", "noise", sigma=1e308), "noise.sigma"),
    (_cut_preset("a3", "nugget", sigma=1e200), "nugget.sigma"),
    # coeff * h^2 is inf on [0, 1000] with no exception raised
    (dict(_cut_preset("a5", "nugget", exponent=2.0, coeff=1e308),
          domain={"lower": [0.0], "upper": [1000.0]}), "nugget.coeff and nugget.exponent"),
    # a7 with kernel values past the float range on the candidates, and with
    # a posterior variance that vanishes on every candidate once the jitter
    # underflows
    (_a7("kernel", {"lengthscale": 1e-300}), "kernel.lengthscale"),
    (_a7("kernel", {"amplitude": 1e-320}), "kernel.amplitude"),
    (_a7("domain", {"lower": [0.0], "upper": [1e300]}), "domain"),
    # a domain whose squared distances overflow, on every kind that measures its geometry
    (dict(SMALL_RATES, kind="bq", domain={"lower": [0.0], "upper": [1e300]}), "domain must"),
    (dict(SMALL_DESIGN, domain={"lower": [-1e308], "upper": [1e308]}), "domain must"),
    # the same check on P-greedy's candidate table
    (dict(SMALL_RATES, kernel={"tau": 2.0, "lengthscale": 1e-320},
          design={"kind": "p_greedy", "candidate_resolution": 256}), "kernel.lengthscale"),
    # and on its cross_matrix columns, off a dyadic lattice
    (dict(SMALL_RATES, kernel={"tau": 2.0, "lengthscale": 1e-320},
          domain={"lower": [0.1], "upper": [3.1]},
          design={"kind": "p_greedy", "candidate_resolution": 256}), "kernel.lengthscale"),
    # a finite P-greedy table that is 0 off its centre: the picks would run in index order
    (dict(SMALL_RATES, kernel={"tau": 2.0, "lengthscale": 1e-300}, ladder=[16, 32, 64],
          design={"kind": "p_greedy", "candidate_resolution": 256}), "kernel.lengthscale"),
    # a prior mean past the float range at the design
    (dict(_cut_preset("a1_l2", "kernel"), mean={"kind": "polynomial", "coeffs": [1e308] * 3}),
     "mean.coeffs"),
    # finite target values (up to 1.68e308) and finite noise whose sum is not
    (dict(_cut_preset("a3", "noise", sigma=1e307), target={"name": "layered_tau2p5",
                                                           "scale": 4.5e307}), "target.scale"),
    # a theorem-stating ladder on noise with no finite second moment, and a
    # polynomial mean with the wrong number of coefficients for the domain
    (dict(SMALL_RATES, noise={"kind": "student_t", "df": 2.0}), "no finite second moment"),
    (dict(SMALL_RATES, kind="bq", noise={"kind": "student_t", "df": 1.5}),
     "no finite second moment"),
    (dict(SMALL_RATES, mean={"kind": "polynomial", "coeffs": [0.0, 1.0]}),
     "polynomial mean needs 1 + 2*dim coefficients, got 2"),
    # files json cannot read: an integer past Python's 4300-digit conversion
    # limit, bytes that are not UTF-8, a directory
    ('{"kind": "rates", "tolerance": 1' + "0" * 5000 + "}", "config.json"),
    (b'{"kind": "rates", "name": "\xff"}', "config.json"),
    (A_DIRECTORY, "config.json"),
], ids=["unknown_key", "bad_json", "not_an_object", "empty_ladder", "bad_later_tau",
        "zero_replicates", "fractional_replicates", "empty_bo_budgets", "bo_budget_below_2",
        "bo_budget_above_candidates",
        "q_not_a_number", "q_minus_inf", "tolerance_not_a_number", "tau_not_a_number",
        "boolean_tolerance", "boolean_tau", "domain_lower_not_a_list",
        "ladder_not_a_list", "kernel_not_an_object", "noise_not_an_object", "bo_not_an_object",
        "ucb_acquisition", "s_key", "regress_zero_nugget", "interpolate_with_nugget",
        "q_on_bq", "q_on_interpolate", "q_on_bo", "q_on_design",
        "name_with_directory", "name_not_a_string", "empty_name",
        "density_on_rates", "n_on_bq", "noise_on_bo", "ladder_on_interpolate",
        "replicates_on_regress", "target_on_design", "random_design_on_bo",
        "p_greedy_design_without_kernel", "sigma_on_no_noise", "df_on_gaussian_noise",
        "sigma_on_zero_nugget", "coeffs_on_constant_mean", "candidate_resolution_on_grid",
        "candidate_resolution_on_random", "negative_burn_in", "zero_grid_resolution",
        "zero_candidate_resolution", "negative_candidate_resolution", "n_zero", "n_negative",
        "negative_tolerance", "nan_tolerance", "zero_expansion_centers",
        "negative_expansion_centers", "overflowing_expansion_tau",
        "gaussian_noise_without_sigma", "student_t_noise_without_df", "nugget_without_kind",
        "fixed_nugget_without_sigma", "adaptive_nugget_without_exponent",
        "zero_student_t_scale", "negative_student_t_scale", "zero_outlier_magnitude",
        "negative_outlier_magnitude", "regress_zero_nugget_coeff", "negative_nugget_coeff",
        "polynomial_mean_without_coeffs", "domain_without_lower", "domain_without_upper",
        "kernel_without_tau", "target_without_name", "expansion_without_tau",
        "expansion_without_seed", "infinite_amplitude", "infinite_tau",
        "infinite_lengthscale", "infinite_noise_sigma", "infinite_nugget_sigma",
        "infinite_target_scale", "infinite_mean", "nan_mean", "infinite_tolerance",
        "huge_integer_tolerance", "subnormal_lengthscale", "overflowing_amplitude",
        "overflowing_target_scale", "overflowing_noise_sigma", "overflowing_nugget_square",
        "overflowing_adaptive_nugget", "bo_lengthscale_below_float_range",
        "bo_subnormal_amplitude", "bo_domain_past_float_range", "bq_domain_past_float_range",
        "design_domain_width_past_float_range", "p_greedy_lengthscale_below_float_range",
        "p_greedy_columns_below_float_range", "p_greedy_identity_kernel",
        "overflowing_polynomial_mean", "rates_student_t_df_2", "bq_student_t_df_1.5",
        "polynomial_mean_of_wrong_length",
        "overflowing_target_plus_noise",
        "integer_past_conversion_limit", "not_utf8",
        "config_is_a_directory"])
def test_config_errors_exit_2_before_any_work(tmp_path, capsys, config, field):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = _run(tmp_path, config, "--seed", "3")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 2
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "out"]
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert field is None or field in err


def test_overflowing_residual_norm_is_finite(tmp_path):
    # errors near 1e298 square past the float range; the residual norm at the
    # design points is taken scaled by its largest entry, with no RuntimeWarning
    config = dict(SMALL_FIT, target={"name": "layered_tau2", "scale": 1e300})
    code, out = _run(tmp_path, config)
    assert code == 0
    summary = json.loads((out / "fit_summary.json").read_text())
    assert all(math.isfinite(summary[key]) for key in ("l1", "l2", "linf", "residual_norm"))
    assert summary["residual_norm"] > 0


@pytest.mark.parametrize("config, message", [
    (dict(SMALL_RATES, noise={"kind": "student_t", "df": 2.0},
          design={"kind": "p_greedy", "candidate_resolution": 256}),
     "student_t with df = 2.0 has no finite second moment"),
    (dict(SMALL_RATES, mean={"kind": "polynomial", "coeffs": [0.0, 1.0, 0.0, 0.0]},
          design={"kind": "p_greedy", "candidate_resolution": 256}),
     "polynomial mean needs 1 + 2*dim coefficients, got 4"),
], ids=["infinite_moment_noise", "polynomial_mean_of_wrong_length"])
def test_config_alone_decides_before_any_design(tmp_path, capsys, monkeypatch, config, message):
    # both errors follow from the config alone, so the parser raises them
    # before a single design is built
    def no_designs(*args):
        raise AssertionError("a design was built")

    monkeypatch.setattr(gprates.experiments, "_designs", no_designs)
    code, out = _run(tmp_path, config)
    assert code == 2 and list(out.iterdir()) == []
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("kind", ["interpolate", "regress"])
def test_fit_kinds_accept_noise_with_no_finite_second_moment(tmp_path, kind):
    # a single fit states no theorem, so it runs on student_t noise with df <= 2
    base = SMALL_FIT if kind == "interpolate" else SMALL_REGRESS
    code, out = _run(tmp_path, dict(base, noise={"kind": "student_t", "df": 1.5}))
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["fit_fit.csv", "fit_summary.json"]


def test_overflowing_errors_give_a_finite_verdict(tmp_path):
    # a prior mean of 1e200 squares every error past the float range; the
    # norms and spreads are then taken scaled by their largest entry, with no
    # RuntimeWarning, and the run fails its gate on a finite slope
    config = dict(_cut_preset("a3", "kernel"), ladder=[16, 32, 64, 128],
                  mean={"kind": "constant", "value": 1e200})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = _run(tmp_path, config, "--seed", "3")
    assert code == 1
    report = json.loads((out / "a3_report.json").read_text())
    assert report["verdict"] == "fail" and not report.get("invalid_reason")
    assert math.isfinite(report["fitted"]) and abs(report["fitted"] - (-0.667)) < 0.01
    curve = (out / "a3_curve.csv").read_text()
    assert "inf" not in curve and "nan" not in curve


# every size field, as a config that sets it to ``value``
SIZE_FIELDS = {
    "grid_resolution": lambda value: dict(SMALL_RATES, grid_resolution=value),
    "p_greedy_candidate_resolution": lambda value: dict(
        SMALL_RATES, design={"kind": "p_greedy", "candidate_resolution": value}),
    "bo_candidate_resolution": lambda value: dict(
        SMALL_BO, design={"kind": "grid", "candidate_resolution": value}),
    "n": lambda value: dict(SMALL_FIT, n=value),
    "ladder_entry": lambda value: dict(SMALL_RATES, ladder=[16, value]),
    "replicates": lambda value: dict(SMALL_RATES, replicates=value),
}


# 2**62 doubles or more take 32 EiB, past numpy's int64 byte count: no
# allocation of them can succeed
HUGE_SIZES = {"2^62": 2**62, "2^63": 2**63, "10^25": 10**25, "1e300": 1e300}


@pytest.mark.parametrize("field, value", [
    ("grid_resolution", 10**15),
    *((field, value) for field in SIZE_FIELDS for value in HUGE_SIZES.values()),
], ids=["grid_resolution-1e15", *(f"{field}-{name}" for field in SIZE_FIELDS
                                  for name in HUGE_SIZES)])
def test_allocation_failure_exits_2_without_a_traceback(tmp_path, capsys, field, value):
    # from 2**63 on the parser rejects a size, naming its field; below it,
    # 10**15 grid points take 8 PB, more than any address space holds, so
    # the first allocation fails at once (numpy raises MemoryError, or a
    # ValueError past its int64 byte count), before any loop over the size
    start = time.perf_counter()
    code, out = _run(tmp_path, SIZE_FIELDS[field](value))
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    if value >= 2**63:
        assert err.startswith("config error: ") and "below 2**63" in err
    else:
        assert err.startswith("config error: out of memory: ")


def test_element_count_past_int64_exits_2(capsys):
    # numpy words a size past int64 in elements otherwise than in bytes (the
    # 2**62 rows above); the parser's limit keeps every config from it, but
    # it must still read as out of memory
    assert _report_errors(lambda: np.arange(1e300)) == 2
    assert capsys.readouterr().err.startswith("config error: out of memory: ")


def test_other_value_errors_propagate():
    def command():
        raise ValueError("not a size")

    with pytest.raises(ValueError, match="not a size"):
        _report_errors(command)


@pytest.mark.parametrize("config", [
    dict(SMALL_RATES, seed="abc"),
    dict(SMALL_RATES, seed=-1, noise={"kind": "gaussian", "sigma": 0.1},
         nugget={"kind": "fixed", "sigma": 0.1}),
    dict(SMALL_RATES, seed=1.5),
    dict(SMALL_RATES, seed=True),
], ids=["seed_not_a_number", "negative_seed", "fractional_seed", "boolean_seed"])
def test_bad_seed_exits_2_before_any_work(tmp_path, capsys, config):
    code, out = _run(tmp_path, config)
    assert code == 2
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("config error: seed ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "accept"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "path_through_file"])
def test_out_on_a_file_exits_2_before_any_work(tmp_path, capsys, command, below):
    # an existing file F as --out, or F/sub: no directory can be made there,
    # which is a config error before the experiment runs, not a traceback
    # once it has written nothing
    blocker = tmp_path / "F"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if below else blocker
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_RATES))
    argv = (["run", "--config", str(config)] if command == "run"
            else ["accept", "--skip-determinism"])
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write output directory {str(out)!r}: ")
    assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "config.json"]
    assert blocker.read_text() == "not a directory\n"


def test_accept_with_negative_seed_exits_2_before_any_work(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["accept", "--seed", "-1", "--skip-determinism", "--out", str(out)]) == 2
    assert list(out.iterdir()) == []
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("config, files", [
    (SMALL_DESIGN, ["des_metrics.json", "des_points.csv"]),
    (SMALL_FIT, ["fit_fit.csv", "fit_summary.json"]),
    (SMALL_REGRESS, ["fit_fit.csv", "fit_summary.json"]),
    ({"kind": "design", "name": "des2", "ladder": [4, 16],
      "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}},
     ["des2_metrics.json", "des2_points.csv"]),
], ids=["design", "interpolate", "regress", "design_2d_without_kernel"])
def test_single_run_kinds_write_their_files(tmp_path, config, files):
    code, out = _run(tmp_path, config)
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == files


def test_one_point_design_rung_has_nan_mesh_ratio(tmp_path):
    _, out = _run(tmp_path, dict(SMALL_DESIGN, ladder=[1, 4, 16]))
    first, *rest = json.loads((out / "des_metrics.json").read_text())["metrics"]
    assert math.isnan(first["q"]) and math.isnan(first["rho"])
    assert all(row["q"] > 0 and math.isfinite(row["rho"]) for row in rest)


def test_bo_budget_may_select_every_candidate(tmp_path):
    config = dict(SMALL_BO, design={"kind": "grid", "candidate_resolution": 8},
                  bo={"budgets": [4, 9]})
    code, out = _run(tmp_path, config)
    assert code in (0, 1)
    rows = (out / "small_bo_trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 7


def test_bo_trace_writes_every_coordinate(tmp_path):
    config = {
        "kind": "bo", "name": "bo2d",
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "kernel": {"tau": 2.5, "lengthscale": 0.3, "dim": 2},
        "target": {"expansion": {"tau": 2.5, "seed": 1, "n_centers": 8}},
        "design": {"kind": "grid", "candidate_resolution": 16},
        "bo": {"budgets": [6, 12]},
    }
    _, out = _run(tmp_path, config)
    header, *rows = (out / "bo2d_trace.csv").read_text().splitlines()
    assert header == "step,x1,x2,f,threshold,sd,acquisition,rho_so_far"
    assert len(rows) == 10
    assert all(len(row.split(",")) == 8 for row in rows)


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


def test_singular_design_exits_3(tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise SingularDesignError("Cholesky failed")

    monkeypatch.setattr(gprates.experiments, "fit", singular)
    code, _ = _run(tmp_path, SMALL_RATES)
    assert code == 3


def test_large_fit_that_never_factors_exits_3(tmp_path, capsys, failing_cho_factor):
    # an 800-point interpolation factors its whole Gram (4.9 MiB); cho_factor
    # fails at every jitter step, and the run exits 3 naming the closest pair
    factored = failing_cho_factor(3)
    code, out = _run(tmp_path, dict(SMALL_FIT, n=800))
    assert code == 3 and factored == [800] * 3
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("numerical abort: Cholesky failed up to jitter 1.0e-06; "
                                           "closest design pair is (")


@pytest.mark.parametrize("section, value", [
    ("kernel", {"lengthscale": 3.0}),
    ("kernel", {"lengthscale": 1e25}),
    ("bo", {"gamma": 5e-324}),
], ids=["3.0", "1e25", "gamma_5e-324"])
def test_repeated_bo_pick_exits_3(tmp_path, capsys, section, value):
    # from some step on (149 at a long lengthscale, 27 at a gamma whose
    # threshold rounds to 0, where every sd stays positive), the posterior sd
    # of an already-selected candidate, at the jitter's scale, is stabilized,
    # and that candidate is picked again: a singular design, with no file
    # written
    code, out = _run(tmp_path, _a7(section, value))
    assert code == 3
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: step ") and "again" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_degenerate_bq_ladder_is_invalid(tmp_path, capsys):
    config = {
        "kind": "bq", "name": "short",
        "kernel": {"tau": 2.0, "lengthscale": 0.25},
        "target": {"name": "layered_tau2"},
        "ladder": [8, 16, 32], "burn_in": 1, "grid_resolution": 512,
    }
    code, out = _run(tmp_path, config)
    assert code == 1
    assert capsys.readouterr().out.startswith("[INVALID] short:")
    report = json.loads((out / "short_report.json").read_text())
    assert report["verdict"] == "invalid"
    assert report["invalid_reason"] == "need at least 3 ladder points after burn-in"


def test_violated_holder_chain_is_invalid(tmp_path, capsys, monkeypatch):
    # a zero L1 misfit makes every rung's Hoelder bound 1e-12, below its error
    monkeypatch.setattr(gprates.experiments, "lq_norm", lambda *args: 0.0)
    config = dict(SMALL_RATES, kind="bq", name="chain")
    code, out = _run(tmp_path, config)
    assert code == 1
    assert capsys.readouterr().out.startswith("[INVALID] chain:")
    report = json.loads((out / "chain_report.json").read_text())
    assert report["verdict"] == "invalid"
    assert report["invalid_reason"].startswith("Hoelder chain violated")
    assert report["extras"]["holder_chain_ok"] is False
    assert report["extras"]["holder_margin"] < 0


@pytest.mark.parametrize("kind", ["rates", "bq"])
def test_one_point_rung_is_invalid(tmp_path, capsys, kind):
    # a one-point rung has no separation radius, so no mesh-ratio trend and no theory
    code, out = _run(tmp_path, dict(SMALL_RATES, kind=kind, ladder=[1, 4, 16, 64]))
    assert code == 1
    assert capsys.readouterr().out.startswith("[INVALID] small:")
    report = json.loads((out / "small_report.json").read_text())
    assert report["verdict"] == "invalid"
    assert "not finite" in report["invalid_reason"]


def test_single_design_size_ladder_is_invalid(tmp_path, capsys):
    # every rung of this 2-d grid ladder rounds to a 4 x 4 grid: no slope to fit
    config = {
        "kind": "rates", "name": "same_n",
        "kernel": {"tau": 2.0, "lengthscale": 0.25, "dim": 2},
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "target": {"expansion": {"tau": 2.0, "seed": 1}},
        "ladder": [16, 17, 18, 19], "grid_resolution": 32,
    }
    code, out = _run(tmp_path, config)
    assert code == 1
    assert capsys.readouterr().out.startswith("[INVALID] same_n:")
    report = json.loads((out / "same_n_report.json").read_text())
    assert report["verdict"] == "invalid"
    assert report["invalid_reason"].startswith("every ladder point after burn-in")
    assert math.isnan(report["fitted"]) and math.isnan(report["extras"]["rho_trend"])
    # no trend was measured, so the note does not claim the mesh ratio grows
    assert report["extras"]["notes"] == [
        "mesh-ratio trend could not be measured (slope nan); no prediction"]


# ---------------------------------------------------------------------------
# the CLI contract on mutated configs
# ---------------------------------------------------------------------------

ex = gprates.experiments
UNIT_DOMAIN = {"lower": [0.0], "upper": [1.0]}
# one valid config of each kind, every section it reads set, each run in milliseconds
VALID_CONFIGS = {
    "rates": dict(SMALL_RATES, ladder=[8, 16, 32], grid_resolution=128, replicates=2,
                  domain=UNIT_DOMAIN, design={"kind": "grid"},
                  noise={"kind": "gaussian", "sigma": 0.1}, nugget={"kind": "fixed", "sigma": 0.1},
                  mean={"kind": "constant", "value": 0.0}),
    "bq": dict(SMALL_RATES, kind="bq", ladder=[8, 16, 32], grid_resolution=128,
               domain=UNIT_DOMAIN, design={"kind": "random"}, noise={"kind": "none"},
               nugget={"kind": "zero"}, mean={"kind": "constant"}),
    "bo": dict(SMALL_BO, domain=UNIT_DOMAIN, design={"kind": "grid", "candidate_resolution": 32},
               bo={"gamma": 0.3, "budgets": [4, 8]}),
    "design": dict(SMALL_DESIGN, domain=UNIT_DOMAIN, kernel={"tau": 2.0, "lengthscale": 0.25},
                   design={"kind": "p_greedy", "candidate_resolution": 64}),
    "interpolate": dict(SMALL_FIT, n=16, grid_resolution=64, domain=UNIT_DOMAIN,
                        design={"kind": "grid"}, noise={"kind": "none"}, nugget={"kind": "zero"},
                        mean={"kind": "polynomial", "coeffs": [0.0, 0.5, 0.0]}),
    "regress": dict(SMALL_REGRESS, n=16, grid_resolution=64, domain=UNIT_DOMAIN,
                    design={"kind": "random"}, mean={"kind": "constant"}),
}

# Value classes.  A size field (read by ``_size``) takes a small valid size,
# a value the parser rejects (every number of NUMBERS), or 2**62, whose first
# allocation fails at once (32 EiB of doubles).  The loops over a size
# (replicates, budgets, n_centers) allocate their arrays first, and a budget
# past the candidates is rejected, so no value starts a long loop or a large
# allocation that could succeed.  A list is replaced by one of at most one
# entry, or by a ladder of three, so the domain stays 1-d and a ladder entry
# is the size of one grid axis.
NUMBERS = [0, -3, -0.5, math.nan, math.inf, -math.inf, 5e-324, 1e300, 2.5, 10**19 + 7]
SIZES = [1, 2, 3, 64, 2**62]
WRONG_TYPES = ["bogus", True, None, [], {}, [1.0]]
LADDER = functools.partial(ex._list, read=ex._size)
# the top-level keys every kind reads, besides those of ``_KEYS``
COMMON_KEYS = {"kind", "name", "seed", "domain", "design"}
# the reader of each top-level key that is no section
TOP_LEVEL = {"kind": ex._str, "name": ex._str, "seed": ex._int, "ladder": LADDER,
             "replicates": ex._size, "burn_in": ex._int, "q": ex._float, "tolerance": ex._float,
             "grid_resolution": ex._size, "n": ex._size, "density": ex._str}
# the target, which _parse_target reads: a name or an expansion
TARGET = {None: ({"name": ex._str}, {"scale": ex._float, "expansion": "target.expansion"})}
# a valid value by the key's name, else by its reader
VALID_VALUES = {"tau": 2.0, "df": 3.0, "lower": [0.0], "upper": [1.0], "budgets": [4, 8],
                "n_centers": 4, "name": "layered_tau2", "schedule": "fixed",
                "ladder": [8, 16, 32], "density": "uniform"}


def _schema(key, kind):
    """The ``_SECTIONS`` entry of top-level ``key`` in a ``kind`` config, or its reader."""
    if key == "target":
        return TARGET
    return ex._SECTIONS.get("bo design" if (key, kind) == ("design", "bo") else key,
                            TOP_LEVEL.get(key))


def _valid_value(key, read):
    """A valid value of ``key``; a section's is empty."""
    if key in VALID_VALUES or not callable(read):
        return VALID_VALUES.get(key, {})
    return {ex._float: 0.5, ex._int: 1, ex._size: 32, ex._floats: [0.0, 1.0, 0.0]}.get(read, 1)


def _scalars(read):
    """The value classes of a scalar read by ``read``."""
    if read is ex._size:
        return SIZES + NUMBERS
    return ["", "bogus"] if read is ex._str else NUMBERS


def _value(data, read):
    """A value for a field read by ``read``, from one of the classes."""
    entry = read.keywords["read"] if isinstance(read, functools.partial) else (
        ex._float if read in (ex._floats, ex._taus) else None)
    values = [*_scalars(read if entry is None else entry), *WRONG_TYPES]
    if entry is not None:
        values += [[data.draw(st.sampled_from(_scalars(entry)))]]
    if read is LADDER:  # an empty list is in WRONG_TYPES
        values += [[16, 16, 16], [32, 8, 16]]
    return copy.deepcopy(data.draw(st.sampled_from(values)))


def _places(raw, kind):
    """Every ``(dict, kinds)`` of the config: the top level, and each section
    with its ``_SECTIONS`` entry (the section's kinds and their keys)."""
    keys = sorted(COMMON_KEYS | ex._KEYS[kind])
    places = [(raw, {None: ({}, {key: _schema(key, kind) for key in keys})})]
    for key, value in raw.items():
        kinds = _schema(key, kind)
        if isinstance(value, dict) and isinstance(kinds, dict):
            places.append((value, kinds))
            if isinstance(value.get("expansion"), dict) and key == "target":
                places.append((value["expansion"], ex._SECTIONS["target.expansion"]))
    return places


def _mutate(data, raw, kind):
    """One mutation of ``raw``, in place: a key dropped, a key this place does
    not read added, a field set to a value of one of the classes, or a
    section's kind changed, each of its required keys set or left out."""
    d, kinds = data.draw(st.sampled_from(_places(raw, kind)))
    fields = {key: read for required, optional in kinds.values()
              for key, read in {**required, **optional}.items()}
    section_kinds = [k for k in kinds if k is not None]
    op = data.draw(st.sampled_from(["drop", "add", "set"] + ["kind"] * bool(section_kinds)))
    if op == "drop" and d:
        del d[data.draw(st.sampled_from(sorted(d)))]
    elif op == "add":
        known = set().union(*ex._KEYS.values()) if d is raw else set(fields)
        key = data.draw(st.sampled_from(sorted(known | {"bogus"})))
        d[key] = copy.deepcopy(_valid_value(key, fields.get(key, _schema(key, kind))))
    elif op == "set":
        key = data.draw(st.sampled_from(sorted(fields)))
        read = fields[key]
        d[key] = (_value(data, read) if callable(read)
                  else copy.deepcopy(data.draw(st.sampled_from(WRONG_TYPES))))
    elif op == "kind":
        new = data.draw(st.sampled_from([*section_kinds, "bogus"]))
        required, optional = kinds.get(new, ({}, {}))
        d.clear()
        d["kind"] = new
        for key, read in {**required, **optional}.items():
            if data.draw(st.booleans()):
                d[key] = copy.deepcopy(_valid_value(key, read))


@pytest.mark.parametrize("kind", sorted(VALID_CONFIGS))
def test_every_kind_has_a_valid_config_to_mutate(tmp_path, kind):
    assert set(VALID_CONFIGS) == set(ex._KEYS)
    assert set(VALID_CONFIGS[kind]) <= COMMON_KEYS | ex._KEYS[kind]
    code, out = _run(tmp_path, VALID_CONFIGS[kind])
    assert code in (0, 1) and list(out.iterdir())


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_mutated_configs_keep_the_cli_contract(data):
    # a bad config exits 2 and writes nothing, a singular design exits 3, a
    # gate or a degenerate ladder exits 1, and no config ends in a traceback
    # (an exception out of main) or a RuntimeWarning (an error under pytest)
    kind = data.draw(st.sampled_from(sorted(VALID_CONFIGS)))
    raw = copy.deepcopy(VALID_CONFIGS[kind])
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(data, raw, kind)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", path, "--out", out, "--seed", "3"])
        assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue(), raw
        assert code != 2 or os.listdir(out) == [], raw


def _fake_acceptance(monkeypatch, *runs):
    """Make each ``run_acceptance`` call write the next of ``runs`` ({name: text})."""
    pending = list(runs)

    def run_acceptance(out_dir, seed, echo=print):
        files = pending.pop(0)
        for name, text in files.items():
            (Path(out_dir) / name).write_text(text)
        return {"all_pass": True}, sorted(files)

    monkeypatch.setattr(gprates.acceptance, "run_acceptance", run_acceptance)


@pytest.mark.parametrize("first, rerun, differing", [
    ({"a_report.json": "1\n", "a_curve.csv": "n\n"},
     {"a_report.json": "1\n", "a_curve.csv": "n\n"}, []),
    ({"a_report.json": "1\n"}, {"a_report.json": "2\n"}, ["a_report.json"]),
    ({"a_report.json": "1\n", "a_curve.csv": "n\n"}, {"a_report.json": "1\n"},
     ["a_curve.csv"]),
    ({"a_report.json": "1\n"}, {"a_report.json": "1\n", "a_curve.csv": "n\n"},
     ["a_curve.csv"]),
], ids=["stray_file_ignored", "differing_byte", "missing_on_rerun", "missing_on_first_run"])
def test_a10_compares_the_files_each_run_wrote(tmp_path, monkeypatch, first, rerun,
                                               differing):
    out = tmp_path / "out"
    out.mkdir()
    (out / "stray.txt").write_text("not written by the suite\n")
    _fake_acceptance(monkeypatch, first, rerun)
    code = main(["accept", "--out", str(out)])
    assert code == (1 if differing else 0)
    det = json.loads((out / "acceptance_determinism.json").read_text())
    assert det == {"ok": not differing, "differing_files": differing}


def test_blas_pin_precedes_numpy():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = os.path.dirname(os.path.dirname(os.path.abspath(gprates.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = (
        "import json, os, sys\n"
        "import gprates.cli\n"
        "numpy_on_import = 'numpy' in sys.modules\n"
        "code = gprates.cli.main(['list'])\n"
        "print(json.dumps([numpy_on_import, code, os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    numpy_on_import, code, openblas = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not numpy_on_import
    assert code == 0
    assert openblas == "1"


def test_importing_the_harnesses_loads_only_scipy_linalg_and_special():
    # each public scipy subpackage loaded adds its import time to every
    # run's set-up; the CLI and the harnesses need scipy.linalg and
    # scipy.special (which load scipy.version), and nothing else: not
    # scipy.stats, nor scipy.fft for a fast path
    src = os.path.dirname(os.path.dirname(os.path.abspath(gprates.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = (
        "import json, sys\n"
        "import gprates.cli, gprates.experiments\n"
        "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules\n"
        "                         if m.startswith('scipy.') and not m.split('.')[1].startswith('_')})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["linalg", "special", "version"]


def test_whole_acceptance_suite_passes(tmp_path):
    # the full `gprates accept`, a10's rerun included, in a fresh interpreter
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    src = os.path.dirname(os.path.dirname(os.path.abspath(gprates.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gprates.cli", "accept", "--seed", "20240601",
         "--out", str(tmp_path / "accept")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    passed = {line.split(":")[0][len("[PASS] "):] for line in proc.stdout.splitlines()
              if line.startswith("[PASS] ")}
    criteria = ["a1_l2", "a1_linf", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10"]
    assert passed >= set(criteria), proc.stdout
    assert "[PASS] a10: rerun with the same seed is byte-identical" in proc.stdout.splitlines()
    # every report's numbers match the benchmark's reference at this seed
    reference = json.loads((Path(__file__).parent.parent / "perfbench" / "reference.json")
                           .read_text())["20240601"]
    expected = {name: numbers for reports in reference.values()
                for name, numbers in reports.items()}
    for name in criteria[:8]:
        report = json.loads((tmp_path / "accept" / f"{name}_report.json").read_text())
        if name == "a7":  # a BO report: its regret slope and (n, regret, sup_error) rows
            fitted = report["regret_slope_reported"]
            rows = [[r["n"], r["regret"], r["sup_error"]] for r in report["runs"]]
        else:
            fitted, rows = report["fitted"], report["rows"]
            # every slope gate's designs are quasi-uniform, and its theorem
            # takes the branch the gate is named for, with no fallback note
            assert report["extras"]["quasi_uniform"] is True, name
            assert report["extras"]["notes"] == [], name
        got = [fitted, *(v for row in rows for v in row)]
        want = [expected[name]["fitted"], *(v for row in expected[name]["rows"] for v in row)]
        assert got == pytest.approx(want, rel=1e-9, abs=0), name
