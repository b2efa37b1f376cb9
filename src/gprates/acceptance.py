"""The acceptance suite: one preset per gate criterion, run by ``gprates accept``.

Each entry prints a single pass/fail line.  Slope gates compare an OLS
log-log fit against the theoretical exponent at a fixed tolerance; identity
gates check exact finite-dimensional inequalities at tight tolerances.
Every preset fixes its own kernel, target, and ladder so the whole suite is
a pure function of the master seed.
"""

from __future__ import annotations

import os

from .experiments import (
    config_from_dict,
    half_integer_suite,
    noise_growth_suite,
    pythagorean_suite,
    rayleigh_suite,
    regression_bound_suite,
    run_experiment,
    write_json,
)

DEFAULT_SEED = 20240601


def acceptance_configs(seed: int = DEFAULT_SEED) -> dict:
    """Raw config dicts for the slope-style acceptance experiments."""
    ladder_small = [16, 32, 64, 128, 256, 512]
    cfgs = {
        # well-specified noiseless interpolation; theory -2.0 (L2), -1.5 (Linf)
        "a1_l2": {
            "kind": "rates", "name": "a1_l2", "seed": seed,
            "kernel": {"tau": 2.0, "lengthscale": 0.25, "amplitude": 1.0, "dim": 1},
            "target": {"name": "layered_tau2"},
            "design": {"kind": "grid"},
            "ladder": ladder_small, "replicates": 1, "burn_in": 1,
            "q": 2, "tolerance": 0.4, "grid_resolution": 8192,
        },
        "a1_linf": {
            "kind": "rates", "name": "a1_linf", "seed": seed,
            "kernel": {"tau": 2.0, "lengthscale": 0.25, "amplitude": 1.0, "dim": 1},
            "target": {"name": "layered_tau2"},
            "design": {"kind": "grid"},
            "ladder": ladder_small, "replicates": 1, "burn_in": 1,
            "q": "inf", "tolerance": 0.4, "grid_resolution": 8192,
        },
        # rough target under a smoother kernel; theory -1.0
        "a2": {
            "kind": "rates", "name": "a2", "seed": seed,
            "kernel": {"tau": 2.0, "lengthscale": 0.25, "amplitude": 1.0, "dim": 1},
            "target": {"name": "layered_tau1"},
            "design": {"kind": "grid"},
            "ladder": ladder_small, "replicates": 1, "burn_in": 1,
            "q": 2, "tolerance": 0.4, "grid_resolution": 8192,
        },
        # well-specified Gaussian regression at the prescribed smoothness;
        # theory -tau_f/(2 tau_f + d) = -0.41667
        "a3": {
            "kind": "rates", "name": "a3", "seed": seed,
            "kernel": {"tau": 3.0, "lengthscale": 0.25, "amplitude": 1.0, "dim": 1},
            "target": {"name": "layered_tau2p5"},
            "design": {"kind": "grid"},
            "noise": {"kind": "gaussian", "sigma": 0.1},
            "nugget": {"kind": "fixed", "sigma": 0.1},
            "ladder": [32, 64, 128, 256, 512, 1024, 2048],
            "replicates": 20, "burn_in": 1,
            "q": 2, "tolerance": 0.2, "grid_resolution": 4096,
        },
        # fixed outliers under a Gaussian likelihood, constant nugget;
        # theory -1/2.  Small prior amplitude and a large target make the
        # nugget-bias term (the -1/2 channel) dominate at desk scale.
        "a4": {
            "kind": "rates", "name": "a4", "seed": seed,
            "kernel": {"tau": 2.0, "lengthscale": 0.3, "amplitude": 0.04, "dim": 1},
            "target": {"name": "layered_tau2", "scale": 4.0},
            "design": {"kind": "grid"},
            "noise": {"kind": "outliers", "schedule": "fixed", "k": 3, "magnitude": 1.0},
            "nugget": {"kind": "fixed", "sigma": 0.1},
            "ladder": ladder_small, "replicates": 20, "burn_in": 1,
            "q": 2, "tolerance": 0.2, "grid_resolution": 4096,
        },
        # adaptive nugget sigma_n = h^{tau - d/2} under misspecified
        # smoothness; theory -1/2
        "a5": {
            "kind": "rates", "name": "a5", "seed": seed,
            "kernel": {"tau": 2.0, "lengthscale": 0.25, "amplitude": 1.0, "dim": 1},
            "target": {"name": "layered_tau1"},
            "design": {"kind": "grid"},
            "noise": {"kind": "outliers", "schedule": "fixed", "k": 3, "magnitude": 1.0},
            "nugget": {"kind": "adaptive_h", "exponent": 1.5, "coeff": 1.0},
            "ladder": ladder_small, "replicates": 20, "burn_in": 1,
            "q": 2, "tolerance": 0.2, "grid_resolution": 4096,
        },
        # noiseless quadrature; theory -2.0 plus the Hoelder chain
        "a6": {
            "kind": "bq", "name": "a6", "seed": seed,
            "kernel": {"tau": 2.0, "lengthscale": 0.25, "amplitude": 1.0, "dim": 1},
            "target": {"name": "layered_tau2"},
            "design": {"kind": "grid"},
            "density": "uniform",
            "ladder": ladder_small, "replicates": 1, "burn_in": 1,
            "tolerance": 0.5, "grid_resolution": 8192,
        },
        # stabilized optimization
        "a7": {
            "kind": "bo", "name": "a7", "seed": seed,
            "kernel": {"tau": 2.5, "lengthscale": 0.15, "amplitude": 1.0, "dim": 1},
            "target": {"name": "peaks3"},
            "design": {"kind": "grid", "candidate_resolution": 4096},
            "bo": {"gamma": 0.3, "budgets": [25, 50, 100, 200]},
        },
    }
    return cfgs


def _check_a7(result: dict) -> tuple[bool, str]:
    runs = result["runs"]
    by_n = {r["n"]: r for r in runs}
    cert = all(r["certificate_ok"] for r in runs)
    rho_ok = all(r["rho_selected"] <= 8.0 for r in runs)
    regret_drop = by_n[200]["regret"] < by_n[25]["regret"]
    regret_small = by_n[200]["regret"] <= 1e-3
    proof = all(r["proof_inequality_ok"] for r in runs)
    ok = cert and rho_ok and regret_drop and regret_small and proof
    detail = (
        f"certificate {'ok' if cert else 'VIOLATED'}, "
        f"max rho {max(r['rho_selected'] for r in runs):.2f} (cap 8), "
        f"regret(200) {by_n[200]['regret']:.2e} vs regret(25) {by_n[25]['regret']:.2e}, "
        f"proof inequality {'ok' if proof else 'VIOLATED'}"
    )
    return ok, detail


def run_acceptance(out_dir: str, seed: int = DEFAULT_SEED, echo=print) -> tuple[dict, list]:
    """Run every gate and write its artifacts into ``out_dir``.

    Every preset is parsed before any gate runs, so a bad seed raises
    :class:`ConfigurationError` with nothing written.  Returns ``(summary,
    written)``: the summary is ``{"seed", "criteria": {criterion: {"ok":
    bool, ...}}, "all_pass"}``, and ``written`` lists the files written,
    relative to ``out_dir``.
    """
    cfgs = {name: config_from_dict(raw) for name, raw in acceptance_configs(seed).items()}
    os.makedirs(out_dir, exist_ok=True)
    results: dict = {}
    written: list[str] = []

    def record(name: str, ok: bool, detail: str, payload=None):
        results[name] = {"ok": bool(ok), "detail": detail}
        if payload is not None:
            results[name]["data"] = payload
        echo(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    for name in ("a1_l2", "a1_linf", "a2", "a3", "a4", "a5", "a6"):
        code, _, rep, files = run_experiment(cfgs[name], out_dir)
        written += files
        detail = f"fitted {rep.fitted:+.4f} vs theory {rep.theoretical:+.4f} tol {rep.tolerance:.2f}"
        if rep.invalid:
            detail += f", invalid: {rep.invalid_reason}"
        record(name, code == 0, detail)

    _, _, bo_rep, files = run_experiment(cfgs["a7"], out_dir)
    written += files
    record("a7", *_check_a7(bo_rep))

    pyth = pythagorean_suite(seed)
    lem = regression_bound_suite(seed)
    ray = rayleigh_suite(seed)
    half = half_integer_suite()
    a8_ok = pyth["ok"] and lem["ok"] and ray["ok"] and half["ok"]
    record(
        "a8",
        a8_ok,
        f"pythagorean rel {pyth['worst_rel_error']:.2e} (tol 1e-6), "
        f"ridge bounds viol {lem['worst_violation']:.2e} (tol 1e-8), "
        f"rayleigh viol {ray['worst_violation']:.2e} (tol 1e-8), "
        f"half-integer rel {half['worst_rel_error']:.2e} (tol 1e-9)",
        payload={"pythagorean": pyth, "ridge_bounds": lem, "rayleigh": ray,
                 "half_integer": half},
    )

    growth = noise_growth_suite(seed)
    detail = ", ".join(
        f"{k} {v['fitted']:+.3f} (exp {v['expected']:+.2f} tol {v['tolerance']})"
        for k, v in growth["cases"].items()
    )
    record("a9", growth["ok"], detail, payload=growth)

    summary = {"seed": seed, "criteria": results,
               "all_pass": all(v["ok"] for v in results.values())}
    write_json(os.path.join(out_dir, "acceptance_summary.json"), summary)
    return summary, sorted(written + ["acceptance_summary.json"])
