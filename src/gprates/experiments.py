"""Experiment orchestration: config parsing, runners, and artifact writing.

Configs are flat JSON objects validated against explicit field whitelists
(unknown keys are rejected, missing required keys are named).  Every run is
a pure function of the config plus its seed: noise replicates use seeds
derived as ``(seed, replicate)``, artifact floats are written with 17
significant digits, and artifacts contain no timestamps, so identical
configs produce byte-identical files.

A ladder rung is fitted once: its replicates' noise vectors are the columns
of one observation matrix, so the Gram matrix, its Cholesky factor and the
evaluation-grid cross matrix are built once per rung and shared by every
replicate.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bayesopt import BOConfig, run_gamma_F_n
from .designs import (
    Domain,
    PointSet,
    fill_distance,
    fill_distance_bound,
    gen_grid,
    gen_p_greedy,
    gen_uniform_random,
    pointset_to_csv,
    quasi_uniformity_trace,
)
from .errors import ConfigurationError
from .fitting import (
    MeanSpec,
    fit,
    noise_interpolant_norm,
    posterior_mean,
)
from .kernels import KernelSpec, gram, matern_of_r, min_eigenvalue
from .norms import integrate, lq_error, lq_norm, make_grid, parse_q, residual_norm
from .quadrature import density_by_name
from .rates import (
    NuggetPolicy,
    RateParams,
    RateReport,
    exponent_gaussian_regression,
    exponent_misspec_gaussian,
    exponent_misspec_interpolation,
    fit_empirical_rate,
    n_exponent_interpolation,
)
from .targets import (
    NoiseModel,
    TargetSpec,
    draw_noise,
    eval_target,
    expected_noise_growth,
    named_target,
    random_expansion_target,
)

GRID_STABILITY_TOLERANCE = 0.05
DEFAULT_LADDER = [16, 32, 64, 128, 256, 512]

_KINDS = ("design", "interpolate", "regress", "rates", "bq", "bo")


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigurationError(f"missing field {key!r} in {where}")
    return d[key]


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(f"unknown field(s) {sorted(unknown)} in {where}")


def _parse_kernel(d: dict) -> tuple:
    """Returns (taus, lengthscale, amplitude, dim): taus is a tuple cycled
    over the ladder (a fixed kernel is a 1-tuple)."""
    _check_keys(d, {"tau", "lengthscale", "amplitude", "dim"}, "kernel")
    tau = _require(d, "tau", "kernel")
    taus = tuple(float(t) for t in (tau if isinstance(tau, (list, tuple)) else [tau]))
    if not taus:
        raise ConfigurationError("kernel tau schedule must be nonempty")
    return (
        taus,
        float(d.get("lengthscale", 1.0)),
        float(d.get("amplitude", 1.0)),
        int(d.get("dim", 1)),
    )


def _parse_domain(d: dict | None) -> Domain:
    if d is None:
        return Domain((0.0,), (1.0,))
    _check_keys(d, {"lower", "upper"}, "domain")
    return Domain(tuple(_require(d, "lower", "domain")), tuple(_require(d, "upper", "domain")))


def _parse_target(d: dict, domain: Domain) -> TargetSpec:
    _check_keys(d, {"name", "scale", "expansion"}, "target")
    scale = float(d.get("scale", 1.0))
    if "expansion" in d:
        e = d["expansion"]
        _check_keys(e, {"tau", "n_centers", "seed", "lengthscale", "amplitude"}, "target.expansion")
        return random_expansion_target(
            tau_f=float(_require(e, "tau", "target.expansion")),
            domain=domain,
            seed=int(_require(e, "seed", "target.expansion")),
            n_centers=int(e.get("n_centers", 40)),
            lengthscale=float(e.get("lengthscale", 0.25)),
            amplitude=float(e.get("amplitude", 1.0)),
            scale=scale,
        )
    return named_target(str(_require(d, "name", "target")), domain, scale=scale)


def _parse_noise(d: dict | None, seed: int) -> NoiseModel:
    if d is None or d.get("kind", "none") == "none":
        return NoiseModel("none", seed=seed)
    allowed = {"kind", "sigma", "schedule", "k", "alpha", "beta", "magnitude", "df", "scale"}
    _check_keys(d, allowed, "noise")
    kind = d["kind"]
    if kind == "gaussian":
        return NoiseModel("gaussian", sigma=float(_require(d, "sigma", "noise")), seed=seed)
    if kind == "outliers":
        return NoiseModel(
            "outliers",
            schedule=str(d.get("schedule", "fixed")),
            k=int(d.get("k", 1)),
            alpha=float(d.get("alpha", 0.5)),
            beta=float(d.get("beta", 0.1)),
            magnitude=float(d.get("magnitude", 1.0)),
            seed=seed,
        )
    if kind == "student_t":
        return NoiseModel(
            "student_t",
            df=float(_require(d, "df", "noise")),
            t_scale=float(d.get("scale", 1.0)),
            seed=seed,
        )
    raise ConfigurationError(f"unknown noise kind {kind!r}")


def _parse_nugget(d: dict | None) -> NuggetPolicy:
    if d is None:
        return NuggetPolicy("zero")
    _check_keys(d, {"kind", "sigma", "exponent", "coeff"}, "nugget")
    kind = str(_require(d, "kind", "nugget"))
    if kind == "zero":
        return NuggetPolicy("zero")
    if kind == "fixed":
        return NuggetPolicy("fixed", sigma=float(_require(d, "sigma", "nugget")))
    if kind == "adaptive_h":
        return NuggetPolicy(
            "adaptive_h",
            exponent=float(_require(d, "exponent", "nugget")),
            coeff=float(d.get("coeff", 1.0)),
        )
    raise ConfigurationError(f"unknown nugget kind {kind!r}")


def _parse_mean(d: dict | None) -> MeanSpec:
    if d is None:
        return MeanSpec("constant", 0.0)
    _check_keys(d, {"kind", "value", "coeffs"}, "mean")
    kind = str(d.get("kind", "constant"))
    if kind == "constant":
        return MeanSpec("constant", float(d.get("value", 0.0)))
    if kind == "polynomial":
        return MeanSpec("polynomial", coeffs=tuple(float(c) for c in _require(d, "coeffs", "mean")))
    raise ConfigurationError(f"unknown mean kind {kind!r} (configs support constant/polynomial)")


@dataclass
class ExperimentConfig:
    kind: str
    name: str
    seed: int
    domain: Domain
    kernel_taus: tuple = (2.0,)
    lengthscale: float = 1.0
    amplitude: float = 1.0
    dim: int = 1
    target: TargetSpec | None = None
    noise: NoiseModel | None = None
    nugget: NuggetPolicy = field(default_factory=NuggetPolicy)
    mean: MeanSpec = field(default_factory=lambda: MeanSpec("constant", 0.0))
    design_kind: str = "grid"
    candidate_resolution: int = 2048
    ladder: list = field(default_factory=lambda: list(DEFAULT_LADDER))
    replicates: int = 1
    burn_in: int = 1
    q: float = 2.0
    tolerance: float = 0.4
    grid_resolution: int | None = None
    density: str = "uniform"
    n_single: int = 64
    bo_gamma: float = 0.3
    bo_budgets: list = field(default_factory=lambda: [25, 50, 100, 200])

    def kernel_for(self, ladder_index: int) -> KernelSpec:
        tau = self.kernel_taus[ladder_index % len(self.kernel_taus)]
        return KernelSpec(
            tau=tau, lengthscale=self.lengthscale, amplitude=self.amplitude, dim=self.dim
        )

    @property
    def tau_k_minus(self) -> float:
        return min(self.kernel_taus)

    @property
    def tau_k_plus(self) -> float:
        return max(self.kernel_taus)


_TOP_KEYS = {
    "kind", "name", "seed", "domain", "kernel", "target", "noise", "nugget",
    "mean", "design", "ladder", "replicates", "burn_in", "q", "tolerance",
    "grid_resolution", "density", "n", "bo",
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse and validate a raw config; any malformed value raises ConfigurationError."""
    try:
        return _parse_config(raw)
    except ConfigurationError:
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigurationError(f"malformed config value: {exc}") from exc


def _parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config")
    kind = str(_require(raw, "kind", "config"))
    if kind not in _KINDS:
        raise ConfigurationError(f"unknown experiment kind {kind!r}; known: {_KINDS}")
    seed = int(raw.get("seed", 0))
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    domain = _parse_domain(raw.get("domain"))
    cfg = ExperimentConfig(kind=kind, name=str(raw.get("name", kind)), seed=seed, domain=domain)

    design = raw.get("design", {"kind": "grid"})
    _check_keys(design, {"kind", "candidate_resolution"}, "design")
    cfg.design_kind = str(design.get("kind", "grid"))
    if cfg.design_kind not in ("grid", "random", "p_greedy"):
        raise ConfigurationError(f"unknown design kind {cfg.design_kind!r}")
    cfg.candidate_resolution = int(design.get("candidate_resolution", 2048))

    if kind != "design" or "kernel" in raw:
        kernel_raw = raw.get("kernel")
        if kernel_raw is None and kind in ("interpolate", "regress", "rates", "bq", "bo"):
            raise ConfigurationError("missing field 'kernel' in config")
        if kernel_raw is not None:
            cfg.kernel_taus, cfg.lengthscale, cfg.amplitude, cfg.dim = _parse_kernel(kernel_raw)
            # constructing each spec of the schedule validates tau > d/2 etc.
            for idx in range(len(cfg.kernel_taus)):
                cfg.kernel_for(idx)
    if cfg.dim != domain.dim:
        raise ConfigurationError(
            f"kernel dim {cfg.dim} does not match domain dim {domain.dim}"
        )

    if kind in ("interpolate", "regress", "rates", "bq", "bo"):
        cfg.target = _parse_target(_require(raw, "target", "config"), domain)
    cfg.noise = _parse_noise(raw.get("noise"), seed)
    cfg.nugget = _parse_nugget(raw.get("nugget"))
    cfg.mean = _parse_mean(raw.get("mean"))
    cfg.ladder = [int(n) for n in raw.get("ladder", DEFAULT_LADDER)]
    if not cfg.ladder or any(n < 1 for n in cfg.ladder):
        raise ConfigurationError("ladder must be a nonempty list of positive sizes")
    default_reps = 20 if (cfg.noise and cfg.noise.kind != "none") else 1
    cfg.replicates = int(raw.get("replicates", default_reps))
    if cfg.replicates < 1:
        raise ConfigurationError("replicates must be a positive integer")
    cfg.burn_in = int(raw.get("burn_in", 1))
    cfg.q = parse_q(raw.get("q", 2))
    cfg.tolerance = float(raw.get("tolerance", 0.4))
    cfg.grid_resolution = raw.get("grid_resolution")
    if cfg.grid_resolution is not None:
        cfg.grid_resolution = int(cfg.grid_resolution)
    cfg.density = str(raw.get("density", "uniform"))
    density_by_name(cfg.density)
    cfg.n_single = int(raw.get("n", 64))

    if kind == "interpolate" and cfg.nugget.kind != "zero":
        raise ConfigurationError("interpolate experiments require a zero nugget")
    if kind == "regress" and cfg.nugget.kind == "zero":
        raise ConfigurationError("regress experiments require a fixed or adaptive nugget")

    bo = raw.get("bo")
    if kind == "bo":
        bo = bo or {}
        _check_keys(bo, {"gamma", "budgets"}, "bo")
        cfg.bo_gamma = float(bo.get("gamma", 0.3))
        cfg.bo_budgets = [int(v) for v in bo.get("budgets", [25, 50, 100, 200])]
        if not cfg.bo_budgets or any(n < 2 for n in cfg.bo_budgets):
            raise ConfigurationError("bo budgets must be a nonempty list of sizes >= 2")
    elif bo is not None:
        raise ConfigurationError("'bo' section is only valid for kind = 'bo'")
    return cfg


# ---------------------------------------------------------------------------
# designs for a ladder
# ---------------------------------------------------------------------------

def _design_for(cfg: ExperimentConfig, n: int, ladder_index: int) -> PointSet:
    if cfg.design_kind == "grid":
        per_dim = max(1, round(n ** (1.0 / cfg.domain.dim)))
        return gen_grid(per_dim, cfg.domain)
    if cfg.design_kind == "random":
        return gen_uniform_random(n, cfg.domain, seed=cfg.seed + 7919 * ladder_index)
    candidates = gen_grid(cfg.candidate_resolution, cfg.domain)
    return gen_p_greedy(n, cfg.kernel_for(ladder_index), candidates)


# ---------------------------------------------------------------------------
# the rate harness
# ---------------------------------------------------------------------------

def _theoretical_exponent(cfg: ExperimentConfig, rho_trend: float, quasi_uniform: bool):
    """Pick the matching theorem and return (n_exponent, notes)."""
    if cfg.kind == "bq":
        if cfg.noise.kind == "none":
            # integration error inherits the full L1 exponent (no norm penalty at q=1)
            return -min(cfg.target.tau_f, cfg.tau_k_minus) / cfg.domain.dim, []
        return -cfg.target.tau_f / (2.0 * cfg.target.tau_f + cfg.domain.dim), []
    growth = expected_noise_growth(cfg.noise) if cfg.noise.kind != "none" else None
    params = RateParams(
        tau_f=cfg.target.tau_f,
        tau_k_minus=cfg.tau_k_minus,
        tau_k_plus=cfg.tau_k_plus,
        d=cfg.domain.dim,
        q=cfg.q,
        noise_growth=growth,
        design="quasi_uniform" if quasi_uniform else "arbitrary",
        nugget=cfg.nugget,
    )
    notes = []
    if cfg.nugget.kind == "zero":
        if growth is None:
            n_exp = n_exponent_interpolation(params, rho_trend=0.0 if quasi_uniform else rho_trend)
            if not quasi_uniform:
                notes.append(f"mesh ratio grows (slope {rho_trend:.3f}); prediction inflated")
        else:
            n_exp, terms = exponent_misspec_interpolation(params)
            notes.extend(terms.notes)
    else:
        well_specified_gaussian = (
            cfg.noise.kind == "gaussian"
            and cfg.nugget.kind == "fixed"
            and abs(cfg.nugget.sigma - cfg.noise.sigma) < 1e-12
        )
        if well_specified_gaussian:
            n_exp, terms = exponent_gaussian_regression(params)
            notes.extend(terms.notes)
        else:
            n_exp, terms = exponent_misspec_gaussian(params)
            notes.extend(terms.notes)
    return n_exp, notes


def _run_ladder(cfg: ExperimentConfig, measure):
    """Walk the ladder: its designs and their geometry, then per rung one fit.

    Column k of a rung's observations is ``f(X) + eps_k``, with ``eps_k``
    drawn from the seed ``(seed, k)``, so one Cholesky factor serves every
    replicate and each column's fit is bitwise the one-replicate fit.
    ``measure(ladder_index, model)`` returns the errors of the model's
    columns, one per replicate.  Returns ``(geometry, h_slope, rows)``: the
    ``(n, h, q, rho)`` rows and h slope of :func:`quasi_uniformity_trace`,
    and ``(n, mean_error, std_error)`` per rung.
    """
    designs = [_design_for(cfg, n, idx) for idx, n in enumerate(cfg.ladder)]
    geometry, h_slope = quasi_uniformity_trace(designs)
    rows = []
    for idx, (X, (_, h, _, _)) in enumerate(zip(designs, geometry)):
        lam = cfg.nugget.sigma_n(h) ** 2
        fX = np.asarray(eval_target(cfg.target, X.points), dtype=float).reshape(-1)
        eps = np.column_stack(
            [draw_noise(cfg.noise, len(X), replicate=rep) for rep in range(cfg.replicates)]
        )
        errs = measure(idx, fit(cfg.kernel_for(idx), cfg.mean, X, fX[:, None] + eps, lam))
        rows.append((len(X), float(np.mean(errs)), float(np.std(errs))))
    return geometry, h_slope, rows


def _fit_slope(rows, burn_in: int):
    """``(fitted, stderr, invalid_reason)``: a degenerate table is INVALID, not an error."""
    try:
        fitted, stderr = fit_empirical_rate([(n, e) for n, e, _ in rows], burn_in)
    except ConfigurationError as exc:
        return float("nan"), float("nan"), str(exc)
    return fitted, stderr, ""


def run_rate_experiment(cfg: ExperimentConfig) -> RateReport:
    """Ladder of designs -> fits -> L^q errors -> fitted slope vs theory."""
    if cfg.target is None:
        raise ConfigurationError("rate experiments need a target")
    grid = make_grid(cfg.domain, cfg.grid_resolution)
    f_grid = np.asarray(eval_target(cfg.target, grid.points))
    stability = None

    def measure(idx, model):
        nonlocal stability
        # posterior_mean frees the rung's grid cross matrix on return, before
        # the larger fine-grid one is built below
        misfit = f_grid[:, None] - posterior_mean(model, grid.points)
        errs = [lq_norm(misfit[:, k], cfg.q, grid) for k in range(misfit.shape[1])]
        if idx == len(cfg.ladder) - 1:
            fine = make_grid(cfg.domain, grid.resolution * 2)
            e1 = lq_norm(misfit[:, 0], 2, grid)
            e2 = lq_error(cfg.target, model.replicate(0), 2, fine)
            stability = abs(e2 - e1) / max(e2, 1e-300)
        return errs

    geometry, h_slope, rows = _run_ladder(cfg, measure)
    ns = np.array([r[0] for r in geometry], dtype=float)
    rhos = np.array([r[3] for r in geometry], dtype=float)
    rho_trend = float(np.polyfit(np.log(ns), np.log(rhos), 1)[0])
    d = cfg.domain.dim
    quasi_uniform = abs(h_slope + 1.0 / d) < 0.2 and rho_trend < 0.1

    theoretical, notes = _theoretical_exponent(cfg, rho_trend, quasi_uniform)
    fitted, stderr, reason = _fit_slope(rows, cfg.burn_in)
    if not (math.isfinite(theoretical) and math.isfinite(rho_trend)):
        reason = (
            f"theory {theoretical} from mesh-ratio trend {rho_trend} is not finite "
            "(every rung needs two distinct points)"
        )
    if stability is not None and stability > GRID_STABILITY_TOLERANCE:
        reason = f"evaluation grid unresolved: L2 changed {stability:.1%} on refinement"

    report = RateReport(
        setting=cfg.name,
        theoretical=theoretical,
        fitted=fitted,
        stderr=stderr,
        tolerance=cfg.tolerance,
        rows=rows,
        invalid=bool(reason),
        invalid_reason=reason,
        extras={
            "design_trace": [list(r) for r in geometry],
            "h_slope": h_slope,
            "rho_trend": rho_trend,
            "quasi_uniform": quasi_uniform,
            "notes": notes,
            "grid_stability": stability,
            "q": "inf" if math.isinf(cfg.q) else cfg.q,
            "target": cfg.target.name,
            "target_rkhs_norm": cfg.target.rkhs_norm(),
        },
    )
    return report


# ---------------------------------------------------------------------------
# bq / bo harnesses
# ---------------------------------------------------------------------------

def run_bq_experiment(cfg: ExperimentConfig) -> RateReport:
    """Integration-error ladder plus the pointwise Hoelder chain check.

    Each replicate's integration error is at most ``sup p * ||f - m||_L1``.
    Midpoint sums satisfy that exactly, by the triangle inequality, so a
    violated chain marks the harness itself as wrong: the report is INVALID.
    """
    grid = make_grid(cfg.domain, cfg.grid_resolution)
    p = density_by_name(cfg.density)
    p_vals = np.asarray(p(grid.points), dtype=float).reshape(grid.size)
    p_sup = float(p_vals.max())
    f_grid = np.asarray(eval_target(cfg.target, grid.points))
    truth = float(np.sum(grid.weights * f_grid * p_vals))
    margin = float("inf")

    def measure(idx, model):
        nonlocal margin
        means = posterior_mean(model, grid.points)
        errs = []
        for k in range(means.shape[1]):
            err = abs(truth - integrate(means[:, k], p_vals, grid))
            bound = p_sup * lq_norm(f_grid - means[:, k], 1, grid) + 1e-12
            margin = min(margin, bound - err)
            errs.append(err)
        return errs

    _, _, rows = _run_ladder(cfg, measure)
    fitted, stderr, reason = _fit_slope(rows, cfg.burn_in)
    theoretical, _ = _theoretical_exponent(cfg, 0.0, True)
    holder_ok = margin >= 0
    if not holder_ok:
        reason = f"Hoelder chain violated: bound minus error {margin:.3e}"
    return RateReport(
        setting=cfg.name,
        theoretical=theoretical,
        fitted=fitted,
        stderr=stderr,
        tolerance=cfg.tolerance,
        rows=rows,
        invalid=bool(reason),
        invalid_reason=reason,
        extras={"holder_chain_ok": holder_ok, "holder_margin": margin},
    )


def run_bo_experiment(cfg: ExperimentConfig) -> dict:
    candidates = gen_grid(cfg.candidate_resolution, cfg.domain)
    kernel = cfg.kernel_for(0)
    bo_cfg = BOConfig(gamma=cfg.bo_gamma, n=max(cfg.bo_budgets), kernel=kernel,
                      candidates=candidates)
    # every budget is a prefix of the one trajectory to the largest budget
    trajectory = run_gamma_F_n(cfg.target, bo_cfg)
    runs = []
    for budget in cfg.bo_budgets:
        res = trajectory.result(budget)
        # the last trace row measured the same points as ``res.selected``
        rho = res.trace[-1]["rho_so_far"] if res.trace else float("nan")
        runs.append(
            {
                "n": budget,
                "regret": res.regret,
                "regret_candidates": res.regret_candidates,
                "rho_selected": rho,
                "certificate_ok": res.certificate_ok,
                "certificate_slack": res.certificate_slack,
                "sup_error": res.sup_error_final,
                "proof_inequality_ok": bool(
                    res.regret_candidates <= 2.0 * res.sup_error_final + 1e-12
                ),
                "x_final": [float(v) for v in res.x_final],
                "trace": res.trace,
            }
        )
    regrets = [(r["n"], max(r["regret"], 1e-300)) for r in runs]
    slope = float("nan")
    if len(regrets) >= 3:
        try:
            slope, _ = fit_empirical_rate(regrets, burn_in=0)
        except ConfigurationError:
            slope = float("nan")
    return {"setting": cfg.name, "runs": runs, "regret_slope_reported": slope}


# ---------------------------------------------------------------------------
# identity and calibration suites
# ---------------------------------------------------------------------------

def _jittered_design(rng, n: int, domain: Domain) -> PointSet:
    """Random design with guaranteed separation: one point per grid cell."""
    u = rng.uniform(0.2, 0.8, (n, domain.dim))
    idx = np.arange(n).reshape(-1, 1)
    lo = np.array(domain.lower)
    pts = lo + (idx + u) * (domain.widths / n)
    return PointSet(pts, domain)


def pythagorean_suite(seed: int = 0, trials: int = 50, max_n: int = 64) -> dict:
    """Norm splitting of the interpolant: ||f-Rf||^2 + ||Rf||^2 = ||f||^2.

    Targets are finite kernel expansions so every norm is an exact
    finite-dimensional quadratic form on the combined center set.
    """
    rng = np.random.default_rng((seed, 81))
    worst = 0.0
    for _ in range(trials):
        tau = rng.uniform(0.75, 2.0)
        spec = KernelSpec(tau=tau, lengthscale=rng.uniform(0.15, 0.6), amplitude=rng.uniform(0.5, 2.0))
        dom = Domain((0.0,), (1.0,))
        m = int(rng.integers(3, 9))
        Z = _jittered_design(rng, m, dom)
        alpha = rng.standard_normal(m)
        n = int(rng.integers(8, max_n + 1))
        X = _jittered_design(rng, n, dom)
        KZZ = gram(spec, Z, 0.0)
        KXX = gram(spec, X, 0.0)
        KXZ = gram(spec, PointSet(np.vstack([X.points, Z.points]), dom), 0.0)
        fX = KXZ[:n, n:] @ alpha
        w = np.linalg.solve(KXX, fX)
        norm_f2 = float(alpha @ KZZ @ alpha)
        norm_rf2 = float(w @ KXX @ w)
        coeff = np.concatenate([-w, alpha])
        norm_diff2 = float(coeff @ KXZ @ coeff)
        rel = abs(norm_diff2 + norm_rf2 - norm_f2) / max(norm_f2, 1e-300)
        worst = max(worst, rel)
    return {"trials": trials, "worst_rel_error": worst, "tolerance": 1e-6,
            "ok": worst <= 1e-6}


def regression_bound_suite(seed: int = 0, trials: int = 100) -> dict:
    """Ridge solution norms against the variational bounds.

    For f in the RKHS with exactly known norm, sigma > 0 and arbitrary eps:
    the RKHS norm of the ridge fit is at most sqrt(||eps||^2/sigma^2 + ||f||^2)
    and the design residual at most ||eps|| + sqrt(||eps||^2 + sigma^2 ||f||^2).
    """
    rng = np.random.default_rng((seed, 82))
    worst = -float("inf")
    for _ in range(trials):
        tau = rng.uniform(0.75, 2.5)
        spec = KernelSpec(tau=tau, lengthscale=rng.uniform(0.15, 0.6), amplitude=rng.uniform(0.5, 2.0))
        dom = Domain((0.0,), (1.0,))
        m = int(rng.integers(3, 9))
        Z = _jittered_design(rng, m, dom)
        alpha = rng.standard_normal(m)
        n = int(rng.integers(8, 48))
        X = _jittered_design(rng, n, dom)
        sigma = rng.uniform(0.05, 1.0)
        eps = rng.normal(0.0, rng.uniform(0.01, 0.5), n)
        Kall = gram(spec, PointSet(np.vstack([X.points, Z.points]), dom), 0.0)
        KXX = Kall[:n, :n]
        fX = Kall[:n, n:] @ alpha
        w = np.linalg.solve(KXX + sigma**2 * np.eye(n), fX + eps)
        norm_f = float(np.sqrt(max(alpha @ Kall[n:, n:] @ alpha, 0.0)))
        norm_r = float(np.sqrt(max(w @ KXX @ w, 0.0)))
        resid = float(np.linalg.norm(fX - KXX @ w))
        eps2 = float(eps @ eps)
        bound1 = math.sqrt(eps2 / sigma**2 + norm_f**2)
        bound2 = math.sqrt(eps2) + math.sqrt(eps2 + sigma**2 * norm_f**2)
        v1 = (norm_r - bound1) / max(bound1, 1e-300)
        v2 = (resid - bound2) / max(bound2, 1e-300)
        worst = max(worst, v1, v2)
    return {"trials": trials, "worst_violation": worst, "tolerance": 1e-8,
            "ok": worst <= 1e-8}


def rayleigh_suite(seed: int = 0, trials: int = 100) -> dict:
    """Noise-interpolant norm against the eigenvalue bound
    eps' K^{-1} eps <= ||eps||^2 / lambda_min(K)."""
    rng = np.random.default_rng((seed, 83))
    worst = -float("inf")
    for _ in range(trials):
        tau = rng.uniform(0.75, 2.0)
        spec = KernelSpec(tau=tau, lengthscale=rng.uniform(0.15, 0.6), amplitude=rng.uniform(0.5, 2.0))
        dom = Domain((0.0,), (1.0,))
        n = int(rng.integers(5, 40))
        X = _jittered_design(rng, n, dom)
        eps = rng.standard_normal(n)
        lhs = noise_interpolant_norm(spec, X, eps) ** 2
        lam_min = min_eigenvalue(gram(spec, X, 0.0))
        rhs = float(eps @ eps) / max(lam_min, 1e-300)
        worst = max(worst, (lhs - rhs) / max(rhs, 1e-300))
    return {"trials": trials, "worst_violation": worst, "tolerance": 1e-8,
            "ok": worst <= 1e-8}


def half_integer_suite() -> dict:
    """Closed-form Matern paths against the Bessel evaluation."""
    rel = 0.0
    r = np.concatenate([np.logspace(-6, np.log10(20.0), 200), [0.5, 1.0, 2.0]])
    for tau in (1.0, 2.0, 3.0):  # nu = 1/2, 3/2, 5/2 at d = 1
        spec = KernelSpec(tau=tau, lengthscale=1.0, amplitude=1.3)
        fast = matern_of_r(spec, r)
        slow = matern_of_r(spec, r, use_bessel=True)
        rel = max(rel, float(np.max(np.abs(fast - slow) / np.abs(slow))))
    return {"worst_rel_error": rel, "tolerance": 1e-9, "ok": rel <= 1e-9}


def noise_growth_suite(seed: int = 0, n_seeds: int = 50) -> dict:
    """Fitted growth of E||eps||_2 vs the declared exponent per noise model."""
    ns = [32, 64, 128, 256, 512, 1024, 2048]
    cases = [
        ("gaussian", NoiseModel("gaussian", sigma=0.7, seed=seed), 0.10),
        ("outliers_fixed", NoiseModel("outliers", schedule="fixed", k=3, magnitude=1.0, seed=seed), 0.05),
        ("outliers_power", NoiseModel("outliers", schedule="power", alpha=0.5, magnitude=1.0, seed=seed), 0.10),
        ("outliers_fraction", NoiseModel("outliers", schedule="fraction", beta=0.25, magnitude=1.0, seed=seed), 0.10),
    ]
    out = {}
    all_ok = True
    for name, model, tol in cases:
        expected = expected_noise_growth(model)
        means = []
        for n in ns:
            norms = [float(np.linalg.norm(draw_noise(model, n, replicate=r))) for r in range(n_seeds)]
            means.append(float(np.mean(norms)))
        x = np.log(ns)
        y = np.log(means)
        slope = float(np.polyfit(x, y, 1)[0])
        ok = abs(slope - expected) <= tol
        all_ok = all_ok and ok
        out[name] = {"fitted": slope, "expected": expected, "tolerance": tol, "ok": ok}
    return {"cases": out, "ok": all_ok}


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _coord_header(dim: int) -> str:
    return ",".join(f"x{i + 1}" for i in range(dim))


def run_design_experiment(cfg: ExperimentConfig):
    """Ladder geometry; returns ``(summary, files)``."""
    designs = [_design_for(cfg, n, idx) for idx, n in enumerate(cfg.ladder)]
    geometry, h_slope = quasi_uniformity_trace(designs)
    h_bound = fill_distance_bound(cfg.domain)
    rows = [{"n": n, "h": h, "h_bound": h_bound, "q": q,
             "rho": rho if q > 0 else float("inf")} for n, h, q, rho in geometry]
    summary = {"setting": cfg.name, "design": cfg.design_kind, "metrics": rows,
               "h_slope": h_slope}
    return summary, {"points.csv": pointset_to_csv(designs[-1]),
                     "metrics.json": _json_dumps(summary)}


def run_fit_experiment(cfg: ExperimentConfig):
    """Single-design fit diagnostics (kinds: interpolate, regress); returns ``(summary, files)``."""
    X = _design_for(cfg, cfg.n_single, 0)
    h, _ = fill_distance(X)
    kernel = cfg.kernel_for(0)
    lam = cfg.nugget.sigma_n(h) ** 2
    fX = np.asarray(eval_target(cfg.target, X.points), dtype=float).reshape(-1)
    eps = draw_noise(cfg.noise, len(X), replicate=0)
    model = fit(kernel, cfg.mean, X, fX + eps, lam)
    grid = make_grid(cfg.domain, cfg.grid_resolution)
    mean_vals = posterior_mean(model, grid.points)
    f_vals = np.asarray(eval_target(cfg.target, grid.points))
    misfit = f_vals - mean_vals
    norms = {q: lq_norm(misfit, q, grid) for q in (1, 2, "inf")}
    buf = io.StringIO()
    buf.write(f"{_coord_header(cfg.domain.dim)},f,posterior_mean\n")
    for row, fv, mv in zip(grid.points, f_vals, mean_vals):
        buf.write(",".join(_g17(v) for v in row) + f",{_g17(fv)},{_g17(mv)}\n")
    mono = norms[1] <= norms[2] * math.sqrt(cfg.domain.volume) + 1e-12
    summary = {
        "setting": cfg.name,
        "n": len(X),
        "lambda": lam,
        "jitter": model.jitter,
        "h": h,
        "l1": norms[1],
        "l2": norms[2],
        "linf": norms["inf"],
        "norm_monotone_ok": bool(mono and norms[2] <= norms["inf"] * math.sqrt(cfg.domain.volume) + 1e-12),
        "residual_norm": residual_norm(cfg.target, model),
        "target_rkhs_norm": cfg.target.rkhs_norm(),
    }
    return summary, {"fit.csv": buf.getvalue(), "summary.json": _json_dumps(summary)}


def run_experiment(cfg: ExperimentConfig, out_dir: str):
    """Run a parsed config and write its artifacts ``<name>_<suffix>`` into ``out_dir``.

    Returns ``(exit_code, summary_line, report, written)``: ``report`` is the
    in-memory result whose serialization was written (a :class:`RateReport`
    for rates and bq, a dict otherwise), and ``written`` lists the files
    written, relative to ``out_dir``.
    """
    code, line, report, files = _dispatch(cfg)
    written = []
    for suffix, text in files.items():
        written.append(f"{cfg.name}_{suffix}")
        _write(os.path.join(out_dir, written[-1]), text)
    return code, line, report, written


def _dispatch(cfg: ExperimentConfig):
    """``(exit_code, summary_line, report, files)``, with ``files`` mapping suffix to text."""
    if cfg.kind == "design":
        summary, files = run_design_experiment(cfg)
        return 0, f"[OK] {cfg.name}: design artifacts written", summary, files
    if cfg.kind in ("interpolate", "regress"):
        summary, files = run_fit_experiment(cfg)
        line = f"[OK] {cfg.name}: l2 {summary['l2']:.3e} linf {summary['linf']:.3e}"
        return 0, line, summary, files
    if cfg.kind in ("rates", "bq"):
        report = (run_rate_experiment if cfg.kind == "rates" else run_bq_experiment)(cfg)
        files = {"curve.csv": report.to_csv(), "report.json": report.to_json() + "\n"}
        return (0 if report.verdict else 1), report.summary_line(), report, files
    if cfg.kind == "bo":
        result = run_bo_experiment(cfg)
        buf = io.StringIO()
        buf.write(f"step,{_coord_header(cfg.domain.dim)},f,threshold,sd,acquisition,rho_so_far\n")
        for row in result["runs"][-1]["trace"]:
            buf.write(
                f"{row['step']:d},{','.join(_g17(v) for v in row['x'])},{_g17(row['f'])},"
                f"{_g17(row['threshold'])},{_g17(row['sd'])},"
                f"{_g17(row['acquisition'])},{_g17(row['rho_so_far'])}\n"
            )
        slim = dict(result, runs=[{k: v for k, v in r.items() if k != "trace"}
                                  for r in result["runs"]])
        final = slim["runs"][-1]
        ok = final["certificate_ok"] and final["proof_inequality_ok"]
        line = (f"[{'OK' if ok else 'FAIL'}] {cfg.name}: regret({final['n']}) = "
                f"{final['regret']:.3e}, rho {final['rho_selected']:.2f}")
        files = {"trace.csv": buf.getvalue(), "report.json": _json_dumps(slim)}
        return (0 if ok else 1), line, slim, files
    raise ConfigurationError(f"unknown kind {cfg.kind!r}")
