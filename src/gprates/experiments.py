"""Experiment orchestration: config parsing, runners, and artifact writing.

Configs are flat JSON objects.  ``_KEYS`` names the top-level keys each
experiment kind reads; any other key is rejected, a missing required key is
named, and so is the field of every malformed value.  Every run is
a pure function of the config plus its seed: noise replicates use seeds
derived as ``(seed, replicate)``, and artifacts contain no timestamps, so
identical configs produce byte-identical files.  This module owns the
artifact byte format: ``_csv`` writes every CSV (17 significant digits),
``_json`` every JSON file (sorted keys), the acceptance summary and the
determinism check through :func:`write_json`, all with LF line ends.

A ladder rung is fitted once: its replicates' noise vectors are the columns
of one observation matrix, so the Gram matrix and its Cholesky factor are
built once per rung and shared by every replicate.  Prediction streams the
evaluation grid in row blocks, and each block's cross matrix serves every
replicate.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .bayesopt import BOConfig, run_gamma_F_n
from .designs import (
    UNIT_INTERVAL,
    Domain,
    PointSet,
    fill_distance,
    fill_distance_bound,
    gen_grid,
    gen_p_greedy,
    gen_uniform_random,
    loglog_slope,
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
    fit_empirical_rate,
    theoretical_exponent,
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

# The top-level keys each kind reads, besides kind, name, seed, domain and design.
_KEYS = {
    "design": {"kernel", "ladder"},
    "interpolate": {"kernel", "target", "noise", "nugget", "mean", "n", "grid_resolution"},
    "regress": {"kernel", "target", "noise", "nugget", "mean", "n", "grid_resolution"},
    "rates": {"kernel", "target", "noise", "nugget", "mean", "ladder", "replicates",
              "burn_in", "q", "tolerance", "grid_resolution"},
    "bq": {"kernel", "target", "noise", "nugget", "mean", "ladder", "replicates",
           "burn_in", "tolerance", "grid_resolution", "density"},
    "bo": {"kernel", "target", "bo"},
}


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigurationError(f"missing field {key!r} in {where}")
    return d[key]


def _check_keys(d: dict, allowed: set, where: str):
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(f"unknown field(s) {sorted(unknown)} in {where}")


def _int(value, where: str, low: int | None = None) -> int:
    """``value`` as an int of at least ``low``; a boolean, a non-number or a
    fractional number is rejected."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigurationError(f"{where} must be at least {low}, got {int(value)}")
    return int(value)


def _float(value, where: str) -> float:
    """``value`` as a float; a boolean or a non-number is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")
    return float(value)


def _list(value, where: str, read) -> list:
    """``value`` as a list, each entry read by ``read(entry, where)``."""
    if not isinstance(value, list):
        raise ConfigurationError(f"{where} must be a list, got {value!r}")
    return [read(v, f"{where} entry") for v in value]


def _parse_kernel(d: dict) -> tuple:
    """The KernelSpec of each tau in the schedule, cycled over the ladder
    (a fixed kernel is a 1-tuple)."""
    _check_keys(d, {"tau", "lengthscale", "amplitude", "dim"}, "kernel")
    tau = _require(d, "tau", "kernel")
    taus = (_list(tau, "kernel.tau", _float) if isinstance(tau, list)
            else [_float(tau, "kernel.tau")])
    if not taus:
        raise ConfigurationError("kernel tau schedule must be nonempty")
    lengthscale = _float(d.get("lengthscale", 1.0), "kernel.lengthscale")
    amplitude = _float(d.get("amplitude", 1.0), "kernel.amplitude")
    dim = _int(d.get("dim", 1), "kernel.dim")
    return tuple(KernelSpec(tau=t, lengthscale=lengthscale, amplitude=amplitude, dim=dim)
                 for t in taus)


def _parse_domain(d: dict | None) -> Domain:
    if d is None:
        return UNIT_INTERVAL
    _check_keys(d, {"lower", "upper"}, "domain")
    return Domain(*(_list(_require(d, k, "domain"), f"domain.{k}", _float)
                    for k in ("lower", "upper")))


def _parse_target(d: dict, domain: Domain) -> TargetSpec:
    _check_keys(d, {"name", "scale", "expansion"}, "target")
    scale = _float(d.get("scale", 1.0), "target.scale")
    if "expansion" in d:
        e = d["expansion"]
        _check_keys(e, {"tau", "n_centers", "seed", "lengthscale", "amplitude"}, "target.expansion")
        return random_expansion_target(
            tau_f=_float(_require(e, "tau", "target.expansion"), "target.expansion.tau"),
            domain=domain,
            seed=_int(_require(e, "seed", "target.expansion"), "target.expansion.seed"),
            n_centers=_int(e.get("n_centers", 40), "target.expansion.n_centers"),
            lengthscale=_float(e.get("lengthscale", 0.25), "target.expansion.lengthscale"),
            amplitude=_float(e.get("amplitude", 1.0), "target.expansion.amplitude"),
            scale=scale,
        )
    return named_target(str(_require(d, "name", "target")), domain, scale=scale)


def _section_kind(d: dict, keys: dict, where: str, default: str | None = None) -> str:
    """The ``kind`` of a config section whose other keys must be ones that kind reads.

    ``keys`` maps each known kind to the keys it reads besides ``kind``; a
    section without ``kind`` has ``default``, or names it as missing.
    """
    _check_keys(d, {"kind"}.union(*keys.values()), where)
    kind = str(d.get("kind", default) if default is not None else _require(d, "kind", where))
    if kind not in keys:
        raise ConfigurationError(f"{where}.kind must be one of {tuple(keys)}, got {kind!r}")
    _check_keys(d, {"kind"} | keys[kind], f"{where} of kind {kind!r}")
    return kind


def _parse_noise(d: dict | None, seed: int) -> NoiseModel:
    d = {} if d is None else d
    keys = {"none": set(), "gaussian": {"sigma"},
            "outliers": {"schedule", "k", "alpha", "beta", "magnitude"},
            "student_t": {"df", "scale"}}
    kind = _section_kind(d, keys, "noise", default="none")
    if kind == "none":
        return NoiseModel("none", seed=seed)
    if kind == "gaussian":
        return NoiseModel("gaussian", sigma=_float(_require(d, "sigma", "noise"), "noise.sigma"),
                          seed=seed)
    if kind == "outliers":
        return NoiseModel(
            "outliers",
            schedule=str(d.get("schedule", "fixed")),
            k=_int(d.get("k", 1), "noise.k"),
            alpha=_float(d.get("alpha", 0.5), "noise.alpha"),
            beta=_float(d.get("beta", 0.1), "noise.beta"),
            magnitude=_float(d.get("magnitude", 1.0), "noise.magnitude"),
            seed=seed,
        )
    return NoiseModel(
        "student_t",
        df=_float(_require(d, "df", "noise"), "noise.df"),
        t_scale=_float(d.get("scale", 1.0), "noise.scale"),
        seed=seed,
    )


def _parse_nugget(d: dict | None) -> NuggetPolicy:
    if d is None:
        return NuggetPolicy("zero")
    keys = {"zero": set(), "fixed": {"sigma"}, "adaptive_h": {"exponent", "coeff"}}
    kind = _section_kind(d, keys, "nugget")
    if kind == "zero":
        return NuggetPolicy("zero")
    if kind == "fixed":
        return NuggetPolicy("fixed", sigma=_float(_require(d, "sigma", "nugget"), "nugget.sigma"))
    return NuggetPolicy(
        "adaptive_h",
        exponent=_float(_require(d, "exponent", "nugget"), "nugget.exponent"),
        coeff=_float(d.get("coeff", 1.0), "nugget.coeff"),
    )


def _parse_mean(d: dict | None) -> MeanSpec:
    if d is None:
        return MeanSpec("constant", 0.0)
    kind = _section_kind(d, {"constant": {"value"}, "polynomial": {"coeffs"}}, "mean",
                         default="constant")
    if kind == "constant":
        return MeanSpec("constant", _float(d.get("value", 0.0), "mean.value"))
    return MeanSpec("polynomial",
                    coeffs=tuple(_list(_require(d, "coeffs", "mean"), "mean.coeffs", _float)))


@dataclass
class ExperimentConfig:
    """A parsed config: :func:`config_from_dict` sets every field and holds the defaults."""

    kind: str
    name: str
    seed: int
    domain: Domain
    kernels: tuple  # the KernelSpec of each tau in the schedule; empty for a kernel-free ladder
    target: TargetSpec | None
    noise: NoiseModel
    nugget: NuggetPolicy
    mean: MeanSpec
    design_kind: str
    candidate_resolution: int
    ladder: list
    replicates: int
    burn_in: int
    q: float
    tolerance: float
    grid_resolution: int | None
    density: str
    n_single: int
    bo_gamma: float
    bo_budgets: list

    def kernel_for(self, ladder_index: int) -> KernelSpec:
        return self.kernels[ladder_index % len(self.kernels)]

    @property
    def tau_k_minus(self) -> float:
        return min(k.tau for k in self.kernels)

    @property
    def tau_k_plus(self) -> float:
        return max(k.tau for k in self.kernels)


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
    kind = str(_require(raw, "kind", "config"))
    if kind not in _KEYS:
        raise ConfigurationError(f"unknown experiment kind {kind!r}; known: {tuple(_KEYS)}")
    _check_keys(raw, {"kind", "name", "seed", "domain", "design"} | _KEYS[kind], f"a {kind} config")
    seed = _int(raw.get("seed", 0), "seed", low=0)
    name = raw.get("name", kind)
    if not isinstance(name, str) or not name or os.path.basename(name) != name:
        raise ConfigurationError(f"name must be a plain file name, got {name!r}")
    domain = _parse_domain(raw.get("domain"))

    # only a p_greedy ladder and the bo candidate grid read candidate_resolution
    design = raw.get("design", {})
    design_keys = ({"grid": {"candidate_resolution"}} if kind == "bo" else
                   {"grid": set(), "random": set(), "p_greedy": {"candidate_resolution"}})
    design_kind = _section_kind(design, design_keys, "design", default="grid")
    candidate_resolution = _int(design.get("candidate_resolution", 2048),
                                "design.candidate_resolution", low=1)

    kernels = ()  # only a grid or random design ladder runs without a kernel
    if kind != "design" or design_kind == "p_greedy" or "kernel" in raw:
        kernels = _parse_kernel(_require(raw, "kernel", "config"))
        if kernels[0].dim != domain.dim:
            raise ConfigurationError(
                f"kernel dim {kernels[0].dim} does not match domain dim {domain.dim}")

    noise = _parse_noise(raw.get("noise"), seed)
    nugget = _parse_nugget(raw.get("nugget"))
    if kind == "interpolate" and nugget.kind != "zero":
        raise ConfigurationError("interpolate experiments require a zero nugget")
    if kind == "regress" and nugget.kind == "zero":
        raise ConfigurationError("regress experiments require a fixed or adaptive nugget")
    ladder = _list(raw.get("ladder", [16, 32, 64, 128, 256, 512]), "ladder", _int)
    if not ladder or any(n < 1 for n in ladder):
        raise ConfigurationError("ladder must be a nonempty list of positive sizes")
    replicates = _int(raw.get("replicates", 20 if noise.kind != "none" else 1), "replicates",
                      low=1)
    density = str(raw.get("density", "uniform"))
    density_by_name(density)
    grid_res = raw.get("grid_resolution")
    bo = raw.get("bo", {})
    _check_keys(bo, {"gamma", "budgets"}, "bo")
    bo_budgets = _list(bo.get("budgets", [25, 50, 100, 200]), "bo.budgets", _int)
    if not bo_budgets or any(n < 2 for n in bo_budgets):
        raise ConfigurationError("bo budgets must be a nonempty list of sizes >= 2")

    return ExperimentConfig(
        kind=kind, name=name, seed=seed, domain=domain, kernels=kernels,
        target=(_parse_target(_require(raw, "target", "config"), domain)
                if "target" in _KEYS[kind] else None),
        noise=noise, nugget=nugget, mean=_parse_mean(raw.get("mean")), design_kind=design_kind,
        candidate_resolution=candidate_resolution,
        ladder=ladder, replicates=replicates, burn_in=_int(raw.get("burn_in", 1), "burn_in", low=0),
        q=parse_q(raw.get("q", 2)), tolerance=_float(raw.get("tolerance", 0.4), "tolerance"),
        grid_resolution=None if grid_res is None else _int(grid_res, "grid_resolution", low=1),
        density=density, n_single=_int(raw.get("n", 64), "n"),
        bo_gamma=_float(bo.get("gamma", 0.3), "bo.gamma"), bo_budgets=bo_budgets,
    )


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
    """``(n_exponent, notes)`` of the theorem for the config's likelihood and smoothness."""
    if cfg.kind == "bq":
        if cfg.noise.kind == "none":
            # integration error inherits the full L1 exponent (no norm penalty at q=1)
            return -min(cfg.target.tau_f, cfg.tau_k_minus) / cfg.domain.dim, []
        return -cfg.target.tau_f / (2.0 * cfg.target.tau_f + cfg.domain.dim), []
    params = RateParams(
        tau_f=cfg.target.tau_f,
        tau_k_minus=cfg.tau_k_minus,
        tau_k_plus=cfg.tau_k_plus,
        d=cfg.domain.dim,
        q=cfg.q,
        noise_growth=expected_noise_growth(cfg.noise) if cfg.noise.kind != "none" else None,
        quasi_uniform=quasi_uniform,
        nugget=cfg.nugget,
    )
    # the likelihood is the data's: Gaussian noise at the nugget's sigma
    well_specified = (cfg.noise.kind == "gaussian" and cfg.nugget.kind == "fixed"
                      and abs(cfg.nugget.sigma - cfg.noise.sigma) < 1e-12)
    return theoretical_exponent(params, rho_trend, well_specified)


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


def run_rate_experiment(cfg: ExperimentConfig) -> RateReport:
    """Ladder of designs -> fits -> L^q errors -> fitted slope vs theory."""
    grid = make_grid(cfg.domain, cfg.grid_resolution)
    f_grid = np.asarray(eval_target(cfg.target, grid.points))
    stability = None

    def measure(idx, model):
        nonlocal stability
        misfit = f_grid[:, None] - posterior_mean(model, grid.points)
        errs = [lq_norm(misfit[:, k], cfg.q, grid) for k in range(misfit.shape[1])]
        if idx == len(cfg.ladder) - 1:
            fine = make_grid(cfg.domain, grid.resolution * 2)
            e1 = lq_norm(misfit[:, 0], 2, grid)
            e2 = lq_error(cfg.target, model.replicate(0), 2, fine)
            stability = abs(e2 - e1) / max(e2, 1e-300)
        return errs

    geometry, h_slope, rows = _run_ladder(cfg, measure)
    rho_trend = loglog_slope([r[0] for r in geometry], [r[3] for r in geometry])
    d = cfg.domain.dim
    quasi_uniform = abs(h_slope + 1.0 / d) < 0.2 and rho_trend < 0.1

    theoretical, notes = _theoretical_exponent(cfg, rho_trend, quasi_uniform)
    fitted, stderr, reason = fit_empirical_rate([(n, e) for n, e, _ in rows], cfg.burn_in)
    if not reason and not (math.isfinite(theoretical) and math.isfinite(rho_trend)):
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
    fitted, stderr, reason = fit_empirical_rate([(n, e) for n, e, _ in rows], cfg.burn_in)
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
    runs = [trajectory.result(budget) for budget in cfg.bo_budgets]
    # fewer than three budgets give a NaN slope
    slope, _, _ = fit_empirical_rate([(r["n"], max(r["regret"], 1e-300)) for r in runs])
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


def _expansion_case(rng, tau_high: float, n_high: int):
    """One random case on the unit interval: a kernel, an expansion
    ``f = sum_j alpha_j k(., z_j)`` and a design X.  Returns ``(K, n, alpha)``,
    with ``K`` the Gram matrix of X stacked on the centers Z and ``n = |X|``."""
    spec = KernelSpec(tau=rng.uniform(0.75, tau_high), lengthscale=rng.uniform(0.15, 0.6),
                      amplitude=rng.uniform(0.5, 2.0))
    Z = _jittered_design(rng, int(rng.integers(3, 9)), UNIT_INTERVAL)
    alpha = rng.standard_normal(len(Z))
    X = _jittered_design(rng, int(rng.integers(8, n_high)), UNIT_INTERVAL)
    return gram(spec, PointSet(np.vstack([X.points, Z.points]), UNIT_INTERVAL), 0.0), len(X), alpha


def pythagorean_suite(seed: int = 0, trials: int = 50, max_n: int = 64) -> dict:
    """Norm splitting of the interpolant: ||f-Rf||^2 + ||Rf||^2 = ||f||^2.

    Targets are finite kernel expansions so every norm is an exact
    finite-dimensional quadratic form on the combined center set.
    """
    rng = np.random.default_rng((seed, 81))
    worst = 0.0
    for _ in range(trials):
        K, n, alpha = _expansion_case(rng, 2.0, max_n + 1)
        KXX = K[:n, :n]
        w = np.linalg.solve(KXX, K[:n, n:] @ alpha)
        norm_f2 = float(alpha @ K[n:, n:] @ alpha)
        norm_rf2 = float(w @ KXX @ w)
        coeff = np.concatenate([-w, alpha])
        norm_diff2 = float(coeff @ K @ coeff)
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
        Kall, n, alpha = _expansion_case(rng, 2.5, 48)
        sigma = rng.uniform(0.05, 1.0)
        eps = rng.normal(0.0, rng.uniform(0.01, 0.5), n)
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
        n = int(rng.integers(5, 40))
        X = _jittered_design(rng, n, UNIT_INTERVAL)
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

def _csv(header, rows) -> str:
    """Every CSV artifact: a header line, then one line per row, ints as
    written and every other value with 17 significant digits."""
    lines = [",".join(header)]
    lines += [",".join(str(v) if isinstance(v, int) else format(float(v), ".17g") for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    """Every JSON artifact: sorted keys, two-space indent, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str):
    """Write ``text`` with LF line ends, making the directory if needed."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_json(path: str, payload):
    """Write ``payload`` to ``path`` in the JSON artifact format."""
    _write(path, _json(payload))


def _coords(dim: int) -> list:
    return [f"x{i + 1}" for i in range(dim)]


def run_design_experiment(cfg: ExperimentConfig):
    """Ladder geometry; returns ``(summary, files)``."""
    designs = [_design_for(cfg, n, idx) for idx, n in enumerate(cfg.ladder)]
    geometry, h_slope = quasi_uniformity_trace(designs)
    h_bound = fill_distance_bound(cfg.domain)
    rows = [{"n": n, "h": h, "h_bound": h_bound, "q": q, "rho": rho}
            for n, h, q, rho in geometry]
    summary = {"setting": cfg.name, "design": cfg.design_kind, "metrics": rows,
               "h_slope": h_slope}
    return summary, {"points.csv": _csv(_coords(cfg.domain.dim), designs[-1].points),
                     "metrics.json": _json(summary)}


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
    csv = _csv(_coords(cfg.domain.dim) + ["f", "posterior_mean"],
               ((*x, fv, mv) for x, fv, mv in zip(grid.points, f_vals, mean_vals)))
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
    return summary, {"fit.csv": csv, "summary.json": _json(summary)}


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
        payload = {k: v for k, v in vars(report).items() if k != "invalid"}
        files = {"curve.csv": _csv(["n", "mean_error", "std_error"], report.rows),
                 "report.json": _json(dict(payload, verdict=report.status))}
        return (0 if report.status == "pass" else 1), report.summary_line(), report, files
    if cfg.kind == "bo":
        result = run_bo_experiment(cfg)
        columns = ["f", "threshold", "sd", "acquisition", "rho_so_far"]
        trace = _csv(["step", *_coords(cfg.domain.dim), *columns],
                     ((r["step"], *r["x"], *(r[c] for c in columns))
                      for r in result["runs"][-1]["trace"]))
        slim = dict(result, runs=[{k: v for k, v in r.items() if k != "trace"}
                                  for r in result["runs"]])
        final = slim["runs"][-1]
        ok = final["certificate_ok"] and final["proof_inequality_ok"]
        line = (f"[{'OK' if ok else 'FAIL'}] {cfg.name}: regret({final['n']}) = "
                f"{final['regret']:.3e}, rho {final['rho_selected']:.2f}")
        files = {"trace.csv": trace, "report.json": _json(slim)}
        return (0 if ok else 1), line, slim, files
    raise ConfigurationError(f"unknown kind {cfg.kind!r}")
