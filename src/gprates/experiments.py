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

The rates and bq harnesses share one ladder driver, ``_run_ladder``, which
returns the ladder's verdict as a :class:`RateReport`: the designs'
quasi-uniformity and mesh-ratio trend, the theorem under them, the fitted
slope, and INVALID when either is undefined.  A harness only measures its
errors per rung, then adds its own INVALID reason and extras to that report.
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
from .norms import integrate, lq_error, lq_norm, make_grid, overflow_safe, parse_q, residual_norm
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
# a ladder's designs are quasi-uniform when |h slope + 1/d| and the mesh-ratio
# trend are below these
QUASI_UNIFORM_H_SLOPE = 0.2
QUASI_UNIFORM_RHO_TREND = 0.1

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


def _size(value, where: str) -> int:
    """``value`` as an int from 1 to below 2**63, past which numpy allocates no array."""
    n = _int(value, where, low=1)
    if n >= 2**63:
        raise ConfigurationError(f"{where} must be below 2**63, got {value!r}")
    return n


def _float(value, where: str, low: float | None = None) -> float:
    """``value`` as a finite float of at least ``low``; a boolean, a non-number,
    an infinity or a NaN (``json.load`` reads ``Infinity`` and ``NaN``) is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")
    if low is not None and not value >= low:  # rejects NaN as well
        raise ConfigurationError(f"{where} must be at least {low:g}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{where} must be finite, got {number!r}")
    return number


def _str(value, where: str) -> str:
    """``value`` as a string; anything else is rejected."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{where} must be a string, got {value!r}")
    return value


def _given(d: dict, where: str, **readers) -> dict:
    """``{key: read(d[key], "<where>.<key>")}`` for each key of ``readers`` that
    ``d`` sets; a key it leaves out is not passed on, so its field keeps the
    one default written on it."""
    return {key: read(d[key], f"{where}.{key}") for key, read in readers.items() if key in d}


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
    shape = _given(d, "kernel", lengthscale=_float, amplitude=_float, dim=_int)
    return tuple(KernelSpec(tau=t, **shape) for t in taus)


def _parse_domain(d: dict | None) -> Domain:
    if d is None:
        return UNIT_INTERVAL
    _check_keys(d, {"lower", "upper"}, "domain")
    return Domain(*(_list(_require(d, k, "domain"), f"domain.{k}", _float)
                    for k in ("lower", "upper")))


def _parse_target(d: dict, domain: Domain) -> TargetSpec:
    _check_keys(d, {"name", "scale", "expansion"}, "target")
    scale_kw = _given(d, "target", scale=_float)
    if "expansion" in d:
        e = d["expansion"]
        _check_keys(e, {"tau", "n_centers", "seed", "lengthscale", "amplitude"}, "target.expansion")
        return random_expansion_target(
            tau_f=_float(_require(e, "tau", "target.expansion"), "target.expansion.tau"),
            domain=domain,
            seed=_int(_require(e, "seed", "target.expansion"), "target.expansion.seed"),
            **_given(e, "target.expansion", n_centers=_size,
                     lengthscale=_float, amplitude=_float),
            **scale_kw,
        )
    return named_target(str(_require(d, "name", "target")), domain, **scale_kw)


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
        return NoiseModel("outliers", seed=seed, **_given(
            d, "noise", schedule=_str, k=_int, alpha=_float, beta=_float, magnitude=_float))
    t_scale = {"t_scale": _float(d["scale"], "noise.scale")} if "scale" in d else {}
    return NoiseModel("student_t", df=_float(_require(d, "df", "noise"), "noise.df"),
                      seed=seed, **t_scale)


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
        **_given(d, "nugget", coeff=_float),
    )


def _parse_mean(d: dict | None) -> MeanSpec:
    if d is None:
        return MeanSpec()
    kind = _section_kind(d, {"constant": {"value"}, "polynomial": {"coeffs"}}, "mean",
                         default="constant")
    if kind == "constant":
        return MeanSpec("constant", **_given(d, "mean", value=_float))
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
    candidate_resolution = _size(design.get("candidate_resolution", 2048),
                                 "design.candidate_resolution")

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
    ladder = _list(raw.get("ladder", [16, 32, 64, 128, 256, 512]), "ladder", _size)
    if not ladder:
        raise ConfigurationError("ladder must be a nonempty list of positive sizes")
    replicates = _size(raw.get("replicates", 20 if noise.kind != "none" else 1), "replicates")
    density = str(raw.get("density", "uniform"))
    density_by_name(density)
    grid_res = raw.get("grid_resolution")
    bo = raw.get("bo", {})
    _check_keys(bo, {"gamma", "budgets"}, "bo")
    bo_budgets = _list(bo.get("budgets", [25, 50, 100, 200]), "bo.budgets", _size)
    if not bo_budgets or any(n < 2 for n in bo_budgets):
        raise ConfigurationError("bo budgets must be a nonempty list of sizes >= 2")

    return ExperimentConfig(
        kind=kind, name=name, seed=seed, domain=domain, kernels=kernels,
        target=(_parse_target(_require(raw, "target", "config"), domain)
                if "target" in _KEYS[kind] else None),
        noise=noise, nugget=nugget, mean=_parse_mean(raw.get("mean")), design_kind=design_kind,
        candidate_resolution=candidate_resolution,
        ladder=ladder, replicates=replicates, burn_in=_int(raw.get("burn_in", 1), "burn_in", low=0),
        q=parse_q(raw.get("q", 2)), tolerance=_float(raw.get("tolerance", 0.4), "tolerance", low=0),
        grid_resolution=None if grid_res is None else _size(grid_res, "grid_resolution"),
        density=density, n_single=_size(raw.get("n", 64), "n"),
        bo_gamma=_float(bo.get("gamma", 0.3), "bo.gamma"), bo_budgets=bo_budgets,
    )


# ---------------------------------------------------------------------------
# designs for a ladder
# ---------------------------------------------------------------------------

def _designs(cfg: ExperimentConfig, ladder: list) -> list:
    """The design of each rung of ``ladder``.

    P-greedy never looks at the target size, so its first n picks are the
    same whatever size it is asked for: each distinct kernel of the ladder
    grows one design to its largest rung, and every rung takes a prefix.
    """
    if cfg.design_kind == "grid":
        return [gen_grid(max(1, round(n ** (1.0 / cfg.domain.dim))), cfg.domain) for n in ladder]
    if cfg.design_kind == "random":
        return [gen_uniform_random(n, cfg.domain, seed=cfg.seed + 7919 * idx)
                for idx, n in enumerate(ladder)]
    candidates = gen_grid(cfg.candidate_resolution, cfg.domain)
    largest = {}
    for idx, n in enumerate(ladder):
        kernel = cfg.kernel_for(idx)
        largest[kernel] = max(n, largest.get(kernel, 0))
    grown = {kernel: gen_p_greedy(n, kernel, candidates).points for kernel, n in largest.items()}
    return [PointSet(grown[cfg.kernel_for(idx)][:n], cfg.domain) for idx, n in enumerate(ladder)]


# ---------------------------------------------------------------------------
# the rate harness
# ---------------------------------------------------------------------------

def _theoretical_exponent(cfg: ExperimentConfig, rho_trend: float, quasi_uniform: bool):
    """``(n_exponent, notes)`` of the theorem for the config's likelihood and smoothness.

    A bq ladder takes the L1 exponent (q = 1), under the same design
    geometry: its integration error is at most ``sup p * ||f - m||_L1``, the
    Hoelder chain the harness checks.
    """
    params = RateParams(
        tau_f=cfg.target.tau_f,
        tau_k_minus=cfg.tau_k_minus,
        tau_k_plus=cfg.tau_k_plus,
        d=cfg.domain.dim,
        q=1.0 if cfg.kind == "bq" else cfg.q,
        noise_growth=expected_noise_growth(cfg.noise) if cfg.noise.kind != "none" else None,
        quasi_uniform=quasi_uniform,
        nugget=cfg.nugget,
    )
    # the likelihood is the data's: Gaussian noise at the nugget's sigma
    well_specified = (cfg.noise.kind == "gaussian" and cfg.nugget.kind == "fixed"
                      and abs(cfg.nugget.sigma - cfg.noise.sigma) < 1e-12)
    return theoretical_exponent(params, rho_trend, well_specified)


def _run_ladder(cfg: ExperimentConfig, measure) -> RateReport:
    """Walk the ladder and return its verdict as a :class:`RateReport`.

    Column k of a rung's observations is ``f(X) + eps_k``, with ``eps_k``
    drawn from the seed ``(seed, k)``, so one Cholesky factor serves every
    replicate and each column's fit is bitwise the one-replicate fit.
    ``measure(ladder_index, model)`` returns the errors of the model's
    columns, one per replicate.  The rows are ``(n, mean_error, std_error)``
    per rung; a spread whose squares overflow is taken scaled by the largest
    error (``norms.overflow_safe``).  The designs are quasi-uniform when
    ``|h_slope + 1/d|`` is below ``QUASI_UNIFORM_H_SLOPE`` and the mesh-ratio
    trend below ``QUASI_UNIFORM_RHO_TREND``; the theorem takes both.  The
    extras hold ``design_trace`` (the ``(n, h, q, rho)`` rows of
    :func:`quasi_uniformity_trace`), ``h_slope``, ``rho_trend``,
    ``quasi_uniform`` and the theorem's ``notes``.
    """
    designs = _designs(cfg, cfg.ladder)
    geometry, h_slope = quasi_uniformity_trace(designs)
    rows = []
    for idx, (X, (_, h, _, _)) in enumerate(zip(designs, geometry)):
        lam = cfg.nugget.lam(h)
        y = np.empty((len(X), cfg.replicates), order="F")  # before any draw; fit solves in it
        for rep in range(cfg.replicates):
            y[:, rep] = draw_noise(cfg.noise, len(X), replicate=rep)
        with np.errstate(over="ignore"):  # fit checks the sum finite
            y += eval_target(cfg.target, X.points)[:, None]  # eps_k + f(X) in place
        errs = measure(idx, fit(cfg.kernel_for(idx), cfg.mean, X, y, lam, overwrite_y=True))
        rows.append((len(X), float(np.mean(errs)), overflow_safe(lambda e: float(np.std(e)), errs)))

    rho_trend = loglog_slope([r[0] for r in geometry], [r[3] for r in geometry])
    quasi_uniform = (abs(h_slope + 1.0 / cfg.domain.dim) < QUASI_UNIFORM_H_SLOPE
                     and rho_trend < QUASI_UNIFORM_RHO_TREND)
    theoretical, notes = _theoretical_exponent(cfg, rho_trend, quasi_uniform)
    fitted, stderr, reason = fit_empirical_rate([(n, e) for n, e, _ in rows], cfg.burn_in)
    if not reason and not (math.isfinite(theoretical) and math.isfinite(rho_trend)):
        reason = (f"theory {theoretical} from mesh-ratio trend {rho_trend} is not finite "
                  "(every rung needs two distinct points)")
    return RateReport(setting=cfg.name, theoretical=theoretical, fitted=fitted, stderr=stderr,
                      tolerance=cfg.tolerance, rows=rows, invalid_reason=reason, extras={
                          "design_trace": [list(r) for r in geometry], "h_slope": h_slope,
                          "rho_trend": rho_trend, "quasi_uniform": quasi_uniform,
                          "notes": notes})


def run_rate_experiment(cfg: ExperimentConfig) -> RateReport:
    """Ladder of designs -> fits -> L^q errors -> fitted slope vs theory."""
    grid = make_grid(cfg.domain, cfg.grid_resolution)
    f_grid = eval_target(cfg.target, grid.points)
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

    report = _run_ladder(cfg, measure)
    if stability is not None and stability > GRID_STABILITY_TOLERANCE:
        report.invalid_reason = f"evaluation grid unresolved: L2 changed {stability:.1%} on refinement"
    report.extras.update(grid_stability=stability, q="inf" if math.isinf(cfg.q) else cfg.q,
                         target=cfg.target.name, target_rkhs_norm=cfg.target.rkhs_norm)
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
    p_vals = density_by_name(cfg.density)(grid.points)
    p_sup = float(p_vals.max())
    f_grid = eval_target(cfg.target, grid.points)
    truth = integrate(f_grid, p_vals, grid)
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

    report = _run_ladder(cfg, measure)
    if margin < 0:
        report.invalid_reason = f"Hoelder chain violated: bound minus error {margin:.3e}"
    report.extras.update(holder_chain_ok=margin >= 0, holder_margin=margin)
    return report


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
    return gram(spec, PointSet(np.vstack([X.points, Z.points]), UNIT_INTERVAL)), len(X), alpha


def pythagorean_suite(seed: int) -> dict:
    """Norm splitting of the interpolant: ||f-Rf||^2 + ||Rf||^2 = ||f||^2.

    Targets are finite kernel expansions so every norm is an exact
    finite-dimensional quadratic form on the combined center set.
    """
    rng = np.random.default_rng((seed, 81))
    worst, trials = 0.0, 50
    for _ in range(trials):
        K, n, alpha = _expansion_case(rng, 2.0, 65)  # designs of up to 64 points
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


def regression_bound_suite(seed: int) -> dict:
    """Ridge solution norms against the variational bounds.

    For f in the RKHS with exactly known norm, sigma > 0 and arbitrary eps:
    the RKHS norm of the ridge fit is at most sqrt(||eps||^2/sigma^2 + ||f||^2)
    and the design residual at most ||eps|| + sqrt(||eps||^2 + sigma^2 ||f||^2).
    """
    rng = np.random.default_rng((seed, 82))
    worst, trials = -float("inf"), 100
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


def rayleigh_suite(seed: int) -> dict:
    """Noise-interpolant norm against the eigenvalue bound
    eps' K^{-1} eps <= ||eps||^2 / lambda_min(K)."""
    rng = np.random.default_rng((seed, 83))
    worst, trials = -float("inf"), 100
    for _ in range(trials):
        tau = rng.uniform(0.75, 2.0)
        spec = KernelSpec(tau=tau, lengthscale=rng.uniform(0.15, 0.6), amplitude=rng.uniform(0.5, 2.0))
        n = int(rng.integers(5, 40))
        X = _jittered_design(rng, n, UNIT_INTERVAL)
        eps = rng.standard_normal(n)
        lhs = noise_interpolant_norm(spec, X, eps) ** 2
        lam_min = min_eigenvalue(gram(spec, X))
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


def noise_growth_suite(seed: int) -> dict:
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
        for n in ns:  # 50 draws per size
            norms = [float(np.linalg.norm(draw_noise(model, n, replicate=r))) for r in range(50)]
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
    designs = _designs(cfg, cfg.ladder)
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
    X = _designs(cfg, [cfg.n_single])[0]
    h, _ = fill_distance(X)
    kernel = cfg.kernel_for(0)
    lam = cfg.nugget.lam(h)
    fX = eval_target(cfg.target, X.points)
    eps = draw_noise(cfg.noise, len(X), replicate=0)
    with np.errstate(over="ignore"):  # fit checks the sum finite
        y = fX + eps
    model = fit(kernel, cfg.mean, X, y, lam)
    grid = make_grid(cfg.domain, cfg.grid_resolution)
    mean_vals = posterior_mean(model, grid.points)
    f_vals = eval_target(cfg.target, grid.points)
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
        "target_rkhs_norm": cfg.target.rkhs_norm,
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
        files = {"curve.csv": _csv(["n", "mean_error", "std_error"], report.rows),
                 "report.json": _json(dict(vars(report), verdict=report.status))}
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
