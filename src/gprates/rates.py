"""Theoretical convergence-rate exponents and empirical log-log slope fitting.

Every calculator returns exponents of n under the quasi-uniform dictionary
``h ~ n^(-1/d)`` (with the mesh ratio bounded and the separation radius
``q ~ n^(-1/d)``); the experiment harness is responsible for checking that
the design actually satisfies this before trusting the numbers, and for
inflating the prediction by the measured mesh-ratio trend when it does not.

Conventions: ``q`` is the error-norm integrability (1, 2 or inf), and
``gamma = max(2, q)`` with ``1/gamma = 0`` at ``q = inf``.  Each theorem
calculator returns ``(n_exponent, notes)``.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


def positive_part(x: float) -> float:
    return x if x > 0 else 0.0


def gamma_of_q(q: float) -> float:
    """gamma = max(2, q); q = inf gives 1/gamma = 0."""
    return max(2.0, float(q))


def inv_gamma(q: float) -> float:
    g = gamma_of_q(q)
    return 0.0 if math.isinf(g) else 1.0 / g


def tau_zero(tau: float, d: int, q: float) -> float:
    """tau - d*(1/2 - 1/q)_+ ."""
    invq = 0.0 if math.isinf(float(q)) else 1.0 / float(q)
    return tau - d * positive_part(0.5 - invq)


@dataclass(frozen=True)
class NuggetPolicy:
    """zero | fixed(sigma) | adaptive_h(exponent, coeff): sigma_n = coeff * h^exponent."""

    kind: str = "zero"
    sigma: float = 0.0
    exponent: float = 0.0
    coeff: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "fixed", "adaptive_h"):
            raise ConfigurationError(f"unknown nugget policy {self.kind!r}")
        if self.kind == "fixed" and not self.sigma > 0:
            raise ConfigurationError("fixed nugget needs sigma > 0")
        if self.kind == "adaptive_h" and not self.exponent > 0:
            raise ConfigurationError("adaptive nugget needs a positive exponent")

    def sigma_n(self, h: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "fixed":
            return self.sigma
        return self.coeff * h ** self.exponent

    def sigma_slope(self, d: int) -> float:
        """Decay exponent: sigma_n ~ n^(-sigma_slope) under h ~ n^(-1/d)."""
        return 0.0 if self.kind != "adaptive_h" else self.exponent / d


@dataclass(frozen=True)
class RateParams:
    """Smoothness/norm/noise/design parameters entering the rate theorems."""

    tau_f: float
    tau_k_minus: float
    tau_k_plus: float
    d: int
    q: float = 2.0
    noise_growth: float | None = None
    quasi_uniform: bool = True
    nugget: NuggetPolicy = field(default_factory=NuggetPolicy)

    def __post_init__(self):
        if not self.tau_f > self.d / 2:
            raise ConfigurationError(f"tau_f must exceed d/2, got {self.tau_f}")
        if not (self.d / 2 < self.tau_k_minus <= self.tau_k_plus):
            raise ConfigurationError(
                "need d/2 < tau_k_minus <= tau_k_plus, got "
                f"({self.tau_k_minus}, {self.tau_k_plus})"
            )


def _bias(p: RateParams) -> float:
    """The approximation term ``-1/gamma - (tau - d/2)/d``, tau = tau_f ^ tau_k-."""
    return -inv_gamma(p.q) - (min(p.tau_f, p.tau_k_minus) - p.d / 2.0) / p.d


def _combined(p: RateParams, growth: float) -> float:
    """The combined corollary ``-1/gamma + max(growth, -tau/d + 1/2)``, tau = tau_f ^ tau_k-."""
    return -inv_gamma(p.q) + max(growth, -min(p.tau_f, p.tau_k_minus) / p.d + 0.5)


def exponent_interpolation(p: RateParams):
    """Noiseless interpolation: exponents of ``h`` and of the mesh ratio.

    The h exponent is ``(tau_f ^ tau_k-) - d(1/2 - 1/q)_+``; overshooting
    the target smoothness costs a mesh-ratio factor with exponent
    ``(tau_k+ - tau_f)_+`` (zero in the well-specified branch).
    """
    if p.noise_growth is not None:
        raise ConfigurationError("interpolation exponents assume noiseless data")
    h_exp = tau_zero(min(p.tau_f, p.tau_k_minus), p.d, p.q)
    rho_exp = positive_part(p.tau_k_plus - p.tau_f)
    return h_exp, rho_exp


def n_exponent_interpolation(p: RateParams, rho_trend: float = 0.0) -> float:
    """n-exponent under ``h ~ n^(-1/d)``; ``rho_trend`` is the measured slope of
    log(rho) vs log(n) for designs that are not quasi-uniform."""
    h_exp, rho_exp = exponent_interpolation(p)
    return -h_exp / p.d + rho_exp * rho_trend


def exponent_gaussian_regression(p: RateParams):
    """Well-specified Gaussian likelihood: ``(n_exponent, notes)``.

    At the prescribed smoothness ``tau_k = tau_f + d/2`` (quasi-uniform
    design, q in [1,2]) the expected-error exponent is the nonparametric
    optimum ``-tau_f/(2 tau_f + d)``.  Outside those preconditions the
    general three-term bound applies, with a note; its slowest (largest)
    term is the prediction.
    """
    d = p.d
    notes = []
    prescribed = (
        abs(p.tau_k_minus - (p.tau_f + d / 2.0)) < 1e-9
        and abs(p.tau_k_plus - (p.tau_f + d / 2.0)) < 1e-9
    )
    if prescribed and float(p.q) <= 2.0 and p.quasi_uniform:
        n_exp = -p.tau_f / (2.0 * p.tau_f + d)
    else:
        notes.append(
            "prescribed-smoothness preconditions not met "
            "(need tau_k = tau_f + d/2, q in [1,2], quasi-uniform); "
            "falling back to the three-term bound"
        )
        ig = inv_gamma(p.q)
        residual = max(positive_part(0.5 - p.tau_f / (2.0 * p.tau_k_plus)),
                       d / (4.0 * p.tau_k_minus))
        # bias, noise on the fill distance, noise residual
        n_exp = max(_bias(p), 0.5 - ig - (p.tau_k_minus - d / 2.0) / d, -ig + residual)
    rho_pen = positive_part(p.tau_k_plus - p.tau_f)
    if rho_pen > 0:
        notes.append(f"misspecified branch: bias term carries rho^{rho_pen:g}")
    return n_exp, notes


def exponent_misspec_gaussian(p: RateParams):
    """Arbitrary corruption under a Gaussian likelihood with nugget sigma_n.

    Returns ``(n_exponent, notes)`` under ``h ~ n^(-1/d)`` with bounded mesh
    ratio.  A constant nugget at matched smoothness, or an adaptive nugget
    with the bound-optimal exponent, gives the combined prediction
    :func:`_combined`; otherwise the slowest term-wise exponent, with a note.
    """
    if p.nugget.kind == "zero":
        raise ConfigurationError("use exponent_misspec_interpolation for sigma_n = 0")
    d = p.d
    g = 0.0 if p.noise_growth is None else p.noise_growth
    notes = []
    if p.noise_growth is None:
        notes.append("no noise model declared; growth treated as O(1)")
    if p.nugget.kind == "fixed":
        matched = abs(p.tau_k_minus - p.tau_f) < 1e-9
        mismatch = ("constant nugget with misspecified smoothness: "
                    "no combined corollary applies, using the term-wise maximum")
    else:
        # adaptive sigma_n = O(h^(tau - d/2)) matches the bound-optimal
        # schedule when the exponent equals tau_k - d/2
        matched = abs(p.nugget.exponent - (p.tau_k_minus - d / 2.0)) < 1e-9
        mismatch = "adaptive nugget exponent differs from tau_k - d/2; using the term-wise maximum"
    if abs(p.tau_k_plus - p.tau_k_minus) < 1e-9 and matched:
        return _combined(p, g), notes
    notes.append(mismatch)
    ig = inv_gamma(p.q)
    sig = p.nugget.sigma_slope(d)  # sigma_n ~ n^(-sig)
    # bias, nugget bias, noise on the fill distance, flat noise
    n_exp = max(
        _bias(p),
        -ig - sig + positive_part(p.tau_k_plus - p.tau_f) / d,
        -ig - (p.tau_k_minus - d / 2.0) / d + sig + g,
        -ig + g,
    )
    return n_exp, notes


def exponent_misspec_interpolation(p: RateParams):
    """Arbitrary corruption with an interpolant (sigma_n = 0): ``(n_exponent, notes)``.

    With a bounded mesh ratio the noise enters at ``n^(growth)`` times the
    flat ``h^(d/gamma)`` factor, and the prediction is :func:`_combined`.
    With eps = 0 this reduces exactly to the noiseless interpolation exponent.
    """
    if p.nugget.kind != "zero":
        raise ConfigurationError("misspecified interpolation assumes sigma_n = 0")
    if p.noise_growth is None:
        h_exp, _ = exponent_interpolation(p)
        return -h_exp / p.d, ["no corruption: reduces to the noiseless exponent"]
    return _combined(p, p.noise_growth), []


# ---------------------------------------------------------------------------
# empirical slope fitting and reports
# ---------------------------------------------------------------------------

def fit_empirical_rate(table, burn_in: int = 0):
    """OLS of log(error) on log(n) after dropping the first ``burn_in`` rows.

    Returns ``(slope, stderr)``.  Zero or negative errors mean the target
    was reproduced exactly and the experiment is degenerate.
    """
    rows = [(float(n), float(e)) for n, e in table]
    rows = rows[burn_in:]
    if len(rows) < 3:
        raise ConfigurationError("need at least 3 ladder points after burn-in")
    if any(e <= 0 for _, e in rows):
        raise ConfigurationError(
            "nonpositive errors in the rate table (exact interpolation of the "
            "target; experiment degenerate)"
        )
    x = np.log([n for n, _ in rows])
    y = np.log([e for _, e in rows])
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * xc)
    dof = len(rows) - 2
    stderr = float(np.sqrt(np.sum(resid * resid) / dof / sxx)) if dof > 0 else 0.0
    return slope, stderr


@dataclass
class RateReport:
    """Theory vs measurement for one rate experiment."""

    setting: str
    theoretical: float
    fitted: float
    stderr: float
    tolerance: float
    rows: list  # (n, mean_error, std_error)
    invalid: bool = False
    invalid_reason: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return (not self.invalid) and abs(self.fitted - self.theoretical) <= self.tolerance

    def summary_line(self) -> str:
        status = "INVALID" if self.invalid else ("PASS" if self.verdict else "FAIL")
        return (
            f"[{status}] {self.setting}: fitted {self.fitted:+.4f} "
            f"(se {self.stderr:.4f}) vs theory {self.theoretical:+.4f} "
            f"tol {self.tolerance:.2f}"
        )

    def to_json(self) -> str:
        payload = {
            "setting": self.setting,
            "theoretical": self.theoretical,
            "fitted": self.fitted,
            "stderr": self.stderr,
            "tolerance": self.tolerance,
            "verdict": "pass" if self.verdict else ("invalid" if self.invalid else "fail"),
            "invalid_reason": self.invalid_reason,
            "rows": [list(r) for r in self.rows],
            "extras": self.extras,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,mean_error,std_error\n")
        for n, mean, std in self.rows:
            buf.write(f"{n:d},{format(mean, '.17g')},{format(std, '.17g')}\n")
        return buf.getvalue()
