"""Theoretical convergence-rate exponents, and :func:`loglog_slope`, every slope a report states.

:func:`theoretical_exponent` picks the theorem that covers a parameter set
(regression, noisy interpolation or noiseless interpolation) and returns
``(n_exponent, notes)``: the exponent of n under the quasi-uniform
dictionary ``h ~ n^(-1/d)`` (with the mesh ratio bounded and the separation
radius ``q ~ n^(-1/d)``).  The experiment harness is responsible for
checking that the design actually satisfies this before trusting the
numbers, and for passing the measured mesh-ratio trend when it does not.

Conventions: ``q`` is the error-norm integrability (1, 2 or inf), and
``gamma = max(2, q)`` with ``1/gamma = 0`` at ``q = inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


def _positive_part(x: float) -> float:
    return x if x > 0 else 0.0


def _inv_gamma(q: float) -> float:
    """1/gamma with gamma = max(2, q); q = inf gives 0."""
    return 0.0 if math.isinf(float(q)) else 1.0 / max(2.0, float(q))


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
        if self.kind == "adaptive_h" and not self.coeff > 0:
            raise ConfigurationError(f"adaptive nugget needs nugget.coeff > 0: {self.coeff!r}")

    def lam(self, h: float) -> float:
        """The regularization ``sigma_n(h)^2``; one past the float range
        (an ``OverflowError``, or a product that is ``inf``) is a config error."""
        fields = ("nugget.coeff and nugget.exponent" if self.kind == "adaptive_h"
                  else "nugget.sigma")
        try:
            if self.kind == "adaptive_h":
                lam = (self.coeff * h ** self.exponent) ** 2
            else:
                lam = (self.sigma if self.kind == "fixed" else 0.0) ** 2
        except OverflowError:
            lam = math.inf
        if not math.isfinite(lam):
            raise ConfigurationError(f"the nugget square is past the float range: {fields}")
        return lam

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
    return -_inv_gamma(p.q) - (min(p.tau_f, p.tau_k_minus) - p.d / 2.0) / p.d


def _combined(p: RateParams, growth: float) -> float:
    """The combined corollary ``-1/gamma + max(growth, -tau/d + 1/2)``, tau = tau_f ^ tau_k-."""
    return -_inv_gamma(p.q) + max(growth, -min(p.tau_f, p.tau_k_minus) / p.d + 0.5)


def theoretical_exponent(p: RateParams, rho_trend: float = 0.0, well_specified: bool = False):
    """``(n_exponent, notes)`` of the theorem that covers ``p``.

    A nonzero nugget is regression: under a well-specified Gaussian
    likelihood (``well_specified``: Gaussian noise at the nugget's sigma)
    the Gaussian-likelihood result, otherwise the misspecified-likelihood
    bound.  Interpolating noisy data gives :func:`_combined`.  Noiseless
    interpolation has the h exponent ``(tau_f ^ tau_k-) - d(1/2 - 1/q)_+``;
    overshooting the target smoothness costs a mesh-ratio factor with
    exponent ``(tau_k+ - tau_f)_+``, which a design that is not
    quasi-uniform pays at ``rho_trend``, the slope of log(rho) vs log(n).
    """
    if p.nugget.kind != "zero":
        return (_gaussian_regression if well_specified else _misspec_gaussian)(p)
    if p.noise_growth is not None:
        return _combined(p, p.noise_growth), []
    invq = 0.0 if math.isinf(float(p.q)) else 1.0 / float(p.q)
    n_exp = -(min(p.tau_f, p.tau_k_minus) - p.d * _positive_part(0.5 - invq)) / p.d
    if p.quasi_uniform:
        return n_exp, []
    if not math.isfinite(rho_trend):
        note = f"mesh-ratio trend could not be measured (slope {rho_trend}); no prediction"
    else:
        note = f"mesh ratio grows (slope {rho_trend:.3f}); prediction inflated"
    return n_exp + _positive_part(p.tau_k_plus - p.tau_f) * rho_trend, [note]


def _gaussian_regression(p: RateParams):
    """Well-specified Gaussian likelihood.

    At the prescribed smoothness ``tau_k = tau_f + d/2`` (quasi-uniform
    design, q in [1,2]) the expected-error exponent is the nonparametric
    optimum ``-tau_f/(2 tau_f + d)``.  Outside those preconditions the
    general three-term bound applies, with a note; its slowest (largest)
    term is the prediction, and its bias term carries the mesh ratio when
    the kernel overshoots the target smoothness.  The maximum leaves out the
    bound's fill-distance noise term ``1/2 - 1/gamma - (tau_k- - d/2)/d``,
    which never binds: with ``t = tau_k-/d > 1/2`` it exceeds the residual
    term's ``-1/gamma + d/(4 tau_k-)`` only if ``1 - t > 1/(4t)``, that is
    ``(2t - 1)^2 < 0``.
    """
    d = p.d
    prescribed = (
        abs(p.tau_k_minus - (p.tau_f + d / 2.0)) < 1e-9
        and abs(p.tau_k_plus - (p.tau_f + d / 2.0)) < 1e-9
    )
    if prescribed and float(p.q) <= 2.0 and p.quasi_uniform:
        return -p.tau_f / (2.0 * p.tau_f + d), []
    notes = [
        "prescribed-smoothness preconditions not met "
        "(need tau_k = tau_f + d/2, q in [1,2], quasi-uniform); "
        "falling back to the three-term bound"
    ]
    ig = _inv_gamma(p.q)
    residual = max(_positive_part(0.5 - p.tau_f / (2.0 * p.tau_k_plus)),
                   d / (4.0 * p.tau_k_minus))
    # bias, noise residual
    n_exp = max(_bias(p), -ig + residual)
    rho_pen = _positive_part(p.tau_k_plus - p.tau_f)
    if rho_pen > 0:
        notes.append(f"misspecified branch: bias term carries rho^{rho_pen:g}")
    return n_exp, notes


def _misspec_gaussian(p: RateParams):
    """Arbitrary corruption under a Gaussian likelihood with nugget sigma_n > 0.

    A constant nugget at matched smoothness, or an adaptive nugget with the
    bound-optimal exponent, gives :func:`_combined`; otherwise the slowest
    term-wise exponent, with a note.
    """
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
    ig = _inv_gamma(p.q)
    sig = p.nugget.sigma_slope(d)  # sigma_n ~ n^(-sig)
    # bias, nugget bias, noise on the fill distance, flat noise
    n_exp = max(
        _bias(p),
        -ig - sig + _positive_part(p.tau_k_plus - p.tau_f) / d,
        -ig - (p.tau_k_minus - d / 2.0) / d + sig + g,
        -ig + g,
    )
    return n_exp, notes


# ---------------------------------------------------------------------------
# empirical slope fitting and reports
# ---------------------------------------------------------------------------

def loglog_slope(ns, values) -> float:
    """Least-squares slope of log(values) on log(ns), from centred sums; NaN,
    with no warning, for fewer than two distinct n or a value that is not
    positive and finite."""
    y = np.asarray(values, dtype=float)
    if len(set(ns)) < 2 or not np.all((y > 0) & (y < np.inf)):
        return float("nan")
    x, y = np.log(ns), np.log(y)
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / float(np.sum(xc * xc)))


def fit_empirical_rate(table, burn_in: int = 0):
    """OLS of log(error) on log(n) after dropping the first ``burn_in`` rows.

    Returns ``(slope, stderr, invalid_reason)``, the slope :func:`loglog_slope`'s.
    A degenerate table (fewer than 3 rows, an infinite or NaN error, a zero or
    negative error, which means the target was reproduced exactly, or one
    distinct n) gives NaN, NaN, the reason.
    """
    rows = [(float(n), float(e)) for n, e in table][burn_in:]
    bad = [(n, e) for n, e in rows if not math.isfinite(e)]
    if len(rows) < 3:
        reason = "need at least 3 ladder points after burn-in"
    elif bad:
        reason = f"non-finite error {bad[0][1]} at n = {bad[0][0]:g} in the rate table"
    elif any(e <= 0 for _, e in rows):
        reason = ("nonpositive errors in the rate table (exact interpolation of the "
                  "target; experiment degenerate)")
    elif len({n for n, _ in rows}) < 2:
        reason = "every ladder point after burn-in has the same design size"
    else:
        x, y = np.log([n for n, _ in rows]), np.log([e for _, e in rows])
        slope = loglog_slope(*zip(*rows))
        xc = x - x.mean()
        resid = y - (y.mean() + slope * xc)
        return slope, float(np.sqrt(np.sum(resid * resid) / (len(rows) - 2) / np.sum(xc * xc))), ""
    return float("nan"), float("nan"), reason


@dataclass
class RateReport:
    """Theory vs measurement for one rate experiment."""

    setting: str
    theoretical: float
    fitted: float
    stderr: float
    tolerance: float
    rows: list  # (n, mean_error, std_error)
    invalid_reason: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        """``invalid``, ``pass`` (fitted within tolerance of theory) or ``fail``."""
        if self.invalid_reason:
            return "invalid"
        return "pass" if abs(self.fitted - self.theoretical) <= self.tolerance else "fail"

    def summary_line(self) -> str:
        return (
            f"[{self.status.upper()}] {self.setting}: fitted {self.fitted:+.4f} "
            f"(se {self.stderr:.4f}) vs theory {self.theoretical:+.4f} "
            f"tol {self.tolerance:.2f}"
        )
