"""Ground-truth targets of known smoothness and observation-corruption models.

Both target families are one :class:`TargetSpec`: a function of an (m, d)
batch, its declared smoothness ``tau_f`` and, where known, its exact RKHS
norm.

* **Kernel expansions** ``f = sum_i alpha_i k(., c_i)`` of a Matern spec.
  Their RKHS norm is exactly computable (``sqrt(alpha' K alpha)``), which is
  what the exact-identity experiments need.  Note that as *rate* targets they
  are far smoother than the nominal smoothness of their kernel (a finite
  expansion of a tau-smooth Matern lies in every Sobolev class below
  ``2*tau - d/2``), so interpolating one with the same kernel superconverges.
* **Layered multiscale targets** ("layered_tau*"): sums of compactly
  supported C^2 bumps at every dyadic scale.  A dense row of bumps at scale
  ``2^-j`` with amplitude ``2^(-j*tau_f)`` plus a single ("lacunary") bump per
  scale with amplitude ``2^(-j*(tau_f - 1/2))`` puts the critical amount of
  energy at every scale, so the function lies in ``W^{tau_f}_2`` and in no
  smoother class: the documented smoothness is exact, which makes these the
  rate targets.  The dense rows are placed dyadically commensurate with
  power-of-two midpoint grids (fixed phase 0.37) so that below-resolution
  scales are systematically, not randomly, sampled; this keeps the
  integration error of an interpolant at the theory-tight order ``h^tau_f``
  instead of gaining half an order from sampling cancellation.

Registry targets are fixed once and referenced by id from experiment
configs; an optional ``scale`` multiplier rescales values without touching
smoothness.  Their Hoelder-extension regularity is by construction of the
bump profile and is documented here rather than verified programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .designs import Domain, UNIT_INTERVAL
from .errors import ConfigurationError, InfiniteMomentError
from .fitting import rkhs_norm_expansion
from .kernels import KernelSpec, as_points, cross_matrix

_LAYER_PHASE = 0.37
_LAYER_LACUNARY_WEIGHT = 2.0
_LAYER_DEPTH = 11
_LAYER_MARGIN = 0.02  # smoothness slack keeping the dyadic sums summable


@dataclass(frozen=True)
class TargetSpec:
    """A ground-truth function with documented Sobolev smoothness ``tau_f``.

    ``fn`` maps an (m, d) batch to its m values, and ``scale`` multiplies
    them.  ``rkhs_norm`` is the exact RKHS norm of the scaled function where
    one is known (kernel expansions), None otherwise.
    """

    name: str
    tau_f: float
    domain: Domain
    fn: Callable
    scale: float = 1.0
    rkhs_norm: float | None = None

    def __post_init__(self):
        if not self.tau_f > self.domain.dim / 2:
            raise ConfigurationError(
                f"tau_f must exceed dim/2 = {self.domain.dim / 2}, got {self.tau_f}"
            )


def eval_target(t: TargetSpec, x) -> np.ndarray:
    """Values of ``f`` at a batch of m points, shape (m,)."""
    with np.errstate(over="ignore"):
        values = t.scale * t.fn(as_points(t.domain.dim, x))
    if not np.isfinite(values).all():
        raise ConfigurationError(f"target values are not finite at target.scale {t.scale!r}")
    return values


def random_expansion_target(
    tau_f: float,
    domain: Domain,
    seed: int,
    n_centers: int = 40,
    lengthscale: float = 0.25,
    amplitude: float = 1.0,
    scale: float = 1.0,
) -> TargetSpec:
    """Expansion with uniform centers and standard-normal coefficients.

    Its kernel, at the centers and at every batch of points it is evaluated
    on, is formed with floating-point warnings off and must be finite, else
    a ``ConfigurationError`` names the ``target.expansion`` fields.
    """
    rng = np.random.default_rng(seed)
    lo = np.array(domain.lower)
    c = lo + rng.random((n_centers, domain.dim)) * domain.widths
    a = rng.standard_normal(n_centers)
    spec = KernelSpec(tau=tau_f, lengthscale=lengthscale, amplitude=amplitude, dim=domain.dim)

    def kernel(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            K = cross_matrix(spec, x, c)
        if not np.isfinite(K).all():
            raise ConfigurationError(
                f"expansion kernel not finite: target.expansion.tau {tau_f!r}, "
                f"target.expansion.lengthscale {lengthscale!r} or "
                f"target.expansion.amplitude {amplitude!r}")
        return K

    kernel(c)  # checked before rkhs_norm_expansion evaluates it
    return TargetSpec(
        name=f"expansion_tau{tau_f:g}",
        tau_f=tau_f,
        domain=domain,
        fn=lambda x: kernel(x) @ a,
        scale=scale,
        rkhs_norm=scale * rkhs_norm_expansion(spec, c, a),
    )


# ---------------------------------------------------------------------------
# named targets
# ---------------------------------------------------------------------------

def _bump_profile(u: np.ndarray) -> np.ndarray:
    # C^2 compactly supported profile, for |u| <= 1; it is 0 at |u| = 1
    return (1.0 - u * u) ** 3


def _layered_fn(tau_f: float, seed: int) -> Callable:
    """The layered target of smoothness ``tau_f``.  A dense row's ``u`` lies in
    [-1, 1] exactly; a lacunary bump is added only where ``|v| < 1``, since it
    adds +0.0 elsewhere, which changes no total but -0.0 (only x = -0.0 makes one)."""
    rng = np.random.default_rng(seed)
    spots = rng.uniform(0.1, 0.9, _LAYER_DEPTH + 1)

    def f(x: np.ndarray) -> np.ndarray:
        x = x[:, 0]
        total = np.sin(2.0 * x)
        for j in range(_LAYER_DEPTH + 1):
            spacing = 2.0 ** (-j)
            half = spacing / 2.0
            dense_amp = 2.0 ** (-j * tau_f * (1.0 + _LAYER_MARGIN))
            lac_amp = _LAYER_LACUNARY_WEIGHT * 2.0 ** (-j * (tau_f - 0.5) * (1.0 + _LAYER_MARGIN))
            t = x / spacing - _LAYER_PHASE
            u = (t - np.round(t)) * spacing / half
            total += dense_amp * _bump_profile(u)
            v = (x - spots[j]) / half
            near = np.flatnonzero(np.abs(v) < 1.0)
            total[near] += lac_amp * _bump_profile(v[near])
        return total

    return f


def _peaks3_fn(x: np.ndarray) -> np.ndarray:
    # three smooth peaks; global max sits on the narrowest one
    x = x[:, 0]
    return (
        0.70 * np.exp(-(((x - 0.23) / 0.10) ** 2))
        + 0.92 * np.exp(-(((x - 0.61) / 0.07) ** 2))
        + 1.00 * np.exp(-(((x - 0.871) / 0.02) ** 2))
        + 0.15 * np.sin(7.0 * x)
    )


def _bump_fn(x: np.ndarray) -> np.ndarray:
    x = x[:, 0]
    return np.exp(-(((x - 0.5) / 0.15) ** 2))


def _cusp25_fn(x: np.ndarray) -> np.ndarray:
    x = x[:, 0]
    d = x - 0.37
    return d * np.abs(d) + np.sin(2.0 * x)


_INF = float("inf")

# name -> (factory or fn, tau_f, description)
_NAMED: dict[str, tuple] = {
    "layered_tau1": (lambda: _layered_fn(1.0, seed=9), 1.0,
                     "multiscale bump stack, exactly W^1 smooth"),
    "layered_tau2": (lambda: _layered_fn(2.0, seed=7), 2.0,
                     "multiscale bump stack, exactly W^2 smooth"),
    "layered_tau2p5": (lambda: _layered_fn(2.5, seed=5), 2.5,
                       "multiscale bump stack, exactly W^2.5 smooth"),
    "cusp_tau2p5": (lambda: _cusp25_fn, 2.5,
                    "signed square cusp plus smooth background, W^2.5 smooth"),
    "peaks3": (lambda: _peaks3_fn, _INF,
               "three smooth peaks, global max on the narrowest (optimization demo)"),
    "bump": (lambda: _bump_fn, _INF,
             "smooth unit bump; peak value 1.0 at x = 0.5"),
}


def registry_entries() -> list[tuple[str, float, str]]:
    return [(name, tau, doc) for name, (_, tau, doc) in sorted(_NAMED.items())]


def named_target(name: str, domain: Domain = UNIT_INTERVAL, scale: float = 1.0) -> TargetSpec:
    if name not in _NAMED:
        raise ConfigurationError(
            f"unknown target {name!r}; known: {', '.join(sorted(_NAMED))}"
        )
    if domain.dim != 1:
        raise ConfigurationError("registry targets are one-dimensional")
    factory, tau_f, _ = _NAMED[name]
    return TargetSpec(name=name, tau_f=tau_f, domain=domain, fn=factory(), scale=scale)


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Observation corruption: none, gaussian, scheduled outliers, or student-t.

    Outlier schedules set how the corrupted count grows with n:
    ``fixed(k)``, ``power(alpha)`` with count ``floor(n^alpha)``, or
    ``fraction(beta)`` with count ``floor(beta*n)``.
    """

    kind: str = "none"
    sigma: float = 0.0           # gaussian
    schedule: str = "fixed"      # outliers: fixed | power | fraction
    k: int = 1                   # outliers, fixed
    alpha: float = 0.5           # outliers, power
    beta: float = 0.1            # outliers, fraction
    magnitude: float = 1.0       # outliers
    df: float = 3.0              # student_t
    scale: float = 1.0           # student_t
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "outliers", "student_t"):
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and not self.sigma > 0:
            raise ConfigurationError("gaussian noise needs sigma > 0")
        if self.kind == "outliers":
            if self.schedule not in ("fixed", "power", "fraction"):
                raise ConfigurationError(f"unknown outlier schedule {self.schedule!r}")
            if self.schedule == "fixed" and self.k < 0:
                raise ConfigurationError("fixed outlier count must be >= 0")
            if self.schedule == "power" and not 0 < self.alpha < 1:
                raise ConfigurationError("power schedule needs alpha in (0,1)")
            if self.schedule == "fraction" and not 0 < self.beta <= 1:
                raise ConfigurationError("fraction schedule needs beta in (0,1]")
            if not self.magnitude > 0:
                raise ConfigurationError(f"outliers need noise.magnitude > 0: {self.magnitude!r}")
        if self.kind == "student_t" and not self.df > 0:
            raise ConfigurationError("student_t needs df > 0")
        if self.kind == "student_t" and not self.scale > 0:
            raise ConfigurationError(f"student_t needs noise.scale > 0: {self.scale!r}")

    def outlier_count(self, n: int) -> int:
        if self.schedule == "fixed":
            return min(self.k, n)
        if self.schedule == "power":
            return min(int(np.floor(n ** self.alpha)), n)
        return min(int(np.floor(self.beta * n)), n)


def draw_noise(noise: NoiseModel, n: int, replicate: int = 0) -> np.ndarray:
    """Noise vector for one replicate; deterministic in (seed, replicate)."""
    if noise.kind == "none":
        return np.zeros(n)
    rng = np.random.default_rng((noise.seed, replicate))
    if noise.kind in ("gaussian", "student_t"):
        with np.errstate(over="ignore"):
            eps = (rng.normal(0.0, noise.sigma, n) if noise.kind == "gaussian"
                   else noise.scale * rng.standard_t(noise.df, n))
        if not np.isfinite(eps).all():
            raise ConfigurationError("noise.sigma or noise.scale is too large: a draw overflows")
        return eps
    count = noise.outlier_count(n)
    eps = np.zeros(n)
    if count > 0:
        idx = rng.choice(n, size=count, replace=False)
        eps[idx] = noise.magnitude * rng.choice([-1.0, 1.0], size=count)
    return eps


def expected_noise_growth(noise: NoiseModel) -> float | None:
    """Exponent g with ``E||eps||_2 = Theta(n^g)``; None when eps == 0.

    Any noise with i.i.d. entries of finite second moment grows like
    ``sqrt(n)``; a fixed number of bounded outliers stays O(1); ``n^alpha``
    corrupted entries give ``n^(alpha/2)``.  Distributions without a finite
    second moment (student-t with df <= 2) make every bound vacuous and are
    rejected.
    """
    if noise.kind == "none":
        return None
    if noise.kind == "gaussian":
        return 0.5
    if noise.kind == "student_t":
        if noise.df <= 2:
            raise InfiniteMomentError(
                f"student_t with df = {noise.df} has no finite second moment"
            )
        return 0.5
    if noise.schedule == "fixed":
        return 0.0
    if noise.schedule == "power":
        return noise.alpha / 2.0
    return 0.5
