"""Variance-stabilized Bayesian optimization over a finite candidate grid.

The strategy with budget n picks the first point as the first candidate,
points 2..n-1 by maximizing the acquisition over the stabilized candidate
set (posterior sd at least ``gamma`` times its maximum over candidates,
which forces exploration and keeps the selected set quasi-uniform), and the
final point as the maximizer of the interpolant built on the first n-1
points.  Simple regret is measured against a fine reference grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.stats import norm as _norm

from .designs import PointSet, fill_distance, gen_grid, separation_radius
from .errors import ConfigurationError
from .fitting import MeanSpec, fit
from .kernels import KernelSpec, cross_matrix
from .targets import TargetSpec, eval_target

REFERENCE_RESOLUTION = 65536


@dataclass(frozen=True)
class BOConfig:
    gamma: float
    acquisition: str  # "expected_improvement" | "ucb"
    n: int
    kernel: KernelSpec
    candidates: PointSet
    ucb_beta: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigurationError("gamma must lie in (0, 1]")
        if self.acquisition not in ("expected_improvement", "ucb"):
            raise ConfigurationError(f"unknown acquisition {self.acquisition!r}")
        if self.n < 2:
            raise ConfigurationError("budget n must be at least 2")
        if not self.kernel.tau > self.kernel.dim / 2 + 1:
            raise ConfigurationError(
                "stabilized selection requires tau > d/2 + 1 "
                f"(got tau = {self.kernel.tau}, d = {self.kernel.dim})"
            )
        if self.acquisition == "ucb" and not self.ucb_beta > 0:
            raise ConfigurationError("ucb needs beta > 0")


def expected_improvement(mean, sd, best: float):
    """E[(g(x) - best)_+] under the pointwise Gaussian posterior."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    gap = mean - best
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sd > 0, gap / np.where(sd > 0, sd, 1.0), 0.0)
    ei = np.where(sd > 0, gap * _norm.cdf(z) + sd * _norm.pdf(z), np.maximum(gap, 0.0))
    return ei


@dataclass
class BOResult:
    x_final: np.ndarray
    regret: float
    regret_candidates: float
    trace: list = field(default_factory=list)
    selected: PointSet | None = None
    sup_error_final: float = 0.0
    certificate_ok: bool = True
    certificate_slack: float = 0.0


def run_gamma_F_n(target: TargetSpec, config: BOConfig) -> BOResult:
    """Run the stabilized strategy on noiseless evaluations of the target.

    The trace records, per step: the chosen point, its target value, the
    stabilization threshold, the posterior sd at the chosen point, the
    acquisition value, and the mesh ratio of the points selected so far
    (probe-grid fill distance over the candidate domain).
    """
    cand = config.candidates
    cpts = cand.points
    mean0 = MeanSpec("constant", 0.0)
    xs = [cpts[0]]
    # selected points are always candidates, so the candidate-by-selected
    # cross-covariance grows by one cached column per step
    cols = [cross_matrix(config.kernel, cpts, cpts[0][None, :])[:, 0]]
    ys = [float(eval_target(target, cpts[0]))]
    trace = []
    cert_ok = True
    cert_slack = 0.0
    for step in range(2, config.n):
        X = PointSet(np.array(xs), cand.domain)
        y = np.array(ys)
        model = fit(config.kernel, mean0, X, y, 0.0)
        Kq = np.stack(cols, axis=1)
        mean = Kq @ model.dual
        V = solve_triangular(model.chol, Kq.T, lower=True)
        sd = np.sqrt(np.maximum(config.kernel.amplitude - np.sum(V * V, axis=0), 0.0))
        threshold = config.gamma * sd.max()
        best = float(y.max())
        if config.acquisition == "expected_improvement":
            acq = expected_improvement(mean, sd, best)
        else:
            acq = mean + config.ucb_beta * sd
        masked = np.where(sd >= threshold, acq, -np.inf)
        j = int(np.argmax(masked))  # first maximizer wins ties
        slack = threshold - sd[j]
        cert_slack = max(cert_slack, slack)
        if slack > 1e-10:
            cert_ok = False
        xs.append(cpts[j])
        cols.append(cross_matrix(config.kernel, cpts, cpts[j][None, :])[:, 0])
        ys.append(float(eval_target(target, cpts[j])))
        sel = PointSet(np.array(xs), cand.domain)
        rho = float("nan")
        if len(sel) >= 2:
            h, _ = fill_distance(sel)
            rho = h / separation_radius(sel)
        trace.append(
            {
                "step": step,
                "x": [float(v) for v in cpts[j]],
                "f": ys[-1],
                "threshold": float(threshold),
                "sd": float(sd[j]),
                "acquisition": float(acq[j]),
                "rho_so_far": rho,
            }
        )
    # final step: maximize the interpolant over the candidates
    X = PointSet(np.array(xs), cand.domain)
    y = np.array(ys)
    model = fit(config.kernel, mean0, X, y, 0.0)
    mean_on_cand = np.stack(cols, axis=1) @ model.dual
    x_final = cpts[int(np.argmax(mean_on_cand))]
    f_cand = np.asarray(eval_target(target, cpts), dtype=float)
    ref = gen_grid(REFERENCE_RESOLUTION, cand.domain) if cand.domain.dim == 1 else cand
    f_ref = np.asarray(eval_target(target, ref.points), dtype=float)
    f_final = float(eval_target(target, x_final))
    sup_err = float(np.abs(f_cand - mean_on_cand).max())
    return BOResult(
        x_final=np.asarray(x_final, dtype=float),
        regret=float(f_ref.max() - f_final),
        regret_candidates=float(f_cand.max() - f_final),
        trace=trace,
        selected=X,
        sup_error_final=sup_err,
        certificate_ok=cert_ok,
        certificate_slack=float(cert_slack),
    )
