"""Variance-stabilized Bayesian optimization over a finite candidate grid.

The strategy with budget n picks the first point as the first candidate,
points 2..n-1 by maximizing expected improvement over the stabilized candidate
set (posterior sd at least ``gamma`` times its maximum over candidates,
which forces exploration and keeps the selected set quasi-uniform), and the
final point as the maximizer of the interpolant built on the first n-1
points.  Simple regret is measured against a fine reference grid.

The selection rule never looks at n, so every budget is a prefix of one
trajectory: ``run_gamma_F_n`` runs it once to the largest budget and
``BOTrajectory.result(n)`` finishes any budget from its first n-1 points.
The loop never refits: one incremental Newton basis (``designs.NewtonBasis``,
with ``fit``'s interpolation jitter) gives the posterior mean and sd on every
candidate, and only each budget's final step calls ``fit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular  # noqa: F401  (perfbench/layers.py traces it here)
from scipy.stats import norm as _norm

from .designs import NewtonBasis, PointSet, fill_distance, gen_grid, separation_radius
from .errors import ConfigurationError
from .fitting import DEFAULT_JITTER_FACTOR, MeanSpec, fit
from .kernels import KernelSpec, cross_matrix
from .targets import TargetSpec, eval_target

REFERENCE_RESOLUTION = 65536


@dataclass(frozen=True)
class BOConfig:
    gamma: float
    n: int
    kernel: KernelSpec
    candidates: PointSet

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigurationError("gamma must lie in (0, 1]")
        if self.n < 2:
            raise ConfigurationError("budget n must be at least 2")
        if not self.kernel.tau > self.kernel.dim / 2 + 1:
            raise ConfigurationError(
                "stabilized selection requires tau > d/2 + 1 "
                f"(got tau = {self.kernel.tau}, d = {self.kernel.dim})"
            )


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


@dataclass
class BOTrajectory:
    """One run of the strategy to budget ``config.n``.

    ``chosen`` holds the candidate indices of the n-1 selected points (the
    first candidate, then one per trace row), ``f`` their target values and
    ``cols`` their kernel columns over the candidates.
    """

    target: TargetSpec
    config: BOConfig
    chosen: list
    f: list
    cols: list
    trace: list
    slacks: list

    def result(self, n: int) -> BOResult:
        """The strategy with budget ``n``: the first n-1 points, then its final step."""
        if not 2 <= n <= self.config.n:
            raise ConfigurationError(f"budget {n} outside [2, {self.config.n}]")
        cand = self.config.candidates
        cpts = cand.points
        X = PointSet(cpts[self.chosen[: n - 1]], cand.domain)
        model = fit(self.config.kernel, MeanSpec("constant", 0.0), X, np.array(self.f[: n - 1]), 0.0)
        # final step: maximize the interpolant over the candidates
        mean_on_cand = np.stack(self.cols[: n - 1], axis=1) @ model.dual
        x_final = cpts[int(np.argmax(mean_on_cand))]
        f_cand = np.asarray(eval_target(self.target, cpts), dtype=float)
        ref = gen_grid(REFERENCE_RESOLUTION, cand.domain) if cand.domain.dim == 1 else cand
        f_ref = np.asarray(eval_target(self.target, ref.points), dtype=float)
        f_final = float(eval_target(self.target, x_final))
        slacks = self.slacks[: n - 2]
        return BOResult(
            x_final=np.asarray(x_final, dtype=float),
            regret=float(f_ref.max() - f_final),
            regret_candidates=float(f_cand.max() - f_final),
            trace=self.trace[: n - 2],
            selected=X,
            sup_error_final=float(np.abs(f_cand - mean_on_cand).max()),
            certificate_ok=all(s <= 1e-10 for s in slacks),
            certificate_slack=float(max([0.0] + slacks)),
        )


def run_gamma_F_n(target: TargetSpec, config: BOConfig) -> BOTrajectory:
    """Run the stabilized strategy on noiseless evaluations of the target.

    The trace records, per step: the chosen point, its target value, the
    stabilization threshold, the posterior sd at the chosen point, the
    acquisition value, and the mesh ratio of the points selected so far
    (probe-grid fill distance over the candidate domain).
    """
    cand = config.candidates
    cpts = cand.points
    A = config.kernel.amplitude
    newton = NewtonBasis(A, len(cpts), config.n - 1, eps=DEFAULT_JITTER_FACTOR * A)
    run = BOTrajectory(target, config, chosen=[], f=[], cols=[], trace=[], slacks=[])

    def choose(j: int) -> None:
        # selected points are always candidates, so the candidate-by-selected
        # cross-covariance grows by one cached column per step
        run.chosen.append(j)
        run.cols.append(cross_matrix(config.kernel, cpts, cpts[j][None, :])[:, 0])
        run.f.append(float(eval_target(target, cpts[j])))
        newton.add(j, run.cols[-1], run.f[-1])

    choose(0)
    for step in range(2, config.n):
        mean = newton.mean()
        sd = np.sqrt(newton.power)
        threshold = config.gamma * sd.max()
        acq = expected_improvement(mean, sd, max(run.f))
        masked = np.where(sd >= threshold, acq, -np.inf)
        j = int(np.argmax(masked))  # first maximizer wins ties
        run.slacks.append(threshold - sd[j])
        choose(j)
        sel = PointSet(cpts[run.chosen], cand.domain)
        h, _ = fill_distance(sel)
        run.trace.append(
            {
                "step": step,
                "x": [float(v) for v in cpts[j]],
                "f": run.f[-1],
                "threshold": float(threshold),
                "sd": float(sd[j]),
                "acquisition": float(acq[j]),
                "rho_so_far": h / separation_radius(sel),
            }
        )
    return run
