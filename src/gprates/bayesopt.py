"""Variance-stabilized Bayesian optimization over a finite candidate grid.

The strategy with budget n picks the first point as the first candidate,
points 2..n-1 by maximizing expected improvement over the stabilized candidate
set (posterior sd at least ``gamma`` times its maximum over candidates,
which forces exploration and keeps the selected set quasi-uniform), and the
final point as the maximizer of the interpolant built on the first n-1
points.  Simple regret is measured against a fine reference grid.

The selection rule never looks at n, so every budget is a prefix of one
trajectory: ``run_gamma_F_n`` runs it once to the largest budget, evaluating
the target on the candidates and the reference grid once, and
``BOTrajectory.result(n)`` finishes any budget from its first n-1 points and
returns its record.  Every selected and final point's value is read from the
one evaluation on the candidates, so the candidate regret is never negative.

The loop repeats no work and scores only what its pick reads.  One
incremental Newton basis (``designs.NewtonBasis``, with ``fit``'s
interpolation jitter) keeps the posterior variance and mean on every
candidate and updates both with each new basis column, so a step forms one
product with the basis: the one that makes that column.  Expected
improvement is formed only on the stabilized set: the pick is the first
maximizer there, so scoring every candidate would change nothing.  Apart
from the basis update, a step makes a fixed handful of passes over the
candidates (the sd into one buffer, its maximum, the stabilized mask and
its indices) and otherwise touches only the stabilized set: one gather each
of its sd and mean, a check that every sd there is positive, and expected
improvement.  Only each budget's final step calls ``fit``, and it predicts
on the candidates through ``fitting.posterior_mean``.  The Newton basis
reads each kernel column once from ``kernels.kernel_columns`` and keeps
none; on a 1-d dyadic grid (a7's 4096 midpoints) ``kernels`` then holds
the candidates' lattice table, and the final steps' Gram matrices and
predictions read it too, so the kernel is evaluated once, whatever the
budgets.  A ``designs.MeshRatioTracker`` updates the mesh ratio with each
selected point.  Every kernel column, sd, threshold and mesh ratio is
bitwise what the direct computation on every candidate gives.  The mean is
the Newton form's sum ``sum_l z_l basis[:, l]`` in pick order, so it and
the acquisition differ from the whole product ``basis @ z`` only by the
rounding of a k-term sum.

Kernel values are checked as ``fit`` checks its Gram matrix: formed with
floating-point warnings off, then required finite.  A kernel that leaves
the float range on the candidates (a lengthscale far below their spacing,
a domain far wider than the lengthscale) and a posterior variance that
turns NaN or vanishes on every candidate (an amplitude so small that the
jitter underflows to zero and a pivot vanishes) each raise a
``ConfigurationError`` before any file is written.  A pick of a candidate
already selected (its sd, which the jitter keeps near ``sqrt(jitter)``, has
reached the stabilization threshold) is a singular design: it raises a
``SingularDesignError``, and so does a zero sd on the stabilized set, which
only a threshold of 0 admits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular  # noqa: F401  (perfbench/layers.py traces it here)
from scipy.special import ndtr

from .designs import MeshRatioTracker, NewtonBasis, PointSet, gen_grid
from .errors import ConfigurationError, SingularDesignError
from .fitting import DEFAULT_JITTER_FACTOR, MeanSpec, fit, posterior_mean
from .kernels import KernelSpec, kernel_columns
from .targets import TargetSpec, eval_target

REFERENCE_RESOLUTION = 65536
_SQRT_2PI = np.sqrt(2 * np.pi)


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
        if self.n - 1 > len(self.candidates):
            raise ConfigurationError(
                f"budget {self.n} selects {self.n - 1} points, but there are only "
                f"{len(self.candidates)} candidates"
            )
        if not self.kernel.tau > self.kernel.dim / 2 + 1:
            raise ConfigurationError(
                "stabilized selection requires tau > d/2 + 1 "
                f"(got tau = {self.kernel.tau}, d = {self.kernel.dim})"
            )


def expected_improvement(mean, sd, best: float):
    """E[(g(x) - best)_+] under the pointwise Gaussian posterior, for every sd positive.

    This is ``gap Phi(z) + sd phi(z)``, with ``gap = mean - best`` and
    ``z = gap / sd``.  The standard normal cdf and pdf are
    ``scipy.special.ndtr`` and ``exp(-z^2/2) / sqrt(2 pi)``, which is how
    ``scipy.stats.norm`` computes them; importing ``scipy.stats`` itself
    would cost most of start-up.  It is formed in one pass, in place
    (``-z^2 / 2`` is formed as ``z^2 * -0.5``: both are the correctly
    rounded ``-z^2 / 2``).  The caller guarantees the precondition: a BO
    step scores only its stabilized set, whose sd it has checked positive.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    gap = mean - best
    z = gap / sd
    pdf = np.square(z)
    pdf *= -0.5
    np.exp(pdf, out=pdf)
    pdf /= _SQRT_2PI
    pdf *= sd
    ei = ndtr(z, out=z)
    ei *= gap
    ei += pdf
    return ei


@dataclass
class BOTrajectory:
    """One run of the strategy to budget ``config.n``.

    ``chosen`` holds the candidate indices of the n-1 selected points (the
    first candidate, then one per trace row).  ``f_cand`` is the target on
    every candidate and ``f_ref_max`` its maximum on the reference grid;
    every budget reads its target values from them; no kernel column is
    kept.
    """

    config: BOConfig
    f_cand: np.ndarray
    f_ref_max: float
    chosen: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    slacks: list = field(default_factory=list)

    def result(self, n: int) -> dict:
        """The record of budget ``n``: the first n-1 points, then its final step."""
        if not 2 <= n <= self.config.n:
            raise ConfigurationError(f"budget {n} outside [2, {self.config.n}]")
        cand = self.config.candidates
        chosen = np.array(self.chosen[: n - 1])
        X = PointSet(cand.points[chosen], cand.domain)
        model = fit(self.config.kernel, MeanSpec("constant", 0.0), X, self.f_cand[chosen], 0.0)
        # final step: maximize the interpolant over the candidates
        mean_on_cand = posterior_mean(model, cand.points)
        final = int(np.argmax(mean_on_cand))
        regret_candidates = float(self.f_cand.max() - self.f_cand[final])
        sup_error = float(np.abs(self.f_cand - mean_on_cand).max())
        trace, slacks = self.trace[: n - 2], self.slacks[: n - 2]
        return {
            "n": n,
            "regret": float(self.f_ref_max - self.f_cand[final]),
            "regret_candidates": regret_candidates,
            # the last trace row measured the same n-1 points
            "rho_selected": trace[-1]["rho_so_far"] if trace else float("nan"),
            "certificate_ok": all(s <= 1e-10 for s in slacks),
            "certificate_slack": float(max([0.0] + slacks)),
            "sup_error": sup_error,
            "proof_inequality_ok": bool(regret_candidates <= 2.0 * sup_error + 1e-12),
            "x_final": [float(v) for v in cand.points[final]],
            "trace": trace,
        }


def run_gamma_F_n(target: TargetSpec, config: BOConfig) -> BOTrajectory:
    """Run the stabilized strategy on noiseless evaluations of the target.

    The trace records, per step: the chosen point, its target value, the
    stabilization threshold, the posterior sd at the chosen point, the
    acquisition value, and the mesh ratio of the points selected so far
    (probe-grid fill distance over the candidate domain).

    Each selected point's kernel column comes from
    ``kernels.kernel_columns``: a view of the candidates' table, so
    ``matern_of_r`` runs once per lattice offset, not once per column, or,
    without a table, a ``cross_matrix`` column; either is checked finite.
    The last selected point is not added to the Newton basis: nothing reads it.

    Each step writes the posterior sd on every candidate into one buffer,
    takes its maximum and the stabilized set ``eligible`` from it, and
    gathers ``sd[eligible]`` and ``newton.mean[eligible]`` once; expected
    improvement is formed only there, and needs every sd there positive.
    The largest sd is checked positive and finite, and stabilized sd are at
    least the threshold, so only a threshold that rounds to 0 (``gamma``
    5e-324) can admit a zero sd.  The step checks the sd, not the threshold:
    such a threshold with every sd positive runs on.  The pick is the first
    maximizer over that set, so it is the pick of scoring every candidate
    with the same mean.  One ``MeshRatioTracker`` takes each point as it is
    selected: the fill distance over separation radius of each selected
    prefix.  Every target value is read from ``f_cand``.

    Raises ``ConfigurationError`` if a kernel value on the candidates is
    not finite, or if the posterior variance turns NaN or vanishes on every
    candidate, and ``SingularDesignError`` if a stabilized sd is zero or a
    step picks a candidate already selected.
    """
    cand = config.candidates
    cpts = cand.points
    m = len(cpts)
    spec = config.kernel
    newton = NewtonBasis(spec.amplitude, m, config.n - 1, eps=DEFAULT_JITTER_FACTOR * spec.amplitude)
    mesh = MeshRatioTracker(cand.domain)
    ref = gen_grid(REFERENCE_RESOLUTION, cand.domain).points if cand.domain.dim == 1 else cpts
    f_cand = eval_target(target, cpts)
    f_ref_max = float(np.max(eval_target(target, ref)))
    column_of = kernel_columns(spec, cpts)
    run = BOTrajectory(config, f_cand, f_ref_max)

    def choose(j: int) -> None:
        # selected points are candidates: the basis grows by their own column
        run.chosen.append(j)
        if len(run.chosen) < config.n - 1:  # nothing reads the basis after the last pick
            newton.add(j, column_of(j), f_cand[j])
        mesh.add(cpts[j])

    # posterior variances past the float range are checked, not warned of
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        choose(0)
        best = f_cand[0]
        sd, stable = np.empty(m), np.empty(m, dtype=bool)
        for step in range(2, config.n):
            top = np.sqrt(newton.power, out=sd).max()
            if not 0 < top < math.inf:  # NaN if any sd is, 0 if every variance underflowed
                raise ConfigurationError(
                    f"largest posterior sd {float(top)} after {step - 1} points: kernel.amplitude "
                    f"{spec.amplitude!r} or kernel.lengthscale {spec.lengthscale!r}")
            threshold = config.gamma * top
            eligible = np.flatnonzero(np.greater_equal(sd, threshold, out=stable))
            sd_eligible = sd[eligible]
            if not sd_eligible.min() > 0:  # expected_improvement's precondition
                j = int(eligible[np.argmin(sd_eligible)])
                raise SingularDesignError(
                    f"step {step} would score candidate {j} ({cpts[j].tolist()}) at posterior "
                    f"sd 0: the threshold {threshold:.3e} admits it")
            acq = expected_improvement(newton.mean[eligible], sd_eligible, best)
            i = int(np.argmax(acq))  # first maximizer wins ties
            j = int(eligible[i])
            if j in run.chosen:
                raise SingularDesignError(
                    f"step {step} picked candidate {j} ({cpts[j].tolist()}) again: its "
                    f"posterior sd {sd_eligible[i]:.3e} reached the threshold {threshold:.3e}")
            run.slacks.append(threshold - sd_eligible[i])
            choose(j)
            best = np.maximum(best, f_cand[j])  # the best value selected so far
            run.trace.append(
                {
                    "step": step,
                    "x": cpts[j].tolist(),
                    "f": float(f_cand[j]),
                    "threshold": float(threshold),
                    "sd": float(sd_eligible[i]),
                    "acquisition": float(acq[i]),
                    "rho_so_far": mesh.ratio(),
                }
            )
    return run
