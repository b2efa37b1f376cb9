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
interpolation jitter) gives the posterior sd on every candidate, and the
mean and expected improvement only on the stabilized set: the pick is the
first maximizer there, so scoring every candidate would change nothing.
Only each budget's final step calls ``fit``, and it predicts on the
candidates through ``fitting.posterior_mean``.  Each selected point's kernel
column is a view of the candidates' ``kernels.lattice_table`` from
``designs.lattice_columns``, as ``designs.gen_p_greedy``'s are, when the
candidates have one (every 1-d dyadic grid: a7's 4096 midpoints take one
table of 4096 kernel values); other candidates (2-d, off a dyadic lattice)
take a ``DistanceTable``, which evaluates the kernel once per distinct
candidate distance.  The Newton basis reads each column once, and no column
is kept.  The final step's Gram matrix and its prediction on the candidates
read the same table, so a run on a dyadic grid evaluates the kernel once,
on the table's offsets, whatever its budgets.  A ``designs.MeshRatioTracker``
updates the mesh ratio with each selected point.  Every kernel column, mean,
sd, acquisition and trace value is bitwise what the direct computation on
every candidate gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular  # noqa: F401  (perfbench/layers.py traces it here)
from scipy.special import ndtr

from .designs import (
    LatticeColumns, MeshRatioTracker, NewtonBasis, PointSet, gen_grid, lattice_columns,
)
from .errors import ConfigurationError
from .fitting import DEFAULT_JITTER_FACTOR, MeanSpec, fit, posterior_mean
from .kernels import KernelSpec, distances, matern_of_r
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
    """E[(g(x) - best)_+] under the pointwise Gaussian posterior.

    The standard normal cdf and pdf are ``scipy.special.ndtr`` and
    ``exp(-z^2/2) / sqrt(2 pi)``, which is how ``scipy.stats.norm`` computes
    them; importing ``scipy.stats`` itself would cost most of start-up.

    Where ``sd > 0`` this is ``gap Phi(z) + sd phi(z)``, with ``gap = mean - best``
    and ``z = gap / sd``, and elsewhere ``max(gap, 0)``.  It is formed in one
    pass, in place, by the operations of that masked formula, so the values
    are bitwise the formula's.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    gap = mean - best
    positive = sd > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.divide(gap, sd, out=np.zeros_like(gap), where=positive)
    pdf = np.square(z)
    np.negative(pdf, out=pdf)
    pdf /= 2.0
    np.exp(pdf, out=pdf)
    pdf /= np.sqrt(2 * np.pi)
    pdf *= sd
    ei = ndtr(z, out=z)
    ei *= gap
    ei += pdf
    np.maximum(gap, 0.0, out=ei, where=~positive)
    return ei


class DistanceTable:
    """Kernel columns ``k(cand, cand[j])`` over fixed candidates, one kernel value per distance.

    A sorted table maps every candidate distance seen so far to its
    ``matern_of_r`` value.  A column looks its distances up with
    ``searchsorted`` and evaluates the kernel only on the distinct distances
    new to the table.  ``matern_of_r`` is elementwise, so every column is
    bitwise ``cross_matrix(spec, cand, cand[j])[:, 0]``.  The table ends in
    an infinite distance, which no two candidates have, so every lookup
    lands inside it.
    """

    def __init__(self, spec: KernelSpec, points: np.ndarray):
        self.spec = spec
        self.points = points
        self.r = np.array([np.inf])
        self.k = np.array([0.0])

    def column(self, j: int) -> np.ndarray:
        r = distances(self.points, self.points[j : j + 1])[:, 0]
        at = np.searchsorted(self.r, r)
        new = np.unique(r[self.r[at] != r])
        if new.size:
            where = np.searchsorted(self.r, new)
            self.r = np.insert(self.r, where, new)
            self.k = np.insert(self.k, where, matern_of_r(self.spec, new))
            at = np.searchsorted(self.r, r)
        return self.k[at]


@dataclass
class BOTrajectory:
    """One run of the strategy to budget ``config.n``.

    ``chosen`` holds the candidate indices of the n-1 selected points (the
    first candidate, then one per trace row).  ``f_cand`` is the target on
    every candidate and ``f_ref_max`` its maximum on the reference grid;
    every budget reads its target values from them.  ``columns`` is the
    loop's ``designs.LatticeColumns`` (None when the candidates have no
    table); no kernel column is kept.  A budget's final fit reads its Gram
    matrix and its prediction on the candidates from that table.
    """

    config: BOConfig
    f_cand: np.ndarray
    f_ref_max: float
    columns: LatticeColumns | None
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
        gram_table = cross_table = None
        if self.columns:  # X against X, and the candidates against X
            gram_table = self.columns.table(chosen, chosen)
            cross_table = self.columns.table(np.arange(len(cand)), chosen)
        model = fit(self.config.kernel, MeanSpec("constant", 0.0), X, self.f_cand[chosen], 0.0,
                    table=gram_table)
        # final step: maximize the interpolant over the candidates
        mean_on_cand = posterior_mean(model, cand.points, table=cross_table)
        final = int(np.argmax(mean_on_cand))
        regret_candidates = float(self.f_cand.max() - self.f_cand[final])
        sup_error = float(np.abs(self.f_cand - mean_on_cand).max())
        trace = self.trace[: n - 2]
        slacks = self.slacks[: n - 2]
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
    ``designs.lattice_columns`` (a view of the candidates' table) or a
    ``DistanceTable``, so ``matern_of_r`` runs once per lattice offset or
    distinct candidate distance, not once per column, and the column is
    bitwise the ``cross_matrix`` column.

    Each step forms the posterior sd on every candidate, but the mean and
    the expected improvement only on the stabilized set ``eligible``
    (``NewtonBasis.mean`` on the runs of 8-row groups that hold it).  The
    pick is the first maximizer over that set, so the picks, and the mean,
    sd and acquisition at each, are bitwise those of scoring every
    candidate.  One ``MeshRatioTracker`` takes each point as it is
    selected: the fill distance over separation radius of each selected
    prefix.  Every target value is read from ``f_cand``.
    """
    cand = config.candidates
    cpts = cand.points
    m = len(cpts)
    A = config.kernel.amplitude
    newton = NewtonBasis(A, m, config.n - 1, eps=DEFAULT_JITTER_FACTOR * A)
    columns = lattice_columns(config.kernel, cpts)
    column_of = columns or DistanceTable(config.kernel, cpts).column
    mesh = MeshRatioTracker(cand.domain)
    ref = gen_grid(REFERENCE_RESOLUTION, cand.domain).points if cand.domain.dim == 1 else cpts
    run = BOTrajectory(config, eval_target(target, cpts), float(np.max(eval_target(target, ref))),
                       columns)

    def choose(j: int) -> None:
        # selected points are candidates: the basis grows by their own column
        run.chosen.append(j)
        newton.add(j, column_of(j), run.f_cand[j])
        mesh.add(cpts[j])

    choose(0)
    best = run.f_cand[0]
    mean = np.empty(m)
    for step in range(2, config.n):
        sd = np.sqrt(newton.power)
        threshold = config.gamma * sd.max()
        eligible = np.flatnonzero(sd >= threshold)
        newton.mean(eligible, out=mean)
        acq = expected_improvement(mean[eligible], sd[eligible], best)
        i = int(np.argmax(acq))  # first maximizer wins ties
        j = int(eligible[i])
        run.slacks.append(threshold - sd[j])
        choose(j)
        best = np.maximum(best, run.f_cand[j])  # the best value selected so far
        run.trace.append(
            {
                "step": step,
                "x": [float(v) for v in cpts[j]],
                "f": float(run.f_cand[j]),
                "threshold": float(threshold),
                "sd": float(sd[j]),
                "acquisition": float(acq[i]),
                "rho_so_far": mesh.ratio(),
            }
        )
    return run
