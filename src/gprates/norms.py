"""Discretized L^q error norms on tensor midpoint grids, and the integral oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import Domain, gen_grid
from .errors import ConfigurationError
from .fitting import PosteriorModel, posterior_mean
from .targets import TargetSpec, eval_target

DEFAULT_EVAL_RESOLUTION = {1: 4096, 2: 256, 3: 48}


@dataclass(frozen=True)
class EvalGrid:
    """Tensor midpoint grid with uniform cell-volume weights."""

    domain: Domain
    resolution: int
    points: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.points.shape[0]


def make_grid(domain: Domain, resolution: int | None = None) -> EvalGrid:
    res = resolution or DEFAULT_EVAL_RESOLUTION.get(domain.dim, 16)
    pts = gen_grid(res, domain).points
    w = np.full(pts.shape[0], domain.volume / pts.shape[0])
    return EvalGrid(domain=domain, resolution=res, points=pts, weights=w)


def parse_q(q) -> float:
    """The error-norm exponent as a float: 1, 2 or inf (given as a number or a string)."""
    qf = float(q)
    if qf not in (1.0, 2.0, float("inf")):
        raise ConfigurationError(f"q must be 1, 2 or inf, got {q!r}")
    return qf


def lq_norm(values, q, grid: EvalGrid) -> float:
    """``(sum_i w_i |v_i|^q)^(1/q)`` of values on the grid, or ``max |v_i|`` for q = inf."""
    qf = parse_q(q)
    diff = np.abs(values)
    if qf == float("inf"):
        return float(diff.max())
    return float(np.sum(grid.weights * diff ** qf) ** (1.0 / qf))


def lq_error(t: TargetSpec, model: PosteriorModel, q, grid: EvalGrid) -> float:
    """``(sum_i w_i |f - R|^q)^(1/q)``, or the grid max for q = inf."""
    return lq_norm(
        np.asarray(eval_target(t, grid.points)) - posterior_mean(model, grid.points), q, grid
    )


def residual_norm(t: TargetSpec, model: PosteriorModel) -> float:
    """l2 norm of ``f - posterior_mean`` over the design points."""
    pts = model.design.points
    diff = np.asarray(eval_target(t, pts)) - posterior_mean(model, pts)
    return float(np.linalg.norm(diff))


def integrate(g, p, grid: EvalGrid) -> float:
    """Midpoint rule ``sum_i w_i g(x_i) p(x_i)``; ``g``/``p`` may be callables,
    constants, or precomputed arrays on the grid."""

    def values(obj):
        if callable(obj):
            return np.asarray(obj(grid.points), dtype=float).reshape(grid.size)
        arr = np.asarray(obj, dtype=float)
        if arr.ndim == 0:
            return np.full(grid.size, float(arr))
        return arr.reshape(grid.size)

    return float(np.sum(grid.weights * values(g) * values(p)))
