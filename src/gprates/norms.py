"""Discretized L^q error norms on tensor midpoint grids, and the integral oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import Domain, gen_grid
from .errors import ConfigurationError
from .fitting import PosteriorModel, posterior_mean
from .targets import TargetSpec, eval_target

DEFAULT_EVAL_RESOLUTION = {1: 4096, 2: 256, 3: 48}


@dataclass(frozen=True)
class EvalGrid:
    """Tensor midpoint grid; every cell has the volume ``cell_volume``, its weight."""

    domain: Domain
    resolution: int
    points: np.ndarray
    cell_volume: float

    @property
    def size(self) -> int:
        """The number of points, which the benchmark's ``lq_error`` layer counts."""
        return self.points.shape[0]


def make_grid(domain: Domain, resolution: int | None = None) -> EvalGrid:
    res = resolution or DEFAULT_EVAL_RESOLUTION.get(domain.dim, 16)
    pts = gen_grid(res, domain).points
    return EvalGrid(domain, res, pts, cell_volume=domain.volume / pts.shape[0])


def parse_q(q) -> float:
    """The error-norm exponent as a float: 1, 2 or inf (given as a number or a string)."""
    try:
        qf = float(q)
    except (TypeError, ValueError):
        qf = None
    if isinstance(q, bool) or qf not in (1.0, 2.0, float("inf")):
        raise ConfigurationError(f"q must be 1, 2 or inf, got {q!r}")
    return qf


def overflow_safe(norm, values) -> float:
    """``norm(values)`` for a ``norm`` that is positively homogeneous of degree 1.

    When the plain form is not finite but the values are (squares of errors
    near 1e200 overflow), this is ``s * norm(values / s)`` with
    ``s = max |values|``, which is finite; every other call returns the plain
    form, bit for bit.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        plain = norm(values)
    if math.isfinite(plain) or not values.size or not np.isfinite(values).all():
        return plain
    scale = float(np.abs(values).max())
    return float(scale * norm(values / scale))


def lq_norm(values, q, grid: EvalGrid) -> float:
    """``(w sum_i |v_i|^q)^(1/q)``, w the cell volume, or ``max |v_i|`` for q = inf.

    A sum that overflows on finite values is taken scaled by the largest
    (:func:`overflow_safe`)."""
    qf = parse_q(q)
    diff = np.abs(values)
    if qf == float("inf"):
        return float(diff.max())
    return overflow_safe(lambda v: float(np.sum(grid.cell_volume * v ** qf) ** (1.0 / qf)), diff)


def lq_error(t: TargetSpec, model: PosteriorModel, q, grid: EvalGrid) -> float:
    """``(w sum_i |f - R|^q)^(1/q)``, or the grid max for q = inf."""
    return lq_norm(eval_target(t, grid.points) - posterior_mean(model, grid.points), q, grid)


def residual_norm(t: TargetSpec, model: PosteriorModel) -> float:
    """l2 norm of ``f - posterior_mean`` over the design points, overflow-safe."""
    pts = model.design.points
    diff = eval_target(t, pts) - posterior_mean(model, pts)
    return overflow_safe(lambda v: float(np.linalg.norm(v)), diff)


def integrate(g, p, grid: EvalGrid) -> float:
    """Midpoint rule ``w sum_i g_i p_i``, w the cell volume, of two arrays on the grid."""
    return float(np.sum(grid.cell_volume * g * p))
