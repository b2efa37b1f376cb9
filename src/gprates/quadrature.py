"""Quadrature with a fitted posterior mean as the integrand surrogate.

The surrogate integral is computed by the same midpoint oracle as the
ground truth, so grid discretization cancels out of the reported error and
the weights never need closed-form kernel embeddings.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .fitting import PosteriorModel, posterior_mean
from .norms import EvalGrid, integrate

DENSITY_REGISTRY = {
    "uniform": lambda x: np.ones(x.shape[0]),
    # normalized tent on (0,1): 2*(1 - |2x - 1|)
    "tent": lambda x: 2.0 * (1.0 - np.abs(2.0 * x[:, 0] - 1.0)),
}


def density_by_name(name: str):
    if name not in DENSITY_REGISTRY:
        raise ConfigurationError(
            f"unknown density {name!r}; known: {', '.join(sorted(DENSITY_REGISTRY))}"
        )
    return DENSITY_REGISTRY[name]


def bq_estimate(model: PosteriorModel, p, grid: EvalGrid) -> float:
    """Integral of the posterior mean against the density ``p`` on the grid."""
    return integrate(posterior_mean(model, grid.points), p(grid.points), grid)

