"""Conditioning: the unified approximant, posterior variance, and RKHS norms.

``fit`` builds the regularized kernel system ``(K + lambda I) w = y - m_X``
once, by Cholesky factorization; ``y`` may hold r columns of observations at
the same design (noise replicates), and the one factor solves for all of
them.  The fitted model is immutable and its predictors are pure functions.
``lambda = 0`` is interpolation and gets a small diagonal jitter (escalated
on factorization failure, and recorded, since a large jitter technically
shifts the estimator toward approximate interpolation).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .designs import PointSet
from .errors import ConfigurationError, SingularDesignError
from .kernels import KernelSpec, as_points, cross_matrix, gram

logger = logging.getLogger(__name__)

DEFAULT_JITTER_FACTOR = 1e-10
MAX_JITTER_FACTOR = 1e-6


@dataclass(frozen=True)
class MeanSpec:
    """Prior mean: constant, or per-axis polynomial of degree <= 2.

    Smooth means are trivially in every Sobolev class on a bounded domain;
    supplying a mean rough enough to break that is the caller's problem.
    """

    kind: str = "constant"
    value: float = 0.0
    coeffs: tuple = ()  # (c0, c1[d], c2[d]) flattened for kind="polynomial"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "constant":
            return np.full(x.shape[0], self.value)
        if self.kind == "polynomial":
            d = x.shape[1]
            c = np.asarray(self.coeffs, dtype=float)
            if c.size != 1 + 2 * d:
                raise ConfigurationError(
                    f"polynomial mean needs 1 + 2*dim coefficients, got {c.size}"
                )
            return c[0] + x @ c[1 : 1 + d] + (x * x) @ c[1 + d :]
        raise ConfigurationError(f"unknown mean kind {self.kind!r}")


@dataclass(frozen=True)
class PosteriorModel:
    """Immutable fitted state: Cholesky factor of ``K + lambda I`` and dual weights.

    ``y`` and ``dual`` have shape (n,) for one fit, or (n, r) for r fits
    that share the design and hence the factor.
    """

    kernel: KernelSpec
    prior_mean: MeanSpec
    design: PointSet
    lam: float
    y: np.ndarray
    chol: np.ndarray  # lower triangular
    dual: np.ndarray
    jitter: float

    def replicate(self, k: int) -> "PosteriorModel":
        """The fit to column ``k`` of the observations alone; it shares the factor."""
        return replace(self, y=self.y[:, k], dual=self.dual[:, k])


def _closest_pair(pts: np.ndarray):
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    d2[np.diag_indices(len(pts))] = np.inf
    i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
    return i, j, float(np.sqrt(d2[i, j]))


def fit(
    kernel: KernelSpec,
    prior_mean: MeanSpec,
    X: PointSet,
    y,
    lam: float = 0.0,
) -> PosteriorModel:
    """Condition on observations ``y`` at ``X`` with regularization ``lam``.

    ``y`` has shape (n,), or (n, r) for r sets of observations at ``X``; the
    dual weights have the same shape.  Every column is solved with the one
    Cholesky factor, and each column's weights are bitwise those of a fit to
    that column alone.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        y = y.reshape(-1)
    if len(y) != len(X):
        raise ConfigurationError(f"got {len(y)} observations for {len(X)} points")
    if lam < 0:
        raise ConfigurationError(f"lambda must be nonnegative, got {lam}")
    K = gram(kernel, X, jitter=0.0)
    m_X = prior_mean(X.points)
    resid = y - (m_X[:, None] if y.ndim == 2 else m_X)
    n = len(X)
    A = kernel.amplitude
    # jitter ladder: none needed when lam > 0, else start at 1e-10*A and
    # escalate by 100x up to 1e-6*A before giving up
    ladder = [0.0] if lam > 0 else []
    ladder += [f * A for f in (DEFAULT_JITTER_FACTOR, 1e-8, MAX_JITTER_FACTOR)]
    c = low = None
    jitter = ladder[0]
    for jitter in ladder:
        try:
            c, low = cho_factor(K + (lam + jitter) * np.eye(n), lower=True)
            break
        except np.linalg.LinAlgError:
            logger.warning("cholesky failed at jitter %.1e, escalating", jitter)
            c = None
    if c is None:
        i, j, d = _closest_pair(X.points)
        raise SingularDesignError(
            f"Cholesky failed up to jitter {MAX_JITTER_FACTOR * A:.1e}; closest "
            f"design pair is ({i}, {j}) at distance {d:.3e}"
        )
    if jitter > DEFAULT_JITTER_FACTOR * A:
        logger.warning("fit used escalated jitter %.1e", jitter)
    L = np.tril(c)
    dual = cho_solve((c, low), resid)
    return PosteriorModel(
        kernel=kernel,
        prior_mean=prior_mean,
        design=X,
        lam=float(lam),
        y=y,
        chol=L,
        dual=dual,
        jitter=float(jitter),
    )


def posterior_mean(model: PosteriorModel, x) -> np.ndarray | float:
    """``m(x) + k_xX (K + lambda I)^{-1} (y - m_X)``; vectorized over rows of x.

    A model fitted to r columns gives one column of means per fit: shape
    (m, r), or r values for a single point.  The cross matrix is built once.
    """
    xq, single = as_points(model.kernel.dim, x)
    Kq = cross_matrix(model.kernel, xq, model.design)
    m_q = model.prior_mean(xq)
    if model.dual.ndim == 1:
        out = m_q + Kq @ model.dual
        return float(out[0]) if single else out
    # One matrix-vector product per column, never ``Kq @ dual``: a
    # matrix-matrix product rounds differently, and at a nugget near 1e-9
    # that moves the reported errors past 1e-9 relative, so a batched fit
    # would no longer reproduce the one-column fits.
    out = np.column_stack([m_q + Kq @ model.dual[:, k] for k in range(model.dual.shape[1])])
    return out[0] if single else out


def posterior_var(model: PosteriorModel, x) -> np.ndarray | float:
    """``k(x,x) - k_xX (K + lambda I)^{-1} k_Xx``, clamped at zero."""
    xq, single = as_points(model.kernel.dim, x)
    Kq = cross_matrix(model.kernel, xq, model.design)
    V = solve_triangular(model.chol, Kq.T, lower=True)
    raw = model.kernel.amplitude - np.sum(V * V, axis=0)
    mn = raw.min() if raw.size else 0.0
    if mn < -1e-8 * model.kernel.amplitude:
        logger.warning("posterior variance clamped from %.3e to 0", mn)
    out = np.maximum(raw, 0.0)
    return float(out[0]) if single else out


def rkhs_norm_expansion(spec: KernelSpec, centers, alpha) -> float:
    """RKHS norm of the finite expansion ``sum_i alpha_i k(., c_i)``.

    By the reproducing property this is exactly ``sqrt(alpha' K alpha)``;
    a small negative quadratic form from round-off is clamped at zero.
    """
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    K = gram(spec, centers, jitter=0.0)
    if len(alpha) != K.shape[0]:
        raise ConfigurationError("alpha length must match the number of centers")
    q = float(alpha @ K @ alpha)
    return float(np.sqrt(max(q, 0.0)))


def noise_interpolant_norm(spec: KernelSpec, X, eps) -> float:
    """RKHS norm of the noise interpolant: ``sqrt(eps' K^{-1} eps)``."""
    eps = np.asarray(eps, dtype=float).reshape(-1)
    K = gram(spec, X, jitter=DEFAULT_JITTER_FACTOR * spec.amplitude)
    if len(eps) != K.shape[0]:
        raise ConfigurationError("eps length must match the number of points")
    try:
        c, low = cho_factor(K, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("kernel matrix is singular") from exc
    q = float(eps @ cho_solve((c, low), eps))
    return float(np.sqrt(max(q, 0.0)))
