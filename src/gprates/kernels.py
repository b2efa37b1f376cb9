"""Matern kernel evaluation and Gram-matrix construction.

Smoothness is parameterized on the Sobolev scale: a kernel spec with
smoothness ``tau`` has an RKHS norm-equivalent to ``W^tau_2``, and the
classical Matern order is derived as ``nu = tau - dim/2``.  Half-integer
``nu`` dispatches to the closed forms; any other ``nu`` goes through the
modified Bessel function of the second kind.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.special import gamma as _gamma_fn
from scipy.special import kv as _bessel_kv

from .errors import ConfigurationError, SingularGramWarning

_HALF_INTEGER_ORDERS = (0.5, 1.5, 2.5, 3.5)
_HALF_INTEGER_ATOL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Matern family descriptor.

    Parameters
    ----------
    tau : float
        Sobolev smoothness of the RKHS; must exceed ``dim / 2``.
    lengthscale : float
        Correlation length, in the same units as the inputs.
    amplitude : float
        Signal variance scale; ``k(x, x) = amplitude``.
    dim : int
        Input dimension.
    """

    tau: float
    lengthscale: float = 1.0
    amplitude: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1 or int(self.dim) != self.dim:
            raise ConfigurationError(f"dim must be a positive integer, got {self.dim}")
        if not self.tau > self.dim / 2:
            raise ConfigurationError(
                f"tau must exceed dim/2 = {self.dim / 2} for the RKHS to contain "
                f"continuous functions, got tau = {self.tau}"
            )
        if not self.lengthscale > 0:
            raise ConfigurationError(f"lengthscale must be positive, got {self.lengthscale}")
        if not self.amplitude > 0:
            raise ConfigurationError(f"amplitude must be positive, got {self.amplitude}")

    @property
    def nu(self) -> float:
        """Matern order ``tau - dim/2``; always positive."""
        return self.tau - self.dim / 2

    @property
    def is_half_integer(self) -> bool:
        """True iff ``nu`` is one of 1/2, 3/2, 5/2, 7/2 (closed-form fast path)."""
        return any(abs(self.nu - h) <= _HALF_INTEGER_ATOL for h in _HALF_INTEGER_ORDERS)


def matern_of_r(spec: KernelSpec, r, use_bessel: bool = False) -> np.ndarray:
    """Evaluate the kernel profile at distances ``r >= 0`` (vectorized).

    ``use_bessel`` forces the general Bessel-K path even for half-integer
    orders; the property tests use it as the independent oracle for the
    closed forms.
    """
    r = np.asarray(r, dtype=float)
    nu = spec.nu
    A = spec.amplitude
    t = np.sqrt(2.0 * nu) * r / spec.lengthscale
    if not use_bessel and spec.is_half_integer:
        if abs(nu - 0.5) <= _HALF_INTEGER_ATOL:
            return A * np.exp(-t)
        if abs(nu - 1.5) <= _HALF_INTEGER_ATOL:
            return A * (1.0 + t) * np.exp(-t)
        if abs(nu - 2.5) <= _HALF_INTEGER_ATOL:
            return A * (1.0 + t + t * t / 3.0) * np.exp(-t)
        # nu = 7/2
        return A * (1.0 + t + 0.4 * t * t + t ** 3 / 15.0) * np.exp(-t)
    # General order.  The displayed formula is 0 * inf at r = 0; the limit is
    # the amplitude, so coincident points are handled analytically.
    out = np.full_like(t, A)
    pos = t > 0
    tp = t[pos]
    out[pos] = A * (2.0 ** (1.0 - nu) / _gamma_fn(nu)) * tp ** nu * _bessel_kv(nu, tp)
    return out


def matern_eval(spec: KernelSpec, x, y) -> float:
    """Kernel value ``k(x, y)`` for two points of dimension ``spec.dim``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != (spec.dim,) or y.shape != (spec.dim,):
        raise ConfigurationError(
            f"points must have dimension {spec.dim}, got shapes {x.shape} and {y.shape}"
        )
    r = np.linalg.norm(x - y)
    return float(matern_of_r(spec, r))


def as_points(dim: int, x):
    """Normalize points to an ``(n, dim)`` batch; flag whether ``x`` denoted one point.

    Accepts a point set, a scalar (dim 1), one point of length ``dim``, a 1-d
    batch of scalars (dim 1) or an ``(n, dim)`` array.
    """
    x = np.asarray(getattr(x, "points", x), dtype=float)
    if x.ndim == 0:
        if dim != 1:
            raise ConfigurationError(f"scalar query for a {dim}-dimensional kernel")
        return x.reshape(1, 1), True
    if x.ndim == 1:
        if x.size == dim:
            return x[None, :], True
        if dim == 1:
            return x[:, None], False
        raise ConfigurationError(f"1-d query of length {x.size} for dim {dim}")
    if x.shape[1] != dim:
        raise ConfigurationError(f"points have dimension {x.shape[1]}, expected {dim}")
    return x, False


def gram(spec: KernelSpec, X, jitter: float = 0.0) -> np.ndarray:
    """Kernel matrix ``K[i, j] = k(x_i, x_j) + jitter * 1[i == j]``.

    The upper triangle is computed and mirrored, so the result is exactly
    symmetric.  Duplicate points with zero jitter make the matrix singular;
    a :class:`SingularGramWarning` is emitted and the matrix still returned.
    """
    pts, _ = as_points(spec.dim, X)
    if pts.shape[0] == 0:
        raise ConfigurationError("gram requires a nonempty point set")
    if jitter < 0:
        raise ConfigurationError(f"jitter must be nonnegative, got {jitter}")
    n = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    iu = np.triu_indices(n)
    K = np.zeros((n, n))
    K[iu] = matern_of_r(spec, r[iu])
    K = K + np.triu(K, 1).T
    if jitter == 0.0 and n > 1:
        ir, ic = np.triu_indices(n, k=1)
        if np.any(r[ir, ic] == 0.0):
            warnings.warn(
                "duplicate points with jitter=0 give a singular Gram matrix",
                SingularGramWarning,
                stacklevel=2,
            )
    if jitter > 0.0:
        K[np.diag_indices(n)] += jitter
    return K


def cross_matrix(spec: KernelSpec, Xq, X) -> np.ndarray:
    """Cross-covariance ``K[i, j] = k(xq_i, x_j)`` for batched queries."""
    q, _ = as_points(spec.dim, Xq)
    pts, _ = as_points(spec.dim, X)
    diff = q[:, None, :] - pts[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    return matern_of_r(spec, r)


def min_eigenvalue(K: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix via a symmetric eigensolve."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    if not np.allclose(K, K.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(K).max())):
        raise ValueError("matrix is not symmetric")
    vals = eigh(K, eigvals_only=True, subset_by_index=(0, 0))
    return float(vals[0])
