"""Conditioning: the unified approximant and RKHS norms.

``fit`` solves the regularized kernel system ``(K + lambda I) w = y - m_X``
by one Cholesky factorization; ``y`` may hold r columns of observations at
the same design (noise replicates), and the one factor solves for all of
them.  The fitted model keeps only what prediction reads, the dual weights
``w``; it is immutable and its predictors are pure functions.
``lambda = 0`` is interpolation and gets a small diagonal jitter (escalated
on factorization failure, and recorded, since a large jitter technically
shifts the estimator toward approximate interpolation).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .designs import PointSet
from .errors import ConfigurationError, SingularDesignError
from .kernels import (
    KernelSpec, as_points, cross_matrix, distances, gram, lattice_table, row_blocks,
    table_blocks, work_arrays,
)

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
    """Immutable fitted state: the dual weights ``(K + (lambda + jitter) I)^{-1} (y - m_X)``.

    ``dual`` has shape (n,) for one fit, or (n, r) for r fits that share
    the design.  ``jitter`` is the diagonal jitter the factorization used.
    """

    kernel: KernelSpec
    prior_mean: MeanSpec
    design: PointSet
    dual: np.ndarray
    jitter: float

    def replicate(self, k: int) -> "PosteriorModel":
        """The fit to column ``k`` of the observations alone."""
        return replace(self, dual=self.dual[:, k])


def _closest_pair(pts: np.ndarray):
    d = distances(pts, pts)
    d[np.diag_indices(len(pts))] = np.inf
    i, j = np.unravel_index(int(np.argmin(d)), d.shape)
    return i, j, float(d[i, j])


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

    ``K`` is factored in place: ``lam + jitter`` is added to its diagonal
    (bitwise ``K + (lam + jitter) I``) and LAPACK overwrites its lower
    triangle with the factor, which ``cho_solve`` reads alone; ``K`` is the
    only n x n array, and the model does not keep it.  A failed
    factorization has overwritten ``K``, so ``K`` is rebuilt before the next
    jitter step.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        y = y.reshape(-1)
    if len(y) != len(X):
        raise ConfigurationError(f"got {len(y)} observations for {len(X)} points")
    if lam < 0:
        raise ConfigurationError(f"lambda must be nonnegative, got {lam}")
    n = len(X)
    A = kernel.amplitude
    # jitter ladder: none needed when lam > 0, else start at 1e-10*A and
    # escalate by 100x up to 1e-6*A before giving up
    ladder = [0.0] if lam > 0 else []
    ladder += [f * A for f in (DEFAULT_JITTER_FACTOR, 1e-8, MAX_JITTER_FACTOR)]
    L = None
    jitter = ladder[0]
    for jitter in ladder:
        K = gram(kernel, X)
        K[np.diag_indices(n)] += lam + jitter
        try:
            # K is exactly symmetric, so K.T is K in Fortran order, which
            # LAPACK factors in place without a copy.
            L, _ = cho_factor(K.T, lower=True, overwrite_a=True)
            break
        except np.linalg.LinAlgError:
            logger.warning("cholesky failed at jitter %.1e, escalating", jitter)
    if L is None:
        i, j, d = _closest_pair(X.points)
        raise SingularDesignError(
            f"Cholesky failed up to jitter {MAX_JITTER_FACTOR * A:.1e}; closest "
            f"design pair is ({i}, {j}) at distance {d:.3e}"
        )
    if jitter > DEFAULT_JITTER_FACTOR * A:
        logger.warning("fit used escalated jitter %.1e", jitter)
    m_X = prior_mean(X.points)
    dual = cho_solve((L, True), y - (m_X[:, None] if y.ndim == 2 else m_X))
    return PosteriorModel(
        kernel=kernel,
        prior_mean=prior_mean,
        design=X,
        dual=dual,
        jitter=float(jitter),
    )


def _cross_blocks(kernel: KernelSpec, xq: np.ndarray, design: np.ndarray):
    """``(rows, block)`` of the cross matrix of ``xq`` against ``design``, in
    blocks of ``row_block(n)`` rows evaluated by ``cross_matrix`` into the
    buffers of :func:`row_blocks`."""
    for rows, (Kq, *work) in row_blocks(len(xq), len(design), 2 + work_arrays(kernel)):
        yield rows, cross_matrix(kernel, xq[rows], design, out=Kq, work=work)


def posterior_mean(model: PosteriorModel, x) -> np.ndarray:
    """``m(x) + k_xX (K + lambda I)^{-1} (y - m_X)`` at a batch of m queries.

    The result has shape (m,) for one fit, or (m, r) for a model fitted to
    r columns: one column of means per fit.  The query rows are streamed in
    blocks of ``row_block(n)``, and each block's cross matrix serves every
    column.  Each block lives in buffers allocated once per call, so memory
    stays within 9/8 of one block (plus the distances and work arrays of the
    direct path) whatever the number of queries, and 8192 queries against
    512 points take 256 minor page faults instead of the 14,592 of one
    fresh temporary per block.  The prior mean is written
    into the result first and each block's product added to it, the same
    sum as ``m(x) + k_xX w`` in either order.

    When the queries and the design are 1-d and lie on one small dyadic
    lattice (:func:`kernels.lattice_table`), the kernel is evaluated once per
    lattice offset, and the blocks are read from that table by
    :func:`kernels.table_blocks`.  A grid of queries against a grid design
    (two progressions, steps ``s_a`` and ``s_b``) reads each block as a
    column slice of a strip window: block k + 1 is block k moved
    ``M = h s_a / s_b`` columns, so when ``M`` is a whole number, up to
    ``1 + n // (8 |M|)`` full blocks share one window of the table, copied
    once, and each goes to gemv as a view with row stride at least n.  Other
    lattice sets (P-greedy designs) gather each block through integer
    offsets into the block's buffer.  The difference of two lattice points
    is exact, so every block holds the doubles of the direct cross matrix,
    and the gemv, which reads a strided view in place, gives the same bits.
    Any other pair of sets evaluates ``cross_matrix`` block by block.

    Each mean is one row of a matrix-vector product, and a full block gives
    the same bits as the whole product.  A ragged last block (m not a
    multiple of ``row_block(n)``) can round a few rows differently, within
    dot-product rounding; the whole product's value of a row already
    depends on m, so no canonical value is lost.
    """
    xq = as_points(model.kernel.dim, x)
    dual = model.dual if model.dual.ndim == 2 else model.dual[:, None]
    out = np.empty((len(xq), dual.shape[1]))
    out[:] = model.prior_mean(xq)[:, None]
    design = model.design.points
    table = lattice_table(model.kernel, xq, design)
    for rows, Kq in table_blocks(table) if table else _cross_blocks(model.kernel, xq, design):
        # One matrix-vector product per column, never ``Kq @ dual``: a
        # matrix-matrix product rounds differently, and at a nugget near 1e-9
        # that moves the reported errors past 1e-9 relative, so a batched fit
        # would no longer reproduce the one-column fits.
        for k in range(dual.shape[1]):
            out[rows, k] += Kq @ dual[:, k]
    return out[:, 0] if model.dual.ndim == 1 else out


def rkhs_norm_expansion(spec: KernelSpec, centers, alpha) -> float:
    """RKHS norm of the finite expansion ``sum_i alpha_i k(., c_i)``.

    By the reproducing property this is exactly ``sqrt(alpha' K alpha)``;
    a small negative quadratic form from round-off is clamped at zero.
    """
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    K = gram(spec, centers)
    if len(alpha) != K.shape[0]:
        raise ConfigurationError("alpha length must match the number of centers")
    q = float(alpha @ K @ alpha)
    return float(np.sqrt(max(q, 0.0)))


def noise_interpolant_norm(spec: KernelSpec, X, eps) -> float:
    """RKHS norm of the noise interpolant: ``sqrt(eps' K^{-1} eps)``.

    ``K`` carries the interpolation jitter of :func:`fit`, which solves the system.
    """
    eps = np.asarray(eps, dtype=float).reshape(-1)
    q = float(eps @ fit(spec, MeanSpec("constant", 0.0), X, eps).dual)
    return float(np.sqrt(max(q, 0.0)))
