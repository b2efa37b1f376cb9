"""Conditioning: the unified approximant and RKHS norms.

``fit`` solves the regularized kernel system ``(K + lambda I) w = y - m_X``;
``y`` may hold r columns of observations at the same design (noise
replicates), and one solve serves all of them.  It takes one of two
routes.  A ridge fit (``lambda > 0``) of 4 MiB or more on an equally
spaced 1-d design has a Toeplitz ``K + lambda I``; it is solved in O(n^2)
(Levinson's recursion for the first column of the inverse, then the
Gohberg-Semencul formula applied by FFTs in :func:`_toeplitz_solve`) and
kept only if its backward error is certified small.  Every other fit, and
a Toeplitz solve that is not certified, writes its Gram whole and factors
it with ``cho_factor``.  The fitted model keeps only what prediction
reads, the dual weights ``w``, and the route it took.  One vector holds
the Toeplitz blocks of equally spaced 1-d points against such a design
(:func:`_toeplitz_vector`), and one FFT product applies them
(:func:`_toeplitz_product`): in the solve's certificate, and in a
Toeplitz-route model's predictions on such queries; every other prediction
streams kernel blocks through gemv.  The model is immutable and its
predictors are pure functions.  ``lambda = 0`` is interpolation and gets a
small diagonal jitter (escalated on factorization failure, and recorded,
since a large jitter technically shifts the estimator toward approximate
interpolation).

Kernel values come from :mod:`kernels`, which alone decides whether a
block is read from a lattice table or evaluated directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_toeplitz

from .designs import PointSet, closest_pair
from .errors import ConfigurationError, SingularDesignError
from .kernels import KernelSpec, as_points, cross_matrix, gram, kernel_blocks

logger = logging.getLogger(__name__)

DEFAULT_JITTER_FACTOR = 1e-10
MAX_JITTER_FACTOR = 1e-6

# A ridge fit on an equally spaced 1-d design whose Gram would be this many
# bytes or more (n >= 725) is solved as a Toeplitz system (see ``fit``), and
# the model predicts by FFTs where its queries allow (see ``posterior_mean``).
# Smaller ones keep cho_factor's bits and gemv's, to which the benchmark
# holds the recorded errors of a1, a2, a4 and a5 within 1e-9: another
# factorization's rounding moved the 512-point rungs of a1 and a2 by 1.3e-9
# relative and a5 by 1.7e-8.
TOEPLITZ_BYTES = 4 * 2**20


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
    ``route`` is the route :func:`fit` took, ``"toeplitz"`` or
    ``"cholesky"``; on the Toeplitz route the design is equally spaced, so
    :func:`posterior_mean` may form its means by :func:`_toeplitz_product`.
    """

    kernel: KernelSpec
    prior_mean: MeanSpec
    design: PointSet
    dual: np.ndarray
    jitter: float
    route: str = "cholesky"

    def replicate(self, k: int) -> "PosteriorModel":
        """The fit to column ``k`` of the observations: its column of the dual weights."""
        return replace(self, dual=self.dual[:, k])


def _toeplitz_vector(kernel: KernelSpec, A: np.ndarray, B: np.ndarray) -> tuple | None:
    """``(b, v)``: the block ``k(A, B)`` as b Toeplitz matrices in one
    vector, when the 1-d batches ``A`` (m points) and ``B`` (n points) each
    step by one nonzero double and b steps of ``A`` make the step of ``B``
    exactly (1 <= b <= m); else None.

    Phase e of ``A``, ``A[e::b]``, steps as ``B`` does, so its block
    ``T_e = k(A[e::b], B)`` is Toeplitz, set by its first row reversed,
    then its first column: ``v[e::b]``.  ``v`` interleaves the reversed
    rows of ``k(A[:b], B)`` but their first entries, then ends with the
    column ``k(A, B[:1])``; no lattice table is read.  For ``A = B``, b = 1
    and ``v[n - 1:]`` is the Gram's first column.
    """
    if A.shape[1] != 1 or B.shape[1] != 1 or min(len(A), len(B)) < 2:
        return None
    da, db = np.diff(A[:, 0]), np.diff(B[:, 0])
    b = round(db[0] / da[0]) if da[0] != 0 and 1 <= db[0] / da[0] <= len(A) else 0
    if not (b and b * da[0] == db[0] and (da == da[0]).all() and (db == db[0]).all()):
        return None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the fit checks v
        rows = cross_matrix(kernel, A[:b], B)
        column = cross_matrix(kernel, A, B[:1])[:, 0]
    return b, np.r_[rows[:, :0:-1].T.ravel(), column]


def _toeplitz_product(v: np.ndarray, b: int, dual: np.ndarray) -> np.ndarray:
    """``(k(A, B) dual).T``, shape (r, m), for ``(b, v)`` from
    :func:`_toeplitz_vector` and weights ``dual`` of shape (n, r).

    Entries e::b of row k, ``T_e dual[:, k]``, are entries ``n - 1`` on of
    the convolution of ``v[e::b]`` and ``dual[:, k]``: one product of real
    FFTs of a power-of-two length ``N >= ceil(m / b) + n - 1`` (Golub & Van
    Loan, *Matrix Computations*, section 4.7).  The b spectra of ``v`` are
    formed once and the columns taken one at a time, each with one ``rfft``
    that all phases share: each column is bitwise its one-column product,
    and no array of r x N is held.
    """
    n = len(dual)
    m = len(v) - b * (n - 1)
    N = 1 << (-(-m // b) + n - 2).bit_length()
    fft, ifft = np.fft.rfft, np.fft.irfft
    spectra = [fft(v[e::b], N) for e in range(b)]
    out = np.empty((dual.shape[1], m))
    for k in range(dual.shape[1]):
        w = fft(dual[:, k], N)
        for e, spectrum in enumerate(spectra):
            phase = out[k, e::b]
            phase[:] = ifft(spectrum * w, N)[n - 1 : n - 1 + len(phase)]
    return out


def _toeplitz_solve(v: np.ndarray, g: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """``T^{-1} rhs`` for the symmetric Toeplitz ``T`` with vector ``v`` and
    first column ``c = v[n - 1:]``, from ``g = T^{-1} e_1`` with ``g_0 > 0``,
    or None when the result cannot be certified.

    ``T^{-1} = (L(g) L(g)^T - L(h) L(h)^T) / g_0`` with
    ``h = (0, g_{n-1}, ..., g_1)`` and ``L(u)`` the lower triangular Toeplitz
    matrix with first column u (Gohberg & Semencul 1972; Golub & Van Loan,
    *Matrix Computations*, section 4.7).  ``L(u) z`` is the first n entries
    of the convolution of u and z, and ``L(u)^T z`` those of their
    correlation, so each is one product of real FFTs of a power-of-two
    length N >= 2n - 1 (2n for a power-of-two n), taken for every column of
    ``rhs`` at once.  The result ``W`` is accepted only if each column's
    normwise backward error ``|T w - b|_inf / (|T|_inf |w|_inf + |b|_inf)``
    is at most n eps (Rigal & Gaches 1967; Higham 2002, ch. 7).  The
    residual's ``T W`` is :func:`_toeplitz_product` of ``v``, and
    ``|T|_inf``, the largest row sum of ``|c_{|i-j|}|``, comes from the
    cumulative sums of ``|c|``.  Nothing of n x n size is allocated.
    """
    n = len(g)
    N = 1 << (2 * n - 2).bit_length()
    fft, ifft = np.fft.rfft, np.fft.irfft
    G, H = fft(g, N), fft(np.r_[0.0, g[:0:-1]], N)
    B = rhs.reshape(n, -1).T  # one row per column of observations
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite W fails the test
        Z = fft(B, N)
        W = ifft(G * fft(ifft(Z * G.conj(), N)[:, :n], N)
                 - H * fft(ifft(Z * H.conj(), N)[:, :n], N), N)[:, :n] / g[0]
        R = _toeplitz_product(v, 1, W.T) - B
        sums = np.cumsum(np.abs(v[n - 1 :]))
        norm_T = (sums + sums[::-1] - sums[0]).max()
        certified = np.abs(R).max(axis=1) <= n * np.finfo(float).eps * (
            norm_T * np.abs(W).max(axis=1) + np.abs(B).max(axis=1))
    return W.T.reshape(rhs.shape) if certified.all() else None


def _kernel_overflow(kernel: KernelSpec) -> ConfigurationError:
    return ConfigurationError(f"kernel matrix not finite: kernel.amplitude {kernel.amplitude!r} "
                              f"or kernel.lengthscale {kernel.lengthscale!r}")


def _centred(y: np.ndarray, prior_mean: MeanSpec, X: PointSet, overwrite_y: bool) -> np.ndarray:
    """The right-hand side ``y - m_X``, checked finite; a 2-d one in Fortran
    order, in ``y`` itself with ``overwrite_y``."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        m_X = prior_mean(X.points)
        if y.ndim == 2:
            # in LAPACK's column order, one column at a time (a broadcast
            # subtraction buffers its operands), so the solve overwrites it
            rhs = y if overwrite_y else np.empty(y.shape, order="F")
            for k in range(y.shape[1]):
                np.subtract(y[:, k], m_X, out=rhs[:, k])
        else:
            rhs = y - m_X
    if not np.isfinite(rhs).all():
        field = "value" if prior_mean.kind == "constant" else "coeffs"
        raise ConfigurationError("observations minus the prior mean are not finite: "
                                 f"mean.{field} {getattr(prior_mean, field)!r}")
    return rhs


def fit(
    kernel: KernelSpec,
    prior_mean: MeanSpec,
    X: PointSet,
    y,
    lam: float = 0.0,
    overwrite_y: bool = False,
) -> PosteriorModel:
    """Condition on observations ``y`` at ``X`` with regularization ``lam``.

    ``y`` has shape (n,), or (n, r) for r sets of observations at ``X``; the
    dual weights have the same shape, and one solve serves every column.
    There are two routes.

    *Toeplitz.*  From ``TOEPLITZ_BYTES`` on, a ridge fit (``lam > 0``) on a
    1-d design whose consecutive differences are all the same double has a
    symmetric Toeplitz ``K + lam I``, held in the vector ``v`` of
    :func:`_toeplitz_vector` with ``lam`` added at ``v[n - 1]``.  Its first
    column ``v[n - 1:]`` (on a dyadic grid, bitwise ``gram``'s) gives by
    Levinson's recursion (``solve_toeplitz``) the first column ``g`` of its
    inverse, and :func:`_toeplitz_solve` applies the inverse to every
    column at once by FFTs: O(n^2) work and O(n r) memory, each column's
    weights bitwise a one-column fit's.  The weights are kept, with jitter 0
    and route ``"toeplitz"``, when ``g`` is finite with ``g_0 > 0`` and each
    column's backward error is at most n eps; otherwise the fit takes the
    whole route.  The route carries over to prediction:
    :func:`posterior_mean` forms a Toeplitz-route model's means on equally
    spaced 1-d queries by the same FFT product as the certificate.

    *Whole.*  Every other fit, with route ``"cholesky"``:
    :func:`kernels.gram` writes ``K`` whole, ``lam + jitter`` is added to
    its diagonal (bitwise ``K + (lam + jitter) I``), and ``cho_factor``
    overwrites the lower triangle of ``K.T`` (Fortran order, no copy) in
    place with the factor that ``cho_solve`` reads; each column's weights
    are bitwise those of a fit to that column alone.  ``K`` is the only
    matrix of its size, and the model does not keep it.  A failed
    factorization has overwritten ``K``, so ``K`` is dropped and rebuilt
    before the next jitter step, and an escalated fit still holds one matrix
    of its size.  ``K`` is checked finite by its minimum and maximum, which
    are NaN if any entry is and allocate nothing, so the factor and the
    solve skip scipy's check, which allocates a boolean array of ``K``'s
    size in each.  When every jitter step fails, the error names the
    design's closest pair (:func:`designs.closest_pair`).

    ``y``, the kernel (``K``, or the Toeplitz column) and the right-hand
    side ``y - m_X`` are checked finite, in that order (observations, a
    kernel or a prior mean past the float range are a
    ``ConfigurationError``).  A 2-d right-hand side is formed in Fortran
    order, in ``y`` itself with ``overwrite_y``, and the whole route
    solves it in place (a Fortran-ordered ``y`` is then its dual weights).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        y = y.reshape(-1)
    if len(y) != len(X):
        raise ConfigurationError(f"got {len(y)} observations for {len(X)} points")
    if lam < 0:
        raise ConfigurationError(f"lambda must be nonnegative, got {lam}")
    if not np.isfinite(y).all():  # the target plus its noise overflowed
        raise ConfigurationError("observations are not finite: target.scale or the noise")
    n = len(X)
    A = kernel.amplitude
    rhs = None
    vector = (8 * n * n >= TOEPLITZ_BYTES and lam > 0
              and _toeplitz_vector(kernel, X.points, X.points))
    if vector:
        v = vector[1]
        v[n - 1] += lam
        if not np.isfinite(v).all():
            raise _kernel_overflow(kernel)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked next
            g = solve_toeplitz(v[n - 1 :], np.eye(1, n)[0], check_finite=False)  # Levinson
        if np.isfinite(g).all() and g[0] > 0:
            rhs = _centred(y, prior_mean, X, overwrite_y)
            dual = _toeplitz_solve(v, g, rhs)
            if dual is not None:
                return PosteriorModel(kernel, prior_mean, X, dual, 0.0, "toeplitz")
        logger.debug("Toeplitz solve of %d points not certified, factoring", n)
    # jitter ladder: none needed when lam > 0, else start at 1e-10*A and
    # escalate by 100x up to 1e-6*A before giving up
    ladder = [0.0] if lam > 0 else []
    ladder += [f * A for f in (DEFAULT_JITTER_FACTOR, 1e-8, MAX_JITTER_FACTOR)]
    for jitter in ladder:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            K = gram(kernel, X)
        K[np.diag_indices(n)] += lam + jitter
        if not (math.isfinite(K.min()) and math.isfinite(K.max())):  # the kernel overflowed
            raise _kernel_overflow(kernel)
        try:
            K, _ = cho_factor(K.T, lower=True, overwrite_a=True, check_finite=False)
            break
        except np.linalg.LinAlgError:
            K = None  # the failed factor, freed before the next step writes its Gram
        logger.warning("cholesky failed at jitter %.1e, escalating", jitter)
    else:
        i, j, d = closest_pair(X)
        raise SingularDesignError(
            f"Cholesky failed up to jitter {MAX_JITTER_FACTOR * A:.1e}; closest "
            f"design pair is ({i}, {j}) at distance {d:.3e}"
        )
    if jitter > DEFAULT_JITTER_FACTOR * A:
        logger.warning("fit used escalated jitter %.1e", jitter)
    if rhs is None:
        rhs = _centred(y, prior_mean, X, overwrite_y)
    dual = cho_solve((K, True), rhs, overwrite_b=True, check_finite=False)
    return PosteriorModel(
        kernel=kernel,
        prior_mean=prior_mean,
        design=X,
        dual=dual,
        jitter=float(jitter),
    )


def posterior_mean(model: PosteriorModel, x) -> np.ndarray:
    """``m(x) + k_xX (K + lambda I)^{-1} (y - m_X)`` at a batch of m queries.

    The result has shape (m,) for one fit, or (m, r) for a model fitted to
    r columns: one column of means per fit.  The products ``k_xX w`` are
    written into the result and the prior mean is added after, the same sum
    as ``m(x) + k_xX w``, since addition commutes.  They take one of two
    paths, and on both each column is bitwise its one-column fit's.

    *FFT.*  A model fitted on the Toeplitz route has an equally spaced 1-d
    design.  When the queries are 1-d with equal steps, and b of them make
    the design step exactly (a whole number b from 1 to m), each phase
    ``x[e::b]`` of the queries against the design is a Toeplitz matrix, all
    b held in one vector (:func:`_toeplitz_vector`), and
    :func:`_toeplitz_product` applies them by real FFTs of a power-of-two
    length N >= ceil(m / b) + n - 1, one column at a time: O((b + 1) r N
    log N) work in place of m n r, and no block streamed.  The means agree
    with the block product to FFT rounding.

    *Blocks.*  Every other prediction streams the query rows in the blocks
    of :func:`kernels.kernel_blocks`, ``row_block(n)`` rows each, and each
    block serves every column.  A block is read from the lattice table of
    the queries against the design when both are 1-d on one small dyadic
    lattice, else evaluated by ``cross_matrix``; both hold the same doubles,
    so the means are bitwise the same.  A block's r columns come from one
    ``np.matmul`` of the view ``dual.T[:, :, None]`` (no copy) into rows of
    an (r, m) result, whose transpose is returned: with a trailing 1, numpy
    calls gemv once per column, as ``Kq @ dual[:, k]`` does.  These models
    keep gemv's bits, not an FFT's or gemm's: they include every fit under
    ``TOEPLITZ_BYTES``, whose recorded errors the benchmark holds within
    1e-9, and a gemm of the whole block moved a5's errors, at a nugget near
    1e-9, past that.  Each mean is one row of a matrix-vector product, and
    a full block gives the same bits as the whole product.  A ragged last
    block (m not a multiple of ``row_block(n)``) can round a few rows
    differently, within dot-product rounding; the whole product's value of
    a row already depends on m, so no canonical value is lost.
    """
    xq, X = as_points(model.kernel.dim, x), model.design.points
    dual = model.dual if model.dual.ndim == 2 else model.dual[:, None]
    vector = model.route == "toeplitz" and _toeplitz_vector(model.kernel, xq, X)
    if vector:
        b, v = vector
        out = _toeplitz_product(v, b, dual)
    else:
        out = np.empty((dual.shape[1], len(xq), 1))  # column k's means are out[k, :, 0]
        for rows, Kq in kernel_blocks(model.kernel, xq, X):
            np.matmul(Kq, dual.T[:, :, None], out=out[:, rows])
        Kq = None  # frees the last block's buffer before the prior mean is formed
        out = out[:, :, 0]
    out += model.prior_mean(xq)
    return out[0] if model.dual.ndim == 1 else out.T


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
