"""Conditioning: the unified approximant and RKHS norms.

``fit`` solves the regularized kernel system ``(K + lambda I) w = y - m_X``;
``y`` may hold r columns of observations at the same design (noise
replicates), and one solve serves all of them.  It takes one of two
routes.  A ridge fit (``lambda > 0``) of 4 MiB or more on an equally
spaced 1-d design has a Toeplitz ``K + lambda I``, set by its first
column; it is solved in O(n^2) from that column (Levinson's recursion for
the first column of the inverse, then the Gohberg-Semencul formula
applied by FFTs in :func:`_toeplitz_solve`) and kept only if its backward
error is certified small.  Every other fit, and a Toeplitz solve that is
not certified, writes its Gram whole and factors it with ``cho_factor``.
The fitted model keeps only what prediction reads, the dual weights ``w``,
and the route it took: a Toeplitz-route model predicts equally spaced 1-d
queries whose step divides the design's by FFT Toeplitz products
(:func:`_toeplitz_product`), and every other prediction streams kernel
blocks through gemv.  The model is immutable and its predictors are pure
functions.  ``lambda = 0`` is interpolation and gets a small diagonal
jitter (escalated on factorization failure, and recorded, since a large
jitter technically shifts the estimator toward approximate interpolation).

Kernel values come from :mod:`kernels`, which alone decides whether a
block is read from a lattice table or evaluated directly; a ``table``
passed to ``fit`` or ``posterior_mean`` is handed on unread.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_toeplitz

from .designs import PointSet, closest_pair
from .errors import ConfigurationError, SingularDesignError
from .kernels import KernelSpec, LatticeTable, as_points, cross_matrix, gram, kernel_blocks

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
    :func:`posterior_mean` may form its means by FFTs.
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


def _toeplitz_solve(c: np.ndarray, g: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """``T^{-1} rhs`` for the symmetric Toeplitz ``T`` with first column ``c``,
    from ``g = T^{-1} e_1`` with ``g_0 > 0``, or None when the result cannot
    be certified.

    ``T^{-1} = (L(g) L(g)^T - L(h) L(h)^T) / g_0`` with
    ``h = (0, g_{n-1}, ..., g_1)`` and ``L(v)`` the lower triangular Toeplitz
    matrix with first column v (Gohberg & Semencul 1972; Golub & Van Loan,
    *Matrix Computations*, section 4.7).  ``L(v) z`` is the first n entries
    of the convolution of v and z, and ``L(v)^T z`` those of their
    correlation, so each is one product of real FFTs of a power-of-two
    length N >= 2n - 1 (2n for a power-of-two n), taken for every column of
    ``rhs`` at once.  The result ``W`` is accepted only if each column's
    normwise backward error ``|T w - b|_inf / (|T|_inf |w|_inf + |b|_inf)``
    is at most n eps (Rigal & Gaches 1967; Higham 2002, ch. 7).  The
    residual is one FFT product with the circulant of order N that embeds
    ``T``, and ``|T|_inf``, the largest row sum of ``|c_{|i-j|}|``, comes
    from the cumulative sums of ``|c|``.  Nothing of n x n size is allocated.
    """
    n = len(c)
    N = 1 << (2 * n - 2).bit_length()
    fft, ifft = np.fft.rfft, np.fft.irfft
    G, H = fft(g, N), fft(np.r_[0.0, g[:0:-1]], N)
    B = rhs.reshape(n, -1).T  # one row per column of observations
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite W fails the test
        Z = fft(B, N)
        W = ifft(G * fft(ifft(Z * G.conj(), N)[:, :n], N)
                 - H * fft(ifft(Z * H.conj(), N)[:, :n], N), N)[:, :n] / g[0]
        R = ifft(fft(np.r_[c, np.zeros(N - 2 * n + 1), c[:0:-1]]) * fft(W, N), N)[:, :n] - B
        sums = np.cumsum(np.abs(c))
        norm_T = (sums + sums[::-1] - sums[0]).max()
        certified = np.abs(R).max(axis=1) <= n * np.finfo(float).eps * (
            norm_T * np.abs(W).max(axis=1) + np.abs(B).max(axis=1))
    return W.T.reshape(rhs.shape) if certified.all() else None


def _toeplitz_phases(model: PosteriorModel, xq: np.ndarray) -> int:
    """The whole number ``b`` of query steps in one design step, from 1 to
    the number of queries, when the model was fitted on the Toeplitz route
    (its design equally spaced) and the queries ``xq`` are 1-d with equal
    steps, b of which make the design step exactly; else 0."""
    if model.route != "toeplitz" or not _equal_steps(xq):
        return 0
    X = model.design.points[:, 0]
    step = xq[1, 0] - xq[0, 0]
    ratio = (X[1] - X[0]) / step
    b = round(ratio) if 1 <= ratio <= len(xq) else 0
    return b if b * step == X[1] - X[0] else 0


def _toeplitz_product(kernel: KernelSpec, xq: np.ndarray, X: np.ndarray, dual: np.ndarray,
                      b: int) -> np.ndarray:
    """``(k(xq, X) dual).T``, shape (r, m), by FFT Toeplitz products, for 1-d
    queries with b steps in each step of the equally spaced design ``X``.

    Phase e of the queries, ``xq[e::b]`` (``m_e`` points), has steps equal
    to the design's, so its block ``T_e = k(xq[e::b], X)`` is Toeplitz, set
    by its first column, rows e::b of ``cross_matrix(kernel, xq, X[:1])``,
    and its first row, row e of ``cross_matrix(kernel, xq[:b], X)``; both
    hold the doubles of the direct block's entries, and no lattice table is
    read.  ``T_e w`` is entries ``n - 1`` on of the convolution of ``w``
    with ``t_e = (row reversed, column)``, of length ``m_e + n - 1``: one
    product of real FFTs of a power-of-two length ``N >= ceil(m / b) + n - 1``
    (Golub & Van Loan, *Matrix Computations*, section 4.7).  The phases'
    spectra are formed once; the columns of ``dual`` are taken one at a
    time, each with one ``rfft`` that all phases share, so each column is
    bitwise its one-column product: besides the result, the product holds
    the b spectra of ``N / 2 + 1`` complex numbers and a few arrays of N,
    never one of r x N.
    """
    m, n = len(xq), len(X)
    N = 1 << (-(-m // b) + n - 2).bit_length()
    fft, ifft = np.fft.rfft, np.fft.irfft
    rows = cross_matrix(kernel, xq[:b], X)  # row e is phase e's first row
    column = cross_matrix(kernel, xq, X[:1])[:, 0]  # column[e::b] is its first column
    spectra = [fft(np.r_[rows[e, :0:-1], column[e::b]], N) for e in range(b)]
    out = np.empty((dual.shape[1], m))
    for k in range(dual.shape[1]):
        w = fft(dual[:, k], N)
        for e, spectrum in enumerate(spectra):
            phase = out[k, e::b]
            phase[:] = ifft(spectrum * w, N)[n - 1 : n - 1 + len(phase)]
    return out


def _equal_steps(pts: np.ndarray) -> bool:
    """Whether the (n, d) batch ``pts`` is 1-d with every consecutive
    difference the same nonzero double: a design whose Gram is Toeplitz."""
    if pts.shape[1] != 1 or len(pts) < 2:
        return False
    steps = np.diff(pts[:, 0])
    return steps[0] != 0 and bool((steps == steps[0]).all())


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
    table: LatticeTable | None = None,
    overwrite_y: bool = False,
) -> PosteriorModel:
    """Condition on observations ``y`` at ``X`` with regularization ``lam``.

    ``y`` has shape (n,), or (n, r) for r sets of observations at ``X``; the
    dual weights have the same shape, and one solve serves every column.
    There are two routes.

    *Toeplitz.*  From ``TOEPLITZ_BYTES`` on, a ridge fit (``lam > 0``) on a
    1-d design whose consecutive differences are all the same double has a
    symmetric Toeplitz ``K + lam I``.  Its first column is
    ``cross_matrix(kernel, X, x_0)`` with ``lam`` added to its first entry
    (on a dyadic grid, bitwise ``gram``'s first column; no lattice table is
    read), Levinson's recursion (``solve_toeplitz``) gives the first column
    ``g`` of its inverse, and :func:`_toeplitz_solve` applies the inverse
    to every column at once by FFTs: O(n^2) work and O(n r) memory, each
    column's weights to rounding of a one-column fit's.  The weights are
    kept, with jitter 0 and route ``"toeplitz"``, when ``g`` is finite with
    ``g_0 > 0`` and each column's backward error is at most n eps; otherwise
    the fit takes the whole route.  The route carries over to prediction:
    :func:`posterior_mean` forms a Toeplitz-route model's means on equally
    spaced 1-d queries by FFT products too.

    *Whole.*  Every other fit, with route ``"cholesky"``:
    :func:`kernels.gram` writes ``K`` whole, ``lam + jitter`` is added to
    its diagonal (bitwise ``K + (lam + jitter) I``), and ``cho_factor``
    overwrites the lower triangle of ``K.T`` (Fortran order, no copy) in
    place with the factor that ``cho_solve`` reads; each column's weights
    are bitwise those of a fit to that column alone.  ``K`` is the only matrix of its size, and
    the model does not keep it.  A failed factorization has overwritten
    ``K``, so ``K`` is dropped and rebuilt before the next jitter step, and
    an escalated fit still holds one matrix of its size.  ``K`` is
    checked finite by its minimum and maximum, which are NaN if any entry
    is and allocate nothing, so the factor and the solve skip scipy's
    check, which allocates a boolean array of ``K``'s size in each.  When
    every jitter step fails, the error names the design's closest pair
    (:func:`designs.closest_pair`).

    ``y``, the kernel (``K``, or the Toeplitz column) and the right-hand
    side ``y - m_X`` are checked finite, in that order (observations, a
    kernel or a prior mean past the float range are a
    ``ConfigurationError``).  A 2-d right-hand side is formed in Fortran
    order, in ``y`` itself with ``overwrite_y``, and the whole route
    solves it in place (a Fortran-ordered ``y`` is then its dual weights).
    ``table`` is the :class:`kernels.LatticeTable` of ``X`` against itself
    when the caller holds one; None looks one up.
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
    if 8 * n * n >= TOEPLITZ_BYTES and lam > 0 and _equal_steps(X.points):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            c = cross_matrix(kernel, X.points, X.points[:1])[:, 0]
        c[0] += lam
        if not np.isfinite(c).all():
            raise _kernel_overflow(kernel)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked next
            g = solve_toeplitz(c, np.eye(1, n)[0], check_finite=False)  # Levinson's recursion
        if np.isfinite(g).all() and g[0] > 0:
            rhs = _centred(y, prior_mean, X, overwrite_y)
            dual = _toeplitz_solve(c, g, rhs)
            if dual is not None:
                return PosteriorModel(kernel, prior_mean, X, dual, 0.0, "toeplitz")
        logger.debug("Toeplitz solve of %d points not certified, factoring", n)
    # jitter ladder: none needed when lam > 0, else start at 1e-10*A and
    # escalate by 100x up to 1e-6*A before giving up
    ladder = [0.0] if lam > 0 else []
    ladder += [f * A for f in (DEFAULT_JITTER_FACTOR, 1e-8, MAX_JITTER_FACTOR)]
    for jitter in ladder:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            K = gram(kernel, X, table)
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


def posterior_mean(model: PosteriorModel, x, table: LatticeTable | None = None) -> np.ndarray:
    """``m(x) + k_xX (K + lambda I)^{-1} (y - m_X)`` at a batch of m queries.

    The result has shape (m,) for one fit, or (m, r) for a model fitted to
    r columns: one column of means per fit.  The products ``k_xX w`` are
    written into the result and the prior mean is added after, the same sum
    as ``m(x) + k_xX w``, since addition commutes.  They take one of two
    paths, and on both each column is bitwise its one-column fit's.

    *FFT.*  A model fitted on the Toeplitz route has an equally spaced 1-d
    design.  When the queries are 1-d with equal steps, and b of them make
    the design step exactly (a whole number b from 1 to m), each phase
    ``x[e::b]`` of the queries against the design is a Toeplitz matrix, and
    :func:`_toeplitz_product` applies it by real FFTs of a power-of-two
    length N >= ceil(m / b) + n - 1, one column at a time: O((b + 1) r N
    log N) work in place of m n r, and no block streamed.  The means agree
    with the block product to FFT rounding (a3's 1024- and 2048-point rungs
    moved by at most 5.1e-12 relative).  ``table`` is not read.

    *Blocks.*  Every other prediction streams the query rows in the blocks
    of :func:`kernels.kernel_blocks`, ``row_block(n)`` rows each, and each
    block serves every column.  A block is read from the lattice table of
    the queries against the design when both are 1-d on one small dyadic
    lattice, else evaluated by ``cross_matrix``; both hold the same doubles,
    so the means are bitwise the same.  ``table`` is that table when the
    caller already holds one (a BO budget's final step, read from the
    candidates' table); None has ``kernel_blocks`` look one up.  A block's r
    columns come from one ``np.matmul`` of the view ``dual.T[:, :, None]``
    (no copy) into rows of an (r, m) result, whose transpose is returned:
    with a trailing 1, numpy calls gemv once per column, as
    ``Kq @ dual[:, k]`` does.  These models keep gemv's bits, not an FFT's
    or gemm's: they include every fit under ``TOEPLITZ_BYTES``, whose
    recorded errors the benchmark holds within 1e-9, and a gemm of the
    whole block moved a5's errors, at a nugget near 1e-9, past that.  Each
    mean is one row of a matrix-vector product, and a full block gives the
    same bits as the whole product.  A ragged last block (m not a multiple
    of ``row_block(n)``) can round a few rows differently, within
    dot-product rounding; the whole product's value of a row already
    depends on m, so no canonical value is lost.
    """
    xq = as_points(model.kernel.dim, x)
    dual = model.dual if model.dual.ndim == 2 else model.dual[:, None]
    b = _toeplitz_phases(model, xq)
    if b:
        out = _toeplitz_product(model.kernel, xq, model.design.points, dual, b)
    else:
        out = np.empty((dual.shape[1], len(xq), 1))  # column k's means are out[k, :, 0]
        for rows, Kq in kernel_blocks(model.kernel, xq, model.design.points, table):
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
