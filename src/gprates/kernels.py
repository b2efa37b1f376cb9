"""Matern kernel evaluation and Gram-matrix construction.

Smoothness is parameterized on the Sobolev scale: a kernel spec with
smoothness ``tau`` has an RKHS norm-equivalent to ``W^tau_2``, and the
classical Matern order is derived as ``nu = tau - dim/2``.  Half-integer
``nu`` dispatches to the closed forms; any other ``nu`` goes through the
modified Bessel function of the second kind.

The kernels are radial, ``k(x, y) = Phi(|x - y|)``.  When two 1-d point
sets lie on one dyadic lattice (every coordinate a multiple of some
``2^-q``), :func:`lattice_table` evaluates ``Phi`` once per offset of the
lattice ``delta = 2^-p`` that holds their differences, into a two-sided
table ``H[S + k] = Phi(|k| delta)``, and ``gram``,
``fitting.posterior_mean``, ``designs.gen_p_greedy`` and
``bayesopt.run_gamma_F_n`` read their blocks from that table instead of
evaluating ``matern_of_r`` on every entry.  The values are bitwise those of
the direct path: the difference of two lattice points whose integer offset
``k`` is below 2^53 is exact, so ``|a - b|`` is the same double as
``|k| * delta``, and ``matern_of_r`` is elementwise.  When both sets are
arithmetic progressions on the lattice (midpoint grids), with steps ``s_a``
and ``s_b``, a block ``H[S + I_a[i] - I_b[j]]`` is Toeplitz, one strided
window of ``H`` that :func:`table_block` copies with no index arithmetic;
other lattice sets (P-greedy picks) gather the same entries through
integer offsets.  Sets in d >= 2, off a dyadic lattice, or whose table
would hold more than a quarter of the block's entries take the direct
path.

A prediction walks its query rows in blocks of ``h = row_block(n)`` rows
(:func:`table_blocks`).  For two progressions, block k + 1 is block k
moved ``M = h s_a / s_b`` columns along the same diagonals of ``H``, so
when ``M`` is a whole number, G consecutive full blocks are column slices
``W[:, c : c + n]`` of one strip window ``W`` of ``h`` rows and
``n + (G - 1) |M|`` columns, copied from ``H`` once.  G is capped at
``1 + n // (8 |M|)`` (:func:`blocks_per_strip`), so a strip holds at most
9/8 of a block's entries; G = 1 is the plain window copy.  A column slice
has unit inner stride and a row stride of at least n, a matrix BLAS reads
in place, and it holds the same doubles as the block's own copy, so gemv
gives the same bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import eigh
from scipy.special import gamma as _gamma_fn
from scipy.special import kv as _bessel_kv

from .errors import ConfigurationError, SingularGramWarning

_HALF_INTEGER_ORDERS = (0.5, 1.5, 2.5, 3.5)
_HALF_INTEGER_ATOL = 1e-12

# Entries per block when a Gram matrix, a prediction, a fill distance or a
# separation radius streams its rows against n points.  Blocks are sized in
# entries, not rows, so each elementwise pass of ``matern_of_r`` works on a
# cache-sized block (512 KiB of float64) whatever n is; a fixed 512 rows
# would make 8 MiB blocks at n = 2048, several times a core's L2 cache.
# ``row_blocks`` allocates a loop's block buffers once and every block reuses
# them.  A fresh temporary per block is as large as glibc's mmap threshold,
# so each one was mapped, touched and unmapped again: one ``posterior_mean``
# on 8192 queries against 512 points took 14,592 minor page faults, and
# takes 256 with reused buffers.
BLOCK_ENTRIES = 2**16


def row_block(n: int) -> int:
    """Rows per block against ``n`` points: ``BLOCK_ENTRIES / n``, a multiple of 8.

    Heights are multiples of 8 because OpenBLAS's gemv groups rows: a block
    boundary inside a group (heights of 2 or 6, say) changes the rounding of
    some rows of a prediction, while multiples of 4 do not.  At least 8 rows
    per block, so for n > ``BLOCK_ENTRIES / 8`` a block holds 8n entries.
    """
    return max(8, BLOCK_ENTRIES // n // 8 * 8)


def row_blocks(m: int, n: int, buffers: int):
    """Walk ``m`` rows against ``n`` points in blocks of ``row_block(n)`` rows.

    Yields ``(rows, bufs)``: the block's row slice and a stack of ``buffers``
    C-contiguous (height, n) arrays.  Every block's arrays are views of the
    one stack allocated before the first block, so a loop touches its block
    memory once, however many blocks it streams.
    """
    step = row_block(n)
    stack = np.empty((buffers, min(step, m), n))
    for start in range(0, m, step):
        stop = min(start + step, m)
        yield slice(start, stop), stack[:, : stop - start]


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


def work_arrays(spec: KernelSpec) -> int:
    """How many ``work`` arrays ``matern_of_r`` fills: the ``t^2`` term of nu = 5/2
    and 7/2, and the ``t^3`` term of nu = 7/2."""
    if not spec.is_half_integer:
        return 0
    return max(0, round(spec.nu - 1.5))


def matern_of_r(spec: KernelSpec, r, use_bessel: bool = False, out=None, work=()) -> np.ndarray:
    """Evaluate the kernel profile at distances ``r >= 0`` (vectorized).

    With ``t = sqrt(2 nu) r / lengthscale``, the half-integer orders are the
    closed forms ``A e^{-t}``, ``A (1 + t) e^{-t}``, ``A (1 + t + t^2/3) e^{-t}``
    and ``A (1 + t + 0.4 t^2 + t^3/15) e^{-t}`` for nu = 1/2, 3/2, 5/2, 7/2.
    They are evaluated in place on ``t`` in the operation order written here,
    so the values are bitwise those of the displayed formulas.
    ``use_bessel`` forces the general Bessel-K path even for half-integer
    orders; the property tests use it as the independent oracle for the
    closed forms.

    With ``out`` (an array of r's shape), ``r`` is overwritten as the work
    array ``t`` and the kernel is written into ``out``, which is returned;
    nu = 5/2 and 7/2 put their ``t^2`` and ``t^3`` terms in the first
    :func:`work_arrays` arrays of ``work``.  Without ``out``, ``r`` is left
    as it was.  The Bessel path computes in fresh arrays either way.
    """
    r = np.asarray(r, dtype=float)
    nu = spec.nu
    A = spec.amplitude
    t = np.multiply(r, np.sqrt(2.0 * nu), out=None if out is None else r)
    t /= spec.lengthscale
    if not use_bessel and spec.is_half_integer:
        e = np.negative(t, out=out)
        e = np.exp(e, out=e)
        if abs(nu - 0.5) <= _HALF_INTEGER_ATOL:
            e *= A
            return e
        if abs(nu - 1.5) <= _HALF_INTEGER_ATOL:
            t += 1.0
        elif abs(nu - 2.5) <= _HALF_INTEGER_ATOL:
            sq = np.multiply(t, t, out=work[0] if len(work) else None)
            sq /= 3.0
            t += 1.0
            t += sq
        else:  # nu = 7/2
            sq = np.multiply(0.4, t, out=work[0] if len(work) else None)
            sq *= t
            cube = np.power(t, 3, out=work[1]) if len(work) > 1 else t ** 3
            cube /= 15.0
            t += 1.0
            t += sq
            t += cube
        t *= A
        return np.multiply(t, e, out=e)
    # General order, evaluated on every entry in place.  The displayed formula
    # is 0 * inf at r = 0; the limit is the amplitude, which those entries get
    # afterwards.
    k = t ** nu
    k *= A * (2.0 ** (1.0 - nu) / _gamma_fn(nu))
    with np.errstate(invalid="ignore"):
        k *= _bessel_kv(nu, t)
    k[t == 0] = A
    if out is None:
        return k
    out[...] = k
    return out


def as_points(dim: int, x) -> np.ndarray:
    """Normalize points to an ``(m, dim)`` batch.

    Accepts a point set, a scalar (dim 1), one point of length ``dim``, a 1-d
    batch of scalars (dim 1) or an ``(m, dim)`` array.
    """
    x = np.asarray(getattr(x, "points", x), dtype=float)
    if x.ndim < 2:
        if dim == 1:
            return x.reshape(-1, 1)
        if x.size != dim:
            raise ConfigurationError(f"query of shape {x.shape} for dim {dim}")
        return x[None, :]
    if x.shape[1] != dim:
        raise ConfigurationError(f"points have dimension {x.shape[1]}, expected {dim}")
    return x


def distances(A: np.ndarray, B: np.ndarray, out=None, work=None) -> np.ndarray:
    """Euclidean distances ``D[i, j] = |a_i - b_j|`` between two ``(., d)`` batches.

    In 1-d this is ``|a_i - b_j|`` itself.  In base 2, ``sqrt(fl(d^2)) = |d|``
    unless ``d^2`` underflows or overflows (Boldo 2015), so it equals the root
    of the squared difference except for ``|d| < ~1e-154`` (or ``> ~1e154``),
    where it is exact and the root of the square is not.  For d >= 2 it is the
    root of the sum of squared differences, added in coordinate order: the
    first coordinate's square is written into the result, each further one
    is squared in ``work`` (an array of the result's shape, allocated when
    not given) and added, and the root is taken in place.  That is bitwise
    ``np.sqrt(np.sum((A[:, None] - B[None]) ** 2, axis=-1))``, whose short
    sum also adds in coordinate order, without its (m, n, d) temporaries.
    ``out`` receives the distances when given.
    """
    D = np.subtract.outer(A[:, 0], B[:, 0], out=out)
    if A.shape[1] == 1:
        return np.abs(D, out=D)
    np.multiply(D, D, out=D)
    if work is None:
        work = np.empty_like(D)
    for k in range(1, A.shape[1]):
        np.subtract.outer(A[:, k], B[:, k], out=work)
        np.multiply(work, work, out=work)
        D += work
    return np.sqrt(D, out=D)


class LatticeTable(NamedTuple):
    """What :func:`lattice_table` returns: two sets' integer lattice
    coordinates, the two-sided kernel table ``H`` with its centre ``S``, and
    each set's integer step (None when its coordinates are no progression)."""

    ia: np.ndarray
    ib: np.ndarray
    H: np.ndarray
    S: int
    step_a: int | None
    step_b: int | None


def _step(index: np.ndarray) -> int | None:
    """The common difference of ``index``: 0 for one point, None unless every
    consecutive difference is the same."""
    if len(index) < 2:
        return 0
    diff = np.diff(index)
    return int(diff[0]) if np.all(diff == diff[0]) else None


def lattice_table(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> LatticeTable | None:
    """The kernel once per offset of the dyadic lattice that holds two 1-d batches.

    The (m, 1) and (n, 1) batches ``A`` and ``B`` take a table when every
    coordinate is a finite multiple of ``2^-q`` (q >= 0, the most fractional
    bits of any coordinate, read from ``np.frexp``), the union spans fewer
    than 2^53 steps of that lattice, which makes every offset ``x - min``
    exact, and the table is at most a quarter of the block.  The table is
    laid on the lattice of the offsets, which may be coarser:
    ``delta = 2^-p``, with ``p <= q`` the most fractional bits of any
    offset, and the quarter rule reads the span ``S`` in steps of
    ``delta``: ``S <= m n / 4 - 1``.  A midpoint grid's coordinates are odd
    multiples of ``2^-q`` and its offsets even ones, so against itself its
    table evaluates the kernel on n offsets, where the coordinates' lattice
    would take 2n - 1, and a grid of 4 points takes a table of 4 entries.

    Returns a :class:`LatticeTable`: the integer coordinates ``ia``, ``ib``
    of each batch, ``(x - min) / delta`` as ``np.intp``; the two-sided table
    ``H`` of ``2 S + 1`` entries, with ``S`` the union's span in steps of
    ``delta`` and ``H[S + k] = matern_of_r(spec, |k| * delta)``; and each
    batch's step, the common difference of its integer coordinates (0 for
    one point, None when the differences are not all equal).
    ``matern_of_r`` runs once, on the offsets ``0 ... S`` written into
    ``H[S:]``, and ``H[:S]`` is their mirror image.  Since ``S < 2^53``,
    ``a - b`` is exactly ``(I_a - I_b) * delta``, so ``H[S + I_a - I_b]`` is
    bitwise ``matern_of_r(spec, distances(A, B))``.  Otherwise (d >= 2, a
    coordinate that is not finite or not dyadic, a span too wide) returns
    None, and the caller evaluates the kernel directly.
    """
    if spec.dim != 1 or np.dtype(np.intp).itemsize != 8:
        return None
    x = np.concatenate([A[:, 0], B[:, 0]])
    lo, hi = float(x.min()), float(x.max())
    if not math.isfinite(hi - lo):  # a NaN or an infinite coordinate
        return None
    mant, exp = np.frexp(x[x != 0.0])
    sig = np.ldexp(mant, 53, out=mant).astype(np.int64)  # x = sig * 2^(exp - 53)
    sig &= -sig  # the lowest set bit of each, 2^t, whose frexp exponent is t + 1
    # a coordinate has 53 - t - exp fractional bits; 2^-q covers them all
    q = max(0, int((54 - np.frexp(sig.astype(float))[1] - exp).max(initial=0)))
    if not hi - lo < math.ldexp(1.0, 53 - q):  # x - min is exact below 2^53 steps
        return None
    x -= lo
    index = np.ldexp(x, q, out=x).astype(np.intp)
    # the offsets' lattice drops the trailing zero bits that all of them share
    bits = int(np.bitwise_or.reduce(index))
    shift = q if bits == 0 else min(q, (bits & -bits).bit_length() - 1)
    index >>= shift
    p = q - shift
    span = int(math.ldexp(hi - lo, p))
    if 4 * (span + 1) > len(A) * len(B):  # a table of more than a quarter of the block
        return None
    ia, ib = index[: len(A)], index[len(A) :]
    H = np.empty(2 * span + 1)
    matern_of_r(spec, np.ldexp(np.arange(span + 1, dtype=float), -p), out=H[span:])
    H[:span] = H[: span : -1]
    return LatticeTable(ia, ib, H, span, _step(ia), _step(ib))


def _copy_window(table: LatticeTable, start: int, column: int, out: np.ndarray) -> np.ndarray:
    """Copy into ``out`` the window of ``H`` with strides ``(s_a, -s_b)``
    whose column ``column`` of row 0 is the pair (query ``start``, design 0)."""
    ia, ib, H, S, step_a, step_b = table
    size = H.itemsize
    window = as_strided(H[S + ia[start] - ib[0] + step_b * column :], out.shape,
                        (size * step_a, -size * step_b), writeable=False)
    np.copyto(out, window)
    return out


def table_block(table: LatticeTable, rows: slice, out: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the kernel block ``H[S + I_a[rows] - I_b]`` of a
    :func:`lattice_table`, written into ``out``.

    When both sets are progressions (both steps known), the block is
    Toeplitz: entry (i, j) is ``H[S + I_a[r0] - I_b[0] + s_a i - s_b j]``,
    with ``r0 = rows.start``, so it is one strided window of ``H``, with
    strides ``s_a`` and ``-s_b`` entries, and is copied into ``out`` with no
    index arithmetic.  Every other pair gathers: the offsets
    ``S + I_a[rows] - I_b`` are written into ``out`` itself, viewed as
    ``np.intp`` (the itemsize of float64), and ``np.take`` replaces each
    offset by its kernel value in place: an entry's offset is read before
    its value is written, and no other entry reads it, so a block needs no
    buffer of its own.  Every offset lies in ``H``, so ``mode="clip"``
    never clips and keeps ``np.take`` from copying ``out``.  Both paths read
    the same entries of ``H``, so their blocks are bitwise equal.
    """
    ia, ib, H, S, step_a, step_b = table
    if step_a is not None and step_b is not None:
        return _copy_window(table, rows.start, 0, out)
    offsets = out.view(np.intp)
    np.subtract.outer(ia[rows] + S, ib, out=offsets)
    return np.take(H, offsets, out=out, mode="clip")


def _strip_shift(table: LatticeTable) -> int:
    """``M = h s_a / s_b``, the columns from one block of ``h = row_block(n)``
    rows to the next; 0 when it is no whole number or a step is 0."""
    if not table.step_b:
        return 0
    shift, rest = divmod(row_block(len(table.ib)) * table.step_a, table.step_b)
    return 0 if rest else shift


def blocks_per_strip(table: LatticeTable) -> int | None:
    """How many full row blocks :func:`table_blocks` reads from one strip
    window: ``G = 1 + n // (8 |M|)``, at most the number of full blocks, and
    1 when ``M`` is 0 or no whole number; None when a set is no progression.  A
    strip of G blocks is ``n + (G - 1) |M| <= 9 n / 8`` columns wide."""
    if table.step_a is None or table.step_b is None:
        return None
    shift = _strip_shift(table)
    if not shift:
        return 1
    n = len(table.ib)
    return max(1, min(1 + n // (8 * abs(shift)), len(table.ia) // row_block(n)))


def table_blocks(table: LatticeTable):
    """Walk the kernel block ``H[S + I_a - I_b]`` of a :func:`lattice_table`
    in blocks of ``h = row_block(n)`` rows, as :func:`row_blocks` does,
    yielding ``(rows, block)``; a block is valid until the next is read.

    When a set is no progression, each block is gathered by
    :func:`table_block` into one buffer.  For two progressions, up to
    ``G = blocks_per_strip(table)`` full blocks are column slices of one
    strip window ``W``, copied from ``H`` once into a buffer allocated once
    (see the module docstring): block g of a strip of c blocks is
    ``W[:, f - g M : f - g M + n]`` with ``f = (c - 1) max(M, 0)``.  Two
    ascending or two descending sets have M > 0, and the strip's first block
    sits at its right end; one descending set makes M < 0, and it sits at
    column 0.  A ragged last block is a strip of its own.
    """
    G = blocks_per_strip(table)
    m, n = len(table.ia), len(table.ib)
    if G is None:
        for rows, (block,) in row_blocks(m, n, 1):
            yield rows, table_block(table, rows, block)
        return
    h, shift = row_block(n), _strip_shift(table)
    strip = np.empty((min(h, m), n + (G - 1) * abs(shift)))
    start = 0
    while start < m:
        count = min(G, (m - start) // h) or 1  # full blocks, or the ragged last one
        height = min(h, m - start)
        first = (count - 1) * max(shift, 0)
        window = _copy_window(table, start, first,
                              strip[:height, : n + (count - 1) * abs(shift)])
        for g in range(count):
            column = first - g * shift
            yield slice(start, start + height), window[:, column : column + n]
            start += height


def gram(spec: KernelSpec, X) -> np.ndarray:
    """Kernel matrix ``K[i, j] = k(x_i, x_j)``.

    Every entry is evaluated, and the distance from ``x_i`` to ``x_j`` is
    bitwise that from ``x_j`` to ``x_i``, so the result is exactly symmetric.
    The rows are evaluated in blocks of ``row_block(n)`` straight into one
    preallocated n x n matrix, bitwise ``matern_of_r(spec, distances(X, X))``:
    each block's distances and work arrays reuse the buffers of
    :func:`row_blocks` (in d >= 2 the distances square each further
    coordinate in the block of ``K`` they are about to fill).  A 1-d set on
    a small dyadic lattice reads its blocks from one :func:`lattice_table`
    through :func:`table_block` (a copied window of the table for a grid, a
    gather otherwise), bitwise the direct values, since the differences of
    lattice points are exact; any other set evaluates ``matern_of_r`` on
    every entry.
    Duplicate points make the matrix singular; a
    :class:`SingularGramWarning` is emitted and the matrix still returned.
    On the table path, the zero offsets are counted: in 1-d they are
    exactly the zero distances.
    """
    pts = as_points(spec.dim, X)
    if pts.shape[0] == 0:
        raise ConfigurationError("gram requires a nonempty point set")
    n = pts.shape[0]
    K = np.empty((n, n))
    table = lattice_table(spec, pts, pts)
    if table:
        # the zero offsets, one per ordered pair of equal integer coordinates
        counts = np.bincount(table.ia)
        zeros = int(counts @ counts)
        for rows, _ in row_blocks(n, n, 0):
            table_block(table, rows, K[rows])
    else:
        zeros = 0
        for rows, (dist, *work) in row_blocks(n, n, 1 + work_arrays(spec)):
            r = distances(pts[rows], pts, out=dist, work=K[rows])
            zeros += np.count_nonzero(r == 0.0)
            matern_of_r(spec, r, out=K[rows], work=work)
    if zeros > n:
        warnings.warn(
            "duplicate points give a singular Gram matrix", SingularGramWarning, stacklevel=2
        )
    return K


def cross_matrix(spec: KernelSpec, Xq, X, out=None, work=()) -> np.ndarray:
    """Cross-covariance ``K[i, j] = k(xq_i, x_j)`` for batched queries.

    The distances go into ``work[0]`` when given.  With ``out``, the kernel
    goes into ``out`` and ``work[1:]`` serve as :func:`matern_of_r`'s work
    arrays; in d >= 2, ``out`` is also the distances' work array before the
    kernel overwrites it.
    """
    q, pts = as_points(spec.dim, Xq), as_points(spec.dim, X)
    r = distances(q, pts, out=work[0] if len(work) else None, work=out)
    return matern_of_r(spec, r, out=out, work=work[1:])


def min_eigenvalue(K: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix via a symmetric eigensolve."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    if not np.allclose(K, K.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(K).max())):
        raise ValueError("matrix is not symmetric")
    vals = eigh(K, eigvals_only=True, subset_by_index=(0, 0))
    return float(vals[0])
