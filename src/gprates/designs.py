"""Design-point generation and the geometric quantities that drive the bounds.

The fill distance of a finite set over a continuous hyper-rectangle is
approximated on a tensor probe grid (plus the domain corners) with an
explicit bracket: the reported value underestimates the true supremum by at
most half a probe-cell diagonal, and that bound is returned alongside.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .kernels import (
    KernelSpec, LatticeTable, cross_matrix, distances, lattice_table, progression_step, row_blocks,
)

DEFAULT_PROBE_RESOLUTION = {1: 512, 2: 128, 3: 32}


@dataclass(frozen=True)
class Domain:
    """Axis-aligned hyper-rectangle with open interior."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        hi = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise ConfigurationError("lower and upper must have the same dimension")
        if any(l >= u for l, u in zip(lo, hi)):
            raise ConfigurationError("domain must satisfy lower[i] < upper[i]")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def widths(self) -> np.ndarray:
        return np.array(self.upper) - np.array(self.lower)

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    def corners(self) -> np.ndarray:
        cs = list(itertools.product(*zip(self.lower, self.upper)))
        return np.array(cs, dtype=float)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Which rows of ``pts`` lie strictly inside the domain."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.all((pts > np.array(self.lower)) & (pts < np.array(self.upper)), axis=1)


UNIT_INTERVAL = Domain((0.0,), (1.0,))


@dataclass
class PointSet:
    """Ordered design points inside a domain."""

    points: np.ndarray
    domain: Domain

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        self.points = pts
        if pts.shape[1] != self.domain.dim:
            raise ConfigurationError(
                f"points have dimension {pts.shape[1]}, domain has {self.domain.dim}"
            )
        if pts.shape[0] and not np.all(self.domain.contains(pts)):
            raise ConfigurationError("all points must lie strictly inside the domain")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _default_probe(dim: int) -> int:
    return DEFAULT_PROBE_RESOLUTION.get(dim, 8)


def gen_grid(n_per_dim: int, domain: Domain) -> PointSet:
    """Tensor grid of cell midpoints: coordinate i of cell j at
    ``lower + (j + 1/2) * width / n_per_dim``.  Quasi-uniform by construction."""
    if n_per_dim < 1:
        raise ConfigurationError("n_per_dim must be >= 1")
    axes = [
        domain.lower[i] + (np.arange(n_per_dim) + 0.5) * domain.widths[i] / n_per_dim
        for i in range(domain.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return PointSet(pts, domain)


def gen_uniform_random(n: int, domain: Domain, seed: int) -> PointSet:
    """``n`` i.i.d. uniform draws; identical seed gives identical points."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random((n, domain.dim))
    pts = np.array(domain.lower) + u * domain.widths
    return PointSet(pts, domain)


class NewtonBasis:
    """Incremental Newton basis of the kernel translates at chosen candidates.

    After k candidates ``x_1..x_k`` are added, ``basis[:, :k]`` is
    ``K(cand, X) L^{-T}`` with ``L`` the Cholesky factor of ``K(X, X) + eps I``,
    ``power`` is the posterior variance ``k(x, x) - |basis[i, :k]|^2`` on every
    candidate (clamped at zero: the squared power function), and
    ``basis[:, :k] @ z[:k]`` is the zero-prior posterior mean of the added values.
    Adding candidate j extends ``L`` by one row, with off-diagonal
    ``basis[j, :k]`` and pivot ``sqrt(power[j] + eps)`` (Pazouki & Schaback
    2011, "Bases for kernel-based spaces").  ``eps = 0`` is exact
    interpolation; a positive ``eps`` is the jitter ``fit`` adds.
    """

    def __init__(self, amplitude: float, m: int, capacity: int, eps: float = 0.0):
        self.power = np.full(m, amplitude)
        self.basis = np.zeros((m, capacity))
        self.z = np.zeros(capacity)
        self.eps = eps
        self.size = 0
        self._col = np.empty(m)

    def add(self, j: int, column, value: float = 0.0) -> None:
        """Add candidate ``j``; ``column`` is ``k(cand, cand[j])``, ``value`` its observation.

        The new basis column is formed in one buffer and ``power`` is
        updated in place, with the operations and rounding of
        ``power = max(power - col * col, 0)``.
        """
        k = self.size
        row = self.basis[j, :k]
        pivot = np.sqrt(self.power[j] + self.eps)
        col = np.matmul(self.basis[:, :k], row, out=self._col)
        np.subtract(column, col, out=col)
        col /= pivot
        self.z[k] = (value - row @ self.z[:k]) / pivot
        self.basis[:, k] = col
        col *= col
        self.power -= col
        np.maximum(self.power, 0.0, out=self.power)
        self.size = k + 1

    def mean(self, rows, out) -> np.ndarray:
        """Posterior mean of the values added so far, at least on the candidates ``rows``.

        ``rows`` is an ascending integer index array, and the means go into
        ``out``, an (m,) array, which is returned.  The mean is
        ``basis[:, :k] @ z[:k]``, formed only on the runs of 8-row groups
        from :func:`_group_runs`: each run is one product of a view of
        ``basis``, no copy.  A run starts at a multiple of 8 and ends at one
        or at m, so every row keeps its place in OpenBLAS's gemv row groups
        (see ``kernels.row_block``) and gets bitwise its value in the whole
        product.  That holds with BLAS on one thread, as ``cli.main`` and the
        tests pin it: two threads split the whole product's rows near m / 2.
        Entries of ``out`` outside the runs are left as they were.
        """
        B, z = self.basis[:, : self.size], self.z[: self.size]
        for a, b in _group_runs(rows, len(out)):
            np.matmul(B[a:b], z, out=out[a:b])
        return out


# a run of 8-row groups spans up to this many groups that hold no row: on
# a7's basis one more product call costs about as much as 48 more rows
_JOIN_GROUPS = 6


def _group_runs(rows, m: int):
    """The runs ``(a, b)`` of 8-row groups of ``range(m)`` that cover the
    ascending index array ``rows``; groups at most ``_JOIN_GROUPS`` apart
    share a run."""
    groups = np.asarray(rows) >> 3
    if not groups.size:
        return ()
    cut = (groups[1:] - groups[:-1] > _JOIN_GROUPS + 1).nonzero()[0]
    starts = (groups[cut + 1] << 3).tolist()
    starts.insert(0, int(groups[0]) << 3)
    stops = ((groups[cut] << 3) + 8).tolist()
    stops.append(min((int(groups[-1]) << 3) + 8, m))
    if m > 1 and starts[-1] == m - 1:
        # numpy forms a one-row product as a dot product, which rounds
        # otherwise than gemv, so a last group of one row joins the one before
        starts[-1] -= 8
    return zip(starts, stops)


def gen_p_greedy(n: int, spec: KernelSpec, candidates: PointSet) -> PointSet:
    """Greedy posterior-variance (power function) point selection.

    The first point maximizes ``k(x, x)`` (constant for a translation
    invariant kernel, so the lowest index wins); every later point maximizes
    the interpolation posterior standard deviation given the points chosen
    so far.  Ties always break to the lowest candidate index.

    No pick looks at ``n``, so the first k points of a run to any ``n >= k``
    are bitwise the points of a run to k: a ladder of sizes takes prefixes of
    one run to its largest size.

    The column ``k(cand, cand[j])`` of each pick is a view from
    :func:`lattice_columns`, or, when that is None, a ``cross_matrix`` column.
    """
    cand = candidates.points
    m = cand.shape[0]
    if m < n:
        raise ConfigurationError(f"need at least {n} candidates, got {m}")
    if cand.shape[1] != spec.dim:
        raise ConfigurationError("candidate dimension does not match kernel dim")
    newton = NewtonBasis(spec.amplitude, m, n)
    selected = np.zeros(n, dtype=int)
    column_of = lattice_columns(spec, cand) or (
        lambda j: cross_matrix(spec, cand, cand[j : j + 1])[:, 0])
    for step in range(n):
        j = int(np.argmax(newton.power))  # np.argmax returns the first maximizer
        selected[step] = j
        if newton.power[j] <= 0:
            raise ConfigurationError(
                "candidate pool exhausted: remaining posterior variance is zero"
            )
        newton.add(j, column_of(j))
    return PointSet(cand[selected], candidates.domain)


class LatticeColumns(NamedTuple):
    """The kernel columns of a progression of ``size`` points with a lattice
    table, and the tables of its subsets: the table ``H`` with its centre
    ``S``, the integer coordinate ``origin`` of the first point and the
    integer ``step``, so point i sits at ``origin + step * i``.  It holds no
    array of the points' integer coordinates."""

    H: np.ndarray
    S: int
    origin: int
    step: int
    size: int

    def __call__(self, j: int) -> np.ndarray:
        """Column j, ``H[S + s j - s i]`` over i: a slice of the read-only ``H``."""
        return self.H[self.S + self.step * j :: -self.step or 1][: self.size]

    def table(self, a: np.ndarray, b: np.ndarray) -> LatticeTable:
        """The :class:`kernels.LatticeTable` of the points at indices ``a``
        against those at ``b``: their integer coordinates, each set's own
        step, and this ``H``, which holds every offset between two points."""
        ia, ib = self.origin + self.step * a, self.origin + self.step * b
        return LatticeTable(ia, ib, self.H, self.S, progression_step(ia), progression_step(ib))


def lattice_columns(spec: KernelSpec, points: np.ndarray) -> LatticeColumns | None:
    """The :class:`LatticeColumns` of a progression with a lattice table, or
    None (d >= 2, off a dyadic lattice, no progression).

    Column j is row j of the points' :func:`kernels.lattice_table` against
    themselves, ``H[S + s j - s i]`` over i for points of step s: a
    read-only slice of ``H``, with no copy.  The kernel is symmetric and the
    lattice differences exact, so it is bitwise
    ``cross_matrix(spec, points, points[j])[:, 0]``.  Every
    midpoint grid with a table is a progression.  ``gen_p_greedy`` and
    ``bayesopt.run_gamma_F_n`` read their columns here, and a BO budget's
    final fit its tables.
    """
    table = lattice_table(spec, points, points)
    if table is None or table.step_a is None:
        return None
    table.H.flags.writeable = False
    return LatticeColumns(table.H, table.S, int(table.ia[0]), table.step_a, len(points))


def _probe_points(domain: Domain, probe_resolution: int) -> np.ndarray:
    grid = gen_grid(probe_resolution, domain).points
    return np.vstack([grid, domain.corners()])


def _ascending(X: PointSet):
    """The coordinates of a strictly ascending 1-d set (any grid design), or None."""
    x = X.points[:, 0]
    return x if X.dim == 1 and np.all(x[1:] > x[:-1]) else None


def fill_distance(X: PointSet, probe_resolution: int | None = None):
    """Approximate ``sup_x inf_y ||x - y||`` over the domain.

    Returns ``(value, bound)`` where the true fill distance lies in
    ``[value, value + bound]``; ``bound`` is half the probe-cell diagonal.
    A strictly ascending 1-d set takes a probe's nearest point from the two
    that bracket it (rounding is monotone, so ``fl|p - x|`` is least at a
    neighbour, bitwise the stream's); other sets stream the probes in blocks.
    """
    if len(X) == 0:
        raise ConfigurationError("fill_distance requires a nonempty point set")
    res = probe_resolution or _default_probe(X.dim)
    probes = _probe_points(X.domain, res)
    x = _ascending(X)
    if x is not None:
        i = np.searchsorted(x, probes[:, 0])  # x[i - 1] < p <= x[i]
        nearest = x[np.stack([np.maximum(i - 1, 0), np.minimum(i, len(x) - 1)], axis=1)]
        return float(np.abs(probes - nearest).min(axis=1).max()), fill_distance_bound(X.domain, res)
    best = 0.0
    for rows, (d, work) in row_blocks(probes.shape[0], len(X), 2):
        distances(probes[rows], X.points, out=d, work=work)
        best = max(best, float(d.min(axis=1).max()))
    return best, fill_distance_bound(X.domain, res)


def fill_distance_bound(domain: Domain, probe_resolution: int | None = None) -> float:
    """Half the probe-cell diagonal: how far ``fill_distance`` may undershoot."""
    res = probe_resolution or _default_probe(domain.dim)
    return float(np.linalg.norm(domain.widths / res)) / 2.0


def separation_radius(X: PointSet) -> float:
    """Exact ``min_{i != j} ||x_i - x_j|| / 2``, streamed in row blocks, or
    ``np.diff(x).min() / 2`` for a strictly ascending 1-d set: rounding is
    monotone, so a least distance is one of neighbours, bitwise the stream's."""
    n = len(X)
    if n < 2:
        raise ConfigurationError("separation radius needs at least two points")
    x = _ascending(X)
    if x is not None:
        return float(np.diff(x).min() / 2.0)
    best = np.inf
    for rows, (d, work) in row_blocks(n, n, 2):
        distances(X.points[rows], X.points, out=d, work=work)
        i = np.arange(len(d))
        d[i, rows.start + i] = np.inf  # the block's own diagonal
        best = min(best, d.min())
    return float(best / 2.0)


class MeshRatioTracker:
    """Mesh ratio of a point set that grows one point at a time.

    Each probe of ``fill_distance``'s grid keeps its distance to the nearest
    point added so far, and the set keeps its least pairwise distance.  Adding
    a point takes one minimum with its distances to the probes and one with
    its distances to the earlier points.  Minima are exact, so ``ratio()`` is
    bitwise ``fill_distance / separation_radius`` of the points added so far.

    In 1-d the points are kept as a sorted list, and a new point's least
    distance to the earlier ones is to one of its two neighbours there
    (rounding is monotone, as in :func:`separation_radius`); its distances to
    the probes are formed in one preallocated buffer.
    """

    def __init__(self, domain: Domain, probe_resolution: int | None = None):
        self.probes = _probe_points(domain, probe_resolution or _default_probe(domain.dim))
        self.nearest = np.full(len(self.probes), np.inf)
        self.closest = np.inf
        if domain.dim == 1:
            self.points = []  # ascending coordinates
            self._gaps = np.empty(len(self.probes))
        else:
            self.points = np.empty((0, domain.dim))

    def add(self, x) -> None:
        x = np.asarray(x, dtype=float).reshape(1, -1)
        if isinstance(self.points, list):
            v = float(x[0, 0])
            i = bisect.bisect_left(self.points, v)
            for y in self.points[max(i - 1, 0) : i + 1]:
                self.closest = min(self.closest, abs(y - v))
            self.points.insert(i, v)
            gaps = np.subtract(self.probes[:, 0], v, out=self._gaps)
            np.minimum(self.nearest, np.abs(gaps, out=gaps), out=self.nearest)
            return
        np.minimum(self.nearest, distances(self.probes, x)[:, 0], out=self.nearest)
        self.closest = min(self.closest, distances(self.points, x).min(initial=np.inf))
        self.points = np.vstack([self.points, x])

    def ratio(self) -> float:
        """Fill distance over separation radius of the points added so far."""
        if len(self.points) < 2:
            raise ConfigurationError("separation radius needs at least two points")
        q = float(self.closest / 2.0)
        if q == 0.0:
            raise ZeroDivisionError("separation radius is zero (duplicate points)")
        return float(self.nearest.max()) / q


def quasi_uniformity_trace(sequence):
    """Per-set ``(n, h, q, rho)`` rows plus the fitted slope of log h vs log n.

    A one-point set has no separation radius: its ``q`` and ``rho`` are NaN.
    Coincident points give ``q = 0`` and ``rho = inf``.  The slope is
    :func:`loglog_slope`'s.
    """
    rows = []
    for X in sequence:
        h, _ = fill_distance(X)
        q = separation_radius(X) if len(X) >= 2 else float("nan")
        rows.append((len(X), h, q, h / q if q != 0 else float("inf")))
    return rows, loglog_slope([r[0] for r in rows], [r[1] for r in rows])


def loglog_slope(ns, values) -> float:
    """Least-squares slope of log(values) on log(ns); NaN for fewer than two distinct n."""
    if len(set(ns)) < 2:
        return float("nan")
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])
