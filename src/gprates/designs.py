"""Design-point generation and the geometric quantities that drive the bounds.

The fill distance of a finite set over a continuous hyper-rectangle is
approximated on a tensor probe grid (plus the domain corners) with an
explicit bracket: the reported value underestimates the true supremum by at
most half a probe-cell diagonal, and that bound is returned alongside.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .kernels import KernelSpec, cross_matrix, distances, row_block

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

    def add(self, j: int, column, value: float = 0.0) -> None:
        """Add candidate ``j``; ``column`` is ``k(cand, cand[j])``, ``value`` its observation."""
        k = self.size
        row = self.basis[j, :k]
        pivot = np.sqrt(self.power[j] + self.eps)
        col = column - self.basis[:, :k] @ row
        col /= pivot
        self.z[k] = (value - row @ self.z[:k]) / pivot
        self.basis[:, k] = col
        self.power = np.maximum(self.power - col * col, 0.0)
        self.size = k + 1

    def mean(self) -> np.ndarray:
        """Posterior mean on every candidate of the values added so far."""
        return self.basis[:, : self.size] @ self.z[: self.size]


def gen_p_greedy(n: int, spec: KernelSpec, candidates: PointSet) -> PointSet:
    """Greedy posterior-variance (power function) point selection.

    The first point maximizes ``k(x, x)`` (constant for a translation
    invariant kernel, so the lowest index wins); every later point maximizes
    the interpolation posterior standard deviation given the points chosen
    so far.  Ties always break to the lowest candidate index.
    """
    cand = candidates.points
    m = cand.shape[0]
    if m < n:
        raise ConfigurationError(f"need at least {n} candidates, got {m}")
    if cand.shape[1] != spec.dim:
        raise ConfigurationError("candidate dimension does not match kernel dim")
    newton = NewtonBasis(spec.amplitude, m, n)
    selected = np.zeros(n, dtype=int)
    for step in range(n):
        j = int(np.argmax(newton.power))  # np.argmax returns the first maximizer
        selected[step] = j
        if newton.power[j] <= 0:
            raise ConfigurationError(
                "candidate pool exhausted: remaining posterior variance is zero"
            )
        newton.add(j, cross_matrix(spec, cand, cand[j])[:, 0])
    return PointSet(cand[selected], candidates.domain)


def _probe_points(domain: Domain, probe_resolution: int) -> np.ndarray:
    grid = gen_grid(probe_resolution, domain).points
    return np.vstack([grid, domain.corners()])


def fill_distance(X: PointSet, probe_resolution: int | None = None):
    """Approximate ``sup_x inf_y ||x - y||`` over the domain.

    Returns ``(value, bound)`` where the true fill distance lies in
    ``[value, value + bound]``; ``bound`` is half the probe-cell diagonal.
    """
    if len(X) == 0:
        raise ConfigurationError("fill_distance requires a nonempty point set")
    res = probe_resolution or _default_probe(X.dim)
    probes = _probe_points(X.domain, res)
    # stream the probes in row blocks so the distance block stays small
    best = 0.0
    step = row_block(len(X))
    for start in range(0, probes.shape[0], step):
        d = distances(probes[start : start + step], X.points)
        best = max(best, float(d.min(axis=1).max()))
    return best, fill_distance_bound(X.domain, res)


def fill_distance_bound(domain: Domain, probe_resolution: int | None = None) -> float:
    """Half the probe-cell diagonal: how far ``fill_distance`` may undershoot."""
    res = probe_resolution or _default_probe(domain.dim)
    return float(np.linalg.norm(domain.widths / res)) / 2.0


def separation_radius(X: PointSet) -> float:
    """Exact ``min_{i != j} ||x_i - x_j|| / 2``, streamed in row blocks."""
    n = len(X)
    if n < 2:
        raise ConfigurationError("separation radius needs at least two points")
    best = np.inf
    step = row_block(n)
    for start in range(0, n, step):
        d = distances(X.points[start : start + step], X.points)
        i = np.arange(len(d))
        d[i, start + i] = np.inf  # the block's own diagonal
        best = min(best, d.min())
    return float(best / 2.0)


class MeshRatioTracker:
    """Mesh ratio of a point set that grows one point at a time.

    Each probe of ``fill_distance``'s grid keeps its distance to the nearest
    point added so far, and the set keeps its least pairwise distance.  Adding
    a point takes one minimum with its distances to the probes and one with
    its distances to the earlier points.  Minima are exact, so ``ratio()`` is
    bitwise ``fill_distance / separation_radius`` of the points added so far.
    """

    def __init__(self, domain: Domain, probe_resolution: int | None = None):
        self.probes = _probe_points(domain, probe_resolution or _default_probe(domain.dim))
        self.nearest = np.full(len(self.probes), np.inf)
        self.points = np.empty((0, domain.dim))
        self.closest = np.inf

    def add(self, x) -> None:
        x = np.asarray(x, dtype=float).reshape(1, -1)
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
