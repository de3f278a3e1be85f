"""Particle measures on the line and on phase space, and W1 distances.

Probability measures are represented by weighted particles: the time-indexed
measure flow produced by the solvers is the image of the initial ensemble under
a characteristic flow, which particles realize without numerical diffusion.

The coupling term is a Gaussian kernel smoothing of a position marginal.
`kernel_smooth(..., order)` gives it (order 0) and its first and second
x-derivatives (orders 1 and 2) as exact sums over the particles. The HJB
solvers need it at every grid node and time step, so they first deposit the
flow on the uniform lattice of the x grid by `linear_binning` and sum over the
lattice nodes instead (binned kernel estimation: Wand, J. Comput. Graph.
Stat. 3, 1994). Binning replaces q -> K(x - q) by its linear interpolant
between lattice nodes, so for unit mass the smoothing moves by at most
h^2 / (8 sigma^3 sqrt(2 pi)) at lattice spacing h and kernel width sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError

_WEIGHT_TOL = 1e-12
_N_EXACT = 2000  # particles up to which a uniform equal-count joint W1 is an assignment
_N_PROJECTIONS = 64  # projections of the sliced joint-W1 fallback
_COST_BLOCK = 1 << 16  # |dv| entries per block of the joint ground cost (512 kB)
_SLOPES = (-1.0, -2.0 / 3.0, -1.0 / 3.0, 0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
# rank-pairing directions (c, s): twelve points of max(|c|, |s|) = 1, among them x, v, x + v, x - v
_RANK_DIRECTIONS = tuple((1.0, t) for t in _SLOPES) + tuple((t, 1.0) for t in _SLOPES[1:-1])


def _uniform(weights) -> bool:
    """The one uniform-weight rule: every weight within _WEIGHT_TOL of 1/n."""
    return bool(np.allclose(weights, 1.0 / weights.size, atol=_WEIGHT_TOL, rtol=0))


def _as_1d(a, name):
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted particles in phase space (or on the line when velocities is None)."""

    positions: np.ndarray
    velocities: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        pos = _as_1d(self.positions, "positions")
        object.__setattr__(self, "positions", pos)
        if self.velocities is not None:
            vel = _as_1d(self.velocities, "velocities")
            if vel.shape != pos.shape:
                raise InvalidInputError("positions and velocities must have equal length")
            object.__setattr__(self, "velocities", vel)
        if self.weights is None:
            w = np.full(pos.shape, 1.0 / pos.size) if pos.size else np.empty(0)
        else:
            w = _as_1d(self.weights, "weights")
        if w.shape != pos.shape:
            raise InvalidInputError("weights must match the particle count")
        if pos.size == 0:
            raise InvalidInputError("empty ensemble")
        if not np.all(np.isfinite(pos)) or (
            self.velocities is not None and not np.all(np.isfinite(self.velocities))
        ):
            raise InvalidInputError("particle coordinates must be finite")
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= _WEIGHT_TOL):  # NaN fails too
            raise InvalidInputError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.positions.size

    @property
    def is_joint(self) -> bool:
        return self.velocities is not None

    def uniform_weights(self) -> bool:
        return _uniform(self.weights)


@dataclass(frozen=True)
class MeasureFlow:
    """Time-indexed particle flow sharing one weight vector (transport preserves mass).

    positions and velocities are arrays of shape (n_times, n_particles);
    velocities is None for a marginal (position-only) flow.
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray | None
    weights: np.ndarray

    def __post_init__(self):
        t = _as_1d(self.times, "times")
        if t.size < 2 or np.any(np.diff(t) <= 0):
            raise InvalidInputError("times must be strictly increasing with at least 2 nodes")
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] != t.size:
            raise InvalidInputError("positions must have shape (n_times, n_particles)")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", pos)
        if self.velocities is not None:
            vel = np.asarray(self.velocities, dtype=float)
            if vel.shape != pos.shape:
                raise InvalidInputError("velocities must match positions in shape")
            object.__setattr__(self, "velocities", vel)
        w = _as_1d(self.weights, "weights")
        if w.size != pos.shape[1]:
            raise InvalidInputError("weights must match the particle count")
        object.__setattr__(self, "weights", w)

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]

    def uniform_weights(self) -> bool:
        return _uniform(self.weights)

    def ensemble(self, k: int) -> ParticleEnsemble:
        vel = None if self.velocities is None else self.velocities[k]
        return ParticleEnsemble(self.positions[k], vel, self.weights)

    def marginal(self, k: int) -> ParticleEnsemble:
        return ParticleEnsemble(self.positions[k], None, self.weights)

    def marginal_flow(self) -> "MeasureFlow":
        return MeasureFlow(self.times, self.positions, None, self.weights)

    def index_at(self, t: float) -> int:
        """Nearest time-node index."""
        return int(np.argmin(np.abs(self.times - t)))


def wasserstein1_1d(a: ParticleEnsemble, b: ParticleEnsemble) -> float:
    """Exact W1 on the line: L1 distance between the quantile functions."""
    if a.is_joint or b.is_joint:
        raise InvalidInputError("wasserstein1_1d expects velocity-free ensembles")
    return _w1_quantile(a.positions, a.weights, b.positions, b.weights)


def _w1_quantile(xa, wa, xb, wb):
    ia = np.argsort(xa, kind="stable")
    ib = np.argsort(xb, kind="stable")
    xa, wa = xa[ia], wa[ia]
    xb, wb = xb[ib], wb[ib]
    ca, cb = np.cumsum(wa), np.cumsum(wb)
    # common refinement of both cumulative-weight partitions of [0, 1]
    levels = np.concatenate(([0.0], np.sort(np.concatenate((ca[:-1], cb[:-1]))), [1.0]))
    seg = np.diff(levels)
    mids = 0.5 * (levels[:-1] + levels[1:])
    qa = xa[np.searchsorted(ca, mids, side="left").clip(0, xa.size - 1)]
    qb = xb[np.searchsorted(cb, mids, side="left").clip(0, xb.size - 1)]
    return float(np.sum(seg * np.abs(qa - qb)))


def sup_w1_marginal(a: MeasureFlow, b: MeasureFlow) -> float:
    """sup over time rows of W1 between the position marginals of two flows.

    Equal-count uniform flows pair their sorted rows; others go through the
    quantile formula row by row.
    """
    if a.n_particles == b.n_particles and a.uniform_weights() and b.uniform_weights():
        da = np.abs(np.sort(a.positions, axis=1) - np.sort(b.positions, axis=1))
        return float(np.max(np.mean(da, axis=1)))
    rows = zip(a.positions, b.positions)
    return float(np.max([_w1_quantile(xa, a.weights, xb, b.weights) for xa, xb in rows]))


class W1Result(NamedTuple):
    value: float
    exact: bool

    def __float__(self):
        return self.value


def _ground_cost(a: ParticleEnsemble, b: ParticleEnsemble) -> np.ndarray:
    # one n*m array: |dv| is added into |dx| a block of rows at a time
    c = np.subtract.outer(a.positions, b.positions)
    np.abs(c, out=c)
    rows = max(1, _COST_BLOCK // b.size)
    d = np.empty((min(rows, a.size), b.size))
    for r0 in range(0, a.size, rows):
        dr = d[: min(rows, a.size - r0)]
        np.subtract.outer(a.velocities[r0 : r0 + rows], b.velocities, out=dr)
        np.abs(dr, out=dr)
        c[r0 : r0 + rows] += dr
    return c


def wasserstein1_joint(a: ParticleEnsemble, b: ParticleEnsemble) -> W1Result:
    """W1 between two ensembles with ground metric |dx| + |dv|; the pair picks the method.

    Velocity-free ensembles get the exact quantile W1 (``wasserstein1_1d``).
    Phase-space ensembles of equal count with uniform weights, up to _N_EXACT
    particles, get the exact assignment. Every other pair gets sliced W1 over
    64 projections at angles drawn with seed 0, flagged approximate.
    """
    if a.is_joint != b.is_joint:
        raise InvalidInputError("cannot mix joint and velocity-free ensembles")
    if not a.is_joint:
        return W1Result(wasserstein1_1d(a, b), True)
    if a.size == b.size <= _N_EXACT and a.uniform_weights() and b.uniform_weights():
        from scipy.optimize import linear_sum_assignment

        cost = _ground_cost(a, b)
        rows, cols = linear_sum_assignment(cost)
        return W1Result(float(cost[rows, cols].mean()), True)
    return W1Result(_w1_sliced(a, b), False)


def _joint_w1_bounds(a: ParticleEnsemble, b: ParticleEnsemble) -> tuple[float, float]:
    """(lower, upper) bounds on ``wasserstein1_joint(a, b)`` from twelve rank pairings.

    Each pairing sorts both phase-space ensembles along one direction (c, s)
    with max(|c|, |s|) = 1 and pairs them by rank. Its cost, the mean of
    |dx| + |dv| over the pairs, bounds W1 from above (any coupling does); it
    also bounds the sliced fallback, since |c dx + s dv| <= |dx| + |dv| for
    any unit (c, s). The mean of |c dx + s dv| over the same pairs is the 1-D
    W1 along (c, s), a lower bound on the exact W1 because |c dx + s dv| <=
    |dx| + |dv| for these directions too; the sliced fallback has no such
    bound, so past _N_EXACT particles the lower bound is 0. A rank
    pairing is a coupling only for equal counts with uniform weights;
    otherwise the bounds are (0, inf).

    The projections c x + s v round in absolute terms: each is within two ulps
    of the largest |x| + |v| of its exact value, so the lower bound drops four
    such ulps, two per side of a projected difference, to stay below the exact W1.
    """
    if a.size != b.size or not (a.uniform_weights() and b.uniform_weights()):
        return 0.0, np.inf
    scale = max(float(np.max(np.abs(e.positions) + np.abs(e.velocities))) for e in (a, b))
    lower, upper = 0.0, np.inf
    for c, s in _RANK_DIRECTIONS:
        pa = c * a.positions + s * a.velocities
        pb = c * b.positions + s * b.velocities
        ia, ib = np.argsort(pa, kind="stable"), np.argsort(pb, kind="stable")
        lower = max(lower, float(np.abs(pa[ia] - pb[ib]).mean()))
        cost = np.abs(a.positions[ia] - b.positions[ib])
        cost += np.abs(a.velocities[ia] - b.velocities[ib])
        upper = min(upper, float(cost.mean()))
    lower = max(0.0, lower - 4.0 * float(np.spacing(scale)))
    return (lower if a.size <= _N_EXACT else 0.0), upper


def _w1_sliced(a, b):
    angles = np.random.default_rng(0).uniform(0.0, np.pi, size=_N_PROJECTIONS)
    total = 0.0
    for th in angles:
        c, s = np.cos(th), np.sin(th)
        pa = c * a.positions + s * a.velocities
        pb = c * b.positions + s * b.velocities
        total += _w1_quantile(pa, a.weights, pb, b.weights)
    return total / _N_PROJECTIONS


def kernel_smooth(x, positions, weights, sigma, order=0):
    """(rho_sigma * m)(x) for a weighted particle measure m, or its first or
    second x-derivative (order 1 or 2), with rho_sigma the Gaussian kernel."""
    if order not in (0, 1, 2):
        raise InvalidInputError(f"kernel order must be 0, 1 or 2, got {order!r}")
    x = np.asarray(x, dtype=float)
    r = x[..., None] - positions
    terms = weights * (np.exp(-0.5 * (r / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi)))
    if order == 1:
        terms = terms * (-r / sigma**2)
    elif order == 2:
        terms = terms * ((r / sigma**2) ** 2 - 1.0 / sigma**2)
    return np.sum(terms, axis=-1)


def linear_binning(flow: MeasureFlow, nodes):
    """Deposit every time row of a flow's positions on the uniform lattice of ``nodes``.

    Each particle splits its weight between the two lattice nodes around it,
    in proportion to its nearness to each. The lattice keeps the spacing and
    offset of ``nodes`` and extends past their ends to cover every particle.
    Returns the lattice and an (n_times, n_lattice) weight table whose rows
    sum to the flow's mass.
    """
    nodes = _as_1d(nodes, "nodes")
    h = nodes[1] - nodes[0]
    # in place and one deposit per side: the working set is three arrays of the
    # positions' size, as in one exact kernel_smooth call on a time row
    s = flow.positions - nodes[0]
    s /= h
    lo = min(0, int(np.floor(s.min())))
    n = max(nodes.size - 1, int(np.ceil(s.max()))) - lo + 1
    s -= lo
    i0 = s.astype(np.int64)  # s >= 0, so truncation is floor
    np.minimum(i0, n - 2, out=i0)
    s -= i0  # the fraction past the left node
    i0 += n * np.arange(flow.n_times)[:, None]
    size, w = flow.n_times * n, flow.weights
    left = 1.0 - s
    left *= w
    table = np.bincount(i0.ravel(), left.ravel(), minlength=size)
    s *= w
    i0 += 1
    table += np.bincount(i0.ravel(), s.ravel(), minlength=size)
    return nodes[0] + h * np.arange(lo, lo + n), table.reshape(flow.n_times, n)


def lattice_ensemble(n: int, box=((-1.0, 1.0), (-1.0, 1.0))) -> ParticleEnsemble:
    """Uniform-weight particles on a regular phase-space lattice inside ``box``."""
    side = max(2, int(round(np.sqrt(n))))
    (x0, x1), (v0, v1) = box
    # cell midpoints, so refinement mimics an absolutely continuous density
    xs = x0 + (x1 - x0) * (np.arange(side) + 0.5) / side
    vs = v0 + (v1 - v0) * (np.arange(side) + 0.5) / side
    X, V = np.meshgrid(xs, vs, indexing="ij")
    return ParticleEnsemble(X.ravel(), V.ravel())


def gaussian_ensemble(n: int, box=((-1.0, 1.0), (-1.0, 1.0)), seed: int = 0) -> ParticleEnsemble:
    """I.i.d. truncated-Gaussian particles with a fixed seed."""
    rng = np.random.default_rng(seed)
    (x0, x1), (v0, v1) = box
    cx, cv = 0.5 * (x0 + x1), 0.5 * (v0 + v1)
    sx, sv = 0.25 * (x1 - x0), 0.25 * (v1 - v0)
    xs = np.clip(rng.normal(cx, sx, size=n), x0, x1)
    vs = np.clip(rng.normal(cv, sv, size=n), v0, v1)
    return ParticleEnsemble(xs, vs)
