"""Backward semi-Lagrangian solvers for the penalized and limit value functions.

The penalized problem is solved on a (t, x, v) box with a discrete acceleration
control set; the limit problems are solved on (t, x) with velocity controls.
Foot points fall on fixed offsets of the grid, so the multilinear interpolation
stencils form time-independent sparse operators, built once per solve (once
per eps rung of a coupled Picard loop, as an `AccelerationOperator`), and
each backward step is a sparse matvec plus a min over controls. An operator
is kept as its CSR arrays (`CSRStencil`) and applied by scipy's compiled
`csr_matvec`, the call that `csr_matrix @ u` makes, which `_scipy` loads
without the rest of `scipy.sparse`. Both
solvers run one backward sweep (`_backward_sweep`) over blocks of controls.
The penalized solver makes one contiguous block per CPU of the process's
affinity mask, and splits each block into chunks of whole controls, each with
its own operator, allocated whole and filled one control at a time. A chunk
holds at most `CANDIDATE_CHUNK_BYTES` of float64 candidates (and at least one
control), so a step holds one chunk's candidates per thread, not a block's.
The sweep takes the minimum over each block but the first on a worker
thread, chunk by chunk; the exact `np.minimum` of the chunk and block minima
makes the values independent of the chunking and of the CPU count. The limit
solver has one block of one chunk, so it runs on the calling thread. This is
the only module of the package that starts threads. A coupled running cost
sees the measure flow through its position marginals, binned once per solve
on the lattice of the x axis (`measures.linear_binning`).

Each solver allocates its value field, which outlives the solve, before the
operator it builds, which dies with it. Once a freed large array has raised
glibc's dynamic mmap threshold, both land on the heap: an operator freed
above the field leaves room at the top of the heap that the next large array
(a joint-W1 cost matrix) grows into, where one freed below the field leaves
a hole that array cannot use.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._scipy import csr_matvec
from .errors import ConfigurationError, InvalidInputError, UnsupportedModelError, as_index
from .measures import MeasureFlow, ParticleEnsemble, linear_binning
from .model import LagrangianSpec, TerminalCost

# the default base acceleration set: BASE_N_A points on [-BASE_A_MAX, BASE_A_MAX]
BASE_A_MAX = 8.0
BASE_N_A = 41
# float64 candidates one operator chunk may hold: 2^18 rows, 3 controls of the 321x251 grid
CANDIDATE_CHUNK_BYTES = 2**21


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform (t, x, v) box [0,T] x [-R_x,R_x] x [-R_v,R_v]; the solvers read each
    axis's spacing from its first two nodes."""

    x: np.ndarray
    v: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        for name in ("x", "v", "t"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size < 3:
                raise ConfigurationError(f"grid axis {name} needs at least 3 nodes")
            steps = np.diff(arr)
            if not (steps[0] > 0 and np.allclose(steps, steps[0], rtol=1e-9, atol=0)):
                raise ConfigurationError(f"grid axis {name} must be increasing and uniform")
            if name != "t" and not np.allclose(arr, -arr[::-1], rtol=0, atol=1e-9 * steps[0]):
                raise ConfigurationError(f"grid axis {name} must be symmetric about 0")
            object.__setattr__(self, name, arr)
        if self.t[0] != 0:
            raise ConfigurationError("grid axis t must start at 0")

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")  # an overflowing span fails the checks quietly
    def regular(cls, R_x=3.0, R_v=4.0, T=1.0, N_x=101, N_v=81, N_t=201):
        for name, n in (("x", N_x), ("v", N_v), ("t", N_t)):
            if not as_index(n, f"N_{name}", ConfigurationError) >= 3:  # before np.linspace
                raise ConfigurationError(f"grid axis {name} needs at least 3 nodes")
        return cls(
            x=np.linspace(-R_x, R_x, N_x),
            v=np.linspace(-R_v, R_v, N_v),
            t=np.linspace(0.0, T, N_t),
        )

    @property
    def dx(self):
        return self.x[1] - self.x[0]

    @property
    def dv(self):
        return self.v[1] - self.v[0]

    @property
    def dt(self):
        return self.t[1] - self.t[0]

    @property
    def T(self):
        return float(self.t[-1])

    @property
    def R_x(self):
        return float(self.x[-1])

    @property
    def R_v(self):
        return float(self.v[-1])


@dataclass(frozen=True)
class ControlSet:
    """Strictly increasing, symmetric discrete control values containing 0."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.diff(vals) > 0):  # a_max reads the last value
            raise ConfigurationError("control values must be strictly increasing")
        if vals.size % 2 == 0:
            raise ConfigurationError("control set must have an odd point count (0 must be a node)")
        if not np.allclose(vals, -vals[::-1]):
            raise ConfigurationError("control set must be symmetric about 0")
        object.__setattr__(self, "values", vals)

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")  # an overflowing span fails the checks quietly
    def symmetric(cls, a_max: float, n: int):
        if not as_index(n, "the control count", ConfigurationError) >= 1:  # before np.linspace
            raise ConfigurationError(f"control set needs at least one point, got {n}")
        return cls(np.linspace(-a_max, a_max, n))

    @property
    def a_max(self):
        return float(self.values[-1])


@dataclass(frozen=True)
class ValueField:
    """Discrete value function: shape (N_t, N_x, N_v) for eps > 0, (N_t, N_x) for a limit."""

    values: np.ndarray
    grid: PhaseGrid
    eps: float

    @property
    def is_phase(self) -> bool:
        return self.values.ndim == 3

    def probe(self, t, x, v=None):
        """Value at the nearest (t, x, v) node of a phase field, or (t, x) node
        of a limit field; InvalidInputError if `v` is missing or extra."""
        if (v is None) == self.is_phase:
            raise InvalidInputError("a phase field is probed at (t, x, v), a limit field at (t, x)")
        k = int(np.argmin(np.abs(self.grid.t - t)))
        i = int(np.argmin(np.abs(self.grid.x - x)))
        if self.is_phase:
            j = int(np.argmin(np.abs(self.grid.v - v)))
            return float(self.values[k, i, j])
        return float(self.values[k, i])


def acceleration_controls(
    grid: PhaseGrid, eps: float, base: ControlSet | None = None
) -> ControlSet:
    """Acceleration set for one eps: the base box (default [-BASE_A_MAX, BASE_A_MAX]
    with BASE_N_A points) widened to 0.75 R_v / sqrt(eps), keeping the base point count.

    The braking layer uses accelerations of order |v - b| / sqrt(eps), so a
    fixed control box would throttle the layer at small eps.
    """
    a_max, n = (BASE_A_MAX, BASE_N_A) if base is None else (base.a_max, base.values.size)
    return ControlSet.symmetric(max(a_max, 0.75 * grid.R_v / np.sqrt(eps)), n)


def _stencil_1d(q, nodes):
    """Clamped linear-interpolation stencil: base index and fraction."""
    h = nodes[1] - nodes[0]
    s = (q - nodes[0]) / h
    i0 = np.clip(np.floor(s).astype(np.int64), 0, nodes.size - 2)
    return i0, np.clip(s - i0, 0.0, 1.0)


def _excess(q, nodes):
    """Distance of q outside [nodes[0], nodes[-1]]; 0 inside."""
    return np.maximum(np.maximum(nodes[0] - q, q - nodes[-1]), 0.0)


def _index_dtype(n_entries: int):
    """Index type of a CSR operator with n_entries stored entries (indptr ends at n_entries)."""
    return np.int32 if n_entries < 2**31 else np.int64


def _row_pointer(n_rows, n_corners):
    """CSR row pointer of n_rows rows of n_corners entries each. Its first
    r + 1 entries are the row pointer of the first r rows."""
    n_entries = n_rows * n_corners
    return np.arange(0, n_entries + 1, n_corners, dtype=_index_dtype(n_entries))


class CSRStencil(NamedTuple):
    """A CSR operator with n_cols columns: row r holds its entries
    indices[indptr[r]:indptr[r + 1]] and data[indptr[r]:indptr[r + 1]]."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int


def _stencil_operator(n_cols, indices, data, indptr) -> CSRStencil:
    """CSR operator with n_cols columns from `indices` and `data` of one shape,
    whose last axis is the interpolation corners and whose leading axes, in C
    order, are the rows: row r holds the (column, weight) pairs of its corners
    in order, so the matvec sums them in that order. `indptr` is a
    `_row_pointer` of at least that many rows; the operator keeps a view of it.
    The checks are the constant-time ones `csr_matrix` makes, which the
    compiled matvec relies on."""
    n_rows = data.size // data.shape[-1]
    S = CSRStencil(indptr[: n_rows + 1], indices.reshape(-1), data.reshape(-1), n_cols)
    if not (
        S.indices.dtype == S.indptr.dtype
        and S.indptr.size == n_rows + 1
        and S.indptr[-1] == S.indices.size == S.data.size
    ):
        raise ValueError("the stencil's row pointer, indices and weights are not a CSR operator")
    return S


def _n_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _acceleration_block(grid: PhaseGrid, spec: LagrangianSpec, eps: float, a: np.ndarray):
    """Stencil entries and constant rows of the acceleration controls `a`:
    `indices` and `data` shaped (n_a, n_x, n_v, 4) for `_stencil_operator`,
    and `const` shaped (n_a, n_x * n_v).

    Row c * n_x * n_v + i * n_v + j of the operator interpolates u(t+dt) at the
    foot point of node (i, j) under a[c], summing its four corners in a fixed
    order; const[c] holds that candidate's control cost, trapezoidal foot-point
    cost and growth-envelope penalties. Every entry depends on its own control
    only, so a chunk of controls gives exactly the rows of the full set. The
    arrays are allocated at their final size and filled one control at a time,
    so the construction holds one control's foot points and stencils besides.
    """
    x, v, dt = grid.x, grid.v, grid.dt
    n_x, n_v, n_a = x.size, v.size, a.size
    m0, T = spec.M0, grid.T
    indices = np.empty((n_a, n_x, n_v, 4), dtype=_index_dtype(4 * n_a * n_x * n_v))
    data = np.empty((n_a, n_x, n_v, 4))
    const = np.empty((n_a, n_x, n_v))
    foot_v = v[None, :] + dt * a[:, None]  # (n_a, n_v): small, so taken for the whole block
    iv0, fv = _stencil_1d(foot_v, v)
    ex_v = _excess(foot_v, v)
    pen_v = m0 * T * ex_v * (ex_v + 2.0 * grid.R_v)
    kinetic, control_cost = spec.kinetic(foot_v), dt * (0.5 * eps * a**2)
    envelope = m0 * T * (1.0 + v**2)  # growth-envelope penalty per unit of x excess
    for c, shift in enumerate(0.5 * dt**2 * a):
        foot_x = x[:, None] + dt * v[None, :] + shift
        const[c] = envelope * _excess(foot_x, x) + pen_v[c] + control_cost[c]
        const[c] += 0.5 * dt * (kinetic[c] + spec.potential(foot_x))
        ix0, fx = _stencil_1d(foot_x, x)
        for k, (cx, cv) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            indices[c, ..., k] = (ix0 + cx) * n_v + (iv0[c] + cv)
            data[c, ..., k] = (fx if cx else 1.0 - fx) * (fv[c] if cv else 1.0 - fv[c])
    return indices, data, const.reshape(n_a, n_x * n_v)


def _chunk_min(S: CSRStencil, const, u_next):
    """Smallest candidate of one chunk of controls at every node."""
    n_rows = S.indptr.size - 1
    cand = np.zeros(n_rows)
    csr_matvec(n_rows, S.n_cols, S.indptr, S.indices, S.data, u_next, cand)
    cand = cand.reshape(const.shape)
    cand += const
    return cand.min(axis=0)


def _block_min(chunks, u_next):
    """Smallest candidate of one control block at every node, one chunk
    `(S, const)` at a time: a chunk's candidates are freed before the next
    chunk's are computed."""
    best = _chunk_min(*chunks[0], u_next)
    for S, const in chunks[1:]:
        np.minimum(best, _chunk_min(S, const, u_next), out=best)
    return best


def _backward_sweep(grid: PhaseGrid, spec: LagrangianSpec, m_flow, g, blocks, node_running, u):
    """Fill `u`, shaped (N_t,) + node_running.shape, with the values on every
    time node.

    u(T) is the terminal cost. Each step back takes the smallest candidate of
    the control blocks at u(t+dt), every block but the first on a worker
    thread, and adds dt times the running cost at the node: `node_running`,
    which does not depend on t, plus the binned coupling at t. A block is a
    sequence of chunks `(S, const)`; its thread evaluates them in turn and
    reduces their minima into one array, so it holds one chunk's candidates at
    a time. The workers run only `_block_min`, so `coupling_value` stays on
    this thread, as perfbench's tracer keeps one span stack for all threads.
    """
    x, n_t, dt = grid.x, grid.t.size, grid.dt
    x_col = (-1,) + (1,) * (node_running.ndim - 1)  # an x vector along the first axis of a slice
    m_terminal = None if m_flow is None else m_flow.marginal(n_t - 1)
    u[-1] = np.asarray(g.g(x, m_terminal), dtype=float).reshape(x_col)
    binned = linear_binning(m_flow, x) if m_flow is not None and spec.is_coupled else None
    coupling = np.zeros_like(x)
    with ThreadPoolExecutor(max_workers=max(1, len(blocks) - 1)) as pool:
        for k in range(n_t - 2, -1, -1):
            u_next = u[k + 1].ravel()
            rest = [pool.submit(_block_min, chunks, u_next) for chunks in blocks[1:]]
            best = _block_min(blocks[0], u_next)
            for part in rest:
                np.minimum(best, part.result(), out=best)
            if binned is not None:
                lattice, table = binned
                coupling = spec.coupling_value(x, ParticleEnsemble(lattice, None, table[k]))
            u[k] = best.reshape(node_running.shape) + dt * (node_running + coupling.reshape(x_col))


@dataclass(frozen=True, eq=False)
class AccelerationOperator:
    """The part of an acceleration solve that does not depend on the measure flow
    or the terminal cost: the control blocks, each a tuple of chunks
    `(S, const)`, and the node half of the running cost, for one grid, spec,
    eps and control set.

    A coupled Picard loop re-solves the same HJB against a new flow at every
    iteration, so it builds this once (`acceleration_operator`) and passes it to
    every `solve_hjb_acceleration` call of the rung.
    """

    grid: PhaseGrid
    spec: LagrangianSpec
    eps: float
    controls: ControlSet
    blocks: tuple
    node_running: np.ndarray

    def require(self, grid: PhaseGrid, spec: LagrangianSpec, eps: float, controls: ControlSet | None):
        """Raise InvalidInputError unless this operator was built for these inputs,
        `controls=None` standing for `acceleration_controls(grid, eps)`."""
        same = (
            eps == self.eps
            and spec == self.spec
            and all(np.array_equal(getattr(grid, ax), getattr(self.grid, ax)) for ax in "xvt")
        )
        if same:
            controls = acceleration_controls(grid, eps) if controls is None else controls
            same = np.array_equal(controls.values, self.controls.values)
        if not same:
            raise InvalidInputError(
                "the acceleration operator was built for another grid, spec, eps or control set"
            )


def acceleration_operator(
    grid: PhaseGrid, spec: LagrangianSpec, eps: float, controls: ControlSet | None = None
) -> AccelerationOperator:
    """Control blocks and node running cost of `solve_hjb_acceleration`.

    The controls (default `acceleration_controls(grid, eps)`) are split into
    min(CPUs, controls) contiguous blocks whose sizes differ by at most one,
    so `_backward_sweep` minimizes one block per CPU at every step. Each block
    is split in turn into the fewest contiguous chunks of whole controls, sizes
    again differing by at most one, whose candidates fit in
    `CANDIDATE_CHUNK_BYTES` (a chunk holds one control at least). Every chunk
    has its own operator and constant rows, allocated at their final size; a
    block below the chunk size is one chunk. The chunks' row pointers are
    prefixes of one array, sized for the largest chunk, that they all share.
    """
    if not 0 < eps < np.inf:
        raise InvalidInputError("eps must be positive and finite; use a limit solver for eps = 0")
    if controls is None:
        controls = acceleration_controls(grid, eps)
    if grid.dt * controls.a_max > 10.0 * max(grid.dx, grid.dv):
        raise ConfigurationError(
            "time step moves the velocity foot point more than 10 grid cells; refine t or coarsen a"
        )
    a = controls.values
    n_nodes = grid.x.size * grid.v.size
    per_chunk = max(1, CANDIDATE_CHUNK_BYTES // (8 * n_nodes))
    parts = [
        np.array_split(block, -(-block.size // per_chunk))
        for block in np.array_split(a, min(_n_cpus(), a.size))
    ]
    built = [[_acceleration_block(grid, spec, eps, a_c) for a_c in chunks] for chunks in parts]
    # allocated after the chunks, so it adds nothing to the construction peak
    indptr = _row_pointer(max(a_c.size for chunks in parts for a_c in chunks) * n_nodes, 4)
    blocks = tuple(
        tuple(
            (_stencil_operator(n_nodes, indices, data, indptr), const)
            for indices, data, const in chunks
        )
        for chunks in built
    )
    # trapezoid rule: half the running cost at the node, half at the foot point
    node_running = 0.5 * spec.kinetic(grid.v)[None, :] + 0.5 * spec.potential(grid.x)[:, None]
    return AccelerationOperator(grid, spec, eps, controls, blocks, node_running)


def solve_hjb_acceleration(
    grid: PhaseGrid,
    spec: LagrangianSpec,
    m_flow: MeasureFlow | None,
    g: TerminalCost,
    eps: float,
    controls: ControlSet | None = None,
    operator: AccelerationOperator | None = None,
) -> ValueField:
    """Backward sweep for the acceleration-penalized value function.

    Each node minimizes, over discrete accelerations a,

        dt * (eps/2 a^2) + dt/2 * (L0 at the node + L0 at the foot point)
            + Interp u(t+dt, x + dt v + dt^2/2 a, v + dt a),

    i.e. a midpoint-accurate characteristic with trapezoidal running cost.
    Foot points outside the box are charged the growth-envelope penalty so
    outward excursions are suboptimal.

    Without `operator` the solve builds its own (`acceleration_operator`) and
    frees it on return; a given operator must have been built for this grid,
    spec, eps and control set, or InvalidInputError is raised.
    """
    u = np.empty((grid.t.size, grid.x.size, grid.v.size))  # before the operator: see the module doc
    if operator is None:
        operator = acceleration_operator(grid, spec, eps, controls)
    else:
        operator.require(grid, spec, eps, controls)
    _backward_sweep(grid, spec, m_flow, g, operator.blocks, operator.node_running, u)
    return ValueField(u, grid, eps)


def solve_hjb_limit_classical(
    grid: PhaseGrid,
    spec: LagrangianSpec,
    m_flow: MeasureFlow | None,
    g: TerminalCost,
) -> ValueField:
    """Limit value function on (t, x) with the v axis as the velocity controls b.

    Each node minimizes dt (kinetic(b) + potential(x) + coupling(x, m_t))
    + Interp u(t+dt, x+dt b); foot points outside the box pay a per-unit-excess
    penalty above the value's x-Lipschitz bound.
    """
    x, b, dt = grid.x, grid.v, grid.dt
    u = np.empty((grid.t.size, x.size))  # before the operator: see the module doc
    foot = x[None, :] + dt * b[:, None]  # (n_b, n_x)
    ix0, fx = _stencil_1d(foot, x)
    indptr = _row_pointer(foot.size, 2)
    indices = np.stack((ix0, ix0 + 1), axis=-1).astype(indptr.dtype)
    S = _stencil_operator(x.size, indices, np.stack((1.0 - fx, fx), axis=-1), indptr)
    pen_rate = spec.M0 * (1.0 + grid.T) * (1.0 + grid.R_v**2) + g.dg_bound
    const = dt * spec.kinetic(b)[:, None] + pen_rate * _excess(foot, x)
    _backward_sweep(grid, spec, m_flow, g, [[(S, const)]], spec.potential(x), u)
    return ValueField(u, grid, 0.0)


def solve_hjb_mfg_control(
    grid: PhaseGrid,
    spec: LagrangianSpec,
    mu_flow: MeasureFlow | None,
    g: TerminalCost,
) -> ValueField:
    """Limit value function of the state-control formulation: running cost b^2/2 + L0(x, mu_t).

    Every catalog coupling reads the position marginal of mu_t, so with the
    quadratic kinetic term this is `solve_hjb_limit_classical`.
    """
    if not spec.is_quadratic_kinetic:
        raise UnsupportedModelError("the state-control limit requires the quadratic kinetic term")
    return solve_hjb_limit_classical(grid, spec, mu_flow, g)


def gradient_x(field: ValueField) -> np.ndarray:
    """D_x of a value field: centered interior, one-sided at the x-boundary."""
    return np.gradient(field.values, field.grid.dx, axis=1)


def interp_slice_xv(slice_xv: np.ndarray, grid: PhaseGrid, xq, vq):
    """Bilinear interpolation of one (x, v) slice at 1-D arrays of query points,
    clamped to the box."""
    ix0, fx = _stencil_1d(np.asarray(xq, dtype=float), grid.x)
    iv0, fv = _stencil_1d(np.asarray(vq, dtype=float), grid.v)
    gx, gv = 1 - fx, 1 - fv
    n_v = slice_xv.shape[1]
    flat = slice_xv.ravel()
    k = ix0 * n_v + iv0
    return (
        gx * gv * flat.take(k)
        + gx * fv * flat.take(k + 1)
        + fx * gv * flat.take(k + n_v)
        + fx * fv * flat.take(k + (n_v + 1))
    )


def interp_slice_x(slice_x: np.ndarray, grid: PhaseGrid, xq):
    """Linear interpolation of one x slice, clamped to the box."""
    ix0, fx = _stencil_1d(np.asarray(xq, dtype=float), grid.x)
    return (1 - fx) * slice_x[ix0] + fx * slice_x[ix0 + 1]
