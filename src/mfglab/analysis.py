"""Sweep harness: run the penalized system down an eps ladder, compare against
the limit solutions, audit the a-priori estimates, and fit empirical rates.

The audits evaluate each inequality with the constants assembled exactly as in
the derivations (Q1 from the energy bound, Q2 from the Hoelder bound, C1 from
the space-gradient bound), so a negative margin flags a genuine violation
rather than a tuned threshold. Gaps, oscillations and the gradient bound are
read on the probe box |x|, |v| <= PROBE_RADIUS = 2 (the convergence is locally
uniform), and the acceleration energy on [0.1 T, T]. Every measurement on a
value field is taken one time slice at a time, allocating nothing its size,
and on a particle flow one or two time rows at a time (the Hoelder audit's
adjacent distances a block of rows, ``_row_blocks``), allocating nothing of
the flow's size but that audit's sorted positions.

A control rung takes every measurement that reads its value field or whole
flows first. It then copies the rows of its five joint probes, 4 n floats per
probe, into a buffer allocated before its solve, and drops its solution. So
its exact assignments, each with an 8 n^2-byte cost matrix, run beside the
limit solution and those rows only: not beside the rung's value field
(6.6 MB on the 101x81x101 grid) or its flows (3.2 MB at n = 2000). The buffer
lies below the rung's arrays on the heap, so they are freed into one block
at its top, where the next cost matrix fits.

Two measurements skip exact work that cannot change their number. The Hoelder
audit skips every node pair whose triangle-inequality bound cannot go below the
minimum found so far. A sweep's sup_d1_joint brackets each joint-W1 probe
between two rank-pairing bounds and solves the probes one after another on the
calling thread, in descending upper bound, until the next upper bound is below
the largest lower bound or a W1 already found. Both report the same float as
the full computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from . import io
from .errors import ConfigurationError, InvalidInputError, NumericalError, TransportError
from .hjb import ControlSet, PhaseGrid, ValueField
from .measures import (
    MeasureFlow,
    ParticleEnsemble,
    W1Result,
    _joint_w1_bounds,
    _w1_quantile,
    sup_w1_marginal,
    wasserstein1_joint,
)
from .mfg import (
    MAX_ITER, TOL_FP, MFGSolution, solve_eps_system, solve_limit_classical, solve_mfg_of_control,
)
from .model import LagrangianSpec, TerminalCost

PROBE_RADIUS = 2.0
ACCEL_CUTOFF = 0.1  # the acceleration-energy audit runs over [ACCEL_CUTOFF * T, T]
_BOUND_SLACK = 1e-9  # relative slack between a distance bound and the value it bounds
_PROBE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)  # fractions of T where the joint flows are compared
_ROW_BLOCK_VALUES = 2**18  # values per block of rows of the Hoelder audit's adjacent distances

REPORT_COLUMNS = (
    "eps",
    "sup_u_gap",
    "sup_d1_marginal",
    "sup_d1_joint",
    "osc_v",
    "lemma41_ok",
    "cor42_margin",
    "cor43_margin",
    "prop46_margin",
    "prop52_value",
    "iters",
    "converged",
)


@dataclass(frozen=True)
class SweepPlan:
    """The eps ladder of a sweep: positive, finite and strictly decreasing."""

    eps_ladder: tuple = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)

    def __post_init__(self):
        ladder = tuple(float(e) for e in self.eps_ladder)
        if len(ladder) == 0 or not all(0 < e < np.inf for e in ladder):
            raise InvalidInputError("eps ladder must be positive and finite")
        if any(ladder[i + 1] >= ladder[i] for i in range(len(ladder) - 1)):
            raise InvalidInputError("eps ladder must be strictly decreasing")
        object.__setattr__(self, "eps_ladder", ladder)


class RateFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    clipped: bool


def fit_rate(xs, ys) -> RateFit:
    """Least-squares slope of log(y) against log(x); zero gaps clipped at 1e-15."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 3:
        raise InvalidInputError("fit_rate needs at least 3 (x, y) pairs")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise InvalidInputError("fit_rate needs finite x and y")
    if np.any(xs <= 0) or np.any(ys < 0):
        raise InvalidInputError("fit_rate needs positive x and nonnegative y")
    clipped = bool(np.any(ys < 1e-15))
    ys = np.maximum(ys, 1e-15)
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), r2, clipped)


# -- estimate audits ----------------------------------------------------------


def energy_constant(spec: LagrangianSpec, g: TerminalCost, T: float) -> float:
    """Q1 with the energy bound's assembly 2 M0 (||g||_inf + M0 T)."""
    return 2.0 * spec.M0 * (g.g_inf + spec.M0 * T)


def holder_constant(spec: LagrangianSpec, g: TerminalCost, T: float, mu0: ParticleEnsemble) -> float:
    """Q2 = (integral of Q1 (1 + |v|^2) over mu0)^(1/2)."""
    q1 = energy_constant(spec, g, T)
    return float(np.sqrt(np.sum(mu0.weights * q1 * (1.0 + mu0.velocities**2))))


@dataclass(frozen=True)
class EstimateAudit:
    """Worst-case margins of the a-priori inequalities on one solution (>= 0 passes)."""

    lemma41_margin: float
    cor42_margin: float
    cor43_margin: float
    prop46_margin: float
    prop52_value: float
    q1: float
    q2: float

    @property
    def lemma41_ok(self) -> bool:
        return self.lemma41_margin >= -1e-9


def _time_integral(row, t):
    """np.trapezoid(y, t, axis=0) bit for bit, where row(k) gives y[k]: as it does
    on a C-ordered y, this adds the interval terms in order, two rows at a time."""
    rows = zip(t, map(row, range(t.size)))
    terms = ((t1 - t0) * (y1 + y0) / 2.0 for (t0, y0), (t1, y1) in pairwise(rows))
    total = next(terms)
    for term in terms:
        total += term
    return total


def _gradient_row(f, t, k):
    """np.gradient(f, t, axis=0)[k] bit for bit (second-order interior,
    first-order edges), from rows k - 1 to k + 1 of f. Like np.gradient, it
    takes the uniform-spacing formula when every step of t is equal."""
    dt = np.diff(t)
    if k in (0, t.size - 1):
        j = min(k, t.size - 2)
        return (f[j + 1] - f[j]) / dt[j]
    if np.all(dt == dt[0]):
        return (f[k + 1] - f[k - 1]) / (2.0 * dt[0])
    d1, d2 = dt[k - 1], dt[k]
    a, b, c = -d2 / (d1 * (d1 + d2)), (d2 - d1) / (d1 * d2), d1 / (d2 * (d1 + d2))
    return a * f[k - 1] + b * f[k] + c * f[k + 1]


def _row_blocks(n_rows: int, n_cols: int):
    """Consecutive index blocks of range(n_rows), each of at most
    _ROW_BLOCK_VALUES values of n_cols columns (one row at least)."""
    step = max(1, _ROW_BLOCK_VALUES // n_cols)
    return [np.arange(k, min(k + step, n_rows)) for k in range(0, n_rows, step)]


def _pairwise_holder_margin(flow: MeasureFlow, q2: float) -> float:
    """min over node pairs of q2 sqrt|s - t| - d1(m_s, m_t).

    By the triangle inequality d1(m_k, m_l) is at most D(k, l), the sum of the
    adjacent-node distances from k to l, so a pair whose bound
    q2 sqrt(t_l - t_k) - D(k, l) is not below the running minimum (less a
    relative slack for rounding) cannot lower it and is skipped. The adjacent
    pairs, which D needs anyway, give the first minimum.
    """
    t, X, w = flow.times, flow.positions, flow.weights
    if flow.uniform_weights():
        S = np.sort(X, axis=1)

        def d1(ks, ls):  # equal weights: the quantile formula pairs sorted rows
            return np.mean(np.abs(S[ls] - S[ks]), axis=1)

    else:

        def d1(ks, ls):
            return np.array([_w1_quantile(X[k], w, X[l], w) for k, l in np.broadcast(ks, ls)])

    adjacent = np.concatenate([d1(ks, ks + 1) for ks in _row_blocks(t.size - 1, X.shape[1])])
    D = np.concatenate(([0.0], np.cumsum(adjacent)))
    margin = float(np.min(q2 * np.sqrt(t[1:] - t[:-1]) - adjacent))
    for k in range(t.size - 2):
        ls = np.arange(k + 2, t.size)
        reach = q2 * np.sqrt(t[ls] - t[k])
        keep = reach - (D[ls] - D[k]) - _BOUND_SLACK * (reach + D[ls]) < margin
        if keep.any():
            margin = min(margin, float(np.min(reach[keep] - d1(k, ls[keep]))))
    return margin


def audit_estimates(
    solution: MFGSolution, spec: LagrangianSpec, g: TerminalCost
) -> EstimateAudit:
    """Audit the value envelope, energy, Hoelder, gradient, and acceleration bounds."""
    field = solution.value
    flow = solution.flow
    if not field.is_phase or flow.velocities is None:
        raise InvalidInputError("estimate audits apply to penalized (phase-space) solutions")
    grid = field.grid
    u = field.values
    T, M0 = grid.T, spec.M0
    v = grid.v

    upper = M0 * T * (1.0 + v**2) + g.g_inf  # value envelope
    lower = -T * M0 - g.g_inf
    lemma41 = _over_slices(np.min, lambda s: min(np.min(upper - s), np.min(s - lower)), u)

    q1 = energy_constant(spec, g, T)
    V, times = flow.velocities, flow.times
    energies = _time_integral(lambda k: V[k] ** 2, times)
    cor42 = float(np.min(q1 * (1.0 + V[0] ** 2) - energies))

    q2 = holder_constant(spec, g, T, flow.ensemble(0))
    cor43 = _pairwise_holder_margin(flow, q2)

    # gradient bound on the box, away from the grid boundary (one-sided stencils
    # there); D_x is taken on each whole slice, as cutting the box out first
    # would put one-sided stencils at the box edges
    c1 = (M0 * (T + q1) + g.dg_bound) / T
    ix, iv = _box_indices(grid)
    bound = c1 * T * (1.0 + v[iv] ** 2)
    prop46 = _over_slices(
        np.min, lambda s: bound - np.abs(np.gradient(s, grid.dx, axis=0)[ix, iv]), u
    )

    # the acceleration dv/dt on the time nodes of [ACCEL_CUTOFF T, T], a suffix of the axis
    kc = int(np.argmax(times >= ACCEL_CUTOFF * T))
    acc_sq = lambda k: _gradient_row(V, times, kc + k) ** 2
    prop52 = float(np.max(_time_integral(acc_sq, times[kc:])))

    return EstimateAudit(lemma41, cor42, cor43, prop46, prop52, q1, q2)


# -- comparisons --------------------------------------------------------------


def _box_indices(grid: PhaseGrid):
    """x and v slices of the probe box |x|, |v| <= PROBE_RADIUS, contiguous on increasing axes."""
    r = PROBE_RADIUS
    return tuple(slice(ax.searchsorted(-r), ax.searchsorted(r, "right")) for ax in (grid.x, grid.v))


def _over_slices(reduce, fn, *fields):
    """reduce (np.min or np.max) of fn over the time slices of the fields, one at
    a time: the float, NaN included, that reduce of fn gives on the whole fields."""
    return float(reduce([reduce(fn(*s)) for s in zip(*fields, strict=True)]))


def velocity_oscillation(field: ValueField) -> float:
    """max over (t, x) in the probe box of the oscillation of u in v."""
    if not field.is_phase:
        raise InvalidInputError("velocity_oscillation needs a (t, x, v) field")
    ix, iv = _box_indices(field.grid)
    return _over_slices(np.max, lambda s: np.ptp(s[ix, iv], axis=1), field.values)


def sup_value_gap(eps_field: ValueField, limit_field: ValueField) -> float:
    """sup over the probe box of |u^eps(t,x,v) - u0(t,x)|, on matching t and x axes."""
    axes = ((eps_field.grid.t, limit_field.grid.t), (eps_field.grid.x, limit_field.grid.x))
    if any(a.shape != b.shape or not np.allclose(a, b) for a, b in axes):
        raise InvalidInputError("value gap needs matching time and spatial grids")
    ix, iv = _box_indices(eps_field.grid)
    return _over_slices(
        np.max, lambda s, s0: np.abs(s[ix, iv] - s0[ix, None]), eps_field.values, limit_field.values
    )


def sup_marginal_gap(a: MeasureFlow, b: MeasureFlow) -> float:
    """sup over shared time nodes of d1 between position marginals."""
    if a.n_times != b.n_times or not np.allclose(a.times, b.times):
        raise InvalidInputError("flows must share the time grid")
    return sup_w1_marginal(a, b)


def _joint_probes(
    eps_solution: MFGSolution, control_solution: MFGSolution, fractions=_PROBE_FRACTIONS, out=None
):
    """(t, eps ensemble, control ensemble) at the time nodes nearest fractions of T.

    The ensembles hold copies of their rows, so they keep neither flow alive:
    per probe the eps x and v rows, then the control ones, in ``out`` (shape
    (len(fractions), 4, n); a new array when None).
    """
    fa, fb = eps_solution.flow, control_solution.flow
    if fa.velocities is None or fb.velocities is None:
        raise InvalidInputError("joint comparison needs phase-space flows")
    if fa.n_particles != fb.n_particles:
        raise InvalidInputError("joint W1 needs equal counts and uniform weights")
    T = fa.times[-1]
    nodes = [(fa.index_at(frac * T), fb.index_at(frac * T)) for frac in fractions]
    if out is None:
        out = np.empty((len(nodes), 4, fa.n_particles))
    probes = []
    for (ka, kb), (xa, va, xb, vb) in zip(nodes, out, strict=True):
        xa[:], va[:] = fa.positions[ka], fa.velocities[ka]
        xb[:], vb[:] = fb.positions[kb], fb.velocities[kb]
        a, b = ParticleEnsemble(xa, va, fa.weights), ParticleEnsemble(xb, vb, fb.weights)
        probes.append((float(fa.times[ka]), a, b))
    return probes


def compare_joint_reconstruction(
    eps_solution: MFGSolution, control_solution: MFGSolution, fractions=_PROBE_FRACTIONS
):
    """d1 between the joint flows at probe times, by ``wasserstein1_joint``.

    Returns a list of (t, W1Result) in ``fractions`` order. The flows must
    come from one uniform-weight mu0; each entry is an exact assignment.
    """
    return [
        (t, wasserstein1_joint(a, b))
        for t, a, b in _joint_probes(eps_solution, control_solution, fractions)
    ]


def _sup_joint_gap(probes) -> float:
    """max of the joint d1 over ``_joint_probes``' list of (t, a, b), solving
    only the probes that can hold it.

    Each probe's rank-pairing bounds (a few milliseconds) bracket its W1. The
    probes are solved in descending upper bound, and the walk stops at the
    first whose upper bound, plus a relative slack for the rounding of both
    sides, is below the largest lower bound or the largest W1 found so far: no
    later probe can hold the maximum. The result is the same float as the
    maximum over every probe.
    """
    bounds = [_joint_w1_bounds(a, b) for _, a, b in probes]
    best = max(lower for lower, _ in bounds)
    solved = {}
    for p in sorted(range(len(probes)), key=lambda p: bounds[p][1], reverse=True):
        if bounds[p][1] * (1.0 + _BOUND_SLACK) < best:
            break
        _, a, b = probes[p]
        solved[p] = wasserstein1_joint(a, b).value
        best = max(best, solved[p])
    return max(solved[p] for p in sorted(solved))  # in probe order, as the full maximum


# -- the sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple  # dict per eps rung, keys = REPORT_COLUMNS
    rates: dict  # column -> RateFit._asdict()

    def to_csv(self) -> str:
        columns = [[row[col] for row in self.rows] for col in REPORT_COLUMNS]
        return io.table_csv(",".join(REPORT_COLUMNS), len(self.rows), columns)

    def rates_json(self) -> str:
        return io.json_text(self.rates)


def _nan_row(eps):
    row = {col: float("nan") for col in REPORT_COLUMNS}
    row.update(eps=eps, lemma41_ok=False, iters=0, converged=False)
    return row


def run_sweep(
    plan: SweepPlan,
    spec: LagrangianSpec,
    g: TerminalCost,
    grid: PhaseGrid,
    mu0: ParticleEnsemble,
    variant: str = "classical",
    controls: ControlSet | None = None,
    tol_fp: float = TOL_FP,
    max_iter: int = MAX_ITER,
) -> ConvergenceReport:
    """Solve the limit system once, then every eps rung, and assemble the report.

    The limit solves use the velocity axis of the grid as their controls. Each
    eps rung passes ``controls``, the base acceleration set, to
    ``solve_eps_system``, which widens it for the rung's eps.
    Non-converged rungs are flagged (converged = 0); a rung whose solve fails on
    its own eps (TransportError, NumericalError, or a widened control set over
    the foot-point budget) becomes a NaN row. Other errors, e.g. bad input, propagate.
    """
    if variant == "classical":
        solve_limit = solve_limit_classical
    elif variant == "control":
        solve_limit = solve_mfg_of_control
    else:
        raise InvalidInputError(f"unknown sweep variant {variant!r}")
    if not mu0.is_joint:  # the eps rungs need velocities; fail before the limit solve
        raise InvalidInputError("the initial ensemble must carry velocities")
    if variant == "control" and not mu0.uniform_weights():  # as does the joint W1
        raise InvalidInputError("a control sweep needs uniform weights in mu0")
    limit = solve_limit(spec, g, grid, mu0, tol_fp=tol_fp, max_iter=max_iter)

    joint = variant == "control"
    rows = []
    for eps in plan.eps_ladder:
        # taken before the solve, the probe rows' buffer lies below the rung's
        # value field and flows, which then free into one block at the heap top,
        # where the joint W1's 8 n^2-byte cost matrix fits
        probe_rows = np.empty((len(_PROBE_FRACTIONS), 4, mu0.size)) if joint else None
        try:
            sol = solve_eps_system(
                spec, g, grid, mu0, eps, controls, tol_fp=tol_fp, max_iter=max_iter
            )
        except (TransportError, NumericalError, ConfigurationError):
            rows.append(_nan_row(eps))
            continue
        audit = audit_estimates(sol, spec, g)
        row = {
            "eps": eps,
            "sup_u_gap": sup_value_gap(sol.value, limit.value),
            "sup_d1_marginal": sup_marginal_gap(sol.flow, limit.flow),
            "sup_d1_joint": float("nan"),
            "osc_v": velocity_oscillation(sol.value),
            "lemma41_ok": audit.lemma41_ok,
            "cor42_margin": audit.cor42_margin,
            "cor43_margin": audit.cor43_margin,
            "prop46_margin": audit.prop46_margin,
            "prop52_value": audit.prop52_value,
            "iters": sol.iterations,
            "converged": sol.converged,
        }
        probes = _joint_probes(sol, limit, out=probe_rows) if joint else None
        del sol  # the joint walk and the next rung run without this rung's value field and flows
        if joint:
            row["sup_d1_joint"] = _sup_joint_gap(probes)
        rows.append(row)

    rates = {}
    if len(plan.eps_ladder) >= 3:
        eps_arr = np.asarray(plan.eps_ladder)
        for col in ("osc_v", "sup_u_gap", "sup_d1_marginal", "sup_d1_joint"):
            ys = np.asarray([row[col] for row in rows], dtype=float)
            good = np.isfinite(ys)
            if good.sum() >= 3:
                rates[col] = fit_rate(eps_arr[good], ys[good])._asdict()
    return ConvergenceReport(tuple(rows), rates)
