"""Sweep harness: run the penalized system down an eps ladder, compare against
the limit solutions, audit the a-priori estimates, and fit empirical rates.

The audits evaluate each inequality with the constants assembled exactly as in
the derivations (Q1 from the energy bound, Q2 from the Hoelder bound, C1 from
the space-gradient bound), so a negative margin flags a genuine violation
rather than a tuned threshold.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, MFGLabError
from .hjb import (
    ControlSet,
    PhaseGrid,
    ValueField,
    _n_cpus,
    acceleration_controls,
    gradient_x,
    interp_slice_x,
)
from .measures import (
    MeasureFlow,
    ParticleEnsemble,
    W1Result,
    _w1_quantile,
    sup_w1_marginal,
    wasserstein1_joint,
)
from .mfg import MFGSolution, solve_eps_system, solve_limit_classical, solve_mfg_of_control
from .model import LagrangianSpec, TerminalCost, optimal_velocity_field

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
    """Eps ladder plus the probe geometry shared by every comparison."""

    eps_ladder: tuple = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
    box_radius: float = 2.0
    accel_delta: float = 0.1  # lower time cutoff of the acceleration-energy audit

    def __post_init__(self):
        ladder = tuple(float(e) for e in self.eps_ladder)
        if len(ladder) == 0 or any(e <= 0 for e in ladder):
            raise InvalidInputError("eps ladder must be positive")
        if any(ladder[i + 1] >= ladder[i] for i in range(len(ladder) - 1)):
            raise InvalidInputError("eps ladder must be strictly decreasing")
        object.__setattr__(self, "eps_ladder", ladder)
        if self.box_radius <= 0:
            raise InvalidInputError("box_radius must be positive")


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


def _pairwise_holder_margin(flow: MeasureFlow, q2: float) -> float:
    """min over node pairs of q2 sqrt|s - t| - d1(m_s, m_t)."""
    t = flow.times
    n = flow.n_particles
    uniform = np.allclose(flow.weights, 1.0 / n)
    if uniform:
        S = np.sort(flow.positions, axis=1)
        diff = np.empty_like(S)
        margin = np.inf
        for k in range(t.size - 1):
            rows = diff[: t.size - 1 - k]
            np.subtract(S[k + 1 :], S[k], out=rows)
            d1 = np.mean(np.abs(rows, out=rows), axis=1)
            margin = min(margin, float(np.min(q2 * np.sqrt(t[k + 1 :] - t[k]) - d1)))
        return margin
    margin = np.inf
    for k in range(t.size - 1):
        for l in range(k + 1, t.size):
            d1 = _w1_quantile(flow.positions[k], flow.weights, flow.positions[l], flow.weights)
            margin = min(margin, q2 * math.sqrt(t[l] - t[k]) - d1)
    return float(margin)


def audit_estimates(
    solution: MFGSolution,
    spec: LagrangianSpec,
    g: TerminalCost,
    box_radius: float = 2.0,
    accel_delta: float = 0.1,
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
    lemma41 = min(float(np.min(upper[None, None, :] - u)), float(np.min(u - lower)))

    q1 = energy_constant(spec, g, T)
    v0 = flow.velocities[0]
    energies = np.trapezoid(flow.velocities**2, flow.times, axis=0)
    cor42 = float(np.min(q1 * (1.0 + v0**2) - energies))

    q2 = holder_constant(spec, g, T, flow.ensemble(0))
    cor43 = _pairwise_holder_margin(flow.marginal_flow(), q2)

    # gradient bound away from the box boundary (one-sided stencils there)
    c1 = (M0 * (T + q1) + g.dg_bound) / T
    ix = np.abs(grid.x) <= box_radius
    iv = np.abs(v) <= box_radius
    dxu = gradient_x(field)[:, ix][:, :, iv]
    prop46 = float(np.min(c1 * T * (1.0 + v[iv][None, None, :] ** 2) - np.abs(dxu)))

    acc = np.gradient(flow.velocities, flow.times, axis=0)
    mask = flow.times >= accel_delta
    prop52 = float(np.max(np.trapezoid(acc[mask] ** 2, flow.times[mask], axis=0)))

    return EstimateAudit(lemma41, cor42, cor43, prop46, prop52, q1, q2)


# -- comparisons --------------------------------------------------------------


def _box_indices(grid: PhaseGrid, r: float):
    return np.abs(grid.x) <= r, np.abs(grid.v) <= r


def velocity_oscillation(field: ValueField, box_radius: float = 2.0) -> float:
    """max over (t, x) in the probe box of the oscillation of u in v."""
    if not field.is_phase:
        raise InvalidInputError("velocity_oscillation needs a (t, x, v) field")
    ix, iv = _box_indices(field.grid, box_radius)
    sub = field.values[:, ix][:, :, iv]
    return float(np.max(sub.max(axis=2) - sub.min(axis=2)))


def sup_value_gap(eps_field: ValueField, limit_field: ValueField, box_radius: float = 2.0) -> float:
    """sup over the probe box of |u^eps(t,x,v) - u0(t,x)|."""
    if eps_field.grid.x.shape != limit_field.grid.x.shape or not np.allclose(
        eps_field.grid.x, limit_field.grid.x
    ):
        raise InvalidInputError("value gap needs matching spatial grids")
    ix, iv = _box_indices(eps_field.grid, box_radius)
    diff = eps_field.values[:, ix][:, :, iv] - limit_field.values[:, ix, None]
    return float(np.max(np.abs(diff)))


def sup_marginal_gap(a: MeasureFlow, b: MeasureFlow) -> float:
    """sup over shared time nodes of d1 between position marginals."""
    if a.n_times != b.n_times or not np.allclose(a.times, b.times):
        raise InvalidInputError("flows must share the time grid")
    return sup_w1_marginal(a, b)


def compare_joint_reconstruction(
    eps_solution: MFGSolution,
    control_solution: MFGSolution,
    fractions=(0.0, 0.25, 0.5, 0.75, 1.0),
    n_exact: int = 2000,
):
    """d1 between the joint flows at probe times, exact up to n_exact support points.

    The probes are solved concurrently, one thread per usable CPU; each is
    independent of the others, so the result does not depend on the CPU count.
    Returns a list of (t, W1Result) in ``fractions`` order; approximate entries
    carry exact=False.
    """
    fa, fb = eps_solution.flow, control_solution.flow
    if fa.velocities is None or fb.velocities is None:
        raise InvalidInputError("joint comparison needs phase-space flows")
    T = fa.times[-1]
    probes = [(fa.index_at(frac * T), fb.index_at(frac * T)) for frac in fractions]

    def probe(k):
        return wasserstein1_joint(fa.ensemble(k[0]), fb.ensemble(k[1]), n_exact=n_exact)

    # linear_sum_assignment releases the GIL, so the assignments run in parallel
    with ThreadPoolExecutor(max_workers=max(1, min(len(probes), _n_cpus()))) as pool:
        results = list(pool.map(probe, probes))
    return [(float(fa.times[ka]), res) for (ka, _), res in zip(probes, results)]


def continuity_residuals(solution: MFGSolution, spec: LagrangianSpec, tests=None):
    """Weak-form continuity-equation residuals of a limit solution.

    For each test function (psi, dpsi), evaluates
    |int psi dm_T - int psi dm_0 - int_0^T int dpsi(x) b(t,x) dm_t dt|
    on the particle flow with the trapezoid rule.
    """
    if tests is None:
        tests = [
            (lambda x: x, lambda x: np.ones_like(x)),
            (lambda x: x**2, lambda x: 2.0 * x),
            (lambda x: x**3, lambda x: 3.0 * x**2),
            (np.sin, np.cos),
            (np.cos, lambda x: -np.sin(x)),
        ]
    field = solution.value
    if field.is_phase:
        raise InvalidInputError("continuity residuals apply to limit solutions")
    grid = field.grid
    flow = solution.flow
    b_field = optimal_velocity_field(spec, gradient_x(field))
    B = np.stack(
        [interp_slice_x(b_field[k], grid, flow.positions[k]) for k in range(flow.n_times)]
    )
    w = flow.weights
    out = []
    for psi, dpsi in tests:
        boundary = float(np.sum(w * psi(flow.positions[-1])) - np.sum(w * psi(flow.positions[0])))
        interior = float(
            np.trapezoid(np.sum(w * dpsi(flow.positions) * B, axis=1), flow.times)
        )
        out.append(abs(boundary - interior))
    return np.asarray(out)


# -- the sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple  # dict per eps rung, keys = REPORT_COLUMNS
    rates: dict  # column -> RateFit._asdict()

    def to_csv(self) -> str:
        lines = [",".join(REPORT_COLUMNS)]
        for row in self.rows:
            cells = []
            for col in REPORT_COLUMNS:
                val = row[col]
                if isinstance(val, (bool, np.bool_, int, np.integer)):
                    cells.append(str(int(val)))
                else:
                    cells.append("%.17g" % float(val))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def rates_json(self) -> str:
        return json.dumps(self.rates, indent=2, sort_keys=True) + "\n"


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
    tol_fp: float = 1e-3,
    max_iter: int = 60,
    substeps: int = 4,
    dt_inner_factor: float = 4.0,
) -> ConvergenceReport:
    """Solve the limit system once, then every eps rung, and assemble the report.

    The limit solves use the velocity axis of the grid as their controls. Each
    eps rung uses ``acceleration_controls(grid, eps, controls)``, so ``controls``
    is the base acceleration set (default [-8, 8] with 41 points).
    Non-converged or failed rungs are flagged (converged = 0, NaN columns) and
    the sweep continues.
    """
    if variant == "classical":
        solve_limit = solve_limit_classical
    elif variant == "control":
        solve_limit = solve_mfg_of_control
    else:
        raise InvalidInputError(f"unknown sweep variant {variant!r}")
    limit = solve_limit(
        spec, g, grid, mu0,
        tol_fp=tol_fp, max_iter=max_iter, substeps=substeps,
    )

    rows = []
    for eps in plan.eps_ladder:
        try:
            sol = solve_eps_system(
                spec, g, grid, mu0, eps,
                controls=acceleration_controls(grid, eps, controls),
                tol_fp=tol_fp, max_iter=max_iter,
                dt_inner_factor=dt_inner_factor,
            )
        except MFGLabError:
            rows.append(_nan_row(eps))
            continue
        audit = audit_estimates(sol, spec, g, plan.box_radius, plan.accel_delta)
        if variant == "control":
            joint = compare_joint_reconstruction(sol, limit)
            sup_joint = max(float(res) for _, res in joint)
        else:
            sup_joint = float("nan")
        rows.append(
            {
                "eps": eps,
                "sup_u_gap": sup_value_gap(sol.value, limit.value, plan.box_radius),
                "sup_d1_marginal": sup_marginal_gap(
                    sol.flow.marginal_flow(), limit.flow.marginal_flow()
                ),
                "sup_d1_joint": sup_joint,
                "osc_v": velocity_oscillation(sol.value, plan.box_radius),
                "lemma41_ok": audit.lemma41_ok,
                "cor42_margin": audit.cor42_margin,
                "cor43_margin": audit.cor43_margin,
                "prop46_margin": audit.prop46_margin,
                "prop52_value": audit.prop52_value,
                "iters": sol.iterations,
                "converged": sol.converged,
            }
        )
        del sol  # the next rung is solved without this one's value field and flow

    rates = {}
    if len(plan.eps_ladder) >= 3:
        eps_arr = np.asarray(plan.eps_ladder)
        for col in ("osc_v", "sup_u_gap", "sup_d1_marginal", "sup_d1_joint"):
            ys = np.asarray([row[col] for row in rows], dtype=float)
            good = np.isfinite(ys)
            if good.sum() >= 3:
                rates[col] = fit_rate(eps_arr[good], ys[good])._asdict()
    return ConvergenceReport(tuple(rows), rates)
