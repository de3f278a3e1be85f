"""Batch front door: config ingestion and run orchestration; `io` writes every artifact.

Exit codes: 0 success, 2 configuration or validation error, 3 solver
non-convergence (artifacts are still written). --out is created once the config
and options are valid and before any solve; an unusable --out exits 2 there.
"""

from __future__ import annotations

import math
import os
import sys

import click

from . import analysis, io
from .config import RunConfig
from .errors import MFGLabError
from .mfg import solve_eps_system, solve_limit_classical, solve_mfg_of_control
from .model import audit_assumptions
from .trajectory import eval_cost, minimize_direct, solve_el_bvp

EXIT_CONFIG = 2
EXIT_NOCONV = 3


def _fail(message):
    click.echo(message, err=True)
    sys.exit(EXIT_CONFIG)


def _build(ctx):
    """The run config and the objects it builds; any bad value exits EXIT_CONFIG."""
    path = ctx.obj["config_path"]
    try:
        cfg = RunConfig.default() if path is None else RunConfig.from_file(path)
        if ctx.obj["seed"] is not None:  # recorded in meta.json, so a rerun from it draws this mu0
            cfg.measure["seed"] = ctx.obj["seed"]
        return (
            cfg, cfg.build_spec(), cfg.build_terminal(), cfg.build_grid(),
            cfg.build_controls(), cfg.build_mu0(),
        )
    except MFGLabError as exc:
        _fail(f"config error: {exc}")


def _out_dir(ctx):
    """Create --out and return it; a path that cannot be a directory exits EXIT_CONFIG."""
    try:
        io.make_dir(ctx.obj["out_dir"])
    except OSError as exc:
        _fail(f"output error: {exc}")
    return ctx.obj["out_dir"]


def _solve_and_write(ctx, cfg, label, solver, *args):
    """Run solver(*args) with the configured solver settings, write the solution
    directory, and exit EXIT_NOCONV when the solve did not converge."""
    out = _out_dir(ctx)
    try:
        sol = solver(*args, **cfg.solver)
    except MFGLabError as exc:
        _fail(f"solve failed: {exc}")
    io.write_solution_dir(out, sol, cfg.to_dict())
    click.echo(f"{label}: {sol.iterations} iterations, gap={sol.fixed_point_gap:.3e}")
    if not sol.converged:
        sys.exit(EXIT_NOCONV)


def _finite(ctx, param, value):
    """Click callback: reject NaN and infinities (exit EXIT_CONFIG, click's usage error)."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None, help="JSON run config.")
@click.option("--out", "out_dir", type=click.Path(), default="out", help="Output directory.")
@click.option("--seed", type=click.IntRange(min=0), help="Seed override for sampled measures.")
@click.pass_context
def main(ctx, config_path, out_dir, seed):
    """Solver laboratory for acceleration-penalized mean field games."""
    ctx.ensure_object(dict)
    ctx.obj.update(config_path=config_path, out_dir=out_dir, seed=seed)


@main.command("solve-eps")
@click.option("--eps", type=float, required=True, callback=_finite)
@click.pass_context
def cmd_solve_eps(ctx, eps):
    """Solve the acceleration-penalized system at one eps."""
    if eps <= 0:
        _fail("eps must be positive; use solve-limit for the eps = 0 system")
    cfg, spec, g, grid, controls, mu0 = _build(ctx)
    _solve_and_write(ctx, cfg, f"eps={eps}", solve_eps_system, spec, g, grid, mu0, eps, controls)


@main.command("solve-limit")
@click.option("--kind", type=click.Choice(["classical", "control"]), default="classical")
@click.pass_context
def cmd_solve_limit(ctx, kind):
    """Solve a limit system (classical or state-control form)."""
    cfg, spec, g, grid, controls, mu0 = _build(ctx)
    solver = solve_limit_classical if kind == "classical" else solve_mfg_of_control
    _solve_and_write(ctx, cfg, f"{kind} limit", solver, spec, g, grid, mu0)


@main.command("sweep")
@click.pass_context
def cmd_sweep(ctx):
    """Run the eps ladder against the limit solution and write report.csv / rates.json."""
    cfg, spec, g, grid, controls, mu0 = _build(ctx)
    out = _out_dir(ctx)
    try:
        report = analysis.run_sweep(
            cfg.build_plan(), spec, g, grid, mu0,
            variant=cfg.sweep["variant"], controls=controls, **cfg.solver,
        )
    except MFGLabError as exc:
        _fail(f"sweep failed: {exc}")
    io.atomic_write_text(os.path.join(out, "report.csv"), report.to_csv())
    io.atomic_write_text(os.path.join(out, "rates.json"), report.rates_json())
    flagged = sum(1 for r in report.rows if not r["converged"])
    click.echo(f"sweep done: {len(report.rows)} rows, {flagged} flagged")


@main.command("traj")
@click.option("--eps", type=float, required=True, callback=_finite)
@click.option("--x", "x0", type=float, required=True, callback=_finite)
@click.option("--v", "v0", type=float, required=True, callback=_finite)
@click.pass_context
def cmd_traj(ctx, eps, x0, v0):
    """Emit the direct-minimizer curve and, for eps > 0, the stationarity BVP curve."""
    cfg, spec, g, grid, controls, mu0 = _build(ctx)
    if abs(x0) > grid.R_x or abs(v0) > grid.R_v:
        _fail(f"start point ({x0}, {v0}) lies outside the grid box")
    out = _out_dir(ctx)
    try:
        direct = minimize_direct(eps, x0, v0, spec, None, g, T=grid.T)
    except MFGLabError as exc:
        _fail(f"trajectory solve failed: {exc}")
    io.atomic_write_text(os.path.join(out, "direct.csv"), io.curve_csv(direct.curve))
    meta = {
        "eps": eps, "x": x0, "v": v0,
        "direct_cost": direct.cost,
        "direct_grad_norm": direct.grad_norm,
        "direct_converged": bool(direct.converged),
    }
    ok = direct.converged
    if eps > 0 and spec.is_quadratic_kinetic:
        bvp = solve_el_bvp(eps, x0, v0, spec, None, g, T=grid.T)
        io.atomic_write_text(os.path.join(out, "bvp.csv"), io.curve_csv(bvp.curve))
        bvp_cost = eval_cost(bvp.curve, eps, spec, None, g)
        meta.update(
            bvp_cost=bvp_cost,
            bvp_residual=bvp.residual_norm,
            bvp_converged=bool(bvp.converged),
            cost_gap=abs(meta["direct_cost"] - bvp_cost),
        )
        ok = ok and bvp.converged
        click.echo(f"cost gap |direct - bvp| = {meta['cost_gap']:.3e}")
    io.atomic_write_text(os.path.join(out, "traj.json"), io.json_text(meta))
    if not ok:
        sys.exit(EXIT_NOCONV)


@main.command("audit")
@click.pass_context
def cmd_audit(ctx):
    """Audit the standing-assumption inequalities of the configured model."""
    cfg, spec, g, grid, controls, mu0 = _build(ctx)
    out = _out_dir(ctx)
    report = audit_assumptions(spec, g=g)
    payload = {"margins": report.margins, "passed": bool(report.passed)}
    io.atomic_write_text(os.path.join(out, "audit.json"), io.json_text(payload))
    for name, margin in sorted(report.margins.items()):
        click.echo(f"{name}: {margin:+.6g}")
    if not report.passed:
        _fail("assumption audit failed")


if __name__ == "__main__":
    main()
