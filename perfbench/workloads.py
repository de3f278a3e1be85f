"""The benchmark's four workloads: inputs from a seed, one run, output checks.

Each workload is a `Workload` with
- `setup(seed, work_dir)`: build the inputs (timed as set-up, after import);
- `run(inputs, span)`: run once through mfglab's public API or CLI; it catches
  the failure of each operation so the others still run;
- `check(inputs, outputs)`: conditions a correct solver meets, returning the
  number of failed operations, the reasons, and information-only records.

The checks are properties of correct solutions (monotone gaps, non-negative
audit margins, oracle agreement, artifacts that parse), not bit-equality with
one commit, so a deliberate numeric change is not counted as a failure. The
sha256 checksums and Picard counts are recorded for information only, so a
faster-but-different result is visible.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import math
import os
import platform
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

import mfglab
import mfglab.cli

N_PARTICLES = 2000
FULL_LADDER = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
# a sub-ladder of FULL_LADDER with three rungs, ending at 0.01, so that one
# coupled sweep fits the run length
COUPLED_LADDER = (0.2, 0.05, 0.01)
COUPLED_GRID = {"N_t": 101}
CLI_GRID = {"N_t": 101}
CLI_LADDER = [0.5, 0.2, 0.1]
ORACLE_TOL = 0.02

# probe nodes of the LQ comparison; all lie exactly on the lq_grid grid
LQ_PROBES = (
    (0.0, 0.5, 0.5),
    (0.25, -0.5, 0.5),
    (0.5, 1.0, -1.0),
    (0.25, 0.0, 1.0),
    (0.5, 0.5, 0.0),
    (0.75, -1.0, 0.5),
    (0.25, 1.0, 1.0),
    (0.75, 0.5, -0.5),
    (0.5, -1.0, -1.0),
)


@dataclass(frozen=True)
class Workload:
    ops: int  # operations attempted per run: eps rungs, solves or CLI commands
    setup: Callable
    run: Callable
    check: Callable
    why_gaussian: str


def versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "mfglab": mfglab.__version__,
    }


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# -- API sweeps ---------------------------------------------------------------


def _sweep_setup(seed, kappa_c, ladder, grid_kw):
    return {
        "plan": mfglab.SweepPlan(eps_ladder=ladder),
        "spec": mfglab.make_lagrangian("quadratic", kappa_c=kappa_c),
        "g": mfglab.make_terminal("zero"),
        "grid": mfglab.PhaseGrid.regular(**grid_kw),
        "mu0": mfglab.gaussian_ensemble(N_PARTICLES, seed=seed),
    }


def _sweep_run(inp, span):
    try:
        report = mfglab.run_sweep(
            inp["plan"], inp["spec"], inp["g"], inp["grid"], inp["mu0"], variant="classical"
        )
    except Exception as exc:  # a crashed sweep fails every rung
        return {"error": _failure(exc)}
    return {"report": report}


def _sweep_check(inp, out, require_slope):
    ladder = inp["plan"].eps_ladder
    if "error" in out:
        return len(ladder), [out["error"]], {}
    report = out["report"]
    rows = report.rows
    bad = {}
    for i, row in enumerate(rows):
        numbers = [row[c] for c in ("sup_u_gap", "sup_d1_marginal", "osc_v", "prop52_value")]
        if not row["converged"] or not all(math.isfinite(x) for x in numbers):
            bad.setdefault(i, "not converged or NaN row")
        margins = [row[c] for c in ("cor42_margin", "cor43_margin", "prop46_margin")]
        if not row["lemma41_ok"] or not all(m >= 0.0 for m in margins):
            bad.setdefault(i, "negative audit margin")
        if i > 0 and not row["sup_u_gap"] < rows[i - 1]["sup_u_gap"]:
            bad.setdefault(i, "sup_u_gap does not decrease")
        if row["eps"] == 0.01 and not row["sup_d1_marginal"] < 0.05:
            bad.setdefault(i, "sup_d1_marginal >= 0.05 at eps = 0.01")
    slope = report.rates.get("osc_v", {}).get("slope", float("nan"))
    if require_slope and not slope >= 0.4:
        bad = {i: f"osc_v slope {slope:.3f} < 0.4" for i in range(len(rows))}
    failures = [f"eps={rows[i]['eps']}: {why}" for i, why in sorted(bad.items())]
    info = {
        "report_csv_sha256": _sha256(report.to_csv()),
        "rates_json_sha256": _sha256(report.rates_json()),
        "picard_iters": [int(row["iters"]) for row in rows],
        "sup_u_gap": [row["sup_u_gap"] for row in rows],
        "osc_v_slope": slope,
    }
    return len(bad), failures, info


WHY_GAUSSIAN_SWEEP = (
    "a seeded Gaussian measure gives each seed its own input; the lattice measure "
    "has no seed, so ten seeds would measure one input ten times"
)

DECOUPLED = Workload(
    ops=len(FULL_LADDER),
    setup=lambda seed, work: _sweep_setup(seed, 0.0, FULL_LADDER, {}),
    run=_sweep_run,
    check=lambda inp, out: _sweep_check(inp, out, require_slope=True),
    why_gaussian=WHY_GAUSSIAN_SWEEP,
)

COUPLED = Workload(
    ops=len(COUPLED_LADDER),
    setup=lambda seed, work: _sweep_setup(seed, 0.5, COUPLED_LADDER, COUPLED_GRID),
    run=_sweep_run,
    check=lambda inp, out: _sweep_check(inp, out, require_slope=False),
    why_gaussian=WHY_GAUSSIAN_SWEEP
    + "; kernel_smooth costs the same on either measure",
)


# -- LQ oracle grid -----------------------------------------------------------


def _lq_setup(seed, work):
    return {
        "spec": mfglab.make_lagrangian("quadratic", kappa_pot=1.0),
        "g": mfglab.make_terminal("zero"),
        "grid": mfglab.PhaseGrid(
            x=np.linspace(-2.0, 2.0, 321),
            v=np.linspace(-2.5, 2.5, 251),
            t=np.linspace(0.0, 1.0, 201),
        ),
        "controls": mfglab.ControlSet.symmetric(6.0, 41),
        "eps": 0.1,
    }


def _lq_run(inp, span):
    out = {}
    try:
        u = mfglab.solve_hjb_acceleration(
            inp["grid"], inp["spec"], None, inp["g"], inp["eps"], inp["controls"]
        )
        # keep only the probed values, so the 130 MB field is freed before the next solve
        out["phase"] = [u.probe(t, x, v) for t, x, v in LQ_PROBES]
        del u
    except Exception as exc:
        out["phase_error"] = _failure(exc)
    try:
        u = mfglab.solve_hjb_limit_classical(inp["grid"], inp["spec"], None, inp["g"])
        out["limit"] = [u.probe(t, x) for t, x, _ in LQ_PROBES if abs(x) >= 0.5]
    except Exception as exc:
        out["limit_error"] = _failure(exc)
    return out


def _lq_oracle_errors(eps, phase, limit):
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "tests"))
    from oracles import lq_limit_value, lq_phase_value, lq_phase_value_table

    errs = {}
    if phase is not None:
        times, Ps = lq_phase_value_table(eps, 1.0, 1.0)
        ref = [lq_phase_value(times, Ps, t, x, v) for t, x, v in LQ_PROBES]
        errs["phase"] = max(abs(a - b) / abs(b) for a, b in zip(phase, ref))
    if limit is not None:
        ref = [lq_limit_value(1.0, 1.0, t, x) for t, x, _ in LQ_PROBES if abs(x) >= 0.5]
        errs["limit"] = max(abs(a - b) / abs(b) for a, b in zip(limit, ref))
    return errs


def _lq_check(inp, out):
    failures = [out[k] for k in ("phase_error", "limit_error") if k in out]
    errs = _lq_oracle_errors(inp["eps"], out.get("phase"), out.get("limit"))
    failures += [
        f"{kind} oracle rel err {err:.4f} >= {ORACLE_TOL}"
        for kind, err in errs.items()
        if not err < ORACLE_TOL
    ]
    info = {f"oracle_rel_err_{k}": v for k, v in errs.items()}
    if len(errs) == 2:
        info["oracle_rel_err"] = max(errs.values())
    return len(failures), failures, info


LQ = Workload(
    ops=2,
    setup=_lq_setup,
    run=_lq_run,
    check=_lq_check,
    why_gaussian="no measure enters: both solves are decoupled value functions, so the seed "
    "changes nothing and ten seeds repeat one input",
)


# -- CLI session --------------------------------------------------------------

CLI_CONFIGS = {
    "quartic": {"model": {"name": "quartic"}, "grid": CLI_GRID, "measure": {"kind": "gaussian"}},
    "lq": {"grid": CLI_GRID, "measure": {"kind": "gaussian"}},
    "sweep": {
        "grid": CLI_GRID,
        "measure": {"kind": "gaussian"},
        "sweep": {"variant": "control", "eps_ladder": CLI_LADDER},
    },
}

# (command, config, output directory, arguments)
CLI_COMMANDS = (
    ("solve-limit", "quartic", "limit", ["solve-limit", "--kind", "classical"]),
    ("solve-eps", "lq", "eps", ["solve-eps", "--eps", "0.1"]),
    ("sweep", "sweep", "sweep", ["sweep"]),
    ("traj", "lq", "traj", ["traj", "--eps", "0.01", "--x", "1.0", "--v", "0.5"]),
)


def _cli_setup(seed, work):
    paths = {}
    for name, cfg in CLI_CONFIGS.items():
        paths[name] = os.path.join(work, f"{name}.json")
        with open(paths[name], "w") as f:
            json.dump(cfg, f)
    return {"seed": seed, "work": work, "configs": paths}


def _cli_run(inp, span):
    codes = {}
    for cmd, cfg, out_dir, args in CLI_COMMANDS:
        argv = ["--config", inp["configs"][cfg], "--out", os.path.join(inp["work"], out_dir)]
        argv += ["--seed", str(inp["seed"])] + args
        with span(f"cli.{cmd}"):
            try:
                mfglab.cli.main(argv, standalone_mode=False)
                codes[cmd] = 0
            except SystemExit as exc:  # click's sys.exit(code); None means success
                codes[cmd] = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:
                codes[cmd] = _failure(exc)
    return codes


def _parse_csv(path, header, n_rows, finite_cols):
    with open(path) as f:
        first = f.readline().rstrip("\n")
    if first != header:
        raise ValueError(f"{os.path.basename(path)}: header {first!r}, expected {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (n_rows, len(header.split(","))):
        raise ValueError(f"{os.path.basename(path)}: shape {data.shape}, expected {n_rows} rows")
    if not np.all(np.isfinite(data[:, finite_cols])):
        raise ValueError(f"{os.path.basename(path)}: non-finite values")


def _parse_json(path):
    with open(path) as f:
        return json.load(f)


def _check_solution_dir(d, phase, grid_cfg):
    grid = mfglab.RunConfig.from_dict({"grid": grid_cfg}).grid
    n_x, n_v, n_t = grid["N_x"], grid["N_v"], grid["N_t"]
    if phase:
        _parse_csv(os.path.join(d, "value.csv"), "t,x,v,u", n_t * n_x * n_v, [0, 1, 2, 3])
    else:
        _parse_csv(os.path.join(d, "value.csv"), "t,x,u", n_t * n_x, [0, 1, 2])
    flow_finite = [0, 1, 2, 3] if phase else [0, 1, 3]
    _parse_csv(os.path.join(d, "flow.csv"), "t,x,v,w", n_t * N_PARTICLES, flow_finite)
    meta = _parse_json(os.path.join(d, "meta.json"))
    if meta.get("converged") is not True:
        raise ValueError("meta.json does not record a converged run")


def _check_sweep_dir(d):
    with open(os.path.join(d, "report.csv"), "rb") as f:
        report = f.read()
    with open(os.path.join(d, "rates.json"), "rb") as f:
        rates = f.read()
    lines = report.decode().splitlines()
    if lines[0].split(",")[0] != "eps" or len(lines) != len(CLI_LADDER) + 1:
        raise ValueError("report.csv: unexpected header or row count")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("report.csv: ragged rows")
    json.loads(rates)
    return {"report_csv_sha256": _sha256(report), "rates_json_sha256": _sha256(rates)}


def _check_traj_dir(d):
    for name in ("direct.csv", "bvp.csv"):
        _parse_csv(os.path.join(d, name), "t,gamma,dgamma,ddgamma", 401, [0, 1, 2, 3])
    meta = _parse_json(os.path.join(d, "traj.json"))
    if not (meta.get("direct_converged") and meta.get("bvp_converged")):
        raise ValueError("traj.json: a trajectory solve did not converge")


def _cli_check(inp, codes):
    failures, info = [], {}
    work = inp["work"]
    for cmd, cfg, out_dir, _ in CLI_COMMANDS:
        code = codes.get(cmd, "not run")
        if code != 0:
            failures.append(f"{cmd}: exit {code}")
            continue
        d = os.path.join(work, out_dir)
        try:
            if cmd in ("solve-limit", "solve-eps"):
                _check_solution_dir(d, cmd == "solve-eps", CLI_CONFIGS[cfg]["grid"])
            elif cmd == "sweep":
                info.update(_check_sweep_dir(d))
            else:
                _check_traj_dir(d)
        except (OSError, ValueError, IndexError) as exc:
            failures.append(f"{cmd}: {_failure(exc)}")
    return len(failures), failures, info


CLI = Workload(
    ops=len(CLI_COMMANDS),
    setup=_cli_setup,
    run=_cli_run,
    check=_cli_check,
    why_gaussian="exact joint W1 on the lattice measure is about 35x cheaper (0.03 s against "
    "1.1 s per 2000-point call), which would hide the assignment cost the sweep command pays",
)

WORKLOADS = {
    "decoupled_sweep": DECOUPLED,
    "coupled_sweep": COUPLED,
    "lq_grid": LQ,
    "cli_session": CLI,
}
