"""Command-line interface: exit codes, artifacts, and error messages."""

import json
import os
import subprocess
import sys
import textwrap

import pytest
from click.testing import CliRunner

from mfglab import (
    RunConfig,
    acceleration_controls,
    audit_assumptions,
    eval_cost,
    minimize_direct,
    run_sweep,
    solve_eps_system,
    solve_limit_classical,
    solve_el_bvp,
    solve_mfg_of_control,
    sup_marginal_gap,
    sup_value_gap,
)
from mfglab.cli import main
from mfglab.io import flow_csv, value_csv

SMALL_CFG = {
    "grid": {"N_x": 41, "N_v": 31, "N_t": 51, "N_a": 21},
    "measure": {"kind": "gaussian", "n": 64, "seed": 3},
    "solver": {"max_iter": 40},
    "sweep": {"eps_ladder": [0.5, 0.2, 0.1]},
}


# the configuration of the criterion-9 acceptance test
CRITERION_9_CFG = {
    "model": {"kappa_c": 0.5},
    "grid": {"N_x": 41, "N_v": 31, "N_t": 51, "N_a": 21},
    "measure": {"kind": "gaussian", "n": 64, "seed": 3},
    "solver": {"max_iter": 40},
    "sweep": {"eps_ladder": [0.5, 0.2, 0.1]},
}


@pytest.fixture
def runner():
    return CliRunner()


def _write_cfg(tmp_path, extra=None):
    cfg = json.loads(json.dumps(SMALL_CFG))
    for block, vals in (extra or {}).items():
        cfg.setdefault(block, {}).update(vals)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_eps_happy_path(runner, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(
        main,
        ["--config", _write_cfg(tmp_path), "--out", str(out), "solve-eps", "--eps", "0.2"],
    )
    assert res.exit_code == 0, res.output
    for name in ("value.csv", "flow.csv", "meta.json"):
        assert (out / name).exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["eps"] == 0.2
    assert meta["converged"] is True
    assert meta["config"]["grid"]["N_x"] == 41


def test_solve_eps_zero_directs_to_limit(runner, tmp_path):
    res = runner.invoke(
        main, ["--config", _write_cfg(tmp_path), "solve-eps", "--eps", "0"]
    )
    assert res.exit_code == 2
    assert "solve-limit" in res.output


def test_solve_eps_nonconvergence_exit_code(runner, tmp_path):
    cfg = _write_cfg(
        tmp_path, {"model": {"kappa_c": 0.5}, "solver": {"max_iter": 1}}
    )
    out = tmp_path / "out"
    res = runner.invoke(
        main, ["--config", cfg, "--out", str(out), "solve-eps", "--eps", "0.2"]
    )
    assert res.exit_code == 3
    # artifacts are still written for a flagged run
    meta = json.loads((out / "meta.json").read_text())
    assert meta["converged"] is False


def test_solve_limit_classical(runner, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(
        main,
        ["--config", _write_cfg(tmp_path), "--out", str(out), "solve-limit", "--kind", "classical"],
    )
    assert res.exit_code == 0, res.output
    meta = json.loads((out / "meta.json").read_text())
    assert meta["kind"] == "classical_limit"
    assert meta["iterations"] == 1  # decoupled model closes in one pass


def test_solve_limit_unknown_kind(runner, tmp_path):
    res = runner.invoke(
        main, ["--config", _write_cfg(tmp_path), "solve-limit", "--kind", "other"]
    )
    assert res.exit_code == 2
    assert "Invalid value" in res.output


def test_sweep_artifacts(runner, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(
        main,
        ["--config", _write_cfg(tmp_path), "--out", str(out), "--seed", "11", "sweep"],
    )
    assert res.exit_code == 0, res.output
    lines = (out / "report.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + len(SMALL_CFG["sweep"]["eps_ladder"])
    rates = json.loads((out / "rates.json").read_text())
    assert "osc_v" in rates


def test_traj_happy_path(runner, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(
        main,
        [
            "--config", _write_cfg(tmp_path), "--out", str(out),
            "traj", "--eps", "0.1", "--x", "1.0", "--v", "0.5",
        ],
    )
    assert res.exit_code == 0, res.output
    assert (out / "direct.csv").exists() and (out / "bvp.csv").exists()
    meta = json.loads((out / "traj.json").read_text())
    assert meta["direct_converged"] and meta["bvp_converged"]
    assert meta["cost_gap"] < 1e-5


def test_traj_resting_start_costs_nothing(runner, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(
        main,
        [
            "--config", _write_cfg(tmp_path), "--out", str(out),
            "traj", "--eps", "0.0", "--x", "0.0", "--v", "0.0",
        ],
    )
    assert res.exit_code == 0, res.output
    meta = json.loads((out / "traj.json").read_text())
    assert meta["direct_cost"] < 1e-10


def test_traj_cosine_hill_converges(runner, tmp_path):
    # kappa_pot 5 makes the cosine potential's Hessian indefinite near the start
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {"model": {"name": "cosine", "kappa_pot": 5}})
    res = runner.invoke(
        main,
        ["--config", cfg, "--out", str(out), "traj", "--eps", "0.01", "--x", "0.7", "--v", "-0.4"],
    )
    assert res.exit_code == 0, res.output
    meta = json.loads((out / "traj.json").read_text())
    assert meta["direct_converged"] and meta["bvp_converged"]


def test_traj_cosine_hilltop_is_not_converged(runner, tmp_path):
    # zero gradient on the hilltop is a saddle: both solves stop there, unconverged
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, {"model": {"name": "cosine", "kappa_pot": 5}})
    res = runner.invoke(
        main,
        ["--config", cfg, "--out", str(out), "traj", "--eps", "0.01", "--x", "0", "--v", "0"],
    )
    assert res.exit_code == 3, res.output
    meta = json.loads((out / "traj.json").read_text())
    assert not meta["direct_converged"] and not meta["bvp_converged"]


def test_traj_ignores_the_coupling_strength(runner, tmp_path):
    """`traj` solves each curve with no measure flow, so model.kappa_c changes
    none of its bytes, as its help says."""
    traj = ["traj", "--eps", "0.1", "--x", "1.0", "--v", "0.5"]
    outs = []
    for kappa_c in (0.0, 0.5):
        cfg = _write_cfg(tmp_path, {"model": {"kappa_c": kappa_c}})
        outs.append(tmp_path / f"kappa_c-{kappa_c}")
        res = runner.invoke(main, ["--config", cfg, "--out", str(outs[-1])] + traj)
        assert res.exit_code == 0, res.output
    for name in ("direct.csv", "bvp.csv", "traj.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    help_text = " ".join(runner.invoke(main, ["traj", "--help"]).output.split())
    assert "model.kappa_c is ignored" in help_text


def test_traj_start_outside_box(runner, tmp_path):
    res = runner.invoke(
        main,
        ["--config", _write_cfg(tmp_path), "traj", "--eps", "0.1", "--x", "9.0", "--v", "0.0"],
    )
    assert res.exit_code == 2
    assert "outside the grid box" in res.output


def test_audit_passes_for_default_model(runner, tmp_path):
    out = tmp_path / "out"
    res = runner.invoke(
        main, ["--config", _write_cfg(tmp_path), "--out", str(out), "audit"]
    )
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "audit.json").read_text())
    assert payload["passed"] is True
    assert payload["margins"]


def test_traj_and_audit_json_hold_the_api_values_with_sorted_keys(runner, tmp_path):
    path = _write_cfg(tmp_path)
    cfg = RunConfig.from_file(path)
    spec, g, T = cfg.build_spec(), cfg.build_terminal(), cfg.build_grid().T
    out = tmp_path / "out"
    traj = ["traj", "--eps", "0.1", "--x", "1.0", "--v", "0.5"]
    res = runner.invoke(main, ["--config", path, "--out", str(out)] + traj)
    assert res.exit_code == 0, res.output
    direct = minimize_direct(0.1, 1.0, 0.5, spec, None, g, T=T)
    bvp = solve_el_bvp(0.1, 1.0, 0.5, spec, None, g, T=T)
    bvp_cost = eval_cost(bvp.curve, 0.1, spec, None, g)
    expected = {
        "eps": 0.1, "x": 1.0, "v": 0.5,
        "direct_cost": direct.cost,
        "direct_grad_norm": direct.grad_norm,
        "direct_converged": bool(direct.converged),
        "bvp_cost": bvp_cost,
        "bvp_residual": bvp.residual_norm,
        "bvp_converged": bool(bvp.converged),
        "cost_gap": abs(direct.cost - bvp_cost),
    }
    text = (out / "traj.json").read_text()
    assert json.loads(text) == expected
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    res = runner.invoke(main, ["--config", path, "--out", str(out), "audit"])
    assert res.exit_code == 0, res.output
    report = audit_assumptions(spec, g=g)
    expected = {"margins": report.margins, "passed": bool(report.passed)}
    text = (out / "audit.json").read_text()
    assert json.loads(text) == expected
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"


# each command with the function, as mfglab.cli reaches it, that starts its work
COMMAND_SOLVERS = [
    pytest.param(["solve-eps", "--eps", "0.2"], "solve_eps_system", id="solve-eps"),
    pytest.param(["solve-limit"], "solve_limit_classical", id="solve-limit"),
    pytest.param(["sweep"], "analysis.run_sweep", id="sweep"),
    pytest.param(["traj", "--eps", "0.1", "--x", "1", "--v", "0.5"], "minimize_direct", id="traj"),
    pytest.param(["audit"], "audit_assumptions", id="audit"),
]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command, solver", COMMAND_SOLVERS)
def test_unusable_out_exits_before_any_solve(runner, tmp_path, monkeypatch, command, solver, below):
    def never(*args, **kwargs):
        raise AssertionError("solved before the output directory was made")

    monkeypatch.setattr(f"mfglab.cli.{solver}", never)
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    out = blocker / "out" if below else blocker
    res = runner.invoke(main, ["--config", _write_cfg(tmp_path), "--out", str(out)] + command)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "output error: " in res.output
    assert "Traceback" not in res.output
    assert blocker.read_text() == "a regular file\n"


def test_bad_config_rejected(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"grid": {"bogus": 1}}))
    res = runner.invoke(main, ["--config", str(cfg), "audit"])
    assert res.exit_code == 2
    assert "config error" in res.output


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b"[" * 100_000, id="deep-array"),
        pytest.param(b'{"grid": {"N_x": ' + b"9" * 5000 + b"}}", id="5000-digit-int"),
    ],
)
def test_unreadable_config_is_config_error(runner, tmp_path, content):
    """A config that is not UTF-8, that nests too deep for the JSON parser, or
    that holds an integer past Python's digit limit is a config error, not a
    traceback."""
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "out"), "audit"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "config error: cannot read config" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("name", "septic"), ("terminal", "cubic")])
def test_unknown_catalog_name_is_config_error(runner, tmp_path, key, value):
    res = runner.invoke(
        main, ["--config", _write_cfg(tmp_path, {"model": {key: value}}), "audit"]
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # not an uncaught model error
    assert f"config error: unknown model.{key} {value!r}" in res.output


@pytest.mark.parametrize(
    "key, value, rule",
    [("M0", -1, "positive"), ("sigma", 0, "positive"), ("kappa_c", -1, "nonnegative")],
)
def test_inadmissible_model_constant_is_config_error(runner, tmp_path, key, value, rule):
    extra = {key: value, "kappa_c": 0.5} if key == "sigma" else {key: value}
    res = runner.invoke(main, ["--config", _write_cfg(tmp_path, {"model": extra}), "audit"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # not an uncaught model error
    assert f"config error: model.{key} must be {rule}" in res.output


@pytest.mark.parametrize(
    "block, key, value, command",
    [
        pytest.param("solver", "damping", 0.5, ["solve-eps", "--eps", "0.2"], id="command0"),
        pytest.param("solver", "damping", 0.5, ["solve-limit"], id="command1"),
        pytest.param("solver", "damping", 0.5, ["sweep"], id="command2"),
        pytest.param("solver", "substeps", 4, ["solve-limit"], id="solver.substeps"),
        pytest.param(
            "solver", "dt_inner_factor", 4.0, ["solve-eps", "--eps", "0.2"],
            id="solver.dt_inner_factor",
        ),
        pytest.param("sweep", "box_radius", 2.0, ["sweep"], id="sweep.box_radius"),
        pytest.param("sweep", "accel_delta", 0.1, ["sweep"], id="sweep.accel_delta"),
    ],
)
def test_removed_damping_key_is_config_error(runner, tmp_path, block, key, value, command):
    """Removed method settings are unknown keys, even at their old defaults: Picard
    has one fixed Anderson rule and no damping knob, the transports fixed
    sub-steps, and the sweep a fixed probe box and acceleration-audit cutoff."""
    cfg = _write_cfg(tmp_path, {block: {key: value}})
    res = runner.invoke(main, ["--config", cfg, "--out", str(tmp_path / "out")] + command)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert f"config error: unknown keys in config block {block!r}: {key}" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("model", "M0", "abc"),
        ("grid", "N_x", "ten"),
        ("solver", "tol_fp", None),
        ("sweep", "eps_ladder", ["a"]),
        ("model", "M0", "60"),
        ("model", "name", [1]),
    ],
)
def test_non_numeric_value_is_config_error(runner, tmp_path, block, key, value):
    res = runner.invoke(main, ["--config", _write_cfg(tmp_path, {block: {key: value}}), "audit"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # not an uncaught cast error
    assert f"config error: {block}.{key} must be a" in res.output
    assert repr(value) in res.output


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("grid", "N_x", 41.9),
        ("grid", "N_v", 81.5),
        ("grid", "N_t", 100.5),
        ("grid", "N_a", 40.2),
        ("measure", "n", 10.5),
        ("measure", "seed", 0.5),
        ("solver", "max_iter", 2.5),
    ],
)
def test_non_integral_value_of_integer_key_is_config_error(runner, tmp_path, block, key, value):
    res = runner.invoke(main, ["--config", _write_cfg(tmp_path, {block: {key: value}}), "audit"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert f"config error: {block}.{key} must be an integer, got {value!r}" in res.output


@pytest.mark.parametrize(
    "block, key, value, rule, command",
    [
        pytest.param(
            "measure", "box", [[-1.0, 1.0]], "be two [lo, hi] pairs with lo < hi", ["solve-limit"],
            id="box-one-pair",
        ),
        pytest.param(
            "measure", "box", [[-1.0, 1.0], [1.0, -1.0]], "be two [lo, hi] pairs", ["solve-limit"],
            id="box-reversed",
        ),
        pytest.param(
            "measure", "box", [[-1.0, 1.0], [0.0]], "be two [lo, hi] pairs", ["solve-limit"],
            id="box-short-pair",
        ),
        pytest.param(
            "measure", "seed", -1, "be nonnegative", ["solve-limit"], id="seed-negative"
        ),
    ],
)
def test_out_of_range_value_is_config_error(runner, tmp_path, block, key, value, rule, command):
    cfg = _write_cfg(tmp_path, {block: {key: value}})
    res = runner.invoke(main, ["--config", cfg, "--out", str(tmp_path / "out")] + command)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # not an uncaught solver error
    assert f"config error: {block}.{key} must {rule}" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("model", "kappa_pot", float("nan")),
        ("grid", "R_x", float("inf")),
        ("solver", "tol_fp", float("nan")),
        ("sweep", "eps_ladder", [0.5, float("nan"), 0.1]),
        ("measure", "box", [[-1.0, 1.0], [float("-inf"), 1.0]]),
    ],
)
def test_non_finite_value_is_config_error(runner, tmp_path, block, key, value):
    """Python's json reads NaN and Infinity; the config rejects them as non-numbers."""
    cfg = _write_cfg(tmp_path, {block: {key: value}})
    res = runner.invoke(
        main, ["--config", cfg, "--out", str(tmp_path / "out"), "solve-eps", "--eps", "0.2"]
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert f"config error: {block}.{key} must be a" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, message",
    [("R_x", "grid axis x must be increasing"), ("A_max", "control values must be")],
)
def test_unbuildable_value_is_config_error(runner, tmp_path, key, message):
    """A value that passes the range checks but cannot build its object exits 2."""
    cfg = _write_cfg(tmp_path, {"grid": {key: 1e308}})
    res = runner.invoke(
        main, ["--config", cfg, "--out", str(tmp_path / "out"), "solve-eps", "--eps", "0.2"]
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # not an uncaught ConfigurationError
    assert f"config error: {message}" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["solve-eps", "--eps", "nan"], id="solve-eps-eps-nan"),
        pytest.param(["solve-eps", "--eps", "inf"], id="solve-eps-eps-inf"),
        pytest.param(["traj", "--eps", "nan", "--x", "1.0", "--v", "0.5"], id="traj-eps-nan"),
        pytest.param(["traj", "--eps", "0.01", "--x", "nan", "--v", "0.5"], id="traj-x-nan"),
        pytest.param(["traj", "--eps", "0.01", "--x", "1.0", "--v", "nan"], id="traj-v-nan"),
    ],
)
def test_non_finite_option_is_usage_error(runner, tmp_path, command):
    argv = ["--config", _write_cfg(tmp_path), "--out", str(tmp_path / "out")] + command
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert "is not a finite number" in res.output
    assert not (tmp_path / "out").exists()


def test_grid_over_memory_budget_is_config_error(runner, tmp_path):
    cfg = _write_cfg(tmp_path, {"grid": {"N_x": 1e12}})
    res = runner.invoke(
        main, ["--config", cfg, "--out", str(tmp_path / "out"), "solve-eps", "--eps", "0.2"]
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # not numpy's allocation error
    assert "config error: grid needs about" in res.output
    assert not (tmp_path / "out").exists()


def test_control_sweep_over_memory_budget_is_config_error(runner, tmp_path):
    cfg = _write_cfg(tmp_path, {"measure": {"n": 40000}, "sweep": {"variant": "control"}})
    res = runner.invoke(main, ["--config", cfg, "--out", str(tmp_path / "out"), "sweep"])
    assert res.exit_code == 2
    assert "joint-W1 cost matrix" in res.output and "budget" in res.output
    assert not (tmp_path / "out").exists()


def test_cli_solves_load_no_scipy_subpackage():
    """No solve loads a scipy subpackage: the HJB step, the exact joint W1 and
    the curve solver's banded Cholesky run the compiled modules that
    `mfglab._scipy` loads by file and leaves out of sys.modules, so neither a
    decoupled solve, an assignment, a direct minimization, a BVP solve nor a
    `traj` command loads scipy.sparse, scipy.optimize, scipy.linalg, scipy's
    array-API layer or a scipy module name."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = textwrap.dedent(
        """
        import os, sys, tempfile, mfglab.cli
        held = ('scipy.sparse', 'scipy.optimize', 'scipy.linalg', 'scipy._lib._array_api')
        print(sorted(m for m in sys.modules if m.startswith(held)))
        from mfglab import (
            PhaseGrid, gaussian_ensemble, make_lagrangian, make_terminal, minimize_direct,
            solve_el_bvp, solve_eps_system, wasserstein1_joint,
        )
        grid = PhaseGrid.regular(N_x=21, N_v=17, N_t=21)
        mu = gaussian_ensemble(50, seed=1)
        spec, g = make_lagrangian('quadratic'), make_terminal('zero')
        sol = solve_eps_system(spec, g, grid, mu, 0.2)
        assert wasserstein1_joint(mu, sol.flow.ensemble(sol.flow.n_times - 1)).exact
        assert minimize_direct(0.0, 1.0, 0.5, spec, None, g).converged
        assert solve_el_bvp(0.1, 1.0, 0.5, spec, None, g).converged
        with tempfile.TemporaryDirectory() as out:
            args = ['--out', os.path.join(out, 'traj'), 'traj', '--eps', '0.1', '--x', '1', '--v', '0.5']
            try:
                mfglab.cli.main(args)
            except SystemExit as exc:
                assert exc.code in (0, None), exc.code
        print(sorted(m for m in sys.modules if m.startswith(held)))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    lines = out.stdout.strip().splitlines()  # traj echoes its cost gap between the two
    after_import, after_solves = lines[0], lines[-1]
    assert after_import == "[]"
    assert after_solves == "[]"


def test_negative_seed_option_is_usage_error(runner, tmp_path):
    res = runner.invoke(main, ["--config", _write_cfg(tmp_path), "--seed", "-3", "audit"])
    assert res.exit_code == 2
    assert "Invalid value for '--seed'" in res.output


def test_seed_option_is_recorded_and_a_rerun_from_meta_gives_the_same_bytes(runner, tmp_path):
    """--seed is written to measure.seed, so meta.json's config re-makes the run."""
    first = tmp_path / "first"
    res = runner.invoke(
        main,
        ["--config", _write_cfg(tmp_path), "--out", str(first), "--seed", "7",
         "solve-eps", "--eps", "0.2"],
    )
    assert res.exit_code == 0, res.output
    config = json.loads((first / "meta.json").read_text())["config"]
    assert config["measure"]["seed"] == 7
    recorded = tmp_path / "recorded.json"
    recorded.write_text(json.dumps(config))
    again = tmp_path / "again"
    res = runner.invoke(
        main, ["--config", str(recorded), "--out", str(again), "solve-eps", "--eps", "0.2"]
    )
    assert res.exit_code == 0, res.output
    for name in ("value.csv", "flow.csv", "meta.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize("variant", ["classical", "control"])
def test_cli_matches_api(runner, tmp_path, variant):
    """sweep, solve-eps and solve-limit give the API's bytes, and the sweep's rungs agree."""
    data = json.loads(json.dumps(CRITERION_9_CFG))
    data["sweep"]["variant"] = variant
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    # the CLI runs with --seed 11, which overrides the file's measure.seed
    cfg = RunConfig.from_dict({**data, "measure": {**data["measure"], "seed": 11}})
    spec, g, grid = cfg.build_spec(), cfg.build_terminal(), cfg.build_grid()
    mu0, plan, solver = cfg.build_mu0(), cfg.build_plan(), cfg.solver

    out = tmp_path / "sweep"
    res = runner.invoke(main, ["--config", str(path), "--out", str(out), "--seed", "11", "sweep"])
    assert res.exit_code == 0, res.output
    report = run_sweep(
        plan, spec, g, grid, mu0, variant=variant, controls=cfg.build_controls(), **solver
    )
    assert (out / "report.csv").read_text() == report.to_csv()
    assert (out / "rates.json").read_text() == report.rates_json()

    out = tmp_path / "eps"
    res = runner.invoke(
        main, ["--config", str(path), "--out", str(out), "--seed", "11", "solve-eps", "--eps", "0.2"]
    )
    assert res.exit_code == 0, res.output
    # widening a set that is already widened for this eps changes nothing
    sol = solve_eps_system(
        spec, g, grid, mu0, 0.2,
        controls=acceleration_controls(grid, 0.2, cfg.build_controls()),
        **solver,
    )
    assert (out / "value.csv").read_text() == "".join(value_csv(sol.value))

    # at eps = 0.05 the widening binds (0.75 R_v / sqrt(eps) = 13.4 > A_max = 8), and
    # the API widens the base set as the CLI does
    assert acceleration_controls(grid, 0.05, cfg.build_controls()).a_max > cfg.grid["A_max"]
    out = tmp_path / "eps_small"
    res = runner.invoke(
        main,
        ["--config", str(path), "--out", str(out), "--seed", "11", "solve-eps", "--eps", "0.05"],
    )
    assert res.exit_code == 0, res.output
    small = solve_eps_system(spec, g, grid, mu0, 0.05, cfg.build_controls(), **solver)
    assert (out / "value.csv").read_text() == "".join(value_csv(small.value))
    assert (out / "flow.csv").read_text() == "".join(flow_csv(small.flow))

    solve_limit = solve_limit_classical if variant == "classical" else solve_mfg_of_control
    limit = solve_limit(spec, g, grid, mu0, **solver)
    assert limit.iterations > 1  # coupled
    out = tmp_path / "limit"
    args = ["--config", str(path), "--out", str(out), "--seed", "11"]
    res = runner.invoke(main, args + ["solve-limit", "--kind", variant])
    assert res.exit_code == 0, res.output
    assert (out / "value.csv").read_text() == "".join(value_csv(limit.value))
    assert (out / "flow.csv").read_text() == "".join(flow_csv(limit.flow))
    assert json.loads((out / "meta.json").read_text())["gap_history"] == list(limit.gap_history)

    # the sweep's eps = 0.2 rung is that solve, compared with the solve-limit answer
    row = report.rows[plan.eps_ladder.index(0.2)]
    assert row["sup_u_gap"] == sup_value_gap(sol.value, limit.value)
    assert row["sup_d1_marginal"] == sup_marginal_gap(sol.flow, limit.flow)
