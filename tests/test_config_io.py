"""Run configuration parsing/factories and artifact serialization."""

import json
import os

import numpy as np
import pytest

from mfglab import (
    ConfigurationError,
    ControlSet,
    PhaseGrid,
    RunConfig,
    SweepPlan,
    ValueField,
    lattice_ensemble,
    make_lagrangian,
    make_terminal,
    solve_eps_system,
)
from mfglab.io import atomic_write_text, curve_csv, flow_csv, value_csv, write_solution_dir
from mfglab.measures import ParticleEnsemble
from mfglab.model import LagrangianSpec, TerminalCost
from mfglab.trajectory import Curve

SMALL = {"grid": {"N_x": 41, "N_v": 31, "N_t": 51, "N_a": 21}}


def test_default_config_round_trip():
    cfg = RunConfig.default()
    assert cfg.model["name"] == "quadratic"
    assert cfg.grid["N_x"] == 101
    assert cfg.sweep["variant"] == "classical"
    again = RunConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_values_are_stored_as_the_default_types():
    cfg = RunConfig.from_dict({"model": {"kappa_pot": 5}, "grid": {"N_x": 41.0}})
    data = cfg.to_dict()
    assert type(data["model"]["kappa_pot"]) is float and data["model"]["kappa_pot"] == 5.0
    assert type(data["grid"]["N_x"]) is int and data["grid"]["N_x"] == 41
    # to_dict is a deep copy
    data["model"]["kappa_pot"] = 7.0
    data["measure"]["box"][0][0] = -9.0
    data["sweep"]["eps_ladder"].append(0.001)
    assert cfg.model["kappa_pot"] == 5.0
    assert cfg.measure["box"] == [[-1.0, 1.0], [-1.0, 1.0]]
    assert cfg.sweep["eps_ladder"] == [0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
    assert RunConfig.default().measure["box"] == [[-1.0, 1.0], [-1.0, 1.0]]


def test_unknown_block_and_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown config blocks"):
        RunConfig.from_dict({"nope": {}})
    with pytest.raises(ConfigurationError, match="unknown keys"):
        RunConfig.from_dict({"grid": {"NX": 11}})
    with pytest.raises(ConfigurationError, match="must be an object"):
        RunConfig.from_dict({"grid": [1, 2]})


def test_invalid_values_rejected():
    with pytest.raises(ConfigurationError, match="N_a must be odd"):
        RunConfig.from_dict({"grid": {"N_a": 20}})
    with pytest.raises(ConfigurationError, match="at least 3"):
        RunConfig.from_dict({"grid": {"N_x": 2}})
    with pytest.raises(ConfigurationError, match="tol_fp"):
        RunConfig.from_dict({"solver": {"tol_fp": -1.0}})
    with pytest.raises(ConfigurationError, match="strictly decreasing"):
        RunConfig.from_dict({"sweep": {"eps_ladder": [0.1, 0.2]}})
    with pytest.raises(ConfigurationError, match="measure kind"):
        RunConfig.from_dict({"measure": {"kind": "points"}})


def test_from_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": {"kappa_c": 0.5}, **SMALL}))
    cfg = RunConfig.from_file(p)
    assert cfg.model["kappa_c"] == 0.5
    assert cfg.grid["N_x"] == 41
    with pytest.raises(ConfigurationError, match="cannot read config"):
        RunConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="cannot read config"):
        RunConfig.from_file(bad)


def test_factories_build_expected_objects():
    cfg = RunConfig.from_dict(
        {
            **SMALL,
            "measure": {"kind": "gaussian", "n": 64, "seed": 3},
            "sweep": {"eps_ladder": [0.5, 0.2]},
        }
    )
    assert isinstance(cfg.build_spec(), LagrangianSpec)
    assert isinstance(cfg.build_terminal(), TerminalCost)
    grid = cfg.build_grid()
    assert isinstance(grid, PhaseGrid) and grid.x.size == 41
    controls = cfg.build_controls()
    assert isinstance(controls, ControlSet) and controls.values.size == 21
    mu0 = cfg.build_mu0()
    assert isinstance(mu0, ParticleEnsemble) and mu0.positions.size == 64
    # same seed reproduces the draw; an explicit seed overrides it
    assert np.array_equal(cfg.build_mu0().positions, mu0.positions)
    assert not np.array_equal(cfg.build_mu0(seed=4).positions, mu0.positions)
    plan = cfg.build_plan()
    assert isinstance(plan, SweepPlan) and plan.eps_ladder == (0.5, 0.2)
    # an integral float is accepted for an integer key
    assert RunConfig.from_dict({"grid": {"N_x": 41.0}}).build_grid().x.size == 41


def test_lattice_measure_rounds_up_to_square():
    cfg = RunConfig.from_dict({"measure": {"n": 2000}})
    mu0 = cfg.build_mu0()
    assert mu0.positions.size == 2025  # 45 x 45 lattice
    assert mu0.positions.size == lattice_ensemble(2000).positions.size


def test_value_csv_headers_and_precision():
    grid = PhaseGrid.regular(N_x=3, N_v=3, N_t=3)
    phase = ValueField(np.full((3, 3, 3), 1.0 / 3.0), grid, 0.1)
    lines = value_csv(phase).strip().split("\n")
    assert lines[0] == "t,x,v,u"
    assert len(lines) == 1 + 27
    assert lines[1].split(",")[-1] == "%.17g" % (1.0 / 3.0)
    limit = ValueField(np.zeros((3, 3)), grid, 0.0)
    lines = value_csv(limit).strip().split("\n")
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 9


def test_flow_csv_marginal_nan_velocity():
    t = np.linspace(0.0, 1.0, 3)
    X = np.zeros((3, 2))
    from mfglab.measures import MeasureFlow

    marg = MeasureFlow(t, X, None, np.array([0.5, 0.5]))
    lines = flow_csv(marg).strip().split("\n")
    assert lines[0] == "t,x,v,w"
    assert lines[1].split(",")[2] == "nan"
    joint = MeasureFlow(t, X, X + 1.0, np.array([0.5, 0.5]))
    lines = flow_csv(joint).strip().split("\n")
    assert lines[1].split(",")[2] == "1"


def _row_formatted_csv(header, columns):
    """Reference: stack the columns and format every row with one %-template."""
    rows = np.column_stack(columns)
    fmt = ",".join(["%.17g"] * rows.shape[1])
    return "\n".join([header] + [fmt % tuple(r) for r in rows]) + "\n"


EDGE_VALUES = np.array([0.0, -0.0, 1e-300, -1e300, 1.0 / 3.0, np.pi])


def test_csv_bytes_equal_row_formatter():
    rng = np.random.default_rng(5)
    grid = PhaseGrid.regular(N_x=5, N_v=4, N_t=3)
    u = rng.normal(size=(3, 5, 4))
    u.ravel()[: EDGE_VALUES.size] = EDGE_VALUES
    T, X, V = np.meshgrid(grid.t, grid.x, grid.v, indexing="ij")
    assert value_csv(ValueField(u, grid, 0.1)) == _row_formatted_csv(
        "t,x,v,u", (T.ravel(), X.ravel(), V.ravel(), u.ravel())
    )
    T, X = np.meshgrid(grid.t, grid.x, indexing="ij")
    assert value_csv(ValueField(u[..., 0], grid, 0.0)) == _row_formatted_csv(
        "t,x,u", (T.ravel(), X.ravel(), u[..., 0].ravel())
    )

    from mfglab.measures import MeasureFlow

    t = np.array([0.0, 1.0 / 3.0, 1.0])
    pos = rng.normal(size=(3, 6))
    pos[1] = EDGE_VALUES
    vel = rng.normal(size=(3, 6))
    vel[2] = EDGE_VALUES[::-1]
    w = np.array([1e-300, 0.1, 1.0 / 3.0, 0.2, 0.3, np.pi])
    T, W = np.repeat(t, 6), np.tile(w, 3)
    assert flow_csv(MeasureFlow(t, pos, None, w)) == _row_formatted_csv(
        "t,x,v,w", (T, pos.ravel(), np.full(T.shape, np.nan), W)
    )
    assert flow_csv(MeasureFlow(t, pos, vel, w)) == _row_formatted_csv(
        "t,x,v,w", (T, pos.ravel(), vel.ravel(), W)
    )

    curve = Curve(np.linspace(0.0, 1.0, 6), EDGE_VALUES)
    assert curve_csv(curve) == _row_formatted_csv(
        "t,gamma,dgamma,ddgamma", (curve.t, curve.x, curve.velocity, curve.acceleration)
    )


def test_curve_csv_columns():
    t = np.linspace(0.0, 1.0, 11)
    lines = curve_csv(Curve(t, t**2)).strip().split("\n")
    assert lines[0] == "t,gamma,dgamma,ddgamma"
    assert len(lines) == 12


def test_atomic_write_text(tmp_path):
    p = tmp_path / "out.txt"
    atomic_write_text(p, "hello\n")
    assert p.read_text() == "hello\n"
    atomic_write_text(p, "replaced\n")
    assert p.read_text() == "replaced\n"
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []


def test_write_solution_dir_round_trip(tmp_path):
    spec = make_lagrangian("quadratic")
    grid = PhaseGrid.regular(N_x=21, N_v=17, N_t=21)
    sol = solve_eps_system(spec, make_terminal("zero"), grid, lattice_ensemble(9), 0.2)
    cfg = RunConfig.default().to_dict()
    out = tmp_path / "run"
    write_solution_dir(out, sol, cfg)
    assert sorted(os.listdir(out)) == ["flow.csv", "meta.json", "value.csv"]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["kind"] == "eps_system"
    assert meta["eps"] == 0.2
    assert meta["converged"] is True
    assert meta["config"] == cfg
