"""Run configuration parsing/factories and artifact serialization."""

import inspect
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglab import (
    ConfigurationError,
    ControlSet,
    InvalidInputError,
    PhaseGrid,
    RunConfig,
    SweepPlan,
    ValueField,
    gaussian_ensemble,
    lattice_ensemble,
    make_lagrangian,
    make_terminal,
    run_sweep,
    solve_eps_system,
    solve_limit_classical,
    solve_mfg_of_control,
)
from mfglab.config import GRID_MEMORY_BUDGET
from mfglab.io import (
    FLOAT_FMT,
    _slots,
    atomic_write_text,
    curve_csv,
    flow_csv,
    value_csv,
    write_solution_dir,
)
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


def test_grid_memory_budget():
    with pytest.raises(ConfigurationError, match="budget"):
        RunConfig.from_dict({"grid": {"N_x": 1e12}})
    with pytest.raises(ConfigurationError, match="budget"):
        RunConfig.from_dict({"grid": {"N_t": 10**6, "N_x": 1001, "N_v": 1001}})
    # the largest grid the benchmark solves (lq_grid) stays well inside it
    cfg = RunConfig.from_dict({"grid": {"N_x": 321, "N_v": 251, "N_t": 201, "N_a": 41}})
    g = cfg.grid
    assert g["N_x"] * g["N_v"] * (8 * g["N_t"] + 60 * g["N_a"]) < GRID_MEMORY_BUDGET / 10


def test_control_sweep_budget_counts_the_joint_cost_matrix():
    """A control sweep adds the 8 n^2 bytes of its joint-W1 cost matrix."""
    measure = {"measure": {"n": 40000}}
    assert RunConfig.from_dict(measure).sweep["variant"] == "classical"
    with pytest.raises(ConfigurationError, match="joint-W1 cost matrix.*budget"):
        RunConfig.from_dict({**measure, "sweep": {"variant": "control"}})
    RunConfig.from_dict({"measure": {"n": 30000}, "sweep": {"variant": "control"}})


def test_memory_budget_counts_the_particle_flows():
    """n particles add FLOW_BYTES N_t n bytes of flows, and ANDERSON_BYTES N_t n
    more for a coupled run's Anderson history; a refused config allocates nothing."""
    tracemalloc.start()
    with pytest.raises(ConfigurationError, match="particle flows.*budget"):
        RunConfig.from_dict({"measure": {"n": 10**7}})
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2**20
    measure = {"measure": {"n": 400_000}}
    RunConfig.from_dict(measure)
    with pytest.raises(ConfigurationError, match="kappa_c > 0.*budget"):
        RunConfig.from_dict({**measure, "model": {"kappa_c": 0.5}})


def test_default_config_builds_the_api_defaults():
    """A default config runs what the API runs at its own defaults."""
    cfg = RunConfig.default()
    grid, api_grid = cfg.build_grid(), PhaseGrid.regular()
    for axis in ("x", "v", "t"):
        assert np.array_equal(getattr(grid, axis), getattr(api_grid, axis))
    spec, api_spec = cfg.build_spec(), make_lagrangian()
    for name in ("kinetic_name", "coupling_strength", "coupling_sigma", "M0"):
        assert getattr(spec, name) == getattr(api_spec, name)
    x = np.linspace(-3.0, 3.0, 13)
    assert np.array_equal(spec.potential(x), api_spec.potential(x))  # kappa_pot
    g, api_g = cfg.build_terminal(), make_terminal()
    assert (g.dg_bound, g.g_inf) == (api_g.dg_bound, api_g.g_inf)
    assert np.array_equal(g.g(x), api_g.g(x))
    gaussian = RunConfig.from_dict({"measure": {"kind": "gaussian"}})
    for built, api in (
        (cfg.build_mu0(), lattice_ensemble(2000)),
        (gaussian.build_mu0(), gaussian_ensemble(2000)),
    ):
        assert np.array_equal(built.positions, api.positions)
        assert np.array_equal(built.velocities, api.velocities)
    for solver in (solve_eps_system, solve_limit_classical, solve_mfg_of_control, run_sweep):
        params = inspect.signature(solver).parameters
        assert {key: params[key].default for key in cfg.solver} == cfg.solver, solver.__name__
    assert cfg.build_plan() == SweepPlan()
    assert cfg.sweep["variant"] == inspect.signature(run_sweep).parameters["variant"].default


def test_readme_configuration_block_is_the_default_config():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    readme = os.path.join(root, "README.md")
    with open(readme, encoding="utf-8") as f:
        section = f.read().split("\n## Configuration\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == RunConfig.default().to_dict()


REVERSED_X = ((1.0, -1.0), (-1.0, 1.0))
REVERSED_V = ((-1.0, 1.0), (1.0, -1.0))


# case -> (constructor call, error, message); each failed with numpy's error or not at all
TYPED_ERRORS = {
    "lattice-0": (lambda: lattice_ensemble(0), InvalidInputError, "at least one"),
    "lattice-neg": (lambda: lattice_ensemble(-3), InvalidInputError, "at least one"),
    "lattice-box": (lambda: lattice_ensemble(10, REVERSED_X), InvalidInputError, "lo < hi"),
    "gaussian-neg": (lambda: gaussian_ensemble(-1), InvalidInputError, "at least one"),
    "gaussian-seed": (lambda: gaussian_ensemble(10, seed=-1), InvalidInputError, "seed"),
    "gaussian-box": (lambda: gaussian_ensemble(10, REVERSED_V), InvalidInputError, "lo < hi"),
    "grid-N_x": (lambda: PhaseGrid.regular(N_x=-5), ConfigurationError, "at least 3 nodes"),
    "controls-n": (lambda: ControlSet.symmetric(8.0, -1), ConfigurationError, "at least one"),
    # counts and seeds that operator.index refuses
    "grid-N_x-frac": (lambda: PhaseGrid.regular(N_x=41.5), ConfigurationError, "N_x must be an int"),
    "controls-n-frac": (lambda: ControlSet.symmetric(8.0, 21.5), ConfigurationError, "must be an int"),
    "gaussian-frac": (lambda: gaussian_ensemble(10.5), InvalidInputError, "count must be an int"),
    "gaussian-seed-frac": (
        lambda: gaussian_ensemble(10, seed=1.5), InvalidInputError, "seed must be an int"
    ),
    "lattice-frac": (lambda: lattice_ensemble(10.5), InvalidInputError, "count must be an int"),
}


@pytest.mark.parametrize("case", list(TYPED_ERRORS))
def test_api_constructors_raise_typed_errors(case):
    """Bad counts, seeds and boxes are the package's errors, with no numpy warning first."""
    build, error, match = TYPED_ERRORS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            build()


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
    # same seed reproduces the draw; another measure.seed draws another
    assert np.array_equal(cfg.build_mu0().positions, mu0.positions)
    other = RunConfig.from_dict({"measure": {"kind": "gaussian", "n": 64, "seed": 4}})
    assert not np.array_equal(other.build_mu0().positions, mu0.positions)
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
    lines = "".join(value_csv(phase)).strip().split("\n")
    assert lines[0] == "t,x,v,u"
    assert len(lines) == 1 + 27
    assert lines[1].split(",")[-1] == "%.17g" % (1.0 / 3.0)
    limit = ValueField(np.zeros((3, 3)), grid, 0.0)
    lines = "".join(value_csv(limit)).strip().split("\n")
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 9


def test_flow_csv_marginal_nan_velocity():
    t = np.linspace(0.0, 1.0, 3)
    X = np.zeros((3, 2))
    from mfglab.measures import MeasureFlow

    marg = MeasureFlow(t, X, None, np.array([0.5, 0.5]))
    lines = "".join(flow_csv(marg)).strip().split("\n")
    assert lines[0] == "t,x,v,w"
    assert lines[1].split(",")[2] == "nan"
    joint = MeasureFlow(t, X, X + 1.0, np.array([0.5, 0.5]))
    lines = "".join(flow_csv(joint)).strip().split("\n")
    assert lines[1].split(",")[2] == "1"
    assert "".join(flow_csv(MeasureFlow(t, np.zeros((3, 0)), None, np.zeros(0)))) == "t,x,v,w\n"


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
    assert "".join(value_csv(ValueField(u, grid, 0.1))) == _row_formatted_csv(
        "t,x,v,u", (T.ravel(), X.ravel(), V.ravel(), u.ravel())
    )
    T, X = np.meshgrid(grid.t, grid.x, indexing="ij")
    assert "".join(value_csv(ValueField(u[..., 0], grid, 0.0))) == _row_formatted_csv(
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
    assert "".join(flow_csv(MeasureFlow(t, pos, None, w))) == _row_formatted_csv(
        "t,x,v,w", (T, pos.ravel(), np.full(T.shape, np.nan), W)
    )
    assert "".join(flow_csv(MeasureFlow(t, pos, vel, w))) == _row_formatted_csv(
        "t,x,v,w", (T, pos.ravel(), vel.ravel(), W)
    )

    curve = Curve(np.linspace(0.0, 1.0, 6), EDGE_VALUES)
    assert "".join(curve_csv(curve)) == _row_formatted_csv(
        "t,gamma,dgamma,ddgamma", (curve.t, curve.x, curve.velocity, curve.acceleration)
    )


def _formatted(a):
    """The strings `_slots` lays out for the entries of `a`."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in _slots(a)]


@settings(max_examples=300, deadline=None, database=None)
@given(
    bits=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64),
    fixed=st.lists(st.floats(min_value=-1e16, max_value=1e16, exclude_max=True), max_size=64),
)
def test_slots_equal_float_fmt_on_raw_bit_patterns(bits, fixed):
    """Every float64, subnormals, signed zeros, nan and infinities included;
    `fixed` adds values from the fixed-notation range, which raw bit patterns
    reach about once in thirty draws."""
    x = np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64), fixed])
    assert _formatted(x) == [FLOAT_FMT % v for v in x.tolist()]


def _decade_edges():
    """Powers of ten from 1e-6 to 1e18 with both neighbouring doubles."""
    p = np.array([float(10**k) for k in range(19)] + [10.0**-k for k in range(1, 7)])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


@pytest.mark.parametrize(
    "values",
    [
        pytest.param([9.9999999999999995e-05, 9.9999999999999995e-03, 0.099999999999999992],
                     id="decade-round-ups"),
        pytest.param([1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0)], id="range-low-end"),
        pytest.param([1e16, np.nextafter(1e16, 0.0), 9999999999999998.0, 1e15 + 0.5],
                     id="range-high-end"),
        pytest.param([0.1, 1.0 / 3.0, 2.0 / 3.0, 0.5, 1.0 + 2.0**-17, 1.0 - 2.0**-53],
                     id="fractions-and-ties"),
        pytest.param(_decade_edges(), id="powers-of-ten"),
        pytest.param([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -np.inf, np.nan],
                     id="written-by-float-fmt"),
    ],
)
def test_slots_named_cases(values):
    values = np.array(values, dtype=float)
    values = np.concatenate([values, -values])
    assert _formatted(values) == [FLOAT_FMT % v for v in values.tolist()]


def test_curve_csv_columns():
    t = np.linspace(0.0, 1.0, 11)
    lines = "".join(curve_csv(Curve(t, t**2))).strip().split("\n")
    assert lines[0] == "t,gamma,dgamma,ddgamma"
    assert len(lines) == 12


def test_atomic_write_text(tmp_path):
    p = tmp_path / "out.txt"
    atomic_write_text(p, "hello\n")
    assert p.read_text() == "hello\n"
    atomic_write_text(p, "replaced\n")
    assert p.read_text() == "replaced\n"
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []


def test_atomic_write_text_gives_the_mode_open_gives(tmp_path):
    """0o666 less the umask, as open() would create it, not mkstemp's 0o600."""
    for mask, mode in ((0o022, 0o644), (0o077, 0o600), (0o002, 0o664)):
        old = os.umask(mask)
        try:
            atomic_write_text(tmp_path / f"out{mask:o}.txt", "x\n")
            with open(tmp_path / f"ref{mask:o}.txt", "w") as f:
                f.write("x\n")
        finally:
            os.umask(old)
        assert os.stat(tmp_path / f"out{mask:o}.txt").st_mode & 0o777 == mode
        assert os.stat(tmp_path / f"ref{mask:o}.txt").st_mode & 0o777 == mode


def test_atomic_write_text_leaves_nothing_when_the_chunks_fail(tmp_path):
    def chunks():
        yield "t,x\n"
        yield "0,1\n"
        raise RuntimeError("formatting failed")

    p = tmp_path / "value.csv"
    with pytest.raises(RuntimeError, match="formatting failed"):
        atomic_write_text(p, chunks())
    assert os.listdir(tmp_path) == []
    atomic_write_text(p, "old\n")
    with pytest.raises(RuntimeError, match="formatting failed"):
        atomic_write_text(p, chunks())
    assert os.listdir(tmp_path) == ["value.csv"]
    assert p.read_text() == "old\n"


def test_writing_a_phase_field_holds_one_chunk(tmp_path):
    """The traced peak of writing value.csv is set by the chunk, not the field:
    4x the time nodes (13.6 MB of text against 3.4 MB) peak within 10%."""
    rng = np.random.default_rng(0)
    peaks = []
    for n_t in (42, 168):
        field = ValueField(
            rng.normal(size=(n_t, 41, 33)), PhaseGrid.regular(N_x=41, N_v=33, N_t=n_t), 0.1
        )
        tracemalloc.start()
        try:
            atomic_write_text(tmp_path / "value.csv", value_csv(field))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


def test_write_solution_dir_round_trip(tmp_path):
    spec = make_lagrangian("quadratic")
    # 41 x 33 x 21 = 28,413 value rows: the text spans two chunks
    grid = PhaseGrid.regular(N_x=41, N_v=33, N_t=21)
    sol = solve_eps_system(spec, make_terminal("zero"), grid, lattice_ensemble(9), 0.2)
    cfg = RunConfig.default().to_dict()
    out = tmp_path / "run"
    write_solution_dir(out, sol, cfg)
    assert sorted(os.listdir(out)) == ["flow.csv", "meta.json", "value.csv"]
    assert (out / "value.csv").read_bytes() == "".join(value_csv(sol.value)).encode()
    assert (out / "flow.csv").read_bytes() == "".join(flow_csv(sol.flow)).encode()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["kind"] == "eps_system"
    assert meta["eps"] == 0.2
    assert meta["converged"] is True
    assert meta["config"] == cfg
