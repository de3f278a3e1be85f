"""Semi-Lagrangian value solvers, gradients, and grid/control validation."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from mfglab import (
    ConfigurationError,
    ControlSet,
    InvalidInputError,
    MeasureFlow,
    PhaseGrid,
    UnsupportedModelError,
    ValueField,
    acceleration_controls,
    gradient_x,
    lattice_ensemble,
    make_lagrangian,
    make_terminal,
    solve_hjb_acceleration,
    solve_hjb_limit_classical,
    solve_hjb_mfg_control,
)
from mfglab import hjb
from mfglab.hjb import _index_dtype
from mfglab.measures import ParticleEnsemble, linear_binning
from mfglab.mfg import free_transport_flow
from mfglab.model import LagrangianSpec, TerminalCost

from oracles import lq_limit_value

SMALL = PhaseGrid.regular(N_x=41, N_v=31, N_t=51)
ZERO_G = make_terminal("zero")


def _const_spec(c):
    zero = lambda v: np.zeros_like(np.asarray(v, dtype=float))
    return LagrangianSpec(
        kinetic=zero,
        kinetic_d=zero,
        kinetic_dd=zero,
        potential=lambda x: np.full_like(np.asarray(x, dtype=float), c),
        potential_d=zero,
        potential_dd=zero,
        kinetic_name="constant",
    )


def _linear_terminal(slope=1.0):
    return TerminalCost(
        g=lambda x, m=None: slope * np.asarray(x, dtype=float),
        dg=lambda x, m=None: np.full_like(np.asarray(x, dtype=float), slope),
        dgg=lambda x, m=None: np.zeros_like(np.asarray(x, dtype=float)),
        dg_bound=abs(slope),
        g_inf=100.0,
    )


def test_grid_and_control_validation():
    with pytest.raises(ConfigurationError):
        PhaseGrid(x=np.array([0.0, 1.0]), v=SMALL.v, t=SMALL.t)
    with pytest.raises(ConfigurationError):
        ControlSet(np.linspace(-1.0, 1.0, 4))  # even count, 0 not a node
    with pytest.raises(ConfigurationError):
        ControlSet(np.array([-1.0, 0.0, 2.0]))  # asymmetric
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        ControlSet(np.linspace(2000.0, -2000.0, 41))  # descending: a_max would read -2000
    cs = ControlSet.symmetric(3.0, 7)
    assert cs.a_max == 3.0 and 0.0 in cs.values


_X, _V, _T = np.linspace(-3.0, 3.0, 41), np.linspace(-4.0, 4.0, 31), np.linspace(0.0, 1.0, 51)


@pytest.mark.parametrize(
    "axes, message",
    [
        (dict(x=_X[::-1], v=_V, t=_T), "axis x must be increasing"),
        (dict(x=_X, v=np.zeros(31), t=_T), "axis v must be increasing"),
        (dict(x=_X, v=_V, t=_T**2), "axis t must be increasing and uniform"),
        (dict(x=np.r_[-3.0, -2.0, 0.0, 2.0, 3.0], v=_V, t=_T), "axis x must be increasing"),
        (dict(x=_X + 0.5, v=_V, t=_T), "axis x must be symmetric about 0"),
        (dict(x=_X, v=np.linspace(-4.0, 2.0, 31), t=_T), "axis v must be symmetric about 0"),
        (dict(x=_X, v=_V, t=_T + 0.5), "axis t must start at 0"),
    ],
)
def test_grid_axes_must_be_uniform_symmetric_and_start_at_zero(axes, message):
    with pytest.raises(ConfigurationError, match=message):
        PhaseGrid(**axes)


@pytest.mark.parametrize("kw", [dict(R_x=-3.0), dict(R_v=-4.0), dict(T=-1.0)])
def test_regular_grid_rejects_negative_extent(kw):
    with pytest.raises(ConfigurationError, match="must be increasing"):
        PhaseGrid.regular(**kw)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PhaseGrid.regular(R_x=1e308), "grid axis x must be increasing and uniform"),
        (lambda: PhaseGrid.regular(R_v=1e308), "grid axis v must be increasing and uniform"),
        (lambda: ControlSet.symmetric(1e308, 21), "control values must be strictly increasing"),
    ],
    ids=["R_x", "R_v", "a_max"],
)
def test_overflowing_extent_is_config_error_without_warning(build, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=message):
            build()


def test_acceleration_requires_positive_eps_and_cfl():
    spec = make_lagrangian("quadratic")
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="eps must be positive"):
            solve_hjb_acceleration(SMALL, spec, None, ZERO_G, eps)
    with pytest.raises(ConfigurationError):
        solve_hjb_acceleration(
            SMALL, spec, None, ZERO_G, 0.1, ControlSet.symmetric(1e4, 5)
        )


def test_one_step_constant_lagrangian():
    spec = _const_spec(2.5)
    u = solve_hjb_acceleration(SMALL, spec, None, ZERO_G, 0.1).values
    # interior nodes where every candidate foot point stays in the box
    interior = u[-2, 15:26, 12:19]
    assert np.allclose(interior, 2.5 * SMALL.dt, atol=1e-12)


def test_terminal_slice_exact():
    spec = make_lagrangian("quadratic")
    g = make_terminal("atan", amplitude=1.0)
    u = solve_hjb_acceleration(SMALL, spec, None, g, 0.2)
    assert np.allclose(u.values[-1], np.arctan(SMALL.x)[:, None], atol=0.0)
    u0 = solve_hjb_limit_classical(SMALL, spec, None, g)
    assert np.allclose(u0.values[-1], np.arctan(SMALL.x), atol=0.0)


def test_envelope_bounds():
    spec = make_lagrangian("quadratic", kappa_pot=1.0, M0=60.0)
    u = solve_hjb_acceleration(SMALL, spec, None, ZERO_G, 0.1).values
    T, M0 = SMALL.T, 60.0
    upper = M0 * T * (1.0 + SMALL.v**2)
    assert np.all(u <= upper[None, None, :] + 1e-9)
    assert np.all(u >= -T * M0 - 1e-9)
    assert np.all(u >= -1e-12)  # nonnegative data keeps the value nonnegative


def test_scheme_monotone_in_terminal_cost():
    spec = make_lagrangian("quadratic")
    rng = np.random.default_rng(0)
    for _ in range(5):
        base = rng.normal(size=SMALL.x.size)
        bump = rng.uniform(0.0, 1.0, size=SMALL.x.size)
        xg = SMALL.x.copy()
        g1 = TerminalCost(
            g=lambda x, m=None, b=base: np.interp(x, xg, b),
            dg=lambda x, m=None: np.zeros_like(np.asarray(x, dtype=float)),
            dgg=lambda x, m=None: np.zeros_like(np.asarray(x, dtype=float)),
        )
        g2 = TerminalCost(
            g=lambda x, m=None, b=base + bump: np.interp(x, xg, b),
            dg=lambda x, m=None: np.zeros_like(np.asarray(x, dtype=float)),
            dgg=lambda x, m=None: np.zeros_like(np.asarray(x, dtype=float)),
        )
        u1 = solve_hjb_acceleration(SMALL, spec, None, g1, 0.1).values
        u2 = solve_hjb_acceleration(SMALL, spec, None, g2, 0.1).values
        assert np.all(u2 >= u1 - 1e-12)


def test_limit_classical_zero_floor():
    spec = make_lagrangian("quadratic", kappa_pot=0.0)
    u = solve_hjb_limit_classical(SMALL, spec, None, ZERO_G)
    assert np.allclose(u.values, 0.0, atol=1e-14)


def test_limit_classical_riccati():
    spec = make_lagrangian("quadratic", kappa_pot=1.0)
    # velocity controls come from the v axis, so refine it along with x
    grid = PhaseGrid(
        x=np.linspace(-2.0, 2.0, 321),
        v=np.linspace(-2.5, 2.5, 251),
        t=np.linspace(0.0, 1.0, 201),
    )
    u = solve_hjb_limit_classical(grid, spec, None, ZERO_G)
    for t, x in [(0.0, 1.0), (0.25, -0.5), (0.5, 1.5), (0.75, 0.75)]:
        oracle = lq_limit_value(1.0, 1.0, t, x)
        assert abs(u.probe(t, x) - oracle) < 0.02 * abs(oracle)


def test_mfg_control_one_step_linear_terminal():
    spec = make_lagrangian("quadratic", kappa_pot=0.0)
    grid = PhaseGrid.regular(N_x=41, N_v=41, N_t=51)  # v axis step 0.2: b = -1 is a node
    u = solve_hjb_mfg_control(grid, spec, None, _linear_terminal(1.0)).values
    dt = grid.dt
    # optimal b = -1 is a control node; linear interpolation is exact on g
    interior = slice(10, 31)
    assert np.allclose(u[-2, interior], grid.x[interior] - 0.5 * dt, atol=1e-12)


def test_mfg_control_constant_cost():
    spec = _const_spec(1.5)
    spec = LagrangianSpec(
        kinetic=lambda v: 0.5 * np.asarray(v, dtype=float) ** 2,
        kinetic_d=lambda v: np.asarray(v, dtype=float),
        kinetic_dd=lambda v: np.ones_like(np.asarray(v, dtype=float)),
        potential=spec.potential,
        potential_d=spec.potential_d,
        potential_dd=spec.potential_dd,
        kinetic_name="quadratic",
    )
    u = solve_hjb_mfg_control(SMALL, spec, None, ZERO_G).values
    expected = 1.5 * (SMALL.T - SMALL.t)
    assert np.allclose(u, expected[:, None], atol=1e-12)


def test_mfg_control_rejects_nonquadratic():
    spec = make_lagrangian("quartic")
    with pytest.raises(UnsupportedModelError):
        solve_hjb_mfg_control(SMALL, spec, None, ZERO_G)


def test_gradient_x_examples():
    vals = np.broadcast_to(
        (SMALL.x**2)[:, None], (SMALL.t.size, SMALL.x.size, SMALL.v.size)
    )
    field = ValueField(np.array(vals), SMALL, 0.1)
    dx = gradient_x(field)
    assert np.allclose(dx[:, 1:-1], 2.0 * SMALL.x[1:-1, None], atol=1e-10)
    sin_vals = np.broadcast_to(
        np.sin(SMALL.x)[:, None], (SMALL.t.size, SMALL.x.size, SMALL.v.size)
    )
    err = np.abs(
        gradient_x(ValueField(np.array(sin_vals), SMALL, 0.1))[:, 1:-1]
        - np.cos(SMALL.x)[1:-1, None]
    )
    assert np.max(err) <= SMALL.dx**2 / 6.0 * 1.01


def test_probe_nearest_node():
    vals = np.arange(SMALL.t.size * SMALL.x.size * SMALL.v.size, dtype=float)
    field = ValueField(vals.reshape(SMALL.t.size, SMALL.x.size, SMALL.v.size), SMALL, 0.1)
    assert field.probe(SMALL.t[3], SMALL.x[5], SMALL.v[7]) == field.values[3, 5, 7]
    # off-node queries snap to the nearest node
    assert field.probe(
        SMALL.t[3] + 0.3 * SMALL.dt, SMALL.x[5] - 0.3 * SMALL.dx, SMALL.v[7]
    ) == field.values[3, 5, 7]
    limit = ValueField(field.values[:, :, 0], SMALL, 0.0)
    assert limit.probe(SMALL.t[3], SMALL.x[5]) == field.values[3, 5, 0]
    # a phase field needs v and a limit field takes none
    for bad_field, args in ((field, ()), (limit, (SMALL.v[7],))):
        with pytest.raises(InvalidInputError, match="probed at"):
            bad_field.probe(SMALL.t[3], SMALL.x[5], *args)


def test_index_dtype_widens_past_int32():
    # sizes only: no operator is allocated
    assert _index_dtype(0) is np.int32
    assert _index_dtype(4 * 41 * 321 * 251) is np.int32  # the 321x251 LQ grid
    assert _index_dtype(2**31 - 1) is np.int32
    assert _index_dtype(2**31) is np.int64
    assert _index_dtype(4 * 41 * 2001 * 6601) is np.int64


# -- reference backward steps: per-corner gathers, summed in corner order -------


def _ref_stencil(q, nodes):
    h = nodes[1] - nodes[0]
    s = (q - nodes[0]) / h
    i0 = np.clip(np.floor(s).astype(np.int64), 0, nodes.size - 2)
    frac = np.clip(s - i0, 0.0, 1.0)
    return i0, frac, np.maximum(np.maximum(nodes[0] - q, q - nodes[-1]), 0.0)


def _ref_coupling(spec, x, m_flow, k):
    if m_flow is None or not spec.is_coupled:
        return np.zeros_like(x)
    lattice, table = linear_binning(m_flow, x)
    return spec.coupling_value(x, ParticleEnsemble(lattice, None, table[k]))


def _ref_block(grid, spec, eps, a):
    """Columns and weights (n_a, 4, n_x * n_v) of the interpolation corners in
    order, and the constant rows (n_a, n_x * n_v), built for all controls at once."""
    x, v, dt = grid.x, grid.v, grid.dt
    n_x, n_v, n_a = x.size, v.size, a.size
    foot_x = x[None, :, None] + dt * v[None, None, :] + 0.5 * dt**2 * a[:, None, None]
    foot_v = v[None, :] + dt * a[:, None]
    ix0, fx, ex_x = _ref_stencil(foot_x, x)
    iv0, fv, ex_v = _ref_stencil(foot_v, v)
    lin = np.empty((n_a, 4, n_x, n_v), dtype=np.int64)
    wgt = np.empty((n_a, 4, n_x, n_v))
    c = 0
    for cx, wx in ((0, 1.0 - fx), (1, fx)):
        for cv, wv in ((0, 1.0 - fv), (1, fv)):
            lin[:, c] = (ix0 + cx) * n_v + (iv0 + cv)[:, None, :]
            wgt[:, c] = wx * wv[:, None, :]
            c += 1
    lin = lin.reshape(n_a, 4, n_x * n_v)
    wgt = wgt.reshape(n_a, 4, n_x * n_v)
    m0, T = spec.M0, grid.T
    const = (
        m0 * T * (1.0 + v[None, None, :] ** 2) * ex_x
        + (m0 * T * ex_v * (ex_v + 2.0 * grid.R_v))[:, None, :]
        + dt * (0.5 * eps * a[:, None, None] ** 2)
        + 0.5 * dt * (spec.kinetic(foot_v)[:, None, :] + spec.potential(foot_x))
    ).reshape(n_a, n_x * n_v)
    return lin, wgt, const


def _ref_acceleration(grid, spec, m_flow, g, eps, controls):
    x, v, dt = grid.x, grid.v, grid.dt
    n_x, n_v = x.size, v.size
    lin, wgt, const = _ref_block(grid, spec, eps, controls.values)
    u = np.empty((grid.t.size, n_x, n_v))
    m_terminal = None if m_flow is None else m_flow.marginal(grid.t.size - 1)
    u[-1] = np.asarray(g.g(x, m_terminal), dtype=float)[:, None]
    for k in range(grid.t.size - 2, -1, -1):
        un = u[k + 1].ravel()
        cand = np.einsum("acn,acn->an", wgt, un[lin]) + const
        running = (
            0.5 * spec.kinetic(v)[None, :]
            + 0.5 * spec.potential(x)[:, None]
            + _ref_coupling(spec, x, m_flow, k)[:, None]
        )
        u[k] = cand.min(axis=0).reshape(n_x, n_v) + dt * running
    return u


def _ref_limit(grid, spec, m_flow, g):
    x, dt, b = grid.x, grid.dt, grid.v
    ix0, fx, ex = _ref_stencil(x[None, :] + dt * b[:, None], x)
    pen_rate = spec.M0 * (1.0 + grid.T) * (1.0 + grid.R_v**2) + g.dg_bound
    const = dt * spec.kinetic(b)[:, None] + pen_rate * ex
    u = np.empty((grid.t.size, x.size))
    m_terminal = None if m_flow is None else m_flow.marginal(grid.t.size - 1)
    u[-1] = np.asarray(g.g(x, m_terminal), dtype=float)
    for k in range(grid.t.size - 2, -1, -1):
        un = u[k + 1]
        cand = (1.0 - fx) * un[ix0] + fx * un[ix0 + 1] + const
        u[k] = cand.min(axis=0) + dt * (spec.potential(x) + _ref_coupling(spec, x, m_flow, k))
    return u


def _gather_case(name, coupled):
    """11x9x6 grid with 7 controls whose foot points leave the box on both axes."""
    grid = PhaseGrid.regular(R_x=1.0, R_v=1.0, N_x=11, N_v=9, N_t=6)
    controls = ControlSet.symmetric(5.0, 7)
    spec = make_lagrangian(name, kappa_c=0.5 if coupled else 0.0)
    g = make_terminal("atan", amplitude=1.0)
    m_flow = None
    if coupled:
        rng = np.random.default_rng(1)
        pos = rng.uniform(-0.8, 0.8, size=5) + 0.1 * grid.t[:, None]
        m_flow = MeasureFlow(grid.t, pos, None, np.full(5, 0.2))
    return grid, spec, m_flow, g, controls


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("name", ["quadratic", "cosine", "quartic"])
def test_sparse_step_bit_identical_to_gathers(name, coupled):
    grid, spec, m_flow, g, controls = _gather_case(name, coupled)
    dt = grid.dt
    # foot points leave the box on both axes, so fractions clamp and both penalties bite
    assert grid.R_v + dt * controls.a_max > grid.R_v + grid.dv
    assert grid.R_x + dt * grid.R_v + 0.5 * dt**2 * controls.a_max > grid.R_x + grid.dx
    u = solve_hjb_acceleration(grid, spec, m_flow, g, 0.05, controls).values
    assert np.array_equal(u, _ref_acceleration(grid, spec, m_flow, g, 0.05, controls))
    u0 = solve_hjb_limit_classical(grid, spec, m_flow, g).values
    assert np.array_equal(u0, _ref_limit(grid, spec, m_flow, g))


def _exact_coupling(spec, x, m_flow, k):
    if m_flow is None or not spec.is_coupled:
        return np.zeros_like(x)
    return spec.coupling_value(x, m_flow.marginal(k))


@pytest.mark.parametrize("n_particles", [1, 3])
@pytest.mark.parametrize("name", ["quadratic", "cosine", "quartic"])
def test_binned_coupling_within_bound_of_exact(name, n_particles, monkeypatch):
    """Binning moves the coupling by at most kappa_c h^2 / (8 sigma^3 sqrt(2 pi)) per
    step; the interpolation and the min over controls do not expand it, so both
    solvers stay within T times that of the sweeps with the exact coupling."""
    grid = PhaseGrid.regular(R_x=1.0, R_v=1.0, N_x=11, N_v=9, N_t=6)
    controls = ControlSet.symmetric(5.0, 7)
    spec = make_lagrangian(name, kappa_c=0.5)
    g = make_terminal("atan", amplitude=1.0)
    rng = np.random.default_rng(2 + n_particles)
    pos = rng.uniform(-1.2, 1.2, size=n_particles) + 0.1 * grid.t[:, None]
    m_flow = MeasureFlow(grid.t, pos, None, rng.dirichlet(np.ones(n_particles)))
    sigma = spec.coupling_sigma
    bound = grid.T * 0.5 * grid.dx**2 / (8.0 * sigma**3 * np.sqrt(2.0 * np.pi))
    monkeypatch.setitem(globals(), "_ref_coupling", _exact_coupling)
    u = solve_hjb_acceleration(grid, spec, m_flow, g, 0.05, controls).values
    gap = np.max(np.abs(u - _ref_acceleration(grid, spec, m_flow, g, 0.05, controls)))
    assert 0.0 < gap <= bound
    u0 = solve_hjb_limit_classical(grid, spec, m_flow, g).values
    gap0 = np.max(np.abs(u0 - _ref_limit(grid, spec, m_flow, g)))
    assert 0.0 < gap0 <= bound


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("n_cpus", [1, 2, 3, 7, 16])
def test_control_blocks_bit_identical_for_any_cpu_count(n_cpus, coupled, monkeypatch):
    """The 7 controls split into min(n_cpus, 7) contiguous blocks of sizes 3/2/2 at
    3 CPUs and one control each at 7 or 16; the min over blocks is exact, so the
    values equal the gather reference whatever the CPU count."""
    grid, spec, m_flow, g, controls = _gather_case("cosine", coupled)
    blocks = []
    build_block = hjb._acceleration_block

    def recording_block(grid, spec, eps, a):
        blocks.append(a.copy())
        return build_block(grid, spec, eps, a)

    monkeypatch.setattr(hjb, "_n_cpus", lambda: n_cpus)
    monkeypatch.setattr(hjb, "_acceleration_block", recording_block)
    u = solve_hjb_acceleration(grid, spec, m_flow, g, 0.05, controls).values
    assert np.array_equal(u, _ref_acceleration(grid, spec, m_flow, g, 0.05, controls))
    sizes = [b.size for b in blocks]
    assert len(blocks) == min(n_cpus, controls.values.size)
    assert max(sizes) - min(sizes) <= 1
    assert np.array_equal(np.concatenate(blocks), controls.values)


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("name", ["quadratic", "cosine", "quartic"])
def test_control_blocks_store_the_one_shot_construction(name, n_cpus, monkeypatch):
    """Each block, filled one control at a time, stores the CSR entries and
    constant rows of the reference built for all of its controls at once, bit
    for bit, with foot points that clamp on both axes. Every block's row
    pointer is a view of the first block's."""
    grid, spec, _, _, controls = _gather_case(name, False)
    monkeypatch.setattr(hjb, "_n_cpus", lambda: n_cpus)
    op = hjb.acceleration_operator(grid, spec, 0.05, controls)
    parts = np.array_split(controls.values, n_cpus)
    assert len(op.blocks) == len(parts)
    first_indptr = op.blocks[0][0].indptr
    for (S, const), a in zip(op.blocks, parts):
        lin, wgt, ref_const = _ref_block(grid, spec, 0.05, a)
        assert np.shares_memory(S.indptr, first_indptr)
        assert np.array_equal(S.indptr, np.arange(0, lin.size + 1, 4))
        assert np.array_equal(S.indices, lin.transpose(0, 2, 1).ravel())
        assert np.array_equal(S.data, wgt.transpose(0, 2, 1).ravel())
        assert np.array_equal(const, ref_const)


def test_acceleration_operator_must_match_the_solve():
    """A prebuilt operator gives the values of a fresh solve on an equal grid,
    and is refused for another grid, spec, eps or control set."""
    grid, spec, m_flow, g, controls = _gather_case("quadratic", True)
    op = hjb.acceleration_operator(grid, spec, 0.05, controls)
    equal_grid = PhaseGrid.regular(R_x=1.0, R_v=1.0, N_x=11, N_v=9, N_t=6)
    u = solve_hjb_acceleration(equal_grid, spec, m_flow, g, 0.05, controls, operator=op).values
    assert np.array_equal(u, solve_hjb_acceleration(grid, spec, m_flow, g, 0.05, controls).values)
    for other_grid, other_spec, eps, other_controls in (
        (PhaseGrid.regular(R_x=1.0, R_v=1.0, N_x=11, N_v=9, N_t=7), spec, 0.05, controls),
        (grid, make_lagrangian("quadratic", kappa_c=0.5), 0.05, controls),
        (grid, spec, 0.1, controls),
        (grid, spec, 0.05, ControlSet.symmetric(4.0, 7)),
        (grid, spec, 0.05, None),  # the default set of eps 0.05
    ):
        with pytest.raises(InvalidInputError, match="built for another"):
            solve_hjb_acceleration(other_grid, other_spec, m_flow, g, eps, other_controls, operator=op)


def test_control_block_workers_are_joined(monkeypatch):
    """Every solve joins its worker threads before it returns."""
    monkeypatch.setattr(hjb, "_n_cpus", lambda: 2)
    before = threading.active_count()
    for coupled in (False, True, False):
        grid, spec, m_flow, g, controls = _gather_case("quadratic", coupled)
        solve_hjb_acceleration(grid, spec, m_flow, g, 0.05, controls)
    assert threading.active_count() == before


def _traced_peak_of_coupled_solve():
    grid = PhaseGrid.regular(N_x=101, N_v=81, N_t=101)
    spec = make_lagrangian("quadratic", kappa_c=0.5)
    flow = free_transport_flow(lattice_ensemble(2000), grid)
    controls = acceleration_controls(grid, 0.01)
    tracemalloc.start()
    try:
        solve_hjb_acceleration(grid, spec, flow, ZERO_G, 0.01, controls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_acceleration_solve_peak_memory():
    """The construction arrays are freed before the backward loop: on the coupled
    sweep's grid one solve peaks at 31.90 MB of traced allocations with one
    control block and 31.22 MB with two, with either allocation order of u and
    the operator (u alone is 6.6 MB, the operators 20.1 and 19.5 MB); keeping
    the construction arrays through the loop peaked at 49.8 MB."""
    peak = _traced_peak_of_coupled_solve()
    assert peak < 44e6, f"traced peak {peak / 1e6:.1f} MB"


def test_acceleration_solve_peak_memory_two_blocks(monkeypatch):
    """The same bound holds with the controls split over two CPUs, so the
    threaded step is checked on a one-CPU machine too."""
    monkeypatch.setattr(hjb, "_n_cpus", lambda: 2)
    peak = _traced_peak_of_coupled_solve()
    assert peak < 44e6, f"traced peak {peak / 1e6:.1f} MB"


def test_decoupled_solve_allocates_its_value_field_before_its_operator(monkeypatch):
    """A solve that builds its own operator allocates u first, so the operator,
    freed on return, is not left as a hole below the field it outlives (see the
    `hjb` module docstring). The traced memory when the operator build starts
    must already hold u."""
    grid = PhaseGrid.regular(N_x=101, N_v=81, N_t=101)
    spec = make_lagrangian("quadratic")
    controls = acceleration_controls(grid, 0.01)
    build, at_build = hjb.acceleration_operator, []

    def traced_build(*args):
        at_build.append(tracemalloc.get_traced_memory()[0])
        return build(*args)

    monkeypatch.setattr(hjb, "acceleration_operator", traced_build)
    tracemalloc.start()
    try:
        solve_hjb_acceleration(grid, spec, None, ZERO_G, 0.01, controls)
    finally:
        tracemalloc.stop()
    field_bytes = 8 * grid.t.size * grid.x.size * grid.v.size
    assert len(at_build) == 1
    assert at_build[0] >= field_bytes, f"{at_build[0]} bytes traced at the build, u is {field_bytes}"


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_acceleration_operator_peak_memory(n_cpus, monkeypatch):
    """The blocks are allocated first and filled one control at a time, so the
    build peaks within 1.1x the bytes of the blocks it returns, a buffer that
    several blocks share (the row pointer) counted once. On the coupled
    sweep's grid at eps 0.01: 20.34 MB of traced allocations for 20.13 MB of
    blocks (one block) and 19.67 MB for 19.47 MB (two); building each block's
    foot points and stencils whole first peaked at 37.77 and 28.77 MB."""
    monkeypatch.setattr(hjb, "_n_cpus", lambda: n_cpus)
    grid = PhaseGrid.regular(N_x=101, N_v=81, N_t=101)
    spec = make_lagrangian("quadratic", kappa_c=0.5)
    controls = acceleration_controls(grid, 0.01)
    tracemalloc.start()
    try:
        op = hjb.acceleration_operator(grid, spec, 0.01, controls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffers = {}  # owning array of each block array, so a shared buffer is counted once
    for S, const in op.blocks:
        for arr in (S.data, S.indices, S.indptr, const):
            owner = arr if arr.base is None else arr.base
            buffers[id(owner)] = owner.nbytes
    held = sum(buffers.values())
    assert peak <= 1.1 * held, f"traced peak {peak / 1e6:.2f} MB for {held / 1e6:.2f} MB of blocks"
