"""Rate fitting, estimate audits, comparisons, and the sweep harness."""

import json
import os
import threading
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from mfglab import (
    InvalidInputError,
    PhaseGrid,
    SweepPlan,
    ValueField,
    audit_estimates,
    compare_joint_reconstruction,
    fit_rate,
    gaussian_ensemble,
    lattice_ensemble,
    make_lagrangian,
    make_terminal,
    run_sweep,
    solve_eps_system,
    solve_limit_classical,
    solve_mfg_of_control,
    sup_marginal_gap,
    sup_value_gap,
    velocity_oscillation,
)
from mfglab import analysis
from mfglab.analysis import REPORT_COLUMNS, ConvergenceReport, energy_constant, holder_constant
from mfglab.measures import MeasureFlow, ParticleEnsemble, _w1_quantile, wasserstein1_joint

SMALL = PhaseGrid.regular(N_x=41, N_v=31, N_t=51)
ZERO_G = make_terminal("zero")


def test_fit_rate_exact_slopes():
    xs = np.array([0.5, 0.2, 0.1, 0.05])
    fit = fit_rate(xs, xs)
    assert fit.slope == pytest.approx(1.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.clipped
    assert fit_rate(xs, np.sqrt(xs)).slope == pytest.approx(0.5, abs=1e-10)


def test_fit_rate_noisy_power_law():
    rng = np.random.default_rng(0)
    xs = np.logspace(-2, 0, 12)
    ys = 3.0 * xs**0.7 * (1.0 + 0.01 * rng.normal(size=xs.size))
    fit = fit_rate(xs, ys)
    assert 0.65 <= fit.slope <= 0.75


def test_fit_rate_validation_and_clipping():
    with pytest.raises(InvalidInputError):
        fit_rate([1.0, 0.5], [1.0, 0.5])
    with pytest.raises(InvalidInputError):
        fit_rate([1.0, -0.5, 0.2], [1.0, 0.5, 0.1])
    fit = fit_rate([1.0, 0.5, 0.2], [1.0, 0.0, 0.1])
    assert fit.clipped


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([0.5, np.nan, 0.1], [1.0, 0.5, 0.2]),
        ([0.5, 0.2, 0.1], [1.0, np.nan, 0.2]),
        ([0.5, np.inf, 0.1], [1.0, 0.5, 0.2]),
        ([0.5, 0.2, 0.1], [np.inf, 0.5, 0.2]),
    ],
    ids=["nan_x", "nan_y", "inf_x", "inf_y"],
)
def test_fit_rate_rejects_non_finite_points(xs, ys):
    with pytest.raises(InvalidInputError, match="finite"):
        fit_rate(xs, ys)


def test_sweep_plan_validation():
    with pytest.raises(InvalidInputError):
        SweepPlan(eps_ladder=())
    with pytest.raises(InvalidInputError):
        SweepPlan(eps_ladder=(0.1, 0.2))


@pytest.mark.parametrize(
    "ladder",
    [(0.5, np.nan, 0.1), (np.inf, 0.5, 0.1), (0.5, 0.2, -np.inf), (np.nan,)],
    ids=["nan", "inf", "neg-inf", "nan-alone"],
)
def test_sweep_plan_refuses_non_finite_rungs(ladder):
    """NaN passes the decreasing check, so a NaN or infinite rung is refused
    up front instead of at its solve, after the rungs before it."""
    with pytest.raises(InvalidInputError, match="positive and finite"):
        SweepPlan(eps_ladder=ladder)


def test_constant_assembly():
    spec = make_lagrangian("quadratic", M0=60.0)
    g = make_terminal("atan", amplitude=1.0)
    q1 = energy_constant(spec, g, 1.0)
    assert q1 == pytest.approx(2.0 * 60.0 * (np.pi / 2.0 + 60.0))
    mu0 = ParticleEnsemble(np.array([0.0, 0.0]), np.array([1.0, -1.0]))
    assert holder_constant(spec, g, 1.0, mu0) == pytest.approx(np.sqrt(2.0 * q1))


def test_velocity_oscillation_synthetic():
    vals = np.broadcast_to(SMALL.v**2, (SMALL.t.size, SMALL.x.size, SMALL.v.size))
    field = ValueField(np.array(vals), SMALL, 0.1)
    # oscillation over the v nodes inside the probe box
    vmax = np.max(np.abs(SMALL.v[np.abs(SMALL.v) <= 2.0]))
    assert velocity_oscillation(field) == pytest.approx(vmax**2)
    limit = ValueField(np.zeros((SMALL.t.size, SMALL.x.size)), SMALL, 0.0)
    with pytest.raises(InvalidInputError):
        velocity_oscillation(limit)


def test_sup_value_gap_synthetic():
    phase = ValueField(
        np.ones((SMALL.t.size, SMALL.x.size, SMALL.v.size)), SMALL, 0.1
    )
    limit = ValueField(np.zeros((SMALL.t.size, SMALL.x.size)), SMALL, 0.0)
    assert sup_value_gap(phase, limit) == pytest.approx(1.0)
    other = PhaseGrid.regular(N_x=21, N_v=31, N_t=51)
    mism = ValueField(np.zeros((other.t.size, other.x.size)), other, 0.0)
    with pytest.raises(InvalidInputError):
        sup_value_gap(phase, mism)
    # same x axis, another time axis: more nodes, or the same count over another T
    for N_t, T in ((SMALL.t.size + 10, SMALL.T), (SMALL.t.size, 2.0 * SMALL.T)):
        grid = PhaseGrid.regular(N_x=SMALL.x.size, N_v=SMALL.v.size, N_t=N_t, T=T)
        assert np.array_equal(grid.x, SMALL.x)
        later = ValueField(np.zeros((grid.t.size, grid.x.size)), grid, 0.0)
        with pytest.raises(InvalidInputError, match="time"):
            sup_value_gap(phase, later)


def test_sup_marginal_gap_shifted_flows():
    t = SMALL.t
    X = np.broadcast_to(np.linspace(-1, 1, 10), (t.size, 10)).copy()
    w = np.full(10, 0.1)
    a = MeasureFlow(t, X, None, w)
    b = MeasureFlow(t, X + 0.25, None, w)
    assert sup_marginal_gap(a, b) == pytest.approx(0.25, abs=1e-12)


def test_audit_estimates_on_decoupled_solution():
    spec = make_lagrangian("quadratic")
    mu0 = lattice_ensemble(64)
    sol = solve_eps_system(spec, ZERO_G, SMALL, mu0, 0.1)
    audit = audit_estimates(sol, spec, ZERO_G)
    assert audit.lemma41_ok
    assert audit.cor42_margin >= 0
    assert audit.cor43_margin >= 0
    assert audit.prop46_margin >= 0
    assert audit.prop52_value >= 0
    assert audit.q1 == pytest.approx(energy_constant(spec, ZERO_G, SMALL.T))


def test_rung_measurements_take_the_value_field_slice_by_slice():
    """On a default-grid rung the audit, the value gap and the oscillation give
    the floats of the whole-field formulas, and together allocate less than the
    value field (13.2 MB): 12.0 MB of traced allocations, most of it the flow
    audits. Taking the whole field's D_x and cutting the box out with masks
    peaked at 26.1 MB."""
    grid = PhaseGrid.regular()
    spec = make_lagrangian("quadratic")
    g = make_terminal("atan", amplitude=1.0)
    mu0 = gaussian_ensemble(2000, seed=1)
    sol = solve_eps_system(spec, g, grid, mu0, 0.05)
    limit = solve_limit_classical(spec, g, grid, mu0)
    tracemalloc.start()
    try:
        audit = audit_estimates(sol, spec, g)
        gap = sup_value_gap(sol.value, limit.value)
        osc = velocity_oscillation(sol.value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    u = sol.value.values
    assert peak < u.nbytes, f"traced peak {peak / 1e6:.1f} MB"

    T, M0, v = grid.T, spec.M0, grid.v
    upper = M0 * T * (1.0 + v**2) + g.g_inf
    lower = -T * M0 - g.g_inf
    lemma41 = min(float(np.min(upper[None, None, :] - u)), float(np.min(u - lower)))
    assert audit.lemma41_margin == lemma41
    bx, bv = np.abs(grid.x) <= 2.0, np.abs(v) <= 2.0
    c1 = (M0 * (T + audit.q1) + g.dg_bound) / T
    dxu = np.gradient(u, grid.dx, axis=1)[:, bx][:, :, bv]
    prop46 = float(np.min(c1 * T * (1.0 + v[bv][None, None, :] ** 2) - np.abs(dxu)))
    assert audit.prop46_margin == prop46
    sub = u[:, bx][:, :, bv]
    assert gap == float(np.max(np.abs(sub - limit.value.values[:, bx, None])))
    assert osc == float(np.max(sub.max(axis=2) - sub.min(axis=2)))


def _all_pairs_holder_margin(flow, q2):
    """Every node pair evaluated, as _pairwise_holder_margin did before pruning."""
    t = flow.times
    if flow.uniform_weights():
        S = np.sort(flow.positions, axis=1)
        margin = np.inf
        for k in range(t.size - 1):
            d1 = np.mean(np.abs(S[k + 1 :] - S[k]), axis=1)
            margin = min(margin, float(np.min(q2 * np.sqrt(t[k + 1 :] - t[k]) - d1)))
        return margin
    margin = np.inf
    for k in range(t.size - 1):
        for l in range(k + 1, t.size):
            d1 = _w1_quantile(flow.positions[k], flow.weights, flow.positions[l], flow.weights)
            margin = min(margin, q2 * np.sqrt(t[l] - t[k]) - d1)
    return float(margin)


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("shape", ["drift", "walk"])
def test_pruned_holder_margin_equals_all_pairs(uniform, shape):
    rng = np.random.default_rng(21)
    t = np.linspace(0.0, 1.0, 41)
    n = 50
    if shape == "drift":
        # sqrt(dt) - 1.2 dt is least at the widest pair, where the triangle bound
        # is nearly tight; any smaller bound would skip that pair
        X = rng.normal(size=n) + 1.2 * t[:, None] + 0.01 * rng.normal(size=(t.size, n))
    else:
        steps = rng.normal(scale=0.2, size=(t.size, n)) + rng.normal(size=(t.size, 1))
        X = np.cumsum(steps, axis=0)
    w = np.full(n, 1.0 / n) if uniform else rng.uniform(0.5, 1.5, size=n)
    flow = MeasureFlow(t, X, None, w / w.sum())
    assert flow.uniform_weights() == uniform
    q2 = 1.0
    expected = _all_pairs_holder_margin(flow, q2)
    first_pair = _all_pairs_holder_margin(MeasureFlow(t[:2], X[:2], None, flow.weights), q2)
    assert first_pair > expected  # the minimum is not at pair (0, 1)
    assert analysis._pairwise_holder_margin(flow, q2) == expected


_TIME_AXES = {
    "linspace": np.linspace(0.0, 1.0, 23),  # steps unequal in their last bits
    "exact": np.arange(23) * 0.25,  # equal steps: np.gradient's uniform formula
    "uneven": np.cumsum(np.random.default_rng(4).uniform(0.5, 1.5, 23)),
}


@pytest.mark.parametrize("block_rows", [1, 3, None])
@pytest.mark.parametrize("axis", sorted(_TIME_AXES))
def test_time_block_reductions_equal_numpy(axis, block_rows, monkeypatch):
    """The audits' time-axis reductions give np.trapezoid, np.gradient and
    np.diff bit for bit: the integral over every prefix of the axis and the
    gradient at every row (both edges included), taken one or two time rows at
    a time, and the adjacent differences of the Hoelder audit, taken in blocks
    of one row, of three rows and of the default number of rows."""
    t, n = _TIME_AXES[axis], 7
    steps = np.diff(t)
    assert bool(np.all(steps == steps[0])) == (axis == "exact")
    if block_rows is not None:
        monkeypatch.setattr(analysis, "_ROW_BLOCK_VALUES", block_rows * n)
    rng = np.random.default_rng(5)
    f = rng.normal(size=(t.size, n)) * 10.0 ** rng.uniform(-6, 6, size=(t.size, 1))
    for k in range(2, t.size + 1):
        assert np.array_equal(
            analysis._time_integral(lambda j: f[j], t[:k]), np.trapezoid(f[:k], t[:k], axis=0)
        )
    grad = np.gradient(f, t, axis=0)
    for k in range(t.size):
        assert np.array_equal(analysis._gradient_row(f, t, k), grad[k])
    blocks = analysis._row_blocks(t.size - 1, n)
    assert {ks.size for ks in blocks[:-1]} <= {block_rows or t.size - 1}
    assert np.array_equal(np.concatenate(blocks), np.arange(t.size - 1))
    adjacent = np.concatenate([f[ks + 1] - f[ks] for ks in blocks])
    assert np.array_equal(adjacent, np.diff(f, axis=0))


@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_flow_audits_equal_the_whole_flow_formulas(block_rows, monkeypatch):
    """The energy, Hoelder and acceleration margins, taken one or two time rows
    at a time (the Hoelder adjacency in blocks of 1, 3 or the default number
    of rows), are the floats of the whole-flow formulas and of every node pair."""
    spec = make_lagrangian("quadratic")
    g = make_terminal("atan", amplitude=1.0)
    sol = solve_eps_system(spec, g, SMALL, gaussian_ensemble(64, seed=2), 0.1)
    V, t, T = sol.flow.velocities, sol.flow.times, SMALL.T
    if block_rows is not None:
        monkeypatch.setattr(analysis, "_ROW_BLOCK_VALUES", block_rows * V.shape[1])
    audit = audit_estimates(sol, spec, g)
    energies = np.trapezoid(V**2, t, axis=0)
    assert audit.cor42_margin == float(np.min(audit.q1 * (1.0 + V[0] ** 2) - energies))
    assert audit.cor43_margin == _all_pairs_holder_margin(sol.flow, audit.q2)
    acc = np.gradient(V, t, axis=0)
    mask = t >= analysis.ACCEL_CUTOFF * T
    assert audit.prop52_value == float(np.max(np.trapezoid(acc[mask] ** 2, t[mask], axis=0)))


def test_flow_audits_peak_memory():
    """The audits reduce the flow's time axis one or two time rows at a time,
    and the Hoelder audit's adjacent distances one block of rows at a time, so
    besides that audit's sorted positions (8 N_t n bytes) they hold arrays of a
    bounded size. On a 21x17x201 rung with 20,000 particles the
    audit's traced peak is 9.1 N_t n bytes; the whole-flow energies,
    acceleration and adjacent distances peaked at 29.6 N_t n."""
    grid = PhaseGrid.regular(N_x=21, N_v=17)
    spec = make_lagrangian("quadratic")
    sol = solve_eps_system(spec, ZERO_G, grid, gaussian_ensemble(20000, seed=1), 0.05)
    tracemalloc.start()
    try:
        audit_estimates(sol, spec, ZERO_G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_t, n = sol.flow.positions.shape
    assert peak < 10 * n_t * n, f"traced peak {peak / (n_t * n):.1f} N_t n bytes"


@pytest.fixture(scope="module")
def joint_pair():
    spec = make_lagrangian("quadratic")
    mu0 = lattice_ensemble(49)
    sol = solve_eps_system(spec, ZERO_G, SMALL, mu0, 0.2)
    return sol, solve_mfg_of_control(spec, ZERO_G, SMALL, mu0)


def test_compare_joint_reconstruction_zero_at_start(joint_pair):
    pairs = compare_joint_reconstruction(*joint_pair, fractions=(0.0, 0.5, 1.0))
    assert pairs[0][0] == 0.0
    assert float(pairs[0][1]) == 0.0 and pairs[0][1].exact
    assert all(float(r) >= 0 for _, r in pairs)


def _report_cpus(monkeypatch, n_cpus):
    """Make the machine report ``n_cpus`` usable CPUs to every caller of ``os``."""
    monkeypatch.setattr(os, "cpu_count", lambda: n_cpus)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))


@pytest.mark.parametrize("n_cpus", [1, 4, 8])  # 8 > 5 probes
def test_compare_joint_reconstruction_equals_sequential_probes(monkeypatch, joint_pair, n_cpus):
    """The probes give the per-probe results, in ``fractions`` order, whatever the CPU count."""
    fa, fb = joint_pair[0].flow, joint_pair[1].flow
    fractions = (0.0, 0.25, 0.5, 0.75, 1.0)
    expected = []
    for frac in fractions:
        ka, kb = fa.index_at(frac * fa.times[-1]), fb.index_at(frac * fa.times[-1])
        res = wasserstein1_joint(fa.ensemble(ka), fb.ensemble(kb))
        expected.append((float(fa.times[ka]), res))
    assert all(res.exact for _, res in expected)
    _report_cpus(monkeypatch, n_cpus)
    assert compare_joint_reconstruction(*joint_pair, fractions) == expected


def test_joint_w1_runs_on_the_calling_thread(monkeypatch, joint_pair):
    threads = _count_w1_calls(monkeypatch)
    _joint_gap(*joint_pair)
    compare_joint_reconstruction(*joint_pair)
    assert len(threads) > 5 and set(threads) == {threading.get_ident()}


def _flows(positions_a, velocities_a, positions_b, velocities_b, weights=None):
    """Solution stand-ins: the joint comparisons read only ``.flow``."""
    t = np.linspace(0.0, 1.0, positions_a.shape[0])
    n = positions_a.shape[1]
    w = np.full(n, 1.0 / n) if weights is None else weights
    return (
        SimpleNamespace(flow=MeasureFlow(t, positions_a, velocities_a, w)),
        SimpleNamespace(flow=MeasureFlow(t, positions_b, velocities_b, w)),
    )


def _joint_gap(*pair):
    return analysis._sup_joint_gap(analysis._joint_probes(*pair))


def _max_over_probes(*pair):
    return max(float(r) for _, r in compare_joint_reconstruction(*pair))


def _count_w1_calls(monkeypatch):
    """The list of threads that called wasserstein1_joint through analysis, one per call."""
    calls = []
    w1 = analysis.wasserstein1_joint

    def counting(a, b):
        calls.append(threading.get_ident())
        return w1(a, b)

    monkeypatch.setattr(analysis, "wasserstein1_joint", counting)
    return calls


@pytest.mark.parametrize("n_cpus", [1, 4])
def test_sup_joint_gap_equals_max_over_probes(monkeypatch, joint_pair, n_cpus):
    expected = _max_over_probes(*joint_pair)
    _report_cpus(monkeypatch, n_cpus)
    assert _joint_gap(*joint_pair) == expected


def test_sup_joint_gap_of_identical_flows_is_zero():
    rng = np.random.default_rng(22)
    X, V = rng.normal(size=(2, 5, 30))
    pair = _flows(X, V, X, V)
    assert _joint_gap(*pair) == 0.0 == _max_over_probes(*pair)


def test_sup_joint_gap_solves_past_a_loose_bound(monkeypatch):
    """The jittered probe has the largest bound but a small W1, so the shifted one is solved too."""
    rng = np.random.default_rng(0)
    x, v = rng.uniform(-1.0, 1.0, size=(2, 60))
    jx, jv = rng.normal(scale=0.1, size=(2, 60))
    X = np.tile(x, (5, 1))
    V = np.tile(v, (5, 1))
    shift_x = np.array([0.0, 0.0, 0.3, 0.1, 0.05])[:, None]
    shift_v = np.array([0.0, 0.0, 0.0, 0.0, 0.05])[:, None]
    Xb, Vb = X + shift_x, V + shift_v
    Xb[1] += jx
    Vb[1] += jv
    pair = _flows(X, V, Xb, Vb)
    expected = _max_over_probes(*pair)
    calls = _count_w1_calls(monkeypatch)
    assert _joint_gap(*pair) == expected
    assert len(calls) == 2


def test_sup_joint_gap_refuses_weighted_flows(monkeypatch):
    rng = np.random.default_rng(23)
    X, V, Xb, Vb = rng.normal(size=(4, 5, 20))
    w = rng.uniform(0.5, 1.5, size=20)
    pair = _flows(X, V, Xb, Vb, weights=w / w.sum())
    calls = _count_w1_calls(monkeypatch)
    with pytest.raises(InvalidInputError, match="uniform weights"):
        _joint_gap(*pair)
    assert calls == []  # refused by the bounds, before any assignment
    with pytest.raises(InvalidInputError, match="uniform weights"):
        compare_joint_reconstruction(*pair)


def _one_particle_probes():
    """Probe k compares one particle at x = 0 with one at x = k."""
    return _flows(np.zeros((5, 1)), np.zeros((5, 1)), np.arange(5.0)[:, None], np.zeros((5, 1)))


def _fake_probes(monkeypatch, bounds, values):
    """Stand-in bounds and W1 values per probe; returns the list of probes solved."""
    solved = []

    def fake_w1(a, b):
        k = int(b.positions[0])
        solved.append(k)
        return analysis.W1Result(values[k], True)

    def fake_bounds(a, b):
        return bounds[int(b.positions[0])]

    monkeypatch.setattr(analysis, "_joint_w1_bounds", fake_bounds)
    monkeypatch.setattr(analysis, "wasserstein1_joint", fake_w1)
    return solved


@pytest.mark.parametrize("first_lower", [0.0, 0.6 * (1.0 - 1e-13)], ids=["vs_w1", "vs_lower"])
def test_sup_joint_gap_stop_rule_has_a_relative_slack(monkeypatch, first_lower):
    """An upper bound that rounds just below a W1 or a lower bound still gets its probe solved."""
    bounds = [(first_lower, 1.0), (0.0, 0.6 * (1.0 - 1e-12))] + [(0.0, 0.0)] * 3
    values = [0.6 * (1.0 - 1e-13), 0.6, 0.0, 0.0, 0.0]
    solved = _fake_probes(monkeypatch, bounds, values)
    assert _joint_gap(*_one_particle_probes()) == 0.6
    assert solved == [0, 1]  # descending bounds, stopped at the first that cannot reach 0.6


def test_sup_joint_gap_solves_the_probes_left_by_the_bounds_in_turn(monkeypatch):
    """Upper bounds below the largest lower bound (0.5) are never reached; the
    others are solved in descending upper bound until one is below a W1 found."""
    bounds = [(0.0, 0.0), (0.5, 0.9), (0.1, 0.45), (0.2, 0.7), (0.1, 0.6)]
    values = [0.0, 0.55, 0.3, 0.65, 0.4]
    solved = _fake_probes(monkeypatch, bounds, values)
    assert _joint_gap(*_one_particle_probes()) == 0.65
    assert solved == [1, 3]  # probe 4's bound 0.6 is below the 0.65 of probe 3


def test_sup_joint_gap_solves_fewer_probes_on_a_gaussian_sweep(monkeypatch):
    spec = make_lagrangian("quadratic")
    mu0 = gaussian_ensemble(300, seed=1)
    plan = SweepPlan(eps_ladder=(0.2, 0.1, 0.05))
    sup_joint_gap, solve_limit, solve = (
        analysis._sup_joint_gap,
        analysis.solve_mfg_of_control,
        analysis.solve_eps_system,
    )
    calls = _count_w1_calls(monkeypatch)
    fractions = analysis._PROBE_FRACTIONS
    limits, solved, full, given = [], [], [], []

    def limit_solving(*args, **kwargs):
        limits.append(solve_limit(*args, **kwargs))
        return limits[-1]

    def solving(*args, **kwargs):  # the reference, read from the rung's and the limit's flows
        sol = solve(*args, **kwargs)
        fa, fb = sol.flow, limits[0].flow
        nodes = [(fa.index_at(f * fa.times[-1]), fb.index_at(f * fa.times[-1])) for f in fractions]
        w1s = [float(wasserstein1_joint(fa.ensemble(ka), fb.ensemble(kb))) for ka, kb in nodes]
        full.append(max(w1s))
        return sol

    def recording(probes):
        before = len(calls)
        got = sup_joint_gap(probes)
        solved.append(len(calls) - before)
        assert len(probes) == len(fractions)
        given.append(max(float(wasserstein1_joint(a, b)) for _, a, b in probes))
        return got

    monkeypatch.setattr(analysis, "solve_mfg_of_control", limit_solving)
    monkeypatch.setattr(analysis, "solve_eps_system", solving)
    monkeypatch.setattr(analysis, "_sup_joint_gap", recording)
    report = run_sweep(plan, spec, ZERO_G, SMALL, mu0, variant="control")
    assert len(limits) == 1 and len(full) == 3
    assert [row["sup_d1_joint"] for row in report.rows] == full == given
    assert len(solved) == 3 and all(k < 5 for k in solved)


def test_control_rung_drops_its_value_field_and_flows_before_the_joint_w1(monkeypatch):
    """A control rung takes its other measurements first, keeps copies of its
    joint probes' rows and drops its solution: no exact assignment runs while
    the rung's value field or flows are alive.

    The copies go to a buffer allocated before the rung's solve, so that the
    freed value field and flows lie above it on the heap, in one block where
    the assignment's cost matrix fits; the order of calls is checked here."""
    solve, w1, joint_probes = (
        analysis.solve_eps_system,
        analysis.wasserstein1_joint,
        analysis._joint_probes,
    )
    n, shape = 100, (len(analysis._PROBE_FRACTIONS), 4, 100)
    refs, alive, events = [], [], []

    class Numpy:  # analysis's numpy, recording the probe buffers it allocates
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, *args, **kwargs):
            out = np.empty(*args, **kwargs)
            if out.shape == shape:
                events.append(("buffer", out))
            return out

    def solving(*args, **kwargs):
        sol = solve(*args, **kwargs)
        arrays = (sol.value.values, sol.flow.positions, sol.flow.velocities)
        assert all(a.base is None for a in arrays)  # each owns its memory
        refs.extend(weakref.ref(a) for a in arrays)
        events.append(("solve", None))
        return sol

    def probing(*args, out=None, **kwargs):
        events.append(("probes", out))
        return joint_probes(*args, out=out, **kwargs)

    def checking(a, b):
        alive.append(sum(ref() is not None for ref in refs))
        return w1(a, b)

    monkeypatch.setattr(analysis, "np", Numpy())
    monkeypatch.setattr(analysis, "solve_eps_system", solving)
    monkeypatch.setattr(analysis, "_joint_probes", probing)
    monkeypatch.setattr(analysis, "wasserstein1_joint", checking)
    plan = SweepPlan(eps_ladder=(0.2, 0.1, 0.05))
    mu0 = gaussian_ensemble(n, seed=3)
    run_sweep(plan, make_lagrangian("quadratic"), ZERO_G, SMALL, mu0, variant="control")
    assert len(refs) == 9 and len(alive) >= 3
    assert alive == [0] * len(alive)
    assert [kind for kind, _ in events] == ["buffer", "solve", "probes"] * 3
    for rung in range(3):  # each rung's probes fill the buffer taken before its solve
        assert events[3 * rung + 2][1] is events[3 * rung][1]


def test_run_sweep_classical_report():
    spec = make_lagrangian("quadratic")
    mu0 = lattice_ensemble(64)
    plan = SweepPlan(eps_ladder=(0.5, 0.2, 0.1))
    report = run_sweep(plan, spec, ZERO_G, SMALL, mu0, variant="classical")
    assert len(report.rows) == 3
    for row in report.rows:
        assert set(row) == set(REPORT_COLUMNS)
        assert row["converged"]
        assert np.isnan(row["sup_d1_joint"])  # joint column is control-variant only
    assert "osc_v" in report.rates
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 4
    rates = json.loads(report.rates_json())
    assert "slope" in rates["osc_v"]


def _report_cell(val):
    """Reference: integers and booleans as integers, every other value as %.17g."""
    if isinstance(val, (bool, np.bool_, int, np.integer)):
        return str(int(val))
    return "%.17g" % float(val)


def test_report_csv_equals_cell_formatter():
    edge = dict(zip(REPORT_COLUMNS[1:5], (-0.0, 1e-300, 1e300, 1.0 / 3.0)))
    rows = (
        analysis._nan_row(0.5),  # a failed rung
        dict.fromkeys(REPORT_COLUMNS, 0.0) | edge | {
            "eps": 0.2, "lemma41_ok": np.bool_(True), "iters": 17, "converged": True
        },
        dict.fromkeys(REPORT_COLUMNS, -2.5) | {
            "eps": 0.1, "lemma41_ok": False, "iters": np.int64(40), "converged": np.bool_(False)
        },
    )
    report = ConvergenceReport(rows, {})
    expected = [",".join(REPORT_COLUMNS)]
    expected += [",".join(_report_cell(row[c]) for c in REPORT_COLUMNS) for row in rows]
    assert report.to_csv() == "\n".join(expected) + "\n"
    assert ConvergenceReport((), {}).to_csv() == ",".join(REPORT_COLUMNS) + "\n"


def test_run_sweep_control_variant():
    spec = make_lagrangian("quadratic")
    mu0 = lattice_ensemble(36)
    plan = SweepPlan(eps_ladder=(0.2, 0.1, 0.05))
    report = run_sweep(plan, spec, ZERO_G, SMALL, mu0, variant="control")
    assert all(np.isfinite(row["sup_d1_joint"]) for row in report.rows)
    with pytest.raises(InvalidInputError):
        run_sweep(plan, spec, ZERO_G, SMALL, mu0, variant="other")


def test_run_sweep_flags_failed_rung():
    # an eps far below the transport stiffness guard budget still solves, so
    # force failure with a coupled model and a one-iteration budget
    spec = make_lagrangian("quadratic", kappa_c=0.5)
    mu0 = lattice_ensemble(36)
    plan = SweepPlan(eps_ladder=(0.5, 0.2))
    report = run_sweep(
        plan, spec, ZERO_G, SMALL, mu0, variant="classical", max_iter=1
    )
    assert all(not row["converged"] for row in report.rows)
    assert len(report.rows) == 2


@pytest.mark.parametrize("kappa_c", [0.0, 0.5])
def test_run_sweep_reports_transport_failures_as_nan_rows(kappa_c):
    # both particles leave the box in the first time step of every rung
    spec = make_lagrangian("quadratic", kappa_c=kappa_c)
    mu0 = ParticleEnsemble(np.array([2.5, -2.5]), np.array([3.9, -3.9]))
    plan = SweepPlan(eps_ladder=(0.2, 0.1, 0.05))
    report = run_sweep(plan, spec, ZERO_G, SMALL, mu0)
    assert [row["eps"] for row in report.rows] == list(plan.eps_ladder)
    for row in report.rows:
        assert not row["converged"] and row["iters"] == 0
        assert np.isnan(row["sup_u_gap"]) and np.isnan(row["osc_v"])
    assert report.rates == {}


def test_run_sweep_propagates_bad_input(monkeypatch):
    """A velocity-free mu0, or a weighted one in a control sweep, is rejected
    before any solve; a rung's bad input propagates."""
    solves = []

    def stub(name, error=None):
        def solver(*args, **kwargs):
            solves.append(name)
            if error is not None:
                raise error
            return SimpleNamespace()  # a limit that no rung gets far enough to read

        monkeypatch.setattr(analysis, name, solver)

    stub("solve_limit_classical")
    stub("solve_mfg_of_control")
    stub("solve_eps_system", InvalidInputError("bad rung input"))
    spec = make_lagrangian("quadratic")
    plan = SweepPlan(eps_ladder=(0.2, 0.1, 0.05))
    mu0 = ParticleEnsemble(lattice_ensemble(36).positions)
    for variant in ("classical", "control"):
        with pytest.raises(InvalidInputError, match="must carry velocities"):
            run_sweep(plan, spec, ZERO_G, SMALL, mu0, variant=variant)
    lattice = lattice_ensemble(36)
    w = np.linspace(1.0, 2.0, lattice.size)
    weighted = ParticleEnsemble(lattice.positions, lattice.velocities, w / w.sum())
    with pytest.raises(InvalidInputError, match="uniform weights"):
        run_sweep(plan, spec, ZERO_G, SMALL, weighted, variant="control")
    assert solves == []
    with pytest.raises(InvalidInputError, match="bad rung input"):
        run_sweep(plan, spec, ZERO_G, SMALL, lattice_ensemble(36), variant="control")
    assert solves == ["solve_mfg_of_control", "solve_eps_system"]
