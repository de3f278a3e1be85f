"""Rate fitting, estimate audits, comparisons, and the sweep harness."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mfglab import (
    InvalidInputError,
    PhaseGrid,
    SweepPlan,
    ValueField,
    audit_estimates,
    compare_joint_reconstruction,
    continuity_residuals,
    fit_rate,
    lattice_ensemble,
    make_lagrangian,
    make_terminal,
    run_sweep,
    solve_eps_system,
    solve_mfg_of_control,
    sup_marginal_gap,
    sup_value_gap,
    velocity_oscillation,
)
from mfglab import analysis
from mfglab.analysis import REPORT_COLUMNS, energy_constant, holder_constant
from mfglab.measures import MeasureFlow, ParticleEnsemble, wasserstein1_joint

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


def test_sweep_plan_validation():
    with pytest.raises(InvalidInputError):
        SweepPlan(eps_ladder=())
    with pytest.raises(InvalidInputError):
        SweepPlan(eps_ladder=(0.1, 0.2))


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


def test_continuity_residuals_rejects_phase_solution():
    spec = make_lagrangian("quadratic")
    sol = solve_eps_system(spec, ZERO_G, SMALL, lattice_ensemble(16), 0.1)
    with pytest.raises(InvalidInputError):
        continuity_residuals(sol, spec)


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


@pytest.mark.parametrize("n_cpus", [1, 4, 8])  # 8 > 5 probes: capped at one per probe
@pytest.mark.parametrize("n_exact", [2000, 10])  # 10 < 49 particles: sliced fallback
def test_compare_joint_reconstruction_equals_sequential_probes(
    monkeypatch, joint_pair, n_exact, n_cpus
):
    """Concurrent probes give the sequential per-probe results, whatever the worker count."""
    fa, fb = joint_pair[0].flow, joint_pair[1].flow
    fractions = (0.0, 0.25, 0.5, 0.75, 1.0)
    expected = []
    for frac in fractions:
        ka, kb = fa.index_at(frac * fa.times[-1]), fb.index_at(frac * fa.times[-1])
        res = wasserstein1_joint(fa.ensemble(ka), fb.ensemble(kb), n_exact=n_exact)
        expected.append((float(fa.times[ka]), res))
    assert all(res.exact == (n_exact == 2000) for _, res in expected)

    workers = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(analysis, "_n_cpus", lambda: n_cpus)
    monkeypatch.setattr(analysis, "ThreadPoolExecutor", RecordingPool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the worker threads as finely as possible
    try:
        got = compare_joint_reconstruction(*joint_pair, fractions, n_exact=n_exact)
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert workers == [min(len(fractions), n_cpus)]


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


def test_run_sweep_propagates_bad_input():
    spec = make_lagrangian("quadratic", kappa_c=0.5)
    mu0 = ParticleEnsemble(lattice_ensemble(36).positions)
    plan = SweepPlan(eps_ladder=(0.2, 0.1, 0.05))
    with pytest.raises(InvalidInputError, match="must carry velocities"):
        run_sweep(plan, spec, ZERO_G, SMALL, mu0)
