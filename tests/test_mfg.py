"""Fixed-point drivers: particle transport, Picard iteration, limit systems."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglab import (
    InvalidInputError,
    MFGLabError,
    PhaseGrid,
    TransportError,
    UnsupportedModelError,
    ValueField,
    gaussian_ensemble,
    lattice_ensemble,
    make_lagrangian,
    make_terminal,
    solve_eps_system,
    solve_limit_classical,
    solve_mfg_of_control,
    transport_eps,
    wasserstein1_joint,
)
from mfglab import hjb
from mfglab.hjb import gradient_x, interp_slice_x, solve_hjb_acceleration
from mfglab.measures import ParticleEnsemble, sup_w1_marginal
from mfglab import mfg
from mfglab.mfg import _MEMORY, _MIXING, _RESTART, _Anderson, free_transport_flow
from mfglab.model import TerminalCost, optimal_velocity_field

from oracles import continuity_residuals, lq_limit_feedback, lq_limit_path

SMALL = PhaseGrid.regular(N_x=41, N_v=31, N_t=51)
ZERO_G = make_terminal("zero")


def _phase_field(values_fn, grid, eps):
    vals = np.empty((grid.t.size, grid.x.size, grid.v.size))
    vals[:] = values_fn(grid.x[:, None], grid.v[None, :])
    return ValueField(vals, grid, eps)


def test_free_transport_when_gradient_vanishes():
    mu0 = ParticleEnsemble(np.array([0.0, 0.5]), np.array([1.0, -0.5]))
    field = _phase_field(lambda x, v: np.ones_like(x + v), SMALL, 0.5)
    flow = transport_eps(mu0, field, 0.5)
    expected = mu0.positions[None, :] + SMALL.t[:, None] * mu0.velocities[None, :]
    assert np.allclose(flow.positions, expected, atol=1e-12)
    assert np.allclose(flow.velocities, mu0.velocities[None, :], atol=1e-12)


def test_transport_exponential_velocity_decay():
    # u = eps v^2 / 2 gives v' = -v, so v(t) = v0 exp(-t)
    grid = PhaseGrid.regular(N_t=1001)
    eps = 1.0
    field = _phase_field(lambda x, v: 0.5 * eps * v**2, grid, eps)
    mu0 = ParticleEnsemble(np.array([0.0]), np.array([0.5]))
    flow = transport_eps(mu0, field, eps)
    exact = 0.5 * np.exp(-grid.t)
    assert np.max(np.abs(flow.velocities[:, 0] - exact)) < 1e-4


def test_transport_mass_conservation_and_validation():
    mu0 = lattice_ensemble(16)
    field = _phase_field(lambda x, v: np.zeros_like(x + v), SMALL, 0.1)
    flow = transport_eps(mu0, field, 0.1)
    assert flow.weights is mu0.weights or np.allclose(flow.weights, mu0.weights)
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="eps must be positive"):
            transport_eps(mu0, field, eps)


def test_transport_takes_d_v_one_slice_at_a_time(monkeypatch):
    """Each step interpolates np.gradient(u, dv, axis=2)[k], bit for bit, without the full field."""
    rng = np.random.default_rng(5)
    field = ValueField(1e-3 * rng.normal(size=(SMALL.t.size, SMALL.x.size, SMALL.v.size)), SMALL, 0.1)
    tracemalloc.start()
    try:
        transport_eps(lattice_ensemble(16), field, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < field.values.nbytes / 4  # the full D_v field alone is field.values.nbytes
    slices = []
    interp = mfg.interp_slice_xv
    monkeypatch.setattr(mfg, "interp_slice_xv", lambda s, *a: slices.append(s) or interp(s, *a))
    transport_eps(lattice_ensemble(16), field, 0.1)  # eps / 4 > dt: one sub-step per step
    full = np.gradient(field.values, SMALL.dv, axis=2)
    assert len(slices) == SMALL.t.size - 1
    for k, dv_slice in enumerate(slices):
        assert np.array_equal(dv_slice, full[k])
    limit = ValueField(field.values[:, :, 0], SMALL, 0.0)
    with pytest.raises(InvalidInputError, match=r"\(t, x, v\) field"):
        transport_eps(lattice_ensemble(16), limit, 0.1)


def test_transport_box_exit_names_particle():
    mu0 = ParticleEnsemble(np.array([0.0, 2.9]), np.array([0.0, 3.9]))
    field = _phase_field(lambda x, v: np.zeros_like(x + v), SMALL, 0.1)
    with pytest.raises(TransportError) as err:
        transport_eps(mu0, field, 0.1)
    assert err.value.particle == 1
    assert err.value.t is not None


def test_nonfinite_particles_fail_the_box_check():
    # a NaN terminal cost makes NaN velocities, which |v| > R_v alone lets through
    g = TerminalCost(
        g=lambda x, m=None: np.where(np.asarray(x) > 0.5, np.nan, 0.0),
        dg=lambda x, m=None: np.zeros_like(np.asarray(x, dtype=float)),
        dgg=lambda x, m=None: np.zeros_like(np.asarray(x, dtype=float)),
    )
    grid = PhaseGrid.regular(N_x=21, N_v=17, N_t=21)
    with pytest.raises(TransportError):
        solve_eps_system(make_lagrangian("quadratic"), g, grid, lattice_ensemble(100), 0.2)
    with pytest.raises(TransportError) as err:
        mfg._check_box(np.array([0.0, np.nan]), None, SMALL, 0.5)
    assert err.value.particle == 1


def test_decoupled_system_single_iteration():
    spec = make_lagrangian("quadratic")
    mu0 = lattice_ensemble(25)
    sol = solve_eps_system(spec, ZERO_G, SMALL, mu0, 0.1)
    assert sol.converged and sol.iterations == 1 and sol.fixed_point_gap == 0.0
    assert sol.kind == "eps_system"


def test_coupled_system_fixed_point_certificate():
    spec = make_lagrangian("quadratic", kappa_c=0.5)
    mu0 = lattice_ensemble(64)
    tol = 1e-3
    sol = solve_eps_system(spec, ZERO_G, SMALL, mu0, 0.1, tol_fp=tol)
    assert sol.converged
    assert sol.fixed_point_gap < tol
    # one extra full iteration moves the flow by < 2 tol
    u2 = solve_hjb_acceleration(SMALL, spec, sol.flow, ZERO_G, 0.1)
    new = transport_eps(mu0, u2, 0.1)
    moved = sup_w1_marginal(new, sol.flow)
    assert moved < 2 * tol
    # re-solving the value problem with the returned flow barely changes u
    assert np.max(np.abs(u2.values - sol.value.values)) < 1e-2


@pytest.mark.parametrize(
    "kappa_c, ensemble, eps",
    [
        pytest.param(0.5, lattice_ensemble, 0.1, id="kappa0.5-lattice"),
        # Anderson mixing is not monotone: this residual rises 0.37 -> 0.64 at iteration 8
        pytest.param(8.0, gaussian_ensemble, 0.05, id="kappa8-gaussian"),
    ],
)
def test_converged_residual_is_below_tol_and_smallest(kappa_c, ensemble, eps):
    spec = make_lagrangian("quadratic", kappa_c=kappa_c)
    sol = solve_eps_system(spec, ZERO_G, SMALL, ensemble(64), eps)
    hist = sol.gap_history
    assert sol.converged and len(hist) > 1
    assert sol.fixed_point_gap == hist[-1] < 1e-3
    assert hist[-1] == min(hist)


def test_strong_coupling_converges():
    # damped Picard (damping 0.5) stalled here at a gap of 0.24 for 60 iterations
    spec = make_lagrangian("quadratic", kappa_c=8.0)
    sol = solve_eps_system(spec, ZERO_G, SMALL, lattice_ensemble(64), 0.05)
    assert sol.converged
    assert sol.fixed_point_gap == sol.gap_history[-1] < 1e-3
    assert sol.iterations <= 15


def _assert_consistent_pair(sol, mu0, eps):
    """The returned flow is the transport of the returned value field."""
    again = transport_eps(mu0, sol.value, eps)
    assert np.array_equal(again.positions, sol.flow.positions)
    assert np.array_equal(again.velocities, sol.flow.velocities)


def test_best_iterate_on_non_convergence():
    spec = make_lagrangian("quadratic", kappa_c=8.0)
    mu0 = lattice_ensemble(64)
    sol = solve_eps_system(spec, ZERO_G, SMALL, mu0, 0.05, max_iter=2)
    assert not sol.converged and sol.iterations == 2 and len(sol.gap_history) == 2
    assert sol.fixed_point_gap == min(sol.gap_history)
    _assert_consistent_pair(sol, mu0, 0.05)

    # a run whose residual rises at its last iteration returns an earlier pair
    mu0 = gaussian_ensemble(64)
    late = solve_eps_system(spec, ZERO_G, SMALL, mu0, 0.05, max_iter=8)
    hist = late.gap_history
    best = int(np.argmin(hist))
    assert not late.converged and best < 7
    early = solve_eps_system(spec, ZERO_G, SMALL, mu0, 0.05, max_iter=best + 1)
    assert late.fixed_point_gap == hist[best] == early.fixed_point_gap
    assert np.array_equal(late.value.values, early.value.values)
    _assert_consistent_pair(late, mu0, 0.05)


@settings(max_examples=8, deadline=None, database=None)
@given(
    kappa_c=st.floats(0.0, 8.0),
    name=st.sampled_from(["quadratic", "cosine", "quartic"]),
    ensemble=st.sampled_from([lattice_ensemble, gaussian_ensemble]),
    eps=st.sampled_from([0.05, 0.1]),
)
def test_coupled_solve_converges_or_raises_typed_error(kappa_c, name, ensemble, eps):
    mu0 = ensemble(64)
    try:
        sol = solve_eps_system(make_lagrangian(name, kappa_c=kappa_c), ZERO_G, SMALL, mu0, eps)
    except MFGLabError:
        return
    assert sol.converged and sol.fixed_point_gap < 1e-3
    assert np.all(np.isfinite(sol.value.values))
    assert np.all(np.isfinite(sol.flow.positions)) and np.all(np.isfinite(sol.flow.velocities))


def test_limit_classical_decoupled_riccati_path():
    spec = make_lagrangian("quadratic", kappa_pot=1.0)
    grid = PhaseGrid(
        x=np.linspace(-3.0, 3.0, 301),
        v=np.linspace(-2.5, 2.5, 251),
        t=np.linspace(0.0, 1.0, 201),
    )
    mu0 = ParticleEnsemble(np.array([1.0, -0.5]), np.array([0.0, 0.0]))
    sol = solve_limit_classical(spec, ZERO_G, grid, mu0)
    assert sol.converged and sol.iterations == 1
    exact = lq_limit_path(1.0, 1.0, grid.t, 1.0)
    err = np.max(np.abs(sol.flow.positions[:, 0] - exact))
    assert err < 0.01 * np.max(np.abs(exact))


def test_limit_classical_continuity_residuals():
    spec = make_lagrangian("quadratic")
    grid = PhaseGrid.regular(N_x=201)
    mu0 = lattice_ensemble(400)
    sol = solve_limit_classical(spec, ZERO_G, grid, mu0)
    b = -np.gradient(sol.value.values, grid.dx, axis=1)  # quadratic kinetic term: b = -D_x u
    flow = sol.flow
    res = continuity_residuals(flow.times, flow.positions, flow.weights, grid.x, b)
    assert res.shape == (5,)
    assert np.all(res < 1e-2)


def test_mfg_of_control_trivial_model():
    spec = make_lagrangian("quadratic", kappa_pot=0.0)
    mu0 = lattice_ensemble(25)
    sol = solve_mfg_of_control(spec, ZERO_G, SMALL, mu0)
    assert sol.converged
    assert np.allclose(sol.value.values, 0.0, atol=1e-13)
    assert np.allclose(sol.flow.positions, mu0.positions[None, :], atol=1e-12)
    assert np.allclose(sol.flow.velocities[0], mu0.velocities, atol=0.0)
    assert np.allclose(sol.flow.velocities[1:], 0.0, atol=1e-12)


def test_mfg_of_control_riccati_feedback():
    spec = make_lagrangian("quadratic", kappa_pot=1.0)
    grid = PhaseGrid(
        x=np.linspace(-3.0, 3.0, 301),
        v=np.linspace(-2.5, 2.5, 251),
        t=np.linspace(0.0, 1.0, 201),
    )
    mu0 = ParticleEnsemble(np.array([1.0, -0.8]), np.array([0.3, 0.0]))
    sol = solve_mfg_of_control(spec, ZERO_G, grid, mu0)
    fb = lq_limit_feedback(1.0, 1.0, grid.t[:, None], sol.flow.positions)
    err = np.max(np.abs(sol.flow.velocities[1:] - fb[1:]))
    assert err < 0.01


def test_mfg_of_control_reconstruction_consistency():
    spec = make_lagrangian("quadratic")
    mu0 = lattice_ensemble(36)
    sol = solve_mfg_of_control(spec, ZERO_G, SMALL, mu0)
    # attach the feedback velocity to the transported marginal by hand
    for k in (SMALL.t.size // 2, SMALL.t.size - 1):
        rebuilt = ParticleEnsemble(
            sol.flow.positions[k], sol.flow.velocities[k], sol.flow.weights
        )
        assert float(wasserstein1_joint(sol.flow.ensemble(k), rebuilt)) == 0.0


@pytest.mark.parametrize("kappa_c", [0.5, 2.0])
def test_mfg_of_control_is_classical_limit_plus_feedback(kappa_c, monkeypatch):
    """The control limit reuses the classical fixed point and attaches b(t, x) to
    its positions, with one transport per Picard iteration and none after."""
    spec = make_lagrangian("quadratic", kappa_c=kappa_c)
    mu0 = lattice_ensemble(36)
    classical = solve_limit_classical(spec, ZERO_G, SMALL, mu0)
    assert classical.flow.velocities is None
    transports = []
    transport = mfg.transport_along_velocity
    monkeypatch.setattr(mfg, "transport_along_velocity", lambda *a: transports.append(a) or transport(*a))
    sol = solve_mfg_of_control(spec, ZERO_G, SMALL, mu0)
    assert classical.iterations > 1  # coupled: the classical Picard loop ran
    assert classical.converged and len(transports) == classical.iterations
    assert sol.kind == "mfg_of_control"
    assert (sol.iterations, sol.converged) == (classical.iterations, classical.converged)
    assert sol.fixed_point_gap == classical.fixed_point_gap
    assert sol.gap_history == classical.gap_history
    assert np.array_equal(sol.value.values, classical.value.values)
    assert np.array_equal(sol.flow.positions, classical.flow.positions)
    assert np.array_equal(sol.flow.velocities[0], mu0.velocities)
    b = optimal_velocity_field(spec, gradient_x(classical.value))
    feedback = [interp_slice_x(b[k], SMALL, sol.flow.positions[k]) for k in range(SMALL.t.size)]
    assert np.array_equal(sol.flow.velocities[1:], np.stack(feedback)[1:])


def test_mfg_of_control_rejects_nonquadratic():
    spec = make_lagrangian("quartic")
    with pytest.raises(UnsupportedModelError):
        solve_mfg_of_control(spec, ZERO_G, SMALL, lattice_ensemble(9))


@pytest.mark.parametrize("kappa_c", [0.0, 0.5])
def test_mfg_of_control_requires_velocities(kappa_c):
    spec = make_lagrangian("quadratic", kappa_c=kappa_c)
    with pytest.raises(InvalidInputError, match="must carry velocities"):
        solve_mfg_of_control(spec, ZERO_G, SMALL, ParticleEnsemble(np.array([0.0, 0.5])))


@pytest.mark.parametrize("kappa_c", [0.0, 0.5])
def test_eps_system_requires_velocities(kappa_c, monkeypatch):
    def no_hjb(*args, **kwargs):
        raise AssertionError("the HJB solve ran on a velocity-free ensemble")

    monkeypatch.setattr("mfglab.mfg.solve_hjb_acceleration", no_hjb)
    spec = make_lagrangian("quadratic", kappa_c=kappa_c)
    mu0 = ParticleEnsemble(lattice_ensemble(64).positions)
    with pytest.raises(InvalidInputError, match="must carry velocities"):
        solve_eps_system(spec, ZERO_G, SMALL, mu0, 0.1)


@pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, np.inf])
def test_solve_eps_system_rejects_eps_outside_positive_reals(eps):
    spec = make_lagrangian("quadratic")
    with pytest.raises(InvalidInputError, match="eps must be positive and finite"):
        solve_eps_system(spec, ZERO_G, SMALL, lattice_ensemble(16), eps)


def _einsum_dot(a, b):
    return np.einsum("i,i->", a, b)


class _RingAnderson:
    """Reference: the Anderson mixer with its history in float32 ring buffers,
    row `head` holding the pending pair, and its products taken by einsum."""

    def __init__(self):
        self.dx = self.dr = None
        self.size = 0  # complete difference pairs
        self.head = 0
        self.pending = False
        self.best = np.inf

    def step(self, x, r):
        if self.dx is None:
            self.dx = np.empty((_MEMORY, r.size), dtype=np.float32)
            self.dr = np.empty((_MEMORY, r.size), dtype=np.float32)
        norm = float(np.sqrt(_einsum_dot(r, r)))
        if norm > _RESTART * self.best:
            self.size = 0
        elif self.pending:
            np.subtract(r, self.dr[self.head], out=self.dr[self.head], casting="same_kind")
            self.head = (self.head + 1) % _MEMORY
            self.size = min(self.size + 1, _MEMORY)
        self.best = min(self.best, norm)
        dx = _MIXING * r
        if self.size:
            rows = [(self.head - 1 - i) % _MEMORY for i in range(self.size)]
            gram = np.empty((self.size, self.size))
            rhs = np.empty(self.size)
            for i, ri in enumerate(rows):
                dri = self.dr[ri].astype(np.float64)
                rhs[i] = _einsum_dot(dri, r)
                for j, rj in enumerate(rows[: i + 1]):
                    gram[i, j] = gram[j, i] = _einsum_dot(dri, self.dr[rj].astype(np.float64))
            gamma = np.linalg.lstsq(gram, rhs, rcond=None)[0]
            for ri, c in zip(rows, gamma):
                dx -= c * self.dx[ri]
                dx -= (_MIXING * c) * self.dr[ri]
        self.dx[self.head] = dx
        self.dr[self.head] = r
        self.pending = True
        return x + dx


@pytest.mark.parametrize("seed", range(20))
def test_anderson_matches_ring_reference_through_restarts(seed):
    """Residuals of a noisy contraction whose norm jumps every 13 steps, so the
    history fills, drops its oldest pairs and is cleared by restarts."""
    rng = np.random.default_rng(seed)
    n = 50
    A = 0.6 * rng.normal(size=(n, n)) / np.sqrt(n)
    b = rng.normal(size=n)
    mixer, ring = _Anderson(), _RingAnderson()
    x = rng.normal(size=n)
    restarts = full = 0
    for k in range(40):
        r = A @ x + b - x + 1e-3 * rng.normal(size=n)
        if k % 13 == 12:
            r *= 10.0  # above _RESTART times the best residual
        held = len(mixer.dr)
        nxt = mixer.step(x, r)
        assert np.array_equal(nxt, ring.step(x, r))
        restarts += held > 0 and len(mixer.dr) == 0
        assert len(mixer.dr) == ring.size
        full += len(mixer.dr) == _MEMORY
        x = nxt
    assert restarts > 0 and full > 1


@pytest.mark.parametrize("driver", [solve_eps_system, solve_limit_classical])
def test_coupled_solve_equals_ring_reference(driver, monkeypatch):
    """More Picard iterations than the history holds, bit for bit."""
    spec = make_lagrangian("quadratic", kappa_c=8.0)
    args = (spec, ZERO_G, SMALL, gaussian_ensemble(64))
    args += (0.05,) if driver is solve_eps_system else ()
    sol = driver(*args, max_iter=9)
    monkeypatch.setattr(mfg, "_Anderson", _RingAnderson)
    ref = driver(*args, max_iter=9)
    assert sol.iterations == ref.iterations > _MEMORY + 1
    assert sol.gap_history == ref.gap_history
    assert np.array_equal(sol.value.values, ref.value.values)
    assert np.array_equal(sol.flow.positions, ref.flow.positions)
    assert np.array_equal(sol.flow.velocities, ref.flow.velocities)


def test_coupled_rung_builds_one_operator_bit_for_bit(monkeypatch):
    """A coupled rung builds its control blocks once and reuses them at every
    iteration, with the values of a solve that rebuilds them each time."""
    spec = make_lagrangian("quadratic", kappa_c=8.0)
    args = (spec, ZERO_G, SMALL, gaussian_ensemble(64), 0.05)
    built = []
    build_block = hjb._acceleration_block
    monkeypatch.setattr(hjb, "_acceleration_block", lambda *a: built.append(a) or build_block(*a))
    sol = solve_eps_system(*args, max_iter=6)
    n_blocks = len(built)
    monkeypatch.setattr(mfg, "acceleration_operator", lambda *a: None)  # each solve builds its own
    ref = solve_eps_system(*args, max_iter=6)
    assert sol.iterations == ref.iterations == 6
    # six solves and the re-solve of the best flow, after the one build of the first run
    assert len(built) == 8 * n_blocks
    assert sol.gap_history == ref.gap_history
    assert np.array_equal(sol.value.values, ref.value.values)
    assert np.array_equal(sol.flow.positions, ref.flow.positions)
    assert np.array_equal(sol.flow.velocities, ref.flow.velocities)


_BLAS_CHILD = """
import hashlib
import numpy as np
import mfglab
grid = mfglab.PhaseGrid.regular(N_x=21, N_v=17, N_t=41)
spec = mfglab.make_lagrangian("quadratic", kappa_c=0.5)
mu0 = mfglab.gaussian_ensemble(300, seed=1)  # n_t * n = 12,300: OpenBLAS threads its dot products
sol = mfglab.solve_eps_system(spec, mfglab.make_terminal("zero"), grid, mu0, 0.05)
assert sol.iterations > 1
flow = sol.flow
digest = hashlib.sha256(flow.positions.tobytes() + flow.velocities.tobytes())
digest.update(np.array(sol.gap_history).tobytes())
print(digest.hexdigest())
"""


def test_coupled_solve_does_not_depend_on_blas_threads():
    """Bit-identical flows and residual history with one and two BLAS threads."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["MKL_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", _BLAS_CHILD], env=env, capture_output=True, text=True, timeout=300
        )
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("max_iter", [0, -1])
def test_picard_rejects_empty_iteration_budget(max_iter):
    spec = make_lagrangian("quadratic", kappa_c=0.5)
    mu0 = lattice_ensemble(16)
    with pytest.raises(InvalidInputError, match="max_iter must be at least 1"):
        solve_eps_system(spec, ZERO_G, SMALL, mu0, 0.1, max_iter=max_iter)
    with pytest.raises(InvalidInputError, match="max_iter must be at least 1"):
        solve_limit_classical(spec, ZERO_G, SMALL, mu0, max_iter=max_iter)


def test_free_transport_flow_requires_velocities():
    with pytest.raises(InvalidInputError):
        free_transport_flow(ParticleEnsemble(np.array([0.0])), SMALL)


def test_coupled_rung_iterates_on_position_flows(monkeypatch):
    """Every flow a coupled rung's HJB solves read is positions only: the first
    iterate, the mixed ones and the best one solved again. The returned flow is
    the joint transport of the returned value field."""
    spec = make_lagrangian("quadratic", kappa_c=8.0)
    mu0 = lattice_ensemble(64)
    flows = []
    solve = mfg.solve_hjb_acceleration
    monkeypatch.setattr(
        mfg, "solve_hjb_acceleration", lambda g, s, m, *a, **k: flows.append(m) or solve(g, s, m, *a, **k)
    )
    sol = solve_eps_system(spec, ZERO_G, SMALL, mu0, 0.05, max_iter=2)
    assert not sol.converged and len(flows) == 3
    assert all(flow.velocities is None for flow in flows)
    _assert_consistent_pair(sol, mu0, 0.05)


def test_compact_support_propagation():
    spec = make_lagrangian("quadratic")
    mu0 = lattice_ensemble(100)
    sol = solve_eps_system(spec, ZERO_G, SMALL, mu0, 0.05)
    assert np.max(np.abs(sol.flow.positions)) <= SMALL.R_x
    assert np.max(np.abs(sol.flow.velocities)) <= SMALL.R_v
