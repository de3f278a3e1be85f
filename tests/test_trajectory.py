"""Curve costs, direct minimization, the fourth-order BVP, and connecting curves."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from mfglab import (
    Curve,
    InvalidInputError,
    NumericalError,
    UnsupportedModelError,
    accel_energy,
    connecting_curve,
    el_residual,
    energy,
    eval_cost,
    make_lagrangian,
    make_terminal,
    minimize_direct,
    solve_el_bvp,
)
from mfglab.analysis import energy_constant
from mfglab.measures import MeasureFlow
from mfglab.model import LagrangianSpec, TerminalCost
from mfglab.trajectory import _Functional, _stencils
from oracles import harmonic_minimizer

ZERO_G = make_terminal("zero")
KINETIC_ONLY = make_lagrangian("quadratic", kappa_pot=0.0)
QUADRATIC = make_lagrangian("quadratic")


def test_curve_validation():
    with pytest.raises(InvalidInputError):
        Curve(np.array([0.0, 1.0]), np.array([0.0, 1.0]))  # too short
    with pytest.raises(InvalidInputError):
        Curve(np.array([0.0, 0.5, 2.0]), np.zeros(3))  # nonuniform


@pytest.mark.parametrize(
    "t",
    [
        [1.0, 0.5, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 1e-9, 0.0],  # within np.allclose's tolerance of uniform steps
        [-np.inf, 0.0, np.inf],
        [0.0, np.inf, np.inf],
    ],
)
def test_curve_times_must_be_finite_and_strictly_increasing(t):
    with pytest.raises(InvalidInputError, match="strictly increasing"):
        Curve(np.array(t), np.array([0.0, 1.0, 2.0]))


def _dense(bands):
    """The symmetric matrix whose diagonals 0, 1 and 2 are `bands`."""
    H = np.diag(bands[0])
    for d in (1, 2):
        H += np.diag(bands[d], d) + np.diag(bands[d], -d)
    return H


def _csr_d1(n, h):
    """The first derivative as the CSR matrix the stencils replaced."""
    lower, main, upper = np.full(n - 1, -0.5 / h), np.zeros(n), np.full(n - 1, 0.5 / h)
    main[0], upper[0] = -1.0 / h, 1.0 / h
    lower[-1], main[-1] = -1.0 / h, 1.0 / h
    return sp.diags([lower, main, upper], [-1, 0, 1], format="csr")


def _csr_d2(n, h):
    """The second difference as the CSR matrix the stencils replaced."""
    inner = sp.diags(np.array([1.0, -2.0, 1.0]) / h**2, [0, 1, 2], shape=(n - 2, n), format="csr")
    return sp.vstack([inner[:1], inner, inner[-1:]], format="csr")


def _csr_hess_diagonals(F, x):
    """Diagonals 0, 1 and 2 of the Hessian as sparse triple products, as
    `_Functional.hess` computed it before its stencil bands."""
    M = x.size
    D1, D2 = _csr_d1(M, F.h), _csr_d2(M, F.h)
    kdd = F.spec.kinetic_dd(D1 @ x)
    curv = F.spec.potential_dd(x) + F._coupling(x, 2)
    H = F.h * (D1.T @ sp.diags(F.w * kdd) @ D1 + sp.diags(F.w * curv))
    if F.eps > 0:
        H = H + F.h * F.eps * (D2.T @ sp.diags(F.w) @ D2)
    dgg = float(F.g.dgg(x[-1], F.m_T))
    H = H + sp.csr_matrix(([dgg], ([M - 1], [M - 1])), shape=(M, M))
    return [H.diagonal(d) for d in range(3)]


@pytest.mark.parametrize("M", [3, 4, 41, 401])
def test_stencils_equal_the_csr_products(M):
    """D @ x, D.T @ y and the Hessian's diagonals from the stencils equal the
    CSR products they replaced, bit for bit."""
    rng = np.random.default_rng(M)
    h = 1.0 / (M - 1)
    for stencil, csr in zip(_stencils(M, h), (_csr_d1(M, h), _csr_d2(M, h))):
        x, y = rng.normal(size=M), rng.normal(size=M)
        assert np.array_equal(stencil @ x, csr @ x)
        assert np.array_equal(stencil.rmatvec(y), csr.T @ y)
    t = np.linspace(0.0, 1.0, M)
    g = make_terminal("atan", amplitude=1.5)
    for model in ("quadratic", "quartic", "cosine"):
        for eps in (0.0, 0.05):
            F = _Functional(t, eps, make_lagrangian(model, kappa_c=0.5), _drifting_flow(0.5), g)
            x = rng.normal(size=M)
            for band, ref in zip(F.hess(x), _csr_hess_diagonals(F, x), strict=True):
                assert np.array_equal(band, ref)


def test_eval_cost_constant_and_linear():
    t = np.linspace(0.0, 1.0, 101)
    assert eval_cost(Curve(t, np.full(101, 0.7)), 0.1, KINETIC_ONLY, None, ZERO_G) == 0.0
    v = 1.3
    cost = eval_cost(Curve(t, v * t), 0.0, KINETIC_ONLY, None, ZERO_G)
    assert cost == pytest.approx(0.5 * v**2, abs=1e-12)


def test_eval_cost_cubic_closed_form():
    # gamma = t^3 - 1.5 t^2: integral of eps/2 (6t-3)^2 + (3t^2-3t)^2 / 2 is 0.3
    t = np.linspace(0.0, 1.0, 2001)
    gamma = t**3 - 1.5 * t**2
    cost = eval_cost(Curve(t, gamma), 0.1, KINETIC_ONLY, None, ZERO_G)
    assert cost == pytest.approx(0.3, abs=1e-6)


def test_minimize_direct_zero_velocity_stays_put():
    res = minimize_direct(0.1, 0.8, 0.0, KINETIC_ONLY, None, ZERO_G, M=201, T=1.0)
    assert res.converged
    assert res.cost < 1e-12
    assert np.max(np.abs(res.curve.x - 0.8)) < 1e-9


def test_minimize_direct_eps0_matches_riccati():
    spec = make_lagrangian("quadratic", kappa_pot=1.0)
    for x in (0.5, 1.0, -1.5):
        res = minimize_direct(0.0, x, 0.0, spec, None, ZERO_G, M=401, T=1.0)
        oracle = 0.5 * np.tanh(1.0) * x**2
        assert res.converged
        assert abs(res.cost - oracle) < 0.01 * abs(oracle)


def test_minimize_direct_rejects_negative_eps():
    with pytest.raises(InvalidInputError):
        minimize_direct(-0.1, 0.0, 0.0, QUADRATIC, None, ZERO_G)
    with pytest.raises(InvalidInputError):
        minimize_direct(0.1, 0.0, 0.0, QUADRATIC, None, ZERO_G, M=2)
    with pytest.raises(InvalidInputError):
        minimize_direct(0.1, 0.0, 0.0, QUADRATIC, None, ZERO_G, T=0.0)


def test_cross_validation_against_bvp():
    res = minimize_direct(0.05, 1.0, 0.5, QUADRATIC, None, ZERO_G, M=401, T=1.0)
    bvp = solve_el_bvp(0.05, 1.0, 0.5, QUADRATIC, None, ZERO_G, M=401, T=1.0)
    assert res.converged and bvp.converged
    assert abs(res.cost - eval_cost(bvp.curve, 0.05, QUADRATIC, None, ZERO_G)) < 1e-6


def test_harmonic_closed_form_oracle():
    # the oracle's own checks: the equation, the four conditions, and its cost by quadrature
    eps, kappa, x, v = 0.05, 0.5, 1.0, 0.5
    gamma, cost = harmonic_minimizer(eps, kappa, 1.0, x, v)
    t = np.linspace(0.0, 1.0, 200001)
    assert np.max(np.abs(eps * gamma(t, 4) - gamma(t, 2) + kappa * gamma(t))) < 1e-9
    assert gamma(0.0) == pytest.approx(x, abs=1e-14)
    assert gamma(0.0, 1) == pytest.approx(v, abs=1e-14)
    assert abs(gamma(1.0, 2)) < 1e-12
    assert abs(eps * gamma(1.0, 3) - gamma(1.0, 1)) < 1e-12
    integrand = 0.5 * (eps * gamma(t, 2) ** 2 + gamma(t, 1) ** 2 + kappa * gamma(t) ** 2)
    assert np.trapezoid(integrand, t) == pytest.approx(cost, abs=1e-9)


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("x,v", [(1.0, 0.5), (-0.7, 1.2)])
def test_minimize_direct_first_order_to_harmonic_closed_form(eps, x, v):
    kappa = 0.5
    gamma, cost = harmonic_minimizer(eps, kappa, 1.0, x, v)
    spec = make_lagrangian("quadratic", kappa_pot=kappa)
    cost_err, curve_err = [], []
    for M in (101, 201, 401):
        res = minimize_direct(eps, x, v, spec, None, ZERO_G, M=M, T=1.0)
        assert res.converged
        cost_err.append(abs(res.cost - cost))
        curve_err.append(np.max(np.abs(res.curve.x - gamma(res.curve.t))))
    # halving h halves both errors: first order, from the one-sided end stencils
    for err in (cost_err, curve_err):
        orders = np.log2(np.array(err[:-1]) / np.array(err[1:]))
        assert np.all((orders > 0.9) & (orders < 1.1)), orders


# One cosine case (kappa_pot 5, M = 401) per safeguard of the Newton descent, with
# the cost that the earlier L-BFGS minimizer reached there.
@pytest.mark.parametrize(
    "terminal,eps,x,v,earlier_cost",
    [
        # a shift started at 1e-8 max|diag| instead of near rounding overshoots and crawls
        ("atan", 0.1, 0.7, -0.4, 9.101864622221004),
        # an Armijo test written as a sum lets equal-cost steps pass: the iterates oscillate
        ("atan", 0.1, 2.5, 0.0, 1.9089254915576395),
        # the Armijo test alone rejects every step once the decrease is below rounding
        ("zero", 0.1, 1.0, 0.5, 5.756506684523172),
    ],
)
def test_descent_safeguards_reach_a_minimizer(terminal, eps, x, v, earlier_cost):
    spec, g = make_lagrangian("cosine", kappa_pot=5.0), make_terminal(terminal)
    res = minimize_direct(eps, x, v, spec, None, g, M=401, T=1.0)
    bvp = solve_el_bvp(eps, x, v, spec, None, g, M=401, T=1.0)
    assert res.converged and bvp.converged
    assert res.cost <= earlier_cost + 1e-10
    # the free-sample Hessian factors unshifted: a minimizer, not a saddle
    H = _dense(_Functional(res.curve.t, eps, spec, None, g).hess(res.curve.x))
    np.linalg.cholesky(H[2:, 2:])


def test_hilltop_start_is_a_saddle_not_a_minimizer():
    # the cosine hilltop x = 0 has zero gradient and an indefinite Hessian; a start
    # just beside it descends to a lower cost
    spec = make_lagrangian("cosine", kappa_pot=5.0)
    for eps in (0.0, 0.01):
        top = minimize_direct(eps, 0.0, 0.0, spec, None, ZERO_G, M=401, T=1.0)
        assert top.n_iter == 0 and top.grad_norm == 0.0 and top.cost == 10.0
        assert not top.converged
        beside = minimize_direct(eps, 1e-3, 0.0, spec, None, ZERO_G, M=401, T=1.0)
        assert beside.converged and beside.cost < 9.3
    bvp = solve_el_bvp(0.01, 0.0, 0.0, spec, None, ZERO_G, M=401, T=1.0)
    assert bvp.residual_norm == 0.0 and not bvp.converged


@pytest.mark.parametrize("model,terminal", [("quadratic", "atan"), ("cosine", "zero")])
def test_direct_and_bvp_share_one_descent(model, terminal):
    spec, g = make_lagrangian(model, kappa_pot=5.0), make_terminal(terminal)
    direct = minimize_direct(0.05, 0.7, -0.4, spec, None, g, M=401, T=1.0)
    bvp = solve_el_bvp(0.05, 0.7, -0.4, spec, None, g, M=401, T=1.0)
    assert np.array_equal(direct.curve.x, bvp.curve.x)
    assert direct.n_iter == len(bvp.residual_history) - 1 > 0


def test_bvp_constant_solution():
    bvp = solve_el_bvp(0.1, 0.4, 0.0, KINETIC_ONLY, None, ZERO_G, M=201, T=1.0)
    assert bvp.converged
    assert np.max(np.abs(bvp.curve.x - 0.4)) < 1e-12
    assert all(r < 1e-10 for r in bvp.boundary_residuals)


def test_bvp_constant_forcing_linear_terminal():
    # D_x L0 = c and linear g give a polynomial solution; the Newton step is exact
    c, beta = 0.7, -0.3
    spec = LagrangianSpec(
        kinetic=lambda v: 0.5 * np.asarray(v, dtype=float) ** 2,
        kinetic_d=lambda v: np.asarray(v, dtype=float),
        kinetic_dd=lambda v: np.ones_like(np.asarray(v, dtype=float)),
        potential=lambda x: c * np.asarray(x, dtype=float),
        potential_d=lambda x: np.full_like(np.asarray(x, dtype=float), c),
        potential_dd=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        kinetic_name="quadratic",
    )
    g = TerminalCost(
        g=lambda x, m=None: beta * np.asarray(x, dtype=float),
        dg=lambda x, m=None: np.full_like(np.asarray(x, dtype=float), beta),
        dgg=lambda x, m=None: np.zeros_like(np.asarray(x, dtype=float)),
        dg_bound=abs(beta),
    )
    bvp = solve_el_bvp(0.05, 0.2, 0.1, spec, None, g, M=401, T=1.0)
    assert bvp.converged
    # a single exact Newton step lands on the rounding floor of the assembly
    assert len(bvp.residual_history) == 2
    assert bvp.residual_norm < 1e-5
    direct = minimize_direct(0.05, 0.2, 0.1, spec, None, g, M=401, T=1.0)
    assert abs(direct.cost - eval_cost(bvp.curve, 0.05, spec, None, g)) < 1e-8


def test_el_residual_of_direct_minimizer():
    res = minimize_direct(0.1, 0.5, -0.5, QUADRATIC, None, ZERO_G, M=201, T=1.0)
    assert res.converged
    r = el_residual(res.curve, 0.1, QUADRATIC, None, ZERO_G)
    assert np.max(np.abs(r)) < 10 * 1e-4


def _drifting_flow(kappa_c):
    if kappa_c == 0:
        return None
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, 6)
    positions = rng.normal(size=(1, 40)) * 0.5 + 0.4 * times[:, None]
    return MeasureFlow(times, positions, None, np.full(40, 1.0 / 40))


@pytest.mark.parametrize(
    "model,terminal,kappa_c",
    [(m, g, 0.0) for m in ("quadratic", "quartic", "cosine") for g in ("zero", "atan")]
    + [("quadratic", "atan", 0.5)],
)
def test_el_residual_matches_cost_gradient(model, terminal, kappa_c):
    # h * el_residual is the gradient of eval_cost in every sample past the fixed two
    spec = make_lagrangian(model, kappa_c=kappa_c)
    g = make_terminal(terminal, amplitude=1.5)
    flow = _drifting_flow(kappa_c)
    eps, delta = 0.05, 1e-6
    t = np.linspace(0.0, 1.0, 41)
    x = 0.3 + 0.8 * np.sin(2.0 * t) - 0.4 * t**2  # smooth, not a minimizer
    gamma = Curve(t, x)
    grad = gamma.h * el_residual(gamma, eps, spec, flow, g)
    fd = np.empty(t.size - 2)
    for i in range(2, t.size):
        bump = np.zeros_like(x)
        bump[i] = delta
        up = eval_cost(Curve(t, x + bump), eps, spec, flow, g)
        down = eval_cost(Curve(t, x - bump), eps, spec, flow, g)
        fd[i - 2] = (up - down) / (2.0 * delta)
    assert np.max(np.abs(grad)) > 1.0
    assert np.max(np.abs(grad - fd)) < 1e-7


@pytest.mark.parametrize("model", ["quadratic", "quartic", "cosine"])
def test_coupled_hessian_matches_gradient_differences(model):
    # the coupling's second x-derivative enters the Hessian sample by sample
    g = make_terminal("atan", amplitude=1.5)
    t = np.linspace(0.0, 1.0, 41)
    F = _Functional(t, 0.05, make_lagrangian(model, kappa_c=0.5), _drifting_flow(0.5), g)
    x = 0.3 + 0.8 * np.sin(2.0 * t) - 0.4 * t**2
    delta = 1e-6
    fd = np.empty((t.size, t.size))
    for i in range(t.size):
        bump = np.zeros_like(x)
        bump[i] = delta
        fd[:, i] = (F.grad(x + bump) - F.grad(x - bump)) / (2.0 * delta)
    H = _dense(F.hess(x))
    uncoupled = _dense(_Functional(t, 0.05, make_lagrangian(model), None, g).hess(x))
    assert np.max(np.abs(H - uncoupled)) > 1e-2  # the coupling term is resolved
    assert np.max(np.abs(H - fd)) < 1e-5


def test_connecting_curve_coefficients():
    sigma = connecting_curve(0.0, 1.0, 0.0, 0.04, M=401)
    # B = -10, A = 25: both endpoint identities hold analytically
    assert sigma.t[-1] == pytest.approx(0.2)
    assert sigma.x[0] == 0.0
    assert abs(sigma.x[-1]) < 1e-14
    mid = sigma.x[200]  # t = 0.1: 0.1 - 10 * 0.01 + 25 * 0.001
    assert mid == pytest.approx(0.025, abs=1e-14)


def test_connecting_curve_trivial_and_validation():
    sigma = connecting_curve(1.2, 0.0, 0.0, 0.01)
    assert np.allclose(sigma.x, 1.2, atol=0.0)
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="eps must be positive"):
            connecting_curve(0.0, 1.0, 0.0, eps)


@pytest.mark.parametrize(
    "eps, x, v, message",
    [
        (np.nan, 0.0, 0.0, "eps must be nonnegative and finite"),
        (np.inf, 0.0, 0.0, "eps must be nonnegative and finite"),
        (0.1, np.nan, 0.0, "start point"),
        (0.0, -np.inf, 0.0, "start point"),
        (0.1, 0.0, np.nan, "start point"),
    ],
)
def test_direct_rejects_non_finite_input(eps, x, v, message):
    with pytest.raises(InvalidInputError, match=message):
        minimize_direct(eps, x, v, QUADRATIC, None, ZERO_G)


def test_direct_raises_numerical_error_on_a_non_finite_hessian():
    """A custom potential whose curvature is NaN off |x| <= 0.5 gives a
    non-finite Hessian on the first curve, which the descent reports as a
    NumericalError rather than scipy's untyped ValueError."""
    cosine = make_lagrangian("cosine", kappa_pot=5.0)
    dd = cosine.potential_dd
    spec = dataclasses.replace(
        cosine, potential_dd=lambda x: np.where(np.abs(x) <= 0.5, dd(x), np.nan)
    )
    with pytest.raises(NumericalError, match="non-finite gradient or Hessian") as err:
        minimize_direct(0.05, 0.7, -0.4, spec, None, ZERO_G)
    assert err.value.best[0] == 0.7


def test_energy_and_accel_energy():
    t = np.linspace(0.0, 1.0, 2001)
    assert energy(Curve(t, 1.5 * t)) == pytest.approx(2.25, abs=1e-9)
    assert energy(Curve(t, np.full_like(t, 3.0))) == pytest.approx(0.0, abs=1e-15)
    parab = Curve(t, 0.5 * t**2)
    assert energy(parab) == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert accel_energy(parab, delta=0.0) == pytest.approx(1.0, abs=1e-6)
    assert accel_energy(parab, delta=0.5) == pytest.approx(0.5, abs=1e-3)


def test_cost_monotone_in_eps():
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, v = rng.uniform(-1.5, 1.5, size=2)
        costs = [
            minimize_direct(eps, x, v, QUADRATIC, None, ZERO_G, M=201, T=1.0).cost
            for eps in (0.0, 0.01, 0.05, 0.1, 0.5)
        ]
        assert all(costs[i + 1] >= costs[i] - 1e-10 for i in range(len(costs) - 1))


def test_minimizer_converges_to_limit_minimizer():
    limit = minimize_direct(0.0, 1.0, 1.0, QUADRATIC, None, ZERO_G, M=401, T=1.0)
    gaps = []
    for eps in (0.5, 0.1, 0.02):
        res = minimize_direct(eps, 1.0, 1.0, QUADRATIC, None, ZERO_G, M=401, T=1.0)
        gaps.append(float(np.max(np.abs(res.curve.x - limit.curve.x))))
    assert gaps[2] < gaps[1] < gaps[0]


def test_energy_bound_of_minimizers():
    q1 = energy_constant(QUADRATIC, ZERO_G, 1.0)
    rng = np.random.default_rng(13)
    for _ in range(3):
        x, v = rng.uniform(-1.5, 1.5, size=2)
        res = minimize_direct(0.05, x, v, QUADRATIC, None, ZERO_G, M=201, T=1.0)
        assert res.converged
        assert energy(res.curve) <= q1 * (1.0 + v**2)


def test_bvp_validation():
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="finite eps > 0"):
            solve_el_bvp(eps, 0.0, 0.0, QUADRATIC, None, ZERO_G)
    for x, v in ((np.nan, 0.0), (0.0, np.inf)):
        with pytest.raises(InvalidInputError, match="start point"):
            solve_el_bvp(0.1, x, v, QUADRATIC, None, ZERO_G)
    with pytest.raises(UnsupportedModelError):
        solve_el_bvp(0.1, 0.0, 0.0, make_lagrangian("quartic"), None, ZERO_G)
    with pytest.raises(InvalidInputError):
        solve_el_bvp(0.1, 0.0, 0.0, QUADRATIC, None, ZERO_G, M=2)
    with pytest.raises(InvalidInputError):
        solve_el_bvp(0.1, 0.0, 0.0, QUADRATIC, None, ZERO_G, T=0.0)
