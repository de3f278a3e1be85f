"""Curve-level machinery: cost evaluation, direct minimization, and the
fourth-order Euler-Lagrange boundary value problem.

Both the direct minimizer and the BVP solver act on the same discrete
functional (trapezoid quadrature, shared difference operators), so their
optima cross-validate each other to optimizer tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize as scipy_minimize
from scipy.sparse.linalg import spsolve

from .errors import InvalidInputError, UnsupportedModelError
from .measures import MeasureFlow
from .model import LagrangianSpec, TerminalCost, eval_L0, eval_L0_dx, eval_L0_dv


def d1_matrix(n: int, h: float) -> sp.csr_matrix:
    """First derivative: centered interior, one-sided at the ends."""
    rows, cols, vals = [], [], []
    rows += [0, 0]
    cols += [0, 1]
    vals += [-1.0 / h, 1.0 / h]
    for i in range(1, n - 1):
        rows += [i, i]
        cols += [i - 1, i + 1]
        vals += [-0.5 / h, 0.5 / h]
    rows += [n - 1, n - 1]
    cols += [n - 2, n - 1]
    vals += [-1.0 / h, 1.0 / h]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def d2_matrix(n: int, h: float) -> sp.csr_matrix:
    """Second difference: standard interior stencil, end rows copy the adjacent one."""
    rows, cols, vals = [], [], []
    for i in range(n):
        j = min(max(i, 1), n - 2)
        rows += [i, i, i]
        cols += [j - 1, j, j + 1]
        vals += [1.0 / h**2, -2.0 / h**2, 1.0 / h**2]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@dataclass(frozen=True)
class Curve:
    """Uniformly sampled trajectory with fixed finite-difference derivative rules."""

    t: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if t.ndim != 1 or t.size < 3 or x.shape != t.shape:
            raise InvalidInputError("curve needs matching 1d t and x samples, at least 3")
        steps = np.diff(t)
        if not np.allclose(steps, steps[0]):
            raise InvalidInputError("curve samples must be uniform in time")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)

    @property
    def h(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def velocity(self) -> np.ndarray:
        return d1_matrix(self.t.size, self.h) @ self.x

    @property
    def acceleration(self) -> np.ndarray:
        return d2_matrix(self.t.size, self.h) @ self.x


@dataclass(frozen=True)
class DirectMinimizeResult:
    curve: Curve
    cost: float
    grad_norm: float
    converged: bool
    n_iter: int


@dataclass(frozen=True)
class BVPSolution:
    curve: Curve
    residual_norm: float
    boundary_residuals: tuple
    converged: bool
    residual_history: tuple


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _flow_index_map(m_flow: MeasureFlow | None, t_samples: np.ndarray):
    if m_flow is None:
        return None
    return np.argmin(np.abs(m_flow.times[None, :] - t_samples[:, None]), axis=1)


def _coupling_samples(spec, m_flow, idx_map, x_samples, order=0):
    """Coupling value (order 0) or its first or second x-derivative sample-wise,
    with the measure looked up at the nearest flow time."""
    out = np.zeros_like(x_samples)
    if m_flow is None or not spec.is_coupled:
        return out
    coupling = (spec.coupling_value, spec.coupling_dx, spec.coupling_dxx)[order]
    for k in np.unique(idx_map):
        sel = idx_map == k
        out[sel] = coupling(x_samples[sel], m_flow.marginal(int(k)))
    return out


def _terminal_measure(m_flow):
    return None if m_flow is None else m_flow.marginal(m_flow.n_times - 1)


def eval_cost(
    gamma: Curve,
    eps: float,
    spec: LagrangianSpec,
    m_flow: MeasureFlow | None,
    g: TerminalCost,
) -> float:
    """Composite-trapezoid integral of eps/2 |acc|^2 + L0 plus the terminal cost."""
    vel = gamma.velocity
    acc = gamma.acceleration
    idx = _flow_index_map(m_flow, gamma.t)
    coup = _coupling_samples(spec, m_flow, idx, gamma.x)
    running = 0.5 * eps * acc**2 + spec.kinetic(vel) + spec.potential(gamma.x) + coup
    return float(np.trapezoid(running, gamma.t) + g.g(gamma.x[-1], _terminal_measure(m_flow)))


def minimize_direct(
    eps: float,
    t0: float,
    x: float,
    v: float,
    spec: LagrangianSpec,
    m_flow: MeasureFlow | None,
    g: TerminalCost,
    M: int = 401,
    T: float | None = None,
    grad_tol: float = 1e-4,
) -> DirectMinimizeResult:
    """Quasi-Newton descent of the discrete cost over the curve samples.

    eps > 0 fixes the initial position and velocity; eps = 0 drops both the
    acceleration term and the initial-velocity constraint. The curve is
    parametrized by its second differences (first differences for eps = 0), a
    change of variables that keeps the Hessian well conditioned; the minimized
    functional is the plain discrete cost of the sampled curve either way.
    Descent starts from the straight-line curve, which also breaks ties
    deterministically.
    """
    if eps < 0:
        raise InvalidInputError("eps must be nonnegative")
    if T is None:
        T = 1.0 if m_flow is None else float(m_flow.times[-1])
    t = np.linspace(t0, T, M)
    h = t[1] - t[0]
    w = _trapezoid_weights(M)
    D1 = d1_matrix(M, h)
    D2 = d2_matrix(M, h)
    idx = _flow_index_map(m_flow, t)
    m_T = _terminal_measure(m_flow)
    e_last = np.zeros(M)
    e_last[-1] = 1.0

    # gamma = base + A z: cumulative-sum maps from the difference variables
    if eps > 0:
        # z holds the M - 2 interior second differences scaled by h^2
        base = x + v * (t - t0)
        n_free = M - 2

        def curve_of(z):
            return base + np.concatenate(([0.0, 0.0], np.cumsum(np.cumsum(z))))

        def chain(grad_gamma):
            s = np.cumsum(grad_gamma[:1:-1])  # reversed outer cumsum
            return np.cumsum(s)[::-1]
    else:
        base = np.full(M, float(x))
        n_free = M - 1

        def curve_of(z):
            return base + np.concatenate(([0.0], np.cumsum(z)))

        def chain(grad_gamma):
            return np.cumsum(grad_gamma[:0:-1])[::-1]

    def objective(z):
        gam = curve_of(z)
        vel = D1 @ gam
        coup = _coupling_samples(spec, m_flow, idx, gam)
        running = spec.kinetic(vel) + spec.potential(gam) + coup
        dLdx = spec.potential_d(gam) + _coupling_samples(spec, m_flow, idx, gam, 1)
        dLdv = spec.kinetic_d(vel)
        grad = h * (D1.T @ (w * dLdv) + w * dLdx)
        if eps > 0:
            acc = D2 @ gam
            running = running + 0.5 * eps * acc**2
            grad = grad + h * eps * (D2.T @ (w * acc))
        cost = h * np.sum(w * running) + float(g.g(gam[-1], m_T))
        grad = grad + e_last * float(g.dg(gam[-1], m_T))
        return cost, chain(grad)

    res = scipy_minimize(
        objective,
        np.zeros(n_free),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 5000, "maxcor": 50, "ftol": 1e-18, "gtol": 1e-12},
    )
    gam = curve_of(res.x)
    free = np.arange(M - n_free, M)
    W = sp.diags(w)

    def grad_gamma_of(gam):
        # stationarity in the curve variables, matching the BVP residual scale
        vel = D1 @ gam
        dLdx = spec.potential_d(gam) + _coupling_samples(spec, m_flow, idx, gam, 1)
        grad = h * (D1.T @ (w * spec.kinetic_d(vel)) + w * dLdx)
        if eps > 0:
            grad = grad + h * eps * (D2.T @ (w * (D2 @ gam)))
        return grad + e_last * float(g.dg(gam[-1], m_T))

    def hess_free(gam):
        vel = D1 @ gam
        curv = spec.potential_dd(gam) + _coupling_samples(spec, m_flow, idx, gam, 2)
        H = h * (D1.T @ sp.diags(w * spec.kinetic_dd(vel)) @ D1 + sp.diags(w * curv))
        if eps > 0:
            H = H + h * eps * (D2.T @ W @ D2)
        H = H + sp.csr_matrix(
            ([float(g.second_derivative(gam[-1], m_T))], ([M - 1], [M - 1])), shape=(M, M)
        )
        return H[free][:, free].tocsc()

    # Newton polish: the cumulative-sum variables stall L-BFGS near the optimum
    # (machine-precision plateau in the cost), so finish in curve variables
    G = grad_gamma_of(gam)
    n_iter = int(res.nit)
    for _ in range(10):
        if np.max(np.abs(G[free])) / h < 0.1 * grad_tol:
            break
        step = spsolve(hess_free(gam), -G[free])
        if not np.all(np.isfinite(step)):
            break
        alpha = 1.0
        for _ in range(30):
            trial = gam.copy()
            trial[free] += alpha * step
            Gt = grad_gamma_of(trial)
            if np.max(np.abs(Gt[free])) < np.max(np.abs(G[free])):
                gam, G = trial, Gt
                break
            alpha *= 0.5
        else:
            break
        n_iter += 1

    grad_norm = float(np.max(np.abs(G[free])) / h)
    curve = Curve(t, gam)
    coup = _coupling_samples(spec, m_flow, idx, gam)
    running = spec.kinetic(D1 @ gam) + spec.potential(gam) + coup
    if eps > 0:
        running = running + 0.5 * eps * (D2 @ gam) ** 2
    cost = float(h * np.sum(w * running) + g.g(gam[-1], m_T))
    return DirectMinimizeResult(
        curve=curve,
        cost=cost,
        grad_norm=grad_norm,
        converged=bool(grad_norm < grad_tol),
        n_iter=n_iter,
    )


def solve_el_bvp(
    eps: float,
    x: float,
    v: float,
    spec: LagrangianSpec,
    mu_flow: MeasureFlow | None,
    g: TerminalCost,
    M: int = 401,
    T: float | None = None,
    tol: float = 1e-5,
    max_iter: int = 50,
) -> BVPSolution:
    """Newton solve of the discrete fourth-order stationarity equations.

    The equations are the gradient of the same discrete functional used by
    minimize_direct for the state-control model form (quadratic kinetic term),
    so the transversality conditions at the right end hold as natural boundary
    conditions of the discretization.
    """
    if eps <= 0:
        raise InvalidInputError("the fourth-order problem needs eps > 0")
    if not spec.is_quadratic_kinetic:
        raise UnsupportedModelError("solve_el_bvp requires the quadratic kinetic term")
    if T is None:
        T = 1.0 if mu_flow is None else float(mu_flow.times[-1])
    t = np.linspace(0.0, T, M)
    h = t[1] - t[0]
    w = _trapezoid_weights(M)
    D1 = d1_matrix(M, h)
    D2 = d2_matrix(M, h)
    idx = _flow_index_map(mu_flow, t)
    m_T = _terminal_measure(mu_flow)
    W = sp.diags(w)
    K = h * (eps * (D2.T @ W @ D2) + D1.T @ W @ D1)  # constant part of the Hessian
    free = np.arange(2, M)
    e_last = np.zeros(M)
    e_last[-1] = 1.0

    gam = x + v * t  # straight-line start
    gam[0], gam[1] = x, x + h * v

    def grad_full(gam):
        dLdx = spec.potential_d(gam) + _coupling_samples(spec, mu_flow, idx, gam, 1)
        return K @ gam + h * (w * dLdx) + e_last * float(g.dg(gam[-1], m_T))

    def hess_free(gam):
        curv = spec.potential_dd(gam) + _coupling_samples(spec, mu_flow, idx, gam, 2)
        H = K + sp.diags(h * w * curv)
        H = H + sp.csr_matrix(
            ([float(g.second_derivative(gam[-1], m_T))], ([M - 1], [M - 1])), shape=(M, M)
        )
        return H[free][:, free].tocsc()

    history = []
    G = grad_full(gam)
    res_norm = np.max(np.abs(G[free])) / h
    history.append(res_norm)
    converged = res_norm < tol
    for _ in range(max_iter):
        if converged:
            break
        step = spsolve(hess_free(gam), -G[free])
        alpha = 1.0
        for _ in range(30):  # backtrack on the gradient norm
            trial = gam.copy()
            trial[free] += alpha * step
            Gt = grad_full(trial)
            if np.max(np.abs(Gt[free])) < np.max(np.abs(G[free])):
                gam, G = trial, Gt
                break
            alpha *= 0.5
        else:
            break
        res_norm = np.max(np.abs(G[free])) / h
        history.append(res_norm)
        converged = res_norm < tol

    curve = Curve(t, gam)
    # boundary residuals: initial position/velocity and the two natural conditions;
    # the third derivative comes from interior second differences (the copied end
    # row of the acceleration stencil would force it to zero)
    vel = curve.velocity
    acc = curve.acceleration
    third_T = (acc[-2] - acc[-3]) / h
    boundary = (
        abs(gam[0] - x),
        abs(vel[0] - v),
        abs(2.0 * acc[-2] - acc[-3]),  # extrapolate the interior stencil to t = T
        abs(-eps * third_T + vel[-1] + float(g.dg(gam[-1], m_T))),
    )
    return BVPSolution(
        curve=curve,
        residual_norm=float(res_norm),
        boundary_residuals=boundary,
        converged=bool(converged),
        residual_history=tuple(history),
    )


def connecting_curve(x: float, v0: float, v1: float, eps: float, M: int = 101) -> Curve:
    """Cubic returning to x on [0, sqrt(eps)] that swaps velocity v0 for v1."""
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    B = -(2.0 * v0 + v1) / np.sqrt(eps)
    A = (v1 + v0) / eps
    t = np.linspace(0.0, np.sqrt(eps), M)
    return Curve(t, x + v0 * t + B * t**2 + A * t**3)


def energy(gamma: Curve) -> float:
    """Integral of the squared velocity over the full interval."""
    return float(np.trapezoid(gamma.velocity**2, gamma.t))


def accel_energy(gamma: Curve, delta: float = 0.0) -> float:
    """Integral of the squared acceleration over [delta, T]."""
    mask = gamma.t >= delta - 1e-12
    return float(np.trapezoid(gamma.acceleration[mask] ** 2, gamma.t[mask]))


def el_residual(gamma: Curve, eps: float, spec: LagrangianSpec, mu_flow, g: TerminalCost):
    """Discrete Euler-Lagrange residual of a curve, same stencil as solve_el_bvp."""
    M = gamma.t.size
    h = gamma.h
    w = _trapezoid_weights(M)
    D1 = d1_matrix(M, h)
    D2 = d2_matrix(M, h)
    idx = _flow_index_map(mu_flow, gamma.t)
    dLdx = spec.potential_d(gamma.x) + _coupling_samples(spec, mu_flow, idx, gamma.x, 1)
    dLdv = spec.kinetic_d(D1 @ gamma.x)
    G = h * (eps * (D2.T @ (w * (D2 @ gamma.x))) + D1.T @ (w * dLdv) + w * dLdx)
    G[-1] += float(g.dg(gamma.x[-1], _terminal_measure(mu_flow)))
    return G[2:] / h
