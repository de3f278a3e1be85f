"""Curve-level machinery: cost evaluation, direct minimization, and the
fourth-order Euler-Lagrange boundary value problem.

The cost, the direct minimizer, the BVP solver and the Euler-Lagrange
residual all evaluate one discrete functional (trapezoid quadrature, shared
difference operators) and its derivatives, and both solvers run one
safeguarded Newton descent on it. At eps > 0 they share one computation, so
their optima agree to the last bit and do not check each other; the
closed-form minimizer of the harmonic model in the test oracles is the
independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError, UnsupportedModelError
from .measures import MeasureFlow
from .model import LagrangianSpec, TerminalCost

DIRECT_GRAD_TOL = 1e-4  # minimize_direct converges below this gradient sup norm over h
BVP_TOL = 1e-5  # solve_el_bvp converges below this residual; both solvers stop there
MAX_STEPS = 50  # Newton steps of either solver
ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
ROUNDING_ULPS = 8  # cost rises up to this many ulp are rounding, not ascent
_EPS = np.finfo(float).eps


class _Stencil:
    """A difference operator D on M >= 3 samples with three weights W[k] per row:
    row k weighs the samples s_k .. s_k + 2, s_k = clip(k - 1, 0, M - 3). Its
    products add their terms in the order of the CSR products they replaced."""

    def __init__(self, W):
        self.W, self.s = W, np.clip(np.arange(len(W)) - 1, 0, len(W) - 3)

    def __matmul__(self, x):  # D @ x
        W, s = self.W, self.s
        return W[:, 0] * x[s] + W[:, 1] * x[s + 1] + W[:, 2] * x[s + 2]

    def _scatter(self, n, rows):
        """out[s_k + a] = the sum of rows[a][k] over k in order (a falls as k rises)."""
        out = np.zeros(n)
        for a in reversed(range(len(rows))):
            np.add.at(out, self.s + a, rows[a])
        return out

    def rmatvec(self, y):  # D.T @ y
        return self._scatter(len(y), [self.W[:, a] * y for a in range(3)])

    def gram(self, c):  # diagonals 0, 1 and 2 of D.T diag(c) D
        rows = [[self.W[:, a] * c * self.W[:, a + d] for a in range(3 - d)] for d in range(3)]
        return [self._scatter(len(c) - d, r) for d, r in enumerate(rows)]


def _stencils(M: int, h: float) -> tuple[_Stencil, _Stencil]:
    """The first derivative (centered, one-sided at the ends) and the second
    difference (end rows copy the adjacent one) on M samples h apart."""
    d1 = np.tile([-0.5 / h, 0.0, 0.5 / h], (M, 1))
    d1[0], d1[-1] = [-1.0 / h, 1.0 / h, 0.0], [0.0, -1.0 / h, 1.0 / h]
    return _Stencil(d1), _Stencil(np.tile(np.array([1.0, -2.0, 1.0]) / h**2, (M, 1)))


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
        if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
            raise InvalidInputError("curve times must be finite and strictly increasing")
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
        return _stencils(self.t.size, self.h)[0] @ self.x

    @property
    def acceleration(self) -> np.ndarray:
        return _stencils(self.t.size, self.h)[1] @ self.x


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


class _Functional:
    """The discrete cost of a curve x sampled on the uniform times t,

        h sum_i w_i (eps/2 (D2 x)_i^2 + L0(x_i, (D1 x)_i, m(t_i))) + g(x_{M-1}, m(T)),

    with trapezoid weights w and the measure taken at the flow time nearest to
    t_i, together with its gradient and Hessian in the samples x.
    """

    def __init__(self, t, eps, spec, m_flow, g):
        t = np.asarray(t, dtype=float)
        if not (t.size >= 3 and t[-1] > t[0]):
            raise InvalidInputError("a curve needs M >= 3 samples and T > t0")
        if not 0 <= eps < np.inf:
            raise InvalidInputError("eps must be nonnegative and finite")
        M = t.size
        self.t, self.h, self.eps, self.spec, self.g = t, t[1] - t[0], eps, spec, g
        self.w = np.ones(M)
        self.w[0] = self.w[-1] = 0.5
        self.D1, self.D2 = _stencils(M, self.h)
        self.m_T = None if m_flow is None else m_flow.marginal(m_flow.n_times - 1)
        self.blocks = []  # (samples, measure) pairs of the coupling lookup
        if m_flow is not None and spec.is_coupled:
            idx = np.argmin(np.abs(m_flow.times[None, :] - t[:, None]), axis=1)
            self.blocks = [(idx == k, m_flow.marginal(int(k))) for k in np.unique(idx)]

    def _coupling(self, x, order):
        """Coupling value (order 0) or its first or second x-derivative sample-wise."""
        out = np.zeros_like(x)
        for sel, m in self.blocks:
            out[sel] = self.spec.coupling_value(x[sel], m, order)
        return out

    def cost(self, x) -> float:
        running = self.spec.kinetic(self.D1 @ x) + self.spec.potential(x) + self._coupling(x, 0)
        if self.eps > 0:
            running = running + 0.5 * self.eps * (self.D2 @ x) ** 2
        return float(self.h * np.sum(self.w * running) + self.g.g(x[-1], self.m_T))

    def grad(self, x) -> np.ndarray:
        dLdx = self.spec.potential_d(x) + self._coupling(x, 1)
        dLdv = self.spec.kinetic_d(self.D1 @ x)
        G = self.h * (self.D1.rmatvec(self.w * dLdv) + self.w * dLdx)
        if self.eps > 0:
            G = G + self.h * self.eps * self.D2.rmatvec(self.w * (self.D2 @ x))
        G[-1] += float(self.g.dg(x[-1], self.m_T))
        return G

    def hess(self, x):
        """The symmetric Hessian's diagonals 0, 1 and 2, all that its bandwidth 2 leaves."""
        kdd = self.spec.kinetic_dd(self.D1 @ x)
        curv = self.spec.potential_dd(x) + self._coupling(x, 2)
        H = self.D1.gram(self.w * kdd)
        H[0] += self.w * curv
        H = [self.h * band for band in H]
        if self.eps > 0:
            H = [band + self.h * self.eps * e for band, e in zip(H, self.D2.gram(self.w))]
        H[0][-1] += float(self.g.dgg(x[-1], self.m_T))
        return H


def _descent(eps, x, v, spec, m_flow, g, M, T):
    """Safeguarded Newton descent of the discrete cost on M uniform samples of
    [0, T] (default: the flow's last time, or 1) (Nocedal & Wright, Numerical
    Optimization, 2nd ed., §3.4).

    eps > 0 fixes the first two samples and starts from the straight line
    x + v t; eps = 0 fixes the first sample only and starts from the constant
    curve x, which also breaks ties deterministically. Each step solves
    (H + tau I) p = -g with the banded Cholesky factor of the free-sample
    Hessian, which has bandwidth 2 at every eps. tau is zero when H factors;
    otherwise it starts at machine epsilon times the largest diagonal entry (a
    larger start overshoots the negative curvature and the descent crawls) and
    doubles until H + tau I factors. The step is halved until the cost falls by
    the Armijo fraction of the predicted decrease. Where that decrease is below
    the cost's rounding, a step that keeps the cost within a few ulp and lowers
    the gradient's sup norm is taken instead. Stops once that norm over h is
    below BVP_TOL. Returns the functional, the curve, the history of that norm,
    and whether H factored unshifted at the curve: a zero gradient on a hilltop
    is a saddle, not a minimizer. A non-finite gradient or Hessian at a step's
    curve raises NumericalError carrying that curve.
    """
    if not (np.isfinite(x) and np.isfinite(v)):
        raise InvalidInputError("the start point (x, v) must be finite")
    from ._scipy import dpbtrf, dpbtrs

    if T is None:
        T = 1.0 if m_flow is None else float(m_flow.times[-1])
    F = _Functional(np.linspace(0.0, T, M), eps, spec, m_flow, g)
    first = 2 if eps > 0 else 1
    x = x + v * F.t if eps > 0 else np.full(M, float(x))
    cost, G = F.cost(x), F.grad(x)[first:]
    history = [np.max(np.abs(G)) / F.h]
    for k in range(MAX_STEPS + 1):
        H = F.hess(x)
        # upper banded storage of the free block: row 2 - d holds diagonal d
        ab = np.array([np.pad(H[d][first:], (d, 0)) for d in (2, 1, 0)])
        if not (np.isfinite(ab).all() and np.isfinite(G).all()):
            raise NumericalError(f"non-finite gradient or Hessian at Newton step {k}", best=x)
        diag, shift = ab[2].copy(), 0.0
        floor = _EPS * np.max(np.abs(diag)) or _EPS  # a zero diagonal still gets shifted
        while True:
            ab[2] = diag + shift
            factor, info = dpbtrf(ab)
            if info <= 0:
                break
            shift = 2.0 * shift or floor  # not positive definite: shift, then double the shift
        if info < 0:  # an illegal argument: a programming error
            raise ValueError(f"dpbtrf: illegal value in argument {-info}")
        if history[-1] < BVP_TOL or k == MAX_STEPS:
            break
        step, info = dpbtrs(factor, -G)
        if info < 0:
            raise ValueError(f"dpbtrs: illegal value in argument {-info}")
        slope = G @ step
        alpha = 1.0
        for _ in range(30):
            trial = x.copy()
            trial[first:] += alpha * step
            trial_cost, trial_G = F.cost(trial), F.grad(trial)[first:]
            rise = trial_cost - cost  # as a sum, cost + ARMIJO alpha slope rounds to cost
            if rise <= ARMIJO * alpha * slope or (
                rise <= ROUNDING_ULPS * np.spacing(abs(cost))
                and np.max(np.abs(trial_G)) / F.h < history[-1]
            ):
                break
            alpha *= 0.5
        else:
            break
        x, cost, G = trial, trial_cost, trial_G
        history.append(np.max(np.abs(G)) / F.h)
    return F, x, history, shift == 0.0


def eval_cost(
    gamma: Curve,
    eps: float,
    spec: LagrangianSpec,
    m_flow: MeasureFlow | None,
    g: TerminalCost,
) -> float:
    """Composite-trapezoid integral of eps/2 |acc|^2 + L0 plus the terminal cost."""
    return _Functional(gamma.t, eps, spec, m_flow, g).cost(gamma.x)


def minimize_direct(
    eps: float,
    x: float,
    v: float,
    spec: LagrangianSpec,
    m_flow: MeasureFlow | None,
    g: TerminalCost,
    M: int = 401,
    T: float | None = None,
) -> DirectMinimizeResult:
    """Newton descent of the discrete cost over the curve samples on [0, T].

    eps > 0 fixes the initial position and velocity (the first two samples);
    eps = 0 drops both the acceleration term and the initial-velocity
    constraint (only the first sample is fixed). Converged means the gradient
    is below DIRECT_GRAD_TOL and the Hessian factors unshifted there (a
    minimizer, not a saddle). At eps > 0 this is the computation of
    solve_el_bvp, so the two do not check each other; the closed-form harmonic
    minimizer in the test oracles does.
    """
    F, gam, history, minimum = _descent(eps, x, v, spec, m_flow, g, M, T)
    grad_norm = float(history[-1])
    return DirectMinimizeResult(
        curve=Curve(F.t, gam),
        cost=F.cost(gam),
        grad_norm=grad_norm,
        converged=bool(grad_norm < DIRECT_GRAD_TOL and minimum),
        n_iter=len(history) - 1,
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
) -> BVPSolution:
    """Solve of the discrete fourth-order stationarity equations.

    The equations are the gradient of the same discrete functional used by
    minimize_direct for the state-control model form (quadratic kinetic term),
    so the transversality conditions at the right end hold as natural boundary
    conditions of the discretization. They are solved by minimize_direct's
    descent; converged means their residual is below BVP_TOL at a minimizer.
    """
    if not 0 < eps < np.inf:
        raise InvalidInputError("the fourth-order problem needs a finite eps > 0")
    if not spec.is_quadratic_kinetic:
        raise UnsupportedModelError("solve_el_bvp requires the quadratic kinetic term")
    F, gam, history, minimum = _descent(eps, x, v, spec, mu_flow, g, M, T)
    res_norm = history[-1]

    curve = Curve(F.t, gam)
    # boundary residuals: initial position/velocity and the two natural conditions;
    # the third derivative comes from interior second differences (the copied end
    # row of the acceleration stencil would force it to zero)
    vel = curve.velocity
    acc = curve.acceleration
    third_T = (acc[-2] - acc[-3]) / F.h
    boundary = (
        abs(gam[0] - x),
        abs(vel[0] - v),
        abs(2.0 * acc[-2] - acc[-3]),  # extrapolate the interior stencil to t = T
        abs(-eps * third_T + vel[-1] + float(g.dg(gam[-1], F.m_T))),
    )
    return BVPSolution(
        curve=curve,
        residual_norm=float(res_norm),
        boundary_residuals=boundary,
        converged=bool(res_norm < BVP_TOL and minimum),
        residual_history=tuple(history),
    )


def connecting_curve(x: float, v0: float, v1: float, eps: float, M: int = 101) -> Curve:
    """Cubic returning to x on [0, sqrt(eps)] that swaps velocity v0 for v1."""
    if not 0 < eps < np.inf:
        raise InvalidInputError("eps must be positive and finite")
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
    """Discrete Euler-Lagrange residual of a curve: the gradient of the discrete
    cost over h at every sample but the two that the initial data fix."""
    return _Functional(gamma.t, eps, spec, mu_flow, g).grad(gamma.x)[2:] / gamma.h
