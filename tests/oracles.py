"""Independent reference computations for the test suite.

Everything here comes from closed forms, direct quadrature, or exhaustive
enumeration, and shares no numerical code with the package under test.
"""

import itertools

import numpy as np


def lq_phase_value_table(eps, kappa_pot, T, dt=1e-4):
    """Backward matrix-Riccati integration for the acceleration-controlled LQ problem.

    State z = (x, v), dynamics z' = A z + B w, running cost
    (kappa_pot x^2 + v^2) / 2 + eps w^2 / 2, zero terminal cost. Returns
    (times, P) with value u(t, x, v) = z^T P(t) z / 2, RK4 with step dt.
    """
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    Q = np.diag([kappa_pot, 1.0])
    BBt = np.array([[0.0, 0.0], [0.0, 1.0]])

    def rhs(P):
        return Q + A.T @ P + P @ A - P @ BBt @ P / eps

    n = int(round(T / dt))
    times = np.linspace(0.0, T, n + 1)
    Ps = np.empty((n + 1, 2, 2))
    P = np.zeros((2, 2))
    Ps[n] = P
    for k in range(n, 0, -1):
        k1 = rhs(P)
        k2 = rhs(P + 0.5 * dt * k1)
        k3 = rhs(P + 0.5 * dt * k2)
        k4 = rhs(P + dt * k3)
        P = P + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        Ps[k - 1] = P
    return times, Ps


def lq_phase_value(times, Ps, t, x, v):
    k = int(np.argmin(np.abs(times - t)))
    z = np.array([x, v])
    return float(0.5 * z @ Ps[k] @ z)


def lq_limit_value(kappa_pot, T, t, x):
    """Closed-form scalar-Riccati value: sqrt(k) tanh(sqrt(k)(T - t)) x^2 / 2."""
    r = np.sqrt(kappa_pot)
    return 0.5 * r * np.tanh(r * (T - t)) * x**2


def lq_limit_path(kappa_pot, T, t, x0):
    """Closed-form optimal state path x(t) = x0 cosh(sqrt(k)(T - t)) / cosh(sqrt(k) T)."""
    r = np.sqrt(kappa_pot)
    return x0 * np.cosh(r * (T - t)) / np.cosh(r * T)


def lq_limit_feedback(kappa_pot, T, t, x):
    """Optimal velocity -k(t) x with k(t) = sqrt(kappa) tanh(sqrt(kappa)(T - t))."""
    r = np.sqrt(kappa_pot)
    return -r * np.tanh(r * (T - t)) * x


def harmonic_minimizer(eps, kappa_pot, T, x, v):
    """Closed-form minimizer of the integral over [0, T] of
    eps/2 g''^2 + g'^2/2 + kappa_pot g^2/2 with g(0) = x, g'(0) = v, free right end.

    The Euler-Lagrange equation eps g'''' - g'' + kappa_pot g = 0 has the roots
    r^2 = (1 +- sqrt(1 - 4 eps kappa_pot)) / (2 eps), so g sums the modes
    exp(-r t) and exp(-r (T - t)); anchoring the growing ones at T keeps every
    mode at most 1. The natural conditions g''(T) = 0 and eps g'''(T) = g'(T)
    close one 4x4 system. Integrating the cost by parts against the equation
    leaves only its t = 0 terms. Needs 4 eps kappa_pot < 1. Returns
    (derivative, cost), where derivative(t, k) is the k-th derivative of g.
    """
    d = np.sqrt(1.0 - 4.0 * eps * kappa_pot)
    r = np.sqrt(np.array([1.0 - d, 1.0 + d]) / (2.0 * eps))

    def modes(t, k):
        t = np.asarray(t, dtype=float)[..., None]
        return np.concatenate([(-r) ** k * np.exp(-r * t), r**k * np.exp(-r * (T - t))], axis=-1)

    system = np.array([modes(0.0, 0), modes(0.0, 1), modes(T, 2), eps * modes(T, 3) - modes(T, 1)])
    coef = np.linalg.solve(system, [x, v, 0.0, 0.0])

    def derivative(t, k=0):
        return modes(t, k) @ coef

    cost = 0.5 * (eps * derivative(0.0, 3) * x - eps * derivative(0.0, 2) * v - v * x)
    return derivative, float(cost)


def w1_cdf_1d(xa, wa, xb, wb):
    """W1 on the line as the integral of |F_a - F_b| between support breakpoints."""
    xa, wa = np.asarray(xa, float), np.asarray(wa, float)
    xb, wb = np.asarray(xb, float), np.asarray(wb, float)
    pts = np.unique(np.concatenate([xa, xb]))
    Fa = np.array([wa[xa <= p].sum() for p in pts])
    Fb = np.array([wb[xb <= p].sum() for p in pts])
    return float(np.sum(np.abs(Fa[:-1] - Fb[:-1]) * np.diff(pts)))


def w1_permutation(cost):
    """Exact uniform-marginal transport cost by enumerating every permutation plan.

    Permutation matrices are the vertices of the coupling polytope when both
    marginals are uniform with equal support size, so the minimum over all of
    them is the exact LP optimum.
    """
    n = cost.shape[0]
    rows = np.arange(n)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        c = cost[rows, perm].mean()
        if c < best:
            best = c
    return float(best)
