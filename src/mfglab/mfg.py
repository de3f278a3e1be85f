"""Fixed-point drivers coupling the value solvers with particle transport.

Anderson-accelerated Picard iteration: solve the backward value problem given
the current measure flow f, push the particles forward to T(f), and stop when
the residual sup_t W1(T(f), f) is below the tolerance. Otherwise the next
iterate mixes the particle paths of past iterates and residuals (type-II
Anderson, Walker & Ni, SIAM J. Numer. Anal. 49, 2011). The state-control
limit has no loop of its own: it is the classical limit's fixed point with the
feedback velocities attached by one more transport.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, NumericalError, TransportError, UnsupportedModelError
from .hjb import (
    ControlSet,
    PhaseGrid,
    ValueField,
    acceleration_controls,
    acceleration_operator,
    gradient_x,
    interp_slice_x,
    interp_slice_xv,
    solve_hjb_acceleration,
    solve_hjb_limit_classical,
)
from .measures import MeasureFlow, ParticleEnsemble, sup_w1_marginal
from .model import LagrangianSpec, TerminalCost, optimal_velocity_field

EPS_SUBSTEP_DIVISOR = 4.0  # transport_eps sub-steps are at most eps / 4
LIMIT_SUBSTEPS = 4  # sub-steps per time step of transport_along_velocity
TOL_FP = 1e-3  # default Picard stop, sup_t W1 of the position marginals (run_sweep's too)
MAX_ITER = 60  # default Picard iteration budget (run_sweep's too)


@dataclass(frozen=True)
class MFGSolution:
    value: ValueField
    flow: MeasureFlow
    iterations: int
    fixed_point_gap: float
    gap_history: tuple
    converged: bool
    kind: str  # eps_system | classical_limit | mfg_of_control


def _check_box(X, V, grid: PhaseGrid, t):
    bad = ~(np.abs(X) <= grid.R_x)  # NaN coordinates fail too
    if V is not None:
        bad |= ~(np.abs(V) <= grid.R_v)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise TransportError(
            f"particle {i} left the grid box or is not finite at t={t:.4f}; "
            "if it left the box, increase R_x/R_v",
            t=float(t), particle=i,
        )


def _require_velocities(mu0: ParticleEnsemble):
    if not mu0.is_joint:
        raise InvalidInputError("the initial ensemble must carry velocities")


def free_transport_flow(mu0: ParticleEnsemble, grid: PhaseGrid) -> MeasureFlow:
    _require_velocities(mu0)
    t = grid.t
    X = mu0.positions[None, :] + t[:, None] * mu0.velocities[None, :]
    V = np.broadcast_to(mu0.velocities, (t.size, mu0.size)).copy()
    return MeasureFlow(t, X, V, mu0.weights)


def transport_eps(mu0: ParticleEnsemble, field: ValueField, eps: float) -> MeasureFlow:
    """Integrate x' = v, v' = -(1/eps) D_v u along the value field.

    Inner sub-steps of size min(dt, eps/4) guard against the stiffness of the
    velocity equation. D_v u is taken one time slice at a time, so the solve
    holds no second (t, x, v) field.
    """
    if not 0 < eps < np.inf:
        raise InvalidInputError("eps must be positive and finite")
    if not field.is_phase:
        raise InvalidInputError("transport_eps needs a (t, x, v) field")
    grid = field.grid
    t = grid.t
    dt = grid.dt
    n_sub = max(1, int(np.ceil(dt / min(dt, eps / EPS_SUBSTEP_DIVISOR))))
    dti = dt / n_sub
    n = mu0.size
    X = np.empty((t.size, n))
    V = np.empty((t.size, n))
    X[0], V[0] = mu0.positions, mu0.velocities
    for k in range(t.size - 1):
        xc, vc = X[k].copy(), V[k].copy()
        dv_slice = np.gradient(field.values[k], grid.dv, axis=1)
        for _ in range(n_sub):
            dv = interp_slice_xv(dv_slice, grid, xc, vc)
            xc = xc + dti * vc
            vc = vc - (dti / eps) * dv
        _check_box(xc, vc, grid, t[k + 1])
        X[k + 1], V[k + 1] = xc, vc
    return MeasureFlow(t, X, V, mu0.weights)


def transport_along_velocity(
    mu0: ParticleEnsemble, field: ValueField, spec: LagrangianSpec
) -> MeasureFlow:
    """Push the positions of mu0 along the optimizing velocity b(t, x) of a limit field,
    in LIMIT_SUBSTEPS sub-steps per time step.

    The returned flow carries velocities[k, i] = b(t_k, x_i(t_k)).
    """
    grid = field.grid
    b_field = optimal_velocity_field(spec, gradient_x(field))  # (n_t, n_x)
    t = grid.t
    dt = grid.dt
    dti = dt / LIMIT_SUBSTEPS
    X = np.empty((t.size, mu0.size))
    B = np.empty_like(X)
    X[0] = mu0.positions
    B[0] = interp_slice_x(b_field[0], grid, X[0])
    for k in range(t.size - 1):
        xc = X[k].copy()
        for _ in range(LIMIT_SUBSTEPS):
            xc = xc + dti * interp_slice_x(b_field[k], grid, xc)
        _check_box(xc, None, grid, t[k + 1])
        X[k + 1] = xc
        B[k + 1] = interp_slice_x(b_field[k + 1], grid, xc)
    return MeasureFlow(t, X, B, mu0.weights)


# Anderson mixing constants; CHANGES.md records the measurement behind them
_MEMORY = 5  # difference pairs in the least-squares fit
_MIXING = 0.5  # weight of the residual in each step
_RESTART = 2.0  # the history is cleared when |r| exceeds this times the best |r|


def _dot(a, b):
    """Inner product of two flat float64 vectors on the calling thread, in an
    order that does not depend on the BLAS thread count."""
    return np.einsum("i,i->", a, b)


class _Anderson:
    """Safeguarded type-II Anderson mixing of particle positions.

    The difference pairs of iterates and residuals are kept newest first in
    float32, and `pending` holds the last step and residual until the next
    residual completes them. The iterate, the residual and the stopping gap
    stay float64, so float32 changes the speed, never the certified residual.

    Norms and inner products are `_dot`, never BLAS: a threaded BLAS sums in an
    order set by its thread count, and its spinning threads take the core the
    next HJB solve's block worker needs.
    """

    def __init__(self):
        self.dx, self.dr = deque(maxlen=_MEMORY), deque(maxlen=_MEMORY)
        self.pending = None
        self.best = np.inf

    def step(self, x, r):
        """The next iterate from iterate x and its residual r = T(x) - x (flat float64)."""
        norm = float(np.sqrt(_dot(r, r)))
        if norm > _RESTART * self.best:
            self.dx.clear()
            self.dr.clear()
        elif self.pending:
            dx, dr = self.pending
            self.dx.appendleft(dx)
            self.dr.appendleft(np.subtract(r, dr, out=dr, casting="same_kind"))
        self.best = min(self.best, norm)
        dx = _MIXING * r
        if self.dr:
            n = len(self.dr)
            gram, rhs = np.empty((n, n)), np.empty(n)
            for i, dri in enumerate(self.dr):
                dri = dri.astype(np.float64)
                rhs[i] = _dot(dri, r)
                for j in range(i + 1):
                    gram[i, j] = gram[j, i] = _dot(dri, self.dr[j].astype(np.float64))
            gamma = np.linalg.lstsq(gram, rhs, rcond=None)[0]
            for dxi, dri, c in zip(self.dx, self.dr, gamma):
                dx -= c * dxi
                dx -= (_MIXING * c) * dri
        self.pending = (dx.astype(np.float32), r.astype(np.float32))
        return x + dx


def _picard(spec, solve_value, transport, init_flow, tol_fp, max_iter, kind, r_x):
    """Anderson-accelerated Picard iteration shared by the eps and classical drivers.

    solve_value(flow) gives the value field against a measure flow (None when
    the model is decoupled, which closes in one pass), transport(u) the flow it
    induces, and init_flow() the first iterate. The loop stops when the
    residual sup_t W1(T(f), f) of the position marginals is below tol_fp and
    returns the consistent pair (u, T(f)); after max_iter iterations it returns
    the pair with the smallest residual, flagged not converged. Only that
    pair's flow f is kept, and its u is solved again at the end.

    Only positions are mixed: every coupling reads positions, so the iterate
    carries the velocities of its latest transport. Mixed positions are clipped
    to [-r_x, r_x], the box every transported particle lies in.
    """
    if max_iter < 1:
        raise InvalidInputError("max_iter must be at least 1")
    if not spec.is_coupled:
        u = solve_value(None)
        return MFGSolution(u, transport(u), 1, 0.0, (0.0,), True, kind)
    flow = init_flow()
    mixer = _Anderson()
    history, best, best_flow = [], np.inf, None

    def best_pair():
        u = solve_value(best_flow)  # deterministic: the u of that iteration
        return MFGSolution(u, transport(u), len(history), best, tuple(history), False, kind)

    for it in range(1, max_iter + 1):
        u = solve_value(flow)
        new = transport(u)
        history.append(sup_w1_marginal(new, flow))
        if history[-1] < tol_fp:
            return MFGSolution(u, new, it, history[-1], tuple(history), True, kind)
        del u
        if not np.isfinite(history[-1]):
            raise NumericalError(
                f"fixed-point residual is not finite at iteration {it}",
                best=None if best_flow is None else best_pair(),
                residual=best,
            )
        if history[-1] < best:
            best, best_flow = history[-1], flow
        X = flow.positions
        X = mixer.step(X.ravel(), (new.positions - X).ravel()).reshape(X.shape)
        np.clip(X, -r_x, r_x, out=X)
        # the transported positions go before the next value solve
        flow = MeasureFlow(flow.times, X, new.velocities, flow.weights)
        del new
    return best_pair()


def solve_eps_system(
    spec: LagrangianSpec,
    g: TerminalCost,
    grid: PhaseGrid,
    mu0: ParticleEnsemble,
    eps: float,
    controls: ControlSet | None = None,
    tol_fp: float = TOL_FP,
    max_iter: int = MAX_ITER,
) -> MFGSolution:
    """Anderson-accelerated Picard iteration for the penalized system.

    ``controls`` is the base acceleration set; the HJB solves use
    ``acceleration_controls(grid, eps, controls)``, which leaves a widened set as it is.
    """
    if not 0 < eps < np.inf:
        raise InvalidInputError("eps must be positive and finite")
    _require_velocities(mu0)
    controls = acceleration_controls(grid, eps, controls)
    # Every Picard iteration re-solves the same HJB against a new flow, so a
    # coupled rung builds its operator once. A decoupled rung closes in one
    # pass and lets the solve build and free its own before transport.
    operator = acceleration_operator(grid, spec, eps, controls) if spec.is_coupled else None
    return _picard(
        spec,
        lambda flow: solve_hjb_acceleration(grid, spec, flow, g, eps, controls, operator=operator),
        lambda u: transport_eps(mu0, u, eps),
        lambda: free_transport_flow(mu0, grid),
        tol_fp, max_iter, "eps_system", grid.R_x,
    )


def solve_limit_classical(
    spec: LagrangianSpec,
    g: TerminalCost,
    grid: PhaseGrid,
    mu0: ParticleEnsemble,
    tol_fp: float = TOL_FP,
    max_iter: int = MAX_ITER,
) -> MFGSolution:
    """Classical limit system: value on (t, x) with the v axis as velocity controls,
    marginal particles transported along the optimizing velocity."""

    def init_flow():
        X = np.broadcast_to(mu0.positions, (grid.t.size, mu0.size)).copy()
        return MeasureFlow(grid.t, X, None, mu0.weights)

    return _picard(
        spec,
        lambda flow: solve_hjb_limit_classical(grid, spec, flow, g),
        lambda u: transport_along_velocity(mu0, u, spec).marginal_flow(),
        init_flow,
        tol_fp, max_iter, "classical_limit", grid.R_x,
    )


def solve_mfg_of_control(
    spec: LagrangianSpec,
    g: TerminalCost,
    grid: PhaseGrid,
    mu0: ParticleEnsemble,
    tol_fp: float = TOL_FP,
    max_iter: int = MAX_ITER,
) -> MFGSolution:
    """State-control limit: the classical limit plus one velocity reconstruction.

    Every catalog coupling reads the position marginal only, so the position
    fixed point is the classical one, with its iterations and residuals. The
    joint flow keeps the initial ensemble at t = 0 and attaches the optimizing
    feedback velocity b(t, x_i) at later nodes.
    """
    if not spec.is_quadratic_kinetic:
        raise UnsupportedModelError("the state-control limit requires the quadratic kinetic term")
    _require_velocities(mu0)
    sol = solve_limit_classical(spec, g, grid, mu0, tol_fp=tol_fp, max_iter=max_iter)
    flow = transport_along_velocity(mu0, sol.value, spec)
    # the initial condition takes precedence over the reconstruction
    flow.velocities[0] = mu0.velocities
    return replace(sol, flow=flow, kind="mfg_of_control")
