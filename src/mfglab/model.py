"""Lagrangian families, terminal costs, and the velocity Legendre transform.

The running cost has the separable form

    L0(x, v, m) = kinetic(v) + potential(x) + coupling_strength * F(x, m)

with F a Gaussian-kernel smoothing of the particle measure, so the velocity
convexity and growth inequalities can be audited numerically on a compact box.
Models enter through the built-in catalog (quadratic, quartic, cosine); the
audit is what gives the downstream a-priori bounds their constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import measures
from .errors import InvalidInputError, NumericalError, UnsupportedModelError
from .measures import ParticleEnsemble

LEGENDRE_GRID_POINTS = 512
LEGENDRE_NEWTON_MAXITER = 50
LEGENDRE_NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class LagrangianSpec:
    """Running cost with analytic derivatives and the constants used by the audits."""

    kinetic: Callable
    kinetic_d: Callable
    kinetic_dd: Callable
    potential: Callable
    potential_d: Callable
    potential_dd: Callable
    coupling_strength: float = 0.0
    coupling_sigma: float = 0.3
    M0: float = 60.0
    kinetic_name: str = "quadratic"

    def __post_init__(self):
        if self.coupling_strength < 0 or self.M0 <= 0:
            raise InvalidInputError("coupling_strength, M0 must be admissible")

    @property
    def is_quadratic_kinetic(self) -> bool:
        return self.kinetic_name == "quadratic"

    @property
    def is_coupled(self) -> bool:
        """Whether the running cost depends on the measure (the position marginal)."""
        return self.coupling_strength > 0

    # -- coupling -------------------------------------------------------------

    def _coupling(self, kernel, x, m):
        if not self.is_coupled or m is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        if not isinstance(m, ParticleEnsemble):
            raise InvalidInputError("measure handle must be a ParticleEnsemble or None")
        return self.coupling_strength * kernel(x, m.positions, m.weights, self.coupling_sigma)

    def coupling_value(self, x, m):
        return self._coupling(measures.kernel_smooth, x, m)

    def coupling_dx(self, x, m):
        return self._coupling(measures.kernel_smooth_dx, x, m)

    def coupling_dxx(self, x, m):
        return self._coupling(measures.kernel_smooth_dxx, x, m)


@dataclass(frozen=True)
class TerminalCost:
    """Terminal cost g(x, m) with its space derivative and sup-norm bounds."""

    g: Callable
    dg: Callable
    dg_bound: float = 0.0
    g_inf: float = 0.0
    dgg: Callable | None = None

    def second_derivative(self, x, m=None):
        if self.dgg is not None:
            return self.dgg(x, m)
        h = 1e-5
        return (self.dg(np.asarray(x) + h, m) - self.dg(np.asarray(x) - h, m)) / (2 * h)


@dataclass(frozen=True)
class HamiltonianEval:
    H0: float
    v_star: float


def eval_L0(spec: LagrangianSpec, x, v, m=None):
    """L0(x, v, m); vectorized over x and v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise InvalidInputError("positions and velocities must be finite")
    return spec.kinetic(v) + spec.potential(x) + spec.coupling_value(x, m)


def eval_L0_dx(spec: LagrangianSpec, x, v, m=None):
    return spec.potential_d(np.asarray(x, dtype=float)) + spec.coupling_dx(x, m)


def eval_L0_dv(spec: LagrangianSpec, x, v, m=None):
    return spec.kinetic_d(np.asarray(v, dtype=float))


def legendre_transform(spec: LagrangianSpec, x, p, m=None, v_max=None) -> HamiltonianEval:
    """H0(x, p, m) = sup_v { -<p, v> - L0(x, v, m) } with the optimizing velocity.

    Coarse grid argmax over velocities, then Newton refinement of the first-order
    condition kinetic'(v) + p = 0.
    """
    if not (np.isfinite(x) and np.isfinite(p)):
        raise InvalidInputError("x and p must be finite")
    if v_max is None:
        v_max = max(8.0, 2.0 * abs(p) + 2.0)
    grid = np.linspace(-v_max, v_max, LEGENDRE_GRID_POINTS)
    objective = -p * grid - spec.kinetic(grid)
    v = float(grid[np.argmax(objective)])
    best_v, best_res = v, abs(spec.kinetic_d(v) + p)
    for _ in range(LEGENDRE_NEWTON_MAXITER):
        f = spec.kinetic_d(v) + p
        if abs(f) < LEGENDRE_NEWTON_TOL:
            h0 = float(-p * v - eval_L0(spec, x, v, m))
            return HamiltonianEval(h0, float(v))
        fp = spec.kinetic_dd(v)
        if fp <= 0:
            break
        v = v - f / fp
        if abs(spec.kinetic_d(v) + p) < best_res:
            best_v, best_res = v, abs(spec.kinetic_d(v) + p)
    raise NumericalError(
        f"Legendre Newton refinement stalled at residual {best_res:.3e}",
        best=HamiltonianEval(float(-p * best_v - eval_L0(spec, x, best_v, m)), best_v),
        residual=best_res,
    )


def optimal_velocity_field(spec: LagrangianSpec, u_grad_x, m=None):
    """Transport velocity b = argmin_v { <p, v> + L0 } at momenta p = D_x u.

    For the separable catalog the optimizer depends on p only, so this is a
    pointwise map over the gradient field.
    """
    p = np.asarray(u_grad_x, dtype=float)
    if spec.is_quadratic_kinetic:
        return -p
    out = np.empty_like(p)
    flat_p = p.ravel()
    flat_o = out.ravel()
    for i, pi in enumerate(flat_p):
        flat_o[i] = legendre_transform(spec, 0.0, pi, m).v_star
    return out


@dataclass(frozen=True)
class AuditReport:
    """Worst-case margins for the standing-assumption inequalities (>= 0 means satisfied)."""

    margins: dict
    n_samples: int
    box: tuple
    tolerance: float = 1e-8

    @property
    def passed(self) -> bool:
        return all(v >= -self.tolerance for v in self.margins.values())


def audit_assumptions(
    spec: LagrangianSpec,
    box=((-5.0, 5.0), (-5.0, 5.0)),
    samples: int = 400,
    g: TerminalCost | None = None,
    m: ParticleEnsemble | None = None,
) -> AuditReport:
    """Sample the compact box and report margins for convexity, growth, gradient
    bounds, nonnegativity, and the terminal-cost constant inequality."""
    rng = np.random.default_rng(0)
    (x0, x1), (v0, v1) = box
    xs = rng.uniform(x0, x1, size=samples)
    vs = rng.uniform(v0, v1, size=samples)
    h = 1e-4
    l0 = eval_L0(spec, xs, vs, m)
    second_diff = (eval_L0(spec, xs, vs + h, m) - 2 * l0 + eval_L0(spec, xs, vs - h, m)) / h**2
    margins = {
        "convexity": float(np.min(second_diff - 1.0 / spec.M0)),
        "growth_upper": float(np.min(spec.M0 * (1 + vs**2) - l0)),
        "growth_lower": float(np.min(l0 - (vs**2 / spec.M0 - spec.M0))),
        "grad_x": float(np.min(spec.M0 * (1 + vs**2) - np.abs(eval_L0_dx(spec, xs, vs, m)))),
        "grad_v": float(np.min(spec.M0 * (1 + np.abs(vs)) - np.abs(eval_L0_dv(spec, xs, vs, m)))),
        "nonnegative": float(np.min(l0)),
    }
    if g is not None:
        margins["terminal_constant"] = float(spec.M0 - max(0.5, 0.5 * g.dg_bound))
    return AuditReport(margins=margins, n_samples=samples, box=box)


# -- catalog -----------------------------------------------------------------

# model name -> (kinetic term, potential term)
MODELS = {
    "quadratic": ("quadratic", "harmonic"),
    "quartic": ("quartic", "harmonic"),
    "cosine": ("quadratic", "cosine"),
}
TERMINALS = ("zero", "atan")


def make_lagrangian(
    name: str = "quadratic",
    kappa_pot: float = 0.5,
    kappa_c: float = 0.0,
    sigma: float = 0.3,
    M0: float = 60.0,
) -> LagrangianSpec:
    """Built-in Lagrangian catalog; user models enter through parameters only."""
    quadratic = dict(
        kinetic=lambda v: 0.5 * v**2,
        kinetic_d=lambda v: np.asarray(v, dtype=float),
        kinetic_dd=lambda v: np.ones_like(np.asarray(v, dtype=float)),
        kinetic_name="quadratic",
    )
    quartic = dict(
        kinetic=lambda v: 0.25 * v**4 + 0.5 * v**2,
        kinetic_d=lambda v: v**3 + v,
        kinetic_dd=lambda v: 3.0 * v**2 + 1.0,
        kinetic_name="quartic",
    )
    harmonic = dict(
        potential=lambda x: kappa_pot * 0.5 * x**2,
        potential_d=lambda x: kappa_pot * np.asarray(x, dtype=float),
        potential_dd=lambda x: kappa_pot * np.ones_like(np.asarray(x, dtype=float)),
    )
    cosine = dict(
        potential=lambda x: kappa_pot * (1.0 + np.cos(x)),
        potential_d=lambda x: -kappa_pot * np.sin(x),
        potential_dd=lambda x: -kappa_pot * np.cos(x),
    )
    kinetics = {"quadratic": quadratic, "quartic": quartic}
    potentials = {"harmonic": harmonic, "cosine": cosine}
    if name not in MODELS:
        raise UnsupportedModelError(f"unknown catalog model {name!r}")
    kinetic, potential = MODELS[name]
    return LagrangianSpec(
        **kinetics[kinetic], **potentials[potential],
        coupling_strength=kappa_c, coupling_sigma=sigma, M0=M0,
    )


def make_terminal(name: str = "zero", amplitude: float = 1.0) -> TerminalCost:
    if name not in TERMINALS:
        raise UnsupportedModelError(f"unknown terminal cost {name!r}")
    if name == "zero":
        zero = lambda x, m=None: np.zeros_like(np.asarray(x, dtype=float))
        return TerminalCost(g=zero, dg=zero, dg_bound=0.0, g_inf=0.0)
    return TerminalCost(
        g=lambda x, m=None: amplitude * np.arctan(np.asarray(x, dtype=float)),
        dg=lambda x, m=None: amplitude / (1.0 + np.asarray(x, dtype=float) ** 2),
        dg_bound=amplitude,
        g_inf=amplitude * np.pi / 2.0,
    )
