"""Lagrangian families, terminal costs, and the optimal velocity at a momentum.

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
    # the quadratic-only solvers read this label, so a custom kinetic term names itself
    kinetic_name: str
    coupling_strength: float = 0.0
    coupling_sigma: float = 0.3
    M0: float = 60.0

    def __post_init__(self):
        c, sigma, M0 = self.coupling_strength, self.coupling_sigma, self.M0
        if not (0 <= c < np.inf and 0 < sigma < np.inf and 0 < M0 < np.inf):
            raise InvalidInputError("need finite coupling_strength >= 0, coupling_sigma > 0, M0 > 0")

    @property
    def is_quadratic_kinetic(self) -> bool:
        """The guard of the solvers that need the quadratic kinetic term; no number reads it."""
        return self.kinetic_name == "quadratic"

    @property
    def is_coupled(self) -> bool:
        """Whether the running cost depends on the measure (the position marginal)."""
        return self.coupling_strength > 0

    # -- coupling -------------------------------------------------------------

    def coupling_value(self, x, m, order=0):
        """coupling_strength * F(x, m) (order 0) or its first or second x-derivative
        (order 1 or 2); zero when the cost is uncoupled or m is None."""
        if not self.is_coupled or m is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        if not isinstance(m, ParticleEnsemble):
            raise InvalidInputError("measure handle must be a ParticleEnsemble or None")
        return self.coupling_strength * measures.kernel_smooth(
            x, m.positions, m.weights, self.coupling_sigma, order
        )


@dataclass(frozen=True)
class TerminalCost:
    """Terminal cost g(x, m) with its first and second space derivatives and
    sup-norm bounds."""

    g: Callable
    dg: Callable
    dgg: Callable
    dg_bound: float = 0.0
    g_inf: float = 0.0


def eval_L0(spec: LagrangianSpec, x, v, m=None):
    """L0(x, v, m); vectorized over x and v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise InvalidInputError("positions and velocities must be finite")
    return spec.kinetic(v) + spec.potential(x) + spec.coupling_value(x, m)


def _legendre_newton(spec: LagrangianSpec, p):
    """Velocities v with kinetic'(v) + p = 0 at momenta p, by Newton from v = -p.

    -p is the quadratic kinetic term's answer. For a convex kinetic term with
    kinetic'(0) = 0 and kinetic''(v) >= 1 (the catalog's), the root lies
    between 0 and -p, and for the quartic kinetic'(v) + p is concave on the
    root's side of 0, so the iterates move monotonically to the root. An entry
    stops moving once its residual is below the tolerance, so each result is
    independent of the other momenta. Returns the best iterates and their
    residuals; the caller raises if a residual missed the tolerance.
    """
    p = np.asarray(p, dtype=float)
    v = -p
    res = np.abs(spec.kinetic_d(v) + p)
    best, best_res = v, res
    for _ in range(LEGENDRE_NEWTON_MAXITER):
        active = ~(res < LEGENDRE_NEWTON_TOL)  # NaN residuals stay active
        if not active.any():
            break
        fp = spec.kinetic_dd(v)
        if np.any(active & (fp <= 0)):
            break
        v = np.where(active, v - (spec.kinetic_d(v) + p) / np.where(active, fp, 1.0), v)
        res = np.where(active, np.abs(spec.kinetic_d(v) + p), res)
        better = res < best_res
        best, best_res = np.where(better, v, best), np.where(better, res, best_res)
    return best, best_res


def optimal_velocity_field(spec: LagrangianSpec, u_grad_x):
    """Transport velocity b = argmin_v { <p, v> + L0 } at momenta p = D_x u.

    For the separable catalog the optimizer depends on p only, so this is one
    array Newton iteration over the gradient field. Its first iterate -p is
    the quadratic kinetic term's answer, where it stops at residual 0.
    """
    p = np.asarray(u_grad_x, dtype=float)
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("momenta must be finite")
    v, res = _legendre_newton(spec, p)
    if not np.all(res < LEGENDRE_NEWTON_TOL):
        worst = float(np.max(res))
        raise NumericalError(
            f"Legendre Newton refinement stalled at residual {worst:.3e}", best=v, residual=worst
        )
    return v


@dataclass(frozen=True)
class AuditReport:
    """Worst-case margins for the standing-assumption inequalities (>= 0 means satisfied)."""

    margins: dict

    @property
    def passed(self) -> bool:
        return all(v >= -AUDIT_TOLERANCE for v in self.margins.values())


AUDIT_BOX = ((-5.0, 5.0), (-5.0, 5.0))
AUDIT_SAMPLES = 400
AUDIT_TOLERANCE = 1e-8  # a margin this far below 0 still passes


def audit_assumptions(spec: LagrangianSpec, g: TerminalCost | None = None) -> AuditReport:
    """Sample AUDIT_BOX at AUDIT_SAMPLES points and report margins for convexity,
    growth, gradient bounds, nonnegativity, and the terminal-cost constant inequality."""
    rng = np.random.default_rng(0)
    (x0, x1), (v0, v1) = AUDIT_BOX
    xs = rng.uniform(x0, x1, size=AUDIT_SAMPLES)
    vs = rng.uniform(v0, v1, size=AUDIT_SAMPLES)
    h = 1e-4
    l0 = eval_L0(spec, xs, vs)
    second_diff = (eval_L0(spec, xs, vs + h) - 2 * l0 + eval_L0(spec, xs, vs - h)) / h**2
    margins = {
        "convexity": float(np.min(second_diff - 1.0 / spec.M0)),
        "growth_upper": float(np.min(spec.M0 * (1 + vs**2) - l0)),
        "growth_lower": float(np.min(l0 - (vs**2 / spec.M0 - spec.M0))),
        "grad_x": float(np.min(spec.M0 * (1 + vs**2) - np.abs(spec.potential_d(xs)))),
        "grad_v": float(np.min(spec.M0 * (1 + np.abs(vs)) - np.abs(spec.kinetic_d(vs)))),
        "nonnegative": float(np.min(l0)),
    }
    if g is not None:
        margins["terminal_constant"] = float(spec.M0 - max(0.5, 0.5 * g.dg_bound))
    return AuditReport(margins)


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
    if not np.isfinite(kappa_pot):
        raise InvalidInputError("kappa_pot must be finite")
    kinetic, potential = MODELS[name]
    return LagrangianSpec(
        **kinetics[kinetic], **potentials[potential],
        coupling_strength=kappa_c, coupling_sigma=sigma, M0=M0,
    )


def make_terminal(name: str = "zero", amplitude: float = 1.0) -> TerminalCost:
    if name not in TERMINALS:
        raise UnsupportedModelError(f"unknown terminal cost {name!r}")
    if not np.isfinite(amplitude):
        raise InvalidInputError("the terminal amplitude must be finite")
    if name == "zero":
        zero = lambda x, m=None: np.zeros_like(np.asarray(x, dtype=float))
        return TerminalCost(g=zero, dg=zero, dgg=zero, dg_bound=0.0, g_inf=0.0)
    return TerminalCost(
        g=lambda x, m=None: amplitude * np.arctan(np.asarray(x, dtype=float)),
        dg=lambda x, m=None: amplitude / (1.0 + np.asarray(x, dtype=float) ** 2),
        dgg=lambda x, m=None: -2.0 * amplitude * np.asarray(x, dtype=float)
        / (1.0 + np.asarray(x, dtype=float) ** 2) ** 2,
        dg_bound=abs(amplitude),
        g_inf=abs(amplitude) * np.pi / 2.0,
    )
