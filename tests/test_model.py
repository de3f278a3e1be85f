"""Lagrangian catalog, the optimal velocity at a momentum, and assumption audits."""

import numpy as np
import pytest

from mfglab import (
    InvalidInputError,
    NumericalError,
    UnsupportedModelError,
    audit_assumptions,
    eval_L0,
    make_lagrangian,
    make_terminal,
    optimal_velocity_field,
)
from mfglab.measures import ParticleEnsemble
from mfglab.model import LagrangianSpec, eval_L0_dv, eval_L0_dx

from oracles import legendre_velocity


def _const_spec(c):
    """L0 identically c, for boundary-behavior tests."""
    zero = lambda v: np.zeros_like(np.asarray(v, dtype=float))
    return LagrangianSpec(
        kinetic=zero,
        kinetic_d=zero,
        kinetic_dd=zero,
        potential=lambda x: np.full_like(np.asarray(x, dtype=float), c),
        potential_d=zero,
        potential_dd=zero,
        kinetic_name="constant",
    )


def test_eval_l0_kinetic_only():
    spec = make_lagrangian("quadratic", kappa_pot=0.0)
    assert eval_L0(spec, 3.0, 2.0) == pytest.approx(2.0)


def test_eval_l0_with_potential():
    spec = make_lagrangian("quadratic", kappa_pot=1.0)
    assert eval_L0(spec, 1.0, 1.0) == pytest.approx(1.0)


def test_eval_l0_coupling_single_particle():
    spec = make_lagrangian("quadratic", kappa_pot=0.0, kappa_c=1.0, sigma=1.0)
    m = ParticleEnsemble(np.array([0.7]), np.array([0.0]))
    # Gaussian kernel evaluated at zero distance
    expected = 0.5 * 2.0**2 + 1.0 / np.sqrt(2.0 * np.pi)
    assert eval_L0(spec, 0.7, 2.0, m) == pytest.approx(expected, abs=1e-12)


def test_eval_l0_rejects_nonfinite():
    spec = make_lagrangian("quadratic")
    with pytest.raises(InvalidInputError):
        eval_L0(spec, np.inf, 1.0)
    with pytest.raises(InvalidInputError):
        eval_L0(spec, 0.0, np.nan)


def test_legendre_quartic_against_grid_search():
    spec = make_lagrangian("quartic", kappa_pot=0.0)
    v_star = optimal_velocity_field(spec, np.array([3.0]))[0]
    vs = np.arange(-4.0, 4.0, 1e-4)
    brute = vs[np.argmax(-3.0 * vs - spec.kinetic(vs))]
    assert v_star == pytest.approx(brute, abs=1e-4)
    assert abs(spec.kinetic_d(v_star) + 3.0) < 1e-10


def test_optimal_velocity_field_quadratic():
    spec = make_lagrangian("quadratic")
    assert np.allclose(optimal_velocity_field(spec, np.ones(5)), -1.0)
    assert np.allclose(optimal_velocity_field(spec, np.zeros(5)), 0.0)


def test_optimal_velocity_field_quartic():
    spec = make_lagrangian("quartic")
    b = optimal_velocity_field(spec, np.array([1.0]))
    # b solves kinetic'(b) = -1
    assert abs(spec.kinetic_d(b[0]) + 1.0) < 1e-9
    assert b[0] < 0


def test_optimal_velocity_field_matches_legendre_transform():
    spec = make_lagrangian("quartic")
    p = np.concatenate(([0.0, 1e-12, -1e-12, 50.0, -50.0], np.linspace(-50.0, 50.0, 401)))
    b = optimal_velocity_field(spec, p.reshape(2, -1))
    assert b.shape == (2, p.size // 2)
    ref = np.array([legendre_velocity(spec.kinetic_d, pi) for pi in p])
    assert np.max(np.abs(b.ravel() - ref)) <= 1e-10
    assert np.max(np.abs(spec.kinetic_d(b.ravel()) + p)) < 1e-10


def test_legendre_stall_carries_best_iterate():
    concave = LagrangianSpec(
        kinetic=lambda v: -np.asarray(v, dtype=float) ** 2,
        kinetic_d=lambda v: -2.0 * np.asarray(v, dtype=float),
        kinetic_dd=lambda v: -2.0 * np.ones_like(np.asarray(v, dtype=float)),
        potential=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        potential_d=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        potential_dd=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        kinetic_name="concave",
    )
    with pytest.raises(NumericalError) as field:
        optimal_velocity_field(concave, np.array([0.0, 1.0]))
    assert np.array_equal(field.value.best, [0.0, -1.0]) and field.value.residual == pytest.approx(3.0)
    with pytest.raises(InvalidInputError):
        optimal_velocity_field(make_lagrangian("quartic"), np.array([0.0, np.nan]))


def test_audit_quadratic_passes():
    spec = make_lagrangian("quadratic", kappa_pot=1.0)
    report = audit_assumptions(spec, g=make_terminal("zero"))
    assert report.passed
    assert all(m >= 0 for m in report.margins.values())


def test_audit_concave_kinetic_fails():
    spec = LagrangianSpec(
        kinetic=lambda v: -np.asarray(v, dtype=float) ** 2,
        kinetic_d=lambda v: -2.0 * np.asarray(v, dtype=float),
        kinetic_dd=lambda v: -2.0 * np.ones_like(np.asarray(v, dtype=float)),
        potential=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        potential_d=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        potential_dd=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    report = audit_assumptions(spec)
    assert report.margins["convexity"] < 0
    assert not report.passed


def test_audit_pure_quartic_fails_near_zero():
    spec = LagrangianSpec(
        kinetic=lambda v: 0.5 * np.asarray(v, dtype=float) ** 4,
        kinetic_d=lambda v: 2.0 * np.asarray(v, dtype=float) ** 3,
        kinetic_dd=lambda v: 6.0 * np.asarray(v, dtype=float) ** 2,
        potential=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        potential_d=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        potential_dd=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        M0=1.0,
    )
    report = audit_assumptions(spec)
    assert report.margins["convexity"] < 0


@pytest.mark.parametrize("name", ["quadratic", "cosine", "quartic"])
def test_analytic_derivatives_match_finite_differences(name):
    spec = make_lagrangian(name, kappa_pot=0.7)
    rng = np.random.default_rng(2)
    h = 1e-5
    for x, v in rng.uniform(-2.0, 2.0, size=(100, 2)):
        fd_x = (eval_L0(spec, x + h, v) - eval_L0(spec, x - h, v)) / (2 * h)
        fd_v = (eval_L0(spec, x, v + h) - eval_L0(spec, x, v - h)) / (2 * h)
        assert eval_L0_dx(spec, x, v) == pytest.approx(fd_x, rel=1e-6, abs=1e-6)
        assert eval_L0_dv(spec, x, v) == pytest.approx(fd_v, rel=1e-6, abs=1e-6)


def test_terminal_catalog():
    g = make_terminal("zero")
    assert g.g(1.5) == 0.0 and g.dg_bound == 0.0
    g = make_terminal("atan", amplitude=2.0)
    assert g.g(1.0) == pytest.approx(2.0 * np.arctan(1.0))
    assert g.dg(0.0) == pytest.approx(2.0)
    assert g.dg_bound == 2.0
    assert g.g_inf == np.pi
    # the sup-norm bounds are of |g'| and |g|, so a negative amplitude has the same ones
    g = make_terminal("atan", amplitude=-2.0)
    assert g.dg(0.0) == pytest.approx(-2.0)
    assert (g.dg_bound, g.g_inf) == (2.0, np.pi)
    xs, h = np.linspace(-3.0, 3.0, 13), 1e-5
    for name, amplitude in (("zero", 1.0), ("atan", 0.5), ("atan", 2.0), ("atan", 7.0)):
        g = make_terminal(name, amplitude=amplitude)
        fd = (g.dg(xs + h) - g.dg(xs - h)) / (2 * h)
        assert np.max(np.abs(g.dgg(xs) - fd)) < 1e-9 * max(1.0, amplitude)
    with pytest.raises(UnsupportedModelError):
        make_terminal("nope")
    for name in ("zero", "atan"):
        for amplitude in (float("nan"), float("inf")):
            with pytest.raises(InvalidInputError, match="finite"):
                make_terminal(name, amplitude)


def test_unknown_catalog_model():
    with pytest.raises(UnsupportedModelError):
        make_lagrangian("septic")


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        make_lagrangian("quadratic", M0=-1.0)
    for sigma in (0.0, -0.3, float("nan")):
        with pytest.raises(InvalidInputError, match="coupling_sigma > 0"):
            make_lagrangian("quadratic", kappa_c=0.5, sigma=sigma)
    # non-finite constants are rejected as the config rejects them
    for key in ("kappa_pot", "kappa_c", "sigma", "M0"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                make_lagrangian("cosine", **{key: value})


def test_constant_lagrangian_helper():
    spec = _const_spec(3.0)
    assert eval_L0(spec, 0.3, -1.2) == pytest.approx(3.0)
