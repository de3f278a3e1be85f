"""Particle ensembles, kernel smoothing, and W1 distances."""

import numpy as np
import pytest

from mfglab import (
    InvalidInputError,
    wasserstein1_1d,
    wasserstein1_joint,
)
from mfglab.measures import ParticleEnsemble, kernel_smooth

from oracles import w1_cdf_1d, w1_permutation


def _delta(x, v=None):
    return ParticleEnsemble(np.array([x]), None if v is None else np.array([v]))


def test_ensemble_validation():
    with pytest.raises(InvalidInputError):
        ParticleEnsemble(np.empty(0))
    with pytest.raises(InvalidInputError):
        ParticleEnsemble(np.array([0.0, np.inf]))
    with pytest.raises(InvalidInputError):
        ParticleEnsemble(np.array([0.0, 1.0]), weights=np.array([0.5, 0.6]))
    with pytest.raises(InvalidInputError):
        ParticleEnsemble(np.array([0.0, 1.0]), np.array([0.0]))


def test_w1_1d_examples():
    assert wasserstein1_1d(_delta(0.0), _delta(1.0)) == pytest.approx(1.0)
    same = ParticleEnsemble(np.array([0.3, -0.7]))
    assert wasserstein1_1d(same, same) == pytest.approx(0.0, abs=1e-15)
    a = ParticleEnsemble(np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]))
    b = ParticleEnsemble(np.array([0.0, 1.0]), weights=np.array([0.25, 0.75]))
    assert wasserstein1_1d(a, b) == pytest.approx(0.25, abs=1e-12)


def test_w1_1d_rejects_joint_and_matches_cdf_oracle():
    joint = ParticleEnsemble(np.array([0.0]), np.array([0.0]))
    with pytest.raises(InvalidInputError):
        wasserstein1_1d(joint, joint)
    rng = np.random.default_rng(5)
    for _ in range(30):
        n, m = rng.integers(1, 20, size=2)
        wa = rng.uniform(0.1, 1.0, size=n)
        wb = rng.uniform(0.1, 1.0, size=m)
        a = ParticleEnsemble(rng.normal(size=n), None, wa / wa.sum())
        b = ParticleEnsemble(rng.normal(size=m), None, wb / wb.sum())
        oracle = w1_cdf_1d(a.positions, a.weights, b.positions, b.weights)
        assert wasserstein1_1d(a, b) == pytest.approx(oracle, abs=1e-12)


def test_w1_1d_metric_properties():
    rng = np.random.default_rng(6)
    for _ in range(200):
        sizes = rng.integers(1, 17, size=3)
        ens = [ParticleEnsemble(rng.normal(size=s)) for s in sizes]
        dab = wasserstein1_1d(ens[0], ens[1])
        dba = wasserstein1_1d(ens[1], ens[0])
        assert abs(dab - dba) < 1e-12
        dac = wasserstein1_1d(ens[0], ens[2])
        dcb = wasserstein1_1d(ens[2], ens[1])
        assert dab <= dac + dcb + 1e-12


def test_w1_joint_examples():
    mu = ParticleEnsemble(np.array([0.1, 0.4]), np.array([1.0, -1.0]))
    assert float(wasserstein1_joint(mu, mu)) == pytest.approx(0.0, abs=1e-14)
    d = wasserstein1_joint(_delta(0.0, 0.0), _delta(1.0, 1.0))
    assert float(d) == pytest.approx(2.0) and d.exact


def test_w1_joint_four_points_vs_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = ParticleEnsemble(rng.normal(size=4), rng.normal(size=4))
        b = ParticleEnsemble(rng.normal(size=4), rng.normal(size=4))
        cost = np.abs(a.positions[:, None] - b.positions[None, :]) + np.abs(
            a.velocities[:, None] - b.velocities[None, :]
        )
        assert float(wasserstein1_joint(a, b)) == pytest.approx(
            w1_permutation(cost), abs=1e-12
        )


def test_w1_joint_reduces_to_1d_on_marginals():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n, m = rng.integers(2, 33, size=2)
        wa = rng.uniform(0.1, 1.0, size=n)
        wb = rng.uniform(0.1, 1.0, size=m)
        a = ParticleEnsemble(rng.normal(size=n), None, wa / wa.sum())
        b = ParticleEnsemble(rng.normal(size=m), None, wb / wb.sum())
        res = wasserstein1_joint(a, b)
        assert res.exact
        assert res.value == pytest.approx(wasserstein1_1d(a, b), abs=1e-10)


def test_w1_joint_mixed_dimensions_rejected():
    with pytest.raises(InvalidInputError):
        wasserstein1_joint(_delta(0.0, 0.0), _delta(0.0))


def test_w1_joint_sliced_fallback_flagged():
    rng = np.random.default_rng(9)
    a = ParticleEnsemble(rng.normal(size=40), rng.normal(size=40))
    b = ParticleEnsemble(rng.normal(size=40), rng.normal(size=40))
    res = wasserstein1_joint(a, b, n_exact=10)
    assert not res.exact
    assert res.value >= 0


def test_duality_lower_bound():
    # 1-Lipschitz piecewise-linear test functions never beat the distance
    rng = np.random.default_rng(10)
    for _ in range(100):
        a = ParticleEnsemble(rng.normal(size=8))
        b = ParticleEnsemble(rng.normal(size=8))
        knots = np.sort(rng.uniform(-4.0, 4.0, size=9))
        slopes = rng.uniform(-1.0, 1.0, size=8)
        vals = np.concatenate(([0.0], np.cumsum(slopes * np.diff(knots))))
        f = lambda x: np.interp(x, knots, vals)
        gap = np.sum(a.weights * f(a.positions)) - np.sum(b.weights * f(b.positions))
        assert gap <= wasserstein1_1d(a, b) + 1e-10


def test_smoothed_density_kernel_value():
    m = ParticleEnsemble(np.array([0.0]))
    assert kernel_smooth(0.0, m.positions, m.weights, 1.0) == pytest.approx(
        1.0 / np.sqrt(2.0 * np.pi)
    )


def test_smoothed_density_monte_carlo():
    rng = np.random.default_rng(12)
    m = ParticleEnsemble(rng.normal(size=1000))
    grid = np.linspace(-5.0, 5.0, 1001)
    dens = kernel_smooth(grid, m.positions, m.weights, 0.3)
    truth = np.exp(-0.5 * grid**2) / np.sqrt(2.0 * np.pi)
    l1 = np.trapezoid(np.abs(dens - truth), grid)
    assert l1 < 0.1
