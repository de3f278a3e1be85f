"""Particle ensembles, kernel smoothing, and W1 distances."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfglab import (
    InvalidInputError,
    gaussian_ensemble,
    make_lagrangian,
    measures,
    wasserstein1_1d,
    wasserstein1_joint,
)
from mfglab.measures import (
    MeasureFlow,
    ParticleEnsemble,
    W1Result,
    _ground_cost,
    _joint_w1_bounds,
    _w1_quantile,
    _w1_sliced,
    kernel_smooth,
    linear_binning,
    sup_w1_marginal,
)

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
        ParticleEnsemble(np.array([0.0, 1.0]), weights=np.array([np.nan, 1.0]))
    with pytest.raises(InvalidInputError):
        ParticleEnsemble(np.array([0.0, 1.0]), np.array([0.0]))


def test_flow_rejects_one_dimensional_positions():
    """One position per time node is not a (n_times, n_particles) array."""
    with pytest.raises(InvalidInputError, match=r"shape \(n_times, n_particles\)"):
        MeasureFlow([0.0, 1.0], [1.0, 2.0], None, [1.0])


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


def test_w1_joint_sliced_fallback_flagged(monkeypatch):
    """Past _N_EXACT particles, and for weighted or unequal-count phase-space
    pairs at any size, the joint W1 is the sliced value, flagged approximate."""
    rng = np.random.default_rng(9)
    a = ParticleEnsemble(rng.normal(size=40), rng.normal(size=40))
    b = ParticleEnsemble(rng.normal(size=40), rng.normal(size=40))
    w = rng.uniform(0.5, 1.5, size=40)
    weighted = ParticleEnsemble(b.positions, b.velocities, w / w.sum())
    fewer = ParticleEnsemble(b.positions[:30], b.velocities[:30])
    for other in (weighted, fewer):
        assert wasserstein1_joint(a, other) == W1Result(_w1_sliced(a, other), False)
    monkeypatch.setattr(measures, "_N_EXACT", 10)
    res = wasserstein1_joint(a, b)
    assert not res.exact
    assert res.value >= 0


def test_w1_joint_fallback_is_exact_without_velocities():
    # a velocity-free pair goes to the quantile W1, which is exact at any size
    rng = np.random.default_rng(10)
    a = ParticleEnsemble(rng.normal(size=40))
    b = ParticleEnsemble(rng.normal(size=30) + 0.5)
    big = rng.normal(size=(2, 2000))  # uniform and of equal count: still the quantile, not an assignment
    for x, y in ((a, b), (ParticleEnsemble(big[0]), ParticleEnsemble(big[1] + 0.5))):
        res = wasserstein1_joint(x, y)
        assert res.exact
        assert res.value == wasserstein1_1d(x, y)


_COORD = st.floats(-5.0, 5.0, allow_nan=False)


@settings(max_examples=60, deadline=None, database=None)
@given(points=st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD), min_size=1, max_size=12))
# x + v rounds the 1e-9 offset to 1.0000000827e-09 along (1, 1), above the exact W1 of 1e-9
@example(points=[(1e-9, 1.0, 0.0, 1.0)])
def test_rank_pairing_bounds_bracket_exact_and_sliced_w1(points):
    xa, va, xb, vb = np.array(points).T
    a, b = ParticleEnsemble(xa, va), ParticleEnsemble(xb, vb)
    slack = 1.0 + 1e-9  # the relative slack of analysis._sup_joint_gap
    lower, upper = _joint_w1_bounds(a, b)
    exact = wasserstein1_joint(a, b)
    with pytest.MonkeyPatch.context() as mp:  # a function-scoped fixture would outlive the examples
        mp.setattr(measures, "_N_EXACT", 0)
        sliced_lower, sliced_upper = _joint_w1_bounds(a, b)
        sliced = wasserstein1_joint(a, b)
    assert exact.exact and not sliced.exact
    assert lower <= exact.value * slack <= upper * slack**2
    assert sliced_upper == upper and sliced_lower == 0.0  # no lower bound on a sliced value
    assert sliced.value <= upper * slack


def test_rank_pairing_bounds_are_exact_for_a_translation():
    rng = np.random.default_rng(11)
    x, v = rng.normal(size=(2, 50))
    a, b = ParticleEnsemble(x, v), ParticleEnsemble(x + 0.25, v - 0.5)
    lower, upper = _joint_w1_bounds(a, b)
    assert lower == pytest.approx(0.75, rel=1e-12)  # along x - v
    assert upper == pytest.approx(0.75, rel=1e-12)


def test_rank_pairing_bounds_need_equal_counts_and_strictly_uniform_weights():
    rng = np.random.default_rng(12)
    x, v = rng.normal(size=(2, 40))
    a = ParticleEnsemble(x, v)
    assert np.isfinite(_joint_w1_bounds(a, ParticleEnsemble(x + 1.0, v))[1])
    assert _joint_w1_bounds(a, ParticleEnsemble(x[:39], v[:39])) == (0.0, np.inf)
    # weights 1e-6 off 1/n pass np.allclose's default tolerances, but a rank
    # pairing of them is no coupling
    w = np.where(np.arange(40) % 2 == 0, 1.0 + 1e-6, 1.0 - 1e-6) / 40
    near = ParticleEnsemble(x + 1.0, v, w / w.sum())
    assert np.allclose(near.weights, 1.0 / 40)
    assert _joint_w1_bounds(a, near) == (0.0, np.inf)
    assert _joint_w1_bounds(near, a) == (0.0, np.inf)


def test_sup_w1_marginal_uses_the_strict_uniform_rule():
    n = 100_000
    rng = np.random.default_rng(13)
    t = np.array([0.0, 1.0])
    X = rng.normal(size=(2, n))
    Y = rng.normal(size=(2, n)) + 0.5
    w = np.where(X[0] > 0, 1.0009, 0.9991) / n
    w /= w.sum()
    assert np.allclose(w, 1.0 / n)  # "uniform" by np.allclose's default tolerances
    a, b = MeasureFlow(t, X, None, w), MeasureFlow(t, Y, None, np.full(n, 1.0 / n))
    quantile = max(_w1_quantile(xa, w, xb, b.weights) for xa, xb in zip(X, Y))
    paired = np.max(np.mean(np.abs(np.sort(X, axis=1) - np.sort(Y, axis=1)), axis=1))
    assert abs(paired - quantile) > 5e-4  # pairing sorted rows would be wrong here
    assert sup_w1_marginal(a, b) == quantile
    assert sup_w1_marginal(b, a) == pytest.approx(quantile, abs=1e-12)


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


@pytest.mark.parametrize("order", [-1, 3, 0.5])
def test_kernel_smooth_rejects_other_orders(order):
    m = ParticleEnsemble(np.array([0.0]))
    with pytest.raises(InvalidInputError, match="order"):
        kernel_smooth(0.0, m.positions, m.weights, 1.0, order)


def test_smoothed_density_monte_carlo():
    rng = np.random.default_rng(12)
    m = ParticleEnsemble(rng.normal(size=1000))
    grid = np.linspace(-5.0, 5.0, 1001)
    dens = kernel_smooth(grid, m.positions, m.weights, 0.3)
    truth = np.exp(-0.5 * grid**2) / np.sqrt(2.0 * np.pi)
    l1 = np.trapezoid(np.abs(dens - truth), grid)
    assert l1 < 0.1


# -- linear binning of a flow on a uniform lattice -------------------------------

NODES = np.linspace(-3.0, 3.0, 101)


def _random_flow(rng, n_particles, spread=1.5, n_times=7):
    pos = rng.normal(0.0, spread, size=(n_times, n_particles))
    return MeasureFlow(np.linspace(0.0, 1.0, n_times), pos, None, rng.dirichlet(np.ones(n_particles)))


def test_linear_binning_rows_keep_the_mass():
    rng = np.random.default_rng(3)
    flow = _random_flow(rng, 50)
    lattice, table = linear_binning(flow, NODES)
    assert table.shape == (flow.n_times, lattice.size)
    assert np.all(table >= 0)
    assert np.allclose(table.sum(axis=1), flow.weights.sum(), rtol=0, atol=1e-14)
    # the lattice keeps the spacing and offset of the nodes
    assert np.allclose(np.diff(lattice), NODES[1] - NODES[0], rtol=0, atol=1e-12)
    assert np.min(np.abs(lattice - NODES[0])) < 1e-12


def test_linear_binning_extends_past_the_grid():
    h = NODES[1] - NODES[0]
    pos = np.array([[-3.0 - 2.5 * h, 0.01, 3.0 + 4.2 * h], [-3.0, 3.0, 3.0]])
    flow = MeasureFlow(np.array([0.0, 1.0]), pos, None, np.array([0.2, 0.3, 0.5]))
    lattice, table = linear_binning(flow, NODES)
    assert lattice[0] <= pos.min() and lattice[-1] >= pos.max()
    assert lattice.size == NODES.size + 3 + 5
    assert np.allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    for k in range(2):
        # mass only on nodes next to a particle, with the particles' mean
        support = lattice[table[k] > 0]
        assert np.all(np.min(np.abs(support[:, None] - pos[k]), axis=1) < h)
        assert table[k] @ lattice == pytest.approx(flow.weights @ pos[k], abs=1e-12)


def test_linear_binning_exact_for_particles_on_nodes():
    nodes = np.linspace(-2.0, 2.0, 17)  # spacing 1/4: the deposit fractions are exact
    rng = np.random.default_rng(4)
    idx = rng.integers(-3, 20, size=(5, 9))  # some nodes past either end
    pos = nodes[0] + 0.25 * idx
    flow = MeasureFlow(np.linspace(0.0, 1.0, 5), pos, None, rng.dirichlet(np.ones(9)))
    lattice, table = linear_binning(flow, nodes)
    for k in range(flow.n_times):
        exact = kernel_smooth(NODES, pos[k], flow.weights, 0.3)
        binned = kernel_smooth(NODES, lattice, table[k], 0.3)
        assert np.allclose(binned, exact, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("sigma", [0.3, 0.1])
def test_linear_binning_coupling_error_bound(sigma):
    """|F_binned - F_exact| <= kappa_c h^2 / (8 sigma^3 sqrt(2 pi)) for unit mass."""
    kappa_c = 0.5
    spec = make_lagrangian("quadratic", kappa_c=kappa_c, sigma=sigma)
    h = NODES[1] - NODES[0]
    bound = kappa_c * h**2 / (8.0 * sigma**3 * np.sqrt(2.0 * np.pi))
    rng = np.random.default_rng(5)
    worst = 0.0
    for n_particles in (1, 2, 5, 40):
        flow = _random_flow(rng, n_particles, spread=2.0)
        lattice, table = linear_binning(flow, NODES)
        for k in range(flow.n_times):
            exact = spec.coupling_value(NODES, flow.marginal(k))
            binned = spec.coupling_value(NODES, ParticleEnsemble(lattice, None, table[k]))
            worst = max(worst, float(np.max(np.abs(binned - exact))))
    assert worst <= bound
    assert worst > 0.1 * bound  # the bound is not vacuous on these flows


def test_joint_ground_cost_holds_one_cost_matrix():
    """|dv| is added into the |dx| matrix in row blocks: the traced peak of a
    2000 x 2000 joint cost stays within 10% of the matrix itself."""
    a, b = gaussian_ensemble(2000, seed=1), gaussian_ensemble(2000, seed=2)
    tracemalloc.start()
    try:
        cost = _ground_cost(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * cost.nbytes
    reference = np.abs(np.subtract.outer(a.positions, b.positions))
    reference += np.abs(np.subtract.outer(a.velocities, b.velocities))
    assert np.array_equal(cost, reference)
