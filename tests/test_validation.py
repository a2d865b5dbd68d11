from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from hypodist import (
    DiracPoint,
    Domain,
    Grid,
    GridFunction,
    UniformBox,
    build_grid,
    closure_fixture,
    delta_rect,
    density_convergence,
    distribution_error_pct,
    realize,
    two_uniforms_scenario,
    uuv_scenario,
    verify_sandwich,
)
from tests.conftest import random_lipschitz, random_monotone


# ---------------------------------------------------------------------------
# sandwich verification
# ---------------------------------------------------------------------------


def test_sandwich_identical_functions(unit_interval_grid):
    F = realize(UniformBox([0.0], [1.0]), unit_interval_grid)
    rep = verify_sandwich(F, F, 1.0)
    assert rep.ok
    assert rep.violations == ()
    assert rep.eta_minus == 0.0
    assert rep.hat_rho <= 1e-7
    assert rep.oracle <= 1e-9


def test_sandwich_random_pairs(rng, unit_square_grid):
    for _ in range(20):
        F = random_monotone(rng, unit_square_grid)
        G = random_monotone(rng, unit_square_grid)
        rep = verify_sandwich(F, G, 1.0, samples_per_axis=7)
        assert rep.ok, rep.violations
        assert rep.eta_minus <= rep.hat_rho + 1e-8
        assert rep.hat_rho <= rep.eta_plus + 1e-8
        assert rep.hat_rho <= rep.oracle + rep.lattice_slack + 1e-8
        assert rep.oracle <= rep.hat_two_rho + 2e-8


def test_lattice_slack_halves_with_resolution(unit_interval_grid):
    F = realize(UniformBox([0.0], [1.0]), unit_interval_grid)
    coarse = verify_sandwich(F, F, 1.0, samples_per_axis=9)
    fine = verify_sandwich(F, F, 1.0, samples_per_axis=17)
    assert fine.lattice_slack == pytest.approx(coarse.lattice_slack / 2)


def test_lipschitz_pairs_tight_gap(rng):
    # for kappa-Lipschitz inputs the partition bounds pin the shift distance
    # to within kappa * mesh
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), 9)
    kappa = 1.0
    mesh = 0.125
    for _ in range(10):
        F = random_lipschitz(rng, g, kappa)
        G = random_lipschitz(rng, g, kappa)
        rep = verify_sandwich(F, G, 1.0, samples_per_axis=5)
        assert rep.ok
        assert rep.eta_plus - rep.eta_minus <= kappa * mesh + 2e-8


# ---------------------------------------------------------------------------
# distribution-condition error
# ---------------------------------------------------------------------------


def test_distribution_error_true_cdf_is_zero(unit_square_grid, rng):
    F = realize(UniformBox([0.0, 0.0], [1.0, 1.0]), unit_square_grid)
    assert distribution_error_pct(F) == 0.0
    # any realized spec passes, including random empirical mixtures
    G = random_monotone(rng, unit_square_grid)  # cumsum of nonneg mass
    assert distribution_error_pct(G) == 0.0


def test_distribution_error_detects_violations():
    fx = closure_fixture(1)
    pct = distribution_error_pct(fx.F_limit)
    assert pct == pytest.approx(19.4558, abs=1e-3)


def test_distribution_error_sampled_is_deterministic():
    fx = closure_fixture(1)
    a = distribution_error_pct(fx.F_limit, budget=500)
    b = distribution_error_pct(fx.F_limit, budget=500)
    assert a == b
    assert a > 0.0


def test_distribution_error_1d(unit_interval_grid):
    F = realize(UniformBox([0.0], [1.0]), unit_interval_grid)
    assert distribution_error_pct(F) == 0.0


def rect_mass(v, i, j):
    """Signed corner sum of the node-pair rectangle with lower node indices
    i and upper node indices j, upper corner first."""
    if len(i) == 1:
        return v[j[0]] - v[i[0]]
    return v[j[0], j[1]] - v[i[0], j[1]] - v[j[0], i[1]] + v[i[0], i[1]]


def uneven_function(rng, dim):
    lo = rng.uniform(-1.0, 1.0, size=dim)
    hi = lo + rng.uniform(0.5, 2.0, size=dim)
    axes = [np.concatenate([[a], np.sort(rng.uniform(a, b, size=k)), [b]])
            for a, b, k in zip(lo, hi, rng.integers(2, 8, size=dim))]
    g = Grid(Domain(lo, hi), axes)
    # unordered values, so many rectangles carry negative mass
    return GridFunction(g, 1, rng.uniform(0.0, 1.0, size=g.shape))


@pytest.mark.parametrize("dim", [1, 2])
def test_distribution_error_exhaustive_matches_every_rectangle(rng, dim):
    for _ in range(6):
        F = uneven_function(rng, dim)
        v = F.values
        pairs = [[(i, j) for i in range(n) for j in range(i + 1, n)]
                 for n in F.grid.shape]
        masses = [rect_mass(v, [p[0] for p in combo], [p[1] for p in combo])
                  for combo in itertools.product(*pairs)]
        bad = sum(mass < -1e-9 for mass in masses)
        assert bad > 0
        expected = 100.0 * bad / len(masses)
        assert distribution_error_pct(F, budget=len(masses)) == expected
        assert distribution_error_pct(F) == expected


@pytest.mark.parametrize("dim", [1, 2])
def test_distribution_error_sampled_follows_the_seeded_draw(rng, dim):
    # each axis draws its lower node indices, then its upper ones, in axis order
    for seed in (20250816, 3):
        F = uneven_function(rng, dim)
        v = F.values
        # fewer than the rectangles, so the audit samples
        budget = min(40, math.prod(n * (n - 1) // 2 for n in F.grid.shape) - 1)
        draw = np.random.default_rng(seed)
        lower, upper = [], []
        for n in F.grid.shape:
            lower.append(draw.integers(0, n - 1, size=budget))
            upper.append(draw.integers(lower[-1] + 1, n))
        bad = sum(rect_mass(v, [i[k] for i in lower], [j[k] for j in upper]) < -1e-9
                  for k in range(budget))
        assert distribution_error_pct(F, budget=budget, seed=seed) == 100.0 * bad / budget


def test_distribution_error_on_a_3x4_function_and_a_negated_cdf(rng):
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), [3, 4])
    F = GridFunction(g, 1, rng.integers(0, 8, size=g.shape) / 8.0)
    masses = [rect_mass(F.values, (i0, i1), (j0, j1))
              for i0, j0 in itertools.combinations(range(3), 2)
              for i1, j1 in itertools.combinations(range(4), 2)]
    bad = sum(mass < 0 for mass in masses)  # eighths: every sum is exact
    assert 0 < bad < len(masses) == 18
    assert distribution_error_pct(F) == 100.0 * bad / 18
    # every rectangle of a negated CDF loses mass, sampled or not
    neg = GridFunction(g, 1, -realize(UniformBox([0.0, 0.0], [1.0, 1.0]), g).values)
    assert distribution_error_pct(neg, budget=5) == 100.0


# ---------------------------------------------------------------------------
# density convergence
# ---------------------------------------------------------------------------


def test_density_convergence_dirac_center():
    seq = density_convergence(
        DiracPoint([0.5, 0.5]), (4, 8, 16, 32),
        domain=Domain([0.0, 0.0], [1.0, 1.0]),
    )
    vals = [r.value for r in seq]
    assert vals == sorted(vals, reverse=True)  # strictly decreasing
    for a, b in zip(vals, vals[1:]):
        assert b < a
    assert vals[-1] <= 0.1
    # frozen from the recorded run
    assert vals[0] == pytest.approx(0.20229, abs=2e-3)
    assert vals[-1] == pytest.approx(0.02069, abs=2e-3)


def test_density_convergence_validation():
    dom = Domain([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        density_convergence(DiracPoint([0.5, 0.5]), (4,), domain=dom)
    with pytest.raises(ValueError):
        # levels must divide the fine grid
        density_convergence(DiracPoint([0.5, 0.5]), (3, 7), domain=dom)


# ---------------------------------------------------------------------------
# non-closure fixture
# ---------------------------------------------------------------------------


def test_closure_fixture_deltas_exact():
    for nu in (1, 2, 4, 8):
        fx = closure_fixture(nu)
        assert fx.delta_nu == 0.0
        assert fx.delta_limit == -1.0
        # recompute directly from the functions
        assert delta_rect(fx.F_nu, fx.rect) == 0.0
        assert delta_rect(fx.F_limit, fx.rect) == -1.0


def test_closure_fixture_distance_decreases():
    vals = [closure_fixture(nu, quad_points=32).distance.value
            for nu in (1, 2, 4, 8)]
    for a, b in zip(vals, vals[1:]):
        assert b < a
    # frozen from the recorded run
    assert vals[0] == pytest.approx(0.122349, abs=2e-3)
    assert vals[-1] == pytest.approx(0.036622, abs=2e-3)


def test_closure_fixture_validation():
    with pytest.raises(ValueError):
        closure_fixture(0)


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------


def test_two_uniforms_scenario_fields():
    sc = two_uniforms_scenario()
    assert sc.name == "two-uniforms"
    assert np.allclose(sc.domain.lower, [0.0, 0.0])
    assert np.allclose(sc.domain.upper, [3.0, 3.0])
    assert sc.cells_per_axis == (50, 50)
    assert sc.deltas == (1.0, 0.7, 0.4, 0.1, 1e-4)
    g = build_grid(sc.domain, 11)
    F0, G0 = realize(sc.F0, g), realize(sc.G0, g)
    assert F0([1.2, 1.2]) == pytest.approx(1.0)  # target mass in [0,1]^2
    assert G0([1.8, 1.8]) == pytest.approx(0.0)  # anchor mass in [2,3]^2


def test_uuv_scenario_seeded():
    s1 = uuv_scenario(seed=7)
    s2 = uuv_scenario(seed=7)
    s3 = uuv_scenario(seed=8)
    assert s1.name == "uuv-synthetic"
    assert s1.cells_per_axis == (96, 32)
    assert s1.deltas == (0.9, 0.1, 0.01)
    for key in ("target", "anchor"):
        assert s1.samples[key].shape == (200, 2)
        assert np.array_equal(s1.samples[key], s2.samples[key])
    assert not np.array_equal(s1.samples["target"], s3.samples["target"])
    # clouds sit on opposite ends of the long axis, inside the domain
    t, a = s1.samples["target"], s1.samples["anchor"]
    assert t[:, 0].mean() < 3.0 < a[:, 0].mean()
    for pts in (t, a):
        assert np.all(pts >= s1.domain.lower) and np.all(pts <= s1.domain.upper)
