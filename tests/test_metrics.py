from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodist import (
    DiracPoint,
    Domain,
    Grid,
    GridFunction,
    RhoBall,
    UniformBox,
    build_grid,
    default_rho,
    dl_rho_oracle,
    eta_minus,
    eta_plus,
    hat_dl_rho,
    hypo_dist_estimate,
    kenmochi_ok,
    mesh_size,
    point_hypo_dist,
    realize,
    upper_envelope,
)
from hypodist.grid import lattice
from hypodist.metrics import SUP_TOL, _hat_bracketed, _violation, saturation_radius
from tests.conftest import random_monotone

# ---------------------------------------------------------------------------
# the two-step pair on [0,1]: F jumps at 1, G jumps at 1/2.  On the 100-cell
# grid each jump becomes a ramp over one cell, which makes every quantity
# below computable by hand (the ramp slope is 1/h = 100).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dirac_pair():
    g = build_grid(Domain([0.0], [1.0]), 101)  # 100 cells, h = 0.01
    F = realize(DiracPoint([1.0]), g)
    G = realize(DiracPoint([0.5]), g)
    return F, G, g


def test_point_hypo_dist_hand_values(dirac_pair):
    F, G, g = dirac_pair
    # from (0, 1/2) the cheapest entry into hypo F is straight down: t = 1/2
    assert point_hypo_dist(F, [0.0, 0.5]) == pytest.approx(0.5, abs=1e-12)
    # from (1/2, 1) the ramp is reached diagonally: 100(t - 0.49) + t >= 1
    assert point_hypo_dist(F, [0.5, 1.0]) == pytest.approx(50 / 101, abs=1e-12)
    # same for G's ramp seen from the origin: 101 t >= 49.5
    assert point_hypo_dist(G, [0.0, 0.5]) == pytest.approx(49.5 / 101, abs=1e-12)
    # points already inside the hypograph
    assert point_hypo_dist(F, [1.0, 0.5]) == 0.0
    assert point_hypo_dist(G, [0.5, 1.0]) == 0.0
    # scan and geometric agree
    for P, z in ((F, [0.5, 1.0]), (G, [0.2, 0.3])):
        assert point_hypo_dist(P, z, method="scan") == pytest.approx(
            point_hypo_dist(P, z, method="geometric"), abs=1e-10
        )


def test_oracle_piecewise_values(dirac_pair):
    # the continuous pair has sup values 0, 2*rho - 1/2, 1/2 at these radii;
    # the grid realization shifts each by at most two lattice steps
    F, G, g = dirac_pair
    h = mesh_size(g)
    for rho, want in ((0.2, 0.0), (0.4, 0.3), (0.8, 0.5)):
        got = dl_rho_oracle(F, G, rho, 201)
        assert got == pytest.approx(want, abs=2 * h + 1e-9), rho
    # frozen values of the realized pair (ramp slope 100, so 101 in every
    # denominator): 0 exactly, then 31/101, then 50/101
    assert dl_rho_oracle(F, G, 0.2, 201) == 0.0
    assert dl_rho_oracle(F, G, 0.4, 201) == pytest.approx(31 / 101, abs=1e-12)
    assert dl_rho_oracle(F, G, 0.8, 201) == pytest.approx(50 / 101, abs=1e-12)


def test_oracle_scan_vs_geometric(dirac_pair):
    F, G, g = dirac_pair
    for rho in (0.3, 0.7):
        a = dl_rho_oracle(F, G, rho, 41, method="scan")
        b = dl_rho_oracle(F, G, rho, 41, method="geometric")
        assert a == pytest.approx(b, abs=1e-10)


@pytest.mark.parametrize("kind", ["uniform", "non-uniform", "3-d"])
def test_scan_vs_geometric(rng, kind):
    # h1 != h2, so the scan ray crosses cell diagonals between breakpoints;
    # in 3-d the geometric route solves 1,140 hyperplane triples per simplex,
    # so its grids stay at 3 cells per axis or fewer
    for _ in range(3):
        if kind == "uniform":
            axes = [np.linspace(0.0, 3.0, 7), np.linspace(0.0, 2.0, 6)]
        else:
            axes = [np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, c))])
                    for c in ((5, 4) if kind == "non-uniform" else (3, 2, 3))]
        grid = Grid(Domain([0.0] * len(axes), [a[-1] for a in axes]), axes)
        f = random_monotone(rng, grid)
        for _ in range(40 if len(axes) == 2 else 8):
            x = rng.uniform(grid.domain.lower, grid.domain.upper)
            z = [*x, rng.uniform(-0.2, 1.3)]
            assert point_hypo_dist(f, z, method="scan") == pytest.approx(
                point_hypo_dist(f, z, method="geometric"), abs=1e-10
            )


def test_hat_distance_frozen(dirac_pair):
    F, G, g = dirac_pair
    # binding condition at x = 1/2: eta + 100(eta - 0.49) >= 1, so 50/101
    got = hat_dl_rho(F, G, 1.0)
    assert got == pytest.approx(50 / 101, abs=2e-8)
    em = eta_minus(F, G, 1.0)
    ep = eta_plus(F, G, 1.0)
    assert em == pytest.approx(50 / 101, abs=1e-12)
    assert ep == pytest.approx(51 / 101, abs=1e-12)
    assert em <= got + 2e-8 and got <= ep + 2e-8


def test_kenmochi_ok_threshold(dirac_pair):
    F, G, g = dirac_pair
    assert not kenmochi_ok(F, G, 1.0, 0.49)
    assert kenmochi_ok(F, G, 1.0, 0.5)
    with pytest.raises(ValueError):
        kenmochi_ok(F, G, 1.0, -0.1)


def test_integral_bracket_and_quad_term(dirac_pair):
    F, G, g = dirac_pair
    # closed form for the continuous pair: the integrand is 0 up to 1/4,
    # 2 rho - 1/2 on [1/4, 1/2], then 1/2
    exact = 2 * np.exp(-0.25) - 2 * np.exp(-0.5)
    rep = hypo_dist_estimate(F, G, quad_points=64)
    assert rep.lower_bound <= rep.value <= rep.upper_bound
    assert abs(rep.value - exact) < 0.01
    assert rep.quad_term is not None
    assert rep.width() == pytest.approx(rep.quad_term, abs=1e-12)
    # frozen bracket of the realized pair
    assert rep.lower_bound == pytest.approx(0.300263, abs=1e-5)
    assert rep.upper_bound == pytest.approx(0.391616, abs=1e-5)


def test_identical_functions(dirac_pair):
    F, _, g = dirac_pair
    U = realize(UniformBox([0.0], [1.0]), g)
    assert hat_dl_rho(U, U, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert eta_minus(U, U, 1.0) == 0.0
    # the partition bound pays half a cell of oscillation even at f = g
    assert eta_plus(U, U, 1.0) == pytest.approx(0.005, abs=1e-12)
    # the steep ramp costs a full cell instead
    assert eta_plus(F, F, 1.0) == pytest.approx(1 / 101, abs=1e-12)
    rep = hypo_dist_estimate(U, U, quad_points=16)
    assert rep.value == pytest.approx(0.0, abs=1e-9)


def test_hat_distance_nondecreasing_in_rho(rng, unit_square_grid):
    F = random_monotone(rng, unit_square_grid)
    G = random_monotone(rng, unit_square_grid)
    rhos = (0.25, 0.5, 1.0, 2.0)
    vals = [hat_dl_rho(F, G, r) for r in rhos]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12
    # symmetric in the pair
    assert hat_dl_rho(G, F, 1.0) == pytest.approx(vals[2], abs=1e-12)


def test_sandwich_on_random_pairs(rng):
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), 6)
    rho = default_rho(g.domain)
    for _ in range(25):
        F = random_monotone(rng, g)
        G = random_monotone(rng, g)
        em = eta_minus(F, G, rho)
        hat = hat_dl_rho(F, G, rho)
        ep = eta_plus(F, G, rho)
        assert em <= hat + 2e-8
        assert hat <= ep + 2e-8


def test_ordering_against_oracle(rng):
    # the sampled sup of the truncated distance never exceeds the shift
    # distance at twice the radius
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), 5)
    for _ in range(10):
        F = random_monotone(rng, g)
        G = random_monotone(rng, g)
        for rho in (0.5, 1.0):
            oracle = dl_rho_oracle(F, G, rho, 9)
            hat2 = hat_dl_rho(F, G, 2 * rho)
            assert oracle <= hat2 + 2e-8


def test_eta_plus_tiny_rho(rng, unit_square_grid):
    # the violation cap min(f, rho) collapses as rho -> 0
    F = random_monotone(rng, unit_square_grid)
    G = random_monotone(rng, unit_square_grid)
    assert eta_plus(F, G, 1e-9) <= 2e-9
    assert eta_minus(F, G, 1e-9) <= 2e-9


def test_rho_ball_region_and_default_rho(unit_square_grid):
    ball = RhoBall(0.5)
    lo, hi = ball.region(unit_square_grid.domain)
    assert np.allclose(lo, [0.0, 0.0]) and np.allclose(hi, [0.5, 0.5])
    # a domain entirely outside the ball has no test region
    assert RhoBall(0.5).region(Domain([2.0], [3.0])) is None
    with pytest.raises(ValueError):
        RhoBall(0.0)
    with pytest.raises(ValueError):
        RhoBall(-1.0)
    r = default_rho(unit_square_grid.domain)
    assert r == pytest.approx(1.0 + unit_square_grid.domain.diameter())


def test_pair_validation_errors(unit_square_grid, unit_interval_grid, rng):
    F = random_monotone(rng, unit_square_grid)
    H = random_monotone(rng, unit_interval_grid)
    with pytest.raises(ValueError):
        hat_dl_rho(F, H, 1.0)  # mismatched grids
    with pytest.raises(ValueError):
        hat_dl_rho(F, F, -1.0)
    with pytest.raises(ValueError):
        dl_rho_oracle(F, F, 1.0, 1)  # lattice needs at least two samples
    with pytest.raises(ValueError):
        hypo_dist_estimate(F, F, tol=0.0)  # the search needs a positive tol
    # inside the range tolerance, yet the violation at shift 1 exceeds SUP_TOL
    over = GridFunction(F.grid, 1, np.full(F.grid.shape, 1.0 + 1e-9), monotone=True)
    under = GridFunction(F.grid, 1, np.full(F.grid.shape, -1e-9), monotone=True)
    with pytest.raises(ValueError, match="shift 1 is infeasible"):
        hat_dl_rho(over, under, 2.0)
    bare = GridFunction(F.grid, 1, F.values)  # monotone flag required
    with pytest.raises(ValueError):
        hat_dl_rho(bare, F, 1.0)
    # the maximizer's split planes need per-axis uniform grids from 2-d on,
    # and it stops at 3-d
    cube = Grid(Domain([0.0] * 3, [1.0] * 3), [[0.0, 0.3, 1.0]] * 3)
    C = random_monotone(rng, cube)
    with pytest.raises(ValueError, match="per-axis uniform"):
        hat_dl_rho(C, C, 1.0)
    assert eta_plus(C, C, 1.0) >= 0.0  # the root scan takes any grid
    tesseract = random_monotone(rng, build_grid(Domain([0.0] * 4, [1.0] * 4), 2))
    with pytest.raises(ValueError, match="dimensions are 1, 2 and 3"):
        hat_dl_rho(tesseract, tesseract, 1.0)


def test_hypo_dist_estimate_report_fields(rng, unit_square_grid):
    F = random_monotone(rng, unit_square_grid)
    G = random_monotone(rng, unit_square_grid)
    rep = hypo_dist_estimate(F, G, quad_points=24)
    assert rep.lower_bound <= rep.value <= rep.upper_bound
    assert rep.method.endswith("24")
    # more quadrature points must not widen the bracket meaningfully
    rep2 = hypo_dist_estimate(F, G, quad_points=48)
    assert rep2.width() <= rep.width() + 1e-9


# ---------------------------------------------------------------------------
# the shift-distance search: the slope bound it relies on, a reference
# bisection, and its evaluation budget
# ---------------------------------------------------------------------------

_PATHS = ("1d", "1d-boxes", "2d-pl", "2d-boxes")


def random_pair(seed: int, path: str):
    """A random monotone pair that takes the given violation-sup path: two
    order-1 functions, or an order-0 envelope against either order, in 1-d
    or 2-d."""
    rng = np.random.default_rng(seed)
    dim = 1 if path.startswith("1d") else 2
    g = build_grid(Domain([0.0] * dim, [1.0] * dim), int(rng.integers(2, 7)))
    F, G = random_monotone(rng, g), random_monotone(rng, g)
    if path.endswith("boxes"):
        F = upper_envelope(F)
        if rng.random() < 0.5:
            G = upper_envelope(G)
    return F, G


def reference_bisection(f, g, rho: float, tol: float = 1e-8) -> float:
    """Plain bisection on the shift condition, returning the feasible end."""
    if kenmochi_ok(f, g, rho, 0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if kenmochi_ok(f, g, rho, mid):
            hi = mid
        else:
            lo = mid
    return hi


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    path=st.sampled_from(_PATHS),
    rho=st.floats(0.05, 3.0),
    eta=st.floats(0.0, 1.0),
    d=st.floats(0.0, 1.0),
)
def test_violation_falls_with_slope_at_least_one(seed, path, rho, eta, d):
    F, G = random_pair(seed, path)
    assert _violation(F, G, rho, eta + d) <= _violation(F, G, rho, eta) - d + 2 * SUP_TOL


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    path=st.sampled_from(_PATHS),
    rho=st.floats(0.05, 3.0),
)
def test_search_matches_reference_bisection(seed, path, rho):
    F, G = random_pair(seed, path)
    assert abs(hat_dl_rho(F, G, rho) - reference_bisection(F, G, rho)) <= 1e-8


def _uuv_box_pair():
    """The uuv geometry with box sources at 24x8 cells."""
    g = build_grid(Domain([0.0, 0.0], [6.0, 2.0]), [25, 9])
    F = realize(UniformBox([0.3, 0.2], [3.3, 1.8]), g)
    G = realize(UniformBox([2.7, 0.2], [5.7, 1.8]), g)
    return F, G


def test_search_evaluation_budget():
    # the bisection it replaced spent 646 feasibility tests (1,022
    # violation sups) here, and a search at every radius 113; galloping
    # over the plateaus of the shift distance spends 80
    rep = hypo_dist_estimate(*_uuv_box_pair(), quad_points=32)
    assert rep.evaluations <= 90


def test_search_point_budget():
    # 87,811 region points with a search at every radius, both directions
    # sharing one point set per shift; 38,101 when the plateau radii are
    # filled without a search
    rep = hypo_dist_estimate(*_uuv_box_pair(), quad_points=32)
    assert rep.points <= 45_000


def scan_estimate(f, g, quad_points: int, tol: float = 1e-8):
    """``hypo_dist_estimate`` without the gallop: the shift distance is
    searched at every radius in ascending order, each search starting at
    the previous hat.  Returns (value, lower, upper, evaluations)."""
    rho_bar = saturation_radius(f.grid.domain)
    edges = np.linspace(0.0, rho_bar, quad_points + 1)
    a, b = edges[:-1], edges[1:]
    mids = 0.5 * (a + b)
    args = np.unique(
        np.minimum(np.concatenate([a[1:], mids, 2 * mids, 2 * b, [rho_bar]]), rho_bar)
    )
    hats, prev, evaluations = {0.0: 0.0}, 0.0, 0
    for r in args[args > 0]:
        val, spent, _ = _hat_bracketed(f, g, float(r), tol, prev)
        evaluations += spent
        prev = max(prev, val)
        hats[float(r)] = prev

    def hat(rs):
        return np.array([hats[float(min(r, rho_bar))] for r in rs])

    w = np.exp(-a) - np.exp(-b)
    tail = math.exp(-rho_bar) * hats[float(rho_bar)]
    lower = float(np.sum(w * hat(a))) + tail
    upper = float(np.sum(w * hat(2 * b))) + tail
    value = float(np.sum(w * 0.5 * (hat(mids) + hat(2 * mids)))) + tail
    return value, lower, upper, evaluations


@pytest.mark.parametrize("case", [
    *(f"{path}-{seed}" for path in _PATHS for seed in range(3)), "uuv-boxes",
])
def test_gallop_matches_scan_at_every_radius(case):
    # every searched radius starts where the scan's does and every skipped
    # one is feasible at the previous hat, so the report is bit-identical
    if case == "uuv-boxes":
        F, G = _uuv_box_pair()
    else:
        path, seed = case.rsplit("-", 1)
        F, G = random_pair(int(seed), path)
    rep = hypo_dist_estimate(F, G, quad_points=32)
    value, lower, upper, evaluations = scan_estimate(F, G, quad_points=32)
    assert (rep.value, rep.lower_bound, rep.upper_bound) == (value, lower, upper)
    assert rep.evaluations <= evaluations


def brute_force_violation(f, g, rho: float, eta: float) -> float:
    """V(eta) from psi evaluated on a lattice of per-axis points of the
    region: the cuts where a factor of either direction can kink or jump
    (nodes, nodes pulled back by eta, region ends and, in 1-d, crossings of
    the cap rho), the midpoints between cuts, and points 1e-12 inside each
    end, where the sup next to a jump is approached.  In 2-d the lattice
    holds every kink only when one member is a step function."""
    dom = f.grid.domain
    lo = np.maximum(dom.lower, -rho)
    hi = np.minimum(dom.upper, rho)
    if np.any(lo > hi):  # the ball misses the domain
        return -np.inf
    per_axis = []
    for i, axis in enumerate(f.grid.axes):
        cuts = [axis, axis - eta, [lo[i], hi[i]]]
        for h in (f, g) if f.grid.dim == 1 else ():
            if h.order == 1:
                v = h.values
                k = np.nonzero((v[:-1] - rho) * (v[1:] - rho) < 0)[0]
                s = (rho - v[k]) / (v[k + 1] - v[k])
                cuts.append(axis[k] + s * (axis[k + 1] - axis[k]))
        c = np.unique(np.clip(np.concatenate(cuts), lo[i], hi[i]))
        cl, cr = c[:-1], c[1:]
        per_axis.append(np.concatenate([c, 0.5 * (cl + cr), np.minimum(cl + 1e-12, cr),
                                        np.maximum(cr - 1e-12, cl)]))
    x = lattice(per_axis)
    xs = np.minimum(x + eta, dom.upper)

    def psi(a, b):
        return np.minimum(a.eval(x), rho) - b.eval(xs) - eta

    return float(max(np.max(psi(f, g)), np.max(psi(g, f))))


@pytest.mark.parametrize("f_order,g_order", [(1, 1), (1, 0), (0, 1), (0, 0)])
def test_violation_1d_matches_brute_force(f_order, g_order):
    rng = np.random.default_rng(10 * f_order + g_order)
    # the last domain meets the ball in the single point 0.5 when rho = 0.5
    for lower, upper in (([0.0], [1.0]), ([-1.0], [2.0]), ([0.5], [1.5])):
        g = build_grid(Domain(lower, upper), int(rng.integers(2, 9)))
        for _ in range(8):
            F, G = random_monotone(rng, g), random_monotone(rng, g)
            F = F if f_order == 1 else upper_envelope(F)
            G = G if g_order == 1 else upper_envelope(G)
            for rho in (0.5, *rng.uniform(0.05, 3.0, 3)):
                for eta in (0.0, *rng.uniform(0.0, 1.0, 3)):
                    assert _violation(F, G, rho, eta) == pytest.approx(
                        brute_force_violation(F, G, rho, eta), abs=1e-9
                    ), (lower, rho, eta)


@pytest.mark.parametrize("f_order,g_order", [(1, 0), (0, 1), (0, 0)])
def test_violation_2d_boxes_match_brute_force(f_order, g_order):
    rng = np.random.default_rng(100 + 10 * f_order + g_order)
    # at rho = 0.5 the last domain meets the ball in the segment
    # [0, 0.5] x {0.5}: one axis is a single point, the other is not
    for lower, upper in (([0.0, 0.0], [1.0, 1.0]), ([0.0, 0.5], [1.0, 1.5])):
        for _ in range(8):
            g = build_grid(Domain(lower, upper), [int(n) for n in rng.integers(2, 7, 2)])
            # a ramp in the first coordinate keeps the lower face {y = lower[1]}
            # from being flat at 0
            ramp = (g.axes[0] - lower[0])[:, None] * np.ones(g.shape)
            F, G = (GridFunction(g, 1, random_monotone(rng, g).values
                                 + rng.uniform(0.1, 1.0) * ramp, monotone=True)
                    for _ in range(2))
            F = F if f_order == 1 else upper_envelope(F)
            G = G if g_order == 1 else upper_envelope(G)
            # 0.5 and 1 fall on nodes whenever the cell counts allow
            for rho in (0.5, 1.0, *rng.uniform(0.05, 2.0, 2)):
                for eta in (0.0, *rng.uniform(0.0, 1.0, 3)):
                    assert _violation(F, G, rho, eta) == pytest.approx(
                        brute_force_violation(F, G, rho, eta), abs=1e-9
                    ), (lower, rho, eta)


def test_violation_2d_vertices_within_lipschitz_sandwich():
    # V for two order-1 functions against psi sampled on a fine lattice of
    # the region: V is the exact sup, so it is at least the lattice max and
    # at most that plus the Lipschitz constant times half the spacing
    rng = np.random.default_rng(6)
    for k in range(24):
        lower = rng.uniform(-0.6, 0.3, 2)
        upper = lower + rng.uniform(0.8, 2.5, 2)
        g = build_grid(Domain(lower, upper), [int(n) for n in rng.integers(3, 10, 2)])

        def member(top: float) -> GridFunction:
            if k % 2 == 0:
                v = random_monotone(rng, g).values
            else:  # monotone, but cells can carry negative mass
                u, w = (np.cumsum(rng.exponential(size=n)) for n in g.shape)
                v = np.maximum.outer(u / u[-1], w / w[-1])
            return GridFunction(g, 1, top * v / np.max(v), monotone=True)

        # one function tops out low, the other high: a cap between the tops
        # cuts only the high one, whose level set then often carries the sup
        low, high = member(rng.uniform(0.2, 0.5)), member(rng.uniform(0.8, 1.0))
        spacing = [a[1] - a[0] for a in g.axes]
        lipschitz = max(
            sum(np.max(np.abs(np.diff(h.values, axis=i))) / spacing[i] for i in range(2))
            for h in (low, high)
        )
        split = 0.5 * (np.max(low.values) + np.max(high.values))
        for rho in (split, rng.uniform(0.35, 2.0)):
            lo = np.maximum(g.domain.lower, -rho)
            hi = np.minimum(g.domain.upper, rho)
            axes = [np.linspace(lo[i], hi[i], 161) for i in range(2)]
            x = lattice(axes)
            h = max(a[1] - a[0] for a in axes)
            for eta in (0.0, *rng.uniform(0.0, 0.6, 3)):
                xs = np.minimum(x + eta, g.domain.upper)
                psi = np.maximum(np.minimum(low.eval(x), rho) - high.eval(xs),
                                 np.minimum(high.eval(x), rho) - low.eval(xs)) - eta
                sampled = float(np.max(psi))
                # both argument orders: each function's cap kinks must count
                for F, G in ((low, high), (high, low)):
                    v = _violation(F, G, rho, eta)
                    assert sampled - 1e-12 <= v <= sampled + lipschitz * h / 2 + 1e-12, (
                        rho, eta)


@pytest.mark.parametrize("cells,pairs", [((12,), 10), ((6, 6), 10), ((4, 4, 4), 8),
                                         ((6, 6, 6), 4), ((3, 5, 4), 6)],
                         ids=["1-d", "2-d", "3-d-4", "3-d-6", "3-d-3x5x4"])
def test_violation_is_exact_against_random_points(cells, pairs):
    # V is the max over every vertex of the kink arrangement, so no point of
    # the region beats it beyond round-off.  Half the pairs are CDF-like,
    # half maxima of axis ramps.  At rho = 0.35 the caps bind on
    # the unit cube and the level planes often carry the sup; in 3-d, level
    # pieces cut from all six edges of a simplex and the Kuhn split planes
    # through them are needed.  At rho = 10 the region is the whole cube and
    # x + eta passes its upper face, where the shifted factor stops moving
    rng = np.random.default_rng(6)
    dim = len(cells)
    g = build_grid(Domain([0.0] * dim, [1.0] * dim), [n + 1 for n in cells])

    def max_of_ramps() -> GridFunction:
        # monotone, but cells can carry negative mass: unlike a CDF's, its
        # sup often sits where a pulled-back split plane crosses
        v = np.zeros(g.shape)
        for i, n in enumerate(g.shape):
            u = np.cumsum(rng.exponential(size=n))
            v = np.maximum(v, (u / u[-1]).reshape([-1 if k == i else 1 for k in range(dim)]))
        return GridFunction(g, 1, rng.uniform(0.2, 1.0) * v, monotone=True)

    for k in range(pairs):
        member = (lambda: random_monotone(rng, g)) if k % 2 else max_of_ramps
        F, G = member(), member()
        for rho in (0.35, 10.0):
            x = rng.uniform(0.0, min(rho, 1.0), size=(10_000, dim))
            for eta in (0.0, 0.05, 0.13):
                xs = np.minimum(x + eta, 1.0)
                psi = np.maximum(np.minimum(F.eval(x), rho) - G.eval(xs),
                                 np.minimum(G.eval(x), rho) - F.eval(xs)) - eta
                assert _violation(F, G, rho, eta) >= float(np.max(psi)) - 1e-12, (rho, eta)
    # the public routes take the grid, whatever its dimension: the shift
    # distance lies between the cell-corner relaxations, and so does a step
    # function's, whose boxes route is exact too
    rho = 0.35
    hat = hat_dl_rho(F, G, rho)
    assert kenmochi_ok(F, G, rho, hat) and 0.0 <= hat <= 1.0
    assert eta_minus(F, G, rho) <= hat + 1e-8 and hat <= eta_plus(F, G, rho) + 1e-8
    step = GridFunction(g, 0, F.values[(slice(1, None),) * dim], monotone=True)
    eta = 0.5 * hat_dl_rho(step, G, rho)
    x = rng.uniform(0.0, rho, size=(10_000, dim))
    psi = np.maximum(np.minimum(step.eval(x), rho) - G.eval(x + eta),
                     np.minimum(G.eval(x), rho) - step.eval(x + eta)) - eta
    assert _violation(step, G, rho, eta) >= float(np.max(psi)) - 1e-12
    report = hypo_dist_estimate(F, G, quad_points=2)
    assert 0.0 <= report.lower_bound <= report.value <= report.upper_bound <= 1.0


def test_step_function_value_on_the_region_face_counts():
    # a step function takes its next cell's value on a node; with rho on a
    # node, the ball region's upper face attains that value
    g = build_grid(Domain([0.0, 0.0], [2.0, 2.0]), 3)  # cells of side 1
    F = GridFunction(g, 0, np.array([[0.0, 0.1], [0.6, 0.8]]), monotone=True)
    Z = GridFunction(g, 1, np.zeros(g.shape), monotone=True)
    assert hat_dl_rho(F, Z, 0.9) == 0.0  # the region sees the first cell only
    assert hat_dl_rho(F, Z, 1.0) == pytest.approx(0.8, abs=1e-8)  # F(1, 1)
