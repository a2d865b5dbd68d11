from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodist import (
    Domain,
    EstimationProblem,
    Grid,
    GridFunction,
    ShapeConstraints,
    ShapeInfeasibleError,
    UniformBox,
    build_grid,
    estimate,
    eta_plus,
    expected_value,
    min_slack,
    realize,
    refinement_study,
    shape_violation,
    two_uniforms_scenario,
)
from hypodist import lp
from hypodist.estimator import assemble_lp
from hypodist.functions import interpolation_weights
from hypodist.lp import SENSES


@pytest.fixture(scope="module")
def two_uniforms_10():
    sc = two_uniforms_scenario(cells_per_axis=10)
    g = build_grid(sc.domain, 11)
    return realize(sc.F0, g), realize(sc.G0, g)


def identity_problem(cells=10, delta=0.5):
    g = build_grid(Domain([0.0], [1.0]), cells + 1)
    F0 = realize(UniformBox([0.0], [1.0]), g)
    return EstimationProblem(F0, F0, delta)


# ---------------------------------------------------------------------------
# LP assembly
# ---------------------------------------------------------------------------


def test_row_counts_two_cell_monotone_only():
    # 1 axis, 2 cells, monotone constraint only: 3 node values + slack,
    # 2 monotone rows, and 2 shift rows per side per anchor = 8
    g = build_grid(Domain([0.0], [1.0]), 3)
    F0 = realize(UniformBox([0.0], [1.0]), g)
    shape = ShapeConstraints(boundary_zero=False, boundary_one=False,
                             distribution_condition=False)
    prob = EstimationProblem(F0, F0, 0.5, shape=shape)
    model, counts = assemble_lp(prob, 0.3)
    assert model.n_variables == 4
    assert counts["monotone"] == 2
    assert counts["distribution"] == 0
    assert counts["growth"] == 0
    distance_rows = (counts["target_lower"] + counts["target_upper"]
                     + counts["ambiguity_lower"] + counts["ambiguity_upper"])
    assert distance_rows == 8
    assert counts["slack_index"] == 3


def test_upper_rows_dropped_when_capped():
    # an upper shift row is vacuous once its right side reaches the
    # truncation level, so a tiny rho drops them all
    g = build_grid(Domain([0.0], [1.0]), 3)
    F0 = realize(UniformBox([0.0], [1.0]), g)
    shape = ShapeConstraints(boundary_zero=False, boundary_one=False,
                             distribution_condition=False)
    tight = EstimationProblem(F0, F0, 0.5, rho=0.05, shape=shape)
    _, counts = assemble_lp(tight, 0.3)
    assert counts["target_upper"] == 0
    assert counts["ambiguity_upper"] == 0
    assert counts["target_lower"] == 2  # lower rows are always kept


def test_growth_rows_counted_once_per_edge():
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), 3)
    F0 = realize(UniformBox([0.0, 0.0], [1.0, 1.0]), g)
    prob = EstimationProblem(F0, F0, 0.5,
                             shape=ShapeConstraints(bounded_growth=2.0))
    _, counts = assemble_lp(prob, 0.3)
    # 2x2 cells: 12 axis edges + 4 diagonals, one directed row each
    assert counts["growth"] == 16


def reference_lp(problem, eta, target=False):
    """Row-by-row build of the estimation LP in its documented row order:
    monotone rows axis by axis, distribution rows, growth rows (axis-0
    edges, axis-1 edges, diagonals), then per anchor each cell's lower row
    followed by its upper row when kept.  A lower row leaves out the
    interpolation weights of magnitude at most 1e-9, round-off included.
    The target LP caps the slack s at tol and relaxes the target rows by a
    free last variable t."""
    grid, shape, rho = problem.grid, problem.shape, problem.rho
    dims, m, n = grid.shape, grid.dim, grid.n_nodes
    rows, counts = [], dict.fromkeys(
        ["monotone", "distribution", "growth", "target_lower", "target_upper",
         "ambiguity_lower", "ambiguity_upper"], 0)
    counts["slack_index"] = s = n
    if target:
        counts["target_index"] = n + 1

    def add(group, idx, cf, sense, rhs):
        rows.append((idx, cf, sense, float(rhs)))
        counts[group] += 1

    def node(*multi):
        return int(np.ravel_multi_index(multi, dims))

    lower = np.zeros(n + 1 + target)
    upper = np.ones(n + 1 + target)
    upper[n] = problem.tol if target else np.inf
    if target:
        lower[-1], upper[-1] = -np.inf, np.inf
    for j, x in enumerate(grid.node_lattice()):
        if shape.boundary_zero and np.any(x == grid.domain.lower):
            upper[j] = 0.0
    if shape.boundary_one:
        lower[n - 1] = upper[n - 1] = 1.0

    for ax in range(m):
        for multi in np.ndindex(*dims):
            if multi[ax] < dims[ax] - 1:
                nxt = list(multi)
                nxt[ax] += 1
                add("monotone", [node(*multi), node(*nxt)], [1.0, -1.0], "<=", 0.0)
    cells = list(np.ndindex(*grid.cell_counts))
    if shape.distribution_condition:
        for c in cells:
            if m == 1:
                add("distribution", [c[0], c[0] + 1], [-1.0, 1.0], ">=", 0.0)
            else:
                i, j = c
                add("distribution",
                    [node(i, j), node(i + 1, j), node(i, j + 1), node(i + 1, j + 1)],
                    [1.0, -1.0, -1.0, 1.0], ">=", 0.0)
    L = shape.bounded_growth
    if L is not None:
        h = [np.diff(a) for a in grid.axes]
        if m == 1:
            for k in range(dims[0] - 1):
                add("growth", [k, k + 1], [-1.0, 1.0], "<=", L * h[0][k])
        else:
            for i, j in np.ndindex(dims[0] - 1, dims[1]):
                add("growth", [node(i, j), node(i + 1, j)], [-1.0, 1.0], "<=", L * h[0][i])
            for i, j in np.ndindex(dims[0], dims[1] - 1):
                add("growth", [node(i, j), node(i, j + 1)], [-1.0, 1.0], "<=", L * h[1][j])
            for i, j in np.ndindex(dims[0] - 1, dims[1] - 1):
                add("growth", [node(i, j), node(i + 1, j + 1)], [-1.0, 1.0], "<=",
                    L * max(h[0][i], h[1][j]))

    lower_pts, upper_pts = grid.cell_bounds()
    for anchor, r, relax, tag in ((problem.F0, eta, n + 1 if target else None, "target"),
                                  (problem.G0, problem.delta, s, "ambiguity")):
        probe = np.clip(lower_pts + r, grid.domain.lower, grid.domain.upper)
        w_nodes, w_vals = interpolation_weights(grid, probe)
        at_u = np.atleast_1d(anchor.eval(upper_pts))
        at_probe = np.atleast_1d(anchor.eval(probe))
        extra_idx, extra_cf = ([relax], [1.0]) if relax is not None else ([], [])
        for k, c in enumerate(cells):
            nz = np.abs(w_vals[k]) > 1e-9  # zero and round-off weights are left out
            add(f"{tag}_lower", list(w_nodes[k][nz]) + extra_idx,
                list(w_vals[k][nz]) + extra_cf, ">=", min(at_u[k], rho) - r)
            if at_probe[k] + r < rho:
                add(f"{tag}_upper", [node(*np.add(c, 1))] + extra_idx,
                    [1.0] + [-v for v in extra_cf], "<=", at_probe[k] + r)
    return rows, (lower, upper), counts


def _equivalence_cases():
    g1 = build_grid(Domain([0.0], [1.0]), 9)
    one_d = EstimationProblem(realize(UniformBox([0.0], [0.6]), g1),
                              realize(UniformBox([0.3], [1.0]), g1), 0.2,
                              shape=ShapeConstraints(bounded_growth=3.0))
    g2 = build_grid(Domain([0.0, 0.0], [1.0, 2.0]), 4)
    F = realize(UniformBox([0.0, 0.0], [0.6, 1.0]), g2)
    G = realize(UniformBox([0.3, 0.5], [1.0, 2.0]), g2)
    growth = ShapeConstraints(bounded_growth=2.0)
    two_d = EstimationProblem(F, G, 0.2, shape=growth)
    # rho between the anchors' values: some upper rows kept, some dropped
    two_d_capped = EstimationProblem(F, G, 0.05, rho=0.6, shape=growth)
    g3 = build_grid(Domain([0.0], [1.0]), 3)
    F0 = realize(UniformBox([0.0], [1.0]), g3)
    capped = EstimationProblem(
        F0, F0, 0.5, rho=0.05,
        shape=ShapeConstraints(boundary_zero=False, boundary_one=False,
                               distribution_condition=False))
    # equal cell widths: shifts by whole cells leave weights of order 1e-16
    # where an exact shift has zeros
    g4 = build_grid(Domain([0.0, 0.0], [3.0, 3.0]), 4)
    equal_widths = EstimationProblem(realize(UniformBox([0.0, 0.0], [1.0, 1.0]), g4),
                                     realize(UniformBox([2.0, 2.0], [3.0, 3.0]), g4),
                                     0.7)
    return [(one_d, 0.3), (two_d, 0.4), (two_d_capped, 0.25), (capped, 0.3),
            (equal_widths, 0.2)]


def assert_matches_reference(problem, eta, target, model, counts):
    rows, (lower, upper), ref_counts = reference_lp(problem, eta, target)
    row_ptr, idx, cf, codes, rhs = model.row_arrays()
    assert np.array_equal(row_ptr, np.cumsum([0] + [len(r[0]) for r in rows]))
    assert np.array_equal(idx, np.concatenate([r[0] for r in rows]).astype(np.int64))
    assert np.array_equal(cf, np.concatenate([r[1] for r in rows]))
    assert [SENSES[c] for c in codes] == [r[2] for r in rows]
    assert np.array_equal(rhs, [r[3] for r in rows])
    lo, hi = model.bounds
    assert np.array_equal(lo, lower) and np.array_equal(hi, upper)
    assert counts == ref_counts
    objective = [0.0, 1.0] if target else [1.0]
    assert model.objective.tolist() == [0.0] * problem.grid.n_nodes + objective
    assert [r.indices.tolist() for r in model.rows()] == [list(r[0]) for r in rows]


@pytest.mark.parametrize("case", range(5), ids=["1d-growth", "2d-growth",
                                                 "2d-partly-capped", "capped",
                                                 "equal-widths"])
def test_assembly_matches_row_by_row_reference(case):
    # one problem assembled several times in a row, as a search does, and
    # only then read: the rows that do not depend on eta are built once and
    # shared, so a probe or a read that changed them would show in a model
    problem, eta = _equivalence_cases()[case]
    probes = [(eta, False), (eta, True), (0.5 * eta, True), (eta, False)]
    built = [(eta_k, target, *assemble_lp(problem, eta_k, target=target))
             for eta_k, target in probes]
    for eta_k, target, model, counts in built:
        assert_matches_reference(problem, eta_k, target, model, counts)


def test_highs_agrees_with_reference_simplex_on_estimator_lps():
    # the slack and target LPs of the two-uniforms pair at 4x4 cells, over
    # deltas and shifts that give feasible, infeasible and saturated LPs:
    # HiGHS, which every estimate uses, and the bundled simplex agree
    sc = two_uniforms_scenario(cells_per_axis=4)
    g = build_grid(sc.domain, 5)
    F0, G0 = realize(sc.F0, g), realize(sc.G0, g)
    for delta in (1.0, 0.7, 0.1):
        problem = EstimationProblem(F0, G0, delta)
        for eta in (0.0, 0.2, 0.5, 1.0):
            for target in (False, True):
                model, _ = assemble_lp(problem, eta, target=target)
                a = lp.solve(model)
                b = lp.solve(model, method="simplex")
                assert a.status == b.status, (delta, eta, target)
                if a.ok:
                    assert a.objective == pytest.approx(b.objective, abs=1e-9)


# ---------------------------------------------------------------------------
# min_slack / estimate
# ---------------------------------------------------------------------------


def test_identity_target_needs_half_cell_shift():
    # with F0 == G0 the smallest workable shift is half a cell: the upper
    # row v(u) <= F0(l) + 2 eta chain crosses at eta = h/2
    prob = identity_problem(cells=10)
    s, F = min_slack(prob, 0.05)
    assert s <= 1e-8
    with pytest.raises(ShapeInfeasibleError):
        min_slack(prob, 0.049)
    res = estimate(prob)
    assert res.eta == pytest.approx(0.05, abs=1e-7)
    assert res.slack <= 1e-8


def test_estimate_two_uniforms_small(two_uniforms_10):
    F0, G0 = two_uniforms_10
    prob = EstimationProblem(F0, G0, 0.7)
    res = estimate(prob)
    assert res.eta == pytest.approx(0.3, abs=1e-7)
    assert res.slack <= 1e-6
    ev = expected_value(res.solution, neg_tol=1e-6)
    assert np.all(ev > 1.0) and np.all(ev < 1.6)  # pulled toward the anchor
    # G0 meets the shape rows and lies in its own ball, so no slack LP runs:
    # history records the target LPs only, the first at eta = 0
    assert res.history[0][0] == 0.0
    assert all(0.0 < eta <= 1.0 for eta, _, _ in res.history[1:])
    assert res.wall_time > 0
    assert shape_violation(prob, res.solution) <= 1e-8


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("delta", [0.7, 0.4, 0.1])
def test_two_uniforms_eta_within_tol_below_one_minus_delta(delta, tol):
    # the paper's two uniforms give eta = 1 - delta; the search stops within
    # tol below it, whatever pivots the solver takes (at 10 cells per axis
    # delta 0.1 saturates instead)
    sc = two_uniforms_scenario(cells_per_axis=20)
    g = build_grid(sc.domain, 21)
    res = estimate(EstimationProblem(realize(sc.F0, g), realize(sc.G0, g), delta, tol=tol))
    assert 1 - delta - tol - 1e-12 <= res.eta <= 1 - delta


def test_eta_nonincreasing_in_delta(two_uniforms_10):
    F0, G0 = two_uniforms_10
    etas = []
    for delta in (1.0, 0.7, 0.4, 0.1):
        res = estimate(EstimationProblem(F0, G0, delta))
        etas.append(res.eta)
    for a, b in zip(etas, etas[1:]):
        assert b >= a - 1e-9


def test_slack_nonincreasing_in_eta(two_uniforms_10):
    F0, G0 = two_uniforms_10
    prob = EstimationProblem(F0, G0, 0.7)
    vals = []
    for eta in (0.3, 0.5, 0.9, 1.0):
        s, _ = min_slack(prob, eta)
        vals.append(s)
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9


def test_saturated_delta_reports_positive_slack(two_uniforms_10):
    # an ambiguity ball this tight cannot be reached: eta stops at 1 and
    # the residual slack is the certificate
    F0, G0 = two_uniforms_10
    res = estimate(EstimationProblem(F0, G0, 1e-4))
    assert res.eta == 1.0
    assert res.slack > 1e-6
    assert len(res.history) == 1
    assert res.history[0][0] == 1.0


def test_slack_lp_runs_when_anchor_breaks_a_shape_row(two_uniforms_10):
    # a growth bound of 1 lies below the slope 1.7 of G0's steepest edge, a
    # diagonal, so G0 is no witness at eta = 1: the slack LP runs first, and
    # the target search after it ends at its frozen eta
    F0, G0 = two_uniforms_10
    prob = EstimationProblem(F0, G0, 0.7, shape=ShapeConstraints(bounded_growth=1.0))
    assert shape_violation(prob, G0) > 0.2
    res = estimate(prob)
    (eta1, s1, _), (eta0, _, _), *targets = res.history
    assert (eta1, eta0) == (1.0, 0.0) and s1 <= prob.tol
    # the search probes the threshold 1 - delta - tol = 0.29999999 itself,
    # where the true t is 0; the pivot path's side of that tie sets the
    # answer: t = 5.5e-16 there gives 0.299999995, t = 0.0 gave the lower
    # end 0.29999998999999994
    assert res.eta == pytest.approx(0.299999995, abs=1e-12)
    # whichever side the solver takes, a bracket of width at most tol
    # around the threshold ends at the answer
    lo = max(eta for eta, t, _ in targets if t > 0.0)
    assert all(t <= 0.0 for eta, t, _ in targets if eta == res.eta)
    assert res.eta - lo <= prob.tol
    assert lo - 1e-12 <= 0.29999999 <= res.eta + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cells=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    delta=st.floats(0.0, 1.0),
)
def test_skipped_slack_lp_has_slack_within_tol(seed, cells, delta):
    # estimate skips the slack LP at eta = 1 only when G0 is a witness there,
    # so that LP's least slack is at most tol whenever it is skipped
    from tests.conftest import random_monotone

    rng = np.random.default_rng(seed)
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), [c + 1 for c in cells])
    # full mass, so that G0 can meet the pin v(b) = 1
    F0, G0 = (random_monotone(rng, g) for _ in range(2))
    F0, G0 = (GridFunction(g, 1, f.values / f.values.max(), monotone=True)
              for f in (F0, G0))
    prob = EstimationProblem(F0, G0, delta)
    res = estimate(prob)
    if res.history[0][0] != 1.0:
        assert res.history[0][0] == 0.0
        assert min_slack(prob, 1.0)[0] <= prob.tol


def test_surrogate_invariants(two_uniforms_10):
    # the solution stays within eta of the target and delta + slack of the
    # anchor, measured by the one-sided partition bound
    F0, G0 = two_uniforms_10
    delta = 0.7
    prob = EstimationProblem(F0, G0, delta)
    res = estimate(prob)
    eps = prob.tol
    assert eta_plus(res.solution, F0, prob.rho) <= res.eta + res.slack + 2 * eps
    assert eta_plus(res.solution, G0, prob.rho) <= delta + res.slack + 2 * eps


def test_fifty_cell_slack_frozen():
    # the saturated two-uniforms problem at desk scale: the certificate
    # slack is stable across solver paths
    sc = two_uniforms_scenario(cells_per_axis=50)
    g = build_grid(sc.domain, 51)
    prob = EstimationProblem(realize(sc.F0, g), realize(sc.G0, g), 1e-4)
    s, F = min_slack(prob, 1.0)
    assert s == pytest.approx(0.116106, abs=2e-3)
    assert shape_violation(prob, F) <= 1e-8


def test_bounded_growth_enforced(two_uniforms_10):
    F0, G0 = two_uniforms_10
    prob = EstimationProblem(F0, G0, 0.7,
                             shape=ShapeConstraints(bounded_growth=1.0))
    res = estimate(prob)
    assert res.eta == pytest.approx(0.3, abs=1e-7)
    V = res.solution.values
    h = 0.3
    assert np.max(np.abs(np.diff(V, axis=0))) <= h * 1.0 + 1e-8
    assert np.max(np.abs(np.diff(V, axis=1))) <= h * 1.0 + 1e-8
    assert np.max(V[1:, 1:] - V[:-1, :-1]) <= h * 1.0 + 1e-8
    assert shape_violation(prob, res.solution) <= 1e-8


def test_impossible_shape_raises(two_uniforms_10):
    # growth bound 0 forces a constant surface, which contradicts the
    # 0-at-lower / 1-at-upper boundary pins at every eta
    F0, G0 = two_uniforms_10
    prob = EstimationProblem(F0, G0, 0.7,
                             shape=ShapeConstraints(bounded_growth=0.0))
    with pytest.raises(ShapeInfeasibleError):
        min_slack(prob, 1.0)
    with pytest.raises(ShapeInfeasibleError):
        estimate(prob)


def brute_shape_violation(problem, F) -> float:
    """Every documented shape constraint, one node, cell or edge at a time."""
    shape, grid, v = problem.shape, problem.grid, F.values
    m, dims = grid.dim, grid.shape
    worst = 0.0
    for n in np.ndindex(*dims):
        for ax in range(m):  # monotone along every axis
            if n[ax] + 1 < dims[ax]:
                up = tuple(k + (a == ax) for a, k in enumerate(n))
                worst = max(worst, v[n] - v[up])
        if shape.boundary_zero and 0 in n:  # lower faces
            worst = max(worst, abs(v[n]))
    if shape.boundary_one:  # upper corner
        worst = max(worst, abs(v[(-1,) * m] - 1.0))
    for n in np.ndindex(*grid.cell_counts):
        if shape.distribution_condition:  # cell mass as a difference of differences
            if m == 1:
                mass = v[n[0] + 1] - v[n[0]]
            else:
                i, j = n
                mass = (v[i + 1, j + 1] - v[i, j + 1]) - (v[i + 1, j] - v[i, j])
            worst = max(worst, -mass)
    L = shape.bounded_growth
    if L is not None:
        offsets = [(1,)] if m == 1 else [(1, 0), (0, 1), (1, 1)]
        for n in np.ndindex(*dims):
            for d in offsets:  # axis edges and diagonals
                end = tuple(k + e for k, e in zip(n, d))
                if all(k < s for k, s in zip(end, dims)):
                    h = max(grid.axes[a][end[a]] - grid.axes[a][n[a]]
                            for a in range(m) if d[a])
                    worst = max(worst, abs(v[end] - v[n]) - L * h)
    return max(worst, 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_shape_violation_matches_brute_force(rng, dim):
    for trial in range(24):
        lo = rng.uniform(-1.0, 1.0, size=dim)
        hi = lo + rng.uniform(0.5, 3.0, size=dim)
        axes = [np.concatenate([[a], np.sort(rng.uniform(a, b, size=k)), [b]])
                for a, b, k in zip(lo, hi, rng.integers(1, 7, size=dim))]
        g = Grid(Domain(lo, hi), axes)
        F0 = realize(UniformBox(lo, hi), g)
        shape = ShapeConstraints(
            boundary_zero=bool(trial % 2), boundary_one=bool(trial % 3),
            distribution_condition=bool(trial % 4 < 2),
            bounded_growth=[None, 0.0, 0.4, 2.5][trial % 4],
        )
        prob = EstimationProblem(F0, F0, 0.5, shape=shape)
        # non-monotone values, so every constraint group can bind
        F = GridFunction(g, 1, rng.uniform(-0.3, 1.3, size=g.shape))
        assert shape_violation(prob, F) == brute_shape_violation(prob, F)
        assert shape_violation(prob, F0) == brute_shape_violation(prob, F0)


def test_estimate_is_deterministic(two_uniforms_10):
    F0, G0 = two_uniforms_10
    r1 = estimate(EstimationProblem(F0, G0, 0.4))
    r2 = estimate(EstimationProblem(F0, G0, 0.4))
    assert r1.eta == r2.eta
    assert np.array_equal(r1.solution.values, r2.solution.values)


# ---------------------------------------------------------------------------
# the search over eta
# ---------------------------------------------------------------------------


def reference_bisection(problem):
    """Plain bisection over eta to a bracket of width tol, first probe at
    eta = 1: the threshold ``estimate`` must find to within tol."""
    eps = problem.tol
    if min_slack(problem, 1.0)[0] > eps:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        try:
            s = min_slack(problem, mid)[0]
        except ShapeInfeasibleError:
            s = math.inf
        if s <= eps:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("delta", [1.0, 0.7, 0.4, 0.1, None],
                         ids=["1.0", "0.7", "0.4", "0.1", "identity"])
def test_search_matches_reference_bisection(two_uniforms_10, delta):
    # 1.0 stops at the infeasibility threshold eta_0 (no finite slope to
    # follow), 0.7 and 0.4 on the linear slack curve, 0.1 saturates
    if delta is None:
        prob = identity_problem()
    else:
        prob = EstimationProblem(*two_uniforms_10, delta)
    assert abs(estimate(prob).eta - reference_bisection(prob)) <= prob.tol


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cells=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    share=st.floats(0.5, 1.0),
)
def test_search_matches_reference_bisection_on_random_pairs(seed, cells, share):
    from tests.conftest import random_monotone

    rng = np.random.default_rng(seed)
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), [c + 1 for c in cells])
    # full-mass CDFs, like the estimate itself; a delta of half to all of
    # their shift distance mixes saturated estimates, thresholds at eta_0
    # and sloped slack curves
    F0, G0 = (random_monotone(rng, g) for _ in range(2))
    F0, G0 = (GridFunction(g, 1, f.values / f.values.max(), monotone=True)
              for f in (F0, G0))
    delta = share * eta_plus(F0, G0, EstimationProblem(F0, G0, 0.0).rho)
    prob = EstimationProblem(F0, G0, delta)
    assert abs(estimate(prob).eta - reference_bisection(prob)) <= prob.tol


def assert_target_chain(res, tol):
    """The LPs of an estimate whose anchor G0 is a witness at eta = 1, so
    that no slack LP runs: the target LP at 0 with t > 0, then a bracket in
    (0, 1] whose upper end, the answer, is the least probe with t <= 0 and
    lies within tol of the greatest probe with t > 0."""
    (eta0, t0, _), *rest = res.history
    assert eta0 == 0.0 and t0 > 0.0
    assert rest and all(0.0 < eta <= 1.0 for eta, _, _ in rest)
    assert res.eta == min(eta for eta, t, _ in res.history if t <= 0.0)
    assert res.eta - max(eta for eta, t, _ in res.history if t > 0.0) <= tol


def test_search_probe_count(two_uniforms_10):
    # the target slack at delta 0.7 falls linearly to its root 0.3: plain
    # bisection takes 28 LP solves to reach the default tol 1e-8
    prob = EstimationProblem(*two_uniforms_10, 0.7)
    res = estimate(prob)
    assert_target_chain(res, prob.tol)
    assert len(res.history) <= 9


def test_eta0_search_probe_count(two_uniforms_10):
    # delta 1.0 stops at eta_0, where the slack jumps from infeasible to zero;
    # bisecting across that jump took 28 LP solves, the slack secant with a
    # separate eta_0 search 13
    prob = EstimationProblem(*two_uniforms_10, 1.0)
    res = estimate(prob)
    assert_target_chain(res, prob.tol)
    assert len(res.history) <= 11


def target_slack(problem, eta):
    """t(eta) from a cold solve of the target LP, or None when it is
    infeasible."""
    sol = lp.solve(assemble_lp(problem, eta, target=True)[0])
    assert sol.status in ("optimal", "infeasible")
    return sol.objective if sol.ok else None


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cells=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    eta=st.floats(0.0, 1.0),
    share=st.floats(0.0, 1.0),
    later_share=st.floats(0.0, 1.0),
)
def test_target_slack_sign_and_slope(seed, cells, eta, share, later_share):
    # t > 0 where the least slack exceeds tol (or the slack LP is infeasible),
    # t < 0 where it is at most tol, and t falls with slope at most -1 in eta;
    # the target LP is infeasible only when no shift brings the slack to tol
    from tests.conftest import random_monotone

    rng = np.random.default_rng(seed)
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), [c + 1 for c in cells])
    F0, G0 = (random_monotone(rng, g) for _ in range(2))
    delta = share * eta_plus(F0, G0, EstimationProblem(F0, G0, 0.0).rho)
    prob = EstimationProblem(F0, G0, delta)
    t = target_slack(prob, eta)
    if t is None:
        assert min_slack(prob, 1.0)[0] > prob.tol
        return
    if t > 1e-9:
        try:
            assert min_slack(prob, eta)[0] > prob.tol
        except ShapeInfeasibleError:
            pass
    elif t < -1e-9:
        assert min_slack(prob, eta)[0] <= prob.tol + 1e-9
    later = min(eta + later_share * (1.0 - eta), 1.0)
    assert target_slack(prob, later) <= t - (later - eta) + 1e-9


def test_warm_probe_sequence_matches_cold_solves(two_uniforms_10, caplog):
    # the target LPs of one estimate, each after the first started from the
    # basis of the one before, reach the same t as cold solves
    prob = EstimationProblem(*two_uniforms_10, 0.7)
    with caplog.at_level("DEBUG", logger="hypodist.lp"):
        etas = [h[0] for h in estimate(prob).history]
    # G0 is a witness at eta = 1, so every LP is a target LP, the first at
    # eta = 0; rho > 2 here, so every one after the first can start warm
    assert etas[0] == 0.0
    assert caplog.text.count("LP min-slack") == 0
    assert caplog.text.count("start=warm\n") == len(etas) - 1
    caplog.clear()
    basis, warm_its, cold_its = None, 0, 0
    with caplog.at_level("DEBUG", logger="hypodist.lp"):
        for eta in etas:
            model, _ = assemble_lp(prob, eta, target=True)
            cold = lp.solve(model)
            warm = lp.solve(model, basis=basis)
            assert warm.ok and cold.ok
            assert abs(warm.objective - cold.objective) <= 1e-9
            basis = warm.basis
            warm_its += warm.iterations
            cold_its += cold.iterations
    assert caplog.text.count("start=warm\n") == len(etas) - 1
    assert warm_its < cold_its


_WARM_CHAIN = """
from hypodist import EstimationProblem, build_grid, lp, realize, two_uniforms_scenario
from hypodist.estimator import assemble_lp

sc = two_uniforms_scenario(cells_per_axis=50)
g = build_grid(sc.domain, 51)
prob = EstimationProblem(realize(sc.F0, g), realize(sc.G0, g), 0.4)
basis = None
for eta in (1.0, 0.29999998500000224, 0.3437499859375021, 0.5999999900000164):
    model, _ = assemble_lp(prob, eta)
    basis = lp.solve(model, max_iterations=200_000, basis=basis).basis
"""


def test_warm_probe_chain_at_50_cells_survives():
    # the probes that an estimate at delta 0.4 started from the shift 0.3
    # makes on the 50x50 demo problem, each started from the basis of the
    # one before; the CLI no longer makes this chain, since each delta of
    # a ladder starts at eta = 1.  HiGHS in SciPy 1.17.1 died with SIGSEGV
    # on the fourth probe when it got the rows negated and reordered (see
    # ROADMAP item 1).  In a subprocess, because such a crash takes the
    # interpreter with it
    import os
    import subprocess
    import sys

    import hypodist

    src = os.path.dirname(os.path.dirname(os.path.abspath(hypodist.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _WARM_CHAIN], capture_output=True,
                         text=True, timeout=600, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr[-2000:]


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------


def test_problem_validation(two_uniforms_10, unit_square_grid, rng):
    F0, G0 = two_uniforms_10
    from tests.conftest import random_monotone

    other = random_monotone(rng, unit_square_grid)
    with pytest.raises(ValueError):
        EstimationProblem(F0, other, 0.5)  # different grids
    with pytest.raises(ValueError):
        EstimationProblem(F0, G0, -0.1)
    with pytest.raises(ValueError):
        EstimationProblem(F0, G0, np.inf)
    with pytest.raises(ValueError):
        EstimationProblem(F0, G0, 0.5, rho=-1.0)
    with pytest.raises(ValueError):
        EstimationProblem(F0, G0, 0.5, tol=0.0)
    bare = GridFunction(F0.grid, 1, F0.values)  # monotone flag missing
    with pytest.raises(ValueError):
        EstimationProblem(bare, G0, 0.5)
    big = GridFunction(F0.grid, 1, F0.values * 2.0, monotone=True)
    with pytest.raises(ValueError):
        EstimationProblem(big, G0, 0.5)  # range leaves [0, 1]
    with pytest.raises(ValueError):
        ShapeConstraints(monotone=False)
    with pytest.raises(ValueError):
        ShapeConstraints(bounded_growth=-1.0)
    assert prob_grid_roundtrip(F0, G0)


def prob_grid_roundtrip(F0, G0):
    prob = EstimationProblem(F0, G0, 0.5)
    return prob.grid == F0.grid and prob.rho > 0


# ---------------------------------------------------------------------------
# refinement study
# ---------------------------------------------------------------------------


def test_refinement_study_shape():
    prob = identity_problem(cells=4)
    rep = refinement_study(prob, (1, 2, 4), quad_points=8)
    assert tuple(rep.factors) == (1, 2, 4)
    assert len(rep.results) == 3
    assert len(rep.consecutive_distances) == 2
    # the target is exactly representable at every level, so the refined
    # solutions stay close to each other
    for d in rep.consecutive_distances:
        assert d.value < 0.2


def test_refinement_study_validation():
    prob = identity_problem(cells=4)
    with pytest.raises(ValueError):
        refinement_study(prob, (2,))  # need at least two levels
    with pytest.raises(ValueError):
        refinement_study(prob, (2, 3))  # 2 does not divide 3
    with pytest.raises(ValueError):
        refinement_study(prob, (4, 2))  # not increasing
