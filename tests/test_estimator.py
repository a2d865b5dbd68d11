from __future__ import annotations

import numpy as np
import pytest

from hypodist import (
    Domain,
    EstimationProblem,
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


def reference_lp(problem, eta):
    """Row-by-row build of the estimation LP in its documented row order:
    monotone rows axis by axis, distribution rows, growth rows (axis-0
    edges, axis-1 edges, diagonals), then per anchor each cell's lower row
    followed by its upper row when kept."""
    grid, shape, rho = problem.grid, problem.shape, problem.rho
    dims, m, n = grid.shape, grid.dim, grid.n_nodes
    rows, counts = [], dict.fromkeys(
        ["monotone", "distribution", "growth", "target_lower", "target_upper",
         "ambiguity_lower", "ambiguity_upper"], 0)
    counts["slack_index"] = s = n

    def add(group, idx, cf, sense, rhs):
        rows.append((idx, cf, sense, float(rhs)))
        counts[group] += 1

    def node(*multi):
        return int(np.ravel_multi_index(multi, dims))

    lower = np.zeros(n + 1)
    upper = np.ones(n + 1)
    upper[-1] = np.inf
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
    for anchor, r, slack, tag in ((problem.F0, eta, False, "target"),
                                  (problem.G0, problem.delta, True, "ambiguity")):
        probe = np.clip(lower_pts + r, grid.domain.lower, grid.domain.upper)
        w_nodes, w_vals = interpolation_weights(grid, probe)
        at_u = np.atleast_1d(anchor.eval(upper_pts))
        at_probe = np.atleast_1d(anchor.eval(probe))
        extra_idx, extra_cf = ([s], [1.0]) if slack else ([], [])
        for k, c in enumerate(cells):
            add(f"{tag}_lower", list(w_nodes[k]) + extra_idx, list(w_vals[k]) + extra_cf,
                ">=", min(at_u[k], rho) - r)
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
    return [(one_d, 0.3), (two_d, 0.4), (two_d_capped, 0.25), (capped, 0.3)]


@pytest.mark.parametrize("case", range(4), ids=["1d-growth", "2d-growth",
                                                 "2d-partly-capped", "capped"])
def test_assembly_matches_row_by_row_reference(case):
    problem, eta = _equivalence_cases()[case]
    rows, (lower, upper), ref_counts = reference_lp(problem, eta)
    model, counts = assemble_lp(problem, eta)
    row_ptr, idx, cf, codes, rhs = model.row_arrays()
    assert np.array_equal(row_ptr, np.cumsum([0] + [len(r[0]) for r in rows]))
    assert np.array_equal(idx, np.concatenate([r[0] for r in rows]).astype(np.int64))
    assert np.array_equal(cf, np.concatenate([r[1] for r in rows]))
    assert [SENSES[c] for c in codes] == [r[2] for r in rows]
    assert np.array_equal(rhs, [r[3] for r in rows])
    lo, hi = model.bounds
    assert np.array_equal(lo, lower) and np.array_equal(hi, upper)
    assert counts == ref_counts
    assert model.objective.tolist() == [0.0] * problem.grid.n_nodes + [1.0]
    assert [r.indices.tolist() for r in model.rows()] == [list(r[0]) for r in rows]


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
    # history records the eta=1 probe first, then the bisection path
    assert res.history[0][0] == 1.0
    assert res.wall_time > 0
    assert shape_violation(prob, res.solution) <= 1e-8


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


def test_estimate_is_deterministic(two_uniforms_10):
    F0, G0 = two_uniforms_10
    r1 = estimate(EstimationProblem(F0, G0, 0.4))
    r2 = estimate(EstimationProblem(F0, G0, 0.4))
    assert r1.eta == r2.eta
    assert np.array_equal(r1.solution.values, r2.solution.values)


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
