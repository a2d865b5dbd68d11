from __future__ import annotations

import numpy as np
import pytest

from hypodist import LPModel, brute_force_minimum, solve
from hypodist.lp import constraint_residuals
from tests.conftest import random_feasible_lp

METHODS = ("highs", "simplex")


def two_var_model():
    # min -x - 2y  s.t.  x + y <= 4, x <= 3, y <= 3, x,y >= 0
    m = LPModel("toy")
    x = m.add_variable(upper=3.0, objective=-1.0, name="x")
    y = m.add_variable(upper=3.0, objective=-2.0, name="y")
    m.add_constraint([x, y], [1.0, 1.0], "<=", 4.0)
    return m


@pytest.mark.parametrize("method", METHODS)
def test_known_optimum(method):
    sol = solve(two_var_model(), method=method)
    assert sol.ok
    assert sol.objective == pytest.approx(-7.0, abs=1e-9)  # x=1, y=3
    assert np.allclose(sol.x, [1.0, 3.0], atol=1e-9)


@pytest.mark.parametrize("method", METHODS)
def test_equality_row(method):
    # min x + y  s.t.  x + 2y = 2, x,y in [0, 5]
    m = LPModel()
    x = m.add_variable(upper=5.0, objective=1.0)
    y = m.add_variable(upper=5.0, objective=1.0)
    m.add_constraint([x, y], [1.0, 2.0], "==", 2.0)
    sol = solve(m, method=method)
    assert sol.ok
    assert sol.objective == pytest.approx(1.0, abs=1e-9)  # y=1, x=0
    assert np.allclose(sol.x, [0.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("method", METHODS)
def test_negative_lower_bounds(method):
    # min x + y  s.t.  x + y >= -2.5 with boxes [-2,2] and [-1,1]: the row
    # binds before either box corner is reached
    m = LPModel()
    x = m.add_variable(lower=-2.0, upper=2.0, objective=1.0)
    y = m.add_variable(lower=-1.0, upper=1.0, objective=1.0)
    m.add_constraint([x, y], [1.0, 1.0], ">=", -2.5)
    sol = solve(m, method=method)
    assert sol.ok
    assert sol.objective == pytest.approx(-2.5, abs=1e-9)
    assert constraint_residuals(m, sol.x).max() <= 1e-9


@pytest.mark.parametrize("method", METHODS)
def test_infeasible(method):
    m = LPModel()
    x = m.add_variable(upper=1.0, objective=1.0)
    m.add_constraint([x], [1.0], ">=", 2.0)
    sol = solve(m, method=method)
    assert sol.status == "infeasible"
    assert not sol.ok


@pytest.mark.parametrize("method", METHODS)
def test_unbounded(method):
    m = LPModel()
    x = m.add_variable(objective=-1.0)  # upper defaults to +inf
    m.add_constraint([x], [1.0], ">=", 0.0)
    sol = solve(m, method=method)
    assert sol.status == "unbounded"


def test_iteration_limit_status():
    m, _ = random_feasible_lp(np.random.default_rng(5), 20, 30)
    sol = solve(m, method="simplex", max_iterations=1)
    assert sol.status == "iteration_limit"


def test_duplicate_indices_are_merged():
    m = LPModel()
    x = m.add_variable(upper=4.0, objective=1.0)
    m.add_constraint([x, x], [1.0, 1.0], ">=", 4.0)  # means 2x >= 4
    sol = solve(m)
    assert sol.ok and sol.objective == pytest.approx(2.0, abs=1e-9)


def test_dense_view_and_residuals_match_row_loop():
    rng = np.random.default_rng(3)
    m, _ = random_feasible_lp(rng, 7, 9)
    m.add_constraint([0, 2, 0], [1.0, -2.0, 0.5], "==", 0.25)  # duplicate index
    A, b, senses = m.dense_matrix()
    x = rng.uniform(-1.0, 2.0, m.n_variables)
    for i, row in enumerate(m.rows()):
        dense_row = np.zeros(m.n_variables)
        for j, c in zip(row.indices, row.coeffs):
            dense_row[j] += c
        assert np.array_equal(A[i], dense_row)
        assert (b[i], senses[i]) == (row.rhs, row.sense)
        gap = float(np.dot(row.coeffs, x[row.indices])) - row.rhs
        want = {"<=": max(gap, 0.0), ">=": max(-gap, 0.0), "==": abs(gap)}[row.sense]
        # summation order may differ from np.dot: allow a few ulps of the terms
        scale = np.sum(np.abs(row.coeffs * x[row.indices])) + abs(row.rhs)
        assert constraint_residuals(m, x)[i] == pytest.approx(
            want, abs=8 * np.finfo(float).eps * scale)


def test_model_validation():
    m = LPModel()
    with pytest.raises(ValueError):
        m.add_variable(lower=2.0, upper=1.0)
    with pytest.raises(ValueError):
        m.add_variable(objective=np.inf)
    x = m.add_variable()
    with pytest.raises(ValueError):
        m.add_constraint([x + 5], [1.0], "<=", 1.0)
    with pytest.raises(ValueError):
        m.add_constraint([x], [1.0], "!=", 1.0)
    with pytest.raises(ValueError):
        m.add_constraint([x], [1.0], "<=", np.inf)
    with pytest.raises(ValueError):
        m.add_constraint([x], [1.0, 2.0], "<=", 1.0)
    y = m.add_variable()
    idx, cf = [[x, y], [y, x]], [[1.0, 1.0], [1.0, -1.0]]
    m.add_constraints(idx, cf, ["<=", ">="], [1.0, 0.0])  # the valid batch
    bad_batches = [
        ([[x, y + 5], [y, x]], cf, "<=", 1.0),  # unknown variable
        (idx, cf, ["<=", "!="], 1.0),  # bad sense
        (idx, cf, "<=", [1.0, np.nan]),  # non-finite rhs
        (idx, [[1.0, np.inf], [1.0, -1.0]], "<=", 1.0),  # non-finite coefficient
        (idx, [[1.0, 1.0]], "<=", 1.0),  # coefficient shape mismatch
        (idx, cf, ["<=", ">=", "=="], 1.0),  # one sense too many
        (idx, cf, "<=", [1.0, 2.0, 3.0]),  # one rhs too many
    ]
    for batch in bad_batches:
        with pytest.raises(ValueError):
            m.add_constraints(*batch)
    with pytest.raises(ValueError):  # row pointers that miss an entry
        m.add_constraints([x, y, x], [1.0, 1.0, 1.0], "<=", [1.0, 1.0],
                          row_ptr=[0, 1, 2])
    assert m.n_constraints == 2


def test_methods_agree_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m, _ = random_feasible_lp(rng, int(rng.integers(2, 12)),
                                  int(rng.integers(1, 10)))
        a = solve(m, method="highs")
        b = solve(m, method="simplex")
        assert a.ok and b.ok
        assert a.objective == pytest.approx(b.objective, abs=1e-7)
        assert constraint_residuals(m, a.x).max() <= 1e-9
        assert constraint_residuals(m, b.x).max() <= 1e-9


def test_brute_force_cross_check():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m, _ = random_feasible_lp(rng, int(rng.integers(2, 5)),
                                  int(rng.integers(1, 4)))
        best, arg = brute_force_minimum(m)
        sol = solve(m, method="simplex")
        assert sol.ok
        assert sol.objective == pytest.approx(best, abs=1e-7)


def test_dual_values_toy():
    # max-flow style toy where the binding row's dual is the objective slope
    m = two_var_model()
    sol = solve(m, method="simplex")
    assert sol.duals is not None
    # tightening x + y <= 4 by one unit loses one unit of objective
    assert sol.duals[0] == pytest.approx(-1.0, abs=1e-9)


def test_determinism():
    m, _ = random_feasible_lp(np.random.default_rng(7), 8, 6)
    s1 = solve(m, method="simplex")
    s2 = solve(m, method="simplex")
    assert s1.objective == s2.objective
    assert np.array_equal(s1.x, s2.x)
