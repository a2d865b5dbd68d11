from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hypodist import LPModel, brute_force_minimum, lp, solve
from hypodist.lp import constraint_residuals
from tests.conftest import random_feasible_lp

METHODS = ("highs", "simplex")


def two_var_model():
    # min -x - 2y  s.t.  x + y <= 4, x <= 3, y <= 3, x,y >= 0
    m = LPModel("toy")
    x = m.add_variable(upper=3.0, objective=-1.0)
    y = m.add_variable(upper=3.0, objective=-2.0)
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
    wider = LPModel()
    wider.add_variables([0.0] * 3, [1.0] * 3)
    with pytest.raises(ValueError):  # rows over variables m does not have
        m.add_rows_from(wider)
    assert m.n_constraints == 2
    wider.add_rows_from(m)
    assert np.array_equal(wider.dense_matrix()[0][:, :2], m.dense_matrix()[0])


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


# ---------------------------------------------------------------------------
# the direct HiGHS call, its warm start and its fallbacks
# ---------------------------------------------------------------------------


def random_models(seed, count=12):
    """Random feasible LPs with an infeasible one and an equality row mixed
    in, so each status path and row kind is covered."""
    rng = np.random.default_rng(seed)
    models = [random_feasible_lp(rng, int(rng.integers(2, 10)),
                                 int(rng.integers(1, 9)))[0]
              for _ in range(count)]
    models[1].add_constraint([0, 1, 0], [1.0, -2.0, 0.5], "==", 0.25)
    models[2].add_constraint([0], [1.0], ">=", 1e3)  # beyond the bound
    return models


def same_solution(a, b):
    if (a.status, a.iterations) != (b.status, b.iterations):
        return False
    if a.x is None or b.x is None:
        return a.x is None and b.x is None
    return a.objective == b.objective and np.array_equal(a.x, b.x)


def test_missing_bindings_raise_solver_error(monkeypatch):
    # without SciPy's HiGHS bindings a HiGHS solve fails with one message,
    # and the bundled simplex still solves
    import sys

    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(lp.SolverError, match="SciPy >= 1.15"):
        solve(two_var_model(), method="highs")
    assert solve(two_var_model(), method="simplex").ok


def test_highs_sums_duplicates_on_a_copy():
    # the last row of this model has index 0 twice, after index 1: HiGHS
    # gets it summed, the model keeps its entries as they were, and a
    # second cold solve returns the first one's solution
    m = random_models(53)[1]
    before = [a.copy() for a in m.row_arrays()]
    first, second = solve(m), solve(m)
    assert all(np.array_equal(a, b) for a, b in zip(before, m.row_arrays()))
    assert first.ok and same_solution(first, second)
    assert first.objective == pytest.approx(solve(m, method="simplex").objective, abs=1e-9)


def test_basis_is_returned_and_reused():
    m, _ = random_feasible_lp(np.random.default_rng(41), 9, 8)
    cold = solve(m)
    assert cold.ok and cold.basis is not None
    assert solve(m, method="simplex").basis is None
    warm = solve(m, basis=cold.basis)
    # restarting from the optimal basis of the same model needs no pivot
    assert warm.ok and warm.iterations == 0
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def test_basis_of_another_shape_is_ignored(caplog):
    small, _ = random_feasible_lp(np.random.default_rng(43), 3, 2)
    models = random_models(47, count=4)
    basis = solve(small).basis
    with caplog.at_level("DEBUG", logger="hypodist.lp"):
        for m in models:
            assert same_solution(solve(m, basis=basis), solve(m))
    assert "start=warm" not in caplog.text


def test_rejected_basis_falls_back_to_cold(caplog):
    # a basis with every variable basic has the right counts but is not a
    # basis; unless marked alien (to be repaired), HiGHS rejects it and the
    # model is solved as without one
    import scipy.optimize._highspy._core as core

    for m in random_models(53):
        bad = core.HighsBasis()
        bad.col_status = [core.HighsBasisStatus.kBasic] * m.n_variables
        bad.row_status = [core.HighsBasisStatus.kBasic] * m.n_constraints
        bad.valid, bad.alien = True, False
        with caplog.at_level("DEBUG", logger="hypodist.lp"):
            shape = (m.n_constraints, m.n_variables)
            assert same_solution(solve(m, basis=(shape, bad)), solve(m))
        assert "start=warm, cold retry" in caplog.text
        caplog.clear()


def test_failed_warm_solve_falls_back_to_cold(monkeypatch, caplog):
    # a warm run that ends outside the known statuses is re-solved cold,
    # with the same status and objective as a cold solve
    import scipy.optimize._highspy._core as core

    models = random_models(59)
    bases = [solve(m).basis for m in random_models(59)]
    cold = [solve(m) for m in models]

    class WarmRunFails(core._Highs):
        def setBasis(self, *args):
            self.warm = True
            return super().setBasis(*args)

        def run(self):
            if getattr(self, "warm", False):
                return core.HighsStatus.kError
            return super().run()

    monkeypatch.setattr(core, "_Highs", WarmRunFails)
    with caplog.at_level("DEBUG", logger="hypodist.lp"):
        retried = [solve(m, basis=b) for m, b in zip(models, bases)]
    assert caplog.text.count("start=warm, cold retry") == sum(
        b is not None for b in bases)
    for a, b in zip(cold, retried):
        assert same_solution(a, b)


def test_warm_run_at_its_budget_falls_back_to_cold(monkeypatch, caplog):
    # a warm run may take rows + columns iterations; one that stops there is
    # re-solved cold, with the cold solve's status and objective, and the
    # stopped run's iterations count on top of the cold run's
    from hypodist import lp

    models = random_models(61)
    bases = [solve(m).basis for m in models]
    cold = [solve(m) for m in models]
    run_highs, budgets = lp._run_highs, []

    def stalls_warm(core, model, max_iterations, presolve, basis=None):
        if basis is None:
            return run_highs(core, model, max_iterations, presolve)
        budgets.append(max_iterations)
        return "iteration_limit", None, max_iterations, "Iteration limit reached"

    monkeypatch.setattr(lp, "_run_highs", stalls_warm)
    with caplog.at_level("DEBUG", logger="hypodist.lp"):
        retried = [solve(m, basis=b) for m, b in zip(models, bases)]
    warm = [m for m, b in zip(models, bases) if b is not None]
    assert warm and budgets == [m.n_constraints + m.n_variables for m in warm]
    assert caplog.text.count("start=warm, cold retry") == len(warm)
    budget = {id(m): m.n_constraints + m.n_variables for m in warm}
    for m, a, b in zip(models, cold, retried):
        assert b.iterations == a.iterations + budget.get(id(m), 0)
        assert same_solution(a, dataclasses.replace(b, iterations=a.iterations))


def test_concurrent_solves_match_sequential_ones():
    # HiGHS releases the GIL while it solves, so solves on several threads
    # overlap, as the deltas of a CLI ladder do.  Each thread runs the
    # estimator's slack LPs cold and its target LPs as a warm chain, in its
    # own rotation, and must get what a sequential run gets.
    import sys
    import threading

    from hypodist import EstimationProblem, build_grid, realize, two_uniforms_scenario
    from hypodist.estimator import assemble_lp

    sc = two_uniforms_scenario(cells_per_axis=12)
    g = build_grid(sc.domain, 13)
    problem = EstimationProblem(realize(sc.F0, g), realize(sc.G0, g), 0.4)
    etas = (0.0, 0.25, 0.5, 0.75, 1.0)
    slack = [assemble_lp(problem, eta)[0] for eta in etas]
    target = [assemble_lp(problem, eta, target=True)[0] for eta in etas]

    def run(k: int) -> list:
        sols = [solve(m) for m in slack[k:] + slack[:k]]
        basis = None
        for m in target[k:] + target[:k]:
            sols.append(solve(m, basis=basis))
            basis = sols[-1].basis
        return sols

    n_threads = 4
    expected = [run(k) for k in range(n_threads)]
    got = [None] * n_threads
    start = threading.Barrier(n_threads)

    def work(k: int) -> None:
        start.wait()
        got[k] = run(k)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert any(s.status == "infeasible" for s in expected[0])
    assert any(s.ok for s in expected[0])
    for want, have in zip(expected, got):
        assert len(have) == len(want)
        assert all(same_solution(a, b) for a, b in zip(want, have))
