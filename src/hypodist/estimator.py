"""Shape-constrained CDF estimation inside an ambiguity ball.

Given a target F0 and an anchor G0 on a common grid, the estimator searches
for the grid function F, subject to CDF shape constraints, that gets as close
to F0 as the data allows while staying within a radius-delta ambiguity ball
around G0.  Closeness is measured by the cell-corner relaxation of the shift
distance: at shift eta the conditions

    F(min(l_k + eta, b)) + eta >= min(F0(u_k), rho)
    F0(min(l_k + eta, b)) + eta >= min(F(u_k), rho)        for every cell k

encode "F is within shift eta of F0"; the analogous conditions with delta and
G0 carry a shared nonnegative slack s.  At fixed eta everything is linear in
the vertex values (off-node evaluations expand to interpolation weights over
a Kuhn simplex's vertices), so the least slack is a linear program; the estimate
is the smallest eta whose minimal slack vanishes, or eta = 1 with positive
slack when even the loosest shift cannot reconcile the constraints.

The minimal slack is nonincreasing in eta (relaxing the target conditions
never tightens the ambiguity rows), and nondecreasing in shrinking delta,
so the returned eta responds monotonically to the ambiguity radius.  Below
a threshold eta_0 the system is infeasible, so the slack jumps there and
has no slope to follow.  ``estimate`` therefore searches one other curve:
the target slack t(eta), the least uniform relaxation t of the target rows
with the shape rows hard and the ambiguity slack capped at tol.  t(eta) <= 0
exactly where the minimal slack is at most tol.  Kuhn interpolation of a
monotone function is monotone, and the ambiguity rows do not depend on eta,
so a witness at eta satisfies the target rows at eta + d with t - d:
t(eta + d) <= t(eta) - d.  t is finite wherever the ambiguity rows admit a
slack of at most tol at all, with no jump at eta_0, and it falls as the
violation of the distance search does (``metrics.slope_bounded_search``
serves both).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import lp
from .functions import GridFunction, _axis_increments, cell_masses, resample
from .grid import Grid, _vertex_signs, corner_bits, interpolation_weights, refine
from .metrics import (
    DistanceReport,
    _require_unit_range,
    default_rho,
    hypo_dist_estimate,
    slope_bounded_search,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ShapeConstraints",
    "EstimationProblem",
    "EstimateResult",
    "RefinementReport",
    "ShapeInfeasibleError",
    "IterationLimitError",
    "assemble_lp",
    "min_slack",
    "estimate",
    "refinement_study",
    "shape_violation",
]


class ShapeInfeasibleError(ValueError):
    """The constraint system admits no function at the probed shift."""


class IterationLimitError(RuntimeError):
    """The LP backend hit its iteration budget before reaching optimality."""


@dataclass(frozen=True)
class ShapeConstraints:
    """Which structural constraints the estimate must satisfy.

    ``monotone`` is always on — the search space is monotone functions.
    ``boundary_zero`` pins v = 0 on every face touching the domain's lower
    corner; ``boundary_one`` pins v(b) = 1 at the upper corner;
    ``distribution_condition`` requires a nonnegative signed corner sum on
    every mesh cell; ``bounded_growth`` limits each simplex-edge difference
    to L times the edge's max-norm length.
    """

    monotone: bool = True
    boundary_zero: bool = True
    boundary_one: bool = True
    distribution_condition: bool = True
    bounded_growth: float | None = None

    def __post_init__(self) -> None:
        if not self.monotone:
            raise ValueError("the monotone constraint is always on")
        if self.bounded_growth is not None and not (
            self.bounded_growth >= 0 and math.isfinite(self.bounded_growth)
        ):
            raise ValueError(
                f"bounded_growth must be a finite L >= 0, got {self.bounded_growth}"
            )


class EstimationProblem:
    """Target, anchor, ambiguity radius and configuration for one estimate."""

    def __init__(
        self,
        F0: GridFunction,
        G0: GridFunction,
        delta: float,
        *,
        rho: float | None = None,
        shape: ShapeConstraints | None = None,
        tol: float = 1e-8,
    ) -> None:
        if F0.grid != G0.grid:
            raise ValueError("F0 and G0 must share the grid")
        if F0.grid.dim not in (1, 2):
            raise ValueError(f"estimation supports m in {{1, 2}}, got {F0.grid.dim}")
        if F0.order != 1 or G0.order != 1:
            raise ValueError("F0 and G0 must be order-1 (node-valued) functions")
        if not (F0.monotone and G0.monotone):
            raise ValueError("F0 and G0 must carry the monotone flag")
        _require_unit_range(F0, "F0")
        _require_unit_range(G0, "G0")
        if not (delta >= 0 and math.isfinite(delta)):
            raise ValueError(f"delta must be a finite nonnegative radius, got {delta}")
        rho_val = default_rho(F0.grid.domain) if rho is None else float(rho)
        if not (rho_val > 0 and math.isfinite(rho_val)):
            raise ValueError(f"rho must be positive and finite, got {rho_val}")
        if not (0 < tol < 1):
            raise ValueError(f"tol must be in (0, 1), got {tol}")
        self.F0 = F0
        self.G0 = G0
        self.delta = float(delta)
        self.rho = rho_val
        self.shape = shape if shape is not None else ShapeConstraints()
        self.tol = float(tol)

    @property
    def grid(self) -> Grid:
        return self.F0.grid

    def __repr__(self) -> str:
        return (
            f"EstimationProblem(grid={self.grid.shape}, delta={self.delta}, "
            f"rho={self.rho}, tol={self.tol})"
        )


@dataclass(frozen=True)
class EstimateResult:
    solution: GridFunction
    eta: float
    slack: float
    # (eta, LP objective, lp_iterations) per LP: the slack LP at eta = 1,
    # then the target LPs in the order solved
    history: list
    wall_time: float


@dataclass(frozen=True)
class RefinementReport:
    factors: list
    results: list
    consecutive_distances: list  # DistanceReport between successive solutions


# -- LP assembly -------------------------------------------------------------------


def assemble_lp(
    problem: EstimationProblem, eta: float, *, target: bool = False
) -> tuple[lp.LPModel, dict]:
    """Build an LP of the search at shift eta: vertex variables in [0, 1] and
    one slack s on the ambiguity rows.

    The slack LP (the default) has s >= 0 and objective = s.  The target LP
    (``target=True``) caps s at tol, adds a free variable t to every target
    row as a uniform relaxation, and has objective = t.

    Returns the model and a dictionary of row counts per constraint group,
    with the slack variable's index and, for the target LP, t's index under
    "target_index".
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    grid = problem.grid
    shape = problem.shape
    rho = problem.rho
    m = grid.dim
    dims = grid.shape
    n_nodes = grid.n_nodes
    dom = grid.domain

    kind = "target-slack" if target else "min-slack"
    model = lp.LPModel(name=f"{kind}(eta={eta:.6g})")

    # vertex variables; boundary flags become fixed bounds
    upper = np.ones(n_nodes)
    if shape.boundary_zero:
        upper[grid.lower_face_mask()] = 0.0
    lower = np.zeros(n_nodes)
    if shape.boundary_one:
        lower[-1] = upper[-1] = 1.0
    model.add_variables(lower, upper)
    s_idx = model.add_variable(lower=0.0, upper=problem.tol if target else math.inf,
                               objective=0.0 if target else 1.0)

    counts = {
        "monotone": 0,
        "distribution": 0,
        "growth": 0,
        "target_lower": 0,
        "target_upper": 0,
        "ambiguity_lower": 0,
        "ambiguity_upper": 0,
        "slack_index": s_idx,
    }
    t_idx = None
    if target:
        t_idx = counts["target_index"] = model.add_variable(
            lower=-math.inf, upper=math.inf, objective=1.0)

    def add_rows(group: str, idx, cf, sense: str, rhs) -> None:
        counts[group] += len(model.add_constraints(idx, cf, sense, rhs))

    # (a) monotonicity along every axis
    flat = np.arange(n_nodes).reshape(dims)  # flat node index per multi-index
    for ax in range(m):
        lo_nodes = np.delete(flat, -1, axis=ax).reshape(-1)
        hi_nodes = lo_nodes + int(np.prod(dims[ax + 1:]))
        add_rows("monotone", np.stack([lo_nodes, hi_nodes], axis=1),
                 np.broadcast_to([1.0, -1.0], (lo_nodes.size, 2)), "<=", 0.0)

    # cell corner bookkeeping shared by (c), (e), (f)
    corners = grid.cell_corners()
    u_flat = corners[:, -1]
    lower_pts, upper_pts = grid.cell_bounds()
    n_cells = corners.shape[0]

    # (c) distribution condition: signed corner sum >= 0 per cell, over the
    # cell's corners in the grid module's corner order
    if shape.distribution_condition:
        signs = _vertex_signs(m).astype(float)
        add_rows("distribution", corners,
                 np.broadcast_to(signs, corners.shape), ">=", 0.0)

    # (d) bounded growth on the unique edges of the Kuhn triangulation
    # (monotone is on, so one direction per edge suffices), one offset at a
    # time in the grid module's edge order: axis-0 edges, axis-1 edges, diagonals
    L = shape.bounded_growth
    if L is not None:
        for offset in corner_bits(m)[1:]:
            start, end, length = grid.edges(offset)
            a, b = flat[start].reshape(-1), flat[end].reshape(-1)
            add_rows("growth", np.stack([a, b], axis=1),
                     np.broadcast_to([-1.0, 1.0], (a.size, 2)), "<=",
                     (L * length).reshape(-1))

    # (e)/(f) shift rows over every cell, each cell's lower row followed by
    # its upper row, relaxed by the variable ``relax`` (t or s) if any:
    #   F(clip(l_k + r)) + r [+ relax] >= min(anchor(u_k), rho)
    #   anchor(clip(l_k + r)) + r [+ relax] >= min(F(u_k), rho), vacuous when
    #   the constant side already reaches rho, else a cap F(u_k) [- relax] <= ...
    def add_shift_rows(
        anchor: GridFunction, radius: float, relax: int | None, tag: str
    ) -> None:
        probe = np.clip(lower_pts + radius, dom.lower, dom.upper)
        w_nodes, w_vals = interpolation_weights(grid, probe)
        anchor_at_u = np.atleast_1d(anchor.eval(upper_pts))
        anchor_at_probe = anchor.interpolate(w_nodes, w_vals)
        lower_rhs = np.minimum(anchor_at_u, rho) - radius
        upper_rhs = anchor_at_probe + radius
        keep = upper_rhs < rho
        r_col = (np.empty((n_cells, 0), int) if relax is None
                 else np.full((n_cells, 1), relax))
        idx = np.hstack([w_nodes, r_col, u_flat[:, None], r_col])
        cf = np.hstack([w_vals, np.ones_like(r_col), np.ones((n_cells, 1)),
                        -np.ones_like(r_col)])
        w_lower = w_nodes.shape[1] + r_col.shape[1]
        entries = np.ones(idx.shape, dtype=bool)
        # weights at round-off level add nothing to a row (HiGHS drops
        # entries below its small_matrix_value, 1e-9, too)
        entries[:, : w_nodes.shape[1]] = np.abs(w_vals) > _SMALL_WEIGHT
        entries[:, w_lower:] = keep[:, None]
        rows = np.stack([np.ones(n_cells, dtype=bool), keep], axis=1)
        lengths = np.stack([np.count_nonzero(entries[:, :w_lower], axis=1),
                            np.count_nonzero(entries[:, w_lower:], axis=1)],
                           axis=1)[rows]
        model.add_constraints(
            idx[entries],
            cf[entries],
            np.broadcast_to([">=", "<="], rows.shape)[rows],
            np.stack([lower_rhs, upper_rhs], axis=1)[rows],
            row_ptr=np.concatenate([[0], np.cumsum(lengths)]),
        )
        counts[f"{tag}_lower"] += n_cells
        counts[f"{tag}_upper"] += int(np.count_nonzero(keep))

    add_shift_rows(problem.F0, eta, t_idx, "target")
    add_shift_rows(problem.G0, problem.delta, s_idx, "ambiguity")

    return model, counts


# interpolation weights at or below this magnitude are left out of the rows
_SMALL_WEIGHT = 1e-9


# simplex iteration budget of every LP solve
_MAX_ITERATIONS = 200_000


def _solve(
    problem: EstimationProblem, eta: float, method: str, *, target: bool = False,
    basis=None,
) -> tuple[lp.LPSolution, np.ndarray]:
    """Solve ``assemble_lp``'s LP at shift eta, from ``basis`` when it fits.

    Returns the solution and its x clipped to the variable bounds.  Raises
    unless HiGHS (or the simplex) reports an optimum."""
    model, _ = assemble_lp(problem, eta, target=target)
    sol = lp.solve(model, method=method, max_iterations=_MAX_ITERATIONS, basis=basis)
    if sol.status == "infeasible":
        raise ShapeInfeasibleError(
            f"constraint system infeasible at shift eta={eta:.6g} "
            f"(the shape constraints cannot be reconciled with the other rows)"
        )
    if sol.status == "iteration_limit":
        raise IterationLimitError(
            f"LP iteration budget exhausted at shift eta={eta:.6g}"
        )
    if sol.status != "optimal":
        raise lp.SolverError(
            f"unexpected LP status {sol.status!r} at shift eta={eta:.6g}"
        )
    return sol, np.clip(sol.x, *model.bounds)


def _witness(
    problem: EstimationProblem, eta: float, x: np.ndarray
) -> tuple[float, GridFunction]:
    """The slack s and the function F of a clipped LP solution x at shift
    eta (``assemble_lp`` puts s right after the node values)."""
    n = problem.grid.n_nodes
    try:
        F = GridFunction(problem.grid, 1, x[:n].reshape(problem.grid.shape),
                         monotone=True)
    except ValueError as e:
        raise lp.SolverError(f"LP solution at shift eta={eta:.6g}: {e}") from e
    return float(x[n]), F


def min_slack(
    problem: EstimationProblem,
    eta: float,
    *,
    method: str = "auto",
) -> tuple[float, GridFunction]:
    """Least ambiguity slack at a fixed shift eta, with its witness function.

    Raises ShapeInfeasibleError when no function satisfies the constraint
    system at this shift (possible at small eta, where the target rows
    contradict each other or the shape rows)."""
    return _witness(problem, eta, _solve(problem, eta, method)[1])


def estimate(
    problem: EstimationProblem,
    *,
    method: str = "auto",
) -> EstimateResult:
    """Smallest shift eta whose minimal ambiguity slack is at most tol
    (within tol), or eta = 1 with the positive residual slack when the
    ambiguity ball is too tight for the shape constraints.

    The first LP is the slack LP at eta = 1; when its slack exceeds tol,
    that is the answer.  Otherwise the target slack t(eta) (module
    docstring) is finite on [0, 1] and falls with slope at most -1, and
    ``slope_bounded_search`` brackets its root from lo = 0: the bracket
    (lo, hi] has t(lo) > 0 and t(hi) <= 0, and the search stops once
    hi - lo <= tol.  The answer is hi, or 0 when t(0) <= 0, and the
    solution and slack are the target LP's optimum there.  Should rounding
    leave t(1) > 0, the slack LP at eta = 1 is the answer.

    The target LP at 0 starts cold; each later one starts HiGHS from the
    optimal basis of the target LP before it.  Consecutive target LPs
    differ only in the target rows' coefficients and bounds, so a few
    pivots repair that basis.  It is used only when the row count matches,
    which holds whenever rho > 2: no upper target row is dropped then.
    The warm start covers one estimate only.

    Only the answer's LP solution becomes a witness and is checked for
    shape.  Next to the root, where t > 0 by round-off only, HiGHS has
    returned optima off a monotone row by 1.4e-7.

    ``history`` lists every LP as (eta, objective, lp_iterations): the slack
    LP at eta = 1 first, then the target LPs in the order solved.
    """
    t0 = time.perf_counter()
    tol = problem.tol
    sol, x = _solve(problem, 1.0, method)
    history = [(1.0, sol.objective, sol.iterations)]
    best = (1.0, x)  # the shift and LP solution of the answer
    s1 = x[problem.grid.n_nodes]
    if s1 > tol:
        logger.info(
            "estimate: slack %.3g persists at eta=1; ambiguity radius too tight",
            s1,
        )
    else:
        basis = None

        def t_at(eta: float) -> float:
            nonlocal basis, best
            sol, x = _solve(problem, eta, method, target=True, basis=basis)
            basis = sol.basis
            history.append((eta, sol.objective, sol.iterations))
            if sol.objective <= 0.0:
                best = (eta, x)
            return sol.objective

        t_lo = t_at(0.0)
        if t_lo > 0.0:
            slope_bounded_search(t_at, 0.0, t_lo, 1.0, tol, 0.0)
    eta_star = best[0]
    s_star, F_star = _witness(problem, *best)
    _warn_if_shape_violated(problem, F_star)
    logger.info("estimate: eta=%.8f slack=%.3g after %d LP solves",
                eta_star, s_star, len(history))
    return EstimateResult(F_star, eta_star, s_star, history, time.perf_counter() - t0)


def shape_violation(problem: EstimationProblem, F: GridFunction) -> float:
    """Largest violation of the active shape constraints by F (0 = clean)."""
    shape = problem.shape
    grid = problem.grid
    v = F.values
    worst = max(0.0, -_axis_increments(v))
    if shape.boundary_zero:
        on_face = grid.lower_face_mask()
        worst = max(worst, float(np.max(np.abs(v.reshape(-1)[on_face]))))
    if shape.boundary_one:
        worst = max(worst, abs(float(v.reshape(-1)[-1]) - 1.0))
    if shape.distribution_condition:
        worst = max(worst, -float(np.min(cell_masses(F))))
    L = shape.bounded_growth
    if L is not None:
        for offset in corner_bits(grid.dim)[1:]:
            start, end, length = grid.edges(offset)
            excess = np.abs(v[end] - v[start]) - L * length
            worst = max(worst, float(np.max(excess)))
    return max(worst, 0.0)


def _warn_if_shape_violated(problem: EstimationProblem, F: GridFunction) -> None:
    bad = shape_violation(problem, F)
    if bad > 1e-8:
        logger.warning("solution violates a shape constraint by %.3g", bad)


def refinement_study(
    problem: EstimationProblem,
    factors,
    *,
    method: str = "auto",
    quad_points: int = 32,
) -> RefinementReport:
    """Re-estimate on nested refinements and track how solutions settle.

    ``factors`` are integer refinement multiples of the problem's grid, each
    dividing the next so node sets nest and resampling is exact.  The report
    carries one EstimateResult per level plus the bracketed hypograph
    distance between consecutive solutions, compared on the finer grid.
    """
    factors = [int(f) for f in factors]
    if len(factors) < 2:
        raise ValueError("a refinement study needs at least two levels")
    if factors[0] < 1 or any(b % a != 0 for a, b in zip(factors, factors[1:])):
        raise ValueError(
            f"factors must be increasing, each dividing the next; got {factors}"
        )

    base = problem.grid
    results: list[EstimateResult] = []
    grids: list[Grid] = []
    for f in factors:
        g = refine(base, f)
        sub = EstimationProblem(
            resample(problem.F0, g),
            resample(problem.G0, g),
            problem.delta,
            rho=problem.rho,
            shape=problem.shape,
            tol=problem.tol,
        )
        results.append(estimate(sub, method=method))
        grids.append(g)
        logger.info(
            "refinement factor %d: eta=%.6f slack=%.3g",
            f,
            results[-1].eta,
            results[-1].slack,
        )

    distances: list[DistanceReport] = []
    for prev, cur, g in zip(results, results[1:], grids[1:]):
        prev_fine = resample(prev.solution, g)
        distances.append(
            hypo_dist_estimate(
                prev_fine, cur.solution, quad_points=quad_points, tol=problem.tol
            )
        )
    return RefinementReport(factors, results, distances)
