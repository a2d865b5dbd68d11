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
a triangle's vertices), so the least slack is a linear program; the estimate
is the smallest eta whose minimal slack vanishes, found by binary search, or
eta = 1 with positive slack when even the loosest shift cannot reconcile the
constraints.

The minimal slack is nonincreasing in eta (relaxing the target conditions
never tightens the ambiguity rows), which is what makes the binary search
valid, and it is nondecreasing in shrinking delta, so the returned eta
responds monotonically to the ambiguity radius.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .functions import GridFunction, interpolation_weights, resample
from .grid import Grid, refine
from .metrics import DistanceReport, RhoBall, default_rho, hypo_dist_estimate

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
    every mesh cell; ``bounded_growth`` limits each triangle-edge difference
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
        rho: RhoBall | float | None = None,
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
        for name, f in (("F0", F0), ("G0", G0)):
            vmin, vmax = float(np.min(f.values)), float(np.max(f.values))
            if vmin < -1e-9 or vmax > 1.0 + 1e-9:
                raise ValueError(f"{name} must take values in [0, 1], got "
                                 f"[{vmin:.3g}, {vmax:.3g}]")
        if not (delta >= 0 and math.isfinite(delta)):
            raise ValueError(f"delta must be a finite nonnegative radius, got {delta}")
        if isinstance(rho, RhoBall):
            rho_val = rho.radius
        elif rho is None:
            rho_val = default_rho(F0.grid.domain)
        else:
            rho_val = float(rho)
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
    history: list  # (eta, slack, lp_iterations) per solve, in order
    wall_time: float


@dataclass(frozen=True)
class RefinementReport:
    factors: list
    results: list
    consecutive_distances: list  # DistanceReport between successive solutions


# -- LP assembly -------------------------------------------------------------------


def assemble_lp(problem: EstimationProblem, eta: float) -> tuple[lp.LPModel, dict]:
    """Build the fixed-shift feasibility LP: vertex variables in [0, 1], one
    slack on the ambiguity rows, objective = slack.

    Returns the model and a dictionary of row counts per constraint group
    (and the slack variable's index).
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

    model = lp.LPModel(name=f"min-slack(eta={eta:.6g})")

    # vertex variables; boundary flags become fixed bounds
    upper = np.ones(n_nodes)
    if shape.boundary_zero:
        nodes = grid.node_lattice()
        upper[np.any(nodes == dom.lower, axis=1)] = 0.0
    lower = np.zeros(n_nodes)
    if shape.boundary_one:
        lower[-1] = upper[-1] = 1.0
    model.add_variables(lower, upper)
    s_idx = model.add_variable(lower=0.0, upper=math.inf, objective=1.0, name="s")

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
    l_flat = flat[(slice(None, -1),) * m].reshape(-1)
    u_flat = flat[(slice(1, None),) * m].reshape(-1)
    lower_pts, upper_pts = grid.cell_bounds()
    n_cells = l_flat.size

    # (c) distribution condition: signed corner sum >= 0 per cell
    if shape.distribution_condition:
        if m == 1:
            corners, signs = [l_flat, u_flat], [-1.0, 1.0]
        else:
            # lower-left, +1 along axis 0, +1 along axis 1, upper-right
            corners = [l_flat, l_flat + dims[1], l_flat + 1, u_flat]
            signs = [1.0, -1.0, -1.0, 1.0]
        add_rows("distribution", np.stack(corners, axis=1),
                 np.broadcast_to(signs, (n_cells, len(signs))), ">=", 0.0)

    # (d) bounded growth on unique triangle edges (monotone is on, so one
    # direction per edge suffices): axis-0 edges, axis-1 edges, diagonals
    L = shape.bounded_growth
    if L is not None:
        if m == 1:
            edges = [(flat[:-1], 1, L * np.diff(grid.axes[0]))]
        else:
            h1, h2 = (np.diff(a) for a in grid.axes)
            edges = [
                (flat[:-1, :], dims[1], np.repeat(L * h1, dims[1])),
                (flat[:, :-1], 1, np.tile(L * h2, dims[0])),
                (flat[:-1, :-1], dims[1] + 1, L * np.maximum.outer(h1, h2)),
            ]
        for start, step, rhs in edges:
            a = start.reshape(-1)
            add_rows("growth", np.stack([a, a + step], axis=1),
                     np.broadcast_to([-1.0, 1.0], (a.size, 2)), "<=", rhs.reshape(-1))

    # (e)/(f) shift rows over every cell, each cell's lower row followed by
    # its upper row:
    #   F(clip(l_k + r)) + r [+ s] >= min(anchor(u_k), rho)
    #   anchor(clip(l_k + r)) + r [+ s] >= min(F(u_k), rho), vacuous when the
    #   constant side already reaches rho, else a cap F(u_k) [- s] <= ...
    def add_shift_rows(
        anchor: GridFunction, radius: float, slack: bool, tag: str
    ) -> None:
        probe = np.clip(lower_pts + radius, dom.lower, dom.upper)
        w_nodes, w_vals = interpolation_weights(grid, probe)
        anchor_at_u = np.atleast_1d(anchor.eval(upper_pts))
        anchor_at_probe = np.atleast_1d(anchor.eval(probe))
        lower_rhs = np.minimum(anchor_at_u, rho) - radius
        upper_rhs = anchor_at_probe + radius
        keep = upper_rhs < rho
        s_col = np.full((n_cells, int(slack)), s_idx)
        idx = np.hstack([w_nodes, s_col, u_flat[:, None], s_col])
        cf = np.hstack([w_vals, np.ones_like(s_col), np.ones((n_cells, 1)),
                        -np.ones_like(s_col)])
        w_lower = w_nodes.shape[1] + int(slack)
        w_upper = 1 + int(slack)
        entries = np.ones(idx.shape, dtype=bool)
        entries[:, w_lower:] = keep[:, None]
        rows = np.stack([np.ones(n_cells, dtype=bool), keep], axis=1)
        lengths = np.broadcast_to([w_lower, w_upper], rows.shape)[rows]
        model.add_constraints(
            idx[entries],
            cf[entries],
            np.broadcast_to([">=", "<="], rows.shape)[rows],
            np.stack([lower_rhs, upper_rhs], axis=1)[rows],
            row_ptr=np.concatenate([[0], np.cumsum(lengths)]),
        )
        counts[f"{tag}_lower"] += n_cells
        counts[f"{tag}_upper"] += int(np.count_nonzero(keep))

    add_shift_rows(problem.F0, eta, slack=False, tag="target")
    add_shift_rows(problem.G0, problem.delta, slack=True, tag="ambiguity")

    return model, counts


def min_slack(
    problem: EstimationProblem,
    eta: float,
    *,
    method: str = "auto",
    max_iterations: int = 200_000,
) -> tuple[float, GridFunction]:
    """Least ambiguity slack at a fixed shift eta, with its witness function.

    Raises ShapeInfeasibleError when no function satisfies the constraint
    system at this shift (possible at small eta, where the target rows
    contradict each other or the shape rows)."""
    s, F, _ = _solve_at(problem, eta, method=method, max_iterations=max_iterations)
    return s, F


def _solve_at(
    problem: EstimationProblem,
    eta: float,
    *,
    method: str,
    max_iterations: int,
) -> tuple[float, GridFunction, int]:
    model, counts = assemble_lp(problem, eta)
    sol = lp.solve(model, method=method, max_iterations=max_iterations)
    if sol.status == "infeasible":
        raise ShapeInfeasibleError(
            f"constraint system infeasible at shift eta={eta:.6g} "
            f"(shape constraints and target rows cannot be reconciled)"
        )
    if sol.status == "iteration_limit":
        raise IterationLimitError(
            f"LP iteration budget exhausted at shift eta={eta:.6g}"
        )
    if sol.status != "optimal":
        raise RuntimeError(f"unexpected LP status {sol.status!r}")
    x = sol.x
    s = max(float(x[counts["slack_index"]]), 0.0)
    values = np.clip(x[: problem.grid.n_nodes], 0.0, 1.0).reshape(problem.grid.shape)
    F = GridFunction(problem.grid, 1, values, monotone=True)
    return s, F, sol.iterations


def estimate(
    problem: EstimationProblem,
    *,
    method: str = "auto",
    max_iterations: int = 200_000,
) -> EstimateResult:
    """Smallest shift eta whose minimal ambiguity slack vanishes (within the
    problem tolerance), or eta = 1 with the positive residual slack when the
    ambiguity ball is too tight for the shape constraints.
    """
    t0 = time.perf_counter()
    eps = problem.tol
    history: list[tuple[float, float, int]] = []

    s1, F1, it1 = _solve_at(
        problem, 1.0, method=method, max_iterations=max_iterations
    )
    history.append((1.0, s1, it1))
    if s1 > eps:
        logger.info(
            "estimate: slack %.3g persists at eta=1; ambiguity radius too tight",
            s1,
        )
        _warn_if_shape_violated(problem, F1)
        return EstimateResult(F1, 1.0, s1, history, time.perf_counter() - t0)

    lo, hi = 0.0, 1.0
    best = (1.0, s1, F1)
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        try:
            s, F, it = _solve_at(
                problem, mid, method=method, max_iterations=max_iterations
            )
        except ShapeInfeasibleError:
            s, F, it = math.inf, None, 0
        history.append((mid, s, it))
        if s <= eps and F is not None:
            hi = mid
            best = (mid, s, F)
        else:
            lo = mid
    eta_star, s_star, F_star = best
    _warn_if_shape_violated(problem, F_star)
    logger.info(
        "estimate: eta=%.8f slack=%.3g after %d LP solves",
        eta_star,
        s_star,
        len(history),
    )
    return EstimateResult(F_star, eta_star, s_star, history, time.perf_counter() - t0)


def shape_violation(problem: EstimationProblem, F: GridFunction) -> float:
    """Largest violation of the active shape constraints by F (0 = clean)."""
    shape = problem.shape
    grid = problem.grid
    v = F.values
    worst = 0.0
    for ax in range(grid.dim):
        d = np.diff(v, axis=ax)
        if d.size:
            worst = max(worst, -float(np.min(d)))
    if shape.boundary_zero:
        nodes = grid.node_lattice()
        on_face = np.zeros(grid.n_nodes, dtype=bool)
        for i in range(grid.dim):
            on_face |= nodes[:, i] == grid.domain.lower[i]
        worst = max(worst, float(np.max(np.abs(v.reshape(-1)[on_face]))))
    if shape.boundary_one:
        worst = max(worst, abs(float(v.reshape(-1)[-1]) - 1.0))
    if shape.distribution_condition:
        mass = v
        for ax in range(grid.dim):
            mass = np.diff(mass, axis=ax)
        if mass.size:
            worst = max(worst, -float(np.min(mass)))
    L = shape.bounded_growth
    if L is not None:
        if grid.dim == 1:
            h = np.diff(grid.axes[0])
            worst = max(worst, float(np.max(np.abs(np.diff(v)) - L * h)))
        else:
            h1 = np.diff(grid.axes[0])
            h2 = np.diff(grid.axes[1])
            d0 = np.abs(np.diff(v, axis=0)) - L * h1[:, None]
            d1 = np.abs(np.diff(v, axis=1)) - L * h2[None, :]
            ddiag = np.abs(v[1:, 1:] - v[:-1, :-1]) - L * np.maximum(
                h1[:, None], h2[None, :]
            )
            worst = max(
                worst,
                float(np.max(d0)),
                float(np.max(d1)),
                float(np.max(ddiag)),
            )
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
            hypo_dist_estimate(prev_fine, cur.solution, quad_points=quad_points)
        )
    return RefinementReport(factors, results, distances)
