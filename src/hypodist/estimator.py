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
never tightens the ambiguity rows), which is what makes a bracketing search
over eta valid.  The slack curve is simple: below a threshold eta_0 the
system is infeasible (slack +inf), and above it the slack falls linearly or
piecewise linearly to zero.  ``estimate`` therefore searches with a
safeguarded secant on the part where the slack is finite and positive.  The
jump at eta_0 has no slope to follow, so eta_0 is found on a second curve:
the signed target slack t(eta), the least uniform relaxation of the target
rows with the shape rows hard and no ambiguity rows.  t is positive exactly
where the system is infeasible, and it falls with slope at most -1, as the
violation of the distance search does (``metrics.slope_bounded_search``
serves both).  The slack is also nondecreasing in shrinking delta, so the
returned eta responds monotonically to the ambiguity radius.
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
        for name, f in (("F0", F0), ("G0", G0)):
            vmin, vmax = float(np.min(f.values)), float(np.max(f.values))
            if vmin < -1e-9 or vmax > 1.0 + 1e-9:
                raise ValueError(f"{name} must take values in [0, 1], got "
                                 f"[{vmin:.3g}, {vmax:.3g}]")
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
    history: list  # (eta, slack, lp_iterations) per solve, in order
    eta0_probes: list  # (eta, t, lp_iterations) per target LP, in order
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
    return _assemble(problem, eta)


def _assemble(
    problem: EstimationProblem, eta: float, t_lower: float | None = None
) -> tuple[lp.LPModel, dict]:
    """``assemble_lp``'s LP, or, given ``t_lower``, the target LP of
    ``_target_slack``: the shape rows and the target rows, each target row
    relaxed by one variable t >= t_lower, objective = t, and no ambiguity
    rows.  The counts' "slack_index" is then t's index."""
    target_slack = t_lower is not None
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    grid = problem.grid
    shape = problem.shape
    rho = problem.rho
    m = grid.dim
    dims = grid.shape
    n_nodes = grid.n_nodes
    dom = grid.domain

    kind = "target-slack" if target_slack else "min-slack"
    model = lp.LPModel(name=f"{kind}(eta={eta:.6g})")

    # vertex variables; boundary flags become fixed bounds
    upper = np.ones(n_nodes)
    if shape.boundary_zero:
        upper[grid.lower_face_mask()] = 0.0
    lower = np.zeros(n_nodes)
    if shape.boundary_one:
        lower[-1] = upper[-1] = 1.0
    model.add_variables(lower, upper)
    s_idx = model.add_variable(lower=t_lower if target_slack else 0.0,
                               upper=math.inf, objective=1.0)

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
        anchor_at_probe = anchor.interpolate(w_nodes, w_vals)
        lower_rhs = np.minimum(anchor_at_u, rho) - radius
        upper_rhs = anchor_at_probe + radius
        keep = upper_rhs < rho
        s_col = np.full((n_cells, int(slack)), s_idx)
        idx = np.hstack([w_nodes, s_col, u_flat[:, None], s_col])
        cf = np.hstack([w_vals, np.ones_like(s_col), np.ones((n_cells, 1)),
                        -np.ones_like(s_col)])
        w_lower = w_nodes.shape[1] + int(slack)
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

    add_shift_rows(problem.F0, eta, slack=target_slack, tag="target")
    if not target_slack:
        add_shift_rows(problem.G0, problem.delta, slack=True, tag="ambiguity")

    return model, counts


# interpolation weights at or below this magnitude are left out of the rows
_SMALL_WEIGHT = 1e-9


# simplex iteration budget of every LP solve
_MAX_ITERATIONS = 200_000


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
    s, F, _, _ = _solve_at(problem, eta, method=method)
    return s, F


def _solve_lp(model: lp.LPModel, eta: float, method: str, basis) -> lp.LPSolution:
    """Solve an LP of the search at shift eta, from ``basis`` when it fits;
    raise unless HiGHS (or the simplex) reports an optimum."""
    sol = lp.solve(model, method=method, max_iterations=_MAX_ITERATIONS, basis=basis)
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
        raise lp.SolverError(
            f"unexpected LP status {sol.status!r} at shift eta={eta:.6g}"
        )
    return sol


def _solve_at(
    problem: EstimationProblem,
    eta: float,
    *,
    method: str,
    basis=None,
) -> tuple[float, GridFunction, int, object | None]:
    """Least slack at shift eta, its witness, the LP iterations and the
    optimal basis (``lp.solve`` starts from ``basis`` when it fits)."""
    model, counts = assemble_lp(problem, eta)
    sol = _solve_lp(model, eta, method, basis)
    x = sol.x
    s = max(float(x[counts["slack_index"]]), 0.0)
    values = np.clip(x[: problem.grid.n_nodes], 0.0, 1.0).reshape(problem.grid.shape)
    try:
        F = GridFunction(problem.grid, 1, values, monotone=True)
    except ValueError as e:
        raise lp.SolverError(f"LP solution at shift eta={eta:.6g}: {e}") from e
    return s, F, sol.iterations, sol.basis


def _target_slack(
    problem: EstimationProblem,
    eta: float,
    *,
    method: str,
    basis=None,
    t_lower: float = -math.inf,
) -> tuple[float, int, object | None]:
    """Signed target slack t(eta), the LP iterations and the optimal basis.

    t(eta) is the least uniform relaxation of the target rows at shift eta
    with the shape rows hard (the target LP of ``_assemble``).  It is
    positive exactly where the shape and target rows are infeasible, so its
    root is eta_0.  Kuhn interpolation of a monotone F and F0 is monotone,
    so a witness at eta satisfies the rows at eta + d with t - d:
    t(eta + d) <= t(eta) - d.  With ``t_lower`` = 0 the LP returns
    max(t(eta), 0)."""
    model, counts = _assemble(problem, eta, t_lower)
    sol = _solve_lp(model, eta, method, basis)
    return float(sol.x[counts["slack_index"]]), sol.iterations, sol.basis


def _eta0_bracket(
    problem: EstimationProblem, lo: float, hi: float, method: str, record: list
) -> tuple[float, float] | None:
    """Bracket eta_0 in (lo, hi] to within tol by ``slope_bounded_search``
    on t(eta), appending (eta, t, lp_iterations) per target LP to ``record``.

    The slack LP is infeasible at lo and feasible at hi.  The first target
    LP, at lo, starts cold and bounds t below by 0: t(lo) > 0 is expected
    there, so the bound leaves it unchanged, and it makes the cold solve
    faster.  Each later target LP leaves t free and starts from the basis
    of the one before.  Returns None when the target LP disagrees with the
    slack LP at either end (t <= 0 at lo, or t > 0 at hi), which can happen
    only within the solver tolerances."""
    t_lo, it, basis = _target_slack(problem, lo, method=method, t_lower=0.0)
    record.append((lo, t_lo, it))
    if not t_lo > 0.0:
        return None

    def t_at(eta: float) -> float:
        nonlocal basis
        t, it, basis = _target_slack(problem, eta, method=method, basis=basis)
        record.append((eta, t, it))
        return t

    return slope_bounded_search(t_at, lo, t_lo, hi, problem.tol, 0.0)


def estimate(
    problem: EstimationProblem,
    *,
    method: str = "auto",
) -> EstimateResult:
    """Smallest shift eta whose minimal ambiguity slack vanishes (within the
    problem tolerance), or eta = 1 with the positive residual slack when the
    ambiguity ball is too tight for the shape constraints.

    The first probe is eta = 1; when its slack exceeds tol, that is the
    answer.  Otherwise the search keeps a bracket (lo, hi] with slack above
    tol (or an infeasible system) at lo and slack at most tol at hi, and
    stops once hi - lo <= tol, so the returned eta is hi and lies within
    tol of the true threshold, as with plain bisection.  Each probe is
    chosen (Brent 1973, *Algorithms for Minimization without Derivatives*)
    from the probes whose slack is finite and above tol:

    - none: bisect, until a probe is infeasible.  Then the bracket holds the
      threshold eta_0 of the shape and target rows, and ``_eta0_bracket``
      narrows it to within tol on the target slack t(eta) (module
      docstring), a search done at most once per estimate.  The slack LP
      at its upper end, solved cold, certifies the end: slack at most tol
      is the answer; finite slack above tol makes that end the first point
      of the secant below; an infeasible LP (the two LPs disagree within
      the solver tolerances) leaves the search to bisection, as does t <= 0
      at the infeasible lower end.  The target LPs are recorded in
      ``eta0_probes`` as (eta, t, lp_iterations);
    - one: step 1/16 of the bracket up from lo, which either gives the
      second point or shrinks the bracket sixteenfold;
    - two or more: follow the secant through the last two to slack = tol,
      kept at least tol/2 inside the bracket, so that an accurate estimate
      is confirmed by one short step.  When the secant puts the root at or
      past hi, step tol/2 below hi if hi's slack is above tol/2 (hi is on
      the slope just past the root), and bisect if it is not (the secant
      overshot into the zero-slack part, as it does where the curve
      steepens).

    It also bisects whenever the last two probes together neither halved
    the bracket nor halved lo's slack in excess of tol.

    Each slack probe after the first starts HiGHS from the optimal basis
    of the last optimal slack probe.  Consecutive probes differ only in the
    target rows, so a few pivots repair that basis.  It is used only when
    the row count matches, which holds whenever rho > 2: no upper target
    row is dropped then.  Besides the first probe, two solves start cold:
    the first target LP, and the slack LP that certifies the end of the
    search on t, which is far from the last slack basis.  Each later target
    LP starts from the one before.  The warm start covers one estimate
    only.  The next delta of a ladder starts at eta = 1, far from
    where the last search ended, and a basis carried there needed more
    pivots than a cold solve with presolve.
    """
    t0 = time.perf_counter()
    eps = problem.tol
    history: list[tuple[float, float, int]] = []

    s1, F1, it1, basis = _solve_at(problem, 1.0, method=method)
    history.append((1.0, s1, it1))
    if s1 > eps:
        logger.info(
            "estimate: slack %.3g persists at eta=1; ambiguity radius too tight",
            s1,
        )
        _warn_if_shape_violated(problem, F1)
        return EstimateResult(F1, 1.0, s1, history, [], time.perf_counter() - t0)

    lo, hi = 0.0, 1.0
    best = (1.0, s1, F1)
    s_lo = math.inf  # slack at lo: inf while lo is 0 or infeasible
    points: list[tuple[float, float]] = []  # probes with tol < slack < inf
    trail = [(hi - lo, s_lo)]  # bracket width and slack at lo per probe
    eta0_probes: list[tuple[float, float, int]] = []  # target LPs, once

    def probe(eta: float) -> None:
        nonlocal lo, hi, best, s_lo, basis
        try:
            s, F, it, basis = _solve_at(problem, eta, method=method, basis=basis)
        except ShapeInfeasibleError:
            s, F, it = math.inf, None, 0
        history.append((eta, s, it))
        if s <= eps:
            hi, best = eta, (eta, s, F)
        else:
            lo, s_lo = eta, s
            if s < math.inf:
                points.append((eta, s))
        trail.append((hi - lo, s_lo))

    while hi - lo > eps:
        if s_lo == math.inf and lo > 0.0 and not points and not eta0_probes:
            bracket = _eta0_bracket(problem, lo, hi, method, eta0_probes)
            if bracket is not None:
                lo, eta = bracket
                if eta < hi:
                    basis = None  # the last slack basis is far from eta_0
                    probe(eta)
                continue
        probe(_next_shift(lo, hi, best[1], points, trail, eps))
    eta_star, s_star, F_star = best
    _warn_if_shape_violated(problem, F_star)
    logger.info(
        "estimate: eta=%.8f slack=%.3g after %d LP solves (%d on the target slack)",
        eta_star,
        s_star,
        len(history) + len(eta0_probes),
        len(eta0_probes),
    )
    return EstimateResult(F_star, eta_star, s_star, history, eta0_probes,
                          time.perf_counter() - t0)


# with one point, the next probe goes this share of the bracket up from lo:
# it either yields the second point a secant needs or shrinks the bracket
# sixteenfold, where a bisection halves it
_FIRST_STEP = 1.0 / 16.0


def _next_shift(
    lo: float, hi: float, s_hi: float, points: list, trail: list, eps: float
) -> float:
    """Next probe of ``estimate``'s search in the bracket (lo, hi]."""
    mid = 0.5 * (lo + hi)
    if len(trail) >= 3:
        (w_old, s_old), (w_new, s_new) = trail[-3], trail[-1]
        if w_new > 0.5 * w_old and not (
            s_new < math.inf and s_new - eps <= 0.5 * (s_old - eps)
        ):
            return mid  # neither the bracket nor lo's excess slack halved
    if not points:
        return mid
    if len(points) == 1:
        return lo + _FIRST_STEP * (hi - lo)
    (x0, s0), (x1, s1) = points[-2:]
    slope = (s1 - s0) / (x1 - x0)
    if not slope < 0.0:
        return mid
    x = x1 + (eps - s1) / slope
    if x < hi:
        return min(max(x, lo + 0.5 * eps), hi - 0.5 * eps)
    # the secant puts the root at or past hi: with slack near tol there, hi
    # sits on the slope just past the root and a short step confirms it;
    # with slack near zero the secant overshot into the flat part
    return hi - 0.5 * eps if s_hi > 0.5 * eps else mid


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
