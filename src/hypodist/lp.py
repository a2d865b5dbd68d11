"""Linear programming: a small model container, HiGHS and a reference simplex.

Problems are stated as

    minimize    c . x
    subject to  a_i . x  {<=, >=, ==}  b_i      for every row i,
                l <= x <= u                     componentwise,

with infinite bounds allowed.  ``LPModel`` stores rows in blocks of flat
arrays (the entries of each row, in row order, with a length, sense and
right-hand side per row): ``add_constraints`` appends K rows at once, either
as (K, w) index and coefficient arrays or as flat arrays split by row
pointers, and ``add_constraint`` is its one-row form; ``add_rows_from``
appends another model's rows, sharing their arrays.  Duplicate indices
within a row are summed wherever the matrix is read.  The model, its dense
view and ``constraint_residuals`` need numpy only.

``solve`` runs HiGHS through SciPy (sparse and fast; every estimation LP
goes there) or, on request, the bundled bounded-variable two-phase primal
simplex (dense, numpy-only, a reference implementation for small problems
that the tests cross-check HiGHS against).  Both report one of the statuses
"optimal", "infeasible", "unbounded" or "iteration_limit".

HiGHS is called directly through SciPy's private bindings
(``scipy.optimize._highspy._core``), with the model's rows as they are
(``_highs_lp``), so HiGHS row i is model row i, in the basis too.  The
optimal basis comes back in ``LPSolution.basis``; passed to the next
``solve`` of a model with the same row and column counts, it starts HiGHS
there, and a warm run that HiGHS rejects, that needs more pivots than the
model has rows and columns, or that ends outside the four statuses is
solved again cold.  A model that HiGHS rejects raises ``SolverError``, and
so does a HiGHS solve without the bindings, which ship with SciPy 1.15 and
later.  Each HiGHS run uses one thread and releases the GIL, so solves on
separate threads run in parallel.

Every HiGHS run, cold or warm, is a dual simplex with Devex pricing.
HiGHS's default, steepest edge, sets up exact edge weights for its start
basis, which is dear on a warm start from another LP's basis.  Devex may
take more pivots, but cheaper ones: on 120 seeded uuv estimates it took
11% more, while HiGHS's time fell 15% and rejected warm starts fell from
89 to 45; the 100-cell two-uniforms estimate at delta 1 fell from 20 s to
7 s.  Every eta stayed within 6e-15 of steepest edge's (``BENCH_24.json``).
Devex on warm runs only was slower than on every run.

The simplex keeps nonbasic variables at finite bounds, prices with Dantzig's
rule and falls back to Bland's rule after a run of degenerate pivots, so it
terminates deterministically.  Basic solutions are recomputed from a fresh
factorization of the basis every iteration; with the problem sizes this
module is meant for, robustness is worth far more than speed.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "LPModel",
    "LPSolution",
    "SolverError",
    "solve",
    "constraint_residuals",
    "brute_force_minimum",
]

SENSES = ("<=", ">=", "==")

# HiGHS's primal feasibility tolerance: a row or bound violated by at most
# this much holds
_FEAS_TOL = 1e-9
_COST_TOL = 1e-9
_PIVOT_TOL = 1e-11

_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3


@dataclass
class _Constraint:
    indices: np.ndarray
    coeffs: np.ndarray
    sense: str
    rhs: float


def _sense_codes(sense, k: int) -> np.ndarray:
    """Positions in SENSES of one sense for all k rows, or of one per row."""
    hit = np.asarray(sense)[..., None] == np.asarray(SENSES)
    if not np.all(np.any(hit, axis=-1)):
        raise ValueError(f"sense must be one of {SENSES}, got {sense!r}")
    if hit.ndim != 1 and hit.shape[0] != k:
        raise ValueError(f"expected {k} senses, got {hit.shape[0]}")
    return np.broadcast_to(np.argmax(hit, axis=-1).astype(np.int8), (k,))


class LPModel:
    """Container for variables, bounds, objective and rows."""

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._objective: list[float] = []
        # row blocks (lengths, indices, coeffs, sense codes, rhs)
        self._blocks = [(np.zeros(0, np.int64), np.zeros(0, np.int64),
                         np.zeros(0), np.zeros(0, np.int8), np.zeros(0))]
        self._n_rows = 0

    # -- construction -----------------------------------------------------

    def add_variable(
        self,
        *,
        lower: float = 0.0,
        upper: float = math.inf,
        objective: float = 0.0,
    ) -> int:
        return self.add_variables([lower], [upper], objective)[0]

    def add_variables(self, lower, upper, objective=0.0) -> range:
        """Append one variable per entry of ``lower``/``upper`` (objective
        broadcasts); returns the new indices."""
        lo = np.asarray(lower, dtype=float).reshape(-1)
        hi = np.asarray(upper, dtype=float).reshape(-1)
        cost = np.broadcast_to(np.asarray(objective, dtype=float), lo.shape)
        if hi.shape != lo.shape:
            raise ValueError("lower and upper bounds must have equal length")
        bad = np.isnan(lo) | np.isnan(hi) | (lo > hi)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ValueError(f"bad variable bounds [{lo[k]}, {hi[k]}]")
        if not np.all(np.isfinite(cost)):
            raise ValueError("objective coefficients must be finite")
        first = self.n_variables
        self._lower.extend(lo.tolist())
        self._upper.extend(hi.tolist())
        self._objective.extend(cost.tolist())
        return range(first, first + lo.size)

    def add_constraint(
        self, indices: np.ndarray, coeffs: np.ndarray, sense: str, rhs: float
    ) -> int:
        """Append one row; duplicate indices are summed."""
        row = (np.reshape(indices, (1, -1)), np.reshape(coeffs, (1, -1)))
        return self.add_constraints(*row, sense, rhs)[0]

    def add_constraints(self, indices, coeffs, sense, rhs, *, row_ptr=None) -> range:
        """Append K rows at once; returns the new row indices.

        ``indices``/``coeffs`` are (K, w) arrays, one row each, or flat
        arrays split into rows by ``row_ptr`` (length K + 1, starting at 0).
        ``sense`` is one of SENSES or one per row; ``rhs`` is a scalar or
        one per row.
        """
        idx = np.asarray(indices, dtype=np.int64)
        cf = np.asarray(coeffs, dtype=float)
        if idx.shape != cf.shape:
            raise ValueError("indices and coefficients must have equal shapes")
        if row_ptr is None:
            if idx.ndim != 2:
                raise ValueError("indices must be (K, w) without row_ptr")
            lengths = np.full(idx.shape[0], idx.shape[1], dtype=np.int64)
        else:
            ptr = np.asarray(row_ptr, dtype=np.int64)
            lengths = np.diff(ptr)
            if idx.ndim != 1 or ptr.ndim != 1 or ptr.size == 0 or ptr[0] != 0 \
                    or ptr[-1] != idx.size or np.any(lengths < 0):
                raise ValueError("row_ptr must run from 0 to the number of entries")
        k = lengths.size
        idx, cf = idx.reshape(-1), cf.reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_variables):
            raise ValueError("constraint references an unknown variable")
        codes = _sense_codes(sense, k)
        b = np.asarray(rhs, dtype=float)
        if b.ndim != 0 and b.shape != (k,):
            raise ValueError(f"expected {k} right-hand sides, got shape {b.shape}")
        b = np.broadcast_to(b, (k,)).copy()
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand sides must be finite")
        if not np.all(np.isfinite(cf)):
            raise ValueError("constraint coefficients must be finite")
        self._blocks.append((lengths, idx, cf, codes, b))
        first = self._n_rows
        self._n_rows += k
        return range(first, self._n_rows)

    def add_rows_from(self, other: LPModel) -> range:
        """Append every row of ``other``, whose variables are this model's
        first ``other.n_variables``; returns the new row indices.  The row
        arrays are shared, not copied: no model changes them in place."""
        if other.n_variables > self.n_variables:
            raise ValueError("rows reference variables this model does not have")
        self._blocks.extend(other._blocks)
        first = self._n_rows
        self._n_rows += other._n_rows
        return range(first, self._n_rows)

    # -- views -------------------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self._lower)

    @property
    def n_constraints(self) -> int:
        return self._n_rows

    @property
    def objective(self) -> np.ndarray:
        return np.array(self._objective)

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self._lower), np.array(self._upper)

    def row_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All rows as (row_ptr, indices, coeffs, sense codes, rhs); sense
        code c means SENSES[c]."""
        if len(self._blocks) > 1:
            self._blocks = [tuple(map(np.concatenate, zip(*self._blocks)))]
        lengths, idx, cf, codes, b = self._blocks[0]
        row_ptr = np.concatenate([[0], np.cumsum(lengths)])
        return row_ptr, idx, cf, codes, b

    def rows(self) -> list[_Constraint]:
        row_ptr, idx, cf, codes, b = self.row_arrays()
        ptr = row_ptr.tolist()
        return [
            _Constraint(idx[i:j], cf[i:j], SENSES[c], r)
            for i, j, c, r in zip(ptr, ptr[1:], codes.tolist(), b.tolist())
        ]

    def _entry_rows(self) -> np.ndarray:
        row_ptr = self.row_arrays()[0]
        return np.repeat(np.arange(self._n_rows), np.diff(row_ptr))

    def dense_matrix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, b, senses) with one dense row per constraint."""
        _, idx, cf, codes, b = self.row_arrays()
        A = np.zeros((self.n_constraints, self.n_variables))
        np.add.at(A, (self._entry_rows(), idx), cf)
        return A, b.copy(), np.asarray(SENSES)[codes]


@dataclass(frozen=True)
class LPSolution:
    status: str
    x: np.ndarray | None
    objective: float
    iterations: int
    duals: np.ndarray | None = None
    # HiGHS's optimal basis and the (rows, columns) it fits, for a warm start
    basis: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def constraint_residuals(model: LPModel, x: np.ndarray) -> np.ndarray:
    """Amount by which each row is violated at x (0 means satisfied)."""
    x = np.asarray(x, dtype=float)
    _, idx, cf, codes, b = model.row_arrays()
    lhs = np.bincount(model._entry_rows(), weights=cf * x[idx],
                      minlength=model.n_constraints)
    gap = lhs - b
    # violations for "<=", ">=" and "==" rows, in SENSES order
    return np.choose(codes, [np.maximum(gap, 0.0), np.maximum(-gap, 0.0), np.abs(gap)])


# -- native simplex ---------------------------------------------------------------


def _initial_value(lo: float, hi: float) -> tuple[float, int]:
    if math.isfinite(lo):
        return lo, _AT_LOWER
    if math.isfinite(hi):
        return hi, _AT_UPPER
    return 0.0, _FREE


def _solve_simplex(model: LPModel, max_iterations: int) -> LPSolution:
    n = model.n_variables
    m = model.n_constraints
    A_rows, b, senses = model.dense_matrix()
    lo, hi = model.bounds
    c_real = model.objective

    has_slack = senses != "=="
    n_slack = int(np.count_nonzero(has_slack))
    N = n + n_slack + m  # structural + slack/surplus + artificial

    A = np.zeros((m, N))
    A[:, :n] = A_rows
    lo_full = np.concatenate([lo, np.zeros(n_slack + m)])
    hi_full = np.concatenate([hi, np.full(n_slack + m, math.inf)])

    # one slack (<=) or surplus (>=) column per inequality row, in row order
    slack_col = np.where(has_slack, n + np.cumsum(has_slack) - 1, -1)
    A[has_slack, slack_col[has_slack]] = np.where(senses[has_slack] == "<=", 1.0, -1.0)

    status = np.empty(N, dtype=np.int64)
    x = np.zeros(N)
    for j in range(n + n_slack):
        x[j], status[j] = _initial_value(lo_full[j], hi_full[j])

    # start from slack/surplus basics wherever the sign works out; rows that
    # cannot host their own slack get an artificial instead
    r = b - A[:, : n + n_slack] @ x[: n + n_slack]
    art = n + n_slack
    basis = []
    for i in range(m):
        sc = slack_col[i]
        if sc >= 0 and (
            (senses[i] == "<=" and r[i] >= 0.0)
            or (senses[i] == ">=" and r[i] <= 0.0)
        ):
            x[sc] = abs(r[i])
            status[sc] = _BASIC
            basis.append(int(sc))
            # this row's artificial is never needed: freeze it out
            x[art + i] = 0.0
            status[art + i] = _AT_LOWER
            hi_full[art + i] = 0.0
        else:
            A[i, art + i] = 1.0 if r[i] >= 0 else -1.0
            x[art + i] = abs(r[i])
            status[art + i] = _BASIC
            basis.append(art + i)

    c_phase1 = np.zeros(N)
    c_phase1[art:] = 1.0
    c_phase2 = np.zeros(N)
    c_phase2[:n] = c_real

    iterations = 0
    bland_after = 5 * N

    def run_phase(c: np.ndarray, iter_budget: int) -> tuple[str, int]:
        nonlocal iterations
        degenerate_run = 0
        while True:
            if iterations >= iter_budget:
                return "iteration_limit", iterations
            iterations += 1
            B = A[:, basis]
            nonbasic = [j for j in range(N) if status[j] != _BASIC]
            x_n_contrib = A[:, nonbasic] @ x[nonbasic] if nonbasic else 0.0
            try:
                xb = np.linalg.solve(B, b - x_n_contrib)
            except np.linalg.LinAlgError:
                return "numerical", iterations
            for pos, j in enumerate(basis):
                x[j] = xb[pos]
            y = np.linalg.solve(B.T, c[basis])
            d = c[nonbasic] - y @ A[:, nonbasic]

            use_bland = degenerate_run > bland_after
            entering = -1
            sigma = 1.0
            best = _COST_TOL
            for pos, j in enumerate(nonbasic):
                if hi_full[j] - lo_full[j] <= _PIVOT_TOL:
                    continue  # fixed column: can never move
                st = status[j]
                if st == _AT_LOWER or st == _FREE:
                    viol = -d[pos]
                    sgn = 1.0
                    if st == _FREE and d[pos] > _COST_TOL:
                        viol = d[pos]
                        sgn = -1.0
                else:  # at upper
                    viol = d[pos]
                    sgn = -1.0
                if viol > best:
                    entering, sigma = j, sgn
                    if use_bland:
                        break
                    best = viol
            if entering < 0:
                return "optimal", iterations

            w = np.linalg.solve(B, A[:, entering])
            # ratio test: how far can the entering variable move?
            t_max = hi_full[entering] - lo_full[entering]  # bound flip distance
            leave_pos = -1
            for pos in range(m):
                delta = -sigma * w[pos]
                if abs(delta) <= _PIVOT_TOL:
                    continue
                j = basis[pos]
                if delta < 0:
                    slack_room = x[j] - lo_full[j]
                    if not math.isfinite(slack_room):
                        continue
                    ratio = slack_room / -delta
                else:
                    room = hi_full[j] - x[j]
                    if not math.isfinite(room):
                        continue
                    ratio = room / delta
                ratio = max(ratio, 0.0)
                if ratio < t_max - _PIVOT_TOL or (
                    ratio < t_max + _PIVOT_TOL
                    and leave_pos >= 0
                    and basis[pos] < basis[leave_pos]
                ):
                    t_max = ratio
                    leave_pos = pos

            if not math.isfinite(t_max):
                return "unbounded", iterations
            if t_max <= _PIVOT_TOL:
                degenerate_run += 1
            else:
                degenerate_run = 0

            # apply the step
            x[entering] = x[entering] + sigma * t_max
            for pos in range(m):
                x[basis[pos]] -= sigma * t_max * w[pos]
            if leave_pos < 0:
                # bound flip: entering stays nonbasic at its other bound
                status[entering] = _AT_UPPER if sigma > 0 else _AT_LOWER
            else:
                out_var = basis[leave_pos]
                # leaving variable lands on the bound it ran into
                delta = -sigma * w[leave_pos]
                if delta < 0:
                    x[out_var] = lo_full[out_var]
                    status[out_var] = _AT_LOWER
                else:
                    x[out_var] = hi_full[out_var]
                    status[out_var] = _AT_UPPER
                basis[leave_pos] = entering
                status[entering] = _BASIC

    st, _ = run_phase(c_phase1, max_iterations)
    if st == "numerical":
        return LPSolution("infeasible", None, math.nan, iterations)
    if st == "iteration_limit":
        return LPSolution("iteration_limit", None, math.nan, iterations)
    if st == "unbounded":  # cannot happen with artificials bounded below
        return LPSolution("infeasible", None, math.nan, iterations)
    phase1_obj = float(np.sum(x[art:]))
    scale = 1.0 + float(np.max(np.abs(b))) if m else 1.0
    if phase1_obj > 1e-8 * scale:
        return LPSolution("infeasible", None, math.nan, iterations)

    # freeze artificials at zero for phase 2
    lo_full[art:] = 0.0
    hi_full[art:] = 0.0
    x[art:] = np.clip(x[art:], 0.0, 0.0)

    st, _ = run_phase(c_phase2, max_iterations)
    if st == "numerical":
        return LPSolution("iteration_limit", None, math.nan, iterations)
    if st in ("iteration_limit", "unbounded"):
        return LPSolution(st, None, math.nan, iterations)

    xs = x[:n].copy()
    # final duals from the optimal basis
    B = A[:, basis]
    y = np.linalg.solve(B.T, c_phase2[basis])
    obj = float(np.dot(c_real, xs))
    return LPSolution("optimal", xs, obj, iterations, duals=y)


class SolverError(RuntimeError):
    """The LP backend failed, or its output cannot be used."""


# -- HiGHS adapter ----------------------------------------------------------------

# HiGHS model statuses that end a run; any other status, a model error
# included, is unknown and sends the solve to a retry
_HIGHS_STATUS = {
    "kOptimal": "optimal",
    "kIterationLimit": "iteration_limit",
    "kTimeLimit": "iteration_limit",
    "kInfeasible": "infeasible",
    "kUnbounded": "unbounded",
}


def _highs_lp(core, model: LPModel) -> tuple:
    """The arguments of HiGHS's ``passModel`` for the model: its rows in
    model order, row-wise, with each sense as row bounds ("<=" gives
    (-inf, b], ">=" gives [b, inf), "==" gives [b, b]), and duplicate
    entries within a row summed on a copy, since HiGHS rejects them."""
    import scipy.sparse as sp

    row_ptr, idx, cf, codes, b = model.row_arrays()
    m, n = model.n_constraints, model.n_variables
    a = sp.csr_array((cf, idx, row_ptr), shape=(m, n), copy=True)
    a.sum_duplicates()
    lower, upper = model.bounds
    return (n, m, a.nnz, int(core.MatrixFormat.kRowwise), int(core.ObjSense.kMinimize),
            0.0, model.objective, lower, upper,
            np.where(codes == SENSES.index("<="), -math.inf, b),
            np.where(codes == SENSES.index(">="), math.inf, b),
            a.indptr, a.indices, a.data, np.zeros(n, np.int32))


def _run_highs(core, lp, max_iterations: int, presolve: bool, basis=None):
    """One HiGHS run of ``lp`` (``_highs_lp``'s arguments), from ``basis``
    when one is given.  Returns (status, solver, iterations, message); the
    status is None when HiGHS rejects the basis or ends outside the known
    ones.  A model that HiGHS rejects raises ``SolverError``."""
    options = core.HighsOptions()
    options.presolve = "on" if presolve else "off"
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = options.output_flag = False
    options.primal_feasibility_tolerance = _FEAS_TOL
    options.dual_feasibility_tolerance = 1e-9
    simplex = core.simplex_constants
    options.simplex_strategy = simplex.SimplexStrategy.kSimplexStrategyDual
    # Devex pricing, cold and warm: steepest edge's exact weights are dear
    # to set up from a foreign basis, and cost more than the extra pivots
    options.simplex_dual_edge_weight_strategy = (
        simplex.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex)
    options.simplex_iteration_limit = options.ipm_iteration_limit = max_iterations
    # the dual simplex is serial; one thread keeps concurrent runs from
    # sizing HiGHS's task scheduler by the host's core count
    options.threads = 1
    highs = core._Highs()
    error = core.HighsStatus.kError
    highs.passOptions(options)
    if highs.passModel(*lp) == error:
        raise SolverError("LP backend failed: HiGHS rejected the model")
    if basis is not None and highs.setBasis(basis) == error:
        return None, highs, 0, "basis rejected"
    ran = highs.run() != error
    model_status = highs.getModelStatus()
    nit = highs.getInfo().simplex_iteration_count if ran else 0
    return (_HIGHS_STATUS.get(model_status.name), highs, nit,
            highs.modelStatusToString(model_status))


def _solve_highs(model: LPModel, max_iterations: int, basis=None) -> tuple[LPSolution, str]:
    """Solve through HiGHS; returns the solution and how the solve started.

    A ``basis`` whose row and column counts match the model starts a run
    without presolve, limited to rows + columns iterations: a warm run that
    needs more has lost its way, and a cold run is faster then.  When HiGHS
    rejects the basis, stops at that limit or ends outside the known
    statuses, the model is solved cold, as without a basis: with presolve,
    then without it if presolve ends outside the known statuses.  The
    solution's iteration count then includes the failed warm run's."""
    try:
        import scipy.optimize._highspy._core as core
    except ImportError as exc:
        raise SolverError(f"{exc}: the HiGHS solver needs SciPy >= 1.15") from exc
    lp = _highs_lp(core, model)
    shape = (model.n_constraints, model.n_variables)
    status, start, wasted = None, "cold", 0
    if basis is not None and basis[0] == shape:
        status, highs, nit, message = _run_highs(
            core, lp, min(max_iterations, sum(shape)), presolve=False, basis=basis[1]
        )
        start = "warm"
        if status in (None, "iteration_limit"):
            # free the failed run's HiGHS instance before the cold one is built
            status, start, highs, wasted = None, "warm, cold retry", None, nit
            logger.debug("re-solving LP cold: %s", message)
    if status is None:
        status, highs, nit, message = _run_highs(core, lp, max_iterations, True)
    if status is None:
        # presolve occasionally reports near-degenerate instances as
        # "unknown"; a clean phase-1 run settles the question
        logger.debug("retrying LP without presolve: %s", message)
        highs = None
        status, highs, nit, message = _run_highs(core, lp, max_iterations, False)
    nit += wasted
    if status is None:
        raise SolverError(f"LP backend failed: {message}")
    if status != "optimal":
        return LPSolution(status, None, math.nan, nit), start
    x = np.array(highs.getSolution().col_value)
    obj = float(highs.getInfo().objective_function_value)
    return LPSolution(status, x, obj, nit, basis=(shape, highs.getBasis())), start


def solve(
    model: LPModel,
    *,
    max_iterations: int = 200_000,
    method: str = "highs",
    basis=None,
) -> LPSolution:
    """Minimize the model.  ``method``: "highs" (HiGHS, through SciPy) or
    "simplex" (the bundled reference).

    ``basis`` is an optimal basis that HiGHS returned for an earlier model
    (``LPSolution.basis``).  When its row and column counts match this
    model, HiGHS starts from it; the simplex ignores it."""
    if model.n_variables == 0:
        raise ValueError("model has no variables")
    if method == "highs":
        sol, start = _solve_highs(model, max_iterations, basis)
    elif method == "simplex":
        sol, start = _solve_simplex(model, max_iterations), "cold"
    else:
        raise ValueError(f"unknown method {method!r}")
    logger.debug(
        "LP %s: status=%s objective=%s iterations=%d start=%s",
        model.name,
        sol.status,
        sol.objective,
        sol.iterations,
        start,
    )
    return sol


# -- brute-force reference -----------------------------------------------------


def brute_force_minimum(model: LPModel, *, feas_tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Reference optimum by vertex enumeration, for small models only.

    Every vertex of the feasible polytope is the intersection of n active
    hyperplanes drawn from constraint boundaries and finite variable bounds.
    All n-subsets are solved in a batch and feasible solutions are scanned
    for the best objective.  Requires a bounded feasible region.
    """
    n = model.n_variables
    A, b, _ = model.dense_matrix()
    lo, hi = model.bounds

    planes = [(A[i], b[i]) for i in range(model.n_constraints)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if math.isfinite(lo[j]):
            planes.append((e.copy(), lo[j]))
        if math.isfinite(hi[j]):
            planes.append((e.copy(), hi[j]))
    if len(planes) < n:
        raise ValueError("too few hyperplanes; feasible set cannot be bounded")

    combos = list(itertools.combinations(range(len(planes)), n))
    M = np.stack([[planes[i][0] for i in combo] for combo in combos])
    r = np.array([[planes[i][1] for i in combo] for combo in combos])
    dets = np.abs(np.linalg.det(M))
    ok = dets > 1e-12
    pts = np.full((len(combos), n), np.nan)
    if np.any(ok):
        # batched solve wants the rhs as a stack of columns
        pts[ok] = np.linalg.solve(M[ok], r[ok][..., None])[..., 0]

    best_val = math.inf
    best_x: np.ndarray | None = None
    c = model.objective
    for p in pts:
        if np.any(np.isnan(p)):
            continue
        if np.any(p < lo - feas_tol) or np.any(p > hi + feas_tol):
            continue
        if np.max(constraint_residuals(model, p), initial=0.0) > feas_tol:
            continue
        val = float(np.dot(c, p))
        if val < best_val - 1e-15:
            best_val = val
            best_x = p
    if best_x is None:
        raise ValueError("no feasible vertex found; model may be infeasible")
    return best_val, best_x
