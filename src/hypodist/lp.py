"""Linear programming: a small model container and two interchangeable solvers.

Problems are stated as

    minimize    c . x
    subject to  a_i . x  {<=, >=, ==}  b_i      for every row i,
                l <= x <= u                     componentwise,

with infinite bounds allowed.  ``LPModel`` stores rows in blocks of flat
arrays (the entries of each row, in row order, with a length, sense and
right-hand side per row): ``add_constraints`` appends K rows at once, either
as (K, w) index and coefficient arrays or as flat arrays split by row
pointers, and ``add_constraint`` is its one-row form.  Duplicate indices within a row are
summed wherever the matrix is read.  The model, its dense view and
``constraint_residuals`` need numpy only.

``solve`` dispatches to either the bundled bounded-variable two-phase primal
simplex (dense, numpy-only, meant for small and medium problems and as a
reference implementation) or to HiGHS via scipy when available (sparse, fast,
used for the large estimation programs; the row blocks go to it as CSR
matrices without a per-row pass).  Both report one of the statuses
"optimal", "infeasible", "unbounded" or "iteration_limit".

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
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "LPModel",
    "LPSolution",
    "solve",
    "constraint_residuals",
    "brute_force_minimum",
]

SENSES = ("<=", ">=", "==")

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
        self._names: dict[int, str] = {}
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
        name: str = "",
    ) -> int:
        j = self.add_variables([lower], [upper], objective)[0]
        if name:
            self._names[j] = name
        return j

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

    def to_text(self) -> str:
        """Human-readable dump, mainly for debugging small models."""
        def var(j: int) -> str:
            return self._names.get(j, f"x{j}")

        lines = [f"minimize  ({self.name})"]
        terms = [
            f"{c:+g} {var(j)}"
            for j, c in enumerate(self._objective)
            if c != 0.0
        ]
        lines.append("  " + (" ".join(terms) if terms else "0"))
        lines.append("subject to")
        for i, row in enumerate(self.rows()):
            body = " ".join(
                f"{c:+g} {var(j)}" for j, c in zip(row.indices, row.coeffs)
            )
            lines.append(f"  r{i}: {body} {row.sense} {row.rhs:g}")
        lines.append("bounds")
        for j in range(self.n_variables):
            lines.append(
                f"  {self._lower[j]:g} <= {var(j)} <= {self._upper[j]:g}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class LPSolution:
    status: str
    x: np.ndarray | None
    objective: float
    iterations: int
    duals: np.ndarray | None = None

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


# -- HiGHS adapter ----------------------------------------------------------------


def _solve_highs(model: LPModel, max_iterations: int) -> LPSolution:
    import scipy.sparse as sp
    from scipy.optimize import linprog

    n = model.n_variables
    row_ptr, idx, cf, codes, b = model.row_arrays()
    lengths = np.diff(row_ptr)
    # ">=" rows enter HiGHS as "<=" rows with both sides negated
    sign = np.where(codes == SENSES.index(">="), -1.0, 1.0)
    signed = np.repeat(sign, lengths) * cf

    def _csr(keep: np.ndarray):
        if not keep.any():
            return None, None
        entries = np.repeat(keep, lengths)
        ptr = np.concatenate([[0], np.cumsum(lengths[keep])])
        A = sp.csr_matrix((signed[entries], idx[entries], ptr), shape=(ptr.size - 1, n))
        return A, sign[keep] * b[keep]

    is_eq = codes == SENSES.index("==")
    A_ub, b_ub = _csr(~is_eq)
    A_eq, b_eq = _csr(is_eq)

    def run(presolve: bool):
        return linprog(
            model.objective,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=np.column_stack(model.bounds),
            method="highs",
            options={
                "maxiter": max_iterations,
                "presolve": presolve,
                "primal_feasibility_tolerance": 1e-9,
                "dual_feasibility_tolerance": 1e-9,
            },
        )

    status_map = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}
    res = run(presolve=True)
    status = status_map.get(res.status)
    if status is None:
        # presolve occasionally reports near-degenerate instances as
        # "unknown"; a clean phase-1 run settles the question
        logger.debug("retrying LP without presolve: %s", res.message)
        res = run(presolve=False)
        status = status_map.get(res.status)
    if status is None:
        raise RuntimeError(f"LP backend failed: {res.message}")
    x = np.asarray(res.x, dtype=float) if status == "optimal" else None
    obj = float(res.fun) if status == "optimal" else math.nan
    nit = int(getattr(res, "nit", 0) or 0)
    return LPSolution(status, x, obj, nit)


def _highs_available() -> bool:
    try:
        import scipy.optimize  # noqa: F401
        import scipy.sparse  # noqa: F401
    except ImportError:
        return False
    return True


def solve(
    model: LPModel,
    *,
    max_iterations: int = 100_000,
    method: str = "auto",
    debug_dump: bool = False,
) -> LPSolution:
    """Minimize the model.  ``method``: "simplex" (bundled), "highs"
    (scipy-backed), or "auto" (highs when importable, else simplex)."""
    if model.n_variables == 0:
        raise ValueError("model has no variables")
    if debug_dump:
        logger.debug("LP model dump:\n%s", model.to_text())
    if method == "auto":
        method = "highs" if _highs_available() else "simplex"
    if method == "highs":
        sol = _solve_highs(model, max_iterations)
    elif method == "simplex":
        sol = _solve_simplex(model, max_iterations)
    else:
        raise ValueError(f"unknown method {method!r}")
    logger.debug(
        "LP %s: status=%s objective=%s iterations=%d",
        model.name,
        sol.status,
        sol.objective,
        sol.iterations,
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
