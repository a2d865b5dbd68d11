"""Hypograph distances between monotone [0, 1]-valued grid functions.

All computations work with the product max-norm on graph space: a test point
pairs a domain point x with a level x0, and its norm is
max(||x||_inf, |x0|).  Three layers are provided, from slow-and-independent
to fast-and-certified:

* ``point_hypo_dist`` - distance from one test point (x, x0) to the hypograph
  {(y, y0) : y in S, y0 <= f(y)}.  Two routes: a geometric per-piece
  minimization that enumerates candidate minimizers on every linear piece of
  the graph (one per Kuhn simplex, in any dimension), and a root-scan that
  exploits monotonicity,

      dist((x, x0), hypo f) = inf{t >= 0 : f(min(x + t, b)) + t >= x0},

  the left side being piecewise linear and strictly increasing in t.

* ``dl_rho_oracle`` - brute-force truncated distance: the max over a sample
  lattice of test points with ||(x, x0)|| <= rho of the difference of the two
  point-to-hypograph distances.  Used as an independent reference.

* ``hat_dl_rho`` / ``eta_plus`` / ``eta_minus`` - the certified shift
  distance.  For monotone f, g the capped one-sided condition

      g(min(x + eta, b)) + eta >= min(f(x), rho)   for all x in S, ||x|| <= rho

  and its mirror image define a feasibility region in eta whose infimum is
  the shift distance.  Feasibility is decided *exactly* (up to floating
  point) by maximizing the violation over the region, in 1-d, 2-d and 3-d
  alike, with one of two maximizers chosen by the functions' orders.  For
  two continuous (order-1) functions the violation is piecewise linear, so
  its maximum sits where m hyperplanes of the kink arrangement meet, and
  all such vertices are enumerated.  When a step (order-0) function is
  involved, the candidate planes cut the region into boxes on which every
  step factor is constant, and monotonicity puts the continuous factor's
  extreme at a box corner.  Write V(eta) for the larger of the two
  directions' violation sups.  The two functions share a grid, so both
  directions are maximized over one point set per shift, which for two
  order-1 functions is located once as it is and once pulled forward by
  eta.  What depends on rho alone, down to the level planes {f = rho},
  {g = rho} where the caps kink, is set up once per radius.  Every
  branch of the violation falls with slope at most -1 in eta (g is
  nondecreasing) over a region that does not depend on eta, so

      V(eta + d) <= V(eta) - d     for d >= 0,

  and lo + V(lo) is feasible whenever V(lo) > 0.  The threshold search uses
  this bound to propose shifts, a secant between the bracket ends to refine
  them, and an evaluation of V to certify each bracket end.
  ``eta_plus``/``eta_minus`` are the cell-corner relaxations bracketing the
  shift distance from above and below.

* ``hypo_dist_estimate`` - certified two-sided bracket of the exponentially
  weighted integral of the truncated distances over all radii, built from
  shift distances on a radius quadrature together with the facts that the
  shift distance is nondecreasing in rho, sandwiches the truncated distance
  between radii rho and 2 rho, and saturates once the ball swallows the
  domain and the unit range.  Write V_rho for V at radius rho.  V_rho(eta)
  is nondecreasing in rho, since the region R and the caps min(h, rho) both
  grow, so a shift feasible at one radius is feasible at every smaller one.
  The radii are searched in ascending order, each from the previous hat;
  once that hat was itself feasible at two radii in a row, it is tested
  ahead (2, 4, 8, ... radii past the last feasible test, then bisecting
  after a failed test), and every radius up to a feasible test takes the
  previous hat unsearched.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .functions import GridFunction
from .grid import Domain, interpolation_weights, lattice, locate_batch
from .kinks import barycentric, candidates, global_kinks, level_kinks

logger = logging.getLogger(__name__)

__all__ = [
    "RhoBall",
    "DistanceReport",
    "default_rho",
    "point_hypo_dist",
    "dl_rho_oracle",
    "kenmochi_ok",
    "hat_dl_rho",
    "eta_plus",
    "eta_minus",
    "hypo_dist_estimate",
]

# Feasibility slack: range and solver tolerances leak into the violation sup,
# so "satisfied" means "violation below this".
SUP_TOL = 1e-9
RANGE_ATOL = 1e-9
_TINY = 1e-15


@dataclass(frozen=True)
class RhoBall:
    """Max-norm ball of test points: ||(x, x0)|| = max(||x||_inf, |x0|) <= radius."""

    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")

    def region(self, domain: Domain) -> tuple[np.ndarray, np.ndarray] | None:
        """Bounds of {x in S : ||x||_inf <= radius}, or None when empty."""
        lo = np.maximum(domain.lower, -self.radius)
        hi = np.minimum(domain.upper, self.radius)
        if np.any(lo > hi):
            return None
        return lo, hi


@dataclass(frozen=True)
class DistanceReport:
    """A distance value together with a certified two-sided bracket.

    ``quad_term`` (when set) is the quadrature oscillation sum — the part of
    the bracket width attributable to finite radial resolution, as opposed to
    the exactly-handled exponential tail.  ``evaluations`` (when set) counts
    the violation evaluations of the shift-distance searches and of the
    gallop tests over the radius quadrature, and ``points`` the region
    points they evaluated (boxes, when a step function is involved); a
    radius filled from a gallop test costs neither.
    """

    value: float
    lower_bound: float
    upper_bound: float
    method: str
    quad_term: float | None = None
    evaluations: int | None = None
    points: int | None = None

    def width(self) -> float:
        return self.upper_bound - self.lower_bound


def default_rho(domain: Domain) -> float:
    """Truncation radius large enough to see the whole domain: 1 + diameter."""
    return 1.0 + domain.diameter()


def saturation_radius(domain: Domain) -> float:
    """Radius beyond which the test region and the unit cap both saturate."""
    reach = float(max(np.max(domain.upper), np.max(-domain.lower), 0.0))
    return max(1.0, reach)


# -- input validation ------------------------------------------------------------


def _require_unit_range(f: GridFunction, name: str) -> None:
    v = f.values
    if float(np.min(v)) < -RANGE_ATOL or float(np.max(v)) > 1.0 + RANGE_ATOL:
        raise ValueError(
            f"{name} must take values in [0, 1] (tolerance {RANGE_ATOL:.0e}); "
            f"got range [{float(np.min(v)):.3g}, {float(np.max(v)):.3g}]"
        )


def _validate_pair(f: GridFunction, g: GridFunction, *, need_uniform: bool) -> None:
    if f.grid != g.grid:
        raise ValueError("both functions must live on the same grid")
    if f.grid.dim not in (1, 2, 3):
        raise ValueError(f"supported dimensions are 1, 2 and 3, got {f.grid.dim}")
    if not (f.monotone and g.monotone):
        raise ValueError("shift distances are defined for monotone functions; "
                         "set the monotone flag on both inputs")
    _require_unit_range(f, "f")
    _require_unit_range(g, "g")
    if need_uniform and f.grid.dim >= 2 and not f.grid.is_uniform():
        raise ValueError(
            "the exact violation maximizer requires per-axis uniform grids "
            "in 2-d and 3-d"
        )


# -- exact violation maximizer ----------------------------------------------------
#
# The shift condition at shift eta and radius rho fails in the direction
# (f, g) by
#
#     psi_fg(x) = min(f(x), rho) - g(min(x + eta, b)) - eta ,
#
# and in the direction (g, f) by psi_gf, the same with f and g swapped.  It
# holds iff V(eta) = sup max(psi_fg, psi_gf) <= 0 over the region
# R = {x in S : ||x||_inf <= rho}.  f and g share a grid, so both directions
# share one point set per shift, built on the same per-axis candidates: the
# nodes, the nodes pulled back by eta, and the region's bounds.  For order-1
# f and g it is the vertex set of their kink arrangement (kinks module).
# What depends on rho alone is set up once per radius by ``_violation_at``.


def _sup_on_boxes(
    f: GridFunction,
    g: GridFunction,
    rho: float,
    lo: np.ndarray,
    hi: np.ndarray,
    eta: float,
) -> tuple[float, int]:
    """Exact V(eta) when a step (order-0) function is involved, and the
    number of boxes evaluated.  On each axis the candidates c_0 < ... < c_n
    split [lo, hi] into the half-open pieces [c_k, c_k+1) and the point
    {c_n}; step functions are right-continuous, so every order-0 factor is
    constant on a product of such pieces, and monotonicity pins the
    continuous factor's extreme to a box corner, the upper one for the
    capped side and the lower one for the shifted side.  Pairing each
    candidate with its successor, and the last with itself, covers the
    region's upper faces, where a step function on a node takes its next
    cell's value, and a one-point axis (lo == hi).  Both directions use the
    same lower, upper and mid lattices."""
    cands = candidates(f.grid, lo, hi, eta)
    lower = lattice(cands)
    upper = lattice([np.append(c[1:], c[-1]) for c in cands])
    mid = 0.5 * (lower + upper)
    dom = f.grid.domain

    def capped_side(h: GridFunction) -> np.ndarray:
        return np.minimum(h.eval(upper if h.order == 1 else mid), rho)

    def shifted_side(h: GridFunction) -> np.ndarray:
        pts = lower if h.order == 1 else mid
        return h.eval(np.clip(pts + eta, dom.lower, dom.upper))

    psi = np.maximum(
        capped_side(f) - shifted_side(g), capped_side(g) - shifted_side(f)
    )
    return float(np.max(psi)) - eta, lower.shape[0]


def _violation_at(
    f: GridFunction, g: GridFunction, rho: float
) -> Callable[[float], tuple[float, int]]:
    """eta -> (V(eta), region points evaluated) at radius rho.

    The work that depends on rho alone is done here, once per radius: the
    region, the global planes, and the cap tests h(lo) < rho < h(hi), which
    pick the functions whose level planes {h = rho} cut the region."""
    reg = RhoBall(rho).region(f.grid.domain)
    if reg is None:
        return lambda eta: (-math.inf, 0)
    lo, hi = reg
    if f.order == 0 or g.order == 0:
        return partial(_sup_on_boxes, f, g, rho, lo, hi)
    kinks = [global_kinks(f.grid, lo, hi)]
    corners = interpolation_weights(f.grid, np.stack([lo, hi]))
    for h in (f, g):
        at_lo, at_hi = h.interpolate(*corners)
        if at_lo < rho < at_hi:
            kinks.append(level_kinks(h, rho, lo, hi))
    dom = f.grid.domain

    def sup_at_vertices(eta: float) -> tuple[float, int]:
        """Exact V(eta) for continuous (order-1) f and g, and the number of
        region points evaluated: the max over the vertices of their joint
        kink arrangement, which the ``kinks`` enumerate.  The points are
        located twice, as they are and pulled forward by eta, and f and g
        are both read off each set of weights."""
        pts = np.concatenate([k(eta) for k in kinks], axis=0)
        # one comparison per column: np.all over an (N, m) mask is slower here
        inside = np.ones(pts.shape[0], dtype=bool)
        for i in range(pts.shape[1]):
            inside &= (pts[:, i] >= lo[i] - _TINY) & (pts[:, i] <= hi[i] + _TINY)
        pts = np.clip(pts[inside], lo, hi)
        here = interpolation_weights(f.grid, pts)
        ahead = interpolation_weights(f.grid, np.clip(pts + eta, dom.lower, dom.upper))
        psi = np.maximum(
            np.minimum(f.interpolate(*here), rho) - g.interpolate(*ahead),
            np.minimum(g.interpolate(*here), rho) - f.interpolate(*ahead),
        )
        return float(np.max(psi)) - eta, pts.shape[0]

    return sup_at_vertices


def _violation(f: GridFunction, g: GridFunction, rho: float, eta: float) -> float:
    """V(eta): the larger violation sup of the two directions.  The shift
    condition holds at eta iff V(eta) <= SUP_TOL; V is symmetric in (f, g)."""
    return _violation_at(f, g, rho)(eta)[0]


def kenmochi_ok(f: GridFunction, g: GridFunction, rho: float, eta: float) -> bool:
    """Whether the two-sided shift condition holds at shift eta and radius rho."""
    if not (rho > 0 and math.isfinite(rho)):
        raise ValueError(f"rho must be positive and finite, got {rho}")
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    _validate_pair(f, g, need_uniform=True)
    return _violation(f, g, rho, eta) <= SUP_TOL


def slope_bounded_search(
    value: Callable[[float], float],
    lo: float,
    v_lo: float,
    hi: float,
    tol: float,
    threshold: float,
) -> tuple[float, float] | None:
    """Bracket the least eta in (lo, hi] with value(eta) <= threshold, for a
    value that falls with slope at most -1: value(eta + d) <= value(eta) - d.

    ``v_lo`` = value(lo) must exceed the threshold.  The search keeps a
    bracket of *evaluated* shifts, value(lo) > threshold and value(hi) <=
    threshold, and stops once hi - lo <= tol.  By the slope bound the root
    of value lies in [hi + value(hi), lo + value(lo)]: min(hi, lo + v_lo) is
    the first probe, then hi itself if that probe lands above the threshold,
    and after each secant probe between the bracket ends the bound on the
    side that did not move is probed too.  The bound only proposes shifts;
    every end is certified by its own evaluation.  A midpoint replaces the
    secant when two rounds failed to halve the bracket, as on steps.

    Returns the final bracket (lo, hi), or None when value(hi) exceeds the
    threshold, so that no end in (lo, hi] can be certified.
    """
    v_hi = math.nan

    def probe(eta: float) -> bool:
        nonlocal lo, v_lo, hi, v_hi
        v = value(eta)
        if v <= threshold:
            hi, v_hi = eta, v
            return True
        lo, v_lo = eta, v
        return False

    # rounding can leave lo + v_lo just above the threshold
    first = min(hi, lo + v_lo)
    if not probe(first) and (first == hi or not probe(hi)):
        return None
    widths = [hi - lo]
    while hi - lo > tol:
        if len(widths) >= 3 and widths[-1] > 0.5 * widths[-3]:
            eta = 0.5 * (lo + hi)
        else:
            eta = lo + v_lo * (hi - lo) / (v_lo - v_hi)  # secant aimed at 0
        eta = min(max(eta, lo + 0.5 * tol), hi - 0.5 * tol)
        step = hi + v_hi if probe(eta) else lo + v_lo
        if lo + 0.5 * tol < step < hi - 0.5 * tol:
            probe(step)
        widths.append(hi - lo)
    return lo, hi


def _hat_bracketed(
    f: GridFunction,
    g: GridFunction,
    rho: float,
    tol: float,
    lo: float,
    _v_lo: float | None = None,
) -> tuple[float, int, int]:
    """Least feasible shift at or above lo, to within tol, with the number of
    violation evaluations spent on it and the region points they evaluated.

    A shift is feasible when V(eta) <= SUP_TOL.  Unless lo itself is, the
    shift is found by ``slope_bounded_search`` in (lo, 1], since V falls
    with slope at most -1 (module docstring); the result is its upper end,
    so it overshoots the threshold by at most tol.  The per-radius setup of
    V (``_violation_at``) is done once, before the first probe.  ``_v_lo``
    is V(lo) at rho when the caller has already evaluated it (a gallop test
    of ``hypo_dist_estimate``); it is then neither evaluated nor counted
    again.
    """
    violation = _violation_at(f, g, rho)
    evaluations = points = 0

    def value(eta: float) -> float:
        nonlocal evaluations, points
        v, n = violation(eta)
        evaluations += 1
        points += n
        return v

    v_lo = value(lo) if _v_lo is None else _v_lo
    if v_lo <= SUP_TOL:
        return lo, evaluations, points
    # shift 1 is feasible for [0, 1]-valued inputs, unless a monotone flag
    # was accepted within MONOTONE_ATOL
    bracket = slope_bounded_search(value, lo, v_lo, 1.0, tol, SUP_TOL)
    if bracket is None:
        raise ValueError(
            "shift 1 is infeasible; inputs are not [0, 1]-valued monotone "
            "functions within tolerance"
        )
    return bracket[1], evaluations, points


def hat_dl_rho(
    f: GridFunction, g: GridFunction, rho: float, *, tol: float = 1e-8
) -> float:
    """Shift distance at radius rho: the least eta making both one-sided
    capped shift conditions hold.  Always in [0, 1].  Each candidate shift is
    decided by the exact violation sup V(eta); the search steps along V's
    slope bound V(eta + d) <= V(eta) - d and a secant, and returns a shift
    with V <= SUP_TOL lying at most tol above the least such shift."""
    if not (rho > 0 and math.isfinite(rho)):
        raise ValueError(f"rho must be positive and finite, got {rho}")
    if not (0 < tol < 1):
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    _validate_pair(f, g, need_uniform=True)
    return _hat_bracketed(f, g, rho, tol, 0.0)[0]


# -- monotone root-scan distances ---------------------------------------------------


def _saturation_curves(
    f: GridFunction, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Piecewise-linear curves t -> f(min(x + t, b)) + t for a batch of x.

    Returns (T, L, t_sat, f_at_b): breakpoints and curve values per row,
    padded with +inf, rows sorted; t_sat is where every coordinate saturates,
    beyond which the curve continues as f(b) + t."""
    if f.order != 1:
        raise ValueError("the root-scan needs a continuous (order-1) function")
    grid = f.grid
    dom = grid.domain
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    n, m = X.shape
    t_sat = np.max(dom.upper[None, :] - X, axis=1)

    cols = [np.zeros((n, 1)), t_sat[:, None]]
    for i in range(m):
        offs = grid.axes[i][None, :] - X[:, i : i + 1]
        offs = np.where((offs > _TINY) & (offs < t_sat[:, None] - _TINY), offs, np.inf)
        cols.append(offs)
    T = np.sort(np.concatenate(cols, axis=1), axis=1)

    pairs = list(itertools.combinations(range(m), 2))
    if pairs:
        # between breakpoints the ray x + t(1, ..., 1) stays in one cell,
        # located by the interval's midpoint, where it can still cross a
        # Kuhn hyperplane t_i = t_j of the simplex rule (grid module)
        mids = 0.5 * (T[:, :-1] + T[:, 1:])
        finite = np.isfinite(mids)
        pts = np.clip(X[:, None, :] + np.where(finite, mids, 0.0)[:, :, None],
                      dom.lower, dom.upper)
        idx, _ = locate_batch(grid, pts.reshape(-1, m))
        a = [ax[k].reshape(n, -1) for ax, k in zip(grid.axes, idx.T)]
        h = [ax[k + 1].reshape(n, -1) - c for ax, k, c in zip(grid.axes, idx.T, a)]
        crossings = []
        for i, j in pairs:
            denom = h[j] - h[i]
            with np.errstate(divide="ignore", invalid="ignore"):
                s = (h[i] * (X[:, j : j + 1] - a[j])
                     - h[j] * (X[:, i : i + 1] - a[i])) / denom
            valid = finite & (np.abs(denom) > _TINY) & (s > T[:, :-1] + _TINY)
            valid &= s < T[:, 1:] - _TINY
            if np.any(valid):
                crossings.append(np.where(valid, s, np.inf))
        if crossings:
            T = np.sort(np.concatenate([T, *crossings], axis=1), axis=1)

    finite = np.isfinite(T)
    T_eval = np.where(finite, T, t_sat[:, None])
    pts = np.clip(X[:, None, :] + T_eval[:, :, None], dom.lower, dom.upper)
    L = f.eval(pts.reshape(-1, m)).reshape(n, -1) + T_eval
    L = np.where(finite, L, np.inf)
    f_at_b = float(f.eval(dom.upper))
    return T, L, t_sat, f_at_b


def _roots_from_curves(
    T: np.ndarray, L: np.ndarray, f_at_b: float, x0: np.ndarray
) -> np.ndarray:
    """Distances for levels x0 (per curve row): first t with curve >= x0.

    x0 has shape (n, p); returns (n, p)."""
    n, K = T.shape
    k = np.sum(L[:, None, :] < x0[:, :, None], axis=2)  # first index with L >= x0
    out = np.empty_like(x0, dtype=float)
    at_zero = k == 0
    out[at_zero] = 0.0
    finite_count = np.sum(np.isfinite(L), axis=1)  # per row
    beyond = k >= finite_count[:, None]
    out[beyond] = (x0 - f_at_b)[beyond]
    middle = ~(at_zero | beyond)
    if np.any(middle):
        rows, cols = np.nonzero(middle)
        kk = k[rows, cols]
        t_lo = T[rows, kk - 1]
        t_hi = T[rows, kk]
        l_lo = L[rows, kk - 1]
        l_hi = L[rows, kk]
        dl = l_hi - l_lo
        safe = dl > _TINY
        t = np.where(
            safe,
            t_lo + (x0[rows, cols] - l_lo) * (t_hi - t_lo) / np.where(safe, dl, 1.0),
            t_lo,
        )
        out[rows, cols] = t
    return np.maximum(out, 0.0)


def _monotone_dist(f: GridFunction, X: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """dist((x, x0), hypo f) for monotone order-1 f, batched: X (n, m),
    x0 (n, p) levels per point."""
    if not f.monotone:
        raise ValueError("the root-scan distance requires the monotone flag")
    T, L, _, f_at_b = _saturation_curves(f, X)
    return _roots_from_curves(T, L, f_at_b, x0)


# -- geometric per-piece distance ----------------------------------------------------


def _geometric_dist(f: GridFunction) -> Callable[[np.ndarray, float], float]:
    """(x, x0) -> dist((x, x0), hypo f) = min over y in S of max(||x - y||,
    x0 - f(y), 0), taken over the Kuhn simplices of f's grid, any m.

    On a simplex f(y) = a.y + c, and the distance is the LP min s with
    s >= +-(y_i - x_i), s >= x0 - a.y - c, s >= 0 and y in the simplex.  At
    an optimal vertex m + 1 of its rows are tight; one tight row in s taken
    from the others leaves m hyperplanes in y, from y_i = x_i,
    y_i -+ y_j = x_i -+ x_j, a.y + c = x0, a.y + c +- (y_i - x_i) = x0 and
    the facets.  Every m-subset of them with a nonzero determinant is
    solved, and its point is kept when it lies in the simplex; only the
    right-hand sides depend on the test point, so the inverses are built
    once per function.  That is C((m + 1)(m + 2), m) points per simplex,
    all held at once: a reference for small grids."""
    if f.order != 1:
        raise ValueError("hypograph distances need a continuous (order-1) function")
    grid = f.grid
    m = grid.dim
    tris = grid.triangles()
    P = grid.node_lattice()[tris]  # (T, m + 1, m)
    V = f.values.reshape(-1)[tris]  # (T, m + 1)
    # barycentric map: [y, 1] @ B = lambda, so the plane of f is B @ V and
    # facet k is the column B[:, k] = 0
    B = barycentric(P)
    plane = B @ V[..., None]  # (T, m + 1, 1)
    a, c = plane[:, :m], plane[:, m]
    eye = np.eye(m)
    i, j = np.triu_indices(m, 1)
    box = np.concatenate([eye, eye[i] - eye[j], eye[i] + eye[j]])
    shifts = np.concatenate([np.zeros((1, m)), eye, -eye])
    nt = P.shape[0]
    coeff = np.concatenate([  # ties of ||x - y||, level and balance planes, facets
        np.broadcast_to(box, (nt, *box.shape)),
        a.transpose(0, 2, 1) + shifts,
        B[:, :m].transpose(0, 2, 1),
    ], axis=1)
    subsets = np.array(list(itertools.combinations(range(coeff.shape[1]), m)))
    A = coeff[:, subsets]  # (T, K, m, m)
    ok = np.abs(np.linalg.det(A)) > _TINY
    inv = np.linalg.inv(np.where(ok[..., None, None], A, eye))

    def dist(x: np.ndarray, x0: float) -> float:
        off = np.concatenate([np.broadcast_to(box @ x, (nt, box.shape[0])),
                              x0 - c + shifts @ x, -B[:, m]], axis=1)
        y = (inv @ off[:, subsets][..., None])[..., 0]  # (T, K, m)
        keep = ok & np.all(y @ B[:, :m] + B[:, None, m] >= -1e-9, axis=2)
        fy = (y @ a)[..., 0] + c
        D = np.maximum(np.max(np.abs(y - x), axis=2), np.maximum(x0 - fy, 0.0))
        return float(np.min(D[keep]))

    return dist


def point_hypo_dist(
    f: GridFunction, point: np.ndarray, *, method: str = "auto"
) -> float:
    """Max-norm distance from the test point (x, x0) to the hypograph of f.

    ``point`` packs the domain coordinates followed by the level, so it has
    length m + 1.  ``method``: "scan" uses the monotone root-scan (monotone f,
    x inside the domain), "geometric" minimizes over every linear piece of
    the graph, "auto" picks the scan when it applies.
    """
    pt = np.asarray(point, dtype=float).reshape(-1)
    if pt.size != f.grid.dim + 1:
        raise ValueError(
            f"expected a point with {f.grid.dim + 1} entries (x then level), "
            f"got {pt.size}"
        )
    x, x0 = pt[:-1], float(pt[-1])
    in_dom = f.grid.domain.contains(x)
    if method == "auto":
        method = "scan" if (f.monotone and in_dom) else "geometric"
    if method == "scan":
        if not f.monotone:
            raise ValueError("the scan method requires the monotone flag")
        if not in_dom:
            raise ValueError("the scan method requires x inside the domain")
        return float(_monotone_dist(f, x[None, :], np.array([[x0]]))[0, 0])
    if method == "geometric":
        return _geometric_dist(f)(x, x0)
    raise ValueError(f"unknown method {method!r}")


def dl_rho_oracle(
    f: GridFunction,
    g: GridFunction,
    rho: float,
    samples_per_axis: int,
    *,
    method: str = "scan",
) -> float:
    """Brute-force truncated hypograph distance on a sample lattice.

    Maximizes |dist(z, hypo f) - dist(z, hypo g)| over test points
    z = (x, x0) with x on a regular lattice in {x in S : ||x||_inf <= rho}
    and x0 on a regular lattice in [-rho, rho].  A lower bound on the true
    truncated distance that converges as the lattice refines; doubling
    `samples_per_axis` from s to 2s - 1 nests the lattices.
    """
    if f.grid != g.grid:
        raise ValueError("both functions must live on the same grid")
    if samples_per_axis < 2:
        raise ValueError(f"samples_per_axis must be >= 2, got {samples_per_axis}")
    reg = RhoBall(rho).region(f.grid.domain)
    if reg is None:
        return 0.0
    lo, hi = reg
    axes = [np.linspace(lo[i], hi[i], samples_per_axis) for i in range(f.grid.dim)]
    X = lattice(axes)
    levels = np.linspace(-rho, rho, samples_per_axis)
    x0 = np.broadcast_to(levels[None, :], (X.shape[0], levels.size))

    if method == "scan":
        df = _monotone_dist(f, X, x0)
        dg = _monotone_dist(g, X, x0)
    elif method == "geometric":
        # each function's simplex matrices are inverted once, for every point
        df, dg = (np.array([[dist(x, lv) for lv in levels] for x in X])
                  for dist in (_geometric_dist(f), _geometric_dist(g)))
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(np.max(np.abs(df - dg)))


# -- cell-corner relaxations -----------------------------------------------------


def _eta_cells(
    f: GridFunction, g: GridFunction, rho: float, *, tight: bool
) -> float:
    _validate_pair(f, g, need_uniform=False)
    if f.order != 1 or g.order != 1:
        raise ValueError("cell-corner relaxations need order-1 functions")
    if not (rho > 0 and math.isfinite(rho)):
        raise ValueError(f"rho must be positive and finite, got {rho}")
    grid = f.grid
    lower, upper = grid.cell_bounds()
    keep = np.max(np.abs(lower), axis=1) <= rho + 1e-12
    if not np.any(keep):
        return 0.0
    lo = lower[keep]
    hi = upper[keep]
    probe = hi if tight else lo
    tf = np.minimum(f.eval(probe), rho)[:, None]
    tg = np.minimum(g.eval(probe), rho)[:, None]
    best_f = _monotone_dist(g, lo, tf)  # shift needed by g to cover f's target
    best_g = _monotone_dist(f, lo, tg)
    return float(max(np.max(best_f), np.max(best_g)))


def eta_plus(f: GridFunction, g: GridFunction, rho: float) -> float:
    """Upper cell-corner relaxation of the shift distance at radius rho:
    the least shift whose condition holds with each cell's supremum on the
    demanding side and its lower corner on the covering side."""
    return _eta_cells(f, g, rho, tight=True)


def eta_minus(f: GridFunction, g: GridFunction, rho: float) -> float:
    """Lower cell-corner relaxation: both sides probed at cell lower corners.
    Never exceeds the shift distance."""
    return _eta_cells(f, g, rho, tight=False)


# -- integrated distance with certified bounds -------------------------------------


def hypo_dist_estimate(
    f: GridFunction, g: GridFunction, *, quad_points: int = 64, tol: float = 1e-8
) -> DistanceReport:
    """Exponentially weighted integral of truncated distances, bracketed.

    Writing s(rho) for the shift distance, the truncated distance at radius
    rho lies in [s(rho), s(2 rho)], s is nondecreasing, and beyond the
    saturation radius both collapse to the constant s_sat, making the tail of
    the integral exact.  On [0, saturation] the integral is bracketed per
    quadrature interval by s at the ends, and reported as the midpoint-rule
    average of the two bracket integrands, which lands inside the bracket by
    monotonicity of s.

    The shift distances are searched in ascending radius, each from the
    previous hat.  Over a plateau of s, the radii past two that kept the
    previous hat are filled from gallop tests of V at that hat (module
    docstring): each test is one violation evaluation and counts in
    ``evaluations`` and ``points``, a filled radius costs nothing, and the
    test that fails is reused as V(lo) by that radius's search.  Every hat
    equals that of a search at every radius.  The evaluations exceed that
    search's by at most one per plateau, on a plateau that ends within four
    radii of the gallop's start, where failed tests can outnumber the radii
    filled.
    """
    _validate_pair(f, g, need_uniform=True)
    if quad_points < 1:
        raise ValueError(f"quad_points must be >= 1, got {quad_points}")
    if not (0 < tol < 1):
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    rho_bar = saturation_radius(f.grid.domain)
    edges = np.linspace(0.0, rho_bar, quad_points + 1)
    a, b = edges[:-1], edges[1:]
    mids = 0.5 * (a + b)

    args = np.unique(
        np.minimum(np.concatenate([a[1:], mids, 2 * mids, 2 * b, [rho_bar]]), rho_bar)
    )
    args = args[args > 0]
    hats = {0.0: 0.0}
    prev = 0.0
    evaluations = points = searched = tests = 0
    run = 0  # radii in a row at which prev itself was feasible
    v_next = None  # V(prev) at args[i], when a gallop test measured it
    i = 0
    while i < args.size:
        if run >= 2:
            # gallop from args[i - 1], feasible at prev: test prev 2, then
            # 4, 8, ... indices past the last feasible test (known), and
            # once a test fails (bad), bisect between the two
            known, bad, step = i - 1, args.size, 2
            while bad - known > 1:
                if bad == args.size:
                    j = min(known + step, args.size - 1)
                    step *= 2
                else:
                    j = (known + bad) // 2
                v, seen = _violation_at(f, g, float(args[j]))(prev)
                tests += 1
                points += seen
                if v <= SUP_TOL:
                    known = j
                else:
                    bad, v_next = j, v
            # V is nondecreasing in rho, so prev is feasible at every
            # radius up to a feasible test
            for r in args[i : known + 1]:
                hats[float(r)] = prev
            i, run = known + 1, 0
            continue
        val, spent, seen = _hat_bracketed(f, g, float(args[i]), tol, prev, v_next)
        searched += 1
        evaluations += spent
        points += seen
        run = run + 1 if val <= prev else 0
        # the shift distance is nondecreasing in rho; enforce it on the
        # computed sequence so the bracket holds by construction
        prev = max(prev, val)
        hats[float(args[i])] = prev
        i, v_next = i + 1, None
    evaluations += tests

    def hat(r: float) -> float:
        return hats[float(min(r, rho_bar))]

    hat_a = np.array([hat(v) for v in a])
    hat_2b = np.array([hat(2 * v) for v in b])
    hat_mids = np.array([hat(v) for v in mids])
    hat_2mids = np.array([hat(2 * v) for v in mids])
    w = np.exp(-a) - np.exp(-b)
    tail = math.exp(-rho_bar) * hat(rho_bar)
    lower = float(np.sum(w * hat_a)) + tail
    upper = float(np.sum(w * hat_2b)) + tail
    value = float(np.sum(w * 0.5 * (hat_mids + hat_2mids))) + tail
    if not (lower - 1e-12 <= value <= upper + 1e-12):
        raise AssertionError(
            f"bracket violated: {lower} <= {value} <= {upper} should hold"
        )
    logger.debug(
        "hypo_dist_estimate: value=%.6g bracket=[%.6g, %.6g] "
        "(%d radii searched, %d filled, %d gallop tests; "
        "%d violation evaluations, %d region points)",
        value,
        lower,
        upper,
        searched,
        args.size - searched,
        tests,
        evaluations,
        points,
    )
    return DistanceReport(
        value=value,
        lower_bound=lower,
        upper_bound=upper,
        method=f"shift-sandwich-quadrature-{quad_points}",
        quad_term=float(np.sum(w * (hat_2b - hat_a))),
        evaluations=evaluations,
        points=points,
    )
