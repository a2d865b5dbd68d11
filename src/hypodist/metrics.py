"""Hypograph distances between monotone [0, 1]-valued grid functions.

All computations work with the product max-norm on graph space: a test point
pairs a domain point x with a level x0, and its norm is
max(||x||_inf, |x0|).  Three layers are provided, from slow-and-independent
to fast-and-certified:

* ``point_hypo_dist`` - distance from one test point (x, x0) to the hypograph
  {(y, y0) : y in S, y0 <= f(y)}.  Two routes: a geometric per-piece
  minimization that enumerates candidate minimizers on every linear piece of
  the graph, and a root-scan that exploits monotonicity,

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
  point) by maximizing the violation over the region, in 1-d and 2-d alike,
  with one of two maximizers chosen by the functions' orders.  For two
  continuous (order-1) functions the violation is piecewise linear, so its
  maximum sits on a vertex of the kink arrangement, all of which are
  enumerated.  When a step (order-0) function is involved, the candidate
  lines cut the region into boxes on which every step factor is constant,
  and monotonicity puts the continuous factor's extreme at a box corner.
  Write V(eta) for the larger of the two directions' violation sups.  The
  two functions share a grid, so both directions are maximized over one
  point set per shift: the candidate lattice (or boxes) and the cap kinks
  of both functions.  For two order-1 functions the set is located once as
  it is and once pulled forward by eta, and f and g are both read off each
  location.  The region, the cap tests and the level sets {f = rho},
  {g = rho} depend on rho alone and are set up once per radius.  Every
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
  domain and the unit range.
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
from .grid import Domain, Grid, interpolation_weights, lattice, locate_batch

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
    the violation evaluations of the shift-distance searches over all radii,
    and ``points`` the region points they evaluated (boxes, when a step
    function is involved).
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
    if f.grid.dim not in (1, 2):
        raise ValueError(f"supported dimensions are 1 and 2, got {f.grid.dim}")
    if not (f.monotone and g.monotone):
        raise ValueError("shift distances are defined for monotone functions; "
                         "set the monotone flag on both inputs")
    _require_unit_range(f, "f")
    _require_unit_range(g, "g")
    if need_uniform and f.grid.dim == 2 and not f.grid.is_uniform():
        raise ValueError(
            "the exact 2-d violation maximizer requires per-axis uniform grids"
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
# nodes, the nodes pulled back by eta, and the region's bounds.  Between
# consecutive candidates no node of either function is crossed on any axis.
# What depends on rho alone (the region and, in 2-d, the cap tests and the
# level sets of the capped functions) is set up once per radius by
# ``_violation_at``.


def _candidates(
    grid: Grid, lo: np.ndarray, hi: np.ndarray, eta: float
) -> list[np.ndarray]:
    """Per-axis candidates at shift eta in the region [lo, hi]."""
    out = []
    for i, axis in enumerate(grid.axes):
        cand = np.concatenate([axis, axis - eta, [lo[i], hi[i]]])
        out.append(np.unique(np.clip(cand, lo[i], hi[i])))
    return out


def _cap_crossings_1d(f: GridFunction, cand: np.ndarray, rho: float) -> np.ndarray:
    """Points between consecutive candidates where the order-1 f crosses the
    cap rho, shape (N, 1): min(f, rho) kinks there."""
    fc = f.eval(cand[:, None])
    cl, cr = cand[:-1], cand[1:]
    fl, fr = fc[:-1], fc[1:]
    cross = (fl - rho) * (fr - rho) < 0
    roots = cl[cross] + (rho - fl[cross]) * (cr[cross] - cl[cross]) / (
        fr[cross] - fl[cross]
    )
    return roots[:, None]


def _level_segments(f: GridFunction, rho: float) -> np.ndarray:
    """Endpoints of the pieces of the level set {f = rho}, shape (E, 2, 2).

    The graph of an order-1 function is linear on each triangle of
    ``Grid.triangles()``, so the level set is a segment per triangle, with
    endpoints where it crosses the triangle's edges (the grid module's edge
    offsets) or at a vertex sitting exactly at the level."""
    grid = f.grid
    tri = grid.triangles()
    pos = grid.node_lattice()[tri]  # (T, 3 vertices, 2)
    val = f.values.reshape(-1)[tri]
    # edge k runs from vertex k to vertex k + 1 (mod 3)
    nxt_pos, nxt_val = np.roll(pos, -1, axis=1), np.roll(val, -1, axis=1)
    cross = (val - rho) * (nxt_val - rho) < 0
    s = np.where(cross, (rho - val) / np.where(cross, nxt_val - val, 1.0), np.nan)
    pts = pos + s[..., None] * (nxt_pos - pos)  # (T, 3 edges, 2)
    n_cross = cross.sum(axis=1)
    two = n_cross == 2
    segs = pts[two][cross[two]].reshape(-1, 2, 2)
    # a segment can also run from a vertex sitting exactly at the level to
    # the crossing on the opposite edge
    at_level = np.abs(val - rho) <= 1e-14
    rows = np.nonzero((n_cross == 1) & (at_level.sum(axis=1) == 1))[0]
    cross_pt = pts[rows][cross[rows]]
    vert_pt = pos[rows, np.argmax(at_level[rows], axis=1)]
    return np.concatenate([segs, np.stack([vert_pt, cross_pt], axis=1)])


def _segment_line_crossings(
    segs: np.ndarray, coeff: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Intersections of segments with the line family coeff . x = offset.

    segs: (E, 2, 2) endpoints; coeff: (2,); offsets: (L,).  Returns (N, 2)."""
    if segs.size == 0 or offsets.size == 0:
        return np.empty((0, 2))
    p = segs[:, 0, :]
    q = segs[:, 1, :]
    vp = p @ coeff
    vq = q @ coeff
    denom = vq - vp  # (E,)
    out = []
    ok = np.abs(denom) > _TINY
    if not np.any(ok):
        return np.empty((0, 2))
    p, q, vp, denom = p[ok], q[ok], vp[ok], denom[ok]
    s = (offsets[None, :] - vp[:, None]) / denom[:, None]  # (E, L)
    hit = (s >= 0.0) & (s <= 1.0)
    if not np.any(hit):
        return np.empty((0, 2))
    e_idx, l_idx = np.nonzero(hit)
    sv = s[e_idx, l_idx][:, None]
    out = p[e_idx] + sv * (q[e_idx] - p[e_idx])
    return out


def _diag_crossings(
    x_cand: np.ndarray,
    y_cand: np.ndarray,
    ax1: np.ndarray,
    ax2: np.ndarray,
    shift: float,
    sigma: float,
) -> list[np.ndarray]:
    """Points where the diagonals of a (possibly shifted) cell lattice cross
    the candidate lines x1 = const and x2 = const.

    The lattice has axis nodes ax1 - shift, ax2 - shift; diagonals run from
    each cell's lower corner with slope sigma = h2 / h1 in the x-plane."""
    b1 = ax1 - shift
    b2 = ax2 - shift
    h1 = ax1[1] - ax1[0]
    h2 = ax2[1] - ax2[0]
    out = []
    # vertical candidate lines
    iv = np.clip(np.searchsorted(b1, x_cand, side="right") - 1, 0, b1.size - 2)
    off = x_cand - b1[iv]
    ok = (off >= -_TINY) & (off <= h1 + _TINY)
    if np.any(ok):
        xs = x_cand[ok]
        dy = sigma * off[ok]
        yy = b2[None, :-1] + dy[:, None]  # (V, n2-1)
        pts = np.stack(
            [np.broadcast_to(xs[:, None], yy.shape), yy], axis=-1
        ).reshape(-1, 2)
        out.append(pts)
    # horizontal candidate lines
    jv = np.clip(np.searchsorted(b2, y_cand, side="right") - 1, 0, b2.size - 2)
    off = y_cand - b2[jv]
    ok = (off >= -_TINY) & (off <= h2 + _TINY)
    if np.any(ok):
        ys = y_cand[ok]
        dx = off[ok] / sigma
        xx = b1[None, :-1] + dx[:, None]
        pts = np.stack(
            [xx, np.broadcast_to(ys[:, None], xx.shape)], axis=-1
        ).reshape(-1, 2)
        out.append(pts)
    return out


def _kinks_2d(
    grid: Grid, levels: list[np.ndarray], cands: list[np.ndarray], eta: float
) -> list[np.ndarray]:
    """Vertices of the 2-d kink arrangement off the candidate lattice, for a
    per-axis uniform grid: crossings of the candidate lines with the cell
    diagonals and with those pulled back by eta, and each level set
    {h = rho} in ``levels`` (segments from ``_level_segments``, possibly
    none) with its crossings of the candidate lines and the pulled-back
    diagonals."""
    x_cand, y_cand = cands
    a1, a2 = grid.axes
    h1 = a1[1] - a1[0]
    h2 = a2[1] - a2[0]
    sigma = h2 / h1

    chunks = _diag_crossings(x_cand, y_cand, a1, a2, 0.0, sigma)
    if eta != 0.0:
        chunks.extend(_diag_crossings(x_cand, y_cand, a1, a2, eta, sigma))
    if not levels:
        return chunks
    # the pulled-back diagonal line family x2 - sigma * x1 = const; the
    # intercepts form an arithmetic set
    c0 = (a2[0] - eta) - sigma * (a1[0] - eta)
    intercepts = c0 + h2 * np.arange(-(a1.size - 1), a2.size)
    for segs in levels:
        chunks.append(segs.reshape(-1, 2))
        chunks.append(_segment_line_crossings(segs, np.array([1.0, 0.0]), x_cand))
        chunks.append(_segment_line_crossings(segs, np.array([0.0, 1.0]), y_cand))
        chunks.append(
            _segment_line_crossings(segs, np.array([-sigma, 1.0]), intercepts)
        )
    return chunks


def _sup_at_vertices(
    f: GridFunction,
    g: GridFunction,
    rho: float,
    lo: np.ndarray,
    hi: np.ndarray,
    levels: list[np.ndarray],
    eta: float,
) -> tuple[float, int]:
    """Exact V(eta) for continuous (order-1) f and g, and the number of
    region points evaluated.  Both directions are piecewise linear, so V is
    the max over the vertices of their joint kink arrangement: the
    candidate lattice and the kinks of both caps, which are the points
    where f or g crosses rho in 1-d, or in 2-d ``_kinks_2d`` with the level
    sets ``levels``.  The points are located twice, as they are and pulled
    forward by eta, and f and g are both read off each set of weights."""
    cands = _candidates(f.grid, lo, hi, eta)
    chunks = [lattice(cands)]
    if f.grid.dim == 1:
        chunks.extend(_cap_crossings_1d(h, cands[0], rho) for h in (f, g))
    else:
        chunks.extend(_kinks_2d(f.grid, levels, cands, eta))
    pts = np.concatenate([c for c in chunks if c.size], axis=0)
    # one comparison per column: np.all over an (N, m) mask is slower here
    inside = np.ones(pts.shape[0], dtype=bool)
    for i in range(pts.shape[1]):
        inside &= (pts[:, i] >= lo[i] - _TINY) & (pts[:, i] <= hi[i] + _TINY)
    pts = np.clip(pts[inside], lo, hi)
    dom = f.grid.domain
    here = interpolation_weights(f.grid, pts)
    ahead = interpolation_weights(f.grid, np.clip(pts + eta, dom.lower, dom.upper))
    psi = np.maximum(
        np.minimum(f.interpolate(*here), rho) - g.interpolate(*ahead),
        np.minimum(g.interpolate(*here), rho) - f.interpolate(*ahead),
    )
    return float(np.max(psi)) - eta, pts.shape[0]


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
    cands = _candidates(f.grid, lo, hi, eta)
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
    region and, in 2-d, the cap tests h(lo) < rho < h(hi), which pick the
    functions whose cap cuts the region, with the level sets {h = rho} of
    those functions."""
    reg = RhoBall(rho).region(f.grid.domain)
    if reg is None:
        return lambda eta: (-math.inf, 0)
    lo, hi = reg
    if f.order == 0 or g.order == 0:
        return partial(_sup_on_boxes, f, g, rho, lo, hi)
    levels = []
    if f.grid.dim == 2:
        corners = interpolation_weights(f.grid, np.stack([lo, hi]))
        for h in (f, g):
            at_lo, at_hi = h.interpolate(*corners)
            if at_lo < rho < at_hi:
                levels.append(_level_segments(h, rho))
    return partial(_sup_at_vertices, f, g, rho, lo, hi, levels)


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


def _hat_bracketed(
    f: GridFunction, g: GridFunction, rho: float, tol: float, lo: float
) -> tuple[float, int, int]:
    """Least feasible shift at or above lo, to within tol, with the number of
    violation evaluations spent on it and the region points they evaluated.

    The search keeps a bracket of *evaluated* shifts: V(lo) > SUP_TOL and
    V(hi) <= SUP_TOL.  It stops once hi - lo <= tol and returns hi, so the
    result overshoots the threshold by at most tol.  Since V falls with
    slope at most -1 (module docstring), the threshold lies in
    [hi + V(hi), lo + V(lo)]: lo + V(lo) is the first hi, and after each
    secant probe between the bracket ends the bound on the side that did not
    move is probed too.  The bound only proposes shifts; every end is
    certified by its own evaluation.  A midpoint replaces the secant when two
    rounds failed to halve the bracket, as on steps of order-0 functions.
    The per-radius setup of V (``_violation_at``) is done once, before the
    first probe.
    """
    violation = _violation_at(f, g, rho)
    evaluations = points = 0

    def probe(eta: float) -> bool:
        nonlocal lo, v_lo, hi, v_hi, evaluations, points
        v, n = violation(eta)
        evaluations += 1
        points += n
        if v <= SUP_TOL:
            hi, v_hi = eta, v
            return True
        lo, v_lo = eta, v
        return False

    hi = v_hi = v_lo = math.nan
    if probe(lo):
        return lo, evaluations, points
    # rounding (or a monotone flag accepted within MONOTONE_ATOL) can leave
    # lo + V(lo) just infeasible; shift 1 is feasible for [0, 1]-valued inputs
    first = min(1.0, lo + v_lo)
    if not probe(first) and (first == 1.0 or not probe(1.0)):
        raise ValueError(
            "shift 1 is infeasible; inputs are not [0, 1]-valued monotone "
            "functions within tolerance"
        )
    widths = [hi - lo]
    while hi - lo > tol:
        if len(widths) >= 3 and widths[-1] > 0.5 * widths[-3]:
            eta = 0.5 * (lo + hi)
        else:
            eta = lo + v_lo * (hi - lo) / (v_lo - v_hi)  # secant aimed at V = 0
        eta = min(max(eta, lo + 0.5 * tol), hi - 0.5 * tol)
        step = hi + v_hi if probe(eta) else lo + v_lo
        if lo + 0.5 * tol < step < hi - 0.5 * tol:
            probe(step)
        widths.append(hi - lo)
    return hi, evaluations, points


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


def _point_dist_1d_geometric(f: GridFunction, x: float, x0: float) -> float:
    axis = f.grid.axes[0]
    vals = f.values
    yl, yr = axis[:-1], axis[1:]
    vl, vr = vals[:-1], vals[1:]
    d = (vr - vl) / (yr - yl)
    c = vl  # value at yl

    cands = [yl, yr, np.full_like(yl, x)]
    with np.errstate(divide="ignore", invalid="ignore"):
        hinge = yl + (x0 - c) / d
        bal1 = (x + x0 - c + d * yl) / (1.0 + d)
        bal2 = np.where(np.abs(d - 1.0) > _TINY, (x0 - x - c + d * yl) / (d - 1.0), yl)
    for arr in (hinge, bal1, bal2):
        cands.append(np.where(np.isfinite(arr), arr, yl))
    best = math.inf
    for arr in cands:
        y = np.clip(arr, yl, yr)
        fy = c + d * (y - yl)
        D = np.maximum(np.abs(x - y), np.maximum(x0 - fy, 0.0))
        best = min(best, float(np.min(D)))
    return best


def _point_dist_2d_geometric(f: GridFunction, x: np.ndarray, x0: float) -> float:
    grid = f.grid
    tris = grid.triangles()
    nodes = grid.node_lattice()
    vals = f.values.reshape(-1)
    P = nodes[tris]  # (T, 3, 2)
    V = vals[tris]  # (T, 3)

    # plane f(y) = a . y + c per triangle
    e1 = P[:, 1] - P[:, 0]
    e2 = P[:, 2] - P[:, 0]
    dv1 = V[:, 1] - V[:, 0]
    dv2 = V[:, 2] - V[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    ax = (dv1 * e2[:, 1] - dv2 * e1[:, 1]) / det
    ay = (dv2 * e1[:, 0] - dv1 * e2[:, 0]) / det
    a = np.stack([ax, ay], axis=1)
    c = V[:, 0] - np.einsum("ti,ti->t", a, P[:, 0])

    nt = P.shape[0]
    # 12 candidate lines per triangle: coeff . y = offset
    coeff = np.empty((nt, 12, 2))
    off = np.empty((nt, 12))
    coeff[:, 0] = [1.0, 0.0]
    off[:, 0] = x[0]
    coeff[:, 1] = [0.0, 1.0]
    off[:, 1] = x[1]
    coeff[:, 2] = [1.0, -1.0]
    off[:, 2] = x[0] - x[1]
    coeff[:, 3] = [1.0, 1.0]
    off[:, 3] = x[0] + x[1]
    coeff[:, 4] = a
    off[:, 4] = x0 - c
    # balance lines: +-(y_i - x_i) = x0 - a.y - c
    coeff[:, 5] = a + np.array([1.0, 0.0])
    off[:, 5] = x0 - c + x[0]
    coeff[:, 6] = a - np.array([1.0, 0.0])
    off[:, 6] = x0 - c - x[0]
    coeff[:, 7] = a + np.array([0.0, 1.0])
    off[:, 7] = x0 - c + x[1]
    coeff[:, 8] = a - np.array([0.0, 1.0])
    off[:, 8] = x0 - c - x[1]
    # edge lines
    for k in range(3):
        p = P[:, k]
        q = P[:, (k + 1) % 3]
        e = q - p
        coeff[:, 9 + k, 0] = -e[:, 1]
        coeff[:, 9 + k, 1] = e[:, 0]
        off[:, 9 + k] = -e[:, 1] * p[:, 0] + e[:, 0] * p[:, 1]

    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    pi = np.array([p[0] for p in pairs])
    pj = np.array([p[1] for p in pairs])
    A1 = coeff[:, pi]  # (T, 66, 2)
    A2 = coeff[:, pj]
    b1 = off[:, pi]
    b2 = off[:, pj]
    det2 = A1[..., 0] * A2[..., 1] - A1[..., 1] * A2[..., 0]
    ok = np.abs(det2) > _TINY
    det_safe = np.where(ok, det2, 1.0)
    yx = (b1 * A2[..., 1] - b2 * A1[..., 1]) / det_safe
    yy = (A1[..., 0] * b2 - A2[..., 0] * b1) / det_safe
    cand = np.concatenate(
        [np.stack([yx, yy], axis=-1), P], axis=1
    )  # (T, 69, 2)
    valid = np.concatenate([ok, np.ones((nt, 3), dtype=bool)], axis=1)

    # barycentric inside-test
    d0 = cand - P[:, None, 0]
    denom = det[:, None]
    s = (d0[..., 0] * e2[:, None, 1] - d0[..., 1] * e2[:, None, 0]) / denom
    t = (e1[:, None, 0] * d0[..., 1] - e1[:, None, 1] * d0[..., 0]) / denom
    inside = (s >= -1e-9) & (t >= -1e-9) & (s + t <= 1.0 + 1e-9)
    valid &= inside

    fy = np.einsum("ti,tki->tk", a, cand) + c[:, None]
    D = np.maximum(
        np.max(np.abs(cand - x[None, None, :]), axis=-1),
        np.maximum(x0 - fy, 0.0),
    )
    D = np.where(valid, D, np.inf)
    return float(np.min(D))


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
    if f.order != 1:
        raise ValueError("hypograph distances need a continuous (order-1) function")
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
        if f.grid.dim == 1:
            return _point_dist_1d_geometric(f, float(x[0]), x0)
        if f.grid.dim == 2:
            return _point_dist_2d_geometric(f, x, x0)
        raise ValueError("geometric distances are implemented for m in {1, 2}")
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
        df = np.empty((X.shape[0], levels.size))
        dg = np.empty_like(df)
        for i in range(X.shape[0]):
            for j, lv in enumerate(levels):
                zp = np.concatenate([X[i], [lv]])
                df[i, j] = point_hypo_dist(f, zp, method="geometric")
                dg[i, j] = point_hypo_dist(g, zp, method="geometric")
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
    evaluations = points = 0
    for r in args:
        val, spent, seen = _hat_bracketed(f, g, float(r), tol, lo=prev)
        evaluations += spent
        points += seen
        # the shift distance is nondecreasing in rho; enforce it on the
        # computed sequence so the bracket holds by construction
        prev = max(prev, val)
        hats[float(r)] = prev

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
        "(%d radii, %d violation evaluations, %d region points)",
        value,
        lower,
        upper,
        len(hats),
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
