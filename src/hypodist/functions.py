"""Piecewise-defined functions on rectangular grids, and CDF constructions.

A grid function of order 1 stores one value per node and evaluates by
piecewise-linear interpolation on the Kuhn triangulation (the ``grid``
module states the rule), so every value is a convex combination of m + 1
node values.  Such an interpolant is componentwise nondecreasing exactly
when the node values are nondecreasing along every axis (the gradient on
each simplex is a vector of divided differences along cell edges).

A grid function of order 0 stores one value per cell and evaluates to that
constant on the half-open cell chosen by the locate tie rule (ties go to the
cell with the largest lower corner).

Distribution functions enter either analytically (uniform boxes, point
masses, mixtures, empirical distributions of a sample) or as realized grid
functions whose node values are exact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .grid import Grid, Rect, interpolation_weights, locate_batch

__all__ = [
    "GridFunction",
    "UniformBox",
    "DiracPoint",
    "Mixture",
    "EmpiricalSamples",
    "CdfSpec",
    "SampleSet",
    "realize",
    "empirical_cdf",
    "upper_envelope",
    "delta_rect",
    "cell_masses",
    "expected_value",
    "interpolation_weights",
    "resample",
    "save_grid_function",
    "load_grid_function",
]

# Tolerance used when *checking* a declared monotone flag.  Solver output is
# feasible only up to the LP tolerances, so the check cannot demand exact
# inequalities.
MONOTONE_ATOL = 1e-7

FORMAT_VERSION = 1


def _axis_increments(values: np.ndarray) -> float:
    """Most negative forward difference along any axis (0.0 for 1-node axes)."""
    worst = 0.0
    for ax in range(values.ndim):
        if values.shape[ax] >= 2:
            d = np.diff(values, axis=ax)
            if d.size:
                worst = min(worst, float(np.min(d)))
    return worst


class GridFunction:
    """Values attached to a grid: per node (order 1) or per cell (order 0)."""

    __slots__ = ("grid", "order", "values", "monotone")

    def __init__(
        self,
        grid: Grid,
        order: int,
        values: np.ndarray,
        *,
        monotone: bool = False,
    ) -> None:
        if order not in (0, 1):
            raise ValueError(f"order must be 0 or 1, got {order}")
        expected = grid.shape if order == 1 else grid.cell_counts
        vals = np.asarray(values, dtype=float)
        if vals.shape == (int(np.prod(expected)),):
            vals = vals.reshape(expected)
        if vals.shape != tuple(expected):
            raise ValueError(
                f"values shape {vals.shape} does not match the "
                f"{'node' if order == 1 else 'cell'} lattice {tuple(expected)}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        if monotone:
            worst = _axis_increments(vals)
            if worst < -MONOTONE_ATOL:
                raise ValueError(
                    f"monotone flag set but values decrease by {-worst:.3e} "
                    f"along some axis (tolerance {MONOTONE_ATOL:.0e})"
                )
        vals = vals.copy()
        vals.setflags(write=False)
        self.grid = grid
        self.order = order
        self.values = vals
        self.monotone = bool(monotone)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.eval(points)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, m) array of in-domain points (or a single point).

        Returns a length-N vector (or a scalar for a single point).
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.shape[1] != self.grid.dim:
            raise ValueError(
                f"points have {pts.shape[1]} coordinates, grid has {self.grid.dim}"
            )
        lo, hi = self.grid.domain.lower, self.grid.domain.upper
        if np.any(pts < lo - 1e-12) or np.any(pts > hi + 1e-12):
            raise ValueError("evaluation point outside the domain")
        pts = np.clip(pts, lo, hi)
        if self.order == 0:
            idx, _ = locate_batch(self.grid, pts)
            flat = np.ravel_multi_index(tuple(idx.T), self.grid.cell_counts)
            out = self.values.reshape(-1)[flat]
        else:
            out = self.interpolate(*interpolation_weights(self.grid, pts))
        return float(out[0]) if single else out

    def interpolate(self, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Order-1 values from :func:`interpolation_weights` output: the
        weighted sum of node values per point.  Functions sharing a grid
        can share one set of weights."""
        return np.einsum("nk,nk->n", self.values.reshape(-1)[nodes], weights)

    def cell_sups(self) -> np.ndarray:
        """Supremum of the function over each (closed) cell, cell-lattice shaped.

        For order 1 the interpolant is linear on every simplex of the Kuhn
        triangulation, so the cell supremum is attained at a cell corner; for
        order 0 it is the cell value.
        """
        if self.order == 0:
            return self.values.copy()
        v = self.values
        for ax in range(v.ndim):
            lead = [slice(None)] * v.ndim
            lag = [slice(None)] * v.ndim
            lead[ax] = slice(1, None)
            lag[ax] = slice(None, -1)
            v = np.maximum(v[tuple(lead)], v[tuple(lag)])
        return v

    def with_monotone_flag(self) -> "GridFunction":
        """Copy of this function with the monotone flag switched on (checked)."""
        return GridFunction(self.grid, self.order, self.values, monotone=True)

    def __repr__(self) -> str:
        return (
            f"GridFunction(order={self.order}, shape={self.values.shape}, "
            f"monotone={self.monotone})"
        )


# -- analytic distribution specs ----------------------------------------------


@dataclass(frozen=True)
class UniformBox:
    """CDF of the uniform distribution on a box [lower, upper]."""

    lower: tuple
    upper: tuple

    def __init__(self, lower: Sequence[float], upper: Sequence[float]) -> None:
        lo = tuple(float(v) for v in lower)
        hi = tuple(float(v) for v in upper)
        if len(lo) != len(hi) or not all(a < b for a, b in zip(lo, hi)):
            raise ValueError(f"uniform box needs lower < upper, got {lo}, {hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def cdf(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.array(self.lower)
        hi = np.array(self.upper)
        u = np.clip((pts - lo) / (hi - lo), 0.0, 1.0)
        return np.prod(u, axis=1)


@dataclass(frozen=True)
class DiracPoint:
    """CDF of a unit point mass: F(x) = 1 iff x >= point componentwise."""

    point: tuple

    def __init__(self, point: Sequence[float]) -> None:
        p = tuple(float(v) for v in point)
        if np.any(np.isnan(p)):
            raise ValueError(f"point mass coordinates must not be NaN, got {p}")
        object.__setattr__(self, "point", p)

    @property
    def dim(self) -> int:
        return len(self.point)

    def cdf(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        p = np.array(self.point)
        return np.all(pts >= p, axis=1).astype(float)


@dataclass(frozen=True)
class Mixture:
    """Convex combination of component CDFs."""

    components: tuple
    weights: tuple

    def __init__(self, components: Sequence["CdfSpec"], weights: Sequence[float]) -> None:
        comps = tuple(components)
        w = tuple(float(v) for v in weights)
        if len(comps) != len(w) or not comps:
            raise ValueError("mixture needs matching nonempty components/weights")
        if any(v < 0 for v in w) or abs(sum(w) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must be nonnegative and sum to 1, got {w}")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ValueError(f"mixture components disagree on dimension: {dims}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def cdf(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for c, w in zip(self.components, self.weights):
            out += w * c.cdf(pts)
        return out


@dataclass(frozen=True)
class EmpiricalSamples:
    """CDF of the empirical distribution of a finite sample."""

    points: np.ndarray

    def __init__(self, points: np.ndarray) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("empirical spec needs a nonempty (N, m) sample array")
        # a NaN coordinate lies below no node yet counts in N; an infinite
        # one is ordered and counts as it should
        if np.any(np.isnan(pts)):
            raise ValueError("sample coordinates must not be NaN")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    def cdf(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        # (N, n, m) comparison; sample sizes here stay small enough for this
        below = np.all(self.points[None, :, :] <= pts[:, None, :], axis=2)
        return below.mean(axis=1)


CdfSpec = Union[UniformBox, DiracPoint, Mixture, EmpiricalSamples]


# the sample container of ``empirical_cdf``; one type serves both roles
SampleSet = EmpiricalSamples


# -- constructions --------------------------------------------------------------


def _node_fractions(pts: np.ndarray, grid: Grid) -> np.ndarray:
    """Fraction of the (N, m) samples lying componentwise below each node.

    Each sample goes to the first node at or above it on every axis, and a
    cumulative sum along every axis then counts s <= node exactly.  A sample
    above the domain on some axis lies below no node and is dropped; a
    coordinate below the domain counts from the first node on.
    """
    pos = np.stack(
        [np.searchsorted(grid.axes[i], pts[:, i], side="left") for i in range(grid.dim)],
        axis=1,
    )
    keep = np.all(pos < grid.shape, axis=1)
    counts = np.zeros(grid.shape, dtype=np.int64)
    np.add.at(counts, tuple(pos[keep].T), 1)
    for ax in range(grid.dim):
        counts = np.cumsum(counts, axis=ax)
    return counts.astype(float) / pts.shape[0]


def realize(spec: CdfSpec, grid: Grid) -> GridFunction:
    """Order-1 grid function whose node values equal the CDF exactly.

    Between nodes the result interpolates, so it can differ from the CDF of a
    discrete distribution inside cells; at every node it is exact.  The result
    carries the monotone flag.
    """
    if spec.dim != grid.dim:
        raise ValueError(f"spec dimension {spec.dim} != grid dimension {grid.dim}")
    return GridFunction(grid, 1, _node_values(spec, grid).reshape(grid.shape),
                        monotone=True)


def _node_values(spec: CdfSpec, grid: Grid) -> np.ndarray:
    """spec's CDF at every node, C-order, equal bit for bit to
    ``spec.cdf(grid.node_lattice())``: samples go through the node counter
    and mixtures sum their components' node values in ``Mixture.cdf``'s
    order."""
    if isinstance(spec, EmpiricalSamples):
        return _node_fractions(spec.points, grid).reshape(-1)
    if isinstance(spec, Mixture):
        out = np.zeros(grid.n_nodes)
        for c, w in zip(spec.components, spec.weights):
            out += w * _node_values(c, grid)
        return out
    return spec.cdf(grid.node_lattice())


def empirical_cdf(samples: EmpiricalSamples | np.ndarray, grid: Grid) -> GridFunction:
    """Order-1 realization of the empirical CDF of an in-domain sample.

    Node values are exact counts; samples must lie inside the grid's domain.
    """
    if not isinstance(samples, EmpiricalSamples):
        samples = EmpiricalSamples(samples)
    if samples.dim != grid.dim:
        raise ValueError(f"samples have dimension {samples.dim}, grid has {grid.dim}")
    lo, hi = grid.domain.lower, grid.domain.upper
    if np.any(samples.points < lo) or np.any(samples.points > hi):
        raise ValueError("samples outside the domain; clip or enlarge the domain first")
    return realize(samples, grid)


def upper_envelope(f: GridFunction) -> GridFunction:
    """Order-0 majorant of f: each cell carries f's supremum over that cell."""
    return GridFunction(f.grid, 0, f.cell_sups(), monotone=f.monotone)


def delta_rect(f: GridFunction, rect: Rect) -> float:
    """Signed corner sum of f over a box: corners with an even count of
    lower-bound coordinates enter with +1, the rest with -1.

    For a CDF this is the probability mass of the half-open box."""
    if rect.dim != f.grid.dim:
        raise ValueError(f"rect dimension {rect.dim} != grid dimension {f.grid.dim}")
    vals = f.eval(rect.vertices)
    return float(np.dot(rect.signs.astype(float), np.atleast_1d(vals)))


def cell_masses(f: GridFunction) -> np.ndarray:
    """Signed corner sums over all grid cells at once, cell-lattice shaped
    (order 1 only); for a CDF these are the cells' probability masses."""
    if f.order != 1:
        raise ValueError("cell masses need node values (order 1)")
    mass = f.values
    for ax in range(mass.ndim):
        mass = np.diff(mass, axis=ax)
    return mass


def expected_value(f: GridFunction, *, neg_tol: float = 1e-9) -> np.ndarray:
    """Mean of the distribution induced by an order-1 CDF-like function.

    Cell masses are the signed corner sums; rounding-level negatives (down to
    ``-neg_tol``) are clipped to zero, anything worse raises.  Masses are
    renormalized and averaged against cell centroids.
    """
    mass = cell_masses(f)
    worst = float(np.min(mass)) if mass.size else 0.0
    if worst < -neg_tol:
        raise ValueError(
            f"signed corner sums go down to {worst:.3e}; the function does not "
            f"induce a distribution (tolerance {-neg_tol:.0e})"
        )
    mass = np.clip(mass, 0.0, None).reshape(-1)
    total = float(mass.sum())
    if total <= 0.0:
        raise ValueError("total mass is zero; cannot form an expected value")
    lower, upper = f.grid.cell_bounds()
    centroids = 0.5 * (lower + upper)
    return (mass[:, None] * centroids).sum(axis=0) / total


def resample(f: GridFunction, grid: Grid) -> GridFunction:
    """Re-express f on another grid over the same domain.

    Order 1 samples node values (exact whenever the new grid's nodes refine
    the old node set); order 0 copies cell values via cell centroids.  The
    monotone flag survives, since sampling a monotone function is monotone.
    """
    if grid.domain != f.grid.domain:
        raise ValueError("resample requires the same underlying domain")
    if f.order == 1:
        vals = f.eval(grid.node_lattice()).reshape(grid.shape)
        return GridFunction(grid, 1, vals, monotone=f.monotone)
    lower, upper = grid.cell_bounds()
    vals = f.eval(0.5 * (lower + upper)).reshape(grid.cell_counts)
    return GridFunction(grid, 0, vals, monotone=f.monotone)


# -- file format -----------------------------------------------------------------


def _meta_path(path: str) -> str:
    return path + ".meta.json"


def save_grid_function(f: GridFunction, path: str) -> None:
    """Write ``x1[,x2],value`` CSV rows plus a JSON sidecar.

    Rows run in C-order over the node lattice (order 1) or cell-centroid
    lattice (order 0), each carrying the point's coordinates and the value,
    using shortest round-tripping decimal strings so save/load is bit-exact.
    The sidecar ``<path>.meta.json`` records the format version, order,
    monotone flag, grid and a grid content hash.
    """
    grid = f.grid
    if f.order == 1:
        points = grid.node_lattice()
    else:
        lower, upper = grid.cell_bounds()
        points = 0.5 * (lower + upper)
    flat = f.values.reshape(-1)
    header = ",".join(f"x{i + 1}" for i in range(grid.dim)) + ",value"
    with open(path, "w") as fh:
        fh.write(header)
        fh.write("\n")
        for row, v in zip(points, flat):
            for c in row:
                fh.write(repr(float(c)))
                fh.write(",")
            fh.write(repr(float(v)))
            fh.write("\n")
    meta = {
        "format_version": FORMAT_VERSION,
        "order": f.order,
        "monotone": f.monotone,
        "grid": f.grid.to_json_obj(),
        "grid_hash": f.grid.content_hash(),
    }
    with open(_meta_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_grid_function(path: str) -> GridFunction:
    """Inverse of :func:`save_grid_function` (validates the sidecar hash)."""
    meta_path = _meta_path(path)
    if not os.path.exists(meta_path):
        raise ValueError(f"missing sidecar {meta_path}")
    with open(meta_path) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar {meta_path} is not a JSON object")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r}")
    try:
        grid = Grid.from_json_obj(meta["grid"])
        order = int(meta["order"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed sidecar {meta_path}: {exc!r}") from exc
    if meta.get("grid_hash") not in (None, grid.content_hash()):
        raise ValueError("grid hash mismatch; sidecar does not match its grid")
    expected_header = ",".join(f"x{i + 1}" for i in range(grid.dim)) + ",value"
    with open(path) as fh:
        header = fh.readline().strip()
        if header != expected_header:
            raise ValueError(
                f"unexpected CSV header {header!r}; wanted {expected_header!r}"
            )
        flat = np.array(
            [float(line.rsplit(",", 1)[1]) for line in fh if line.strip()],
            dtype=float,
        )
    return GridFunction(grid, order, flat, monotone=bool(meta.get("monotone", False)))
