"""Rectangular domains, box partitions and their triangulation.

A domain is a finite box S = [a_1, b_1] x ... x [a_m, b_m].  A grid carries
strictly increasing node coordinates per axis (first node = a_i, last = b_i)
and induces the box partition into cells [l^k, u^k], the parity-signed cell
corners used by the signed corner-sum operator, and the Kuhn triangulation
of every cell.

Corners are enumerated in one order everywhere (``corner_bits``): corner c
of a box takes the upper end on axis i when bit i of c is set, so corner 0
is the lower corner and corner 2^m - 1 the upper one.  Its sign in the
signed corner sum is +1 when an even number of its coordinates sit at a
lower end (``_vertex_signs``).

Kuhn's rule (H. W. Kuhn, "Some combinatorial lemmas in topology", IBM J.
Res. Dev. 4, 1960) cuts a cell into m! simplices, one per ordering of the
local coordinates t in [0, 1]^m.  Sort t descending, ties going to the lower
axis: t_(1) >= ... >= t_(m).  The point's simplex has the nodes l, then l
plus the cumulative node strides of the sorted axes, ending at the upper
corner; its weights are 1 - t_(1), t_(1) - t_(2), ..., t_(m)
(``interpolation_weights``, ``Grid.triangles``).  In 1-d that is the chord;
in 2-d each cell is cut along its main diagonal.  Every nonzero row of
``corner_bits`` is the node offset of some simplex edge, and no other
offset is: e_1 (and e_2), then e_1 + e_2, so the edges from node n are
n -> n + d for each such offset d (``Grid.edges``).

Everything here is immutable after construction and safe to share across
threads.  Grids serialize to a plain JSON object ``{dim, lower, upper, axes}``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Domain",
    "Grid",
    "Rect",
    "build_grid",
    "refine",
    "mesh_size",
    "cells",
    "locate",
    "corner_bits",
]


@dataclass(frozen=True)
class Domain:
    """A finite rectangular domain S = [lower_1, upper_1] x ... x [lower_m, upper_m]."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower: Sequence[float], upper: Sequence[float]) -> None:
        lo = np.asarray(lower, dtype=float).reshape(-1)
        hi = np.asarray(upper, dtype=float).reshape(-1)
        if lo.size == 0 or lo.shape != hi.shape:
            raise ValueError(
                f"lower and upper must be equal-length nonempty vectors, "
                f"got shapes {lo.shape} and {hi.shape}"
            )
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("domain bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError(f"domain needs lower < upper on every axis, got {lo} vs {hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.lower.size)

    def diameter(self) -> float:
        """Diameter of S under the max-norm."""
        return float(np.max(self.upper - self.lower))

    def contains(self, x: np.ndarray, *, atol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            return False
        return bool(np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return (
            self.lower.shape == other.lower.shape
            and bool(np.all(self.lower == other.lower))
            and bool(np.all(self.upper == other.upper))
        )

    def __hash__(self) -> int:
        return hash((self.lower.tobytes(), self.upper.tobytes()))


def lattice(coords: Sequence[np.ndarray]) -> np.ndarray:
    """Every point of the product of per-axis coordinates, shape (N, m),
    C-order (the last axis varies fastest)."""
    mesh = np.meshgrid(*coords, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def corner_bits(dim: int) -> np.ndarray:
    """(2^m, m) 0/1 array: row c has bit i of c in column i, 1 selecting the
    upper end on axis i (module docstring)."""
    return (np.arange(2 ** dim)[:, None] >> np.arange(dim)) & 1


def _vertex_signs(dim: int) -> np.ndarray:
    """Signs of the 2^m corners of a box in ``corner_bits`` order: +1 exactly
    when the number of coordinates sitting at a lower bound is even."""
    n_lower = dim - corner_bits(dim).sum(axis=1)
    return np.where(n_lower % 2 == 0, 1, -1)


@dataclass(frozen=True)
class Rect:
    """One closed box [lower, upper] with parity-signed corners.

    ``vertices`` has shape (2^m, m), in ``corner_bits`` order: row j is the
    corner whose axis-i coordinate is ``upper[i]`` when bit i of j is set,
    else ``lower[i]``.
    ``signs[j]`` is +1 when the count of coordinates of row j equal to a lower
    bound is even, -1 otherwise; the signs always sum to zero.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower: Sequence[float], upper: Sequence[float]) -> None:
        lo = np.asarray(lower, dtype=float).reshape(-1)
        hi = np.asarray(upper, dtype=float).reshape(-1)
        if lo.shape != hi.shape or lo.size == 0:
            raise ValueError("Rect needs equal-length lower/upper vectors")
        if not np.all(lo < hi):
            raise ValueError(f"Rect needs lower < upper componentwise, got {lo} vs {hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.lower.size)

    @property
    def vertices(self) -> np.ndarray:
        return np.where(corner_bits(self.dim) == 1, self.upper, self.lower)

    @property
    def signs(self) -> np.ndarray:
        return _vertex_signs(self.dim)

    def centroid(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


class Grid:
    """Node coordinates per axis over a rectangular domain.

    Attributes:
        domain: the underlying box.
        axes: tuple of strictly increasing per-axis node arrays; axes[i][0] and
            axes[i][-1] equal the domain bounds.
        shape: nodes per axis.
        cell_counts: cells per axis (shape minus one).
        strides: flat C-order index step of one node along each axis.
    """

    __slots__ = ("domain", "axes", "shape", "cell_counts", "strides", "_hash")

    def __init__(self, domain: Domain, axes: Sequence[Sequence[float]]) -> None:
        if len(axes) != domain.dim:
            raise ValueError(f"expected {domain.dim} axes, got {len(axes)}")
        ax_arrays = []
        for i, a in enumerate(axes):
            arr = np.asarray(a, dtype=float).reshape(-1)
            if arr.size < 2:
                raise ValueError(f"axis {i} needs at least 2 nodes, got {arr.size}")
            if not np.all(np.diff(arr) > 0):
                raise ValueError(f"axis {i} coordinates must be strictly increasing")
            if arr[0] != domain.lower[i] or arr[-1] != domain.upper[i]:
                raise ValueError(
                    f"axis {i} must span [{domain.lower[i]}, {domain.upper[i]}], "
                    f"got [{arr[0]}, {arr[-1]}]"
                )
            arr.setflags(write=False)
            ax_arrays.append(arr)
        self.domain = domain
        self.axes = tuple(ax_arrays)
        self.shape = tuple(int(a.size) for a in self.axes)
        self.cell_counts = tuple(n - 1 for n in self.shape)
        self.strides = tuple(int(np.prod(self.shape[i + 1:]))
                             for i in range(domain.dim))
        self._hash: str | None = None

    # -- basic geometry -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cell_counts))

    def is_uniform(self, *, rtol: float = 1e-12) -> bool:
        """True when every axis has (numerically) constant spacing."""
        for a in self.axes:
            d = np.diff(a)
            if np.max(d) - np.min(d) > rtol * max(np.max(np.abs(a)), 1.0):
                return False
        return True

    def spacing(self) -> np.ndarray:
        """Per-axis spacing for uniform grids (mean spacing otherwise)."""
        return np.array([float(np.mean(np.diff(a))) for a in self.axes])

    def node_lattice(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, m), C-order over the lattice."""
        return lattice(self.axes)

    def lower_face_mask(self) -> np.ndarray:
        """Boolean (n_nodes,) mask, C-order, of the nodes on a face through
        the domain's lower corner (some coordinate at its lower bound)."""
        return np.any(self.node_lattice() == self.domain.lower, axis=1)

    def node_index(self, multi: Sequence[int]) -> int:
        """Flat C-order index of a node from its per-axis indices."""
        return int(np.ravel_multi_index(tuple(int(i) for i in multi), self.shape))

    def cell_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corner arrays of all cells, each (n_cells, m),
        enumerated lexicographically (C-order over the cell lattice)."""
        lower = lattice([a[:-1] for a in self.axes])
        return lower, lattice([a[1:] for a in self.axes])

    def cell_corners(self) -> np.ndarray:
        """Flat node indices of the corners of all cells, shape
        (n_cells, 2^m): cells in C-order, corners in ``corner_bits`` order."""
        m = self.dim
        flat = np.arange(self.n_nodes).reshape(self.shape)
        return flat[(slice(None, -1),) * m].reshape(-1, 1) + corner_bits(m) @ self.strides

    def edges(self, offset: np.ndarray) -> tuple[tuple, tuple, np.ndarray]:
        """The edges n -> n + offset for one 0/1 ``offset`` (a nonzero row of
        ``corner_bits``): slices selecting their lower and their upper ends
        from a node-shaped array, and their max-norm lengths, shaped like
        those selections."""
        lower = tuple(slice(None, -1) if d else slice(None) for d in offset)
        upper = tuple(slice(1, None) if d else slice(None) for d in offset)
        length = np.zeros([n - d for n, d in zip(self.shape, offset)])
        for i, (a, d) in enumerate(zip(self.axes, offset)):
            if d:
                h = np.diff(a).reshape([-1 if k == i else 1 for k in range(self.dim)])
                length = np.maximum(length, h)
        return lower, upper, length

    # -- triangulation ------------------------------------------------------

    def triangles(self) -> np.ndarray:
        """Simplex -> flat node index table of the Kuhn triangulation, shape
        (m! * n_cells, m + 1).  Cells run in C-order; each contributes one
        simplex per axis permutation p, in ``itertools.permutations`` order,
        whose vertex k is corner sum(2**p[i] for i < k).  For m = 2 that is
        the triangle below the main diagonal, then the one above it.
        """
        table = [np.cumsum([0] + [2 ** i for i in p])
                 for p in itertools.permutations(range(self.dim))]
        return self.cell_corners()[:, table].reshape(-1, self.dim + 1)

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "lower": [float(v) for v in self.domain.lower],
            "upper": [float(v) for v in self.domain.upper],
            "axes": [[float(v) for v in a] for a in self.axes],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Grid":
        try:
            dim = int(obj["dim"])
            lower, upper, axes = obj["lower"], obj["upper"], obj["axes"]
            if len(lower) != dim or len(axes) != dim:
                raise ValueError("grid object dim does not match its arrays")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed grid object: {exc}") from exc
        return cls(Domain(lower, upper), axes)

    def content_hash(self) -> str:
        """Stable hex digest of the exact axis coordinates."""
        if self._hash is None:
            payload = json.dumps(
                [[repr(float(v)) for v in a] for a in self.axes],
                separators=(",", ":"),
            ).encode()
            self._hash = hashlib.sha256(payload).hexdigest()
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.domain == other.domain and all(
            a.size == b.size and bool(np.all(a == b))
            for a, b in zip(self.axes, other.axes)
        )

    def __repr__(self) -> str:
        return f"Grid(dim={self.dim}, shape={self.shape})"


def build_grid(domain: Domain, nodes_per_axis: int | Sequence[int]) -> Grid:
    """Uniform grid with the given node count per axis.

    ``nodes_per_axis`` may be a single integer (applied to every axis) or one
    integer per axis; each must be >= 2.  The resulting cell count per axis is
    nodes - 1.
    """
    if np.isscalar(nodes_per_axis):
        counts = [int(nodes_per_axis)] * domain.dim
    else:
        counts = [int(n) for n in nodes_per_axis]
        if len(counts) != domain.dim:
            raise ValueError(
                f"expected {domain.dim} node counts, got {len(counts)}"
            )
    for n in counts:
        if n < 2:
            raise ValueError(f"every axis needs at least 2 nodes, got {n}")
    axes = [
        np.linspace(domain.lower[i], domain.upper[i], counts[i])
        for i in range(domain.dim)
    ]
    # linspace guarantees exact endpoints
    return Grid(domain, axes)


def refine(grid: Grid, factor: int) -> Grid:
    """Split every cell into ``factor`` equal parts per axis.

    The input node set is a subset of the output node set, and the mesh size
    divides by ``factor`` exactly (up to floating-point rounding of interior
    points).
    """
    factor = int(factor)
    if factor < 1:
        raise ValueError(f"refinement factor must be >= 1, got {factor}")
    if factor == 1:
        return Grid(grid.domain, [a.copy() for a in grid.axes])
    new_axes = []
    for a in grid.axes:
        pieces = [a[:1]]
        for left, right in zip(a[:-1], a[1:]):
            # keep original nodes bit-exact; only interior points are new
            interior = left + (right - left) * np.arange(1, factor) / factor
            pieces.append(interior)
            pieces.append(np.array([right]))
        new_axes.append(np.concatenate(pieces))
    return Grid(grid.domain, new_axes)


def mesh_size(grid: Grid) -> float:
    """Largest cell edge over all cells and axes."""
    return float(max(np.max(np.diff(a)) for a in grid.axes))


def cells(grid: Grid) -> Iterator[Rect]:
    """Lexicographic enumeration of the partition cells as signed Rects."""
    lower, upper = grid.cell_bounds()
    for k in range(lower.shape[0]):
        yield Rect(lower[k], upper[k])


def locate(grid: Grid, x: Sequence[float]) -> tuple[int, np.ndarray]:
    """Cell containing x, with normalized local coordinates in [0, 1]^m.

    On shared faces the tie goes to the cell with the largest lower corner
    (so a node's local coordinate is 0 wherever possible); the last cell is
    used at the upper domain boundary.  Points outside S raise ValueError.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != grid.dim:
        raise ValueError(f"point has {x.size} coordinates, grid has {grid.dim}")
    if not grid.domain.contains(x):
        raise ValueError(f"point {x} is outside the domain")
    idx, loc = locate_batch(grid, x)
    flat = int(np.ravel_multi_index(tuple(idx[0]), grid.cell_counts))
    return flat, loc[0]


def locate_batch(grid: Grid, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`locate` for an (N, m) array of in-domain points.

    No domain check is performed here; callers must pre-clip.  Returns
    per-axis cell indices (N, m) and local coordinates (N, m).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    n, m = points.shape
    # (m, N) buffers, returned transposed: every column that the loop
    # below writes and the callers read is contiguous
    idx = np.empty((m, n), dtype=np.int64)
    loc = np.empty((m, n), dtype=float)
    for i, a in enumerate(grid.axes):
        k = idx[i]
        np.subtract(np.searchsorted(a, points[:, i], side="right"), 1, out=k)
        np.minimum(k, a.size - 2, out=k)
        np.maximum(k, 0, out=k)
        np.subtract(points[:, i], a[k], out=loc[i])
        loc[i] /= np.diff(a)[k]
    return idx.T, loc.T


def interpolation_weights(grid: Grid, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat node indices and convex weights of order-1 evaluation by
    Kuhn's rule (module docstring) at an (N, m) array of in-domain points.

    Returns (nodes, weights), both (N, m + 1); evaluation is the weighted
    sum of node values.
    """
    idx, loc = locate_batch(grid, points)
    n, m = loc.shape
    t, step = list(loc.T), list(grid.strides)
    # a stable compare-exchange network sorts t descending, ties kept in
    # axis order, and carries each axis's node stride along with its t
    for end in range(m - 1, 0, -1):
        for k in range(end):
            up = t[k + 1] > t[k]
            t[k], t[k + 1] = np.maximum(t[k], t[k + 1]), np.minimum(t[k], t[k + 1])
            step[k], step[k + 1] = (np.where(up, step[k + 1], step[k]),
                                    np.where(up, step[k], step[k + 1]))
    nodes = np.empty((n, m + 1), dtype=np.int64)
    nodes[:, 0] = idx[:, -1]  # the last axis has stride 1
    for i in range(m - 1):
        nodes[:, 0] += idx[:, i] * grid.strides[i]
    for k in range(m):
        np.add(nodes[:, k], step[k], out=nodes[:, k + 1])
    weights = np.empty((n, m + 1))
    levels = [1.0, *t, 0.0]
    for k in range(m + 1):
        np.subtract(levels[k], levels[k + 1], out=weights[:, k])
    return nodes, weights
