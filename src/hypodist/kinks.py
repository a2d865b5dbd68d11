"""Vertices of the kink arrangement of the shift condition's violation.

For order-1 f and g on one grid, both directions of the violation (metrics
module) are linear on each piece of an arrangement of hyperplanes in the
region [lo, hi], so their sup is attained where m of them meet.  On a
per-axis uniform grid, with u_i = (x_i - a_i) / h_i, the hyperplanes are
the candidate planes x_i = c (``candidates``: the nodes, the nodes pulled
back by eta and the region's bounds), the Kuhn split planes u_i - u_j = k
(grid module) at shift 0 and pulled back by eta (``global_kinks``), and per
simplex the level plane {h = rho}, where the cap min(h, rho) kinks
(``level_kinks``).  Only the offsets of the pulled-back planes depend on
eta; the rest, with the inverse normals of every m-subset of planes, is set
up once per radius, and an evaluation builds right-hand sides and
multiplies.  m is at most 3.  No matrix is inverted by ``np.linalg``: its
first call in a process starts LAPACK, which raises the peak memory by
about 0.7 MB.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .functions import GridFunction
from .grid import Grid


def candidates(
    grid: Grid, lo: np.ndarray, hi: np.ndarray, eta: float
) -> list[np.ndarray]:
    """Per-axis candidates at shift eta in the region [lo, hi]."""
    out = []
    for i, axis in enumerate(grid.axes):
        cand = np.concatenate([axis, axis - eta, [lo[i], hi[i]]])
        out.append(np.unique(np.clip(cand, lo[i], hi[i])))
    return out


def _member(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each value is an entry of the sorted ``table``."""
    return table[np.minimum(np.searchsorted(table, values), table.size - 1)] == values


def _inverse(A: np.ndarray, tiny: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack of m x m matrices, m <= 3, and whether each is
    regular: |det| > tiny times the product of its rows' norms (a singular
    one gets its adjugate).  Padded to 3 x 3 with the identity, a matrix's
    cofactor rows are the cross products of its cyclically next rows."""
    m = A.shape[-1]
    R = np.broadcast_to(np.eye(3), A.shape[:-2] + (3, 3)).copy()
    R[..., :m, :m] = A
    cof = np.cross(np.roll(R, -1, axis=-2), np.roll(R, -2, axis=-2))
    det = np.sum(R[..., 0, :] * cof[..., 0, :], axis=-1)
    ok = np.abs(det) > tiny * np.prod(np.sqrt(np.sum(A * A, axis=-1)), axis=-1)
    return np.swapaxes(cof, -1, -2)[..., :m, :m] / np.where(ok, det, 1.0)[..., None, None], ok


def barycentric(P: np.ndarray) -> np.ndarray:
    """B with [y, 1] @ B = the barycentric coordinates of y in each simplex
    of ``Grid.triangles()``, vertices P (T, m + 1, m).  Its steps D_k from
    vertex k - 1 to vertex k run along distinct axes, so y - P_0 = sum mu_k
    D_k with mu_k = (y - P_0) . D_k / |D_k|^2, and lambda_k = mu_k -
    mu_(k+1), with mu_0 = 1 and mu_(m+1) = 0."""
    D = np.diff(P, axis=1)
    m = D.shape[2]
    W = np.swapaxes(D, 1, 2) / np.sum(D * D, axis=2)[:, None] @ (
        np.eye(m, m + 1, 1) - np.eye(m, m + 1))
    return np.concatenate([W, np.eye(1, m + 1) - P[:, :1] @ W], axis=1)


@lru_cache(maxsize=None)
def _global_planes(m: int) -> tuple[np.ndarray, ...]:
    """The axis pairs; every m of the global families of ``global_kinks``
    whose normals in u, e_i and e_i - e_j, are independent; their inverses,
    integer since the normals are rows of a network matrix; and the axes
    that their split planes at shift 0, and pulled back, end on."""
    ii, jj = np.triu_indices(m, 1)
    eye = np.eye(m)
    normals = np.concatenate([eye, eye[ii] - eye[jj], eye[ii] - eye[jj]])
    subsets = np.array(list(itertools.combinations(range(len(normals)), m)))
    inv, ok = _inverse(normals[subsets], 0.0)
    subsets, inv = subsets[ok], inv[ok]
    kind = np.repeat([-1, 0, 1], [m, ii.size, ii.size])[subsets][:, None]
    touch = (normals[subsets] != 0)[:, None] & (kind == [[0], [1]])[..., None]
    return ii, jj, subsets, inv, np.any(touch, axis=2)


def global_kinks(
    grid: Grid, lo: np.ndarray, hi: np.ndarray
) -> Callable[[float], np.ndarray]:
    """eta -> the points where m global planes meet, for every m families
    with independent normals: the candidate planes per axis, then the split
    planes per axis pair at shift 0 and pulled back, x_i / h_i - x_j / h_j =
    const, for the k whose plane meets the region where x + shift stays in
    S.  Past b_i the shifted factor no longer moves with x_i, so points
    count only there.  A split plane at shift s through a candidate on a
    node pulled back by s meets the other axis's candidates there, so such
    candidates are left out of its subsets."""
    m = grid.dim
    a, b, h = grid.domain.lower, grid.domain.upper, grid.spacing()
    ii, jj, subsets, inv, ends = _global_planes(m)
    # in x: exactly the identity for the candidate planes alone
    inv = h[:, None] * inv / np.concatenate([h, np.ones(2 * ii.size)])[subsets][:, None]
    top = b + 1e-9 * h

    def kinks(eta: float) -> np.ndarray:
        cands = candidates(grid, lo, hi, eta)
        marks = [(_member(c, ax), _member(c, ax - eta) | (c + eta > t))
                 for c, ax, t in zip(cands, grid.axes, top)]
        offsets = [None] * m
        for shift in (0.0, eta):
            w_lo, w_hi = (lo + shift - a) / h, (np.minimum(hi + shift, b) - a) / h
            offsets += [np.arange(math.ceil(w_lo[i] - w_hi[j] - 1e-9),
                                  math.floor(w_hi[i] - w_lo[j] + 1e-9) + 1)
                        + (a[i] - shift) / h[i] - (a[j] - shift) / h[j]
                        for i, j in zip(ii, jj)]
        chunks = []
        for s, inv_s, (at_zero, pulled) in zip(subsets, inv, ends):
            pts = 0.0  # the product of the offsets, mapped by the inverse
            for n, fam in enumerate(s):
                off = offsets[fam]
                if fam < m:
                    node, moved = marks[fam]
                    off = cands[fam][~(at_zero[fam] & node) & ~(pulled[fam] & moved)]
                pts = pts + off.reshape((1,) * n + (-1,) + (1,) * (m - n)) * inv_s[:, n]
            pts = pts.reshape(-1, m)
            chunks.append(pts[np.all(pts[:, pulled] + eta <= top[pulled], axis=1)])
        return np.concatenate(chunks)

    return kinks


def level_kinks(
    h: GridFunction, rho: float, lo: np.ndarray, hi: np.ndarray
) -> Callable[[float], np.ndarray]:
    """eta -> the points where the level plane {h = rho} of a simplex meets
    m - 1 of the planes that can cut the simplex, kept inside it.  The
    simplices are those of ``Grid.triangles()`` in cells that meet the
    region, with h above rho at one vertex and below it at another.  The
    planes are the simplex's m + 1 facets, the candidates strictly inside
    its cell (at most a pulled-back node, lo_i and hi_i per axis), and per
    axis pair the pulled-back split plane strictly inside its range of
    u_i - u_j, which has length 1."""
    grid = h.grid
    m = grid.dim
    a, step = grid.domain.lower, grid.spacing()
    ii, jj = np.triu_indices(m, 1)
    tri = grid.triangles()
    P = grid.node_lattice()[tri]  # (T, m + 1, m): vertex 0 is the cell's lower corner
    val = h.values.reshape(-1)[tri]
    keep = (val.min(axis=1) < rho) & (val.max(axis=1) > rho)
    keep &= np.all(P[:, 0] <= hi, axis=1) & np.all(P[:, m] >= lo, axis=1)
    P, val = P[keep], val[keep]
    n_t, eye = P.shape[0], np.eye(m)
    # rows [normal, offset]: the level plane, the facets, three candidate
    # slots per axis and the pulled-back split planes; the offsets of the
    # last two are set per shift
    normals = np.concatenate([np.zeros((m + 2, m)), np.repeat(eye, 3, axis=0),
                              eye[ii] / step[ii, None] - eye[jj] / step[jj, None]])
    planes = np.pad(normals, [(0, 0), (0, 1)])[None].repeat(n_t, axis=0)
    # facet k is B[:, k] . [y, 1] = 0, and the level plane is
    # (B[:m] @ val) . y = rho - B[m] . val
    B = barycentric(P)
    planes[:, 0, :m] = (B[:, :m] @ val[..., None])[..., 0]
    planes[:, 0, m] = rho - np.sum(B[:, m] * val, axis=1)
    planes[:, 1:m + 2] = np.swapaxes(B * np.append(np.ones(m), -1.0)[:, None], 1, 2)
    u = np.rint((P - a) / step)
    d_lo = np.min(u[..., ii] - u[..., jj], axis=1)
    partners = itertools.combinations(range(1, len(normals)), m - 1)
    subsets = np.array([(0, *s) for s in partners])
    inv, ok = _inverse(planes[:, subsets, :m], 1e-12)  # (T, S, m, m)

    def kinks(eta: float) -> np.ndarray:
        rhs, present = planes[..., m].copy(), np.ones(planes.shape[:2], dtype=bool)
        for i, c in enumerate(candidates(grid, lo, hi, eta)):
            slot = np.searchsorted(c, P[:, 0, i], side="right")[:, None] + np.arange(3)
            rhs[:, m + 2 + 3 * i:m + 5 + 3 * i] = c[np.minimum(slot, c.size - 1)]
            present[:, m + 2 + 3 * i:m + 5 + 3 * i] = (
                slot < np.searchsorted(c, P[:, m, i])[:, None])
        # u_i - u_j = k - e pulled back, strictly inside (d_lo, d_lo + 1)
        e = eta / step[ii] - eta / step[jj]
        k = np.floor(d_lo + e) + 1
        rhs[:, 4 * m + 2:] = k - e + a[ii] / step[ii] - a[jj] / step[jj]
        present[:, 4 * m + 2:] = k - e < d_lo + 1
        pts = (inv @ rhs[:, subsets][..., None])[..., 0]  # (T, S, m)
        good = ok & np.all(present[:, subsets], axis=2)
        good &= np.all(pts @ B[:, :m] + B[:, None, m] >= -1e-9, axis=2)
        return pts[good]

    return kinks
