from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from hypodist import Domain, Grid, Rect, build_grid, cells, locate, mesh_size, refine
from hypodist.grid import _vertex_signs, corner_bits, corner_sum, locate_batch


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain([0.0, 0.0], [1.0, 0.0])  # empty on axis 2
    with pytest.raises(ValueError):
        Domain([0.0], [np.inf])
    d = Domain([0.0, -1.0], [2.0, 3.0])
    assert d.dim == 2
    assert d.diameter() == 4.0
    assert d.contains([1.0, 0.0])
    assert not d.contains([3.0, 0.0])


def test_rect_vertices_and_signs():
    r = Rect([0.0, 0.0], [1.0, 2.0])
    vs = r.vertices
    assert vs.shape == (4, 2)
    # sign is +1 iff an even number of coordinates sit at the lower bound
    for row, sign in zip(vs, r.signs):
        n_lower = int(np.sum(row == [0.0, 0.0]))
        assert sign == (1.0 if n_lower % 2 == 0 else -1.0)
    assert np.allclose(r.centroid(), [0.5, 1.0])
    # one box type: rectangles compare and hash by value like domains
    assert Rect is Domain
    assert Rect([0.0, 0.0], [1.0, 2.0]) == r
    assert hash(Rect([0.0, 0.0], [1.0, 2.0])) == hash(r)
    g = build_grid(Domain([0.0, 0.0], [1.0, 2.0]), [3, 4])
    lower, upper = g.cell_bounds()
    assert list(cells(g)) == [Rect(lo, hi) for lo, hi in zip(lower, upper)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_corner_sum_weights_are_the_lp_signs(m):
    # the LP's distribution rows take _vertex_signs as coefficients; the
    # corner sum of each unit corner vector is that corner's weight
    assert np.array_equal(corner_sum(np.eye(2 ** m)), _vertex_signs(m))


def test_build_grid_shapes():
    g = build_grid(Domain([0.0, 0.0], [1.0, 2.0]), [3, 5])
    assert g.shape == (3, 5)
    assert g.cell_counts == (2, 4)
    assert g.n_nodes == 15
    assert g.n_cells == 8
    assert g.is_uniform()
    assert np.allclose(g.spacing(), [0.5, 0.5])
    assert mesh_size(g) == 0.5
    with pytest.raises(ValueError):
        build_grid(Domain([0.0], [1.0]), 1)


def test_node_lattice_c_order():
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), [3, 2])
    lat = g.node_lattice()
    # axis-1 index varies fastest
    assert np.allclose(lat[0], [0.0, 0.0])
    assert np.allclose(lat[1], [0.0, 1.0])
    assert np.allclose(lat[2], [0.5, 0.0])
    assert g.node_index((1, 1)) == 3


def test_cell_bounds_lexicographic():
    g = build_grid(Domain([0.0, 0.0], [2.0, 2.0]), 3)
    lower, upper = g.cell_bounds()
    assert lower.shape == (4, 2)
    assert np.allclose(lower[0], [0.0, 0.0])
    assert np.allclose(lower[1], [0.0, 1.0])
    assert np.allclose(lower[2], [1.0, 0.0])
    assert np.allclose(upper[3], [2.0, 2.0])
    rects = list(cells(g))
    assert len(rects) == 4
    assert np.allclose(rects[1].lower, [0.0, 1.0])


def test_triangles_cover_cells():
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), 3)
    tri = g.triangles()
    assert tri.shape == (8, 3)
    lat = g.node_lattice()
    # every triangle has positive area
    for t in tri:
        p = lat[t]
        area = 0.5 * abs(
            (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
            - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1])
        )
        assert area == pytest.approx(0.125)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_simplices_cover_cells_any_dimension(m):
    g = build_grid(Domain([0.0] * m, [1.0] * m), 3)
    tri = g.triangles()
    n_perm = math.factorial(m)
    assert tri.shape == (n_perm * g.n_cells, m + 1)
    lat = g.node_lattice()
    P = lat[tri]  # (simplices, m + 1, m)
    volume = np.abs(np.linalg.det(P[:, 1:] - P[:, :1])) / n_perm
    # m! simplices per cell, each spanned by that cell's corners, filling it
    cells_of = tri.reshape(g.n_cells, n_perm, m + 1)
    for corners, simplices in zip(g.cell_corners(), cells_of):
        assert np.all(np.isin(simplices, corners))
    assert np.allclose(volume.reshape(g.n_cells, n_perm).sum(axis=1), 0.5 ** m)
    # every edge offset is a nonzero row of corner_bits
    multi = np.stack(np.unravel_index(tri, g.shape), axis=-1)
    allowed = {tuple(r) for r in corner_bits(m)[1:]}
    for i, j in itertools.combinations(range(m + 1), 2):
        offsets = {tuple(r) for r in (multi[:, j] - multi[:, i])}
        assert offsets <= allowed


def test_locate_tie_rule_prefers_largest_lower_corner():
    g = build_grid(Domain([0.0], [1.0]), 5)  # nodes at 0, .25, .5, .75, 1
    idx, loc = locate(g, [0.5])
    assert idx == 2  # the cell [0.5, 0.75], not [0.25, 0.5]
    assert loc[0] == pytest.approx(0.0)
    idx, loc = locate(g, [1.0])
    assert idx == 3  # clipped into the last cell
    assert loc[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        locate(g, [1.5])


def test_locate_batch_matches_locate(rng):
    g = build_grid(Domain([0.0, 0.0], [1.0, 2.0]), [4, 7])
    pts = rng.uniform([0.0, 0.0], [1.0, 2.0], size=(40, 2))
    idx, loc = locate_batch(g, pts)
    for p, i_row, l_row in zip(pts, idx, loc):
        flat, local = locate(g, p)
        multi = np.unravel_index(flat, g.cell_counts)
        assert tuple(i_row) == multi
        assert np.allclose(l_row, local)


def test_refine_nests_bit_exactly():
    g = build_grid(Domain([0.0], [3.0]), 4)
    f = refine(g, 3)
    assert f.shape == (10,)
    assert np.all(np.isin(g.axes[0], f.axes[0]))
    same = refine(g, 1)
    assert same == g
    with pytest.raises(ValueError):
        refine(g, 0)


def test_json_round_trip_and_hash():
    g = build_grid(Domain([0.0, -1.0], [1.0, 1.0]), [3, 4])
    g2 = Grid.from_json_obj(g.to_json_obj())
    assert g2 == g
    assert g2.content_hash() == g.content_hash()
    other = build_grid(Domain([0.0, -1.0], [1.0, 1.0]), [3, 5])
    assert other.content_hash() != g.content_hash()


def test_nonuniform_grid_flags():
    dom = Domain([0.0], [1.0])
    g = Grid(dom, [np.array([0.0, 0.1, 0.5, 1.0])])
    assert not g.is_uniform()
    assert mesh_size(g) == pytest.approx(0.5)
