from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodist import (
    DiracPoint,
    Domain,
    EmpiricalSamples,
    Grid,
    GridFunction,
    Mixture,
    Rect,
    SampleSet,
    UniformBox,
    build_grid,
    delta_rect,
    empirical_cdf,
    expected_value,
    load_grid_function,
    realize,
    refine,
    resample,
    save_grid_function,
    upper_envelope,
)
from hypodist.functions import interpolation_weights
from hypodist.grid import corner_bits, locate_batch


def test_grid_function_validation(unit_interval_grid):
    g = unit_interval_grid
    with pytest.raises(ValueError):
        GridFunction(g, 1, np.zeros(5))  # wrong length
    with pytest.raises(ValueError):
        GridFunction(g, 1, [0.0] * 10 + [np.nan])
    decr = np.linspace(1.0, 0.0, 11)
    with pytest.raises(ValueError):
        GridFunction(g, 1, decr, monotone=True)
    f = GridFunction(g, 1, np.linspace(0, 1, 11))
    assert not f.monotone
    assert f.with_monotone_flag().monotone


def test_realize_exact_at_nodes():
    dom = Domain([0.0, 0.0], [2.0, 2.0])
    g = build_grid(dom, 5)
    spec = UniformBox([0.0, 0.0], [1.0, 1.0])
    f = realize(spec, g)
    assert f.order == 1 and f.monotone
    lat = g.node_lattice()
    assert np.allclose(f.eval(lat), spec.cdf(lat))


def test_interpolation_1d_linear_between_nodes():
    g = build_grid(Domain([0.0], [1.0]), 3)
    f = GridFunction(g, 1, [0.0, 0.2, 1.0])
    assert f([0.25]) == pytest.approx(0.1)
    assert f([0.75]) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        f([1.5])


def test_interpolation_2d_triangle_split():
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), 2)
    # corners: ll=0, lr=0.4 (x1 grows), ul=0.6, ur=1
    f = GridFunction(g, 1, [[0.0, 0.6], [0.4, 1.0]])
    # lower triangle (t2 <= t1): v = ll(1-t1) + lr(t1-t2) + ur*t2
    assert f([0.5, 0.25]) == pytest.approx(0.0 * 0.5 + 0.4 * 0.25 + 1.0 * 0.25)
    # upper triangle (t2 > t1): v = ll(1-t2) + ul(t2-t1) + ur*t1
    assert f([0.25, 0.5]) == pytest.approx(0.0 * 0.5 + 0.6 * 0.25 + 1.0 * 0.25)
    # the diagonal agrees from both sides
    assert f([0.5, 0.5]) == pytest.approx(0.5)


def test_empirical_cdf_matches_sample_spec():
    dom = Domain([0.0, 0.0], [1.0, 1.0])
    g = build_grid(dom, 6)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    via_scatter = empirical_cdf(SampleSet(pts), g)
    via_spec = realize(EmpiricalSamples(pts), g)
    assert np.allclose(via_scatter.values, via_spec.values)
    # both routes share one counter; the pointwise definition is independent
    pointwise = EmpiricalSamples(pts).cdf(g.node_lattice())
    assert np.array_equal(via_scatter.values.reshape(-1), pointwise)
    assert via_scatter.monotone
    with pytest.raises(ValueError):
        empirical_cdf(SampleSet(np.array([[2.0, 0.5]])), g)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 2), nodes=st.integers(2, 6))
def test_realized_samples_match_pointwise_cdf(data, dim, nodes):
    # samples on nodes, inside cells, outside the domain on either side of
    # some axis, and at infinity: the node counter must agree bit for bit
    # with the pointwise definition
    g = build_grid(Domain([0.0] * dim, [1.0] * dim), nodes)
    coord = st.one_of(
        st.sampled_from(g.axes[0].tolist()),
        st.floats(-1.0, 2.0),
        st.sampled_from([-np.inf, np.inf]),
    )
    pts = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                             min_size=1, max_size=20))
    spec = EmpiricalSamples(np.array(pts))
    f = realize(spec, g)
    assert np.array_equal(f.values.reshape(-1), spec.cdf(g.node_lattice()))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim=st.integers(1, 2), nodes=st.integers(2, 6))
def test_realized_mixture_matches_pointwise_cdf(data, dim, nodes):
    # nested mixtures whose sample components lie inside and outside the
    # domain: realize must agree bit for bit with Mixture.cdf at the nodes
    g = build_grid(Domain([0.0] * dim, [1.0] * dim), nodes)
    coord = st.one_of(st.sampled_from(g.axes[0].tolist()), st.floats(-1.0, 2.0))

    def spec(depth):
        kind = data.draw(st.sampled_from(
            ["samples", "box", "dirac"] + (["mixture"] if depth < 2 else [])))
        if kind == "samples":
            pts = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                     min_size=1, max_size=12))
            return EmpiricalSamples(np.array(pts))
        if kind == "box":
            return UniformBox([0.25] * dim, [0.75] * dim)
        if kind == "dirac":
            return DiracPoint([data.draw(coord) for _ in range(dim)])
        parts = [spec(depth + 1) for _ in range(data.draw(st.integers(1, 3)))]
        k = np.array([data.draw(st.integers(1, 5)) for _ in parts], dtype=float)
        return Mixture(parts, k / k.sum())

    mix = Mixture([spec(1), spec(0)], [0.375, 0.625])
    f = realize(mix, g)
    assert np.array_equal(f.values.reshape(-1), mix.cdf(g.node_lattice()))


def test_mixture_and_dirac():
    dom = Domain([0.0], [1.0])
    g = build_grid(dom, 5)
    mix = Mixture((DiracPoint([0.5]), UniformBox([0.0], [1.0])), (0.25, 0.75))
    f = realize(mix, g)
    assert f([0.0]) == pytest.approx(0.0)
    assert f([1.0]) == pytest.approx(1.0)
    assert f([0.5]) == pytest.approx(0.25 + 0.75 * 0.5)
    with pytest.raises(ValueError):
        Mixture((DiracPoint([0.5]),), (0.5,))  # weights must sum to 1


def test_upper_envelope_dominates():
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), 4)
    f = realize(UniformBox([0.0, 0.0], [1.0, 1.0]), g)
    env = upper_envelope(f)
    assert env.order == 0
    lower, upper = g.cell_bounds()
    mids = 0.5 * (lower + upper)
    assert np.all(env.eval(mids) >= f.eval(mids) - 1e-12)
    # cell sup of a monotone function is its upper-corner value
    assert np.allclose(env.eval(mids), f.eval(upper))


def test_delta_rect_signed_corner_sum():
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), 3)
    f = realize(UniformBox([0.0, 0.0], [1.0, 1.0]), g)
    r = Rect([0.0, 0.0], [0.5, 1.0])
    assert delta_rect(f, r) == pytest.approx(0.5)  # the box's probability mass
    assert delta_rect(f, Rect([0.5, 0.5], [1.0, 1.0])) == pytest.approx(0.25)


def test_expected_value_of_product_uniform():
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), 9)
    f = realize(UniformBox([0.0, 0.0], [1.0, 1.0]), g)
    assert np.allclose(expected_value(f), [0.5, 0.5])
    bad = GridFunction(g, 1, np.zeros(g.shape))
    with pytest.raises(ValueError):
        expected_value(bad)  # no mass at all


def test_save_load_round_trip(tmp_path, rng, unit_square_grid):
    from tests.conftest import random_monotone

    f = random_monotone(rng, unit_square_grid)
    path = str(tmp_path / "f.csv")
    save_grid_function(f, path)
    g = load_grid_function(path)
    assert g.grid == f.grid
    assert g.order == f.order
    assert g.monotone == f.monotone
    assert np.array_equal(g.values, f.values)  # bit-exact
    assert Path(path).read_text().splitlines()[0] == "x1,x2,value"


def test_load_rejects_mismatched_sidecar(tmp_path, unit_interval_grid):
    f = GridFunction(unit_interval_grid, 1, np.linspace(0, 1, 11), monotone=True)
    path = str(tmp_path / "f.csv")
    save_grid_function(f, path)
    meta = Path(path + ".meta.json")
    meta.write_text(meta.read_text().replace('"format_version": 1',
                                             '"format_version": 99'))
    with pytest.raises(ValueError):
        load_grid_function(path)


def test_resample_exact_on_refinement():
    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), 4)
    f = realize(UniformBox([0.0, 0.0], [1.0, 1.0]), g)
    fine = refine(g, 3)
    rf = resample(f, fine)
    # piecewise-linear interpolant evaluated at nested nodes, then again on
    # the source grid nodes: values at original nodes must be unchanged
    back = resample(rf, g)
    assert np.allclose(back.values, f.values, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.05, 0.45),
    b=st.floats(0.55, 0.95),
    x=st.floats(0.0, 1.0),
)
def test_uniform_box_cdf_clip_property(a, b, x):
    spec = UniformBox([a], [b])
    val = float(spec.cdf(np.array([[x]]))[0])
    want = min(max((x - a) / (b - a), 0.0), 1.0)
    assert val == pytest.approx(want, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_interpolant_within_corner_range(seed):
    rng = np.random.default_rng(seed)
    from tests.conftest import random_monotone

    g = build_grid(Domain([0.0, 0.0], [1.0, 1.0]), 4)
    f = random_monotone(rng, g)
    pts = rng.uniform(0.0, 1.0, size=(20, 2))
    vals = np.atleast_1d(f.eval(pts))
    assert np.all(vals >= np.min(f.values) - 1e-12)
    assert np.all(vals <= np.max(f.values) + 1e-12)
    # monotone along a random ray
    t = np.sort(rng.uniform(0.0, 1.0, size=10))
    ray = np.outer(t, [1.0, 1.0])
    rv = np.atleast_1d(f.eval(ray))
    assert np.all(np.diff(rv) >= -1e-12)


def _random_axes_grid(rng, m):
    """Grid with random non-uniform node spacings, multiples of 1/8."""
    axes = [np.concatenate([[0.0], np.cumsum(rng.integers(1, 8, c) / 8)])
            for c in (5, 3, 4)[:m]]
    return Grid(Domain([0.0] * m, [a[-1] for a in axes]), axes)


def _kuhn_test_points(rng, grid):
    """Random points, every node, and points on cell diagonals, where all
    or two local coordinates tie exactly (multiples of 1/16 on dyadic
    spacings)."""
    m = grid.dim
    lower, upper = grid.cell_bounds()
    k = rng.integers(0, grid.n_cells, 400)
    t = rng.integers(0, 17, (400, m)) / 16
    t[:200] = t[:200, :1]  # all coordinates tie
    rows, pair = np.arange(200, 400), rng.integers(0, m, (200, 2))
    t[rows, pair[:, 1]] = t[rows, pair[:, 0]]  # one pair ties
    on_diagonals = lower[k] + t * (upper[k] - lower[k])
    inside = rng.uniform(grid.domain.lower, grid.domain.upper, (400, m))
    return np.concatenate([inside, grid.node_lattice(), on_diagonals])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kuhn_rule_properties(rng, m):
    grid = _random_axes_grid(rng, m)
    pts = _kuhn_test_points(rng, grid)
    nodes, w = interpolation_weights(grid, pts)
    assert nodes.shape == w.shape == (pts.shape[0], m + 1)
    assert nodes.dtype == np.int64 and w.dtype == float
    assert np.all(w >= 0.0)
    assert np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    lat = grid.node_lattice()
    assert np.allclose(np.einsum("nk,nki->ni", w, lat[nodes]), pts, rtol=0, atol=1e-12)
    c = rng.normal(size=m)
    affine = GridFunction(grid, 1, lat @ c + 0.3)
    assert np.allclose(affine.eval(pts), pts @ c + 0.3, rtol=0, atol=1e-12)
    # a chain from the containing cell's lower corner, one axis step at a
    # time, taken in order of descending local coordinate, ties to the
    # lower axis
    idx, loc = locate_batch(grid, pts)
    interior_ties = np.all(loc == loc[:, :1], axis=1) & (loc[:, 0] > 0) & (loc[:, 0] < 1)
    assert np.count_nonzero(interior_ties) >= 100
    multi = np.stack(np.unravel_index(nodes, grid.shape), axis=-1)
    assert np.array_equal(multi[:, 0], idx)
    steps = np.diff(multi, axis=1)
    assert {tuple(r) for r in steps.reshape(-1, m)} <= {tuple(r) for r in corner_bits(m)}
    assert np.array_equal(steps.sum(axis=1), np.ones((pts.shape[0], m), dtype=int))
    order = np.argsort(-loc, axis=1, kind="stable")
    assert np.array_equal(np.argmax(steps, axis=2), order)


def _two_triangle_weights(grid, pts):
    """The 1-d chord and the 2-d two-triangle formulas, written out."""
    idx, loc = locate_batch(grid, pts)
    if grid.dim == 1:
        base, t = idx[:, 0], loc[:, 0]
        return np.stack([base, base + 1], axis=1), np.stack([1.0 - t, t], axis=1)
    n2 = grid.shape[1]
    ll = idx[:, 0] * n2 + idx[:, 1]
    t1, t2 = loc[:, 0], loc[:, 1]
    mid = np.where(t2 <= t1, ll + n2, ll + 1)
    nodes = np.stack([ll, mid, ll + n2 + 1], axis=1)
    weights = np.stack([1.0 - np.maximum(t1, t2), np.abs(t1 - t2),
                        np.minimum(t1, t2)], axis=1)
    return nodes, weights


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("uniform", [True, False])
def test_kuhn_rule_matches_chord_and_two_triangles(rng, m, uniform):
    grid = (build_grid(Domain([0.0] * m, [2.0, 3.0][:m]), [5, 13][:m]) if uniform
            else _random_axes_grid(rng, m))
    pts = _kuhn_test_points(rng, grid)
    nodes, w = interpolation_weights(grid, pts)
    ref_nodes, ref_w = _two_triangle_weights(grid, pts)
    assert nodes.dtype == ref_nodes.dtype and w.dtype == ref_w.dtype
    assert np.array_equal(nodes, ref_nodes)
    assert w.tobytes() == np.ascontiguousarray(ref_w).tobytes()
