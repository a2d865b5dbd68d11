from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodist import (
    DiracPoint,
    Domain,
    EmpiricalSamples,
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
    header = open(path).readline().strip()
    assert header == "x1,x2,value"


def test_load_rejects_mismatched_sidecar(tmp_path, unit_interval_grid):
    f = GridFunction(unit_interval_grid, 1, np.linspace(0, 1, 11), monotone=True)
    path = str(tmp_path / "f.csv")
    save_grid_function(f, path)
    meta = open(path + ".meta.json").read().replace('"format_version": 1',
                                                    '"format_version": 99')
    open(path + ".meta.json", "w").write(meta)
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
