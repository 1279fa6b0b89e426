"""One-point gauge and Gerstewitz evaluation.

A single point is read with one row product and a max over a Python list;
the batch evaluators keep numpy's reductions. Both must give the same bits
on a one-row batch (a large batch is bounded in test_row_product.py),
a point too large for a row sum is read at a power of two of its size, and
the caller's point is never written to.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conegen.cones import ROW_SAFE, PolyhedralCone, coordinate_cone
from conegen.gauge import GaugeBody
from conegen.lattice import (_exact_directions_2d, _support_route_2d, convex_hull_2d,
                             support_values)
from conegen.numkernel import SHORT, as_vector
from conegen.scalarization import EmptyDomain, GerstewitzFn


def _cones():
    """name -> (cone, interior u, e on a face row): criterion 2's wedge and
    pyramid, criterion 3's halfspace wedge and simplicial cone, and a
    coordinate cone."""
    wedge = PolyhedralCone(2, generators=[[1.0, 0.0], [1.0, 1.0]])
    pyramid = PolyhedralCone(3, generators=[[1.0, 0.0, 0.4], [0.0, 1.0, 0.4],
                                            [-1.0, 0.0, 0.4], [0.0, -1.0, 0.4]])
    simplicial = PolyhedralCone(3, generators=[[1.0, 0.0, 0.5], [0.0, 1.0, 0.5],
                                               [-1.0, -1.0, 1.0]])
    hwedge = PolyhedralCone(2, halfspaces=[[1.0, 0.0], [1.0, 1.0]])
    out = {name: (cone, cone.generators.sum(axis=0), cone.generators[0])
           for name, cone in (("wedge2", wedge), ("pyramid3", pyramid),
                              ("simplicial3", simplicial))}
    out["hwedge2"] = (hwedge, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    out["coord3"] = (coordinate_cone(3), np.array([0.5, 1.0, 2.0]), np.array([1.0, 0.0, 2.0]))
    return out


CONES = _cones()
ENTRY = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                  st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -1e-300, 1e300, -1e300]))


def _point(data, dim):
    return np.array(data.draw(st.lists(ENTRY, min_size=dim, max_size=dim)))


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CONES)), st.data())
def test_gauge_of_one_point_is_the_batch_row(name, data):
    cone, u, _ = CONES[name]
    body = GaugeBody(cone, u)
    x = _point(data, cone.dim)
    g = body.gauge(x)
    assert type(g) is float
    assert _bits(g) == body.gauge_many(x[None]).tobytes()
    assert _bits(g) == _bits(np.max(np.abs(body.isometry_image(x))))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CONES)), st.booleans(), st.data())
def test_phi_of_one_point_is_the_batch_row(name, on_face, data):
    cone, u, face_e = CONES[name]
    fn = GerstewitzFn(cone, face_e if on_face else u)
    assert fn._unit.face.any() == on_face
    y = _point(data, cone.dim)
    v = fn.value(y)
    assert type(v) is float
    assert _bits(v) == fn.value_many(y[None]).tobytes()
    if math.isfinite(v):
        assert fn.subdifferential(y).value == v
    else:
        with pytest.raises(EmptyDomain):
            fn.subdifferential(y)


def test_face_row_rule_on_both_paths():
    # e = (1, 0, 2) lies on the coordinate cone's face x_2 = 0: phi is +inf
    # once y_2 exceeds membership, and y_1 / 1 or y_3 / 2 below it
    cone, _, e = CONES["coord3"]
    fn = GerstewitzFn(cone, e)
    slack = fn._unit.slack
    Y = np.array([[1.0, slack, 4.0], [1.0, 2.0 * slack, 4.0], [-3.0, -5.0, -8.0]])
    assert [fn.value(y) for y in Y] == [2.0, math.inf, -3.0]
    assert fn.value_many(Y).tolist() == [2.0, math.inf, -3.0]


def test_a_far_point_is_read_at_a_power_of_two():
    # H x on criterion 2's pyramid overflows at 1.3e308 (1, -1, 1); read at
    # 2^-128 of its size the gauge is finite, and it is 2^30 times that of
    # x 2^-30, which is read as given
    cone, u, _ = CONES["pyramid3"]
    body, fn = GaugeBody(cone, u), GerstewitzFn(cone, u)
    x = 1.3e308 * np.array([1.0, -1.0, 1.0])
    near = x * 2.0 ** -30
    assert np.abs(near).max() < ROW_SAFE <= np.abs(x).max()
    assert body.gauge(x) == body.gauge(near) * 2.0 ** 30 == 1.5751607060868425e308
    assert fn.value(x) == fn.value(near) * 2.0 ** 30 == 1.5751607060868425e308
    assert np.array_equal(body.isometry_image(x), body.isometry_image(near) * 2.0 ** 30)
    far, close = fn.subdifferential(x), fn.subdifferential(near)
    assert np.array_equal(far.vertices, close.vertices) and far.value == body.gauge(x)
    assert fn.directional_derivative(near, x) == fn.directional_derivative(x, near) * 2.0 ** 30
    # a gauge beyond the largest float is +inf, with no overflow warning
    assert body.gauge(np.full(3, 1.7e308)) == math.inf


def test_below_row_safe_the_point_is_read_as_given():
    # just under 2^1000 the point is not scaled: its gauge is that of the
    # unscaled row product, bit for bit
    cone, u, _ = CONES["simplicial3"]
    body = GaugeBody(cone, u)
    x = np.nextafter(ROW_SAFE, 0.0) * np.array([1.0, -0.5, 0.25])
    expect = np.max(np.abs(cone.halfspaces @ x) / body._unit.hu)
    assert _bits(body.gauge(x)) == _bits(expect)


@pytest.mark.parametrize("name", sorted(CONES))
def test_refusals(name):
    cone, u, _ = CONES[name]
    body, fn = GaugeBody(cone, u), GerstewitzFn(cone, u)
    bad = np.ones(cone.dim)
    bad[-1] = math.nan
    for call in (body.gauge, body.isometry_image, fn.value, fn.subdifferential):
        with pytest.raises(ValueError, match="point must have finite entries"):
            call(bad)
        with pytest.raises(ValueError, match=f"point has dimension {cone.dim + 1}, expected"):
            call(np.ones(cone.dim + 1))
        with pytest.raises(ValueError, match="point must be one-dimensional"):
            call(np.ones((1, cone.dim)))
    with pytest.raises(ValueError, match="direction must have finite entries"):
        fn.directional_derivative(np.ones(cone.dim), -np.inf * np.ones(cone.dim))


@pytest.mark.parametrize("n", [1, SHORT, SHORT + 1, 40])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_as_vector_refuses_non_finite_entries_at_every_length(n, bad):
    x = np.zeros(n)
    x[n // 2] = bad
    with pytest.raises(ValueError, match="v must have finite entries"):
        as_vector(x, n, "v")
    assert as_vector(np.zeros(n), n).shape == (n,)


def test_the_callers_point_is_not_modified_on_a_coordinate_cone():
    # halfspace_values returns x itself on a coordinate cone
    for n in (2, 5, 20):
        cone = coordinate_cone(n)
        u = np.linspace(1.0, 2.0, n)
        body, fn = GaugeBody(cone, u), GerstewitzFn(cone, u)
        for x in (np.linspace(-3.0, 4.0, n), 1.7e308 * np.cos(np.arange(n))):
            keep = x.copy()
            body.gauge(x)
            image = body.isometry_image(x)
            fn.value(x)
            fn.subdifferential(x)
            fn.directional_derivative(x, x)
            body.gauge_many(x[None])
            fn.value_many(x[None])
            assert np.array_equal(x, keep) and not np.shares_memory(image, x)


def test_merged_support_route_is_the_two_products():
    # one product with both point sets gives the bytes of two support_values
    rng = np.random.default_rng(34)
    for k in range(400):
        A = rng.normal(size=(int(rng.integers(1, 41)), 2)) * rng.uniform(0.1, 10.0)
        B = rng.normal(size=(int(rng.integers(1, 41)), 2)) + rng.uniform(-1.0, 1.0, size=2)
        if k % 4 == 0:
            B[: min(len(A), len(B))] = A[: min(len(A), len(B))]   # shared points
        hull_a, hull_b = convex_hull_2d(A).tolist(), convex_hull_2d(B).tolist()
        D = _exact_directions_2d(hull_a, hull_b)
        _, _, h_a, h_b = _support_route_2d(A, B, hull_a, hull_b)
        assert h_a.tobytes() == support_values(A, D).tobytes()
        assert h_b.tobytes() == support_values(B, D).tobytes()
