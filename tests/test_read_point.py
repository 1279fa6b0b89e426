"""One read per point: `read_point` against the two readers it replaces.

The single-point evaluators read their point once with `read_point`, which
must give what `scaled_point(as_vector(...))` gives, bit for bit, with the
same refusals in the same order. The references below read a point with
those two readers, then take the row product through `halfspace_values`;
`sublevel` and `subdifferential`, which keep the point as `as_vector`
reads it, are held to the same references.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conegen.cones import (ROUNDING, ROW_SAFE, DimensionMismatch, coordinate_cone,
                           read_point, scaled_point)
from conegen.config import default_tolerances
from conegen.gauge import GaugeBody
from conegen.numkernel import SHORT, as_vector
from conegen.scalarization import EmptyDomain, GerstewitzFn
from test_point_eval import CONES

INSIDE = math.nextafter(ROW_SAFE, 0.0)


def reference(x, dim, name="point"):
    return scaled_point(as_vector(x, dim, name))


def outcome(call, *args):
    """(bytes of the array, scale) or (exception type, message)."""
    try:
        x, scale = call(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return x.shape, x.tobytes(), scale


def _same_read(x, dim, name="point"):
    assert outcome(read_point, x, dim, name) == outcome(reference, x, dim, name)


@pytest.mark.parametrize("v", [ROW_SAFE, -ROW_SAFE, INSIDE, -INSIDE, 1.7e308, -5e-324, 0.0])
@pytest.mark.parametrize("n", [1, 3, SHORT, SHORT + 1])
def test_entries_at_and_inside_row_safe(n, v):
    x = np.linspace(-1.0, 1.0, n)
    x[n // 2] = v
    _same_read(x, n)
    read, scale = read_point(x, n)
    assert (scale == 1.0) == (abs(v) < ROW_SAFE)
    if scale == 1.0:
        assert read is x   # read as given, no copy


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("n", [1, 3, SHORT, SHORT + 1])
def test_non_finite_entries_are_refused(n, v):
    x = np.zeros(n)
    x[-1] = v
    with pytest.raises(ValueError, match="^point must have finite entries$"):
        read_point(x, n)
    _same_read(x, n)


@pytest.mark.parametrize("n", [1, 2, SHORT, SHORT + 1])
def test_a_nan_in_a_wrong_width_vector_is_refused_as_non_finite(n):
    x = np.ones(n + 1)
    x[0] = math.nan
    with pytest.raises(ValueError, match="^x must have finite entries$"):
        read_point(x, n, "x")
    _same_read(x, n, "x")
    with pytest.raises(DimensionMismatch, match=rf"^x has dimension {n + 1}, expected {n}$"):
        read_point(np.ones(n + 1), n, "x")


@pytest.mark.parametrize("x, dim", [
    (3.0, 1), (np.float64(-2.5), 1), (np.array(ROW_SAFE), 1), (3.0, 2),
    ([[1.0, 2.0]], 2), (np.zeros((2, 2)), 2), ([], 1), ([1, 2], 2), ([ROW_SAFE, 1], 2),
    (np.ones(3, dtype=np.float32), 3),
], ids=["scalar", "0-d", "0-d-far", "0-d-wide", "row", "matrix", "empty", "ints",
        "int-far", "float32"])
def test_other_inputs_read_as_the_two_readers_read_them(x, dim):
    _same_read(x, dim)


def test_a_0d_point_on_a_one_dimensional_cone():
    cone = coordinate_cone(1)
    read, scale = read_point(np.float64(2.0), 1)
    assert read.shape == (1,) and scale == 1.0
    assert cone.contains(2.0) and not cone.contains(-2.0) and cone.interior_contains(2.0)
    assert GaugeBody(cone, [0.5]).gauge(-3.0) == 6.0
    assert GerstewitzFn(cone, [2.0]).value(np.float64(3.0)) == 1.5


@pytest.mark.parametrize("n", [SHORT, SHORT + 1])
def test_short_and_long_points_on_a_coordinate_cone(n):
    cone = coordinate_cone(n)
    u = np.linspace(1.0, 2.0, n)
    body, fn = GaugeBody(cone, u), GerstewitzFn(cone, u)
    for x in (np.linspace(-3.0, 4.0, n), 1.7e308 * np.cos(np.arange(n))):
        keep = x.copy()
        assert body.gauge(x) == body.gauge_many(x[None])[0]
        assert fn.value(x) == fn.value_many(x[None])[0]
        assert cone.contains(x) == ref_contains(cone, x)
        assert np.array_equal(x, keep)


def test_a_far_points_least_row_value_is_scaled_back():
    # (2^1001, -3 membership) is read at 2^-2, where its least row value
    # lies inside -membership; scaled back it lies outside
    cone, tol = coordinate_cone(2), default_tolerances().membership
    assert not cone.contains([2.0 ** 1001, -3.0 * tol])
    assert not cone.order_leq([0.0, 0.0], [2.0 ** 1001, -3.0 * tol])
    assert cone.contains([2.0 ** 1001, -0.5 * tol])


@pytest.mark.parametrize("name", sorted(CONES))
def test_a_far_points_isometry_image_reads_inf_where_the_gauge_does(name):
    # 1.7e308 cos(k + 0.5): the gauge reads inf on coord3 and simplicial3,
    # and the image scaled back reads inf entries there, with no overflow
    # warning; its sup-norm is the gauge on every cone
    cone, u, _ = CONES[name]
    body = GaugeBody(cone, u)
    x = 1.7e308 * np.cos(np.arange(cone.dim) + 0.5)
    assert np.max(np.abs(body.isometry_image(x))) == body.gauge(x)


def test_the_callers_points_are_not_written_to():
    for name, (cone, u, face_e) in sorted(CONES.items()):
        body, fn = GaugeBody(cone, u), GerstewitzFn(cone, face_e)
        for scale in (1.0, 1e300, 1.5 * ROW_SAFE):
            x = scale * np.cos(np.arange(cone.dim) + 0.5)
            y = scale * np.sin(np.arange(cone.dim) + 0.5)
            keep_x, keep_y = x.copy(), y.copy()
            read_point(x, cone.dim)
            body.gauge(x)
            body.isometry_image(x)
            fn.value(x)
            fn.sublevel(x, 1.0)
            cone.contains(x)
            cone.interior_contains(x)
            cone.order_leq(x, y)
            try:
                fn.subdifferential(x)
                fn.directional_derivative(x, y)
            except EmptyDomain:
                pass
            assert np.array_equal(x, keep_x) and np.array_equal(y, keep_y)


# --- the evaluators against references that read with as_vector and scaled_point

def _least(cone, x, name):
    x, scale = reference(x, cone.dim, name)
    return float(np.min(cone.halfspaces @ x)) * scale


def ref_contains(cone, x):
    return _least(cone, x, "point") >= -default_tolerances().membership


def ref_interior_contains(cone, x):
    # every <h_k, x> above its rounding, ROUNDING * dim * max|x|, at the scale read
    x, _ = reference(x, cone.dim, "point")
    return float(np.min(cone.halfspaces @ x)) > ROUNDING * cone.dim * float(np.max(np.abs(x)))


def ref_order_leq(cone, x, y):
    x, sx = reference(x, cone.dim, "x")
    y, sy = reference(y, cone.dim, "y")
    scale = max(sx, sy)
    d, sd = scaled_point(y * (sy / scale) - x * (sx / scale))
    return float(np.min(cone.halfspaces @ d)) * sd * scale >= -default_tolerances().membership


def ref_active(fn, y):
    y, scale = scaled_point(y)
    hy = fn.cone.halfspace_values(y)
    value = fn._unit.ratio(hy, scale)
    if not math.isfinite(value):
        raise EmptyDomain("phi is +inf at this point; subdifferential undefined")
    rows = fn._vertex_rows
    cut = value - fn._slack * max(1.0, abs(value))
    verts = rows[hy[rows] / fn._he[rows] >= cut / scale]
    rays = fn._ray_rows[np.abs(hy[fn._ray_rows]) <= fn._slack / scale]
    return value, verts, rays


def ref_subdifferential(fn, y):
    y = as_vector(y, fn.cone.dim, "point")
    value, verts, rays = ref_active(fn, y)
    H = fn.cone.halfspaces
    return (H[verts] / fn._he[verts, None]).tobytes(), H[rays].tobytes(), y.tobytes(), value


def ref_directional_derivative(fn, y, d):
    y = as_vector(y, fn.cone.dim, "point")
    d = as_vector(d, fn.cone.dim, "direction")
    _, verts, rays = ref_active(fn, y)
    d, scale = scaled_point(d)
    hd = fn.cone.halfspace_values(d)
    if np.any(hd[rays] > fn._slack / scale):
        return math.inf
    return float(np.max(hd[verts] / fn._he[verts])) * scale


def ref_sublevel(fn, y, r):
    return ref_contains(fn.cone, r * fn.e - as_vector(y, fn.cone.dim, "point"))


ENTRY = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                  st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -1e-300, 1e300, -1e300,
                                   ROW_SAFE, -ROW_SAFE, INSIDE, -INSIDE, 1.7e308, -1.7e308]))


def _point(data, dim):
    return np.array(data.draw(st.lists(ENTRY, min_size=dim, max_size=dim)))


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


def _call(f, *args):
    try:
        return f(*args)
    except EmptyDomain as exc:
        return "EmptyDomain", str(exc)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CONES)), st.data())
def test_cone_queries_match_the_reference(name, data):
    cone = CONES[name][0]
    x, y = _point(data, cone.dim), _point(data, cone.dim)
    assert cone.contains(x) == ref_contains(cone, x)
    assert cone.interior_contains(x) == ref_interior_contains(cone, x)
    assert cone.order_leq(x, y) == ref_order_leq(cone, x, y)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CONES)), st.booleans(), st.sampled_from([-2.0, 0.0, 1.0, 1e300]),
       st.data())
def test_phi_evaluators_match_the_reference(name, on_face, r, data):
    cone, u, face_e = CONES[name]
    fn = GerstewitzFn(cone, face_e if on_face else u)
    y, d = _point(data, cone.dim), _point(data, cone.dim)
    assert fn.sublevel(y, r) == ref_sublevel(fn, y, r)

    def sub(y):
        s = fn.subdifferential(y)
        return s.vertices.tobytes(), s.rays.tobytes(), s.y.tobytes(), s.value

    assert _call(sub, y) == _call(ref_subdifferential, fn, y)
    got, want = (_call(f, *args) for f, args in (
        (fn.directional_derivative, (y, d)), (ref_directional_derivative, (fn, y, d))))
    assert (_bits(got) == _bits(want)) if isinstance(want, float) else got == want


@pytest.mark.parametrize("name", sorted(CONES))
def test_evaluator_refusals_keep_their_order(name):
    cone, u, _ = CONES[name]
    fn = GerstewitzFn(cone, u)
    wide_nan = np.ones(cone.dim + 1)
    wide_nan[0] = math.nan
    good = np.ones(cone.dim)
    for call, msg in ((cone.contains, "point"), (cone.interior_contains, "point"),
                      (lambda a: cone.order_leq(a, good), "x"),
                      (lambda a: cone.order_leq(good, a), "y"),
                      (lambda a: fn.sublevel(a, 1.0), "point"),
                      (lambda a: fn.directional_derivative(a, good), "point"),
                      (lambda a: fn.directional_derivative(good, a), "direction")):
        with pytest.raises(ValueError, match=f"^{msg} must have finite entries$"):
            call(wide_nan)
        with pytest.raises(DimensionMismatch, match=f"^{msg} has dimension {cone.dim + 1}"):
            call(np.ones(cone.dim + 1))


def test_both_points_are_read_before_phis_domain_is_checked():
    # e = (1, 0, 2) lies on the face x_2 = 0 of the coordinate cone, where
    # phi(0, 1, 0) = +inf
    cone, _, e = CONES["coord3"]
    fn = GerstewitzFn(cone, e)
    y = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="^direction must have finite entries$"):
        fn.directional_derivative(y, [1.0, math.nan, 0.0])
    with pytest.raises(EmptyDomain):
        fn.directional_derivative(y, [1.0, 0.0, 0.0])
