"""One-point row products against the literal matmul, and batches against
one point.

The single-point evaluators read a point's row values with `A.dot(x)`, one
BLAS gemv on the unit rows A, and divide over Python lists. The references
below read the point with `as_vector` and `scaled_point` (held to
`read_point` in test_read_point.py) and write out the rest: the row product
is the matmul `x @ A.T` and the ratio is a numpy divide and reduction. Every evaluator must give their bits on a contiguous
point, on a strided view, on a reversed view and on a far point, which is
read at a power of two of its size.

The references read a contiguous copy of the point. On a reversed (or
broadcast) view the matmul gufunc leaves BLAS for its own loop, which on an
FMA kernel rounds differently from gemv; `dot` copies such a view first, so
each evaluator reads a view as it reads the copy.

A batch reads its rows with the gemm `X @ A.T`, which sums in another order
than the gemv of one row, so on a large batch a row may differ from its
one-point value. The difference is bounded by the rounding of the two row
products (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conegen.cones import ROUNDING, ROW_SAFE, scaled_point
from conegen.config import default_tolerances
from conegen.gauge import GaugeBody
from conegen.numkernel import as_vector
from conegen.scalarization import EmptyDomain, GerstewitzFn
from test_point_eval import CONES

EPS = np.finfo(float).eps


def read(x, dim, name="point"):
    x, scale = scaled_point(as_vector(x, dim, name))
    return np.ascontiguousarray(x), scale


def rows(cone, x):
    return x if cone.kind == "coordinate" else x @ cone.halfspaces.T


def least(cone, x, scale):
    return float(np.min(x @ cone.halfspaces.T)) * scale


def ref_gauge(cone, u, x):
    x, scale = read(x, cone.dim)
    return float(np.max(np.abs(rows(cone, x) / rows(cone, u)))) * scale


def ref_isometry_image(cone, u, x):
    x, scale = read(x, cone.dim)
    with np.errstate(over="ignore"):
        return rows(cone, x) / rows(cone, u) * scale


def on_face(fn):
    """The rows of e's face: <h_k, e> not above the rounding of its product."""
    he = rows(fn.cone, fn.e)
    return he, ~(he > ROUNDING * fn.cone.dim * float(np.max(np.abs(fn.e))))


def ref_ratio(fn, hx, scale):
    (he, face), slack = on_face(fn), default_tolerances().membership
    if face.any() and np.max(hx[face]) > slack / scale:
        return math.inf
    return float(np.max(hx[~face] / he[~face])) * scale + 0.0


def ref_value(fn, y):
    y, scale = read(y, fn.cone.dim)
    return ref_ratio(fn, rows(fn.cone, y), scale)


def ref_directional_derivative(fn, y, d):
    y, sy = read(y, fn.cone.dim)
    d, scale = read(d, fn.cone.dim, "direction")
    (he, face), slack = on_face(fn), default_tolerances().membership
    hy = rows(fn.cone, y)
    value = ref_ratio(fn, hy, sy)
    if not math.isfinite(value):
        return "EmptyDomain"
    vertex, ray = fn.cone.facets & ~face, face
    cut = value - slack * max(1.0, abs(value))
    verts = vertex & (np.divide(hy, he, where=vertex, out=np.zeros_like(hy)) >= cut / sy)
    rays = ray & (np.abs(hy) <= slack / sy)
    hd = rows(fn.cone, d)
    if np.any(hd[rays] > slack / scale):
        return math.inf
    return float(np.max(hd[verts] / he[verts])) * scale


def ref_contains(cone, x):
    return least(cone, *read(x, cone.dim)) >= -default_tolerances().membership


def ref_interior_contains(cone, x):
    x, _ = read(x, cone.dim)
    return least(cone, x, 1.0) > ROUNDING * cone.dim * float(np.max(np.abs(x)))


def ref_order_leq(cone, x, y):
    x, sx = read(x, cone.dim, "x")
    y, sy = read(y, cone.dim, "y")
    scale = max(sx, sy)
    d, sd = read(y * (sy / scale) - x * (sx / scale), cone.dim)
    return least(cone, d, sd) * scale >= -default_tolerances().membership


def views(x):
    """x itself, a view of every other entry of a buffer, and a reversed view."""
    strided = np.full(2 * x.shape[0], np.nan)
    strided[::2] = x
    return x, strided[::2], x[::-1].copy()[::-1]


def _bits(v) -> bytes:
    return np.float64(v).tobytes() if isinstance(v, float) else repr(v).encode()


def _derivative(fn, y, d):
    try:
        return fn.directional_derivative(y, d)
    except EmptyDomain:
        return "EmptyDomain"


def check_point(name, x, y):
    cone, u, face_e = CONES[name]
    body = GaugeBody(cone, u)
    fns = GerstewitzFn(cone, u), GerstewitzFn(cone, face_e)
    for vx, vy in zip(views(x), views(y)):
        assert _bits(body.gauge(vx)) == _bits(ref_gauge(cone, u, x))
        assert body.isometry_image(vx).tobytes() == ref_isometry_image(cone, u, x).tobytes()
        for fn in fns:
            assert _bits(fn.value(vx)) == _bits(ref_value(fn, x))
            assert _bits(_derivative(fn, vx, vy)) == _bits(ref_directional_derivative(fn, x, y))
        assert cone.contains(vx) == ref_contains(cone, x)
        assert cone.interior_contains(vx) == ref_interior_contains(cone, x)
        assert cone.order_leq(vx, vy) == ref_order_leq(cone, x, y)


@pytest.mark.parametrize("name", sorted(CONES))
def test_every_evaluator_gives_the_matmul_bits_on_every_view(name):
    # normal points at sizes 1e-5 to 1e5; on an FMA kernel the gemv and the
    # matmul of a reversed view differ on 28-82% of such points
    rng = np.random.default_rng(47)
    dim = CONES[name][0].dim
    for _ in range(200):
        x, y = (rng.normal(size=(2, dim)) * 10.0 ** rng.integers(-5, 6, size=(2, 1)))
        check_point(name, x, y)


@pytest.mark.parametrize("name", sorted(CONES))
def test_a_far_point_gives_the_matmul_bits_on_every_view(name):
    # at and past ROW_SAFE the point is read at a power of two of its size
    rng = np.random.default_rng(48)
    dim = CONES[name][0].dim
    for top in (ROW_SAFE, 1e303, 1.7e308):
        for _ in range(20):
            x, y = rng.uniform(-1.0, 1.0, size=(2, dim))
            check_point(name, top * x / np.abs(x).max(), top * y)


ENTRY = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                  st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -1e-300, 1e300, -1e300,
                                   ROW_SAFE, -ROW_SAFE, math.nextafter(ROW_SAFE, 0.0),
                                   1.7e308, -1.7e308]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CONES)), st.data())
def test_drawn_points_give_the_matmul_bits_on_every_view(name, data):
    dim = CONES[name][0].dim
    x, y = (np.array(data.draw(st.lists(ENTRY, min_size=dim, max_size=dim))) for _ in range(2))
    check_point(name, x, y)


@pytest.mark.parametrize("name", sorted(n for n, (c, _, _) in CONES.items() if c.kind != "coordinate"))
def test_a_large_batch_is_within_the_rounding_of_its_rows(name):
    # gemm and gemv may round a row product differently. Each errs by at
    # most gamma_dim |h_k|.|x| (gamma_dim about dim eps / 2), and each
    # division by half an ulp, so a row's ratio differs from its one-point
    # value by less than (dim + 2) eps times max_k |h_k|.|x| / <h_k, u>.
    # On OpenBLAS's Haswell kernel (FMA), over seeds 0-3 of these draws,
    # 1743-2994 gauges and 2533-3718 values of 20000 differ, by at most
    # 1.85 eps times that scale: up to 3 ulps of a gauge, and up to 7e4
    # ulps of a value whose rows cancel. On Prescott none differ.
    cone, u, _ = CONES[name]
    body, fn = GaugeBody(cone, u), GerstewitzFn(cone, u)
    X = np.random.default_rng(49).normal(size=(20000, cone.dim)) * 2.0
    size = (np.abs(X) @ np.abs(cone.halfspaces).T / rows(cone, u)).max(axis=1)
    for many, one in ((body.gauge_many, body.gauge), (fn.value_many, fn.value)):
        point = np.array([one(x) for x in X])
        assert np.all(np.abs(many(X) - point) <= (cone.dim + 2) * EPS * size)
        assert many(X[:1]).tobytes() == point[:1].tobytes()


def test_a_coordinate_batch_gives_the_one_point_bits():
    # no product on a coordinate cone: every row of a large batch is exact
    cone, u, _ = CONES["coord3"]
    body, fn = GaugeBody(cone, u), GerstewitzFn(cone, u)
    X = np.random.default_rng(50).normal(size=(20000, cone.dim))
    assert body.gauge_many(X).tobytes() == np.array([body.gauge(x) for x in X]).tobytes()
    assert fn.value_many(X).tobytes() == np.array([fn.value(x) for x in X]).tobytes()
