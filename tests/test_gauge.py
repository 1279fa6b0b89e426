import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conegen.cones import InvalidCone, PolyhedralCone, coordinate_cone
from conegen.gauge import GaugeBody, ambient_comparison, ambient_norm, equivalence_constant
from lp_oracle import gauge_lp, oracle_cones


def dyadic_body(n):
    u = 0.5 ** np.arange(1, n + 1)
    return GaugeBody(coordinate_cone(n), u)


def bisect_gauge(cone, u, x, hi=1e6):
    """Independent oracle: bisection on the defining infimum, each order
    constraint an exact halfspace test."""
    u, x = np.asarray(u, float), np.asarray(x, float)
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.min(cone.halfspaces @ (mid * u - x)) >= 0.0 and \
                np.min(cone.halfspaces @ (mid * u + x)) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


class TestOrderIntervalGauge:
    def test_dyadic_extreme_point_has_unit_norm(self):
        for n in (3, 5, 10):
            body = dyadic_body(n)
            signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            assert body.gauge(signs * body.u) == 1.0

    def test_dyadic_basis_vector(self):
        body = dyadic_body(3)
        assert body.gauge([0.0, 0.0, 1.0]) == 8.0

    def test_zero(self):
        assert dyadic_body(3).gauge(np.zeros(3)) == 0.0

    def test_general_cone_against_bisection(self):
        cone = PolyhedralCone(2, halfspaces=[[1.0, 0.0], [1.0, 1.0]])
        body = GaugeBody(cone, [1.0, 0.0])
        assert body.gauge([0.0, 1.0]) == pytest.approx(1.0, abs=1e-9)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=2)
            assert body.gauge(x) == pytest.approx(bisect_gauge(cone, body.u, x),
                                                  abs=1e-7)

    def test_lp_path_matches_fast_path(self):
        rng = np.random.default_rng(5)
        bodies = [GaugeBody(coordinate_cone(n), rng.uniform(0.2, 2.0, n))
                  for n in rng.integers(2, 7, size=25)]
        for cone, base in oracle_cones().values():
            bodies += [GaugeBody(cone, base + 0.3 * rng.uniform(-1, 1, cone.dim))
                       for _ in range(3)]
        for body in bodies:
            for _ in range(4):
                x = rng.normal(size=body.cone.dim)
                assert gauge_lp(body.cone, body.u, x) == pytest.approx(
                    body.gauge(x), abs=1e-9)

    def test_non_interior_u_rejected(self):
        message = "^generating element u must lie in the interior of the cone$"
        for u in ([1.0, 0.0], [0.0, 0.0], [1.0, -1.0]):
            with pytest.raises(InvalidCone, match=message):
                GaugeBody(coordinate_cone(2), u)
        # an interior point of R^2_+, refused by OrderUnit's zero test at
        # membership, as GerstewitzFn refuses [1e-12, 1e-12]
        with pytest.raises(InvalidCone, match="^the line R e lies in the cone$"):
            GaugeBody(coordinate_cone(2), [1e-13, 1e-13])


class TestNormAxioms:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
           st.floats(0, 20))
    def test_absolute_homogeneity(self, xs, alpha):
        body = dyadic_body(3)
        x = np.array(xs)
        lhs = body.gauge(alpha * x)
        rhs = alpha * body.gauge(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert body.gauge(-x) == body.gauge(x)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
           st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    def test_triangle_inequality(self, xs, ys):
        body = dyadic_body(3)
        x, y = np.array(xs), np.array(ys)
        assert body.gauge(x + y) <= body.gauge(x) + body.gauge(y) + 1e-9

    def test_definiteness(self):
        body = dyadic_body(4)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.normal(size=4)
            assert (body.gauge(x) == 0.0) == (not np.any(x))

    def test_monotone_on_coordinate_cone(self):
        body = dyadic_body(4)
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.normal(size=4)
            b = a * rng.uniform(0.0, 1.0, size=4)  # |b_j| <= |a_j|
            assert body.gauge(a) >= body.gauge(b) - 1e-12


class TestEquivalenceConstant:
    def test_identical(self):
        assert equivalence_constant(coordinate_cone(2), [1.0, 1.0], [1.0, 1.0]) == 1.0

    def test_swap(self):
        # ||v||_u = max(2/1, 1/2) = 2 and symmetrically ||u||_v = 2
        assert equivalence_constant(coordinate_cone(2), [1.0, 2.0], [2.0, 1.0]) == 2.0

    def test_scalar_multiple(self):
        assert equivalence_constant(coordinate_cone(2), [1.0, 1.0], [3.0, 3.0]) == 3.0

    def test_sandwich_and_tightness(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            cone = coordinate_cone(n)
            u = rng.uniform(0.3, 3.0, n)
            v = rng.uniform(0.3, 3.0, n)
            c = equivalence_constant(cone, u, v)
            bu, bv = GaugeBody(cone, u), GaugeBody(cone, v)
            for _ in range(30):
                x = rng.normal(size=n)
                gu, gv = bu.gauge(x), bv.gauge(x)
                assert gv <= c * gu + 1e-9
                assert gv >= gu / c - 1e-9
            ratios = [bv.gauge(u) / bu.gauge(u), bu.gauge(v) / bv.gauge(v)]
            assert max(ratios) == pytest.approx(c, abs=1e-9) or c == 1.0

    def test_sandwich_general_cone(self):
        cone = PolyhedralCone(2, generators=[[1.0, 0.0], [1.0, 1.0]])
        u = np.array([1.0, 0.3])
        v = np.array([2.0, 0.5])
        c = equivalence_constant(cone, u, v)
        bu, bv = GaugeBody(cone, u), GaugeBody(cone, v)
        rng = np.random.default_rng(9)
        for _ in range(40):
            x = rng.normal(size=2)
            gu, gv = bu.gauge(x), bv.gauge(x)
            assert gu / c - 1e-9 <= gv <= c * gu + 1e-9


def orthant_image(u, x):
    """The image of x under the l-infinity isometry of the coordinate cone."""
    return GaugeBody(coordinate_cone(len(u)), u).isometry_image(x)


class TestIsometry:
    def test_paper_image(self):
        img = orthant_image([0.5, 0.25, 0.125], [0.5, -0.25, 0.125])
        assert np.allclose(img, [1.0, -1.0, 1.0])

    def test_identity_when_u_is_ones(self):
        x = np.array([0.3, -2.0, 5.0])
        assert np.allclose(orthant_image(np.ones(3), x), x)

    def test_componentwise_division(self):
        img = orthant_image([1.0, 2.0], [2.0, 2.0])
        assert np.allclose(img, [2.0, 1.0])
        assert np.max(np.abs(img)) == GaugeBody(coordinate_cone(2), [1.0, 2.0]).gauge([2.0, 2.0])

    def test_supnorm_equals_gauge(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            u = rng.uniform(0.1, 4.0, n)
            x = rng.normal(size=n)
            body = GaugeBody(coordinate_cone(n), u)
            assert abs(np.max(np.abs(orthant_image(u, x))) - body.gauge(x)) <= 1e-12

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidCone):
            orthant_image([1.0, 0.0], [1.0, 1.0])

    def test_image_on_coordinate_kinds_is_linfty_isometry(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            u = rng.uniform(0.1, 4.0, n)
            x = rng.normal(size=n)
            assert np.array_equal(GaugeBody(coordinate_cone(n), u).isometry_image(x), x / u)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 6))
    def test_image_supnorm_is_lp_gauge_on_halfspace_cones(self, seed, d):
        # x -> (<h_k, x> / <h_k, u>)_k maps ||.||_u isometrically into the
        # sup-norm space, on cones given by their halfspaces alone
        rng = np.random.default_rng(seed)
        u = rng.normal(size=d)
        H = rng.normal(size=(int(rng.integers(d, 2 * d + 1)), d))
        H *= np.sign(H @ u)[:, None]          # u is interior to {x : Hx >= 0}
        body = GaugeBody(PolyhedralCone(d, halfspaces=H), u)
        for x in rng.normal(size=(5, d)):
            image = body.isometry_image(x)
            assert np.max(np.abs(image)) == pytest.approx(gauge_lp(body.cone, u, x), rel=1e-9)


def test_ambient_comparison_reports_only():
    body = GaugeBody(coordinate_cone(2), [2.0, 2.0])  # gauge = sup-norm / 2
    rep = ambient_comparison(body, [[1.0, 0.0]], p=math.inf)
    assert rep["checked"] == 1 and len(rep["violations"]) == 1
    body2 = GaugeBody(coordinate_cone(2), [0.5, 0.5])
    rep2 = ambient_comparison(body2, [[1.0, 0.0], [0.3, -0.4]], p=math.inf)
    assert rep2["violations"] == []


def test_ambient_norm_of_a_far_point():
    # p = 2 scales by a power of two where a square would overflow
    assert ambient_norm([1e200, 0.0]) == 1e200
    assert ambient_norm([3e300, 4e300]) == 5e300
    rep = ambient_comparison(GaugeBody(coordinate_cone(2), [1.0, 1.0]), [[1e200, 0.0]])
    assert rep["violations"] == []
    # below 2^500 the norm is numpy's, bit for bit
    x = np.random.default_rng(5).normal(size=(20, 4)) * 2.0 ** np.arange(-40, 500, 27)[:, None]
    assert [ambient_norm(row) for row in x] == [float(np.linalg.norm(row)) for row in x]


def test_ambient_norm_of_a_tiny_point():
    # p = 2 scales by a power of two where a square would underflow to 0
    assert ambient_norm([3 * 2.0 ** -1000, 4 * 2.0 ** -1000]) == 5 * 2.0 ** -1000
    assert ambient_norm([1e-200, 0.0]) == 1e-200
    assert ambient_norm([0.0, 0.0]) == 0.0
    # from 2^-500 up the norm is numpy's, bit for bit
    x = np.random.default_rng(6).normal(size=(20, 4))
    x *= 2.0 ** np.arange(-499, -40, 23)[:, None] / np.abs(x).max(axis=1, keepdims=True)
    assert [ambient_norm(row) for row in x] == [float(np.linalg.norm(row)) for row in x]
