import math

import numpy as np
import pytest

from conegen import scalarization
from conegen.cones import InvalidCone, PolyhedralCone, coordinate_cone
from conegen.numkernel import enumerate_polytope_vertices, polyhedron_is_bounded
from conegen.scalarization import EmptyDomain, GerstewitzFn
from lp_oracle import oracle_cones, phi_lp


def orthant_fn(n=2):
    return GerstewitzFn(coordinate_cone(n), np.ones(n))


def wedge_fn():
    cone = PolyhedralCone(2, halfspaces=[[1.0, 0.0], [1.0, 1.0]])
    return GerstewitzFn(cone, [1.0, 0.0])


def bisect_phi(cone, e, y, lo=-1e4, hi=1e4):
    e, y = np.asarray(e, float), np.asarray(y, float)
    if not cone.contains(hi * e - y, tol=0.0):
        return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cone.contains(mid * e - y, tol=0.0):
            hi = mid
        else:
            lo = mid
    return hi


class TestValue:
    def test_zero_and_multiples_of_e(self):
        fn = orthant_fn()
        assert fn.value([0.0, 0.0]) == 0.0
        for s in (-2.5, 0.25, 7.0):
            assert fn.value(s * fn.e) == pytest.approx(s, abs=1e-12)

    def test_orthant_example_against_bisection(self):
        fn = orthant_fn()
        assert fn.value([2.0, -3.0]) == 2.0
        assert bisect_phi(fn.cone, fn.e, [2.0, -3.0]) == pytest.approx(2.0, abs=1e-9)

    def test_lp_matches_closed_form(self):
        rng = np.random.default_rng(11)
        fns = [orthant_fn(3)] + [GerstewitzFn(cone, e) for cone, e in oracle_cones().values()]
        for fn in fns:
            for _ in range(30):
                y = rng.normal(size=fn.cone.dim)
                assert phi_lp(fn.cone, fn.e, y) == pytest.approx(fn.value(y), abs=1e-9)

    def test_general_cone_against_bisection(self):
        fn = wedge_fn()
        rng = np.random.default_rng(12)
        for _ in range(30):
            y = rng.normal(size=2)
            assert fn.value(y) == pytest.approx(bisect_phi(fn.cone, fn.e, y), abs=1e-7)

    def test_infeasible_returns_inf(self):
        fn = GerstewitzFn(coordinate_cone(2), [1.0, 0.0])  # boundary direction
        assert fn.value([0.0, 1.0]) == math.inf

    def test_construction_guards(self):
        with pytest.raises(InvalidCone):
            GerstewitzFn(coordinate_cone(2), [0.0, 0.0])
        with pytest.raises(InvalidCone):
            GerstewitzFn(coordinate_cone(2), [-1.0, 1.0])


class TestSublevel:
    def test_at_zero(self):
        assert orthant_fn().sublevel([0.0, 0.0], 0.0)

    def test_examples(self):
        fn = orthant_fn()
        assert not fn.sublevel([2.0, -3.0], 1.0)  # re - y = (-1, 4) outside
        assert fn.sublevel([2.0, -3.0], 2.0)      # (0, 5) inside

    def test_characterization(self):
        fn = orthant_fn(3)
        rng = np.random.default_rng(13)
        for _ in range(100):
            y = rng.normal(size=3)
            v = fn.value(y)
            assert fn.sublevel(y, v)
            assert not fn.sublevel(y, v - 1e-6)


class TestProperties:
    CONES = None

    @classmethod
    def fns(cls):
        if cls.CONES is None:
            cls.CONES = [orthant_fn(2), orthant_fn(3), wedge_fn()]
        return cls.CONES

    def test_translation_along_e(self):
        rng = np.random.default_rng(14)
        for fn in self.fns():
            for _ in range(60):
                y = rng.normal(size=fn.cone.dim)
                s = float(rng.normal())
                assert fn.value(y + s * fn.e) == pytest.approx(fn.value(y) + s,
                                                               abs=1e-9)

    def test_monotone(self):
        rng = np.random.default_rng(15)
        for fn in self.fns():
            gens = fn.cone.generators
            for _ in range(60):
                y1 = rng.normal(size=fn.cone.dim)
                y2 = y1 + np.abs(rng.normal(size=gens.shape[0])) @ gens
                assert fn.value(y1) <= fn.value(y2) + 1e-9

    def test_sublinear(self):
        rng = np.random.default_rng(16)
        for fn in self.fns():
            for _ in range(60):
                y1 = rng.normal(size=fn.cone.dim)
                y2 = rng.normal(size=fn.cone.dim)
                assert fn.value(y1 + y2) <= fn.value(y1) + fn.value(y2) + 1e-9
                a = float(np.abs(rng.normal()))
                assert fn.value(a * y1) == pytest.approx(a * fn.value(y1), abs=1e-9)

    def test_nonpositive_iff_in_minus_cone(self):
        rng = np.random.default_rng(17)
        for fn in self.fns():
            for _ in range(100):
                y = rng.normal(size=fn.cone.dim)
                assert (fn.value(y) <= 1e-12) == fn.cone.contains(-y)

    def test_continuity_interior_vs_boundary_e(self):
        interior = orthant_fn(3)
        rng = np.random.default_rng(18)
        assert all(math.isfinite(interior.value(rng.normal(size=3)))
                   for _ in range(200))
        boundary = GerstewitzFn(coordinate_cone(3), [1.0, 1.0, 0.0])
        hits = sum(boundary.value(rng.normal(size=3)) == math.inf
                   for _ in range(200))
        assert hits > 0


class TestSubdifferential:
    def test_at_origin_is_dual_base(self):
        sub = orthant_fn().subdifferential([0.0, 0.0])
        got = sorted(map(tuple, np.round(sub.vertices, 9)))
        assert np.allclose(got, [[0.0, 1.0], [1.0, 0.0]])

    def test_unique_at_kink_free_point(self):
        sub = orthant_fn().subdifferential([2.0, -3.0])
        assert sub.vertices.shape == (1, 2)
        assert np.allclose(sub.vertices[0], [1.0, 0.0], atol=1e-9)

    def test_full_simplex_on_diagonal(self):
        sub = orthant_fn().subdifferential([2.0, 2.0])
        got = sorted(map(tuple, np.round(sub.vertices, 9)))
        assert np.allclose(got, [[0.0, 1.0], [1.0, 0.0]])

    def test_vertices_satisfy_defining_constraints(self):
        rng = np.random.default_rng(19)
        for fn in (orthant_fn(3), wedge_fn()):
            for _ in range(40):
                y = rng.normal(size=fn.cone.dim)
                if not math.isfinite(fn.value(y)):
                    continue
                sub = fn.subdifferential(y)
                for v in sub.vertices:
                    assert np.min(fn.cone.generators @ v) >= -1e-9
                    assert abs(v @ fn.e - 1.0) <= 1e-9
                    assert abs(v @ y - fn.value(y)) <= 1e-9
                    assert sub.contains(v)

    def test_empty_domain_error(self):
        fn = GerstewitzFn(coordinate_cone(2), [1.0, 0.0])
        with pytest.raises(EmptyDomain):
            fn.subdifferential([0.0, 1.0])

    def test_boundedness_lps_only_for_boundary_e(self, monkeypatch):
        """For e interior to C the base of C* is compact and the recession-cone
        LPs are skipped, with the same vertices and `bounded` as the LP route
        (criterion 3's four functions); a boundary e still runs them."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return polyhedron_is_bounded(*args, **kwargs)

        monkeypatch.setattr(scalarization, "polyhedron_is_bounded", counting)
        cone3 = PolyhedralCone(3, generators=[[1, 0, 0.5], [0, 1, 0.5], [-1, -1, 1.0]])
        fns = [orthant_fn(), GerstewitzFn(coordinate_cone(3), [0.5, 1.0, 2.0]),
               wedge_fn(), GerstewitzFn(cone3, np.sum(cone3.generators, axis=0))]
        rng = np.random.default_rng(21)
        for fn in fns:
            for y in 2.0 * rng.normal(size=(20, fn.cone.dim)):
                sub = fn.subdifferential(y)
                G, eq, rhs, _ = fn._subdiff_system(y)
                assert sub.bounded and polyhedron_is_bounded(G, eq)
                assert np.array_equal(sub.vertices, enumerate_polytope_vertices(
                    G, np.zeros(G.shape[0]), eq, rhs))
        assert not calls
        boundary = GerstewitzFn(coordinate_cone(2), [1.0, 0.0])
        sub = boundary.subdifferential([2.0, 0.0])
        assert len(calls) == 1 and not sub.bounded and sub.vertices is None
        sub = boundary.subdifferential([2.0, -3.0])
        assert len(calls) == 2 and sub.bounded
        assert np.allclose(sub.vertices, [[1.0, 0.0]], atol=1e-9)

    def test_oracle_form_above_dim3(self):
        cone = coordinate_cone(4)
        fn = GerstewitzFn(cone, np.ones(4))
        sub = fn.subdifferential([1.0, -1.0, 0.5, 0.0])
        assert sub.vertices is None and not sub.exact
        assert sub.contains(sub.witness)


class TestDirectionalDerivative:
    def test_along_e(self):
        assert orthant_fn().directional_derivative([0.0, 0.0], [1.0, 1.0]) == \
            pytest.approx(1.0, abs=1e-12)

    def test_positive_homogeneity_at_origin(self):
        fn = orthant_fn()
        rng = np.random.default_rng(20)
        for _ in range(40):
            d = rng.normal(size=2)
            assert fn.directional_derivative([0.0, 0.0], d) == pytest.approx(
                fn.value(d), abs=1e-9)

    def test_kink_free_point(self):
        assert orthant_fn().directional_derivative([2.0, -3.0], [0.0, 1.0]) == \
            pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        s = 1e-5
        for fn in (orthant_fn(2), orthant_fn(3), wedge_fn()):
            for _ in range(40):
                y = rng.normal(size=fn.cone.dim)
                d = rng.normal(size=fn.cone.dim)
                if not math.isfinite(fn.value(y)):
                    continue
                dd = fn.directional_derivative(y, d)
                fd = (fn.value(y + s * d) - fn.value(y)) / s
                assert dd == pytest.approx(fd, abs=1e-4)
