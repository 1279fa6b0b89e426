import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from conegen.config import default_tolerances, use_tolerances
from conegen.cones import InvalidCone, PolyhedralCone, coordinate_cone
from conegen.scalarization import EmptyDomain, GerstewitzFn
from lp_oracle import dirder_lp, enumerate_polytope_vertices, oracle_cones, phi_lp


def orthant_fn(n=2):
    return GerstewitzFn(coordinate_cone(n), np.ones(n))


def wedge_fn():
    cone = PolyhedralCone(2, halfspaces=[[1.0, 0.0], [1.0, 1.0]])
    return GerstewitzFn(cone, [1.0, 0.0])


def bisect_phi(cone, e, y, lo=-1e4, hi=1e4):
    """phi by bisection on t e - y in C, an exact halfspace test."""
    e, y = np.asarray(e, float), np.asarray(y, float)

    def in_cone(x):
        return np.min(cone.halfspaces @ x) >= 0.0

    if not in_cone(hi * e - y):
        return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if in_cone(mid * e - y):
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

    def test_no_solve_lp_calls(self, monkeypatch):
        """The subdifferential and the directional derivative read the ratio
        rows and run no LP, for e interior to C (criterion 3's four functions)
        and on the boundary; the vertices equal the enumerated ones."""
        calls = []
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("conegen") and \
                    hasattr(mod, "solve_lp"):
                real = mod.solve_lp
                monkeypatch.setattr(mod, "solve_lp",
                                    lambda *a, _real=real, **k: calls.append(a) or _real(*a, **k))
        cone3 = PolyhedralCone(3, generators=[[1, 0, 0.5], [0, 1, 0.5], [-1, -1, 1.0]])
        fns = [orthant_fn(), GerstewitzFn(coordinate_cone(3), [0.5, 1.0, 2.0]),
               wedge_fn(), GerstewitzFn(cone3, np.sum(cone3.generators, axis=0)),
               GerstewitzFn(coordinate_cone(2), [1.0, 0.0])]
        rng = np.random.default_rng(21)
        cases = [(fn, y, rng.normal(size=fn.cone.dim)) for fn in fns
                 for y in 2.0 * rng.normal(size=(20, fn.cone.dim))
                 if math.isfinite(fn.value(y))]
        cases.append((fns[-1], np.array([2.0, 0.0]), np.array([0.0, 1.0])))  # a ray
        got = [(fn.subdifferential(y), fn.directional_derivative(y, d))
               for fn, y, d in cases]
        assert not calls
        assert got[-1][1] == math.inf and not got[-1][0].bounded
        for (fn, y, d), (sub, dd) in zip(cases, got):
            if sub.bounded:
                assert same_points(sub.vertices, enumerate_polytope_vertices(
                    fn.cone.generators, np.zeros(fn.cone.generators.shape[0]),
                    np.vstack([fn.e, y]), [1.0, phi_lp(fn.cone, fn.e, y)]))
            assert dd == pytest.approx(dirder_lp(fn.cone, fn.e, y, d), abs=1e-9)

    def test_exact_vertices_in_dim4(self):
        fn = GerstewitzFn(coordinate_cone(4), np.ones(4))
        sub = fn.subdifferential([1.0, -1.0, 0.5, 0.0])
        assert np.array_equal(sub.vertices, [[1.0, 0.0, 0.0, 0.0]])
        assert sub.bounded and sub.contains(sub.witness)
        cube4, e = oracle_cones()["cube4"]
        fn = GerstewitzFn(cube4, e)
        for y in (np.zeros(4), e, [1.0, -1.0, 0.5, 0.0]):
            sub = fn.subdifferential(y)
            ref = enumerate_polytope_vertices(cube4.generators, np.zeros(8),
                                              np.vstack([e, y]), [1.0, fn.value(y)])
            assert same_points(sub.vertices, ref)
        assert len(fn.subdifferential(np.zeros(4)).vertices) == 6


def same_points(A, B, tol=1e-8):
    """A and B hold the same points, each up to tol * max(1, |x|_inf)."""
    def within(P, Q):
        return all(np.min(np.max(np.abs(Q - p), axis=1)) <= tol * max(1.0, np.max(np.abs(p)))
                   for p in P)
    return len(A) > 0 and within(A, B) and within(B, A)


def random_pointed_cone(rng, dim):
    """Cone over a random polytope at height 1 with both descriptions (the
    facets from qhull), seen through a random well-conditioned linear map."""
    P = rng.normal(size=(int(rng.integers(dim, dim + 5)), dim - 1))
    G = np.hstack([P, np.ones((P.shape[0], 1))])
    if dim == 2:
        H = np.array([[1.0, -P.min()], [-1.0, P.max()]])
    else:
        H = -ConvexHull(P).equations
    Q = np.linalg.qr(rng.normal(size=(dim, dim)))[0] * rng.uniform(0.5, 2.0, dim)
    return PolyhedralCone(dim, generators=G @ Q.T, halfspaces=H @ np.linalg.inv(Q))


def assert_matches_oracles(fn, y, rng):
    """Vertices equal the enumerated ones when bounded; every vertex, and every
    vertex plus a ray, meets the defining system; phi' equals its LP."""
    sub = fn.subdifferential(y)
    G = fn.cone.generators
    if sub.bounded:
        assert same_points(sub.vertices, enumerate_polytope_vertices(
            G, np.zeros(G.shape[0]), np.vstack([fn.e, y]),
            [1.0, phi_lp(fn.cone, fn.e, y)]))
    for v in sub.vertices:
        tol = 1e-9 * max(1.0, np.max(np.abs(v)))
        with use_tolerances(replace(default_tolerances(), membership=tol)):
            assert sub.contains(v)
            for r in sub.rays:
                assert sub.contains(v + r)
    for d in rng.normal(size=(3, fn.cone.dim)):
        ref = dirder_lp(fn.cone, fn.e, y, d)
        assert fn.directional_derivative(y, d) == pytest.approx(
            ref, abs=1e-9 * max(1.0, abs(ref)))
    return sub


class TestClosedFormAgainstOracles:
    def test_random_pointed_cones_dim2_to_6(self):
        rng = np.random.default_rng(40)
        for dim in range(2, 7):
            for _ in range(6):
                cone = random_pointed_cone(rng, dim)
                e = np.sum(cone.generators, axis=0)
                fn = GerstewitzFn(cone, e)
                ys = [np.zeros(dim), e, 2.0 * e, cone.generators[0], -cone.generators[0]]
                for y in ys + list(rng.normal(size=(4, dim))):
                    assert assert_matches_oracles(fn, y, rng).bounded

    def test_criterion3_cones_at_kinks(self):
        rng = np.random.default_rng(41)
        cone3 = PolyhedralCone(3, generators=[[1, 0, 0.5], [0, 1, 0.5], [-1, -1, 1.0]])
        for fn in (orthant_fn(), GerstewitzFn(coordinate_cone(3), [0.5, 1.0, 2.0]),
                   wedge_fn(), GerstewitzFn(cone3, np.sum(cone3.generators, axis=0))):
            for t in (0.0, -1.0, 1.0, 2.0):
                sub = assert_matches_oracles(fn, t * fn.e, rng)
                assert len(sub.vertices) == fn.cone.halfspaces.shape[0]

    def test_redundant_halfspace_row(self):
        # 2 x1 + x2 >= 0 is the sum of the other two rows; at y = (1, 0) it
        # attains phi too, but (1, 0.5) is no vertex
        cone = PolyhedralCone(2, halfspaces=[[1.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
        fn = GerstewitzFn(cone, [1.0, 0.0])
        sub = assert_matches_oracles(fn, np.array([1.0, 0.0]), np.random.default_rng(42))
        assert same_points(sub.vertices, np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_boundary_e(self):
        rng = np.random.default_rng(43)
        pyramid, _ = oracle_cones()["pyramid3"]
        cases = [(coordinate_cone(2), [1.0, 0.0], [2.0, 0.0], 1),
                 (coordinate_cone(2), [1.0, 0.0], [2.0, -3.0], 0),
                 (coordinate_cone(3), [1.0, 1.0, 0.0], [1.0, 0.5, 0.0], 1),
                 (coordinate_cone(3), [1.0, 1.0, 0.0], [1.0, 1.0, -2.0], 0),
                 (pyramid, pyramid.generators[0], -pyramid.generators[0], 2)]
        for cone, e, y, nrays in cases:
            fn = GerstewitzFn(cone, e)
            sub = assert_matches_oracles(fn, np.asarray(y), rng)
            assert len(sub.rays) == nrays and sub.bounded == (nrays == 0)
            for r in sub.rays:
                assert fn.directional_derivative(y, r) == math.inf

    def test_descriptions_of_different_cones_rejected(self):
        # the cube cone's facets with only the four tetrahedron generators:
        # consistent, but the cube's other four vertices lie outside the
        # tetrahedron's cone
        tetra = [[1, 1, 1, 1.0], [1, -1, -1, 1.0], [-1, 1, -1, 1.0], [-1, -1, 1, 1.0]]
        cube4, _ = oracle_cones()["cube4"]
        with pytest.raises(InvalidCone, match="different cones"):
            PolyhedralCone(4, halfspaces=cube4.halfspaces, generators=tetra)

    def test_lower_dimensional_cone(self):
        cone = PolyhedralCone(3, generators=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        fn = GerstewitzFn(cone, [1.0, 1.0, 0.0])
        rng = np.random.default_rng(44)
        sub = assert_matches_oracles(fn, np.array([1.0, -1.0, 0.0]), rng)
        assert np.allclose(sub.vertices, [[1.0, 0.0, 0.0]])
        assert same_points(sub.rays, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        sub = assert_matches_oracles(fn, np.array([1.0, 1.0, 0.0]), rng)
        assert same_points(sub.vertices, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert fn.directional_derivative([1.0, 1.0, 0.0], [0.3, -0.2, 0.0]) == 0.3


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


class TestChecksOnE:
    def test_construction_checks_on_e_unchanged(self):
        cone = coordinate_cone(2)
        GerstewitzFn(cone, [1.0, 0.0])   # e on the boundary: a ray row
        for e, message in (([0.0, 0.0], "direction e must be nonzero"),
                           ([1.0, -1.0], r"e must belong to the cone \(C \+ \[0,inf\) e subset C\)"),
                           ([1e-12, 1e-12], "the line R e lies in the cone")):
            with pytest.raises(InvalidCone, match=f"^{message}$"):
                GerstewitzFn(cone, e)
