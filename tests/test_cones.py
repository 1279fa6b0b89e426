from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from conegen.config import default_tolerances, use_tolerances
from conegen.cones import (DimensionMismatch, InvalidCone, PolyhedralCone,
                           UnsupportedRepresentation, _extreme_rays,
                           _facets_from_generators, coordinate_cone)
from conegen.gauge import GaugeBody
from conegen.penalty import cone_lipschitz_rank, cone_minimal_points
from conegen.scalarization import GerstewitzFn
from lp_oracle import oracle_cones


def wedge():
    return PolyhedralCone(2, generators=[[1.0, 0.0], [1.0, 1.0]])


def exact_membership():
    return use_tolerances(replace(default_tolerances(), membership=0.0))


@pytest.mark.parametrize("cone", [coordinate_cone(2), wedge()], ids=["coordinate", "general"])
@pytest.mark.parametrize("width", [1, 3])
def test_values_of_the_wrong_width_are_refused(cone, width):
    # the coordinate cone reads values without a matmul: their width is
    # checked there too, not broadcast against the cone's rows
    u, X, pts = np.array([2.0, 1.0]), np.ones((2, width)), np.array([[0.0], [1.0]])
    for call in (lambda: GaugeBody(cone, u).gauge_many(X),
                 lambda: GerstewitzFn(cone, u).value_many(X),
                 lambda: cone_lipschitz_rank(pts, X, cone, u),
                 lambda: cone_minimal_points(X, cone)):
        with pytest.raises(DimensionMismatch):
            call()


class TestContains:
    def test_orthant(self):
        c = coordinate_cone(2)
        with exact_membership():
            assert c.contains([1.0, 2.0])
            assert not c.contains([1.0, -1.0])

    def test_wedge_nonneg_combination(self):
        # (2,1) = 1*(1,0) + 1*(1,1), both coefficients nonnegative
        w = wedge()
        with exact_membership():
            assert w.contains([2.0, 1.0])
        assert not w.contains([-1.0, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            coordinate_cone(2).contains([1.0, 2.0, 3.0])


class TestOrder:
    def test_orthant_pairs(self):
        c = coordinate_cone(2)
        assert c.order_leq([0.0, 0.0], [1.0, 1.0])
        assert not c.order_leq([1.0, 0.0], [0.0, 1.0])  # incomparable

    def test_wedge(self):
        assert wedge().order_leq([0.0, 0.0], [2.0, 1.0])


class TestDual:
    def test_orthant_self_dual(self):
        for n in (1, 2, 3, 5, 8):
            d = coordinate_cone(n).dual()
            assert d.kind == "coordinate" and d.dim == n

    def test_wedge_dual(self):
        d = wedge().dual()
        # {y : y1 >= 0, y1 + y2 >= 0}: check both inclusions on extreme rays
        for ray in ([0.0, 1.0], [1.0, -1.0], [1.0, 0.0]):
            assert d.contains(ray)
        for out in ([-0.1, 1.0], [0.5, -0.6]):
            assert not d.contains(out)

    def test_redundant_generator_same_dual(self):
        d = PolyhedralCone(2, generators=[[1, 0], [0, 1], [1, 1]]).dual()
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.normal(size=2)
            assert d.contains(x) == coordinate_cone(2).contains(x)

    def test_double_dual_membership(self):
        rng = np.random.default_rng(1)
        for cone in (wedge(), PolyhedralCone(3, generators=[[1, 0, 0.3], [0, 1, 0.3], [-1, -1, 1.0]])):
            dd = cone.dual().dual()
            for _ in range(300):
                x = rng.normal(size=cone.dim)
                assert cone.contains(x) == dd.contains(x)

    def test_lower_dimensional_rejected(self):
        ray = PolyhedralCone(2, generators=[[1.0, 0.0]])
        with pytest.raises(UnsupportedRepresentation):
            ray.dual()

    def test_halfspaces_alone_above_dim3(self):
        cone = PolyhedralCone(4, halfspaces=np.eye(4))
        rng = np.random.default_rng(4)
        for x in np.vstack([rng.normal(size=(300, 4)), np.abs(rng.normal(size=(50, 4)))]):
            assert cone.contains(x) == coordinate_cone(4).contains(x)


class TestInterior:
    def test_strictly_positive_coordinates(self):
        c = coordinate_cone(3)
        assert c.interior_contains([1.0, 1.0, 1.0])
        assert not c.interior_contains([1.0, 0.0, 1.0])

    def test_halfspace_cone(self):
        c = PolyhedralCone(2, halfspaces=[[1.0, 0.0], [1.0, 1.0]])
        assert c.interior_contains([1.0, 0.0])

    def test_interior_implies_membership_after_perturbation(self):
        rng = np.random.default_rng(2)
        cones = [coordinate_cone(3), wedge(),
                 PolyhedralCone(3, generators=[[1, 0, 0.4], [0, 1, 0.4], [-1, 0, 0.4], [0, -1, 0.4]])]
        for cone in cones:
            x = np.sum(cone.generators, axis=0)
            assert cone.interior_contains(x)
            for _ in range(25):
                b = rng.normal(size=cone.dim)
                b /= np.linalg.norm(b)
                eps = 1e-2
                ok = False
                with exact_membership():
                    while eps >= 1e-13:
                        if cone.contains(x - eps * b):
                            ok = True
                            break
                        eps /= 10.0
                assert ok, "interior point not robust to small perturbations"


class TestStrictlyPositive:
    def test_orthant(self):
        c = coordinate_cone(2)
        assert c.is_strictly_positive([1.0, 1.0])
        assert not c.is_strictly_positive([1.0, 0.0])  # vanishes on e2

    def test_wedge(self):
        # <(1,-0.5),(1,0)> = 1 > 0, <(1,-0.5),(1,1)> = 0.5 > 0
        assert wedge().is_strictly_positive([1.0, -0.5])
        assert not wedge().is_strictly_positive([0.0, 1.0])

    def test_equivalent_to_dual_interior(self):
        rng = np.random.default_rng(3)
        cones = [coordinate_cone(2), coordinate_cone(3), wedge(),
                 PolyhedralCone(3, generators=np.eye(3) + 0.2)]
        for cone in cones:
            dual = cone.dual()
            for _ in range(200):
                f = rng.normal(size=cone.dim)
                assert cone.is_strictly_positive(f) == dual.interior_contains(f)


class TestConstruction:
    def test_degenerate_rejected(self):
        with pytest.raises(InvalidCone):
            PolyhedralCone(1, halfspaces=[[1.0], [-1.0]])

    def test_line_rejected(self):
        with pytest.raises(InvalidCone):
            PolyhedralCone(2, generators=[[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(InvalidCone, match="line"):   # the whole plane: no facet
            PolyhedralCone(2, generators=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])

    def test_halfplane_rejected(self):
        # single halfspace in the plane contains the line x1 = 0
        with pytest.raises(InvalidCone):
            PolyhedralCone(2, halfspaces=[[1.0, 0.0]])

    def test_cross_consistency(self):
        with pytest.raises(InvalidCone):
            PolyhedralCone(2, halfspaces=[[1.0, 0.0], [0.0, 1.0]],
                           generators=[[1.0, -1.0], [1.0, 1.0]])

    def test_cross_consistency_named_before_the_line(self):
        # one halfspace in the plane holds a line, but given generators are
        # asked about the halfspaces before those are converted
        with pytest.raises(InvalidCone, match="a generator violates a halfspace"):
            PolyhedralCone(2, halfspaces=[[1.0, 0.0]], generators=[[-1.0, 0.0], [0.0, 1.0]])

    def test_mismatched_reps_rejected(self):
        # cross-consistent pair describing different cones: ray vs quadrant
        with pytest.raises(InvalidCone):
            PolyhedralCone(2, halfspaces=[[1.0, 0.0], [0.0, 1.0]],
                           generators=[[1.0, 0.0]])

    def test_both_descriptions_convert_once(self, monkeypatch):
        # the generators are checked against the halfspaces' extreme rays:
        # one conversion, none from the generators
        import conegen.cones as cones_module
        calls, real = [], cones_module._extreme_rays
        monkeypatch.setattr(cones_module, "_extreme_rays",
                            lambda *args: calls.append(args) or real(*args))
        G = np.eye(3) + 0.2
        PolyhedralCone(3, generators=G, halfspaces=np.linalg.inv(G).T)
        assert len(calls) == 1

    def test_coordinate_halfspaces_are_basis(self):
        c = coordinate_cone(4)
        assert np.array_equal(c.halfspaces, np.eye(4))


# ---------------------------------------------------------------------------
# the double-description routine against qhull


def unit(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return M / np.linalg.norm(M, axis=1)[:, None]


def same_rows(A, B, tol=1e-8):
    """Unit-row sets equal both ways, each row matched within tol."""
    if A.shape != B.shape:
        return False
    D = np.max(np.abs(A[:, None] - B[None]), axis=2) <= tol
    return bool(D.any(axis=1).all() and D.any(axis=0).all())


def random_pointed_cone(rng, d, k):
    """k generators (p_i, 1), p_i Gaussian, under a random rotation and axis
    scaling, with the extreme ones and the inward facet normals of their cone
    read by qhull from the hull of the generators and the origin."""
    P = np.hstack([rng.normal(size=(k, d - 1)), np.ones((k, 1))])
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    G = P @ (Q * rng.uniform(0.5, 2.0, size=d)).T
    hull = ConvexHull(np.vstack([np.zeros(d), G]))
    through_0 = np.abs(hull.equations[:, -1]) <= 1e-12 * np.max(np.abs(G))
    facets = unit(-hull.equations[through_0, :-1])
    facets = facets[~np.tril(np.max(np.abs(facets[:, None] - facets[None]), axis=2)
                             <= 1e-8, -1).any(axis=1)]
    extreme = unit(G[hull.vertices[hull.vertices > 0] - 1])
    return unit(G), extreme, facets


class TestDoubleDescription:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 6))
    # near-duplicate rays under a zero test at membership, and (83371, 5)
    # under a constant rounding bound without the per-ray one
    @example(532, 5)
    @example(3677, 5)
    @example(3322, 4)
    @example(1759, 6)
    @example(1967, 6)
    @example(54755, 6)
    @example(83371, 5)
    def test_both_directions_match_qhull(self, seed, d):
        rng = np.random.default_rng(seed)
        G, extreme, facets = random_pointed_cone(rng, d, int(rng.integers(d, 2 * d + 4)))
        assert same_rows(_facets_from_generators(G)[0], facets)
        assert same_rows(_extreme_rays(facets)[0], extreme)
        # round trip through both conversions
        assert same_rows(_facets_from_generators(_extreme_rays(facets)[0])[0], facets)
        cone = PolyhedralCone(d, halfspaces=facets)
        assert same_rows(cone.generators, extreme)
        assert same_rows(PolyhedralCone(d, generators=G).halfspaces, facets)
        PolyhedralCone(d, halfspaces=facets, generators=G)   # one cone: accepted

    def test_conversion_ignores_membership(self):
        # the conversion decides tightness from its own rounding: the same
        # rows under every membership, exact membership included
        for d in range(3, 7):
            for seed in range(30):
                rng = np.random.default_rng(seed)
                G, _, facets = random_pointed_cone(rng, d, int(rng.integers(d, 2 * d + 4)))
                built = []
                for tol in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
                    with use_tolerances(replace(default_tolerances(), membership=tol)):
                        built.append((PolyhedralCone(d, generators=G).halfspaces,
                                      PolyhedralCone(d, halfspaces=facets).generators))
                for H, R in built[1:]:
                    assert same_rows(H, built[0][0], 1e-12)
                    assert same_rows(R, built[0][1], 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 6))
    def test_redundant_rows(self, seed, d):
        # positive combinations of generators (of facet normals) add no facet
        # (no extreme ray)
        rng = np.random.default_rng(seed)
        G, extreme, facets = random_pointed_cone(rng, d, 2 * d)
        W = rng.uniform(0.1, 1.0, size=(4, G.shape[0]))
        assert same_rows(_facets_from_generators(unit(np.vstack([W @ G, G])))[0], facets)
        W = rng.uniform(0.1, 1.0, size=(4, facets.shape[0]))
        assert same_rows(_extreme_rays(unit(np.vstack([facets, W @ facets])))[0], extreme)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 6), st.data())
    def test_lower_dimensional_embedded(self, seed, d, data):
        # a full cone of R^r placed in R^d by a random isometry: its facets
        # lift, the rest of the rows pin the span from both sides, and those
        # rows give back the extreme rays
        r = data.draw(st.integers(2, d - 1))
        rng = np.random.default_rng(seed)
        G, extreme, facets = random_pointed_cone(rng, r, int(rng.integers(r, 2 * r + 3)))
        E = np.linalg.qr(rng.normal(size=(d, d)))[0][:, :r]
        H = PolyhedralCone(d, generators=G @ E.T).halfspaces
        on_span = np.abs(H @ E).max(axis=1) > 1e-8
        assert same_rows(H[on_span], facets @ E.T)
        pins = H[~on_span]
        assert pins.shape[0] == 2 * (d - r) and np.allclose(pins @ E, 0.0, atol=1e-12)
        assert np.linalg.matrix_rank(pins) == d - r
        assert same_rows(pins, -pins)
        assert same_rows(PolyhedralCone(d, halfspaces=H).generators, extreme @ E.T)

    def test_cube_cone_from_either_description(self):
        cube = np.array([[a, b, c, 1.0] for a in (-1.0, 1.0) for b in (-1.0, 1.0)
                         for c in (-1.0, 1.0)])
        facets = unit(np.vstack([np.eye(4)[:3] + np.eye(4)[3], np.eye(4)[3] - np.eye(4)[:3]]))
        assert same_rows(PolyhedralCone(4, generators=cube).halfspaces, facets)
        assert same_rows(PolyhedralCone(4, halfspaces=facets).generators, unit(cube))

    def test_line_rejected_in_every_dimension(self):
        for d in range(2, 7):
            with pytest.raises(InvalidCone, match="line"):
                PolyhedralCone(d, halfspaces=np.eye(d)[:-1])


# ---------------------------------------------------------------------------
# facet rows from the conversion's tight sets

MEMBERSHIPS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3)


def rank_facets(cone, tol):
    """The halfspace rows whose generators tight at tol (|<h, g>| <= tol)
    span rank(G) - 1 dimensions, ranks read at tol: a batched rank test."""
    G = cone.generators
    tight = np.abs(G @ cone.halfspaces.T) <= tol
    ranks = np.linalg.matrix_rank(tight.T[:, :, None] * G, tol=tol)
    return ranks == np.linalg.matrix_rank(G, tol=tol) - 1


def random_facet_cases(seed, d):
    """Builders of three random cones in R^d: from generators; from facet
    normals with nonnegative combinations of them added; and a flat cone, a
    full cone of R^r (r < d) placed in R^d by a random isometry."""
    rng = np.random.default_rng([seed, d])
    G, _, facets = random_pointed_cone(rng, d, int(rng.integers(d, 2 * d + 4)))
    W = rng.uniform(0.1, 1.0, size=(3, facets.shape[0])) * (rng.random((3, facets.shape[0])) < 0.5)
    W[np.arange(3), rng.integers(facets.shape[0], size=3)] = 1.0
    H = unit(np.vstack([facets, W @ facets]))
    r = int(rng.integers(1, d))
    flat = np.ones((1, 1)) if r == 1 else \
        random_pointed_cone(rng, r, int(rng.integers(r, 2 * r + 3)))[0]
    flat = flat @ np.linalg.qr(rng.normal(size=(d, d)))[0][:, :r].T
    return (lambda: PolyhedralCone(d, generators=G),
            lambda: PolyhedralCone(d, halfspaces=H),
            lambda: PolyhedralCone(d, generators=flat))


def fixed_facet_cases():
    """The pointwise benchmark's fixed cones: oracle_cones() and coordinate
    cones."""
    cases = [lambda name=name: oracle_cones()[name][0] for name in oracle_cones()]
    return cases + [lambda d=d: coordinate_cone(d) for d in (2, 3, 5, 8, 13, 20)]


def check_facet_mask(build):
    """The mask equals the rank test at the default membership, and the
    cone's rows and mask are the same under every membership."""
    cone = build()
    assert np.array_equal(cone.facets, rank_facets(cone, default_tolerances().membership))
    for tol in MEMBERSHIPS:
        with use_tolerances(replace(default_tolerances(), membership=tol)):
            other = build()
        assert np.array_equal(other.halfspaces, cone.halfspaces)
        assert np.array_equal(other.facets, cone.facets)


class TestFacetMask:
    def test_fixed_cones(self):
        for build in fixed_facet_cases():
            check_facet_mask(build)
        # the pyramid's four facets, at membership 0 too
        with exact_membership():
            assert oracle_cones()["pyramid3"][0].facets.sum() == 4

    @pytest.mark.parametrize("d", range(2, 7))
    def test_random_cones_read_no_tolerance(self, d):
        for seed in range(30):
            for build in random_facet_cases(seed, d):
                check_facet_mask(build)

    def test_pins_and_redundant_rows_are_not_facets(self):
        ray = PolyhedralCone(3, generators=[[1.0, 1.0, 0.0]])
        assert ray.facets.tolist() == [True, False, False, False, False]
        cone = PolyhedralCone(2, halfspaces=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0]])
        assert cone.facets.tolist() == [True, True, False, False]
        assert cone.dual().facets.tolist() == [True, True]
