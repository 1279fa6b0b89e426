import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conegen.lattice import (_hull_distances, convex_hull_2d, hausdorff_distance,
                             hausdorff_distance_definitional, support_values,
                             verify_order_isometry)
from lattice_oracle import hull_distances_nd, hull_distances_oracle, point_to_hull

SQUARE = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]


def random_polytope(rng, max_pts=8):
    k = int(rng.integers(1, max_pts))
    return rng.normal(size=(k, 2)) * rng.uniform(0.3, 2.0) + rng.uniform(-1, 1, 2)


class TestSupportFunction:
    def test_square_axis(self):
        assert support_values(SQUARE, [[1.0, 0.0]])[0] == 1.0

    def test_square_diagonal(self):
        d = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert support_values(SQUARE, [d])[0] == pytest.approx(math.sqrt(2.0))

    def test_singleton(self):
        assert support_values([[2.0, -3.0]], [[0.5, 0.5]])[0] == pytest.approx(-0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            support_values(np.zeros((0, 2)), [[1.0, 0.0]])

    def test_sublinear(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            P = random_polytope(rng)
            d1, d2 = rng.normal(size=2), rng.normal(size=2)
            assert support_values(P, [d1 + d2])[0] <= \
                support_values(P, [d1])[0] + support_values(P, [d2])[0] + 1e-12


class TestHausdorff:
    def test_identical(self):
        assert hausdorff_distance(SQUARE, SQUARE)[0] == 0.0

    def test_square_vs_origin(self):
        d, info = hausdorff_distance(SQUARE, [[0.0, 0.0]])
        assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert info["exact"]

    def test_segment_vs_point(self):
        d, _ = hausdorff_distance([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]])
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_hoermander_identity_random_pairs(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            A, B = random_polytope(rng), random_polytope(rng)
            support_route, _ = hausdorff_distance(A, B)
            assert support_route == pytest.approx(
                hausdorff_distance_definitional(A, B), abs=1e-9)

    def test_metric_axioms(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            A, B, C = (random_polytope(rng) for _ in range(3))
            dab, _ = hausdorff_distance(A, B)
            dba, _ = hausdorff_distance(B, A)
            dac, _ = hausdorff_distance(A, C)
            dcb, _ = hausdorff_distance(C, B)
            assert dab == dba
            assert dab <= dac + dcb + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_distance(np.zeros((0, 2)), SQUARE)

    def test_empty_hull_rejected(self):
        # the monotone chain read the first of no rows and raised IndexError
        with pytest.raises(ValueError, match="^empty polytope$"):
            convex_hull_2d(np.zeros((0, 2)))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fn", [hausdorff_distance, hausdorff_distance_definitional,
                                    verify_order_isometry])
    def test_non_finite_vertices_rejected(self, fn, dim, entry):
        bad = np.eye(dim)
        bad[0, 0] = entry
        for A, B in ((bad, np.zeros((1, dim))), (np.zeros((1, dim)), bad)):
            with pytest.raises(ValueError, match="^vertices must have finite entries$"):
                fn(A, B)


point_sets = st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                      min_size=1, max_size=7).map(np.array)


def close(a, b):
    return a == pytest.approx(b, abs=1e-9)


class TestHausdorffInvariances:
    @settings(max_examples=150, deadline=None)
    @given(point_sets, point_sets, st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
           st.floats(0.0, 2 * math.pi))
    def test_translation_and_rotation(self, A, B, t, angle):
        c, s = math.cos(angle), math.sin(angle)
        R = np.array([[c, -s], [s, c]])
        d = hausdorff_distance(A, B)[0]
        assert close(hausdorff_distance(A + t, B + t)[0], d)
        assert close(hausdorff_distance(A @ R.T, B @ R.T)[0], d)

    @settings(max_examples=150, deadline=None)
    @given(point_sets, point_sets)
    def test_symmetric_and_definitional(self, A, B):
        d = hausdorff_distance(A, B)[0]
        assert hausdorff_distance(B, A)[0] == d
        assert close(d, hausdorff_distance_definitional(A, B))

    @settings(max_examples=100, deadline=None)
    @given(point_sets)
    def test_zero_on_itself(self, A):
        assert hausdorff_distance(A, A)[0] == 0.0


coords = st.tuples(st.floats(-5, 5), st.floats(-5, 5))
int_coords = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
# the shapes behind the hull and distance defects hypothesis found before:
# collinear and repeated points, points and segments, edges at 1e-160 scale
# and thin near-vertical triangles
hull_inputs = st.one_of(
    point_sets,
    st.builds(lambda a, v, ts: np.array(a, float) + np.outer(ts, v),
              int_coords, int_coords, st.lists(st.integers(-3, 3), min_size=1, max_size=6)),
    st.builds(lambda pts, k: np.array(pts * k), st.lists(coords, min_size=1, max_size=3),
              st.integers(2, 3)),
    st.lists(coords, min_size=1, max_size=2).map(np.array),
    point_sets.map(lambda P: 1e-160 * P),
    st.builds(lambda eps, h, top: np.array([[0.0, 0.0], [0.0, -h], [-eps, top]]),
              st.floats(1e-300, 1e-6), st.floats(0.1, 5), st.floats(0.1, 5)),
)


# coordinates 0 or of magnitude at least 2^-10, so that no intermediate of
# the kernel is subnormal at any scale 2^k, |k| <= 600
scalable = st.one_of(st.just(0.0), st.floats(2.0 ** -10, 5), st.floats(-5, -2.0 ** -10))
scalable_sets = st.lists(st.tuples(scalable, scalable), min_size=1, max_size=7).map(np.array)


class TestHullDistanceKernel:
    @settings(max_examples=300, deadline=None)
    @given(hull_inputs, hull_inputs)
    @example(np.array([[0.0, 0.0], [0.0, -2.0], [-1e-180, 1.0]]), np.array([[0.0, 0.0]]))
    @example(np.array([[0.0, 0.0], [0.0, 3.9e-103], [1.0, 0.0]]), np.array([[2.0, 0.0]]))
    @example(np.array([[0.0, 0.0], [1.75e-298, 0.0], [0.0, 1.0]]), np.array([[3.0, 3.0]]))
    def test_matches_scalar_oracle(self, A, B):
        hull_a, hull_b = convex_hull_2d(A), convex_hull_2d(B)
        for P, hull in ((hull_a, hull_b), (hull_b, hull_a), (np.vstack([A, B]), hull_b)):
            dist, inside = _hull_distances(P, hull)
            ref, ref_inside = hull_distances_oracle(P, hull)
            scale = max(1.0, float(np.abs(P).max()), float(np.abs(hull).max()))
            assert np.array_equal(inside, ref_inside)
            assert np.all(np.abs(dist - ref) <= 1e-12 * scale)

    @settings(max_examples=100, deadline=None)
    @given(point_sets, st.lists(coords, min_size=1, max_size=2).map(np.array))
    def test_tiny_segment_projection_does_not_underflow(self, P, H):
        # a point or a segment: the projection alone, no inside test
        s = 2.0 ** -530   # ~2.9e-160: an exact scaling, and squares underflow
        hull = convex_hull_2d(H)
        dist = _hull_distances(P, hull)[0]
        tiny = _hull_distances(s * P, s * hull)[0]
        assert np.all(np.abs(tiny - s * dist) <= 1e-12 * s * max(1.0, float(np.abs(P).max())))

    def test_inside_test_at_tiny_scale(self):
        # (0, 0) lies 1e-6 s outside this triangle; unscaled, its one negative
        # cross product, -1e-6 s^2, underflows to -0 and it tests inside
        s = 2.0 ** -530
        hull = s * np.array([[0.0, 1e-6], [1.0, 0.0], [0.0, 1.0]])
        dist, inside = _hull_distances(np.zeros((1, 2)), hull)
        assert not inside[0]
        assert dist[0] == pytest.approx(1e-6 * s, rel=1e-9)   # 2.8e-166

    @settings(max_examples=150, deadline=None)
    @given(scalable_sets, scalable_sets, st.integers(-600, 600))
    @example(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 600)
    @example(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), -600)
    def test_exact_under_power_of_two_scaling(self, P, H, k):
        hull = convex_hull_2d(H)
        dist, inside = _hull_distances(P, hull)
        s = 2.0 ** k
        hull_s = convex_hull_2d(s * H)   # its cross products neither over- nor underflow
        assert np.array_equal(hull_s, s * hull)
        dist_s, inside_s = _hull_distances(s * P, hull_s)
        assert np.array_equal(inside_s, inside)
        assert np.array_equal(dist_s, s * dist)

    def test_thin_triangle_far_vertex(self):
        thin = [[0.0, 0.0], [0.0, -2.0], [-1e-180, 1.0]]
        assert hausdorff_distance_definitional(thin, [[0.0, 0.0]]) == 2.0


def criterion_7_pairs():
    """Criterion 7's random pairs, then each A with a shrunken copy inside it."""
    rng = np.random.default_rng(107)
    pairs = []
    for _ in range(200):
        A = rng.normal(size=(int(rng.integers(1, 9)), 2)) * rng.uniform(0.3, 2.0)
        B = rng.normal(size=(int(rng.integers(1, 9)), 2)) + rng.uniform(-1, 1, 2)
        pairs.append((A, B))
    return pairs + [(A, 0.5 * (A - A.mean(axis=0)) + A.mean(axis=0)) for A, _ in pairs]


class TestIsometryConsistency:
    def test_support_route_is_hausdorff_distance(self):
        for A, B in criterion_7_pairs():
            rep = verify_order_isometry(A, B)
            assert rep["support_route"] == hausdorff_distance(A, B)[0]
            assert rep["isometry_holds"] and rep["order_preserved"]

    def test_inclusion_matches_scalar_oracle(self):
        seen = set()
        for A, B in criterion_7_pairs():
            rep = verify_order_isometry(A, B)
            hull_a, hull_b = convex_hull_2d(A), convex_hull_2d(B)
            assert rep["a_subset_b"] == all(point_to_hull(p, hull_b) <= 1e-9 for p in hull_a)
            assert rep["b_subset_a"] == all(point_to_hull(p, hull_a) <= 1e-9 for p in hull_b)
            seen.add((rep["a_subset_b"], rep["b_subset_a"]))
        assert {(False, False), (False, True)} <= seen


class TestOrderIsometry:
    def test_translates(self):
        t = np.array([0.6, -0.8])
        A = np.array(SQUARE)
        rep = verify_order_isometry(A, A + t)
        assert rep["isometry_holds"]
        assert rep["support_route"] == pytest.approx(1.0, abs=1e-9)  # ||t||

    def test_nested_squares(self):
        # with the Euclidean default ball the outer corner is sqrt(2) away
        # from the inner square, and both routes agree on that value
        inner = np.array(SQUARE)
        outer = 2.0 * inner
        rep = verify_order_isometry(inner, outer)
        assert rep["isometry_holds"]
        assert rep["support_route"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert rep["a_subset_b"] and not rep["b_subset_a"]
        assert rep["order_preserved"]

    def test_identical(self):
        rep = verify_order_isometry(SQUARE, SQUARE)
        assert rep["support_route"] == 0.0 and rep["definitional"] == 0.0

    def test_order_preservation_random(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            A = random_polytope(rng)
            B = random_polytope(rng)
            assert verify_order_isometry(A, B)["order_preserved"]

    def test_simplices_in_3d(self):
        rep = verify_order_isometry(np.eye(3), 2 * np.eye(3))
        assert rep["exact"] and rep["isometry_holds"] and rep["order_preserved"]
        # 2 e_1 projects on the plane of conv{e_1, e_2, e_3} at (5/3, -1/3,
        # -1/3), outside the face: its nearest point is e_1, at distance 1;
        # each e_i is 1/sqrt(3) from conv{2 e_1, 2 e_2, 2 e_3}
        assert rep["support_route"] == pytest.approx(1.0, abs=1e-9)
        assert not rep["a_subset_b"] and not rep["b_subset_a"]


def embed(P, Q, t):
    """P in R^2 placed in R^d: padded with zeros, rotated by Q, translated by t."""
    d = Q.shape[0]
    return np.hstack([P, np.zeros((P.shape[0], d - 2))]) @ Q.T + t


def random_isometry(rng, d):
    Q, R = np.linalg.qr(rng.normal(size=(d, d)))
    return Q * np.sign(np.diag(R)), rng.normal(size=d)


class TestExactRouteAboveThePlane:
    def test_embedded_criterion_7_pairs(self):
        rng = np.random.default_rng(108)
        for A, B in criterion_7_pairs()[::20]:
            d2 = hausdorff_distance(A, B)[0]
            for d in (3, 4, 5, 6):
                Q, t = random_isometry(rng, d)
                Ad, Bd = embed(A, Q, t), embed(B, Q, t)
                dist, info = hausdorff_distance(Ad, Bd)
                assert info["exact"]
                assert dist == pytest.approx(d2, abs=1e-9)
                u = info["certificate_direction"]
                if d2 == 0.0:   # a point and its shrunken copy, itself
                    assert u is None
                    continue
                assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
                gap = support_values(Ad, [u])[0] - support_values(Bd, [u])[0]
                assert abs(gap) == pytest.approx(d2, abs=1e-9)

    def test_embedded_isometry_report_matches_the_plane(self):
        rng = np.random.default_rng(109)
        for A, B in criterion_7_pairs()[5::40]:
            ref = verify_order_isometry(A, B)
            Q, t = random_isometry(rng, 4)
            rep = verify_order_isometry(embed(A, Q, t), embed(B, Q, t))
            assert rep["exact"] and rep["isometry_holds"] is True
            assert rep["order_preserved"]
            assert rep["support_route"] == pytest.approx(ref["support_route"], abs=1e-9)
            assert (rep["a_subset_b"], rep["b_subset_a"]) == \
                (ref["a_subset_b"], ref["b_subset_a"])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_3d_translation_rotation_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(int(rng.integers(1, 8)), 3))
        B = rng.normal(size=(int(rng.integers(1, 8)), 3)) + rng.uniform(-1, 1, 3)
        Q, t = random_isometry(rng, 3)
        d = hausdorff_distance(A, B)[0]
        assert close(hausdorff_distance(A + t, B + t)[0], d)
        assert close(hausdorff_distance(A @ Q.T, B @ Q.T)[0], d)
        assert close(hausdorff_distance(B, A)[0], d)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_near_copies_match_the_nd_oracle(self, dim):
        # B = A + 1e-9 N(0, 1): a vertex's nearest point lies on a face of the
        # other hull, and a wrong face's multiplier is rounding-sized. A sign
        # floor above rounding kept such faces: 3 of these 90 pairs read
        # isometry_holds False, and 11 distances were up to 13% above the oracle's
        rng = np.random.default_rng(dim)
        for _ in range(30):
            A = rng.normal(size=(int(rng.integers(dim + 1, dim + 4)), dim))
            B = A + 1e-9 * rng.normal(size=A.shape)
            want = max(hull_distances_nd(A, B).max(), hull_distances_nd(B, A).max())
            dist, info = hausdorff_distance(A, B)
            assert info["exact"] and dist == pytest.approx(want, rel=1e-5)
            assert verify_order_isometry(A, B)["isometry_holds"] is True

    def test_nd_oracle_on_a_cube(self):
        # the corner's face, edge and vertex regions of the unit cube
        cube = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
        P = [[0.5, 0.5, 0.5], [0.5, 0.5, 3.0], [0.5, 2.0, 3.0], [-1.0, 2.0, 3.0]]
        got = hull_distances_nd(P, cube)
        assert got.tolist() == pytest.approx([0.0, 2.0, math.sqrt(5.0), math.sqrt(6.0)])

    def test_shrunken_copy_inside(self):
        rng = np.random.default_rng(110)
        for d in (1, 3, 5):
            A = rng.normal(size=(6, d))
            C = 0.5 * (A - A.mean(axis=0)) + A.mean(axis=0)
            rep = verify_order_isometry(A, C)
            assert rep["exact"] and rep["isometry_holds"] is True
            assert rep["b_subset_a"] and not rep["a_subset_b"]
            assert rep["order_preserved"]

    def test_definitional_distance_of_cubes(self):
        cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
                        dtype=float)
        for B, d in ((cube + [0.0, 0.0, 3.0], 3.0), (2.0 * cube, math.sqrt(3.0))):
            definitional = hausdorff_distance_definitional(cube, B)
            assert definitional == hausdorff_distance(cube, B)[0]
            assert definitional == pytest.approx(d, abs=1e-12)

    def test_intervals(self):
        d, info = hausdorff_distance([[0.0], [2.0]], [[1.0], [5.0]])
        assert d == pytest.approx(3.0, abs=1e-12) and info["exact"]
        assert info["certificate_direction"] == pytest.approx([1.0])
        rep = verify_order_isometry([[0.0], [3.0]], [[1.0], [2.0]])
        assert rep["isometry_holds"] is True and rep["order_preserved"]
        assert rep["b_subset_a"] and not rep["a_subset_b"]
        assert rep["support_route"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shape", ["cube", "simplex"])
    def test_identical_sets_exact_zero_without_a_qp(self, shape, monkeypatch):
        import conegen.lattice as lattice_module
        monkeypatch.setattr(lattice_module, "solve_primal",
                            lambda *a, **k: pytest.fail("a QP was solved"))
        if shape == "cube":
            P = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
        else:
            P = np.vstack([np.zeros(4), np.eye(4)])
        for Q in (P, P[::-1]):
            assert hausdorff_distance(P, Q) == (0.0, {"exact": True,
                                                      "certificate_direction": None})
            rep = verify_order_isometry(P, Q)
            assert rep["definitional"] == 0.0 and rep["support_route"] == 0.0
            assert rep["a_subset_b"] and rep["b_subset_a"] and rep["isometry_holds"]

    def test_identical_sets(self):
        cube = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
        d, info = hausdorff_distance(cube, cube)
        assert d <= 1e-12
        rep = verify_order_isometry(cube, cube[::-1])
        assert rep["a_subset_b"] and rep["b_subset_a"] and rep["isometry_holds"]
