"""The 2-D lattice route: each input read once, far and subnormal sets.

hausdorff_distance, verify_order_isometry and hausdorff_distance_definitional
build each set's hull once from its Python rows and read both hulls'
vertices against the other's edges in one pass. A pair whose largest
|coordinate| is far or subnormal is read at an exact power of two, and so
are the batch rows of gauge_many and value_many.
"""
import itertools
import json
import math

import numpy as np
import pytest

from conegen.cli import main
from conegen.cones import PolyhedralCone
from conegen.gauge import GaugeBody
from conegen.lattice import (_hull_distances, convex_hull_2d, hausdorff_distance,
                             hausdorff_distance_definitional, support_values,
                             verify_order_isometry)
from conegen.numkernel import SHORT
from conegen.scalarization import GerstewitzFn

ROUTES = (hausdorff_distance, hausdorff_distance_definitional, verify_order_isometry)


def random_set(rng):
    """1-40 points: a cloud, repeated points, a collinear set, a segment or one point."""
    n = int(rng.integers(1, 41))
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-3, 3) + rng.normal(size=2)
    if kind == 1:
        P = rng.normal(size=(max(1, n // 3), 2))
        return P[rng.integers(0, len(P), size=n)]
    if kind == 2:
        return np.outer(rng.normal(size=n), rng.normal(size=2)) + rng.normal(size=2)
    return rng.normal(size=(2 if kind == 3 else 1, 2))


def random_pairs(seed, count):
    """Pairs of random sets; one in five is a set and its shrunken copy."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        A = random_set(rng)
        if rng.random() < 0.2:
            yield A, 0.5 * (A - A.mean(axis=0)) + A.mean(axis=0)
        else:
            yield A, random_set(rng)


def hexes(values):
    return [float(v).hex() for v in values]


def test_swapped_pair_gives_the_same_distance():
    # the distance bytes; the certificate's too, unless two candidates tie
    # (u and -u for two points, say), where each call keeps the first of
    # them in its own candidate order and both attain the distance
    ties = 0
    for A, B in random_pairs(351, 600):
        d_ab, info_ab = hausdorff_distance(A, B)
        d_ba, info_ba = hausdorff_distance(B, A)
        assert d_ab.hex() == d_ba.hex()
        u, v = info_ab["certificate_direction"], info_ba["certificate_direction"]
        if u is None or v is None:
            assert u is None and v is None and d_ab == 0.0
        elif hexes(u) != hexes(v):
            for c in (u, v):
                gap = support_values(A, [c])[0] - support_values(B, [c])[0]
                assert abs(gap) == pytest.approx(d_ab, rel=1e-12)
            ties += 1
    assert ties < 150


def test_isometry_report_reads_both_routes():
    for A, B in random_pairs(352, 400):
        rep = verify_order_isometry(A, B)
        assert rep["definitional"].hex() == hausdorff_distance_definitional(A, B).hex()
        assert rep["support_route"].hex() == hausdorff_distance(A, B)[0].hex()


def test_two_block_pass_is_two_one_block_passes():
    for A, B in random_pairs(353, 400):
        hull_a, hull_b = convex_hull_2d(A), convex_hull_2d(B)
        dist, inside = _hull_distances(hull_a, hull_b, mutual=True)
        d_ab, in_ab = _hull_distances(hull_a, hull_b)
        d_ba, in_ba = _hull_distances(hull_b, hull_a)
        assert dist.tobytes() == np.concatenate([d_ab, d_ba]).tobytes()
        assert np.array_equal(inside, np.concatenate([in_ab, in_ba]))


def exact_scale(X, k):
    """2^k X if that is exact (and finite), else None."""
    Y = np.ldexp(X, k)
    return Y if np.all(np.isfinite(Y)) and np.array_equal(np.ldexp(Y, -k), X) else None


def test_power_of_two_scaling_scales_the_distance_exactly():
    # integer sets and their translates by (3, 4); 2^k A, 2^k B and 2^k d
    # exact, down into the subnormals and up to 2^1000
    rng = np.random.default_rng(354)
    checked = 0
    for trial in range(300):
        A = rng.integers(-8, 9, size=(int(rng.integers(1, 41)), 2)).astype(float)
        B = A + [3.0, 4.0] if trial % 3 == 0 else \
            rng.integers(-8, 9, size=(int(rng.integers(1, 41)), 2)).astype(float)
        d, info = hausdorff_distance(A, B)
        definitional = hausdorff_distance_definitional(A, B)
        rep = verify_order_isometry(A, B)
        for k in (-1070, -1060, -1030, -1000, -600, -40, 40, 600, 990, 1000,
                  *rng.integers(-1070, 1001, size=4)):
            As, Bs = exact_scale(A, int(k)), exact_scale(B, int(k))
            ds = math.ldexp(d, int(k)) if d else 0.0
            if As is None or Bs is None or math.ldexp(ds, -int(k)) != d:
                continue
            dist, info_s = hausdorff_distance(As, Bs)
            assert dist.hex() == ds.hex()
            assert info_s["certificate_direction"] == info["certificate_direction"]
            assert hausdorff_distance_definitional(As, Bs).hex() == \
                math.ldexp(definitional, int(k)).hex()
            rep_s = verify_order_isometry(As, Bs)
            assert rep_s["support_route"].hex() == math.ldexp(rep["support_route"], int(k)).hex()
            assert rep_s["definitional"].hex() == math.ldexp(rep["definitional"], int(k)).hex()
            checked += 1
    assert checked > 2000


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("points", [SHORT // 2 - 1, SHORT // 2, SHORT // 2 + 1])
def test_refusals_keep_their_messages(route, points):
    # sets of 2 * points entries, on both sides of SHORT
    good = np.arange(2.0 * points).reshape(points, 2)
    with pytest.raises(ValueError, match="^empty polytope$"):
        route(good, np.zeros((0, 2)))
    with pytest.raises(ValueError, match="^empty polytope$"):
        route(np.zeros((0, 2)), good)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        route(good, np.zeros((points, 3)))
    for entry in (math.nan, math.inf, -math.inf):
        for where in (0, -1):
            bad = good.copy()
            bad.flat[where] = entry
            for A, B in ((bad, good), (good, bad)):
                with pytest.raises(ValueError, match="^vertices must have finite entries$"):
                    route(A, B)


# --- exact signs ---------------------------------------------------------------

# the third draw's hull of B in the 48th pair of random_pairs(0, 2000), as a
# rounded sign test chained it, and the vertex of A beyond its apex
THIN_TRIANGLE = np.array([[-2.797154356556063, -0.8492487491480225],
                          [0.20867933645355174, 0.27307004961160297],
                          [0.21148631641175286, 0.2741181203622094]])
BEYOND_APEX = np.array([[-4.517254805597007, -1.4915002064402574]])


def test_point_beyond_a_thin_hulls_apex_is_outside():
    # two of its exact cross products are negative; rounded, neither is
    dist, inside = _hull_distances(BEYOND_APEX, THIN_TRIANGLE)
    assert not inside[0] and dist[0] == math.dist(BEYOND_APEX[0], THIN_TRIANGLE[0])


def test_thin_hull_pair_reads_one_distance_on_both_routes():
    A, B = next(itertools.islice(random_pairs(0, 2000), 47, None))
    assert BEYOND_APEX[0].tolist() in A.tolist()
    definitional = hausdorff_distance_definitional(A, B)
    # that vertex's distance to the apex, rounded once; the support route
    # rounds in units of the coordinates, 3 ulps of the distance here
    assert definitional == math.dist(BEYOND_APEX[0], THIN_TRIANGLE[0])
    assert abs(hausdorff_distance(A, B)[0] - definitional) <= 3 * math.ulp(definitional)
    assert verify_order_isometry(A, B)["isometry_holds"]


@pytest.mark.parametrize("seed", [351, 352, 353])
def test_every_random_pair_is_an_isometry(seed):
    assert all(verify_order_isometry(A, B)["isometry_holds"] for A, B in random_pairs(seed, 600))


# --- far and subnormal sets -------------------------------------------------

SUBNORMAL_TRIANGLE = [[1e-310, 0.0], [0.0, 1e-310], [0.0, 0.0]]
FAR_TRIANGLE = [[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308]]


def test_hull_of_a_subnormal_set():
    hull = convex_hull_2d([[1e-320, 0.0], [0.0, 1e-320], [0.0, 0.0]])
    assert hull.tolist() == [[0.0, 0.0], [1e-320, 0.0], [0.0, 1e-320]]


def test_hull_of_a_far_set():
    hull = convex_hull_2d([[1e308, 1e308], [-1e308, -1e308], [1e308, -1e308]])
    assert hull.tolist() == [[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308]]


def test_hull_is_exact_under_far_and_subnormal_scaling():
    rng = np.random.default_rng(355)
    for _ in range(200):
        P = rng.integers(-8, 9, size=(int(rng.integers(1, 20)), 2)).astype(float)
        hull = convex_hull_2d(P)
        for k in (-1070, -1050, -1010, 1010, 1019):
            Ps = exact_scale(P, k)
            if Ps is not None:
                assert convex_hull_2d(Ps).tobytes() == np.ldexp(hull, k).tobytes()


def test_hull_of_a_set_mixing_far_and_tiny_coordinates():
    # every turn is decided exactly, so the 1e-300 coordinates keep the
    # three far points at x = 1e300 apart
    Q = [[1e300, 1e-300], [1e300, 2e-300], [1e300, 3e-300], [-1e300, 0.0]]
    assert convex_hull_2d(Q).tolist() == [[-1e300, 0.0], [1e300, 1e-300], [1e300, 3e-300]]
    P = [[1e300, 0.0], [0.0, 1e300], [-1e300, -1e-300], [1e-300, 1e-300],
         [1e-300, -1e300], [-1e-300, 2e-300]]
    assert convex_hull_2d(P).tolist() == [[-1e300, -1e-300], [1e-300, -1e300],
                                          [1e300, 0.0], [0.0, 1e300]]


def test_far_pair():
    d, info = hausdorff_distance(FAR_TRIANGLE, [[0.0, 0.0]])
    assert d == 1e308 and info["certificate_direction"] in ([-1.0, 0.0], [1.0, 0.0])
    assert hausdorff_distance_definitional(FAR_TRIANGLE, [[0.0, 0.0]]) == 1e308
    rep = verify_order_isometry(FAR_TRIANGLE, [[0.0, 0.0]])
    assert rep["support_route"] == rep["definitional"] == 1e308
    assert rep["isometry_holds"] and rep["order_preserved"] and rep["b_subset_a"]


def test_distance_past_the_largest_float_reads_inf():
    A, B = [[1.7e308, 1.7e308]], [[-1.7e308, -1.7e308]]
    assert hausdorff_distance(A, B)[0] == math.inf
    assert hausdorff_distance_definitional(A, B) == math.inf


@pytest.mark.parametrize("other, distance", [([[0.0, 0.0]], 1e-310),
                                             ([[1e-310, 1e-310]], math.sqrt(2.0) * 1e-310)])
def test_subnormal_pairs(other, distance):
    d = hausdorff_distance(SUBNORMAL_TRIANGLE, other)[0]
    assert d == hausdorff_distance_definitional(SUBNORMAL_TRIANGLE, other)
    assert d == pytest.approx(distance, rel=1e-12)
    rep = verify_order_isometry(SUBNORMAL_TRIANGLE, other)
    assert rep["support_route"] == rep["definitional"] == d
    # within membership of each other, as any two subnormal sets are
    assert rep["a_subset_b"] and rep["b_subset_a"] and rep["order_preserved"]


def test_subnormal_set_beside_a_far_one():
    # the small hull's normals and sign test are read at its own scale
    far = [[1e300, 1e300], [0.0, 1e300], [1e300, 0.0]]
    for B in (far, [[1.0, 1.0], [2.0, 1.0], [1.0, 3.0]]):
        rep = verify_order_isometry(SUBNORMAL_TRIANGLE, B)
        assert rep["support_route"] == hausdorff_distance(SUBNORMAL_TRIANGLE, B)[0]
        assert rep["support_route"] == pytest.approx(rep["definitional"], rel=1e-15)
        assert not rep["a_subset_b"] and not rep["b_subset_a"] and rep["order_preserved"]


def test_far_set_beside_a_subnormal_one():
    # read at 2^-6, the subnormal triangle merges into fewer points: its
    # hull is taken of the points as read, with no edge of length 0
    A = [[-1.3e300, -3.1e302], [5.7e302, -1.4e302], [8.7e302, -1.1e302], [-2.7e302, 2.1e302]]
    B = [[-3.5e-323, 2e-322], [-1.93e-322, 5e-323], [1.4e-322, 6.4e-323], [1.7e-322, -3.5e-323]]
    for X, Y in ((A, B), (B, A)):
        rep = verify_order_isometry(X, Y)
        assert rep["support_route"] == hausdorff_distance(X, Y)[0]
        assert rep["support_route"] == pytest.approx(rep["definitional"], rel=1e-15)


def test_subnormal_vertex_difference_keeps_a_unit_direction():
    # (0, 0) - (3e-323, 3e-323) has a subnormal norm: normalized as it is,
    # its direction read (0.75, 0.75), and the gap there 1.5 beat sqrt(2)
    A, B = [[1e-300, 0.0], [0.0, 1e-300], [0.0, 0.0]], [[3e-323, 3e-323], [1.0, 1.0]]
    d, info = hausdorff_distance(A, B)
    assert d == hausdorff_distance_definitional(A, B) == math.sqrt(2.0)
    assert info["certificate_direction"] == [math.sqrt(0.5)] * 2


def test_cli_hausdorff_of_a_subnormal_set(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"version": 1, "lattice": {
        "a_vertices": SUBNORMAL_TRIANGLE, "b_vertices": [[0.0, 0.0]]}}))
    assert main(["hausdorff", "--problem", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 1e-310


@pytest.mark.parametrize("size, bits, cert", [
    (3e307, "0x1.3ebb8c56457c3p+1021", ["-0x1.f97d63e87c94ep-1", "-0x1.458da002ce780p-3"]),
    (1e-300, "0x1.bfb50c46ea150p-998", ["0x1.4bf2001fd6b19p-1", "0x1.85d0d417b90aep-1"]),
])
def test_sets_near_the_ends_keep_their_bits(size, bits, cert):
    # read at 2^-shift or not, the bits of the unscaled computation
    rng = np.random.default_rng(307)
    if size < 1:
        rng.normal(size=(11, 2))   # the second draw of the same stream
    A = rng.normal(size=(6, 2))
    A = A / np.abs(A).max() * size
    B = rng.normal(size=(5, 2)) + 0.5
    B = B / np.abs(B).max() * (size * 0.75)
    d, info = hausdorff_distance(A, B)
    assert d.hex() == bits and hexes(info["certificate_direction"]) == cert
    assert hausdorff_distance_definitional(A, B).hex() == bits
    rep = verify_order_isometry(A, B)
    assert rep["support_route"].hex() == rep["definitional"].hex() == bits


# --- batch rows of the gauge and of phi ----------------------------------------

def test_far_batch_rows_read_as_one_point():
    pyramid = PolyhedralCone(3, generators=[[1.0, 0.0, 0.4], [0.0, 1.0, 0.4],
                                            [-1.0, 0.0, 0.4], [0.0, -1.0, 0.4]])
    u = pyramid.generators.sum(axis=0)
    x = 1.3e308 * np.array([1.0, -1.0, 1.0])
    X = np.array([x, [1.0, 2.0, 3.0], -x, [0.0, 0.0, 0.0], [1.7e308] * 3, [-0.0, 0.0, 5e-324]])
    body = GaugeBody(pyramid, u)
    assert body.gauge(x) == 1.5751607060868425e308
    assert hexes(body.gauge_many(X)) == hexes(map(body.gauge, X))
    for e in (u, pyramid.generators[0]):   # interior, and on a face row
        phi = GerstewitzFn(pyramid, e)
        assert hexes(phi.value_many(X)) == hexes(map(phi.value, X))
