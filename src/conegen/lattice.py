"""Support-function embedding of compact convex sets and the Hausdorff metric.

A polytope embeds into the function lattice through h_A(d) = max_v <d, v>;
for compact convex sets the Hausdorff distance equals the sup-norm distance
of support functions over the Euclidean unit sphere. In the plane that sup
is computed exactly over a finite candidate set (the refined normal fan's
rays, i.e. the edge normals of both polytopes, plus the normalized pairwise
vertex differences where the piecewise-linear difference peaks inside a fan
cell). The definitional route (max vertex-to-hull distance, both hulls'
vertices against the other's edges in one array pass) shares only the two
hulls with it. Each input is read once: checked by `as_matrix`, read at a
power of two for a far or subnormal pair, and its Python rows chained into
its hull. In any other dimension each vertex-to-hull distance is a
nearest-point QP, and the farthest vertex's separating direction attains
the sup exactly.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from sys import float_info

import numpy as np

from .config import default_tolerances
from .duality import BoxProgram, solve_primal
from .numkernel import PRODUCT_E, SUM_E, as_matrix, pow2_shift, row_norms


def support_values(vertices, directions) -> np.ndarray:
    V = as_matrix(vertices, name="vertices")
    if V.shape[0] == 0:
        raise ValueError("empty polytope")
    return np.max(as_matrix(directions, V.shape[1], "directions") @ V.T, axis=1)


# ---------------------------------------------------------------------------
# 2-D convex hull and elementary polygon geometry

# A pair whose largest |coordinate| lies beyond 2^PRODUCT_E, where a cross
# product of two differences could overflow, or below 2^-(PRODUCT_E + 1) but
# is not 0, where a difference or a product could go subnormal, is read at
# 2^-shift, shift = pow2_shift(top, -PRODUCT_E, PRODUCT_E): the least power of
# two that brings it back. The way up is exact; the way down rounds only
# entries below 2^-(1022 - shift). A difference whose norm is subnormal is
# read the same way before it is normalized.

# Every planar sign, the hull chain's turns and the inside test's, is that
# of the exact cross product (a - o) x (p - o). Shewchuk's orient2d static
# filter (Discrete Comput. Geom. 18, 1997) decides it from the rounded one,
# det = left - right of the products left = (a - o)_x (p - o)_y and right =
# (a - o)_y (p - o)_x: det's sign is certain when |det| exceeds CROSS_ERR
# (|left| + |right|), plus CROSS_TINY for the absolute error of products
# that underflow. An overflow leaves it undecided, and the few signs it
# leaves are decided in exact integers (_cross_sign).
CROSS_ERR, CROSS_TINY = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53, 2.0 ** -1072


def _cross_sign(o, a, p) -> int:
    """The sign of the exact cross product (a - o) x (p - o) of Python float
    rows: each coordinate is n / 2^j, an integer at the rows' common 2^J."""
    ratios = [c.as_integer_ratio() for c in (*o, *a, *p)]
    den = max(d for _, d in ratios)
    ox, oy, ax, ay, px, py = (n * (den // d) for n, d in ratios)
    det = (ax - ox) * (py - oy) - (ay - oy) * (px - ox)
    return (det > 0) - (det < 0)


def _hull_rows(rows: list) -> list:
    """Andrew's monotone chain over Python rows [x, y]: the hull rows in ccw
    order. Degenerate inputs collapse to a point or a segment. Each turn is
    an exact sign, so the hull of 2^k P is 2^k times P's at any scale, and
    only an exactly collinear point is dropped (a margin would also drop the
    far end of a thin near-vertical triangle, whose x order is not its order
    along the line)."""
    pts = sorted(rows)   # Python floats: sorted and compared as lists
    if len(pts) > 2:
        lower, upper = [], []
        for half, seq in ((lower, pts), (upper, pts[::-1])):
            for p in seq:
                while len(half) > 1:
                    o, a = half[-2], half[-1]
                    (ox, oy), (ax, ay) = o, a
                    left, right = (ax - ox) * (p[1] - oy), (ay - oy) * (p[0] - ox)
                    det, bound = left - right, CROSS_ERR * (abs(left) + abs(right)) + CROSS_TINY
                    # a left turn, certain or (|det| <= bound, or nan) exact
                    if det > bound or (not det < -bound and _cross_sign(o, a, p) > 0):
                        break
                    half.pop()
                half.append(p)
        hull = lower[:-1] + upper[:-1]
        if len(hull) > 2:
            return hull
    pts = [pts[0]] + [p for q, p in zip(pts, pts[1:]) if p != q]
    if len(pts) <= 2:   # one or two distinct points
        return pts
    # collinear input: the extremes along its longer axis
    ys = [p[1] for p in pts]
    col = ys if max(ys) - min(ys) > pts[-1][0] - pts[0][0] else [p[0] for p in pts]
    return [pts[col.index(min(col))], pts[col.index(max(col))]]


def convex_hull_2d(points) -> np.ndarray:
    """Andrew monotone chain (_hull_rows); returns hull vertices in ccw order.
    It is the lattice join: conv(A u B) has the support function
    max(h_A, h_B), which criterion 7 checks.

    Degenerate inputs collapse to a point or segment; an empty set is refused.
    """
    P = as_matrix(points, 2, "points")
    if P.shape[0] == 0:
        raise ValueError("empty polytope")
    return np.array(_hull_rows(P.tolist()))


@lru_cache(maxsize=256)
def _pair_layout(m: int, k: int, mutual: bool):
    """Index arrays for _hull_distances over m points and a hull of k
    vertices, stacked as columns hull 0..k-1, then points k..k+m-1: each
    edge's end column (the edge from column j is edge j; with mutual the
    points are a hull too and have edges), then for every pair its point's
    column and its edge, and the first pair of each point. Point i meets
    every hull edge; with mutual, hull vertex j then meets every edge of
    the points' hull."""
    nxt = [*range(1, k), 0] + ([*range(k + 1, k + m), k] if mutual else [])
    point = [k + i for i in range(m) for _ in range(k)]
    edge, starts = [*range(k)] * m, [*range(0, m * k, k)]
    if mutual:
        point += [j for j in range(k) for _ in range(m)]
        edge += [*range(k, k + m)] * k
        starts += range(m * k, 2 * m * k, m)
    return np.array(nxt), np.array(point), np.array(edge), np.array(starts)


def _hull_distances(P: np.ndarray, hull: np.ndarray, mutual: bool = False):
    """(distances, inside) of the rows of P to conv(hull) and, with mutual
    (P a ccw hull too), then those of hull's rows to conv(P), in one array
    pass over every point-edge pair of both blocks. Inside a hull of 3 or
    more vertices is the exact sign of every edge's cross product: a point
    near every edge's line of a thin hull may still lie far beyond its ends.
    The test does not depend on the scale of the input: it reads the same at
    1e-160 as at 1."""
    m, k = P.shape[0], hull.shape[0]
    nxt, point, edge, starts = _pair_layout(m, k, mutual)
    V = np.concatenate([hull, P]).T
    W = V[:, :nxt.size]   # the vertices whose edges are read
    AB = V[:, nxt] - W    # each hull's edges; 0 for a one-point hull
    # project on unit edges: |AB|^2 would underflow on edges near 1e-160
    length = np.hypot(AB[0], AB[1])
    # per edge: start vertex, unit edge, length and edge
    T = np.concatenate([W, AB / (length + (length == 0)), length[None], AB])
    G = T[:, edge]
    (apx, apy), (ux, uy, length, abx, aby) = V[:, point] - G[:2], G[2:]
    t = np.minimum(np.maximum(apx * ux + apy * uy, 0.0), length)
    dist = np.minimum.reduceat(np.hypot(apx - t * ux, apy - t * uy), starts)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is undecided
        left, right = abx * apy, aby * apx
        det = left - right
        certain = abs(det) > CROSS_ERR * (abs(left) + abs(right)) + CROSS_TINY
    if k < 3 or (mutual and m < 3):   # a hull of 1 or 2 vertices has no inside
        flat = np.repeat([k < 3, m < 3], (k, m))[:nxt.size][edge]
        det[flat], certain[flat] = -1.0, True
    for i in np.flatnonzero(~certain).tolist():
        j = edge[i]
        det[i] = _cross_sign(V[:, j].tolist(), V[:, nxt[j]].tolist(), V[:, point[i]].tolist())
    inside = np.minimum.reduceat(det, starts) >= 0
    dist[inside] = 0.0
    return dist, inside


# ---------------------------------------------------------------------------
# Hausdorff distance

def _as_pair(a_vertices, b_vertices):
    """(A, B, A's rows, B's rows): two vertex arrays of one dimension with
    finite entries (`as_matrix`), and their rows as Python lists."""
    A, B = as_matrix(a_vertices, name="vertices"), as_matrix(b_vertices, name="vertices")
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("empty polytope")
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch")
    return A, B, A.tolist(), B.tolist()


def _planar(A, B, rows_a, rows_b):
    """(A, B, hull_a, hull_b, shift, top): both sets and their hull rows,
    read at 2^-shift, shift from the pair's largest |coordinate|, and that
    coordinate as read."""
    top = max(map(abs, chain(*rows_a, *rows_b)))
    shift = pow2_shift(top, -PRODUCT_E, PRODUCT_E)
    if shift:   # the hulls of the sets as read: a far shift can merge small points
        A, B = np.ldexp(A, -shift), np.ldexp(B, -shift)
        rows_a, rows_b = A.tolist(), B.tolist()
    return A, B, _hull_rows(rows_a), _hull_rows(rows_b), shift, math.ldexp(top, -shift)


def _exact_directions_2d(hull_a: list, hull_b: list) -> np.ndarray:
    """The outward edge normals of both hulls (both normals of a segment),
    then the normalized vertex differences a - b of the two hulls and their
    negatives; a zero difference has no direction and is left out."""
    normals = []
    for hull in (hull_a, hull_b):
        for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1] if len(hull) > 2 else hull[1:]):
            dx, dy = x1 - x0, y1 - y0
            r = math.hypot(dx, dy)   # hypot: no underflow on tiny edges
            if r < float_info.min:   # a subnormal r has too few bits to divide by
                s = 2.0 ** -pow2_shift(r, -PRODUCT_E, SUM_E)
                dx, dy = dx * s, dy * s
                r = math.hypot(dx, dy)
            normals.append([dy / r, -(dx / r)])   # outward for ccw order
        if len(hull) == 2:
            normals.append([-normals[-1][0], -normals[-1][1]])
    na, n = len(hull_a), len(hull_a) + len(hull_b)
    M = np.array(hull_a + hull_b + normals)   # one conversion: hull rows, then normals
    diff = (M[:na, None] - M[None, na:n]).reshape(-1, 2)
    norms = np.hypot(diff[:, 0], diff[:, 1])
    if norms.min() < float_info.min:   # a zero difference has no direction
        keep = norms > 0   # a subnormal norm is read at the shift of the least one
        up = 2.0 ** -pow2_shift(float(np.min(norms, where=keep, initial=1.0)), -PRODUCT_E, SUM_E)
        diff = diff[keep] * np.where(norms[keep] < float_info.min, up, 1.0)[:, None]
        norms = np.hypot(diff[:, 0], diff[:, 1])
    units = diff / norms[:, None]
    return np.concatenate([M[n:], units, -units])


def _support_route_2d(A, B, hull_a, hull_b):
    """(distance, certificate direction, h_A, h_B): the support gaps of the
    point sets A and B on the exact candidate directions of their hulls. Sets
    of two or more points are read with one product, each set's maxima with
    one reduceat; numpy multiplies by a lone point as a matrix-vector
    product, which can round the last bit apart from the matrix product, so
    such a set is read on its own."""
    D = _exact_directions_2d(hull_a, hull_b)
    if D.shape[0] == 0:   # both singletons at the same point
        return 0.0, None, np.zeros(0), np.zeros(0)
    if min(A.shape[0], B.shape[0]) > 1:
        h_a, h_b = np.maximum.reduceat((D @ np.concatenate([A, B]).T).T, [0, A.shape[0]])
    else:
        h_a, h_b = support_values(A, D), support_values(B, D)
    gaps = np.abs(h_a - h_b)
    k = int(np.argmax(gaps))
    return float(gaps[k]), D[k].tolist(), h_a, h_b


def _separations(A: np.ndarray, B: np.ndarray):
    """(distances, unit directions a - p(a)) of each point a of A, then of B,
    p(a) its nearest point in the other hull (direction 0 at distance 0).
    A point of the other set is its own p(a), at distance 0.0 exactly, and
    a one-point set {y} is p(a) = y. Otherwise p(a) is a BoxProgram,
    min 0.5 |(Y - a)'w|^2 over the weight simplex of the other set's points
    Y, centred at a, and read at the power of two of Y - a's largest
    |entry|, so that 2^k A and 2^k B pose the same QP as A and B; a solve
    that ends other than "optimal" raises."""
    sep = []
    for P, Y in ((A, B), (B, A)):
        k = Y.shape[0]
        for Yc in Y[None, :, :] - P[:, None, :]:
            if not np.all(np.any(Yc, axis=1)):   # y - a is 0 only at y = a
                sep.append(np.zeros(P.shape[1]))
            elif k == 1:   # the one weight is 1: a - y, as the QP's w = [1.0] gives it
                sep.append(-Yc[0])
            else:
                Ys = np.ldexp(Yc, -pow2_shift(float(np.abs(Yc).max()), 0, 0))
                res = solve_primal(BoxProgram(n=k, Q=Ys @ Ys.T, q=np.zeros(k), c=0.0,
                                              x_lo=np.zeros(k), x_hi=np.ones(k),
                                              H=np.ones((1, k)), h0=-np.ones(1)))
                if res.status != "optimal":
                    raise RuntimeError(f"nearest-point QP ended {res.status!r}")
                sep.append(-(res.x @ Yc))
    sep = np.array(sep)
    dists = row_norms(sep)
    return dists, sep / np.where(dists > 0, dists, 1.0)[:, None]


def hausdorff_distance(a_vertices, b_vertices):
    """Euclidean Hausdorff distance, exact in every dimension; returns
    (distance, info dict). In the plane, the sup of |h_A - h_B| over the
    hulls' finite candidate set. Otherwise the largest vertex-to-hull
    distance (a convex function peaks at a vertex), and the certificate
    u = (a* - p*) / |a* - p*|, a* that vertex and p* its nearest point,
    attains it: |h_A(u) - h_B(u)| >= |a* - p*| = sup |h_A - h_B|."""
    A, B, rows_a, rows_b = _as_pair(a_vertices, b_vertices)
    if A.shape[1] == 2:
        A, B, hull_a, hull_b, shift, _ = _planar(A, B, rows_a, rows_b)
        dist, cert, _, _ = _support_route_2d(A, B, hull_a, hull_b)
        return dist * 2.0 ** shift, {"exact": True, "certificate_direction": cert}
    dists, U = _separations(A, B)
    k = int(np.argmax(dists))
    return float(dists[k]), {"exact": True,
                             "certificate_direction": U[k].tolist() if dists[k] > 0 else None}


def _enlargement_2d(hull_a: list, hull_b: list) -> np.ndarray:
    """The distances of hull_a's vertices to conv(hull_b), then of hull_b's
    to conv(hull_a): one two-block _hull_distances pass."""
    H, n = np.array(hull_a + hull_b), len(hull_a)
    return _hull_distances(H[:n], H[n:], mutual=True)[0]


def hausdorff_distance_definitional(a_vertices, b_vertices) -> float:
    """Hausdorff distance straight from the enlargement definition, in every
    dimension: max over each set's vertices of the Euclidean distance to the
    other set's hull: the reference route, whose value the "definitional"
    entry of verify_order_isometry's report gives bit for bit.

    In the plane it shares only the hulls with the support route: no
    direction, support value or gap. Each distance is the nearest point on
    the other hull's edges, or 0 inside it by an exact sign test
    (_hull_distances). Elsewhere each distance is a nearest-point QP of
    `_separations`, so the result equals `hausdorff_distance`'s."""
    A, B, rows_a, rows_b = _as_pair(a_vertices, b_vertices)
    if A.shape[1] != 2:
        return float(_separations(A, B)[0].max())
    _, _, hull_a, hull_b, shift, _ = _planar(A, B, rows_a, rows_b)
    return float(_enlargement_2d(hull_a, hull_b).max()) * 2.0 ** shift


def verify_order_isometry(a_vertices, b_vertices) -> dict:
    """Report comparing the metric and order on sets with their images.

    The support route must match the definitional enlargement distance to
    Tolerances.isometry times the largest of the two and of the pair's
    |coordinates|: support values round in units of the coordinates, not of
    the distance, and the bound reads the same at every scale of the input.
    Inclusion (every vertex within membership of the other hull) must match
    pointwise dominance of support values, at membership, on a direction set: in the
    plane the exact candidate set of the hulls, each built once; elsewhere
    every vertex's separating direction, the support route then being the
    gap at the certificate direction.
    """
    tols = default_tolerances()
    A, B, rows_a, rows_b = _as_pair(a_vertices, b_vertices)
    if A.shape[1] == 2:
        A, B, hull_a, hull_b, shift, top = _planar(A, B, rows_a, rows_b)
        support_route, _, h_a, h_b = _support_route_2d(A, B, hull_a, hull_b)
        d, n = _enlargement_2d(hull_a, hull_b), len(hull_a)
    else:
        shift, n, top = 0, A.shape[0], float(max(np.abs(A).max(), np.abs(B).max()))
        d, U = _separations(A, B)
        h_a, h_b = support_values(A, U), support_values(B, U)
        k = int(np.argmax(d))
        support_route = abs(float(h_a[k] - h_b[k]))
    # each set's largest distance to the other hull; distances and support
    # values are read at 2^-shift, and so is the slack they are held to
    d_ab, d_ba = np.maximum.reduceat(d, [0, n]).tolist()
    scale, slack = 2.0 ** shift, tols.membership * 2.0 ** -shift
    definitional = max(d_ab, d_ba)
    bound = max(top, support_route, definitional)   # the size the gaps round in
    a_in_b_geom, b_in_a_geom = d_ab <= slack, d_ba <= slack
    supp = (h_a <= h_b + slack).all(), (h_b <= h_a + slack).all()
    return {
        "exact": True,
        "support_route": support_route * scale,
        "definitional": definitional * scale,
        "isometry_holds": abs(support_route - definitional) <= tols.isometry * bound,
        "order_preserved": (a_in_b_geom, b_in_a_geom) == supp,
        "a_subset_b": a_in_b_geom,
        "b_subset_a": b_in_a_geom,
    }
