"""Support-function embedding of compact convex sets and the Hausdorff metric.

A polytope embeds into the function lattice through h_A(d) = max_v <d, v>;
for compact convex sets the Hausdorff distance equals the sup-norm distance
of support functions over the Euclidean unit sphere. In the plane that sup
is computed exactly over a finite candidate set (the refined normal fan's
rays, i.e. the edge normals of both polytopes, plus the normalized pairwise
vertex differences where the piecewise-linear difference peaks inside a fan
cell). The definitional route (max vertex-to-hull distance, all pairs in one
array pass) shares only the two hulls with it, each built once per call. In
any other dimension each vertex-to-hull distance is a nearest-point QP, and
the farthest vertex's separating direction attains the sup exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import default_tolerances
from .duality import BoxProgram, solve_primal


class GridMismatch(ValueError):
    pass


def support_function(vertices, d) -> float:
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    if V.shape[0] == 0:
        raise ValueError("empty polytope")
    return float(np.max(V @ np.asarray(d, dtype=float)))


def support_values(vertices, directions) -> np.ndarray:
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    if V.shape[0] == 0:
        raise ValueError("empty polytope")
    return np.max(np.asarray(directions, dtype=float) @ V.T, axis=1)


# ---------------------------------------------------------------------------
# 2-D convex hull and elementary polygon geometry

def convex_hull_2d(points) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices in ccw order.

    Degenerate inputs collapse to a point or segment.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    pts = sorted(P.tolist())   # Python floats: sorted and compared as tuples
    pts = [pts[0]] + [p for q, p in zip(pts, pts[1:]) if p != q]
    if len(pts) <= 2:
        return np.array(pts)
    # each cross product's factors times 2^-e, 2^e the points' extent: no
    # product over- or underflows, and the hull of 2^k P is 2^k times P's
    s = math.ldexp(1.0, -math.frexp(max(-pts[0][0], pts[-1][0],
                                        *(abs(p[1]) for p in pts)))[1])

    def cross(o, a, b):
        return (a[0] - o[0]) * s * ((b[1] - o[1]) * s) - \
            (a[1] - o[1]) * s * ((b[0] - o[0]) * s)

    # Only an exactly collinear point is dropped: a margin would also drop
    # the far end of a thin near-vertical triangle, whose x order is not its
    # order along the line.
    lower, upper = [], []
    for p in pts:
        while len(lower) > 1 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) > 1 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:   # collinear input: the extremes along its longer axis
        Q = np.array(pts)
        k = int(np.argmax(np.ptp(Q, axis=0)))
        return Q[[np.argmin(Q[:, k]), np.argmax(Q[:, k])]]
    return np.array(hull)


def _edge_normals(hull: np.ndarray) -> np.ndarray:
    pts = hull.tolist()
    normals = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1] if len(pts) > 2 else pts[1:]):
        r = math.hypot(x1 - x0, y1 - y0)   # hypot: no underflow on tiny edges
        normals.append([(y1 - y0) / r, -((x1 - x0) / r)])  # outward for ccw order
    if len(pts) == 2:   # a segment: both normals of its one edge
        normals.append([-normals[0][0], -normals[0][1]])
    return np.array(normals).reshape(-1, 2)


def _hull_distances(P: np.ndarray, hull: np.ndarray):
    """(distances, inside) of the rows of P to conv(hull), in one array pass
    over every row-edge pair. Inside a hull of 3 or more vertices is an exact
    sign test of the edge cross products: a point near every edge's line of a
    thin hull may still lie far beyond its ends. The test does not depend on
    the scale of the input: it reads the same at 1e-160 as at 1."""
    AB = np.concatenate([hull[1:], hull[:1]]) - hull   # 0 for a one-point hull
    AP = P[:, None, :] - hull[None, :, :]
    abx, aby, apx, apy = AB[:, 0], AB[:, 1], AP[..., 0], AP[..., 1]
    # project on unit edges: |AB|^2 would underflow on edges near 1e-160
    length = np.hypot(abx, aby)
    ux, uy = (AB / np.where(length > 0, length, 1.0)[:, None]).T
    t = np.minimum(np.maximum(apx * ux + apy * uy, 0.0), length)
    dist = np.minimum.reduce(np.hypot(apx - t * ux, apy - t * uy), axis=1)
    if hull.shape[0] < 3:
        return dist, np.zeros(P.shape[0], dtype=bool)
    # the sign test's edges times 4^-e, 2^e the hull's extent: the cross
    # products are then of the order of |AP| / 2^e and, exactly rescaled,
    # keep their signs
    cx, cy = np.ldexp(AB, -2 * math.frexp(float(np.abs(AB).max()))[1]).T
    inside = np.logical_and.reduce(cx * apy - cy * apx >= 0, axis=1)
    dist[inside] = 0.0
    return dist, inside


# ---------------------------------------------------------------------------
# direction grids

def direction_grid(dim: int, n: int = 1024, seed: int = 0) -> np.ndarray:
    """Quasi-uniform unit directions: uniform angles (2-D), Fibonacci sphere
    (3-D), seeded Gaussian normalization above that."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = 2 * np.pi * np.arange(n) / n
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if dim == 3:
        k = np.arange(n) + 0.5
        phi = np.arccos(1 - 2 * k / n)
        theta = np.pi * (1 + math.sqrt(5)) * k
        return np.stack([np.sin(phi) * np.cos(theta),
                         np.sin(phi) * np.sin(theta),
                         np.cos(phi)], axis=1)
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(n, dim))
    return D / np.linalg.norm(D, axis=1)[:, None]


# ---------------------------------------------------------------------------
# Hausdorff distance

def _as_pair(a_vertices, b_vertices):
    A = np.atleast_2d(np.asarray(a_vertices, dtype=float))
    B = np.atleast_2d(np.asarray(b_vertices, dtype=float))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("empty polytope")
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch")
    return A, B


def _exact_directions_2d(hull_a: np.ndarray, hull_b: np.ndarray) -> np.ndarray:
    diff = (hull_a[:, None, :] - hull_b[None, :, :]).reshape(-1, 2)
    norms = np.hypot(diff[:, 0], diff[:, 1])
    nz = norms > 0
    units = diff[nz] / norms[nz][:, None]
    return np.vstack([_edge_normals(hull_a), _edge_normals(hull_b), units, -units])


def _support_route_2d(A, B, hull_a, hull_b):
    """(distance, certificate direction, h_A, h_B): the support gaps of the
    point sets A and B on the exact candidate directions of their hulls."""
    D = _exact_directions_2d(hull_a, hull_b)
    if D.shape[0] == 0:   # both singletons at the same point
        return 0.0, None, np.zeros(0), np.zeros(0)
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
    Y, centred at a; a solve that ends other than "optimal" raises."""
    sep = []
    for P, Y in ((A, B), (B, A)):
        k = Y.shape[0]
        for Yc in Y[None, :, :] - P[:, None, :]:
            if not np.all(np.any(Yc, axis=1)):   # y - a is 0 only at y = a
                sep.append(np.zeros(P.shape[1]))
            elif k == 1:   # the one weight is 1: a - y, as the QP's w = [1.0] gives it
                sep.append(-Yc[0])
            else:
                res = solve_primal(BoxProgram(n=k, Q=Yc @ Yc.T, q=np.zeros(k), c=0.0,
                                              x_lo=np.zeros(k), x_hi=np.ones(k),
                                              H=np.ones((1, k)), h0=-np.ones(1)))
                if res.status != "optimal":
                    raise RuntimeError(f"nearest-point QP ended {res.status!r}")
                sep.append(-(res.x @ Yc))
    dists = np.linalg.norm(sep, axis=1)
    return dists, np.array(sep) / np.where(dists > 0, dists, 1.0)[:, None]


def hausdorff_distance(a_vertices, b_vertices):
    """Euclidean Hausdorff distance, exact in every dimension; returns
    (distance, info dict). In the plane, the sup of |h_A - h_B| over the
    hulls' finite candidate set. Otherwise the largest vertex-to-hull
    distance (a convex function peaks at a vertex), and the certificate
    u = (a* - p*) / |a* - p*|, a* that vertex and p* its nearest point,
    attains it: |h_A(u) - h_B(u)| >= |a* - p*| = sup |h_A - h_B|."""
    A, B = _as_pair(a_vertices, b_vertices)
    if A.shape[1] == 2:
        dist, cert, _, _ = _support_route_2d(A, B, convex_hull_2d(A), convex_hull_2d(B))
        return dist, {"exact": True, "certificate_direction": cert}
    dists, U = _separations(A, B)
    k = int(np.argmax(dists))
    return float(dists[k]), {"exact": True,
                             "certificate_direction": U[k].tolist() if dists[k] > 0 else None}


def hausdorff_distance_definitional(a_vertices, b_vertices) -> float:
    """2-D Hausdorff distance straight from the enlargement definition:
    max over each hull's vertices of the Euclidean distance to the other hull.

    It shares only the hulls with the support route: no direction, support
    value or gap. Each distance is the nearest point on the other hull's
    edges, or 0 inside it by an exact sign test (_hull_distances)."""
    hull_a = convex_hull_2d(a_vertices)
    hull_b = convex_hull_2d(b_vertices)
    return max(float(_hull_distances(hull_a, hull_b)[0].max()),
               float(_hull_distances(hull_b, hull_a)[0].max()))


# ---------------------------------------------------------------------------
# lattice elements

@dataclass
class SupportSample:
    """Support values on a fixed direction grid.

    kind records whether the values are known to be a support function
    ("support_function") or only an element of the surrounding function
    lattice ("function_lattice"), which is all a pointwise min guarantees.
    """

    directions: np.ndarray
    values: np.ndarray
    vertices: np.ndarray | None = None
    kind: str = "support_function"

    @classmethod
    def from_polytope(cls, vertices, directions) -> "SupportSample":
        D = np.asarray(directions, dtype=float)
        return cls(directions=D, values=support_values(vertices, D),
                   vertices=np.atleast_2d(np.asarray(vertices, dtype=float)))

    def _check_grid(self, other: "SupportSample"):
        if self.directions.shape != other.directions.shape or \
                np.max(np.abs(self.directions - other.directions)) > \
                default_tolerances().grid_match:
            raise GridMismatch("support samples live on different direction grids")


def lattice_join(a: SupportSample, b: SupportSample) -> SupportSample:
    """Pointwise max; equals the support function of conv(A u B) on the grid."""
    a._check_grid(b)
    verts = None
    if a.vertices is not None and b.vertices is not None:
        verts = np.vstack([a.vertices, b.vertices])
        if verts.shape[1] == 2:
            verts = convex_hull_2d(verts)
    kind = "support_function" if (a.kind == b.kind == "support_function") \
        else "function_lattice"
    return SupportSample(directions=a.directions,
                         values=np.maximum(a.values, b.values),
                         vertices=verts, kind=kind)


def lattice_meet(a: SupportSample, b: SupportSample) -> SupportSample:
    """Pointwise min; a function-lattice element, not necessarily a support
    function of any set."""
    a._check_grid(b)
    return SupportSample(directions=a.directions,
                         values=np.minimum(a.values, b.values),
                         vertices=None, kind="function_lattice")


def verify_order_isometry(a_vertices, b_vertices) -> dict:
    """Report comparing the metric and order on sets with their images.

    The support route must match the definitional enlargement distance to
    Tolerances.isometry, and inclusion (every vertex within membership of the
    other hull) must match pointwise dominance of support values, at
    membership, on a direction set: in the plane the exact candidate set of
    the hulls, each built once; elsewhere every vertex's separating direction,
    the support route then being the gap at the certificate direction.
    """
    tols = default_tolerances()
    A, B = _as_pair(a_vertices, b_vertices)
    if A.shape[1] == 2:
        hull_a, hull_b = convex_hull_2d(A), convex_hull_2d(B)
        support_route, _, h_a, h_b = _support_route_2d(A, B, hull_a, hull_b)
        d_ab = _hull_distances(hull_a, hull_b)[0]
        d_ba = _hull_distances(hull_b, hull_a)[0]
    else:
        dists, U = _separations(A, B)
        h_a, h_b = support_values(A, U), support_values(B, U)
        k = int(np.argmax(dists))
        support_route = abs(float(h_a[k] - h_b[k]))
        d_ab, d_ba = dists[:A.shape[0]], dists[A.shape[0]:]
    definitional = max(float(d_ab.max()), float(d_ba.max()))
    a_in_b_geom = bool(np.all(d_ab <= tols.membership))
    b_in_a_geom = bool(np.all(d_ba <= tols.membership))
    a_in_b_supp = bool(np.all(h_a <= h_b + tols.membership))
    b_in_a_supp = bool(np.all(h_b <= h_a + tols.membership))
    return {
        "exact": True,
        "support_route": support_route,
        "definitional": definitional,
        "isometry_holds": abs(support_route - definitional) <= tols.isometry,
        "order_preserved": (a_in_b_geom == a_in_b_supp) and (b_in_a_geom == b_in_a_supp),
        "a_subset_b": a_in_b_geom,
        "b_subset_a": b_in_a_geom,
    }
