"""Support-function embedding of compact convex sets and the Hausdorff metric.

A polytope embeds into the function lattice through h_A(d) = max_v <d, v>;
for compact convex sets the Hausdorff distance equals the sup-norm distance
of support functions over the Euclidean unit sphere. In the plane that sup
is computed exactly over a finite candidate set (the refined normal fan's
rays, i.e. the edge normals of both polytopes, plus the normalized pairwise
vertex differences where the piecewise-linear difference peaks inside a fan
cell). In higher dimension a quasi-uniform direction sample is used and the
sampling resolution is reported, never hidden.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import default_tolerances


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
    pts = sorted(map(tuple, P))
    pts = [pts[0]] + [p for q, p in zip(pts, pts[1:]) if p != q]
    if len(pts) <= 2:
        return np.array(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

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
    n = hull.shape[0]
    if n == 1:
        return np.zeros((0, 2))
    if n == 2:
        t = hull[1] - hull[0]
        t = t / math.hypot(*t)   # hypot: no underflow on tiny edges
        return np.array([[t[1], -t[0]], [-t[1], t[0]]])
    normals = []
    for i in range(n):
        t = hull[(i + 1) % n] - hull[i]
        t = t / math.hypot(*t)
        normals.append([t[1], -t[0]])  # outward for ccw order
    return np.array(normals)


def _point_to_segment(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def _point_to_hull(p, hull: np.ndarray) -> float:
    n = hull.shape[0]
    if n == 1:
        return float(np.linalg.norm(p - hull[0]))
    if n == 2:
        return _point_to_segment(p, hull[0], hull[1])
    # an exact sign test: a point near every edge's line of a thin hull may
    # still lie far beyond its ends
    inside = True
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) < 0:
            inside = False
            break
    if inside:
        return 0.0
    return min(_point_to_segment(p, hull[i], hull[(i + 1) % n]) for i in range(n))


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


def covering_radius_estimate(directions: np.ndarray, probes: int = 512,
                             seed: int = 1) -> float:
    """Estimated covering radius of a direction sample on the unit sphere."""
    rng = np.random.default_rng(seed)
    dim = directions.shape[1]
    P = rng.normal(size=(probes, dim))
    P /= np.linalg.norm(P, axis=1)[:, None]
    cosines = np.clip(P @ directions.T, -1.0, 1.0)
    return float(np.max(np.arccos(np.max(cosines, axis=1))))


# ---------------------------------------------------------------------------
# Hausdorff distance

def _exact_directions_2d(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    hull_a = convex_hull_2d(A)
    hull_b = convex_hull_2d(B)
    cands = [_edge_normals(hull_a), _edge_normals(hull_b)]
    diff = hull_a[:, None, :] - hull_b[None, :, :]
    diff = diff.reshape(-1, 2)
    norms = np.hypot(diff[:, 0], diff[:, 1])
    nz = norms > 0
    if np.any(nz):
        units = diff[nz] / norms[nz][:, None]
        cands += [units, -units]
    cands = [c for c in cands if c.size]
    if not cands:
        return np.zeros((0, 2))
    return np.vstack(cands)


def hausdorff_distance(a_vertices, b_vertices, n_sample: int = 1024,
                       directions=None):
    """Hausdorff distance through support functions.

    Dimension 2: exact over the Euclidean dual sphere (the sup of |h_A - h_B|
    is attained on the finite candidate set). Higher dimension: sampled max
    plus a reported resolution bound. The constructions are norm-dependent;
    the Euclidean ball is the fixed default, and callers may supply their own
    dual-sphere sample through `directions` (which also forces sampled mode).
    Returns (distance, info dict).
    """
    A = np.atleast_2d(np.asarray(a_vertices, dtype=float))
    B = np.atleast_2d(np.asarray(b_vertices, dtype=float))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("empty polytope")
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch")
    dim = A.shape[1]
    if dim == 2 and directions is None:
        D = _exact_directions_2d(A, B)
        if D.shape[0] == 0:   # both singletons at the same point
            return 0.0, {"exact": True, "certificate_direction": None}
        gaps = np.abs(support_values(A, D) - support_values(B, D))
        k = int(np.argmax(gaps))
        return float(gaps[k]), {"exact": True,
                                "certificate_direction": D[k].tolist()}
    D = direction_grid(dim, n_sample) if directions is None \
        else np.asarray(directions, dtype=float)
    gaps = np.abs(support_values(A, D) - support_values(B, D))
    k = int(np.argmax(gaps))
    lip = float(np.max(np.linalg.norm(A, axis=1)) + np.max(np.linalg.norm(B, axis=1)))
    theta = covering_radius_estimate(D)
    return float(gaps[k]), {
        "exact": False,
        "certificate_direction": D[k].tolist(),
        "resolution_bound": lip * theta,
        "covering_radius_estimate": theta,
    }


def hausdorff_distance_definitional(a_vertices, b_vertices) -> float:
    """2-D Hausdorff distance straight from the enlargement definition:
    max over each hull's vertices of the Euclidean distance to the other set.
    Kept independent of the support-function route on purpose."""
    hull_a = convex_hull_2d(a_vertices)
    hull_b = convex_hull_2d(b_vertices)
    d_ab = max(_point_to_hull(p, hull_b) for p in hull_a)
    d_ba = max(_point_to_hull(p, hull_a) for p in hull_b)
    return max(d_ab, d_ba)


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
                np.max(np.abs(self.directions - other.directions)) > 1e-12:
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

    The support route of hausdorff_distance must match the definitional
    enlargement computation to 1e-9, and inclusion must match pointwise
    dominance of support values on the exact direction set.
    """
    tol = default_tolerances().membership
    A = np.atleast_2d(np.asarray(a_vertices, dtype=float))
    B = np.atleast_2d(np.asarray(b_vertices, dtype=float))
    if A.shape[1] != 2:
        dist, info = hausdorff_distance(A, B)
        return {"exact": False, "support_route": dist,
                "resolution_bound": info.get("resolution_bound"),
                "isometry_holds": None}
    support_route, _ = hausdorff_distance(A, B)
    definitional = hausdorff_distance_definitional(A, B)
    D = _exact_directions_2d(A, B)
    if D.shape[0] == 0:
        h_a = h_b = np.zeros(0)
    else:
        h_a = support_values(A, D)
        h_b = support_values(B, D)
    hull_a = convex_hull_2d(A)
    hull_b = convex_hull_2d(B)
    a_in_b_geom = all(_point_to_hull(p, hull_b) <= 1e-9 for p in hull_a)
    b_in_a_geom = all(_point_to_hull(p, hull_a) <= 1e-9 for p in hull_b)
    a_in_b_supp = bool(np.all(h_a <= h_b + tol)) if D.size else True
    b_in_a_supp = bool(np.all(h_b <= h_a + tol)) if D.size else True
    return {
        "exact": True,
        "support_route": support_route,
        "definitional": definitional,
        "isometry_holds": abs(support_route - definitional) <= 1e-9,
        "order_preserved": (a_in_b_geom == a_in_b_supp) and (b_in_a_geom == b_in_a_supp),
        "a_subset_b": a_in_b_geom,
        "b_subset_a": b_in_a_geom,
    }
