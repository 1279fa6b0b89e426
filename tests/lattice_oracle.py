"""Reference point-to-hull distances for the lattice tests, kept deliberately
plain: one point and one edge at a time, in scalar numpy operations.

The library computes every vertex-edge pair in one array pass
(conegen.lattice._hull_distances); the tests compare the two. Above the
plane the library solves one nearest-point QP per vertex; the oracle here
enumerates the candidate faces instead (hull_distances_nd).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np


def point_to_segment(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def inside_hull(p, hull: np.ndarray) -> bool:
    """Sign test of p against every edge of a ccw hull of 3 or more
    vertices, in exact rationals; False for a point or a segment."""
    n = hull.shape[0]
    if n < 3:
        return False
    p, hull = [Fraction(float(c)) for c in p], [[Fraction(float(c)) for c in v] for v in hull]
    for a, b in zip(hull, hull[1:] + hull[:1]):
        if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) < 0:
            return False
    return True


def point_to_hull(p, hull: np.ndarray) -> float:
    n = hull.shape[0]
    if n == 1:
        return float(np.linalg.norm(p - hull[0]))
    if n == 2:
        return point_to_segment(p, hull[0], hull[1])
    if inside_hull(p, hull):
        return 0.0
    return min(point_to_segment(p, hull[i], hull[(i + 1) % n]) for i in range(n))


def hull_distances_oracle(P, hull: np.ndarray):
    """(distances, inside flags) of every row of P, one point at a time."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return (np.array([point_to_hull(p, hull) for p in P]),
            np.array([inside_hull(p, hull) for p in P], dtype=bool))


def hull_distances_nd(P, Y) -> np.ndarray:
    """Distance of every row of P to conv(Y), in any dimension d, with no QP.

    By Caratheodory the nearest point of conv(Y) lies in the hull of at most
    d + 1 affinely independent points of Y, and it is the projection onto
    their affine hull, with weights >= 0 there. So each subset of at most
    d + 1 points gives a candidate: its affine projection, kept when the
    subset is independent and every weight is >= 0; the least kept distance
    is the distance (a single point always counts)."""
    P, Y = np.atleast_2d(np.asarray(P, float)), np.atleast_2d(np.asarray(Y, float))
    best = np.full(P.shape[0], np.inf)
    for size in range(1, min(P.shape[1] + 1, Y.shape[0]) + 1):
        for S in combinations(range(Y.shape[0]), size):
            M, R = (Y[list(S[1:])] - Y[S[0]]).T, (P - Y[S[0]]).T
            t, _, rank, _ = np.linalg.lstsq(M, R, rcond=None)
            if rank < size - 1:
                continue
            keep = (t >= 0.0).all(axis=0) & (t.sum(axis=0) <= 1.0)
            best = np.where(keep, np.minimum(best, np.linalg.norm(R - M @ t, axis=0)), best)
    return best
