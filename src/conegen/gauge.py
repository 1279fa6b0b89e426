"""Generating-space norms as Minkowski gauges of order intervals.

The norm of the space generated by an interior element u of an ordering cone
C = {x : <h_k, x> >= 0} is ||x||_u = inf{lam > 0 : -lam u <=_C x <=_C lam u},
the gauge of the symmetric order interval [-u, u]. Row k of the two order
constraints reads lam <h_k, u> >= |<h_k, x>|, so the gauge is the closed form
max_k |<h_k, x>| / <h_k, u>: the sup-norm of the image of x under the linear
isometry x -> (<h_k, x> / <h_k, u>)_k into the finite sup-norm space. On the
coordinate cone this is the weighted sup-norm max_i |x_i| / u_i and the
isometry is onto. No gauge here runs an LP.
"""
from __future__ import annotations

import math
from operator import truediv

import numpy as np

from .config import default_tolerances
from .cones import InvalidCone, OrderUnit, PolyhedralCone, read_point, scaled_rows
from .numkernel import PRODUCT_E, as_matrix, as_vector, pow2_shift


class GaugeBody:
    """Order interval [-u, u] of a cone with u in the cone's interior."""

    def __init__(self, cone: PolyhedralCone, u):
        self.cone = cone
        self.u = as_vector(u, cone.dim, "generating element")
        if not cone.interior_contains(self.u):
            raise InvalidCone("generating element u must lie in the interior of the cone")
        self._unit = OrderUnit(cone, self.u)

    def gauge(self, x) -> float:
        """||x||_u = max_k |<h_k, x>| / <h_k, u>, the sup-norm of x's isometry
        image, x read at 1 / scale of its size (`read_point`). One gemv
        (`halfspace_values`), then the ratio over Python lists (u is
        interior: every <h_k, u> > 0, so |a| / h is |a / h| to the bit):
        1.7 us a call on the wedge against 2.5 us for the matmul, a numpy
        divide, its list and a max of the |entries|."""
        x, scale = read_point(x, self.cone.dim)
        y = self.cone.halfspace_values(x).tolist()
        return max(map(truediv, map(abs, y), self._unit.hu_list)) * scale

    def gauge_many(self, X: np.ndarray) -> np.ndarray:
        """||x||_u for every row x of X, each read as `gauge` reads it."""
        X, scale = scaled_rows(as_matrix(X, self.cone.dim, "points"))
        return self._unit.ratio(np.abs(self.cone.halfspace_values(X)), scale)

    def isometry_image(self, x) -> np.ndarray:
        """(<h_k, x> / <h_k, u>)_k, whose sup-norm is ||x||_u; x / u on the
        coordinate cone; an entry past the largest float reads inf, as the
        gauge does."""
        x, scale = read_point(x, self.cone.dim)
        with np.errstate(over="ignore"):
            return self.cone.halfspace_values(x) / self._unit.hu * scale


def equivalence_constant(cone: PolyhedralCone, u, v) -> float:
    """Least c >= 1 with c^-1 ||.||_u <= ||.||_v <= c ||.||_u: the constant
    of the equivalence of the generating-space norms of u and v.

    Equals max(||v||_u, ||u||_v, 1); the two gauges are the tight witnesses
    because the sup of ||.||_v over [-u, u] is attained at u itself.
    """
    bu = GaugeBody(cone, u)
    bv = GaugeBody(cone, v)
    return max(bu.gauge(v), bv.gauge(u), 1.0)


def check_norm_p(p):
    """p if it is an ambient norm exponent: 1, 2 or math.inf (not "inf" or True)."""
    if isinstance(p, bool) or p not in (1, 2, math.inf):
        raise ValueError(f"ambient norm must have p in {{1, 2, inf}}, got {p!r}")
    return p


def norm_scaled(p: float, *arrays: np.ndarray) -> tuple:
    """(s, each array times 2^-s): the arrays as a p-norm reads them before
    it squares their entries. s = 0 and the arrays themselves unless p = 2
    and the largest |entry| lies outside the exponents [-PRODUCT_E,
    PRODUCT_E], where the square of an entry or of a difference of two
    could overflow or underflow to 0; then the least shift that brings it
    back (pow2_shift)."""
    top = max(np.abs(a).max(initial=0.0) for a in arrays) if p == 2 else 0.0
    shift = pow2_shift(float(top), -PRODUCT_E, PRODUCT_E)
    return (shift, *(np.ldexp(a, -shift) for a in arrays)) if shift else (0, *arrays)


def ambient_norm(x, p: float = 2, weights=None) -> float:
    """p-norm (p in {1, 2, inf}) with optional positive coordinate weights,
    scaled by `norm_scaled` where a square could overflow or underflow."""
    check_norm_p(p)
    x = as_vector(x, name="point")
    if weights is not None:
        x = x * as_vector(weights, x.shape[0], "weights")
    shift, x = norm_scaled(p, x)
    return float(np.ldexp(np.linalg.norm(x, ord=p), shift))


def ambient_comparison(body: GaugeBody, points, p: float = 2, weights=None) -> dict:
    """Per-instance empirical check of ||.||_u >= ||.|| against the declared
    ambient norm; violations are reported, never asserted."""
    tol = default_tolerances().membership
    violations = []
    pts = as_matrix(points, body.cone.dim, "points")
    for row in pts:
        gauge_val = body.gauge(row)
        amb = ambient_norm(row, p=p, weights=weights)
        if gauge_val < amb - tol:
            violations.append({"point": row.tolist(), "gauge": gauge_val, "ambient": amb})
    return {"checked": int(pts.shape[0]), "violations": violations}
