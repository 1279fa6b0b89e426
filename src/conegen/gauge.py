"""Generating-space norms as Minkowski gauges of order intervals.

The norm of the space generated by an interior element u of an ordering cone
C = {x : <h_k, x> >= 0} is ||x||_u = inf{lam > 0 : -lam u <=_C x <=_C lam u},
the gauge of the symmetric order interval [-u, u]. Row k of the two order
constraints reads lam <h_k, u> >= |<h_k, x>|, so the gauge is the closed form
max_k |<h_k, x>| / <h_k, u>: the sup-norm of the image of x under the linear
isometry x -> (<h_k, x> / <h_k, u>)_k into the finite sup-norm space. On the
coordinate cone this is the weighted sup-norm max_i |x_i| / u_i and the
isometry is onto. Only the gauge of a general vertex body needs an LP.
Infeasible gauges return math.inf; vectors themselves never carry infinities.
"""
from __future__ import annotations

import math

import numpy as np

from .config import default_tolerances
from .cones import InvalidCone, PolyhedralCone, halfspace_ratio
from .numkernel import LPFailure, LPProblem, as_vector, solve_lp


class GaugeBody:
    """Order interval [-u, u] of a cone with u in the cone's interior."""

    def __init__(self, cone: PolyhedralCone, u):
        self.cone = cone
        self.u = as_vector(u, cone.dim, "generating element")
        if not cone.interior_contains(self.u):
            raise InvalidCone("generating element u must lie in the interior of the cone")
        self._hu = cone.halfspace_values(self.u)

    def gauge(self, x) -> float:
        """||x||_u = max_k |<h_k, x>| / <h_k, u>."""
        x = as_vector(x, self.cone.dim, "point")
        return float(halfspace_ratio(self.cone, self._hu, x, absolute=True))

    def gauge_many(self, X: np.ndarray) -> np.ndarray:
        """||x||_u for every row x of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return halfspace_ratio(self.cone, self._hu, X, absolute=True)

    def isometry_image(self, x) -> np.ndarray:
        """(<h_k, x> / <h_k, u>)_k, whose sup-norm is ||x||_u; x / u on the
        coordinate cone."""
        x = as_vector(x, self.cone.dim, "point")
        return self.cone.halfspace_values(x) / self._hu


def minkowski_gauge(body_vertices, x) -> float:
    """Gauge inf{lam > 0 : x/lam in conv(body_vertices)} via one LP.

    Substituting beta_j = lam * alpha_j turns the bilinear description into
    min sum(beta) s.t. V^T beta = x, beta >= 0; infeasibility means x is not
    absorbed and the gauge is +inf. Any other failed LP raises LPFailure.
    """
    V = np.atleast_2d(np.asarray(body_vertices, dtype=float))
    if V.shape[0] == 0:
        raise ValueError("empty vertex list")
    x = as_vector(x, V.shape[1], "point")
    if not np.any(x):
        return 0.0
    rep = solve_lp(LPProblem(cost=np.ones(V.shape[0]), eq_lhs=V.T, eq_rhs=x,
                             lower=np.zeros(V.shape[0])))
    if rep.status == "infeasible":
        return math.inf
    if rep.status != "optimal":
        raise LPFailure(f"gauge LP returned {rep.status}")
    return float(rep.value)


def equivalence_constant(cone: PolyhedralCone, u, v) -> float:
    """Least c >= 1 with c^-1 ||.||_u <= ||.||_v <= c ||.||_u.

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


def ambient_norm(x, p: float = 2, weights=None) -> float:
    """p-norm (p in {1, 2, inf}) with optional positive coordinate weights."""
    check_norm_p(p)
    x = np.asarray(x, dtype=float)
    if weights is not None:
        x = x * np.asarray(weights, dtype=float)
    return float(np.linalg.norm(x, ord=p))


def ambient_comparison(body: GaugeBody, points, p: float = 2, weights=None) -> dict:
    """Per-instance empirical check of ||.||_u >= ||.|| against the declared
    ambient norm; violations are reported, never asserted."""
    tol = default_tolerances().membership
    violations = []
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    for row in pts:
        gauge_val = body.gauge(row)
        amb = ambient_norm(row, p=p, weights=weights)
        if gauge_val < amb - tol:
            violations.append({"point": row.tolist(), "gauge": gauge_val, "ambient": amb})
    return {"checked": int(pts.shape[0]), "violations": violations}
