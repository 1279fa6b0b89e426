"""Gerstewitz scalarization phi(y) = inf{t : t e in y + C} for polyhedral C.

phi is the monotone sublinear functional whose sublevel sets are
{y : y in r e - C}. For C = {y : <h_k, y> >= 0} it has the closed form
max_k <h_k, y> / <h_k, e> over the halfspaces with <h_k, e> > 0, and is +inf
when <h_k, y> > 0 on a halfspace with <h_k, e> = 0. Its subdifferential is the
polytope
{y* in C* : <y*, e> = 1, <y*, y> = phi(y)}, enumerated exactly in dimension
<= 3 and returned as a membership oracle plus one LP witness above that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import default_tolerances, resolve_tol
from .cones import InvalidCone, PolyhedralCone, halfspace_ratio
from .numkernel import (LPProblem, as_vector, enumerate_polytope_vertices,
                        polyhedron_is_bounded, solve_lp)


class EmptyDomain(ValueError):
    """Raised when an operation needs a finite phi value but phi = +inf."""


@dataclass
class SubdifferentialResult:
    """Vertex list when exact (dim <= 3 and bounded), otherwise oracle form."""

    witness: np.ndarray
    vertices: np.ndarray | None
    exact: bool
    bounded: bool
    cone: PolyhedralCone
    e: np.ndarray
    y: np.ndarray
    value: float

    def contains(self, z, tol: float | None = None) -> bool:
        tol = resolve_tol(tol)
        z = as_vector(z, self.e.shape[0], "functional")
        if np.min(self.cone.generators @ z) < -tol:
            return False
        if abs(float(z @ self.e) - 1.0) > tol:
            return False
        return abs(float(z @ self.y) - self.value) <= tol


class GerstewitzFn:
    """Pair (C, e) with e in C \\ {0}; the line Re must not lie in C."""

    def __init__(self, cone: PolyhedralCone, e):
        self.cone = cone
        self.e = as_vector(e, cone.dim, "direction e")
        tols = default_tolerances()
        if not np.any(self.e):
            raise InvalidCone("direction e must be nonzero")
        self._he = cone.halfspace_values(self.e)
        if np.min(self._he) < -tols.membership:
            raise InvalidCone("e must belong to the cone (C + [0,inf) e subset C)")
        if np.max(self._he) <= tols.membership:
            raise InvalidCone("the line R e lies in the cone")
        pos = self._he > tols.interior
        self._pos = None if pos.all() else pos
        self._slack = tols.membership

    # -- evaluation -----------------------------------------------------------

    def _ratio(self, Y):
        return halfspace_ratio(self.cone, self._he, Y, pos=self._pos, slack=self._slack)

    def value(self, y) -> float:
        """phi(y) = inf{t : t e - y in C}; +inf when y is outside R e - C."""
        y = as_vector(y, self.cone.dim, "point")
        return float(self._ratio(y))

    def value_many(self, Y: np.ndarray) -> np.ndarray:
        """phi at every row of Y, with the same values (and +inf rows) as value."""
        return self._ratio(np.atleast_2d(np.asarray(Y, dtype=float)))

    def sublevel(self, y, r: float, tol: float | None = None) -> bool:
        """phi(y) <= r  iff  y in r e - C."""
        y = as_vector(y, self.cone.dim, "point")
        return self.cone.contains(r * self.e - y, tol=tol)

    # -- subdifferential --------------------------------------------------------

    def _subdiff_system(self, y: np.ndarray):
        value = float(self._ratio(y))
        if not math.isfinite(value):
            raise EmptyDomain("phi is +inf at this point; subdifferential undefined")
        G = self.cone.generators  # halfspace description of the dual cone
        eq = np.vstack([self.e, y])
        rhs = np.array([1.0, value])
        return G, eq, rhs, value

    def subdifferential(self, y) -> SubdifferentialResult:
        y = as_vector(y, self.cone.dim, "point")
        G, eq, rhs, value = self._subdiff_system(y)
        m = self.cone.dim
        witness_rep = solve_lp(LPProblem(cost=np.zeros(m), ineq_lhs=G,
                                         ineq_rhs=np.zeros(G.shape[0]),
                                         eq_lhs=eq, eq_rhs=rhs))
        if witness_rep.status != "optimal":
            raise RuntimeError(
                f"subdifferential witness LP returned {witness_rep.status}; "
                "the Lemma guarantees nonemptiness on dom phi")
        vertices = None
        exact = m <= 3
        bounded = True
        if exact:
            # {y* in C* : <y*, e> = 1} is compact when e is interior to C; only
            # a boundary e needs the recession-cone LPs.
            bounded = self._pos is None or polyhedron_is_bounded(G, eq)
            if bounded:
                vertices = enumerate_polytope_vertices(G, np.zeros(G.shape[0]), eq, rhs)
            else:
                exact = False
        return SubdifferentialResult(witness=witness_rep.point, vertices=vertices,
                                     exact=exact, bounded=bounded, cone=self.cone,
                                     e=self.e, y=y, value=value)

    def directional_derivative(self, y, d) -> float:
        """phi'(y; d) = max{<y*, d> : y* in subdifferential at y} by LP."""
        y = as_vector(y, self.cone.dim, "point")
        d = as_vector(d, self.cone.dim, "direction")
        G, eq, rhs, _ = self._subdiff_system(y)
        rep = solve_lp(LPProblem(cost=-d, ineq_lhs=G, ineq_rhs=np.zeros(G.shape[0]),
                                 eq_lhs=eq, eq_rhs=rhs))
        if rep.status == "unbounded":
            return math.inf
        if rep.status != "optimal":
            raise RuntimeError(f"directional derivative LP returned {rep.status}")
        return float(-rep.value)
