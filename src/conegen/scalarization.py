"""Gerstewitz scalarization phi(y) = inf{t : t e in y + C} for polyhedral C.

phi is the monotone sublinear functional whose sublevel sets are
{y : y in r e - C}. For C = {y : <h_k, y> >= 0} it has the closed form
max_k <h_k, y> / <h_k, e> over the halfspaces with <h_k, e> > 0, and is +inf
when <h_k, y> > 0 on a halfspace with <h_k, e> = 0. Its subdifferential
{y* in C* : <y*, e> = 1, <y*, y> = phi(y)} is the face of the base of
C* = cone(h_k) on which <., y> attains phi(y) (Danskin's rule on this max of
linear forms): the hull of the points h_k / <h_k, e> of the facet normals
that attain the max, plus the cone of the normals with
<h_k, e> = 0 = <h_k, y>. The directional derivative is the max of <., d>
over that face. Both read the rows of the same ratio, in any dimension; no
LP runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import default_tolerances
from .cones import InvalidCone, OrderUnit, PolyhedralCone, scaled_point, scaled_rows
from .numkernel import as_matrix, as_vector


class EmptyDomain(ValueError):
    """Raised when an operation needs a finite phi value but phi = +inf."""


@dataclass
class SubdifferentialResult:
    """The subdifferential of phi at y: conv(vertices) + cone(rays).

    vertices are h_k / <h_k, e> over the facet normals h_k of C that attain
    phi(y); witness is the first of them. rays are the normals h_k with
    <h_k, e> = 0 = <h_k, y>; there are some only when e lies on the boundary
    of C or C is lower-dimensional (its dual then contains a line, given by
    a pair of opposite rays).
    """

    witness: np.ndarray
    vertices: np.ndarray
    rays: np.ndarray
    cone: PolyhedralCone
    e: np.ndarray
    y: np.ndarray
    value: float

    @property
    def bounded(self) -> bool:
        return self.rays.shape[0] == 0

    def contains(self, z) -> bool:
        tol = default_tolerances().membership
        z = as_vector(z, self.e.shape[0], "functional")
        return bool(np.min(self.cone.generators @ z) >= -tol) and \
            abs(float(z @ self.e) - 1.0) <= tol and abs(float(z @ self.y) - self.value) <= tol


class GerstewitzFn:
    """Pair (C, e) with e in C \\ {0}; the line Re must not lie in C.

    The checks on e run at construction (OrderUnit). The subdifferential's
    vertices come from the facet rows off e's face, its rays from the rows
    on it."""

    def __init__(self, cone: PolyhedralCone, e):
        self.cone = cone
        self.e = as_vector(e, cone.dim, "direction e")
        self._unit = OrderUnit(cone, self.e)
        self._he, self._slack = self._unit.hu, self._unit.slack
        self._ray_rows = np.flatnonzero(self._unit.face)
        self._vertex_rows = np.flatnonzero(cone.facets & ~self._unit.face)

    # -- evaluation -----------------------------------------------------------

    def value(self, y) -> float:
        """phi(y) = inf{t : t e - y in C}; +inf when y is outside R e - C."""
        y, scale = scaled_point(as_vector(y, self.cone.dim, "point"))
        return self._unit.ratio(self.cone.halfspace_values(y), scale)

    def value_many(self, Y: np.ndarray) -> np.ndarray:
        """phi at every row of Y, with the same values (and +inf rows) as value."""
        Y, scale = scaled_rows(as_matrix(Y, self.cone.dim, "points"))
        return self._unit.ratio(self.cone.halfspace_values(Y), scale)

    def sublevel(self, y, r: float) -> bool:
        """phi(y) <= r  iff  y in r e - C."""
        y = as_vector(y, self.cone.dim, "point")
        return self.cone.contains(r * self.e - y)

    # -- subdifferential --------------------------------------------------------

    def _active(self, y: np.ndarray):
        """phi(y), the vertex rows that attain it and the ray rows active at
        y, all read off one row product with y."""
        y, scale = scaled_point(y)
        hy = self.cone.halfspace_values(y)
        value = self._unit.ratio(hy, scale)
        if not math.isfinite(value):
            raise EmptyDomain("phi is +inf at this point; subdifferential undefined")
        rows = self._vertex_rows
        cut = value - self._slack * max(1.0, abs(value))
        verts = rows[hy[rows] / self._he[rows] >= cut / scale]
        if verts.size == 0:
            raise InvalidCone("no facet of C attains phi(y): the halfspaces and "
                              "generators of the cone describe different cones")
        rays = self._ray_rows[np.abs(hy[self._ray_rows]) <= self._slack / scale]
        return value, verts, rays

    def subdifferential(self, y) -> SubdifferentialResult:
        y = as_vector(y, self.cone.dim, "point")
        value, verts, rays = self._active(y)
        H = self.cone.halfspaces
        vertices = H[verts] / self._he[verts, None]
        return SubdifferentialResult(witness=vertices[0], vertices=vertices,
                                     rays=H[rays], cone=self.cone, e=self.e, y=y,
                                     value=value)

    def directional_derivative(self, y, d) -> float:
        """phi'(y; d) = max{<y*, d> : y* in subdifferential at y}: +inf along
        a ray with <h_k, d> > 0, else the max over the vertices."""
        y = as_vector(y, self.cone.dim, "point")
        d = as_vector(d, self.cone.dim, "direction")
        _, verts, rays = self._active(y)
        d, scale = scaled_point(d)
        hd = self.cone.halfspace_values(d)
        if np.any(hd[rays] > self._slack / scale):
            return math.inf
        return float(np.max(hd[verts] / self._he[verts])) * scale
