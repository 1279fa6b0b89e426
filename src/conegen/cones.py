"""Polyhedral ordering cones in R^n.

A cone is stored with both descriptions: an inward-normal halfspace list
(x in C iff <A_k, x> >= 0 for all k) and a generator list. Either one may be
given in any dimension; the other is derived by one double-description
routine, and when both are given they must describe the same cone. Every cone
is salient (contains no line), which is checked at construction; the
degenerate cone {0} is rejected.
"""
from __future__ import annotations

import numpy as np

from .config import default_tolerances
from .numkernel import as_vector, independent_rows


ZERO_ROW = 1e-14      # a description row of smaller norm is a zero row
CROSS_SLACK = 1e3     # generators may leave the halfspaces by CROSS_SLACK * membership
REP_SLACK = 1e-7      # two given descriptions agree when rays meet facets within -REP_SLACK


class DimensionMismatch(ValueError):
    pass


class InvalidCone(ValueError):
    pass


class UnsupportedRepresentation(ValueError):
    pass


def _unit_rows(M: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(M, axis=1)
    if np.any(norms < ZERO_ROW):
        raise InvalidCone("zero row in cone description")
    return M / norms[:, None]


def _dedupe_unit_rows(M: np.ndarray) -> np.ndarray:
    """M without each row within membership of an earlier row."""
    D = M[:, None] - M[None]
    close = np.einsum("ijk,ijk->ij", D, D) < default_tolerances().membership ** 2
    earlier = np.arange(M.shape[0])
    return M[~(close & (earlier < earlier[:, None])).any(axis=1)]


class PolyhedralCone:
    """Ordering cone with halfspace and generator descriptions.

    kind is "coordinate" (the nonnegative orthant, both descriptions the
    identity) or "general".
    """

    def __init__(self, dim: int, halfspaces=None, generators=None,
                 kind: str = "general", _skip_checks: bool = False):
        if dim < 1:
            raise InvalidCone("cone dimension must be positive")
        self.dim = int(dim)
        self.kind = kind

        if kind == "coordinate":
            self.halfspaces = np.eye(dim)
            self.generators = np.eye(dim)
            return

        H = None if halfspaces is None else _unit_rows(np.atleast_2d(np.asarray(halfspaces, dtype=float)))
        G = None if generators is None else _unit_rows(np.atleast_2d(np.asarray(generators, dtype=float)))
        for M, name in ((H, "halfspaces"), (G, "generators")):
            if M is not None and M.shape[1] != dim:
                raise DimensionMismatch(f"{name} have dimension {M.shape[1]}, expected {dim}")
        if H is None and G is None:
            raise InvalidCone("a general cone needs halfspaces or generators")
        if H is None:
            H = _facets_from_generators(G)
        elif G is None:
            G = _extreme_rays(H)
        self.halfspaces = _dedupe_unit_rows(H)
        self.generators = _dedupe_unit_rows(G)
        if _skip_checks:
            return
        self._check_consistency(halfspaces is not None and generators is not None)

    def _check_consistency(self, both_given: bool):
        tol = default_tolerances().membership
        if self.generators.shape[0] == 0:
            raise InvalidCone("degenerate cone {0} is rejected")
        if self.halfspaces.shape[0] == 0:
            raise InvalidCone("cone contains a line (ordering-cone property violated)")
        prods = self.generators @ self.halfspaces.T
        if np.min(prods) < -CROSS_SLACK * tol:
            raise InvalidCone(
                "cross-consistency failure: a generator violates a halfspace "
                f"(worst slack {np.min(prods):.3e})")
        if np.any(np.max(prods, axis=1) <= tol):    # some -g is in the cone
            raise InvalidCone("cone contains a line (ordering-cone property violated)")
        if both_given:
            self._check_rep_equality()

    def _check_rep_equality(self):
        # Both lists were user-supplied: make sure they describe one cone,
        # not merely a consistent pair.
        rays = _extreme_rays(self.halfspaces)
        facets = _facets_from_generators(self.generators)
        if rays.size and facets.size:
            slack = min(np.min(rays @ facets.T), np.min(self.generators @ self.halfspaces.T))
            if slack < -REP_SLACK:
                raise InvalidCone(
                    "halfspaces and generators describe different cones "
                    f"(worst slack {slack:.3e})")

    # -- queries ------------------------------------------------------------

    def contains(self, x, tol: float | None = None) -> bool:
        x = as_vector(x, self.dim, "point")
        tol = default_tolerances().membership if tol is None else tol
        return bool(np.min(self.halfspaces @ x) >= -tol)

    def order_leq(self, x, y, tol: float | None = None) -> bool:
        """x <=_C y, i.e. y - x in C."""
        x = as_vector(x, self.dim, "x")
        y = as_vector(y, self.dim, "y")
        return self.contains(y - x, tol=tol)

    def halfspace_values(self, X):
        """<A_k, x> for one point x (a K-vector) or every row of X (an n x K
        array); no matmul on the coordinate cone, whose A is the identity."""
        return X if self.kind == "coordinate" else X @ self.halfspaces.T

    def interior_contains(self, x) -> bool:
        x = as_vector(x, self.dim, "point")
        margin = default_tolerances().interior
        return bool(np.min(self.halfspaces @ x) > margin)

    def is_strictly_positive(self, f) -> bool:
        """<f, g> > 0 on every extreme generator, i.e. f in int of the dual cone."""
        f = as_vector(f, self.dim, "functional")
        margin = default_tolerances().interior
        return bool(np.min(self.generators @ f) > margin)

    def dual(self) -> "PolyhedralCone":
        """Dual cone of positive functionals; swaps the two descriptions.

        Requires a full-dimensional input, otherwise the dual contains a line
        and is no ordering cone.
        """
        if self.kind == "coordinate":
            return PolyhedralCone(self.dim, kind="coordinate")
        if independent_rows(self.generators, default_tolerances().qp_curv).size < self.dim:
            raise UnsupportedRepresentation(
                "dual of a lower-dimensional cone contains a line")
        return PolyhedralCone(self.dim, halfspaces=self.generators,
                              generators=self.halfspaces, kind="general",
                              _skip_checks=True)

    def __repr__(self):
        return (f"PolyhedralCone(dim={self.dim}, kind={self.kind!r}, "
                f"{self.halfspaces.shape[0]} halfspaces, "
                f"{self.generators.shape[0]} generators)")


def halfspace_ratio(cone: PolyhedralCone, hu, X, absolute: bool = False,
                    pos=None, slack: float = 0.0):
    """max_k s(<A_k, x>) / <A_k, u> for one point x or every row of X.

    hu is cone.halfspace_values(u); s is |.| when absolute (the norm ||x||_u,
    i.e. the sup-norm of x's image under the isometry
    x -> (<A_k, x> / <A_k, u>)_k into l-infinity), otherwise the identity
    (the Gerstewitz function with e = u). With pos given, only the rows where
    pos holds enter the max; a row outside pos (<A_k, u> ~ 0) with
    <A_k, x> > slack makes the value +inf.
    """
    HX = cone.halfspace_values(X)
    if absolute:
        HX = np.abs(HX)
    if pos is None:
        return (HX / hu).max(axis=-1)
    ratio = (HX[..., pos] / hu[pos]).max(axis=-1)
    return np.where((HX[..., ~pos] > slack).any(axis=-1), np.inf, ratio)


def coordinate_cone(dim: int) -> PolyhedralCone:
    return PolyhedralCone(dim, kind="coordinate")


# ---------------------------------------------------------------------------
# representation conversion

def _extreme_rays(H: np.ndarray) -> np.ndarray:
    """Extreme rays (unit rows) of the pointed cone {x : Hx >= 0}, H with unit
    rows, by the incremental double-description method (Motzkin et al. 1953;
    Fukuda & Prodon, LNCS 1120, 1996).

    The simplicial cone of the first independent rows starts it; each further
    row h keeps the rays with <h, r> >= 0 and adds, for each adjacent pair
    across h'x = 0, the ray where their segment meets it. Two rays are adjacent
    iff no third ray is tight on every row both are tight on. <h, r> is zero
    within membership; a row within qp_curv of the span of the rows before it
    is dependent, and fewer than dim independent rows mean a line.
    """
    tols = default_tolerances()
    dim = H.shape[1]
    basis = independent_rows(H, tols.qp_curv)
    if basis.size < dim:
        raise InvalidCone("cone contains a line (ordering-cone property violated)")
    R = _unit_rows(np.linalg.inv(H[basis]).T)
    Z = ~np.eye(dim, dtype=bool)        # Z[i, j]: ray i is tight on row j seen so far
    rest = np.ones(H.shape[0], dtype=bool)
    rest[basis] = False
    for h in H[rest]:
        v = R @ h
        zero = np.abs(v) <= tols.membership
        pos = np.flatnonzero(v > tols.membership)
        neg = np.flatnonzero(v < -tols.membership)
        P, N = np.repeat(pos, neg.size), np.tile(neg, pos.size)
        common = Z[P] & Z[N]
        tight = common.sum(axis=1)
        covers = (common.astype(np.int64) @ Z.T.astype(np.int64)) == tight[:, None]
        adj = (tight >= dim - 2) & (covers.sum(axis=1) == 2)
        P, N, common = P[adj], N[adj], common[adj]
        kept = v >= -tols.membership
        R = np.vstack([R[kept], _unit_rows(v[P, None] * R[N] - v[N, None] * R[P])])
        Z = np.vstack([np.column_stack([Z[kept], zero[kept]]),
                       np.column_stack([common, np.ones(P.size, dtype=bool)])])
    return R


def _facets_from_generators(G: np.ndarray) -> np.ndarray:
    """Inward facet normals of cone(G): the extreme rays of its dual
    {y : Gy >= 0}. A lower-dimensional cone(G) gets its facets inside span(G)
    and both signs of each normal of the span."""
    try:
        return _extreme_rays(G)
    except InvalidCone:                 # the dual holds a line: cone(G) is flat
        rank = independent_rows(G, default_tolerances().qp_curv).size
    _, _, vt = np.linalg.svd(G)
    span, comp = vt[:rank], vt[rank:]
    return np.vstack([_extreme_rays(G @ span.T) @ span, comp, -comp])
