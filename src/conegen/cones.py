"""Polyhedral ordering cones in R^n.

A cone is stored with both descriptions whenever they are derivable: an
inward-normal halfspace list (x in C iff <A_k, x> >= 0 for all k) and a
generator list. Conversion between the two is implemented only in dimension
<= 3 by exhaustive facet / extreme-ray enumeration; in higher dimension a
general cone must be constructed with both lists supplied. Every cone is
salient (contains no line), which is checked at construction; the degenerate
cone {0} is rejected.
"""
from __future__ import annotations

import itertools

import numpy as np

from .config import default_tolerances, resolve_tol
from .numkernel import as_vector


class DimensionMismatch(ValueError):
    pass


class InvalidCone(ValueError):
    pass


class UnsupportedRepresentation(ValueError):
    pass


COORDINATE_KINDS = ("coordinate", "weighted-coordinate")


def _unit_rows(M: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(M, axis=1)
    if np.any(norms < 1e-14):
        raise InvalidCone("zero row in cone description")
    return M / norms[:, None]


def _dedupe_unit_rows(M: np.ndarray) -> np.ndarray:
    out = []
    for row in M:
        if not any(np.linalg.norm(row - r) < 1e-9 for r in out):
            out.append(row)
    return np.array(out)


class PolyhedralCone:
    """Ordering cone with halfspace and generator descriptions.

    kind is one of "coordinate", "weighted-coordinate", "general". For the
    coordinate kinds the cone is the nonnegative orthant as a set; the
    weighted variant keeps the defining weights around for callers that work
    in a rescaled frame.
    """

    def __init__(self, dim: int, halfspaces=None, generators=None,
                 kind: str = "general", weights=None, _skip_checks: bool = False):
        if dim < 1:
            raise InvalidCone("cone dimension must be positive")
        self.dim = int(dim)
        self.kind = kind
        self.weights = None if weights is None else as_vector(weights, dim, "weights")

        if kind in COORDINATE_KINDS:
            self.halfspaces = np.eye(dim)
            self.generators = np.eye(dim)
            if kind == "weighted-coordinate":
                if self.weights is None or np.any(self.weights <= 0):
                    raise InvalidCone("weighted-coordinate cone needs positive weights")
            return

        H = None if halfspaces is None else _unit_rows(np.atleast_2d(np.asarray(halfspaces, dtype=float)))
        G = None if generators is None else _unit_rows(np.atleast_2d(np.asarray(generators, dtype=float)))
        for M, name in ((H, "halfspaces"), (G, "generators")):
            if M is not None and M.shape[1] != dim:
                raise DimensionMismatch(f"{name} have dimension {M.shape[1]}, expected {dim}")
        if H is None and G is None:
            raise InvalidCone("a general cone needs halfspaces or generators")
        if dim <= 3:
            if H is None:
                H = _facets_from_generators(G)
            elif G is None:
                G = _rays_from_halfspaces(H)
        elif H is None or G is None:
            raise UnsupportedRepresentation(
                "above dimension 3 a general cone requires both halfspaces and generators")
        self.halfspaces = _dedupe_unit_rows(H)
        self.generators = _dedupe_unit_rows(G)
        if _skip_checks:
            return
        self._check_consistency(halfspaces is not None and generators is not None)

    def _check_consistency(self, both_given: bool):
        tol = default_tolerances().membership
        if self.generators.shape[0] == 0:
            raise InvalidCone("degenerate cone {0} is rejected")
        prods = self.generators @ self.halfspaces.T
        if np.min(prods) < -1e3 * tol:
            raise InvalidCone(
                "cross-consistency failure: a generator violates a halfspace "
                f"(worst slack {np.min(prods):.3e})")
        for g in self.generators:
            if self.contains(-g, tol=tol):
                raise InvalidCone("cone contains a line (ordering-cone property violated)")
        if both_given and self.dim <= 3:
            self._check_rep_equality()

    def _check_rep_equality(self):
        # Both lists were user-supplied: make sure they describe one cone,
        # not merely a consistent pair.
        rays = _rays_from_halfspaces(self.halfspaces)
        facets = _facets_from_generators(self.generators)
        if rays.size and facets.size:
            slack = min(np.min(rays @ facets.T), np.min(self.generators @ self.halfspaces.T))
            if slack < -1e-7:
                raise InvalidCone(
                    "halfspaces and generators describe different cones "
                    f"(worst slack {slack:.3e})")

    # -- queries ------------------------------------------------------------

    def contains(self, x, tol: float | None = None) -> bool:
        x = as_vector(x, self.dim, "point")
        tol = resolve_tol(tol)
        return bool(np.min(self.halfspaces @ x) >= -tol)

    def order_leq(self, x, y, tol: float | None = None) -> bool:
        """x <=_C y, i.e. y - x in C."""
        x = as_vector(x, self.dim, "x")
        y = as_vector(y, self.dim, "y")
        return self.contains(y - x, tol=tol)

    def halfspace_values(self, X):
        """<A_k, x> for one point x (a K-vector) or every row of X (an n x K
        array); no matmul on the coordinate kinds, whose A is the identity."""
        return X if self.kind in COORDINATE_KINDS else X @ self.halfspaces.T

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
        if self.kind in COORDINATE_KINDS:
            return PolyhedralCone(self.dim, kind="coordinate")
        if np.linalg.matrix_rank(self.generators, tol=1e-10) < self.dim:
            raise UnsupportedRepresentation(
                "dual of a lower-dimensional cone contains a line")
        dual = PolyhedralCone(self.dim, halfspaces=self.generators,
                              generators=self.halfspaces, kind="general",
                              _skip_checks=True)
        if _is_identity(dual.halfspaces) and _is_identity(dual.generators):
            return PolyhedralCone(self.dim, kind="coordinate")
        return dual

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


def weighted_coordinate_cone(weights) -> PolyhedralCone:
    w = as_vector(weights, name="weights")
    return PolyhedralCone(w.shape[0], kind="weighted-coordinate", weights=w)


def _is_identity(M: np.ndarray) -> bool:
    if M.shape[0] != M.shape[1]:
        return False
    P = M[np.lexsort(M.T[::-1])]
    return bool(np.allclose(P, np.eye(M.shape[0]), atol=1e-12))


# ---------------------------------------------------------------------------
# representation conversion, dimension <= 3

def _rot90(v):
    return np.array([-v[1], v[0]])


def _rays_from_halfspaces(H: np.ndarray) -> np.ndarray:
    dim = H.shape[1]
    if dim == 1:
        rays = [np.array([s]) for s in (1.0, -1.0) if np.min(H * s) >= -1e-12]
        return np.array(rays) if rays else np.zeros((0, 1))
    cands = []
    if dim == 2:
        for h in H:
            for r in (_rot90(h), -_rot90(h)):
                cands.append(r)
    else:
        for i, j in itertools.combinations(range(H.shape[0]), 2):
            c = np.cross(H[i], H[j])
            if np.linalg.norm(c) > 1e-12:
                cands.append(c)
                cands.append(-c)
        if H.shape[0] == 1:
            cands = []
    kept = []
    for r in cands:
        r = r / np.linalg.norm(r)
        if np.min(H @ r) >= -1e-9:
            kept.append(r)
    if not kept:
        return np.zeros((0, dim))
    return _dedupe_unit_rows(np.array(kept))


def _facets_from_generators(G: np.ndarray) -> np.ndarray:
    dim = G.shape[1]
    G = _dedupe_unit_rows(_unit_rows(G))
    rank = np.linalg.matrix_rank(G, tol=1e-10)
    if rank < dim:
        # Lower-dimensional cone: enforce the span with paired halfspaces and
        # recurse inside span coordinates.
        _, _, vt = np.linalg.svd(G)
        span = vt[:rank]
        comp = vt[rank:]
        inner = _facets_from_generators(G @ span.T) if rank > 0 else np.zeros((0, rank))
        lifted = inner @ span if inner.size else np.zeros((0, dim))
        paired = np.vstack([comp, -comp])
        return _unit_rows(np.vstack([lifted, paired])) if lifted.size or paired.size else paired
    if dim == 1:
        return G.copy()
    facets = []
    if dim == 2:
        # Extreme pair = the two generators with maximal opening angle.
        best = None
        for i, j in itertools.combinations(range(G.shape[0]), 2):
            d = float(G[i] @ G[j])
            if best is None or d < best[0]:
                best = (d, i, j)
        if best is None:
            raise InvalidCone("a full-dimensional planar cone needs two generators")
        _, i, j = best
        for a, b in ((G[i], G[j]), (G[j], G[i])):
            n = _rot90(a)
            if n @ b < 0:
                n = -n
            facets.append(n)
    else:
        for i, j in itertools.combinations(range(G.shape[0]), 2):
            n = np.cross(G[i], G[j])
            if np.linalg.norm(n) < 1e-12:
                continue
            n = n / np.linalg.norm(n)
            for cand in (n, -n):
                prods = G @ cand
                if np.min(prods) >= -1e-9 and np.sum(np.abs(prods) < 1e-9) >= 2:
                    facets.append(cand)
    if not facets:
        raise InvalidCone("facet enumeration failed; is the cone full-dimensional?")
    return _dedupe_unit_rows(np.array(facets))
