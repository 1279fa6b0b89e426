"""Polyhedral ordering cones in R^n.

A cone is stored with both descriptions: an inward-normal halfspace list
(x in C iff <A_k, x> >= 0 for all k) and a generator list. Either one may be
given in any dimension; the other is derived by one double-description
routine, and when both are given they must describe the same cone. Every cone
is salient (contains no line), which is checked at construction; the
degenerate cone {0} is rejected. The same conversion tells which halfspace
rows are facets. An OrderUnit reads a cone's rows against one element u.
"""
from __future__ import annotations

import numpy as np

from .config import default_tolerances
from .numkernel import as_vector, independent_rows


ZERO_ROW = 1e-14      # a description row of smaller norm is a zero row
# times dim: bound on the rounding of a dot product of unit dim-vectors, with
# room to spare (Higham, Accuracy and Stability of Numerical Algorithms, 4.2)
ROUNDING = 64 * np.finfo(float).eps


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


def _first_rows(M: np.ndarray) -> np.ndarray:
    """Mask of the rows of M not within ROUNDING * dim of an earlier row."""
    D = M[:, None] - M[None]
    close = np.einsum("ijk,ijk->ij", D, D) <= (ROUNDING * M.shape[1]) ** 2
    earlier = np.arange(M.shape[0])
    return ~(close & (earlier < earlier[:, None])).any(axis=1)


def _maximal_rows(tight: np.ndarray) -> np.ndarray:
    """Mask of the rows whose tight set (tight[k, i]: row k is tight on ray i)
    is maximal among the proper rows, those not tight on every ray: the facet
    rows. A pin of a flat cone's span is tight on every ray, and a redundant
    row's set lies strictly inside a facet's."""
    proper = ~tight.all(axis=1)
    size = tight.sum(axis=1)
    T = tight.astype(float)
    inside = (T @ T.T == size[:, None]) & (size[:, None] < size) & proper
    return proper & ~inside.any(axis=1)


class PolyhedralCone:
    """Ordering cone with halfspace and generator descriptions.

    kind is "coordinate" (the nonnegative orthant, both descriptions the
    identity) or "general". facets masks the halfspace rows that support a
    facet (_maximal_rows of the tight sets the conversion decided).
    """

    def __init__(self, dim: int, halfspaces=None, generators=None,
                 kind: str = "general"):
        if dim < 1:
            raise InvalidCone("cone dimension must be positive")
        self.dim = int(dim)
        self.kind = kind

        if kind == "coordinate":
            self.halfspaces = np.eye(dim)
            self.generators = np.eye(dim)
            self.facets = np.ones(dim, dtype=bool)
            return

        H = None if halfspaces is None else _unit_rows(np.atleast_2d(np.asarray(halfspaces, dtype=float)))
        G = None if generators is None else _unit_rows(np.atleast_2d(np.asarray(generators, dtype=float)))
        for M, name in ((H, "halfspaces"), (G, "generators")):
            if M is not None and M.shape[1] != dim:
                raise DimensionMismatch(f"{name} have dimension {M.shape[1]}, expected {dim}")
        if H is None and G is None:
            raise InvalidCone("a general cone needs halfspaces or generators")
        tight = None    # tight[k, i]: halfspace row k is tight on ray i
        if H is None:
            H, tight = _facets_from_generators(G)
        elif G is None:
            G, tight = _extreme_rays(H)[:2]
        kept = _first_rows(H)
        self.halfspaces, self.generators = H[kept], G[_first_rows(G)]
        self.facets = _maximal_rows(self._check_consistency(None if tight is None else tight[kept]))

    def _check_consistency(self, tight):
        """Returns the halfspace rows' tight sets. A derived description was
        checked by the conversion that gave them. Two given ones (tight None)
        are asked the user's question at membership, as contains asks it, in
        one conversion of the halfspaces: every generator lies in the
        halfspaces, and every extreme ray lies within its bound plus
        membership of a generator."""
        both_given = tight is None
        tol = default_tolerances().membership
        if self.generators.shape[0] == 0:
            raise InvalidCone("degenerate cone {0} is rejected")
        if self.halfspaces.shape[0] == 0:
            raise InvalidCone("cone contains a line (ordering-cone property violated)")
        prods = self.generators @ self.halfspaces.T
        if both_given and np.min(prods) < -tol:
            raise InvalidCone(
                "cross-consistency failure: a generator violates a halfspace "
                f"(worst slack {np.min(prods):.3e})")
        if np.any(np.max(prods, axis=1) <= tol):    # some -g is in the cone
            raise InvalidCone("cone contains a line (ordering-cone property violated)")
        if both_given:
            rays, tight, bounds = _extreme_rays(self.halfspaces)
            miss = np.linalg.norm(rays[:, None] - self.generators[None], axis=2).min(axis=1) - bounds
            if np.any(miss > tol):
                raise InvalidCone(
                    "halfspaces and generators describe different cones (an "
                    f"extreme ray lies {np.max(miss):.3e} from every generator)")
        return tight

    # -- queries ------------------------------------------------------------

    def contains(self, x) -> bool:
        x = as_vector(x, self.dim, "point")
        return bool(np.min(self.halfspaces @ x) >= -default_tolerances().membership)

    def order_leq(self, x, y) -> bool:
        """x <=_C y, i.e. y - x in C."""
        x = as_vector(x, self.dim, "x")
        return self.contains(as_vector(y, self.dim, "y") - x)

    def halfspace_values(self, X):
        """<A_k, x> for one point x (a K-vector) or every row of X (an n x K
        array); no matmul on the coordinate cone, whose A is the identity."""
        if X.shape[-1] != self.dim:
            raise DimensionMismatch(f"points have dimension {X.shape[-1]}, expected {self.dim}")
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
        if independent_rows(self.generators).size < self.dim:
            raise UnsupportedRepresentation(
                "dual of a lower-dimensional cone contains a line")
        return PolyhedralCone(self.dim, halfspaces=self.generators,
                              generators=self.halfspaces)

    def __repr__(self):
        return (f"PolyhedralCone(dim={self.dim}, kind={self.kind!r}, "
                f"{self.halfspaces.shape[0]} halfspaces, "
                f"{self.generators.shape[0]} generators)")


class OrderUnit:
    """An element u of C \\ {0} whose line R u does not lie in C (checked
    here), read through C's rows: hu = (<h_k, u>)_k, face masks the rows that
    vanish at u (<h_k, u> <= interior) and slack is membership."""

    def __init__(self, cone: PolyhedralCone, u: np.ndarray):
        tols = default_tolerances()
        if not np.any(u):
            raise InvalidCone("direction e must be nonzero")
        self.hu = cone.halfspace_values(u)
        if np.min(self.hu) < -tols.membership:
            raise InvalidCone("e must belong to the cone (C + [0,inf) e subset C)")
        if np.max(self.hu) <= tols.membership:
            raise InvalidCone("the line R e lies in the cone")
        self.face = self.hu <= tols.interior
        self.slack = tols.membership
        self._face = self.face if self.face.any() else None

    def ratio(self, HX):
        """max_k HX[..., k] / <h_k, u> off u's face, for row values HX of one
        point or of each row of a matrix; +inf where a face row's value
        exceeds slack. On |<h_k, x>| this is ||x||_u, the sup-norm of x's
        image under the isometry x -> (<h_k, x> / <h_k, u>)_k into
        l-infinity; on <h_k, y> it is the Gerstewitz function with e = u."""
        if self._face is None:
            return (HX / self.hu).max(axis=-1)
        off = ~self._face
        ratio = (HX[..., off] / self.hu[off]).max(axis=-1)
        return np.where((HX[..., self._face] > self.slack).any(axis=-1), np.inf, ratio)


def coordinate_cone(dim: int) -> PolyhedralCone:
    return PolyhedralCone(dim, kind="coordinate")


# ---------------------------------------------------------------------------
# representation conversion

def _null_rays(rows: np.ndarray, tight: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit null vector r_i of the rows tight[i] selects, signed so that
    <r_i, ref_i> >= 0, and the bound (ROUNDING dim s_1 + s_dim) / s_(dim-1) on
    its angle to the exact one, s those rows' singular values (backward error
    over the gap; 0 in R^1, where no row pins the ray)."""
    dim = rows.shape[1]
    _, s, vt = np.linalg.svd(np.where(tight[:, :, None], rows, 0.0), full_matrices=False)
    R = vt[:, -1] * np.copysign(1.0, np.einsum("ij,ij->i", vt[:, -1], ref))[:, None]
    gap = s[:, -2] if dim > 1 else np.inf
    return R, (ROUNDING * dim * s[:, 0] + s[:, -1]) / gap


def _extreme_rays(H: np.ndarray, basis: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extreme rays (unit rows) of the pointed cone {x : Hx >= 0}, H with unit
    rows, by the incremental double-description method (Motzkin et al. 1953;
    Fukuda & Prodon, LNCS 1120, 1996); the rows' tight sets (tight[k, i]: row
    k is tight on ray i); and each ray's bound on its angle to the exact ray.

    The simplicial cone of the first independent rows starts it; each further
    row h keeps the rays with <h, r> >= 0 and adds, for each adjacent pair
    across h'x = 0, the ray where their segment meets it. Two rays are adjacent
    iff no third ray is tight on every row both are tight on. Each ray is
    the null vector of the rows it is tight on (_null_rays), and <h, r> is
    zero within its bound plus ROUNDING * dim; the rays returned meet every
    row at that slack. Fewer than dim independent rows (basis, when given,
    is independent_rows(H)) mean a line.
    """
    dim = H.shape[1]
    basis = independent_rows(H) if basis is None else basis
    if basis.size < dim:
        raise InvalidCone("cone contains a line (ordering-cone property violated)")
    order = np.concatenate([basis, np.delete(np.arange(H.shape[0]), basis)])
    H = H[order]                         # in the order the rows are read
    Z = ~np.eye(dim, dtype=bool)         # Z[i, j]: ray i is tight on row j read so far
    R, bound = _null_rays(H[:dim], Z, H[:dim])
    for j in range(dim, H.shape[0]):
        v, slack = R @ H[j], bound + ROUNDING * dim
        zero, kept = np.abs(v) <= slack, v >= -slack
        pos, neg = np.flatnonzero(v > slack), np.flatnonzero(~kept)
        P, N = np.repeat(pos, neg.size), np.tile(neg, pos.size)
        common = Z[P] & Z[N]
        near = common.sum(axis=1) >= dim - 2   # only these can be adjacent
        P, N, common = P[near], N[near], common[near]
        covers = (common.astype(float) @ Z.T.astype(float)) == common.sum(axis=1)[:, None]
        adj = covers.sum(axis=1) == 2
        P, N = P[adj], N[adj]
        Z_new = np.column_stack([common[adj], np.ones(P.size, dtype=bool)])
        R_new, bound_new = _null_rays(H[:j + 1], Z_new, v[P, None] * R[N] - v[N, None] * R[P])
        R, bound = np.vstack([R[kept], R_new]), np.concatenate([bound[kept], bound_new])
        Z = np.vstack([np.column_stack([Z[kept], zero[kept]]), Z_new])
    worst = np.min(H @ R.T + bound + ROUNDING * dim, initial=np.inf)
    if worst < 0:
        raise InvalidCone("cross-consistency failure: a converted ray violates a row "
                          f"(worst slack {worst:.3e})")
    return R, Z.T[np.argsort(order)], bound


def _facets_from_generators(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inward facet normals of cone(G): the extreme rays of its dual
    {y : Gy >= 0}, with their tight sets over the rows of G. A
    lower-dimensional cone(G) gets its facets inside span(G) and both signs
    of each normal of the span, which are tight on every generator."""
    basis = independent_rows(G)
    if basis.size == G.shape[1]:
        R, tight, _ = _extreme_rays(G, basis)
        return R, tight.T
    _, _, vt = np.linalg.svd(G)
    span, comp = vt[:basis.size], vt[basis.size:]
    R, tight, _ = _extreme_rays(G @ span.T)
    pins = np.ones((len(comp), len(G)), dtype=bool)
    return np.vstack([R @ span, comp, -comp]), np.vstack([tight.T, pins, pins])
