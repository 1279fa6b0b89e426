"""Polyhedral ordering cones in R^n.

A cone is stored with both descriptions: an inward-normal halfspace list
(x in C iff <A_k, x> >= 0 for all k) and a generator list. Either one may be
given in any dimension; the other is derived by one double-description
routine, and when both are given they must describe the same cone. Every cone
is salient (contains no line), which is checked at construction; the
degenerate cone {0} is rejected, and so is a description with a zero row,
one whose entries are all 0; any other row is read at its own scale. The
same conversion tells which halfspace rows are facets. An OrderUnit reads a
cone's rows against one element u.
"""
from __future__ import annotations

import math
from operator import truediv

import numpy as np

from .config import default_tolerances
from .numkernel import (SHORT, SUM_E, DimensionMismatch, as_matrix, as_vector, independent_rows,
                        pow2_rows, pow2_shift, row_norms)


# times dim: bound on the rounding of a dot product of unit dim-vectors, with
# room to spare (Higham, Accuracy and Stability of Numerical Algorithms, 4.2)
ROUNDING = 64 * np.finfo(float).eps
# 2^SUM_E as a float: a point with an entry this large in |.| is read at a
# power of two (scaled_point)
ROW_SAFE = 2.0 ** SUM_E


class InvalidCone(ValueError):
    pass


class UnsupportedRepresentation(ValueError):
    pass


def _unit_rows(M: np.ndarray) -> np.ndarray:
    """Each row of M over its length, formed from the row at its power of
    two (`pow2_rows`), where only a zero row has length 0: the unit row does
    not change with the row's scale."""
    M, _, norms = pow2_rows(M)
    if not norms.all():
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

        H = None if halfspaces is None else _unit_rows(as_matrix(halfspaces, dim, "halfspaces"))
        G = None if generators is None else _unit_rows(as_matrix(generators, dim, "generators"))
        if H is None and G is None:
            raise InvalidCone("a general cone needs halfspaces or generators")
        given = H is not None      # given halfspaces are converted below, once
        if not given:   # tight[k, i]: halfspace row k is tight on ray i
            H, tight = _facets_from_generators(G)
        kept = _first_rows(H)
        self.halfspaces = H[kept]
        if G is not None:   # given generators are checked before that conversion
            self.generators = G[_first_rows(G)]
            self._check_rows(cross=given)
        if given:
            rays, tight, bounds = _extreme_rays(H)
            if G is None:
                self.generators = rays[_first_rows(rays)]
                self._check_rows(cross=False)
            else:
                miss = row_norms(rays[:, None] - self.generators[None]).min(axis=1) - bounds
                if np.any(miss > default_tolerances().membership):
                    raise InvalidCone(
                        "halfspaces and generators describe different cones (an "
                        f"extreme ray lies {np.max(miss):.3e} from every generator)")
        self.facets = _maximal_rows(tight[kept])

    def _check_rows(self, cross: bool):
        """Refuses {0} and a line. With cross, both descriptions were given,
        and the user's question is asked at membership, as contains asks it,
        before the halfspaces are converted: every generator lies in the
        halfspaces. The conversion then checks that every extreme ray lies
        within its bound plus membership of a generator."""
        tol = default_tolerances().membership
        if self.generators.shape[0] == 0:
            raise InvalidCone("degenerate cone {0} is rejected")
        prods = self.generators @ self.halfspaces.T   # with no row, each max is -inf
        if cross and np.min(prods, initial=np.inf) < -tol:
            raise InvalidCone(
                "cross-consistency failure: a generator violates a halfspace "
                f"(worst slack {np.min(prods):.3e})")
        if np.any(np.max(prods, axis=1, initial=-np.inf) <= tol):    # some -g is in the cone
            raise InvalidCone("cone contains a line (ordering-cone property violated)")

    # -- queries ------------------------------------------------------------

    def _least(self, x: np.ndarray, scale: float) -> float:
        """min_k <h_k, x> times scale for x read at 1 / scale of its size
        (`read_point`, `scaled_point`): +-inf past the largest float. The
        row values are `halfspace_values`' (no product on the coordinate
        cone), and the min is taken over a Python list, which over a few
        rows costs less than a numpy reduction; the two may differ only in
        the sign of a zero, which no threshold reads."""
        return min(self.halfspace_values(x).tolist()) * scale

    def contains(self, x) -> bool:
        return self._least(*read_point(x, self.dim)) >= -default_tolerances().membership

    def order_leq(self, x, y) -> bool:
        """x <=_C y, i.e. y - x in C; x and y are read at one power of two,
        since y - x itself can overflow."""
        x, sx = read_point(x, self.dim, "x")
        y, sy = read_point(y, self.dim, "y")
        scale = max(sx, sy)
        least = self._least(*scaled_point(y * (sy / scale) - x * (sx / scale))) * scale
        return least >= -default_tolerances().membership

    def halfspace_values(self, X):
        """<A_k, x> for one point x (a K-vector) or every row of X (an n x K
        array); no product on the coordinate cone, whose A is the identity.
        One point is read by `A.dot(x)`, BLAS's gemv on A: 0.39 us on a
        pyramid's 4 x 3 rows against 0.80-0.88 us for the matmul gufunc,
        which runs the same gemv on a contiguous or strided x. On a
        reversed or broadcast view the gufunc takes its own loop, with
        other bits; `dot` reads such a view as a contiguous copy. A batch
        keeps the gemm X @ A.T, which on a large batch may round a row
        differently from the gemv of that row alone (README, Notes on
        method)."""
        if X.shape[-1] != self.dim:
            raise DimensionMismatch(f"points have dimension {X.shape[-1]}, expected {self.dim}")
        if self.kind == "coordinate":
            return X
        return self.halfspaces.dot(X) if X.ndim == 1 else X @ self.halfspaces.T

    def interior_contains(self, x) -> bool:
        """Every <h_k, x> positive (`_positive`), x read at 1 / scale of its
        size."""
        x, _ = read_point(x, self.dim)
        return bool(_positive(self._least(x, 1.0), x))

    def is_strictly_positive(self, f) -> bool:
        """<f, g> > 0 on every extreme generator (`_positive`), i.e. f in int
        of the dual cone."""
        f = as_vector(f, self.dim, "functional")
        return bool(_positive(np.min(self.generators @ f), f))

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
    vanish at u (<h_k, u> not `_positive`) and slack is membership.
    hu_list is hu as a Python list, for one point's ratios."""

    def __init__(self, cone: PolyhedralCone, u: np.ndarray):
        tols = default_tolerances()
        if not np.any(u):
            raise InvalidCone("direction e must be nonzero")
        self.hu = cone.halfspace_values(u)
        if np.min(self.hu) < -tols.membership:
            raise InvalidCone("e must belong to the cone (C + [0,inf) e subset C)")
        if np.max(self.hu) <= tols.membership:
            raise InvalidCone("the line R e lies in the cone")
        self.face = ~_positive(self.hu, u)
        self.slack = tols.membership
        self._face = self.face if self.face.any() else None
        self._off = ~self.face
        self._hu_off = self.hu[self._off]
        self.hu_list, self._hu_off_list = self.hu.tolist(), self._hu_off.tolist()

    def ratio(self, HX, scale):
        """max_k HX[..., k] / <h_k, u> off u's face for the row values HX of
        one point (a vector, read at 1 / scale of its size by
        `scaled_point`; a Python float, times scale) or of each row of a
        matrix (an array, each row read at 1 / its entry of scale by
        `scaled_rows`); +inf where a face row's value exceeds slack, and
        +0.0 for a zero max of either sign. On |<h_k, x>| this is ||x||_u,
        the sup-norm of x's image under the isometry x -> (<h_k, x> /
        <h_k, u>)_k into l-infinity; on <h_k, y> it is the Gerstewitz
        function with e = u. One point's rows are divided and maxed over
        Python lists of <h_k, u>, built once here: IEEE division gives
        numpy's bits, a max is exact, and over a few rows this costs 0.47 us
        against 0.69 us for a numpy divide and its list."""
        if HX.ndim == 1:
            if self._face is None:
                return max(map(truediv, HX.tolist(), self.hu_list)) * scale + 0.0
            if max(HX[self._face].tolist()) > self.slack / scale:
                return math.inf
            return max(map(truediv, HX[self._off].tolist(), self._hu_off_list)) * scale + 0.0
        ratio = (HX / self.hu if self._face is None else HX[..., self._off] / self._hu_off).max(axis=-1)
        with np.errstate(over="ignore"):   # past the largest float a row reads inf, as one point does
            ratio = ratio * scale   # rows read at 1 / scale
        if self._face is None:
            return ratio + 0.0
        slack = np.divide(self.slack, scale)[..., None]
        return np.where((HX[..., self._face] > slack).any(axis=-1), np.inf, ratio + 0.0)


def _positive(values, x: np.ndarray):
    """values > ROUNDING * dim * max|x|: a unit row's product with x above
    its rounding, which follows x's scale (a bool, or a mask of an array)."""
    return values > ROUNDING * x.shape[0] * float(np.abs(x).max())


def row_scale(top: float) -> float:
    """2^s for values of largest |entry| top read through unit rows: the
    least power of two that brings top below ROW_SAFE, 1.0 below it."""
    return 2.0 ** pow2_shift(top, -math.inf, SUM_E)


def scaled_point(x: np.ndarray) -> tuple[np.ndarray, float]:
    """(x / s, s) for the products of one point x with a cone's unit rows:
    s = 1 and x itself unless an |entry| reaches ROW_SAFE, where a row sum
    could overflow; then s is the least power of two that brings the
    largest |entry| below ROW_SAFE, so x / s is exact. Read off a Python
    list: a numpy reduction over a few entries costs more than the row
    product."""
    for v in x.tolist():
        if not -ROW_SAFE < v < ROW_SAFE:
            s = row_scale(float(np.abs(x).max()))
            return x / s, s
    return x, 1.0


def read_point(x, dim: int, name: str = "point") -> tuple[np.ndarray, float]:
    """`scaled_point(as_vector(x, dim, name))` in one read of x. For a
    vector of the cone's width up to SHORT entries, one pass over a Python
    list that finds every entry inside +-ROW_SAFE has shown both that they
    are finite and that x needs no scale; any other input, a wrong width
    too, takes the two readers, with their refusals in their order."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1 and arr.shape[0] == dim <= SHORT:
        for v in arr.tolist():
            if not -ROW_SAFE < v < ROW_SAFE:
                break
        else:
            return arr, 1.0
    return scaled_point(as_vector(arr, dim, name))


def scaled_set(X: np.ndarray) -> tuple[np.ndarray, float]:
    """(X / s, s) with one s for every row of X, as `scaled_point` sets it
    for the largest |entry|: X itself and 1.0 when none reaches ROW_SAFE."""
    s = row_scale(float(np.abs(X).max(initial=0.0)))
    return (X, s) if s == 1.0 else (X / s, s)


def scaled_rows(X: np.ndarray):
    """(X / s, s) row by row, each row's s as `scaled_point` sets it for
    that row alone: s = 1.0 for the whole batch when no |entry| reaches
    ROW_SAFE (one reduction), else an array of the rows' scales, 1.0 on
    every row below ROW_SAFE."""
    if np.abs(X).max(initial=0.0) < ROW_SAFE:
        return X, 1.0
    s = np.array([row_scale(t) if t >= ROW_SAFE else 1.0 for t in np.abs(X).max(axis=1).tolist()])
    return X / s[:, None], s


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
