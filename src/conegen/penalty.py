"""Exact penalization on finite ground sets.

The constrained program min f(x) over Omega subset S is compared with the
penalized program min f(x) + L d(x, Omega) e over S. With L strictly above
the cone-Lipschitz rank of f the two cone-minimal sets coincide exactly, and
at L equal to the rank the constrained minimal set is still contained in the
penalized one; both statements are verified by exhaustive enumeration, never
by a local solver.

Strict cone dominance v in -C \\ {0} is realized as closed-cone membership at
tolerance plus a norm threshold: the equivalence statement orders values by
the non-closed cone of interior points together with 0, and the norm margin
makes "\\ {0}" robust on grids.

Every pairwise plane starts from one outer difference y_j - x_i, formed as
the product of [-x, 1] and [1; y] (_outer_diff): each entry rounds once, as
the subtraction does, and only the sign of a zero can differ, which every
plane erases.

The rank builds each unordered pair once, in row blocks of halfspace
planes, and reads it both ways: the max of phi(v_i - v_j) and
phi(v_j - v_i) is the order-interval norm ||v_i - v_j||_e. On a line
(points in R^1) one sort answers instead: a chord's slope is a gap-weighted
mean of the slopes of the consecutive pairs it spans, so the rank is read
off sorted neighbours, and the distance of a point to Omega off its nearest
Omega points on either side. p = 2 norms square differences of entries
scaled by an exact power of two where a square could overflow or
underflow.

The dominance relation reads rows against columns in blocks. A
verification builds the full relation on Omega's values only. The penalized
values are first read against the columns of the constrained minimal set
m1, which above the rank dominates the points outside Omega; the rows this
screen leaves open are then read against every column. The inclusion at
the rank reads the rows of m1 only, each against every column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import Tolerances, default_tolerances
from .cones import ROUNDING, InvalidCone, OrderUnit, PolyhedralCone, scaled_set
from .gauge import ambient_norm, check_norm_p, norm_scaled
from .numkernel import as_matrix, as_vector

_BLOCK = 64   # rows per pair block: 48-96 read alike on penalty ops; 32, 128 slower at n > 400
# the factors of strict_nonzero at which a report re-reads the minimal sets
_SWEEP = (0.1, 10.0)


class PreconditionViolation(ValueError):
    pass


def distance_to_set(x, omega, p: float = 2):
    """(min distance, attaining witness) from x to a finite point list
    Omega, measured with the pair norms, which neither overflow nor
    underflow."""
    check_norm_p(p)
    x = as_vector(x, name="point")
    pts = as_matrix(omega, x.shape[0], "omega")
    if pts.shape[0] == 0:
        raise ValueError("empty omega")
    dists = _pair_norms(x[None, :], pts, p)[0]
    k = int(np.argmin(dists))
    return float(dists[k]), pts[k]


def _pair_norms(X: np.ndarray, Y: np.ndarray, p: float) -> np.ndarray:
    shift, X, Y = norm_scaled(p, X, Y)
    return _root(_pair_sums(_left(X), _right(Y), p), p, shift)


def _root(sums: np.ndarray, p: float, shift: int) -> np.ndarray:
    """The norms, in place, from sums of _pair_sums over arrays read at
    2^-shift (norm_scaled)."""
    if p in (1, math.inf):
        return sums
    np.sqrt(sums, out=sums)
    return np.ldexp(sums, shift, out=sums) if shift else sums


def _left(X: np.ndarray) -> np.ndarray:
    """[-x, 1] for each column x of X (n x d), as a d x n x 2 array: the left
    factors of _outer_diff."""
    out = np.ones((X.shape[1], X.shape[0], 2))
    np.negative(X.T, out=out[:, :, 0])
    return out


def _right(Y: np.ndarray) -> np.ndarray:
    """[1; y] for each column y of Y (m x d), as a d x 2 x m array: the right
    factors of _outer_diff."""
    out = np.ones((Y.shape[1], 2, Y.shape[0]))
    out[:, 1] = Y.T
    return out


def _outer_diff(left: np.ndarray, right: np.ndarray, out=None) -> np.ndarray:
    """y_j - x_i for every i, j, from left = [-x, 1] and right = [1; y], as
    one product. Each entry (-x_i) * 1 + 1 * y_j is a sum of two exact
    products, so it rounds once, as y_j - x_i does, in any summation order,
    with or without FMA, on any BLAS kernel; only the sign of a zero can
    differ, and every caller erases it (abs, square, or a <= test). The
    product costs a fraction of numpy's broadcast subtract per entry."""
    return np.matmul(left, right, out=out)


def _pair_sums(XL: np.ndarray, YR: np.ndarray, p: float) -> np.ndarray:
    """||x_i - y_j|| (the p-norm for p = 1 or inf, else the squared 2-norm)
    for all rows of X and Y, from their factors XL = _left(X) and YR =
    _right(Y), one coordinate plane at a time. Below 8 coordinates the sum
    runs in the order of numpy's sum over a last axis."""
    power = np.abs if p in (1, math.inf) else np.square
    combine = np.maximum if p == math.inf else np.add
    out = np.zeros((XL.shape[1], YR.shape[2]))
    plane = np.empty_like(out)
    for c in range(XL.shape[0]):
        term = plane if c else out
        power(_outer_diff(XL[c], YR[c], out=term), out=term)
        if c:
            combine(out, plane, out=out)
    return out


def _pair_blocks(HV: np.ndarray):
    """Rows lo:hi against columns lo:n cover each unordered pair of rows once.
    Yields lo, hi and the planes HV[j, k] - HV[i, k] in one reused buffer."""
    n = HV.shape[0]
    count = max(1, n // _BLOCK)   # blocks of _BLOCK to 2 _BLOCK - 1 rows
    left, right = _left(HV), _right(HV)
    for k in range(count):
        lo, hi = k * n // count, (k + 1) * n // count
        buf = np.empty((hi - lo, n - lo))
        yield lo, hi, (_outer_diff(hl[lo:hi], hr[:, lo:], out=buf)
                       for hl, hr in zip(left, right))


class RankEstimate(NamedTuple):
    value: float


# the last measurement: (key of its exact inputs, estimate); see cone_lipschitz_rank
_last_rank: tuple | None = None


def cone_lipschitz_rank(points, values, cone: PolyhedralCone, e,
                        p: float = 2) -> RankEstimate:
    """Least L with f(x) <=_C f(y) + L ||x - y|| e over all sampled pairs.

    The max over unordered pairs of ||f(x) - f(y)||_e / ||x - y||, with the
    norm a running max of |<h_k, v_i> - <h_k, v_j>| / <h_k, e> (+inf where
    <h_k, e> = 0 and the difference is nonzero, as in OrderUnit.ratio).
    Coincident points with different values make the rank +inf; a point or
    value with a nan or infinite entry is refused (ValueError). Points on a
    line are read in one sort: the max is attained at sorted neighbours
    (_line_rank), and two neighbours within coincident hand the sample to
    the pairwise kernel. p = 2 distances neither overflow nor underflow:
    where a square could, the points are scaled by an exact power of two
    first.

    The last estimate is kept with the exact inputs the measurement reads:
    the bytes of points, values, e and the cone's halfspaces, the cone's
    kind, p and the tolerances in force. A rank just measured on the same
    inputs, as when PenaltyInstance checks a declared rank its caller has
    measured, is returned without being measured again; a call that raises
    keeps nothing.
    """
    global _last_rank
    check_norm_p(p)
    pts, vals = as_matrix(points, name="points"), as_matrix(values, cone.dim, "values")
    if pts.shape[0] != vals.shape[0] or pts.shape[0] < 2:
        raise ValueError("need matching points/values with at least one pair")
    e = as_vector(e, cone.dim, "direction e")
    tols = default_tolerances()
    H = cone.halfspaces
    key = (pts.shape, pts.tobytes(), vals.shape, vals.tobytes(), cone.kind,
           H.shape, H.tobytes(), e.tobytes(), p, tols)
    last = _last_rank
    if last is not None and last[0] == key:
        return last[1]
    est = _measure_rank(pts, vals, cone, e, p, tols)
    _last_rank = (key, est)
    return est


def _measure_rank(pts: np.ndarray, vals: np.ndarray, cone: PolyhedralCone,
                  e: np.ndarray, p: float, tols: Tolerances) -> RankEstimate:
    unit = OrderUnit(cone, e)   # rejects e outside C, or with R e inside C
    # far values are read at 1 / scale of their size, one scale for every row
    # since the rank compares them; the rank scales back exactly, and the
    # face slack is read at the same scale
    vals, scale = scaled_set(vals)
    HV, slack = cone.halfspace_values(vals), unit.slack / scale
    if pts.shape[1] == 1:
        rank = _line_rank(pts[:, 0], HV, unit, slack, tols)
        if rank is not None:
            return RankEstimate(rank * scale)
    rank, (shift, pts) = 0.0, norm_scaled(p, pts)
    left, right = _left(pts), _right(pts)
    for lo, hi, planes in _pair_blocks(HV):
        num = np.zeros((hi - lo, pts.shape[0] - lo))
        for plane, h_e, on_face in zip(planes, unit.hu, unit.face):
            np.abs(plane, out=plane)
            if on_face:
                num[plane > slack] = np.inf
            else:
                np.maximum(num, np.divide(plane, h_e, out=plane), out=num)
        den = _root(_pair_sums(left[:, lo:hi], right[:, :, lo:], p), p, shift)
        np.fill_diagonal(den, 1.0)   # the pairs (i, i): num is 0 there
        close = den <= tols.coincident
        if close.any():
            if np.any(num[close] > tols.strict_nonzero / scale):
                return RankEstimate(math.inf)
            den[close] = tols.coincident
        rank = max(rank, float(np.max(np.divide(num, den, out=num))))
    return RankEstimate(rank * scale)


def _line_rank(x: np.ndarray, HV: np.ndarray, unit: OrderUnit, slack: float,
               tols: Tolerances) -> float | None:
    """The rank of points x_i on a line from one sort, or None when two
    sorted neighbours lie within coincident (the pairwise kernel applies the
    coincident rule then). Over a chord, <h_k, v> / <h_k, e> changes by the
    sum of its changes over the consecutive pairs the chord spans, and the
    chord's length is the sum of their gaps, in every p-norm: so no chord's
    slope exceeds the largest consecutive one, each read as the pairwise
    kernel reads it. A face row is +inf when its range, the largest
    difference of any pair, exceeds slack. Rounding can put a chord above
    every consecutive pair, by at most 8 units of roundoff (four roundings
    on each side): the value is then at most about 4 eps below the pairwise
    kernel's, and never above it."""
    order = np.argsort(x, kind="stable")
    gap = np.diff(x[order])
    if np.any(gap <= tols.coincident):
        return None
    if unit.face.any() and np.any(np.ptp(HV[:, unit.face], axis=0) > slack):
        return math.inf
    off = ~unit.face
    slope = np.abs(np.diff(HV[order][:, off], axis=0)) / unit.hu[off]
    return float(np.max(slope.max(axis=1) / gap))


@dataclass
class PenaltyInstance:
    """Finite ground set S, feasible subset Omega, vector objective, cone data.

    A declared rank is validated at construction, and nan refused: every
    ordered pair of S must satisfy f(x) <=_C f(y) + rank * ||x - y|| e, up
    to kkt times the rank, a fraction of the rank itself, so the check reads
    alike at every scale of the values. With rank=None the rank
    is measured on S instead (cone_lipschitz_rank), once. A declared rank that
    the caller has just measured on the same points, values, cone, e and p
    is not measured again: cone_lipschitz_rank returns its last estimate.
    """

    points: np.ndarray
    feasible_mask: np.ndarray
    objective: Callable[[np.ndarray], np.ndarray] | None
    cone: PolyhedralCone
    e: np.ndarray
    rank: float | None
    norm_p: float = 2
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        check_norm_p(self.norm_p)
        if self.rank is not None and math.isnan(self.rank):
            raise ValueError("declared rank must not be nan")
        self.points = as_matrix(self.points, name="points")
        self.feasible_mask = np.asarray(self.feasible_mask, dtype=bool)
        if self.feasible_mask.shape[0] != self.points.shape[0]:
            raise ValueError("feasible mask length mismatch")
        if not np.any(self.feasible_mask):
            raise ValueError("Omega must be nonempty")
        if self.values is None:
            if self.objective is None:
                raise ValueError("need objective or precomputed values")
            self.values = np.array([as_vector(self.objective(x), self.cone.dim, "f(x)")
                                    for x in self.points])
        else:
            self.values = as_matrix(self.values, self.cone.dim, "values")
        self.e = as_vector(self.e, self.cone.dim, "e")
        if not self.cone.interior_contains(self.e):
            raise InvalidCone("e must be interior to the cone")
        if abs(ambient_norm(self.e, p=self.norm_p) - 1.0) > default_tolerances().unit_norm:
            raise ValueError("e must have unit ambient norm")
        est = cone_lipschitz_rank(self.points, self.values, self.cone, self.e,
                                  p=self.norm_p)
        if self.rank is None:
            self.rank = est.value
        elif est.value > self.rank * (1.0 + default_tolerances().kkt):
            raise ValueError(
                f"declared rank {self.rank} violates the Lipschitz inequality "
                f"on the sample (measured {est.value})")

    @property
    def omega_points(self) -> np.ndarray:
        return self.points[self.feasible_mask]

    def distances_to_omega(self) -> np.ndarray:
        """d(x, Omega) in the norm_p norm for every point x of S. On a line,
        where every p-norm is |x - y|, from the nearest Omega points on
        either side of x in one sort of Omega; else from every pair, p = 2
        norms scaled by a power of two where a square could overflow or
        underflow."""
        pts, omega, p = self.points, self.omega_points, self.norm_p
        if pts.shape[1] == 1:
            return _line_distances(pts[:, 0], omega[:, 0])
        shift, pts, omega = norm_scaled(p, pts, omega)
        # the root of the row minimum: sqrt is monotone and correctly rounded
        return _root(np.min(_pair_sums(_left(pts), _right(omega), p), axis=1), p, shift)

    def penalized_values(self, L: float) -> np.ndarray:
        return self.values + L * self.distances_to_omega()[:, None] * self.e[None, :]


def _line_distances(x: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """min_j |x_i - omega_j| from the sorted omega: its nearest entries at or
    above x_i and below x_i."""
    w = np.sort(omega)
    above = np.searchsorted(w, x)   # w[above - 1] < x_i <= w[above]
    return np.minimum(np.abs(x - w[np.minimum(above, w.size - 1)]),
                      np.abs(x - w[np.maximum(above - 1, 0)]))


def penalized_objective(instance: PenaltyInstance, L: float):
    """x -> f(x) + L d(x, Omega) e as a callable (x need not lie in S)."""
    if not math.isfinite(L):
        raise ValueError(f"penalty weight L={L} must be finite")
    if L < 0:
        raise ValueError("penalty weight must be nonnegative")
    omega = instance.omega_points

    def value(x):
        x = as_vector(x, instance.points.shape[1], "point")
        fx = as_vector(instance.objective(x), instance.cone.dim, "f(x)") \
            if instance.objective is not None else _lookup(instance, x)
        dist, _ = distance_to_set(x, omega, p=instance.norm_p)
        return fx + L * dist * instance.e

    return value


def _lookup(instance, x):
    radius = default_tolerances().coincident
    hits = np.where(_pair_norms(instance.points, x[None, :], 2)[:, 0] <= radius)[0]
    if hits.size == 0:
        raise ValueError("point not in the ground set and no objective given")
    return instance.values[hits[0]]


def _dominance_reach(V: np.ndarray, cone: PolyhedralCone, tol: float,
                     rows: np.ndarray | None = None,
                     cols: np.ndarray | None = None) -> np.ndarray:
    """reach[i] = max ||v_j - v_i|| over the j with <h_k, v_j> - <h_k, v_i> <= tol
    for every k (v_j - v_i in -C), 0 if none. Row i is cone-minimal at
    strict_tol iff not reach[i] > strict_tol: one relation, every strict_tol.

    The reach of the given rows only, in their order, over the given columns
    only (every row, every column by default), in blocks of about
    _BLOCK * n pairs; over a column subset each value is a lower bound of
    the reach over every column."""
    Vs, scale = scaled_set(V)   # one power of two for the set: it compares its rows
    HV, tol = cone.halfspace_values(Vs), tol / scale
    n = V.shape[0]
    shift, V = norm_scaled(2, V)   # the columns are rows of V: one shift for both
    R = slice(None) if rows is None else rows
    C = slice(None) if cols is None else cols
    HL, HC, VL, VC = _left(HV[R]), _right(HV[C]), _left(V[R]), _right(V[C])
    sq = np.zeros(HL.shape[1])   # squared: sqrt is monotone and correctly rounded
    step = max(1, _BLOCK * n // max(1, VC.shape[2]))
    for lo in range(0, sq.shape[0], step):
        hi = lo + step
        up = _outer_diff(HL[0, lo:hi], HC[0])
        plane = np.empty_like(up)
        for hl, hc in zip(HL[1:], HC[1:]):
            np.maximum(up, _outer_diff(hl[lo:hi], hc, out=plane), out=up)
        # a bool product is ~5x faster than np.where; fmax skips inf * 0 = NaN
        sq[lo:hi] = np.fmax.reduce(_pair_sums(VL[:, lo:hi], VC, 2) * (up <= tol),
                                   axis=1, initial=0.0)
    with np.errstate(over="ignore"):   # a reach past the largest float reads inf
        return _root(sq, 2, shift)


def _minimal(reach: np.ndarray, strict_tol: float) -> np.ndarray:
    return np.flatnonzero(~(reach > strict_tol))


def cone_minimal_points(values, cone: PolyhedralCone) -> np.ndarray:
    """Indices i with no j such that values[j] - values[i] in -C \\ {0}."""
    tols = default_tolerances()
    V = as_matrix(values, cone.dim, "values")
    if V.shape[0] == 0:
        raise ValueError("empty value list")
    return _minimal(_dominance_reach(V, cone, tols.membership), tols.strict_nonzero)


@dataclass
class PenaltyReport:
    L: float
    rank: float
    minimal_constrained: np.ndarray       # indices into the ground set
    minimal_penalized: np.ndarray
    equal: bool
    inclusion_at_rank: bool
    tol_sensitive: bool

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "rank": self.rank,
            # certified on the sample only: a lower bound for the rank on a
            # continuum
            "rank_is_sample_estimate": True,
            "minimal_constrained": [int(i) for i in self.minimal_constrained],
            "minimal_penalized": [int(i) for i in self.minimal_penalized],
            "equal": self.equal,
            "inclusion_at_rank": self.inclusion_at_rank,
            "tol_sensitive": self.tol_sensitive,
        }


def verify_penalty_equivalence(instance: PenaltyInstance, L: float) -> PenaltyReport:
    """Check both directions of the exact-penalty equivalence on the instance.

    Requires a finite L above the rank by more than the rank's rounding,
    ROUNDING * dim times the rank, so the precondition reads alike at every
    scale of the values; the one-directional inclusion is additionally
    checked at L = rank exactly, on the rows of the
    constrained minimal set m1 only: it holds iff none of them is dominated
    among the penalized values at the rank (vacuously for an empty m1). The
    report flags instances whose minimal sets move when the strict-order
    threshold is varied by a factor of ten (_SWEEP).

    The penalized values at L are screened against the columns of m1 first.
    A screened entry is the entry of the full relation, so a screened reach
    is a lower bound of the full one, and a row it puts above the largest
    threshold read is decided at every threshold. The other rows, the open
    ones, get their full reach; the report reads the same as from the full
    relation, for any m1.
    """
    tols = default_tolerances()
    if not math.isfinite(L):
        raise PreconditionViolation(f"penalty weight L={L} must be finite")
    if L <= instance.rank * (1.0 + ROUNDING * instance.cone.dim):
        raise PreconditionViolation(
            f"penalty weight L={L} must exceed the rank {instance.rank} "
            "strictly; the equivalence is not guaranteed below that")
    cone, tol, st = instance.cone, tols.membership, tols.strict_nonzero
    omega_idx = np.flatnonzero(instance.feasible_mask)
    d = instance.distances_to_omega()[:, None]
    # one dominance relation per value set; every threshold reads it
    r_omega = _dominance_reach(instance.values[omega_idx], cone, tol)
    m1 = omega_idx[_minimal(r_omega, st)]
    # at L, a row that m1 dominates by more than the largest threshold is
    # decided: its full reach is no smaller. Only the open rows read every column
    V_L = instance.values + L * d * instance.e[None, :]
    r_L = _dominance_reach(V_L, cone, tol, cols=m1)
    open_rows = _minimal(r_L, st * max(_SWEEP))
    r_L[open_rows] = _dominance_reach(V_L, cone, tol, rows=open_rows)
    m2 = _minimal(r_L, st)
    # at the rank only m1's rows are read: m1 is included iff none is dominated
    r_rank = _dominance_reach(instance.values + instance.rank * d * instance.e[None, :],
                              cone, tol, rows=m1)
    sensitive = not all(
        np.array_equal(omega_idx[_minimal(r_omega, st * f)], m1) and
        np.array_equal(_minimal(r_L, st * f), m2) for f in _SWEEP)
    return PenaltyReport(L=L, rank=instance.rank, minimal_constrained=m1,
                         minimal_penalized=m2, equal=np.array_equal(m1, m2),
                         inclusion_at_rank=not np.any(r_rank > st),
                         tol_sensitive=sensitive)


def random_instance(rng: np.random.Generator, max_dim: int = 3, max_m: int = 3,
                    max_points: int = 400) -> PenaltyInstance:
    """Random finite instance with measured (hence certified) Lipschitz rank."""
    d = int(rng.integers(1, max_dim + 1))
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(20, max_points + 1))
    pts = rng.uniform(-1.0, 1.0, size=(n, d))
    mask = rng.random(n) < 0.3
    if not np.any(mask):
        mask[int(rng.integers(0, n))] = True
    if m >= 2 and rng.random() < 0.4:
        gens = np.eye(m) + 0.25 * rng.uniform(-1.0, 1.0, size=(m, m))
        cone = PolyhedralCone(m, generators=gens, halfspaces=np.linalg.inv(gens).T)
    else:
        cone = PolyhedralCone(m, kind="coordinate")
    A = rng.normal(size=(m, d))
    # smooth perturbation keeps the measured rank moderate, so the penalty
    # weight 1.1 * rank stays in the regime where escaping Omega is tempting
    W = rng.normal(size=(m, d)) * 3.0
    phase = rng.uniform(0, 2 * np.pi, size=m)
    noise = 0.3 * np.sin(pts @ W.T + phase)
    values = pts @ A.T + noise
    e_raw = np.sum(cone.generators, axis=0)
    e = e_raw / ambient_norm(e_raw, p=2)
    inst = PenaltyInstance(points=pts, feasible_mask=mask, objective=None,
                           cone=cone, e=e, rank=None, values=values)
    assert math.isfinite(inst.rank) and inst.rank > 0
    return inst
