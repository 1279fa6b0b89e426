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

The rank and the dominance relation build each unordered pair once, in row
blocks of halfspace planes, and read it both ways: the max of phi(v_i - v_j)
and phi(v_j - v_i) is the order-interval norm ||v_i - v_j||_e. The inclusion
at the rank reads the dominance relation on the rows of the constrained
minimal set only, each against every column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import default_tolerances
from .cones import InvalidCone, PolyhedralCone
from .gauge import ambient_norm, check_norm_p
from .numkernel import as_vector
from .scalarization import GerstewitzFn

_BLOCK = 64   # rows per pair block: 64 beat 128 and 256 on the penalty benchmark


class PreconditionViolation(ValueError):
    pass


def distance_to_set(x, omega, p: float = 2):
    """(min distance, attaining witness) from x to a finite point list or box.

    A box is passed as a (lower, upper) pair and handled by componentwise
    clamping, which is exact for every p-norm.
    """
    check_norm_p(p)
    x = as_vector(x, name="point")
    if isinstance(omega, tuple) and len(omega) == 2:
        lo = as_vector(omega[0], x.shape[0], "box lower")
        hi = as_vector(omega[1], x.shape[0], "box upper")
        if np.any(lo > hi):
            raise ValueError("invalid box")
        witness = np.clip(x, lo, hi)
        return ambient_norm(x - witness, p=p), witness
    pts = np.atleast_2d(np.asarray(omega, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("empty omega")
    dists = _pair_norms(x[None, :], pts, p)[0]
    k = int(np.argmin(dists))
    return float(dists[k]), pts[k]


def _pair_norms(X: np.ndarray, Y: np.ndarray, p: float) -> np.ndarray:
    out = _pair_sums(X, Y, p)
    return out if p in (1, math.inf) else np.sqrt(out, out=out)


def _pair_sums(X: np.ndarray, Y: np.ndarray, p: float) -> np.ndarray:
    """||x_i - y_j|| (the p-norm for p = 1 or inf, else the squared 2-norm)
    for all rows of X and Y, one coordinate plane at a time. Below 8
    coordinates the sum runs in the order of numpy's sum over a last axis."""
    power = np.abs if p in (1, math.inf) else np.square
    combine = np.maximum if p == math.inf else np.add
    out = np.zeros((X.shape[0], Y.shape[0]))
    plane = np.empty_like(out)
    for c in range(X.shape[1]):
        term = plane if c else out
        power(np.subtract(X[:, c, None], Y[None, :, c], out=term), out=term)
        if c:
            combine(out, plane, out=out)
    return out


def _pair_blocks(HV: np.ndarray):
    """Rows lo:hi against columns lo:n cover each unordered pair of rows once.
    Yields lo, hi and the planes HV[j, k] - HV[i, k] in one reused buffer."""
    n = HV.shape[0]
    count = max(1, n // _BLOCK)   # blocks of _BLOCK to 2 _BLOCK - 1 rows
    for k in range(count):
        lo, hi = k * n // count, (k + 1) * n // count
        buf = np.empty((hi - lo, n - lo))
        yield lo, hi, (np.subtract(hv[None, lo:], hv[lo:hi, None], out=buf)
                       for hv in HV.T)


class RankEstimate(NamedTuple):
    value: float
    # certified on the given sample; only a lower bound for the rank on a
    # continuum, hence flagged
    heuristic: bool


def cone_lipschitz_rank(points, values, cone: PolyhedralCone, e,
                        p: float = 2) -> RankEstimate:
    """Least L with f(x) <=_C f(y) + L ||x - y|| e over all sampled pairs.

    The max over unordered pairs of ||f(x) - f(y)||_e / ||x - y||, with the
    norm a running max of |<h_k, v_i> - <h_k, v_j>| / <h_k, e> (+inf where
    <h_k, e> = 0 and the difference is nonzero, as in halfspace_ratio).
    Coincident points with different values make the rank +inf.
    """
    check_norm_p(p)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    if pts.shape[0] != vals.shape[0] or pts.shape[0] < 2:
        raise ValueError("need matching points/values with at least one pair")
    tols = default_tolerances()
    phi = GerstewitzFn(cone, e)   # rejects e outside C, or with R e inside C
    he = cone.halfspace_values(phi.e)
    rank = 0.0
    for lo, hi, planes in _pair_blocks(cone.halfspace_values(vals)):
        num = np.zeros((hi - lo, pts.shape[0] - lo))
        for plane, h_e in zip(planes, he):
            np.abs(plane, out=plane)
            if h_e > tols.interior:
                np.maximum(num, np.divide(plane, h_e, out=plane), out=num)
            else:
                num[plane > tols.membership] = np.inf
        den = _pair_norms(pts[lo:hi], pts[lo:], p)
        np.fill_diagonal(den, 1.0)   # the pairs (i, i): num is 0 there
        close = den <= tols.coincident
        if close.any():
            if np.any(num[close] > tols.strict_nonzero):
                return RankEstimate(math.inf, True)
            den[close] = tols.coincident
        rank = max(rank, float(np.max(np.divide(num, den, out=num))))
    return RankEstimate(rank, True)


@dataclass
class PenaltyInstance:
    """Finite ground set S, feasible subset Omega, vector objective, cone data.

    A declared rank is validated at construction: every ordered pair of S
    must satisfy f(x) <=_C f(y) + rank * ||x - y|| e. With rank=None the rank
    is measured on S instead (cone_lipschitz_rank), once.
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
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
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
            self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        self.e = as_vector(self.e, self.cone.dim, "e")
        if not self.cone.interior_contains(self.e):
            raise InvalidCone("e must be interior to the cone")
        if abs(ambient_norm(self.e, p=self.norm_p) - 1.0) > default_tolerances().unit_norm:
            raise ValueError("e must have unit ambient norm")
        est = cone_lipschitz_rank(self.points, self.values, self.cone, self.e,
                                  p=self.norm_p)
        tols = default_tolerances()
        if self.rank is None:
            self.rank = est.value
        elif est.value > self.rank + tols.rank_slack * tols.membership:
            raise ValueError(
                f"declared rank {self.rank} violates the Lipschitz inequality "
                f"on the sample (measured {est.value})")

    @property
    def omega_points(self) -> np.ndarray:
        return self.points[self.feasible_mask]

    def distances_to_omega(self) -> np.ndarray:
        return np.min(_pair_norms(self.points, self.omega_points, self.norm_p), axis=1)

    def penalized_values(self, L: float) -> np.ndarray:
        return self.values + L * self.distances_to_omega()[:, None] * self.e[None, :]


def penalized_objective(instance: PenaltyInstance, L: float):
    """x -> f(x) + L d(x, Omega) e as a callable (x need not lie in S)."""
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
    radius = default_tolerances().lookup_radius
    hits = np.where(_pair_norms(instance.points, x[None, :], 2)[:, 0] <= radius)[0]
    if hits.size == 0:
        raise ValueError("point not in the ground set and no objective given")
    return instance.values[hits[0]]


def _dominance_reach(V: np.ndarray, cone: PolyhedralCone, tol: float,
                     rows: np.ndarray | None = None) -> np.ndarray:
    """reach[i] = max ||v_j - v_i|| over the j with <h_k, v_j> - <h_k, v_i> <= tol
    for every k (v_j - v_i in -C), 0 if none. Row i is cone-minimal at
    strict_tol iff not reach[i] > strict_tol: one relation, every strict_tol.
    A pair block's running max over k decides (i, j), its running min (j, i),
    read for j >= hi only: the diagonal square holds both directions.

    With rows given, the reach of those rows only, in their order, each read
    against every column in blocks of at most _BLOCK rows. A plane read the
    other way is the exact negation, so the values equal reach[rows]."""
    HV = cone.halfspace_values(V)
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        sq = np.zeros(rows.shape[0])
        for lo in range(0, rows.shape[0], _BLOCK):
            R = rows[lo:lo + _BLOCK]
            up = np.subtract(HV[None, :, 0], HV[R, None, 0])
            plane = np.empty_like(up)
            for hv in HV.T[1:]:
                np.maximum(up, np.subtract(hv[None, :], hv[R, None], out=plane), out=up)
            block = sq[lo:lo + _BLOCK]
            np.fmax(block, np.fmax.reduce(_pair_sums(V[R], V, 2) * (up <= tol), axis=1),
                    out=block)
        return np.sqrt(sq)
    n = V.shape[0]
    sq = np.zeros(n)   # squared: sqrt is monotone and correctly rounded
    for lo, hi, planes in _pair_blocks(HV):
        b = hi - lo
        up = next(planes).copy()
        down = up[:, b:].copy()
        for plane in planes:
            np.maximum(up, plane, out=up)
            np.minimum(down, plane[:, b:], out=down)
        norms = _pair_sums(V[lo:hi], V[lo:], 2)
        # a bool product is ~5x faster than np.where; fmax skips inf * 0 = NaN
        np.fmax(sq[lo:hi], np.fmax.reduce(norms * (up <= tol), axis=1), out=sq[lo:hi])
        if hi < n:
            np.fmax(sq[hi:], np.fmax.reduce(norms[:, b:] * (down >= -tol), axis=0), out=sq[hi:])
    return np.sqrt(sq)


def _minimal(reach: np.ndarray, strict_tol: float) -> np.ndarray:
    return np.flatnonzero(~(reach > strict_tol))


def cone_minimal_points(values, cone: PolyhedralCone) -> np.ndarray:
    """Indices i with no j such that values[j] - values[i] in -C \\ {0}."""
    tols = default_tolerances()
    V = np.atleast_2d(np.asarray(values, dtype=float))
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
    rank_heuristic: bool = True

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "rank": self.rank,
            "rank_is_sample_estimate": self.rank_heuristic,
            "minimal_constrained": [int(i) for i in self.minimal_constrained],
            "minimal_penalized": [int(i) for i in self.minimal_penalized],
            "equal": self.equal,
            "inclusion_at_rank": self.inclusion_at_rank,
            "tol_sensitive": self.tol_sensitive,
        }


def verify_penalty_equivalence(instance: PenaltyInstance, L: float) -> PenaltyReport:
    """Check both directions of the exact-penalty equivalence on the instance.

    Requires L > rank strictly (margin rank_margin); the one-directional
    inclusion is additionally checked at L = rank exactly, on the rows of the
    constrained minimal set m1 only: it holds iff none of them is dominated
    among the penalized values at the rank (vacuously for an empty m1). The
    report flags instances whose minimal sets move when the strict-order
    threshold is varied by a factor of ten.
    """
    tols = default_tolerances()
    if L <= instance.rank + tols.rank_margin:
        raise PreconditionViolation(
            f"penalty weight L={L} must exceed the rank {instance.rank} "
            "strictly; the equivalence is not guaranteed below that")
    cone, tol, st = instance.cone, tols.membership, tols.strict_nonzero
    omega_idx = np.flatnonzero(instance.feasible_mask)
    d = instance.distances_to_omega()[:, None]
    # one dominance relation per value set; every threshold reads it. At the
    # rank only m1's rows are read: m1 is included iff none of them is dominated
    r_omega = _dominance_reach(instance.values[omega_idx], cone, tol)
    r_L = _dominance_reach(instance.values + L * d * instance.e[None, :], cone, tol)
    m1 = omega_idx[_minimal(r_omega, st)]
    m2 = _minimal(r_L, st)
    r_rank = _dominance_reach(instance.values + instance.rank * d * instance.e[None, :],
                              cone, tol, m1)
    sensitive = not all(
        np.array_equal(omega_idx[_minimal(r_omega, st * f)], m1) and
        np.array_equal(_minimal(r_L, st * f), m2) for f in (0.1, 10.0))
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
    assert math.isfinite(inst.rank) and inst.rank > default_tolerances().min_sample_rank
    return inst
