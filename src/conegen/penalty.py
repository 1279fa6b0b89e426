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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import default_tolerances
from .cones import InvalidCone, PolyhedralCone
from .gauge import ambient_norm
from .numkernel import as_vector
from .scalarization import GerstewitzFn


class PreconditionViolation(ValueError):
    pass


def distance_to_set(x, omega, p: float = 2):
    """(min distance, attaining witness) from x to a finite point list or box.

    A box is passed as a (lower, upper) pair and handled by componentwise
    clamping, which is exact for every p-norm.
    """
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
    dists = _norms(x[None, :] - pts, p)
    k = int(np.argmin(dists))
    return float(dists[k]), pts[k]


def _norms(D: np.ndarray, p: float) -> np.ndarray:
    if p == math.inf:
        return np.max(np.abs(D), axis=-1)
    if p == 1:
        return np.sum(np.abs(D), axis=-1)
    return np.sqrt(np.sum(D * D, axis=-1))


class RankEstimate(NamedTuple):
    value: float
    # certified on the given sample; only a lower bound for the rank on a
    # continuum, hence flagged
    heuristic: bool


def cone_lipschitz_rank(points, values, cone: PolyhedralCone, e,
                        p: float = 2) -> RankEstimate:
    """Least L with f(x) <=_C f(y) + L ||x - y|| e over all sampled pairs.

    Computed as the max over ordered pairs of phi_{e,C}(f(x) - f(y)) / ||x-y||.
    Coincident points with different values make the rank +inf.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    if pts.shape[0] != vals.shape[0] or pts.shape[0] < 2:
        raise ValueError("need matching points/values with at least one pair")
    phi = GerstewitzFn(cone, e)
    diffs = vals[:, None, :] - vals[None, :, :]
    n = pts.shape[0]
    num = phi.value_many(diffs.reshape(n * n, -1)).reshape(n, n)
    den = _norms(pts[:, None, :] - pts[None, :, :], p)
    np.fill_diagonal(den, 1.0)
    np.fill_diagonal(num, 0.0)
    coincident = (den <= 1e-15) & (num > default_tolerances().strict_nonzero)
    if np.any(coincident):
        return RankEstimate(math.inf, True)
    den = np.maximum(den, 1e-15)
    return RankEstimate(max(0.0, float(np.max(num / den))), True)


@dataclass
class PenaltyInstance:
    """Finite ground set S, feasible subset Omega, vector objective, cone data.

    The declared rank is validated at construction: every ordered pair of S
    must satisfy f(x) <=_C f(y) + rank * ||x - y|| e.
    """

    points: np.ndarray
    feasible_mask: np.ndarray
    objective: Callable[[np.ndarray], np.ndarray] | None
    cone: PolyhedralCone
    e: np.ndarray
    rank: float
    norm_p: float = 2
    values: np.ndarray = field(default=None)

    def __post_init__(self):
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
        if abs(ambient_norm(self.e, p=self.norm_p) - 1.0) > 1e-9:
            raise ValueError("e must have unit ambient norm")
        self._check_rank()

    def _check_rank(self):
        est = cone_lipschitz_rank(self.points, self.values, self.cone, self.e,
                                  p=self.norm_p)
        if est.value > self.rank + 1e3 * default_tolerances().membership:
            raise ValueError(
                f"declared rank {self.rank} violates the Lipschitz inequality "
                f"on the sample (measured {est.value})")

    @property
    def omega_points(self) -> np.ndarray:
        return self.points[self.feasible_mask]

    def distances_to_omega(self) -> np.ndarray:
        D = _norms(self.points[:, None, :] - self.omega_points[None, :, :], self.norm_p)
        return np.min(D, axis=1)

    def penalized_values(self, L: float) -> np.ndarray:
        d = self.distances_to_omega()
        return self.values + L * d[:, None] * self.e[None, :]


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
    hits = np.where(_norms(instance.points - x[None, :], 2) <= 1e-12)[0]
    if hits.size == 0:
        raise ValueError("point not in the ground set and no objective given")
    return instance.values[hits[0]]


def cone_minimal_points(values, cone: PolyhedralCone, tol: float | None = None,
                        strict_tol: float | None = None) -> np.ndarray:
    """Indices i with no j such that values[j] - values[i] in -C \\ {0}."""
    tols = default_tolerances()
    tol = tols.membership if tol is None else tol
    strict_tol = tols.strict_nonzero if strict_tol is None else strict_tol
    V = np.atleast_2d(np.asarray(values, dtype=float))
    if V.shape[0] == 0:
        raise ValueError("empty value list")
    diff = V[None, :, :] - V[:, None, :]          # diff[i, j] = v_j - v_i
    memb = np.all(np.tensordot(diff, -cone.halfspaces, axes=([2], [1])) >= -tol, axis=2)
    nonzero = _norms(diff, 2) > strict_tol
    dominated = np.any(memb & nonzero, axis=1)
    return np.where(~dominated)[0]


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
    inclusion is additionally checked at L = rank exactly. The report flags
    instances whose minimal sets move when the strict-order threshold is
    varied by a factor of ten.
    """
    tols = default_tolerances()
    if L <= instance.rank + tols.rank_margin:
        raise PreconditionViolation(
            f"penalty weight L={L} must exceed the rank {instance.rank} "
            "strictly; the equivalence is not guaranteed below that")
    omega_idx = np.where(instance.feasible_mask)[0]
    m1_local = cone_minimal_points(instance.values[omega_idx], instance.cone)
    m1 = omega_idx[m1_local]
    m2 = cone_minimal_points(instance.penalized_values(L), instance.cone)
    equal = np.array_equal(np.sort(m1), np.sort(m2))

    m2_rank = cone_minimal_points(instance.penalized_values(instance.rank), instance.cone)
    inclusion = bool(np.all(np.isin(m1, m2_rank)))

    sensitive = False
    for factor in (0.1, 10.0):
        st = tols.strict_nonzero * factor
        a = omega_idx[cone_minimal_points(instance.values[omega_idx], instance.cone,
                                          strict_tol=st)]
        b = cone_minimal_points(instance.penalized_values(L), instance.cone,
                                strict_tol=st)
        if not (np.array_equal(np.sort(a), np.sort(m1)) and
                np.array_equal(np.sort(b), np.sort(m2))):
            sensitive = True
    return PenaltyReport(L=L, rank=instance.rank, minimal_constrained=np.sort(m1),
                         minimal_penalized=np.sort(m2), equal=equal,
                         inclusion_at_rank=inclusion, tol_sensitive=sensitive)


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
    est = cone_lipschitz_rank(pts, values, cone, e, p=2)
    assert math.isfinite(est.value) and est.value > 1e-6
    return PenaltyInstance(points=pts, feasible_mask=mask, objective=None,
                           cone=cone, e=e, rank=est.value, values=values)
