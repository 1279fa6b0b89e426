"""Reference implementations for the penalty suite, kept deliberately plain.

rank_oracle, minimal_oracle and report_oracle are the all-pairs tensor forms
of cone_lipschitz_rank, cone_minimal_points and verify_penalty_equivalence:
they difference every ordered pair of rows into an n x n x m tensor, map it
through the cone's halfspaces and filter it once per threshold. The library
works in halfspace coordinates instead, one plane per halfspace over row
blocks of the unordered pairs; the tests compare the two.
brute_force_grid_min is an independent double loop over pairs with its own
halfspace test, min_k <h_k, -diff> >= -tol.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from conegen.config import default_tolerances
from conegen.penalty import PenaltyReport
from conegen.scalarization import GerstewitzFn


def _norms(D: np.ndarray, p: float) -> np.ndarray:
    if p == math.inf:
        return np.max(np.abs(D), axis=-1)
    if p == 1:
        return np.sum(np.abs(D), axis=-1)
    return np.sqrt(np.sum(D * D, axis=-1))


def rank_oracle(points, values, cone, e, p: float = 2) -> float:
    """max over ordered pairs of phi_{e,C}(f(x) - f(y)) / ||x - y||."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    phi = GerstewitzFn(cone, e)
    diffs = vals[:, None, :] - vals[None, :, :]
    n = pts.shape[0]
    num = phi.value_many(diffs.reshape(n * n, -1)).reshape(n, n)
    den = _norms(pts[:, None, :] - pts[None, :, :], p)
    np.fill_diagonal(den, 1.0)
    np.fill_diagonal(num, 0.0)
    if np.any((den <= 1e-15) & (num > default_tolerances().strict_nonzero)):
        return math.inf
    den = np.maximum(den, 1e-15)
    return max(0.0, float(np.max(num / den)))


def minimal_oracle(values, cone, tol: float | None = None,
                   strict_tol: float | None = None) -> np.ndarray:
    """Indices i with no j such that values[j] - values[i] in -C \\ {0}."""
    tols = default_tolerances()
    tol = tols.membership if tol is None else tol
    strict_tol = tols.strict_nonzero if strict_tol is None else strict_tol
    V = np.atleast_2d(np.asarray(values, dtype=float))
    diff = V[None, :, :] - V[:, None, :]          # diff[i, j] = v_j - v_i
    memb = np.all(np.tensordot(diff, -cone.halfspaces, axes=([2], [1])) >= -tol, axis=2)
    nonzero = _norms(diff, 2) > strict_tol
    return np.where(~np.any(memb & nonzero, axis=1))[0]


def report_oracle(instance, L: float) -> PenaltyReport:
    """The exact-penalty report by seven independent all-pairs filters."""
    tols = default_tolerances()
    omega_idx = np.where(instance.feasible_mask)[0]
    D = _norms(instance.points[:, None, :] - instance.omega_points[None, :, :],
               instance.norm_p)
    dist = np.min(D, axis=1)

    def penalized(w):
        return instance.values + w * dist[:, None] * instance.e[None, :]

    def constrained(st=None):
        return omega_idx[minimal_oracle(instance.values[omega_idx], instance.cone,
                                        strict_tol=st)]

    m1 = constrained()
    m2 = minimal_oracle(penalized(L), instance.cone)
    m2_rank = minimal_oracle(penalized(instance.rank), instance.cone)
    sensitive = False
    for factor in (0.1, 10.0):
        st = tols.strict_nonzero * factor
        if not (np.array_equal(constrained(st), m1) and
                np.array_equal(minimal_oracle(penalized(L), instance.cone,
                                              strict_tol=st), m2)):
            sensitive = True
    return PenaltyReport(L=L, rank=instance.rank, minimal_constrained=m1,
                         minimal_penalized=m2, equal=np.array_equal(m1, m2),
                         inclusion_at_rank=bool(np.all(np.isin(m1, m2_rank))),
                         tol_sensitive=sensitive)


def brute_force_grid_min(evaluate: Callable[[np.ndarray], np.ndarray],
                         grid: Sequence | np.ndarray,
                         cone,
                         tol: float | None = None,
                         strict_tol: float | None = None):
    """Exhaustive cone-minimal subset of evaluate over a finite grid.

    grid is either an (N, d) array of points or a sequence of 1-D axes whose
    cartesian product forms the grid. Returns (indices, points, values).
    """
    tols = default_tolerances()
    tol = tols.membership if tol is None else tol
    strict_tol = tols.strict_nonzero if strict_tol is None else strict_tol
    pts = np.asarray(grid, dtype=float) if not isinstance(grid, (list, tuple)) else None
    if pts is None or pts.ndim != 2:
        axes = [np.asarray(a, dtype=float) for a in grid]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
    if pts.shape[0] == 0:
        raise ValueError("empty grid")
    values = [np.atleast_1d(np.asarray(evaluate(p), dtype=float)) for p in pts]
    minimal = []
    for i in range(len(values)):
        dominated = False
        for j in range(len(values)):
            if i == j:
                continue
            diff = values[j] - values[i]  # want: diff in -C \ {0}
            if float(np.linalg.norm(diff)) <= strict_tol:
                continue
            if np.min(cone.halfspaces @ -diff) >= -tol:
                dominated = True
                break
        if not dominated:
            minimal.append(i)
    idx = np.array(minimal, dtype=int)
    return idx, pts[idx], np.array([values[i] for i in idx])
