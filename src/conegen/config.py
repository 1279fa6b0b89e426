"""Centralized tolerances and iteration caps shared by every module."""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_TOL = "CONEGEN_TOL"


@dataclass(frozen=True)
class Tolerances:
    """Tolerances used across the library; absolute unless stated otherwise.

    membership      slack accepted in cone inequalities <A_k, x> >= -membership;
                    unit cone rows closer than it are one row, and a unit ray
                    is tight on a unit row within it when cone descriptions
                    are converted; the modified Slater margin must exceed it
                    in units of the size of the margin's terms
    interior        strict-inequality margin for interior / strict-positivity tests
    strict_nonzero  norm threshold realizing "nonzero" in strict cone comparisons
    lp_feas         simplex feasibility threshold on each equilibrated row,
                    relative to max(1, |b_i|), b_i its right-hand side: phase 1
                    reports "infeasible" above it, and a final point above it
                    (and above lp_feas times the row's terms there) is
                    "numerical", not "optimal"
    lp_pivot        simplex pivot and reduced-cost threshold, and the ratio-test
                    tie threshold relative to max(1, step)
    rank_margin     required gap L - L_f before penalty equivalence is attempted
    gradient_map    stopping norm of the projected-gradient mapping
    kkt             KKT residual bound of an "optimal" primal, relative to
                    max(1, ||grad f(x)||_inf)
    qp_step         active-set QP, X the largest |bound| of the box: a step p is
                    zero at ||p||_inf <= qp_step * X, a row a'x <= b is active
                    at slack <= qp_step * ||a|| * X, a rate a'p counts above
                    qp_step * ||a|| * ||p||
    qp_curv         active-set QP: zero curvature at reduced-Hessian eigenvalues
                    <= qp_curv * ||Q||_F, descent along them at gradient
                    components > qp_curv * ||grad f||_inf; a row within
                    qp_curv * ||a|| of the span of those before it is dependent
                    (also for the rank of H in the Slater check and of a
                    cone's rows when its descriptions are converted); a box
                    program's Q is symmetric and PSD within qp_curv * ||Q||_F;
                    the dual function's stationarity residual counts as zero up
                    to qp_curv times the largest |entry| of its linear terms
    qp_sign         active-set QP: a working row's multiplier is negative below
                    -qp_sign * ||grad f||_inf / ||a||
    fd_step         step of finite-difference validation of directional derivatives
    fd_check        tolerance of that validation (absorbs kink proximity)
    gap_assert      duality-gap bound asserted under the modified Slater condition
    weak_duality    slack allowed in the weak-duality inequality
    coincident      sample points this close are one point (rank +inf if their
                    values differ); also the floor of the rank's pair distances
    rank_slack      measured rank may exceed a declared one by rank_slack * membership
    unit_norm       accepted deviation of the ambient norm of e from 1
    lookup_radius   Euclidean radius within which a point is a ground-set point
    min_sample_rank least rank of a random penalty instance
    isometry        largest support-minus-definitional Hausdorff gap of an isometry
    grid_match      largest coordinate gap of two direction grids lattice ops combine
    """

    membership: float = 1e-9
    interior: float = 1e-12
    strict_nonzero: float = 1e-8
    lp_feas: float = 1e-9
    lp_pivot: float = 1e-11
    rank_margin: float = 1e-9
    gradient_map: float = 1e-7
    kkt: float = 1e-6
    qp_step: float = 1e-12
    qp_curv: float = 1e-10
    qp_sign: float = 1e-9
    fd_step: float = 1e-5
    fd_check: float = 1e-4
    gap_assert: float = 1e-5
    weak_duality: float = 1e-9
    coincident: float = 1e-15
    rank_slack: float = 1e3
    unit_norm: float = 1e-9
    lookup_radius: float = 1e-12
    min_sample_rank: float = 1e-6
    isometry: float = 1e-9
    grid_match: float = 1e-12


@dataclass(frozen=True)
class SolverLimits:
    simplex_iters: int = 20_000
    active_set_iters: int = 2_000
    pg_iters: int = 200_000


def default_tolerances() -> Tolerances:
    """Default tolerances; CONEGEN_TOL (absolute, numeric) overrides membership."""
    env = os.environ.get(ENV_TOL)
    return DEFAULT_TOLERANCES if env is None else \
        replace(DEFAULT_TOLERANCES, membership=float(env))


DEFAULT_TOLERANCES = Tolerances()   # frozen: one instance serves every caller
DEFAULT_LIMITS = SolverLimits()


def resolve_tol(tol: float | None) -> float:
    return default_tolerances().membership if tol is None else float(tol)
