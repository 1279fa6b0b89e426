"""Centralized tolerances shared by every module, and the scope that sets them."""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerances used across the library; absolute unless stated otherwise.

    membership      slack accepted in cone inequalities <A_k, x> >= -membership
                    (also by the generators of a cone given both descriptions,
                    each of whose extreme rays must lie within it of a
                    generator); the modified Slater margin must exceed it in
                    units of the size of the margin's terms; a point is in a
                    box [x_a, x_b] within it, and a bound is active within it
                    (a stationarity certificate's box test)
    interior        strict-inequality margin for interior / strict-positivity tests
    strict_nonzero  norm threshold realizing "nonzero" in strict cone comparisons
    lp_feas         simplex feasibility threshold on each equilibrated row,
                    relative to max(1, |b_i|), b_i its right-hand side (a
                    basic variable's bound violation counts times its column's
                    largest equilibrated entry): a row beyond it that no
                    column moves back is "infeasible", and a final point
                    above it (and above lp_feas times the row's terms there)
                    is "numerical", not "optimal"
    lp_pivot        simplex pivot and reduced-cost threshold, and the ratio-test
                    tie threshold relative to max(1, step)
    farkas          verify_farkas: no sign-constrained multiplier is below
                    -farkas times the largest |multiplier|, and on a variable
                    with an infinite bound the combination of left-hand sides
                    vanishes within farkas times the sum of its terms'
                    magnitudes (a boxed variable's leftover is charged to the
                    right-hand side instead)
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
                    components > qp_curv * max(||Q||_F * X, ||q||_inf), the
                    scale of the gradient's terms (||grad f|| itself is
                    rounding noise at a zero-gradient optimum); a row within
                    qp_curv * ||a|| of the span of those before it is dependent
                    (also for the rank of H in the Slater check and of a
                    cone's rows when its descriptions are converted); a box
                    program's Q is symmetric and PSD within qp_curv * ||Q||_F;
                    the dual function's stationarity residual counts as zero up
                    to qp_curv times the largest |entry| of its linear terms
    qp_sign         active-set QP: a working row's multiplier is negative below
                    -qp_sign * max(||Q||_F * X, ||q||_inf) / ||a||
    gap_assert      duality-gap bound asserted under the modified Slater condition
    h_margin        the Slater check's h-solution is strictly inside the box only
                    at a depth above h_margin, in units of each coordinate's
                    half-width (x_b - x_a) / 2
    slater_floor    floor of the divisors <A_k, -g(x)> when lambda is read at a
                    Slater witness x: the search LP's margin makes them positive
                    up to its row residuals, and the floor keeps lambda finite
    coincident      sample points this close are one point (rank +inf if their
                    values differ); also the floor of the rank's pair distances
    rank_slack      measured rank may exceed a declared one by rank_slack * membership
                    times the declared rank
    unit_norm       accepted deviation of the ambient norm of e from 1
    lookup_radius   Euclidean radius within which a point is a ground-set point
    min_sample_rank least rank of a random penalty instance
    isometry        largest support-minus-definitional Hausdorff gap of an isometry
    """

    membership: float = 1e-9
    interior: float = 1e-12
    strict_nonzero: float = 1e-8
    lp_feas: float = 1e-9
    lp_pivot: float = 1e-11
    farkas: float = 1e-7
    rank_margin: float = 1e-9
    gradient_map: float = 1e-7
    kkt: float = 1e-6
    qp_step: float = 1e-12
    qp_curv: float = 1e-10
    qp_sign: float = 1e-9
    gap_assert: float = 1e-5
    h_margin: float = 1e-9
    slater_floor: float = 1e-300
    coincident: float = 1e-15
    rank_slack: float = 1e3
    unit_norm: float = 1e-9
    lookup_radius: float = 1e-12
    min_sample_rank: float = 1e-6
    isometry: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()   # frozen: one instance serves every caller
_IN_FORCE: ContextVar[Tolerances] = ContextVar("conegen_tolerances",
                                               default=DEFAULT_TOLERANCES)


def default_tolerances() -> Tolerances:
    """The tolerances in force: DEFAULT_TOLERANCES outside any use_tolerances."""
    return _IN_FORCE.get()


@contextmanager
def use_tolerances(tols: Tolerances):
    """Put tols in force for the body of a with, restoring the previous
    tolerances on exit, also when the body raises."""
    token = _IN_FORCE.set(tols)
    try:
        yield
    finally:
        _IN_FORCE.reset(token)
