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
    strict_nonzero  norm threshold realizing "nonzero" in strict cone comparisons
    lp_feas         simplex feasibility threshold on each equilibrated row,
                    relative to max(1, |b_i|), b_i its right-hand side (a
                    basic variable's bound violation counts times its column's
                    largest equilibrated entry): a row beyond it that no
                    column moves back is "infeasible", and a final point
                    above it (and above lp_feas times the row's terms there)
                    is "numerical", not "optimal"; also the depth, in units of
                    each coordinate's half-width (x_b - x_a) / 2, above which
                    the Slater check's h-solution is strictly inside the box:
                    the h-interior LP's depth must clear its own threshold
    lp_pivot        simplex pivot and reduced-cost threshold, and the ratio-test
                    tie threshold relative to max(1, step)
    farkas          verify_farkas: no sign-constrained multiplier is below
                    -farkas times the largest |multiplier|, and on a variable
                    with an infinite bound the combination of left-hand sides
                    vanishes within farkas times the sum of its terms'
                    magnitudes (a boxed variable's leftover is charged to the
                    right-hand side instead)
    kkt             KKT residual bound of an "optimal" primal, relative to
                    max(1, ||grad f(x)||_inf); also the duality gap's bound
                    under modified Slater, relative to the largest |term|
                    summed into the primal value or the dual value (each
                    value rounds in units of its terms); also the slack by
                    which a sample's measured rank may exceed a declared
                    one, relative to the declared rank (rounding is no
                    bound there: a one-ulp change of the values moved a
                    measured rank by up to 41 ROUNDING * (dim + d) of it)
    qp_step         active-set QP, X the largest |bound| of the box: a step p is
                    zero at ||p||_inf <= qp_step * X, a row a'x <= b is active
                    at slack <= qp_step * ||a|| * X, a rate a'p counts above
                    qp_step * ||a|| * ||p||; only its upper side is tested: a
                    step, slack or rate of rounding size, about 2^-52 times
                    its scale, is below qp_step / 1000 too
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
    coincident      points this close are one point: sample points (rank +inf
                    if their values differ), and a point and the ground-set
                    point it is looked up as (Euclidean); also the floor of
                    the rank's pair distances
    unit_norm       accepted deviation of the ambient norm of e from 1
    isometry        largest support-minus-definitional Hausdorff gap of an isometry,
                    relative to the largest of the two distances and |coordinates|;
                    not derived from rounding: above the plane the definitional
                    distance is a squared nearest-point QP's, and 3-D pairs 1e-10
                    and 1e-13 apart read gaps of 700-1500 eps of the bound

    Derived from what they gate, with no field of their own:
      multiplier sign  active-set QP: a working row's multiplier is negative
                       below -ROUNDING * n * max(||Q||_F * X, ||q||_inf) / ||a||,
                       the rounding of the gradient's n terms (cones.ROUNDING,
                       64 eps); a wrong face of two near-coincident hulls in
                       the nearest-point QPs has a multiplier of about -1e-10
                       at unit scale, which the floor must read as negative
      penalty margin   verify_penalty_equivalence needs L > rank * (1 +
                       ROUNDING * dim), the rank's rounding, which reads alike
                       at every scale of the values (a margin built from
                       membership does not: membership scales with the
                       values, and at 2^24 such a margin refused L = 1.1 rank)
      positivity       a unit row's product <h_k, x> is positive above its
                       rounding, ROUNDING * dim * max|x|, which follows the
                       scale of x: the interior of a cone (interior_contains,
                       and u's face rows in OrderUnit) and of its dual
                       (is_strictly_positive); a box's width is positive above
                       ROUNDING times the larger |bound| of its coordinate,
                       and a box multiplier is negative below -ROUNDING * n
                       times the largest |box multiplier|
    """

    membership: float = 1e-9
    strict_nonzero: float = 1e-8
    lp_feas: float = 1e-9
    lp_pivot: float = 1e-11
    farkas: float = 1e-7
    kkt: float = 1e-6
    qp_step: float = 1e-12
    qp_curv: float = 1e-10
    coincident: float = 1e-15
    unit_norm: float = 1e-9
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
