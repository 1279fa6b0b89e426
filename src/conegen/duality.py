"""Box-constrained convex programs: modified Slater check, Lagrange duality,
and Fermat-rule stationarity certificates.

The primal is min 0.5 x'Qx + q'x + c over the box [x_a, x_b] subject to the
affine map g(x) = Gx + g0 landing in -Y+ and h(x) = Hx + h0 = 0. All
constraints are affine, so every minimizer has KKT multipliers with no
constraint qualification, and they maximize the dual with zero gap: the dual
is read at the primal's multipliers, and its inner Lagrangian minimization is
an exact linear solve.

Sign convention: the Lagrangian adds <y*, g(x)> and <z*, h(x)> and subtracts
the box terms <x1*, x - x_a> and <x2*, x_b - x>, all multipliers in their
positive dual cones, so the dual value never exceeds the primal value and a
satisfied Slater flag implies a vanishing gap.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import Tolerances, default_tolerances
from .cones import ROUNDING, PolyhedralCone, coordinate_cone
from .numkernel import (FarkasCertificate, LPProblem, as_matrix, as_vector, independent_rows,
                        pow2_rows, pow2_shift, row_norms, solve_lp)


def _box_width_is_finite(x_lo, x_hi) -> bool:
    """Whether every x_b - x_a is a finite float, read without overflow: the
    half-width 0.5 x_b - 0.5 x_a is the width's rounding halved, so the width
    rounds to a finite float iff the half-width is at most half the largest."""
    return bool((0.5 * x_hi - 0.5 * x_lo <= 0.5 * sys.float_info.max).all())


@dataclass
class BoxProgram:
    """Quadratic objective, affine cone constraint, affine equality, box."""

    n: int
    Q: np.ndarray
    q: np.ndarray
    c: float
    x_lo: np.ndarray
    x_hi: np.ndarray
    G: np.ndarray | None = None           # g(x) = G x + g0 in -Y+
    g0: np.ndarray | None = None
    cone_y: PolyhedralCone | None = None
    H: np.ndarray | None = None           # h(x) = H x + h0 = 0
    h0: np.ndarray | None = None

    def __post_init__(self):
        n = self.n
        self.Q = np.zeros((n, n)) if self.Q is None else as_matrix(self.Q, n, "Q")
        if self.Q.shape != (n, n):
            raise ValueError("Q has wrong shape")
        tol = default_tolerances().qp_curv * float(np.linalg.norm(self.Q))
        if np.max(np.abs(self.Q - self.Q.T)) > tol:
            raise ValueError("Q must be symmetric")
        self.Q = 0.5 * (self.Q + self.Q.T)
        # Q's eigenvalues: the PSD check's, and rank Q for the active-set QP
        self._q_eigs = np.linalg.eigvalsh(self.Q) if self.Q.any() else np.zeros(n)
        if np.min(self._q_eigs) < -tol:
            raise ValueError("Q must be positive semidefinite")
        self.q = as_vector(self.q, n, "q")
        self.c = float(as_vector(self.c, 1, "c")[0])
        self.x_lo = as_vector(self.x_lo, n, "x_a")
        self.x_hi = as_vector(self.x_hi, n, "x_b")
        # the box's points are sums of its bounds, which round in units of
        # the larger |bound|: a width within ROUNDING of it has no interior,
        # and neither has a width of one subnormal step (5e-324), to which
        # that product underflows: a wider box holds a float strictly inside.
        # The width, the box lift's generating element, must itself be finite
        if not _box_width_is_finite(self.x_lo, self.x_hi):
            raise ValueError("box must have x_b - x_a a finite float")
        x_abs = np.maximum(np.abs(self.x_lo), np.abs(self.x_hi))
        if np.any(self.x_hi - self.x_lo <= np.maximum(ROUNDING * x_abs, 5e-324)):
            raise ValueError("box must have x_b - x_a interior to the coordinate cone")
        if self.G is not None:
            self.G = as_matrix(self.G, n, "G")
            self.g0 = as_vector(self.g0, self.G.shape[0], "g0")
            if self.cone_y is None or self.cone_y.dim != self.G.shape[0]:
                raise ValueError("constraint cone missing or of wrong dimension")
        elif self.g0 is not None:   # a constant constraint is written with G = 0
            raise ValueError("g0 given without G")
        if self.H is not None:
            self.H = as_matrix(self.H, n, "H")
            self.h0 = as_vector(self.h0, self.H.shape[0], "h0")
        elif self.h0 is not None:
            raise ValueError("h0 given without H")
        # What the solvers read: an absent block is one of no rows, and so
        # are the cone's rows without G. The public fields keep None, which
        # callers test, and which `dataclasses.replace` passes back in.
        none = np.zeros((0, n)), np.zeros(0)
        self._G, self._g0 = none if self.G is None else (self.G, self.g0)
        self._H, self._h0 = none if self.H is None else (self.H, self.h0)
        self._cone_rows = np.zeros((0, 0)) if self.G is None else self.cone_y.halfspaces

    @property
    def m(self) -> int:
        return self._G.shape[0]

    @property
    def k(self) -> int:
        return self._H.shape[0]

    def objective(self, x) -> float:
        x = as_vector(x, self.n, "x")
        return float(0.5 * x @ self.Q @ x + self.q @ x + self.c)

    def gradient(self, x) -> np.ndarray:
        return self.Q @ x + self.q

    def g(self, x) -> np.ndarray:
        return self._G @ x + self._g0

    def h(self, x) -> np.ndarray:
        return self._H @ x + self._h0

    def feasible(self, x) -> bool:
        tol = default_tolerances().membership
        x = as_vector(x, self.n, "x")
        if np.max(self.x_lo - x) > tol or np.max(x - self.x_hi) > tol:
            return False
        if self.m and not self.cone_y.contains(-self.g(x)):
            return False
        return not (np.abs(self.h(x)).max(initial=0.0) > tol)

    @functools.cached_property
    def _ineq_rows(self):
        """All inequality rows a@x <= b beyond the box, the cone rows of g:
        (A G, -(A g0)). They read no tolerance, so they are formed once per
        program; read-only."""
        A, b = self._cone_rows @ self._G, -(self._cone_rows @ self._g0)
        A.flags.writeable = b.flags.writeable = False
        return A, b

    @functools.cached_property
    def _lstsq_centre(self) -> np.ndarray:
        """The box centre moved onto {Hx = -h0} by one least-squares step (the
        centre itself when there is no h). The centre is 0.5 x_a + 0.5 x_b,
        which neither overflows nor leaves a box with a float inside; it
        reads no tolerance, so it is computed once per program; read-only."""
        x = 0.5 * self.x_lo + 0.5 * self.x_hi
        if self.k:
            x = x - np.linalg.lstsq(self.H, self.h(x), rcond=None)[0]
        x.flags.writeable = False
        return x

    @functools.cached_property
    def _centre_reads(self):
        """(inside, r, s) at x = `_lstsq_centre`: whether x is strictly inside
        the box, r = max |h(x)| and s = max(max |H| |x|, max |h0|), the size
        of h's terms there (r = s = 0.0 without h); `_centre_point` holds r
        to its tolerance. Formed once per program, as x is."""
        x = self._lstsq_centre
        s = max((np.abs(self._H) @ np.abs(x)).max(initial=0.0),
                np.abs(self._h0).max(initial=0.0))
        r = np.abs(self.h(x)).max(initial=0.0)
        return bool(((self.x_lo < x) & (x < self.x_hi)).all()), r, s


@dataclass
class Multipliers:
    """(y*, x1*, x2*, z*); y* in the dual cone of Y+, x1*, x2* >= 0, z* free."""

    y: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    z: np.ndarray

    def validate(self, prog: BoxProgram):
        # y* grows as (G, g0) shrinks, so the gate reads relative to its size
        if prog.m and (prog.cone_y.generators @ self.y).min() \
                < -default_tolerances().membership * max(1.0, np.abs(self.y).max()):
            raise ValueError("y* outside the dual constraint cone")
        # a box multiplier is a gradient component: its sign reads within the
        # rounding of n terms the size of the largest one, as in the QP
        box = np.concatenate([self.x1, self.x2, [0.0]])
        if box.min() < -ROUNDING * prog.n * np.abs(box).max():
            raise ValueError("box multipliers must be nonnegative")

    def to_dict(self) -> dict:
        return {"y": self.y.tolist(), "x1": self.x1.tolist(),
                "x2": self.x2.tolist(), "z": self.z.tolist()}

    def lifted(self, pi: np.ndarray, e_prime: np.ndarray) -> dict:
        """Coordinates of the multipliers in the reweighted generating-space
        frame (x scaled by pi, y by e'); a diagonal change of frame only."""
        return Multipliers(self.y * e_prime, self.x1 * pi, self.x2 * pi,
                           self.z).to_dict()


def zero_multipliers(prog: BoxProgram) -> Multipliers:
    return Multipliers(y=np.zeros(prog.m), x1=np.zeros(prog.n),
                       x2=np.zeros(prog.n), z=np.zeros(prog.k))


def dual_value(prog: BoxProgram, mult: Multipliers) -> float:
    """Exact unconstrained minimum of the Lagrangian over R^n.

    Solves the stationarity system Qx = -b, b the Lagrangian's linear term.
    A residual above qp_curv times the largest |entry| among b's terms (q,
    G'y*, x1*, x2*, H'z*) puts b outside range(Q): linear descent to -inf.
    """
    return _dual_terms(prog, mult)[0]


def _dual_terms(prog: BoxProgram, mult: Multipliers):
    """dual_value, and the largest |term| summed into it: c, <x1*, x_a>,
    <x2*, x_b>, <y*, g0>, <z*, h0>, and 0.5 x'Qx and b'x at the minimizer."""
    b, parts = _linear_term(prog, mult)
    tol = default_tolerances().qp_curv * float(np.abs(np.concatenate(parts)).max())
    terms = [prog.c, float(mult.x1 @ prog.x_lo), -float(mult.x2 @ prog.x_hi),
             float(mult.y @ prog._g0), float(mult.z @ prog._h0)]
    value = sum(terms[1:], terms[0])
    if prog.Q.any():
        x, *_ = np.linalg.lstsq(prog.Q, -b, rcond=None)
        terms += [float(0.5 * x @ prog.Q @ x), float(b @ x)]
        value, b = terms[-2] + terms[-1] + value, prog.Q @ x + b   # b: the residual of Qx = -b
    if not np.abs(b).max() <= tol:
        value = -math.inf
    return value, max(map(abs, terms))


def _linear_term(prog: BoxProgram, mult: Multipliers):
    """The Lagrangian's linear coefficients q + G'y* - x1* + x2* + H'z*, and
    those five terms."""
    gy, hz = prog._G.T @ mult.y, prog._H.T @ mult.z
    return prog.q + gy + (-mult.x1 + mult.x2) + hz, (prog.q, gy, mult.x1, mult.x2, hz)


# ---------------------------------------------------------------------------
# modified Slater condition

@dataclass
class SlaterReport:
    """The modified Slater decision. `margin` is min_k <A_k, -g(witness)> over
    the cone rows A_k, in the units of g: a certified lower bound on the
    search LP's maximum (its maximum when the LP ran). `witness` is the
    centre point of `_centre_point` when its margin already decides, else the
    search LP's argmax; lam is read at that witness, and so are the gap
    report's `e_prime` and `multipliers_lifted`."""

    satisfied: bool
    witness: np.ndarray | None
    lam: float | None
    margin: float
    h_neighborhood: bool | None
    diagnosis: str = ""

    def to_dict(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "witness": None if self.witness is None else self.witness.tolist(),
            "lambda": self.lam,
            "margin": self.margin,
            "h_neighborhood": self.h_neighborhood,
            "diagnosis": self.diagnosis,
        }


def check_modified_slater(prog: BoxProgram, e) -> SlaterReport:
    """Search for feasible x with -lam g(x) - e interior to Y+ for some lam > 0.

    Equivalent to max over the h-feasible box of min_k <A_k, -g(x)> being
    strictly positive. The centre point of `_centre_point` is tried first:
    when its margin already exceeds membership in units of the terms, it is
    the witness and no LP runs; otherwise the search LP decides. Also
    reports (qualitatively) whether h(Omega) covers a neighborhood of 0: full
    row rank of H plus an h-solution strictly inside the box. A failed LP is
    named in the diagnosis; when it is the h-solution LP, h_neighborhood is
    None. An e given for a program with no cone constraint is refused.
    """
    if prog.m == 0 and e is not None:
        raise ValueError("e given without G")
    tols = default_tolerances()
    centre = _centre_point(prog)
    interior, failed = _h_interior(prog, tols, centre)
    h_ok = None if failed else interior is not None and \
        independent_rows(prog._H).size == prog.k

    def report(satisfied, witness, lam, margin, diagnosis=""):
        return SlaterReport(satisfied, witness, lam, margin, h_ok,
                            "; ".join(d for d in (diagnosis, failed) if d))

    if prog.m == 0:
        if interior is None:
            return report(False, None, None, -math.inf,
                          "" if failed else "equality constraints infeasible on the box")
        return report(True, interior, 1.0, math.inf,
                      "no cone constraint; Slater reduces to h-feasibility")
    e = as_vector(e, prog.m, "e")
    if not prog.cone_y.interior_contains(e):
        raise ValueError("e must be interior to the constraint cone")
    A = prog.cone_y.halfspaces
    gA, gb = prog._ineq_rows   # A G and -(A g0)
    # margins are in units of the terms' size: a power of two near the larger
    # of |A G| X (X the box scale) and |A g0|, so that neither the LP nor the
    # margin test depends on the scale of (G, g0)
    x_abs = np.maximum(np.abs(prog.x_lo), np.abs(prog.x_hi))
    unit = math.ldexp(1.0, pow2_shift(float(max(np.abs(gA).max() * x_abs.max(),
                                                np.abs(gb).max())) or 1.0, 0, 0))

    def satisfied_at(x, margin):
        # each divisor floored at max_k <A_k, e> 2^-1020, the least floor
        # that keeps lambda finite: the search LP's margin makes the divisors
        # positive only up to its row residuals
        Ae = A @ e
        ratios = Ae / np.maximum(A @ -prog.g(x), math.ldexp(float(Ae.max()), -1020))
        return report(True, x, max(1.0, 2.0 * float(ratios.max())), margin)

    if centre is not None:
        # the search LP's maximum is at least the centre's margin, so a
        # centre margin above membership decides as the LP would
        margin = float((A @ -prog.g(centre)).min())
        if margin / unit > tols.membership:
            return satisfied_at(centre, margin)
    # max t  s.t.  -A G x - t unit >= A g0  for every cone row, x in box, h = 0;
    # the rows imply t <= (|A G| max|x| + |A g0|) / unit, and that bound lets
    # the simplex start dual feasible with t at it
    t_hi = float((np.abs(gA) @ x_abs + np.abs(gb)).max()) / unit
    rep = _max_t_lp(prog, -gA, np.full(gA.shape[0], -unit), -gb,
                    (prog.x_lo, prog.x_hi), (-math.inf, t_hi))
    if rep.status == "infeasible":
        return report(False, None, None, -math.inf,
                      "equality constraints infeasible on the box")
    if rep.status != "optimal":
        return report(False, None, None, -math.inf, f"search LP returned {rep.status}")
    margin = float(rep.point[-1]) * unit
    if rep.point[-1] <= tols.membership:
        return report(False, None, None, margin,
                      "-g(x) never reaches the interior of the cone")
    return satisfied_at(rep.point[:prog.n], margin)


def _centre_point(prog: BoxProgram):
    """A copy of `BoxProgram._lstsq_centre`, or None unless that point is
    strictly inside the box and meets h within membership times the size of
    h's terms there. It is a closed-form feasible start for the QP, a
    candidate Slater witness and a candidate h-interior point; each caller
    falls back to its LP on None."""
    inside, res, scale = prog._centre_reads
    if not inside or res > default_tolerances().membership * scale:
        return None
    return prog._lstsq_centre.copy()


def _h_interior(prog: BoxProgram, tols: Tolerances, centre):
    """(x, diagnosis): x a solution of h(x) = 0 strictly inside the box, None
    when there is none (an infeasible LP or a depth <= tols.lp_feas, the
    LP's own feasibility threshold) or when the LP fails otherwise, which
    the diagnosis then names. The depth of a point is min_i of its distance
    to the nearer bound over the half-width (x_b - x_a)_i / 2; the centre
    point is returned without an LP when its depth exceeds lp_feas, since
    the LP's optimum is at least that deep. With no h the box centre is
    the point (`BoxProgram._lstsq_centre`)."""
    if prog.k == 0:
        return prog._lstsq_centre.copy(), ""
    half = 0.5 * prog.x_hi - 0.5 * prog.x_lo
    if centre is not None:
        depth = (np.minimum(centre - prog.x_lo, prog.x_hi - centre) / half).min()
        if depth > tols.lp_feas:
            return centre, ""
    # the box rows with t >= 0 imply the box bounds on x, which keep one
    # simplex column per coordinate
    rep = _max_t_lp(prog, np.vstack([np.eye(prog.n), -np.eye(prog.n)]),
                    np.tile(-half, 2), np.concatenate([prog.x_lo, -prog.x_hi]),
                    (prog.x_lo, prog.x_hi), (0.0, 1.0))
    if rep.status not in ("optimal", "infeasible"):
        return None, f"h-interior LP returned {rep.status}"
    if rep.status == "infeasible" or rep.point[-1] <= tols.lp_feas:
        return None, ""
    return rep.point[:prog.n], ""


def _max_t_lp(prog: BoxProgram, rows, t_col, rhs, x_bounds, t_bounds):
    """max t over (x, t) s.t. rows @ x + t_col t >= rhs, h(x) = 0 and x, t
    within their (lower, upper) bounds; the Slater search LP and the
    h-interior LP."""
    return solve_lp(LPProblem(cost=-np.eye(prog.n + 1)[-1],
                              ineq_lhs=np.hstack([rows, t_col[:, None]]), ineq_rhs=rhs,
                              eq_lhs=np.hstack([prog._H, np.zeros((prog.k, 1))]),
                              eq_rhs=-prog._h0,
                              lower=np.append(x_bounds[0], t_bounds[0]),
                              upper=np.append(x_bounds[1], t_bounds[1])))


# ---------------------------------------------------------------------------
# primal solver

@dataclass
class PrimalResult:
    status: str
    x: np.ndarray | None
    value: float | None
    multipliers: Multipliers | None
    kkt_residual: float | None
    iterations: int
    farkas: FarkasCertificate | None = None


def _feasible_set_lp(prog: BoxProgram, cost):
    """min cost'x over the feasible set, by simplex."""
    gA, gb = prog._ineq_rows
    return solve_lp(LPProblem(cost=cost, ineq_lhs=-gA, ineq_rhs=-gb, eq_lhs=prog._H,
                              eq_rhs=-prog._h0, lower=prog.x_lo, upper=prog.x_hi))


def _kkt_residual(prog: BoxProgram, x: np.ndarray, mult: Multipliers, Qx) -> float:
    """Worst of stationarity, complementarity and primal infeasibility, Qx
    being Q @ x. With y* in C* and g(x) in -C, <y*, g(x)> = 0 is
    complementarity on every halfspace of C at once, whichever coordinates
    y* is written in."""
    gx = prog.g(x)
    return float(max(np.abs(Qx + _linear_term(prog, mult)[0]).max(),
                     (mult.x1 * np.abs(x - prog.x_lo)).max(),
                     (mult.x2 * np.abs(prog.x_hi - x)).max(), abs(mult.y @ gx),
                     (prog.x_lo - x).max(), (x - prog.x_hi).max(),
                     (prog._cone_rows @ gx).max(initial=0.0), np.abs(prog.h(x)).max(initial=0.0)))


def _gated(prog: BoxProgram, x: np.ndarray, mult: Multipliers,
           iterations: int) -> PrimalResult:
    """The primal result at x: "optimal" only if the KKT residual is within
    kkt * max(1, ||grad f(x)||_inf), "numerical" otherwise."""
    Qx = prog.Q @ x   # the gradient's and the stationarity residual's product
    res = _kkt_residual(prog, x, mult, Qx)
    gate = default_tolerances().kkt * max(1.0, np.abs(Qx + prog.q).max())
    return PrimalResult("optimal" if res <= gate else "numerical", x,
                        prog.objective(x), mult, res, iterations)


ACTIVE_SET_CAP = 2_000   # active-set steps before "iteration-cap"


def _active_set_qp(prog: BoxProgram, x0: np.ndarray) -> PrimalResult:
    """Primal active-set method for a nonzero PSD Q over polyhedral
    constraints, with null-space steps (Nocedal & Wright, *Numerical
    Optimization*, 2nd ed., ch. 16), from the feasible point x0.
    Deterministic: lowest-index rules throughout, in the order lower bounds,
    upper bounds, cone rows. An LP never comes here: `solve_primal` reads
    its multipliers off the simplex.

    The box is held as bounds: one sign per coordinate, -1 on x_a, +1 on x_b
    and 0 free. The working set starts from the equality rows less those
    dependent on the rows before them. An orthonormal basis Z of its null
    space is kept across steps: an entering bound or row is reflected out of
    Z, and one QR rebuilds Z when one leaves (Gill, Golub, Murray &
    Saunders, Math. Comp. 28, 1974). The step minimizes the quadratic over range(Z).
    Only where Z has more columns than rank Q (Q's eigenvalues above
    qp_curv ||Q||_F, kept from the PSD check), or a Cholesky of
    Z'QZ - qp_curv ||Q||_F I fails, does eigh look for zero curvature; a
    gradient component along such an eigenvector gives a descent ray to the
    first blocking row instead (the box is compact, so one exists). A full
    step ends at the subspace minimizer, so the next step is zero by
    construction; multipliers are solved from a QR of the working rows on the
    free coordinates only then, and a bound's multiplier is the remaining
    gradient component, r_j on x_a and -r_j on x_b.
    Thresholds are relative to the box, the rows, Q and q (see
    `Tolerances`), and the result is "optimal" only if its KKT residual is
    within kkt * max(1, ||grad f||_inf).
    """
    tols = default_tolerances()
    n = prog.n
    A, b = prog._ineq_rows
    norms = row_norms(A)
    rate_tols = tols.qp_step * norms   # the ratio test's, per row
    x_scale = float(np.abs(np.concatenate([prog.x_lo, prog.x_hi])).max())
    q_norm = float(np.linalg.norm(prog.Q))
    # M = Z'QZ has rank at most rank Q: with more columns in Z, some
    # eigenvalue of M is at most the shift (Cauchy interlacing)
    q_rank = int(np.count_nonzero(prog._q_eigs > tols.qp_curv * q_norm))
    # the scale of grad f's terms: ||grad f|| is rounding noise where grad f = 0
    g_ref = max(q_norm * x_scale, float(np.abs(prog.q).max()))
    x = x0.copy()
    eq_rows = independent_rows(prog._H)   # a dependent row is redundant
    E = prog._H[eq_rows]
    side = np.zeros(n, dtype=int)
    work = np.zeros(A.shape[0], dtype=bool)
    Z = _null_basis(A, E, work, side)
    at_min = False
    for it in range(ACTIVE_SET_CAP):
        grad = prog.gradient(x)
        newton = True
        if not at_min:   # else the step is zero, and p is never read
            M, c = Z.T @ prog.Q @ Z, Z.T @ grad
            if Z.shape[1] <= q_rank and _curved(M, tols.qp_curv * q_norm):
                d, alpha_max = np.linalg.solve(M, c), 1.0
            else:
                w, V = np.linalg.eigh(M)
                c = V.T @ c
                flat = w <= tols.qp_curv * q_norm
                ray = flat & (np.abs(c) > tols.qp_curv * g_ref)
                newton = not ray.any()
                if newton:
                    d, alpha_max = V[:, ~flat] @ (c[~flat] / w[~flat]), 1.0
                else:   # zero-curvature descent: to its line minimizer or a block
                    d, curv = V[:, ray] @ c[ray], float(w[ray] @ c[ray] ** 2)
                    alpha_max = float(c[ray] @ c[ray]) / curv if curv > 0.0 else math.inf
            p = -(Z @ d)
        if newton and (at_min or np.abs(p).max() <= tols.qp_step * x_scale):
            free, rows, C = _working(A, E, work, side)
            if C.shape[0]:
                Y, R = np.linalg.qr(C[:, free].T)
                lam = np.linalg.solve(R, -(Y.T @ grad[free]))
                r = grad + C.T @ lam
            else:   # no working row: + 0.0 as C'lam would add it
                lam, r = np.zeros(0), grad + 0.0
            bound = -side * r   # 0 on a free coordinate
            floor = -ROUNDING * n * g_ref   # rounding of the gradient's n terms
            out = (bound < floor).nonzero()[0]
            neg = lam[:rows.size] * norms[rows] < floor
            if out.size:   # the lowest: a lower bound before any upper one
                side[out[side[out].argmin()]] = 0
            elif neg.any():
                work[rows[neg.argmax()]] = False
            else:
                z = np.zeros(prog.k)
                z[eq_rows] = lam[rows.size:]
                held = np.maximum(bound, 0.0)
                mult = Multipliers(_cone_multiplier(prog, rows, lam[:rows.size]),
                                   held * (side < 0), held * (side > 0), z)
                return _gated(prog, x, mult, it + 1)
            Z = _null_basis(A, E, work, side)
            at_min = False
            continue
        alpha, hit = _ratio_test(prog, A, b, x, p, alpha_max, work, rate_tols, tols.qp_step)
        if not math.isfinite(alpha):
            raise RuntimeError("unbounded ray inside a compact box")
        x = x + alpha * p
        if hit is not None:
            j, s = hit
            # Z'(s e_j) is s Z[j]; + 0.0 gives the +0.0 a gemv sums a zero to
            Z = _reflect(Z, s * Z[j] + 0.0) if s else _reflect_out(Z, A[j])
            if s:   # a bound: the coordinate on it, and a zero row of Z keeps it there
                side[j] = s
                x[j], Z[j] = (prog.x_lo if s < 0 else prog.x_hi)[j], 0.0
            else:
                work[j] = True
        at_min = newton and hit is None
    mult = zero_multipliers(prog)
    return PrimalResult("iteration-cap", x, prog.objective(x), mult,
                        _kkt_residual(prog, x, mult, prog.Q @ x), ACTIVE_SET_CAP)


def _curved(M, shift) -> bool:
    """Whether every eigenvalue of M is above shift: a Cholesky of M - shift I
    succeeds."""
    M = M.copy()
    M.flat[::M.shape[0] + 1] -= shift
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def _working(A, E, work, side):
    """Free coordinates, working cone rows, and those rows on E."""
    rows = work.nonzero()[0]
    C = A[rows] if E.shape[0] == 0 else E if rows.size == 0 else np.vstack([A[rows], E])
    return (side == 0).nonzero()[0], rows, C


def _null_basis(A, E, work, side):
    """Orthonormal basis of the working set's null space: the free unit
    vectors, or the trailing columns of one QR of the other rows on them."""
    free, _, C = _working(A, E, work, side)
    Z = np.zeros((A.shape[1], free.size - C.shape[0]))
    YZ = np.linalg.qr(C[:, free].T, mode="complete")[0] if C.shape[0] else np.eye(free.size)
    Z[free] = YZ[:, C.shape[0]:]
    return Z


def _reflect_out(Z, a):
    """Orthonormal basis of range(Z) less a's direction (Z orthonormal, Z'a !=
    0): Z times the reflection of Z'a onto e_1, less its first column."""
    return _reflect(Z, Z.T @ a)


def _reflect(Z, u):
    """`_reflect_out` from u = Z'a, which it overwrites. The reflection does
    not change with u's scale, so u is read at its power of two
    (`pow2_rows`): u'u neither overflows nor underflows, and a u that needs
    no shift keeps its bits."""
    u, _, norm = pow2_rows(u)
    u[0] += math.copysign(norm, u[0])
    return Z[:, 1:] - (Z @ u)[:, None] * ((2.0 / (u @ u)) * u[1:])


def _ratio_test(prog, A, b, x, p, alpha_max, work, rate_tols, rate_tol):
    """Longest step along p up to alpha_max, and what blocks it first: (j, s)
    for coordinate j reaching x_a (s = -1) or x_b (s = +1), (i, 0) for cone
    row i. Ties go to the lowest index, lower bounds before upper bounds
    before cone rows. Working rows and rates a'p <= rate_tol * ||a|| * ||p||
    are skipped (rate_tols holds rate_tol * ||a|| per row): p is in the
    working set's null space, so such a rate is rounding on a row it
    implies, and it would block at step 0. A held coordinate has p_j = 0
    exactly, so its bounds never block."""
    p_norm = row_norms(p)
    # each coordinate heads for x_b where p_j > 0 and for x_a elsewhere
    up, speed = p > 0.0, np.abs(p)
    steps = np.full(p.size, math.inf)
    np.divide(np.maximum(np.where(up, prog.x_hi - x, x - prog.x_lo), 0.0), speed,
              out=steps, where=speed > rate_tol * p_norm)
    k = int(steps.argmin())   # the lowest coordinate at the least step
    if up[k]:   # a lower bound tied with it goes first
        lower = (steps == steps[k]) & ~up
        if lower.any():
            k = int(lower.argmax())
    alpha, hit = alpha_max, None
    if steps[k] < alpha:
        alpha, hit = float(steps[k]), (k, 1 if up[k] else -1)
    if A.shape[0]:
        rate = A @ p
        cand = ((rate > rate_tols * p_norm) & ~work).nonzero()[0]
        if cand.size:
            steps = np.maximum((b - A @ x)[cand], 0.0) / rate[cand]
            k = int(steps.argmin())
            if steps[k] < alpha:
                alpha, hit = float(steps[k]), (int(cand[k]), 0)
    return alpha, hit


def _cone_multiplier(prog: BoxProgram, rows, lam) -> np.ndarray:
    """y* = A_rows' max(lam, 0), A the halfspace rows of the constraint cone
    and lam the multipliers of its rows `rows`."""
    return prog._cone_rows[rows].T @ np.maximum(lam, 0.0)


def solve_primal(prog: BoxProgram) -> PrimalResult:
    """Minimize over the feasible set; exact on convex quadratics.

    An LP (Q = 0) is solved by the simplex, and its multipliers are the
    simplex's row duals (Chvatal, *Linear Programming*, ch. 8 and 10): lam
    on the cone rows, clipped at 0, gives y* = A'lam; z* is minus the
    equality duals; x1* and x2* are the positive and negative parts of the
    stationarity residual q + G'y* + H'z*. A quadratic runs the active-set
    method from the centre point of `_centre_point` when that point also
    meets the cone rows, and from the vertex the simplex finds with zero cost
    otherwise.
    Either result is "optimal" only within the KKT gate of `_gated`.
    Infeasibility returns a Farkas certificate; a simplex solve that ends
    "numerical" or at its iteration cap is returned as is. The iterations
    are the simplex pivots (none when the quadratic starts at the centre
    point) plus, for a quadratic, the active-set steps.
    """
    lp = not prog.Q.any()
    x0 = None if lp else _centre_point(prog)
    if x0 is not None:
        gA, gb = prog._ineq_rows
        if (gA @ x0 <= gb).all():
            return _active_set_qp(prog, x0)
    rep = _feasible_set_lp(prog, prog.q if lp else np.zeros(prog.n))
    if rep.status != "optimal":
        return PrimalResult(rep.status, None, None, None, None,
                            rep.iterations, farkas=rep.farkas)
    if not lp:
        result = _active_set_qp(prog, rep.point)
        result.iterations += rep.iterations
        return result
    n_cone = rep.duals.size - prog.k
    mult = Multipliers(_cone_multiplier(prog, np.arange(n_cone), rep.duals[:n_cone]),
                       np.zeros(prog.n), np.zeros(prog.n), -rep.duals[n_cone:])
    r = _linear_term(prog, mult)[0]   # x1* = x2* = 0 so far
    mult.x1, mult.x2 = np.maximum(r, 0.0), np.maximum(-r, 0.0)
    return _gated(prog, rep.point, mult, rep.iterations)


# ---------------------------------------------------------------------------
# dual solver

@dataclass
class DualResult:
    status: str
    multipliers: Multipliers
    value: float
    iterations: int

    @property
    def capped(self) -> bool:
        """The primal solve stopped at its iteration cap."""
        return self.status == "iteration-cap"


def solve_dual(prog: BoxProgram, primal: PrimalResult | None = None) -> DualResult:
    """The dual function at the primal's KKT multipliers.

    Every constraint is affine, so a minimizer has KKT multipliers with no
    constraint qualification, and they maximize the dual with zero gap. The
    primal is solved here when none is given; `iterations` counts that solve
    (0 when the primal is given). The status is the primal's when it is not
    "optimal"; otherwise "optimal" for a finite dual value and "numerical"
    when the multipliers leave the Lagrangian unbounded below.
    """
    iterations = 0
    if primal is None:
        primal = solve_primal(prog)
        iterations = primal.iterations
    mult = zero_multipliers(prog) if primal.multipliers is None else primal.multipliers
    value = dual_value(prog, mult)
    status = primal.status if primal.status != "optimal" else \
        "optimal" if math.isfinite(value) else "numerical"
    return DualResult(status, mult, value, iterations)


# ---------------------------------------------------------------------------
# gap report

@dataclass
class GapReport:
    """Primal and dual values of a box program. The dual value is the dual
    function at the multipliers reported, so by weak duality a gap near 0
    certifies the witness and the multipliers together."""

    primal_status: str
    primal_value: float | None
    dual_value: float | None
    gap: float | None
    slater: SlaterReport
    witness: np.ndarray | None
    multipliers: Multipliers | None
    gap_asserted: bool
    gap_ok: bool
    pi: np.ndarray | None = None
    e_prime: np.ndarray | None = None
    kkt_residual: float | None = None  # of the primal point
    dual_status: str | None = None     # "numerical": Lagrangian unbounded below; None: no dual
    farkas: FarkasCertificate | None = None  # of an infeasible primal

    def to_dict(self) -> dict:
        d = {
            "primal_status": self.primal_status,
            "primal_value": self.primal_value,
            "dual_value": self.dual_value,
            "gap": self.gap,
            "kkt_residual": self.kkt_residual,
            "dual_status": self.dual_status,
            "slater": self.slater.to_dict(),
            "witness": None if self.witness is None else self.witness.tolist(),
            "gap_asserted": self.gap_asserted,
            "gap_ok": self.gap_ok,
        }
        if self.farkas is not None:
            d["farkas"] = self.farkas.to_dict()
        if self.multipliers is not None:
            d["multipliers"] = self.multipliers.to_dict()
            if self.e_prime is not None or self.multipliers.y.size == 0:
                ep = self.e_prime if self.e_prime is not None else np.zeros(0)
                d["multipliers_lifted"] = self.multipliers.lifted(self.pi, ep)
        return d


def duality_gap_report(prog: BoxProgram, e=None) -> GapReport:
    """Primal value, and the dual value at the primal's KKT multipliers; the
    gap is asserted only under modified Slater, and holds within kkt times
    the largest |term| summed into the primal value or the dual value (each
    rounds in units of its terms). The dual status is "numerical" when the
    multipliers leave the Lagrangian unbounded below."""
    if prog.m and e is None:
        e = np.sum(prog.cone_y.generators, axis=0)
        e = e / np.linalg.norm(e)
    slater = check_modified_slater(prog, e)
    primal = solve_primal(prog)
    if primal.status != "optimal":
        return GapReport(primal.status, None, None, None, slater, None, None,
                         gap_asserted=False, gap_ok=True,
                         kkt_residual=primal.kkt_residual, farkas=primal.farkas)
    x, mult = primal.x, primal.multipliers
    mult.validate(prog)
    dual, size = _dual_terms(prog, mult)
    gap = primal.value - dual
    asserted = bool(slater.satisfied)
    size = max(size, abs(float(0.5 * x @ prog.Q @ x)), abs(float(prog.q @ x)), abs(prog.c))
    ok = (not asserted) or gap <= default_tolerances().kkt * size
    pi = prog.x_hi - prog.x_lo  # the generating element of the box lift
    e_prime = None
    if prog.m and slater.satisfied:
        raw = np.asarray(e, dtype=float) - prog.g(slater.witness)
        e_prime = raw / row_norms(raw)
    return GapReport(primal.status, primal.value, dual, gap, slater, x, mult, asserted, ok,
                     pi=pi, e_prime=e_prime, kkt_residual=primal.kkt_residual,
                     dual_status="optimal" if math.isfinite(dual) else "numerical")


# ---------------------------------------------------------------------------
# stationarity certificates (Fermat rule through the scalarization)

@dataclass
class VectorObjective:
    """Componentwise quadratic map F_i(x) = 0.5 x'Q_i x + q_i'x + c_i."""

    lins: np.ndarray                      # (m, n)
    consts: np.ndarray
    quads: list[np.ndarray] | None = None

    def __post_init__(self):
        self.lins = as_matrix(self.lins, name="lins")
        self.consts = as_vector(self.consts, self.lins.shape[0], "constants")
        if self.quads is not None and len(self.quads) != self.lins.shape[0]:
            raise ValueError("one quadratic form per component required")

    @property
    def m(self):
        return self.lins.shape[0]

    def jacobian(self, x) -> np.ndarray:
        J = self.lins.copy()
        if self.quads is not None:
            J = J + np.array([Q @ x for Q in self.quads])
        return J


@dataclass
class StationarityCertificate:
    y_star: np.ndarray
    normal: np.ndarray
    residuals: dict

    def to_dict(self):
        return {"certified": True, "y_star": self.y_star.tolist(),
                "normal": self.normal.tolist(), "residuals": self.residuals}


@dataclass
class CertificateRefusal:
    reason: str
    farkas: FarkasCertificate | None = None
    lp: LPProblem | None = None

    def to_dict(self):
        d = {"certified": False, "reason": self.reason}
        if self.farkas is not None:
            d["farkas"] = self.farkas.to_dict()
        return d


def stationarity_certificate(objective: VectorObjective, cone_y: PolyhedralCone,
                             e, x_bar, x_lo, x_hi):
    """Find y* in the dual cone with <y*, e> = 1 and -grad<y*, F>(x_bar) in
    the normal cone of the box at x_bar, or refuse with a Farkas certificate.

    The box normal cone is the sign-pattern cone of the active bounds (active
    within Tolerances.membership); a point outside the box has empty normal
    cone and is refused outright.
    """
    tols = default_tolerances()
    m = objective.m
    e = as_vector(e, m, "e")
    x_bar = as_vector(x_bar, objective.lins.shape[1], "x_bar")
    x_lo = as_vector(x_lo, x_bar.shape[0], "x_a")
    x_hi = as_vector(x_hi, x_bar.shape[0], "x_b")
    tol = tols.membership   # the box is the coordinate cone's order interval
    if np.max(x_lo - x_bar) > tol or np.max(x_bar - x_hi) > tol:
        return CertificateRefusal("x_bar outside the box: N(x, Omega) is empty")
    J = objective.jacobian(x_bar)          # (m, n)
    lower = np.abs(x_bar - x_lo) <= tol
    upper = np.abs(x_bar - x_hi) <= tol
    # Constraints on y*: dual-cone rows, <y*, e> = 1, and componentwise
    # conditions on s = J^T y*: s_i = 0 on inactive coordinates, s_i >= 0 on
    # lower-active ones (normal = -s must be <= 0), s_i <= 0 on upper-active;
    # none where both bounds are active. A Jacobian column that vanishes to
    # the KKT target (the gradient at an optimum, up to rounding) meets its
    # condition for every y* and gives no row.
    one_sided, inactive = lower ^ upper, ~(lower | upper)
    sign = np.where(upper, -1.0, 1.0)      # a one-sided row: sign_i s_i >= 0
    vanishing = np.abs(J).max(axis=0, initial=0.0) <= tols.kkt
    cols = np.flatnonzero(one_sided & ~vanishing)
    eq_cols = np.flatnonzero(inactive & ~vanishing)
    ineq = np.vstack([cone_y.generators, (J[:, cols] * sign[cols]).T])
    lp = LPProblem(cost=np.zeros(m), ineq_lhs=ineq, ineq_rhs=np.zeros(ineq.shape[0]),
                   eq_lhs=np.vstack([e[None, :], J[:, eq_cols].T]),
                   eq_rhs=np.eye(1, 1 + eq_cols.size)[0])
    rep = solve_lp(lp)
    if rep.status == "infeasible":
        return CertificateRefusal("no multiplier satisfies the Fermat rule",
                                  farkas=rep.farkas, lp=lp)
    if rep.status != "optimal":
        return CertificateRefusal(f"certificate LP returned {rep.status}")
    y_star = rep.point
    normal = -(J.T @ y_star)
    # normal_i <= 0 lower-active, >= 0 upper-active, = 0 inactive
    viol = np.where(inactive, np.abs(normal), sign * normal)[one_sided | inactive]
    residuals = {
        "dual_cone": float(max(0.0, -np.min(cone_y.generators @ y_star))),
        "normalization": abs(float(y_star @ e) - 1.0),
        "normal_cone": float(max(0.0, np.max(viol, initial=0.0))),
    }
    return StationarityCertificate(y_star=y_star, normal=normal,
                                   residuals=residuals)


# ---------------------------------------------------------------------------
# random instances for the verification suites

def random_box_program(rng: np.random.Generator, kind: str = "qp",
                       n_max: int = 6, m_max: int = 4,
                       with_h: bool | None = None):
    """Random Slater-satisfying instance with coordinate constraint cone."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    x_lo = -1.0 - rng.random(n)
    x_hi = 1.0 + rng.random(n)
    center = 0.5 * (x_lo + x_hi)
    if kind == "qp":
        r = int(rng.integers(1, n + 1))
        B = rng.normal(size=(r, n))
        Q = B.T @ B + (0.05 if r == n else 0.0) * np.eye(n)
    else:
        Q = np.zeros((n, n))
    q = rng.normal(size=n)
    G = rng.normal(size=(m, n))
    slack = rng.uniform(0.5, 1.5, size=m)
    g0 = -(G @ center) - slack
    H = h0 = None
    if with_h or (with_h is None and rng.random() < 0.4):
        H = rng.normal(size=(1, n))
        h0 = -(H @ center)
    prog = BoxProgram(n=n, Q=Q, q=q, c=float(rng.normal()), x_lo=x_lo, x_hi=x_hi,
                      G=G, g0=g0, cone_y=coordinate_cone(m), H=H, h0=h0)
    e = np.ones(m) / math.sqrt(m)
    return prog, e

