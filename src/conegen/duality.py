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
from dataclasses import dataclass

import numpy as np

from .config import Tolerances, default_tolerances
from .cones import PolyhedralCone, coordinate_cone
from .numkernel import (FarkasCertificate, LPProblem, as_matrix, as_vector, independent_rows,
                        pow2_shift, solve_lp)


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
        if np.min(self.x_hi - self.x_lo) <= default_tolerances().interior:
            raise ValueError("box must have x_b - x_a interior to the coordinate cone")
        if self.G is not None:
            self.G = as_matrix(self.G, n, "G")
            self.g0 = as_vector(self.g0, self.G.shape[0], "g0")
            if self.cone_y is None or self.cone_y.dim != self.G.shape[0]:
                raise ValueError("constraint cone missing or of wrong dimension")
        if self.H is not None:
            self.H = as_matrix(self.H, n, "H")
            self.h0 = as_vector(self.h0, self.H.shape[0], "h0")

    @property
    def m(self) -> int:
        return 0 if self.G is None else self.G.shape[0]

    @property
    def k(self) -> int:
        return 0 if self.H is None else self.H.shape[0]

    def objective(self, x) -> float:
        x = as_vector(x, self.n, "x")
        return float(0.5 * x @ self.Q @ x + self.q @ x + self.c)

    def gradient(self, x) -> np.ndarray:
        return self.Q @ x + self.q

    def g(self, x) -> np.ndarray:
        return self.G @ x + self.g0 if self.G is not None else np.zeros(0)

    def h(self, x) -> np.ndarray:
        return self.H @ x + self.h0 if self.H is not None else np.zeros(0)

    def feasible(self, x) -> bool:
        tol = default_tolerances().membership
        x = as_vector(x, self.n, "x")
        if np.max(self.x_lo - x) > tol or np.max(x - self.x_hi) > tol:
            return False
        if self.m and not self.cone_y.contains(-self.g(x)):
            return False
        return not (self.k and np.max(np.abs(self.h(x))) > tol)

    def _ineq_rows(self):
        """All inequality rows a@x <= b beyond the box: cone rows of g."""
        if self.m == 0:
            return np.zeros((0, self.n)), np.zeros(0)
        A = self.cone_y.halfspaces
        return A @ self.G, -(A @ self.g0)

    @functools.cached_property
    def _lstsq_centre(self) -> np.ndarray:
        """The box centre moved onto {Hx = -h0} by one least-squares step (the
        centre itself when there is no h). It reads no tolerance, so it is
        computed once per program; read-only."""
        x = 0.5 * (self.x_lo + self.x_hi)
        if self.k:
            x = x - np.linalg.lstsq(self.H, self.h(x), rcond=None)[0]
        x.flags.writeable = False
        return x


@dataclass
class Multipliers:
    """(y*, x1*, x2*, z*); y* in the dual cone of Y+, x1*, x2* >= 0, z* free."""

    y: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    z: np.ndarray

    def validate(self, prog: BoxProgram):
        tols = default_tolerances()
        if prog.m and np.min(prog.cone_y.generators @ self.y) < -tols.membership:
            raise ValueError("y* outside the dual constraint cone")
        if min(np.min(self.x1, initial=0.0), np.min(self.x2, initial=0.0)) < -tols.interior:
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


def lagrangian_value(prog: BoxProgram, x, mult: Multipliers) -> float:
    """f(x) + <y*, g(x)> - <x1*, x - x_a> - <x2*, x_b - x> + <z*, h(x)>."""
    x = as_vector(x, prog.n, "x")
    return (prog.objective(x) + float(mult.y @ prog.g(x))
            - float(mult.x1 @ (x - prog.x_lo)) - float(mult.x2 @ (prog.x_hi - x))
            + float(mult.z @ prog.h(x)))


def dual_value(prog: BoxProgram, mult: Multipliers) -> float:
    """Exact unconstrained minimum of the Lagrangian over R^n.

    Solves the stationarity system Qx = -b, b the Lagrangian's linear term.
    A residual above qp_curv times the largest |entry| among b's terms (q,
    G'y*, x1*, x2*, H'z*) puts b outside range(Q): linear descent to -inf.
    """
    b, scale = _linear_term(prog, mult)
    tol = default_tolerances().qp_curv * scale
    const = prog.c + float(mult.x1 @ prog.x_lo) - float(mult.x2 @ prog.x_hi)
    if prog.m:
        const += float(mult.y @ prog.g0)
    if prog.k:
        const += float(mult.z @ prog.h0)
    if not prog.Q.any():
        return const if np.max(np.abs(b)) <= tol else -math.inf
    x, *_ = np.linalg.lstsq(prog.Q, -b, rcond=None)
    if np.max(np.abs(prog.Q @ x + b)) > tol:
        return -math.inf
    return float(0.5 * x @ prog.Q @ x + b @ x + const)


def _linear_term(prog: BoxProgram, mult: Multipliers):
    """The Lagrangian's linear coefficients q + G'y* - x1* + x2* + H'z*, and
    the largest |entry| among those five terms."""
    gy = prog.G.T @ mult.y if prog.m else np.zeros(prog.n)
    hz = prog.H.T @ mult.z if prog.k else np.zeros(prog.n)
    b = prog.q + gy + (-mult.x1 + mult.x2) + hz
    scale = max(float(np.max(np.abs(t))) for t in (prog.q, gy, mult.x1, mult.x2, hz))
    return b, scale


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
    None.
    """
    tols = default_tolerances()
    centre = _centre_point(prog)
    interior, failed = _h_interior(prog, tols, centre)
    h_ok = None if failed else interior is not None and (
        prog.k == 0 or independent_rows(prog.H).size == prog.k)

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
    gA, gb = prog._ineq_rows()   # A G and -(A g0)
    # margins are in units of the terms' size: a power of two near the larger
    # of |A G| X (X the box scale) and |A g0|, so that neither the LP nor the
    # margin test depends on the scale of (G, g0)
    x_abs = np.maximum(np.abs(prog.x_lo), np.abs(prog.x_hi))
    unit = math.ldexp(1.0, pow2_shift(float(max(np.max(np.abs(gA)) * np.max(x_abs),
                                                np.max(np.abs(gb)))) or 1.0, 0, 0))

    def satisfied_at(x, margin):
        ratios = (A @ e) / np.maximum(A @ -prog.g(x), tols.slater_floor)
        return report(True, x, max(1.0, 2.0 * float(np.max(ratios))), margin)

    if centre is not None:
        # the search LP's maximum is at least the centre's margin, so a
        # centre margin above membership decides as the LP would
        margin = float(np.min(A @ -prog.g(centre)))
        if margin / unit > tols.membership:
            return satisfied_at(centre, margin)
    # max t  s.t.  -A G x - t unit >= A g0  for every cone row, x in box, h = 0;
    # the rows imply t <= (|A G| max|x| + |A g0|) / unit, and that bound lets
    # the simplex start dual feasible with t at it
    t_hi = float(np.max(np.abs(gA) @ x_abs + np.abs(gb))) / unit
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
    x = prog._lstsq_centre
    if prog.k:
        scale = max((np.abs(prog.H) @ np.abs(x)).max(), np.abs(prog.h0).max())
        if np.abs(prog.h(x)).max() > default_tolerances().membership * scale:
            return None
    return x.copy() if ((prog.x_lo < x) & (x < prog.x_hi)).all() else None


def _h_interior(prog: BoxProgram, tols: Tolerances, centre):
    """(x, diagnosis): x a solution of h(x) = 0 strictly inside the box, None
    when there is none (an infeasible LP or a margin <= tols.h_margin) or
    when the LP fails otherwise, which the diagnosis then names. The depth
    of a point is min_i of its distance to the nearer bound over the
    half-width (x_b - x_a)_i / 2; the centre point is returned without an LP
    when its depth exceeds h_margin, since the LP's optimum is at least that
    deep."""
    if prog.k == 0:
        return 0.5 * (prog.x_lo + prog.x_hi), ""
    gap = prog.x_hi - prog.x_lo
    if centre is not None:
        depth = np.min(np.minimum(centre - prog.x_lo, prog.x_hi - centre) / (gap / 2))
        if depth > tols.h_margin:
            return centre, ""
    # the box rows with t >= 0 imply the box bounds on x, which keep one
    # simplex column per coordinate
    rep = _max_t_lp(prog, np.vstack([np.eye(prog.n), -np.eye(prog.n)]),
                    np.tile(-gap / 2, 2), np.concatenate([prog.x_lo, -prog.x_hi]),
                    (prog.x_lo, prog.x_hi), (0.0, 1.0))
    if rep.status not in ("optimal", "infeasible"):
        return None, f"h-interior LP returned {rep.status}"
    if rep.status == "infeasible" or rep.point[-1] <= tols.h_margin:
        return None, ""
    return rep.point[:prog.n], ""


def _max_t_lp(prog: BoxProgram, rows, t_col, rhs, x_bounds, t_bounds):
    """max t over (x, t) s.t. rows @ x + t_col t >= rhs, h(x) = 0 and x, t
    within their (lower, upper) bounds; the Slater search LP and the
    h-interior LP."""
    eq = None if prog.k == 0 else np.hstack([prog.H, np.zeros((prog.k, 1))])
    return solve_lp(LPProblem(cost=-np.eye(prog.n + 1)[-1],
                              ineq_lhs=np.hstack([rows, t_col[:, None]]), ineq_rhs=rhs,
                              eq_lhs=eq, eq_rhs=None if eq is None else -prog.h0,
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
    gA, gb = prog._ineq_rows()
    return solve_lp(LPProblem(
        cost=cost, ineq_lhs=None if gA.shape[0] == 0 else -gA,
        ineq_rhs=None if gA.shape[0] == 0 else -gb,
        eq_lhs=prog.H, eq_rhs=None if prog.k == 0 else -prog.h0,
        lower=prog.x_lo, upper=prog.x_hi))


def _kkt_residual(prog: BoxProgram, x: np.ndarray, mult: Multipliers) -> float:
    """Worst of stationarity, complementarity and primal infeasibility. With
    y* in C* and g(x) in -C, <y*, g(x)> = 0 is complementarity on every
    halfspace of C at once, whichever coordinates y* is written in."""
    gx = prog.g(x)
    cone_viol = prog.cone_y.halfspaces @ gx if prog.m else gx
    return float(max(np.max(np.abs(prog.Q @ x + _linear_term(prog, mult)[0])),
                     np.max(mult.x1 * np.abs(x - prog.x_lo)),
                     np.max(mult.x2 * np.abs(prog.x_hi - x)), abs(mult.y @ gx),
                     np.max(prog.x_lo - x), np.max(x - prog.x_hi),
                     np.max(cone_viol, initial=0.0),
                     np.max(np.abs(prog.h(x)), initial=0.0)))


def _gated(prog: BoxProgram, x: np.ndarray, mult: Multipliers,
           iterations: int) -> PrimalResult:
    """The primal result at x: "optimal" only if the KKT residual is within
    kkt * max(1, ||grad f(x)||_inf), "numerical" otherwise."""
    res = _kkt_residual(prog, x, mult)
    gate = default_tolerances().kkt * max(1.0, np.abs(prog.gradient(x)).max())
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
    A, b = prog._ineq_rows()
    norms = np.linalg.norm(A, axis=1)
    x_scale = float(np.max(np.abs(np.concatenate([prog.x_lo, prog.x_hi]))))
    q_norm = float(np.linalg.norm(prog.Q))
    # M = Z'QZ has rank at most rank Q: with more columns in Z, some
    # eigenvalue of M is at most the shift (Cauchy interlacing)
    q_rank = int(np.count_nonzero(prog._q_eigs > tols.qp_curv * q_norm))
    # the scale of grad f's terms: ||grad f|| is rounding noise where grad f = 0
    g_ref = max(q_norm * x_scale, float(np.max(np.abs(prog.q))))
    x = x0.copy()
    E = prog.H if prog.k else np.zeros((0, n))
    eq_rows = independent_rows(E)   # a dependent row is redundant
    E = E[eq_rows]
    side = np.zeros(n, dtype=int)
    work = np.zeros(A.shape[0], dtype=bool)
    Z = _null_basis(A, E, work, side)
    at_min = False
    for it in range(ACTIVE_SET_CAP):
        grad = prog.gradient(x)
        p, newton = np.zeros(n), True
        if not at_min:
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
        if newton and (at_min or np.max(np.abs(p)) <= tols.qp_step * x_scale):
            free, rows, C = _working(A, E, work, side)
            Y, R = np.linalg.qr(C[:, free].T)
            lam = np.linalg.solve(R, -(Y.T @ grad[free]))
            r = grad + C.T @ lam
            bound = -side * r   # 0 on a free coordinate
            floor = -tols.qp_sign * g_ref
            out = np.flatnonzero(bound < floor)
            neg = lam[:rows.size] * norms[rows] < floor
            if out.size:   # the lowest: a lower bound before any upper one
                side[out[np.argmin(side[out])]] = 0
            elif neg.any():
                work[rows[np.argmax(neg)]] = False
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
        alpha, hit = _ratio_test(prog, A, b, x, p, alpha_max, side, work, norms,
                                 tols.qp_step)
        if not math.isfinite(alpha):
            raise RuntimeError("unbounded ray inside a compact box")
        x = x + alpha * p
        if hit is not None:
            j, s = hit
            Z = _reflect_out(Z, s * np.eye(1, n, j)[0] if s else A[j])
            if s:   # a bound: the coordinate on it, and a zero row of Z keeps it there
                side[j] = s
                x[j], Z[j] = (prog.x_lo if s < 0 else prog.x_hi)[j], 0.0
            else:
                work[j] = True
        at_min = newton and hit is None
    mult = zero_multipliers(prog)
    return PrimalResult("iteration-cap", x, prog.objective(x), mult,
                        _kkt_residual(prog, x, mult), ACTIVE_SET_CAP)


def _curved(M, shift) -> bool:
    """Whether every eigenvalue of M is above shift: a Cholesky of M - shift I
    succeeds."""
    try:
        np.linalg.cholesky(M - shift * np.eye(M.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def _working(A, E, work, side):
    """Free coordinates, working cone rows, and those rows on E."""
    rows = np.flatnonzero(work)
    return np.flatnonzero(side == 0), rows, np.vstack([A[rows], E])


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
    u = Z.T @ a
    u[0] += math.copysign(np.linalg.norm(u), u[0])
    return Z[:, 1:] - np.outer(Z @ u, (2.0 / (u @ u)) * u[1:])


def _ratio_test(prog, A, b, x, p, alpha_max, side, work, norms, rate_tol):
    """Longest step along p up to alpha_max, and what blocks it first: (j, s)
    for coordinate j reaching x_a (s = -1) or x_b (s = +1), (i, 0) for cone
    row i. Ties go to the lowest index, lower bounds before upper bounds
    before cone rows. Working rows and rates a'p <= rate_tol * ||a|| * ||p||
    are skipped: p is in the working set's null space, so such a rate is
    rounding on a row it implies, and it would block at step 0. A held
    coordinate has p_j = 0 exactly, so its bounds never block."""
    p_norm = np.linalg.norm(p)
    # each coordinate heads for x_b where p_j > 0 and for x_a elsewhere
    up, speed = p > 0.0, np.abs(p)
    steps = np.full(p.size, math.inf)
    np.divide(np.maximum(np.where(up, prog.x_hi - x, x - prog.x_lo), 0.0), speed,
              out=steps, where=speed > rate_tol * p_norm)
    k = int(np.lexsort((up, steps))[0])   # stable: by coordinate within a side
    alpha, hit = alpha_max, None
    if steps[k] < alpha:
        alpha, hit = float(steps[k]), (k, 1 if up[k] else -1)
    rate = A @ p
    cand = np.flatnonzero((rate > rate_tol * norms * p_norm) & ~work)
    if cand.size:
        steps = np.maximum((b - A @ x)[cand], 0.0) / rate[cand]
        k = int(np.argmin(steps))
        if steps[k] < alpha:
            alpha, hit = float(steps[k]), (int(cand[k]), 0)
    return alpha, hit


def _cone_multiplier(prog: BoxProgram, rows, lam) -> np.ndarray:
    """y* = A_rows' max(lam, 0), A the halfspace rows of the constraint cone
    and lam the multipliers of its rows `rows`."""
    return prog.cone_y.halfspaces[rows].T @ np.maximum(lam, 0.0) if prog.m else np.zeros(0)


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
        gA, gb = prog._ineq_rows()
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
    dual_status: str | None = None     # DualResult.status; None: no dual solve
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
            if self.pi is not None and (self.e_prime is not None or self.multipliers.y.size == 0):
                ep = self.e_prime if self.e_prime is not None else np.zeros(0)
                d["multipliers_lifted"] = self.multipliers.lifted(self.pi, ep)
        return d


def duality_gap_report(prog: BoxProgram, e=None) -> GapReport:
    """Primal value, and the dual value at the primal's KKT multipliers; the
    gap is asserted only under modified Slater."""
    tols = default_tolerances()
    if prog.m and e is None:
        e = np.sum(prog.cone_y.generators, axis=0)
        e = e / np.linalg.norm(e)
    slater = check_modified_slater(prog, e)
    primal = solve_primal(prog)
    if primal.status != "optimal":
        return GapReport(primal.status, None, None, None, slater, None, None,
                         gap_asserted=False, gap_ok=True,
                         kkt_residual=primal.kkt_residual, farkas=primal.farkas)
    dual = solve_dual(prog, primal)
    dual.multipliers.validate(prog)
    gap = primal.value - dual.value
    asserted = bool(slater.satisfied)
    ok = (not asserted) or gap <= tols.gap_assert
    pi = prog.x_hi - prog.x_lo  # the generating element of the box lift
    e_prime = None
    if prog.m and slater.satisfied:
        raw = np.asarray(e, dtype=float) - prog.g(slater.witness)
        e_prime = raw / np.linalg.norm(raw)
    return GapReport(primal.status, primal.value, dual.value, gap, slater,
                     primal.x, dual.multipliers, asserted, ok,
                     pi=pi, e_prime=e_prime, kkt_residual=primal.kkt_residual,
                     dual_status=dual.status)


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


def random_multipliers(rng: np.random.Generator, prog: BoxProgram) -> Multipliers:
    A = prog.cone_y.halfspaces if prog.m else np.zeros((0, 0))
    y = np.abs(rng.normal(size=A.shape[0])) @ A
    return Multipliers(y=y, x1=np.abs(rng.normal(size=prog.n)),
                       x2=np.abs(rng.normal(size=prog.n)),
                       z=rng.normal(size=prog.k))
