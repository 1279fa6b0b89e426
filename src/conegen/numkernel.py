"""Deterministic dense numerical kernels: simplex LP, projections, iterations.

The simplex is a two-phase dense tableau with bounded variables (Chvatal,
Linear Programming, ch. 8): a bound is a column bound, not a row, a nonbasic
variable sits at one of its bounds, and only a variable free on both sides is
split into x+ - x-. Each nonzero inequality and equality row is equilibrated
to infinity-norm 1 first. The entering column follows Dantzig's rule
(largest reduced-cost violation, lowest index on ties); after a run of
degenerate pivots it follows Bland's rule (lowest index, ratio ties by lowest
basic index) until the next nondegenerate pivot, so the method terminates
(Bland, Math. Oper. Res. 2(2), 1977). Nothing is random, so identical
inputs produce bitwise-identical reports. The reduced costs are the last row
of the tableau array, so each pivot is one in-place rank-1 update of rows and
costs together. Statuses are decided on the equilibrated rows,
each held to lp_feas * max(1, |b_i|) with b_i its own right-hand side, so
neither the row scale nor the variable bounds move the threshold: phase 1
reports "infeasible" when an artificial ends above it. The final point is
solved afresh from the optimal basis with the nonbasic variables exactly at
their bounds; if a row's residual there exceeds that threshold, and also
lp_feas times the size of the row's terms at the point, the report is
"numerical", never "optimal". Problems stay at a few hundred rows; no
sparsity, no warm starts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import default_tolerances


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return a dense 1-D float array with finite entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    return arr


def independent_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the rows left when each row within tol * its norm of the
    span of the rows left before it is dropped. While those are independent,
    |R_jj| of a QR of rows' is row j's distance from their span."""
    keep = np.arange(rows.shape[0])
    norms = np.linalg.norm(rows, axis=1)
    while keep.size:
        diag = np.abs(np.diagonal(np.linalg.qr(rows[keep].T, mode="r")))
        small = np.flatnonzero(diag <= tol * norms[keep[:diag.size]])
        if small.size == 0:
            return keep[:diag.size]   # rows past the dimension are dependent
        keep = np.delete(keep, small[0])
    return keep


@dataclass
class LPProblem:
    """min cost @ x  s.t.  ineq_lhs @ x >= ineq_rhs,  eq_lhs @ x == eq_rhs,
    lower <= x <= upper (entries of the bound arrays may be +-inf)."""

    cost: np.ndarray
    ineq_lhs: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    eq_lhs: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.cost = as_vector(self.cost, name="cost")
        n = self.cost.shape[0]
        self.ineq_lhs, self.ineq_rhs = _rows(self.ineq_lhs, self.ineq_rhs, n, "inequality")
        self.eq_lhs, self.eq_rhs = _rows(self.eq_lhs, self.eq_rhs, n, "equality")
        self.lower = _bound(self.lower, n, -math.inf)
        self.upper = _bound(self.upper, n, math.inf)
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def nvars(self) -> int:
        return self.cost.shape[0]


def _rows(lhs, rhs, n, what):
    if lhs is None:
        return np.zeros((0, n)), np.zeros(0)
    lhs = np.atleast_2d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    if lhs.shape != (rhs.shape[0], n):
        raise ValueError(f"{what} rows are dimension-inconsistent")
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
        raise ValueError(f"{what} rows must be finite")
    return lhs, rhs


def _bound(b, n, fill):
    if b is None:
        return np.full(n, fill)
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError("bound vector has wrong dimension")
    return b.copy()


@dataclass
class FarkasCertificate:
    """Nonnegative row combination proving infeasibility.

    With y_ineq >= 0 on rows a@x >= b, y_eq free, y_lower >= 0 on x_j >= l_j,
    y_upper >= 0 on -x_j >= -u_j, the combination of all left-hand sides
    vanishes while the same combination of right-hand sides is positive.
    """

    y_ineq: np.ndarray
    y_eq: np.ndarray
    y_lower: np.ndarray
    y_upper: np.ndarray


@dataclass
class SolveReport:
    status: str  # optimal | infeasible | unbounded | iteration-cap | numerical
    point: np.ndarray | None = None
    value: float | None = None
    residuals: dict = field(default_factory=dict)
    iterations: int = 0
    farkas: FarkasCertificate | None = None
    # Row duals y, [ineq..., eq...] in input order, of an "optimal" solve:
    # cost = A'y + r, r the bound multipliers (lower minus upper);
    # duality.solve_primal reads an LP's KKT multipliers from them.
    duals: np.ndarray | None = None


class LPFailure(RuntimeError):
    """An LP whose status ("numerical", "iteration-cap", ...) decides nothing
    about the question it was asked."""


def verify_farkas(problem: LPProblem, cert: FarkasCertificate,
                  tol: float | None = None) -> bool:
    """Independent check of an infeasibility certificate, read relative to the
    size of the certificate's own terms, so that neither the rows' nor the
    variables' scale moves it; tol defaults to Tolerances.farkas.

    Every feasible x satisfies combo @ x >= rhs, combo and rhs the
    combinations of the left- and right-hand sides, so the certificate holds
    when rhs exceeds the largest combo @ x can be over the bounds. A
    sign-constrained multiplier below -tol times the largest |multiplier|
    rejects the certificate; the smaller negative ones count as zero. On a
    variable boxed on both sides, the leftover combo_j, widened by the
    rounding of its own sum, is charged to the right-hand side at
    max(|l_j|, |u_j|). On a variable with an infinite bound nothing bounds
    the leftover, so combo_j must vanish within tol times the sum of its
    terms' magnitudes: the simplex's multipliers leave up to about 1e-13 of
    that size there. Such a certificate proves infeasible a problem whose
    coefficients in those columns differ from the given ones by at most tol
    relative (a backward-error statement). The right-hand side must then be
    positive beyond the rounding bound of its own sum, k * eps times the
    sum of its k terms' magnitudes (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., sec. 4.2): a translated problem's terms
    cancel to a right-hand side many orders below their size. A bound
    multiplier on an infinite bound makes the right-hand side -inf.
    """
    tol = default_tolerances().farkas if tol is None else tol
    signed = np.concatenate([cert.y_ineq, cert.y_lower, cert.y_upper])
    if np.any(signed < -tol * np.abs(np.concatenate([signed, cert.y_eq])).max(initial=0.0)):
        return False
    y_ineq, y_lower, y_upper = (np.maximum(y, 0.0)
                                for y in (cert.y_ineq, cert.y_lower, cert.y_upper))
    combo = y_ineq @ problem.ineq_lhs + cert.y_eq @ problem.eq_lhs + y_lower - y_upper
    size = y_ineq @ np.abs(problem.ineq_lhs) + np.abs(cert.y_eq) @ np.abs(problem.eq_lhs) \
        + y_lower + y_upper
    eps = np.finfo(float).eps
    boxed = np.isfinite(problem.lower) & np.isfinite(problem.upper)
    if np.any(np.abs(combo[~boxed]) > tol * size[~boxed]):
        return False
    # combo_j sums m + 2 terms; its rounding is charged with it
    k = problem.ineq_lhs.shape[0] + problem.eq_lhs.shape[0] + 2
    reach = np.maximum(np.abs(problem.lower[boxed]), np.abs(problem.upper[boxed]))
    leftover = (np.abs(combo[boxed]) + k * eps * size[boxed]) * reach
    lo, hi = y_lower != 0.0, y_upper != 0.0
    terms = np.concatenate([y_ineq * problem.ineq_rhs, cert.y_eq * problem.eq_rhs,
                            y_lower[lo] * problem.lower[lo],
                            -y_upper[hi] * problem.upper[hi], -leftover])
    rhs = float(terms.sum())
    rounding = terms.size * eps * float(np.abs(terms).sum())
    return bool(rhs > rounding)


# Pricing falls back from Dantzig's rule to Bland's lowest-index rule after
# this many consecutive degenerate pivots, and returns to Dantzig after the
# next nondegenerate one. A degenerate run under Bland's rule cannot cycle.
_BLAND_AFTER = 20
# Pivots (bound flips included) over both phases before "iteration-cap".
SIMPLEX_CAP = 20_000


def solve_lp(problem: LPProblem) -> SolveReport:
    tols = default_tolerances()
    n, n_in = problem.nvars, problem.ineq_lhs.shape[0]
    A = np.concatenate([problem.ineq_lhs, problem.eq_lhs])
    b = np.concatenate([problem.ineq_rhs, problem.eq_rhs])
    m = A.shape[0]
    # Equilibrate: every nonzero inequality and equality row gets infinity-norm 1.
    norm = np.abs(A).max(axis=1, initial=0.0)
    rho = 1.0 / np.where(norm > 0.0, norm, 1.0)

    # Columns z with 0 <= z <= upper and x = shift + sign * z: a finite lower
    # bound is shifted to zero, a lone upper bound is reflected, and only a
    # variable free on both sides gets a second column for its negative part.
    lo, hi = problem.lower, problem.upper
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    free = np.flatnonzero(~(has_lo | has_hi))
    sign = np.where(has_lo | ~has_hi, 1.0, -1.0)
    shift = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    r = (b - A @ shift) * rho

    # Rows sigma * (rho A z - slack) = sigma * r with sigma * r >= 0. An
    # inequality row already satisfied at z = 0 starts with its slack basic;
    # every other row gets an artificial column.
    slack_start = np.zeros(m, dtype=bool)
    slack_start[:n_in] = r[:n_in] <= 0.0
    sigma = np.where(slack_start | (r < 0.0), -1.0, 1.0)
    art_rows = np.flatnonzero(~slack_start)
    nz = n + free.size
    slack = nz + np.arange(n_in)
    art = nz + n_in + np.arange(art_rows.size)
    f = sigma * rho
    # Row m is reserved for the reduced costs, which pivot with the rows.
    T = np.zeros((m + 1, nz + n_in + art.size))
    T[:m, :n] = A * f[:, None] * sign
    T[:m, n:nz] = -T[:m, free]
    T[np.arange(n_in), slack] = -sigma[:n_in]
    T[art_rows, art] = 1.0
    basis = nz + np.arange(m)
    basis[art_rows] = art
    upper = np.full(T.shape[1], np.inf)
    upper[:n] = np.where(has_lo & has_hi, hi - lo, np.inf)
    cost = np.zeros(T.shape[1])
    cost[:n] = problem.cost * sign
    cost[n:nz] = -problem.cost[free]
    # Phase 1 and the post-solve gate both hold each equilibrated row to
    # lp_feas relative to its own right-hand side, whatever the bounds.
    feas_tol = tols.lp_feas * np.maximum(1.0, np.abs(b * rho))

    T0 = T[:m].copy()  # the pivots overwrite T
    rep = _two_phase(T, sigma * r, basis, upper, cost, art, feas_tol[art_rows], tols)
    out = SolveReport(status=rep["status"], iterations=rep["iterations"])
    if rep["status"] not in ("optimal", "infeasible"):
        return out
    y = f * rep["y"]  # multipliers of the input rows
    if rep["status"] == "infeasible":
        y_ineq = np.maximum(y[:n_in], 0.0)
        g = y_ineq @ problem.ineq_lhs + y[n_in:] @ problem.eq_lhs
        out.farkas = FarkasCertificate(
            y_ineq=y_ineq, y_eq=y[n_in:],
            y_lower=np.where(has_lo, np.maximum(-g, 0.0), 0.0),
            y_upper=np.where(has_hi, np.maximum(g, 0.0), 0.0))
        return out

    # The point is solved afresh from the final basis in the units of x: the
    # nonbasic variables sit exactly at their bounds and the basic ones solve
    # the equilibrated rows, so the rounding of a far bound shifted to zero
    # does not reach it.
    basis = rep["basis"]
    carries = basis < nz  # basic columns that carry a variable of x
    var = np.concatenate([np.arange(n), free])[basis[carries]]
    x = np.where(rep["at_upper"][:n], hi, shift)
    x[var] = 0.0
    unit = np.ones(T.shape[1])  # columns in x units: x_j = -z on a negative part
    unit[:n], unit[n:nz] = sign, -1.0
    try:
        v = np.linalg.solve(T0[:, basis] * unit[basis], f * (b - A @ x))
    except np.linalg.LinAlgError:
        return SolveReport(status="numerical", iterations=rep["iterations"])
    x[var] = v[carries]
    x = np.minimum(np.maximum(x, lo), hi)
    res = np.concatenate([problem.ineq_rhs - problem.ineq_lhs @ x,
                          np.abs(problem.eq_lhs @ x - problem.eq_rhs)])
    res[:n_in] = np.maximum(res[:n_in], 0.0)
    out.point, out.value, out.duals = x, float(problem.cost @ x), y
    out.residuals = {
        "ineq": float(res[:n_in].max(initial=0.0)),
        "eq": float(res[n_in:].max(initial=0.0)),
        "bounds": 0.0,  # x is clipped to its bounds
        "optimality": rep["opt_resid"],
    }
    # The gate also allows for the size of the terms each row sums at x.
    terms = tols.lp_feas * rho * (np.abs(A) @ np.abs(x))
    if np.any(res * rho > np.maximum(feas_tol, terms)):
        out.status = "numerical"
    return out


def _two_phase(T, xb, basis, upper, cost, art, feas_tol, tols):
    """Bounded-variable two-phase simplex on T[:-1] z = xb, 0 <= z <= upper.

    The last row of T holds the reduced costs of the current phase, so that
    one rank-1 update per pivot moves the rows and the costs together. The
    columns `basis` hold the identity, and `art` are the artificial columns,
    each held to its entry of feas_tol in phase 1. Returns the row duals
    y = c_B B^-1 of the phase that decided the status, read off the reduced
    costs of the starting basis columns.
    """
    start = basis.copy()
    rows, d = T[:-1], T[-1]
    # Nonbasic columns sit at zero (-1: may increase) or at their upper bound
    # (+1: may decrease); 0 marks basic columns and columns fixed at zero.
    sgn = np.where(upper > 0.0, -1.0, 0.0)
    sgn[basis] = 0.0
    iters = 0
    if art.size:
        # Phase 1: minimize the sum of the artificials.
        c1 = np.zeros(T.shape[1])
        c1[art] = 1.0
        d[:] = c1 - c1[basis] @ rows
        status, iters = _simplex_loop(T, xb, basis, upper, sgn, tols, iters)
        if status != "optimal":
            return {"status": status, "iterations": iters}
        held = np.full(T.shape[1], np.inf)
        held[art] = feas_tol
        if np.any(xb > held[basis]):
            return {"status": "infeasible", "iterations": iters,
                    "y": c1[start] - d[start]}
        # Artificials are fixed at zero from here on; one that stays basic
        # marks a redundant row.
        xb[c1[basis] > 0.0] = 0.0
        upper[art] = 0.0
        sgn[art] = 0.0

    d[:] = cost - cost[basis] @ rows
    status, iters = _simplex_loop(T, xb, basis, upper, sgn, tols, iters)
    if status != "optimal":
        return {"status": status, "iterations": iters}
    return {"status": "optimal", "basis": basis, "at_upper": sgn > 0.0,
            "iterations": iters, "y": cost[start] - d[start],
            "opt_resid": float(max(0.0, (d * sgn).max(initial=0.0)))}


def _simplex_loop(T, xb, basis, upper, sgn, tols, iters):
    """Minimize over 0 <= z <= upper from the basis `basis` with values xb;
    the last row of T is the reduced-cost row d.

    The entering column has the largest reduced-cost violation d * sgn
    (Dantzig), lowest index on ties; it either flips to its other bound or
    pivots in. A pivot is one in-place rank-1 update of all of T, rows and
    d alike, through a product buffer allocated once per call.
    """
    m, ncols = T.shape[0] - 1, T.shape[1]
    if ncols == 0:
        return "optimal", iters
    d = T[m]
    ub = upper[basis]
    ratio = np.empty(m)
    score = np.empty(ncols)
    piv = np.empty(ncols)
    prod = np.empty_like(T)
    degenerate = 0
    while True:
        np.multiply(d, sgn, out=score)
        bland = degenerate >= _BLAND_AFTER
        # Bland: the first eligible column; Dantzig: the first largest score.
        col = int((score > tols.lp_pivot).argmax() if bland else score.argmax())
        if score[col] <= tols.lp_pivot:
            return "optimal", iters
        if iters >= SIMPLEX_CAP:
            return "iteration-cap", iters
        alpha = T[:m, col] * -sgn[col]  # xb(t) = xb - t alpha
        ratio.fill(np.inf)
        np.divide(np.maximum(xb, 0.0), alpha, out=ratio, where=alpha > tols.lp_pivot)
        np.divide(np.minimum(xb - ub, 0.0), alpha, out=ratio, where=alpha < -tols.lp_pivot)
        step = float(ratio.min(initial=np.inf))
        if math.isinf(step) and math.isinf(upper[col]):
            return "unbounded", iters
        iters += 1
        if upper[col] <= step:  # bound flip, no basis change
            xb -= upper[col] * alpha
            sgn[col] = -sgn[col]
            degenerate = 0
            continue
        tie = tols.lp_pivot * max(1.0, step)
        ties = (ratio <= step + tie).nonzero()[0]
        if ties.size == 1:
            row = int(ties[0])
        elif bland:
            row = int(ties[basis[ties].argmin()])
        else:  # the largest pivot among the tied rows
            row = int(ties[np.abs(alpha[ties]).argmax()])
        leave = basis[row]
        entered = upper[col] - step if sgn[col] > 0.0 else step
        xb -= step * alpha
        xb[row] = entered
        sgn[leave] = 0.0 if upper[leave] <= 0.0 else (1.0 if alpha[row] < 0.0 else -1.0)
        sgn[col] = 0.0
        basis[row] = col
        ub[row] = upper[col]
        np.divide(T[row], T[row, col], out=piv)
        np.multiply(T[:, col, None], piv, out=prod)
        T -= prod
        T[row] = piv
        degenerate = degenerate + 1 if step <= tie else 0


# ---------------------------------------------------------------------------
# projections and first-order iterations

def project_box(x, lower, upper) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(lower > upper):
        raise ValueError("invalid box: lower exceeds upper")
    return np.clip(x, lower, upper)


PG_CAP = 200_000   # projected-gradient steps before "iteration-cap"


def projected_gradient(grad: Callable[[np.ndarray], np.ndarray],
                       project: Callable[[np.ndarray], np.ndarray],
                       x0,
                       step: float | Callable[[int], float],
                       objective: Callable[[np.ndarray], float] | None = None
                       ) -> SolveReport:
    """Projected gradient descent; stops at gradient-mapping norm <= the
    tolerances' gradient_map."""
    gradient_map = default_tolerances().gradient_map
    x = project(np.asarray(x0, dtype=float))
    best_x = x
    best_val = objective(x) if objective is not None else None
    step_at = step if callable(step) else (lambda _k: step)
    for k in range(PG_CAP):
        s = step_at(k)
        x_new = project(x - s * grad(x))
        gm = float(np.linalg.norm(x - x_new) / s)
        if objective is not None:
            val = objective(x_new)
            if val <= best_val:
                best_val, best_x = val, x_new
        else:
            best_x = x_new
        if gm <= gradient_map:
            return SolveReport(status="optimal", point=best_x, value=best_val,
                               residuals={"gradient_map": gm}, iterations=k + 1)
        x = x_new
    gm = float(np.linalg.norm(x - project(x - step_at(PG_CAP) * grad(x))))
    return SolveReport(status="iteration-cap", point=best_x, value=best_val,
                       residuals={"gradient_map": gm}, iterations=PG_CAP)
