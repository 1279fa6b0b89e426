"""Deterministic dense numerical kernels: the simplex LP and a projected gradient.

The simplex is a dense tableau with bounded variables (Chvatal, Linear
Programming, ch. 8): a bound is a column bound, not a row, and only a
variable free on both sides is split into x+ - x-. Each nonzero row is
equilibrated to infinity-norm 1 and gets a slack, fixed at zero on an
equality row; the slacks are the first basis. Every other column starts at
the bound its cost favours, so a dual simplex starts at once, with no phase
1 (Maros, Computational Techniques of the Simplex Method, 2003, ch. 10): the
most violated row leaves, and its ratio test flips bounds. A column
unbounded above with a negative cost starts at zero with cost 0; a primal
loop with Dantzig's rule then restores its cost. After a run of degenerate
pivots both loops follow Bland's rule until the next nondegenerate pivot
(Bland, Math. Oper. Res. 2(2), 1977). Nothing is random, so identical inputs
produce bitwise-identical reports. The reduced costs are the last row of the
tableau, so each pivot is one in-place rank-1 update of rows and costs.
Statuses are decided on the equilibrated rows, each held to
lp_feas * max(1, |b_i|) with b_i its own right-hand side, so neither the row
scale nor the variable bounds move the threshold: a row beyond it that no
column moves back is "infeasible", and its row of B^-1 is the Farkas
certificate. The final point is solved afresh from the optimal basis with
the nonbasic variables exactly at their bounds; if a row's residual there
exceeds that threshold, and also lp_feas times the size of the row's terms
at the point, the report is "numerical", never "optimal". Problems stay at a
few hundred rows; no sparsity, no warm starts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import default_tolerances


# as_vector and as_matrix check up to SHORT entries as Python floats, which
# below about 20 entries costs less than one numpy reduction
SHORT = 16

# Exponent bounds for pow2_shift, each shared by every read it guards.
# SUM_E: entries below 2^SUM_E keep a sum of their products with unit rows
# (dim below 2^46), or a difference of two, finite. PRODUCT_E: entries of
# exponent in [-PRODUCT_E, PRODUCT_E] have normal, finite products, and a
# sum of 2^20 squares of their differences stays finite.
SUM_E, PRODUCT_E = 1000, 500


def pow2_shift(top: float, lo: int, hi: int) -> int:
    """The least |s| with frexp(top / 2^s)[1] in [lo, hi]; 0 for top = 0.

    Reading an input at 2^-s of its size and scaling the result back by 2^s
    is exact wherever nothing over- or underflows, so every far or tiny
    read in the package takes its power of two here. lo = -inf sets no
    lower bound, and with lo = hi = 0 it is top's frexp exponent. A Python
    scalar in and out: the planar route calls it once per hull, where a
    numpy scalar call would cost more than the rest of the rule."""
    e = math.frexp(top)[1]
    return 0 if not top or lo <= e <= hi else e - (lo if e < lo else hi)


class DimensionMismatch(ValueError):
    pass


def _finite(arr: np.ndarray) -> bool:
    """Whether every entry of arr is finite. Up to SHORT entries the test
    reads a Python list: a finite sum has finite terms, so only a sum that
    is not finite (a non-finite term, or an overflow) reads each entry."""
    if arr.size > SHORT:
        return bool(np.isfinite(arr).all())
    flat = (arr if arr.ndim == 1 else arr.ravel()).tolist()
    return math.isfinite(sum(flat)) or all(map(math.isfinite, flat))


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return a dense 1-D float array with finite entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        if arr.ndim:
            raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
        arr = arr.reshape(1)
    if not _finite(arr):
        raise ValueError(f"{name} must have finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatch(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    return arr


def as_matrix(X, cols: int | None = None, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float array with finite entries, a vector
    read as one row, of cols columns when cols is given."""
    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2:
        if arr.ndim > 2:
            raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
        arr = arr.reshape(1, -1)
    if not _finite(arr):
        raise ValueError(f"{name} must have finite entries")
    if cols is not None and arr.shape[1] != cols:
        raise DimensionMismatch(f"{name} have dimension {arr.shape[1]}, expected {cols}")
    return arr


# The tops that pow2_shift(top, -PRODUCT_E, PRODUCT_E) leaves unshifted
# (frexp exponent in [-PRODUCT_E, PRODUCT_E]) lie in [SQUARE_LO, SQUARE_HI).
SQUARE_LO, SQUARE_HI = 2.0 ** (-PRODUCT_E - 1), 2.0 ** PRODUCT_E


def pow2_rows(M: np.ndarray):
    """(R, s, lengths): each row of M (the last axis; a vector is one row)
    read at 2^-s, s = pow2_shift(its largest |entry|, -PRODUCT_E,
    PRODUCT_E), and the Euclidean lengths of R's rows (a float for a
    vector). No square of an entry of R overflows, the largest is at least
    2^-1002, so a square that underflows costs less than the length's
    rounding, and only a zero row has length 0. s is None, and R is M
    itself, when no row needs a shift: a Python list shows that for a
    vector, one vectorised test of the rows' tops for a matrix; else s is
    the shift (an int for a vector, the rows' shifts for a matrix). A row
    that needs no shift keeps the bits of np.linalg.norm(M, axis=-1), or
    of sqrt(v.dot(v)) for a vector."""
    if M.ndim == 1:
        s = pow2_shift(max(map(abs, M.tolist()), default=0.0), -PRODUCT_E, PRODUCT_E)
        R = np.ldexp(M, -s) if s else M
        return R, s or None, math.sqrt(R.dot(R))
    tops = np.abs(M).max(axis=-1, initial=0.0)
    if SQUARE_LO <= tops.min(initial=SQUARE_LO) and tops.max(initial=0.0) < SQUARE_HI:
        return M, None, np.linalg.norm(M, axis=-1)
    s = np.reshape([pow2_shift(t, -PRODUCT_E, PRODUCT_E) for t in tops.ravel().tolist()], tops.shape)
    R = np.ldexp(M, -s[..., None])
    return R, s, np.linalg.norm(R, axis=-1)


def row_norms(M: np.ndarray):
    """Euclidean length of each row of M (the last axis; a float for a
    vector): the one row-norm kernel of the package. Each row is read at
    its power of two (`pow2_rows`, the scaling of Blue's portable norm,
    ACM TOMS 4(1), 1978) and its length scaled back by it, so a row at 2^k
    has 2^k times the length, and a row that needs no shift keeps numpy's
    bits. A length past the largest float reads inf."""
    _, s, lengths = pow2_rows(M)
    return lengths if s is None else np.ldexp(lengths, s)


def independent_rows(rows: np.ndarray) -> np.ndarray:
    """Indices of the rows left when each row within qp_curv * its norm of
    the span of the rows left before it is dropped. While those are
    independent, |R_jj| of a QR of rows' is row j's distance from their span.
    Each row is read at its power of two (`pow2_rows`), so the test does
    not change with a row's scale, and a row that needs no shift keeps its
    bits. No row or a lone row takes no QR: |R_00| is the lone row's norm,
    so the QR keeps it iff it is nonzero."""
    keep = np.arange(rows.shape[0])
    if keep.size <= 1:
        return keep[rows.any(axis=1)]
    rows, _, norms = pow2_rows(rows)
    tol = default_tolerances().qp_curv
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
        if self.ineq_lhs is None:
            self.ineq_lhs, self.ineq_rhs = np.zeros((0, n)), np.zeros(0)
        if self.eq_lhs is None:
            self.eq_lhs, self.eq_rhs = np.zeros((0, n)), np.zeros(0)
        self.ineq_lhs = as_matrix(self.ineq_lhs, n, "inequality rows")
        self.ineq_rhs = as_vector(self.ineq_rhs, self.ineq_lhs.shape[0], "inequality rhs")
        self.eq_lhs = as_matrix(self.eq_lhs, n, "equality rows")
        self.eq_rhs = as_vector(self.eq_rhs, self.eq_lhs.shape[0], "equality rhs")
        self.lower = _bound(self.lower, n, -math.inf, "lower bound")
        self.upper = _bound(self.upper, n, math.inf, "upper bound")
        if (self.lower > self.upper).any():
            raise ValueError("lower bound exceeds upper bound")


def _bound(b, n, fill, name):
    """A copy of the bound vector b, fill where b is None: its entries may
    be infinite (no bound), never nan."""
    if b is None:
        return np.full(n, fill)
    b = np.array(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {b.shape}")
    if b.shape[0] != n:
        raise DimensionMismatch(f"{name} has dimension {b.shape[0]}, expected {n}")
    if np.isnan(b).any():
        raise ValueError(f"{name} must have no nan entries")
    return b


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

    def to_dict(self) -> dict:
        return {"y_ineq": self.y_ineq.tolist(), "y_eq": self.y_eq.tolist(),
                "y_lower": self.y_lower.tolist(), "y_upper": self.y_upper.tolist()}


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


def verify_farkas(problem: LPProblem, cert: FarkasCertificate) -> bool:
    """Independent check of a Farkas infeasibility certificate, read
    relative to the size of the certificate's own terms, so that neither the
    rows' nor the variables' scale moves it; tol is Tolerances.farkas.

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
    tol = default_tolerances().farkas
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
# Iterations of both loops (a primal bound flip is one) before "iteration-cap".
SIMPLEX_CAP = 20_000


def solve_lp(problem: LPProblem) -> SolveReport:
    tols = default_tolerances()
    n, n_in = problem.cost.shape[0], problem.ineq_lhs.shape[0]
    A = np.concatenate([problem.ineq_lhs, problem.eq_lhs])
    b = np.concatenate([problem.ineq_rhs, problem.eq_rhs])
    m = A.shape[0]
    # Equilibrate: every nonzero inequality and equality row gets infinity-norm 1.
    absA = np.abs(A)
    norm = absA.max(axis=1, initial=0.0)
    rho = 1.0 / np.where(norm > 0.0, norm, 1.0)

    # Columns z with 0 <= z <= upper and x = shift + sign * z: a finite lower
    # bound is shifted to zero, a lone upper bound is reflected, and only a
    # variable free on both sides gets a second column for its negative part.
    lo, hi = problem.lower, problem.upper
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    free = (~(has_lo | has_hi)).nonzero()[0]
    sign = np.where(has_lo | ~has_hi, 1.0, -1.0)
    shift = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    xb = (b - A @ shift) * -rho

    # Rows s - rho A z = xb with slacks s = rho (A x - b), >= 0 on an
    # inequality row and 0 on an equality row. The slacks are the first
    # basis, so their columns of the tableau hold B^-1 throughout.
    nz = n + free.size
    slack = nz + np.arange(m)
    # Row m is reserved for the reduced costs, which pivot with the rows.
    T = np.zeros((m + 1, nz + m))
    T[:m, :n] = A * -rho[:, None] * sign
    T[np.arange(m), slack] = 1.0
    upper = np.full(T.shape[1], np.inf)
    upper[:n] = np.where(has_lo & has_hi, hi - lo, np.inf)
    upper[slack[n_in:]] = 0.0
    cost = np.zeros(T.shape[1])
    cost[:n] = problem.cost * sign
    T[:m, n:nz] = -T[:m, free]   # the negative parts' columns
    cost[n:nz] = -problem.cost[free]
    # Each equilibrated row is held to lp_feas relative to its own right-hand
    # side, whatever the bounds, in the dual loop and the post-solve gate
    # alike. A basic column's bound violation counts in the same row units,
    # times the column's largest entry, and is held to lp_feas.
    feas_tol = tols.lp_feas * np.maximum(1.0, np.abs(b * rho))
    held = np.full(T.shape[1], tols.lp_feas)
    held[slack] = feas_tol

    T0 = T[:m].copy()  # the pivots overwrite T
    status, iters, basis, sgn, row = _dual_simplex(T, xb, slack, upper, cost, held, tols)
    out = SolveReport(status=status, iterations=iters)
    if status == "infeasible":
        # The row w of B^-1 of the leaving row, with one step of iterative
        # refinement (Gleixner, Steffy & Wolter, INFORMS J. Comput. 28, 2016).
        B, w = T0[:, basis], T[row, slack]
        try:
            w = w + np.linalg.solve(B.T, np.eye(1, m, row)[0] - w @ B)
        except np.linalg.LinAlgError:
            pass
        y = rho * (1.0 if xb[row] < 0.0 else -1.0) * w
        y_ineq = np.maximum(y[:n_in], 0.0)
        g = y_ineq @ problem.ineq_lhs + y[n_in:] @ problem.eq_lhs
        out.farkas = FarkasCertificate(
            y_ineq=y_ineq, y_eq=y[n_in:],
            y_lower=np.where(has_lo, np.maximum(-g, 0.0), 0.0),
            y_upper=np.where(has_hi, np.maximum(g, 0.0), 0.0))
        return out
    if status != "optimal":
        return out
    # The input rows' multipliers. The slacks cost 0, so their reduced costs
    # are -c_B B^-1, minus the duals of T's rows, which are -rho times them.
    y = rho * T[m, slack]

    # The point is solved afresh from the final basis in the units of x: the
    # nonbasic variables sit exactly at their bounds and the basic ones solve
    # the equilibrated rows, so the rounding of a far bound shifted to zero
    # does not reach it.
    carries = basis < nz  # basic columns that carry a variable of x
    # a negative part's column carries its variable
    var = np.concatenate([np.arange(n), free])[basis[carries]]
    x = np.where(sgn[:n] > 0.0, hi, shift)
    x[var] = 0.0
    unit = np.ones(T.shape[1])  # columns in x units: x_j = -z on a negative part
    unit[:n], unit[n:nz] = sign, -1.0
    try:
        v = np.linalg.solve(T0[:, basis] * unit[basis], rho * (A @ x - b))
    except np.linalg.LinAlgError:
        return SolveReport(status="numerical", iterations=iters)
    x[var] = v[carries]
    x = np.minimum(np.maximum(x, lo), hi)
    res = np.concatenate([problem.ineq_rhs - problem.ineq_lhs @ x,
                          np.abs(problem.eq_lhs @ x - problem.eq_rhs)])
    res[:n_in] = np.maximum(res[:n_in], 0.0)
    out.point, out.value, out.duals = x, float(problem.cost @ x), y
    out.residuals = {
        "ineq": float(res[:n_in].max(initial=0.0)),
        "eq": float(res[n_in:].max(initial=0.0)),
        "optimality": float(max(0.0, (T[m] * sgn).max(initial=0.0))),
    }
    # The gate also allows for the size of the terms each row sums at x.
    terms = tols.lp_feas * rho * (absA @ np.abs(x))
    if (res * rho > np.maximum(feas_tol, terms)).any():
        out.status = "numerical"
    return out


def _dual_simplex(T, xb, start, upper, cost, held, tols):
    """Bounded-variable simplex on T[:-1] z = xb, 0 <= z <= upper from the
    identity columns `start`, each other column at the bound its cost
    favours: the dual loop, then the primal loop with the true costs of the
    columns unbounded above that started at zero with cost 0. Returns
    (status, iterations, basis, sgn, row), row the leaving row of an
    "infeasible" status, else None; T's columns `start` hold B^-1, its last
    row the reduced costs, and xb the basic values, all in place.
    """
    basis = start.copy()
    rows, d = T[:-1], T[-1]
    weight = np.abs(rows).max(axis=0, initial=0.0)
    adverse = (cost < 0.0) & np.isinf(upper)
    at_upper = (cost < 0.0) & ~adverse
    d[:] = np.where(adverse, 0.0, cost)
    # Nonbasic columns sit at zero (-1: may increase) or at their upper bound
    # (+1: may decrease); 0 marks basic columns and columns fixed at zero.
    sgn = np.where(upper > 0.0, np.where(at_upper, 1.0, -1.0), 0.0)
    sgn[basis] = 0.0
    xb -= rows[:, at_upper] @ upper[at_upper]
    status, iters, row = _dual_loop(T, xb, basis, upper, sgn, weight, held, tols)
    if status == "optimal":
        if adverse.any():
            d[:] = cost - cost[basis] @ rows
        status, iters = _simplex_loop(T, xb, basis, upper, sgn, tols, iters)
    return status, iters, basis, sgn, row


def _dual_loop(T, xb, basis, upper, sgn, weight, held, tols):
    """Dual simplex from a dual-feasible basis: drive every basic column into
    its bounds, or find a row that no nonbasic column moves towards them.

    The row whose basic column lies furthest outside its bounds, in the row
    units of `weight` and beyond `held`, leaves. The ratio test takes the
    eligible columns in order of |d_j| / |alpha_j|, flips those whose whole
    range leaves the row still outside, and the next enters, the largest
    |alpha_j| among ratio ties. Under Bland's rule the lowest basic index
    leaves and the lowest tied column enters. Returns (status, iterations,
    leaving row).
    """
    m, ncols = T.shape[0] - 1, T.shape[1]
    if m == 0:
        return "optimal", 0, None
    d = T[m]
    ub, wb, hb = upper[basis], weight[basis], held[basis]
    piv = np.empty(ncols)
    prod = np.empty_like(T)
    degenerate = 0
    iters = 0
    while True:
        viol = np.maximum(xb - ub, -xb) * wb
        # an over row has viol > held >= 0, so the largest score is positive
        # iff some row is over, and its row is the leaving row
        score = np.where(viol > hb, viol, 0.0)
        row = int(score.argmax())
        if not score[row] > 0.0:
            return "optimal", iters, None
        if iters >= SIMPLEX_CAP:
            return "iteration-cap", iters, None
        bland = degenerate >= _BLAND_AFTER
        if bland:
            cand = score.nonzero()[0]
            row = int(cand[basis[cand].argmin()])
        below = xb[row] < 0.0
        excess = -xb[row] if below else xb[row] - ub[row]
        alpha = T[row] * (sgn if below else -sgn)
        elig = (alpha > tols.lp_pivot).nonzero()[0]
        if elig.size == 0:
            return "infeasible", iters, row
        a = alpha[elig]
        ratio = np.maximum(d[elig] * -sgn[elig], 0.0) / a
        room = a * upper[elig]  # how far each column's whole range moves the row
        left = ratio.copy()
        flips, reach = [], 0.0
        while True:  # the breakpoints in order of ratio, lowest index on ties
            k = int(left.argmin())
            if reach + room[k] >= excess:
                break
            if len(flips) + 1 == left.size:
                # Every eligible column at its other bound still leaves the
                # row outside beyond its threshold: the dual is unbounded.
                if (excess - (reach + room[k])) * wb[row] > hb[row]:
                    return "infeasible", iters, row
                break
            flips.append(k)
            reach += room[k]
            left[k] = np.inf
        iters += 1
        if flips:
            flip = elig[flips]
            xb += T[:m, flip] @ (sgn[flip] * upper[flip])
            sgn[flip] = -sgn[flip]
        step = ratio[k]
        tie = tols.lp_pivot * max(1.0, step)
        ties = (left <= step + tie).nonzero()[0]
        col = int(elig[ties.min() if bland else ties[a[ties].argmax()]])
        leave = basis[row]
        move = (xb[row] - (0.0 if below else ub[row])) / T[row, col]
        entered = (upper[col] if sgn[col] > 0.0 else 0.0) + move
        xb -= move * T[:m, col]
        xb[row] = entered
        sgn[leave] = 0.0 if upper[leave] <= 0.0 else (-1.0 if below else 1.0)
        sgn[col] = 0.0
        basis[row] = col
        ub[row], wb[row], hb[row] = upper[col], weight[col], held[col]
        _pivot(T, row, col, piv, prod)
        degenerate = degenerate + 1 if step <= tie else 0


def _pivot(T, row, col, piv, prod):
    """Pivot T in place on (row, col), through the buffers piv and prod."""
    np.divide(T[row], T[row, col], out=piv)
    np.multiply(T[:, col, None], piv, out=prod)
    T -= prod
    T[row] = piv


def _simplex_loop(T, xb, basis, upper, sgn, tols, iters):
    """Minimize over 0 <= z <= upper from the basis `basis` with values xb;
    the last row of T is the reduced-cost row d.

    The entering column has the largest reduced-cost violation d * sgn
    (Dantzig), lowest index on ties; it either flips to its other bound or
    pivots in.
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
        if bland:
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
        _pivot(T, row, col, piv, prod)
        degenerate = degenerate + 1 if step <= tie else 0


# ---------------------------------------------------------------------------
# first-order iteration: no library code calls it (the VI demo's box QP goes
# through duality.solve_primal); it stays while perfbench/spans.py traces it

PG_CAP = 200_000   # projected-gradient steps before "iteration-cap"
PG_STOP = 1e-7     # gradient-mapping norm at which it stops, "optimal"


def projected_gradient(grad: Callable[[np.ndarray], np.ndarray],
                       project: Callable[[np.ndarray], np.ndarray],
                       x0,
                       step: float | Callable[[int], float],
                       objective: Callable[[np.ndarray], float] | None = None
                       ) -> SolveReport:
    """Projected gradient descent; stops at gradient-mapping norm <= PG_STOP."""
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
        if gm <= PG_STOP:
            return SolveReport(status="optimal", point=best_x, value=best_val,
                               residuals={"gradient_map": gm}, iterations=k + 1)
        x = x_new
    gm = float(np.linalg.norm(x - project(x - step_at(PG_CAP) * grad(x))))
    return SolveReport(status="iteration-cap", point=best_x, value=best_val,
                       residuals={"gradient_map": gm}, iterations=PG_CAP)
