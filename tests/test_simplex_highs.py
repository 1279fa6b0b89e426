"""Differential test of the simplex against scipy's HiGHS, plus the simplex's
termination, pivot-count and determinism checks.

Each family is built so that its status is known by construction: optimal
(a strictly interior point and a dual-feasible cost exist), unbounded (a feasible improving ray
exists) or infeasible (a row combination y >= 0 gives 0 >= 1). Variables are
boxed, one-sided or free, and some families carry equality rows. The rescaled
copies multiply each row by 10^-8, 1 or 10^8; they are compared with HiGHS on
the unscaled rows, because HiGHS drops matrix entries below 1e-9 and checks
feasibility in absolute terms, so its own answer on the rescaled rows is not
a scale-free reference. The copies with bounds at +-1e8, or translated by up
to 1e8, start the simplex far from the rows' scale; HiGHS solves each of
them as given.
"""
import ctypes
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import conegen.numkernel as numkernel
from conegen.config import Tolerances, use_tolerances
from conegen.numkernel import FarkasCertificate, LPProblem, solve_lp, verify_farkas

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
KINDS = ("box", "lower", "upper", "free")


def _bounds(rng, x0, d=None):
    """Bounds of mixed kinds around x0; where d moves a variable, the bound
    that would stop the ray d is dropped."""
    n = x0.size
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    for j in range(n):
        kind = KINDS[rng.integers(len(KINDS))]
        if kind in ("box", "lower") and (d is None or d[j] >= 0):
            lower[j] = x0[j] - rng.uniform(0.2, 2.0)
        if kind in ("box", "upper") and (d is None or d[j] <= 0):
            upper[j] = x0[j] + rng.uniform(0.2, 2.0)
    return lower, upper


def _feasible(rng, n, m, k, d=None):
    """Rows a x >= b strictly satisfied at x0 and equality rows through x0;
    with a ray d, the rows are turned so that a d >= 0 and e d = 0."""
    x0 = rng.uniform(-1.0, 1.0, size=n)
    A = rng.normal(size=(m, n))
    E = rng.normal(size=(k, n))
    if d is not None:
        dd = float(d @ d)
        A += np.maximum(-(A @ d), 0.0)[:, None] * d / dd
        E -= (E @ d)[:, None] * d / dd
    b = A @ x0 - rng.uniform(0.1, 1.0, size=m)
    return A, b, E, E @ x0, x0


def _family(rng, kind):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 11))
    k = int(rng.integers(0, min(n, 3)))
    c = rng.normal(size=n)
    if kind == "unbounded":
        d = rng.normal(size=n) * (rng.random(n) < 0.7)
        if not d.any():
            d[0] = 1.0
        A, b, E, f, x0 = _feasible(rng, n, m, k, d)
        c -= (c @ d + 1.0) / float(d @ d) * d  # c d = -1
        lower, upper = _bounds(rng, x0, d)
    else:
        A, b, E, f, x0 = _feasible(rng, n, m, k)
        lower, upper = _bounds(rng, x0)
        if kind == "feasible":
            # A dual-feasible cost keeps the optimum finite.
            c = rng.uniform(0.0, 1.0, size=m) @ A + rng.normal(size=k) @ E
            c += np.where(np.isfinite(lower), rng.uniform(0.0, 1.0, size=n), 0.0)
            c -= np.where(np.isfinite(upper), rng.uniform(0.0, 1.0, size=n), 0.0)
        if kind == "infeasible":
            # q rows with sum_i y_i a_i = 0 and sum_i y_i b_i = 1.
            q = int(rng.integers(2, 5))
            y = rng.uniform(0.5, 2.0, size=q)
            rows = rng.normal(size=(q, n))
            rows[-1] = -(y[:-1] @ rows[:-1]) / y[-1]
            rhs = rng.normal(size=q)
            rhs[-1] = (1.0 - y[:-1] @ rhs[:-1]) / y[-1]
            A, b = np.vstack([A, rows]), np.concatenate([b, rhs])
            order = rng.permutation(A.shape[0])
            A, b = A[order], b[order]
    return c, A, b, E, f, lower, upper


def _far_and_moved(rng, A, b, E, f, lower, upper):
    """The (rhs, eq rhs, lower, upper) of a family draw's two copies with
    large finite bounds: infinite bounds replaced by +-1e8, and the whole
    problem translated by up to 1e8 in each variable."""
    far = (b, f, np.where(np.isfinite(lower), lower, -1e8),
           np.where(np.isfinite(upper), upper, 1e8))
    u = rng.uniform(-1e8, 1e8, size=A.shape[1])
    return far, (b + A @ u, f + E @ u, lower + u, upper + u)


def _family_lps(rng, kind, draws):
    """draws LPs of the family, each as drawn and as its two far copies."""
    for _ in range(draws):
        c, A, b, E, f, lower, upper = _family(rng, kind)
        far, moved = _far_and_moved(rng, A, b, E, f, lower, upper)
        for b_, f_, lo_, hi_ in ((b, f, lower, upper), far, moved):
            yield LPProblem(cost=c, ineq_lhs=A, ineq_rhs=b_, eq_lhs=E, eq_rhs=f_,
                            lower=lo_, upper=hi_)


def _highs(c, A, b, E, f, lower, upper, duals=False):
    """HiGHS's status and value; with duals, also its row marginals in
    solve_lp's convention: y >= 0 on the rows A x >= b (HiGHS reads them as
    -A x <= -b, so the sign flips) and y on E x = f, both d value / d rhs."""
    # HiGHS's presolve reports some unbounded instances of the family as
    # infeasible; its simplex without presolve reports them as unbounded.
    res = linprog(c, A_ub=-A, b_ub=-b, A_eq=E if E.size else None,
                  b_eq=f if E.size else None, bounds=list(zip(lower, upper)),
                  method="highs", options={"presolve": False})
    if not duals:
        return HIGHS_STATUS[res.status], res.fun
    y_eq = res.eqlin.marginals if E.size else np.zeros(0)
    return HIGHS_STATUS[res.status], res.fun, np.concatenate([-res.ineqlin.marginals, y_eq])


def _check(problem, status, value):
    rep = solve_lp(problem)
    assert rep.status == status
    if status == "optimal":
        assert rep.value == pytest.approx(value, abs=1e-7 * max(1.0, abs(value)))
    if status == "infeasible":
        assert verify_farkas(problem, rep.farkas)


@pytest.mark.parametrize("kind", ["feasible", "infeasible", "unbounded"])
def test_matches_highs(kind):
    rng = np.random.default_rng(["feasible", "infeasible", "unbounded"].index(kind))
    for _ in range(40):
        c, A, b, E, f, lower, upper = _family(rng, kind)
        status, value = _highs(c, A, b, E, f, lower, upper)
        assert status == {"feasible": "optimal"}.get(kind, kind)
        _check(LPProblem(cost=c, ineq_lhs=A, ineq_rhs=b, eq_lhs=E, eq_rhs=f,
                         lower=lower, upper=upper), status, value)
        s = 10.0 ** rng.choice([-8, 0, 8], size=A.shape[0])
        t = 10.0 ** rng.choice([-8, 0, 8], size=E.shape[0])
        _check(LPProblem(cost=c, ineq_lhs=A * s[:, None], ineq_rhs=b * s,
                         eq_lhs=E * t[:, None], eq_rhs=f * t,
                         lower=lower, upper=upper), status, value)
        for b_, f_, lo_, hi_ in _far_and_moved(rng, A, b, E, f, lower, upper):
            _check(LPProblem(cost=c, ineq_lhs=A, ineq_rhs=b_, eq_lhs=E, eq_rhs=f_,
                             lower=lo_, upper=hi_), *_highs(c, A, b_, E, f_, lo_, hi_))


@pytest.mark.parametrize("kind", ["feasible", "infeasible", "unbounded"])
def test_blands_rule_from_the_first_pivot_matches_highs(kind, monkeypatch):
    # Bland's rule is the fallback after _BLAND_AFTER degenerate pivots in a
    # row; chosen from the first pivot, it reaches HiGHS's status and value
    monkeypatch.setattr(numkernel, "_BLAND_AFTER", 0)
    rng = np.random.default_rng(["feasible", "infeasible", "unbounded"].index(kind))
    for _ in range(40):
        c, A, b, E, f, lower, upper = _family(rng, kind)
        _check(LPProblem(cost=c, ineq_lhs=A, ineq_rhs=b, eq_lhs=E, eq_rhs=f,
                         lower=lower, upper=upper), *_highs(c, A, b, E, f, lower, upper))


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-8, 1e-10, 1e-14])
def test_scaled_infeasible_rows(scale):
    """{x >= 1, x <= 0} with both rows scaled: infeasible at every scale."""
    p = LPProblem(cost=[0.0], ineq_lhs=np.array([[1.0], [-1.0]]) * scale,
                  ineq_rhs=np.array([1.0, 0.0]) * scale)
    rep = solve_lp(p)
    assert rep.status == "infeasible"
    assert verify_farkas(p, rep.farkas)


@pytest.mark.parametrize("log_s", range(-8, 9, 2))
def test_farkas_certificate_under_variable_scaling(log_s):
    """min 0 s.t. s x1 + s x2 >= 3, 0 <= x <= 1/s has no point (s x1 + s x2 <= 2)
    whatever s is; the certificate's right-hand side is about 1/s, so it is
    only read against the size of its own terms. Row scales of 10^-8 to 10^8
    on top change nothing either."""
    s = 10.0 ** log_s
    for r in (1e-8, 1.0, 1e8):
        p = LPProblem(cost=[0.0, 0.0], ineq_lhs=[[r * s, r * s]], ineq_rhs=[3.0 * r],
                      lower=[0.0, 0.0], upper=[1.0 / s, 1.0 / s])
        rep = solve_lp(p)
        assert rep.status == "infeasible"
        assert verify_farkas(p, rep.farkas)


def test_farkas_certificates_of_scaled_families():
    """The infeasible family with every variable scaled by s = 10^-8 ... 10^8
    and each row by 10^-8, 1 or 10^8: "infeasible", and the certificate
    verifies."""
    rng = np.random.default_rng(2)
    for _ in range(15):
        c, A, b, E, f, lower, upper = _family(rng, "infeasible")
        for log_s in range(-8, 9, 4):
            s = 10.0 ** log_s
            r = 10.0 ** rng.choice([-8, 0, 8], size=A.shape[0])
            p = LPProblem(cost=c * s, ineq_lhs=A * s * r[:, None], ineq_rhs=b * r,
                          eq_lhs=E * s, eq_rhs=f, lower=lower / s, upper=upper / s)
            rep = solve_lp(p)
            assert rep.status == "infeasible"
            assert verify_farkas(p, rep.farkas)


def test_farkas_rejects_empty_and_invalid_certificates():
    """An all-zero certificate proves nothing; neither does a multiplier on an
    infinite bound, a combination that does not vanish, or a certificate of a
    feasible problem."""
    p = LPProblem(cost=[0.0, 0.0], ineq_lhs=[[1.0, 1.0]], ineq_rhs=[3.0],
                  lower=[0.0, -np.inf], upper=[1.0, 1.0])
    zero = FarkasCertificate(y_ineq=np.zeros(1), y_eq=np.zeros(0),
                             y_lower=np.zeros(2), y_upper=np.zeros(2))
    assert not verify_farkas(p, zero)
    # x1 <= 1 and x2 <= 1 give x1 + x2 <= 2 < 3: a valid certificate
    good = FarkasCertificate(y_ineq=np.ones(1), y_eq=np.zeros(0),
                             y_lower=np.zeros(2), y_upper=np.ones(2))
    assert verify_farkas(p, good)
    # 2 (x1 + x2 >= 3) + (x2 >= -inf) - 2 (x1 <= 1) - 3 (x2 <= 1): the
    # left-hand sides cancel, and the right-hand side is 6 - 2 - 3 - inf
    on_infinite_bound = FarkasCertificate(
        y_ineq=np.array([2.0]), y_eq=np.zeros(0), y_lower=np.array([0.0, 1.0]),
        y_upper=np.array([2.0, 3.0]))
    assert not verify_farkas(p, on_infinite_bound)
    assert not verify_farkas(p, dataclasses.replace(good, y_upper=np.array([1.0, 0.5])))
    # x1 + x2 >= 2 on [0, 1]^2 is feasible at (1, 1): a leftover of 1e-10 on
    # a boxed variable is charged to the right-hand side of 1e-10 it would
    # buy, and multipliers of -1e-9 are negative at the certificate's scale
    p = dataclasses.replace(p, ineq_rhs=np.array([2.0]), lower=np.zeros(2))
    assert not verify_farkas(p, dataclasses.replace(good, y_upper=np.array([1.0, 1.0 - 1e-10])))
    box = LPProblem(cost=[0.0], lower=[0.0], upper=[1.0])
    assert not verify_farkas(box, FarkasCertificate(
        y_ineq=np.zeros(0), y_eq=np.zeros(0), y_lower=np.array([-1e-9]),
        y_upper=np.array([-1e-9])))


def test_far_bound_does_not_loosen_feasibility():
    """{x >= 0.01, x <= 0} with the lower bound -1e8, which the simplex shifts
    to zero: the rows still decide, so the status is "infeasible"."""
    p = LPProblem(cost=[0.0], ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[0.01, 0.0],
                  lower=[-1e8])
    rep = solve_lp(p)
    assert rep.status == "infeasible"
    assert verify_farkas(p, rep.farkas)


def test_post_solve_gate():
    """A point whose equilibrated residual exceeds lp_feas is "numerical",
    never "optimal", and keeps its point and residuals. With lp_feas = 1e-300
    any rounding residual at the optimum trips the gate."""
    rng = np.random.default_rng(0)
    gated = 0
    for _ in range(20):
        c, A, b, E, f, lower, upper = _family(rng, "feasible")
        p = LPProblem(cost=c, ineq_lhs=A, ineq_rhs=b, eq_lhs=E, eq_rhs=f,
                      lower=lower, upper=upper)
        rep = solve_lp(p)
        assert rep.status == "optimal"
        if max(rep.residuals["ineq"], rep.residuals["eq"]) == 0.0:
            continue
        with use_tolerances(Tolerances(lp_feas=1e-300)):
            strict = solve_lp(p)
        assert strict.status == "numerical"
        assert strict.point is not None
        assert max(strict.residuals["ineq"], strict.residuals["eq"]) > 0.0
        gated += 1
    assert gated > 0


def test_beale_cycling_example():
    """Beale's LP, which cycles under Dantzig's rule with lowest-index ratio
    ties; HiGHS gives the value -1.25."""
    c = np.array([-0.75, 20.0, -0.5, 6.0])
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    rep = solve_lp(LPProblem(cost=c, ineq_lhs=-A, ineq_rhs=-b, lower=np.zeros(4)))
    assert rep.status == "optimal"
    assert rep.value == pytest.approx(-1.25, abs=1e-12)
    assert rep.value == pytest.approx(_highs(c, -A, -b, np.zeros((0, 4)), np.zeros(0),
                                             np.zeros(4), np.full(4, np.inf))[1], abs=1e-9)


def test_beale_under_blands_rule_from_the_first_pivot(monkeypatch):
    # Beale's ratio ties reach Bland's tie-break in the primal loop
    monkeypatch.setattr(numkernel, "_BLAND_AFTER", 0)
    test_beale_cycling_example()


def _box_lp(n, seed):
    """The box LP family of the simplex benchmark: 2n random rows a x >= b
    with a strictly feasible point, and the box [-1, 1]^n. The seed may be
    a generator, which then draws the next program of the family."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-0.5, 0.5, size=n)
    A = rng.normal(size=(2 * n, n))
    b = A @ x0 - rng.uniform(0.1, 1.0, size=2 * n)
    return LPProblem(cost=rng.normal(size=n), ineq_lhs=A, ineq_rhs=b,
                     lower=-np.ones(n), upper=np.ones(n))


def test_box_lp_n80_pivot_count():
    p = _box_lp(80, 0)
    rep = solve_lp(p)
    assert rep.status == "optimal"
    assert rep.iterations < 1500
    _, value = _highs(p.cost, p.ineq_lhs, p.ineq_rhs, np.zeros((0, 80)), np.zeros(0),
                      p.lower, p.upper)
    assert rep.value == pytest.approx(value, abs=1e-7 * max(1.0, abs(value)))


def test_determinism_bitwise_box_lp():
    r1, r2 = solve_lp(_box_lp(40, 3)), solve_lp(_box_lp(40, 3))
    assert r1.status == r2.status == "optimal"
    assert r1.point.tobytes() == r2.point.tobytes()
    assert r1.value == r2.value and r1.iterations == r2.iterations


def test_duals_match_highs_marginals():
    """On nondegenerate optima (exactly n active rows, equalities and bounds,
    each with a nonzero multiplier) the row duals are unique, and solve_lp's
    match HiGHS's marginals."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        c, A, b, E, f, lower, upper = _family(rng, "feasible")
        status, value, y_ref = _highs(c, A, b, E, f, lower, upper, duals=True)
        rep = solve_lp(LPProblem(cost=c, ineq_lhs=A, ineq_rhs=b, eq_lhs=E, eq_rhs=f,
                                 lower=lower, upper=upper))
        assert rep.status == status == "optimal"
        x, y_ineq = rep.point, rep.duals[:A.shape[0]]
        rows = np.abs(A @ x - b) <= 1e-9 * (1.0 + np.abs(b))
        bounds = (np.abs(x - lower) <= 1e-9) | (np.abs(x - upper) <= 1e-9)
        r = c - A.T @ y_ineq - E.T @ rep.duals[A.shape[0]:]
        assert rows.sum() + bounds.sum() + E.shape[0] == c.size
        assert np.all(y_ineq[rows] > 1e-9) and np.all(np.abs(r[bounds]) > 1e-9)
        np.testing.assert_allclose(rep.duals, y_ref, rtol=1e-9, atol=1e-9)


# Mean pivots of the two-phase primal start, which put the rows' artificial
# columns in the first basis, on 20 programs of the box LP family drawn in
# turn from default_rng(3); the dual start from the cost-favoured box vertex
# needs at most 0.6 times as many.
TWO_PHASE_MEAN_PIVOTS = {10: 24.3, 20: 56.45, 40: 132.25}


@pytest.mark.parametrize("n", sorted(TWO_PHASE_MEAN_PIVOTS))
def test_dual_start_cuts_the_box_lp_pivots(n):
    rng = np.random.default_rng(3)
    reps = [solve_lp(_box_lp(n, rng)) for _ in range(20)]
    assert all(rep.status == "optimal" for rep in reps)
    assert np.mean([rep.iterations for rep in reps]) <= 0.6 * TWO_PHASE_MEAN_PIVOTS[n]


def openblas_kernel():
    """The kernel numpy's OpenBLAS runs, as the library names it, or None
    when that cannot be read. The library is the one numpy has loaded, so
    the name is the kernel that numpy's products use."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


# solve_lp(_box_lp(n, 0)): the iterations and the sha256 of the duals'
# bytes, and per OpenBLAS kernel the value's hex. Any change to the pivot
# rules, or to the floating-point operations of a pivot, shows here.
# Recorded with numpy 2.4.6 and its OpenBLAS 0.3.31 on x86-64, with 1 and 2
# BLAS threads alike, each kernel in a process started with
# OPENBLAS_CORETYPE set to it (Prescott names itself Katmai). The value
# passes through BLAS products whose rounding depends on the kernel; the
# iterations and the duals' bytes agree on all four.
# tests/test_blas_kernels.py checks decisions across kernels.
BOX_LP_PINS = {
    10: (11, "c6a6ab8fc9d8db04c8327809caabc623cc7cda4f32bded3fe743479890585b08"),
    20: (21, "49d7f8b81684949855d9f95aee4683375c9388afd2e1a77ef06e0689c538ea0d"),
    40: (67, "29c419e0acd91481a1478f4c188479a0d1c4b00e85fd701cdf6df9790b9c3bdf"),
}
BOX_LP_VALUES = {
    "SkylakeX": {10: "-0x1.ef0f0542731e3p+2", 20: "-0x1.0e18cf04d0776p+2", 40: "-0x1.780b7ae35f40fp+4"},
    "Haswell": {10: "-0x1.ef0f0542731e4p+2", 20: "-0x1.0e18cf04d0779p+2", 40: "-0x1.780b7ae35f40ap+4"},
    "Sandybridge": {10: "-0x1.ef0f0542731e3p+2", 20: "-0x1.0e18cf04d0777p+2", 40: "-0x1.780b7ae35f406p+4"},
    "Katmai": {10: "-0x1.ef0f0542731e4p+2", 20: "-0x1.0e18cf04d0775p+2", 40: "-0x1.780b7ae35f40ap+4"},
}


@pytest.mark.parametrize("n", sorted(BOX_LP_PINS))
def test_box_lp_pivots_pinned(n):
    iterations, duals = BOX_LP_PINS[n]
    rep = solve_lp(_box_lp(n, 0))
    assert rep.status == "optimal"
    assert rep.iterations == iterations
    kernel = openblas_kernel()
    assert kernel in BOX_LP_VALUES, f"no value pinned for the OpenBLAS kernel {kernel!r}"
    assert rep.value == float.fromhex(BOX_LP_VALUES[kernel][n]), f"on the OpenBLAS kernel {kernel}"
    assert hashlib.sha256(rep.duals.tobytes()).hexdigest() == duals
