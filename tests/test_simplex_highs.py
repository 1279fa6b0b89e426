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
import numpy as np
import pytest
from scipy.optimize import linprog

from conegen.config import Tolerances
from conegen.numkernel import LPProblem, solve_lp, verify_farkas

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


def _highs(c, A, b, E, f, lower, upper):
    # HiGHS's presolve reports some unbounded instances of the family as
    # infeasible; its simplex without presolve reports them as unbounded.
    res = linprog(c, A_ub=-A, b_ub=-b, A_eq=E if E.size else None,
                  b_eq=f if E.size else None, bounds=list(zip(lower, upper)),
                  method="highs", options={"presolve": False})
    return HIGHS_STATUS[res.status], res.fun


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
        # Large finite bounds: infinite bounds replaced by +-1e8, and the
        # whole problem translated by up to 1e8 in each variable.
        far = (b, f, np.where(np.isfinite(lower), lower, -1e8),
               np.where(np.isfinite(upper), upper, 1e8))
        u = rng.uniform(-1e8, 1e8, size=c.size)
        moved = (b + A @ u, f + E @ u, lower + u, upper + u)
        for b_, f_, lo_, hi_ in (far, moved):
            _check(LPProblem(cost=c, ineq_lhs=A, ineq_rhs=b_, eq_lhs=E, eq_rhs=f_,
                             lower=lo_, upper=hi_), *_highs(c, A, b_, E, f_, lo_, hi_))


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-8, 1e-10, 1e-14])
def test_scaled_infeasible_rows(scale):
    """{x >= 1, x <= 0} with both rows scaled: infeasible at every scale."""
    p = LPProblem(cost=[0.0], ineq_lhs=np.array([[1.0], [-1.0]]) * scale,
                  ineq_rhs=np.array([1.0, 0.0]) * scale)
    rep = solve_lp(p)
    assert rep.status == "infeasible"
    assert verify_farkas(p, rep.farkas)


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
        strict = solve_lp(p, Tolerances(lp_feas=1e-300))
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


def _box_lp(n, seed):
    """The box LP family of the simplex benchmark: 2n random rows a x >= b
    with a strictly feasible point, and the box [-1, 1]^n."""
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
