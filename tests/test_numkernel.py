import numpy as np
import pytest

from conegen.cones import coordinate_cone
from conegen.duality import BoxProgram, duality_gap_report
from conegen.numkernel import (LPProblem, independent_rows, projected_gradient, solve_lp,
                               verify_farkas)
from lp_oracle import enumerate_polytope_vertices
from penalty_oracle import brute_force_grid_min


def test_lp_basic_min():
    p = LPProblem(cost=[1.0, 1.0], ineq_lhs=[[1.0, 1.0]], ineq_rhs=[1.0],
                  lower=[0.0, 0.0])
    rep = solve_lp(p)
    assert rep.status == "optimal"
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert max(rep.residuals.values()) <= 1e-9


def test_lp_infeasible_farkas():
    p = LPProblem(cost=[0.0], ineq_lhs=[[-1.0]], ineq_rhs=[0.0], lower=[1.0])
    rep = solve_lp(p)
    assert rep.status == "infeasible"
    assert verify_farkas(p, rep.farkas)


@pytest.mark.filterwarnings("error")
def test_an_lp_with_no_variables():
    # no columns: the simplex loop returns at once
    rep = solve_lp(LPProblem(cost=np.zeros(0)))
    assert rep.status == "optimal" and rep.value == 0.0
    p = LPProblem(cost=np.zeros(0), ineq_lhs=np.zeros((1, 0)), ineq_rhs=[1.0])   # 0 >= 1
    rep = solve_lp(p)
    assert rep.status == "infeasible"
    assert verify_farkas(p, rep.farkas)


@pytest.mark.filterwarnings("error")
def test_all_zero_rows_keep_none():
    assert independent_rows(np.zeros((2, 3))).size == 0
    # a zero H of two rows: Hx + h0 = 0 holds everywhere, and no row is kept
    prog = BoxProgram(n=2, Q=np.eye(2), q=[1.0, -1.0], c=0.0, x_lo=[-1.0, -1.0],
                      x_hi=[1.0, 1.0], H=np.zeros((2, 2)), h0=np.zeros(2))
    rep = duality_gap_report(prog)
    assert rep.slater.h_neighborhood is False and rep.primal_status == "optimal"


@pytest.mark.parametrize("excess, status", [(1e-11, "optimal"), (1e-6, "infeasible")])
def test_lp_ratio_test_last_breakpoint(excess, status):
    # min x1 + 2 x2 s.t. x1 + x2 >= 2 + excess, 0 <= x <= 1: the row leaves,
    # x1 flips at the first breakpoint, and x2 is the last eligible column.
    # With both at their upper bounds the row is still short by excess:
    # within its threshold at 1e-11, so x2 enters; beyond it at 1e-6, so the
    # row proves the LP infeasible
    p = LPProblem(cost=[1.0, 2.0], ineq_lhs=[[1.0, 1.0]], ineq_rhs=[2.0 + excess],
                  lower=[0.0, 0.0], upper=[1.0, 1.0])
    rep = solve_lp(p)
    assert rep.status == status
    if status == "optimal":
        assert rep.iterations == 1
        assert rep.point.tolist() == [1.0, 1.0] and rep.value == 3.0
    else:
        assert verify_farkas(p, rep.farkas)


def test_lp_unbounded():
    p = LPProblem(cost=[-1.0], lower=[0.0])
    assert solve_lp(p).status == "unbounded"


def test_lp_free_variable_equality():
    p = LPProblem(cost=[1.0, 0.0], eq_lhs=[[1.0, 1.0]], eq_rhs=[2.0])
    rep = solve_lp(p)
    assert rep.status == "unbounded"  # x1 free below along x1 -> -inf
    p2 = LPProblem(cost=[1.0, 0.0], eq_lhs=[[1.0, 1.0]], eq_rhs=[2.0],
                   lower=[-5.0, -np.inf])
    rep2 = solve_lp(p2)
    assert rep2.status == "optimal"
    assert rep2.value == pytest.approx(-5.0, abs=1e-9)


def test_lp_determinism_bitwise():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 4))
    b = -np.abs(rng.normal(size=6))
    c = rng.normal(size=4)
    make = lambda: LPProblem(cost=c.copy(), ineq_lhs=A.copy(), ineq_rhs=b.copy(),
                             lower=-2 * np.ones(4), upper=2 * np.ones(4))
    r1, r2 = solve_lp(make()), solve_lp(make())
    assert r1.point.tobytes() == r2.point.tobytes()
    assert r1.value == r2.value and r1.iterations == r2.iterations


def test_lp_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(100):
        A = rng.normal(size=(4, 2))
        b = -np.abs(rng.normal(size=4))
        c = rng.normal(size=2)
        p = LPProblem(cost=c, ineq_lhs=A, ineq_rhs=b,
                      lower=-2 * np.ones(2), upper=2 * np.ones(2))
        rep = solve_lp(p)
        assert rep.status == "optimal"
        A_full = np.vstack([A, np.eye(2), -np.eye(2)])
        b_full = np.concatenate([b, -2 * np.ones(2), -2 * np.ones(2)])
        verts = enumerate_polytope_vertices(A_full, b_full)
        assert rep.value == pytest.approx(float(np.min(verts @ c)), abs=1e-9)


def test_projected_gradient_quadratic_on_box():
    n = 4
    rep = projected_gradient(lambda x: x,
                             lambda x: np.clip(x, np.ones(n), 2 * np.ones(n)),
                             x0=1.7 * np.ones(n), step=1.0,
                             objective=lambda x: 0.5 * float(x @ x))
    assert rep.status == "optimal"
    assert np.allclose(rep.point, np.ones(n), atol=1e-7)


def test_projected_gradient_linear_hits_vertex():
    c = np.array([1.0, -2.0])
    rep = projected_gradient(lambda x: c,
                             lambda x: np.clip(x, np.zeros(2), np.ones(2)),
                             x0=np.array([0.5, 0.5]), step=0.5,
                             objective=lambda x: float(c @ x))
    assert rep.status == "optimal"
    assert np.allclose(rep.point, [0.0, 1.0], atol=1e-7)


def test_projected_gradient_matches_kkt():
    # min 0.5 x'Qx + q'x on [0, 2]^2; hand KKT: unconstrained (-Q^-1 q) is
    # outside, optimum clamps x2 to 0 with free x1 solving Q11 x1 = -q1.
    Q = np.array([[2.0, 0.0], [0.0, 1.0]])
    q = np.array([-2.0, 1.0])
    rep = projected_gradient(lambda x: Q @ x + q,
                             lambda x: np.clip(x, np.zeros(2), 2 * np.ones(2)),
                             x0=np.ones(2), step=0.5,
                             objective=lambda x: 0.5 * x @ Q @ x + q @ x)
    assert np.allclose(rep.point, [1.0, 0.0], atol=1e-6)


def test_projected_gradient_best_value_monotone():
    Q = np.array([[4.0, 1.0], [1.0, 2.0]])
    vals = []
    obj = lambda x: 0.5 * x @ Q @ x

    def tracking_obj(x):
        v = obj(x)
        vals.append(v)
        return v

    projected_gradient(lambda x: Q @ x,
                       lambda x: np.clip(x, -np.ones(2), np.ones(2)),
                       x0=np.array([1.0, -1.0]), step=0.2, objective=tracking_obj)
    best = np.minimum.accumulate(vals)
    assert np.all(np.diff(best) <= 1e-15)


def test_brute_force_grid_matches_penalty_examples():
    cone = coordinate_cone(2)
    pts = np.array([[0.0], [1.0], [2.0]])
    table = {0.0: [0, 1], 1.0: [1, 0], 2.0: [1, 1]}
    idx, _, _ = brute_force_grid_min(lambda p: np.array(table[p[0]]), pts, cone)
    assert set(idx) == {0, 1}
    idx2, _, _ = brute_force_grid_min(lambda p: np.array([1.0, 1.0]), pts, cone)
    assert set(idx2) == {0, 1, 2}
    idx3, _, _ = brute_force_grid_min(lambda p: np.array([p[0]]), [[0.5]],
                                      coordinate_cone(1))
    assert set(idx3) == {0}


def test_brute_force_axes_product():
    cone = coordinate_cone(1)
    idx, pts, vals = brute_force_grid_min(
        lambda p: np.array([abs(p[0]) + abs(p[1])]),
        [np.linspace(-1, 1, 5), np.linspace(-1, 1, 5)], cone)
    assert pts.shape[1] == 2
    assert np.allclose(pts[0], [0.0, 0.0])


def test_brute_force_empty_grid_rejected():
    with pytest.raises(ValueError):
        brute_force_grid_min(lambda p: p, np.zeros((0, 2)), coordinate_cone(2))
