"""Each side of a tolerance threshold that no other test moves, read just
inside or just outside it.

Every case sits a factor of 10 from its field's default on one side, so
moving the field by x1e3 (for an outside case) or x1e-3 (for an inside one)
flips it. Four thresholds are derived rather than set, and their cases sit
a factor of 10 from the derived bound: a multiplier's sign in the active-set
QP (rounding of the gradient's terms), the penalty weight's margin over the
rank (rounding of the rank), the duality gap (kkt times its terms' size) and
a row's positivity in the interior test (rounding of the row's product).
The gap and `isometry` gate a gap that correct code keeps at rounding
level, so their cases inject the gap into the value the gate reads.
"""
import numpy as np
import pytest

import conegen.duality as duality
import conegen.lattice as lattice
from conegen.cones import ROUNDING, coordinate_cone
from conegen.duality import (BoxProgram, VectorObjective, duality_gap_report, solve_primal,
                             stationarity_certificate)
from conegen.lattice import verify_order_isometry
from conegen.numkernel import FarkasCertificate, LPProblem, solve_lp, verify_farkas
from conegen.penalty import PenaltyInstance, PreconditionViolation, verify_penalty_equivalence

INSIDE, OUTSIDE = 0.1, 10.0   # the case's distance from 0 in units of the threshold


@pytest.mark.parametrize("where", [INSIDE, OUTSIDE])
def test_farkas_leftover_on_a_free_variable(where):
    # x >= 1 and x <= 0, x free: y = (1, 1 + eta) leaves combo = -eta on x,
    # against farkas times its terms' size 2 + eta
    lp = LPProblem(cost=[0.0], ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[1.0, 0.0])
    eta = 2.0 * where * 1e-7
    cert = FarkasCertificate(y_ineq=np.array([1.0, 1.0 + eta]), y_eq=np.zeros(0),
                             y_lower=np.zeros(1), y_upper=np.zeros(1))
    assert verify_farkas(lp, cert) is (where == INSIDE)


def _corner_qp(d):
    # min 0.5 x'Qx + q'x on [0, 1] x [0, 4]: the QP ends at the corner
    # (0, 4), where df/dx1 = -d; the box optimum is (~d, 4). The bound's
    # multiplier -d is negative below -ROUNDING * n times the gradient's
    # scale max(||Q||_F * 4, ||q||_inf) = 1200, and a released bound's step
    # d clears the zero-step threshold qp_step * 4 at the outside case
    return BoxProgram(n=2, Q=[[1.0, 0.3], [0.3, 1.0]], q=[-1.2 - d, -1200.0], c=0.0,
                      x_lo=[0.0, 0.0], x_hi=[1.0, 4.0])


@pytest.mark.parametrize("where", [INSIDE, OUTSIDE])
def test_sign_of_a_bound_multiplier_at_its_rounding(where):
    res = solve_primal(_corner_qp(where * ROUNDING * 2 * 1200.0))
    assert res.status == "optimal" and res.x[1] == 4.0
    assert bool(res.x[0] == 0.0) is (where == INSIDE)   # the bound is kept or released


def _line_instance(e, rank):
    # |x| on a grid of [-2, 2]: its measured rank is 1
    grid = np.arange(-2.0, 2.25, 0.25).reshape(-1, 1)
    return PenaltyInstance(points=grid, feasible_mask=grid[:, 0] >= 1.0, objective=None,
                           cone=coordinate_cone(1), e=e, rank=rank, values=np.abs(grid))


@pytest.mark.parametrize("where", [INSIDE, OUTSIDE])
def test_unit_norm_of_e(where):
    e = [1.0 + where * 1e-9]
    if where == INSIDE:
        assert _line_instance(e, 1.0).rank == 1.0
    else:
        with pytest.raises(ValueError, match="unit ambient norm"):
            _line_instance(e, 1.0)


@pytest.mark.parametrize("where", [INSIDE, OUTSIDE])
def test_kkt_slack_of_a_declared_rank(where):
    # the measured rank 1 may exceed a declared one by kkt = 1e-6 times it
    declared = 1.0 / (1.0 + where * 1e-6)
    if where == INSIDE:
        assert _line_instance([1.0], declared).rank == declared
    else:
        with pytest.raises(ValueError, match="violates the Lipschitz inequality"):
            _line_instance([1.0], declared)


@pytest.mark.parametrize("where", [INSIDE, OUTSIDE])
def test_gap_under_slater_at_kkt_times_its_terms(monkeypatch, where):
    # a Slater program, min 3x on [2, 4] with x - 5 <= 0: its largest term is
    # q'x = <x1*, x_a> = 6, and its dual value is moved down by where * kkt * 6
    prog = BoxProgram(n=1, Q=None, q=[3.0], c=0.0, x_lo=[2.0], x_hi=[4.0],
                      G=[[1.0]], g0=[-5.0], cone_y=coordinate_cone(1))
    exact = duality._dual_terms

    def lowered(prog, mult):
        value, size = exact(prog, mult)
        assert size == 6.0
        return value - where * 1e-6 * size, size

    monkeypatch.setattr(duality, "_dual_terms", lowered)
    rep = duality_gap_report(prog, [1.0])
    assert rep.gap_asserted and rep.gap == pytest.approx(where * 6e-6, rel=1e-6)
    assert rep.gap_ok is (where == INSIDE)


@pytest.mark.parametrize("where", [INSIDE, OUTSIDE])
def test_isometry_gap(monkeypatch, where):
    # two points at distance 1 and coordinates up to 1: the definitional
    # distance is moved by where * isometry times that bound
    exact = lattice._enlargement_2d
    monkeypatch.setattr(lattice, "_enlargement_2d",
                        lambda a, b: exact(a, b) * (1.0 + where * 1e-9))
    rep = verify_order_isometry([[0.0, 0.0]], [[1.0, 0.0]])
    assert rep["support_route"] == 1.0
    assert rep["isometry_holds"] is (where == INSIDE)


@pytest.mark.parametrize("where", [INSIDE, OUTSIDE])
def test_penalty_weight_above_the_rank_by_its_rounding(where):
    # L must exceed the rank 1 by more than ROUNDING * dim of it
    inst = _line_instance([1.0], None)
    L = inst.rank * (1.0 + where * ROUNDING * inst.cone.dim)
    if where == INSIDE:
        with pytest.raises(PreconditionViolation):
            verify_penalty_equivalence(inst, L)
    else:
        assert verify_penalty_equivalence(inst, L).L == L


@pytest.mark.parametrize("where", [INSIDE, OUTSIDE])
def test_interior_above_the_rounding_of_a_row(where):
    # (1, t) is interior to R^2_+ when t exceeds its row's rounding,
    # ROUNDING * dim * max|x| = ROUNDING * 2
    t = where * ROUNDING * 2
    assert coordinate_cone(2).interior_contains([1.0, t]) is (where == OUTSIDE)


# --- the side that the rest of the suite leaves untested -----------------------

def test_membership_accepts_a_point_just_outside_the_cone():
    assert coordinate_cone(2).contains([1.0, -1e-10])


def test_kkt_reads_a_small_gradient_as_nonzero():
    # f(x) = 1e-5 x at an inner point of [0, 1]: no multiplier satisfies the
    # Fermat rule; a gradient within kkt would vanish and be certified
    cert = stationarity_certificate(VectorObjective(lins=[[1e-5]], consts=[0.0]),
                                    coordinate_cone(1), [1.0], [0.5], [0.0], [1.0])
    assert cert.to_dict()["certified"] is False


def test_qp_curv_refuses_a_small_negative_eigenvalue():
    with pytest.raises(ValueError, match="positive semidefinite"):
        BoxProgram(n=2, Q=[[1.0, 0.0], [0.0, -1e-9]], q=[0.0, 0.0], c=0.0,
                   x_lo=[0.0, 0.0], x_hi=[1.0, 1.0])


def test_lp_pivot_takes_a_small_improving_reduced_cost():
    # min -x1 - (1 + 1e-10) x2 on x1 + x2 = 1, x >= 0: x2's reduced cost
    # -1e-10 is improving beyond lp_pivot
    lp = LPProblem(cost=[-1.0, -1.0 - 1e-10], eq_lhs=[[1.0, 1.0]], eq_rhs=[1.0],
                   lower=[0.0, 0.0])
    assert solve_lp(lp).point.tolist() == [0.0, 1.0]
