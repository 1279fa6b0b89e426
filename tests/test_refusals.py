"""Every refusal of a public entry that reads a well-formed array but an
inconsistent input: each raises its own message. (Arrays with nan, infinite
or wrong-width entries are in test_array_reads.py, problem files in
test_cli.py.)"""
import math
import re

import numpy as np
import pytest

from conegen.cones import DimensionMismatch, InvalidCone, PolyhedralCone, coordinate_cone
from conegen.duality import BoxProgram, VectorObjective, check_modified_slater
from conegen.lattice import support_values
from conegen.numkernel import LPProblem
from conegen.penalty import (PenaltyInstance, cone_lipschitz_rank, cone_minimal_points,
                             verify_penalty_equivalence)

PTS, VALS = [[0.0], [1.0], [2.0]], [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]
E = [math.sqrt(0.5), math.sqrt(0.5)]


def box(**given):
    return BoxProgram(**{**dict(n=2, Q=None, q=[1.0, -1.0], c=0.0, x_lo=[-1.0, -1.0],
                                x_hi=[1.0, 1.0]), **given})


def penalty_instance(**given):
    return PenaltyInstance(**{**dict(points=PTS, feasible_mask=[True, True, False],
                                     objective=None, cone=coordinate_cone(2), e=E,
                                     rank=None, values=VALS), **given})


# name: (the call, the exception, its whole message)
REFUSALS = {
    "cone.zero_row": (lambda: PolyhedralCone(2, halfspaces=[[1.0, 0.0], [0.0, 0.0]]),
                      InvalidCone, "zero row in cone description"),
    "cone.dimension": (lambda: PolyhedralCone(0, kind="coordinate"), InvalidCone,
                       "cone dimension must be positive"),
    "cone.no_description": (lambda: PolyhedralCone(2), InvalidCone,
                            "a general cone needs halfspaces or generators"),
    "cone.halfspace_values.width": (lambda: coordinate_cone(2).halfspace_values(np.ones(3)),
                                    DimensionMismatch, "points have dimension 3, expected 2"),
    "BoxProgram.Q.shape": (lambda: box(Q=np.ones((3, 2))), ValueError, "Q has wrong shape"),
    "BoxProgram.Q.symmetric": (lambda: box(Q=[[1.0, 1.0], [0.0, 1.0]]), ValueError,
                               "Q must be symmetric"),
    # x_b - x_a overflows here; the width is the box lift's generating element
    "BoxProgram.width.infinite": (lambda: box(x_lo=[-1.7e308, -1.0], x_hi=[1.7e308, 1.0]),
                                  ValueError, "box must have x_b - x_a a finite float"),
    "BoxProgram.width.largest": (lambda: box(x_lo=[-1.0, -math.ldexp(1.0, 1023)],
                                             x_hi=[1.0, math.ldexp(1.0, 1023)]),
                                 ValueError, "box must have x_b - x_a a finite float"),
    "BoxProgram.cone_y.missing": (lambda: box(G=[[1.0, 1.0]], g0=[-0.5]), ValueError,
                                  "constraint cone missing or of wrong dimension"),
    "BoxProgram.cone_y.dim": (lambda: box(G=[[1.0, 1.0]], g0=[-0.5],
                                          cone_y=coordinate_cone(2)),
                              ValueError, "constraint cone missing or of wrong dimension"),
    "check_modified_slater.e": (lambda: check_modified_slater(
        box(G=[[1.0, 1.0]], g0=[-0.5], cone_y=coordinate_cone(1)), [-1.0]),
        ValueError, "e must be interior to the constraint cone"),
    "VectorObjective.quads": (lambda: VectorObjective(lins=np.eye(2), consts=[0.0, 0.0],
                                                      quads=[np.eye(2)]),
                              ValueError, "one quadratic form per component required"),
    "LPProblem.bounds": (lambda: LPProblem(cost=[1.0, 1.0], lower=[1.0, 0.0],
                                           upper=[0.0, 1.0]),
                         ValueError, "lower bound exceeds upper bound"),
    "LPProblem.lower.ndim": (lambda: LPProblem(cost=[1.0, 1.0], lower=[[0.0, 0.0]]),
                             ValueError, "lower bound must be one-dimensional, got shape (1, 2)"),
    # a bound at the other infinity bounds nothing; unrefused, its solve read x = +-inf
    "LPProblem.lower.+inf": (lambda: LPProblem(cost=[1.0], ineq_lhs=[[1.0]], ineq_rhs=[0.0],
                                               lower=[math.inf], upper=[math.inf]),
                             ValueError, "lower bound must have no +inf entries"),
    "LPProblem.upper.-inf": (lambda: LPProblem(cost=[1.0], ineq_lhs=[[1.0]], ineq_rhs=[0.0],
                                               upper=[-math.inf]),
                             ValueError, "upper bound must have no -inf entries"),
    "cone_lipschitz_rank.count": (lambda: cone_lipschitz_rank(PTS[:2], VALS, coordinate_cone(2),
                                                              E),
                                  ValueError, "need matching points/values with at least one pair"),
    "cone_lipschitz_rank.one_point": (lambda: cone_lipschitz_rank(PTS[:1], VALS[:1],
                                                                  coordinate_cone(2), E),
                                      ValueError,
                                      "need matching points/values with at least one pair"),
    "PenaltyInstance.no_values": (lambda: penalty_instance(values=None), ValueError,
                                  "need objective or precomputed values"),
    "PenaltyInstance.feasible_mask": (lambda: penalty_instance(feasible_mask=[True, False]),
                                      ValueError, "feasible mask length mismatch"),
    # nan would make every value nan, and inf makes 0 * inf = nan on Omega
    "penalized_values.nan": (lambda: penalty_instance().penalized_values(math.nan),
                             ValueError, "penalty weight L=nan must be finite"),
    "penalized_values.inf": (lambda: penalty_instance().penalized_values(math.inf),
                             ValueError, "penalty weight L=inf must be finite"),
    "penalized_values.-inf": (lambda: penalty_instance().penalized_values(-math.inf),
                              ValueError, "penalty weight L=-inf must be finite"),
    "penalized_values.negative": (lambda: penalty_instance().penalized_values(-1.0),
                                  ValueError, "penalty weight must be nonnegative"),
    "cone_minimal_points.empty": (lambda: cone_minimal_points(np.zeros((0, 2)),
                                                              coordinate_cone(2)),
                                  ValueError, "empty value list"),
    "support_values.empty": (lambda: support_values(np.zeros((0, 2)), [[1.0, 0.0]]),
                             ValueError, "empty polytope"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refused_with_its_message(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_box_feasibility_reads_the_bounds_and_the_cone_rows():
    # x1 + x2 - 0.5 <= 0 on [-1, 1]^2
    prog = box(G=[[1.0, 1.0]], g0=[-0.5], cone_y=coordinate_cone(1))
    assert prog.feasible([0.0, 0.0])
    assert not prog.feasible([-1.5, 0.0])    # below a lower bound
    assert not prog.feasible([0.0, 1.5])     # above an upper bound
    assert not prog.feasible([0.5, 0.5])     # in the box, outside the cone row


def f(x):
    return np.array([x[0] ** 2, abs(x[0] - 1.0)])


def test_an_objective_gives_the_report_of_its_values():
    # the values read from f at construction and the values given give one report
    points = np.linspace(-1.0, 2.0, 7).reshape(-1, 1)
    mask = points[:, 0] >= 0.5
    given = penalty_instance(points=points, feasible_mask=mask,
                             values=np.array([f(x) for x in points]))
    read = penalty_instance(points=points, feasible_mask=mask, objective=f, values=None)
    np.testing.assert_array_equal(read.values, given.values)
    assert read.rank == given.rank
    L = 2.0 * given.rank
    assert verify_penalty_equivalence(read, L).to_dict() == \
        verify_penalty_equivalence(given, L).to_dict()
