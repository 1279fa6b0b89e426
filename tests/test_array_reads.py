"""Every public entry reads its vectors through as_vector and its arrays
through as_matrix: a nan or infinite entry, or a wrong width where the width
is fixed, is refused with a message that names the input."""
import math
import re

import numpy as np
import pytest

from conegen.cones import DimensionMismatch, PolyhedralCone, coordinate_cone
from conegen.duality import (BoxProgram, VectorObjective, check_modified_slater,
                             duality_gap_report, stationarity_certificate)
from conegen.gauge import GaugeBody, ambient_comparison, ambient_norm
from conegen.lattice import (convex_hull_2d, hausdorff_distance, hausdorff_distance_definitional,
                             support_values, verify_order_isometry)
from conegen.numkernel import SHORT, LPProblem, as_matrix, as_vector
from conegen.penalty import (PenaltyInstance, cone_lipschitz_rank, cone_minimal_points,
                             distance_to_set)
from conegen.scalarization import GerstewitzFn

WEDGE = PolyhedralCone(2, generators=[[1.0, 0.0], [1.0, 1.0]])
U = [2.0, 1.0]
SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
PTS, VALS = [[0.0], [1.0], [2.0]], [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]


def box_program(**given):
    data = dict(n=2, Q=np.eye(2), q=[1.0, -1.0], c=0.0, x_lo=[-1.0, -1.0], x_hi=[1.0, 1.0],
                G=[[1.0, 1.0]], g0=[-0.5], cone_y=coordinate_cone(1),
                H=[[1.0, -1.0]], h0=[0.0])
    return BoxProgram(**{**data, **given})


def penalty_instance(**given):
    data = dict(points=PTS, feasible_mask=[True, True, False], objective=None, cone=WEDGE,
                e=np.array(U) / math.hypot(*U), rank=None, values=VALS)
    return PenaltyInstance(**{**data, **given})


def objective(**given):
    return VectorObjective(**{**dict(lins=[[1.0, 0.0], [0.0, 1.0]], consts=[0.0, 0.0]),
                              **given})


def certificate(**given):
    data = dict(e=[0.5, 0.5], x_bar=[0.0, 0.0], x_lo=[-1.0, -1.0], x_hi=[1.0, 1.0])
    return stationarity_certificate(objective(), coordinate_cone(2), **{**data, **given})


# name: (the name the message gives, a good input, the call on an input,
# whether the input's width is fixed)
ENTRIES = {
    "as_vector": ("v", [1.0, 2.0], lambda a: as_vector(a, 2, "v"), True),
    "as_matrix": ("M", [[1.0, 2.0]], lambda a: as_matrix(a, 2, "M"), True),
    "cone.halfspaces": ("halfspaces", [[1.0, 0.0], [0.0, 1.0]],
                        lambda a: PolyhedralCone(2, halfspaces=a), True),
    "cone.generators": ("generators", [[1.0, 0.0], [1.0, 1.0]],
                        lambda a: PolyhedralCone(2, generators=a), True),
    "cone.contains": ("point", [1.0, 0.5], WEDGE.contains, True),
    "cone.order_leq.x": ("x", [1.0, 0.5], lambda a: WEDGE.order_leq(a, [2.0, 1.0]), True),
    "cone.order_leq.y": ("y", [1.0, 0.5], lambda a: WEDGE.order_leq([0.0, 0.0], a), True),
    "cone.interior_contains": ("point", [1.0, 0.5], WEDGE.interior_contains, True),
    "cone.is_strictly_positive": ("functional", [1.0, 0.5], WEDGE.is_strictly_positive, True),
    "GaugeBody.u": ("generating element", U, lambda a: GaugeBody(WEDGE, a), True),
    "gauge": ("point", [1.0, 0.5], GaugeBody(WEDGE, U).gauge, True),
    "gauge_many": ("points", [[1.0, 0.5], [0.0, 1.0]], GaugeBody(WEDGE, U).gauge_many, True),
    "isometry_image": ("point", [1.0, 0.5], GaugeBody(WEDGE, U).isometry_image, True),
    "ambient_comparison": ("points", [[1.0, 0.5]],
                           lambda a: ambient_comparison(GaugeBody(WEDGE, U), a), True),
    "ambient_norm": ("point", [3.0, 4.0], ambient_norm, False),
    "ambient_norm.weights": ("weights", [1.0, 2.0],
                             lambda a: ambient_norm([3.0, 4.0], weights=a), True),
    "GerstewitzFn.e": ("direction e", U, lambda a: GerstewitzFn(WEDGE, a), True),
    "Subdifferential.contains": ("functional", [0.5, 0.5],
                                 lambda a: GerstewitzFn(WEDGE, U).subdifferential(
                                     [1.0, 0.5]).contains(a), True),
    "value": ("point", [1.0, 0.5], GerstewitzFn(WEDGE, U).value, True),
    "value_many": ("points", [[1.0, 0.5], [0.0, 1.0]], GerstewitzFn(WEDGE, U).value_many, True),
    "sublevel": ("point", [1.0, 0.5], lambda a: GerstewitzFn(WEDGE, U).sublevel(a, 1.0), True),
    "subdifferential": ("point", [1.0, 0.5], GerstewitzFn(WEDGE, U).subdifferential, True),
    "directional_derivative": ("direction", [1.0, 0.5],
                               lambda a: GerstewitzFn(WEDGE, U).directional_derivative(
                                   [1.0, 0.5], a), True),
    "support_values.direction": ("directions", [1.0, 0.0],
                                 lambda a: support_values(SQUARE, [a])[0], True),
    "support_values.vertices": ("vertices", SQUARE,
                                lambda a: support_values(a, [[1.0, 0.0]]), False),
    "support_values.directions": ("directions", [[1.0, 0.0], [0.0, 1.0]],
                                  lambda a: support_values(SQUARE, a), True),
    "convex_hull_2d": ("points", [[0.0, 0.0], [1.0, 0.0], [2.0, 3.0]], convex_hull_2d, True),
    "hausdorff_distance": ("vertices", SQUARE, lambda a: hausdorff_distance(a, SQUARE), False),
    "hausdorff_distance.b": ("vertices", SQUARE, lambda a: hausdorff_distance(SQUARE, a),
                             False),
    "hausdorff_distance_definitional": ("vertices", SQUARE,
                                        lambda a: hausdorff_distance_definitional(SQUARE, a),
                                        False),
    "verify_order_isometry": ("vertices", SQUARE,
                              lambda a: verify_order_isometry(a, SQUARE), False),
    "distance_to_set.x": ("point", [0.5, 0.5], lambda a: distance_to_set(a, SQUARE), False),
    "distance_to_set.omega": ("omega", SQUARE, lambda a: distance_to_set([0.5, 0.5], a), True),
    "cone_lipschitz_rank.points": ("points", PTS,
                                   lambda a: cone_lipschitz_rank(a, VALS, WEDGE, U), False),
    "cone_lipschitz_rank.values": ("values", VALS,
                                   lambda a: cone_lipschitz_rank(PTS, a, WEDGE, U), True),
    "cone_lipschitz_rank.e": ("direction e", U,
                              lambda a: cone_lipschitz_rank(PTS, VALS, WEDGE, a), True),
    "PenaltyInstance.points": ("points", PTS, lambda a: penalty_instance(points=a), False),
    "PenaltyInstance.values": ("values", VALS, lambda a: penalty_instance(values=a), True),
    "PenaltyInstance.e": ("e", [0.8, 0.6], lambda a: penalty_instance(e=a), True),
    "PenaltyInstance.objective": ("f(x)", [0.0, 1.0],
                                  lambda a: penalty_instance(objective=lambda x: a, values=None),
                                  True),
    "cone_minimal_points": ("values", VALS, lambda a: cone_minimal_points(a, WEDGE), True),
    "BoxProgram.Q": ("Q", np.eye(2), lambda a: box_program(Q=a), True),
    "BoxProgram.q": ("q", [1.0, -1.0], lambda a: box_program(q=a), True),
    "BoxProgram.c": ("c", 0.0, lambda a: box_program(c=a), True),
    "BoxProgram.x_lo": ("x_a", [-1.0, -1.0], lambda a: box_program(x_lo=a), True),
    "BoxProgram.x_hi": ("x_b", [1.0, 1.0], lambda a: box_program(x_hi=a), True),
    "BoxProgram.G": ("G", [[1.0, 1.0]], lambda a: box_program(G=a), True),
    "BoxProgram.g0": ("g0", [-0.5], lambda a: box_program(g0=a), True),
    "BoxProgram.H": ("H", [[1.0, -1.0]], lambda a: box_program(H=a), True),
    "BoxProgram.h0": ("h0", [0.0], lambda a: box_program(h0=a), True),
    "BoxProgram.objective": ("x", [0.0, 0.0], lambda a: box_program().objective(a), True),
    "BoxProgram.feasible": ("x", [0.0, 0.0], lambda a: box_program().feasible(a), True),
    "check_modified_slater": ("e", [1.0], lambda a: check_modified_slater(box_program(), a),
                              True),
    "duality_gap_report": ("e", [1.0], lambda a: duality_gap_report(box_program(), a), True),
    "VectorObjective.lins": ("lins", [[1.0, 0.0], [0.0, 1.0]],
                             lambda a: objective(lins=a), False),
    "VectorObjective.consts": ("constants", [0.0, 0.0], lambda a: objective(consts=a), True),
    "stationarity_certificate.e": ("e", [0.5, 0.5], lambda a: certificate(e=a), True),
    "stationarity_certificate.x_bar": ("x_bar", [0.0, 0.0], lambda a: certificate(x_bar=a),
                                       True),
    "stationarity_certificate.x_lo": ("x_a", [-1.0, -1.0], lambda a: certificate(x_lo=a), True),
    "stationarity_certificate.x_hi": ("x_b", [1.0, 1.0], lambda a: certificate(x_hi=a), True),
    "LPProblem.cost": ("cost", [1.0, 1.0], lambda a: LPProblem(cost=a), False),
    "LPProblem.ineq_lhs": ("inequality rows", [[1.0, 1.0]],
                           lambda a: LPProblem(cost=[1.0, 1.0], ineq_lhs=a, ineq_rhs=[1.0]),
                           True),
    "LPProblem.ineq_rhs": ("inequality rhs", [1.0],
                           lambda a: LPProblem(cost=[1.0, 1.0], ineq_lhs=[[1.0, 1.0]],
                                               ineq_rhs=a), True),
    "LPProblem.eq_lhs": ("equality rows", [[1.0, 1.0]],
                         lambda a: LPProblem(cost=[1.0, 1.0], eq_lhs=a, eq_rhs=[1.0]), True),
    "LPProblem.eq_rhs": ("equality rhs", [1.0],
                         lambda a: LPProblem(cost=[1.0, 1.0], eq_lhs=[[1.0, 1.0]], eq_rhs=a),
                         True),
    "LPProblem.lower": ("lower bound", [0.0, 0.0],
                        lambda a: LPProblem(cost=[1.0, 1.0], lower=a), True),
    "LPProblem.upper": ("upper bound", [1.0, 1.0],
                        lambda a: LPProblem(cost=[-1.0, 1.0], upper=a), True),
}
# a bound may be at its own infinity (no bound), so only nan is refused there;
# the other infinity is refused in test_refusals.py
INFINITE_READ = {"LPProblem.lower": -math.inf, "LPProblem.upper": math.inf}


def _bad(good, how):
    """good with a nan first entry, an inf last entry, or one more column."""
    arr = np.array(good, dtype=float)
    if how == "width":
        return np.concatenate([arr, np.ones(arr.shape[:-1] + (1,))], axis=-1) if arr.ndim \
            else np.ones(2)
    arr.flat[0 if how == "nan" else -1] = math.nan if how == "nan" else -math.inf
    return arr


CASES = [(entry, how) for entry in sorted(ENTRIES)
         for how in ("nan", "inf") + ("width",) * ENTRIES[entry][3]]


@pytest.mark.parametrize("entry,how", CASES)
def test_every_public_array_read_refuses_a_bad_input_by_name(entry, how):
    name, good, call, _ = ENTRIES[entry]
    call(good)   # the good input is read
    if how == "width":
        with pytest.raises(DimensionMismatch,
                           match=rf"^{re.escape(name)} ha(s|ve) dimension \d+, expected"):
            call(_bad(good, how))
    elif entry in INFINITE_READ:
        if how == "inf":
            unbounded = np.array(good, dtype=float)
            unbounded[-1] = INFINITE_READ[entry]
            call(unbounded)
        else:
            with pytest.raises(ValueError, match=rf"^{re.escape(name)} must have no nan entries$"):
                call(_bad(good, how))
    else:
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must have finite entries$"):
            call(_bad(good, how))


@pytest.mark.parametrize("n", [2, SHORT, SHORT + 2, 40])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_as_matrix_refuses_non_finite_entries_at_every_size(n, bad):
    # as_vector's own test is in test_point_eval.py
    X = np.zeros((n // 2, 2))
    X.flat[n // 2] = bad
    with pytest.raises(ValueError, match="^V must have finite entries$"):
        as_matrix(X, 2, "V")


def test_finite_entries_whose_sum_overflows_are_read():
    # the short test sums the entries first, and reads each one when the
    # sum is not finite
    x = np.array([1e308, 1e308, -1e308, math.nextafter(math.inf, 0.0)])
    assert as_vector(x) is x
    assert as_matrix(x.reshape(2, 2)).tolist() == x.reshape(2, 2).tolist()


def test_as_matrix_lifts_a_vector_to_one_row_and_refuses_three_axes():
    assert as_matrix([1.0, 2.0]).shape == (1, 2)
    assert as_matrix(3.0).shape == (1, 1)
    X = np.ones((2, 3))
    assert as_matrix(X) is X   # a float array is read in place, as as_vector reads it
    with pytest.raises(ValueError, match="^M must be two-dimensional"):
        as_matrix(np.ones((2, 2, 2)), name="M")


# Calls that the earlier ad hoc reads answered with nan, inf or a wrong
# answer, or refused with a message that names no input.
DEFECTS = {
    "gauge_many": lambda: GaugeBody(coordinate_cone(2), [1.0, 1.0]).gauge_many(
        [[math.nan, 1.0], [1.0, 2.0]]),
    "value_many": lambda: GerstewitzFn(coordinate_cone(2), [1.0, 1.0]).value_many(
        [[math.inf, 1.0]]),
    "convex_hull_2d nan": lambda: convex_hull_2d([[0.0, 0.0], [1.0, math.nan], [2.0, 3.0]]),
    "convex_hull_2d inf": lambda: convex_hull_2d([[0.0, 0.0], [1.0, math.inf], [2.0, 3.0]]),
    "support_values": lambda: support_values([[0.0, math.nan]], [[1.0, 0.0]]),
    "support_values direction": lambda: support_values([[0.0, 0.0]], [[math.nan, 1.0]])[0],
    "generators": lambda: PolyhedralCone(2, generators=[[1.0, math.nan], [0.0, 1.0]]),
    "G of 3 columns": lambda: box_program(G=[[1.0, 1.0, 1.0]]),
    "Q with nan": lambda: box_program(Q=[[1.0, math.nan], [math.nan, 1.0]]),
    "c nan": lambda: box_program(c=math.nan),
    "c inf": lambda: box_program(c=math.inf),
    "lins": lambda: VectorObjective(lins=[[math.nan, 1.0]], consts=[0.0]),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_defects_of_the_former_ad_hoc_reads_are_refused(defect):
    with pytest.raises(ValueError, match=r"^\w+ (must have finite entries|have dimension 3)"):
        DEFECTS[defect]()


def test_a_pair_of_points_is_a_point_list_not_a_box():
    # the (lower, upper) box spelling read this pair as the unit square
    for omega in (((0.0, 0.0), (1.0, 1.0)), [[0.0, 0.0], [1.0, 1.0]]):
        d, w = distance_to_set([0.5, 0.5], omega)
        assert d == math.sqrt(0.5) and w.tolist() == [0.0, 0.0]
