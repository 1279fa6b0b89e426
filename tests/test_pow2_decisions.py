"""Decisions that a power-of-two scaling of the input cannot move.

Every input of a public decision is scaled by 2^k, with k in [-40, 40], where
the scaled inputs stay exact. A decision whose tolerance is absolute by
contract (membership at T, strict_nonzero, coincident) runs with that
tolerance scaled by the same 2^k under use_tolerances; isometry_holds, the
Slater decision, the gap report's dual-cone gate and the interior decisions
are relative and run with the default tolerances. The interior decisions
are interior_contains, is_strictly_positive, GaugeBody's check on u,
BoxProgram's box width and PenaltyInstance's declared rank, which runs at
kkt times the rank (GaugeBody and PenaltyInstance also read membership,
which is scaled there). The one scaling helper, pow2_shift, and the far
values of the Lipschitz rank and of the cone decisions are tested here too.

Where every read of a row goes through its power of two (numkernel.row_norms
and pow2_rows), the range is the whole exponent range: a description row
scaled on its own by 2^k, the constraint rows of a box QP, and a Hausdorff
pair above the plane give the unscaled bits, or 2^k times them.
"""
import dataclasses
import math

import numpy as np
import pytest

from conegen.config import default_tolerances, use_tolerances
from conegen.cones import PolyhedralCone, coordinate_cone
from conegen.duality import (BoxProgram, check_modified_slater, duality_gap_report,
                              random_box_program, solve_primal)
from conegen.gauge import GaugeBody
from conegen.lattice import hausdorff_distance, verify_order_isometry
from conegen.numkernel import LPProblem, pow2_shift, solve_lp
from conegen.penalty import (PenaltyInstance, cone_lipschitz_rank, cone_minimal_points,
                             verify_penalty_equivalence)
from test_point_eval import GIVEN

K = (-40, -23, -6, 11, 29, 40)
LATTICE_KEYS = ("isometry_holds", "order_preserved", "a_subset_b", "b_subset_a")
PYRAMID = PolyhedralCone(3, generators=[[1.0, 1.0, 1.0], [1.0, -1.0, 1.0],
                                        [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])


def scaled_tolerances(k, *names):
    """The tolerances in force with each named one times 2^k."""
    tols = default_tolerances()
    return use_tolerances(dataclasses.replace(
        tols, **{name: math.ldexp(getattr(tols, name), k) for name in names}))


def cones(rng):
    yield coordinate_cone(3)
    yield PolyhedralCone(2, generators=[[1.0, 0.0], [1.0, 1.0]])
    yield PYRAMID
    yield PolyhedralCone(3, generators=np.eye(3) + 0.25 * rng.uniform(-1.0, 1.0, size=(3, 3)))


def test_pow2_shift_is_the_least_shift_into_the_band():
    assert pow2_shift(0.0, -500, 1000) == 0
    assert pow2_shift(1.0, -500, 1000) == 0
    assert pow2_shift(2.0 ** 1000, -500, 1000) == 1        # frexp exponent 1001
    assert pow2_shift(math.nextafter(2.0 ** 1000, 0.0), -500, 1000) == 0
    assert pow2_shift(1.7e308, -500, 1000) == 24
    assert pow2_shift(2.0 ** -501, -500, 1000) == 0        # frexp exponent -500
    assert pow2_shift(math.nextafter(2.0 ** -501, 0.0), -500, 1000) == -1
    assert pow2_shift(5e-324, -500, 1000) == -573
    assert pow2_shift(-1.7e308, -math.inf, 1000) == 24     # |top| is read
    assert pow2_shift(5e-324, -math.inf, 1000) == 0
    for top in (5e-324, 3e-300, 0.75, 1.0, 6.0, 1.7e308):  # lo = hi = 0: the exponent
        assert pow2_shift(top, 0, 0) == math.frexp(top)[1]
    rng = np.random.default_rng(0)
    for top in 10.0 ** rng.uniform(-320, 308, size=200):
        for lo, hi in ((-500, 1000), (-500, 500), (-math.inf, 1000), (0, 0)):
            s = pow2_shift(float(top), lo, hi)
            assert lo <= math.frexp(math.ldexp(top, -s))[1] <= hi
            inward = s - (s > 0) + (s < 0)   # one step nearer 0 leaves the band
            assert s == 0 or not lo <= math.frexp(math.ldexp(top, -inward))[1] <= hi


def test_membership_and_order_do_not_move():
    rng = np.random.default_rng(11)
    for cone in cones(rng):
        T = default_tolerances().membership
        G, H = cone.generators, cone.halfspaces
        # points on the boundary, within T of it on either side, and at random
        X = [rng.uniform(0.0, 1.0, size=len(G)) * (rng.random(len(G)) < 0.5) @ G
             - t * H[int(rng.integers(len(H)))] for t in (0.0, 0.5 * T, T, 2.0 * T, -T)
             for _ in range(6)] + list(rng.normal(size=(20, cone.dim)))
        base = [cone.contains(x) for x in X]
        order = [cone.order_leq(x, y) for x, y in zip(X, X[1:] + X[:1])]
        # the interior decisions are relative: no tolerance is scaled for them
        inner = [(cone.interior_contains(x), cone.is_strictly_positive(x)) for x in X]
        assert 0 < sum(base) < len(X) and 0 < sum(i for i, _ in inner) < len(X)
        for k in K:
            with scaled_tolerances(k, "membership"):
                Xk = [np.ldexp(x, k) for x in X]
                assert [cone.contains(x) for x in Xk] == base
                assert [cone.order_leq(x, y) for x, y in zip(Xk, Xk[1:] + Xk[:1])] == order
            assert [(cone.interior_contains(x), cone.is_strictly_positive(x))
                    for x in Xk] == inner


def _construct(build, *args):
    """build(*args), or the message it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


def test_gauge_body_and_box_do_not_move():
    # u and x at 2^k leave every gauge unchanged; u off the interior, or
    # within membership of 0 at k = 0, stays refused. At 2^-40 an absolute
    # interior margin of 1e-12 refused u = 2^-40 (1, 0.5) on R^2_+, the
    # pyramid's 2^-40 (0.1, 0.2, 1) and the box [0, 2^-40]
    bodies = [(coordinate_cone(2), u) for u in ([1.0, 0.5], [1.0, 0.0], [1.0, -1e-3])]
    bodies += [(PYRAMID, u) for u in ([0.1, 0.2, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1e-10])]
    boxes = [([0.0], [1.0]), ([-3.0, 0.5], [-2.5, 0.75]), ([1.0], [1.0 + 2.0 ** -50])]

    def decisions(k):
        rng, out = np.random.default_rng(16), []
        for cone, u in bodies:
            body = _construct(GaugeBody, cone, np.ldexp(u, k))
            X = np.ldexp(rng.normal(size=(4, cone.dim)), k)
            out.append(body if isinstance(body, str) else [body.gauge(x) for x in X])
        for lo, hi in boxes:
            prog = _construct(BoxProgram, len(lo), None, np.zeros(len(lo)), 0.0,
                              np.ldexp(lo, k), np.ldexp(hi, k))
            out.append(prog if isinstance(prog, str) else True)
        return out

    base = decisions(0)
    assert sum(isinstance(d, str) for d in base) == 5
    for k in K:
        with scaled_tolerances(k, "membership"):
            assert decisions(k) == base


def test_declared_rank_does_not_move():
    # the |x| line sample, measured rank 1, with points, values and the
    # absolute tolerances at 2^k: a declared rank within kkt = 1e-6 of it
    # passes, one 1e-5 or 16/17 below it is refused. A slack of 1e3
    # membership accepted 1 / (1 + 1e-5) at 2^10 and 1/17 at 2^24. k stays
    # below 40, where 2^k membership passes e's own row
    grid = np.arange(-2.0, 2.25, 0.25).reshape(-1, 1)
    declared = (1.0, 1.0 / (1.0 + 1e-7), 1.0 / (1.0 + 1e-5), 1.0 / 17.0)
    for k in (0, *K[:-1], 10, 24):
        with scaled_tolerances(k, "membership", "strict_nonzero", "coincident"):
            passed = [_construct(PenaltyInstance, np.ldexp(grid, k), grid[:, 0] >= 1.0, None,
                                 coordinate_cone(1), [1.0], rank, 2,
                                 np.ldexp(np.abs(grid), k)) for rank in declared]
        assert [isinstance(p, PenaltyInstance) for p in passed] == [True, True, False, False]


def test_isometry_holds_does_not_move_at_2_40():
    # the support route and the definitional distance differ by a few ulps
    # of a 1e13 distance at 2^40: an absolute bound read 104 of these 200
    # integer pairs True at scale 1 and False at 2^40
    rng = np.random.default_rng(1)
    for _ in range(200):
        A, B = (rng.integers(-8, 9, size=(int(rng.integers(3, 9)), 2)).astype(float)
                for _ in range(2))
        base = verify_order_isometry(A, B)["isometry_holds"]
        assert base and verify_order_isometry(A * 2.0 ** 40, B * 2.0 ** 40)["isometry_holds"]


def test_lattice_decisions_do_not_move():
    rng = np.random.default_rng(12)
    pairs = []
    for dim, count in ((2, 24), (3, 3)):
        for i in range(count):
            A = rng.integers(-8, 9, size=(int(rng.integers(3, 7)), dim)).astype(float)
            if i % 3 == 0:   # a shrunken copy: the order relation holds one way
                B = 0.5 * (A - A.mean(axis=0)) + A.mean(axis=0)
            elif i % 3 == 1:
                B = A + rng.normal(size=dim) * 1e-10   # within membership of A
            else:
                B = rng.normal(size=(int(rng.integers(1, 6)), dim)) * 4.0
            pairs.append((A, B))
    # unit-size sets a small distance apart: the support gaps carry an
    # absolute rounding error of a few ulps of the coordinates, about 1e-8
    # of a 1e-8 distance, which a bound relative to the distance alone failed
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    simplex = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    pairs += [(A, A + step) for A, step in ((square, [6e-9, -8e-9]), (square, [6e-12, -8e-12]),
                                            (simplex, [6e-9, -8e-9, 1e-9]),
                                            (simplex, [1e-13, 0.0, 0.0]))]
    for A, B in pairs:
        rep = verify_order_isometry(A, B)
        base = [rep[key] for key in LATTICE_KEYS]
        assert rep["isometry_holds"] and rep["order_preserved"]
        for k in K[::2] if A.shape[1] == 3 else K:
            with scaled_tolerances(k, "membership"):
                rep = verify_order_isometry(np.ldexp(A, k), np.ldexp(B, k))
            assert [rep[key] for key in LATTICE_KEYS] == base


def _penalty_instance(rng, m, general):
    n, d = int(rng.integers(20, 50)), int(rng.integers(1, 3))
    pts = rng.uniform(-1.0, 1.0, size=(n, d))
    mask = rng.random(n) < 0.3
    mask[0] = True
    gens = np.eye(m) + 0.25 * rng.uniform(-1.0, 1.0, size=(m, m))
    cone = PolyhedralCone(m, generators=gens) if general else coordinate_cone(m)
    vals = pts @ rng.normal(size=(m, d)).T + 0.3 * np.sin(pts @ rng.normal(size=(m, d)).T * 3.0)
    e = np.sum(cone.generators, axis=0)
    return pts, mask, vals, cone, e / np.linalg.norm(e)


def test_penalty_decisions_do_not_move():
    # points and values at 2^k: the rank is unchanged, the distances and
    # values scale by 2^k, and so do membership, strict_nonzero and
    # coincident. membership also bounds e's own rows, and e has unit norm
    # by contract, so k stays below the exponent where 2^k membership
    # reaches them. The values alone at 2^k, k in K below 40, scale the rank
    # and L by 2^k too: an absolute margin of L over the rank refused every
    # L at 2^-40
    rng = np.random.default_rng(13)
    for m, general in ((1, False), (2, True), (3, False), (3, True)):
        pts, mask, vals, cone, e = _penalty_instance(rng, m, general)
        reports = []
        variants = [(k, ("membership", "strict_nonzero", "coincident"), np.ldexp(pts, k))
                    for k in (0, -40, -17, 6, 24)]
        variants += [(k, ("membership", "strict_nonzero"), pts) for k in K[:-1]]
        for k, names, points in variants:
            with scaled_tolerances(k, *names):
                inst = PenaltyInstance(points=points, feasible_mask=mask,
                                       objective=None, cone=cone, e=e, rank=None,
                                       values=np.ldexp(vals, k))
                for L in (1.1 * inst.rank, 3.0 * inst.rank):
                    rep = verify_penalty_equivalence(inst, L)
                    reports.append((k, rep.equal, rep.inclusion_at_rank, rep.tol_sensitive,
                                    tuple(rep.minimal_constrained), tuple(rep.minimal_penalized)))
        assert len({r[1:] for r in reports}) == 1, reports


def test_lipschitz_rank_of_far_values_is_finite():
    # H v overflowed in matmul at 1.3e308: the values are read at a power of
    # two and the rank scaled back exactly, on the line and in the plane
    v = 1.3e308 * np.array([1.0, -1.0, 1.0])
    u = np.array([0.0, 0.0, 4.0])
    expect = GaugeBody(PYRAMID, u).gauge(v)
    assert math.isfinite(expect)
    for pts in ([[0.0], [1.0]], [[0.0, 0.0], [1.0, 0.0]]):
        rank = cone_lipschitz_rank(pts, [v, np.zeros(3)], PYRAMID, u).value
        near = cone_lipschitz_rank(pts, [v * 2.0 ** -30, np.zeros(3)], PYRAMID, u).value
        assert rank == near * 2.0 ** 30 == expect
    # a coincident pair with different far values is +inf, and past the
    # largest float the rank reads inf, with no overflow warning
    assert cone_lipschitz_rank([[0.0], [0.0]], [v, np.zeros(3)], PYRAMID, u).value == math.inf
    half = cone_lipschitz_rank([[0.0], [0.25]], [v, np.zeros(3)], PYRAMID, u).value
    assert half == math.inf


FAR = 1.3e308
EDGE, INNER = FAR * np.array([1.0, -1.0, 1.0]), FAR * np.array([0.5, -0.5, 1.0])
# (a decision on far values times s, the decision expected; None: the one at
# 2^-30 alone, as the edge lies on the boundary within rounding)
FAR_DECISIONS = {
    "contains edge": (lambda s: PYRAMID.contains(EDGE * s), None),
    "contains inner": (lambda s: PYRAMID.contains(INNER * s), True),
    "contains -inner": (lambda s: PYRAMID.contains(-INNER * s), False),
    "order_leq +-1e308": (lambda s: PYRAMID.order_leq(np.array([-1e308, 0.0, 0.0]) * s,
                                                      np.array([1e308, 0.0, 0.0]) * s), False),
    "order_leq +-inner": (lambda s: PYRAMID.order_leq(-INNER * s, INNER * s), True),
    "minimal edge": (lambda s: tuple(cone_minimal_points([EDGE * s, np.zeros(3)], PYRAMID)),
                     None),
    "minimal inner": (lambda s: tuple(cone_minimal_points([INNER * s, np.zeros(3)], PYRAMID)),
                      (1,)),
    "minimal +-inner": (lambda s: tuple(cone_minimal_points(
        [-INNER * s, np.zeros(3), INNER * s], PYRAMID)), (0,)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(FAR_DECISIONS))
def test_cone_decisions_on_far_values(name):
    # H x, y - x and the dominance rows overflowed near the largest float:
    # each decision reads its values at a power of two, so it reads as it
    # does at 2^-30 of their size with the absolute tolerances at 2^-30
    call, expect = FAR_DECISIONS[name]
    got = call(1.0)
    with scaled_tolerances(-30, "membership", "strict_nonzero"):
        assert got == call(2.0 ** -30)
    assert expect is None or got == expect


def _slater_program(rng, i):
    n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    cone = coordinate_cone(m) if m == 1 or i % 2 else \
        PolyhedralCone(m, generators=np.eye(m) + 0.3 * rng.uniform(-1.0, 1.0, size=(m, m)))
    G, g0 = rng.normal(size=(m, n)), 2.0 * rng.normal(size=m)
    if i % 5 == 0:   # a row pinned at g = 0: margin 0, Slater fails at every scale
        G[0], g0[0] = 0.0, 0.0
    H = h0 = None
    if i % 3 == 0:
        H, h0 = rng.normal(size=(1, n)), rng.normal(size=1)
    e = np.sum(cone.generators, axis=0)
    return BoxProgram(n=n, Q=np.eye(n), q=rng.normal(size=n), c=0.0,
                      x_lo=-1.0 - rng.random(n), x_hi=1.0 + rng.random(n),
                      G=G, g0=g0, cone_y=cone, H=H, h0=h0), e / np.linalg.norm(e)


def test_slater_decision_does_not_move():
    # g and h at 2^k, and the variables at 2^k for |k| <= 21: at 2^+-40 the
    # search LP's bounds lie far, and the simplex status can move there
    # (ROADMAP item 5)
    rng = np.random.default_rng(14)
    decided = set()
    for i in range(40):
        prog, e = _slater_program(rng, i)
        rep = check_modified_slater(prog, e)
        base = (rep.satisfied, rep.h_neighborhood)
        decided.add(rep.satisfied)
        scaled = []
        for k in K[::2]:
            scaled.append(dataclasses.replace(prog, G=np.ldexp(prog.G, k), g0=np.ldexp(prog.g0, k)))
            if prog.H is not None:
                scaled.append(dataclasses.replace(prog, H=np.ldexp(prog.H, k),
                                                  h0=np.ldexp(prog.h0, k)))
        for k in (-13, 21):
            scaled.append(dataclasses.replace(
                prog, x_lo=np.ldexp(prog.x_lo, k), x_hi=np.ldexp(prog.x_hi, k),
                G=np.ldexp(prog.G, -k), H=None if prog.H is None else np.ldexp(prog.H, -k),
                Q=np.ldexp(prog.Q, -2 * k), q=np.ldexp(prog.q, -k)))
        for other in scaled:
            rep = check_modified_slater(other, e)
            assert (rep.satisfied, rep.h_neighborhood) == base
    assert decided == {True, False}


def test_gap_report_decisions_do_not_move():
    # (G, g0) at 2^k on simplicial cones: y* grows by 2^-k, and at 2^-40 an
    # absolute dual-cone gate refused y* on rounding alone. k stops at 29:
    # at 2^40 the primal's KKT gate, absolute in the units of g, can read
    # "numerical". (Q, q, c) at 2^k, k in K above -40, keep gap_ok True: the
    # gap rounds in units of its terms, and an absolute bound on it failed 17
    # of these reports at 2^40. At 2^-40 the simplex's absolute reduced-cost
    # threshold stops LPs at a wrong vertex, which the gap reads (ROADMAP
    # item 5)
    rng = np.random.default_rng(5)
    for i in range(60):
        prog, _ = random_box_program(rng, ("qp", "lp")[i % 2])
        m, center = prog.m, 0.5 * (prog.x_lo + prog.x_hi)
        gens = np.eye(m) + 0.25 * rng.uniform(-1.0, 1.0, size=(m, m))
        g0 = -(prog.G @ center) - rng.uniform(0.5, 1.5, size=m) @ gens
        prog = dataclasses.replace(prog, g0=g0, cone_y=PolyhedralCone(m, generators=gens))
        e = np.sum(gens, axis=0)
        e = e / np.linalg.norm(e)
        decisions = []
        for k in (0, *K[:-1]):
            rep = duality_gap_report(dataclasses.replace(
                prog, G=np.ldexp(prog.G, k), g0=np.ldexp(prog.g0, k)), e)
            decisions.append((rep.primal_status, rep.slater.satisfied, rep.gap_ok))
        assert decisions == decisions[:1] * len(decisions)
        for k in K[1:]:
            rep = duality_gap_report(dataclasses.replace(
                prog, Q=np.ldexp(prog.Q, k), q=np.ldexp(prog.q, k), c=math.ldexp(prog.c, k)), e)
            assert rep.gap_ok


def _lp(rng, kind):
    """A feasible, an infeasible or an unbounded LP over a box, a lower
    bound or free variables, with inequality and equality rows."""
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 8))
    x0 = rng.uniform(-1.0, 1.0, size=n)
    A, E = rng.normal(size=(m, n)), rng.normal(size=(1, n))
    b, f = A @ x0 - rng.uniform(0.1, 1.0, size=m), E @ x0
    lo, hi, c = x0 - 1.0, x0 + 1.0, rng.normal(size=n)
    if kind == "infeasible":   # two opposite rows with a positive gap
        A = np.vstack([A, A[:1], -A[:1]])
        b = np.concatenate([b, [A[0] @ x0 + 1.0, -(A[0] @ x0) + 1.0]])
    if kind == "unbounded":    # a direction d along which c falls and every row holds
        d = rng.normal(size=n)
        A = A + np.maximum(-(A @ d), 0.0)[:, None] * d / (d @ d)
        b = A @ x0 - rng.uniform(0.1, 1.0, size=m)
        E = E - (E @ d)[:, None] * d / (d @ d)
        f = E @ x0
        c = c - (c @ d + 1.0) / (d @ d) * d
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    return c, A, b, E, f, lo, hi


def test_lp_status_does_not_move():
    # each row at its own 2^k, k in [-40, 40]; the cost at 2^k for k >= -16
    # and the variables at 2^k for |k| <= 16. The reduced-cost threshold
    # lp_pivot and the feasibility threshold lp_feas * max(1, |b_i|) are
    # absolute, so a cost at 2^-40 or variables at 2^+-40 can move a status
    rng = np.random.default_rng(15)
    statuses = set()
    for i in range(60):
        c, A, b, E, f, lo, hi = _lp(rng, ("feasible", "infeasible", "unbounded")[i % 3])
        base = solve_lp(LPProblem(c, A, b, E, f, lo, hi)).status
        statuses.add(base)
        r, q = rng.integers(-40, 41, size=A.shape[0]), rng.integers(-40, 41, size=E.shape[0])
        variants = [LPProblem(c, np.ldexp(A, r[:, None]), np.ldexp(b, r),
                              np.ldexp(E, q[:, None]), np.ldexp(f, q), lo, hi)]
        for k in (-16, 11, 40):
            variants.append(LPProblem(np.ldexp(c, k), A, b, E, f, lo, hi))
        for k in (-16, 16):
            variants.append(LPProblem(np.ldexp(c, -k), np.ldexp(A, -k), b, np.ldexp(E, -k), f,
                                      np.ldexp(lo, k), np.ldexp(hi, k)))
        assert [solve_lp(p).status for p in variants] == [base] * len(variants)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def _cone_bytes(cone):
    return cone.halfspaces.tobytes(), cone.generators.tobytes(), cone.facets.tobytes()


# the general cones of test_point_eval.CONES, and R^2_+ given by halfspaces
DESCRIPTIONS = dict(GIVEN, orthant2=("halfspaces", [[1.0, 0.0], [0.0, 1.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(DESCRIPTIONS))
def test_a_row_scaled_on_its_own_gives_the_same_cone(name):
    # each description row at its own 2^k, k in [-1021, 1020], where these
    # rows stay exact: the unit rows are formed from each row at its power
    # of two, so the conversion reads the same rows. Read as given, rows
    # below 1e-14 were refused as zero rows and rows from about 1.3e154
    # overflowed their squares
    key, rows = DESCRIPTIONS[name]
    rows = np.array(rows)
    base = _cone_bytes(PolyhedralCone(rows.shape[1], **{key: rows}))
    rng = np.random.default_rng(23)
    sweeps = [np.full(len(rows), k) for k in (-1021, -1000, -530, -50, 50, 530, 1000, 1020)]
    sweeps += [rng.integers(-1021, 1021, size=len(rows)) for _ in range(75)]
    for ks in sweeps:
        cone = PolyhedralCone(rows.shape[1], **{key: np.ldexp(rows, ks[:, None])})
        assert _cone_bytes(cone) == base, ks


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", ["halfspaces", "generators"])
def test_the_orthant_with_one_far_or_tiny_row(key):
    base = _cone_bytes(PolyhedralCone(2, **{key: [[1.0, 0.0], [0.0, 1.0]]}))
    for s in (1e-300, 1e-20, 1e-15, 1e155, 1e200, 1e300):
        assert _cone_bytes(PolyhedralCone(2, **{key: [[s, 0.0], [0.0, 1.0]]})) == base, s


def _cap_program(k):
    """min 0.5|x|^2 - x_1 - x_2 on [-1, 1]^2 with 2^k (x_1 + x_2) - 2^(k-1) <= 0:
    the constraint is x_1 + x_2 <= 1/2 at every k."""
    return BoxProgram(n=2, Q=np.eye(2), q=[-1.0, -1.0], c=0.0, x_lo=[-1.0, -1.0],
                      x_hi=[1.0, 1.0], G=np.ldexp([[1.0, 1.0]], k),
                      g0=[-math.ldexp(1.0, k - 1)], cone_y=coordinate_cone(1))


@pytest.mark.filterwarnings("error")
def test_a_scaled_constraint_row_gives_the_unscaled_qp():
    # the cone row's norm and the reflection that brings it into the
    # working set are read at the row's power of two: read as given, the
    # row's square overflowed from about 2^512 and u'u underflowed to 0
    # near 2^-540
    base = solve_primal(_cap_program(0))
    assert (base.status, base.value, base.x.tolist()) == ("optimal", -0.4375, [0.25, 0.25])
    for k in range(-1000, 1001, 10):
        res = solve_primal(_cap_program(k))
        assert (res.status, res.value, res.x.tobytes()) == \
            (base.status, base.value, base.x.tobytes()), k


@pytest.mark.filterwarnings("error")
def test_hausdorff_above_the_plane_scales_by_2k_exactly():
    # each separation's length is read at its power of two, so a pair at
    # 2^k poses the same QPs and its distance is 2^k times the unscaled one;
    # read as given, the squares of the separations overflowed or
    # underflowed from |k| of about 531
    rng = np.random.default_rng(24)
    pairs = [(rng.normal(size=(int(rng.integers(3, 7)), d)),
              rng.normal(size=(int(rng.integers(2, 6)), d)))
             for d in (3, 4, 5) for _ in range(3)]
    for A, B in pairs:
        base = hausdorff_distance(A, B)[0]
        assert base > 0.0
        for k in range(-1000, 1001, 50):
            assert hausdorff_distance(np.ldexp(A, k), np.ldexp(B, k))[0] == math.ldexp(base, k), k


@pytest.mark.filterwarnings("error")
def test_hausdorff_of_a_far_or_tiny_simplex_pair():
    # the unit simplex in R^3 and its copy moved by 2 e_1 lie 2 apart at
    # every scale s, up to the rounding of s A and s B
    A = np.vstack([np.zeros(3), np.eye(3)])
    B = A + [2.0, 0.0, 0.0]
    for s in (1e-160, 1.0, 1e160):
        assert hausdorff_distance(s * A, s * B)[0] / s == pytest.approx(2.0, rel=1e-15, abs=0)
