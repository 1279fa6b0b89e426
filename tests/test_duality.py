import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from conegen import duality, numkernel
from conegen.config import default_tolerances, use_tolerances
from conegen.cones import PolyhedralCone, coordinate_cone
from conegen.demos import run_torsion_demo, run_vi_demo
from conegen.numkernel import SolveReport
from conegen.duality import (BoxProgram, CertificateRefusal, Multipliers,
                             StationarityCertificate, VectorObjective,
                             check_modified_slater, dual_value,
                             duality_gap_report, lagrangian_value,
                             random_box_program, random_multipliers,
                             solve_dual, solve_primal,
                             stationarity_certificate, zero_multipliers)
from conegen.lattice import hausdorff_distance
from conegen.numkernel import verify_farkas
from lp_oracle import qp_dual_value


def lp_example():
    # min x1 + x2 on [0,1]^2 with 1 - x1 - x2 <= 0
    return BoxProgram(n=2, Q=None, q=[1.0, 1.0], c=0.0, x_lo=[0.0, 0.0],
                      x_hi=[1.0, 1.0], G=[[-1.0, -1.0]], g0=[1.0],
                      cone_y=coordinate_cone(1))


class TestBoxProgram:
    def test_psd_check(self):
        with pytest.raises(ValueError):
            BoxProgram(n=2, Q=[[-1.0, 0.0], [0.0, 1.0]], q=[0.0, 0.0], c=0.0,
                       x_lo=[0.0, 0.0], x_hi=[1.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.floats(-8.0, 8.0))
    def test_psd_checks_relative_to_scale(self, seed, log_s):
        # rank-deficient B'B carries rounding-level asymmetry and negative
        # eigenvalues, both proportional to its scale
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        B = rng.normal(size=(int(rng.integers(1, n)), n))
        Q = 10.0 ** log_s * (B.T @ B)
        box = dict(n=n, q=np.zeros(n), c=0.0, x_lo=-np.ones(n), x_hi=np.ones(n))
        BoxProgram(Q=Q, **box)
        v = np.linalg.svd(B)[2][-1]   # B v = 0
        with pytest.raises(ValueError, match="positive semidefinite"):
            BoxProgram(Q=Q - 1e-3 * np.linalg.norm(Q) * np.outer(v, v), **box)

    def test_box_gap_check(self):
        with pytest.raises(ValueError):
            BoxProgram(n=1, Q=None, q=[0.0], c=0.0, x_lo=[1.0], x_hi=[1.0])

    def test_a_box_near_the_largest_float_has_its_centre_inside(self):
        # 0.5 (x_a + x_b) overflows to inf here, and was the Slater witness
        prog = BoxProgram(n=1, Q=np.eye(1), q=[0.0], c=0.0, x_lo=[1e308], x_hi=[1.7e308])
        rep = check_modified_slater(prog, None)
        assert rep.satisfied and rep.h_neighborhood
        assert 1e308 < rep.witness[0] < 1.7e308

    def test_the_widest_box_has_a_finite_lift(self):
        # x_b - x_a is the largest float; a wider box is refused (test_refusals.py)
        half = 0.5 * sys.float_info.max
        rep = duality_gap_report(BoxProgram(n=1, Q=np.eye(1), q=[0.0], c=0.0,
                                            x_lo=[-half], x_hi=[half]))
        assert rep.primal_status == "optimal" and rep.pi[0] == sys.float_info.max
        assert rep.to_dict()["multipliers_lifted"] == {"y": [], "x1": [0.0], "x2": [0.0],
                                                       "z": []}

    @pytest.mark.parametrize("h", [{}, {"H": [[1.0]], "h0": [0.0]}], ids=["no-h", "h"])
    def test_a_box_with_no_float_inside_is_refused(self, h):
        # ROUNDING * 2^-1074 underflows to 0, so the width test alone took
        # [0, 2^-1074]: its witness was the bound 0, and with h(x) = x the
        # h-neighbourhood read True
        with pytest.raises(ValueError, match="^box must have x_b - x_a interior"):
            BoxProgram(n=1, Q=np.eye(1), q=[0.0], c=0.0, x_lo=[0.0], x_hi=[5e-324], **h)

    def test_the_least_subnormal_boxes(self):
        # [0, 2u] and [u, 3u] (u = 2^-1074) hold one float strictly inside,
        # which is the witness, with or without an equality row through it;
        # their halves hold none
        u = 5e-324
        for lo, hi in [(0.0, 2 * u), (u, 3 * u)]:
            for h in ({}, {"H": [[1.0]], "h0": [-(lo + u)]}):
                prog = BoxProgram(n=1, Q=np.eye(1), q=[0.0], c=0.0, x_lo=[lo], x_hi=[hi], **h)
                rep = check_modified_slater(prog, None)
                assert rep.satisfied and rep.h_neighborhood
                assert rep.witness[0] == lo + u
        for lo, hi in [(0.0, u), (u, 2 * u), (2 * u, 3 * u)]:
            with pytest.raises(ValueError, match="^box must have x_b - x_a interior"):
                BoxProgram(n=1, Q=np.eye(1), q=[0.0], c=0.0, x_lo=[lo], x_hi=[hi])

    @pytest.mark.parametrize("offset, message", [
        ({"g0": [5.0, 5.0, 5.0]}, "^g0 given without G$"),
        ({"h0": [1.0, 2.0, 3.0]}, "^h0 given without H$"),
    ], ids=["g0", "h0"])
    def test_offset_without_its_matrix_is_refused(self, offset, message):
        # read as written, either program is infeasible; dropped, it was
        # reported "optimal"
        with pytest.raises(ValueError, match=message):
            BoxProgram(n=2, Q=None, q=[1.0, -1.0], c=0.0, x_lo=[-1.0, -1.0],
                       x_hi=[1.0, 1.0], **offset)


def block_programs():
    """One program of each kind of block: none, G, H, both, an LP with both,
    and a cone given with no G."""
    box = dict(n=2, q=[1.0, -1.0], c=0.5, x_lo=[-1.0, -1.0], x_hi=[1.0, 2.0])
    G = dict(G=[[1.0, 1.0]], g0=[-0.5], cone_y=coordinate_cone(1))
    H = dict(H=[[1.0, -1.0]], h0=[0.25])
    return {"none": BoxProgram(Q=np.eye(2), **box),
            "G": BoxProgram(Q=np.eye(2), **box, **G),
            "H": BoxProgram(Q=np.eye(2), **box, **H),
            "G-H": BoxProgram(Q=np.eye(2), **box, **G, **H),
            "lp-G-H": BoxProgram(Q=None, **box, **G, **H),
            "cone-without-G": BoxProgram(Q=np.eye(2), **box, cone_y=coordinate_cone(3))}


def report_json(prog):
    return json.dumps(duality_gap_report(prog).to_dict())


class TestAbsentBlocks:
    """An absent G or H keeps None in its public field (the benchmark's
    oracles test `prog.H is not None`), and the solvers read it as a block
    of no rows."""

    def test_public_fields_stay_as_given(self):
        progs = block_programs()
        for name in ("none", "cone-without-G"):
            prog = progs[name]
            assert prog.G is prog.g0 is prog.H is prog.h0 is None
            assert (prog.m, prog.k) == (0, 0)
        assert progs["none"].cone_y is None
        cone = coordinate_cone(3)
        assert BoxProgram(n=1, Q=None, q=[1.0], c=0.0, x_lo=[0.0], x_hi=[1.0],
                          cone_y=cone).cone_y is cone
        assert progs["G"].H is progs["G"].h0 is None
        assert progs["H"].G is progs["H"].g0 is progs["H"].cone_y is None

    @pytest.mark.parametrize("name", ["none", "G", "lp-G-H"])
    def test_a_zero_row_h_reads_as_no_h(self, name):
        prog = block_programs()[name]
        if prog.H is not None:
            prog = dataclasses.replace(prog, H=None, h0=None)
        empty = dataclasses.replace(prog, H=np.zeros((0, 2)), h0=np.zeros(0))
        assert empty.k == 0
        assert report_json(empty) == report_json(prog)
        e = None if prog.m == 0 else [1.0]
        assert check_modified_slater(empty, e).to_dict() == check_modified_slater(prog, e).to_dict()

    def test_replace_rebuilds_every_kind(self):
        for name, prog in block_programs().items():
            again = dataclasses.replace(prog)
            for field in ("G", "g0", "H", "h0", "cone_y"):
                assert (getattr(again, field) is None) == (getattr(prog, field) is None), name
            assert report_json(again) == report_json(prog), name


class TestLagrangian:
    def test_zero_multipliers(self):
        prog = lp_example()
        x = np.array([0.5, 0.25])
        assert lagrangian_value(prog, x, zero_multipliers(prog)) == \
            pytest.approx(prog.objective(x))

    def test_example_value(self):
        prog = BoxProgram(n=1, Q=None, q=[1.0], c=0.0, x_lo=[0.0], x_hi=[2.0],
                          G=[[1.0]], g0=[-1.0], cone_y=coordinate_cone(1))
        mult = Multipliers(y=np.array([1.0]), x1=np.zeros(1), x2=np.zeros(1),
                           z=np.zeros(0))
        assert lagrangian_value(prog, [0.0], mult) == pytest.approx(-1.0)

    def test_slack_complementary(self):
        prog = lp_example()
        x = np.array([0.7, 0.6])  # feasible, g slack
        mult = Multipliers(y=np.zeros(1), x1=np.zeros(2), x2=np.zeros(2),
                           z=np.zeros(0))
        assert lagrangian_value(prog, x, mult) == pytest.approx(prog.objective(x))


class TestDualValue:
    def test_pure_quadratic(self):
        prog = BoxProgram(n=3, Q=np.eye(3), q=np.zeros(3), c=0.0,
                          x_lo=-np.ones(3), x_hi=np.ones(3))
        assert dual_value(prog, zero_multipliers(prog)) == 0.0

    def test_linear_residual_unbounded(self):
        prog = BoxProgram(n=1, Q=None, q=[1.0], c=0.0, x_lo=[0.0], x_hi=[1.0])
        assert dual_value(prog, zero_multipliers(prog)) == -math.inf

    def test_complete_the_square(self):
        prog = BoxProgram(n=1, Q=[[1.0]], q=[0.0], c=0.0, x_lo=[-9.0], x_hi=[9.0],
                          G=[[1.0]], g0=[-1.0], cone_y=coordinate_cone(1))
        mult = Multipliers(y=np.array([1.0]), x1=np.zeros(1), x2=np.zeros(1),
                           z=np.zeros(0))
        assert dual_value(prog, mult) == pytest.approx(-1.5)


class TestSlater:
    def test_scalar_true(self):
        # g(x) = x - 2 on [0, 1]: the centre 0.5 has margin 1.5, so it is the
        # witness, and lam = 2 * <A, e> / <A, -g(0.5)> = 4/3
        prog = BoxProgram(n=1, Q=None, q=[0.0], c=0.0, x_lo=[0.0], x_hi=[1.0],
                          G=[[1.0]], g0=[-2.0], cone_y=coordinate_cone(1))
        rep = check_modified_slater(prog, [1.0])
        assert rep.satisfied
        assert np.allclose(rep.witness, [0.5])
        assert rep.lam == pytest.approx(4.0 / 3.0)
        assert rep.margin == pytest.approx(1.5)

    def test_scalar_true_by_search_lp(self):
        # g(x) = x - 0.4 on [0, 1]: the centre violates the row, so the
        # search LP decides, at its argmax 0 with margin 0.4
        prog = BoxProgram(n=1, Q=None, q=[0.0], c=0.0, x_lo=[0.0], x_hi=[1.0],
                          G=[[1.0]], g0=[-0.4], cone_y=coordinate_cone(1))
        rep = check_modified_slater(prog, [1.0])
        assert rep.satisfied
        assert np.allclose(rep.witness, [0.0])
        assert rep.margin == pytest.approx(0.4)
        assert rep.lam == pytest.approx(5.0)

    def test_scalar_false(self):
        prog = BoxProgram(n=1, Q=None, q=[0.0], c=0.0, x_lo=[0.0], x_hi=[1.0],
                          G=[[1.0]], g0=[0.0], cone_y=coordinate_cone(1))
        assert not check_modified_slater(prog, [1.0]).satisfied

    def test_h_neighborhood(self):
        prog = BoxProgram(n=2, Q=None, q=[0.0, 0.0], c=0.0, x_lo=[0.0, 0.0],
                          x_hi=[1.0, 1.0], H=[[1.0, -1.0]], h0=[0.0])
        rep = check_modified_slater(prog, None)
        assert rep.h_neighborhood

    @pytest.mark.parametrize("t", [1.0, 1e-12])
    def test_h_rank_relative_to_row_norm(self, t):
        prog = BoxProgram(n=2, Q=None, q=[0.0, 0.0], c=0.0, x_lo=[-1.0, -1.0],
                          x_hi=[1.0, 1.0], H=[[t, t]], h0=[0.0])
        assert check_modified_slater(prog, None).h_neighborhood

    def test_a_far_equality_row_keeps_its_rank(self):
        # the row's squared norm overflows: it was dropped as dependent
        prog = BoxProgram(n=2, Q=np.eye(2), q=[1.0, 1.0], c=0.0, x_lo=[-1.0, -1.0],
                          x_hi=[1.0, 1.0], H=[[2e154, -2e154]], h0=[0.0])
        assert check_modified_slater(prog, None).h_neighborhood
        rows = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 3.0, 1.0]])
        for scale in (1.0, 1e200, 1e-200):
            assert numkernel.independent_rows(rows * scale).tolist() == [0, 1]

    @pytest.mark.parametrize("check", [check_modified_slater, duality_gap_report])
    def test_e_without_a_cone_constraint_is_refused(self, check):
        # e outside the cone, and never read when there is no cone constraint
        prog = BoxProgram(n=2, Q=None, q=[1.0, -1.0], c=0.0, x_lo=[-1.0, -1.0],
                          x_hi=[1.0, 1.0])
        with pytest.raises(ValueError, match="^e given without G$"):
            check(prog, [-1.0, 0.0, 0.0])
        check(prog, None)   # without e the check runs

    def test_lambda_is_finite_at_a_divisor_below_its_floor(self):
        # <A, -g(x)> = 1e-320 at the witness, as good as 0 against <A, e> =
        # 1e10: it is floored at 1e10 * 2^-1020, so lambda = 2^1021 (an
        # absolute floor of 1e-300 overflows lambda)
        prog = BoxProgram(n=1, Q=None, q=[0.0], c=0.0, x_lo=[0.0], x_hi=[1.0],
                          G=[[0.0]], g0=[-1e-320], cone_y=coordinate_cone(1))
        rep = check_modified_slater(prog, [1e10])
        assert rep.satisfied and rep.lam == 2.0 ** 1021

    def test_h_infeasible_diagnosis(self):
        prog = BoxProgram(n=1, Q=None, q=[0.0], c=0.0, x_lo=[0.0], x_hi=[1.0],
                          G=[[1.0]], g0=[-2.0], cone_y=coordinate_cone(1),
                          H=[[1.0]], h0=[5.0])
        rep = check_modified_slater(prog, [1.0])
        assert not rep.satisfied and "infeasible" in rep.diagnosis


class TestPrimal:
    def test_clamp(self):
        prog = BoxProgram(n=1, Q=[[1.0]], q=[0.0], c=0.0, x_lo=[1.0], x_hi=[2.0])
        rep = solve_primal(prog)
        assert rep.status == "optimal"
        assert np.allclose(rep.x, [1.0]) and rep.value == pytest.approx(0.5)
        assert rep.kkt_residual <= 1e-6

    def test_a_far_box_steps_without_overflow(self):
        # the active set's step has a squared norm past the largest float
        prog = BoxProgram(n=1, Q=[[1e-300]], q=[0.0], c=0.0, x_lo=[1e200], x_hi=[1.7e200])
        rep = duality_gap_report(prog)
        assert rep.primal_status == rep.dual_status == "optimal"
        assert rep.primal_value == 5e99 and rep.witness.tolist() == [1e200] and rep.gap_ok

    def test_lp_oracle(self):
        rep = solve_primal(lp_example())
        assert rep.status == "optimal" and rep.value == pytest.approx(1.0, abs=1e-9)

    def test_infeasibility_certificate(self):
        prog = BoxProgram(n=1, Q=None, q=[0.0], c=0.0, x_lo=[0.0], x_hi=[1.0],
                          G=[[1.0]], g0=[1.0], cone_y=coordinate_cone(1))
        rep = solve_primal(prog)
        assert rep.status == "infeasible" and rep.farkas is not None

    def test_kkt_on_random_qps(self):
        rng = np.random.default_rng(26)
        for _ in range(25):
            prog, _ = random_box_program(rng, kind="qp")
            rep = solve_primal(prog)
            assert rep.status == "optimal"
            assert rep.kkt_residual <= 1e-6

    def test_rank_deficient_qps_reach_optimality(self):
        """Rank-deficient Q with cone rows: a near-singular step used to be
        blocked at step 0 by a row already in the working set, which the
        active-set loop then re-added until its iteration cap."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            n, m = int(rng.integers(2, 12)), int(rng.integers(1, 8))
            x_lo, x_hi = -1.0 - rng.random(n), 1.0 + rng.random(n)
            center = 0.5 * (x_lo + x_hi)
            B = rng.normal(size=(int(rng.integers(1, n + 1)), n))
            G = rng.normal(size=(m, n))
            H = h0 = None
            if rng.random() < 0.4:
                H = rng.normal(size=(1, n))
                h0 = -(H @ center)
            prog = BoxProgram(n=n, Q=B.T @ B, q=rng.normal(size=n), c=0.0,
                              x_lo=x_lo, x_hi=x_hi, G=G,
                              g0=-(G @ center) - rng.uniform(0.5, 1.5, size=m),
                              cone_y=coordinate_cone(m), H=H, h0=h0)
            rep = solve_primal(prog)
            assert rep.status == "optimal"
            assert rep.kkt_residual <= 1e-6


def kkt_residual(prog, rep):
    """Worst violation of the KKT conditions at rep.x with rep.multipliers:
    stationarity, primal and dual feasibility, complementarity. With the
    constraint cone C = {v : A v >= 0} = cone(rows of W), -g(x) in C and
    y* in C* (W y* >= 0); complementarity is coordinatewise on the coordinate
    cone, where A and W are the identity, and <y*, g(x)> = 0 on any other."""
    x, mu, cone = rep.x, rep.multipliers, prog.cone_y
    gx = prog.G @ x + prog.g0
    grad = prog.Q @ x + prog.q + prog.G.T @ mu.y - mu.x1 + mu.x2
    slack = mu.y * gx if cone.kind == "coordinate" else mu.y @ gx
    viol = [np.max(prog.x_lo - x), np.max(x - prog.x_hi), np.max(cone.halfspaces @ gx),
            -np.min(cone.generators @ mu.y), -np.min(mu.x1), -np.min(mu.x2),
            np.max(np.abs(slack)), np.max(np.abs(mu.x1 * (x - prog.x_lo))),
            np.max(np.abs(mu.x2 * (prog.x_hi - x)))]
    if prog.k:
        grad += prog.H.T @ mu.z
        viol.append(np.max(np.abs(prog.H @ x + prog.h0)))
    return float(max(viol + [np.max(np.abs(grad))]))


def box_draws(indices):
    """Draws of random_box_program(default_rng(5), "qp", n_max=40, m_max=24)."""
    rng = np.random.default_rng(5)
    draws = [random_box_program(rng, "qp", n_max=40, m_max=24)[0]
             for _ in range(max(indices) + 1)]
    return [draws[i] for i in indices]


def cap_program():
    """The Slater-satisfying QP (n = 32, m = 2, one equality row, rank-deficient
    Q) on which an earlier active-set method reached its iteration cap: the
    seventh of the draws below from default_rng(7)."""
    rng = np.random.default_rng(7)
    for kind in ("lp",) * 4 + ("qp",) * 3:
        n = int(rng.integers(2, 41))
        m = int(rng.integers(1, 25))
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
        g0 = -(G @ center) - rng.uniform(0.5, 1.5, size=m)
        H = h0 = None
        if rng.random() < 0.4:
            H = rng.normal(size=(1, n))
            h0 = -(H @ center)
        c = float(rng.normal())
    return BoxProgram(n=n, Q=Q, q=q, c=c, x_lo=x_lo, x_hi=x_hi, G=G, g0=g0,
                      cone_y=coordinate_cone(m), H=H, h0=h0)


class TestActiveSetRegressions:
    """Draws 1 and 22 took 2000 steps of rounding-noise length to the
    iteration cap under an absolute step stop. Draw 23's reduced Hessian is
    near singular: a Cholesky-diagonal singularity test accepts it and steps
    2e15 to an infeasible point."""

    @pytest.mark.parametrize("prog", box_draws([1, 22, 23]) + [cap_program()],
                             ids=["draw1", "draw22", "draw23", "cap_n32"])
    def test_optimal_feasible_kkt(self, prog):
        rep = solve_primal(prog)
        assert rep.status == "optimal"
        assert rep.iterations < 2000
        with use_tolerances(dataclasses.replace(default_tolerances(), membership=1e-9)):
            assert prog.feasible(rep.x)
        assert kkt_residual(prog, rep) <= 1e-9

    def test_near_singular_value(self):
        # scipy's trust-constr agrees with this value
        rep = solve_primal(box_draws([23])[0])
        assert rep.value == pytest.approx(-14.0601405, abs=1e-7)


class TestNullSpaceUpdates:
    """The active-set QP keeps its null-space basis Z across steps: an
    entering row is reflected out of Z, one QR rebuilds Z when a row leaves,
    and eigh runs only where a Cholesky of Z'QZ shifted by the curvature
    threshold fails. The counts wrap numpy's factorisations."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = dict.fromkeys(["qr", "eigh", "cholesky", "_active_set_qp",
                                "_null_basis"], 0)

        def wrap(owner, name):
            f = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        for name in ("qr", "eigh", "cholesky"):
            wrap(np.linalg, name)
        wrap(duality, "_active_set_qp")
        wrap(duality, "_null_basis")
        return counts

    def test_torsion_runs_no_eigh_and_no_qr_per_step(self, counts):
        # a QR and an eigh per step would be 38 of each here
        run_torsion_demo(n_grid=48)
        qps = counts["_active_set_qp"]
        leaves = counts["_null_basis"] - qps
        assert qps >= 1 and counts["eigh"] == 0 and counts["cholesky"] >= 30
        # per QP: one for the start, one per leaving row, and one per
        # multiplier solve, each of which drops a row or returns
        assert counts["qr"] <= qps + leaves + (leaves + qps)

    def test_full_rank_box_qps_run_no_eigh(self, counts):
        rng = np.random.default_rng(106)   # criterion 6's scalar box QPs
        for _ in range(50):
            n = int(rng.integers(1, 6))
            B = rng.normal(size=(n, n))
            prog = BoxProgram(n=n, Q=B.T @ B + 0.05 * np.eye(n), q=rng.normal(size=n),
                              c=0.0, x_lo=-np.ones(n), x_hi=np.ones(n))
            assert solve_primal(prog).status == "optimal"
        assert counts["_active_set_qp"] == 50 and counts["eigh"] == 0

    def test_near_singular_draw_runs_eigh(self, counts):
        rep = solve_primal(box_draws([23])[0])
        assert counts["eigh"] > 0
        assert rep.value == pytest.approx(-14.0601405, abs=1e-7)

    def test_long_add_drop_qp_from_a_box_vertex(self, counts):
        # the centre 0 violates mean(x) >= 0.2, so the QP starts at the
        # simplex's vertex and rows leave one by one
        n, rng = 40, np.random.default_rng(2)
        B = rng.normal(size=(n, n))
        prog = BoxProgram(n=n, Q=B.T @ B + 0.05 * np.eye(n), q=rng.normal(size=n),
                          c=0.0, x_lo=-np.ones(n), x_hi=np.ones(n),
                          G=-np.ones((1, n)) / n, g0=[0.2], cone_y=coordinate_cone(1))
        rep = solve_primal(prog)
        assert rep.status == "optimal"
        assert counts["_null_basis"] - counts["_active_set_qp"] >= 10
        assert abs(rep.value - qp_dual_value(prog)) <= 1e-6

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 48), st.data())
    def test_reflect_out(self, n, data):
        k = data.draw(st.integers(1, n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        Z = np.linalg.qr(rng.normal(size=(n, k)))[0]
        # Z'a near -e_1 cancels in a reflection whose sign ignores Z'a's
        a = {"general": rng.normal(size=n), "in span": Z @ rng.normal(size=k),
             "box": np.eye(n)[rng.integers(n)],
             "near -Z e_1": Z @ (1e-8 * rng.normal(size=k) - np.eye(k)[0])}[
                 data.draw(st.sampled_from(["general", "in span", "box", "near -Z e_1"]))]
        a = a * 10.0 ** data.draw(st.floats(-6.0, 6.0))
        W = duality._reflect_out(Z, a)
        assert W.shape == (n, k - 1)
        assert np.max(np.abs(W.T @ W - np.eye(k - 1)), initial=0.0) <= 1e-13
        assert np.max(np.abs(a @ W), initial=0.0) <= 1e-13 * np.linalg.norm(a)
        assert np.max(np.abs(Z @ (Z.T @ W) - W), initial=0.0) <= 1e-13


def box_as_cone_rows(prog, widen):
    """The program with its box [x_a, x_b] also written as the 2n cone rows
    x_a - x <= 0 and x - x_b <= 0 of a coordinate cone, and its bounds moved
    out to [x_a - widen, x_b + widen]."""
    n = prog.n
    return BoxProgram(n=n, Q=prog.Q, q=prog.q, c=prog.c, x_lo=prog.x_lo - widen,
                      x_hi=prog.x_hi + widen, G=np.vstack([prog.G, -np.eye(n), np.eye(n)]),
                      g0=np.concatenate([prog.g0, prog.x_lo, -prog.x_hi]),
                      cone_y=coordinate_cone(prog.m + 2 * n), H=prog.H, h0=prog.h0)


def test_no_cholesky_where_z_is_wider_than_rank_q(monkeypatch):
    # Z'QZ has rank at most rank Q (eigenvalues above qp_curv ||Q||_F), so
    # its Cholesky shifted by that threshold cannot succeed where Z has more
    # columns: eigh runs there at once
    progs, sizes, eighs = [], [], []
    qp, cholesky, eigh = duality._active_set_qp, np.linalg.cholesky, np.linalg.eigh

    def solve(prog, x0):
        progs.append(prog)
        return qp(prog, x0)

    def factor(M, *args, **kwargs):
        sizes.append((len(progs) - 1, M.shape[0]))
        return cholesky(M, *args, **kwargs)

    def eigen(M, *args, **kwargs):
        eighs.append(M.shape[0])
        return eigh(M, *args, **kwargs)
    monkeypatch.setattr(duality, "_active_set_qp", solve)
    monkeypatch.setattr(np.linalg, "cholesky", factor)
    monkeypatch.setattr(np.linalg, "eigh", eigen)
    for prog in box_draws(range(12)) + [cap_program()]:
        assert solve_primal(prog).status == "optimal"
    run_torsion_demo(n_grid=12)
    tol = default_tolerances().qp_curv
    rank = [int(np.sum(np.linalg.eigvalsh(p.Q) > tol * np.linalg.norm(p.Q))) for p in progs]
    assert min(rank[i] - p.n for i, p in enumerate(progs)) < 0 and eighs
    assert sizes and all(k <= rank[i] for i, k in sizes)


class TestBoundsAsRows:
    """The active-set QP holds the box as bounds. The same box written as
    cone rows, with the bounds widened out of the way, is the same program;
    repeated as cone rows inside the same bounds, every bound ties with its
    row, and the lowest-index rule takes the bound."""

    @staticmethod
    def draws(count=60):
        rng = np.random.default_rng(32)
        for _ in range(count):
            prog, _ = random_box_program(rng, "qp", n_max=8)
            B = rng.normal(size=(prog.n, prog.n))
            # full rank Q for a unique minimizer, a large q for active bounds
            yield dataclasses.replace(prog, Q=B.T @ B + 0.05 * np.eye(prog.n),
                                      q=4.0 * rng.normal(size=prog.n))

    def test_widened_bounds_and_rows_give_the_same_program(self):
        held = 0
        for prog in self.draws():
            bounds = solve_primal(prog)
            rows = box_as_cone_rows(prog, 1.0)
            as_rows = solve_primal(rows)
            assert bounds.status == as_rows.status == "optimal"
            held += int(np.sum((bounds.x == prog.x_lo) | (bounds.x == prog.x_hi)))
            assert np.max(np.abs(bounds.x - as_rows.x)) <= 1e-9
            assert abs(bounds.value - as_rows.value) <= 1e-9
            # a degenerate draw has more than one multiplier: compare values
            assert abs(solve_dual(prog, bounds).value
                       - solve_dual(rows, as_rows).value) <= 1e-9
        assert held >= 40   # the bound path runs

    def test_bounds_repeated_as_rows(self):
        for prog in self.draws():
            bounds = solve_primal(prog)
            both = solve_primal(box_as_cone_rows(prog, 0.0))
            assert both.status == "optimal"
            assert np.max(np.abs(bounds.x - both.x)) <= 1e-9


def nearest_point_qp(Y, a):
    """The nearest point of conv(rows of Y) to a as a program over the
    weights: min 0.5 |Y'w - a|^2 over w in [0, 1]^k with 1'w = 1."""
    k = Y.shape[0]
    return BoxProgram(n=k, Q=Y @ Y.T, q=-(Y @ a), c=0.5 * float(a @ a),
                      x_lo=np.zeros(k), x_hi=np.ones(k), H=np.ones((1, k)),
                      h0=[-1.0])


def nearest_point_draw(seed):
    """k > d + 1 Gaussian vertices, and a point inside the hull (a random
    convex combination) or outside it (pushed away from the centroid)."""
    rng = np.random.default_rng(seed)
    d = int(rng.choice([2, 3, 4, 6]))
    Y = rng.normal(size=(int(rng.integers(d + 2, 12)), d))
    if rng.random() < 0.5:
        a = rng.dirichlet(np.ones(Y.shape[0])) @ Y
    else:
        a = Y.mean(axis=0) + 3.0 * rng.normal(size=d)
    return Y, a


class TestNearestPointQPs:
    """At an interior point of the hull the optimum has grad f = 0 and many
    minimizing weights; measured against ||grad f||, which is then rounding
    noise, the multiplier sign and descent tests cycled to the cap."""

    def test_zero_gradient_optimum(self):
        Y = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a = np.array([0.3, 0.6])
        rep = solve_primal(nearest_point_qp(Y, a))
        assert rep.status == "optimal" and rep.iterations < 100
        assert np.linalg.norm(rep.x @ Y - a) <= 1e-12
        assert rep.x.sum() == pytest.approx(1.0, abs=1e-12) and rep.x.min() >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_distances_match_slsqp(self, seed):
        Y, a = nearest_point_draw(seed)
        k = Y.shape[0]
        rep = solve_primal(nearest_point_qp(Y, a))
        assert rep.status == "optimal"

        def half_sq_dist(w):
            return 0.5 * np.sum((w @ Y - a) ** 2)

        ref = minimize(half_sq_dist, np.full(k, 1.0 / k), jac=lambda w: Y @ (w @ Y - a),
                       method="SLSQP", bounds=[(0.0, 1.0)] * k,
                       options={"ftol": 1e-12, "maxiter": 500},
                       constraints={"type": "eq", "fun": lambda w: w.sum() - 1.0,
                                    "jac": lambda w: np.ones((1, k))})
        assert ref.success
        # squared: SLSQP's ftol bounds the objective, and at an inside point
        # its distance, a square root of ~1e-12, reads only to ~1e-6
        assert half_sq_dist(rep.x) == pytest.approx(half_sq_dist(ref.x), abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-8.0, 8.0))
    def test_status_independent_of_scale(self, seed, log_s):
        prog = nearest_point_qp(*nearest_point_draw(seed))
        s = 10.0 ** log_s
        scaled = dataclasses.replace(prog, Q=s * prog.Q, q=s * prog.q, c=s * prog.c)
        assert solve_primal(prog).status == solve_primal(scaled).status == "optimal"


def centre_infeasible_program(rng, kind, variant):
    """A program of random_box_program's family whose box centre c fails the
    closed-form start, built around a point p strictly inside the box that
    meets every row strictly (so Slater holds), r the box half-widths:
    "cut" adds the cone row a'x >= a'(c + p) / 2, a = p - c, which c
    violates; "equality" adds h(x) = w'(x - c - w), w = 1.2 r u with
    |u_i| = 1 on the narrowest coordinate and 1/2 elsewhere: the
    least-squares point of c on h = 0 is c + w, outside the box, while the
    plane still cuts the box at p, between c and the corner c + r sign(w)."""
    prog, _ = random_box_program(rng, kind, n_max=10, m_max=4, with_h=False)
    n, m = prog.n, prog.m
    c, r = 0.5 * (prog.x_lo + prog.x_hi), 0.5 * (prog.x_hi - prog.x_lo)
    G, H, h0 = prog.G, None, None
    if variant == "cut":
        p = c + r * rng.uniform(0.2, 0.6, n) * rng.choice([-1.0, 1.0], n)
        G = np.vstack([G, c - p])
    else:
        u = 0.5 * rng.choice([-1.0, 1.0], n)
        u[np.argmin(r)] *= 2.0
        w = 1.2 * r * u
        p = c + (w @ w) / (np.abs(w) @ r) * r * np.sign(w)
        H, h0 = w[None, :], [-(w @ (c + w))]
    g0 = -(prog.G @ p) - rng.uniform(0.5, 1.5, m)
    if variant == "cut":
        g0 = np.append(g0, (p - c) @ (c + p) / 2)
    prog = dataclasses.replace(prog, G=G, g0=g0, cone_y=coordinate_cone(G.shape[0]),
                               H=H, h0=h0)
    return prog, np.ones(prog.m) / math.sqrt(prog.m), p


class TestCentreInfeasible:
    """Programs whose box centre fails the closed-form start keep the LP
    fallback: statuses, gap reports and values against HiGHS (LPs) and the
    KKT oracle (QPs)."""

    @staticmethod
    def check(prog, e, p):
        assert np.all((p > prog.x_lo) & (p < prog.x_hi)) and prog.feasible(p)
        centre = duality._centre_point(prog)
        if centre is not None:   # the cut: the centre violates a cone row
            gA, gb = prog._ineq_rows
            assert np.any(gA @ centre > gb)
        rep = duality_gap_report(prog, e)
        assert rep.primal_status == rep.dual_status == "optimal"
        assert rep.slater.satisfied and rep.slater.h_neighborhood and rep.gap_ok
        assert abs(rep.gap) <= 1e-5
        assert rep.slater.margin > 0 and prog.feasible(rep.slater.witness)
        return solve_primal(prog)

    @pytest.mark.parametrize("variant", ["cut", "equality"])
    def test_lps_against_highs(self, variant):
        rng = np.random.default_rng([41, variant == "cut"])
        for _ in range(20):
            prog, e, p = centre_infeasible_program(rng, "lp", variant)
            primal = self.check(prog, e, p)
            ref = linprog(prog.q, A_ub=prog.G, b_ub=-prog.g0, A_eq=prog.H,
                          b_eq=None if prog.H is None else -prog.h0,
                          bounds=list(zip(prog.x_lo, prog.x_hi)), method="highs")
            assert ref.status == 0
            v = ref.fun + prog.c
            assert abs(primal.value - v) <= 1e-7 * max(1.0, abs(v))
            assert kkt_residual(prog, primal) <= 1e-9

    @pytest.mark.parametrize("variant", ["cut", "equality"])
    def test_qps_against_the_kkt_oracle(self, monkeypatch, variant):
        phase1 = []
        feasible_set_lp = duality._feasible_set_lp
        monkeypatch.setattr(duality, "_feasible_set_lp",
                            lambda *a: phase1.append(a) or feasible_set_lp(*a))
        rng = np.random.default_rng([42, variant == "cut"])
        for i in range(20):
            prog, e, p = centre_infeasible_program(rng, "qp", variant)
            primal = self.check(prog, e, p)
            assert primal.status == "optimal" and kkt_residual(prog, primal) <= 1e-9
            assert len(phase1) == 2 * (i + 1)   # the gap report's solve and this one


def test_no_lp_built_in_src_takes_a_cleanup_pivot(monkeypatch):
    """Every LP the library builds starts the simplex dual feasible at the
    bound each cost favours, so the primal clean-up after the dual loop
    pivots nowhere: on criterion 5's programs, on the centre-infeasible
    programs (whose search and h-interior LPs run) and on the torsion grid
    12. Beale's LP, whose costs are negative on columns unbounded above,
    shows that the counter sees clean-up pivots."""
    pivots = []
    loop = numkernel._simplex_loop

    def counted(T, xb, basis, upper, sgn, tols, iters):
        status, done = loop(T, xb, basis, upper, sgn, tols, iters)
        pivots.append(done - iters)
        return status, done

    monkeypatch.setattr(numkernel, "_simplex_loop", counted)
    rng = np.random.default_rng(105)   # criterion 5's programs and draws
    for k in range(100):
        prog, e = random_box_program(rng, kind="qp" if k % 2 == 0 else "lp")
        duality_gap_report(prog, e)
        for _ in range(20):
            random_multipliers(rng, prog)
    for kind, seed in (("lp", 41), ("qp", 42)):
        for variant in ("cut", "equality"):
            rng = np.random.default_rng([seed, variant == "cut"])
            for _ in range(20):
                prog, e, _ = centre_infeasible_program(rng, kind, variant)
                assert duality_gap_report(prog, e).slater.satisfied
    run_torsion_demo(n_grid=12)
    assert len(pivots) > 200 and max(pivots) == 0
    c = np.array([-0.75, 20.0, -0.5, 6.0])
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    numkernel.solve_lp(numkernel.LPProblem(cost=c, ineq_lhs=-A, ineq_rhs=-np.array([0.0, 0.0, 1.0]),
                                           lower=np.zeros(4)))
    assert pivots[-1] > 0


class TestNoLPFromTheCentre:
    """Where the centre point answers, no simplex LP runs."""

    @pytest.fixture
    def no_lp(self, monkeypatch):
        def refuse(lp):
            raise AssertionError("a simplex LP ran")
        monkeypatch.setattr(duality, "solve_lp", refuse)

    def test_qp_solve_and_gap_report(self, no_lp):
        rng = np.random.default_rng(45)
        for _ in range(20):
            prog, e = random_box_program(rng, "qp")
            primal = solve_primal(prog)
            assert primal.status == "optimal" and kkt_residual(prog, primal) <= 1e-9
            rep = duality_gap_report(prog, e)
            assert rep.slater.satisfied and rep.gap_ok and rep.slater.h_neighborhood
            assert rep.primal_value == primal.value

    @pytest.mark.parametrize("kind", ["qp", "lp"])
    def test_slater_check(self, no_lp, kind):
        # the margin read at the centre is a lower bound on the search LP's
        # maximum, and the witness is feasible
        rng = np.random.default_rng([46, kind == "qp"])
        for _ in range(20):
            prog, e = random_box_program(rng, kind, n_max=12, m_max=6)
            rep = check_modified_slater(prog, e)
            assert rep.satisfied and rep.h_neighborhood
            A = prog.cone_y.halfspaces
            assert rep.margin == np.min(A @ -prog.g(rep.witness)) > 0
            assert prog.feasible(rep.witness)
            # max t over the box and h = 0 with A(-g(x)) >= t
            nv = prog.n + 1
            ref = linprog(-np.eye(nv)[-1], A_ub=np.hstack([A @ prog.G, np.ones((prog.m, 1))]),
                          b_ub=-(A @ prog.g0),
                          A_eq=None if prog.H is None else np.hstack([prog.H, [[0.0]]]),
                          b_eq=None if prog.H is None else -prog.h0,
                          bounds=list(zip(prog.x_lo, prog.x_hi)) + [(None, None)],
                          method="highs")
            assert ref.status == 0 and rep.margin <= -ref.fun + 1e-9

    def test_hausdorff_3d(self, no_lp):
        cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
                        dtype=float)
        assert hausdorff_distance(cube, cube + [0.0, 0.0, 3.0])[0] == pytest.approx(3.0)
        assert hausdorff_distance(cube, 2.0 * cube)[0] == pytest.approx(math.sqrt(3.0))

    def test_hausdorff_to_one_point(self, no_lp):
        # the one weight is 1: no QP, and the values of the QP route bit for bit
        cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
                        dtype=float)
        point = np.array([[0.0, 0.0, 3.0]])
        for A, B in ((cube, point), (point, cube)):
            dist, info = hausdorff_distance(A, B)
            assert dist == 4.242640687119285
            assert info["certificate_direction"] == [
                -0.23570226039551587, -0.23570226039551587, -0.9428090415820635]


class TestStatusReporting:
    @pytest.mark.parametrize("status", ["numerical", "iteration-cap"])
    def test_phase1_status_returned(self, monkeypatch, status):
        # x1 + x2 >= 1.5 on [0, 1]^2: the centre violates the cone row, so
        # the QP needs the phase-1 LP
        prog = BoxProgram(n=2, Q=np.eye(2), q=np.ones(2), c=0.0, x_lo=np.zeros(2),
                          x_hi=np.ones(2), G=[[-1.0, -1.0]], g0=[1.5],
                          cone_y=coordinate_cone(1))
        monkeypatch.setattr(duality, "_feasible_set_lp", lambda p, *_: SolveReport(
            status=status, point=0.5 * (p.x_lo + p.x_hi), iterations=7))
        rep = solve_primal(prog)
        assert rep.status == status and rep.x is None and rep.iterations == 7

    def test_residual_gate_relative_to_gradient(self, monkeypatch):
        # min 0.5 x^2 - 101 x on [0, 1]: x = 1 with gradient -100 there, so
        # the gate admits residuals up to kkt * 100
        prog = BoxProgram(n=1, Q=[[1.0]], q=[-101.0], c=0.0, x_lo=[0.0], x_hi=[1.0])
        kkt = duality.default_tolerances().kkt
        for residual, status in [(50 * kkt, "optimal"), (200 * kkt, "numerical")]:
            monkeypatch.setattr(duality, "_kkt_residual", lambda *a, r=residual: r)
            rep = solve_primal(prog)
            assert rep.status == status and rep.kkt_residual == residual
            assert rep.x == pytest.approx([1.0])

    @pytest.mark.parametrize("status", ["numerical", "iteration-cap"])
    @pytest.mark.parametrize("m", [0, 1])
    def test_failed_h_interior_lp_is_reported(self, monkeypatch, status, m):
        # h(x) = x1 + x2 - 1 = 0 on [0, 1] x [0, 10], with and without a cone
        # row; the centre moved onto h = 0 is (-1.75, 2.75), outside the box,
        # so the h-interior LP (its 2n box rows) runs, and only it fails
        cone_rows = dict(G=[[1.0, 0.0]], g0=[-2.0], cone_y=coordinate_cone(1)) if m else {}
        prog = BoxProgram(n=2, Q=None, q=[0.0, 0.0], c=0.0, x_lo=[0.0, 0.0],
                          x_hi=[1.0, 10.0], H=[[1.0, 1.0]], h0=[-1.0], **cone_rows)
        assert duality._centre_point(prog) is None
        solve_lp = duality.solve_lp
        monkeypatch.setattr(duality, "solve_lp", lambda lp: SolveReport(status=status)
                            if lp.ineq_lhs.shape[0] == 2 * prog.n else solve_lp(lp))
        rep = check_modified_slater(prog, [1.0] if m else None)
        assert rep.h_neighborhood is None
        assert f"h-interior LP returned {status}" in rep.diagnosis
        assert rep.satisfied == bool(m)   # without a cone row Slater is undecided


class TestScaleInvariance:
    """No status and no minimizer depends on how the input is scaled."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.floats(1e-3, 1e3))
    def test_objective_scaling(self, seed, s):
        # rank-deficient Q included: the path, zero-curvature rays and all,
        # does not depend on the scale of f
        prog, _ = random_box_program(np.random.default_rng(seed), "qp",
                                     n_max=10, m_max=8)
        base = solve_primal(prog)
        scaled = solve_primal(dataclasses.replace(prog, Q=s * prog.Q, q=s * prog.q,
                                                  c=s * prog.c))
        assert base.status == scaled.status == "optimal"
        assert np.allclose(scaled.x, base.x, rtol=0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_constraint_row_scaling(self, seed, data):
        # positive definite Q: the minimizer does not depend on the vertex
        # that phase 1 finds for the rescaled rows
        prog, _ = random_box_program(np.random.default_rng(seed), "qp",
                                     n_max=10, m_max=8)
        prog = dataclasses.replace(prog, Q=prog.Q + 0.05 * np.eye(prog.n))
        t = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=prog.m,
                                        max_size=prog.m)))
        base = solve_primal(prog)
        scaled = solve_primal(dataclasses.replace(prog, G=t[:, None] * prog.G,
                                                  g0=t * prog.g0))
        assert base.status == scaled.status == "optimal"
        assert np.allclose(scaled.x, base.x, rtol=0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["qp", "lp"]), st.floats(-8.0, 8.0))
    def test_gap_report_objective_scaling(self, seed, kind, log_s):
        prog, e = random_box_program(np.random.default_rng(seed), kind,
                                     n_max=24, m_max=16)
        s = 10.0 ** log_s
        base = duality_gap_report(prog, e)
        scaled = duality_gap_report(dataclasses.replace(
            prog, Q=s * prog.Q, q=s * prog.q, c=s * prog.c), e)
        assert (scaled.primal_status, scaled.dual_status, scaled.gap_ok) == \
            (base.primal_status, base.dual_status, base.gap_ok)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["qp", "lp"]), st.integers(-10, 10),
           st.booleans())
    @example(0, "qp", -10, False)
    def test_slater_constraint_scaling(self, seed, kind, log_s, tight):
        # the margin is read against the scale of the cone rows; with a row
        # pinned at g_0(x) = 0 the margin is 0 and Slater fails at every scale
        prog, e = random_box_program(np.random.default_rng(seed), kind)
        if tight:
            prog = dataclasses.replace(prog, G=np.vstack([0.0 * prog.G[:1], prog.G[1:]]),
                                       g0=np.concatenate([[0.0], prog.g0[1:]]))
        s = 10.0 ** log_s
        base = check_modified_slater(prog, e)
        scaled = check_modified_slater(dataclasses.replace(prog, G=s * prog.G,
                                                           g0=s * prog.g0), e)
        assert base.satisfied == (not tight)
        assert scaled.satisfied == base.satisfied


def simplicial_cone(rng, m):
    """A random simplicial cone given by both of its descriptions."""
    gens = np.eye(m) + 0.25 * rng.uniform(-1.0, 1.0, size=(m, m))
    return PolyhedralCone(m, generators=gens, halfspaces=np.linalg.inv(gens).T)


class TestDualOracles:
    """The dual value at the primal's multipliers against solvers that share
    no code with the library."""

    def test_qp_against_lbfgsb(self):
        rng = np.random.default_rng(32)
        for k in range(40):
            prog, _ = random_box_program(rng, "qp", n_max=40, m_max=24, with_h=False)
            prog = dataclasses.replace(prog, Q=prog.Q + 0.05 * np.eye(prog.n))
            if k % 3 == 0:   # -g(centre) = C's generators times w > 0
                cone = simplicial_cone(rng, prog.m)
                centre = 0.5 * (prog.x_lo + prog.x_hi)
                g0 = -(prog.G @ centre) - cone.generators.T @ rng.uniform(0.5, 1.5, prog.m)
                prog = dataclasses.replace(prog, g0=g0, cone_y=cone)
            dual = solve_dual(prog)
            dual.multipliers.validate(prog)
            assert dual.status == "optimal"
            assert abs(dual.value - qp_dual_value(prog)) <= 1e-6

    def test_lp_against_highs(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            prog, _ = random_box_program(rng, "lp", n_max=40, m_max=24)
            ref = linprog(prog.q, A_ub=prog.G, b_ub=-prog.g0, A_eq=prog.H,
                          b_eq=None if prog.H is None else -prog.h0,
                          bounds=list(zip(prog.x_lo, prog.x_hi)), method="highs")
            v = ref.fun + prog.c
            dual = solve_dual(prog)
            dual.multipliers.validate(prog)
            assert dual.status == "optimal"
            assert abs(dual.value - v) <= 1e-7 * max(1.0, abs(v))


class TestLPMultipliersFromSimplex:
    """An LP's KKT multipliers are read off the simplex's row duals: the
    active-set method never runs on it, and its iterations are the pivots."""

    @pytest.fixture
    def no_active_set(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the active-set QP ran on an LP")
        monkeypatch.setattr(duality, "_active_set_qp", refuse)

    @staticmethod
    def check(prog, e):
        primal = solve_primal(prog)
        assert primal.status == "optimal"
        assert kkt_residual(prog, primal) <= 1e-9
        assert primal.iterations == duality._feasible_set_lp(prog, prog.q).iterations
        rep = duality_gap_report(prog, e)
        assert rep.primal_status == rep.dual_status == "optimal"
        assert abs(rep.gap) <= 1e-9

    @pytest.mark.parametrize("n_max, m_max", [(6, 4), (40, 24)])
    @pytest.mark.parametrize("with_h", [False, True])
    def test_random_lps(self, no_active_set, n_max, m_max, with_h):
        rng = np.random.default_rng([n_max, with_h])
        for _ in range(15):
            self.check(*random_box_program(rng, "lp", n_max=n_max, m_max=m_max,
                                           with_h=with_h))

    def test_general_cone(self, no_active_set):
        # -g(centre) = the cone's generators times w > 0
        rng = np.random.default_rng(43)
        for _ in range(15):
            prog, _ = random_box_program(rng, "lp", n_max=12, m_max=6)
            cone = simplicial_cone(rng, prog.m)
            centre = 0.5 * (prog.x_lo + prog.x_hi)
            g0 = -(prog.G @ centre) - cone.generators.T @ rng.uniform(0.5, 1.5, prog.m)
            prog = dataclasses.replace(prog, g0=g0, cone_y=cone)
            e = cone.generators.sum(axis=0)
            self.check(prog, e / np.linalg.norm(e))

    def test_duplicated_equality_row(self, no_active_set):
        # a dependent equality row stays basic in the simplex at zero
        rng = np.random.default_rng(44)
        for _ in range(10):
            prog, e = random_box_program(rng, "lp", n_max=12, with_h=True)
            prog = dataclasses.replace(prog, H=np.vstack([prog.H, prog.H]),
                                       h0=np.concatenate([prog.h0, prog.h0]))
            self.check(prog, e)

    def test_quadratic_runs_the_active_set(self, monkeypatch):
        calls = []
        active_set = duality._active_set_qp
        monkeypatch.setattr(duality, "_active_set_qp",
                            lambda *a: calls.append(a) or active_set(*a))
        prog, _ = random_box_program(np.random.default_rng(4), "qp")
        assert solve_primal(prog).status == "optimal" and len(calls) == 1


class TestDualSolve:
    def test_unconstrained_quadratic(self):
        prog = BoxProgram(n=2, Q=np.eye(2), q=[0.0, 0.0], c=0.0,
                          x_lo=[-1.0, -1.0], x_hi=[1.0, 1.0])
        primal = solve_primal(prog)
        dual = solve_dual(prog, primal)
        assert dual.value == pytest.approx(primal.value, abs=1e-9)

    def test_lp_duality(self):
        dual = solve_dual(lp_example())
        assert dual.status == "optimal"
        assert dual.value == pytest.approx(1.0, abs=1e-9)
        assert dual.multipliers.y[0] == pytest.approx(1.0, abs=1e-9)

    def test_ascent_without_seed(self):
        prog = BoxProgram(n=2, Q=2 * np.eye(2), q=[1.0, -1.0], c=0.0,
                          x_lo=[0.0, 0.0], x_hi=[1.0, 1.0])
        primal = solve_primal(prog)
        dual = solve_dual(prog)
        assert primal.value - dual.value <= 1e-5
        assert dual.value <= primal.value + 1e-9

    def test_status_rules(self):
        # min x1 + x2 on [0, 1]^2: zero multipliers leave the Lagrangian
        # unbounded below; a failed primal passes its status on
        prog = lp_example()
        primal = solve_primal(prog)
        stale = dataclasses.replace(primal, multipliers=zero_multipliers(prog))
        dual = solve_dual(prog, stale)
        assert dual.status == "numerical" and dual.value == -math.inf
        capped = dataclasses.replace(primal, status="iteration-cap", multipliers=None)
        dual = solve_dual(prog, capped)
        assert dual.status == "iteration-cap" and dual.capped
        assert dual.iterations == 0 and solve_dual(prog).iterations == primal.iterations

    def test_slater_violating_weak_duality(self):
        prog = BoxProgram(n=1, Q=[[1.0]], q=[0.0], c=0.0, x_lo=[0.0], x_hi=[1.0],
                          G=[[1.0]], g0=[0.0], cone_y=coordinate_cone(1))
        rep = duality_gap_report(prog, [1.0])
        assert not rep.slater.satisfied
        assert rep.dual_value <= rep.primal_value + 1e-9
        assert not rep.gap_asserted


class TestGapReport:
    def test_qp_gap(self):
        prog = BoxProgram(n=1, Q=[[1.0]], q=[1.0], c=0.0, x_lo=[0.0], x_hi=[2.0],
                          G=[[1.0]], g0=[-1.0], cone_y=coordinate_cone(1))
        rep = duality_gap_report(prog, [1.0])
        # hand KKT: x* = 0, value 0, lower bound active with multiplier 1
        assert rep.primal_value == pytest.approx(0.0, abs=1e-9)
        assert rep.gap <= 1e-5 and rep.slater.satisfied and rep.gap_ok

    def test_lp_gap_tight(self):
        rep = duality_gap_report(lp_example(), [1.0])
        assert abs(rep.gap) <= 1e-7

    def test_weak_duality_on_samples(self):
        rng = np.random.default_rng(27)
        for _ in range(15):
            prog, e = random_box_program(rng)
            primal = solve_primal(prog)
            for _ in range(10):
                mult = random_multipliers(rng, prog)
                dv = dual_value(prog, mult)
                if math.isfinite(dv):
                    assert dv <= primal.value + 1e-9

    def test_multipliers_lifted(self):
        # (y o e', x1 o pi, x2 o pi, z) with pi = x_b - x_a and e' the
        # normalised e - g(witness)
        prog = BoxProgram(n=3, Q=np.eye(3), q=[2.0, -3.0, 0.5], c=0.0,
                          x_lo=[-1.0, 0.0, -2.0], x_hi=[1.0, 3.0, 2.0],
                          G=[[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], g0=[-1.5, -1.0],
                          cone_y=coordinate_cone(2), H=[[1.0, 0.0, 1.0]], h0=[0.2])
        e = np.array([1.0, 2.0])
        d = duality_gap_report(prog, e).to_dict()
        assert d["slater"]["satisfied"] and d["gap_ok"]
        raw = e - prog.g(np.array(d["slater"]["witness"]))
        pi = prog.x_hi - prog.x_lo
        mult = {k: np.array(v) for k, v in d["multipliers"].items()}
        expected = {"y": mult["y"] * raw / np.linalg.norm(raw), "x1": mult["x1"] * pi,
                    "x2": mult["x2"] * pi, "z": mult["z"]}
        assert d["multipliers_lifted"].keys() == expected.keys()
        for key, value in expected.items():
            np.testing.assert_allclose(d["multipliers_lifted"][key], value,
                                       rtol=1e-12, atol=0)
        # y, x1 and z are nonzero here, so each lift is exercised
        assert all(np.any(mult[k] != 0) for k in ("y", "x1", "z"))

    def test_centre_least_squares_runs_once(self, monkeypatch):
        # a quadratic gap report reads the centre point in the Slater check
        # and in the primal solve; the least-squares step onto h = 0 runs once
        prog = BoxProgram(n=2, Q=np.eye(2), q=[1.0, -1.0], c=0.0,
                          x_lo=[-1.0, -1.0], x_hi=[1.0, 2.0], G=[[1.0, 0.0]],
                          g0=[-2.0], cone_y=coordinate_cone(1),
                          H=[[1.0, 2.0]], h0=[-0.5])
        lstsq, calls = np.linalg.lstsq, []

        def spy(a, *args, **kwargs):
            calls.append(a is prog.H)
            return lstsq(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        rep = duality_gap_report(prog, [1.0])
        assert rep.primal_status == "optimal" and rep.slater.satisfied
        assert sum(calls) == 1

    def test_general_cone_constraint(self):
        cone = PolyhedralCone(2, generators=[[1.0, 0.2], [0.2, 1.0]])
        prog = BoxProgram(n=2, Q=np.eye(2), q=[0.5, -0.3], c=0.0,
                          x_lo=[-1.0, -1.0], x_hi=[1.0, 1.0],
                          G=[[1.0, 0.0], [0.0, 1.0]], g0=[-0.4, -0.4],
                          cone_y=cone)
        e = np.array([1.0, 1.0])
        rep = duality_gap_report(prog, e)
        assert rep.slater.satisfied
        assert rep.gap <= 1e-5


class TestCertificates:
    def test_scalar_left_bound(self):
        obj = VectorObjective(lins=[[0.0]], consts=[0.0], quads=[np.array([[2.0]])])
        cert = stationarity_certificate(obj, coordinate_cone(1), [1.0],
                                        [1.0], [1.0], [2.0])
        assert isinstance(cert, StationarityCertificate)
        assert cert.y_star[0] == pytest.approx(1.0)
        assert cert.normal[0] == pytest.approx(-2.0)
        assert max(cert.residuals.values()) <= 1e-8

    def test_interior_nonzero_gradient_refused(self):
        obj = VectorObjective(lins=[[1.0]], consts=[0.0])
        ref = stationarity_certificate(obj, coordinate_cone(1), [1.0],
                                       [1.5], [1.0], [2.0])
        assert isinstance(ref, CertificateRefusal)
        assert ref.farkas is not None
        assert verify_farkas(ref.lp, ref.farkas)

    def test_vanishing_gradient_certified(self):
        """A gradient at rounding level meets the Fermat rule: interior, and
        of the wrong sign at an active bound; the rows are not rescaled to
        strict conditions on y*."""
        for lin, x_bar in ((1e-12, 1.5), (-1e-14, 1.0)):
            obj = VectorObjective(lins=[[lin]], consts=[0.0])
            cert = stationarity_certificate(obj, coordinate_cone(1), [1.0],
                                            [x_bar], [1.0], [2.0])
            assert isinstance(cert, StationarityCertificate)
            assert cert.residuals["normal_cone"] == pytest.approx(abs(lin))

    def test_opposing_gradients_balanced(self):
        obj = VectorObjective(lins=[[1.0], [-1.0]], consts=[0.0, 0.0])
        cert = stationarity_certificate(obj, coordinate_cone(2), [1.0, 1.0],
                                        [1.5], [1.0], [2.0])
        assert isinstance(cert, StationarityCertificate)
        assert np.allclose(cert.y_star, [0.5, 0.5])

    def test_refused_certificate_lp_rows(self):
        # coordinates: lower-active, upper-active, active at both bounds,
        # inactive, and inactive with a vanishing column. Rows: the cone's
        # generators, then the one-sided columns in coordinate order (an
        # upper-active one negated, so its 0 becomes -0.0); equalities: e,
        # then the inactive columns. y1 = 0 and y1 = 2 y2 leave no y with
        # y1 + y2 = 1.
        obj = VectorObjective(lins=[[1.0, 3.0, 5.0, 1.0, 1e-8],
                                    [2.0, 0.0, 5.0, -2.0, -1e-8]], consts=[0.0, 0.0])
        ref = stationarity_certificate(obj, coordinate_cone(2), [1.0, 1.0],
                                       [0.0, 1.0, 0.0, 0.5, 0.5],
                                       [0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 1.0, 1.0])
        assert isinstance(ref, CertificateRefusal)
        expected = {"ineq_lhs": [[1.0, 0.0], [0.0, 1.0], [1.0, 2.0], [-3.0, -0.0]],
                    "ineq_rhs": [0.0, 0.0, 0.0, 0.0],
                    "eq_lhs": [[1.0, 1.0], [1.0, -2.0]], "eq_rhs": [1.0, 0.0]}
        for name, rows in expected.items():
            assert getattr(ref.lp, name).tobytes() == np.array(rows).tobytes(), name
        assert verify_farkas(ref.lp, ref.farkas)

    def test_outside_box_refused(self):
        obj = VectorObjective(lins=[[1.0]], consts=[0.0])
        ref = stationarity_certificate(obj, coordinate_cone(1), [1.0],
                                       [5.0], [1.0], [2.0])
        assert isinstance(ref, CertificateRefusal)
        assert "outside" in ref.reason

    def test_solve_primal_output_certifies(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            B = rng.normal(size=(n, n))
            prog = BoxProgram(n=n, Q=B.T @ B + 0.1 * np.eye(n),
                              q=rng.normal(size=n), c=0.0,
                              x_lo=-np.ones(n), x_hi=np.ones(n))
            rep = solve_primal(prog)
            obj = VectorObjective(lins=prog.q[None, :], consts=[prog.c],
                                  quads=[prog.Q])
            cert = stationarity_certificate(obj, coordinate_cone(1), [1.0],
                                            rep.x, prog.x_lo, prog.x_hi)
            assert isinstance(cert, StationarityCertificate)
            assert max(cert.residuals.values()) <= 1e-8


class TestMultiplierValidation:
    def test_valid(self):
        prog = lp_example()
        Multipliers(y=np.array([2.0]), x1=np.zeros(2), x2=np.zeros(2),
                    z=np.zeros(0)).validate(prog)

    def test_outside_dual_cone(self):
        prog = lp_example()
        with pytest.raises(ValueError):
            Multipliers(y=np.array([-1.0]), x1=np.zeros(2), x2=np.zeros(2),
                        z=np.zeros(0)).validate(prog)

    def test_negative_box_multiplier(self):
        prog = lp_example()
        with pytest.raises(ValueError):
            Multipliers(y=np.zeros(1), x1=np.array([-1e-6, 0.0]),
                        x2=np.zeros(2), z=np.zeros(0)).validate(prog)


@pytest.mark.parametrize("grid", [12, 24, 48, 96])
def test_torsion_demo_against_its_closed_form(grid):
    """u' = clip(load (1/2 - x), -1, 1) at load 8: the limits derived in
    build_torsion_program's docstring. The peak density is 3 - 4 h exactly
    there, so its limit carries a rounding allowance of 1e-9."""
    load, h = 8.0, 1.0 / (grid + 1)
    tor = run_torsion_demo(n_grid=grid, load=load)
    x = h * np.arange(1, grid + 1)
    ramp = np.minimum(x, 1.0 - x)   # u where |u'| = 1
    middle = 0.375 + 4.0 * x - 4.0 * x ** 2 - 0.9375   # u on [3/8, 5/8]
    exact = np.where((x > 0.375) & (x < 0.625), middle, ramp)
    assert np.max(np.abs(tor.solution - exact)) <= 0.6 * h ** 2
    y = np.asarray(tor.gap_report["multipliers"]["y"])
    assert abs(np.max(y) / h - (load / 2 - 1)) <= 4 * h + 1e-9
    assert abs(np.sum(y) - 1.125) <= 5e-3


@pytest.mark.parametrize("seed", range(5))
def test_vi_demo_point_is_its_box_qps_exact_minimizer(seed):
    """The VI demo's point is solve_primal's on the box QP min 0.5 x'W T x.
    W T has positive entries and the box lies in the positive cone, so the
    gradient is positive there and the minimizer is the lower corner, on
    which every coordinate sits exactly."""
    n = 6
    rng = np.random.default_rng(seed)
    R = rng.uniform(0.0, 1.0, size=(n, n))
    T = np.eye(n) + 0.3 * (R + R.T) / 2
    x_lo, x_hi = 0.1 * np.ones(n), 1.0 + rng.uniform(0.0, 0.5, size=n)
    rep = solve_primal(BoxProgram(n=n, Q=np.diag(np.full(n, 1.0 / n)) @ T,
                                  q=np.zeros(n), c=0.0, x_lo=x_lo, x_hi=x_hi))
    vi = run_vi_demo(seed=seed, n=n)
    assert rep.status == "optimal"
    assert np.array_equal(vi.point, rep.x) and np.array_equal(vi.point, x_lo)
    assert vi.certified
