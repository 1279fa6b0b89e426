"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines live. Every
tolerance is pinned here; the randomized suites use fixed seeds so a green
run is reproducible bit for bit.
"""
import math
import time

import numpy as np

from conegen.cones import PolyhedralCone, coordinate_cone
from conegen.duality import (StationarityCertificate, VectorObjective,
                             dual_value, duality_gap_report,
                             random_box_program, solve_primal,
                             stationarity_certificate)
from conegen.demos import build_torsion_program, run_torsion_demo, run_vi_demo
from conegen.gauge import GaugeBody, equivalence_constant
from conegen.lattice import (convex_hull_2d, hausdorff_distance,
                             hausdorff_distance_definitional, support_values)
from conegen.numkernel import verify_farkas
from conegen.penalty import random_instance, verify_penalty_equivalence
from conegen.scalarization import GerstewitzFn
from duality_oracle import random_multipliers
from lp_oracle import gauge_lp, oracle_cones, phi_lp, qp_dual_value


def _finish(name, failures, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status} ({elapsed:.2f}s, budget {budget}s)")
    assert not failures, failures[:10]
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded {budget}s"


def test_criterion_1_gauge_isometry_suite():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(101)
    for k in range(500):
        n = int(rng.integers(1, 21))
        u = rng.uniform(0.1, 3.0, n)
        body = GaugeBody(coordinate_cone(n), u)
        X = rng.normal(size=(10, n)) * rng.uniform(0.1, 5.0)
        gauges = body.gauge_many(X)
        for x, g in zip(X, gauges):
            gap = abs(np.max(np.abs(body.isometry_image(x))) - g)
            if gap > 1e-12:
                failures.append(("isometry", k, gap))
        x = X[0]
        if abs(gauge_lp(body.cone, u, x) - gauges[0]) > 1e-9:
            failures.append(("lp-vs-fast", k))
    for name, (cone, base) in oracle_cones().items():
        for k in range(20):
            body = GaugeBody(cone, base + 0.3 * rng.uniform(-1, 1, cone.dim))
            X = rng.normal(size=(10, cone.dim)) * rng.uniform(0.1, 5.0)
            gauges = body.gauge_many(X)
            for x, g in zip(X, gauges):
                if abs(gauge_lp(cone, body.u, x) - g) > 1e-9 or \
                        abs(body.gauge(x) - g) > 1e-12 * max(1.0, g):
                    failures.append(("lp-vs-fast", name, k))
    # Example 4.1' truncations, exact equality
    for n in range(1, 21):
        u = 0.5 ** np.arange(1, n + 1)
        body = GaugeBody(coordinate_cone(n), u)
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        if body.gauge(signs * u) != 1.0:
            failures.append(("extreme-point", n))
        for k in range(1, n + 1):
            if body.gauge(np.eye(n)[k - 1]) != 2.0 ** k:
                failures.append(("basis-vector", n, k))
    _finish("criterion 1 (gauge/isometry)", failures, t0, 10)


def test_criterion_2_equivalence_constants_suite():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(102)
    wedge = PolyhedralCone(2, generators=[[1.0, 0.0], [1.0, 1.0]])
    cone3 = PolyhedralCone(3, generators=[[1, 0, 0.4], [0, 1, 0.4],
                                          [-1, 0, 0.4], [0, -1, 0.4]])
    for k in range(200):
        if k < 150:
            n = int(rng.integers(2, 9))
            cone = coordinate_cone(n)
            u = rng.uniform(0.2, 3.0, n)
            v = rng.uniform(0.2, 3.0, n)
        else:
            cone = wedge if k % 2 == 0 else cone3
            base = np.sum(cone.generators, axis=0)
            u = base + 0.3 * rng.uniform(-1, 1, cone.dim)
            v = base + 0.3 * rng.uniform(-1, 1, cone.dim)
            if not (cone.interior_contains(u) and cone.interior_contains(v)):
                continue
        c = equivalence_constant(cone, u, v)
        bu, bv = GaugeBody(cone, u), GaugeBody(cone, v)
        X = rng.normal(size=(100, cone.dim))
        gu, gv = bu.gauge_many(X), bv.gauge_many(X)
        if np.any(gv > c * gu + 1e-9) or np.any(gv < gu / c - 1e-9):
            failures.append(("sandwich", k))
        witness_ratio = max(bv.gauge(u) / bu.gauge(u), bu.gauge(v) / bv.gauge(v))
        if abs(witness_ratio - c) > 1e-9 and c > 1.0 + 1e-12:
            failures.append(("tightness", k, witness_ratio, c))
    _finish("criterion 2 (equivalence constants)", failures, t0, 10)


def test_criterion_3_gerstewitz_suite():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(103)
    wedge = PolyhedralCone(2, halfspaces=[[1.0, 0.0], [1.0, 1.0]])
    cone3 = PolyhedralCone(3, generators=[[1, 0, 0.5], [0, 1, 0.5],
                                          [-1, -1, 1.0]])
    setups = [
        GerstewitzFn(coordinate_cone(2), [1.0, 1.0]),
        GerstewitzFn(coordinate_cone(3), [0.5, 1.0, 2.0]),
        GerstewitzFn(wedge, [1.0, 0.0]),
        GerstewitzFn(cone3, np.sum(cone3.generators, axis=0)),
    ]
    for fn in setups:
        d = fn.cone.dim
        gens = fn.cone.generators
        Y1 = rng.normal(size=(1000, d)) * 2.0
        Y2 = rng.normal(size=(1000, d)) * 2.0
        S = rng.normal(size=1000)
        As = np.abs(rng.normal(size=1000))
        v1 = fn.value_many(Y1)
        v2 = fn.value_many(Y2)
        if np.max(np.abs(fn.value_many(Y1 + S[:, None] * fn.e) - (v1 + S))) > 1e-9:
            failures.append((fn.cone.kind, d, "translation"))
        up = Y1 + np.abs(rng.normal(size=(1000, gens.shape[0]))) @ gens
        if np.max(v1 - fn.value_many(up)) > 1e-9:
            failures.append((fn.cone.kind, d, "monotonicity"))
        if np.max(fn.value_many(Y1 + Y2) - (v1 + v2)) > 1e-9:
            failures.append((fn.cone.kind, d, "subadditivity"))
        if np.max(np.abs(fn.value_many(As[:, None] * Y1) - As * v1)) > 1e-9:
            failures.append((fn.cone.kind, d, "homogeneity"))
        H = fn.cone.halfspaces
        at_value = (v1[:, None] * fn.e[None, :] - Y1) @ H.T
        below = ((v1 - 1e-6)[:, None] * fn.e[None, :] - Y1) @ H.T
        if not np.all(np.min(at_value, axis=1) >= -1e-9):
            failures.append((fn.cone.kind, d, "sublevel-at-value"))
        if np.any(np.min(below, axis=1) >= -1e-9):
            failures.append((fn.cone.kind, d, "sublevel-below-value"))
        in_minus_cone = np.all(-Y1 @ H.T >= -1e-9, axis=1)
        if not np.array_equal(v1 <= 1e-12, in_minus_cone):
            failures.append((fn.cone.kind, d, "nonpositivity"))
        for y, v in zip(Y1[:100], v1[:100]):
            if fn.sublevel(y, v) is not True or fn.sublevel(y, v - 1e-6):
                failures.append((fn.cone.kind, d, "sublevel-op"))
        # the defining LP on a subsample, and the single-point path
        for y, v in zip(Y1[:60], v1[:60]):
            if abs(phi_lp(fn.cone, fn.e, y) - v) > 1e-9 or \
                    abs(fn.value(y) - v) > 1e-12 * max(1.0, abs(v)):
                failures.append((fn.cone.kind, d, "lp-vs-ratio"))
        for y in Y1[:50]:
            if not math.isfinite(fn.value(y)):
                continue
            sub = fn.subdifferential(y)
            for w in sub.vertices:
                if np.min(gens @ w) < -1e-9 or abs(w @ fn.e - 1.0) > 1e-9 or \
                        abs(w @ y - sub.value) > 1e-9:
                    failures.append((fn.cone.kind, d, "subdiff-constraints"))
            dvec = rng.normal(size=d)
            dd = fn.directional_derivative(y, dvec)
            fd = (fn.value(y + 1e-5 * dvec) - fn.value(y)) / 1e-5
            if abs(dd - fd) > 1e-4:
                failures.append((fn.cone.kind, d, "directional-vs-fd", dd, fd))
    _finish("criterion 3 (Gerstewitz properties)", failures, t0, 20)


def test_criterion_4_exact_penalty_suite():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(104)
    for k in range(200):
        inst = random_instance(rng)
        rep = verify_penalty_equivalence(inst, 1.1 * inst.rank)
        if not rep.equal:
            failures.append(("equality", k))
        if not rep.inclusion_at_rank:
            failures.append(("inclusion", k))
    _finish("criterion 4 (exact penalty, 200 instances)", failures, t0, 60)


def test_criterion_5_duality_suite():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(105)
    for k in range(100):
        prog, e = random_box_program(rng, kind="qp" if k % 2 == 0 else "lp")
        rep = duality_gap_report(prog, e)
        if not rep.slater.satisfied:
            failures.append(("slater-expected", k))
            continue
        if rep.primal_status != "optimal" or rep.gap is None or rep.gap > 1e-5:
            failures.append(("gap", k, rep.gap))
        for _ in range(20):
            mult = random_multipliers(rng, prog)
            dv = dual_value(prog, mult)
            if math.isfinite(dv) and dv > rep.primal_value + 1e-9:
                failures.append(("weak-duality", k, dv - rep.primal_value))
    _finish("criterion 5 (duality gaps)", failures, t0, 120)


def _recheck_certificate(cert, cone, e, J, x_bar, lo, hi, tol=1e-8):
    """Independent constraint re-check, no library calls."""
    y = cert.y_star
    if np.min(cone.generators @ y) < -tol:
        return False
    if abs(float(y @ e) - 1.0) > tol:
        return False
    s = J.T @ y
    for i in range(x_bar.shape[0]):
        if abs(x_bar[i] - lo[i]) <= 1e-7:
            if -s[i] > tol:
                return False
        elif abs(x_bar[i] - hi[i]) <= 1e-7:
            if s[i] > tol:
                return False
        elif abs(s[i]) > tol:
            return False
    return True


def test_criterion_6_certificate_suite():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(106)
    for k in range(100):
        n = int(rng.integers(1, 6))
        if k % 2 == 0:
            # scalar box QP solved to optimality must certify with y* = 1
            B = rng.normal(size=(n, n))
            Q = B.T @ B + 0.05 * np.eye(n)
            q = rng.normal(size=n)
            prog_args = dict(n=n, Q=Q, q=q, c=0.0, x_lo=-np.ones(n),
                             x_hi=np.ones(n))
            from conegen.duality import BoxProgram
            prog = BoxProgram(**prog_args)
            rep = solve_primal(prog)
            if rep.status != "optimal":
                failures.append(("primal", k))
                continue
            obj = VectorObjective(lins=q[None, :], consts=[0.0], quads=[Q])
            cone = coordinate_cone(1)
            e = np.ones(1)
            cert = stationarity_certificate(obj, cone, e, rep.x, prog.x_lo,
                                            prog.x_hi)
            if not isinstance(cert, StationarityCertificate):
                failures.append(("scalar-refused", k))
                continue
            J = obj.jacobian(rep.x)
            if not _recheck_certificate(cert, cone, e, J, rep.x, prog.x_lo,
                                        prog.x_hi):
                failures.append(("scalar-recheck", k))
        else:
            # vector objective at a box corner: certificate or verified refusal
            m = int(rng.integers(2, 4))
            lins = rng.normal(size=(m, n))
            obj = VectorObjective(lins=lins, consts=rng.normal(size=m))
            cone = coordinate_cone(m)
            e = np.ones(m) / math.sqrt(m)
            lo, hi = -np.ones(n), np.ones(n)
            corner = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            cert = stationarity_certificate(obj, cone, e, corner, lo, hi)
            if isinstance(cert, StationarityCertificate):
                if not _recheck_certificate(cert, cone, e, obj.jacobian(corner),
                                            corner, lo, hi):
                    failures.append(("vector-recheck", k))
            else:
                if cert.farkas is None or not verify_farkas(cert.lp, cert.farkas):
                    failures.append(("refusal-facade", k))
    _finish("criterion 6 (stationarity certificates)", failures, t0, 60)


def test_criterion_7_lattice_suite():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(107)
    for k in range(200):
        A = rng.normal(size=(int(rng.integers(1, 9)), 2)) * rng.uniform(0.3, 2.0)
        B = rng.normal(size=(int(rng.integers(1, 9)), 2)) + rng.uniform(-1, 1, 2)
        support_route, info = hausdorff_distance(A, B)
        if not info["exact"]:
            failures.append(("exact-flag", k))
        if abs(support_route - hausdorff_distance_definitional(A, B)) > 1e-9:
            failures.append(("hoermander", k))
    for k in range(100):
        A, B, C = (rng.normal(size=(5, 2)) for _ in range(3))
        dab = hausdorff_distance(A, B)[0]
        if dab != hausdorff_distance(B, A)[0]:
            failures.append(("symmetry", k))
        if dab > hausdorff_distance(A, C)[0] + hausdorff_distance(C, B)[0] + 1e-9:
            failures.append(("triangle", k))
    theta = 2 * np.pi * np.arange(256) / 256
    D = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for k in range(50):
        A = rng.normal(size=(4, 2))
        B = rng.normal(size=(4, 2))
        join = np.maximum(support_values(A, D), support_values(B, D))
        hull = convex_hull_2d(np.vstack([A, B]))
        if np.max(np.abs(join - support_values(hull, D))) > 1e-12:
            failures.append(("join", k))
    _finish("criterion 7 (lattice/Hausdorff)", failures, t0, 20)


def test_criterion_8_demos():
    t0 = time.time()
    failures = []
    tor = run_torsion_demo(n_grid=12, load=8.0)
    oracle = qp_dual_value(build_torsion_program(12, 8.0))
    if abs(oracle - tor.value) > 1e-6:
        failures.append(("torsion-oracle", oracle, tor.value))
    if not tor.gap_report["gap_ok"]:
        failures.append(("torsion-gap",))
    for seed in range(5):
        vi = run_vi_demo(seed=seed)
        if not vi.certified:
            failures.append(("vi-certificate", seed))
    _finish("criterion 8 (demos)", failures, t0, 60)
