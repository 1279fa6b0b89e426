"""Independent checks of every op's output, run after the timed region.

Each check returns None when the output is verified, or a short reason.
Reasons that start with "status:" mean the library reported that it did not
deliver (an iteration cap, an unexpected status); every other reason is a
wrong answer.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

MEMBERSHIP = 1e-9        # conegen's default membership tolerance
STRICT_NONZERO = 1e-8    # conegen's default strict-order norm threshold
FEAS = 1e-7              # primal feasibility re-check


def _unit_rows(M):
    return M / np.linalg.norm(M, axis=1)[:, None]


def _halfspaces(m, generators):
    """Inward facet normals of the simplicial cone spanned by the rows of
    `generators` (x = G'lam with lam >= 0 iff G^-T x >= 0). By the same
    identity, called on a simplicial cone's halfspaces it gives its rays."""
    if generators is None:
        return np.eye(m)
    return _unit_rows(np.linalg.inv(np.asarray(generators, dtype=float)).T)


def _minimal(V, H):
    """Indices i with no j such that v_j - v_i lies in -C minus a ball: in
    halfspace coordinates, H(v_i - v_j) >= -tol with ||v_j - v_i|| > strict."""
    diff = V[:, None, :] - V[None, :, :]
    memb = np.all(diff @ H.T >= -MEMBERSHIP, axis=2)
    far = np.sqrt(np.sum(diff * diff, axis=2)) > STRICT_NONZERO
    return np.where(~np.any(memb & far, axis=1))[0]


def check_penalty(item, out):
    rep, e = out
    if not rep.equal:
        return "penalty: minimal sets differ at L = 1.1 rank"
    if not rep.inclusion_at_rank:
        return "penalty: inclusion fails at L = rank"
    H = _halfspaces(item["m"], item["generators"])
    pts, vals, mask = item["points"], item["values"], item["mask"]
    omega = np.where(mask)[0]
    diff = pts[:, None, :] - pts[None, omega, :]
    dist = np.min(np.sqrt(np.sum(diff * diff, axis=2)), axis=1)
    m1 = omega[_minimal(vals[omega], H)]
    m2 = _minimal(vals + rep.L * dist[:, None] * e[None, :], H)
    at_rank = _minimal(vals + rep.rank * dist[:, None] * e[None, :], H)
    if not np.array_equal(m1, rep.minimal_constrained):
        return "penalty: constrained minimal set fails the dominance re-check"
    if not np.array_equal(m2, rep.minimal_penalized):
        return "penalty: penalized minimal set fails the dominance re-check"
    if not np.all(np.isin(m1, at_rank)):
        return "penalty: re-checked inclusion at L = rank fails"
    return None


def _feasible(prog, x):
    if x is None:
        return False
    if np.max(prog.x_lo - x) > FEAS or np.max(x - prog.x_hi) > FEAS:
        return False
    if prog.G is not None and np.max(prog.G @ x + prog.g0) > FEAS:
        return False
    return not (prog.H is not None and np.max(np.abs(prog.H @ x + prog.h0)) > FEAS)


def _highs_value(cost, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    return res.fun if res.status == 0 else None


def _matches(value, ref):
    return ref is not None and value is not None and \
        abs(value - ref) <= 1e-7 * max(1.0, abs(ref))


def _check_gap(rep, prog):
    if rep.primal_status != "optimal":
        return f"status: primal_status={rep.primal_status}"
    if not rep.slater.satisfied:
        return "duality: Slater not satisfied on a Slater program"
    if not _feasible(prog, rep.witness):
        return "duality: primal point infeasible"
    if not -1e-9 <= rep.gap <= 1e-5:
        return f"duality: gap {rep.gap:.3e} outside [-1e-9, 1e-5]"
    return None


def check_duality(item, out):
    kind = item["kind"]
    if kind == "boxlp":
        lp = item["lp"]
        if out.status != "optimal":
            return f"status: solve_lp status={out.status}"
        x = out.point
        if np.max(lp.ineq_rhs - lp.ineq_lhs @ x) > FEAS or \
                np.max(np.abs(x)) > 1.0 + FEAS:
            return "boxlp: point infeasible"
        ref = _highs_value(lp.cost, A_ub=-lp.ineq_lhs, b_ub=-lp.ineq_rhs,
                           bounds=list(zip(lp.lower, lp.upper)))
        return None if _matches(out.value, ref) else "boxlp: objective differs from HiGHS"
    if kind == "torsion":
        from workloads import demos
        prog = demos.build_torsion_program(item["grid"], item["load"])
        gap = out.gap_report
        if gap["primal_status"] != "optimal":
            return f"status: torsion primal_status={gap['primal_status']}"
        if not gap["slater"]["satisfied"] or not gap["gap_ok"]:
            return "torsion: Slater or gap check failed"
        if not _feasible(prog, out.solution) or not -1e-9 <= gap["gap"] <= 1e-5:
            return "torsion: infeasible solution or gap out of range"
        return None
    prog = item["prog"]
    reason = _check_gap(out, prog)
    if reason is not None or kind != "lp":
        return reason
    bounds = list(zip(prog.x_lo, prog.x_hi))
    ref = _highs_value(prog.q, A_ub=prog.G, b_ub=-prog.g0,
                       A_eq=prog.H, b_eq=None if prog.H is None else -prog.h0,
                       bounds=bounds)
    if ref is not None:
        ref += prog.c
    return None if _matches(out.primal_value, ref) else "lp: objective differs from HiGHS"


def _hull_distance(p, hull_pts):
    """Euclidean distance from p to the convex polygon with ccw vertices."""
    k = hull_pts.shape[0]
    best, inside = math.inf, True
    for i in range(k):
        a, b = hull_pts[i], hull_pts[(i + 1) % k]
        ab = b - a
        if ab[0] * (p[1] - a[1]) - ab[1] * (p[0] - a[0]) < 0:
            inside = False
        t = min(max(float((p - a) @ ab) / float(ab @ ab), 0.0), 1.0)
        best = min(best, float(np.linalg.norm(p - (a + t * ab))))
    return 0.0 if inside else best


def hausdorff_definitional(A, B):
    ha = A[ConvexHull(A).vertices]
    hb = B[ConvexHull(B).vertices]
    return max(max(_hull_distance(p, hb) for p in ha),
               max(_hull_distance(p, ha) for p in hb))


def _ratio_max(H, x, u, absolute):
    hx = H @ x
    return float(np.max((np.abs(hx) if absolute else hx) / (H @ u)))


def check_pointwise(item, out, ctx):
    op = item["op"]
    if op in ("hausdorff", "isometry"):
        ref = hausdorff_definitional(item["a"], item["b"])
        value = out if op == "hausdorff" else out["support_route"]
        if abs(value - ref) > 1e-9 * max(1.0, ref):
            return f"{op}: support route differs from the definitional route"
        if op == "isometry" and not (out["isometry_holds"] and out["order_preserved"]):
            return "isometry: report says the isometry or the order fails"
        return None
    c = ctx[item["cone"]]
    H, u, x = c["H"], c["u"], item["x"]
    if op == "gauge":
        ref = _ratio_max(H, x, u, True)
        return None if abs(out - ref) <= 1e-9 * max(1.0, ref) else "gauge: value differs"
    phi = _ratio_max(H, x, u, False)
    if op == "value":
        return None if abs(out - phi) <= 1e-9 * max(1.0, abs(phi)) else "phi: value differs"
    if op == "subdiff":
        G = c["G"]
        verts = [out.witness] + ([] if out.vertices is None else list(out.vertices))
        for v in verts:
            if np.min(G @ v) < -1e-8 or abs(v @ u - 1.0) > 1e-8 or \
                    abs(v @ x - phi) > 1e-8 * max(1.0, abs(phi)):
                return "subdiff: a vertex violates a defining constraint"
        return None
    t = 1e-7
    fd = (_ratio_max(H, x + t * item["d"], u, False) - phi) / t
    return None if abs(out - fd) <= 1e-4 else "dirder: differs from a forward difference"


def pointwise_reference(ctx):
    """Independent cone data for the checks: halfspaces of the simplicial
    cones from the generators (and generators from the halfspaces), and the
    pyramid's four facets from cross products of adjacent generators."""
    from workloads import fixed_cones
    ref = {}
    for name, (rep, spec) in fixed_cones().items():
        if rep == "coordinate":
            H = G = np.eye(spec)
        elif rep == "halfspaces":
            H = _unit_rows(spec)
            G = _halfspaces(spec.shape[0], spec)
        elif spec.shape[0] == spec.shape[1]:
            G = _unit_rows(spec)
            H = _halfspaces(spec.shape[0], spec)
        else:
            G = _unit_rows(spec)
            k = spec.shape[0]
            H = _unit_rows(np.array([np.cross(spec[i], spec[(i + 1) % k])
                                     for i in range(k)]))
            H = H * np.sign(H @ spec.sum(axis=0))[:, None]
        ref[name] = {"H": H, "G": G, "u": ctx[name]["u"]}
    return ref
