"""Seeded inputs and operations of the benchmark workloads.

Every workload is a deterministic op stream. The seed draws every op's data
(points, values, matrices, loads); the op's kind and its shape parameters
(sizes, dimensions, ranks, whether an equality row is present) come from a
fixed cycle and from low-discrepancy sequences of the op index k. So every
seed runs the same mix of kinds and sizes, and any prefix of the stream is
spread evenly over the size ranges: run-to-run differences come from the
data, not from a lucky or unlucky draw of sizes.

The weights of each mix are taken from the repo's existing callers (the
acceptance suite, the batch scripts and their instance generators); where no
caller gives a weight, the choice is named as one. WORKLOADS.md lists the
source of every weight.

The library receives only the generated inputs (arrays, BoxProgram and
LPProblem objects, scalars); conegen's own random instance generators are not
used. Library calls go through module attributes so that the tracer's
wrappers take effect.
"""
from __future__ import annotations

import math

import numpy as np

import conegen.cones as cones
import conegen.demos as demos
import conegen.duality as duality
import conegen.gauge as gauge
import conegen.lattice as lattice
import conegen.numkernel as numkernel
import conegen.penalty as penalty
import conegen.scalarization as scalarization

def lowdisc(k: int, alpha: float = (math.sqrt(5.0) - 1.0) / 2.0) -> float:
    """k-th point in [0, 1) of the Weyl sequence with irrational step alpha."""
    return (0.5 + k * alpha) % 1.0


SQRT2 = math.sqrt(2.0) - 1.0
SQRT3 = math.sqrt(3.0) - 1.0
SQRT7 = math.sqrt(7.0) - 2.0


# ---------------------------------------------------------------------------
# penalty: cone, rank, PenaltyInstance and verification at L = 1.1 rank
#
# Shapes follow penalty.random_instance, the generator of acceptance criterion
# 4 and scripts/penalty_batch.py: d and m uniform on {1, 2, 3}, a general cone
# with probability 0.4 when m >= 2, n uniform on [20, 400]. Every 10th op is
# drawn from (400, 800] instead, the range beyond random_instance where the
# pairwise tensors outgrow the L2 cache (a design choice, not a caller's).

# (value dimension m, general cone from perturbed generators?): m = 1, 2, 3
# five times each in 15 ops, and 2 of the 5 cones with m >= 2 are general.
PENALTY_CONES = [(1, False), (2, False), (3, False), (1, False), (2, True), (3, True),
                 (1, False), (2, False), (3, False), (1, False), (2, True), (3, True),
                 (1, False), (2, False), (3, False)]
LARGE_EVERY = 10


def penalty_size(k: int, n_max: int = 800) -> int:
    if n_max > 400 and k % LARGE_EVERY == LARGE_EVERY - 1:
        return 401 + int((n_max - 400) * lowdisc(k // LARGE_EVERY))
    return 20 + int((min(n_max, 400) - 19) * lowdisc(k))


def penalty_items(seed: int, count: int, tag: int = 1, n_max: int = 800) -> list:
    rng = np.random.default_rng([seed, tag])
    items = []
    for k in range(count):
        n = penalty_size(k, n_max)
        d = 1 + k % 3
        m, general = PENALTY_CONES[(k // 3) % len(PENALTY_CONES)]
        pts = rng.uniform(-1.0, 1.0, size=(n, d))
        mask = rng.random(n) < 0.3
        if not mask.any():
            mask[int(rng.integers(n))] = True
        gens = np.eye(m) + 0.25 * rng.uniform(-1.0, 1.0, size=(m, m)) if general else None
        A = rng.normal(size=(m, d))
        W = rng.normal(size=(m, d)) * 3.0
        phase = rng.uniform(0.0, 2.0 * np.pi, size=m)
        values = pts @ A.T + 0.3 * np.sin(pts @ W.T + phase)
        items.append({"points": pts, "mask": mask, "values": values, "m": m,
                      "generators": gens})
    return items


def penalty_op(item):
    m = item["m"]
    if item["generators"] is None:
        cone = cones.PolyhedralCone(m, kind="coordinate")
    else:
        cone = cones.PolyhedralCone(m, generators=item["generators"])
    e = np.sum(cone.generators, axis=0)
    e = e / np.linalg.norm(e)
    rank = penalty.cone_lipschitz_rank(item["points"], item["values"], cone, e).value
    inst = penalty.PenaltyInstance(points=item["points"], feasible_mask=item["mask"],
                                   objective=None, cone=cone, e=e, rank=rank,
                                   values=item["values"])
    return penalty.verify_penalty_equivalence(inst, 1.1 * rank), e


# ---------------------------------------------------------------------------
# duality: gap reports on box programs, bare box LPs, torsion demos
#
# "qp"/"lp": gap reports at the sizes of duality.random_box_program's defaults
#   (n in [2, 6], m in [1, 4], an equality row with probability 0.4, Q of rank
#   1..n), QP and LP alternating: acceptance criterion 5 and
#   scripts/duality_batch.py.
# "bigqp"/"biglp": the same family at n <= 40, m <= 24, the ranges of the
#   known cap instance's draw; QPs stay at n <= 12 (see REPORT_SIZES).
# "boxlp": one solve_lp on a box LP with 2n rows, n in {10, 20, 40}, the
#   sizes of the simplex benchmark named in ROADMAP item 1 (n = 80 takes 7 s).
# "boxqp": a box-only QP as in acceptance criterion 6 (n in [1, 5],
#   Q = B'B + 0.05 I, box [-1, 1]), the route into projected_gradient.
# Torsion reports at grids 12, 24 and 48 (ROADMAP item 1) replace every 25th
# op. The relative weights of the five families are design choices.

DUALITY_CYCLE = ["qp", "lp", "boxlp", "qp", "lp", "bigqp", "biglp", "boxlp", "boxqp"]
BOXLP_SIZES = (10, 20, 40)
TORSION_GRIDS = (12, 24, 48)
DEFECT_EVERY = 400    # the known active-set cap instance opens every 400 ops
TORSION_EVERY = 25


def _box_program(rng, n, kind, m, with_h, r):
    """Slater-satisfying program: the box centre is strictly feasible for the
    cone rows and exactly feasible for the equality row. A QP's Q = B'B has
    rank r, plus 0.05 I when r = n."""
    x_lo = -1.0 - rng.random(n)
    x_hi = 1.0 + rng.random(n)
    center = 0.5 * (x_lo + x_hi)
    if kind == "qp":
        B = rng.normal(size=(r, n))
        Q = B.T @ B + (0.05 if r == n else 0.0) * np.eye(n)
    else:
        Q = np.zeros((n, n))
    q = rng.normal(size=n)
    G = rng.normal(size=(m, n))
    g0 = -(G @ center) - rng.uniform(0.5, 1.5, size=m)
    H = h0 = None
    if with_h:
        H = rng.normal(size=(1, n))
        h0 = -(H @ center)
    prog = duality.BoxProgram(n=n, Q=Q, q=q, c=float(rng.normal()), x_lo=x_lo,
                              x_hi=x_hi, G=G, g0=g0, cone_y=cones.coordinate_cone(m),
                              H=H, h0=h0)
    return prog, np.ones(m) / math.sqrt(m)


def _box_qp(rng, n):
    """Box-only QP of acceptance criterion 6: full-rank Q, box [-1, 1]^n."""
    B = rng.normal(size=(n, n))
    prog = duality.BoxProgram(n=n, Q=B.T @ B + 0.05 * np.eye(n), q=rng.normal(size=n),
                              c=0.0, x_lo=-np.ones(n), x_hi=np.ones(n))
    return prog, None


def defect_program():
    """The Slater-satisfying QP (n = 32, m = 2, one equality row, rank-deficient
    Q) on which the active-set method stops at its iteration cap. It is the
    seventh draw (four LPs, then three QPs) of the draw sequence below, from
    default_rng(7) with n <= 40 and m <= 24."""
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
    prog = duality.BoxProgram(n=n, Q=Q, q=q, c=c, x_lo=x_lo, x_hi=x_hi, G=G, g0=g0,
                              cone_y=cones.coordinate_cone(m), H=H, h0=h0)
    return prog, np.ones(m) / math.sqrt(m)


def _box_lp(rng, n):
    """min c'x over 2n random rows a'x >= b and the box [-1, 1]^n, with a
    strictly feasible interior point built in."""
    x0 = rng.uniform(-0.5, 0.5, size=n)
    A = rng.normal(size=(2 * n, n))
    b = A @ x0 - rng.uniform(0.1, 1.0, size=2 * n)
    return numkernel.LPProblem(cost=rng.normal(size=n), ineq_lhs=A, ineq_rhs=b,
                               lower=-np.ones(n), upper=np.ones(n))


# gap-report slot -> (program kind, n range, largest m)
REPORT_SIZES = {"qp": ("qp", 2, 6, 4), "lp": ("lp", 2, 6, 4),
                # QPs with cone rows stay at n <= 12: beyond that a single
                # report can spend up to 40 s in dual ascent, longer than a run.
                "bigqp": ("qp", 2, 12, 24), "biglp": ("lp", 2, 40, 24)}


def duality_items(seed: int, count: int) -> list:
    rng = np.random.default_rng([seed, 2])
    known_cap = defect_program()
    cycle = len(DUALITY_CYCLE)
    items = []
    for k in range(count):
        u = lowdisc(k)
        slot = DUALITY_CYCLE[k % cycle]
        if k % DEFECT_EVERY == 0:
            prog, e = known_cap
            items.append({"kind": "qp", "prog": prog, "e": e, "defect": True})
        elif k % TORSION_EVERY == TORSION_EVERY // 2:
            grid = TORSION_GRIDS[(k // TORSION_EVERY) % len(TORSION_GRIDS)]
            items.append({"kind": "torsion", "grid": grid,
                          "load": 8.0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))})
        elif slot == "boxlp":
            n = BOXLP_SIZES[(2 * (k // cycle) + (k % cycle > 2)) % len(BOXLP_SIZES)]
            items.append({"kind": slot, "lp": _box_lp(rng, n)})
        elif slot == "boxqp":
            prog, e = _box_qp(rng, 1 + int(5 * u))
            items.append({"kind": slot, "prog": prog, "e": e})
        else:
            kind, n_lo, n_hi, m_max = REPORT_SIZES[slot]
            n = n_lo + int((n_hi - n_lo + 1) * u)
            m = 1 + int(m_max * lowdisc(k, SQRT2))
            with_h = lowdisc(k, SQRT3) < 0.4
            r = 1 + int(n * lowdisc(k, SQRT7))
            prog, e = _box_program(rng, n, kind, m, with_h, r)
            items.append({"kind": kind, "prog": prog, "e": e})
    return items


def duality_warmup(seed: int) -> list:
    """Small ops of every kind but torsion, run once before timing."""
    rng = np.random.default_rng([seed, 12])
    items = []
    for k in range(4):
        for kind in ("lp", "qp"):
            prog, e = _box_program(rng, 4, kind, 2, k % 2 == 1, 2)
            items.append({"kind": kind, "prog": prog, "e": e})
        items.append({"kind": "boxlp", "lp": _box_lp(rng, 4)})
        prog, e = _box_qp(rng, 3)
        items.append({"kind": "boxqp", "prog": prog, "e": e})
    return items


def duality_op(item):
    kind = item["kind"]
    if kind == "boxlp":
        return numkernel.solve_lp(item["lp"])
    if kind == "torsion":
        return demos.run_torsion_demo(n_grid=item["grid"], load=item["load"])
    return duality.duality_gap_report(item["prog"], item["e"])


# ---------------------------------------------------------------------------
# pointwise: single gauge / phi / subdifferential / Hausdorff calls
#
# The mix copies the top-level calls that acceptance criteria 1, 2, 3 and 7
# make to these functions (counted once, 13570 calls): gauge on criterion 2's
# wedge and pyramid 10300, gauge on coordinate cones 1130, value 640,
# subdifferential 200, directional derivative 200, Hausdorff distance 600.
# Scaled to one 68-op cycle, that is 26 + 26 + 6 + 4 + 1 + 1 + 3 ops; the one
# verify_order_isometry call per cycle has no caller there (a design choice).
# Criterion 1's 500 gauge calls with method="lp" are an oracle, not traffic.

COORD_DIMS = (2, 3, 5, 8, 13, 20)
# criterion 3's four Gerstewitz functions, with its direction e
PHI_CONES = ("coord2", "coord3", "hwedge2", "simplicial3")
PHI_E = {"coord2": [1.0, 1.0], "coord3": [0.5, 1.0, 2.0], "hwedge2": [1.0, 0.0]}


def fixed_cones() -> dict:
    """The fixed cones: criterion 2's wedge and pyramid, criterion 3's
    halfspace wedge and simplicial cone, and coordinate cones."""
    cones_ = {
        "wedge2": ("generators", np.array([[1.0, 0.0], [1.0, 1.0]])),
        "pyramid3": ("generators", np.array([[1.0, 0.0, 0.4], [0.0, 1.0, 0.4],
                                             [-1.0, 0.0, 0.4], [0.0, -1.0, 0.4]])),
        "hwedge2": ("halfspaces", np.array([[1.0, 0.0], [1.0, 1.0]])),
        "simplicial3": ("generators", np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5],
                                                [-1.0, -1.0, 1.0]])),
    }
    for dim in COORD_DIMS:
        cones_[f"coord{dim}"] = ("coordinate", dim)
    return cones_


# One 68-op cycle. The subdifferential and directional-derivative ops (cone
# None) rotate over PHI_CONES from one cycle to the next.
POINTWISE_CYCLE = ([("gauge", "wedge2"), ("gauge", "pyramid3")] * 26
                   + [("gauge", f"coord{dim}") for dim in COORD_DIMS]
                   + [("value", name) for name in PHI_CONES]
                   + [("subdiff", None), ("dirder", None)]
                   + [("hausdorff", None)] * 3 + [("isometry", None)])


def build_pointwise_context() -> dict:
    """Cones, gauge bodies and Gerstewitz functions, built once per run."""
    ctx = {}
    for name, (rep, spec) in fixed_cones().items():
        if rep == "coordinate":
            cone = cones.coordinate_cone(spec)
            u = np.asarray(PHI_E.get(name, np.linspace(0.5, 2.0, spec)), dtype=float)
        else:
            cone = cones.PolyhedralCone(spec.shape[1], **{rep: spec})
            u = np.asarray(PHI_E.get(name, np.sum(cone.generators, axis=0)))
        ctx[name] = {"cone": cone, "u": u, "body": gauge.GaugeBody(cone, u),
                     "phi": scalarization.GerstewitzFn(cone, u)}
    return ctx


def _point_set(rng):
    """Criterion 7's random point sets, with at least 3 points."""
    return rng.normal(size=(int(rng.integers(3, 9)), 2)) * rng.uniform(0.3, 2.0)


def pointwise_items(seed: int, count: int) -> list:
    rng = np.random.default_rng([seed, 3])
    dims = {name: (spec if rep == "coordinate" else spec.shape[1])
            for name, (rep, spec) in fixed_cones().items()}
    items = []
    for k in range(count):
        op, cone = POINTWISE_CYCLE[k % len(POINTWISE_CYCLE)]
        if op in ("hausdorff", "isometry"):
            A = _point_set(rng)
            if op == "isometry" and (k // len(POINTWISE_CYCLE)) % 2:
                # a shrunken copy inside A exercises the order relation
                B = 0.5 * (A - A.mean(axis=0)) + A.mean(axis=0)
            else:
                B = rng.normal(size=(int(rng.integers(3, 9)), 2)) + \
                    rng.uniform(-1.0, 1.0, size=2)
            items.append({"op": op, "a": A, "b": B})
            continue
        if cone is None:
            cone = PHI_CONES[(k // len(POINTWISE_CYCLE)) % len(PHI_CONES)]
        dim = dims[cone]
        items.append({"op": op, "cone": cone, "x": 2.0 * rng.normal(size=dim),
                      "d": rng.normal(size=dim)})
    return items


def pointwise_op(item, ctx):
    op = item["op"]
    if op == "hausdorff":
        return lattice.hausdorff_distance(item["a"], item["b"])[0]
    if op == "isometry":
        return lattice.verify_order_isometry(item["a"], item["b"])
    c = ctx[item["cone"]]
    if op == "gauge":
        return c["body"].gauge(item["x"])
    if op == "value":
        return c["phi"].value(item["x"])
    if op == "subdiff":
        return c["phi"].subdifferential(item["x"])
    return c["phi"].directional_derivative(item["x"], item["d"])
