"""Command-line interface: parse a problem file, dispatch, emit a JSON report.

Reports go to stdout as JSON; a one-line human summary goes to stderr. Exit
codes: 0 success, 1 verification failure (an asserted check did not hold),
2 input error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import demos
from .config import default_tolerances, use_tolerances
from .cones import (DimensionMismatch, InvalidCone, UnsupportedRepresentation,
                    coordinate_cone)
from .gauge import GaugeBody, ambient_comparison
from .lattice import hausdorff_distance
from .penalty import (PenaltyInstance, PreconditionViolation,
                      cone_minimal_points, verify_penalty_equivalence)
from .problemfile import ProblemFormatError, build_box_program, parse_problem
from .scalarization import EmptyDomain, GerstewitzFn
from .duality import duality_gap_report, stationarity_certificate, VectorObjective

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _emit(report: dict, summary: str) -> None:
    json.dump(_plain(report), sys.stdout, indent=2)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return {math.inf: "inf", -math.inf: "-inf"}.get(v, v) if not math.isfinite(v) else v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.replace(",", " ").split()])
    except ValueError as exc:
        raise ProblemFormatError(f"cannot parse point {text!r}: {exc}")


def _require_block(pf, expected: str):
    if pf.block_name != expected:
        raise ProblemFormatError(
            f"command needs a {expected!r} block, file has {pf.block_name!r}")


def cmd_gauge(args) -> int:
    pf = parse_problem(args.problem)
    _require_block(pf, "gauge")
    body = GaugeBody(pf.cone, pf.block["u"])
    x = _parse_point(args.point)
    value = body.gauge(x)
    report = {"command": "gauge", "gauge": value, "isometry_image": body.isometry_image(x)}
    report["ambient_comparison"] = ambient_comparison(
        body, x[None, :], p=pf.norm.p, weights=pf.norm.weights)
    _emit(report, f"gauge value {value}")
    return EXIT_OK


def cmd_scalarize(args) -> int:
    pf = parse_problem(args.problem)
    _require_block(pf, "scalarize")
    fn = GerstewitzFn(pf.cone, pf.block["e"])
    y = _parse_point(args.point)
    value = fn.value(y)
    _emit({"command": "scalarize", "value": value}, f"phi value {value}")
    return EXIT_OK


def cmd_subdiff(args) -> int:
    pf = parse_problem(args.problem)
    _require_block(pf, "scalarize")
    fn = GerstewitzFn(pf.cone, pf.block["e"])
    y = _parse_point(args.point)
    sub = fn.subdifferential(y)
    report = {
        "command": "subdiff",
        "value": sub.value,
        "bounded": sub.bounded,
        "witness": sub.witness,
        "vertices": sub.vertices,
        "rays": sub.rays,
    }
    _emit(report, f"subdifferential: {len(sub.vertices)} vertices, {len(sub.rays)} rays")
    return EXIT_OK


def cmd_penalize(args) -> int:
    pf = parse_problem(args.problem)
    _require_block(pf, "penalty")
    if pf.norm.weights is not None:
        raise ProblemFormatError("penalize supports unweighted norms only; "
                                 "remove norm.weights", "$.norm.weights")
    b = pf.block
    inst = PenaltyInstance(points=b["points"], feasible_mask=b["feasible"],
                           objective=None, cone=pf.cone, e=b["e"],
                           rank=b["rank"], values=b["values"], norm_p=pf.norm.p)
    report = verify_penalty_equivalence(inst, args.L).to_dict()
    report["command"] = "penalize"
    _emit(report, f"equal={report['equal']} (L={args.L}, rank={inst.rank})")
    return EXIT_OK if report["equal"] else EXIT_VERIFICATION


def cmd_minimal(args) -> int:
    pf = parse_problem(args.problem)
    _require_block(pf, "penalty")
    idx = cone_minimal_points(pf.block["values"], pf.cone)
    report = {"command": "minimal", "minimal_indices": idx,
              "minimal_points": pf.block["points"][idx]}
    _emit(report, f"{idx.shape[0]} cone-minimal points")
    return EXIT_OK


def cmd_duality(args) -> int:
    pf = parse_problem(args.problem)
    _require_block(pf, "duality")
    prog = build_box_program(pf)
    e = pf.block.get("e")
    report = duality_gap_report(prog, e)
    d = report.to_dict()
    d["command"] = "duality"
    _emit(d, f"primal={report.primal_value} dual={report.dual_value} "
             f"gap={report.gap} slater={report.slater.satisfied}")
    return EXIT_OK if report.gap_ok else EXIT_VERIFICATION


def cmd_certify(args) -> int:
    pf = parse_problem(args.problem)
    _require_block(pf, "duality")
    prog = build_box_program(pf)
    x_bar = _parse_point(args.point)
    objective = VectorObjective(lins=prog.q[None, :], consts=np.array([prog.c]),
                                quads=[prog.Q] if prog.Q.any() else None)
    cert = stationarity_certificate(objective, coordinate_cone(1), np.ones(1),
                                    x_bar, prog.x_lo, prog.x_hi)
    d = cert.to_dict()
    d["command"] = "certify"
    _emit(d, "certified" if d["certified"] else f"refused: {d.get('reason')}")
    return EXIT_OK


def cmd_hausdorff(args) -> int:
    pf = parse_problem(args.problem)
    _require_block(pf, "lattice")
    dist, info = hausdorff_distance(pf.block["a_vertices"], pf.block["b_vertices"])
    report = {"command": "hausdorff", "distance": dist, **info}
    _emit(report, f"hausdorff distance {dist}")
    return EXIT_OK


def cmd_demo(args) -> int:
    if args.which == "torsion":
        result = demos.run_torsion_demo(n_grid=args.grid)
        d = result.to_dict()
        d["command"] = "demo torsion"
        ok = d["gap"]["gap_ok"]
        _emit(d, f"torsion value {result.value}, gap {d['gap']['gap']}")
        return EXIT_OK if ok else EXIT_VERIFICATION
    result = demos.run_vi_demo(seed=args.seed)
    d = result.to_dict()
    d["command"] = "demo vi"
    _emit(d, "VI necessary condition certified" if result.certified
          else "VI certificate refused")
    return EXIT_OK if result.certified else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conegen")
    parser.add_argument("--tol-override", type=float, default=None,
                        help="absolute membership tolerance override")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_problem(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--problem", required=True)
        return p

    p = with_problem("gauge", help="order-interval gauge of a point")
    p.add_argument("--point", required=True)
    p.set_defaults(fn=cmd_gauge)
    p = with_problem("scalarize", help="Gerstewitz value at a point")
    p.add_argument("--point", required=True)
    p.set_defaults(fn=cmd_scalarize)
    p = with_problem("subdiff", help="Gerstewitz subdifferential at a point")
    p.add_argument("--point", required=True)
    p.set_defaults(fn=cmd_subdiff)
    p = with_problem("penalize", help="verify exact-penalty equivalence")
    p.add_argument("--L", type=float, required=True)
    p.set_defaults(fn=cmd_penalize)
    p = with_problem("minimal", help="cone-minimal points of the value list")
    p.set_defaults(fn=cmd_minimal)
    p = with_problem("duality", help="duality gap report")
    p.set_defaults(fn=cmd_duality)
    p = with_problem("certify", help="stationarity certificate at a point")
    p.add_argument("--point", required=True)
    p.set_defaults(fn=cmd_certify)
    p = with_problem("hausdorff", help="Hausdorff distance of two polytopes")
    p.set_defaults(fn=cmd_hausdorff)
    p = sub.add_parser("demo", help="run a demonstration")
    p.add_argument("which", choices=["torsion", "vi"])
    p.add_argument("--grid", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tols = default_tolerances()
    if args.tol_override is not None:
        tols = replace(tols, membership=args.tol_override)
    # the override holds for this call only, also when main runs in-process
    with use_tolerances(tols):
        try:
            return args.fn(args)
        except (ProblemFormatError, PreconditionViolation, EmptyDomain,
                InvalidCone, DimensionMismatch, UnsupportedRepresentation,
                ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
