"""Command-line interface: parse a problem file, dispatch, emit a JSON report.

`COMMANDS` holds one row per problem-file subcommand. `main` parses the file,
checks that it holds the row's block, calls the handler, which only computes,
and emits its report.

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
from .cones import coordinate_cone
from .gauge import GaugeBody, ambient_comparison
from .lattice import hausdorff_distance
from .penalty import PenaltyInstance, cone_minimal_points, verify_penalty_equivalence
from .problemfile import ProblemFormatError, build_box_program, parse_problem
from .scalarization import GerstewitzFn
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


def cmd_gauge(pf, args):
    body = GaugeBody(pf.cone, pf.block["u"])
    x = _parse_point(args.point)
    value = body.gauge(x)
    report = {"gauge": value, "isometry_image": body.isometry_image(x),
              "ambient_comparison": ambient_comparison(
                  body, x[None, :], p=pf.norm.p, weights=pf.norm.weights)}
    return report, f"gauge value {value}", EXIT_OK


def cmd_scalarize(pf, args):
    fn = GerstewitzFn(pf.cone, pf.block["e"])
    y = _parse_point(args.point)
    value = fn.value(y)
    return {"value": value}, f"phi value {value}", EXIT_OK


def cmd_subdiff(pf, args):
    fn = GerstewitzFn(pf.cone, pf.block["e"])
    y = _parse_point(args.point)
    sub = fn.subdifferential(y)
    report = {"value": sub.value, "bounded": sub.bounded, "witness": sub.witness,
              "vertices": sub.vertices, "rays": sub.rays}
    return (report, f"subdifferential: {len(sub.vertices)} vertices, {len(sub.rays)} rays",
            EXIT_OK)


def cmd_penalize(pf, args):
    if pf.norm.weights is not None:
        raise ProblemFormatError("penalize supports unweighted norms only; "
                                 "remove norm.weights", "$.norm.weights")
    b = pf.block
    inst = PenaltyInstance(points=b["points"], feasible_mask=b["feasible"],
                           objective=None, cone=pf.cone, e=b["e"],
                           rank=b["rank"], values=b["values"], norm_p=pf.norm.p)
    report = verify_penalty_equivalence(inst, args.L).to_dict()
    return (report, f"equal={report['equal']} (L={args.L}, rank={inst.rank})",
            EXIT_OK if report["equal"] else EXIT_VERIFICATION)


def cmd_minimal(pf, args):
    idx = cone_minimal_points(pf.block["values"], pf.cone)
    report = {"minimal_indices": idx, "minimal_points": pf.block["points"][idx]}
    return report, f"{idx.shape[0]} cone-minimal points", EXIT_OK


def cmd_duality(pf, args):
    report = duality_gap_report(build_box_program(pf), pf.block.get("e"))
    return (report.to_dict(), f"primal={report.primal_value} dual={report.dual_value} "
            f"gap={report.gap} slater={report.slater.satisfied}",
            EXIT_OK if report.gap_ok else EXIT_VERIFICATION)


def cmd_certify(pf, args):
    prog = build_box_program(pf)
    x_bar = _parse_point(args.point)
    objective = VectorObjective(lins=prog.q[None, :], consts=np.array([prog.c]),
                                quads=[prog.Q] if prog.Q.any() else None)
    d = stationarity_certificate(objective, coordinate_cone(1), np.ones(1),
                                 x_bar, prog.x_lo, prog.x_hi).to_dict()
    return d, "certified" if d["certified"] else f"refused: {d.get('reason')}", EXIT_OK


def cmd_hausdorff(pf, args):
    dist, info = hausdorff_distance(pf.block["a_vertices"], pf.block["b_vertices"])
    return {"distance": dist, **info}, f"hausdorff distance {dist}", EXIT_OK


def cmd_demo(pf, args):
    if args.which == "torsion":
        result = demos.run_torsion_demo(n_grid=args.grid)
        d = result.to_dict()
        return (d, f"torsion value {result.value}, gap {d['gap']['gap']}",
                EXIT_OK if d["gap"]["gap_ok"] else EXIT_VERIFICATION)
    result = demos.run_vi_demo(seed=args.seed)
    if result.certified:
        return result.to_dict(), "VI necessary condition certified", EXIT_OK
    return result.to_dict(), "VI certificate refused", EXIT_VERIFICATION


# One row per problem-file subcommand: its name, the block it reads, its
# extra option (flag and type) and help text, and its handler.
COMMANDS = (
    ("gauge", "gauge", ("--point", str), "order-interval gauge of a point", cmd_gauge),
    ("scalarize", "scalarize", ("--point", str), "Gerstewitz value at a point",
     cmd_scalarize),
    ("subdiff", "scalarize", ("--point", str), "Gerstewitz subdifferential at a point",
     cmd_subdiff),
    ("penalize", "penalty", ("--L", float), "verify exact-penalty equivalence",
     cmd_penalize),
    ("minimal", "penalty", None, "cone-minimal points of the value list", cmd_minimal),
    ("duality", "duality", None, "duality gap report", cmd_duality),
    ("certify", "duality", ("--point", str), "stationarity certificate at a point",
     cmd_certify),
    ("hausdorff", "lattice", None, "Hausdorff distance of two polytopes", cmd_hausdorff),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conegen")
    parser.add_argument("--tol-override", type=float, default=None,
                        help="absolute membership tolerance override")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, block, option, text, fn in COMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument("--problem", required=True)
        if option is not None:
            p.add_argument(option[0], type=option[1], required=True)
        p.set_defaults(fn=fn, block=block)
    p = sub.add_parser("demo", help="run a demonstration")
    p.add_argument("which", choices=["torsion", "vi"])
    p.add_argument("--grid", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_demo, block=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tols = default_tolerances()
    if args.tol_override is not None:
        if not (math.isfinite(args.tol_override) and args.tol_override >= 0.0):
            print(f"error: --tol-override must be finite and >= 0, got {args.tol_override}",
                  file=sys.stderr)
            return EXIT_INPUT
        tols = replace(tols, membership=args.tol_override)
    # the override holds for this call only, also when main runs in-process
    with use_tolerances(tols):
        try:
            pf = None
            if args.block is not None:
                pf = parse_problem(args.problem)
                if pf.block_name != args.block:
                    raise ProblemFormatError(f"command needs a {args.block!r} block, "
                                             f"file has {pf.block_name!r}")
            report, summary, code = args.fn(pf, args)
        except ValueError as exc:   # every library exception subclasses it
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    report["command"] = f"demo {args.which}" if pf is None else args.command
    _emit(report, summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
