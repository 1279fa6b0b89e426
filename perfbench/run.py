#!/usr/bin/env python3
"""conegen benchmark: one closed-loop caller runs a seeded op stream.

    python3 perfbench/run.py --workload penalty --seed 1 --seconds 22 --trace 0

With --trace 0 it runs a fixed number of ops once and reports the end-to-end
metrics; with --trace 1 it runs the same ops untraced and traced, alternating
chunk by chunk, and reports per-layer metrics, the tracing overhead and a
fresh-process probe of every CLI subcommand. Every
op's output is checked by an independent oracle after the timed region. The
last line of stdout is the JSON result; the line before it records the run
environment. Every end-to-end time is normalised to a nominal host speed by a
fixed reference loop timed between the ops (see `reference_seconds`).
WORKLOADS.md describes the workloads and metrics.
"""
import os
import sys

# numpy's eigvalsh / lstsq would otherwise start BLAS threads, and
# CONEGEN_TOL would change every default tolerance.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
os.environ.pop("CONEGEN_TOL", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("penalty", "duality", "pointwise")
# Ops per second of --seconds: a run executes the first RATE * seconds ops of
# the workload's op stream once, whatever the speed of the code under test,
# so two versions of the program are timed on the same ops. The rates were
# set so that a run of the baseline code fills about --seconds on a
# 2-vCPU Xeon VM.
RATE = {"penalty": 16.5, "duality": 18.0, "pointwise": 1900.0}
# The traced run alternates untraced and traced passes over chunks of this
# many ops, so that drift in machine speed falls on both sides alike.
CHUNK = {"penalty": 10, "duality": 9, "pointwise": 680}
SETUP_SAMPLES = 9
# The host's speed drifts by 15-25% over seconds to minutes. A reference loop
# is timed after every REF_EVERY_S of op time, and each op's time is scaled by
# REF_NOMINAL_S / (the reference time around it): the time the op would take
# on the host at its nominal speed. REF_NOMINAL_S is the reference's median
# time on a 2-vCPU Xeon VM.
REF_EVERY_S = 0.04
REF_NOMINAL_S = 0.0018
perf = time.perf_counter


def reference_seconds() -> float:
    """Time of a fixed loop of the kind conegen's ops are made of: interpreted
    integer arithmetic and numpy calls on 6 x 6 arrays. It does not touch
    conegen, so a change to the library does not change it."""
    import numpy as np
    rng = np.random.default_rng(0)
    M, B = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
    t0 = perf()
    s = 0
    for i in range(6000):
        s += i * i % 7
    for _ in range(100):
        v = (M @ B).sum(axis=0)
        j = int(np.argmin(v))
        M[j] *= 0.999
        M[:, j] += 1e-3 * v[j]
    return perf() - t0


def speed_factors(refs) -> list:
    """REF_NOMINAL_S over the local reference time, one factor per gap between
    consecutive reference samples: the median of the two samples on each side,
    which keeps one disturbed sample from scaling its neighbours."""
    return [REF_NOMINAL_S / statistics.median(refs[max(0, i - 1): i + 3])
            for i in range(len(refs) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_library():
    if not (SRC / "conegen" / "__init__.py").is_file():
        print(f"error: conegen sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import conegen  # noqa: F401


class Workload:
    """Generated inputs plus the op and its oracle for one workload."""

    def __init__(self, name: str, seed: int, ops: int):
        import workloads as wl
        self.name = name
        self.ctx = None
        if name == "penalty":
            self.items = wl.penalty_items(seed, ops)
            warm = wl.penalty_items(seed, 10, tag=11, n_max=40)
            self.op = wl.penalty_op
        elif name == "duality":
            self.items = wl.duality_items(seed, ops)
            warm = wl.duality_warmup(seed)
            self.op = wl.duality_op
        else:
            self.ctx = wl.build_pointwise_context()
            self.items = wl.pointwise_items(seed, ops)
            warm = self.items[:len(wl.POINTWISE_CYCLE)]
            self.op = lambda item: wl.pointwise_op(item, self.ctx)
        for item in warm:
            self.op(item)

    def check(self, item, out):
        import oracles
        if isinstance(out, Exception):
            return f"status: raised {type(out).__name__}: {out}"
        if self.name == "penalty":
            return oracles.check_penalty(item, out)
        if self.name == "duality":
            return oracles.check_duality(item, out)
        if not hasattr(self, "_ref"):
            self._ref = oracles.pointwise_reference(self.ctx)
        return oracles.check_pointwise(item, out, self._ref)


def run_ops(work: Workload, indices):
    """Run ops in order, timing the reference loop between them; returns
    (normalised latencies, outputs, raw latencies)."""
    raw, outs, gap = [], [], []
    refs = [reference_seconds()]
    since = 0.0
    op, items = work.op, work.items
    for k in indices:
        t0 = perf()
        try:
            out = op(items[k])
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = exc
        t1 = perf()
        raw.append(t1 - t0)
        outs.append(out)
        gap.append(len(refs) - 1)
        since += t1 - t0
        if since >= REF_EVERY_S:
            refs.append(reference_seconds())
            since = 0.0
    refs.append(reference_seconds())
    factor = speed_factors(refs)
    return [dt * factor[g] for dt, g in zip(raw, gap)], outs, raw


def verify(work: Workload, idx, outs):
    """Oracle verdicts: (failed count, wrong-answer count, first reasons)."""
    failed = wrong = 0
    reasons = []
    for k, out in zip(idx, outs):
        reason = work.check(work.items[k], out)
        if reason is None:
            continue
        failed += 1
        wrong += not reason.startswith("status:")
        if len(reasons) < 5:
            reasons.append(f"op {k}: {reason}")
    return failed, wrong, reasons


def setup_samples(workload: str, seed: int, ops: int) -> list:
    """Seconds from spawning a fresh benchmark process until it is ready for
    its first timed op (interpreter, imports, inputs, warm-up)."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t_spawn = perf()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               workload, "--seed", str(seed), "--ops", str(ops),
                               "--setup-only"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(3)
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t_spawn)
    return out


def run_environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"l{level}"] = size

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "caches": caches, "pinned": PINNED_ENV}


def metric(value, unit):
    return {"value": value, "unit": unit}


def op_count(args) -> int:
    return max(1, round(RATE[args.workload] * args.seconds))


def end_to_end(args) -> dict:
    setup = setup_samples(args.workload, args.seed, op_count(args))
    work = Workload(args.workload, args.seed, op_count(args))
    order = range(len(work.items))
    lat, outs, raw = run_ops(work, order)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, wrong, reasons = verify(work, order, outs)
    attempted = len(outs)
    ms = sorted(x * 1e3 for x in lat)
    q = statistics.quantiles(ms, n=100, method="inclusive")
    verified = (attempted - failed) / attempted
    raw_ms = sorted(x * 1e3 for x in raw)
    raw_q = statistics.quantiles(raw_ms, n=100, method="inclusive")
    # The setup samples run in child processes, where the reference loop
    # cannot be timed alongside; they are scaled by the host's mean slowdown
    # over the ops that follow them.
    slowdown = sum(raw) / sum(lat)
    return {
        "attempted": attempted, "failed": failed, "wrong": wrong, "reasons": reasons,
        "raw": {"setup_s": statistics.median(setup),
                "ops_per_s": verified * attempted / sum(raw),
                "op_p50_ms": raw_q[49], "op_p95_ms": raw_q[94], "host_slowdown": slowdown},
        "metrics": {
            "setup_s": metric(statistics.median(setup) / slowdown, "s"),
            "ops_per_s": metric(verified * attempted / sum(lat), "1/s"),
            "op_p50_ms": metric(q[49], "ms"),
            "op_p95_ms": metric(q[94], "ms"),
            "verified_frac": metric(verified, "frac"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        },
    }


def per_layer(args) -> dict:
    import cliprobe
    import spans
    work = Workload(args.workload, args.seed, op_count(args))
    ops = len(work.items)
    order = range(ops)
    tracer = spans.Tracer()
    plain_s = traced_s = 0.0
    plain_outs, traced_outs = [], []
    for j, lo in enumerate(range(0, ops, CHUNK[args.workload])):
        chunk = range(lo, min(lo + CHUNK[args.workload], ops))
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            lat, outs, _ = run_ops(work, chunk)
            if traced:
                tracer.uninstall()
                traced_s += sum(lat)
                traced_outs.extend(outs)
            else:
                plain_s += sum(lat)
                plain_outs.extend(outs)
    layers = tracer.aggregate()
    f1, w1, r1 = verify(work, order, plain_outs)
    f2, w2, r2 = verify(work, order, traced_outs)
    probe = cliprobe.run_probe(ROOT, child_env())

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    lp = "numkernel.solve_lp"
    calls, pivots, self_s = get(lp, "calls"), get(lp, "pivots"), get(lp, "self_s")
    m[lp + ".calls"] = metric(int(calls), "count")
    m[lp + ".pivots"] = metric(int(pivots), "count")
    m[lp + ".self_s"] = metric(self_s, "s")
    m[lp + ".us_per_pivot"] = metric(ratio(self_s * 1e6, pivots), "us")
    m[lp + ".us_per_call"] = metric(ratio(self_s * 1e6, calls), "us")
    m[lp + ".optimal_frac"] = metric(ratio(get(lp, "optimal"), calls), "frac")
    pg = "numkernel.projected_gradient"
    m[pg + ".iterations"] = metric(int(get(pg, "iterations")), "count")
    m[pg + ".self_s"] = metric(get(pg, "self_s"), "s")
    for layer in ("cones.PolyhedralCone", "gauge.gauge", "scalarization.value",
                  "scalarization.subdifferential", "scalarization.directional_derivative",
                  "lattice.hausdorff_distance"):
        m[layer + ".calls"] = metric(int(get(layer, "calls")), "count")
        m[layer + ".self_s"] = metric(get(layer, "self_s"), "s")
    for layer in ("gauge.gauge", "scalarization.subdifferential"):
        m[layer + ".lp_per_call"] = metric(ratio(get(layer, "lp"), get(layer, "calls")),
                                           "count")
    vm = "scalarization.value_many"
    m[vm + ".rows"] = metric(int(get(vm, "rows")), "count")
    m[vm + ".self_s"] = metric(get(vm, "self_s"), "s")
    for layer in ("penalty.cone_lipschitz_rank", "penalty.cone_minimal_points"):
        m[layer + ".calls"] = metric(int(get(layer, "calls")), "count")
        m[layer + ".pairs"] = metric(int(get(layer, "pairs")), "count")
        m[layer + ".self_s"] = metric(get(layer, "self_s"), "s")
        # per pair over the whole span: value_many runs inside the rank kernel
        m[layer + ".ns_per_pair"] = metric(ratio(get(layer, "total_s") * 1e9,
                                                 get(layer, "pairs")), "ns")
    for layer in ("penalty.PenaltyInstance", "penalty.verify_penalty_equivalence",
                  "duality.check_modified_slater", "duality.duality_gap_report",
                  "demos.run_torsion_demo", "lattice.verify_order_isometry"):
        m[layer + ".self_s"] = metric(get(layer, "self_s"), "s")
    verify_calls = get("penalty.verify_penalty_equivalence", "calls")
    rank_calls = get("penalty.cone_lipschitz_rank", "calls")
    m["penalty.rank_calls_per_op"] = metric(
        ratio(rank_calls, ops) if args.workload == "penalty" else 0.0, "count")
    m["penalty.filters_per_verify"] = metric(
        ratio(get("penalty.cone_minimal_points", "calls"), verify_calls), "count")
    for layer in ("duality.solve_primal", "duality.solve_dual"):
        m[layer + ".calls"] = metric(int(get(layer, "calls")), "count")
        m[layer + ".iterations"] = metric(int(get(layer, "iterations")), "count")
        m[layer + ".self_s"] = metric(get(layer, "self_s"), "s")
    m["duality.solve_primal.capped"] = metric(int(get("duality.solve_primal", "capped")),
                                              "count")
    m["duality.solve_dual.capped_frac"] = metric(
        ratio(get("duality.solve_dual", "capped"), get("duality.solve_dual", "calls")),
        "frac")
    med = probe["medians"]
    m["cli.interpreter_s"] = metric(med["interpreter_s"], "s")
    m["cli.import_s"] = metric(med["import_s"], "s")
    m["cli.main.self_s"] = metric(med["main_self_s"], "s")
    m["cli.invocation_s"] = metric(med["wall_s"], "s")
    m["problemfile.parse_problem.self_s"] = metric(med["parse_self_s"], "s")
    m["trace_overhead_frac"] = metric(1.0 - plain_s / traced_s, "frac")
    reasons = r1 + r2 + probe["mismatches"]
    return {"attempted": 2 * ops, "failed": f1 + f2,
            "wrong": w1 + w2 + len(probe["mismatches"]), "reasons": reasons,
            "metrics": m}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="internal: set up, print the ready time, exit")
    parser.add_argument("--ops", type=int, help="internal: ops to set up")
    args = parser.parse_args()
    import_library()
    if args.setup_only:
        Workload(args.workload, args.seed, args.ops)
        print(repr(perf()))
        return 0
    result = per_layer(args) if args.trace else end_to_end(args)
    for reason in result["reasons"]:
        print(f"failed {reason}", file=sys.stderr)
    print(json.dumps({"env": run_environment(), "workload": args.workload,
                      "seed": args.seed, "wrong_answers": result["wrong"],
                      "unnormalised": result.get("raw")}))
    print(json.dumps({"correct": result["wrong"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
