#!/usr/bin/env python3
"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py [--seed 5]

For each workload it checks that the same seed generates identical inputs,
that another seed generates different ones, and that two traced passes over
the same ops give bit-for-bit identical per-layer counts (calls, pivots,
pairs, rows, iterations, caps, nested LP solves). It also checks that the
penalty workload makes no solve_lp call. Exits 1 on any violation.
"""
import argparse
import hashlib
import sys

import run  # pins the thread environment before numpy loads

run.import_library()

import numpy as np  # noqa: E402

import spans  # noqa: E402

OPS = {"penalty": 20, "duality": 30, "pointwise": 200}
TIMES = ("total_s", "self_s")


def fingerprint(items) -> str:
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                h.update(key.encode())
                feed(obj[key])
        elif isinstance(obj, np.ndarray):
            h.update(np.ascontiguousarray(obj).tobytes())
        elif hasattr(obj, "__dict__"):
            feed(vars(obj))
        else:
            h.update(repr(obj).encode())

    for item in items:
        feed(item)
    return h.hexdigest()


def traced_counts(work, n_ops) -> dict:
    with spans.Tracer() as tracer:
        run.run_ops(work, range(n_ops))
    return {layer: {k: v for k, v in stats.items() if k not in TIMES}
            for layer, stats in tracer.aggregate().items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    problems = []
    for name, n_ops in OPS.items():
        work = run.Workload(name, args.seed, n_ops)
        again = run.Workload(name, args.seed, n_ops)
        other = run.Workload(name, args.seed + 1, n_ops)
        if fingerprint(work.items) != fingerprint(again.items):
            problems.append(f"{name}: the same seed generated different inputs")
        if fingerprint(work.items) == fingerprint(other.items):
            problems.append(f"{name}: another seed generated the same inputs")
        first = traced_counts(work, n_ops)
        second = traced_counts(again, n_ops)
        if first != second:
            problems.append(f"{name}: per-layer counts differ between passes")
        lp_calls = first.get("numkernel.solve_lp", {}).get("calls", 0)
        if name == "penalty" and lp_calls != 0:
            problems.append(f"penalty: {lp_calls} solve_lp calls, expected 0")
        print(f"{name}: {n_ops} ops, {sum(s['calls'] for s in first.values()):.0f} "
              f"traced calls, counts repeat: {first == second}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
