"""Print a canonical digest of every benchmark op's output, or of the CLI's
reports.

    python scripts/op_digest.py WORKLOAD SEEDS [--ops N]
    python scripts/op_digest.py cli

WORKLOAD is penalty, duality, pointwise or all; SEEDS is a list such as
1-3 or 1,4,7. Each seed runs the op stream of perfbench/workloads.py that
`perfbench/run.py --workload W --seed S` times (its first RATE[W] * 22 ops,
or the first N with --ops), and the outputs are fed, in op order, to one
sha256 per workload. Prints one line per workload: the op count and the
digest. Two trees that print the same digest gave the same bits on every
op, so a change meant to keep its outputs is checked by running this script
in a copy of each tree.

The canonical form: a float is its hex form (a numpy scalar is its dtype
and then its value); an array is its dtype, shape and bytes; a dataclass,
NamedTuple or plain object is its class name and its fields, recursed, with
private attributes (a leading underscore) left out; lists, tuples and dicts
are recursed in order; an op that raises is its exception's type and
message.

`cli` runs tests/test_cli.py and tests/test_readme.py in this process, with
a fixed hypothesis seed, and prints the count of the reports that
`conegen.cli._emit` writes meanwhile and one sha256 over their JSON text, in
the order written. It exits 1 if a test fails.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 22.0   # perfbench/run.py's default --seconds
WORKLOADS = ("penalty", "duality", "pointwise")
CLI_TESTS = ("tests/test_cli.py", "tests/test_readme.py")


def benchmark():
    """perfbench/run.py, for its RATE (importing it pins the BLAS threads as
    the benchmark does), and perfbench/workloads.py, from this tree."""
    for path in (str(ROOT / "perfbench"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import run
    import workloads
    return run, workloads


def _fields(obj):
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
        names = list(obj._fields)
    else:
        names = sorted(vars(obj))
    return [(name, getattr(obj, name)) for name in names if not name.startswith("_")]


def canon(obj, feed, seen=()):
    """Feed obj's canonical form to feed (a callable taking bytes)."""
    def put(text):
        feed(text.encode() + b"\0")

    if isinstance(obj, np.generic):   # before float: np.float64 is one
        put(f"np.{obj.dtype.str}")
        canon(obj.item(), feed, seen)
    elif obj is None or isinstance(obj, (bool, int, str)):
        put(f"{type(obj).__name__}:{obj!r}")
    elif isinstance(obj, float):
        put(f"float:{obj.hex()}")
    elif isinstance(obj, np.ndarray):
        put(f"array:{obj.dtype.str}:{obj.shape}")
        if obj.dtype == object:
            canon(obj.tolist(), feed, seen)
        else:
            feed(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, BaseException):
        put(f"raised:{type(obj).__name__}:{obj}")
    elif id(obj) in seen:
        put("cycle")
    elif isinstance(obj, dict):
        put(f"dict:{len(obj)}")
        for key, value in obj.items():
            canon(key, feed, seen + (id(obj),))
            canon(value, feed, seen + (id(obj),))
    elif isinstance(obj, (list, tuple)) and not hasattr(obj, "_fields"):
        put(f"{type(obj).__name__}:{len(obj)}")
        for value in obj:
            canon(value, feed, seen + (id(obj),))
    else:
        fields = _fields(obj)
        put(f"object:{type(obj).__name__}:{len(fields)}")
        for name, value in fields:
            put(name)
            canon(value, feed, seen + (id(obj),))


def workload_ops(wl, name: str, seed: int, count: int):
    """The items and the op of a workload's stream, as run.py builds them."""
    if name == "penalty":
        return wl.penalty_items(seed, count), wl.penalty_op
    if name == "duality":
        return wl.duality_items(seed, count), wl.duality_op
    ctx = wl.build_pointwise_context()
    return wl.pointwise_items(seed, count), lambda item: wl.pointwise_op(item, ctx)


def digest(name: str, seeds, ops: int | None = None) -> tuple[int, str]:
    """(op count, sha256 hex) over the outputs of every seed's ops."""
    run, wl = benchmark()
    count = ops if ops is not None else max(1, round(run.RATE[name] * SECONDS))
    h, done = hashlib.sha256(), 0
    for seed in seeds:
        items, op = workload_ops(wl, name, seed, count)
        for item in items:
            try:
                out = op(item)
            except Exception as exc:   # a raising op is part of the output
                out = exc
            canon(out, h.update)
            done += 1
    return done, h.hexdigest()


def cli_digest() -> tuple[int, str]:
    """(report count, sha256 hex) over the JSON text of every report
    `conegen.cli._emit` writes while CLI_TESTS run in this process."""
    import pytest
    benchmark()   # src on the path and the BLAS threads pinned, as for the workloads
    from conegen import cli
    h, count, emit = hashlib.sha256(), 0, cli._emit

    def emit_and_hash(report, summary):
        nonlocal count
        h.update(json.dumps(cli._plain(report), indent=2).encode() + b"\n")
        count += 1
        emit(report, summary)

    cli._emit, out = emit_and_hash, io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = pytest.main([*(str(ROOT / path) for path in CLI_TESTS), "-q",
                                "-p", "no:cacheprovider", "--hypothesis-seed=0"])
    finally:
        cli._emit = emit
    if code != 0:
        sys.stderr.write(out.getvalue())
        raise SystemExit(1)
    return count, h.hexdigest()


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS + ("all", "cli"))
    parser.add_argument("seeds", type=parse_seeds, nargs="?",
                        help="e.g. 1-3 or 1,4,7 (not read by cli)")
    parser.add_argument("--ops", type=int, help="ops per seed (default: the benchmark's)")
    args = parser.parse_args(argv)
    if args.workload == "cli":
        count, hexdigest = cli_digest()
        print(f"cli: {count} reports sha256 {hexdigest}")
        return
    if args.seeds is None:
        parser.error("a workload needs its seeds")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        count, hexdigest = digest(name, args.seeds, args.ops)
        print(f"{name} seeds {','.join(map(str, args.seeds))}: {count} ops sha256 {hexdigest}")


if __name__ == "__main__":
    main()
