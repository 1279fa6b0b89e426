#!/usr/bin/env python3
"""Which tier-1 tests notice each `Tolerances` field moved by x1e3 and x1e-3.

    python scripts/tolerance_census.py [--fields F ...] [-j N]

For each field and factor the repository this script sits in is copied to
a temporary directory, the field's default in the copy's
src/conegen/config.py gets ` * <factor>` appended, and tier-1 runs there.
The working tree is never written. At most two copies run at a time (-j 1
or 2); each run uses its own copy, since pyproject.toml's pythonpath =
["src"] shadows PYTHONPATH. Every copy runs its hypothesis tests with the
fixed seed HYPOTHESIS_SEED, so that a rerun on the same tree reads the same
table; tier-1 itself keeps fresh draws. Prints, per field, the number of
failing tests on each side and then their ids.
"""
from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FACTORS = ("1e3", "1e-3")
CONFIG = Path("src/conegen/config.py")
FIELD = re.compile(r"^    ([a-z_]+): float = \S+$", re.M)
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".perfbench_tmp", "*.egg-info")
HYPOTHESIS_SEED = 0


def moved_config(text: str, field: str, factor: str) -> str:
    """config.py with field's default times factor."""
    return re.sub(rf"^(    {field}: float = \S+)$", rf"\1 * {factor}", text, flags=re.M)


def failing_tests(root: Path, field: str, factor: str) -> list[str]:
    """The ids of the tier-1 tests that fail or error in a copy of root with
    field moved by factor."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=SKIP)
        config = copy / CONFIG
        config.write_text(moved_config(config.read_text(), field, factor))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                              "no:cacheprovider", "--continue-on-collection-errors",
                              f"--hypothesis-seed={HYPOTHESIS_SEED}"],
                             cwd=copy, env=env, capture_output=True, text=True)
    return sorted({line.split()[1] for line in run.stdout.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fields", nargs="+", help="default: every field")
    parser.add_argument("-j", type=int, default=2, choices=(1, 2),
                        help="copies run at a time")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parents[1]
    known = FIELD.findall((root / CONFIG).read_text())
    fields = args.fields or known
    for field in set(fields) - set(known):
        parser.error(f"unknown field {field!r}")
    runs = [(f, x) for f in fields for x in FACTORS]
    with ThreadPoolExecutor(args.j) as pool:
        found = dict(zip(runs, pool.map(lambda r: failing_tests(root, *r), runs)))
    print(f"{'field':16s} " + " ".join(f"x{x:>6s}" for x in FACTORS))
    for f in fields:
        print(f"{f:16s} " + " ".join(f"{len(found[f, x]):7d}" for x in FACTORS))
    for (f, x), ids in found.items():
        for test in ids:
            print(f"{f} x{x}: {test}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
