"""scripts/op_digest.py: the canonical form it hashes, and a run on a few
ops of every workload."""
import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "op_digest.py"
spec = importlib.util.spec_from_file_location("op_digest", SCRIPT)
op_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(op_digest)


def form(obj) -> bytes:
    out = []
    op_digest.canon(obj, out.append)
    return b"".join(out)


@dataclasses.dataclass
class Report:
    value: float
    _cache: object = None


class Pair(NamedTuple):
    a: float
    b: np.ndarray


class Plain:
    def __init__(self, x, private):
        self.x, self._private = x, private


def test_the_form_tells_apart_what_differs_in_bits():
    pairs = [(0.0, -0.0), (1.0, 1.0 + 2.0 ** -52), (1.0, 1), (np.float64(1.0), 1.0),
             (np.zeros(2), np.zeros(2, dtype=np.float32)), (np.zeros(2), np.zeros((1, 2))),
             (np.array([0.0]), np.array([-0.0])), ([1.0], (1.0,)), ({"a": 1.0}, {"b": 1.0}),
             (Report(1.0), Report(2.0)), (Pair(1.0, np.ones(1)), Pair(1.0, np.zeros(1))),
             (ValueError("x"), ValueError("y")), (ValueError("x"), TypeError("x"))]
    for a, b in pairs:
        assert form(a) != form(b), (a, b)


def test_the_form_leaves_out_private_attributes():
    assert form(Report(1.0, _cache=1)) == form(Report(1.0, _cache=np.ones(3)))
    assert form(Plain(2.0, "a")) == form(Plain(2.0, [1, 2]))
    assert form(Plain(2.0, "a")) != form(Plain(3.0, "a"))


def test_seeds_read_as_lists_and_ranges():
    assert op_digest.parse_seeds("1-3") == [1, 2, 3]
    assert op_digest.parse_seeds("1,4,7") == [1, 4, 7]
    assert op_digest.parse_seeds("2,5-6") == [2, 5, 6]


def test_a_run_prints_one_digest_per_workload():
    out = subprocess.run([sys.executable, str(SCRIPT), "all", "1,2", "--ops", "2"],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["penalty", "duality", "pointwise"]
    for line in lines:
        head, digest = line.split(" sha256 ")
        assert head.endswith("seeds 1,2: 4 ops") and len(digest) == 64
        int(digest, 16)


def test_cli_prints_the_report_count_and_one_digest():
    out = subprocess.run([sys.executable, str(SCRIPT), "cli"], capture_output=True,
                         text=True, check=True, timeout=300).stdout
    head, digest = out.strip().split(" sha256 ")
    word, count, unit = head.split()
    assert (word, unit) == ("cli:", "reports") and int(count) >= 90 and len(digest) == 64
    int(digest, 16)


def test_a_workload_needs_its_seeds():
    run = subprocess.run([sys.executable, str(SCRIPT), "duality"], capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 2 and "a workload needs its seeds" in run.stderr
