"""The one row-norm kernel, numkernel.row_norms, and the guard that keeps it
the only spelling of a row's length in the package.

A row that needs no shift keeps the bits of np.linalg.norm(M, axis=-1), or
of sqrt(v.dot(v)) for a vector; a row read at its power of two (pow2_rows,
which also gives the lengths of the rows as read) has the length of the
unscaled row times 2^k exactly.
"""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

from conegen.numkernel import PRODUCT_E, pow2_rows, pow2_shift, row_norms

SRC = Path(__file__).resolve().parent.parent / "src" / "conegen"


@pytest.mark.filterwarnings("error")
def test_rows_that_need_no_shift_keep_numpys_bits():
    rng = np.random.default_rng(51)
    for _ in range(300):
        M = rng.normal(size=(int(rng.integers(0, 20)), int(rng.integers(1, 12))))
        M *= 2.0 ** rng.integers(-400, 400, size=(M.shape[0], 1))
        assert pow2_rows(M)[0] is M
        assert row_norms(M).tobytes() == np.linalg.norm(M, axis=-1).tobytes()
        for v in M:
            got = row_norms(v)
            assert type(got) is float and got == math.sqrt(v.dot(v))
    T = rng.normal(size=(4, 5, 3))   # the rows of the last axis
    assert row_norms(T).tobytes() == np.linalg.norm(T, axis=-1).tobytes()


@pytest.mark.filterwarnings("error")
def test_a_row_at_2k_has_2k_times_its_length():
    rng = np.random.default_rng(52)
    for _ in range(200):
        M = rng.uniform(0.5, 2.0, size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        M *= rng.choice([-1.0, 0.0, 1.0], size=M.shape)
        M[:, 0] = 1.0
        k = rng.integers(-1020, 1020, size=M.shape[0])
        assert row_norms(np.ldexp(M, k[:, None])).tobytes() == \
            np.ldexp(row_norms(M), k).tobytes()
        assert row_norms(np.ldexp(M[0], k[0])) == math.ldexp(row_norms(M[0]), int(k[0]))


@pytest.mark.filterwarnings("error")
def test_each_row_takes_the_shift_pow2_shift_gives():
    M = np.array([[3e300, 1.0], [1.0, 2.0], [0.0, 0.0], [5e-324, 0.0], [-1e-200, 1e-210]])
    R, s, lengths = pow2_rows(M)
    assert lengths.tobytes() == np.linalg.norm(R, axis=1).tobytes()
    expect = [pow2_shift(t, -PRODUCT_E, PRODUCT_E) for t in np.abs(M).max(axis=1).tolist()]
    assert s.tolist() == expect
    assert R.tobytes() == np.ldexp(M, -np.array(expect)[:, None]).tobytes()
    # a zero row has length 0, and only a zero row: 5e-324 is read at 2^573;
    # read as given, the squares of 3e300 overflow and those of 1e-200 underflow
    assert row_norms(M).tolist() == [3e300, math.sqrt(5.0), 0.0, 5e-324, 1e-200]
    assert row_norms(np.array([1e200, -1e200])) == math.sqrt(2.0) * 1e200
    assert row_norms(np.zeros(0)) == 0.0 and row_norms(np.zeros((0, 3))).shape == (0,)
    assert row_norms(np.zeros((2, 0))).tolist() == [0.0, 0.0]


def _self_product(node) -> bool:
    """x.dot(x), x @ x or np.dot(x, x) (np.vdot, np.inner), x the same
    expression on both sides."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return ast.dump(node.left) == ast.dump(node.right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "dot" and len(node.args) == 1:
            if ast.dump(node.func.value) == ast.dump(node.args[0]):
                return True
        if node.func.attr in ("dot", "vdot", "inner") and len(node.args) == 2:
            return ast.dump(node.args[0]) == ast.dump(node.args[1])
    return False


def row_norm_spellings(source: str) -> list:
    """Line numbers of np.linalg.norm with an axis and of the sqrt of a
    self-product: the spellings of a row's length other than row_norms."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name.endswith("linalg.norm") and (len(node.args) >= 3
                                             or any(k.arg == "axis" for k in node.keywords)):
            found.append(node.lineno)
        elif name.split(".")[-1] == "sqrt" and node.args and _self_product(node.args[0]):
            found.append(node.lineno)
    return found


def test_the_guard_reads_each_spelling():
    flagged = ["np.linalg.norm(M, axis=1)", "numpy.linalg.norm(M, None, 1)",
               "math.sqrt(p.dot(p))", "np.sqrt(u @ u)", "sqrt(np.dot(r[0], r[0]))",
               "math.sqrt(np.vdot(x, x))"]
    allowed = ["np.linalg.norm(Q)", "np.linalg.norm(x, ord=p)", "np.hypot(a, b)",
               "math.hypot(dx, dy)", "math.sqrt(p.dot(q))", "np.sqrt(sums, out=sums)",
               "row_norms(M)", "2.0 / (u @ u)"]
    assert all(row_norm_spellings(line) == [1] for line in flagged)
    assert all(row_norm_spellings(line) == [] for line in allowed)


def test_row_norms_is_the_only_row_norm_spelling():
    # the ambient p-norms (norm_scaled), Frobenius norms and hypot stay
    # allowed; numkernel.py holds the kernel itself
    found = {path.name: row_norm_spellings(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "numkernel.py"}
    assert len(found) >= 10
    assert {name: lines for name, lines in found.items() if lines} == {}
