"""Decisions do not depend on the BLAS kernel.

numpy's OpenBLAS picks its kernel from the CPU when it is imported, and the
summation order inside `@`, `solve` and `qr` depends on that kernel, so the
bits of a report may differ between hosts. OPENBLAS_CORETYPE selects the
kernel of a process started with it (Prescott: SSE3 only), and changes no
machine setting. The same fixed op set runs here and in such a process; its
statuses, Slater decisions, gap checks, dual statuses and penalty
equalities must agree, and so must a Lipschitz rank on the coordinate cone
to its last bit: its planes are unit-coefficient products, exact on every
kernel. So must the report that the one-point row product `A.dot(x)` gives
the bits of the matmul `x @ A.T` on the point-evaluation cones, for
contiguous and strided points: both are the same gemv on each kernel. So
must the report that the active set's bound row s Z[j] + 0.0 gives the
bits of the gemv Z'(s e_j) (test_gap_report_bits.py). So must the report
that the simplex pivot's k = 1 product gives the broadcast multiply's bits
on every nonzero entry, and a zero where it gives one (test_pivot_bits.py),
on tableaus with signed zeros, subnormals and entries near 2^+-500.
Iteration counts are not compared.

Run as a script, this file prints the decisions as JSON.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import conegen
from conegen.demos import build_torsion_program
from conegen.duality import duality_gap_report, random_box_program
from conegen.numkernel import _pivot, solve_lp
from conegen.cones import coordinate_cone
from conegen.penalty import cone_lipschitz_rank, random_instance, verify_penalty_equivalence
from duality_oracle import random_multipliers
from test_gap_report_bits import bound_reflections
from test_point_eval import CONES
from test_simplex_highs import _box_lp

KERNEL = "Prescott"


def _gap_decisions(prog, e):
    rep = duality_gap_report(prog, e)
    return [rep.primal_status, bool(rep.slater.satisfied), bool(rep.gap_ok), rep.dual_status]


def pivot_products() -> bool:
    """Whether _pivot's product equals the broadcast multiply of its column
    and pivot row, bit for bit where nonzero, on tableaus of 11 x 21 to
    99 x 147 drawn from signed zeros, subnormals, entries near 2^+-500 and
    plain ones, each scaled by a factor in [0.5, 2) so that products round."""
    rng = np.random.default_rng(108)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, -(2.0 ** -1040), 2.0 ** 500,
                     -(2.0 ** 499), 2.0 ** -500, -(2.0 ** -501), 1.0, -2.5])
    agree = True
    for m, n in ((11, 21), (41, 60), (81, 120), (99, 147)):
        piv, prod = np.empty(n), np.empty((m, n))
        for row, col in ((0, 0), (m // 2, n // 3), (m - 1, n - 1)):
            T = rng.choice(pool, size=(m, n)) * rng.uniform(0.5, 2.0, size=(m, n))
            T[row, col] = 0.75
            column = T[:, col].copy()
            _pivot(T, row, col, piv, prod)
            ref = column[:, None] * piv
            nonzero = ref != 0.0
            agree &= bool(np.array_equal(prod, ref)) \
                and prod[nonzero].tobytes() == ref[nonzero].tobytes()
    return agree


def decisions() -> list:
    out = []
    rng = np.random.default_rng(105)   # acceptance criterion 5's programs
    for k in range(100):
        prog, e = random_box_program(rng, kind="qp" if k % 2 == 0 else "lp")
        out.append(["gap", k] + _gap_decisions(prog, e))
        for _ in range(20):   # criterion 5's draws between programs
            random_multipliers(rng, prog)
    for grid in (12, 24):
        prog = build_torsion_program(grid, 8.0)
        out.append(["torsion", grid] + _gap_decisions(prog, np.ones(prog.m) / np.sqrt(prog.m)))
    for n in (10, 20, 40):
        rng = np.random.default_rng(3)
        out.extend(["box lp", n, solve_lp(_box_lp(n, rng)).status] for _ in range(20))
    rng = np.random.default_rng(104)   # criterion 4's first instances
    for k in range(50):
        inst = random_instance(rng)
        rep = verify_penalty_equivalence(inst, 1.1 * inst.rank)
        out.append(["penalty", k, bool(rep.equal), bool(rep.inclusion_at_rank)])
    rng = np.random.default_rng(106)   # two row blocks of the rank's pairwise kernel
    pts = rng.uniform(-1.0, 1.0, size=(150, 3))
    vals = pts[:, [1, 2, 0]] + 0.3 * np.sin(3.0 * pts)   # no BLAS product in the input
    rank = cone_lipschitz_rank(pts, vals, coordinate_cone(3), np.ones(3) / np.sqrt(3.0))
    out.append(["rank", rank.value.hex()])
    rng = np.random.default_rng(107)   # one-point row products
    for name, (cone, _, _) in sorted(CONES.items()):
        H = cone.halfspaces
        X = rng.normal(size=(2000, cone.dim)) * 10.0 ** rng.integers(-5, 6, size=(2000, 1))
        points = [*X, *np.repeat(X, 2, axis=1)[:, ::2]]
        out.append(["dot", name, all(H.dot(x).tobytes() == (x @ H.T).tobytes() for x in points)])
    out.append(["reflect", all(bound_reflections())])
    out.append(["pivot", pivot_products()])
    return out


def test_decisions_do_not_depend_on_the_blas_kernel():
    src = str(Path(conegen.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_CORETYPE=KERNEL, PYTHONPATH=path)
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                           text=True, check=True, timeout=120)
    here = decisions()
    assert len(here) == 100 + 2 + 60 + 50 + 1 + len(CONES) + 2
    assert all(row[2] for row in here if row[0] == "dot")
    assert here[-2:] == [["reflect", True], ["pivot", True]]
    assert json.loads(child.stdout) == here


if __name__ == "__main__":
    print(json.dumps(decisions()))
