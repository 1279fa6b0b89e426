"""The simplex pivot's k = 1 product keeps every output bit.

`numkernel._pivot` forms its rank-1 update as one k = 1 product,
np.dot(column, row). Each of its nonzero entries is the broadcast
multiply's single rounding, but a zero product is +0.0 where the multiply
gives -0.0 for a zero times a negative. So `T -= prod` leaves -0.0 in T
where the multiply's update leaves +0.0 (at an entry that was -0.0), and the
two tableaus differ in zero signs. No output reads those signs: the duals
read the last row on the slack columns, which starts at +0.0 and never
becomes -0.0 under either update, and the rest enters only comparisons or
sums with a nonzero term. The Farkas row of B^-1 could in principle carry a
sign, so this test solves each LP with the library's pivot and again with
the broadcast update, and requires equal bytes for the status, the
iterations, the point, the value, the duals and all four certificate
arrays. The LPs are the differential test's families (each kind, with its
far and moved copies), the simplex benchmark's box LPs and the torsion
program's Slater and gap-report LPs, whose sparse rows leave -0.0 entries
behind.
"""
import numpy as np
import pytest

import conegen.duality as duality
import conegen.numkernel as numkernel
from conegen.demos import build_torsion_program
from conegen.numkernel import solve_lp
from test_simplex_highs import _box_lp, _family_lps

DRAWS = 120   # _family draws per kind


def broadcast_pivot(T, row, col, piv, prod):
    """The update as a broadcast multiply: the reference for _pivot's bits."""
    np.divide(T[row], T[row, col], out=piv)
    np.multiply(T[:, col, None], piv, out=prod)
    T -= prod
    T[row] = piv


def outputs(rep) -> tuple:
    arrays = (rep.point, rep.duals) + (() if rep.farkas is None else (
        rep.farkas.y_ineq, rep.farkas.y_eq, rep.farkas.y_lower, rep.farkas.y_upper))
    return (rep.status, rep.iterations, None if rep.value is None else rep.value.hex(),
            rep.farkas is None, [None if a is None else a.tobytes() for a in arrays])


def torsion_lps(monkeypatch, grid):
    """The LPs that a torsion program's gap report and Slater check solve."""
    seen = []

    def record(problem):
        seen.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(duality, "solve_lp", record)
    prog = build_torsion_program(grid, 8.0)
    e = np.ones(prog.m) / np.sqrt(prog.m)
    duality.duality_gap_report(prog, e)
    duality.check_modified_slater(prog, e)
    monkeypatch.undo()
    return seen


def both_kernels(monkeypatch, lps):
    """Each LP's outputs under the library's pivot and under the broadcast
    update, and the count of pivots whose two updates of one tableau
    differ in bytes."""
    library, differing = numkernel._pivot, [0]

    def compare(T, row, col, piv, prod):
        ref = T.copy()
        broadcast_pivot(ref, row, col, piv.copy(), prod.copy())
        library(T, row, col, piv, prod)
        assert np.array_equal(ref, T)   # equal values: only zero signs may differ
        differing[0] += ref.tobytes() != T.tobytes()

    pairs = []
    for lp in lps:
        monkeypatch.setattr(numkernel, "_pivot", compare)
        mine = outputs(solve_lp(lp))
        monkeypatch.setattr(numkernel, "_pivot", broadcast_pivot)
        pairs.append((mine, outputs(solve_lp(lp))))
    return pairs, differing[0]


@pytest.mark.parametrize("kind", ["feasible", "infeasible", "unbounded"])
def test_family_outputs_keep_their_bits(kind, monkeypatch):
    rng = np.random.default_rng([11, len(kind)])
    pairs, _ = both_kernels(monkeypatch, list(_family_lps(rng, kind, DRAWS)))
    assert len(pairs) == 3 * DRAWS
    assert all(mine == ref for mine, ref in pairs)
    statuses = {mine[0] for mine, _ in pairs}
    assert {"feasible": "optimal"}.get(kind, kind) in statuses
    if kind == "infeasible":   # the certificates were compared
        assert sum(mine[3] is False for mine, _ in pairs) >= DRAWS


@pytest.mark.parametrize("n", [10, 20, 40])
def test_box_lp_outputs_keep_their_bits(n, monkeypatch):
    rng = np.random.default_rng(3)
    pairs, _ = both_kernels(monkeypatch, [_box_lp(n, rng) for _ in range(5)])
    assert all(mine == ref for mine, ref in pairs)


@pytest.mark.parametrize("grid", [12, 24, 48])
def test_torsion_lp_outputs_keep_their_bits(grid, monkeypatch):
    lps = torsion_lps(monkeypatch, grid)
    assert len(lps) >= 2
    pairs, differing = both_kernels(monkeypatch, lps)
    assert all(mine == ref for mine, ref in pairs)
    assert differing > 0   # the tableaus did differ in zero signs


def test_the_kernels_differ_only_in_zero_signs():
    """One pivot on a tableau with -0.0 entries: the updates' values agree,
    and the k = 1 product leaves -0.0 where the multiply leaves +0.0."""
    T = np.array([[2.0, 0.0, 1.0], [-4.0, -0.0, 3.0], [1.0, -0.0, -0.0]])
    mine, ref = T.copy(), T.copy()
    numkernel._pivot(mine, 0, 0, np.empty(3), np.empty_like(T))
    broadcast_pivot(ref, 0, 0, np.empty(3), np.empty_like(T))
    assert np.array_equal(mine, ref)
    # -4 * +0.0: the multiply's -0.0 takes -0.0 to +0.0, the product's +0.0 keeps it
    assert np.signbit(mine[1:, 1]).tolist() == [True, True]
    assert np.signbit(ref[1:, 1]).tolist() == [False, True]
