"""The gap report's numbers against the expressions they stand for, bit for
bit.

The report reads the products at the optimum once, its reductions in method
form or over one concatenation, and its active-set steps without throw-away
identity rows. The references below write each number out as the plain
expression: Q @ x + q for the gradient, five separate max |t| for the size
of the linear term's parts, `BoxProgram.objective` for the primal value, a
least-squares solve for the dual minimizer. Every report of a fixed set of
programs must give their bits, from its own x and multipliers.

The active set reflects an entering bound out of Z from the row s Z[j]
(+ 0.0), which is what the gemv Z'(s e_j) sums to, zeros and their signs
included; its ratio test breaks a tie of steps as `np.lexsort` orders them;
and `independent_rows` keeps a lone row without a QR. Each is checked here
against the longer form it replaces.
"""
import math

import numpy as np
import pytest

from conegen import duality
from conegen.cones import coordinate_cone
from conegen.config import default_tolerances
from conegen.duality import BoxProgram, duality_gap_report, random_box_program, solve_primal
from conegen.numkernel import PRODUCT_E, independent_rows, pow2_shift


def defect_program():
    """The benchmark's known active-set cap instance: the seventh draw (four
    LPs, then three QPs) from default_rng(7) with n <= 40 and m <= 24."""
    rng = np.random.default_rng(7)
    for kind in ("lp",) * 4 + ("qp",) * 3:
        n = int(rng.integers(2, 41))
        m = int(rng.integers(1, 25))
        x_lo = -1.0 - rng.random(n)
        x_hi = 1.0 + rng.random(n)
        center = 0.5 * (x_lo + x_hi)
        if kind == "qp":
            r = int(rng.integers(1, n + 1))
            B = rng.normal(size=(r, n))
            Q = B.T @ B + (0.05 if r == n else 0.0) * np.eye(n)
        else:
            Q = np.zeros((n, n))
        q = rng.normal(size=n)
        G = rng.normal(size=(m, n))
        g0 = -(G @ center) - rng.uniform(0.5, 1.5, size=m)
        H = h0 = None
        if rng.random() < 0.4:
            H = rng.normal(size=(1, n))
            h0 = -(H @ center)
        c = float(rng.normal())
    prog = BoxProgram(n=n, Q=Q, q=q, c=c, x_lo=x_lo, x_hi=x_hi, G=G, g0=g0,
                      cone_y=coordinate_cone(m), H=H, h0=h0)
    return prog, np.ones(m) / math.sqrt(m)


def programs():
    """QPs and LPs, with and without h, at criterion 5's sizes (n <= 6,
    m <= 4) and at the benchmark's larger ones (n <= 12, m <= 24)."""
    out = []
    for seed, (n_max, m_max) in enumerate([(6, 4), (12, 24)]):
        rng = np.random.default_rng([49, seed])
        for k in range(96):
            out.append(random_box_program(rng, kind="qp" if k % 2 else "lp", n_max=n_max,
                                          m_max=m_max, with_h=k % 4 > 1))
    return out + [defect_program()]


PROGRAMS = programs()


def linear_parts(prog, mult):
    gy = prog.G.T @ mult.y if prog.m else np.zeros(prog.n)
    hz = prog.H.T @ mult.z if prog.k else np.zeros(prog.n)
    return prog.q + gy + (-mult.x1 + mult.x2) + hz, (prog.q, gy, mult.x1, mult.x2, hz)


def ref_kkt_residual(prog, x, mult):
    gx = prog.g(x)
    cone_viol = prog.cone_y.halfspaces @ gx if prog.m else gx
    return float(max(np.max(np.abs(prog.Q @ x + linear_parts(prog, mult)[0])),
                     np.max(mult.x1 * np.abs(x - prog.x_lo)),
                     np.max(mult.x2 * np.abs(prog.x_hi - x)), abs(mult.y @ gx),
                     np.max(prog.x_lo - x), np.max(x - prog.x_hi),
                     np.max(cone_viol, initial=0.0),
                     np.max(np.abs(prog.h(x)), initial=0.0)))


def ref_dual_terms(prog, mult):
    b, parts = linear_parts(prog, mult)
    tol = default_tolerances().qp_curv * max(float(np.max(np.abs(t))) for t in parts)
    terms = [prog.c, float(mult.x1 @ prog.x_lo), -float(mult.x2 @ prog.x_hi)]
    terms += [float(mult.y @ prog.g0)] if prog.m else []
    terms += [float(mult.z @ prog.h0)] if prog.k else []
    value = sum(terms[1:], terms[0])
    if prog.Q.any():
        x, *_ = np.linalg.lstsq(prog.Q, -b, rcond=None)
        terms += [float(0.5 * x @ prog.Q @ x), float(b @ x)]
        value, b = terms[-2] + terms[-1] + value, prog.Q @ x + b
    if not np.max(np.abs(b)) <= tol:
        value = -math.inf
    return value, max(map(abs, terms))


def same(a, b):
    return a is b is None or float(a).hex() == float(b).hex()


@pytest.mark.parametrize("k", range(len(PROGRAMS)))
def test_the_report_gives_the_bits_of_its_expressions(k):
    prog, e = PROGRAMS[k]
    primal = solve_primal(prog)
    x, mult = primal.x, primal.multipliers
    res = ref_kkt_residual(prog, x, mult)
    gate = default_tolerances().kkt * max(1.0, np.abs(prog.gradient(x)).max())
    assert same(primal.kkt_residual, res)
    if primal.status != "iteration-cap":
        assert primal.status == ("optimal" if res <= gate else "numerical")
    assert same(primal.value, prog.objective(x))
    rep = duality_gap_report(prog, e)
    assert rep.primal_status == primal.status
    if rep.primal_status != "optimal":
        return
    assert same(rep.kkt_residual, res) and same(rep.primal_value, prog.objective(x))
    dual, size = ref_dual_terms(prog, rep.multipliers)
    gap = rep.primal_value - dual
    size = max(size, abs(float(0.5 * x @ prog.Q @ x)), abs(float(prog.q @ x)), abs(prog.c))
    assert same(rep.dual_value, dual) and same(rep.gap, gap)
    assert rep.gap_ok == ((not rep.gap_asserted) or gap <= default_tolerances().kkt * size)


def test_the_programs_cover_both_kinds_with_and_without_h():
    kinds = {(bool(p.Q.any()), p.k > 0) for p, _ in PROGRAMS}
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
    assert max(p.n for p, _ in PROGRAMS[:-1]) > 6 and max(p.m for p, _ in PROGRAMS) > 4
    assert PROGRAMS[-1][0].n == 32 and all(
        duality_gap_report(p, e).primal_status == "optimal" for p, e in PROGRAMS)


def orthonormal_bases(rng, count):
    """(Z, held): orthonormal Z with zero rows at the held coordinates and
    two diagonal blocks on the free ones, every zero entry +0.0 or -0.0 at
    random."""
    out = []
    while len(out) < count:
        n = int(rng.integers(3, 13))
        held = rng.random(n) < 0.3
        free = rng.permutation(np.flatnonzero(~held))
        if free.size < 2:
            continue
        cut = int(rng.integers(1, free.size))
        blocks = []
        for rows in (free[:cut], free[cut:]):
            block = np.zeros((n, int(rng.integers(1, rows.size + 1))))
            block[rows] = np.linalg.qr(rng.normal(size=(rows.size, block.shape[1])))[0]
            blocks.append(block)
        Z = np.hstack(blocks)
        zero = Z == 0.0
        Z[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
        out.append((Z, held))
    return out


def bound_reflections():
    """Per case, whether the bound row s Z[j] + 0.0 gives the bytes of the
    gemv Z'(s e_j), and, on a row of Z that is not zero, whether the
    reflection from it gives the bytes of `_reflect_out(Z, s e_j)`."""
    out = []
    for Z, held in orthonormal_bases(np.random.default_rng(491), 150):
        n = Z.shape[0]
        for j in range(n):
            for s in (-1.0, 1.0):
                a = s * np.eye(1, n, j)[0]
                u = s * Z[j] + 0.0
                row = (Z.T @ a).tobytes() == u.tobytes()
                if held[j]:   # a zero row: no bound there can block
                    out.append(row)
                    continue
                W = duality._reflect(Z, u.copy())
                out.append(row and W.tobytes() == duality._reflect_out(Z, a).tobytes())
    return out


def test_a_bound_is_reflected_out_as_the_gemv_reflects_it():
    checks = bound_reflections()
    assert len(checks) > 1000 and all(checks)


def test_the_bases_are_orthonormal_with_zeros_of_both_signs():
    bases = orthonormal_bases(np.random.default_rng(491), 150)
    for Z, held in bases:
        assert np.abs(Z.T @ Z - np.eye(Z.shape[1])).max() <= 1e-14
        assert not Z[held].any()
    signs = np.concatenate([np.signbit(Z[Z == 0.0]) for Z, _ in bases])
    assert signs.any() and not signs.all() and any(held.any() for _, held in bases)


def ref_ratio_test(prog, A, b, x, p, alpha_max, work, rate_tol):
    """The ratio test with its bound pick by `np.lexsort`."""
    norms = np.linalg.norm(A, axis=1)
    p_norm = np.linalg.norm(p)
    up, speed = p > 0.0, np.abs(p)
    steps = np.full(p.size, math.inf)
    np.divide(np.maximum(np.where(up, prog.x_hi - x, x - prog.x_lo), 0.0), speed,
              out=steps, where=speed > rate_tol * p_norm)
    k = int(np.lexsort((up, steps))[0])
    alpha, hit = alpha_max, None
    if steps[k] < alpha:
        alpha, hit = float(steps[k]), (k, 1 if up[k] else -1)
    rate = A @ p
    cand = np.flatnonzero((rate > rate_tol * norms * p_norm) & ~work)
    if cand.size:
        steps = np.maximum((b - A @ x)[cand], 0.0) / rate[cand]
        k = int(np.argmin(steps))
        if steps[k] < alpha:
            alpha, hit = float(steps[k]), (int(cand[k]), 0)
    return alpha, hit


def ratio_test(prog, A, b, x, p, alpha_max, work):
    rate_tol = default_tolerances().qp_step
    rate_tols = rate_tol * np.linalg.norm(A, axis=1)
    return duality._ratio_test(prog, A, b, x, p, alpha_max, work, rate_tols, rate_tol)


def unit_box(n):
    return BoxProgram(n=n, Q=np.eye(n), q=np.zeros(n), c=0.0, x_lo=np.zeros(n),
                      x_hi=np.ones(n))


@pytest.mark.parametrize("p, rows, hit", [
    ([1.0, -1.0, 1.0, -1.0], [], (1, -1)),     # four bounds at 0.5: the first lower one
    ([1.0, 1.0, -1.0], [], (2, -1)),           # a lower bound after two upper ones
    ([1.0, 1.0], [], (0, 1)),                  # upper bounds only: the lowest
    ([0.5, -0.5, 1.0], [], (2, 1)),            # one least step, no tie
    ([1.0, -1.0], [[1.0, 0.0]], (1, -1)),      # a cone row tied with two bounds
    ([1.0, 0.25], [[1.0, 0.0]], (0, 1)),       # a cone row tied with one bound
    ([1.0, 0.25], [[2.0, 0.0]], (0, 0)),       # the cone row first
], ids=["four-tied", "lower-last", "upper-only", "no-tie", "row-and-two", "row-and-one",
        "row-first"])
def test_a_tie_of_steps_is_broken_as_lexsort_breaks_it(p, rows, hit):
    # from the centre of [0, 1]^n; each cone row a'x <= 1 reaches its bound
    # where a'x = 1, at step 0.5 for a = e_0 and 0.25 for a = 2 e_0
    n = len(p)
    prog, x, p = unit_box(n), np.full(n, 0.5), np.array(p)
    A = np.array(rows, dtype=float).reshape(-1, n)
    b, work = np.ones(A.shape[0]), np.zeros(A.shape[0], dtype=bool)
    got = ratio_test(prog, A, b, x, p, 1.0, work)
    assert got == ref_ratio_test(prog, A, b, x, p, 1.0, work, default_tolerances().qp_step)
    assert got[1] == hit


def test_ties_on_a_grid_are_broken_as_lexsort_breaks_them():
    # points and steps on a dyadic grid tie often and exactly
    rng = np.random.default_rng(492)
    ties = 0
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        prog = unit_box(n)
        x = rng.integers(0, 9, size=n) / 8.0
        p = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=n)
        m = int(rng.integers(0, 4))
        A = rng.choice([-1.0, 0.0, 1.0], size=(m, n))
        A[~A.any(axis=1), 0] = 1.0
        b = A @ x + rng.integers(0, 5, size=m) / 8.0
        work = rng.random(m) < 0.2
        alpha_max = float(rng.choice([0.5, 1.0, math.inf]))
        got = ratio_test(prog, A, b, x, p, alpha_max, work)
        ref = ref_ratio_test(prog, A, b, x, p, alpha_max, work, default_tolerances().qp_step)
        assert got == ref and same(got[0], ref[0])
        speed = np.abs(p)
        steps = np.where(p > 0, 1.0 - x, x)[speed > 0] / speed[speed > 0]
        ties += steps.size > 1 and np.count_nonzero(steps == steps.min()) > 1
    assert ties > 200


def qr_keeps(rows):
    """`independent_rows`' QR decision, on every row count, each row read at
    the power of two of its largest |entry| that `pow2_shift` gives."""
    tol = default_tolerances().qp_curv
    shifts = [pow2_shift(top, -PRODUCT_E, PRODUCT_E)
              for top in np.abs(rows).max(axis=1, initial=0.0).tolist()]
    rows = np.ldexp(rows, -np.array(shifts, dtype=int).reshape(-1, 1))
    keep = np.arange(rows.shape[0])
    norms = np.linalg.norm(rows, axis=1)
    while keep.size:
        diag = np.abs(np.diagonal(np.linalg.qr(rows[keep].T, mode="r")))
        small = np.flatnonzero(diag <= tol * norms[keep[:diag.size]])
        if small.size == 0:
            return keep[:diag.size]
        keep = np.delete(keep, small[0])
    return keep


def test_a_lone_row_is_kept_as_the_qr_keeps_it():
    # zero, subnormal, ordinary and far rows, among them rows whose squared
    # norm would overflow (entries from about 1.3e154): each is read at a
    # power of two, so no warning is ignored here
    rng = np.random.default_rng(493)
    rows = [np.zeros((0, 3)), np.zeros((1, 3)), np.array([[5e-324, 0.0]]),
            np.array([[-0.0, 1e-320, 0.0]]), np.array([[1e154, 1e154]]),
            np.array([[1.7e308]]), np.array([[2e154, 0.0]])]
    for _ in range(3000):
        n = int(rng.integers(1, 9))
        r = rng.normal(size=(1, n)) * math.ldexp(1.0, int(rng.integers(-1090, 1020)))
        r[0, rng.random(n) < 0.3] = 0.0
        rows.append(r)
    for r in rows:
        kept = independent_rows(r)
        assert kept.dtype == qr_keeps(r).dtype and np.array_equal(kept, qr_keeps(r))


def test_curved_reads_m_less_the_shifted_identity():
    rng = np.random.default_rng(494)
    for k in range(0, 7):
        B = rng.normal(size=(k, k))
        M = B.T @ B
        for shift in (0.0, 1e-12, float(np.linalg.eigvalsh(M).min(initial=1.0))):
            before = M.copy()
            try:
                np.linalg.cholesky(M - shift * np.eye(k))
                ref = True
            except np.linalg.LinAlgError:
                ref = False
            assert duality._curved(M, shift) == ref
            assert M.tobytes() == before.tobytes()   # M itself is not shifted
