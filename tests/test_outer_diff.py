"""The penalty planes' outer difference is exact.

penalty._outer_diff forms y_j - x_i as the product of [-x, 1] and [1; y]:
each entry is a sum of two exact products, so it rounds once, as the
subtraction does. It is compared with numpy's subtract entry by entry (==
counts +0 and -0 as equal, the one difference the product may make), and the
rank, the dominance reach and the pair norms built on it are compared byte
for byte with the same code on a broadcast subtract.
"""
import math

import numpy as np
import pytest

import conegen.penalty as penalty_module
from conegen.config import default_tolerances
from conegen.cones import PolyhedralCone
from penalty_oracle import broadcast_outer_diff
from test_penalty import random_cone

PYRAMID = PolyhedralCone(3, generators=[[1.0, 1.0, 1.0], [1.0, -1.0, 1.0],
                                         [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])


def entries(rng, n):
    """n floats at exponents -1074 to 1023 of both signs, with zeros of both
    signs and repeats mixed in."""
    x = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1074, 1024, n)) * rng.choice([-1, 1], n)
    special = rng.random(n)
    x[special < 0.1] = 0.0
    x[(special >= 0.1) & (special < 0.2)] = -0.0
    repeat = special >= 0.9
    x[repeat] = rng.choice(x, int(repeat.sum()))
    return x


@pytest.mark.parametrize("seed", range(6))
def test_the_product_equals_the_subtraction(seed):
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):   # far entries: both sides read inf
        for n, m in [(0, 5), (5, 0), (0, 0), (1, 1), (1, 300), (300, 1), (7, 13),
                     (64, 200), (130, 257)]:
            x, y = entries(rng, n), entries(rng, m)
            share = min(n, m) // 3
            x[:share] = y[:share]   # equal entries: differences of exact zero
            left = penalty_module._left(x[:, None])[0]
            right = penalty_module._right(y[:, None])[0]
            want = np.subtract(y[None, :], x[:, None])
            got = penalty_module._outer_diff(left, right)
            assert got.shape == want.shape and np.array_equal(got, want)
            # a column slice of the right factor into a reused buffer, as the
            # rank's row blocks read it
            lo = m // 3
            buf = np.full((n, m - lo), np.nan)
            assert penalty_module._outer_diff(left, right[:, lo:], out=buf) is buf
            assert np.array_equal(buf, want[:, lo:])


def sample(seed, d, m, k):
    """150 points (two row blocks) and values at 2^k, points at 2^(k // 2),
    with repeated values."""
    rng = np.random.default_rng([seed, d, m])
    cone = PYRAMID if m == 3 and seed % 2 else random_cone(rng, m, general=bool(seed % 2))
    pts = rng.uniform(-1.0, 1.0, size=(150, d))
    vals = pts @ rng.normal(size=(m, d)).T + 0.3 * np.sin(pts @ rng.normal(size=(m, d)).T)
    vals[100:120] = vals[:20]
    e = np.sum(cone.generators, axis=0)
    return rng, cone, np.ldexp(pts, k // 2), np.ldexp(vals, k), e / np.linalg.norm(e)


def kernel_outputs(rng, cone, pts, vals, e, p):
    tols = default_tolerances()
    rows = rng.permutation(vals.shape[0])[:50]
    cols = np.sort(rng.choice(vals.shape[0], 40, replace=False))
    reach = penalty_module._dominance_reach
    tol = tols.membership
    out = [penalty_module._measure_rank(pts, vals, cone, e, p, tols).value,
           penalty_module._pair_norms(pts, pts[::3], p)]
    with np.errstate(over="ignore"):   # far values: a reach may read inf
        out += [reach(vals, cone, tol), reach(vals, cone, tol, rows=rows),
                reach(vals, cone, tol, cols=cols), reach(vals, cone, tol, rows=rows, cols=cols),
                reach(vals, cone, tol, rows=[], cols=cols), reach(vals, cone, tol, cols=[])]
    return [np.asarray(a).tobytes() for a in out]


@pytest.mark.parametrize("k", [-1060, -500, 0, 500, 1020])
@pytest.mark.parametrize("p", [1, 2, math.inf])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_rank_reach_and_norms_are_those_of_the_broadcast_subtract(d, m, p, k, monkeypatch):
    for seed in (0, 1):
        got = kernel_outputs(*sample(seed, d, m, k), p)
        with monkeypatch.context() as patch:
            patch.setattr(penalty_module, "_outer_diff", broadcast_outer_diff)
            want = kernel_outputs(*sample(seed, d, m, k), p)
        assert got == want
