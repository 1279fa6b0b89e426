import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import conegen.penalty as penalty_module
from conegen.gauge import ambient_norm
from conegen.config import default_tolerances, use_tolerances
from conegen.cones import ROUNDING, InvalidCone, PolyhedralCone, coordinate_cone
from conegen.penalty import (PenaltyInstance, PreconditionViolation,
                             cone_lipschitz_rank, cone_minimal_points,
                             distance_to_set, penalized_objective,
                             random_instance, verify_penalty_equivalence)
from penalty_oracle import (brute_force_grid_min, minimal_oracle, rank_oracle,
                            reach_oracle, report_oracle)


def random_cone(rng, m, general):
    """Coordinate cone, or a general one: the half-line of -1 when m = 1, else
    the simplicial cone of random_instance with both descriptions given."""
    if not general:
        return coordinate_cone(m)
    if m == 1:
        return PolyhedralCone(1, generators=[[-1.0]])
    gens = np.eye(m) + 0.25 * rng.uniform(-1.0, 1.0, size=(m, m))
    return PolyhedralCone(m, generators=gens, halfspaces=np.linalg.inv(gens).T)


def scalar_abs_instance():
    grid = np.arange(-2.0, 2.25, 0.25).reshape(-1, 1)
    mask = (grid[:, 0] >= 1.0) & (grid[:, 0] <= 2.0)
    return PenaltyInstance(points=grid, feasible_mask=mask, objective=None,
                           cone=coordinate_cone(1), e=[1.0], rank=1.0,
                           values=np.abs(grid))


class TestDistance:
    def test_scalar_interval(self):
        # the interval's end points as a point list
        d, w = distance_to_set([0.0], [[1.0], [2.0]])
        assert d == 1.0 and np.allclose(w, [1.0])

    def test_finite_enumeration(self):
        d, w = distance_to_set([0.0, 0.0], [[1.0, 1.0], [2.0, 0.0]])
        assert d == pytest.approx(math.sqrt(2.0)) and np.allclose(w, [1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distance_to_set([0.0], np.zeros((0, 1)))

    def test_triangle_property(self):
        rng = np.random.default_rng(22)
        omega = rng.normal(size=(15, 3))
        for _ in range(100):
            x, y = rng.normal(size=3), rng.normal(size=3)
            dx, _ = distance_to_set(x, omega)
            dy, _ = distance_to_set(y, omega)
            assert dx <= np.linalg.norm(x - y) + dy + 1e-12

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_box_and_point_list_forms_agree(self, p):
        # there is no box spelling: a pair (y, z) is the two-point list [y, z]
        rng = np.random.default_rng(23)
        for _ in range(20):
            x, y, z = rng.normal(size=(3, int(rng.integers(1, 6))))
            pair, listed = distance_to_set(x, (y, z), p=p), distance_to_set(x, [y, z], p=p)
            assert pair[0] == listed[0] == pytest.approx(
                min(ambient_norm(x - y, p=p), ambient_norm(x - z, p=p)), rel=1e-15, abs=0)
            assert np.array_equal(pair[1], listed[1])
        assert distance_to_set([3.0, 4.0], ([0.0, 0.0], [0.0, 0.0]), p=p)[0] == \
            distance_to_set([3.0, 4.0], [[0.0, 0.0]], p=p)[0] == {1: 7.0, 2: 5.0}.get(p, 4.0)


@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_distances_to_omega_equal_the_minimum_of_the_norms(p):
    # the root of the row minimum against the minimum of the roots: sqrt is
    # monotone and correctly rounded, so the bytes agree
    rng = np.random.default_rng(28)
    for _ in range(20):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 5))
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-6, 6)
        mask = rng.random(n) < 0.3
        mask[0] = True
        inst = PenaltyInstance(points=pts, feasible_mask=mask, objective=None,
                               cone=coordinate_cone(1), e=[1.0], rank=None,
                               values=rng.normal(size=(n, 1)), norm_p=p)
        old = np.min(penalty_module._pair_norms(pts, pts[mask], p), axis=1)
        assert inst.distances_to_omega().tobytes() == old.tobytes()


@pytest.mark.parametrize("p", [3, "inf", 0, True])
def test_every_reader_of_p_refuses_other_exponents(p):
    pts, vals = np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])
    cone, e = coordinate_cone(1), np.ones(1)
    readers = [
        lambda: ambient_norm([3.0, 4.0], p=p),
        lambda: distance_to_set([3.0, 4.0], [[0.0, 0.0]], p=p),
        lambda: cone_lipschitz_rank(pts, vals, cone, e, p=p),
        lambda: PenaltyInstance(points=pts, feasible_mask=[True, False], objective=None,
                                cone=cone, e=e, rank=None, values=vals, norm_p=p),
    ]
    for read in readers:
        with pytest.raises(ValueError, match="p in {1, 2, inf}"):
            read()


class TestRank:
    def test_linear_along_e(self):
        grid = np.linspace(-2, 2, 9).reshape(-1, 1)
        vals = grid @ np.array([[1.0, 1.0]])  # f(x) = x * e
        est = cone_lipschitz_rank(grid, vals, coordinate_cone(2),
                                  np.array([1.0, 1.0]) / math.sqrt(2) * math.sqrt(2))
        assert est.value == pytest.approx(1.0, abs=1e-12)
        # a rank measured on a sample bounds the rank on a continuum from
        # below only, and the report says so (e has unit inf-norm)
        inst = PenaltyInstance(points=grid, feasible_mask=grid[:, 0] >= 0.0, objective=None,
                               cone=coordinate_cone(2), e=[1.0, 1.0], rank=None,
                               values=vals, norm_p=math.inf)
        assert verify_penalty_equivalence(inst, 2.0).to_dict()["rank_is_sample_estimate"] is True

    def test_constant(self):
        grid = np.linspace(0, 1, 5).reshape(-1, 1)
        est = cone_lipschitz_rank(grid, np.ones((5, 2)), coordinate_cone(2),
                                  [1.0, 1.0])
        assert est.value == 0.0

    def test_ratio_oracle(self):
        grid = np.arange(-2.0, 2.1, 0.5).reshape(-1, 1)
        vals = np.hstack([np.abs(grid), 2 * np.abs(grid)])
        est = cone_lipschitz_rank(grid, vals, coordinate_cone(2), [1.0, 1.0])
        assert est.value == pytest.approx(2.0, abs=1e-12)

    def test_coincident_points(self):
        pts = np.zeros((2, 1))
        vals = np.array([[0.0], [1.0]])
        est = cone_lipschitz_rank(pts, vals, coordinate_cone(1), [1.0])
        assert est.value == math.inf

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 30), m=st.integers(1, 6), d=st.integers(1, 4),
           n=st.integers(2, 30), p=st.sampled_from([1, 2, math.inf]),
           general=st.booleans(),
           case=st.sampled_from(["random", "boundary e", "coincident", "repeated",
                                 "constant"]))
    def test_matches_tensor_oracle(self, seed, m, d, n, p, general, case):
        # bit for bit on coordinate cones; on general ones <h, v_i> - <h, v_j>
        # rounds differently from <h, v_i - v_j>
        rng = np.random.default_rng(seed)
        cone = random_cone(rng, m, general)
        pts = rng.uniform(-1.0, 1.0, size=(n, d))
        vals = rng.normal(size=(n, m))
        e = np.sum(cone.generators, axis=0)
        e = e / np.linalg.norm(e)
        if case == "boundary e" and m >= 2:
            e = cone.generators[0]
        elif case in ("coincident", "repeated"):
            pts[-1] = pts[0]
            if case == "repeated":   # same point, same value: a finite rank
                vals[-1] = vals[0]
        elif case == "constant":
            vals[:] = vals[0]
        got = cone_lipschitz_rank(pts, vals, cone, e, p=p).value
        ref = rank_oracle(pts, vals, cone, e, p=p)
        if general and math.isfinite(ref):
            assert abs(got - ref) <= 1e-12 * abs(ref)
        else:
            assert got == ref
        if case == "coincident":
            assert got == math.inf
        if case == "repeated":
            assert math.isfinite(got)
        if case == "constant":
            assert got == 0.0


B = penalty_module._BLOCK
# the pair kernels take one block below 2 B rows, then blocks of B to 2 B - 1
MULTI_BLOCK_SIZES = (B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 300)


class TestMultiBlock:
    """The row-block kernels against the all-pairs tensor oracles, with pairs
    that straddle blocks."""

    @pytest.mark.parametrize("n", MULTI_BLOCK_SIZES)
    @pytest.mark.parametrize("general", [False, True])
    def test_match_tensor_oracles(self, n, general):
        rng = np.random.default_rng([n, general])
        for m in (1, 2, 4, 6):
            cone = random_cone(rng, m, general)
            pts = rng.uniform(-1.0, 1.0, size=(n, 3))
            vals = rng.normal(size=(n, m))
            # copies of the first block's rows at the end, exact and moved by
            # about 5e-9 and 5e-8: duplicates across blocks, both sides of
            # strict_tol
            shift = np.array([0.0, 5e-9, 5e-8])[:, None] * rng.normal(size=(3, m))
            vals[-3:] = vals[:3] + shift
            e = np.sum(cone.generators, axis=0)
            e = e / np.linalg.norm(e)
            for p in (1, 2, math.inf):
                got = cone_lipschitz_rank(pts, vals, cone, e, p=p).value
                ref = rank_oracle(pts, vals, cone, e, p=p)
                if general:
                    assert abs(got - ref) <= 1e-12 * abs(ref)
                else:
                    assert got == ref
            assert np.array_equal(cone_minimal_points(vals, cone),
                                  minimal_oracle(vals, cone))

    @pytest.mark.parametrize("n", [2 * B + 1, 300])
    def test_coincident_pair_in_different_blocks(self, n):
        rng = np.random.default_rng(n)
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        vals = rng.normal(size=(n, 2))
        pts[-1] = pts[0]
        e = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert cone_lipschitz_rank(pts, vals, coordinate_cone(2), e).value == math.inf
        vals[-1] = vals[0]
        assert math.isfinite(cone_lipschitz_rank(pts, vals, coordinate_cone(2), e).value)

    def test_membership_tolerance_is_closed_across_blocks(self):
        # row 0 dominates row n - 1 at tol 0.5 exactly: the pair sits in the
        # first and the last block, and the rows between form an antichain
        n = 2 * B + 1
        t = 10.0 + np.arange(n)
        vals = np.column_stack([t, -t])
        vals[0], vals[-1] = [-1.0, 0.5], [0.0, 0.0]
        for tol, want in ((0.5, np.arange(n - 1)), (0.25, np.arange(n))):
            with use_tolerances(replace(default_tolerances(), membership=tol)):
                assert np.array_equal(cone_minimal_points(vals, coordinate_cone(2)), want)
            assert np.array_equal(minimal_oracle(vals, coordinate_cone(2), tol=tol), want)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_boundary_e_in_both_directions(self, sign):
        # <h_2, e> = 0: only the pair (0, n - 1), in the first and the last
        # block, differs along h_2 by more than the membership tolerance
        n = 2 * B + 1
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        vals = np.column_stack([rng.normal(size=n), np.zeros(n)])
        cone, e = coordinate_cone(2), np.array([1.0, 0.0])
        finite = cone_lipschitz_rank(pts, vals, cone, e).value
        assert math.isfinite(finite) and finite == rank_oracle(pts, vals, cone, e)
        vals[0, 1], vals[-1, 1] = 0.8e-9 * sign, -0.8e-9 * sign
        assert cone_lipschitz_rank(pts, vals, cone, e).value == math.inf
        assert rank_oracle(pts, vals, cone, e) == math.inf


class TestRowReach:
    """The reach of a row subset equals the full relation's rows bit for bit,
    in any order and with repeats."""

    @pytest.mark.parametrize("n", MULTI_BLOCK_SIZES)
    @pytest.mark.parametrize("general", [False, True])
    def test_equals_full_relation_rows(self, n, general):
        rng = np.random.default_rng([n, general, 1])
        for m in (1, 2, 4, 6):
            cone = random_cone(rng, m, general)
            vals = rng.normal(size=(n, m))
            # exact and nearly exact copies across blocks, as in TestMultiBlock
            shift = np.array([0.0, 5e-9, 5e-8])[:, None] * rng.normal(size=(3, m))
            vals[-3:] = vals[:3] + shift
            subsets = [np.arange(0), rng.permutation(n)[:max(1, n // 5)],
                       np.arange(n)[::-1], np.concatenate([np.arange(n), [0, n - 1]])]
            for tol in (1e-9, 0.5):
                full = penalty_module._dominance_reach(vals, cone, tol)
                for R in subsets:
                    got = penalty_module._dominance_reach(vals, cone, tol, rows=R)
                    assert got.shape == R.shape
                    assert np.array_equal(got, full[R])

    def test_verification_reads_rank_relation_on_m1(self, monkeypatch):
        # the full relation on Omega, the screen of the penalized values
        # against m1's columns, full rows for the rows it leaves open (here m1
        # alone: m1 dominates every other point by at least 0.125), and m1's
        # rows at the rank
        seen = []
        reach = penalty_module._dominance_reach

        def recorded_reach(V, cone, tol, rows=None, cols=None):
            seen.append((V, rows, cols))
            return reach(V, cone, tol, rows=rows, cols=cols)

        monkeypatch.setattr(penalty_module, "_dominance_reach", recorded_reach)
        inst = scalar_abs_instance()
        rep = verify_penalty_equivalence(inst, 1.5)
        m1 = rep.minimal_constrained
        assert len(seen) == 4 and m1.tolist() == [12]
        (v0, r0, c0), (v1, r1, c1), (v2, r2, c2), (v3, r3, c3) = seen
        assert np.array_equal(v0, inst.values[inst.feasible_mask]) and r0 is c0 is None
        assert np.array_equal(v1, inst.penalized_values(1.5))
        assert r1 is None and np.array_equal(c1, m1)
        assert np.array_equal(v2, v1) and np.array_equal(r2, m1) and c2 is None
        assert np.array_equal(v3, inst.penalized_values(inst.rank))
        assert np.array_equal(r3, m1) and c3 is None
        assert rep.inclusion_at_rank is True


class TestScreen:
    """The reach over a column subset: each value a lower bound of the full
    reach, and the max over those columns of the tensor oracle's relation."""

    @pytest.mark.parametrize("n", MULTI_BLOCK_SIZES)
    @pytest.mark.parametrize("general", [False, True])
    def test_column_reach_bounds_the_full_reach(self, n, general):
        rng = np.random.default_rng([n, general, 2])
        for m in (1, 2, 4, 6):
            cone = random_cone(rng, m, general)
            vals = rng.normal(size=(n, m))
            shift = np.array([0.0, 5e-9, 5e-8])[:, None] * rng.normal(size=(3, m))
            vals[-3:] = vals[:3] + shift
            subsets = [np.arange(0), rng.permutation(n)[:1],
                       rng.permutation(n)[:max(1, n // 5)], np.arange(n)[::-1]]
            rows = rng.permutation(n)[:max(1, n // 3)]
            for tol in (1e-9, 0.5):
                full = penalty_module._dominance_reach(vals, cone, tol)
                ref = reach_oracle(vals, cone, tol)
                for C in subsets:
                    got = penalty_module._dominance_reach(vals, cone, tol, cols=C)
                    assert got.shape == (n,) and np.all(got <= full)
                    assert np.array_equal(got, np.max(ref[:, C], axis=1, initial=0.0))
                    some = penalty_module._dominance_reach(vals, cone, tol, rows=rows,
                                                           cols=C)
                    assert np.array_equal(some, got[rows])

    def test_open_row_gets_its_full_reach(self):
        # at membership 0.5 on the line every point dominates every other;
        # x = 1 is dominated by m1 = {x = 0} by 5e-8 only, but by x = 2 by
        # 0.4: a screen that closed it at strict_nonzero would read it as
        # minimal at 10 strict_nonzero
        with use_tolerances(replace(default_tolerances(), membership=0.5)):
            inst = PenaltyInstance(points=[[0.0], [1.0], [2.0]],
                                   feasible_mask=[True, False, False], objective=None,
                                   cone=coordinate_cone(1), e=[1.0], rank=None,
                                   values=[[0.0], [5e-8 - 1.0], [0.4 - 2.0]])
            rep = verify_penalty_equivalence(inst, 1.0)
            m2, sensitive = full_relation_reading(inst, 1.0)
        assert np.array_equal(rep.minimal_penalized, m2) and m2.size == 0
        assert rep.tol_sensitive is sensitive is False


def full_relation_reading(inst, L):
    """(m2, tol_sensitive) read from the full relation of the penalized values,
    as the verification read them before the screen."""
    tols = default_tolerances()
    reach, minimal = penalty_module._dominance_reach, penalty_module._minimal
    st, omega_idx = tols.strict_nonzero, np.flatnonzero(inst.feasible_mask)
    r_omega = reach(inst.values[omega_idx], inst.cone, tols.membership)
    r_L = reach(inst.penalized_values(L), inst.cone, tols.membership)
    m1, m2 = omega_idx[minimal(r_omega, st)], minimal(r_L, st)
    sensitive = not all(
        np.array_equal(omega_idx[minimal(r_omega, st * f)], m1) and
        np.array_equal(minimal(r_L, st * f), m2) for f in (0.1, 10.0))
    return m2, sensitive


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 30), m=st.integers(1, 6), general=st.booleans(),
       n=st.integers(20, 120), copies=st.integers(0, 6), lam=st.floats(0.0, 9.0))
def test_screened_report_matches_full_relation(seed, m, general, n, copies, lam):
    # copies of the constrained minimizers' values at new feasible points,
    # moved by about 5e-9 or 5e-8: both sides of every threshold factor; L
    # from just above the rank to 10 times it
    rng = np.random.default_rng(seed)
    cone = random_cone(rng, m, general)
    d = int(rng.integers(1, 4))
    pts = rng.uniform(-1.0, 1.0, size=(n + copies, d))
    vals = pts @ rng.normal(size=(m, d)).T + \
        0.3 * np.sin(pts @ (3.0 * rng.normal(size=(m, d))).T)
    mask = rng.random(n + copies) < 0.3
    mask[0] = True
    mask[n:] = True
    omega_idx = np.flatnonzero(mask[:n])
    m1 = omega_idx[minimal_oracle(vals[omega_idx], cone)]
    shift = rng.choice([5e-9, 5e-8], size=(copies, 1))
    vals[n:] = vals[rng.choice(m1, size=copies)] + shift * rng.normal(size=(copies, m))
    e = np.sum(cone.generators, axis=0)
    inst = PenaltyInstance(points=pts, feasible_mask=mask, objective=None, cone=cone,
                           e=e / np.linalg.norm(e), rank=None, values=vals)
    L = (1.0 + lam) * inst.rank * (1.0 + 2.0 * ROUNDING * inst.cone.dim)
    rep, ref = verify_penalty_equivalence(inst, L), report_oracle(inst, L)
    m2, sensitive = full_relation_reading(inst, L)
    assert np.array_equal(rep.minimal_penalized, m2)
    assert np.array_equal(rep.minimal_penalized, ref.minimal_penalized)
    assert rep.tol_sensitive == sensitive == ref.tol_sensitive


class TestPenalizedObjective:
    def test_on_feasible_point(self):
        inst = scalar_abs_instance()
        f = penalized_objective(inst, 2.0)
        assert np.allclose(f([1.5]), [1.5])

    def test_outside(self):
        inst = scalar_abs_instance()
        f = penalized_objective(inst, 2.0)
        assert np.allclose(f([0.0]), [2.0])   # 0 + 2 * d(0,[1,2]) * 1
        assert np.allclose(f([1.0]), [1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            penalized_objective(scalar_abs_instance(), -1.0)

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, L):
        # nan would make every value nan, and inf makes 0 * inf = nan on Omega
        with pytest.raises(ValueError, match="must be finite"):
            penalized_objective(scalar_abs_instance(), L)


class TestMinimalPoints:
    def test_pareto_example(self):
        vals = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        idx = cone_minimal_points(vals, coordinate_cone(2))
        assert set(idx) == {0, 1}

    def test_singleton(self):
        assert list(cone_minimal_points([[3.0]], coordinate_cone(1))) == [0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        # a nan row compares false both ways, so it would count as minimal
        vals = np.array([[0.0, 1.0], [bad, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="must have finite entries"):
            cone_minimal_points(vals, coordinate_cone(2))

    def test_all_equal(self):
        vals = np.ones((4, 2))
        assert set(cone_minimal_points(vals, coordinate_cone(2))) == {0, 1, 2, 3}

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        vals = rng.normal(size=(30, 2))
        cone = coordinate_cone(2)
        idx = cone_minimal_points(vals, cone)
        again = cone_minimal_points(vals[idx], cone)
        assert np.array_equal(again, np.arange(idx.shape[0]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 30))
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(12, 2))
        cone = coordinate_cone(2)
        base = set(map(tuple, vals[cone_minimal_points(vals, cone)]))
        perm = rng.permutation(12)
        got = set(map(tuple, vals[perm][cone_minimal_points(vals[perm], cone)]))
        assert base == got

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 30), m=st.integers(1, 6), n=st.integers(1, 40),
           general=st.booleans(), strict_tol=st.sampled_from([1e-9, 1e-8, 1e-7]),
           copies=st.integers(0, 6))
    def test_matches_tensor_oracle(self, seed, m, n, general, strict_tol, copies):
        # duplicated rows, and copies moved by about 5e-9 or 5e-8, straddle
        # every strict_tol
        rng = np.random.default_rng(seed)
        cone = random_cone(rng, m, general)
        vals = rng.normal(size=(n, m))
        shift = rng.choice([0.0, 5e-9, 5e-8], size=(copies, 1))
        vals = np.vstack([vals, vals[rng.integers(0, n, size=copies)]
                          + shift * rng.normal(size=(copies, m))])
        with use_tolerances(replace(default_tolerances(), strict_nonzero=strict_tol)):
            got = cone_minimal_points(vals, cone)
        assert np.array_equal(got, minimal_oracle(vals, cone, strict_tol=strict_tol))

    def test_membership_tolerance_is_closed(self):
        vals = np.array([[0.0, 0.0], [-1.0, 0.5]])
        for tol, want in ((0.5, [1]), (0.25, [0, 1])):
            with use_tolerances(replace(default_tolerances(), membership=tol)):
                assert list(cone_minimal_points(vals, coordinate_cone(2))) == want
            assert list(minimal_oracle(vals, coordinate_cone(2), tol=tol)) == want

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(24)
        cone = coordinate_cone(2)
        for _ in range(20):
            pts = rng.normal(size=(40, 2))
            vals = rng.normal(size=(40, 2))
            table = {tuple(p): v for p, v in zip(pts, vals)}
            idx_fast = cone_minimal_points(vals, cone)
            idx_bf, _, _ = brute_force_grid_min(lambda p: table[tuple(p)], pts, cone)
            assert np.array_equal(np.sort(idx_fast), np.sort(idx_bf))


class TestEquivalence:
    def test_scalar_example(self):
        rep = verify_penalty_equivalence(scalar_abs_instance(), 1.5)
        inst = scalar_abs_instance()
        assert inst.points[rep.minimal_constrained, 0].tolist() == [1.0]
        assert inst.points[rep.minimal_penalized, 0].tolist() == [1.0]
        assert rep.equal and rep.inclusion_at_rank

    def test_boundary_weight_grows_minimal_set(self):
        inst = scalar_abs_instance()
        idx = cone_minimal_points(inst.penalized_values(1.0), inst.cone)
        xs = sorted(inst.points[idx, 0])
        assert xs == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_omega_equals_s(self):
        grid = np.linspace(0, 1, 9).reshape(-1, 1)
        inst = PenaltyInstance(points=grid, feasible_mask=np.ones(9, bool),
                               objective=None, cone=coordinate_cone(1),
                               e=[1.0], rank=1.0, values=grid.copy())
        rep = verify_penalty_equivalence(inst, 1.5)
        assert rep.equal

    def test_precondition(self):
        with pytest.raises(PreconditionViolation):
            verify_penalty_equivalence(scalar_abs_instance(), 1.0)

    @pytest.mark.parametrize("L", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, L):
        # nan fails no comparison with the rank, and inf * 0 is nan
        with pytest.raises(PreconditionViolation, match="must be finite"):
            verify_penalty_equivalence(scalar_abs_instance(), L)

    def test_randomized_suite(self):
        rng = np.random.default_rng(25)
        for _ in range(40):
            inst = random_instance(rng, max_points=120)
            rep = verify_penalty_equivalence(inst, 1.1 * inst.rank)
            assert rep.equal
            assert rep.inclusion_at_rank


    def test_random_general_cones_above_dim3(self):
        rng = np.random.default_rng(26)
        dims = set()
        for _ in range(30):
            inst = random_instance(rng, max_m=6, max_points=80)
            dims.add((inst.cone.kind, inst.cone.dim))
            rep = verify_penalty_equivalence(inst, 1.1 * inst.rank)
            assert rep.equal and rep.inclusion_at_rank
        assert any(kind == "general" and dim >= 4 for kind, dim in dims)


class TestReportsMatchOracle:
    @staticmethod
    def check(inst):
        L = 1.1 * inst.rank
        got, ref = verify_penalty_equivalence(inst, L), report_oracle(inst, L)
        assert np.array_equal(got.minimal_constrained, ref.minimal_constrained)
        assert np.array_equal(got.minimal_penalized, ref.minimal_penalized)
        assert (got.equal, got.inclusion_at_rank, got.tol_sensitive) == \
            (ref.equal, ref.inclusion_at_rank, ref.tol_sensitive)

    def test_criterion_4_seed(self):
        rng = np.random.default_rng(104)
        for _ in range(200):
            self.check(random_instance(rng))

    def test_general_cones_up_to_dim6(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            self.check(random_instance(rng, max_m=6))

    def test_one_relation_per_value_set(self, monkeypatch):
        # one full relation (Omega's values), the screen against m1's columns,
        # full rows for the open rows only, m1's rows at the rank, and the
        # distances to Omega once
        calls = {"relations": [], "distances": 0}
        reach = penalty_module._dominance_reach
        distances = PenaltyInstance.distances_to_omega

        def counted_reach(V, cone, tol, rows=None, cols=None):
            calls["relations"].append((rows, cols))
            return reach(V, cone, tol, rows=rows, cols=cols)

        def counted_distances(self):
            calls["distances"] += 1
            return distances(self)

        # |x| on the grid with Omega = [1, 2], and a feasible point x = 2.5
        # whose value 1 + 5e-8 m1 = {1} dominates by less than 10 strict_nonzero
        base = scalar_abs_instance()
        inst = PenaltyInstance(points=np.vstack([base.points, [[2.5]]]),
                               feasible_mask=np.append(base.feasible_mask, True),
                               objective=None, cone=base.cone, e=base.e, rank=None,
                               values=np.vstack([base.values, [[1.0 + 5e-8]]]))
        monkeypatch.setattr(penalty_module, "_dominance_reach", counted_reach)
        monkeypatch.setattr(PenaltyInstance, "distances_to_omega", counted_distances)
        rep = verify_penalty_equivalence(inst, 1.1 * inst.rank)
        m1, open_rows = rep.minimal_constrained, np.array([12, 17])
        assert m1.tolist() == [12] and rep.tol_sensitive
        assert [(r is None, c is None) for r, c in calls["relations"]] == \
            [(True, True), (True, False), (False, True), (False, True)]
        (_, screened), (finished, _), (at_rank, _) = calls["relations"][1:]
        assert np.array_equal(screened, m1) and np.array_equal(finished, open_rows)
        assert np.array_equal(at_rank, m1) and calls["distances"] == 1


class TestInstanceValidation:
    def test_empty_omega_rejected(self):
        with pytest.raises(ValueError):
            PenaltyInstance(points=np.zeros((3, 1)), feasible_mask=np.zeros(3, bool),
                            objective=None, cone=coordinate_cone(1), e=[1.0],
                            rank=1.0, values=np.zeros((3, 1)))

    def test_bad_rank_rejected(self):
        grid = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            PenaltyInstance(points=grid, feasible_mask=np.array([True, False]),
                            objective=None, cone=coordinate_cone(1), e=[1.0],
                            rank=0.5, values=2.0 * grid)

    def test_non_unit_e_rejected(self):
        grid = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            PenaltyInstance(points=grid, feasible_mask=np.array([True, True]),
                            objective=None, cone=coordinate_cone(1), e=[2.0],
                            rank=1.0, values=grid.copy())

    def test_e_on_the_boundary_refused(self):
        # e = (1, 0) is in C but not interior, for the rank measured or declared
        grid = np.array([[0.0], [1.0]])
        for rank in (None, 1.0):
            with pytest.raises(InvalidCone, match="^e must be interior to the cone$"):
                PenaltyInstance(points=grid, feasible_mask=np.array([True, True]),
                                objective=None, cone=coordinate_cone(2), e=[1.0, 0.0],
                                rank=rank, values=np.hstack([grid, grid]))

    def test_rank_none_is_measured(self):
        grid = np.array([[0.0], [1.0], [3.0]])
        inst = PenaltyInstance(points=grid, feasible_mask=np.array([True, False, True]),
                               objective=None, cone=coordinate_cone(1), e=[1.0],
                               rank=None, values=2.0 * grid)
        assert inst.rank == cone_lipschitz_rank(grid, 2.0 * grid, coordinate_cone(1),
                                                [1.0]).value == 2.0

    def test_nan_declared_rank_refused(self):
        # nan passes every L > rank comparison: at L = 1, below the true rank
        # 5, the report said equal
        grid = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="must not be nan"):
            PenaltyInstance(points=grid, feasible_mask=[True, False, False],
                            objective=None, cone=coordinate_cone(1), e=[1.0],
                            rank=math.nan, values=5.0 * grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["points", "values"])
    def test_non_finite_inputs_refused(self, monkeypatch, bad, where):
        # max(0.0, nan) is 0.0: one nan value measured a rank of 0
        monkeypatch.setattr(penalty_module, "_last_rank", None)
        data = {"points": np.array([[0.0], [1.0], [2.0]]),
                "values": np.array([[0.0], [5.0], [10.0]])}
        data[where][1, 0] = bad
        with pytest.raises(ValueError, match="finite entries"):
            cone_lipschitz_rank(data["points"], data["values"], coordinate_cone(1), [1.0])
        with pytest.raises(ValueError, match="finite entries"):
            PenaltyInstance(points=data["points"], feasible_mask=[True, False, False],
                            objective=None, cone=coordinate_cone(1), e=[1.0],
                            rank=None, values=data["values"])
        assert penalty_module._last_rank is None

    def test_coincident_points_keep_an_infinite_rank(self):
        inst = PenaltyInstance(points=[[0.0], [0.0], [1.0]],
                               feasible_mask=[True, False, False], objective=None,
                               cone=coordinate_cone(1), e=[1.0], rank=None,
                               values=[[0.0], [1.0], [2.0]])
        assert inst.rank == math.inf
        with pytest.raises(PreconditionViolation, match="must exceed the rank"):
            verify_penalty_equivalence(inst, 1e300)

    def test_random_instance_measures_rank_once(self, monkeypatch):
        calls = []
        rank = penalty_module.cone_lipschitz_rank

        def counted_rank(*args, **kwargs):
            calls.append(1)
            return rank(*args, **kwargs)

        monkeypatch.setattr(penalty_module, "cone_lipschitz_rank", counted_rank)
        inst = random_instance(np.random.default_rng(104))
        assert len(calls) == 1
        assert inst.rank == rank(inst.points, inst.values, inst.cone, inst.e).value


def general_rank_inputs(seed, n=60):
    """Random points and values with a 2-D general cone and its unit e."""
    rng = np.random.default_rng(seed)
    cone = random_cone(rng, 2, True)
    e = np.sum(cone.generators, axis=0)
    return (rng.uniform(-1.0, 1.0, size=(n, 2)), rng.normal(size=(n, 2)), cone,
            e / np.linalg.norm(e))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 30), log_s=st.floats(-6.0, 12.0),
       case=st.sampled_from(["oracle", "understated"]))
def test_declared_rank_check_is_independent_of_scale(seed, log_s, case):
    # the oracle's rank differs from the kernel's by ulps of the rank: an
    # absolute slack refuses it once the values are large, and accepts a
    # rank understated by 0.1% once they are small
    for k in range(5):
        pts, vals, cone, e = general_rank_inputs([seed, k])
        vals *= 10.0 ** log_s
        measured = cone_lipschitz_rank(pts, vals, cone, e).value

        def declare(rank):
            return PenaltyInstance(points=pts, feasible_mask=np.ones(len(pts), bool),
                                   objective=None, cone=cone, e=e, rank=rank,
                                   values=vals)

        if case == "oracle":
            assert declare(rank_oracle(pts, vals, cone, e)).rank > 0.0
        else:
            with pytest.raises(ValueError, match="violates the Lipschitz"):
                declare((1.0 - 1e-3) * measured)


class TestRankMemo:
    """cone_lipschitz_rank keeps its last estimate with the exact inputs it
    read; a repeat returns it, and any changed input measures afresh."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        monkeypatch.setattr(penalty_module, "_last_rank", None)
        calls = []
        blocks = penalty_module._pair_blocks

        def counted(HV):
            calls.append(HV.shape[0])
            return blocks(HV)

        monkeypatch.setattr(penalty_module, "_pair_blocks", counted)
        return calls

    def test_measure_then_declare_runs_the_kernel_once(self, kernel_calls):
        pts, vals, cone, e = general_rank_inputs(1)
        rank = cone_lipschitz_rank(pts, vals, cone, e).value
        inst = PenaltyInstance(points=pts, feasible_mask=np.arange(60) % 3 == 0,
                               objective=None, cone=cone, e=e, rank=rank, values=vals)
        assert len(kernel_calls) == 1 and inst.rank == rank

    def test_hit_equals_a_fresh_measurement(self, kernel_calls):
        pts, vals, cone, e = general_rank_inputs(2)
        first = cone_lipschitz_rank(pts, vals, cone, e)
        again = cone_lipschitz_rank(pts.copy(), vals.tolist(), cone, list(e))
        assert len(kernel_calls) == 1 and again == first
        fresh = penalty_module._measure_rank(pts, vals, cone, e, 2, default_tolerances())
        assert again == fresh
        assert abs(again.value - rank_oracle(pts, vals, cone, e)) <= 1e-12 * again.value

    @pytest.mark.parametrize("part", ["values", "tolerances", "p", "e", "cone"])
    def test_each_key_part_forces_a_fresh_measurement(self, kernel_calls, part):
        rng = np.random.default_rng(5)
        pts, vals = rng.uniform(-1.0, 1.0, size=(40, 2)), rng.normal(size=(40, 2))
        cone, e, p = coordinate_cone(2), np.array([1.0, 1.0]) / math.sqrt(2.0), 2
        tols = default_tolerances()
        before = cone_lipschitz_rank(pts, vals, cone, e).value
        if part == "values":
            vals *= 2.0   # in place: the caller's array, same identity
        elif part == "tolerances":   # pairs closer than 0.5 are coincident
            tols = replace(tols, coincident=0.5)
        elif part == "p":
            p = 1
        elif part == "e":
            e = np.array([0.6, 0.8])
        else:
            cone = PolyhedralCone(2, generators=[[1.0, 0.0], [1.0, 1.0]])
            e = np.array([1.0, 0.5]) / math.sqrt(1.25)
        with use_tolerances(tols):
            got = cone_lipschitz_rank(pts, vals, cone, e, p=p)
            assert len(kernel_calls) == 2 and got.value != before
            assert got == penalty_module._measure_rank(pts, vals, cone, e, p, tols)
            if part != "tolerances":
                assert got.value == pytest.approx(rank_oracle(pts, vals, cone, e, p=p),
                                                  rel=1e-12)
            else:
                assert got.value == math.inf

    def test_a_raising_call_stores_nothing(self, kernel_calls):
        pts, vals, cone, e = general_rank_inputs(3)
        cone_lipschitz_rank(pts, vals, cone, e)
        kept = penalty_module._last_rank
        for _ in range(2):
            with pytest.raises(InvalidCone, match="must belong to the cone"):
                cone_lipschitz_rank(pts, vals, cone, -e)
        assert penalty_module._last_rank is kept and len(kernel_calls) == 1


EPS = np.finfo(float).eps


def embedded(pts):
    """Points on a line as points of the plane with a zero second column: the
    pairwise kernels read the same norms there (|t| + 0, max(|t|, 0) and
    sqrt(t^2 + 0))."""
    return np.column_stack([pts, np.zeros(len(pts))])


def line_sample(rng, n, m, general, specials, face):
    """Points on a line with the given special neighbours, values, cone and e.
    A special is a point moved next to another by 0, coincident or
    2 coincident, or a cluster of three points 0.6 coincident apart; its
    value is the other's, or moved by 0.5 or 2 strict_nonzero."""
    tols = default_tolerances()
    cone = random_cone(rng, m, general)
    x = rng.uniform(-1.0, 1.0, size=n)
    vals = rng.normal(size=(n, m))
    for kind in specials:
        i, j = rng.choice(n, size=2, replace=False)
        steps = [0.6, 1.2] if kind == "cluster" else [kind]
        for s, k in zip(steps, [j, (j + 1) % n]):
            if k == i:
                continue
            x[k] = x[i] + s * tols.coincident
            vals[k] = vals[i] + rng.choice([0.0, 0.5, 2.0]) * tols.strict_nonzero * \
                rng.normal(size=m) / math.sqrt(m)
    if face and m >= 2:
        e = cone.generators[0]
        on_face = cone.halfspace_values(e) <= ROUNDING * cone.dim * np.max(np.abs(e))
        # the face rows drift by 0.4 slack per sorted step: no neighbours
        # differ by more than slack there, but the range may
        drift = np.argsort(np.argsort(x)) * 0.4 * tols.membership * rng.integers(0, 2)
        HV = cone.halfspace_values(vals)
        HV[:, on_face] = drift[:, None]
        vals = np.linalg.solve(cone.halfspaces, HV.T).T if cone.kind != "coordinate" else HV
    else:
        e = np.sum(cone.generators, axis=0)
    return x[:, None], vals, cone, e / np.linalg.norm(e)


SPECIALS = st.lists(st.sampled_from([0.0, 1.0, 2.0, "cluster"]), max_size=3)


class TestLineKernels:
    """On a line the rank and the distances to Omega come from one sort; they
    are compared with the pairwise kernels on the same points in the plane
    and with the all-pairs oracles."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 30), n=st.integers(2, 40), m=st.integers(1, 4),
           p=st.sampled_from([1, 2, math.inf]), general=st.booleans(),
           specials=SPECIALS, face=st.booleans())
    def test_rank_matches_the_pairwise_kernel(self, seed, n, m, p, general, specials,
                                              face):
        # a chord can round at most 8 units of roundoff above the sorted
        # neighbours it spans: the line's rank is never above the pairwise
        # one and at most 4 eps below it (5 eps allows for second order)
        rng = np.random.default_rng(seed)
        pts, vals, cone, e = line_sample(rng, n, m, general, specials, face)
        line = cone_lipschitz_rank(pts, vals, cone, e, p=p).value
        pair = cone_lipschitz_rank(embedded(pts), vals, cone, e, p=p).value
        assert line <= pair <= line * (1.0 + 5.0 * EPS)
        # on general cones <h, v_i - v_j> rounds differently from
        # <h, v_i> - <h, v_j>, by much more than 1e-12 of a difference of
        # values moved by strict_nonzero
        ref = rank_oracle(pts, vals, cone, e, p=p)
        if not general:
            assert line <= ref <= line * (1.0 + 5.0 * EPS)
        elif not specials and math.isfinite(ref):
            assert abs(line - ref) <= 1e-12 * ref

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 30), n=st.integers(2, 60),
           p=st.sampled_from([1, 2, math.inf]), specials=SPECIALS,
           log_s=st.floats(-6.0, 6.0))
    def test_distances_match_the_pairwise_kernel(self, seed, n, p, specials, log_s):
        # bit for bit: |x - w| is every p-norm on a line, and sqrt(t^2) = |t|
        rng = np.random.default_rng(seed)
        pts, vals, cone, e = line_sample(rng, n, 1, False, specials, False)
        pts *= 10.0 ** log_s
        mask = rng.random(n) < 0.3
        mask[rng.integers(n)] = True
        inst, flat = (PenaltyInstance(points=P, feasible_mask=mask, objective=None,
                                      cone=cone, e=e, rank=0.0, values=np.zeros((n, 1)),
                                      norm_p=p) for P in (pts, embedded(pts)))
        got = inst.distances_to_omega()
        assert got.tobytes() == flat.distances_to_omega().tobytes()
        assert got.tobytes() == \
            np.min(penalty_module._pair_norms(pts, pts[mask], p), axis=1).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 30), n=st.integers(2, 40), m=st.integers(1, 3),
           p=st.sampled_from([1, 2, math.inf]), general=st.booleans(),
           specials=SPECIALS)
    def test_reports_match_the_oracle(self, seed, n, m, p, general, specials):
        rng = np.random.default_rng(seed)
        pts, vals, cone, e = line_sample(rng, n, m, general, specials, False)
        mask = rng.random(n) < 0.3
        mask[rng.integers(n)] = True
        inst = PenaltyInstance(points=pts, feasible_mask=mask, objective=None,
                               cone=cone, e=e / ambient_norm(e, p=p), rank=None,
                               values=vals, norm_p=p)
        # L = 1.1 rank must exceed the rank by its rounding, ROUNDING * dim of it
        assume(math.isfinite(inst.rank) and
               1.1 * inst.rank > inst.rank * (1.0 + ROUNDING * inst.cone.dim))
        TestReportsMatchOracle.check(inst)

    @pytest.mark.parametrize("steps, want", [(5, math.inf), (2, 1.0)])
    def test_a_face_row_is_decided_by_its_range(self, steps, want):
        # <h_2, e> = 0 and h_2's values climb 0.4 slack per point: each
        # neighbour pair is within slack, the range is not for 5 points
        slack = default_tolerances().membership
        x = np.arange(float(steps))[:, None]
        vals = np.column_stack([x[:, 0], 0.4 * slack * np.arange(steps)])
        cone, e = coordinate_cone(2), np.array([1.0, 0.0])
        assert cone_lipschitz_rank(x, vals, cone, e).value == want
        assert cone_lipschitz_rank(embedded(x), vals, cone, e).value == want
        assert rank_oracle(x, vals, cone, e) == want

    def test_the_pairwise_kernel_runs_only_for_close_neighbours(self, monkeypatch):
        monkeypatch.setattr(penalty_module, "_last_rank", None)
        calls = []
        blocks = penalty_module._pair_blocks
        monkeypatch.setattr(penalty_module, "_pair_blocks",
                            lambda HV: calls.append(len(HV)) or blocks(HV))
        rng = np.random.default_rng(31)
        x, vals = rng.uniform(-1.0, 1.0, size=(300, 1)), rng.normal(size=(300, 2))
        cone, e = coordinate_cone(2), np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert math.isfinite(cone_lipschitz_rank(x, vals, cone, e).value)
        assert calls == []
        x[7] = x[3] + default_tolerances().coincident
        assert cone_lipschitz_rank(x, vals, cone, e).value == math.inf
        assert calls == [300]
        vals[7] = vals[3]
        assert cone_lipschitz_rank(x, vals, cone, e).value == \
            rank_oracle(x, vals, cone, e)
        assert calls == [300, 300]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 30), k=st.integers(0, 600),
       p=st.sampled_from([1, 2, math.inf]), d=st.integers(1, 2), general=st.booleans())
def test_scaling_by_a_power_of_two_scales_the_norms_exactly(seed, k, p, d, general):
    # squares of differences beyond about 1.3e154 overflowed for p = 2: the
    # rank read 0.0 and the distances inf
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 60)), int(rng.integers(1, 4))
    cone = random_cone(rng, m, general)
    pts = rng.uniform(-1.0, 1.0, size=(n, d))
    vals = pts @ rng.normal(size=(m, d)).T + 0.3 * np.sin(pts @ rng.normal(size=(m, d)).T)
    mask = rng.random(n) < 0.3
    mask[0] = True
    e = np.sum(cone.generators, axis=0)
    e = e / ambient_norm(e, p=p)
    base, big = (PenaltyInstance(points=np.ldexp(pts, s), feasible_mask=mask,
                                 objective=None, cone=cone, e=e, rank=None,
                                 values=np.ldexp(vals, s), norm_p=p) for s in (0, k))
    assert big.rank == base.rank > 0.0
    assert big.distances_to_omega().tobytes() == \
        np.ldexp(base.distances_to_omega(), k).tobytes()
    assert verify_penalty_equivalence(big, 1.1 * big.rank).rank == base.rank


def test_distance_to_a_tiny_point():
    # p = 2 scales by a power of two where a square would underflow to 0
    assert distance_to_set([3e-300, 0.0], [[1e-300, 0.0]])[0] == 3e-300 - 1e-300
    assert distance_to_set([3e-300, 0.0], [[0.0, 0.0], [1e-300, 0.0]])[0] == 3e-300 - 1e-300


def test_distance_to_a_far_point():
    # point lists, which overflowed for p = 2
    assert distance_to_set([1e200], [[0.0]]) == (1e200, np.zeros(1))
    far = 2.0 ** 700
    assert distance_to_set([3.0 * far, 0.0], [[0.0, 4.0 * far]])[0] == 5.0 * far
