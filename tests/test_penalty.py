import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conegen.penalty as penalty_module
from conegen.gauge import ambient_norm
from conegen.config import default_tolerances, use_tolerances
from conegen.cones import PolyhedralCone, coordinate_cone
from conegen.penalty import (PenaltyInstance, PreconditionViolation,
                             cone_lipschitz_rank, cone_minimal_points,
                             distance_to_set, penalized_objective,
                             random_instance, verify_penalty_equivalence)
from penalty_oracle import (brute_force_grid_min, minimal_oracle, rank_oracle,
                            report_oracle)


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
        d, w = distance_to_set([0.0], ([1.0], [2.0]))
        assert d == 1.0 and np.allclose(w, [1.0])

    def test_box_clamp(self):
        d, w = distance_to_set([3.0, 0.0], ([-1.0, -1.0], [1.0, 1.0]))
        assert d == 2.0 and np.allclose(w, [1.0, 0.0])

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
        # the one-point set {y} as the box [y, y] and as the list [y]
        rng = np.random.default_rng(23)
        for _ in range(20):
            x, y = rng.normal(size=(2, int(rng.integers(1, 6))))
            box, listed = distance_to_set(x, (y, y), p=p), distance_to_set(x, [y], p=p)
            assert box[0] == pytest.approx(listed[0], rel=1e-15, abs=0)
            assert box[0] == pytest.approx(ambient_norm(x - y, p=p), rel=1e-15, abs=0)
            assert np.array_equal(box[1], listed[1])
        assert distance_to_set([3.0, 4.0], ([0.0, 0.0], [0.0, 0.0]), p=p)[0] == \
            distance_to_set([3.0, 4.0], [[0.0, 0.0]], p=p)[0] == {1: 7.0, 2: 5.0}.get(p, 4.0)


@pytest.mark.parametrize("p", [3, "inf", 0, True])
def test_every_reader_of_p_refuses_other_exponents(p):
    pts, vals = np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])
    cone, e = coordinate_cone(1), np.ones(1)
    readers = [
        lambda: ambient_norm([3.0, 4.0], p=p),
        lambda: distance_to_set([3.0, 4.0], ([0.0, 0.0], [0.0, 0.0]), p=p),
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
        assert est.heuristic

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
    """The reach of a row subset equals the full relation's rows bit for bit:
    blocks of up to B rows against every column, with the planes read the
    other way round from the pair blocks'."""

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
        seen = []
        reach = penalty_module._dominance_reach

        def recorded_reach(V, cone, tol, rows=None):
            seen.append(rows)
            return reach(V, cone, tol, rows)

        monkeypatch.setattr(penalty_module, "_dominance_reach", recorded_reach)
        rep = verify_penalty_equivalence(scalar_abs_instance(), 1.5)
        assert seen[:2] == [None, None] and len(seen) == 3
        assert np.array_equal(seen[2], rep.minimal_constrained)
        assert rep.inclusion_at_rank is True


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


class TestMinimalPoints:
    def test_pareto_example(self):
        vals = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        idx = cone_minimal_points(vals, coordinate_cone(2))
        assert set(idx) == {0, 1}

    def test_singleton(self):
        assert list(cone_minimal_points([[3.0]], coordinate_cone(1))) == [0]

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
        calls = {"relations": 0, "distances": 0}
        reach = penalty_module._dominance_reach
        distances = PenaltyInstance.distances_to_omega

        def counted_reach(*args):
            calls["relations"] += 1
            return reach(*args)

        def counted_distances(self):
            calls["distances"] += 1
            return distances(self)

        monkeypatch.setattr(penalty_module, "_dominance_reach", counted_reach)
        monkeypatch.setattr(PenaltyInstance, "distances_to_omega", counted_distances)
        verify_penalty_equivalence(scalar_abs_instance(), 1.5)
        assert calls == {"relations": 3, "distances": 1}


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

    def test_rank_none_is_measured(self):
        grid = np.array([[0.0], [1.0], [3.0]])
        inst = PenaltyInstance(points=grid, feasible_mask=np.array([True, False, True]),
                               objective=None, cone=coordinate_cone(1), e=[1.0],
                               rank=None, values=2.0 * grid)
        assert inst.rank == cone_lipschitz_rank(grid, 2.0 * grid, coordinate_cone(1),
                                                [1.0]).value == 2.0

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
