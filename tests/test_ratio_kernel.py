"""Metamorphic properties of the closed-form halfspace ratio behind ||.||_u
and phi, on coordinate and general cones up to dimension 4."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conegen.cones import PolyhedralCone, coordinate_cone
from conegen.gauge import GaugeBody
from conegen.scalarization import GerstewitzFn
from lp_oracle import oracle_cones

CONES = {"coord3": (coordinate_cone(3), np.array([0.5, 1.0, 2.0])), **oracle_cones()}
NAMES = sorted(CONES)

coords = st.lists(st.floats(-10, 10), min_size=4, max_size=4)
scales = st.floats(1e-2, 1e2)


def close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(NAMES), coords, scales)
def test_gauge_positive_homogeneity(name, xs, s):
    cone, u = CONES[name]
    x = np.array(xs[:cone.dim])
    body = GaugeBody(cone, u)
    assert close(body.gauge(s * x), s * body.gauge(x))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(NAMES), coords, scales)
def test_gauge_of_scaled_generator(name, xs, s):
    cone, u = CONES[name]
    x = np.array(xs[:cone.dim])
    assert close(GaugeBody(cone, s * u).gauge(x), GaugeBody(cone, u).gauge(x) / s)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(NAMES), coords, st.data())
def test_row_permutation_and_rescaling_invariance(name, xs, data):
    cone, u = CONES[name]
    x = np.array(xs[:cone.dim])
    H, G = cone.halfspaces, cone.generators
    ph = data.draw(st.permutations(range(H.shape[0])))
    pg = data.draw(st.permutations(range(G.shape[0])))
    w = np.array(data.draw(st.lists(scales, min_size=H.shape[0], max_size=H.shape[0])))
    shuffled = PolyhedralCone(cone.dim, halfspaces=H[ph] * w[:, None], generators=G[pg])
    assert close(GaugeBody(shuffled, u).gauge(x), GaugeBody(cone, u).gauge(x))
    assert close(GerstewitzFn(shuffled, u).value(x), GerstewitzFn(cone, u).value(x))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(NAMES), coords, st.floats(-100, 100))
def test_phi_translation_along_e(name, ys, t):
    cone, e = CONES[name]
    y = np.array(ys[:cone.dim])
    fn = GerstewitzFn(cone, e)
    assert fn.value(y + t * fn.e) == pytest.approx(fn.value(y) + t, abs=1e-9)


def boundary_fns():
    """phi with e on an extreme ray, so that phi takes the value +inf."""
    fns = [GerstewitzFn(coordinate_cone(3), [1.0, 1.0, 0.0])]
    fns += [GerstewitzFn(cone, cone.generators[0]) for cone, _ in oracle_cones().values()]
    return fns


BOUNDARY = boundary_fns()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(NAMES), st.lists(coords, min_size=1, max_size=8),
       st.integers(0, len(BOUNDARY) - 1))
def test_single_point_paths_match_batch_paths(name, rows, k):
    cone, u = CONES[name]
    X = np.array(rows)[:, :cone.dim]
    body = GaugeBody(cone, u)
    for x, g in zip(X, body.gauge_many(X)):
        assert close(body.gauge(x), g)
    for fn in (GerstewitzFn(cone, u), BOUNDARY[k]):
        Y = np.array(rows)[:, :fn.cone.dim]
        for y, v in zip(Y, fn.value_many(Y)):
            single = fn.value(y)
            assert math.isinf(single) == math.isinf(v)
            if math.isfinite(v):
                assert close(single, v)


def test_boundary_direction_gives_inf_in_both_paths():
    fn = GerstewitzFn(coordinate_cone(2), [1.0, 0.0])
    Y = np.array([[0.0, 1.0], [3.0, -1.0]])
    assert fn.value_many(Y).tolist() == [math.inf, 3.0]
    assert [fn.value(y) for y in Y] == [math.inf, 3.0]
    for fn in BOUNDARY:
        Y = np.random.default_rng(0).normal(size=(200, fn.cone.dim))
        many = fn.value_many(Y)
        assert np.isinf(many).any() and np.isfinite(many).any()
        assert [math.isinf(fn.value(y)) for y in Y] == np.isinf(many).tolist()
