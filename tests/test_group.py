import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmo.group import point, split

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def pt(draw_vals):
    return point(np.array(draw_vals[:2]), draw_vals[2])


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, min_size=9, max_size=9))
def test_group_axioms(vals):
    from kolmo.group import prototype_geometry
    g = prototype_geometry()
    a, b, c = pt(vals[:3]), pt(vals[3:6]), pt(vals[6:])
    lhs = g.compose(g.compose(a, b), c)
    rhs = g.compose(a, g.compose(b, c))
    assert np.allclose(lhs, rhs, atol=1e-10)
    e = point(np.zeros(2), 0.0)
    assert np.allclose(g.compose(a, e), a, atol=1e-12)
    assert np.allclose(g.compose(e, a), a, atol=1e-12)
    assert np.allclose(g.compose(a, g.inverse(a)), e, atol=1e-10)


def test_exp_drift_prototype(proto):
    s = 0.7
    E = proto.exp_drift(s)
    assert np.allclose(E, [[1.0, 0.0], [-s, 1.0]], atol=1e-15)


def test_dilation_group_property(proto):
    z = point(np.array([0.3, -1.2]), 0.7)
    a = proto.dilate(2.0, proto.dilate(3.0, z))
    b = proto.dilate(6.0, z)
    assert np.allclose(a, b, atol=1e-12)


def test_dilations_are_automorphisms(proto):
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = point(rng.normal(size=2), rng.normal())
        w = point(rng.normal(size=2), rng.normal())
        r = np.exp(rng.uniform(-1, 1))
        lhs = proto.dilate(r, proto.compose(z, w))
        rhs = proto.compose(proto.dilate(r, z), proto.dilate(r, w))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_hom_norm_unit_level(proto):
    rng = np.random.default_rng(1)
    for _ in range(200):
        z = point(rng.normal(size=2), rng.normal())
        r = proto.hom_norm(z)
        x, t = split(z)
        level = sum(x[i] ** 2 / r ** (2 * proto.structure.alpha[i])
                    for i in range(2)) + t * t / r ** 4
        assert abs(level - 1.0) < 1e-10


def test_hom_norm_one_homogeneous(proto):
    rng = np.random.default_rng(2)
    for _ in range(200):
        z = point(rng.normal(size=2), rng.normal())
        s = np.exp(rng.uniform(-2, 2))
        n1 = proto.hom_norm(proto.dilate(s, z))
        n2 = s * proto.hom_norm(z)
        assert abs(n1 - n2) / n2 < 1e-10


def test_hom_norm_origin(proto):
    assert proto.hom_norm(point(np.zeros(2), 0.0)) == 0.0


def test_distance_left_invariant(proto):
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = point(rng.normal(size=2), rng.normal())
        w = point(rng.normal(size=2), rng.normal())
        a = point(rng.normal(size=2), rng.normal())
        d1 = proto.distance(z, w)
        d2 = proto.distance(proto.compose(a, z), proto.compose(a, w))
        assert abs(d1 - d2) / max(d1, 1e-300) < 1e-10


def test_point_split_roundtrip():
    z = point(np.array([1.0, 2.0]), 3.0)
    x, t = split(z)
    assert np.array_equal(x, [1.0, 2.0])
    assert t == 3.0


def _chain_geometries():
    from kolmo.group import Geometry, prototype_geometry
    from kolmo.structure import BlockStructure
    B21 = np.zeros((3, 3))
    B21[2, 0] = 1.0
    B111 = np.zeros((3, 3))
    B111[1, 0] = B111[2, 1] = 1.0
    return {(1, 1): prototype_geometry(),
            (2, 1): Geometry(BlockStructure((2, 1)), B21),
            (1, 1, 1): Geometry(BlockStructure((1, 1, 1)), B111)}


def _wide_points(rng, n, dim):
    """Rows mixing magnitudes 1e-8..1e8, per row and per coordinate."""
    Z = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-8, 8, size=(n, dim))
    Z[: n // 2] = (rng.normal(size=(n // 2, dim))
                   * 10.0 ** rng.uniform(-8, 8, size=(n // 2, 1)))
    return Z


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 1, 1)])
def test_hom_norm_batched_equals_scalar(blocks):
    g = _chain_geometries()[blocks]
    Z = _wide_points(np.random.default_rng(4), 300, g.N + 1)
    batched = g.hom_norm(Z)
    assert batched.shape == (300,)
    assert np.array_equal(batched, [g.hom_norm(z) for z in Z])
    d = g.distance(Z[:100], Z[100:200])
    assert np.array_equal(d, [g.distance(z, w)
                              for z, w in zip(Z[:100], Z[100:200])])


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 1, 1)])
def test_hom_norm_matches_brentq_reference(blocks):
    from scipy.optimize import brentq
    g = _chain_geometries()[blocks]
    exps = np.append(2 * g.alpha, 4).astype(float)

    def reference(z):
        sq = z ** 2
        keep = sq > 0.0
        sq, e = sq[keep], exps[keep]
        r0 = np.max(sq ** (1.0 / e))
        n = len(sq)
        return brentq(lambda r: np.sum(sq * r ** -e) - 1.0,
                      r0 / (n + 1.0), r0 * (n + 1.0), xtol=1e-300,
                      rtol=4 * np.finfo(float).eps)

    Z = _wide_points(np.random.default_rng(5), 400, g.N + 1)
    got = g.hom_norm(Z)
    want = np.array([reference(z) for z in Z])
    assert np.all(np.abs(got - want) <= 8 * np.spacing(want))


def test_hom_norm_zero_rows():
    g = _chain_geometries()[(1, 1, 1)]
    Z = np.zeros((3, 4))
    Z[1] = [0.0, 0.0, 2.0 ** 5, 0.0]
    assert np.array_equal(g.hom_norm(Z), [0.0, 2.0, 0.0])
    assert np.array_equal(g.hom_norm(np.zeros((2, 4))), [0.0, 0.0])
