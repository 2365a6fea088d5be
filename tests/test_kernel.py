import math

import numpy as np
import pytest

from kolmo import kernel as kern
from kolmo.errors import NotSPD
from kolmo.group import Geometry, point, prototype_geometry
from kolmo.structure import BlockStructure
from test_structure import random_canonical_B


def closed_form_covariance(t):
    """Prototype oracle: C(t) for B = [[0,0],[1,0]], unit diffusion."""
    return np.array([[t, -t * t / 2.0], [-t * t / 2.0, t ** 3 / 3.0]])


def test_covariance_prototype(proto):
    for t in (0.1, 0.5, 1.0, 2.7):
        C = kern.covariance_matrix(t, proto.B, np.eye(1))
        assert np.allclose(C, closed_form_covariance(t), atol=1e-14)
        assert abs(np.linalg.det(C) - t ** 4 / 12.0) < 1e-12 * t ** 4


def test_covariance_positive_iff_hypoelliptic():
    B = np.zeros((2, 2))  # no coupling: degenerate
    C = kern.covariance_matrix(1.0, B, np.eye(1))
    with pytest.raises(NotSPD):
        kern.covariance(1.0, B, np.eye(1))
    assert np.min(np.linalg.eigvalsh(C)) == 0.0


def test_kernel_value_at_origin(proto, proto_params):
    # (4 pi)^{-N/2} with N=2 over sqrt(det C(1)) = sqrt(12)/(4 pi)
    v = kern.gamma_K_lambda(point(np.zeros(2), 1.0),
                            point(np.zeros(2), 0.0), proto_params)
    assert abs(v - math.sqrt(12.0) / (4.0 * math.pi)) < 1e-14


def test_kernel_matches_gaussian_oracle(proto):
    rng = np.random.default_rng(0)
    lam = 1.7
    params = kern.scaled_params(lam, proto)
    for _ in range(200):
        y = rng.normal(size=2)
        t0 = rng.uniform(-1, 0)
        t = t0 + rng.uniform(0.05, 2.0)
        tau = t - t0
        C = lam * closed_form_covariance(tau)
        # sample x from the kernel's own law so exponents stay moderate
        x = proto.exp_drift(tau) @ y \
            + np.linalg.cholesky(C) @ rng.normal(size=2)
        d = x - proto.exp_drift(tau) @ y
        oracle = math.exp(-0.5 * d @ np.linalg.solve(C, d)) \
            / (2.0 * math.pi * math.sqrt(np.linalg.det(C)))
        v = kern.gamma_K_lambda(point(x, t), point(y, t0), params)
        assert abs(v - oracle) / oracle < 1e-12


def test_vanishing_past(proto, proto_params):
    pole = point(np.zeros(2), 0.5)
    assert kern.gamma_K_lambda(point(np.ones(2), 0.5), pole,
                               proto_params) == 0.0
    assert kern.gamma_K_lambda(point(np.ones(2), -1.0), pole,
                               proto_params) == 0.0
    pts = np.array([[1.0, 1.0, 0.5], [0.0, 0.0, 0.2], [2.0, 0.0, 0.9]])
    vals = kern.gamma_many(pts, pole, proto_params)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] > 0.0


def reference_log_gamma(z, zeta, geometry, lam):
    """The scalar formula, independent of the library's covariance path:
    C(t) by (N+1)-node Gauss-Legendre over E(s) Abar E(s)^T (exact for
    nilpotent B), one Cholesky, one quadratic form."""
    w = geometry.compose(geometry.inverse(zeta), z)
    x, t = w[:-1], w[-1]
    if t <= 0.0:
        return -math.inf
    N, m0 = geometry.N, geometry.structure.m0
    Abar = np.zeros((N, N))
    Abar[:m0, :m0] = np.eye(m0)
    nodes, weights = np.polynomial.legendre.leggauss(N + 1)
    C = np.zeros((N, N))
    for sk, wk in zip(0.5 * t * (nodes + 1.0), weights):
        E = geometry.exp_drift(sk)
        C += wk * (E @ Abar @ E.T)
    C *= 0.5 * t
    L = np.linalg.cholesky(C)
    y = np.linalg.solve(L, x)
    return (-0.5 * N * math.log(2.0 * math.pi * lam)
            - float(np.sum(np.log(np.diag(L)))) - float(y @ y) / (2.0 * lam)
            - t * float(np.trace(geometry.B)))


def test_gamma_many_matches_scalar(proto, proto_params):
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.normal(size=(200, 2)),
                           rng.uniform(-0.5, 2.0, 200)])
    zeta = point(np.array([0.3, -0.2]), 0.1)
    fast = kern.gamma_many(pts, zeta, proto_params)
    slow = np.exp([reference_log_gamma(z, zeta, proto, proto_params.lam)
                   for z in pts])
    assert np.allclose(fast, slow, rtol=1e-11, atol=0.0)
    assert np.array_equal(fast, [kern.gamma_K_lambda(z, zeta, proto_params)
                                 for z in pts])


def test_homogeneity(proto, proto_params):
    rng = np.random.default_rng(2)
    origin = point(np.zeros(2), 0.0)
    Q = proto.structure.Q
    for _ in range(300):
        t = abs(rng.normal()) + 0.05
        C = 2.0 * closed_form_covariance(t)
        z = point(np.linalg.cholesky(C) @ rng.normal(size=2), t)
        r = math.exp(rng.uniform(-1.5, 1.5))
        lhs = kern.gamma_K_lambda(proto.dilate(r, z), origin, proto_params)
        rhs = r ** (-Q) * kern.gamma_K_lambda(z, origin, proto_params)
        assert abs(lhs - rhs) / rhs < 1e-11


def test_reproduction(proto, proto_params):
    rng = np.random.default_rng(3)
    for _ in range(20):
        t0 = rng.uniform(-1, 0)
        t = t0 + rng.uniform(0.3, 1.5)
        s = rng.uniform(t0 + 0.1 * (t - t0), t - 0.1 * (t - t0))
        res = kern.reproduction_check(rng.normal(size=2), t,
                                      rng.normal(size=2), t0, s,
                                      proto_params)
        assert res["rel_err"] < 1e-8


def _chain():
    B = np.zeros((3, 3))
    B[1, 0] = B[2, 1] = 1.0
    return Geometry(BlockStructure((1, 1, 1)), B)


def test_reproduction_where_kernel_underflows():
    """Far-apart x, y on the chain (1,1,1): the kernel is below the smallest
    double, and the check still compares the two sides."""
    g = _chain()
    params = kern.scaled_params(2.0, g)
    x, t = np.array([3.0, -2.0, 5.0]), 0.2
    y, t0 = np.array([-3.0, 2.0, -5.0]), -0.5
    ref = reference_log_gamma(point(x, t), point(y, t0), g, 2.0)
    assert ref < -800.0 and math.exp(ref) == 0.0
    res = kern.reproduction_check(x, t, y, t0, -0.1, params)
    assert abs(res["log_lhs"] - ref) <= 1e-12 * abs(ref)
    assert abs(math.expm1(res["log_rhs"] - ref)) < 1e-8
    assert res["rel_err"] < 1e-8


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 1, 1)])
def test_reproduction_quadrature_exact_at_any_node_count(blocks):
    """The integrand divided by the Hermite weight is constant for the model
    kernel, so 2, 8 and 16 nodes per axis give the same log-integral up to
    rounding: one pass at 8 nodes loses nothing."""
    rng = np.random.default_rng(11)
    g = Geometry(BlockStructure(blocks), random_canonical_B(blocks, rng))
    params = kern.scaled_params(2.0, g)
    for _ in range(10):
        t0 = rng.uniform(-1.0, 0.0)
        t = t0 + rng.uniform(0.3, 1.5)
        s = rng.uniform(t0 + 0.1 * (t - t0), t - 0.1 * (t - t0))
        x, y = rng.normal(size=g.N), rng.normal(size=g.N)
        log_lhs = kern.reproduction_check(x, t, y, t0, s, params)["log_lhs"]
        logs = [kern._log_reproduction_quadrature(x, t, y, t0, s, params, n)
                for n in (2, 8, 16)]
        tol = 1e-12 * max(1.0, abs(log_lhs))
        assert max(logs) - min(logs) <= tol
        assert abs(logs[1] - log_lhs) <= tol


def test_non_nilpotent_B_rejected():
    B = np.array([[0.0, 0.5], [1.0, 0.0]])
    with pytest.raises(ValueError, match="nilpotent"):
        Geometry(BlockStructure((1, 1)), B)
    with pytest.raises(ValueError, match="nilpotent"):
        kern.covariance_matrix(1.0, B, np.eye(1))


def test_reproduction_rejects_bad_interval(proto, proto_params):
    with pytest.raises(ValueError):
        kern.reproduction_check(np.zeros(2), 1.0, np.zeros(2), 0.0, 1.5,
                                proto_params)


def test_prototype_density_equals_kernel():
    """The classical kinetic density is the model kernel with lam =
    sigma^2 for the drift writing dY = V dt."""
    rng = np.random.default_rng(4)
    st_ = BlockStructure((1, 1))
    g = Geometry(st_, np.array([[0.0, 0.0], [-1.0, 0.0]]))
    for _ in range(50):
        sigma = rng.uniform(0.3, 2.0)
        v0, y0 = rng.normal(size=2)
        t = rng.uniform(0.3, 2.0)
        v, y = np.array([v0, y0 + t * v0]) + 0.3 * sigma * rng.normal(size=2)
        d1 = kern.prototype_density(v, y, t, v0, y0, sigma)
        params = kern.scaled_params(sigma * sigma, g)
        d2 = kern.gamma_K_lambda(point(np.array([v, y]), t),
                                 point(np.array([v0, y0]), 0.0), params)
        assert abs(d1 - d2) / d2 < 1e-12


def test_1934_formula_is_recorded_not_normalized():
    # the verbatim historical formula (with its typo) is kept only as a
    # cross-reference; it must disagree with the correct density somewhere
    v, y, t, v0, y0 = 0.3, 0.2, 0.7, 0.1, -0.4
    a = kern.prototype_density_1934(v, y, t, v0, y0)
    b = kern.prototype_density(v, y, t, v0, y0, 1.0)
    assert a != b


def test_envelope_forms(proto):
    x = np.array([0.4, -0.3])
    y = np.array([0.1, 0.2])
    up = kern.gaussian_envelope(x, 1.0, y, 0.0, c=0.5, geometry=proto,
                                form="upper")
    lo = kern.gaussian_envelope(x, 1.0, y, 0.0, c=0.5, geometry=proto,
                                form="lower")
    assert up > 0.0 and lo > 0.0
    assert kern.gaussian_envelope(x, 0.0, y, 0.0, c=0.5, geometry=proto,
                                  form="upper") == 0.0
