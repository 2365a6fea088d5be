import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmo import kernel as kern
from kolmo.errors import ArgumentError, NotCanonical, NotSPD
from kolmo.group import Geometry, point, prototype_geometry
from kolmo.structure import BlockStructure, check_hypoellipticity
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


@pytest.mark.parametrize("blocks, B, t", [
    ((1, 1), [[0, 0], [1, 0]], 1e-106),
    ((2, 1), [[0, 0, 0], [0, 0, 0], [1, 1, 0]], 1e-106),
    ((1, 1, 1), [[0, 0, 0], [1, 0, 0], [0, 1, 0]], 1e-64)])
def test_kernel_at_origin_across_scales(blocks, B, t):
    """Gamma(0, t) with its pole at the origin is
    (2 pi lam)^{-N/2} det C(1)^{-1/2} t^{-Q/2} to 1e-12 relative at times
    where C(t)'s last block is subnormal: the kernel reads C(t) through
    the dilation of C(1), so its precision does not depend on the scale.
    A factor of C(t) made afresh read these 2.5e-5, 1.1e-5 and 3.2e-2 off."""
    g = Geometry(BlockStructure(blocks), np.array(B, dtype=float))
    params = kern.scaled_params(2.0, g)
    v = kern.gamma_many(point(np.zeros(g.N), t), point(np.zeros(g.N), 0.0),
                        params)[0]
    _, logdet1 = np.linalg.slogdet(
        kern.covariance_matrix(1.0, g.B, np.eye(g.structure.m0)))
    log_ref = (-0.5 * g.N * math.log(4.0 * math.pi) - 0.5 * logdet1
               - 0.5 * g.structure.Q * math.log(t))
    assert abs(v / math.exp(log_ref) - 1.0) <= 1e-12


def test_log_kernel_where_the_dilation_overflows():
    """On (1,1,1,1) at t = 1e-100, delta_{1/sqrt(t)} overflows on the last
    coordinate (1e50 to the 7th power).  A zero coordinate contributes 0,
    so the pole's row keeps its log-kernel -N/2 log(2 pi lam) -
    (log det C(1) + Q log t) / 2 and x = (1, 0, 0, 0) that value less
    C(1)^{-1}_11 / (2 lam t); both read NaN when 0 * inf entered the
    quadratic form.  x = (0, 0, 0, 1), whose dilated coordinate is
    infinite, reads -inf."""
    g = Geometry(BlockStructure((1, 1, 1, 1)), np.eye(4, k=-1))
    lam, t = 2.0, 1e-100
    params = kern.scaled_params(lam, g)
    rows = point(np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                           [0.0, 0.0, 0.0, 1.0]]), np.full(3, t))
    with np.errstate(all="raise"):
        lg = kern.gamma_many(rows, point(np.zeros(4), 0.0), params, log=True)
    C1 = kern.covariance_matrix(1.0, g.B, np.eye(1))
    log_ref = (-2.0 * math.log(2.0 * math.pi * lam)
               - 0.5 * np.linalg.slogdet(C1)[1]
               - 0.5 * g.structure.Q * math.log(t))
    assert abs(lg[0] - log_ref) <= 1e-12 * abs(log_ref)
    far = log_ref - np.linalg.inv(C1)[0, 0] / (2.0 * lam * t)
    assert abs(lg[1] - far) <= 1e-12 * abs(far)
    assert lg[2] == -np.inf


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


@pytest.mark.parametrize("poles", ["one", "per-row", "one-point"])
@pytest.mark.parametrize("log", [False, True])
def test_gamma_many_blocks_change_no_value(proto, proto_params, poles, log):
    """Past GAMMA_BLOCK rows gamma_many works block by block; its values
    are bitwise those of the same rows evaluated 1000 at a time, with one
    pole, with one pole per row, and with one point against one pole per
    row.  Rows at or before their pole's time read 0, -inf under log."""
    rng = np.random.default_rng(3)
    n = 2 * kern.GAMMA_BLOCK + 123
    pts = np.column_stack([rng.normal(size=(n, 2)),
                           rng.uniform(-0.5, 2.0, n)])
    pts[::7, -1] = 0.1
    zeta = point(np.array([0.3, -0.2]), 0.1)
    if poles == "per-row":
        zeta = np.column_stack([rng.normal(size=(n, 2)),
                                rng.uniform(-0.5, 0.5, n)])
        pts[::5, -1] = zeta[::5, -1]
    elif poles == "one-point":
        pts, zeta = pts[:1], pts
        pts[0, -1] = 0.9
    vals = kern.gamma_many(pts, zeta, proto_params, log=log)
    assert vals.shape == (n,)
    ref = np.concatenate([
        kern.gamma_many(pts[i:i + 1000] if len(pts) > 1 else pts,
                        zeta[i:i + 1000] if zeta.ndim == 2 else zeta,
                        proto_params, log=log) for i in range(0, n, 1000)])
    assert np.array_equal(vals, ref)
    z_t = zeta[:, -1] if zeta.ndim == 2 else zeta[-1]
    past = pts[:, -1] <= z_t
    assert 0 < past.sum() < n
    assert np.all(vals[past] == (-np.inf if log else 0.0))
    if log:
        assert np.all(np.isfinite(vals[~past]))


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


# A random canonical drift on each block structure, drawn from a seed, and
# the diffusion scale lam of its kernel.
canonical_draws = given(
    st.sampled_from([(1, 1), (2, 1), (1, 1, 1), (2, 2, 1), (1, 1, 1, 1)]),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
    st.floats(min_value=0.5, max_value=3.0))


def _canonical_params(blocks, seed, lam):
    """The lam-scaled kernel on a random canonical drift for blocks, and
    the rng that drew the drift, for drawing the rest."""
    rng = np.random.default_rng(seed)
    g = Geometry(BlockStructure(blocks), random_canonical_B(blocks, rng))
    return rng, kern.scaled_params(lam, g)


@pytest.mark.parametrize("times", ["repeated", "distinct"])
@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 1, 1),
                                    (1, 1, 1, 1)])
def test_quad_logdet_matches_one_factor_per_row(blocks, times):
    """quad_logdet reads every C(t) through the one factor of C(1): each
    row's <C(t)^-1 x, x> and log det C(t) are bitwise those of a one-row
    call, and agree with a Cholesky factor and solve of C(t) itself, made
    per row, to 1e-11 (relative for the form, absolute for log det).  The
    gaps reached 7.6e-13 and 7.7e-13, on (1,1,1,1) at cond(C(1)) 1.8e6."""
    rng, params = _canonical_params(blocks, 5, 2.0)
    g = params.geometry
    n = 300
    t = (rng.choice([0.05, 0.3, 0.7, 1.9], size=n) if times == "repeated"
         else rng.uniform(0.05, 2.0, size=n))
    x = rng.normal(size=(n, g.N))
    w = np.column_stack([x, t])
    quad, logdet = kern.quad_logdet(w, params)
    for i in range(n):
        one = kern.quad_logdet(w[i:i + 1], params)
        assert (quad[i], logdet[i]) == (one[0][0], one[1][0])
        chol = np.linalg.cholesky(
            kern.covariance_matrix(t[i], g.B, np.eye(g.structure.m0)))
        y = np.linalg.solve(chol, x[i])
        assert abs(quad[i] - y @ y) <= 1e-11 * (y @ y)
        assert abs(logdet[i] - 2.0 * np.sum(np.log(np.diag(chol)))) <= 1e-11


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 1, 1),
                                    (1, 1, 1, 1)])
def test_law_points_have_the_kernels_covariance(blocks):
    """law_points maps the unit vectors at one time t to the columns of a
    factor of lam C(t), so the rows' Gram matrix is lam C(t) to rounding,
    entry by entry relative to sqrt(C_ii C_jj), at t from 1e-20 to 2."""
    rng, params = _canonical_params(blocks, 3, 1.7)
    g = params.geometry
    for t in (1e-20, 0.05, 0.7, 2.0):
        Z = kern.law_points(np.full(g.N, t), np.eye(g.N), params)[:, :-1]
        C = params.lam * kern.covariance_matrix(t, g.B,
                                                np.eye(g.structure.m0))
        d = np.sqrt(np.diag(C))
        assert np.max(np.abs(Z.T @ Z - C) / np.outer(d, d)) <= 1e-12


@settings(max_examples=60, deadline=None)
@canonical_draws
def test_homogeneity_over_canonical_structures(blocks, seed, lam):
    """log Gamma(delta_r z) = log Gamma(z) - Q log r with the pole at the
    origin, at 20 points drawn from the kernel's own law and r in
    [e^-1.5, e^1.5].  The log-kernel rounds in proportion to the condition
    number of C(1), the covariance with the scales divided out
    (C(r^2) = delta_r C(1) delta_r), which a nearly singular block of B
    makes large: over 3000 seeds of 20 points per structure the gap stayed
    below 5 eps cond(C(1)), but reached 2.4e-9 on (2,2,1) at cond 1.7e8."""
    rng, params = _canonical_params(blocks, seed, lam)
    g = params.geometry
    t = np.abs(rng.normal(size=20)) + 0.05
    L = np.stack([np.linalg.cholesky(lam * kern.covariance_matrix(
        ti, g.B, np.eye(g.structure.m0))) for ti in t])
    z = point(np.einsum("nij,nj->ni", L, rng.normal(size=(20, g.N))), t)
    r = np.exp(rng.uniform(-1.5, 1.5, size=20))
    origin = point(np.zeros(g.N), 0.0)
    lhs = kern.gamma_many(g.dilate(r, z), origin, params, log=True)
    rhs = (kern.gamma_many(z, origin, params, log=True)
           - g.structure.Q * np.log(r))
    cond = np.linalg.cond(params.cov(1.0))
    tol = max(1e-10, 8.0 * np.finfo(float).eps * cond)
    assert np.max(np.abs(lhs - rhs)) <= tol


@settings(max_examples=30, deadline=None)
@canonical_draws
def test_reproduction_over_canonical_structures(blocks, seed, lam):
    """Chapman-Kolmogorov holds in the log domain relative to the size of
    log Gamma, which reaches 1e18 on random (1,1,1,1) drifts; rel_err, the
    expm1 of the log gap, is not bounded here for that reason.  As in the
    homogeneity test the gap grows with cond(C(1)): over 1500 draws on
    (2,2,1) it reached 5.7e-10 of |log Gamma|, and 0.26 eps cond(C(1))."""
    rng, params = _canonical_params(blocks, seed, lam)
    N = params.geometry.N
    t0 = rng.uniform(-1.0, 0.0)
    t = t0 + rng.uniform(0.3, 1.5)
    s = rng.uniform(t0 + 0.1 * (t - t0), t - 0.1 * (t - t0))
    res = kern.reproduction_check(rng.normal(size=N), t, rng.normal(size=N),
                                  t0, s, params)
    gap = abs(res["log_rhs"] - res["log_lhs"])
    cond = np.linalg.cond(params.cov(1.0))
    tol = max(1e-9, np.finfo(float).eps * cond)
    assert gap <= tol * max(1.0, abs(res["log_lhs"]))


def test_reproduction_gap_past_exp_range_reads_inf():
    """A log gap beyond exp's range makes rel_err inf, not an
    OverflowError: on this (1,1,1,1) drift log Gamma is -1.05e18 and the
    two sides differ by 1.2e5 from rounding alone."""
    rng = np.random.default_rng(686)
    blocks = (1, 1, 1, 1)
    g = Geometry(BlockStructure(blocks), random_canonical_B(blocks, rng))
    params = kern.scaled_params(rng.uniform(0.5, 3.0), g)
    t0 = rng.uniform(-1.0, 0.0)
    t = t0 + rng.uniform(0.3, 1.5)
    s = rng.uniform(t0 + 0.1 * (t - t0), t - 0.1 * (t - t0))
    res = kern.reproduction_check(rng.normal(size=4), t, rng.normal(size=4),
                                  t0, s, params)
    gap = res["log_rhs"] - res["log_lhs"]
    assert res["log_lhs"] < -1e18 and 709.8 < gap <= 1e-12 * 1.1e18
    assert res["rel_err"] == math.inf


def test_non_nilpotent_B_rejected():
    """Geometry takes only a canonical B, so it refuses this one as not
    canonical; the kernel and the hypoellipticity check take any B and
    refuse it as not nilpotent."""
    B = np.array([[0.0, 0.5], [1.0, 0.0]])
    with pytest.raises(NotCanonical, match="off-pattern block at"):
        Geometry(BlockStructure((1, 1)), B)
    with pytest.raises(ValueError, match="nilpotent"):
        kern.covariance_matrix(1.0, B, np.eye(1))
    with pytest.raises(ValueError, match="nilpotent"):
        check_hypoellipticity(B, 1)


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
def test_kernel_params_need_positive_lam(proto, lam):
    with pytest.raises(ArgumentError, match="lam must be positive"):
        kern.scaled_params(lam, proto)


def test_reproduction_rejects_bad_interval(proto, proto_params):
    with pytest.raises(ValueError):
        kern.reproduction_check(np.zeros(2), 1.0, np.zeros(2), 0.0, 1.5,
                                proto_params)


def prototype_density(v, y, t, v0, y0, sigma):
    """Transition density of (V, Y) with dV = sigma dW, dY = V dt.

    Derived from the first two moments: mean (v0, y0 + t v0) and covariance
    sigma^2 [[t, t^2/2], [t^2/2, t^3/3]].
    """
    s2 = sigma * sigma
    cov = s2 * np.array([[t, t * t / 2.0], [t * t / 2.0, t ** 3 / 3.0]])
    d = np.array([v - v0, y - y0 - t * v0])
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
    quad = (cov[1, 1] * d[0] ** 2 - 2.0 * cov[0, 1] * d[0] * d[1]
            + cov[0, 0] * d[1] ** 2) / det
    return math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


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
        d1 = prototype_density(v, y, t, v0, y0, sigma)
        params = kern.scaled_params(sigma * sigma, g)
        d2 = kern.gamma_K_lambda(point(np.array([v, y]), t),
                                 point(np.array([v0, y0]), 0.0), params)
        assert abs(d1 - d2) / d2 < 1e-12
