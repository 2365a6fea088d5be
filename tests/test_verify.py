import numpy as np
import pytest

from kolmo import kernel as kern
from kolmo import verify
from kolmo.errors import (ArgumentError, CylinderUnresolved,
                          NoAdmissibleFit, NotNonnegative)
from kolmo.group import Geometry, point
from kolmo.structure import BlockStructure
from test_structure import random_canonical_B


@pytest.fixture(scope="module")
def kernel_u(request):
    proto = request.getfixturevalue("proto")
    params = kern.scaled_params(2.0, proto)
    pole = point(np.zeros(2), -2.0)

    def u(rows):
        return kern.gamma_many(rows, pole, params)
    return u


def sample_points(rng, n=400):
    return np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-1, 1, n),
                            rng.uniform(-0.9, 0.6, n)])


def test_sandwich_self_test(proto, proto_params):
    rng = np.random.default_rng(0)
    pole = point(np.zeros(2), -1.0)
    pts = sample_points(rng)
    target = kern.gamma_many(pts, pole, proto_params)
    rep = verify.fit_sandwich(pts, target, pole, proto, 2.0, 2.0)
    gridtol = 1e-12
    assert abs(rep.c_plus - 1.0) <= 10.0 * gridtol
    assert abs(rep.c_minus - 1.0) <= 10.0 * gridtol
    assert rep.violations == 0


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 1, 1), (2, 2, 1),
                                    (1, 1, 1, 1)])
def test_sandwich_self_test_block_structures(blocks):
    """The kernel fitted against itself gives C- <= 1 <= C+, both 1 to
    rounding, past the prototype.  The points come from the kernel's own
    law at times in (0.05, 1], so their targets are of the kernel's size;
    uniform points leave no positive target on (1, 1, 1)."""
    rng = np.random.default_rng(len(blocks) * 10 + sum(blocks))
    g = Geometry(BlockStructure(blocks), random_canonical_B(blocks, rng))
    params = kern.scaled_params(2.0, g)
    n = 500
    t = rng.uniform(0.05, 1.0, n)
    L = np.stack([np.linalg.cholesky(params.lam * kern.covariance_matrix(
        ti, g.B, np.eye(g.structure.m0))) for ti in t])
    x = np.einsum("nij,nj->ni", L, rng.standard_normal((n, g.N)))
    pole = point(np.zeros(g.N), 0.0)
    pts = point(x, t)
    target = kern.gamma_many(pts, pole, params)
    rep = verify.fit_sandwich(pts, target, pole, g, 2.0, 2.0)
    assert rep.c_minus <= 1.0 <= rep.c_plus
    assert abs(np.log(rep.c_plus)) <= 1e-12
    assert abs(np.log(rep.c_minus)) <= 1e-12


def test_fit_sandwich_skips_subnormal_targets(proto, proto_params):
    """Of 2000 uniform points in [-2, 2]^2 x [0.05, 1], three have a
    subnormal target (one reads 5e-324, with a log ratio of 0.369 to the
    same kernel as envelope): they stay out of the fit, so C+ and C- are 1
    to rounding."""
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(-2.0, 2.0, size=(2000, 2)),
                           rng.uniform(0.05, 1.0, size=2000)])
    pole = point(np.zeros(2), 0.0)
    target = kern.gamma_many(pts, pole, proto_params)
    normal = target >= np.finfo(float).tiny
    assert np.count_nonzero((target > 0.0) & ~normal) == 3
    rep = verify.fit_sandwich(pts, target, pole, proto, 2.0, 2.0)
    assert rep.n_samples == np.count_nonzero(normal)
    assert abs(np.log(rep.c_plus)) <= 1e-12
    assert abs(np.log(rep.c_minus)) <= 1e-12


@pytest.mark.parametrize("budget", [-0.5, 1.0, 1.5, np.nan])
def test_fit_sandwich_err_budget_outside_unit_interval(proto, proto_params,
                                                       budget):
    """err_budget scales C+ by 1 + err_budget and C- by 1 - err_budget, so
    outside [0, 1) it would shrink C+ or make C- <= 0."""
    pole = point(np.zeros(2), -1.0)
    pts = sample_points(np.random.default_rng(0))
    target = kern.gamma_many(pts, pole, proto_params)
    with pytest.raises(ArgumentError, match=r"err_budget must lie in"):
        verify.fit_sandwich(pts, target, pole, proto, 2.0, 2.0,
                            err_budget=budget)


def test_sandwich_wide_envelopes_bracket(proto, proto_params):
    rng = np.random.default_rng(1)
    pole = point(np.zeros(2), -1.0)
    pts = sample_points(rng)
    target = kern.gamma_many(pts, pole, proto_params)
    rep = verify.fit_sandwich(pts, target, pole, proto, 2.6, 1.6)
    assert 1.0 <= rep.c_plus < 2.0
    assert 0.0 < rep.c_minus <= 1.0


def test_sandwich_rejects_acausal_target(proto):
    pole = point(np.zeros(2), 0.0)
    pts = np.array([[0.1, 0.1, -0.5]])  # before the pole
    with pytest.raises(NoAdmissibleFit):
        verify.fit_sandwich(pts, np.array([1.0]), pole, proto, 2.0, 2.0)


def test_harnack_constant_quotient_is_one(proto):
    z0 = point(np.array([0.2, -0.1]), 0.5)
    h = verify.harnack_local(lambda z: np.full(len(z), 3.7), z0,
                             0.4, proto)
    assert h.quotient == 1.0


def test_harnack_requires_positivity(proto):
    z0 = point(np.zeros(2), 0.5)
    with pytest.raises(NotNonnegative):
        verify.harnack_local(lambda z: np.full(len(z), -1.0), z0, 0.4,
                             proto)


def test_harnack_node_floor(proto):
    z0 = point(np.zeros(2), 0.5)
    with pytest.raises(CylinderUnresolved):
        verify.harnack_local(lambda z: np.ones(len(z)), z0, 0.4, proto,
                             n_space=1, n_time=1)


def test_harnack_kernel_refinement_stable(proto, kernel_u):
    z0 = point(np.array([0.2, -0.1]), 0.5)
    q = [verify.harnack_local(kernel_u, z0, 0.4, proto, n_space=n,
                              n_time=n).quotient for n in (3, 5)]
    assert abs(q[1] - q[0]) / q[0] < 0.10


def test_harnack_rescaling_exact(proto, kernel_u):
    z0 = point(np.array([0.2, -0.1]), 0.5)
    base = verify.harnack_local(kernel_u, z0, 0.4, proto).quotient
    for a in (2.0, 0.5, 1024.0):  # power-of-two scalings are exact in IEEE
        h = verify.harnack_local(lambda z: a * kernel_u(z), z0, 0.4, proto)
        assert h.quotient == base


def test_harnack_dilation_covariance(proto, kernel_u):
    z0 = point(np.array([0.2, -0.1]), 0.5)
    s, r = 1.7, 0.3
    h1 = verify.harnack_local(lambda z: kernel_u(proto.dilate(s, z)), z0,
                              r, proto, n_space=5, n_time=5)
    h2 = verify.harnack_local(kernel_u, proto.dilate(s, z0), r * s, proto,
                              n_space=5, n_time=5)
    assert abs(h1.quotient - h2.quotient) / h2.quotient < 1e-12


def test_cone_quotient(proto, kernel_u):
    vertex = point(np.array([0.2, -0.1]), 0.5)
    rep = verify.harnack_cone(kernel_u, vertex, beta=1.0, r=0.5, R=0.5,
                              geometry=proto)
    assert rep["max_quotient"] >= 1.0
    assert rep["min_value"] > 0.0


def test_global_harnack_c0(proto, kernel_u):
    rng = np.random.default_rng(1)
    pairs = []
    for _ in range(40):
        w = point(rng.uniform(-1, 1, 2), rng.uniform(-1.0, 0.0))
        z = point(rng.uniform(-1, 1, 2), w[-1] + rng.uniform(0.3, 1.0))
        pairs.append((w, z))
    rep = verify.harnack_global(kernel_u, pairs, proto)
    c0 = rep["c0"]
    assert c0 >= 1.0
    # the bound holds at the fitted c0 for every pair
    W = np.array([w for w, _ in pairs])
    Z = np.array([z for _, z in pairs])
    e = verify.global_exponent(Z, W, proto, 2.0)
    assert np.all(kernel_u(Z) <= c0 ** e * kernel_u(W) * (1.0 + 1e-9))


def test_global_exponent_constant_free(proto):
    # aligned points: the quadratic form vanishes and the exponent is 1
    w = point(np.array([0.3, 0.1]), 0.0)
    x = proto.exp_drift(0.5) @ np.array([0.3, 0.1])
    e = verify.global_exponent(point(x, 0.5), w, proto, 2.0)
    assert abs(e - 1.0) < 1e-12


def _chain_geometry():
    B = np.zeros((3, 3))
    B[1, 0] = B[2, 1] = 1.0
    return Geometry(BlockStructure((1, 1, 1)), B)


def _per_node(u, nodes):
    """u evaluated one node at a time."""
    return np.array([u(np.asarray(z)[None, :])[0] for z in nodes])


@pytest.mark.parametrize("blocks", [(1, 1), (1, 1, 1)])
def test_batched_harnack_matches_per_node_loop(proto, blocks):
    """Batched nodes and one u call per node set give the reports of a loop
    that builds and evaluates every node on its own."""
    g = proto if blocks == (1, 1) else _chain_geometry()
    N, lam = g.N, 2.0
    params = kern.scaled_params(lam, g)
    pole = point(np.zeros(N), -2.0)

    def u(rows):
        return kern.gamma_many(rows, pole, params)

    rng = np.random.default_rng(7)
    close = dict(rtol=1e-13, atol=0.0)

    z0, r = point(rng.uniform(-0.3, 0.3, N), 0.5), 0.4
    h = verify.harnack_local(u, z0, r, g)
    vals = {upper: _per_node(u, [g.compose(z0, g.dilate(r, p)) for p in
                                 verify.unit_cylinder_nodes(
                                     g.structure, 3, 3, 0.5, upper)])
            for upper in (True, False)}
    assert np.isclose(h.inf_plus, vals[True].min(), **close)
    assert np.isclose(h.sup_minus, vals[False].max(), **close)
    assert (h.n_plus, h.n_minus) == (len(vals[True]), len(vals[False]))

    vertex, beta, rc, R = point(rng.uniform(-0.3, 0.3, N), 0.5), 1.0, 0.5, 0.5
    rep = verify.harnack_cone(u, vertex, beta, rc, R, g)
    nodes = [g.compose(vertex, point(g.dilate_space(rho, xi),
                                     -beta * rho * rho))
             for rho in R * np.arange(1, 7) / 6
             for xi in verify._ball_grid(N, 3) * rc]
    v = _per_node(u, nodes)
    ubase = _per_node(u, [g.compose(vertex, point(np.zeros(N),
                                                  -beta * R * R))])[0]
    assert rep["n_nodes"] == len(nodes)
    assert np.isclose(rep["base_value"], ubase, **close)
    assert np.isclose(rep["min_value"], v.min(), **close)
    assert np.isclose(rep["max_quotient"], v.max() / ubase, **close)

    pairs = []
    for _ in range(30):
        w = point(rng.uniform(-1, 1, N), rng.uniform(-1.0, 0.0))
        pairs.append((w, point(rng.uniform(-1, 1, N),
                               w[-1] + rng.uniform(0.3, 1.0))))
    rep = verify.harnack_global(u, pairs, g, lam=lam)
    log_q, expo = [], []
    for w, z in pairs:
        dtau = z[-1] - w[-1]
        d = z[:-1] - g.exp_drift(dtau) @ w[:-1]
        C = kern.covariance_matrix(dtau, g.B, np.eye(g.structure.m0))
        expo.append(1.0 + d @ np.linalg.solve(C, d) / lam)
        log_q.append(np.log(_per_node(u, [z])[0] / _per_node(u, [w])[0]))
    log_c0 = max(0.0, max(q / e for q, e in zip(log_q, expo)))
    assert rep["n_pairs"] == len(pairs)
    assert np.isclose(rep["max_exponent"], max(expo), rtol=1e-12, atol=0.0)
    assert -1e-12 <= np.log(rep["c0"]) - log_c0 <= 2e-10
