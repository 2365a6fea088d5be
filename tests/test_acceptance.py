"""Acceptance gate: the pinned end-to-end properties of the library.

Each test states its tolerance inline and checks one released guarantee;
oracles are closed-form (prototype covariance, Gaussian densities) or
statistical (Monte Carlo standard errors).
"""

import math
import time

import numpy as np
import pytest

from kolmo import cli
from kolmo import coefficients as coeff
from kolmo import kernel as kern
from kolmo import mc as mcmod
from kolmo import pde, specfile, verify
from kolmo.group import point


# -- 1. kernel correctness ---------------------------------------------------


def test_kernel_matches_closed_form_bulk(proto):
    """1e4 points against the closed-form prototype Gaussian, 1e-10 rel,
    evaluated in under a second."""
    rng = np.random.default_rng(0)
    n = 10_000
    lam = 1.7                      # lam = sigma^2 scaling of the model
    params = kern.scaled_params(lam, proto)
    y = np.array([0.3, -0.2])
    t0 = -0.4
    tau = rng.uniform(0.05, 2.0, n)

    # closed-form covariance and mean, vectorized over samples
    c11 = lam * tau
    c12 = lam * (-tau * tau / 2.0)
    c22 = lam * (tau ** 3 / 3.0)
    det = c11 * c22 - c12 * c12
    mean = np.column_stack([np.full(n, y[0]), y[1] - tau * y[0]])
    # sample x from the kernel's own law so exponents stay moderate
    l11 = np.sqrt(c11)
    l21 = c12 / l11
    l22 = np.sqrt(c22 - l21 * l21)
    g1, g2 = rng.normal(size=(2, n))
    x = mean + np.column_stack([l11 * g1, l21 * g1 + l22 * g2])
    d = x - mean
    q = (c22 * d[:, 0] ** 2 - 2.0 * c12 * d[:, 0] * d[:, 1]
         + c11 * d[:, 1] ** 2) / det
    oracle = np.exp(-0.5 * q) / (2.0 * math.pi * np.sqrt(det))

    pts = np.column_stack([x, t0 + tau])
    tic = time.perf_counter()
    vals = kern.gamma_many(pts, point(y, t0), params)
    elapsed = time.perf_counter() - tic
    assert np.max(np.abs(vals - oracle) / oracle) < 1e-10
    assert elapsed < 1.0


# -- 2. homogeneity ----------------------------------------------------------


def test_kernel_homogeneity(proto, proto_params):
    """Gamma_K(delta_r z) = r^-Q Gamma_K(z), defect < 1e-10 over 1e4
    samples."""
    rng = np.random.default_rng(1)
    n = 10_000
    t = np.abs(rng.normal(size=n)) + 0.05
    # sample the spatial part from the kernel's law at time t
    c11, c12, c22 = 2.0 * t, -t * t, 2.0 * t ** 3 / 3.0
    l11 = np.sqrt(c11)
    l21 = c12 / l11
    l22 = np.sqrt(c22 - l21 * l21)
    g1, g2 = rng.normal(size=(2, n))
    x = np.column_stack([l11 * g1, l21 * g1 + l22 * g2])
    r = np.exp(rng.uniform(-1.5, 1.5, n))

    origin = point(np.zeros(2), 0.0)
    pts = np.column_stack([x, t])
    dil = np.column_stack([r * x[:, 0], r ** 3 * x[:, 1], r * r * t])
    base = kern.gamma_many(pts, origin, proto_params)
    scaled = kern.gamma_many(dil, origin, proto_params)
    defect = np.abs(scaled - base * r ** (-4.0)) / (base * r ** (-4.0))
    assert np.max(defect) < 1e-10


# -- 3. reproduction ---------------------------------------------------------


def test_reproduction_property(proto):
    """Chapman-Kolmogorov by quadrature: rel err < 1e-8 on 100 random
    configurations in under 10 s."""
    rng = np.random.default_rng(2)
    params = kern.scaled_params(2.0, proto)
    tic = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        t0 = rng.uniform(-1.0, 0.0)
        t = t0 + rng.uniform(0.3, 1.5)
        s = rng.uniform(t0 + 0.1 * (t - t0), t - 0.1 * (t - t0))
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        res = kern.reproduction_check(x, t, y, t0, s, params)
        worst = max(worst, res["rel_err"])
    assert worst < 1e-8
    assert time.perf_counter() - tic < 10.0


# -- 4. group geometry -------------------------------------------------------


def test_group_geometry_bulk(proto):
    """Group axioms to 1e-12, norm homogeneity and distance left-invariance
    to 1e-10, over 1e4 samples."""
    rng = np.random.default_rng(3)
    e = point(np.zeros(2), 0.0)
    worst_axiom = 0.0
    worst_hom = 0.0
    worst_inv = 0.0
    for _ in range(10_000):
        z = point(rng.normal(size=2), rng.normal())
        w = point(rng.normal(size=2), rng.normal())
        v = point(rng.normal(size=2), rng.normal())
        assoc = proto.compose(proto.compose(z, w), v) \
            - proto.compose(z, proto.compose(w, v))
        ident = proto.compose(z, e) - z
        invs = proto.compose(z, proto.inverse(z))
        worst_axiom = max(worst_axiom, np.max(np.abs(assoc)),
                          np.max(np.abs(ident)), np.max(np.abs(invs)))
        r = math.exp(rng.uniform(-1.0, 1.0))
        nz = proto.hom_norm(z)
        worst_hom = max(worst_hom,
                        abs(proto.hom_norm(proto.dilate(r, z)) - r * nz)
                        / (r * nz))
        worst_inv = max(worst_inv,
                        abs(proto.distance(proto.compose(v, z),
                                           proto.compose(v, w))
                            - proto.distance(z, w))
                        / max(proto.distance(z, w), 1e-300))
    assert worst_axiom < 1e-12
    assert worst_hom < 1e-10
    assert worst_inv < 1e-10


# -- 5. Monte Carlo consistency ----------------------------------------------


def test_mc_matches_kernel_law(proto, proto_coeffs):
    """1e6 paths: mean and covariance within 3 SE of the kernel law; at
    least 95% of occupied density bins within 3 SE of gamma_K; < 60 s."""
    x0 = np.array([0.3, -0.1])
    t0, t1 = 0.0, 0.5
    cfg = mcmod.McConfig(paths=1_000_000, dt=5e-4, seed=12345, lam=2.0)
    tic = time.perf_counter()
    ens = mcmod.simulate(proto_coeffs, proto, x0, t0, t1, cfg)
    tau = t1 - t0
    mean_exact = proto.exp_drift(tau) @ x0
    cov_exact = 2.0 * kern.covariance_matrix(tau, proto.B, np.eye(1))

    mu = ens.weighted_mean()
    se = ens.mean_se()
    assert np.all(np.abs(mu - mean_exact) <= 3.0 * se)

    d = ens.final - mu
    for i in range(2):
        for j in range(2):
            prod = d[:, i] * d[:, j]
            se_ij = np.std(prod) / math.sqrt(cfg.paths)
            assert abs(np.mean(prod) - cov_exact[i, j]) <= 3.0 * se_ij

    box = np.array([[-2.5, 3.0], [-1.5, 1.0]])
    nb = 25
    dens = mcmod.density_estimate(ens, box, [nb, nb])
    # the histogram estimates the bin average of gamma_K, not its value at
    # the bin center: average the kernel over a 5x5 midpoint subgrid
    sub = 5
    fine = [np.concatenate([e[:-1, None] + (np.arange(sub) + 0.5)[None, :]
                            * (e[1] - e[0]) / sub])
            for e in dens["edges"]]
    fx, fy = [f.ravel() for f in fine]
    gx, gy = np.meshgrid(fx, fy, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(),
                           np.full(gx.size, t1)])
    gam_fine = kern.gamma_many(pts, point(x0, t0),
                               kern.principal_params(proto))
    gam = gam_fine.reshape(nb, sub, nb, sub).mean(axis=(1, 3))
    occupied = dens["density"] > 0.0
    ok = np.abs(dens["density"] - gam) <= 3.0 * dens["se"]
    frac = np.count_nonzero(ok & occupied) / np.count_nonzero(occupied)
    assert frac >= 0.95
    assert time.perf_counter() - tic < 60.0


# -- 6. solver convergence ---------------------------------------------------


def _cauchy_setup(proto):
    w, t1 = 0.25, 0.6
    pole = point(np.zeros(2), 0.0)
    params = kern.principal_params(proto)
    box = np.array([[-5.0, 5.0], [-2.5, 2.5]])

    class Datum:
        def many(self, X, t):
            pts = np.column_stack([X, np.full(len(X), w)])
            return kern.gamma_many(pts, pole, params)

    return w, t1, pole, params, box, Datum()


def _cauchy_rel_err(proto, coeffs, nx, dt):
    w, t1, pole, params, box, datum = _cauchy_setup(proto)
    sol = pde.solve_cauchy(coeffs, proto, datum, box, [nx, nx], w, t1,
                           dt=dt)
    pts = pde._grid_points(sol.axes)
    exact = kern.gamma_many(
        np.column_stack([pts, np.full(len(pts), t1)]), pole,
        params).reshape(sol.values[-1].shape)
    return sol, float(np.max(np.abs(sol.values[-1] - exact))
                      / np.max(exact))


def test_solver_order_in_h(proto, proto_coeffs):
    """Bulk L-infinity error vs the exact kernel: least-squares slope over
    two refinements at least 1.8."""
    grids = (41, 81, 161)
    errs = [_cauchy_rel_err(proto, proto_coeffs, nx, 2e-4)[1]
            for nx in grids]
    hs = [10.0 / (nx - 1) for nx in grids]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.8


def test_solver_order_in_dt(proto, proto_coeffs):
    """First order in the time step, isolated by self-convergence against a
    small-dt reference on a fixed grid."""
    ref = _cauchy_rel_err(proto, proto_coeffs, 81, 5e-5)[0]
    peak = np.max(ref.values[-1])
    errs = []
    for dt in (8e-4, 4e-4, 2e-4):
        sol = _cauchy_rel_err(proto, proto_coeffs, 81, dt)[0]
        errs.append(np.max(np.abs(sol.values[-1] - ref.values[-1])) / peak)
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 1.0


# -- 7. mollification --------------------------------------------------------


def test_mollification_preserves_bounds(proto):
    """Constants fixed; ellipticity interval [1, 2] and signs preserved; L1
    distance strictly decreasing along eps = 0.2, 0.1, 0.05."""
    rng = np.random.default_rng(4)
    X = rng.uniform(-1.0, 1.0, size=(400, 2))
    ts = rng.uniform(0.1, 0.9, 400)

    const = coeff.ConstantField(np.array([[1.3]]), dim=2)
    mc = coeff.mollify(const, eps=0.1, T=1.0)
    for x, t in zip(X[:20], ts[:20]):
        assert abs(mc(x, t)[0, 0] - 1.3) < 1e-14

    cb = coeff.checkerboard_spd(1.0, 2.0, m0=1, dim=2, h=0.25, seed=7)
    raw = np.array([cb(x, t)[0, 0] for x, t in zip(X, ts)])
    l1_prev = np.inf
    for eps in (0.2, 0.1, 0.05):
        fm = coeff.mollify(cb, eps=eps, T=1.0)
        sm = fm.many(X, ts)[:, 0, 0]
        assert np.min(sm) >= 1.0 - 1e-12
        assert np.max(sm) <= 2.0 + 1e-12
        l1 = float(np.mean(np.abs(sm - raw)))
        assert l1 < l1_prev
        l1_prev = l1

    c = coeff.CheckerboardField([np.array(-0.5), np.array(-0.1),
                                 np.array(0.0)], h=0.25, dim=2, seed=9)
    cm = coeff.mollify(c, eps=0.1, T=1.0)
    assert np.max(cm.many(X, ts)) <= 0.0 + 1e-15


# -- 8. Gaussian sandwich bounds ---------------------------------------------


GRIDTOL = 1e-12


def test_sandwich_self_test(proto, proto_params):
    """fit_sandwich on the exact kernel returns both constants inside
    1 +/- 10 * gridtol."""
    rng = np.random.default_rng(5)
    pole = point(np.zeros(2), -1.0)
    pts = np.column_stack([rng.uniform(-2, 2, 500),
                           rng.uniform(-1, 1, 500),
                           rng.uniform(-0.9, 0.6, 500)])
    target = kern.gamma_many(pts, pole, proto_params)
    rep = verify.fit_sandwich(pts, target, pole, proto, 2.0, 2.0)
    assert abs(rep.c_plus - 1.0) <= 10.0 * GRIDTOL
    assert abs(rep.c_minus - 1.0) <= 10.0 * GRIDTOL


def test_sandwich_mollified_checkerboard(proto):
    """The numerical fundamental solution of the mollified-checkerboard
    operator fits between the scaled model kernels with zero violations on
    the bulk grid."""
    box = np.array([[-4.0, 4.0], [-2.0, 2.0]])
    nx = [81, 121]
    cb = coeff.checkerboard_spd(1.0, 2.0, m0=1, dim=2, h=0.25, seed=3)
    fm = coeff.mollify(cb, eps=0.1, T=1.0)
    # resample onto the solver grid once: the quadrature field is far too
    # slow to evaluate inside the time loop
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, nx)]
    taxis = np.linspace(0.0, 1.1, 5)
    pts = pde._grid_points(axes)
    vals = np.stack([fm.many(pts, t).reshape(nx[0], nx[1], 1, 1)
                     for t in taxis], axis=2)
    a0 = coeff.GridField(axes, taxis, vals)

    final, _, _ = pde.approx_fundamental(
        {"A0": a0}, proto, np.zeros(2), 0.0, 1.0, box, nx, [0.3, 0.25],
        lam=2.0)
    tq = final.taxis[-1]
    gp = pde._grid_points(final.axes)
    bulk = final.values[-1].ravel() > 1e-3 * final.values[-1].max()
    sample = np.column_stack([gp, np.full(len(gp), tq)])[bulk]
    target = final.values[-1].ravel()[bulk]
    rep = verify.fit_sandwich(sample, target, point(np.zeros(2), 0.0),
                              proto, 4.5, 1.8, err_budget=0.05)
    assert rep.violations == 0
    assert rep.c_minus > 0.0
    assert rep.c_minus <= rep.c_plus


# -- 9. Harnack harness ------------------------------------------------------


def test_harnack_harness(proto):
    """Constants give quotient exactly 1; kernel quotients are finite and
    stable within 10% under refinement; exact invariance under positive
    rescaling."""
    z0 = point(np.array([0.2, -0.1]), 0.5)
    params = kern.principal_params(proto)
    pole = point(np.zeros(2), -2.0)

    def u(rows):
        return kern.gamma_many(rows, pole, params)

    assert verify.harnack_local(lambda z: np.full(len(z), 2.5), z0, 0.4,
                                proto).quotient == 1.0
    q3 = verify.harnack_local(u, z0, 0.4, proto, n_space=3,
                              n_time=3).quotient
    q5 = verify.harnack_local(u, z0, 0.4, proto, n_space=5,
                              n_time=5).quotient
    assert math.isfinite(q3) and q3 > 0.0
    assert abs(q5 - q3) / q3 <= 0.10
    for a in (2.0, 0.25, 4096.0):  # power-of-two factors scale exactly
        assert verify.harnack_local(lambda z: a * u(z), z0, 0.4,
                                    proto).quotient == q3


# -- 10. D_R measure scaling -------------------------------------------------


def test_DR_measure_scaling(proto):
    """log meas(D_R) vs log tau has slope Q/2 = 2 within 0.05."""
    taus = (0.1, 0.2, 0.4, 0.8)
    rep = mcmod.measure_scaling_slope(np.array([0.3, -0.2]), 1.0, proto,
                                      taus, n=200_000, seed=0)
    assert abs(rep["slope"] - 2.0) <= 0.05


# -- 11. vanishing past ------------------------------------------------------


def test_vanishing_past(proto, proto_params, proto_coeffs):
    """Kernel and numerical fundamental solution are exactly zero at and
    before the pole time."""
    pole = point(np.zeros(2), 0.2)
    assert kern.gamma_K_lambda(point(np.ones(2), 0.2), pole,
                               proto_params) == 0.0
    assert kern.gamma_K_lambda(point(np.ones(2), -3.0), pole,
                               proto_params) == 0.0
    _, _, ev = pde.approx_fundamental(
        proto_coeffs, proto, np.zeros(2), 0.2, 0.8,
        np.array([[-4.0, 4.0], [-2.0, 2.0]]), [41, 81], [0.3, 0.25])
    assert ev(np.array([0.3, 0.1]), 0.2) == 0.0
    assert ev(np.array([0.3, 0.1]), -1.0) == 0.0


# -- 12. determinism ---------------------------------------------------------


def test_cli_artifacts_deterministic(tmp_path):
    """mc and solve artifacts are byte-identical across repeats and across
    thread counts."""
    spec = str(specfile.save(specfile.prototype_spec(),
                             tmp_path / "proto.json"))
    outs = []
    for i, threads in enumerate((1, 1, 4)):
        out = tmp_path / f"d{i}.csv"
        code = cli.main(["--threads", str(threads), "mc", "density", spec,
                         "--paths", "40000", "--dt", "1e-2", "--seed", "9",
                         "--box=-3,3;-2,2", "--bins", "14,14",
                         "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]

    sols = []
    for i in range(2):
        out = tmp_path / f"s{i}.csv"
        code = cli.main(["solve", "cauchy", spec, "--box=-4,4;-2,2",
                         "--nx", "41,41", "--t1", "0.3",
                         "--out", str(out)])
        assert code == 0
        sols.append(out.read_bytes())
    assert sols[0] == sols[1]
