import numpy as np
import pytest

from kolmo import kernel as kern
from kolmo import mc
from kolmo.coefficients import CheckerboardField, ConstantField
from kolmo.errors import NotSPD


def test_config_validation():
    with pytest.raises(ValueError):
        mc.McConfig(paths=0, dt=1e-3, seed=0)
    with pytest.raises(ValueError):
        mc.McConfig(paths=10, dt=1e-3, seed=0, scheme="milstein")


def test_moments_match_kernel(proto, proto_coeffs):
    x0 = np.array([0.3, -0.1])
    tau = 0.4
    cfg = mc.McConfig(paths=200_000, dt=1e-3, seed=5, lam=2.0)
    ens = mc.simulate(proto_coeffs, proto, x0, 0.0, tau, cfg)
    mean_exact = proto.exp_drift(tau) @ x0
    cov_exact = 2.0 * kern.covariance_matrix(tau, proto.B, np.eye(1))
    z = (ens.weighted_mean() - mean_exact) / ens.mean_se()
    assert np.all(np.abs(z) < 4.0)
    assert np.allclose(ens.weighted_cov(), cov_exact, rtol=0.02)


def test_determinism_and_thread_independence(proto, proto_coeffs):
    x0 = np.zeros(2)
    kw = dict(paths=50_000, dt=5e-3, seed=17, lam=2.0)
    a = mc.simulate(proto_coeffs, proto, x0, 0.0, 0.2,
                    mc.McConfig(**kw, threads=1))
    b = mc.simulate(proto_coeffs, proto, x0, 0.0, 0.2,
                    mc.McConfig(**kw, threads=1))
    c = mc.simulate(proto_coeffs, proto, x0, 0.0, 0.2,
                    mc.McConfig(**kw, threads=4))
    assert np.array_equal(a.final, b.final)
    assert np.array_equal(a.final, c.final)


def test_feynman_kac_weights(proto, proto_coeffs):
    coeffs = dict(proto_coeffs)
    coeffs["c"] = ConstantField(np.array(-0.5), dim=2)
    cfg = mc.McConfig(paths=1000, dt=1e-2, seed=0)
    ens = mc.simulate(coeffs, proto, np.zeros(2), 0.0, 0.3, cfg)
    # constant c: deterministic weight exp(c * tau)
    assert np.allclose(ens.weights, np.exp(-0.5 * 0.3), rtol=1e-12)


def test_not_spd_diffusion(proto):
    coeffs = {"A0": ConstantField(np.array([[-1.0]]), dim=2)}
    cfg = mc.McConfig(paths=100, dt=1e-2, seed=0)
    with pytest.raises(NotSPD):
        mc.simulate(coeffs, proto, np.zeros(2), 0.0, 0.1, cfg)


@pytest.mark.parametrize("kind", ["checkerboard", "constant"])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_not_spd_diffusion_pivots(proto, kind, bad):
    """Both the per-state factor of a rough A0 and the one factor of a
    constant A0 reject a zero, a negative or a NaN pivot."""
    if kind == "checkerboard":
        A0 = CheckerboardField([np.array([[1.0]]), np.array([[bad]])],
                               h=0.25, dim=2, seed=3)
    else:
        A0 = ConstantField(np.array([[bad]]), dim=2)
    cfg = mc.McConfig(paths=2000, dt=1e-2, seed=0)
    with pytest.raises(NotSPD):
        mc.simulate({"A0": A0}, proto, np.zeros(2), 0.0, 0.5, cfg)


def test_sigma_chunk_matches_lapack_cholesky():
    """The closed-form factor is bitwise LAPACK's for m0 = 1 and agrees to
    rounding for m0 = 2 and 3."""
    rng = np.random.default_rng(4)
    lam = 2.0
    A = rng.uniform(0.1, 3.0, size=(4096, 1, 1))
    assert np.array_equal(mc._sigma_chunk(A, lam),
                          np.linalg.cholesky(lam * A))
    for m in (2, 3):
        G = rng.normal(size=(2000, m, m))
        A = G @ G.transpose(0, 2, 1) + m * np.eye(m)
        L = mc._sigma_chunk(A, lam)
        ref = np.linalg.cholesky(lam * A)
        assert np.array_equal(np.triu(L, 1), np.zeros_like(L))
        err = np.max(np.abs(L - ref), axis=(1, 2))
        assert np.all(err <= 1e-14 * np.max(np.abs(ref), axis=(1, 2)))


def test_density_estimate_normalization(proto, proto_coeffs):
    cfg = mc.McConfig(paths=100_000, dt=2e-3, seed=2)
    ens = mc.simulate(proto_coeffs, proto, np.zeros(2), 0.0, 0.3, cfg)
    d = mc.density_estimate(ens, [(-3, 3), (-1.5, 1.5)], [30, 30])
    total = d["density"].sum() * d["bin_volume"]
    assert abs(total - 1.0) < 0.01
    assert np.all(d["se"][d["density"] > 0] > 0.0)


def test_mass_in_DR_matches_gaussian_oracle(proto, proto_coeffs):
    tau = 0.3
    cfg = mc.McConfig(paths=100_000, dt=1e-3, seed=9)
    ens = mc.simulate(proto_coeffs, proto, np.zeros(2), 0.0, tau, cfg)
    m = mc.mass_in_DR(ens, np.zeros(2), 1.0, proto)
    # oracle: X ~ N(0, 2 C(tau)); u = -delta_{1/sqrt tau} e^{tau B} X
    E = proto.exp_drift(-tau)
    D = np.diag(1.0 / np.sqrt(tau) ** np.asarray(proto.structure.alpha,
                                                 dtype=float))
    S = D @ E @ (2.0 * kern.covariance_matrix(tau, proto.B, np.eye(1))) \
        @ E.T @ D.T
    rng = np.random.default_rng(0)
    zz = rng.standard_normal((400_000, 2)) @ np.linalg.cholesky(S).T
    oracle = float(np.mean(np.sum(zz * zz, axis=1) <= 1.0))
    assert abs(m["mass"] - oracle) < 4.0 * (m["se"] + 1e-3)


def test_measure_DR_exact_volume(proto):
    # the affine image of the R-ball has volume tau^{Q/2} R^N omega_N
    tau, R = 0.7, 1.3
    m = mc.measure_DR(np.array([0.2, -0.1]), tau, R, proto, n=400_000,
                      seed=4)
    exact = tau ** (proto.structure.Q / 2.0) * R ** 2 * np.pi
    assert abs(m["measure"] - exact) < 4.0 * m["se"]


def test_measure_scaling_slope(proto):
    res = mc.measure_scaling_slope(np.array([0.2, 0.1]), 1.0, proto,
                                   taus=[0.05, 0.1, 0.2, 0.4, 0.8],
                                   n=100_000, seed=3)
    assert abs(res["slope"] - proto.structure.Q / 2.0) < 0.05
