import warnings

import numpy as np
import pytest

from test_structure import random_canonical_B

from kolmo import kernel as kern
from kolmo import mc, pde
from kolmo.coefficients import CheckerboardField, ConstantField, \
    checkerboard_spd
from kolmo.errors import ArgumentError, NonFinite, NotSPD
from kolmo.group import Geometry
from kolmo.structure import BlockStructure


def test_config_validation():
    with pytest.raises(ValueError):
        mc.McConfig(paths=0, dt=1e-3, seed=0)
    with pytest.raises(ValueError):
        mc.McConfig(paths=10, dt=1e-3, seed=0, scheme="milstein")
    for threads in (0, -4):
        with pytest.raises(ValueError, match="threads"):
            mc.McConfig(paths=10, dt=1e-3, seed=0, threads=threads)


@pytest.mark.parametrize("t0, t1", [(0.5, 0.2), (0.0, 0.0),
                                    (0.0, float("nan"))])
def test_simulate_needs_t1_after_t0(proto, proto_coeffs, t0, t1):
    """An empty or reversed window is an argument error, not a one-step
    run at dt = 0 or a blow-up backwards in time."""
    cfg = mc.McConfig(paths=10, dt=1e-2, seed=0)
    with pytest.raises(ValueError, match="t1 must exceed t0"):
        mc.simulate(proto_coeffs, proto, np.zeros(2), t0, t1, cfg)


def test_solver_and_mc_need_A0(proto):
    """Without A0 the operator has no diffusion: the solver and the Monte
    Carlo both refuse it, rather than reading it as 0 and I respectively."""
    with pytest.raises(ArgumentError, match="need A0"):
        pde.solve_cauchy({}, proto, None, [[-1, 1], [-1, 1]], 11, 0.0, 0.1)
    with pytest.raises(ArgumentError, match="need A0"):
        mc.simulate({}, proto, np.zeros(2), 0.0, 0.1,
                    mc.McConfig(paths=10, dt=1e-2, seed=0))


def _row_major_simulate(coeffs, geometry, x0, t0, t1, config):
    """The Euler-Maruyama loop as it was written before the column-major
    state: (n, N) rows, drift -X @ B.T and fresh arrays on every step.
    Returns the terminal states and the log-weights."""
    N, m0, B = geometry.N, geometry.structure.m0, geometry.B
    nsteps = max(1, int(round((t1 - t0) / config.dt)))
    dt = (t1 - t0) / nsteps
    sqdt = np.sqrt(dt)
    A0f, bf, cf = coeffs.get("A0"), coeffs.get("b"), coeffs.get("c")
    const_sigma = None
    if getattr(A0f, "value", None) is not None:
        const_sigma = mc._sigma_chunk(np.atleast_2d(A0f.value)[None],
                                      config.lam)[0]
    final = np.empty((config.paths, N))
    logw = np.zeros(config.paths)
    for ci in range(-(-config.paths // mc.CHUNK)):
        lo = ci * mc.CHUNK
        hi = min(lo + mc.CHUNK, config.paths)
        n = hi - lo
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(ci,)))
        X = np.tile(x0, (n, 1))
        lw = np.zeros(n)
        t = t0
        for _ in range(nsteps):
            dW = rng.standard_normal((n, m0)) * sqdt
            drift = -X @ B.T
            if bf is not None:
                drift[:, :m0] += np.atleast_2d(bf.many(X, t))
            if const_sigma is not None:
                noise = dW @ const_sigma.T
            else:
                sig = mc._sigma_chunk(A0f.many(X, t), config.lam)
                noise = np.einsum("kij,kj->ki", sig, dW)
            if cf is not None:
                lw += dt * np.asarray(cf.many(X, t)).reshape(n)
            X[:, :m0] += noise
            X += drift * dt
            t += dt
        final[lo:hi] = X
        logw[lo:hi] = lw
    return final, logw


def _rough_coeffs(m0, N, with_bc, h_bc=0.5):
    """Checkerboard A0 (SPD cells, off-diagonal for m0 > 1) of side 0.25,
    plus checkerboard b and c of side h_bc when with_bc."""
    A = np.eye(m0) + 0.3 * (np.ones((m0, m0)) - np.eye(m0))
    coeffs = {"A0": CheckerboardField([A, 2.0 * np.eye(m0)], h=0.25,
                                      dim=N, seed=3)}
    if with_bc:
        coeffs["b"] = CheckerboardField([np.full(m0, 0.5), np.full(m0, -0.3)],
                                        h=h_bc, dim=N, seed=4)
        coeffs["c"] = CheckerboardField([-0.2, 0.1], h=h_bc, dim=N, seed=5)
    return coeffs


def _benchmark_rough_coeffs(N):
    """The rough benchmark's layout: checkerboard A0, b and c of one side,
    A0 drawing from {0.5, 1.5}, b from {-0.5, 0.5} and c from {-0.5, 0}."""
    return {"A0": checkerboard_spd(0.5, 1.5, 1, N, h=0.25, seed=21),
            "b": CheckerboardField([np.array([-0.5]), np.array([0.5])],
                                   h=0.25, dim=N, seed=22),
            "c": CheckerboardField([np.array(-0.5), np.array(0.0)],
                                   h=0.25, dim=N, seed=23)}


def _ensembles(coeffs, g, x0, paths):
    return [mc.simulate(coeffs, g, x0, 0.1, 0.3,
                        mc.McConfig(paths=paths, dt=0.02, seed=11, lam=2.0,
                                    threads=threads))
            for threads in (1, 2)]


@pytest.mark.parametrize("blocks", [(1, 1), (1, 1, 1)])
@pytest.mark.parametrize("kind", ["constant", "checkerboard", "one side"])
def test_column_major_loop_bitwise_row_major(blocks, kind):
    """Where every row of B has one non-zero the column-major loop is
    bitwise the old row-major one, at 1 and 2 threads, over a partial
    last chunk, with constant A0 or checkerboard A0, b and c: of two sides,
    each read through its own cell lookup, or of one side sharing one, as
    in the rough benchmark.  The old loop reads each field by its own
    many."""
    g = Geometry(BlockStructure(blocks),
                 random_canonical_B(blocks, np.random.default_rng(7)))
    if kind == "constant":
        coeffs = {"A0": ConstantField(np.array([[0.7]]), dim=g.N)}
    elif kind == "checkerboard":
        coeffs = _rough_coeffs(1, g.N, with_bc=True)
    else:
        coeffs = _benchmark_rough_coeffs(g.N)
    x0 = np.linspace(-0.3, 0.4, g.N)
    paths = mc.CHUNK + 1000
    final, logw = _row_major_simulate(
        coeffs, g, x0, 0.1, 0.3, mc.McConfig(paths=paths, dt=0.02, seed=11))
    for ens in _ensembles(coeffs, g, x0, paths):
        assert np.array_equal(ens.final, final)
        assert np.array_equal(ens.weights, np.exp(logw))
    assert np.any(logw != 0.0) == (kind != "constant")


@pytest.mark.parametrize("blocks", [(2, 1), (2, 2, 1)])
def test_column_major_loop_matches_row_major_dense_B(blocks):
    """With several non-zeros in a row of B the matmul may fuse or reorder
    the multiply-adds, so the old loop is matched to 1e-13 of the state;
    thread counts still agree bitwise.  The inputs are an m0 = 2
    checkerboard A0, alone and with b and c of its side, each factored once
    per value of its table where the old loop factors every state, and a
    constant one, which takes the sigma^T product built once per call."""
    g = Geometry(BlockStructure(blocks),
                 random_canonical_B(blocks, np.random.default_rng(5)))
    x0 = np.linspace(-0.3, 0.4, g.N)
    paths = mc.CHUNK + 1000
    for coeffs in (_rough_coeffs(2, g.N, with_bc=False),
                   _rough_coeffs(2, g.N, with_bc=True, h_bc=0.25),
                   {"A0": ConstantField(np.array([[1.0, 0.3], [0.3, 0.6]]),
                                        dim=g.N)}):
        final, _ = _row_major_simulate(
            coeffs, g, x0, 0.1, 0.3,
            mc.McConfig(paths=paths, dt=0.02, seed=11))
        one, two = _ensembles(coeffs, g, x0, paths)
        assert np.array_equal(one.final, two.final)
        assert np.max(np.abs(one.final - final)) \
            <= 1e-13 * np.max(np.abs(final))


def test_non_finite_state_raises(proto):
    """A state that overflows ends in NonFinite, not in an ensemble.  Each
    chunk runs in a copy of the caller's context, so the caller's
    np.errstate silences the overflow (and the inf - inf it leads to) on
    the worker threads too, at one and at two threads: no RuntimeWarning is
    emitted."""
    coeffs = {"A0": ConstantField(np.eye(1), dim=2),
              "b": ConstantField(np.array([1e308]), dim=2)}
    for threads in (1, 2):
        cfg = mc.McConfig(paths=2 * mc.CHUNK, dt=1.0, seed=0,
                          threads=threads)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFinite):
                    mc.simulate(coeffs, proto, np.zeros(2), 0.0, 4.0, cfg)


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


@pytest.mark.parametrize("kind", ["checkerboard", "unvisited", "constant"])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_not_spd_diffusion_pivots(proto, kind, bad):
    """The factors of a checkerboard A0's values and the one factor of a
    constant A0 reject a zero, a negative or a NaN pivot.  A checkerboard
    is refused before any path is stepped, even where no path can reach
    the bad value: its cells are 10^6 wide, and every path stays in the
    cell of x0 and t0, which draws the good value."""
    x0 = np.zeros(2)
    if kind == "constant":
        A0 = ConstantField(np.array([[bad]]), dim=2)
    else:
        h, seed = (0.25, 3) if kind == "checkerboard" else (1e6, 0)
        A0 = CheckerboardField([np.array([[1.0]]), np.array([[bad]])],
                               h=h, dim=2, seed=seed)
    if kind == "unvisited":
        x0 = np.full(2, 5e5)
        assert A0(x0, 0.0)[0, 0] == 1.0 and A0(x0, 0.5)[0, 0] == 1.0
    cfg = mc.McConfig(paths=2000, dt=1e-2, seed=0)
    with pytest.raises(NotSPD):
        mc.simulate({"A0": A0}, proto, x0, 0.0, 0.5, cfg)


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
