import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from test_structure import random_canonical_B

from kolmo import kernel as kern
from kolmo import mc, pde
from kolmo.coefficients import CheckerboardField, ConstantField, \
    GridField, checkerboard_spd
from kolmo.errors import ArgumentError, NonFinite, NotSPD
from kolmo.group import Geometry
from kolmo.structure import BlockStructure


def weighted_cov(ens):
    """Covariance of the ensemble's terminal states under its weights."""
    d = ens.final - ens.weighted_mean()
    w = ens.weights / ens.weights.sum()
    return (d.T * w) @ d


def mean_se(ens):
    """Per-coordinate standard error of the ensemble's weighted mean."""
    w = ens.weights / ens.weights.sum()
    var = ((ens.final - ens.weighted_mean()) ** 2 * w[:, None]).sum(axis=0)
    neff = 1.0 / np.sum(w ** 2)
    return np.sqrt(var / neff)


def measure_DR(y, tau, R, geometry, n, seed):
    """Lebesgue measure of D_R(y, tau) by rejection sampling over the
    bounding box of the affine image of the R-ball.

    D_R is the image of {|u| <= R} under xi(u) = e^{-tau B}(y - delta^0_{sqrt
    tau} u); the box is computed from the parallelotope spanned by the
    column images.
    """
    N = geometry.N
    alpha = np.asarray(geometry.structure.alpha, dtype=float)
    Einv = geometry.exp_drift(tau)        # e^{-tau B}
    scale = np.sqrt(tau) ** alpha
    M = Einv * scale[None, :]             # xi = center - M u
    center = Einv @ np.atleast_1d(y)
    half = R * np.sum(np.abs(M), axis=1)
    lo, hi = center - half, center + half
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, N))
    u = mc.standardized_offset(pts, y, tau, geometry)
    frac = np.mean(np.sum(u * u, axis=1) <= R * R)
    box_vol = float(np.prod(hi - lo))
    meas = box_vol * float(frac)
    se = box_vol * float(np.sqrt(frac * (1.0 - frac) / n))
    return {"measure": meas, "se": se, "box_volume": box_vol}


def measure_scaling_slope(y, R, geometry, taus, n, seed):
    """Least-squares slope of log measure(D_R) against log tau; the graded
    dilations make the exact value Q/2."""
    logs = []
    for k, tau in enumerate(taus):
        m = measure_DR(y, tau, R, geometry, n=n, seed=seed + k)
        logs.append(np.log(m["measure"]))
    slope = np.polyfit(np.log(np.asarray(taus, dtype=float)), logs, 1)[0]
    return {"slope": float(slope), "taus": list(taus), "log_measures": logs}


def test_config_validation():
    assert mc.McConfig(paths=10, seed=0).dt is None
    with pytest.raises(ValueError):
        mc.McConfig(paths=0, dt=1e-3, seed=0)
    assert mc.McConfig(paths=10, seed=0, threads=mc.MAX_THREADS).threads \
        == mc.MAX_THREADS
    for threads in (0, -4, mc.MAX_THREADS + 1):
        with pytest.raises(ValueError, match=f"threads = {threads}: must be "
                           f"positive and at most the bound {mc.MAX_THREADS}"):
            mc.McConfig(paths=10, dt=1e-3, seed=0, threads=threads)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ArgumentError):
            mc.McConfig(paths=10, dt=bad, seed=0)
        with pytest.raises(ArgumentError):
            mc.McConfig(paths=10, dt=1e-3, seed=0, lam=bad)


@pytest.mark.parametrize("t0, t1", [(0.5, 0.2), (0.0, 0.0),
                                    (0.0, float("nan"))])
def test_simulate_needs_t1_after_t0(proto, proto_coeffs, t0, t1):
    """An empty or reversed window is an argument error, not a one-step
    run at dt = 0 or a blow-up backwards in time."""
    cfg = mc.McConfig(paths=10, seed=0)
    with pytest.raises(ValueError, match="t1 must exceed t0"):
        mc.simulate(proto_coeffs, proto, np.zeros(2), t0, t1, cfg)


def test_solver_and_mc_need_A0(proto):
    """Without A0 the operator has no diffusion: the solver and the Monte
    Carlo both refuse it, rather than reading it as 0 and I respectively."""
    with pytest.raises(ArgumentError, match="need A0"):
        pde.solve_cauchy({}, proto, None, [[-1, 1], [-1, 1]], 11, 0.0, 0.1)
    with pytest.raises(ArgumentError, match="need A0"):
        mc.simulate({}, proto, np.zeros(2), 0.0, 0.1,
                    mc.McConfig(paths=10, seed=0))


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
        rng = mc.chunk_rng(config.seed, ci)
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


def _grid_field(N, shape, values, seed):
    """A grid field on R^N x R with 3 nodes per axis on [-1, 1] x [0, 0.4],
    its samples drawn by values(rng, size) for the sample shape; the paths
    leave the axes, where the field reads its edge samples."""
    rng = np.random.default_rng(seed)
    ax = np.linspace(-1.0, 1.0, 3)
    return GridField([ax] * N, [0.0, 0.2, 0.4],
                     values(rng, (3,) * (N + 1)) * np.ones(shape))


def _sampled_coeffs(m0, N, with_bc):
    """Grid-field A0 (SPD at every sample, so at every convex combination
    of samples), plus grid-field b and c when with_bc: none has a `value`
    or a table, so each is read by its many at every step."""
    def spd(rng, size):
        G = rng.uniform(-0.5, 0.5, size=size + (m0, m0))
        return G @ np.swapaxes(G, -1, -2) + 0.5 * np.eye(m0)
    coeffs = {"A0": _grid_field(N, (m0, m0), spd, 1)}
    if with_bc:
        coeffs["b"] = _grid_field(
            N, (m0,), lambda rng, size: rng.uniform(-0.5, 0.5, size + (m0,)),
            2)
        coeffs["c"] = _grid_field(
            N, (), lambda rng, size: rng.uniform(-0.5, 0.0, size), 3)
    return coeffs


def _constant_coeffs(m0, N):
    """Constant A0, b and c: the Asian pricing script's layout (constant A0
    and b) with a constant c."""
    A = np.diag(np.linspace(1.0, 0.6, m0)) \
        + 0.3 * (np.ones((m0, m0)) - np.eye(m0))
    return {"A0": ConstantField(A, dim=N),
            "b": ConstantField(np.linspace(0.2, -0.1, m0), dim=N),
            "c": ConstantField(np.array(-0.3), dim=N)}


def _as_boards(coeffs, names=("A0",)):
    """coeffs with each held field of names passed as a one-value
    checkerboard of its value: a board is read from its table, so the
    ensemble is stepped, where held fields alone are drawn from the exact
    law; a one-value board steps bitwise as its constant."""
    return {k: CheckerboardField([f.value], h=0.25, dim=f.dim, seed=3)
            if k in names else f for k, f in coeffs.items()}


def _ensembles(coeffs, g, x0, paths):
    return [mc.simulate(coeffs, g, x0, 0.1, 0.3,
                        mc.McConfig(paths=paths, dt=0.02, seed=11, lam=2.0,
                                    threads=threads))
            for threads in (1, 2)]


@pytest.mark.parametrize("blocks", [(1, 1), (1, 1, 1)])
@pytest.mark.parametrize("kind", ["constant", "checkerboard", "one side",
                                  "sampled", "constant b, c"])
def test_column_major_loop_bitwise_row_major(blocks, kind):
    """Where every row of B has one non-zero the column-major loop is
    bitwise the old row-major one, at 1 and 2 threads, over a partial
    last chunk, with a one-value checkerboard A0; checkerboard A0, b and c
    of two sides, each read through its own cell lookup, or of one side
    sharing one, as in the rough benchmark; grid-field A0, b and c, read by
    many at every step; or a one-value checkerboard A0 with constant b and
    c, read from the table and held.  The old loop reads each field by its
    own many.  (With every field held the ensemble is drawn from the
    exact law and not stepped, so A0 is a board here.)"""
    g = Geometry(BlockStructure(blocks),
                 random_canonical_B(blocks, np.random.default_rng(7)))
    if kind == "constant":
        coeffs = _as_boards({"A0": ConstantField(np.array([[0.7]]),
                                                 dim=g.N)})
    elif kind == "checkerboard":
        coeffs = _rough_coeffs(1, g.N, with_bc=True)
    elif kind == "one side":
        coeffs = _benchmark_rough_coeffs(g.N)
    elif kind == "sampled":
        coeffs = _sampled_coeffs(1, g.N, with_bc=True)
    else:
        coeffs = _as_boards(_constant_coeffs(1, g.N))
    x0 = np.linspace(-0.3, 0.4, g.N)
    paths = mc.CHUNK + 1000
    final, logw = _row_major_simulate(
        coeffs, g, x0, 0.1, 0.3, mc.McConfig(paths=paths, dt=0.02, seed=11))
    for ens in _ensembles(coeffs, g, x0, paths):
        assert np.array_equal(ens.final, final)
        assert np.array_equal(ens.weights, np.exp(logw))
    assert np.any(logw != 0.0) == (kind != "constant")


@pytest.mark.parametrize("blocks", [(2, 1), (2, 2, 1), (3, 1)])
def test_column_major_loop_matches_row_major_dense_B(blocks):
    """With several non-zeros in a row of B the matmul may fuse or reorder
    the multiply-adds, and for m0 >= 2 the noise product sums its terms in
    another order than the old loop's einsum, so the old loop is matched
    to 1e-13 of the state; thread counts still agree bitwise, weights
    included.  The inputs are a checkerboard A0 with cross terms, alone
    and with b and c of its side (one lookup) or of another (two lookups),
    each factored once per value of its table where the old loop factors
    every state; a grid-field A0, factored per state; and a one-value
    checkerboard A0 with constant b and c, which steps (held fields alone
    are drawn from the exact law), its one factor made once per call."""
    g = Geometry(BlockStructure(blocks),
                 random_canonical_B(blocks, np.random.default_rng(5)))
    m0 = g.structure.m0
    x0 = np.linspace(-0.3, 0.4, g.N)
    paths = mc.CHUNK + 1000
    for coeffs in (_rough_coeffs(m0, g.N, with_bc=False),
                   _rough_coeffs(m0, g.N, with_bc=True, h_bc=0.25),
                   _rough_coeffs(m0, g.N, with_bc=True),
                   _sampled_coeffs(m0, g.N, with_bc=False),
                   _as_boards(_constant_coeffs(m0, g.N))):
        final, _ = _row_major_simulate(
            coeffs, g, x0, 0.1, 0.3,
            mc.McConfig(paths=paths, dt=0.02, seed=11))
        one, two = _ensembles(coeffs, g, x0, paths)
        assert np.array_equal(one.final, two.final)
        assert np.array_equal(one.weights, two.weights)
        assert np.max(np.abs(one.final - final)) \
            <= 1e-13 * np.max(np.abs(final))


def test_stepping_reads_no_constant_or_checkerboard_by_many(proto):
    """A constant's components are made once per call and a checkerboard's
    gathered from its table: stepping calls the many of neither, in both
    roles of each coefficient."""

    class CountedConstant(ConstantField):
        calls = 0

        def many(self, X, ts):
            self.calls += 1
            return super().many(X, ts)

    class CountedBoard(CheckerboardField):
        calls = 0

        def many(self, X, ts):
            self.calls += 1
            return super().many(X, ts)

    def board(values, seed):
        return CountedBoard([np.asarray(v, dtype=float) for v in values],
                            h=0.25, dim=2, seed=seed)

    cfg = mc.McConfig(paths=1000, dt=0.02, seed=3)
    for coeffs in ({"A0": CountedConstant(np.eye(1), dim=2),
                    "b": board([[0.5], [-0.5]], 4),
                    "c": CountedConstant(np.array(-0.2), dim=2)},
                   {"A0": board([[[1.0]], [[2.0]]], 3),
                    "b": CountedConstant(np.array([0.3]), dim=2),
                    "c": board([-0.2, 0.0], 5)}):
        mc.simulate(coeffs, proto, np.zeros(2), 0.0, 0.2, cfg)
        assert [f.calls for f in coeffs.values()] == [0, 0, 0]


def _raises_non_finite(coeffs, geometry, dt=None):
    """simulate at the step dt ends in NonFinite at one and at two workers,
    and emits no RuntimeWarning under the caller's np.errstate."""
    for threads in (1, 2):
        cfg = mc.McConfig(paths=2 * mc.CHUNK, dt=dt, seed=0,
                          threads=threads)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFinite):
                    mc.simulate(coeffs, geometry, np.zeros(2), 0.0, 4.0,
                                cfg)


def test_non_finite_state_raises(proto):
    """A state that overflows ends in NonFinite, not in an ensemble.  With
    A0 and b held, the mean of the exact law overflows: its drift series,
    of a fixed number of terms, ends on inf and NaN, and at one and at two
    workers no RuntimeWarning is emitted."""
    _raises_non_finite({"A0": ConstantField(np.eye(1), dim=2),
                        "b": ConstantField(np.array([1e308]), dim=2)}, proto)


def test_law_refuses_a_non_finite_law(proto):
    """Held A0 = 1e308: lam * A0 overflows, so the covariance of the
    exact law is not finite, and the law itself raises NonFinite before any
    chunk draws, where a factor would hold NaN silently."""
    coeffs = {"A0": ConstantField(np.array([[1e308]]), dim=2)}
    with pytest.raises(NonFinite, match="exact law"):
        mc.simulate(coeffs, proto, np.zeros(2), 0.0, 1.0,
                    mc.McConfig(paths=10, seed=0))


def test_non_finite_rough_state_raises(proto, monkeypatch):
    """The same for checkerboard A0, b and c of one side, read through one
    lookup, so the paths are stepped: once the state overflows, its cells
    are non-finite, and the lookup hashes each row.  A forked worker
    inherits the caller's np.errstate, so it silences the overflow (and
    the inf - inf it leads to) in every worker; the lookups counted are
    the calling process's, which steps chunk 0 at one and at two
    workers."""
    coeffs = _benchmark_rough_coeffs(2)
    coeffs["b"] = CheckerboardField([np.array([1e308]), np.array([-1e308])],
                                    h=0.25, dim=2, seed=22)
    per_row = []

    class Lookup(mc.CellLookup):
        def move(self, X, ts):
            super().move(X, ts)
            per_row.append(self.box is None)

    monkeypatch.setattr(mc, "CellLookup", Lookup)
    _raises_non_finite(coeffs, proto, dt=1.0)
    assert any(per_row) and not all(per_row)


def test_rough_box_table_built_once_per_box(proto, monkeypatch):
    """In the rough benchmark's layout (one chunk of 16384 paths, 500
    steps), the lookup hashes its box and gathers the box's value table
    only when the box key changes from the step before, so on fewer than a
    third of the steps; a table gathered afresh on every step would be
    built 500 times."""
    keys, builds = [], []

    class Lookup(mc.CellLookup):
        def move(self, X, ts):
            super().move(X, ts)
            keys.append(self.key)

        def _hash(self, starts):
            if self.box is not None:
                builds.append(self.key)
            return super()._hash(starts)

    monkeypatch.setattr(mc, "CellLookup", Lookup)
    cfg = mc.McConfig(paths=mc.CHUNK, dt=1e-3, seed=7)
    mc.simulate(_benchmark_rough_coeffs(2), proto, np.array([0.1, -0.2]),
                0.0, 0.5, cfg)
    # the first move is the lookup's construction; each step moves, then
    # reads
    steps = keys[1:]
    assert len(steps) == 500 and None not in steps
    assert builds == [k for i, k in enumerate(steps)
                      if i == 0 or k != steps[i - 1]]
    assert len(builds) < len(steps) / 3


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 1, 1), (2, 2, 1),
                                    (1, 1, 1, 1)])
def test_mc_matches_lam_C_over_block_structures(blocks):
    """A0 = I on a random canonical drift, as a one-value checkerboard, so
    the Euler chain is stepped: the ensemble's mean and covariance match
    e^{-tB} x0 and lam C(t) within 5 standard errors plus the exact O(dt)
    bias of the Euler recursion, the benchmark's Monte Carlo criterion."""
    rng = np.random.default_rng(sum(blocks) * 10 + len(blocks))
    g = Geometry(BlockStructure(blocks), random_canonical_B(blocks, rng))
    N, m0, lam, t = g.N, g.structure.m0, 2.0, 0.5
    x0 = rng.uniform(-0.5, 0.5, N)
    cfg = mc.McConfig(paths=100_000, dt=0.01, seed=len(blocks), lam=lam)
    ens = mc.simulate(_as_boards({"A0": ConstantField(np.eye(m0), dim=N)}),
                      g, x0, 0.0, t, cfg)
    assert ens.provenance["scheme"] == "euler"
    nsteps = ens.provenance["nsteps"]
    # the Euler recursion X <- F X + sqrt(lam dt) (dW, 0), exactly
    F = np.eye(N) - cfg.dt * g.B
    Q = np.zeros((N, N))
    Q[:m0, :m0] = lam * cfg.dt * np.eye(m0)
    S = np.zeros((N, N))
    for _ in range(nsteps):
        S = F @ S @ F.T + Q
    mean = g.exp_drift(t) @ x0
    C = lam * kern.covariance_matrix(t, g.B, np.eye(m0))
    mean_bias = np.abs(np.linalg.matrix_power(F, nsteps) @ x0 - mean)
    assert np.all(np.abs(ens.weighted_mean() - mean)
                  <= 5.0 * mean_se(ens) + mean_bias)
    D = ens.final - ens.final.mean(axis=0)
    prod = D[:, :, None] * D[:, None, :]
    se = prod.std(axis=0) / np.sqrt(cfg.paths)
    assert np.all(np.abs(prod.mean(axis=0) - C) <= 5.0 * se + np.abs(S - C))


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 1, 1), (2, 2, 1),
                                    (1, 1, 1, 1)])
def test_held_ensemble_has_the_exact_law(blocks):
    """Held A0 (with cross terms for m0 >= 2), b and c: the ensemble is
    drawn from the diffusion's exact law, in one step of t1 - t0.  Its mean
    and covariance lie within 5 standard errors of the exact moments: the
    mean from the matrix exponential of the drift augmented by b (scipy's
    expm, not the library's series) and the covariance lam C_{A0}(tau).
    At the step 0.05 the Euler chain's law is off lam C(tau) by more than
    that, so a draw from it fails the check.  Its weights are exp(tau c),
    bitwise, and it is byte-identical at 1 and 2 threads."""
    from scipy.linalg import expm

    rng = np.random.default_rng(sum(blocks) * 10 + len(blocks))
    g = Geometry(BlockStructure(blocks), random_canonical_B(blocks, rng))
    N, m0, lam, t0, t1 = g.N, g.structure.m0, 2.0, 0.1, 0.7
    tau = t1 - t0
    x0 = rng.uniform(-0.5, 0.5, N)
    coeffs = _constant_coeffs(m0, N)
    cfg = mc.McConfig(paths=100_000, seed=len(blocks), lam=lam)
    one, two = [mc.simulate(coeffs, g, x0, t0, t1, replace(cfg, threads=th))
                for th in (1, 2)]
    assert one.provenance["scheme"] == "exact"
    assert (one.provenance["nsteps"], one.provenance["dt"]) == (1, tau)
    assert "draw" not in one.provenance
    assert np.array_equal(one.final, two.final)
    assert np.array_equal(one.weights, two.weights)
    assert np.all(one.weights == np.exp(tau * float(coeffs["c"].value)))

    # d/dt (x, 1) = [[-B, b], [0, 0]] (x, 1)
    M = np.zeros((N + 1, N + 1))
    M[:N, :N] = -g.B
    M[:m0, N] = coeffs["b"].value
    mean = (expm(tau * M) @ np.append(x0, 1.0))[:N]
    C = lam * kern.covariance_matrix(tau, g.B, coeffs["A0"].value)
    X = one.final
    assert np.all(np.abs(X.mean(axis=0) - mean)
                  <= 5.0 * X.std(axis=0) / np.sqrt(cfg.paths))
    D = X - mean
    prod = D[:, :, None] * D[:, None, :]
    se = prod.std(axis=0) / np.sqrt(cfg.paths)
    assert np.all(np.abs(prod.mean(axis=0) - C) <= 5.0 * se)

    # the Euler chain's covariance at dt = 0.05, 12 steps
    dt = 0.05
    F = np.eye(N) - dt * g.B
    Q = np.zeros((N, N))
    Q[:m0, :m0] = lam * dt * coeffs["A0"].value
    S = np.zeros((N, N))
    for _ in range(round(tau / dt)):
        S = F @ S @ F.T + Q
    assert np.any(np.abs(S - C) > 5.0 * se)


def test_held_ensemble_refuses_a_time_step(proto, proto_coeffs):
    """A held ensemble reads no time step, so a given dt is refused rather
    than accepted and ignored."""
    with pytest.raises(ArgumentError, match="dt 0.01 is not read"):
        mc.simulate(proto_coeffs, proto, np.zeros(2), 0.0, 0.5,
                    mc.McConfig(paths=10, dt=0.01, seed=0))


@pytest.mark.parametrize("dt", [1e-300, 0.5 / (mc.MAX_STEPS + 1)])
def test_stepped_ensemble_refuses_steps_past_the_bound(proto, proto_coeffs,
                                                       monkeypatch, dt):
    """A stepped ensemble of more than MAX_STEPS steps is refused with an
    ArgumentError that names the step count and the bound, before any
    generator or worker is made, here at two workers over two chunks: both
    chunk_rng and os.fork, as mc reaches it, fail the test if called."""
    def made(*args, **kwargs):
        raise AssertionError("a generator or worker was made")

    monkeypatch.setattr(mc, "chunk_rng", made)
    monkeypatch.setattr(mc.os, "fork", made)
    with pytest.raises(ArgumentError,
                       match=f"beyond the bound of {mc.MAX_STEPS} steps"):
        mc.simulate(_as_boards(proto_coeffs), proto, np.zeros(2), 0.0, 0.5,
                    mc.McConfig(paths=2 * mc.CHUNK, dt=dt, seed=0,
                                threads=2))


class _Poisoned:
    """A chunk generator whose normals are all NaN."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, size=None, out=None):
        got = self.rng.standard_normal(size, out=out)
        got[...] = np.nan
        return got


def _poison(monkeypatch, chunks):
    """Make the generators of the given chunks draw NaN normals."""
    chunk_rng = mc.chunk_rng
    monkeypatch.setattr(mc, "chunk_rng", lambda seed, ci: _Poisoned(
        chunk_rng(seed, ci)) if ci in chunks else chunk_rng(seed, ci))


@pytest.mark.parametrize("stepped", [False, True])
def test_lowest_failing_chunk_is_raised(proto, proto_coeffs, monkeypatch,
                                        stepped):
    """With chunks 1 and 2 of 4 made non-finite, simulate raises the
    NonFinite of chunk 1 at 1, 2 and 3 workers, drawn (in the calling
    process alone) or stepped: at 2 workers chunk 2 runs in the calling
    process and chunk 1 in the forked one, so the error raised is the
    lowest-numbered chunk's, whichever worker fails first."""
    _poison(monkeypatch, (1, 2))
    coeffs = _as_boards(proto_coeffs) if stepped else proto_coeffs
    for threads in (1, 2, 3):
        cfg = mc.McConfig(paths=3 * mc.CHUNK + 5, dt=0.1 if stepped else None,
                          seed=0, threads=threads)
        with pytest.raises(NonFinite, match="in chunk 1$"):
            mc.simulate(coeffs, proto, np.zeros(2), 0.0, 0.2, cfg)


def _no_child_left():
    """True where this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_no_worker_is_left_after_a_run(proto, proto_coeffs, monkeypatch):
    """Every forked worker is reaped, at two workers over three stepped
    chunks, after a run that succeeds, a run whose chunks 1 and 2 fail
    and a run refused for its steps before any worker is made."""
    stepped = _as_boards(proto_coeffs)
    cfg = mc.McConfig(paths=2 * mc.CHUNK + 5, dt=0.1, seed=0, threads=2)
    mc.simulate(stepped, proto, np.zeros(2), 0.0, 0.2, cfg)
    assert _no_child_left()
    with monkeypatch.context() as m:
        _poison(m, (1, 2))
        with pytest.raises(NonFinite, match="in chunk 1$"):
            mc.simulate(stepped, proto, np.zeros(2), 0.0, 0.2, cfg)
    assert _no_child_left()
    with pytest.raises(ArgumentError, match="beyond the bound"):
        mc.simulate(stepped, proto, np.zeros(2), 0.0, 0.5,
                    replace(cfg, dt=1e-300))
    assert _no_child_left()


class _Dying:
    """A chunk generator that ends its forked worker's process with exit
    status 3 at its first draw, before the worker reports."""

    def __init__(self, caller):
        self.caller = caller

    def standard_normal(self, size=None, out=None):
        assert os.getpid() != self.caller, "a forked chunk ran in the caller"
        os._exit(3)


@pytest.mark.parametrize("threads", [2, 3])
def test_a_worker_that_dies_is_an_error(proto, proto_coeffs, monkeypatch,
                                        threads):
    """A worker that ends without a report makes simulate raise an error
    that names it, never an ensemble with chunk 1's zeros: chunk 1 runs on
    forked worker 1 at 2 and at 3 workers, which is reaped too."""
    chunk_rng, caller = mc.chunk_rng, os.getpid()
    monkeypatch.setattr(mc, "chunk_rng", lambda seed, ci: _Dying(caller)
                        if ci == 1 else chunk_rng(seed, ci))
    cfg = mc.McConfig(paths=2 * mc.CHUNK + 5, dt=0.1, seed=0,
                      threads=threads)
    with pytest.raises(RuntimeError, match="worker 1 ended without a "
                                           "report"):
        mc.simulate(_as_boards(proto_coeffs), proto, np.zeros(2), 0.0, 0.2,
                    cfg)
    assert _no_child_left()


def test_workers_need_fork(monkeypatch):
    """Where os.fork does not exist, more than one worker is refused with
    an ArgumentError (exit 2), not run in serial; one worker needs no
    fork."""
    monkeypatch.delattr(os, "fork")
    assert mc.McConfig(paths=10, seed=0).threads == 1
    with pytest.raises(ArgumentError, match="threads = 2: needs os.fork"):
        mc.McConfig(paths=10, seed=0, threads=2)


def test_moments_match_kernel(proto, proto_coeffs):
    x0 = np.array([0.3, -0.1])
    tau = 0.4
    cfg = mc.McConfig(paths=200_000, seed=5, lam=2.0)
    ens = mc.simulate(proto_coeffs, proto, x0, 0.0, tau, cfg)
    mean_exact = proto.exp_drift(tau) @ x0
    cov_exact = 2.0 * kern.covariance_matrix(tau, proto.B, np.eye(1))
    z = (ens.weighted_mean() - mean_exact) / mean_se(ens)
    assert np.all(np.abs(z) < 4.0)
    assert np.allclose(weighted_cov(ens), cov_exact, rtol=0.02)


def test_determinism_and_thread_independence(proto, proto_coeffs):
    """Repeats and worker counts give bitwise the same ensemble of 4
    chunks, drawn from the exact law (constant A0, in the calling process
    alone) or stepped (the rough benchmark's layout): at 3 workers the
    calling process runs chunks 0 and 3 and two forked ones the others."""
    x0 = np.zeros(2)
    for coeffs, scheme, dt in ((proto_coeffs, "exact", None),
                               (_benchmark_rough_coeffs(2), "euler", 5e-3)):
        a, *rest = [mc.simulate(coeffs, proto, x0, 0.0, 0.2,
                               mc.McConfig(paths=50_000, dt=dt, seed=17,
                                           threads=threads))
                   for threads in (1, 1, 2, 3, 4)]
        assert a.provenance["scheme"] == scheme
        assert a.provenance["nchunks"] == 4
        for other in rest:
            assert np.array_equal(a.final, other.final)
            assert np.array_equal(a.weights, other.weights)


def test_provenance_names_the_chunk_stream(proto, proto_coeffs):
    """The provenance's "rng" is the bit generator a chunk's noise is drawn
    from, the one chunk_rng builds, beside the scheme with its step count
    and step: "exact" in one step of t1 - t0 for held coefficients,
    "euler" for a checkerboard; and two chunks of one seed draw different
    streams."""
    cfg = mc.McConfig(paths=mc.CHUNK + 10, seed=7)
    rng = mc.chunk_rng(cfg.seed, 0)
    for coeffs, dt, scheme, nsteps in (
            (proto_coeffs, None, "exact", 1),
            (_as_boards(proto_coeffs), 5e-2, "euler", 2)):
        ens = mc.simulate(coeffs, proto, np.zeros(2), 0.0, 0.1,
                          replace(cfg, dt=dt))
        assert ens.provenance["rng"] == type(rng.bit_generator).__name__ \
            == "SFC64"
        assert ens.provenance["scheme"] == scheme
        assert ens.provenance["nsteps"] == nsteps
        assert ens.provenance["dt"] == 0.1 / nsteps
        assert ens.provenance["nchunks"] == 2
    assert not np.array_equal(rng.standard_normal(8),
                              mc.chunk_rng(cfg.seed, 1).standard_normal(8))


def test_feynman_kac_weights(proto, proto_coeffs):
    coeffs = dict(proto_coeffs)
    coeffs["c"] = ConstantField(np.array(-0.5), dim=2)
    cfg = mc.McConfig(paths=1000, seed=0)
    ens = mc.simulate(coeffs, proto, np.zeros(2), 0.0, 0.3, cfg)
    # constant c: deterministic weight exp(c * tau)
    assert np.allclose(ens.weights, np.exp(-0.5 * 0.3), rtol=1e-12)


def test_not_spd_diffusion(proto):
    coeffs = {"A0": ConstantField(np.array([[-1.0]]), dim=2)}
    cfg = mc.McConfig(paths=100, seed=0)
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
    cfg = mc.McConfig(paths=2000, seed=0)
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
    cfg = mc.McConfig(paths=100_000, seed=2)
    ens = mc.simulate(proto_coeffs, proto, np.zeros(2), 0.0, 0.3, cfg)
    d = mc.density_estimate(ens, [(-3, 3), (-1.5, 1.5)], [30, 30])
    total = d["density"].sum() * d["bin_volume"]
    assert abs(total - 1.0) < 0.01
    assert np.all(d["se"][d["density"] > 0] > 0.0)


def test_mass_in_DR_matches_gaussian_oracle(proto, proto_coeffs):
    tau = 0.3
    cfg = mc.McConfig(paths=100_000, seed=9)
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
    m = measure_DR(np.array([0.2, -0.1]), tau, R, proto, n=400_000,
                      seed=4)
    exact = tau ** (proto.structure.Q / 2.0) * R ** 2 * np.pi
    assert abs(m["measure"] - exact) < 4.0 * m["se"]


def test_measure_scaling_slope(proto):
    res = measure_scaling_slope(np.array([0.2, 0.1]), 1.0, proto,
                                   taus=[0.05, 0.1, 0.2, 0.4, 0.8],
                                   n=100_000, seed=3)
    assert abs(res["slope"] - proto.structure.Q / 2.0) < 0.05
