"""Monte Carlo simulation of the degenerate diffusion attached to the
operator: dX = (-B X + b(X, t)) dt + sigma(X, t) dW with noise acting on the
first m0 coordinates only, sigma sigma^T = lam A0, and Feynman-Kac weights
exp(int c dt).

Paths run in fixed-size chunks, each stepped in place as a column-major
(N, n) state, one contiguous row per coordinate, in buffers allocated once
per chunk; the fields see the (n, N) row view X.T.  Checkerboard fields
are read as tables: each step works out the state's cells once per cell
side, and every checkerboard of that side indexes its table through them.
A checkerboard A0's table holds the factors of its values, made once per
call.  Each chunk draws from its own child stream of the master seed, so
the ensemble and every CSV and report made from it are byte-identical at
any number of worker threads.  Every chunk runs in a copy of the caller's
context, so the caller's np.errstate reaches the worker threads.
"""

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CellLookup, CheckerboardField
from .errors import ArgumentError, NonFinite, NotSPD
from .group import Geometry

CHUNK = 1 << 14


@dataclass(frozen=True)
class McConfig:
    paths: int
    dt: float
    seed: int
    lam: float = 2.0
    threads: int = 1
    scheme: str = "euler"

    def __post_init__(self):
        if self.scheme != "euler":
            raise ArgumentError(f"unknown scheme {self.scheme!r}")
        if self.paths <= 0 or self.dt <= 0.0 or self.lam <= 0.0:
            raise ArgumentError("paths, dt and lam must be positive")
        if self.threads < 1:
            raise ArgumentError("threads must be positive")


@dataclass
class PathEnsemble:
    """Terminal states of the simulated paths with Feynman-Kac weights."""

    final: np.ndarray      # (paths, N)
    weights: np.ndarray    # (paths,)
    t0: float
    t1: float
    x0: np.ndarray
    config: McConfig
    provenance: dict = field(default_factory=dict)

    @property
    def paths(self):
        return self.final.shape[0]

    def weighted_mean(self):
        return np.average(self.final, axis=0, weights=self.weights)

    def weighted_cov(self):
        mu = self.weighted_mean()
        d = self.final - mu
        w = self.weights / self.weights.sum()
        return (d.T * w) @ d

    def mean_se(self):
        """Per-coordinate standard error of the weighted mean."""
        mu = self.weighted_mean()
        w = self.weights / self.weights.sum()
        var = ((self.final - mu) ** 2 * w[:, None]).sum(axis=0)
        neff = 1.0 / np.sum(w ** 2)
        return np.sqrt(var / neff)


def _sigma_chunk(A0_vals, lam):
    """Cholesky factors of lam * A0 for a chunk of states.

    Column by column, vectorised over the chunk: one sqrt per column, so for
    m0 = 1 the factor is sqrt(lam * A0), bitwise what LAPACK returns.  A
    pivot that is not > 0 (NaN included) raises NotSPD.
    """
    A = lam * np.atleast_3d(A0_vals)
    m = A.shape[-1]
    L = np.zeros_like(A)
    for j in range(m):
        # column j from the diagonal down, less the finished columns; at
        # j = 0 there are none and the pivots are lam * A0 untouched
        col = A[:, j:, j]
        if j:
            col = col - np.einsum("kil,kl->ki", L[:, j:, :j], L[:, j, :j])
        piv = col[:, 0]
        bad = ~(piv > 0.0)
        if bad.any():
            raise NotSPD(f"diffusion matrix lam * A0 not SPD: "
                         f"pivot {j} is {float(piv[bad][0])!r}")
        d = np.sqrt(piv)
        L[:, j, j] = d
        L[:, j + 1:, j] = col[:, 1:] / d[:, None]
    return L


def simulate(coeffs, geometry: Geometry, x0, t0, t1, config: McConfig):
    """Euler-Maruyama from the deterministic point x0 at time t0 to t1."""
    if not t1 > t0:
        raise ArgumentError(f"t1 must exceed t0, got t0={t0!r}, t1={t1!r}")
    N = geometry.N
    m0 = geometry.structure.m0
    B = geometry.B
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (N,))
    nsteps = max(1, int(round((t1 - t0) / config.dt)))
    dt = (t1 - t0) / nsteps
    sqdt = np.sqrt(dt)

    A0f = coeffs.get("A0")
    bf = coeffs.get("b")
    cf = coeffs.get("c")
    if A0f is None:
        raise ArgumentError("the coefficients need A0")
    const_sigma = None
    if getattr(A0f, "value", None) is not None:
        const_sigma = _sigma_chunk(np.atleast_2d(A0f.value)[None],
                                   config.lam)[0]
        # contiguous, so the per-step product need not walk a transposed view
        sigma_T = np.ascontiguousarray(const_sigma.T)
    # A checkerboard is read as a table indexed through the step's cell
    # lookup of its side h, one lookup per side shared by the fields: A0's
    # table holds the factors of its values, so a non-SPD value is refused
    # before any path is stepped; c's holds dt * c.
    tables = {}
    if isinstance(A0f, CheckerboardField):
        tables["A0"] = _sigma_chunk(
            np.reshape(A0f.values, (-1, m0, m0)), config.lam)
    if isinstance(bf, CheckerboardField):
        tables["b"] = np.reshape(bf.values, (-1, m0))
    if isinstance(cf, CheckerboardField):
        tables["c"] = dt * np.reshape(cf.values, (-1,))
    sides = {coeffs[k].h for k in tables}

    def read(name, cells):
        f = coeffs[name]
        return np.take(tables[name], f.index(cells[f.h]), axis=0)

    nchunks = -(-config.paths // CHUNK)
    final = np.empty((config.paths, N))
    logw = np.zeros(config.paths)

    def run_chunk(ci):
        lo = ci * CHUNK
        hi = min(lo + CHUNK, config.paths)
        n = hi - lo
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(ci,)))
        X = np.repeat(x0[:, None], n, axis=1)
        D = np.empty_like(X)
        dW = np.empty((n, m0))
        lw = np.zeros(n)
        t = t0
        for _ in range(nsteps):
            rng.standard_normal(out=dW)
            dW *= sqdt
            cells = {h: CellLookup(X.T, t, h) for h in sides}
            # (-B X + b) dt as (B X - b) * -dt, in place: negation is exact
            np.matmul(B, X, out=D)
            if "b" in tables:
                D[:m0] -= read("b", cells).T
            elif bf is not None:
                D[:m0] -= np.reshape(bf.many(X.T, t), (n, m0)).T
            D *= -dt
            if "A0" in tables:
                noise = np.einsum("kij,kj->ki", read("A0", cells), dW)
            elif const_sigma is None:
                sig = _sigma_chunk(
                    np.reshape(A0f.many(X.T, t), (n, m0, m0)), config.lam)
                noise = np.einsum("kij,kj->ki", sig, dW)
            elif m0 == 1:
                # the product dW @ sigma_T forms, in place: numpy's matmul
                # takes over ten times as long on (n, 1) @ (1, 1)
                noise = np.multiply(dW, const_sigma[0, 0], out=dW)
            else:
                noise = dW @ sigma_T
            if "c" in tables:
                lw += read("c", cells)
            elif cf is not None:
                lw += dt * np.asarray(cf.many(X.T, t)).reshape(n)
            X[:m0] += noise.T
            X += D
            t += dt
        if not np.all(np.isfinite(X)):
            raise NonFinite("non-finite state in Euler-Maruyama chunk")
        final[lo:hi] = X.T
        logw[lo:hi] = lw

    # one copy per chunk: a context is entered by one thread at a time
    contexts = [contextvars.copy_context() for _ in range(nchunks)]
    with ThreadPoolExecutor(max_workers=config.threads) as ex:
        list(ex.map(lambda ctx, ci: ctx.run(run_chunk, ci), contexts,
                    range(nchunks)))

    weights = np.exp(logw)
    prov = {"seed": config.seed, "chunk": CHUNK, "nchunks": nchunks,
            "nsteps": nsteps, "dt": dt, "lam": config.lam,
            "scheme": config.scheme}
    return PathEnsemble(final=final, weights=weights, t0=t0, t1=t1,
                        x0=np.array(x0), config=config, provenance=prov)


def density_estimate(ensemble: PathEnsemble, box, bins):
    """Weighted histogram density on the box with per-bin standard errors."""
    box = np.asarray(box, dtype=float)
    N = ensemble.final.shape[1]
    if np.isscalar(bins):
        bins = [int(bins)] * N
    edges = [np.linspace(lo, hi, b + 1) for (lo, hi), b in zip(box, bins)]
    vol = np.prod([e[1] - e[0] for e in edges])
    n = ensemble.paths
    w = ensemble.weights
    hist, _ = np.histogramdd(ensemble.final, bins=edges, weights=w)
    hist2, _ = np.histogramdd(ensemble.final, bins=edges, weights=w * w)
    dens = hist / (n * vol)
    # SE of (1/n) sum w_k 1_bin per unit volume
    var = (hist2 / n - (hist / n) ** 2) / n
    se = np.sqrt(np.maximum(var, 0.0)) / vol
    return {"edges": edges, "density": dens, "se": se, "bin_volume": vol}


def standardized_offset(Y, y, tau, geometry: Geometry):
    """u = delta^0_{1/sqrt(tau)} (y - e^{tau B} Y) for rows Y."""
    E = geometry.exp_drift(-tau)          # e^{tau B}
    d = np.atleast_1d(y)[None, :] - np.atleast_2d(Y) @ E.T
    alpha = np.asarray(geometry.structure.alpha, dtype=float)
    return d / np.sqrt(tau) ** alpha


def mass_in_DR(ensemble: PathEnsemble, y, R, geometry: Geometry):
    """Weighted fraction of paths landing in D_R(y, tau), tau = t1 - t0 the
    ensemble's elapsed time: the set where the standardized offset has
    Euclidean norm at most R."""
    tau = ensemble.t1 - ensemble.t0
    u = standardized_offset(ensemble.final, y, tau, geometry)
    inside = np.sum(u * u, axis=1) <= R * R
    w = ensemble.weights
    frac = float(np.sum(w[inside]) / ensemble.paths)
    se = float(np.std(w * inside) / np.sqrt(ensemble.paths))
    return {"mass": frac, "se": se, "tau": tau, "R": R,
            "count": int(np.count_nonzero(inside))}


def measure_DR(y, tau, R, geometry: Geometry, n=200000, seed=0):
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
    u = standardized_offset(pts, y, tau, geometry)
    frac = np.mean(np.sum(u * u, axis=1) <= R * R)
    box_vol = float(np.prod(hi - lo))
    meas = box_vol * float(frac)
    se = box_vol * float(np.sqrt(frac * (1.0 - frac) / n))
    return {"measure": meas, "se": se, "box_volume": box_vol}


def measure_scaling_slope(y, R, geometry: Geometry, taus, n=200000, seed=0):
    """Least-squares slope of log measure(D_R) against log tau; the graded
    dilations make the exact value Q/2."""
    logs = []
    for k, tau in enumerate(taus):
        m = measure_DR(y, tau, R, geometry, n=n, seed=seed + k)
        logs.append(np.log(m["measure"]))
    slope = np.polyfit(np.log(np.asarray(taus, dtype=float)), logs, 1)[0]
    return {"slope": float(slope), "taus": list(taus), "log_measures": logs}
