"""Monte Carlo simulation of the degenerate diffusion attached to the
operator: dX = (-B X + b(X, t)) dt + sigma(X, t) dW with noise acting on the
first m0 coordinates only, sigma sigma^T = lam A0, and Feynman-Kac weights
exp(int c dt), by the Euler-Maruyama chain of step dt.

An ensemble is made one of two ways, and the provenance names which under
"draw".  Where every coefficient present is held (has a value: a
constant), the chain is a linear Gaussian recursion, and each path's end
state is drawn from its law N(mu, S), computed once per call by running
the recursion on the mean and covariance ("law"): N normals per path.
Its weight is the chain's own, exp of the float sum of dt * c over the
steps.  Any other ensemble is stepped ("steps"): m0 normals per path and
step.

Stepped paths run in fixed-size chunks, each stepped in place as a
column-major (N, n) state, one contiguous row per coordinate, in buffers
allocated once per chunk; the fields see the (n, N) row view X.T.  Each
step reads every coefficient as a (k, n) array of components (A0 as the
factor of lam * A0, b as it is, c as dt * c): a constant's is made once
per call as (k, 1), a checkerboard's is gathered from a table of its
values' components, made once per call, and any other field's is made
from its values at the state.  The checkerboards of one cell side share
one cell pass and one gather per step: their tables are stacked, and a
lookup per side hashes the cells for every board at once and takes all
their components into one buffer; it hashes the box of the state's cells
only on a step where the box is not the one of the step before, in the
rough benchmark's layout about one step in four.  The step then has one
drift update, one weight update and one noise product, an in-place
lower-triangular pass over the columns of dW.

Both draws run in the same chunks, and each chunk draws its normals from
its own stream, made by chunk_rng alone: an SFC64 generator on the child
of the master seed's SeedSequence keyed by the chunk's index.  So the
ensemble and every CSV and report made from it are byte-identical at any
number of worker threads, and the provenance names the bit generator
under "rng".  simulate runs under np.errstate(over="ignore",
invalid="ignore"), and every chunk in a copy of its context, so an
overflow on any thread ends in NonFinite alone, with no numpy warning.
"""

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CellLookup, CheckerboardField, TableStack
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

    def __post_init__(self):
        if self.paths <= 0 or not (self.dt > 0.0 and self.lam > 0.0):
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


def _sigma_chunk(A0_vals, lam):
    """Cholesky factors of lam * A0 for a chunk of (count, m0, m0) values.

    Column by column, vectorised over the chunk: one sqrt per column, so for
    m0 = 1 the factor is sqrt(lam * A0), bitwise what LAPACK returns.  A
    pivot that is not > 0 (NaN included) raises NotSPD.
    """
    A = lam * A0_vals
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


def chunk_rng(seed, ci):
    """The generator chunk ci of a run seeded with seed draws its noise
    from: SFC64, numpy's fastest bit generator, on the child ci of the
    seed's SeedSequence, so the chunks' streams are independent of each
    other and of the thread that runs each."""
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(entropy=seed, spawn_key=(ci,))))


def _euler_law(held, geometry: Geometry, x0, dt, nsteps, tau):
    """The law N(mu, S) of the Euler chain's end state after nsteps steps
    from x0 when every coefficient is held: X <- F X + g + Sigma Z, Z
    standard normal, with F = I - dt B, g = dt b on the first m0
    coordinates and Sigma = sqrt(dt) [L; 0], L the factor of lam * A0, so
    mu <- F mu + g and S <- F S F^T + Sigma Sigma^T.  Returns mu, a factor
    R with R R^T = S and the chain's log-weight, the float sum of dt c over
    the steps as the stepped loop adds it.  A mean or covariance that is
    not finite raises NonFinite.  R is taken from S scaled by the dilation
    sqrt(tau)^alpha, with its eigenvalues clipped at 0, so a chain shorter
    than its block count, whose S is singular, is factored too."""
    N, m0 = geometry.N, geometry.structure.m0
    F = np.eye(N) - dt * geometry.B
    g = np.zeros(N)
    if "b" in held:
        g[:m0] = dt * held["b"][:, 0]
    Sigma = np.zeros((N, m0))
    Sigma[:m0] = np.sqrt(dt) * held["A0"].reshape(m0, m0)
    Q = Sigma @ Sigma.T
    dc = held["c"][0] if "c" in held else 0.0
    mu, S, lw = np.array(x0), np.zeros((N, N)), np.zeros(1)
    for _ in range(nsteps):
        mu = F @ mu + g
        S = F @ S @ F.T + Q
        lw += dc
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(S))):
        raise NonFinite("non-finite state in the Euler chain's law")
    d = np.sqrt(tau) ** np.asarray(geometry.structure.alpha, dtype=float)
    w, V = np.linalg.eigh(S / np.outer(d, d))
    return mu, d[:, None] * V * np.sqrt(np.maximum(w, 0.0)), lw


@np.errstate(over="ignore", invalid="ignore")
def simulate(coeffs, geometry: Geometry, x0, t0, t1, config: McConfig):
    """Euler-Maruyama from the deterministic point x0 at time t0 to t1; t1
    must exceed t0 and (t1 - t0) / dt be finite, else ArgumentError.  With
    every coefficient present held, each end state is drawn from the
    chain's law (provenance "draw": "law"); with any checkerboard or other
    field the chain is stepped ("draw": "steps").  Either way the law is
    the Euler chain's at the step dt.  A state, a mean or covariance of the
    law, or a sum of squared weights that is not finite raises
    NonFinite."""
    if not t1 > t0:
        raise ArgumentError(f"t1 must exceed t0, got t0={t0!r}, t1={t1!r}")
    N = geometry.N
    m0 = geometry.structure.m0
    B = geometry.B
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (N,))
    steps = (t1 - t0) / config.dt
    if not np.isfinite(steps):
        raise ArgumentError(f"dt {config.dt!r} makes {steps!r} steps from "
                            f"t0 = {t0!r} to t1 = {t1!r}")
    nsteps = max(1, int(round(steps)))
    dt = (t1 - t0) / nsteps
    sqdt = np.sqrt(dt)
    if coeffs.get("A0") is None:
        raise ArgumentError("the coefficients need A0")

    def components(name, vals):
        """(count, k) components of count values of coefficient name."""
        if name == "A0":
            L = _sigma_chunk(np.reshape(vals, (-1, m0, m0)), config.lam)
            return L.reshape(-1, m0 * m0)
        if name == "b":
            return np.reshape(vals, (-1, m0))
        return dt * np.reshape(vals, (-1, 1))

    # Each field is held (a constant), a table (a checkerboard: so a
    # non-SPD A0 value is refused before any path is stepped, even one no
    # path reaches) or other, read by many at every step; the tables are
    # grouped by cell side.
    held, tables, other, sides = {}, {}, [], {}
    for name in ("A0", "b", "c"):
        f = coeffs.get(name)
        if f is None:
            continue
        if getattr(f, "value", None) is not None:
            held[name] = components(name, f.value).T
        elif isinstance(f, CheckerboardField):
            tables[name] = components(name, f.values)
            sides.setdefault(f.h, []).append(name)
        else:
            other.append(name)
    stacks = {h: TableStack([coeffs[k].seed for k in names],
                            [tables[k] for k in names])
              for h, names in sides.items()}

    nchunks = -(-config.paths // CHUNK)
    final = np.empty((config.paths, N))
    logw = np.zeros(config.paths)
    rngs = [chunk_rng(config.seed, ci) for ci in range(nchunks)]
    # with every coefficient held the chain is a linear Gaussian recursion:
    # each chunk draws its end states from the chain's law
    law = None if tables or other else _euler_law(held, geometry, x0, dt,
                                                  nsteps, t1 - t0)

    def draw(rng, n):
        mu, R, lw = law
        Y = rng.standard_normal((n, N)) @ R.T
        Y += mu
        return Y, lw

    def step(rng, n):
        X = np.repeat(x0[:, None], n, axis=1)
        D = np.empty_like(X)
        dW = np.empty((n, m0))
        lw = np.zeros(n)
        t = t0
        # per cell side, the lookup moved to each step's state and the
        # buffer its gather fills; each board reads its rows of the buffer
        cells = {h: CellLookup(X.T, t, h) for h in stacks}
        got = {h: np.empty((s.k, n)) for h, s in stacks.items()}
        read = dict(held)
        read.update({name: got[h][stacks[h].bounds[j]]
                     for h, names in sides.items()
                     for j, name in enumerate(names)})
        for _ in range(nsteps):
            rng.standard_normal(out=dW)
            dW *= sqdt
            for h, lookup in cells.items():
                lookup.move(X.T, t)
                lookup.read(stacks[h], out=got[h])
            for name in other:
                read[name] = components(name, coeffs[name].many(X.T, t)).T
            # (-B X + b) dt as (B X - b) * -dt, in place: negation is exact
            np.matmul(B, X, out=D)
            if "b" in read:
                D[:m0] -= read["b"]
            D *= -dt
            # noise L dW, L the factor of lam * A0, in place from the last
            # column down, so each reads the columns before it untouched;
            # for m0 = 1 a plain product
            L = read["A0"]
            for i in reversed(range(m0)):
                dW[:, i] *= L[i * m0 + i]
                for j in range(i):
                    dW[:, i] += L[i * m0 + j] * dW[:, j]
            if "c" in read:
                lw += read["c"][0]
            X[:m0] += dW.T
            X += D
            t += dt
        return X.T, lw

    def run_chunk(ci):
        lo = ci * CHUNK
        hi = min(lo + CHUNK, config.paths)
        Y, lw = (step if law is None else draw)(rngs[ci], hi - lo)
        if not np.all(np.isfinite(Y)):
            raise NonFinite("non-finite state in Euler-Maruyama chunk")
        final[lo:hi] = Y
        logw[lo:hi] = lw

    # one copy per chunk: a context is entered by one thread at a time
    contexts = [contextvars.copy_context() for _ in range(nchunks)]
    with ThreadPoolExecutor(max_workers=config.threads) as ex:
        list(ex.map(lambda ctx, ci: ctx.run(run_chunk, ci), contexts,
                    range(nchunks)))

    weights = np.exp(logw)
    # every estimate's weighted sums stay finite where sum w^2 does
    if not np.isfinite(weights @ weights):
        raise NonFinite("Feynman-Kac weights overflow: sum w^2 is not finite")
    prov = {"seed": config.seed, "chunk": CHUNK, "nchunks": nchunks,
            "nsteps": nsteps, "dt": dt, "lam": config.lam,
            "scheme": "euler", "draw": "steps" if law is None else "law",
            "rng": type(rngs[0].bit_generator).__name__}
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
