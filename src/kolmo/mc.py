"""Monte Carlo simulation of the degenerate diffusion attached to the
operator: dX = (-B X + b(X, t)) dt + sigma(X, t) dW with noise acting on the
first m0 coordinates only, sigma sigma^T = lam A0, and Feynman-Kac weights
exp(int c dt).

An ensemble is made one of two ways, named in the provenance under
"scheme".  Where every coefficient present is held (a constant), each end
state is drawn from the diffusion's exact Gaussian law ("exact"), N
normals per path, with weight exp(tau c), tau = t1 - t0; no time step is
read, and a given one is refused.  Any other ensemble is stepped by the
Euler-Maruyama chain ("euler") at the step dt, DT unless given, at most
MAX_STEPS steps: m0 normals per path and step.

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

Both ways run in the same chunks, and each chunk draws its normals from
its own stream, made by chunk_rng alone: an SFC64 generator on the child
of the master seed's SeedSequence keyed by the chunk's index.  A stepped
ensemble's chunks are spread over min(threads, chunks) workers, the
calling process and processes made by the POSIX os.fork (an exact draw
runs in the caller alone).  Worker w runs chunks w, w + workers, and so
on into end states and log-weights held in one anonymous shared mmap, and
stops at the first that fails; a forked one pipes back None or its
(chunk, error) and leaves by os._exit.  A worker that leaves without a
report is an error, else the lowest-numbered failing chunk's error is
raised.  So the ensemble, every CSV and report made from it and the error
a run ends in are the same at any number of workers, and the provenance
names the bit generator under "rng".  simulate runs under
np.errstate(over="ignore", invalid="ignore"), which a forked worker
inherits, so an overflow ends in NonFinite alone, with no numpy warning.
CPython >= 3.12 warns on a fork from a process with other threads, such
as an OpenBLAS pool.
"""

import mmap
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CellLookup, CheckerboardField, TableStack
from .errors import ArgumentError, NonFinite, NotSPD
from .group import Geometry
from .structure import covariance_matrix

CHUNK = 1 << 14
DT = 1e-3      # the stepped chain's step when none is given
# The most steps a stepped ensemble may take: a step of one chunk takes
# about 0.5 ms in the rough benchmark's layout on a 2-core Xeon, so 10^6
# steps take 8 minutes a chunk.  A dt past it is refused before any buffer.
MAX_STEPS = 10 ** 6
# The most bytes of end states and log-weights an ensemble may hold,
# paths * (N + 1) * 8, 1 GiB: README's 10^6 paths on N = 2 hold 24 MB.  More
# paths are refused before any buffer, generator or worker.
MAX_ENSEMBLE_BYTES = 2 ** 30
# The most path-steps (paths * steps) a stepped ensemble may take: one
# path-step of the rough benchmark's layout takes about 24 ns on one thread
# of a 2-core Xeon (a 16384-path, 500-step chunk in 0.2 s), so 10^11 take
# about 40 minutes.  A path-step reads each mollified field at every node
# of its quadrature, and counts as that many (Field.reads, summed over the
# mollified fields): on N = 2, 16^3 = 4096, where one such path-step took
# 73 us, less than 4096 * 24 ns.  More are refused before any buffer.
MAX_PATH_STEPS = 10 ** 11
# The most workers a run may ask for.  A worker takes whole chunks of
# CHUNK paths, so past the machine's cores more workers only wait.
MAX_THREADS = 64


@dataclass(frozen=True)
class McConfig:
    paths: int
    seed: int
    dt: float | None = None    # the stepped chain's step; None for DT
    lam: float = 2.0
    threads: int = 1

    def __post_init__(self):
        if self.paths <= 0 or not ((self.dt is None or self.dt > 0.0)
                                   and self.lam > 0.0):
            raise ArgumentError("paths, dt and lam must be positive")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ArgumentError(f"threads = {self.threads}: must be positive "
                                f"and at most the bound {MAX_THREADS}")
        if self.threads > 1 and not hasattr(os, "fork"):
            raise ArgumentError(f"threads = {self.threads}: needs os.fork")


@dataclass
class PathEnsemble:
    """Terminal states of the simulated paths with Feynman-Kac weights."""

    final: np.ndarray      # (paths, N)
    weights: np.ndarray    # (paths,)
    t0: float
    t1: float
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
    other and of the worker that runs each."""
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(entropy=seed, spawn_key=(ci,))))


def _exact_law(held, A0, geometry: Geometry, x0, tau, lam):
    """mu, R and the log-weight tau c (held["c"] at dt = tau) of the end
    state's law N(mu, R R^T) after tau from x0 with every coefficient held:
    mu = e^{-tau B} x0 + sum_{k<N} (-B)^k tau^{k+1} / (k+1)! b, exact as
    B^N = 0, and R = delta_sqrt(tau) R1 with R1 the factor of
    lam C_{A0}(1) (structure.covariance_matrix), since B is canonical and
    C_{A0}(tau) = delta_sqrt(tau) C_{A0}(1) delta_sqrt(tau): R keeps full
    precision at every tau.  A mean or lam C_{A0}(1) that is not finite
    raises NonFinite, one with no Cholesky factor NotSPD."""
    N, m0, B = geometry.N, geometry.structure.m0, geometry.B
    mu = geometry.exp_drift(tau) @ x0
    term = np.zeros(N)
    term[:m0] = tau * held["b"][:, 0] if "b" in held else 0.0
    for k in range(N):
        mu = mu + term
        term = -tau / (k + 2) * (B @ term)
    C1 = covariance_matrix(1.0, B, np.reshape(A0, (m0, m0)))
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(lam * C1))):
        raise NonFinite("non-finite state in the exact law")
    R1 = _sigma_chunk(C1[None], lam)[0]
    R = geometry.dilate_space(np.sqrt(tau), R1.T).T
    return mu, R, held["c"][0] if "c" in held else 0.0


@np.errstate(over="ignore", invalid="ignore")
def simulate(coeffs, geometry: Geometry, x0, t0, t1, config: McConfig):
    """The ensemble of paths from the point x0 at t0 to t1 > t0, under
    coefficients that hold A0 (else ArgumentError): drawn from the exact law
    in one step of dt = t1 - t0 where every coefficient is held (a given
    config.dt is then an ArgumentError), else stepped at config.dt, DT if
    unset (more than MAX_STEPS steps or MAX_PATH_STEPS path-steps, or end
    states and weights past MAX_ENSEMBLE_BYTES, are an ArgumentError,
    before any buffer).  The provenance records nsteps and dt.  A
    non-finite state, law or sum of squared weights raises NonFinite."""
    if not t1 > t0:
        raise ArgumentError(f"t1 must exceed t0, got t0={t0!r}, t1={t1!r}")
    fields = {k: coeffs[k] for k in ("A0", "b", "c")
              if coeffs.get(k) is not None}
    if "A0" not in fields:
        raise ArgumentError("the coefficients need A0")
    N = geometry.N
    m0 = geometry.structure.m0
    B = geometry.B
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (N,))
    exact = all(getattr(f, "value", None) is not None
                for f in fields.values())
    if exact and config.dt is not None:
        raise ArgumentError(f"dt {config.dt!r} is not read: every "
                            f"coefficient is held, and the law is exact")
    # as Python floats, whose overflow is inf without a numpy warning
    steps = 1.0 if exact else float(t1 - t0) / float(config.dt or DT)
    if not steps <= MAX_STEPS:
        raise ArgumentError(f"dt {config.dt or DT!r} makes {steps!r} steps "
                            f"from t0 = {t0!r} to t1 = {t1!r}, beyond the "
                            f"bound of {MAX_STEPS} steps")
    held_bytes = 8 * config.paths * (N + 1)
    if held_bytes > MAX_ENSEMBLE_BYTES:
        raise ArgumentError(f"paths = {config.paths}: the end states and "
                            f"weights take {held_bytes:.3e} bytes, beyond "
                            f"the bound {MAX_ENSEMBLE_BYTES:.3e}")
    nsteps = max(1, int(round(steps)))
    weight = sum(f.reads for f in fields.values() if f.reads > 1) or 1
    if config.paths * nsteps * weight > MAX_PATH_STEPS:
        each = f", each counted {weight} times," if weight > 1 else ""
        raise ArgumentError(f"paths = {config.paths} over {nsteps} steps"
                            f"{each} make {config.paths * nsteps * weight:.3e}"
                            f" path-steps, beyond the bound "
                            f"{MAX_PATH_STEPS:.3e}")
    dt = (t1 - t0) / nsteps
    sqdt = np.sqrt(dt)

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
    for name, f in fields.items():
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
    # end states, then log-weights (zeros), in memory every worker shares
    shared = np.frombuffer(mmap.mmap(-1, held_bytes))
    final, logw = shared[:-config.paths].reshape(-1, N), shared[-config.paths:]
    rngs = [chunk_rng(config.seed, ci) for ci in range(nchunks)]
    law = _exact_law(held, fields["A0"].value, geometry, x0, dt,
                     config.lam) if exact else None

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
        Y, lw = (draw if exact else step)(rngs[ci], hi - lo)
        if not np.all(np.isfinite(Y)):
            raise NonFinite(f"non-finite state in chunk {ci}")
        final[lo:hi] = Y
        logw[lo:hi] = lw

    workers = 1 if exact else min(config.threads, nchunks)

    def work(w):
        # worker w's chunks in turn; its first failing (chunk, error) or None
        for ci in range(w, nchunks, workers):
            try:
                run_chunk(ci)
            except Exception as e:
                return ci, e

    pids, reports = [], []     # forked workers; their report pipes' read ends
    try:
        for w in range(1, workers):
            r, wr = os.pipe()
            reports.append(open(r, "rb"))
            with open(wr, "wb") as out:
                if (pid := os.fork()) == 0:
                    try:
                        out.write(pickle.dumps(work(w)))
                        out.flush()
                    finally:
                        os._exit(0)
            pids.append(pid)
        failed = [work(0)]
        for w, report in enumerate(reports, 1):
            if not (got := report.read()):
                raise RuntimeError(f"mc worker {w} ended without a report")
            failed.append(pickle.loads(got))
    finally:
        for report in reports:
            report.close()
        for pid in pids:
            os.waitpid(pid, 0)
    errors = [f for f in failed if f is not None]
    if errors:
        raise min(errors, key=lambda f: f[0])[1]

    weights = np.exp(logw)
    # every estimate's weighted sums stay finite where sum w^2 does
    if not np.isfinite(weights @ weights):
        raise NonFinite("Feynman-Kac weights overflow: sum w^2 is not finite")
    prov = {"seed": config.seed, "chunk": CHUNK, "nchunks": nchunks,
            "nsteps": nsteps, "dt": dt, "lam": config.lam,
            "scheme": "exact" if exact else "euler",
            "rng": type(rngs[0].bit_generator).__name__}
    return PathEnsemble(final=final, weights=weights, t0=t0, t1=t1,
                        provenance=prov)


def density_estimate(ensemble: PathEnsemble, box, bins):
    """Weighted histogram density on the box, with bins[k] bins along
    axis k, and per-bin standard errors."""
    box = np.asarray(box, dtype=float)
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
    """u = delta^0_{1/sqrt(tau)} (y - e^{tau B} Y) for rows Y, the
    dilation from Geometry.dilate_space."""
    E = geometry.exp_drift(-tau)          # e^{tau B}
    d = np.atleast_1d(y)[None, :] - np.atleast_2d(Y) @ E.T
    return geometry.dilate_space(1.0 / np.sqrt(tau), d)


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
