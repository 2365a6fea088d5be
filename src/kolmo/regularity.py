"""Regularity of a coefficient field: its mollification and its sampled
moduli of continuity.

Only `kolmo mollify`, a spec with a mollified field and the benchmark's
moduli step load this module; kolmo.coefficients forwards its public names
for the benchmark, which reads them there.
"""

import numpy as np

from .coefficients import Field
from .errors import ArgumentError, WindowUnderflow
from .group import grid

# -- mollification ----------------------------------------------------------

MOLLIFY_NODES = 16         # Gauss-Legendre nodes per axis of the mollifier
MOLLIFY_CHUNK = 256        # points per inner-field batch in MollifiedField.many
# The most plain reads a `kolmo mollify` run may make, samples * eps values
# * MOLLIFY_NODES^(N+1) * the field's own reads (Field.reads: 1, but a
# mollified field's read is MOLLIFY_NODES^(N+1) reads of its inner field):
# a read of a checkerboard takes 50-90 ns on one thread of a 2-core Xeon (a
# constant's 13-21 ns) at N = 2, 3 and 4, so 10^9 reads take up to a
# minute and a half.  The default 2000 samples at 3 eps values make 3.9e8
# reads at N = 3 and 6.3e9 at N = 4, and 1.0e11 on a mollified field at
# N = 2.
MAX_MOLLIFY_READS = 10 ** 9


def _bump(r2):
    """exp(-1/(1-r2)) where r2 < 1, 0 elsewhere: the unnormalized bump at
    squared radius r2."""
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


class MollifiedField(Field):
    """(x,t) -> integral of f(x - y, (1-eps) t + tau) psi_eps(y) rho_eps(tau),
    psi_eps the radial bump on |y| < eps and rho_eps the bump on
    eps*(T/4, 3T/4), each of unit mass.

    Tensor Gauss-Legendre over the bump supports: nodes u in (-1, 1)^dim and
    g in (-1, 1) sit at y = eps u and tau = eps T (1/2 + g/4).  A bump
    scaled onto its support weighs each node by its unscaled shape,
    exp(-1/(1-|u|^2)) and exp(-1/(1-g^2)), times the Gauss weight; the
    scale factors and the bumps' masses cancel in the renormalization, so
    the weights depend on neither eps nor T.  The quadrature is cached at
    construction and read-only afterwards.
    """

    def __init__(self, f: Field, eps, T):
        super().__init__(f.dim, f.shape, f.window)
        self.f = f
        self.reads = MOLLIFY_NODES ** (f.dim + 1) * f.reads
        self.eps = float(eps)
        self.T = float(T)
        g, w = np.polynomial.legendre.leggauss(MOLLIFY_NODES)
        U, W = (grid([v] * f.dim) for v in (g, w))
        WY = W.prod(axis=1) * _bump(np.sum(U * U, axis=1))
        WT = w * _bump(g * g)
        self._Y = self.eps * U
        self._TAU = self.eps * self.T * (0.5 + 0.25 * g)
        # renormalize the discrete masses to 1 so that constants are fixed
        # and sup bounds preserved, both up to a few ulps of rounding
        self._WY = WY / WY.sum()
        self._WT = WT / WT.sum()

    def _check_window(self, ts):
        lo, hi = self.window
        tshift = (1.0 - self.eps) * np.asarray(ts, dtype=float)
        if (np.min(tshift) + self._TAU.min() < lo
                or np.max(tshift) + self._TAU.max() > hi):
            raise WindowUnderflow(
                f"mollified evaluation needs samples outside window ({lo}, {hi})")

    def __call__(self, x, t):
        return self.many(np.atleast_1d(x)[None, :], t)[0]

    def many(self, X, ts):
        """Batched evaluation: one inner-field batch per (chunk, tau) pair."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (X.shape[0],))
        self._check_window(ts)
        out = np.zeros((X.shape[0],) + self.shape)
        nq = self._Y.shape[0]
        for lo in range(0, X.shape[0], MOLLIFY_CHUNK):
            hi = min(lo + MOLLIFY_CHUNK, X.shape[0])
            Xc, tc = X[lo:hi], ts[lo:hi]
            pts = (Xc[:, None, :] - self._Y[None, :, :]).reshape(-1, self.dim)
            for tau, wt in zip(self._TAU, self._WT):
                vals = self.f.many(pts, np.repeat((1.0 - self.eps) * tc + tau, nq))
                vals = vals.reshape((hi - lo, nq) + self.shape)
                out[lo:hi] += wt * np.einsum("pq...,q->p...", vals, self._WY)
        return out


def check_mollify_reads(samples, n_eps, f: Field):
    """Refuse (ArgumentError) a run that mollifies f at samples points for
    each of n_eps eps values, if its plain reads pass MAX_MOLLIFY_READS."""
    reads = samples * n_eps * MOLLIFY_NODES ** (f.dim + 1) * f.reads
    if reads > MAX_MOLLIFY_READS:
        raise ArgumentError(f"{samples} samples at {n_eps} eps values on "
                            f"N = {f.dim} make {reads:.3e} quadrature reads, "
                            f"beyond the bound {MAX_MOLLIFY_READS:.3e}")


def mollify(f: Field, eps, T):
    """Smooth a bounded measurable field; preserves sup bounds and, for
    matrix fields, the ellipticity interval (convex combination of values),
    up to a few ulps: the quadrature weights sum to 1 only up to rounding,
    so lam = 0.5 can come back as 0.4999999999999999."""
    if not 0.0 < eps <= 1.0:
        raise ArgumentError("eps must lie in (0, 1]")
    return MollifiedField(f, eps, T)


# -- moduli of continuity ----------------------------------------------------

HOLDER_RADII = (1.0, 0.3, 0.1, 0.03)   # pair radii of holder_seminorm


def _sample_pairs(geometry, box, twindow, r, n, rng):
    """Pairs (z, w) with d(z, w) < r, both inside box x twindow."""
    N = geometry.N
    box = np.asarray(box, dtype=float)
    T0, T1 = twindow
    zs, ws = [], []
    batch = max(64, n)
    found = 0
    while found < n:
        x = rng.uniform(box[:, 0], box[:, 1], size=(batch, N))
        t = rng.uniform(T0, T1, size=batch)
        u = rng.uniform(-1.0, 1.0, size=(batch, N + 1))
        z = np.column_stack([x, t])
        w = geometry.compose(z, geometry.dilate(r, u))
        # ||u|| < 1 iff |u|^2 < 1: the norm's level function at r = 1 is the
        # Euclidean square, so the unit balls coincide and no root is needed
        ok = ((np.sum(u * u, axis=1) < 1.0)
              & np.all((w[:, :-1] >= box[:, 0]) & (w[:, :-1] <= box[:, 1]),
                       axis=1)
              & (T0 <= w[:, -1]) & (w[:, -1] <= T1))
        zs.append(z[ok])
        ws.append(w[ok])
        found += int(ok.sum())
    return np.concatenate(zs)[:n], np.concatenate(ws)[:n]


def _pair_jumps(f: Field, geometry, box, twindow, r, n, rng):
    """n sampled pairs (z, w) with d(z, w) < r and, for each, the largest
    |f(z) - f(w)| over the field's components."""
    zs, ws = _sample_pairs(geometry, box, twindow, r, n, rng)
    fz = f.many(zs[:, :-1], zs[:, -1])
    fw = f.many(ws[:, :-1], ws[:, -1])
    return zs, ws, np.abs(fz - fw).reshape(len(zs), -1).max(axis=1)


def modulus_of_continuity(f: Field, geometry, box, twindow, radii,
                          n_pairs=100000, seed=0):
    """Sampled modulus omega_f(r): sup |f(z)-f(w)| over pairs with d < r.

    A sup over samples is a lower bound of the true sup.  The returned table
    is monotone non-decreasing by running max.
    """
    rng = np.random.default_rng(seed)
    radii = np.asarray(radii, dtype=float)
    omega = np.zeros(len(radii))
    for i, r in enumerate(radii):
        _, _, diff = _pair_jumps(f, geometry, box, twindow, r, n_pairs, rng)
        omega[i] = diff.max()
    return np.maximum.accumulate(omega)


def holder_seminorm(f: Field, geometry, box, twindow, alpha,
                    n_pairs=100000, seed=0):
    """Sampled sup of |f(z)-f(w)| / d(z,w)^alpha over pairs with d < r, the
    n_pairs split evenly over the radii HOLDER_RADII; same contract as
    modulus_of_continuity (a lower bound of the true seminorm)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    best = 0.0
    per = max(1, n_pairs // len(HOLDER_RADII))
    for r in HOLDER_RADII:
        zs, ws, diff = _pair_jumps(f, geometry, box, twindow, r, per, rng)
        d = geometry.distance(zs, ws)
        ok = d > 0.0
        if ok.any():
            best = max(best, float(np.max(diff[ok] / d[ok] ** alpha)))
    return best
