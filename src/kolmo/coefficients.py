"""Coefficient fields: representation, rough synthetic generators,
mollification, moduli of continuity and group rescaling.

A Field is evaluable at any (x, t) inside its window and returns a scalar,
an m0-vector or a symmetric m0 x m0 matrix.  Fields are immutable and pure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowUnderflow


class Field:
    """Base class: callable at (x, t); shape is the codomain shape."""

    def __init__(self, dim, shape, window=(-np.inf, np.inf), box=None):
        self.dim = dim
        self.shape = tuple(shape)
        self.window = tuple(window)
        self.box = None if box is None else np.asarray(box, dtype=float)

    def __call__(self, x, t):
        raise NotImplementedError

    def many(self, X, ts):
        """Batch evaluation; subclasses override when they can vectorize."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (X.shape[0],))
        return np.array([self(x, t) for x, t in zip(X, ts)])


class ConstantField(Field):
    def __init__(self, value, dim, window=(-np.inf, np.inf)):
        value = np.asarray(value, dtype=float)
        super().__init__(dim, value.shape, window)
        self.value = value

    def __call__(self, x, t):
        return self.value

    def many(self, X, ts):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.broadcast_to(self.value, (X.shape[0],) + self.shape).copy()


class ExprField(Field):
    """Field defined by a python callable (named builtin presets)."""

    def __init__(self, fn, dim, shape, window=(-np.inf, np.inf), name=None):
        super().__init__(dim, shape, window)
        self.fn = fn
        self.name = name

    def __call__(self, x, t):
        return np.asarray(self.fn(np.asarray(x, dtype=float), float(t)))


class GridField(Field):
    """Tensor-grid samples with multilinear interpolation.

    axes: strictly increasing spatial axes; taxis: time axis; values indexed
    as values[i1, ..., iN, it, *shape].
    """

    def __init__(self, axes, taxis, values):
        from scipy.interpolate import RegularGridInterpolator

        axes = [np.asarray(a, dtype=float) for a in axes]
        taxis = np.asarray(taxis, dtype=float)
        values = np.asarray(values, dtype=float)
        for a in axes + [taxis]:
            if np.any(np.diff(a) <= 0):
                raise ValueError("axes must be strictly increasing")
        dim = len(axes)
        shape = values.shape[dim + 1:]
        box = [(a[0], a[-1]) for a in axes]
        super().__init__(dim, shape, (taxis[0], taxis[-1]), box)
        self.axes = axes
        self.taxis = taxis
        self.values = values
        self._interp = RegularGridInterpolator(
            tuple(axes) + (taxis,), values, method="linear",
            bounds_error=False, fill_value=None)

    def __call__(self, x, t):
        pt = np.concatenate([np.atleast_1d(x), [t]])
        out = self._interp(pt)[0]
        return np.asarray(out)

    def many(self, X, ts):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (X.shape[0],))
        return np.asarray(self._interp(np.column_stack([X, ts])))


class CheckerboardField(Field):
    """Seeded piecewise-constant checkerboard: measurable, discontinuous.

    Each space-time cell of side h draws one of the supplied values with a
    hash-based rule, so evaluation is pure and reproducible.
    """

    def __init__(self, values, h, dim, seed=0, window=(-np.inf, np.inf)):
        values = [np.asarray(v, dtype=float) for v in values]
        super().__init__(dim, values[0].shape, window)
        self.values = np.stack(values)
        self.h = float(h)
        self.seed = int(seed)

    def _cell_indices(self, X, ts):
        """Vectorized splitmix-style hash of integer cell coordinates."""
        pts = np.column_stack([np.atleast_2d(X), np.atleast_1d(ts)])
        cells = np.floor(pts / self.h).astype(np.int64).view(np.uint64)
        acc = np.full(cells.shape[0],
                      (self.seed + 0x9E3779B97F4A7C15) % 2 ** 64,
                      dtype=np.uint64)
        for col in cells.T:
            acc ^= col
            acc *= np.uint64(0xBF58476D1CE4E5B9)
            acc ^= acc >> np.uint64(31)
        return (acc % np.uint64(len(self.values))).astype(np.int64)

    def __call__(self, x, t):
        idx = self._cell_indices(np.atleast_1d(x)[None, :], [t])[0]
        return self.values[idx]

    def many(self, X, ts):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (X.shape[0],))
        return self.values[self._cell_indices(X, ts)]


def checkerboard_spd(lam, Lam, m0, dim, h=0.25, seed=0,
                     window=(-np.inf, np.inf)):
    """Rough synthetic m0 x m0 matrix field on R^dim x R drawing space-time
    cells from {lam*I, Lam*I}."""
    return CheckerboardField([lam * np.eye(m0), Lam * np.eye(m0)], h, dim,
                             seed=seed, window=window)


# -- ellipticity -------------------------------------------------------------


def check_ellipticity(A0_field, samples, ts):
    """Min/max Rayleigh quotients over the sample set.

    Returns {lambda_hat, Lambda_hat, violations}; points with a non-positive
    minimum eigenvalue are reported, never thrown.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    ts = np.broadcast_to(np.asarray(ts, dtype=float), (samples.shape[0],))
    lam_hat, Lam_hat = np.inf, -np.inf
    violations = []
    mats = A0_field.many(samples, ts)
    for x, t, A in zip(samples, ts, mats):
        eig = np.linalg.eigvalsh(np.atleast_2d(A))
        lam_hat = min(lam_hat, eig[0])
        Lam_hat = max(Lam_hat, eig[-1])
        if eig[0] <= 0.0:
            violations.append((x.copy(), float(t)))
    return {"lambda_hat": float(lam_hat), "Lambda_hat": float(Lam_hat),
            "violations": violations}


# -- mollification ----------------------------------------------------------


def _bump(u):
    """exp(-1/(1-u^2)) on |u|<1, 0 outside (unnormalized)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


_BUMP_NORM_1D = None


def _bump_norm_1d(n=200):
    global _BUMP_NORM_1D
    if _BUMP_NORM_1D is None:
        nodes, weights = np.polynomial.legendre.leggauss(n)
        _BUMP_NORM_1D = float(np.sum(weights * _bump(nodes)))
    return _BUMP_NORM_1D


@dataclass(frozen=True)
class MollifierPair:
    """Unit-mass bumps: psi_eps on |y| < eps, rho_eps on eps*(T/4, 3T/4).

    The radial space bump is exp(-1/(1-|x|^2)) normalized numerically; the
    time bump is the same profile centered at T/2 with radius T/4 before
    scaling by eps.
    """

    eps: float
    T: float
    dim: int

    def psi(self, y):
        """Unscaled space bump, unit mass on |y| < 1."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        r2 = np.sum(y ** 2, axis=1)
        out = np.zeros(y.shape[0])
        inside = r2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        return out / _psi_norm(self.dim)

    def rho(self, tau):
        """Unscaled time bump, unit mass on (T/4, 3T/4)."""
        u = (np.asarray(tau, dtype=float) - self.T / 2.0) / (self.T / 4.0)
        return _bump(u) / (_bump_norm_1d() * self.T / 4.0)

    def psi_eps(self, y):
        return self.psi(np.asarray(y) / self.eps) / self.eps ** self.dim

    def rho_eps(self, tau):
        return self.rho(np.asarray(tau) / self.eps) / self.eps

    def space_support(self):
        return self.eps

    def time_support(self):
        return (self.eps * self.T / 4.0, self.eps * 3.0 * self.T / 4.0)


_PSI_NORMS = {}


def _psi_norm(dim, n=80):
    """Mass of the unnormalized radial bump on the unit ball of R^dim."""
    if dim not in _PSI_NORMS:
        nodes, weights = np.polynomial.legendre.leggauss(n)
        grids = np.meshgrid(*([nodes] * dim), indexing="ij")
        W = np.ones(grids[0].size)
        for wg in np.meshgrid(*([weights] * dim), indexing="ij"):
            W = W * wg.ravel()
        pts = np.stack([g.ravel() for g in grids], axis=1)
        r2 = np.sum(pts ** 2, axis=1)
        vals = np.zeros_like(r2)
        inside = r2 < 1.0
        vals[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        _PSI_NORMS[dim] = float(np.sum(W * vals))
    return _PSI_NORMS[dim]


class MollifiedField(Field):
    """(x,t) -> integral of f(x - y, (1-eps) t + tau) psi_eps(y) rho_eps(tau).

    Tensor Gauss-Legendre over the bump supports; quadrature nodes are
    cached at construction and read-only afterwards.
    """

    def __init__(self, f: Field, eps, T, nodes=16):
        super().__init__(f.dim, f.shape, f.window, f.box)
        self.f = f
        self.eps = float(eps)
        self.T = float(T)
        self.pair = MollifierPair(self.eps, self.T, f.dim)
        gl_nodes, gl_weights = np.polynomial.legendre.leggauss(nodes)
        # spatial nodes over [-eps, eps]^dim, weights include psi_eps
        axes = [self.eps * gl_nodes] * f.dim
        grids = np.meshgrid(*axes, indexing="ij")
        self._Y = np.stack([g.ravel() for g in grids], axis=1)
        W = np.ones(self._Y.shape[0])
        for wg in np.meshgrid(*([gl_weights] * f.dim), indexing="ij"):
            W = W * wg.ravel()
        W = W * self.eps ** f.dim
        WY = W * self.pair.psi_eps(self._Y)
        # time nodes over eps*(T/4, 3T/4)
        lo, hi = self.pair.time_support()
        self._TAU = 0.5 * (hi - lo) * gl_nodes + 0.5 * (hi + lo)
        WT = 0.5 * (hi - lo) * gl_weights * self.pair.rho_eps(self._TAU)
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
        x = np.atleast_1d(np.asarray(x, dtype=float))
        self._check_window([t])
        acc = np.zeros(self.shape)
        X = x[None, :] - self._Y
        for tau, wt in zip(self._TAU, self._WT):
            vals = self.f.many(X, (1.0 - self.eps) * t + tau)
            acc = acc + wt * np.tensordot(self._WY, vals, axes=(0, 0))
        return acc

    def many(self, X, ts, chunk=256):
        """Batched evaluation: one inner-field batch per (chunk, tau) pair."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (X.shape[0],))
        self._check_window(ts)
        out = np.zeros((X.shape[0],) + self.shape)
        nq = self._Y.shape[0]
        for lo in range(0, X.shape[0], chunk):
            hi = min(lo + chunk, X.shape[0])
            Xc, tc = X[lo:hi], ts[lo:hi]
            pts = (Xc[:, None, :] - self._Y[None, :, :]).reshape(-1, self.dim)
            for tau, wt in zip(self._TAU, self._WT):
                vals = self.f.many(pts, np.repeat((1.0 - self.eps) * tc + tau, nq))
                vals = vals.reshape((hi - lo, nq) + self.shape)
                out[lo:hi] += wt * np.einsum("pq...,q->p...", vals, self._WY)
        return out


def mollify(f: Field, eps, T, nodes=16):
    """Smooth a bounded measurable field; preserves sup bounds and, for
    matrix fields, the ellipticity interval (convex combination of values),
    up to a few ulps: the quadrature weights sum to 1 only up to rounding,
    so lam = 0.5 can come back as 0.4999999999999999."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return MollifiedField(f, eps, T, nodes=nodes)


# -- moduli of continuity ----------------------------------------------------


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
        zs, ws = _sample_pairs(geometry, box, twindow, r, n_pairs, rng)
        fz = f.many(zs[:, :-1], zs[:, -1])
        fw = f.many(ws[:, :-1], ws[:, -1])
        diff = np.abs(fz - fw).reshape(len(zs), -1).max(axis=1)
        omega[i] = diff.max()
    return np.maximum.accumulate(omega)


def dini_integral(radii, omega):
    """Trapezoid estimate of int_{r_min}^{r_max} omega(r)/r dr.

    The true lower endpoint 0 is unreachable numerically; r_min is reported
    alongside the estimate.
    """
    radii = np.asarray(radii, dtype=float)
    omega = np.asarray(omega, dtype=float)
    val = float(np.trapezoid(omega / radii, radii))
    return {"integral": val, "r_min": float(radii[0]), "r_max": float(radii[-1])}


def holder_seminorm(f: Field, geometry, box, twindow, alpha,
                    n_pairs=100000, seed=0, r_scales=(1.0, 0.3, 0.1, 0.03)):
    """Sampled sup of |f(z)-f(w)| / d(z,w)^alpha; same contract as
    modulus_of_continuity (a lower bound of the true seminorm)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    best = 0.0
    per = max(1, n_pairs // len(r_scales))
    for r in r_scales:
        zs, ws = _sample_pairs(geometry, box, twindow, r, per, rng)
        fz = f.many(zs[:, :-1], zs[:, -1])
        fw = f.many(ws[:, :-1], ws[:, -1])
        diff = np.abs(fz - fw).reshape(len(zs), -1).max(axis=1)
        d = geometry.distance(zs, ws)
        ok = d > 0.0
        if ok.any():
            best = max(best, float(np.max(diff[ok] / d[ok] ** alpha)))
    return best


# -- group rescaling ---------------------------------------------------------


def rescale(fields, geometry, r):
    """Coefficients of the dilation-rescaled operator.

    A -> A o delta_r, a -> r (a o delta_r), b -> r (b o delta_r),
    c -> r^2 (c o delta_r); wrappers are lazy.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")

    def wrap(f, power):
        if f is None:
            return None

        class _Wrapped(Field):
            def __init__(self):
                T0, T1 = f.window
                r2 = r * r
                super().__init__(f.dim, f.shape,
                                 (T0 / r2 if np.isfinite(T0) else T0,
                                  T1 / r2 if np.isfinite(T1) else T1))

            def __call__(self, x, t):
                xs = geometry.dilate_space(r, np.atleast_1d(x))
                return (r ** power) * np.asarray(f(xs, r * r * t))

        return _Wrapped()

    return {"A0": wrap(fields.get("A0"), 0),
            "a": wrap(fields.get("a"), 1),
            "b": wrap(fields.get("b"), 1),
            "c": wrap(fields.get("c"), 2)}
