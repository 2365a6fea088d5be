"""Coefficient fields: representation, rough synthetic generators,
mollification, moduli of continuity and group rescaling.

A Field is evaluable at any (x, t) inside its window and returns a scalar,
an m0-vector or a symmetric m0 x m0 matrix.  Fields are immutable and pure.
A checkerboard reads a batch through a CellLookup, which works out the
batch's cells once; fields of one cell side can share it.
"""

import math

import numpy as np

from .errors import ArgumentError, WindowUnderflow

# The operator's coefficients by name, with the tensor rank of each value:
# A0 an m0 x m0 matrix, b an m0-vector, c a scalar.
RANK = {"A0": 2, "b": 1, "c": 0}


class Field:
    """Base class: callable at (x, t); shape is the codomain shape."""

    def __init__(self, dim, shape, window=(-np.inf, np.inf)):
        self.dim = dim
        self.shape = tuple(shape)
        self.window = tuple(window)

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
    """Field defined by a python callable fn(x, t)."""

    def __init__(self, fn, dim, shape):
        super().__init__(dim, shape)
        self.fn = fn

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
        super().__init__(dim, shape, (taxis[0], taxis[-1]))
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


class CellLookup:
    """The space-time cells of side h of a batch of rows X at times ts (a
    scalar or one per row): the integer columns floor(x_1/h), ...,
    floor(x_N/h), floor(t/h), worked out once and hashed for each
    checkerboard of side h that reads the batch.

    The hash is splitmix-style, mixing the columns in that order.  When the
    bounding box of the batch's cells holds fewer cells than the batch has
    rows, it runs once per box cell and each row gathers its value through
    its flat index in the box.  Otherwise (a sparse batch, or rows whose
    non-finite coordinates cast to INT64_MIN) it runs once per row, in
    place on one uint64 accumulator.  Both give bitwise the same index.
    """

    def __init__(self, X, ts, h):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[0]
        self.n = n
        self.cols = cols = [np.floor(c / h).astype(np.int64)
                            for c in (*X.T, np.asarray(ts, dtype=float))]
        self.box = self.flat = None
        if n == 0:
            return
        # python ints: a non-finite row's span is about 2**64 cells
        lo = [int(c.min()) for c in cols]
        spans = [int(c.max()) - a + 1 for c, a in zip(cols, lo)]
        if math.prod(spans) >= n:
            return
        # the box path keeps only each row's flat index
        self.cols = None
        self.box = [np.arange(a, a + s, dtype=np.int64)
                    for a, s in zip(lo, spans)]
        flat = np.zeros(n, dtype=np.intp)
        for c, a, s in zip(cols, lo, spans):
            if s > 1:
                flat *= s
                flat += c - a
        self.flat = flat

    def index(self, seed, count):
        """Row -> index in [0, count) drawn by the hash seeded with seed."""
        mult, shift = np.uint64(0xBF58476D1CE4E5B9), np.uint64(31)
        start = (seed + 0x9E3779B97F4A7C15) % 2 ** 64
        if self.box is not None:
            acc = np.full((), start, dtype=np.uint64)
            for ax in self.box:
                acc = acc[..., None] ^ ax.view(np.uint64)
                acc *= mult
                acc ^= acc >> shift
            return np.take((acc.ravel() % np.uint64(count)).astype(np.intp),
                           self.flat)
        acc = np.full(self.n, start, dtype=np.uint64)
        tmp = np.empty(self.n, dtype=np.uint64)
        for col in self.cols:
            acc ^= col.view(np.uint64)
            acc *= mult
            np.right_shift(acc, shift, out=tmp)
            acc ^= tmp
        return (acc % np.uint64(count)).astype(np.intp)


class CheckerboardField(Field):
    """Seeded piecewise-constant checkerboard: measurable, discontinuous.

    Each space-time cell of side h draws one of the supplied values with a
    hash-based rule, so evaluation is pure and reproducible.
    """

    def __init__(self, values, h, dim, seed=0):
        values = [np.asarray(v, dtype=float) for v in values]
        super().__init__(dim, values[0].shape)
        self.values = np.stack(values)
        self.h = float(h)
        self.seed = int(seed)

    def index(self, cells):
        """Row -> value index of the batch whose cells of side h are
        `cells`, a CellLookup."""
        return cells.index(self.seed, len(self.values))

    def __call__(self, x, t):
        return self.many(np.atleast_1d(x)[None, :], t)[0]

    def many(self, X, ts):
        return np.take(self.values, self.index(CellLookup(X, ts, self.h)),
                       axis=0)


def checkerboard_spd(lam, Lam, m0, dim, h=0.25, seed=0):
    """Rough synthetic m0 x m0 matrix field on R^dim x R drawing space-time
    cells from {lam*I, Lam*I}."""
    return CheckerboardField([lam * np.eye(m0), Lam * np.eye(m0)], h, dim,
                             seed=seed)


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

MOLLIFY_NODES = 16         # Gauss-Legendre nodes per axis of the mollifier
MOLLIFY_CHUNK = 256        # points per inner-field batch in MollifiedField.many


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
        self.eps = float(eps)
        self.T = float(T)
        g, w = np.polynomial.legendre.leggauss(MOLLIFY_NODES)
        U, W = (np.stack([a.ravel() for a in
                          np.meshgrid(*([v] * f.dim), indexing="ij")], axis=1)
                for v in (g, w))
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


# -- group rescaling ---------------------------------------------------------


def rescale(fields, geometry, r):
    """Coefficients of the dilation-rescaled operator.

    A -> A o delta_r, b -> r (b o delta_r), c -> r^2 (c o delta_r);
    wrappers are lazy.
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
            "b": wrap(fields.get("b"), 1),
            "c": wrap(fields.get("c"), 2)}
