"""Discrete operator application and a monotone splitting solver for the
Cauchy problem on a truncated box.

The time step alternates (i) semi-Lagrangian transport along the drift's
integral curves, (ii) explicit flux-form diffusion in the first m0
coordinates, (iii) upwind lower-order advection and the zero-order factor.
First order in time by construction; monotonicity is preferred over formal
order because the Harnack/positivity checks need it.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (BoundaryNode, BoxTooSmall, OutOfDomain,
                     SupportExceedsGrid, Unstable)
from .group import Geometry, point, split

BOUNDARY_MASS_TOL = 1e-12
# The fewest nodes per axis the solver supports: the grid spacing needs two,
# and so does the transport's mirror fold, whose period is 2 (n - 1).
MIN_AXIS_NODES = 2


@dataclass
class GridSolution:
    """Solution samples on a tensor product of uniform spatial grids and a
    uniform time grid; values indexed values[it, ix1, ..., ixN]."""

    axes: list
    taxis: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def hs(self):
        return [float(a[1] - a[0]) for a in self.axes]

    @property
    def dt(self):
        return float(self.taxis[1] - self.taxis[0])

    def interpolator(self):
        from scipy.interpolate import RegularGridInterpolator

        vals = np.moveaxis(self.values, 0, -1)
        return RegularGridInterpolator(
            tuple(self.axes) + (self.taxis,), vals, method="linear",
            bounds_error=False, fill_value=0.0)

    def evaluate(self, x, t):
        pt = np.concatenate([np.atleast_1d(x), [t]])
        return float(self.interpolator()(pt)[0])


def _grid_points(axes):
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _coeff_on_grid(f, axes, t, shape):
    """Evaluate a Field (or None) on the whole spatial grid at time t."""
    dims = tuple(len(a) for a in axes)
    if f is None:
        return np.zeros(dims + shape)
    pts = _grid_points(axes)
    vals = f.many(pts, t)
    return np.asarray(vals).reshape(dims + shape)


def _pad_zero(u):
    return np.pad(u, 1, mode="constant")


def _pad_edge(a, spatial_ndim):
    pad = [(1, 1)] * spatial_ndim + [(0, 0)] * (a.ndim - spatial_ndim)
    return np.pad(a, pad, mode="edge")


def _shift(a, axis, k):
    """View of the padded array shifted by k along axis, cropped to core."""
    sl = [slice(1, -1)] * a.ndim
    sl[axis] = slice(1 + k, a.shape[axis] - 1 + k)
    return a[tuple(sl)]


def _diffusion(u, up, t, axes, coeffs, m0):
    """div(A0 Du) in the first m0 coordinates on the slice u (up: u padded
    by zeros): diagonal entries in conservative face-flux form, cross terms
    centered."""
    hs = [float(a[1] - a[0]) for a in axes]
    A = _coeff_on_grid(coeffs.get("A0"), axes, t, (m0, m0))
    Ap = _pad_edge(A, u.ndim)
    out = np.zeros_like(u)
    for i in range(m0):
        a_i = Ap[..., i, i]
        flux_hi = 0.5 * (_shift(a_i, i, 0) + _shift(a_i, i, 1)) \
            * (_shift(up, i, 1) - _shift(up, i, 0)) / hs[i]
        flux_lo = 0.5 * (_shift(a_i, i, -1) + _shift(a_i, i, 0)) \
            * (_shift(up, i, 0) - _shift(up, i, -1)) / hs[i]
        out += (flux_hi - flux_lo) / hs[i]
    for i in range(m0):
        for j in range(m0):
            if i == j:
                continue
            du_j_p = (np.roll(up, -1, axis=j) - np.roll(up, 1, axis=j)) / (2.0 * hs[j])
            Gp = Ap[..., i, j] * du_j_p
            out += (_shift(Gp, i, 1) - _shift(Gp, i, -1)) / (2.0 * hs[i])
    return out


def spatial_operator(u, t, axes, coeffs, geometry: Geometry,
                     drift_scheme="upwind"):
    """div(A D u) + <Bx, Du> + <b, Du> + c u - div(a u) on the grid slice u,
    with zero extension of u outside the box."""
    m0 = geometry.structure.m0
    N = geometry.N
    hs = [float(a[1] - a[0]) for a in axes]
    dims = tuple(len(a) for a in axes)
    X = _grid_points(axes).reshape(dims + (N,))

    up = _pad_zero(u)
    out = _diffusion(u, up, t, axes, coeffs, m0)

    # drift transport <Bx, Du>
    BX = np.einsum("ij,...j->...i", geometry.B, X)
    for i in range(N):
        ci = BX[..., i]
        if not np.any(ci):
            continue
        fwd = (_shift(up, i, 1) - _shift(up, i, 0)) / hs[i]
        bwd = (_shift(up, i, 0) - _shift(up, i, -1)) / hs[i]
        if drift_scheme == "upwind":
            out += np.where(ci > 0.0, ci * fwd, ci * bwd)
        else:
            out += ci * 0.5 * (fwd + bwd)

    # lower order advection <b, Du>, centered
    if coeffs.get("b") is not None:
        bgrid = _coeff_on_grid(coeffs["b"], axes, t, (m0,))
        for i in range(m0):
            du = (_shift(up, i, 1) - _shift(up, i, -1)) / (2.0 * hs[i])
            out += bgrid[..., i] * du

    # reaction c u
    if coeffs.get("c") is not None:
        out += _coeff_on_grid(coeffs["c"], axes, t, ()) * u

    # -div(a u), centered fluxes
    if coeffs.get("a") is not None:
        agrid = _coeff_on_grid(coeffs["a"], axes, t, (m0,))
        agp = _pad_edge(agrid, N)
        for i in range(m0):
            Gp = agp[..., i] * up
            out -= (_shift(Gp, i, 1) - _shift(Gp, i, -1)) / (2.0 * hs[i])
    return out


def apply_L(u: GridSolution, idx, it, coeffs, geometry,
            drift_scheme="upwind"):
    """Full discrete operator at an interior node: spatial part minus the
    forward time difference."""
    idx = tuple(int(i) for i in np.atleast_1d(idx))
    if it >= len(u.taxis) - 1:
        raise BoundaryNode("time node has no forward neighbor")
    for k, i in enumerate(idx):
        if not 0 < i < len(u.axes[k]) - 1:
            raise BoundaryNode(f"axis {k} index {i} is not interior")
    sp = spatial_operator(u.values[it], u.taxis[it], u.axes, coeffs,
                          geometry, drift_scheme)
    dudt = (u.values[it + 1][idx] - u.values[it][idx]) / u.dt
    return float(sp[idx] - dudt)


def apply_L_adjoint(v: GridSolution, idx, it, coeffs, geometry):
    """Formal adjoint at an interior node:
    div(A Dv) - sum_i d_i(b_i v) + (c - Tr B) v - <Bx, Dv> + dv/dtau."""
    idx = tuple(int(i) for i in np.atleast_1d(idx))
    if it >= len(v.taxis) - 1:
        raise BoundaryNode("time node has no forward neighbor")
    for k, i in enumerate(idx):
        if not 0 < i < len(v.axes[k]) - 1:
            raise BoundaryNode(f"axis {k} index {i} is not interior")
    sp = adjoint_spatial_operator(v.values[it], v.taxis[it], v.axes, coeffs,
                                  geometry)
    dvdt = (v.values[it + 1][idx] - v.values[it][idx]) / v.dt
    return float(sp[idx] + dvdt)


def adjoint_spatial_operator(v, t, axes, coeffs, geometry: Geometry):
    """Spatial part of the adjoint on a grid slice."""
    m0 = geometry.structure.m0
    N = geometry.N
    hs = [float(a[1] - a[0]) for a in axes]
    dims = tuple(len(a) for a in axes)
    X = _grid_points(axes).reshape(dims + (N,))
    vp = _pad_zero(v)
    out = _diffusion(v, vp, t, axes, coeffs, m0)

    # -sum_i d_i (b_i v), centered fluxes
    if coeffs.get("b") is not None:
        bgrid = _coeff_on_grid(coeffs["b"], axes, t, (m0,))
        bgp = _pad_edge(bgrid, N)
        for i in range(m0):
            Gp = bgp[..., i] * vp
            out -= (_shift(Gp, i, 1) - _shift(Gp, i, -1)) / (2.0 * hs[i])

    # (c - Tr B) v
    trB = float(np.trace(geometry.B))
    cgrid = (_coeff_on_grid(coeffs["c"], axes, t, ())
             if coeffs.get("c") is not None else 0.0)
    out += (cgrid - trB) * v

    # -<Bx, Dv>, upwind on the reversed velocity
    BX = np.einsum("ij,...j->...i", geometry.B, X)
    for i in range(N):
        ci = -BX[..., i]
        if not np.any(ci):
            continue
        fwd = (_shift(vp, i, 1) - _shift(vp, i, 0)) / hs[i]
        bwd = (_shift(vp, i, 0) - _shift(vp, i, -1)) / hs[i]
        out += np.where(ci > 0.0, ci * fwd, ci * bwd)
    return out


def lie_derivative(u: GridSolution, x, t, geometry: Geometry, s=None):
    """Centered difference along the drift's integral curve
    gamma(s) = (E(-s) x, t - s), interpolating off-grid values."""
    if s is None:
        s = 0.5 * min(min(u.hs), u.dt)
    interp = u.interpolator()
    x = np.atleast_1d(np.asarray(x, dtype=float))

    def gamma(sv):
        return np.concatenate([geometry.exp_drift(-sv) @ x, [t - sv]])

    for pt in (gamma(s), gamma(-s)):
        for k, a in enumerate(u.axes):
            if not a[0] <= pt[k] <= a[-1]:
                raise OutOfDomain(f"curve point leaves axis {k}")
        if not u.taxis[0] <= pt[-1] <= u.taxis[-1]:
            raise OutOfDomain("curve point leaves the time grid")
    return float((interp(gamma(s))[0] - interp(gamma(-s))[0]) / (2.0 * s))


# -- Cauchy solver -----------------------------------------------------------


def stability_dt(hs, Lambda, m0, bmax=0.0, courant=0.9):
    """Explicit-diffusion bound with an advection Courant cap."""
    hmin = min(hs[:m0]) if m0 <= len(hs) else min(hs)
    dt = hmin * hmin / (2.0 * Lambda * m0)
    if bmax > 0.0:
        dt = min(dt, courant * hmin / bmax)
    return dt


def solve_cauchy(coeffs, geometry: Geometry, phi, box, nx, t0, t1,
                 dt=None, Lambda=None, boundary="warn"):
    """March the datum phi from t0 to t1 on the truncated box.

    box: (N, 2) array of axis intervals; nx: nodes per axis (int or list).
    phi: callable x -> value, or a Field evaluated at t0.  The datum is
    extended by zero outside the box; the boundary stays audited against
    BOUNDARY_MASS_TOL times the interior max.
    """
    N = geometry.N
    m0 = geometry.structure.m0
    box = np.asarray(box, dtype=float).reshape(N, 2)
    if np.isscalar(nx):
        nx = [int(nx)] * N
    if len(nx) != N or min(nx) < MIN_AXIS_NODES:
        raise ValueError(f"nx = {list(nx)}: need {N} axes of at least "
                         f"{MIN_AXIS_NODES} nodes")
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, nx)]
    hs = [float(a[1] - a[0]) for a in axes]

    if Lambda is None:
        Lambda = 1.0
        if coeffs.get("A0") is not None:
            probe = coeffs["A0"].many(_grid_points([a[::4] for a in axes]), t0)
            Lambda = float(max(np.max(np.linalg.eigvalsh(np.atleast_2d(p)))
                               for p in probe))
    bmax = 0.0
    if coeffs.get("b") is not None:
        bvals = coeffs["b"].many(_grid_points([a[::4] for a in axes]), t0)
        bmax = float(np.max(np.abs(bvals)))
    dt_bound = stability_dt(hs, Lambda, m0, bmax)
    if dt is None:
        dt = dt_bound
    elif dt > dt_bound * (1.0 + 1e-12):
        raise Unstable(
            f"requested dt {dt:.3e} exceeds the stability bound {dt_bound:.3e}")
    nt = max(2, int(math.ceil((t1 - t0) / dt)) + 1)
    taxis = np.linspace(t0, t1, nt)
    dt = float(taxis[1] - taxis[0])

    pts = _grid_points(axes)
    dims = tuple(len(a) for a in axes)
    if hasattr(phi, "many"):
        u = np.asarray(phi.many(pts, t0), dtype=float).reshape(dims)
    else:
        u = np.array([phi(x) for x in pts], dtype=float).reshape(dims)

    # the semi-Lagrangian remap to the feet x_foot = e^{dt B} x, built once
    transport = None
    if np.any(geometry.B):
        feet = pts @ geometry.exp_drift(-dt).T
        transport = _Transport(np.stack(
            [(feet[:, k] - axes[k][0]) / hs[k] for k in range(N)], axis=0),
            dims)

    values = np.empty((nt,) + dims)
    values[0] = u
    warnings_list = []
    for it in range(1, nt):
        t = taxis[it - 1]
        # (i) transport along Y by quasi-monotone interpolation
        if transport is not None:
            u = transport(u)
        # (ii) explicit flux-form diffusion in the x^(0) block
        u = u + dt * _diffusion(u, _pad_zero(u), t, axes, coeffs, m0)
        # (iii) upwind b-advection and the zero-order factor
        if coeffs.get("b") is not None:
            bgrid = _coeff_on_grid(coeffs["b"], axes, t, (m0,))
            upad = _pad_zero(u)
            adv = np.zeros_like(u)
            for i in range(m0):
                fwd = (_shift(upad, i, 1) - _shift(upad, i, 0)) / hs[i]
                bwd = (_shift(upad, i, 0) - _shift(upad, i, -1)) / hs[i]
                bi = bgrid[..., i]
                adv += np.where(bi > 0.0, bi * fwd, bi * bwd)
            u = u + dt * adv
        if coeffs.get("c") is not None:
            u = u * np.exp(dt * _coeff_on_grid(coeffs["c"], axes, t, ()))
        if not np.all(np.isfinite(u)):
            raise Unstable(f"non-finite values at step {it}")
        values[it] = u

    interior_max = float(np.abs(values).max())
    bmask = np.zeros(dims, dtype=bool)
    for k in range(N):
        sl = [slice(None)] * N
        sl[k] = 0
        bmask[tuple(sl)] = True
        sl[k] = -1
        bmask[tuple(sl)] = True
    boundary_max = float(np.abs(values[:, bmask]).max()) if N > 0 else 0.0
    if interior_max > 0 and boundary_max > BOUNDARY_MASS_TOL * interior_max:
        msg = (f"boundary magnitude {boundary_max:.3e} exceeds "
               f"{BOUNDARY_MASS_TOL:.0e} x interior max {interior_max:.3e}")
        if boundary == "error":
            raise BoxTooSmall(msg)
        warnings_list.append(msg)
        warnings.warn(msg, stacklevel=2)

    meta = {"dt": dt, "dt_bound": dt_bound, "Lambda": Lambda, "bmax": bmax,
            "boundary_max_ratio": (boundary_max / interior_max
                                   if interior_max > 0 else 0.0),
            "warnings": warnings_list, "box": box.tolist(), "nx": list(nx),
            "t0": t0, "t1": t1}
    return GridSolution(axes=axes, taxis=taxis, values=values, meta=meta)


def _fold_mirror(i, n):
    """Reflect integer indices into [0, n-1] about the end samples
    (d c b | a b c d | c b a), as scipy's "mirror" mode extends data."""
    period = 2 * (n - 1)
    i = np.abs(i) % period
    return np.where(i > n - 1, period - i, i)


def _prefilter_matrix(n):
    """Inverse of the cubic B-spline collocation matrix on n nodes with mirror
    ends: maps samples to spline coefficients along one axis."""
    rows = np.arange(n)
    M = np.zeros((n, n))
    for off, w in ((-1, 1.0 / 6.0), (0, 4.0 / 6.0), (1, 1.0 / 6.0)):
        np.add.at(M, (rows, _fold_mirror(rows + off, n)), w)
    return np.linalg.inv(M)


def _cubic_weights(x):
    """Cubic B-spline weights of the nodes floor(x)-1 .. floor(x)+2, (4, n)."""
    y = x - np.floor(x)
    z = 1.0 - y
    w0 = z * z * z / 6.0
    w1 = 2.0 / 3.0 + 0.5 * y * y * (y - 2.0)
    w2 = 2.0 / 3.0 + 0.5 * z * z * (z - 2.0)
    return np.stack([w0, w1, w2, 1.0 - w0 - w1 - w2])


class _Transport:
    """Semi-Lagrangian remap of a grid slice to fixed foot coordinates
    (coords: (N, n_nodes) in index units), built once per time step size.

    The remap is the cubic spline interpolant with scipy's
    map_coordinates(order=3, mode="constant") conventions: coefficients from
    a mirror-ended prefilter, stencil indices folded by mirror reflection,
    and 0 for a foot outside [0, n_k - 1] on any axis.  The result is clipped
    to the range of the 2^N surrounding corners of the zero-padded slice,
    which restores the maximum principle while keeping the cubic accuracy on
    smooth data.  The tables take 16 * 4^N bytes per node for the spline
    stencil plus 8 * 2^N for the corners.
    """

    def __init__(self, coords, dims):
        n = coords.shape[1]
        base = np.floor(coords).astype(np.intp)
        weights = np.ones((1, n))
        index = np.zeros((1, n), dtype=np.intp)
        corners = np.zeros((1, n), dtype=np.intp)
        outside = np.zeros(n, dtype=bool)
        for k, d in enumerate(dims):
            wk = _cubic_weights(coords[k])
            ik = _fold_mirror(base[k] + np.arange(-1, 3)[:, None], d)
            ck = np.clip(base[k] + np.arange(1, 3)[:, None], 0, d + 1)
            weights = (weights[:, None] * wk[None]).reshape(-1, n)
            index = (index[:, None] * d + ik[None]).reshape(-1, n)
            corners = (corners[:, None] * (d + 2) + ck[None]).reshape(-1, n)
            outside |= (coords[k] < 0.0) | (coords[k] > d - 1)
        weights[:, outside] = 0.0
        self.dims = tuple(dims)
        self.prefilter = [_prefilter_matrix(d) for d in dims]
        self.weights, self.index, self.corners = weights, index, corners

    def __call__(self, u):
        c = u
        for k, P in enumerate(self.prefilter):
            pre = math.prod(self.dims[:k])
            post = math.prod(self.dims[k + 1:])
            if post == 1:
                c = c.reshape(pre, -1) @ P.T
            else:
                c = np.matmul(P, c.reshape(pre, -1, post))
        u3 = np.einsum("ji,ji->i", self.weights,
                       np.take(c.reshape(-1), self.index))
        corner = np.take(_pad_zero(u).reshape(-1), self.corners)
        return np.clip(u3, np.minimum.reduce(corner, axis=0),
                       np.maximum.reduce(corner, axis=0)).reshape(self.dims)


# -- approximate fundamental solution ---------------------------------------


def approx_fundamental(coeffs, geometry, x0, t0, t1, box, nx, widths,
                       lam=2.0, dt=None):
    """Cauchy evolutions from narrow Gaussian data of decreasing widths.

    The datum of width w is the exact constant-coefficient kernel at elapsed
    time w from the pole; the report carries the per-width solutions, the
    pointwise Richardson extrapolation of the two narrowest, and the spread
    between consecutive widths as an error proxy.  Slices at t <= t0 are
    identically zero by definition.
    """
    from . import kernel as kern

    widths = sorted(widths, reverse=True)
    params = kern.scaled_params(lam, geometry)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    pole = point(x0, float(t0))
    N = geometry.N
    boxa = np.asarray(box, dtype=float).reshape(N, 2)
    nxl = [int(nx)] * N if np.isscalar(nx) else list(nx)
    hs = [(hi - lo) / (n - 1) for (lo, hi), n in zip(boxa, nxl)]
    sols = []
    for w in widths:
        # the datum must be representable on the grid: every marginal
        # standard deviation of the width-w kernel has to span a few cells
        stds = np.sqrt(lam * np.diag(params.cov(w).C))
        for k in range(N):
            if stds[k] < 1.5 * hs[k]:
                raise SupportExceedsGrid(
                    f"width {w}: axis {k} std {stds[k]:.3e} below "
                    f"1.5 h = {1.5 * hs[k]:.3e}")

        class _Datum:
            def many(self, X, t, w=w):
                pts = np.column_stack([X, np.full(len(X), t0 + w)])
                return kern.gamma_many(pts, pole, params)
        sol = solve_cauchy(coeffs, geometry, _Datum(), box, nx,
                           t0 + w, t1, dt=dt)
        sols.append(sol)

    # widths agree only on the terminal slice (the time grids differ)
    finals = [s.values[-1] for s in sols]
    spread = [float(np.max(np.abs(finals[k + 1] - finals[k])))
              for k in range(len(finals) - 1)]
    report = {"widths": widths, "spread": spread}
    if len(finals) >= 2:
        w1, w2 = widths[-2], widths[-1]
        # first-order-in-width Richardson on the terminal slice
        factor = w2 / (w1 - w2)
        report["extrapolated"] = finals[-1] + factor * (finals[-1] - finals[-2])
    final = sols[-1]

    def evaluate(x, t):
        if t <= t0:
            return 0.0
        return final.evaluate(x, t)

    return final, report, evaluate


# -- weak formulation --------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Smooth bump supported in the cylinder Q_r(z0): cubic powers of the
    block-ball and time profiles give two continuous derivatives at the
    boundary."""

    center: np.ndarray
    scale: float
    geometry: Geometry

    def __call__(self, z):
        g = self.geometry
        zeta = g.dilate(1.0 / self.scale,
                        g.compose(g.inverse(self.center), z))
        x, t = split(zeta)
        if not -1.0 < t < 0.0:
            return 0.0
        val = (4.0 * (-t) * (1.0 + t)) ** 3
        for sl in g.structure.block_slices():
            r2 = float(np.sum(x[sl] ** 2))
            if r2 >= 1.0:
                return 0.0
            val *= (1.0 - r2) ** 3
        return val

    def many(self, X, t):
        """Vectorized over spatial points at one time slice."""
        g = self.geometry
        X = np.atleast_2d(np.asarray(X, dtype=float))
        x0, t0 = split(self.center)
        # z0^{-1} o (x, t): spatial part x - E(t - t0) x0, time t - t0
        xi = X - g.exp_drift(t - t0) @ x0
        tau = t - t0
        r = self.scale
        tau_d = tau / (r * r)
        if not -1.0 < tau_d < 0.0:
            return np.zeros(len(X))
        xi_d = xi / (r ** np.asarray(g.structure.alpha, dtype=float))
        val = np.full(len(X), (4.0 * (-tau_d) * (1.0 + tau_d)) ** 3)
        for sl in g.structure.block_slices():
            r2 = np.sum(xi_d[:, sl] ** 2, axis=1)
            val *= np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** 3, 0.0)
        return val


def weak_residual(u: GridSolution, tf: TestFunction, coeffs,
                  geometry: Geometry):
    """Trapezoid quadrature of the weak form over the grid:
    int -<A Du, Dphi> + phi Yu + <b, Du> phi + c u phi."""
    g = geometry
    N = g.N
    m0 = g.structure.m0
    hs = u.hs
    dt = u.dt

    # support box of Q_r(z0): sample the cylinder's corner images
    r = tf.scale
    z0 = tf.center
    tmin, tmax = z0[-1] - r * r, z0[-1]
    if tmin < u.taxis[0] - 1e-12 or tmax > u.taxis[-1] + 1e-12:
        raise SupportExceedsGrid("cylinder time range leaves the grid")

    total = 0.0
    pts = _grid_points(u.axes)
    dims = tuple(len(a) for a in u.axes)
    interp = u.interpolator()
    s_lie = 0.5 * min(min(hs), dt)
    Efwd = geometry.exp_drift(-s_lie)
    Ebwd = geometry.exp_drift(s_lie)
    for it in range(1, len(u.taxis) - 1):
        t = u.taxis[it]
        if not tmin <= t <= tmax:
            continue
        phi = tf.many(pts, t).reshape(dims)
        if not phi.any():
            continue
        uslice = u.values[it]
        up = _pad_zero(uslice)
        php = _pad_zero(phi)
        A = _coeff_on_grid(coeffs.get("A0"), u.axes, t, (m0, m0))
        integrand = np.zeros(dims)
        Du = [(_shift(up, i, 1) - _shift(up, i, -1)) / (2.0 * hs[i])
              for i in range(m0)]
        Dphi = [(_shift(php, i, 1) - _shift(php, i, -1)) / (2.0 * hs[i])
                for i in range(m0)]
        for i in range(m0):
            for j in range(m0):
                integrand -= A[..., i, j] * Du[j] * Dphi[i]
        # phi * Yu by a centered difference along the integral curves,
        # batched over the support nodes
        mask = phi > 0.0
        xs = pts.reshape(dims + (N,))[mask]
        P1 = np.column_stack([xs @ Efwd.T, np.full(len(xs), t - s_lie)])
        P2 = np.column_stack([xs @ Ebwd.T, np.full(len(xs), t + s_lie)])
        Yu = np.zeros(dims)
        Yu[mask] = (interp(P1) - interp(P2)) / (2.0 * s_lie)
        integrand += phi * Yu
        if coeffs.get("b") is not None:
            bgrid = _coeff_on_grid(coeffs["b"], u.axes, t, (m0,))
            for i in range(m0):
                integrand += bgrid[..., i] * Du[i] * phi
        if coeffs.get("c") is not None:
            integrand += _coeff_on_grid(coeffs["c"], u.axes, t, ()) \
                * uslice * phi
        total += float(np.sum(integrand)) * np.prod(hs) * dt
    return total


# -- dilation invariance on polynomial test functions -------------------------


class Poly:
    """Polynomial in (x_1..x_N, t) as {exponent tuple: coefficient}."""

    def __init__(self, terms, N):
        self.terms = {tuple(k): float(v) for k, v in terms.items() if v != 0.0}
        self.N = N

    def __call__(self, z):
        x, t = split(z)
        out = 0.0
        for exps, c in self.terms.items():
            val = c
            for xi, e in zip(x, exps[:-1]):
                val *= xi ** e
            val *= t ** exps[-1]
            out += val
        return out

    def diff(self, axis):
        """Partial derivative; axis N means time."""
        out = {}
        for exps, c in self.terms.items():
            e = exps[axis]
            if e == 0:
                continue
            ne = list(exps)
            ne[axis] = e - 1
            key = tuple(ne)
            out[key] = out.get(key, 0.0) + c * e
        return Poly(out, self.N)

    def mul_coord(self, axis):
        """Multiply by x_axis."""
        out = {}
        for exps, c in self.terms.items():
            ne = list(exps)
            ne[axis] += 1
            out[tuple(ne)] = out.get(tuple(ne), 0.0) + c
        return Poly(out, self.N)

    def scale(self, s):
        return Poly({k: s * v for k, v in self.terms.items()}, self.N)

    def add(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return Poly(out, self.N)

    def compose_dilation(self, r, alpha):
        """u o delta_r as a polynomial."""
        out = {}
        for exps, c in self.terms.items():
            s = c
            for a, e in zip(alpha, exps[:-1]):
                s *= r ** (a * e)
            s *= r ** (2 * exps[-1])
            out[exps] = out.get(exps, 0.0) + s
        return Poly(out, self.N)


def principal_part_poly(u: Poly, geometry: Geometry):
    """Model operator (unit diffusion) applied analytically to a polynomial:
    sum of second partials in the first m0 coordinates + <Bx, Du> - du/dt."""
    N = geometry.N
    m0 = geometry.structure.m0
    out = Poly({}, N)
    for i in range(m0):
        out = out.add(u.diff(i).diff(i))
    for i in range(N):
        dui = u.diff(i)
        for j in range(N):
            bij = geometry.B[i, j]
            if bij != 0.0:
                out = out.add(dui.mul_coord(j).scale(bij))
    out = out.add(u.diff(N).scale(-1.0))
    return out


def dilation_invariance_check(r, u: Poly, geometry: Geometry, n_samples=64,
                              seed=0):
    """Max over samples of |K(u o delta_r)(z) - r^2 (K u)(delta_r z)|."""
    rng = np.random.default_rng(seed)
    alpha = geometry.structure.alpha
    lhs_poly = principal_part_poly(u.compose_dilation(r, alpha), geometry)
    rhs_poly = principal_part_poly(u, geometry)
    worst = 0.0
    for _ in range(n_samples):
        z = point(rng.normal(size=geometry.N), rng.normal())
        lhs = lhs_poly(z)
        rhs = r * r * rhs_poly(geometry.dilate(r, z))
        worst = max(worst, abs(lhs - rhs))
    return worst
