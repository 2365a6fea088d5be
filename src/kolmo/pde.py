"""A monotone splitting solver for the Cauchy problem on a truncated box.

The time step alternates (i) semi-Lagrangian transport along the drift's
integral curves, a local cubic Lagrange interpolant clipped to the range
of its corners, (ii) flux-form diffusion in the first m0 coordinates, a
backward-Euler line solve along each of them with any cross terms of A0
explicit, (iii) upwind lower-order advection and the zero-order factor.
Every stage extends the slice by zero outside the box.  First order in
time by construction; monotonicity is preferred over formal order because
the Harnack/positivity checks need it.  Steps (i) and (ii) are monotone at
any dt, so the default step is chosen for accuracy, not set by the
explicit-diffusion bound h^2 / (2 Lambda m0).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel as kern
from .coefficients import RANK, CheckerboardField, value_set
from .errors import (ArgumentError, BoxTooSmall, SupportExceedsGrid,
                     Unstable)
from .group import Geometry, grid, point

BOUNDARY_MASS_TOL = 1e-12
# A monotone step cannot raise the sup norm beyond its reaction factor; its
# arithmetic rounds at the scale of the peak, so the audit allows this much.
GROWTH_TOL = 64 * np.finfo(float).eps
# The fewest nodes per axis the solver supports: the grid spacing needs two.
MIN_AXIS_NODES = 2
# The advection Courant number: dt |b|_1 / h stays below it.
COURANT = 0.9
# The default time step in units of the explicit-diffusion bound
# h^2 / (2 Lambda m0).  Over 12 poles of the prototype's kernel datum of
# width 0.1 at 161^2, the worst final-slice error against the exact kernel
# read 4.40, 4.29, 4.25 and 4.45% of the peak at 1, 2, 4 and 8 times that
# bound.
DIFFUSION_STEPS = 4
# The most time steps a solve makes.  On a 2-core x86-64 VM a prototype
# step takes 0.15 ms at 21^2 and 1.6 ms at 161^2, so 10^6 steps take 2.5
# and 27 minutes; past the bound a dt is refused before the time axis is
# made.
MAX_STEPS = 10 ** 6
# The most bytes of node rows and transport tables a solve may hold, 1 GiB:
# the benchmark's 161^2 solve holds 2.5 MB.  A grid past it is refused
# before its node rows are built.
MAX_SOLVE_BYTES = 2 ** 30


@dataclass
class GridSolution:
    """A solve's final slice on a tensor product of uniform spatial grids:
    values of shape (1, n1, ..., nN) at the one time in taxis, t1, and the
    solver's report in meta (its time step in meta["dt"])."""

    axes: list
    taxis: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)


class _GridCoeffs:
    """The operator's coefficient fields sampled on one spatial grid.

    The node rows are built once.  A0 is required (ArgumentError without
    it); b and c are read only where present.  A field with a fixed `value`
    (a ConstantField) is sampled once, a checkerboard once per time cell
    floor(t / h): the same array comes back for as long as the sample
    holds, so callers must not write into it.
    """

    def __init__(self, coeffs, axes, m0):
        if coeffs.get("A0") is None:
            raise ArgumentError("the coefficients need A0")
        self.coeffs = coeffs
        self.dims = tuple(len(a) for a in axes)
        self.pts = grid(axes)
        self.m0 = m0
        self._held = {}        # name -> (time cell or None, sample)

    def __call__(self, name, t):
        """Coefficient `name` at time t, shape dims + (m0,) * rank."""
        f = self.coeffs.get(name)
        # the time cell for which a checkerboard's sample holds; the sample
        # of a constant field holds for every t
        cell = np.floor(t / f.h) if isinstance(f, CheckerboardField) else None
        held = self._held.get(name)
        if held is not None and held[0] == cell:
            return held[1]
        shape = self.dims + (self.m0,) * RANK[name]
        vals = np.asarray(f.many(self.pts, t)).reshape(shape)
        if cell is not None or getattr(f, "value", None) is not None:
            self._held[name] = (cell, vals)
        return vals


def _pad_zero(u):
    up = np.zeros(tuple(d + 2 for d in u.shape), dtype=u.dtype)
    up[(slice(1, -1),) * u.ndim] = u
    return up


def _pad_edge(a, spatial_ndim):
    pad = [(1, 1)] * spatial_ndim + [(0, 0)] * (a.ndim - spatial_ndim)
    return np.pad(a, pad, mode="edge")


def _shift(a, axis, k):
    """View of the padded array shifted by k along axis, cropped to core."""
    sl = [slice(1, -1)] * a.ndim
    sl[axis] = slice(1 + k, a.shape[axis] - 1 + k)
    return a[tuple(sl)]


def _centered(up, i, h):
    """Centered difference along axis i of the padded array up, on the core."""
    return (_shift(up, i, 1) - _shift(up, i, -1)) / (2.0 * h)


def _upwind(out, up, vel, hs):
    """Add sum_i vel_i d_i u to out in place, each term differenced on the
    upwind side: forward where vel_i > 0, backward elsewhere.  A component
    of vel that is zero on the whole grid adds nothing."""
    for i in range(vel.shape[-1]):
        vi = vel[..., i]
        if not np.any(vi):
            continue
        fwd = (_shift(up, i, 1) - _shift(up, i, 0)) / hs[i]
        bwd = (_shift(up, i, 0) - _shift(up, i, -1)) / hs[i]
        out += np.where(vi > 0.0, vi * fwd, vi * bwd)


def _faces(Ap, i):
    """The coefficients of A0's entry (i, i) on the low and high face of
    each node along axis i (Ap: A0 padded by its edge values): 2 a b / (a +
    b) for the face's two nodes' values a and b, the harmonic mean, which
    carries the exact two-point flux across a jump; a itself where a == b,
    so that a constant A0 keeps its last bit."""
    lo, mid, hi = (_shift(Ap[..., i, i], i, s) for s in (-1, 0, 1))
    with np.errstate(invalid="ignore"):
        return tuple(np.where(a == b, a, 2.0 * a * b / (a + b))
                     for a, b in ((lo, mid), (mid, hi)))


def _cross_terms(out, up, Ap, m0, hs):
    """Add the centered cross terms d_i(a_ij d_j u), i != j, of div(A0 Du)
    to out (up: u padded by zeros; Ap: A0 padded by its edge values)."""
    for i in range(m0):
        for j in range(m0):
            if i == j:
                continue
            # padded by zeros again: along j the pad is never read
            du_j_p = _pad_zero(_centered(up, j, hs[j]))
            out += _centered(Ap[..., i, j] * du_j_p, i, hs[i])


class _ImplicitDiffusion:
    """Step (ii) of length dt for one A0 slice A: the centered cross terms
    d_i(a_ij d_j u), i != j, of div(A0 Du) explicitly (only where A has
    off-diagonal entries), then backward Euler (I - dt D_ii) v = u along each
    of the first m0 axes in turn, D_ii the face-flux difference
    d_i(a_ii d_i u) on the faces of _faces, u extended by zero.

    A line matrix has diagonal 1 + r (lo + hi) and off-diagonals -r lo,
    -r hi (r = dt / h_i^2).  For a_ii >= 0 it is an M-matrix with row sums
    >= 1, so the step is monotone and does not raise the sup norm at any
    dt.  The Thomas factors, batched over the other axes, are computed once
    here: gain = 1 / pivot, fwd = r lo / pivot and back = r hi / pivot, all
    >= 0 for an M-matrix, so the sweeps only add non-negative terms and a
    slice >= 0 stays >= 0 exactly.
    """

    def __init__(self, A, hs, m0, dt):
        self.Ap = _pad_edge(A, A.ndim - 2)
        self.hs, self.m0, self.dt = hs, m0, dt
        self.cross = m0 > 1 and bool(A[..., ~np.eye(m0, dtype=bool)].any())
        self.sweeps = []
        for i in range(m0):
            r = dt / (hs[i] * hs[i])
            lo, hi = (np.moveaxis(f * r, i, 0) for f in _faces(self.Ap, i))
            gain = 1.0 + (lo + hi)
            back = np.empty_like(gain)
            gain[0] = 1.0 / gain[0]
            back[0] = hi[0] * gain[0]
            for k in range(1, len(gain)):
                gain[k] = 1.0 / (gain[k] - lo[k] * back[k - 1])
                back[k] = hi[k] * gain[k]
            lo *= gain
            self.sweeps.append((gain, list(lo), list(back)))

    def __call__(self, u):
        if self.cross:
            out = np.zeros_like(u)
            _cross_terms(out, _pad_zero(u), self.Ap, self.m0, self.hs)
            u = u + self.dt * out
        for i, (gain, fwd, back) in enumerate(self.sweeps):
            v = np.moveaxis(u, i, 0) * gain
            rows = list(v)
            tmp = np.empty_like(rows[0])
            for k in range(1, len(rows)):
                np.multiply(fwd[k], rows[k - 1], out=tmp)
                rows[k] += tmp
            for k in range(len(rows) - 2, -1, -1):
                np.multiply(back[k], rows[k + 1], out=tmp)
                rows[k] += tmp
            u = np.moveaxis(v, 0, i)
        return u


# -- Cauchy solver -----------------------------------------------------------


def _grid_axes(box, nx, N):
    """The (N, 2) box, the nodes per axis as a list, and the node axes and
    spacings of a solve on it; nx is an int or one count per axis, and
    anything but N axes of at least MIN_AXIS_NODES nodes is a ValueError."""
    box = np.asarray(box, dtype=float).reshape(N, 2)
    nx = [int(nx)] * N if np.isscalar(nx) else list(nx)
    if len(nx) != N or min(nx) < MIN_AXIS_NODES:
        raise ValueError(f"nx = {nx}: need {N} axes of at least "
                         f"{MIN_AXIS_NODES} nodes")
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, nx)]
    return box, nx, axes, [float(a[1] - a[0]) for a in axes]


def solve_cauchy(coeffs, geometry: Geometry, phi, box, nx, t0, t1,
                 dt=None, boundary="warn"):
    """March the datum phi from t0 to t1 on the truncated box.

    box: (N, 2) array of axis intervals; nx: nodes per axis (int or list).
    phi: the datum, anything with many(X, t) (a Field, a KernelDatum),
    evaluated once at t0 on the (n, N) rows of grid nodes and extended by
    zero outside the box.  coeffs must hold A0 (else ArgumentError); A0
    and b must be fields with a value set (coefficients.value_set).

    The time step: the transport and the backward-Euler diffusion are
    monotone at any dt, so the default dt is chosen for accuracy,
    DIFFUSION_STEPS x h^2 / (2 Lambda m0) (h the finest x^(0) spacing,
    Lambda the largest eigenvalue in A0's value set, meta["Lambda"]).  Two
    caps keep the step monotone, and bound the default as well as a given
    dt, which must not exceed them (else Unstable): the advection Courant
    cap COURANT h / bmax, bmax the largest sum_i |b_i| in b's value set,
    where b is present; and the explicit bound h^2 / (2 Lambda m0) where a
    value of A0 has an off-diagonal entry, whose cross terms stay explicit.
    meta["dt_bound"] holds the smaller cap, None when neither applies.

    The solve holds only its current slice and returns the final one
    (values of shape (1,) + dims and taxis [t1]).  t1 must exceed t0, a
    given dt must be positive and (t1 - t0) / dt must not exceed MAX_STEPS,
    nor may the node rows and transport tables take more than
    MAX_SOLVE_BYTES (else ArgumentError, before they are made).

    Every step is audited as it is made: a non-finite value raises
    Unstable; where A0 is diagonal on the step (the step is then monotone),
    so does a sup norm that grows beyond the factor max(1, max exp(dt c)),
    and, for a datum >= 0, a value below -GROWTH_TOL times the step's sup
    norm.  The boundary stays audited against BOUNDARY_MASS_TOL times the
    max over all slices: boundary="warn" records a breach in
    meta["warnings"], boundary="error" raises BoxTooSmall; any other value
    is an ArgumentError.
    """
    if boundary not in ("warn", "error"):
        raise ArgumentError(f"boundary must be 'warn' or 'error', got "
                            f"{boundary!r}")
    if not t1 > t0:
        raise ArgumentError(f"t1 must exceed t0, got t0={t0!r}, t1={t1!r}")
    if dt is not None and not dt > 0.0:
        raise ArgumentError(f"dt must be positive, got {dt!r}")
    N = geometry.N
    m0 = geometry.structure.m0
    box, nx, axes, hs = _grid_axes(box, nx, N)
    held = 8 * N * math.prod(nx)
    if np.any(geometry.B):
        held += _table_bytes(nx, m0)
    if held > MAX_SOLVE_BYTES:
        raise ArgumentError(f"nx = {nx}: the node rows and transport tables "
                            f"take {held:.3e} bytes, beyond the bound "
                            f"{MAX_SOLVE_BYTES:.3e}")
    on_grid = _GridCoeffs(coeffs, axes, m0)
    pts, dims = on_grid.pts, on_grid.dims

    # the caps: the Courant cap on the l1 norm of b, under which the upwind
    # step is monotone for any m0, and the explicit bound where cross terms
    # (explicit, centered) are present
    A0s = value_set(coeffs["A0"]).reshape(-1, m0, m0)
    Lambda = float(np.max(np.linalg.eigvalsh(A0s)))
    bmax = 0.0
    if coeffs.get("b") is not None:
        bmax = float(np.max(np.abs(value_set(coeffs["b"])).reshape(
            -1, m0).sum(axis=1)))
    hmin = min(hs[:m0])
    explicit = hmin * hmin / (2.0 * Lambda * m0)
    caps = [COURANT * hmin / bmax] if bmax > 0.0 else []
    if A0s[:, ~np.eye(m0, dtype=bool)].any():
        caps.append(explicit)
    dt_bound = min(caps) if caps else None
    if dt is None:
        dt = min([DIFFUSION_STEPS * explicit] + caps)
    elif dt_bound is not None and dt > dt_bound * (1.0 + 1e-12):
        raise Unstable(
            f"requested dt {dt:.3e} exceeds the stability bound {dt_bound:.3e}")
    # as Python floats, whose overflow is inf without a numpy warning
    steps = float(t1 - t0) / float(dt)
    if not steps <= MAX_STEPS:
        raise ArgumentError(f"dt {dt!r} makes {steps!r} steps from t0 = "
                            f"{t0!r} to t1 = {t1!r}, beyond the bound of "
                            f"{MAX_STEPS} steps")
    nt = max(2, int(math.ceil(steps)) + 1)
    taxis = np.linspace(t0, t1, nt)
    dt = float(taxis[1] - taxis[0])
    u = np.asarray(phi.many(pts, t0), dtype=float).reshape(dims)

    # the semi-Lagrangian remap to the feet x_foot = e^{dt B} x, built once;
    # the x^(0) block stays put.  The feet and their index coordinates are
    # freed as soon as they have been read.
    transport = None
    if np.any(geometry.B):
        feet = pts @ geometry.exp_drift(-dt).T
        coords = np.stack([(feet[:, k] - axes[k][0]) / hs[k]
                           for k in range(N)], axis=0)
        del feet
        transport = _Transport(coords, dims, m0)
        del coords

    bmask = np.ones(dims, dtype=bool)
    bmask[(slice(1, -1),) * N] = False
    absu = np.abs(u)
    peak = interior_max = float(absu.max())
    boundary_max = float(absu[bmask].max())
    positive = bool(u.min() >= 0.0)
    diffuse = sampled = None
    for it in range(1, nt):
        t = taxis[it - 1]
        # (i) transport along Y by quasi-monotone interpolation
        if transport is not None:
            u = transport(u)
        # (ii) flux-form diffusion in the x^(0) block, backward Euler along
        # each axis; its factors are kept while the grid holds A0's sample
        A0 = on_grid("A0", t)
        if A0 is not sampled:
            sampled = A0
            diffuse = _ImplicitDiffusion(A0, hs, m0, dt)
        u = diffuse(u)
        # (iii) upwind b-advection and the zero-order factor
        if coeffs.get("b") is not None:
            adv = np.zeros_like(u)
            _upwind(adv, _pad_zero(u), on_grid("b", t), hs)
            u = u + dt * adv
        growth = 1.0
        if coeffs.get("c") is not None:
            # a factor that overflows is refused by the audit below
            with np.errstate(over="ignore", invalid="ignore"):
                factor = np.exp(dt * on_grid("c", t))
                u = u * factor
            growth = max(1.0, float(factor.max()))
        # audit: one reduction gives the step's sup norm, which is not
        # finite when any value is not; a monotone step (A0 diagonal, as
        # always for m0 = 1) keeps a datum >= 0 so and cannot raise the sup
        # norm beyond the reaction factor
        np.abs(u, out=absu)
        prev, peak = peak, float(absu.max())
        if not math.isfinite(peak):
            raise Unstable(f"non-finite values at step {it}")
        if not diffuse.cross:
            if positive and float(u.min()) < -GROWTH_TOL * peak:
                raise Unstable(
                    f"value {float(u.min()):.6e} below zero at step {it} "
                    f"from a datum >= 0 (sup norm {peak:.6e})")
            if peak > prev * growth * (1.0 + GROWTH_TOL):
                raise Unstable(
                    f"sup norm grew from {prev:.6e} to {peak:.6e} at step "
                    f"{it}, beyond the monotone bound x {growth:.6e}")
        interior_max = max(interior_max, peak)
        boundary_max = max(boundary_max, float(absu[bmask].max()))

    warnings_list = []
    if interior_max > 0 and boundary_max > BOUNDARY_MASS_TOL * interior_max:
        msg = (f"boundary magnitude {boundary_max:.3e} exceeds "
               f"{BOUNDARY_MASS_TOL:.0e} x interior max {interior_max:.3e}")
        if boundary == "error":
            raise BoxTooSmall(msg)
        warnings_list.append(msg)

    meta = {"dt": dt, "dt_bound": dt_bound, "Lambda": Lambda, "bmax": bmax,
            "boundary_max_ratio": (boundary_max / interior_max
                                   if interior_max > 0 else 0.0),
            "warnings": warnings_list, "box": box.tolist(), "nx": nx,
            "t0": t0, "t1": t1}
    return GridSolution(axes=axes, taxis=taxis[-1:].copy(), values=u[None],
                        meta=meta)


def _lagrange_weights(x):
    """Cubic Lagrange weights of the nodes floor(x)-1 .. floor(x)+2, (4, n),
    filled one row at a time."""
    y = x - np.floor(x)
    w = np.empty((4,) + x.shape)
    w[0] = y * (y - 1.0) * (2.0 - y) / 6.0
    w[1] = (y + 1.0) * (y - 1.0) * (y - 2.0) / 2.0
    w[2] = (y + 1.0) * y * (2.0 - y) / 2.0
    w[3] = (y + 1.0) * y * (y - 1.0) / 6.0
    return w


def _table_bytes(dims, m0):
    """The bytes _Transport holds for dims: a (4, n) weight and index table
    per pass, 64 bytes per node, 8 per node for the corner index and the
    bordered buffer."""
    return (math.prod(dims) * (8 + 64 * (len(dims) - m0))
            + 8 * math.prod(d + 4 for d in dims))


class _Transport:
    """Semi-Lagrangian remap of a grid slice to fixed foot coordinates
    (coords: (N, n_nodes) in index units), built once per time step size.

    For B in canonical form e^{-dt B} is unit lower block-triangular: the
    first m0 axes stay put, and the foot along an axis k >= m0 depends only
    on x_k and the blocks before k's.  So the tensor-product cubic Lagrange
    interpolant is one 1-D pass per axis k >= m0, in axis order (a shear,
    as in Unser, Thevenaz & Yaroslavsky, 1995): 4 taps at floor(x_k) - 1 ..
    floor(x_k) + 2 along k and the node's own indices on every other axis.
    The slice is extended by zero, as the datum, the diffusion and the
    upwind step extend it: a tap outside [0, n_k - 1] has its index clipped
    and its weight 0, and a foot outside [0, n_k - 1] reads 0.  Pass k's
    foot is constant along every later axis, so the passes compose to the
    tensor-product interpolant.

    The result is clipped to the range of the 2^N surrounding corners,
    floor(coord) and floor(coord) + 1 on each axis, of the zero-padded
    slice (the quasi-monotone clip of Bermejo & Staniforth, 1992), which
    restores the maximum principle while keeping the cubic accuracy on
    smooth data.  That range is separable: the slice is copied into a
    buffer with two zeros before and two after it on each axis, the buffer
    is folded to its pairwise min and its pairwise max along each axis in
    turn, and both are read at one flat index per node, the buffer's ravel
    of clip(floor(coord) + 2, 0, n_k + 2).  min and max are exact, so the
    bounds are those of the 2^N corners bitwise.  The tables take 64 bytes
    per node per pass plus 8 for that index, 72 bytes per node at (1,1)
    and 200 at (1,1,1,1), and the buffer 8 per node of the bordered grid.
    """

    def __init__(self, coords, dims, m0):
        n = coords.shape[1]
        node = np.arange(n)
        self.corner = np.zeros(n, dtype=np.intp)
        self.passes = []
        for k, d in enumerate(dims):
            x = coords[k]
            base = np.floor(x).astype(np.intp)
            self.corner *= d + 4
            self.corner += np.clip(base + 2, 0, d + 2)
            if k < m0:
                continue
            stride = math.prod(dims[k + 1:])
            # the node's index with its own offset along k taken out; each
            # tap row puts back its tap's
            own = node - node // stride % d * stride
            taps = base + np.arange(-1, 3)[:, None]
            weights = _lagrange_weights(x)
            weights[(taps < 0) | (taps > d - 1)] = 0.0
            weights[:, (x < 0.0) | (x > d - 1)] = 0.0
            np.clip(taps, 0, d - 1, out=taps)
            taps *= stride
            taps += own
            self.passes.append((k, weights, taps))
        self.buffer = np.zeros(tuple(d + 4 for d in dims))

    def bounds(self, u):
        """The min and the max of the zero-padded slice u over each node's
        2^N corners, (n_nodes,) each.  Each fold pairs the flat buffer with
        itself one axis stride on; the pairs that wrap past an axis's end
        are never read.  The min is read before the max is folded, so one
        fold's input and output are all the scratch alive at once."""
        self.buffer[(slice(2, -2),) * u.ndim] = u
        shape = self.buffer.shape
        strides = [math.prod(shape[k + 1:]) for k in range(u.ndim)]
        out = []
        for pair in (np.minimum, np.maximum):
            a = self.buffer.reshape(-1)
            for s in strides:
                a = pair(a[:-s], a[s:])
            out.append(np.take(a, self.corner))
        return out

    def __call__(self, u):
        c = u.reshape(-1)
        for _, weights, index in self.passes:
            c = np.einsum("ji,ji->i", weights, np.take(c, index))
        return np.clip(c, *self.bounds(u)).reshape(u.shape)


# -- approximate fundamental solution ---------------------------------------


@dataclass(frozen=True)
class KernelDatum:
    """The model kernel of params with pole `pole` as a Cauchy datum:
    many(X, t) is its value at the rows (X, t)."""

    pole: np.ndarray
    params: kern.KernelParams

    def many(self, X, t):
        return kern.gamma_many(np.column_stack([X, np.full(len(X), t)]),
                               self.pole, self.params)


def approx_fundamental(coeffs, geometry, x0, t0, t1, box, nx, widths,
                       lam=2.0, dt=None):
    """Cauchy evolutions from narrow Gaussian data of decreasing widths.

    The datum of width w is the exact constant-coefficient kernel at elapsed
    time w from the pole.  Returns (sol, report): sol is the narrowest
    width's solution, and the report holds the widths, the spread between
    consecutive widths' terminal slices as an error proxy, and under
    "solves" each width's dt, boundary_max_ratio and warnings.  Every width
    must be positive and end before t1: 0 < width and t0 + max(widths) <
    t1, else ArgumentError, before any solve.
    """
    widths = sorted(widths, reverse=True)
    if not widths[-1] > 0:
        raise ArgumentError(f"each width must be positive, got "
                            f"{float(widths[-1])!r}")
    if not t0 + widths[0] < t1:
        raise ArgumentError(
            f"each solve runs from t0 + width to t1: t0 = {t0!r} plus the "
            f"width {float(widths[0])!r} does not end before t1 = {t1!r}")
    params = kern.scaled_params(lam, geometry)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    datum = KernelDatum(point(x0, float(t0)), params)
    N = geometry.N
    *_, hs = _grid_axes(box, nx, N)
    # C(w) = delta_sqrt(w) C(1) delta_sqrt(w): axis k's standard deviation
    # is sqrt(lam) w^(alpha_k / 2) times the norm of row k of C(1)'s factor
    row_norms = np.sqrt(lam) * np.linalg.norm(params.chol1, axis=1)
    finals, solves = [], []
    for w in widths:
        # the datum must be representable on the grid: every marginal
        # standard deviation of the width-w kernel has to span a few cells
        stds = geometry.dilate_space(math.sqrt(w), row_norms)
        for k in range(N):
            if stds[k] < 1.5 * hs[k]:
                raise SupportExceedsGrid(
                    f"width {w}: axis {k} std {stds[k]:.3e} below "
                    f"1.5 h = {1.5 * hs[k]:.3e}")
        sol = solve_cauchy(coeffs, geometry, datum, box, nx, t0 + w, t1, dt=dt)
        finals.append(sol.values[-1])
        solves.append({k: sol.meta[k]
                       for k in ("dt", "boundary_max_ratio", "warnings")})

    # widths agree only on the terminal slice (the time grids differ)
    spread = [float(np.max(np.abs(finals[k + 1] - finals[k])))
              for k in range(len(finals) - 1)]
    return sol, {"widths": widths, "spread": spread, "solves": solves}

