import itertools
import math
import tracemalloc

import numpy as np
import pytest

from kolmo import kernel as kern
from kolmo import pde
from kolmo.coefficients import CheckerboardField, ConstantField, Field, \
    GridField, value_set
from kolmo.errors import ArgumentError, BoxTooSmall, SupportExceedsGrid, \
    Unstable
from kolmo.group import Geometry, grid, point, prototype_geometry
from kolmo.structure import BlockStructure
from test_structure import random_canonical_B

ROUNDOFF = 64 * np.finfo(float).eps


def _canonical_geometry(blocks):
    if blocks == (1, 1):
        return prototype_geometry()
    B = np.zeros((3, 3))
    if blocks == (2, 1):
        B[2, :2] = [1.0, 0.5]
    else:
        B[1, 0] = B[2, 1] = 1.0
    return Geometry(BlockStructure(blocks), B)


def solve_every_slice(*args, **kwargs):
    """A solve and its slice at every time node, datum first, stacked.  The
    transport, each step's first stage, reads the slice its step starts
    from (a drift B != 0 makes one), so its inputs and the final slice are
    all of them; the time nodes are np.linspace(t0, t1, len(slices)), as
    the solver lays them out."""
    seen = []

    class Recorded(pde._Transport):
        def __call__(self, u):
            seen.append(u.copy())
            return super().__call__(u)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pde, "_Transport", Recorded)
        sol = pde.solve_cauchy(*args, **kwargs)
    return sol, np.stack(seen + [sol.values[-1]])


def test_solver_rejects_unstable_dt(proto):
    """A given dt above the Courant cap on |b|_1 raises Unstable before the
    datum is sampled; the diffusion sets no cap (A0 is diagonal)."""
    coeffs = {"A0": ConstantField(np.eye(1), dim=2),
              "b": ConstantField(np.array([2.0]), dim=2)}
    args = (coeffs, proto, _Untouched(), [[-1, 1], [-1, 1]], 41, 0.0, 0.1)
    cap = pde.COURANT * 0.05 / 2.0
    with pytest.raises(Unstable, match="exceeds the stability bound"):
        pde.solve_cauchy(*args, dt=1.01 * cap)


def test_solver_rejects_short_axis(proto, proto_coeffs):
    with pytest.raises(ValueError, match="at least 2 nodes"):
        pde.solve_cauchy(proto_coeffs, proto, _Bump(),
                         [[-1, 1], [-1, 1]], [1, 21], 0.0, 0.1)


def test_solver_samples_fields_per_step_and_constants_once(proto):
    """A field that may vary in time is sampled at every step's start time;
    a ConstantField once, on the grid (its value set is its value)."""

    class CountedConstant(ConstantField):
        calls = 0

        def many(self, X, ts):
            self.calls += 1
            return super().many(X, ts)

    class TimeRecorder(Field):
        def __init__(self):
            super().__init__(2, ())
            self.ts = []

        def many(self, X, ts):
            self.ts.append(float(ts))
            return np.full(len(X), -0.5)

    A0, c = CountedConstant(np.eye(1), dim=2), TimeRecorder()
    sol, slices = solve_every_slice({"A0": A0, "c": c}, proto, _Bump(1.0),
                                    [[-2, 2], [-2, 2]], [21, 21], 0.0, 0.1)
    assert len(slices) > 2
    assert c.ts == list(np.linspace(0.0, 0.1, len(slices))[:-1])
    assert c.ts[1] - c.ts[0] == sol.meta["dt"]
    assert A0.calls == 1


def test_solver_positivity_and_mass(proto, proto_params, proto_coeffs):
    """The monotone scheme keeps a kernel datum >= 0, and one implicit
    diffusion step conserves the sum of the slice up to the flux through
    the two boundary faces of each x1 line: with A0 = 1 every face
    coefficient is 1, so sum v - sum u = -dt / h^2 (sum v[0] + sum v[-1])."""
    w, t1 = 0.2, 0.5
    pole = point(np.zeros(2), 0.0)

    class D:
        def many(self, X, t):
            pts = np.column_stack([X, np.full(len(X), w)])
            return kern.gamma_many(pts, pole, proto_params)
    sol, slices = solve_every_slice(proto_coeffs, proto, D(),
                                    [[-4, 4], [-2, 2]], [61, 61], w, t1)
    assert sol.meta["warnings"], "the box cuts the kernel's tail"
    assert np.all(slices >= 0.0)  # monotone scheme keeps positivity
    dt = sol.meta["dt"]
    hs = [float(a[1] - a[0]) for a in sol.axes]
    h = hs[0]
    for u in (slices[0], slices[len(slices) // 2]):
        step = pde._ImplicitDiffusion(np.ones(u.shape + (1, 1)), hs, 1, dt)
        v = step(u)
        outflow = dt / (h * h) * (v[0].sum() + v[-1].sum())
        assert outflow > 0.0
        assert abs(v.sum() - u.sum() + outflow) <= 1e-12 * u.sum()


def _lagrange_basis(j, y):
    """The cubic Lagrange basis function of the node j in {-1, 0, 1, 2} at
    y, as the product over the other three nodes."""
    out = np.ones_like(y)
    for m in (-1, 0, 1, 2):
        if m != j:
            out = out * (y - m) / (j - m)
    return out


def _lagrange_transport(u, coords, m0):
    """The remap as the tensor-product cubic Lagrange interpolant, summed
    over all 4^(N - m0) taps at once: its first m0 axes read at the node
    rint(coords), each other axis at floor(coords) - 1 .. floor(coords) + 2,
    a tap outside the box reading 0 and a foot outside [0, n_k - 1] on any
    of those axes reading 0; clipped to the range of the surrounding
    corners floor(coords) + {0, 1} of the zero-padded slice."""
    N, dims = u.ndim, u.shape
    up = np.pad(u, 2)
    base = np.floor(coords).astype(int)
    y = coords - base
    u3 = np.zeros(coords.shape[1])
    for taps in itertools.product(range(-1, 3), repeat=N - m0):
        w = np.ones(coords.shape[1])
        idx = [np.rint(coords[k]).astype(int) + 2 for k in range(m0)]
        for k, j in zip(range(m0, N), taps):
            w = w * _lagrange_basis(j, y[k])
            idx.append(np.clip(base[k] + j + 2, 0, dims[k] + 3))
        u3 += w * up[tuple(idx)]
    last = np.array(dims)[m0:, None] - 1.0
    inside = np.all((coords[m0:] >= 0.0) & (coords[m0:] <= last), axis=0)
    u3[~inside] = 0.0
    return np.clip(u3, *_corner_bounds(u, coords)).reshape(dims)


def _corner_bounds(u, coords):
    """The min and the max of the zero-padded slice over the 2^N corners
    floor(coords) + {0, 1} of each foot, gathered corner by corner."""
    up = np.pad(u, 1)
    base = np.floor(coords).astype(int)
    lo = np.full(coords.shape[1], np.inf)
    hi = np.full(coords.shape[1], -np.inf)
    for mask in range(1 << u.ndim):
        idx = tuple(np.clip(base[k] + ((mask >> k) & 1) + 1, 0,
                            u.shape[k] + 1) for k in range(u.ndim))
        lo = np.minimum(lo, up[idx])
        hi = np.maximum(hi, up[idx])
    return lo, hi


def _solver_feet(g, dims, s):
    """The solver's feet e^{-s B} x on the nodes of [-1, 1]^N, in index
    units, as solve_cauchy builds them."""
    axes = [np.linspace(-1.0, 1.0, d) for d in dims]
    feet = grid(axes) @ g.exp_drift(-s).T
    return np.stack([(feet[:, k] + 1.0) / (axes[k][1] - axes[k][0])
                     for k in range(len(dims))])


@pytest.mark.parametrize("blocks, dims", [
    ((1, 1), (3, 17)), ((2, 1), (9, 3, 8)), ((1, 1, 1), (7, 6, 3)),
    ((2, 2, 1), (5, 6, 5, 7, 6)), ((1, 1, 1, 1), (6, 7, 5, 8)),
    ((1, 1), (17, 2))])
def test_transport_matches_scipy_reference(blocks, dims):
    """On the solver's own feet the shear passes are the tensor-product
    cubic Lagrange reference within rounding: one pass per axis past m0, in
    axis order, taps and feet outside the box reading 0."""
    rng = np.random.default_rng(sum(dims))
    g = prototype_geometry() if blocks == (1, 1) else Geometry(
        BlockStructure(blocks), random_canonical_B(blocks, rng))
    m0 = g.structure.m0
    # a long step shears the feet across several cells and out of the box
    coords = _solver_feet(g, dims, 1.2)
    last = np.array(dims)[:, None] - 1.0
    assert np.any(coords < -0.5) and np.any(coords > last + 0.5)
    # feet on and next to the edges, on the last axis, which no later pass
    # reads
    d = dims[-1]
    hit = rng.choice(coords.shape[1], 6, replace=False)
    coords[-1, hit] = [0.0, 0.0, d - 1.0, d - 1.0, -1e-15, d - 1 + 2e-15]

    op = pde._Transport(coords, dims, m0)
    assert [k for k, *_ in op.passes] == list(range(m0, len(dims)))
    for _ in range(3):
        u = rng.normal(size=dims)
        err = np.max(np.abs(op(u) - _lagrange_transport(u, coords, m0)))
        assert err <= 1e-14 * np.max(np.abs(u))


@pytest.mark.parametrize("blocks, dims", [
    ((1, 1), (9, 13)), ((2, 1), (7, 6, 9)), ((1, 1, 1), (7, 6, 8)),
    ((2, 2, 1), (5, 6, 5, 7, 6))])
def test_static_axis_transport(blocks, dims):
    """On the solver's own feet, the axes e^{-dt B} leaves in place are the
    first m0; the remap makes no pass along them, one pass of a (4, n)
    weight and index table along each other axis, and still matches the
    cubic reference."""
    rng = np.random.default_rng(len(dims))
    g = Geometry(BlockStructure(blocks), random_canonical_B(blocks, rng))
    N, m0 = g.N, g.structure.m0
    E = g.exp_drift(-0.3)
    assert np.all(E[:m0] == np.eye(N)[:m0])
    assert not np.any(np.all(E[m0:] == np.eye(N)[m0:], axis=1))
    coords = _solver_feet(g, dims, 0.3)

    op = pde._Transport(coords, dims, m0)
    n = coords.shape[1]
    assert [k for k, *_ in op.passes] == list(range(m0, N))
    for k, weights, index in op.passes:
        assert weights.shape == index.shape == (4, n)
        assert index.min() >= 0 and index.max() < n
    assert op.corner.shape == (n,)
    for _ in range(3):
        u = rng.normal(size=dims)
        err = np.max(np.abs(op(u) - _lagrange_transport(u, coords, m0)))
        assert err <= 1e-14 * np.max(np.abs(u))


@pytest.mark.parametrize("blocks, dims", [
    ((1, 1), (161, 161)), ((1, 1), (3, 17)), ((1, 1), (17, 2)),
    ((1, 1), (2, 9)), ((2, 1), (9, 3, 8)), ((1, 1, 1), (7, 6, 3)),
    ((1, 1, 1, 1), (6, 7, 5, 8))])
def test_separable_bounds_are_the_corner_bounds(blocks, dims):
    """The clip's pairwise min and max filters, read at one index per node,
    give bitwise the min and max over each foot's 2^N zero-padded corners,
    on feet sheared more than a cell out of the box on both sides, on feet
    at the edges and on axes of 2 nodes."""
    rng = np.random.default_rng(sum(dims) + len(dims))
    g = prototype_geometry() if blocks == (1, 1) else Geometry(
        BlockStructure(blocks), random_canonical_B(blocks, rng))
    coords = _solver_feet(g, dims, 3.0)
    last = np.array(dims)[:, None] - 1.0
    assert np.any(coords < -1.0) and np.any(coords > last + 1.0)
    hit = rng.choice(coords.shape[1], 4, replace=False)
    coords[-1, hit] = [0.0, dims[-1] - 1.0, -1e-15, dims[-1] - 1 + 2e-15]
    op = pde._Transport(coords, dims, g.structure.m0)
    for u in (rng.normal(size=dims), rng.uniform(0.5, 1.0, size=dims),
              -rng.uniform(0.5, 1.0, size=dims)):
        lo, hi = op.bounds(u)
        ref_lo, ref_hi = _corner_bounds(u, coords)
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)


@pytest.mark.parametrize("blocks, dims", [
    ((1, 1), (9, 13)), ((2, 1), (7, 6, 9)), ((1, 1, 1), (7, 6, 8)),
    ((1, 1, 1, 1), (6, 7, 5, 8))])
def test_table_bytes_are_the_transports(blocks, dims):
    """_table_bytes, the figure MAX_SOLVE_BYTES refuses on, is the bytes a
    built _Transport holds: its weight and index tables, its corner index
    and its bordered buffer."""
    rng = np.random.default_rng(len(dims))
    g = prototype_geometry() if blocks == (1, 1) else Geometry(
        BlockStructure(blocks), random_canonical_B(blocks, rng))
    m0 = g.structure.m0
    op = pde._Transport(_solver_feet(g, dims, 0.3), dims, m0)
    held = (sum(w.nbytes + i.nbytes for _, w, i in op.passes)
            + op.corner.nbytes + op.buffer.nbytes)
    assert pde._table_bytes(dims, m0) == held


def test_static_axis_keeps_both_edge_rows(proto):
    """A slice of ones remapped on the benchmark's 161^2 box keeps 1 on the
    x1 = lo and the x1 = hi rows at interior x2.  The feet (x - lo) / h
    read the last x1 node as 160 + O(1e-13); the remap makes no pass along
    the static x1 axis, and no foot is outside."""
    axes = [np.linspace(-4.0, 4.0, 161), np.linspace(-2.0, 2.0, 161)]
    dims = (161, 161)
    E = proto.exp_drift(-0.005)
    feet = grid(axes) @ E.T
    coords = np.stack([(feet[:, k] - axes[k][0]) / (axes[k][1] - axes[k][0])
                       for k in range(2)])
    assert coords[0, -1] > 160.0
    out = pde._Transport(coords, dims, 1)(np.ones(dims))
    for row in (out[0, 5:-5], out[-1, 5:-5]):
        assert np.max(np.abs(row - 1.0)) <= ROUNDOFF


@pytest.mark.parametrize("blocks", [(1, 1), (1, 1, 1)])
def test_static_axes_match_moving_solve(monkeypatch, blocks):
    """The solver's final slice, its x^(0) axes static and one pass along
    each other axis, is within rounding of a solve whose transport is the
    tensor-product Lagrange reference."""
    if blocks == (1, 1):
        g = _canonical_geometry(blocks)
        coeffs = {"A0": ConstantField(np.eye(1), dim=2)}
        box, nx = [[-4, 4], [-2, 2]], [81, 81]
    else:
        g, coeffs = _cross_coeffs(blocks, with_bc=True)
        box, nx = [[-1.5, 1.5]] * 3, 21
    args = (coeffs, g, _Bump(), box, nx, 0.0, 0.15)
    built = []
    build = pde._Transport

    def record(coords, dims, m0):
        built.append(m0)
        return build(coords, dims, m0)
    monkeypatch.setattr(pde, "_Transport", record)
    passes = pde.solve_cauchy(*args).values[-1]
    assert built == [g.structure.m0]

    monkeypatch.setattr(pde, "_Transport", lambda coords, dims, m0:
                        lambda u: _lagrange_transport(u, coords, m0))
    reference = pde.solve_cauchy(*args).values[-1]
    peak = np.max(np.abs(reference))
    assert np.max(np.abs(passes - reference)) <= 1e-11 * peak
    assert not np.array_equal(passes, reference), "the two paths differ"


def test_solve_needs_t1_after_t0(proto, proto_coeffs):
    """A solve that would step backwards or not at all is an argument
    error, and so are a time step that is not positive and a datum width
    that reaches t1 or is not positive (refused before any solve, not by
    NotSPD for a covariance at t = width after the wider widths' solves)."""
    box = [[-2, 2], [-2, 2]]
    for t0, t1 in ((0.5, 0.1), (0.1, 0.1)):
        with pytest.raises(ArgumentError, match="t1 must exceed t0"):
            pde.solve_cauchy(proto_coeffs, proto, _Bump(), box, 11, t0, t1)
    for dt in (0.0, -0.01, float("nan")):
        with pytest.raises(ArgumentError, match="dt must be positive"):
            pde.solve_cauchy(proto_coeffs, proto, _Bump(), box, 11, 0.0, 0.3,
                             dt=dt)
    g3 = _canonical_geometry((1, 1, 1))
    with pytest.raises(ArgumentError, match="width"):
        pde.approx_fundamental({"A0": ConstantField(np.eye(1), dim=3)}, g3,
                               np.zeros(3), 0.0, 0.5, [[-2, 2]] * 3, 11,
                               widths=[0.9, 0.7])
    with pytest.raises(ArgumentError, match="width"):
        pde.approx_fundamental(proto_coeffs, proto, np.zeros(2), 0.0, 0.3,
                               [[-4, 4], [-2, 2]], [41, 61],
                               widths=[0.3, 0.25])
    for widths in ([0.3, -0.1], [0.0], [0.3, 0.0]):
        with pytest.raises(ArgumentError, match="width must be positive"):
            pde.approx_fundamental(proto_coeffs, proto, np.zeros(2), 0.0,
                                   0.8, [[-4, 4], [-2, 2]], [41, 41],
                                   widths=widths)


def test_solver_chain_n3_positive():
    g = _canonical_geometry((1, 1, 1))
    sol, slices = solve_every_slice(
        {"A0": ConstantField(np.eye(1), dim=3)}, g, _Bump(8.0),
        [[-2, 2], [-2, 2], [-2, 2]], 21, 0.0, 0.1, dt=0.01)
    assert sol.values.shape == (1, 21, 21, 21)
    assert len(slices) > 3
    assert np.all(np.isfinite(slices))
    peak = np.max(np.abs(slices))
    assert np.min(slices) >= -ROUNDOFF * peak
    assert np.max(np.abs(slices[-1] - slices[0])) > 1e-3 * peak


def test_solver_self_converges_n3():
    """On the (1,1,1) chain the final slice converges under refinement:
    with A0 = 1 and the default dt, the gap between the 17^3 and 33^3
    solves on their shared nodes (7.6% of the peak) is at least 2.5 times
    the gap between the 33^3 and 65^3 solves (2.4%)."""
    g = _canonical_geometry((1, 1, 1))
    finals = [pde.solve_cauchy({"A0": ConstantField(np.eye(1), dim=3)}, g,
                               _Bump(), [[-2, 2]] * 3, n, 0.0,
                               0.2).values[-1]
              for n in (17, 33, 65)]
    gaps = [np.max(np.abs(fine[::2, ::2, ::2] - coarse)) / np.max(fine)
            for coarse, fine in zip(finals, finals[1:])]
    assert gaps[0] >= 2.5 * gaps[1]


@pytest.mark.parametrize("blocks, nx", [
    ((2, 1), 15), ((1, 1, 1), 15), ((2, 2, 1), 7), ((1, 1, 1, 1), 9),
    ((3, 2, 1), 6)])
def test_solver_positive_over_random_structures(blocks, nx):
    """On a random canonical B and a checkerboard A0 in {I, 3I} the solve
    completes, so the monotone audits hold at every step, and a datum >= 0
    stays >= 0 up to rounding at every time node."""
    rng = np.random.default_rng(sum(blocks) + len(blocks))
    g = Geometry(BlockStructure(blocks), random_canonical_B(blocks, rng))
    m0, N = g.structure.m0, g.N
    A0 = CheckerboardField([np.eye(m0), 3.0 * np.eye(m0)], h=0.25, dim=N,
                           seed=1)
    _, slices = solve_every_slice({"A0": A0}, g, _Bump(), [[-1.5, 1.5]] * N,
                                  nx, 0.0, 0.2)
    peak = np.max(np.abs(slices))
    assert peak > 0.0
    assert np.min(slices) >= -ROUNDOFF * peak


class _Bump:
    """The datum exp(-k |x|^2) on the rows X; k = 0 gives 1 everywhere."""

    def __init__(self, k=4.0):
        self.k = k

    def many(self, X, t):
        return np.exp(-self.k * np.sum(X * X, axis=1))


def _cross_coeffs(blocks, with_bc):
    """A0 with off-diagonal entries for m0 = 2; checkerboard b and c that
    change in time when with_bc."""
    g = _canonical_geometry(blocks)
    m0, N = g.structure.m0, g.N
    A = np.eye(m0) + 0.3 * (np.ones((m0, m0)) - np.eye(m0))
    coeffs = {"A0": CheckerboardField([A, 1.5 * np.eye(m0)], h=0.25, dim=N,
                                      seed=2)}
    if with_bc:
        coeffs["b"] = CheckerboardField([np.full(m0, 0.5),
                                         np.full(m0, -0.8)],
                                        h=0.05, dim=N, seed=3)
        coeffs["c"] = CheckerboardField([-0.4, 0.3], h=0.05, dim=N, seed=4)
    return g, coeffs


def test_boundary_ratio_reads_every_slice(proto, proto_coeffs):
    """A datum that fills the box has its boundary peak at t0, and the
    solve, which holds one slice at a time, still reports it.  With cross
    terms and b and c that change in time, on every structure, the ratio
    is that of the maxima over all of its slices, bitwise."""
    sol = pde.solve_cauchy(proto_coeffs, proto, _Bump(0.0),
                           [[-1, 1], [-1, 1]], 21, 0.0, 0.1)
    assert np.max(np.abs(sol.values[-1][[0, -1]])) < 0.9
    assert sol.meta["boundary_max_ratio"] == 1.0
    for blocks in ((1, 1), (2, 1), (1, 1, 1)):
        g, coeffs = _cross_coeffs(blocks, with_bc=True)
        sol, slices = solve_every_slice(coeffs, g, _Bump(),
                                        [[-1.5, 1.5]] * g.N,
                                        31 if g.N == 2 else 17, 0.0, 0.15)
        edge = np.ones(slices.shape[1:], dtype=bool)
        edge[(slice(1, -1),) * g.N] = False
        assert sol.meta["warnings"], "the box is cut, so the audit warns"
        assert sol.meta["boundary_max_ratio"] == \
            np.abs(slices[:, edge]).max() / np.abs(slices).max()


def test_keep_final_stores_one_slice(proto, proto_coeffs):
    """A solve keeps its final slice alone: its values are one slice at
    taxis [t1], and its allocation peak does not grow with its step count.
    At 301 steps it is within 10 slices of the peak at 31 steps (it read
    within 4); a solve that stored its slices would hold 270 more."""
    args = (proto_coeffs, proto, _Bump(), [[-2, 2], [-2, 2]], [41, 41],
            0.0, 0.3)
    peaks = {}
    for dt in (1e-2, 1e-3):
        tracemalloc.start()
        try:
            sol = pde.solve_cauchy(*args, dt=dt)
            peaks[dt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sol.values.shape == (1, 41, 41)
    assert sol.taxis.tolist() == [0.3]
    assert peaks[1e-3] < peaks[1e-2] + 10 * sol.values.nbytes


def test_solve_memory_per_node(proto):
    """The benchmark's 161^2 solve cauchy (the lam = 2 kernel datum of width
    0.1, box [-4, 4] x [-2, 2], t1 = 0.5) peaks at most at
    240 bytes per node under tracemalloc: it measured 196; the bound
    leaves a 22% margin."""
    params = kern.scaled_params(2.0, proto)
    datum = pde.KernelDatum(point(np.array([0.3, -0.1]), 0.0), params)
    coeffs = {"A0": ConstantField(np.eye(1), dim=2)}
    tracemalloc.start()
    try:
        pde.solve_cauchy(coeffs, proto, datum, [[-4, 4], [-2, 2]],
                         [161, 161], 0.1, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 240 * 161 * 161


@pytest.mark.parametrize("nx, dt", [([21, 21], 1e-300),
                                    ([81, 160000], None)],
                         ids=["steps", "tables"])
def test_solve_refuses_work_past_its_bounds(proto, monkeypatch, nx, dt):
    """A step count past MAX_STEPS and node rows and transport tables past
    MAX_SOLVE_BYTES are refused by name and bound, before the time axis,
    the node rows or the datum is made: --nx 81,160000 would ask 1.25 GB
    for its node rows and tables."""
    class NoGrid:
        def __init__(self, *args):
            raise AssertionError("the node rows were built")

    if dt is None:
        monkeypatch.setattr(pde, "_GridCoeffs", NoGrid)
    coeffs = {"A0": ConstantField(np.eye(1), dim=2)}
    with pytest.raises(ArgumentError, match="beyond the bound") as err:
        pde.solve_cauchy(coeffs, proto, _Untouched(), [[-4, 4], [-2, 2]],
                         nx, 0.0, 0.3, dt=dt)
    assert (f"{pde.MAX_STEPS} steps" if dt else
            f"{pde.MAX_SOLVE_BYTES:.3e}") in str(err.value)


class _Untouched:
    """A datum that fails the test if the solver samples it."""

    def many(self, X, t):
        raise AssertionError("the datum was sampled")


def test_boundary_error_raises_what_warn_records(proto, proto_coeffs):
    """boundary="error" raises BoxTooSmall with the message that "warn"
    records in meta["warnings"]; any other value is refused before the
    datum is sampled."""
    args = (proto_coeffs, proto, _Bump(), [[-1, 1], [-1, 1]], 21, 0.0, 0.1)
    sol = pde.solve_cauchy(*args)
    msg, = sol.meta["warnings"]
    assert msg.startswith("boundary magnitude ")
    with pytest.raises(BoxTooSmall) as exc:
        pde.solve_cauchy(*args, boundary="error")
    assert str(exc.value) == msg
    for bad in ("eror", "WARN", None):
        with pytest.raises(ArgumentError, match="boundary"):
            pde.solve_cauchy(proto_coeffs, proto, _Untouched(),
                             *args[3:], boundary=bad)


def test_step_reads_A0_values_after_t0(proto, step_A0):
    """A0 steps from 1 to 4 after the start: the default step is taken
    with Lambda = 4, the largest value A0 takes, not 1, its value at t0;
    the solve stays finite and >= 0 at every time node, its sup norm at
    most the datum's."""
    sol, slices = solve_every_slice({"A0": step_A0}, proto, _Bump(),
                                    [[-4, 4], [-4, 4]], [41, 41], 0.0, 0.3)
    assert sol.meta["Lambda"] == 4.0
    step = pde.DIFFUSION_STEPS * 0.2 ** 2 / (2.0 * 4.0)
    assert sol.meta["dt"] == pytest.approx(0.3 / math.ceil(0.3 / step))
    assert np.all(np.isfinite(slices))
    assert np.min(slices) >= 0.0
    assert 0.0 < np.max(slices) <= 1.0


def test_courant_cap_reads_b_values_after_t0(proto):
    """b is 0 until t = 0.06 and 30 after: the Courant cap reads |b|_1 =
    30 from b's samples, so the default step is at most 0.9 h / 30 and a
    datum >= 0 stays so at every time node (a step set from b at t0 alone,
    where b is 0, has no cap and goes below zero at step 4)."""
    ax = np.linspace(-4.0, 4.0, 2)
    vals = np.zeros((2, 2, 4, 1))
    vals[:, :, 2:] = 30.0
    b = GridField([ax, ax], [0.0, 0.0599, 0.06, 1.0], vals)
    sol, slices = solve_every_slice(
        {"A0": ConstantField(np.eye(1), dim=2), "b": b}, proto, _Bump(),
        [[-4, 4], [-4, 4]], [81, 81], 0.0, 0.3)
    cap = pde.COURANT * 0.1 / 30.0
    assert sol.meta["bmax"] == 30.0
    assert sol.meta["dt_bound"] == pytest.approx(cap)
    assert sol.meta["dt"] <= cap
    assert np.min(slices) >= 0.0
    assert np.max(slices[-1]) > 0.0


def test_audits_catch_non_elliptic_A0(proto):
    """A0 that turns from 1 to -1 after the start (a field the library
    takes as it is; a spec load would refuse it) makes the line matrices
    lose their M-matrix property.  From a datum >= 0 the
    positivity audit raises; from a datum of both signs, which it does not
    watch, the sup-norm audit does."""
    ax = np.linspace(-4.0, 4.0, 41)
    vals = np.ones((41, 41, 4))
    vals[..., 2:] = -1.0
    coeffs = {"A0": GridField([ax, ax], np.array([0.0, 0.0599, 0.06, 1.0]),
                              vals)}

    class Signed:
        def many(self, X, t):
            return np.exp(-4.0 * np.sum(X * X, axis=1)) * np.cos(3.0 * X[:, 0])

    args = (coeffs, proto)
    rest = ([[-4, 4], [-4, 4]], [41, 41], 0.0, 0.3)
    with pytest.raises(Unstable, match="below zero"):
        pde.solve_cauchy(*args, _Bump(), *rest)
    with pytest.raises(Unstable, match="sup norm grew"):
        pde.solve_cauchy(*args, Signed(), *rest)


def _diagonal_A0(blocks):
    """A checkerboard A0 with diagonal values (so the step is monotone),
    Lambda = 1.5, and no fixed value: the solver samples it once per time
    cell of side 0.25."""
    g = _canonical_geometry(blocks)
    m0 = g.structure.m0
    lo, hi = np.diag([1.0, 0.5][:m0]), np.diag([1.5, 1.0][:m0])
    return g, CheckerboardField([lo, hi], h=0.25, dim=g.N, seed=5)


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 1, 1)])
def test_implicit_step_inverts_I_minus_dt_D(blocks):
    """Applying (I - dt D_ii) along the axes in reverse order to the
    implicit step returns its input plus dt times the cross terms, to
    1e-12: D_ii and the cross terms are _ref_diffusion on A0 with only its
    entry (i, i), or only its off-diagonal entries, kept (A0 of _cross_coeffs,
    with off-diagonal entries for m0 = 2)."""
    g, coeffs = _cross_coeffs(blocks, with_bc=False)
    m0, N = g.structure.m0, g.N
    dims = (13, 11, 9)[:N]
    axes = [np.linspace(-1.5, 1.5, d) for d in dims]
    hs = [a[1] - a[0] for a in axes]
    A = coeffs["A0"].many(grid(axes), 0.0).reshape(
        dims + (m0, m0))
    dt = 8.0 * min(hs[:m0]) ** 2 / (2.0 * 1.5 * m0)
    u = np.random.default_rng(N).uniform(-1.0, 1.0, dims)
    w = pde._ImplicitDiffusion(A, hs, m0, dt)(u)
    for i in reversed(range(m0)):
        Ai = np.zeros_like(A)
        Ai[..., i, i] = A[..., i, i]
        w = w - dt * _ref_diffusion(pde._pad_zero(w), Ai, hs, m0)
    off = A * ~np.eye(m0, dtype=bool)
    assert np.any(off) == (m0 > 1)
    rhs = u + dt * _ref_diffusion(pde._pad_zero(u), off, hs, m0)
    assert np.max(np.abs(w - rhs)) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 1, 1)])
def test_implicit_step_monotone_at_8x(monkeypatch, blocks):
    """At 8 times the explicit bound h^2 / (2 Lambda m0), with a
    checkerboard A0 factored afresh in each time cell, the solve keeps a datum
    >= 0 so and its sup norm never grows; each step's diffusion alone maps
    data >= 0 to data >= 0 and does not raise the sup norm of any datum."""
    g, field = _diagonal_A0(blocks)
    m0, N = g.structure.m0, g.N
    nx = 31 if N == 2 else 21
    h = 3.0 / (nx - 1)
    dt = 8.0 * h * h / (2.0 * 1.5 * m0)
    steps = []
    build = pde._ImplicitDiffusion

    def counted(*a):
        steps.append((a[0], build(*a)))
        return steps[-1][1]
    monkeypatch.setattr(pde, "_ImplicitDiffusion", counted)
    sol, slices = solve_every_slice({"A0": field}, g, _Bump(),
                                    [[-1.5, 1.5]] * N, nx, 0.0, 0.6, dt=dt)
    taxis = np.linspace(0.0, 0.6, len(slices))
    assert sol.meta["dt"] > 0.9 * dt
    assert len(slices) - 1 > 3
    assert len(steps) == len({math.floor(t / field.h)
                              for t in taxis[:-1]}) > 1
    assert not np.array_equal(steps[0][0], steps[-1][0]), "A0 moved in time"
    assert np.min(slices) >= 0.0
    peaks = np.max(slices.reshape(len(slices), -1), axis=1)
    assert np.all(np.diff(peaks) <= ROUNDOFF * peaks[0])
    rng = np.random.default_rng(N)
    for _, step in (steps[0], steps[-1]):
        u = rng.uniform(0.0, 1.0, slices.shape[1:])
        assert np.min(step(u)) >= 0.0
        assert np.max(step(u)) <= np.max(u) * (1.0 + ROUNDOFF)
        u = u - 0.5
        assert np.max(np.abs(step(u))) <= np.max(np.abs(u)) * (1.0 + ROUNDOFF)


def _value_set(f):
    """coefficients.value_set, which also reads the value set a test-only
    field carries as `known`."""
    known = getattr(f, "known", None)
    return value_set(f) if known is None else known


class _Resampled(Field):
    """The field f read through its own many, without the fixed `value` or
    the checkerboard type that let the solver hold its samples: the solver
    samples it, and factors it as A0, afresh on every step.  It carries f's
    value set as `known`, for the solver to read through _value_set."""

    def __init__(self, f):
        super().__init__(f.dim, f.shape)
        self.f = f
        self.known = value_set(f)

    def many(self, X, t):
        return self.f.many(X, t)


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 1, 1)])
def test_cached_factors_match_rebuilt(monkeypatch, blocks):
    """A ConstantField A0 is factored once per solve, a checkerboard A0
    once per time cell, and a field that may change in time on every step.
    Each solve is bitwise the one that samples its fields through their
    many and factors A0 on every step: for a constant A0, and for
    checkerboard A0, b and c, which the grid reads through its own lookup
    once per time cell (A0's cells of side 0.08 hash per row, b's and c's
    of side 0.3 per box cell)."""
    g = _canonical_geometry(blocks)
    m0, N = g.structure.m0, g.N
    A = np.diag([1.0, 0.7][:m0])
    builds = []
    build = pde._ImplicitDiffusion

    def counted(*a):
        builds.append(1)
        return build(*a)
    monkeypatch.setattr(pde, "_ImplicitDiffusion", counted)
    monkeypatch.setattr(pde, "value_set", _value_set)
    rest = (g, _Bump(), [[-1.5, 1.5]] * N, 17, 0.0, 0.2)
    constant = {"A0": ConstantField(A, dim=N)}
    rough = {"A0": CheckerboardField([A, 1.5 * A], h=0.08, dim=N, seed=6),
             "b": CheckerboardField([np.full(m0, 0.5), np.full(m0, -0.4)],
                                    h=0.3, dim=N, seed=7),
             "c": CheckerboardField([np.array(-0.3), np.array(0.2)],
                                    h=0.3, dim=N, seed=8)}
    for coeffs, cells in ((constant, lambda taxis: 1),
                          (rough, lambda taxis: len(
                              {math.floor(t / 0.08) for t in taxis[:-1]}))):
        builds.clear()
        _, cached = solve_every_slice(coeffs, *rest)
        held = cells(np.linspace(0.0, 0.2, len(cached)))
        assert len(builds) == held < len(cached) - 1
        _, rebuilt = solve_every_slice(
            {k: _Resampled(f) for k, f in coeffs.items()}, *rest)
        assert len(builds) - held == len(rebuilt) - 1
        assert np.array_equal(cached, rebuilt)
    assert held > 1


class _Laminate(Field):
    """A0(x1) of period eps: lo on the first half of each period, hi on
    the second."""

    def __init__(self, eps, lo, hi):
        super().__init__(2, (1, 1))
        self.eps, self.lo, self.hi = eps, lo, hi

    def many(self, X, ts):
        upper = np.floor(2.0 * np.atleast_2d(X)[:, 0] / self.eps) % 2.0
        return np.where(upper == 0.0, self.lo, self.hi).reshape(-1, 1, 1)


def _x1_variance(sol):
    w = sol.values[-1].sum(axis=1)
    x1 = sol.axes[0]
    mean = np.sum(w * x1) / np.sum(w)
    return np.sum(w * x1 * x1) / np.sum(w) - mean * mean


def test_laminate_diffuses_as_its_harmonic_mean(proto, monkeypatch):
    """A laminate A0 of period 0.25 with values 0.25 and 1.75 homogenizes
    to the constant harmonic mean 0.4375 (Bensoussan, Lions & Papanicolaou,
    1978).  A face across a jump carries the exact two-point flux, the
    harmonic mean of its nodes' coefficients, so at 193 x 121 (8 nodes per
    period) the x1 variance at t1 = 0.75 of a solve from the 0.4375
    kernel at width 0.25 is within 0.5% of the constant solve's.  Faces
    taking the arithmetic mean read 10.8% above it."""
    abar = 0.4375
    # both solves read the laminate's value set {0.25, 1.75}, so both take
    # the step of Lambda = 1.75
    monkeypatch.setattr(pde, "value_set", lambda f: np.reshape(
        [0.25, 1.75], (2, 1, 1)))
    datum = pde.KernelDatum(point(np.zeros(2), 0.0),
                            kern.scaled_params(2.0 * abar, proto))
    rest = (proto, datum, [[-3.0, 3.0], [-1.5, 1.5]], [193, 121], 0.25,
            0.75)
    constant, laminate = (
        _x1_variance(pde.solve_cauchy({"A0": A0}, *rest))
        for A0 in (ConstantField([[abar]], dim=2),
                   _Laminate(0.25, 0.25, 1.75)))
    assert abs(laminate / constant - 1.0) < 0.005


def test_default_step_reads_the_largest_eigenvalue(proto):
    """The default step DIFFUSION_STEPS h^2 / (2 Lambda) is taken with
    Lambda the largest eigenvalue in A0's value set: a constant's value, a
    checkerboard's largest draw, wherever the draws fall; no cap applies
    without b and cross terms."""
    for A0, used in (
            (ConstantField(np.array([[2.0]]), dim=2), 2.0),
            (CheckerboardField([[[1.0]], [[3.0]]], h=10.0, dim=2, seed=0),
             3.0)):
        sol = pde.solve_cauchy({"A0": A0}, proto, _Bump(),
                               [[-1, 1], [-1, 1]], 21, 0.0, 0.05)
        assert sol.meta["Lambda"] == used
        assert sol.meta["dt_bound"] is None
        h = float(sol.axes[0][1] - sol.axes[0][0])
        step = pde.DIFFUSION_STEPS * (h * h / (2.0 * used))
        assert sol.meta["dt"] == pytest.approx(0.05 / math.ceil(0.05 / step))


def test_cross_terms_cap_the_step():
    """Where a value of A0 has an off-diagonal entry, the explicit cross
    terms cap the step at h^2 / (2 Lambda m0); a diagonal A0 sets no cap."""
    g = _canonical_geometry((2, 1))
    args = (g, _Bump(), [[-2, 2]] * 3, 21, 0.0, 0.05)
    A = np.array([[1.0, 0.3], [0.3, 1.0]])
    coeffs = {"A0": ConstantField(A, dim=3)}
    sol = pde.solve_cauchy(coeffs, *args)
    cap = 0.2 ** 2 / (2.0 * 1.3 * 2)
    assert sol.meta["dt_bound"] == pytest.approx(cap)
    assert sol.meta["dt"] <= cap
    with pytest.raises(Unstable, match="exceeds the stability bound"):
        pde.solve_cauchy(coeffs, *args, dt=1.01 * cap)
    diagonal = {"A0": ConstantField(np.diag([1.3, 1.0]), dim=3)}
    sol = pde.solve_cauchy(diagonal, *args)
    assert sol.meta["dt_bound"] is None
    assert sol.meta["dt"] == pytest.approx(0.05 / math.ceil(
        0.05 / (pde.DIFFUSION_STEPS * cap)))


def test_cross_terms_after_t0_cap_the_step():
    """Off-diagonal A0 entries that appear only after t0 (a GridField that
    is the identity at t0 and has 0.3 off the diagonal from t = 0.01) cap
    the step up front at h^2 / (2 Lambda m0), Lambda = 1.3 the largest
    eigenvalue of its samples: the default step is within the cap and the
    solve completes, finite at every time node, and a dt above it is
    refused."""
    g = _canonical_geometry((2, 1))
    box, t1 = [[-2, 2]] * 3, 0.05
    vals = np.zeros((3, 3, 3, 3, 2, 2))
    vals[..., :, 0, 0] = vals[..., :, 1, 1] = 1.0
    vals[..., 1:, 0, 1] = vals[..., 1:, 1, 0] = 0.3
    A0 = GridField([np.linspace(-2, 2, 3)] * 3, [0.0, 0.01, t1], vals)
    args = ({"A0": A0}, g, _Bump(), box, 21, 0.0, t1)
    cap = 0.2 ** 2 / (2.0 * 1.3 * 2)
    sol, slices = solve_every_slice(*args)
    assert sol.meta["dt_bound"] == pytest.approx(cap)
    assert sol.meta["dt"] <= cap
    assert np.all(np.isfinite(slices))
    with pytest.raises(Unstable, match="exceeds the stability bound"):
        pde.solve_cauchy(*args, dt=1.01 * cap)


def test_courant_cap_bounds_l1_norm_of_b():
    """With m0 = 2 the upwind step is monotone only if dt sum_i |b_i| / h
    <= 1, so the Courant cap reads the l1 norm of b; capping with max |b_i|
    alone gave values down to -0.07 of a peak of 0.5 here.  No time node
    reads below -ROUNDOFF times the peak."""
    g = _canonical_geometry((2, 1))
    coeffs = {"A0": ConstantField(np.eye(2), dim=3),
              "b": ConstantField(np.array([30.0, 40.0]), dim=3)}
    sol, slices = solve_every_slice(coeffs, g, _Bump(), [[-2, 2]] * 3, 21,
                                    0.0, 0.05)
    assert sol.meta["bmax"] == 70.0
    assert np.min(slices) >= -ROUNDOFF * np.max(slices)


def test_reaction_factor(proto, proto_coeffs):
    coeffs = dict(proto_coeffs)
    coeffs["c"] = ConstantField(np.array(-0.7), dim=2)
    sol0 = pde.solve_cauchy(proto_coeffs, proto, _Bump(1.0),
                            [[-5, 5], [-5, 5]], [41, 41], 0.0, 0.2)
    sol1 = pde.solve_cauchy(coeffs, proto, _Bump(1.0), [[-5, 5], [-5, 5]],
                            [41, 41], 0.0, 0.2)
    ratio = sol1.values[-1][20, 20] / sol0.values[-1][20, 20]
    assert abs(ratio - np.exp(-0.7 * 0.2)) < 1e-12


def test_approx_fundamental_guards_width(proto, proto_coeffs):
    with pytest.raises(SupportExceedsGrid):
        pde.approx_fundamental(proto_coeffs, proto, np.zeros(2), 0.0, 0.3,
                               [[-4, 4], [-2, 2]], [41, 41], widths=[0.01])


def test_approx_fundamental_returns_the_narrowest_solve(proto,
                                                        proto_coeffs):
    """The returned solution is the narrowest width's solve, bitwise; the
    report's spread is the sup gap between consecutive widths' final
    slices, and it holds each width's dt, widest first."""
    box, nx = [[-4, 4], [-2, 2]], [41, 61]
    sol, report = pde.approx_fundamental(proto_coeffs, proto, np.zeros(2),
                                         0.0, 0.4, box, nx, [0.25, 0.3])
    datum = pde.KernelDatum(point(np.zeros(2), 0.0),
                            kern.scaled_params(2.0, proto))
    solves = [pde.solve_cauchy(proto_coeffs, proto, datum, box, nx, w, 0.4)
              for w in (0.3, 0.25)]
    assert report["widths"] == [0.3, 0.25]
    assert np.array_equal(sol.values, solves[-1].values)
    assert sol.meta == solves[-1].meta
    assert report["spread"] == [float(np.max(np.abs(
        solves[1].values[-1] - solves[0].values[-1])))]
    assert [s["dt"] for s in report["solves"]] == [s.meta["dt"]
                                              for s in solves]


@pytest.mark.parametrize("nx", [[81], [81, 81, 81], [1, 81]])
def test_approx_fundamental_refuses_bad_nx(proto, proto_coeffs, nx):
    """The box and nx are read by the solver's own helper: the wrong number
    of axes, or an axis of fewer than MIN_AXIS_NODES nodes, is the solver's
    ValueError, raised before the width check (the width 0.01 would fail
    it), not an IndexError, a SupportExceedsGrid or a division by zero."""
    with pytest.raises(ValueError, match="need 2 axes of at least 2 nodes"):
        pde.approx_fundamental(proto_coeffs, proto, np.zeros(2), 0.0, 0.3,
                               [[-4, 4], [-2, 2]], nx, widths=[0.01])


# -- the diffusion as first written, one loop per term ---------------------


def _ref_face(a, b):
    """The harmonic mean of two nodes' coefficients, a where they agree."""
    out = a.copy()
    jump = a != b
    out[jump] = 2.0 * a[jump] * b[jump] / (a[jump] + b[jump])
    return out


def _ref_diffusion(up, A, hs, m0):
    sh = pde._shift
    Ap = pde._pad_edge(A, up.ndim)
    out = np.zeros(tuple(n - 2 for n in up.shape))
    for i in range(m0):
        a_i = Ap[..., i, i]
        flux_hi = _ref_face(sh(a_i, i, 0), sh(a_i, i, 1)) \
            * (sh(up, i, 1) - sh(up, i, 0)) / hs[i]
        flux_lo = _ref_face(sh(a_i, i, -1), sh(a_i, i, 0)) \
            * (sh(up, i, 0) - sh(up, i, -1)) / hs[i]
        out += (flux_hi - flux_lo) / hs[i]
    for i in range(m0):
        for j in range(m0):
            if i == j:
                continue
            du_j_p = (np.roll(up, -1, axis=j) - np.roll(up, 1, axis=j)) \
                / (2.0 * hs[j])
            Gp = Ap[..., i, j] * du_j_p
            out += (sh(Gp, i, 1) - sh(Gp, i, -1)) / (2.0 * hs[i])
    return out
