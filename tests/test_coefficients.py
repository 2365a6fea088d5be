import numpy as np
import pytest

from kolmo import coefficients as coeff
from kolmo.errors import WindowUnderflow
from kolmo.group import prototype_geometry


def probe_grid(n=41, T=1.0):
    """Sample lattice with irrational offsets so no point sits on a
    checkerboard cell boundary."""
    off = 0.25 * np.sqrt(2.0) / 1000.0
    xs = np.linspace(-1.0, 1.0, n) + off
    X1, X2 = np.meshgrid(xs, xs, indexing="ij")
    X = np.column_stack([X1.ravel(), X2.ravel()])
    ts = np.full(len(X), 0.5 * T + np.sqrt(3.0) / 1000.0)
    return X, ts


def test_constant_field_fixed_by_mollification():
    f = coeff.ConstantField(np.array([[1.5]]), dim=2)
    fm = coeff.mollify(f, eps=0.1, T=1.0)
    v = fm(np.array([0.2, -0.3]), 0.5)
    assert abs(v[0, 0] - 1.5) < 1e-14


def test_checkerboard_reproducible_and_bounded():
    f = coeff.checkerboard_spd(1.0, 2.0, m0=1, dim=2, h=0.25, seed=11)
    X, ts = probe_grid()
    a = np.asarray(f.many(X, ts)).reshape(len(X), -1)[:, 0]
    b = np.asarray(f.many(X, ts)).reshape(len(X), -1)[:, 0]
    assert np.array_equal(a, b)
    assert a.min() >= 1.0 and a.max() <= 2.0
    assert len(np.unique(a)) > 1  # genuinely discontinuous


def _column_stack_hash(f, X, ts):
    """Reference checkerboard lookup: the cells of column_stack([X, ts])
    mixed one column at a time, as the field's values were first drawn."""
    ts = np.broadcast_to(np.asarray(ts, dtype=float), (len(X),))
    cells = np.floor(np.column_stack([X, ts]) / f.h).astype(np.int64) \
        .view(np.uint64)
    acc = np.full(len(X), (f.seed + 0x9E3779B97F4A7C15) % 2 ** 64,
                  dtype=np.uint64)
    for col in cells.T:
        acc ^= col
        acc *= np.uint64(0xBF58476D1CE4E5B9)
        acc ^= acc >> np.uint64(31)
    return f.values[(acc % np.uint64(len(f.values))).astype(np.int64)]


def _hash_batches(dim, h, rng):
    """(name, X, ts, whether the lookup must hash per row) for the
    checkerboard lookup: dense and sparse batches, one inside a single
    cell, and rows holding inf and NaN, with per-row and scalar times."""
    dense = np.concatenate([rng.uniform(-0.2, 0.45, size=(3000, dim)),
                            h * rng.integers(-1, 2, size=(300, dim))])
    sparse = np.concatenate([rng.normal(scale=100.0, size=(500, dim)),
                             h * rng.integers(-12, 12, size=(200, dim)),
                             -np.abs(rng.normal(size=(100, dim)))])
    one = rng.uniform(1.01 * h, 1.99 * h, size=(50, dim))
    bad = dense.copy()
    bad[[3, 50, 700], [0, dim - 1, 0]] = [np.inf, np.nan, -np.inf]
    out = []
    for name, X, sparse_rows in (("dense", dense, False),
                                 ("sparse", sparse, True),
                                 ("one cell", one, False),
                                 ("non-finite", bad, True)):
        per_row = rng.uniform(-0.2, 0.45, len(X))
        per_row[:len(X) // 10] = h * rng.integers(-1, 2, len(X) // 10)
        for t in (per_row, -0.5, 0.3, 0.0):
            out.append((name, X, t, sparse_rows))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_checkerboard_hash_matches_column_stack_reference(dim):
    """The cell lookup draws bitwise the cells of the reference, with 2
    and 3 values, whether it hashes the bounding box of a dense batch or
    each row of a sparse one, with negative coordinates, coordinates on
    cell edges (exact multiples of h), and both a scalar time and one time
    per row.  A batch inside one cell takes the box; rows holding inf or
    NaN, whose cells span about 2**64 box cells, take the per-row hash."""
    h = 0.25
    values = [np.array([[1.0]]), np.array([[2.5]]), np.array([[0.7]])]
    batches = _hash_batches(dim, h, np.random.default_rng(dim))
    for count in (2, 3):
        f = coeff.CheckerboardField(values[:count], h=h, dim=dim, seed=29)
        for name, X, t, sparse_rows in batches:
            with np.errstate(invalid="ignore"):
                want = _column_stack_hash(f, X, t)
                cells = coeff.CellLookup(X, t, h)
                got = f.many(X, t)
                one = f(X[7], np.broadcast_to(t, len(X))[7])
            assert (cells.box is None) == sparse_rows, name
            assert np.array_equal(f.values[f.index(cells)], want), name
            assert np.array_equal(got, want), name
            assert np.array_equal(one, want[7]), name
            if name == "sparse":
                assert len(np.unique(got)) == count


def test_check_ellipticity_checkerboard():
    f = coeff.checkerboard_spd(1.0, 2.0, m0=1, dim=2, h=0.25, seed=11)
    rng = np.random.default_rng(0)
    rep = coeff.check_ellipticity(f, rng.uniform(-1, 1, size=(500, 2)),
                                  rng.uniform(0, 1, 500))
    assert len(rep["violations"]) == 0
    assert 1.0 <= rep["lambda_hat"] <= rep["Lambda_hat"] <= 2.0


def test_mollification_preserves_interval_and_converges():
    f = coeff.checkerboard_spd(1.0, 2.0, m0=1, dim=2, h=0.25, seed=11)
    X, ts = probe_grid(n=33)
    raw = np.asarray(f.many(X, ts)).reshape(len(X), -1)[:, 0]
    l1 = []
    for eps in (0.2, 0.1, 0.05):
        fm = coeff.mollify(f, eps=eps, T=1.0)
        sm = np.asarray(fm.many(X, ts)).reshape(len(X), -1)[:, 0]
        assert sm.min() >= 1.0 - 1e-12
        assert sm.max() <= 2.0 + 1e-12
        l1.append(float(np.mean(np.abs(sm - raw))))
    assert l1[0] > l1[1] > l1[2]


def test_mollified_checkerboard_within_interval_up_to_ulps():
    """Convex combination of lam*I and Lam*I: the discrete weights sum to 1
    only up to rounding, so the bounds hold to a few ulps, not exactly."""
    lam, Lam = 0.5, 1.5
    f = coeff.checkerboard_spd(lam, Lam, m0=1, dim=2, h=0.25, seed=5)
    X, ts = probe_grid(n=33)
    tol = 4 * np.finfo(float).eps
    for eps in (0.2, 0.1, 0.05):
        fm = coeff.mollify(f, eps=eps, T=1.0)
        sm = np.asarray(fm.many(X, ts)).ravel()
        assert lam * (1.0 - tol) <= sm.min()
        assert sm.max() <= Lam * (1.0 + tol)
        assert sm.min() < Lam and sm.max() > lam


def test_mollification_preserves_sign():
    f = coeff.CheckerboardField([np.array(-1.5), np.array(-0.2)],
                                h=0.25, dim=2, seed=3)
    fm = coeff.mollify(f, eps=0.1, T=1.0)
    X, ts = probe_grid(n=21)
    sm = np.asarray(fm.many(X, ts)).ravel()
    assert np.max(sm) <= 0.0


def _tensor(a, dim):
    """Rows of the dim-fold tensor grid of the 1-d array a."""
    return np.stack([g.ravel() for g in
                     np.meshgrid(*([a] * dim), indexing="ij")], axis=1)


def _bump(r2):
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def _scaled_mollifier(eps, T, dim, nodes=16):
    """The mollifier quadrature built from unit-mass bumps psi_eps and
    rho_eps, each scaled onto its support and normalized by a numerically
    integrated mass (80 Gauss-Legendre nodes per axis for the ball, 200 for
    the interval), then renormalized.  Returns (Y, WY, TAU, WT)."""
    u80, w80 = np.polynomial.legendre.leggauss(80)
    U80 = _tensor(u80, dim)
    psi_norm = np.sum(_tensor(w80, dim).prod(axis=1)
                      * _bump(np.sum(U80 * U80, axis=1)))
    u200, w200 = np.polynomial.legendre.leggauss(200)
    bump_norm = np.sum(w200 * _bump(u200 * u200))

    def psi_eps(y):
        y = y / eps
        return _bump(np.sum(y * y, axis=1)) / psi_norm / eps ** dim

    def rho_eps(tau):
        u = (tau / eps - T / 2.0) / (T / 4.0)
        return _bump(u * u) / (bump_norm * T / 4.0) / eps

    g, w = np.polynomial.legendre.leggauss(nodes)
    Y = eps * _tensor(g, dim)
    WY = _tensor(w, dim).prod(axis=1) * eps ** dim * psi_eps(Y)
    lo, hi = eps * T / 4.0, eps * 3.0 * T / 4.0
    TAU = 0.5 * (hi - lo) * g + 0.5 * (hi + lo)
    WT = 0.5 * (hi - lo) * w * rho_eps(TAU)
    return Y, WY / WY.sum(), TAU, WT / WT.sum()


class _Smooth(coeff.Field):
    """A smooth scalar field bounded away from 0, so relative errors of the
    mollified values measure the quadrature alone."""

    def __init__(self, dim):
        super().__init__(dim, ())

    def many(self, X, ts):
        return (2.0 + np.sin(3.0 * X.sum(axis=1) + 1.0)
                * np.cos(2.0 * ts) + 0.3 * ts)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("eps", [1.0, 0.2, 0.05])
@pytest.mark.parametrize("T", [1.0, 0.3])
def test_mollifier_weights_match_scaled_bumps(dim, eps, T):
    """The mollifier's eps- and T-free weights at the nodes eps u and
    eps T (1/2 + g/4) give the integral of the normalized, scaled bumps."""
    f = _Smooth(dim)
    rng = np.random.default_rng(dim)
    X, ts = rng.normal(size=(7, dim)), rng.uniform(0.0, 1.0, 7)
    Y, WY, TAU, WT = _scaled_mollifier(eps, T, dim)
    want = np.zeros(len(X))
    for tau, wt in zip(TAU, WT):
        for i, (x, t) in enumerate(zip(X, ts)):
            vals = f.many(x - Y, np.full(len(Y), (1.0 - eps) * t + tau))
            want[i] += wt * (vals @ WY)
    got = coeff.mollify(f, eps=eps, T=T).many(X, ts)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


def test_mollified_window_guard():
    f = coeff.ConstantField(np.array(1.0), dim=1, window=(0.0, 1.0))
    fm = coeff.mollify(f, eps=0.2, T=1.0)
    with pytest.raises(WindowUnderflow):
        fm(np.zeros(1), 1.5)


def test_modulus_of_continuity_lipschitz():
    f = coeff.ExprField(lambda x, t: x[0], dim=2, shape=())
    radii = np.array([0.1, 0.2, 0.4])
    om = coeff.modulus_of_continuity(f, prototype_geometry(),
                                     box=[(-1, 1), (-1, 1)],
                                     twindow=(0.0, 1.0), radii=radii,
                                     n_pairs=20000, seed=0)
    assert np.all(om <= 1.05 * radii)
    assert np.all(np.diff(om) >= 0.0)


def test_sample_pairs_matches_pairwise_loop():
    """The batched sampler keeps the pairs, in order, that a loop over the
    candidates with the scalar group calls keeps."""
    g = prototype_geometry()
    box = np.array([(-1.0, 1.0), (-1.0, 1.0)])
    twindow = (0.0, 1.0)

    def loop(r, n, rng):
        zs, ws = [], []
        while len(zs) < n:
            x = rng.uniform(box[:, 0], box[:, 1], size=(max(64, n), 2))
            t = rng.uniform(*twindow, size=max(64, n))
            u = rng.uniform(-1.0, 1.0, size=(max(64, n), 3))
            for xi, ti, ui in zip(x, t, u):
                if g.hom_norm(ui) >= 1.0:
                    continue
                z = np.append(xi, ti)
                w = g.compose(z, g.dilate(r, ui))
                if np.any(w[:-1] < box[:, 0]) or np.any(w[:-1] > box[:, 1]):
                    continue
                if not twindow[0] <= w[-1] <= twindow[1]:
                    continue
                zs.append(z)
                ws.append(w)
                if len(zs) >= n:
                    break
        return np.array(zs), np.array(ws)

    for r, n in ((0.1, 30), (0.8, 200)):
        zs, ws = coeff._sample_pairs(g, box, twindow, r, n,
                                     np.random.default_rng(9))
        zl, wl = loop(r, n, np.random.default_rng(9))
        assert zs.shape == (n, 3)
        assert np.array_equal(zs, zl) and np.array_equal(ws, wl)
        assert np.all(g.distance(zs, ws) < r)


def test_dini_integral_of_linear_modulus():
    radii = np.linspace(0.01, 1.0, 400)
    res = coeff.dini_integral(radii, radii.copy())
    assert abs(res["integral"] - 0.99) < 1e-6


def test_holder_seminorm_of_coordinate():
    f = coeff.ExprField(lambda x, t: x[0], dim=2, shape=())
    s = coeff.holder_seminorm(f, prototype_geometry(), alpha=1.0,
                              box=[(-1, 1), (-1, 1)], twindow=(0.0, 1.0),
                              n_pairs=20000, seed=1)
    assert 0.8 <= s <= 1.1


def test_rescale_powers():
    g = prototype_geometry()
    fields = {
        "A0": coeff.ExprField(lambda x, t: np.array([[1.0 + 0.1 * x[0]]]),
                              dim=2, shape=(1, 1)),
        "c": coeff.ExprField(lambda x, t: x[0], dim=2, shape=()),
    }
    r = 0.5
    rs = coeff.rescale(fields, g, r)
    x = np.array([0.4, 0.2])
    xd = g.dilate_space(r, x)
    assert np.allclose(rs["A0"](x, 0.1), fields["A0"](xd, r * r * 0.1))
    assert np.allclose(rs["c"](x, 0.1),
                       r * r * fields["c"](xd, r * r * 0.1))
