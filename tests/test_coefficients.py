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
