import numpy as np
import pytest

from kolmo import kernel as kern
from kolmo import pde
from kolmo.coefficients import ConstantField
from kolmo.errors import BoundaryNode, OutOfDomain, SupportExceedsGrid, \
    Unstable
from kolmo.group import Geometry, point, prototype_geometry
from kolmo.structure import BlockStructure

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


def kernel_solution(proto, proto_params, nx, nt, box=(-4, 4, -2, 2),
                    tspan=(0.3, 0.5)):
    axes = [np.linspace(box[0], box[1], nx), np.linspace(box[2], box[3], nx)]
    ta = np.linspace(*tspan, nt)
    pts = pde._grid_points(axes)
    pole = point(np.zeros(2), 0.0)
    vals = np.stack([
        kern.gamma_many(np.column_stack([pts, np.full(len(pts), t)]),
                        pole, proto_params).reshape(nx, nx) for t in ta])
    return pde.GridSolution(axes=axes, taxis=ta, values=vals)


def test_apply_L_residual_refines(proto, proto_params, proto_coeffs):
    errs = []
    for nx, nt in ((41, 81), (81, 321)):
        u = kernel_solution(proto, proto_params, nx, nt)
        worst = max(abs(pde.apply_L(u, idx, 1, proto_coeffs, proto))
                    for idx in [(nx // 2 + nx // 8, nx // 2 - nx // 8),
                                (nx // 3, nx // 3)])
        errs.append(worst)
    assert errs[1] < 0.5 * errs[0]


def test_apply_L_rejects_boundary(proto, proto_coeffs, proto_params):
    u = kernel_solution(proto, proto_params, 21, 5)
    with pytest.raises(BoundaryNode):
        pde.apply_L(u, (0, 10), 1, proto_coeffs, proto)
    with pytest.raises(BoundaryNode):
        pde.apply_L(u, (10, 10), 4, proto_coeffs, proto)


def test_adjoint_on_constants(proto, proto_coeffs):
    axes = [np.linspace(-1, 1, 11)] * 2
    v = pde.GridSolution(axes=axes, taxis=np.linspace(0, 0.1, 5),
                         values=np.ones((5, 11, 11)))
    # L* 1 = (c - Tr B) = 0 with c absent and trace-free B
    assert pde.apply_L_adjoint(v, (5, 5), 1, proto_coeffs, proto) == 0.0


def test_lie_derivative_matches_operator_identity(proto, proto_params,
                                                  proto_coeffs):
    # K Gamma = 0 forces Y Gamma = -d11 Gamma away from the pole
    u = kernel_solution(proto, proto_params, 161, 81)
    x, t = np.array([0.4, -0.2]), 0.4
    Y = pde.lie_derivative(u, x, t, proto)
    eps = 1e-5
    pole = point(np.zeros(2), 0.0)

    def G(x1):
        return kern.gamma_K_lambda(point(np.array([x1, x[1]]), t), pole,
                                   proto_params)
    d11 = (G(x[0] + eps) - 2.0 * G(x[0]) + G(x[0] - eps)) / eps ** 2
    assert abs(Y + d11) / abs(d11) < 0.1


def test_lie_derivative_out_of_domain(proto, proto_params):
    u = kernel_solution(proto, proto_params, 21, 5)
    with pytest.raises(OutOfDomain):
        pde.lie_derivative(u, np.array([3.9, 0.0]), 0.4, proto, s=0.5)


def test_solver_rejects_unstable_dt(proto, proto_coeffs):
    with pytest.raises(Unstable):
        pde.solve_cauchy(proto_coeffs, proto, lambda x: 0.0,
                         [[-1, 1], [-1, 1]], 41, 0.0, 0.1, dt=0.1)


def test_solver_rejects_short_axis(proto, proto_coeffs):
    with pytest.raises(ValueError, match="at least 2 nodes"):
        pde.solve_cauchy(proto_coeffs, proto, lambda x: 0.0,
                         [[-1, 1], [-1, 1]], [1, 21], 0.0, 0.1)


def test_solver_positivity_and_mass(proto, proto_params, proto_coeffs):
    w, t1 = 0.2, 0.5
    pole = point(np.zeros(2), 0.0)

    class D:
        def many(self, X, t):
            pts = np.column_stack([X, np.full(len(X), w)])
            return kern.gamma_many(pts, pole, proto_params)
    with pytest.warns(UserWarning):
        sol = pde.solve_cauchy(proto_coeffs, proto, D(),
                               [[-4, 4], [-2, 2]], [61, 61], w, t1)
    assert np.all(sol.values >= 0.0)  # monotone scheme keeps positivity
    hs = sol.hs
    mass0 = sol.values[0].sum() * hs[0] * hs[1]
    mass1 = sol.values[-1].sum() * hs[0] * hs[1]
    assert abs(mass1 - mass0) / mass0 < 1e-3  # Tr B = 0: mass conserved


def _scipy_transport(u, coords):
    """The remap as map_coordinates(order=3, mode="constant") clipped to the
    range of the surrounding corners of the zero-padded slice."""
    from scipy.ndimage import map_coordinates

    u3 = map_coordinates(u, coords, order=3, mode="constant", cval=0.0)
    up = np.pad(u, 1)
    base = np.floor(coords).astype(int)
    lo = np.full(coords.shape[1], np.inf)
    hi = np.full(coords.shape[1], -np.inf)
    for mask in range(1 << u.ndim):
        idx = tuple(np.clip(base[k] + ((mask >> k) & 1) + 1, 0,
                            u.shape[k] + 1) for k in range(u.ndim))
        lo = np.minimum(lo, up[idx])
        hi = np.maximum(hi, up[idx])
    return np.clip(u3, lo, hi).reshape(u.shape)


@pytest.mark.parametrize("blocks, dims", [
    ((1, 1), (3, 17)), ((2, 1), (9, 3, 8)), ((1, 1, 1), (7, 6, 3)),
    ((1, 1), (2, 17))])
def test_transport_matches_scipy_reference(blocks, dims):
    from scipy.ndimage import spline_filter1d

    g = _canonical_geometry(blocks)
    rng = np.random.default_rng(sum(dims))
    axes = [np.linspace(-1.0, 1.0, d) for d in dims]
    hs = [a[1] - a[0] for a in axes]
    # a long step shears the feet across several cells and out of the box
    feet = pde._grid_points(axes) @ g.exp_drift(-0.6).T
    coords = np.stack([(feet[:, k] + 1.0) / hs[k]
                       for k in range(len(dims))])
    last = np.array(dims)[:, None] - 1.0
    assert np.any(coords < -0.5) and np.any(coords > last + 0.5)
    for k, d in enumerate(dims):
        hit = rng.choice(coords.shape[1], 6, replace=False)
        coords[k, hit] = [0.0, 0.0, d - 1.0, d - 1.0, -1e-15, d - 1 + 2e-15]

    op = pde._Transport(coords, dims)
    for P, d in zip(op.prefilter, dims):
        ref = spline_filter1d(np.eye(d), order=3, axis=0, mode="constant")
        assert np.max(np.abs(P - ref)) <= 1e-14
    for _ in range(3):
        u = rng.normal(size=dims)
        err = np.max(np.abs(op(u) - _scipy_transport(u, coords)))
        assert err <= 1e-14 * np.max(np.abs(u))


@pytest.mark.filterwarnings("ignore:boundary magnitude")
def test_solver_chain_n3_positive():
    g = _canonical_geometry((1, 1, 1))
    sol = pde.solve_cauchy({"A0": ConstantField(np.eye(1), dim=3)}, g,
                           lambda x: np.exp(-8.0 * x @ x),
                           [[-2, 2], [-2, 2], [-2, 2]], 21, 0.0, 0.1)
    assert sol.values.shape[1:] == (21, 21, 21)
    assert len(sol.taxis) > 3
    assert np.all(np.isfinite(sol.values))
    peak = np.max(np.abs(sol.values))
    assert np.min(sol.values) >= -ROUNDOFF * peak
    assert np.max(np.abs(sol.values[-1] - sol.values[0])) > 1e-3 * peak


def test_reaction_factor(proto, proto_coeffs):
    coeffs = dict(proto_coeffs)
    coeffs["c"] = ConstantField(np.array(-0.7), dim=2)
    sol0 = pde.solve_cauchy(proto_coeffs, proto,
                            lambda x: np.exp(-x @ x), [[-5, 5], [-5, 5]],
                            [41, 41], 0.0, 0.2)
    sol1 = pde.solve_cauchy(coeffs, proto,
                            lambda x: np.exp(-x @ x), [[-5, 5], [-5, 5]],
                            [41, 41], 0.0, 0.2)
    ratio = sol1.values[-1][20, 20] / sol0.values[-1][20, 20]
    assert abs(ratio - np.exp(-0.7 * 0.2)) < 1e-12


def test_weak_residual_refines(proto, proto_params, proto_coeffs):
    res = []
    for nx, nt in ((41, 36), (81, 71)):
        u = kernel_solution(proto, proto_params, nx, nt, box=(-3, 3, -2, 2),
                            tspan=(0.25, 0.6))
        tf = pde.TestFunction(center=point(np.array([0.8, -0.3]), 0.55),
                              scale=0.45, geometry=proto)
        res.append(abs(pde.weak_residual(u, tf, proto_coeffs, proto)))
    assert res[1] < 0.5 * res[0]


def test_testfunction_support_and_batch(proto):
    tf = pde.TestFunction(center=point(np.zeros(2), 0.5), scale=0.5,
                          geometry=proto)
    assert tf(point(np.zeros(2), 0.4)) > 0.0
    assert tf(point(np.array([3.0, 0.0]), 0.4)) == 0.0
    assert tf(point(np.zeros(2), 0.9)) == 0.0
    X = np.array([[0.0, 0.0], [3.0, 0.0], [0.1, 0.05]])
    batch = tf.many(X, 0.4)
    scalars = [tf(point(x, 0.4)) for x in X]
    assert np.allclose(batch, scalars, atol=1e-15)


def test_approx_fundamental_guards_width(proto, proto_coeffs):
    with pytest.raises(SupportExceedsGrid):
        pde.approx_fundamental(proto_coeffs, proto, np.zeros(2), 0.0, 0.3,
                               [[-4, 4], [-2, 2]], [41, 41], widths=[0.01])


def test_approx_fundamental_vanishing_past(proto, proto_coeffs):
    _, report, ev = pde.approx_fundamental(
        proto_coeffs, proto, np.zeros(2), 0.0, 0.4,
        [[-4, 4], [-2, 2]], [41, 61], widths=[0.3, 0.25])
    assert ev(np.array([0.3, 0.1]), -0.5) == 0.0
    assert ev(np.array([0.3, 0.1]), 0.0) == 0.0
    assert ev(np.array([0.0, 0.0]), 0.4) > 0.0
    assert len(report["spread"]) == 1


def test_dilation_invariance_polynomials(proto):
    u = pde.Poly({(2, 0, 0): 1.0, (1, 1, 0): 0.5, (0, 1, 1): -2.0,
                  (3, 0, 0): 0.7, (0, 2, 0): 1.1, (0, 0, 2): 0.3}, 2)
    for r in (2.0, 0.37, 5.0):
        assert pde.dilation_invariance_check(r, u, proto) < 1e-10


def test_principal_part_poly_prototype(proto):
    # K(x1^2) = 2, K(x2) = x1, K(t) = -1
    assert pde.principal_part_poly(
        pde.Poly({(2, 0, 0): 1.0}, 2), proto).terms == {(0, 0, 0): 2.0}
    assert pde.principal_part_poly(
        pde.Poly({(0, 1, 0): 1.0}, 2), proto).terms == {(1, 0, 0): 1.0}
    assert pde.principal_part_poly(
        pde.Poly({(0, 0, 1): 1.0}, 2), proto).terms == {(0, 0, 0): -1.0}
