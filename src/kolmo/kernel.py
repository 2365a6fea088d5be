"""Exact constant-coefficient fundamental solutions.

The model operator with diffusion scale lam acts as
(lam/2) * Laplacian on the first m0 coordinates + <Bx, D> - d/dt, and its
kernel is an anisotropic Gaussian parameterized by the covariance integral
C(t) = int_0^t E(s) Abar E(s)^T ds with E(s) = exp(-sB) and Abar the
zero-padding of A0 = I_{m0} (structure.covariance_matrix, beside the
Kalman check its positivity answers).  The lam = 2 member is the
principal-part kernel with prefactor (4 pi)^{-N/2} and exponent
-<C^{-1}x, x>/4.

B is canonical, so delta_r B delta_r^{-1} = r^2 B and
C(t) = delta_sqrt(t) C(1) delta_sqrt(t), delta the spatial dilation
(Lanconelli & Polidoro 1994).  One Cholesky factor L1 of C(1) therefore
serves every t: delta_sqrt(t) L1 factors C(t), and log det C(t) is
log det C(1) + Q log t, so the kernel keeps full precision at every scale.
"""

import math

import numpy as np

from .errors import ArgumentError, NotSPD
from .group import Geometry, grid, point
# also read as kernel.covariance_matrix: perfbench/tracer.py wraps it there
from .structure import covariance_matrix

# The most rows gamma_many evaluates at once; more are taken block by
# block, which holds its scratch near 0.5 MB on the prototype.
GAMMA_BLOCK = 4096


def covariance(t, B, A0):
    """C(t) at one time t > 0; NotSPD if it has no Cholesky factor."""
    if t <= 0.0:
        raise NotSPD(f"covariance requested at t = {t} <= 0")
    C = covariance_matrix(t, B, A0)
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(f"C({t}) is not positive definite") from exc
    return C


class KernelParams:
    """Diffusion scale, drift matrix and block structure of a model kernel,
    with the Cholesky factor chol1 of C(1), its inverse inv1 and
    logdet1 = log det C(1): the one factor every time reads through the
    dilation.  NotSPD if C(1) has no Cholesky factor."""

    def __init__(self, lam, geometry: Geometry):
        if not lam > 0.0:
            raise ArgumentError(f"lam must be positive, got {lam!r}")
        self.lam = lam
        self.geometry = geometry
        try:
            self.chol1 = np.linalg.cholesky(covariance_matrix(
                1.0, geometry.B, np.eye(geometry.structure.m0)))
        except np.linalg.LinAlgError as exc:
            raise NotSPD("C(1) is not positive definite") from exc
        self.inv1 = np.linalg.inv(self.chol1)
        self.logdet1 = 2.0 * float(np.sum(np.log(np.diag(self.chol1))))

    def cov(self, t):
        return covariance(t, self.geometry.B,
                          np.eye(self.geometry.structure.m0))


def scaled_params(lam, geometry):
    """Kernel of the lam-scaled model operator; lam = 2 is the principal
    part's kernel (unit diffusion)."""
    return KernelParams(lam=lam, geometry=geometry)


def law_points(t, G, params: KernelParams):
    """Rows (sqrt(lam) delta_sqrt(t) L1 g, t), L1 the factor of C(1), one
    per time t and row g of standard normals G: draws from the law of the
    kernel with its pole at the origin, so the kernel stays representable
    at every scale."""
    Y = np.einsum("ij,nj->ni", params.chol1, G) * np.sqrt(params.lam)
    return point(params.geometry.dilate_space(np.sqrt(t), Y), t)


def quad_logdet(w, params: KernelParams):
    """<C(t)^{-1} x, x> and log det C(t) for rows w = (x, t) with t > 0,
    read through the one factor L1 of C(1): |L1^{-1} delta_{1/sqrt(t)} x|^2
    and log det C(1) + Q log t.  Where the dilation overflows, a zero
    coordinate still contributes 0 and a row with an infinite dilated
    coordinate reads +inf.  Every step is row by row, so each row's
    numbers are those of a one-row call."""
    x, t = w[:, :-1], w[:, -1]
    g = params.geometry
    with np.errstate(over="ignore", invalid="ignore"):
        u = g.dilate_space(1.0 / np.sqrt(t), x)
        u[x == 0.0] = 0.0
        y = np.einsum("ij,nj->ni", params.inv1, u)
        quad = np.einsum("ij,ij->i", y, y)
    quad[np.isinf(u).any(axis=1)] = np.inf
    return quad, params.logdet1 + g.structure.Q * np.log(t)


def gamma_many(points, zeta, params: KernelParams, log=False):
    """Kernel at each row of points ([x..., t]) with pole zeta, evaluated at
    zeta^{-1} o z; zeta is one pole or one per row.  With log=True the
    log-kernel is returned (-inf off the support), avoiding underflow;
    without it a value past the largest double is inf.  Where the dilation
    delta_{1/sqrt(t)} overflows, a zero coordinate contributes 0, so the
    pole's row stays finite, and a row with an infinite dilated coordinate
    reads 0 (-inf with log=True).  Neither warns.
    Rows are evaluated GAMMA_BLOCK at a time, a per-row pole sliced with
    its rows; each row's numbers are its own, so the blocks change no
    value, only the scratch held at once."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    zeta = np.asarray(zeta, dtype=float)
    n = max(len(points), len(zeta) if zeta.ndim == 2 else 1)
    if n <= GAMMA_BLOCK:
        return _gamma_block(points, zeta, params, log)
    out = np.empty(n)
    for start in range(0, n, GAMMA_BLOCK):
        rows = slice(start, start + GAMMA_BLOCK)
        out[rows] = _gamma_block(_rows(points, rows), _rows(zeta, rows),
                                 params, log)
    return out


def _rows(a, rows):
    """The rows of a per-row array; a itself where it is one point."""
    return a[rows] if a.ndim == 2 and len(a) > 1 else a


@np.errstate(over="ignore", invalid="ignore")
def _gamma_block(points, zeta, params, log):
    g = params.geometry
    w = g.compose(g.inverse(zeta), points)
    lg = np.full(w.shape[0], -np.inf)
    pos = w[:, -1] > 0.0
    if pos.any():
        wp = w[pos]
        quad, logdet = quad_logdet(wp, params)
        lg[pos] = (-0.5 * g.N * math.log(2.0 * math.pi * params.lam)
                   - 0.5 * logdet - quad / (2.0 * params.lam))
    return lg if log else np.exp(lg)


def gamma_K_lambda(z, zeta, params: KernelParams):
    """Kernel value at the point z with pole zeta: the one-row wrapper of
    gamma_many."""
    return float(gamma_many(z, zeta, params)[0])


# -- semigroup / reproduction check -----------------------------------------

REPRODUCTION_NODES = 8     # Gauss-Hermite nodes per axis


def _gauss_product(x, t, y, t0, s, params):
    """Precision-form product of the two kernel factors as Gaussians in the
    intermediate variable; returns (P, mu) of the product Gaussian."""
    g = params.geometry
    lam = params.lam
    E1 = g.exp_drift(t - s)
    C1 = params.cov(t - s)
    C2 = params.cov(s - t0)
    P1 = (E1.T @ np.linalg.solve(C1, E1)) / lam
    P2 = np.linalg.inv(C2) / lam
    c1 = g.exp_drift(-(t - s)) @ x  # E(t-s)^{-1} x
    c2 = g.exp_drift(s - t0) @ y
    P = P1 + P2
    mu = np.linalg.solve(P, P1 @ c1 + P2 @ c2)
    return P, mu


def _log_reproduction_quadrature(x, t, y, t0, s, params, nodes):
    """log of the Gauss-Hermite value of
    int Gamma(x,t; xi,s) Gamma(xi,s; y,t0) dxi, all nodes in one batch."""
    g = params.geometry
    P, mu = _gauss_product(np.asarray(x, float), t, np.asarray(y, float),
                           t0, s, params)
    L = np.linalg.cholesky(np.linalg.inv(P))
    u, w = np.polynomial.hermite.hermgauss(nodes)
    U, logW = (grid([a] * g.N) for a in (u, np.log(w)))
    logW = logW.sum(axis=1)

    poles = point(mu + math.sqrt(2.0) * (U @ L.T), np.full(len(U), s))
    lg1 = gamma_many(point(x, t), poles, params, log=True)
    lg2 = gamma_many(poles, point(y, t0), params, log=True)
    terms = logW + lg1 + lg2 + np.einsum("ij,ij->i", U, U)
    top = float(terms.max())
    log_scale = 0.5 * g.N * math.log(2.0) + float(np.sum(np.log(np.diag(L))))
    return log_scale + top + math.log(float(np.sum(np.exp(terms - top))))


def reproduction_check(x, t, y, t0, s, params):
    """Chapman-Kolmogorov identity across the intermediate time s.

    rhs integrates the product of kernels by Gauss-Hermite quadrature
    centered and scaled by the analytic Gaussian-product moments; lhs is the
    closed form.  Both are compared in the log domain, so the check keeps
    its meaning where the kernel underflows.  The integrand divided by the
    Hermite weight is constant for the model kernel, so any node count is
    exact up to rounding and one pass at REPRODUCTION_NODES suffices.
    """
    if not t0 < s < t:
        raise ArgumentError("need t0 < s < t")
    log_lhs = float(gamma_many(point(x, t), point(y, t0), params,
                               log=True)[0])
    log_rhs = _log_reproduction_quadrature(x, t, y, t0, s, params,
                                           REPRODUCTION_NODES)
    try:
        rel_err = abs(math.expm1(log_rhs - log_lhs))
    except OverflowError:   # log_rhs exceeds log_lhs by more than ~709.78
        rel_err = math.inf
    return {"lhs": math.exp(log_lhs), "rhs": math.exp(log_rhs),
            "log_lhs": log_lhs, "log_rhs": log_rhs, "rel_err": rel_err}

