"""Exact constant-coefficient fundamental solutions.

The model operator with diffusion scale lam acts as
(lam/2) * Laplacian on the first m0 coordinates + <Bx, D> - d/dt, and its
kernel is an anisotropic Gaussian parameterized by the covariance integral
C(t) = int_0^t E(s) Abar E(s)^T ds with E(s) = exp(-sB) and Abar the
zero-padding of A0 = I_{m0}.  The lam = 2 member is the principal-part
kernel with prefactor (4 pi)^{-N/2} and exponent -<C^{-1}x, x>/4.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NotSPD
from .group import Geometry, point


def _pad_A0(A0, N):
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    m0 = A0.shape[0]
    Abar = np.zeros((N, N))
    Abar[:m0, :m0] = A0
    return Abar


def covariance_poly_coeffs(B, A0):
    """Exact polynomial C(t) = sum_p t^p M_p for nilpotent B.

    Expanding E(s) = sum_k (-s)^k B^k / k! termwise gives
    M_{j+k+1} = (-1)^{j+k} / ((j+k+1) j! k!) * B^j Abar (B^T)^k.
    Returns the pairs (p, M_p) with M_p != 0; raises ValueError when B is
    not nilpotent, where the expansion does not terminate.
    """
    B = np.asarray(B, dtype=float)
    N = B.shape[0]
    Abar = _pad_A0(A0, N)
    powers = [np.eye(N)]
    while powers[-1].any() and len(powers) <= N:
        powers.append(powers[-1] @ B)
    if powers[-1].any():
        raise ValueError("B is not nilpotent: C(t) has no polynomial form")
    K = len(powers) - 1
    M = [np.zeros((N, N)) for _ in range(2 * K)]
    for j in range(K):
        for k in range(K):
            p = j + k + 1
            coef = (-1.0) ** (j + k) / (p * math.factorial(j) * math.factorial(k))
            M[p] += coef * (powers[j] @ Abar @ powers[k].T)
    return [(p, Mp) for p, Mp in enumerate(M) if Mp.any()]


def _cov_from_poly(coeffs, t):
    """C(t) = sum_p t^p M_p at a time (N, N) or at each of n times (n, N, N).

    The powers are repeated products and the sum is elementwise, so an
    entry's rounding does not depend on the other times in the batch."""
    t = np.asarray(t, dtype=float)
    N = coeffs[0][1].shape[0]
    C = np.zeros(t.shape + (N, N))
    tpow, q = np.ones_like(t), 0
    for p, Mp in coeffs:
        for _ in range(p - q):
            tpow = tpow * t
        q = p
        C += tpow[..., None, None] * Mp
    return C


def covariance_matrix(t, B, A0):
    """C(t) = int_0^t E(s) Abar E(s)^T ds for nilpotent B, from its exact
    polynomial; t a time or an array of times."""
    return _cov_from_poly(covariance_poly_coeffs(B, A0), t)


@dataclass(frozen=True)
class CovMatrix:
    """Covariance C(t) with its Cholesky factor and log-determinant."""

    t: float
    C: np.ndarray
    chol: np.ndarray
    logdet: float

    def solve(self, x):
        """C^{-1} x = L^{-T} (L^{-1} x): two solves with the stored factor."""
        return np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, x))

    def quad_form(self, x):
        """<C^{-1} x, x> = |L^{-1} x|^2 via the stored Cholesky factor."""
        y = np.linalg.solve(self.chol, np.asarray(x, dtype=float))
        return float(y @ y)


def covariance(t, B, A0):
    """Build the CovMatrix at time t > 0; raises NotSPD when Cholesky fails."""
    if t <= 0.0:
        raise NotSPD(f"covariance requested at t = {t} <= 0")
    C = covariance_matrix(t, B, A0)
    try:
        chol = np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(f"C({t}) is not positive definite") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return CovMatrix(t=float(t), C=C, chol=chol, logdet=logdet)


@dataclass
class KernelParams:
    """Diffusion scale, drift matrix and block structure of a model kernel."""

    lam: float
    geometry: Geometry

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ArgumentError("lam must be positive")
        self.trB = float(np.trace(self.geometry.B))
        self.poly = covariance_poly_coeffs(
            self.geometry.B, np.eye(self.geometry.structure.m0))

    def cov(self, t):
        return covariance(t, self.geometry.B,
                          np.eye(self.geometry.structure.m0))

    def cov_many(self, t):
        """C(t) for an array of times, shape (n, N, N)."""
        return _cov_from_poly(self.poly, t)


def principal_params(geometry):
    """Kernel of the principal part (unit diffusion, lam = 2 convention)."""
    return KernelParams(lam=2.0, geometry=geometry)


def scaled_params(lam, geometry):
    """Kernel of the lam-scaled model operator."""
    return KernelParams(lam=lam, geometry=geometry)


def quad_logdet(w, params: KernelParams):
    """<C(t)^{-1} x, x> and log det C(t) for rows w = (x, t) with t > 0:
    one batched Cholesky and one batched solve; raises NotSPD if a C(t) is
    not positive definite."""
    x, t = w[:, :-1], w[:, -1]
    try:
        chol = np.linalg.cholesky(params.cov_many(t))
    except np.linalg.LinAlgError as exc:
        raise NotSPD("C(t) is not positive definite") from exc
    y = np.linalg.solve(chol, x[:, :, None])[:, :, 0]
    quad = np.einsum("ij,ij->i", y, y)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    return quad, logdet


def _log_gamma_rows(w, params: KernelParams):
    """log of the kernel with pole at the group origin at each row
    w = (x, t); -inf where t <= 0."""
    out = np.full(w.shape[0], -np.inf)
    pos = w[:, -1] > 0.0
    if pos.any():
        wp = w[pos]
        quad, logdet = quad_logdet(wp, params)
        out[pos] = (-0.5 * params.geometry.N
                    * math.log(2.0 * math.pi * params.lam)
                    - 0.5 * logdet - quad / (2.0 * params.lam)
                    - wp[:, -1] * params.trB)
    return out


def gamma_many(points, zeta, params: KernelParams, log=False):
    """Kernel at each row of points ([x..., t]) with pole zeta, evaluated at
    zeta^{-1} o z.  With log=True the log-kernel is returned (-inf off the
    support), avoiding underflow."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    g = params.geometry
    lg = _log_gamma_rows(
        g.compose(g.inverse(np.asarray(zeta, dtype=float)), points), params)
    return lg if log else np.exp(lg)


def gamma_K_lambda(z, zeta, params: KernelParams):
    """Kernel value at the point z with pole zeta: the one-row wrapper of
    gamma_many."""
    return float(gamma_many(z, zeta, params)[0])


# -- the 1934 kinetic prototype ---------------------------------------------


def prototype_density(v, y, t, v0, y0, sigma=1.0):
    """Transition density of (V, Y) with dV = sigma dW, dY = V dt.

    Derived from the first two moments: mean (v0, y0 + t v0) and covariance
    sigma^2 [[t, t^2/2], [t^2/2, t^3/3]]; the historical closed form is kept
    separately as a cross-check only (see prototype_density_1934).
    """
    if t <= 0.0:
        return 0.0
    s2 = sigma * sigma
    cov = s2 * np.array([[t, t * t / 2.0], [t * t / 2.0, t ** 3 / 3.0]])
    d = np.array([v - v0, y - y0 - t * v0])
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
    quad = (cov[1, 1] * d[0] ** 2 - 2.0 * cov[0, 1] * d[0] * d[1]
            + cov[0, 0] * d[1] ** 2) / det
    return math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def prototype_density_1934(v, y, t, v0, y0):
    """Kolmogorov's 1934 closed form, transcribed verbatim.

    Kept only to record its discrepancy against the moment-derived density:
    the printed formula absorbs a sigma normalization and its last quadratic
    term reads (y - y0 - t*y0) where the moments require (y - y0 - t*v0).
    Do not use for computation.
    """
    if t <= 0.0:
        return 0.0
    return (math.sqrt(3.0) / (2.0 * math.pi * t * t)
            * math.exp(-((v - v0) ** 2) / t
                       - 3.0 * (v - v0) * (y - y0 - t * v0) / t ** 2
                       - 3.0 * (y - y0 - t * y0) ** 2 / t ** 3))


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
    C1inv_E1 = C1.solve(E1)
    P1 = (E1.T @ C1inv_E1) / lam
    P2 = np.linalg.inv(C2.C) / lam
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
    U, logW = (np.stack([gr.ravel() for gr in
                         np.meshgrid(*([a] * g.N), indexing="ij")], axis=1)
               for a in (u, np.log(w)))
    logW = logW.sum(axis=1)

    poles = point(mu + math.sqrt(2.0) * (U @ L.T), np.full(len(U), s))
    lg1 = _log_gamma_rows(g.compose(g.inverse(poles), point(x, t)), params)
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
    rel_err = abs(math.expm1(log_rhs - log_lhs))
    return {"lhs": math.exp(log_lhs), "rhs": math.exp(log_rhs),
            "log_lhs": log_lhs, "log_rhs": log_rhs, "rel_err": rel_err}


# -- Gaussian envelope shapes ------------------------------------------------


def gaussian_envelope(x, t, y, t0, c, geometry: Geometry, form="upper"):
    """Envelope shape shared by the two-sided Gaussian bounds.

    upper: c/(t-t0)^{Q/2} * exp(-|delta^0_{1/sqrt(t-t0)}(y - e^{(t-t0)B}x)|^2 / c)
    lower: same prefactor with exponent -c * <C^{-1}(t-t0) d, d>, d the same
    displacement.
    """
    if t <= t0:
        return 0.0
    tau = t - t0
    Q = geometry.structure.Q
    d = (np.asarray(y, float)
         - geometry.exp_drift(-tau) @ np.asarray(x, float))  # e^{tau B} x
    pref = c / tau ** (Q / 2.0)
    if form == "upper":
        w = geometry.dilate_space(1.0 / math.sqrt(tau), d)
        return pref * math.exp(-float(w @ w) / c)
    if form == "lower":
        cm = covariance(tau, geometry.B, np.eye(geometry.structure.m0))
        quad = cm.quad_form(d)
        return pref * math.exp(-c * quad)
    raise ValueError(f"unknown form {form!r}")
