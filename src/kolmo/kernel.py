"""Exact constant-coefficient fundamental solutions.

The model operator with diffusion scale lam acts as
(lam/2) * Laplacian on the first m0 coordinates + <Bx, D> - d/dt, and its
kernel is an anisotropic Gaussian parameterized by the covariance integral
C(t) = int_0^t E(s) Abar E(s)^T ds with E(s) = exp(-sB) and Abar the
zero-padding of A0 = I_{m0}.  The lam = 2 member is the principal-part
kernel with prefactor (4 pi)^{-N/2} and exponent -<C^{-1}x, x>/4.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSPD, QuadratureUnconverged
from .group import Geometry, exp_drift, point, split


def _pad_A0(A0, N):
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    m0 = A0.shape[0]
    Abar = np.zeros((N, N))
    Abar[:m0, :m0] = A0
    return Abar


def _is_nilpotent(B):
    M = np.asarray(B, dtype=float)
    for _ in range(M.shape[0]):
        if not M.any():
            return True
        M = M @ B
    return not M.any()


def covariance_matrix(t, B, A0):
    """C(t) = int_0^t E(s) Abar E(s)^T ds.

    For nilpotent B each entry of the integrand is a polynomial in s, so
    Gauss-Legendre with enough nodes is exact; otherwise fall back to
    adaptive quadrature at 1e-12 tolerance.
    """
    B = np.asarray(B, dtype=float)
    N = B.shape[0]
    Abar = _pad_A0(A0, N)

    if _is_nilpotent(B):
        # E(s) entries are polynomials of degree < N, integrand degree
        # <= 2(N-1); n nodes integrate degree 2n-1 exactly
        n = N + 1
        nodes, weights = np.polynomial.legendre.leggauss(n)
        s = 0.5 * t * (nodes + 1.0)
        C = np.zeros((N, N))
        for sk, wk in zip(s, weights):
            E = exp_drift(sk, B)
            C += wk * (E @ Abar @ E.T)
        return 0.5 * t * C

    from scipy.integrate import quad_vec

    def integrand(s):
        E = exp_drift(s, B)
        return E @ Abar @ E.T

    C, _ = quad_vec(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12)
    return C


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
    _cache: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _cache_limit: int = 4096

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        self.trB = float(np.trace(self.geometry.B))

    def cov(self, t):
        with self._lock:
            hit = self._cache.get(t)
        if hit is not None:
            return hit
        cm = covariance(t, self.geometry.B, np.eye(self.geometry.structure.m0))
        with self._lock:
            if len(self._cache) >= self._cache_limit:
                self._cache.clear()
            self._cache[t] = cm
        return cm


def principal_params(geometry):
    """Kernel of the principal part (unit diffusion, lam = 2 convention)."""
    return KernelParams(lam=2.0, geometry=geometry)


def scaled_params(lam, geometry):
    """Kernel of the lam-scaled model operator."""
    return KernelParams(lam=lam, geometry=geometry)


def log_gamma_at_origin(x, t, params: KernelParams):
    """log of the kernel at (x, t) with pole at the group origin; -inf for t <= 0."""
    if t <= 0.0:
        return -math.inf
    cm = params.cov(t)
    quad = cm.quad_form(x)
    N = params.geometry.N
    return (-0.5 * N * math.log(2.0 * math.pi * params.lam)
            - 0.5 * cm.logdet
            - quad / (2.0 * params.lam)
            - t * params.trB)


def gamma_at_origin(x, t, params):
    lg = log_gamma_at_origin(x, t, params)
    return 0.0 if lg == -math.inf else math.exp(lg)


def gamma_K_lambda(z, zeta, params: KernelParams):
    """Kernel value at z with pole zeta: evaluate at zeta^{-1} o z."""
    g = params.geometry
    w = g.compose(g.inverse(np.asarray(zeta, dtype=float)),
                  np.asarray(z, dtype=float))
    x, t = split(w)
    return gamma_at_origin(x, t, params)


def gamma_K(z, zeta, geometry):
    """Principal-part kernel (lam = 2 normalization)."""
    return gamma_K_lambda(z, zeta, principal_params(geometry))


def gamma_pole(x, t, y, t0, params):
    """Kernel of the Cauchy problem: value at (x,t) with pole (y,t0)."""
    return gamma_K_lambda(point(x, t), point(y, t0), params)


def covariance_poly_coeffs(B, A0):
    """Exact polynomial C(t) = sum_p t^p M_p for nilpotent B.

    Expanding E(s) = sum_k (-s)^k B^k / k! termwise gives
    M_{j+k+1} = (-1)^{j+k} / ((j+k+1) j! k!) * B^j Abar (B^T)^k.
    """
    B = np.asarray(B, dtype=float)
    N = B.shape[0]
    Abar = _pad_A0(A0, N)
    powers = [np.eye(N)]
    while powers[-1].any() and len(powers) <= N:
        powers.append(powers[-1] @ B)
    powers = [P for P in powers if P.any()]
    K = len(powers)
    M = [np.zeros((N, N)) for _ in range(2 * K)]
    for j in range(K):
        for k in range(K):
            p = j + k + 1
            coef = (-1.0) ** (j + k) / (p * math.factorial(j) * math.factorial(k))
            M[p] += coef * (powers[j] @ Abar @ powers[k].T)
    return M


def gamma_many(points, zeta, params: KernelParams, log=False):
    """Vectorized kernel evaluation over an array of points (rows [x..., t]).

    Uses the closed polynomial form of C(t) and batched Cholesky when B is
    nilpotent; falls back to the scalar path otherwise.  With log=True the
    log-kernel is returned (-inf off the support), avoiding underflow.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    g = params.geometry
    zinv = g.inverse(np.asarray(zeta, dtype=float))
    xi, tau = split(zinv)
    if not _is_nilpotent(g.B):
        out = np.empty(points.shape[0])
        for k, z in enumerate(points):
            x, t = split(z)
            w = x + g.exp_drift(t) @ xi
            out[k] = log_gamma_at_origin(w, tau + t, params)
        return out if log else np.exp(out)

    N = g.N
    x, t = points[:, :-1], points[:, -1]
    telapsed = t + tau
    # E(t) xi termwise: sum_k (-t)^k / k! B^k xi
    vk = xi.copy()
    w = x + vk[None, :]
    fact = 1.0
    tk = np.ones_like(t)
    for k in range(1, N + 1):
        vk = g.B @ vk
        if not vk.any():
            break
        fact *= k
        tk = tk * (-t)
        w = w + (tk / fact)[:, None] * vk[None, :]

    out = np.full(points.shape[0], -np.inf) if log \
        else np.zeros(points.shape[0])
    pos = telapsed > 0.0
    if not pos.any():
        return out
    tp = telapsed[pos]
    wp = w[pos]
    M = covariance_poly_coeffs(g.B, np.eye(g.structure.m0))
    C = np.zeros((tp.size, N, N))
    tpow = np.ones_like(tp)
    for p in range(1, len(M)):
        tpow = tpow * tp
        if M[p].any():
            C += tpow[:, None, None] * M[p][None, :, :]
    chol = np.linalg.cholesky(C)
    ybatch = np.linalg.solve(chol, wp[:, :, None])[:, :, 0]
    quad = np.einsum("ij,ij->i", ybatch, ybatch)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    logval = (-0.5 * N * math.log(2.0 * math.pi * params.lam)
              - 0.5 * logdet - quad / (2.0 * params.lam) - tp * params.trB)
    out[pos] = logval if log else np.exp(logval)
    return out


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


def _reproduction_quadrature(x, t, y, t0, s, params, nodes):
    g = params.geometry
    P, mu = _gauss_product(np.asarray(x, float), t, np.asarray(y, float),
                           t0, s, params)
    L = np.linalg.cholesky(np.linalg.inv(P))
    u, w = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*([u] * g.N), indexing="ij")
    U = np.stack([gr.ravel() for gr in grids], axis=1)
    wgrids = np.meshgrid(*([w] * g.N), indexing="ij")
    W = np.prod(np.stack([gr.ravel() for gr in wgrids], axis=1), axis=1)

    scale = math.sqrt(2.0) ** g.N * float(np.prod(np.diag(L)))
    total = 0.0
    for uk, wk in zip(U, W):
        xi = mu + math.sqrt(2.0) * (L @ uk)
        lg1 = _log_gamma_pair(x, t, xi, s, params)
        lg2 = _log_gamma_pair(xi, s, y, t0, params)
        if lg1 == -math.inf or lg2 == -math.inf:
            continue
        total += wk * math.exp(lg1 + lg2 + float(uk @ uk))
    return scale * total


def _log_gamma_pair(x, t, y, t0, params):
    g = params.geometry
    w = g.compose(g.inverse(point(y, t0)), point(x, t))
    xw, tw = split(w)
    return log_gamma_at_origin(xw, tw, params)


def reproduction_check(x, t, y, t0, s, params, nodes=8, tol=1e-6):
    """Chapman-Kolmogorov identity across the intermediate time s.

    rhs integrates the product of kernels by Gauss-Hermite quadrature
    centered and scaled by the analytic Gaussian-product moments; lhs is the
    closed form.  Doubling the node count must agree to tol relative.
    """
    if not t0 < s < t:
        raise ValueError("need t0 < s < t")
    lhs = math.exp(_log_gamma_pair(np.asarray(x, float), t,
                                   np.asarray(y, float), t0, params))
    rhs = _reproduction_quadrature(x, t, y, t0, s, params, nodes)
    rhs2 = _reproduction_quadrature(x, t, y, t0, s, params, 2 * nodes)
    if abs(rhs2 - rhs) > tol * max(abs(rhs2), 1e-300):
        raise QuadratureUnconverged(
            f"node doubling moved the integral by {abs(rhs2 - rhs):.3e}")
    rel_err = abs(lhs - rhs2) / abs(lhs) if lhs != 0.0 else abs(rhs2)
    return {"lhs": lhs, "rhs": rhs2, "rel_err": rel_err}


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
