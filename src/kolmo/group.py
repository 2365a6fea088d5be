"""Translation group on R^{N+1}, anisotropic dilations, homogeneous norm,
quasi-distance, cylinders and cones.

Points are numpy arrays z = [x_1, ..., x_N, t]; the spatial part is split
into blocks according to a BlockStructure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .structure import BlockStructure


def point(x, t):
    """Pack spatial vector and time into a single array; also packs (n, N)
    spatial rows and n times into (n, N+1) rows."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.concatenate([x, np.asarray(t, dtype=float)[..., None]], axis=-1)


def split(z):
    """Spatial part and time of a point, or of each row of an (n, N+1) array."""
    z = np.asarray(z, dtype=float)
    return z[..., :-1], z[..., -1][()]


def exp_drift(s, B, nilpotent_terms=None):
    """E(s) = exp(-s B) by its power series truncated after
    nilpotent_terms terms (default N), stopping early once a term vanishes.

    For canonical (nilpotent) B, B^{kappa+1} = 0 and the series terminates,
    so the truncation is exact whenever nilpotent_terms >= kappa + 1, which
    the default N ensures.  For non-nilpotent B the truncated series is
    only an approximation of exp(-s B).
    """
    B = np.asarray(B, dtype=float)
    N = B.shape[0]
    M = -s * B
    E = np.eye(N)
    term = np.eye(N)
    kmax = nilpotent_terms if nilpotent_terms is not None else N
    for k in range(1, kmax + 1):
        term = term @ M / k
        if not term.any():
            break
        E = E + term
    return E


@dataclass(frozen=True)
class Cylinder:
    """Slanted cylinder Q_r(z0) = z0 o delta_r(Q_1)."""

    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class Cone:
    """Cone P_{beta,r,R}(z0) = z0 o {delta_rho(xi, beta) : |xi|<r, 0<rho<=R}."""

    vertex: np.ndarray
    beta: float
    r: float
    R: float


def _hom_norm_rows(Z, alpha):
    """Homogeneous norm of each row of Z; alpha holds the degrees of the
    coordinates, 2 for time.

    The root r of sum_i z_i^2 r^{-2 alpha_i} = 1 is sought as r = r0 e^s,
    with r0 a power of two near the largest |z_i|^{1/alpha_i}: dividing by
    r0^{alpha_i} is then exact, and s = O(1) carries full relative
    precision at every magnitude.  In s the residual
    f(s) = log sum_i q_i e^{-2 alpha_i s}, q_i = (z_i / r0^{alpha_i})^2, is
    convex and decreasing, and f >= 0 at s0 = max_i log(q_i) / (2 alpha_i),
    where the largest term alone is 1.  Newton iterates from s0 therefore
    rise monotonically to the root; a row stops once its iterate no longer
    increases.  Every step is elementwise or a sum over the few
    coordinates, so a row's result does not depend on the batch around it.
    """
    A = np.abs(Z.T)
    h = alpha[:, None]
    out = np.zeros(A.shape[1])
    with np.errstate(divide="ignore"):
        rho = (np.log(A) / h).max(axis=0)
        nz = rho > -np.inf
        if not nz.all():
            if not nz.any():
                return out
            A, rho = A[:, nz], rho[nz]
        m = np.rint(rho / math.log(2.0)).astype(int)
        Q = np.ldexp(A, -m * h.astype(int)) ** 2
        s = (np.log(Q) / (2.0 * h)).max(axis=0)
    QE = np.stack([Q, Q * (2.0 * h)], axis=1)
    mexps = -2.0 * h[:, :, None]
    while True:
        S, D = (QE * np.exp(mexps * s)).sum(axis=0)
        nxt = s + np.log(S) * S / D
        if not np.count_nonzero(nxt > s):
            break
        s = np.fmax(s, nxt)
    out[nz] = np.ldexp(np.exp(s), m)
    return out


class Geometry:
    """Group operations for a fixed block structure and drift matrix B."""

    def __init__(self, structure: BlockStructure, B):
        self.structure = structure
        self.B = np.asarray(B, dtype=float)
        if self.B.shape != (structure.N, structure.N):
            raise ValueError("B shape does not match structure")
        self.N = structure.N
        self.alpha = np.asarray(structure.alpha, dtype=int)
        self._slices = structure.block_slices()
        self._degrees = np.append(self.alpha, 2).astype(float)

    # -- group operations ---------------------------------------------------

    def exp_drift(self, s):
        return exp_drift(s, self.B, nilpotent_terms=self.structure.kappa + 1)

    def _drift(self, s, x):
        """E(s) x for a vector, or row-wise for rows x and times s: the
        series of exp_drift (kappa + 1 terms) applied to x."""
        s = np.asarray(s, dtype=float)[..., None]
        out = term = x
        for k in range(1, self.structure.kappa + 2):
            # B x as an elementwise product and a row sum: unlike a matmul,
            # its rounding does not depend on the number of rows
            term = (term[..., None, :] * self.B).sum(axis=-1) * (-s / k)
            out = out + term
        return out

    def compose(self, z, w):
        """(x,t) o (xi,tau) = (xi + E(tau) x, t + tau); points or rows."""
        x, t = split(z)
        xi, tau = split(w)
        return point(xi + self._drift(tau, x), t + tau)

    def inverse(self, z):
        """(x,t)^{-1} = (-E(-t) x, -t); a point or rows."""
        x, t = split(z)
        return point(-self._drift(-t, x), -t)

    def dilate(self, r, z):
        """Coordinate i scaled by r^alpha_i, time by r^2; a point or rows."""
        x, t = split(z)
        return point(x * self._rpow(r), t * r * r)

    def dilate_space(self, r, x):
        """delta_r^0 acting on the spatial part only."""
        return np.asarray(x, dtype=float) * self._rpow(r)

    def _rpow(self, r):
        # integer exponents: exact powers via repeated multiplication
        return np.array([r ** int(a) for a in self.alpha])

    # -- norm and distance --------------------------------------------------

    def hom_norm(self, z):
        """Unique r>0 with sum x_i^2 / r^{2 alpha_i} + t^2 / r^4 = 1 (0 at
        the origin): a float for a point, an (n,) array for (n, N+1) rows."""
        Z = np.asarray(z, dtype=float)
        if Z.ndim == 1:
            return float(_hom_norm_rows(Z[None, :], self._degrees)[0])
        return _hom_norm_rows(Z, self._degrees)

    def distance(self, z, w):
        """Quasi-distance d(z,w) = ||z^{-1} o w||; points or rows."""
        return self.hom_norm(self.compose(self.inverse(z), w))

    # -- regions ------------------------------------------------------------

    def in_unit_cylinder(self, z):
        """Q_1 = B_1 x ... x B_1 x (-1, 0): open spatial balls per block."""
        x, t = split(z)
        if not -1.0 < t < 0.0:
            return False
        return all(np.linalg.norm(x[sl]) < 1.0 for sl in self._slices)

    def cylinder_contains(self, c: Cylinder, z):
        zeta = self.dilate(1.0 / c.radius,
                           self.compose(self.inverse(c.center), z))
        return self.in_unit_cylinder(zeta)

    def cone_contains(self, p: Cone, z):
        zeta = self.compose(self.inverse(p.vertex), z)
        xi_img, tau = split(zeta)
        if tau >= 0.0:
            return False
        rho = np.sqrt(-tau / p.beta)
        if rho > p.R:
            return False
        xi = self.dilate_space(1.0 / rho, xi_img)
        return np.linalg.norm(xi) < p.r


def prototype_geometry():
    """The 1934 kinetic prototype: N=2, blocks (1,1), B = [[0,0],[1,0]]."""
    return Geometry(BlockStructure((1, 1)), np.array([[0.0, 0.0], [1.0, 0.0]]))
