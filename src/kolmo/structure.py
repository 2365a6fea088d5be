"""Algebraic structure of the operator: block layout of B, hypoellipticity
(the Kalman rank and the covariance C(t) whose positivity it decides),
dilation exponents and the homogeneous dimension."""

import math
from collections import namedtuple

import numpy as np

from .errors import InternalInconsistency, NotCanonical, RankDeficient

# Singular values below this (relative to the largest, or to 1) count as
# zero, and so does a min eigenvalue of C(1) below it.
RANK_TOL_FACTOR = 1e-10


def homogeneity_exponents(blocks):
    """Dilation exponent 2j+1 for every coordinate of block j."""
    alpha = []
    for j, m in enumerate(blocks):
        alpha.extend([2 * j + 1] * m)
    return alpha


class BlockStructure(namedtuple("BlockStructure",
                                 "blocks N kappa Q alpha")):
    """Validated block partition of the state space.

    blocks = (m_0, ..., m_kappa) with m_0 >= ... >= m_kappa >= 1; the
    homogeneous dimension of space-time is Q + 2.  Built from the blocks
    alone; N, kappa, Q and alpha follow from them.
    """

    __slots__ = ()

    def __new__(cls, blocks):
        blocks = tuple(int(m) for m in blocks)
        if not blocks or any(m < 1 for m in blocks):
            raise ValueError("blocks must be positive integers")
        if any(blocks[j] < blocks[j + 1] for j in range(len(blocks) - 1)):
            raise ValueError("blocks must be non-increasing")
        return super().__new__(
            cls, blocks, sum(blocks), len(blocks) - 1,
            sum((2 * j + 1) * m for j, m in enumerate(blocks)),
            tuple(homogeneity_exponents(blocks)))

    @property
    def m0(self):
        return self.blocks[0]

    def block_slices(self):
        """Index slice of each block inside a length-N vector."""
        out, lo = [], 0
        for m in self.blocks:
            out.append(slice(lo, lo + m))
            lo += m
        return out


HypoReport = namedtuple("HypoReport", "kalman_rank c_min_eig hypoelliptic")


def detect_canonical_form(B, blocks):
    """Check that B has the canonical lower-bidiagonal block layout.

    Every block must vanish exactly except the sub-diagonal blocks B_j
    (block row j, block column j-1), each of full rank m_j: the exact
    kernel needs B nilpotent.  Returns the BlockStructure on success;
    raises NotCanonical / RankDeficient otherwise.
    """
    B = np.asarray(B, dtype=float)
    structure = BlockStructure(tuple(blocks))
    if B.shape != (structure.N, structure.N):
        raise ValueError(f"B has shape {B.shape}, blocks require {structure.N}")

    sl = structure.block_slices()
    k = len(structure.blocks)
    for i in range(k):
        for j in range(k):
            sub = B[sl[i], sl[j]]
            if i == j + 1:
                mj = structure.blocks[i]
                sv = np.linalg.svd(sub, compute_uv=False)
                cutoff = RANK_TOL_FACTOR * max(sv[0], 1.0) if sv.size else 0.0
                rank = int(np.sum(sv > cutoff))
                if rank < mj:
                    raise RankDeficient(
                        f"block B_{i} has rank {rank} < {mj}")
            elif sub.any():
                raise NotCanonical(f"off-pattern block at {(i, j)} with "
                                   f"magnitude {np.abs(sub).max():.3e}")
    return structure


def kalman_matrix(B, m0):
    """Controllability matrix [D, BD, ..., B^{N-1}D] with D the injection
    of the first m0 coordinates."""
    B = np.asarray(B, dtype=float)
    N = B.shape[0]
    D = np.eye(N)[:, :m0]
    cols = [D]
    M = D
    for _ in range(N - 1):
        M = B @ M
        cols.append(M)
    return np.hstack(cols)


def covariance_poly_coeffs(B, A0):
    """Exact polynomial C(t) = sum_p t^p M_p for nilpotent B.

    Expanding E(s) = sum_k (-s)^k B^k / k! termwise gives
    M_{j+k+1} = (-1)^{j+k} / ((j+k+1) j! k!) * B^j Abar (B^T)^k.
    Returns the pairs (p, M_p) with M_p != 0; raises ValueError when B is
    not nilpotent, where the expansion does not terminate.
    """
    B = np.asarray(B, dtype=float)
    N = B.shape[0]
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    Abar = np.zeros((N, N))
    Abar[:len(A0), :len(A0)] = A0
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


def covariance_matrix(t, B, A0):
    """C(t) = int_0^t E(s) Abar E(s)^T ds for nilpotent B at one time t,
    the sum of t^p M_p over its exact polynomial."""
    return sum(t ** p * Mp for p, Mp in covariance_poly_coeffs(B, A0))


def check_hypoellipticity(B, m0):
    """Kalman rank criterion cross-checked against min eig of C(1).

    Both computations are carried out; a disagreement signals a numerical
    bug and raises InternalInconsistency.  C(1) is covariance_matrix's
    exact polynomial, the kernel's, so a B that is not nilpotent raises
    ValueError, as it does in the kernel.  Any B is taken, canonical or
    not; Geometry takes only a canonical one (detect_canonical_form).
    """
    B = np.asarray(B, dtype=float)
    N = B.shape[0]
    if not 1 <= m0 <= N:
        raise ValueError(f"m0={m0} outside [1, {N}]")

    K = kalman_matrix(B, m0)
    sv = np.linalg.svd(K, compute_uv=False)
    cutoff = RANK_TOL_FACTOR * max(sv[0], 1.0)
    kalman_rank = int(np.sum(sv > cutoff))
    rank_full = kalman_rank == N

    C1 = covariance_matrix(1.0, B, np.eye(m0))
    min_eig = float(np.linalg.eigvalsh(C1).min())
    eig_pos = min_eig > RANK_TOL_FACTOR

    if rank_full != eig_pos:
        # near the tolerance boundary the two criteria may legitimately
        # round differently; anything else is a bug
        if abs(min_eig) > 10 * RANK_TOL_FACTOR:
            raise InternalInconsistency(
                f"Kalman rank {kalman_rank}/{N} vs min eig C(1) = {min_eig:.3e}")
    return HypoReport(kalman_rank=kalman_rank, c_min_eig=min_eig,
                      hypoelliptic=rank_full)
