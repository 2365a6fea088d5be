"""Algebraic structure of the operator: block layout of B, hypoellipticity,
dilation exponents and the homogeneous dimension."""

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInconsistency, NotCanonical, RankDeficient

RANK_TOL_FACTOR = 1e-10  # singular values below this (relative) count as zero


def homogeneity_exponents(blocks):
    """Dilation exponent 2j+1 for every coordinate of block j."""
    alpha = []
    for j, m in enumerate(blocks):
        alpha.extend([2 * j + 1] * m)
    return alpha


@dataclass(frozen=True)
class BlockStructure:
    """Validated block partition of the state space.

    blocks = (m_0, ..., m_kappa) with m_0 >= ... >= m_kappa >= 1; the
    homogeneous dimension of space-time is Q + 2.
    """

    blocks: tuple
    N: int = field(init=False)
    kappa: int = field(init=False)
    Q: int = field(init=False)
    alpha: tuple = field(init=False)

    def __post_init__(self):
        blocks = tuple(int(m) for m in self.blocks)
        if not blocks or any(m < 1 for m in blocks):
            raise ValueError("blocks must be positive integers")
        if any(blocks[j] < blocks[j + 1] for j in range(len(blocks) - 1)):
            raise ValueError("blocks must be non-increasing")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "N", sum(blocks))
        object.__setattr__(self, "kappa", len(blocks) - 1)
        object.__setattr__(self, "Q", sum((2 * j + 1) * m for j, m in enumerate(blocks)))
        object.__setattr__(self, "alpha", tuple(homogeneity_exponents(blocks)))

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


@dataclass(frozen=True)
class HypoReport:
    kalman_rank: int
    c_min_eig: float
    hypoelliptic: bool

    def to_dict(self):
        return {"kalman_rank": self.kalman_rank,
                "c_min_eig": self.c_min_eig,
                "hypoelliptic": self.hypoelliptic}


def detect_canonical_form(B, blocks, tol_factor=RANK_TOL_FACTOR):
    """Check that B has the canonical lower-bidiagonal block layout.

    Every block must vanish except the sub-diagonal blocks B_j (block row j,
    block column j-1), each of full rank m_j.  Returns the BlockStructure on
    success; raises NotCanonical / RankDeficient otherwise.
    """
    B = np.asarray(B, dtype=float)
    structure = BlockStructure(tuple(blocks))
    if B.shape != (structure.N, structure.N):
        raise ValueError(f"B has shape {B.shape}, blocks require {structure.N}")

    scale = max(np.abs(B).max(), 1.0)
    tol = tol_factor * scale
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
                    raise RankDeficient(i, rank=rank, expected=mj)
            else:
                mag = np.abs(sub).max() if sub.size else 0.0
                if mag > tol:
                    raise NotCanonical((i, j), magnitude=float(mag))
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


def _covariance_at_one(B, m0):
    """C(1) = int_0^1 E(s) Abar E(s)^T ds, E(s) = exp(-sB), for any B.

    Nilpotent B takes the kernel's exact polynomial.  Otherwise one matrix
    exponential of Van Loan's block matrix [[B, Abar], [0, -B^T]] gives it:
    its top-right block is F = int_0^1 e^{(1-s)B} Abar e^{-sB^T} ds and its
    bottom-right block e^{-B^T}, so C(1) = e^{-B} F."""
    from .kernel import covariance_matrix  # deferred to avoid import cycle

    N = B.shape[0]
    if not np.linalg.matrix_power(B, N).any():
        return covariance_matrix(1.0, B, np.eye(m0))
    from scipy.linalg import expm

    M = np.zeros((2 * N, 2 * N))
    M[:N, :N] = B
    M[:m0, N:N + m0] = np.eye(m0)
    M[N:, N:] = -B.T
    E = expm(M)
    return E[N:, N:].T @ E[:N, N:]


def check_hypoellipticity(B, m0, tol=1e-10):
    """Kalman rank criterion cross-checked against min eig of C(1).

    Both computations are carried out; a disagreement signals a numerical
    bug and raises InternalInconsistency.
    """
    B = np.asarray(B, dtype=float)
    N = B.shape[0]
    if not 1 <= m0 <= N:
        raise ValueError(f"m0={m0} outside [1, {N}]")

    K = kalman_matrix(B, m0)
    sv = np.linalg.svd(K, compute_uv=False)
    cutoff = tol * max(sv[0], 1.0)
    kalman_rank = int(np.sum(sv > cutoff))
    rank_full = kalman_rank == N

    C1 = _covariance_at_one(B, m0)
    min_eig = float(np.linalg.eigvalsh(C1).min())
    eig_pos = min_eig > tol

    if rank_full != eig_pos:
        # near the tolerance boundary the two criteria may legitimately
        # round differently; anything else is a bug
        if abs(min_eig) > 10 * tol:
            raise InternalInconsistency(
                f"Kalman rank {kalman_rank}/{N} vs min eig C(1) = {min_eig:.3e}")
    return HypoReport(kalman_rank=kalman_rank, c_min_eig=min_eig,
                      hypoelliptic=rank_full)
