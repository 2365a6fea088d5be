import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmo.errors import NotCanonical, RankDeficient
from kolmo.structure import (BlockStructure, check_hypoellipticity,
                             detect_canonical_form, homogeneity_exponents,
                             kalman_matrix)


def random_canonical_B(blocks, rng):
    """Random drift matrix in canonical form for the given block sizes."""
    N = sum(blocks)
    B = np.zeros((N, N))
    starts = np.cumsum((0,) + tuple(blocks))
    for j in range(1, len(blocks)):
        m, mprev = blocks[j], blocks[j - 1]
        while True:
            Bj = rng.normal(size=(m, mprev))
            if np.linalg.matrix_rank(Bj) == m:
                break
        B[starts[j]:starts[j + 1], starts[j - 1]:starts[j]] = Bj
    return B


def test_block_structure_prototype():
    st_ = BlockStructure((1, 1))
    assert st_.N == 2
    assert st_.m0 == 1
    assert st_.kappa == 1
    assert st_.Q == 4
    assert tuple(st_.alpha) == (1, 3)


def test_homogeneity_exponents():
    assert tuple(homogeneity_exponents((2, 1, 1))) == (1, 1, 3, 5)


def test_q_formula():
    for blocks in [(1,), (2, 1), (3, 2, 1), (2, 2)]:
        st_ = BlockStructure(blocks)
        assert st_.Q == sum((2 * j + 1) * m for j, m in enumerate(blocks))


def test_detect_canonical_prototype():
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    detect_canonical_form(B, (1, 1))


def test_detect_rejects_offpattern_entry():
    B = np.array([[0.0, 0.5], [1.0, 0.0]])
    with pytest.raises(NotCanonical):
        detect_canonical_form(B, (1, 1))


def test_detect_rejects_rank_deficient_block():
    B = np.zeros((3, 3))
    B[2, 0] = 1.0  # block B1 is 1x2 but the (2,1) entry is zero: still rank 1
    # make it genuinely deficient: 2x2 lower block of rank 1
    B = np.zeros((4, 4))
    B[2, 0] = 1.0
    B[3, 0] = 1.0  # rows proportional -> rank 1 < 2
    with pytest.raises(RankDeficient):
        detect_canonical_form(B, (2, 2))


def test_kalman_prototype():
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    K = kalman_matrix(B, 1)
    assert np.linalg.matrix_rank(K) == 2
    rep = check_hypoellipticity(B, 1)
    assert rep.hypoelliptic
    assert rep.kalman_rank == 2
    assert rep.c_min_eig > 0.0


def test_degenerate_without_coupling():
    B = np.zeros((2, 2))
    rep = check_hypoellipticity(B, 1)
    assert not rep.hypoelliptic
    assert rep.kalman_rank == 1


def test_hypoellipticity_general_B():
    """A non-nilpotent B is still accepted: C(1) against adaptive
    quadrature of exp(-sB) Abar exp(-sB)^T."""
    from scipy.integrate import quad_vec
    from scipy.linalg import expm

    B = np.array([[0.0, 0.5], [1.0, 0.0]])
    Abar = np.diag([1.0, 0.0])
    C1, _ = quad_vec(lambda s: expm(-s * B) @ Abar @ expm(-s * B).T,
                     0.0, 1.0, epsabs=1e-14, epsrel=1e-14)
    rep = check_hypoellipticity(B, 1)
    assert rep.hypoelliptic and rep.kalman_rank == 2
    assert abs(rep.c_min_eig - np.linalg.eigvalsh(C1).min()) < 1e-13


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1,
                max_size=3).filter(
                    lambda b: all(b[j] <= b[j - 1] for j in range(1, len(b)))),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_canonical_is_hypoelliptic(blocks, seed):
    """Kalman rank and covariance positivity agree on random canonical B."""
    rng = np.random.default_rng(seed)
    B = random_canonical_B(tuple(blocks), rng)
    detect_canonical_form(B, tuple(blocks))
    rep = check_hypoellipticity(B, blocks[0])
    assert rep.hypoelliptic
    assert rep.kalman_rank == sum(blocks)
