import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmo.errors import NotCanonical, RankDeficient
from kolmo.group import Geometry
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


def _dilation_defect(B, structure, r):
    """max over the nonzero entries of delta_r B of the relative gap to
    r^2 B delta_r, with delta_r = diag(r^alpha) from Geometry.dilate_space
    of a canonical B of the same structure (Geometry refuses any other B;
    the dilations depend on the structure alone)."""
    canonical = random_canonical_B(structure.blocks,
                                   np.random.default_rng(0))
    D = Geometry(structure, canonical).dilate_space(r, np.ones(structure.N))
    lhs, rhs = D[:, None] * B, r * r * B * D[None, :]
    nz = lhs != 0.0
    return float(np.max(np.abs(lhs - rhs)[nz] / np.abs(lhs[nz])))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([(1, 1), (2, 1), (1, 1, 1), (2, 2, 1), (1, 1, 1, 1)]),
       st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.floats(min_value=0.1, max_value=10.0))
def test_dilations_scale_canonical_B(blocks, seed, r):
    """delta_r B = r^2 B delta_r, the matrix form of the operator's
    invariance under the dilations (Lanconelli & Polidoro, 1994), with
    alpha = 1 on the first m0 coordinates."""
    structure = BlockStructure(blocks)
    assert list(structure.alpha[:structure.m0]) == [1] * structure.m0
    B = random_canonical_B(blocks, np.random.default_rng(seed))
    assert _dilation_defect(B, structure, r) <= 1e-15


def test_dilations_do_not_scale_non_canonical_B():
    """An entry of B below the sub-diagonal blocks breaks the identity."""
    structure = BlockStructure((1, 1, 1))
    B = random_canonical_B((1, 1, 1), np.random.default_rng(0))
    B[2, 0] = 1.0
    assert _dilation_defect(B, structure, 2.0) > 0.5
