"""Basis conventions, validators, Born probabilities, and sampling."""
import numpy as np
import pytest

from qfridge import qcore
from qfridge.compiler import compile_generic
from qfridge.oracles import check_density, haar_unitary, random_density


def _logical_to_physical_matrix() -> np.ndarray:
    """Permutation matrix P with v_phys = P @ v_logical."""
    return np.eye(qcore.DIM)[:, qcore.phys_of_logical]


def test_basis_index_roundtrip():
    seen = set()
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                m = qcore.basis_index(i, j, k)
                assert qcore.basis_label(m) == (i, j, k)
                seen.add(m)
    assert seen == set(range(8))


def test_basis_index_formula():
    assert qcore.basis_index(1, 0, 1) == 5
    assert qcore.basis_index(0, 1, 1) == 3
    assert qcore.basis_index(1, 1, 0) == 6


def test_physical_index_moves_cold_bit():
    # physical order is (q0, q1, q2) = (i, k, j), wire 0 most significant
    assert qcore.physical_index(1, 0, 1) == 6
    assert qcore.physical_index(0, 1, 0) == 1
    for m in range(8):
        i, j, k = qcore.basis_label(m)
        assert qcore.phys_of_logical[m] == 4 * i + 2 * k + j


def test_permutation_matrix_is_a_permutation():
    p = _logical_to_physical_matrix()
    assert np.array_equal(p @ p.T, np.eye(8))
    assert np.array_equal(p.sum(axis=0), np.ones(8))
    assert np.array_equal(p.sum(axis=1), np.ones(8))


def test_permutation_matrix_maps_basis_states():
    p = _logical_to_physical_matrix()
    for m in range(8):
        v = p @ np.eye(8)[m]
        assert v[qcore.phys_of_logical[m]] == 1.0
        assert v.sum() == 1.0


def test_permutation_helpers_match_the_permutation_matrix():
    rng = np.random.default_rng(3)
    p = _logical_to_physical_matrix()
    stack = np.array([haar_unitary(8, rng) for _ in range(3)])
    phys = qcore.to_physical(stack)
    for a, b in zip(stack, phys):
        assert np.array_equal(b, p @ a @ p.T)
        assert np.array_equal(qcore.to_logical(b), a)
    assert np.array_equal(qcore.to_logical(qcore.to_physical(stack[0])), stack[0])
    # the cold bit sits on wire 1: logical |00,1> is physical index 2
    assert qcore.to_physical(np.diag(np.arange(8.0)))[2, 2] == 1.0


def test_only_the_three_wire_register_is_permuted():
    for shape in ((2, 2), (4, 4), (5, 4, 4), (16, 16)):
        a = np.arange(np.prod(shape), dtype=float).reshape(shape)
        assert qcore.to_physical(a) is a and qcore.to_logical(a) is a


def test_check_unitary():
    rng = np.random.default_rng(0)
    qcore.check_unitary(haar_unitary(8, rng))
    with pytest.raises(ValueError):
        qcore.check_unitary(np.ones((4, 4)))
    with pytest.raises(ValueError):
        qcore.check_unitary(np.ones((2, 3)))
    # a NaN or an infinity is no unitary entry, where the compiler checks its target too
    for value in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        u = np.eye(8, dtype=complex)
        u[2, 5] = value
        with pytest.raises(ValueError, match="not unitary"):
            qcore.check_unitary(u)
    u = np.eye(8)
    u[0, 0] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        compile_generic(u)


def test_check_density():
    rng = np.random.default_rng(1)
    check_density(random_density(8, rng))
    with pytest.raises(ValueError, match="Hermitian"):
        check_density(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        check_density(np.eye(2))
    with pytest.raises(ValueError, match="negative"):
        check_density(np.diag([1.5, -0.5]))
    # a NaN entry fails the first check it reaches, off the diagonal or on it
    for index in ((0, 1), (1, 0), (0, 0)):
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[index] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            check_density(rho)


def test_check_probabilities():
    qcore.check_probabilities(np.full(8, 0.125))
    with pytest.raises(ValueError, match="negative"):
        qcore.check_probabilities(np.array([1.1, -0.1]))
    with pytest.raises(ValueError, match="sum"):
        qcore.check_probabilities(np.array([0.3, 0.3]))
    for p in ([np.nan, 1.0], [0.5, 0.5, np.nan], [[0.5, 0.5], [np.nan, np.nan]]):
        with pytest.raises(ValueError, match="NaN"):
            qcore.check_probabilities(np.array(p))


def test_born_probabilities_basis_and_superposition():
    p = qcore.born_probabilities(np.diag(np.eye(8)[5]).astype(complex))
    assert np.allclose(p, np.eye(8)[5])
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    p = qcore.born_probabilities(np.outer(psi, psi.conj()))
    assert np.allclose(p, [0.5, 0.5])


def test_born_probabilities_clips_tiny_negatives():
    rho = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    p = qcore.born_probabilities(rho)
    assert p[1] == 0.0
    assert abs(p.sum() - 1.0) < 1e-15


def test_born_probabilities_rejects_large_negatives():
    with pytest.raises(ValueError):
        qcore.born_probabilities(np.diag([1.0 + 1e-6, -1e-6]).astype(complex))
    # a NaN diagonal entry has no probability to give, alone or in a stack
    for diag in ([np.nan, 1.0], [[0.5, 0.5], [0.5, np.nan]]):
        rho = np.zeros(np.shape(diag) + (2,), dtype=complex)
        rho[..., [0, 1], [0, 1]] = diag
        with pytest.raises(ValueError, match="NaN"):
            qcore.born_probabilities(rho)


def test_sample_counts_deterministic_and_conserving():
    p = np.full(8, 0.125)
    c1 = qcore.sample_counts(p, 4096, 7)
    c2 = qcore.sample_counts(p, 4096, 7)
    c3 = qcore.sample_counts(p, 4096, 8)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, c3)
    assert c1.sum() == 4096


def test_sample_counts_point_mass():
    c = qcore.sample_counts(np.eye(8)[2], 1000, 0)
    assert c[2] == 1000 and c.sum() == 1000


def test_sample_counts_binomial_spread():
    # 5 sigma band for a fair coin at 8192 shots: 5 * sqrt(8192/4) = 226.3
    c = qcore.sample_counts(np.array([0.5, 0.5]), 8192, 3)
    assert abs(c[0] - 4096) < 227


def test_sample_counts_rejects_bad_shots():
    with pytest.raises(ValueError):
        qcore.sample_counts(np.array([1.0]), 0, 0)
