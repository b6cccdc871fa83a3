"""Dense complex linear algebra and quantum-state primitives for small registers.

Everything here is a plain numpy array plus a validator; at dimension <= 16
there is no reason for anything fancier.  The one piece of real structure is
the basis convention for the three-qubit register:

* logical order:  index(i, j, k) = 4i + 2j + k, where i and j are the bits of
  the two hot qubits (wires q0 and q2) and k is the bit of the cold qubit q1.
* physical order: wire order (q0, q1, q2) with wire 0 the most significant
  bit, as used by the circuit evaluator.

Mixing the two orderings is the most likely silent bug in this codebase, so
the permutation between them is a first-class, tested object: every module
that crosses between the orders calls :func:`to_physical`/:func:`to_logical`,
which reorder the last two axes of an operator or of a stack of operators.
Only the three-wire register has a logical order, so they return an operator
of any other dimension unchanged and their callers never branch on the size.
"""
from __future__ import annotations

import numpy as np

N_WIRES = 3
DIM = 8

UNITARY_ATOL = 1e-10
STATE_ATOL = 1e-12
NEG_CLIP = 1e-10


def basis_index(i: int, j: int, k: int) -> int:
    """Index of |ij,k> in logical order."""
    return 4 * i + 2 * j + k


def basis_label(m: int) -> tuple[int, int, int]:
    """Inverse of :func:`basis_index`."""
    return (m >> 2) & 1, (m >> 1) & 1, m & 1


def physical_index(i: int, j: int, k: int) -> int:
    """Index of the same state in physical wire order (q0, q1, q2)."""
    return 4 * i + 2 * k + j


#: phys_of_logical[m] is the physical index of logical basis state m.
phys_of_logical = np.array(
    [physical_index(*basis_label(m)) for m in range(DIM)], dtype=int
)


def logical_to_physical_matrix() -> np.ndarray:
    """Permutation matrix P with v_phys = P @ v_logical."""
    return np.eye(DIM)[:, phys_of_logical]


def to_physical(a: np.ndarray) -> np.ndarray:
    """P @ a @ P.T on the last two axes: logical-order operators to physical.

    P swaps the j and k bits, so it is its own inverse: the same reindexing
    maps physical order back to logical (:func:`to_logical`).  An operator
    whose last axis is not DIM is returned unchanged.
    """
    if a.shape[-1] != DIM:
        return a
    return a[..., phys_of_logical[:, None], phys_of_logical]


to_logical = to_physical


def check_unitary(u: np.ndarray, atol: float = UNITARY_ATOL) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be a square matrix")
    d = u.shape[0]
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > atol:
        raise ValueError("matrix is not unitary")
    return u


def check_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density operator must be a square matrix")
    if np.max(np.abs(rho - rho.conj().T)) > STATE_ATOL:
        raise ValueError("density operator is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > STATE_ATOL:
        raise ValueError("density operator trace is not 1")
    if np.min(np.linalg.eigvalsh(rho)) < -NEG_CLIP:
        raise ValueError("density operator has a negative eigenvalue")
    return rho


def check_probabilities(p: np.ndarray) -> np.ndarray:
    """A probability vector, or a stack (..., d) of them."""
    p = np.asarray(p, dtype=float)
    if p.ndim < 1:
        raise ValueError("probability vector must be at least one-dimensional")
    if np.min(p) < 0:
        raise ValueError("probability vector has a negative entry")
    if np.max(np.abs(p.sum(axis=-1) - 1.0)) > STATE_ATOL:
        raise ValueError("probability vector does not sum to 1")
    return p


def born_probabilities(rho: np.ndarray) -> np.ndarray:
    """Computational-basis outcome probabilities of a density operator, or
    of each operator in a stack (..., d, d), as (..., d).

    Diagonal entries within -NEG_CLIP of zero are clipped to zero and the
    vector renormalized; anything more negative signals an upstream bug and
    raises.
    """
    rho = np.asarray(rho, dtype=complex)
    diag = np.diagonal(rho, axis1=-2, axis2=-1).real
    if np.min(diag) < -NEG_CLIP:
        raise ValueError(f"diagonal entry {np.min(diag)} below -{NEG_CLIP}")
    p = np.clip(diag, 0.0, None, order="C")  # in C order each row sums as a lone vector does
    return p / p.sum(axis=-1, keepdims=True)


def sample_counts(p: np.ndarray, shots: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """Multinomial counts over the outcomes of p, or of each vector of a
    stack (..., d), all drawn from one generator; deterministic in seed."""
    p = check_probabilities(p)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, p)
