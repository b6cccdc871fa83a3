"""Depolarizing gate noise, readout error, calibration, and mitigation.

The gate-noise model is deliberately minimal: after each gate's unitary, the
gate's wires are depolarized with probability p1 (single-qubit gates) or p2
(two-qubit gates).  Readout error is a per-qubit classical bit flip applied
to the outcome distribution.  Both are unital, so they cannot cool anything
for free.  :func:`evolve_noisy` evolves a whole stack of densities (say the
8 basis inputs of a transition matrix) in one pass: per gate, one embedded
matrix, one conjugation, and a partial trace with I/d put back.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qcore
from .circuits import Circuit, embed_gate


@dataclass(frozen=True)
class NoiseModel:
    """p1/p2: depolarizing probability per 1q/2q gate; readout: per-qubit flips."""

    p1: float = 0.0
    p2: float = 0.0
    #: eps01[q] = P(read 1 | state 0), eps10[q] = P(read 0 | state 1)
    eps01: tuple[float, ...] = (0.0, 0.0, 0.0)
    eps10: tuple[float, ...] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for v in (self.p1, self.p2, *self.eps01, *self.eps10):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"probability {v} outside [0, 1]")
        if len(self.eps01) != len(self.eps10):
            raise ValueError("eps01 and eps10 must cover the same qubits")

    @classmethod
    def uniform(cls, p1=0.0, p2=0.0, eps01=0.0, eps10=0.0):
        return cls(p1, p2, (eps01,) * qcore.N_WIRES, (eps10,) * qcore.N_WIRES)

    def flip_matrix(self, qubit: int) -> np.ndarray:
        e01, e10 = self.eps01[qubit], self.eps10[qubit]
        return np.array([[1 - e01, e10], [e01, 1 - e10]])

    def is_gate_noiseless(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0


@functools.lru_cache(maxsize=None)
def _trace_plan(wires: tuple[int, ...], n: int):
    """Wires kept by a partial trace over `wires`, and its einsum sublists."""
    keep = tuple(w for w in range(n) if w not in wires)
    col = [w if w in wires else n + w for w in range(n)]
    return keep, [Ellipsis, *range(n), *col], [Ellipsis, *keep, *(n + w for w in keep)]


def evolve_noisy(c: Circuit, rho: np.ndarray, nm: NoiseModel) -> np.ndarray:
    """Run a circuit on a density operator, or a stack (..., d, d) of them,
    with per-gate depolarizing noise.

    rho is taken and returned in logical order; the per-gate evolution runs
    in physical wire order.
    """
    rho = np.asarray(rho, dtype=complex)
    n = c.n_wires
    if rho.shape[-2:] != (2 ** n, 2 ** n):
        raise ValueError("state dimension does not match the circuit")
    rho = qcore.to_physical(rho)
    batch = rho.shape[:-2]
    for g in c.gates:
        u = embed_gate(g.matrix(), g.wires, n)
        rho = u @ rho @ u.conj().T
        p = nm.p2 if g.name == "cx" else nm.p1
        if p:
            keep, sub_in, sub_out = _trace_plan(g.wires, n)
            sigma = np.einsum(rho.reshape(batch + (2,) * (2 * n)), sub_in, sub_out)
            sigma = sigma.reshape(batch + (2 ** len(keep),) * 2)
            rho = (1 - p) * rho + p / 2 ** len(g.wires) * embed_gate(sigma, keep, n)
    return qcore.to_logical(rho)


def readout_matrix(nm: NoiseModel) -> np.ndarray:
    """Tensor product of the register's per-qubit flip matrices, in logical
    index order: the logical bits (i, j, k) belong to qubits (q0, q2, q1)."""
    if len(nm.eps01) < qcore.N_WIRES:
        raise ValueError("noise model does not cover enough qubits")
    f0, f1, f2 = (nm.flip_matrix(q) for q in range(qcore.N_WIRES))
    return np.einsum("ab,cd,ef->acebdf", f0, f2, f1).reshape(qcore.DIM, qcore.DIM)


def apply_readout_error(p: np.ndarray, nm: NoiseModel) -> np.ndarray:
    """Read out p, or each vector of a stack (..., 8), rounding as R @ p does."""
    p = qcore.check_probabilities(p)
    if p.shape[-1] != qcore.DIM:
        raise ValueError(f"readout acts on {qcore.DIM} outcomes, not {p.shape[-1]}")
    return (readout_matrix(nm) @ p[..., None])[..., 0]


@dataclass(frozen=True)
class ConfusionMatrix:
    """entries[m, t] = P(measure m | true state t); columns sum to 1."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("confusion matrix must be square")
        if np.min(e) < 0:
            raise ValueError("confusion matrix has a negative entry")
        if np.max(np.abs(e.sum(axis=0) - 1.0)) > qcore.STATE_ATOL:
            raise ValueError("confusion matrix columns must sum to 1")
        object.__setattr__(self, "entries", e)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def calibrate(nm: NoiseModel, shots: int, seed: int | np.random.SeedSequence) -> ConfusionMatrix:
    """Empirical confusion matrix: prepare each basis state, read out, count.

    All columns are one multinomial draw from the generator seeded by seed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    counts = qcore.sample_counts(readout_matrix(nm).T, shots, seed)
    return ConfusionMatrix(counts.T / shots)


def exact_confusion(nm: NoiseModel) -> ConfusionMatrix:
    """Infinite-shot limit of calibrate."""
    return ConfusionMatrix(readout_matrix(nm))


def mitigate(raw: np.ndarray, m: ConfusionMatrix) -> np.ndarray:
    """Least-squares inversion of the confusion matrix, clipped to the simplex;
    a stack (..., d) is one solve with a right-hand side per vector."""
    raw = qcore.check_probabilities(raw)
    if raw.shape[-1] != m.dim:
        raise ValueError("dimension mismatch between distribution and matrix")
    cond = np.linalg.cond(m.entries)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(f"confusion matrix is singular (cond={cond:.3g})")
    q, *_ = np.linalg.lstsq(m.entries, raw.reshape(-1, m.dim).T, rcond=None)
    q = np.clip(q.T.reshape(raw.shape), 0.0, None, order="C")  # rows sum as lone vectors do
    total = q.sum(axis=-1, keepdims=True)
    if np.min(total) <= 0:
        raise ValueError("mitigated distribution vanished")
    return q / total
