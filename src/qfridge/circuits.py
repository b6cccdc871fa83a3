"""Elementary-gate IR, the cooling-gate constructors, and the QASM emitter.

The hardware gate set is {rz(theta), x, sx, cx}.  Circuits live in physical
wire order.  :func:`embed_gate`, the one gate kernel, lifts a gate matrix to
the full register through cached index tables; :func:`unitary_of_circuit` and
the step unitaries of ``noise.evolve_noisy`` are built with it.  Three-wire unitaries are
returned in the logical |ij,k> order of :func:`build_target_unitary`.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qcore

GATE_NAMES = ("rz", "x", "sx", "cx")

X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
# fixed convention for sqrt(X)
SX_MATRIX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
# control most significant: the identity with its last two rows swapped
CX_MATRIX = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


@dataclass(frozen=True)
class Gate:
    name: str
    wires: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(self.wires))
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        if self.name == "cx":
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise ValueError("cx needs two distinct wires")
        elif len(self.wires) != 1:
            raise ValueError(f"{self.name} is a single-wire gate")
        if (self.angle is not None) != (self.name == "rz"):
            raise ValueError("angle is required for rz and only for rz")
        if self.angle is not None and not np.isfinite(self.angle):
            raise ValueError("rz angle must be finite")

    def matrix(self) -> np.ndarray:
        """2x2 (or 4x4 for cx, control most significant) gate matrix."""
        if self.name == "rz":
            return rz_matrix(self.angle)
        if self.name == "x":
            return X_MATRIX
        if self.name == "sx":
            return SX_MATRIX
        return CX_MATRIX


def rz(wire: int, angle: float) -> Gate:
    return Gate("rz", (wire,), angle)


def x(wire: int) -> Gate:
    return Gate("x", (wire,))


def sx(wire: int) -> Gate:
    return Gate("sx", (wire,))


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


@dataclass(frozen=True)
class CouplingMap:
    """Undirected set of wire pairs on which cx is allowed."""

    pairs: frozenset[frozenset[int]]

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(frozenset(p) for p in self.pairs))
        if any(len(p) != 2 for p in self.pairs):
            raise ValueError("coupling pairs must join two distinct wires")

    @classmethod
    def line(cls, n_wires: int) -> "CouplingMap":
        return cls((w, w + 1) for w in range(n_wires - 1))

    def allows(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.pairs


LINE3 = CouplingMap.line(3)


@dataclass(frozen=True)
class Circuit:
    """Gates in application order, on wires in physical order; checked when
    built: each gate stays in the register, each cx on the coupling map."""

    n_wires: int
    gates: tuple[Gate, ...] = ()
    coupling: CouplingMap | None = None

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.wires) >= self.n_wires or min(g.wires) < 0:
                raise ValueError(f"gate {g} uses a wire outside the register")
            if g.name == "cx" and self.coupling is not None:
                if not self.coupling.allows(*g.wires):
                    raise ValueError(f"cx on {g.wires} violates the coupling map")

    def __hash__(self) -> int:  # kept on first use: every noise._plan lookup hashes the circuit
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash((self.n_wires, self.gates, self.coupling))
        return self.__dict__["_hash"]

    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "cx")

    def depth(self) -> int:
        level = [0] * self.n_wires
        for g in self.gates:
            d = 1 + max(level[w] for w in g.wires)
            for w in g.wires:
                level[w] = d
        return max(level, default=0)


#: the V blocks a run can choose
V_CHOICES = ("identity", "vstar")
#: 4x4 block that swaps the inner pair of its states and keeps the outer two
SWAP_BLOCK = np.eye(4, dtype=complex)[:, [0, 2, 1, 3]]
# logical indices of the two invariant subspaces of the cooling gate
W_SUBSPACE = [qcore.basis_index(i, i, k) for i in (0, 1) for k in (0, 1)]
V_SUBSPACE = [qcore.basis_index(i, 1 - i, k) for i in (0, 1) for k in (0, 1)]


def build_target_unitary(v: str) -> np.ndarray:
    """8x8 cooling unitary in logical order.

    The gate is block diagonal: the swap block on span{|00,.>, |11,.>}, which
    exchanges |00,1> and |11,0>, and a block V on span{|01,.>, |10,.>}: the
    identity for v = "identity", the swap block again for v = "vstar".
    """
    if not isinstance(v, str) or v not in V_CHOICES:
        raise ValueError(f"unknown v {v!r}")
    u = np.zeros((qcore.DIM, qcore.DIM), dtype=complex)
    u[np.ix_(W_SUBSPACE, W_SUBSPACE)] = SWAP_BLOCK
    u[np.ix_(V_SUBSPACE, V_SUBSPACE)] = SWAP_BLOCK if v == "vstar" else np.eye(4)
    return u


@functools.lru_cache(maxsize=None)
def _embed_tables(wires: tuple[int, ...], n_wires: int):
    """Flat gate-local index of every register entry, and the 0/1 mask of
    entries whose other wires agree (wire 0 most significant)."""
    s = np.arange(2 ** n_wires)
    local = np.zeros_like(s)
    for w in wires:
        local = 2 * local + ((s >> (n_wires - 1 - w)) & 1)
    others = s & ~sum(1 << (n_wires - 1 - w) for w in wires)
    flat = local[:, None] * 2 ** len(wires) + local[None, :]
    return flat, (others[:, None] == others[None, :]).astype(complex)


def embed_gate(matrix: np.ndarray, wires, n_wires: int) -> np.ndarray:
    """Full-register matrix of a gate acting on `wires` (first most significant).

    matrix may be a stack (..., 2^k, 2^k) for k = len(wires); its entries are
    read through the cached tables, so no Kronecker products are formed.
    """
    flat, same = _embed_tables(tuple(wires), n_wires)
    return matrix.reshape(matrix.shape[:-2] + (-1,)).take(flat, axis=-1) * same


def unitary_of_circuit(c: Circuit) -> np.ndarray:
    """Evaluate the circuit to a matrix.

    Gates are multiplied in application order in physical wire order; for the
    three-wire register the result is permuted into logical |ij,k> order so
    it compares directly against build_target_unitary.
    """
    u = np.eye(2 ** c.n_wires, dtype=complex)
    for g in c.gates:
        u = embed_gate(g.matrix(), g.wires, c.n_wires) @ u
    return qcore.to_logical(u)


def build_vstar_circuit() -> Circuit:
    """Four-CNOT realization of the cooling gate with the V* block.

    On physical wires (q0 carries i, q1 carries k, q2 carries j) the sequence
    cx(0,1) cx(1,0) cx(1,2) cx(0,1) realizes the basis permutation
    (i, j, k) -> (k, i^j^k, i).
    """
    return Circuit(3, [cx(0, 1), cx(1, 0), cx(1, 2), cx(0, 1)], LINE3)


def emit_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text for a circuit; angles carry 17 significant digits."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.n_wires}];"]
    for g in c.gates:
        if g.name == "rz":
            lines.append(f"rz({g.angle:.17g}) q[{g.wires[0]}];")
        elif g.name == "cx":
            lines.append(f"cx q[{g.wires[0]}],q[{g.wires[1]}];")
        else:
            lines.append(f"{g.name} q[{g.wires[0]}];")
    return "\n".join(lines) + "\n"
