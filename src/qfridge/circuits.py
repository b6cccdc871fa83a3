"""Elementary-gate IR, the cooling-gate constructors, and the QASM emitter.

The hardware gate set is {rz(theta), x, sx, cx}.  Circuits live in physical
wire order.  :func:`embed_gate`, the one gate kernel, lifts a gate matrix, or
a stack of them, to the full register through cached index tables; its one
caller is :func:`gate_stack`, which lifts every gate of a circuit with one
call per (name, wires) group.  :func:`unitary_of_circuit` multiplies that
stack pairwise, and the step unitaries of the noise plan (``noise._plan``,
behind ``noise.circuit_channel`` and ``noise.channel_polynomial``) are read
from it.  Three-wire unitaries are returned in the logical |ij,k> order of
:func:`build_target_unitary`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qcore

GATE_NAMES = ("rz", "x", "sx", "cx")

X_MATRIX = qcore.read_only(np.array([[0, 1], [1, 0]], dtype=complex))
# fixed convention for sqrt(X)
SX_MATRIX = qcore.read_only(0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]))
# control most significant: the identity with its last two rows swapped
CX_MATRIX = qcore.read_only(np.eye(4, dtype=complex)[[0, 1, 3, 2]])


FIXED_MATRICES = {"x": X_MATRIX, "sx": SX_MATRIX, "cx": CX_MATRIX}
_EYE2 = qcore.read_only(np.eye(2, dtype=bool))
# theta's factors in the two exponents, and the zeros that the products
# -0.5j * theta and 0.5j * theta add to them (the second turns -0.0 into +0.0)
_HALF = qcore.read_only(np.array([-0.5, 0.5]))
_ADDED_ZERO = qcore.read_only(np.array([-0.0, 0.0]))


def rz_matrix(theta: float | np.ndarray) -> np.ndarray:
    """diag(exp(-i theta/2), exp(i theta/2)), or a stack (..., 2, 2) of them
    for an array of angles; the off-diagonal zeros are +0.

    The exponents are built in real arithmetic with the signs of zero of the
    IEEE products -0.5j * theta and 0.5j * theta: numpy's complex multiply
    loops may round a tiny angle's product to either zero, so a float and a
    stack would not always give the same bits.
    """
    z = np.zeros(np.shape(theta) + (2,), dtype=complex)
    z.imag = np.multiply.outer(theta, _HALF) + _ADDED_ZERO
    return np.where(_EYE2, np.exp(z)[..., None], 0j)


def _is_int(n) -> bool:
    """A register size or a wire is an int, numpy integers included, and not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


@dataclass(frozen=True)
class Gate:
    name: str
    wires: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(self.wires))
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        if not all(map(_is_int, self.wires)):
            raise ValueError(f"wires {self.wires!r} are not all ints")
        if self.name == "cx":
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise ValueError("cx needs two distinct wires")
        elif len(self.wires) != 1:
            raise ValueError(f"{self.name} is a single-wire gate")
        if (self.angle is not None) != (self.name == "rz"):
            raise ValueError("angle is required for rz and only for rz")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError("rz angle must be finite")

    def matrix(self) -> np.ndarray:
        """2x2 (or 4x4 for cx, control most significant) gate matrix."""
        return rz_matrix(self.angle) if self.name == "rz" else FIXED_MATRICES[self.name]


def rz(wire: int, angle: float) -> Gate:
    return Gate("rz", (wire,), angle)


# x, sx and cx are built and checked once per distinct wires, typed so that a bool
# never shares an int's entry; errors are not cached, so bad wires always raise
@functools.lru_cache(maxsize=None, typed=True)
def x(wire: int) -> Gate:
    return Gate("x", (wire,))


@functools.lru_cache(maxsize=None, typed=True)
def sx(wire: int) -> Gate:
    return Gate("sx", (wire,))


@functools.lru_cache(maxsize=None, typed=True)
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
    """Gates in application order, on wires in physical order; checked when built: the
    register is an int >= 1, not a bool, each gate stays in it, each cx on the coupling map."""

    n_wires: int
    gates: tuple[Gate, ...] = ()
    coupling: CouplingMap | None = None

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        n = self.n_wires
        if not (_is_int(n) and n >= 1):
            raise ValueError(f"register size {n!r} is not an int >= 1")
        # only cx has two wires, so the checks depend on the wires alone; each
        # distinct tuple is checked once, in the order of its first gate
        for wires in dict.fromkeys(g.wires for g in self.gates):
            if max(wires) >= self.n_wires or min(wires) < 0:
                g = next(g for g in self.gates if g.wires == wires)
                raise ValueError(f"gate {g} uses a wire outside the register")
            if len(wires) == 2 and self.coupling is not None:
                if not self.coupling.allows(*wires):
                    raise ValueError(f"cx on {wires} violates the coupling map")

    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "cx")

    def depth(self) -> int:
        level = [0] * self.n_wires
        for g in self.gates:
            if g.name == "cx":
                a, b = g.wires
                level[a] = level[b] = max(level[a], level[b]) + 1
            else:
                level[g.wires[0]] += 1
        return max(level, default=0)


@dataclass(frozen=True)
class CompileReport:
    """Gate counts of a circuit, as ``qfridge compile`` prints them."""

    total_gates: int
    cnot_count: int
    depth: int

    @classmethod
    def of(cls, circuit: Circuit) -> "CompileReport":
        return cls(len(circuit.gates), circuit.cnot_count(), circuit.depth())


#: the V blocks a run can choose
V_CHOICES = ("identity", "vstar")
#: 4x4 block that swaps the inner pair of its states and keeps the outer two
SWAP_BLOCK = qcore.read_only(np.eye(4, dtype=complex)[:, [0, 2, 1, 3]])
# logical indices of the two invariant subspaces of the cooling gate
W_SUBSPACE = [qcore.basis_index(i, i, k) for i in (0, 1) for k in (0, 1)]
V_SUBSPACE = [qcore.basis_index(i, 1 - i, k) for i in (0, 1) for k in (0, 1)]


def build_target_unitary(v: str) -> np.ndarray:
    """8x8 cooling unitary in logical order.

    The gate is block diagonal: the swap block on span{|00,.>, |11,.>}, which
    exchanges |00,1> and |11,0>, and a block V on span{|01,.>, |10,.>}: the
    identity for v = "identity", the swap block again for v = "vstar".
    """
    if not isinstance(v, str) or v not in V_CHOICES:  # v may be an array
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
    flat = qcore.read_only(local[:, None] * 2 ** len(wires) + local[None, :])
    return flat, qcore.read_only((others[:, None] == others[None, :]).astype(complex))


def embed_gate(matrix: np.ndarray, wires, n_wires: int) -> np.ndarray:
    """Full-register matrix of a gate acting on `wires` (first most significant).

    matrix may be a stack (..., 2^k, 2^k) for k = len(wires); its entries are
    read through the cached tables, so no Kronecker products are formed.
    """
    flat, same = _embed_tables(tuple(wires), n_wires)
    return matrix.reshape(matrix.shape[:-2] + (-1,)).take(flat, axis=-1) * same


def gate_stack(c: Circuit) -> np.ndarray:
    """(len(c.gates), 2^n, 2^n) stack of every gate's full-register matrix,
    physical order, in application order.

    The gates are grouped by (name, wires), with one embed_gate call per
    group; an rz group's 2x2s come from one rz_matrix call over its angles.
    Each row equals embed_gate(g.matrix(), g.wires, n) bit for bit.
    """
    groups: dict[tuple, list[int]] = {}
    for k, g in enumerate(c.gates):
        groups.setdefault((g.name, g.wires), []).append(k)
    stack = np.empty((len(c.gates),) + (2 ** c.n_wires,) * 2, dtype=complex)
    for (name, wires), rows in groups.items():
        if name == "rz":
            m = rz_matrix(np.array([c.gates[k].angle for k in rows]))
        else:
            m = FIXED_MATRICES[name]
        stack[rows] = embed_gate(m, wires, c.n_wires)
    return stack


def unitary_of_circuit(c: Circuit) -> np.ndarray:
    """Evaluate the circuit to a matrix.

    The gate stack is multiplied pairwise, later gate on the left, level by
    level; an odd level is padded with the identity.  For the three-wire
    register the result is permuted into logical |ij,k> order so it compares
    directly against build_target_unitary.
    """
    s = gate_stack(c)
    eye = np.eye(2 ** c.n_wires, dtype=complex)[None]
    while len(s) != 1:
        if len(s) % 2 or not len(s):
            s = np.concatenate([s, eye])
        else:
            s = s[1::2] @ s[::2]
    return qcore.to_logical(s[0])


def build_vstar_circuit() -> Circuit:
    """Four-CNOT realization of the cooling gate with the V* block.

    On physical wires (q0 carries i, q1 carries k, q2 carries j) the sequence
    cx(0,1) cx(1,0) cx(1,2) cx(0,1) realizes the basis permutation
    (i, j, k) -> (k, i^j^k, i).
    """
    return Circuit(3, [cx(0, 1), cx(1, 0), cx(1, 2), cx(0, 1)], LINE3)


def build_identity_circuit() -> Circuit:
    """Seven-CNOT realization of the V = identity cooling gate, up to a final
    diagonal phase: 23 gates, depth 23, every cx on LINE3.

    The gate swaps the physical states 010 and 101 (q0 carries i, q1 carries
    k, q2 carries j).  Conjugating by C = cx(1,0) cx(1,2) maps that pair to
    111 <-> 101, an X on q1 controlled by q0 and q2: a Toffoli whose target
    is the middle wire.  Its relative-phase form (Barenco et al., PRA 52,
    3457 (1995); Maslov, PRA 93, 022311 (2016)) takes 3 cx, each from a
    control to q1, between Ry(+pi/4) (P below) and Ry(-pi/4) (M) on q1.

    unitary_of_circuit gives D T, with T = build_target_unitary("identity")
    and D = diag(1, 1, 1, -1, 1, 1, 1, 1) in logical order (the -1 on
    |01,1>).  D acts after the last gate and commutes with computational-
    basis readout, so every transition matrix of this circuit, noisy or
    not, is that of T run through the same noise.
    """
    c = [cx(1, 0), cx(1, 2)]
    p = [sx(1), rz(1, -3 * math.pi / 4), sx(1), rz(1, math.pi)]  # Ry(+pi/4) up to phase
    m = [sx(1), rz(1, 3 * math.pi / 4), sx(1), rz(1, math.pi)]  # Ry(-pi/4) up to phase
    gates = c + p + [cx(2, 1)] + p + [cx(0, 1)] + m + [cx(2, 1)] + m + c
    return Circuit(3, gates, LINE3)


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
