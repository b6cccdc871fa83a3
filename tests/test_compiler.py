"""Generic unitary compiler: round-trips, gate set, routing, and the pieces
of the Quantum Shannon Decomposition."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfridge import compiler, qcore
from qfridge.circuits import (
    Circuit,
    CouplingMap,
    GATE_NAMES,
    LINE3,
    SX_MATRIX,
    X_MATRIX,
    build_target_unitary,
    build_vstar_circuit,
    cx,
    emit_qasm,
    rz,
    sx,
    unitary_of_circuit,
    x,
)
from qfridge.compiler import (
    _ATOL,
    _cancel_cx_pairs,
    _cossin,
    _demultiplex,
    _rewrite_single,
    _route,
    _walsh_gray,
    compile_generic,
    global_phase_distance,
)
from qfridge.oracles import haar_unitary


def _assert_compiles_to(u, coupling, tol=1e-8):
    circuit, report = compile_generic(u, coupling)
    got = unitary_of_circuit(circuit)
    assert global_phase_distance(got, u) < tol
    assert all(g.name in GATE_NAMES for g in circuit.gates)
    assert report.total_gates == len(circuit.gates)
    assert report.cnot_count == circuit.cnot_count()
    assert report.depth == circuit.depth()
    if coupling is not None:
        for g in circuit.gates:
            if g.name == "cx":
                assert coupling.allows(*g.wires)
    return circuit, report


def test_compile_identity_is_tiny():
    circuit, report = _assert_compiles_to(np.eye(8), LINE3, tol=1e-10)
    assert report.total_gates == 0


def test_compile_cooling_target():
    for v in ("identity", "vstar"):
        _, report = _assert_compiles_to(build_target_unitary(v), LINE3)
        assert report.cnot_count <= 54


def test_route_bridges_distant_cnot():
    for a, c in ((0, 2), (2, 0)):
        routed = _route([cx(a, c)], LINE3, 3)
        assert routed == [cx(a, 1), cx(1, c), cx(a, 1), cx(1, c)]
        want = unitary_of_circuit(Circuit(3, [cx(a, c)]))
        assert np.array_equal(unitary_of_circuit(Circuit(3, routed, LINE3)), want)
    kept = [rz(0, 0.3), cx(0, 1), cx(2, 1), rz(2, 0.1)]
    assert _route(kept, LINE3, 3) == kept
    with pytest.raises(ValueError, match="0 and 3"):
        _route([cx(0, 3)], CouplingMap.line(4), 4)


def _distant_cx(circuit):
    return sum(g.name == "cx" and not LINE3.allows(*g.wires) for g in circuit.gates)


def test_routing_adds_three_cx_per_distant_cnot():
    rng = np.random.default_rng(15)
    for _ in range(5):
        u = haar_unitary(8, rng)
        unrouted, _ = compile_generic(u, None)
        distant = _distant_cx(unrouted)
        assert distant > 0
        _, report = compile_generic(u, LINE3)
        assert report.cnot_count == unrouted.cnot_count() + 3 * distant


def test_cx_cancellation_still_fires_after_bridging():
    # a bridge for cx(2, 0) opens with cx(2, 1) right after the circuit's own
    # cx(2, 1), and _cancel_cx_pairs drops the pair
    u = np.diag(np.exp(2j * np.pi * np.random.default_rng(16).random(8)))
    unrouted, _ = compile_generic(u, None)
    distant = _distant_cx(unrouted)
    _, report = _assert_compiles_to(u, LINE3)
    assert report.cnot_count < unrouted.cnot_count() + 3 * distant


def test_compile_two_wire_unitary():
    rng = np.random.default_rng(11)
    for _ in range(5):
        _assert_compiles_to(haar_unitary(4, rng), None)


def test_compile_random_three_wire_unitaries():
    rng = np.random.default_rng(12)
    for _ in range(5):
        _, report = _assert_compiles_to(haar_unitary(8, rng), LINE3)
        assert report.cnot_count <= 54


def test_compile_without_coupling_map():
    rng = np.random.default_rng(13)
    _assert_compiles_to(haar_unitary(8, rng), None)


def test_compile_rejects_bad_input():
    with pytest.raises(ValueError):
        compile_generic(np.ones((8, 8)), LINE3)
    with pytest.raises(ValueError):
        compile_generic(np.eye(3))
    with pytest.raises(ValueError):
        compile_generic(np.eye(1))


def _direct_sum(a, b):
    z = np.zeros((2 * len(a), 2 * len(a)), dtype=complex)
    z[: len(a), : len(a)], z[len(a):, len(a):] = a, b
    return z


def _phased_permutation(dim, rng):
    return np.eye(dim)[rng.permutation(dim)] * np.exp(2j * np.pi * rng.random(dim))


def _near_identity(dim, delta, rng):
    """exp(i delta H) for a random Hermitian H of unit spectral norm."""
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    lam, vec = np.linalg.eigh(h + h.conj().T)
    return (vec * np.exp(1j * delta * lam / np.max(np.abs(lam)))) @ vec.conj().T


def test_cossin_matches_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(14)
    targets = [haar_unitary(d, rng) for d in (4, 8) for _ in range(10)]
    targets += [np.eye(8, dtype=complex), _phased_permutation(8, rng)]
    targets += [
        _phased_permutation(8, rng) @ _near_identity(8, delta, rng)
        for delta in (1e-10, 1e-7, 1e-5)
    ]
    for u in targets:
        h = len(u) // 2
        l0, l1, theta, r0, r1 = _cossin(u)
        cs = np.block([
            [np.diag(np.cos(theta)), -np.diag(np.sin(theta))],
            [np.diag(np.sin(theta)), np.diag(np.cos(theta))],
        ])
        rebuilt = _direct_sum(l0, l1) @ cs @ _direct_sum(r0, r1)
        assert np.max(np.abs(rebuilt - u)) < 1e-12
        _, ref_theta, _ = linalg.cossin(u, p=h, q=h, separate=True)
        assert np.max(np.abs(np.sort(theta) - np.sort(ref_theta))) < 1e-12


def test_cossin_of_equal_blocks_keeps_them_equal():
    # u = I x a has no sines; completing l1 from l0 leaves both
    # demultiplexers trivial
    a = haar_unitary(4, np.random.default_rng(17))
    l0, l1, theta, r0, r1 = _cossin(np.kron(np.eye(2), a))
    assert np.all(theta == 0.0)
    assert np.max(np.abs(l1 - l0)) < 1e-12
    assert np.max(np.abs(r1 - r0)) < 1e-12


def _assert_demultiplexes(a1, a2):
    dim = len(a1)
    v, d, w = _demultiplex(a1, a2)
    assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-12
    assert np.allclose(np.abs(d), 1.0, rtol=0, atol=1e-12)
    rebuilt = (
        np.kron(np.eye(2), v)
        @ _direct_sum(np.diag(d), np.diag(d.conj()))
        @ np.kron(np.eye(2), w)
    )
    assert np.max(np.abs(rebuilt - _direct_sum(a1, a2))) < 1e-12


# e^{i t1} and e^{i t2} with t1 + t2 = 2 atan(c) share cos t + c sin t, so a
# fixed mix of the Hermitian and anti-Hermitian parts cannot tell them apart;
# for c = (sqrt(5) - 1) / 2 one such pair is 1 and (1 + 2i) / sqrt(5)
_MERGED_BY_GOLDEN_MIX = (1 + 2j) / np.sqrt(5)


def test_demultiplex_degenerate_blocks():
    rng = np.random.default_rng(16)
    l0, l1, _, r0, r1 = _cossin(qcore.to_physical(build_target_unitary("identity")))
    pairs = [(l0, l1), (r0, r1)]
    pairs += [
        (np.diag(rng.choice([-1.0, 1.0], 4)), np.diag(rng.choice([-1.0, 1.0], 4)))
        for _ in range(10)
    ]
    pairs += [
        (_phased_permutation(4, rng), _phased_permutation(4, rng)) for _ in range(10)
    ]
    pairs += [(np.eye(4), np.eye(4)), (np.eye(4), -np.eye(4))]
    for dim in (2, 4):
        for lam in (_MERGED_BY_GOLDEN_MIX, _MERGED_BY_GOLDEN_MIX.conjugate()):
            q = haar_unitary(dim, rng)
            spectrum = np.r_[np.ones(dim - 1), lam]
            pairs.append((np.eye(dim), (q * spectrum) @ q.conj().T))
    for a1, a2 in pairs:
        _assert_demultiplexes(a1, a2)


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1))
def test_demultiplex_any_spectrum(dim, seed):
    # eigenvalues of a1 a2^dagger: the first two merged by the mix
    # cos t + c sin t (c = 0 is the Hermitian part alone, the golden ratio
    # the mix of _MERGED_BY_GOLDEN_MIX), the rest at gaps from 1e-14 to 1
    rng = np.random.default_rng(seed)
    gaps = rng.choice([0.0, 1.0], dim) * 10.0 ** rng.uniform(-14, 0, dim)
    t = rng.uniform(-np.pi, np.pi) + gaps * rng.choice([-1.0, 1.0], dim)
    c = rng.choice([0.0, 1.0, (np.sqrt(5) - 1) / 2, rng.normal()])
    t[1] = 2 * np.arctan(c) - t[0]
    q, a2 = haar_unitary(dim, rng), haar_unitary(dim, rng)
    _assert_demultiplexes((q * np.exp(1j * t)) @ q.conj().T @ a2, a2)


def test_compile_controlled_unitary_with_merged_eigenvalues():
    # controlled-A with det A^dagger = (1 + 2i) / sqrt(5): the cosine-sine
    # step has no sines and hands A^dagger's eigenvalues to the demultiplexer
    half = 0.5 * np.angle(_MERGED_BY_GOLDEN_MIX.conjugate())
    c, s = np.cos(0.35), np.sin(0.35)
    a = np.exp(1j * half) * np.array([[c, -1j * s], [-1j * s, c]])  # e^{i half} Rx(0.7)
    _assert_compiles_to(_direct_sum(np.eye(2), a), LINE3, tol=1e-12)
    q = haar_unitary(4, np.random.default_rng(18))
    a = (q * np.r_[1.0, 1.0, 1.0, _MERGED_BY_GOLDEN_MIX.conjugate()]) @ q.conj().T
    u = qcore.to_logical(_direct_sum(np.eye(4), a))
    _assert_compiles_to(u, LINE3, tol=1e-12)


def test_compile_factors_on_fewer_wires_without_extra_cx():
    # B on one wire, or A on (q1, q2), padded with identities (physical
    # order): the cosine-sine splits of I x M are block diagonal and their
    # demultiplexers trivial, so no cx beyond the factor's own remain
    rng = np.random.default_rng(19)
    i2 = np.eye(2)
    for _ in range(3):
        b, a = haar_unitary(2, rng), haar_unitary(4, rng)
        on_one_wire = (np.kron(b, np.eye(4)), np.kron(i2, np.kron(b, i2)), np.kron(np.eye(4), b))
        for u_phys in on_one_wire:
            _, report = _assert_compiles_to(qcore.to_logical(u_phys), LINE3, tol=1e-12)
            assert report.cnot_count == 0 and report.total_gates <= 5
        _, report = _assert_compiles_to(qcore.to_logical(np.kron(i2, a)), LINE3, tol=1e-12)
        assert report.cnot_count <= 6


def _target(family, n, seed):
    """A physical-order 2^n x 2^n unitary of the named family."""
    rng = np.random.default_rng(seed)
    dim = 2 ** n
    if family == "haar":
        return haar_unitary(dim, rng)
    if family == "permutation":
        return _phased_permutation(dim, rng)
    if family == "controlled":
        a = haar_unitary(dim // 2, rng)
        return _direct_sum(a, a if rng.random() < 0.3 else haar_unitary(dim // 2, rng))
    if family == "diagonal":
        return np.diag(np.exp(2j * np.pi * rng.random(dim)))
    # near-degenerate CS angles: sines (or cosines) of about 1e-10 to 1e-5
    delta = 10.0 ** rng.uniform(-10, -5)
    return _phased_permutation(dim, rng) @ _near_identity(dim, delta, rng)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    family=st.sampled_from(["haar", "permutation", "controlled", "diagonal", "near"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_compile_roundtrip_property(n, family, seed):
    u_phys = _target(family, n, seed)
    u = qcore.to_logical(u_phys) if n == qcore.N_WIRES else u_phys
    _assert_compiles_to(u, LINE3)


def test_cancel_cx_pairs():
    nested = [cx(0, 1), rz(2, 0.3), cx(1, 2), cx(1, 2), cx(0, 1)]
    assert _cancel_cx_pairs(nested, 3) == [rz(2, 0.3)]
    blocked = [cx(0, 1), rz(1, 0.3), cx(0, 1)]
    assert _cancel_cx_pairs(blocked, 3) == blocked
    reversed_pair = [cx(0, 1), cx(1, 0)]
    assert _cancel_cx_pairs(reversed_pair, 2) == reversed_pair
    vstar = list(build_vstar_circuit().gates)
    assert _cancel_cx_pairs(vstar, 3) == vstar


def test_global_phase_distance_properties():
    rng = np.random.default_rng(15)
    u = haar_unitary(8, rng)
    assert global_phase_distance(np.exp(0.7j) * u, u) < 1e-12
    v = haar_unitary(8, rng)
    assert global_phase_distance(u, v) > 1e-3


# ---------------------------------------------------------------------------
# frozen reference: the one-wire rewrite, the Gray-code ladder and the merge
# as they were before the rewrite read |m00|, |m10| once, the Walsh table was
# cached and the merge stopped seeding each run with the identity; the code
# is verbatim, only the names carry a _frozen prefix

def _frozen_ucr_ops(rot, angles, target, controls):
    m = len(controls)
    walsh = np.ones((1, 1))
    for _ in range(m):
        walsh = np.kron(walsh, [[1.0, 1.0], [1.0, -1.0]])
    gray = [k ^ (k >> 1) for k in range(2 ** m)]
    thetas = walsh[gray] @ angles / 2 ** m

    def flip(mask: int) -> list:
        bits = (mask >> (m - 1 - i) & 1 for i in range(m))
        return [("cx", c, target) for c, bit in zip(controls, bits) if bit]

    ops: list = []
    parity = 0
    for p, theta in zip(gray, thetas):
        if abs(theta) > _ATOL:
            ops += flip(parity ^ p)
            ops.append(("u", target, rot(theta)))
            parity = p
    return ops + flip(parity)


def _frozen_is_phase_of(m, ref):
    k = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
    if abs(m[k]) < _ATOL:
        return False
    return np.max(np.abs(m - (m[k] / ref[k]) * ref)) < 1e-11


def _frozen_norm_angle(a):
    return (a + np.pi) % (2 * np.pi) - np.pi


def _frozen_rewrite_single(wire, m):
    if _frozen_is_phase_of(m, np.eye(2)):
        return []
    if _frozen_is_phase_of(m, X_MATRIX):
        return [x(wire)]
    if _frozen_is_phase_of(m, SX_MATRIX):
        return [sx(wire)]
    if abs(m[1, 0]) < _ATOL:  # diagonal -> one rz
        ang = _frozen_norm_angle(np.angle(m[1, 1]) - np.angle(m[0, 0]))
        return [rz(wire, ang)] if abs(ang) > _ATOL else []
    if abs(m[0, 0]) < _ATOL:  # antidiagonal
        theta, lam = np.pi, 0.0
        phi = np.angle(m[1, 0]) - np.angle(-m[0, 1])
    else:
        gamma = np.angle(m[0, 0])
        theta = 2 * np.arctan2(abs(m[1, 0]), abs(m[0, 0]))
        phi = np.angle(m[1, 0]) - gamma
        if abs(m[1, 0]) < abs(m[0, 0]):
            lam = np.angle(m[1, 1]) - gamma - phi
        else:
            lam = np.angle(-m[0, 1]) - gamma
    gates = []
    for ang in (lam, None, theta + np.pi, None, phi + np.pi):
        if ang is None:
            gates.append(sx(wire))
        else:
            ang = _frozen_norm_angle(ang)
            if abs(ang) > _ATOL:
                gates.append(rz(wire, ang))
    return gates


def _frozen_merge_and_rewrite(ops, n):
    pending = {}
    gates = []

    def flush(w: int) -> None:
        m = pending.pop(w, None)
        if m is not None:
            gates.extend(_frozen_rewrite_single(w, m))

    for op in ops:
        if op[0] == "u":
            _, w, m = op
            pending[w] = m @ pending.get(w, np.eye(2, dtype=complex))
        else:
            _, c, t = op
            flush(c)
            flush(t)
            gates.append(cx(c, t))
    for w in range(n):
        flush(w)
    return gates


def _gate_bits(gates):
    """Gates with each angle as its exact bits, so -0.0 and 1-ulp moves count."""
    return [(g.name, g.wires, None if g.angle is None else float(g.angle).hex()) for g in gates]


def _one_wire_matrix(kind, rng):
    if kind == "haar":
        return haar_unitary(2, rng)
    base = {"identity": np.eye(2), "x": X_MATRIX, "sx": SX_MATRIX}.get(kind)
    if base is None:
        base = np.diag(np.exp(2j * np.pi * rng.random(2)))
        base = base if kind == "diagonal" else X_MATRIX @ base
    return np.exp(2j * np.pi * rng.random()) * base


# perturbation sizes from 0 to 3e-11 that straddle, each within 0.1%, the 1e-12
# branch bound, the 1e-11 probe bound and the 2e-11 guard
_EPS = np.r_[
    np.linspace(0.0, 3e-11, 31),
    np.outer([1e-12, 1e-11, 2e-11], [0.9, 0.999, 1.001, 1.1]).ravel(),
]


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["haar", "identity", "x", "sx", "diagonal", "antidiagonal"]),
    entry=st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rewrite_single_matches_frozen_reference(kind, entry, seed):
    rng = np.random.default_rng(seed)
    base, turn, wire = _one_wire_matrix(kind, rng), np.exp(2j * np.pi * rng.random()), seed % 3
    for eps in _EPS:
        m = base.copy()
        m[entry] += eps * turn
        assert _gate_bits(_rewrite_single(wire, m)) == _gate_bits(_frozen_rewrite_single(wire, m))


def test_walsh_gray_is_the_kron_walsh_matrix_in_gray_row_order():
    walsh = np.ones((1, 1))
    for m in range(4):
        table = _walsh_gray(m)
        assert np.array_equal(table, walsh[[k ^ (k >> 1) for k in range(2 ** m)]])
        assert not table.flags.writeable and _walsh_gray(m) is table
        walsh = np.kron(walsh, [[1.0, 1.0], [1.0, -1.0]])


def test_compiled_qasm_is_byte_identical_to_the_frozen_compiler(monkeypatch):
    rng = np.random.default_rng(2024)  # criterion 3's Haar targets
    targets = [build_target_unitary(v) for v in ("identity", "vstar")]
    targets += [haar_unitary(8, rng) for _ in range(50)]
    targets += [haar_unitary(8, np.random.default_rng(seed)) for seed in range(200)]

    def qasm():
        return [emit_qasm(compile_generic(u, c)[0]) for u in targets for c in (None, LINE3)]

    now = qasm()
    monkeypatch.setattr(compiler, "_ucr_ops", _frozen_ucr_ops)
    monkeypatch.setattr(compiler, "_rewrite_single", _frozen_rewrite_single)
    monkeypatch.setattr(compiler, "_merge_and_rewrite", _frozen_merge_and_rewrite)
    frozen = qasm()
    assert [i for i, (a, b) in enumerate(zip(now, frozen)) if a != b] == []
