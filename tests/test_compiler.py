"""Generic unitary compiler: round-trips, gate set, routing, and the pieces
of the Quantum Shannon Decomposition."""
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    rz_matrix,
    sx,
    unitary_of_circuit,
    x,
)
from qfridge.compiler import (
    _ATOL,
    _cancel_cx_pairs,
    _cossin,
    _demultiplex,
    _qsd_ops,
    _rewrite_stack,
    _route,
    _ry2,
    _separating_angle,
    _walsh_gray,
    compile_generic,
)
from qfridge.oracles import global_phase_distance, haar_unitary


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
        l0, l1, theta, r0, r1 = (a[0] for a in _cossin(u[None]))
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
    l0, l1, theta, r0, r1 = (b[0] for b in _cossin(np.kron(np.eye(2), a)[None]))
    assert np.all(theta == 0.0)
    assert np.max(np.abs(l1 - l0)) < 1e-12
    assert np.max(np.abs(r1 - r0)) < 1e-12


def _assert_demultiplexes(a1, a2):
    dim = len(a1)
    v, d, w = (a[0] for a in _demultiplex(a1[None], a2[None]))
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
    target = qcore.to_physical(build_target_unitary("identity"))
    l0, l1, _, r0, r1 = (a[0] for a in _cossin(target[None]))
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
    if family == "kron":  # one- and two-wire factors side by side, some the identity
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, min(2, n - sum(sizes)) + 1)))
        factors = [haar_unitary(2 ** k, rng) if rng.random() < 0.6 else np.eye(2 ** k) for k in sizes]
        return functools.reduce(np.kron, factors)
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
# frozen reference: the one-wire rewrite and the merge as they were before
# the rewrite read |m00|, |m10| once, the merge stopped seeding each run with
# the identity, and the rewrite went to stacks; the code is verbatim, only
# the names carry a _frozen prefix

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
def test_rewrite_stack_matches_frozen_reference(kind, entry, seed):
    # the perturbations of one example cross branch bounds, so one stack
    # mixes branches; each matrix alone must rewrite the same as in the stack
    rng = np.random.default_rng(seed)
    base, turn, wire = _one_wire_matrix(kind, rng), np.exp(2j * np.pi * rng.random()), seed % 3
    ms = np.repeat(base[None], len(_EPS), axis=0)
    ms[(slice(None),) + entry] += _EPS * turn
    want = [_gate_bits(_frozen_rewrite_single(wire, m)) for m in ms]
    assert [_gate_bits(g) for g in _rewrite_stack([wire] * len(ms), ms)] == want
    assert [_gate_bits(_rewrite_stack([wire], m[None])[0]) for m in ms] == want


def _same_bits(a, b):
    """Equal values, dtypes and signs of zero."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(angles=st.lists(st.floats(-1e6, 1e6), max_size=16))
def test_ry2_of_an_array_stacks_the_lone_real_matrices(angles):
    angles = [0.0, -0.0, 1e-13, -1e-13, np.pi, -np.pi] + angles
    stack = _ry2(np.array(angles))
    assert stack.shape == (len(angles), 2, 2)
    for a, m in zip(angles, stack, strict=True):
        lone = _ry2(float(a))
        assert _same_bits(m, lone)
        # Ry is real: each imaginary part is +0.0, a sign that np.angle reads
        # (np.angle(complex(-1.0, -0.0)) is -pi)
        c, s = np.cos(a / 2), np.sin(a / 2)
        assert _same_bits(lone.real, np.array([[c, -s], [s, c]]))
        assert not np.signbit(lone.imag).any()


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
    # their one-wire products reach the I, X, SX, diagonal and antidiagonal rewrites
    targets += [_target(("diagonal", "permutation")[seed % 2], 3, seed) for seed in range(100)]

    def qasm():
        return [emit_qasm(compile_generic(u, c)[0]) for u in targets for c in (None, LINE3)]

    now = qasm()
    monkeypatch.setattr(compiler, "_qsd_ops", _frozen_qsd_ops_of_stack)
    monkeypatch.setattr(compiler, "_merge_and_rewrite", _frozen_merge_and_rewrite)
    frozen = qasm()
    assert [i for i, (a, b) in enumerate(zip(now, frozen)) if a != b] == []


# ---------------------------------------------------------------------------
# frozen reference: the recursion, the cosine-sine split, the demultiplexer
# and the Gray-code ladder as they were before each level of the recursion
# ran as one stack; the code is verbatim, only the names carry a _frozen prefix

def _frozen_cossin(u: np.ndarray):
    h = u.shape[0] // 2
    u00, u01, u10, u11 = u[:h, :h], u[:h, h:], u[h:, :h], u[h:, h:]
    if max(np.max(np.abs(u01)), np.max(np.abs(u10))) <= _ATOL:
        eye = np.eye(h, dtype=complex)
        return u00, u11, np.zeros(h), eye, eye
    l0, c, r0 = np.linalg.svd(u00)
    # Cosines near 1 fix their rows of r0 only up to a rotation among
    # themselves, and their sines are too small to read off 1 - c^2; an SVD
    # of u10 on those rows picks the rotation and gives the sines.  Below
    # 1/sqrt(2) the SVD of u00 resolves the rows, and the sines come from
    # column norms of u10 r0^dagger.
    k = int(np.count_nonzero(c >= np.sqrt(0.5)))
    p, s_near, qh = np.linalg.svd(u10 @ r0[:k].conj().T)
    r0[:k] = qh @ r0[:k]
    x_near = u00 @ r0[:k].conj().T
    c[:k] = np.linalg.norm(x_near, axis=0)
    l0[:, :k] = x_near / c[:k]
    y_far = u10 @ r0[k:].conj().T
    s = np.concatenate([s_near, np.linalg.norm(y_far, axis=0)])
    tiny = s <= _ATOL
    s[tiny] = 0.0
    # l1 = (u10 r0^dagger) / s where s is not tiny, completed from l0's
    # columns elsewhere; one QR, largest sines first, makes it unitary
    l1 = np.concatenate([p[:, :k], y_far / s[k:]], axis=1)
    l1[:, tiny] = l0[:, tiny]
    order = np.argsort(-s, kind="stable")
    q, r = np.linalg.qr(l1[:, order])
    l1[:, order] = q * np.exp(1j * np.angle(np.diagonal(r)))
    r1 = c[:, None] * (l1.conj().T @ u11) - s[:, None] * (l0.conj().T @ u01)
    return l0, l1, np.arctan2(s, c), r0, r1


def _frozen_demultiplex(a1: np.ndarray, a2: np.ndarray):
    nrm = a1 @ a2.conj().T
    diag = np.diagonal(nrm)
    if np.max(np.abs(nrm - np.diag(diag))) <= _ATOL:
        d = np.exp(0.5j * np.angle(diag))
        return np.eye(len(nrm), dtype=complex), d, d[:, None] * a2
    nrm_psi = np.exp(-1j * _separating_angle(np.linalg.eigvals(nrm).tolist())) * nrm
    _, v = np.linalg.eigh((nrm_psi + nrm_psi.conj().T) / 2)
    d = np.exp(0.5j * np.angle(np.diagonal(v.conj().T @ nrm @ v)))
    return v, d, d[:, None] * (v.conj().T @ a2)


def _frozen_ucr_ops(
    rot, angles: np.ndarray, target: int, controls: tuple[int, ...]
) -> list:
    m = len(controls)
    gray = [k ^ (k >> 1) for k in range(2 ** m)]
    thetas = _walsh_gray(m) @ angles / 2 ** m

    def flip(mask: int) -> list:
        bits = (mask >> (m - 1 - i) & 1 for i in range(m))
        return [("cx", c, target) for c, bit in zip(controls, bits) if bit]

    kept = np.abs(thetas) > _ATOL
    rotations = iter(rot(thetas[kept]))
    ops: list = []
    parity = 0
    for p, keep in zip(gray, kept.tolist()):
        if keep:
            ops += flip(parity ^ p)
            ops.append(("u", target, next(rotations)))
            parity = p
    return ops + flip(parity)


def _frozen_qsd_ops(u: np.ndarray, wires: tuple[int, ...]) -> list:
    if len(wires) == 1:
        return [("u", wires[0], u)]
    top, rest = wires[0], wires[1:]
    l0, l1, theta, r0, r1 = _frozen_cossin(u)

    def demultiplexed(a1, a2) -> list:
        v, d, w = _frozen_demultiplex(a1, a2)
        return (
            _frozen_qsd_ops(w, rest)
            + _frozen_ucr_ops(rz_matrix, -2 * np.angle(d), top, rest)
            + _frozen_qsd_ops(v, rest)
        )

    return (
        demultiplexed(r0, r1)
        + _frozen_ucr_ops(_ry2, 2 * theta, top, rest)
        + demultiplexed(l0, l1)
    )


def _frozen_qsd_ops_of_stack(u, wires):
    """_qsd_ops's signature: one frozen recursion per block of the stack."""
    return [_frozen_qsd_ops(block, wires) for block in u]


def _op_bits(ops):
    """Raw ops with each 2x2 as its dtype, shape and bytes."""
    return [op if op[0] == "cx" else (*op[:2], op[2].dtype.str, op[2].shape, op[2].tobytes())
            for op in ops]


def _raw_op_targets():
    """Physical-order targets whose recursions reach every branch: criterion
    3's, the cooling gates' and Haar splits with every k; the trivial split
    and the diagonal demultiplex of diagonal, controlled and kron targets;
    phased permutations; 4x4 and 2x2 targets."""
    rng = np.random.default_rng(2024)
    targets = [qcore.to_physical(build_target_unitary(v)) for v in ("identity", "vstar")]
    targets += [qcore.to_physical(haar_unitary(8, rng)) for _ in range(50)]
    targets += [qcore.to_physical(haar_unitary(8, np.random.default_rng(seed))) for seed in range(200)]
    families = ("diagonal", "permutation", "kron", "controlled", "near", "haar")
    targets += [_target(f, n, seed) for f in families for n in (1, 2, 3) for seed in range(20)]
    return targets


def test_stacked_qsd_ops_equal_the_frozen_recursion():
    def bits(qsd_ops, u):
        return _op_bits(qsd_ops(u[None], tuple(range(len(u).bit_length() - 1)))[0])

    moved = [i for i, u in enumerate(_raw_op_targets())
             if bits(_qsd_ops, u) != bits(_frozen_qsd_ops_of_stack, u)]
    assert moved == []


# every k from 0 to h among the "near" blocks, the trivial split of the
# controlled, diagonal and kron ones, and the mixed a1 a2^dagger of Haar ones
_ALL_K_TWO_WIRES = [("near", 0), ("controlled", 1), ("near", 1), ("diagonal", 2), ("near", 11),
                    ("haar", 7), ("kron", 5), ("permutation", 4)]
_ALL_K_THREE_WIRES = [("near", 230), ("controlled", 1), ("near", 14), ("diagonal", 2), ("near", 0),
                      ("near", 3), ("kron", 5), ("near", 41), ("haar", 7)]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 3),
    blocks=st.lists(
        st.tuples(st.sampled_from(["haar", "permutation", "controlled", "diagonal", "near", "kron"]),
                  st.integers(0, 2**32 - 1)),
        min_size=2, max_size=8,
    ),
)
@example(n=2, blocks=_ALL_K_TWO_WIRES)
@example(n=3, blocks=_ALL_K_THREE_WIRES)
def test_a_mixed_stack_gives_each_block_the_bits_of_a_stack_of_one(n, blocks):
    # blocks of one stack differ in k, in whether the split is trivial and in
    # whether a1 a2^dagger is diagonal, so the stack runs through every mask
    us = np.array([_target(family, n, seed) for family, seed in blocks])
    wires = tuple(range(n))
    alone = [_op_bits(_qsd_ops(u[None], wires)[0]) for u in us]
    assert [_op_bits(ops) for ops in _qsd_ops(us, wires)] == alone


def test_the_fixed_mixed_stacks_hold_every_k_and_trivial_splits():
    for n, blocks in ((2, _ALL_K_TWO_WIRES), (3, _ALL_K_THREE_WIRES)):
        thetas = _cossin(np.array([_target(family, n, seed) for family, seed in blocks]))[2]
        kinds = {int(np.count_nonzero(t <= np.pi / 4)) if t.any() else "trivial" for t in thetas}
        assert kinds == set(range(2 ** (n - 1) + 1)) | {"trivial"}
