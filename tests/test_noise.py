"""Depolarizing evolution, readout error, calibration, mitigation.

``_flip_channel`` is noisy cx-only evolution as a classical channel, built
from bit operations alone (no gate kernel, no Pauli tables); it checks the
V* engine's channel polynomial too.
``_lstsq_mitigate`` is ``mitigate`` as it stood before ``readout_inverse``:
a condition-number check and a least-squares solve per call.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfridge import noise, qcore, thermo
from qfridge.circuits import (
    Circuit,
    build_vstar_circuit,
    cx,
    rz,
    sx,
    unitary_of_circuit,
    x,
)
from qfridge.noise import (
    NoiseModel,
    _basis_ends,
    _pauli_basis,
    _plan,
    apply_readout_error,
    calibrate,
    channel_polynomial,
    circuit_channel,
    evaluate_channel,
    mitigate,
    readout_inverse,
    readout_matrix,
)
from qfridge.sweep import engine_circuit


def _random_circuit(rng, n_wires=3, depth=8):
    gates = []
    wires = list(range(n_wires))
    for _ in range(depth):
        kind = rng.integers(0, 4)
        w = int(rng.integers(0, n_wires))
        if kind == 0:
            gates.append(rz(w, float(rng.uniform(-np.pi, np.pi))))
        elif kind == 1:
            gates.append(x(w))
        elif kind == 2:
            gates.append(sx(w))
        else:
            a, b = rng.choice(wires, size=2, replace=False)
            gates.append(cx(int(a), int(b)))
    return Circuit(n_wires, gates)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p1=1.5)
    with pytest.raises(ValueError):
        NoiseModel(eps10=-0.1)
    nm = NoiseModel(0.01, 0.02, 0.03, 0.04)
    assert (nm.eps01, nm.eps10) == (0.03, 0.04)
    assert not nm.is_gate_noiseless()
    assert NoiseModel().is_gate_noiseless()


def test_noiseless_channel_is_the_squared_unitary():
    rng = np.random.default_rng(21)
    for c in (build_vstar_circuit(), _random_circuit(rng)):
        # row m is basis input m's Born distribution: column m of |U|^2
        want = np.abs(unitary_of_circuit(c).T) ** 2
        assert np.max(np.abs(circuit_channel(c, NoiseModel()) - want)) < 1e-12


def test_depolarizing_is_unital_so_noisy_channels_are_doubly_stochastic():
    # the clip makes each input's row a distribution; the mixed state, the
    # mean of the basis inputs, maps to itself, so each outcome's column sums to 1
    rng = np.random.default_rng(22)
    nm = NoiseModel(p1=0.1, p2=0.3)
    for _ in range(100):
        out = circuit_channel(_random_circuit(rng, depth=6), nm)
        assert out.shape == (8, 8)
        assert np.max(np.abs(out.sum(axis=0) - 1.0)) < 1e-12


def test_full_depolarization_of_one_wire():
    # x on the cold wire followed by p1 = 1 wipes the cold bit entirely
    out = circuit_channel(Circuit(3, [x(1)]), NoiseModel(p1=1.0))
    assert np.allclose(out, np.kron(np.eye(4), np.full((2, 2), 0.5)))


def test_plan_has_one_step_per_cx_and_one_after_the_last():
    engine = engine_circuit("identity")
    assert len(_plan(engine)[0]) == engine.cnot_count() + 1 == 8
    assert len(_plan(build_vstar_circuit())[0]) == 5


def test_a_circuit_without_cx_is_one_step():
    c = Circuit(1, [x(0)])
    assert len(_plan(c)[0]) == 1
    out = circuit_channel(c, NoiseModel(p1=1.0))
    assert np.max(np.abs(out - 0.5)) < 1e-15


def test_a_circuit_without_gates_keeps_every_input():
    out = circuit_channel(Circuit(3), NoiseModel(p1=0.5, p2=0.5))
    assert np.max(np.abs(out - np.eye(8))) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_ends_read_every_basis_input_back(n):
    d = 2 ** n
    start, diagonals = _basis_ends(n)
    # the Pauli components of |m><m| are real, so taking .real drops nothing
    assert not np.any(_pauli_basis(n)[0][:, ::d + 1].imag)
    assert start.shape == (4 ** n, d) and diagonals.shape == (d, 4 ** n)
    assert np.array_equal(diagonals @ start, np.eye(d))


def test_equal_circuits_give_one_channel_and_other_angles_their_own():
    gates = [sx(0), rz(0, 0.3), sx(0), cx(0, 1), x(2), cx(1, 2), rz(2, 0.5)]
    c, again = Circuit(3, gates), Circuit(3, list(gates))
    assert c == again and hash(c) == hash(again)
    nm = NoiseModel(p1=0.1, p2=0.2)
    assert np.array_equal(circuit_channel(again, nm), circuit_channel(c, nm))
    inner = Circuit(3, [sx(0), rz(0, 0.4)] + gates[2:])
    assert np.max(np.abs(circuit_channel(inner, nm) - circuit_channel(c, nm))) > 1e-3
    # a final rz only turns phases, which no Born diagonal sees
    final = Circuit(3, gates[:-1] + [rz(2, 0.6)])
    assert np.max(np.abs(circuit_channel(final, nm) - circuit_channel(c, nm))) < 1e-15


def _flip_channel(c: Circuit, p2: float) -> np.ndarray:
    """Transition matrix (column per input) of a cx-only circuit in physical
    order, wire 0 the most significant bit: each cx permutes the basis
    states, then adds one of the X patterns none, control, target or both on
    its wires, each with probability p2/4.  p1 does not enter: there is no
    one-wire gate."""
    n = c.n_wires
    states = np.arange(2 ** n)
    t = np.eye(2 ** n)
    for g in c.gates:
        ctl, tgt = (1 << (n - 1 - w) for w in g.wires)
        t = t[states ^ np.where(states & ctl, tgt, 0)]  # a cx is its own inverse
        t = (1 - p2) * t + p2 / 4 * sum(t[states ^ m] for m in (0, ctl, tgt, ctl | tgt))
    return t


@st.composite
def cx_circuits(draw):
    """1-8 cx on 2-4 wires."""
    n = draw(st.integers(2, 4))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    return Circuit(n, [cx(*draw(pair)) for _ in range(draw(st.integers(1, 8)))])


unit = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(c=cx_circuits(), p1=unit, p2=unit)
def test_noisy_cx_circuits_are_classical_flip_channels(c, p1, p2):
    # the channel has a row per input in logical order (to_physical keeps 2 and 4 wires)
    got = qcore.to_physical(circuit_channel(c, NoiseModel(p1, p2))).T
    assert np.max(np.abs(got - _flip_channel(c, p2))) <= 1e-12


# ---------------------------------------------------------------------------
# the engines' outcome channels as exact polynomials in a = 1 - p1, b = 1 - p2

@settings(max_examples=200, deadline=None)
@given(v=st.sampled_from(["identity", "vstar"]), p1=unit, p2=unit)
def test_engine_polynomials_give_the_outcome_channel(v, p1, p2):
    nm, engine = NoiseModel(p1, p2), engine_circuit(v)
    got = evaluate_channel(channel_polynomial(engine), nm)
    assert np.max(np.abs(got - thermo.outcome_channel(engine, nm))) <= 1e-15
    # row i is column i of the transition matrix: a distribution
    assert got.min() >= 0 and np.max(np.abs(got.sum(axis=1) - 1)) <= qcore.STATE_ATOL


def test_engine_polynomials_have_their_terms():
    exponents, coefficients = channel_polynomial(engine_circuit("identity"))
    assert exponents.shape == (30, 2) and coefficients.shape == (30, 8, 8)
    assert len(set(map(tuple, exponents.tolist()))) == 30
    assert exponents[:, 0].max() == 16 and exponents[:, 1].max() == 7
    # V* has no one-wire gate: its polynomial is in b alone, up to b^4
    exponents, coefficients = channel_polynomial(build_vstar_circuit())
    assert exponents.tolist() == [[0, j] for j in range(5)] and coefficients.shape == (5, 8, 8)
    for a in (exponents, coefficients):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


@settings(max_examples=100, deadline=None)
@given(p1=unit, p2=unit)
def test_vstar_polynomial_is_the_classical_flip_channel(p1, p2):
    c = build_vstar_circuit()
    got = evaluate_channel(channel_polynomial(c), NoiseModel(p1, p2))
    # the channel has a row per input in logical order, _flip_channel a column per input in physical
    assert np.max(np.abs(qcore.to_physical(got).T - _flip_channel(c, p2))) <= 1e-15


# ---------------------------------------------------------------------------
# readout

def test_readout_zero_noise_is_identity():
    p = np.full(8, 0.125)
    assert np.array_equal(apply_readout_error(p, NoiseModel()), p)


def test_readout_matrix_is_one_flip_matrix_per_qubit():
    # dyadic flips keep every product exact, so the check is bit for bit
    f = np.array([[0.75, 0.125], [0.25, 0.875]])
    got = readout_matrix(NoiseModel(eps01=0.25, eps10=0.125))
    assert np.array_equal(got, np.kron(np.kron(f, f), f))


def test_one_readout_flip_from_000_lands_on_one_logical_bit():
    out = apply_readout_error(np.eye(8)[0], NoiseModel(eps01=0.25))
    assert out[0] == 0.75 ** 3
    assert np.flatnonzero(out == 0.25 * 0.75 ** 2).tolist() == [1, 2, 4]
    assert abs(out.sum() - 1.0) < 1e-12


def test_readout_error_rejects_other_registers():
    with pytest.raises(ValueError, match="8 outcomes"):
        apply_readout_error(np.full(4, 0.25), NoiseModel())


def test_readout_matrix_is_stochastic():
    nm = NoiseModel(eps01=0.03, eps10=0.07)
    m = readout_matrix(nm)
    assert m.shape == (8, 8)
    assert np.allclose(m.sum(axis=0), 1.0)
    assert np.min(m) >= 0.0


def test_readout_matrix_is_shared_per_eps_pair_and_read_only():
    m = readout_matrix(NoiseModel(eps01=0.03, eps10=0.07))
    # the gate noise does not enter the key
    assert readout_matrix(NoiseModel(p1=0.001, p2=0.3, eps01=0.03, eps10=0.07)) is m
    assert readout_matrix(NoiseModel(eps01=0.07, eps10=0.03)) is not m
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 1.0


def test_readout_matrix_cache_stays_within_its_bound():
    bound = noise._confusion.cache_info().maxsize
    assert bound is not None
    for k in range(100):
        readout_matrix(NoiseModel(eps01=k / 1000, eps10=0.5 - k / 1000))
        assert noise._confusion.cache_info().currsize <= bound


# ---------------------------------------------------------------------------
# calibration and mitigation

def test_readout_inverse_validation_and_inverse():
    with pytest.raises(ValueError, match="does not sum to 1"):
        readout_inverse(np.ones((8, 8)))
    with_inf = np.eye(8)
    with_inf[3, 5] = np.inf
    with pytest.raises(ValueError, match="does not sum to 1"):
        readout_inverse(with_inf)
    with pytest.raises(ValueError, match="negative or NaN entry"):
        readout_inverse(-np.eye(4))
    with_nan = np.eye(8)
    with_nan[3, 5] = np.nan
    with pytest.raises(ValueError, match="negative or NaN entry"):
        readout_inverse(with_nan)
    with pytest.raises(ValueError, match="square"):
        readout_inverse(np.full((2, 4), 0.5))
    assert np.array_equal(readout_inverse(np.eye(8)), np.eye(8))
    for m in (readout_matrix(NoiseModel(eps01=0.03, eps10=0.05)),
              calibrate(NoiseModel(eps01=0.2, eps10=0.1), 512, 3)):
        assert np.max(np.abs(readout_inverse(m) @ m - np.eye(8))) < 1e-14


def test_calibrate_zero_noise_is_identity():
    assert np.array_equal(calibrate(NoiseModel(), 2048, 0), np.eye(8))


def test_calibrate_is_deterministic_and_close_to_exact():
    nm = NoiseModel(eps01=0.1, eps10=0.1)
    a = calibrate(nm, 8192, 5)
    b = calibrate(nm, 8192, 5)
    assert np.array_equal(a, b)
    # 5 sigma per-entry bound at 8192 shots
    assert np.max(np.abs(a - readout_matrix(nm))) < 5 * 0.5 / np.sqrt(8192)


def test_calibrate_rejects_zero_shots():
    with pytest.raises(ValueError):
        calibrate(NoiseModel(), 0, 0)


def test_readout_and_mitigation_reject_nan_probabilities():
    with pytest.raises(ValueError, match="NaN"):
        apply_readout_error(np.full(8, np.nan), NoiseModel(eps01=0.1))
    with pytest.raises(ValueError, match="NaN"):
        mitigate(np.full(8, np.nan), np.eye(8))


def test_mitigate_exact_roundtrip():
    nm = NoiseModel(eps01=0.05, eps10=0.02)
    rng = np.random.default_rng(30)
    p = rng.dirichlet(np.ones(8))
    raw = apply_readout_error(p, nm)
    rec = mitigate(raw, readout_inverse(readout_matrix(nm)))
    assert np.max(np.abs(rec - p)) < 1e-10


def test_mitigate_identity_is_noop():
    p = np.array([0.5, 0.25, 0.25, 0.0])
    out = mitigate(p, readout_inverse(np.eye(4)))
    assert np.max(np.abs(out - p)) < 1e-12


def test_mitigate_clips_to_simplex():
    # a raw distribution outside the image of the confusion matrix
    unmix = readout_inverse(readout_matrix(NoiseModel(eps01=0.2, eps10=0.2)))
    out = mitigate(np.eye(8)[0], unmix)
    assert np.min(out) >= 0.0
    assert abs(out.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("eps01,eps10", [(0.5, 0.5), (0.3, 0.7), (1.0, 0.0)])
def test_readout_inverse_rejects_a_singular_matrix_as_the_lstsq_path_did(eps01, eps10):
    m = readout_matrix(NoiseModel(eps01=eps01, eps10=eps10))
    with pytest.raises(ValueError, match="singular"):
        _lstsq_mitigate(np.full(8, 0.125), m)
    with pytest.raises(ValueError, match="singular"):
        readout_inverse(m)


def test_mitigate_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        mitigate(np.array([0.5, 0.5]), readout_inverse(np.eye(8)))


def _lstsq_mitigate(raw, confusion):
    raw = qcore.check_probabilities(raw)
    cond = np.linalg.cond(confusion)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(f"confusion matrix is singular (cond={cond:.3g})")
    q, *_ = np.linalg.lstsq(confusion, raw.reshape(-1, len(confusion)).T, rcond=None)
    q = np.clip(q.T.reshape(raw.shape), 0.0, None, order="C")
    total = q.sum(axis=-1, keepdims=True)
    if np.min(total) <= 0:
        raise ValueError("mitigated distribution vanished")
    return q / total


@st.composite
def confusion_matrices(draw):
    """An exact confusion matrix with eps01, eps10 in [0, 0.45], or one
    calibrated from it at 64-8192 shots."""
    nm = NoiseModel(eps01=draw(st.floats(0.0, 0.45)), eps10=draw(st.floats(0.0, 0.45)))
    if draw(st.booleans()):
        return readout_matrix(nm)
    return calibrate(nm, draw(st.integers(64, 8192)), draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=300, deadline=None)
@given(m=confusion_matrices(), shape=st.sampled_from([(), (1,), (3,), (8,)]),
       seed=st.integers(0, 2 ** 32 - 1), read_out=st.booleans())
def test_mitigate_through_readout_inverse_matches_the_lstsq_path(m, shape, seed, read_out):
    # raw is any point of the simplex, or one read out through m
    raw = np.random.default_rng(seed).dirichlet(np.ones(8), size=shape)
    if read_out:
        raw = raw @ m.T
    try:
        want = _lstsq_mitigate(raw, m)
    except ValueError as err:
        assert "singular" in str(err)
        with pytest.raises(ValueError, match="singular"):
            readout_inverse(m)
        return
    got = mitigate(raw, readout_inverse(m))
    assert got.shape == raw.shape
    # both solves are backward stable, so they differ by up to a few cond(m) ulps
    assert np.max(np.abs(got - want)) <= 1e-14 * np.linalg.cond(m)
