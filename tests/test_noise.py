"""Depolarizing evolution, readout error, calibration, mitigation."""
import numpy as np
import pytest

from qfridge import qcore
from qfridge.circuits import (
    Circuit,
    LINE3,
    build_vstar_circuit,
    cx,
    rz,
    sx,
    unitary_of_circuit,
    x,
)
from qfridge.noise import (
    ConfusionMatrix,
    NoiseModel,
    _plan,
    apply_readout_error,
    calibrate,
    evolve_noisy,
    exact_confusion,
    mitigate,
    readout_matrix,
)
from qfridge.oracles import random_density
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


def test_noiseless_evolution_matches_unitary():
    rng = np.random.default_rng(21)
    for c in (build_vstar_circuit(), _random_circuit(rng)):
        rho = random_density(8, rng)
        got = evolve_noisy(c, rho, NoiseModel())
        u = unitary_of_circuit(c)
        want = u @ rho @ u.conj().T
        assert np.max(np.abs(got - want)) < 1e-12


def test_noisy_evolution_preserves_density_structure():
    rng = np.random.default_rng(22)
    nm = NoiseModel(p1=0.02, p2=0.05)
    for _ in range(100):
        c = _random_circuit(rng, depth=6)
        rho = random_density(8, rng)
        out = evolve_noisy(c, rho, nm)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.max(np.abs(out - out.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(out)) > -1e-10


def test_depolarizing_is_unital():
    rng = np.random.default_rng(23)
    nm = NoiseModel(p1=0.1, p2=0.3)
    mixed = np.eye(8, dtype=complex) / 8
    out = evolve_noisy(_random_circuit(rng), mixed, nm)
    assert np.max(np.abs(out - mixed)) < 1e-12


def test_full_depolarization_of_one_wire():
    # x on the cold wire followed by p1 = 1 wipes the cold bit entirely
    rho = np.diag(np.eye(8)[0]).astype(complex)
    out = evolve_noisy(Circuit(3, [x(1)]), rho, NoiseModel(p1=1.0))
    p = qcore.born_probabilities(out)
    assert np.allclose(p, [0.5, 0.5, 0, 0, 0, 0, 0, 0])


def test_equal_circuits_share_one_plan_and_other_angles_get_their_own():
    gates = [sx(0), rz(1, 0.3), cx(0, 1), x(2), cx(1, 2), rz(2, 0.5)]
    c = Circuit(3, gates, LINE3)
    assert _plan(Circuit(3, list(gates), LINE3)) is _plan(c)
    other = Circuit(3, gates[:-1] + [rz(2, 0.6)], LINE3)
    assert _plan(other) is not _plan(c)
    rho = random_density(8, np.random.default_rng(24))
    nm = NoiseModel(p1=0.1, p2=0.2)
    assert np.max(np.abs(evolve_noisy(other, rho, nm) - evolve_noisy(c, rho, nm))) > 1e-3


def test_circuit_hash_is_kept_and_a_second_evolution_hits_the_plan_cache():
    gates = [sx(0), rz(1, 0.7), cx(0, 1), x(2), cx(1, 2)]
    c, again = Circuit(3, gates, LINE3), Circuit(3, list(gates), LINE3)
    assert "_hash" not in c.__dict__  # building a circuit does not hash it
    assert c == again and hash(c) == hash(again) == hash(c)
    rho = random_density(8, np.random.default_rng(25))
    nm = NoiseModel(p1=0.01, p2=0.02)
    first = evolve_noisy(c, rho, nm)
    hits = _plan.cache_info().hits
    assert np.array_equal(evolve_noisy(again, rho, nm), first)
    assert _plan.cache_info().hits == hits + 1


def test_plan_has_one_step_per_cx_and_one_after_the_last():
    engine = engine_circuit("identity")
    assert len(_plan(engine)[0]) == engine.cnot_count() + 1 == 55
    assert len(_plan(build_vstar_circuit())[0]) == 5


def test_a_circuit_without_cx_is_one_step():
    c = Circuit(1, [x(0)])
    assert len(_plan(c)[0]) == 1
    out = evolve_noisy(c, np.diag([1.0, 0.0]), NoiseModel(p1=1.0))
    assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-15


def test_a_circuit_without_gates_returns_rho():
    rho = random_density(8, np.random.default_rng(25))
    out = evolve_noisy(Circuit(3), rho, NoiseModel(p1=0.5, p2=0.5))
    assert np.max(np.abs(out - rho)) < 1e-15


def test_evolve_noisy_dimension_check():
    with pytest.raises(ValueError):
        evolve_noisy(build_vstar_circuit(), np.eye(4, dtype=complex) / 4, NoiseModel())


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


# ---------------------------------------------------------------------------
# calibration and mitigation

def test_confusion_matrix_validation():
    ConfusionMatrix(np.eye(8))
    with pytest.raises(ValueError):
        ConfusionMatrix(np.ones((8, 8)))
    with pytest.raises(ValueError):
        ConfusionMatrix(-np.eye(4))


def test_calibrate_zero_noise_is_identity():
    conf = calibrate(NoiseModel(), 2048, 0)
    assert np.array_equal(conf.entries, np.eye(8))


def test_calibrate_is_deterministic_and_close_to_exact():
    nm = NoiseModel(eps01=0.1, eps10=0.1)
    a = calibrate(nm, 8192, 5)
    b = calibrate(nm, 8192, 5)
    assert np.array_equal(a.entries, b.entries)
    exact = exact_confusion(nm).entries
    # 5 sigma per-entry bound at 8192 shots
    assert np.max(np.abs(a.entries - exact)) < 5 * 0.5 / np.sqrt(8192)


def test_calibrate_rejects_zero_shots():
    with pytest.raises(ValueError):
        calibrate(NoiseModel(), 0, 0)


def test_mitigate_exact_roundtrip():
    nm = NoiseModel(eps01=0.05, eps10=0.02)
    rng = np.random.default_rng(30)
    p = rng.dirichlet(np.ones(8))
    raw = apply_readout_error(p, nm)
    rec = mitigate(raw, exact_confusion(nm))
    assert np.max(np.abs(rec - p)) < 1e-10


def test_mitigate_identity_is_noop():
    p = np.array([0.5, 0.25, 0.25, 0.0])
    out = mitigate(p, ConfusionMatrix(np.eye(4)))
    assert np.max(np.abs(out - p)) < 1e-12


def test_mitigate_clips_to_simplex():
    # a raw distribution outside the image of the confusion matrix
    conf = exact_confusion(NoiseModel(eps01=0.2, eps10=0.2))
    out = mitigate(np.eye(8)[0], conf)
    assert np.min(out) >= 0.0
    assert abs(out.sum() - 1.0) < 1e-12


def test_mitigate_rejects_singular_matrix():
    conf = exact_confusion(NoiseModel(eps01=0.5, eps10=0.5))
    with pytest.raises(ValueError, match="singular"):
        mitigate(np.full(8, 0.125), conf)


def test_mitigate_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        mitigate(np.array([0.5, 0.5]), ConfusionMatrix(np.eye(8)))
