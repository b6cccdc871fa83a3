"""The transition matrix as whole-stack operations, against the per-column
loop it replaced; its sampling streams; the noiseless V* engine, whose exact
unitary and 4-cx circuit agree bit for bit; and mitigated runs, which
factor the confusion matrix once, and their boundary tolerance, whose
stacked shot variances have the bits of one call per energy vector.

``_reference_transition_matrix`` is ``thermo.transition_matrix`` as it stood
when each of the 8 columns was read out, sampled and mitigated on its own
(column i sampled with ``seed + i``).  It keeps the exact (shots = 0) checks
independent of the code under test.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfridge import qcore, sweep
from qfridge.circuits import Circuit, build_target_unitary, build_vstar_circuit, cx, rz, sx, x
from qfridge.noise import (
    NoiseModel,
    apply_readout_error,
    calibrate,
    circuit_channel,
    mitigate,
    readout_inverse,
    readout_matrix,
)
from qfridge.oracles import haar_unitary, random_density
from qfridge.sweep import SweepConfig, evaluate_grid, run_sweep, sweep_transition_matrix, write_csv, write_json
from qfridge.thermo import (
    TransitionMatrix, cold_energies, hot_energies, preparation_grid, transition_matrix,
)


def _reference_transition_matrix(engine, nm, shots, seed, mitigation=None):
    basis = np.eye(qcore.DIM, dtype=complex)
    rhos = basis[:, :, None] * basis[:, None, :]
    if isinstance(engine, Circuit):
        channel = circuit_channel(engine, nm)
    else:
        channel = [qcore.born_probabilities(rho) for rho in engine @ rhos @ engine.conj().T]
    cols = []
    for i, p in enumerate(channel):
        p = apply_readout_error(p, nm)
        if shots:
            p = qcore.sample_counts(p, shots, seed + i) / shots
        if mitigation is not None:
            p = mitigate(p, readout_inverse(mitigation))
        cols.append(p)
    return TransitionMatrix(np.column_stack(cols))


# ---------------------------------------------------------------------------
# sampling streams

UNIFORM_READOUT = dict(eps01=0.5, eps10=0.5, shots=512)


class _Calibrated(Exception):
    """Carries the confusion matrix out of a run, which then stops."""


def _calibration_of_run(monkeypatch, seed):
    """The calibrated confusion matrix that a mitigated run at `seed` uses."""
    def capture(*args):
        raise _Calibrated(calibrate(*args))

    monkeypatch.setattr(sweep, "calibrate", capture)
    with pytest.raises(_Calibrated) as got:
        sweep_transition_matrix(SweepConfig(seed=seed, mitigation=True, **UNIFORM_READOUT))
    monkeypatch.undo()
    return got.value.args[0]


@pytest.mark.parametrize("seed", [0, 7, 41])
def test_no_two_sampled_columns_share_a_stream(monkeypatch, seed):
    # readout flips of 1/2 make every column exactly uniform, so two columns
    # drawn from one stream come out equal
    def columns(s):
        return sweep_transition_matrix(SweepConfig(seed=s, **UNIFORM_READOUT)).p.T

    drawn = [*columns(seed), *columns(seed + 1), *columns(seed + 1000),
             *_calibration_of_run(monkeypatch, seed).T]
    assert len({col.tobytes() for col in drawn}) == len(drawn) == 32


# ---------------------------------------------------------------------------
# the stack against the per-column reference

@st.composite
def engines(draw, max_gates=12):
    """A three-wire circuit over {rz, x, sx, cx}, or a Haar unitary."""
    if draw(st.booleans()):
        return haar_unitary(qcore.DIM, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    wire = st.integers(0, qcore.N_WIRES - 1)
    gates = []
    for kind in draw(st.lists(st.sampled_from(["rz", "x", "sx", "cx"]), max_size=max_gates)):
        if kind == "cx":
            gates.append(cx(*draw(st.lists(wire, min_size=2, max_size=2, unique=True))))
        elif kind == "rz":
            gates.append(rz(draw(wire), draw(st.floats(-2 * np.pi, 2 * np.pi))))
        else:
            gates.append((x if kind == "x" else sx)(draw(wire)))
    return Circuit(qcore.N_WIRES, gates)


small = st.floats(0.0, 0.2)


@settings(max_examples=150, deadline=None)
@given(engine=engines(), p1=small, p2=small,
       eps=st.one_of(st.just((0.0, 0.0)), st.tuples(small, small)), mitigated=st.booleans())
def test_exact_matrix_matches_the_per_column_reference(engine, p1, p2, eps, mitigated):
    nm = NoiseModel(p1, p2, *eps)
    conf = readout_matrix(nm) if mitigated else None
    got = transition_matrix(engine, nm, 0, 0, mitigation=conf).p
    want = _reference_transition_matrix(engine, nm, 0, 0, mitigation=conf).p
    assert np.min(got) >= 0.0
    assert np.max(np.abs(got.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(got - want)) <= 1e-12
    if eps == (0.0, 0.0):
        assert got.tobytes() == want.tobytes()


def test_stacked_primitives_act_row_by_row():
    rng = np.random.default_rng(5)
    rhos = np.array([random_density(qcore.DIM, rng) for _ in range(5)])
    nm = NoiseModel(eps01=0.03, eps10=0.07)
    born = qcore.born_probabilities(rhos)
    assert born.tobytes() == np.array([qcore.born_probabilities(r) for r in rhos]).tobytes()
    read = apply_readout_error(born, nm)
    assert read.tobytes() == np.array([apply_readout_error(p, nm) for p in born]).tobytes()
    unmix = readout_inverse(readout_matrix(nm))
    rows = np.array([mitigate(p, unmix) for p in read])
    assert np.max(np.abs(mitigate(read, unmix) - rows)) < 1e-15
    assert np.max(np.abs(rows - born)) < 1e-12
    counts = qcore.sample_counts(read, 100, np.random.SeedSequence(3))
    assert counts.shape == read.shape and (counts.sum(axis=-1) == 100).all()


# ---------------------------------------------------------------------------
# noiseless V*: sweeps run the exact unitary, which the 4-cx circuit matches bit for bit

@pytest.mark.parametrize("shots,seed", [(0, 0), (64, 1), (64, 2), (8192, 3), (8192, 4)])
@pytest.mark.parametrize("eps", [(0.0, 0.0), (0.03, 0.07)])
@pytest.mark.parametrize("mitigation", [None, "exact", "calibrated"])
def test_noiseless_vstar_circuit_and_unitary_agree_bit_for_bit(shots, seed, eps, mitigation):
    nm = NoiseModel(0.0, 0.0, *eps)
    conf = {None: None, "exact": readout_matrix(nm), "calibrated": calibrate(nm, 4096, seed)}[mitigation]
    circuit = transition_matrix(build_vstar_circuit(), nm, shots, seed, mitigation=conf)
    unitary = transition_matrix(build_target_unitary("vstar"), nm, shots, seed, mitigation=conf)
    assert np.array_equal(circuit.p, unitary.p)
    assert np.array_equal(circuit.raw, unitary.raw)


@pytest.mark.parametrize("scheme", ["swap4", "full8"])
@pytest.mark.parametrize("run", [dict(shots=0), dict(shots=256, seed=5, eps01=0.02, eps10=0.03, mitigation=True)])
def test_noiseless_vstar_sweep_writes_the_same_bytes_with_either_engine(monkeypatch, scheme, run):
    # swap4 prepares no state that V acts on; full8 reaches the V block too
    cfg = SweepConfig(scheme=scheme, v="vstar", n_h=8, n_c=8, **run)
    res = run_sweep(cfg)
    # without gate noise the engine is the target unitary, built once per V:
    # at the first run after the exact matrix's cache is cleared
    sweep._exact_matrix.cache_clear()
    built = []
    monkeypatch.setattr(sweep, "build_target_unitary",
                        lambda v: built.append(v) or build_vstar_circuit())
    via_circuit = run_sweep(cfg)
    sweep._exact_matrix.cache_clear()  # drop the matrix of the patched engine
    assert built == ["vstar"]
    assert write_csv(res) == write_csv(via_circuit)
    assert write_json(res) == write_json(via_circuit)


# ---------------------------------------------------------------------------
# mitigated runs: one factorisation of the confusion matrix, and the boundary tolerance

def test_a_mitigated_matrix_factors_the_confusion_matrix_once(monkeypatch):
    nm = NoiseModel(eps01=0.03, eps10=0.05)
    conf, svd, factored = calibrate(nm, 8192, 2), np.linalg.svd, []

    def counted_svd(a, *args, **kwargs):
        factored.append(a)
        return svd(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a second factorisation")

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    for name in ("cond", "lstsq", "pinv", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    tm = transition_matrix(build_vstar_circuit(), nm, 8192, 1, mitigation=conf)
    assert len(factored) == 1 and np.array_equal(factored[0], conf)
    # shot_variances propagates through the very map that produced p
    assert np.array_equal(tm.p, mitigate(tm.raw.T, tm.unmix).T)


def test_mitigated_spread_matches_the_propagated_sigma():
    # V* under depolarizing noise keeps every outcome off zero, where clipping
    # (which the delta method leaves out) would narrow the spread
    cfg = SweepConfig(v="vstar", p2=0.3, eps01=0.15, eps10=0.15, mitigation=True)
    nm, engine, conf = cfg.noise(), build_vstar_circuit(), readout_matrix(cfg.noise())
    th, tc = 600.0, 150.0
    spec = cfg.device()
    probs = preparation_grid(cfg.scheme, spec, [th], [tc])[0]
    e_h = hot_energies(spec, cfg.hot_energy_mode)
    de_hot, sigma, unpropagated = [], [], []
    for seed in range(200):
        tm = transition_matrix(engine, nm, cfg.shots, seed, mitigation=conf)
        de_hot.append(evaluate_grid(cfg, tm, [th], [tc]).de_hot[0])
        sigma.append(np.sqrt(probs ** 2 @ tm.shot_variances(e_h) / cfg.shots))
        naive = (e_h ** 2) @ tm.p - (e_h @ tm.p) ** 2
        unpropagated.append(np.sqrt(probs ** 2 @ naive / cfg.shots))
    spread = np.std(de_hot, ddof=1)
    assert abs(np.mean(sigma) / spread - 1.0) < 0.2
    # the variance of the mitigated columns alone misses what the inverse amplifies
    assert abs(np.mean(unpropagated) / spread - 1.0) > 0.2


@pytest.mark.parametrize("mitigated", [False, True], ids=["identity_unmix", "mitigated"])
def test_stacked_shot_variances_are_the_rows_of_one_call_per_vector(mitigated):
    # evaluate_grid stacks the ledger's three energy vectors into one call;
    # each row must have the bits of a lone call and of the per-vector
    # formula f = unmix.T @ e it replaced.  With the identity unmix f is e
    # exactly; a mitigated unmix holds the same on OpenBLAS with numpy 2.4,
    # since each row is a matrix-vector product either way (one (k, 8) @ (8, 8)
    # product, by contrast, rounds some entries 1 ulp apart there)
    cfg = SweepConfig(v="vstar", p2=0.05, eps01=0.03, eps10=0.05)
    nm, spec = cfg.noise(), cfg.device()
    energies = [hot_energies(spec, mode) for mode in ("ideal", "detuned")] + [cold_energies(spec)]
    stack = np.array(energies + [energies[1] + energies[2]])
    conf = readout_matrix(nm) if mitigated else None
    for seed in range(10):
        tm = transition_matrix(build_vstar_circuit(), nm, 1024, seed, mitigation=conf)
        assert np.array_equal(tm.unmix, np.eye(8)) != mitigated
        rows = tm.shot_variances(stack)
        assert rows.shape == (4, 8)
        for row, e in zip(rows, stack):
            f = tm.unmix.T @ e
            assert np.array_equal(row, tm.shot_variances(e))
            assert np.array_equal(row, (f ** 2) @ tm.raw - (f @ tm.raw) ** 2)
