"""Hypothesis pins of thermodynamic invariants: transition matrices are
column-stochastic, identity dynamics return the cold qubit at T_C, and no
sweep cell cools the colder body while it extracts work."""
import functools
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from qfridge.circuits import LINE3, build_target_unitary, build_vstar_circuit
from qfridge.compiler import compile_generic
from qfridge.noise import NoiseModel, calibrate, exact_confusion
from qfridge.sweep import SweepConfig, evaluate_grid, sweep_transition_matrix
from qfridge.thermo import SCHEMES, TransitionMatrix, transition_matrix

ENGINES = ("identity", "vstar", "four_cnot", "compiled_identity")


@functools.cache
def _engine(name):
    if name == "four_cnot":
        return build_vstar_circuit()
    if name == "compiled_identity":
        return compile_generic(build_target_unitary("identity"), LINE3)[0]
    return build_target_unitary(name)


small = st.floats(0.0, 0.2)


@settings(max_examples=80, deadline=None)
@given(
    engine=st.sampled_from(ENGINES),
    p1=small,
    p2=small,
    eps01=small,
    eps10=small,
    shots=st.one_of(st.just(0), st.integers(1, 8192)),
    seed=st.integers(0, 2 ** 16),
    mitigation=st.booleans(),
)
def test_transition_matrices_are_column_stochastic(
    engine, p1, p2, eps01, eps10, shots, seed, mitigation
):
    nm = NoiseModel.uniform(p1, p2, eps01, eps10)
    conf = None
    if mitigation:
        conf = calibrate(nm, shots, seed + 1000) if shots else exact_confusion(nm)
        # a few-shot calibration can be singular, which mitigate rejects
        assume(np.linalg.cond(conf.entries) <= 1e12)
    tm = transition_matrix(_engine(engine), nm, shots, seed, mitigation=conf)
    assert np.min(tm.p) >= 0.0
    assert np.max(np.abs(tm.p.sum(axis=0) - 1.0)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    t_hot=st.floats(1.0, 5000.0),
    t_c_axis=st.lists(st.floats(1.0, 5000.0), min_size=1, max_size=4),
)
def test_identity_dynamics_return_the_cold_temperature(scheme, t_hot, t_c_axis):
    cfg = SweepConfig(scheme=scheme, shots=0)
    res = evaluate_grid(cfg, TransitionMatrix(np.eye(8)), [t_hot], t_c_axis)
    for n, t_cold in enumerate(t_c_axis):
        assert res.t_cold_final_kind[n] == "finite"
        assert math.isclose(res.t_cold_final[n], t_cold, rel_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    freqs=st.tuples(*[st.floats(1.0, 10.0)] * 3),
    v=st.sampled_from(["identity", "vstar"]),
    p1=small,
    p2=small,
    flip=small,
    t_h_axis=st.lists(st.floats(1.0, 5000.0), min_size=1, max_size=5),
    t_c_axis=st.lists(st.floats(1.0, 5000.0), min_size=1, max_size=5),
)
def test_no_cooling_together_with_work_extraction(freqs, v, p1, p2, flip, t_h_axis, t_c_axis):
    # Unitary gates, depolarizing noise and readout flips of equal
    # probability both ways make a doubly stochastic map, which cannot lower
    # the entropy of the product Gibbs input (full8, detuned ledger energies):
    # dE_H / T_H + dE_C / T_C >= 0.  Cooling the colder body together with
    # W < 0 would break it.  Unequal flips are not doubly stochastic.
    f0, f1, f2 = freqs
    cfg = SweepConfig(f0=f0, f1=f1, f2=f2, scheme="full8", v=v, p1=p1, p2=p2,
                      eps01=flip, eps10=flip, shots=0, hot_energy_mode="detuned")
    res = evaluate_grid(cfg, sweep_transition_matrix(cfg), t_h_axis, t_c_axis)
    spec = cfg.device()
    t_hot, t_cold = res.t_hot, res.t_cold
    scale = spec.omega_sum / t_hot + spec.f1 / t_cold
    assert np.all(res.de_hot / t_hot + res.de_cold / t_cold >= -1e-12 * scale)
    colder = np.where(t_hot < t_cold, res.de_hot, res.de_cold)
    assert not np.any((colder < -1e-12) & (res.work < -1e-12))
