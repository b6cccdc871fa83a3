"""Hypothesis pins of two thermodynamic invariants: transition matrices are
column-stochastic, and identity dynamics return the cold qubit at T_C."""
import functools
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from qfridge.circuits import LINE3, build_target_unitary, build_vstar_circuit
from qfridge.compiler import compile_generic
from qfridge.noise import NoiseModel, calibrate, exact_confusion
from qfridge.sweep import SweepConfig, evaluate_grid
from qfridge.thermo import SCHEMES, TransitionMatrix, final_cold_temperature, prepare, transition_matrix

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
    spec = cfg.device()
    tm = TransitionMatrix(np.eye(8))
    res = evaluate_grid(cfg, tm, [t_hot], t_c_axis)
    for n, t_cold in enumerate(t_c_axis):
        scalar = final_cold_temperature(tm, prepare(scheme, spec, t_hot, t_cold), spec)
        assert scalar.kind == "finite"
        assert math.isclose(scalar.millikelvin, t_cold, rel_tol=1e-12)
        assert res.t_cold_final_kind[n] == "finite"
        assert math.isclose(res.t_cold_final[n], t_cold, rel_tol=1e-12)
