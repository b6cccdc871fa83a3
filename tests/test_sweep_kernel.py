"""The columnar sweep kernel against thermo's single-point chain and against
golden outputs.

The golden files in tests/data were written by the per-point sweep that the
kernel replaced, from the configs next to them:
``python -m qfridge.cli sweep tests/data/<name>.conf``, then ``gzip -n -9``
on the CSV and JSON.
"""
import functools
import gzip
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfridge.cli import cli_main
from qfridge.sweep import SweepConfig, evaluate_grid, sweep_transition_matrix
from qfridge.thermo import (
    BOUNDARY_EPS,
    HOT_ENERGY_MODES,
    SCHEMES,
    TransitionMatrix,
    classify_mode,
    cold_energies,
    energy_changes,
    excited_cold_population,
    final_cold_temperature,
    hot_energies,
    is_purifier,
    prepare,
)

DATA = Path(__file__).parent / "data"

ENGINES = {
    "exact": dict(shots=0),
    "noisy_compiled": dict(p1=0.001, p2=0.01, shots=0),
    "sampled": dict(shots=8192, seed=5, eps01=0.02, eps10=0.03),
}


@functools.cache
def _engine_tm(engine):
    return sweep_transition_matrix(SweepConfig(**ENGINES[engine]))


def _reference_eps(tm, prep, spec, hot_energy_mode, shots):
    """Boundary tolerance: 3 standard errors of the sampled energy changes."""
    if shots <= 0:
        return BOUNDARY_EPS
    e_h = hot_energies(spec, hot_energy_mode)
    e_c = cold_energies(spec)
    worst = 0.0
    for e in (e_h, e_c, e_h + e_c):
        mean = e @ tm.p
        var_cols = (e ** 2) @ tm.p - mean ** 2
        var = float(np.sum(prep.probs ** 2 * var_cols)) / shots
        worst = max(worst, 3.0 * math.sqrt(max(var, 0.0)))
    return max(worst, BOUNDARY_EPS)


def _reference_point(cfg, tm, t_hot, t_cold):
    """One grid point through the scalar thermo functions."""
    spec = cfg.device()
    prep = prepare(cfg.scheme, spec, t_hot, t_cold)
    ledger = energy_changes(tm, prep, spec, cfg.hot_energy_mode)
    eps = _reference_eps(tm, prep, spec, cfg.hot_energy_mode, cfg.shots)
    mode = classify_mode(ledger.role_ordered(t_hot, t_cold), eps).tag
    t_final = final_cold_temperature(tm, prep, spec)
    return dict(
        de_hot=ledger.de_hot,
        de_cold=ledger.de_cold,
        work=ledger.work,
        mode=mode,
        kind=t_final.kind,
        t_final=t_final.millikelvin,
        p_g_final=1.0 - excited_cold_population(tm, prep),
        purifier=cfg.scheme == "full8" and mode == "R" and is_purifier(tm, prep),
    )


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


temperatures = st.lists(st.floats(1.0, 5000.0), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    engine=st.sampled_from(sorted(ENGINES)),
    scheme=st.sampled_from(SCHEMES),
    hot_energy_mode=st.sampled_from(HOT_ENERGY_MODES),
    t_h_axis=temperatures,
    t_c_axis=temperatures,
)
def test_kernel_matches_scalar_chain(engine, scheme, hot_energy_mode, t_h_axis, t_c_axis):
    cfg = SweepConfig(scheme=scheme, hot_energy_mode=hot_energy_mode, **ENGINES[engine])
    tm = _engine_tm(engine)
    res = evaluate_grid(cfg, tm, t_h_axis, t_c_axis)
    assert (res.n_h, res.n_c) == (len(t_h_axis), len(t_c_axis))
    pairs = [(th, tc) for th in t_h_axis for tc in t_c_axis]
    for n, (th, tc) in enumerate(pairs):
        ref = _reference_point(cfg, tm, th, tc)
        assert (res.t_hot[n], res.t_cold[n]) == (th, tc)
        for key in ("de_hot", "de_cold", "work", "p_g_final"):
            assert _close(getattr(res, key)[n], ref[key]), (key, th, tc)
        assert res.mode[n] == ref["mode"], (th, tc)
        assert res.t_cold_final_kind[n] == ref["kind"], (th, tc)
        if ref["kind"] == "finite":
            assert _close(res.t_cold_final[n], ref["t_final"]), (th, tc)
        else:
            assert math.isnan(res.t_cold_final[n])
        assert res.purifier[n] == ref["purifier"], (th, tc)
    assert np.array_equal(res.work, res.de_hot + res.de_cold)
    if cfg.shots == 0:
        # no cooling together with work extraction
        assert not np.any((res.de_cold < 0) & (res.work < 0))


def test_kernel_final_temperature_kinds_at_the_edges():
    # identity dynamics keeps q just below 1/2 at huge T_C (infinite within
    # 1e-12, finite beyond it); flipping the cold bit inverts the population
    flip = TransitionMatrix(np.eye(8)[[m ^ 1 for m in range(8)]])
    t_c_axis = [1e22, 5e11, 100.0]
    cfg = SweepConfig(shots=0)
    for tm, kinds in ((TransitionMatrix(np.eye(8)), ["infinite", "finite", "finite"]),
                      (flip, ["infinite", "inverted", "inverted"])):
        res = evaluate_grid(cfg, tm, [300.0], t_c_axis)
        assert res.t_cold_final_kind.tolist() == kinds
        for n, tc in enumerate(t_c_axis):
            ref = _reference_point(cfg, tm, 300.0, tc)
            assert res.t_cold_final_kind[n] == ref["kind"]
            if ref["kind"] == "finite":
                assert _close(res.t_cold_final[n], ref["t_final"])


def test_kernel_rejects_non_positive_temperatures():
    tm = _engine_tm("exact")
    with pytest.raises(ValueError, match="positive"):
        evaluate_grid(SweepConfig(shots=0), tm, [100.0, 0.0], [50.0])


@pytest.mark.parametrize("name", ["exact64", "noisy16", "sampled64"])
def test_outputs_match_golden_files(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["sweep", str(DATA / f"{name}.conf")]) == 0
    printed = capsys.readouterr().out.split()
    for path in printed:
        got = (tmp_path / path).read_bytes()
        if path.endswith((".csv", ".json")):
            want = gzip.decompress((DATA / f"{path}.gz").read_bytes())
        else:
            want = (DATA / path).read_bytes()
        if path.endswith(".json") and name != "exact64":
            # matrix products may round the last bit differently
            for row, golden_row in zip(json.loads(got), json.loads(want), strict=True):
                assert row.keys() == golden_row.keys()
                for key, value in row.items():
                    if isinstance(value, float):
                        assert _close(value, golden_row[key]), (path, key)
                    else:
                        assert value == golden_row[key], (path, key)
        else:
            assert got == want, path
