"""Config parsing, grid sweeps, file outputs, and the CLI."""
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qfridge import circuits, cli, noise, qcore, sweep, thermo
from qfridge.circuits import LINE3, emit_qasm
from qfridge.cli import cli_main
from qfridge.oracles import CRITERIA
from qfridge.sweep import (
    CHOICES,
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    SweepResult,
    evaluate_grid,
    grid_axes,
    heatmap_range,
    parse_config,
    run_sweep,
    sweep_transition_matrix,
    write_csv,
    write_heatmap,
    write_json,
    write_outputs,
    write_record,
)
from qfridge.thermo import TransitionMatrix


# ---------------------------------------------------------------------------
# config parsing

def test_parse_empty_config_gives_defaults():
    cfg = parse_config("")
    assert (cfg.f0, cfg.f1, cfg.f2) == (4.82, 4.76, 4.90)
    assert cfg.scheme == "full8" and cfg.v == "identity"
    assert cfg.shots == 8192 and cfg.n_h == 64 and cfg.n_c == 64
    assert cfg.outputs == ("csv",)


def test_parse_full_config():
    text = """
    # engine setup
    [engine]
    f0 = 5.24
    f1 = 5.01
    f2 = 5.11
    scheme = swap4
    v = vstar
    p2 = 0.01   # per-cx depolarizing
    shots = 0
    mitigation = off
    [grid]
    t_h_min = 50
    t_h_max = 500
    n_h = 8
    n_c = 8
    outputs = csv, json, heatmap
    heatmap_field = p_g_final
    output_prefix = run1
    """
    cfg = parse_config(text)
    assert cfg.f0 == 5.24 and cfg.scheme == "swap4" and cfg.v == "vstar"
    assert cfg.p2 == 0.01 and cfg.shots == 0 and not cfg.mitigation
    assert cfg.t_h_max == 500.0 and cfg.n_h == 8
    assert cfg.outputs == ("csv", "json", "heatmap")
    assert cfg.heatmap_field == "p_g_final" and cfg.output_prefix == "run1"


def test_parse_mitigation_on():
    assert parse_config("mitigation = on").mitigation is True
    with pytest.raises(ConfigError, match="on or off"):
        parse_config("mitigation = yes")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("f1 = -1", "line 1"),
        ("bogus = 3", "unknown key"),
        ("just some words", "malformed"),
        ("shots = many", "bad value"),
        ("shots = -5", "shots"),
        ("scheme = gibbs", "scheme"),
        ("n_h = 1", "at least 2"),
        ("outputs = csv, png", "unknown output"),
        ("heatmap_field = work", "heatmap_field"),
        ("shots = 0\nn_h = 4\nshots = 5\n", "line 3: shots given twice, first on line 1"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


@pytest.mark.parametrize(
    "bad,message",
    [
        (dict(f1=-1.0), "frequencies must be positive"),
        (dict(f0=float("nan")), "f0 = nan must be finite"),
        (dict(t_h_max=float("inf")), "t_h_max = inf must be finite"),
        (dict(scheme="gibbs"), "unknown scheme 'gibbs'"),
        (dict(v="hadamard"), "unknown v 'hadamard'"),
        (dict(hot_energy_mode="flat"), "unknown hot_energy_mode 'flat'"),
        (dict(heatmap_field="work"), "unknown heatmap_field 'work'"),
        (dict(p2=1.5), "p2 = 1.5 outside [0, 1]"),
        (dict(eps10=-0.1), "eps10 = -0.1 outside [0, 1]"),
        (dict(shots=-5), "shots must be >= 0 (0 = exact)"),
        (dict(seed=-1), "seed = -1 must be >= 0"),
        (dict(t_c_min=0.0), "grid temperatures must be positive"),
        (dict(n_h=1), "grid needs at least 2 points per axis"),
        (dict(outputs=("csv", "png")), "unknown output 'png'"),
        (dict(t_c_max=20.0), "grid bounds need max > min"),
        (dict(t_h_min=2000.0), "grid bounds need max > min"),
        (dict(n_h=2.5, n_c=2, shots=0), "n_h = 2.5 must be of type int"),
        (dict(shots=True), "shots = True must be of type int"),
        (dict(seed=1.0), "seed = 1.0 must be of type int"),
        (dict(f0=True), "f0 = True must be of type float"),
        (dict(p2="0.1"), "p2 = '0.1' must be of type float"),
        (dict(mitigation=1), "mitigation = 1 must be of type bool"),
        # equal to a default, but not the default object, so still checked
        (dict(mitigation=0), "mitigation = 0 must be of type bool"),
        (dict(seed=False), "seed = False must be of type int"),
        (dict(scheme=None), "scheme = None must be of type str"),
        (dict(outputs="csv"), "outputs = 'csv' must be of type tuple"),
        (dict(outputs=["csv"]), "outputs = ['csv'] must be of type tuple"),
    ],
)
def test_config_is_checked_when_built(bad, message):
    with pytest.raises(ConfigError) as err:
        SweepConfig(**bad)
    assert str(err.value) == message and err.value.line is None


def test_every_config_default_passes_its_check_and_a_build_checks_the_rest(monkeypatch):
    for f in dataclasses.fields(SweepConfig):
        sweep.check_key(f.name, f.default)
    checked = []
    monkeypatch.setattr(sweep, "check_key", lambda key, value: checked.append(key))
    SweepConfig()
    assert checked == []
    # a default object passed in is not checked again; the rest are, in field order
    SweepConfig(shots=0, seed=SweepConfig.seed, v="vstar", mitigation=False, p2=0.01)
    assert checked == ["v", "p2", "shots"]


def test_config_takes_ints_and_numpy_scalars_where_they_fit():
    cfg = SweepConfig(t_h_min=20, f1=np.float32(4.75), p2=np.float64(0.01), shots=np.int64(0),
                      n_h=np.uint8(3), n_c=2, mitigation=np.bool_(True))
    assert (cfg.t_h_min, cfg.shots, cfg.n_h, cfg.mitigation) == (20, 0, 3, True)
    assert run_sweep(cfg).mode.shape == (6,)


def test_config_is_frozen_and_replace_checks_again():
    cfg = SweepConfig(shots=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.shots = -1
    assert dataclasses.replace(cfg, seed=4).seed == 4
    with pytest.raises(ConfigError, match="shots must be >= 0"):
        dataclasses.replace(cfg, shots=-1)
    with pytest.raises(ConfigError, match="max > min"):
        dataclasses.replace(cfg, t_h_max=cfg.t_h_min)


def test_config_error_carries_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("f0 = 4.8\nbogus = 1\n")
    assert err.value.line == 2


def test_grid_bounds_are_checked_after_the_whole_document():
    # raising a bound past the default other end is fine in either order
    for text in ("t_h_min = 2000\nt_h_max = 3000\n", "t_h_max = 3000\nt_h_min = 2000\n"):
        cfg = parse_config(text)
        assert (cfg.t_h_min, cfg.t_h_max) == (2000.0, 3000.0)
    # a broken pair cites the later of its two lines
    with pytest.raises(ConfigError, match="max > min") as err:
        parse_config("t_c_max = 50\nshots = 0\nt_c_min = 80\nseed = 1\n")
    assert err.value.line == 3
    with pytest.raises(ConfigError, match="max > min") as err:
        parse_config("shots = 0\nt_h_min = 2000\n")
    assert err.value.line == 2


def test_negative_seed_is_rejected_on_its_line(capsys):
    with pytest.raises(ConfigError, match="seed") as err:
        parse_config("shots = 64\nseed = -3\n")
    assert err.value.line == 2
    argv = ["point", "--th", "100", "--tc", "50", "--seed", "-1", "--eps01", "0.02"]
    assert cli_main(argv) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [("f1", "nan"), ("f0", "inf"), ("p2", "nan"), ("eps01", "inf"),
     ("t_h_max", "inf"), ("t_c_min", "nan")],
)
def test_non_finite_values_are_rejected_on_their_line(key, value):
    with pytest.raises(ConfigError, match=f"{key} = {value} must be finite") as err:
        parse_config(f"shots = 0\n{key} = {value}\n")
    assert err.value.line == 2


def test_point_rejects_a_non_finite_flag(capsys):
    assert cli_main(["point", "--th", "100", "--tc", "50", "--shots", "0", "--f1", "nan"]) == 2
    assert "f1 = nan must be finite" in capsys.readouterr().err


def test_point_rejects_a_nan_temperature_but_not_an_infinite_one(capsys):
    assert cli_main(["point", "--th", "nan", "--tc", "50", "--shots", "0"]) == 2
    assert "temperatures must be positive" in capsys.readouterr().err
    # an infinite T_H is the maximally mixed hot qubits: finite energies
    assert cli_main(["point", "--th", "inf", "--tc", "50", "--shots", "0"]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert out["T_H"] == "inf" and out["T_C"] == 50.0
    assert np.isfinite([out["dE_H"], out["dE_C"], out["W"]]).all()


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@pytest.mark.parametrize("scheme", ["swap4", "full8"])
@pytest.mark.parametrize("axis", ["th", "tc"])
def test_point_and_sweep_reject_a_temperature_whose_weights_overflow(
        scheme, axis, tmp_path, monkeypatch, capsys):
    # below about 1e-306 mK the Gibbs weights overflow; the run fails
    # with the point named instead of writing NaN rows tagged H
    temps = {"th": "100", "tc": "50", axis: "1e-320"}
    assert cli_main(["point", "--th", temps["th"], "--tc", temps["tc"], "--scheme", scheme,
                     "--shots", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "1e-320 mK" in err
    monkeypatch.chdir(tmp_path)
    key = {"th": "t_h_min", "tc": "t_c_min"}[axis]
    Path("tiny.conf").write_text(f"scheme = {scheme}\nshots = 0\nn_h = 2\nn_c = 2\n"
                                 f"{key} = 1e-320\noutputs = csv, json\n")
    assert cli_main(["sweep", "tiny.conf"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "1e-320 mK" in err
    assert sorted(os.listdir()) == ["tiny.conf"]


# ---------------------------------------------------------------------------
# sweeps

def test_identity_transition_is_all_boundary():
    cfg = SweepConfig(shots=0)
    tm = TransitionMatrix(np.eye(8))
    res = evaluate_grid(cfg, tm, [300.0], [100.0])
    assert res.mode.tolist() == ["Boundary"]
    assert not res.purifier[0]
    assert res.de_hot[0] == 0.0 and res.de_cold[0] == 0.0


def test_run_sweep_row_major_order():
    cfg = SweepConfig(shots=0, n_h=3, n_c=4, t_h_max=100.0, t_c_max=100.0)
    res = run_sweep(cfg)
    ths, tcs = grid_axes(cfg)
    assert (res.n_h, res.n_c) == (3, 4) and len(res.t_hot) == 12
    for a, th in enumerate(ths):
        for b, tc in enumerate(tcs):
            assert res.t_hot[a * 4 + b] == th and res.t_cold[a * 4 + b] == tc


def test_sweep_reuses_one_transition_matrix():
    cfg = SweepConfig(shots=256, seed=9, n_h=4, n_c=4)
    tm = sweep_transition_matrix(cfg)
    ths, tcs = grid_axes(cfg)
    expect = evaluate_grid(cfg, tm, ths, tcs)
    assert write_json(run_sweep(cfg)) == write_json(expect)


def test_exact_mitigated_runs_do_not_depend_on_the_seed():
    cfg = dict(shots=0, mitigation=True, eps01=0.05, eps10=0.03)
    a = sweep_transition_matrix(SweepConfig(seed=0, **cfg)).p
    b = sweep_transition_matrix(SweepConfig(seed=1, **cfg)).p
    assert np.array_equal(a, b)


def test_exact_runs_spawn_no_seeds(monkeypatch, capsys):
    def no_seeds(*args):
        raise AssertionError("an exact run spawned seeds")

    monkeypatch.setattr(sweep.np.random, "SeedSequence", no_seeds)
    for mitigation in (False, True):
        run_sweep(SweepConfig(shots=0, n_h=2, n_c=2, eps01=0.02, mitigation=mitigation))
    assert cli_main(["point", "--th", "150", "--tc", "100", "--shots", "0", "--eps01", "0.02",
                     "--mitigation", "on"]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "R"


def test_point_bytes_do_not_depend_on_the_engine_caches(capsys):
    argvs = (["point", "--th", "600", "--tc", "150", "--v", "vstar", "--shots", "8192",
              "--seed", "11", "--eps01", "0.03", "--eps10", "0.05", "--mitigation", "on"],
             ["point", "--th", "150", "--tc", "100", "--shots", "0", "--eps01", "0.02",
              "--eps10", "0.04", "--mitigation", "on"])
    hit = (sweep._exact_matrix, noise._confusion, thermo.cold_energies, thermo.hot_energies)
    for cached in hit:
        cached.cache_clear()
    outs = [[] for _ in argvs]
    for _ in range(2):  # cold caches, then warm ones
        for argv, out in zip(argvs, outs):
            assert cli_main(argv) == 0
            out.append(capsys.readouterr().out)
    assert all(cached.cache_info().hits for cached in hit)
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    for argv, out in zip(argvs, outs):
        fresh = subprocess.run([sys.executable, "-m", "qfridge.cli", *argv], capture_output=True,
                               text=True, env=env, timeout=300)
        assert fresh.returncode == 0
        assert out == [fresh.stdout] * 2


def _frozen_readout_free_channel(cfg):
    """The engine's outcome channel as sweep_transition_matrix, with
    thermo.transition_matrix inlined, evolved it before the channel was
    cached: every call evolves the engine's basis inputs."""
    nm = cfg.noise()
    if not nm.is_gate_noiseless():
        return noise.circuit_channel(sweep.engine_circuit(cfg.v), nm)
    u = circuits.build_target_unitary(cfg.v)
    return qcore.born_probabilities(u @ thermo._BASIS_DENSITIES @ u.conj().T)


def _frozen_measurement(cfg, channel):
    """The rest of that body: the matrix of `channel` read out, sampled and
    mitigated."""
    nm = cfg.noise()
    tm_seed = calibration_seed = None
    if cfg.shots:
        tm_seed, calibration_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    conf = None
    if cfg.mitigation:
        conf = (noise.calibrate(nm, cfg.shots, calibration_seed) if cfg.shots
                else noise.readout_matrix(nm))
    raw = noise.apply_readout_error(channel, nm)
    if cfg.shots:
        raw = qcore.sample_counts(raw, cfg.shots, tm_seed) / cfg.shots
    if conf is None:
        return TransitionMatrix(raw.T)
    unmix = noise.readout_inverse(conf)
    return TransitionMatrix(noise.mitigate(raw, unmix).T, raw.T, unmix)


_GATE_NOISE = st.one_of(st.sampled_from([0.0, -0.0, 0.01]), st.floats(0.0, 0.3))


#: a few grid points on both sides of the refrigeration boundaries
_TAG_AXES = ([60.0, 150.0, 400.0, 1000.0], [40.0, 100.0, 300.0])


def _assert_same(got, want, atol=None):
    """got's p, raw and unmix are want's: bit for bit, or p and raw within atol."""
    for name in ("p", "raw", "unmix"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        if atol is None or name == "unmix":
            assert a.tobytes() == b.tobytes(), name
        else:
            assert np.max(np.abs(a - b)) <= atol, name


@settings(max_examples=200, deadline=None)
@given(v=st.sampled_from(CHOICES["v"]), p1=_GATE_NOISE, p2=_GATE_NOISE,
       eps01=st.floats(0.0, 0.2), eps10=st.floats(0.0, 0.2),
       shots=st.sampled_from([0, 64, 8192]), mitigation=st.booleans(),
       seed=st.integers(0, 2 ** 32))
def test_cached_channel_gives_the_frozen_matrices_bit_for_bit(
        v, p1, p2, eps01, eps10, shots, mitigation, seed):
    cfg = SweepConfig(v=v, p1=p1, p2=p2, eps01=eps01, eps10=eps10, shots=shots,
                      mitigation=mitigation, seed=seed)
    channel = _frozen_readout_free_channel(cfg)
    want = _frozen_measurement(cfg, channel)
    noisy = not cfg.noise().is_gate_noiseless()
    want_tags = evaluate_grid(cfg, want, *_TAG_AXES)
    # as earlier examples left the caches (0.0 and -0.0 are both noiseless), cleared, then warm
    for clear in (False, True, False):
        if clear:
            sweep._exact_matrix.cache_clear()
            sweep._engine_polynomial.cache_clear()
        got = sweep_transition_matrix(cfg)
        if noisy:
            # the polynomial sums the channel in another order than the evolution,
            # and the run reads it out, samples and mitigates it as the frozen body does
            assert np.max(np.abs(got.channel - channel)) <= 1e-15
            _assert_same(got, _frozen_measurement(cfg, got.channel))
        else:
            assert got.channel.tobytes() == channel.tobytes()
        # the multinomial draw skips an exact zero without reading its stream: where
        # entries of the channel lie below rounding level (p2 below about 1e-8, 0
        # included), each order leaves rounding-level positives in entries of its
        # own, and the two orders' sampled runs draw differently; every other run
        # draws as the frozen one
        zeros_differ = (got.channel > 0) != (channel > 0)
        if shots and zeros_differ.any():
            assert noisy and np.max(np.where(zeros_differ, got.channel + channel, 0)) <= 1e-15
            continue
        _assert_same(got, want, 1e-15 if noisy else None)
        tags = evaluate_grid(cfg, got, *_TAG_AXES)
        for name in ("mode", "t_cold_final_kind", "purifier"):
            assert np.array_equal(getattr(tags, name), getattr(want_tags, name)), name
    # a noiseless run takes the exact matrix from its cache, a noisy one the polynomial
    assert (sweep._engine_polynomial if noisy else sweep._exact_matrix).cache_info().hits


@pytest.mark.parametrize("v", CHOICES["v"])
def test_exact_runs_without_readout_error_return_the_cache_entry_itself(v, monkeypatch):
    sweep._exact_matrix.cache_clear()
    entry = sweep._exact_matrix(v)

    def no_measuring(*args, **kwargs):
        raise AssertionError("an exact run without readout error measured its channel")

    monkeypatch.setattr(thermo, "measure_channel", no_measuring)
    cfg = SweepConfig(v=v, shots=0)
    # other seeds, grids and zeros share it: an exact run draws nothing
    for seed, n_h, p2 in ((0, 64, 0.0), (7, 3, -0.0), (2 ** 40, 2, np.float32(0.0))):
        assert sweep_transition_matrix(dataclasses.replace(cfg, seed=seed, n_h=n_h, p2=p2)) is entry
    info = sweep._exact_matrix.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 1, 1)
    # read out without error: raw is p, unmix the shared identity, and all read-only
    assert entry.raw is entry.p and entry.unmix is thermo._IDENTITY
    for name in ("p", "raw", "unmix", "channel"):
        a = getattr(entry, name)
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
    # a matrix built by hand was measured from no channel
    assert TransitionMatrix(entry.p).channel is None


@pytest.mark.parametrize("v", CHOICES["v"])
@pytest.mark.parametrize("p1, p2", [(0.0, 0.0), (0.001, 0.01)])
def test_every_other_run_measures_the_entrys_channel_at_one_call(v, p1, p2, monkeypatch):
    sweep._exact_matrix.cache_clear()
    sweep._engine_polynomial.cache_clear()
    nm = noise.NoiseModel(p1, p2)
    if nm.is_gate_noiseless():
        cache, entry = sweep._exact_matrix, sweep._exact_matrix(v)
        channel = entry.channel
    else:
        cache, entry = sweep._engine_polynomial, None
        channel = noise.evaluate_channel(sweep._engine_polynomial(v), nm)
    measured, measure_channel = [], thermo.measure_channel

    def capturing(channel, *args, **kwargs):
        measured.append(channel)
        return measure_channel(channel, *args, **kwargs)

    monkeypatch.setattr(thermo, "measure_channel", capturing)
    cfg = SweepConfig(v=v, p1=p1, p2=p2)
    runs = [dict(shots=0, eps01=0.02, eps10=0.04), dict(shots=0, mitigation=True),
            dict(shots=0, eps01=0.02, mitigation=True), dict(shots=64, seed=3),
            dict(shots=64, eps10=0.04, mitigation=True, seed=3)]
    for run in runs:
        run_cfg = dataclasses.replace(cfg, **run)
        tm, again = sweep_transition_matrix(run_cfg), sweep_transition_matrix(run_cfg)
        # a fresh matrix each time: no measured matrix is cached
        assert tm is not entry and again is not tm
        # each keeps the channel it was measured from, not a copy
        assert tm.channel is measured[-2] and again.channel is measured[-1]
        for name in ("p", "raw", "unmix", "channel"):
            assert getattr(again, name).tobytes() == getattr(tm, name).tobytes(), name
    # each run measured the engine's channel at one call: the exact matrix's own
    # without gate noise, else the polynomial's at (p1, p2)
    assert len(measured) == 2 * len(runs)
    assert all(c.tobytes() == channel.tobytes() for c in measured)
    assert entry is None or all(c is channel for c in measured)
    # and built the cache's entry for v once
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2 * len(runs), 1, 1)


def test_a_noise_scan_never_evolves_and_builds_each_polynomial_once(monkeypatch):
    def no_evolving(*args, **kwargs):
        raise AssertionError("a sweep evolved the engine")

    for module in (noise, thermo):
        monkeypatch.setattr(module, "circuit_channel", no_evolving)
    sweep._engine_polynomial.cache_clear()
    built, engine_circuit = [], sweep.engine_circuit
    monkeypatch.setattr(sweep, "engine_circuit", lambda v: built.append(v) or engine_circuit(v))
    # the plan is not cached: a second build for one V would show here
    planned, plan = [], noise._plan
    monkeypatch.setattr(noise, "_plan", lambda c: planned.append(c) or plan(c))
    # noise_scan's pattern: a fresh p2 for every run
    p2s = np.linspace(0.0005, 0.05, 9).tolist()
    for v in CHOICES["v"]:
        de_cold = [run_sweep(SweepConfig(v=v, p1=p2 / 10, p2=p2, eps01=0.01, eps10=0.01, shots=0,
                                         n_h=4, n_c=4)).de_cold for p2 in p2s]
        # each p2 ran its own engine
        assert len({d.tobytes() for d in de_cold}) == len(p2s)
    assert built == list(CHOICES["v"])
    assert planned == [engine_circuit(v) for v in CHOICES["v"]]
    info = sweep._engine_polynomial.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2 * (len(p2s) - 1), 2, 2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 64), mitigation=st.booleans())
def test_seed_streams_are_the_children_of_spawn(seed, mitigation):
    children = np.random.SeedSequence(seed).spawn(2)
    p = np.full((8, 8), 0.125)
    for i, child in enumerate(children):
        stream = np.random.SeedSequence(seed, spawn_key=(i,))
        assert np.array_equal(stream.generate_state(8), child.generate_state(8))
        assert np.array_equal(qcore.sample_counts(p, 1000, stream),
                              qcore.sample_counts(p, 1000, child))
    # a sampled run builds the streams it draws from: the calibration's only when mitigating
    built, seed_sequence = [], np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args[0])
        return seed_sequence(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep.np.random, "SeedSequence", counting)
        sweep_transition_matrix(SweepConfig(v="vstar", eps01=0.02, shots=64, seed=seed,
                                            mitigation=mitigation))
    assert built == [seed] * (1 + mitigation)


def _shared_arrays(value):
    """The arrays a cache returns: itself, the items of a tuple, or a matrix's four."""
    if isinstance(value, TransitionMatrix):
        return value.p, value.raw, value.unmix, value.channel
    return value if isinstance(value, tuple) else (value,)


def test_every_array_a_module_keeps_is_read_only():
    from qfridge import compiler

    arrays = {f"{m.__name__.rpartition('.')[2]}.{name}": a
              for m in (qcore, circuits, noise, compiler, thermo, sweep)
              for name, a in vars(m).items() if isinstance(a, np.ndarray)}
    arrays.update((f"FIXED_MATRICES[{k!r}]", a) for k, a in circuits.FIXED_MATRICES.items())
    assert {"qcore.phys_of_logical", "circuits.SWAP_BLOCK", "thermo._BITS_K",
            "thermo._MODE_TAGS", "sweep._BOOL_TEXTS", "FIXED_MATRICES['cx']"} <= set(arrays)
    for name, a in arrays.items():
        assert not a.flags.writeable, name
        corner = (0,) * a.ndim
        with pytest.raises(ValueError, match="read-only"):
            a[corner] = a[corner]


def test_every_cache_returns_the_same_read_only_arrays():
    from qfridge import compiler

    spec = thermo.DeviceSpec(4.82, 4.76, 4.90)
    calls = {
        "_embed_tables": lambda: circuits._embed_tables((1, 2), 3),
        "_pauli_basis": lambda: noise._pauli_basis(3),
        "readout_matrix": lambda: noise.readout_matrix(noise.NoiseModel(eps01=0.02, eps10=0.05)),
        "_walsh_gray": lambda: compiler._walsh_gray(2),
        "cold_energies": lambda: thermo.cold_energies(spec),
        "hot_energies": lambda: thermo.hot_energies(spec, "ideal"),
        "_exact_matrix": lambda: sweep._exact_matrix("identity"),
        "_engine_polynomial": lambda: sweep._engine_polynomial("vstar"),
    }
    for name, call in calls.items():
        first, again = _shared_arrays(call()), _shared_arrays(call())
        assert len(first) == len(again) and all(a is b for a, b in zip(first, again)), name
        assert all(not a.flags.writeable for a in first), name


def test_fixed_gate_matrices_refuse_writes_and_circuits_keep_their_bits():
    before = circuits.unitary_of_circuit(circuits.build_vstar_circuit())
    for name, wires in (("x", (0,)), ("sx", (1,)), ("cx", (0, 1))):
        m = circuits.Gate(name, wires).matrix()
        with pytest.raises(ValueError, match="read-only"):
            m[-1, -1] = 7
        assert m is circuits.FIXED_MATRICES[name]
    after = circuits.unitary_of_circuit(circuits.build_vstar_circuit())
    assert after.tobytes() == before.tobytes()


def test_engine_circuits_are_fixed_and_built_once():
    for v, build in (("identity", circuits.build_identity_circuit),
                     ("vstar", circuits.build_vstar_circuit)):
        assert sweep.engine_circuit(v) is sweep.engine_circuit(v)
        assert sweep.engine_circuit(v) == build()
    with pytest.raises(ValueError, match="unknown v 'hadamard'"):
        sweep.engine_circuit("hadamard")
    # no sweep or point run compiles
    assert not hasattr(sweep, "compile_generic")


def test_sweep_is_deterministic():
    cfg = SweepConfig(shots=256, seed=4, n_h=4, n_c=4, eps01=0.02, eps10=0.02)
    a = write_csv(run_sweep(cfg))
    b = write_csv(run_sweep(cfg))
    assert a == b


@pytest.mark.parametrize("run", [dict(shots=0), dict(shots=64, eps01=0.02, eps10=0.03, mitigation=True)],
                         ids=["exact", "sampled"])
def test_an_empty_axis_evaluates_to_an_empty_result(run):
    cfg = SweepConfig(**run)
    tm = sweep_transition_matrix(cfg)
    for t_h_axis, t_c_axis in (([], [50.0, 80.0]), ([300.0], []), ([], [])):
        res = evaluate_grid(cfg, tm, t_h_axis, t_c_axis)
        assert (res.n_h, res.n_c) == (len(t_h_axis), len(t_c_axis))
        for f in dataclasses.fields(res)[2:]:
            assert getattr(res, f.name).shape == (0,), f.name
        assert write_csv(res) == CSV_HEADER + "\n"


def test_sampled_boundary_tolerance_widens_bands():
    cfg_exact = SweepConfig(shots=0, n_h=8, n_c=8)
    cfg_sampled = SweepConfig(shots=64, seed=2, n_h=8, n_c=8)
    exact_b = np.sum(run_sweep(cfg_exact).mode == "Boundary")
    sampled_b = np.sum(run_sweep(cfg_sampled).mode == "Boundary")
    assert sampled_b >= exact_b


def test_gate_noise_lifts_the_lowest_purifying_cold_temperature():
    # the abstract's "purification down to 200 mK" on the engine that runs:
    # the default exact grid (full8, V = identity, 64x64 over 20-1000 mK, so
    # a T_C step of 15.6 mK) at p1 = p2/10
    p2s = (0.0, 0.001, 0.004, 0.01, 0.03, 0.04, 0.05)
    counts, lowest = [], []
    for p2 in p2s:
        res = run_sweep(SweepConfig(p1=p2 / 10, p2=p2, shots=0))
        counts.append(int(res.purifier.sum()))
        lowest.append(round(res.t_cold[res.purifier].min(), 1) if counts[-1] else None)
    assert counts == [1101, 1082, 1018, 897, 464, 223, 0]
    assert lowest == [35.6, 51.1, 66.7, 82.2, 160.0, 268.9, None]
    assert counts == sorted(counts, reverse=True) and lowest[:-1] == sorted(lowest[:-1])


def test_unmitigated_asymmetric_readout_adds_purifiers_the_gates_do_not_make():
    # the same default exact grid at p1 = p2/10, read out with eps01 = 0.02,
    # eps10 = 0.05: the cold qubit reads colder, so unmitigated runs tag more
    # purifier cells, and at p2 = 0 tag R where W = dE_H + dE_C < 0;
    # mitigation at shots = 0 gives back the gate-only tags
    def tags(p2, **readout):
        res = run_sweep(SweepConfig(p1=p2 / 10, p2=p2, shots=0, **readout))
        n = int(res.purifier.sum())
        lowest = round(res.t_cold[res.purifier].min(), 1) if n else None
        return n, lowest, int(np.sum((res.mode == "R") & (res.de_hot + res.de_cold < 0)))

    readout = dict(eps01=0.02, eps10=0.05)
    assert tags(0.0, **readout) == (1128, 66.7, 618)
    assert tags(0.0) == tags(0.0, **readout, mitigation=True) == (1101, 35.6, 0)
    assert tags(0.05, **readout) == (267, 424.4, 0)
    assert tags(0.05) == tags(0.05, **readout, mitigation=True) == (0, None, 0)


# ---------------------------------------------------------------------------
# outputs

def _tiny_rows(n=4):
    """A 2x2 result; n < 4 leaves the grid incomplete."""
    columns = dict(
        de_hot=[0.5, -0.5, -0.1, 0.1],
        de_cold=[-0.25, 0.25, 0.2, 0.2],
        mode=["R", "E", "A", "H"],
        t_cold_final=[42.5, np.nan, np.nan, 80.0],
        t_cold_final_kind=["finite", "infinite", "inverted", "finite"],
        p_g_final=[0.9, 0.5, 0.3, 0.6],
        purifier=[True, False, False, False],
    )
    return SweepResult([100.0, 200.0], [50.0, 75.0], **{k: v[:n] for k, v in columns.items()})


def test_sweep_result_columns_fill_the_grid_of_its_axes():
    columns = dict(
        de_hot=np.arange(6.0), de_cold=np.zeros(6), mode=["R"] * 6,
        t_cold_final=np.ones(6), t_cold_final_kind=["finite"] * 6,
        p_g_final=np.full(6, 0.5), purifier=np.zeros(6, bool),
    )
    res = SweepResult([100.0, 200.0], [10.0, 20.0, 30.0], **columns)
    assert (res.n_h, res.n_c) == (2, 3)
    assert res.t_hot.tolist() == [100.0] * 3 + [200.0] * 3
    assert res.t_cold.tolist() == [10.0, 20.0, 30.0] * 2
    for name in columns:
        short = dict(columns, **{name: columns[name][:5]})
        with pytest.raises(ValueError, match=f"column {name} does not fill a 2x3 grid"):
            SweepResult([100.0, 200.0], [10.0, 20.0, 30.0], **short)
    with pytest.raises(ValueError, match="does not fill a 2x2 grid"):
        SweepResult([100.0, 200.0], [10.0, 20.0], **columns)
    with pytest.raises(ValueError, match="axes must be one-dimensional"):
        SweepResult([100.0, 200.0], [[10.0, 20.0, 30.0]], **columns)


def test_sweep_results_compare_and_hash_by_identity():
    cfg = SweepConfig(shots=0, n_h=2, n_c=2)
    res, again = run_sweep(cfg), run_sweep(cfg)
    assert res == res and res != again
    assert hash(res) == hash(res) and len({res, again, res}) == 2


def test_write_csv():
    text = write_csv(_tiny_rows())
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert len(first) == 9
    assert first[0] == "100" and first[5] == "R" and first[8] == "true"
    assert lines[2].split(",")[6] == "inf"
    assert lines[3].split(",")[6] == "inverted"


def test_write_json_roundtrip():
    data = json.loads(write_json(_tiny_rows()))
    assert len(data) == 4
    assert data[0]["mode"] == "R" and data[0]["purifier"] is True
    assert data[0]["T_C_final"] == 42.5
    assert data[1]["T_C_final"] == "inf"
    assert data[2]["T_C_final"] == "inverted"
    assert set(data[0]) == {
        "T_H", "T_C", "dE_H", "dE_C", "W", "mode", "T_C_final",
        "p_g_final", "purifier",
    }


def test_write_record_matches_columns():
    res = _tiny_rows()
    with pytest.raises(ValueError, match="not 2x2"):
        write_record(res)
    one = SweepResult(**{f.name: getattr(res, f.name)[:1] for f in dataclasses.fields(res)})
    text = write_record(one)
    d = json.loads(text)
    assert d["T_H"] == res.t_hot[0] and d["dE_C"] == res.de_cold[0]
    assert d["W"] == res.de_hot[0] + res.de_cold[0]
    # the record is the first object of the JSON file, one level shallower
    assert write_json(one) == "[\n  " + text.replace("\n", "\n  ") + "\n]\n"


def test_mode_heatmap_pixels():
    ppm = write_heatmap(_tiny_rows(), "mode")
    header, rest = ppm.split(b"\n", 1)
    assert header == b"P6"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"2 2"  # n_c columns, n_h rows
    _, pixels = rest.split(b"\n", 1)
    assert len(pixels) == 12
    # first row is the purifying-R pixel then the E pixel
    assert pixels[0:3] == bytes((120, 180, 255))
    assert pixels[3:6] == bytes((0, 160, 0))
    assert pixels[6:9] == bytes((255, 220, 0))
    assert pixels[9:12] == bytes((220, 0, 0))


def test_scalar_heatmap_ramp_and_gray():
    rows = _tiny_rows()
    ppm = write_heatmap(rows, "p_g_final")
    pixels = ppm.split(b"\n255\n", 1)[1]
    values = [0.9, 0.5, 0.3, 0.6]
    lo, hi = heatmap_range(rows, "p_g_final")
    assert (lo, hi) == (0.3, 0.9)
    assert pixels[0:3] == bytes((255, 0, 0))  # maximum maps to pure red
    assert pixels[6:9] == bytes((0, 0, 255))  # minimum maps to pure blue
    # non-finite final temperatures render gray on the t_c_final map
    ppm_t = write_heatmap(rows, "t_c_final")
    pixels_t = ppm_t.split(b"\n255\n", 1)[1]
    assert pixels_t[3:6] == bytes((128, 128, 128))
    assert pixels_t[6:9] == bytes((128, 128, 128))
    assert values  # silence linters about the documentation list


def test_heatmap_rejects_bad_input():
    with pytest.raises(ValueError, match="field"):
        write_heatmap(_tiny_rows(), "work")
    with pytest.raises(ValueError, match="grid"):
        _tiny_rows(n=3)
    only_bad = SweepResult(
        [1.0], [1.0], [0.0], [0.0], ["Boundary"], [np.nan], ["infinite"], [0.5], [False]
    )
    with pytest.raises(ValueError, match="no finite"):
        heatmap_range(only_bad, "t_c_final")
    for field in ("mode", "bogus", "T_C_final"):
        with pytest.raises(ValueError, match=f"'{field}' is not a scalar heatmap field"):
            heatmap_range(_tiny_rows(), field)


def test_write_outputs_keeps_csv_and_json_when_the_heatmap_cannot_be_drawn(tmp_path):
    res = SweepResult([1.0], [1.0, 2.0], [0.0, 0.1], [0.0, 0.2], ["Boundary", "H"],
                      [np.nan, np.nan], ["infinite", "inverted"], [0.5, 0.4], [False, False])
    prefix = str(tmp_path / "run")
    cfg = SweepConfig(outputs=("csv", "json", "heatmap"), heatmap_field="t_c_final",
                      output_prefix=prefix)
    with pytest.raises(ValueError, match="no finite"):
        write_outputs(cfg, res)
    assert Path(prefix + ".csv").read_bytes() == write_csv(res).encode()
    assert Path(prefix + ".json").read_bytes() == write_json(res).encode()
    assert not Path(prefix + ".ppm").exists()


def test_write_outputs_takes_the_heatmap_range_once(tmp_path, monkeypatch):
    res = _tiny_rows()
    calls = []
    monkeypatch.setattr(sweep, "heatmap_range", lambda *args: calls.append(args) or heatmap_range(*args))
    cfg = SweepConfig(outputs=("heatmap",), heatmap_field="p_g_final", output_prefix=str(tmp_path / "run"))
    ppm_path, range_path = map(Path, write_outputs(cfg, res))
    assert calls == [(res, "p_g_final")]
    assert ppm_path.read_bytes() == write_heatmap(res, "p_g_final")
    assert range_path.read_text() == "min 0.3\nmax 0.9\n"


def _write_files(tmp_path, res, outputs=("csv", "json")):
    cfg = SweepConfig(outputs=outputs, output_prefix=str(tmp_path / "run"))
    return [Path(path) for path in write_outputs(cfg, res)]


@pytest.mark.parametrize("outputs", [("csv",), ("json",), ("csv", "json")], ids="+".join)
def test_streamed_files_are_the_bytes_of_the_writers_over_several_blocks(tmp_path, outputs):
    # 40 x 40 points: three full blocks and a ragged last one, streamed alone or together
    res = run_sweep(SweepConfig(shots=0, n_h=40, n_c=40))
    assert res.de_hot.size > 3 * sweep._BLOCK_POINTS
    paths = _write_files(tmp_path, res, outputs)
    assert [path.name for path in paths] == [f"run.{name}" for name in outputs]
    writers = {"csv": write_csv, "json": write_json}
    for name, path in zip(outputs, paths):
        assert path.read_bytes() == writers[name](res).encode()


def test_streamed_write_memory_stays_below_a_quarter_of_the_json_file(tmp_path):
    res = run_sweep(SweepConfig(shots=0, n_h=128, n_c=128))
    tracemalloc.start()
    try:
        json_path = _write_files(tmp_path, res)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < json_path.stat().st_size / 4


# ---------------------------------------------------------------------------
# CLI

def test_cli_compile_vstar(capsys):
    assert cli_main(["compile", "--v", "vstar"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cnot_count"] == 4 and report["total_gates"] == 4


def test_cli_compile_emits_qasm(tmp_path, capsys):
    path = tmp_path / "engine.qasm"
    assert cli_main(["compile", "--v", "vstar", "--qasm", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("OPENQASM 2.0;")
    assert sum(1 for line in text.splitlines() if line.startswith("cx ")) == 4


def test_cli_compile_identity_emits_routed_qasm(tmp_path, capsys):
    path = tmp_path / "engine.qasm"
    assert cli_main(["compile", "--v", "identity", "--qasm", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    pairs = re.findall(r"^cx q\[(\d)\],q\[(\d)\];$", path.read_text(), re.MULTILINE)
    assert all(LINE3.allows(int(a), int(b)) for a, b in pairs)
    assert len(pairs) == report["cnot_count"] <= 54
    # the file is the circuit that noisy V = identity sweeps run
    assert path.read_bytes() == emit_qasm(sweep.engine_circuit("identity")).encode()


def test_v_choices_are_shared_by_config_and_cli(capsys):
    assert circuits.V_CHOICES == CHOICES["v"] == ("identity", "vstar")
    assert cli_main(["compile", "--v", "hadamard"]) == 1
    assert "invalid choice: 'hadamard' (choose from" in capsys.readouterr().err
    for key, allowed in CHOICES.items():
        for value in allowed:
            assert getattr(parse_config(f"{key} = {value}"), key) == value
        with pytest.raises(ConfigError, match=f"line 1: unknown {key} 'hadamard'"):
            parse_config(f"{key} = hadamard")
        if key == "heatmap_field":  # a sweep-file key only
            continue
        argv = ["point", "--th", "150", "--tc", "100", "--" + key.replace("_", "-"), "hadamard"]
        assert cli_main(argv) == 1
        listed = capsys.readouterr().err.split("invalid choice: 'hadamard' (choose from ", 1)[1]
        assert all(value in listed for value in allowed)


def test_cli_point(capsys):
    code = cli_main(
        ["point", "--th", "150", "--tc", "100", "--shots", "0"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "R"
    assert out["dE_C"] < 0 and out["W"] > 0
    assert out["T_H"] == 150.0 and out["T_C"] == 100.0


def test_cli_point_identical_frequencies_purifies(capsys):
    code = cli_main(
        ["point", "--th", "100", "--tc", "100",
         "--f0", "4.76", "--f1", "4.76", "--f2", "4.76", "--shots", "0"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "R" and out["purifier"] is True


def test_cli_sweep_writes_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "sweep.conf"
    config.write_text(
        "shots = 0\nn_h = 4\nn_c = 4\noutputs = csv, json, heatmap\n"
        "heatmap_field = p_g_final\noutput_prefix = tiny\n"
    )
    assert cli_main(["sweep", str(config)]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == ["tiny.csv", "tiny.json", "tiny.ppm", "tiny.ppm.range.txt"]
    assert (tmp_path / "tiny.csv").read_text().startswith(CSV_HEADER)
    assert json.loads((tmp_path / "tiny.json").read_text())
    assert (tmp_path / "tiny.ppm").read_bytes().startswith(b"P6\n4 4\n255\n")
    range_text = (tmp_path / "tiny.ppm.range.txt").read_text()
    assert range_text.startswith("min ") and "max " in range_text


def test_cli_heatmap_pixels_match_rows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = parse_config("shots = 0\nn_h = 6\nn_c = 6\n")
    res = run_sweep(cfg)
    ppm = write_heatmap(res, "mode")
    pixels = ppm.split(b"\n255\n", 1)[1]
    from qfridge.sweep import MODE_COLORS

    for idx, (mode, purifier) in enumerate(zip(res.mode, res.purifier)):
        tag = "P" if (mode == "R" and purifier) else mode
        assert pixels[3 * idx:3 * idx + 3] == bytes(MODE_COLORS[tag])


def test_cli_exit_codes(capsys):
    assert cli_main(["sweep", "no_such_file.conf"]) == 2
    assert cli_main(["point", "--th", "100"]) == 1  # missing --tc
    assert cli_main(["compile", "--v", "hadamard"]) == 1
    assert cli_main(["bogus"]) == 1
    capsys.readouterr()


def test_cli_reuses_one_parser(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.conf").write_text("shots = 0\nn_h = 2\nn_c = 2\n")
    point = ["point", "--th", "300", "--tc", "80", "--shots", "64", "--seed", "3",
             "--eps01", "0.02", "--mitigation", "on"]
    cli._build_parser.cache_clear()

    def top_level_parse(argv=None, namespace=None):
        raise AssertionError(f"the top-level parser read {argv}")

    # a known command goes straight to its own parser
    monkeypatch.setattr(cli._build_parser(), "parse_args", top_level_parse)
    assert cli_main(point) == 0
    first = capsys.readouterr().out
    assert cli_main(["point", "--th", "300"]) == 1
    assert cli_main(["sweep", "tiny.conf"]) == 0
    assert cli_main(["compile", "--v", "vstar"]) == 0
    capsys.readouterr()
    assert cli_main(point) == 0
    assert capsys.readouterr().out == first
    assert cli._build_parser.cache_info().misses == 1


def test_cli_reads_argv_without_a_command_at_the_top_level(monkeypatch, capsys):
    parser = cli._build_parser()
    read = []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: read.append(argv) or parse_args(argv))
    assert cli_main([]) == 1
    assert capsys.readouterr().err == "usage error: the following arguments are required: command\n"
    assert cli_main(["bogus"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_:
        cli_main(["-h"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == parser.format_help()
    assert read == [[], ["bogus"], ["-h"]]
    monkeypatch.setattr(sys, "argv", ["qfridge", "--help"])
    with pytest.raises(SystemExit):
        cli_main()
    assert read[-1] == ["--help"]


#: single tokens that a command line may hold anywhere: each command's flags,
#: whole or abbreviated, with and without "=", help, "--", negative numbers,
#: command names and flags no command knows
_TOKENS = st.sampled_from([
    "--th", "--tc", "--f0", "--f1", "--f2", "--p1", "--p2", "--eps01", "--eps10", "--scheme",
    "--v", "--shots", "--seed", "--mitigation", "--hot-energy-mode", "--qasm", "--th=5",
    "--tc=-3", "--v=vstar", "--shots=0", "--t", "--f", "--e", "--eps", "--s", "--sh", "--hot",
    "--m", "--q", "-h", "--help", "--h", "--", "-", "-5", "-1e3", "0", "5", "nan", "on", "vstar",
    "bogus", "tiny.conf", "--bogus", "-x", "--th-x", "point", "sweep",
])
_FLOATS = ("0", "5", "300", "-5", "-1e3", "-0.5", "1e-320", "inf", "nan", "2.5e2", "x")
_INTS = ("0", "5", "-5", "8192", "2.5")
#: per command, its flags, whole or abbreviated, with values mostly of their kind
_FLAG_VALUES = {
    "point": {**dict.fromkeys(("--th", "--tc", "--f0", "--f2", "--p1", "--p2", "--eps01",
                               "--eps10"), _FLOATS),
              **dict.fromkeys(("--shots", "--seed", "--sh", "--see"), _INTS),
              **dict.fromkeys(("--scheme", "--sc"), ("full8", "swap4", "x")),
              **dict.fromkeys(("--v", "--hot-energy-mode", "--hot"), ("identity", "ideal")),
              **dict.fromkeys(("--mitigation", "--mit"), ("on", "off", "true"))},
    "compile": {"--v": ("identity", "vstar", "x"), "--qasm": ("out.qasm",), "--q": ("-",)},
    "sweep": {},
    "selftest": {},
}
_PAIRS = {command: [(flag, value) for flag, values in flags.items() for value in values]
          for command, flags in _FLAG_VALUES.items()}
#: the arguments each command needs
_REQUIRED = {"sweep": ["tiny.conf"], "point": ["--th", "300", "--tc", "-80"],
             "compile": ["--v", "vstar"], "selftest": []}


@st.composite
def _command_lines(draw):
    """A command, often its required arguments, flag-value pairs of it (or
    of any command) given as two tokens or as one with "=", and now and then
    a few tokens anywhere."""
    command = draw(st.sampled_from(sorted(_REQUIRED)))
    tokens = list(_REQUIRED[command]) if draw(st.booleans()) else []
    own = draw(st.booleans()) and _PAIRS[command]
    pairs = st.sampled_from(own or [pair for pairs in _PAIRS.values() for pair in pairs])
    for flag, value in draw(st.lists(pairs, max_size=4)):
        tokens += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_TOKENS))
    return [command, *tokens]


def _parse_outcome(parse, argv):
    """What parsing argv gives: the namespace, the usage error or the exit
    code, with all that is printed on the way."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("namespace", sorted(vars(parse(argv)).items()))
        except cli._UsageError as usage:
            result = ("usage error", str(usage))
        except SystemExit as exit_:
            result = ("exit", exit_.code)
    return repr(result), out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None)
@given(argv=_command_lines())
@example(argv=["point", "-h"])
@example(argv=["point", "--th", "5", "--tc=6", "--help"])
@example(argv=["compile", "--h"])
@example(argv=["sweep", "-h", "tiny.conf"])
@example(argv=["selftest", "--", "-h"])
def test_cli_dispatch_parses_as_the_top_level_parser(argv):
    assert sorted(cli._build_parser().commands) == sorted(_REQUIRED)
    want = _parse_outcome(cli._build_parser().parse_args, argv)
    assert _parse_outcome(cli._parse_args, argv) == want
    assert want[0].startswith((f"('namespace', [('command', '{argv[0]}')", "('usage", "('exit"))


def test_runs_do_not_import_the_compiler():
    # the compiler loads on first access of qfridge.compile_generic, and the
    # report moved beside Circuit resolves under every old name
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import qfridge, qfridge.cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [qfridge.cli.cli_main(["point", "--th", "300", "--tc", "80", "--shots", "0"]),
                     qfridge.cli.cli_main(["compile", "--v", "identity"])]
        lazy = "qfridge.compiler" not in sys.modules
        compile_generic = qfridge.compile_generic
        compiler = sys.modules.get("qfridge.compiler")
        print(json.dumps([codes, lazy, compile_generic is compiler.compile_generic,
                          qfridge.CompileReport is compiler.CompileReport
                          is qfridge.circuits.CompileReport, hasattr(qfridge, "no_such_name")]))
    """)
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [[0, 0], True, True, True, False]


def test_cli_selftest(capsys):
    assert cli_main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"ok   {label}" for label, _ in CRITERIA]


def test_cli_selftest_fails_loudly_under_python_O():
    # asserts compiled away, a wrong oracle answer must still fail with a
    # message, and the selftest must load nothing beyond the package and numpy
    script = textwrap.dedent("""
        import json, sys
        from qfridge import thermo
        thermo.cold_excitation = lambda after: 0.0 * after[..., 1]
        from qfridge.cli import cli_main
        lazy = "qfridge.oracles" not in sys.modules
        code = cli_main(["selftest"])
        print(json.dumps([code, sys.flags.optimize, lazy, "pytest" in sys.modules,
                          "hypothesis" in sys.modules]))
    """)
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env=env, timeout=300)
    *lines, summary = run.stdout.splitlines()
    assert json.loads(summary) == [2, 1, True, False, False]
    failed = [line for line in lines if line.startswith("FAIL ")]
    assert failed and all(line.split(": ", 1)[1].strip() for line in failed)
