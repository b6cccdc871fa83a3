"""Config parsing, grid sweeps, file outputs, and the CLI."""
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qfridge import cli, sweep
from qfridge.circuits import LINE3, emit_qasm
from qfridge.cli import cli_main
from qfridge.compiler import compile_generic
from qfridge.oracles import CRITERIA
from qfridge.sweep import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    SweepResult,
    as_records,
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
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


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
    out = json.loads(capsys.readouterr().out)
    assert np.isfinite([out["dE_H"], out["dE_C"], out["W"]]).all()


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


def test_noisy_sweeps_compile_the_engine_once(monkeypatch):
    calls = []

    def counting_compile(*args):
        calls.append(args)
        return compile_generic(*args)

    monkeypatch.setattr(sweep, "compile_generic", counting_compile)
    sweep.engine_circuit.cache_clear()
    cfg = SweepConfig(p1=0.001, p2=0.01, shots=0, n_h=3, n_c=3)
    try:
        first, second = write_json(run_sweep(cfg)), write_json(run_sweep(cfg))
    finally:
        sweep.engine_circuit.cache_clear()
    assert len(calls) == 1
    assert first == second


def test_sweep_is_deterministic():
    cfg = SweepConfig(shots=256, seed=4, n_h=4, n_c=4, eps01=0.02, eps10=0.02)
    a = write_csv(run_sweep(cfg))
    b = write_csv(run_sweep(cfg))
    assert a == b


def test_sampled_boundary_tolerance_widens_bands():
    cfg_exact = SweepConfig(shots=0, n_h=8, n_c=8)
    cfg_sampled = SweepConfig(shots=64, seed=2, n_h=8, n_c=8)
    exact_b = np.sum(run_sweep(cfg_exact).mode == "Boundary")
    sampled_b = np.sum(run_sweep(cfg_sampled).mode == "Boundary")
    assert sampled_b >= exact_b


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


def test_as_records_match_columns():
    res = _tiny_rows()
    d = as_records(res)[0]
    assert d["T_H"] == res.t_hot[0] and d["dE_C"] == res.de_cold[0]
    assert d["W"] == res.de_hot[0] + res.de_cold[0]


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
    assert sweep.V_CHOICES == ("identity", "vstar")
    with pytest.raises(ConfigError, match="unknown v 'hadamard'"):
        parse_config("v = hadamard")
    assert cli_main(["compile", "--v", "hadamard"]) == 1
    assert cli_main(["point", "--th", "150", "--tc", "100", "--v", "hadamard"]) == 1
    assert "invalid choice: 'hadamard' (choose from" in capsys.readouterr().err


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
    assert cli_main(point) == 0
    first = capsys.readouterr().out
    assert cli_main(["point", "--th", "300"]) == 1
    assert cli_main(["sweep", "tiny.conf"]) == 0
    capsys.readouterr()
    assert cli_main(point) == 0
    assert capsys.readouterr().out == first
    assert cli._build_parser.cache_info().misses == 1


def test_cli_selftest(capsys):
    assert cli_main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"ok   {label}" for label, _ in CRITERIA]


def test_cli_selftest_fails_loudly_under_python_O():
    # asserts compiled away, a wrong oracle answer must still fail with a
    # message, and the selftest must load nothing beyond the package and numpy
    script = textwrap.dedent("""
        import json, sys
        from qfridge import thermo
        thermo.ground_population_map = lambda x: 0.0
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
