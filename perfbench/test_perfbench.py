"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They show that the output checks catch corrupted outputs, that the tracer
reaches names bound by ``from ... import``, and that the printed metric
names match BENCHMARK.json.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

import qfridge  # noqa: E402
from qfridge import sweep  # noqa: E402

BOUNDS = (40.0, 900.0, 30.0, 800.0)
N = 16


@pytest.fixture(scope="module")
def exact_csv():
    cfg = sweep.SweepConfig(shots=0, n_h=N, n_c=N, t_h_min=BOUNDS[0], t_h_max=BOUNDS[1],
                            t_c_min=BOUNDS[2], t_c_max=BOUNDS[3])
    return sweep.write_csv(sweep.run_sweep(cfg))


def _csv_errors(text):
    rows = checks.parse_csv(text)
    return (checks.grid_errors(rows, BOUNDS, N, N)
            + checks.row_invariant_errors(rows, checks.CSV_RTOL, checks.csv_delta)
            + checks.exact_identity_errors(rows, BOUNDS, N, N))


def _replace_field(text, row, field, value):
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[field] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def test_csv_checks_pass_on_real_output(exact_csv):
    assert _csv_errors(exact_csv) == []


@pytest.mark.parametrize("field, change", [
    (2, lambda v: f"{float(v) * (1 + 1e-6):.9g}"),   # dE_H off the closed form
    (4, lambda v: f"{float(v) + 1e-3:.9g}"),          # W != dE_H + dE_C
    (6, lambda v: "inverted"),                        # T_C_final vs p_g_final
    (8, lambda v: "true"),                            # purifier on a non-R row
])
def test_csv_checks_catch_a_corrupted_row(exact_csv, field, change):
    rows = checks.parse_csv(exact_csv)
    row = rows["mode"].index("A")
    value = exact_csv.split("\n")[row + 1].split(",")[field]
    assert _csv_errors(_replace_field(exact_csv, row, field, change(value)))


def test_mode_check_catches_a_swapped_mode(exact_csv):
    row = (N - 1) * N  # T_H = 900 mK, T_C = 30 mK: deep in the engine region
    assert checks.parse_csv(exact_csv)["mode"][row] == "E"
    assert _csv_errors(_replace_field(exact_csv, row, 5, "R"))


@pytest.fixture(scope="module")
def compiled_cooling_gate():
    target = checks.identity_cooling_gate()
    circuit, _ = qfridge.compile_generic(target, qfridge.LINE3)
    return target, qfridge.unitary_of_circuit(circuit), qfridge.emit_qasm(circuit)


def test_qasm_check_passes_on_real_output(compiled_cooling_gate):
    target, evaluated, qasm = compiled_cooling_gate
    errors, (cx, depth) = checks.compiled_errors(qasm, evaluated, target)
    assert errors == []
    assert cx == qasm.count("\ncx ")
    assert 0 < depth <= len(qasm.splitlines()) - 3


def _perturb_first(qasm, prefix, edit):
    lines = qasm.split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = edit(lines[i])
    return "\n".join(lines)


def _shift_rz(line):
    angle = float(line[3:line.index(")")])
    return f"rz({angle + 1e-3!r}){line[line.index(')') + 1:]}"


@pytest.mark.parametrize("prefix, edit", [
    ("rz(", _shift_rz),
    ("sx ", lambda line: line.replace("sx", "x")),
    ("cx ", lambda line: "cx " + ",".join(reversed(line[3:-1].split(","))) + ";"),
])
def test_qasm_check_catches_a_perturbed_circuit(compiled_cooling_gate, prefix, edit):
    target, evaluated, qasm = compiled_cooling_gate
    errors, _ = checks.compiled_errors(_perturb_first(qasm, prefix, edit), evaluated, target)
    assert any(e.startswith("QASM realizes") for e in errors)


def test_qasm_check_catches_cx_off_the_line(compiled_cooling_gate):
    target, evaluated, qasm = compiled_cooling_gate
    # cx(0,2) twice is the identity but uses an uncoupled pair
    bad = qasm + "cx q[0],q[2];\ncx q[0],q[2];\n"
    errors, _ = checks.compiled_errors(bad, evaluated, target)
    assert errors == ["2 cx gates off the line coupling map"]


def test_qasm_check_uses_logical_order(compiled_cooling_gate):
    target, evaluated, qasm = compiled_cooling_gate
    u_phys, *_ = checks.interpret_qasm(qasm)
    assert checks.phase_distance(checks.to_logical(u_phys), target) < 1e-8
    assert checks.phase_distance(u_phys, target) > 0.5


def test_point_check_catches_a_bad_ledger():
    out = json.loads(_point_json(["--th", "500", "--tc", "300", "--shots", "0"]))
    assert checks.point_errors(json.dumps(out), 500.0, 300.0, True) == []
    out["dE_C"] *= 1 + 1e-9
    out["W"] = out["dE_H"] + out["dE_C"]
    assert checks.point_errors(json.dumps(out), 500.0, 300.0, True)


def _point_json(argv):
    import workloads

    rc, out, _ = workloads.call_cli(["point", *argv])
    assert rc == 0
    return out


def test_haar_sampler_is_unitary_and_seeded():
    a = checks.haar_unitary(8, np.random.default_rng([3, 0]))
    b = checks.haar_unitary(8, np.random.default_rng([3, 0]))
    assert np.allclose(a.conj().T @ a, np.eye(8), atol=1e-12)
    assert np.array_equal(a, b)


def test_tracer_sees_names_bound_by_from_import(monkeypatch):
    cfg = sweep.SweepConfig(shots=0, n_h=3, n_c=4)
    original = sweep.prepare
    tracer = Tracer()
    monkeypatch.delattr(qfridge.thermo, "is_purifier")
    tracer.install()
    try:
        sweep.run_sweep(cfg)
    finally:
        tracer.uninstall()
    assert sweep.prepare is original
    assert tracer.calls["thermo.prepare"] == 12
    assert tracer.calls["sweep.evaluate_point"] == 12
    assert tracer.calls["sweep.run_sweep"] == 1
    assert tracer.absent == ["thermo.is_purifier"]
    assert tracer.self_s["sweep.run_sweep"] < sum(tracer.self_s.values())


class _Burn:
    """A stand-in workload whose operation is `units` reference units."""

    ref_units = 2

    def prepare(self, units, index):
        return units

    def execute(self, units):
        for _ in range(units):
            worker.reference_unit()

    def save(self, out, index):
        pass


def test_reference_speed_time_follows_the_work():
    records = []
    worker.run_block(_Burn(), [4, 8] * 6, 0, records)
    small = np.median([r.ref_ms for r in records if r.pos % 2 == 0])
    large = np.median([r.ref_ms for r in records if r.pos % 2 == 1])
    assert 1.6 < large / small < 2.4
    assert 0.5 * 4 * worker.REF_UNIT_MS < small < 2 * 4 * worker.REF_UNIT_MS


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_printed_metrics_match_benchmark_json(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    want = spec["per_layer" if trace else "end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in want
    }
    for m in want:
        assert any(line.startswith(f"# metric {m['name']} = ") for line in lines)
    if workload == "point_queries" and not trace:
        for engine in ("exact", "vstar", "mitigated"):
            assert any(line.startswith(f"# metric call_wall_ms.p50.{engine} = ")
                       for line in lines)
    assert result["attempted"] >= 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
