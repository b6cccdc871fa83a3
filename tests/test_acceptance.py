"""Acceptance gate: one test per release criterion, one printed line each.

The criteria live in `qfridge.oracles`, which `qfridge selftest` runs too.
Every test prints a single PASS/FAIL line through capsys.disabled() so the
verdicts are visible in a normal captured pytest run; criteria 3 and 10 also
print their detail line.
"""
from contextlib import contextmanager

from qfridge.oracles import CRITERIA


@contextmanager
def criterion(capsys, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")


def _run(capsys, n):
    label, check = CRITERIA[n - 1]
    with criterion(capsys, f"criterion {n}/{len(CRITERIA)}: {label}"):
        detail = check()
        if detail is not None:
            with capsys.disabled():
                print(f"\n       {detail}")


def test_criterion_01_gate_map_oracle(capsys):
    _run(capsys, 1)


def test_criterion_02_four_cnot_circuit(capsys):
    _run(capsys, 2)


def test_criterion_03_compiler_roundtrip(capsys):
    _run(capsys, 3)


def test_criterion_04_analytics_match_simulation(capsys):
    _run(capsys, 4)


def test_criterion_05_mode_map_vs_analytic_regions(capsys):
    _run(capsys, 5)


def test_criterion_06_purification_cubic(capsys):
    _run(capsys, 6)


def test_criterion_07_final_temperature(capsys):
    _run(capsys, 7)


def test_criterion_08_readout_mitigation(capsys):
    _run(capsys, 8)


def test_criterion_09_second_law(capsys):
    _run(capsys, 9)


def test_criterion_10_noise_threshold(capsys):
    _run(capsys, 10)


def test_criterion_11_renyi_data_processing(capsys):
    _run(capsys, 11)
