"""The columnar sweep kernel, thermo's array rules and the sweep writers
against references, and against golden outputs.

The ``_reference_*`` helpers are thermo's per-point scalar bodies as they
stood before the kernel and thermo came to share one set of array rules (the
scalar API was later deleted); they keep the checks independent of the code
under test.  ``_reference_write_csv`` and ``_reference_write_json`` are the
row-by-row writers that the column writers replaced, over
``_reference_records``, the dict-per-point renderer that ``qfridge point``
printed through before ``sweep.write_record`` replaced it.

The golden files in tests/data were written from the configs next to them:
``python -m qfridge.cli sweep tests/data/<name>.conf``, then ``gzip -n -9``
on the CSV and JSON.  ``exact64`` comes from the per-point sweep that the
kernel replaced; it never compiles, so no compiler change moves it.
``noisy16`` applies gate noise per gate of the V = identity engine
circuit.  While that circuit was compiled, the file was rewritten when the
Quantum Shannon Decomposition replaced the two-level Givens compiler (the
commit after 97d3e6c; 220 gates, 72 cx, where the old circuit had 374 and
184), and again when 4-cx bridges replaced 7-cx SWAP chains in the router
(the commit after 70e13bd; 202 gates, 54 cx).  It was rewritten once more
when the fixed 23-gate, 7-cx circuit of ``build_identity_circuit``
replaced the compile (the commit after 96b4bf4); it no longer moves with
the basis LAPACK's ``eigh`` picks.  ``sampled64`` was rewritten when the seed
came to seed two independent streams (``SeedSequence(seed).spawn(2)``)
instead of one generator per column seeded ``seed + i``.  To rewrite
``<name>``, with REPO the checkout's root::

    cd "$(mktemp -d)"
    PYTHONPATH=$REPO/src python -m qfridge.cli sweep $REPO/tests/data/<name>.conf
    gzip -n -9 <name>.csv <name>.json && cp <name>.* $REPO/tests/data/
"""
import functools
import gzip
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfridge import sweep
from qfridge.cli import cli_main
from qfridge.qcore import DIM, basis_index, basis_label
from qfridge.sweep import (
    CSV_HEADER,
    SweepConfig,
    SweepResult,
    evaluate_grid,
    sweep_transition_matrix,
    write_csv,
    write_json,
)
from qfridge.thermo import (
    BOUNDARY_EPS,
    H_OVER_KB,
    HOT_ENERGY_MODES,
    SCHEMES,
    DeviceSpec,
    TransitionMatrix,
    cold_energies,
    ground_populations,
    hot_energies,
    mode_tags,
    preparation_grid,
)

DATA = Path(__file__).parent / "data"

ENGINES = {
    "exact": dict(shots=0),
    "noisy_compiled": dict(p1=0.001, p2=0.01, shots=0),
    "sampled": dict(shots=8192, seed=5, eps01=0.02, eps10=0.03),
}


#: the engines a point is run through: ENGINES and a sampled, mitigated one
POINT_ENGINES = {**ENGINES, "mitigated": dict(shots=8192, seed=7, eps01=0.02, eps10=0.05, mitigation=True)}


@functools.cache
def _engine_tm(engine):
    return sweep_transition_matrix(SweepConfig(**POINT_ENGINES[engine]))


def _reference_gibbs(energies, u):
    """softmax of -u*E along the last axis, stable for very low temperatures."""
    z = -u * energies
    z -= z.max(axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)


def _reference_prepare(scheme, spec, t_hot, t_cold):
    """Preparation probabilities from per-state loops (swap4: joint Gibbs
    weights on the i = j states; full8: product of single-qubit Gibbs states)."""
    probs = np.zeros(DIM)
    if scheme == "swap4":
        u_h, u_c = H_OVER_KB * 1.0 / t_hot, H_OVER_KB * 1.0 / t_cold
        states = [(i, k) for i in (0, 1) for k in (0, 1)]
        e = np.array([(0.5 if i else -0.5) * spec.omega_sum * u_h
                      + (0.5 if k else -0.5) * spec.f1 * u_c for i, k in states])
        for (i, k), wk in zip(states, _reference_gibbs(e, 1.0)):
            probs[basis_index(i, i, k)] = wk
        return probs
    singles = [_reference_gibbs(np.array([-0.5, 0.5]), H_OVER_KB * f / t)
               for f, t in ((spec.f0, t_hot), (spec.f2, t_hot), (spec.f1, t_cold))]
    for m in range(DIM):
        i, j, k = basis_label(m)
        probs[m] = singles[0][i] * singles[1][j] * singles[2][k]
    return probs


def _reference_marginals(probs):
    """(q0, q1, q2) ground populations, summed over the basis labels."""
    labels = [basis_label(m) for m in range(DIM)]
    g0 = sum(probs[m] for m, (i, _, _) in enumerate(labels) if i == 0)
    g1 = sum(probs[m] for m, (_, _, k) in enumerate(labels) if k == 0)
    g2 = sum(probs[m] for m, (_, j, _) in enumerate(labels) if j == 0)
    return float(g0), float(g1), float(g2)


def _reference_excited(tm, probs):
    after = tm.p @ probs
    return float(sum(after[m] for m in range(DIM) if basis_label(m)[2]))


def _reference_mode(de_h, de_c, eps):
    """mode_tags' precedence as an if-chain."""
    w = de_h + de_c
    if min(abs(de_h), abs(de_c), abs(w)) < eps:
        return "Boundary"
    if de_c < 0:
        return "R"
    if w < 0:
        return "E"
    if de_h < 0:
        return "A"
    return "H"


def _reference_final_temperature(q, f1):
    """(kind, mK or None) from the cold excited population q."""
    if abs(q - 0.5) < 1e-12:
        return "infinite", None
    if q > 0.5:
        return "inverted", None
    if q <= 0.0:
        return "finite", 0.0
    return "finite", H_OVER_KB * f1 / np.log((1 - q) / q)


def _reference_purifier(probs, q, t_hot, t_cold):
    if t_hot < t_cold:
        return False
    g0, g1, g2 = _reference_marginals(probs)
    if min(g0, g1, g2) < 0.5:
        return False
    return 1.0 - q > max(g0, g1, g2)


def _reference_eps(tm, probs, e_h, e_c, shots):
    """Boundary tolerance: 3 standard errors of the sampled energy changes."""
    if shots <= 0:
        return BOUNDARY_EPS
    worst = 0.0
    for e in (e_h, e_c, e_h + e_c):
        mean = e @ tm.p
        var_cols = (e ** 2) @ tm.p - mean ** 2
        var = float(np.sum(probs ** 2 * var_cols)) / shots
        worst = max(worst, 3.0 * math.sqrt(max(var, 0.0)))
    return max(worst, BOUNDARY_EPS)


def _reference_point(cfg, tm, t_hot, t_cold):
    """One grid point through the reference helpers."""
    spec = cfg.device()
    probs = _reference_prepare(cfg.scheme, spec, t_hot, t_cold)
    delta = tm.p @ probs - probs
    e_h, e_c = hot_energies(spec, cfg.hot_energy_mode), cold_energies(spec)
    de_hot, de_cold = float(e_h @ delta), float(e_c @ delta)
    eps = _reference_eps(tm, probs, e_h, e_c, cfg.shots)
    ordered = (de_cold, de_hot) if t_hot < t_cold else (de_hot, de_cold)
    mode = _reference_mode(*ordered, eps)
    q = _reference_excited(tm, probs)
    kind, t_final = _reference_final_temperature(q, spec.f1)
    return dict(
        de_hot=de_hot,
        de_cold=de_cold,
        work=de_hot + de_cold,
        mode=mode,
        kind=kind,
        t_final=t_final,
        p_g_final=1.0 - q,
        purifier=cfg.scheme == "full8" and mode == "R"
        and _reference_purifier(probs, q, t_hot, t_cold),
    )


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


temperatures = st.lists(st.floats(1.0, 5000.0), min_size=1, max_size=4)


def _paired_preparations(scheme, spec, t_hot, t_cold):
    """The (N, 8) preparations of the paired columns (t_hot[n], t_cold[n]),
    as the kernel computed them before it took the two axes."""
    if scheme == "swap4":
        u_h, u_c = H_OVER_KB / t_hot, H_OVER_KB / t_cold
        e = (np.array([-0.5, -0.5, 0.5, 0.5]) * spec.omega_sum * u_h[:, None]
             + np.array([-0.5, 0.5, -0.5, 0.5]) * spec.f1 * u_c[:, None])
        probs = np.zeros((t_hot.size, DIM))
        probs[:, [0, 1, 6, 7]] = _reference_gibbs(e, 1.0)
        return probs
    u = H_OVER_KB * np.array([[spec.f0], [spec.f2], [spec.f1]]) / [t_hot, t_hot, t_cold]
    s0, s2, s1 = _reference_gibbs(np.array([-0.5, 0.5]), u[..., None])
    return (s0[:, :, None, None] * s2[:, None, :, None] * s1[:, None, None, :]).reshape(-1, 8)


axis_temperatures = st.lists(
    st.one_of(st.floats(1e-3, 1e9), st.just(math.inf)), min_size=1, max_size=8
)


@settings(max_examples=200, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    freqs=st.tuples(*[st.floats(0.1, 20.0)] * 3),
    t_h_axis=axis_temperatures,
    t_c_axis=axis_temperatures,
)
def test_preparation_grid_equals_the_paired_columns_bit_for_bit(scheme, freqs, t_h_axis, t_c_axis):
    spec = DeviceSpec(*freqs)
    t_hot = np.repeat(t_h_axis, len(t_c_axis))
    t_cold = np.tile(t_c_axis, len(t_h_axis))
    want = _paired_preparations(scheme, spec, t_hot, t_cold)
    assert np.array_equal(preparation_grid(scheme, spec, t_h_axis, t_c_axis), want)


#: hand-built matrices: no dynamics, and a flip of the cold bit
MATRICES = {
    "identity": TransitionMatrix(np.eye(8)),
    "flip": TransitionMatrix(np.eye(8)[[m ^ 1 for m in range(8)]]),
}


@settings(max_examples=300, deadline=None)
@given(
    engine=st.sampled_from(sorted(ENGINES) + sorted(MATRICES)),
    scheme=st.sampled_from(SCHEMES),
    hot_energy_mode=st.sampled_from(HOT_ENERGY_MODES),
    freqs=st.one_of(st.none(), st.tuples(*[st.floats(1.0, 10.0)] * 3)),
    t_h_axis=temperatures,
    t_c_axis=st.lists(st.one_of(st.none(), st.floats(1.0, 5000.0), st.floats(1e10, 1e23)),
                      min_size=1, max_size=4),
)
def test_kernel_matches_the_reference_chain(
    engine, scheme, hot_energy_mode, freqs, t_h_axis, t_c_axis
):
    # None on the T_C axis repeats a T_H value, so the grid holds T_C = T_H points
    t_c_axis = [t_h_axis[i % len(t_h_axis)] if tc is None else tc for i, tc in enumerate(t_c_axis)]
    device = {} if freqs is None else dict(zip(("f0", "f1", "f2"), freqs))
    cfg = SweepConfig(scheme=scheme, hot_energy_mode=hot_energy_mode, **device,
                      **ENGINES.get(engine, dict(shots=0)))
    tm = MATRICES[engine] if engine in MATRICES else _engine_tm(engine)
    res = evaluate_grid(cfg, tm, t_h_axis, t_c_axis)
    probs = preparation_grid(scheme, cfg.device(), t_h_axis, t_c_axis)
    assert (res.n_h, res.n_c) == (len(t_h_axis), len(t_c_axis))
    pairs = [(th, tc) for th in t_h_axis for tc in t_c_axis]
    for n, (th, tc) in enumerate(pairs):
        ref_probs = _reference_prepare(scheme, cfg.device(), th, tc)
        assert probs[n].tobytes() == ref_probs.tobytes()
        assert tuple(ground_populations(probs[n]).tolist()) == _reference_marginals(ref_probs)
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
    if engine in ENGINES and cfg.shots == 0 and freqs is None:
        # no cooling together with work extraction on the default device
        assert not np.any((res.de_cold < 0) & (res.work < 0))


@settings(max_examples=100, deadline=None)
@given(engine=st.sampled_from(sorted(POINT_ENGINES)), scheme=st.sampled_from(SCHEMES),
       t_h_axis=axis_temperatures, t_c_axis=axis_temperatures)
def test_a_point_is_its_grid_row_bit_for_bit(engine, scheme, t_h_axis, t_c_axis):
    # a 1x1 grid runs the rules on one-element arrays, the grid on stacks:
    # both must give each point the same bits, and the same record text
    cfg = SweepConfig(scheme=scheme, **POINT_ENGINES[engine])
    tm = _engine_tm(engine)
    grid = evaluate_grid(cfg, tm, t_h_axis, t_c_axis)
    records = []
    for n, (i, j) in enumerate(np.ndindex(grid.n_h, grid.n_c)):
        point = evaluate_grid(cfg, tm, [t_h_axis[i]], [t_c_axis[j]])
        for name, rows in zip(sweep._RESULT_FIELDS, (slice(i, i + 1), slice(j, j + 1))):
            assert getattr(point, name).tobytes() == getattr(grid, name)[rows].tobytes(), name
        for name in sweep._RESULT_FIELDS[2:]:
            got, want = getattr(point, name), getattr(grid, name)[n:n + 1]
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), (name, i, j)
        records.append("  " + sweep.write_record(point).replace("\n", "\n  "))
    assert write_json(grid) == "[\n" + ",\n".join(records) + "\n]\n"


@settings(max_examples=300, deadline=None)
@given(de_hot=st.floats(-10.0, 10.0), de_cold=st.floats(-10.0, 10.0), eps=st.floats(1e-8, 1e-1))
def test_mode_tags_match_the_reference_precedence(de_hot, de_cold, eps):
    # the drawn ledger, one with dE_H exactly zero and one with W exactly zero
    de_h, de_c = [de_hot, 0.0, de_hot], [de_cold, de_cold, -de_hot]
    for e in (BOUNDARY_EPS, eps):
        want = [_reference_mode(h, c, e) for h, c in zip(de_h, de_c)]
        assert mode_tags(np.array(de_h), np.array(de_c), e).tolist() == want


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


_EXACT64 = json.loads(gzip.decompress((DATA / "exact64.json.gz").read_bytes()))
# the first point of each mode, every 511th point and the last
_EXACT64_POINTS = sorted({
    *(next(n for n, r in enumerate(_EXACT64) if r["mode"] == mode) for mode in ("R", "A", "E", "Boundary")),
    *range(0, len(_EXACT64), 511),
    len(_EXACT64) - 1,
})


@pytest.mark.parametrize("n", _EXACT64_POINTS)
def test_point_prints_the_golden_records_of_exact64(n, capsys):
    # exact64 is the default grid at shots = 0: a point at its axis values,
    # each given as the repr of its float, prints that point's record
    r = _EXACT64[n]
    assert cli_main(["point", "--th", repr(r["T_H"]), "--tc", repr(r["T_C"]), "--shots", "0"]) == 0
    assert capsys.readouterr().out == json.dumps(r, indent=2) + "\n"


def _reference_records(res):
    """One dict per grid point with Python values, as sweep.as_records built
    them: T_C_final may be "inf"/"inverted", and a non-finite float is its
    CSV text ("nan", "inf", "-inf")."""
    def numbers(col):
        return [v if math.isfinite(v) else "%.9g" % v for v in col.tolist()]

    t_final = numbers(res.t_cold_final)
    for n in np.flatnonzero(res.t_cold_final_kind != "finite").tolist():
        t_final[n] = {"infinite": "inf", "inverted": "inverted"}[res.t_cold_final_kind[n]]
    columns = [
        *map(numbers, (res.t_hot, res.t_cold, res.de_hot, res.de_cold, res.work)),
        res.mode.tolist(), t_final, numbers(res.p_g_final), res.purifier.tolist(),
    ]
    keys = ("T_H", "T_C", "dE_H", "dE_C", "W", "mode", "T_C_final", "p_g_final", "purifier")
    return [dict(zip(keys, row)) for row in zip(*columns)]


def _reference_write_csv(res):
    def g9(v):  # a record holds a non-finite float, or a T_C_final tag, as its text
        return v if isinstance(v, str) else f"{v:.9g}"

    lines = [
        f"{g9(th)},{g9(tc)},{g9(dh)},{g9(dc)},{g9(w)},{mode},"
        f"{g9(t)},{g9(pg)},{'true' if pur else 'false'}"
        for th, tc, dh, dc, w, mode, t, pg, pur in (r.values() for r in _reference_records(res))
    ]
    return "\n".join([CSV_HEADER, *lines]) + "\n"


def _reference_write_json(res):
    # allow_nan=False: strict JSON, no NaN or Infinity constants
    return json.dumps(_reference_records(res), indent=2, allow_nan=False) + "\n"


@st.composite
def sweep_results(draw, n_h=st.integers(0, 6), n_c=st.integers(1, 6)):
    """Hand-built results of n_h x n_c points: any float (NaN, +-inf, -0.0,
    subnormal, huge) on both axes and in every float column, every mode tag
    (and any other text, which json must escape) and every final-temperature kind."""
    n_h, n_c = draw(n_h), draw(n_c)

    def column(elements, size=n_h * n_c):
        return draw(st.lists(elements, min_size=size, max_size=size))

    return SweepResult(
        t_h_axis=column(st.floats(), n_h), t_c_axis=column(st.floats(), n_c),
        de_hot=column(st.floats()), de_cold=column(st.floats()),
        mode=column(st.one_of(st.sampled_from(["E", "R", "A", "H", "Boundary"]), st.text(max_size=4))),
        t_cold_final=column(st.floats()),
        t_cold_final_kind=column(st.sampled_from(["finite", "infinite", "inverted"])),
        p_g_final=column(st.floats()),
        purifier=column(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(res=sweep_results(), block_points=st.integers(1, 7))
def test_writers_match_the_row_by_row_references_byte_for_byte(res, block_points):
    # at the real block size every drawn grid is one block; at 1-7 points
    # blocks split T_H rows and the last one is ragged
    with np.errstate(over="ignore", invalid="ignore"):  # W of huge or infinite energies
        want_csv, want_json = _reference_write_csv(res), _reference_write_json(res)
        assert write_csv(res) == want_csv
        assert write_json(res) == want_json
        with mock.patch.object(sweep, "_BLOCK_POINTS", block_points):
            assert write_csv(res) == want_csv
            assert write_json(res) == want_json
