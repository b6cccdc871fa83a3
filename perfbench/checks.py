"""Output checks that do not trust the code under test.

Everything here is re-derived from the physics and the file formats the
package documents: the closed-form energy ledger of the ideal V = identity
engine, the analytic region map, the two-level Gibbs inversion of the cold
qubit, the CSV/JSON/PPM layouts, and an interpreter for the emitted
OpenQASM 2.0 over {rz, x, sx, cx}.  Nothing is imported from qfridge.

Each check returns a list of error strings; an empty list means the output
passed.
"""
from __future__ import annotations

import json
import math

import numpy as np

#: h / k_B in mK per GHz, as documented for the package
H_OVER_KB = 47.9924
#: the package's documented device defaults (GHz)
F0, F1, F2 = 4.82, 4.76, 4.90
#: boundary tolerance of exact (shots = 0) runs, in h*GHz
BOUNDARY_EPS = 1e-4
#: CSV cells carry 9 significant digits, so a value is good to half a unit
#: in the 9th digit; 1e-8 relative covers that with margin
CSV_RTOL = 1e-8
#: JSON carries full float precision: values are good to a few ulps, and
#: p_g_final = 1 - q is off from the q behind T_C_final by one rounding
JSON_RTOL = 1e-15
JSON_PG_DELTA = 2.3e-16

CSV_HEADER = "T_H_mK,T_C_mK,dE_H,dE_C,W,mode,T_C_final_mK,p_g_final,purifier"
MODES = ("E", "R", "A", "H", "Boundary")
NON_FINITE_TAGS = ("inf", "inverted")
GRAY = (128, 128, 128)
RAMP_LOW = (0, 0, 255)
RAMP_HIGH = (255, 0, 0)


# ---------------------------------------------------------------------------
# closed forms for the ideal V = identity engine on the full8 preparation

def closed_form_ledger(th, tc):
    """(dE_H, dE_C) = (Omega/4 * f * g, -f1/4 * f * g) with
    f = tanh(x_h/2) - tanh(y_c/2) and g = 1 + tanh(u0/2) tanh(u2/2)."""
    th = np.asarray(th, dtype=float)
    tc = np.asarray(tc, dtype=float)
    omega = F0 + F2
    f = np.tanh(H_OVER_KB * omega / th / 2) - np.tanh(H_OVER_KB * F1 / tc / 2)
    g = 1.0 + np.tanh(H_OVER_KB * F0 / th / 2) * np.tanh(H_OVER_KB * F2 / th / 2)
    return omega / 4 * f * g, -F1 / 4 * f * g


def region_slopes():
    """Slopes m of the mode boundaries T_H = m T_C: equal temperatures and
    the engine/refrigerator line."""
    return 1.0, (F0 + F2) / F1


def analytic_mode(th, tc):
    """Mode from the analytic region map, ignoring boundaries."""
    if th < tc:
        return "A"
    if th > region_slopes()[1] * tc:
        return "E"
    return "R"


def purification_margin(th, tc, de_c):
    """Final ground population of the cold qubit minus the largest initial
    ground population of the three qubits.  The cold qubit's excited
    population moves by dE_C / f1 (its levels sit at -+f1/2)."""
    def ground(f, t):
        return 1.0 / (1.0 + math.exp(-H_OVER_KB * f / t))

    final_ground = ground(F1, tc) - de_c / F1
    return final_ground - max(ground(F0, th), ground(F1, tc), ground(F2, th))


def expected_exact_mode(th, tc, near_curve):
    """(mode, purifier) an exact full8 identity run must report, or None
    where the benchmark cannot decide: too close to a mode curve, to the
    boundary tolerance, or to equal purity.

    The purifier flag comes from the closed-form ledger, not from a line in
    the (T_H, T_C) plane: the cold qubit also ends purest below
    T_H = max(f0, f2) / f1 * T_C."""
    de_h, de_c = closed_form_ledger(th, tc)
    smallest = min(abs(de_h), abs(de_c), abs(de_h + de_c))
    if smallest < BOUNDARY_EPS * (1 - 1e-6):
        return "Boundary", False
    if smallest <= BOUNDARY_EPS * (1 + 1e-6) or near_curve:
        return None
    mode = analytic_mode(th, tc)
    if mode != "R":
        return mode, False
    margin = purification_margin(th, tc, float(de_c))
    if abs(margin) <= 1e-12:
        return None
    return "R", margin > 0


# ---------------------------------------------------------------------------
# final cold temperature from the final ground population

def _t_of_q(q):
    return H_OVER_KB * F1 / math.log((1 - q) / q)


def final_temperature_errors(t_final, p_g, delta, rtol):
    """Check a T_C_final entry (a number, "inf" or "inverted") against the
    Gibbs inversion of p_g_final, which is known to within +-delta."""
    q = 1.0 - p_g
    q_lo, q_hi = q - delta, q + delta
    if t_final == "inf":
        ok = abs(q - 0.5) < 1e-12 + delta
    elif t_final == "inverted":
        ok = q_hi > 0.5
    elif isinstance(t_final, str):
        ok = False
    elif t_final == 0.0:
        ok = q_lo <= 0.0
    elif q_lo >= 0.5 or q_hi <= 0.0:
        ok = False
    else:
        lo = 0.0 if q_lo <= 0.0 else _t_of_q(q_lo)
        hi = math.inf if q_hi >= 0.5 else _t_of_q(q_hi)
        ok = lo * (1 - rtol) <= t_final <= hi * (1 + rtol)
    if ok:
        return []
    return [f"T_C_final {t_final!r} does not invert p_g_final {p_g!r}"]


# ---------------------------------------------------------------------------
# sweep outputs

def parse_csv(text):
    """Columns of a sweep CSV: floats, mode strings, T_C_final entries (float
    or tag) and purifier booleans.  Raises ValueError on a malformed file."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("CSV header differs from the documented one")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 9 for r in rows):
        raise ValueError("CSV row without 9 fields")
    cols = list(zip(*rows)) if rows else [()] * 9
    num = {name: np.array(cols[i], dtype=float)
           for i, name in ((0, "T_H"), (1, "T_C"), (2, "dE_H"), (3, "dE_C"),
                           (4, "W"), (7, "p_g_final"))}
    for v in cols[8]:
        if v not in ("true", "false"):
            raise ValueError(f"purifier {v!r} is not true/false")
    num["mode"] = list(cols[5])
    num["T_C_final"] = [v if v in NON_FINITE_TAGS else float(v) for v in cols[6]]
    num["purifier"] = np.array([v == "true" for v in cols[8]])
    return num


def row_invariant_errors(rows, rtol, delta_of_pg):
    """W = dE_H + dE_C, T_C_final = Gibbs inversion of p_g_final, purifier
    only on R rows, and every mode a documented tag."""
    errors = []
    d_h, d_c, w = rows["dE_H"], rows["dE_C"], rows["W"]
    bad = np.abs(w - (d_h + d_c)) > rtol * (np.abs(d_h) + np.abs(d_c) + np.abs(w)) + 1e-300
    for i in np.flatnonzero(bad)[:3]:
        errors.append(f"row {i}: W {w[i]!r} != dE_H + dE_C {d_h[i] + d_c[i]!r}")
    for i, (mode, pur) in enumerate(zip(rows["mode"], rows["purifier"])):
        if mode not in MODES:
            errors.append(f"row {i}: unknown mode {mode!r}")
        elif pur and mode != "R":
            errors.append(f"row {i}: purifier on a {mode} row")
    for i, (t, pg) in enumerate(zip(rows["T_C_final"], rows["p_g_final"])):
        errs = final_temperature_errors(t, float(pg), delta_of_pg(float(pg)), rtol)
        errors += [f"row {i}: {e}" for e in errs]
    return errors


def csv_delta(p_g):
    return CSV_RTOL * abs(p_g)


def grid_errors(rows, bounds, n_h, n_c):
    """Row-major grid with T_H outer, on the documented linspace axes."""
    t_h_min, t_h_max, t_c_min, t_c_max = bounds
    if len(rows["T_H"]) != n_h * n_c:
        return [f"{len(rows['T_H'])} rows for a {n_h}x{n_c} grid"]
    th = np.repeat(np.linspace(t_h_min, t_h_max, n_h), n_c)
    tc = np.tile(np.linspace(t_c_min, t_c_max, n_c), n_h)
    if not (np.allclose(rows["T_H"], th, rtol=CSV_RTOL, atol=0)
            and np.allclose(rows["T_C"], tc, rtol=CSV_RTOL, atol=0)):
        return ["grid temperatures are not the configured axes"]
    return []


def exact_identity_errors(rows, bounds, n_h, n_c):
    """Closed-form ledger and region map for an exact full8 identity sweep.
    Cells near a region curve are skipped as in acceptance criterion 5."""
    t_h_min, t_h_max, t_c_min, t_c_max = bounds
    dth = (t_h_max - t_h_min) / (n_h - 1)
    dtc = (t_c_max - t_c_min) / (n_c - 1)
    # the configured axes, not the CSV's 9-digit copies, since the ledger
    # amplifies temperature rounding where it nearly cancels
    th = np.repeat(np.linspace(t_h_min, t_h_max, n_h), n_c)
    tc = np.tile(np.linspace(t_c_min, t_c_max, n_c), n_h)
    de_h, de_c = closed_form_ledger(th, tc)
    errors = []
    for name, want in (("dE_H", de_h), ("dE_C", de_c)):
        got = rows[name]
        bad = np.abs(got - want) > CSV_RTOL * np.abs(want) + 1e-12
        for i in np.flatnonzero(bad)[:3]:
            errors.append(f"row {i}: {name} {got[i]!r}, closed form {want[i]!r}")
    slopes = region_slopes()
    for i in range(len(th)):
        near = any(abs(th[i] - m * tc[i]) <= 2.0 * (dth + m * dtc) for m in slopes)
        want = expected_exact_mode(th[i], tc[i], near)
        if want is None:
            continue
        got = (rows["mode"][i], bool(rows["purifier"][i]))
        if got != want:
            errors.append(f"row {i} (T_H={th[i]}, T_C={tc[i]}): {got}, region map {want}")
            if len(errors) > 5:
                break
    return errors


def json_matches_csv_errors(text, rows):
    """The JSON output carries the CSV rows at full precision."""
    data = json.loads(text)
    if len(data) != len(rows["T_H"]):
        return [f"JSON has {len(data)} rows, CSV {len(rows['T_H'])}"]
    keys = ("T_H", "T_C", "dE_H", "dE_C", "W", "p_g_final")
    want_keys = set(keys) | {"mode", "T_C_final", "purifier"}
    errors = []
    for i, d in enumerate(data):
        if set(d) != want_keys:
            return [f"JSON row {i} has keys {sorted(d)}"]
        if d["mode"] != rows["mode"][i] or d["purifier"] != bool(rows["purifier"][i]):
            errors.append(f"JSON row {i}: mode/purifier differ from CSV")
        t_json, t_csv = d["T_C_final"], rows["T_C_final"][i]
        if isinstance(t_json, str) or isinstance(t_csv, str):
            if t_json != t_csv:
                errors.append(f"JSON row {i}: T_C_final {t_json!r} vs CSV {t_csv!r}")
        elif abs(t_json - t_csv) > CSV_RTOL * abs(t_json):
            errors.append(f"JSON row {i}: T_C_final {t_json!r} vs CSV {t_csv!r}")
        if len(errors) > 5:
            return errors
    for key in keys:
        got = np.array([d[key] for d in data], dtype=float)
        bad = np.abs(got - rows[key]) > CSV_RTOL * np.abs(got) + 1e-300
        for i in np.flatnonzero(bad)[:3]:
            errors.append(f"JSON row {i}: {key} {got[i]!r} vs CSV {rows[key][i]!r}")
    return errors


def t_c_final_heatmap_errors(ppm, range_text, rows, n_h, n_c):
    """Binary P6 pixmap of T_C_final: a blue-to-red ramp between the finite
    minimum and maximum, gray for non-finite entries; range side file."""
    header = f"P6\n{n_c} {n_h}\n255\n".encode()
    if not ppm.startswith(header) or len(ppm) != len(header) + 3 * n_h * n_c:
        return ["heatmap header or size is wrong"]
    finite = [t for t in rows["T_C_final"] if not isinstance(t, str)]
    if not finite:
        return ["no finite T_C_final to scale the heatmap"]
    lo, hi = min(finite), max(finite)
    lines = range_text.split("\n")
    try:
        got_lo = float(lines[0].removeprefix("min "))
        got_hi = float(lines[1].removeprefix("max "))
    except (IndexError, ValueError):
        return [f"range file {range_text!r} is malformed"]
    if abs(got_lo - lo) > CSV_RTOL * abs(lo) or abs(got_hi - hi) > CSV_RTOL * abs(hi):
        return [f"range file ({got_lo}, {got_hi}) vs CSV ({lo}, {hi})"]
    pix = np.frombuffer(ppm, dtype=np.uint8, offset=len(header)).reshape(-1, 3)
    span = hi - lo if hi > lo else 1.0
    want = np.empty((len(rows["T_C_final"]), 3))
    low, high = np.array(RAMP_LOW, float), np.array(RAMP_HIGH, float)
    for i, t in enumerate(rows["T_C_final"]):
        want[i] = GRAY if isinstance(t, str) else low + (t - lo) / span * (high - low)
    bad = np.flatnonzero(np.max(np.abs(pix - want), axis=1) > 1.0)
    return [f"pixel {i}: {tuple(pix[i])}, expected about {tuple(want[i])}" for i in bad[:3]]


# ---------------------------------------------------------------------------
# point queries

POINT_KEYS = {"T_H", "T_C", "dE_H", "dE_C", "W", "mode", "T_C_final", "p_g_final", "purifier"}


def point_errors(text, th, tc, exact_identity):
    """Checks for the JSON that `qfridge point` prints."""
    try:
        d = json.loads(text)
    except ValueError:
        return [f"point output is not JSON: {text[:80]!r}"]
    if not isinstance(d, dict) or set(d) != POINT_KEYS:
        return [f"point output has keys {sorted(d) if isinstance(d, dict) else d!r}"]
    if d["T_H"] != th or d["T_C"] != tc:
        return [f"point at ({d['T_H']}, {d['T_C']}), asked for ({th}, {tc})"]
    rows = {
        "dE_H": np.array([d["dE_H"]], float),
        "dE_C": np.array([d["dE_C"]], float),
        "W": np.array([d["W"]], float),
        "mode": [d["mode"]],
        "purifier": [d["purifier"]],
        "T_C_final": [d["T_C_final"]],
        "p_g_final": [d["p_g_final"]],
    }
    errors = row_invariant_errors(rows, JSON_RTOL, lambda pg: JSON_PG_DELTA)
    if exact_identity:
        de_h, de_c = closed_form_ledger(th, tc)
        if abs(d["dE_H"] - de_h) > 1e-11 or abs(d["dE_C"] - de_c) > 1e-11:
            errors.append(f"point ledger ({d['dE_H']}, {d['dE_C']}), closed form ({de_h}, {de_c})")
        near = any(abs(th - m * tc) <= 1e-6 * th for m in region_slopes())
        want = expected_exact_mode(th, tc, near)
        if want is not None and (d["mode"], d["purifier"]) != want:
            errors.append(f"point mode {(d['mode'], d['purifier'])}, region map {want}")
    return errors


# ---------------------------------------------------------------------------
# OpenQASM 2.0 interpreter over {rz, x, sx, cx} on three physical wires

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_QASM_HEAD = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];"]
#: cx is allowed on neighbouring wires of the line q0 - q1 - q2
LINE_PAIRS = {(0, 1), (1, 0), (1, 2), (2, 1)}


def _bit(state, wire):
    """Bit of physical wire `wire` (wire 0 most significant) in a basis state."""
    return (state >> (2 - wire)) & 1


def _one_wire(m, wire):
    out = np.eye(1, dtype=complex)
    for w in range(3):
        out = np.kron(out, m if w == wire else np.eye(2))
    return out


_FIXED = {("x", w): _one_wire(_X, w) for w in range(3)}
_FIXED.update({("sx", w): _one_wire(_SX, w) for w in range(3)})
_CX_PERM = {
    (c, t): np.array([s ^ (_bit(s, c) << (2 - t)) for s in range(8)])
    for c, t in LINE_PAIRS | {(0, 2), (2, 0)}
}


def _wire(token):
    if not (token.startswith("q[") and token.endswith("]")):
        raise ValueError(f"bad operand {token!r}")
    w = int(token[2:-1])
    if not 0 <= w < 3:
        raise ValueError(f"wire {w} outside the register")
    return w


def interpret_qasm(text):
    """(unitary in physical order (q0, q1, q2), cx count, depth, line-map
    violations).  Raises ValueError on anything outside the gate set."""
    lines = text.strip().split("\n")
    if lines[:3] != _QASM_HEAD:
        raise ValueError("QASM header differs from OPENQASM 2.0 on qreg q[3]")
    u = np.eye(8, dtype=complex)
    level = [0, 0, 0]
    cx_count = violations = 0
    for line in lines[3:]:
        if not line.endswith(";"):
            raise ValueError(f"statement without ';': {line!r}")
        head, _, args = line[:-1].partition(" ")
        wires = tuple(_wire(a) for a in args.split(","))
        if head.startswith("rz(") and head.endswith(")") and len(wires) == 1:
            theta = float(head[3:-1])
            phase = np.array([np.exp((0.5j if _bit(s, wires[0]) else -0.5j) * theta)
                              for s in range(8)])
            u = phase[:, None] * u
        elif head in ("x", "sx") and len(wires) == 1:
            u = _FIXED[head, wires[0]] @ u
        elif head == "cx" and len(wires) == 2 and wires[0] != wires[1]:
            u = u[_CX_PERM[wires]]
            cx_count += 1
            violations += wires not in LINE_PAIRS
        else:
            raise ValueError(f"unsupported statement {line!r}")
        d = 1 + max(level[w] for w in wires)
        for w in wires:
            level[w] = d
    return u, cx_count, max(level), violations


#: logical index 4i + 2j + k lives at physical index 4i + 2k + j, because
#: the hot bits i, j sit on wires q0, q2 and the cold bit k on wire q1
PHYS_OF_LOGICAL = np.array([4 * (m >> 2) + 2 * (m & 1) + ((m >> 1) & 1) for m in range(8)])


def to_logical(u_phys):
    return u_phys[np.ix_(PHYS_OF_LOGICAL, PHYS_OF_LOGICAL)]


def phase_distance(a, b):
    """max |a - e^{i phi} b| with phi fixed at b's largest entry."""
    k = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    phase = a[k] / b[k]
    phase = phase / abs(phase) if abs(phase) > 1e-12 else 1.0
    return float(np.max(np.abs(a - phase * b)))


#: distance bound of acceptance criterion 3
COMPILE_TOL = 1e-8


def compiled_errors(qasm, evaluated, target):
    """The emitted QASM (interpreted here) and the package's own evaluation
    both equal the logical-order target up to a global phase, and every cx
    sits on a coupled pair of the line."""
    try:
        u_phys, cx_count, depth, violations = interpret_qasm(qasm)
    except ValueError as err:
        return [f"QASM: {err}"], None
    errors = []
    d = phase_distance(to_logical(u_phys), target)
    if not d < COMPILE_TOL:
        errors.append(f"QASM realizes the target only to {d:.3g}")
    d = phase_distance(np.asarray(evaluated), target)
    if not d < COMPILE_TOL:
        errors.append(f"evaluated unitary matches the target only to {d:.3g}")
    if violations:
        errors.append(f"{violations} cx gates off the line coupling map")
    return errors, (cx_count, depth)


def haar_unitary(dim, rng):
    """Haar-random unitary: QR of a complex Ginibre matrix with the phases of
    R's diagonal moved into Q (Mezzadri, Notices AMS 54 (2007))."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def identity_cooling_gate():
    """Target of the V = identity cooling gate in logical order: swap
    |00,1> (index 1) with |11,0> (index 6), identity elsewhere."""
    u = np.eye(8, dtype=complex)
    u[[1, 6]] = u[[6, 1]]
    return u
