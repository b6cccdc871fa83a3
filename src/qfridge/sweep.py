"""Grid sweeps over preparation temperatures and their file outputs.

A sweep evaluates the engine once (the transition matrix does not depend on
the preparation temperatures), then reweights it over the whole (T_H, T_C)
grid with thermo's per-point array rules; only the energy ledger and the
sampling boundary tolerance are computed here.  ``engine(v)`` is the one
value per V, built once and shared read-only: its fixed circuit, the exact
target unitary's matrix read out without error, and the circuit's exact
polynomial in (1 - p1, 1 - p2), built at the first noisy use.  Its
readout-free outcome channel depends on (p1, p2) alone: without gate noise
the exact matrix's, else the polynomial at (p1, p2), one weighted sum, so
no run evolves the engine and no cache is keyed on a float.  An exact run
without gate noise, readout error or mitigation is the exact matrix itself;
every other run reads out, samples and mitigates the channel at one call,
building only the seed streams it draws from.
``evaluate_grid`` is the one way to evaluate points: ``qfridge point`` and
the oracles run it on a 1x1 or small grid, and a point has the bits of its
row in any grid.  The SweepResult holds the two
axes and one array per other column.  Outputs are plain CSV / JSON / binary
PPM so any external plotter can reproduce the phase diagrams.  The CSV and
JSON files come from one pass over the columns in blocks of a fixed number
of grid points: each block's columns are read once for every text being
written, and T_H and T_C are formatted once per axis value, so
``write_outputs`` streams the two files together in memory that does not
grow with the grid.  The record of ``qfridge point`` is the JSON record text
of its one-point block.  Every block of each text is one join of its
record's literal pieces with the values' texts: a float as ``%.9g`` in CSV
and as json's repr in JSON; NaN, the infinities and a T_C_final kind that
is not finite as their CSV text, a JSON string in JSON.
"""
from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .circuits import V_CHOICES, Circuit, build_identity_circuit, build_target_unitary, build_vstar_circuit
from .noise import NoiseModel, calibrate, channel_polynomial, evaluate_channel, readout_matrix
from . import qcore, thermo
from .thermo import BOUNDARY_EPS, DeviceSpec, cold_energies, hot_energies


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


#: the allowed values of each config key that names one of a fixed set
CHOICES = {
    "scheme": thermo.SCHEMES,
    "v": V_CHOICES,
    "hot_energy_mode": thermo.HOT_ENERGY_MODES,
    "heatmap_field": ("mode", "t_c_final", "p_g_final"),
}


@dataclass(frozen=True)
class SweepConfig:
    """A run's settings, checked when built; each key's type is its default's.
    Each default is checked once, at import, so a build checks each value
    that is not its field's default object, then the grid bounds."""

    f0: float = 4.82
    f1: float = 4.76
    f2: float = 4.90
    scheme: str = "full8"
    v: str = "identity"
    p1: float = 0.0
    p2: float = 0.0
    eps01: float = 0.0
    eps10: float = 0.0
    mitigation: bool = False
    shots: int = 8192
    seed: int = 0
    t_h_min: float = 20.0
    t_h_max: float = 1000.0
    t_c_min: float = 20.0
    t_c_max: float = 1000.0
    n_h: int = 64
    n_c: int = 64
    hot_energy_mode: str = "detuned"
    outputs: tuple[str, ...] = ("csv",)
    heatmap_field: str = "mode"
    output_prefix: str = "sweep"

    def __post_init__(self):
        for key, value in vars(self).items():  # in field order, as __init__ set them
            if value is not _DEFAULTS[key]:
                check_key(key, value)
        check_grid_bounds(vars(self))

    def device(self) -> DeviceSpec:
        return DeviceSpec(self.f0, self.f1, self.f2)

    def noise(self) -> NoiseModel:
        return NoiseModel(self.p1, self.p2, self.eps01, self.eps10)


#: what a key of each default type takes, numpy scalars too; a bool is no number
_TYPES = {float: (int, float, np.integer, np.floating), int: (int, np.integer),
          bool: (bool, np.bool_), str: str, tuple: tuple}


def check_key(key: str, value) -> None:
    """Raise ConfigError if `value` breaks the rule of config key `key` on its own."""
    kind = type(getattr(SweepConfig, key))
    if not isinstance(value, _TYPES[kind]) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{key} = {value!r} must be of type {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key} = {value} must be finite")
    if key in ("f0", "f1", "f2") and value <= 0:
        raise ConfigError("frequencies must be positive")
    if key in CHOICES and value not in CHOICES[key]:
        raise ConfigError(f"unknown {key} {value!r}")
    if key in ("p1", "p2", "eps01", "eps10") and not 0.0 <= value <= 1.0:
        raise ConfigError(f"{key} = {value} outside [0, 1]")
    if key == "shots" and value < 0:
        raise ConfigError("shots must be >= 0 (0 = exact)")
    if key == "seed" and value < 0:
        raise ConfigError(f"seed = {value} must be >= 0")
    if key in ("t_h_min", "t_c_min") and value <= 0:
        raise ConfigError("grid temperatures must be positive")
    if key in ("n_h", "n_c") and value < 2:
        raise ConfigError("grid needs at least 2 points per axis")
    if key == "outputs":
        for out in value:
            if out not in ("csv", "json", "heatmap"):
                raise ConfigError(f"unknown output {out!r}")


#: each config key's default object, checked here once
_DEFAULTS = {f.name: f.default for f in fields(SweepConfig)}
for _key, _value in _DEFAULTS.items():
    check_key(_key, _value)


def check_grid_bounds(values, lines: dict[str, int] | None = None) -> None:
    """max > min on both axes of config `values`; an error cites the later line of its pair."""
    for lo, hi in (("t_h_min", "t_h_max"), ("t_c_min", "t_c_max")):
        if values[hi] <= values[lo]:
            line = max((lines or {}).get(k, 0) for k in (lo, hi)) or None
            raise ConfigError("grid bounds need max > min", line)


def parse_config(text: str) -> SweepConfig:
    """Parse a flat `key = value` document with # comments into a config.

    Each key's own rule is checked on its line, the grid bounds at the end;
    a key given twice is an error on its second line.
    """
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed line {raw.strip()!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        kind = type(_DEFAULTS.get(key))  # NoneType for an unknown key
        try:
            if key in lines:
                raise ConfigError(f"{key} given twice, first on line {lines[key]}")
            if kind in (float, int, str):
                values[key] = kind(value)
            elif kind is bool:
                if value not in ("on", "off"):
                    raise ConfigError(f"{key} must be on or off")
                values[key] = value == "on"
            elif kind is tuple:
                values[key] = tuple(v.strip() for v in value.split(",") if v.strip())
            else:
                raise ConfigError(f"unknown key {key!r}")
            check_key(key, values[key])
        except ConfigError as err:
            raise ConfigError(str(err), lineno) from None
        except ValueError:
            raise ConfigError(f"bad value {value!r} for {key}", lineno) from None
        lines[key] = lineno
    check_grid_bounds({**_DEFAULTS, **values}, lines)
    return SweepConfig(**values)


@dataclass(frozen=True)
class Engine:
    """What runs V: the fixed `circuit` (4 cx for "vstar", 7 for "identity",
    which realises the cooling gate up to a final diagonal phase) and the
    `exact` matrix of the target unitary, read out without error; its p,
    which is also raw, and its channel are read-only, and unmix is thermo's
    shared read-only identity."""

    circuit: Circuit
    exact: thermo.TransitionMatrix

    @functools.cached_property
    def polynomial(self) -> tuple[np.ndarray, np.ndarray]:
        """noise.channel_polynomial of the circuit, read-only, built at its first use."""
        return channel_polynomial(self.circuit)

    def channel(self, nm: NoiseModel) -> np.ndarray:
        """The readout-free outcome channel under nm's gate noise: without it
        the exact unitary's own (the polynomial at no noise is rounding-level
        off), else the polynomial at (p1, p2); nm's readout plays no part."""
        if nm.is_gate_noiseless():
            return self.exact.channel
        return evaluate_channel(self.polynomial, nm)


@functools.cache
def engine(v: str) -> Engine:
    """The Engine of V, built once per process."""
    u = build_target_unitary(v)  # raises ValueError for an unknown v
    p = qcore.read_only(u.real ** 2 + u.imag ** 2)  # p[m', m] = |<m'|u|m>|^2
    exact = thermo.TransitionMatrix(p, channel=qcore.read_only(np.ascontiguousarray(p.T)))
    return Engine(build_vstar_circuit() if v == "vstar" else build_identity_circuit(), exact)


def sweep_transition_matrix(cfg: SweepConfig):
    """The engine's transition matrix: for an exact run without gate noise,
    readout error or mitigation the engine's exact matrix itself, else one
    thermo.measure_channel of the engine's channel.  Mitigation uses the
    exact confusion matrix at shots = 0, else one calibrated at cfg.shots.
    Child 0 of SeedSequence(cfg.seed) samples the matrix and child 1 the
    calibration; child i is built only when drawn from, on its own as
    SeedSequence(cfg.seed, spawn_key=(i,)), the stream of
    SeedSequence(cfg.seed).spawn(2)[i]."""
    nm, e = cfg.noise(), engine(cfg.v)
    if not (cfg.shots or cfg.mitigation or cfg.eps01 or cfg.eps10) and nm.is_gate_noiseless():
        return e.exact
    conf = None
    if cfg.mitigation:
        conf = (calibrate(nm, cfg.shots, np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
                if cfg.shots else readout_matrix(nm))
    tm_seed = np.random.SeedSequence(cfg.seed, spawn_key=(0,)) if cfg.shots else None
    return thermo.measure_channel(e.channel(nm), nm, cfg.shots, tm_seed, mitigation=conf)


def grid_axes(cfg: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.linspace(cfg.t_h_min, cfg.t_h_max, cfg.n_h),
        np.linspace(cfg.t_c_min, cfg.t_c_max, cfg.n_c),
    )


@dataclass(frozen=True, eq=False)  # arrays have no one truth value: == is identity
class SweepResult:
    """Sweep outputs as columns over the grid of the two axes, row-major, T_H
    outer; t_hot and t_cold spread the axes over it.  t_cold_final_kind is
    "finite", "infinite" or "inverted" (thermo.final_temperatures);
    t_cold_final is NaN where it is not finite."""

    t_h_axis: np.ndarray
    t_c_axis: np.ndarray
    de_hot: np.ndarray
    de_cold: np.ndarray
    mode: np.ndarray
    t_cold_final: np.ndarray
    t_cold_final_kind: np.ndarray
    p_g_final: np.ndarray
    purifier: np.ndarray

    def __post_init__(self):
        for name in _RESULT_FIELDS:
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if self.t_h_axis.ndim != 1 or self.t_c_axis.ndim != 1:
            raise ValueError("the axes must be one-dimensional")
        shape = (self.n_h * self.n_c,)
        for name in _RESULT_FIELDS[2:]:
            if getattr(self, name).shape != shape:
                raise ValueError(f"column {name} does not fill a {self.n_h}x{self.n_c} grid")

    @property
    def n_h(self) -> int:
        return self.t_h_axis.size

    @property
    def n_c(self) -> int:
        return self.t_c_axis.size

    @property
    def t_hot(self) -> np.ndarray:
        return np.repeat(self.t_h_axis, self.n_c)

    @property
    def t_cold(self) -> np.ndarray:
        return np.tile(self.t_c_axis, self.n_h)

    @property
    def work(self) -> np.ndarray:
        return self.de_hot + self.de_cold


#: SweepResult's fields in order: the two axes, then the columns
_RESULT_FIELDS = tuple(f.name for f in fields(SweepResult))


def evaluate_grid(cfg: SweepConfig, tm, t_h_axis, t_c_axis) -> SweepResult:
    """Every (T_H, T_C) pair of the two axes through the engine `tm`: thermo's
    per-point rules (preparation, roles, mode, final temperature, purifier)
    applied to whole columns."""
    t_h_axis, t_c_axis = np.asarray(t_h_axis, float), np.asarray(t_c_axis, float)
    spec = cfg.device()
    probs = thermo.preparation_grid(cfg.scheme, spec, t_h_axis, t_c_axis)
    e_h, e_c = hot_energies(spec, cfg.hot_energy_mode), cold_energies(spec)
    # each product runs once per grid point, on its row as a 1x8 matrix of a
    # stack, so that a point has the bits a 1x1 grid gives it: one product
    # over the whole grid runs another BLAS kernel, which may round apart
    rows = probs[:, None, :]
    after = (rows @ tm.p.T)[:, 0]
    # dE_H and dE_C from one stack of the energy vectors, each an 8x1 matrix
    de_hot, de_cold = ((after - probs)[:, None, :] @ np.array([e_h, e_c])[:, None, :, None])[..., 0, 0]
    # boundary tolerance: 3 standard errors of the sampled energy changes,
    # propagated through the mitigation (see TransitionMatrix.shot_variances)
    eps = BOUNDARY_EPS
    if cfg.shots > 0:
        # dE_H, dE_C and W as one stack of energy vectors, each an 8x1 matrix
        variances = tm.shot_variances(np.array([e_h, e_c, e_h + e_c]))[:, None, :, None]
        var = rows ** 2 @ variances / cfg.shots
        eps = np.maximum(eps, 3.0 * np.sqrt(np.maximum(var[..., 0, 0], 0.0)).max(axis=0))
    # one roles mask over the grid, row-major with T_H outer like the columns
    swap = thermo.roles_exchanged(t_h_axis[:, None], t_c_axis).ravel()
    mode = thermo.mode_tags(np.where(swap, de_cold, de_hot), np.where(swap, de_hot, de_cold), eps)
    q = thermo.cold_excitation(after)
    kind, t_final = thermo.final_temperatures(q, spec.f1)
    p_g_final = 1.0 - q
    if cfg.scheme == "full8":
        g = thermo.ground_populations(probs)
        purifier = (mode == "R") & thermo.purifies(g, p_g_final, swap)
    else:
        purifier = np.zeros(swap.size, dtype=bool)
    return SweepResult(t_h_axis, t_c_axis, de_hot, de_cold, mode, t_final, kind, p_g_final, purifier)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """The whole configured grid, T_H as the outer axis."""
    return evaluate_grid(cfg, sweep_transition_matrix(cfg), *grid_axes(cfg))


# ---------------------------------------------------------------------------
# outputs

CSV_HEADER = "T_H_mK,T_C_mK,dE_H,dE_C,W,mode,T_C_final_mK,p_g_final,purifier"
RECORD_KEYS = ("T_H", "T_C", "dE_H", "dE_C", "W", "mode", "T_C_final", "p_g_final", "purifier")
_NON_FINITE_TEXT = {"infinite": "inf", "inverted": "inverted"}
#: one point's object as json.dumps(record, indent=2) writes it
_RECORD = "{\n" + ",\n".join(f'  "{key}": %s' for key in RECORD_KEYS) + "\n}"
#: the text of False and True, as a shared index table
_BOOL_TEXTS = qcore.read_only(np.array(["false", "true"], dtype=object))
#: the JSON string of a text, cached for the mode tags and the kinds' texts
_json_string = functools.lru_cache(maxsize=64)(encode_basestring_ascii)

#: grid points per block of text that the CSV and JSON writers yield
_BLOCK_POINTS = 512


def _floats(columns: np.ndarray) -> tuple[list, list, list]:
    """A stack of float columns (one column is a stack of one) in one pass:
    its values as one flat list, column after column, the flat positions of
    the values that are not finite floats, and their CSV texts."""
    columns = columns.ravel()
    values, odd = columns.tolist(), (~np.isfinite(columns)).nonzero()[0].tolist()
    return values, odd, ["%.9g" % values[n] for n in odd]


class _Block(NamedTuple):
    """The columns of one block that every format reads: the _floats of its
    stacked float columns (any lead columns, then dE_H, dE_C, W, T_C_final
    and p_g_final), the modes and the purifier texts."""

    floats: tuple
    modes: list
    purifier: list


def _block(res: SweepResult, s: slice, *lead: np.ndarray) -> _Block:
    """The columns of the grid points in slice `s` of `res`, as every format
    reads them, after `lead`: float columns as long as the slice, read in
    the same pass (write_record's two axes)."""
    de_hot, de_cold, kinds = res.de_hot[s], res.de_cold[s], res.t_cold_final_kind[s]
    values, odd, texts = _floats(np.array([*lead, de_hot, de_cold, de_hot + de_cold,
                                           res.t_cold_final[s], res.p_g_final[s]]))
    # where T_C_final's kind is not "finite", its text is the kind's, written after any other
    kinded = (kinds != "finite").nonzero()[0].tolist()
    start = (len(lead) + 3) * len(kinds)
    floats = (values, odd + [start + n for n in kinded],
              texts + [_NON_FINITE_TEXT[kinds[n]] for n in kinded])
    return _Block(floats, res.mode[s].tolist(), _BOOL_TEXTS.take(res.purifier[s].astype(bool)).tolist())


class _Format:
    """`record` once per point, joined by `sep`, after `head` and before
    `tail` (`empty` alone for no point).  A block is one join of the record's
    literal pieces (the text around its nine `%s` fields) and the values'
    texts: `number` writes a list of floats and `string` a text (None: as it
    is); a value that is not a finite float is the string of its CSV text."""

    def __init__(self, record: str, sep: str, number, string=None, head="", tail="", empty=""):
        pieces = record.split("%s")
        self.number = number
        self.strings = (lambda texts: texts) if string is None else functools.partial(map, string)
        self.head, self.tail, self.empty = head, tail, empty
        self.first, self.lead, self.last = pieces[0], sep + pieces[0], pieces[-1]
        # a point's parts: the text before each value (before the first, the end of
        # the previous record and this one's lead) and a slot (None) for the value
        self.unit = [x for piece in (self.last + self.lead, *pieces[1:-1]) for x in (piece, None)]

    def numbers(self, values: list, odd: list, odd_texts: list) -> list:
        """The texts of a _floats stack, in one `number` call: an odd value's
        is the string of its CSV text."""
        texts = self.number(values)
        for n, text in zip(odd, self.strings(odd_texts)):
            texts[n] = text
        return texts

    def text(self, b: _Block, first: bool, *axes: list) -> str:
        """The block's records; `axes` are the T_H and T_C texts, unless the
        block's floats lead with the two axes."""
        n = len(b.modes)
        parts = self.unit * n
        parts[0] = self.first if first else self.lead
        parts.append(self.last)
        texts = self.numbers(*b.floats)
        floats = [*axes, *(texts[i:i + n] for i in range(0, len(texts), n))]
        t_h, t_c, de_hot, de_cold, work, t_final, p_g = floats
        for i, column in enumerate((t_h, t_c, de_hot, de_cold, work, self.strings(b.modes),
                                    t_final, p_g, b.purifier)):
            parts[2 * i + 1::len(self.unit)] = column
        return "".join(parts)


_CSV = _Format("%s,%s,%s,%s,%s,%s,%s,%s,%s\n", "",
               lambda values: ("%.9g\n" * len(values) % tuple(values)).split("\n")[:-1],  # one C-level fill
               head=CSV_HEADER + "\n", empty=CSV_HEADER + "\n")
#: the JSON file's records are one level deeper, inside the list
_JSON = _Format("  " + _RECORD.replace("\n", "\n  "), ",\n", lambda values: list(map(repr, values)),
                _json_string, "[\n", "\n]\n", "[]\n")
_POINT = _Format(_RECORD, "", _JSON.number, _json_string)


def _texts(res: SweepResult, formats):
    """The text of each of `formats` over `res`, in parts: per part, an
    iterable of one text per format.  After the head, each part is a block of
    _BLOCK_POINTS consecutive grid points, whose columns are read once for all
    formats; each format formats an axis value once.  A block's texts are made
    one at a time as they are read, so that one text is held at a time: read
    them before the next part."""
    size = res.de_hot.size
    if not size:
        yield tuple(f.empty for f in formats)
        return
    yield tuple(f.head for f in formats)
    axes = [[np.array(f.numbers(*_floats(axis)), dtype=object)
             for axis in (res.t_h_axis, res.t_c_axis)] for f in formats]
    for start in range(0, size, _BLOCK_POINTS):
        block = _block(res, slice(start, start + _BLOCK_POINTS))
        h, c = np.divmod(np.arange(start, min(start + _BLOCK_POINTS, size)), res.n_c)
        yield (f.text(block, start == 0, h_texts[h].tolist(), c_texts[c].tolist())
               for f, (h_texts, c_texts) in zip(formats, axes))
    yield tuple(f.tail for f in formats)


def _text(res: SweepResult, fmt) -> str:
    return "".join(text for text, in _texts(res, [fmt]))


def write_csv(res: SweepResult) -> str:
    """One row per grid point, numbers as `%.9g`."""
    return _text(res, _CSV)


def write_json(res: SweepResult) -> str:
    """One object per grid point, keyed by RECORD_KEYS, in a list as ``json.dumps(records,
    indent=2)`` writes it; a non-finite float is its CSV text, as strict JSON needs."""
    return _text(res, _JSON)


def write_record(res: SweepResult) -> str:
    """The one point of a 1x1 result as one object of write_json, written as
    ``json.dumps(record, indent=2)`` writes it: _POINT's text of its one
    block, whose floats lead with the two axes, so that its seven floats
    are read in one _floats pass and written in one `number` call."""
    if res.de_hot.size != 1:
        raise ValueError(f"a record holds one point, not {res.n_h}x{res.n_c}")
    return _POINT.text(_block(res, slice(None), res.t_h_axis, res.t_c_axis), True)


MODE_COLORS = {
    "E": (0, 160, 0),        # green
    "R": (0, 0, 200),        # blue
    "P": (120, 180, 255),    # light blue: purifying subset of R
    "A": (255, 220, 0),      # yellow
    "H": (220, 0, 0),        # red
    "Boundary": (128, 128, 128),
}
RAMP_LOW = (0, 0, 255)
RAMP_HIGH = (255, 0, 0)
NON_FINITE_COLOR = (128, 128, 128)

#: the column of each scalar heatmap field, NaN where it is not finite
_SCALAR_FIELDS = {"t_c_final": "t_cold_final", "p_g_final": "p_g_final"}


def heatmap_range(res: SweepResult, fname: str) -> tuple[float, float]:
    """(min, max) of the finite values of a scalar heatmap field."""
    if fname not in _SCALAR_FIELDS:
        raise ValueError(f"{fname!r} is not a scalar heatmap field")
    values = getattr(res, _SCALAR_FIELDS[fname])
    values = values[np.isfinite(values)]
    if not values.size:
        raise ValueError(f"no finite values for field {fname!r}")
    return float(values.min()), float(values.max())


def write_heatmap(res: SweepResult, fname: str = "mode") -> bytes:
    """Binary P6 pixmap of a sweep grid, one pixel per grid point.

    Mode maps use the fixed color table MODE_COLORS (purifying R points are
    rendered as P); scalar fields use a linear blue-to-red ramp between the
    values returned by heatmap_range, gray for non-finite entries; heatmap_range
    raises ValueError for any other field, and a mode map ValueError for a
    mode tag that has no color.
    """
    return _heatmap(res, fname)[0]


def _heatmap(res: SweepResult, fname: str):
    """write_heatmap's pixmap, and the heatmap_range it spans (None for the mode map)."""
    span = None
    if fname == "mode":
        tags = np.where(res.purifier & (res.mode == "R"), "P", res.mode)
        tags, index = np.unique(tags, return_inverse=True)
        try:
            pixels = np.array([MODE_COLORS[t] for t in tags.tolist()])[index]
        except KeyError as err:
            raise ValueError(f"mode tag {err.args[0]!r} has no heatmap color") from None
    else:
        lo, hi = span = heatmap_range(res, fname)
        values = getattr(res, _SCALAR_FIELDS[fname])
        t = (values - lo) / (hi - lo if hi > lo else 1.0)
        pixels = np.rint(np.add(RAMP_LOW, t[:, None] * np.subtract(RAMP_HIGH, RAMP_LOW)))
        pixels[~np.isfinite(values)] = NON_FINITE_COLOR
    header = f"P6\n{res.n_c} {res.n_h}\n255\n".encode()
    return header + pixels.astype(np.uint8).tobytes(), span


def write_outputs(cfg: SweepConfig, res: SweepResult) -> list[str]:
    """Write the configured output files, in binary, as the bytes of the
    writers' texts; returns the paths written.  CSV and JSON are streamed
    together, block by block, and written first, so a heatmap that cannot
    be drawn (ValueError) still leaves them on disk."""
    formats = {name: fmt for name, fmt in (("csv", _CSV), ("json", _JSON)) if name in cfg.outputs}
    paths = [f"{cfg.output_prefix}.{name}" for name in formats]
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for texts in _texts(res, list(formats.values())) if formats else ():
            for fh, text in zip(files, texts):
                fh.write(text.encode())

    def save(suffix, data):
        paths.append(cfg.output_prefix + suffix)
        with open(paths[-1], "wb") as fh:
            fh.write(data)

    if "heatmap" in cfg.outputs:
        ppm, span = _heatmap(res, cfg.heatmap_field)
        save(".ppm", ppm)
        if span:
            save(".ppm.range.txt", "min {:.9g}\nmax {:.9g}\n".format(*span).encode())
    return paths
