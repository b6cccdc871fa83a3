"""Grid sweeps over preparation temperatures and their file outputs.

A sweep evaluates the engine once (the transition matrix does not depend on
the preparation temperatures), then reweights it over the whole (T_H, T_C)
grid with thermo's per-point array rules; only the energy ledger and the
sampling boundary tolerance are computed here.  ``evaluate_grid`` is the one
way to evaluate points: ``qfridge point`` and the oracles run it on a 1x1 or
small grid.  The SweepResult holds the two axes and one array per other
column.  Outputs are plain CSV / JSON / binary PPM so any external plotter
can reproduce the phase diagrams.  The writers turn each column into texts
(T_H and T_C once per axis value), and one ``%`` fill of a repeated row
template writes the whole file.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from .circuits import LINE3, build_target_unitary, build_vstar_circuit
from .compiler import compile_generic
from .noise import NoiseModel, calibrate, exact_confusion
from . import thermo
from .thermo import BOUNDARY_EPS, DeviceSpec, cold_energies, hot_energies, transition_matrix


#: the V blocks a sweep can run (build_target_unitary's named choices)
V_CHOICES = ("identity", "vstar")


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class SweepConfig:
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

    def check_key(self, key: str) -> None:
        """Raise ConfigError if `key` breaks a rule on its own value."""
        val = getattr(self, key)
        if _KEY_TYPES[key] is float and not math.isfinite(val):
            raise ConfigError(f"{key} = {val} must be finite")
        if key in ("f0", "f1", "f2") and val <= 0:
            raise ConfigError("frequencies must be positive")
        if key == "scheme" and val not in thermo.SCHEMES:
            raise ConfigError(f"unknown scheme {val!r}")
        if key == "v" and val not in V_CHOICES:
            raise ConfigError(f"unknown v {val!r}")
        if key in ("p1", "p2", "eps01", "eps10") and not 0.0 <= val <= 1.0:
            raise ConfigError(f"{key} = {val} outside [0, 1]")
        if key == "shots" and val < 0:
            raise ConfigError("shots must be >= 0 (0 = exact)")
        if key == "seed" and val < 0:
            raise ConfigError(f"seed = {val} must be >= 0")
        if key in ("t_h_min", "t_c_min") and val <= 0:
            raise ConfigError("grid temperatures must be positive")
        if key in ("n_h", "n_c") and val < 2:
            raise ConfigError("grid needs at least 2 points per axis")
        if key == "hot_energy_mode" and val not in thermo.HOT_ENERGY_MODES:
            raise ConfigError(f"unknown hot_energy_mode {val!r}")
        if key == "outputs":
            for out in val:
                if out not in ("csv", "json", "heatmap"):
                    raise ConfigError(f"unknown output {out!r}")
        if key == "heatmap_field" and val not in HEATMAP_FIELDS:
            raise ConfigError(f"unknown heatmap_field {val!r}")

    def check_grid_bounds(self, lines: dict[str, int] | None = None) -> None:
        """max > min on both axes; an error cites the later line of its pair."""
        for lo, hi in (("t_h_min", "t_h_max"), ("t_c_min", "t_c_max")):
            if getattr(self, hi) <= getattr(self, lo):
                line = max((lines or {}).get(k, 0) for k in (lo, hi)) or None
                raise ConfigError("grid bounds need max > min", line)

    def validate(self) -> "SweepConfig":
        for f in fields(self):
            self.check_key(f.name)
        self.check_grid_bounds()
        return self

    def device(self) -> DeviceSpec:
        return DeviceSpec(self.f0, self.f1, self.f2)

    def noise(self) -> NoiseModel:
        return NoiseModel.uniform(self.p1, self.p2, self.eps01, self.eps10)


#: config key -> the type of its default value
_KEY_TYPES = {f.name: type(f.default) for f in fields(SweepConfig)}


def parse_config(text: str) -> SweepConfig:
    """Parse a flat `key = value` document with # comments into a config.

    Each key's own rule is checked on its line, the grid bounds at the end.
    """
    cfg = SweepConfig()
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed line {raw.strip()!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        kind = _KEY_TYPES.get(key)
        try:
            if kind in (float, int, str):
                setattr(cfg, key, kind(value))
            elif kind is bool:
                if value not in ("on", "off"):
                    raise ConfigError(f"{key} must be on or off")
                setattr(cfg, key, value == "on")
            elif kind is tuple:
                setattr(cfg, key, tuple(v.strip() for v in value.split(",") if v.strip()))
            else:
                raise ConfigError(f"unknown key {key!r}")
            cfg.check_key(key)
        except ConfigError as err:
            raise ConfigError(str(err), lineno) from None
        except ValueError:
            raise ConfigError(f"bad value {value!r} for {key}", lineno) from None
        lines[key] = lineno
    cfg.check_grid_bounds(lines)
    return cfg


def build_engine(cfg: SweepConfig):
    """The engine to run: the exact target unitary for V = identity without
    gate noise, else engine_circuit(cfg.v) (the 4-CNOT circuit is exact)."""
    if cfg.v == "identity" and cfg.noise().is_gate_noiseless():
        return build_target_unitary("identity")
    return engine_circuit(cfg.v)


@functools.cache
def engine_circuit(v: str):
    """The circuit that runs V, once per process: the 4-CNOT circuit for
    "vstar", else V's target compiled for LINE3."""
    if v == "vstar":
        return build_vstar_circuit()
    return compile_generic(build_target_unitary(v), LINE3)[0]


def sweep_transition_matrix(cfg: SweepConfig):
    """The engine's transition matrix; exact runs mitigate with the exact
    confusion matrix, sampled runs with one calibrated at cfg.shots.  The two
    streams of SeedSequence(cfg.seed).spawn(2) sample the matrix and the calibration."""
    nm = cfg.noise()
    tm_seed, calibration_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    conf = None
    if cfg.mitigation:
        conf = calibrate(nm, cfg.shots, calibration_seed) if cfg.shots else exact_confusion(nm)
    return transition_matrix(build_engine(cfg), nm, cfg.shots, tm_seed, mitigation=conf)


def grid_axes(cfg: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.linspace(cfg.t_h_min, cfg.t_h_max, cfg.n_h),
        np.linspace(cfg.t_c_min, cfg.t_c_max, cfg.n_c),
    )


@dataclass(frozen=True)
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
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name)))
        if self.t_h_axis.ndim != 1 or self.t_c_axis.ndim != 1:
            raise ValueError("the axes must be one-dimensional")
        for f in fields(self)[2:]:
            if getattr(self, f.name).shape != (self.n_h * self.n_c,):
                raise ValueError(f"column {f.name} does not fill a {self.n_h}x{self.n_c} grid")

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


def evaluate_grid(cfg: SweepConfig, tm, t_h_axis, t_c_axis) -> SweepResult:
    """Every (T_H, T_C) pair of the two axes through the engine `tm`: thermo's
    per-point rules (preparation, roles, mode, final temperature, purifier)
    applied to whole columns."""
    t_h_axis, t_c_axis = np.asarray(t_h_axis, float), np.asarray(t_c_axis, float)
    spec = cfg.device()
    probs = thermo.preparation_grid(cfg.scheme, spec, t_h_axis, t_c_axis)
    t_hot, t_cold = np.repeat(t_h_axis, t_c_axis.size), np.tile(t_c_axis, t_h_axis.size)
    after = probs @ tm.p.T
    e_h, e_c = hot_energies(spec, cfg.hot_energy_mode), cold_energies(spec)
    de_hot, de_cold = (after - probs) @ e_h, (after - probs) @ e_c
    # boundary tolerance: 3 standard errors of the sampled energy changes,
    # propagated through the mitigation (see TransitionMatrix.shot_variances)
    eps = BOUNDARY_EPS
    if cfg.shots > 0:
        for e in (e_h, e_c, e_h + e_c):
            var = (probs ** 2) @ tm.shot_variances(e) / cfg.shots
            eps = np.maximum(eps, 3.0 * np.sqrt(np.maximum(var, 0.0)))
    swap = thermo.roles_exchanged(t_hot, t_cold)
    mode = thermo.mode_tags(np.where(swap, de_cold, de_hot), np.where(swap, de_hot, de_cold), eps)
    q = thermo.cold_excitation(after)
    kind, t_final = thermo.final_temperatures(q, spec.f1)
    p_g_final = 1.0 - q
    purifier = np.zeros(t_hot.size, dtype=bool)
    if cfg.scheme == "full8":
        g = thermo.ground_populations(probs)
        purifier = (mode == "R") & thermo.purifies(g, p_g_final, t_hot, t_cold)
    return SweepResult(t_h_axis, t_c_axis, de_hot, de_cold, mode, t_final, kind, p_g_final, purifier)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """The whole configured grid, T_H as the outer axis."""
    cfg.validate()
    return evaluate_grid(cfg, sweep_transition_matrix(cfg), *grid_axes(cfg))


# ---------------------------------------------------------------------------
# outputs

CSV_HEADER = "T_H_mK,T_C_mK,dE_H,dE_C,W,mode,T_C_final_mK,p_g_final,purifier"
RECORD_KEYS = ("T_H", "T_C", "dE_H", "dE_C", "W", "mode", "T_C_final", "p_g_final", "purifier")
_NON_FINITE_TEXT = {"infinite": "inf", "inverted": "inverted"}
_CSV_ROW = "%s,%s,%.9g,%.9g,%.9g,%s,%s,%.9g,%s\n"
_JSON_RECORD = "  {\n" + ",\n".join(f'    "{key}": %s' for key in RECORD_KEYS) + "\n  }"
_JSON_TAGS = {kind: encode_basestring_ascii(text) for kind, text in _NON_FINITE_TEXT.items()}
#: json's spelling of the float reprs that are not JSON numbers
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _g9_texts(col: np.ndarray) -> list[str]:
    """`%.9g` of each value, in one C-level fill."""
    return ("%.9g\n" * col.size % tuple(col.tolist())).split("\n")[:-1]


def _grid_texts(res: SweepResult, texts) -> list[list[str]]:
    """The T_H and T_C columns from `texts` of each axis value."""
    h_texts, c_texts = texts(res.t_h_axis), texts(res.t_c_axis)
    return [np.repeat(np.array(h_texts, dtype=object), res.n_c).tolist(), c_texts * res.n_h]


def _fill(row: str, sep: str, columns: list) -> str:
    """`row` once per grid point, joined by `sep`, filled in one `%` from
    the columns (one value per `%` field of `row`)."""
    return sep.join([row] * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))


def _t_final_column(res: SweepResult, values: list, tags: dict) -> list:
    """The T_C_final column: `values` where the kind is finite, else its tag (in place)."""
    kinds = res.t_cold_final_kind
    for n in np.flatnonzero(kinds != "finite").tolist():
        values[n] = tags[kinds[n]]
    return values


def write_csv(res: SweepResult) -> str:
    """One row per grid point, numbers as `%.9g`."""
    columns = _grid_texts(res, _g9_texts)
    columns += [col.tolist() for col in (res.de_hot, res.de_cold, res.work)]
    columns += [
        res.mode.tolist(),
        _t_final_column(res, _g9_texts(res.t_cold_final), _NON_FINITE_TEXT),
        res.p_g_final.tolist(),
        np.where(res.purifier, "true", "false").tolist(),
    ]
    return CSV_HEADER + "\n" + _fill(_CSV_ROW, "", columns)


def as_records(res: SweepResult) -> list[dict]:
    """One dict per grid point, keyed by RECORD_KEYS, with Python values;
    T_C_final may be "inf"/"inverted"."""
    columns = [
        res.t_hot.tolist(), res.t_cold.tolist(), res.de_hot.tolist(),
        res.de_cold.tolist(), res.work.tolist(), res.mode.tolist(),
        _t_final_column(res, res.t_cold_final.tolist(), _NON_FINITE_TEXT),
        res.p_g_final.tolist(), res.purifier.tolist(),
    ]
    return [dict(zip(RECORD_KEYS, row)) for row in zip(*columns)]


def _json_numbers(col: np.ndarray) -> list[str]:
    """json's text of each number: float.__repr__ (as json calls it), with
    NaN and the infinities spelled as json spells them."""
    texts = repr(col.tolist())[1:-1].split(", ")
    if not np.isfinite(col).all():
        texts = [_JSON_CONSTANTS.get(t, t) for t in texts]
    return texts


def write_json(res: SweepResult) -> str:
    """The records as ``json.dumps(as_records(res), indent=2)`` writes them."""
    if not res.de_hot.size:
        return "[]\n"
    columns = _grid_texts(res, _json_numbers)
    columns += [_json_numbers(col) for col in (res.de_hot, res.de_cold, res.work)]
    columns += [
        list(map(encode_basestring_ascii, res.mode.tolist())),
        _t_final_column(res, _json_numbers(res.t_cold_final), _JSON_TAGS),
        _json_numbers(res.p_g_final),
        np.where(res.purifier, "true", "false").tolist(),
    ]
    return "[\n" + _fill(_JSON_RECORD, ",\n", columns) + "\n]\n"


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

HEATMAP_FIELDS = ("mode", "t_c_final", "p_g_final")


def _scalar_field(res: SweepResult, fname: str) -> np.ndarray:
    """The field's values, NaN where they are not finite."""
    return res.p_g_final if fname == "p_g_final" else res.t_cold_final


def heatmap_range(res: SweepResult, fname: str) -> tuple[float, float]:
    """(min, max) of the finite values of a scalar heatmap field."""
    values = _scalar_field(res, fname)
    values = values[np.isfinite(values)]
    if not values.size:
        raise ValueError(f"no finite values for field {fname!r}")
    return float(values.min()), float(values.max())


def write_heatmap(res: SweepResult, fname: str = "mode") -> bytes:
    """Binary P6 pixmap of a sweep grid, one pixel per grid point.

    Mode maps use the fixed color table MODE_COLORS (purifying R points are
    rendered as P); scalar fields use a linear blue-to-red ramp between the
    values returned by heatmap_range, gray for non-finite entries.
    """
    if fname not in HEATMAP_FIELDS:
        raise ValueError(f"unknown heatmap field {fname!r}")
    if fname == "mode":
        tags = np.where(res.purifier & (res.mode == "R"), "P", res.mode)
        tags, index = np.unique(tags, return_inverse=True)
        pixels = np.array([MODE_COLORS[t] for t in tags.tolist()])[index]
    else:
        lo, hi = heatmap_range(res, fname)
        values = _scalar_field(res, fname)
        t = (values - lo) / (hi - lo if hi > lo else 1.0)
        pixels = np.rint(np.add(RAMP_LOW, t[:, None] * np.subtract(RAMP_HIGH, RAMP_LOW)))
        pixels[~np.isfinite(values)] = NON_FINITE_COLOR
    header = f"P6\n{res.n_c} {res.n_h}\n255\n".encode()
    return header + pixels.astype(np.uint8).tobytes()


def write_outputs(cfg: SweepConfig, res: SweepResult) -> list[str]:
    """Write the configured output files; returns the paths written.  Each
    file is written as soon as it is made, CSV and JSON first, so a heatmap
    that cannot be drawn (ValueError) still leaves them on disk."""
    paths = []

    def save(suffix, data):
        paths.append(cfg.output_prefix + suffix)
        with open(paths[-1], "wb" if suffix == ".ppm" else "w") as fh:
            fh.write(data)

    if "csv" in cfg.outputs:
        save(".csv", write_csv(res))
    if "json" in cfg.outputs:
        save(".json", write_json(res))
    if "heatmap" in cfg.outputs:
        save(".ppm", write_heatmap(res, cfg.heatmap_field))
        if cfg.heatmap_field != "mode":
            lo, hi = heatmap_range(res, cfg.heatmap_field)
            save(".ppm.range.txt", f"min {lo:.9g}\nmax {hi:.9g}\n")
    return paths
