"""Config file parsing and emission.

Format: UTF-8 text, `key = value` pairs, `#` comments, and the sections
[rf], [vlc], [sweep], [mc].  The outage threshold lives above the sections
since it belongs to the link as a whole.  SNR-like quantities accept a
linear key or a _db twin; angles are given in degrees.  All dB-to-linear
conversion happens here, nowhere deeper.  The CLI reads a file as
`utf-8-sig`, so a leading byte-order mark is dropped, not read into the
first key's name.

Each section's keys are declared once, in a table that both
`parse_config` and `emit_config` read.  A key is optional exactly when
the record field it fills has a default, and that default is the one
the record declares.

Example:

    outage_threshold_db = 0.0

    [rf]
    k_factor_db = 5.0
    branches = 2
    avg_snr_db = 10.0

    [vlc]
    semi_angle_deg = 60.0
    height_m = 2.0
    area_m2 = 1e-4
    fov_deg = 60.0
    refractive_index = 1.5
    filter_gain = 1.0
    responsivity = 0.4
    conv_efficiency = 0.8
    noise_psd = 1e-21
    bandwidth_hz = 2e7
    optical_power_w = 0.25      # or led_count = 25 with led_power_w = 0.01

    [sweep]
    axis = rf_avg_snr_db
    start = 0
    stop = 40
    points = 21
    scale = linear
    quantity = outage

    [mc]
    trials = 1000000
    seed = 42
    workers = 1
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .e2e import SystemConfig
from .montecarlo import McOptions
from .rf_channel import RfParams
from .specfun import checked, is_integer
from .vlc_channel import VlcParams

__all__ = [
    "ConfigError",
    "SweepSpec",
    "ParsedConfig",
    "SWEEP_AXES",
    "axis_grid",
    "db_to_linear",
    "parse_config",
    "emit_config",
]


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


def db_to_linear(x_db: float) -> float:
    """10^(x_db/10); ValueError when that overflows a float."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise ValueError(f"{x_db:g} dB overflows a float in linear units") from None


# axis -> (hop of SystemConfig, field of that hop, conversion of a grid value)
SWEEP_AXES = {
    "rf_avg_snr_db": ("rf", "avg_snr", db_to_linear),
    "optical_power_w": ("vlc", "optical_power", float),
    "semi_angle_deg": ("vlc", "semi_angle", float),
    "branches": ("rf", "branches", lambda value: int(round(value))),
    "k_factor_db": ("rf", "k_factor", db_to_linear),
}
SWEEP_QUANTITIES = ("outage", "ber")
SWEEP_SCALES = ("linear", "log")


@checked
class SweepSpec(NamedTuple):
    """One-dimensional parameter sweep description."""

    axis: str
    start: float
    stop: float
    points: int
    quantity: str
    scale: str = "linear"

    def _check(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(
                f"axis must be one of {tuple(SWEEP_AXES)}, got {self.axis!r}"
            )
        if self.quantity not in SWEEP_QUANTITIES:
            raise ValueError(
                f"quantity must be one of {SWEEP_QUANTITIES}, got {self.quantity!r}"
            )
        if self.scale not in SWEEP_SCALES:
            raise ValueError(f"scale must be one of {SWEEP_SCALES}, got {self.scale!r}")
        if not (self.start < self.stop):
            raise ValueError(
                f"sweep requires start < stop, got start={self.start}, stop={self.stop}"
            )
        if not is_integer(self.points) or self.points < 2:
            raise ValueError(f"points must be an integer >= 2, got {self.points!r}")
        if self.scale == "log" and self.start <= 0.0:
            raise ValueError("log scale requires start > 0")
        if self.axis == "branches":
            axis_grid(self)  # the branches-grid rule lives there; no other grid can fail


def axis_grid(spec: SweepSpec) -> np.ndarray:
    """Ascending evaluation grid; geometric for log scale."""
    if spec.scale == "log":
        grid = np.geomspace(spec.start, spec.stop, spec.points)
    else:
        grid = np.linspace(spec.start, spec.stop, spec.points)
    if spec.axis == "branches":
        rounded = np.round(grid)
        if np.any(np.abs(grid - rounded) > 1e-9) or np.any(rounded < 1):
            raise ValueError(
                "branches axis requires a grid of integers >= 1; "
                f"start={spec.start}, stop={spec.stop}, points={spec.points} does not"
            )
    return grid


class ParsedConfig(NamedTuple):
    system: SystemConfig
    sweep: SweepSpec | None
    mc: McOptions


_SECTIONS = ("rf", "vlc", "sweep", "mc")

# Each section's keys in file order, as (file key, record field, kind).
# kind is float, int or str; "db" for a linear number that the file may
# give in dB instead, under the key plus "_db"; or "led" for a float that
# the file may give instead as the product led_count * led_power_w.
_TOP_KEYS = (("outage_threshold", "outage_threshold", "db"),)
_RF_KEYS = (
    ("k_factor", "k_factor", "db"),
    ("branches", "branches", int),
    ("avg_snr", "avg_snr", "db"),
)
_LED_COUNT, _LED_POWER = "led_count", "led_power_w"
_VLC_KEYS = (
    ("semi_angle_deg", "semi_angle", float),
    ("height_m", "height", float),
    ("area_m2", "area", float),
    ("fov_deg", "fov", float),
    ("refractive_index", "refractive_index", float),
    ("filter_gain", "filter_gain", float),
    ("responsivity", "responsivity", float),
    ("conv_efficiency", "conv_efficiency", float),
    ("noise_psd", "noise_psd", float),
    ("bandwidth_hz", "bandwidth", float),
    ("optical_power_w", "optical_power", "led"),
)
_SWEEP_KEYS = (
    ("axis", "axis", str),
    ("start", "start", float),
    ("stop", "stop", float),
    ("points", "points", int),
    ("scale", "scale", str),
    ("quantity", "quantity", str),
)
_MC_KEYS = (
    ("trials", "trials", int),
    ("seed", "seed", int),
    ("workers", "workers", int),
)


def _tokenize(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {raw.strip()!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = (value, lineno)
    return sections


class _Section:
    """Typed key extraction with consumed-key tracking."""

    def __init__(self, name: str, table: dict[str, tuple[str, int]]):
        self.label = f"[{name}]" if name else "top level"
        self.table = dict(table)

    def value(self, key: str, kind):
        """The key's value as `kind` (float, int or str), or None if absent."""
        item = self.table.pop(key, None)
        if item is None:
            return None
        value, lineno = item
        if kind is str:
            return value
        try:
            if kind is int:
                return int(value, 10)
            out = float(value)
            if math.isfinite(out):
                return out
        except ValueError:
            pass
        raise ConfigError(
            f"line {lineno}: key {key!r} needs a {kind.__name__}, got {value!r}"
        )

    def linear_or_db(self, key: str):
        plain = self.value(key, float)
        db = self.value(key + "_db", float)
        if plain is not None and db is not None:
            raise ConfigError(f"{self.label}: give {key!r} or '{key}_db', not both")
        if db is None:
            return plain
        try:
            return db_to_linear(db)
        except ValueError as exc:
            raise ConfigError(f"{self.label}: key '{key}_db': {exc}") from None

    def power_or_led_pair(self, key: str):
        """The key's float, or `led_count * led_power_w` given instead."""
        power = self.value(key, float)
        count = self.value(_LED_COUNT, int)
        each = self.value(_LED_POWER, float)
        if power is not None:
            if count is not None or each is not None:
                raise ConfigError(
                    f"{self.label}: give {key} or the {_LED_COUNT}/{_LED_POWER} pair, not both"
                )
            return power
        if count is None or each is None:
            raise ConfigError(
                f"{self.label}: missing optical power; give {key} or both "
                f"{_LED_COUNT} and {_LED_POWER}"
            )
        if count < 1:
            raise ConfigError(f"{self.label}: {_LED_COUNT} must be >= 1, got {count}")
        try:
            return count * each
        except OverflowError:
            raise ConfigError(
                f"{self.label}: key '{_LED_COUNT}': {_LED_COUNT} * {_LED_POWER} overflows a float"
            ) from None

    def read(self, keys, cls) -> dict:
        """Keyword arguments for `cls` from the `keys` table, absent keys
        left out.  A key is required unless its field has a default."""
        defaults = cls._field_defaults
        readers = {"db": self.linear_or_db, "led": self.power_or_led_pair}
        values = {}
        for key, field, kind in keys:
            got = readers[kind](key) if kind in readers else self.value(key, kind)
            if got is not None:
                values[field] = got
            elif field not in defaults:
                twin = f" (or '{key}_db')" if kind == "db" else ""
                raise ConfigError(f"{self.label}: missing required key {key!r}{twin}")
        return values

    def finish(self):
        if self.table:
            key, (_, lineno) = next(iter(self.table.items()))
            raise ConfigError(f"line {lineno}: unknown key {key!r} in {self.label}")


def _build(tokens, name: str, keys, cls, required: bool = False, **given):
    """`cls` from the section `name` ("" for the top level), which may be
    absent unless `required`, and the fields `given` from elsewhere."""
    if required and name not in tokens:
        raise ConfigError(f"missing required section [{name}]")
    section = _Section(name, tokens.get(name, {}))
    values = section.read(keys, cls)
    section.finish()
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(f"{section.label}: {exc}") from None


def parse_config(text: str) -> ParsedConfig:
    """Parse a config document; raises ConfigError naming the offending
    line/key or the violated invariant, in the first block with a problem
    in the order [rf], [vlc], top level, [sweep], [mc]."""
    tokens = _tokenize(text)
    rf = _build(tokens, "rf", _RF_KEYS, RfParams, required=True)
    vlc = _build(tokens, "vlc", _VLC_KEYS, VlcParams, required=True)
    system = _build(tokens, "", _TOP_KEYS, SystemConfig, rf=rf, vlc=vlc)
    sweep = _build(tokens, "sweep", _SWEEP_KEYS, SweepSpec) if "sweep" in tokens else None
    mc = _build(tokens, "mc", _MC_KEYS, McOptions)
    return ParsedConfig(system=system, sweep=sweep, mc=mc)


def emit_config(parsed: ParsedConfig) -> str:
    """Serialize back to the config format; parse(emit(parse(doc))) equals
    parse(doc).  Values are written in linear units at full precision."""
    cfg = parsed.system
    sections = [("", _TOP_KEYS, cfg), ("rf", _RF_KEYS, cfg.rf), ("vlc", _VLC_KEYS, cfg.vlc)]
    if parsed.sweep is not None:
        sections.append(("sweep", _SWEEP_KEYS, parsed.sweep))
    sections.append(("mc", _MC_KEYS, parsed.mc))
    blocks = []
    for name, keys, values in sections:
        lines = [f"[{name}]"] if name else []
        for key, field, kind in keys:
            value = getattr(values, field)
            lines.append(f"{key} = {value}" if kind in (int, str) else f"{key} = {value!r}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
