"""Config file parsing and emission.

Format: UTF-8 text, `key = value` pairs, `#` comments, and the sections
[rf], [vlc], [sweep], [mc].  The outage threshold lives above the sections
since it belongs to the link as a whole.  SNR-like quantities accept a
linear key or a _db twin; angles are given in degrees.  All dB-to-linear
conversion happens here, nowhere deeper.

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
from dataclasses import dataclass

from .e2e import SystemConfig
from .montecarlo import McOptions
from .rf_channel import RfParams
from .vlc_channel import VlcParams

__all__ = [
    "ConfigError",
    "SweepSpec",
    "ParsedConfig",
    "SWEEP_AXES",
    "db_to_linear",
    "linear_to_db",
    "parse_config",
    "emit_config",
]

SWEEP_AXES = ("rf_avg_snr_db", "optical_power_w", "semi_angle_deg", "branches")
SWEEP_QUANTITIES = ("outage", "ber")
SWEEP_SCALES = ("linear", "log")


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


def db_to_linear(x_db: float) -> float:
    """10^(x_db/10); ValueError when that overflows a float."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise ValueError(f"{x_db:g} dB overflows a float in linear units") from None


def linear_to_db(x: float) -> float:
    if x <= 0.0:
        raise ValueError(f"dB conversion needs a positive value, got {x}")
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional parameter sweep description."""

    axis: str
    start: float
    stop: float
    points: int
    quantity: str
    scale: str = "linear"

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
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
        if not isinstance(self.points, int) or self.points < 2:
            raise ValueError(f"points must be an integer >= 2, got {self.points!r}")
        if self.scale == "log" and self.start <= 0.0:
            raise ValueError("log scale requires start > 0")


@dataclass(frozen=True)
class ParsedConfig:
    system: SystemConfig
    sweep: SweepSpec | None
    mc: McOptions


_SECTIONS = ("rf", "vlc", "sweep", "mc")


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
        self.name = name
        self.table = dict(table)

    def _label(self) -> str:
        return f"[{self.name}]" if self.name else "top level"

    def take(self, key: str):
        return self.table.pop(key, None)

    def _convert(self, key, kind):
        item = self.take(key)
        if item is None:
            return None
        value, lineno = item
        try:
            if kind is float:
                out = float(value)
                if not math.isfinite(out):
                    raise ValueError
                return out
            return int(value, 10)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: key {key!r} needs a {kind.__name__}, got {value!r}"
            ) from None

    def number(self, key: str):
        return self._convert(key, float)

    def integer(self, key: str):
        return self._convert(key, int)

    def word(self, key: str):
        item = self.take(key)
        return None if item is None else item[0]

    def require(self, key: str, got):
        if got is None:
            raise ConfigError(f"{self._label()}: missing required key {key!r}")
        return got

    def linear_or_db(self, key: str, required: bool = True):
        plain = self.number(key)
        db = self.number(key + "_db")
        if plain is not None and db is not None:
            raise ConfigError(f"{self._label()}: give {key!r} or '{key}_db', not both")
        if plain is None and db is None:
            if required:
                raise ConfigError(
                    f"{self._label()}: missing required key {key!r} (or '{key}_db')"
                )
            return None
        if plain is not None:
            return plain
        try:
            return db_to_linear(db)
        except ValueError as exc:
            raise ConfigError(f"{self._label()}: key '{key}_db': {exc}") from None

    def finish(self):
        if self.table:
            key, (_, lineno) = next(iter(self.table.items()))
            raise ConfigError(f"line {lineno}: unknown key {key!r} in {self._label()}")


def parse_config(text: str) -> ParsedConfig:
    """Parse a config document; raises ConfigError naming the offending
    line/key or the violated invariant."""
    tokens = _tokenize(text)

    top = _Section("", tokens.get("", {}))
    threshold = top.linear_or_db("outage_threshold")
    top.finish()

    if "rf" not in tokens:
        raise ConfigError("missing required section [rf]")
    rf_sec = _Section("rf", tokens["rf"])
    k_factor = rf_sec.linear_or_db("k_factor")
    branches = rf_sec.require("branches", rf_sec.integer("branches"))
    avg_snr = rf_sec.linear_or_db("avg_snr")
    rf_sec.finish()

    if "vlc" not in tokens:
        raise ConfigError("missing required section [vlc]")
    vlc_sec = _Section("vlc", tokens["vlc"])
    vlc_values = {
        "semi_angle": vlc_sec.require("semi_angle_deg", vlc_sec.number("semi_angle_deg")),
        "height": vlc_sec.require("height_m", vlc_sec.number("height_m")),
        "area": vlc_sec.require("area_m2", vlc_sec.number("area_m2")),
        "fov": vlc_sec.require("fov_deg", vlc_sec.number("fov_deg")),
        "refractive_index": vlc_sec.require(
            "refractive_index", vlc_sec.number("refractive_index")
        ),
        "filter_gain": vlc_sec.require("filter_gain", vlc_sec.number("filter_gain")),
        "responsivity": vlc_sec.require("responsivity", vlc_sec.number("responsivity")),
        "conv_efficiency": vlc_sec.require(
            "conv_efficiency", vlc_sec.number("conv_efficiency")
        ),
        "noise_psd": vlc_sec.require("noise_psd", vlc_sec.number("noise_psd")),
        "bandwidth": vlc_sec.require("bandwidth_hz", vlc_sec.number("bandwidth_hz")),
    }
    power = vlc_sec.number("optical_power_w")
    led_count = vlc_sec.integer("led_count")
    led_power = vlc_sec.number("led_power_w")
    vlc_sec.finish()
    if power is not None:
        if led_count is not None or led_power is not None:
            raise ConfigError(
                "[vlc]: give optical_power_w or the led_count/led_power_w pair, not both"
            )
    else:
        if led_count is None or led_power is None:
            raise ConfigError(
                "[vlc]: missing optical power; give optical_power_w or both "
                "led_count and led_power_w"
            )
        if led_count < 1:
            raise ConfigError(f"[vlc]: led_count must be >= 1, got {led_count}")
        power = led_count * led_power

    sweep = None
    if "sweep" in tokens:
        sw = _Section("sweep", tokens["sweep"])
        axis = sw.require("axis", sw.word("axis"))
        start = sw.require("start", sw.number("start"))
        stop = sw.require("stop", sw.number("stop"))
        points = sw.require("points", sw.integer("points"))
        quantity = sw.require("quantity", sw.word("quantity"))
        scale = sw.word("scale") or "linear"
        sw.finish()
        try:
            sweep = SweepSpec(
                axis=axis, start=start, stop=stop, points=points,
                quantity=quantity, scale=scale,
            )
        except ValueError as exc:
            raise ConfigError(f"[sweep]: {exc}") from None

    mc_sec = _Section("mc", tokens.get("mc", {}))
    trials = mc_sec.integer("trials")
    seed = mc_sec.integer("seed")
    workers = mc_sec.integer("workers")
    mc_sec.finish()
    try:
        mc = McOptions(
            trials=trials if trials is not None else 1_000_000,
            seed=seed if seed is not None else 0,
            workers=workers if workers is not None else 1,
        )
    except ValueError as exc:
        raise ConfigError(f"[mc]: {exc}") from None

    try:
        system = SystemConfig(
            rf=RfParams(k_factor=k_factor, branches=branches, avg_snr=avg_snr),
            vlc=VlcParams(optical_power=power, **vlc_values),
            outage_threshold=threshold,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ParsedConfig(system=system, sweep=sweep, mc=mc)


def emit_config(parsed: ParsedConfig) -> str:
    """Serialize back to the config format; parse(emit(parse(doc))) equals
    parse(doc).  Values are written in linear units at full precision."""
    cfg = parsed.system
    rf, vlc = cfg.rf, cfg.vlc
    lines = [
        f"outage_threshold = {cfg.outage_threshold!r}",
        "",
        "[rf]",
        f"k_factor = {rf.k_factor!r}",
        f"branches = {rf.branches}",
        f"avg_snr = {rf.avg_snr!r}",
        "",
        "[vlc]",
        f"semi_angle_deg = {vlc.semi_angle!r}",
        f"height_m = {vlc.height!r}",
        f"area_m2 = {vlc.area!r}",
        f"fov_deg = {vlc.fov!r}",
        f"refractive_index = {vlc.refractive_index!r}",
        f"filter_gain = {vlc.filter_gain!r}",
        f"responsivity = {vlc.responsivity!r}",
        f"conv_efficiency = {vlc.conv_efficiency!r}",
        f"noise_psd = {vlc.noise_psd!r}",
        f"bandwidth_hz = {vlc.bandwidth!r}",
        f"optical_power_w = {vlc.optical_power!r}",
    ]
    if parsed.sweep is not None:
        s = parsed.sweep
        lines += [
            "",
            "[sweep]",
            f"axis = {s.axis}",
            f"start = {s.start!r}",
            f"stop = {s.stop!r}",
            f"points = {s.points}",
            f"scale = {s.scale}",
            f"quantity = {s.quantity}",
        ]
    mc = parsed.mc
    lines += [
        "",
        "[mc]",
        f"trials = {mc.trials}",
        f"seed = {mc.seed}",
        f"workers = {mc.workers}",
        "",
    ]
    return "\n".join(lines)
