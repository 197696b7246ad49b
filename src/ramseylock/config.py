"""Line-oriented experiment description files.

One statement per line, ``#`` starts a comment, keys are ``name=value``
tokens.  Frequencies are written in Hz (the tabulated convention) and
multiplied by 2*pi when the simulation objects are built; durations are
seconds, with ``ms``/``us`` suffixes allowed inside ``grid`` ranges.

Statements, with the domain of each value; every number must be finite
(NaN and infinities are config errors)::

    frame rotating | frame lab <omega_a_hz>
    clock_during_pulses on|off
    field <label> rabi_hz=<f > 0> detuning_hz=<f>
    pulse <name> field=<label> tau_s=<f > 0> phase_rad=<f>|random
    protocol ramsey|scramble|retrieve|double-scramble|double-retrieve|attack|fit
    interval [T1=<f >= 0>] [T2=<f >= 0>] [T3=<f >= 0>] [T4=<f >= 0>]
    grid <start >= 0>:<stop >= start>:<step > 0>
    noise [atoms=<i >= 1>] [repeats=<i >= 1>] [seed=<i >= 0>] [contrast_wri_s=<f > 0>]
    sweep phis=<i >= 1>

``parse_config`` and ``serialize_config`` round-trip exactly: floats are
emitted with ``repr`` so every finite double survives unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from .errors import ConfigError

PROTOCOLS = (
    "ramsey",
    "scramble",
    "retrieve",
    "double-scramble",
    "double-retrieve",
    "attack",
    "fit",
)

_INTERVAL_NAMES = ("T1", "T2", "T3", "T4")


@dataclass(frozen=True)
class FieldDef:
    label: str
    rabi_hz: float
    detuning_hz: float


@dataclass(frozen=True)
class PulseDef:
    name: str
    field: str
    tau_s: float
    phase_rad: float | None  # None means "random"


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    step: float


@dataclass(frozen=True)
class NoiseSpec:
    atoms: int = 50_000
    repeats: int = 5
    seed: int = 0
    contrast_wri_s: float | None = None


@dataclass
class ExperimentConfig:
    protocol: str = ""
    frame_mode: str = "rotating"
    frame_omega_a_hz: float = 0.0
    clock_during_pulses: bool = False
    fields: dict[str, FieldDef] = dataclass_field(default_factory=dict)
    pulses: dict[str, PulseDef] = dataclass_field(default_factory=dict)
    intervals: dict[str, float] = dataclass_field(default_factory=dict)
    grid: GridSpec | None = None
    noise: NoiseSpec | None = None
    sweep_phis: int | None = None


def parse_duration(token: str, line: int | None = None) -> float:
    """Duration in seconds; bare numbers are seconds, ``s``/``ms``/``us``
    suffixes are honoured."""
    text = token.strip()
    for suffix, scale in (("us", 1e-6), ("ms", 1e-3), ("s", 1.0)):
        if text.endswith(suffix):
            return _parse_float(text[: -len(suffix)], "duration", line) * scale
    return _parse_float(text, "duration", line)


def parse_grid(text: str, line: int | None = None, name: str = "grid") -> GridSpec:
    """``<start>:<stop>:<step>`` durations with ``start >= 0``, ``stop >=
    start`` and ``step > 0``; ``name`` is the statement or option they came
    from."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must be <start>:<stop>:<step>", line)
    start, stop, step = (parse_duration(part, line) for part in parts)
    if step <= 0 or stop < start:
        raise ConfigError(f"{name} needs stop >= start and step > 0", line)
    if not math.isfinite((stop - start) / step):
        raise ConfigError(f"{name} has too many points: (stop - start) / step overflows", line)
    if start < 0:
        raise ConfigError(f"{name} start must be >= 0, got {parts[0]!r}", line)
    return GridSpec(start, stop, step)


def _parse_float(token: str, key: str, line: int | None) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"bad number for {key}: {token!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {token!r}", line)
    return value


def _positive(token: str, key: str, line: int) -> float:
    value = _parse_float(token, key, line)
    if value <= 0.0:
        raise ConfigError(f"{key} must be > 0, got {token!r}", line)
    return value


def _nonnegative(token: str, key: str, line: int) -> float:
    value = _parse_float(token, key, line)
    if value < 0.0:
        raise ConfigError(f"{key} must be >= 0, got {token!r}", line)
    return value


def _count(token: str, key: str, line: int, least: int = 1) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ConfigError(f"bad integer for {key}: {token!r}", line) from None
    if value < least:
        raise ConfigError(f"{key} must be >= {least}, got {token!r}", line)
    return value


def _seed(token: str, key: str, line: int) -> int:
    return _count(token, "noise seed", line, least=0)


def _phase(token: str, key: str, line: int) -> float | None:
    return None if token == "random" else _parse_float(token, key, line)


def _name(token: str, key: str, line: int) -> str:
    return token


def _unapplied(token: str, key: str, line: int):
    reason = ("no readout applies a scrambling-interferometer contrast time"
              if key == "contrast_sri_s" else "no command-line protocol diffuses the key phase")
    raise ConfigError(f"{key} is not supported: {reason}", line)


#: The key=value statements: the reader ``(token, key, line) -> value`` of
#: each key, and whether every key is required (otherwise none is).
_STATEMENTS = {
    "field": ({"rabi_hz": _positive, "detuning_hz": _parse_float}, True),
    "pulse": ({"field": _name, "tau_s": _positive, "phase_rad": _phase}, True),
    "interval": (dict.fromkeys(_INTERVAL_NAMES, _nonnegative), False),
    "noise": ({"atoms": _count, "repeats": _count, "seed": _seed, "contrast_wri_s": _positive,
               "contrast_sri_s": _unapplied, "linewidth_hz": _unapplied}, False),
    "sweep": ({"phis": _count}, True),
}


def _read(keyword: str, tokens: list[str], line: int) -> dict:
    """The values of a ``keyword`` statement's ``key=value`` tokens, each
    read by its reader in ``_STATEMENTS``; an unknown, duplicate or missing
    key is a config error naming the statement and the key."""
    readers, required = _STATEMENTS[keyword]
    values = {}
    for token in tokens:
        key, eq, text = token.partition("=")
        if not eq:
            raise ConfigError(f"{keyword} expects key=value, got {token!r}", line)
        if key in values:
            raise ConfigError(f"duplicate {keyword} key {key!r}", line)
        reader = readers.get(key)
        if reader is None:
            raise ConfigError(f"unknown {keyword} key {key!r}", line)
        values[key] = reader(text, key, line)
    if required and len(values) < len(readers):
        missing = next(key for key in readers if key not in values)
        raise ConfigError(f"{keyword} needs {missing}=", line)
    return values


def parse_config(text: str) -> ExperimentConfig:
    """Parse an experiment description; raises :class:`ConfigError` with a
    1-based line number on any syntax or reference problem."""
    cfg = ExperimentConfig()
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        statement = raw.partition("#")[0].strip()
        if not statement:
            continue
        tokens = statement.split()
        keyword, args = tokens[0], tokens[1:]

        if keyword in seen:
            raise ConfigError(f"duplicate {keyword} statement", lineno)
        if keyword not in ("field", "pulse", "interval"):
            seen.add(keyword)

        if keyword == "frame":
            if not args or args[0] not in ("rotating", "lab"):
                raise ConfigError("frame must be 'rotating' or 'lab <omega_a_hz>'", lineno)
            cfg.frame_mode = args[0]
            if args[0] == "lab":
                if len(args) != 2:
                    raise ConfigError("lab frame needs the atomic frequency in Hz", lineno)
                cfg.frame_omega_a_hz = _parse_float(args[1], "omega_a_hz", lineno)
            elif len(args) != 1:
                raise ConfigError("rotating frame takes no arguments", lineno)
        elif keyword == "clock_during_pulses":
            if args not in (["on"], ["off"]):
                raise ConfigError("clock_during_pulses must be 'on' or 'off'", lineno)
            cfg.clock_during_pulses = args == ["on"]
        elif keyword in ("field", "pulse"):
            defs, make = (cfg.fields, FieldDef) if keyword == "field" else (cfg.pulses, PulseDef)
            if not args:
                raise ConfigError(f"{keyword} needs a name", lineno)
            if args[0] in defs:
                raise ConfigError(f"{keyword} {args[0]!r} already defined", lineno)
            defs[args[0]] = make(args[0], **_read(keyword, args[1:], lineno))
        elif keyword == "protocol":
            if len(args) != 1 or args[0] not in PROTOCOLS:
                raise ConfigError(f"protocol must be one of {', '.join(PROTOCOLS)}", lineno)
            cfg.protocol = args[0]
        elif keyword == "interval":
            for key, value in _read(keyword, args, lineno).items():
                if key in cfg.intervals:
                    raise ConfigError(f"interval {key} already set", lineno)
                cfg.intervals[key] = value
        elif keyword == "grid":
            if len(args) != 1:
                raise ConfigError("grid takes one <start>:<stop>:<step> token", lineno)
            cfg.grid = parse_grid(args[0], lineno)
        elif keyword == "noise":
            cfg.noise = NoiseSpec(**_read(keyword, args, lineno))
        elif keyword == "sweep":
            cfg.sweep_phis = _read(keyword, args, lineno)["phis"]
        else:
            raise ConfigError(f"unknown statement {keyword!r}", lineno)

    if not cfg.protocol:
        raise ConfigError("missing protocol statement")
    for pulse in cfg.pulses.values():
        if pulse.field not in cfg.fields:
            raise ConfigError(f"pulse {pulse.name!r} references undefined field {pulse.field!r}")
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit the canonical text form; ``parse_config`` inverts it exactly."""
    lines = []
    if cfg.frame_mode == "lab":
        lines.append(f"frame lab {cfg.frame_omega_a_hz!r}")
    else:
        lines.append("frame rotating")
    lines.append(f"clock_during_pulses {'on' if cfg.clock_during_pulses else 'off'}")
    for f in cfg.fields.values():
        lines.append(f"field {f.label} rabi_hz={f.rabi_hz!r} detuning_hz={f.detuning_hz!r}")
    for p in cfg.pulses.values():
        phase = "random" if p.phase_rad is None else repr(p.phase_rad)
        lines.append(f"pulse {p.name} field={p.field} tau_s={p.tau_s!r} phase_rad={phase}")
    lines.append(f"protocol {cfg.protocol}")
    if cfg.intervals:
        parts = " ".join(
            f"{name}={cfg.intervals[name]!r}" for name in _INTERVAL_NAMES if name in cfg.intervals
        )
        lines.append(f"interval {parts}")
    if cfg.grid is not None:
        lines.append(f"grid {cfg.grid.start!r}:{cfg.grid.stop!r}:{cfg.grid.step!r}")
    if cfg.noise is not None:
        n = cfg.noise
        parts = [f"atoms={n.atoms}", f"repeats={n.repeats}", f"seed={n.seed}"]
        if n.contrast_wri_s is not None:
            parts.append(f"contrast_wri_s={n.contrast_wri_s!r}")
        lines.append("noise " + " ".join(parts))
    if cfg.sweep_phis is not None:
        lines.append(f"sweep phis={cfg.sweep_phis}")
    return "\n".join(lines) + "\n"
