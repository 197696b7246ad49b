"""Line-oriented experiment description files.

One statement per line, ``#`` starts a comment, keys are ``name=value``
tokens.  Frequencies are written in Hz (the tabulated convention) and
multiplied by 2*pi when the simulation objects are built; durations are
seconds, with ``ms``/``us`` suffixes allowed inside ``grid`` ranges.

Statements::

    frame rotating | frame lab <omega_a_hz>
    clock_during_pulses on|off
    field <label> rabi_hz=<f> detuning_hz=<f>
    pulse <name> field=<label> tau_s=<f> phase_rad=<f>|random
    protocol ramsey|scramble|retrieve|double-scramble|double-retrieve|attack|fit
    interval T1=<f> [T2=<f> T3=<f> T4=<f>]
    grid <start>:<stop>:<step>
    noise [atoms=<i>] [repeats=<i>] [seed=<i>] [contrast_wri_s=<f>]
    sweep phis=<i>

The counts ``atoms``, ``repeats`` and ``phis`` must be at least 1, and
every number must be finite: NaN and infinities are config errors.

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

#: Noise keys that no command-line protocol would apply, with the reason.
_UNAPPLIED_NOISE_KEYS = {
    "contrast_sri_s": "no readout applies a scrambling-interferometer contrast time",
    "linewidth_hz": "no command-line protocol diffuses the key phase",
}


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
    scale = 1.0
    for suffix, s in (("us", 1e-6), ("ms", 1e-3), ("s", 1.0)):
        if text.endswith(suffix):
            text = text[: -len(suffix)]
            scale = s
            break
    return _parse_float(text, "duration", line) * scale


def parse_grid(text: str, line: int | None = None, name: str = "grid") -> GridSpec:
    """``<start>:<stop>:<step>`` durations with ``stop >= start`` and
    ``step > 0``; ``name`` is the statement or option they came from."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must be <start>:<stop>:<step>", line)
    start, stop, step = (parse_duration(part, line) for part in parts)
    if step <= 0 or stop < start:
        raise ConfigError(f"{name} needs stop >= start and step > 0", line)
    if not math.isfinite((stop - start) / step):
        raise ConfigError(f"{name} has too many points: (stop - start) / step overflows", line)
    return GridSpec(start, stop, step)


def _parse_float(token: str, key: str, line: int | None) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"bad number for {key}: {token!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {token!r}", line)
    return value


def _parse_int(token: str, key: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"bad integer for {key}: {token!r}", line) from None


def _keyvals(tokens: list[str], line: int) -> dict[str, str]:
    pairs = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}", line)
        key, _, value = tok.partition("=")
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", line)
        pairs[key] = value
    return pairs


def parse_config(text: str) -> ExperimentConfig:
    """Parse an experiment description; raises :class:`ConfigError` with a
    1-based line number on any syntax or reference problem."""
    cfg = ExperimentConfig()
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        statement = raw.split("#", 1)[0].strip()
        if not statement:
            continue
        tokens = statement.split()
        keyword, args = tokens[0], tokens[1:]

        if keyword in ("frame", "clock_during_pulses", "protocol", "grid", "noise", "sweep", "interval"):
            if keyword in seen and keyword != "interval":
                raise ConfigError(f"duplicate {keyword} statement", lineno)
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
        elif keyword == "field":
            if not args:
                raise ConfigError("field needs a label", lineno)
            label = args[0]
            if label in cfg.fields:
                raise ConfigError(f"field {label!r} already defined", lineno)
            pairs = _keyvals(args[1:], lineno)
            unknown = set(pairs) - {"rabi_hz", "detuning_hz"}
            if unknown:
                raise ConfigError(f"unknown field keys {sorted(unknown)}", lineno)
            if "rabi_hz" not in pairs or "detuning_hz" not in pairs:
                raise ConfigError("field needs rabi_hz= and detuning_hz=", lineno)
            cfg.fields[label] = FieldDef(
                label,
                _parse_float(pairs["rabi_hz"], "rabi_hz", lineno),
                _parse_float(pairs["detuning_hz"], "detuning_hz", lineno),
            )
        elif keyword == "pulse":
            if not args:
                raise ConfigError("pulse needs a name", lineno)
            name = args[0]
            if name in cfg.pulses:
                raise ConfigError(f"pulse {name!r} already defined", lineno)
            pairs = _keyvals(args[1:], lineno)
            unknown = set(pairs) - {"field", "tau_s", "phase_rad"}
            if unknown:
                raise ConfigError(f"unknown pulse keys {sorted(unknown)}", lineno)
            for needed in ("field", "tau_s", "phase_rad"):
                if needed not in pairs:
                    raise ConfigError(f"pulse needs {needed}=", lineno)
            phase: float | None
            if pairs["phase_rad"] == "random":
                phase = None
            else:
                phase = _parse_float(pairs["phase_rad"], "phase_rad", lineno)
            cfg.pulses[name] = PulseDef(
                name,
                pairs["field"],
                _parse_float(pairs["tau_s"], "tau_s", lineno),
                phase,
            )
        elif keyword == "protocol":
            if len(args) != 1 or args[0] not in PROTOCOLS:
                raise ConfigError(f"protocol must be one of {', '.join(PROTOCOLS)}", lineno)
            cfg.protocol = args[0]
        elif keyword == "interval":
            pairs = _keyvals(args, lineno)
            unknown = set(pairs) - set(_INTERVAL_NAMES)
            if unknown:
                raise ConfigError(f"unknown interval names {sorted(unknown)}", lineno)
            for key, value in pairs.items():
                if key in cfg.intervals:
                    raise ConfigError(f"interval {key} already set", lineno)
                cfg.intervals[key] = _parse_float(value, key, lineno)
        elif keyword == "grid":
            if len(args) != 1:
                raise ConfigError("grid takes one <start>:<stop>:<step> token", lineno)
            cfg.grid = parse_grid(args[0], lineno)
        elif keyword == "noise":
            pairs = _keyvals(args, lineno)
            for key, reason in _UNAPPLIED_NOISE_KEYS.items():
                if key in pairs:
                    raise ConfigError(f"{key} is not supported: {reason}", lineno)
            known = {"atoms", "repeats", "seed", "contrast_wri_s"}
            unknown = set(pairs) - known
            if unknown:
                raise ConfigError(f"unknown noise keys {sorted(unknown)}", lineno)
            counts = {}
            for key in ("atoms", "repeats"):
                if key in pairs:
                    counts[key] = _parse_int(pairs[key], key, lineno)
                    if counts[key] < 1:
                        raise ConfigError(f"noise {key} must be >= 1", lineno)
            cfg.noise = NoiseSpec(
                **counts,
                seed=_parse_int(pairs["seed"], "seed", lineno) if "seed" in pairs else 0,
                contrast_wri_s=_parse_float(pairs["contrast_wri_s"], "contrast_wri_s", lineno)
                if "contrast_wri_s" in pairs
                else None,
            )
        elif keyword == "sweep":
            pairs = _keyvals(args, lineno)
            if set(pairs) != {"phis"}:
                raise ConfigError("sweep takes exactly phis=<count>", lineno)
            count = _parse_int(pairs["phis"], "phis", lineno)
            if count < 1:
                raise ConfigError("sweep phis must be >= 1", lineno)
            cfg.sweep_phis = count
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
