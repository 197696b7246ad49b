"""Command-line front end: run protocols from description files, emit CSV.

Scan output columns are ``T_s,P_e,sd``; key-phase sweep output columns are
``phi_S,amplitude,frequency_Hz,phase_rad,offset,decay_s,residual`` (one
fitted row per swept phase).  All output is plain CSV with a header row,
``\\n`` newlines and ``.`` decimal points, suitable for any plotter.

Exit codes: 0 success, 1 internal fault, 2 config error (every description
value the model rejects, read from a file or an option or set in code, is
one: ``run`` raises ``ConfigError``), 3 timing-planner failure, 4 fit
non-convergence where a fit is required (standard error then names each
failed fit's ``reason`` and iteration count).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys

import numpy as np

from .analysis import FitResult, fit_damped_sinusoid, fit_many, phase_spread
from .config import (PROTOCOLS, _SCRAMBLES, ExperimentConfig, GridSpec, _check_grid, _read,
                     parse_config, parse_grid)
from .errors import ConfigError, FitError, PlannerError, RamseyLockError
from .noise import NoiseModel, apply_contrast_decay, measure_scan
from .protocol import ScrambleKey, WriteKey, _template
from .sequence import FringeScan, _scan_fault, scan
from .spinor import TWO_PI, FieldParams, FrameConvention

_SCAN_HEADER = "T_s,P_e,sd"
_FIT_HEADER = "phi_S,amplitude,frequency_Hz,phase_rad,offset,decay_s,residual"


def _fmt(x: float) -> str:
    return repr(float(x))


def _checked(what: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ``ValueError``, ``ArithmeticError`` or
    ``MemoryError`` (a value the model rejects, cannot compute with or cannot
    allocate) becomes a ``ConfigError`` named ``what``."""
    try:
        return make(*args, **kwargs)
    except (ConfigError, PlannerError):
        raise
    except (ValueError, ArithmeticError, MemoryError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _key(cfg: ExperimentConfig, fields, name: str, rng, make, *args, phi=None):
    """``make(field, tau, phase, *args)``, the key of pulse ``name``: the
    phase is ``phi`` when given, else the declared one, else a ``random``
    draw from ``rng``."""
    if name not in cfg.pulses:
        raise ConfigError(f"protocol {cfg.protocol!r} needs a pulse named {name!r}")
    p = cfg.pulses[name]
    if p.field not in fields:
        raise ConfigError(f"pulse {name!r} references undefined field {p.field!r}")
    if phi is None:
        phi = p.phase_rad if p.phase_rad is not None else float(rng.uniform(0.0, TWO_PI))
    return _checked(f"pulse {name!r}", make, fields[p.field], p.tau_s, phi, *args)


def _grid_values(cfg: ExperimentConfig) -> np.ndarray:
    spec, name = cfg.grid, "grid"
    if spec is None:
        # default: two fringe periods of the recording field in 201 points
        detuning_hz = abs(cfg.fields[cfg.pulses["write"].field].detuning_hz)
        if detuning_hz == 0.0:
            raise ConfigError("no grid given and the write field has zero detuning; add a grid")
        spec, name = GridSpec(0.0, 2.0 / detuning_hz, (2.0 / detuning_hz) / 200.0), "default grid"
    _check_grid(spec, name)
    count = int(round((spec.stop - spec.start) / spec.step))
    try:
        grid = spec.start + spec.step * np.arange(count + 1)
        return grid[grid <= spec.stop + 1e-12 * max(1.0, abs(spec.stop))]
    except MemoryError:
        raise ConfigError(f"grid of {count + 1} points does not fit in memory") from None


def _measure(ideal: FringeScan, cfg: ExperimentConfig, rng) -> FringeScan:
    """Apply contrast decay and projective readout when noise is configured."""
    noise = cfg.noise
    if noise is None:
        return ideal
    if noise.contrast_wri_s is not None:
        ideal = _checked("noise", apply_contrast_decay, ideal, noise.contrast_wri_s)
    model = _checked("noise", NoiseModel, atom_count=noise.atoms, repeats=noise.repeats)
    return _checked("noise", measure_scan, ideal, model, rng)


def _write_scan(scan_data: FringeScan, out) -> None:
    if scan_data.p.ndim != 1:
        raise ValueError("a scan CSV holds one fringe; write the rows of a batch one by one")
    out.write(_SCAN_HEADER + "\n")
    for T, p, sd in zip(scan_data.T, scan_data.p, scan_data.sd):
        out.write(f"{_fmt(T)},{_fmt(p)},{_fmt(sd)}\n")


def _write_fits(out, fits: list[FitResult], phases=None) -> int:
    """Write one CSV row per fit, its ``phi_S`` taken from ``phases`` (NaN
    without them), and report on standard error: the phase spread when two
    or more fits converged, then each fit that did not.  Returns 0, or 4
    when a fit did not converge."""
    swept = phases is not None
    phis = [float(phi) for phi in phases] if swept else [math.nan] * len(fits)
    out.write(_FIT_HEADER + "\n")
    for phi, f in zip(phis, fits):
        row = (phi, f.amplitude, f.frequency, f.phase, f.offset, f.decay_time, f.rms_residual)
        out.write(",".join(map(_fmt, row)) + "\n")
    converged = [f for f in fits if f.converged]
    if len(converged) >= 2:
        print(f"phase spread over sweep: {phase_spread(converged):.6f} rad", file=sys.stderr)
    for phi, f in zip(phis, fits):
        if not f.converged:
            what = f"fit at phi_S={phi:.6f}" if swept else "fit"
            print(f"{what} did not converge: {f.reason} after {f.iterations} iterations",
                  file=sys.stderr)
    return 0 if len(converged) == len(fits) else 4


def _float(token: str) -> float:
    """``float`` of a CSV field without the syntax only Python reads: an
    ``_`` between digits or a non-ASCII digit or space."""
    if "_" in token or not token.isascii():
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def _read_scan_csv(stream) -> FringeScan:
    """Parse ``T_s,P_e[,sd]`` rows.

    Blank and ``#`` lines are skipped; the first other line is a header if
    it starts with ``T``.  A malformed row, a field with ``_`` or a
    non-ASCII character, a non-finite value, ``P_e`` outside [0, 1], a
    negative ``sd`` or non-increasing ``T`` raises ``FitError`` naming the
    line; a stream that does not decode raises it too.  A body of
    same-width rows is one numpy pass.
    """
    try:
        text = stream.read().removeprefix("\ufeff")  # a byte-order mark
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise FitError(f"scan CSV is not {exc.encoding} text: byte {byte:#04x}") from None
    lines = text.removesuffix("\n").split("\n")
    header = lines[0].strip().lower().startswith("t")
    data = None
    # numpy skips blank lines, may end a row at a lone "\r", fails late on "#", warns on no
    # rows and reads non-ASCII spaces
    if (text.isascii() and "#" not in text and "" not in lines and "\r" not in lines
            and len(lines) > header
            and ("\r" not in text or text.count("\r") == text.count("\r\n"))):
        with contextlib.suppress(ValueError):
            data = np.loadtxt(lines[header:], delimiter=",", comments=None, ndmin=2)
    if data is not None and data.shape[1] in (2, 3) and len(data) == len(lines) - header:
        rows = np.concatenate([data, np.zeros((len(data), 3 - data.shape[1]))], axis=1)
        linenos = range(1 + header, len(lines) + 1)
    else:
        rows, linenos = [], []
        header_allowed = True
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header_allowed:
                header_allowed = False
                if line.lower().startswith("t"):
                    continue
            parts = line.split(",")
            if len(parts) not in (2, 3):
                raise FitError(f"scan CSV line {lineno}: expected T_s,P_e[,sd]")
            try:
                rows.append((_float(parts[0]), _float(parts[1]),
                             _float(parts[2]) if len(parts) == 3 else 0.0))
            except ValueError as exc:
                raise FitError(f"scan CSV line {lineno}: {exc}") from exc
            linenos.append(lineno)
        if not rows:
            raise FitError("scan CSV holds no data rows")
    T, p, sd = np.asarray(rows, dtype=float).T
    fault = _scan_fault(T, p, sd)
    if fault is not None:
        line = linenos[fault.index]
        raise FitError(f"scan CSV line {line}: {fault.invariant}, got {fault.value}")
    return FringeScan._trusted(T, p, sd)


def _keys(cfg, fields, intervals: dict, rng, phi=None) -> tuple:
    """The configured protocol's scramble keys in pulse order, which fixes
    the order of their ``random`` draws; ``phi`` (a float or a ``(K, 1)``
    array of key phases) replaces the first key's phase.  A wait its plan
    sets is 0 here."""
    keys = []
    for name, interval in _SCRAMBLES[cfg.protocol]:
        if interval is not None and interval not in intervals:
            raise ConfigError(f"protocol {cfg.protocol!r} needs interval {interval}=")
        wait = 0.0 if interval is None else intervals[interval]
        keys.append(_key(cfg, fields, name, rng, ScrambleKey, wait, phi=None if keys else phi))
    return tuple(keys)


def run(
    cfg: ExperimentConfig,
    out=sys.stdout,
    *,
    seed: int | None = None,
    input_stream=None,
) -> int:
    """Execute the configured protocol, writing CSV to ``out``.

    ``seed`` overrides the noise-block seed (and seeds random key phases
    for otherwise noiseless runs).  ``input_stream`` supplies the scan CSV
    for the ``fit`` protocol.  A value of ``cfg`` the model rejects raises
    ``ConfigError`` naming its statement, as do an unknown protocol, an
    interval ``parse_config`` would refuse, a seed not an integer >= 0, a
    ``sweep_phis`` that is not an integer >= 1 and a key-phase sweep of
    ``attack`` or of a protocol without a scramble pulse.
    """
    if cfg.protocol not in PROTOCOLS:
        raise ConfigError(f"protocol must be one of {', '.join(PROTOCOLS)}")
    n = cfg.sweep_phis
    if n is not None and not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ConfigError(f"sweep_phis must be an integer >= 1, got {n!r}")
    if n and (cfg.protocol == "attack" or not _SCRAMBLES.get(cfg.protocol)):
        raise ConfigError(f"protocol {cfg.protocol!r} does not support a key-phase sweep")
    if cfg.protocol == "fit":
        stream = input_stream if input_stream is not None else sys.stdin
        return _write_fits(out, [fit_damped_sinusoid(_read_scan_csv(stream))])

    fields = {label: _checked(f"field {label!r}", FieldParams, TWO_PI * f.rabi_hz,
                              TWO_PI * f.detuning_hz, label) for label, f in cfg.fields.items()}
    frame = _checked("frame", FrameConvention, cfg.frame_mode, TWO_PI * cfg.frame_omega_a_hz)
    try:  # read as parse_config reads an interval statement
        intervals = _read("interval", [f"{k}={float(v)!r}" for k, v in cfg.intervals.items()], None)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"interval: {exc}") from None
    if seed is None:
        seed = cfg.noise.seed if cfg.noise is not None else 0
    if not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    write_key = _key(cfg, fields, "write", rng, WriteKey)
    grid = _checked("grid", _grid_values, cfg)
    phases = phi = None
    if n:  # one scan on the key-phase axis, one row per phase
        phases = _checked("sweep", np.linspace, 0.0, TWO_PI, n, endpoint=False)
        phi = phases[:, None]
    elif cfg.protocol == "attack":  # the reader does not hold the key phase
        phi = float(rng.uniform(0.0, TWO_PI))
    template = _checked("interval", _template, cfg.protocol, write_key,
                        _keys(cfg, fields, intervals, rng, phi), intervals, frame=frame,
                        clock_during_pulses=cfg.clock_during_pulses)
    ideal = _checked("grid", scan, template, grid)
    measured = _measure(ideal, cfg, rng)
    if phases is None:
        _write_scan(measured, out)
        return 0
    return _write_fits(out, fit_many(measured), phases)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseylock",
        description="Simulate write/scramble/retrieve pulse protocols and emit CSV.",
    )
    parser.add_argument("config", help="experiment description file")
    parser.add_argument("--protocol", choices=PROTOCOLS, help="override the config's protocol")
    parser.add_argument("--grid", help="override the scan grid, start:stop:step (s, ms, us)")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--sweep-phis", type=int, dest="sweep_phis",
                        help="sweep the key phase over this many values and emit fits")
    parser.add_argument("--clock-during-pulses", choices=("on", "off"), dest="clock",
                        help="override whether the timeline clock advances during pulses")
    parser.add_argument("--output", help="write CSV here instead of standard output")
    parser.add_argument("--input", help="scan CSV for the fit protocol (default: stdin)")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.protocol:
        cfg.protocol = args.protocol
    if args.grid:
        cfg.grid = parse_grid(args.grid, name="--grid")
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    if args.sweep_phis is not None:
        if args.sweep_phis < 1:
            raise ConfigError("--sweep-phis must be >= 1")
        cfg.sweep_phis = args.sweep_phis
    if args.clock:
        cfg.clock_during_pulses = args.clock == "on"
    return cfg


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        with open(args.config, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8").removeprefix("\ufeff")  # a byte-order mark
        except UnicodeDecodeError as exc:
            line = len((data[:exc.start].decode("utf-8") + "x").splitlines())  # as parse_config
            raise ConfigError(f"byte {data[exc.start]:#04x} is not UTF-8 text", line) from None
        cfg = _apply_overrides(parse_config(text), args)

        out = io.StringIO() if args.output else sys.stdout
        with open(args.input, encoding="utf-8") if args.input else contextlib.nullcontext() as src:
            code = run(cfg, out, seed=args.seed, input_stream=src)
        if args.output:  # opened only now: a run that stops with an error leaves it as it was
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(out.getvalue())
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PlannerError as exc:
        print(f"planner error: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except RamseyLockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
