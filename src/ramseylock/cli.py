"""Command-line front end: run protocols from description files, emit CSV.

Scan output columns are ``T_s,P_e,sd``; key-phase sweep output columns are
``phi_S,amplitude,frequency_Hz,phase_rad,offset,decay_s,residual`` (one
fitted row per swept phase).  All output is plain CSV with a header row,
``\\n`` newlines and ``.`` decimal points, suitable for any plotter.

Exit codes: 0 success, 2 config error (a non-finite number in a
description file or ``--grid`` is one), 3 timing-planner failure, 4 fit
non-convergence where a fit is required (standard error then names each
failed fit's ``reason`` and iteration count).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import replace

import numpy as np

from .analysis import FitResult, fit_damped_sinusoid, fit_many, phase_spread
from .config import PROTOCOLS, ExperimentConfig, GridSpec, parse_config, parse_grid
from .errors import ConfigError, FitError, PlannerError, RamseyLockError
from .noise import NoiseModel, apply_contrast_decay, measure_scan
from .protocol import (
    ScrambleKey,
    WriteKey,
    build_double_retrieved,
    build_double_scrambled,
    build_retrieved,
    build_scrambled,
    build_write_read,
    plan_double_retrieval,
    plan_retrieval,
    secret_readout,
)
from .sequence import FringeScan, Sequence, _scan_fault, scan
from .spinor import TWO_PI, FieldParams, FrameConvention

_SCAN_HEADER = "T_s,P_e,sd"
_FIT_HEADER = "phi_S,amplitude,frequency_Hz,phase_rad,offset,decay_s,residual"


def _fmt(x: float) -> str:
    return repr(float(x))


def _angular(hz: float) -> float:
    return TWO_PI * hz


def _build_fields(cfg: ExperimentConfig) -> dict[str, FieldParams]:
    fields = {}
    for label, f in cfg.fields.items():
        try:
            fields[label] = FieldParams(_angular(f.rabi_hz), _angular(f.detuning_hz), label)
        except ValueError as exc:
            raise ConfigError(f"field {label!r}: {exc}") from exc
    return fields


def _frame(cfg: ExperimentConfig) -> FrameConvention:
    return FrameConvention(cfg.frame_mode, _angular(cfg.frame_omega_a_hz))


def _pulse_def(cfg: ExperimentConfig, name: str):
    if name not in cfg.pulses:
        raise ConfigError(f"protocol {cfg.protocol!r} needs a pulse named {name!r}")
    return cfg.pulses[name]


def _write_key(cfg: ExperimentConfig, fields) -> WriteKey:
    p = _pulse_def(cfg, "write")
    phase = 0.0 if p.phase_rad is None else p.phase_rad
    return WriteKey(fields[p.field], tau=p.tau_s, phase=phase)


def _scramble_key(cfg, fields, name: str, wait: str | float, rng, phi=None) -> ScrambleKey:
    """Key of pulse ``name`` after ``wait``: an interval name or a planned
    wait in seconds.  ``phi`` replaces the pulse's phase; without it a
    ``random`` phase is drawn from ``rng``."""
    p = _pulse_def(cfg, name)
    if isinstance(wait, str):
        if wait not in cfg.intervals:
            raise ConfigError(f"protocol {cfg.protocol!r} needs interval {wait}=")
        wait = cfg.intervals[wait]
    if phi is None:
        phi = p.phase_rad if p.phase_rad is not None else float(rng.uniform(0.0, TWO_PI))
    return ScrambleKey(fields[p.field], p.tau_s, phi, wait)


def _grid_values(cfg: ExperimentConfig, fields) -> np.ndarray:
    spec = cfg.grid
    if spec is None:
        # default: two fringe periods of the recording field in 201 points
        p = _pulse_def(cfg, "write")
        detuning_hz = abs(cfg.fields[p.field].detuning_hz)
        if detuning_hz == 0.0:
            raise ConfigError("no grid given and the write field has zero detuning; add a grid")
        spec = GridSpec(0.0, 2.0 / detuning_hz, (2.0 / detuning_hz) / 200.0)
    count = int(round((spec.stop - spec.start) / spec.step))
    try:
        grid = spec.start + spec.step * np.arange(count + 1)
        return grid[grid <= spec.stop + 1e-12 * max(1.0, abs(spec.stop))]
    except MemoryError:
        raise ConfigError(f"grid of {count + 1} points does not fit in memory") from None


def _noise_model(cfg: ExperimentConfig) -> NoiseModel | None:
    """Readout model of the ``noise`` block; ``None`` without one."""
    n = cfg.noise
    return None if n is None else NoiseModel(atom_count=n.atoms, repeats=n.repeats)


def _measure(ideal: FringeScan, cfg: ExperimentConfig, model: NoiseModel | None, rng) -> FringeScan:
    """Apply contrast decay and projective readout when noise is configured."""
    if model is None:
        return ideal
    if cfg.noise.contrast_wri_s is not None:
        ideal = apply_contrast_decay(ideal, cfg.noise.contrast_wri_s)
    return measure_scan(ideal, model, rng)


def _write_scan(scan_data: FringeScan, out) -> None:
    if scan_data.p.ndim != 1:
        raise ValueError("a scan CSV holds one fringe; write the rows of a batch one by one")
    out.write(_SCAN_HEADER + "\n")
    for T, p, sd in zip(scan_data.T, scan_data.p, scan_data.sd):
        out.write(f"{_fmt(T)},{_fmt(p)},{_fmt(sd)}\n")


def _write_fit_row(out, phi: float, fit: FitResult) -> None:
    out.write(
        ",".join(
            [
                _fmt(phi),
                _fmt(fit.amplitude),
                _fmt(fit.frequency),
                _fmt(fit.phase),
                _fmt(fit.offset),
                _fmt(fit.decay_time),
                _fmt(fit.rms_residual),
            ]
        )
        + "\n"
    )


def _report_unconverged(what: str, fit: FitResult) -> None:
    print(f"{what} did not converge: {fit.reason} after {fit.iterations} iterations",
          file=sys.stderr)


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
    line.  A body of same-width rows is one numpy pass.
    """
    text = stream.read()
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


#: The protocols a key-phase sweep runs on, each with its first scramble
#: pulse: the key whose phase a sweep replaces.
_FIRST_SCRAMBLE = {
    "scramble": "scramble",
    "retrieve": "scramble",
    "double-scramble": "scramble1",
    "double-retrieve": "scramble1",
}


def _template(cfg, fields, write_key, rng, frame, phi=None) -> Sequence:
    """The configured protocol's scan template.

    ``phi`` (a float or a ``(K, 1)`` array of key phases) replaces the first
    scramble key's phase; without it a ``random`` phase is drawn from
    ``rng``.  Keys resolve in timeline order (scramble-1, the timing plan,
    scramble-2), which fixes the order of the draws.
    """
    opts = dict(frame=frame, scanned=True)
    if cfg.protocol == "ramsey":
        return build_write_read(write_key, 0.0, clock_during_pulses=cfg.clock_during_pulses, **opts)
    s1 = _scramble_key(cfg, fields, _FIRST_SCRAMBLE[cfg.protocol], "T1", rng, phi)
    if cfg.protocol == "double-retrieve":
        s2_def = _pulse_def(cfg, "scramble2")
        plan = plan_double_retrieval(
            s1.field.detuning,
            fields[s2_def.field].detuning,
            s2_def.tau_s,
            min_T3=cfg.intervals.get("T3", 0.0),
            min_T2_plus_T4=cfg.intervals.get("T2", 0.0) + cfg.intervals.get("T4", 0.0),
            clock_during_pulses=cfg.clock_during_pulses,
            T2=cfg.intervals.get("T2"),
        )
        s2 = _scramble_key(cfg, fields, "scramble2", plan.T2, rng)
        return build_double_retrieved(write_key, s1, s2, plan, 0.0, **opts)
    opts["clock_during_pulses"] = cfg.clock_during_pulses
    if cfg.protocol == "scramble":
        return build_scrambled(write_key, s1, 0.0, **opts)
    if cfg.protocol == "retrieve":
        plan = plan_retrieval(s1.field.detuning, cfg.intervals.get("T2", 0.0))
        return build_retrieved(write_key, s1, plan, 0.0, **opts)
    s2 = _scramble_key(cfg, fields, "scramble2", "T2", rng)
    return build_double_scrambled(write_key, s1, s2, 0.0, **opts)


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
    for the ``fit`` protocol.  A negative seed, or a key-phase sweep of a
    protocol without a scramble key, raises ``ConfigError``.
    """
    if cfg.sweep_phis and cfg.protocol not in _FIRST_SCRAMBLE:
        raise ConfigError(f"protocol {cfg.protocol!r} does not support a key-phase sweep")
    if cfg.protocol == "fit":
        stream = input_stream if input_stream is not None else sys.stdin
        fit = fit_damped_sinusoid(_read_scan_csv(stream))
        out.write(_FIT_HEADER + "\n")
        _write_fit_row(out, math.nan, fit)
        if not fit.converged:
            _report_unconverged("fit", fit)
            return 4
        return 0

    fields = _build_fields(cfg)
    frame = _frame(cfg)
    model = _noise_model(cfg)
    if seed is None:
        seed = cfg.noise.seed if cfg.noise is not None else 0
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    write_key = _write_key(cfg, fields)
    grid = _grid_values(cfg, fields)

    if cfg.protocol == "attack":
        # the reader does not hold the key phase: secret_readout draws one
        key = replace(_scramble_key(cfg, fields, "scramble", "T1", rng, phi=0.0), phi_S=None)
        ideal = secret_readout(write_key, key, grid, rng, frame=frame,
                               clock_during_pulses=cfg.clock_during_pulses)
        _write_scan(_measure(ideal, cfg, model, rng), out)
        return 0

    if cfg.sweep_phis:
        phases = np.linspace(0.0, TWO_PI, cfg.sweep_phis, endpoint=False)
        template = _template(cfg, fields, write_key, rng, frame, phi=phases[:, None])
        out.write(_FIT_HEADER + "\n")
        # one scan on the key-phase axis; rows are read out in phase order
        # and fitted in one call
        fits = fit_many(_measure(scan(template, grid), cfg, model, rng))
        for phi, fit in zip(phases, fits):
            _write_fit_row(out, float(phi), fit)
        converged = [f for f in fits if f.converged]
        if len(converged) >= 2:
            print(f"phase spread over sweep: {phase_spread(converged):.6f} rad", file=sys.stderr)
        for phi, fit in zip(phases, fits):
            if not fit.converged:
                _report_unconverged(f"fit at phi_S={float(phi):.6f}", fit)
        return 0 if len(converged) == len(fits) else 4

    template = _template(cfg, fields, write_key, rng, frame)
    _write_scan(_measure(scan(template, grid), cfg, model, rng), out)
    return 0


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
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        cfg = _apply_overrides(cfg, args)

        input_stream = None
        if args.input:
            input_stream = open(args.input, "r", encoding="utf-8")
        try:
            if args.output:
                with open(args.output, "w", encoding="utf-8", newline="") as out:
                    return run(cfg, out, seed=args.seed, input_stream=input_stream)
            return run(cfg, sys.stdout, seed=args.seed, input_stream=input_stream)
        finally:
            if input_stream is not None:
                input_stream.close()
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
