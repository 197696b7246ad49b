"""Command-line front end: run protocols from description files, emit CSV.

Scan output columns are ``T_s,P_e,sd``; key-phase sweep output columns are
``phi_S,amplitude,frequency_Hz,phase_rad,offset,decay_s,residual`` (one
fitted row per swept phase).  All output is plain CSV with a header row,
``\\n`` newlines and ``.`` decimal points, suitable for any plotter.

Exit codes: 0 success, 2 config error, 3 timing-planner failure, 4 fit
non-convergence where a fit is required.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .analysis import FitResult, fit_damped_sinusoid, phase_spread
from .config import ExperimentConfig, GridSpec, parse_config, parse_duration
from .errors import ConfigError, FitError, PlannerError, RamseyLockError
from .noise import NoiseModel, apply_contrast_decay, simulate_measurement
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
from .sequence import FringeScan, scan
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


def _scramble_key(cfg, fields, name: str, t1_name: str, rng, *, keep_random: bool) -> ScrambleKey:
    p = _pulse_def(cfg, name)
    if t1_name not in cfg.intervals:
        raise ConfigError(f"protocol {cfg.protocol!r} needs interval {t1_name}=")
    phase = p.phase_rad
    if phase is None and not keep_random:
        phase = float(rng.uniform(0.0, TWO_PI))
    return ScrambleKey(fields[p.field], p.tau_s, phase, cfg.intervals[t1_name])


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
    grid = spec.start + spec.step * np.arange(count + 1)
    return grid[grid <= spec.stop + 1e-12 * max(1.0, abs(spec.stop))]


def _noise_model(cfg: ExperimentConfig, seed_override: int | None) -> NoiseModel | None:
    n = cfg.noise
    if n is None and seed_override is None:
        return None
    if n is None:
        return NoiseModel(seed=seed_override)
    return NoiseModel(
        linewidth=_angular(n.linewidth_hz),
        atom_count=n.atoms,
        repeats=n.repeats,
        contrast_time_write=n.contrast_wri_s if n.contrast_wri_s is not None else math.inf,
        contrast_time_scramble=n.contrast_sri_s if n.contrast_sri_s is not None else math.inf,
        seed=n.seed if seed_override is None else seed_override,
    )


def _measure(ideal: FringeScan, cfg: ExperimentConfig, model: NoiseModel | None, rng) -> FringeScan:
    """Apply contrast decay and projective readout when noise is configured."""
    if cfg.noise is None or model is None:
        return ideal
    result = ideal
    if cfg.noise.contrast_wri_s is not None:
        result = apply_contrast_decay(result, cfg.noise.contrast_wri_s)
    means = np.empty_like(result.p)
    sds = np.empty_like(result.p)
    for i, p in enumerate(result.p):
        means[i], sds[i] = simulate_measurement(float(p), model, rng)
    return FringeScan(result.T, np.clip(means, 0.0, 1.0), sds, label=result.label)


def _write_scan(scan_data: FringeScan, out) -> None:
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


def _read_scan_csv(stream) -> FringeScan:
    """Parse ``T_s,P_e[,sd]`` rows.

    Blank and ``#`` lines are skipped; the first other line is a header if
    it starts with ``T``.  A malformed row, a non-finite value, ``P_e``
    outside [0, 1], a negative ``sd`` or non-increasing ``T`` raises
    ``FitError``, naming the line where there is one.
    """
    rows, linenos = [], []
    header_allowed = True
    for lineno, line in enumerate(stream, start=1):
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
            T = float(parts[0])
            p = float(parts[1])
            sd = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError as exc:
            raise FitError(f"scan CSV line {lineno}: {exc}") from exc
        rows.append((T, p, sd))
        linenos.append(lineno)
    if not rows:
        raise FitError("scan CSV holds no data rows")
    arr = np.asarray(rows, dtype=float)
    T, p, sd = arr.T
    ok = np.isfinite(arr).all(axis=1) & (p >= 0.0) & (p <= 1.0) & (sd >= 0.0)
    if not ok.all():
        i = int(np.argmin(ok))
        raise FitError(
            f"scan CSV line {linenos[i]}: T_s,P_e,sd = {rows[i]} must be finite, "
            "with P_e in [0, 1] and sd >= 0"
        )
    try:
        return FringeScan(T, p, sd)
    except ValueError as exc:
        raise FitError(f"scan CSV: {exc}") from exc


def _double_retrieve_parts(cfg, fields, rng, *, s1_keeps_random: bool = False):
    """Resolve both scramble keys and the timing plan once per run."""
    s1 = _scramble_key(cfg, fields, "scramble1", "T1", rng, keep_random=s1_keeps_random)
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
    phase2 = s2_def.phase_rad
    if phase2 is None:
        phase2 = float(rng.uniform(0.0, TWO_PI))
    s2 = ScrambleKey(fields[s2_def.field], s2_def.tau_s, phase2, plan.T2)
    return s1, s2, plan


def _sweep_template(cfg, fields, write_key, rng, frame):
    """Return callable phi -> scan template; keys are resolved once so a
    randomized secondary phase stays fixed across the sweep."""
    clock = cfg.clock_during_pulses
    if cfg.protocol == "scramble":
        key = _scramble_key(cfg, fields, "scramble", "T1", rng, keep_random=True)
        return lambda phi: build_scrambled(
            write_key, replace(key, phi_S=phi), 0.0,
            frame=frame, clock_during_pulses=clock, scanned=True,
        )
    if cfg.protocol == "retrieve":
        key = _scramble_key(cfg, fields, "scramble", "T1", rng, keep_random=True)
        plan = plan_retrieval(key.field.detuning, cfg.intervals.get("T2", 0.0))
        return lambda phi: build_retrieved(
            write_key, replace(key, phi_S=phi), plan, 0.0,
            frame=frame, clock_during_pulses=clock, scanned=True,
        )
    if cfg.protocol == "double-scramble":
        s1 = _scramble_key(cfg, fields, "scramble1", "T1", rng, keep_random=True)
        s2 = _scramble_key(cfg, fields, "scramble2", "T2", rng, keep_random=False)
        return lambda phi: build_double_scrambled(
            write_key, replace(s1, phi_S=phi), s2, 0.0,
            frame=frame, clock_during_pulses=clock, scanned=True,
        )
    if cfg.protocol == "double-retrieve":
        s1, s2, plan = _double_retrieve_parts(cfg, fields, rng, s1_keeps_random=True)
        return lambda phi: build_double_retrieved(
            write_key, replace(s1, phi_S=phi), s2, plan, 0.0, frame=frame, scanned=True,
        )
    raise ConfigError(f"protocol {cfg.protocol!r} does not support a key-phase sweep")


def _single_template(cfg, fields, write_key, rng, frame):
    clock = cfg.clock_during_pulses
    if cfg.protocol == "ramsey":
        return build_write_read(write_key, 0.0, frame=frame, clock_during_pulses=clock, scanned=True)
    if cfg.protocol == "scramble":
        key = _scramble_key(cfg, fields, "scramble", "T1", rng, keep_random=False)
        return build_scrambled(write_key, key, 0.0, frame=frame, clock_during_pulses=clock, scanned=True)
    if cfg.protocol == "retrieve":
        key = _scramble_key(cfg, fields, "scramble", "T1", rng, keep_random=False)
        plan = plan_retrieval(key.field.detuning, cfg.intervals.get("T2", 0.0))
        return build_retrieved(write_key, key, plan, 0.0, frame=frame,
                               clock_during_pulses=clock, scanned=True)
    if cfg.protocol == "double-scramble":
        s1 = _scramble_key(cfg, fields, "scramble1", "T1", rng, keep_random=False)
        s2 = _scramble_key(cfg, fields, "scramble2", "T2", rng, keep_random=False)
        return build_double_scrambled(write_key, s1, s2, 0.0, frame=frame,
                                      clock_during_pulses=clock, scanned=True)
    if cfg.protocol == "double-retrieve":
        s1, s2, plan = _double_retrieve_parts(cfg, fields, rng)
        return build_double_retrieved(write_key, s1, s2, plan, 0.0, frame=frame, scanned=True)
    raise ConfigError(f"unhandled protocol {cfg.protocol!r}")


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
    for the ``fit`` protocol.
    """
    if cfg.protocol == "fit":
        stream = input_stream if input_stream is not None else sys.stdin
        fit = fit_damped_sinusoid(_read_scan_csv(stream))
        out.write(_FIT_HEADER + "\n")
        _write_fit_row(out, math.nan, fit)
        return 0 if fit.converged else 4

    fields = _build_fields(cfg)
    frame = _frame(cfg)
    model = _noise_model(cfg, seed)
    rng = np.random.default_rng(model.seed if model is not None else 0)
    write_key = _write_key(cfg, fields)
    grid = _grid_values(cfg, fields)

    if cfg.protocol == "attack":
        key = _scramble_key(cfg, fields, "scramble", "T1", rng, keep_random=True)
        key = replace(key, phi_S=None)
        ideal = secret_readout(write_key, key, grid, rng, frame=frame)
        _write_scan(_measure(ideal, cfg, model, rng), out)
        return 0

    if cfg.sweep_phis:
        make = _sweep_template(cfg, fields, write_key, rng, frame)
        phases = np.linspace(0.0, TWO_PI, cfg.sweep_phis, endpoint=False)
        out.write(_FIT_HEADER + "\n")
        fits = []
        for phi in phases:
            measured = _measure(scan(make(float(phi)), grid), cfg, model, rng)
            fit = fit_damped_sinusoid(measured)
            fits.append(fit)
            _write_fit_row(out, float(phi), fit)
        converged = [f for f in fits if f.converged]
        if len(converged) >= 2:
            print(f"phase spread over sweep: {phase_spread(converged):.6f} rad", file=sys.stderr)
        return 0 if all(f.converged for f in fits) else 4

    template = _single_template(cfg, fields, write_key, rng, frame)
    _write_scan(_measure(scan(template, grid), cfg, model, rng), out)
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseylock",
        description="Simulate write/scramble/retrieve pulse protocols and emit CSV.",
    )
    parser.add_argument("config", help="experiment description file")
    parser.add_argument("--protocol", choices=("ramsey", "scramble", "retrieve", "double-scramble",
                                               "double-retrieve", "attack", "fit"),
                        help="override the config's protocol")
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
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise ConfigError("--grid must be start:stop:step")
        start, stop, step = (parse_duration(p) for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError("--grid needs stop >= start and step > 0")
        cfg.grid = GridSpec(start, stop, step)
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
