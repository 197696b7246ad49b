"""The four benchmark workloads.

``WORKLOADS[name](rl, seed)`` builds a workload from the workload seed,
where ``rl`` is the freshly imported ``ramseylock`` package.  The program
never sees the seed, only inputs generated from it: key phases, noise
seeds and CSV text.  A workload holds one cycle of ``items``; ``run(item)``
is one timed item and ``check(item, output)`` its output check, which the
benchmark runs outside the timed interval.  Items reach the program through
module attributes at call time, so trace wrappers installed on those
attributes see every call.

Tolerances come from the test suite: clock-off retrieval stays within 0.02
(single) and 0.05 (stacked) of its phi_S = 0 twin, and every fitted fringe
frequency lies within 1 % of the 110 Hz recording-field detuning.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

#: Fringe frequency every fit must find: the detuning of field W.
FRINGE_HZ = 110.0
FREQ_RTOL = 0.01

#: 201 points, 0-20 ms in 0.1 ms steps (the table1.cfg grid).
GRID_201 = np.arange(201) * 1e-4
#: 2,000 points, 0-199.9 ms in 0.1 ms steps.
GRID_2000 = np.arange(2000) * 1e-4

#: Key-phase diffusion rate (rad/s) of the Monte Carlo ensemble: over the
#: default 47 s between shots the key phase spreads by about 0.5 rad, so
#: trials differ while the pooled fringe keeps its frequency.
MC_LINEWIDTH = 5e-3
MC_TRIALS = 10


class Workload(NamedTuple):
    name: str
    items: list
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def _fields(rl):
    write = rl.FieldParams(TWO_PI * 565.0, TWO_PI * 110.0, "W")
    scramble = rl.FieldParams(TWO_PI * 169.0, TWO_PI * 100.0, "S")
    return rl.WriteKey(write, tau=0.44e-3), scramble


def _freq_ok(hz: float) -> bool:
    return abs(hz - FRINGE_HZ) <= FREQ_RTOL * FRINGE_HZ


def _p_ok(p: np.ndarray, size: int) -> bool:
    return p.shape == (size,) and bool(np.all((p >= 0.0) & (p <= 1.0)))


def _run_cli(rl, text: str, csv: str | None = None) -> CliResult:
    """The in-memory equivalent of ``ramseylock cfg [--input scan.csv]``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cfg = rl.config.parse_config(text)
        stream = io.StringIO(csv) if csv is not None else None
        code = rl.cli.run(cfg, out, input_stream=stream)
    return CliResult(code, out.getvalue(), err.getvalue())


def _fit_rows_ok(result: CliResult, rows: int) -> bool:
    lines = result.stdout.splitlines()
    if result.code != 0 or len(lines) != rows + 1 or not lines[0].startswith("phi_S,"):
        return False
    return all(_freq_ok(float(line.split(",")[2])) for line in lines[1:])


def _table1(rl) -> str:
    return (Path(rl.__file__).parent / "data" / "table1.cfg").read_text(encoding="utf-8")


class DenseItem(NamedTuple):
    template: Any
    twin: np.ndarray | None  # phi_S = 0 scan for clock-off retrieval
    tol: float


def dense_scan(rl, seed: int) -> Workload:
    """One 2,000-point scan per item; templates cycle through ramsey /
    retrieve / double-retrieve x rotating / lab frame x clock off / on."""
    rng = np.random.default_rng(seed)
    write, scramble = _fields(rl)
    # a fast 0.8*pi-area scrambler for the stacked scheme, as in the tests
    fast = rl.FieldParams(TWO_PI * 5000.0, TWO_PI * 100.0, "S")
    wide_tau = 0.8 * math.pi / fast.rabi

    def template(kind, phis, frame, clock):
        if kind == "ramsey":
            return rl.build_write_read(write, 0.0, frame=frame, clock_during_pulses=clock, scanned=True)
        if kind == "retrieve":
            key = rl.ScrambleKey(scramble, 1.48e-3, phis[0], 5e-3)
            plan = rl.plan_retrieval(scramble.detuning, 1e-3)
            return rl.build_retrieved(write, key, plan, 0.0, frame=frame,
                                      clock_during_pulses=clock, scanned=True)
        plan = rl.plan_double_retrieval(fast.detuning, fast.detuning, wide_tau, min_T3=1e-3,
                                        min_T2_plus_T4=1e-3, clock_during_pulses=clock)
        key_1 = rl.ScrambleKey(fast, wide_tau, phis[0], 5e-3)
        key_2 = rl.ScrambleKey(fast, wide_tau, phis[1], plan.T2)
        return rl.build_double_retrieved(write, key_1, key_2, plan, 0.0, frame=frame, scanned=True)

    items = []
    for frame in (rl.ROTATING, rl.FrameConvention("lab", TWO_PI * 1000.0)):
        for clock in (False, True):
            for kind, tol in (("ramsey", 0.0), ("retrieve", 0.02), ("double-retrieve", 0.05)):
                phis = [float(x) for x in rng.uniform(0.0, TWO_PI, 2)]
                twin = None
                if kind != "ramsey" and not clock:
                    twin = rl.scan(template(kind, (0.0, 0.0), frame, clock), GRID_2000).p
                items.append(DenseItem(template(kind, phis, frame, clock), twin, tol))

    def run(item):
        return rl.sequence.scan(item.template, GRID_2000)

    def check(item, out):
        p = np.asarray(out.p)
        if not _p_ok(p, GRID_2000.size):
            return False
        return item.twin is None or float(np.max(np.abs(p - item.twin))) <= item.tol

    return Workload("dense_scan", items, run, check)


def fit_reduce(rl, seed: int) -> Workload:
    """One ``protocol fit`` CLI run per item on a 201-point scan CSV made in
    set-up from seeded ramsey / retrieve / scramble / attack runs, noisy
    (sd > 0, weighted fit) and noiseless (sd = 0, unweighted fit)."""
    rng = np.random.default_rng(seed)
    table = _table1(rl).replace("protocol ramsey\n", "")
    items = []
    for protocol in ("ramsey", "retrieve", "scramble", "attack"):
        for noisy in (True, False):
            phi = float(rng.uniform(0.0, TWO_PI))
            noise_seed = int(rng.integers(2**31))
            text = table.replace("phase_rad=random", f"phase_rad={phi!r}") + f"protocol {protocol}\n"
            if noisy:
                text += f"noise atoms=50000 repeats=5 seed={noise_seed}\n"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = rl.cli.run(rl.config.parse_config(text), out,
                                  seed=None if noisy else noise_seed)
            if code != 0:
                raise RuntimeError(f"fit_reduce set-up: {protocol} run exited {code}: {err.getvalue()}")
            items.append(out.getvalue())

    def run(csv):
        return _run_cli(rl, "protocol fit\n", csv)

    def check(csv, out):
        return _fit_rows_ok(out, 1)

    return Workload("fit_reduce", items, run, check)


class McItem(NamedTuple):
    key: Any
    model: Any


def monte_carlo(rl, seed: int) -> Workload:
    """One ``monte_carlo_scramble`` ensemble per item: 10 trials x 201
    points, 5 repeats x 50,000 atoms, a small non-zero linewidth."""
    rng = np.random.default_rng(seed)
    write, scramble = _fields(rl)
    items = []
    for _ in range(10):
        key = rl.ScrambleKey(scramble, 1.48e-3, float(rng.uniform(0.0, TWO_PI)), 5e-3)
        model = rl.NoiseModel(linewidth=MC_LINEWIDTH, atom_count=50_000, repeats=5,
                              seed=int(rng.integers(2**31)))
        items.append(McItem(key, model))

    def run(item):
        return rl.noise.monte_carlo_scramble(write, item.key, GRID_201, MC_TRIALS, item.model)

    def check(item, out):
        if len(out.scans) != MC_TRIALS:
            return False
        for sc in (*out.scans, out.pooled):
            if not _p_ok(np.asarray(sc.p), GRID_201.size) or np.any(np.asarray(sc.sd) < 0.0):
                return False
        return _freq_ok(rl.fit_damped_sinusoid(out.pooled).frequency)

    return Workload("monte_carlo", items, run, check)


#: Extra description lines for the key sweep: the second scrambling field
#: and the scramble1 / scramble2 pulses double-retrieve needs.
_SWEEP_LINES = (
    "field S2 rabi_hz=240 detuning_hz=80\n"
    "pulse scramble1 field=S tau_s=0.00148 phase_rad=random\n"
    "pulse scramble2 field=S2 tau_s=0.0008 phase_rad={phi2!r}\n"
    "noise atoms=50000 repeats=5 seed={noise_seed} contrast_wri_s=0.1\n"
    "sweep phis=8\n"
    "protocol {protocol}\n"
)


def key_sweep(rl, seed: int) -> Workload:
    """One in-process CLI key-phase sweep (8 phases) per item; protocols
    cycle through retrieve / double-retrieve / scramble / double-scramble."""
    rng = np.random.default_rng(seed)
    table = _table1(rl).replace("protocol ramsey\n", "")
    items = []
    for _ in range(2):
        for protocol in ("retrieve", "double-retrieve", "scramble", "double-scramble"):
            items.append(table + _SWEEP_LINES.format(
                phi2=float(rng.uniform(0.0, TWO_PI)),
                noise_seed=int(rng.integers(2**31)),
                protocol=protocol,
            ))

    def run(text):
        return _run_cli(rl, text)

    def check(text, out):
        return _fit_rows_ok(out, 8)

    return Workload("key_sweep", items, run, check)


WORKLOADS = {
    "dense_scan": dense_scan,
    "fit_reduce": fit_reduce,
    "monte_carlo": monte_carlo,
    "key_sweep": key_sweep,
}
