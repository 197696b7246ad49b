"""ramseylock benchmark: one workload per run, drift-corrected timings.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense_scan --seed 1 --seconds 20 --trace 0

The run is a closed loop in one process on one thread: a single caller,
and each item starts only when the previous one has returned.  Items cycle
through the workload's inputs in whole cycles until ``--seconds`` have
passed and at least ``MIN_ITEMS`` items ran.  Every item's output is
checked outside the timed interval; a raise, an unexpected exit code or a
failed check counts as a failed item.

Every timing is multiplied by ``NOMINAL_S / local_ref`` (see
``refkernel.py``), the reference kernel's mean in the gaps around it.
Raw wall-clock figures are kept as ``host.*`` diagnostics.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over one cycle of items and prints the
per-layer metrics (see ``tracing.py``).  The last stdout line is the
result object; earlier ``#`` lines record the environment and diagnostics,
which are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP to one thread before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import refkernel  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: At least 100 items put 10 beyond p90; 120 steadies the slowest workload
#: (key_sweep, about 0.2 s per item).
MIN_ITEMS = 120
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Items run once at the end of each set-up.
WARMUP_ITEMS = 2
#: The loop stops after this long even if MIN_ITEMS is not reached.
MAX_LOOP_S = 120.0

LAYERS = ("sequence", "protocol", "noise", "analysis", "config", "cli")
#: per-layer counts, totals over one traced pass (one cycle of items)
COUNT_METRICS = (
    "sequence.scan.calls", "sequence.scan.points", "sequence.evolve.calls",
    "spinor.pulse_unitary.calls", "spinor.free_unitary.calls",
    "protocol.build.calls", "protocol.plan.calls",
    "noise.measure.calls", "noise.sample_phase.calls",
    "analysis.fit.calls", "config.parse.calls",
    "cli.run.calls", "cli.run.nonzero_exits",
)
#: self-time metric (ms per item) -> the span name or layer it sums
SELF_MS = {
    "sequence.scan.self_ms": "sequence.scan",
    "protocol.self_ms": "protocol",
    "noise.measure.self_ms": "noise.measure",
    "noise.monte_carlo.self_ms": "noise.monte_carlo",
    "analysis.fit.self_ms": "analysis.fit",
    "config.parse.self_ms": "config.parse",
    "cli.run.self_ms": "cli.run",
}


def import_program():
    """Import ``ramseylock`` from this checkout's ``src``, afresh."""
    for name in [n for n in sys.modules if n == "ramseylock" or n.startswith("ramseylock.")]:
        del sys.modules[name]
    rl = importlib.import_module("ramseylock")
    importlib.import_module("ramseylock.cli")
    return rl


def set_up(workload: str, seed: int):
    """Import the program, build the workload, run the warm-up items.

    Returns the workload and the corrected set-up seconds.  Each phase
    (import, build, one warm-up item) is corrected by the reference calls
    made just before and just after it."""
    gaps, phases = [refkernel.gap()], []

    def phase(step):
        t0 = time.perf_counter()
        result = step()
        phases.append(time.perf_counter() - t0)
        gaps.append(refkernel.gap())
        return result

    rl = phase(import_program)
    wl = phase(lambda: WORKLOADS[workload](rl, seed))
    for item in wl.items[:WARMUP_ITEMS]:
        phase(lambda: wl.run(item))
    return wl, sum(t * refkernel.factor(gaps[i:i + 2]) for i, t in enumerate(phases))


class Loop:
    """Closed-loop item runner with a reference gap after every item.

    Item ``i`` sits between ``gaps[i]`` and ``gaps[i + 1]``."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.gaps = [refkernel.gap()]
        self.raw: list[float] = []
        self.ok: list[bool] = []
        self.errors: list[str] = []

    def run_cycle(self, traced: bool = False) -> range:
        tracer = self.tracer if traced else None
        first = len(self.raw)
        for item in self.wl.items:
            index = len(self.raw)
            out, error = None, None
            if tracer is not None:
                tracer.item, tracer.active = index, True
            t0 = time.perf_counter()
            try:
                out = self.wl.run(item)
            except Exception:  # a raising item is a failed item; the run goes on
                error = traceback.format_exc()
            finally:
                self.raw.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.active = False
            self.gaps.append(refkernel.gap())
            if error is None:
                try:
                    if not self.wl.check(item, out):
                        error = f"item {index}: output check failed"
                except Exception:  # a malformed output fails its check
                    error = traceback.format_exc()
            self.ok.append(error is None)
            if error is not None:
                self.errors.append(error)
        return range(first, len(self.raw))

    @property
    def error_rate(self) -> float:
        return 1.0 - sum(self.ok) / len(self.ok)

    def factors(self) -> list[float]:
        """Per-item correction from the two gaps before and the two after."""
        return [refkernel.factor(self.gaps[max(0, i - 1):i + 3]) for i in range(len(self.raw))]


def _ms(seconds) -> float:
    return float(seconds) * 1e3


def end_to_end(workload: str, seed: int, seconds: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        wl, setup_s = set_up(workload, seed)
        setups.append(setup_s)
    loop = Loop(wl)
    start = time.perf_counter()
    while True:
        loop.run_cycle()
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(loop.raw) >= MIN_ITEMS) or elapsed >= MAX_LOOP_S:
            break
    factors = loop.factors()
    times = [r * f for r, f in zip(loop.raw, factors)]
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (n / sum(times), "1/s"),
        "item_ms.p50": (_ms(statistics.median(times)), "ms"),
        "item_ms.p90": (_ms(np.percentile(times, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_rate": (sum(loop.ok) / n, "1"),
    }
    diagnostics = {
        "items": n,
        "error_rate": loop.error_rate,
        "setup_s.all": setups,
        "host.speed_factor.p50": statistics.median(factors),
        "host.raw_items_per_s": n / sum(loop.raw),
        "host.raw_item_ms.p50": _ms(statistics.median(loop.raw)),
        "loop_s": elapsed,
    }
    return loop, metrics, diagnostics


def per_layer(workload: str, seed: int, seconds: float):
    wl, _ = set_up(workload, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = Loop(wl, tracer)
        pairs, pass_counts = [], []
        start = time.perf_counter()
        while True:
            plain = loop.run_cycle()
            before = Counter(tracer.counts)
            traced = loop.run_cycle(traced=True)
            pass_counts.append(Counter(tracer.counts) - before)
            pairs.append((plain, traced))
            elapsed = time.perf_counter() - start
            if elapsed >= seconds or elapsed >= MAX_LOOP_S:
                break
    finally:
        tracer.uninstall()
    if any(c != pass_counts[0] for c in pass_counts):
        raise RuntimeError("trace counts differ between passes over the same items")
    counts = pass_counts[0]

    factors = loop.factors()
    times = [r * f for r, f in zip(loop.raw, factors)]
    own_ns = defaultdict(float)    # (span name or layer, item) -> corrected self ns
    total_ns = defaultdict(float)  # span name -> corrected ns over all traced passes
    for (name, start_ns, end_ns, _, item), own in zip(tracer.spans, tracing.self_times(tracer.spans)):
        for key in (name, name.split(".")[0]):
            own_ns[key, item] += own * factors[item]
        total_ns[name] += (end_ns - start_ns) * factors[item]

    per_pass = defaultdict(list)
    for plain, traced in pairs:
        busy = sum(times[i] for i in traced)
        per_pass["trace.overhead_ratio"].append(busy / sum(times[i] for i in plain))
        for layer in LAYERS:
            per_pass[f"{layer}.share"].append(sum(own_ns[layer, i] for i in traced) * 1e-9 / busy)
        for metric, key in SELF_MS.items():
            per_pass[metric].append(_ms(sum(own_ns[key, i] for i in traced) * 1e-9) / len(traced))
    passes = len(pairs)

    metrics = {key: (float(counts[key]), "count") for key in COUNT_METRICS}
    metrics["cli.csv_bytes"] = (float(counts["cli.csv_bytes"]), "B")
    points, fits = counts["sequence.scan.points"], counts["analysis.fit.calls"]
    metrics["sequence.scan.us_per_point"] = (
        total_ns["sequence.scan"] * 1e-3 / (points * passes) if points else 0.0, "us/point")
    metrics["analysis.fit.ms_per_fit"] = (
        total_ns["analysis.fit"] * 1e-6 / (fits * passes) if fits else 0.0, "ms/fit")
    metrics["analysis.fit.converged_ratio"] = (
        counts["analysis.fit.converged"] / fits if fits else 0.0, "1")
    for metric in SELF_MS:
        metrics[metric] = (statistics.median(per_pass[metric]), "ms/item")
    for metric in ("trace.overhead_ratio", *(f"{layer}.share" for layer in LAYERS)):
        metrics[metric] = (statistics.median(per_pass[metric]), "1")
    metrics["trace.items_per_pass"] = (float(len(wl.items)), "count")
    plain_items = [i for plain, _ in pairs for i in plain]
    metrics["host.speed_factor.p50"] = (statistics.median(factors), "1")
    metrics["host.raw_items_per_s"] = (len(plain_items) / sum(loop.raw[i] for i in plain_items), "1/s")
    metrics["host.raw_item_ms.p50"] = (_ms(statistics.median(loop.raw[i] for i in plain_items)), "ms")
    diagnostics = {"passes": passes, "items": len(loop.raw), "loop_s": elapsed,
                   "error_rate": loop.error_rate}
    first_pass = set(pairs[0][1])
    spans = [s for s in tracer.spans if s[4] in first_pass]
    return loop, metrics, diagnostics, spans


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nominal_ref_s": refkernel.NOMINAL_S,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
        env["blas_config"] = blas.get("openblas configuration", "")
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.machine())
    except OSError:
        env["cpu_model"] = platform.machine()
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ramseylock" / "__init__.py").is_file():
        print(f"benchmark: no ramseylock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()

    if args.trace:
        loop, metrics, diagnostics, spans = per_layer(args.workload, args.seed, args.seconds)
    else:
        loop, metrics, diagnostics = end_to_end(args.workload, args.seed, args.seconds)
        spans = None
    for error in loop.errors[:3]:
        print(error, file=sys.stderr)

    result = {
        "correct": not loop.errors,
        "attempted": len(loop.ok),
        "failed": len(loop.errors),
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "env": env, "diagnostics": diagnostics, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        with open(OUT / f"{stem}-spans.csv", "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,item\n")
            fh.writelines(",".join(map(str, s)) + "\n" for s in spans)
    print("# env " + json.dumps(env))
    print("# diagnostics " + json.dumps(diagnostics))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
