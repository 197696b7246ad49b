"""Self-test of the benchmark's checks and tracing.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it runs one clean cycle (no failures allowed), one
cycle whose first output is corrupted (exactly that item must fail, so
``error_rate > 0``) and two traced passes whose counts must agree exactly.
It also checks that a raising item counts as failed and that a traced
function the program does not have reads 0 calls instead of crashing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from types import SimpleNamespace

import run  # sets the thread pins before numpy loads
import tracing
from workloads import WORKLOADS

CORRUPT = {
    "dense_scan": lambda out: SimpleNamespace(p=[1.5, *out.p[1:]]),
    "fit_reduce": lambda out: out._replace(stdout=out.stdout.splitlines()[0] + "\n"),
    "monte_carlo": lambda out: SimpleNamespace(scans=out.scans[:-1], pooled=out.pooled),
    "key_sweep": lambda out: out._replace(code=4),
}


def _corrupt_first(wl, corrupt):
    """The workload with its first item's output replaced by ``corrupt(out)``."""
    calls = itertools.count()

    def run_item(item):
        out = wl.run(item)
        return corrupt(out) if next(calls) == 0 else out

    return wl._replace(run=run_item)


def _traced_counts(wl, passes: int = 2) -> list[Counter]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = run.Loop(wl, tracer)
        counts = []
        for _ in range(passes):
            before = Counter(tracer.counts)
            loop.run_cycle(traced=True)
            counts.append(Counter(tracer.counts) - before)
    finally:
        tracer.uninstall()
    return counts


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems = []
    for name in WORKLOADS:
        wl, _ = run.set_up(name, 7)
        clean = run.Loop(wl)
        clean.run_cycle()
        if clean.errors:
            problems.append(f"{name}: clean cycle failed: {clean.errors[0]}")
        corrupted = run.Loop(_corrupt_first(wl, CORRUPT[name]))
        corrupted.run_cycle()
        if corrupted.ok != [False] + [True] * (len(wl.items) - 1) or not corrupted.error_rate > 0:
            problems.append(f"{name}: corrupted first output gave ok={corrupted.ok}")
        first, second = _traced_counts(wl)
        if first != second or not first:
            problems.append(f"{name}: traced counts differ or are empty: {first} vs {second}")
        calls = sum(v for k, v in first.items() if k.endswith(".calls"))
        print(f"{name}: clean ok, corruption caught (error_rate {corrupted.error_rate:.3f}), "
              f"{calls} traced calls per pass")

    raising = wl._replace(run=lambda item: 1 / 0)
    loop = run.Loop(raising)
    loop.run_cycle()
    if any(loop.ok):
        problems.append("a raising item was not counted as failed")

    tracing.COUNTS["selftest.missing"] = [("sequence", "no_such_function")]
    try:
        counts = _traced_counts(wl, passes=1)[0]
    finally:
        del tracing.COUNTS["selftest.missing"]
    if counts["selftest.missing.calls"] != 0 or not counts["cli.run.calls"]:
        problems.append(f"missing function not handled fail-soft: {counts}")

    for problem in problems:
        print("FAIL", problem, file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
