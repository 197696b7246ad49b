#!/usr/bin/env python3
"""Time one benchmark workload on two source trees side by side in one process.

Usage, from any directory::

    python3 tools/abtest.py PARENT CHANGE --workload fit_reduce --seed 3 --rounds 100

``PARENT`` and ``CHANGE`` are checkouts, each holding ``src/ramseylock``.
Both packages are imported into this process, under the names
``ramseylock_parent`` and ``ramseylock_change``, and the workload is built
for each from this checkout's ``perfbench/workloads.py`` with the same
seed.  After one untimed cycle per side, each round runs one whole cycle of
the workload's items on each side, the parent first in odd rounds and the
change first in even ones.  Items are timed by raw wall time
(``time.perf_counter_ns``), with no reference-kernel correction, so a
kernel that reads faster in one process cannot turn a pair around.  Every
output is checked with the workload's ``check`` and compared bit for bit
with the other side's output for the same item, outside the timed interval.

The last stdout line is a JSON object: each side's median over the rounds
of its mean microseconds per item, the change's ``items_per_s`` relative
to the parent's, the rounds the change ran faster in, the order, the
failed checks and whether every output was equal.  Exits 1 if any check
failed.  BLAS and OpenMP are pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP to one thread before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

SIDES = ("parent", "change")


def load(tree, name):
    """``src/ramseylock`` of the checkout ``tree``, imported as the package
    ``name`` with its ``cli`` module, which the workloads call."""
    init = Path(tree).resolve() / "src" / "ramseylock" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def _bits(value):
    """A form of ``value`` that compares equal exactly when every array
    byte, float bit and string does, whichever package made it."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(map(_bits, value))
    return repr(value)


def _cycle(wl):
    """One cycle of ``wl``: the raw ns of each item and the outputs."""
    times, outs = [], []
    for item in wl.items:
        t0 = time.perf_counter_ns()
        out = wl.run(item)
        times.append(time.perf_counter_ns() - t0)
        outs.append(out)
    return times, outs


def abtest(parent, change, workload, seed, rounds):
    """The comparison of the trees ``parent`` and ``change`` on ``workload``
    at ``seed`` over ``rounds`` rounds, as the dict the tool prints."""
    wls = {side: WORKLOADS[workload](load(tree, f"ramseylock_{side}"), seed)
           for side, tree in zip(SIDES, (parent, change))}
    per_item = {side: [] for side in SIDES}
    failed, equal = 0, True
    for round_ in range(rounds + 1):  # round 0 is the untimed warm-up
        order = SIDES if round_ % 2 else SIDES[::-1]
        outs = {}
        for side in order:
            times, outs[side] = _cycle(wls[side])
            if round_:
                per_item[side].append(sum(times) / len(times) / 1e3)
        for side in SIDES:
            failed += sum(not wls[side].check(item, out)
                          for item, out in zip(wls[side].items, outs[side]))
        equal = equal and _bits(outs["parent"]) == _bits(outs["change"])
    parent_us, change_us = (statistics.median(per_item[side]) for side in SIDES)
    wins = sum(c < p for p, c in zip(per_item["parent"], per_item["change"]))
    return {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "items_per_round": len(wls["parent"].items),
        "parent_us": round(parent_us, 2),
        "change_us": round(change_us, 2),
        "items_per_s_change": round(parent_us / change_us - 1.0, 4),
        "change_faster_in": f"{wins}/{rounds}",
        "order": "parent first in odd rounds, change first in even rounds",
        "failed_checks": failed,
        "outputs_equal": equal,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout holding the parent's src/ramseylock")
    parser.add_argument("change", help="checkout holding the change's src/ramseylock")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=100)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    result = abtest(args.parent, args.change, args.workload, args.seed, args.rounds)
    print(json.dumps(result))
    return 1 if result["failed_checks"] else 0


if __name__ == "__main__":
    sys.exit(main())
