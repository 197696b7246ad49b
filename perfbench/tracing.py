"""Fail-soft tracing of ramseylock's public functions from outside.

``Tracer.install()`` wraps the functions in ``SPANS`` and ``COUNTS``, both
in their defining module and wherever another ramseylock module imported
them by name (``cli.scan``, ``noise.scan``, ...), and ``uninstall()`` puts
the originals back.  A span wrapper records ``(name, start_ns, end_ns,
parent, item)`` in memory; a count wrapper, used for the hot 2x2 algebra,
only counts calls.  Wrappers record only while ``active`` is set, so the
benchmark's own output checks stay out of the trace.  A function that a
later version of the program no longer has is skipped and its metrics
read 0.

A span's self time is its duration minus the time its direct child spans
cover; a layer's self time is the sum over its spans (the layer is the
span name up to the first dot).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

_BUILDERS = ("build_write_read", "build_scrambled", "build_retrieved",
             "build_double_scrambled", "build_double_retrieved")

#: span name -> (module, function) pairs it covers
SPANS = {
    "sequence.scan": [("sequence", "scan")],
    "protocol.build": [("protocol", name) for name in _BUILDERS],
    "protocol.plan": [("protocol", "plan_retrieval"), ("protocol", "plan_double_retrieval"),
                      ("protocol", "plan_readout")],
    "protocol.secret_readout": [("protocol", "secret_readout")],
    "noise.measure": [("noise", "simulate_measurement")],
    "noise.monte_carlo": [("noise", "monte_carlo_scramble")],
    "noise.contrast": [("noise", "apply_contrast_decay")],
    "analysis.fit": [("analysis", "fit_damped_sinusoid")],
    "analysis.stats": [("analysis", "phase_spread"), ("analysis", "fringe_visibility")],
    "config.parse": [("config", "parse_config")],
    "cli.run": [("cli", "run")],
}

#: count name -> (module, function) pairs it covers
COUNTS = {
    "sequence.evolve": [("sequence", "evolve")],
    "spinor.pulse_unitary": [("spinor", "pulse_unitary")],
    "spinor.free_unitary": [("spinor", "free_unitary")],
    "noise.sample_phase": [("noise", "sample_relative_phase")],
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _scan_extra(counts, args, kwargs, result):
    counts["sequence.scan.points"] += len(_arg(args, kwargs, 1, "grid"))


def _fit_extra(counts, args, kwargs, result):
    counts["analysis.fit.converged"] += bool(getattr(result, "converged", False))


def _cli_extra(counts, args, kwargs, result):
    counts["cli.run.nonzero_exits"] += result != 0
    for stream in (_arg(args, kwargs, 1, "out"), kwargs.get("input_stream")):
        if hasattr(stream, "getvalue"):
            counts["cli.csv_bytes"] += len(stream.getvalue().encode())


_EXTRAS = {"sequence.scan": _scan_extra, "analysis.fit": _fit_extra, "cli.run": _cli_extra}


class Tracer:
    def __init__(self):
        self.active = False
        self.item = -1
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ramseylock" or name.startswith("ramseylock."))]
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, targets in table.items():
                for module, attr in targets:
                    original = getattr(sys.modules.get(f"ramseylock.{module}"), attr, None)
                    if callable(original):
                        self._replace(modules, original, make(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _count(self, name, original):
        key = name + ".calls"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def _span(self, name, original):
        key = name + ".calls"
        extra = _EXTRAS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            self.counts[key] += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.item)
            if extra is not None:
                try:
                    extra(self.counts, args, kwargs, result)
                except (TypeError, AttributeError, ValueError):
                    pass  # a changed signature or result loses the extra, not the run
            return result

        return wrapper


def self_times(spans) -> list[int]:
    """Self time in ns of each span: its duration minus its direct children's."""
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]
