"""Pulse timelines and the evolution engine that executes them.

A :class:`Sequence` is an ordered list of :class:`Wait` and
:class:`PulseSpec` events plus a frame convention.  Evolution applies the
free-evolution unitary for every wait and the pulse unitary for every
pulse, in timeline order, which reproduces the right-to-left operator
products of multi-pulse interferometry.

Phase bookkeeping: the phase argument handed to pulse ``k`` is
``rate * t_k + phase_offset`` where ``rate`` is the field's phase rate in
the chosen frame and ``t_k`` the pulse's timeline start time.  With
``clock_during_pulses`` off (the default) the clock advances only through
waits, so free phase accumulates over the declared intervals alone; with
it on, every pulse also advances the clock by its own duration.  Both
conventions are first-class: single scramble/retrieve pairs are timed on
intervals alone, while the stacked-retrieval sum constraint carries a
pulse-duration term that presupposes the wall-clock convention.  This rule
lives in one timeline walker that :func:`evolve`, :func:`scan`,
:func:`compile_timeline` and :meth:`Sequence.end_time` all use.

Scanning: a fringe ``p(T)`` is evaluated in one pass over the whole grid.
The events before the scanned wait do not depend on ``T`` and are evolved
once, on scalars.  The scanned wait's duration is the grid array, so the
clock, the later pulse phases and the state become arrays of the grid's
shape, and every later event costs one numpy operation over the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Sequence as SequenceType, Union

import numpy as np

from .errors import InvalidDurationError, SequenceError
from .spinor import (
    GROUND,
    ROTATING,
    FieldParams,
    FrameConvention,
    SpinState,
    apply_unitary,
    excitation_probability,
    free_unitary,
    pulse_unitary,
)


@dataclass(frozen=True)
class PulseSpec:
    """One rectangular pulse: a field, a duration and a constant phase offset.

    ``phase_offset`` is the per-field constant added on top of the
    engine-accumulated ``rate * t`` phase (zero for the recording field by
    convention; the key phase for scrambling fields).
    """

    field: FieldParams
    tau: float
    phase_offset: float = 0.0

    def __post_init__(self):
        if not (self.tau > 0.0) or not math.isfinite(self.tau):
            raise InvalidDurationError(f"pulse tau must be > 0, got {self.tau}")
        if not math.isfinite(self.phase_offset):
            raise InvalidDurationError("pulse phase offset must be finite")
        if not math.isfinite(self.field.rabi * self.tau):
            raise InvalidDurationError("pulse area must be finite")


@dataclass(frozen=True)
class Wait:
    """Free evolution for ``duration`` seconds.

    At most one wait in a sequence may be marked ``scanned``; its duration
    is the variable that :func:`scan` sets to each grid value.
    """

    duration: float
    scanned: bool = False

    def __post_init__(self):
        if self.duration < 0.0 or not math.isfinite(self.duration):
            raise InvalidDurationError(f"wait duration must be >= 0, got {self.duration}")


Event = Union[Wait, PulseSpec]

#: A timeline clock value or phase: a float, or an array over a scan grid.
Clock = Union[float, np.ndarray]


@dataclass(frozen=True)
class Sequence:
    """An ordered timeline of waits and pulses in a fixed frame."""

    events: tuple[Event, ...]
    frame: FrameConvention = ROTATING
    clock_during_pulses: bool = False

    def __post_init__(self):
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        if not any(isinstance(e, PulseSpec) for e in events):
            raise SequenceError("sequence must contain at least one pulse")
        for e in events:
            if not isinstance(e, (Wait, PulseSpec)):
                raise SequenceError(f"unsupported event type {type(e).__name__}")
        if sum(1 for e in events if isinstance(e, Wait) and e.scanned) > 1:
            raise SequenceError("at most one wait may be marked as the scan variable")

    @property
    def pulses(self) -> tuple[PulseSpec, ...]:
        return tuple(e for e in self.events if isinstance(e, PulseSpec))

    def end_time(self, start_time: float = 0.0) -> float:
        """Timeline clock value after the last event."""
        *_, last = _walk(self, start_time)
        return last.end


class _Step(NamedTuple):
    """One event as the timeline walker sees it."""

    event: Event
    start: Clock  # clock before the event
    end: Clock  # clock after the event
    arg: Clock  # a wait's duration, or a pulse's phase argument


def _walk(
    seq: Sequence, start_time: float = 0.0, scan_value: Clock | None = None
) -> Iterator[_Step]:
    """Walk the timeline clock through ``seq``: the one place of the phase rule.

    A pulse gets the phase argument ``rate * start + phase_offset`` with
    ``rate`` its field's phase rate in the sequence frame.  Waits advance
    the clock by their duration; pulses advance it by ``tau`` only with
    ``clock_during_pulses``.  With ``scan_value`` given, the scanned wait
    lasts that long instead; an array makes every later clock value and
    phase an array of its shape.
    """
    t = start_time
    for e in seq.events:
        start = t
        if isinstance(e, Wait):
            arg = scan_value if e.scanned and scan_value is not None else e.duration
            t = t + arg
        else:
            arg = seq.frame.pulse_phase_rate(e.field) * start + e.phase_offset
            if seq.clock_during_pulses:
                t = t + e.tau
        yield _Step(e, start, t, arg)


class TimelineEntry(NamedTuple):
    """One compiled pulse: spec, timeline start time, full phase argument."""

    pulse: PulseSpec
    start_time: float
    phase: float


def compile_timeline(seq: Sequence, start_time: float = 0.0) -> list[TimelineEntry]:
    """Resolve pulse start times and phase arguments.

    For a pulse of field ``j`` starting at timeline time ``t`` the phase
    argument is ``rate_j * t + phase_offset`` with ``rate_j`` the field's
    phase rate in the sequence frame (the detuning in rotating mode).  The
    returned phases are not reduced modulo 2*pi; reduction happens inside
    the trigonometric evaluation of the pulse unitary.
    """
    return [
        TimelineEntry(step.event, step.start, step.arg)
        for step in _walk(seq, start_time)
        if isinstance(step.event, PulseSpec)
    ]


def _run(
    seq: Sequence, state: SpinState, start_time: float, scan_value: Clock | None = None
) -> SpinState:
    """Apply every event's unitary to ``state`` in timeline order."""
    for step in _walk(seq, start_time, scan_value):
        e = step.event
        if isinstance(e, Wait):
            u = free_unitary(seq.frame, step.arg)
        else:
            u = pulse_unitary(e.field, e.tau, step.arg)
        state = apply_unitary(u, state)
    return state


def evolve(seq: Sequence, initial: SpinState = GROUND, start_time: float = 0.0) -> SpinState:
    """Run the timeline on ``initial`` and return the final state.

    Applies ``free_unitary`` for each wait and ``pulse_unitary`` (with the
    compiled phase argument) for each pulse, in timeline order, on complex
    scalars.  Chaining: evolving sequence A and then sequence B with
    ``start_time = A.end_time()`` equals evolving their concatenation.
    """
    return _run(seq, initial, start_time)


@dataclass(frozen=True)
class FringeScan:
    """A sampled excitation-probability curve ``p(T)`` with per-point sd."""

    T: np.ndarray
    p: np.ndarray
    sd: np.ndarray
    label: str = ""

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        p = np.asarray(self.p, dtype=float)
        sd = np.asarray(self.sd, dtype=float)
        if T.ndim != 1 or T.size == 0:
            raise ValueError("scan needs at least one point")
        if p.shape != T.shape or sd.shape != T.shape:
            raise ValueError("T, p and sd must have identical shapes")
        for name, arr in (("T", T), ("p", p), ("sd", sd)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} values must be finite")
        if T.size > 1 and not np.all(np.diff(T) > 0.0):
            raise ValueError("T values must be strictly increasing")
        if np.any(p < -1e-9) or np.any(p > 1.0 + 1e-9):
            raise ValueError("probabilities must lie in [0, 1]")
        if np.any(sd < 0.0):
            raise ValueError("standard deviations must be >= 0")
        p = np.clip(p, 0.0, 1.0)
        for name, arr in (("T", T), ("p", p), ("sd", sd)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.T.size)


def _scan_mark(template: Sequence) -> int:
    """Index of the template's one scanned wait."""
    marks = [i for i, e in enumerate(template.events) if isinstance(e, Wait) and e.scanned]
    if len(marks) != 1:
        raise SequenceError(f"template must contain exactly one scanned wait, found {len(marks)}")
    return marks[0]


def set_scan_value(template: Sequence, T: float) -> Sequence:
    """Return a copy of ``template`` with its scanned wait set to ``T``."""
    mark = _scan_mark(template)
    events = list(template.events)
    events[mark] = replace(events[mark], duration=float(T))
    return replace(template, events=tuple(events))


def scan(template: Sequence, grid: SequenceType[float]) -> FringeScan:
    """Evaluate ``p(T)`` of ``|g>`` evolved through ``template`` over ``grid``.

    The template must carry exactly one wait marked as the scan variable.
    The events before it are evolved once on scalars; the scanned wait and
    everything after it run once over the whole grid as numpy arrays.  The
    result equals evolving ``set_scan_value(template, T)`` point by point,
    to round-off.  Points are noiseless (``sd = 0``).
    """
    T = np.array(grid, dtype=float)  # a copy: FringeScan freezes its arrays
    if T.size == 0:
        raise SequenceError("scan grid must not be empty")
    if T.size > 1 and not np.all(np.diff(T) > 0.0):
        raise SequenceError("scan grid must be strictly increasing")
    if np.any(T < 0.0):
        raise SequenceError("scan grid values must be >= 0")
    _scan_mark(template)
    if not np.all(np.isfinite(T)):
        raise InvalidDurationError("scan grid values must be finite")
    p = np.broadcast_to(excitation_probability(_run(template, GROUND, 0.0, T)), T.shape)
    return FringeScan(T, np.clip(p, 0.0, 1.0), np.zeros_like(T))
