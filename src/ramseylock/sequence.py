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
lives in one timeline walker that :func:`evolve`, :func:`scan` and
:meth:`Sequence.end_time` all use.

Scanning: a fringe ``p(T)`` is evaluated in one pass over the whole grid.
The events before the scanned wait do not depend on ``T`` and are evolved
once, on scalars.  The scanned wait's duration is the grid array, so the
clock, the later pulse phases and the state become arrays of the grid's
shape, and every later event costs one numpy operation over the grid.

Inputs are checked once, where they enter.  :class:`Wait` checks its
duration, so the walker skips ``free_unitary``'s check.  Scan data has one
checker, ``_scan_fault``, which :class:`FringeScan`, :func:`scan`, the scan
CSV reader and the readout run and raise their own errors from; it never
clips.  Scan data made valid by construction skips it via ``_trusted``.

Key-phase axis: a pulse's ``phase_offset`` may also be an array, which
broadcasts against the grid the same way.  Shape ``(K, 1)`` adds a leading
axis of K key phases, so one scan evaluates the ``(K, N)`` grid of key
phases x delays and returns a batch of K fringes; shape ``(N,)`` gives one
phase per grid point.  Events before the first array-valued quantity
(phase or delay) still run once on scalars.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace
from typing import Iterator, NamedTuple, Sequence as SequenceType, Union

import numpy as np

from .errors import InvalidDurationError, SequenceError
from .spinor import (
    GROUND,
    ROTATING,
    FieldParams,
    FrameConvention,
    SpinState,
    _free_unitary,
    apply_unitary,
    excitation_probability,
    pulse_unitary,
)

#: A timeline clock value or phase: a float, or an array over a scan grid
#: and/or a key-phase axis.
Clock = Union[float, np.ndarray]


class _ValueEq:
    """Equality and hashing of a frozen dataclass by its field values, with
    array fields compared by shape and values (a generated ``__eq__``
    would raise on them, and arrays are unhashable)."""

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return tuple((v.shape, tuple(v.flat)) if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class PulseSpec(_ValueEq):
    """One rectangular pulse: a field, a duration and a constant phase offset.

    ``phase_offset`` is the per-field constant added on top of the
    engine-accumulated ``rate * t`` phase (zero for the recording field by
    convention; the key phase for scrambling fields).  It may be an array
    of key phases, stored as a read-only copy: ``(K, 1)`` puts a key axis in
    front of a scan grid, ``(N,)`` gives one phase per grid point.
    """

    field: FieldParams
    tau: float
    phase_offset: Clock = 0.0

    def __post_init__(self):
        if not (self.tau > 0.0) or not math.isfinite(self.tau):
            raise InvalidDurationError(f"pulse tau must be > 0, got {self.tau}")
        if np.ndim(self.phase_offset) == 0:
            finite = math.isfinite(self.phase_offset)
        else:
            offset = np.array(self.phase_offset, dtype=float)
            offset.setflags(write=False)
            object.__setattr__(self, "phase_offset", offset)
            finite = np.all(np.isfinite(offset))
        if not finite:
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


def _run(
    seq: Sequence, state: SpinState, start_time: float, scan_value: Clock | None = None
) -> SpinState:
    """Apply every event's unitary to ``state`` in timeline order."""
    for step in _walk(seq, start_time, scan_value):
        e = step.event
        if isinstance(e, Wait):
            u = _free_unitary(seq.frame, step.arg)
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


class _Fault(NamedTuple):
    """The first broken invariant of scan data, at ``index`` along ``T``."""

    invariant: str
    index: int
    value: float


def _scan_fault(T, p=None, sd=None) -> _Fault | None:
    """The first invariant that float scan data (``T`` 1-D or ``None``; ``p``
    and ``sd`` ``(N,)`` or ``(K, N)``) breaks, in this order and at its first
    failing point in C order; ``None`` if none.  Never raises or clips."""
    for invariant, values, lag, holds in (
        ("T values must be finite", T, 0, np.isfinite),
        ("T values must be strictly increasing", T, 1, lambda t: t[1:] > t[:-1]),
        ("p values must be finite and lie in [0, 1]", p, 0, lambda v: (v >= 0.0) & (v <= 1.0)),
        ("sd values must be finite and >= 0", sd, 0, lambda v: (v >= 0.0) & (v < math.inf)),
    ):
        if values is not None and not (ok := holds(values)).all():
            k = int(np.argmin(ok))  # flat index of the first failure
            return _Fault(invariant, k % ok.shape[-1] + lag, float(values.flat[k + lag]))
    return None


@dataclass(frozen=True)
class FringeScan:
    """A sampled excitation-probability curve ``p(T)`` with per-point sd.

    ``p`` and ``sd`` have the shape of ``T``, or ``(K, N)`` over an
    N-point ``T`` for a batch of K fringes on one grid (one per key phase
    of a key-axis scan).  Data that breaks an invariant raises ``ValueError``
    and is never clipped; valid data is stored as read-only copies, so the
    caller's arrays stay writeable.  A batch is validated once;
    ``scan_data[k]`` and :meth:`rows` return its fringes as 1-D scans
    sharing its read-only arrays.
    """

    T: np.ndarray
    p: np.ndarray
    sd: np.ndarray
    label: str = ""

    def __post_init__(self):
        T = np.array(self.T, dtype=float)
        p = np.array(self.p, dtype=float)
        sd = np.array(self.sd, dtype=float)
        if T.ndim != 1 or T.size == 0:
            raise ValueError("scan needs at least one point")
        if p.ndim not in (1, 2) or p.shape[-1] != T.size or sd.shape != p.shape:
            raise ValueError("p and sd must have the shape of T, or (K, len(T)) for a batch")
        fault = _scan_fault(T, p, sd)
        if fault is not None:
            raise ValueError(f"scan point {fault.index}: {fault.invariant}, got {fault.value}")
        for name, arr in (("T", T), ("p", p), ("sd", sd)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _trusted(cls, T: np.ndarray, p: np.ndarray, sd: np.ndarray, label="") -> "FringeScan":
        """A scan of float arrays that already meet the invariants: frozen
        read-only, not checked again."""
        for arr in (T, p, sd):
            arr.setflags(write=False)
        scan_data = object.__new__(cls)
        vars(scan_data).update(T=T, p=p, sd=sd, label=label)
        return scan_data

    def __len__(self) -> int:
        return int(self.T.size)

    def __getitem__(self, k: int) -> "FringeScan":
        """Fringe ``k`` of a batch, as a 1-D scan viewing the batch's arrays."""
        if self.p.ndim != 2:
            raise TypeError("only a (K, N) batch of fringes has rows")
        k = operator.index(k)
        return FringeScan._trusted(self.T, self.p[k], self.sd[k], self.label)

    def rows(self) -> tuple["FringeScan", ...]:
        """Every fringe of a batch, in key order."""
        return tuple(self[k] for k in range(len(self.p)))


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

    Pulse phase offsets that are arrays broadcast against the grid: with
    ``(K, 1)`` offsets the result is a ``(K, N)`` batch, one fringe per key
    phase, equal to K separate scans to round-off.  Offsets that do not
    broadcast to ``(N,)`` or ``(K, N)`` raise ``SequenceError``.
    """
    T = np.array(grid, dtype=float)  # a copy: FringeScan freezes its arrays
    if T.size == 0:
        raise SequenceError("scan grid must not be empty")
    fault = _scan_fault(T)
    if fault is not None:
        error = SequenceError if math.isfinite(fault.value) else InvalidDurationError
        raise error(f"scan grid point {fault.index}: {fault.invariant}, got {fault.value}")
    if T[0] < 0.0:  # the least value of an increasing grid
        raise SequenceError("scan grid values must be >= 0")
    _scan_mark(template)
    offsets = [e.phase_offset for e in template.pulses]
    keyed = [o.shape for o in offsets if isinstance(o, np.ndarray)]
    shape = T.shape
    if keyed:
        try:
            shape = np.broadcast_shapes(T.shape, *keyed)
        except ValueError:
            shape = ()
        if len(shape) not in (1, 2) or shape[-1] != T.size:
            raise SequenceError(
                f"pulse phase offsets of shapes {keyed} do not broadcast against "
                f"a {T.size}-point grid to (N,) or (K, N)"
            )
    p = np.broadcast_to(excitation_probability(_run(template, GROUND, 0.0, T)), shape)
    return FringeScan._trusted(T, np.clip(p, 0.0, 1.0), np.zeros(shape))
