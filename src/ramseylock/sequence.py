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
it on, every pulse also advances the clock by its own duration, and a lab
frame winds freely over it, so populations do not depend on the frame.  Both
conventions are first-class: the retrieval planners take the clock, so a
single scramble/retrieve pair is timed from start to start on either, and
the stacked-retrieval sum constraint carries a pulse-duration term for
the wall clock.  This rule
lives in one timeline walker that :func:`evolve`, :func:`scan` and
:meth:`Sequence.end_time` all use.

Scanning: a fringe ``p(T)`` is evaluated in one pass over the whole grid.
The events before the scanned wait do not depend on ``T`` and are evolved
once, on scalars.  The scanned wait's duration is the grid array, so the
clock, the later pulse phases and the state become arrays of the grid's
shape, and every later event costs one numpy operation over the grid.

Inputs are checked once, where they enter.  :class:`Wait` checks its
duration, so the walker skips ``free_unitary``'s check, and the walker
holds the one overflow rule: it refuses a clock value, pulse phase or free
phase that is not finite as it makes it, so a scan walks once.  Scan data
has one checker, ``_scan_fault``, which :class:`FringeScan`, :func:`scan`,
the scan CSV reader and the readout run and raise their own errors from;
it never clips.  Scan data made valid by construction skips it via
``_trusted``.

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
from typing import NamedTuple, Sequence as SequenceType, Union

import numpy as np

from .errors import InvalidDurationError, SequenceError
from .spinor import (
    GROUND,
    ROTATING,
    FieldParams,
    FrameConvention,
    SpinState,
    _winding,
    excitation_probability,
    pulse_unitary,
)

#: A timeline clock value or phase: a float, or an array over a scan grid
#: and/or a key-phase axis.
Clock = Union[float, np.ndarray]

#: Largest phase rounding (rad) the timeline clock may give any pulse phase
#: or free phase at the grid's last point; see ``_walk``.
_ROUNDING_BOUND = 1e-6


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
        if not math.isfinite(self.field.effective_rabi * self.tau):  # >= rabi, abs(detuning)
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
        _walk(self)

    def end_time(self, start_time: float = 0.0) -> float:
        """Timeline clock value after the last event."""
        last = _walk(self, start_time)[-1]
        return last.start if last.span is None else last.start + last.span


class _Step(NamedTuple):
    """One event as the timeline walker sees it."""

    event: Event
    start: Clock  # clock before the event
    arg: Clock  # a wait's duration, or a pulse's phase argument
    span: Clock | None  # clock time the event takes; None for a pulse that stops the clock


def _walk(seq: Sequence, start_time: float = 0.0, scan_value: Clock | None = None) -> list[_Step]:
    """Walk the timeline clock through ``seq``: the one place of the phase
    rule, the overflow rule and the rounding rule.

    A pulse gets the phase argument ``rate * start + phase_offset`` with
    ``rate`` its field's phase rate in the sequence frame.  Waits advance
    the clock by their duration; pulses advance it by ``tau`` only with
    ``clock_during_pulses``.  That advance is the event's ``span``, the time
    the frame winds freely over.  With ``scan_value`` given, the scanned wait
    lasts that long instead; an array makes every later clock value and
    phase an array of its shape.

    Finite waits can add up to a clock value or pulse phase that is not,
    and a span to a lab-frame free phase ``0.5 * free_rate * span`` that is
    not; each raises ``SequenceError`` as it is made.  Each grows with the
    scanned wait, so a clock or span shaped like the grid is checked at its
    last point, and a pulse phase at that point's clock, for every key
    phase.  The walk returns a list, not a generator, which would leave
    numpy's overflow warnings off in its caller.

    A finite clock can still be too coarse for the grid.  Each clock value
    ``t`` is a rounded sum, off by up to ``|t| * 2**-53``; a pulse phase
    carries the clock's summed error times its rate, plus up to
    ``|rate * t| * 2**-53`` each for the rate's sum and the product, and a
    free phase up to ``|free phase| * 2**-53``.  The walk adds these up at
    the grid's last point, on scalars, and once every value is finite it
    refuses a rounding beyond ``_ROUNDING_BOUND`` rad.  A phase offset is
    taken as given.
    """
    ndarray = np.ndarray
    free_rate = seq.frame.free_rate
    half_rate = 0.5 * free_rate
    clock = seq.clock_during_pulses
    steps, t, t_last, span = [], start_time, start_time, None  # t_last: t at the grid's last point
    # roundings in units of 2**-53: the clock's summed error, that plus twice
    # the clock (a pulse phase's rounding per unit rate), the largest pulse
    # phase rounding, and the longest span
    sums, reach, worst, longest = 0.0, 2.0 * abs(start_time), 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for e in seq.events:
            if span is not None:  # the previous event's span, added once a later event needs it
                t = t + span
            if isinstance(e, Wait):
                arg = span = scan_value if e.scanned and scan_value is not None else e.duration
                phi = 0.0
            else:
                rate = free_rate + e.field.detuning
                arg = rate * t + e.phase_offset
                span = e.tau if clock else None
                phi = rate * t_last + e.phase_offset if type(t) is ndarray else arg
                rounding = rate * reach
                if rounding > worst or -rounding > worst:
                    worst = abs(rounding)
            steps.append(tuple.__new__(_Step, (e, t, arg, span)))
            free = 0.0
            if span is not None:  # the clock moves on, and the frame winds
                last = span.item(-1) if type(span) is ndarray else span
                t_last = t_last + last  # (t + span)[-1]
                free = half_rate * last
                if last > longest:
                    longest = last
                sums += abs(t_last)
                reach = sums + 2.0 * abs(t_last)
            finite = np.isfinite(phi).all() if type(phi) is ndarray else math.isfinite(phi)
            if not (finite and math.isfinite(free) and math.isfinite(t_last)):
                raise SequenceError("the timeline clock and every pulse phase must be finite")
    worst = max(worst, abs(half_rate) * longest) * 2.0**-53  # a free phase rounds once
    if worst > _ROUNDING_BOUND:
        raise SequenceError(
            f"the timeline clock rounds a phase by up to {worst:.3g} rad at the grid's last "
            f"point, beyond the rounding bound of {_ROUNDING_BOUND} rad"
        )
    return steps


def _run(
    seq: Sequence, state: SpinState, start_time: float, scan_value: Clock | None = None
) -> SpinState:
    """Apply every event to ``state`` in timeline order: each pulse's
    unitary (the product ``apply_unitary`` forms), and the frame's free
    winding over each event's ``span`` (the diagonal of ``free_unitary``,
    skipped where it is the identity).  The amplitudes are carried as plain
    values, and one state is built at the end."""
    rate = seq.frame.free_rate
    c_g, c_e = state.c_g, state.c_e
    for e, _, arg, span in _walk(seq, start_time, scan_value):
        if isinstance(e, PulseSpec):
            u = pulse_unitary(e.field, e.tau, arg)
            c_g, c_e = u.u_gg * c_g + u.u_ge * c_e, u.u_eg * c_g + u.u_ee * c_e
        if rate != 0.0 and span is not None:
            z = _winding(rate, span)
            c_g, c_e = z * c_g, z.conjugate() * c_e
    return SpinState(c_g, c_e)


def evolve(seq: Sequence, initial: SpinState = GROUND, start_time: float = 0.0) -> SpinState:
    """Run the timeline on ``initial`` and return the final state.

    Applies ``pulse_unitary`` (with the compiled phase argument) for each
    pulse and ``free_unitary`` for each wait, and for each pulse while the
    clock runs, in timeline order, on complex scalars.  Chaining: evolving
    sequence A and then sequence B with ``start_time = A.end_time()``
    equals evolving their concatenation.
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
        # count_nonzero answers .all() without the Python wrapper of a reduction
        if values is not None and np.count_nonzero(ok := holds(values)) != ok.size:
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


def _scan_mark(template: Sequence) -> tuple[int, list[tuple[int, ...]]]:
    """Index of the template's one scanned wait, and the shapes of its
    array phase offsets, in one pass over the events."""
    marks, keyed = [], []
    for i, e in enumerate(template.events):
        if isinstance(e, Wait):
            if e.scanned:
                marks.append(i)
        elif type(e.phase_offset) is np.ndarray:
            keyed.append(e.phase_offset.shape)
    if len(marks) != 1:
        raise SequenceError(f"template must contain exactly one scanned wait, found {len(marks)}")
    return marks[0], keyed


def set_scan_value(template: Sequence, T: float) -> Sequence:
    """Return a copy of ``template`` with its scanned wait set to ``T``."""
    mark, _ = _scan_mark(template)
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
    if T.ndim != 1:
        raise SequenceError(f"scan grid must be 1-D, got shape {T.shape}")
    if T.size == 0:
        raise SequenceError("scan grid must not be empty")
    fault = _scan_fault(T)
    if fault is not None:
        error = SequenceError if math.isfinite(fault.value) else InvalidDurationError
        raise error(f"scan grid point {fault.index}: {fault.invariant}, got {fault.value}")
    if T[0] < 0.0:  # the least value of an increasing grid
        raise SequenceError("scan grid values must be >= 0")
    _, keyed = _scan_mark(template)
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
    p = np.minimum(excitation_probability(_run(template, GROUND, 0.0, T)), 1.0)  # |c_e|^2 >= 0
    if np.shape(p) != shape:  # no event after the scanned wait gave p the grid's axis
        p = np.broadcast_to(p, shape).copy()
    return FringeScan._trusted(T, p, np.zeros(shape))
