"""Key material, sequence builders and timing planners for phase encryption.

The memory scheme runs two in-principle independent interferometers on one
spin.  The recording interferometer (field W) writes a phase with its
first pulse and reads it back with its second.  A scrambling
interferometer (field S) inserts a pulse in between whose phase offset is
the secret key: without it the recorded fringe phase is ambiguous, and
with a retrieve pulse timed so the scrambling field precesses by an odd
multiple of pi between its two pulses, the scramble is undone exactly and
the original fringe reappears regardless of the key phase.

Builders return :class:`~ramseylock.sequence.Sequence` objects; planners
solve the integer timing constraints that make decryption exact.  One rule,
one search and one bracket define every timing and builder: the
odd-half-turn wait ``(2n+1)*pi/|detuning|`` (``_half_turns``), the bounded
search for its least admissible ``n`` (``_least_odd``), and the recording
interferometer ``[write, ..., wait T, read]`` that every protocol's events
sit inside (``_recorded``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add, sub
from typing import Sequence as SequenceType

import numpy as np

from .errors import (
    InfeasiblePlanError,
    InvalidDurationError,
    InvalidFieldError,
    NoFringeError,
    NoPrecessionError,
    PlanMismatchError,
)
from .sequence import FringeScan, PulseSpec, Sequence, Wait, _ValueEq, scan
from .spinor import ROTATING, TWO_PI, FieldParams, FrameConvention

#: Relative tolerance for plan-versus-key consistency checks.
_PLAN_RTOL = 1e-9

#: Search bound for the integer timing planners; prevents unbounded loops
#: on infeasible inputs.
MAX_PLAN_INDEX = 10**6


def _half_turns(n: int, detuning: float) -> float:
    """Wait ``(2n+1)*pi/|detuning|`` over which a field precesses by an odd
    multiple of pi; refused for a detuning that is zero or not finite, and
    where the wait is not a finite float."""
    if detuning == 0.0:
        raise NoPrecessionError("retrieval timing is undefined at zero detuning")
    if not math.isfinite(detuning):
        raise InvalidFieldError(f"detuning must be finite, got {detuning}")
    try:  # a Python int n, not a numpy one that would wrap around at 2**63
        wait = (2 * int(n) + 1) * math.pi / abs(detuning)
    except OverflowError:  # 2n + 1 too large for a float
        wait = math.inf
    if wait == math.inf:
        raise InfeasiblePlanError(f"the wait (2n+1)*pi/|detuning| for n = {n} at detuning "
                                  f"{detuning} rad/s is not finite")
    return wait


def _least_odd(detuning: float, minimum: float, index: str, bound: str, *spent: float) -> int:
    """Least ``n`` whose odd-half-turn wait, less each of ``spent`` in turn,
    is at least ``minimum``; ``index`` and ``bound`` name it in the error
    raised when no ``n <= MAX_PLAN_INDEX`` will do."""
    error = f"no {index} <= {MAX_PLAN_INDEX} satisfies the {bound}"
    period = _half_turns(0, detuning)
    # left to right: the round-off picks the index of a minimum on a boundary
    estimate = (reduce(add, (*spent, minimum)) / period - 1.0) / 2.0
    if not estimate <= MAX_PLAN_INDEX:
        raise InfeasiblePlanError(error)
    # round-off can put the estimate one past the answer or one short of it:
    # step up from the index below it, testing the wait the planner reports
    n = max(0, math.ceil(estimate) - 1)
    while reduce(sub, spent, _half_turns(n, detuning)) < minimum:
        n += 1
        if n > MAX_PLAN_INDEX:
            raise InfeasiblePlanError(error)
    return n


def _check_index(name: str, value) -> None:
    """Refuse a plan index that is not an integer >= 0: at a half-integer
    index, ``_half_turns`` is a whole turn, which undoes nothing."""
    if not (isinstance(value, (int, np.integer)) and value >= 0):
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def _check_close(actual: float, expected: float, what: str) -> None:
    if not abs(actual - expected) <= _PLAN_RTOL * max(abs(expected), 1e-300):
        raise PlanMismatchError(f"{what}: plan value {actual} != required {expected}")


def _recorded(write_key: WriteKey, middle: tuple, T: float, frame: FrameConvention,
              clock_during_pulses: bool, scanned: bool) -> Sequence:
    """The recording interferometer ``[write, *middle, wait T, read]``; the
    read pulse repeats the write pulse."""
    pulse = write_key.pulse()
    return Sequence(
        (pulse, *middle, Wait(T, scanned=scanned), pulse),
        frame=frame,
        clock_during_pulses=clock_during_pulses,
    )


@dataclass(frozen=True, eq=False)
class WriteKey(_ValueEq):
    """Recording-pulse key: field, duration, phase and pulse area.

    Exactly the information needed to read the memory back: phase offset,
    field frequency (through ``field``) and pulse timing.  Either ``tau``
    or ``pulse_area`` may be given; the other is derived.  With neither,
    the area defaults to pi/2.  If both are given they must agree to 1e-9.
    """

    field: FieldParams
    tau: float | None = None
    phase: float = 0.0
    pulse_area: float | None = None

    def __post_init__(self):
        tau, area = self.tau, self.pulse_area
        if tau is None and area is None:
            area = 0.5 * math.pi
        if tau is None:
            tau = area / self.field.rabi
        pulse = PulseSpec(self.field, tau, self.phase)  # refuses a bad duration, area or phase
        rabi_tau = self.field.rabi * tau
        area = rabi_tau if area is None else area
        if abs(area - rabi_tau) > 1e-9:
            raise ValueError(f"declared pulse area {area} inconsistent with rabi*tau = {rabi_tau}")
        object.__setattr__(self, "tau", float(tau))
        object.__setattr__(self, "phase", pulse.phase_offset)  # frozen as the pulse holds it
        object.__setattr__(self, "pulse_area", float(area))

    def pulse(self) -> PulseSpec:
        return PulseSpec(self.field, self.tau, self.phase)


@dataclass(frozen=True, eq=False)
class ScrambleKey(_ValueEq):
    """Scrambling-pulse key.

    ``phi_S`` is the field's phase offset relative to the recording field,
    reduced to [0, 2*pi); ``None`` marks a withheld key whose phase must be
    treated as random.  An array of phases builds sequences on the scan
    engine's key-phase axis (``(K, 1)`` for K keys, ``(N,)`` for one per
    grid point; see :mod:`~ramseylock.sequence`).  ``T1`` is the wait
    between the preceding pulse and this scramble pulse (recording pulse
    for the first scrambler, previous scramble pulse in stacked schemes).
    """

    field: FieldParams
    tau: float
    phi_S: float | np.ndarray | None
    T1: float

    def __post_init__(self):
        # the pulse (a withheld phase checked as 0) and the wait before it refuse bad values
        pulse = PulseSpec(self.field, self.tau, 0.0 if self.phi_S is None else self.phi_S)
        Wait(self.T1)
        if self.phi_S is not None:
            phi = pulse.phase_offset % TWO_PI
            if isinstance(phi, np.ndarray):
                phi.setflags(write=False)
            object.__setattr__(self, "phi_S", phi)

    @property
    def has_phase(self) -> bool:
        return self.phi_S is not None

    def pulse(self) -> PulseSpec:
        if self.phi_S is None:
            raise ValueError("scramble key phase is withheld; cannot build a concrete pulse")
        return PulseSpec(self.field, self.tau, self.phi_S)


@dataclass(frozen=True)
class RetrievalPlan:
    """Scramble-to-retrieve wait ``T2 = (2n+1)*pi/|detuning|``, less the
    scramble pulse's ``tau_S`` if the plan is for a timeline whose clock
    runs during pulses: the retrieve pulse then starts an odd number of
    half-turns after the scramble pulse starts."""

    n: int
    T2: float
    tau_S: float = 0.0
    clock_during_pulses: bool = False

    def __post_init__(self):
        _check_index("n", self.n)
        if not (self.T2 >= 0.0):  # 0 where tau_S spends a whole odd half-turn
            raise ValueError(f"T2 must be >= 0, got {self.T2}")


@dataclass(frozen=True)
class DoubleRetrievalPlan:
    """Solved timings for the stacked (two-scrambler) scheme.

    ``T3 = (2n+1)*pi/|detuning_2|`` and
    ``T2 + T3 + T4 (+ 2*tau_S2 if clock_during_pulses) = (2m+1)*pi/|detuning_1|``.
    """

    m: int
    n: int
    T2: float
    T3: float
    T4: float
    tau_S2: float
    clock_during_pulses: bool = False

    def __post_init__(self):
        _check_index("m", self.m)
        _check_index("n", self.n)


def build_write_read(
    key: WriteKey,
    T: float,
    *,
    frame: FrameConvention = ROTATING,
    clock_during_pulses: bool = False,
    scanned: bool = False,
) -> Sequence:
    """Plain two-pulse interferometer: ``[pulse, wait T, pulse]``.

    With ``scanned`` the read wait is marked as the scan variable so the
    result can be handed straight to :func:`~ramseylock.sequence.scan`.
    """
    return _recorded(key, (), T, frame, clock_during_pulses, scanned)


def plan_readout(delta_W: float, k: int = 0) -> float:
    """Read-pulse wait, ``(2k+1)*pi/|delta_W|``, at which the recorded
    superposition maps back onto a population extremum."""
    if delta_W == 0.0:
        raise NoFringeError("readout timing is undefined at zero detuning")
    _check_index("k", k)
    return _half_turns(k, delta_W)


def build_scrambled(
    write_key: WriteKey,
    scramble_key: ScrambleKey,
    T: float,
    *,
    frame: FrameConvention = ROTATING,
    clock_during_pulses: bool = False,
    scanned: bool = False,
) -> Sequence:
    """Encrypting sequence ``[write, wait T1, scramble, wait T, read]``."""
    middle = (Wait(scramble_key.T1), scramble_key.pulse())
    return _recorded(write_key, middle, T, frame, clock_during_pulses, scanned)


def plan_retrieval(
    delta_S: float,
    min_T2: float = 0.0,
    tau_S: float = 0.0,
    clock_during_pulses: bool = False,
) -> RetrievalPlan:
    """Smallest odd-pi precession wait: least ``n`` with
    ``T2 = (2n+1)*pi/|delta_S| (- tau_S when the clock runs during pulses)
    >= min_T2``, where ``tau_S`` is the scramble pulse's duration."""
    if not min_T2 >= 0.0:
        raise ValueError(f"min_T2 must be >= 0, got {min_T2}")
    if not tau_S >= 0.0 or not math.isfinite(tau_S):
        raise InvalidDurationError(f"tau_S must be >= 0, got {tau_S}")
    spent = tau_S if clock_during_pulses else 0.0
    n = _least_odd(delta_S, min_T2, "n", "T2 bound", spent)
    return RetrievalPlan(n=n, T2=_half_turns(n, delta_S) - spent, tau_S=tau_S,
                         clock_during_pulses=clock_during_pulses)


def build_retrieved(
    write_key: WriteKey,
    scramble_key: ScrambleKey,
    plan: RetrievalPlan,
    T: float,
    *,
    frame: FrameConvention = ROTATING,
    clock_during_pulses: bool = False,
    scanned: bool = False,
) -> Sequence:
    """Decrypting sequence ``[write, T1, scramble, T2, retrieve, T, read]``.

    The retrieve pulse reuses the scramble key's field, duration and phase
    offset; the engine's accumulated phase between the two pulses'
    starts then is an odd multiple of pi, which undoes the scramble for
    every key phase.  That holds on the clock ``plan`` was made for, which
    the plan is checked against (with the key's duration if the clock runs
    during pulses); ``clock_during_pulses`` sets the timeline's own clock.
    """
    d = scramble_key.field.detuning
    spent = plan.tau_S if plan.clock_during_pulses else 0.0
    _check_close(plan.T2 + spent, _half_turns(plan.n, d), "retrieval wait")
    if plan.clock_during_pulses:
        _check_close(plan.tau_S, scramble_key.tau, "scramble duration")
    pulse = scramble_key.pulse()
    middle = (Wait(scramble_key.T1), pulse, Wait(plan.T2), pulse)
    return _recorded(write_key, middle, T, frame, clock_during_pulses, scanned)


def build_double_scrambled(
    write_key: WriteKey,
    scramble_1: ScrambleKey,
    scramble_2: ScrambleKey,
    T: float,
    *,
    frame: FrameConvention = ROTATING,
    clock_during_pulses: bool = False,
    scanned: bool = False,
) -> Sequence:
    """Stacked encryption ``[write, T1, scramble-1, T2, scramble-2, T, read]``.

    ``scramble_2.T1`` is the scramble-1 to scramble-2 wait.
    """
    middle = (Wait(scramble_1.T1), scramble_1.pulse(), Wait(scramble_2.T1), scramble_2.pulse())
    return _recorded(write_key, middle, T, frame, clock_during_pulses, scanned)


def plan_double_retrieval(
    delta_S1: float,
    delta_S2: float,
    tau_S2: float,
    min_T3: float = 0.0,
    min_T2_plus_T4: float = 0.0,
    clock_during_pulses: bool = False,
    T2: float | None = None,
) -> DoubleRetrievalPlan:
    """Solve the stacked-retrieval timing constraints.

    Picks the smallest ``n`` with ``T3 = (2n+1)*pi/|delta_S2| >= min_T3``,
    then the smallest ``m`` whose slack
    ``(2m+1)*pi/|delta_S1| - T3 (- 2*tau_S2 when the clock runs during
    pulses)`` is at least ``min_T2_plus_T4``.  The slack is split evenly
    between ``T2`` and ``T4`` unless an explicit ``T2`` override is given
    (the constraints fix only the sum).
    """
    if not tau_S2 >= 0.0 or not math.isfinite(tau_S2):
        raise InvalidDurationError(f"tau_S2 must be >= 0, got {tau_S2}")
    if not (min_T3 >= 0.0 and min_T2_plus_T4 >= 0.0):
        raise ValueError("minimum intervals must be >= 0")

    n = _least_odd(delta_S2, min_T3, "n", "T3 bound")
    T3 = _half_turns(n, delta_S2)
    correction = 2.0 * tau_S2 if clock_during_pulses else 0.0
    m = _least_odd(delta_S1, min_T2_plus_T4, "m", "sum constraint", T3, correction)
    slack = _half_turns(m, delta_S1) - T3 - correction

    if T2 is None:
        T2 = slack / 2.0
    elif not (0.0 <= T2 <= slack):
        raise PlanMismatchError(f"T2 override {T2} outside available slack [0, {slack}]")
    return DoubleRetrievalPlan(
        m=m, n=n, T2=T2, T3=T3, T4=slack - T2, tau_S2=tau_S2,
        clock_during_pulses=clock_during_pulses,
    )


def build_double_retrieved(
    write_key: WriteKey,
    scramble_1: ScrambleKey,
    scramble_2: ScrambleKey,
    plan: DoubleRetrievalPlan,
    T: float,
    *,
    frame: FrameConvention = ROTATING,
    scanned: bool = False,
) -> Sequence:
    """Stacked decryption; retrieve-1 for scramble-1 comes after retrieve-2.

    ``[write, T1, scramble-1, T2, scramble-2, T3, retrieve-2, T4,
    retrieve-1, T, read]`` with each retrieve pulse reusing its scramble
    key.  The plan must match the keys: ``T3`` against the second
    scrambler's detuning, the sum constraint against the first scrambler's
    detuning (with the ``2*tau_S2`` correction iff the plan was made for a
    wall-clock timeline), ``tau_S2`` and ``T2`` against the second key.
    """
    d1, d2 = scramble_1.field.detuning, scramble_2.field.detuning
    _check_close(plan.T3, _half_turns(plan.n, d2), "retrieve-2 wait")
    correction = 2.0 * plan.tau_S2 if plan.clock_during_pulses else 0.0
    total = plan.T2 + plan.T3 + plan.T4 + correction
    _check_close(total, _half_turns(plan.m, d1), "retrieve-1 sum constraint")
    _check_close(plan.tau_S2, scramble_2.tau, "scramble-2 duration")
    _check_close(plan.T2, scramble_2.T1, "scramble-1 to scramble-2 wait")
    s1, s2 = scramble_1.pulse(), scramble_2.pulse()
    middle = (Wait(scramble_1.T1), s1, Wait(plan.T2), s2, Wait(plan.T3), s2, Wait(plan.T4), s1)
    return _recorded(write_key, middle, T, frame, plan.clock_during_pulses, scanned)


def _template(protocol: str, write_key: WriteKey, keys: tuple = (), intervals=None, *,
              frame: FrameConvention, clock_during_pulses: bool) -> Sequence:
    """The scan template of ``protocol`` from its scramble ``keys`` in pulse
    order, planned from the ``T2``-``T4`` minimums in ``intervals`` (0 where
    absent); ``attack`` scans the ``scramble`` one."""
    intervals = intervals or {}
    opts = dict(frame=frame, clock_during_pulses=clock_during_pulses, scanned=True)
    if protocol == "ramsey":
        return build_write_read(write_key, 0.0, **opts)
    if protocol in ("scramble", "attack"):
        return build_scrambled(write_key, *keys, 0.0, **opts)
    if protocol == "double-scramble":
        return build_double_scrambled(write_key, *keys, 0.0, **opts)
    if protocol == "retrieve":
        plan = plan_retrieval(keys[0].field.detuning, intervals.get("T2", 0.0), keys[0].tau,
                              clock_during_pulses)
        return build_retrieved(write_key, *keys, plan, 0.0, **opts)
    if protocol != "double-retrieve":
        raise ValueError(f"unknown protocol {protocol!r}")
    s1, s2 = keys
    plan = plan_double_retrieval(
        s1.field.detuning, s2.field.detuning, s2.tau, min_T3=intervals.get("T3", 0.0),
        min_T2_plus_T4=intervals.get("T2", 0.0) + intervals.get("T4", 0.0),
        clock_during_pulses=clock_during_pulses, T2=intervals.get("T2"))
    return build_double_retrieved(write_key, s1, replace(s2, T1=plan.T2), plan, 0.0,
                                  frame=frame, scanned=True)


def secret_readout(
    write_key: WriteKey,
    scramble_key: ScrambleKey,
    T_grid: SequenceType[float],
    rng: np.random.Generator | None = None,
    *,
    frame: FrameConvention = ROTATING,
    clock_during_pulses: bool = False,
    fresh_phase_per_point: bool = False,
) -> FringeScan:
    """Read the memory with or without the scrambler's cooperation.

    If ``scramble_key`` carries its phase, the holder of both keys builds
    the timed retrieve sequence (smallest odd-pi wait) and recovers the
    recorded fringe.  If the phase is withheld (``phi_S is None``) the
    scramble pulse still happened, but with a phase unknown to the reader:
    a fresh uniform phase is drawn (one per readout by default, or one per
    grid point with ``fresh_phase_per_point`` to model shot-by-shot drift,
    scanned as one ``(N,)`` key-phase array) and the resulting ambiguous
    scan is returned.  ``frame`` and ``clock_during_pulses`` set the
    timeline conventions of both sequences.
    """
    grid = list(T_grid)
    protocol, key = "retrieve", scramble_key
    if not scramble_key.has_phase:
        if rng is None:
            raise ValueError("blind readout needs a random generator for the unknown key phase")
        # one draw of N phases reads the stream as N scalar draws would
        size = len(grid) if fresh_phase_per_point else None
        protocol, key = "attack", replace(scramble_key, phi_S=rng.uniform(0.0, TWO_PI, size=size))
    return scan(_template(protocol, write_key, (key,), frame=frame,
                          clock_during_pulses=clock_during_pulses), grid)
