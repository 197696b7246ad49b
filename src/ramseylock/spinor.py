"""Exact two-level-spin linear algebra for pulsed interferometry.

A spin with ground state ``|g>`` and excited state ``|e>`` is driven by
rectangular field pulses.  Each pulse of a field with Rabi frequency
``rabi`` and detuning ``detuning`` (both angular, rad/s) rotates the state
by the 2x2 unitary :func:`pulse_unitary`; between pulses the state picks up
free-evolution phases through :func:`free_unitary`.  Everything here is a
pure function of its inputs and uses plain double-precision complex
scalars, so the unitarity of every operator can be checked to machine
precision.

The phase argument of :func:`pulse_unitary` and the interval of
:func:`free_unitary` may also be float arrays; the operator entries then
become arrays of that shape, which is how a whole scan grid is evolved
in one pass.

By default the dynamics are written in the frame co-rotating with the
atomic transition: the atomic frequency is set to zero and all phases
advance at the field detunings.  The resulting populations are identical
to the laboratory-frame description (see :class:`FrameConvention`), while
avoiding optical-scale frequencies that would exhaust double precision
over millisecond timelines.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegradedStateError, InvalidDurationError, InvalidFieldError

TWO_PI = 2.0 * math.pi

#: Norm deviation beyond which a state is no longer trusted for readout.
NORM_TOLERANCE = 1e-6


def _wrap(angle: float) -> float:
    """Reduce an angle (float or array) to [0, 2*pi) before trigonometric evaluation.

    Keeps round-off bounded when timeline phases grow over long sequences.
    """
    return angle % TWO_PI


@dataclass(frozen=True)
class FieldParams:
    """One driving field: Rabi frequency, detuning and a label.

    Parameters
    ----------
    rabi : float
        Bare Rabi frequency (angular, rad/s).  Must be positive.
    detuning : float
        Field frequency minus atomic transition frequency (rad/s), any sign.
    label : str
        Free-form identifier, e.g. ``"W"`` or ``"S"``.
    """

    rabi: float
    detuning: float
    label: str = ""

    def __post_init__(self):
        if not (self.rabi > 0.0) or not math.isfinite(self.rabi):
            raise InvalidFieldError(f"rabi must be positive and finite, got {self.rabi}")
        if not math.isfinite(self.detuning):
            raise InvalidFieldError(f"detuning must be finite, got {self.detuning}")

    @property
    def effective_rabi(self) -> float:
        """sqrt(rabi^2 + detuning^2), the generalized rotation rate in rad/s.

        Always at least ``rabi``, with equality iff the field is resonant.
        """
        return math.hypot(self.rabi, self.detuning)


@dataclass(frozen=True)
class FrameConvention:
    """Reference frame for phase bookkeeping.

    ``rotating`` has atomic frequency zero (any other is a ``ValueError``),
    so pulse phases advance at the detunings and free evolution is the
    identity.  ``lab`` keeps an explicit atomic frequency
    ``atomic_frequency`` (rad/s); each field then oscillates at
    ``atomic_frequency + detuning`` and free evolution winds the two
    amplitudes at ``+/- atomic_frequency/2``.  Populations agree
    between the two modes for any pulse sequence whose clock advances only
    during waits.
    """

    mode: str = "rotating"
    atomic_frequency: float = 0.0

    def __post_init__(self):
        if self.mode not in ("rotating", "lab"):
            raise ValueError(f"mode must be 'rotating' or 'lab', got {self.mode!r}")
        if not math.isfinite(self.atomic_frequency):
            raise ValueError("atomic_frequency must be finite")
        if self.mode == "rotating" and self.atomic_frequency != 0.0:
            raise ValueError(f"rotating frame needs atomic_frequency 0, got {self.atomic_frequency}")

    @property
    def free_rate(self) -> float:
        """Angular rate of free phase winding (0 in the rotating frame)."""
        return self.atomic_frequency if self.mode == "lab" else 0.0

    def pulse_phase_rate(self, field: FieldParams) -> float:
        """Rate at which the phase argument of ``field`` pulses advances."""
        return self.free_rate + field.detuning


#: Default frame: co-rotating with the atomic transition.
ROTATING = FrameConvention("rotating")


@dataclass(frozen=True)
class SpinState:
    """Two-component complex amplitude pair ``(c_g, c_e)``.

    Each amplitude is a complex scalar, or an array holding one state per
    element.
    """

    c_g: complex
    c_e: complex

    def norm(self) -> float:
        return math.sqrt(abs(self.c_g) ** 2 + abs(self.c_e) ** 2)


#: The spin ground state ``|g>``.
GROUND = SpinState(1.0 + 0.0j, 0.0 + 0.0j)


@dataclass(frozen=True)
class Unitary2:
    """A 2x2 complex matrix, stored row-major in the ``{|g>, |e>}`` basis.

    Entries are complex scalars, or arrays holding one matrix per element.
    """

    u_gg: complex
    u_ge: complex
    u_eg: complex
    u_ee: complex

    @classmethod
    def identity(cls) -> "Unitary2":
        return cls(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)

    def dagger(self) -> "Unitary2":
        return Unitary2(
            self.u_gg.conjugate(),
            self.u_eg.conjugate(),
            self.u_ge.conjugate(),
            self.u_ee.conjugate(),
        )

    def __matmul__(self, other: "Unitary2") -> "Unitary2":
        return Unitary2(
            self.u_gg * other.u_gg + self.u_ge * other.u_eg,
            self.u_gg * other.u_ge + self.u_ge * other.u_ee,
            self.u_eg * other.u_gg + self.u_ee * other.u_eg,
            self.u_eg * other.u_ge + self.u_ee * other.u_ee,
        )

    def unitarity_defect(self) -> float:
        """Max-entry deviation of ``U^dagger U`` from the identity."""
        p = self.dagger() @ self
        return max(
            abs(p.u_gg - 1.0),
            abs(p.u_ge),
            abs(p.u_eg),
            abs(p.u_ee - 1.0),
        )


def pulse_unitary(field: FieldParams, tau: float, phi: float) -> Unitary2:
    """Interaction unitary of one rectangular pulse.

    Parameters
    ----------
    field : FieldParams
        Driving field (validated at construction).
    tau : float
        Pulse duration in seconds, >= 0.
    phi : float or ndarray
        Phase argument of the field at this pulse, in radians.  For a pulse
        starting at timeline time ``t`` this is the accumulated field phase
        ``rate * t`` plus the field's constant phase offset.  An array gives
        one unitary per element: only the off-diagonal phase factors are
        arrays, the magnitudes and the detuning factor stay scalars.  The
        phase factor costs one complex exponential: ``exp(-i*phi)`` is taken
        as the conjugate of ``exp(i*phi)``, which is the same to the bit.

    Returns
    -------
    Unitary2
        With ``w = effective_rabi``, ``C = cos(w*tau/2)``, ``S = sin(w*tau/2)``
        and ``e = exp(i*detuning*tau/2)``::

            [ e*(C - i*(detuning/w)*S)          -i*e*exp(i*phi)*(rabi/w)*S        ]
            [ -i*conj(e)*exp(-i*phi)*(rabi/w)*S  conj(e)*(C + i*(detuning/w)*S)   ]

        A resonant pulse of area ``rabi*tau = pi`` swaps the populations; a
        zero-duration pulse is the identity.
    """
    if tau < 0.0 or not math.isfinite(tau):
        raise InvalidDurationError(f"pulse duration must be >= 0, got {tau}")
    w = field.effective_rabi
    half_rot = _wrap(0.5 * w * tau)
    half_det = _wrap(0.5 * field.detuning * tau)
    phi = _wrap(phi)
    exp = np.exp if isinstance(phi, np.ndarray) else cmath.exp
    cos_r = math.cos(half_rot)
    sin_r = math.sin(half_rot)
    d = field.detuning / w
    o = field.rabi / w
    e = cmath.exp(1j * half_det)
    z = exp(1j * phi)
    diag = complex(cos_r, -d * sin_r)
    off = -1j * o * sin_r
    return Unitary2(
        e * diag,
        e * z * off,
        e.conjugate() * z.conjugate() * off,
        e.conjugate() * diag.conjugate(),
    )


def free_unitary(frame: FrameConvention, t: float) -> Unitary2:
    """Free-evolution unitary over an interval ``t`` (float or array).

    Diagonal ``(exp(i*w_a*t/2), exp(-i*w_a*t/2))`` with ``w_a`` the frame's
    atomic frequency; exactly the (scalar) identity in the rotating frame.
    """
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise InvalidDurationError(f"free-evolution interval must be finite and >= 0, got {t}")
    return _free_unitary(frame, t)


def _free_unitary(frame: FrameConvention, t: float) -> Unitary2:
    """:func:`free_unitary` without the check of ``t``, for intervals
    already checked (wait durations and scan grids)."""
    rate = frame.free_rate
    if rate == 0.0:
        return Unitary2.identity()
    half = _wrap(0.5 * rate * t)
    e = (np.exp if isinstance(half, np.ndarray) else cmath.exp)(1j * half)
    return Unitary2(e, 0.0j, 0.0j, e.conjugate())


def apply_unitary(u: Unitary2, s: SpinState) -> SpinState:
    """Matrix-vector product ``u @ s``.  No renormalization is performed,
    so any norm drift stays observable downstream."""
    return SpinState(
        u.u_gg * s.c_g + u.u_ge * s.c_e,
        u.u_eg * s.c_g + u.u_ee * s.c_e,
    )


def excitation_probability(s: SpinState):
    """``|c_e|^2`` of an (approximately) normalized state.

    Elementwise when the amplitudes are arrays.

    Raises
    ------
    DegradedStateError
        If the norm of any element deviates from 1 by more than
        ``NORM_TOLERANCE``, or is not a number.
    """
    p = np.abs(s.c_e) ** 2
    worst = np.max(np.abs(np.sqrt(np.abs(s.c_g) ** 2 + p) - 1.0))
    if not worst <= NORM_TOLERANCE:
        raise DegradedStateError(
            f"state norm deviates from 1 by {float(worst)!r}, beyond {NORM_TOLERANCE}"
        )
    return p


def closed_form_ramsey(field: FieldParams, tau: float, T: float) -> float:
    """Closed-form excitation probability of a two-pulse interferometer.

    Starting from ``|g>``, two identical pulses of duration ``tau``
    separated by a free interval ``T`` give, in the short-pulse
    approximation::

        P_e(T) = 4*(rabi/w)^2 * sin^2(w*tau/2)
                 * [cos(d*T/2)*cos(w*tau/2) - (d/w)*sin(d*T/2)*sin(w*tau/2)]^2

    with ``d = detuning`` and ``w = effective_rabi``.  The scan over ``T``
    oscillates at exactly the detuning; the exact matrix product agrees up
    to a phase offset of at most ``detuning*tau``.
    """
    if tau < 0.0 or not math.isfinite(tau):
        raise InvalidDurationError(f"pulse duration must be >= 0, got {tau}")
    if T < 0.0 or not math.isfinite(T):
        raise InvalidDurationError(f"interval must be >= 0, got {T}")
    w = field.effective_rabi
    half_rot = _wrap(0.5 * w * tau)
    half_prec = _wrap(0.5 * field.detuning * T)
    cos_r = math.cos(half_rot)
    sin_r = math.sin(half_rot)
    d = field.detuning / w
    o = field.rabi / w
    bracket = math.cos(half_prec) * cos_r - d * math.sin(half_prec) * sin_r
    return 4.0 * o * o * sin_r * sin_r * bracket * bracket
