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
in one pass.  Every phase is evaluated as given: ``cmath.exp``,
``np.cos`` and ``math.cos`` reduce any finite argument exactly, while
reducing it first by the rounded ``TWO_PI`` would shift it by 2.45e-16 rad
per turn removed.  Every phase factor ``exp(i*x)`` is built by one rule,
``_phasor``.

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
    between the two modes for any pulse sequence.
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
        """Angular rate of free phase winding (0 in the rotating frame).
        The phase argument of a pulse advances at ``free_rate`` plus its
        field's detuning."""
        return self.atomic_frequency if self.mode == "lab" else 0.0


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
        ``rate * t`` plus the field's constant phase offset, evaluated as
        given, however many turns it holds.  An array gives one unitary per
        element: only the off-diagonal phase factors are arrays, the
        magnitudes and the detuning factor stay scalars.  The phase factors
        cost one ``_phasor`` and one product: ``u_eg`` takes
        ``conj(e*exp(i*phi))``, which is ``conj(e)*exp(-i*phi)`` to the bit.

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
    half_rot = _half_angle(w, tau, "effective_rabi*tau")
    cos_r = math.cos(half_rot)
    sin_r = math.sin(half_rot)
    d = field.detuning / w
    o = field.rabi / w
    e = _phasor(0.5 * field.detuning * tau)  # |detuning| <= w, so finite
    ez = e * _phasor(phi)
    diag = complex(cos_r, -d * sin_r)
    off = -1j * o * sin_r
    u = object.__new__(Unitary2)  # the entries need no check: skip the frozen __init__
    vars(u).update(u_gg=e * diag, u_ge=ez * off, u_eg=ez.conjugate() * off,
                   u_ee=e.conjugate() * diag.conjugate())
    return u


def free_unitary(frame: FrameConvention, t: float) -> Unitary2:
    """Free-evolution unitary over an interval ``t`` (float or array).

    Diagonal ``(exp(i*w_a*t/2), exp(-i*w_a*t/2))`` with ``w_a`` the frame's
    atomic frequency; exactly the (scalar) identity in the rotating frame.
    """
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise InvalidDurationError(f"free-evolution interval must be finite and >= 0, got {t}")
    if frame.free_rate == 0.0:
        return Unitary2.identity()
    e = _winding(frame.free_rate, t)
    return Unitary2(e, 0.0j, 0.0j, e.conjugate())


def _winding(rate: float, t: float) -> complex:
    """``exp(i*rate*t/2)``, the phase factor of ``c_g`` over an interval ``t``
    (float or array, already checked) of free winding at ``rate``; ``c_e``
    takes its conjugate."""
    return _phasor(0.5 * rate * t)


def _phasor(x):
    """``exp(i*x)`` of a float ``x``, or elementwise of a float array.

    A scalar takes ``cmath.exp``.  An array takes ``cos`` and ``sin`` into
    one complex buffer, which is what ``np.exp(1j*x)`` returns, to the bit,
    without its ``exp(0)`` and complex product per element; its one sign
    rule is copied too: ``exp(i*-0.0)`` has imaginary part ``+0.0``."""
    if type(x) is float or not isinstance(x, np.ndarray):  # the first test is the quick one
        return cmath.exp(1j * x)
    z = np.empty(x.shape, dtype=complex)
    np.cos(x, out=z.real)
    np.sin(x + 0.0, out=z.imag)  # -0.0 + 0.0 is +0.0; every other value is kept
    return z


def _half_angle(rate: float, t: float, what: str) -> float:
    """``0.5 * rate * t`` of a finite ``rate`` and ``t``; a product that
    overflows is refused, naming ``what`` it halves."""
    half = 0.5 * rate * t
    if not math.isfinite(half):
        raise InvalidDurationError(f"half-angle 0.5*{what} is not finite, got {half}")
    return half


def apply_unitary(u: Unitary2, s: SpinState) -> SpinState:
    """Matrix-vector product ``u @ s``.  No renormalization is performed,
    so any norm drift stays observable downstream."""
    return SpinState(
        u.u_gg * s.c_g + u.u_ge * s.c_e,
        u.u_eg * s.c_g + u.u_ee * s.c_e,
    )


def excitation_probability(s: SpinState):
    """``|c_e|^2`` of an (approximately) normalized state.

    Elementwise when the amplitudes are arrays.  The reported deviation is
    the largest ``|sqrt(|c_g|^2 + |c_e|^2) - 1|``, taken from the least and
    the largest squared norm alone: ``sqrt`` is correctly rounded, so the
    rounded deviation grows monotonically away from 1 on either side, and
    one of the two extremes holds the largest, to the bit.  A NaN norm is
    both extremes, and is reported.

    Raises
    ------
    DegradedStateError
        If the norm of any element deviates from 1 by more than
        ``NORM_TOLERANCE``, or is not a number.
    """
    p = np.abs(s.c_e) ** 2
    norm2 = np.abs(np.atleast_1d(s.c_g))
    np.multiply(norm2, norm2, out=norm2)
    norm2 += p
    # argmin and argmax each point at the first NaN, if there is one
    least, most = norm2.item(norm2.argmin()), norm2.item(norm2.argmax())
    worst = max(abs(math.sqrt(least) - 1.0), abs(math.sqrt(most) - 1.0))
    if not worst <= NORM_TOLERANCE:
        raise DegradedStateError(
            f"state norm deviates from 1 by {worst!r}, beyond {NORM_TOLERANCE}"
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
    half_rot = _half_angle(w, tau, "effective_rabi*tau")
    half_prec = _half_angle(field.detuning, T, "detuning*T")
    cos_r = math.cos(half_rot)
    sin_r = math.sin(half_rot)
    d = field.detuning / w
    o = field.rabi / w
    bracket = math.cos(half_prec) * cos_r - d * math.sin(half_prec) * sin_r
    return 4.0 * o * o * sin_r * sin_r * bracket * bracket
