"""Unit tests for the 2x2 pulse/free-evolution algebra."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ramseylock import (
    GROUND,
    ROTATING,
    DegradedStateError,
    FieldParams,
    FrameConvention,
    InvalidDurationError,
    InvalidFieldError,
    SpinState,
    Unitary2,
    apply_unitary,
    closed_form_ramsey,
    excitation_probability,
    free_unitary,
    pulse_unitary,
)
from ramseylock.spinor import NORM_TOLERANCE, _phasor

TWO_PI = 2.0 * math.pi


def assert_matrix_close(u: Unitary2, expected, tol=1e-12):
    for got, want in zip((u.u_gg, u.u_ge, u.u_eg, u.u_ee), expected):
        assert abs(got - want) <= tol, f"{got} != {want}"


class TestEffectiveRabi:
    def test_resonant_is_identity(self):
        f = FieldParams(TWO_PI * 565.0, 0.0)
        assert f.effective_rabi == TWO_PI * 565.0

    def test_write_field_value(self):
        f = FieldParams(TWO_PI * 565.0, TWO_PI * 110.0)
        assert f.effective_rabi == pytest.approx(TWO_PI * math.hypot(565.0, 110.0), rel=1e-15)
        assert f.effective_rabi / TWO_PI == pytest.approx(575.61, abs=5e-3)

    def test_scramble_field_value(self):
        f = FieldParams(TWO_PI * 169.0, TWO_PI * 100.0)
        assert f.effective_rabi / TWO_PI == pytest.approx(196.37, abs=5e-3)

    def test_nonpositive_rabi_rejected(self):
        with pytest.raises(InvalidFieldError):
            FieldParams(0.0, 1.0)
        with pytest.raises(InvalidFieldError):
            FieldParams(-5.0, 1.0)

    @pytest.mark.parametrize("detuning", [math.inf, -math.inf, math.nan])
    def test_non_finite_detuning_rejected(self, detuning):
        with pytest.raises(InvalidFieldError, match="^detuning must be finite, got "):
            FieldParams(1.0, detuning)


class TestPulseUnitary:
    def test_resonant_pi_pulse_swaps_populations(self):
        f = FieldParams(TWO_PI * 100.0, 0.0)
        tau = math.pi / f.rabi
        u = pulse_unitary(f, tau, 0.0)
        assert_matrix_close(u, (0.0, -1.0j, -1.0j, 0.0))

    def test_resonant_half_pi_pulse(self):
        f = FieldParams(TWO_PI * 100.0, 0.0)
        tau = 0.5 * math.pi / f.rabi
        r = math.sqrt(0.5)
        assert_matrix_close(pulse_unitary(f, tau, 0.0), (r, -1.0j * r, -1.0j * r, r))

    def test_zero_duration_is_identity(self):
        f = FieldParams(TWO_PI * 100.0, TWO_PI * 30.0)
        assert_matrix_close(pulse_unitary(f, 0.0, 1.234), (1.0, 0.0, 0.0, 1.0))

    def test_negative_duration_rejected(self):
        f = FieldParams(1.0, 0.0)
        with pytest.raises(InvalidDurationError):
            pulse_unitary(f, -1e-9, 0.0)

    def test_detuned_entries_match_formula(self):
        f = FieldParams(TWO_PI * 169.0, TWO_PI * 100.0)
        tau, phi = 1.48e-3, 0.7
        w = f.effective_rabi
        c, s = math.cos(w * tau / 2), math.sin(w * tau / 2)
        e = cmath.exp(1j * f.detuning * tau / 2)
        u = pulse_unitary(f, tau, phi)
        assert_matrix_close(
            u,
            (
                e * (c - 1j * (f.detuning / w) * s),
                -1j * e * cmath.exp(1j * phi) * (f.rabi / w) * s,
                -1j * e.conjugate() * cmath.exp(-1j * phi) * (f.rabi / w) * s,
                e.conjugate() * (c + 1j * (f.detuning / w) * s),
            ),
        )

    def test_unitarity_over_random_draws(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10_000):
            f = FieldParams(
                rng.uniform(1.0, TWO_PI * 1e4), rng.uniform(-TWO_PI * 1e3, TWO_PI * 1e3)
            )
            u = pulse_unitary(f, rng.uniform(0.0, 5e-3), rng.uniform(-10.0, 10.0))
            worst = max(worst, u.unitarity_defect())
        assert worst <= 1e-12


class TestFreeUnitary:
    def test_rotating_mode_is_identity_for_any_interval(self):
        for t in (0.0, 1e-6, 0.5, 47.0):
            assert_matrix_close(free_unitary(ROTATING, t), (1.0, 0.0, 0.0, 1.0))

    @pytest.mark.parametrize("omega", [123.0, -1e-300])
    def test_rotating_frame_rejects_an_atomic_frequency(self, omega):
        # a rotating frame winds nothing, so a frequency given to it would be ignored
        with pytest.raises(ValueError, match="rotating frame needs atomic_frequency 0"):
            FrameConvention("rotating", omega)
        assert FrameConvention("rotating", 0.0).free_rate == 0.0

    def test_an_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match="^mode must be 'rotating' or 'lab', got 'bogus'$"):
            FrameConvention("bogus")

    def test_lab_mode_quarter_turn(self):
        frame = FrameConvention("lab", TWO_PI * 1000.0)
        u = free_unitary(frame, 0.5e-3)  # atomic phase/2 = pi/2
        assert_matrix_close(u, (1.0j, 0.0, 0.0, -1.0j))

    def test_zero_interval_is_identity(self):
        frame = FrameConvention("lab", TWO_PI * 1000.0)
        assert_matrix_close(free_unitary(frame, 0.0), (1.0, 0.0, 0.0, 1.0))

    def test_negative_interval_rejected(self):
        with pytest.raises(InvalidDurationError):
            free_unitary(ROTATING, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9])
    def test_array_interval_checked_elementwise(self, bad):
        with pytest.raises(InvalidDurationError):
            free_unitary(ROTATING, np.array([0.0, bad]))


FIELDS = st.builds(
    FieldParams, st.floats(1.0, TWO_PI * 1e4), st.floats(-TWO_PI * 1e3, TWO_PI * 1e3)
)
KN_SHAPES = array_shapes(min_dims=2, max_dims=2, max_side=6)
#: A scalar, or a (K, N) array of phases.
PHASES = st.floats(-1e3, 1e3) | arrays(float, KN_SHAPES, elements=st.floats(-1e3, 1e3))
#: A scalar, or a (K, N) array of free-evolution intervals.
INTERVALS = st.floats(0.0, 1.0) | arrays(float, KN_SHAPES, elements=st.floats(0.0, 1.0))
FRAMES = st.just(ROTATING) | st.floats(0.0, TWO_PI * 1e5).map(lambda w: FrameConvention("lab", w))


def _element(u: Unitary2, shape, idx) -> Unitary2:
    """Element ``idx`` of an operator whose entries broadcast to ``shape``."""
    return Unitary2(
        *(complex(np.broadcast_to(x, shape)[idx]) for x in (u.u_gg, u.u_ge, u.u_eg, u.u_ee))
    )


def _entries(u: Unitary2) -> tuple:
    return (u.u_gg, u.u_ge, u.u_eg, u.u_ee)


class TestArrayArgumentsMatchScalarCalls:
    """Every element of an array-valued operator is the operator of that
    element's argument, and unitary to 1e-12."""

    @settings(max_examples=150, deadline=None)
    @given(field=FIELDS, tau=st.floats(0.0, 5e-3), phi=PHASES)
    def test_pulse_unitary(self, field, tau, phi):
        batch = pulse_unitary(field, tau, phi)
        for idx in np.ndindex(np.shape(phi)):
            got = _element(batch, np.shape(phi), idx)
            assert got.unitarity_defect() <= 1e-12
            if np.ndim(phi) == 0:
                continue
            # bit for bit against the same phase alone; numpy's complex
            # product may round differently from Python's (fused
            # multiply-add), so against the Python scalar only to rounding
            alone = pulse_unitary(field, tau, np.array([phi[idx]]))
            assert _entries(got) == _entries(_element(alone, (1,), 0))
            scalar = pulse_unitary(field, tau, float(phi[idx]))
            assert all(abs(a - b) <= 1e-15 for a, b in zip(_entries(got), _entries(scalar)))

    @settings(max_examples=150, deadline=None)
    @given(frame=FRAMES, t=INTERVALS)
    def test_free_unitary(self, frame, t):
        batch = free_unitary(frame, t)
        for idx in np.ndindex(np.shape(t)):
            got = _element(batch, np.shape(t), idx)
            assert got.unitarity_defect() <= 1e-12
            assert _entries(got) == _entries(free_unitary(frame, float(np.asarray(t)[idx])))


#: 2**20 turns of the rounded ``TWO_PI``: it lies ``2**20 * (TWO_PI - 2*pi)``
#: = sin(UNREDUCED) = -2.568e-10 rad from a whole number of exact turns,
#: which a reduction by ``TWO_PI`` before evaluation would read as 0.
UNREDUCED = 2.0**20 * TWO_PI


class TestPhasesEvaluatedAsGiven:
    def test_the_offset_is_what_a_reduction_would_lose(self):
        assert math.sin(UNREDUCED) == pytest.approx(-2.568e-10, rel=1e-3)
        assert UNREDUCED % TWO_PI == 0.0

    @pytest.mark.parametrize("phi", [UNREDUCED, np.array([UNREDUCED])], ids=["scalar", "array"])
    def test_pulse_phase(self, write_field, phi):
        ratio = pulse_unitary(write_field, 0.44e-3, phi).u_ge / pulse_unitary(
            write_field, 0.44e-3, 0.0).u_ge
        assert abs(np.angle(ratio) - math.sin(UNREDUCED)) <= 1e-15

    @pytest.mark.parametrize("t", [UNREDUCED, np.array([UNREDUCED])], ids=["scalar", "array"])
    def test_lab_frame_free_phase(self, t):
        # half the free phase of a 2 rad/s atom over t seconds is t rad
        u = free_unitary(FrameConvention("lab", 2.0), t)
        assert abs(np.angle(u.u_gg) - math.sin(UNREDUCED)) <= 1e-15

    def test_closed_form_precession(self):
        # half the precession of a 2 rad/s detuning over T seconds is T rad;
        # to first order in its offset eps, the bracket moves by -d*eps*S
        f = FieldParams(2.0, 2.0)
        tau = 0.5 * math.pi / f.effective_rabi
        d = o = f.detuning / f.effective_rabi
        C, S = math.cos(0.25 * math.pi), math.sin(0.25 * math.pi)
        shift = -8.0 * o * o * d * S**3 * C * math.sin(UNREDUCED)
        got = closed_form_ramsey(f, tau, UNREDUCED) - closed_form_ramsey(f, tau, 0.0)
        assert abs(got - shift) <= 1e-15


#: Phases whose factors must match ``np.exp`` and ``cmath.exp`` to the bit:
#: signed zeros, the least subnormal, 2**20 turns and the ends of the range.
PHASOR_ARGS = [0.0, -0.0, 5e-324, -5e-324, UNREDUCED, -UNREDUCED, 1e300, -1e300, 1.0, -2.5]


def _bits(z) -> bytes:
    return np.asarray(z, dtype=complex).tobytes()


class TestPhasor:
    @pytest.mark.parametrize("x", PHASOR_ARGS)
    def test_a_scalar_is_cmath_exp(self, x):
        got = _phasor(x)
        assert type(got) is complex
        assert repr(got) == repr(cmath.exp(1j * x))  # repr tells -0.0 from 0.0

    @pytest.mark.parametrize("shape", [(10,), (2, 5), (5, 2)])
    def test_an_array_is_np_exp(self, shape):
        x = np.array(PHASOR_ARGS).reshape(shape)
        got = _phasor(x)
        assert got.dtype == complex and got.shape == shape
        assert _bits(got) == _bits(np.exp(1j * x))

    def test_minus_zero_has_a_positive_imaginary_part(self):
        # as exp(1j * -0.0) has it, for arrays and scalars alike; sin(-0.0) is -0.0
        got = _phasor(np.array([-0.0, 0.0]))
        assert [math.copysign(1.0, v) for v in got.imag] == [1.0, 1.0]
        assert math.copysign(1.0, _phasor(-0.0).imag) == 1.0
        assert math.copysign(1.0, np.sin(-0.0)) == -1.0

    @pytest.mark.parametrize("x", PHASOR_ARGS)
    def test_array_elements_are_the_scalar_factor(self, x):
        assert _bits(_phasor(np.array([x]))[0]) == _bits(_phasor(x))

    @settings(max_examples=200, deadline=None)
    @given(x=arrays(float, array_shapes(min_dims=1, max_dims=2, max_side=8),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_random_arrays_are_np_exp(self, x):
        assert _bits(_phasor(x)) == _bits(np.exp(1j * x))


class TestOverflowingHalfAngle:
    def test_pulse_unitary_names_its_half_angle(self):
        with pytest.raises(InvalidDurationError,
                           match=r"half-angle 0\.5\*effective_rabi\*tau is not finite, got inf"):
            pulse_unitary(FieldParams(1.0, 1e300), 1e10, 0.0)

    @pytest.mark.parametrize("tau, T, what", [
        (1e-3, 1e10, "detuning\\*T"), (1e10, 1e-3, "effective_rabi\\*tau"),
    ])
    def test_closed_form_ramsey_names_its_half_angle(self, tau, T, what):
        with pytest.raises(InvalidDurationError, match=rf"half-angle 0\.5\*{what} is not finite"):
            closed_form_ramsey(FieldParams(1.0, 1e300), tau, T)


class TestApplyUnitary:
    def test_identity_keeps_state(self):
        s = apply_unitary(Unitary2.identity(), GROUND)
        assert s == GROUND

    def test_pi_pulse_excites_ground(self):
        f = FieldParams(TWO_PI * 100.0, 0.0)
        s = apply_unitary(pulse_unitary(f, math.pi / f.rabi, 0.0), GROUND)
        assert abs(s.c_g) <= 1e-15
        assert abs(s.c_e + 1.0j) <= 1e-15

    def test_two_half_pi_pulses_compose_to_pi(self):
        f = FieldParams(TWO_PI * 100.0, 0.0)
        u = pulse_unitary(f, 0.5 * math.pi / f.rabi, 0.0)
        s = apply_unitary(u, apply_unitary(u, GROUND))
        assert abs(s.c_g) <= 1e-15
        assert abs(s.c_e + 1.0j) <= 1e-15

    def test_norm_preserved_over_random_sequence(self):
        rng = np.random.default_rng(11)
        s = GROUND
        for _ in range(20):
            f = FieldParams(
                rng.uniform(1.0, TWO_PI * 1e4), rng.uniform(-TWO_PI * 1e3, TWO_PI * 1e3)
            )
            s = apply_unitary(pulse_unitary(f, rng.uniform(0.0, 5e-3), rng.uniform(-10, 10)), s)
        assert abs(s.norm() - 1.0) <= 1e-10


class TestExcitationProbability:
    def test_basis_states(self):
        assert excitation_probability(SpinState(1.0, 0.0)) == 0.0
        assert excitation_probability(SpinState(0.0, 1.0)) == 1.0

    def test_equal_superposition(self):
        r = math.sqrt(0.5)
        assert excitation_probability(SpinState(r, 1.0j * r)) == pytest.approx(0.5, abs=1e-15)

    def test_degraded_norm_rejected(self):
        with pytest.raises(DegradedStateError):
            excitation_probability(SpinState(1.0, 0.01))

    def test_arrays_are_checked_elementwise(self):
        r = math.sqrt(0.5)
        good = SpinState(np.array([1.0, r]), np.array([0.0, 1.0j * r]))
        np.testing.assert_allclose(excitation_probability(good), [0.0, 0.5], atol=1e-15)
        with pytest.raises(DegradedStateError):
            excitation_probability(SpinState(np.array([1.0, 1.0]), np.array([0.0, 0.01])))
        with pytest.raises(DegradedStateError):
            excitation_probability(SpinState(np.array([1.0, math.nan]), np.array([0.0, 0.0])))


def _random_state(rng, shape, bad):
    """Amplitudes of norm ``1 + d``, ``d`` of either sign from 1e-17 to 0.5
    (or 0) per element, with a NaN or an inf put in when ``bad`` says so;
    ``shape`` ``()`` gives complex scalars."""
    size = int(np.prod(shape))
    d = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-17.0, math.log10(0.5), size)
    d[rng.random(size) < 0.2] = 0.0
    theta, alpha, beta = rng.uniform(0.0, TWO_PI, (3, size))
    c_g = (1.0 + d) * np.cos(theta) * np.exp(1j * alpha)
    c_e = (1.0 + d) * np.sin(theta) * np.exp(1j * beta)
    if bad:
        amps = c_g if rng.random() < 0.5 else c_e
        amps[rng.integers(size)] = complex(bad, 0.0) if rng.random() < 0.5 else complex(0.0, bad)
    if shape == ():
        return SpinState(complex(c_g[0]), complex(c_e[0]))
    return SpinState(c_g.reshape(shape), c_e.reshape(shape))


class TestNormDeviation:
    """The deviation a ``DegradedStateError`` reports, taken from the least
    and the largest squared norm, equals the elementwise maximum of
    ``|sqrt(|c_g|^2 + |c_e|^2) - 1|`` to the bit."""

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)], ids=["scalar", "(N,)", "(K, N)"])
    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -math.inf],
                             ids=["finite", "nan", "inf", "-inf"])
    def test_reported_deviation_equals_the_elementwise_maximum(self, shape, bad):
        rng = np.random.default_rng([len(shape), int(bad == bad), int(bad > 0)])
        raised = 0
        for _ in range(300):
            s = _random_state(rng, shape, bad)
            norm2 = np.abs(np.atleast_1d(s.c_g)) ** 2 + np.abs(s.c_e) ** 2
            with np.errstate(invalid="ignore"):
                worst = float(np.abs(np.sqrt(norm2) - 1.0).max())
            if worst <= NORM_TOLERANCE:
                assert excitation_probability(s).tobytes() == (np.abs(s.c_e) ** 2).tobytes()
                continue
            raised += 1
            with pytest.raises(DegradedStateError) as info:
                excitation_probability(s)
            assert str(info.value) == (
                f"state norm deviates from 1 by {worst!r}, beyond {NORM_TOLERANCE}"
            )
        assert raised >= 50  # both branches run


class TestClosedFormRamsey:
    def test_resonant_half_pi_gives_unity_everywhere(self):
        f = FieldParams(TWO_PI * 565.0, 0.0)
        tau = 0.5 * math.pi / f.rabi
        for T in (0.0, 1e-3, 7e-3, 20e-3):
            assert closed_form_ramsey(f, tau, T) == pytest.approx(1.0, abs=1e-12)

    def test_fringe_period_equals_inverse_detuning(self, write_field):
        tau = 0.44e-3
        period = 1.0 / 110.0
        for T in (0.0, 1.3e-3, 4.7e-3, 9.9e-3):
            assert closed_form_ramsey(write_field, tau, T) == pytest.approx(
                closed_form_ramsey(write_field, tau, T + period), abs=1e-9
            )

    def test_resonant_pi_pulse_kills_fringe(self):
        f = FieldParams(TWO_PI * 565.0, 0.0)
        tau = math.pi / f.rabi
        for T in (0.0, 2e-3, 11e-3):
            assert closed_form_ramsey(f, tau, T) == pytest.approx(0.0, abs=1e-12)

    def test_negative_arguments_rejected(self, write_field):
        with pytest.raises(InvalidDurationError):
            closed_form_ramsey(write_field, -1e-3, 0.0)
        with pytest.raises(InvalidDurationError):
            closed_form_ramsey(write_field, 1e-3, -1e-3)
