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
