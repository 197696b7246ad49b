"""Tests for timeline compilation, evolution and scanning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylock import (
    GROUND,
    ROTATING,
    FieldParams,
    FrameConvention,
    FringeScan,
    InvalidDurationError,
    PulseSpec,
    ScrambleKey,
    Sequence,
    SequenceError,
    Wait,
    apply_unitary,
    build_double_retrieved,
    build_double_scrambled,
    build_retrieved,
    build_scrambled,
    build_write_read,
    compile_timeline,
    evolve,
    excitation_probability,
    fit_damped_sinusoid,
    plan_double_retrieval,
    plan_retrieval,
    pulse_unitary,
    scan,
    set_scan_value,
)

TWO_PI = 2.0 * math.pi
LAB = FrameConvention("lab", TWO_PI * 1e4)

#: Largest |scan - per-point evolve| allowed; the two differ only in the
#: rounding of numpy's complex exp against cmath's.
ENGINE_TOL = 1e-12


def per_point_reference(template: Sequence, grid) -> np.ndarray:
    """The scan evaluated point by point on the scalar path."""
    return np.array(
        [excitation_probability(evolve(set_scan_value(template, float(T)))) for T in grid]
    )


class TestValidation:
    def test_sequence_needs_a_pulse(self):
        with pytest.raises(SequenceError):
            Sequence((Wait(1e-3),))

    def test_pulse_needs_positive_duration(self, write_field):
        with pytest.raises(ValueError):
            PulseSpec(write_field, 0.0)

    def test_wait_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Wait(-1e-6)

    def test_at_most_one_scan_mark(self, write_field):
        with pytest.raises(SequenceError):
            Sequence(
                (
                    PulseSpec(write_field, 1e-4),
                    Wait(0.0, scanned=True),
                    Wait(0.0, scanned=True),
                )
            )


class TestCompileTimeline:
    def test_two_pulse_phase_advances_by_detuning_times_interval(self, write_field):
        T = 7e-3
        seq = Sequence((PulseSpec(write_field, 0.44e-3), Wait(T), PulseSpec(write_field, 0.44e-3)))
        entries = compile_timeline(seq)
        assert entries[0].start_time == 0.0
        assert entries[0].phase == 0.0
        assert entries[1].start_time == T
        assert entries[1].phase == pytest.approx(write_field.detuning * T, rel=1e-15)

    def test_retrieve_pulse_phase_for_matched_waits(self, write_field, scramble_field):
        # scramble at T1, retrieve at T1 + T2 with T1 = T2 = 5 ms and a
        # 100 Hz detuning: the retrieve phase argument is 2*pi + phi_S
        phi_s = 0.321
        seq = Sequence(
            (
                PulseSpec(write_field, 0.44e-3),
                Wait(5e-3),
                PulseSpec(scramble_field, 1.48e-3, phi_s),
                Wait(5e-3),
                PulseSpec(scramble_field, 1.48e-3, phi_s),
                Wait(1e-3),
                PulseSpec(write_field, 0.44e-3),
            )
        )
        entries = compile_timeline(seq)
        assert entries[2].phase == pytest.approx(TWO_PI * 100.0 * 0.010 + phi_s, rel=1e-12)
        assert entries[2].phase == pytest.approx(TWO_PI + phi_s, rel=1e-12)

    def test_single_pulse_keeps_its_offset(self, write_field):
        seq = Sequence((PulseSpec(write_field, 1e-4, 0.777),))
        assert compile_timeline(seq)[0].phase == 0.777

    def test_clock_during_pulses_shifts_start_times(self, write_field):
        tau = 0.44e-3
        events = (PulseSpec(write_field, tau), Wait(5e-3), PulseSpec(write_field, tau))
        off = compile_timeline(Sequence(events))
        on = compile_timeline(Sequence(events, clock_during_pulses=True))
        assert off[1].start_time == 5e-3
        assert on[1].start_time == pytest.approx(tau + 5e-3, rel=1e-15)

    def test_start_time_offsets_phases(self, write_field):
        seq = Sequence((PulseSpec(write_field, 1e-4),))
        entry = compile_timeline(seq, start_time=3e-3)[0]
        assert entry.phase == pytest.approx(write_field.detuning * 3e-3, rel=1e-15)


class TestEvolve:
    def test_resonant_ramsey_transfers_fully_for_any_interval(self):
        f = FieldParams(TWO_PI * 565.0, 0.0)
        tau = 0.5 * math.pi / f.rabi
        for T in (0.0, 1e-3, 9e-3):
            seq = Sequence((PulseSpec(f, tau), Wait(T), PulseSpec(f, tau)))
            assert excitation_probability(evolve(seq)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_manual_operator_product(self, write_field, scramble_field):
        # independent path: assemble the product by hand from the pulse
        # unitaries with explicitly accumulated phases
        T1, T = 5e-3, 3e-3
        phi_s = 1.1
        seq = Sequence(
            (
                PulseSpec(write_field, 0.44e-3),
                Wait(T1),
                PulseSpec(scramble_field, 1.48e-3, phi_s),
                Wait(T),
                PulseSpec(write_field, 0.44e-3),
            )
        )
        got = evolve(seq)
        state = GROUND
        state = apply_unitary(pulse_unitary(write_field, 0.44e-3, 0.0), state)
        state = apply_unitary(
            pulse_unitary(scramble_field, 1.48e-3, scramble_field.detuning * T1 + phi_s), state
        )
        state = apply_unitary(
            pulse_unitary(write_field, 0.44e-3, write_field.detuning * (T1 + T)), state
        )
        assert got == state

    def test_bit_identical_reruns(self, write_key):
        seq = build_write_read(write_key, 7.3e-3)
        a, b = evolve(seq), evolve(seq)
        assert (a.c_g, a.c_e) == (b.c_g, b.c_e)

    def test_composition_chains_through_start_time(self, write_key):
        head = Sequence((write_key.pulse(), Wait(3e-3)))
        tail = Sequence((Wait(2e-3), write_key.pulse()))
        whole = Sequence(head.events + tail.events)
        direct = evolve(whole)
        chained = evolve(tail, evolve(head), start_time=head.end_time())
        assert abs(direct.c_g - chained.c_g) <= 1e-12
        assert abs(direct.c_e - chained.c_e) <= 1e-12


class TestFrameInvariance:
    def test_lab_and_rotating_populations_agree(self, write_key):
        lab = FrameConvention("lab", TWO_PI * 1e4)
        grid = np.linspace(0.0, 20e-3, 200)
        rot = scan(build_write_read(write_key, 0.0, scanned=True), grid)
        labbed = scan(build_write_read(write_key, 0.0, frame=lab, scanned=True), grid)
        assert np.max(np.abs(rot.p - labbed.p)) <= 1e-9


class TestScan:
    def test_resonant_scan_is_flat_unity(self):
        f = FieldParams(TWO_PI * 565.0, 0.0)
        tau = 0.5 * math.pi / f.rabi
        seq = Sequence((PulseSpec(f, tau), Wait(0.0, scanned=True), PulseSpec(f, tau)))
        result = scan(seq, np.linspace(0.0, 2.0 / 110.0, 101))
        assert result.p.max() == pytest.approx(1.0, abs=1e-12)
        assert result.p.min() == pytest.approx(1.0, abs=1e-12)

    def test_fringe_frequency_equals_detuning(self, write_key, readout_grid):
        result = scan(build_write_read(write_key, 0.0, scanned=True), readout_grid)
        fit = fit_damped_sinusoid(result)
        assert fit.converged
        assert fit.frequency == pytest.approx(110.0, rel=1e-3)

    def test_single_point_grid(self, write_key):
        template = build_write_read(write_key, 0.0, scanned=True)
        result = scan(template, [2e-3])
        assert len(result) == 1
        assert abs(result.p[0] - per_point_reference(template, [2e-3])[0]) <= ENGINE_TOL

    @pytest.mark.parametrize("grid", [[math.nan], [0.0, math.inf]])
    def test_non_finite_grid_rejected(self, write_key, grid):
        with pytest.raises(InvalidDurationError):
            scan(build_write_read(write_key, 0.0, scanned=True), grid)

    def test_caller_grid_stays_writeable(self, write_key, readout_grid):
        grid = readout_grid.copy()
        result = scan(build_write_read(write_key, 0.0, scanned=True), grid)
        assert grid.flags.writeable
        assert not result.T.flags.writeable
        grid[0] = 1.0
        assert result.T[0] == 0.0

    def test_missing_scan_mark_rejected(self, write_key):
        seq = build_write_read(write_key, 1e-3)
        with pytest.raises(SequenceError):
            scan(seq, [0.0, 1e-3])

    def test_empty_or_decreasing_grid_rejected(self, write_key):
        template = build_write_read(write_key, 0.0, scanned=True)
        with pytest.raises(SequenceError):
            scan(template, [])
        with pytest.raises(SequenceError):
            scan(template, [2e-3, 1e-3])

    def test_set_scan_value_replaces_only_marked_wait(self, write_key):
        template = build_write_read(write_key, 0.0, scanned=True)
        seq = set_scan_value(template, 4e-3)
        waits = [e for e in seq.events if isinstance(e, Wait)]
        assert waits[0].duration == 4e-3


def _builder_templates(write_key, scramble_key, frame, clock):
    fast = FieldParams(TWO_PI * 5000.0, TWO_PI * 100.0, "S")
    tau = 0.8 * math.pi / fast.rabi
    plan_2 = plan_double_retrieval(
        fast.detuning, fast.detuning, tau, min_T3=1e-3, min_T2_plus_T4=1e-3,
        clock_during_pulses=clock,
    )
    key_1 = ScrambleKey(fast, tau, 0.7, 5e-3)
    key_2 = ScrambleKey(fast, tau, 2.9, plan_2.T2)
    keyed = ScrambleKey(scramble_key.field, scramble_key.tau, 1.3, scramble_key.T1)
    plan = plan_retrieval(keyed.field.detuning, 1e-3)
    opts = dict(frame=frame, scanned=True)
    clocked = dict(opts, clock_during_pulses=clock)  # the stacked plan carries its own clock
    return {
        "write_read": build_write_read(write_key, 0.0, **clocked),
        "scrambled": build_scrambled(write_key, keyed, 0.0, **clocked),
        "retrieved": build_retrieved(write_key, keyed, plan, 0.0, **clocked),
        "double_scrambled": build_double_scrambled(write_key, key_1, key_2, 0.0, **clocked),
        "double_retrieved": build_double_retrieved(write_key, key_1, key_2, plan_2, 0.0, **opts),
    }


_BUILDERS = ("write_read", "scrambled", "retrieved", "double_scrambled", "double_retrieved")


class TestScanMatchesPerPointEvolve:
    @pytest.mark.parametrize("clock", [False, True], ids=["clock-off", "clock-on"])
    @pytest.mark.parametrize("frame", [ROTATING, LAB], ids=["rotating", "lab"])
    @pytest.mark.parametrize("builder", _BUILDERS)
    def test_every_builder_frame_and_clock(
        self, write_key, scramble_key, readout_grid, builder, frame, clock
    ):
        template = _builder_templates(write_key, scramble_key, frame, clock)[builder]
        got = scan(template, readout_grid).p
        assert np.max(np.abs(got - per_point_reference(template, readout_grid))) <= ENGINE_TOL

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_timelines(self, data):
        def field():
            return FieldParams(
                data.draw(st.floats(TWO_PI * 10.0, TWO_PI * 5000.0)),
                data.draw(st.floats(-TWO_PI * 500.0, TWO_PI * 500.0)),
            )

        def event():
            if data.draw(st.booleans()):
                return Wait(data.draw(st.floats(0.0, 5e-3)))
            return PulseSpec(
                field(), data.draw(st.floats(1e-5, 2e-3)), data.draw(st.floats(0.0, TWO_PI))
            )

        before = [event() for _ in range(data.draw(st.integers(0, 3)))]
        after = [event() for _ in range(data.draw(st.integers(0, 3)))]
        if not any(isinstance(e, PulseSpec) for e in before + after):
            after.append(PulseSpec(field(), 1e-4))
        frame = data.draw(
            st.one_of(
                st.just(ROTATING),
                st.floats(0.0, TWO_PI * 1e5).map(lambda w: FrameConvention("lab", w)),
            )
        )
        template = Sequence(
            (*before, Wait(0.0, scanned=True), *after),
            frame=frame,
            clock_during_pulses=data.draw(st.booleans()),
        )
        grid = sorted(
            data.draw(st.lists(st.floats(0.0, 20e-3), min_size=1, max_size=20, unique=True))
        )
        got = scan(template, grid).p
        assert np.max(np.abs(got - per_point_reference(template, grid))) <= ENGINE_TOL


class TestFringeScan:
    @pytest.mark.parametrize("field", ["T", "p", "sd"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, field, bad):
        arrays = {"T": np.array([0.0, 1.0]), "p": np.array([0.5, 0.5]), "sd": np.zeros(2)}
        arrays[field][1] = bad
        with pytest.raises(ValueError, match="finite"):
            FringeScan(arrays["T"], arrays["p"], arrays["sd"])

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            FringeScan(np.array([0.0, 0.0]), np.array([0.5, 0.5]), np.zeros(2))

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            FringeScan(np.array([0.0, 1.0]), np.array([0.5, 1.5]), np.zeros(2))

    def test_arrays_are_read_only(self):
        s = FringeScan(np.array([0.0, 1.0]), np.array([0.1, 0.2]), np.zeros(2))
        with pytest.raises(ValueError):
            s.p[0] = 0.9
