"""Tests for timeline compilation, evolution and scanning."""

import io
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylock import (
    GROUND,
    ROTATING,
    FieldParams,
    FrameConvention,
    FitError,
    FringeScan,
    InvalidDurationError,
    NoiseModel,
    PulseSpec,
    ScrambleKey,
    Sequence,
    SequenceError,
    SpinState,
    Wait,
    WriteKey,
    apply_unitary,
    build_double_retrieved,
    build_double_scrambled,
    build_retrieved,
    build_scrambled,
    build_write_read,
    evolve,
    excitation_probability,
    fit_damped_sinusoid,
    free_unitary,
    measure_scan,
    plan_double_retrieval,
    plan_retrieval,
    pulse_unitary,
    scan,
    set_scan_value,
    simulate_measurement,
)
from ramseylock import sequence as sequence_module
from ramseylock.cli import _read_scan_csv
from ramseylock.protocol import _template
from ramseylock.sequence import _ROUNDING_BOUND, _Step, _scan_fault, _walk

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

    def test_sequence_refuses_an_event_that_is_no_wait_or_pulse(self, write_field):
        with pytest.raises(SequenceError, match="^unsupported event type float$"):
            Sequence((PulseSpec(write_field, 1e-3), 1e-3))

    def test_pulse_needs_positive_duration(self, write_field):
        with pytest.raises(ValueError):
            PulseSpec(write_field, 0.0)

    def test_wait_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Wait(-1e-6)

    @pytest.mark.parametrize("waits", [(1e308,), (1e308, 1e308)])
    @pytest.mark.filterwarnings("error")
    def test_a_clock_or_pulse_phase_that_overflows_is_refused(self, write_field, waits):
        # each wait is finite; 1e308 s times the phase rate is not, and
        # neither is the clock after two of them
        with pytest.raises(SequenceError, match="every pulse phase must be finite"):
            Sequence((PulseSpec(write_field, 1e-4), *map(Wait, waits),
                      PulseSpec(write_field, 1e-4)))

    @pytest.mark.filterwarnings("error")
    def test_a_lab_frame_free_phase_that_overflows_is_refused(self):
        # the detuning cancels the atomic frequency, so the pulse phases stay 0
        # and the clock finite; 0.5 * free_rate * 1e308 s is not finite
        frame = FrameConvention("lab", TWO_PI * 1e3)
        pulse = PulseSpec(FieldParams(TWO_PI * 565.0, -TWO_PI * 1e3, "W"), 1e-4)
        with pytest.raises(SequenceError, match="must be finite"):
            Sequence((pulse, Wait(1e308)), frame=frame)
        template = Sequence((pulse, Wait(0.0, scanned=True), pulse), frame=frame)
        with pytest.raises(SequenceError, match="must be finite"):
            scan(template, np.arange(11) * 1e307)

    @pytest.mark.filterwarnings("error")
    def test_a_lab_frame_free_phase_over_a_running_pulse_that_overflows_is_refused(self):
        # a resonant pulse at clock 0 has phase 0 and a finite area; while the
        # clock runs the frame winds over it, by 0.5 * 1e300 * 1e10 rad
        frame = FrameConvention("lab", 1e300)
        pulse = PulseSpec(FieldParams(1.0, 0.0), 1e10)
        Sequence((pulse,), frame=frame)
        with pytest.raises(SequenceError, match="must be finite"):
            Sequence((pulse,), frame=frame, clock_during_pulses=True)

    @pytest.mark.parametrize("start", [1e306, math.inf, math.nan, -1e308])
    @pytest.mark.filterwarnings("error")
    def test_a_start_time_at_which_the_clock_or_a_pulse_phase_overflows_is_refused(
        self, write_field, start
    ):
        # the timeline is finite from 0; from 1e306 s the 110 Hz phase rate
        # times the clock is not, nor is any clock or phase from inf or nan
        seq = Sequence((PulseSpec(write_field, 1e-4), Wait(1e-3), PulseSpec(write_field, 1e-4)))
        with pytest.raises(SequenceError, match="every pulse phase must be finite"):
            evolve(seq, start_time=start)
        with pytest.raises(SequenceError, match="every pulse phase must be finite"):
            seq.end_time(start)

    def test_a_pulse_whose_detuning_phase_overflows_is_refused(self):
        # rabi * tau is 1e10; detuning * tau, which the pulse unitary
        # evaluates, is not finite
        with pytest.raises(InvalidDurationError, match="pulse area must be finite"):
            PulseSpec(FieldParams(1.0, 1e300), 1e10)

    def test_at_most_one_scan_mark(self, write_field):
        with pytest.raises(SequenceError):
            Sequence(
                (
                    PulseSpec(write_field, 1e-4),
                    Wait(0.0, scanned=True),
                    Wait(0.0, scanned=True),
                )
            )


def pulse_steps(seq: Sequence, start_time: float = 0.0) -> list:
    """The timeline walker's steps for the pulses of ``seq``: each pulse's
    start time and phase argument."""
    return [step for step in _walk(seq, start_time) if isinstance(step.event, PulseSpec)]


class TestCompileTimeline:
    def test_two_pulse_phase_advances_by_detuning_times_interval(self, write_field):
        T = 7e-3
        seq = Sequence((PulseSpec(write_field, 0.44e-3), Wait(T), PulseSpec(write_field, 0.44e-3)))
        steps = pulse_steps(seq)
        assert steps[0].start == 0.0
        assert steps[0].arg == 0.0
        assert steps[1].start == T
        assert steps[1].arg == pytest.approx(write_field.detuning * T, rel=1e-15)

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
        steps = pulse_steps(seq)
        assert steps[2].arg == pytest.approx(TWO_PI * 100.0 * 0.010 + phi_s, rel=1e-12)
        assert steps[2].arg == pytest.approx(TWO_PI + phi_s, rel=1e-12)

    def test_single_pulse_keeps_its_offset(self, write_field):
        seq = Sequence((PulseSpec(write_field, 1e-4, 0.777),))
        assert pulse_steps(seq)[0].arg == 0.777

    def test_clock_during_pulses_shifts_start_times(self, write_field):
        tau = 0.44e-3
        events = (PulseSpec(write_field, tau), Wait(5e-3), PulseSpec(write_field, tau))
        off = pulse_steps(Sequence(events))
        on = pulse_steps(Sequence(events, clock_during_pulses=True))
        assert off[1].start == 5e-3
        assert on[1].start == pytest.approx(tau + 5e-3, rel=1e-15)

    def test_start_time_offsets_phases(self, write_field):
        seq = Sequence((PulseSpec(write_field, 1e-4),))
        step = pulse_steps(seq, start_time=3e-3)[0]
        assert step.arg == pytest.approx(write_field.detuning * 3e-3, rel=1e-15)


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

    @pytest.mark.parametrize("clock", [False, True], ids=["clock-off", "clock-on"])
    @pytest.mark.parametrize("protocol", ["ramsey", "scramble", "double-scramble", "retrieve",
                                          "double-retrieve"])
    def test_every_protocol_template_in_both_frames(
        self, write_key, scramble_key, protocol, clock
    ):
        # the lab frame winds over each pulse while the clock runs, as over
        # each wait, so no builder's fringe depends on the frame
        second = ScrambleKey(FieldParams(TWO_PI * 240.0, TWO_PI * 80.0, "S2"), 0.8e-3, 2.0, 0.0)
        keys = {"ramsey": (), "scramble": (scramble_key,), "retrieve": (scramble_key,)}.get(
            protocol, (scramble_key, second))
        intervals = {"T2": 1e-3, "T3": 1e-3, "T4": 1e-3}
        grid = np.arange(41) * 5e-4

        def fringe(frame):
            return scan(_template(protocol, write_key, keys, intervals, frame=frame,
                                  clock_during_pulses=clock), grid).p

        assert np.max(np.abs(fringe(LAB) - fringe(ROTATING))) <= 1e-12


#: The lab frame of the Schrodinger-equation oracle: 1 kHz keeps a fixed-step
#: integration of pulses up to 1.5 ms well inside 1e-9 (it reaches 1.6e-12).
ORACLE_LAB = FrameConvention("lab", TWO_PI * 1e3)
#: RK4 steps per pulse.
ORACLE_STEPS = 3000


def _random_timeline(rng, frame, clock) -> Sequence:
    """2-4 pulses of random fields, durations and phases, with a random
    wait (possibly none) before, between and after them."""
    events = []
    for _ in range(rng.integers(2, 5)):
        if rng.random() < 0.8:
            events.append(Wait(rng.uniform(0.0, 3e-3)))
        field = FieldParams(TWO_PI * rng.uniform(100.0, 1500.0), TWO_PI * rng.uniform(-500, 500))
        events.append(PulseSpec(field, rng.uniform(0.05e-3, 1.5e-3), rng.uniform(-10.0, 10.0)))
    events.append(Wait(rng.uniform(0.0, 3e-3)))
    return Sequence(tuple(events), frame=frame, clock_during_pulses=clock)


def _pulse_propagators(rabi, theta, rate, wind, tau):
    """Propagators of i dU/ds = H(s) U over 0 <= s <= tau, one per entry of
    the argument arrays, by classical RK4 in ``ORACLE_STEPS`` steps, with
    ``H(s) = [[-wind/2, rabi/2 e^{i(theta + rate s)}], [h.c., wind/2]]``."""
    step = tau / ORACLE_STEPS
    h = step[:, None, None]

    def derivative(s, U):
        coupling = 0.5 * rabi * np.exp(1j * (theta + rate * s))
        H = np.zeros((rabi.size, 2, 2), complex)
        H[:, 0, 0], H[:, 1, 1] = -0.5 * wind, 0.5 * wind
        H[:, 0, 1], H[:, 1, 0] = coupling, coupling.conjugate()
        return -1j * H @ U

    U = np.tile(np.eye(2, dtype=complex), (rabi.size, 1, 1))
    for n in range(ORACLE_STEPS):
        s = n * step
        k1 = derivative(s, U)
        k2 = derivative(s + 0.5 * step, U + 0.5 * h * k1)
        k3 = derivative(s + 0.5 * step, U + 0.5 * h * k2)
        k4 = derivative(s + step, U + h * k3)
        U = U + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return U


def _schrodinger(seqs) -> np.ndarray:
    """``(c_g, c_e)`` of ``|g>`` after each sequence, from i dpsi/dt = H psi.

    In a frame of free rate ``w`` (the atomic frequency in the lab frame, 0
    in the rotating frame), ``H = diag(-w/2, w/2)`` over each wait, solved
    exactly.  A pulse adds ``(rabi/2) (e^{i theta}|g><e| + h.c.)`` with
    ``theta = (w + detuning) t + phase_offset`` on the timeline clock ``t``,
    the lab-frame rotating-wave Hamiltonian.  With the clock stopped, a
    pulse holds ``t`` at its start: the winding stops and only the
    detuning advances ``theta`` over the pulse.  Every pulse of every
    sequence is integrated at once."""
    rows, plans = [], []
    for seq in seqs:
        w, clock, t, plan = seq.frame.free_rate, seq.clock_during_pulses, 0.0, []
        for e in seq.events:
            if isinstance(e, Wait):
                plan.append(e.duration)
                t += e.duration
                continue
            wind = w if clock else 0.0
            rows.append((e.field.rabi, (w + e.field.detuning) * t + e.phase_offset,
                         e.field.detuning + wind, wind, e.tau))
            plan.append(None)
            t += e.tau if clock else 0.0
        plans.append((w, plan))
    pulses = iter(_pulse_propagators(*np.array(rows).T))
    states = []
    for w, plan in plans:
        psi = np.array([1.0, 0.0], complex)
        for wait in plan:
            if wait is None:
                psi = next(pulses) @ psi
            else:
                psi = np.exp([0.5j * w * wait, -0.5j * w * wait]) * psi
        states.append(psi)
    return np.array(states)


class TestSchrodingerOracle:
    @pytest.mark.parametrize("clock", [False, True], ids=["clock-off", "clock-on"])
    @pytest.mark.parametrize("frame", [ROTATING, ORACLE_LAB], ids=["rotating", "lab"])
    def test_evolve_matches_the_integrated_equation(self, frame, clock):
        rng = np.random.default_rng(1707)
        seqs = [_random_timeline(rng, frame, clock) for _ in range(12)]
        got = np.array([[s.c_g, s.c_e] for s in map(evolve, seqs)])
        assert np.max(np.abs(got - _schrodinger(seqs))) <= 1e-9


class TestScan:
    @pytest.mark.parametrize("frame", [ROTATING, LAB])
    def test_resonant_scan_is_flat_unity(self, frame):
        f = FieldParams(TWO_PI * 565.0, 0.0)
        tau = 0.5 * math.pi / f.rabi
        seq = Sequence((PulseSpec(f, tau), Wait(0.0, scanned=True), PulseSpec(f, tau)), frame)
        result = scan(seq, np.linspace(0.0, 2.0 / 110.0, 101))
        # the lab frame's |c_e|^2 reaches 1 + 4.4e-16 before the clip
        assert result.p.max() == 1.0
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

    @pytest.mark.parametrize("grid", [[math.nan], [0.0, math.inf], [0.0, math.nan, 1e-3]])
    def test_non_finite_grid_rejected(self, write_key, grid):
        with pytest.raises(InvalidDurationError):
            scan(build_write_read(write_key, 0.0, scanned=True), grid)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("phase", [0.0, np.array([[0.5], [1.5]])], ids=["scalar", "keyed"])
    def test_a_grid_that_overflows_a_pulse_phase_is_refused(self, write_key, phase):
        # every grid value is finite; the read pulse's phase rate times 1e308 s is not
        template = build_write_read(replace(write_key, phase=phase), 0.0, scanned=True)
        with pytest.raises(SequenceError, match="every pulse phase must be finite"):
            scan(template, np.arange(11) * 1e307)

    @pytest.mark.parametrize("grid", [0.5, [[0.0, 1e-3]], np.zeros((2, 2)), np.zeros((2, 0))],
                             ids=["scalar", "row", "square", "empty-rows"])
    def test_a_grid_that_is_not_1d_is_refused(self, write_key, grid):
        template = build_write_read(write_key, 0.0, scanned=True)
        shape = re.escape(str(np.shape(grid)))
        with pytest.raises(SequenceError, match=f"^scan grid must be 1-D, got shape {shape}$"):
            scan(template, grid)

    def test_a_scan_and_an_evolve_each_walk_the_timeline_once(self, write_key, monkeypatch):
        template = build_write_read(write_key, 0.0, scanned=True)
        calls, walk = [], sequence_module._walk
        monkeypatch.setattr(sequence_module, "_walk", lambda *a: calls.append(a) or walk(*a))
        scan(template, np.linspace(0.0, 1e-2, 5))
        assert len(calls) == 1
        evolve(template)
        assert len(calls) == 2

    def test_caller_grid_stays_writeable(self, write_key, readout_grid):
        grid = readout_grid.copy()
        result = scan(build_write_read(write_key, 0.0, scanned=True), grid)
        assert grid.flags.writeable
        assert not result.T.flags.writeable
        grid[0] = 1.0
        assert result.T[0] == 0.0

    @pytest.mark.parametrize("phi", [0.7, np.linspace(0.0, TWO_PI, 3)[:, None]])
    def test_result_keeps_fringe_scan_invariants(self, write_key, scramble_key, readout_grid, phi):
        """A scan's result is not re-validated, so check what validation
        would have given: read-only arrays, a copy of the grid, p in [0, 1]."""
        key = replace(scramble_key, phi_S=phi)
        plan = plan_retrieval(key.field.detuning)
        template = build_retrieved(write_key, key, plan, 0.0, frame=LAB, scanned=True)
        result = scan(template, readout_grid)
        for got in (result, *(result.rows() if result.p.ndim == 2 else ())):
            assert got.p.shape == got.sd.shape and got.p.shape[-1] == len(readout_grid)
            assert not any(a.flags.writeable for a in (got.T, got.p, got.sd))
            assert not np.shares_memory(got.T, readout_grid)
            assert np.array_equal(got.T, readout_grid)
            assert np.all((got.p >= 0.0) & (got.p <= 1.0)) and not np.any(got.sd)
            assert got.label == ""

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

    def test_a_grid_that_starts_below_zero_is_refused(self, write_key):
        # the CLI refuses such a grid when it parses it; the library refuses it here
        template = build_write_read(write_key, 0.0, scanned=True)
        with pytest.raises(SequenceError, match="^scan grid values must be >= 0$"):
            scan(template, [-1e-3, 1e-3])

    def test_set_scan_value_replaces_only_marked_wait(self, write_key):
        template = build_write_read(write_key, 0.0, scanned=True)
        seq = set_scan_value(template, 4e-3)
        waits = [e for e in seq.events if isinstance(e, Wait)]
        assert waits[0].duration == 4e-3


def _builder_templates(
    write_key, scramble_key, frame, clock, write_phase=0.0, phi=1.3, phi_1=0.7, phi_2=2.9,
    fast=FieldParams(TWO_PI * 5000.0, TWO_PI * 100.0, "S"),
):
    """One template per builder; any phase may be an array of key phases.
    The stacked builders scramble with 0.8*pi-area pulses of ``fast``."""
    write_key = replace(write_key, phase=write_phase)
    tau = 0.8 * math.pi / fast.rabi
    plan_2 = plan_double_retrieval(
        fast.detuning, fast.detuning, tau, min_T3=1e-3, min_T2_plus_T4=1e-3,
        clock_during_pulses=clock,
    )
    key_1 = ScrambleKey(fast, tau, phi_1, 5e-3)
    key_2 = ScrambleKey(fast, tau, phi_2, plan_2.T2)
    keyed = ScrambleKey(scramble_key.field, scramble_key.tau, phi, scramble_key.T1)
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


class TestOneWalk:
    @pytest.mark.parametrize("clock", [False, True], ids=["clock-off", "clock-on"])
    @pytest.mark.parametrize("frame", [ROTATING, LAB], ids=["rotating", "lab"])
    @pytest.mark.parametrize("builder", _BUILDERS)
    def test_one_walk_of_steps_and_one_unitary_per_pulse(
        self, write_key, scramble_key, monkeypatch, builder, frame, clock
    ):
        """A scan and an evolve each walk the timeline once, the walk
        returns one ``_Step`` per event, and each pulse costs one
        ``pulse_unitary`` call, made through the module name a tracer wraps."""
        template = _builder_templates(write_key, scramble_key, frame, clock)[builder]
        pulses = sum(isinstance(e, PulseSpec) for e in template.events)
        walks, unitaries = [], []
        walk, unitary = sequence_module._walk, sequence_module.pulse_unitary

        def spy_walk(*args):
            walks.append(walk(*args))
            return walks[-1]

        monkeypatch.setattr(sequence_module, "_walk", spy_walk)
        monkeypatch.setattr(sequence_module, "pulse_unitary",
                            lambda *a: unitaries.append(a) or unitary(*a))
        scan(template, np.linspace(0.0, 1e-2, 5))
        assert (len(walks), len(unitaries)) == (1, pulses)
        evolve(template)
        assert (len(walks), len(unitaries)) == (2, 2 * pulses)
        for steps in walks:
            assert [type(step) for step in steps] == [_Step] * len(template.events)
            assert [step.event for step in steps] == list(template.events)
            assert steps[0]._fields == ("event", "start", "arg", "span")

    @pytest.mark.parametrize("builder, shape, shapes", [
        ("scrambled", (3,), "[(3,)]"),
        ("retrieved", (2, 3), "[(2, 3), (2, 3)]"),
    ])
    def test_scan_errors_read_exactly(self, write_key, scramble_key, builder, shape, shapes):
        grid = np.linspace(0.0, 1e-3, 5)
        with pytest.raises(SequenceError) as info:
            scan(build_write_read(write_key, 1e-3), grid)
        assert str(info.value) == "template must contain exactly one scanned wait, found 0"
        phi = np.zeros(shape)
        template = _builder_templates(write_key, scramble_key, ROTATING, False, phi=phi)[builder]
        with pytest.raises(SequenceError) as info:
            scan(template, grid)
        assert str(info.value) == (
            f"pulse phase offsets of shapes {shapes} do not broadcast against a 5-point grid "
            "to (N,) or (K, N)"
        )


#: The rounding rule's message, whatever the rounding it reports.
_ROUNDING = r"^the timeline clock rounds a phase by up to \S+ rad at the grid's last point, " \
    r"beyond the rounding bound of 1e-06 rad$"


class TestRoundingRule:
    """The walker refuses a clock too coarse for the grid: one that rounds a
    pulse phase or a lab-frame free phase by more than 1e-6 rad."""

    def test_the_bound(self):
        assert _ROUNDING_BOUND == 1e-6

    @pytest.mark.parametrize("clock", [False, True], ids=["clock-off", "clock-on"])
    def test_a_wait_the_clock_cannot_resolve_is_refused(self, write_field, clock):
        # at 1e6 s the 110 Hz pulse phase rounds by at most 691 * 3e6 * 2**-53 = 2.3e-7
        # rad; at 1e13 s the clock's ulp alone is 2e-3 s
        def timeline(T1):
            events = (PulseSpec(write_field, 1e-4), Wait(T1), PulseSpec(write_field, 1e-4))
            return Sequence(events, clock_during_pulses=clock)

        evolve(timeline(1e6))
        with pytest.raises(SequenceError, match=_ROUNDING):
            timeline(1e13)

    def test_a_grid_the_clock_cannot_resolve_is_refused(self, write_key):
        template = build_write_read(write_key, 0.0, scanned=True)
        assert scan(template, np.arange(11) * 1e3).p.shape == (11,)
        with pytest.raises(SequenceError, match=_ROUNDING):
            scan(template, np.arange(11) * 1e9)

    def test_a_lab_frame_too_fast_for_the_grid_is_refused(self, write_key, readout_grid):
        # the free phase over the 20 ms wait is 6e7 rad at 1e9 Hz, 6e13 rad at 1e15 Hz
        def template(hz):
            frame = FrameConvention("lab", TWO_PI * hz)
            return build_write_read(write_key, 0.0, frame=frame, scanned=True)

        assert scan(template(1e9), readout_grid).p.shape == readout_grid.shape
        with pytest.raises(SequenceError, match=_ROUNDING):
            scan(template(1e15), readout_grid)

    def test_a_free_phase_alone_is_bounded(self, readout_grid):
        # a detuning that cancels the atomic frequency keeps every pulse phase
        # at 0, so only the frame's free winding over the scanned wait rounds
        def template(hz):
            field = FieldParams(TWO_PI * 565.0, -TWO_PI * hz)
            pulse = PulseSpec(field, 1e-4)
            frame = FrameConvention("lab", TWO_PI * hz)
            return Sequence((pulse, Wait(0.0, scanned=True), pulse), frame=frame)

        assert scan(template(1e9), readout_grid).p.shape == readout_grid.shape
        with pytest.raises(SequenceError, match=_ROUNDING):
            scan(template(1e15), readout_grid)

    @pytest.mark.filterwarnings("error")
    def test_an_overflow_keeps_its_message(self, write_field):
        # the pulse after 1e13 s rounds beyond the bound; the one after 1e308 s overflows
        pulse = PulseSpec(write_field, 1e-4)
        with pytest.raises(SequenceError, match="every pulse phase must be finite"):
            Sequence((pulse, Wait(1e13), pulse, Wait(1e308), pulse))


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


def _reference_walk(seq: Sequence, scan_value=None, start_time: float = 0.0) -> SpinState:
    """The final state of ``GROUND`` by the operator definitions, one state
    per event: ``apply_unitary(pulse_unitary(...))`` at the phase
    ``(free_rate + detuning) * t + offset``, then ``free_unitary`` over each
    wait and, while the clock runs, over each pulse."""
    t, state = start_time, GROUND
    for e in seq.events:
        if isinstance(e, Wait):
            span = scan_value if e.scanned and scan_value is not None else e.duration
        else:
            phi = (seq.frame.free_rate + e.field.detuning) * t + e.phase_offset
            state = apply_unitary(pulse_unitary(e.field, e.tau, phi), state)
            if not seq.clock_during_pulses:
                continue
            span = e.tau
        state = apply_unitary(free_unitary(seq.frame, span), state)
        t = t + span
    return state


#: Key phases of the reference-walk timelines: none, one per grid point, K = 3.
_KEY_KINDS = {"scalar": None, "(N,)": (6,), "(K, 1)": (3, 1)}


def _keyed_timeline(rng, frame, clock, key_shape) -> Sequence:
    """A random timeline with a scanned wait among its events, whose pulse
    phase offsets are scalars or arrays of ``key_shape``."""
    events = list(_random_timeline(rng, frame, clock).events)
    events.insert(rng.integers(0, len(events) + 1), Wait(0.0, scanned=True))
    if key_shape:
        events = [replace(e, phase_offset=rng.uniform(-10.0, 10.0, key_shape))
                  if isinstance(e, PulseSpec) else e for e in events]
    return Sequence(tuple(events), frame=frame, clock_during_pulses=clock)


class TestReferenceWalk:
    """``evolve`` and ``scan`` equal the event-by-event operator products
    to the bit: carrying plain amplitudes changes no rounding."""

    @pytest.mark.parametrize("key_kind", _KEY_KINDS)
    @pytest.mark.parametrize("clock", [False, True], ids=["clock-off", "clock-on"])
    @pytest.mark.parametrize("frame", [ROTATING, ORACLE_LAB], ids=["rotating", "lab"])
    def test_evolve_and_scan(self, frame, clock, key_kind):
        rng = np.random.default_rng([7, clock, list(_KEY_KINDS).index(key_kind)])
        grid = np.sort(rng.uniform(0.0, 5e-3, 6))
        for _ in range(12):
            seq = _keyed_timeline(rng, frame, clock, _KEY_KINDS[key_kind])
            start = float(rng.uniform(0.0, 1e-2))
            got, want = evolve(seq, start_time=start), _reference_walk(seq, None, start)
            assert repr((got.c_g, got.c_e)) == repr((want.c_g, want.c_e))
            if not isinstance(got.c_g, np.ndarray):
                assert type(got.c_g) is type(want.c_g) is complex
            p = excitation_probability(_reference_walk(seq, grid))
            shape = np.broadcast_shapes(grid.shape, np.shape(p))
            want_p = np.minimum(np.broadcast_to(p, shape), 1.0)
            assert repr(scan(seq, grid).p.tolist()) == repr(want_p.tolist())


class TestFringeScan:
    @pytest.mark.parametrize("field", ["T", "p", "sd"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, field, bad):
        arrays = {"T": np.array([0.0, 1.0]), "p": np.array([0.5, 0.5]), "sd": np.zeros(2)}
        arrays[field][1] = bad
        with pytest.raises(ValueError, match="finite"):
            FringeScan(arrays["T"], arrays["p"], arrays["sd"])

    def test_rejects_an_empty_grid(self):
        with pytest.raises(ValueError, match="^scan needs at least one point$"):
            FringeScan([], [], [])

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            FringeScan(np.array([0.0, 0.0]), np.array([0.5, 0.5]), np.zeros(2))

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            FringeScan(np.array([0.0, 1.0]), np.array([0.5, 1.5]), np.zeros(2))

    @pytest.mark.parametrize("bad", [1.0 + 5e-10, -5e-10])
    def test_rejects_probability_just_outside_range(self, bad):
        """No tolerance and no clip: a scan holds the data it was given or raises."""
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FringeScan(np.array([0.0, 1.0]), np.array([0.5, bad]), np.zeros(2))
        edges = FringeScan(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros(2))
        assert edges.p.tolist() == [0.0, 1.0]

    def test_arrays_are_read_only(self):
        s = FringeScan(np.array([0.0, 1.0]), np.array([0.1, 0.2]), np.zeros(2))
        with pytest.raises(ValueError):
            s.p[0] = 0.9

    def test_caller_arrays_stay_writeable(self):
        T, p, sd = np.linspace(0.0, 1.0, 5), np.full(5, 0.5), np.zeros(5)
        s = FringeScan(T, p, sd)
        assert all(a.flags.writeable for a in (T, p, sd))
        T[0], p[0], sd[0] = -1.0, 2.0, -1.0
        assert (s.T[0], s.p[0], s.sd[0]) == (0.0, 0.5, 0.0)


class TestScanFault:
    """The one checker of scan data, and the entry points that raise from it."""

    @pytest.mark.parametrize(
        "T, p, sd, want",
        [
            # T finite comes before T increasing, which comes before p and sd
            ([0.0, 2.0, math.inf], [2.0, 0.5, 0.5], [-1.0, 0.0, 0.0], ("finite", 2, math.inf)),
            ([0.0, 2.0, 1.0], [2.0, 0.5, 0.5], [-1.0, 0.0, 0.0], ("increasing", 2, 1.0)),
            ([0.0, 1.0, 2.0], [0.5, 0.5, -0.1], [-1.0, 0.0, 0.0], ("[0, 1]", 2, -0.1)),
            ([0.0, 1.0, 2.0], [0.5, 0.5, 0.5], [0.0, -1.0, 0.0], (">= 0", 1, -1.0)),
            # a (K, N) batch is searched in C order and named along T
            ([0.0, 1.0, 2.0], [[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]], [[0.0] * 3] * 2,
             ("[0, 1]", 0, 1.5)),
            ([0.0, 1.0, 2.0], [[0.5] * 3] * 2, [[0.0, 0.0, math.inf], [0.0, -1.0, 0.0]],
             ("finite", 2, math.inf)),
            ([0.0, 1.0, 2.0], [[0.5] * 3] * 2, [[0.0] * 3] * 2, None),
        ],
    )
    def test_first_fault_in_order(self, T, p, sd, want):
        fault = _scan_fault(*(np.array(a, dtype=float) for a in (T, p, sd)))
        if want is None:
            assert fault is None
            return
        phrase, index, value = want
        assert phrase in fault.invariant
        assert (fault.index, fault.value) == (index, value)

    def test_p_alone_is_checked(self):
        assert _scan_fault(None, np.array([0.0, 1.0])) is None
        assert _scan_fault(None, np.array([0.5, math.nan])).index == 1


#: The faults one example may carry: (array, how), with how a value to put
#: in or the kind of change.
_FAULTS = [
    *(("T", bad) for bad in (math.nan, math.inf, -math.inf, "repeat", "decrease")),
    *(("p", bad) for bad in (math.nan, math.inf, -math.inf, "below", "above")),
    *(("sd", bad) for bad in (math.nan, math.inf, -math.inf, "below")),
]


@st.composite
def _scan_rows(draw):
    """1-D ``(T, p, sd)`` with at most one fault, and the fault and its row."""
    n = draw(st.integers(min_value=2, max_value=12))
    start = draw(st.floats(min_value=0.0, max_value=1.0))
    steps = draw(st.lists(st.floats(min_value=1e-6, max_value=1e-2), min_size=n - 1,
                          max_size=n - 1))
    T = start + np.concatenate([[0.0], np.cumsum(steps)])
    unit = st.floats(min_value=0.0, max_value=1.0)
    p = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    sd = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    fault = draw(st.none() | st.sampled_from(_FAULTS))
    if fault is None:
        return T, p, sd, None, None
    name, how = fault
    row = draw(st.integers(min_value=1 if how in ("repeat", "decrease") else 0, max_value=n - 1))
    arr = {"T": T, "p": p, "sd": sd}[name]
    off = draw(st.floats(min_value=1e-9, max_value=10.0))
    arr[row] = {
        "repeat": lambda: T[row - 1],
        "decrease": lambda: T[row - 1] - off,
        "below": lambda: -off,
        "above": lambda: 1.0 + off,
    }.get(how, lambda: how)()
    return T, p, sd, name, row


class TestEntryPointsAgree:
    @settings(max_examples=200, deadline=None)
    @given(_scan_rows())
    def test_scan_csv_and_readout_reject_the_same_data(self, example):
        T, p, sd, faulty, row = example
        csv = "T_s,P_e,sd\n" + "".join(
            f"{float(t)!r},{float(q)!r},{float(s)!r}\n" for t, q, s in zip(T, p, sd)
        )
        try:
            FringeScan(T.copy(), p.copy(), sd.copy())
            scan_error = None
        except ValueError as exc:
            scan_error = str(exc)
        try:
            _read_scan_csv(io.StringIO(csv))
            csv_error = None
        except FitError as exc:
            csv_error = str(exc)
        assert (scan_error is None) == (csv_error is None) == (faulty is None)
        if faulty is not None:
            assert scan_error.startswith(f"scan point {row}: ")
            assert csv_error.startswith(f"scan CSV line {row + 2}: ")

        model = NoiseModel(atom_count=10, repeats=2)
        rng = np.random.default_rng(0)
        for k, q in enumerate(p):
            try:
                simulate_measurement(q, model, rng)
                rejected = False
            except ValueError as exc:
                rejected = True
                assert str(exc).endswith(f"[0, 1], got {float(q)}")
            assert rejected == (faulty == "p" and k == row)
        ideal = SimpleNamespace(T=T, p=p, label="")
        if faulty == "p":
            with pytest.raises(ValueError, match=rf"\[0, 1\], got {re.escape(str(p[row]))}$"):
                measure_scan(ideal, model, rng)
        else:
            assert measure_scan(ideal, model, rng).p.shape == p.shape


def _batch(**arrays):
    base = {"T": np.array([0.0, 1.0, 2.0]), "p": np.full((2, 3), 0.5), "sd": np.zeros((2, 3))}
    base.update(arrays)
    return FringeScan(base["T"], base["p"], base["sd"], label="b")


class TestFringeScanBatch:
    @pytest.mark.parametrize("field", ["p", "sd"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [(0, 0), (1, 2), (1, 0)])
    def test_rejects_non_finite_entry_anywhere(self, field, bad, at):
        arr = np.full((2, 3), 0.5) if field == "p" else np.zeros((2, 3))
        arr[at] = bad
        with pytest.raises(ValueError, match="finite"):
            _batch(**{field: arr})

    @pytest.mark.parametrize(
        "p, sd",
        [
            (np.full((2, 4), 0.5), np.zeros((2, 4))),  # wrong grid length
            (np.full((2, 3), 0.5), np.zeros((3, 3))),  # sd shape differs
            (np.full((2, 2, 3), 0.5), np.zeros((2, 2, 3))),  # three axes
        ],
    )
    def test_rejects_shapes_off_the_grid(self, p, sd):
        with pytest.raises(ValueError, match="shape"):
            _batch(p=p, sd=sd)

    def test_rejects_out_of_range_entry(self):
        p = np.full((2, 3), 0.5)
        p[1, 1] = 1.5
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            _batch(p=p)

    def test_rows_view_the_batch_read_only(self):
        p = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        sd = np.array([[0.0, 0.1, 0.0], [0.2, 0.0, 0.3]])
        batch = _batch(p=p, sd=sd)
        rows = batch.rows()
        assert len(rows) == 2
        for k, row in enumerate(rows):
            assert np.array_equal(row.p, p[k]) and np.array_equal(row.sd, sd[k])
            assert row.T is batch.T and row.label == "b"
            assert np.shares_memory(row.p, batch.p)
            for arr in (row.T, row.p, row.sd):
                with pytest.raises(ValueError):
                    arr[0] = 0.9
        assert np.array_equal(batch[-1].p, p[1])

    def test_one_fringe_has_no_rows(self):
        with pytest.raises(TypeError):
            FringeScan(np.array([0.0, 1.0]), np.array([0.1, 0.2]), np.zeros(2))[0]

    def test_fit_and_csv_writer_reject_a_batch(self):
        from ramseylock.cli import _write_scan

        batch = _batch(p=np.tile(np.linspace(0.1, 0.9, 10), (2, 1)), T=np.arange(10.0),
                       sd=np.zeros((2, 10)))
        with pytest.raises(ValueError, match="one fringe"):
            fit_damped_sinusoid(batch)
        with pytest.raises(ValueError, match="one fringe"):
            _write_scan(batch, io.StringIO())
        fit_damped_sinusoid(batch[0])


#: The key each builder's key-phase axis runs along (a _builder_templates
#: argument); the stacked builders may key either scrambler.
_KEY_ARGS = {
    "write_read": ("write_phase",),
    "scrambled": ("phi",),
    "retrieved": ("phi",),
    "double_scrambled": ("phi_1", "phi_2"),
    "double_retrieved": ("phi_1", "phi_2"),
}


def _rebuild(template, grid, phases):
    """P on ``grid`` at the key phases ``phases`` (one array per argument of
    ``template``, broadcast together), rebuilt from one scan at 4k + 1 equal
    phases of each key, which ``template`` takes as ``(K, 1)`` arrays.  A key
    phase held by k pulses enters P(T) as a trigonometric polynomial of
    degree 2k in it, so those scans fix P at every phase."""
    counts = []
    for i in range(len(phases)):
        probe = [0.0] * len(phases)
        probe[i] = np.zeros((1, 1))
        held = template(*probe).events
        k = sum(isinstance(e, PulseSpec) and np.ndim(e.phase_offset) > 0 for e in held)
        assert k >= 1
        counts.append(4 * k + 1)
    mesh = np.meshgrid(*(TWO_PI * np.arange(n) / n for n in counts), indexing="ij")
    p = scan(template(*(m.reshape(-1, 1) for m in mesh)), grid).p.reshape(*counts, len(grid))
    coefficients = np.fft.fftn(p, axes=range(len(counts))) / math.prod(counts)
    rebuilt = 0.0
    for index in np.ndindex(*counts):
        # bin h of an n-point DFT holds harmonic h up to n // 2, h - n above
        turn = sum((h if h <= n // 2 else h - n) * np.asarray(phase)
                   for h, n, phase in zip(index, counts, phases))
        rebuilt = rebuilt + (np.exp(1j * turn)[..., None] * coefficients[index]).real
    return rebuilt


class TestKeyPhaseAxis:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_equals_one_scan_per_key_phase(self, data, write_key, scramble_key):
        builder = data.draw(st.sampled_from(_BUILDERS))
        arg = data.draw(st.sampled_from(_KEY_ARGS[builder]))
        frame = data.draw(st.sampled_from([ROTATING, LAB]))
        clock = data.draw(st.booleans())
        phases = np.array(
            data.draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6))
        )
        grid = sorted(
            data.draw(st.lists(st.floats(0.0, 20e-3), min_size=1, max_size=30, unique=True))
        )

        def template(phase):
            keyed = _builder_templates(write_key, scramble_key, frame, clock, **{arg: phase})
            return keyed[builder]

        batch = scan(template(phases[:, None]), grid)
        assert batch.p.shape == batch.sd.shape == (phases.size, len(grid))
        for row, phase in zip(batch.rows(), phases):
            assert np.max(np.abs(row.p - scan(template(float(phase)), grid).p)) <= ENGINE_TOL

    @pytest.mark.parametrize("clock", [False, True], ids=["clock-off", "clock-on"])
    @pytest.mark.parametrize("frame", [ROTATING, LAB], ids=["rotating", "lab"])
    @pytest.mark.parametrize(
        "builder, arg", [(builder, arg) for builder in _BUILDERS for arg in _KEY_ARGS[builder]]
    )
    def test_key_phase_harmonics_rebuild_every_other_phase(
        self, write_key, scramble_key, builder, arg, frame, clock
    ):
        def template(phases):
            keyed = _builder_templates(write_key, scramble_key, frame, clock, **{arg: phases})
            return keyed[builder]

        grid = np.linspace(0.0, 20e-3, 41)
        phases = np.random.default_rng(17).uniform(0.0, TWO_PI, 50)
        rebuilt = _rebuild(template, grid, [phases])
        assert np.max(np.abs(rebuilt - scan(template(phases[:, None]), grid).p)) <= ENGINE_TOL

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_key_phase_harmonics_rebuild_over_random_fields(self, data):
        # the identity above for random fields, keys and lab frequencies
        def field(label, rabi_hz, detuning_hz):
            return FieldParams(TWO_PI * data.draw(st.floats(*rabi_hz)),
                               TWO_PI * data.draw(st.floats(*detuning_hz)), label)

        write_key = WriteKey(field("W", (100.0, 2000.0), (20.0, 500.0)),
                             tau=data.draw(st.floats(0.1e-3, 1e-3)))
        scramble_key = ScrambleKey(field("S", (50.0, 1000.0), (20.0, 500.0)),
                                   data.draw(st.floats(0.2e-3, 2e-3)), 0.0,
                                   data.draw(st.floats(1e-3, 8e-3)))
        fast = field("S", (1000.0, 8000.0), (20.0, 500.0))
        builder = data.draw(st.sampled_from(_BUILDERS))
        arg = data.draw(st.sampled_from(_KEY_ARGS[builder]))
        frame = data.draw(st.sampled_from(
            [ROTATING, FrameConvention("lab", TWO_PI * data.draw(st.floats(0.0, 1e4)))]
        ))
        clock = data.draw(st.booleans())

        def template(phases):
            return _builder_templates(write_key, scramble_key, frame, clock, fast=fast,
                                      **{arg: phases})[builder]

        grid = np.linspace(0.0, 20e-3, 41)
        phases = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8)))
        rebuilt = _rebuild(template, grid, [phases])
        assert np.max(np.abs(rebuilt - scan(template(phases[:, None]), grid).p)) <= ENGINE_TOL

    def test_retrieval_holds_over_the_whole_circle(self, write_key, scramble_key, readout_grid):
        # table 1's retrieve, against its key phase at 0, at 4,096 phases
        # (0.017246 here) rather than at 8; the bound is the 8-phase one
        def template(phi):
            return _builder_templates(write_key, scramble_key, ROTATING, False, phi=phi)["retrieved"]

        phases = np.arange(4096) * TWO_PI / 4096
        rebuilt = _rebuild(template, readout_grid, [phases])
        reference = scan(template(0.0), readout_grid).p
        assert np.max(np.abs(rebuilt[0] - reference)) <= ENGINE_TOL
        assert np.max(np.abs(rebuilt - reference)) <= 0.02

    def test_stacked_retrieval_holds_over_the_whole_torus(
        self, write_key, scramble_key, readout_grid
    ):
        # both keys of the 0.8*pi-area stacked scheme on a 64 x 64 grid
        def template(phi_1, phi_2):
            keyed = _builder_templates(write_key, scramble_key, ROTATING, False,
                                       phi_1=phi_1, phi_2=phi_2)
            return keyed["double_retrieved"]

        side = np.arange(64) * TWO_PI / 64
        rebuilt = _rebuild(template, readout_grid, [side[:, None], side[None, :]])
        assert rebuilt.shape == (64, 64, readout_grid.size)
        reference = scan(template(0.0, 0.0), readout_grid).p
        assert np.max(np.abs(rebuilt[0, 0] - reference)) <= ENGINE_TOL
        assert np.max(np.abs(rebuilt - reference)) <= 0.05

    def test_one_phase_per_grid_point(self, write_key, scramble_key, readout_grid):
        def template(phase):
            keyed = _builder_templates(write_key, scramble_key, ROTATING, False, phi=phase)
            return keyed["scrambled"]

        phases = np.linspace(0.0, TWO_PI, readout_grid.size)
        got = scan(template(phases), readout_grid)
        assert got.p.shape == readout_grid.shape
        for T, phase, p in zip(readout_grid, phases, got.p):
            assert abs(p - scan(template(float(phase)), [T]).p[0]) <= ENGINE_TOL

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_pulse_rejects_non_finite_phase_entry(self, write_field, bad):
        phases = np.array([[0.1], [bad], [0.3]])
        with pytest.raises(InvalidDurationError, match="finite"):
            PulseSpec(write_field, 1e-4, phases)

    def test_pulse_keeps_a_read_only_copy(self, write_field):
        phases = np.array([0.1, 0.2])
        pulse = PulseSpec(write_field, 1e-4, phases)
        phases[0] = 5.0
        assert pulse.phase_offset[0] == 0.1
        assert not pulse.phase_offset.flags.writeable

    def test_array_offsets_compare_and_hash_by_value(self, write_field, scramble_field):
        def pulse(offset, tau=1e-4):
            return PulseSpec(write_field, tau, offset)

        keyed = pulse(np.array([[0.1], [0.2]]))
        assert keyed == pulse([[0.1], [0.2]]) and hash(keyed) == hash(pulse([[0.1], [0.2]]))
        assert pulse([0.0]) == pulse([-0.0]) and hash(pulse([0.0])) == hash(pulse([-0.0]))
        for other in (
            pulse([[0.1], [0.3]]), pulse([0.1, 0.2]), pulse([[0.1], [0.2]], tau=2e-4), pulse(0.1)
        ):
            assert keyed != other and other != keyed
        assert pulse(0.1) == pulse(0.1) and pulse(0.1) != pulse(np.array([0.1]))
        assert len({keyed, pulse([[0.1], [0.2]]), pulse(0.1), pulse(0.1)}) == 2

        def sequence(offset):
            return Sequence((pulse(0.0), Wait(1e-3), pulse(offset)))

        assert sequence([0.1, 0.2]) == sequence(np.array([0.1, 0.2]))
        assert hash(sequence([0.1, 0.2])) == hash(sequence(np.array([0.1, 0.2])))
        assert sequence([0.1, 0.2]) != sequence([0.1, 0.5]) != sequence(0.1)
        key = ScrambleKey(scramble_field, 1e-3, [1.0, 2.0], 5e-3)
        assert key == replace(key, phi_S=np.array([1.0, 2.0])) != replace(key, phi_S=1.0)
        assert hash(key) == hash(replace(key, phi_S=[1.0, 2.0]))
        assert replace(key, phi_S=None) == replace(key, phi_S=None) != key
        write = WriteKey(write_field, 1e-4, np.array([0.1, 0.2]))
        assert write == replace(write, phase=np.array([0.1, 0.2])) != replace(write, phase=0.1)
        assert hash(write) == hash(replace(write, phase=np.array([0.1, 0.2])))

    def test_phases_are_frozen_whatever_the_caller_does(self, write_field):
        single = np.array(0.1)
        pulse = PulseSpec(write_field, 1e-4, single)
        first = hash(pulse)
        single[()] = 5.0
        assert type(pulse.phase_offset) is float and pulse.phase_offset == 0.1
        assert hash(pulse) == first and pulse == PulseSpec(write_field, 1e-4, 0.1)
        assert type(PulseSpec(write_field, 1e-4, np.float32(0.5)).phase_offset) is float
        phases = np.array([0.1, 0.2])
        write = WriteKey(write_field, 1e-4, phases)
        first = hash(write)
        phases[0] = 5.0
        assert write.phase[0] == 0.1 and not write.phase.flags.writeable
        assert hash(write) == first
        listed = WriteKey(write_field, 1e-4, [0.1, 0.2])
        assert listed == write and hash(listed) == first

    @pytest.mark.parametrize("shape", [(3,), (2, 1, 1), (2, 3)])
    def test_phases_that_do_not_broadcast_against_the_grid(self, write_key, scramble_key, shape):
        template = _builder_templates(
            write_key, scramble_key, ROTATING, False, phi=np.zeros(shape)
        )["scrambled"]
        with pytest.raises(SequenceError, match="broadcast"):
            scan(template, np.linspace(0.0, 1e-3, 5))

    def test_key_phases_against_a_one_point_grid(self, write_key, scramble_key):
        def template(phases):
            return _builder_templates(write_key, scramble_key, ROTATING, False, phi=phases)

        phases = np.array([0.1, 0.2, 0.3])
        with pytest.raises(SequenceError):
            scan(template(phases)["scrambled"], [1e-3])
        assert scan(template(phases[:, None])["scrambled"], [1e-3]).p.shape == (3, 1)
