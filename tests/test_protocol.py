"""Tests for key material, sequence builders and timing planners."""

import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramseylock import (
    GROUND,
    ROTATING,
    FieldParams,
    FrameConvention,
    InfeasiblePlanError,
    InvalidDurationError,
    InvalidFieldError,
    NoFringeError,
    NoPrecessionError,
    PlanMismatchError,
    RetrievalPlan,
    ScrambleKey,
    Sequence,
    SequenceError,
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
    fit_many,
    phase_spread,
    plan_double_retrieval,
    plan_readout,
    plan_retrieval,
    pulse_unitary,
    scan,
    secret_readout,
)
from ramseylock.protocol import MAX_PLAN_INDEX, _template

TWO_PI = 2.0 * math.pi


class TestKeys:
    def test_write_key_defaults_to_half_pi_area(self, write_field):
        key = WriteKey(write_field)
        assert key.pulse_area == pytest.approx(math.pi / 2, rel=1e-15)
        assert key.tau == pytest.approx((math.pi / 2) / write_field.rabi, rel=1e-15)

    def test_write_key_derives_area_from_tau(self, write_field):
        key = WriteKey(write_field, tau=0.44e-3)
        assert key.pulse_area == pytest.approx(write_field.rabi * 0.44e-3, rel=1e-15)

    def test_write_key_rejects_inconsistent_pair(self, write_field):
        with pytest.raises(ValueError):
            WriteKey(write_field, tau=0.44e-3, pulse_area=math.pi / 2)

    def test_scramble_key_reduces_phase(self, scramble_field):
        key = ScrambleKey(scramble_field, 1.48e-3, TWO_PI + 0.25, 5e-3)
        assert key.phi_S == pytest.approx(0.25, abs=1e-12)

    def test_withheld_phase_cannot_make_a_pulse(self, scramble_field):
        key = ScrambleKey(scramble_field, 1.48e-3, None, 5e-3)
        assert not key.has_phase
        with pytest.raises(ValueError):
            key.pulse()

    @pytest.mark.parametrize("phase", [math.nan, math.inf, np.array([[0.5], [math.nan]])])
    def test_write_key_rejects_a_non_finite_phase(self, write_field, phase):
        # refused when the key is made, by the pulse it stands for
        with pytest.raises(InvalidDurationError, match="pulse phase offset must be finite"):
            WriteKey(write_field, tau=0.44e-3, phase=phase)

    def test_keys_reject_a_pulse_area_that_overflows(self, write_field, scramble_field):
        # 1e308 s is a finite duration; rabi * 1e308 is not a finite area
        with pytest.raises(InvalidDurationError, match="pulse area must be finite"):
            WriteKey(write_field, tau=1e308)
        with pytest.raises(InvalidDurationError, match="pulse area must be finite"):
            ScrambleKey(scramble_field, 1e308, 0.5, 5e-3)


class TestPlanReadout:
    def test_first_readout_time(self):
        assert plan_readout(TWO_PI * 110.0, 0) == pytest.approx(
            math.pi / (TWO_PI * 110.0), rel=1e-15
        )
        assert plan_readout(TWO_PI * 110.0, 0) == pytest.approx(4.545e-3, abs=5e-7)

    def test_second_readout_time(self):
        assert plan_readout(TWO_PI * 110.0, 1) == pytest.approx(13.64e-3, abs=5e-6)

    def test_zero_detuning_rejected(self):
        with pytest.raises(NoFringeError):
            plan_readout(0.0)


class TestPlanRetrieval:
    def test_table_values(self):
        plan = plan_retrieval(TWO_PI * 100.0, 1e-3)
        assert plan.n == 0
        assert plan.T2 == math.pi / (TWO_PI * 100.0)
        assert plan.T2 == pytest.approx(5e-3, rel=1e-12)

    def test_larger_minimum_bumps_n(self):
        plan = plan_retrieval(TWO_PI * 100.0, 6e-3)
        assert plan.n == 1
        assert plan.T2 == pytest.approx(15e-3, rel=1e-12)

    def test_zero_minimum_gives_first_solution(self):
        assert plan_retrieval(TWO_PI * 100.0, 0.0).n == 0

    def test_minimality(self):
        plan = plan_retrieval(TWO_PI * 73.0, 31e-3)
        assert plan.T2 >= 31e-3
        assert (2 * (plan.n - 1) + 1) * math.pi / (TWO_PI * 73.0) < 31e-3

    def test_zero_detuning_rejected(self):
        with pytest.raises(NoPrecessionError):
            plan_retrieval(0.0, 1e-3)
        # the odd-half-turn rule refuses it, once the minimum has passed its check
        with pytest.raises(ValueError, match="min_T2 must be >= 0"):
            plan_retrieval(0.0, -1.0)

    def test_nan_minimum_rejected(self):
        # not reported as infeasible: NaN is no minimum at all
        with pytest.raises(ValueError, match="min_T2 must be >= 0"):
            plan_retrieval(TWO_PI * 100.0, math.nan)

    def test_with_the_clock_on_the_scramble_pulse_is_spent(self):
        # the retrieve pulse starts (2n+1) half-turns after the scramble pulse starts
        plan = plan_retrieval(TWO_PI * 100.0, 1e-3, 1.48e-3, clock_during_pulses=True)
        assert (plan.n, plan.tau_S, plan.clock_during_pulses) == (0, 1.48e-3, True)
        assert plan.T2 == math.pi / (TWO_PI * 100.0) - 1.48e-3
        bumped = plan_retrieval(TWO_PI * 100.0, 5e-3, 1.48e-3, clock_during_pulses=True)
        assert bumped.n == 1 and bumped.T2 == pytest.approx(15e-3 - 1.48e-3, rel=1e-12)

    def test_with_the_clock_off_tau_S_is_not_spent(self):
        plan = plan_retrieval(TWO_PI * 100.0, 1e-3, 1.48e-3)
        assert (plan.n, plan.T2) == (0, math.pi / (TWO_PI * 100.0))
        assert not plan.clock_during_pulses

    def test_a_pulse_that_spends_a_whole_half_turn_leaves_no_wait(self):
        tau = math.pi / (TWO_PI * 100.0)
        assert plan_retrieval(TWO_PI * 100.0, 0.0, tau, clock_during_pulses=True).T2 == 0.0

    @pytest.mark.parametrize("tau_S", [-1e-3, math.nan, math.inf])
    def test_negative_or_non_finite_tau_S_rejected(self, tau_S):
        with pytest.raises(InvalidDurationError, match="tau_S must be >= 0"):
            plan_retrieval(TWO_PI * 100.0, 1e-3, tau_S, clock_during_pulses=True)

    def test_round_off_step_past_index_bound_is_infeasible(self):
        # the estimate lands exactly on MAX_PLAN_INDEX, and ceil round-off
        # makes the guard loop step one past it
        with pytest.raises(InfeasiblePlanError):
            plan_retrieval(1535.755169500684, 4091.2696070006245)


class TestPlanDoubleRetrieval:
    def test_interval_clock_solution(self):
        plan = plan_double_retrieval(
            TWO_PI * 100.0, TWO_PI * 100.0, 1.48e-3, min_T3=1e-3, min_T2_plus_T4=1e-3
        )
        assert (plan.n, plan.m) == (0, 1)
        assert plan.T3 == pytest.approx(5e-3, rel=1e-12)
        assert plan.T2 == pytest.approx(5e-3, rel=1e-12)
        assert plan.T4 == pytest.approx(5e-3, rel=1e-12)

    def test_wall_clock_solution_subtracts_pulse_time(self):
        plan = plan_double_retrieval(
            TWO_PI * 100.0,
            TWO_PI * 100.0,
            1.48e-3,
            min_T3=1e-3,
            min_T2_plus_T4=1e-3,
            clock_during_pulses=True,
        )
        assert plan.T2 == pytest.approx(3.52e-3, rel=1e-12)
        assert plan.T4 == pytest.approx(3.52e-3, rel=1e-12)

    def test_constraints_hold_to_tolerance_in_both_modes(self):
        for clock in (False, True):
            plan = plan_double_retrieval(
                TWO_PI * 130.0, TWO_PI * 75.0, 2e-3, 4e-3, 3e-3, clock_during_pulses=clock
            )
            lhs = plan.T2 + plan.T3 + plan.T4 + (2 * plan.tau_S2 if clock else 0.0)
            rhs = (2 * plan.m + 1) * math.pi / (TWO_PI * 130.0)
            assert abs(lhs - rhs) <= 1e-12 * rhs
            rhs3 = (2 * plan.n + 1) * math.pi / (TWO_PI * 75.0)
            assert abs(plan.T3 - rhs3) <= 1e-12 * rhs3

    def test_minimality_of_m_and_n(self):
        plan = plan_double_retrieval(TWO_PI * 130.0, TWO_PI * 75.0, 2e-3, 4e-3, 3e-3)
        period_2 = math.pi / (TWO_PI * 75.0)
        assert (2 * (plan.n - 1) + 1) * period_2 < 4e-3
        period_1 = math.pi / (TWO_PI * 130.0)
        assert (2 * (plan.m - 1) + 1) * period_1 - plan.T3 < 3e-3

    def test_explicit_split_override(self):
        plan = plan_double_retrieval(
            TWO_PI * 100.0, TWO_PI * 100.0, 1e-3, 1e-3, 1e-3, T2=2e-3
        )
        assert plan.T2 == 2e-3
        assert plan.T2 + plan.T4 == pytest.approx(10e-3, rel=1e-12)
        with pytest.raises(PlanMismatchError):
            plan_double_retrieval(TWO_PI * 100.0, TWO_PI * 100.0, 1e-3, 1e-3, 1e-3, T2=11e-3)

    def test_zero_detuning_rejected(self):
        with pytest.raises(NoPrecessionError):
            plan_double_retrieval(0.0, TWO_PI * 100.0, 1e-3)
        with pytest.raises(NoPrecessionError):
            plan_double_retrieval(TWO_PI * 100.0, 0.0, 1e-3)
        # the odd-half-turn rule refuses it, once the duration has passed its check
        with pytest.raises(InvalidDurationError, match="tau_S2 must be >= 0"):
            plan_double_retrieval(0.0, TWO_PI * 100.0, -1e-3)

    def test_unreachable_minimum_is_infeasible(self):
        with pytest.raises(InfeasiblePlanError):
            plan_double_retrieval(TWO_PI * 100.0, TWO_PI * 100.0, 1e-3, math.inf, 1e-3)
        with pytest.raises(InfeasiblePlanError):
            plan_double_retrieval(TWO_PI * 100.0, TWO_PI * 100.0, 1e-3, 1e-3, math.inf)

    @pytest.mark.parametrize(
        "minima", [(math.nan, 1e-3), (1e-3, math.nan)], ids=["min_T3", "min_T2_plus_T4"]
    )
    def test_nan_minimum_rejected(self, minima):
        with pytest.raises(ValueError, match="minimum intervals must be >= 0"):
            plan_double_retrieval(TWO_PI * 100.0, TWO_PI * 100.0, 1e-3, *minima)

    @pytest.mark.parametrize("clock", [False, True])
    @pytest.mark.parametrize("tau_S2", [-1e-3, math.nan, math.inf])
    def test_negative_or_non_finite_tau_S2_rejected(self, tau_S2, clock):
        with pytest.raises(InvalidDurationError, match="tau_S2"):
            plan_double_retrieval(
                TWO_PI * 100.0, TWO_PI * 100.0, tau_S2, 1e-3, 1e-3, clock_during_pulses=clock
            )


_PLANNERS = {
    "readout": lambda d: plan_readout(d),
    "retrieval": lambda d: plan_retrieval(d, 1e-3),
    "double-first": lambda d: plan_double_retrieval(d, TWO_PI * 100.0, 1e-3, 1e-3, 1e-3),
    "double-second": lambda d: plan_double_retrieval(TWO_PI * 100.0, d, 1e-3, 1e-3, 1e-3),
}


@pytest.mark.parametrize("planner", sorted(_PLANNERS))
@pytest.mark.parametrize("detuning", [math.nan, math.inf, -math.inf])
def test_non_finite_detuning_is_an_invalid_field(planner, detuning):
    with pytest.raises(InvalidFieldError, match="detuning must be finite"):
        _PLANNERS[planner](detuning)


#: Plan indices that are not integers >= 0.  A half-integer index makes the
#: odd-half-turn wait a whole turn: ``RetrievalPlan(n=0.5, T2=2*pi/|delta_S|)``
#: would build a "retrieved" fringe that still depends on the key phase.
_BAD_INDICES = [0.5, 1.0, -1, np.int64(-1), "1", None]


@pytest.mark.parametrize("index", _BAD_INDICES, ids=repr)
class TestPlanIndicesAreIntegers:
    def test_readout_k(self, index):
        with pytest.raises(ValueError, match=r"^k must be an integer >= 0, got "):
            plan_readout(TWO_PI * 110.0, index)

    def test_retrieval_n(self, index):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 0, got "):
            RetrievalPlan(n=index, T2=1.0 / 100.0)

    @pytest.mark.parametrize("name", ["m", "n"])
    def test_double_retrieval_m_and_n(self, index, name):
        plan = plan_double_retrieval(TWO_PI * 100.0, TWO_PI * 100.0, 1e-3, 1e-3, 1e-3)
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got "):
            replace(plan, **{name: index})


@pytest.mark.parametrize(
    "plan, n, detuning",
    [
        pytest.param(lambda: plan_readout(1.0, 10**308), 10**308, 1.0, id="readout-huge-k"),
        pytest.param(lambda: plan_readout(1e-320, 0), 0, 1e-320, id="readout-tiny-detuning"),
        pytest.param(lambda: plan_retrieval(1e-320, 1e-3), 0, 1e-320,
                     id="retrieval-tiny-detuning"),
        pytest.param(lambda: build_retrieved(
            WriteKey(FieldParams(TWO_PI * 565.0, TWO_PI * 110.0), tau=0.44e-3),
            ScrambleKey(FieldParams(TWO_PI * 169.0, 1.0), 1.48e-3, 0.0, 5e-3),
            RetrievalPlan(n=10**400, T2=1.0), 0.0), 10**400, 1.0, id="retrieved-huge-n"),
    ],
)
def test_a_wait_that_is_not_a_finite_float_is_infeasible(plan, n, detuning):
    # (2n+1)*pi/|detuning| overflows: refused, not an OverflowError or an inf wait
    message = f"for n = {n} at detuning {detuning} rad/s is not finite"
    with pytest.raises(InfeasiblePlanError, match=re.escape(message)):
        plan()


def test_numpy_integer_plan_indices_are_accepted():
    assert plan_readout(TWO_PI * 110.0, np.int64(1)) == plan_readout(TWO_PI * 110.0, 1)
    # 2k + 1 in int64 would wrap around to a negative wait
    assert plan_readout(1.0, np.int64(2**62)) == plan_readout(1.0, 2**62) > 0.0
    assert RetrievalPlan(n=np.int64(2), T2=5e-3).n == 2
    plan = plan_double_retrieval(TWO_PI * 100.0, TWO_PI * 100.0, 1e-3, 1e-3, 1e-3)
    assert replace(plan, m=np.int64(3), n=np.int64(4)) == replace(plan, m=3, n=4)


#: Relative round-off the planner properties allow where they add waits up
#: or where the planner gives up before its search (an index estimate past
#: ``MAX_PLAN_INDEX``).  Every bound and every minimality is checked exactly.
_PLAN_TOL = 1e-12


def _half_turns(n, detuning):
    return (2 * n + 1) * math.pi / abs(detuning)


_detunings = st.builds(
    lambda magnitude, sign: sign * magnitude,
    st.floats(1.0, 1e5),
    st.sampled_from([-1.0, 1.0]),
)


def _draw_minimum(data, detuning, less=0.0):
    """A free minimum, or one on (or one ulp from) a half-turn boundary
    with ``less`` taken off."""
    if data.draw(st.booleans()):
        return data.draw(st.floats(0.0, 60.0 * math.pi / abs(detuning)))
    boundary = _half_turns(data.draw(st.integers(0, 50)), detuning) - less
    nudge = data.draw(st.sampled_from([None, 0.0, math.inf]))
    if nudge is not None:
        boundary = math.nextafter(boundary, nudge)
    return max(0.0, boundary)


class TestPlannerProperties:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_retrieval_is_the_least_odd_half_turn(self, data):
        delta = data.draw(_detunings)
        minimum = _draw_minimum(data, delta)
        plan = plan_retrieval(delta, minimum)
        assert plan.T2 == _half_turns(plan.n, delta)
        assert plan.T2 >= minimum
        assert plan.n == 0 or _half_turns(plan.n - 1, delta) < minimum

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_clocked_retrieval_is_the_least_odd_half_turn_less_the_pulse(self, data):
        delta = data.draw(_detunings)
        tau = data.draw(st.floats(0.0, 3.0 * math.pi / abs(delta)))
        minimum = _draw_minimum(data, delta, less=tau)
        plan = plan_retrieval(delta, minimum, tau, clock_during_pulses=True)
        assert plan.T2 == _half_turns(plan.n, delta) - tau
        assert plan.T2 >= minimum
        assert plan.n == 0 or _half_turns(plan.n - 1, delta) - tau < minimum

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_double_retrieval_meets_both_constraints_minimally(self, data):
        delta_1, delta_2 = data.draw(_detunings), data.draw(_detunings)
        tau_S2 = data.draw(st.floats(0.0, 5e-3))
        clock = data.draw(st.booleans())
        correction = 2.0 * tau_S2 if clock else 0.0
        min_T3 = _draw_minimum(data, delta_2)
        # aim the sum minimum at a boundary of the T3 the planner will pick
        T3 = plan_retrieval(delta_2, min_T3).T2
        min_sum = _draw_minimum(data, delta_1, less=T3 + correction)
        try:
            plan = plan_double_retrieval(
                delta_1, delta_2, tau_S2, min_T3, min_sum, clock_during_pulses=clock
            )
        except InfeasiblePlanError:
            # only when even the last index allowed falls short
            last = _half_turns(MAX_PLAN_INDEX, delta_1)
            assert last - T3 - correction < min_sum + _PLAN_TOL * last
            return
        assert plan.T3 == _half_turns(plan.n, delta_2) and plan.T3 >= min_T3
        total = _half_turns(plan.m, delta_1)
        assert abs(plan.T2 + plan.T3 + plan.T4 + correction - total) <= _PLAN_TOL * total
        assert plan.T2 >= 0.0 and plan.T4 >= 0.0
        assert plan.T2 + plan.T4 == total - plan.T3 - correction >= min_sum
        assert plan.n == 0 or _half_turns(plan.n - 1, delta_2) < min_T3
        assert plan.m == 0 or _half_turns(plan.m - 1, delta_1) - plan.T3 - correction < min_sum

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_minimum_on_a_boundary_returns_its_index(self, data):
        delta_1, delta_2 = data.draw(_detunings), data.draw(_detunings)
        k = data.draw(st.integers(0, 50))
        min_T3 = _half_turns(k, delta_2)
        assert plan_retrieval(delta_2, min_T3).n == k
        assert k == 0 or _half_turns(k - 1, delta_2) < min_T3
        # the sum bound on the j-th boundary left by that T3, past the least feasible index
        tau_S2 = data.draw(st.floats(0.0, 5e-3))
        clock = data.draw(st.booleans())
        correction = 2.0 * tau_S2 if clock else 0.0
        first = math.ceil((min_T3 + correction) * abs(delta_1) / math.pi / 2.0) + 1
        j = first + data.draw(st.integers(0, 50))
        assume(j <= MAX_PLAN_INDEX)
        min_sum = _half_turns(j, delta_1) - min_T3 - correction
        plan = plan_double_retrieval(
            delta_1, delta_2, tau_S2, min_T3, min_sum, clock_during_pulses=clock
        )
        assert (plan.n, plan.m) == (k, j)
        assert _half_turns(j - 1, delta_1) - min_T3 - correction < min_sum


class TestBuildWriteRead:
    def test_resonant_key_gives_flat_unity(self):
        f = FieldParams(TWO_PI * 565.0, 0.0)
        key = WriteKey(f)  # half-pi area
        result = scan(build_write_read(key, 0.0, scanned=True), np.linspace(0, 20e-3, 51))
        assert result.p.min() == pytest.approx(1.0, abs=1e-12)

    def test_fringe_at_the_detuning(self, write_key, readout_grid):
        result = scan(build_write_read(write_key, 0.0, scanned=True), readout_grid)
        fit = fit_damped_sinusoid(result)
        assert fit.frequency == pytest.approx(110.0, rel=1e-3)

    def test_two_pi_pulses_return_population(self):
        # oracle: the operator product of two resonant pi pulses
        f = FieldParams(TWO_PI * 565.0, 0.0)
        key = WriteKey(f, pulse_area=math.pi)
        u = pulse_unitary(f, key.tau, 0.0)
        oracle = apply_unitary(u, apply_unitary(u, GROUND))
        assert excitation_probability(oracle) == pytest.approx(0.0, abs=1e-12)
        for T in (0.0, 3e-3, 12e-3):
            got = evolve(build_write_read(key, T))
            assert excitation_probability(got) == pytest.approx(0.0, abs=1e-12)


class TestBuildScrambled:
    def test_same_field_reduction_matches_manual_product(self, write_field):
        # scramble field identical to the recording field: a three-pulse
        # single-field interferometer, checked against the raw product
        w = WriteKey(write_field, tau=0.44e-3)
        key = ScrambleKey(write_field, 0.44e-3, 0.9, 5e-3)
        T = 4e-3
        got = evolve(build_scrambled(w, key, T))
        state = GROUND
        d = write_field.detuning
        state = apply_unitary(pulse_unitary(write_field, 0.44e-3, 0.0), state)
        state = apply_unitary(pulse_unitary(write_field, 0.44e-3, d * 5e-3 + 0.9), state)
        state = apply_unitary(pulse_unitary(write_field, 0.44e-3, d * (5e-3 + T)), state)
        assert abs(got.c_e - state.c_e) <= 1e-15

    def test_vanishing_scramble_area_reduces_to_plain_ramsey(self, write_key, scramble_field):
        grid = np.linspace(0.0, 20e-3, 41)
        tiny = ScrambleKey(scramble_field, 1e-15, 0.7, 5e-3)
        scrambled = scan(build_scrambled(write_key, tiny, 0.0, scanned=True), grid)
        plain = scan(
            Sequence(
                (write_key.pulse(), Wait(5e-3), Wait(0.0, scanned=True), write_key.pulse())
            ),
            grid,
        )
        assert np.max(np.abs(scrambled.p - plain.p)) <= 1e-9

    def test_key_sweep_spans_most_of_half_turn(self, write_key, scramble_key, readout_grid):
        # frozen from the exact operator product: the family of fringes for
        # phi_S in [0, 2*pi) spans 0.704*pi of fitted phase (the upper bound
        # pi is reached only in the short-pulse limit)
        fits = []
        for phi in np.linspace(0.0, TWO_PI, 64, endpoint=False):
            sc = scan(
                build_scrambled(write_key, replace(scramble_key, phi_S=phi), 0.0, scanned=True),
                readout_grid,
            )
            fits.append(fit_damped_sinusoid(sc))
        spread = phase_spread(fits)
        assert spread == pytest.approx(0.704 * math.pi, abs=0.03)
        assert spread <= math.pi


class TestBuildRetrieved:
    def test_plan_mismatch_rejected(self, write_key, scramble_key):
        bad = RetrievalPlan(n=0, T2=TWO_PI / scramble_key.field.detuning)
        with pytest.raises(PlanMismatchError):
            build_retrieved(write_key, scramble_key, bad, 1e-3)

    def test_a_hand_made_plan_for_a_resonant_key_is_refused(self, write_key, scramble_key):
        resonant = replace(scramble_key, field=FieldParams(scramble_key.field.rabi, 0.0))
        with pytest.raises(NoPrecessionError):
            build_retrieved(write_key, resonant, RetrievalPlan(n=0, T2=5e-3), 1e-3)

    def test_a_negative_wait_is_no_plan(self):
        with pytest.raises(ValueError, match="T2 must be >= 0, got -1.0"):
            RetrievalPlan(n=0, T2=-1.0)

    def test_fringe_recovered_independent_of_key(self, write_key, scramble_key, readout_grid):
        plan = plan_retrieval(scramble_key.field.detuning, 1e-3)
        ref = scan(
            build_retrieved(write_key, scramble_key, plan, 0.0, scanned=True), readout_grid
        )
        for phi in np.linspace(0.0, TWO_PI, 8, endpoint=False):
            sc = scan(
                build_retrieved(
                    write_key, replace(scramble_key, phi_S=phi), plan, 0.0, scanned=True
                ),
                readout_grid,
            )
            assert np.max(np.abs(sc.p - ref.p)) <= 0.02
            fit = fit_damped_sinusoid(sc)
            assert fit.frequency == pytest.approx(110.0, rel=0.01)

    def test_a_plan_is_checked_against_its_own_clock(self, write_key, scramble_key):
        d = scramble_key.field.detuning
        clocked = plan_retrieval(d, 1e-3, scramble_key.tau, clock_during_pulses=True)
        # a plan sets the retrieve timing; the timeline's clock is the caller's
        for clock in (False, True):
            build_retrieved(write_key, scramble_key, clocked, 0.0, clock_during_pulses=clock)
            build_retrieved(write_key, scramble_key, plan_retrieval(d, 1e-3), 0.0,
                            clock_during_pulses=clock)
        with pytest.raises(PlanMismatchError, match="retrieval wait"):
            build_retrieved(write_key, scramble_key, replace(clocked, T2=5e-3), 0.0)
        with pytest.raises(PlanMismatchError, match="scramble duration"):
            build_retrieved(write_key, replace(scramble_key, tau=1e-3), clocked, 0.0)

    @pytest.mark.parametrize("frame", [ROTATING, FrameConvention("lab", TWO_PI * 1e4)],
                             ids=["rotating", "lab"])
    def test_with_the_clock_on_the_fringe_is_independent_of_the_key(
        self, write_key, scramble_key, readout_grid, frame
    ):
        # 8 key phases: a plan for the clock in use retrieves as well as with
        # the clock off (0.0177); a clock-off plan on a running clock does not
        keys = replace(scramble_key, phi_S=np.linspace(0.0, TWO_PI, 8, endpoint=False)[:, None])
        d, tau = scramble_key.field.detuning, scramble_key.tau

        def spread(plan, clock):
            template = build_retrieved(write_key, keys, plan, 0.0, frame=frame,
                                       clock_during_pulses=clock, scanned=True)
            return float(np.ptp(scan(template, readout_grid).p, axis=0).max())

        clock_off = spread(plan_retrieval(d, 1e-3), False)
        assert clock_off == pytest.approx(0.0177, abs=1e-4)
        assert spread(plan_retrieval(d, 1e-3, tau, clock_during_pulses=True), True) == (
            pytest.approx(clock_off, abs=1e-3))
        assert spread(plan_retrieval(d, 1e-3), True) > 0.3

    def test_wrong_interval_leaks_the_key(self, write_key, scramble_key, readout_grid):
        # an even-pi wait (2*pi/detuning) violates the retrieval rule; the
        # curves for different key phases must then disagree visibly
        bad_T2 = TWO_PI / scramble_key.field.detuning

        def bad_sequence(phi):
            key = replace(scramble_key, phi_S=phi)
            return Sequence(
                (
                    write_key.pulse(),
                    Wait(key.T1),
                    key.pulse(),
                    Wait(bad_T2),
                    key.pulse(),
                    Wait(0.0, scanned=True),
                    write_key.pulse(),
                )
            )

        ref = scan(bad_sequence(0.0), readout_grid)
        worst = max(
            float(np.max(np.abs(scan(bad_sequence(phi), readout_grid).p - ref.p)))
            for phi in np.linspace(0.0, TWO_PI, 8, endpoint=False)
        )
        assert worst > 0.1

    def test_key_linearity_in_short_pulse_regime(self, write_key):
        # a common offset added to the key phase (used by both scramble and
        # retrieve pulses) leaves the recovered fringe unchanged; the
        # residual scales with pulse duration, so probe a fast pulse
        fast = FieldParams(TWO_PI * 1e10, TWO_PI * 100.0, "F")
        plan = plan_retrieval(fast.detuning, 0.0)
        grid = np.linspace(0.0, 20e-3, 41)

        def retrieved(phi):
            key = ScrambleKey(fast, (math.pi / 2) / fast.rabi, phi, 5e-3)
            return scan(build_retrieved(write_key, key, plan, 0.0, scanned=True), grid)

        ref = retrieved(0.0)
        for phi in np.linspace(0.0, TWO_PI, 8, endpoint=False):
            assert np.max(np.abs(retrieved(phi).p - ref.p)) <= 1e-9


class TestDoubleScramble:
    def test_zero_area_pulses_reduce_to_plain_ramsey(self, write_key, scramble_field):
        grid = np.linspace(0.0, 20e-3, 41)
        tiny_1 = ScrambleKey(scramble_field, 1e-15, 0.4, 5e-3)
        tiny_2 = ScrambleKey(scramble_field, 1e-15, 1.9, 5e-3)
        doubled = scan(
            build_double_scrambled(write_key, tiny_1, tiny_2, 0.0, scanned=True), grid
        )
        plain = scan(
            Sequence(
                (write_key.pulse(), Wait(10e-3), Wait(0.0, scanned=True), write_key.pulse())
            ),
            grid,
        )
        assert np.max(np.abs(doubled.p - plain.p)) <= 1e-9

    def test_same_field_reduction_matches_manual_product(self, write_field):
        w = WriteKey(write_field, tau=0.44e-3)
        k1 = ScrambleKey(write_field, 0.44e-3, 0.0, 5e-3)
        k2 = ScrambleKey(write_field, 0.44e-3, 0.0, 4e-3)
        T = 3e-3
        got = evolve(build_double_scrambled(w, k1, k2, T))
        d = write_field.detuning
        state = GROUND
        for t in (0.0, 5e-3, 9e-3, 9e-3 + T):
            state = apply_unitary(pulse_unitary(write_field, 0.44e-3, d * t), state)
        assert abs(got.c_e - state.c_e) <= 1e-15


@pytest.fixture(scope="module")
def wide_keys(fast_scramble_field):
    # 0.8*pi-area scrambling pulses; retrieval exactness does not depend
    # on the area, while the injected ambiguity grows well beyond pi
    field = FieldParams(fast_scramble_field.rabi, fast_scramble_field.detuning, "S1")
    tau = 0.8 * math.pi / field.rabi
    plan = plan_double_retrieval(
        field.detuning, field.detuning, tau, min_T3=1e-3, min_T2_plus_T4=1e-3
    )

    def make_1(phi):
        return ScrambleKey(field, tau, phi, 5e-3)

    def make_2(phi):
        return ScrambleKey(field, tau, phi, plan.T2)

    return make_1, make_2, plan


class TestDoubleRetrieved:
    def test_retrieval_collapses_key_grid(self, write_key, wide_keys, readout_grid):
        make_1, make_2, plan = wide_keys
        ref = scan(
            build_double_retrieved(write_key, make_1(0.0), make_2(0.0), plan, 0.0, scanned=True),
            readout_grid,
        )
        for p1 in np.linspace(0.0, TWO_PI, 3, endpoint=False):
            for p2 in np.linspace(0.0, TWO_PI, 3, endpoint=False):
                sc = scan(
                    build_double_retrieved(
                        write_key, make_1(p1), make_2(p2), plan, 0.0, scanned=True
                    ),
                    readout_grid,
                )
                assert np.max(np.abs(sc.p - ref.p)) <= 0.05

    def test_wrong_retrieve_order_leaks_keys(self, write_key, wide_keys, readout_grid):
        make_1, make_2, plan = wide_keys

        def wrong_order(p1, p2):
            k1, k2 = make_1(p1), make_2(p2)
            return Sequence(
                (
                    write_key.pulse(),
                    Wait(k1.T1),
                    k1.pulse(),
                    Wait(plan.T2),
                    k2.pulse(),
                    Wait(plan.T3),
                    k1.pulse(),  # retrieve-1 too early
                    Wait(plan.T4),
                    k2.pulse(),
                    Wait(0.0, scanned=True),
                    write_key.pulse(),
                )
            )

        ref = scan(wrong_order(0.0, 0.0), readout_grid)
        worst = max(
            float(np.max(np.abs(scan(wrong_order(p1, p2), readout_grid).p - ref.p)))
            for p1 in np.linspace(0.0, TWO_PI, 3, endpoint=False)
            for p2 in np.linspace(0.0, TWO_PI, 3, endpoint=False)
        )
        assert worst > 0.1

    def test_nan_in_a_plan_is_a_mismatch(self, write_key, wide_keys):
        # NaN fails every comparison, so a check must ask "close?", not "far?"
        make_1, make_2, plan = wide_keys
        bad = replace(plan, tau_S2=math.nan, T4=plan.T4 + 1e-3, clock_during_pulses=True)
        with pytest.raises(PlanMismatchError, match="sum constraint"):
            build_double_retrieved(write_key, make_1(0.0), make_2(0.0), bad, 1e-3)

    @pytest.mark.parametrize("resonant", [0, 1])
    def test_a_hand_made_plan_for_a_resonant_key_is_refused(self, write_key, wide_keys,
                                                             resonant):
        make_1, make_2, plan = wide_keys
        keys = [make_1(0.0), make_2(0.0)]
        keys[resonant] = replace(keys[resonant], field=FieldParams(keys[resonant].field.rabi, 0.0))
        with pytest.raises(NoPrecessionError):
            build_double_retrieved(write_key, *keys, plan, 1e-3)

    def test_plan_key_mismatches_rejected(self, write_key, wide_keys):
        make_1, make_2, plan = wide_keys
        with pytest.raises(PlanMismatchError):
            # wrong scramble-2 duration
            bad_2 = replace(make_2(0.0), tau=2 * plan.tau_S2)
            build_double_retrieved(write_key, make_1(0.0), bad_2, plan, 1e-3)
        with pytest.raises(PlanMismatchError):
            # scramble-1 -> scramble-2 wait disagrees with the plan
            bad_2 = replace(make_2(0.0), T1=plan.T2 / 2)
            build_double_retrieved(write_key, make_1(0.0), bad_2, plan, 1e-3)

    def test_the_clock_on_stacked_residual_is_on_record(
        self, write_key, scramble_field, readout_grid
    ):
        # README, next to criterion 3: with the clock on, criterion 6's rule
        # T2 + T3 + T4 + 2*tau_S2 = (2m+1) pi/|d_S1| leaves a residual that the
        # start-to-start rule (T3 + tau_S2 and T2 + T3 + T4 + 2*tau_S2 + tau_S1
        # odd half-turns) does not.  The stacked keys of the key_sweep
        # benchmark (table 1's S, and S2 at 240 Hz / 80 Hz with a 0.8 ms
        # pulse), over 16 random key pairs: the largest spread of p over them
        s2_field = FieldParams(TWO_PI * 240.0, TWO_PI * 80.0, "S2")
        phis = np.random.default_rng(0).uniform(0.0, TWO_PI, (2, 16, 1))
        key_1 = ScrambleKey(scramble_field, 1.48e-3, phis[0], 5e-3)
        key_2 = ScrambleKey(s2_field, 0.8e-3, phis[1], 5e-3)

        def spread(template):
            return float(np.ptp(scan(template, readout_grid).p, axis=0).max())

        def planned(clock):
            return _template("double-retrieve", write_key, (key_1, key_2), {"T2": 5e-3},
                             frame=ROTATING, clock_during_pulses=clock)

        def least(delta, spent, minimum):
            n = 0
            while _half_turns(n, delta) - spent < minimum:
                n += 1
            return _half_turns(n, delta) - spent

        T3 = least(s2_field.detuning, key_2.tau, 0.0)
        T4 = least(scramble_field.detuning, T3 + 2 * key_2.tau + key_1.tau + 5e-3, 0.0)
        s1, s2, w = key_1.pulse(), key_2.pulse(), write_key.pulse()
        start_to_start = Sequence(
            (w, Wait(5e-3), s1, Wait(5e-3), s2, Wait(T3), s2, Wait(T4), s1,
             Wait(0.0, scanned=True), w),
            clock_during_pulses=True,
        )
        got = (spread(planned(True)), spread(start_to_start), spread(planned(False)))
        assert got == pytest.approx((0.5593, 0.0753, 0.0708), abs=1e-4)


class TestSecretReadout:
    def test_cooperative_readout_recovers_fringe(self, write_key, fast_scramble_field):
        grid = np.arange(0.0, 20.0001e-3, 1e-4)
        key = ScrambleKey(fast_scramble_field, (math.pi / 2) / fast_scramble_field.rabi, 2.34, 5e-3)
        result = secret_readout(write_key, key, grid)
        fit = fit_damped_sinusoid(result)
        assert fit.converged
        assert fit.frequency == pytest.approx(110.0, rel=0.01)

    def test_blind_readout_needs_rng(self, write_key, scramble_key):
        blind = replace(scramble_key, phi_S=None)
        with pytest.raises(ValueError):
            secret_readout(write_key, blind, [0.0, 1e-3])

    def test_blind_readout_is_seed_deterministic(self, write_key, scramble_key):
        blind = replace(scramble_key, phi_S=None)
        grid = np.linspace(0.0, 10e-3, 21)
        a = secret_readout(write_key, blind, grid, np.random.default_rng(5))
        b = secret_readout(write_key, blind, grid, np.random.default_rng(5))
        assert np.array_equal(a.p, b.p)

    def test_per_point_mode_scatters_within_one_scan(self, write_key, scramble_key):
        blind = replace(scramble_key, phi_S=None)
        grid = np.linspace(0.0, 10e-3, 21)
        rng = np.random.default_rng(5)
        per_run = secret_readout(write_key, blind, grid, np.random.default_rng(5))
        per_point = secret_readout(
            write_key, blind, grid, rng, fresh_phase_per_point=True
        )
        assert not np.array_equal(per_run.p, per_point.p)

    def test_empty_grid_rejected(self, write_key, scramble_key):
        with pytest.raises(SequenceError):
            secret_readout(write_key, scramble_key, [])

    @pytest.mark.parametrize("seed", [0, 5, 2017])
    def test_per_point_mode_matches_one_scan_per_point(self, write_key, scramble_key, seed):
        # the oracle: a fresh scalar phase and a one-point scan per grid point
        blind = replace(scramble_key, phi_S=None)
        grid = np.arange(0.0, 20.0001e-3, 1e-4)
        rng_loop, rng_axis = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [
            scan(
                build_scrambled(
                    write_key,
                    replace(blind, phi_S=float(rng_loop.uniform(0.0, TWO_PI))),
                    0.0,
                    scanned=True,
                ),
                [T],
            ).p[0]
            for T in grid
        ]
        got = secret_readout(write_key, blind, grid, rng_axis, fresh_phase_per_point=True)
        assert got.p.shape == grid.shape and np.array_equal(got.T, grid)
        assert np.max(np.abs(got.p - np.array(expected))) <= 1e-12
        assert rng_axis.random() == rng_loop.random()


#: The six protocols the scan-template mapping simulates.
_PROTOCOLS = ("ramsey", "scramble", "attack", "retrieve", "double-scramble", "double-retrieve")


class TestTemplate:
    def test_unknown_protocol_is_refused(self, write_key, scramble_key):
        for protocol in ("fit", "bogus"):
            with pytest.raises(ValueError, match=f"unknown protocol {protocol!r}"):
                _template(protocol, write_key, (scramble_key,), frame=ROTATING,
                          clock_during_pulses=False)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_fringe_in_T_is_one_harmonic_of_the_write_detuning(self, data):
        # the read pulse is the only pulse after the scanned wait and repeats
        # the write pulse, so P(T) = c0 + Re(c1 exp(i delta_W T)) exactly:
        # a scan at delta_W T = 0, 2pi/3 and 4pi/3 fixes it at every T
        template, delta = _draw_template(data)
        c0, c1 = _one_harmonic(template, delta)
        grid = np.array(sorted(data.draw(
            st.lists(st.floats(0.0, 40e-3), min_size=1, max_size=30, unique=True))))
        rebuilt = c0 + (c1 * np.exp(1j * delta * grid)).real
        assert np.max(np.abs(rebuilt - scan(template, grid).p)) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_noiseless_fit_recovers_the_exact_fringe(self, data):
        # the same identity gives the fit's truth: f = |delta_W| / 2pi,
        # amplitude |c1|, offset c0, phase sign(delta_W) arg c1 and no decay;
        # the scan covers 20 ms and at least two periods
        template, delta = _draw_template(data)
        c0, c1 = _one_harmonic(template, delta)
        assume(abs(c1) > 0.05)
        span = max(20e-3, 2.0 * TWO_PI / abs(delta))
        fit = fit_damped_sinusoid(scan(template, np.linspace(0.0, span, 201)))
        assert fit.converged and fit.decay_time == math.inf
        assert fit.frequency == pytest.approx(abs(delta) / TWO_PI, rel=1e-12, abs=0.0)
        assert fit.amplitude == pytest.approx(abs(c1), rel=0.0, abs=1e-12)
        assert fit.offset == pytest.approx(c0, rel=0.0, abs=1e-12)
        phase = math.copysign(1.0, delta) * np.angle(c1)
        assert abs(math.remainder(fit.phase - phase, TWO_PI)) <= 1e-12

    def test_dense_sweep_fit_matches_the_exact_sweep_spread(self, write_key, scramble_key,
                                                             readout_grid):
        # criterion 3's keys.  A key held by one pulse enters c1 as a
        # trigonometric polynomial of degree 2 in its phase, so the (4k + 1) x 3
        # scan at 5 key phases fixes c1 on the whole key circle, and the exact
        # spread of a sweep is the spread of arg c1 there (delta_W > 0)
        def template(phases):
            return build_scrambled(write_key, replace(scramble_key, phi_S=phases[:, None]),
                                   0.0, scanned=True)

        def spread(phases):
            return phase_spread([SimpleNamespace(converged=True, phase=x) for x in phases])

        harmonics = np.fft.fft(_one_harmonic(template(TWO_PI * np.arange(5) / 5),
                                             write_key.field.detuning)[1]) / 5

        def c1(phases):
            return np.exp(1j * np.outer(phases, [0, 1, 2, -2, -1])) @ harmonics

        circle = TWO_PI * np.arange(65536) / 65536
        assert np.min(np.abs(c1(circle))) > 0.02  # the fringe never vanishes
        exact = spread(np.angle(c1(circle)))
        assert exact == pytest.approx(0.70631 * math.pi, abs=1e-5 * math.pi)
        # the fit is exact at each swept phase; the sweep misses only the
        # extremes between its phases, by 6.4e-5 pi at 512 phases
        sweep = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        fits = fit_many(scan(template(sweep), readout_grid))
        residual = np.array([f.phase for f in fits]) - np.angle(c1(sweep))
        assert np.max(np.abs(np.remainder(residual + math.pi, TWO_PI) - math.pi)) <= 1e-12
        assert 0.0 <= exact - phase_spread(fits) <= 1e-3 * math.pi


def _draw_template(data):
    """A random scanned template of one of the six protocols, with random
    fields, both frames and both clocks, and its write detuning."""
    def field(label):
        sign = data.draw(st.sampled_from([-1.0, 1.0]))
        return FieldParams(TWO_PI * data.draw(st.floats(50.0, 5000.0)),
                           sign * TWO_PI * data.draw(st.floats(20.0, 500.0)), label)

    def key(label):
        return ScrambleKey(field(label), data.draw(st.floats(0.1e-3, 2e-3)),
                           data.draw(st.floats(0.0, TWO_PI)), data.draw(st.floats(0.0, 8e-3)))

    protocol = data.draw(st.sampled_from(_PROTOCOLS))
    write_key = WriteKey(field("W"), tau=data.draw(st.floats(0.1e-3, 1e-3)),
                         phase=data.draw(st.floats(0.0, TWO_PI)))
    count = 0 if protocol == "ramsey" else 2 if protocol.startswith("double-") else 1
    keys = tuple(key(f"S{i}") for i in range(1, count + 1))
    intervals = data.draw(st.dictionaries(st.sampled_from(["T2", "T3", "T4"]),
                                          st.floats(0.0, 5e-3)))
    frame = data.draw(st.sampled_from(
        [ROTATING, FrameConvention("lab", TWO_PI * data.draw(st.floats(0.0, 1e4)))]
    ))
    template = _template(protocol, write_key, keys, intervals, frame=frame,
                         clock_during_pulses=data.draw(st.booleans()))
    return template, write_key.field.detuning


def _one_harmonic(template, delta):
    """``(c0, c1)`` of ``P(T) = c0 + Re(c1 exp(i delta T))`` from the scan at
    ``delta T = 0, 2pi/3, 4pi/3``; arrays over the key axis of a batch."""
    probes = np.arange(3) * (TWO_PI / 3.0) / abs(delta)
    turns = delta * probes
    basis = np.stack([np.ones(3), np.cos(turns), -np.sin(turns)], axis=1)
    c0, re_c1, im_c1 = np.linalg.solve(basis, scan(template, probes).p.T)
    return c0, re_c1 + 1j * im_c1
