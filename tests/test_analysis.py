"""Tests for the damped-sinusoid fitter and the circular phase metrics."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylock import analysis
from ramseylock import (
    FitError,
    FitResult,
    FringeScan,
    NoiseModel,
    build_write_read,
    fit_damped_sinusoid,
    fringe_visibility,
    measure_scan,
    phase_spread,
    scan,
    simulate_measurement,
)

TWO_PI = 2.0 * math.pi


def synthetic(T, amplitude, frequency, phase, offset, decay_time):
    p = offset + amplitude * np.exp(-T / decay_time) * np.cos(TWO_PI * frequency * T + phase)
    return FringeScan(T, p, np.zeros_like(T))


class TestFitDampedSinusoid:
    def test_noiseless_round_trip_is_machine_exact(self):
        T = np.linspace(0.0, 20e-3, 201)
        fit = fit_damped_sinusoid(synthetic(T, 0.5, 110.0, 1.0, 0.5, 30e-3))
        assert fit.converged
        assert fit.amplitude == pytest.approx(0.5, rel=1e-6)
        assert fit.frequency == pytest.approx(110.0, rel=1e-6)
        assert fit.phase == pytest.approx(1.0, rel=1e-6)
        assert fit.offset == pytest.approx(0.5, rel=1e-6)
        assert fit.decay_time == pytest.approx(30e-3, rel=1e-6)

    def test_constant_input_reports_no_fringe(self):
        T = np.linspace(0.0, 20e-3, 60)
        fit = fit_damped_sinusoid(FringeScan(T, np.full_like(T, 0.5), np.zeros_like(T)))
        assert fit.amplitude == 0.0
        assert not fit.converged

    def test_too_few_points_rejected(self):
        T = np.linspace(0.0, 1.0, 7)
        with pytest.raises(FitError):
            fit_damped_sinusoid(FringeScan(T, np.linspace(0, 1, 7), np.zeros(7)))

    def test_undamped_input_reports_infinite_decay(self):
        T = np.linspace(0.0, 20e-3, 201)
        fit = fit_damped_sinusoid(synthetic(T, 0.4, 110.0, 0.3, 0.5, math.inf))
        assert math.isinf(fit.decay_time)

    def test_growing_envelope_reports_negative_decay(self):
        # 0.5 + 0.2 exp(50 T) cos(2 pi 110 T): the model rebuilt from the
        # reported parameters must reproduce the data
        T = np.linspace(0.0, 20e-3, 201)
        data = synthetic(T, 0.2, 110.0, 0.0, 0.5, -1.0 / 50.0)
        fit = fit_damped_sinusoid(data)
        assert fit.converged
        assert fit.decay_time == pytest.approx(-1.0 / 50.0, rel=1e-6)
        model = fit.offset + fit.amplitude * np.exp(-T / fit.decay_time) * np.cos(
            TWO_PI * fit.frequency * T + fit.phase
        )
        assert np.max(np.abs(model - data.p)) <= 1e-9

    def test_consistency_over_random_parameter_draws(self):
        # 100 in-family parameter sets: below Nyquist, at least 1.5 periods
        # sampled; every parameter must come back to 1e-6 relative
        rng = np.random.default_rng(2024)
        T = np.linspace(0.0, 20e-3, 201)
        for _ in range(100):
            frequency = rng.uniform(80.0, 4000.0)
            offset = rng.uniform(0.3, 0.7)
            amplitude = rng.uniform(0.05, 1.0) * min(offset, 1.0 - offset)
            rate = rng.uniform(0.0, 200.0)
            phase = rng.uniform(0.0, TWO_PI)
            p = offset + amplitude * np.exp(-rate * T) * np.cos(TWO_PI * frequency * T + phase)
            fit = fit_damped_sinusoid(FringeScan(T, p, np.zeros_like(T)))
            assert fit.converged
            assert fit.frequency == pytest.approx(frequency, rel=1e-6)
            assert fit.amplitude == pytest.approx(amplitude, rel=1e-6)
            assert fit.offset == pytest.approx(offset, rel=1e-6)
            fitted_rate = 0.0 if math.isinf(fit.decay_time) else 1.0 / fit.decay_time
            assert fitted_rate == pytest.approx(rate, rel=1e-6, abs=1e-6)
            dphi = (fit.phase - phase + math.pi) % TWO_PI - math.pi
            assert abs(dphi) <= 1e-6

    def test_robust_to_projective_readout_noise(self, write_key, readout_grid):
        # binomial noise at 5e4 atoms x 5 repeats: the recording-field
        # fringe frequency is recovered within 1% in at least 95% of trials
        ideal = scan(build_write_read(write_key, 0.0, scanned=True), readout_grid)
        model = NoiseModel()
        rng = np.random.default_rng(77)
        hits = 0
        for _ in range(200):
            means = np.empty_like(ideal.p)
            sds = np.empty_like(ideal.p)
            for i, p in enumerate(ideal.p):
                means[i], sds[i] = simulate_measurement(float(p), model, rng)
            fit = fit_damped_sinusoid(FringeScan(readout_grid, np.clip(means, 0, 1), sds))
            if fit.converged and abs(fit.frequency - 110.0) / 110.0 < 0.01:
                hits += 1
        assert hits >= 190

    def test_weighted_fit_uses_per_point_sd(self):
        # outliers with huge declared sd should barely move the fit
        T = np.linspace(0.0, 20e-3, 201)
        clean = synthetic(T, 0.4, 110.0, 0.3, 0.5, math.inf)
        p = clean.p.copy()
        sd = np.full_like(T, 1e-3)
        p[50] = 0.0
        p[150] = 1.0
        sd[50] = sd[150] = 1e3
        fit = fit_damped_sinusoid(FringeScan(T, p, sd))
        assert fit.frequency == pytest.approx(110.0, rel=1e-4)
        assert fit.phase == pytest.approx(0.3, abs=1e-3)


def _grid_seed(T, p, weights):
    """The frequency seed before the periodogram: the undamped-model SSR on
    512 frequencies over [0, Nyquist], then 65 frequencies one bin either
    side of the best.  Kept here as the oracle for the periodogram seed."""
    nyquist = 0.5 / float(np.min(np.diff(T)))
    freqs = np.linspace(0.0, nyquist, 512)
    best = float(freqs[int(np.argmin(analysis._grid_ssr(T, p, weights, freqs)))])
    bin_width = nyquist / 511
    fine = np.linspace(max(0.0, best - bin_width), best + bin_width, 65)
    return float(fine[int(np.argmin(analysis._grid_ssr(T, p, weights, fine)))])


def _reference_fit(sc):
    with mock.patch.object(analysis, "_coarse_frequency", _grid_seed):
        return fit_damped_sinusoid(sc)


def _with_final_ssr(fit_call, sc):
    """Run ``fit_call(sc)`` and also return the weighted SSR at the point
    where Gauss-Newton stopped (the reported form can drop the envelope)."""
    ssr = []
    gauss_newton = analysis._gauss_newton

    def spy(T, p, weights, params):
        out = gauss_newton(T, p, weights, params)
        r = (analysis._model(T, *out[0]) - p) * weights
        ssr.append(float(r @ r))
        return out

    with mock.patch.object(analysis, "_gauss_newton", spy):
        return fit_call(sc), ssr[0]


def _gate(x):
    return 10.0 * analysis.STEP_TOLERANCE * max(abs(x), 1.0)


class TestPeriodogramSeed:
    def test_fft_ssr_matches_direct_ssr(self):
        rng = np.random.default_rng(5)
        T = 0.003 + 1e-4 * np.arange(73)
        p = rng.uniform(0.0, 1.0, T.size)
        weights = rng.uniform(0.1, 10.0, T.size)
        size = 8 * T.size
        fft_ssr = analysis._periodogram_ssr(p, weights, size)
        direct = analysis._grid_ssr(T, p, weights, np.arange(fft_ssr.size) / (size * 1e-4))
        assert np.max(np.abs(fft_ssr - direct)) <= 1e-12 * np.sum(weights**2 * p**2)

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.integers(32, 301),
        step=st.floats(1e-5, 1e-3),
        start=st.floats(0.0, 1.0),
        cycles=st.floats(0.0, 1.0),
        offset=st.floats(0.3, 0.7),
        amplitude=st.floats(0.1, 0.9),
        rate=st.floats(0.0, 3.0),
        phase=st.floats(0.0, TWO_PI),
        noise=st.sampled_from([0.0, 1e-3, 1e-2, 0.1]),
        weighted=st.booleans(),
        spread=st.sampled_from([0.3, 1.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_matches_grid_seed_oracle(
        self, points, step, start, cycles, offset, amplitude, rate, phase, noise, weighted, spread,
        seed,
    ):
        # uniform-grid damped sinusoids from 2 periods up to 0.8 Nyquist,
        # starting within one span of T = 0, where the amplitude is defined
        rng = np.random.default_rng(seed)
        span = points * step
        start *= span
        T = start + step * np.arange(points)
        n_cycles = 2.0 + cycles * (0.4 * points - 2.0)
        amplitude *= min(offset, 1.0 - offset)
        p = offset + amplitude * np.exp(-rate * (T - start) / span) * np.cos(
            TWO_PI * n_cycles / span * T + phase
        )
        # per-point sd at most ``noise`` times the amplitude and spread over
        # up to three decades below it, as binomial readout gives near p = 0
        # and 1, so a few points can outweigh the rest
        sd = amplitude * max(noise, 1e-3) * 10.0 ** -rng.uniform(0.0, 2.0 * spread, points)
        if noise:
            p = np.clip(p + sd * rng.standard_normal(points), 0.0, 1.0)
        sc = FringeScan(T, p, sd if weighted else np.zeros(points))
        fit, ssr = _with_final_ssr(fit_damped_sinusoid, sc)
        ref, ref_ssr = _with_final_ssr(_reference_fit, sc)
        # the padded FFT grid is never coarser than the 512 frequencies, so a
        # fit may gain convergence where a narrow residual minimum fell
        # between the old grid points, but must not lose it
        assert fit.converged or not ref.converged
        if not ref.converged:
            return
        if ref.rms_residual <= 1e-9 * ref.residual_threshold:
            # an exact fit: Gauss-Newton converges quadratically onto it
            assert abs(fit.frequency - ref.frequency) <= _gate(ref.frequency)
            dphi = (fit.phase - ref.phase + math.pi) % TWO_PI - math.pi
            assert abs(dphi) <= _gate(ref.phase)
        else:
            # with a residual, Gauss-Newton stops where its objective is flat
            # to rounding, so where it stops moves by more than the gates
            # above.  The fit must reach as deep a minimum instead: stopping
            # points of one minimum differ by ~1e-9, other minima by far more
            assert ssr <= (1.0 + 1e-7) * ref_ssr

    def test_weighted_readout_scan_dominated_by_one_point(self, write_key, readout_grid):
        # in the 164th readout of this stream one point outweighs the next
        # by 3.4x and the fifth by 11x; there a plain weighted FFT peak
        # (no Lomb-Scargle normalisation) lands on the 330 Hz alias
        ideal = scan(build_write_read(write_key, 0.0, scanned=True), readout_grid)
        rng = np.random.default_rng(77)
        for _ in range(164):
            sc = measure_scan(ideal, NoiseModel(), rng)
        weights = np.sort(1.0 / sc.sd)
        assert weights[-1] > 3.0 * weights[-2] and weights[-1] > 10.0 * weights[-5]
        fit = fit_damped_sinusoid(sc)
        assert fit.converged
        assert fit.frequency == pytest.approx(110.0, rel=1e-3)

    def test_jittered_grid_takes_the_lomb_scargle_path(self):
        rng = np.random.default_rng(11)
        T = np.linspace(0.0, 20e-3, 201) + rng.uniform(-2e-5, 2e-5, 201)
        sc = synthetic(T, 0.4, 110.0, 0.7, 0.5, 30e-3)
        sizes = []
        direct = analysis._grid_ssr

        def spy(T, p, weights, freqs):
            sizes.append(freqs.size)
            return direct(T, p, weights, freqs)

        with mock.patch.object(analysis, "_grid_ssr", spy):
            fit = fit_damped_sinusoid(sc)
        assert sizes == [analysis.COARSE_GRID_SIZE, 65]
        assert fit.converged
        assert fit.frequency == pytest.approx(110.0, rel=1e-6)
        assert fit == _reference_fit(sc)


class TestFitDiagnostics:
    def test_step_tol(self):
        T = np.linspace(0.0, 20e-3, 201)
        fit = fit_damped_sinusoid(synthetic(T, 0.5, 110.0, 1.0, 0.5, 30e-3))
        assert (fit.converged, fit.reason) == (True, "step_tol")
        assert 1 <= fit.iterations < analysis.MAX_ITERATIONS

    def test_zero_variance(self):
        T = np.linspace(0.0, 20e-3, 60)
        fit = fit_damped_sinusoid(FringeScan(T, np.full_like(T, 0.5), np.zeros_like(T)))
        assert (fit.converged, fit.reason, fit.iterations) == (False, "zero_variance", 0)

    def test_residual(self):
        # weighted pure noise: the few points with small sd pin the fit, and
        # its unweighted rms ends above the spread of the data
        rng = np.random.default_rng(6)
        T = np.arange(16) * 1e-3
        fit = fit_damped_sinusoid(FringeScan(T, rng.uniform(0, 1, 16), rng.uniform(1e-4, 1, 16)))
        assert (fit.converged, fit.reason) == (False, "residual")
        assert fit.rms_residual > fit.residual_threshold

    def test_halving_exhausted(self):
        p = np.array([1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0], dtype=float)
        T = np.arange(p.size) * 1e-3
        fit = fit_damped_sinusoid(FringeScan(T, p, np.zeros_like(T)))
        assert (fit.converged, fit.reason) == (False, "halving_exhausted")
        assert 1 <= fit.iterations < analysis.MAX_ITERATIONS

    def test_max_iter(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_ITERATIONS", 2)
        T = np.linspace(0.0, 20e-3, 201)
        fit = fit_damped_sinusoid(synthetic(T, 0.5, 110.0, 1.0, 0.5, 30e-3))
        assert (fit.converged, fit.reason, fit.iterations) == (False, "max_iter", 2)

    @pytest.mark.parametrize(
        "converged, reason", [(True, "residual"), (False, "step_tol"), (False, "diverged")]
    )
    def test_reason_must_match_converged(self, converged, reason):
        with pytest.raises(ValueError):
            FitResult(0.5, 110.0, 0.0, 0.5, math.inf, 0.0, converged, 0.3, 3, reason)


class TestFringeVisibility:
    def test_full_cosine_fringe(self):
        # 65 points over one period place grid points exactly on the extrema
        T = np.linspace(0.0, 1.0 / 110.0, 65)
        p = np.cos(math.pi * 110.0 * T) ** 2
        assert fringe_visibility(FringeScan(T, p, np.zeros_like(T))) == pytest.approx(1.0)

    def test_flat_half(self):
        T = np.linspace(0.0, 1.0, 16)
        assert fringe_visibility(FringeScan(T, np.full_like(T, 0.5), np.zeros_like(T))) == 0.0

    def test_all_zero_maps_to_zero(self):
        T = np.linspace(0.0, 1.0, 16)
        assert fringe_visibility(FringeScan(T, np.zeros_like(T), np.zeros_like(T))) == 0.0

    def test_damped_fringe_value_from_direct_computation(self):
        T = np.linspace(0.0, 20e-3, 201)
        sc = synthetic(T, 0.5, 110.0, 0.0, 0.5, 20e-3)
        expected = (np.max(sc.p) - np.min(sc.p)) / (np.max(sc.p) + np.min(sc.p))
        got = fringe_visibility(sc)
        assert got == pytest.approx(expected, rel=1e-12)
        assert 1.0 / math.e < got <= 1.0


def _fit(phase, converged=True):
    return FitResult(
        amplitude=0.5,
        frequency=110.0,
        phase=phase % TWO_PI,
        offset=0.5,
        decay_time=math.inf,
        rms_residual=0.0,
        converged=converged,
        residual_threshold=0.3,
        iterations=5,
        reason="step_tol" if converged else "halving_exhausted",
    )


class TestPhaseSpread:
    def test_identical_phases_have_zero_spread(self):
        assert phase_spread([_fit(1.0), _fit(1.0), _fit(1.0)]) == 0.0

    def test_quarter_turn_cluster(self):
        assert phase_spread([_fit(0.0), _fit(math.pi / 2), _fit(math.pi)]) == pytest.approx(
            math.pi, abs=1e-12
        )

    def test_wraparound_cluster(self):
        spread = phase_spread([_fit(TWO_PI - 0.1), _fit(0.0), _fit(0.1)])
        assert spread == pytest.approx(0.2, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        phases = rng.uniform(0.0, 1.5, size=12)
        base = phase_spread([_fit(p) for p in phases])
        for shift in rng.uniform(0.0, TWO_PI, size=10):
            rotated = phase_spread([_fit(p + shift) for p in phases])
            assert rotated == pytest.approx(base, abs=1e-12)

    def test_non_converged_fits_rejected_with_indices(self):
        fits = [_fit(0.0), _fit(1.0, converged=False), _fit(2.0)]
        with pytest.raises(FitError, match=r"\[1\]"):
            phase_spread(fits)

    def test_needs_at_least_two_fits(self):
        with pytest.raises(FitError):
            phase_spread([_fit(0.0)])
