"""Tests for the damped-sinusoid fitter and the circular phase metrics."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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

#: A 16-point 0/1 pattern, as single-atom readouts of no fringe would give.
COIN = np.array([1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0], dtype=float)


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

    def test_late_scan_is_fitted_on_its_own_clock(self):
        # 32 points, two periods of 6,250 Hz, damped at 2/span and starting
        # 24 spans after T = 0: on absolute T the envelope is exp(48) times
        # the scan's, and the fit stopped at max_iter near 6,180 Hz
        step, points = 1e-5, 32
        span = (points - 1) * step
        T = 24 * span + step * np.arange(points)
        p = 0.5 + 0.25 * np.exp(-2.0 * (T - T[0]) / span) * np.cos(TWO_PI * 6250.0 * T + 0.7)
        fit = fit_damped_sinusoid(FringeScan(T, p, np.zeros(points)))
        assert fit.converged
        assert fit.frequency == pytest.approx(6250.0, rel=1e-9)
        assert fit.decay_time == pytest.approx(span / 2.0, rel=1e-9)
        # the amplitude is defined at T = 0: 0.25 * exp(48), about 1.75e20
        assert fit.amplitude == pytest.approx(0.25 * math.exp(48.0), rel=1e-6)
        model = fit.offset + fit.amplitude * np.exp(-T / fit.decay_time) * np.cos(
            TWO_PI * fit.frequency * T + fit.phase
        )
        np.testing.assert_allclose(model, p, rtol=0.0, atol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_very_late_damped_scan_keeps_a_finite_phase(self):
        # the scan above, 400 spans late: exp(800) overflows on the way back
        # to T = 0, so the amplitude reads inf, but the phase is carried
        # back apart from it
        step, points = 1e-5, 32
        span = (points - 1) * step
        T = 400 * span + step * np.arange(points)
        p = 0.5 + 0.25 * np.exp(-2.0 * (T - T[0]) / span) * np.cos(TWO_PI * 6250.0 * T + 0.7)
        fit = fit_damped_sinusoid(FringeScan(T, p, np.zeros(points)))
        assert fit.converged and fit.reason == "step_tol"
        assert fit.frequency == pytest.approx(6250.0, rel=1e-9)
        assert fit.amplitude == math.inf
        assert fit.phase == pytest.approx(0.7, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_very_late_growing_scan_converges_with_amplitude_0(self):
        # a growing envelope 400 spans late: exp(rate * T0) underflows on the
        # way back to T = 0, but the fringe is judged on the scan's own clock,
        # where it explains the data
        step, points = 1e-5, 32
        span = (points - 1) * step
        T = 400 * span + step * np.arange(points)
        p = 0.5 + 0.05 * np.exp(2.0 * (T - T[0]) / span) * np.cos(TWO_PI * 6250.0 * T + 0.7)
        fit = fit_damped_sinusoid(FringeScan(T, p, np.zeros(points)))
        assert fit.converged and fit.reason == "step_tol"
        assert fit.amplitude == 0.0
        assert fit.frequency == pytest.approx(6250.0, rel=1e-9)
        assert fit.decay_time == pytest.approx(-span / 2.0, rel=1e-9)
        assert fit.phase == pytest.approx(0.7, abs=1e-9)
        assert fit.rms_residual <= 1e-12

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

    @pytest.mark.parametrize("sd", [[1e-160], [5e-324], [1e200], [1e-3, 1e-300]])
    def test_weighted_fit_with_extreme_sd(self, sd):
        # 1/sd whose square over- or underflows: the fit returned NaN,
        # "singular after 1 iterations", and numpy warned
        T = np.linspace(0.0, 20e-3, 201)
        clean = synthetic(T, 0.4, 110.0, 0.3, 0.5, math.inf)
        fit = fit_damped_sinusoid(FringeScan(T, clean.p, np.resize(sd, T.size)))
        assert fit.converged
        assert fit.frequency == pytest.approx(110.0, rel=1e-6)
        assert fit.phase == pytest.approx(0.3, abs=1e-6)

    def test_a_power_of_two_sd_scale_keeps_every_bit(self):
        # the weights are scaled exactly, so sds scaled by 2**k fit to the
        # same bits while the total weight stays at least 1
        rng = np.random.default_rng(11)
        T = np.linspace(0.0, 20e-3, 201)
        sd = 1e-3 * 10.0 ** -rng.uniform(0.0, 1.0, T.size)
        p = synthetic(T, 0.4, 110.0, 0.3, 0.5, 0.05).p + sd * rng.standard_normal(T.size)
        fits = [repr(fit_damped_sinusoid(FringeScan(T, p, np.ldexp(sd, k))))
                for k in (0, -1000, -100, 10)]
        assert fits == [fits[0]] * 4


def _direct_ssr(T, p, weights, freqs):
    """Weighted SSR of the undamped linear model ``offset + a*cos + b*sin``
    of one row at each trial frequency, with the cos/sin sums evaluated
    directly on ``T`` and each 3x3 normal-equation system solved on its
    own.  Kept here as the oracle for the fitter's SSR evaluations."""
    arg = TWO_PI * np.outer(freqs, T)
    cos_t, sin_t = np.cos(arg), np.sin(arg)
    w2 = weights * weights
    gram = np.empty((freqs.size, 3, 3))
    rhs = np.empty((freqs.size, 3))
    gram[:, 0, 0] = np.sum(w2)
    gram[:, 0, 1] = gram[:, 1, 0] = cos_t @ w2
    gram[:, 0, 2] = gram[:, 2, 0] = sin_t @ w2
    gram[:, 1, 1] = (cos_t * cos_t) @ w2
    gram[:, 1, 2] = gram[:, 2, 1] = (cos_t * sin_t) @ w2
    gram[:, 2, 2] = (sin_t * sin_t) @ w2
    rhs[:, 0] = np.sum(w2 * p)
    rhs[:, 1] = cos_t @ (w2 * p)
    rhs[:, 2] = sin_t @ (w2 * p)
    # the fitter's ridge on the cos/sin block, which keeps f = 0 and
    # f = Nyquist solvable; the offset is solved exactly
    gram[:, 1:, 1:] += (1e-9 * max(float(np.sum(w2)), 1.0)) * np.eye(2)
    coefs = np.linalg.solve(gram, rhs[..., None])[..., 0]
    return np.sum(w2 * p * p) - np.einsum("ki,ki->k", coefs, rhs)


def _grid_seed(T, p, weights):
    """The frequency seed before the periodogram: the undamped-model SSR on
    512 frequencies over [0, Nyquist], then 65 frequencies one bin either
    side of the best, clipped at 0, for each row.  Kept here as the oracle
    for the periodogram seed."""
    nyquist = 0.5 / float(np.min(np.diff(T)))
    freqs = np.linspace(0.0, nyquist, 512)
    bin_width = nyquist / 511
    seeds = []
    for row, w in zip(p, weights):
        best = freqs[np.argmin(_direct_ssr(T, row, w, freqs))]
        fine = np.linspace(max(0.0, best - bin_width), best + bin_width, 65)
        seeds.append(fine[np.argmin(_direct_ssr(T, row, w, fine))])
    return np.array(seeds)


def _expression_normal_solve(w2, p, c, s, cc, cs, ss, cp, sp):
    """``analysis._normal_solve`` as plain expressions, every product in a
    fresh array and no argument overwritten: the oracle for its in-place
    form."""
    total = w2.sum(axis=-1)[:, None]
    wp = w2 * p
    P = wp.sum(axis=-1)[:, None]
    Q = (wp * p).sum(axis=-1)[:, None]
    ridge = 1e-9 * np.maximum(total, 1.0)
    u, v = c / total, s / total
    a11, a12, a22 = cc + ridge - u * c, cs - u * s, ss + ridge - v * s
    b1, b2 = cp - u * P, sp - v * P
    det = a11 * a22 - a12 * a12
    a, b = (a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det
    return P, total, a, b, Q - P * P / total - (a * b1 + b * b2)


def _expression_spectral_ssr(w2, p, z1, z2, zp):
    """``analysis._spectral_ssr`` with each sum negated and scaled into a
    fresh array and nothing overwritten: the oracle for reading the sums
    in place."""
    total = w2.sum(axis=-1)[:, None]
    return _expression_normal_solve(
        w2, p, z1.real, -z1.imag, 0.5 * (total + z2.real), -0.5 * z2.imag,
        0.5 * (total - z2.real), zp.real, -zp.imag,
    )[-1]


def _expression_periodogram_ssr(p, weights, size):
    """``analysis._periodogram_ssr`` from the same FFT, with the doubled
    bins gathered by fancy indexing and the SSR in expression form."""
    w2 = weights * weights
    z1, zp = np.fft.rfft(np.stack([w2, w2 * p]), size)
    doubled = 2 * np.arange(z1.shape[-1])
    z2 = z1[:, np.minimum(doubled, size - doubled)]
    z2[:, size // 4 + 1:].imag *= -1.0
    return _expression_spectral_ssr(w2, p, z1, z2, zp)


def _expression_coarse_frequency(T, p, weights):
    """``analysis._coarse_frequency`` with each row's vertex formed on
    ``(K,)`` arrays: the oracle for its float form."""
    dt = np.diff(T)
    step = float(dt.min())
    if (np.abs(dt - step) <= analysis.UNIFORM_TOLERANCE * step).all():
        size = analysis._fast_length(
            max(analysis.PAD_FACTOR * T.size, 2 * analysis.COARSE_GRID_SIZE))
        scale = size * step
        ssr = analysis._periodogram_ssr(p, weights, size)
    else:
        scale = 2 * (analysis.COARSE_GRID_SIZE - 1) * step
        ssr = analysis._grid_ssr(T, p, weights, 1.0 / scale, analysis.COARSE_GRID_SIZE)
    rows, k, last = np.arange(len(p)), ssr.argmin(axis=-1), ssr.shape[-1] - 1
    left, mid = ssr[rows, np.abs(k - 1)], ssr[rows, k]
    right = ssr[rows, last - np.abs(last - k - 1)]
    curv = left - 2.0 * mid + right
    shift = np.divide(left - right, 2.0 * curv, out=np.zeros_like(mid), where=curv > 0.0)
    return (k + shift.clip(-0.5, 0.5)) / scale


def _expression_rate_seeds(T, p, weights, freq):
    """``analysis._rate_seeds`` with each row's start picked and formed on
    ``(K,)`` arrays: the oracle for its float form."""
    rates = np.array(analysis._RATE_SEEDS) / (T[-1] - T[0])
    env = np.exp(-rates[:, None] * T)
    arg = TWO_PI * freq[:, None] * T
    cos_t, sin_t = np.cos(arg), np.sin(arg)
    w2 = weights * weights
    terms = np.empty((len(p), 7, T.size))  # w2 * (cos, sin, p cos, p sin, cos^2, cos sin, sin^2)
    wc, ws = np.multiply(w2, cos_t, out=terms[:, 0]), np.multiply(w2, sin_t, out=terms[:, 1])
    np.multiply(terms[:, :2], p[:, None], out=terms[:, 2:4])
    np.multiply(wc, cos_t, out=terms[:, 4])
    np.multiply(wc, sin_t, out=terms[:, 5])
    np.multiply(ws, sin_t, out=terms[:, 6])
    c, s, cp, sp = (terms[:, :4] @ env.T).transpose(1, 0, 2)
    cc, cs, ss = (terms[:, 4:] @ (env * env).T).transpose(1, 0, 2)
    P, total, a, b, ssr = analysis._normal_solve(w2, p, c.copy(), s.copy(), cc, cs, ss, cp, sp)
    rows, pick = np.arange(len(p)), ssr.argmin(axis=-1)
    a, b = a[rows, pick], b[rows, pick]
    offset = (P[:, 0] - c[rows, pick] * a - s[rows, pick] * b) / total[:, 0]
    return np.stack([offset, a, b, rates[pick], freq], axis=-1), (env[pick], cos_t, sin_t)


def _expression_gauss_newton(T, p, weights, params, trig=None):
    """``analysis._gauss_newton`` with every row's stop decided on ``(K,)``
    masks and index arrays: the oracle for its float form."""
    params = np.array(params, dtype=float)
    iterations = np.full(len(params), analysis.MAX_ITERATIONS)
    reasons = np.full(len(params), "max_iter", dtype=object)
    rows, x = np.arange(len(params)), params.copy()
    evaluated = analysis._evaluate(T, p, weights, x, trig)
    neg_T, two_pi_T, rounding = -T, TWO_PI * T, T.size * np.finfo(float).eps
    columns = np.empty((5, *p.shape))  # d(resid)/d(offset, a, b, rate, freq) of the live rows

    def pick(a):  # the pending rows of ``a``: ``take`` is cheaper than fancy indexing
        return a if pending.size == len(x) else a.take(pending, 0)

    for iteration in range(1, analysis.MAX_ITERATIONS + 1):
        if not rows.size:
            break
        env, cos_t, sin_t, osc, resid, ssr = evaluated or analysis._evaluate(T, p, weights, x)
        jac = columns[:, :len(x)]
        ew = np.multiply(env, weights, out=env)
        jac[0] = weights
        np.multiply(ew, cos_t, out=jac[1])
        np.multiply(ew, sin_t, out=jac[2])
        np.multiply(neg_T, ew, out=jac[3])
        jac[3] *= osc
        # cos, sin and env are spent: column 4 is formed over them
        np.subtract(np.multiply(x[:, 2:3], cos_t, out=cos_t),
                    np.multiply(x[:, 1:2], sin_t, out=sin_t), out=jac[4])
        jac[4] *= np.multiply(two_pi_T, ew, out=ew)
        # a row whose residual is not finite has no least-squares step
        singular = ~np.isfinite(ssr)
        if singular.any():
            jac[:, singular] = 0.0
            resid[singular] = 0.0
        step, reduction = analysis._normal_steps(jac, resid)
        singular |= np.isnan(reduction)
        rel_step = (np.abs(step) / np.maximum(np.abs(x), 1.0)).max(axis=1)
        converged = ~singular & (rel_step < analysis.STEP_TOLERANCE)
        x[converged] += step[converged]

        # a step scaled by s promises s * (2 - s) times the full one's
        # reduction; ``pick`` gathers the pending rows, unless that is all
        pending = (~(singular | converged)).nonzero()[0]
        flat, floor = np.zeros(len(x), dtype=bool), rounding * ssr
        shrink, evaluated = 1.0, None
        while pending.size and shrink > 2.0**-30:  # at most 30 trials
            level = shrink * (2.0 - shrink) * pick(reduction) <= pick(floor)
            flat[pending[level]] = True
            pending = pending[~level]
            if not pending.size:
                break
            trial = pick(x) + shrink * pick(step)
            # a trial may overflow: an SSR that is not finite fails the test below
            with np.errstate(over="ignore", invalid="ignore"):
                result = analysis._evaluate(T, pick(p), pick(weights), trial)
            ok = result[5] <= pick(ssr)
            x[pending[ok]] = trial[ok]
            # the next iteration reuses it when every row took its first trial
            evaluated = result if shrink == 1.0 and ok.all() else None
            pending, shrink = pending[~ok], 0.5 * shrink
        done = singular | converged | flat
        done[pending] = True
        if done.any():
            stopped = rows[done]
            params[stopped] = x[done]
            iterations[stopped] = iteration
            reasons[rows[pending]] = "halving_exhausted"
            reasons[rows[converged]] = "step_tol"
            reasons[rows[flat]] = "ssr_flat"
            reasons[rows[singular]] = "singular"
            keep = ~done
            rows, x, p, weights = rows[keep], x[keep], p[keep], weights[keep]
    params[rows] = x
    return params, iterations, reasons


def _reference_fit(sc):
    with mock.patch.object(analysis, "_coarse_frequency", _grid_seed):
        return fit_damped_sinusoid(sc)


def _with_final_ssr(fit_call, sc):
    """Run ``fit_call(sc)`` and also return the weighted SSR at the point
    where Gauss-Newton stopped (the reported form can drop the envelope)."""
    ssr = []
    gauss_newton = analysis._gauss_newton

    def spy(T, p, weights, params, *trig):
        out = gauss_newton(T, p, weights, params, *trig)
        r = analysis._evaluate(T, p, weights, out[0])[4]
        ssr.extend(np.sum(r * r, axis=-1))
        return out

    with mock.patch.object(analysis, "_gauss_newton", spy):
        return fit_call(sc), ssr[0]


def _gate(x):
    return 10.0 * analysis.STEP_TOLERANCE * max(abs(x), 1.0)


class TestPeriodogramSeed:
    def test_fft_ssr_matches_direct_ssr(self):
        # a batch of weighted and unit-weight rows, at padded sizes of each
        # residue mod 4 (where the folded half spectrum starts): each row
        # matches the direct sums and, bit for bit, its own one-row call
        rng = np.random.default_rng(5)
        T = 0.003 + 1e-4 * np.arange(73)
        p = rng.uniform(0.0, 1.0, (4, T.size))
        weights = np.vstack([rng.uniform(0.1, 10.0, (2, T.size)), np.ones((2, T.size))])
        for size in range(8 * T.size, 8 * T.size + 4):
            fft_ssr = analysis._periodogram_ssr(p, weights, size)
            assert fft_ssr.shape == (4, size // 2 + 1)
            freqs = np.arange(size // 2 + 1) / (size * 1e-4)
            for k in range(4):
                direct = _direct_ssr(T, p[k], weights[k], freqs)
                scale = np.sum(weights[k] ** 2 * p[k] ** 2)
                assert np.max(np.abs(fft_ssr[k] - direct)) <= 1e-12 * scale
                alone = analysis._periodogram_ssr(p[k:k + 1], weights[k:k + 1], size)[0]
                assert alone.tobytes() == fft_ssr[k].tobytes()

    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_in_place_periodogram_equals_its_expression_form(self, rows):
        # weighted and unit-weight rows at padded sizes of each residue mod 4,
        # so the folded bins are included: equal, not merely close
        rng = np.random.default_rng(rows)
        p = rng.uniform(0.0, 1.0, (rows, 201))
        weights = rng.uniform(0.1, 10.0, (rows, 201))
        weights[rows // 2:] = 1.0
        for size in (1600, 1601, 1602, 1603, 1620, 1625):
            expected = _expression_periodogram_ssr(p, weights, size)
            assert np.isfinite(expected).all()
            assert np.array_equal(analysis._periodogram_ssr(p, weights, size), expected)

    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_in_place_sums_equal_their_expression_form(self, rows):
        # _spectral_ssr on the sums either seed path hands it (the doubled
        # sums of the jittered grid are strided out of the same product as
        # the single ones) and _normal_solve on the rate seeds' sums
        rng = np.random.default_rng(10 + rows)
        T = 1e-4 * np.arange(157) + rng.uniform(-2e-5, 2e-5, 157)
        p = rng.uniform(0.0, 1.0, (rows, T.size))
        weights = rng.uniform(0.1, 10.0, (rows, T.size))
        weights[rows // 2:] = 1.0
        seen = []
        spectral_ssr, normal_solve = analysis._spectral_ssr, analysis._normal_solve

        def spectral_spy(w2, p, *sums):
            expected = _expression_spectral_ssr(w2, p, *(z.copy() for z in sums))
            out = spectral_ssr(w2, p, *sums)
            seen.append(np.array_equal(out, expected))
            return out

        def solve_spy(w2, p, *sums):
            expected = _expression_normal_solve(w2, p, *(z.copy() for z in sums))
            out = normal_solve(w2, p, *sums)
            seen.extend(np.array_equal(a, b) for a, b in zip(out, expected))
            return out

        with mock.patch.object(analysis, "_spectral_ssr", spectral_spy):
            analysis._grid_ssr(T, p, weights, 10.0, analysis.COARSE_GRID_SIZE)
            analysis._periodogram_ssr(p, weights, 1603)
        with mock.patch.object(analysis, "_normal_solve", solve_spy):
            analysis._rate_seeds(T, p, weights, rng.uniform(0.0, 5000.0, rows))
        assert seen == [True] * 7

    @pytest.mark.parametrize("count", [65, analysis.COARSE_GRID_SIZE])
    def test_batched_grid_ssr_matches_direct_ssr_on_a_jittered_grid(self, count):
        # three rows, weighted and not
        rng = np.random.default_rng(8)
        T = 0.002 + 1e-4 * np.arange(157) + rng.uniform(-2e-5, 2e-5, 157)
        p = rng.uniform(0.0, 1.0, (3, T.size))
        weights = np.vstack([rng.uniform(0.1, 10.0, (2, T.size)), np.ones((1, T.size))])
        step = 5000.0 / count
        batched = analysis._grid_ssr(T, p, weights, step, count)
        assert batched.shape == (3, count)
        for k in range(3):
            direct = _direct_ssr(T, p[k], weights[k], step * np.arange(count))
            scale = np.sum(weights[k] ** 2 * p[k] ** 2)
            assert np.max(np.abs(batched[k] - direct)) <= 1e-12 * scale

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
        jitter=st.sampled_from([0.0, 0.2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_matches_grid_seed_oracle(
        self, points, step, start, cycles, offset, amplitude, rate, phase, noise, weighted, spread,
        jitter, seed,
    ):
        # damped sinusoids from 2 periods up to 0.8 Nyquist, starting within
        # one span of T = 0, where the amplitude is defined, on a uniform grid
        # or one with each point moved by up to ``jitter`` steps
        rng = np.random.default_rng(seed)
        span = points * step
        start *= span
        T = start + step * np.arange(points)
        if jitter:
            T = T + jitter * step * rng.uniform(-1.0, 1.0, points)
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
        # the seed grid is never coarser than the oracle's 512 frequencies,
        # so a fit may gain convergence where a narrow residual minimum fell
        # between the oracle's grid points, but must not lose it
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

        def spy(T, p, weights, step, count):
            sizes.append(count)
            return direct(T, p, weights, step, count)

        with mock.patch.object(analysis, "_grid_ssr", spy):
            fit = fit_damped_sinusoid(sc)
        assert sizes == [analysis.COARSE_GRID_SIZE]
        assert fit.converged
        assert fit.frequency == pytest.approx(110.0, rel=1e-6)
        ref = _reference_fit(sc)
        assert (fit.reason, ref.reason) == ("step_tol", "step_tol")
        for name in ("amplitude", "frequency", "phase", "offset", "decay_time"):
            assert abs(getattr(fit, name) - getattr(ref, name)) <= _gate(getattr(ref, name))

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.integers(16, 301),
        step=st.floats(1e-5, 1e-3),
        start=st.floats(0.0, 1.0),
        cycles=st.floats(0.0, 1.0),
        amplitude=st.floats(0.1, 0.4),
        rate=st.floats(0.0, 3.0),
        phase=st.floats(0.0, TWO_PI),
        noise=st.sampled_from([0.0, 1e-3, 1e-2, 0.1]),
        weighted=st.booleans(),
        jitter=st.sampled_from([0.0, 0.2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_seed_is_within_half_a_bin_of_the_ssr_minimum(
        self, points, step, start, cycles, amplitude, rate, phase, noise, weighted, jitter, seed
    ):
        # the oracle: the direct SSR at every bin picks the peak, and its
        # least value on 129 frequencies one bin either side of that peak is
        # the minimum the vertex must land within half a bin of.  The bins
        # are the padded FFT's on a uniform grid and the COARSE_GRID_SIZE
        # grid frequencies on one whose points move by up to ``jitter``
        # steps.  Fringes run from 2 periods to 0.8 Nyquist: at 0 and
        # Nyquist the sin column vanishes, so the SSR there is that of a
        # smaller model and jumps above its limit, and next to those bins
        # the vertex may sit up to 1.5 bins from the SSR's least value
        rng = np.random.default_rng(seed)
        span = points * step
        T = start * span + step * np.arange(points)
        if jitter:
            T = T + jitter * step * rng.uniform(-1.0, 1.0, points)
        n_cycles = 2.0 + cycles * (0.4 * points - 2.0)
        p = 0.5 + amplitude * np.exp(-rate * (T - T[0]) / span) * np.cos(
            TWO_PI * n_cycles / span * T + phase
        )
        sd = amplitude * max(noise, 1e-3) * 10.0 ** -rng.uniform(0.0, 1.0, points)
        if noise:
            p = np.clip(p + sd * rng.standard_normal(points), 0.0, 1.0)
        weights = 1.0 / sd if weighted else np.ones(points)
        seed_frequency = analysis._coarse_frequency(T, p[None], weights[None])[0]

        size = analysis._fast_length(
            max(analysis.PAD_FACTOR * points, 2 * analysis.COARSE_GRID_SIZE))
        if jitter:
            size = 2 * (analysis.COARSE_GRID_SIZE - 1)
        bin_width = 1.0 / (size * float(np.min(np.diff(T))))
        bins = bin_width * np.arange(size // 2 + 1)
        peak = bins[np.argmin(_direct_ssr(T, p, weights, bins))]
        dense = np.linspace(max(peak - bin_width, 0.0), min(peak + bin_width, bins[-1]), 129)
        minimum = dense[np.argmin(_direct_ssr(T, p, weights, dense))]
        assert abs(seed_frequency - minimum) <= 0.5 * bin_width

    @pytest.mark.parametrize("end", ["zero", "nyquist"])
    def test_a_minimum_at_an_end_bin_seeds_that_end_exactly(self, end):
        # the SSR is even about 0 and about Nyquist, so the mirrored
        # neighbours are equal and the vertex stays on the end bin; an SSR
        # rising steeply on one side only would pull a vertex off it
        T = np.arange(201) / 8192.0  # a binary step: Nyquist is exactly 4096 Hz
        sizes = []

        def steep(p, weights, size):
            sizes.append(size)
            last = size // 2
            rise = np.arange(last + 1.0) if end == "zero" else last - np.arange(last + 1.0)
            return (1.0 + rise**2 + rise**3)[None]

        with mock.patch.object(analysis, "_periodogram_ssr", steep):
            seed = analysis._coarse_frequency(T, np.full((1, T.size), 0.5), np.ones((1, T.size)))
        assert seed.tolist() == [0.0 if end == "zero" else 4096.0]
        assert sizes == [1600]

    @settings(max_examples=30, deadline=None)
    @given(extra=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_the_vertex_and_the_rate_pick_equal_their_array_forms(self, extra, seed):
        # chosen SSR rows and random ones, shuffled into one batch: a least
        # bin at 0 and at the last bin, a curvature of 0 (a constant row), a
        # shift of half a bin (a plateau), a tie between two minima, rows with
        # inf beside or at their least bin and a row whose argmin is a NaN;
        # the rate seeds start from these vertices, with a constant data row
        # among their rows, whose SSR ties between rates
        rng = np.random.default_rng(seed)
        T = np.arange(201) / 8192.0  # a binary step: Nyquist is exactly 4096 Hz
        rise = np.arange(801.0)
        plateau, tie, dip, one_sided, gap = (np.full(801, 2.0) for _ in range(5))
        plateau[299:302] = 1.0
        tie[199:202], tie[599:602] = (1.5, 0.5, 1.0), (0.7, 0.5, 0.6)
        dip[400] = one_sided[400] = 1.0
        dip[[399, 401]] = one_sided[399] = math.inf
        gap[123] = math.nan
        ssr = np.vstack([
            1.0 + rise**2 + rise**3, (1.0 + rise**2 + rise**3)[::-1], np.ones(801), plateau,
            tie, dip, one_sided, np.full(801, math.inf), gap, rng.uniform(0.5, 1.0, (extra, 801)),
        ])
        # a random row's least bin is one of the first few, where the seed
        # keeps the last bits of its shift
        ssr[-extra or len(ssr):, 1:4] *= rng.uniform(0.0, 1.0, (extra, 3))
        ssr = ssr[rng.permutation(len(ssr))]
        P, SD = (np.array(a) for a in zip(*(_mixed_row(kind, T, rng)
                                           for kind in rng.choice(_KINDS, len(ssr)))))
        P[0] = 0.5
        weights, weighted = np.ones_like(P), (SD > 0.0).all(axis=-1)
        weights[weighted] = 1.0 / SD[weighted]

        with mock.patch.object(analysis, "_periodogram_ssr", lambda p, w, size: ssr.copy()):
            seeds = analysis._coarse_frequency(T, P, weights)
            with np.errstate(invalid="ignore"):  # inf - inf in the vertex of an inf row
                expected = _expression_coarse_frequency(T, P, weights)
        assert repr(seeds.tolist()) == repr(expected.tolist())
        assert np.isnan(seeds).any() and (seeds == 0.0).any() and (seeds == 4096.0).any()
        starts, trig = analysis._rate_seeds(T, P, weights, seeds)
        expected_starts, expected_trig = _expression_rate_seeds(T, P, weights, seeds)
        assert starts.tobytes() == expected_starts.tobytes()
        assert [a.tobytes() for a in trig] == [a.tobytes() for a in expected_trig]

    def test_the_padded_length_is_the_nearest_fast_length(self):
        # 201 points pad to 1,600 = 2^6 * 5^2, not 8 * 201 = 1,608 = 2^3 * 3 * 67;
        # every target maps to the 2*3*5-smooth length nearest it, the longer
        # on a tie, which is never below a smooth target such as 1,024
        def smooth(n):
            for q in (2, 3, 5):
                while n % q == 0:
                    n //= q
            return n == 1

        lengths = [n for n in range(1, 4100) if smooth(n)]
        for target in range(1, 2049):
            best = min(lengths, key=lambda n: (abs(n - target), -n))
            assert analysis._fast_length(target) == best
        assert analysis._fast_length(8 * 201) == 1600
        assert analysis._fast_length(2 * analysis.COARSE_GRID_SIZE) == 1024

    @pytest.mark.parametrize("points, fraction", [(16, 0.99), (16, 0.97), (32, 0.97)])
    def test_a_fringe_just_below_nyquist_converges(self, points, fraction):
        # the SSR jumps up at the Nyquist bin, so the vertex next to it
        # stays off it; the fine scan seeded within 1/32 bin of Nyquist,
        # where the sin column fades, and these fits ran out of iterations
        T = 1e-4 * np.arange(points)
        fit = fit_damped_sinusoid(synthetic(T, 0.25, fraction * 5000.0, 0.0, 0.5, points * 1e-4))
        assert fit.converged
        assert fit.frequency == pytest.approx(fraction * 5000.0, rel=1e-9)


def _weighted_noisy_fringe():
    """16 points of a 110 Hz fringe with readout noise of sd 0.001 to 0.01."""
    T = np.arange(16) * 1e-3
    rng = np.random.default_rng(0)
    sd = 1e-2 * rng.uniform(0.1, 1.0, 16)
    p = 0.5 + 0.3 * np.cos(TWO_PI * 110.0 * T + 0.4) + sd * rng.standard_normal(16)
    return FringeScan(T, p, sd)


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

    @pytest.mark.parametrize("level", [0.1, 0.3, 0.7, 1.0 / 3.0])
    def test_constant_with_an_inexact_mean_is_zero_variance(self, level):
        # np.std of 106 copies of 0.1 is 1.4e-17, not 0; fitted, the
        # constant was split between offset and a frequency-0 amplitude
        T = 1e-4 * np.arange(106)
        p = np.full(106, level)
        assert np.std(p) > 0.0
        fit = fit_damped_sinusoid(FringeScan(T, p, np.zeros_like(T)))
        assert (fit.converged, fit.reason, fit.iterations) == (False, "zero_variance", 0)
        assert (fit.amplitude, fit.offset) == (0.0, level)

    def test_a_fringe_above_rounding_is_fitted(self):
        # a relative spread of 4e-4 is far above rounding and is a fringe
        T = np.linspace(0.0, 20e-3, 201)
        fit = fit_damped_sinusoid(synthetic(T, 1e-4, 110.0, 1.0, 0.5, math.inf))
        assert fit.converged
        assert fit.frequency == pytest.approx(110.0, rel=1e-6)

    def test_residual(self):
        # weighted pure noise: the few points with small sd pin the fit, and
        # its unweighted rms ends above the spread of the data
        rng = np.random.default_rng(6)
        T = np.arange(16) * 1e-3
        fit = fit_damped_sinusoid(FringeScan(T, rng.uniform(0, 1, 16), rng.uniform(1e-4, 1, 16)))
        assert (fit.converged, fit.reason) == (False, "residual")
        assert fit.rms_residual > fit.residual_threshold

    def test_halving_exhausted(self):
        # started exactly at Nyquist, the sin and frequency columns of the
        # Jacobian are rounding; the normal equations solve them as they are,
        # so the first step moves b by ~3e13 and the frequency by ~4e15 Hz,
        # promises a real reduction, and no halving of it lowers the SSR:
        # the fit stops where it started
        p = COIN[None]
        T = np.arange(COIN.size) * 1e-3
        start = np.array([[0.5, 0.5, 0.0, 0.0, 500.0]])
        params, iterations, reasons = analysis._gauss_newton(T, p, np.ones_like(p), start)
        assert (list(reasons), list(iterations)) == (["halving_exhausted"], [1])
        assert np.array_equal(params, start)

    def test_ssr_flat(self):
        # weighted noise: the minimum is flat to rounding before any full
        # step falls below the tolerance; the fit stops there, converged
        fit = fit_damped_sinusoid(_weighted_noisy_fringe())
        assert (fit.converged, fit.reason, fit.iterations) == (True, "ssr_flat", 4)
        assert fit.frequency == pytest.approx(110.0, rel=1e-2)

    def test_max_iter(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_ITERATIONS", 2)
        T = np.linspace(0.0, 20e-3, 201)
        fit = fit_damped_sinusoid(synthetic(T, 0.5, 110.0, 1.0, 0.5, 30e-3))
        assert (fit.converged, fit.reason, fit.iterations) == (False, "max_iter", 2)

    @pytest.mark.parametrize(
        "converged, reason",
        [(True, "residual"), (False, "step_tol"), (False, "ssr_flat"), (False, "diverged")],
    )
    def test_reason_must_match_converged(self, converged, reason):
        with pytest.raises(ValueError):
            FitResult(0.5, 110.0, 0.0, 0.5, math.inf, 0.0, converged, 0.3, 3, reason)

    @pytest.mark.parametrize("amplitude, rms_residual, field", [
        (-1e-300, 0.0, "amplitude"), (0.5, -1e-300, "rms_residual"),
    ])
    def test_a_negative_amplitude_or_residual_is_refused(self, amplitude, rms_residual, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0"):
            FitResult(amplitude, 110.0, 0.0, 0.5, math.inf, rms_residual, True, 0.3, 3, "step_tol")


def _relative_full_step(T, p, weights, x):
    """The relative size ``max |step| / max(|x|, 1)`` of the full
    Gauss-Newton step from each row of ``x``, solved here by
    ``numpy.linalg.lstsq`` on a Jacobian built from the model itself."""
    sizes = []
    for row, w, (offset, a, b, rate, freq) in zip(p, weights, x):
        env = np.exp(-rate * T)
        cos_t, sin_t = np.cos(TWO_PI * freq * T), np.sin(TWO_PI * freq * T)
        osc = a * cos_t + b * sin_t
        jac = w[:, None] * np.stack([
            np.ones_like(T), env * cos_t, env * sin_t, -T * env * osc,
            TWO_PI * T * env * (b * cos_t - a * sin_t),
        ], axis=1)
        step = np.linalg.lstsq(jac, -(offset + env * osc - row) * w, rcond=None)[0]
        sizes.append(np.max(np.abs(step) / np.maximum(np.abs([offset, a, b, rate, freq]), 1.0)))
    return np.array(sizes)


class TestStopRule:
    @settings(max_examples=60, deadline=None)
    @given(
        points=st.integers(16, 201),
        cycles=st.floats(0.0, 1.0),
        amplitude=st.floats(0.05, 0.4),
        rate=st.floats(0.0, 3.0),
        phase=st.floats(0.0, TWO_PI),
        noise=st.sampled_from([1e-3, 1e-2, 0.1]),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # a trial step of this draw reaches rate -2.7e6 /s, where exp(-rate*T) overflows
    @example(points=16, cycles=0.0, amplitude=0.25, rate=3.0, phase=0.0, noise=1e-3,
             weighted=True, seed=806365213)
    def test_step_tol_ends_on_a_full_step_below_the_tolerance(
        self, points, cycles, amplitude, rate, phase, noise, weighted, seed
    ):
        # noisy fringes from 2 periods to 0.4 points; a fit may stop on
        # step_tol only where the next full step is below STEP_TOLERANCE, not
        # where a halved step was, and the minimum flat to rounding gets
        # its own reason
        rng = np.random.default_rng(seed)
        T = 1e-4 * np.arange(points)
        span = points * 1e-4
        n_cycles = 2.0 + cycles * (0.4 * points - 2.0)
        p = 0.5 + amplitude * np.exp(-rate * T / span) * np.cos(
            TWO_PI * n_cycles / span * T + phase)
        sd = amplitude * noise * 10.0 ** -rng.uniform(0.0, 1.0, points)
        p = np.clip(p + sd * rng.standard_normal(points), 0.0, 1.0)[None]
        weights = (1.0 / sd if weighted else np.ones(points))[None]
        seeds, trig = analysis._rate_seeds(T, p, weights, analysis._coarse_frequency(T, p, weights))
        params, _, reasons = analysis._gauss_newton(T, p, weights, seeds, trig)
        if reasons[0] == "step_tol":
            assert _relative_full_step(T, p, weights, params)[0] < analysis.STEP_TOLERANCE

    def test_a_fringe_on_the_f_0_ridge_is_not_converged_elsewhere(self):
        # 3e-6 of fringe on 0.5: a ridge on the offset biased every
        # periodogram SSR by more than the fringe's own drop and seeded it at
        # f = 0; with the offset solved exactly it is fitted at 110 Hz
        T = np.linspace(0.0, 20e-3, 201)
        scan_data = synthetic(T, 3e-6, 110.0, 1.0, 0.5, math.inf)
        fit = fit_damped_sinusoid(scan_data)
        assert fit.converged
        assert fit.frequency == pytest.approx(110.0, rel=1e-6)
        assert fit.amplitude <= np.ptp(scan_data.p)


def _assert_same_fit(batched, alone):
    """Every field equal, bit for bit: ``repr`` also tells -0.0 from 0.0."""
    assert repr(batched) == repr(alone)


def _fits_alone(T, P, SD):
    return [analysis.fit_many(FringeScan(T, P[k:k + 1], SD[k:k + 1]))[0] for k in range(len(P))]


#: Row kinds of a mixed batch: an exact damped fringe, noisy fringes read
#: out with and without per-point sd (weighted and unweighted fits), pure
#: noise with sd (fits that stop on ``residual`` or ``halving_exhausted``)
#: and a constant row (``zero_variance``).
_KINDS = ("exact", "weighted", "unweighted", "noise", "constant")


def _mixed_row(kind, T, rng):
    if kind == "constant":
        # any level: the mean of most is inexact, so np.std is not 0
        return np.full(T.size, rng.uniform(0.0, 1.0)), np.zeros(T.size)
    if kind == "noise":
        return rng.uniform(0.0, 1.0, T.size), rng.uniform(1e-4, 1.0, T.size)
    span = T[-1] - T[0]
    cycles = rng.uniform(2.0, max(2.0, 0.4 * T.size))
    amplitude = rng.uniform(0.1, 0.4)
    p = 0.5 + amplitude * np.exp(-rng.uniform(0.0, 3.0) * T / span) * np.cos(
        TWO_PI * cycles / span * T + rng.uniform(0.0, TWO_PI)
    )
    if kind == "exact":
        return p, np.zeros(T.size)
    sd = amplitude * 1e-2 * 10.0 ** -rng.uniform(0.0, 1.0, T.size)
    p = np.clip(p + sd * rng.standard_normal(T.size), 0.0, 1.0)
    return p, sd if kind == "weighted" else np.zeros(T.size)


class TestFitMany:
    @settings(max_examples=40, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6),
        points=st.integers(8, 160),
        max_iterations=st.sampled_from([analysis.MAX_ITERATIONS, 5, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_fits_as_it_does_alone(self, kinds, points, max_iterations, seed):
        # a short iteration cap forces some rows to max_iter while others
        # stop earlier; no row's outcome may depend on the others.  On noise
        # rows a rejected trial step can overflow the envelope.
        rng = np.random.default_rng(seed)
        T = 1e-4 * np.arange(points)
        P, SD = (np.array(a) for a in zip(*(_mixed_row(kind, T, rng) for kind in kinds)))
        cap = mock.patch.object(analysis, "MAX_ITERATIONS", max_iterations)
        with cap, np.errstate(over="ignore"):
            batched = analysis.fit_many(FringeScan(T, P, SD))
            alone = _fits_alone(T, P, SD)
        assert len(batched) == len(kinds)
        for b, a in zip(batched, alone):
            _assert_same_fit(b, a)

    def test_every_stop_reason_in_one_batch(self):
        # the coin pattern seeds just below Nyquist, where the sin column
        # fades, and runs out of iterations; the 3e-6 fringe, once seeded at
        # f = 0 by a ridge on the offset, climbs to 110 Hz; singular and
        # halving_exhausted need an explicit start (see
        # test_a_singular_row_leaves_the_others_alone and TestFitDiagnostics)
        T = np.arange(16) * 1e-3
        rng = np.random.default_rng(6)
        noise, noise_sd = rng.uniform(0, 1, 16), rng.uniform(1e-4, 1, 16)
        clean = 0.5 + 0.3 * np.cos(TWO_PI * 110.0 * T + 0.4)
        noisy = _weighted_noisy_fringe()
        ridge = 0.5 + 3e-6 * np.cos(TWO_PI * 110.0 * T + 1.0)
        P = np.array([COIN, noise, np.full(16, 0.5), clean, noisy.p, ridge])
        SD = np.array([np.zeros(16), noise_sd, np.zeros(16), np.zeros(16), noisy.sd, np.zeros(16)])
        batched = analysis.fit_many(FringeScan(T, P, SD))
        assert [(f.reason, f.iterations) for f in batched] == [
            ("max_iter", 200), ("residual", 13), ("zero_variance", 0), ("step_tol", 3),
            ("ssr_flat", 4), ("step_tol", 8),
        ]
        for b, a in zip(batched, _fits_alone(T, P, SD)):
            _assert_same_fit(b, a)

    def test_max_iter_row_beside_a_constant_row(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_ITERATIONS", 2)
        T = np.linspace(0.0, 20e-3, 201)
        P = np.array([synthetic(T, 0.5, 110.0, 1.0, 0.5, 30e-3).p, np.full(201, 0.2)])
        batched = analysis.fit_many(FringeScan(T, P, np.zeros_like(P)))
        assert [(f.reason, f.iterations) for f in batched] == [
            ("max_iter", 2), ("zero_variance", 0)
        ]

    def test_a_constant_row_reports_every_field(self):
        # alone and between fitted rows: offset p[0], no fringe, no damping,
        # no residual and a zero threshold; repr also pins the sign of zeros
        T = np.linspace(0.0, 20e-3, 201)
        constant = np.full(201, 0.1)
        expected = FitResult(
            amplitude=0.0, frequency=0.0, phase=0.0, offset=0.1, decay_time=math.inf,
            rms_residual=0.0, converged=False, residual_threshold=0.0, iterations=0,
            reason="zero_variance",
        )
        fringe = synthetic(T, 0.5, 110.0, 1.0, 0.5, 30e-3).p
        P = np.array([fringe, constant, fringe[::-1]])
        SD = np.array([np.zeros(201), np.full(201, 0.01), np.full(201, 0.01)])
        alone = analysis.fit_many(FringeScan(T, constant, SD[1]))
        batched = analysis.fit_many(FringeScan(T, P, SD))
        assert [repr(f) for f in alone + batched[1:2]] == [repr(expected)] * 2
        assert batched[0].reason == "step_tol" and batched[2].reason != "zero_variance"

    def test_a_singular_row_leaves_the_others_alone(self):
        # an envelope that overflows has no finite residual, hence no step
        T = np.linspace(0.0, 20e-3, 201)
        p = synthetic(T, 0.4, 110.0, 0.3, 0.5, math.inf).p
        P = np.array([p, p])
        start = np.array([[0.5, 0.4, 0.0, 0.0, 110.0], [0.5, 0.4, 0.0, -1e6, 110.0]])
        weights = np.ones_like(P)
        with np.errstate(over="ignore", invalid="ignore"):
            params, iterations, reasons = analysis._gauss_newton(T, P, weights, start)
        alone = analysis._gauss_newton(T, P[:1], weights[:1], start[:1])
        assert list(reasons) == [alone[2][0], "singular"]
        assert iterations[1] == 1 and np.array_equal(params[1], start[1])
        assert iterations[0] == alone[1][0] and np.array_equal(params[0], alone[0][0])
        # a relaxation at rate 0 and frequency 0: its offset and a columns
        # are equal, so the batch's LU meets an exactly zero pivot, and the
        # other rows are solved again with that one set aside
        T = 1e-4 * np.arange(201)
        P = np.array([0.5 - 0.3 * np.exp(-T / 0.1), 0.5 + 0.4 * np.cos(TWO_PI * 110.0 * T + 0.3)])
        start = np.array([[0.5, 0.1, 0.0, 0.0, 0.0],
                          [0.5, 0.4 * math.cos(0.3), -0.4 * math.sin(0.3), 0.0, 110.0]])
        with mock.patch.object(np.linalg, "det", wraps=np.linalg.det) as det:
            params, iterations, reasons = analysis._gauss_newton(T, P, weights, start)
        assert det.called
        alone = analysis._gauss_newton(T, P[1:], weights[1:], start[1:])
        assert list(reasons) == ["singular", alone[2][0]] == ["singular", "step_tol"]
        assert iterations[0] == 1 and np.array_equal(params[0], start[0])
        assert iterations[1] == alone[1][0] and params[1].tobytes() == alone[0][0].tobytes()

    @pytest.mark.parametrize("T0", [0.0, 5e-3])
    def test_a_mirrored_solution_folds_to_the_same_fit(self, T0):
        # (b, f) -> (-b, -f) is the same curve: fit_many folds it back to a
        # positive frequency, bit for bit, on the scan's clock and carried to T = 0
        T = T0 + 1e-4 * np.arange(201)
        p = 0.5 + 0.3 * np.exp(-T / 0.03) * np.cos(TWO_PI * 110.0 * T + 1.0)
        noisy = np.clip(p + 1e-3 * np.random.default_rng(1).standard_normal(201), 0.0, 1.0)
        sd = np.array([np.zeros(201), np.full(201, 1e-3)])
        scan_data = FringeScan(T, np.array([p, noisy]), sd)
        gauss_newton = analysis._gauss_newton

        def mirrored(*args):
            params, iterations, reasons = gauss_newton(*args)
            params[:, [2, 4]] *= -1.0
            assert (params[:, 4] < 0.0).all()
            return params, iterations, reasons

        with mock.patch.object(analysis, "_gauss_newton", mirrored):
            folded = analysis.fit_many(scan_data)
        for got, expected in zip(folded, analysis.fit_many(scan_data)):
            _assert_same_fit(got, expected)

    def test_one_dimensional_scan_is_a_batch_of_one(self):
        T = np.linspace(0.0, 20e-3, 201)
        sc = synthetic(T, 0.5, 110.0, 1.0, 0.5, 30e-3)
        assert analysis.fit_many(sc) == [fit_damped_sinusoid(sc)]

    def test_fit_damped_sinusoid_rejects_a_batch(self):
        T = np.linspace(0.0, 20e-3, 201)
        p = synthetic(T, 0.5, 110.0, 1.0, 0.5, 30e-3).p
        with pytest.raises(ValueError, match="fit_many"):
            fit_damped_sinusoid(FringeScan(T, np.array([p, p]), np.zeros((2, 201))))


class TestTrigHandOver:
    @settings(max_examples=30, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(_KINDS[:4]), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_start_from_the_seeds_trig_is_the_start_it_evaluates(self, kinds, seed):
        # rows seeded by _rate_seeds, beside one that ends singular (an
        # envelope that overflows) and one that ends halving_exhausted (a
        # start at Nyquist): the env, cos and sin handed over are those
        # _evaluate forms, and Gauss-Newton ends on the same bits with them
        # (constant rows never reach it)
        rng = np.random.default_rng(seed)
        T = np.arange(16) * 1e-3
        P, SD = (np.array(a) for a in zip(*(_mixed_row(kind, T, rng) for kind in kinds)))
        weights, weighted = np.ones_like(P), (SD > 0.0).all(axis=-1)
        weights[weighted] = 1.0 / SD[weighted]
        seeds, trig = analysis._rate_seeds(T, P, weights, analysis._coarse_frequency(T, P, weights))
        for handed, own in zip(trig, analysis._evaluate(T, P, weights, seeds)):
            assert handed.tobytes() == own.tobytes()
        starts = np.array([[0.5, 0.5, 0.0, -1e6, 110.0], [0.5, 0.5, 0.0, 0.0, 500.0]])
        rate, freq = starts[:, 3:4], starts[:, 4:5]
        with np.errstate(over="ignore"):
            env = np.exp(-rate * T)
        arg = TWO_PI * freq * T
        x = np.vstack([starts, seeds])
        P, weights = np.vstack([COIN, COIN, P]), np.vstack([np.ones((2, 16)), weights])
        trig = [np.vstack(rows) for rows in zip((env, np.cos(arg), np.sin(arg)), trig)]
        with np.errstate(over="ignore", invalid="ignore"):
            handed = analysis._gauss_newton(T, P, weights, x, trig)
            own = analysis._gauss_newton(T, P, weights, x)
        assert [repr(v.tolist()) for v in handed] == [repr(v.tolist()) for v in own]
        assert list(handed[2][:2]) == ["singular", "halving_exhausted"]


class TestStopDecisions:
    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(_KINDS), max_size=6),
        singular=st.booleans(),
        exhausted=st.booleans(),
        max_iterations=st.sampled_from([2, 5, 200]),
        handed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_float_stop_decisions_equal_their_mask_form(
        self, kinds, singular, exhausted, max_iterations, handed, seed
    ):
        # 1 to 8 rows seeded by _rate_seeds, in a shuffled batch with a start
        # that ends singular (an envelope that overflows) and one that ends
        # halving_exhausted (the coin pattern started at Nyquist); a short
        # cap leaves rows at max_iter beside rows that stop earlier.  Every
        # parameter, iteration count and reason keeps its bits and type.
        rng = np.random.default_rng(seed)
        T = np.arange(16) * 1e-3
        starts = [start for start, keep in (([0.5, 0.5, 0.0, -1e6, 110.0], singular),
                                            ([0.5, 0.5, 0.0, 0.0, 500.0], exhausted)) if keep]
        assume(kinds or starts)
        rows = [_mixed_row(kind, T, rng) for kind in kinds]
        P, SD = (np.reshape([row[i] for row in rows], (-1, 16)) for i in (0, 1))
        weights, weighted = np.ones_like(P), (SD > 0.0).all(axis=-1)
        weights[weighted] = 1.0 / SD[weighted]
        if kinds:
            seeds = analysis._rate_seeds(T, P, weights, analysis._coarse_frequency(T, P, weights))
            starts = [*seeds[0].tolist(), *starts]
        x = np.array(starts)
        order = rng.permutation(len(x))
        x = x[order]
        P = np.vstack([P, np.tile(COIN, (len(starts), 1))])[order]
        weights = np.vstack([weights, np.ones((len(starts), 16))])[order]
        cap = mock.patch.object(analysis, "MAX_ITERATIONS", max_iterations)
        with cap, np.errstate(over="ignore", invalid="ignore"):
            trig = analysis._evaluate(T, P, weights, x)[:3] if handed else None
            got = analysis._gauss_newton(T, P, weights, x, trig and [a.copy() for a in trig])
            expected = _expression_gauss_newton(T, P, weights, x, trig)
        assert [repr(v.tolist()) for v in got] == [repr(v.tolist()) for v in expected]
        assert [v.dtype for v in got] == [v.dtype for v in expected]
        if singular:
            assert "singular" in got[2].tolist()
        if exhausted:
            assert "halving_exhausted" in got[2].tolist()


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
