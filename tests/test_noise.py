"""Tests for phase diffusion, projective readout and contrast decay."""

import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylock import noise
from ramseylock import (
    FringeScan,
    InvalidDurationError,
    NoiseModel,
    ScrambleKey,
    apply_contrast_decay,
    build_scrambled,
    build_write_read,
    fit_damped_sinusoid,
    measure_scan,
    monte_carlo_scramble,
    sample_phase_increment,
    sample_relative_phase,
    scan,
    simulate_measurement,
)

TWO_PI = 2.0 * math.pi


def assert_fringe_scan_invariants(got, grid, label: str) -> None:
    """What FringeScan validation would have given a result built without it:
    read-only arrays, ``T`` equal to the grid, ``p`` in [0, 1], finite
    ``sd >= 0`` and the label."""
    assert not any(a.flags.writeable for a in (got.T, got.p, got.sd))
    assert np.array_equal(got.T, grid)
    assert got.p.shape == got.sd.shape and got.p.shape[-1] == len(grid)
    assert np.all((got.p >= 0.0) & (got.p <= 1.0))
    assert np.all(np.isfinite(got.sd) & (got.sd >= 0.0))
    assert got.label == label


def kuiper_statistic(samples: np.ndarray) -> float:
    """Kuiper V against the uniform distribution on [0, 1)."""
    u = np.sort(samples)
    n = u.size
    i = np.arange(1, n + 1)
    return float(np.max(i / n - u) + np.max(u - (i - 1) / n))


class TestPhaseDiffusion:
    def test_zero_elapsed_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        assert sample_relative_phase(TWO_PI * 1000.0, 0.0, rng) == 0.0
        assert sample_phase_increment(TWO_PI * 1000.0, 0.0, rng) == 0.0

    def test_negative_elapsed_rejected(self):
        with pytest.raises(InvalidDurationError):
            sample_relative_phase(1.0, -1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("elapsed", [math.nan, math.inf])
    def test_non_finite_elapsed_rejected(self, elapsed):
        # a NaN or infinite elapsed time would return a NaN or infinite phase
        with pytest.raises(InvalidDurationError, match="elapsed time must be finite and >= 0"):
            sample_phase_increment(1.0, elapsed, np.random.default_rng(0))

    @pytest.mark.parametrize("linewidth", [-1.0, math.nan, math.inf])
    def test_linewidth_must_be_finite_and_non_negative(self, linewidth):
        # a NaN or infinite linewidth would return a NaN or infinite phase
        with pytest.raises(ValueError, match="linewidth must be finite and >= 0"):
            sample_phase_increment(linewidth, 1.0, np.random.default_rng(0))

    def test_a_variance_that_overflows_is_refused_before_any_draw(self):
        # each factor is finite; 1e308 * 1e308 rad^2 is not
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"^phase variance linewidth \* elapsed = "
                                             r"1e\+308 \* 1e\+308 is not finite$"):
            sample_phase_increment(1e308, 1e308, rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_variance_after_one_shot_interval(self):
        # 1 kHz angular linewidth over the 47 s between shots gives a
        # variance of linewidth * elapsed = 2.95e5 rad^2
        rng = np.random.default_rng(42)
        draws = np.array(
            [sample_phase_increment(TWO_PI * 1000.0, 47.0, rng) for _ in range(10_000)]
        )
        assert draws.var() == pytest.approx(TWO_PI * 1000.0 * 47.0, rel=0.05)

    def test_variance_grows_linearly_with_elapsed_time(self):
        rng = np.random.default_rng(42)
        elapsed = np.arange(1.0, 11.0)
        variances = [
            np.var([sample_phase_increment(TWO_PI * 1000.0, t, rng) for t in [el] * 10_000])
            for el in elapsed
        ]
        slope = np.polyfit(elapsed, variances, 1)[0]
        assert slope == pytest.approx(TWO_PI * 1000.0, rel=0.05)

    def test_wrapped_phase_is_uniform_at_large_variance(self):
        # variance >= 100 rad^2: the wrapped normal is uniform to within the
        # 1% Kuiper critical value
        rng = np.random.default_rng(3)
        samples = np.array(
            [sample_relative_phase(TWO_PI * 1000.0, 1.0, rng) for _ in range(10_000)]
        )
        assert np.all((samples >= 0.0) & (samples < TWO_PI))
        v = kuiper_statistic(samples / TWO_PI)
        critical = 2.001 / (math.sqrt(10_000) + 0.155 + 0.24 / math.sqrt(10_000))
        assert v < critical


class TestSimulateMeasurement:
    def test_certain_outcomes_have_no_scatter(self):
        model = NoiseModel()
        rng = np.random.default_rng(1)
        assert simulate_measurement(0.0, model, rng) == (0.0, 0.0)
        assert simulate_measurement(1.0, model, rng) == (1.0, 0.0)

    def test_sd_of_mean_matches_binomial_statistics(self):
        model = NoiseModel()  # 5e4 atoms, 5 repeats
        rng = np.random.default_rng(9)
        means = np.array([simulate_measurement(0.5, model, rng)[0] for _ in range(1000)])
        expected = math.sqrt(0.25 / (5e4 * 5))
        assert means.std() == pytest.approx(expected, rel=0.20)

    def test_mean_is_unbiased(self):
        model = NoiseModel()
        rng = np.random.default_rng(10)
        means = np.array([simulate_measurement(0.3, model, rng)[0] for _ in range(10_000)])
        pooled_se = math.sqrt(0.3 * 0.7 / (5e4 * 5)) / math.sqrt(10_000)
        assert abs(means.mean() - 0.3) <= 3.0 * pooled_se

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValueError):
            simulate_measurement(1.5, NoiseModel(), np.random.default_rng(0))

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["linewidth", "run_interval"])
    def test_rates_and_intervals_must_be_finite_and_non_negative(self, name, value):
        # refused where they enter, not as a non-finite key phase much later
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got {value}$"):
            NoiseModel(**{name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            NoiseModel(seed=-1)

    def test_atom_count_is_bounded_by_what_a_binomial_draw_takes(self):
        rng = np.random.default_rng(0)
        mean, _ = simulate_measurement(1.0, NoiseModel(atom_count=2**63 - 1, repeats=2), rng)
        assert mean == 1.0
        with pytest.raises(ValueError, match=f"atom_count must be <= {2**63 - 1}, got {2**63}"):
            NoiseModel(atom_count=2**63)

    @pytest.mark.parametrize("value", [2.5, 3.0, math.nan, "5"])
    @pytest.mark.parametrize("count", ["atom_count", "repeats", "seed"])
    def test_counts_must_be_integers(self, count, value):
        # a fractional atom count would draw with its floor and divide by itself
        with pytest.raises(ValueError, match=f"^{count} must be an integer, got {value!r}$"):
            NoiseModel(**{count: value})
        assert getattr(NoiseModel(**{count: np.int64(3)}), count) == 3  # a numpy integer is one


def per_point_readout(p, model, rng):
    """The scalar readout, one point at a time: the reference the one-draw
    ``measure_scan`` must match bit for bit."""
    means, sds = np.empty(len(p)), np.empty(len(p))
    for i, p_true in enumerate(p):
        counts = rng.binomial(model.atom_count, float(p_true), size=model.repeats)
        fractions = counts / float(model.atom_count)
        means[i] = float(np.mean(fractions))
        sds[i] = float(np.std(fractions, ddof=1)) if model.repeats > 1 else 0.0
    return means, sds


class TestShotStats:
    @pytest.mark.parametrize("atoms", [1, 50_000, 2**63 - 1])
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["N", "KxN"])
    @pytest.mark.parametrize("repeats", [1, 2, 5, 7, 8, 9, 16, 127, 128, 129, 300, 8193])
    def test_bit_equal_to_numpy_mean_and_sd(self, repeats, batch, atoms):
        # from 8 repeats the statistics are numpy's own sums; below 8 the
        # slab adds must match numpy's left-to-right order, which this pins;
        # 8193 repeats on 2 points would show a reduction split into buffers
        model = NoiseModel(atom_count=atoms, repeats=repeats)
        rng = np.random.default_rng(repeats)
        counts = noise._counts(rng.uniform(size=(*batch, 2 if repeats > 300 else 41)), model, rng)
        fractions = counts / float(atoms)
        mean, sd = noise._shot_stats(counts, model)
        assert np.array_equal(mean, fractions.mean(axis=-1))
        if repeats == 1:
            assert np.array_equal(sd, np.zeros(mean.shape))
        else:
            assert np.array_equal(sd, fractions.std(axis=-1, ddof=1))


class TestMeasureScan:
    @settings(max_examples=150, deadline=None)
    @given(
        p=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60),
        atoms=st.integers(min_value=1, max_value=10**6),
        repeats=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bit_equal_to_per_point_readout(self, p, atoms, repeats, seed):
        model = NoiseModel(atom_count=atoms, repeats=repeats)
        ideal = FringeScan(np.arange(len(p), dtype=float), np.array(p), np.zeros(len(p)))
        rng_scan, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        measured = measure_scan(ideal, model, rng_scan)
        means, sds = per_point_readout(ideal.p, model, rng_loop)
        assert np.array_equal(measured.p, means)
        assert np.array_equal(measured.sd, sds)
        assert rng_scan.random() == rng_loop.random()

    def test_one_point_wrapper_matches(self):
        model = NoiseModel(atom_count=1000, repeats=4)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        means, sds = per_point_readout([0.2, 0.7], model, rng_b)
        assert [simulate_measurement(p, model, rng_a) for p in (0.2, 0.7)] == list(zip(means, sds))
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_bad_probability_rejected_before_any_draw(self, bad):
        # FringeScan itself rejects these, so feed an unvalidated scan-like
        # object to reach measure_scan's own check
        ideal = SimpleNamespace(T=np.arange(3.0), p=np.array([0.5, bad, 2.0]), label="")
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=rf"\[0, 1\], got {bad}"):
            measure_scan(ideal, NoiseModel(), rng)
        with pytest.raises(ValueError, match=rf"\[0, 1\], got {bad}"):
            simulate_measurement(bad, NoiseModel(), rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_single_repeat_has_zero_sd(self):
        ideal = FringeScan(np.arange(4.0), np.array([0.1, 0.4, 0.6, 0.9]), np.zeros(4))
        measured = measure_scan(ideal, NoiseModel(repeats=1), np.random.default_rng(2))
        assert np.array_equal(measured.sd, np.zeros(4))

    def test_grid_and_label_kept(self):
        ideal = FringeScan(np.array([0.0, 1e-3, 3e-3]), np.full(3, 0.5), np.zeros(3), label="x")
        measured = measure_scan(ideal, NoiseModel(), np.random.default_rng(3))
        assert np.array_equal(measured.T, ideal.T)
        assert measured.label == "x"

    @pytest.mark.parametrize("atoms, repeats", [(1, 1), (3, 4), (50_000, 5)])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_result_keeps_fringe_scan_invariants(self, atoms, repeats, rows):
        """The readout is not re-validated; few atoms put means on 0 and 1."""
        grid = np.linspace(0.0, 1e-2, 11)
        p = np.linspace(0.0, 1.0, 11)
        p = np.vstack([np.roll(p, k) for k in range(rows)]) if rows > 1 else p
        ideal = FringeScan(grid, p, np.zeros(p.shape), label="x")
        measured = measure_scan(ideal, NoiseModel(atom_count=atoms, repeats=repeats),
                                np.random.default_rng(6))
        assert measured.p.shape == p.shape
        assert_fringe_scan_invariants(measured, grid, "x")

    def test_certain_outcomes_have_no_scatter(self):
        ideal = FringeScan(np.arange(2.0), np.array([0.0, 1.0]), np.zeros(2))
        measured = measure_scan(ideal, NoiseModel(), np.random.default_rng(1))
        assert np.array_equal(measured.p, [0.0, 1.0])
        assert np.array_equal(measured.sd, [0.0, 0.0])


class TestContrastDecay:
    def test_a_time_ratio_that_overflows_decays_fully(self):
        # T / 1e-320 s is inf for every T > 0: exp(-inf) = 0, without a warning
        sc = FringeScan(np.array([0.0, 1e-3, 2e-3]), np.array([0.75, 0.25, 1.0]), np.zeros(3))
        assert np.array_equal(apply_contrast_decay(sc, 1e-320).p, [0.75, 0.5, 0.5])

    def test_infinite_time_leaves_scan_unchanged(self, write_key, readout_grid):
        sc = scan(build_write_read(write_key, 0.0, scanned=True), readout_grid)
        out = apply_contrast_decay(sc, math.inf)
        assert np.max(np.abs(out.p - sc.p)) <= 1e-15

    def test_one_decay_time_reaches_1_over_e(self):
        tau_c = 3e-3
        sc = FringeScan(np.array([0.0, tau_c]), np.array([1.0, 1.0]), np.zeros(2))
        out = apply_contrast_decay(sc, tau_c)
        assert out.p[1] == pytest.approx(0.5 + 0.5 / math.e, abs=1e-12)

    def test_fitted_decay_time_round_trips(self, write_key, readout_grid):
        tau_c = 30.0 / 565.0
        sc = apply_contrast_decay(
            scan(build_write_read(write_key, 0.0, scanned=True), readout_grid), tau_c
        )
        fit = fit_damped_sinusoid(sc)
        assert fit.converged
        assert fit.decay_time == pytest.approx(tau_c, rel=0.02)

    def test_nonpositive_time_rejected(self, write_key):
        sc = FringeScan(np.array([0.0, 1.0]), np.array([0.5, 0.6]), np.zeros(2))
        with pytest.raises(InvalidDurationError):
            apply_contrast_decay(sc, 0.0)
        for tau_c in (math.nan, -1.0):
            with pytest.raises(InvalidDurationError, match="contrast time must be > 0"):
                apply_contrast_decay(sc, tau_c)

    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(0.0, 1e6),
                st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                st.floats(0.0, 1.0),
            ),
            min_size=1, max_size=40, unique_by=lambda point: point[0],
        ),
        tau_c=st.floats(min_value=0.0, exclude_min=True),
    )
    def test_result_keeps_fringe_scan_invariants(self, points, tau_c):
        """The damped scan is not re-validated: from tau_c = 5e-324 to inf
        it must meet the invariants, with p the formula's bit for bit."""
        T, p, sd = (np.array(a) for a in zip(*sorted(points)))
        with np.errstate(over="ignore"):  # T / tau_c overflows to inf for a tiny tau_c
            out = apply_contrast_decay(FringeScan(T, p, sd, label="x"), tau_c)
            expected = 0.5 + (p - 0.5) * np.exp(-T / tau_c)
        assert_fringe_scan_invariants(out, T, "x")
        assert np.array_equal(out.p, expected)
        assert np.array_equal(out.sd, sd)

    def test_times_before_zero_are_still_checked(self):
        # there the envelope exceeds 1 and can push p out of [0, 1]
        sc = FringeScan(np.array([-1.0, 0.0]), np.array([1.0, 0.5]), np.zeros(2))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            apply_contrast_decay(sc, 1.0)


class TestMonteCarloScramble:
    def test_zero_linewidth_reproduces_declared_key(
        self, write_key, scramble_field, readout_grid
    ):
        # no diffusion: the single trial runs at the declared phase, and a
        # huge atom number makes the readout noise negligible
        key = ScrambleKey(scramble_field, 1.48e-3, 0.0, 5e-3)
        model = NoiseModel(linewidth=0.0, atom_count=10**8, repeats=2, seed=4)
        result = monte_carlo_scramble(write_key, key, readout_grid, 1, model)
        ideal = scan(build_scrambled(write_key, key, 0.0, scanned=True), readout_grid)
        assert np.max(np.abs(result.pooled.p - ideal.p)) <= 1e-3

    def test_seed_reproducibility_is_bit_exact(self, write_key, scramble_key, readout_grid):
        model = NoiseModel(linewidth=TWO_PI * 1000.0, seed=11)
        a = monte_carlo_scramble(write_key, scramble_key, readout_grid[:51], 5, model)
        b = monte_carlo_scramble(write_key, scramble_key, readout_grid[:51], 5, model)
        for sa, sb in zip(a.scans, b.scans):
            assert np.array_equal(sa.p, sb.p)
            assert np.array_equal(sa.sd, sb.sd)
        assert np.array_equal(a.pooled.p, b.pooled.p)

    def test_random_key_scatter_is_large_and_flat(self, write_key, scramble_key, readout_grid):
        # fully diffused key phases scatter the measured point by ~0.165
        # (rms over the uniformly scrambled fringe family) at every delay;
        # far above the 1e-3 binomial readout level
        model = NoiseModel(linewidth=TWO_PI * 1000.0, seed=11)
        result = monte_carlo_scramble(write_key, scramble_key, readout_grid, 100, model)
        sd = result.pooled.sd
        assert 0.10 <= float(np.mean(sd)) <= 0.25
        assert float(np.max(sd)) / float(np.min(sd)) < 1.6
        assert float(np.min(sd)) > 20.0 * math.sqrt(0.25 / (5e4 * 5))

    @staticmethod
    def _pooled_z(write_key, scramble_key, grid, linewidth, seed):
        """z-score at each point of the pooled mean of 400 trials against
        the zeroth key-phase harmonic c0(T): the mean of a scan at 5 equal
        key phases, exact because the scrambled fringe has degree <= 2 in
        the key phase."""
        phases = TWO_PI * np.arange(5)[:, None] / 5
        keyed = ScrambleKey(scramble_key.field, scramble_key.tau, phases, scramble_key.T1)
        c0 = scan(build_scrambled(write_key, keyed, 0.0, scanned=True), grid).p.mean(axis=0)
        model = NoiseModel(linewidth=linewidth, run_interval=47.0, seed=seed)
        pooled = monte_carlo_scramble(write_key, scramble_key, grid, 400, model).pooled
        return (pooled.p - c0) / (pooled.sd / math.sqrt(400))

    @pytest.mark.parametrize("seed", range(5))
    def test_pooled_mean_of_a_diffused_key_is_the_zeroth_harmonic(
        self, write_key, scramble_key, readout_grid, seed
    ):
        # 47 rad^2 of diffusion: the wrapped key phase is uniform to about 1e-10
        z = self._pooled_z(write_key, scramble_key, readout_grid, 1.0, seed)
        assert float(np.max(np.abs(z))) <= 5.0

    def test_pooled_mean_of_an_undiffused_key_is_not(self, write_key, scramble_key, readout_grid):
        # the check has power: 0.235 rad^2 leaves the key near its declared phase
        z = self._pooled_z(write_key, scramble_key, readout_grid, 5e-3, 0)
        assert float(np.max(np.abs(z))) >= 10.0

    @pytest.mark.parametrize("phi_S", [None, 1.0])
    def test_matches_one_scan_and_readout_per_trial(
        self, write_key, scramble_key, readout_grid, phi_S, monkeypatch
    ):
        # the oracle: each trial draws its phase, scans and reads out on its
        # own child stream, one trial after another
        key = ScrambleKey(scramble_key.field, scramble_key.tau, phi_S, scramble_key.T1)
        model = NoiseModel(linewidth=0.05, atom_count=50_000, repeats=5, seed=1707)
        base = 0.0 if phi_S is None else phi_S
        ideal, measured = [], []
        for child in np.random.SeedSequence(model.seed).spawn(6):
            rng = np.random.default_rng(child)
            drift = sample_relative_phase(model.linewidth, model.run_interval, rng)
            keyed = ScrambleKey(key.field, key.tau, (base + drift) % TWO_PI, key.T1)
            sc = scan(build_scrambled(write_key, keyed, 0.0, scanned=True), readout_grid)
            ideal.append(sc.p)
            measured.append(measure_scan(sc, model, rng))

        batches = []
        monkeypatch.setattr(noise, "scan", lambda *a: batches.append(scan(*a)) or batches[-1])
        result = monte_carlo_scramble(write_key, key, readout_grid, 6, model)
        assert len(batches) == 1
        assert np.max(np.abs(batches[0].p - np.array(ideal))) <= 1e-12
        assert len(result.scans) == 6
        for got, want in zip(result.scans, measured):
            assert np.array_equal(got.T, readout_grid)
            assert np.array_equal(got.p, want.p) and np.array_equal(got.sd, want.sd)
        stacked = np.vstack([m.p for m in measured])
        assert np.array_equal(result.pooled.p, stacked.mean(axis=0))
        assert np.array_equal(result.pooled.sd, stacked.std(axis=0, ddof=1))

    @pytest.mark.parametrize("trials", [1, 4])
    @pytest.mark.parametrize("atoms", [2, 50_000])
    def test_results_keep_fringe_scan_invariants(
        self, write_key, scramble_key, readout_grid, trials, atoms
    ):
        """Neither the trial scans nor the pooled scan is re-validated."""
        grid = readout_grid.copy()
        model = NoiseModel(linewidth=TWO_PI * 1000.0, atom_count=atoms, repeats=3, seed=9)
        result = monte_carlo_scramble(write_key, scramble_key, grid, trials, model)
        assert len(result.scans) == trials
        for got in result.scans:
            assert_fringe_scan_invariants(got, grid, "")
        assert_fringe_scan_invariants(result.pooled, grid, "pooled")
        assert {got.p.shape for got in (*result.scans, result.pooled)} == {grid.shape}
        assert grid.flags.writeable

    @pytest.mark.parametrize("trials", [0, -1, np.int64(0), 2.5, 3.0, "3", None], ids=repr)
    def test_trial_count_validated(self, write_key, scramble_key, trials):
        message = f"^trials must be an integer >= 1, got {re.escape(repr(trials))}$"
        with pytest.raises(ValueError, match=message):
            monte_carlo_scramble(write_key, scramble_key, [0.0, 1e-3], trials, NoiseModel())

    def test_numpy_integer_trial_count_is_accepted(self, write_key, scramble_key):
        model = NoiseModel(linewidth=TWO_PI * 1000.0, seed=2)
        a = monte_carlo_scramble(write_key, scramble_key, [0.0, 1e-3], np.int64(3), model)
        b = monte_carlo_scramble(write_key, scramble_key, [0.0, 1e-3], 3, model)
        assert np.array_equal(a.pooled.p, b.pooled.p) and len(a.scans) == 3

    def test_a_diffusion_variance_that_overflows_is_refused(self, write_key, scramble_key):
        # NoiseModel takes each finite value; their product is refused before
        # any draw, not wrapped to a NaN key phase
        model = NoiseModel(linewidth=1e308, run_interval=1e308)
        with pytest.raises(ValueError, match=r"^phase variance linewidth \* elapsed"):
            monte_carlo_scramble(write_key, scramble_key, [0.0, 1e-3], 2, model)

    def test_a_list_grid_and_an_array_grid_give_the_same_ensemble(
        self, write_key, scramble_key, readout_grid
    ):
        model = NoiseModel(linewidth=TWO_PI * 1000.0, seed=5)
        grid = readout_grid[:41]
        a = monte_carlo_scramble(write_key, scramble_key, grid, 4, model)
        b = monte_carlo_scramble(write_key, scramble_key, grid.tolist(), 4, model)
        for x, y in zip((*a.scans, a.pooled), (*b.scans, b.pooled)):
            for u, v in ((x.T, y.T), (x.p, y.p), (x.sd, y.sd)):
                assert np.array_equal(u, v)
