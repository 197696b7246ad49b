"""Noise models: key-phase diffusion, projective readout, contrast decay.

The key phase between the two driving fields random-walks at the laser
linewidth rate, ``d<dphi^2>/dt = linewidth``; over the tens of seconds
between experimental shots the wrapped phase becomes effectively uniform,
which is what makes the scramble phase a usable one-time key.  Readout is
projective: the excitation fraction of N atoms is binomial, and a data
point is the mean of a few repeated shots with its standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add

import numpy as np

from .errors import InvalidDurationError
from .protocol import ScrambleKey, WriteKey, _template
from .sequence import FringeScan, _scan_fault, scan
from .spinor import ROTATING, TWO_PI, FrameConvention


@dataclass(frozen=True)
class NoiseModel:
    """Noise parameters of a simulated run.

    ``linewidth`` is the phase-diffusion rate in rad/s (angular linewidth);
    ``run_interval`` the wall-clock seconds between shots over which the
    key phase diffuses.
    """

    linewidth: float = 0.0
    atom_count: int = 50_000
    repeats: int = 5
    run_interval: float = 47.0
    seed: int = 0

    def __post_init__(self):
        for name in ("linewidth", "run_interval"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("atom_count", "repeats", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.atom_count < 1:
            raise ValueError(f"atom_count must be >= 1, got {self.atom_count}")
        if self.atom_count > 2**63 - 1:  # the most a binomial draw takes, a C int64
            raise ValueError(f"atom_count must be <= {2**63 - 1}, got {self.atom_count}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def sample_phase_increment(linewidth: float, elapsed: float, rng: np.random.Generator) -> float:
    """Unwrapped Gaussian phase excursion after ``elapsed`` seconds.

    Marginal of a Wiener process with variance rate ``linewidth``:
    zero-mean normal with variance ``linewidth * elapsed``.  Returns 0.0
    exactly (without consuming a variate) when the variance is zero.
    """
    if not 0.0 <= elapsed < math.inf:
        raise InvalidDurationError(f"elapsed time must be finite and >= 0, got {elapsed}")
    if not 0.0 <= linewidth < math.inf:
        raise ValueError(f"linewidth must be finite and >= 0, got {linewidth}")
    variance = linewidth * elapsed
    if variance == math.inf:
        raise ValueError(f"phase variance linewidth * elapsed = {linewidth} * {elapsed} "
                         "is not finite")
    if variance == 0.0:
        return 0.0
    return float(rng.normal(0.0, math.sqrt(variance)))


def sample_relative_phase(linewidth: float, elapsed: float, rng: np.random.Generator) -> float:
    """Diffused field phase wrapped to [0, 2*pi).

    Once ``linewidth * elapsed`` exceeds a few tens of rad^2 the wrapped
    distribution is indistinguishable from uniform.
    """
    return sample_phase_increment(linewidth, elapsed, rng) % TWO_PI


def _check_probabilities(p) -> np.ndarray:
    """``p`` as a float array; raises ``ValueError`` naming the first value
    outside [0, 1] (or NaN)."""
    p = np.asarray(p, dtype=float)
    fault = _scan_fault(None, p)
    if fault is not None:
        raise ValueError(f"p_true must lie in [0, 1], got {fault.value}")
    return p


def _counts(p: np.ndarray, model: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Binomial counts of ``model.repeats`` shots at each checked ``p``, of
    shape ``p.shape + (repeats,)``, drawn in C order: point by point with
    repeats inner, row after row for a batch."""
    return rng.binomial(model.atom_count, p[..., None], size=(*p.shape, model.repeats))


def _shot_stats(counts: np.ndarray, model: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample sd (zeros for one repeat) of the excitation fractions
    over the last, repeats axis of ``counts``: ``fractions.mean(axis=-1)``
    and ``fractions.std(axis=-1, ddof=1)`` bit for bit, so every seeded
    readout keeps its bits.  From 8 repeats they are numpy's own sums; below
    8, where numpy adds left to right, they add whole slabs of one repeat
    each, which skips numpy's loop over each point, and the sd reuses the mean.
    """
    fractions, n = counts / float(model.atom_count), model.repeats
    if n >= 8:
        mean = fractions.mean(axis=-1)
        return mean, np.sqrt(((fractions - mean[..., None]) ** 2).sum(axis=-1) / (n - 1))
    slabs = np.moveaxis(fractions, -1, 0)
    mean = reduce(add, slabs) / n
    return mean, np.sqrt(reduce(add, (slabs - mean) ** 2) / max(n - 1, 1))


def measure_scan(ideal: FringeScan, model: NoiseModel, rng: np.random.Generator) -> FringeScan:
    """Projective readout of a whole scan in one binomial draw.

    Each point becomes the mean excitation fraction of ``model.repeats``
    binomial shots of ``model.atom_count`` atoms at its ``p``, with the
    sample standard deviation across repeats as its ``sd`` (zeros for one
    repeat); ``T`` and ``label`` are kept.  The counts are one
    ``(points, repeats)`` draw, which reads the generator stream point by
    point with repeats inner: the same variates, in the same order, as one
    per-point draw after another.  A ``(K, N)`` batch is read row after
    row, as K ``measure_scan`` calls in key order would.  A ``p`` outside
    [0, 1] (or NaN) raises ``ValueError`` before anything is drawn.
    """
    mean, sd = _shot_stats(_counts(_check_probabilities(ideal.p), model, rng), model)
    # valid by construction: a mean of counts / atom_count lies in [0, 1]
    return FringeScan._trusted(ideal.T, mean, sd, label=ideal.label)


def simulate_measurement(
    p_true: float, model: NoiseModel, rng: np.random.Generator
) -> tuple[float, float]:
    """Projective readout of one data point: the one-point case of
    :func:`measure_scan`, returning ``(mean, sd)``."""
    mean, sd = _shot_stats(_counts(_check_probabilities([p_true]), model, rng), model)
    return float(mean[0]), float(sd[0])


def apply_contrast_decay(scan_data: FringeScan, tau_c: float) -> FringeScan:
    """Damp a fringe toward the incoherent 0.5 mixture.

    Each point becomes ``0.5 + (p - 0.5) * exp(-T / tau_c)``; ``tau_c`` is
    the 1/e contrast time (``inf`` leaves the scan unchanged).  Per-point
    standard deviations are left untouched: they describe readout scatter,
    not the coherence envelope.
    """
    if not tau_c > 0.0:
        raise InvalidDurationError(f"contrast time must be > 0, got {tau_c}")
    with np.errstate(over="ignore"):  # T / tau_c = inf decays fully: exp(-inf) = 0
        envelope = np.exp(-scan_data.T / tau_c)
    p = 0.5 + (scan_data.p - 0.5) * envelope
    # for T >= 0 the envelope lies in [0, 1], so p stays in [0, 1] (rounding
    # is monotonic) and needs no re-check; a T before 0 can push it out
    build = FringeScan._trusted if scan_data.T[0] >= 0.0 else FringeScan
    return build(scan_data.T, p, scan_data.sd, label=scan_data.label)


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-trial scrambled scans plus the per-point pooled statistics."""

    scans: tuple[FringeScan, ...]
    pooled: FringeScan


def monte_carlo_scramble(
    write_key: WriteKey,
    scramble_key: ScrambleKey,
    T_grid,
    trials: int,
    model: NoiseModel,
    *,
    frame: FrameConvention = ROTATING,
) -> MonteCarloResult:
    """Ensemble of scrambled scans with a freshly diffused phase per trial.

    Each trial draws its key phase via :func:`sample_relative_phase` over
    ``model.run_interval`` (added to the key's declared phase, if any) and
    applies projective readout noise per point.  Trials use independent
    child streams spawned from the model seed, so results do not depend on
    execution order and identical seeds reproduce the ensemble bit for bit.
    Every trial's phase is drawn first; one scan on the key-phase axis then
    evaluates all trials' scrambled fringes, and each trial's row is read
    out from that trial's stream, so each stream gives the same draws in
    the same order as a scan and readout per trial.

    The pooled scan holds, per grid point, the mean and standard deviation
    over trials of the measured means; the scatter is largest where the
    fringe slope against the key phase is steepest (near the zero
    crossings) and smallest at the extrema.
    """
    if not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    base_phase = scramble_key.phi_S if scramble_key.has_phase else 0.0
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(model.seed).spawn(trials)]

    # the key reduces each phase mod 2*pi
    phases = [base_phase + sample_relative_phase(model.linewidth, model.run_interval, rng)
              for rng in rngs]
    keyed = replace(scramble_key, phi_S=np.array(phases)[:, None])
    template = _template("attack", write_key, (keyed,), frame=frame, clock_during_pulses=False)
    # scan checks the grid and clips p; the shot statistics are valid by construction
    ideal = scan(template, T_grid)
    counts = np.stack([_counts(row, model, rng) for row, rng in zip(ideal.p, rngs)])
    means, sds = _shot_stats(counts, model)
    measured = FringeScan._trusted(ideal.T, means, sds)
    # the pooled mean, and from it means.std(axis=0, ddof=1) bit for bit (0 for one trial)
    pooled_mean = means.mean(axis=0)
    spread = np.sqrt(((means - pooled_mean) ** 2).sum(axis=0) / max(trials - 1, 1))
    pooled = FringeScan._trusted(ideal.T, pooled_mean, spread, label="pooled")
    return MonteCarloResult(scans=measured.rows(), pooled=pooled)
