"""Fringe analysis: damped-sinusoid fitting and circular phase statistics.

Every simulated (or measured) interference scan is reduced the same way: a
least-squares fit of::

    p(T) = offset + amplitude * exp(-T / decay_time) * cos(2*pi*frequency*T + phase)

The fitter is deterministic and derivative-based.  The frequency seed is
the peak of the generalized Lomb-Scargle periodogram (Zechmeister &
Kuerster 2009): the trial frequency with the least weighted residual sum
of squares (SSR) of the undamped linear model, whose offset and quadrature
amplitudes are solved exactly.  On a uniform grid the trial frequencies
are those of a zero-padded FFT, which supplies every sum the SSR needs; on
a non-uniform grid the SSR is evaluated directly on a grid over
[0, Nyquist].  A fine scan of that same SSR one bin either side of the
peak, then a few envelope-rate seeds, give the starting point;
Gauss-Newton iterations refine all five parameters, and the result
records why they stopped.  Fitted phases feed the circular-spread
statistic that quantifies how much key-phase ambiguity a scramble stage
injects and how completely a retrieve stage removes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence as SequenceType

import numpy as np

from .errors import FitError
from .sequence import FringeScan
from .spinor import TWO_PI

#: Periodogram seed resolution: the Lomb-Scargle SSR is evaluated at no
#: fewer than COARSE_GRID_SIZE frequencies over [0, Nyquist], directly on a
#: non-uniform grid, and on a uniform grid at the bins of an FFT zero-padded
#: to PAD_FACTOR times the scan length (or more, to reach that count).
PAD_FACTOR = 8
COARSE_GRID_SIZE = 512

#: Relative spacing deviation below which a grid counts as uniform.
UNIFORM_TOLERANCE = 1e-9

#: Gauss-Newton iteration cap and relative-step convergence threshold.
MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-10

#: Envelope rates tried (in units of 1/span) during initialization.
_RATE_SEEDS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)

#: Why a fit stopped.  ``step_tol``: a step fell below STEP_TOLERANCE and
#: the fringe explains the data (the only converged outcome);
#: ``residual``: the step converged but the rms residual exceeds the data's
#: standard deviation, or the amplitude is zero; ``halving_exhausted``: 30
#: step halvings found no decrease; ``max_iter``: MAX_ITERATIONS steps ran
#: out; ``singular``: the least-squares step could not be solved;
#: ``zero_variance``: the data are constant, so no fit was attempted.
FIT_REASONS = ("step_tol", "residual", "halving_exhausted", "max_iter", "singular", "zero_variance")


@dataclass(frozen=True)
class FitResult:
    """Damped-sinusoid parameters extracted from one scan.

    ``decay_time`` may be ``inf`` (no detectable damping) and is negative
    for a growing envelope, so ``exp(-T / decay_time)`` always reproduces
    the fitted envelope.  ``converged``
    is set when the iteration reached its step tolerance and the remaining
    root-mean-square residual is below ``residual_threshold``, which is
    recorded alongside (the standard deviation of the input data, i.e. the
    residual of fitting no fringe at all).

    ``iterations`` counts Gauss-Newton steps; ``reason`` says why they
    stopped (see ``FIT_REASONS``) and is ``"step_tol"`` exactly when
    ``converged`` is set.
    """

    amplitude: float
    frequency: float
    phase: float
    offset: float
    decay_time: float
    rms_residual: float
    converged: bool
    residual_threshold: float
    iterations: int
    reason: str

    def __post_init__(self):
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be >= 0 after normalization")
        if self.rms_residual < 0.0:
            raise ValueError("rms_residual must be >= 0")
        if self.reason not in FIT_REASONS:
            raise ValueError(f"reason must be one of {FIT_REASONS}, got {self.reason!r}")
        if self.converged != (self.reason == "step_tol"):
            raise ValueError("converged must hold exactly when reason is 'step_tol'")


def _model(T: np.ndarray, offset: float, a: float, b: float, rate: float, freq: float) -> np.ndarray:
    env = np.exp(-rate * T)
    arg = TWO_PI * freq * T
    return offset + env * (a * np.cos(arg) + b * np.sin(arg))


def _linear_fit(T, p, weights, freq, rate):
    """Weighted LS over (offset, a, b) at fixed frequency and decay rate."""
    env = np.exp(-rate * T)
    arg = TWO_PI * freq * T
    design = np.column_stack([np.ones_like(T), env * np.cos(arg), env * np.sin(arg)])
    wd = design * weights[:, None]
    wp = p * weights
    coef, *_ = np.linalg.lstsq(wd, wp, rcond=None)
    resid = wp - wd @ coef
    return coef, float(resid @ resid)


def _grid_ssr(T, p, weights, freqs):
    """Weighted SSR of the undamped linear model at each trial frequency,
    with the trigonometric sums evaluated directly on ``T``."""
    arg = TWO_PI * np.outer(freqs, T)
    cos_t, sin_t = np.cos(arg), np.sin(arg)
    w2 = weights * weights
    return _ssr(
        w2, p, cos_t @ w2, sin_t @ w2, (cos_t * cos_t) @ w2, (cos_t * sin_t) @ w2,
        (sin_t * sin_t) @ w2, cos_t @ (w2 * p), sin_t @ (w2 * p),
    )


def _periodogram_ssr(p, weights, size):
    """The same SSR on a uniform grid at the ``size // 2 + 1`` frequencies
    ``k / (size * dt)``, with every sum read off a zero-padded FFT; the
    squared and cross terms come from the doubled frequency ``2k``."""
    w2 = weights * weights
    total = np.sum(w2)
    z = np.fft.fft(w2, size)  # sum of w2 * exp(-i * omega_k * (T - T[0]))
    zp = np.fft.rfft(w2 * p, size)
    k = np.arange(zp.size)
    z1, z2 = z[k], z[2 * k % size]
    return _ssr(
        w2, p, z1.real, -z1.imag, 0.5 * (total + z2.real), -0.5 * z2.imag,
        0.5 * (total - z2.real), zp.real, -zp.imag,
    )


def _ssr(w2, p, c, s, cc, cs, ss, cp, sp):
    """Weighted SSR of ``offset + a*cos + b*sin`` from its normal equations;
    each argument after ``p`` holds one weighted sum (of cos, sin, cos^2,
    cos*sin, sin^2, p*cos, p*sin) per trial frequency."""
    gram = np.empty((c.size, 3, 3))
    rhs = np.empty((c.size, 3))
    gram[:, 0, 0] = np.sum(w2)
    gram[:, 0, 1] = gram[:, 1, 0] = c
    gram[:, 0, 2] = gram[:, 2, 0] = s
    gram[:, 1, 1] = cc
    gram[:, 1, 2] = gram[:, 2, 1] = cs
    gram[:, 2, 2] = ss
    rhs[:, 0] = np.sum(w2 * p)
    rhs[:, 1] = cp
    rhs[:, 2] = sp
    # a ridge proportional to the gram scale keeps the degenerate rows
    # (f = 0 and f = Nyquist have a vanishing sin column) solvable;
    # selection is unaffected elsewhere
    scale = float(np.max(gram[:, 0, 0]))
    gram += (1e-9 * max(scale, 1.0)) * np.eye(3)
    coefs = np.linalg.solve(gram, rhs[..., None])[..., 0]
    return np.sum(w2 * p * p) - np.einsum("ki,ki->k", coefs, rhs)


def _coarse_frequency(T, p, weights):
    """Initial frequency: the generalized Lomb-Scargle peak (the SSR
    minimum), then a fine SSR scan one periodogram bin either side on the
    true ``T``, so Gauss-Newton starts inside the right basin."""
    dt = np.diff(T)
    step = float(np.min(dt))
    if np.all(np.abs(dt - step) <= UNIFORM_TOLERANCE * step):
        size = max(PAD_FACTOR * T.size, 2 * COARSE_GRID_SIZE)
        bin_width = 1.0 / (size * step)
        best = int(np.argmin(_periodogram_ssr(p, weights, size))) / (size * step)
    else:
        nyquist = 0.5 / step
        freqs = np.linspace(0.0, nyquist, COARSE_GRID_SIZE)
        best = float(freqs[int(np.argmin(_grid_ssr(T, p, weights, freqs)))])
        bin_width = nyquist / (COARSE_GRID_SIZE - 1)
    fine = np.linspace(max(0.0, best - bin_width), best + bin_width, 65)
    return float(fine[int(np.argmin(_grid_ssr(T, p, weights, fine)))])


def _gauss_newton(T, p, weights, params):
    """Refine (offset, a, b, rate, freq); returns (params, iterations, reason)
    with reason one of ``step_tol``, ``halving_exhausted``, ``max_iter`` and
    ``singular``."""
    offset, a, b, rate, freq = params
    ssr = None
    for iteration in range(1, MAX_ITERATIONS + 1):
        env = np.exp(-rate * T)
        arg = TWO_PI * freq * T
        cos_t, sin_t = np.cos(arg), np.sin(arg)
        osc = a * cos_t + b * sin_t
        resid = (offset + env * osc - p) * weights
        ssr = float(resid @ resid)
        jac = np.column_stack(
            [
                np.ones_like(T),
                env * cos_t,
                env * sin_t,
                -T * env * osc,
                TWO_PI * T * env * (-a * sin_t + b * cos_t),
            ]
        ) * weights[:, None]
        try:
            step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        except np.linalg.LinAlgError:
            return (offset, a, b, rate, freq), iteration, "singular"
        scale = np.maximum(np.abs([offset, a, b, rate, freq]), 1.0)
        rel_step = float(np.max(np.abs(step) / scale))

        # plain Gauss-Newton with step halving as a guard against overshoot
        shrink = 1.0
        for _ in range(30):
            trial = np.array([offset, a, b, rate, freq]) + shrink * step
            r = (_model(T, *trial) - p) * weights
            if float(r @ r) <= ssr or rel_step * shrink < STEP_TOLERANCE:
                offset, a, b, rate, freq = trial
                break
            shrink *= 0.5
        else:
            return (offset, a, b, rate, freq), iteration, "halving_exhausted"
        if rel_step * shrink < STEP_TOLERANCE:
            return (offset, a, b, rate, freq), iteration, "step_tol"
    return (offset, a, b, rate, freq), MAX_ITERATIONS, "max_iter"


def fit_damped_sinusoid(scan: FringeScan) -> FitResult:
    """Fit ``offset + A*exp(-T/tau)*cos(2*pi*f*T + phase)`` to a scan.

    Uses per-point standard deviations as inverse weights when every point
    carries one, unweighted least squares otherwise.  Needs at least 8
    points on a strictly increasing grid.  A zero-variance input is
    reported as amplitude 0, ``converged=False`` and reason
    ``zero_variance`` rather than an error.

    Returns
    -------
    FitResult
        Amplitude normalized to be >= 0 with the phase folded into
        [0, 2*pi); frequency in Hz; ``decay_time`` in seconds (``inf``
        when no damping is resolved, negative for a growing envelope).
    """
    if scan.p.ndim != 1:
        raise ValueError("fit needs one fringe; fit the rows of a batch one by one")
    if len(scan) < 8:
        raise FitError(f"need at least 8 points to fit, got {len(scan)}")
    T = np.asarray(scan.T, dtype=float)
    p = np.asarray(scan.p, dtype=float)
    if not np.all(np.diff(T) > 0.0):
        raise FitError("scan times must be strictly increasing")

    data_sd = float(np.std(p))
    if data_sd == 0.0:
        return FitResult(
            amplitude=0.0,
            frequency=0.0,
            phase=0.0,
            offset=float(p[0]),
            decay_time=math.inf,
            rms_residual=0.0,
            converged=False,
            residual_threshold=0.0,
            iterations=0,
            reason="zero_variance",
        )

    weights = np.ones_like(T)
    if np.all(scan.sd > 0.0):
        weights = 1.0 / np.asarray(scan.sd, dtype=float)

    freq0 = _coarse_frequency(T, p, weights)
    span = float(T[-1] - T[0])
    best = None
    for rate_seed in _RATE_SEEDS:
        rate = rate_seed / span
        coef, ssr = _linear_fit(T, p, weights, freq0, rate)
        if best is None or ssr < best[0]:
            best = (ssr, coef, rate)
    _, (offset, a, b), rate = best

    (offset, a, b, rate, freq), iterations, reason = _gauss_newton(
        T, p, weights, (float(offset), float(a), float(b), rate, freq0)
    )

    # canonical form: positive frequency, amplitude >= 0, phase in [0, 2*pi)
    if freq < 0.0:
        freq, b = -freq, -b
    amplitude = math.hypot(a, b)
    phase = math.atan2(-b, a) % TWO_PI
    # an envelope that changes by < 1e-9 over the scanned window is
    # indistinguishable from no damping
    decay_time = math.inf if abs(rate) * span < 1e-9 else 1.0 / rate

    rms = float(np.sqrt(np.mean((_model(T, offset, a, b, rate, freq) - p) ** 2)))
    if reason == "step_tol" and not (amplitude > 0.0 and rms <= data_sd):
        reason = "residual"
    return FitResult(
        amplitude=amplitude,
        frequency=float(freq),
        phase=float(phase),
        offset=float(offset),
        decay_time=decay_time,
        rms_residual=rms,
        converged=reason == "step_tol",
        residual_threshold=data_sd,
        iterations=iterations,
        reason=reason,
    )


def fringe_visibility(scan: FringeScan) -> float:
    """``(max - min) / (max + min)`` of the scanned probabilities.

    Zero when the scan is identically zero (max + min = 0).
    """
    if len(scan) == 0:
        raise FitError("scan must not be empty")
    hi = float(np.max(scan.p))
    lo = float(np.min(scan.p))
    total = hi + lo
    if total == 0.0:
        return 0.0
    return (hi - lo) / total


def phase_spread(fits: SequenceType[FitResult]) -> float:
    """Length of the smallest circular arc containing all fitted phases.

    Negative-amplitude results would be folded to the canonical
    ``amplitude >= 0`` form first (adding pi to the phase); the fitter in
    this module already returns that form.  Identical phases give 0; a
    full wrap approaches 2*pi.
    """
    fits = list(fits)
    if len(fits) < 2:
        raise FitError(f"need at least two fits, got {len(fits)}")
    bad = [i for i, f in enumerate(fits) if not f.converged]
    if bad:
        raise FitError(f"non-converged fits at indices {bad}")
    phases = np.sort(np.array([f.phase for f in fits], dtype=float) % TWO_PI)
    gaps = np.diff(np.concatenate([phases, [phases[0] + TWO_PI]]))
    return float(TWO_PI - np.max(gaps))
