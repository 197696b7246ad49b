"""Fringe analysis: damped-sinusoid fitting and circular phase statistics.

Every simulated (or measured) interference scan is reduced the same way: a
least-squares fit of::

    p(T) = offset + amplitude * exp(-T / decay_time) * cos(2*pi*frequency*T + phase)

``fit_many`` fits every fringe of a ``(K, N)`` batch (a key-phase sweep,
say) at once with ``(K, N)`` arrays; ``fit_damped_sinusoid`` is its
one-fringe form, and a row's result never depends on the other rows.

The fitter is deterministic and derivative-based.  The frequency seed is
the peak of the generalized Lomb-Scargle periodogram (Zechmeister &
Kuerster 2009): the trial frequency with the least weighted residual sum
of squares (SSR) of the undamped linear model, whose offset and quadrature
amplitudes are solved exactly.  The trial frequencies are the bins of a
zero-padded FFT on a uniform grid, which supplies every sum the SSR needs,
and a grid over [0, Nyquist] on a non-uniform one, where the SSR is
evaluated directly; the seed is the vertex of the parabola through the
least bin and its neighbours.  A few envelope-rate seeds complete the
starting point; Gauss-Newton iterations refine all five parameters, and
the result records why they stopped.  Fitted phases feed the
circular-spread statistic that quantifies how much key-phase ambiguity a
scramble stage injects and how completely a retrieve stage removes it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence as SequenceType

import numpy as np

from .errors import FitError
from .sequence import FringeScan
from .spinor import TWO_PI

#: Periodogram seed resolution: the Lomb-Scargle SSR is evaluated at no
#: fewer than COARSE_GRID_SIZE frequencies over [0, Nyquist] and refined by
#: a parabolic vertex: on a uniform grid at the bins of an FFT zero-padded to
#: about PAD_FACTOR times the scan length (or more, to reach that count),
#: rounded to a fast length (``_fast_length``); on a non-uniform grid
#: directly, at exactly COARSE_GRID_SIZE frequencies.
PAD_FACTOR = 8
COARSE_GRID_SIZE = 512

#: Relative spacing deviation below which a grid counts as uniform.
UNIFORM_TOLERANCE = 1e-9

#: Spread (max - min) relative to the largest |p| at or below which a row
#: counts as constant: such a spread is rounding, not a fringe, and a fit
#: would split the constant arbitrarily between offset and amplitude.
FLAT_TOLERANCE = 1e-12

#: Gauss-Newton iteration cap and relative-step convergence threshold.
MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-10

#: Envelope rates tried (in units of 1/span) during initialization.
_RATE_SEEDS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)

#: Why a fit stopped.  Converged, with a fringe that explains the data:
#: ``step_tol``, the full Gauss-Newton step fell below STEP_TOLERANCE, or
#: ``ssr_flat``, no step promised an SSR reduction beyond rounding.
#: ``residual``: either held, but the rms residual exceeds the data's
#: standard deviation, or the fitted fringe is zero; ``halving_exhausted``:
#: 30 step halvings found no decrease; ``max_iter``: MAX_ITERATIONS steps
#: ran out; ``singular``: the step could not be solved; ``zero_variance``:
#: the data are constant to FLAT_TOLERANCE, so no fit was attempted.
FIT_REASONS = ("step_tol", "ssr_flat", "residual", "halving_exhausted", "max_iter", "singular",
               "zero_variance")
_CONVERGED = FIT_REASONS[:2]


@dataclass(frozen=True)
class FitResult:
    """Damped-sinusoid parameters extracted from one scan.

    ``decay_time`` may be ``inf`` (no detectable damping) and is negative
    for a growing envelope, so ``exp(-T / decay_time)`` always reproduces
    the fitted envelope.  ``converged`` is set when the iteration reached
    its step tolerance or an SSR flat to rounding and the remaining
    root-mean-square residual is below ``residual_threshold``, which is
    recorded alongside (the standard deviation of the input data, i.e. the
    residual of fitting no fringe at all).

    ``iterations`` counts Gauss-Newton steps; ``reason`` says why they
    stopped (see ``FIT_REASONS``) and is ``"step_tol"`` or ``"ssr_flat"``
    exactly when ``converged`` is set.
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
        if self.converged != (self.reason in _CONVERGED):
            raise ValueError(f"converged must hold exactly when reason is one of {_CONVERGED}")


def _evaluate(T, p, weights, x):
    """The curve of each row of ``x`` (offset, a, b, rate, freq) on ``T``:
    env, cos, sin, ``a*cos + b*sin``, the weighted residual and its SSR."""
    offset, a, b, rate, freq = x.T[..., None]
    env = np.exp(-rate * T)
    arg = TWO_PI * freq * T
    cos_t, sin_t = np.cos(arg), np.sin(arg)
    osc = a * cos_t + b * sin_t
    resid = (offset + env * osc - p) * weights
    return env, cos_t, sin_t, osc, resid, np.einsum("kn,kn->k", resid, resid)


def _normal_solve(w2, p, c, s, cc, cs, ss, cp, sp):
    """Weighted least squares of ``offset + a*cos + b*sin`` from its normal
    equations.  ``w2`` and ``p`` hold one fringe per row; each later
    argument holds, per row, one weighted sum (of cos, sin, cos^2, cos*sin,
    sin^2, p*cos, p*sin) for each of its trial models.  Returns the
    ``(K, 1)`` sums ``P`` of ``w2 * p`` and ``total`` of ``w2``,
    then ``a``, ``b`` and the residual sum of squares (SSR) of each model,
    written over ``cc`` .. ``sp``.  A model's offset is
    ``(P - c*a - s*b) / total``; only the caller that keeps one forms it."""
    total = w2.sum(axis=-1)[:, None]
    wp = w2 * p
    P = wp.sum(axis=-1)[:, None]
    Q = (wp * p).sum(axis=-1)[:, None]
    # a ridge proportional to the gram scale keeps the degenerate cos/sin
    # systems (f = 0 and f = Nyquist have a vanishing sin column) solvable;
    # the offset is solved exactly, so its SSR carries no ridge bias
    ridge = 1e-9 * np.maximum(total, 1.0)
    # eliminate the offset, then solve the remaining 2x2 system
    u, v = c / total, s / total
    # the 2x2 system and its solution overwrite the sums; ``t`` holds each product
    t = u * c
    a11 = np.subtract(np.add(cc, ridge, out=cc), t, out=cc)
    a12 = np.subtract(cs, np.multiply(u, s, out=t), out=cs)
    a22 = np.subtract(np.add(ss, ridge, out=ss), np.multiply(v, s, out=t), out=ss)
    b1 = np.subtract(cp, np.multiply(u, P, out=t), out=cp)
    b2 = np.subtract(sp, np.multiply(v, P, out=t), out=sp)
    det = np.subtract(np.multiply(a11, a22, out=u), np.multiply(a12, a12, out=t), out=u)
    a = np.subtract(np.multiply(a22, b1, out=v), np.multiply(a12, b2, out=t), out=v)
    a /= det
    b = np.subtract(np.multiply(a11, b2, out=a11), np.multiply(a12, b1, out=t), out=a11)
    b /= det
    ssr = np.add(np.multiply(a, b1, out=b1), np.multiply(b, b2, out=b2), out=b1)
    return P, total, a, b, np.subtract(Q - P * P / total, ssr, out=ssr)


def _spectral_ssr(w2, p, z1, z2, zp):
    """SSR of the undamped linear model at each trial frequency omega from
    the complex sums ``z1`` of ``w2 * exp(-i*omega*t)``, ``z2`` of
    ``w2 * exp(-2i*omega*t)`` and ``zp`` of ``w2 * p * exp(-i*omega*t)``:
    the squared and cross terms come from the doubled frequency."""
    total = w2.sum(axis=-1)[:, None]
    return _normal_solve(
        w2, p, z1.real, -z1.imag, 0.5 * (total + z2.real), -0.5 * z2.imag,
        0.5 * (total - z2.real), zp.real, -zp.imag,
    )[-1]


def _powers(r, count):
    """Rows ``r**0 .. r**(count - 1)`` of the phasor row ``r``."""
    powers = np.broadcast_to(r, (count, r.size)).copy()
    powers[0] = 1.0
    return np.cumprod(powers, axis=0, out=powers)


def _grid_ssr(T, p, weights, step, count):
    """The SSR of each row at the ``count`` frequencies ``j * step``, with
    the sums evaluated directly on ``T``.

    ``exp(-i*omega_j*t)`` is ``r**j``, ``r = exp(-i*step*t)``, and the
    doubled frequencies take the even powers ``r**(2j)``.  Each power
    ``r**(q*baby + i)`` is a giant step ``r**(q*baby)``, applied to the
    rows, times a baby step ``r**i``, which all rows share in one matrix
    product.  Both tables stay a few dozen rows long, where a table of
    every power would have ``2 * count - 1``."""
    w2 = weights * weights
    r = np.exp(-1j * TWO_PI * step * (T - T[0]))
    powers = 2 * count - 1
    baby = math.isqrt(3 * powers)
    small = _powers(r, baby)
    big = _powers(small[-1] * r, -(-powers // baby))
    rows = np.stack([w2, w2 * p], axis=1)[:, :, None, :] * big
    sums = (rows.reshape(len(p), -1, T.size) @ small.T).reshape(len(p), 2, -1)
    return _spectral_ssr(w2, p, sums[:, 0, :count], sums[:, 0, :powers:2], sums[:, 1, :count])


def _periodogram_ssr(p, weights, size):
    """The same SSR on a uniform grid at the ``size // 2 + 1`` frequencies
    ``k / (size * dt)``, with every sum read off one real FFT of the rows
    ``w2`` and ``w2 * p`` zero-padded to ``size``; bin ``2k`` past the half
    spectrum is the conjugate of bin ``size - 2k``."""
    w2 = weights * weights
    z1, zp = np.fft.rfft(np.stack([w2, w2 * p]), size)  # sums of w2 * exp(-i * omega_k * t)
    doubled = 2 * np.arange(z1.shape[-1])
    z2 = z1[:, np.minimum(doubled, size - doubled)]
    z2[:, size // 4 + 1:].imag *= -1.0  # conjugate the folded bins
    return _spectral_ssr(w2, p, z1, z2, zp)


@functools.cache
def _fast_length(target):
    """The 2*3*5-smooth length nearest ``target``, the longer on a tie: an
    FFT of radix-2, -3 and -5 passes only, with bins a few percent off."""
    powers = range(target.bit_length() + 1)
    return min((2**i * 3**j * 5**k for i in powers for j in powers for k in powers),
               key=lambda n: (abs(n - target), -n))


def _coarse_frequency(T, p, weights):
    """Initial frequency of each row at the generalized Lomb-Scargle peak (the
    SSR minimum), so Gauss-Newton starts inside the right basin: the vertex
    ``(k + shift) / scale`` of the parabola through the SSR at the minimum
    bin ``k`` of the frequencies ``j / scale`` and its neighbours, with
    ``shift`` 0 where the curvature is not positive and clipped to half a
    bin.  The SSR is even about 0 and, on a uniform grid, about Nyquist, so
    there bin 1 (``last - 1``) stands in for the missing neighbour.  A
    uniform grid reads the SSR off a padded FFT, ``scale = size * dt``; a
    non-uniform grid evaluates it directly at COARSE_GRID_SIZE frequencies
    up to ``0.5 / min(dt)``."""
    dt = np.diff(T)
    step = float(dt.min())
    if (np.abs(dt - step) <= UNIFORM_TOLERANCE * step).all():
        size = _fast_length(max(PAD_FACTOR * T.size, 2 * COARSE_GRID_SIZE))
        scale = size * step
        ssr = _periodogram_ssr(p, weights, size)
    else:
        scale = 2 * (COARSE_GRID_SIZE - 1) * step
        ssr = _grid_ssr(T, p, weights, 1.0 / scale, COARSE_GRID_SIZE)
    rows, k, last = np.arange(len(p)), ssr.argmin(axis=-1), ssr.shape[-1] - 1
    left, mid = ssr[rows, np.abs(k - 1)], ssr[rows, k]
    right = ssr[rows, last - np.abs(last - k - 1)]
    curv = left - 2.0 * mid + right
    shift = np.divide(left - right, 2.0 * curv, out=np.zeros_like(mid), where=curv > 0.0)
    return (k + shift.clip(-0.5, 0.5)) / scale


def _rate_seeds(T, p, weights, freq):
    """Starting point (offset, a, b, rate, freq) of each row: the linear
    coefficients at the seed frequency for each envelope rate in
    ``_RATE_SEEDS``, keeping the rate with the least SSR."""
    rates = np.array(_RATE_SEEDS) / (T[-1] - T[0])
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
    P, total, a, b, ssr = _normal_solve(w2, p, c, s, cc, cs, ss, cp, sp)
    rows, pick = np.arange(len(p)), ssr.argmin(axis=-1)
    a, b = a[rows, pick], b[rows, pick]
    offset = (P[:, 0] - c[rows, pick] * a - s[rows, pick] * b) / total[:, 0]
    return np.stack([offset, a, b, rates[pick], freq], axis=-1)


def _normal_steps(jac, resid):
    """Gauss-Newton step of each row from the 5x5 normal equations of its
    columns ``jac[:, k]``, and the SSR reduction ``|J step|^2`` it promises;
    both NaN where the system is exactly singular or not finite."""
    cols = jac.transpose(1, 0, 2)
    normal = cols @ cols.transpose(0, 2, 1)
    grad = cols @ resid[..., None]
    diagonal = normal.reshape(len(normal), -1)[:, ::6]  # a view
    diagonal += diagonal == 0.0  # a zero column, which no data can move, gets no step
    try:
        step = np.linalg.solve(normal, -grad)[..., 0]
    except np.linalg.LinAlgError:  # some row's LU meets an exactly zero pivot
        singular = ~(np.abs(np.linalg.det(normal)) > 0.0)
        normal[singular] = np.eye(5)
        step = np.linalg.solve(normal, -grad)[..., 0]
        step[singular] = np.nan
    return step, -np.einsum("ki,ki->k", step, grad[..., 0])


def _gauss_newton(T, p, weights, params):
    """Refine (offset, a, b, rate, freq) of each row of ``params`` against
    the same row of ``p``; returns (params, iterations, reasons), with each
    reason one of ``step_tol``, ``ssr_flat``, ``halving_exhausted``,
    ``max_iter`` and ``singular``.  The rows step together, and a row leaves
    the batch when it stops, so no row's outcome depends on another's.
    A full step below STEP_TOLERANCE is taken unevaluated (``step_tol``);
    any other is halved until the SSR does not rise, or until it promises
    no reduction beyond the SSR's rounding ``N * eps * SSR``, where the row
    stops (``ssr_flat``).  Each iterate is evaluated once."""
    params = np.array(params, dtype=float)
    iterations = np.full(len(params), MAX_ITERATIONS)
    reasons = np.full(len(params), "max_iter", dtype=object)
    rows, x, evaluated = np.arange(len(params)), params.copy(), None
    neg_T, two_pi_T, rounding = -T, TWO_PI * T, T.size * np.finfo(float).eps
    columns = np.empty((5, *p.shape))  # d(resid)/d(offset, a, b, rate, freq) of the live rows
    for iteration in range(1, MAX_ITERATIONS + 1):
        if not rows.size:
            break
        env, cos_t, sin_t, osc, resid, ssr = evaluated or _evaluate(T, p, weights, x)
        jac = columns[:, :len(x)]
        ew = np.multiply(env, weights, out=env)
        jac[0] = weights
        np.multiply(ew, cos_t, out=jac[1])
        np.multiply(ew, sin_t, out=jac[2])
        np.multiply(neg_T * ew, osc, out=jac[3])
        np.multiply(two_pi_T * ew, x[:, 2:3] * cos_t - x[:, 1:2] * sin_t, out=jac[4])
        # a row whose residual is not finite has no least-squares step
        singular = ~np.isfinite(ssr)
        if singular.any():
            jac[:, singular] = 0.0
            resid[singular] = 0.0
        step, reduction = _normal_steps(jac, resid)
        singular |= np.isnan(reduction)
        rel_step = (np.abs(step) / np.maximum(np.abs(x), 1.0)).max(axis=1)
        converged = ~singular & (rel_step < STEP_TOLERANCE)
        x[converged] += step[converged]

        # a step scaled by s promises s * (2 - s) times the full one's
        # reduction; rows are gathered with ``take``, cheaper than fancy
        # indexing on few rows
        pending = (~(singular | converged)).nonzero()[0]
        flat, floor = np.zeros(len(x), dtype=bool), rounding * ssr
        shrink, evaluated = 1.0, None
        while pending.size and shrink > 2.0**-30:  # at most 30 trials
            level = shrink * (2.0 - shrink) * reduction.take(pending) <= floor.take(pending)
            flat[pending[level]] = True
            pending = pending[~level]
            if not pending.size:
                break
            trial = x.take(pending, 0) + shrink * step.take(pending, 0)
            # a trial may overflow: an SSR that is not finite fails the test below
            with np.errstate(over="ignore", invalid="ignore"):
                result = _evaluate(T, p.take(pending, 0), weights.take(pending, 0), trial)
            ok = result[5] <= ssr.take(pending)
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


def fit_many(scan: FringeScan) -> list[FitResult]:
    """Fit ``offset + A*exp(-T/tau)*cos(2*pi*f*T + phase)`` to every fringe
    of a scan: one result per row of a ``(K, N)`` batch, in row order, and
    one for a 1-D scan.

    The rows are fitted together with ``(K, N)`` arrays, and each row's
    result is the one it gets when fitted alone.  A row uses its per-point
    standard deviations as inverse weights when every point carries one,
    unweighted least squares otherwise.  Needs at least 8 points on a
    strictly increasing grid.  A row that is constant to rounding
    (spread at most ``FLAT_TOLERANCE`` of its largest magnitude) is
    reported as amplitude 0, ``converged=False`` and reason
    ``zero_variance`` rather than an error.

    Returns
    -------
    list of FitResult
        Amplitudes normalized to be >= 0 with the phases folded into
        [0, 2*pi); frequencies in Hz; ``decay_time`` in seconds (``inf``
        when no damping is resolved, negative for a growing envelope).
        Amplitude and phase refer to T = 0: the fit runs on the scan's own
        clock, ``T - T[0]``, and carries them back; an amplitude that over-
        or underflows on the way reads ``inf`` or 0 and keeps a finite phase.
    """
    if len(scan) < 8:
        raise FitError(f"need at least 8 points to fit, got {len(scan)}")
    T0 = float(scan.T[0])
    T = np.asarray(scan.T, dtype=float) - T0
    p = np.asarray(scan.p, dtype=float).reshape(-1, T.size)
    sd = np.asarray(scan.sd, dtype=float).reshape(p.shape)

    # a constant row keeps these: offset p[0], no fringe, zero_variance
    live = np.ptp(p, axis=-1) > FLAT_TOLERANCE * np.abs(p).max(axis=-1)
    params = np.zeros((len(p), 5))
    params[:, 0] = p[:, 0]
    iterations = np.zeros(len(p), dtype=int)
    reasons = np.full(len(p), "zero_variance", dtype=object)
    rms = np.zeros(len(p))
    scales = np.ones(len(p))
    thresholds = np.where(live, p.std(axis=-1), 0.0)
    if live.any():
        p_live, sd_live = p[live], sd[live]
        weighted = (sd_live > 0.0).all(axis=-1, keepdims=True)
        weights = np.divide(1.0, sd_live, out=np.ones_like(sd_live), where=weighted)
        seeds = _rate_seeds(T, p_live, weights, _coarse_frequency(T, p_live, weights))
        params[live], iterations[live], reasons[live] = _gauss_newton(T, p_live, weights, seeds)
        rms[live] = np.sqrt((_evaluate(T, p_live, 1.0, params[live])[4] ** 2).mean(axis=-1))
        if T0:  # carry (a, b) from T = T0 back to T = 0: turn them, then scale the amplitude
            a, b, rate, freq = params[:, 1:].T
            ab = (a + 1j * b) * np.exp(1j * TWO_PI * freq * T0)
            params[:, 1], params[:, 2] = ab.real, ab.imag
            with np.errstate(over="ignore"):  # a late, damped scan reads amplitude inf
                scales = np.exp(rate * T0)

    span = float(T[-1])
    results = []
    for (offset, a, b, rate, freq), scale, count, reason, residual, threshold in zip(
        params.tolist(), scales.tolist(), iterations.tolist(), reasons, rms.tolist(),
        thresholds.tolist()
    ):
        # canonical form: positive frequency, amplitude >= 0, phase in [0, 2*pi)
        if freq < 0.0:
            freq, b = -freq, -b
        amplitude = math.hypot(a, b) * scale if a or b else 0.0
        phase = math.atan2(-b, a) % TWO_PI
        # an envelope that changes by < 1e-9 over the scanned window is
        # indistinguishable from no damping
        decay_time = math.inf if abs(rate) * span < 1e-9 else 1.0 / rate
        # whether there is a fringe is read off (a, b) before the scale, which can underflow
        if reason in _CONVERGED and not ((a or b) and residual <= threshold):
            reason = "residual"
        results.append(FitResult(
            amplitude=amplitude,
            frequency=freq,
            phase=phase,
            offset=offset,
            decay_time=decay_time,
            rms_residual=residual,
            converged=reason in _CONVERGED,
            residual_threshold=threshold,
            iterations=count,
            reason=reason,
        ))
    return results


def fit_damped_sinusoid(scan: FringeScan) -> FitResult:
    """Fit one fringe: ``fit_many`` of a 1-D scan (see there)."""
    if scan.p.ndim != 1:
        raise ValueError("fit_damped_sinusoid needs one fringe; fit a batch with fit_many")
    return fit_many(scan)[0]


def fringe_visibility(scan: FringeScan) -> float:
    """``(max - min) / (max + min)`` of the scanned probabilities.

    Zero when the scan is identically zero (max + min = 0).
    """
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
