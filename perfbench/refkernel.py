"""Fixed reference kernel and the drift correction built on it.

The benchmark host changes speed by up to 2x over a few seconds, so a raw
wall-clock time says as much about the host as about the program.  The
benchmark therefore runs this kernel in the gaps between items and scales
every item time by ``NOMINAL_S / local_ref``, where ``local_ref`` is the
mean kernel time in the two gaps before and the two gaps after the item.
The mean, not the median: the host slows in bursts, an item absorbs every
burst that falls inside it, and only the mean lets the kernel calls absorb
them in the same proportion.  A corrected time reads as "seconds on a
host where the kernel takes ``NOMINAL_S``".

The kernel's work mirrors the program's (see ``kernel``).  It lives here,
not in the program, so no change to the program can move it.  README.md
gives the run-to-run spreads measured with and without the correction.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Typical kernel time on the reference host (2-core Xeon VM, Python
#: 3.11.7, numpy 2.4.6), which itself ranged from 1.3 to 2.4 ms.  Set once;
#: changing it rescales every corrected time and is a benchmark change.
NOMINAL_S = 1.5e-3

#: Kernel calls in each gap between two items.
CALLS_PER_GAP = 4

_rng = np.random.default_rng(20171)
_PHASES = tuple(float(x) for x in _rng.uniform(0.0, 2.0 * math.pi, 600))
_FREQS = np.linspace(0.0, 5000.0, 128)
_TIMES = np.arange(200) * 1e-4
_DESIGN = _rng.standard_normal((200, 5))
_DATA = _rng.standard_normal(200)
_C, _S = math.cos(math.pi / 8), math.sin(math.pi / 8)


@dataclass(frozen=True)
class _Amplitudes:
    g: complex
    e: complex

    def __post_init__(self):
        if not math.isfinite(abs(self.g) + abs(self.e)):
            raise ValueError("amplitudes must be finite")


def kernel() -> float:
    """One reference call (about ``NOMINAL_S``).

    Four parts of similar cost, one per kind of work the program does:
    complex-scalar arithmetic (the 2x2 spinor algebra), small validated
    frozen objects (the per-point states and unitaries), tiny numpy calls
    (per-point projective readout) and fitter-sized numpy/LAPACK calls.
    Which part tracks the host best differs by workload, so all four are
    kept rather than one tuned to a single workload.
    """
    g, e = 1 + 0j, 0j
    for phi in _PHASES:
        w = cmath.exp(1j * phi)
        g, e = _C * g - 1j * _S * w.conjugate() * e, -1j * _S * w * g + _C * e
    state = _Amplitudes(g, e)
    for phi in _PHASES[:250]:
        w = cmath.exp(1j * phi)
        state = _Amplitudes(_C * state.g - 1j * _S * w.conjugate() * state.e,
                            -1j * _S * w * state.g + _C * state.e)
    acc = abs(state.g) ** 2
    rng = np.random.default_rng(1)
    for _ in range(25):
        fractions = rng.binomial(50_000, 0.3, size=5) / 50_000.0
        acc += float(np.mean(fractions)) + float(np.std(fractions, ddof=1))
    acc += float(np.cos(np.outer(_FREQS, _TIMES)).sum())
    acc += float(np.linalg.lstsq(_DESIGN, _DATA, rcond=None)[0].sum())
    return acc


def gap(calls: int = CALLS_PER_GAP) -> list[float]:
    """Run the kernel ``calls`` times; return each call's seconds."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def factor(gaps: list[list[float]]) -> float:
    """Correction factor ``NOMINAL_S / mean`` over the given gaps."""
    return NOMINAL_S / statistics.fmean(t for g in gaps for t in g)
