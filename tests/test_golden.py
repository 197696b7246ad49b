"""Seeded outputs compared byte for byte against files in ``tests/data``.

The files hold the CLI CSV of every seeded single-shot protocol, the
8-phase key sweep of every sweepable protocol, one small Monte Carlo
ensemble and the noiseless fringes of every sequence builder.  Any change
to the readout, the scan engine or the random stream order that moves a
single bit of output fails here.

Rewrite the files (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import math
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from ramseylock import (
    ROTATING,
    FieldParams,
    FrameConvention,
    NoiseModel,
    ScrambleKey,
    WriteKey,
    build_double_retrieved,
    build_double_scrambled,
    build_retrieved,
    build_scrambled,
    build_write_read,
    monte_carlo_scramble,
    plan_double_retrieval,
    plan_retrieval,
    scan,
)
from ramseylock.cli import run
from ramseylock.config import parse_config

DATA = Path(__file__).parent / "data"
TWO_PI = 2.0 * math.pi

#: table1.cfg without its protocol line, plus a second scrambling field,
#: the two stacked-scheme pulses and a seeded noise block with contrast decay.
_EXTRA_LINES = (
    "field S2 rabi_hz=240 detuning_hz=80\n"
    "pulse scramble1 field=S tau_s=0.00148 phase_rad=random\n"
    "pulse scramble2 field=S2 tau_s=0.0008 phase_rad=2.0\n"
    "noise atoms=50000 repeats=5 seed=20170729 contrast_wri_s=0.1\n"
)

SINGLE = ("ramsey", "scramble", "retrieve", "double-scramble", "double-retrieve", "attack")
SWEEP = ("scramble", "retrieve", "double-scramble", "double-retrieve")


def _config_text(protocol: str, sweep: bool) -> str:
    table = resources.files("ramseylock.data").joinpath("table1.cfg").read_text()
    text = table.replace("protocol ramsey\n", "") + _EXTRA_LINES + f"protocol {protocol}\n"
    return text + ("sweep phis=8\n" if sweep else "")


def _cli_csv(protocol: str, sweep: bool) -> bytes:
    out = io.StringIO()
    code = run(parse_config(_config_text(protocol, sweep)), out)
    assert code == 0
    return out.getvalue().encode()


def _monte_carlo_csv() -> bytes:
    """3 trials x 41 points: each trial's scan, then the pooled scan."""
    write = WriteKey(FieldParams(TWO_PI * 565.0, TWO_PI * 110.0, "W"), tau=0.44e-3)
    key = ScrambleKey(FieldParams(TWO_PI * 169.0, TWO_PI * 100.0, "S"), 1.48e-3, 1.0, 5e-3)
    model = NoiseModel(linewidth=0.05, atom_count=50_000, repeats=5, seed=1707)
    result = monte_carlo_scramble(write, key, np.arange(41) * 5e-4, 3, model)
    rows = ["trial,T_s,P_e,sd"]
    for name, sc in [*enumerate(result.scans), ("pooled", result.pooled)]:
        rows += [
            f"{name},{float(T)!r},{float(p)!r},{float(sd)!r}" for T, p, sd in zip(sc.T, sc.p, sc.sd)
        ]
    return ("\n".join(rows) + "\n").encode()


def _noiseless_templates(frame, clock):
    """One scanned template per sequence builder, in one frame and clock convention."""
    write = WriteKey(FieldParams(TWO_PI * 565.0, TWO_PI * 110.0, "W"), tau=0.44e-3)
    slow = FieldParams(TWO_PI * 169.0, TWO_PI * 100.0, "S")
    fast = FieldParams(TWO_PI * 5000.0, TWO_PI * 100.0, "S")
    key = ScrambleKey(slow, 1.48e-3, 1.0, 5e-3)
    wide_tau = 0.8 * math.pi / fast.rabi
    stacked = plan_double_retrieval(
        fast.detuning, fast.detuning, wide_tau, 1e-3, 1e-3, clock_during_pulses=clock
    )
    key_1 = ScrambleKey(fast, wide_tau, 2.0, 5e-3)
    key_2 = ScrambleKey(fast, wide_tau, 4.0, stacked.T2)
    kw = dict(frame=frame, clock_during_pulses=clock, scanned=True)
    return {
        "write_read": build_write_read(write, 0.0, **kw),
        "scrambled": build_scrambled(write, key, 0.0, **kw),
        "retrieved": build_retrieved(write, key, plan_retrieval(slow.detuning, 1e-3), 0.0, **kw),
        "double_scrambled": build_double_scrambled(write, key_1, key_2, 0.0, **kw),
        "double_retrieved": build_double_retrieved(
            write, key_1, key_2, stacked, 0.0, frame=frame, scanned=True
        ),
        # the retrieved template over a (4, 1) axis of scramble key phases
        "retrieved_keys": build_retrieved(
            write,
            replace(key, phi_S=np.linspace(0.0, TWO_PI, 4, endpoint=False)[:, None]),
            plan_retrieval(slow.detuning, 1e-3),
            0.0,
            **kw,
        ),
    }


def _noiseless_csv() -> bytes:
    """41-point noiseless scans of every builder, rotating and lab frame,
    clock off and on; a key-axis batch gives one row block per key phase."""
    rows = ["scan,frame,clock,key,T_s,P_e"]
    frames = (("rotating", ROTATING), ("lab", FrameConvention("lab", TWO_PI * 1e4)))
    for frame_name, frame in frames:
        for clock in (False, True):
            for name, template in _noiseless_templates(frame, clock).items():
                sc = scan(template, np.arange(41) * 5e-4)
                for k, p_row in enumerate(np.atleast_2d(sc.p)):
                    rows += [
                        f"{name},{frame_name},{int(clock)},{k},{float(T)!r},{float(p)!r}"
                        for T, p in zip(sc.T, p_row)
                    ]
    return ("\n".join(rows) + "\n").encode()


GOLDENS = {
    **{f"cli_{p}.csv": (lambda p=p: _cli_csv(p, False)) for p in SINGLE},
    **{f"cli_sweep_{p}.csv": (lambda p=p: _cli_csv(p, True)) for p in SWEEP},
    "monte_carlo_scramble.csv": _monte_carlo_csv,
    "noiseless_scans.csv": _noiseless_csv,
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_seeded_output_matches_golden(name):
    assert GOLDENS[name]() == (DATA / name).read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, make in GOLDENS.items():
        (DATA / name).write_bytes(make())
        print(f"wrote {DATA / name}")
