"""Seeded outputs compared byte for byte against files in ``tests/data``.

The files hold the CLI CSV of every seeded single-shot protocol, the
8-phase key sweep of every sweepable protocol and one small Monte Carlo
ensemble.  Any change to the readout, the scan engine or the random
stream order that moves a single bit of seeded output fails here.

Rewrite the files (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from ramseylock import FieldParams, NoiseModel, ScrambleKey, WriteKey, monte_carlo_scramble
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


GOLDENS = {
    **{f"cli_{p}.csv": (lambda p=p: _cli_csv(p, False)) for p in SINGLE},
    **{f"cli_sweep_{p}.csv": (lambda p=p: _cli_csv(p, True)) for p in SWEEP},
    "monte_carlo_scramble.csv": _monte_carlo_csv,
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_seeded_output_matches_golden(name):
    assert GOLDENS[name]() == (DATA / name).read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, make in GOLDENS.items():
        (DATA / name).write_bytes(make())
        print(f"wrote {DATA / name}")
