"""Tests for the description-file grammar and the command-line front end."""

import io
import math
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseylock import (
    ConfigError,
    FieldParams,
    FitError,
    FringeScan,
    ScrambleKey,
    WriteKey,
    fit_damped_sinusoid,
    parse_config,
    scan,
    secret_readout,
    serialize_config,
)
from ramseylock import analysis, cli
from ramseylock.cli import main, run
from ramseylock.config import (
    PROTOCOLS,
    _SCRAMBLES,
    ExperimentConfig,
    FieldDef,
    GridSpec,
    NoiseSpec,
    PulseDef,
    parse_duration,
)

TWO_PI = 2.0 * math.pi


def table1_text() -> str:
    return resources.files("ramseylock.data").joinpath("table1.cfg").read_text()


@pytest.fixture()
def table1_path(tmp_path):
    path = tmp_path / "table1.cfg"
    path.write_text(table1_text())
    return str(path)


#: One statement of each key=value kind, and a key it needs (``None``:
#: every key of the statement is optional).
_KEYVAL_STATEMENTS = [
    ("field", "field X rabi_hz=100 detuning_hz=10", "detuning_hz"),
    ("pulse", "pulse p field=W tau_s=1e-4 phase_rad=0", "tau_s"),
    ("interval", "interval T3=0.001 T4=0.002", None),
    ("noise", "noise seed=1 atoms=10", None),
    ("sweep", "sweep phis=4", "phis"),
]


def _key_faults():
    """An unknown, a duplicate and (where a key is needed) a missing key
    in each statement of ``_KEYVAL_STATEMENTS``."""
    for keyword, statement, needed in _KEYVAL_STATEMENTS:
        last = statement.split()[-1]
        yield pytest.param(f"{statement} colour=red", keyword, "colour", id=f"{keyword}-unknown")
        yield pytest.param(f"{statement} {last}", keyword, last.partition("=")[0],
                           id=f"{keyword}-duplicate")
        if needed:
            kept = [t for t in statement.split() if not t.startswith(f"{needed}=")]
            yield pytest.param(" ".join(kept), keyword, needed, id=f"{keyword}-missing")


class TestParse:
    def test_shipped_config(self):
        cfg = parse_config(table1_text())
        assert cfg.protocol == "ramsey"
        assert cfg.fields["W"].rabi_hz == 565.0
        assert cfg.fields["W"].detuning_hz == 110.0
        assert cfg.fields["S"].rabi_hz == 169.0
        assert cfg.pulses["write"].tau_s == 0.44e-3
        assert cfg.pulses["scramble"].phase_rad is None
        assert cfg.intervals == {"T1": 5e-3, "T2": 5e-3}
        assert cfg.grid == GridSpec(0.0, 20e-3, 0.1e-3)

    def test_empty_file_misses_protocol(self):
        with pytest.raises(ConfigError, match="protocol"):
            parse_config("")

    def test_dangling_field_reference_names_the_field(self):
        text = "pulse write field=X tau_s=1e-4 phase_rad=0\nprotocol ramsey\n"
        with pytest.raises(ConfigError, match="'X'"):
            parse_config(text)

    def test_unknown_statement_reports_line_number(self):
        text = "protocol ramsey\nbogus statement\n"
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        text = "field W rabi_hz=565 detuning_hz=110 colour=red\nprotocol ramsey\n"
        with pytest.raises(ConfigError, match="colour"):
            parse_config(text)

    @pytest.mark.parametrize("statement, keyword, key", _key_faults())
    def test_key_fault_names_statement_key_and_line(self, statement, keyword, key):
        text = table1_text() + statement + "\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        message = str(info.value)
        assert message.startswith(f"line {len(text.splitlines())}: ")
        assert keyword in message
        assert repr(key) in message or f"{key}=" in message

    @pytest.mark.parametrize("statement", [s for _, s, _ in _KEYVAL_STATEMENTS])
    def test_keyval_statement_reads(self, statement):
        parse_config(table1_text() + statement + "\n")

    def test_interval_set_twice_names_the_key(self):
        text = table1_text() + "interval T1=0.001\n"
        with pytest.raises(ConfigError, match=f"line {len(text.splitlines())}: interval T1 already"):
            parse_config(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nprotocol ramsey  # trailing\n"
        assert parse_config(text).protocol == "ramsey"

    def test_duration_suffixes(self):
        assert parse_duration("20ms") == pytest.approx(0.02)
        assert parse_duration("5us") == pytest.approx(5e-6)
        assert parse_duration("0.25s") == 0.25
        assert parse_duration("0.007") == 0.007


_label = st.text(alphabet="WSABXYZ", min_size=1, max_size=3)
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_positive = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)


@st.composite
def configs(draw):
    labels = draw(st.lists(_label, min_size=1, max_size=3, unique=True))
    fields = {
        lab: FieldDef(lab, draw(_positive), draw(_finite)) for lab in labels
    }
    pulse_names = draw(
        st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=0,
                 max_size=3, unique=True)
    )
    pulses = {
        name: PulseDef(
            name,
            draw(st.sampled_from(labels)),
            draw(_positive),
            draw(st.one_of(st.none(), _finite)),
        )
        for name in pulse_names
    }
    intervals = {}
    for key in ("T1", "T2", "T3", "T4"):
        if draw(st.booleans()):
            intervals[key] = draw(_positive)
    grid = None
    if draw(st.booleans()):
        start = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        step = draw(st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
        spans = draw(st.integers(min_value=0, max_value=50))
        grid = GridSpec(start, start + spans * step, step)
    noise = None
    if draw(st.booleans()):
        noise = NoiseSpec(
            atoms=draw(st.integers(min_value=1, max_value=10**7)),
            repeats=draw(st.integers(min_value=1, max_value=50)),
            seed=draw(st.integers(min_value=0, max_value=2**63 - 1)),
            contrast_wri_s=draw(st.one_of(st.none(), _positive)),
        )
    frame_mode = draw(st.sampled_from(["rotating", "lab"]))
    return ExperimentConfig(
        protocol=draw(st.sampled_from(["ramsey", "scramble", "retrieve", "attack", "fit"])),
        frame_mode=frame_mode,
        frame_omega_a_hz=draw(_finite) if frame_mode == "lab" else 0.0,
        clock_during_pulses=draw(st.booleans()),
        fields=fields,
        pulses=pulses,
        intervals=intervals,
        grid=grid,
        noise=noise,
        sweep_phis=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=256))),
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(configs())
    def test_parse_inverts_serialize(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    def test_shipped_config_round_trips(self):
        cfg = parse_config(table1_text())
        assert parse_config(serialize_config(cfg)) == cfg


class TestRun:
    def test_ramsey_scan_is_bit_identical_across_runs(self, table1_path, capsys):
        argv = [table1_path, "--protocol", "ramsey", "--grid", "0:20ms:0.1ms", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("T_s,P_e,sd\n")
        assert len(first.strip().split("\n")) == 202  # header + 201 points

    def test_retrieve_scan_fits_the_recording_detuning(self, table1_path, capsys):
        assert main([table1_path, "--protocol", "retrieve", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        rows = np.array(
            [[float(x) for x in line.split(",")] for line in out.strip().split("\n")[1:]]
        )
        fit = fit_damped_sinusoid(FringeScan(rows[:, 0], rows[:, 1], rows[:, 2]))
        assert fit.converged
        assert fit.frequency == pytest.approx(110.0, rel=0.01)

    def test_scramble_sweep_emits_one_fit_per_phase(self, table1_path, capsys):
        assert main([table1_path, "--protocol", "scramble", "--sweep-phis", "16"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "phi_S,amplitude,frequency_Hz,phase_rad,offset,decay_s,residual"
        assert len(lines) == 17
        phases = [float(line.split(",")[3]) for line in lines[1:]]
        spread = TWO_PI - max(
            np.diff(sorted(phases) + [min(phases) + TWO_PI])
        )
        assert spread == pytest.approx(0.704 * math.pi, abs=0.15)

    @pytest.mark.parametrize("protocol", ["scramble", "retrieve"])
    def test_sweep_is_one_scan_on_the_key_axis(self, table1_path, capsys, monkeypatch, protocol):
        shapes = []

        def traced(template, grid):
            result = scan(template, grid)
            shapes.append(result.p.shape)
            return result

        monkeypatch.setattr(cli, "scan", traced)
        assert main([table1_path, "--protocol", protocol, "--sweep-phis", "5", "--seed", "4"]) == 0
        assert shapes == [(5, 201)]
        assert len(capsys.readouterr().out.strip().split("\n")) == 6

    def test_attack_scan_depends_on_seed(self, table1_path, capsys):
        assert main([table1_path, "--protocol", "attack", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main([table1_path, "--protocol", "attack", "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first != second

    @pytest.mark.parametrize("clock", [False, True], ids=["clock-off", "clock-on"])
    @pytest.mark.parametrize("protocol", ["attack", "retrieve"])
    def test_attack_and_retrieve_are_secret_readout(self, protocol, clock):
        # table 1 without T2: the CLI's attack is the blind secret_readout
        # with the run's generator, and its retrieve the cooperative one with
        # the key phase the generator draws first, bit for bit
        cfg = parse_config(table1_text().replace("interval T1=0.005 T2=0.005",
                                                 "interval T1=0.005"))
        cfg.protocol, cfg.clock_during_pulses = protocol, clock
        W, S = (FieldParams(TWO_PI * f.rabi_hz, TWO_PI * f.detuning_hz, f.label)
                for f in (cfg.fields["W"], cfg.fields["S"]))
        write_key = WriteKey(W, cfg.pulses["write"].tau_s, cfg.pulses["write"].phase_rad)
        tau, T1 = cfg.pulses["scramble"].tau_s, cfg.intervals["T1"]
        for seed in range(10):
            out = io.StringIO()
            assert run(cfg, out, seed=seed) == 0
            T, p = np.array([[float(x) for x in line.split(",")[:2]]
                             for line in out.getvalue().splitlines()[1:]]).T
            rng = np.random.default_rng(seed)
            if protocol == "attack":
                expected = secret_readout(write_key, ScrambleKey(S, tau, None, T1), T, rng,
                                          clock_during_pulses=clock)
            else:
                key = ScrambleKey(S, tau, float(rng.uniform(0.0, TWO_PI)), T1)
                expected = secret_readout(write_key, key, T, clock_during_pulses=clock)
            assert np.array_equal(p, expected.p)

    def test_attack_scans_the_scramble_template_with_a_drawn_key_phase(self, tmp_path, capsys):
        # noiseless, the key phase is the run's only draw; the declared one is ignored
        attack, scramble = tmp_path / "attack.cfg", tmp_path / "scramble.cfg"
        attack.write_text(table1_text().replace("phase_rad=random", "phase_rad=0.3"))
        for seed in (0, 5):
            phi = float(np.random.default_rng(seed).uniform(0.0, TWO_PI))
            scramble.write_text(table1_text().replace("phase_rad=random", f"phase_rad={phi!r}"))
            assert main([str(attack), "--protocol", "attack", "--seed", str(seed)]) == 0
            drawn = capsys.readouterr().out
            assert main([str(scramble), "--protocol", "scramble"]) == 0
            assert drawn == capsys.readouterr().out

    def test_random_write_phase_is_drawn_from_the_seed(self, tmp_path, capsys):
        # noiseless scramble with a declared key phase: the write phase is the only draw
        path = tmp_path / "write.cfg"
        path.write_text(table1_text().replace("phase_rad=random", "phase_rad=0.3")
                        .replace("phase_rad=0\n", "phase_rad=random\n"))
        scans = []
        for seed in (1, 2, 1):
            assert main([str(path), "--protocol", "scramble", "--seed", str(seed)]) == 0
            scans.append(capsys.readouterr().out)
        assert scans[0] != scans[1] and scans[0] == scans[2]

    @pytest.mark.parametrize("protocol", ["double-scramble", "double-retrieve"])
    def test_random_phases_are_drawn_in_pulse_order(self, tmp_path, capsys, protocol):
        # write, then scramble-1, then scramble-2; noiseless, so nothing else draws
        text = table1_text().replace("protocol ramsey", f"protocol {protocol}").replace(
            "pulse scramble field=S tau_s=0.00148 phase_rad=random",
            "pulse scramble1 field=S tau_s=0.00148 phase_rad=random\n"
            "pulse scramble2 field=S tau_s=0.0012 phase_rad=random",
        ).replace("phase_rad=0", "phase_rad=random")
        drawn, declared = tmp_path / "drawn.cfg", tmp_path / "declared.cfg"
        drawn.write_text(text)
        for phi in np.random.default_rng(6).uniform(0.0, TWO_PI, 3):
            text = text.replace("phase_rad=random", f"phase_rad={float(phi)!r}", 1)
        declared.write_text(text)
        assert main([str(drawn), "--seed", "6"]) == 0
        first = capsys.readouterr().out
        assert main([str(declared)]) == 0
        assert first == capsys.readouterr().out

    def test_retrieve_sweep_with_the_clock_on_is_independent_of_the_key(self, table1_path,
                                                                       capsys):
        # the retrieve plan spends the 1.48 ms scramble pulse when the clock
        # runs; planned for the clock off, this sweep spread by 0.869 rad
        spreads = {}
        for clock in ("off", "on"):
            assert main([table1_path, "--protocol", "retrieve", "--sweep-phis", "16",
                         "--clock-during-pulses", clock, "--seed", "3"]) == 0
            err = capsys.readouterr().err
            spreads[clock] = float(re.fullmatch(r"phase spread over sweep: (\S+) rad\n", err)[1])
        assert spreads["off"] == pytest.approx(0.0331, abs=1e-4)
        assert spreads["on"] == pytest.approx(spreads["off"], abs=1e-3)

    def test_default_grid_is_two_fringe_periods_of_the_write_field(self, tmp_path, capsys):
        path = tmp_path / "nogrid.cfg"
        path.write_text(table1_text().replace("grid 0:20ms:0.1ms\n", ""))
        assert main([str(path)]) == 0
        T = np.array([float(line.split(",")[0])
                      for line in capsys.readouterr().out.strip().split("\n")[1:]])
        assert len(T) == 201 and T[0] == 0.0
        assert T[-1] == pytest.approx(2.0 / 110.0, rel=1e-12)
        assert np.diff(T) == pytest.approx(np.full(200, 0.01 / 110.0), rel=1e-9)

    def test_sweep_reports_one_phase_spread_and_a_fit_none(self, table1_path, tmp_path, capsys):
        assert main([table1_path, "--protocol", "scramble", "--sweep-phis", "4"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("phase spread over sweep: ") and err.count("\n") == 1
        data, cfg = tmp_path / "scan.csv", tmp_path / "fit.cfg"
        assert main([table1_path, "--protocol", "ramsey", "--output", str(data)]) == 0
        cfg.write_text("protocol fit\n")
        assert main([str(cfg), "--input", str(data)]) == 0
        assert capsys.readouterr().err == ""

    def test_output_file(self, table1_path, tmp_path, capsys):
        target = tmp_path / "scan.csv"
        assert main([table1_path, "--protocol", "ramsey", "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("T_s,P_e,sd\n")

    def test_double_retrieve_runs(self, tmp_path, capsys):
        text = table1_text().replace("protocol ramsey", "protocol double-retrieve")
        text = text.replace(
            "pulse scramble field=S tau_s=0.00148 phase_rad=random",
            "pulse scramble1 field=S tau_s=0.00148 phase_rad=random\n"
            "pulse scramble2 field=S tau_s=0.00148 phase_rad=0.2",
        )
        path = tmp_path / "double.cfg"
        path.write_text(text)
        assert main([str(path), "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("T_s,P_e,sd\n")

    def test_fit_protocol_reads_csv(self, tmp_path, capsys):
        T = np.linspace(0.0, 20e-3, 201)
        p = 0.5 + 0.4 * np.cos(TWO_PI * 110.0 * T + 0.3)
        csv = "T_s,P_e,sd\n" + "\n".join(f"{float(t)!r},{float(v)!r},0.0" for t, v in zip(T, p))
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("protocol fit\n")
        data = tmp_path / "scan.csv"
        data.write_text(csv + "\n")
        assert main([str(cfg), "--input", str(data)]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().split("\n")
        assert header.startswith("phi_S,")
        cells = row.split(",")
        assert float(cells[2]) == pytest.approx(110.0, rel=1e-6)
        assert float(cells[3]) == pytest.approx(0.3, abs=1e-6)

    @pytest.mark.parametrize("sd", [[1e-160], [5e-324], [1e200], [1e-3, 1e-300]])
    def test_fit_protocol_fits_with_extreme_sd(self, tmp_path, capsys, sd):
        # weights 1/sd whose squares over- or underflow: the fit ran into
        # NaN, warned and exited 4
        T = np.linspace(0.0, 20e-3, 201)
        p = 0.5 + 0.4 * np.cos(TWO_PI * 110.0 * T + 0.3)
        csv = "T_s,P_e,sd\n" + "\n".join(
            f"{float(t)!r},{float(v)!r},{sd[i % len(sd)]!r}" for i, (t, v) in enumerate(zip(T, p)))
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("protocol fit\n")
        data = tmp_path / "scan.csv"
        data.write_text(csv + "\n")
        assert main([str(cfg), "--input", str(data)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        cells = out.strip().split("\n")[1].split(",")
        assert float(cells[2]) == pytest.approx(110.0, rel=1e-6)
        assert float(cells[3]) == pytest.approx(0.3, abs=1e-6)


    def test_fit_csv_header_may_follow_comment_lines(self, tmp_path, capsys):
        T = np.linspace(0.0, 20e-3, 201)
        p = 0.5 + 0.4 * np.cos(TWO_PI * 110.0 * T + 0.3)
        rows = "\n".join(f"{float(t)!r},{float(v)!r},0.0" for t, v in zip(T, p))
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("protocol fit\n")
        data = tmp_path / "scan.csv"
        data.write_text("# exported scan\n#\n\nT_s,P_e,sd\n" + rows + "\n")
        assert main([str(cfg), "--input", str(data)]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert float(row.split(",")[2]) == pytest.approx(110.0, rel=1e-6)


def _ascii_float(token: str) -> float:
    """``float`` of a field that holds no ``_`` and only ASCII characters."""
    if "_" in token or not token.isascii():
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def _read_line_by_line(stream) -> FringeScan:
    """The scan CSV reader as it was before the one-pass numpy parse, with
    fields read by ``_ascii_float``: the oracle for ``cli._read_scan_csv``."""
    rows, linenos = [], []
    header_allowed = True
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header_allowed:
            header_allowed = False
            if line.lower().startswith("t"):
                continue
        parts = line.split(",")
        if len(parts) not in (2, 3):
            raise FitError(f"scan CSV line {lineno}: expected T_s,P_e[,sd]")
        try:
            rows.append((_ascii_float(parts[0]), _ascii_float(parts[1]),
                         _ascii_float(parts[2]) if len(parts) == 3 else 0.0))
        except ValueError as exc:
            raise FitError(f"scan CSV line {lineno}: {exc}") from exc
        linenos.append(lineno)
    if not rows:
        raise FitError("scan CSV holds no data rows")
    T, p, sd = np.asarray(rows, dtype=float).T
    fault = cli._scan_fault(T, p, sd)
    if fault is not None:
        line = linenos[fault.index]
        raise FitError(f"scan CSV line {line}: {fault.invariant}, got {fault.value}")
    return FringeScan._trusted(T, p, sd)


#: Tokens that read differently (or not at all) in ``float`` and numpy, or
#: break a scan invariant: padding, an underscore, a hex float, non-finite
#: values, an empty field, a mid-line comment, p > 1 and a negative sd.
_ODD_TOKENS = (" 0.25 ", "\t0.5", "1_0", "0x1p-3", "nan", "inf", "-inf", "1e999", "", "-0.0",
               "0.5 # note", "+0.5", "1.5", "-1", "x", "\u0661")


@st.composite
def _scan_csv_texts(draw):
    """Scan CSV texts, clean (all rows of one width, one line ending) or
    messy (``#``, blank and blank-looking lines, mixed widths, odd tokens,
    trailing commas, CRLF and lone ``\\r``)."""
    messy = draw(st.booleans())
    width = draw(st.sampled_from([2, 3]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["T_s,P_e,sd", "T_s,P_e", " t", "# T_s,P_e,sd"])))
    for i in range(draw(st.integers(0, 10))):
        line = draw(st.sampled_from(("row",) * 5 + ("#", "# note", "", "  ", "\x0c")))
        if line == "row" or not messy:
            w = draw(st.sampled_from([1, 2, 3, 4])) if messy and draw(st.booleans()) else width
            tokens = [repr(i * 1e-4 + draw(st.floats(0.0, 5e-5))),
                      repr(draw(st.floats(0.0, 1.0))), repr(draw(st.floats(0.0, 0.1))), "0.1"][:w]
            if draw(st.integers(0, 3)) == 0:
                tokens[draw(st.integers(0, w - 1))] = draw(st.sampled_from(_ODD_TOKENS))
            line = ",".join(tokens) + ("," if messy and draw(st.integers(0, 5)) == 0 else "")
        lines.append(line)
    endings = st.sampled_from(["\n", "\r\n", "\r"]) if messy else st.just(ending)
    text = "".join(line + draw(endings) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _parsed(reader, text):
    try:
        sc = reader(io.StringIO(text))
    except FitError as exc:
        return str(exc)
    return [(a.tobytes(), a.shape, a.strides) for a in (sc.T, sc.p, sc.sd)]


class TestScanCsvReader:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=400, deadline=None)
    @given(_scan_csv_texts())
    # a lone "\r" and a blank or "\r"-only line: a numpy that ends a row at each "\r"
    # and skips empty rows reads as many rows as there are lines
    @example("0,0.5\r1e-3,0.6\n\n2e-3,0.7")
    @example("0,0.5\r1e-3,0.6\n\r\r\n2e-3,0.7")
    # a CRLF blank line, which numpy skips, and a whitespace-only line, which it rejects
    @example("T_s,P_e\r\n0,0.5\r\n\r\n1e-3,0.6\r\n")
    @example("0,0.5\n  \n1e-3,0.6\n")
    # number syntax only Python reads, a non-ASCII space numpy reads, and a
    # non-ASCII header, which is no field
    @example("0,0.5\n1e-3,0.0_5\n")
    @example("0,0.5\n1e-3,\u0661\n")
    @example("0,0.5\n1e-3,\xa00.6\n")
    @example("T_s,P_\u00e9\n0,0.5\n1e-3,0.6\n")
    def test_matches_the_line_by_line_reader(self, text):
        # the same arrays, bit for bit and in the same layout, or the same error
        assert _parsed(cli._read_scan_csv, text) == _parsed(_read_line_by_line, text)


def _fit_csv_exit(tmp_path, rows: list[str]) -> int:
    T = np.linspace(0.0, 20e-3, 30)
    good = [f"{float(t)!r},{0.5 + 0.4 * math.cos(TWO_PI * 110.0 * t)!r},0.01" for t in T]
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("protocol fit\n")
    data = tmp_path / "scan.csv"
    data.write_text("T_s,P_e,sd\n" + "\n".join(good[:5] + rows + good[5:]) + "\n",
                    encoding="utf-8")
    return main([str(cfg), "--input", str(data)])


#: Description errors as ``(text replaced, replacement, message, on_line)``:
#: the reader reports the message on the replacement's last line; the run's
#: own checks (``on_line`` false) name no line.
_DESCRIPTION_FAULTS = [
    pytest.param("rabi_hz=565", "rabi_hz=abc", "bad number for rabi_hz: 'abc'", True,
                 id="bad-number"),
    pytest.param("grid 0:20ms:0.1ms", "grid 0:20ms:0.1ms\nnoise atoms=1.5",
                 "bad integer for atoms: '1.5'", True, id="bad-integer"),
    pytest.param("grid 0:20ms:0.1ms", "grid 0:20ms:0.1ms\nnoise atoms",
                 "noise expects key=value, got 'atoms'", True, id="no-equals"),
    pytest.param("protocol ramsey", "protocol ramsey\nprotocol ramsey",
                 "duplicate protocol statement", True, id="duplicate-statement"),
    pytest.param("frame rotating", "frame bogus",
                 "frame must be 'rotating' or 'lab <omega_a_hz>'", True, id="frame-mode"),
    pytest.param("frame rotating", "frame lab", "lab frame needs the atomic frequency in Hz",
                 True, id="lab-frame-frequency"),
    pytest.param("frame rotating", "frame rotating 5", "rotating frame takes no arguments", True,
                 id="rotating-frame-argument"),
    pytest.param("clock_during_pulses off", "clock_during_pulses maybe",
                 "clock_during_pulses must be 'on' or 'off'", True, id="clock"),
    pytest.param("grid 0:20ms:0.1ms", "grid 0:20ms:0.1ms\nfield", "field needs a name", True,
                 id="field-name"),
    pytest.param("grid 0:20ms:0.1ms", "grid 0:20ms:0.1ms\npulse", "pulse needs a name", True,
                 id="pulse-name"),
    pytest.param("field S rabi", "field W rabi", "field 'W' already defined", True,
                 id="field-twice"),
    pytest.param("pulse scramble", "pulse write", "pulse 'write' already defined", True,
                 id="pulse-twice"),
    pytest.param("protocol ramsey", "protocol bogus",
                 f"protocol must be one of {', '.join(PROTOCOLS)}", True, id="protocol"),
    pytest.param("grid 0:20ms:0.1ms", "grid 0:20ms 0.1ms",
                 "grid takes one <start>:<stop>:<step> token", True, id="grid-tokens"),
    pytest.param("pulse write field=W tau_s=0.00044 phase_rad=0\n", "",
                 "protocol 'ramsey' needs a pulse named 'write'", False, id="no-write-pulse"),
    pytest.param("protocol ramsey\ninterval T1=0.005", "protocol scramble\ninterval",
                 "protocol 'scramble' needs interval T1=", False, id="no-T1"),
    pytest.param("protocol ramsey\ninterval T1=0.005 T2=0.005",
                 "protocol scramble\ninterval T1=1e308 T2=0.005",
                 "interval: the timeline clock and every pulse phase must be finite", False,
                 id="huge-T1"),
]


def _pulse(name: str, **changes):
    """A change to ``cfg`` that replaces fields of pulse ``name``."""
    def change(cfg):
        cfg.pulses[name] = replace(cfg.pulses[name], **changes)
    return change


def _grid(*spec):
    return lambda cfg: setattr(cfg, "grid", GridSpec(*spec))


def _default_grid(detuning_hz: float):
    """A change to ``cfg`` that drops its grid and sets the write detuning."""
    def change(cfg):
        cfg.grid = None
        cfg.fields["W"] = replace(cfg.fields["W"], detuning_hz=detuning_hz)
    return change


def _noise(**spec):
    return lambda cfg: setattr(cfg, "noise", NoiseSpec(**spec))


def _intervals(**values):
    return lambda cfg: cfg.intervals.update(values)


_OVERFLOW = "interval: the timeline clock and every pulse phase must be finite"

#: Values a config built in code can hand to ``run`` that ``parse_config``
#: would refuse, as ``(protocol, change to table 1, message)``; the message
#: starts with the statement that holds the value.
_CODE_FAULTS = [
    pytest.param("ramsey", _noise(atoms=0), "noise: atom_count must be >= 1", id="noise-atoms"),
    pytest.param("ramsey", _noise(repeats=0), "noise: repeats must be >= 1", id="noise-repeats"),
    pytest.param("ramsey", _noise(contrast_wri_s=0.0), "noise: contrast time must be > 0",
                 id="noise-contrast"),
    pytest.param("ramsey", _grid(0.0, 1e-3, -1e-4), "grid needs stop >= start and step > 0",
                 id="grid-negative-step"),
    pytest.param("ramsey", _grid(0.0, 1e-3, 0.0), "grid needs stop >= start and step > 0",
                 id="grid-zero-step"),
    pytest.param("ramsey", _grid(-1e-3, 1e-3, 1e-4), "grid start must be >= 0, got -0.001",
                 id="grid-negative-start"),
    pytest.param("ramsey", _grid(0.0, math.nan, 1e-4),
                 "grid values must be finite, got 0.0:nan:0.0001", id="grid-nan"),
    pytest.param("ramsey", _grid(0.0, math.inf, 1e-4),
                 "grid values must be finite, got 0.0:inf:0.0001", id="grid-inf"),
    pytest.param("ramsey", _grid("0", 1e-3, 1e-4),
                 "grid values must be finite, got '0':0.001:0.0001", id="grid-str"),
    # two periods of a 1e-310 Hz write detuning are not a finite duration
    pytest.param("ramsey", _default_grid(1e-310), "default grid values must be finite, got "
                 "0.0:inf:inf", id="default-grid-inf"),
    pytest.param("retrieve", _grid(0.0, 1e308, 1e307),
                 "grid: the timeline clock and every pulse phase must be finite",
                 id="grid-overflow"),
    pytest.param("ramsey", _pulse("write", tau_s=0.0), "pulse 'write': pulse tau must be > 0",
                 id="write-tau"),
    pytest.param("scramble", _pulse("scramble", tau_s=0.0),
                 "pulse 'scramble': pulse tau must be > 0", id="scramble-tau"),
    pytest.param("scramble", _intervals(T1=-1.0), "interval: T1 must be >= 0, got '-1.0'",
                 id="scramble-T1"),
    pytest.param("retrieve", _intervals(T2=-1.0), "interval: T2 must be >= 0, got '-1.0'",
                 id="retrieve-T2"),
    pytest.param("double-retrieve", _intervals(T3=-1.0), "interval: T3 must be >= 0, got '-1.0'",
                 id="double-retrieve-T3"),
    pytest.param("double-scramble", _intervals(T2=-1.0), "interval: T2 must be >= 0, got '-1.0'",
                 id="double-scramble-T2"),
    pytest.param("double-retrieve", _intervals(T2=-1.0), "interval: T2 must be >= 0, got '-1.0'",
                 id="double-retrieve-T2"),
    pytest.param("double-retrieve", _intervals(T4=math.nan),
                 "interval: T4 must be finite, got 'nan'", id="double-retrieve-T4-nan"),
    pytest.param("retrieve", _intervals(T2=math.inf), "interval: T2 must be finite, got 'inf'",
                 id="retrieve-T2-inf"),
    pytest.param("ramsey", _intervals(T1=-1.0), "interval: T1 must be >= 0, got '-1.0'",
                 id="ramsey-T1"),
    pytest.param("retrieve", _intervals(T3=-1.0), "interval: T3 must be >= 0, got '-1.0'",
                 id="retrieve-T3"),
    pytest.param("retrieve", _intervals(T9=1.0), "interval: unknown interval key 'T9'",
                 id="unknown-interval"),
    # finite waits whose pulse phase (1e308 s times the phase rate) or clock overflows
    pytest.param("scramble", _intervals(T1=1e308), _OVERFLOW, id="scramble-T1-huge"),
    pytest.param("retrieve", _intervals(T1=1e308), _OVERFLOW, id="retrieve-T1-huge"),
    pytest.param("double-scramble", _intervals(T1=1e308, T2=1e308), _OVERFLOW,
                 id="double-scramble-T1-T2-huge"),
    pytest.param("ramsey", _noise(atoms=2.5), "noise: atom_count must be an integer, got 2.5",
                 id="noise-atoms-fraction"),
    pytest.param("ramsey", _noise(repeats=2.5), "noise: repeats must be an integer, got 2.5",
                 id="noise-repeats-fraction"),
    pytest.param("ramsey", _pulse("write", phase_rad=math.nan),
                 "pulse 'write': pulse phase offset must be finite", id="write-phase"),
    pytest.param("ramsey", _pulse("write", tau_s=1e308),
                 "pulse 'write': pulse area must be finite", id="write-area"),
    pytest.param("scramble", _pulse("scramble", tau_s=1e308),
                 "pulse 'scramble': pulse area must be finite",
                 id="scramble-area"),
    pytest.param("ramsey", _pulse("write", field="X"),
                 "pulse 'write' references undefined field 'X'", id="undefined-field"),
    pytest.param("bogus", lambda cfg: None, f"protocol must be one of {', '.join(PROTOCOLS)}",
                 id="unknown-protocol"),
]

#: The stacked pulses, for the protocols that need them.
_STACKED_PULSES = ("pulse scramble1 field=S tau_s=0.00148 phase_rad=0.5\n"
                   "pulse scramble2 field=S tau_s=0.00148 phase_rad=1.0\n")


def _scramble_needs():
    """``(protocol, "pulse" or "interval", name)`` for every scramble pulse of
    the protocol table and every interval before one."""
    for protocol, pulses in _SCRAMBLES.items():
        for pulse, interval in pulses:
            yield pytest.param(protocol, "pulse", pulse, id=f"{protocol}-{pulse}")
            if interval is not None:
                yield pytest.param(protocol, "interval", interval, id=f"{protocol}-{interval}")


class TestExitCodes:
    @pytest.mark.parametrize(
        "row",
        [
            "0.00051,1.7,0.01",
            "0.00051,-3,0.01",
            "0.00051,0.5,-0.01",
            "0.00051,nan,0.01",
            "inf,0.5,0.01",
            "0.00051,0.5,inf",
        ],
    )
    def test_bad_scan_csv_value_is_4_and_names_the_line(self, tmp_path, capsys, row):
        assert _fit_csv_exit(tmp_path, [row]) == 4
        assert "line 7" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["0.0_5", "1_0", "\u0661", "\xa00.5"])
    def test_python_only_number_in_scan_csv_is_4(self, tmp_path, capsys, field):
        assert _fit_csv_exit(tmp_path, [f"0.00051,{field},0.01"]) == 4
        err = capsys.readouterr().err
        assert f"scan CSV line 7: could not convert string to float: {field!r}" in err

    def test_non_increasing_scan_csv_is_4(self, tmp_path, capsys):
        assert _fit_csv_exit(tmp_path, ["0.0,0.5,0.01"]) == 4
        err = capsys.readouterr().err
        assert "increasing" in err
        assert "line 7" in err

    @pytest.mark.parametrize("source", ["input", "stdin"])
    def test_scan_csv_that_is_not_utf8_is_4(self, tmp_path, capsys, monkeypatch, source):
        csv = b"T_s,P_e,sd\n0.0,0.5,0.01\n0.001,0.6,0.01 # caf\xe9\n"
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("protocol fit\n")
        argv = [str(cfg)]
        if source == "input":
            data = tmp_path / "latin1.csv"
            data.write_bytes(csv)
            argv += ["--input", str(data)]
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(csv), encoding="utf-8"))
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fit error: scan CSV is not utf-8 text: byte 0xe9\n"

    @pytest.mark.parametrize("source", ["input", "stdin"])
    def test_scan_csv_with_a_byte_order_mark_is_read(self, tmp_path, capsys, monkeypatch, source):
        # as Python's utf-8-sig codec and spreadsheet exports write it
        T = np.linspace(0.0, 20e-3, 30)
        text = "T_s,P_e,sd\n" + "".join(
            f"{float(t)!r},{0.5 + 0.4 * math.cos(TWO_PI * 110.0 * t)!r},0.01\n" for t in T)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("protocol fit\n")

        def fit(encoding):
            argv = [str(cfg)]
            if source == "input":
                data = tmp_path / f"{encoding}.csv"
                data.write_text(text, encoding=encoding)
                argv += ["--input", str(data)]
            else:
                monkeypatch.setattr("sys.stdin", io.StringIO(text.encode(encoding).decode("utf-8")))
            assert main(argv) == 0
            return capsys.readouterr()

        plain, marked = fit("utf-8"), fit("utf-8-sig")
        assert (marked.out, marked.err) == (plain.out, plain.err)
        assert marked.out.startswith("phi_S,")

    def test_description_with_a_byte_order_mark_is_read(self, tmp_path, capsys):
        text = table1_text()
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            path = tmp_path / f"{encoding}.cfg"
            path.write_text(text, encoding=encoding)
            assert main([str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0]
        assert outputs[1].out.startswith("T_s,")

    def test_description_that_is_not_utf8_is_2_and_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"protocol ramsey\n# caf\xe9\n")
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: line 2: byte 0xe9 is not UTF-8 text\n"


    def test_unconverged_fit_is_4_and_names_the_reason(self, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("protocol fit\n")
        data = tmp_path / "flat.csv"
        data.write_text("".join(f"{t * 1e-3!r},0.5,0.01\n" for t in range(20)))
        assert main([str(cfg), "--input", str(data)]) == 4
        captured = capsys.readouterr()
        assert len(captured.out.strip().split("\n")) == 2  # header + row, as before
        assert "fit did not converge: zero_variance after 0 iterations" in captured.err

    def test_unconverged_sweep_is_4_and_names_each_reason(self, table1_path, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_ITERATIONS", 1)
        assert main([table1_path, "--protocol", "scramble", "--sweep-phis", "4"]) == 4
        err = capsys.readouterr().err
        assert err.count("did not converge: max_iter after 1 iterations") == 4
        assert "fit at phi_S=1.570796" in err

    def test_config_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense\n")
        assert main([str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["contrast_sri_s", "linewidth_hz"])
    def test_unapplied_noise_key_is_2_and_names_the_line(self, tmp_path, capsys, key):
        text = table1_text() + f"noise seed=1 {key}=0.5\n"
        path = tmp_path / "unapplied.cfg"
        path.write_text(text)
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert f"line {len(text.splitlines())}" in err
        assert key in err

    @pytest.mark.parametrize("key", ["atoms", "repeats"])
    def test_noise_count_below_one_is_2_and_names_the_line(self, tmp_path, capsys, key):
        text = table1_text() + f"noise seed=1 {key}=0\n"
        path = tmp_path / "count.cfg"
        path.write_text(text)
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert f"line {len(text.splitlines())}" in err
        assert key in err

    def test_negative_noise_seed_is_2_and_names_the_line(self, tmp_path, capsys):
        text = table1_text() + "noise seed=-3\n"
        path = tmp_path / "seed.cfg"
        path.write_text(text)
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert f"line {len(text.splitlines())}: noise seed must be >= 0" in err

    def test_negative_seed_option_is_2(self, table1_path, capsys):
        assert main([table1_path, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: --seed must be >= 0" in captured.err

    @pytest.mark.parametrize("protocol", ["ramsey", "attack", "fit"])
    def test_sweep_of_a_protocol_without_a_scramble_key_is_2(self, table1_path, tmp_path,
                                                             capsys, protocol):
        T = np.linspace(0.0, 20e-3, 201)
        p = 0.5 + 0.4 * np.cos(TWO_PI * 110.0 * T)
        data = tmp_path / "scan.csv"
        data.write_text("".join(f"{float(t)!r},{float(v)!r}\n" for t, v in zip(T, p)))
        argv = [table1_path, "--protocol", protocol, "--sweep-phis", "4", "--input", str(data)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"protocol {protocol!r} does not support a key-phase sweep" in captured.err

    @pytest.mark.parametrize(
        "key, old, new",
        [
            ("omega_a_hz", "frame rotating", "frame lab nan"),
            ("rabi_hz", "rabi_hz=565", "rabi_hz=nan"),
            ("detuning_hz", "detuning_hz=110", "detuning_hz=inf"),
            ("tau_s", "tau_s=0.00044", "tau_s=nan"),
            ("phase_rad", "phase_rad=0", "phase_rad=nan"),
            ("T1", "T1=0.005", "T1=nan"),
            ("T2", "T2=0.005", "T2=nan"),
            ("T3", "T2=0.005", "T2=0.005 T3=-inf"),
            ("T4", "T2=0.005", "T2=0.005 T4=inf"),
            ("contrast_wri_s", "grid 0:20ms:0.1ms", "grid 0:20ms:0.1ms\nnoise contrast_wri_s=nan"),
            ("contrast_wri_s", "grid 0:20ms:0.1ms", "grid 0:20ms:0.1ms\nnoise contrast_wri_s=inf"),
            ("duration", "grid 0:20ms:0.1ms", "grid 0:20ms:nan"),
            ("duration", "grid 0:20ms:0.1ms", "grid 0:inf:0.1ms"),
        ],
        ids=["omega_a_hz", "rabi_hz", "detuning_hz", "tau_s", "phase_rad", "T1", "T2", "T3",
             "T4", "contrast_wri_s-nan", "contrast_wri_s-inf", "grid-nan", "grid-inf"],
    )
    def test_non_finite_number_is_2_and_names_key_and_line(self, tmp_path, capsys, key, old, new):
        text = table1_text().replace("protocol ramsey", "protocol retrieve")
        assert old in text
        text = text.replace(old, new, 1)
        path = tmp_path / "non_finite.cfg"
        path.write_text(text)
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        lineno = 1 + text[: text.index(new.split("\n")[-1])].count("\n")
        assert f"line {lineno}: {key} must be finite" in err

    @pytest.mark.parametrize(
        "key, bound, old, new",
        [
            ("rabi_hz", "> 0", "rabi_hz=565", "rabi_hz=0"),
            ("rabi_hz", "> 0", "rabi_hz=565", "rabi_hz=-565"),
            ("tau_s", "> 0", "tau_s=0.00044", "tau_s=0"),
            ("tau_s", "> 0", "tau_s=0.00044", "tau_s=-1e-3"),
            ("T1", ">= 0", "T1=0.005", "T1=-1"),
            ("T2", ">= 0", "T2=0.005", "T2=-1"),
            ("T3", ">= 0", "T2=0.005", "T2=0.005 T3=-1e-3"),
            ("T4", ">= 0", "T2=0.005", "T2=0.005 T4=-1e-3"),
            ("contrast_wri_s", "> 0", "grid 0:20ms:0.1ms",
             "grid 0:20ms:0.1ms\nnoise contrast_wri_s=0"),
            ("contrast_wri_s", "> 0", "grid 0:20ms:0.1ms",
             "grid 0:20ms:0.1ms\nnoise contrast_wri_s=-0.1"),
            ("grid start", ">= 0", "grid 0:20ms:0.1ms", "grid -1ms:20ms:0.1ms"),
        ],
        ids=["rabi_hz-0", "rabi_hz-negative", "tau_s-0", "tau_s-negative", "T1", "T2", "T3",
             "T4", "contrast_wri_s-0", "contrast_wri_s-negative", "grid-start"],
    )
    def test_out_of_range_number_is_2_and_names_key_and_line(self, tmp_path, capsys, key,
                                                            bound, old, new):
        # retrieve plans T2: a negative T2 used to reach the planner's ValueError
        text = table1_text().replace("protocol ramsey", "protocol retrieve")
        assert old in text
        text = text.replace(old, new, 1)
        path = tmp_path / "out_of_range.cfg"
        path.write_text(text)
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lineno = 1 + text[: text.index(new.split("\n")[-1])].count("\n")
        assert f"line {lineno}: {key} must be {bound}" in captured.err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("clock", ["off", "on"])
    @pytest.mark.parametrize("protocol", ["ramsey", "retrieve"])
    def test_a_grid_that_overflows_only_after_the_scanned_wait_is_2(self, tmp_path, capsys,
                                                                    protocol, clock):
        # every grid value and every clock value is finite; only the read
        # pulse's phase after the scanned wait (2 pi 110 Hz x 1e306 s) is not
        path = tmp_path / "overflow.cfg"
        path.write_text(table1_text().replace("grid 0:20ms:0.1ms", "grid 0:1e306:1e305"))
        assert main([str(path), "--protocol", protocol, "--clock-during-pulses", clock]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: grid: the timeline clock and every pulse "
                                "phase must be finite\n")

    def test_negative_grid_start_option_is_2(self, table1_path, capsys):
        assert main([table1_path, "--grid=-1ms:20ms:0.1ms"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: --grid start must be >= 0" in captured.err

    def test_rabi_that_overflows_in_angular_units_is_2(self, tmp_path, capsys):
        # 1e308 Hz is finite; 2*pi times it is not
        text = table1_text().replace("rabi_hz=565", "rabi_hz=1e308")
        path = tmp_path / "huge_rabi.cfg"
        path.write_text(text)
        assert main([str(path)]) == 2
        assert "config error: field 'W': rabi must be positive and finite" in capsys.readouterr().err

    def test_frame_that_overflows_in_angular_units_is_2(self, tmp_path, capsys):
        # 1e308 Hz is finite; 2*pi times it is not
        path = tmp_path / "huge_frame.cfg"
        path.write_text(table1_text().replace("frame rotating", "frame lab 1e308"))
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: frame: atomic_frequency must be finite" in captured.err

    def test_retrieve_wait_that_overflows_is_3(self, tmp_path, capsys):
        # pi / |2 pi x 1e-318 Hz| is no finite wait; the planner refuses it
        text = table1_text().replace("protocol ramsey", "protocol retrieve")
        path = tmp_path / "tiny_detuning.cfg"
        path.write_text(text.replace("detuning_hz=100", "detuning_hz=1e-318"))
        assert main([str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"planner error: the wait \(2n\+1\)\*pi/\|detuning\| for n = 0 at "
                            r"detuning \S+ rad/s is not finite\n", captured.err)

    def test_contrast_time_whose_ratio_overflows_is_0_without_a_warning(self, tmp_path, capsys):
        # T / 1e-320 s overflows for every T > 0: the fringe is fully decayed
        path = tmp_path / "decayed.cfg"
        path.write_text(table1_text() + "noise atoms=50000 repeats=5 contrast_wri_s=1e-320\n")
        assert main([str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("T_s,P_e,sd\n")

    @pytest.mark.parametrize("argv", [["--seed", "-1"], ["--sweep-phis", "0"], ["--grid", "1:0:1"]])
    def test_rejected_run_leaves_the_output_file_alone(self, table1_path, tmp_path, capsys, argv):
        target = tmp_path / "kept.csv"
        target.write_bytes(b"earlier output\n")
        assert main([table1_path, "--output", str(target), *argv]) == 2
        assert target.read_bytes() == b"earlier output\n"
        captured = capsys.readouterr()
        assert captured.out == "" and f"config error: {argv[0]} " in captured.err

    def test_unparsable_description_leaves_the_output_file_alone(self, tmp_path, capsys):
        path, target = tmp_path / "bad.cfg", tmp_path / "kept.csv"
        path.write_text("nonsense\n")
        target.write_bytes(b"earlier output\n")
        assert main([str(path), "--output", str(target)]) == 2
        assert target.read_bytes() == b"earlier output\n"

    @pytest.mark.parametrize("seed, noise_seed, bad", [(-1, 0, -1), (None, -2, -2)])
    def test_negative_seed_in_run_is_a_config_error(self, seed, noise_seed, bad):
        # the argument, or without one the noise seed, of a programmatic run
        cfg = parse_config(table1_text())
        cfg.noise = NoiseSpec(seed=noise_seed)
        out = io.StringIO()
        with pytest.raises(ConfigError, match=f"seed must be >= 0, got {bad}"):
            run(cfg, out, seed=seed)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("seed, noise_seed", [(2.5, 0), (None, 2.5)])
    def test_non_integer_seed_in_run_is_a_config_error(self, seed, noise_seed):
        # as a negative one: SeedSequence would end in a TypeError traceback
        cfg = parse_config(table1_text())
        cfg.noise = NoiseSpec(seed=noise_seed)
        out = io.StringIO()
        with pytest.raises(ConfigError, match="^seed must be an integer, got 2.5$"):
            run(cfg, out, seed=seed)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("phis", [0, -2, 2.5])
    def test_sweep_phis_in_run_must_be_a_positive_integer(self, phis):
        # a sweep_phis set in code; main checks --sweep-phis itself, with its own message
        cfg = parse_config(table1_text().replace("protocol ramsey", "protocol scramble"))
        cfg.sweep_phis = phis
        out = io.StringIO()
        with pytest.raises(ConfigError, match=f"sweep_phis must be an integer >= 1, got {phis!r}"):
            run(cfg, out)
        assert out.getvalue() == ""

    def test_rotating_frame_with_an_atomic_frequency_is_a_config_error(self):
        cfg = parse_config(table1_text())
        cfg.frame_omega_a_hz = 123.0
        out = io.StringIO()
        with pytest.raises(ConfigError, match="frame: rotating frame needs atomic_frequency 0"):
            run(cfg, out)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("protocol, change, message", _CODE_FAULTS)
    def test_value_the_model_rejects_in_run_is_a_config_error(self, protocol, change, message):
        cfg = parse_config(table1_text() + _STACKED_PULSES)
        cfg.protocol = protocol
        change(cfg)
        out = io.StringIO()
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            run(cfg, out)
        assert out.getvalue() == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("old, new, message, on_line", _DESCRIPTION_FAULTS)
    def test_description_error_is_2_and_names_the_line(self, tmp_path, capsys, old, new,
                                                       message, on_line):
        text = table1_text()
        assert text.count(old) == 1
        lineno = 1 + text[: text.index(old)].count("\n") + new.count("\n")
        path = tmp_path / "faulty.cfg"
        path.write_text(text.replace(old, new))
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        where = f"line {lineno}: " if on_line else ""
        assert captured.err == f"config error: {where}{message}\n"

    @pytest.mark.parametrize("protocol, kind, name", _scramble_needs())
    def test_missing_scramble_pulse_or_interval_is_2(self, tmp_path, capsys, protocol, kind,
                                                     name):
        text = (table1_text() + _STACKED_PULSES).replace("protocol ramsey", f"protocol {protocol}")
        if kind == "pulse":
            text, dropped = re.subn(f"pulse {name} .*\n", "", text)
            needs = f"a pulse named {name!r}"
        else:
            text, dropped = re.subn(f" {name}=[^ \n]*", "", text)
            needs = f"interval {name}="
        assert dropped == 1
        path = tmp_path / "dropped.cfg"
        path.write_text(text)
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: protocol {protocol!r} needs {needs}\n"

    @pytest.mark.parametrize("pulse, protocol", [("write", "ramsey"), ("scramble", "scramble")])
    def test_pulse_area_that_overflows_is_2_and_names_the_pulse(self, tmp_path, capsys, pulse,
                                                                protocol):
        # 1e308 s is a finite duration that parses; rabi * 1e308 is not a finite area
        text = re.sub(f"(pulse {pulse} .*tau_s=)[^ ]*", r"\g<1>1e308", table1_text())
        path = tmp_path / "long_pulse.cfg"
        path.write_text(text.replace("protocol ramsey", f"protocol {protocol}"))
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: pulse {pulse!r}: pulse area must be finite\n"

    @pytest.mark.parametrize(
        "statement, message",
        [
            ("noise atoms=100000000000000000000", "noise: atom_count must be <= "),
            # 201 points x 1e12 repeats of 8-byte counts, 1.6 PB
            ("noise repeats=1000000000000", "noise: "),
            # 1e14 phases of 8 bytes, 800 TB
            ("sweep phis=100000000000000", "sweep: "),
        ],
        ids=["atoms", "repeats", "phis"],
    )
    def test_count_too_large_to_draw_or_allocate_is_2(self, tmp_path, capsys, statement,
                                                      message):
        # each allocation is beyond the user address space of a 64-bit
        # process, so it fails at once
        path = tmp_path / "huge_count.cfg"
        path.write_text(table1_text().replace("protocol ramsey", "protocol scramble")
                        + statement + "\n")
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {message}")

    def test_default_grid_with_zero_write_detuning_is_2(self, tmp_path, capsys):
        path = tmp_path / "flat_write.cfg"
        path.write_text(table1_text().replace("grid 0:20ms:0.1ms\n", "")
                        .replace("rabi_hz=565 detuning_hz=110", "rabi_hz=565 detuning_hz=0"))
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no grid given and the write field has zero detuning" in captured.err

    @pytest.mark.parametrize("grid", ["0:20ms:nan", "0:inf:0.1ms", "1:0:1", "0:1:0", "0:1"])
    def test_bad_grid_option_is_2(self, table1_path, capsys, grid):
        assert main([table1_path, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err

    def test_grid_with_too_many_points_is_2_and_names_the_line(self, tmp_path, capsys):
        # the point count overflows: rejected before any grid is built
        text = table1_text().replace("grid 0:20ms:0.1ms", "grid -1e308:1e308:1")
        path = tmp_path / "huge_grid.cfg"
        path.write_text(text)
        assert main([str(path)]) == 2
        lineno = 1 + text[: text.index("grid -1e308")].count("\n")
        assert f"line {lineno}: grid has too many points" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["-1e308:1e308:1", "0:1e300:1e-10"])
    def test_grid_option_with_too_many_points_is_2(self, table1_path, capsys, grid):
        assert main([table1_path, f"--grid={grid}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: --grid has too many points" in captured.err

    @pytest.mark.filterwarnings("error")
    def test_grid_option_that_overflows_a_pulse_phase_is_2(self, table1_path, capsys):
        # 11 finite points; the read pulse's phase at T = 1e308 s is not finite
        assert main([table1_path, "--grid", "0:1e308:1e307"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: grid: the timeline clock and every pulse phase "
                                "must be finite\n")

    @pytest.mark.parametrize("change, args", [
        (("T1=0.005", "T1=1e13"), ["--protocol", "scramble", "--sweep-phis", "2",
                                   "--clock-during-pulses", "on"]),
        (("frame rotating", "frame lab 1e15"), ["--protocol", "retrieve", "--sweep-phis", "16"]),
    ], ids=["T1-1e13-clock-on", "lab-1e15"])
    def test_a_clock_that_swallows_the_grid_is_2(self, tmp_path, capsys, change, args):
        # both fitted a wrong fringe and exited 0 before the walker's rounding rule
        path = tmp_path / "coarse.cfg"
        path.write_text(table1_text().replace(*change))
        assert main([str(path), "--seed", "3", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"config error: interval: the timeline clock rounds a phase by up to "
                            r"\S+ rad at the grid's last point, beyond the rounding bound of "
                            r"1e-06 rad\n", captured.err)

    @pytest.mark.parametrize("change, args", [
        (("T1=0.005", "T1=1e6"), ["--protocol", "scramble", "--sweep-phis", "2",
                                  "--clock-during-pulses", "on"]),
        (("frame rotating", "frame lab 1e9"), ["--protocol", "retrieve", "--sweep-phis", "16"]),
    ], ids=["T1-1e6-clock-on", "lab-1e9"])
    def test_a_clock_that_resolves_the_grid_still_runs(self, tmp_path, capsys, change, args):
        path = tmp_path / "fine.cfg"
        path.write_text(table1_text().replace(*change))
        assert main([str(path), "--seed", "3", *args]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("phase spread over sweep: ")
        assert len(captured.out.splitlines()) == 1 + int(args[3])

    @pytest.mark.filterwarnings("error")
    def test_grid_option_that_overflows_keeps_the_overflow_message(self, table1_path, capsys):
        # every clock value is finite; the read pulse's 691 rad/s phase at
        # T = 1e306 s is not, and the overflow rule speaks before the rounding rule
        assert main([table1_path, "--grid", "0:1e306:1e305"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: grid{_OVERFLOW.removeprefix('interval')}\n"

    @pytest.mark.filterwarnings("error")
    def test_grid_option_that_overflows_a_lab_frame_free_phase_is_2(self, tmp_path, capsys):
        # the write detuning cancels the atomic frequency: every pulse phase is 0
        # and the clock finite, but 0.5 * free_rate * 1e308 s is not finite
        path = tmp_path / "lab.cfg"
        path.write_text(table1_text().replace("frame rotating", "frame lab 1000")
                        .replace("rabi_hz=565 detuning_hz=110", "rabi_hz=565 detuning_hz=-1000"))
        assert main([str(path), "--grid", "0:1e308:1e307"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: grid: the timeline clock and every pulse phase "
                                "must be finite\n")

    def test_grid_option_too_large_to_allocate_is_2(self, table1_path, capsys):
        # 1e16 points, 80 PB: more than the user address space of a 64-bit
        # process, so the allocation fails at once
        assert main([table1_path, "--grid", "0:1:1e-16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "points does not fit in memory" in captured.err

    def test_missing_file_is_2(self, capsys):
        assert main(["/does/not/exist.cfg"]) == 2

    def test_planner_failure_is_3(self, tmp_path, capsys):
        text = table1_text().replace(
            "field S rabi_hz=169 detuning_hz=100", "field S rabi_hz=169 detuning_hz=0"
        ).replace("protocol ramsey", "protocol retrieve")
        path = tmp_path / "flat.cfg"
        path.write_text(text)
        assert main([str(path), "--seed", "1"]) == 3
        assert "planner error" in capsys.readouterr().err

    def test_non_converged_fit_is_4(self, tmp_path, capsys):
        T = np.linspace(0.0, 20e-3, 30)
        csv = "T_s,P_e,sd\n" + "\n".join(f"{float(t)!r},0.5,0.0" for t in T)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("protocol fit\n")
        data = tmp_path / "flat.csv"
        data.write_text(csv + "\n")
        assert main([str(cfg), "--input", str(data)]) == 4

    def test_run_accepts_stream_input(self):
        cfg = ExperimentConfig(protocol="fit")
        T = np.linspace(0.0, 20e-3, 100)
        p = 0.5 + 0.4 * np.cos(TWO_PI * 110.0 * T)
        csv = "\n".join(f"{float(t)!r},{float(v)!r}" for t, v in zip(T, p))
        out = io.StringIO()
        code = run(cfg, out, input_stream=io.StringIO(csv))
        assert code == 0
        assert out.getvalue().startswith("phi_S,")


class TestClockOverride:
    def test_clock_flag_changes_the_scan(self, table1_path, capsys):
        base = [table1_path, "--protocol", "scramble", "--seed", "9"]
        assert main(base) == 0
        off = capsys.readouterr().out
        assert main(base + ["--clock-during-pulses", "on"]) == 0
        on = capsys.readouterr().out
        assert off != on

    def test_clock_flag_changes_the_attack_scan(self, table1_path, capsys):
        # the blind readout's scrambled sequence follows the clock convention
        base = [table1_path, "--protocol", "attack", "--seed", "3"]
        assert main(base) == 0
        off = capsys.readouterr().out
        assert main(base + ["--clock-during-pulses", "off"]) == 0
        assert capsys.readouterr().out == off
        assert main(base + ["--clock-during-pulses", "on"]) == 0
        assert capsys.readouterr().out != off
