import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qslsense import cli, units
from qslsense.cli import Params, main, resolve_pulse
from qslsense.units import ConfigError, parse_quantity

from oracles import read_csv

TWO_PI = 2 * math.pi


class TestParseQuantity:
    def test_cycle_frequency(self):
        assert parse_quantity("10MHz", "frequency") == pytest.approx(TWO_PI * 1e7)
        assert parse_quantity("2.87 GHz", "frequency") == pytest.approx(TWO_PI * 2.87e9)

    def test_angular_frequency_passthrough(self):
        assert parse_quantity("6.0rad/s", "frequency") == pytest.approx(6.0)
        assert parse_quantity("2krad/s", "frequency") == pytest.approx(2e3)

    def test_time_angle_field(self):
        assert parse_quantity("50ns", "time") == pytest.approx(50e-9)
        assert parse_quantity("90deg", "angle") == pytest.approx(math.pi / 2)
        with pytest.raises(ConfigError, match="unknown quantity kind"):
            parse_quantity("3mT", "field")

    def test_dimensionless(self):
        assert parse_quantity("0.5", "dimensionless") == 0.5
        with pytest.raises(ConfigError):
            parse_quantity("0.5ms", "dimensionless")

    def test_missing_unit_names_field(self):
        with pytest.raises(ConfigError, match="rabi"):
            parse_quantity("10", "frequency", field="rabi")

    def test_unknown_unit(self):
        with pytest.raises(ConfigError):
            parse_quantity("10parsec", "time")


class TestResolvePulse:
    def test_rabi_and_tau(self):
        om, tau, alpha = resolve_pulse(Params({"rabi": "10MHz", "tau": "50ns"}))
        assert om == pytest.approx(TWO_PI * 1e7)
        assert alpha == pytest.approx(math.pi / 2, rel=1e-12)

    def test_alpha_and_tau_derives_rabi(self):
        om, tau, alpha = resolve_pulse(Params({"alpha": "90deg", "tau": "50ns"}))
        assert om == pytest.approx(2 * (math.pi / 2) / 50e-9)

    def test_rabi_and_alpha_derives_tau(self):
        om, tau, alpha = resolve_pulse(Params({"rabi": "10MHz", "alpha": "90deg"}))
        assert tau == pytest.approx(math.pi / (TWO_PI * 1e7))

    def test_overdetermined_rejected(self):
        with pytest.raises(ConfigError, match="over-determined"):
            resolve_pulse(Params({"rabi": "10MHz", "alpha": "90deg", "tau": "50ns"}))

    def test_underdetermined_rejected(self):
        with pytest.raises(ConfigError):
            resolve_pulse(Params({"rabi": "10MHz"}))


class TestCliCommands:
    def test_metrics_row(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["metrics", "--rabi", "10MHz", "--alpha", "90deg",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        row = dict(zip(header, (float(c) for c in rows[0])))
        tau = row["tau_s"]
        assert row["t_fwhm_s"] == pytest.approx(2 / 3 * tau, rel=1e-9)
        assert row["t_20_80_s"] == pytest.approx(0.564 * tau, rel=1e-2)
        assert row["t_10_90_s"] == pytest.approx(0.704 * tau, rel=1e-2)
        assert row["t_square_s"] == pytest.approx(2 / math.pi * tau, rel=1e-9)
        assert row["bw_first_root_rad_s"] == pytest.approx(3 * row["omega_rad_s"], rel=1e-9)
        assert row["bw_3db_rad_s"] == pytest.approx(1.19 * row["omega_rad_s"], rel=1e-2)

    def test_fig2_branches_meet_continuously(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--rabi", "10MHz", "--points", "400",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        taus = np.array([float(r[0]) for r in rows])
        ratios = np.array([float(r[1]) for r in rows])
        branches = [r[2] for r in rows]
        assert set(branches) == {"solid", "dashed"}
        j = branches.index("dashed")
        assert abs(ratios[j] - ratios[j - 1]) < 5e-3       # continuous joint
        assert ratios[j - 1] == pytest.approx(2 / math.pi, abs=5e-3)
        assert np.all(ratios <= 1.0 + 1e-12)               # ideal Ramsey bound
        assert ratios[-1] > ratios[j]                      # climbs back toward 1

    def test_optimal_single_frequency(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimal", "--rabi", "10MHz", "--signal-freq", "0Hz",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(math.pi / (TWO_PI * 1e7), rel=1e-3)

    def test_qsl_outputs_pi_rotation_time(self, tmp_path):
        out = tmp_path / "qsl.csv"
        assert main(["qsl", "--rabi", "10MHz", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        om = TWO_PI * 1e7
        assert float(rows[0][1]) == pytest.approx(math.pi / om, rel=1e-12)
        assert float(rows[0][1]) == float(rows[0][2])

    def test_kernel_and_bode_commands(self, tmp_path):
        kout = tmp_path / "k.csv"
        assert main(["kernel", "--rabi", "10MHz", "--alpha", "90deg",
                     "--points", "31", "--out", str(kout)]) == 0
        header, rows = read_csv(kout)
        assert header == ["t_s", "k_norm"]
        peak = max(float(r[1]) for r in rows)
        assert peak == pytest.approx(1.0, abs=0.02)

        bout = tmp_path / "b.csv"
        assert main(["bode", "--rabi", "10MHz", "--alpha", "90deg",
                     "--points", "7", "--out", str(bout)]) == 0
        header, rows = read_csv(bout)
        assert header == ["omega_rad_s", "gain_norm", "chi_rad"]
        assert float(rows[0][1]) == 1.0

    def test_fig3d_emits_surface_and_ridge(self, tmp_path):
        out = tmp_path / "f3d.csv"
        assert main(["fig3d", "--rabi", "10MHz", "--omega-points", "5",
                     "--tau-points", "6", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["omega_rad_s", "tau_s", "eta_s"]
        assert len(rows) == 5 * 6
        header, ridge_rows = read_csv(tmp_path / "f3d_ridge.csv")
        assert header == ["omega_rad_s", "tau_star_s"]
        assert len(ridge_rows) == 5

    def test_fig4d_scaled_bias_matches_the_40_tesla_run(self, tmp_path):
        # the scaled bias stands in for the full 40 T run; the 13-point
        # sweeps differ by at most 0.0164
        cols = {}
        for flags in ([], ["--expensive"]):
            out = tmp_path / f"fig4d{len(flags)}.csv"
            assert main(["fig4d", "--points", "3", *flags, "--out", str(out)]) == 0
            header, rows = read_csv(out)
            cols[bool(flags)] = np.array(rows, dtype=float)
        assert header[1:] == ["p_plus_ms0", "p_minus_ms0", "p_ref_ms0",
                              "p_plus_msm1", "p_minus_msm1", "p_ref_msm1"]
        assert np.array_equal(cols[False][:, 0], cols[True][:, 0])
        assert np.max(np.abs(cols[False][:, 1:] - cols[True][:, 1:])) <= 0.02

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["fig2", "--rabi", "7MHz", "--points", "50",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_at_emitted_precision(self, tmp_path):
        out = tmp_path / "m.csv"
        main(["metrics", "--rabi", "10MHz", "--alpha", "67deg", "--out", str(out)])
        _, rows = read_csv(out)
        for cell in rows[0]:
            assert "%.12g" % float(cell) == cell

    def test_outdir_environment_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        assert main(["qsl", "--rabi", "1MHz"]) == 0
        assert (tmp_path / "qsl.csv").exists()

    def test_config_document_merging(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rabi": "10MHz", "tau": "100ns"}))
        out = tmp_path / "m.csv"
        # the flag overrides the document value
        assert main(["metrics", "--config", str(cfg), "--tau", "50ns",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(50e-9)


class TestExitCodes:
    def test_missing_unit_is_config_error(self, capsys):
        assert main(["metrics", "--rabi", "10", "--alpha", "90deg"]) == 2
        assert "rabi" in capsys.readouterr().err

    def test_missing_parameters(self, capsys):
        assert main(["fig2"]) == 2

    @pytest.mark.parametrize("argv", [
        ["metrics", "--rabi", "10MHz", "--alpha", "90deg"],
        ["kernel", "--rabi", "10MHz", "--alpha", "90deg", "--points", "5"],
        ["bode", "--rabi", "10MHz", "--alpha", "90deg", "--points", "3"],
        ["fig3d", "--rabi", "10MHz", "--omega-points", "3", "--tau-points", "3"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_path(self, tmp_path, capsys, argv):
        out = tmp_path / "no" / "dir" / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "cannot write output file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["kernel", "--rabi", "10MHz", "--alpha", "90deg", "--points", "0"], "--points"),
        (["fig2", "--rabi", "10MHz", "--points", "-3"], "--points"),
        (["fig2", "--rabi", "10MHz", "--points", "2.6"], "--points"),
        (["fig3d", "--rabi", "10MHz", "--omega-points", "0"], "--omega-points"),
        (["fig2", "--rabi", "1e400Hz"], "--rabi"),
        (["fig2", "--rabi", "1e300THz"], "--rabi"),
        (["fig2", "--rabi", "0Hz"], "--rabi"),
        (["optimal", "--rabi", "10MHz", "--signal-freq=-1MHz"], "--signal-freq"),
        (["metrics", "--rabi", "10MHz", "--alpha", "120deg"], "--alpha"),
        (["kernel", "--rabi", "10MHz", "--alpha", "200deg"], "--alpha"),
        (["metrics", "--rabi", "10MHz", "--tau", "100ns"], "--alpha"),
        (["fig2", "--rabi", "10MHz", "--points", "1000000000000"], "--points"),
        (["kernel", "--rabi", "10MHz", "--alpha", "90deg", "--points", "1e12"], "--points"),
        (["fig3d", "--rabi", "10MHz", "--tau-points", "1e12"], "--tau-points"),
        (["fig3d", "--rabi", "10MHz", "--omega-points", "2000", "--tau-points", "1000"],
         "--omega-points"),
        (["optimal", "--rabi", "10MHz", "--signal-freq", "1MHz", "--points", "99",
          "--max-freq", "1e300GHz"], "--max-freq"),
        (["optimal", "--rabi", "10MHz", "--signal-freq", "1MHz", "--points", "5"], "--points"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_bad_input_is_config_error_naming_flag(self, tmp_path, capsys, argv, flag):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("document, named", [
        ("[1]", "JSON object"),
        ("{bad json", "cannot read config file"),
        ('{"model": 5}', "'model'"),
        ('{"model": {"b1_t": 0}}', "'model'"),
        ('{"stimulus": {"kind": "constant", "amplitude_t": 1e-6}}', "'stimulus'"),
        ('{"protocol": {"prep": "ms0", "windows": []}}', "'protocol'"),
        ('{"config": "other.json"}', "'config'"),
        ('{"poinst": 5}', "'poinst'"),
        ('{"points": 0}', "--points"),
        ('{"points": null}', "'points'"),
        ('{"tau-max": "5ns"}', "'tau-max'"),
    ], ids=["array", "invalid-json", "model-number", "model-section", "stimulus-section",
            "protocol-section", "config-key", "misspelt-key", "points-zero", "points-null",
            "flag-of-another-command"])
    def test_config_document_holds_flag_values_only(self, tmp_path, capsys, document, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(document)
        out = tmp_path / "x.csv"
        assert main(["kernel", "--rabi", "10MHz", "--alpha", "90deg", "--backend", "lab",
                     "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["fig3b", "--rabi", "10MHz", "--backend", "lab"], "--backend"),
        (["qsl", "--rabi", "10MHz", "--backend", "bogus"], "--backend"),
        (["metrics", "--rabi", "10MHz", "--alpha", "90deg", "--expensive"], "--expensive"),
        (["offaxis", "--rabi", "10MHz"], "--rabi"),
        (["kernel", "--rabi", "10MHz", "--alpha", "90deg", "--tau-max", "5ns"], "--tau-max"),
        (["kernel", "--rabi", "10MHz", "--alpha", "90deg", "--poinst", "5"], "--poinst"),
        (["fig2", "--rabi", "10MHz", "--tau", "5ns"], "--tau"),
        (["--check", "kernel", "--rabi", "10MHz", "--alpha", "90deg"], "--check"),
        (["qsl", "--rabi"], "--rabi"),
        (["bogus"], "'bogus'"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_flag_the_command_does_not_read_is_config_error(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    def test_fig4d_expensive_reaches_the_handler(self, monkeypatch):
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "fig4d", lambda params, out: seen.append(params) or [])
        assert main(["fig4d", "--expensive", "--points", "2"]) == 0
        assert seen[0].has("expensive") and seen[0].get("points") == 2

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_help_lists_only_the_flags_the_command_reads(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        own = {f"--{f}" for f in cli.COMMAND_FLAGS[command]} | {"--help", "--config", "--out"}
        assert listed == own | ({"--expensive"} if command == "fig4d" else set())

    @pytest.mark.parametrize("argv", [
        ["kernel", "--rabi", "6MHz", "--alpha", "90deg", "--points", "5"],
        ["fig3b", "--rabi", "6MHz", "--points", "5"],
    ], ids=lambda argv: argv[0])
    def test_flip_angle_round_trip_at_6mhz(self, tmp_path, argv):
        # 0.5 * Om * (2 alpha / Om) lands one ulp above pi/2 at this rate
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("argv, named", [
        (["qsl", "--rabi=4.27e153Hz"], "qsl (--rabi=4.27e153Hz)"),
        (["metrics", "--rabi=1Hz", "--alpha=2.3e-250deg"],
         "metrics (--rabi=1Hz --alpha=2.3e-250deg)"),
        (["optimal", "--rabi=4.7e-179Hz"], "optimal (--rabi=4.7e-179Hz)"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_numeric_failure_names_command_and_flags(self, tmp_path, capsys, argv, named):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 3
        assert f"numeric failure in {named}: " in capsys.readouterr().err

    def test_no_command(self):
        assert main([]) == 2

    def test_check_mode_passes(self, capsys):
        assert main(["--check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


_UNITS = ("Hz", "MHz", "GHz", "rad/s", "ns", "s", "deg", "rad", "T", "", "bogus")
_QUANTITY = st.builds(lambda x, unit: repr(x) + unit,
                      st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_UNITS))
_COUNT = st.one_of(st.integers(-3, 50).map(str),
                   st.floats(-3.0, 50.0, allow_nan=False).map(repr))
_FLAGS = {
    "metrics": {"rabi": _QUANTITY, "alpha": _QUANTITY, "tau": _QUANTITY},
    "fig2": {"rabi": _QUANTITY, "tau-max": _QUANTITY, "points": _COUNT},
    "qsl": {"rabi": _QUANTITY},
    "optimal": {"rabi": _QUANTITY, "max-freq": _QUANTITY, "signal-freq": _QUANTITY,
                "points": _COUNT},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        if draw(st.booleans()):
            argv.append(f"--{flag}={draw(values)}")
    return argv


@settings(deadline=None, max_examples=60, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_any_flag_values_exit_with_contract_code(tmp_path, argv):
    """Whatever the flag values, a command ends with 0, 2 or 3, never a traceback."""
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) in (0, 2, 3)


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-m", "qslsense", "--check"],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "PASS" in res.stdout and "FAIL" not in res.stdout
