import functools
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qslsense import cli, labframe, sequence, spinlin, units
from qslsense.analytic import NumericError
from qslsense.cli import main, resolve_pulse
from qslsense.units import ConfigError, parse_quantity

from oracles import read_csv

TWO_PI = 2 * math.pi


def _outside(text: str) -> str:
    """The start of the domain refusal of ``--rabi`` given as ``text``, a value in Hz."""
    return f"--rabi '{text}' is {TWO_PI * float(text[:-2]):.6g} rad/s, outside the frequency domain"


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

    @pytest.mark.parametrize("text, kind", [
        ("1e-6rad/s", "frequency"), ("1e20rad/s", "frequency"), ("-1e20rad/s", "frequency"),
        ("0Hz", "frequency"), ("1e-400s", "time"), ("1e-23s", "time"), ("1e7s", "time"),
        ("1e-3rad", "angle"), ("1e3rad", "angle")])
    def test_zero_and_the_domain_bounds_parse(self, text, kind):
        # a magnitude below the float range, like 1e-400 s, reads as zero
        low, high, _ = units.DOMAIN[kind]
        value = parse_quantity(text, kind)
        assert value == 0 or low <= abs(value) <= high

    @pytest.mark.parametrize("text, kind, says", [
        ("0.99e-6rad/s", "frequency",
         "'0.99e-6rad/s' is 9.9e-07 rad/s, outside the frequency domain [1e-06, 1e+20] rad/s"),
        ("1.6e19Hz", "frequency", "'1.6e19Hz' is 1.00531e+20 rad/s, outside the frequency domain"),
        ("-1e400Hz", "frequency", "'-1e400Hz' is -inf rad/s, outside the frequency domain"),
        ("0.99e-23s", "time", "'0.99e-23s' is 9.9e-24 s, outside the time domain [1e-23, 1e+07] s"),
        ("1.01e7s", "time", "'1.01e7s' is 1.01e+07 s, outside the time domain"),
        ("0.9mrad", "angle", "'0.9mrad' is 0.0009 rad, outside the angle domain [0.001, 1000] rad"),
        ("57296deg", "angle", "'57296deg' is 1000 rad, outside the angle domain")])
    def test_values_beyond_the_domain_are_refused_naming_the_field(self, text, kind, says):
        with pytest.raises(ConfigError, match=re.escape(f"--x {says}")):
            parse_quantity(text, kind, field="--x")


class TestResolvePulse:
    def test_rabi_and_tau(self):
        om, tau, alpha = resolve_pulse(TWO_PI * 1e7, None, 50e-9)
        assert om == pytest.approx(TWO_PI * 1e7)
        assert alpha == pytest.approx(math.pi / 2, rel=1e-12)

    def test_alpha_and_tau_derives_rabi(self):
        om, tau, alpha = resolve_pulse(None, math.pi / 2, 50e-9)
        assert om == pytest.approx(2 * (math.pi / 2) / 50e-9)

    def test_rabi_and_alpha_derives_tau(self):
        om, tau, alpha = resolve_pulse(TWO_PI * 1e7, math.pi / 2, None)
        assert tau == pytest.approx(math.pi / (TWO_PI * 1e7))

    def test_overdetermined_rejected(self):
        with pytest.raises(ConfigError, match="over-determined"):
            resolve_pulse(TWO_PI * 1e7, math.pi / 2, 50e-9)

    def test_underdetermined_rejected(self):
        with pytest.raises(ConfigError):
            resolve_pulse(TWO_PI * 1e7, None, None)


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
        # the CSV row is the handler's row, whose values hold beyond the CSV's 12 digits
        header, [values] = cli.cmd_metrics(rabi=TWO_PI * 10e6, alpha=math.pi / 2)[""]
        assert rows[0] == ["%.12g" % v for v in values]
        full = dict(zip(header, values))
        assert full["t_fwhm_s"] == pytest.approx(2 / 3 * full["tau_s"], rel=1e-12)
        assert full["bw_first_root_rad_s"] == pytest.approx(3 * full["omega_rad_s"], rel=1e-12)
        assert full["epsilon"] == pytest.approx(-2 / math.pi, abs=1e-14)
        assert full["p0"] == pytest.approx(0.5, abs=1e-14)

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

    @pytest.mark.parametrize("rabi", ["1e-6rad/s", "1e20rad/s"])
    def test_bode_gains_hold_at_the_rate_bounds(self, tmp_path, rabi):
        # the rotating gain depends only on w/Om, so the ends of the frequency
        # domain read the gains of a 1 kHz drive
        gains = []
        for r in ("1kHz", rabi):
            out = tmp_path / f"{len(gains)}.csv"
            assert main(["bode", "--rabi", r, "--alpha", "90deg", "--points", "3",
                         "--out", str(out)]) == 0
            gains.append([float(row[1]) for row in read_csv(out)[1]])
        assert gains[1][1] == gains[0][1] == 0.494946148962
        assert gains[1][2] == pytest.approx(gains[0][2], rel=3e-12)

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

    def test_csv_rows_match_per_cell_formatting(self, tmp_path):
        rows = [[0.1, 1 / 3, "solid", np.float64(2.0) / 3, 7],
                (np.float64(1e-300), -0.0, "dashed", 1e22, np.int64(-4)),
                np.array([math.pi, 2.5, 1e-7]).tolist()[:2] + ["x", np.float32(0.1), True]]
        out = tmp_path / "rows.csv"
        cli.write_csv(out, ["a", "b", "c", "d", "e"], rows)
        per_cell = "".join(",".join(c if isinstance(c, str) else "%.12g" % c for c in row) + "\n"
                           for row in rows)
        assert out.read_text() == "a,b,c,d,e\n" + per_cell

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

    @pytest.mark.parametrize("handler, kwargs, argv", [
        (cli.cmd_qsl, {"rabi": TWO_PI * 1e7}, ["qsl", f"--rabi={TWO_PI * 1e7!r}rad/s"]),
        (cli.cmd_kernel, {"rabi": TWO_PI * 1e7, "alpha": math.pi / 4, "points": 7},
         ["kernel", f"--rabi={TWO_PI * 1e7!r}rad/s", f"--alpha={math.pi / 4!r}rad", "--points=7"]),
    ], ids=["qsl", "kernel"])
    def test_handlers_are_plain_functions_of_si_values(self, tmp_path, handler, kwargs, argv):
        # a handler called with SI values returns the rows main writes for the
        # same values given as flags in SI units
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 0
        (header, rows), = handler(**kwargs).values()
        assert read_csv(out) == (header, [["%.12g" % c for c in row] for row in rows])


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
        (["fig2", "--rabi", "10MHz", "--points", "1e400"], "--points must be at most"),
        # every frequency, time and angle lies in units.DOMAIN, given or derived
        (["bode", "--rabi", "1e307Hz", "--alpha", "90deg", "--points", "3"], _outside("1e307Hz")),
        (["bode", "--backend", "lab", "--rabi", "1e307Hz", "--alpha", "90deg", "--points", "3"],
         _outside("1e307Hz")),
        (["fig3c", "--rabi", "1e307Hz", "--points", "3"], _outside("1e307Hz")),
        (["fig3d", "--rabi", "1e307Hz", "--omega-points", "3", "--tau-points", "3"],
         _outside("1e307Hz")),
        (["optimal", "--rabi", "1e307Hz", "--points", "3"], _outside("1e307Hz")),
        (["optimal", "--rabi", "1e307Hz", "--max-freq", "1MHz", "--points", "3"],
         _outside("1e307Hz")),
        (["optimal", "--rabi", "1e200Hz", "--points", "3"], _outside("1e200Hz")),
        (["fig3d", "--rabi", "1e200Hz", "--omega-points", "3", "--tau-points", "3"],
         _outside("1e200Hz")),
        (["optimal", "--rabi", "1e-300Hz", "--points", "3"], _outside("1e-300Hz")),
        (["optimal", "--rabi=4.7e-179Hz"], _outside("4.7e-179Hz")),
        (["fig3d", "--rabi", "1e-300Hz", "--omega-points", "3", "--tau-points", "3"],
         _outside("1e-300Hz")),
        (["fig3d", "--rabi", "1e-160Hz", "--omega-points", "3", "--tau-points", "3"],
         _outside("1e-160Hz")),
        (["qsl", "--rabi", "1e307Hz"], _outside("1e307Hz")),
        (["qsl", "--rabi=4.27e153Hz"], _outside("4.27e153Hz")),
        (["fig2", "--rabi", "1e-308Hz", "--points", "3"], _outside("1e-308Hz")),
        (["fig3c", "--rabi", "1e-323Hz", "--points", "3"], _outside("1e-323Hz")),
        (["fig3b", "--rabi", "1e-323Hz", "--points", "3"], _outside("1e-323Hz")),
        (["kernel", "--backend", "lab", "--rabi", "1e-305Hz", "--alpha", "90deg", "--points", "3"],
         _outside("1e-305Hz")),
        (["metrics", "--rabi=1Hz", "--alpha=2.3e-250deg"],
         "--alpha '2.3e-250deg' is 4.01426e-252 rad, outside the angle domain"),
        (["metrics", "--rabi=1Hz", "--alpha=1e-154rad"],
         "--alpha '1e-154rad' is 1e-154 rad, outside the angle domain"),
        (["kernel", "--rabi=1e-300Hz", "--alpha=90deg", "--points=5"], _outside("1e-300Hz")),
        (["kernel", "--rabi=1e300Hz", "--alpha=90deg", "--points=3"], _outside("1e300Hz")),
        (["kernel", "--backend=lab", "--rabi=1e300Hz", "--alpha=90deg", "--points=3"],
         _outside("1e300Hz")),
        (["kernel", "--rabi=1e-155Hz", "--alpha=90deg", "--points=3"], _outside("1e-155Hz")),
        (["fig3b", "--rabi=1e-155Hz", "--points=3"], _outside("1e-155Hz")),
        (["fig3b", "--rabi=6e-155Hz", "--points=3"], _outside("6e-155Hz")),
        (["kernel", "--rabi=2.55e200Hz", "--alpha=4.44e-120deg", "--points=2"],
         _outside("2.55e200Hz")),
        (["fig3c", "--rabi=1e-309Hz", "--points=3"], _outside("1e-309Hz")),
        (["bode", "--rabi=1e200Hz", "--alpha=90deg", "--points=3"], _outside("1e200Hz")),
        (["fig3c", "--rabi=1e200Hz", "--points=3"], _outside("1e200Hz")),
        # below 1e-3 rad the rotating kernel loses its digits to cancellation
        (["kernel", "--rabi", "10MHz", "--alpha", "9e-4rad"],
         "--alpha '9e-4rad' is 0.0009 rad, outside the angle domain [0.001, 1000] rad"),
        (["kernel", "--rabi", "10MHz", "--tau", "1e-13s"],
         "--alpha derived from --rabi and --tau is 3.14159e-06 rad, outside the angle domain"),
        (["kernel", "--alpha", "90deg", "--tau", "1e7s"],
         "--rabi derived from --alpha and --tau is 3.14159e-07 rad/s, outside the frequency"),
        (["bode", "--rabi", "1e-6rad/s", "--alpha", "1e3rad"],
         "--tau derived from --rabi and --alpha is 2e+09 s, outside the time domain"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_bad_input_is_config_error_naming_flag(self, tmp_path, capsys, argv, flag):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        # --rabi at both ends of the frequency domain, for every command that
        # reads it (a lab run is past the step limit at 1e-6 rad/s and
        # refused at 1e20 rad/s, see below)
        *([command, "--rabi", rabi, *rest]
          for rabi in ("1e20rad/s", "1e-6rad/s")
          for command, *rest in (
              ["metrics", "--alpha", "90deg"], ["kernel", "--alpha", "90deg", "--points", "3"],
              ["bode", "--alpha", "90deg", "--points", "3"], ["fig2", "--points", "3"],
              ["fig3b", "--points", "3"], ["fig3c", "--points", "3"],
              ["fig3d", "--omega-points", "3", "--tau-points", "3"],
              ["optimal", "--points", "3"], ["qsl"])),
        # the other frequencies
        ["bode", "--rabi", "10MHz", "--alpha", "90deg", "--max-freq", "1e-6rad/s", "--points", "3"],
        ["bode", "--rabi", "1e20rad/s", "--alpha", "90deg", "--max-freq", "1e20rad/s",
         "--points", "3"],
        ["optimal", "--rabi", "10MHz", "--max-freq", "1e-6rad/s", "--points", "3"],
        ["optimal", "--rabi", "10MHz", "--max-freq", "1e20rad/s", "--points", "3"],
        ["optimal", "--rabi", "10MHz", "--signal-freq", "1e-6rad/s"],
        ["optimal", "--rabi", "10MHz", "--signal-freq", "1e20rad/s"],
        # times: 2e-23 s is the shortest pulse at 1e20 rad/s and 1e-3 rad
        ["metrics", "--rabi", "1e20rad/s", "--tau", "2e-23s"],
        ["kernel", "--rabi", "1e20rad/s", "--tau", "2e-23s", "--points", "3"],
        ["bode", "--rabi", "1e20rad/s", "--tau", "2e-23s", "--points", "3"],
        ["fig2", "--rabi", "10MHz", "--tau-max", "1e-23s", "--points", "3"],
        ["fig2", "--rabi", "10MHz", "--tau-max", "1e7s", "--points", "3"],
        ["metrics", "--rabi", "1e-6rad/s", "--tau", "3e6s"],
        ["kernel", "--rabi", "1e-6rad/s", "--tau", "3e6s", "--points", "3"],
        ["bode", "--rabi", "1e-6rad/s", "--tau", "1e7s", "--points", "3"],
        # angles
        ["metrics", "--rabi", "10MHz", "--alpha", "1e-3rad"],
        ["kernel", "--rabi", "10MHz", "--alpha", "1e-3rad", "--points", "3"],
        ["kernel", "--backend", "lab", "--tau", "10ns", "--alpha", "1e-3rad", "--points", "3"],
        ["bode", "--rabi", "10MHz", "--alpha", "1e-3rad", "--points", "3"],
        ["bode", "--backend", "lab", "--tau", "10ns", "--alpha", "1e-3rad", "--points", "3"],
        ["bode", "--rabi", "1e20rad/s", "--alpha", "1e3rad", "--points", "2"],
    ], ids=" ".join)
    def test_values_at_the_domain_bounds_run(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("argv, code", [
        (["kernel", "--rabi", "1e20rad/s", "--alpha", "90deg", "--points", "3"], 2),
        (["bode", "--rabi", "1e20rad/s", "--alpha", "90deg", "--points", "3"], 2),
        (["kernel", "--rabi=3.44e9MHz", "--tau=1.64e-19s", "--points=4"], 2),
        (["bode", "--rabi=3.44e9MHz", "--tau=1.64e-19s", "--points=4"], 2),
        # 0.61 and 1.01 carrier periods per pulse
        (["kernel", "--rabi", "1e10rad/s", "--alpha", "90deg", "--points", "5"], 2),
        (["kernel", "--rabi", "6e9rad/s", "--alpha", "90deg", "--points", "5"], 0),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_lab_pulse_shorter_than_a_carrier_period_is_refused(self, tmp_path, capsys,
                                                                argv, code):
        # at 1e20 rad/s the lab kernel read 0 in every row, at 1e10 rad/s its
        # centre -0.97 and at 3.44e9 MHz its DC response vanished
        out = tmp_path / "x.csv"
        assert main(argv + ["--backend", "lab", "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert ("--backend lab needs each pulse (tau/2 from --rabi, --alpha, --tau) to last "
                    "one carrier period, 2.58398e-10 s; got ") in err
            assert not out.exists()

    def test_small_angle_kernel_at_the_angle_floor(self, tmp_path):
        # k_norm/alpha tends to 0.97172683 as alpha -> 0; at 1e-3 rad the
        # cancellation in p = 1 - |psi0|^2 costs 1.5e-5 of it
        out = tmp_path / "k.csv"
        assert main(["kernel", "--rabi", "10MHz", "--alpha", "1e-3rad", "--points", "5",
                     "--out", str(out)]) == 0
        centre = float(read_csv(out)[1][2][1])
        assert centre / 1e-3 == pytest.approx(0.97172683, abs=2e-5)

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

        def fig4d(points=13, expensive=False):
            seen.append({"points": points, "expensive": expensive})
            return {}

        monkeypatch.setitem(cli.COMMANDS, "fig4d", fig4d)
        assert main(["fig4d", "--expensive", "--points", "2"]) == 0
        assert seen == [{"points": 2, "expensive": True}]

    @pytest.mark.parametrize("argv, says", [
        # a missing required flag is named before any value is parsed
        (["fig2", "--points=bad"], "missing required parameter --rabi"),
        (["optimal", "--max-freq=5", "--points=0"], "missing required parameter --rabi"),
        # a malformed value before an under- or over-determined pulse
        (["bode", "--tau=5", "--points=3"], "--tau: missing unit on '5'"),
        (["metrics", "--rabi=1MHz", "--alpha=90deg", "--tau=-1ns"], "--tau must be positive"),
        (["kernel", "--rabi=10MHz", "--points=2.5"], "--points must be a whole number"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_which_fault_is_named_first(self, capsys, argv, says):
        assert main(argv) == 2
        assert f"configuration error: {says}" in capsys.readouterr().err

    def test_one_parser_per_process_parses_like_fresh_ones(self, tmp_path, capsys, monkeypatch):
        # a value, a default or an error of one call must not reach the next
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        calls = [["kernel", "--rabi", "10MHz", "--alpha", "90deg", "--points", "5"],
                 ["metrics", "--rabi", "10MHz", "--alpha", "90deg", "--points", "5"],
                 ["fig4d", "--expensive", "--points", "1"],
                 ["kernel", "--rabi", "10MHz", "--tau", "50ns", "--points", "5"]]

        def outcomes():
            got = []
            for argv in calls:
                args, extra = cli.build_parser().parse_known_args(argv)
                got.append((vars(args), extra, main(argv), capsys.readouterr()))
            return got

        assert cli.build_parser() is cli.build_parser()
        cached = outcomes()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.build_parser() is not cli.build_parser()
        assert cached == outcomes()
        assert [rc for _, _, rc, _ in cached] == [0, 2, 0, 0]
        assert cached[3][0]["alpha"] is None and "expensive" not in cached[3][0]

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_help_lists_only_the_flags_the_command_reads(self, capsys, command):
        # the handler's parameters, fig4d's --expensive among them
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        params = inspect.signature(cli.COMMANDS[command]).parameters
        own = {"--" + p.replace("_", "-") for p in params}
        assert listed == own | {"--help", "--config", "--out"}

    @staticmethod
    def counted_parser(monkeypatch):
        """A fresh (uncached) parser and the list of every ``_Parser`` built for it and its
        commands, the top-level one first."""
        built = []

        class Counted(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["prog"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counted)
        return cli.build_parser.__wrapped__(), built

    @pytest.mark.parametrize("argv, built", [
        (["kernel", "--rabi", "10MHz", "--alpha", "90deg"], ["qslsense", "qslsense kernel"]),
        (["fig4d", "--expensive"], ["qslsense", "qslsense fig4d"]),
        (["--check"], ["qslsense"]),
    ], ids=["kernel", "fig4d", "check"])
    def test_a_parse_builds_only_the_invoked_command_parser(self, monkeypatch, argv, built):
        parser, got = self.counted_parser(monkeypatch)
        assert got == ["qslsense"]
        parser.parse_known_args(argv)
        parser.parse_known_args(argv)  # a command's parser is built once
        assert got == built

    def test_top_level_help_lists_every_command_without_building_one(self, monkeypatch, capsys):
        parser, got = self.counted_parser(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            parser.parse_known_args(["--help"])
        assert exc.value.code == 0
        assert "{" + ",".join(cli.COMMANDS) + "}" in capsys.readouterr().out
        assert got == ["qslsense"]

    def test_unknown_command_names_every_command_without_building_one(self, monkeypatch):
        parser, got = self.counted_parser(monkeypatch)
        with pytest.raises(ConfigError) as exc:
            parser.parse_known_args(["foo"])
        assert str(exc.value) == ("argument command: invalid choice: 'foo' (choose from "
                                  + ", ".join(map(repr, cli.COMMANDS)) + ")")
        assert got == ["qslsense"]

    @pytest.mark.parametrize("argv", [
        ["kernel", "--rabi", "6MHz", "--alpha", "90deg", "--points", "5"],
        ["fig3b", "--rabi", "6MHz", "--points", "5"],
    ], ids=lambda argv: argv[0])
    def test_flip_angle_round_trip_at_6mhz(self, tmp_path, argv):
        # 0.5 * Om * (2 alpha / Om) lands one ulp above pi/2 at this rate
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("argv, document, named", [
        # the flags as given, in the handler's parameter order
        (["kernel", "--backend=lab", "--rabi=10MHz", "--tau=50ns", "--points=4"], None,
         "kernel (--rabi=10MHz --tau=50ns --points=4 --backend=lab)"),
        (["fig4d", "--expensive", "--points", "2"], None, "fig4d (--points=2 --expensive)"),
        # the document's values first, as written, then the other flags
        (["optimal", "--rabi", "10MHz", "--max-freq", "1MHz"], {"points": 5, "max-freq": "2MHz"},
         "optimal (--points=5 --max-freq=1MHz --rabi=10MHz)"),
        (["offaxis"], None, "offaxis"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_numeric_failure_names_command_and_flags(self, tmp_path, capsys, monkeypatch,
                                                     argv, document, named):
        # no in-domain command line is known to fail numerically, so a stub
        # with the handler's signature raises instead
        def fail(**kwargs):
            raise NumericError("the handler failed")

        monkeypatch.setitem(cli.COMMANDS, argv[0], functools.wraps(cli.COMMANDS[argv[0]])(fail))
        if document is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(document))
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 3
        assert f"numeric failure in {named}: the handler failed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, steps, scale", [
        (["kernel", "--backend", "lab", "--rabi", "1kHz", "--alpha", "90deg"],
         193500000, "carrier"),
        (["bode", "--backend", "lab", "--rabi", "20MHz", "--alpha", "90deg",
          "--max-freq", "1000THz"], 2500000000, "stimulus_frequency"),
        (["bode", "--rabi", "10MHz", "--alpha", "90deg", "--max-freq", "1000THz"],
         151515152, "stimulus_frequency"),
        # past 10^15 steps the count is printed to 3 digits; the largest
        # counts in the domain pair its lowest rate with its highest frequency
        (["bode", "--rabi", "1e-6rad/s", "--alpha", "90deg", "--max-freq", "1e20rad/s",
          "--points", "3"], "2.5e+27", "stimulus_frequency"),
        (["bode", "--backend", "lab", "--rabi", "1e-6rad/s", "--alpha", "90deg", "--points", "3"],
         "1.22e+18", "carrier"),
        (["bode", "--rabi", "1e-6rad/s", "--tau", "1e6s", "--max-freq", "1e20rad/s",
          "--points", "3"], "7.96e+26", "stimulus_frequency"),
        (["bode", "--backend", "lab", "--rabi", "1e-6rad/s", "--tau", "1e6s", "--points", "3"],
         "3.87e+17", "carrier"),
        # below 10^15 it is exact
        (["bode", "--rabi", "1e-6rad/s", "--alpha", "90deg", "--max-freq", "1MHz",
          "--points", "3"], 157079632679490, "stimulus_frequency"),
        (["kernel", "--backend", "lab", "--tau", "1e6s", "--alpha", "90deg"],
         "3.87e+17", "carrier"),
        (["bode", "--rabi", "10MHz", "--alpha", "90deg", "--points", "3",
          "--max-freq", "1e20rad/s"], 39788735772974, "stimulus_frequency"),
        (["bode", "--backend", "lab", "--rabi", "10MHz", "--alpha", "90deg", "--points", "3",
          "--max-freq", "1e20rad/s"], 79577471545948, "stimulus_frequency"),
    ], ids=["lab-kernel-1kHz", "lab-bode-1000THz", "rotating-bode-1000THz",
            "rotating-bode-1e-6rad/s-max-freq-1e20rad/s", "lab-bode-1e-6rad/s",
            "rotating-bode-1e6s-max-freq-1e20rad/s", "lab-bode-1e6s",
            "rotating-bode-1e-6rad/s-max-freq-1MHz", "lab-kernel-1e6s",
            "rotating-bode-max-freq-1e20rad/s", "lab-bode-max-freq-1e20rad/s"])
    def test_runs_beyond_the_step_limit_exit_2_before_stepping(self, tmp_path, capsys,
                                                              monkeypatch, argv, steps, scale):
        # the refusal comes before any lab block factor, the DC pair or any SU(2) factor is built
        def fail(*args, **kwargs):
            raise AssertionError("a run was started")

        for module, name in ((labframe, "_block_factors"), (labframe, "run_protocol_batch"),
                             (spinlin, "su2_propagator")):
            monkeypatch.setattr(module, name, fail)
        start = time.perf_counter()
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"a run of {steps} steps" in err
        assert f"binding frequency scale '{scale}'" in err
        assert len(err) < 200

    def test_default_lab_commands_stay_far_below_the_step_limit(self, tmp_path, monkeypatch):
        # the lab_kernel workload's 10 ns kernel takes 3870 steps, the
        # default lab Bode and offaxis fewer than 2e5
        monkeypatch.setattr(labframe, "MAX_RUN_STEPS", 2 * 10**5)
        for argv in (["kernel", "--backend", "lab", "--tau", "10ns", "--alpha", "90deg"],
                     ["bode", "--backend", "lab", "--rabi", "20MHz", "--alpha", "90deg"],
                     ["offaxis", "--points", "2"]):
            assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 0

    def test_no_command(self):
        assert main([]) == 2

    def test_check_mode_passes(self, capsys):
        # every check by name: a dropped or renamed one fails here
        assert main(["--check"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS  exact probability matches propagator product (8x8x8 grid)",
            "PASS  metric constants at alpha = 90 deg",
            "PASS  first-order expansion quality",
            "PASS  timeshare/phase optimum at (0.5, pi/2)",
            "PASS  speed-limit bounds coincide for the driven qubit",
            "PASS  transfer function continuous at w = Om",
            "PASS  transfer function vanishes at the first root",
        ]

    def test_check_fails_on_a_nan_oracle_deviation(self, capsys, monkeypatch):
        # a NaN compares False with any bound, so it must not read as a pass
        exact = sequence.transition_probability

        def one_nan(seq):
            p = exact(seq)
            p[3, 5, 1] = math.nan
            return p

        monkeypatch.setattr(sequence, "transition_probability", one_nan)
        assert cli.run_checks() == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FAIL  exact probability matches propagator product (8x8x8 grid)"
        assert all(line.startswith("PASS") for line in lines[1:])


_UNITS = ("Hz", "MHz", "GHz", "rad/s", "ns", "s", "deg", "rad", "T", "", "bogus")


#: numpy's and Python's own messages, which name no flag or quantity
_BARE = ("encountered in", "division by zero", "Numerical result out of range")


def _quantity(kind, *suffixes):
    """Any finite float in any unit, or a magnitude log-uniform over the float range in
    ``suffixes``, or in SI units over ``units.DOMAIN[kind]`` widened by 3 decades each way."""
    low, high, si = units.DOMAIN[kind]
    return st.one_of(
        st.builds(lambda x, unit: repr(x) + unit,
                  st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_UNITS)),
        st.builds(lambda e, unit: repr(10.0 ** e) + unit,
                  st.floats(-323.0, 308.0), st.sampled_from(suffixes)),
        st.builds(lambda e: repr(10.0 ** e) + si,
                  st.floats(math.log10(low) - 3, math.log10(high) + 3)))


_FREQUENCY = _quantity("frequency", "Hz", "MHz", "GHz", "rad/s")
_TIME = _quantity("time", "ns", "s")
_COUNT = st.one_of(st.integers(-3, 50).map(str),
                   st.floats(-3.0, 50.0, allow_nan=False).map(repr))
#: a grid of at most 5 points, always given to the runner-backed commands (rotating backend)
_FEW = st.one_of(st.integers(-3, 5).map(str), st.floats(-3.0, 5.0, allow_nan=False).map(repr))
_PULSE = {"rabi": _FREQUENCY, "alpha": _quantity("angle", "deg", "rad"), "tau": _TIME}
_FLAGS = {
    "metrics": _PULSE,
    "fig2": {"rabi": _FREQUENCY, "tau-max": _TIME, "points": _COUNT},
    "qsl": {"rabi": _FREQUENCY},
    "fig3d": {"rabi": _FREQUENCY, "omega-points": _COUNT, "tau-points": _COUNT},
    "optimal": {"rabi": _FREQUENCY, "max-freq": _FREQUENCY, "signal-freq": _FREQUENCY,
                "points": _COUNT},
    "kernel": {**_PULSE, "points": _FEW},
    "bode": {**_PULSE, "max-freq": _FREQUENCY, "points": _FEW},
    "fig3b": {"rabi": _FREQUENCY, "points": _FEW},
    "fig3c": {"rabi": _FREQUENCY, "points": _FEW},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        if values is _FEW or draw(st.booleans()):
            argv.append(f"--{flag}={draw(values)}")
    return argv


@settings(deadline=None, max_examples=200, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
# the first two once ended in a traceback: an overflowing probe amplitude, and
# a subnormal Rabi rate 2 alpha/tau that halved to a flip angle of 0; the
# third, inside the domain, in a bare "divide by zero" from a vanished DC
# response (now a lab pulse shorter than a carrier period, exit 2)
@example(argv=["kernel", "--backend=lab", "--rabi=2.55e200Hz", "--alpha=4.44e-120deg",
               "--points=2"])
@example(argv=["kernel", "--alpha=1.81e-319deg", "--tau=1.44e3s", "--points=2"])
@example(argv=["kernel", "--backend=lab", "--rabi=3.44e9MHz", "--tau=1.64e-19s", "--points=4"])
def test_any_flag_values_exit_with_contract_code(tmp_path, capsys, argv):
    """Whatever the flag values, a command ends with 0, 2 or 3, never a traceback, and a
    refusal or numeric failure names what failed, never in bare numpy text only."""
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) in (0, 2, 3)
    err = capsys.readouterr().err
    assert not any(bare in err for bare in _BARE), err


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_drawn_flags_cover_the_handlers_parameters(command):
    # a renamed or added flag cannot drop out of the draw unnoticed
    params = {p.replace("_", "-") for p in inspect.signature(cli.COMMANDS[command]).parameters}
    assert params - {"backend"} <= set(_FLAGS[command])


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds the package under src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_python_dash_m_runs_the_cli():
    res = _run_python("-m", "qslsense", "--check")
    assert res.returncode == 0, res.stderr
    assert "PASS" in res.stdout and "FAIL" not in res.stdout


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["kernel", "--help"], 0),
                                        (["foo"], 2)], ids=["help", "kernel-help", "foo"])
def test_a_fresh_interpreter_prints_what_main_prints(monkeypatch, capsys, argv, code):
    # in process, main may reuse the parser this process cached with its
    # command parsers built; a fresh interpreter starts with none built
    monkeypatch.setenv("COLUMNS", "80")  # one help width in both processes
    res = _run_python("-m", "qslsense", *argv)
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    assert (res.returncode, res.stdout, res.stderr) == (rc, out, err)
    assert rc == code


def test_import_loads_the_seven_layers_and_re_exports_nothing():
    # each public name has one import path, qslsense.<module>.<name>; the
    # benchmark times this import, so it keeps loading every layer but cli
    res = _run_python("-c", "import json, sys, qslsense\n"
                            "print(json.dumps([sorted(n for n in sys.modules"
                            " if n.startswith('qslsense.')),"
                            " sorted(n for n in vars(qslsense) if not n.startswith('_'))]))")
    assert res.returncode == 0, res.stderr
    loaded, public = json.loads(res.stdout)
    layers = ["analytic", "labframe", "optimize", "response", "sequence", "spinlin", "units"]
    assert loaded == [f"qslsense.{m}" for m in layers]
    assert public == layers
