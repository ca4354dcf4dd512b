"""Command-line interface regenerating the toolkit's figure datasets as CSV files.

Every command writes deterministic CSV (12 significant digits, unit-suffixed
column names), so repeated runs produce byte-identical files.  Frequencies
on the command line accept cycle (Hz-family) or angular (rad/s-family)
suffixes and are converted to rad/s internally; see :mod:`qslsense.units`.

Each command takes only the flags it reads (:data:`COMMAND_FLAGS`); any other
flag is a configuration error naming it.  Flag values may also come from
``--config FILE``, a JSON object of that command's flag values such as
``{"rabi": "10MHz", "points": 41}`` and nothing else; a flag given on the
command line wins over the document.  ``--backend lab`` always
uses the resonant model with a 1 GHz Zeeman shift at the resolved Rabi rate;
other lab-frame models are built through the Python API
(:class:`~qslsense.labframe.NvModel`, :class:`~qslsense.response.LabFrameRunner`).

Exit codes: 0 success, 2 configuration error, 3 numeric failure (including
a floating-point overflow, division by zero or invalid operation).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analytic, labframe, optimize, response, sequence, spinlin
from .analytic import NumericError
from .response import FitError
from .units import ConfigError, parse_quantity

TWO_PI = 2.0 * math.pi
OUTDIR_ENV = "QSLSENSE_OUTDIR"

FIG3_ANGLES_DEG = (22.5, 45.0, 67.0, 90.0)

#: largest grid size a count flag (and fig3d's surface) may ask for
MAX_COUNT = 10**6


@dataclass
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)
    output_path: str | None = None

    def describe(self) -> str:
        """The command and the flags it was given, e.g. ``qsl (--rabi=10MHz)``."""
        flags = [f"--{k}" if v is True else f"--{k}={v}" for k, v in self.parameters.items()]
        return f"{self.command} ({' '.join(flags)})" if flags else self.command


def write_csv(path, header, rows) -> None:
    """Write rows of numbers (or strings) with %.12g formatting."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                cells = [c if isinstance(c, str) else "%.12g" % c for c in row]
                fh.write(",".join(cells) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


class Params:
    """The merged flag/config values, each parsed by the kind :data:`FLAGS` gives it."""

    def __init__(self, values: dict):
        self.values = values

    def has(self, name: str) -> bool:
        return name in self.values

    def get(self, name: str, default=None):
        if name not in self.values:
            if default is None:
                raise ConfigError(f"missing required parameter --{name}")
            return default
        raw, kind = self.values[name], FLAGS[name][0]
        if kind == "text":
            return str(raw)
        value = parse_quantity(str(raw), "dimensionless" if kind == "count" else kind,
                               field=f"--{name}")
        # every quantity is positive; only a signal frequency may also be zero
        if value < 0 or (value == 0 and name != "signal-freq"):
            raise ConfigError(f"--{name} must be positive, got {raw!r}")
        if kind != "count":
            return value
        if value != int(value):
            raise ConfigError(f"--{name} must be a whole number, got {raw!r}")
        if value > MAX_COUNT:
            raise ConfigError(f"--{name} must be at most {MAX_COUNT}, got {raw!r}")
        return int(value)


def resolve_pulse(params: Params) -> tuple[float, float, float]:
    """(omega, tau, alpha) from any two of --rabi, --alpha, --tau.

    All three at once is over-determined and rejected rather than silently
    reconciled.
    """
    given = [n for n in ("rabi", "alpha", "tau") if params.has(n)]
    if len(given) == 3:
        raise ConfigError("give exactly two of --rabi, --alpha, --tau (three is over-determined)")
    if len(given) < 2:
        raise ConfigError("need two of --rabi, --alpha, --tau to fix the pulse")
    if "rabi" in given and "tau" in given:
        omega, tau = params.get("rabi"), params.get("tau")
        alpha = 0.5 * omega * tau
    elif "rabi" in given:
        omega, alpha = params.get("rabi"), params.get("alpha")
        tau = 2.0 * alpha / omega
    else:
        alpha, tau = params.get("alpha"), params.get("tau")
        omega = 2.0 * alpha / tau
    if not all(0.0 < x < math.inf for x in (omega, tau, alpha)):
        raise ConfigError(f"pulse out of range: rabi {omega:.6g} rad/s, tau {tau:.6g} s")
    return omega, tau, alpha


def _check_flip_angle(alpha: float) -> None:
    """The closed-form metrics and the kernel's probe width need alpha in (0, pi/2]."""
    try:
        analytic.check_alpha_quadrant(alpha)
    except ValueError as exc:
        raise ConfigError(f"flip angle (--alpha, or rabi*tau/2): {exc}") from exc


def _make_runner(params: Params, omega: float, tau: float):
    backend = params.get("backend", "rotating")
    if backend == "rotating":
        return response.RotatingFrameRunner(omega, tau)
    if backend == "lab":
        # moderate field: the Zeeman shift ge B0 is 1 GHz
        model = labframe.NvModel.resonant(
            omega, TWO_PI * 1e9 / (TWO_PI * labframe.GAMMA_E_CYCLES_PER_TESLA))
        return response.LabFrameRunner(model, tau=tau)
    raise ConfigError(f"backend must be 'rotating' or 'lab', got {backend!r}")


def cmd_metrics(params: Params, out: str) -> list[str]:
    omega, tau, alpha = resolve_pulse(params)
    _check_flip_angle(alpha)
    rep = analytic.metrics_report(omega, tau)
    write_csv(out,
              ["omega_rad_s", "tau_s", "alpha_rad", "t_fwhm_s", "t_20_80_s",
               "t_10_90_s", "t_square_s", "bw_first_root_rad_s", "bw_3db_rad_s",
               "epsilon", "p0"],
              [[omega, tau, alpha, rep.t_fwhm, rep.t_20_80, rep.t_10_90,
                rep.t_square, rep.bw_first_root, rep.bw_3db, rep.epsilon, rep.p0]])
    return [out]


def _kernel(sim, tau: float, alpha: float, n: int):
    """(t, normalized kernel) pairs on n delays over 1.1 tau, probed at fwhm/12."""
    probe = analytic.time_resolution_fwhm(tau, alpha) / 12.0
    grid = np.linspace(-0.55 * tau, 0.55 * tau, n)
    est = response.estimate_kernel(sim, probe, grid)
    return zip(est.times, est.values / est.normalization)


def _bode(sim, tau: float, wmax: float, n: int) -> response.BodeSeries:
    """Bode gains on n frequencies over [0, wmax] at a stimulus phase of 1e-3 rad."""
    return response.bode_response(sim, np.linspace(0.0, wmax, n), 1e-3 / (sim.gamma * tau))


def cmd_kernel(params: Params, out: str) -> list[str]:
    omega, tau, alpha = resolve_pulse(params)
    _check_flip_angle(alpha)
    n = params.get("points", 121)
    rows = _kernel(_make_runner(params, omega, tau), tau, alpha, n)
    write_csv(out, ["t_s", "k_norm"], rows)
    return [out]


def cmd_bode(params: Params, out: str) -> list[str]:
    omega, tau, alpha = resolve_pulse(params)
    n = params.get("points", 34)
    wmax = params.get("max-freq", 3.3 * omega)
    series = _bode(_make_runner(params, omega, tau), tau, wmax, n)
    write_csv(out, ["omega_rad_s", "gain_norm", "chi_rad"],
              [(w, g, series.chi) for w, g in zip(series.frequencies, series.gains)])
    return [out]


def cmd_fig2(params: Params, out: str) -> list[str]:
    """Phase pickup ratio vs duration: two-pulse branch below 2 t_R, delayed branch above."""
    omega = params.get("rabi")
    t_r = (math.pi / 2.0) / omega
    tau_max = params.get("tau-max", 8.0 * t_r)
    n = params.get("points", 200)
    rows = []
    for tau in np.linspace(tau_max / n, tau_max, n):
        if tau <= 2.0 * t_r:
            ratio = analytic.phase_scaling_magnitude(0.5 * omega * tau)
            branch = "solid"
        else:
            ratio = analytic.effective_phase_extended(1.0, tau, t_r) / tau
            branch = "dashed"
        rows.append([tau, ratio, branch])
    write_csv(out, ["tau_s", "phase_ratio", "branch"], rows)
    return [out]


def cmd_fig3b(params: Params, out: str) -> list[str]:
    omega = params.get("rabi")
    n = params.get("points", 101)
    rows = []
    for deg in FIG3_ANGLES_DEG:
        alpha = math.radians(deg)
        tau = 2.0 * alpha / omega
        sim = response.RotatingFrameRunner(omega, tau)
        rows.extend((alpha, t, v) for t, v in _kernel(sim, tau, alpha, n))
    write_csv(out, ["alpha_rad", "t_s", "k_norm"], rows)
    return [out]


def cmd_fig3c(params: Params, out: str) -> list[str]:
    omega = params.get("rabi")
    n = params.get("points", 34)
    rows = []
    for deg in FIG3_ANGLES_DEG:
        alpha = math.radians(deg)
        tau = 2.0 * alpha / omega
        series = _bode(response.RotatingFrameRunner(omega, tau), tau, 3.3 * omega, n)
        rows.extend((alpha, w, g) for w, g in zip(series.frequencies, series.gains))
    write_csv(out, ["alpha_rad", "omega_rad_s", "gain_norm"], rows)
    return [out]


def cmd_fig3d(params: Params, out: str) -> list[str]:
    omega = params.get("rabi")
    n_w = params.get("omega-points", 81)
    n_t = params.get("tau-points", 80)
    if n_w * n_t > MAX_COUNT:
        raise ConfigError(f"--omega-points times --tau-points must be at most {MAX_COUNT}, "
                          f"got {n_w} x {n_t}")
    wgrid = np.linspace(0.0, 4.0 * omega, n_w)
    tgrid = np.linspace(math.pi / omega / n_t, math.pi / omega, n_t)
    surface = optimize.sensitivity_surface(omega, wgrid, tgrid)
    # a generator: the surface has n_w * n_t rows
    write_csv(out, ["omega_rad_s", "tau_s", "eta_s"],
              ((w, tau, surface.values[i, j])
               for i, w in enumerate(surface.omega_grid)
               for j, tau in enumerate(surface.tau_grid)))
    ridge_out = os.path.splitext(out)[0] + "_ridge.csv"
    write_csv(ridge_out, ["omega_rad_s", "tau_star_s"], surface.ridge)
    return [out, ridge_out]


def cmd_fig4d(params: Params, out: str) -> list[str]:
    """p(+stim), p(-stim), p(reference) per Rabi rate for ms0 and ms-1 prep/readout.

    The default scaled bias (ge B0 = 60 D) preserves the saturated transition
    splitting of 2 D and keeps Rabi/carrier small over the whole sweep; it
    tracks the paper's 40 T run (``--expensive``) within 0.02 in every
    probability.  Despite the flag's name the 40 T sweep is now the cheaper
    of the two, since its long windows are stepped as powered carrier
    periods; the scaled bias stays the default because the benchmark's
    reference outputs (perfbench/refs) are built on it.
    """
    n = params.get("points", 13)
    d = TWO_PI * labframe.D_NV_CYCLES
    gamma = TWO_PI * labframe.GAMMA_E_CYCLES_PER_TESLA
    b0 = 40.0 if params.has("expensive") else 60.0 * d / gamma
    rows = []
    for omega in np.geomspace(0.1 * d, 8.0 * d, n):
        model = labframe.NvModel.resonant(omega, b0)
        tau = math.pi / omega
        bs = model.b1 / (10.0 * math.sqrt(2.0))
        stims = [labframe.Stimulus.constant(bs), labframe.Stimulus.constant(-bs), None]
        row = [omega]
        for prep in ("ms0", "ms_minus1"):
            p = labframe.run_protocol_batch(model, stims, labframe.bipartite_protocol(tau, prep))
            row.extend([p[0], p[1], p[2]])
        rows.append(row)
    write_csv(out,
              ["rabi_rad_s", "p_plus_ms0", "p_minus_ms0", "p_ref_ms0",
               "p_plus_msm1", "p_minus_msm1", "p_ref_msm1"], rows)
    return [out]


def cmd_offaxis(params: Params, out: str) -> list[str]:
    n = params.get("points", 11)
    rows = []
    for deg in (0.0, 20.0, 45.0):
        # scaled model: small splitting and bias put the sensing transition
        # near 0.75 GHz, keeping runs near the Larmor frequency affordable
        model = labframe.NvModel.resonant(
            TWO_PI * 20e6, 0.25e9 / labframe.GAMMA_E_CYCLES_PER_TESLA,
            d=TWO_PI * 0.5e9, chi=math.radians(deg))
        sim = response.LabFrameRunner(model)
        amp = model.b1 / (10.0 * math.sqrt(2.0)) * 0.02
        grid = np.linspace(0.25 * sim.omega, 2.5 * sim.omega, n)
        if deg == 45.0:
            larmor = labframe.resonant_carrier(model)
            grid = np.concatenate([grid, np.array([0.5, 0.8, 0.9, 0.95]) * larmor])
        series = response.bode_response(sim, grid, amp)
        for w, g, fl in zip(series.frequencies, series.gains, series.flagged):
            rows.append([series.chi, w, g, float(fl)])
    write_csv(out, ["chi_rad", "omega_rad_s", "gain_norm", "flagged"], rows)
    return [out]


def cmd_optimal(params: Params, out: str) -> list[str]:
    omega = params.get("rabi")
    if params.has("signal-freq"):
        clash = [f"--{f}" for f in ("max-freq", "points") if params.has(f)]
        if clash:
            raise ConfigError(f"--signal-freq excludes {' and '.join(clash)}: "
                              "give one signal frequency or a grid")
        grid = [params.get("signal-freq")]
    else:
        wmax = params.get("max-freq", 4.0 * omega)
        grid = np.linspace(0.0, wmax, params.get("points", 41))
    rows = []
    for w in grid:
        tau_star, low_conf = optimize.optimal_duration(w, omega)
        rows.append([w, tau_star, float(low_conf)])
    write_csv(out, ["omega_rad_s", "tau_star_s", "low_confidence"], rows)
    return [out]


def cmd_qsl(params: Params, out: str) -> list[str]:
    """Speed-limit times for the driven rotation H = Om Sy from the upper Sz state."""
    omega = params.get("rabi")
    _, sy, _ = spinlin.spin_operators("half")
    inp = analytic.QslInput(hamiltonian=omega * sy,
                            state=np.array([1.0, 0.0], dtype=complex),
                            ground_energy=-omega / 2.0)
    t_var, t_mean = analytic.qsl_times(inp)
    write_csv(out, ["rabi_rad_s", "t_variance_bound_s", "t_mean_bound_s"],
              [[omega, t_var, t_mean]])
    return [out]


COMMANDS = {
    "metrics": cmd_metrics,
    "kernel": cmd_kernel,
    "bode": cmd_bode,
    "fig2": cmd_fig2,
    "fig3b": cmd_fig3b,
    "fig3c": cmd_fig3c,
    "fig3d": cmd_fig3d,
    "fig4d": cmd_fig4d,
    "offaxis": cmd_offaxis,
    "optimal": cmd_optimal,
    "qsl": cmd_qsl,
}

#: kind (how :meth:`Params.get` parses it) and help text of every value flag
FLAGS = {
    "rabi": ("frequency", "Rabi frequency, e.g. 10MHz or 6.28e7rad/s"),
    "alpha": ("angle", "flip angle per pulse, e.g. 90deg"),
    "tau": ("time", "total sequence duration, e.g. 50ns"),
    "tau-max": ("time", "largest duration"),
    "max-freq": ("frequency", "largest signal frequency"),
    "signal-freq": ("frequency", "one signal frequency instead of a grid"),
    "points": ("count", "number of grid points"),
    "omega-points": ("count", "frequency grid points"),
    "tau-points": ("count", "duration grid points"),
    "backend": ("text", "protocol backend: rotating or lab"),
}

_PULSE = ("rabi", "alpha", "tau")
#: the value flags (and --config keys) each command reads; fig4d also takes --expensive
COMMAND_FLAGS = {
    "metrics": _PULSE,
    "kernel": _PULSE + ("points", "backend"),
    "bode": _PULSE + ("points", "max-freq", "backend"),
    "fig2": ("rabi", "tau-max", "points"),
    "fig3b": ("rabi", "points"),
    "fig3c": ("rabi", "points"),
    "fig3d": ("rabi", "omega-points", "tau-points"),
    "fig4d": ("points",),
    "offaxis": ("points",),
    "optimal": ("rabi", "signal-freq", "max-freq", "points"),
    "qsl": ("rabi",),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is a configuration error
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qslsense", allow_abbrev=False,
                     description="Regenerate sensing-at-the-speed-limit figure datasets as CSV.")
    parser.add_argument("--check", action="store_true",
                        help="run the analytic self-checks and exit (takes no command)")
    sub = parser.add_subparsers(dest="command")
    for name, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", dest=flag, help=FLAGS[flag][1])
        p.add_argument("--config", help=f"JSON object of this command's flag values, with keys "
                                        f"from {', '.join(flags)}; flags on the command line win")
        p.add_argument("--out", help="output CSV path")
        if name == "fig4d":
            p.add_argument("--expensive", action="store_true", help="full-scale run: B0 = 40 T")
    return parser


def parse_config(argv) -> RunConfig:
    """Parse flags plus an optional ``--config`` document; flags override the document.

    The document is a JSON object whose keys are the command's flag names
    (without the leading ``--``) and whose values are what the flag would be
    given; any other key, or a null value, is a configuration error naming it.
    """
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        raise ConfigError(f"{args.command or 'qslsense'} does not take {' '.join(extra)}")
    if args.check:
        if args.command:
            raise ConfigError(f"--check runs alone, without a command (got {args.command})")
        return RunConfig(command="check")
    if not args.command:
        raise ConfigError("no command given (see --help)")
    flags = COMMAND_FLAGS[args.command]
    merged: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object of flag values")
        for key, value in doc.items():
            if key not in flags or value is None:
                raise ConfigError(f"config file {args.config}: key {key!r} must be a flag of "
                                  f"{args.command} ({', '.join(flags)}) with a non-null value")
        merged.update(doc)
    merged.update((f, getattr(args, f)) for f in flags if getattr(args, f) is not None)
    if getattr(args, "expensive", False):
        merged["expensive"] = True
    return RunConfig(command=args.command, parameters=merged, output_path=args.out)


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    if config.command == "check":
        return run_checks()
    handler = COMMANDS[config.command]
    outdir = os.environ.get(OUTDIR_ENV, ".")
    out = config.output_path or os.path.join(outdir, f"{config.command}.csv")
    # overflow, division by zero or an invalid operation is a numeric failure,
    # never a silent inf or nan in the output
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        paths = handler(Params(config.parameters), out)
    for p in paths:
        print(p)
    return 0


def run_checks() -> int:
    """Fast analytic cross-checks; prints one pass/fail line each."""
    checks = []

    def add(name, fn):
        checks.append((name, fn))

    def oracle_grid():
        for om in np.geomspace(TWO_PI * 1e6, TWO_PI * 1e8, 8):
            for ratio in np.geomspace(1e-4, 1.0, 8):
                for tau in np.geomspace(1e-9, 1e-6, 8):
                    p1 = analytic.exact_transition_probability(
                        analytic.BipartiteParams(om, tau, ratio * om))
                    p2 = sequence.transition_probability(
                        sequence.make_bipartite(om, tau, detuning=ratio * om))
                    if abs(p1 - p2) > 1e-10:
                        return False
        return True

    add("exact probability matches propagator product (8x8x8 grid)", oracle_grid)
    add("metric constants at alpha = 90 deg", lambda: all([
        abs(analytic.time_resolution_fwhm(1.0, math.pi / 2) - 2.0 / 3.0) < 1e-9,
        abs(analytic.rise_time(1.0, math.pi, "r20_80") - (1 - math.acos(0.2) / math.pi)) < 1e-9,
        abs(analytic.rise_time(1.0, math.pi, "r10_90") - (1 - math.acos(0.6) / math.pi)) < 1e-9,
        abs(analytic.equivalent_duration(1.0, math.pi / 2) - 2.0 / math.pi) < 1e-9,
        abs(analytic.bandwidth_first_root(1.0, math.pi / 2) - 3.0) < 1e-9,
        abs(analytic.bandwidth_3db(1.0, math.pi / 2) - 1.19) < 1e-2,
    ]))
    add("first-order expansion quality", lambda: all(
        abs(analytic.first_order_probability(a, 1e-3 * 2 * a)
            - analytic.exact_transition_probability(
                analytic.BipartiteParams(1.0, 2 * a, 1e-3))) <= 10e-6
        for a in np.linspace(0.02, math.pi / 2, 50)))

    def optimum():
        k, th, _ = optimize.scan_timeshare_phase(1.0, 2.0)
        return abs(k - 0.5) < 1e-6 and abs(th - math.pi / 2) < 1e-6

    add("timeshare/phase optimum at (0.5, pi/2)", optimum)

    def qsl():
        _, sy, _ = spinlin.spin_operators("half")
        t_var, t_mean = analytic.qsl_times(analytic.QslInput(
            2.0 * sy, np.array([1.0, 0.0], dtype=complex), -1.0))
        return abs(t_var - math.pi / 2) < 1e-12 and abs(t_mean - math.pi / 2) < 1e-12

    add("speed-limit bounds coincide for the driven qubit", qsl)
    add("transfer function continuous at w = Om", lambda: all(
        abs(analytic.transfer_value(1.0 + s * 1e-6, 1.0, math.pi)
            - analytic.transfer_value(1.0, 1.0, math.pi))
        <= 1e-6 * analytic.transfer_value(1.0, 1.0, math.pi) for s in (-1.0, 1.0)))
    add("transfer function vanishes at the first root", lambda:
        analytic.transfer_value(analytic.bandwidth_first_root(1.0, math.pi / 2),
                                1.0, math.pi) < 1e-12)

    failures = 0
    for name, fn in checks:
        ok = False
        try:
            ok = bool(fn())
        except Exception as exc:  # a crashed check is a failed check
            print(f"FAIL  {name}  ({exc})")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 3


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        return run(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FitError, ArithmeticError) as exc:
        # parse_config raises only ConfigError, so config is set here
        print(f"numeric failure in {config.describe()}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
