"""Command-line interface regenerating the toolkit's figure datasets as CSV files.

Every command writes deterministic CSV (12 significant digits, unit-suffixed
column names), so repeated runs produce byte-identical files.  Frequencies
on the command line accept cycle (Hz-family) or angular (rad/s-family)
suffixes and are converted to rad/s internally; see :mod:`qslsense.units`.

Each command is a handler in :data:`COMMANDS`, a plain function of its flag
values: its keyword parameters are its flags in ``--help`` order (``tau_max``
for ``--tau-max``), in SI units, each defaulting to the flag's default, or to
``None`` where the value is derived from others (a pulse's third value,
``--max-freq``, ``--tau-max``, ``optimal``'s ``--points``).  A command takes
only those flags; any other is a configuration error naming it.  Flag values
may also come from ``--config FILE``, a JSON object of that command's flag
values such as ``{"rabi": "10MHz", "points": 41}`` and nothing else; a flag
given on the command line wins over the document.  ``--backend lab`` always
uses the resonant model with a 1 GHz Zeeman shift at the resolved Rabi rate,
and refuses a pulse (tau/2) shorter than its carrier period, 0.258 ns;
other models are :meth:`NvModel.resonant <qslsense.labframe.NvModel.resonant>`
at any ``d``, ``b0`` and ``chi``, run through the Python API
(:class:`~qslsense.response.LabFrameRunner`).

Every frequency, time and angle, given or derived by :func:`resolve_pulse`,
must have a magnitude in :data:`qslsense.units.DOMAIN`: rates and
frequencies 1e-6 to 1e20 rad/s, times 1e-23 to 1e7 s, angles 1e-3 to 1e3
rad; only ``--signal-freq`` may also be zero.  Any other value exits 2 with
a message naming the flag (or the two flags it is derived from), the value
and the domain.

Exit codes: 0 success, 2 configuration error, 3 numeric failure (including
a floating-point overflow, division by zero or invalid operation).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys

import numpy as np

from . import analytic, labframe, optimize, response, sequence, spinlin
from .analytic import NumericError
from .units import ConfigError, check_domain, parse_quantity

TWO_PI = 2.0 * math.pi
OUTDIR_ENV = "QSLSENSE_OUTDIR"

FIG3_ANGLES_DEG = (22.5, 45.0, 67.0, 90.0)

#: largest grid size a count flag (and fig3d's surface) may ask for
MAX_COUNT = 10**6


def write_csv(path, header, rows) -> None:
    """Write rows with %.12g numbers; the columns that hold strings in the first row as is."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fmt = None
            for row in map(tuple, rows):
                fmt = fmt or ",".join("%s" if isinstance(c, str) else "%.12g" for c in row) + "\n"
                fh.write(fmt % row)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _parse(name: str, raw):
    """A flag's given value, parsed by the kind :data:`FLAGS` gives it."""
    kind = FLAGS[name][0]
    if kind == "text":
        return str(raw)
    value = parse_quantity(str(raw), "dimensionless" if kind == "count" else kind,
                           field=f"--{name}")
    # every quantity is positive; only a signal frequency may also be zero
    if value < 0 or (value == 0 and name != "signal-freq"):
        raise ConfigError(f"--{name} must be positive, got {raw!r}")
    if kind != "count":
        return value
    if value > MAX_COUNT:
        raise ConfigError(f"--{name} must be at most {MAX_COUNT}, got {raw!r}")
    if value != int(value):
        raise ConfigError(f"--{name} must be a whole number, got {raw!r}")
    return int(value)


def resolve_pulse(rabi, alpha, tau) -> tuple[float, float, float]:
    """(omega, tau, alpha) from any two of --rabi, --alpha, --tau (the third is None).

    All three at once is over-determined and rejected rather than silently
    reconciled.  The derived one must lie in :data:`~qslsense.units.DOMAIN` too.
    """
    given = [n for n, v in zip(_PULSE, (rabi, alpha, tau)) if v is not None]
    if len(given) == 3:
        raise ConfigError("give exactly two of --rabi, --alpha, --tau (three is over-determined)")
    if len(given) < 2:
        raise ConfigError("need two of --rabi, --alpha, --tau to fix the pulse")
    if alpha is None:
        alpha = 0.5 * rabi * tau
    elif tau is None:
        tau = 2.0 * alpha / rabi
    else:
        rabi = 2.0 * alpha / tau
    derived = next(n for n in _PULSE if n not in given)
    check_domain({"rabi": rabi, "alpha": alpha, "tau": tau}[derived], FLAGS[derived][0],
                 f"--{derived} derived from --{given[0]} and --{given[1]}")
    return rabi, tau, alpha


def _check_flip_angle(alpha: float) -> None:
    """The closed-form metrics and the kernel's probe width need alpha in (0, pi/2]."""
    try:
        analytic.check_alpha_quadrant(alpha)
    except ValueError as exc:
        raise ConfigError(f"flip angle (--alpha, or rabi*tau/2): {exc}") from exc


def _make_runner(backend: str, omega: float, tau: float):
    if backend == "rotating":
        return response.RotatingFrameRunner(omega, tau)
    if backend == "lab":
        # moderate field: the Zeeman shift ge B0 is 1 GHz
        model = labframe.NvModel.resonant(omega, TWO_PI * 1e9 / labframe.GAMMA_E)
        # a pulse shorter than a carrier period is no longer the rotating
        # frame's rotation, and the kernel and gains it gives mean nothing
        period = TWO_PI / model.carrier
        if tau / 2.0 < period:
            raise ConfigError(f"--backend lab needs each pulse (tau/2 from --rabi, --alpha, "
                              f"--tau) to last one carrier period, {period:.6g} s; "
                              f"got {tau / 2.0:.6g} s")
        return response.LabFrameRunner(model, tau=tau)
    raise ConfigError(f"backend must be 'rotating' or 'lab', got {backend!r}")


def cmd_metrics(rabi=None, alpha=None, tau=None) -> dict:
    omega, tau, alpha = resolve_pulse(rabi, alpha, tau)
    _check_flip_angle(alpha)
    a = omega * tau / 2.0  # the closed forms' own angle, which may differ from alpha by an ulp
    row = {"omega_rad_s": omega, "tau_s": tau, "alpha_rad": alpha,
           "t_fwhm_s": analytic.time_resolution_fwhm(tau, a),
           "t_20_80_s": analytic.rise_time(tau, omega, "r20_80"),
           "t_10_90_s": analytic.rise_time(tau, omega, "r10_90"),
           "t_square_s": analytic.equivalent_duration(tau, a),
           "bw_first_root_rad_s": analytic.bandwidth_first_root(omega, a),
           "bw_3db_rad_s": analytic.bandwidth_3db(omega, a),
           "epsilon": analytic.phase_scaling_factor(a), "p0": 0.25 * (1.0 - math.cos(2 * a))}
    return {"": (list(row), [list(row.values())])}


def _kernel_probes(tau: float, alpha: float, n: int):
    """Probe fwhm (the kernel's fwhm/12) and the n probe delays over 1.1 tau."""
    return analytic.time_resolution_fwhm(tau, alpha) / 12.0, np.linspace(-0.55 * tau, 0.55 * tau, n)


def _bode(sim, wmax: float, n: int) -> response.BodeSeries:
    """Bode gains on n frequencies over [0, wmax] at a stimulus phase of 1e-3 rad."""
    return response.bode_response(sim, np.linspace(0.0, wmax, n),
                                  1e-3 / (labframe.GAMMA_E * sim.tau))


def cmd_kernel(rabi=None, alpha=None, tau=None, points=121, backend="rotating") -> dict:
    omega, tau, alpha = resolve_pulse(rabi, alpha, tau)
    _check_flip_angle(alpha)
    fwhm, grid = _kernel_probes(tau, alpha, points)
    values, norm = response.estimate_kernel(_make_runner(backend, omega, tau), fwhm, grid)
    return {"": (["t_s", "k_norm"], zip(grid, values / norm))}


def cmd_bode(rabi=None, alpha=None, tau=None, points=34, max_freq=None,
             backend="rotating") -> dict:
    omega, tau, alpha = resolve_pulse(rabi, alpha, tau)
    wmax = 3.3 * omega if max_freq is None else max_freq
    sim = _make_runner(backend, omega, tau)
    series = _bode(sim, wmax, points)
    return {"": (["omega_rad_s", "gain_norm", "chi_rad"],
                 [(w, g, sim.chi) for w, g in zip(series.frequencies, series.gains)])}


def cmd_fig2(rabi, tau_max=None, points=200) -> dict:
    """Phase pickup ratio vs duration: two-pulse branch below 2 t_R, delayed branch above."""
    t_r = (math.pi / 2.0) / rabi
    tau_max = 8.0 * t_r if tau_max is None else tau_max
    rows = []
    for tau in np.linspace(tau_max / points, tau_max, points):
        if tau <= 2.0 * t_r:
            ratio = abs(analytic.phase_scaling_factor(0.5 * rabi * tau))
            branch = "solid"
        else:
            ratio = analytic.effective_phase_extended(1.0, tau, t_r) / tau
            branch = "dashed"
        rows.append([tau, ratio, branch])
    return {"": (["tau_s", "phase_ratio", "branch"], rows)}


def cmd_fig3b(rabi, points=101) -> dict:
    alphas = [math.radians(deg) for deg in FIG3_ANGLES_DEG]
    sims = [response.RotatingFrameRunner(rabi, 2.0 * alpha / rabi) for alpha in alphas]
    fwhms, grids = zip(*(_kernel_probes(sim.tau, alpha, points)
                         for sim, alpha in zip(sims, alphas)))
    # all four angles' probes and DC pairs are stepped in one pass
    ests = response.estimate_kernels(sims, fwhms, grids)
    return {"": (["alpha_rad", "t_s", "k_norm"],
                 [(alpha, t, v) for alpha, grid, (values, norm) in zip(alphas, grids, ests)
                  for t, v in zip(grid, values / norm)])}


def cmd_fig3c(rabi, points=34) -> dict:
    wmax = 3.3 * rabi
    rows = []
    for deg in FIG3_ANGLES_DEG:
        alpha = math.radians(deg)
        series = _bode(response.RotatingFrameRunner(rabi, 2.0 * alpha / rabi), wmax, points)
        rows.extend((alpha, w, g) for w, g in zip(series.frequencies, series.gains))
    return {"": (["alpha_rad", "omega_rad_s", "gain_norm"], rows)}


def cmd_fig3d(rabi, omega_points=81, tau_points=80) -> dict:
    if omega_points * tau_points > MAX_COUNT:
        raise ConfigError(f"--omega-points times --tau-points must be at most {MAX_COUNT}, "
                          f"got {omega_points} x {tau_points}")
    wgrid = np.linspace(0.0, 4.0 * rabi, omega_points)
    tgrid = np.linspace(math.pi / rabi / tau_points, math.pi / rabi, tau_points)
    values, ridge = optimize.sensitivity_surface(rabi, wgrid, tgrid)
    # a generator: the surface has omega_points * tau_points rows
    return {"": (["omega_rad_s", "tau_s", "eta_s"],
                 ((w, tau, values[i, j])
                  for i, w in enumerate(wgrid) for j, tau in enumerate(tgrid))),
            "_ridge": (["omega_rad_s", "tau_star_s"], ridge)}


def cmd_fig4d(points=13, expensive=False) -> dict:
    """p(+stim), p(-stim), p(reference) per Rabi rate for ms0 and ms-1 prep/readout.

    The default scaled bias (ge B0 = 60 D) keeps the saturated transition
    splitting of 2 D and Rabi/carrier small over the sweep.  At the CSV's
    absolute-time carrier phase it tracks the paper's 40 T run
    (``--expensive``) within 0.0164 in every probability; a common carrier
    phase moves the scaled sweep by up to 0.037.  The 40 T sweep is now the
    cheaper one (its long windows are stepped as powered carrier periods);
    the scaled bias stays the default as perfbench/refs are built on it.
    """
    d = TWO_PI * labframe.D_NV_CYCLES
    b0 = 40.0 if expensive else 60.0 * d / labframe.GAMMA_E
    rows = []
    for omega in np.geomspace(0.1 * d, 8.0 * d, points):
        model = labframe.NvModel.resonant(omega, b0)
        tau = math.pi / omega
        bs = model.b1 / (10.0 * math.sqrt(2.0))
        stims = [labframe.Stimulus.constant(bs), labframe.Stimulus.constant(-bs), None]
        row = [omega]
        for prep in ("ms0", "ms_minus1"):
            p = labframe.run_protocol_batch(model, stims, labframe.bipartite_protocol(tau, prep))
            row.extend([p[0], p[1], p[2]])
        rows.append(row)
    return {"": (["rabi_rad_s", "p_plus_ms0", "p_minus_ms0", "p_ref_ms0",
                  "p_plus_msm1", "p_minus_msm1", "p_ref_msm1"], rows)}


def cmd_offaxis(points=11) -> dict:
    rows = []
    for deg in (0.0, 20.0, 45.0):
        # scaled model: small splitting and bias put the sensing transition
        # near 0.75 GHz, keeping runs near the Larmor frequency affordable
        model = labframe.NvModel.resonant(
            TWO_PI * 20e6, 0.25e9 / labframe.GAMMA_E_CYCLES_PER_TESLA,
            d=TWO_PI * 0.5e9, chi=math.radians(deg))
        sim = response.LabFrameRunner(model)
        amp = model.b1 / (10.0 * math.sqrt(2.0)) * 0.02
        grid = np.linspace(0.25 * sim.omega, 2.5 * sim.omega, points)
        if deg == 45.0:
            grid = np.concatenate([grid, np.array([0.5, 0.8, 0.9, 0.95]) * model.carrier])
        series = response.bode_response(sim, grid, amp)
        for w, g, fl in zip(series.frequencies, series.gains, series.flagged):
            rows.append([sim.chi, w, g, float(fl)])
    return {"": (["chi_rad", "omega_rad_s", "gain_norm", "flagged"], rows)}


def cmd_optimal(rabi, signal_freq=None, max_freq=None, points=None) -> dict:
    if signal_freq is not None:
        clash = [f for f, v in (("--max-freq", max_freq), ("--points", points)) if v is not None]
        if clash:
            raise ConfigError(f"--signal-freq excludes {' and '.join(clash)}: "
                              "give one signal frequency or a grid")
        grid = [signal_freq]
    else:
        grid = np.linspace(0.0, 4.0 * rabi if max_freq is None else max_freq,
                           41 if points is None else points)
    rows = []
    for w in grid:
        tau_star, low_conf = optimize.optimal_duration(w, rabi)
        rows.append([w, tau_star, float(low_conf)])
    return {"": (["omega_rad_s", "tau_star_s", "low_confidence"], rows)}


def cmd_qsl(rabi) -> dict:
    """Speed-limit times for the driven rotation H = Om Sy from the upper Sz state."""
    t_var, t_mean = analytic.qsl_times(rabi * spinlin.SY, np.array([1.0, 0.0], dtype=complex),
                                       -rabi / 2.0)
    return {"": (["rabi_rad_s", "t_variance_bound_s", "t_mean_bound_s"],
                 [[rabi, t_var, t_mean]])}


#: each handler maps its flag values to its tables, {file-name suffix: (header, rows)};
#: :func:`run` writes suffix "" to the output path and any other beside it
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

#: kind (how :func:`_parse` parses it) and help text of every value flag
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


def _flags(handler) -> dict:
    """A handler's parameters by flag name: those in :data:`FLAGS` are value flags and
    ``--config`` keys, any other (fig4d's ``expensive``) is a switch."""
    return {n.replace("_", "-"): p for n, p in inspect.signature(handler).parameters.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is a configuration error
        raise ConfigError(message)


@functools.cache  # parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qslsense", allow_abbrev=False,
                     description="Regenerate sensing-at-the-speed-limit figure datasets as CSV.")
    parser.add_argument("--check", action="store_true",
                        help="run the analytic self-checks and exit (takes no command)")
    sub = parser.add_subparsers(dest="command")
    for name, handler in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        flags = [f for f in _flags(handler) if f in FLAGS]
        for flag in flags:
            p.add_argument(f"--{flag}", dest=flag, help=FLAGS[flag][1])
        p.add_argument("--config", help=f"JSON object of this command's flag values, with keys "
                                        f"from {', '.join(flags)}; flags on the command line win")
        p.add_argument("--out", help="output CSV path")
        if "expensive" in _flags(handler):
            p.add_argument("--expensive", action="store_true", help="full-scale run: B0 = 40 T")
    return parser


def parse_config(argv) -> tuple[str, dict, str | None, str]:
    """Parse flags plus an optional ``--config`` document; flags override the document.

    The document is a JSON object whose keys are the command's flag names
    (without the leading ``--``) and whose values are what the flag would be
    given; any other key, or a null value, is a configuration error naming it.
    Returns the command, its handler's keyword arguments, the ``--out`` path
    and the label a numeric failure names, e.g. ``qsl (--rabi=10MHz)``.  A
    missing required flag is named before any value is parsed, and the
    values are parsed in the handler's parameter order.
    """
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        raise ConfigError(f"{args.command or 'qslsense'} does not take {' '.join(extra)}")
    if args.check:
        if args.command:
            raise ConfigError(f"--check runs alone, without a command (got {args.command})")
        return "check", {}, None, "check"
    if not args.command:
        raise ConfigError("no command given (see --help)")
    flags = _flags(COMMANDS[args.command])
    keys = [f for f in flags if f in FLAGS]
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
            if key not in keys or value is None:
                raise ConfigError(f"config file {args.config}: key {key!r} must be a flag of "
                                  f"{args.command} ({', '.join(keys)}) with a non-null value")
        merged.update(doc)
    # an absent value flag reads None, an absent switch False
    merged.update((f, getattr(args, f)) for f in flags if getattr(args, f) not in (None, False))
    for flag, param in flags.items():
        if param.default is param.empty and flag not in merged:
            raise ConfigError(f"missing required parameter --{flag}")
    kwargs = {f.replace("-", "_"): _parse(f, merged[f]) if f in FLAGS else merged[f]
              for f in flags if f in merged}
    given = " ".join(f"--{k}" if v is True else f"--{k}={v}" for k, v in merged.items())
    return args.command, kwargs, args.out, f"{args.command} ({given})" if given else args.command


def run(command: str, kwargs: dict, out: str | None) -> int:
    """Execute one command and write the tables it returns; returns the process exit code."""
    if command == "check":
        return run_checks()
    out = out or os.path.join(os.environ.get(OUTDIR_ENV, "."), f"{command}.csv")
    paths = []
    # overflow, division by zero or an invalid operation is a numeric failure,
    # never a silent inf or nan in the output
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for suffix, (header, rows) in COMMANDS[command](**kwargs).items():
            paths.append(os.path.splitext(out)[0] + suffix + ".csv" if suffix else out)
            write_csv(paths[-1], header, rows)
    for p in paths:
        print(p)
    return 0


def run_checks() -> int:
    """Fast analytic cross-checks; prints one pass/fail line each."""
    def oracle_grid():
        om, ratio, tau = np.meshgrid(np.geomspace(TWO_PI * 1e6, TWO_PI * 1e8, 8),
                                     np.geomspace(1e-4, 1.0, 8), np.geomspace(1e-9, 1e-6, 8),
                                     indexing="ij")
        p1 = [analytic.exact_transition_probability(*x)
              for x in zip(om.flat, tau.flat, (ratio * om).flat)]
        p2 = sequence.transition_probability(sequence.make_bipartite(om, tau, ratio * om))
        # a NaN deviation fails: the comparison is False for it
        return np.max(np.abs(np.subtract(p1, p2.ravel()))) <= 1e-10

    def optimum():
        k, th, _ = optimize.scan_timeshare_phase(1.0, 2.0)
        return abs(k - 0.5) < 1e-6 and abs(th - math.pi / 2) < 1e-6

    def qsl():
        t_var, t_mean = analytic.qsl_times(2.0 * spinlin.SY, np.array([1.0, 0.0], dtype=complex),
                                           -1.0)
        return abs(t_var - math.pi / 2) < 1e-12 and abs(t_mean - math.pi / 2) < 1e-12

    checks = [
        ("exact probability matches propagator product (8x8x8 grid)", oracle_grid),
        ("metric constants at alpha = 90 deg", lambda: all([
            abs(analytic.time_resolution_fwhm(1.0, math.pi / 2) - 2.0 / 3.0) < 1e-9,
            abs(analytic.rise_time(1.0, math.pi, "r20_80") - (1 - math.acos(0.2) / math.pi)) < 1e-9,
            abs(analytic.rise_time(1.0, math.pi, "r10_90") - (1 - math.acos(0.6) / math.pi)) < 1e-9,
            abs(analytic.equivalent_duration(1.0, math.pi / 2) - 2.0 / math.pi) < 1e-9,
            abs(analytic.bandwidth_first_root(1.0, math.pi / 2) - 3.0) < 1e-9,
            abs(analytic.bandwidth_3db(1.0, math.pi / 2) - 1.19) < 1e-2,
        ])),
        ("first-order expansion quality", lambda: all(
            abs(analytic.first_order_probability(a, 1e-3 * 2 * a)
                - analytic.exact_transition_probability(1.0, 2 * a, 1e-3)) <= 10e-6
            for a in np.linspace(0.02, math.pi / 2, 50))),
        ("timeshare/phase optimum at (0.5, pi/2)", optimum),
        ("speed-limit bounds coincide for the driven qubit", qsl),
        ("transfer function continuous at w = Om", lambda: all(
            abs(analytic.transfer_value(1.0 + s * 1e-6, 1.0, math.pi)
                - analytic.transfer_value(1.0, 1.0, math.pi))
            <= 1e-6 * analytic.transfer_value(1.0, 1.0, math.pi) for s in (-1.0, 1.0))),
        ("transfer function vanishes at the first root", lambda:
            analytic.transfer_value(analytic.bandwidth_first_root(1.0, math.pi / 2),
                                    1.0, math.pi) < 1e-12),
    ]

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
        command, kwargs, out, label = parse_config(sys.argv[1:] if argv is None else argv)
        return run(command, kwargs, out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ArithmeticError) as exc:
        # parse_config raises only ConfigError, so label is set here
        print(f"numeric failure in {label}: {exc}", file=sys.stderr)
        return 3

