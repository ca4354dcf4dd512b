"""Per-layer tracing from outside the package.

:class:`Tracer` replaces the public functions of each ``qslsense`` layer by
timing wrappers.  Every module-level binding of a timed function is replaced,
so ``optimize.transfer_value`` is timed as well as ``analytic.transfer_value``,
and so are the command handlers held in ``cli.COMMANDS``.  Spans nest: a
span's self time is its duration minus the durations of the spans it
encloses.  Counters (runs, computed run-steps, Bode points, bytes written)
are recorded at the same boundaries.  Nothing is written until
:meth:`Tracer.report`.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time

# (span name, module, attribute path) of every timed layer function.
TIMED = (
    ("labframe.run_protocol_batch", "labframe", "run_protocol_batch"),
    ("response.estimate_kernel", "response", "estimate_kernel"),
    ("response.bode_response", "response", "bode_response"),
    ("response.fit_sine_amplitude", "response", "fit_sine_amplitude"),
    ("response.RotatingFrameRunner.run_batch", "response", "RotatingFrameRunner.run_batch"),
    ("optimize.optimal_duration", "optimize", "optimal_duration"),
    ("optimize.sensitivity_surface", "optimize", "sensitivity_surface"),
    ("analytic.transfer_value", "analytic", "transfer_value"),
    ("analytic.exact_transition_probability", "analytic", "exact_transition_probability"),
    ("sequence.transition_probability", "sequence", "transition_probability"),
    ("spinlin.matexp_antihermitian", "spinlin", "matexp_antihermitian"),
)


class _Stats:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _arg(args, kwargs, index: int, name: str):
    """The argument ``name`` at position ``index`` of a call, or None if not passed."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def computed_run_steps(labframe, model, stims, protocol, dt) -> int:
    """Runs times steps of one ``run_protocol_batch`` call.

    Computed, not counted: the step size comes from the public
    ``default_timestep`` rule and the step count from the protocol's pulse
    windows, each span between window edges taking ceil(span / dt) steps.
    """
    stims = list(stims)
    if dt is None:
        dt = (min(labframe.default_timestep(model, s) for s in stims) if stims
              else labframe.default_timestep(model))
    duration = protocol.duration
    cuts = {0.0, duration}
    for w in protocol.windows:
        cuts.update(e for e in (w.start, w.stop) if 0.0 < e < duration)
    cuts = sorted(cuts)
    steps = sum(max(1, math.ceil((b - a) / dt)) for a, b in zip(cuts[:-1], cuts[1:]) if b > a)
    return steps * len(stims)


class Tracer:
    """Installs timing wrappers on the loaded ``qslsense`` modules."""

    def __init__(self):
        self.stats: dict[str, _Stats] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []

    def _wrap(self, name: str, fn, on_exit=None):
        stats = self.stats.setdefault(name, _Stats())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
            if on_exit is not None:
                on_exit(stats, args, kwargs, result)
            return result

        return wrapper

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "qslsense" or n.startswith("qslsense."))]

    def _rebind(self, fn, wrapper) -> None:
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)

    def install(self, pkg) -> None:
        """Wrap every layer function, CSV writer and CLI command handler of ``pkg``."""
        labframe = pkg.labframe

        def on_batch(stats, args, kwargs, result):
            stims = _arg(args, kwargs, 1, "stims")
            stats.add("runs", len(stims))
            stats.add("run_steps", computed_run_steps(
                labframe, _arg(args, kwargs, 0, "model"), stims,
                _arg(args, kwargs, 2, "protocol"), _arg(args, kwargs, 3, "dt")))

        def on_rotating_batch(stats, args, kwargs, result):
            stats.add("runs", len(_arg(args, kwargs, 1, "stims")))

        def on_bode(stats, args, kwargs, result):
            stats.add("points", len(result.frequencies))
            stats.add("flagged", int(sum(bool(f) for f in result.flagged)))

        def on_write(stats, args, kwargs, result):
            stats.add("bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))

        hooks = {"labframe.run_protocol_batch": on_batch,
                 "response.RotatingFrameRunner.run_batch": on_rotating_batch,
                 "response.bode_response": on_bode}
        for name, module, path in TIMED:
            owner = getattr(pkg, module, None)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, parts[-1], None)
            if fn is None:
                self.missing.append(name)
                self.stats.setdefault(name, _Stats())
                continue
            wrapper = self._wrap(name, fn, hooks.get(name))
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapper)
            else:
                self._rebind(fn, wrapper)

        # The CSV writers, wherever they live: every module-level write_*csv.
        seen = set()
        for mod in self._modules():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("write_") and attr.endswith("csv") and callable(fn)
                        and fn not in seen):
                    wrapper = self._wrap("cli.write", fn, on_write)
                    seen.update((fn, wrapper))
                    self._rebind(fn, wrapper)
        self.stats.setdefault("cli.write", _Stats())

        cli = pkg.cli
        for command, fn in list(cli.COMMANDS.items()):
            wrapper = self._wrap(f"cli.{command}", fn)
            cli.COMMANDS[command] = wrapper
            self._rebind(fn, wrapper)
        self._rebind(cli.run_checks, self._wrap("cli.check", cli.run_checks))

    def report(self) -> dict:
        """Per-span calls, total and self seconds, and counters."""
        return {name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, **s.counts}
                for name, s in self.stats.items()}
