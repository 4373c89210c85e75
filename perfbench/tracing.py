"""Spans and counts recorded around the calls dghsim's modules make into each other.

A span is recorded by replacing a module-level name, in the namespace of
the module that looks it up at call time, with a wrapper that times the
call.  Spans are aggregated in memory per name: calls, total seconds, and
the seconds covered by child spans, so a layer's self time is its total
minus that.  Nothing inside the package is edited.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from time import perf_counter


class Spans:
    """Aggregated spans and counters, installed by patching module names."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.child: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def replace(self, owner, attr: str, make) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(fn))
        self._undo.append((owner, attr, fn))

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of owner.attr as span `name`; `after(args)` runs last."""
        stack, calls, total, child = self._stack, self.calls, self.total, self.child

        def make(fn):
            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    covered = stack.pop()
                    calls[name] += 1
                    total[name] += dur
                    child[name] += covered
                    if stack:
                        stack[-1] += dur
                    if after is not None:
                        after(args)

            return traced

        self.replace(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without timing them."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        self.replace(owner, attr, make)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


def install_layers(spans: Spans, dg) -> None:
    """Wrap the names each dghsim layer calls, at its callers.

    `dg` holds the modules: cli, stepping, model, grid, characteristics,
    scenarios, and numpy.fft as fft.
    """
    cli, stepping, model, grid = dg.cli, dg.stepping, dg.model, dg.grid

    def add_bytes(args) -> None:
        spans.counts["cli.bytes_written"] += os.path.getsize(args[0])

    spans.count(dg.fft, "rfft", "fft")
    spans.count(dg.fft, "irfft", "fft")
    for attr in ("parse_config_entries", "scenario_from_entries"):
        spans.span(cli, attr, "scenarios.parse")
    spans.span(dg.scenarios.Scenario, "resolve", "scenarios.resolve")
    spans.span(cli, "evaluate_criteria", "criteria.evaluate")
    spans.span(cli, "estimate_blowup_rate", "criteria.rate_fit")
    spans.span(cli, "lyapunov_trace", "criteria.lyapunov")
    for attr in ("verify_density_transport", "is_monotone", "sign_preserved"):
        spans.span(cli, attr, "characteristics.check")
    for attr in ("_write_csv", "_write_json"):
        spans.span(cli, attr, "cli.write", after=add_bytes)

    spans.span(stepping, "adaptive_dt", "stepping.adaptive_dt")
    spans.span(stepping, "refined_min", "criteria.refined_min")
    spans.span(stepping, "rhs_values", "model.rhs_values")
    for attr in ("energy_e0", "mean_u", "hamiltonian_e", "hamiltonian_f"):
        spans.span(stepping, attr, "model.invariants")
    kernels = ("deriv_values", "interp_values", "pad_values", "project_values")
    for mod in (stepping, model, grid, dg.characteristics):
        for attr in kernels:
            if hasattr(mod, attr):
                spans.span(mod, attr, f"grid.{attr}")

    # the integrator's own span, with the FFT calls made inside it
    spans.span(cli, "run", "stepping.run")

    def make_run(fn):
        def run(*args, **kwargs):
            before = spans.counts["fft"]
            try:
                return fn(*args, **kwargs)
            finally:
                spans.counts["fft.in_run"] += spans.counts["fft"] - before

        return run

    spans.replace(cli, "run", make_run)
