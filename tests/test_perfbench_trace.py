"""perfbench's trace mode still finds the names it wraps in dghsim.

`perfbench/run.py --trace 1` times each layer by replacing, in dghsim's
modules, the names those modules call.  A name that a change removes or
renames is only listed as missing, and its layer silently drops out of
the per-layer report, so this test names what may be missing.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

import dghsim.characteristics  # noqa: E402
import dghsim.cli  # noqa: E402
import dghsim.grid  # noqa: E402
import dghsim.model  # noqa: E402
import dghsim.scenarios  # noqa: E402
import dghsim.stepping  # noqa: E402

# no run calls the sample-space right-hand side since the integrator
# works on coefficients (ROADMAP item 4)
KNOWN_MISSING = ["dghsim.stepping.rhs_values"]
# the names perfbench's kernels.time_kernels calls
KERNELS = [
    ("model", "rhs_values"),
    ("grid", "deriv_values"),
    ("grid", "interp_values"),
    ("grid", "pad_values"),
    ("grid", "project_values"),
]


def _program():
    """dghsim's modules as perfbench's run.py hands them to its layers."""
    names = ("cli", "stepping", "model", "grid", "characteristics", "scenarios")
    return types.SimpleNamespace(
        fft=np.fft, **{n: getattr(dghsim, n) for n in names}
    )


def test_trace_mode_finds_every_name_it_wraps():
    dg = _program()
    owners = [*vars(dg).values(), dg.scenarios.Scenario]
    before = [dict(vars(owner)) for owner in owners]
    spans = tracing.Spans()
    try:
        tracing.install_layers(spans, dg)
        assert spans.missing == KNOWN_MISSING
        assert all(callable(getattr(getattr(dg, m), name)) for m, name in KERNELS)
    finally:
        spans.restore()
    for owner, names in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in names.items()), owner
