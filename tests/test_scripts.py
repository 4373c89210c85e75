"""Smoke runs of each script under scripts/ at a small size, so that an API
change cannot break one unnoticed."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# script -> (arguments, a line fragment its output must contain)
RUNS = {
    "global_existence_demo": (
        ["--n", "32", "--t-end", "0.2", "--seeds", "4"], "ReachedEnd at t = 0.2"
    ),
    "breaking_wave_demo": (["--n", "64"], "BlowupDetected"),
    # the E0 guard ends the n = 64 dive above twice the fit cutoff; the
    # window then holds every sample past the cutoff, and the row a rate
    "rate_resolution_study": (["--resolutions", "64"], "-2.5240"),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_script_runs(name, capsys):
    argv, expected = RUNS[name]
    main = runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]
    main(argv)
    assert expected in capsys.readouterr().out
