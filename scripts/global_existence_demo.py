#!/usr/bin/env python3
"""Long smooth run with a sign-definite density: certificate and envelope.

When the initial density never vanishes, the slope at the moving minimum
obeys an exponential envelope |m(t)| <= (c2 / 2 beta) exp((c1 + 1/2) t)
and the run should reach t_end with conserved invariants.  This script
integrates the smooth preset, reports drifts, envelope headroom, and the
density-transport residual along characteristics.

    python3 scripts/global_existence_demo.py --t-end 10
"""

import argparse

import numpy as np

from dghsim.characteristics import (
    default_seeds,
    is_monotone,
    sign_preserved,
    verify_density_transport,
)
from dghsim.criteria import lyapunov_trace
from dghsim.grid import PeriodicGrid
from dghsim.model import ModelParams
from dghsim.scenarios import build_initial_data
from dghsim.stepping import SimConfig, run


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--t-end", type=float, default=10.0)
    ap.add_argument("--r0", type=float, default=2.0, help="density offset (> 1)")
    ap.add_argument("--seeds", type=int, default=64)
    args = ap.parse_args(argv)

    p = ModelParams(A=1.0, gamma=0.0)
    s0 = build_initial_data("global41", {"r0": args.r0, "ru": 1.0},
                            PeriodicGrid(args.n))
    cfg = SimConfig(n=args.n, t_end=args.t_end)
    res = run(s0, p, cfg, seeds=default_seeds(args.seeds))

    # columns E0, meanU, hamE, hamF of the first and the last record
    first, last = res.series[[0, -1], 1:5]
    print(f"{res.termination.cause} at t = {res.termination.t:g} "
          f"({res.slope_trace.times.size - 1} steps)")
    print(f"relative E0 drift  {abs(last[0] - first[0]) / first[0]:.3e}")
    print(f"mean-u drift       {abs(last[1] - first[1]):.3e}")
    print(f"hamE / hamF drift  {abs(last[2] - first[2]):.3e} / "
          f"{abs(last[3] - first[3]):.3e}")

    lt = lyapunov_trace(res.slope_trace, s0.rho, s0.u, first[0], p)
    m_peak = float(np.max(np.abs(res.slope_trace.m)))
    print(f"\nenvelope: beta = {lt.beta:.3f}, c1 = {lt.c1:.4f}, "
          f"c2 = {lt.c2:.4f}")
    print(f"max |m| over the run {m_peak:.4f}, envelope at t=0 "
          f"{lt.envelope[0]:.4f}, violations: {lt.violations.size}")

    e = res.ensemble
    print(f"\ncharacteristics ({args.seeds} seeds):")
    print(f"  transport residual  {verify_density_transport(e, s0.rho):.3e}")
    print(f"  paths ordered       {is_monotone(e)}")
    print(f"  density sign fixed  {sign_preserved(e, s0.rho)}")
    print(f"  Jacobian range      [{e.qx.min():.4f}, {e.qx.max():.4f}]")


if __name__ == "__main__":
    main()
