#!/usr/bin/env python3
"""Drive one breaking-wave run end to end and narrate what happens.

Solves the amplitude so the initial slope sits a chosen margin beyond the
sharp threshold, prints the threshold report and the Riccati time bound,
integrates until detection, and compares the fitted blow-up rate and time
against the bound.

    python3 scripts/breaking_wave_demo.py --n 512 --margin 1.05
"""

import argparse

from dghsim.criteria import estimate_blowup_rate, evaluate_criteria
from dghsim.criteria import InsufficientWindowError
from dghsim.grid import PeriodicGrid
from dghsim.model import ModelParams
from dghsim.scenarios import build_initial_data, solve_blowup_amplitude
from dghsim.stepping import SimConfig, run


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=512, help="grid size")
    ap.add_argument("--margin", type=float, default=1.05,
                    help="initial slope as a multiple of the sharp threshold")
    ap.add_argument("--b", type=float, default=1.0, help="density amplitude")
    ap.add_argument("--t-end", type=float, default=5.0)
    args = ap.parse_args(argv)

    p = ModelParams(A=1.0, gamma=0.0)
    a = solve_blowup_amplitude(b=args.b, margin=args.margin, model=p, n=args.n)
    print(f"solved amplitude a = {a:.9f} (margin {args.margin} past threshold)")

    s0 = build_initial_data("blowup31", {"a": a, "b": args.b}, PeriodicGrid(args.n))
    rep = evaluate_criteria(s0.u, s0.rho, p)
    print(f"E0 = {rep.e0:.6f}, m0 = {rep.m0:.6f} at xi0 = {rep.xi0:.4f}")
    for name, th in rep.thresholds.items():
        met = rep.verdicts[name].hypothesis_met
        print(f"  threshold {name:<13} {th:9.4f}  hypothesis met: {met}")
    bound = rep.riccati_t
    print(f"Riccati blow-up time bound: {bound:.4f}")

    res = run(s0, p, SimConfig(n=args.n, t_end=args.t_end))
    tr = res.slope_trace
    print(f"\n{res.termination.cause} at t = {res.termination.t:.6f} "
          f"({tr.times.size - 1} steps)")
    print(f"final min slope {tr.m[-1]:.3e}, within bound: "
          f"{res.termination.t <= bound}")

    try:
        est = estimate_blowup_rate(tr)
        print(f"fitted rate (T - t) min u_x -> {est.rate:.4f} "
              f"(R^2 = {est.fit_quality:.6f}, {est.samples} samples)")
        print(f"fitted blow-up time {est.t_blowup:.4f}")
    except InsufficientWindowError as exc:
        print(f"rate fit unavailable: {exc}")


if __name__ == "__main__":
    main()
