"""Checks of dghsim artifacts against quantities computed apart from the program.

Every reference value here comes from a closed form for the initial data
or from the paper's formulas (sharp and mean-based Riccati routes, the
exponential envelope), never from a saved copy of earlier output.  Each
check returns a list of problems; an empty list means the result passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# sharp constant of the H1 -> Linf embedding on the unit circle, and the
# peak G(0) = cosh(1/2) / (2 sinh(1/2)) of the smoothing kernel
C_SHARP = (math.e + 1.0) / (2.0 * (math.e - 1.0))
KERNEL_MAX = math.cosh(0.5) / (2.0 * math.sinh(0.5))

# series.csv columns: t, E0, meanU, hamE, hamF, minUx, xi, alpha, dt
T, E0, MEAN_U, MIN_UX = 0, 1, 2, 5

RATE_RANGE = (-2.4, -1.6)  # the paper's asymptote is -2
RESOLVED_T = 0.15  # breaking run: E0 is still conserved up to here
RESOLVED_E0_DRIFT = 1.0e-6
HONEST_E0_DRIFT = 1.0e-2
GLOBAL_E0_DRIFT = 1.0e-4
MEAN_U_RESOLVED = 1.0e-13
MEAN_U_ANY = 1.0e-10
TRANSPORT_TOL = 1.0e-3  # times beta = min rho0


# ---------------------------------------------------------------------------
# closed forms

def e0_blowup31(a: float, b: float) -> float:
    """E0 of u = (a/2pi) sin 2pi x, rho = b sin^2(pi(x - 1/2))."""
    return a * a / (8.0 * math.pi**2) + a * a / 2.0 + 3.0 * b * b / 8.0


def e0_global41(r0: float, ru: float) -> float:
    """E0 of u = ru sin(2pi x)/2pi, rho = r0 + sin 2pi x."""
    return ru * ru / (8.0 * math.pi**2) + ru * ru / 2.0 + r0 * r0 + 0.5


def k_sharp(e0: float, gamma: float, A: float) -> float:
    return 0.5 * C_SHARP * e0 + 2.0 * abs(gamma - A) * math.sqrt(C_SHARP * e0)


def k_mean(e0: float, a0: float, eps: float, gamma: float, A: float) -> float:
    base = (eps + 2.0) / 48.0 * e0 + (eps + 2.0) / (8.0 * eps) * a0 * a0
    root = math.sqrt((eps + 2.0) / 6.0 * e0 + (eps + 2.0) / eps * a0 * a0)
    return base + abs(gamma - A) * root


def riccati_bound(
    a: float, b: float, A: float, gamma: float, eps_list: tuple[float, ...]
) -> float:
    """Smallest blow-up time bound over the sharp and mean routes.

    m' <= -m^2/2 + K from m0 = -a blows up by 1/(a/2 - K/a) whenever
    -a < -sqrt(2K); the blowup31 velocity has zero mean, so a0 = 0.
    """
    e0 = e0_blowup31(a, b)
    ks = [k_sharp(e0, gamma, A)] + [k_mean(e0, 0.0, e, gamma, A) for e in eps_list]
    bounds = [1.0 / (0.5 * a - k / a) for k in ks if a > math.sqrt(2.0 * k)]
    if not bounds:
        raise ValueError("no route predicts blow-up for this amplitude")
    return min(bounds)


def envelope_constants(r0: float, ru: float, A: float, gamma: float):
    """(beta, c1, c2) of the global41 envelope (c2/2 beta) exp((c1 + 1/2) t)."""
    e0 = e0_global41(r0, ru)
    beta = r0 - 1.0
    c1 = (
        C_SHARP * e0
        + 2.0 * abs(gamma - A) * math.sqrt(C_SHARP * e0)
        + KERNEL_MAX * e0
    )
    c2 = (r0 + 1.0) ** 2 + 1.0 + ru * ru
    return beta, c1, c2


def sweep_grid(lo: float, hi: float, count: int) -> list[float]:
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


# ---------------------------------------------------------------------------
# artifacts

def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def load_run(out_dir: Path) -> dict:
    """The artifacts of one `dghsim run`, parsed."""
    chars = out_dir / "characteristics.csv"
    snap0 = out_dir / "snapshots" / "t_0.csv"
    return {
        "report": json.loads((out_dir / "report.json").read_text()),
        "series": _csv(out_dir / "series.csv"),
        "chars": _csv(chars) if chars.exists() else None,
        "snap0": _csv(snap0) if snap0.exists() else None,
    }


def _close(problems: list, what: str, got, want: float, rel: float) -> None:
    if got is None or not abs(got - want) <= rel * max(1.0, abs(want)):
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _agree(problems: list, what: str, got, want: float) -> None:
    """The program's own summary must agree with the value recomputed here."""
    if got is None or not math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-12):
        problems.append(f"{what}: got {got!r}, recomputed {want!r}")


def _check_snapshot0(problems: list, snap0, u_fn, rho_fn, scale: float) -> None:
    if snap0 is None:
        problems.append("snapshot at t = 0 is missing")
        return
    x = snap0[:, 0]
    err = max(
        float(np.max(np.abs(snap0[:, 1] - u_fn(x)))),
        float(np.max(np.abs(snap0[:, 2] - rho_fn(x)))),
    )
    if not err <= 1.0e-12 * scale:
        problems.append(f"snapshot at t = 0 is off the closed form by {err:.3g}")


# ---------------------------------------------------------------------------
# breaking wave

def check_breaking(
    run: dict, b: float, margin: float, A: float, gamma: float, eps_list
) -> list[str]:
    """blowup31: amplitude, E0, m0, Riccati bound, fitted time and rate."""
    problems: list[str] = []
    rep, series = run["report"], run["series"]
    a = rep["config"]["scenario"]["a"]
    e0 = e0_blowup31(a, b)
    fixed = margin * math.sqrt(2.0 * k_sharp(e0, gamma, A))
    _close(problems, "amplitude fixed point a = margin |threshold|", a, fixed, 1e-7)
    _close(problems, "initial E0 in report", rep["criteria"]["e0"], e0, 1e-10)
    _close(problems, "initial E0 in series", series[0, E0], e0, 1e-10)
    _close(problems, "m0", rep["criteria"]["m0"], -a, 1e-10)
    bound = riccati_bound(a, b, A, gamma, eps_list)
    _close(problems, "riccati_t", rep["criteria"]["riccati_t"], bound, 1e-9)

    cause = rep["run"]["termination"]["cause"]
    if cause != "BlowupDetected":
        problems.append(f"termination {cause}, expected BlowupDetected")
    est = rep["rate_estimate"]
    if "unavailable" in est:
        problems.append(f"no rate estimate: {est['unavailable']}")
    else:
        if not 0.0 < est["t_blowup"] <= bound:
            problems.append(
                f"fitted blow-up time {est['t_blowup']!r} outside (0, {bound!r}]"
            )
        if not RATE_RANGE[0] <= est["rate"] <= RATE_RANGE[1]:
            problems.append(f"rate {est['rate']!r} outside {RATE_RANGE}")

    early = series[:, T] <= RESOLVED_T
    drift = float(np.max(np.abs(series[early, E0] - e0))) / e0
    if not drift <= RESOLVED_E0_DRIFT:
        problems.append(
            f"E0 drift {drift:.3g} for t <= {RESOLVED_T} exceeds {RESOLVED_E0_DRIFT}"
        )
    mu = np.abs(series[:, MEAN_U])  # the closed-form mean of u is 0
    if not float(np.max(mu[early])) <= MEAN_U_RESOLVED:
        problems.append(f"mean u drift {float(np.max(mu[early])):.3g} while resolved")
    if not float(np.max(mu)) <= MEAN_U_ANY:
        problems.append(f"mean u drift {float(np.max(mu)):.3g} over the run")

    _check_snapshot0(
        problems,
        run["snap0"],
        lambda x: a / (2.0 * math.pi) * np.sin(2.0 * math.pi * x),
        lambda x: b * np.sin(math.pi * (x - 0.5)) ** 2,
        max(1.0, a),
    )
    return problems


def check_honest_stop(
    run: dict, b: float, A: float, gamma: float, eps_list
) -> list[str]:
    """A breaking run must stop by the Riccati bound with E0 still held."""
    rep, series = run["report"], run["series"]
    a = rep["config"]["scenario"]["a"]
    bound = riccati_bound(a, b, A, gamma, eps_list)
    e0 = e0_blowup31(a, b)
    problems = []
    t_stop = rep["run"]["termination"]["t"]
    if not t_stop <= bound:
        problems.append(f"stopped at t = {t_stop:.6g}, after the Riccati bound {bound:.6g}")
    drift = abs(float(series[-1, E0]) - e0) / e0
    if not drift <= HONEST_E0_DRIFT:
        problems.append(f"relative E0 drift {drift:.3g} at the last record")
    return problems


# ---------------------------------------------------------------------------
# smooth runs

def check_global(
    run: dict,
    r0: float,
    ru: float,
    t_end: float,
    count: int,
    A: float,
    gamma: float,
) -> list[str]:
    """global41: reaches t_end, conserves E0, transports rho, stays enveloped."""
    problems: list[str] = []
    rep, series, chars = run["report"], run["series"], run["chars"]
    term = rep["run"]["termination"]
    if term["cause"] != "ReachedEnd" or not abs(term["t"] - t_end) <= 1e-9:
        problems.append(f"termination {term}, expected ReachedEnd at {t_end}")
    e0 = e0_global41(r0, ru)
    _close(problems, "initial E0 in report", rep["criteria"]["e0"], e0, 1e-10)
    _close(problems, "initial E0 in series", series[0, E0], e0, 1e-10)
    _close(problems, "m0", rep["criteria"]["m0"], -ru, 1e-10)

    drift = float(np.max(np.abs(series[:, E0] - e0))) / e0
    if not drift <= GLOBAL_E0_DRIFT:
        problems.append(f"E0 drift {drift:.3g} exceeds {GLOBAL_E0_DRIFT}")
    last_drift = abs(float(series[-1, E0]) - float(series[0, E0])) / float(series[0, E0])
    _agree(problems, "reported E0 drift", rep["run"]["drift"]["e0_rel"], last_drift)
    mu = float(np.max(np.abs(series[:, MEAN_U])))
    if not mu <= MEAN_U_RESOLVED:
        problems.append(f"mean u drift {mu:.3g}")

    beta, c1, c2 = envelope_constants(r0, ru, A, gamma)
    lyap = rep["lyapunov"]
    for key, want in (("beta", beta), ("c1", c1), ("c2", c2)):
        _close(problems, f"envelope constant {key}", lyap.get(key), want, 1e-9)
    envelope = c2 / (2.0 * beta) * np.exp((c1 + 0.5) * series[:, T])
    if not np.all(np.abs(series[:, MIN_UX]) <= envelope):
        problems.append("|min u_x| left the envelope (c2/2 beta) exp((c1 + 1/2) t)")

    if chars is None:
        problems.append("characteristics.csv is missing")
    else:
        problems += _check_paths(chars, rep.get("characteristics"), r0, beta, count)

    _check_snapshot0(
        problems,
        run["snap0"],
        lambda x: ru * np.sin(2.0 * math.pi * x) / (2.0 * math.pi),
        lambda x: r0 + np.sin(2.0 * math.pi * x),
        r0 + 1.0,
    )
    return problems


def _check_paths(chars: np.ndarray, reported, r0: float, beta: float, count: int):
    """Monotone paths and rho(t, q) q_x = rho0(seed) with rho0 in closed form."""
    problems = []
    if chars.shape[0] % count:
        return [f"{chars.shape[0]} path rows do not split into {count} seeds"]
    # rows are (t, seed, q, qx, rho_q), seeds in order within each record
    rec = chars.reshape(-1, count, 5)
    seeds = np.arange(count) / count
    if np.any(rec[:, :, 1] != seeds):
        problems.append("path seeds are not the equispaced default seeds")
    if np.any(rec[0, :, 2] != seeds) or np.any(rec[0, :, 3] != 1.0):
        problems.append("paths do not start at their seeds with q_x = 1")
    q = rec[:, :, 2]
    if not (np.all(np.diff(q, axis=1) > 0.0) and np.all(q[:, 0] + 1.0 > q[:, -1])):
        problems.append("paths crossed")
    if np.any(rec[:, :, 3] <= 0.0) or np.any(rec[:, :, 4] <= 0.0):
        problems.append("q_x or rho along a path left (0, inf)")
    rho0 = r0 + np.sin(2.0 * math.pi * seeds)
    resid = float(np.max(np.abs(rec[:, :, 4] * rec[:, :, 3] - rho0)))
    if not resid <= TRANSPORT_TOL * beta:
        problems.append(f"transport residual {resid:.3g} exceeds {TRANSPORT_TOL * beta:.3g}")
    if reported is None:
        problems.append("report has no characteristics section")
    else:
        _agree(problems, "reported transport residual", reported["transport_residual"], resid)
        if reported["monotone"] is not True or reported["sign_preserved"] is not True:
            problems.append(f"report says {reported}")
    return problems


def check_sweep(doc: dict, key: str, grid: list[float], t_end: float) -> list[str]:
    """sweep.json lists every member, on the benchmark's own grid, with exit 0."""
    problems = []
    if doc.get("param") != key:
        problems.append(f"sweep param {doc.get('param')!r}, expected {key!r}")
    runs = doc.get("runs", [])
    if len(runs) != len(grid):
        return problems + [f"{len(runs)} members listed, expected {len(grid)}"]
    for i, (entry, value) in enumerate(zip(runs, grid)):
        if not abs(entry.get(key, math.nan) - value) <= 1e-12:
            problems.append(f"member {i}: {key} = {entry.get(key)!r}, expected {value!r}")
        if entry.get("exit_code") != 0:
            problems.append(f"member {i}: exit code {entry.get('exit_code')}")
        t_sim = entry.get("t_sim", math.nan)
        if entry.get("termination") != "ReachedEnd" or not abs(t_sim - t_end) <= 1e-9:
            problems.append(f"member {i}: {entry.get('termination')} at {t_sim}")
    return problems
