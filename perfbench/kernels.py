"""Kernel timings, each checked against a reference answer first.

Every kernel is called on inputs whose exact output is known in closed
form (low-mode trig polynomials) or by construction (pad then project is
the identity).  A kernel whose answer is wrong posts no timing.  Inputs
come from numpy's default_rng(seed), so a seed fixes them.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

TWO_PI = 2.0 * math.pi
POINTS = 64  # interpolation points, as many as smooth_chars' characteristics
MODES = 8  # highest mode of the random trig polynomials
REPEATS = 7  # timed batches; the median batch is reported
BATCH_S = 0.02  # target length of one batch


def per_call_us(fn, *args) -> float:
    """Median over REPEATS batches of the time of one call, in microseconds."""
    fn(*args)
    calls = 1
    while True:
        t0 = perf_counter()
        for _ in range(calls):
            fn(*args)
        if perf_counter() - t0 >= BATCH_S:
            break
        calls *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(calls):
            fn(*args)
        samples.append((perf_counter() - t0) / calls)
    return statistics.median(samples) * 1e6


class TrigPoly:
    """c0 + sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x), k = 1 .. MODES."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.c0 = float(rng.normal())
        self.k = np.arange(1, MODES + 1)
        self.a = rng.normal(size=MODES) / self.k
        self.b = rng.normal(size=MODES) / self.k

    def __call__(self, x: np.ndarray) -> np.ndarray:
        th = TWO_PI * np.outer(x, self.k)
        return self.c0 + np.cos(th) @ self.a + np.sin(th) @ self.b

    def dx(self, x: np.ndarray) -> np.ndarray:
        th = TWO_PI * np.outer(x, self.k)
        w = TWO_PI * self.k
        return np.cos(th) @ (w * self.b) - np.sin(th) @ (w * self.a)


def rhs_reference(x, alpha, B, C, A, gamma):
    """Exact right-hand side at u = alpha sin 2pi x, rho = B + C cos 2pi x.

    The convolution argument u^2 + u_x^2/2 + (gamma - A) u + rho^2/2 has
    modes 0..2 only; (G*)' acts on mode k through 2 pi i k/(1 + 4 pi^2 k^2).
    """
    th = TWO_PI * x
    h1 = 1.0 / (1.0 + 4.0 * math.pi**2)
    h2 = 1.0 / (1.0 + 16.0 * math.pi**2)
    cos1 = B * C  # mode-1 cosine of the argument
    sin1 = (gamma - A) * alpha  # mode-1 sine
    cos2 = -alpha**2 / 2.0 + math.pi**2 * alpha**2 + C**2 / 4.0  # mode-2 cosine
    conv = h1 * TWO_PI * (sin1 * np.cos(th) - cos1 * np.sin(th))
    conv -= h2 * 2.0 * TWO_PI * cos2 * np.sin(2.0 * th)
    ux = TWO_PI * alpha * np.cos(th)
    du = -math.pi * alpha**2 * np.sin(2.0 * th) + gamma * ux - conv
    drho = -TWO_PI * alpha * (B * np.cos(th) + C * np.cos(2.0 * th))
    return du, drho


def _off(got, want) -> float:
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def time_kernels(dg, n: int, A: float, gamma: float, seed: int):
    """({metric: microseconds}, [problems]) for the kernels at grid size n."""
    grid_mod, model_mod = dg.grid, dg.model
    rng = np.random.default_rng(seed)
    grid = grid_mod.PeriodicGrid(n)
    x = grid.nodes
    times: dict[str, float] = {}
    problems: list[str] = []

    def timed(metric, err, tol, fn, *args):
        if err <= tol:
            times[metric] = per_call_us(fn, *args)
        else:
            problems.append(f"{metric}: answer off the reference by {err:.3g}")

    alpha, B, C = rng.uniform(0.5, 2.0), rng.uniform(2.0, 3.0), rng.uniform(0.2, 1.0)
    u, rho = alpha * np.sin(TWO_PI * x), B + C * np.cos(TWO_PI * x)
    p = model_mod.ModelParams(A=A, gamma=gamma)
    du, drho = model_mod.rhs_values(u, rho, grid, p)
    ref_du, ref_drho = rhs_reference(x, alpha, B, C, A, gamma)
    err = max(_off(du, ref_du), _off(drho, ref_drho))
    timed("model.rhs_values_us", err, 1e-10, model_mod.rhs_values, u, rho, grid, p)

    poly = TrigPoly(rng)
    v = poly(x)
    err = _off(grid_mod.deriv_values(v, 1), poly.dx(x))
    timed("grid.deriv_values_us", err, 1e-10, grid_mod.deriv_values, v, 1)

    xs = rng.uniform(0.0, 1.0, POINTS)
    err = _off(grid_mod.interp_values(v, xs), poly(xs))
    timed("grid.interp_values_us", err, 1e-10, grid_mod.interp_values, v, xs)

    fine = grid_mod.pad_values(v, 2 * n)
    err = _off(fine, poly(np.arange(2 * n) / (2 * n)))
    timed("grid.pad_values_us", err, 1e-12, grid_mod.pad_values, v, 2 * n)

    w = rng.normal(size=2 * n)
    back = grid_mod.project_values(grid_mod.pad_values(w[:n], 2 * n), n)
    err = max(_off(back, w[:n]), _off(grid_mod.project_values(fine, n), v))
    timed("grid.project_values_us", err, 1e-12, grid_mod.project_values, w, n)
    return times, problems
