"""Numerical oracles for the shipped claims, shared by `dghsim selftest`
and the acceptance tests.

Each measuring function draws its inputs from the generator it is given
(or builds fixed ones), runs the program's code against an independent
reference -- direct quadrature, closed forms, numeric integration, a
steady state -- and returns the measured numbers.  Callers hold the
thresholds and choose the draw counts: the selftest runs fewer draws than
the acceptance gate, through the same functions.
"""

from __future__ import annotations

import numpy as np

from .characteristics import default_seeds, verify_density_transport
from .criteria import (
    SHARP_EMBEDDING_CONSTANT,
    k_mean,
    k_sharp,
    poincare_check,
    riccati_blowup_time,
    sobolev_sharp_check,
    threshold_mean,
    threshold_sharp,
    threshold_zero_mean,
)
from .grid import (
    PeriodicGrid,
    deriv_values,
    dgreen_convolve,
    dgreen_kernel,
    green_kernel,
    helmholtz_convolve,
    random_trig_field,
)
from .model import ModelParams, State
from .scenarios import build_initial_data
from .stepping import SimConfig, run, step_rk4

__all__ = [
    "kernel_quadrature",
    "threshold_algebra",
    "sharp_kernel_ratio",
    "poincare_margin",
    "helmholtz_oracle",
    "steady_state_deviation",
    "rk4_orders",
    "riccati_ratio",
    "transport_residual",
]


def kernel_quadrature(values, kernel_fn, m: int = 8192):
    """Convolve samples on the nodes j/n, n = values.size, by direct
    fine-grid quadrature against a sampled kernel.

    The input samples are band-limited, so zero-filling their spectrum to
    m points, with the Nyquist mode split between +n/2 and -n/2, gives
    their interpolant on the fine grid exactly; the quadrature error is
    then set by the kernel's corner, O(1/m^2) for the even kernel and its
    (midpoint-valued) derivative.
    """
    values = np.asarray(values, dtype=float)
    c = np.fft.rfft(values, norm="forward")
    c[-1] *= 0.5
    vy = np.fft.irfft(c, m, norm="forward")
    x, y = np.arange(values.size) / values.size, np.arange(m) / m
    gram = kernel_fn(x[:, None] - y[None, :])
    return gram @ vy / m


def _integrate_riccati(c: float, k: float, y0: float, y_stop: float = -1.0e6) -> float:
    """RK4 integration of y' = -c y^2 + k until y falls through y_stop."""
    def f(y):
        return -c * y * y + k

    t, y = 0.0, y0
    while y > y_stop:
        dt = 0.005 / max(c * abs(y), 1.0)
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        if t > 1.0e6:
            raise RuntimeError("riccati integration did not blow up")
    return t


def threshold_algebra(rng: np.random.Generator, draws: int) -> tuple[float, float]:
    """(worst relative residual of threshold^2 = 2 K over both routes,
    worst gap between the eps -> 0 mean threshold and the zero-mean one)."""
    worst_id = 0.0
    worst_lim = 0.0
    for _ in range(draws):
        e0 = float(rng.uniform(0.0, 50.0))
        a0 = float(rng.uniform(-5.0, 5.0))
        eps = float(rng.uniform(1e-3, 20.0))
        gamma = float(rng.uniform(-3.0, 3.0))
        a = float(rng.uniform(0.1, 3.0))
        ts = threshold_sharp(e0, gamma, a)
        tm = threshold_mean(e0, a0, eps, gamma, a)
        worst_id = max(
            worst_id,
            abs(ts * ts - 2.0 * k_sharp(e0, gamma, a)) / max(1.0, ts * ts),
            abs(tm * tm - 2.0 * k_mean(e0, a0, eps, gamma, a)) / max(1.0, tm * tm),
        )
        worst_lim = max(
            worst_lim,
            abs(
                threshold_mean(e0, 0.0, 1e-8, gamma, a)
                - threshold_zero_mean(e0, gamma, a)
            ),
        )
    return worst_id, worst_lim


def sharp_kernel_ratio(rng: np.random.Generator, draws: int) -> tuple[float, float]:
    """(distance of the kernel's embedding ratio from the sharp constant,
    worst excess of a random field's ratio over it)."""
    g = PeriodicGrid(512)
    f = green_kernel(g.nodes)
    fx = dgreen_kernel(g.nodes)
    fx[0] = -0.5  # one-sided corner derivative, so fx^2 keeps its size there
    err = abs(sobolev_sharp_check(f, fx) - SHARP_EMBEDDING_CONSTANT)
    g2 = PeriodicGrid(256)
    worst = -np.inf
    for _ in range(draws):
        h = random_trig_field(g2, rng, max_mode=10, rms=float(rng.uniform(0.1, 4.0)))
        worst = max(worst, sobolev_sharp_check(h) - SHARP_EMBEDDING_CONSTANT)
    return float(err), float(worst)


def poincare_margin(rng: np.random.Generator, draws: int) -> float:
    """Smallest margin of the mean-based embedding over random fields and
    eps in (0.1, 1, 10)."""
    g = PeriodicGrid(256)
    worst = np.inf
    for _ in range(draws):
        f = random_trig_field(g, rng, max_mode=10, rms=float(rng.uniform(0.1, 4.0)))
        for eps in (0.1, 1.0, 10.0):
            worst = min(worst, poincare_check(f, eps))
    return float(worst)


def helmholtz_oracle(rng: np.random.Generator, draws: int) -> tuple[float, float]:
    """(worst gap between G* and direct kernel quadrature,
    worst gap between (G*)' and the derivative of G*)."""
    g = PeriodicGrid(256)
    worst_quad = 0.0
    worst_split = 0.0
    for _ in range(draws):
        f = random_trig_field(g, rng, max_mode=12, rms=float(rng.uniform(0.2, 2.0)))
        direct = kernel_quadrature(f, green_kernel)
        worst_quad = max(
            worst_quad, float(np.max(np.abs(helmholtz_convolve(f) - direct)))
        )
        split = deriv_values(helmholtz_convolve(f), 1)
        worst_split = max(
            worst_split, float(np.max(np.abs(dgreen_convolve(f) - split)))
        )
    return worst_quad, worst_split


def steady_state_deviation(steps: int) -> float:
    """Sup deviation of the constant state (u, rho) = (0.5, 1) after
    `steps` RK4 steps of 1e-3 at n = 64."""
    s0 = build_initial_data("constant", {"c": 0.5, "r": 1.0}, PeriodicGrid(64))
    s = step_rk4(s0, ModelParams(A=1.0, gamma=0.0), 1.0e-3, steps)
    return max(
        float(np.max(np.abs(s.u - s0.u))),
        float(np.max(np.abs(s.rho - s0.rho))),
    )


def rk4_orders() -> list[float]:
    """Observed convergence orders of step_rk4 to t = 0.1 between 32, 64 and
    128 steps, against a 1024-step reference, on smooth data at n = 64."""
    g = PeriodicGrid(64)
    x = g.nodes
    s0 = State(
        g, 0.5 + 0.25 * np.sin(2.0 * np.pi * x), 1.0 + 0.25 * np.cos(2.0 * np.pi * x)
    )
    p = ModelParams(A=1.0, gamma=0.3)
    t_end = 0.1

    def integrate(count):
        return step_rk4(s0, p, t_end / count, count).u

    ref = integrate(1024)
    errs = [float(np.max(np.abs(integrate(k) - ref))) for k in (32, 64, 128)]
    return [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]


def riccati_ratio(rng: np.random.Generator, draws: int) -> float:
    """Worst ratio of the numeric Riccati blow-up time to its closed-form
    bound over random (c, K, y0) past the threshold."""
    worst = 0.0
    for _ in range(draws):
        c = float(rng.uniform(0.1, 2.0))
        k = float(rng.uniform(0.0, 4.0))
        y0 = -np.sqrt(k / c) * float(rng.uniform(1.2, 4.0)) - 0.1
        bound = riccati_blowup_time(c, k, y0)
        worst = max(worst, _integrate_riccati(c, k, y0) / bound)
    return worst


def transport_residual(
    family: str,
    params: dict,
    n: int,
    count: int,
    record_every: int = 10,
) -> float:
    """sup |rho(t, q) q_x - rho0| over a coupled run to t = 1 of `count`
    equispaced characteristics from one initial-data family (A = 1,
    gamma = 0), recorded every `record_every` steps."""
    s0 = build_initial_data(family, params, PeriodicGrid(n))
    cfg = SimConfig(n=n, t_end=1.0, record_every=record_every)
    res = run(s0, ModelParams(A=1.0, gamma=0.0), cfg, seeds=default_seeds(count))
    return verify_density_transport(res.ensemble)
