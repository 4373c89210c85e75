"""Breakdown thresholds, slope tracking, and growth envelopes.

Everything here descends from two conserved/monitored quantities of the
flow: the energy e0 = integral(u^2 + u_x^2 + rho^2) and the (doubled)
velocity mean a0 = 2 integral(u).  A state whose minimal slope starts
below one of the thresholds, at a point where the density vanishes, rides
a Riccati inequality m' <= -m^2/2 + K into a finite-time slope blow-up;
a density bounded away from zero instead yields an exponential envelope
that rules blow-up out.

Each rule of the breakdown analysis is stated here once.  dive_cutoff
says where a slope trace has dived: the rate fit starts its window there,
and name_outcome names a run that the spectral-tail witness or the E0
drift stopped past it BlowupDetected.  name_outcome says what every stop
of stepping.run means: the cause the run's report names, and whether the
run contradicts the verdicts on its initial state.  _density_floor says
whether the initial density keeps one sign: the positive_density verdict
and the envelope's beta both read it.

The embedding constant (e+1)/(2(e-1)) is sharp for max f^2 <= C |f|_H1^2
on the unit circle and is attained by translates of the smoothing kernel;
the mean-based route max f^2 <= (eps+2)/24 int f_x^2 + (eps+2)/(4 eps) a0^2
holds for every eps > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import deriv_values, green_kernel, interp_point
from .model import ModelParams, energy_e0, mean_u

__all__ = [
    "SHARP_EMBEDDING_CONSTANT",
    "DEFAULT_EPS_LIST",
    "SlopeTrace",
    "RateEstimate",
    "LyapunovTrace",
    "Verdict",
    "CriterionReport",
    "InsufficientWindowError",
    "DensitySignChangeError",
    "refined_min",
    "refined_max",
    "k_sharp",
    "threshold_sharp",
    "k_mean",
    "threshold_mean",
    "threshold_zero_mean",
    "riccati_blowup_time",
    "dive_cutoff",
    "estimate_blowup_rate",
    "lyapunov_trace",
    "sobolev_sharp_check",
    "poincare_check",
    "evaluate_criteria",
    "name_outcome",
]

# sharp constant of the H1 -> Linf embedding on the unit circle
SHARP_EMBEDDING_CONSTANT = (math.e + 1.0) / (2.0 * (math.e - 1.0))
# peak of the smoothing kernel; numerically the same value (to 3e-16), kept
# separate because it enters the envelope bound through the kernel, not the
# embedding
_KERNEL_MAX = green_kernel(0.0)
# eps values at which the mean-based route is evaluated unless told otherwise
DEFAULT_EPS_LIST = (0.1, 1.0, 10.0)
# fewest samples the blow-up rate fit takes
_MIN_FIT_SAMPLES = 10


class InsufficientWindowError(ValueError):
    """Too few trace samples qualify for the blow-up rate fit."""


class DensitySignChangeError(ValueError):
    """rho(t, xi(t)) changed sign or vanished: resolution failure."""


def refined_min(values: np.ndarray) -> tuple[float, float]:
    """Minimum over the nodes j/n of n samples, refined by a quadratic
    through the neighbors.

    Returns (value, location); ties break to the first node.  The parabola
    vertex never lies further than half a spacing from the winning node.
    """
    values = np.asarray(values)
    j = int(values.argmin())
    n = values.size
    dx = 1.0 / n
    vm = float(values[(j - 1) % n])
    v0 = float(values[j])
    vp = float(values[(j + 1) % n])
    x0 = (j * dx) % 1.0
    curv = vm - 2.0 * v0 + vp
    if curv <= 0.0:
        return v0, x0
    delta = 0.5 * (vm - vp) / curv * dx
    m = v0 - (vp - vm) ** 2 / (8.0 * curv)
    return m, (x0 + delta) % 1.0


def refined_max(values: np.ndarray) -> tuple[float, float]:
    m, x = refined_min(-np.asarray(values))
    return -m, x


@dataclass(frozen=True)
class SlopeTrace:
    """Per-step history of the minimal slope and the density riding it."""

    times: np.ndarray
    m: np.ndarray
    xi: np.ndarray
    alpha: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "m", "xi", "alpha"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        if not (self.times.size == self.m.size == self.xi.size == self.alpha.size):
            raise ValueError("trace arrays must have equal length")


# ---------------------------------------------------------------------------
# slope thresholds

def _check_e0(e0: float) -> None:
    if e0 < 0.0 or not np.isfinite(e0):
        raise ValueError(f"energy must be finite and nonnegative, got {e0}")


def k_sharp(e0: float, gamma: float, a: float) -> float:
    """Riccati forcing bound obtained through the sharp embedding."""
    _check_e0(e0)
    c = SHARP_EMBEDDING_CONSTANT
    return 0.5 * c * e0 + 2.0 * abs(gamma - a) * math.sqrt(c * e0)


def threshold_sharp(e0: float, gamma: float, a: float) -> float:
    """Slope threshold -sqrt(2 K) for the sharp-embedding route."""
    return -math.sqrt(2.0 * k_sharp(e0, gamma, a))


def k_mean(e0: float, a0: float, eps: float, gamma: float, a: float) -> float:
    """Riccati forcing bound through the mean-based embedding (any eps > 0)."""
    _check_e0(e0)
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    base = (eps + 2.0) / 48.0 * e0 + (eps + 2.0) / (8.0 * eps) * a0**2
    root = math.sqrt((eps + 2.0) / 6.0 * e0 + (eps + 2.0) / eps * a0**2)
    return base + abs(gamma - a) * root


def threshold_mean(e0: float, a0: float, eps: float, gamma: float, a: float) -> float:
    return -math.sqrt(2.0 * k_mean(e0, a0, eps, gamma, a))


def threshold_zero_mean(e0: float, gamma: float, a: float) -> float:
    """eps -> 0 limit of the mean route at a0 = 0."""
    _check_e0(e0)
    return -math.sqrt(e0 / 12.0 + 2.0 * abs(gamma - a) * math.sqrt(e0 / 3.0))


def riccati_blowup_time(c: float, k: float, y0: float) -> float:
    """Upper bound on the blow-up time of y' <= -c y^2 + k from y(0) = y0.

    Requires c > 0, k >= 0 and y0 < -sqrt(k/c); the solution then reaches
    -infinity no later than 1/(-c y0 + k/y0).
    """
    if c <= 0.0:
        raise ValueError(f"quadratic coefficient must be positive, got {c}")
    if k < 0.0:
        raise ValueError(f"forcing bound must be nonnegative, got {k}")
    if y0 >= -math.sqrt(k / c):
        raise ValueError(
            f"initial value {y0} does not clear the threshold {-math.sqrt(k / c)}"
        )
    return 1.0 / (-c * y0 + k / y0)


# ---------------------------------------------------------------------------
# blow-up rate

@dataclass(frozen=True)
class RateEstimate:
    t_blowup: float
    rate: float
    fit_quality: float
    samples: int


def dive_cutoff(m0: float) -> float:
    """Slope past which a trace that starts at m0 has dived: -3 max(1, |m0|).

    Three times the starting slope lies past the threshold scale, where the
    blow-up asymptote has set in; the floor of 1 keeps a trace that starts
    nearly flat from counting a mild steepening as a dive.
    """
    return -3.0 * max(1.0, abs(m0))


def estimate_blowup_rate(trace: SlopeTrace) -> RateEstimate:
    """Fit y(t) = -1/m(t) linearly over the trusted part of the slope dive.

    Near a slope blow-up, y decays linearly to zero with slope 1/rate, so
    the line's root estimates the blow-up time and a clean breaking wave
    reports a rate near -2.

    The window is the first sustained dive, from dive_cutoff(m(0)) on.  A
    dive that never recovers to half its running minimum is fitted whole:
    stepping.run stops at the first step on which its grid loses the
    front, by the spectral-tail witness or the E0 drift, so every sample
    of such a trace is resolved, and name_outcome names that stop
    BlowupDetected exactly when this window has begun.  A dive that does
    recover ends there (the true solution cannot do that below the
    threshold), and its fit takes the samples down to half its deepest
    slope.
    """
    m = trace.m
    t = trace.times
    cutoff = dive_cutoff(float(m[0]))
    start = int(np.argmax(m <= cutoff))
    if m[start] > cutoff:
        raise InsufficientWindowError(
            f"slope never fell past the fit cutoff {cutoff:.3g}"
        )
    peak = m[start]
    end = m.size
    for i in range(start, m.size):
        peak = min(peak, m[i])
        if m[i] >= 0.5 * peak:
            end = i
            break
    dive = m[start:end]
    mask = dive <= cutoff
    if end < m.size:
        mask &= dive >= 0.5 * peak
    count = int(np.count_nonzero(mask))
    if count < _MIN_FIT_SAMPLES:
        raise InsufficientWindowError(
            f"only {count} samples past the cutoff {cutoff:.3g} "
            f"(need {_MIN_FIT_SAMPLES})"
        )
    tt = t[start:end][mask]
    y = -1.0 / dive[mask]
    slope, intercept = np.polyfit(tt, y, 1)
    if slope >= 0.0:
        raise InsufficientWindowError("trace tail is not steepening")
    resid = y - (slope * tt + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    quality = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    return RateEstimate(
        t_blowup=float(-intercept / slope),
        rate=float(1.0 / slope),
        fit_quality=quality,
        samples=count,
    )


# ---------------------------------------------------------------------------
# global-existence envelope

@dataclass(frozen=True)
class LyapunovTrace:
    w: np.ndarray
    envelope: np.ndarray
    beta: float
    c1: float
    c2: float
    violations: np.ndarray


def _density_floor(rho0: np.ndarray) -> tuple[float, float]:
    """(beta, sup |rho0|) of density samples, with beta = min |rho0| when
    rho0 keeps one sign and beta = 0 when it vanishes or changes sign."""
    lo, _ = refined_min(rho0)
    hi, _ = refined_max(rho0)
    beta = lo if lo > 0.0 else -hi if hi < 0.0 else 0.0
    return beta, max(abs(lo), abs(hi))


def lyapunov_trace(
    trace: SlopeTrace, rho0: np.ndarray, u0: np.ndarray, p: ModelParams
) -> LyapunovTrace:
    """Certificate w(t) and envelope for runs with density of one sign.

    w(t) = alpha(0) alpha(t) + (alpha(0)/alpha(t)) (1 + m(t)^2) grows at
    most like exp((c1 + 1/2) t), which caps |m(t)| by
    (c2 / (2 beta)) exp((c1 + 1/2) t) with beta = min |rho0| > 0; rho0 and
    u0 are the initial samples, and c1 and c2 come from their energy E0
    and their suprema.
    """
    beta, sup_rho0 = _density_floor(rho0)
    if beta == 0.0:
        raise ValueError("density must be bounded away from zero")

    alpha = trace.alpha
    if np.any(alpha * alpha[0] <= 0.0):
        raise DensitySignChangeError(
            "tracked density changed sign or vanished along the slope minimum"
        )
    w = alpha[0] * alpha + (alpha[0] / alpha) * (1.0 + trace.m**2)

    ux0 = deriv_values(u0, 1)
    e0 = energy_e0(np.array((u0, ux0, rho0)))
    c = SHARP_EMBEDDING_CONSTANT
    c1 = c * e0 + 2.0 * abs(p.gamma - p.A) * math.sqrt(c * e0) + _KERNEL_MAX * e0
    sup_ux0 = max(abs(refined_min(ux0)[0]), abs(refined_max(ux0)[0]))
    c2 = sup_rho0**2 + 1.0 + sup_ux0**2

    envelope = (c2 / (2.0 * beta)) * np.exp((c1 + 0.5) * trace.times)
    violations = np.nonzero(np.abs(trace.m) > envelope)[0]
    return LyapunovTrace(
        w=w,
        envelope=envelope,
        beta=beta,
        c1=c1,
        c2=c2,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# inequality spot checks

def _corner_safe_mean(v: np.ndarray) -> float:
    # trapezoid sums at n and n/2 (subsampled), Richardson-combined: exact
    # for trig polynomials below a quarter of the band, and O(n^-4) for
    # fields with isolated corners such as the kernel itself
    return float((4.0 * np.mean(v) - np.mean(v[::2])) / 3.0)


def sobolev_sharp_check(f: np.ndarray, fx: np.ndarray | None = None) -> float:
    """max f^2 / integral(f^2 + f_x^2) over samples f; never exceeds the
    sharp constant.

    The derivative defaults to the spectral one; pass fx explicitly when
    the samples come from a function with corners.
    """
    if float(np.max(np.abs(f))) == 0.0:
        raise ValueError("zero field has no embedding ratio")
    if fx is None:
        fx = deriv_values(f, 1)
    elif np.shape(fx) != np.shape(f):
        raise ValueError("fx must have the shape of f")
    num, _ = refined_max(f * f)
    den = _corner_safe_mean(f * f + fx * fx)
    return num / den


def poincare_check(f: np.ndarray, eps: float) -> float:
    """Margin of (eps+2)/24 int f_x^2 + (eps+2)/(4 eps) a0^2 - max f^2
    over samples f."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    fx = deriv_values(f, 1)
    a0 = 2.0 * float(np.mean(f))
    lhs, _ = refined_max(f * f)
    rhs = (eps + 2.0) / 24.0 * _corner_safe_mean(fx * fx) + (eps + 2.0) / (
        4.0 * eps
    ) * a0**2
    return rhs - lhs


# ---------------------------------------------------------------------------
# combined report

BLOWUP_PREDICTED = "BlowupPredicted"
GLOBAL_PREDICTED = "GlobalPredicted"
NO_PREDICTION = "NoPrediction"


@dataclass(frozen=True)
class Verdict:
    hypothesis_met: bool
    predicted: str


@dataclass(frozen=True)
class CriterionReport:
    e0: float
    a0: float
    m0: float
    xi0: float
    thresholds: dict[str, float]
    k_values: dict[str, float]
    riccati_t: float | None
    verdicts: dict[str, Verdict]

    def __post_init__(self) -> None:
        for name, value in self.thresholds.items():
            if value > 0.0:
                raise ValueError(f"threshold {name} must be nonpositive")
        if self.riccati_t is not None and self.riccati_t <= 0.0:
            raise ValueError("riccati_t must be positive when present")


def evaluate_criteria(
    u0: np.ndarray,
    rho0: np.ndarray,
    p: ModelParams,
    eps_list: tuple[float, ...] = DEFAULT_EPS_LIST,
) -> CriterionReport:
    """Evaluate every breakdown/global criterion on the initial samples."""
    ux0 = deriv_values(u0, 1)
    e0 = energy_e0(np.array((u0, ux0, rho0)))
    a0 = 2.0 * mean_u(u0)

    m0, xi0 = refined_min(ux0)
    rho_at_xi = interp_point(np.fft.rfft(rho0, norm="forward"), xi0)
    beta, sup_rho0 = _density_floor(rho0)
    rho_vanishes = abs(rho_at_xi) <= 1.0e-10 * sup_rho0
    zero_mean = abs(a0) <= 1.0e-12 * max(1.0, math.sqrt(e0))

    thresholds = {"sharp": threshold_sharp(e0, p.gamma, p.A)}
    k_values = {"sharp": k_sharp(e0, p.gamma, p.A)}
    for eps in eps_list:
        key = f"mean_eps_{eps:g}"
        thresholds[key] = threshold_mean(e0, a0, eps, p.gamma, p.A)
        k_values[key] = k_mean(e0, a0, eps, p.gamma, p.A)
    thresholds["zero_mean"] = threshold_zero_mean(e0, p.gamma, p.A)

    # the zero-mean route also needs a0 = 0; it has no Riccati bound of its own
    verdicts: dict[str, Verdict] = {}
    for key, threshold in thresholds.items():
        met = rho_vanishes and m0 < threshold and (key != "zero_mean" or zero_mean)
        verdicts[key] = Verdict(met, BLOWUP_PREDICTED if met else NO_PREDICTION)
    bounds = [
        riccati_blowup_time(0.5, k, m0) for key, k in k_values.items()
        if verdicts[key].hypothesis_met
    ]
    verdicts["positive_density"] = Verdict(
        beta > 0.0, GLOBAL_PREDICTED if beta > 0.0 else NO_PREDICTION
    )

    return CriterionReport(
        e0=e0,
        a0=a0,
        m0=m0,
        xi0=xi0,
        thresholds=thresholds,
        k_values=k_values,
        riccati_t=min(bounds) if bounds else None,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# a run's outcome

# what stopped a run, as stepping.run reports it in Termination.cause
STOP_END = "end"
STOP_TIME_RESOLUTION = "time-resolution"
STOP_NONFINITE = "nonfinite"
STOP_WITNESS = "witness"
STOP_E0 = "e0"
# the causes a run's report names
REACHED_END = "ReachedEnd"
BLOWUP_DETECTED = "BlowupDetected"
RESOLUTION_LOST = "ResolutionLost"
NONFINITE_STATE = "NonFiniteState"


def name_outcome(
    report: CriterionReport, stop: str, t: float, m: np.ndarray
) -> tuple[str, str | None]:
    """The cause a run's report names, and why the run contradicts its
    criteria or None, for a run from the initial state that report
    assessed, which stepping.run stopped at t for `stop`, with slope
    trace m.

    The grid has lost the solution when the spectral-tail witness or the
    E0 drift stops a run: that is BlowupDetected once m has dived past
    dive_cutoff(m[0]), where the rate fit's window starts, and
    ResolutionLost before.  A step below the time resolution is
    ResolutionLost too, the end ReachedEnd and a non-finite step
    NonFiniteState.  A run contradicts its criteria when it turns
    non-finite without a BlowupPredicted verdict, when a GlobalPredicted
    verdict proves it smooth and it ends in BlowupDetected or
    ResolutionLost, or when it reaches its end after riccati_t.
    """
    if stop in (STOP_WITNESS, STOP_E0):
        dived = m[-1] <= dive_cutoff(float(m[0]))
        cause = BLOWUP_DETECTED if dived else RESOLUTION_LOST
    else:
        cause = {
            STOP_END: REACHED_END,
            STOP_TIME_RESOLUTION: RESOLUTION_LOST,
            STOP_NONFINITE: NONFINITE_STATE,
        }[stop]
    predictions = {v.predicted for v in report.verdicts.values()}
    if cause == NONFINITE_STATE and BLOWUP_PREDICTED not in predictions:
        return cause, "non-finite state without a declared blow-up approach"
    if GLOBAL_PREDICTED in predictions and cause in (BLOWUP_DETECTED, RESOLUTION_LOST):
        return cause, (
            f"{cause} at t={t:.6g}: the grid could not resolve a solution "
            f"the paper proves smooth"
        )
    bound = report.riccati_t
    if cause == REACHED_END and bound is not None and t > bound:
        return cause, (
            f"reached t={t:.6g} past the Riccati blow-up bound {bound:.6g} "
            f"without breaking"
        )
    return cause, None
