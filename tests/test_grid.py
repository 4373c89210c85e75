"""Spectral-layer tests: kernel closed forms, derivatives, interpolation,
padding and projection, convolutions against quadrature oracles, and the
pointwise kernel bounds."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dghsim.grid import (
    InterpWork,
    PeriodicGrid,
    coefficient_parts,
    deriv_values,
    dgreen_convolve,
    dgreen_kernel,
    green_kernel,
    helmholtz_convolve,
    interp_blocks,
    interp_point,
    interp_values,
    pad_values,
    project_values,
    random_trig_field,
)
from dghsim.oracles import kernel_quadrature
from helpers import (
    dealiased_product,
    fd_derivative,
    interp_exp_reference,
    trig_poly,
    trig_sum_exact,
)

TWO_SINH_HALF = 2.0 * np.sinh(0.5)


# ---------------------------------------------------------------------------
# kernel closed forms

def test_kernel_peak_and_trough():
    # max at the corner, min at the antipode; both in closed form
    e = np.e
    assert green_kernel(0.0) == pytest.approx((e + 1.0) / (2.0 * (e - 1.0)), abs=1e-15)
    assert green_kernel(0.5) == pytest.approx(1.0 / TWO_SINH_HALF, abs=1e-15)
    assert green_kernel(0.5) == pytest.approx(0.9595173756674719, abs=1e-15)


def test_kernel_periodic_and_even(rng):
    x = rng.uniform(-3.0, 3.0, size=200)
    assert np.allclose(green_kernel(x + 1.0), green_kernel(x), atol=1e-14)
    assert np.allclose(green_kernel(-x), green_kernel(x), atol=1e-14)
    lo, hi = 1.0 / TWO_SINH_HALF, np.cosh(0.5) / TWO_SINH_HALF
    v = green_kernel(x)
    assert np.all(v >= lo - 1e-15) and np.all(v <= hi + 1e-15)


def test_kernel_unit_mass():
    # trapezoid with the corner sitting on a node stays second order
    x = np.arange(4096) / 4096
    assert np.mean(green_kernel(x)) == pytest.approx(1.0, abs=1e-6)


def test_dgreen_kernel_values():
    assert dgreen_kernel(0.0) == 0.0
    assert dgreen_kernel(2.0) == 0.0
    # one-sided limits at the corner differ by the unit jump
    assert dgreen_kernel(1e-12) == pytest.approx(-0.5, abs=1e-9)
    assert dgreen_kernel(1.0 - 1e-12) == pytest.approx(0.5, abs=1e-9)


def test_dgreen_matches_difference_quotient(rng):
    x = rng.uniform(0.05, 0.95, size=50)
    h = 1e-6
    dq = (green_kernel(x + h) - green_kernel(x - h)) / (2.0 * h)
    assert np.allclose(dq, dgreen_kernel(x), atol=1e-8)


# ---------------------------------------------------------------------------
# grid

def test_grid_basics():
    g = PeriodicGrid(16)
    assert g.dx == pytest.approx(1.0 / 16.0)
    assert g.nodes[0] == 0.0
    assert np.allclose(np.diff(g.nodes), g.dx)
    assert g.helmholtz_symbol[0] == 1.0
    assert g.ik[-1] == 0.0  # odd Nyquist symbol is dropped


@pytest.mark.parametrize("bad", [7, 9, 6, 0, -16])
def test_grid_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        PeriodicGrid(bad)


def test_grid_rejects_non_int():
    with pytest.raises(TypeError):
        PeriodicGrid(16.0)


# ---------------------------------------------------------------------------
# derivatives

def test_derivative_of_sine_exact():
    g = PeriodicGrid(64)
    f = np.sin(2.0 * np.pi * g.nodes)
    d1 = deriv_values(f, 1)
    assert np.max(np.abs(d1 - 2.0 * np.pi * np.cos(2.0 * np.pi * g.nodes))) < 1e-12
    d2 = deriv_values(f, 2)
    assert np.max(np.abs(d2 + (2.0 * np.pi) ** 2 * f)) < 1e-10


def test_derivative_of_batch_is_row_by_row(rng):
    rows = rng.normal(size=(3, 32))
    for order in (1, 2):
        batched = deriv_values(rows, order)
        for row, out in zip(rows, batched):
            assert np.max(np.abs(out - deriv_values(row, order))) < 1e-11


@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivative_of_constant_vanishes(order):
    f = np.full(16, 3.7)
    assert np.max(np.abs(deriv_values(f, order))) < 1e-12


def test_derivative_rejects_bad_order():
    with pytest.raises(ValueError):
        deriv_values(np.ones(16), 0)


def test_nyquist_mode_handling():
    # the sawtooth-phase mode (-1)^j has no odd derivative but a clean even one
    n = 32
    v = (-1.0) ** np.arange(n)
    assert np.max(np.abs(deriv_values(v, 1))) < 1e-12
    d2 = deriv_values(v, 2)
    assert np.allclose(d2, -((np.pi * n) ** 2) * v, rtol=1e-12)


def test_derivative_against_finite_differences():
    g = PeriodicGrid(128)
    f = np.exp(np.sin(2.0 * np.pi * g.nodes))
    for order in (1, 2):
        spectral = deriv_values(f, order)
        stencil = fd_derivative(f, g.dx, order)
        assert np.max(np.abs(spectral - stencil)) < 1e-6


@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_derivative_linearity(a, b):
    g = PeriodicGrid(32)
    f = trig_poly(g, 0.3, cos_c=(1.0, -0.5), sin_c=(0.2,))
    h = trig_poly(g, -1.0, cos_c=(0.0, 0.7), sin_c=(-0.4, 0.1))
    lhs = deriv_values(a * f + b * h, 1)
    rhs = a * deriv_values(f, 1) + b * deriv_values(h, 1)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


# ---------------------------------------------------------------------------
# interpolation

def test_interpolate_cosine_off_grid():
    g = PeriodicGrid(64)
    v = np.cos(2.0 * np.pi * g.nodes)
    assert interp_values(v, 0.125) == pytest.approx(np.cos(np.pi / 4.0), abs=1e-12)


def test_interpolate_reproduces_nodes(rng):
    g = PeriodicGrid(48)
    v = rng.normal(size=48)
    assert np.max(np.abs(interp_values(v, g.nodes) - v)) < 1e-12


def test_interpolate_analytic_function():
    # coefficients of exp(cos) decay like Bessel I_k(1); truncation at n=64
    # is far below double precision, so interpolation hits the true value
    g = PeriodicGrid(64)
    v = np.exp(np.cos(2.0 * np.pi * g.nodes))
    x = 0.1371
    assert interp_values(v, x) == pytest.approx(np.exp(np.cos(2.0 * np.pi * x)), abs=1e-9)


def test_interpolate_periodic_argument():
    g = PeriodicGrid(32)
    v = np.sin(2.0 * np.pi * g.nodes)
    at = interp_values(v, np.array([0.3, 1.3, -0.7]))
    assert at[1] == pytest.approx(at[0], abs=1e-12)
    assert at[2] == pytest.approx(at[0], abs=1e-12)


@pytest.mark.parametrize("n", [8, 16, 128, 1024, 2048])
def test_interp_values_batched_matches_exp_form(n):
    # white noise weights every mode up to Nyquist equally, the hardest
    # case for the running-product phases
    r = np.random.default_rng(n)
    v = r.normal(size=(3, n))
    xs = r.uniform(-0.5, 1.5, 64)
    got = interp_values(v, xs)
    assert got.shape == (3, 64)
    for row, out in zip(v, got):
        ref = interp_exp_reference(row, xs)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(row))
        assert np.max(np.abs(interp_values(row, xs) - out)) <= 1e-13 * np.max(np.abs(row))


@pytest.mark.parametrize("x", [-0.7, 0.0, 0.5, 1.3, 7.3, 15.3])
@pytest.mark.parametrize("n", [8, 128, 1024])
def test_interp_point_matches_interp_coeffs(n, x):
    # unit-scale random coefficients on every mode and a real Nyquist entry
    # far from zero; x unwrapped.  The single point reduces each phase to
    # one turn, so it holds 1e-13 of max|c| against the exact sum at every
    # n.  interp_blocks' phase matrix starts its doubling from x less its
    # nearest integer, so its error does not grow with |x|.  What is left
    # is z's own rounding, which z^k carries k times over: largest at a
    # reduced x of 1/2, where fl(2 pi) / 2 misses pi by 1.2e-16, and
    # 1.4e-12 of max|c| there at n = 1024.  Doubling from x itself, the
    # error reaches 6.0e-12 at x = 7.3 and 6.7e-12 at x = 15.3.
    r = np.random.default_rng(n)
    c = r.normal(size=n // 2 + 1) + 1j * r.normal(size=n // 2 + 1)
    c[0] = c[0].real
    c[-1] = 2.0 + abs(c[-1].real)
    got = interp_point(c, x)
    assert isinstance(got, float)
    exact = trig_sum_exact(c, x)
    assert abs(got - exact) <= 1e-13 * np.max(np.abs(c))
    parts = coefficient_parts(c[None, None])
    block = interp_blocks(parts, np.asarray([[x]]), InterpWork(n // 2, 1, 1, (1,)))
    block = block[0, 0, 0]
    assert abs(block - exact) <= 2e-12 * np.max(np.abs(c))


@pytest.mark.parametrize("count", [2, 16])
@pytest.mark.parametrize("n", [64, 1024])
def test_interp_blocks_block_equals_its_own_call(n, count):
    # each block reads its own columns of the shared phase matrix, which
    # for K >= 2 are bit for bit its own phase matrix, and its own rows of
    # the weighted coefficients
    r = np.random.default_rng(n + count)
    parts = coefficient_parts(np.fft.rfft(r.normal(size=(4, 3, n)), norm="forward"))
    xs = r.uniform(-15.0, 15.0, (4, count))
    together = interp_blocks(parts, xs, InterpWork(n // 2, 4, count, (3,)))
    assert together.shape == (4, 3, count)
    alone = InterpWork(n // 2, 1, count, (3,))
    for i in range(4):
        got = interp_blocks(parts[i : i + 1], xs[i : i + 1], alone)[0]
        assert np.array_equal(together[i], got)


@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("n", [64, 256])
def test_interp_work_reuse_is_invisible(n, rows):
    # one work, called again with other points and other coefficients, and
    # with the other row count between, gives bit for bit what a fresh
    # work gives: a call overwrites every array it reads
    r = np.random.default_rng(n + rows)
    work = InterpWork(n // 2, 3, 16, (2, 3))
    other = 5 - rows
    calls = [
        (
            coefficient_parts(np.fft.rfft(r.normal(size=(3, k, n)), norm="forward")),
            r.uniform(-15.0, 15.0, (3, 16)),
        )
        for k in (rows, other, rows)
    ]
    for parts, xs in calls:
        got = interp_blocks(parts, xs, work).copy()
        fresh = interp_blocks(parts, xs, InterpWork(n // 2, 3, 16, (parts.shape[2],)))
        assert np.array_equal(got, fresh)
    # and a result written to out is the one returned
    out = np.empty((3, rows, 16))
    assert interp_blocks(*calls[0], work, out) is out
    assert np.array_equal(out, interp_blocks(*calls[0], InterpWork(n // 2, 3, 16, (rows,))))


def test_interp_values_shapes(rng):
    v = rng.normal(size=(2, 3, 16))
    xs = rng.uniform(0.0, 1.0, (4, 5))
    assert interp_values(v, xs).shape == (2, 3, 4, 5)
    assert interp_values(v[0, 0], 0.25).shape == ()
    assert interp_values(v[0, 0], xs).shape == (4, 5)


# ---------------------------------------------------------------------------
# smoothing convolutions

def test_helmholtz_fixes_constants():
    out = helmholtz_convolve(np.full(32, 4.2))
    assert np.max(np.abs(out - 4.2)) < 1e-13


@pytest.mark.parametrize("k", [1, 3, 7])
def test_helmholtz_eigenfunctions(k):
    g = PeriodicGrid(64)
    f = np.cos(2.0 * np.pi * k * g.nodes)
    out = helmholtz_convolve(f)
    lam = 1.0 / (1.0 + 4.0 * np.pi**2 * k**2)
    assert np.max(np.abs(out - lam * f)) < 1e-14


def test_helmholtz_inverts_operator(rng):
    g = PeriodicGrid(128)
    f = random_trig_field(g, rng, max_mode=20)
    smooth = helmholtz_convolve(f)
    recovered = smooth - deriv_values(smooth, 2)
    assert np.max(np.abs(recovered - f)) < 1e-10


def test_helmholtz_against_quadrature(rng):
    # with a heavy Nyquist mode, which the quadrature's fine samples split
    # between +n/2 and -n/2 as the symbol reads it
    g = PeriodicGrid(128)
    alt = (-1.0) ** np.arange(g.n)
    for _ in range(3):
        f = random_trig_field(g, rng, max_mode=10) + 2.0 * alt
        oracle = kernel_quadrature(f, green_kernel)
        out = helmholtz_convolve(f)
        assert np.max(np.abs(out - oracle)) < 1e-6


def test_helmholtz_of_discrete_delta():
    # the spectral image of a unit-mass node spike is the kernel's band
    # truncation; the miss at the corner node is the Fourier tail,
    # 2 sum_{k>n/2} 1/(1+4 pi^2 k^2) ~ 1/(pi^2 n), not a solver error
    errs = {}
    for n in (256, 512):
        g = PeriodicGrid(n)
        spike = np.zeros(n)
        spike[0] = n  # integrates to one
        out = helmholtz_convolve(spike)
        errs[n] = np.max(np.abs(out - green_kernel(g.nodes)))
        assert errs[n] == pytest.approx(1.0 / (np.pi**2 * n), rel=0.2)
        # away from the corner the agreement is much tighter
        interior = np.abs(out - green_kernel(g.nodes))[n // 4 : 3 * n // 4]
        assert np.max(interior) < 1e-6
    assert errs[512] < 0.6 * errs[256]


def test_dgreen_convolve_basics(rng):
    g = PeriodicGrid(64)
    assert np.max(np.abs(dgreen_convolve(np.full(g.n, 5.0)))) < 1e-14
    f = np.sin(2.0 * np.pi * g.nodes)
    lam = 2.0 * np.pi / (1.0 + 4.0 * np.pi**2)
    expected = lam * np.cos(2.0 * np.pi * g.nodes)
    assert np.max(np.abs(dgreen_convolve(f) - expected)) < 1e-14


def test_dgreen_is_derivative_of_helmholtz(rng):
    g = PeriodicGrid(128)
    f = random_trig_field(g, rng, max_mode=30)
    a = dgreen_convolve(f)
    b = deriv_values(helmholtz_convolve(f), 1)
    assert np.max(np.abs(a - b)) < 1e-12
    assert abs(np.mean(a)) < 1e-13


def test_kernel_lower_bound_on_nonnegative_input(rng):
    # G * f >= min(G) * integral(f) when f >= 0; build f as an exact square
    # so the inequality holds for the interpolant, not just the samples
    g = PeriodicGrid(256)
    for _ in range(5):
        p = random_trig_field(g, rng, max_mode=6)
        f = dealiased_product(p, p)
        floor = np.mean(f) / TWO_SINH_HALF  # the node mean integrates f exactly
        assert np.min(helmholtz_convolve(f)) >= floor - 1e-12


def test_smoothing_dominates_square(rng):
    # G * (f^2 + f'^2 / 2) >= f^2 / 2 pointwise, the inequality behind the
    # wave-steepening threshold; exact band arithmetic keeps it sharp
    g = PeriodicGrid(256)
    for _ in range(5):
        f = random_trig_field(g, rng, max_mode=6, rms=2.0)
        fx = deriv_values(f, 1)
        src = dealiased_product(f, f) + 0.5 * dealiased_product(fx, fx)
        out = helmholtz_convolve(src)
        assert np.min(out - 0.5 * f * f) >= -1e-12


# ---------------------------------------------------------------------------
# padding, projection, and the dealiased products built from them

def test_pad_project_round_trip(rng):
    v = rng.normal(size=64)
    w = pad_values(v, 128)
    assert np.max(np.abs(w[::2] - v)) < 1e-13  # original nodes survive
    back = project_values(w, 64)
    assert np.max(np.abs(back - v)) < 1e-13
    # pad splits the Nyquist mode and project folds it back at any finer size
    for m in (66, 96, 1024):
        assert np.max(np.abs(project_values(pad_values(v, m), 64) - v)) < 1e-12
    # a batch pads row by row
    rows = np.stack((v, rng.normal(size=64)))
    assert np.array_equal(pad_values(rows, 128)[1], pad_values(rows[1], 128))


def test_pad_project_validation():
    with pytest.raises(ValueError):
        pad_values(np.zeros(16), 8)
    with pytest.raises(ValueError):
        pad_values(np.zeros(16), 33)
    with pytest.raises(ValueError):
        project_values(np.zeros(16), 32)


def test_dealiased_product_exact_when_band_fits(rng):
    g = PeriodicGrid(128)
    f = random_trig_field(g, rng, max_mode=3)
    h = random_trig_field(g, rng, max_mode=4)
    prod = dealiased_product(f, h)
    assert np.max(np.abs(prod - f * h)) < 1e-12


def test_dealiased_product_removes_aliasing():
    # cos^2 at a mode past n/4: the doubled frequency leaves the band, so
    # the clean answer is the constant 1/2, while the raw pointwise product
    # folds it back into the grid
    n = 64
    g = PeriodicGrid(n)
    f = np.cos(2.0 * np.pi * 20 * g.nodes)
    clean = dealiased_product(f, f)
    assert np.max(np.abs(clean - 0.5)) < 1e-12
    raw = f * f
    assert np.max(np.abs(raw - 0.5)) > 0.4


def test_resample_round_trip(rng):
    g = PeriodicGrid(32)
    f = random_trig_field(g, rng, max_mode=10)
    up = pad_values(f, 128)
    expected = interp_values(f, PeriodicGrid(128).nodes)
    assert np.max(np.abs(up - expected)) < 1e-12
    down = project_values(up, 32)
    assert np.max(np.abs(down - f)) < 1e-12


def test_random_trig_field_contract(rng):
    g = PeriodicGrid(64)
    f = random_trig_field(g, rng, max_mode=5, rms=1.5, zero_mean=True)
    assert abs(np.mean(f)) < 1e-12
    assert np.sqrt(np.mean(f**2)) == pytest.approx(1.5, abs=1e-12)
    c = np.abs(np.fft.rfft(f)) / g.n
    assert np.max(c[6:]) < 1e-12
    with pytest.raises(ValueError):
        random_trig_field(g, rng, max_mode=32)


# ---------------------------------------------------------------------------
# property checks

@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    r = np.random.default_rng(seed)
    v = r.uniform(-10.0, 10.0, size=32)
    back = project_values(pad_values(v, 64), 32)
    assert np.max(np.abs(back - v)) < 1e-11


@given(seed=st.integers(0, 2**32 - 1))
def test_interpolation_matches_nodes_property(seed):
    r = np.random.default_rng(seed)
    g = PeriodicGrid(16)
    v = r.uniform(-5.0, 5.0, size=16)
    assert np.max(np.abs(interp_values(v, g.nodes) - v)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_bound_property(seed):
    r = np.random.default_rng(seed)
    g = PeriodicGrid(64)
    p = random_trig_field(g, r, max_mode=4, rms=r.uniform(0.1, 3.0))
    f = dealiased_product(p, p)
    assert np.min(helmholtz_convolve(f)) >= np.mean(f) / TWO_SINH_HALF - 1e-10
