"""Dynamics tests: the convolution-form right-hand side against quadrature
and local-form oracles, exact semi-discrete conservation, and the invariant
functionals on closed-form states."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dghsim.grid import (
    ConfigError,
    PeriodicGrid,
    deriv_values,
    dgreen_kernel,
    helmholtz_convolve,
    random_trig_field,
)
from dghsim.model import (
    ModelParams,
    RhsBuffer,
    State,
    energy_e0,
    hamiltonian_e,
    hamiltonian_f,
    mean_u,
    rhs_coeffs,
    rhs_values,
)
from dghsim.oracles import kernel_quadrature
from helpers import (
    dealiased_product,
    hamiltonian_f_padded_reference,
    pad_buffer,
    rhs_padded_reference,
)


# ---------------------------------------------------------------------------
# right-hand side

def test_constant_state_is_steady():
    g = PeriodicGrid(64)
    p = ModelParams(A=1.0, gamma=0.5)
    du, drho = rhs_values(np.full(64, 0.7), np.full(64, 1.3), g, p)
    assert np.max(np.abs(du)) < 1e-13
    assert np.max(np.abs(drho)) < 1e-13


def test_rhs_against_quadrature_oracle():
    # single-mode velocity, no density: advection is exact band arithmetic,
    # the nonlocal term is checked against direct kernel quadrature
    g = PeriodicGrid(128)
    x = g.nodes
    u = np.cos(2.0 * np.pi * x)
    ux = -2.0 * np.pi * np.sin(2.0 * np.pi * x)
    p = ModelParams(A=1.0, gamma=1.0)

    arg = u * u + 0.5 * ux * ux  # gamma - A = 0 kills the linear part
    conv = kernel_quadrature(arg, dgreen_kernel)
    expected_du = -(u - p.gamma) * ux - conv

    du, drho = rhs_values(u, np.zeros(g.n), g, p)
    assert np.max(np.abs(du - expected_du)) < 1e-6
    assert np.all(drho == 0.0)


def test_rhs_matches_local_form(rng):
    # applying 1 - d^2 to the velocity equation must reproduce the
    # unsmoothed momentum form; with the band at n/8 every product is exact
    g = PeriodicGrid(256)
    p = ModelParams(A=0.8, gamma=0.3)
    u = random_trig_field(g, rng, max_mode=8)
    r = random_trig_field(g, rng, max_mode=8)

    du, _ = rhs_values(u, r, g, p)
    lhs = du - deriv_values(du, 2)

    ux = deriv_values(u, 1)
    uxx = deriv_values(u, 2)
    uxxx = deriv_values(u, 3)
    rx = deriv_values(r, 1)
    rhs_local = (
        p.A * ux
        - p.gamma * uxxx
        - 3.0 * dealiased_product(u, ux)
        + 2.0 * dealiased_product(ux, uxx)
        + dealiased_product(u, uxxx)
        - dealiased_product(r, rx)
    )
    scale = np.max(np.abs(rhs_local))
    assert np.max(np.abs(lhs - rhs_local)) < 1e-10 * max(1.0, scale)


def test_rhs_translation_equivariance(rng):
    g = PeriodicGrid(64)
    p = ModelParams(A=1.0, gamma=0.2)
    u = random_trig_field(g, rng, max_mode=10)
    r = random_trig_field(g, rng, max_mode=10)
    r = r - np.mean(r) + 2.0
    du, drho = rhs_values(u, r, g, p)
    k = g.n // 2
    du_s, drho_s = rhs_values(np.roll(u, k), np.roll(r, k), g, p)
    assert np.max(np.abs(du_s - np.roll(du, k))) < 1e-12
    assert np.max(np.abs(drho_s - np.roll(drho, k))) < 1e-12


def test_vanishing_density_stays_exactly_zero(rng):
    g = PeriodicGrid(128)
    u = random_trig_field(g, rng, max_mode=12)
    _, drho = rhs_values(u, np.zeros(g.n), g, ModelParams())
    assert np.all(drho == 0.0)


@pytest.mark.parametrize("n", [8, 16, 128, 1024])
def test_rhs_values_matches_padded_reference(n):
    # unsmoothed samples fill the band up to the Nyquist mode, so the split
    # on the way up and the fold on the way down both carry weight
    r = np.random.default_rng(n)
    g = PeriodicGrid(n)
    p = ModelParams(A=1.3, gamma=0.7)
    u, rho = r.normal(size=n), r.normal(size=n)
    got = rhs_values(u, rho, g, p)
    want = rhs_padded_reference(u, rho, g, p)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("n", [8, 10, 14, 128, 1024])
def test_rhs_coeffs_matches_padded_reference(n):
    # 3n/2 points (odd at n = 10 and 14) against 2n: a heavy Nyquist mode
    # weighs on the split, on the fold, and on the one folded coefficient
    # the 3/2 rule leaves aliased, which every term that reads it zeroes
    r = np.random.default_rng(n)
    g = PeriodicGrid(n)
    p = ModelParams(A=0.9, gamma=-1.7)
    alt = (-1.0) ** np.arange(n)
    u, rho = r.normal(size=n) + 4.0 * alt, r.normal(size=n) - 3.0 * alt
    c = np.fft.rfft(np.stack((u, rho)), norm="forward")[None]
    got = rhs_coeffs(c, RhsBuffer(g, (p,)), np.empty_like(c))[0]
    want = np.fft.rfft(np.stack(rhs_padded_reference(u, rho, g, p)), norm="forward")
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_right_hand_side_buffer_reuse_is_invisible(rng):
    # one buffer per grid, passed to every call: alternating grids, and two
    # states on one grid, give bit for bit what fresh buffers give
    p = ModelParams(A=0.9, gamma=-1.7)
    grids = (PeriodicGrid(64), PeriodicGrid(90))
    buffers = {g: RhsBuffer(g, (p,)) for g in grids}
    states = [
        (g, np.fft.rfft(rng.normal(size=(1, 2, g.n)), norm="forward"))
        for _ in range(2) for g in grids
    ]
    for g, c in states + states[::-1] + [states[0], states[2], states[0]]:
        got = rhs_coeffs(c, buffers[g], np.empty_like(c))
        assert np.array_equal(got, rhs_coeffs(c, RhsBuffer(g, (p,)), np.empty_like(c)))


def _counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return counted


def test_rhs_values_makes_four_transforms(monkeypatch, rng):
    g = PeriodicGrid(64)
    p = ModelParams(A=1.0, gamma=0.5)
    u, rho = rng.normal(size=g.n), rng.normal(size=g.n)
    rhs_values(u, rho, g, p)  # fills the grid's cached symbol tables
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, _counting(getattr(np.fft, name), calls))
    rhs_values(u, rho, g, p)
    assert calls == ["rfft", "irfft", "rfft", "irfft"]


@given(seed=st.integers(0, 2**32 - 1))
def test_semi_discrete_conservation(seed):
    # the dealiased Galerkin truncation conserves the energy and the mean
    # velocity identically; their instantaneous derivatives sit at rounding
    r = np.random.default_rng(seed)
    g = PeriodicGrid(64)
    p = ModelParams(A=r.uniform(0.1, 3.0), gamma=r.uniform(-2.0, 2.0))
    u = random_trig_field(g, r, max_mode=10, rms=r.uniform(0.5, 2.0))
    rho = random_trig_field(g, r, max_mode=10, rms=r.uniform(0.5, 2.0))
    du, drho = rhs_values(u, rho, g, p)
    ux = deriv_values(u, 1)
    dux = deriv_values(du, 1)
    de0 = 2.0 * np.mean(u * du + ux * dux + rho * drho)
    scale = max(1.0, np.max(np.abs(du)), np.max(np.abs(drho)))
    assert abs(de0) < 1e-12 * scale
    assert abs(np.mean(du)) < 1e-13 * scale
    assert abs(np.mean(drho)) < 1e-13 * scale


# ---------------------------------------------------------------------------
# invariant functionals

SINE = np.sin(2.0 * np.pi * PeriodicGrid(64).nodes)
SINE_X = deriv_values(SINE, 1)
ZERO = np.zeros(64)  # also the exact slope of any constant


def test_energy_closed_forms():
    sine, level = energy_e0(np.array([(SINE, SINE_X, ZERO), (ZERO, ZERO, np.full(64, 2.0))]))
    assert sine == pytest.approx(0.5 + 2.0 * np.pi**2, abs=1e-12)
    assert level == pytest.approx(4.0, abs=1e-14)
    assert mean_u(ZERO) == 0.0
    assert mean_u(np.full(64, -1.25)) == pytest.approx(-1.25, abs=1e-15)


def test_energy_e0_matches_mean_of_squares_bit_for_bit(rng):
    for n in (8, 64, 1000, 1024, 4096):
        for scale in (1.0e-5, 1.0, 1.0e5):
            fields = scale * rng.standard_normal((3, n))
            u, ux, rho = fields
            assert energy_e0(fields) == float(np.mean(u**2 + ux**2 + rho**2))


def test_stacked_energy_e0_is_each_rows_own_bit_for_bit(rng):
    # a stack of (u, u_x, rho) rows squared and reduced together gives
    # each row the float of its own call
    for n in (8, 64, 1000, 1024):
        for scale in (1.0e-5, 1.0e5):
            stack = scale * rng.standard_normal((3, 3, n))
            assert energy_e0(stack).tolist() == [energy_e0(rows) for rows in stack]


def test_means_match_np_mean_bit_for_bit(rng):
    # mean_u and hamiltonian_e sum and divide as energy_e0 does
    for n in (8, 64, 1000, 1024, 4096):
        for scale in (1.0e-5, 1.0, 1.0e5):
            u, rho = scale * rng.standard_normal((2, n))
            assert mean_u(u) == float(np.mean(u))
            assert hamiltonian_e(1.5, rho) == 0.5 * (1.5 - 2.0 * float(np.mean(rho)) + 1.0)


def _coeffs(*rows):
    return np.fft.rfft(np.stack(rows), norm="forward")


def test_hamiltonian_e_closed_forms():
    ones = np.ones(64)
    assert hamiltonian_e(energy_e0(np.stack((ZERO, ZERO, ones))), ones) == 0.0
    e0 = energy_e0(np.stack((ZERO, ZERO, ZERO)))
    assert hamiltonian_e(e0, ZERO) == pytest.approx(0.5, abs=1e-15)
    expected = 0.5 * (0.5 + 2.0 * np.pi**2)
    e0 = energy_e0(np.stack((SINE, SINE_X, ones)))
    assert hamiltonian_e(e0, ones) == pytest.approx(expected, abs=1e-12)


def test_hamiltonian_f_closed_forms():
    ones = np.ones(64)
    padded = pad_buffer(_coeffs(ZERO, ZERO, ZERO))
    assert hamiltonian_f(_coeffs(ZERO, ZERO, np.full(64, 3.0)), 2.0, 1.0, padded) == 0.0
    got = hamiltonian_f(_coeffs(ones, ZERO, ones), 2.0, 5.0, padded)
    assert got == pytest.approx(-0.5, abs=1e-14)
    got = hamiltonian_f(_coeffs(SINE, SINE_X, ones), 1.0, 0.0, padded)
    assert got == pytest.approx(-0.25, abs=1e-12)


@pytest.mark.parametrize("n", [8, 10, 64, 1024])
def test_hamiltonian_f_matches_padded_reference(n):
    # the 2n padding is made on coefficients, the integrand regrouped; a
    # heavy Nyquist mode weighs on the split, in every field
    r = np.random.default_rng(n)
    alt = (-1.0) ** np.arange(n)
    u, ux, rho = r.normal(size=(3, n)) + np.array([[3.0], [-2.0], [1.5]]) * alt
    p = ModelParams(A=0.9, gamma=-1.7)
    want, scale = hamiltonian_f_padded_reference(u, ux, rho, p)
    c = _coeffs(u, ux, rho)
    assert abs(hamiltonian_f(c, p.A, p.gamma, pad_buffer(c)) - want) <= 1e-13 * scale


@pytest.mark.parametrize("n", [64, 1024])
def test_stacked_invariants_are_the_row_wise_ones(n):
    # a stack of members reduces each row as that row alone is reduced
    r = np.random.default_rng(n)
    u, ux, rho = r.normal(size=(3, 3, n)) + np.array([[[0.5]], [[0.0]], [[1.0]]])
    c = np.fft.rfft(np.stack((u, ux, rho), axis=1), norm="forward")
    p = ModelParams(A=0.9, gamma=-1.7)
    e0 = energy_e0(np.stack((u, ux, rho), axis=1))
    columns = np.full((3, 1), p.A), np.full((3, 1), p.gamma)
    stacked = (
        e0, mean_u(u), hamiltonian_e(e0, rho), hamiltonian_f(c, *columns, pad_buffer(c))
    )
    alone = []
    for i in range(3):
        e0_i = energy_e0(np.stack((u[i], ux[i], rho[i])))
        alone.append(
            (e0_i, mean_u(u[i]), hamiltonian_e(e0_i, rho[i]),
             hamiltonian_f(c[i], p.A, p.gamma, pad_buffer(c[i])))
        )
    assert all(type(v) is float for row in alone for v in row)
    for got, want in zip(stacked, zip(*alone)):
        assert got.shape == (3,)
        assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("n", [64, 1024])
def test_stacked_rows_take_their_own_parameters(n):
    # a group mixes members of different gamma and A: each row of the
    # right-hand side and of the cubic invariant is bit for bit its own call
    r = np.random.default_rng(n)
    g = PeriodicGrid(n)
    params = (
        ModelParams(A=0.9, gamma=-1.7),
        ModelParams(A=2.5, gamma=0.4),
        ModelParams(A=0.3, gamma=1.1),
    )
    c = np.fft.rfft(r.normal(size=(3, 2, n)), norm="forward")
    rows = np.fft.rfft(r.normal(size=(3, 3, n)), norm="forward")
    got = rhs_coeffs(c, RhsBuffer(g, params), np.empty_like(c))
    for i, p in enumerate(params):
        alone = rhs_coeffs(c[i : i + 1], RhsBuffer(g, (p,)), np.empty_like(c[:1]))
        assert np.array_equal(got[i], alone[0])
    alone = [
        hamiltonian_f(rows[i], p.A, p.gamma, pad_buffer(rows[i]))
        for i, p in enumerate(params)
    ]
    columns = (np.array([[p.A] for p in params]), np.array([[p.gamma] for p in params]))
    assert np.array_equal(hamiltonian_f(rows, *columns, pad_buffer(rows)), alone)


def test_invariants_share_one_slope(monkeypatch, rng):
    # the caller takes u_x once and passes it in, and E0 once for hamE;
    # the invariants take none, and the cubic one reads coefficients
    g = PeriodicGrid(64)
    u = random_trig_field(g, rng, max_mode=12)
    rho = random_trig_field(g, rng, max_mode=12)
    ux = deriv_values(u, 1)
    c = _coeffs(u, ux, rho)
    direct = 0.5 * np.mean(u**2 + ux**2 + (rho - 1.0) ** 2)
    calls = []
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, _counting(getattr(np.fft, name), calls))
    e0 = energy_e0(np.stack((u, ux, rho)))
    mean_u(u)
    assert hamiltonian_e(e0, rho) == pytest.approx(direct, rel=1e-13)
    assert calls == []
    hamiltonian_f(c, 1.0, 0.3, pad_buffer(c))
    assert calls == ["irfft"]  # one batched padding of (u, u_x, rho) to 2n


def test_momentum_density(rng):
    # the momentum density u - u_xx carried by the transport form
    g = PeriodicGrid(64)
    u = np.sin(2.0 * np.pi * g.nodes)
    expected = (1.0 + 4.0 * np.pi**2) * u
    assert np.max(np.abs(u - deriv_values(u, 2) - expected)) < 1e-10
    # smoothing inverts the momentum map
    f = random_trig_field(g, rng, max_mode=15)
    back = helmholtz_convolve(f - deriv_values(f, 2))
    assert np.max(np.abs(back - f)) < 1e-10


# ---------------------------------------------------------------------------
# parameter and state validation

def test_model_params_require_positive_shear():
    with pytest.raises(ValueError):
        ModelParams(A=0.0)
    with pytest.raises(ValueError):
        ModelParams(A=-1.0)
    with pytest.raises(ValueError):
        ModelParams(A=1.0, gamma=np.inf)


def test_state_requires_shared_grid():
    # u and rho of different lengths lie on no one grid; the error is the
    # plain ValueError, not its subclasses
    for u, rho in ((np.zeros(16), np.zeros(32)), (np.zeros(8), np.zeros(7))):
        with pytest.raises(ValueError) as exc:
            State(u, rho)
        assert exc.type is ValueError


def test_state_validation():
    # the grid is PeriodicGrid(u.size), which rejects 7 samples and 6
    for n in (7, 6):
        with pytest.raises(ConfigError) as exc:
            State(np.zeros(n), np.zeros(n))
        assert exc.type is ConfigError and exc.value.name == "n"
    with pytest.raises(ValueError) as exc:
        State(np.zeros((2, 8)), np.zeros((2, 8)))
    assert exc.type is ValueError
    # a non-finite sample is a config error, as a bad config value is
    with pytest.raises(ConfigError, match="must be finite"):
        State(np.zeros(8), np.full(8, np.nan))
    with pytest.raises(ConfigError, match="must be finite"):
        State(np.array([0.0, np.inf, 0, 0, 0, 0, 0, 0]), np.zeros(8))
    s = State([0, 1, 2, 3, 4, 5, 6, 7], np.zeros(8, dtype=int))
    assert s.u.dtype == s.rho.dtype == float and s.u[7] == 7.0
    assert s.u.flags.c_contiguous and s.rho.flags.c_contiguous
