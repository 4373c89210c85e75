"""Particle-path tests: uniform translation in closed form, Jacobians
against finite differences of neighbouring paths, and the density
transport identity on a breaking and a non-breaking run."""

import numpy as np
import pytest

from dghsim.characteristics import (
    CharacteristicEnsemble,
    default_seeds,
    is_monotone,
    sign_preserved,
    verify_density_transport,
)
from dghsim.grid import PeriodicGrid, interp_values
from dghsim.model import ModelParams, State
from dghsim.stepping import SimConfig, run


def build_state(n, u_fn, rho_fn):
    x = PeriodicGrid(n).nodes
    return State(u_fn(x), rho_fn(x))


# ---------------------------------------------------------------------------
# container contract

def test_ensemble_validation():
    seeds = default_seeds(4)
    q = np.vstack([seeds, seeds + 0.1])
    ok = CharacteristicEnsemble(q=q, log_qx=np.zeros((2, 4)), rho_q=np.ones((2, 4)))
    assert np.allclose(ok.qx, 1.0)
    with pytest.raises(ValueError):  # wrong shape
        CharacteristicEnsemble(np.zeros((3, 4)), np.zeros((2, 4)), np.ones((2, 4)))
    with pytest.raises(ValueError):  # positions not one row per record
        CharacteristicEnsemble(seeds, np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):  # Jacobian must start at one
        CharacteristicEnsemble(q, np.ones((2, 4)), np.ones((2, 4)))


def test_default_seeds():
    s = default_seeds(8)
    assert s[0] == 0.0 and s.size == 8
    assert np.allclose(np.diff(s), 0.125)
    with pytest.raises(ValueError):
        default_seeds(1)


# ---------------------------------------------------------------------------
# closed-form flows

def test_uniform_flow_translates_seeds():
    # constant (u, rho) is steady, so q(t) = x0 + c t exactly (unwrapped)
    c_speed = 0.8
    s0 = build_state(64, lambda x: c_speed + 0.0 * x, lambda x: 1.5 + 0.0 * x)
    cfg = SimConfig(n=64, t_end=2.0, record_every=1)
    seeds = default_seeds(16)
    res = run(s0, ModelParams(), cfg, seeds=seeds)
    e = res.ensemble
    assert np.array_equal(e.q[0], seeds)
    expected = seeds[None, :] + c_speed * res.series[:, 0, None]
    assert np.max(np.abs(e.q - expected)) < 1e-9
    assert np.max(np.abs(e.log_qx)) < 1e-9  # no stretching in a rigid flow
    assert e.q[-1, 0] > 1.0  # genuinely unwrapped past the period


def test_still_flow_keeps_seeds_fixed():
    s0 = build_state(64, lambda x: 0.0 * x, lambda x: 2.0 + 0.0 * x)
    cfg = SimConfig(n=64, t_end=1.0)
    seeds = default_seeds(8)
    e = run(s0, ModelParams(), cfg, seeds=seeds).ensemble
    assert np.max(np.abs(e.q - seeds[None, :])) < 1e-12
    assert np.max(np.abs(e.rho_q - 2.0)) < 1e-12


def test_jacobian_matches_path_differences():
    # q_x from the log-slope integral vs centered differences of a dense
    # fan of trajectories; agreement is limited by the seed spacing
    s0 = build_state(
        128,
        lambda x: 0.3 * np.sin(2.0 * np.pi * x),
        lambda x: 1.5 + 0.0 * x,
    )
    seeds = default_seeds(128)
    cfg = SimConfig(n=128, t_end=0.5, record_every=1)
    e = run(s0, ModelParams(), cfg, seeds=seeds).ensemble
    h = 1.0 / 128.0
    fd = (np.roll(e.q, -1, axis=1) - np.roll(e.q, 1, axis=1)) / (2.0 * h)
    # rolling across the wrap pair misses one period
    fd[:, 0] = (e.q[:, 1] - (e.q[:, -1] - 1.0)) / (2.0 * h)
    fd[:, -1] = ((e.q[:, 0] + 1.0) - e.q[:, -2]) / (2.0 * h)
    # agreement limited by the O(h^2) difference quotient, not the paths
    assert np.max(np.abs(e.qx - fd)) < 1e-3


# ---------------------------------------------------------------------------
# transport identity

def test_density_transport_smooth_run():
    s0 = build_state(
        256,
        lambda x: np.sin(2.0 * np.pi * x) / (2.0 * np.pi),
        lambda x: 2.0 + np.sin(2.0 * np.pi * x),
    )
    cfg = SimConfig(n=256, t_end=1.0)
    seeds = default_seeds(64)
    res = run(s0, ModelParams(A=1.0, gamma=0.0), cfg, seeds=seeds)
    e = res.ensemble
    assert np.array_equal(e.q[0], seeds)
    # the checks read rho0(x0) off the t = 0 record, which holds the
    # interpolant of the initial density at the seeds bit for bit, so the
    # residual's t = 0 row is exactly 0
    ref = interp_values(s0.rho, seeds)
    assert np.array_equal(e.rho_q[0], ref)
    assert np.max(np.abs(e.rho_q[0] * e.qx[0] - ref)) == 0.0
    assert verify_density_transport(e) < 1e-5
    assert is_monotone(e)
    assert sign_preserved(e)


def test_density_transport_zero_density_is_exact():
    s0 = build_state(
        128,
        lambda x: np.sin(2.0 * np.pi * x) / (2.0 * np.pi),
        lambda x: 0.0 * x,
    )
    cfg = SimConfig(n=128, t_end=1.0)
    e = run(s0, ModelParams(), cfg, seeds=default_seeds(32)).ensemble
    assert verify_density_transport(e) < 1e-10


def test_sign_preservation_with_mixed_sign_density():
    s0 = build_state(
        128,
        lambda x: 0.2 * np.sin(2.0 * np.pi * x),
        lambda x: np.sin(2.0 * np.pi * x),  # zero crossings at 0 and 1/2
    )
    cfg = SimConfig(n=128, t_end=0.5)
    e = run(s0, ModelParams(), cfg, seeds=default_seeds(16)).ensemble
    assert sign_preserved(e)


def test_monotonicity_detects_crossing():
    seeds = default_seeds(4)
    q = np.vstack([seeds, seeds])
    q[1, 1] = q[1, 2] + 0.1  # force a crossing at the later time
    e = CharacteristicEnsemble(q, np.zeros((2, 4)), np.ones((2, 4)))
    assert not is_monotone(e)

