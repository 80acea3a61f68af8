import io

import numpy as np
import pytest

from qdresponse.errors import (
    BoundViolation,
    InvalidGrid,
    NotSettled,
    ZeroDelta,
)
from qdresponse.model import default_signal_amplitude
from qdresponse.oracle import (
    Trajectory,
    demodulate_sidebands,
    dump_trajectory,
    integrate_mean_field,
    max_step,
    perturbation_outcome,
    steady_state_vector,
)
from qdresponse.response import solve_sidebands
from qdresponse.steady import Stability, solve_steady_branches

from conftest import absorption_point, bistable_point


def stable_branch(p):
    stable = [b for b in solve_steady_branches(p)
              if b.stability is Stability.STABLE]
    assert len(stable) == 1
    return stable[0]


def test_undriven_ground_state_is_constant():
    p = absorption_point().replace(ep0=0.0, es0=0.0)
    traj = integrate_mean_field(p, (-1.0, 0, 0, 0, 0, 0, 0), 5.0, 0.01)
    assert np.max(np.abs(traj.w + 1.0)) < 1e-12
    assert np.max(np.abs(traj.a)) < 1e-12


def test_inversion_relaxes_at_population_decay_rate():
    p = absorption_point().replace(ep0=0.0, es0=0.0, eta=0.0)
    traj = integrate_mean_field(p, (-0.5, 0, 0, 0, 0, 0, 0), 2.0, 0.005)
    expected = -1.0 + 0.5 * np.exp(-p.gamma1_ratio * traj.t)
    assert np.max(np.abs(traj.w - expected)) < 1e-10


def test_long_time_state_matches_steady_branch():
    p = absorption_point().replace(es0=0.0)
    b = stable_branch(p)
    traj = integrate_mean_field(p, (-1.0, 0, 0, 0, 0, 0, 0), 350.0, 0.01)
    final = np.array([traj.w[-1], traj.sigma[-1].real, traj.sigma[-1].imag,
                      traj.a[-1].real, traj.a[-1].imag, traj.q[-1],
                      traj.qdot[-1]])
    target = np.array(steady_state_vector(b))
    assert np.max(np.abs(final - target)) < 1e-6


def test_pure_tone_demodulates_exactly():
    delta0 = 3.7
    t = np.arange(0, 400.0, 0.01)
    a = 0.3 * np.exp(-1j * delta0 * t)
    zero = np.zeros_like(t)
    traj = Trajectory(t=t, w=zero, sigma=np.zeros_like(a), a=a, q=zero,
                      qdot=zero, dt=0.01)
    demod = demodulate_sidebands(traj, delta0)
    assert abs(demod.a_plus - 0.3) < 1e-10
    assert abs(demod.a_minus) < 1e-10
    assert abs(demod.a0) < 1e-10


def test_demodulated_sideband_matches_linear_solve():
    p = absorption_point(delta0=4.3)
    p = p.replace(es0=default_signal_amplitude(p))
    b = stable_branch(p)
    traj = integrate_mean_field(p, steady_state_vector(b), 260.0, 0.01)
    demod = demodulate_sidebands(traj, p.delta0)
    bands = solve_sidebands(p, b)
    assert abs(demod.a_plus - bands.a_plus) < 1e-3 * abs(bands.a_plus)
    assert abs(demod.sigma_plus - bands.sigma_plus) < 1e-3 * abs(bands.sigma_plus)
    assert demod.energy_fraction > 0.999


def test_extracted_sideband_is_linear_in_signal():
    p = absorption_point(delta0=4.3)
    es = default_signal_amplitude(p)
    b = stable_branch(p)
    init = steady_state_vector(b)
    one = demodulate_sidebands(
        integrate_mean_field(p, init, 260.0, 0.01, es0=es), p.delta0)
    two = demodulate_sidebands(
        integrate_mean_field(p, init, 260.0, 0.01, es0=2.0 * es), p.delta0)
    assert abs(two.a_plus / one.a_plus - 2.0) < 1e-3


def test_halving_step_leaves_sideband_unchanged():
    p = absorption_point(delta0=4.3)
    p = p.replace(es0=default_signal_amplitude(p))
    b = stable_branch(p)
    init = steady_state_vector(b)
    coarse = demodulate_sidebands(
        integrate_mean_field(p, init, 240.0, 0.01), p.delta0)
    fine = demodulate_sidebands(
        integrate_mean_field(p, init, 240.0, 0.005), p.delta0)
    assert abs(fine.a_plus - coarse.a_plus) < 1e-6 * abs(coarse.a_plus)


def test_dc_values_match_branch():
    p = absorption_point(delta0=4.3)
    p = p.replace(es0=default_signal_amplitude(p))
    b = stable_branch(p)
    traj = integrate_mean_field(p, steady_state_vector(b), 260.0, 0.01)
    demod = demodulate_sidebands(traj, p.delta0)
    assert abs(demod.a0 - b.a0) < 1e-5 * max(1.0, abs(b.a0))
    assert abs(demod.w0 - b.w0) < 1e-5
    assert abs(demod.q0 - b.q0) < 1e-4 * max(1.0, abs(b.q0))


def test_step_size_precondition_enforced():
    p = absorption_point(delta0=4.3)
    assert max_step(p) == pytest.approx(0.02 * 2 * np.pi / 10.0)
    with pytest.raises(InvalidGrid):
        integrate_mean_field(p, (-1, 0, 0, 0, 0, 0, 0), 1.0, 0.1)
    for t_end, dt in ((float("nan"), 0.01), (float("inf"), 0.01),
                      (1.0, float("nan")), (1.0, float("inf"))):
        with pytest.raises(InvalidGrid):
            integrate_mean_field(p, (-1, 0, 0, 0, 0, 0, 0), t_end, dt)


def test_initial_bound_violation_detected():
    p = absorption_point()
    with pytest.raises(BoundViolation):
        integrate_mean_field(p, (1.5, 0, 0, 0, 0, 0, 0), 1.0, 0.01)


def test_zero_delta_rejected():
    t = np.arange(0, 100.0, 0.01)
    zero = np.zeros_like(t)
    traj = Trajectory(t=t, w=zero, sigma=zero.astype(complex),
                      a=zero.astype(complex), q=zero, qdot=zero, dt=0.01)
    with pytest.raises(ZeroDelta):
        demodulate_sidebands(traj, 0.0)


def test_unsettled_trajectory_rejected():
    p = absorption_point(delta0=4.3)
    p = p.replace(es0=default_signal_amplitude(p))
    traj = integrate_mean_field(p, (-1.0, 0, 0, 0, 0, 0, 0), 60.0, 0.01)
    with pytest.raises(NotSettled):
        demodulate_sidebands(traj, p.delta0)


def test_stability_labels_agree_with_perturbation_outcomes():
    p = bistable_point(ep0=8.0)
    low, mid, high = solve_steady_branches(p)
    assert perturbation_outcome(p, low, horizon=300.0) == "decayed"
    assert perturbation_outcome(p, mid, horizon=300.0) == "departed"
    assert perturbation_outcome(p, high, horizon=300.0) == "decayed"


def test_trajectory_dump_format():
    p = absorption_point().replace(ep0=0.0, es0=0.0)
    traj = integrate_mean_field(p, (-1.0, 0, 0, 0, 0, 0, 0), 0.1, 0.01)
    buf = io.StringIO()
    dump_trajectory(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,w,re_sigma,im_sigma,re_a,im_a,q,qdot"
    assert len(lines) == traj.t.size + 1
    assert lines[1].startswith("0.0,-1.0,")
