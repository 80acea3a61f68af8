import dataclasses
import io
import math
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qdresponse.errors import (
    BoundViolation,
    InvalidGrid,
    NonFinite,
    NotSettled,
    ZeroDelta,
)
from qdresponse.model import Params, default_signal_amplitude
from qdresponse.oracle import (
    Trajectory,
    demodulate_sidebands,
    dump_trajectory,
    integrate_mean_field,
    max_step,
    mean_field_rhs,
    perturbation_outcome,
    relative_deviation,
    steady_state_vector,
)
from qdresponse.presets import figure_ids, get_preset
from qdresponse.response import solve_sidebands
from qdresponse.steady import Stability, solve_steady_branches

from conftest import absorption_point, bistable_point


def stable_branch(p):
    stable = [b for b in solve_steady_branches(p)
              if b.stability is Stability.STABLE]
    assert len(stable) == 1
    return stable[0]


@pytest.mark.parametrize("got, want, dev", [
    (1.5 + 0j, 1.0 + 0j, 0.5), (0j, 0j, 0.0), (1e-300j, 0j, math.inf),
    (0j, 2.0, 1.0)])
def test_relative_deviation(got, want, dev):
    assert relative_deviation(got, want) == dev


@pytest.mark.parametrize("t_end, dt, steps", [(260.0, 1e-300, "2.6e+302"),
                                              (1e300, 0.01, "1e+302"),
                                              (1e300, 1e-300, "inf")])
def test_a_step_count_no_trajectory_can_hold_is_an_invalid_grid(t_end, dt, steps):
    # numpy refuses the first two shapes before it allocates anything, and
    # the third step count does not reach numpy
    p = absorption_point(delta0=4.3)
    with pytest.raises(InvalidGrid, match=re.escape(f"t_end/dt = {steps} steps")):
        integrate_mean_field(p, (-1.0, 0, 0, 0, 0, 0, 0), t_end, dt)


def test_undriven_ground_state_is_constant():
    p = absorption_point().replace(ep0=0.0, es0=0.0)
    traj = integrate_mean_field(p, (-1.0, 0, 0, 0, 0, 0, 0), 5.0, 0.01)
    assert np.max(np.abs(traj.y[:, 0] + 1.0)) < 1e-12
    assert np.max(np.abs(traj.y[:, 3:5])) < 1e-12


def test_inversion_relaxes_at_population_decay_rate():
    p = absorption_point().replace(ep0=0.0, es0=0.0, eta=0.0)
    traj = integrate_mean_field(p, (-0.5, 0, 0, 0, 0, 0, 0), 2.0, 0.005)
    expected = -1.0 + 0.5 * np.exp(-p.gamma1_ratio * traj.t)
    assert np.max(np.abs(traj.y[:, 0] - expected)) < 1e-10


def test_long_time_state_matches_steady_branch():
    p = absorption_point().replace(es0=0.0)
    b = stable_branch(p)
    traj = integrate_mean_field(p, (-1.0, 0, 0, 0, 0, 0, 0), 350.0, 0.01)
    target = np.array(steady_state_vector(b))
    assert np.max(np.abs(traj.y[-1] - target)) < 1e-6


def test_pure_tone_demodulates_exactly():
    delta0 = 3.7
    t = np.arange(0, 400.0, 0.01)
    a = 0.3 * np.exp(-1j * delta0 * t)
    y = np.zeros((t.size, 7))
    y[:, 3], y[:, 4] = a.real, a.imag
    traj = Trajectory(t=t, y=y, dt=0.01)
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


def test_initial_state_needs_seven_components():
    with pytest.raises(InvalidGrid, match="initial state must have 7 components"):
        integrate_mean_field(absorption_point(), (-1, 0, 0, 0, 0, 0), 1.0, 0.01)


def test_initial_bound_violation_detected():
    p = absorption_point()
    with pytest.raises(BoundViolation):
        integrate_mean_field(p, (1.5, 0, 0, 0, 0, 0, 0), 1.0, 0.01)


def _still_trajectory():
    t = np.arange(0, 100.0, 0.01)
    return Trajectory(t=t, y=np.zeros((t.size, 7)), dt=0.01)


def test_zero_delta_rejected():
    with pytest.raises(ZeroDelta):
        demodulate_sidebands(_still_trajectory(), 0.0)


@pytest.mark.parametrize("delta0", [math.nan, math.inf, -math.inf])
def test_a_non_finite_detuning_is_non_finite_before_any_window(delta0):
    with pytest.raises(NonFinite) as err:
        demodulate_sidebands(_still_trajectory(), delta0)
    assert str(err.value) == f"sideband detuning delta0={delta0!r} is not finite"


def test_unsettled_trajectory_rejected():
    p = absorption_point(delta0=4.3)
    p = p.replace(es0=default_signal_amplitude(p))
    traj = integrate_mean_field(p, (-1.0, 0, 0, 0, 0, 0, 0), 60.0, 0.01)
    with pytest.raises(NotSettled):
        demodulate_sidebands(traj, p.delta0)


def test_a_branch_outside_the_inversion_bounds_departs_at_once():
    # the kicked state starts at w = 1.5: the first chunk raises BoundViolation
    p = absorption_point()
    branch = dataclasses.replace(stable_branch(p), w0=1.5)
    assert perturbation_outcome(p, branch) == "departed"


def test_a_kick_that_outlives_the_horizon_is_inconclusive():
    # with lattice damping 1e-3 the kicked state neither comes back nor departs
    p = absorption_point().replace(gamma_q0=1e-3)
    assert perturbation_outcome(p, stable_branch(p)) == "inconclusive"


def test_trajectory_dump_format():
    # a driven trajectory, so that every column moves
    p = absorption_point(delta0=4.3)
    p = p.replace(es0=default_signal_amplitude(p))
    traj = integrate_mean_field(p, (-1.0, 0, 0, 0, 0, 0, 0), 0.1, 0.01)
    assert np.all(traj.y[-1] != traj.y[0])
    buf = io.StringIO()
    dump_trajectory(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,w,re_sigma,im_sigma,re_a,im_a,q,qdot"
    assert len(lines) == traj.t.size + 1
    assert lines[1].startswith("0.0,-1.0,")
    for line, t, row in zip(lines[1:], traj.t, traj.y):
        assert line.split(",") == [repr(float(v)) for v in (t, *row)]


def reference_rk4(p, init, t_end, dt, es0):
    """The RK4 step as four ``mean_field_rhs`` calls, without the guards:
    the statement of the scheme that ``integrate_mean_field`` unrolls."""
    n = int(round(t_end / dt))
    y = tuple(float(v) for v in init)
    out = np.empty((n + 1, 7))
    out[0] = y
    h2 = 0.5 * dt
    h6 = dt / 6.0
    t = 0.0
    for k in range(n):
        k1 = mean_field_rhs(p, y, t, es0)
        k2 = mean_field_rhs(p, [y[i] + h2 * k1[i] for i in range(7)],
                            t + h2, es0)
        k3 = mean_field_rhs(p, [y[i] + h2 * k2[i] for i in range(7)],
                            t + h2, es0)
        k4 = mean_field_rhs(p, [y[i] + dt * k3[i] for i in range(7)],
                            t + dt, es0)
        y = tuple(y[i] + h6 * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
                  for i in range(7))
        t += dt
        out[k + 1] = y
    return Trajectory(t=np.arange(n + 1) * dt, y=out, dt=dt)


def assert_same_bits(p, init, t_end, dt, es0):
    got = integrate_mean_field(p, init, t_end, dt, es0=es0)
    ref = reference_rk4(p, init, t_end, dt, es0)
    assert got.dt == ref.dt
    for name in ("t", "y"):
        assert getattr(got, name).shape == getattr(ref, name).shape, name
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name


def oracle_setup(fid):
    """The signal, detuning, step and stable-branch start of the oracle
    cross-check of preset ``fid``."""
    preset = get_preset(fid)
    p = preset.params.replace(delta0=preset.oracle_delta0)
    p = p.replace(es0=default_signal_amplitude(p))
    stable = [b for b in solve_steady_branches(p)
              if b.stability is Stability.STABLE]
    branch = min(stable, key=lambda b: b.w0)
    return p, steady_state_vector(branch), min(0.01, max_step(p))


PUMPED = [fid for fid in figure_ids() if get_preset(fid).params.ep0 != 0.0]


@pytest.mark.parametrize("fid", ["4b", "5a", "9b"])
def test_mechanical_sidebands_match_the_linear_solve(fid):
    """w+ and q+, the mechanical channel behind the induced absorption, as
    the oracle audit checks them; at most 2.5e-6 on these presets."""
    p, init, dt = oracle_setup(fid)
    demod = demodulate_sidebands(integrate_mean_field(p, init, 260.0, dt),
                                 p.delta0)
    bands = solve_sidebands(p, min(
        [b for b in solve_steady_branches(p) if b.stability is Stability.STABLE],
        key=lambda b: b.w0))
    assert bands.sigmaz_plus != 0 and bands.q_plus != 0
    assert relative_deviation(demod.w_plus, bands.sigmaz_plus) < 1e-5
    assert relative_deviation(demod.q_plus, bands.q_plus) < 1e-5


@pytest.mark.parametrize("fid", PUMPED)
def test_step_is_bit_identical_to_rhs_calls_on_preset_oracle_setups(fid):
    p, init, dt = oracle_setup(fid)
    assert p.es0 > 0.0 and p.delta0 != 0.0
    assert_same_bits(p, init, 2.0, dt, p.es0)


def test_step_is_bit_identical_to_rhs_calls_on_random_points():
    rng = random.Random(20261018)
    for _ in range(40):
        p = Params(delta_p0=rng.uniform(-10, 10), delta_c0=rng.uniform(-10, 10),
                   g0=rng.uniform(0, 2), eta=rng.uniform(0, 0.1),
                   omega_k0=rng.uniform(1, 20), kappa_c0=rng.uniform(0.5, 3),
                   gamma_q0=rng.uniform(0.01, 1), ep0=rng.uniform(0, 5),
                   delta0=rng.uniform(-10, 10), es0=rng.uniform(0, 0.1),
                   gamma1_ratio=rng.uniform(0.5, 3))
        init = (rng.uniform(-1, -0.5), rng.uniform(-0.2, 0.2),
                rng.uniform(-0.2, 0.2), rng.uniform(-2, 2), rng.uniform(-2, 2),
                rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        dt = max_step(p)
        assert_same_bits(p, init, 60 * dt, dt, p.es0)


def test_step_is_bit_identical_to_rhs_calls_without_signal():
    p = bistable_point(ep0=8.0).replace(es0=0.0, delta0=0.0)
    for branch in solve_steady_branches(p):
        init = steady_state_vector(branch)
        kicked = (init[0] + 1e-6,) + init[1:]
        assert_same_bits(p, kicked, 2.0, max_step(p), 0.0)


@pytest.mark.parametrize("delta_p0", [0.0, 1.0])
def test_step_keeps_the_sign_of_each_zero_as_the_rhs_calls_do(delta_p0):
    """An undriven dot at rest with Im sigma = -0.0: its first Im sigma
    stage is ``(-a - b) + c`` with ``a == -b`` and ``c`` = -0.0, where
    ``c - (a + b)`` would give -0.0 for the rhs form's 0.0."""
    p = get_preset("4b").params.replace(ep0=0.0, es0=0.0, delta_p0=delta_p0)
    assert_same_bits(p, (-1.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0), 1.0, 0.01, 0.0)


#: Every double but NaN: the finite ones, both zeros and both infinities.
DOUBLES = st.floats(allow_nan=False)


@example(sx=0.0, s=1.0, sy=-0.0, g2=1.0, av=-0.0, w=1.0)
@example(sx=-0.0, s=-1.0, sy=0.0, g2=1.0, av=0.0, w=-1.0)
@example(sx=3.0, s=1.5, sy=2.0, g2=2.0, av=-0.0, w=1.0)
@example(sx=math.inf, s=1.0, sy=math.inf, g2=0.0, av=1.0, w=1.0)
@given(sx=DOUBLES, s=DOUBLES, sy=DOUBLES, g2=DOUBLES, av=DOUBLES, w=DOUBLES)
def test_the_re_sigma_stage_is_the_rhs_form_bit_for_bit(sx, s, sy, g2, av, w):
    """The RK4 step writes ``mean_field_rhs``'s Re sigma term
    ``-sx + s * sy - g2 * av * w`` as ``s * sy - sx - g2 * av * w``: in
    IEEE-754 ``-a + b`` is ``b - a``, signed zeros and infinities too."""
    want = -sx + s * sy - g2 * av * w
    got = s * sy - sx - g2 * av * w
    if want != want:
        assert got != got
    else:
        assert struct.pack("d", got) == struct.pack("d", want)


@pytest.mark.parametrize("init, error, message", [
    ((0.99, 100, 0, 0, 100, 0, 0), BoundViolation,
     "inversion w=-138.943 left [-1, 1] at t=0.01"),
    ((-1, 0, 0, 0, 0, 2e12, 0), NonFinite, "state diverged at t=0.01"),
    # finite, but av sx - au sy is inf - inf in the first stage
    ((-1, 1e308, 1e308, 1e308, 1e308, 0, 0), NonFinite,
     "state became NaN at t=0.01"),
])
def test_in_loop_guards_stop_at_the_first_bad_step(init, error, message):
    p = get_preset("4b").params
    with pytest.raises(error) as exc:
        integrate_mean_field(p, init, 1.0, 0.01)
    assert str(exc.value) == message


@pytest.mark.parametrize("init", [(math.nan, 0, 0, 0, 0, 0, 0),
                                  (-1, 0, 0, 0, 0, math.inf, 0)])
def test_a_non_finite_initial_state_is_non_finite_before_any_step(init):
    with pytest.raises(NonFinite) as exc:
        integrate_mean_field(get_preset("4b").params, init, 1.0, 0.01)
    assert str(exc.value) == f"initial state {tuple(map(float, init))} is not finite"
