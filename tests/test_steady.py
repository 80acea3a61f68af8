import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdresponse.errors import InvalidGrid
from qdresponse.model import Params, SweepAxis
from qdresponse.steady import (
    Stability,
    build_inversion_polynomial,
    cleared_inversion_expression,
    coherence_amplitudes,
    hysteresis_sweep,
    inversion_roots,
    mean_field_jacobian,
    solve_steady_branches,
    steady_fields,
)

from conftest import bistable_point, detuning_scan_point


def test_undriven_polynomial_has_ground_state_root():
    p = bistable_point(ep0=0.0)
    poly = build_inversion_polynomial(p)
    scale = max(abs(c) for c in poly.coefficients())
    assert abs(poly(-1.0)) < 1e-12 * scale


def test_bistable_window_has_three_distinct_roots():
    p = bistable_point(ep0=8.0)
    real, resid, cplx = inversion_roots(p)
    assert len(real) == 3
    assert len(set(np.round(real, 6))) == 3
    assert not cplx


def test_interpolated_cubic_matches_direct_evaluation():
    # oracle: evaluate the cleared rational expression at fresh sample points
    rng = np.random.default_rng(5)
    for _ in range(6):
        p = Params(delta_p0=rng.uniform(-10, 10), delta_c0=rng.uniform(-10, 10),
                   g0=rng.uniform(0.1, 2.0), eta=rng.uniform(0.0, 0.25),
                   omega_k0=rng.uniform(5, 100), kappa_c0=rng.uniform(0.5, 2.5),
                   gamma_q0=0.1, ep0=rng.uniform(0.1, 20))
        poly = build_inversion_polynomial(p)
        scale = max(abs(c) for c in poly.coefficients())
        for w in rng.uniform(-3.0, 2.0, size=10):
            direct = cleared_inversion_expression(p, w)
            assert abs(poly(w) - direct) < 1e-12 * scale * max(1.0, abs(w)) ** 3


def test_undriven_state_is_unique_ground_branch():
    p = bistable_point(ep0=0.0)
    branches = solve_steady_branches(p)
    assert len(branches) == 1
    b = branches[0]
    assert b.w0 == pytest.approx(-1.0, abs=1e-12)
    assert abs(b.a0) == pytest.approx(0.0, abs=1e-12)
    assert abs(b.sigma0) == pytest.approx(0.0, abs=1e-12)
    assert b.q0 == pytest.approx(2.0 * p.eta * p.omega_k0, rel=1e-12)
    assert b.stability is Stability.STABLE
    assert b.physical


def test_root_count_transitions_one_three_one():
    p = bistable_point()
    counts = []
    for ep0 in np.linspace(0.5, 16.0, 63):
        real, _, _ = inversion_roots(p.replace(ep0=ep0))
        counts.append(len(real))
    counts = np.array(counts)
    assert counts[0] == 1 and counts[-1] == 1
    assert np.any(counts == 3)
    # exactly one contiguous 3-root window
    changes = np.flatnonzero(np.diff((counts == 3).astype(int)))
    assert len(changes) == 2


def test_detuning_window_widens_with_pump():
    grid = np.linspace(-50.0, 10.0, 601)

    def window_width(ep0):
        p = detuning_scan_point(ep0=ep0)
        hits = [x for x in grid
                if len(inversion_roots(p.replace(delta_p0=x))[0]) == 3]
        return (max(hits) - min(hits)) if hits else 0.0

    w12, w36, w81 = window_width(12.0), window_width(36.0), window_width(81.0)
    assert w81 > 0.0
    assert w12 <= w36 <= w81


def test_middle_branch_unstable_outer_stable():
    for ep0 in (4.0, 8.0, 12.0):
        branches = solve_steady_branches(bistable_point(ep0=ep0))
        assert len(branches) == 3
        labels = [b.stability for b in branches]
        assert labels == [Stability.STABLE, Stability.UNSTABLE, Stability.STABLE]


def test_branch_fields_satisfy_displacement_relation():
    for b in solve_steady_branches(bistable_point(ep0=8.0)):
        p = bistable_point(ep0=8.0)
        assert p.omega_k0 ** 2 * b.q0 == pytest.approx(
            -2.0 * p.eta * p.omega_k0 ** 3 * b.w0, rel=1e-12)


def test_field_amplitude_matches_direct_cavity_equation():
    # D1 of the coefficient set must equal the field-equation steady value
    p = bistable_point(ep0=8.0)
    for b in solve_steady_branches(p):
        direct = (p.ep0 - 1j * p.g0 * b.sigma0) / (1j * p.delta_c0 + p.kappa_c0)
        assert b.a0 == pytest.approx(direct, rel=1e-13)


def test_legacy_transcription_differs_and_breaks_fixed_points():
    from qdresponse.oracle import mean_field_rhs

    p = bistable_point(ep0=3.0)
    default = build_inversion_polynomial(p).coefficients()
    legacy = build_inversion_polynomial(p, legacy_field_amplitude=True).coefficients()
    assert np.max(np.abs(default - legacy)) > 1e-3 * np.max(np.abs(default))
    real, _, _ = inversion_roots(p, legacy_field_amplitude=True)
    sigma0, a0, q0 = steady_fields(p, real[0])
    state = (real[0], sigma0.real, sigma0.imag, a0.real, a0.imag, q0, 0.0)
    assert max(abs(v) for v in mean_field_rhs(p, state)) > 1e-3


def test_roots_are_mean_field_fixed_points():
    from qdresponse.oracle import mean_field_rhs, steady_state_vector

    for ep0 in (0.5, 3.0, 8.0, 14.0):
        p = bistable_point(ep0=ep0)
        for b in solve_steady_branches(p):
            resid = mean_field_rhs(p, steady_state_vector(b))
            # the displacement equation carries omega_k0^3-sized terms
            scale = 1.0 + 2.0 * p.eta * p.omega_k0 ** 3
            assert max(abs(v) for v in resid) < 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(st.floats(-12, 12), st.floats(-12, 12), st.floats(0.1, 2.0),
       st.floats(0.0, 0.25), st.floats(5.0, 110.0), st.floats(0.5, 2.5),
       st.floats(0.05, 85.0))
def test_random_points_residual_and_count(dp, dc, g0, eta, wk, kc, ep0):
    # adversarial near-decoupled corners (tiny g0 and eta with large
    # detunings) push the monic coefficient spread so high that one ulp of
    # the root moves the polynomial value by more than 1e-10, so the bound
    # is the residual target or the evaluation noise floor, whichever is
    # larger
    p = Params(delta_p0=dp, delta_c0=dc, g0=g0, eta=eta, omega_k0=wk,
               kappa_c0=kc, gamma_q0=0.1, ep0=ep0)
    real, resid, _ = inversion_roots(p)
    assert len(real) in (1, 3)
    poly = build_inversion_polynomial(p)
    coeffs = poly.coefficients()
    monic = np.abs(coeffs / coeffs[0])
    eps = np.finfo(float).eps
    for w0, r in zip(real, resid):
        floor = 8.0 * eps * float(np.polyval(monic, abs(w0)))
        assert r < max(1e-10, floor)


def test_sample_point_on_coefficient_pole_is_resampled():
    # d1 vanishes exactly at the default sample point w = 1 for this point;
    # construction must shift samples and still reproduce the cleared
    # expression
    p = Params(delta_p0=1.0, delta_c0=1.0, g0=1.0, eta=0.1, omega_k0=10.0,
               kappa_c0=1.0, gamma_q0=0.1, ep0=2.0)
    from qdresponse.steady import _denominators

    d1, _ = _denominators(p, 1.0)
    assert abs(d1) < 1e-12
    poly = build_inversion_polynomial(p)
    scale = max(abs(c) for c in poly.coefficients())
    for w in (-1.7, -0.4, 0.3, 1.9):
        assert abs(poly(w) - cleared_inversion_expression(p, w)) < 1e-11 * scale


def test_jacobian_matches_numerical_differentiation():
    from qdresponse.oracle import mean_field_rhs, steady_state_vector

    p = bistable_point(ep0=8.0)
    b = solve_steady_branches(p)[0]
    y0 = np.array(steady_state_vector(b))
    jac = mean_field_jacobian(p, b.w0)
    h = 1e-6
    for j in range(7):
        plus = np.array(mean_field_rhs(p, y0 + h * np.eye(7)[j]))
        minus = np.array(mean_field_rhs(p, y0 - h * np.eye(7)[j]))
        col = (plus - minus) / (2.0 * h)
        scale = 1.0 + np.max(np.abs(jac[:, j]))
        assert np.allclose(col, jac[:, j], atol=1e-4 * scale)


def test_branch_carries_its_jacobian_outside_equality():
    p = bistable_point(ep0=8.0)
    first, second = solve_steady_branches(p), solve_steady_branches(p)
    assert len(first) == 3
    for a, b in zip(first, second):
        assert np.array_equal(a.jacobian, mean_field_jacobian(p, a.w0))
        assert a == b and hash(a) == hash(b) and a.jacobian is not b.jacobian
        # the complex-amplitude generator is a similarity transform of J
        ev_j = np.linalg.eigvals(a.jacobian)
        ev_k = np.linalg.eigvals(a.sideband_generator)
        gap = np.abs(ev_j[:, None] - ev_k[None, :]).min(axis=1)
        assert np.max(gap) < 1e-10 * np.max(np.abs(ev_j))


def test_hysteresis_traces_differ_inside_window_only():
    p = bistable_point(ep0=0.0)
    grid = np.linspace(0.2, 16.0, 317)
    result = hysteresis_sweep(p, SweepAxis.EP0, grid)
    assert result.turning_up is not None and result.turning_down is not None
    assert result.turning_up > result.turning_down
    down = {r.x: r.w0 for r in result.down}
    diffs = [r.x for r in result.up if abs(r.w0 - down[r.x]) > 1e-12]
    assert diffs
    assert all(result.turning_down <= x <= result.turning_up for x in diffs)


def test_hysteresis_monostable_traces_coincide():
    p = bistable_point(ep0=0.0).replace(g0=0.05)
    grid = np.linspace(0.2, 16.0, 159)
    result = hysteresis_sweep(p, SweepAxis.EP0, grid)
    assert result.turning_up is None and result.turning_down is None
    down = {r.x: r.w0 for r in result.down}
    assert all(abs(r.w0 - down[r.x]) < 1e-15 for r in result.up)


def test_hysteresis_rejects_single_point_grid():
    with pytest.raises(InvalidGrid):
        hysteresis_sweep(bistable_point(), SweepAxis.EP0, [1.0])


def test_hysteresis_rejects_descending_grid():
    with pytest.raises(InvalidGrid):
        hysteresis_sweep(bistable_point(), SweepAxis.EP0, [2.0, 1.0])


@pytest.mark.parametrize("grid", [[0.0, float("nan"), 2.0], [0.0, float("inf")],
                                  [float("-inf"), 1.0]])
def test_hysteresis_rejects_non_finite_grid(grid):
    with pytest.raises(InvalidGrid, match="finite"):
        hysteresis_sweep(bistable_point(), SweepAxis.EP0, grid)


def test_coherence_amplitudes_are_conjugate_pairs():
    p = bistable_point(ep0=8.0)
    w0 = solve_steady_branches(p)[0].w0
    c1, c2, d1, d2 = coherence_amplitudes(p, w0)
    assert c2 == pytest.approx(c1.conjugate(), rel=1e-14)
    assert d2 == pytest.approx(d1.conjugate(), rel=1e-14)
