import ast
import dataclasses
import math
import pathlib
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdresponse import _lapack, presets, steady
from qdresponse.errors import (InvalidGrid, NoConvergence, NonFinite,
                               NoRealRoot, QdResponseError, RootResidual, _or_raise)
from qdresponse.model import Params, SweepAxis, apply_axis
from qdresponse.oracle import mean_field_rhs, steady_state_vector
from qdresponse.records import Flag
from qdresponse.response import sideband_generator
from qdresponse.steady import (
    Stability,
    SteadyBranch,
    build_inversion_polynomial,
    classify_stability,
    cleared_inversion_expression,
    coherence_amplitudes,
    hysteresis_sweep,
    inversion_roots,
    mean_field_jacobian,
    solve_steady_branches,
    steady_fields,
)

from conftest import (
    bistable_point,
    detuning_scan_point,
    faulty_jacobian,
    fold_jacobian,
    lone_roots,
    phonon_pole_jacobian,
    rootless_grid_row,
    script,
)


def test_undriven_polynomial_has_ground_state_root():
    p = bistable_point(ep0=0.0)
    poly = build_inversion_polynomial(p)
    scale = max(abs(c) for c in poly)
    assert abs(np.polyval(poly, -1.0)) < 1e-12 * scale


def test_bistable_window_has_three_distinct_roots():
    p = bistable_point(ep0=8.0)
    real, resid, cplx = lone_roots(p)
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
        scale = max(abs(c) for c in poly)
        for w in rng.uniform(-3.0, 2.0, size=10):
            direct = cleared_inversion_expression(p, w)
            assert abs(np.polyval(poly, w) - direct) \
                < 1e-12 * scale * max(1.0, abs(w)) ** 3


class _Gaussian:
    """An exact complex rational, for the cleared expression in exact
    arithmetic."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        return _Gaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _Gaussian(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _Gaussian(self.re * other.re - self.im * other.im,
                         self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        return self * _Gaussian(other.re / norm, -other.im / norm)


def _exact_cleared_cubic(p, legacy_field_amplitude=False):
    """The coefficients of ``cleared_inversion_expression`` (with the legacy
    field amplitude if asked), exactly: the expression's definition in exact
    complex rationals at four sample points off its poles, interpolated
    exactly.  Each coefficient must come out real."""
    g = {k: _Gaussian(Fraction(getattr(p, k))) for k in (
        "delta_p0", "delta_c0", "kappa_c0", "g0", "eta", "omega_k0", "ep0", "gamma1_ratio")}
    i, one, two = _Gaussian(0, 1), _Gaussian(1), _Gaussian(2)
    ka = i * g["delta_c0"] + g["kappa_c0"]
    kb = g["kappa_c0"] - i * g["delta_c0"]
    coupling = two * i * g["g0"] * g["g0"]
    samples = []
    for x in range(-3, 4):
        if len(samples) == 4:
            break
        w = _Gaussian(x)
        shift = g["delta_p0"] - two * g["omega_k0"] * g["eta"] * w
        d1 = ka * (shift - i) + coupling * w
        d2 = kb * (shift + i) - coupling * w
        if not (d1.re or d1.im) or not (d2.re or d2.im):
            continue  # a pole
        c1 = two * g["g0"] * w * g["ep0"] / d1
        c2 = two * g["g0"] * w * g["ep0"] / d2
        drive = w if legacy_field_amplitude else g["ep0"]
        a1 = (drive - i * g["g0"] * c1) / ka
        a2 = (drive + i * g["g0"] * c2) / kb
        expr = _Gaussian(0) - g["gamma1_ratio"] * (w + one) - i * g["g0"] * (a1 * c2 - a2 * c1)
        samples.append((Fraction(x), expr * d1 * d2))
    coeffs = [_Gaussian(0)] * 4  # descending
    for j, (xj, yj) in enumerate(samples):
        basis = [Fraction(1)]  # descending coefficients of prod (w - xk) / (xj - xk)
        for k, (xk, _) in enumerate(samples):
            if k != j:
                basis = [a - xk * b for a, b in zip(basis + [0], [0] + basis)]
                basis = [b / (xj - xk) for b in basis]
        coeffs = [c + yj * _Gaussian(b) for c, b in zip(coeffs, basis)]
    assert all(c.im == 0 for c in coeffs)
    return [c.re for c in coeffs]


def test_closed_form_coefficients_are_right_to_rounding(monkeypatch):
    """Both transcriptions' float coefficients are within 1e-15 of the
    largest exact coefficient on the 19 presets and on seeded ``wide_box``
    points; the sampled fit reached 7.2e-13 on such points."""
    points = [presets.get_preset(fid).params for fid in presets.figure_ids()]
    assert len(points) == 19
    points += _wide_box_params(monkeypatch, 1, 150)
    worst = 0.0
    for p in points:
        for legacy in (False, True):
            exact = _exact_cleared_cubic(p, legacy)
            top = max(map(abs, exact))
            built = build_inversion_polynomial(p, legacy_field_amplitude=legacy).tolist()
            worst = max(worst, max(abs(Fraction(c) - e) for c, e in zip(built, exact)) / top)
    assert 0.0 < worst <= 1e-15


@pytest.mark.parametrize("k", [315, 1122, 1342, 1558])
def test_gamma1_scales_a_factor_before_it_is_squared(k):
    # at these extreme points |d1|^2's coefficients overflow where gamma1
    # times them does not: each keeps its one exact branch
    points = script("seeded_points")
    p = list(points.extreme_points(k + 1))[k]
    assert all(np.isfinite(build_inversion_polynomial(p)))
    branches = [{"w0": b.w0} for b in solve_steady_branches(p)]
    assert len(branches) == 1
    assert points._exact_branches(points._exact_cubic(p), branches) == 1


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
    ps = [p.replace(ep0=ep0) for ep0 in np.linspace(0.5, 16.0, 63)]
    counts = np.array([len(_or_raise(found)[0])
                       for found in inversion_roots(map(steady._cubic, ps))])
    assert counts[0] == 1 and counts[-1] == 1
    assert np.any(counts == 3)
    # exactly one contiguous 3-root window
    changes = np.flatnonzero(np.diff((counts == 3).astype(int)))
    assert len(changes) == 2


def test_detuning_window_widens_with_pump():
    grid = np.linspace(-50.0, 10.0, 601)

    def window_width(ep0):
        p = detuning_scan_point(ep0=ep0)
        found = inversion_roots([steady._cubic(p.replace(delta_p0=x)) for x in grid])
        hits = [x for x, roots in zip(grid, found) if len(_or_raise(roots)[0]) == 3]
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


def test_pole_cancellation_roots_are_filtered():
    # at zero pump the cleared cubic has a spurious double root at
    # (delta_c0^2 + kappa_c0^2) / (2 g0^2 kappa_c0) = 0.5, no fixed point
    p = Params(delta_p0=0.1, delta_c0=0.0, g0=1.0, eta=0.01, omega_k0=10.0,
               kappa_c0=1.0, gamma_q0=0.1, ep0=0.0)
    real, _, _ = lone_roots(p)
    assert len(real) == 3 and sum(abs(w - 0.5) < 1e-6 for w in real) == 2
    assert [b.w0 for b in solve_steady_branches(p)] == [-1.0]


def test_a_root_pair_on_a_coefficient_pole_is_dropped():
    # at zero pump the cubic is -gamma1 (w + 1) |d1|^2 = [-8, 8, 8, -8], and
    # d1(w) = 2 - 2w vanishes at w = 1: a real double root on the pole, in
    # the per-root loop of a lone point and in the array pass of a stack.
    # The public fields and Jacobian there are NonFinite, naming the pole
    p = Params(delta_p0=1.0, delta_c0=1.0, g0=1.0, eta=0.1, omega_k0=10.0,
               kappa_c0=1.0, gamma_q0=0.1, ep0=0.0)
    assert build_inversion_polynomial(p).tolist() == [-8.0, 8.0, 8.0, -8.0]
    assert lone_roots(p)[0] == [-1.0, 1.0, 1.0]
    for fn in (steady_fields, mean_field_jacobian):
        with pytest.raises(NonFinite, match="^the root is on a coefficient pole: its fields "
                                            "divide by zero$"):
            fn(p, 1.0)
    assert [b.w0 for b in solve_steady_branches(p)] == [-1.0]
    grid = steady.grid_roots(p, SweepAxis.EP0, [0.0, 0.5])
    assert grid[0][2][0] == [-1.0, 1.0, 1.0] and [b.w0 for b in grid[0][2][3]] == [-1.0]


def test_fields_and_jacobian_raise_the_overflow_that_fails_a_branch():
    # where the branch assembly fails a point for an overflow, the public
    # fields and Jacobian raise its NonFinite (one rule, steady._float_row):
    # a modulus that overflows on finite parts (|td| near 1.5e308), and
    # omega_k0 ** 3 overflowing, which left entry (6, 0) at -inf.  They
    # raise it too where the fields are NaN and q0 is -inf from finite
    # parameters (w0 = 1e308), a root that the solve drops as a failed check
    far = bistable_point().replace(g0=0.01, eta=1.0, omega_k0=1.0, kappa_c0=0.01,
                                   delta_c0=0.01, ep0=1e4)
    message = "a steady branch overflows at these parameters"
    dropped = "all real roots rejected as pole-cancellation artifacts"
    for p, w0, solved in ((far, 1.5e304, (NonFinite, message)),
                          (bistable_point().replace(omega_k0=1e110), -0.5, (NonFinite, message)),
                          (bistable_point(), 1e308, (NoRealRoot, dropped))):
        (entry,) = steady._branch_sets([p], [([w0], [0.0], [])])
        assert (type(entry), str(entry)) == solved
        for fn in (steady_fields, mean_field_jacobian):
            with pytest.raises(NonFinite) as err:
                fn(p, w0)
            assert str(err.value) == message


@pytest.mark.parametrize("p, pair", [
    # extreme point 1009: the sampled build gave w^3 + w^2 + 5.9e-144, whose
    # small pair 2.9e-144 +- 7.7e-73 i counted as a real double root off any
    # fixed point; the exact cubic's c1 = -1.3e193 dominates, and its one
    # real root, near -2e-298, is the one branch
    (Params(delta_p0=-8.0, delta_c0=0.8, g0=1.0, eta=1.6604956758209003e70,
            omega_k0=100.0, kappa_c0=1.35, gamma_q0=0.1, ep0=1.8175440813595347e96,
            delta0=4.3, gamma1_ratio=1.6632078271963144e-107), False),
    # w^3 + w^2 + 6.7e-203: a pair at 3.4e-203 would be non-physical
    (Params(delta_p0=-10.0, delta_c0=-10.0, g0=1.5, eta=6.120607102925072e100,
            omega_k0=10.0, kappa_c0=1.35, gamma_q0=0.1, ep0=5.0, delta0=6.3,
            gamma1_ratio=3.397889724423161e-74), True),
], ids=["p0", "p1"])
def test_a_noise_level_pair_has_real_part_zero(p, pair):
    # a real part below eps times the pair's imaginary part is rounding
    branches = solve_steady_branches(p)
    if pair:
        assert lone_roots(p)[0][1:] == [0.0, 0.0]
        assert [b.w0 for b in branches][1:] == [0.0, 0.0] and len(branches) == 3
    else:
        assert lone_roots(p)[1:] == ([0.0], [])
        assert len(branches) == 1 and -3e-298 < branches[0].w0 < -1e-298
        points = script("seeded_points")
        assert points._exact_branches(points._exact_cubic(p), [{"w0": branches[0].w0}]) == 1
    for b in branches:
        total, passes = _fixed_point_check(p, b.w0)
        assert b.physical and passes and total <= 1e-9


@pytest.mark.parametrize("gamma1_ratio", [1e10, 1e12, 1e14])
def test_dominant_population_decay_keeps_the_ground_state_branch(gamma1_ratio):
    # gamma1 (w0 + 1) cancels at w0 ~ -1: a filter scaled after the
    # cancellation read this correct root as a pole-cancellation artifact
    p = bistable_point(ep0=8.0).replace(gamma1_ratio=gamma1_ratio)
    stable = [b for b in solve_steady_branches(p) if b.stability is Stability.STABLE]
    assert len(stable) == 1 and stable[0].w0 == pytest.approx(-1.0, abs=1e-9)
    assert _scaled_fixed_point_residual(p, stable[0]) <= 1e-9


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
    default = build_inversion_polynomial(p)
    legacy = build_inversion_polynomial(p, legacy_field_amplitude=True)
    assert np.max(np.abs(default - legacy)) > 1e-3 * np.max(np.abs(default))
    real = sorted(r.real for r in np.roots(legacy) if abs(r.imag) < 1e-8)
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
    real, resid, _ = lone_roots(p)
    assert len(real) in (1, 3)
    coeffs = build_inversion_polynomial(p)
    monic = np.abs(coeffs / coeffs[0])
    eps = np.finfo(float).eps
    for w0, r in zip(real, resid):
        floor = 8.0 * eps * float(np.polyval(monic, abs(w0)))
        assert r < max(1e-10, floor)


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
    # the steady state and its Jacobian, nothing of the sideband response
    assert [f.name for f in dataclasses.fields(SteadyBranch)] == \
        ["w0", "a0", "sigma0", "q0", "residual", "stability", "physical", "jacobian"]
    p = bistable_point(ep0=8.0)
    first, second = solve_steady_branches(p), solve_steady_branches(p)
    assert len(first) == 3
    for a, b in zip(first, second):
        assert np.array_equal(a.jacobian, mean_field_jacobian(p, a.w0))
        assert a == b and hash(a) == hash(b) and a.jacobian is not b.jacobian
        # the complex-amplitude generator is a similarity transform of J
        ev_j = np.linalg.eigvals(a.jacobian)
        ev_k = np.linalg.eigvals(sideband_generator(a))
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


@pytest.mark.parametrize("change", [{"ep0": 1e200}, {"g0": 1e160}, {"ep0": 1e155},
                                    {"eta": 3e305}])
def test_overflowing_cubic_raises_non_finite(change):
    with pytest.raises(NonFinite, match="overflows"):
        build_inversion_polynomial(bistable_point().replace(**change))


def test_an_undriven_dot_without_decay_or_coupling_has_no_cubic():
    # gamma1_ratio underflows the (w + 1) |d1|^2 term: every coefficient is 0
    p = Params(delta_p0=0, delta_c0=0, g0=0, eta=0, omega_k0=1, kappa_c0=0.1,
               gamma_q0=0.1, ep0=0, gamma1_ratio=5e-324)
    assert build_inversion_polynomial(p).tolist() == [-0.0, -0.0, -0.0, -0.0]
    with pytest.raises(NoRealRoot) as err:
        solve_steady_branches(p)
    assert str(err.value) == "zero polynomial"


@pytest.mark.parametrize("row", range(4))
def test_a_nan_coefficient_is_non_finite_wherever_it_sits(monkeypatch, row):
    # inf - inf can leave NaN next to finite coefficients: the lone build,
    # a lone solve and a grid's array pass each find it in any position
    closed = steady._closed_form

    def nan_at_row(*args):
        coeffs, factored = closed(*args)
        return tuple(c * np.nan if k == row else c for k, c in enumerate(coeffs)), factored

    monkeypatch.setattr(steady, "_closed_form", nan_at_row)
    with pytest.raises(NonFinite, match="overflows"):
        build_inversion_polynomial(bistable_point())
    with pytest.raises(NonFinite, match="overflows"):
        solve_steady_branches(bistable_point())
    grid = steady.grid_roots(bistable_point(), SweepAxis.EP0, [2.0, 4.0, 6.0])
    assert [str(e) for *_, e in grid] == ["the inversion cubic overflows at these parameters"] * 3
    # and so is any item of inversion_roots with a NaN or an infinity there,
    # alone and in a stack
    monkeypatch.undo()
    items = [tuple(v if k != row else bad for k, v in enumerate((1.0, 2.0, 3.0, 4.0)))
             for bad in (math.nan, math.inf, -math.inf)]
    want = repr(NonFinite("the inversion cubic overflows at these parameters"))
    assert [repr(inversion_roots([c])[0]) for c in items] == [want] * 3
    assert list(map(repr, inversion_roots(items))) == [want] * 3


@pytest.mark.parametrize("ep0, p1, p2", [(81.0, -17.4, -33.3), (36.0, -31.8, -36.2),
                                         (12.0, -38.6, -38.7)])
def test_hysteresis_along_the_pump_detuning(ep0, p1, p2):
    # on preset 2a's grid the traces part exactly at the points strictly
    # between P2 and P1; the window closes as the pump falls
    grid = np.linspace(-50.0, 10.0, 601)
    result = hysteresis_sweep(detuning_scan_point(ep0=ep0), SweepAxis.DELTA_P0, grid)
    assert (result.turning_up, result.turning_down) == pytest.approx((p1, p2))
    down = {r.x: r.w0 for r in result.down}
    assert [r.x for r in result.up if r.w0 != down[r.x]] == \
        [r.x for r in result.up if result.turning_down < r.x < result.turning_up]


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


def _companion_roots(poly):
    """The reference roots: companion ``eigvals`` of the trimmed monic
    polynomial plus one Newton step per root, skipped where |p'| <= 1e-9
    (the root extraction before the closed form)."""
    cn = poly / float(np.max(np.abs(poly)))
    k = 0
    while k < 3 and abs(cn[k]) < 1e-12:
        k += 1
    monic = cn[k:] / cn[k]
    n = len(monic) - 1
    companion = np.eye(n, k=-1)
    companion[0] = -monic[1:]
    roots = np.linalg.eigvals(companion)
    dmonic = np.polyder(monic)
    for i, r in enumerate(roots):
        fv, dv = np.polyval(monic, r), np.polyval(dmonic, r)
        if abs(dv) > 1e-9:
            roots[i] = r - fv / dv
    return roots.tolist(), monic.tolist()


def _long_double_root(monic, root):
    """The root of ``monic`` that Newton's method in long double reaches
    from ``root``."""
    coeffs = [np.longdouble(c) for c in monic]
    x = np.clongdouble(root) if isinstance(root, complex) else np.longdouble(root)
    for _ in range(200):
        value = slope = 0
        for c in coeffs:
            slope = slope * x + value
            value = value * x + c
        if slope == 0 or x - value / slope == x:
            break
        x = x - value / slope
    return x


def _ulps_off(root, monic):
    """The distance of ``root`` from its long-double polish, in ulps of the
    polished root's magnitude."""
    exact = _long_double_root(monic, root)
    return float(abs(np.clongdouble(root) - exact) / np.spacing(float(abs(exact))))


def _real_and_complex(roots):
    real = sorted(r.real for r in roots
                  if abs(r.imag) <= steady.REAL_ROOT_TOL * max(1.0, abs(r.real)))
    cplx = sorted((complex(r) for r in roots
                   if abs(r.imag) > steady.REAL_ROOT_TOL * max(1.0, abs(r.real))),
                  key=lambda z: (z.real, z.imag))
    return real, cplx


def _random_cubics(rng, n):
    for _ in range(n):
        # monic coefficients of the inversion cubic span up to 13 decades
        c = rng.normal(size=4) * 10.0 ** rng.uniform(0.0, 10.0, size=4) \
            * 10.0 ** rng.uniform(-3.0, 3.0)
        yield c
        yield np.poly(rng.uniform(-2.0, 1.0, size=3))  # three real roots
        yield np.concatenate([[0.0], c[1:]])  # trimmed to degree 2
        yield np.concatenate([[1e-14 * abs(c[1])], c[1:]])
        yield np.concatenate([[0.0, 0.0], c[2:]])  # degree 1


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raises."""
    try:
        return fn(*args)
    except QdResponseError as exc:
        return type(exc), str(exc)


def _near_fold_cubics():
    """Preset 2b's cubics within 1e-11 to 1e-3 relative of its two folds in
    ep0, on both sides: a near-double real pair or a near-real complex
    pair."""
    base = presets.get_preset("2b").params
    return [build_inversion_polynomial(base.replace(ep0=fold * (1.0 + side * 10.0 ** -k)))
            for fold in (2.6800384706, 14.3807636539)
            for k in range(3, 12) for side in (-1.0, 1.0)]


def test_closed_form_roots_are_no_less_accurate_than_the_companion_roots():
    rng = np.random.default_rng(2024)
    polys = [np.array([float(v) for v in c]) for c in _random_cubics(rng, 500)]
    folds = _near_fold_cubics()
    assert len(polys) == 2500 and len(folds) == 36
    for poly in polys + folds:
        roots, monic = steady._polished_roots(poly.tolist())
        ref, ref_monic = _companion_roots(poly)
        assert monic == ref_monic
        (real, cplx), (ref_real, ref_cplx) = _real_and_complex(roots), _real_and_complex(ref)
        assert len(real) == len(ref_real), (poly, roots, ref)
        for r, ref_r in zip(real + cplx, ref_real + ref_cplx):
            exact = _long_double_root(monic, ref_r)
            off, ref_off = (abs(np.clongdouble(z) - exact) for z in (r, ref_r))
            assert off <= ref_off + 2 * np.spacing(float(abs(exact))), (poly, r, ref_r)


@pytest.mark.parametrize("roots, real", [
    ([1e-20, -1000 + 1j, -1000 - 1j], 1),  # a real root below eps |a|: Blinn's D side
    ([-3e-15, 50 + 2j, 50 - 2j], 1),
    ([-1e6, 1e-3, 2e-3], 3),  # a small pair beside a large root: Kahan's deflation
    ([-1e6, 1e-3 + 1e-4j, 1e-3 - 1e-4j], 1),
    ([1e4, 1.0, 1e-4], 3),
    ([-0.5, -0.5, -0.5], 3),  # p' == 0 at the triple root
    ([0.0, 0.0, 0.0], 3),
    ([1.0, 2.0, 3.0], 3),
])
def test_roots_of_widely_scaled_cubics_are_within_two_ulps(roots, real):
    found, monic = steady._polished_roots(np.poly(roots).real.tolist())
    assert len(_real_and_complex(found)[0]) == real
    assert max(_ulps_off(r, monic) for r in found) <= 2.0


@pytest.mark.parametrize("coeffs, roots", [
    ((0.0, 1.0, 0.0, 0.0), [0.0, 0.0]),
    ((0.0, 1.0, -3.0, 2.0), [2.0, 1.0]),
    ((0.0, 1.0, 0.0, 1.0), [1j, -1j]),
    ((0.0, 0.0, 2.0, 1.0), [-0.5]),
])
def test_trimmed_cubics_take_the_quadratic_or_linear_form(coeffs, roots):
    assert steady._polished_roots(coeffs)[0] == roots


@pytest.mark.parametrize("coeffs, message", [
    ((0.0, 0.0, 0.0, 0.0), "zero polynomial"),
    ((0.0, 0.0, 0.0, 2.0), "inversion polynomial has no roots"),
    ((1e-13, 1e-14, 0.0, 2.0), "inversion polynomial has no roots"),
])
def test_a_cubic_without_roots_is_no_real_root(coeffs, message):
    assert _outcome(steady._polished_roots, coeffs) == (NoRealRoot, message)
    assert repr(inversion_roots([coeffs])[0]) == repr(NoRealRoot(message))


def test_grid_roots_match_per_point_roots():
    ps = [bistable_point(ep0=x) for x in np.linspace(0.0, 20.0, 81)]
    ps += [detuning_scan_point().replace(delta_p0=x) for x in np.linspace(-50.0, 10.0, 61)]
    found_all = inversion_roots(map(steady._cubic, ps))
    for p, found in zip(ps, found_all):
        assert repr(found) == repr(lone_roots(p))


def _cubic_families(rng, n):
    """``n`` random cubics of each family the root pass must match its lone
    solves on, as tuples: ``_random_cubics``' five, clustered, near-double
    and triple roots, near-real and imaginary complex pairs, magnitudes up
    to 1e+-150, signed zeros, bare cube roots and tiny D-side cubics, about
    1% of which the lone solve refuses; and one whose zero cube root needs
    no quotient."""
    for c in _random_cubics(rng, n):
        yield tuple(c.tolist())
    for _ in range(n):
        r, s = rng.uniform(-2.0, 1.0, size=2)
        z = complex(r, 10.0 ** rng.uniform(-12.0, -4.0))
        for roots in ([r, r * (1.0 + 1e-9), r * (1.0 - 1e-9)], [r, r, s], [r, r, r],
                      [r, r * (1.0 + 10.0 ** rng.uniform(-16.0, -8.0)), s],
                      [z, z.conjugate(), s], [s, 1j * r, -1j * r]):
            yield tuple(np.poly(roots).real.tolist())
        yield tuple((rng.normal(size=4) * 10.0 ** rng.uniform(-150.0, 150.0)).tolist())
        yield tuple(float(v) for v in rng.choice([0.0, -0.0, 1.0, -2.5], size=4))
        # w^3 + c with |c| below 1e-15: the Newton step is skipped, so the
        # root is Cardano's cube root as it stands
        yield 1.0, 0.0, 0.0, float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, -15.0))
        # Cardano's D side with its cube root near or below the underflow
        yield 1.0, 0.0, 10.0 ** rng.uniform(-112.0, -104.0), \
            float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-178.0, -162.0))
    # the D side's t0 == t1 == 5e-324: its cube root is 0, and v = -u
    yield 1.0, 2e-54, 4.2e-108, 1.7e-162


def _traced_lone_answers(monkeypatch, items):
    """Each item's lone answer, ``inversion_roots([item])[0]``; and the
    branches of ``_cubic_roots``, ``_depressed_root`` and ``_pair`` that the
    lone solves of the items' cubics reach."""
    originals = {name: getattr(steady, name) for name in
                 ("_cubic_roots", "_depressed_root", "_pair", "_compensated_horner")}
    calls, seen = [], set()

    def spy(name):
        def traced(*args):
            out = originals[name](*args)
            calls.append((name, args, out))
            return out
        return traced

    def cubic_roots(monic):
        calls.clear()
        _, a, b, c = monic
        big, mid = a / 3.0, b / 3.0
        d_side = big * big * big * c < mid * mid * mid
        try:
            roots = originals["_cubic_roots"](monic)
        except NonFinite:  # from the first _depressed_root, before any call returned
            assert d_side and not calls, monic
            seen.add("Cardano's D side refused")
            raise
        depressed = [args for name, args, _ in calls if name == "_depressed_root"]
        if not depressed:
            seen.add("trigonometric form")
        if depressed and d_side:
            seen.add("Cardano's D side")
        if len(depressed) == 2 or depressed and not d_side:
            seen.add("Cardano's A side")
        for cbar, dbar, scale, disc in depressed:
            seen.add("Cardano's sum" if cbar <= 0.0 else "Cardano's quotient")
            t0 = -math.copysign(scale * math.sqrt(-disc), dbar)
            if t0 - dbar == t0 and 0.5 * t0 == 0.0:
                seen.add("a zero cube root with t0 == t1")
        _, slope = next(out for name, _, out in calls if name == "_compensated_horner")
        if abs(slope) <= 1e-9:
            seen.add("skipped Newton step")
        w0 = roots[0]
        if w0 and w0 * w0 * abs(w0) > abs(c):
            seen.add("Kahan's flip")
        b1, pair = next((args[1], out) for name, args, out in calls if name == "_pair")
        if isinstance(pair[0], complex):
            seen.add("complex pair")
            if pair[0].real == 0.0 and -0.5 * b1 != 0.0:
                seen.add("complex pair with real part 0")
            if abs(pair[0].imag) <= steady.REAL_ROOT_TOL * max(1.0, abs(pair[0].real)):
                seen.add("near-real pair")
        elif pair == [0.0, 0.0]:
            seen.add("q == 0")
        return roots

    with monkeypatch.context() as patched:
        for name in originals:
            patched.setattr(steady, name, cubic_roots if name == "_cubic_roots" else spy(name))
        answers = [inversion_roots([item])[0] for item in items]
    return answers, seen


def _root_bits(answer):
    """An ``inversion_roots`` answer as compared bit for bit: the type and
    message of its error, or its repr and the type of each number."""
    if isinstance(answer, Exception):
        return type(answer), str(answer)
    return repr(answer), [type(v) for part in answer for v in part]


_REFUSED = (NonFinite, "the inversion cubic's closed-form root underflows at these parameters")


def _alone_kind(item, answer):
    """Why the root pass leaves ``item``, whose lone answer is ``answer``, to
    the lone loop; fails on an item that it should have taken."""
    if len(item) == 3:
        return "cofactor"
    if not all(map(math.isfinite, item)):
        return "not finite"
    if max(map(abs, item)) == 0.0:
        return "zero"
    if abs(item[0]) < 1e-12 * max(map(abs, item)):
        return "lead below 1e-12"
    assert _root_bits(answer) == _REFUSED, item
    return "refused"


def test_stacked_roots_match_the_lone_loop_bit_for_bit(monkeypatch):
    """A stack of two or more items takes one array pass over its cubics
    (``steady._roots_pass``), and every item's answer has the repr, the
    number types and the error of its lone solve: on every preset grid,
    three seeded ``wide_box`` stacks, the 2,500 extreme points, the corner
    points, the random-cubic families and a stack of two.  The lanes reach
    every branch of ``_cubic_roots``, ``_depressed_root`` and ``_pair`` and
    the ``RootResidual`` rule, and each kind of item that the pass leaves to
    the lone loop is answered there."""
    points = script("seeded_points")
    rng = np.random.default_rng(35)
    stacks = [cubics for *_, cubics in _preset_grids()]
    stacks += [list(map(steady._cubic, _wide_box_params(monkeypatch, seed, 1500)))
               for seed in (1, 2, 3)]
    stacks.append(list(map(steady._cubic, points.extreme_points())))
    stacks.append([steady._cubic(p) for _, p in points.corner_points()])
    stacks += [list(_cubic_families(rng, 100)) for _ in range(3)]
    stacks.append([steady._cubic(bistable_point()), steady._cubic(detuning_scan_point())])
    stacks.append([(1.0, 0.0, -1.0), (1e-13, 1.0, 2.0, 3.0), (0.0, -0.0, 0.0, 0.0),
                   (math.nan, 1.0, 1.0, 1.0), (1.0, math.inf, 1.0, 1.0), (1.0, 2.0, 3.0, 4.0),
                   (5e-12, 1.0, 2.0, 3.0)])  # a lead just above the pass's 1e-12 gate
    left = []
    roots_pass = steady._roots_pass
    monkeypatch.setattr(steady, "_roots_pass", lambda out: left.append(roots_pass(out)) or left[-1])
    reached, residual, kinds = set(), 0, set()
    for stack in stacks:
        stacked = inversion_roots(stack)
        alone = left[-1]
        lone, seen = _traced_lone_answers(monkeypatch, stack)
        assert list(map(_root_bits, stacked)) == list(map(_root_bits, lone))
        reached |= seen
        residual += sum(isinstance(a, RootResidual)
                        for k, a in enumerate(stacked) if k not in alone)
        kinds |= {_alone_kind(stack[k], lone[k]) for k in alone}
    assert len(left) == len(stacks) and residual > 0
    assert reached == {"trigonometric form", "Cardano's A side", "Cardano's D side",
                       "Cardano's sum", "Cardano's quotient", "skipped Newton step",
                       "Kahan's flip", "q == 0", "complex pair",
                       "complex pair with real part 0", "near-real pair",
                       "Cardano's D side refused", "a zero cube root with t0 == t1"}
    assert kinds == {"cofactor", "not finite", "zero", "lead below 1e-12", "refused"}
    # a cubic whose cube root underflows in Cardano's D side, where -cbar / u
    # would divide by zero, is refused alone and in a stack, whose pass
    # leaves both items to the loop
    refused = (1.0, 0.0, 4.35e-108, 1e-170)
    assert list(map(_root_bits, inversion_roots([refused]))) == [_REFUSED]
    assert list(map(_root_bits, inversion_roots([refused, refused]))) == [_REFUSED] * 2
    assert left[-1] == [0, 1]


def _scaled(exponents):
    return st.builds(math.ldexp, st.floats(-1.0, 1.0), exponents)


#: Finite floats: magnitudes near 1, any magnitude from the subnormals up to
#: 1e308, and signed zeros.
_COEFFICIENTS = st.one_of(_scaled(st.integers(-60, 60)), _scaled(st.integers(-1074, 1023)))


@settings(deadline=None, derandomize=True, max_examples=250)
@given(st.lists(st.tuples(*[_COEFFICIENTS] * 4), min_size=2, max_size=6))
@example([(1.0, 0.0, 4.35e-108, 1e-170), (1.0, 2.0, 3.0, 4.0)])  # a refused item
def test_a_stack_answers_as_its_items_do_alone(stack):
    # the root pass gives each item of a stack its lone answer, bit for bit,
    # its roots or its typed error: no stack raises
    lone = [inversion_roots([item])[0] for item in stack]
    assert list(map(_root_bits, inversion_roots(stack))) == list(map(_root_bits, lone))


def test_roots_are_python_floats_for_any_item_of_floats():
    # an ndarray or a list of floats, numpy's or Python's, answers with the
    # bits and types of the same cubic as a tuple of Python floats, alone
    # and in a stack.  The solver's item is _cubic(p), which at 2b's base
    # (ep0 = 0, where the pump term vanishes) is the cofactor of w + 1; the
    # public build is the whole cubic
    p = presets.get_preset("2b").params
    built = build_inversion_polynomial(p)
    item = tuple(built.tolist())
    assert len(steady._cubic(p)) == 3
    want = _root_bits(inversion_roots([item])[0])
    assert set(want[1]) == {float, complex}
    for c in (built, list(built), built.tolist(), np.array(item)):
        assert _root_bits(inversion_roots([c])[0]) == want
        assert list(map(_root_bits, inversion_roots([c, item, c]))) == [want] * 3


def test_the_root_pass_takes_no_transcendental_from_numpy():
    """The root pass gives each lane the bits of its lone solve only where
    numpy rounds as CPython does.  On an AVX-512 host with numpy 2.4.6,
    ``np.power(x, 1/3)`` differs from CPython's ``x ** (1/3)`` on 15,919 of
    300,000 values and ``np.arctan2`` from ``math.atan2`` on 153, so the
    pass's functions call numpy only for arithmetic, sqrt, abs, copysign,
    ``where``, array construction and ``errstate``; and this numpy's
    elementwise arithmetic is checked against CPython's, with subnormals,
    signed zeros and infinities."""
    tree = ast.parse(pathlib.Path(steady.__file__).read_text(encoding="utf-8"))
    names = {"_compensated_horner", "_per_lane", "_pair_arrays", "_depressed_root_arrays",
             "_cubic_roots_arrays", "_roots_pass"}
    calls = {fn.name: {ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)
                       and re.fullmatch(r"np(\.\w+)+", ast.unparse(node.func))}
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name in names}
    assert set(calls) == names
    assert set().union(*calls.values()) <= {
        "np.sqrt", "np.abs", "np.copysign", "np.where", "np.array", "np.full",
        "np.flatnonzero", "np.errstate"}
    rng = np.random.default_rng(35)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308, math.inf, -math.inf]
    x, y = (np.ldexp(rng.uniform(-1.0, 1.0, 20000), rng.integers(-1074, 1024, 20000))
            for _ in range(2))
    x = np.concatenate((x, np.repeat(special, len(special))))  # every pair of special values
    y = np.concatenate((y, np.tile(special, len(special))))
    xs, ys = x.tolist(), y.tolist()

    def same(got, want):
        want = np.array(want)
        assert (np.isnan(got) == np.isnan(want)).all()
        assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()

    with np.errstate(all="ignore"):
        same(x + y, [a + b for a, b in zip(xs, ys)])
        same(x - y, [a - b for a, b in zip(xs, ys)])
        same(x * y, [a * b for a, b in zip(xs, ys)])
        nonzero = y != 0.0
        same(x[nonzero] / y[nonzero], [a / b for a, b in zip(xs, ys) if b != 0.0])
        same(np.sqrt(abs(x)), [math.sqrt(abs(a)) for a in xs])
        same(np.copysign(x, y), [math.copysign(a, b) for a, b in zip(xs, ys)])
        same(-x, [-a for a in xs])


def test_overflowing_point_raises_at_its_turn_in_a_hysteresis_grid(monkeypatch):
    solved = []
    solve = steady.solve_steady_branches
    monkeypatch.setattr(steady, "solve_steady_branches",
                        lambda p, **kw: solved.append(p.ep0) or solve(p, **kw))
    with pytest.raises(NonFinite) as err:
        hysteresis_sweep(bistable_point(), SweepAxis.EP0, [2.0, 4.0, 1e200, 2e200])
    assert str(err.value) == "the inversion cubic overflows at these parameters"
    # the failing point raises inside its solve; nothing after it runs
    assert solved == [2.0, 4.0, 1e200]


def test_point_without_roots_is_skipped_in_both_traces(monkeypatch):
    rootless_grid_row(monkeypatch, at=4.0)
    result = hysteresis_sweep(bistable_point(), SweepAxis.EP0, [2.0, 4.0, 6.0])
    for trace in (result.up, result.down):
        (row,) = [r for r in trace if r.x == 4.0]
        assert row.branch_id == -1 and row.flags == {Flag.POLE_SKIPPED}
        assert all(r.branch_id >= 0 for r in trace if r.x != 4.0)


def test_hysteresis_extracts_the_roots_once_per_point(monkeypatch):
    # both traces share one cubic and one branch list per grid point: each
    # cubic from its own closed form, not the public build, then each later
    # stage once on the whole grid, the branch rows in one evaluation of the
    # branch-row body on the grid's columns; each trace still asks for its
    # branches at every point
    preset = presets.get_preset("2b")
    kept = sum(len(found[3]) for _, _, found in
               steady.grid_roots(preset.params, preset.axis, preset.grid))
    lone = bistable_point(ep0=8.0)
    real = lone_roots(lone)[0]
    calls = {"build_inversion_polynomial": 0, "_closed_form": 0, "_branch_row": 0,
             "solve_steady_branches": 0, "inversion_roots": 0, "classify_stability": 0}
    for name in calls:
        original = getattr(steady, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(steady, name, counted)
    result = hysteresis_sweep(preset.params, preset.axis, preset.grid)
    n = len(preset.grid)
    assert len(result.up) == len(result.down) == n
    assert kept > n
    assert calls == {"build_inversion_polynomial": 0, "_closed_form": n, "_branch_row": 1,
                     "solve_steady_branches": 2 * n, "inversion_roots": 1,
                     "classify_stability": 1}
    # a lone point runs each stage once, as a stack of one, its cubic from
    # the closed form in Python floats, and the body once per real root, on
    # Python floats
    calls.update(dict.fromkeys(calls, 0))
    branches = steady.solve_steady_branches(lone)
    assert len(branches) == len(real) == 3
    assert calls == {"build_inversion_polynomial": 0, "_closed_form": 1, "_branch_row": 3,
                     "solve_steady_branches": 1, "inversion_roots": 1,
                     "classify_stability": 1}


def _label_alone(jacobian):
    """The stability label from one matrix's own ``eigvals``."""
    top = float(np.max(np.linalg.eigvals(jacobian).real))
    if top < -steady.STABILITY_TOL:
        return Stability.STABLE
    if top > steady.STABILITY_TOL:
        return Stability.UNSTABLE
    return Stability.MARGINAL


def _preset_grid_points():
    """Every point of every inversion preset member's grid."""
    for fid in ("2a", "2b", "3a", "3b"):
        preset = presets.get_preset(fid)
        for _, params in preset.members():
            yield preset, params


def test_stacked_labels_match_each_matrix_bit_for_bit():
    jacobians = [phonon_pole_jacobian(g) for g in (0.0, 1e-13)]
    for preset, params in _preset_grid_points():
        for _, _, found in steady.grid_roots(params, preset.axis, preset.grid):
            if not isinstance(found, Exception):
                jacobians += [b.jacobian for b in found[3]]
    for p in _wide_box_points(np.random.default_rng(5), 400):
        jacobians += [b.jacobian for b in solve_steady_branches(p)]
    np.random.default_rng(6).shuffle(jacobians)
    stack = np.array(jacobians)
    tops = np.linalg.eigvals(stack).real.max(axis=-1)
    alone = np.array([np.max(np.linalg.eigvals(j).real) for j in jacobians])
    assert tops.tobytes() == alone.tobytes()
    labels = classify_stability(stack)
    assert labels == [_label_alone(j) for j in jacobians]
    assert labels == [classify_stability([j])[0] for j in jacobians]
    assert set(labels) == set(Stability)


def _exact_char_poly(jacobian):
    """The ascending coefficients of det(lambda I - J), exactly, by
    Faddeev-LeVerrier in rationals."""
    a = [[Fraction(x) for x in row] for row in jacobian.tolist()]
    n = len(a)
    m = [[Fraction(0)] * n for _ in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        coeffs.append(-sum(sum(a[i][t] * m[t][i] for t in range(n)) for i in range(n)) / k)
    return coeffs[::-1]


def _random_sparse_jacobian(rng):
    """A random matrix with the mean-field Jacobian's sparsity and twins."""
    jac = np.zeros((7, 7))
    read = steady._POLY_READ
    jac.flat[read] = rng.normal(size=len(read)) * 10.0 ** rng.integers(-3, 4)
    jac.flat[steady._POLY_TWIN] = steady._TWIN_SIGN[:, 0] * jac.flat[np.take(read, steady._TWIN_OF)]
    return jac


def test_the_closed_form_is_the_characteristic_polynomial_within_its_bound():
    """``_char_poly`` differs from the exact det(lambda I - J) by less than
    32 eps times its bound, the same expression on absolute values."""
    rng = np.random.default_rng(41)
    preset_jacobians = [b.jacobian for preset, params in _preset_grid_points()
                        for *_, found in steady.grid_roots(params, preset.axis, preset.grid)
                        for b in found[3]]
    jacobians = [preset_jacobians[k] for k in rng.choice(len(preset_jacobians), 12)]
    jacobians += [_random_sparse_jacobian(rng) for _ in range(12)]
    jacobians += [phonon_pole_jacobian(0.0), fold_jacobian()]
    e = np.array(jacobians).reshape(-1, 49).T[steady._POLY_READ]
    n = len(jacobians)
    c = steady._char_poly(np.concatenate((e, abs(e)), axis=1), np.repeat([-1.0, 1.0], n))
    for k, jacobian in enumerate(jacobians):
        exact = _exact_char_poly(jacobian)
        assert exact[7] == c[7, k] == 1.0
        for value, bound, ref in zip(c[:, k].tolist(), c[:, n + k].tolist(), exact):
            assert abs(Fraction(value) - ref) <= 32 * steady._EPS * Fraction(bound)


def _eigvals_spy(monkeypatch):
    """The matrix count of each ``eigvals`` call (``_lapack.eigvals``, which
    every label that takes eigvals calls) from here on."""
    calls, eigvals = [], _lapack.eigvals
    monkeypatch.setattr(_lapack, "eigvals", lambda a: calls.append(len(a)) or eigvals(a))
    return calls


@pytest.mark.parametrize("window", [(2.60, 2.75), (14.3, 14.45), (20.7, 21.0), (129.5, 129.8)])
def test_grid_labels_are_eigvals_labels_around_2b_folds_and_hopf_points(window):
    # 2,001 points of ep0 around 2b's folds (2.680, 14.381) and Hopf points
    # (2.700, 20.875, 129.66), labelled from the characteristic polynomial
    preset = presets.get_preset("2b")
    grid = steady.grid_roots(preset.params, preset.axis, np.linspace(*window, 2001).tolist())
    branches = [b for *_, found in grid for b in found[3]]
    assert len(branches) >= 2001
    assert [b.stability for b in branches] == [_label_alone(b.jacobian) for b in branches]
    assert {b.stability for b in branches} == {Stability.STABLE, Stability.UNSTABLE}


def test_labels_take_eigvals_only_where_the_polynomial_cannot_certify_them(monkeypatch):
    grids = [(params, preset.axis, preset.grid) for preset, params in _preset_grid_points()]
    clean = [[b.stability for *_, found in steady.grid_roots(*grid) for b in found[3]]
             for grid in grids]
    base = np.array([b.jacobian for *_, found in steady.grid_roots(*grids[3])
                     for b in found[3]])
    # built near-margin cases: a phonon pole on and next to the imaginary
    # axis (the Routh column's band), a zero eigenvalue by cancellation (the
    # coefficient bound), and extreme point 92, whose ||J||_F of 1.6e53 is
    # past the 9.1e5 up to which eigvals resolves the margin (the scale rule)
    extreme = list(script("seeded_points").extreme_points(93))[92]
    built = [phonon_pole_jacobian(0.0), phonon_pole_jacobian(1e-13), fold_jacobian(),
             *(b.jacobian for b in solve_steady_branches(extreme))]
    undamped = [bistable_point(ep0).replace(gamma_q0=0.0) for ep0 in np.linspace(0.0, 20.0, 41)]
    undamped = [b.jacobian for found in steady._branch_sets(
        undamped, inversion_roots(map(steady._cubic, undamped))) for b in found[3]]
    dense = np.random.default_rng(43).normal(size=(40, 7, 7))  # not the sparsity
    expected = {name: [_label_alone(j) for j in stack] for name, stack in
                (("base", base), ("built", built), ("undamped", undamped), ("dense", dense))}
    assert expected["built"][:3] == [Stability.MARGINAL] * 3
    calls = _eigvals_spy(monkeypatch)
    # no matrix of the 2a-3b grids takes eigvals
    assert [[b.stability for *_, found in steady.grid_roots(*grid) for b in found[3]]
            for grid in grids] == clean
    assert calls == []
    # each built case does, alone; every label is eigvals' own
    assert classify_stability(np.array([*base, *built])) == expected["base"] + expected["built"]
    assert calls == [len(built)]
    assert classify_stability(np.array(undamped)) == expected["undamped"]
    assert len(undamped) >= steady._POLY_STACK and calls == [len(built)]
    assert classify_stability(dense) == expected["dense"]
    assert calls == [len(built), len(dense)]
    # a non-finite row among finite ones is NonFinite, alone or in a stack
    message = "a steady branch's Jacobian is not finite: no stability label"
    for size in (steady._POLY_STACK - 1, len(base)):
        stack = base[:size].copy()
        stack[5, 0, 0] = np.nan
        labels = classify_stability(stack)
        assert (type(labels[5]), str(labels[5])) == (NonFinite, message)
        assert labels[:5] + labels[6:] == expected["base"][:5] + expected["base"][6:size]


def test_a_jacobian_whose_eigenvalues_do_not_converge_is_typed(monkeypatch):
    grid = [2.0, 4.0, 6.0, 8.0]
    clean = steady.grid_roots(bistable_point(), SweepAxis.EP0, grid)
    base = np.array([b.jacobian for *_, found in clean for b in found[3]])
    failing = {b.jacobian.tobytes() for x, _, found in clean if x == 6.0 for b in found[3]}
    failing |= {b.jacobian.tobytes() for b in solve_steady_branches(bistable_point(6.0))}
    failing.add(phonon_pole_jacobian(0.0).tobytes())
    eigvals = _lapack.eigvals

    def fails_to_converge(a):
        if any(j.tobytes() in failing for j in a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(_lapack, "eigvals", fails_to_converge)
    message = "the eigenvalues of a steady branch's Jacobian did not converge: no stability label"
    with pytest.raises(NoConvergence, match=message):
        solve_steady_branches(bistable_point(6.0))
    faulty = steady.grid_roots(bistable_point(), SweepAxis.EP0, grid)
    assert (type(faulty[2][2]), str(faulty[2][2])) == (NoConvergence, message)
    assert [repr(e) for x, _, e in faulty if x != 6.0] \
        == [repr(e) for x, _, e in clean if x != 6.0]
    with pytest.raises(NoConvergence, match=message):
        hysteresis_sweep(bistable_point(), SweepAxis.EP0, grid)
    # a matrix that takes eigvals from a stack labelled by the polynomial
    stack = np.array([*np.tile(base[:1], (steady._POLY_STACK, 1, 1)), phonon_pole_jacobian(0.0)])
    labels = classify_stability(stack)
    assert labels[:-1] == [_label_alone(base[0])] * steady._POLY_STACK
    assert (type(labels[-1]), str(labels[-1])) == (NoConvergence, message)


def _preset_grids():
    """(params, axis, grid, grid points' params, grid cubics) of every
    inversion preset member."""
    for preset, params in _preset_grid_points():
        ps = [apply_axis(params, preset.axis, x) for x in preset.grid]
        yield params, preset.axis, preset.grid, ps, list(map(steady._cubic, ps))


def _item_bits(item):
    """A ``steady._cubic`` item as compared bit for bit."""
    if isinstance(item, Exception):
        return type(item), str(item)
    return np.array(item).tobytes()


def _solve_bits(p, roots=None):
    """``solve_steady_branches(p, roots=roots)`` as compared bit for bit: the
    type and message of its error, or its repr and each branch's Jacobian
    bytes."""
    try:
        branches = solve_steady_branches(p, roots=roots)
    except QdResponseError as exc:
        return type(exc), str(exc)
    return repr(branches), [b.jacobian.tobytes() for b in branches]


def test_short_or_overflowing_grids_build_each_cubic_alone():
    # at most degree + 1 points; a node whose build raises; ep0**2 overflows
    # where the builds do not (g0 = 1e-200); a vanishing pump, where the
    # cubic is the cofactor of w + 1: every grid entry is its point's lone
    # solve, and an item that is not finite is answered with the type and
    # message of the error the public build raises
    grids = [(bistable_point(), SweepAxis.EP0, [2.0, 4.0]),
             (bistable_point(), SweepAxis.G0, [0.5, 1.0, 2.0]),
             (bistable_point(), SweepAxis.EP0, [2.0, 4.0, 1e200, 2e200]),
             (bistable_point().replace(g0=1e-200), SweepAxis.EP0,
              [1e153, 1.2e154, 1e155, 2e155]),
             (bistable_point(), SweepAxis.EP0, [0.0, 1e-200, 1e-160, 0.5])]
    kinds = []
    for params, axis, xs in grids:
        for _, p, entry in steady.grid_roots(params, axis, xs):
            assert _solve_bits(p, roots=entry) == _solve_bits(p)
            item = steady._cubic(p)
            found = inversion_roots([item])[0]
            if isinstance(found, NonFinite):
                assert _item_bits(found) == _outcome(build_inversion_polynomial, p)
                kinds.append(NonFinite)
            else:
                kinds.append(len(item))
    assert kinds.count(NonFinite) == 2 and kinds.count(3) >= 1 and set(kinds) == {NonFinite, 3, 4}


def test_grid_branches_match_per_point_branches():
    # after the cubic, every grid point has the bits its own grid cubic gets
    # alone, as a stack of one; every branch is a fixed point
    checked = 0
    for params, axis, grid, ps, cubics in _preset_grids():
        found_grid = steady.grid_roots(params, axis, grid)
        for (_, p, found), cubic in zip(found_grid, cubics):
            alone = steady._branch_sets([p], inversion_roots([cubic]))[0]
            if isinstance(found, Exception):
                assert (type(alone), str(alone)) == (type(found), str(found))
                continue
            assert repr(found) == repr(alone)
            for b, ref in zip(found[3], alone[3]):
                assert b.jacobian.tobytes() == ref.jacobian.tobytes()
                assert _scaled_fixed_point_residual(p, b) <= 1e-9
            checked += 1
    assert checked > 1000


def test_grid_kernels_give_the_bits_of_the_public_formulas():
    """Each cubic of a grid or a stack, the closed form in Python floats
    (``steady._cubic``), is ``build_inversion_polynomial``'s; each grid
    Jacobian, written into the stack from its root's fields, is
    ``mean_field_jacobian``."""
    grids = [(p, found) for preset, params in _preset_grid_points()
             for _, p, found in steady.grid_roots(params, preset.axis, preset.grid)]
    wide = list(_wide_box_points(np.random.default_rng(17), 1000))
    grids += zip(wide, steady._branch_sets(
        wide, inversion_roots(map(steady._cubic, wide))))
    jacobians = 0
    for p, found in grids:
        assert _item_bits(steady._cubic(p)) == build_inversion_polynomial(p).tobytes()
        for b in found[3]:
            assert b.jacobian.tobytes() == mean_field_jacobian(p, b.w0).tobytes()
            jacobians += 1
    assert len(grids) > 5000 and jacobians > len(grids)


def _entry_bits(entry):
    """A ``_branch_sets`` entry as compared bit for bit: the type and message
    of its error, or its repr and each branch's Jacobian bytes."""
    if isinstance(entry, Exception):
        return type(entry), str(entry)
    return repr(entry), [b.jacobian.tobytes() for b in entry[3]]


def _root_outcome(p, w0):
    """What a lone solve does with the real root ``w0`` of ``p``: "pole" (its
    fields divide by zero, and ``steady_fields`` names the pole), "overflow"
    (its point is ``NonFinite``), "fails" (the fixed-point check drops it)
    or "kept"."""
    out = [([w0], [0.0], [])]
    kept, _ = steady._loop_rows([p], out)
    if isinstance(out[0], NonFinite):
        return "overflow"
    if kept:
        return "kept"
    try:
        steady_fields(p, w0)
    except NonFinite as exc:
        if "coefficient pole" in str(exc):
            return "pole"
    return "fails"


def test_array_rows_match_the_per_root_loop_bit_for_bit(monkeypatch):
    """A stack's one array pass (``_array_rows``) gives every point what its
    per-root loop gives it as a stack of one, on a seeded wide-box stack,
    on the 2,500 extreme points and on a built case for each path those
    points do not reach; test_grid_branches_match_per_point_branches pins
    the preset grids the same way.  Both evaluate one body,
    ``_branch_row``: this pins its complex quotient and modulus on Python
    floats against those on arrays, the arrays' masks against the lone
    errors, and the pole's precedence over an overflow."""
    calls = []  # the roots of each evaluation of the body on a stack's columns
    body = steady._branch_row
    monkeypatch.setattr(steady, "_branch_row", lambda w, *args: (
        calls.append(len(w)) if isinstance(w, np.ndarray) else None) or body(w, *args))

    def pinned(ps, root_sets):
        stack = steady._branch_sets(ps, root_sets)
        for p, found, entry in zip(ps, root_sets, stack):
            assert _entry_bits(entry) == _entry_bits(steady._branch_sets([p], [found])[0])
        return stack

    wide = list(_wide_box_points(np.random.default_rng(29), 2000))
    pinned(wide, inversion_roots(map(steady._cubic, wide)))
    extreme = list(script("seeded_points").extreme_points())
    extreme_roots = inversion_roots(map(steady._cubic, extreme))
    pinned(extreme, extreme_roots)
    assert len(calls) == 2 and calls[0] > len(wide)
    outcomes = [(i, _root_outcome(p, w0))
                for i, (p, found) in enumerate(zip(extreme, extreme_roots))
                if not isinstance(found, Exception) for w0 in found[0]]
    assert len(outcomes) == calls[1]
    failing = {i for i, outcome in outcomes if outcome == "overflow"}
    # with kappa_c0 > 0 and a pump, no real root of the exact cubic sits on
    # a pole (there C = -4 g0^2 ep0^2 w), and none of the closed form's does
    assert not any(outcome == "pole" for _, outcome in outcomes)
    assert sum(outcome == "fails" and i not in failing for i, outcome in outcomes) == 468
    # each overflow is omega_k0 ** 3's
    assert sum(outcome == "overflow" for _, outcome in outcomes) == 210 and len(failing) == 93
    for i in failing:
        with pytest.raises(OverflowError):
            extreme[i].omega_k0 ** 3
    # at roots set by hand (the assembly takes any root set): abs() that
    # overflows on finite parts (|td| near 1.5e308), and abs() infinite on
    # one infinite part of td, its imaginary then its real part, which does
    # not raise but leaves r_s NaN from finite fields; a root on a pole where
    # omega_k0 ** 3 overflows, dropped before the overflow; real roots whose
    # r_q alone is NaN, where 2 eta omega_k0 ** 3 overflows but omega_k0 ** 3
    # does not; the double root on the pole of an undriven point, whose
    # ground state stays; and a root whose fields are NaN, not from finite
    # inputs, where omega_k0 ** 3 overflows.  Each overflow, raised or not,
    # is NonFinite.
    far = bistable_point().replace(g0=0.01, eta=1.0, omega_k0=1.0, kappa_c0=0.01,
                                   delta_c0=0.01, ep0=1e4)
    pole = Params(delta_p0=2.0, delta_c0=0.0, g0=1.0, eta=2.0 ** -400,
                  omega_k0=2.0 ** 400, kappa_c0=2.0, gamma_q0=0.1, ep0=1.0)
    tw_overflows = bistable_point().replace(omega_k0=5e102, eta=1.0)
    undriven = Params(delta_p0=1.0, delta_c0=1.0, g0=1.0, eta=0.1, omega_k0=10.0,
                      kappa_c0=1.0, gamma_q0=0.1, ep0=0.0)
    built = [(bistable_point(), None), (far, 1.5e304), (far, 1.785e304),
             (far.replace(delta_c0=0.012), 2e304), (pole, 1.0), (tw_overflows, None),
             (undriven, None), (bistable_point().replace(omega_k0=1e110), 1e300)]
    stack = pinned([p for p, _ in built], [
        lone_roots(p) if w0 is None else ([w0], [0.0], []) for p, w0 in built])
    assert [type(entry) for entry in stack] == \
        [tuple, NonFinite, NonFinite, NonFinite, NoRealRoot, NonFinite, tuple, NonFinite]
    overflows = "a steady branch overflows at these parameters"
    assert str(stack[5]) == overflows
    assert stack[6][0] == [-1.0, 1.0, 1.0] and [b.w0 for b in stack[6][3]] == [-1.0]
    assert _root_outcome(pole, 1.0) == "pole"
    assert [_root_outcome(undriven, w0) for w0 in stack[6][0]] == ["kept", "pole", "pole"]
    with pytest.raises(NonFinite, match=overflows):
        solve_steady_branches(tw_overflows)
    # the same overflow on a grid: every point of an ep0 grid through it
    grid = steady.grid_roots(tw_overflows, SweepAxis.EP0, [2.0, 4.0, 6.0, 8.0])
    assert [(type(e), str(e)) for *_, e in grid] == [(NonFinite, overflows)] * 4
    pinned([p for _, p, _ in grid], [lone_roots(p) for _, p, _ in grid])
    # a non-finite kept Jacobian sends the stack to the matrix-by-matrix labels
    error, message = faulty_jacobian(monkeypatch, "non_finite", at=6.0)
    ps = [bistable_point(ep0) for ep0 in (4.0, 6.0, 8.0)]
    stack = pinned(ps, [lone_roots(p) for p in ps])
    assert (type(stack[1]), str(stack[1])) == (error, message)
    assert all(isinstance(entry, tuple) for entry in (stack[0], stack[2]))


def test_float_and_array_quotient_and_modulus_are_cpythons():
    """The branch-row body's complex quotient and modulus, on Python floats
    and on arrays, give CPython's bits on every pair of special parts, and
    the arrays' masks mark where the floats raise; only a NaN part's modulus
    is ``math.hypot``'s, since CPython's reads a stale errno there."""
    special = [0.0, -0.0, 1.5, -2.0, 1e-310, 1e308, -1e308, math.inf, -math.inf, math.nan]
    parts = [(x, y) for x in special for y in special]

    def outcome(f, *args):
        try:
            return repr(f(*args))
        except ArithmeticError as exc:
            return type(exc).__name__

    pairs = [(a, b) for a in parts for b in parts]
    quotients = [outcome(lambda a, b: complex(*steady._div_floats(a, b)), a, b) for a, b in pairs]
    assert quotients == [outcome(lambda a, b: complex(*a) / complex(*b), a, b) for a, b in pairs]
    on_pole = np.zeros(len(pairs), bool)
    with np.errstate(all="ignore"):
        re, im = steady._div(*(np.array(column).T for column in zip(*pairs)), on_pole)
    assert [q == "ZeroDivisionError" for q in quotients] == on_pole.tolist()
    assert [repr(complex(x, y)) for x, y, pole in zip(re, im, on_pole) if not pole] == \
        [q for q in quotients if q != "ZeroDivisionError"]
    moduli = [outcome(steady._abs_floats, z) for z in parts]
    assert [m for m, z in zip(moduli, parts) if z[0] == z[0] and z[1] == z[1]] == \
        [outcome(abs, complex(*z)) for z in parts if z[0] == z[0] and z[1] == z[1]]
    overflow = np.zeros(len(parts), bool)
    with np.errstate(all="ignore"):
        modulus = steady._abs(np.array(parts).T, overflow)
    assert [m == "OverflowError" for m in moduli] == overflow.tolist()
    assert [repr(m) for m, o in zip(modulus.tolist(), overflow) if not o] == \
        [m for m in moduli if m != "OverflowError"]


@pytest.mark.parametrize("fault", ["overflow", "non_finite"])
def test_failing_branch_raises_at_its_turn_in_a_hysteresis_grid(monkeypatch, fault):
    grid = [2.0, 4.0, 6.0, 8.0]
    clean = steady.grid_roots(bistable_point(), SweepAxis.EP0, grid)
    error, message = faulty_jacobian(monkeypatch, fault, at=6.0)
    faulty = steady.grid_roots(bistable_point(), SweepAxis.EP0, grid)
    # the other points keep their branches and labels
    assert [repr(e) for x, _, e in faulty if x != 6.0] \
        == [repr(e) for x, _, e in clean if x != 6.0]
    solved = []
    solve = steady.solve_steady_branches
    monkeypatch.setattr(steady, "solve_steady_branches",
                        lambda p, **kw: solved.append(p.ep0) or solve(p, **kw))
    with pytest.raises(error) as err:
        hysteresis_sweep(bistable_point(), SweepAxis.EP0, grid)
    assert str(err.value) == message
    assert solved == [2.0, 4.0, 6.0]


def test_a_point_that_overflows_at_a_later_root_keeps_no_earlier_row(monkeypatch):
    # the first root's Jacobian is non-finite and the second one overflows:
    # the point is the overflow's NonFinite, and its non-finite first row
    # does not send the stack to the matrix-by-matrix labels
    body = steady._branch_row
    seen = []

    def faulty(w, dp, dc, kc, g0, eta, ep0, *rest):
        *row, entries = body(w, dp, dc, kc, g0, eta, ep0, *rest)
        at = np.flatnonzero(ep0 == 6.0)
        seen.extend(w[at].tolist())
        first, second = (np.arange(len(w)) == k for k in at[:2])
        rest[-1]((1.5e308 * second, 1.5e308 * second))  # the second root's modulus overflows
        return (*row, [np.where(first, np.nan, e) for e in entries])

    grid = [2.0, 4.0, 6.0, 8.0]
    clean = steady.grid_roots(bistable_point(), SweepAxis.EP0, grid)
    monkeypatch.setattr(steady, "_branch_row", faulty)
    labels = steady.classify_stability
    stacks = []
    monkeypatch.setattr(steady, "classify_stability",
                        lambda stack: stacks.append(len(stack)) or labels(stack))
    faulty_grid = steady.grid_roots(bistable_point(), SweepAxis.EP0, grid)
    assert seen == clean[2][2][0]  # the point's three real roots, in one pass
    error = faulty_grid[2][2]
    assert type(error) is NonFinite
    assert str(error) == "a steady branch overflows at these parameters"
    assert [repr(e) for x, _, e in faulty_grid if x != 6.0] \
        == [repr(e) for x, _, e in clean if x != 6.0]
    assert stacks == [7]


def _fixed_point_check(p, w0):
    """(total, passes) of the fixed-point check of ``steady._branch_row`` at
    the root ``w0`` of ``p``, on Python floats: the sum of the four scaled
    residuals, and whether each is within the filter's bound."""
    return steady._branch_row(w0, *steady._row_columns(p), steady._div_floats,
                              steady._abs_floats)[3:5]


def _scaled_fixed_point_residual(p, branch):
    """Largest mean-field right-hand side component at the branch, each
    scaled by the magnitudes of the terms that make it up."""
    state = steady_state_vector(branch)
    w, sx, sy, au, av, q, _ = state
    g0, shift = p.g0, abs(p.delta_p0 + q)
    scales = (
        p.gamma1_ratio * (abs(w) + 1.0) + 2.0 * g0 * (abs(av * sx) + abs(au * sy)),
        abs(sx) + shift * abs(sy) + 2.0 * g0 * abs(av * w),
        abs(sy) + shift * abs(sx) + 2.0 * g0 * abs(au * w),
        p.kappa_c0 * abs(au) + abs(p.delta_c0 * av) + g0 * abs(sy) + p.ep0,
        p.kappa_c0 * abs(av) + abs(p.delta_c0 * au) + g0 * abs(sx),
        1.0,
        p.omega_k0 ** 2 * abs(q) + 2.0 * p.eta * p.omega_k0 ** 3 * abs(w),
    )
    return max(abs(r) / (s if s > 0.0 else 1.0)
               for r, s in zip(mean_field_rhs(p, state), scales))


#: Points where an absolute 1e-10 bound on the monic residual rejected roots
#: whose backward error is below one ulp (monic coefficients up to 1e13).
_ACCURATE_ROOTS_ABOVE_1E_10 = [
    Params(delta_p0=47.93004493799832, delta_c0=-14.798732794666822,
           g0=0.025646914707104784, eta=0.05761459948615799,
           omega_k0=0.34057656563856675, kappa_c0=5.690467840147277,
           gamma_q0=0.10303331839179149, ep0=84.95461788014305,
           gamma1_ratio=1.0506112513777615),
    Params(delta_p0=-17.669494919020188, delta_c0=15.590822756453605,
           g0=1.1959870736314615, eta=0.16169226205587417,
           omega_k0=0.5879428765026252, kappa_c0=0.14257446152688671,
           gamma_q0=0.04924132097896872, ep0=225.82568929170966,
           gamma1_ratio=1.2688962990477355),
    Params(delta_p0=-39.62715211071463, delta_c0=15.075102635930975,
           g0=1.8475069953344891, eta=0.17325089996913678,
           omega_k0=1.2087048857017695, kappa_c0=0.2929407620061673,
           gamma_q0=0.058443625897658294, ep0=273.8993134708312,
           gamma1_ratio=1.7416916638036766),
    Params(delta_p0=47.71437173645681, delta_c0=12.751173806088325,
           g0=0.17285564514524898, eta=0.0872064511790428,
           omega_k0=0.1272879365635817, kappa_c0=0.31900968136484237,
           gamma_q0=0.02674438087758234, ep0=180.35862459988837,
           gamma1_ratio=1.2636369225207857),
    Params(delta_p0=14.176486118345636, delta_c0=17.354340825627034,
           g0=1.092356666589538, eta=0.5675073826473506,
           omega_k0=0.1348940313085748, kappa_c0=0.1728597409225734,
           gamma_q0=0.41750687782636875, ep0=172.59639880592854,
           gamma1_ratio=1.8929433832648224),
    Params(delta_p0=29.94150052583828, delta_c0=17.654212691408524,
           g0=1.2829182573232645, eta=0.043670861754497636,
           omega_k0=1.8864416686998176, kappa_c0=0.677541909204274,
           gamma_q0=0.07356997600745516, ep0=29.130632177853155,
           gamma1_ratio=2.737284993455501),
]


def _wide_box_points(rng, n):
    for _ in range(n):
        yield Params(
            delta_p0=rng.uniform(-50.0, 50.0), delta_c0=rng.uniform(-20.0, 20.0),
            g0=rng.uniform(0.0, 20.0), eta=rng.uniform(0.0, 1.0),
            omega_k0=float(np.exp(rng.uniform(np.log(0.1), np.log(200.0)))),
            kappa_c0=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
            gamma_q0=float(np.exp(rng.uniform(np.log(0.01), np.log(1.0)))),
            ep0=rng.uniform(0.0, 300.0), gamma1_ratio=rng.uniform(1.0, 3.0))


def test_wide_box_roots_are_accepted_and_are_fixed_points():
    points = [*_ACCURATE_ROOTS_ABOVE_1E_10,
              *_wide_box_points(np.random.default_rng(11), 2000)]
    for p in points:
        for b in solve_steady_branches(p):  # no RootResidual
            assert _scaled_fixed_point_residual(p, b) <= 1e-9


def test_residual_bound_is_the_larger_of_the_target_and_the_noise_floor():
    # monic coefficients near 1e13: the correctly rounded root's residual is
    # above RESIDUAL_BOUND but within the rounding noise of evaluating there
    monic = np.poly([0.3, -1e13, -3.0]).tolist()
    root = float(_long_double_root(monic, 0.3))
    real, resid, cplx = steady._split_roots([root], monic)
    assert real == [root] and resid[0] > steady.RESIDUAL_BOUND and cplx == []
    with pytest.raises(RootResidual, match="exceeds"):
        steady._split_roots([root * (1.0 + 1e-6)], monic)


def _wide_box_params(monkeypatch, seed, n):
    """``n`` seeded points of the benchmark's ``wide_box`` workload."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    from workloads import wide_box_params

    rng = random.Random(seed)
    return [wide_box_params(rng) for _ in range(n)]


def _response_preset_points():
    """Every member of every response preset (a detuning axis)."""
    return [p for fid in presets.figure_ids()
            for preset in [presets.get_preset(fid)]
            if preset.axis in (SweepAxis.DELTA0, SweepAxis.DELTA_S0)
            for _, p in preset.members()]


def test_branches_are_filled_as_their_init_builds_them(monkeypatch):
    """Each ``SteadyBranch`` of ``_branch_sets`` equals, hashes and prints as
    ``SteadyBranch(**fields)`` of its own fields, lists them in field order
    and stays frozen."""
    names = [f.name for f in dataclasses.fields(SteadyBranch)]
    ps = _response_preset_points() + _wide_box_params(monkeypatch, 29, 500)
    root_sets = inversion_roots(map(steady._cubic, ps))
    branches = [b for found in steady._branch_sets(ps, root_sets)
                if not isinstance(found, Exception) for b in found[3]]
    assert len(branches) > 500
    for b in branches:
        assert list(vars(b)) == names
        built = SteadyBranch(**vars(b))
        assert b == built and hash(b) == hash(built) and repr(b) == repr(built)
        assert list(vars(built)) == names
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.w0 = 0.0


def test_row_flags_are_three_shared_sets():
    branch = solve_steady_branches(bistable_point(ep0=8.0))[0]
    want = {(Stability.STABLE, True): frozenset(),
            (Stability.STABLE, False): frozenset({Flag.NON_PHYSICAL})}
    for stability in Stability:
        for physical in (True, False):
            b = dataclasses.replace(branch, stability=stability, physical=physical)
            flags = steady.row_flags(b)
            assert flags == want.get((stability, physical),
                                     frozenset({Flag.UNSTABLE, Flag.NON_PHYSICAL}))
            assert flags is steady.row_flags(dataclasses.replace(b))
            assert any(flags is shared for shared in (
                steady._NO_FLAGS, steady._NON_PHYSICAL_FLAGS, steady._UNSTABLE_FLAGS))


@pytest.mark.parametrize("field", ["gamma1_ratio", "delta_p0", "delta_c0", "eta"])
def test_a_nan_in_any_one_equation_fails_the_fixed_point_check(field):
    # each field enters one of the four scaled equations only; a NaN there
    # is a failed check wherever max() would have skipped it
    p = bistable_point(ep0=8.0)
    b = solve_steady_branches(p)[0]
    total, passes = _fixed_point_check(p, b.w0)
    assert total < 1e-9 and passes
    nan = p.replace(**{field: float("nan")})
    total, passes = _fixed_point_check(nan, b.w0)
    assert total != total and not passes
    # a NaN from a NaN parameter is no overflow: the root is dropped
    (entry,) = steady._branch_sets([nan], [lone_roots(p)])
    assert type(entry) is NoRealRoot


def test_a_nan_modulus_is_no_overflow_whatever_errno_holds():
    # shift = delta_p0 - 2 omega_k0 eta w overflows at this hand-set root, so
    # its fields are NaN, a failed check on a lone point and on a stack.
    # CPython's abs of a complex with a NaN part raises OverflowError when
    # errno still holds ERANGE from an earlier call (here a caught **
    # overflow; omega_k0 = 1.0, whose powers leave errno as it is)
    p = bistable_point().replace(omega_k0=1.0, eta=1e308)
    roots = ([3.0], [0.0], [])
    with pytest.raises(OverflowError):
        10.0 ** 400
    (entry,) = steady._branch_sets([p], [roots])
    assert type(entry) is NoRealRoot
    assert [type(e) for e in steady._branch_sets([p, p], [roots, roots])] == [NoRealRoot] * 2
