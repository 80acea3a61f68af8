import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdresponse import presets, steady
from qdresponse.errors import InvalidGrid, NonFinite, NoRealRoot, QdResponseError, _or_raise
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
    lone_roots,
    phonon_pole_jacobian,
    rootless_grid_row,
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
    counts = np.array([len(_or_raise(found)[0]) for found in inversion_roots(ps)])
    assert counts[0] == 1 and counts[-1] == 1
    assert np.any(counts == 3)
    # exactly one contiguous 3-root window
    changes = np.flatnonzero(np.diff((counts == 3).astype(int)))
    assert len(changes) == 2


def test_detuning_window_widens_with_pump():
    grid = np.linspace(-50.0, 10.0, 601)

    def window_width(ep0):
        p = detuning_scan_point(ep0=ep0)
        found = inversion_roots([p.replace(delta_p0=x) for x in grid])
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


def test_sample_point_on_coefficient_pole_is_resampled(monkeypatch):
    # d1 vanishes at the default sample point w = 1 for these points: exactly
    # for the first, and to the rounding of sqrt(0.5)^2 for the second
    # (delta_p0 = 2 omega_k0 eta, g0^2 = 1/2); construction must shift the
    # samples once (one new fit matrix), reproduce the cleared expression and
    # give fixed points
    fits = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: fits.append(a) or inv(a))
    for p in (Params(delta_p0=1.0, delta_c0=1.0, g0=1.0, eta=0.1, omega_k0=10.0,
                     kappa_c0=1.0, gamma_q0=0.1, ep0=2.0),
              Params(delta_p0=2.0, delta_c0=0.0, g0=0.5 ** 0.5, eta=0.1,
                     omega_k0=10.0, kappa_c0=1.0, gamma_q0=0.1, ep0=2.0)):
        d1, _ = steady._denominators(p, 1.0)
        assert abs(d1) < 1e-15
        fits.clear()
        poly = build_inversion_polynomial(p)
        assert len(fits) == 1
        scale = max(abs(c) for c in poly)
        for w in (-1.7, -0.4, 0.3, 1.9):
            assert abs(np.polyval(poly, w) - cleared_inversion_expression(p, w)) \
                < 1e-11 * scale
        branches = solve_steady_branches(p)
        assert branches
        for b in branches:
            assert _scaled_fixed_point_residual(p, b) <= 1e-12


@pytest.mark.parametrize("gap, shifted", [(1.5e-11, True), (3e-11, False)])
def test_pole_check_scale_counts_the_coupling(monkeypatch, gap, shifted):
    # at w = 1 both denominators are +-i (2 g0^2 - kappa_c0), |d1| = gap; the
    # pole check's scale there is (1 + kappa_c0) + 2 g0^2 = 101 + 100, of
    # which the coupling term 2 g0^2 |w| is nearly half (at a pole it is
    # never more).  A gap of 1.5e-11 is 7.5e-14 of that scale, a pole, but
    # 1.5e-13 of the scale without the coupling term; 3e-11 is 1.5e-13 of
    # it, no pole
    fits = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: fits.append(a) or inv(a))
    p = Params(delta_p0=0.0, delta_c0=0.0, g0=((100.0 + gap) / 2.0) ** 0.5,
               eta=0.0, omega_k0=10.0, kappa_c0=100.0, gamma_q0=0.1, ep0=2.0)
    d1, d2 = steady._denominators(p, 1.0)
    assert abs(d1) == abs(d2) and abs(abs(d1) / gap - 1.0) < 1e-3
    poly = build_inversion_polynomial(p)
    assert len(fits) == (1 if shifted else 0)
    scale = max(abs(c) for c in poly)
    for w in (-1.7, -0.4, 0.3, 1.9):
        assert abs(np.polyval(poly, w) - cleared_inversion_expression(p, w)) \
            < 1e-11 * scale


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


def _polished_alone(poly):
    """``steady._polished_root_sets`` on ``poly`` alone, a stack of one."""
    return _or_raise(steady._polished_root_sets([poly])[0])


def _polished_roots_per_root(poly):
    """The per-root Newton polish that ``_polished_root_sets`` does as array
    arithmetic; kept as the bit-for-bit reference."""
    cn = poly / float(np.max(np.abs(poly)))
    k = 0
    while k < 3 and abs(cn[k]) < 1e-12:
        k += 1
    monic = cn[k:] / cn[k]
    roots = steady._companion_roots(monic)
    dmonic = np.polyder(monic)
    for i, r in enumerate(roots):
        fv = np.polyval(monic, r)
        dv = np.polyval(dmonic, r)
        if abs(dv) > 1e-9:
            roots[i] = r - fv / dv
    return roots, monic


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


@pytest.mark.parametrize("coeffs", [
    (1.0, 1.5, 0.75, 0.125),  # (w + 0.5)^3: p' ~ 1e-10 at the computed roots
    (1.0, 0.0, 0.0, 0.0),  # w^3: p' == 0 exactly
    (0.0, 1.0, 0.0, 0.0),  # w^2
    (1.0, -6.0, 11.0, -6.0),  # all-real eigenvalues: a float root array
    (0.0, 0.0, 2.0, 1.0),
])
def test_array_polish_matches_per_root_loop_on_special_cubics(coeffs):
    poly = np.array(coeffs)
    (roots, monic), (ref, ref_monic) = _polished_alone(poly), \
        _polished_roots_per_root(poly)
    assert roots.dtype == ref.dtype and roots.tobytes() == ref.tobytes()
    assert monic.tobytes() == ref_monic.tobytes()


def test_array_polish_matches_per_root_loop_bit_for_bit():
    rng = np.random.default_rng(2024)
    kinds = set()
    for c in _random_cubics(rng, 500):
        poly = np.array([float(v) for v in c])
        roots, monic = _polished_alone(poly)
        ref, ref_monic = _polished_roots_per_root(poly)
        assert roots.dtype == ref.dtype and roots.tobytes() == ref.tobytes()
        assert monic.tobytes() == ref_monic.tobytes()
        kinds.add((roots.dtype.kind, len(monic)))
    assert kinds == {("f", 2), ("f", 3), ("c", 3), ("f", 4), ("c", 4)}


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raises."""
    try:
        return fn(*args)
    except QdResponseError as exc:
        return type(exc), str(exc)


def test_stacked_roots_match_each_point_bit_for_bit():
    rng = np.random.default_rng(7)
    polys = [np.array([float(v) for v in c]) for c in _random_cubics(rng, 300)]
    polys += [np.array([0.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 2.0])]
    rng.shuffle(polys)  # degrees and root dtypes interleaved in one call
    kinds = set()
    for poly, found in zip(polys, steady._polished_root_sets(polys)):
        alone = _outcome(_polished_alone, poly)
        if isinstance(found, Exception):
            assert alone == (NoRealRoot, str(found))
            continue
        (roots, monic), (ref, ref_monic) = found, alone
        assert roots.dtype == ref.dtype and roots.tobytes() == ref.tobytes()
        assert monic.tobytes() == ref_monic.tobytes()
        assert repr(_outcome(steady._split_roots, roots, monic)) \
            == repr(_outcome(steady._split_roots, ref, ref_monic))
        kinds.add((roots.dtype.kind, len(monic)))
    assert kinds == {("f", 2), ("f", 3), ("c", 3), ("f", 4), ("c", 4)}


def test_grid_roots_match_per_point_roots():
    ps = [bistable_point(ep0=x) for x in np.linspace(0.0, 20.0, 81)]
    ps += [detuning_scan_point().replace(delta_p0=x) for x in np.linspace(-50.0, 10.0, 61)]
    for p, found in zip(ps, inversion_roots(ps)):
        assert repr(found) == repr(lone_roots(p))


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
    # both traces share one cubic and one branch list per grid point, the
    # grid's cubics come from its two end builds (ep0 axis), and each stage
    # runs once on the whole grid; each trace still asks for its branches at
    # every point
    preset = presets.get_preset("2b")
    kept = sum(len(found[3]) for _, _, found in
               steady.grid_roots(preset.params, preset.axis, preset.grid))
    calls = {"build_inversion_polynomial": 0, "_jacobian_entries": 0,
             "solve_steady_branches": 0, "inversion_roots": 0,
             "_root_sets": 0, "classify_stability": 0}
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
    assert calls == {"build_inversion_polynomial": 2, "_jacobian_entries": kept,
                     "solve_steady_branches": 2 * n, "inversion_roots": 0,
                     "_root_sets": 1, "classify_stability": 1}
    # a lone point runs each stage once, as a stack of one
    calls.update(dict.fromkeys(calls, 0))
    branches = steady.solve_steady_branches(bistable_point(ep0=8.0))
    assert calls == {"build_inversion_polynomial": 1,
                     "_jacobian_entries": len(branches),
                     "solve_steady_branches": 1, "inversion_roots": 1,
                     "_root_sets": 1, "classify_stability": 1}


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


def _preset_grids():
    """(params, axis, grid, grid points' params, grid cubics) of every
    inversion preset member."""
    for preset, params in _preset_grid_points():
        ps = [apply_axis(params, preset.axis, x) for x in preset.grid]
        yield (params, preset.axis, preset.grid, ps,
               steady._grid_cubics(ps, preset.axis, preset.grid))


#: Bound on a grid cubic's departure from its point's own build, relative to
#: the build's largest coefficient.  The departure is the build's own
#: rounding (interpolating the node builds in long double moves the grid
#: cubics by at most 8.1e-15): it reached 1.6e-15 on the preset grids and
#: 7.9e-13 (ep0), 1.3e-12 (delta_p0) and 1.9e-12 (g0) on 1,500 seeded
#: random bases per axis.  A wrong entry in ``_AXIS_BASIS`` departs by 30 or
#: more.
_GRID_CUBIC_TOL = 1e-11


def test_grid_cubics_match_per_point_builds():
    grids = [grid[:3] for grid in _preset_grids()]
    axes = {SweepAxis.EP0: np.linspace(0.0, 300.0, 41),
            SweepAxis.DELTA_P0: np.linspace(-50.0, 50.0, 41),
            SweepAxis.G0: np.linspace(0.0, 20.0, 41)}
    for axis, xs in axes.items():
        for k, p in enumerate(_wide_box_points(np.random.default_rng(23), 150)):
            grids.append((p, axis, tuple(xs[::-1] if k % 2 else xs)))  # either order
    worst = 0.0
    for params, axis, xs in grids:
        ps = [apply_axis(params, axis, x) for x in xs]
        cubics = steady._grid_cubics(ps, axis, xs)
        for p, cubic in zip(ps, cubics):
            ref = build_inversion_polynomial(p)
            worst = max(worst, float(np.abs(cubic - ref).max() / np.abs(ref).max()))
        # each node's row is its own build
        for k in (0, len(xs) - 1):
            assert cubics[k].tobytes() == build_inversion_polynomial(ps[k]).tobytes()
    assert 0.0 < worst <= _GRID_CUBIC_TOL


def test_short_or_overflowing_grids_build_each_cubic_alone():
    # at most degree + 1 points; a node whose build raises; ep0**2 overflows
    # where the builds do not (g0 = 1e-200): every row is its own build, or
    # the type and message of the error the build raises
    grids = [(bistable_point(), SweepAxis.EP0, [2.0, 4.0]),
             (bistable_point(), SweepAxis.G0, [0.5, 1.0, 2.0]),
             (bistable_point(), SweepAxis.EP0, [2.0, 4.0, 1e200, 2e200]),
             (bistable_point().replace(g0=1e-200), SweepAxis.EP0,
              [1e153, 1.2e154, 1e155, 2e155])]
    errors = 0
    for params, axis, xs in grids:
        ps = [apply_axis(params, axis, x) for x in xs]
        for cubic, p in zip(steady._grid_cubics(ps, axis, xs), ps):
            alone = _outcome(build_inversion_polynomial, p)
            if isinstance(cubic, Exception):
                assert (type(cubic), str(cubic)) == alone
                errors += 1
            else:
                assert cubic.tobytes() == alone.tobytes()
    assert errors == 2


def test_grid_branches_match_per_point_branches():
    # after the cubic, every grid point has the bits its own grid cubic gets
    # alone, as a stack of one; every branch is a fixed point
    checked = 0
    for params, axis, grid, ps, cubics in _preset_grids():
        found_grid = steady.grid_roots(params, axis, grid)
        for (_, p, found), cubic in zip(found_grid, cubics):
            alone = steady._branch_sets([p], steady._root_sets([cubic]))[0]
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
    """Each cubic, built from its samples' denominators computed once, is
    the interpolation of ``cleared_inversion_expression``; each grid
    Jacobian, written into the stack from its root's fields, is
    ``mean_field_jacobian``."""
    def interpolated(p):
        return (steady._VANDER_INV @ [cleared_inversion_expression(p, x)
                                      for x in steady._SAMPLES]).real

    grids = [(p, found) for preset, params in _preset_grid_points()
             for _, p, found in steady.grid_roots(params, preset.axis, preset.grid)]
    wide = list(_wide_box_points(np.random.default_rng(17), 1000))
    grids += zip(wide, steady._branch_sets(wide, inversion_roots(wide)))
    jacobians = 0
    for p, found in grids:
        assert build_inversion_polynomial(p).tobytes() == interpolated(p).tobytes()
        for b in found[3]:
            assert b.jacobian.tobytes() == mean_field_jacobian(p, b.w0).tobytes()
            jacobians += 1
    assert len(grids) > 5000 and jacobians > len(grids)


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
    entries = steady._jacobian_entries
    seen = []

    def faulty(p, w0, *fields):
        if p.ep0 != 6.0:
            return entries(p, w0, *fields)
        seen.append(w0)
        if len(seen) == 1:
            return (np.nan,) * 49
        return entries(p.replace(omega_k0=1e110), w0, *fields)

    grid = [2.0, 4.0, 6.0, 8.0]
    clean = steady.grid_roots(bistable_point(), SweepAxis.EP0, grid)
    monkeypatch.setattr(steady, "_jacobian_entries", faulty)
    labels = steady.classify_stability
    stacks = []
    monkeypatch.setattr(steady, "classify_stability",
                        lambda stack: stacks.append(len(stack)) or labels(stack))
    faulty_grid = steady.grid_roots(bistable_point(), SweepAxis.EP0, grid)
    assert len(seen) == 2
    error = faulty_grid[2][2]
    assert type(error) is NonFinite
    assert str(error) == "a steady branch overflows at these parameters"
    assert [repr(e) for x, _, e in faulty_grid if x != 6.0] \
        == [repr(e) for x, _, e in clean if x != 6.0]
    assert stacks == [7]


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
    above = 0
    for p in points:
        branches = solve_steady_branches(p)  # no RootResidual
        for b in branches:
            assert _scaled_fixed_point_residual(p, b) <= 1e-9
            above += b.residual >= steady.RESIDUAL_BOUND
    assert above >= len(_ACCURATE_ROOTS_ABOVE_1E_10)
