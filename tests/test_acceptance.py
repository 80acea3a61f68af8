"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import time

import numpy as np

from qdresponse.model import (
    Params,
    SweepAxis,
    default_signal_amplitude,
    delta_from_signal_detuning,
)
from qdresponse.oracle import (
    demodulate_sidebands,
    integrate_mean_field,
    perturbation_outcome,
    steady_state_vector,
)
from qdresponse.response import (
    chi1_closed_form,
    chi3_closed_form,
    solve_sidebands,
    transmission_point,
)
from qdresponse.steady import (
    Stability,
    hysteresis_sweep,
    solve_steady_branches,
)

from conftest import (
    absorption_point,
    bistable_point,
    kerr_peaks_point,
    kerr_point,
    lone_roots,
    transmission_point_params,
)


def _report(cid, ok, detail, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" (budget {budget:g}s)" if budget else "")
    print(f"[{cid}] {status} {detail} [{timing}]")
    assert ok, f"{cid}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"{cid}: runtime {elapsed:.2f}s over {budget}s"


def _single_stable(p):
    stable = [b for b in solve_steady_branches(p)
              if b.stability is Stability.STABLE]
    assert len(stable) == 1
    return stable[0]


def test_c01_root_residuals_on_random_points():
    rng = np.random.default_rng(20260810)
    n = 10_000
    t0 = time.perf_counter()
    worst = 0.0
    counts_ok = True
    for _ in range(n):
        p = Params(delta_p0=rng.uniform(-12, 12), delta_c0=rng.uniform(-12, 12),
                   g0=rng.uniform(0.1, 2.0), eta=rng.uniform(0.0, 0.25),
                   omega_k0=rng.uniform(5.0, 110.0),
                   kappa_c0=rng.uniform(0.5, 2.5),
                   gamma_q0=rng.uniform(0.02, 0.5),
                   ep0=rng.uniform(0.01, 85.0))
        real, resid, _ = lone_roots(p)
        counts_ok = counts_ok and len(real) in (1, 3)
        worst = max(worst, max(resid))
    elapsed = time.perf_counter() - t0
    _report("C01", counts_ok and worst < 1e-10,
            f"{n} random points, worst monic residual {worst:.2e}, "
            f"root counts in {{1,3}}: {counts_ok}", elapsed, budget=5.0)


def test_c02_bistability_window_and_hysteresis():
    t0 = time.perf_counter()
    p = bistable_point(ep0=0.0)
    grid = np.linspace(0.2, 16.0, 317)
    counts = [len(lone_roots(p.replace(ep0=x))[0]) for x in grid]
    window = [x for x, n in zip(grid, counts) if n == 3]
    result = hysteresis_sweep(p, SweepAxis.EP0, grid)
    p1, p2 = result.turning_up, result.turning_down
    down = {r.x: r.w0 for r in result.down}
    diffs = [r.x for r in result.up if abs(r.w0 - down[r.x]) > 1e-12]
    labels_ok = True
    for ep0 in (4.0, 8.0, 12.0):
        branches = solve_steady_branches(p.replace(ep0=ep0))
        labels_ok = labels_ok and [b.stability for b in branches] == \
            [Stability.STABLE, Stability.UNSTABLE, Stability.STABLE]
    ok = (bool(window) and p1 is not None and p2 is not None and p1 > p2
          and bool(diffs) and all(p2 <= x <= p1 for x in diffs)
          and labels_ok)
    elapsed = time.perf_counter() - t0
    _report("C02", ok,
            f"window [{min(window):.2f},{max(window):.2f}], P1={p1}, P2={p2}, "
            f"{len(diffs)} differing points inside (P2,P1), labels S/U/S",
            elapsed, budget=2.0)


def test_c03_bistability_onset_monotone_in_coupling():
    t0 = time.perf_counter()
    base = bistable_point(ep0=0.0)
    grid = np.linspace(0.05, 20.0, 400)

    def onset(g0):
        p = base.replace(g0=g0)
        for x in grid:
            if len(lone_roots(p.replace(ep0=x))[0]) == 3:
                return x
        return None

    onsets = {g0: onset(g0) for g0 in (0.6, 1.0, 1.4)}
    vanished = onset(0.1) is None
    ok = (all(v is not None for v in onsets.values())
          and onsets[0.6] > onsets[1.0] > onsets[1.4]
          and vanished)
    elapsed = time.perf_counter() - t0
    _report("C03", ok,
            f"onset ep0: g0=0.6 -> {onsets[0.6]:.2f}, 1.0 -> {onsets[1.0]:.2f}, "
            f"1.4 -> {onsets[1.4]:.2f}; no window for g0=0.1 in [0,20]: {vanished}",
            elapsed, budget=5.0)


def _feature_amplitude(xs, ys, x0, half_width=0.5):
    window = np.abs(xs - x0) <= half_width
    inside = ys[window]
    grid = xs[window]
    base = inside[0] + (inside[-1] - inside[0]) * (grid - grid[0]) \
        / (grid[-1] - grid[0])
    dev = np.abs(inside - base)
    k = int(np.argmax(dev))
    return float(dev[k]), float(grid[k])


def test_c04_phonon_sidebands_in_absorption():
    t0 = time.perf_counter()
    step = 0.05
    grid = np.arange(-15.0, 15.0 + step / 2, step)
    spectra = {}
    for eta in (0.0, 0.02):
        p0 = absorption_point(eta=eta)
        b = _single_stable(p0)
        spectra[eta] = np.array(
            [chi1_closed_form(p0.replace(delta0=d), b).imag for d in grid])
    ok = True
    detail = []
    for x0 in (-10.0, 10.0):
        amp_on, loc = _feature_amplitude(grid, spectra[0.02], x0)
        amp_off, _ = _feature_amplitude(grid, spectra[0.0], x0)
        ok = ok and abs(loc - x0) <= step + 1e-12 and amp_on >= 10.0 * amp_off
        detail.append(f"{x0:+.0f}: extremum at {loc:+.2f}, "
                      f"on/off ratio {amp_on / amp_off:.1f}")
    elapsed = time.perf_counter() - t0
    _report("C04", ok, "; ".join(detail), elapsed, budget=2.0)


def _dip_depth(p0):
    b = _single_stable(p0)

    def t2(ds):
        p = p0.replace(delta0=delta_from_signal_detuning(ds, p0.delta_p0))
        return transmission_point(p, b).T2

    baseline = 0.5 * (t2(0.75) + t2(-0.75))
    return baseline - t2(0.0)


def test_c05_narrow_transmission_dip():
    t0 = time.perf_counter()
    depth5 = _dip_depth(transmission_point_params(ep0=5.0, eta=0.015))
    depth7 = _dip_depth(transmission_point_params(ep0=7.0, eta=0.015))
    depth0 = _dip_depth(transmission_point_params(ep0=5.0, eta=0.0))
    ok = (depth5 > 0.0 and depth7 > depth5
          and abs(depth0) < 0.1 * depth5)
    elapsed = time.perf_counter() - t0
    _report("C05", ok,
            f"dip depth: ep0=5 -> {depth5:.2e}, ep0=7 -> {depth7:.2e}, "
            f"eta=0 -> {depth0:.2e}", elapsed, budget=2.0)


def test_c06_kerr_peaks_and_enhancement():
    t0 = time.perf_counter()
    # peak locations at +- the lattice frequency, refined to half a grid step
    step = 0.2
    ok = True
    details = []
    for wk in (10.0, 8.0, 5.0):
        p0 = kerr_peaks_point(omega_k0=wk)
        b = _single_stable(p0)
        grid = np.arange(-wk - 3.0, wk + 3.0 + step / 2, step)
        vals = np.array([chi3_closed_form(
            p0.replace(delta0=delta_from_signal_detuning(ds, p0.delta_p0)),
            b).real for ds in grid])
        for side in (-1.0, 1.0):
            cands = []
            for k in range(1, len(grid) - 1):
                if abs(grid[k] - side * wk) <= 1.5 and \
                        vals[k] > vals[k - 1] and vals[k] > vals[k + 1]:
                    x1, x2, x3 = grid[k - 1], grid[k], grid[k + 1]
                    y1, y2, y3 = vals[k - 1], vals[k], vals[k + 1]
                    denom = (x1 - x2) * (x1 - x3) * (x2 - x3)
                    a = (x3 * (y2 - y1) + x2 * (y1 - y3) + x1 * (y3 - y2)) / denom
                    bb = (x3 * x3 * (y1 - y2) + x2 * x2 * (y3 - y1)
                          + x1 * x1 * (y2 - y3)) / denom
                    cands.append((y2, -bb / (2.0 * a)))
            cands.sort(reverse=True)
            offset = abs(abs(cands[0][1]) - wk) if cands else float("inf")
            ok = ok and offset <= step / 2
            details.append(f"wk={wk:g}{'+' if side > 0 else '-'}: off {offset:.3f}")
    # enhancement by the lattice coupling
    peak = {}
    for eta in (0.0, 0.06):
        p0 = kerr_point(eta=eta)
        b = _single_stable(p0)
        grid = np.arange(-15.0, 15.0 + 0.0025, 0.005)
        vals = [abs(chi3_closed_form(
            p0.replace(delta0=delta_from_signal_detuning(ds, p0.delta_p0)),
            b).real) for ds in grid]
        peak[eta] = max(vals)
    ratio = peak[0.06] / peak[0.0]
    ok = ok and ratio >= 10.0
    elapsed = time.perf_counter() - t0
    _report("C06", ok, "; ".join(details) + f"; enhancement ratio {ratio:.1f}",
            elapsed, budget=3.0)


def _backend_presets():
    return [
        (absorption_point(eta=0.02), np.linspace(-15.0, 15.0, 100)),
        (transmission_point_params(), np.linspace(-12.0, 25.0, 100)),
        (kerr_peaks_point(omega_k0=10.0), np.linspace(-13.0, 13.0, 100)),
    ]


def test_c07_backend_equivalence():
    t0 = time.perf_counter()
    worst1 = worst3 = 0.0
    for p0, grid in _backend_presets():
        b = _single_stable(p0)
        for d in grid:
            p = p0.replace(delta0=d)
            point = transmission_point(p, b)
            ls1, ls3 = point.chi1, point.chi3
            worst1 = max(worst1, abs(chi1_closed_form(p, b) - ls1) / abs(ls1))
            worst3 = max(worst3, abs(chi3_closed_form(p, b) - ls3) / abs(ls3))
    ok = worst1 < 1e-9 and worst3 < 1e-9
    elapsed = time.perf_counter() - t0
    _report("C07", ok,
            f"three presets x 100 detunings: worst chi1 dev {worst1:.2e}, "
            f"worst chi3 dev {worst3:.2e}", elapsed)


def test_c08_oracle_equivalence_and_linearity():
    t0 = time.perf_counter()
    cases = [
        (absorption_point(eta=0.02), 4.3),
        (transmission_point_params(),
         delta_from_signal_detuning(3.7, transmission_point_params().delta_p0)),
        (kerr_peaks_point(omega_k0=10.0),
         delta_from_signal_detuning(-7.3, 0.0)),
    ]
    worst_dev = worst_lin = 0.0
    for p0, delta0 in cases:
        p = p0.replace(delta0=delta0)
        es = default_signal_amplitude(p)
        b = _single_stable(p)
        init = steady_state_vector(b)
        one = demodulate_sidebands(
            integrate_mean_field(p, init, 260.0, 0.01, es0=es), p.delta0)
        two = demodulate_sidebands(
            integrate_mean_field(p, init, 260.0, 0.01, es0=2.0 * es), p.delta0)
        bands = solve_sidebands(p.replace(es0=es), b)
        worst_dev = max(worst_dev,
                        abs(one.a_plus - bands.a_plus) / abs(bands.a_plus))
        worst_lin = max(worst_lin, abs(two.a_plus / one.a_plus - 2.0))
    ok = worst_dev < 1e-3 and worst_lin < 1e-3
    elapsed = time.perf_counter() - t0
    _report("C08", ok,
            f"three presets: worst a+ deviation {worst_dev:.2e}, "
            f"worst linearity defect {worst_lin:.2e}", elapsed, budget=30.0)


def test_c09_analytic_limits():
    t0 = time.perf_counter()
    # uncoupled cavity transmission
    p0 = transmission_point_params().replace(g0=0.0)
    b = _single_stable(p0)
    worst_t = 0.0
    for d in np.linspace(-14.0, 14.0, 29):
        p = p0.replace(delta0=d)
        analytic = abs(1.0 - 2.0 * p.kappa_c0
                       / (p.kappa_c0 + 1j * (p.delta_c0 - d)))
        worst_t = max(worst_t, abs(transmission_point(p, b).T - analytic))
    # undriven ground state
    worst_w = 0.0
    for maker in (bistable_point, absorption_point,
                  transmission_point_params):
        branches = solve_steady_branches(maker().replace(ep0=0.0))
        worst_w = max(worst_w, abs(branches[0].w0 + 1.0))
        assert len(branches) == 1
    ok = worst_t < 1e-12 and worst_w < 1e-12
    elapsed = time.perf_counter() - t0
    _report("C09", ok,
            f"uncoupled transmission dev {worst_t:.2e}; "
            f"undriven inversion dev {worst_w:.2e}", elapsed)


def test_c10_stability_labels_match_perturbation_dynamics():
    t0 = time.perf_counter()
    samples = []
    for ep0 in (4.0, 6.0, 8.0):  # inside the bistable window, away from folds
        p = bistable_point(ep0=ep0)
        samples += [(p, b) for b in solve_steady_branches(p)]
    for p in (absorption_point(eta=0.0), absorption_point(eta=0.02),
              transmission_point_params(ep0=5.0),
              transmission_point_params(ep0=7.0),
              transmission_point_params(ep0=5.0, eta=0.0),
              kerr_point(eta=0.06), kerr_point(eta=0.0),
              kerr_peaks_point(10.0), kerr_peaks_point(8.0),
              kerr_peaks_point(5.0), bistable_point(ep0=1.0)):
        samples += [(p, b) for b in solve_steady_branches(p)]
    assert len(samples) == 20
    agreements = 0
    outcomes = []
    for p, branch in samples:
        outcome = perturbation_outcome(p, branch)
        expect = "decayed" if branch.stability is Stability.STABLE else "departed"
        agreements += outcome == expect
        outcomes.append(f"{branch.stability.value[0]}:{outcome[:3]}")
    ok = agreements == len(samples)
    elapsed = time.perf_counter() - t0
    _report("C10", ok,
            f"{agreements}/{len(samples)} Jacobian labels confirmed by "
            "perturbation integration", elapsed)
