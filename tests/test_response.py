import numpy as np
import pytest

from qdresponse.errors import (
    PoleHit,
    QdResponseError,
    SingularSystem,
    UnstableBranch,
    ZeroPump,
)
from qdresponse.model import Params, SweepAxis, apply_axis, delta_from_signal_detuning
from qdresponse.presets import figure_ids, get_preset
from qdresponse.response import (
    Backend,
    chi1_closed_form,
    chi1_linear_solve,
    chi3_closed_form,
    chi3_linear_solve,
    load_formula_ledger,
    solve_sidebands,
    transmission_point,
    _solve_unit,
)
from qdresponse.records import Flag
from qdresponse.steady import (
    SINGULAR_RCOND,
    Stability,
    SteadyBranch,
    certify_detuning,
    classify_stability,
    solve_steady_branches,
)
from qdresponse.sweep import BranchPolicy, Observable, SweepConfig, run_sweep

from conftest import (
    absorption_point,
    bistable_point,
    kerr_peaks_point,
    kerr_point,
    transmission_point_params,
)


def branch_of(p):
    stable = [b for b in solve_steady_branches(p) if b.stability is Stability.STABLE]
    assert len(stable) == 1, "test points must be monostable"
    return stable[0]


def sweep_chi1(p0, delta_grid, fn):
    b = branch_of(p0)
    return np.array([fn(p0.replace(delta0=d), b) for d in delta_grid])


# -- sideband solve ----------------------------------------------------------

def test_uncoupled_cavity_sideband_is_analytic():
    p = absorption_point().replace(g0=0.0, delta0=3.0, es0=0.5)
    b = branch_of(p)
    amps = solve_sidebands(p, b)
    expected = p.es0 / (p.kappa_c0 + 1j * (p.delta_c0 - p.delta0))
    assert amps.a_plus == pytest.approx(expected, rel=1e-14)
    for value in (amps.sigma_plus, amps.sigma_minus, amps.sigmaz_plus,
                  amps.q_plus, amps.a_minus):
        assert abs(value) == 0.0


def test_amplitudes_scale_exactly_linearly_with_signal():
    p = absorption_point(delta0=4.3).replace(es0=2e-3)
    b = branch_of(p)
    one = solve_sidebands(p, b)
    two = solve_sidebands(p.replace(es0=4e-3), b)
    assert two.a_plus == 2.0 * one.a_plus
    assert two.sigma_minus == 2.0 * one.sigma_minus
    assert two.q_plus == 2.0 * one.q_plus


def _feature_amplitude(grid, spec, x0, half_width=0.5):
    window = np.abs(grid - x0) <= half_width
    inside = spec[window]
    xs = grid[window]
    base = inside[0] + (inside[-1] - inside[0]) * (xs - xs[0]) / (xs[-1] - xs[0])
    return np.max(np.abs(inside - base))


def test_no_phonon_feature_without_lattice_coupling():
    grid = np.arange(-15.0, 15.0001, 0.05)
    bare = np.abs(sweep_chi1(absorption_point(eta=0.0), grid, chi1_linear_solve))
    coupled = np.abs(sweep_chi1(absorption_point(eta=0.02), grid, chi1_linear_solve))
    for x0 in (-10.0, 10.0):
        assert _feature_amplitude(grid, bare, x0) < \
            0.1 * _feature_amplitude(grid, coupled, x0)


def test_unstable_branch_requires_override():
    p = bistable_point(ep0=8.0).replace(delta0=3.0)
    middle = solve_steady_branches(p)[1]
    assert middle.stability is Stability.UNSTABLE
    with pytest.raises(UnstableBranch):
        chi1_linear_solve(p, middle)
    value = chi1_linear_solve(p, middle, allow_unstable=True)
    assert np.isfinite(value.real) and np.isfinite(value.imag)


# -- closed forms ------------------------------------------------------------

def test_chi1_vanishes_without_cavity_coupling():
    p = absorption_point(delta0=2.0).replace(g0=0.0)
    b = branch_of(p)
    assert chi1_closed_form(p, b) == 0.0


def test_chi1_backends_agree_to_machine_precision():
    p0 = absorption_point()
    b = branch_of(p0)
    for d in np.linspace(-15.0, 15.0, 100):
        p = p0.replace(delta0=d)
        ls = chi1_linear_solve(p, b)
        cf = chi1_closed_form(p, b)
        assert abs(cf - ls) < 1e-11 * abs(ls)


def test_chi3_matches_lower_sideband_normalization():
    p0 = kerr_point()
    b = branch_of(p0)
    for d in np.linspace(-14.0, 14.0, 60):
        p = p0.replace(delta0=d, es0=1.0)
        amps = solve_sidebands(p, b)
        direct = amps.sigma_minus / (3.0 * p.es0 * p.ep0 ** 2)
        cf = chi3_closed_form(p, b)
        assert abs(cf - direct) < 1e-11 * abs(direct)


def test_legacy_chi1_disagrees_with_linear_solve():
    p = absorption_point(delta0=4.3)
    b = branch_of(p)
    ls = chi1_linear_solve(p, b)
    legacy = chi1_closed_form(p, b, corrected=False)
    assert abs(legacy - ls) > 1e-3 * abs(ls)


def test_absorption_extrema_at_phonon_frequency():
    p0 = absorption_point(eta=0.02)
    grid = np.arange(-15.0, 15.0001, 0.05)
    spec = np.abs(sweep_chi1(p0, grid, chi1_closed_form).imag)
    for x0 in (-10.0, 10.0):
        window = np.abs(grid - x0) <= 0.5
        k = np.flatnonzero(window)[np.argmax(spec[window])]
        assert abs(grid[k] - x0) <= 0.05 + 1e-12


def test_absorption_symmetry_with_and_without_phonons():
    grid = np.linspace(0.1, 14.0, 50)
    p_sym = absorption_point(eta=0.0)
    b = branch_of(p_sym)
    asym = max(abs(chi1_closed_form(p_sym.replace(delta0=d), b).imag
                   - chi1_closed_form(p_sym.replace(delta0=-d), b).imag)
               for d in grid)
    assert asym < 1e-9
    p_ph = absorption_point(eta=0.02)
    b = branch_of(p_ph)
    vals = [chi1_closed_form(p_ph.replace(delta0=d), b).imag for d in grid]
    asym_ph = max(abs(chi1_closed_form(p_ph.replace(delta0=d), b).imag
                      - chi1_closed_form(p_ph.replace(delta0=-d), b).imag)
                  for d in grid)
    assert asym_ph > 1e-3 * max(abs(v) for v in vals)


def test_chi3_requires_pump():
    p = kerr_point().replace(ep0=0.0, delta0=3.0)
    b = branch_of(p)
    with pytest.raises(ZeroPump):
        chi3_closed_form(p, b)
    with pytest.raises(ZeroPump):
        chi3_linear_solve(p, b)


def test_kerr_enhancement_needs_lattice_coupling():
    grid = np.arange(-1.0, 1.0001, 0.002)  # the enhanced line sits near ds=0
    peaks = {}
    for eta in (0.0, 0.06):
        p0 = kerr_point(eta=eta)
        b = branch_of(p0)
        vals = [chi3_closed_form(
            p0.replace(delta0=delta_from_signal_detuning(ds, p0.delta_p0)),
            b).real for ds in grid]
        peaks[eta] = max(abs(v) for v in vals)
    assert peaks[0.06] > 10.0 * peaks[0.0]


def test_kerr_peaks_sit_at_lattice_frequency():
    for wk in (10.0, 8.0, 5.0):
        p0 = kerr_peaks_point(omega_k0=wk)
        b = branch_of(p0)
        grid = np.arange(wk - 1.0, wk + 1.0001, 0.01)
        vals = np.array([chi3_closed_form(
            p0.replace(delta0=delta_from_signal_detuning(ds, p0.delta_p0)),
            b).real for ds in grid])
        assert abs(grid[np.argmax(vals)] - wk) < 0.1


def test_pole_guard_raises():
    from qdresponse.response import _guard

    with pytest.raises(PoleHit):
        _guard("test", 0.0, 1.0)
    with pytest.raises(PoleHit):
        _guard("test", 1e-16 + 0j, 1.0)
    assert _guard("test", 1e-3 + 0j, 1.0) == 1e-3 + 0j


# -- transmission ------------------------------------------------------------

def test_uncoupled_transmission_matches_one_port_formula():
    p0 = transmission_point_params().replace(g0=0.0)
    b = branch_of(p0)
    for d in np.linspace(-14.0, 14.0, 40):
        p = p0.replace(delta0=d)
        point = transmission_point(p, b)
        analytic = abs(1.0 - 2.0 * p.kappa_c0
                       / (p.kappa_c0 + 1j * (p.delta_c0 - d)))
        assert point.T == pytest.approx(analytic, abs=1e-12)


def test_transmission_identity_holds_bit_for_bit():
    p = transmission_point_params().replace(delta0=6.3)
    b = branch_of(p)
    for backend in (Backend.LINEAR_SOLVE, Backend.CLOSED_FORM):
        point = transmission_point(p, b, backend)
        root = np.sqrt(2.0 * p.kappa_c0)
        assert point.T == abs(1.0 - root * point.a_out_plus)
        assert point.T2 == point.T * point.T


def t2_curve(p0, ds_grid):
    b = branch_of(p0)
    out = []
    for ds in ds_grid:
        p = p0.replace(delta0=delta_from_signal_detuning(ds, p0.delta_p0))
        out.append(transmission_point(p, b).T2)
    return np.array(out)


def test_narrow_transmission_dip_needs_lattice_coupling():
    ds = np.arange(-1.0, 1.0001, 0.01)
    center = np.argmin(np.abs(ds))
    edge = np.abs(np.abs(ds) - 0.75) < 1e-9

    with_phonons = t2_curve(transmission_point_params(eta=0.015), ds)
    without = t2_curve(transmission_point_params(eta=0.0), ds)
    depth_with = np.mean(with_phonons[edge]) - with_phonons[center]
    depth_without = np.mean(without[edge]) - without[center]
    assert depth_with > 3e-5
    assert abs(depth_without) < 0.1 * depth_with


def test_backend_agreement_for_transmission():
    p0 = transmission_point_params()
    b = branch_of(p0)
    for d in np.linspace(-12.0, 25.0, 60):
        p = p0.replace(delta0=d)
        ls = transmission_point(p, b, Backend.LINEAR_SOLVE)
        cf = transmission_point(p, b, Backend.CLOSED_FORM)
        assert cf.T2 == pytest.approx(ls.T2, rel=1e-10)


def test_formula_ledger_is_complete():
    ledger = load_formula_ledger()
    ids = {entry["id"] for entry in ledger}
    assert ids == {
        "steady-field-amplitude",
        "phonon-displacement-sign",
        "chi1-bracket-imaginary-signs",
        "chi3-normalization",
        "signal-output-normalization",
    }
    for entry in ledger:
        assert entry["default"] and entry["legacy"] and entry["why"]


def test_dispersion_slope_reacts_to_lattice_coupling():
    from qdresponse.response import dispersion_slope

    slopes = {}
    for eta in (0.0, 0.015):
        p0 = transmission_point_params(eta=eta)
        b = branch_of(p0)
        p = p0.replace(delta0=delta_from_signal_detuning(0.0, p0.delta_p0))
        slopes[eta] = dispersion_slope(p, b)
    assert np.isfinite(slopes[0.0]) and np.isfinite(slopes[0.015])
    assert abs(slopes[0.015] - slopes[0.0]) > 1e-5


# -- certified sideband solve ------------------------------------------------

def certified_checks(p, branch, deltas):
    """Certify the branch, check every certified detuning in ``deltas`` and
    at the certificate's edges; return how many were certified."""
    assert branch.safe_detuning == -np.inf
    branch = certify_detuning(branch)
    assert branch == certify_detuning(branch)
    safe = branch.safe_detuning
    deltas = list(deltas) + ([safe, -safe] if safe > 0 else [])
    checked = 0
    for d in deltas:
        if not abs(d) <= safe:
            continue
        M = -branch.sideband_generator - 1j * d * np.eye(7)
        sv = np.linalg.svd(M, compute_uv=False)
        assert sv[-1] >= SINGULAR_RCOND * sv[0]
        x = _solve_unit(p.replace(delta0=d), branch)
        assert np.array_equal(x, np.linalg.solve(M, np.eye(7)[0]))
        checked += 1
    return checked


def test_certificate_holds_on_every_response_preset_branch():
    checked = 0
    for fid in figure_ids():
        preset = get_preset(fid)
        if preset.axis not in (SweepAxis.DELTA0, SweepAxis.DELTA_S0):
            continue
        for _, p in preset.members():
            deltas = [apply_axis(p, preset.axis, x).delta0
                      for x in preset.grid[::97] + preset.grid[-1:]]
            for b in solve_steady_branches(p):
                checked += certified_checks(p, b, deltas)
    assert checked > 500


def test_certificate_holds_on_random_branches_far_outside_the_presets():
    rng = np.random.default_rng(20191)
    checked = 0
    for _ in range(300):
        p = Params(delta_p0=rng.uniform(-50, 50), delta_c0=rng.uniform(-20, 20),
                   g0=rng.uniform(0, 20), eta=rng.uniform(0, 1),
                   omega_k0=np.exp(rng.uniform(np.log(0.1), np.log(200))),
                   kappa_c0=np.exp(rng.uniform(np.log(0.1), np.log(10))),
                   gamma_q0=np.exp(rng.uniform(np.log(0.01), 0)),
                   ep0=rng.uniform(0, 300), gamma1_ratio=rng.uniform(1, 3))
        try:
            branches = solve_steady_branches(p)
        except QdResponseError:
            continue
        for b in branches:
            if b.stability is Stability.STABLE:
                checked += certified_checks(p, b, rng.uniform(-50, 50, 4))
    assert checked > 500


def phonon_pole_branch(gamma):
    """A branch whose phonon mode has damping ``gamma``: J has eigenvalues
    -gamma/2 +- 2i, a pole on (gamma = 0) or next to the imaginary axis."""
    jac = np.diag([-1.0, -1.0, -1.0, -1.0, -1.0, 0.0, -gamma])
    jac[5, 6], jac[6, 5] = 1.0, -4.0
    return certify_detuning(classify_stability(SteadyBranch(
        w0=-1.0, a0=0j, sigma0=0j, q0=0.0, residual=0.0,
        stability=Stability.MARGINAL, physical=True, jacobian=jac)))


@pytest.mark.parametrize("gamma, singular", [(0.0, True), (1e-13, True),
                                             (1e-12, False)])
def test_singular_system_fires_at_a_pole_on_or_near_the_axis(gamma, singular):
    # at delta0 = 2 the rcond is about 1e-17, 8e-15 and 8e-14 respectively
    b = phonon_pole_branch(gamma)
    assert b.stability is Stability.MARGINAL and b.safe_detuning < 0
    p = absorption_point(delta0=2.0)
    if singular:
        with pytest.raises(SingularSystem):
            transmission_point(p, b, allow_unstable=True)
    else:
        assert np.isfinite(transmission_point(p, b, allow_unstable=True).T)
    assert np.isfinite(transmission_point(p.replace(delta0=1.5), b,
                                          allow_unstable=True).T)


def test_sweep_over_a_pole_flags_pole_skipped(monkeypatch):
    b = phonon_pole_branch(0.0)
    monkeypatch.setattr("qdresponse.sweep.solve_steady_branches", lambda p: [b])
    cfg = SweepConfig(base=absorption_point(), axis=SweepAxis.DELTA0,
                      grid=(1.0, 2.0, 3.0), observable=Observable.CHI1,
                      branch_policy=BranchPolicy.ALL_BRANCHES)
    rows = run_sweep(cfg)
    assert [Flag.POLE_SKIPPED in r.flags for r in rows] == [False, True, False]
    assert np.isnan(rows[1].value_re) and np.isfinite(rows[0].value_re)
