import ast
import pathlib
import random

import numpy as np
import pytest

from qdresponse.errors import (
    NonFinite,
    PoleHit,
    QdResponseError,
    SingularSystem,
    ZeroPump,
)
from qdresponse.model import (
    Params,
    SweepAxis,
    apply_axis,
    delta_from_signal_detuning,
)
from qdresponse import _lapack, response
from qdresponse.presets import figure_ids, get_preset
from qdresponse.response import (
    SINGULAR_RCOND,
    Backend,
    ResponsePoint,
    certify_detuning,
    chi1_closed_form,
    chi3_closed_form,
    load_formula_ledger,
    sideband_generator,
    solve_sidebands,
    solve_unit_grid,
    transmission_point,
    _solve_unit,
)
from qdresponse.records import Flag
from qdresponse.steady import (
    Stability,
    SteadyBranch,
    classify_stability,
    solve_steady_branches,
)
from qdresponse.sweep import BranchPolicy, Observable, SweepConfig, run_sweep

from conftest import (
    absorption_point,
    bistable_point,
    kerr_peaks_point,
    kerr_point,
    phonon_pole_jacobian,
    script,
    transmission_point_params,
)


def branch_of(p):
    stable = [b for b in solve_steady_branches(p) if b.stability is Stability.STABLE]
    assert len(stable) == 1, "test points must be monostable"
    return stable[0]


def linear_chi1(p, b):
    return transmission_point(p, b).chi1


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
    bare = np.abs(sweep_chi1(absorption_point(eta=0.0), grid, linear_chi1))
    coupled = np.abs(sweep_chi1(absorption_point(eta=0.02), grid, linear_chi1))
    for x0 in (-10.0, 10.0):
        assert _feature_amplitude(grid, bare, x0) < \
            0.1 * _feature_amplitude(grid, coupled, x0)


def test_unstable_branch_has_a_finite_response():
    p = bistable_point(ep0=8.0).replace(delta0=3.0)
    middle = solve_steady_branches(p)[1]
    assert middle.stability is Stability.UNSTABLE
    value = transmission_point(p, middle).chi1
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
        ls = linear_chi1(p, b)
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
    ls = linear_chi1(p, b)
    legacy = chi1_closed_form(p, b, corrected=False)
    assert abs(legacy - ls) > 1e-3 * abs(ls)


def test_legacy_chi3_disagrees_with_linear_solve():
    p = kerr_point().replace(delta0=4.3)
    b = branch_of(p)
    ls = transmission_point(p, b).chi3
    assert abs(chi3_closed_form(p, b) - ls) < 1e-11 * abs(ls)
    legacy = chi3_closed_form(p, b, corrected=False)
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
    # 3 ep0^2 must be a positive normal float: not 0, subnormal or underflowed
    for ep0 in (0.0, 1e-160, 1e-200):
        p = kerr_point().replace(ep0=ep0, delta0=3.0)
        b = branch_of(p)
        with pytest.raises(ZeroPump):
            chi3_closed_form(p, b)
        cfg = SweepConfig(base=p, axis=SweepAxis.DELTA0, grid=(3.0,),
                          observable=Observable.CHI3)
        [row] = run_sweep(cfg)
        assert row.flags == {Flag.POLE_SKIPPED}
        assert np.isnan(row.value_re) and np.isnan(row.value_im)


@pytest.mark.parametrize("ep0, defined", [
    (7.7e153, True), (7.8e153, False), (2e154, False), (1e160, False),
    (1e300, False)])
def test_chi3_is_undefined_where_its_normalization_overflows(ep0, defined):
    # 3 ep0^2 overflows to inf above about 7.74e153, and ep0 ** 2 raises
    # OverflowError above about 1.34e154; the sideband solve reads ep0 only
    # for this normalization
    p = kerr_point().replace(delta0=3.0)
    b = branch_of(p)
    big = p.replace(ep0=ep0)
    point = transmission_point(big, b)
    assert point.chi1 == transmission_point(p, b).chi1
    if defined:
        assert point.chi3 == pytest.approx(
            transmission_point(p, b).chi3 * 3.0 * p.ep0 ** 2 / (3.0 * ep0 ** 2),
            rel=1e-14)
        return
    assert np.isnan(point.chi3)
    with pytest.raises(ZeroPump, match="positive, finite, normal float"):
        chi3_closed_form(big, b)


@pytest.mark.parametrize("form", [chi1_closed_form, chi3_closed_form])
def test_closed_forms_raise_non_finite_on_an_overflow(form):
    # at delta0 = 1.5e155 the complex square A1**2 overflows, which raises
    p = get_preset("5a").params
    b = branch_of(p)
    with pytest.raises(NonFinite, match=f"{form.__name__} overflows"):
        form(p.replace(delta0=1.5e155), b)
    assert np.isfinite(transmission_point(p.replace(delta0=1.5e155), b).T)


def test_extreme_points_beyond_the_preset_box_give_an_answer_or_a_typed_error():
    """The seeded extreme points of ``scripts/seeded_points.py``, one to
    three fields of a preset far outside the preset box: every failure of
    the steady solve and of the response on both backends is a
    ``QdResponseError``, and every answer is finite but for chi3 where its
    normalization is undefined."""
    outcomes = {"answer": 0, "error": 0}
    for p in script("seeded_points").extreme_points():
        try:
            branches = solve_steady_branches(p)
        except QdResponseError:
            outcomes["error"] += 1
            continue
        for b in branches:
            for backend in Backend:
                try:
                    r = transmission_point(p, b, backend)
                    outcomes["answer"] += 1
                except QdResponseError:
                    outcomes["error"] += 1
                    continue
                assert np.isfinite([r.chi1, r.a_out_plus, r.T]).all(), (p, backend, r)
                assert np.isfinite(r.chi3) or not response._chi3_norm(p), (p, backend, r)
    assert outcomes["answer"] > 1000 and outcomes["error"] > 100, outcomes


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


def test_lattice_coupling_changes_the_dispersion_slope_at_the_phonon_dip():
    """The slow-light slope d Im(a_out+)/d Delta_s at Delta_s = 0, by a
    Richardson-extrapolated central difference (a plain one with h = 1e-4 is
    off by 5e-7 relative at eta = 0.015): about 0.004185 at eta = 0 and
    0.003783 at eta = 0.015."""
    slopes = {}
    for eta in (0.0, 0.015):
        p0 = transmission_point_params(eta=eta)
        b = branch_of(p0)

        def dispersion(ds):
            p = p0.replace(delta0=delta_from_signal_detuning(ds, p0.delta_p0))
            return transmission_point(p, b).a_out_plus.imag

        def central(h):
            return (dispersion(h) - dispersion(-h)) / (2.0 * h)

        slopes[eta] = (4.0 * central(5e-4) - central(1e-3)) / 3.0
    assert np.isfinite(slopes[0.0]) and np.isfinite(slopes[0.015])
    assert abs(slopes[0.015] - slopes[0.0]) > 1e-5


def test_only_the_unit_solvers_call_numpy_linalg():
    """Across ``src/``, only ``_lapack`` reaches numpy's private gufuncs and
    every ``eigvals`` and ``inv`` goes through it.  In ``response``,
    ``solve_unit_grid``, with ``_solve_alone`` for its lone rows, is the one
    code that solves the sideband system, and ``certify_detuning`` the one
    that bounds its condition: no other function body reaches LAPACK, by
    ``np.linalg`` or by ``_lapack`` (the module-level ``_FROM_COMPLEX`` is not
    in a function body)."""
    package = pathlib.Path(response.__file__).parent
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, (ast.Attribute, ast.Name))}
        imported = {(node.module or "") + "." + alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        uses_gufuncs = any("_umath_linalg" in name for name in names | imported)
        assert uses_gufuncs == (path.name == "_lapack.py"), path.name
        if path.name != "_lapack.py":
            assert not {"np.linalg.eigvals", "np.linalg.inv",
                        "numpy.linalg.eigvals", "numpy.linalg.inv"} & (names | imported), path.name
    tree = ast.parse(pathlib.Path(response.__file__).read_text(encoding="utf-8"))
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Call)
                       and ast.unparse(node.func).startswith(("np.linalg.", "_lapack."))
                       for node in ast.walk(fn))}
    assert callers == {"certify_detuning", "_solve_alone", "solve_unit_grid"}


def test_a_presolved_unit_needs_the_linear_solve_backend():
    p = absorption_point(delta0=1.0)
    b = branch_of(p)
    unit = list(_solve_unit(sideband_generator(b), p.delta0))
    assert transmission_point(p, b, unit=unit) == transmission_point(p, b)
    with pytest.raises(ValueError, match="linear-solve"):
        transmission_point(p, b, Backend.CLOSED_FORM, unit=unit)


def test_response_point_is_an_immutable_tuple_with_fixed_fields():
    p = absorption_point(delta0=1.0)
    point = transmission_point(p, branch_of(p))
    assert ResponsePoint._fields == ("chi1", "chi3", "a_out_plus", "T", "T2")
    assert point.T2 == point.T * point.T
    with pytest.raises(AttributeError):
        point.T = 0.0


# -- certified sideband solve ------------------------------------------------

def certified_checks(p, branch, deltas):
    """Certify the branch's K, check every certified detuning in ``deltas``
    and at the certificate's edges; return how many were certified."""
    K = sideband_generator(branch)
    safe = certify_detuning(K)
    assert safe == certify_detuning(sideband_generator(branch))
    deltas = list(deltas) + ([safe, -safe] if safe > 0 else [])
    checked = 0
    for d in deltas:
        if not abs(d) <= safe:
            continue
        M = -K - 1j * d * np.eye(7)
        sv = np.linalg.svd(M, compute_uv=False)
        assert sv[-1] >= SINGULAR_RCOND * sv[0]
        x = solve_unit_grid(K, [d], safe)[0]
        assert np.array_equal(x, np.linalg.solve(M, np.eye(7)[0]))
        checked += 1
    return checked


def test_a_generator_without_a_well_conditioned_eigenbasis_certifies_nothing(monkeypatch):
    # a nilpotent Jordan block has one eigenvector, so V is singular; scaled
    # by 1e10 next to -I its eigenvectors are so close that cond_F(V) is inf
    jordan = np.diag(np.ones(6), 1)
    assert certify_detuning(jordan) == -np.inf
    assert certify_detuning(-np.eye(7) + 1e10 * jordan) == -np.inf
    # an inverse past the float range, on any numpy's eigenvectors
    monkeypatch.setattr(_lapack, "inv", lambda a: np.full_like(a, np.inf))
    assert certify_detuning(-np.eye(7)) == -np.inf


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
    """A branch on ``phonon_pole_jacobian(gamma)``."""
    jac = phonon_pole_jacobian(gamma)
    return SteadyBranch(w0=-1.0, a0=0j, sigma0=0j, q0=0.0, residual=0.0,
                        stability=classify_stability([jac])[0], physical=True,
                        jacobian=jac)


@pytest.mark.parametrize("gamma, singular", [(0.0, True), (1e-13, True),
                                             (1e-12, False)])
def test_singular_system_fires_at_a_pole_on_or_near_the_axis(gamma, singular):
    # at delta0 = 2 the rcond is about 1e-17, 8e-15 and 8e-14 respectively
    b = phonon_pole_branch(gamma)
    assert b.stability is Stability.MARGINAL
    assert certify_detuning(sideband_generator(b)) < 0
    p = absorption_point(delta0=2.0)
    if singular:
        with pytest.raises(SingularSystem):
            transmission_point(p, b)
    else:
        assert np.isfinite(transmission_point(p, b).T)
    assert np.isfinite(transmission_point(p.replace(delta0=1.5), b).T)


def _svd_spy(monkeypatch):
    """Count the library's ``np.linalg.svd`` calls; returns (the list of
    calls, the unpatched svd for the test's own use)."""
    calls, svd = [], np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr("qdresponse.response.np.linalg.svd", spy)
    return calls, svd


def _inverse_certifies(M):
    """The bound ``_solve_alone`` certifies a row by, taken independently:
    ||M||_F^2 ||M^-1||_F^2 <= 1e24, so rcond_2 >= 1e-12."""
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return False
    return bool(np.linalg.norm(M) ** 2 * np.linalg.norm(inv) ** 2 <= 1e24)


def test_a_row_certified_by_its_inverse_takes_no_svd_and_keeps_solves_bits(monkeypatch):
    """Every uncertified row of 2,000 seeded ``wide_box`` stable branches
    (each at its own detuning) and of every response-preset branch (at a
    spread of its grid's detunings) is answered from its inverse: no SVD,
    an rcond the SVD confirms, and the bytes of ``np.linalg.solve``."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    from workloads import wide_box_params

    rows, rng = [], random.Random(2022)
    while len(rows) < 2000:
        p = wide_box_params(rng)
        try:
            branches = solve_steady_branches(p)
        except QdResponseError:
            continue
        rows += [(sideband_generator(b), p.delta0) for b in branches
                 if b.stability is Stability.STABLE]
    for fid in figure_ids():
        preset = get_preset(fid)
        if preset.axis not in (SweepAxis.DELTA0, SweepAxis.DELTA_S0):
            continue
        for _, p in preset.members():
            deltas = [apply_axis(p, preset.axis, x).delta0
                      for x in preset.grid[::97] + preset.grid[-1:]]
            rows += [(sideband_generator(b), d) for b in solve_steady_branches(p)
                     for d in deltas]
    assert len(rows) > 2900
    calls, svd = _svd_spy(monkeypatch)
    for K, d in rows:
        M = -K - 1j * d * np.eye(7)
        assert _inverse_certifies(M), d
        x = _solve_unit(K, d)
        assert not calls
        sv = svd(M, compute_uv=False)
        assert sv[-1] >= SINGULAR_RCOND * sv[0]
        assert np.array(x).tobytes() == np.linalg.solve(M, np.eye(7)[0]).tobytes()


@pytest.mark.parametrize("gamma", [0.0, 1e-13, 1e-12])
def test_a_pole_row_falls_back_to_the_svd(gamma, monkeypatch):
    """At the phonon pole the inverse's bound fails (rcond about 1e-17,
    8e-15 and 8e-14), so the SVD decides: ``SingularSystem`` with its
    rcond below ``SINGULAR_RCOND``, else the solve's bits."""
    K = sideband_generator(phonon_pole_branch(gamma))
    M = -K - 2j * np.eye(7)
    assert not _inverse_certifies(M)
    calls, svd = _svd_spy(monkeypatch)
    entry = solve_unit_grid(K, [2.0], -np.inf)[0]
    assert len(calls) == 1
    sv = svd(M, compute_uv=False)
    if gamma < 1e-12:
        assert isinstance(entry, SingularSystem)
        assert str(entry) == "sideband system is singular at delta0=2.0 " \
            f"(rcond {sv[-1] / sv[0]:.2e})"
    else:
        assert sv[-1] >= SINGULAR_RCOND * sv[0]
        assert np.array(entry).tobytes() == np.linalg.solve(M, np.eye(7)[0]).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_each_detuning_gets_its_solution_or_its_singular_system():
    """Certified rows of a healthy branch are stacked, the rest are solved
    alone after the SVD test; a pole branch answers its poles with the
    ``SingularSystem`` that ``transmission_point`` raises there.  A
    non-finite detuning, certified branch or not, is ``NonFinite`` and
    leaves the other rows their bits."""
    p = absorption_point()
    healthy, pole = branch_of(p), phonon_pole_branch(0.0)
    nan, inf = float("nan"), float("inf")
    safe = certify_detuning(sideband_generator(healthy))
    deltas = [1.5, nan, 2.0, -2.0, inf, 2.0 * safe, -inf, -1.5]
    for b in (healthy, pole):
        K = sideband_generator(b)
        for d, entry in zip(deltas, solve_unit_grid(K, deltas, certify_detuning(K))):
            pd = p.replace(delta0=d)
            if isinstance(entry, (NonFinite, SingularSystem)):
                if isinstance(entry, NonFinite):
                    assert not np.isfinite(d)
                    assert str(entry) == f"sideband detuning delta0={d!r} is not finite"
                else:
                    assert b is pole and abs(d) == 2.0
                with pytest.raises(type(entry)) as alone:
                    transmission_point(pd, b)
                assert str(alone.value) == str(entry)
                with pytest.raises(type(entry)) as stored:
                    transmission_point(pd, b, unit=entry)
                assert stored.value is entry
                continue
            assert len(entry) == 7 and all(type(v) is complex for v in entry)
            assert entry == _solve_unit(K, d)
            alone = np.linalg.solve(-K - 1j * d * np.eye(7), np.eye(7)[0])
            assert np.array(entry).tobytes() == alone.tobytes()
            assert transmission_point(pd, b, unit=entry) == transmission_point(pd, b)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("delta0", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_detuning_is_non_finite(delta0):
    p = absorption_point(delta0=delta0)
    b = branch_of(p)
    with pytest.raises(NonFinite, match="is not finite"):
        transmission_point(p, b)
    K = sideband_generator(b)
    for safe in (-np.inf, certify_detuning(K)):
        entry = solve_unit_grid(K, [delta0], safe)[0]
        assert isinstance(entry, NonFinite) and "is not finite" in str(entry)


def test_sweep_over_a_pole_flags_pole_skipped(monkeypatch):
    """The pole branch sits between two certified branches, so at x = 2 its
    row falls between two rows of one stacked solve."""
    b = phonon_pole_branch(0.0)
    healthy = branch_of(absorption_point())
    assert certify_detuning(sideband_generator(healthy)) > 3.0 > 0.0 \
        > certify_detuning(sideband_generator(b))
    monkeypatch.setattr("qdresponse.sweep.solve_steady_branches",
                        lambda p: [healthy, b, healthy])
    cfg = SweepConfig(base=absorption_point(), axis=SweepAxis.DELTA0,
                      grid=(1.0, 2.0, 3.0), observable=Observable.CHI1,
                      branch_policy=BranchPolicy.ALL_BRANCHES)
    rows = run_sweep(cfg)
    assert [(r.x, r.branch_id) for r in rows] == \
        [(x, i) for x in (1.0, 2.0, 3.0) for i in range(3)]
    assert [Flag.POLE_SKIPPED in r.flags for r in rows] == \
        [False, False, False, False, True, False, False, False, False]
    assert np.isnan(rows[4].value_re) and np.isnan(rows[4].value_im)
    for r in rows[:4] + rows[5:]:
        chi1 = transmission_point(absorption_point(delta0=r.x),
                                  b if r.branch_id == 1 else healthy).chi1
        assert (r.value_re, r.value_im) == (chi1.real, chi1.imag)
