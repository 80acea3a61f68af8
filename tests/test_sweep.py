import io
import json
import random
import struct

import numpy as np
import pytest

from qdresponse import response, steady, sweep
from qdresponse.errors import InvalidGrid, NonFinite, TooFewPoints
from qdresponse.model import SweepAxis, apply_axis
from qdresponse.records import Flag, SpectrumRecord
from qdresponse.response import Backend, transmission_point
from qdresponse.steady import hysteresis_sweep
from qdresponse.sweep import (
    BranchPolicy,
    ExtremumKind,
    Observable,
    SweepConfig,
    locate_extrema,
    records_to_csv,
    records_to_json,
    run_sweep,
)

from conftest import (
    bistable_point,
    detuning_scan_point,
    faulty_jacobian,
    kerr_point,
    rootless_grid_row,
    transmission_point_params,
)


def test_empty_grid_aborts():
    cfg = SweepConfig(base=bistable_point(), axis=SweepAxis.EP0, grid=(),
                      observable=Observable.W0)
    with pytest.raises(InvalidGrid):
        run_sweep(cfg)


def test_non_monotone_grid_aborts():
    cfg = SweepConfig(base=bistable_point(), axis=SweepAxis.EP0,
                      grid=(1.0, 3.0, 2.0), observable=Observable.W0)
    with pytest.raises(InvalidGrid):
        run_sweep(cfg)


@pytest.mark.parametrize("grid", [(float("nan"),), (0.0, float("nan"), 2.0),
                                  (0.0, float("inf")), (float("-inf"), 0.0)])
def test_non_finite_grid_aborts(grid):
    for axis, obs in ((SweepAxis.EP0, Observable.W0),
                      (SweepAxis.DELTA0, Observable.CHI1)):
        cfg = SweepConfig(base=transmission_point_params(), axis=axis,
                          grid=grid, observable=obs)
        with pytest.raises(InvalidGrid, match="finite"):
            run_sweep(cfg)


def test_inversion_family_reproduces_bistable_interval():
    grid = tuple(np.linspace(-50.0, 10.0, 301))
    counts = {}
    for ep0 in (12.0, 36.0, 81.0):
        cfg = SweepConfig(base=detuning_scan_point(ep0=ep0),
                          axis=SweepAxis.DELTA_P0, grid=grid,
                          observable=Observable.W0,
                          branch_policy=BranchPolicy.ALL_BRANCHES)
        records = run_sweep(cfg)
        per_x = {}
        for r in records:
            per_x[r.x] = per_x.get(r.x, 0) + 1
        counts[ep0] = sum(1 for n in per_x.values() if n == 3)
    assert counts[81.0] > 0
    assert counts[12.0] <= counts[36.0] <= counts[81.0]


def test_unstable_branch_records_are_flagged():
    cfg = SweepConfig(base=bistable_point(ep0=8.0).replace(delta0=3.0),
                      axis=SweepAxis.DELTA0, grid=(2.9, 3.0, 3.1),
                      observable=Observable.CHI1,
                      branch_policy=BranchPolicy.ALL_BRANCHES)
    records = run_sweep(cfg)
    by_branch = {}
    for r in records:
        by_branch.setdefault(r.branch_id, []).append(r)
    assert set(by_branch) == {0, 1, 2}
    assert all(Flag.UNSTABLE in r.flags for r in by_branch[1])
    assert all(Flag.UNSTABLE not in r.flags for r in by_branch[0])


def test_stable_only_drops_middle_branch():
    cfg = SweepConfig(base=bistable_point(ep0=8.0).replace(delta0=3.0),
                      axis=SweepAxis.DELTA0, grid=(3.0,),
                      observable=Observable.W0)
    records = run_sweep(cfg)
    assert [r.branch_id for r in records] == [0, 2]


def test_transmission_dip_splits_as_coupling_grows():
    grid = tuple(np.arange(15.0, 25.0001, 0.05))

    def broad_dips(g0):
        cfg = SweepConfig(base=transmission_point_params(g0=g0),
                          axis=SweepAxis.DELTA_S0, grid=grid,
                          observable=Observable.T2)
        records = run_sweep(cfg)
        dips = locate_extrema(records, ExtremumKind.DIP)
        return [(x, v) for x, v in dips if v < 0.9]

    single = broad_dips(0.5)
    split_mid = broad_dips(1.0)
    split_wide = broad_dips(1.5)
    assert len(single) == 1
    assert len(split_mid) == 2 and len(split_wide) == 2
    sep_mid = split_mid[-1][0] - split_mid[0][0]
    sep_wide = split_wide[-1][0] - split_wide[0][0]
    assert sep_wide > sep_mid > 0.5


def test_detuning_sweep_certifies_its_branches(monkeypatch):
    """A delta_s0 sweep over a stable branch never needs the SVD test; it
    takes one stacked solve per emitting branch and block, and one
    ``transmission_point`` per response row."""
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD taken on a detuning sweep")

    calls = {"solve": 0, "transmission_point": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr("qdresponse.response.np.linalg.svd", no_svd)
    monkeypatch.setattr("qdresponse.response.np.linalg.solve",
                        counted("solve", np.linalg.solve))
    monkeypatch.setattr(sweep, "transmission_point",
                        counted("transmission_point", sweep.transmission_point))
    cfg = SweepConfig(base=transmission_point_params(),
                      axis=SweepAxis.DELTA_S0,
                      grid=tuple(np.linspace(-10.0, 30.0, 81)),
                      observable=Observable.T2)
    rows = run_sweep(cfg)
    assert len(rows) == 81 and not any(r.flags for r in rows)
    assert calls == {"solve": len({r.branch_id for r in rows}),
                     "transmission_point": 81}


_OBSERVED = {
    Observable.CHI1: lambda pt: (pt.chi1.real, pt.chi1.imag),
    Observable.CHI3: lambda pt: (pt.chi3.real, pt.chi3.imag),
    Observable.A_OUT_PLUS: lambda pt: (pt.a_out_plus.real, pt.a_out_plus.imag),
    Observable.T2: lambda pt: (pt.T2, 0.0),
    Observable.KERR: lambda pt: (pt.chi3.real, 0.0),
    Observable.NONLIN_ABS: lambda pt: (pt.chi3.imag, 0.0),
}


def _rows_text(rows):
    return [(repr(r.x), r.branch_id, repr(r.w0), repr(r.value_re),
             repr(r.value_im)) for r in rows]


def _per_point_text(cfg):
    """The rows of ``cfg`` from one ``transmission_point`` per row, each
    solving its own system after the SVD test (no certificate)."""
    branches = steady.solve_steady_branches(cfg.base)
    rows = []
    for x in cfg.grid:
        p = apply_axis(cfg.base, cfg.axis, x)
        for branch_id, b in enumerate(branches):
            re, im = _OBSERVED[cfg.observable](transmission_point(p, b))
            rows.append((repr(x), branch_id, repr(b.w0), repr(re), repr(im)))
    return rows


@pytest.mark.parametrize("axis", [SweepAxis.DELTA0, SweepAxis.DELTA_S0])
@pytest.mark.parametrize("observable", list(_OBSERVED))
def test_stacked_rows_equal_the_per_point_path_bit_for_bit(axis, observable):
    # 300 points: one full block of 256 and a partial one
    base = bistable_point(ep0=8.0)
    assert len(steady.solve_steady_branches(base)) == 3
    cfg = SweepConfig(base=base, axis=axis,
                      grid=tuple(np.linspace(-12.0, 12.0, 300).tolist()),
                      observable=observable,
                      branch_policy=BranchPolicy.ALL_BRANCHES)
    assert _rows_text(run_sweep(cfg)) == _per_point_text(cfg)


@pytest.mark.parametrize("observable, backend, policy, stacked", [
    (Observable.CHI1, Backend.LINEAR_SOLVE, BranchPolicy.ALL_BRANCHES, 3),
    (Observable.CHI1, Backend.LINEAR_SOLVE, BranchPolicy.STABLE_ONLY, 2),
    (Observable.CHI1, Backend.CLOSED_FORM, BranchPolicy.ALL_BRANCHES, 0),
    (Observable.W0, Backend.LINEAR_SOLVE, BranchPolicy.ALL_BRANCHES, 0),
])
def test_stacked_solves_only_for_emitting_branches(monkeypatch, observable,
                                                   backend, policy, stacked):
    """Two blocks over the bistable point (two stable branches of three):
    each stacked branch builds its K and certificate once and solves once
    per block; a branch whose rows are not stacked builds neither."""
    generated, certified, solved = [], [], []
    generate, certify = sweep.sideband_generator, sweep.certify_detuning
    solve_unit_grid = sweep.solve_unit_grid
    monkeypatch.setattr(sweep, "sideband_generator",
                        lambda b: generated.append(b.stability) or generate(b))
    monkeypatch.setattr(sweep, "certify_detuning",
                        lambda K: certified.append(K) or certify(K))
    monkeypatch.setattr(sweep, "solve_unit_grid",
                        lambda K, deltas, safe: solved.append((id(K), safe))
                        or solve_unit_grid(K, deltas, safe))
    cfg = SweepConfig(base=bistable_point(ep0=8.0), axis=SweepAxis.DELTA0,
                      grid=tuple(np.linspace(-3.0, 3.0, 300).tolist()),
                      observable=observable, backend=backend,
                      branch_policy=policy)
    rows = run_sweep(cfg)
    assert len(generated) == len(certified) == stacked
    assert sorted(solved) == sorted(2 * [(id(K), certify(K)) for K in certified])
    assert len(rows) == 300 * (2 if policy is BranchPolicy.STABLE_ONLY else 3)
    if policy is BranchPolicy.STABLE_ONLY:
        assert set(generated) == {steady.Stability.STABLE}


def test_rows_outside_the_certificate_equal_the_per_point_path(monkeypatch):
    """With every certificate cut to |delta0| <= 5, a -10..10 grid mixes
    stacked rows with rows solved alone after their SVD test."""
    entries, tested = [], []
    solve_unit_grid, solve_alone = sweep.solve_unit_grid, response._solve_alone

    def grid_spy(K, deltas, safe_detuning):
        found = solve_unit_grid(K, deltas, safe_detuning)
        entries.extend(found)
        return found

    def alone_spy(K, delta):
        tested.append(delta)
        return solve_alone(K, delta)

    monkeypatch.setattr(sweep, "certify_detuning", lambda K: 5.0)
    monkeypatch.setattr(sweep, "solve_unit_grid", grid_spy)
    monkeypatch.setattr(response, "_solve_alone", alone_spy)
    cfg = SweepConfig(base=bistable_point(ep0=8.0), axis=SweepAxis.DELTA0,
                      grid=tuple(np.linspace(-10.0, 10.0, 301).tolist()),
                      observable=Observable.CHI3,
                      branch_policy=BranchPolicy.ALL_BRANCHES)
    rows = _rows_text(run_sweep(cfg))
    inside = sum(abs(x) <= 5.0 for x in cfg.grid)
    assert 0 < inside < len(cfg.grid)
    assert all(isinstance(entry, list) for entry in entries)
    assert all(abs(d) > 5.0 for d in tested)
    # (stacked rows, SVD-tested rows) over the three branches
    assert (len(entries) - len(tested), len(tested)) == \
        (3 * inside, 3 * (len(cfg.grid) - inside))
    assert rows == _per_point_text(cfg)


def test_records_are_ordered_and_deterministic():
    grid = tuple(np.linspace(-12.0, 12.0, 41))
    cfg = SweepConfig(base=transmission_point_params(),
                      axis=SweepAxis.DELTA_S0, grid=grid,
                      observable=Observable.A_OUT_PLUS)
    seq = run_sweep(cfg)
    par = run_sweep(cfg)
    assert seq == par
    assert [r.x for r in seq] == sorted([r.x for r in seq], reverse=False) or \
           [r.x for r in seq] == list(grid)


def test_continuation_policy_emits_both_traces():
    # the traces come from hysteresis_sweep; run_sweep refuses the policy
    grid = tuple(np.linspace(0.2, 16.0, 159))
    result = hysteresis_sweep(bistable_point(ep0=0.0), SweepAxis.EP0, grid)
    assert len(result.up) == len(result.down) == len(grid)
    assert result.up[0].x == grid[0] and result.down[0].x == grid[-1]
    cfg = SweepConfig(base=bistable_point(ep0=0.0), axis=SweepAxis.EP0,
                      grid=grid, observable=Observable.W0,
                      branch_policy=BranchPolicy.CONTINUATION)
    with pytest.raises(InvalidGrid):
        run_sweep(cfg)


def test_overflowing_point_raises_at_its_turn_in_a_sweep(monkeypatch):
    solved = []
    solve = sweep.solve_steady_branches
    monkeypatch.setattr(sweep, "solve_steady_branches",
                        lambda p, **kw: solved.append(p.ep0) or solve(p, **kw))
    cfg = SweepConfig(base=bistable_point(), axis=SweepAxis.EP0,
                      grid=(2.0, 4.0, 1e200, 2e200), observable=Observable.W0)
    with pytest.raises(NonFinite) as err:
        run_sweep(cfg)
    assert str(err.value) == "the inversion cubic overflows at these parameters"
    # the points before it are solved, none after it
    assert [x for x in solved if x != 1e200] == [2.0, 4.0]


@pytest.mark.parametrize("fault", ["overflow", "non_finite"])
def test_failing_branch_raises_at_its_turn_in_a_sweep(monkeypatch, fault):
    error, message = faulty_jacobian(monkeypatch, fault, at=6.0)
    solved = []
    solve = sweep.solve_steady_branches
    monkeypatch.setattr(sweep, "solve_steady_branches",
                        lambda p, **kw: solved.append(p.ep0) or solve(p, **kw))
    cfg = SweepConfig(base=bistable_point(), axis=SweepAxis.EP0,
                      grid=(2.0, 4.0, 6.0, 8.0), observable=Observable.W0)
    with pytest.raises(error) as err:
        run_sweep(cfg)
    assert str(err.value) == message
    assert solved == [2.0, 4.0, 6.0]


def test_point_without_roots_is_pole_skipped(monkeypatch):
    rootless_grid_row(monkeypatch, at=4.0)
    cfg = SweepConfig(base=bistable_point(), axis=SweepAxis.EP0,
                      grid=(2.0, 4.0, 6.0), observable=Observable.W0,
                      branch_policy=BranchPolicy.ALL_BRANCHES)
    rows = run_sweep(cfg)
    (skipped,) = [r for r in rows if r.x == 4.0]
    assert skipped.branch_id == -1 and skipped.flags == {Flag.POLE_SKIPPED}
    assert np.isnan(skipped.value_re)
    assert {r.x for r in rows if r.branch_id >= 0} == {2.0, 6.0}


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("observable", [Observable.CHI3, Observable.KERR,
                                        Observable.NONLIN_ABS])
def test_chi3_rows_at_zero_pump_are_pole_skipped(observable, backend):
    # 3 ep0^2 is 0 at 1e-200 and subnormal at 1e-160: chi3 is undefined there
    cfg = SweepConfig(base=kerr_point(), axis=SweepAxis.EP0,
                      grid=(0.0, 1e-200, 1e-160, 0.5, 1.0),
                      observable=observable, backend=backend)
    rows = run_sweep(cfg)
    skipped, pumped = rows[:3], rows[3:]
    assert len(pumped) == 2
    for row in skipped:
        assert row.flags == {Flag.POLE_SKIPPED}
        assert np.isnan(row.value_re) and np.isnan(row.value_im)
    assert all(not r.flags and np.isfinite(r.value_re) for r in pumped)


@pytest.mark.parametrize("backend", list(Backend))
def test_chi1_is_finite_at_an_underflowing_pump(backend):
    cfg = SweepConfig(base=kerr_point(), axis=SweepAxis.EP0, grid=(1e-200,),
                      observable=Observable.CHI1, backend=backend)
    (row,) = run_sweep(cfg)
    assert not row.flags
    assert np.isfinite(row.value_re) and np.isfinite(row.value_im)


def test_parabola_vertex_recovered_exactly():
    xs = np.linspace(-2.0, 2.0, 21)
    records = [SpectrumRecord(x, 0, 0.0, -(x - 0.3217) ** 2 + 1.5, 0.0)
               for x in xs]
    peaks = locate_extrema(records, ExtremumKind.PEAK)
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(0.3217, abs=1e-9)
    assert peaks[0][1] == pytest.approx(1.5, abs=1e-9)


def test_extrema_need_three_points():
    records = [SpectrumRecord(0.0, 0, 0.0, 1.0, 0.0),
               SpectrumRecord(1.0, 0, 0.0, 2.0, 0.0)]
    with pytest.raises(TooFewPoints):
        locate_extrema(records, ExtremumKind.PEAK)


def test_extrema_reject_mixed_branches():
    records = [SpectrumRecord(float(x), x % 2, 0.0, 1.0, 0.0) for x in range(5)]
    with pytest.raises(InvalidGrid):
        locate_extrema(records, ExtremumKind.PEAK)


def test_refined_extrema_are_grid_stable():
    # doubling the density of a smooth feature moves the vertex < half a step
    from conftest import absorption_point

    coarse_grid = tuple(np.arange(-6.0, 6.0001, 0.2))
    fine_grid = tuple(np.arange(-6.0, 6.0001, 0.1))

    def positive_side_peak(grid):
        cfg = SweepConfig(base=absorption_point(eta=0.0),
                          axis=SweepAxis.DELTA0, grid=grid,
                          observable=Observable.CHI1)
        peaks = locate_extrema(run_sweep(cfg), ExtremumKind.PEAK,
                               component="im")
        return max(x for x, _ in peaks)  # the spectrum is symmetric

    assert abs(positive_side_peak(coarse_grid) - positive_side_peak(fine_grid)) < 0.1


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_abs_extrema_survive_extreme_magnitudes(scale):
    # squaring the parts overflows at 1e200 and underflows to 0 at 1e-200
    xs = np.linspace(-2.0, 2.0, 21)
    records = [SpectrumRecord(x, 0, 0.0, scale * y, 0.5 * scale * y, frozenset())
               for x, y in zip(xs, 1.5 - 0.1 * (xs - 0.3217) ** 2)]
    ((x, v),) = locate_extrema(records, ExtremumKind.PEAK, component="abs")
    assert x == pytest.approx(0.3217, abs=1e-9)
    assert v == pytest.approx(1.5 * 1.25 ** 0.5 * scale, rel=1e-9)


def test_csv_emission_schema():
    records = [SpectrumRecord(1.0, 0, -0.5, 0.25, -0.125,
                              frozenset({Flag.UNSTABLE, Flag.NON_PHYSICAL}))]
    buf = io.StringIO()
    records_to_csv(records, buf, meta={"observable": "chi1"})
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "# observable=chi1"
    assert lines[1] == "x,branch_id,w0,value_re,value_im,flags"
    assert lines[2] == "1.0,0,-0.5,0.25,-0.125,NonPhysical|Unstable"


def test_json_emission_schema():
    records = [SpectrumRecord(2.0, 1, -0.25, float("nan"), float("nan"),
                              frozenset({Flag.POLE_SKIPPED}))]
    buf = io.StringIO()
    records_to_json(records, buf, meta={"observable": "chi1"})
    payload = json.loads(buf.getvalue())
    assert payload["meta"] == {"observable": "chi1"}
    assert payload["records"] == [{
        "x": 2.0, "branch_id": 1, "w0": -0.25, "value_re": None,
        "value_im": None, "flags": ["PoleSkipped"],
    }]


def test_records_are_immutable_tuples_with_fixed_fields():
    rec = SpectrumRecord(1.0, 0, -0.5, 0.25, -0.125)
    assert SpectrumRecord._fields == ("x", "branch_id", "w0", "value_re",
                                      "value_im", "flags")
    assert rec.flags == frozenset() and type(rec.flags) is frozenset
    with pytest.raises(AttributeError):
        rec.value_re = 0.0
    with pytest.raises(AttributeError):
        rec.flags = frozenset({Flag.UNSTABLE})
    assert rec == SpectrumRecord(1.0, 0, -0.5, 0.25, -0.125, frozenset())


def _reference_csv(records, meta):
    """The CSV writer as first written: one f-string per row, each float
    through ``repr(float(v))``, each row's flags sorted anew."""
    def fmt(v):
        return repr(float(v))
    out = [f"# {key}={value}\n" for key, value in meta.items()]
    out.append("x,branch_id,w0,value_re,value_im,flags\n")
    for r in records:
        out.append(f"{fmt(r.x)},{r.branch_id},{fmt(r.w0)},{fmt(r.value_re)},"
                   f"{fmt(r.value_im)},{'|'.join(sorted(f.value for f in r.flags))}\n")
    return "".join(out)


def _reference_json(records, meta):
    """The JSON writer as first written, with one sorted flag list per row."""
    def num(v):
        return None if v != v else v
    rows = [{"x": r.x, "branch_id": r.branch_id, "w0": num(r.w0),
             "value_re": num(r.value_re), "value_im": num(r.value_im),
             "flags": sorted(f.value for f in r.flags)} for r in records]
    return json.dumps({"meta": meta, "records": rows}, indent=1) + "\n"


def _edge_records():
    nan, inf = float("nan"), float("inf")
    return [
        SpectrumRecord(-0.0, 0, -0.0, -0.0, 0.0),
        SpectrumRecord(0.5, -1, nan, nan, nan, frozenset({Flag.POLE_SKIPPED})),
        SpectrumRecord(inf, 1, -inf, inf, -inf,
                       frozenset({Flag.UNSTABLE, Flag.NON_PHYSICAL})),
        SpectrumRecord(5e-324, 2, -5e-324, 1e308, -1e308,
                       frozenset({Flag.NON_PHYSICAL})),
        SpectrumRecord(3, -1, 0.1, 1 / 3, -2.5e-17),  # an int-valued x
    ]


def _random_records(seed, n=300):
    """Rows whose floats are random bit patterns, NaN and inf included."""
    rng = random.Random(seed)
    flag_sets = [frozenset(), frozenset({Flag.POLE_SKIPPED}),
                 frozenset({Flag.NON_PHYSICAL}),
                 frozenset({Flag.UNSTABLE, Flag.NON_PHYSICAL}),
                 frozenset({Flag.UNSTABLE, Flag.NON_PHYSICAL, Flag.POLE_SKIPPED})]

    def bits():
        return struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
    return [SpectrumRecord(bits(), rng.randint(-1, 2), bits(), bits(), bits(),
                           rng.choice(flag_sets)) for _ in range(n)]


@pytest.mark.parametrize("records", [_edge_records(), _random_records(3), []],
                         ids=["edge", "random", "empty"])
def test_writers_match_the_per_row_reference_bytes(records):
    meta = {"observable": "chi1", "P1": ""}
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    records_to_csv(records, Sink(), meta)
    assert len(writes) == 1
    assert writes[0] == _reference_csv(records, meta)
    buf = io.StringIO()
    records_to_json(records, buf, meta)
    assert buf.getvalue() == _reference_json(records, meta)

