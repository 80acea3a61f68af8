import io
import json

import numpy as np
import pytest

from qdresponse.errors import InvalidGrid, TooFewPoints
from qdresponse.model import SweepAxis
from qdresponse.records import Flag, SpectrumRecord
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

from conftest import bistable_point, detuning_scan_point, transmission_point_params


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
    """A delta_s0 sweep over a stable branch never needs the SVD test."""
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD taken on a detuning sweep")

    monkeypatch.setattr("qdresponse.response.np.linalg.svd", no_svd)
    cfg = SweepConfig(base=transmission_point_params(),
                      axis=SweepAxis.DELTA_S0,
                      grid=tuple(np.linspace(-10.0, 30.0, 81)),
                      observable=Observable.T2)
    rows = run_sweep(cfg)
    assert len(rows) == 81 and not any(r.flags for r in rows)


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
    grid = tuple(np.linspace(0.2, 16.0, 159))
    cfg = SweepConfig(base=bistable_point(ep0=0.0), axis=SweepAxis.EP0,
                      grid=grid, observable=Observable.W0,
                      branch_policy=BranchPolicy.CONTINUATION)
    records = run_sweep(cfg)
    up = [r for r in records if r.branch_id == 0]
    down = [r for r in records if r.branch_id == 1]
    assert len(up) == len(down) == len(grid)
    assert up[0].x == grid[0] and down[0].x == grid[-1]


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
    payload = json.loads(records_to_json(records))
    assert payload == [{
        "x": 2.0, "branch_id": 1, "w0": -0.25, "value_re": None,
        "value_im": None, "flags": ["PoleSkipped"],
    }]
