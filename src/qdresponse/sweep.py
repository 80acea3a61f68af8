"""Parameter-grid evaluation, feature extraction and record emission."""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidGrid, NoRealRoot, PoleHit, SingularSystem, TooFewPoints, ZeroPump
from .model import Params, SweepAxis, apply_axis, checked_grid, validate_params
from .records import Flag, SpectrumRecord
from .response import Backend, certify_detuning, solve_unit_grid, transmission_point
from .steady import Stability, grid_roots, solve_steady_branches

__all__ = [
    "Observable",
    "BranchPolicy",
    "ExtremumKind",
    "SweepConfig",
    "run_sweep",
    "locate_extrema",
    "records_to_csv",
    "records_to_json",
]

#: Grid points per stacked sideband solve on a detuning axis.  Stacking a
#: whole grid holds every point's system at once: on the figure presets that
#: raised peak memory by a quarter, and 256-point blocks leave it flat.
_BLOCK = 256


class Observable(Enum):
    CHI1 = "chi1"
    CHI3 = "chi3"
    A_OUT_PLUS = "a_out_plus"
    T2 = "t2"
    KERR = "kerr"
    NONLIN_ABS = "nonlin_abs"
    W0 = "w0"


class BranchPolicy(Enum):
    ALL_BRANCHES = "all_branches"
    STABLE_ONLY = "stable_only"
    CONTINUATION = "continuation"


class ExtremumKind(Enum):
    PEAK = "peak"
    DIP = "dip"


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: base point, axis, grid, observable, backend, branch policy."""

    base: Params
    axis: SweepAxis
    grid: tuple
    observable: Observable
    backend: Backend = Backend.LINEAR_SOLVE
    branch_policy: BranchPolicy = BranchPolicy.STABLE_ONLY


def _observable_value(cfg: SweepConfig, p: Params, branch, unit) -> tuple[float, float]:
    point = transmission_point(p, branch, cfg.backend, unit=unit)
    obs = cfg.observable
    if obs is Observable.CHI1:
        return point.chi1.real, point.chi1.imag
    if obs is Observable.A_OUT_PLUS:
        return point.a_out_plus.real, point.a_out_plus.imag
    if obs is Observable.T2:
        return point.T2, 0.0
    if point.chi3 != point.chi3:  # the rest derive from chi3
        raise ZeroPump("chi3 is undefined where 3 ep0^2 is not a normal float")
    if obs is Observable.CHI3:
        return point.chi3.real, point.chi3.imag
    if obs is Observable.KERR:
        return point.chi3.real, 0.0
    if obs is Observable.NONLIN_ABS:
        return point.chi3.imag, 0.0
    raise AssertionError(obs)


def _emits(cfg: SweepConfig, branch) -> bool:
    """Whether ``branch`` gets a row at each grid point."""
    return branch.stability is Stability.STABLE or \
        cfg.branch_policy is not BranchPolicy.STABLE_ONLY


def _point_records(cfg: SweepConfig, x: float, p: Params, branches,
                   units) -> list[SpectrumRecord]:
    """The rows of one grid point; ``units`` holds each branch's pre-solved
    unit vector at ``p`` (see ``transmission_point``) or ``None``."""
    rows = []
    for branch_id, (b, unit) in enumerate(zip(branches, units)):
        if not _emits(cfg, b):
            continue
        flags = set()
        if not b.physical:
            flags.add(Flag.NON_PHYSICAL)
        if b.stability is not Stability.STABLE:
            flags.add(Flag.UNSTABLE)
            flags.add(Flag.NON_PHYSICAL)
        if cfg.observable is Observable.W0:
            rows.append(SpectrumRecord(x, branch_id, b.w0, b.w0, 0.0,
                                       frozenset(flags)))
            continue
        try:
            re, im = _observable_value(cfg, p, b, unit)
        except (PoleHit, SingularSystem, ZeroPump):
            flags.add(Flag.POLE_SKIPPED)
            re = im = float("nan")
        rows.append(SpectrumRecord(x, branch_id, b.w0, re, im,
                                   frozenset(flags)))
    return rows


def run_sweep(cfg: SweepConfig) -> list[SpectrumRecord]:
    """Evaluate the observable over the grid under the branch policy.

    Records are ordered by grid index then branch id.  Per-point numerical
    failures become flags on the record, never fabricated values.  The
    continuation policy is not a sweep: ``steady.hysteresis_sweep`` runs it.

    On a detuning axis the base point's branches serve every grid point.
    The grid is walked in fixed blocks of ``_BLOCK`` points: each branch
    that emits response rows solves its certified rows of the block in one
    stacked solve (``response.solve_unit_grid``), and every row's
    observables still come from one ``transmission_point`` call, given the
    row's solution.  On any other axis each grid point's roots and branches
    come from one ``steady.grid_roots`` call over the grid; a point that
    raises a typed error other than ``NoRealRoot`` raises it at its turn.
    """
    validate_params(cfg.base)
    xs = checked_grid(cfg.grid, minimum=1, ascending=False)
    if cfg.branch_policy is BranchPolicy.CONTINUATION:
        raise InvalidGrid("continuation sweeps run through steady.hysteresis_sweep")

    rows = []
    if cfg.axis in (SweepAxis.DELTA0, SweepAxis.DELTA_S0):
        # the same branches serve every grid point, so one certificate each
        # lets the response skip its per-point SVD and stack its solves
        branches = [certify_detuning(b) for b in solve_steady_branches(cfg.base)]
        stacked = cfg.backend is Backend.LINEAR_SOLVE and \
            cfg.observable is not Observable.W0
        for start in range(0, len(xs), _BLOCK):
            block = xs[start:start + _BLOCK]
            ps = [apply_axis(cfg.base, cfg.axis, x) for x in block]
            deltas = [p.delta0 for p in ps]
            units = [solve_unit_grid(b, deltas) if stacked and _emits(cfg, b)
                     else [None] * len(block) for b in branches]
            for x, p, point_units in zip(block, ps, zip(*units)):
                rows += _point_records(cfg, x, p, branches, point_units)
        return rows
    for x, p, found in grid_roots(cfg.base, cfg.axis, xs):
        try:
            branches = solve_steady_branches(p, roots=found)
        except NoRealRoot:
            rows.append(SpectrumRecord(x, -1, float("nan"), float("nan"),
                                       float("nan"), frozenset({Flag.POLE_SKIPPED})))
            continue
        rows += _point_records(cfg, x, p, branches, [None] * len(branches))
    return rows


def _component(rec: SpectrumRecord, component: str) -> float:
    if component == "re":
        return rec.value_re
    if component == "im":
        return rec.value_im
    if component == "abs":
        return (rec.value_re ** 2 + rec.value_im ** 2) ** 0.5
    raise InvalidGrid(f"unknown component {component!r}; use re, im or abs")


def locate_extrema(records, kind: ExtremumKind,
                   component: str = "re") -> list[tuple[float, float]]:
    """Interior local extrema with parabolic sub-grid refinement.

    Requires a single-branch record stream with at least three points; exact
    for quadratic data.
    """
    rows = [r for r in records
            if _component(r, component) == _component(r, component)]
    if len({r.branch_id for r in rows}) > 1:
        raise InvalidGrid("locate_extrema needs a single-branch record stream")
    if len(rows) < 3:
        raise TooFewPoints(f"need >= 3 points, got {len(rows)}")
    xs = [r.x for r in rows]
    ys = [_component(r, component) for r in rows]
    sign = 1.0 if kind is ExtremumKind.PEAK else -1.0
    found = []
    for k in range(1, len(rows) - 1):
        y0, y1, y2 = sign * ys[k - 1], sign * ys[k], sign * ys[k + 1]
        if y1 > y0 and y1 > y2:
            x1, x2, x3 = xs[k - 1], xs[k], xs[k + 1]
            denom = (x1 - x2) * (x1 - x3) * (x2 - x3)
            a = (x3 * (ys[k] - ys[k - 1]) + x2 * (ys[k - 1] - ys[k + 1])
                 + x1 * (ys[k + 1] - ys[k])) / denom
            b = (x3 * x3 * (ys[k - 1] - ys[k]) + x2 * x2 * (ys[k + 1] - ys[k - 1])
                 + x1 * x1 * (ys[k] - ys[k + 1])) / denom
            if a == 0.0:
                found.append((xs[k], ys[k]))
                continue
            xv = -b / (2.0 * a)
            c = ys[k] - a * xs[k] * xs[k] - b * xs[k]
            found.append((xv, a * xv * xv + b * xv + c))
    return found


def _fmt(v: float) -> str:
    return repr(float(v))


def records_to_csv(records, fh, meta: dict) -> None:
    """Emit records as CSV; the metadata goes into leading # lines."""
    for key, value in meta.items():
        fh.write(f"# {key}={value}\n")
    fh.write("x,branch_id,w0,value_re,value_im,flags\n")
    for r in records:
        fh.write(f"{_fmt(r.x)},{r.branch_id},{_fmt(r.w0)},{_fmt(r.value_re)},"
                 f"{_fmt(r.value_im)},{r.flags_text()}\n")


def records_to_json(records, fh, meta: dict) -> None:
    """Emit records as the JSON object ``{"meta": meta, "records": [row, ...]}``."""
    rows = [{
        "x": r.x,
        "branch_id": r.branch_id,
        "w0": None if r.w0 != r.w0 else r.w0,
        "value_re": None if r.value_re != r.value_re else r.value_re,
        "value_im": None if r.value_im != r.value_im else r.value_im,
        "flags": sorted(f.value for f in r.flags),
    } for r in records]
    fh.write(json.dumps({"meta": meta, "records": rows}, indent=1))
    fh.write("\n")
