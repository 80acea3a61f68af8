"""Parameter-grid evaluation, feature extraction and record emission."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidGrid, NoRealRoot, PoleHit, SingularSystem, TooFewPoints, ZeroPump
from .model import Params, SweepAxis, apply_axis, validate_params
from .records import Flag, SpectrumRecord
from .response import Backend, transmission_point
from .steady import Stability, certify_detuning, hysteresis_sweep, solve_steady_branches

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


def _validated_grid(cfg: SweepConfig) -> list[float]:
    xs = [float(x) for x in cfg.grid]
    if not xs:
        raise InvalidGrid("sweep grid is empty")
    if not all(math.isfinite(x) for x in xs):
        raise InvalidGrid("sweep grid values must be finite")
    diffs = [b - a for a, b in zip(xs, xs[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise InvalidGrid("sweep grid must be strictly monotone")
    return xs


def _observable_value(cfg: SweepConfig, p: Params, branch) -> tuple[float, float]:
    point = transmission_point(p, branch, cfg.backend,
                               allow_unstable=True)
    obs = cfg.observable
    if obs is Observable.CHI1:
        return point.chi1.real, point.chi1.imag
    if obs is Observable.CHI3:
        return point.chi3.real, point.chi3.imag
    if obs is Observable.A_OUT_PLUS:
        return point.a_out_plus.real, point.a_out_plus.imag
    if obs is Observable.T2:
        return point.T2, 0.0
    if obs is Observable.KERR:
        return point.chi3.real, 0.0
    if obs is Observable.NONLIN_ABS:
        return point.chi3.imag, 0.0
    raise AssertionError(obs)


def _point_records(cfg: SweepConfig, x: float, p: Params, branches) -> list[SpectrumRecord]:
    rows = []
    for branch_id, b in enumerate(branches):
        flags = set()
        if not b.physical:
            flags.add(Flag.NON_PHYSICAL)
        if b.stability is not Stability.STABLE:
            if cfg.branch_policy is BranchPolicy.STABLE_ONLY:
                continue
            flags.add(Flag.UNSTABLE)
            flags.add(Flag.NON_PHYSICAL)
        if cfg.observable is Observable.W0:
            rows.append(SpectrumRecord(x, branch_id, b.w0, b.w0, 0.0,
                                       frozenset(flags)))
            continue
        try:
            re, im = _observable_value(cfg, p, b)
        except (PoleHit, SingularSystem, ZeroPump):
            flags.add(Flag.POLE_SKIPPED)
            re = im = float("nan")
        rows.append(SpectrumRecord(x, branch_id, b.w0, re, im,
                                   frozenset(flags)))
    return rows


def run_sweep(cfg: SweepConfig) -> list[SpectrumRecord]:
    """Evaluate the observable over the grid under the branch policy.

    Records are ordered by grid index then branch id.  Per-point numerical
    failures become flags on the record, never fabricated values.  Under the
    continuation policy (inversion only) the up trace is emitted with
    branch_id 0 and the reversed-grid down trace with branch_id 1.
    """
    validate_params(cfg.base)
    xs = _validated_grid(cfg)
    if cfg.branch_policy is BranchPolicy.CONTINUATION:
        if cfg.observable is not Observable.W0:
            raise InvalidGrid("continuation sweeps only support the w0 observable")
        result = hysteresis_sweep(cfg.base, cfg.axis, xs)
        rows = [SpectrumRecord(r.x, 0, r.w0, r.value_re, r.value_im, r.flags)
                for r in result.up]
        rows += [SpectrumRecord(r.x, 1, r.w0, r.value_re, r.value_im, r.flags)
                 for r in result.down]
        return rows

    steady_independent = cfg.axis in (SweepAxis.DELTA0, SweepAxis.DELTA_S0)
    base_branches = None
    if steady_independent:
        # the same branches serve every grid point, so one certificate each
        # lets the response skip its per-point SVD
        base_branches = [certify_detuning(b)
                         for b in solve_steady_branches(cfg.base)]
    rows = []
    for x in xs:
        p = apply_axis(cfg.base, cfg.axis, x)
        if steady_independent:
            branches = base_branches
        else:
            try:
                branches = solve_steady_branches(p)
            except NoRealRoot:
                rows.append(SpectrumRecord(x, -1, float("nan"), float("nan"),
                                           float("nan"),
                                           frozenset({Flag.POLE_SKIPPED})))
                continue
        rows += _point_records(cfg, x, p, branches)
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


def records_to_csv(records, fh, meta: dict | None = None) -> None:
    """Emit records as CSV; optional metadata goes into leading # lines."""
    if meta:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
    fh.write("x,branch_id,w0,value_re,value_im,flags\n")
    for r in records:
        fh.write(f"{_fmt(r.x)},{r.branch_id},{_fmt(r.w0)},{_fmt(r.value_re)},"
                 f"{_fmt(r.value_im)},{r.flags_text()}\n")


def records_to_json(records, fh=None, meta: dict | None = None):
    """Emit records as a JSON array (or wrapped object when meta is given)."""
    rows = [{
        "x": r.x,
        "branch_id": r.branch_id,
        "w0": None if r.w0 != r.w0 else r.w0,
        "value_re": None if r.value_re != r.value_re else r.value_re,
        "value_im": None if r.value_im != r.value_im else r.value_im,
        "flags": sorted(f.value for f in r.flags),
    } for r in records]
    payload = {"meta": meta, "records": rows} if meta else rows
    text = json.dumps(payload, indent=1)
    if fh is None:
        return text
    fh.write(text)
    fh.write("\n")
    return None
