"""Parameter-grid evaluation, feature extraction and record emission."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import attrgetter

from .errors import InvalidGrid, NoRealRoot, PoleHit, SingularSystem, TooFewPoints, ZeroPump
from .model import Params, SweepAxis, apply_axis, checked_grid, validate_params
from .records import Flag, SpectrumRecord
from .response import (Backend, certify_detuning, sideband_generator, solve_unit_grid,
                       transmission_point)
from .steady import Stability, grid_roots, row_flags, solve_steady_branches

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


#: Members read per branch per point, as plain globals: on CPython 3.11 a
#: member read through its class runs ``EnumType.__getattr__``'s hook.
_STABLE_ONLY, _STABLE = BranchPolicy.STABLE_ONLY, Stability.STABLE


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


def _defined_chi3(point) -> complex:
    if point.chi3 != point.chi3:
        raise ZeroPump("chi3 is undefined where 3 ep0^2 is not a normal float")
    return point.chi3


#: Each response observable's (re, im) from a ``ResponsePoint``; ``W0`` has
#: no entry, its rows come from the branch alone.
_VALUE = {
    Observable.CHI1: attrgetter("chi1.real", "chi1.imag"),
    Observable.A_OUT_PLUS: attrgetter("a_out_plus.real", "a_out_plus.imag"),
    Observable.T2: lambda point: (point.T2, 0.0),
    Observable.CHI3: lambda point: (_defined_chi3(point).real, point.chi3.imag),
    Observable.KERR: lambda point: (_defined_chi3(point).real, 0.0),
    Observable.NONLIN_ABS: lambda point: (_defined_chi3(point).imag, 0.0),
}


def _emitting(cfg: SweepConfig, branches) -> list[tuple]:
    """``(branch_id, branch, flags)`` of each branch that gets a row under
    the branch policy."""
    return [(branch_id, b, row_flags(b)) for branch_id, b in enumerate(branches)
            if cfg.branch_policy is not _STABLE_ONLY or b.stability is _STABLE]


#: The errors that make a response row a failure row, not a raised error.
_ROW_ERRORS = (PoleHit, SingularSystem, ZeroPump)


def _branch_rows(xs, ps, branch_id: int, b, flags, value, backend, units) -> list:
    """One branch's rows over grid points ``xs`` with their parameters
    ``ps``.  ``W0``'s (``value is None``) come from the branch alone; any
    other observable's each from one ``transmission_point`` call, given the
    branch's ``solve_unit_grid`` entry ``units`` at its point (``None``
    where the sweep is not stacked).  A row whose response fails gets NaN
    values and the branch's flags with ``PoleSkipped``."""
    w0, rows = b.w0, []
    # the NamedTuple's own __new__, without its Python frame; a loop, not a
    # comprehension, whose frame a steady axis's one-point calls would pay
    if value is None:
        for x in xs:
            rows.append(tuple.__new__(SpectrumRecord, (x, branch_id, w0, w0, 0.0, flags)))
        return rows
    for x, p, unit in zip(xs, ps, units):
        try:
            re, im = value(transmission_point(p, b, backend, unit=unit))
        except _ROW_ERRORS:
            rows.append(SpectrumRecord(x, branch_id, w0, float("nan"), float("nan"),
                                       flags | {Flag.POLE_SKIPPED}))
            continue
        rows.append(tuple.__new__(SpectrumRecord, (x, branch_id, w0, re, im, flags)))
    return rows


def run_sweep(cfg: SweepConfig) -> list[SpectrumRecord]:
    """Evaluate the observable over the grid under the branch policy.

    Records are ordered by grid index then branch id.  Per-point numerical
    failures become flags on the record, never fabricated values.  The
    continuation policy is not a sweep: ``steady.hysteresis_sweep`` runs it.

    Every row comes from ``_branch_rows``, one call per emitting branch over
    a run of grid points.  On a detuning axis the base point's branches, and
    their flags, serve every grid point, and the grid is walked in fixed
    blocks of ``_BLOCK`` points; each branch's rows over a block come from
    one call, and the branches' lists are interleaved.  With the
    linear-solve backend and a response observable each emitting branch
    certifies its K once, and per block solves the block in one
    ``response.solve_unit_grid`` call whose entries its rows are given;
    any other detuning sweep builds the same rows without them.  On any
    other axis each grid point's roots and branches come from one
    ``steady.grid_roots`` call over the grid, and each emitting branch's
    row from one call over that point; a point that raises a typed error
    other than ``NoRealRoot`` raises it at its turn.
    """
    validate_params(cfg.base)
    xs = checked_grid(cfg.grid, minimum=1, ascending=False)
    if cfg.branch_policy is BranchPolicy.CONTINUATION:
        raise InvalidGrid("continuation sweeps run through steady.hysteresis_sweep")

    value, backend = _VALUE.get(cfg.observable), cfg.backend
    rows = []
    if cfg.axis in (SweepAxis.DELTA0, SweepAxis.DELTA_S0):
        emitting = _emitting(cfg, solve_steady_branches(cfg.base))
        stacked = backend is Backend.LINEAR_SOLVE and value is not None
        # one K and certificate per stacked branch serve every grid point
        systems = [(K, certify_detuning(K)) for _, b, _ in emitting
                   for K in [sideband_generator(b)]] if stacked else []
        n = len(emitting)  # rows per grid point
        for start in range(0, len(xs), _BLOCK):
            block = xs[start:start + _BLOCK]
            ps = [apply_axis(cfg.base, cfg.axis, x) for x in block]
            if stacked:  # each branch's solve made as its rows are built
                deltas = [p.delta0 for p in ps]
                units = (solve_unit_grid(K, deltas, safe) for K, safe in systems)
            else:
                units = [repeat(None)] * n
            lists = [_branch_rows(block, ps, branch_id, b, flags, value, backend, u)
                     for (branch_id, b, flags), u in zip(emitting, units)]
            # grid index, then branch id: branch k fills every n-th row
            merged = [None] * (n * len(block))
            for k, branch_rows in enumerate(lists):
                merged[k::n] = branch_rows
            rows += merged
        return rows
    for x, p, found in grid_roots(cfg.base, cfg.axis, xs):
        try:
            branches = solve_steady_branches(p, roots=found)
        except NoRealRoot:
            rows.append(SpectrumRecord(x, -1, float("nan"), float("nan"),
                                       float("nan"), frozenset({Flag.POLE_SKIPPED})))
            continue
        for branch_id, b, flags in _emitting(cfg, branches):
            rows += _branch_rows((x,), (p,), branch_id, b, flags, value, backend,
                                 (None,))
    return rows


_COMPONENT = {"re": attrgetter("value_re"), "im": attrgetter("value_im"),
              "abs": lambda r: math.hypot(r.value_re, r.value_im)}


def locate_extrema(records, kind: ExtremumKind,
                   component: str = "re") -> list[tuple[float, float]]:
    """Interior local extrema with parabolic sub-grid refinement.

    Requires a single-branch record stream with at least three points; exact
    for quadratic data.
    """
    if component not in _COMPONENT:
        raise InvalidGrid(f"unknown component {component!r}; use re, im or abs")
    value = _COMPONENT[component]
    rows = [r for r in records if value(r) == value(r)]
    if len({r.branch_id for r in rows}) > 1:
        raise InvalidGrid("locate_extrema needs a single-branch record stream")
    if len(rows) < 3:
        raise TooFewPoints(f"need >= 3 points, got {len(rows)}")
    xs = [r.x for r in rows]
    ys = [value(r) for r in rows]
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


def _flag_names(records) -> dict:
    """Each distinct flag set of ``records`` with its sorted flag names."""
    return {flags: sorted(f.value for f in flags)
            for flags in {r.flags for r in records}}


def records_to_csv(records, fh, meta: dict) -> None:
    """Emit a sequence of records as CSV, the metadata in leading # lines:
    floats as ``repr(float(v))``, flags as their sorted names joined by
    ``|`` (made once per distinct flag set), in one ``fh.write``.

    Each float object is formatted once: a column that holds the same
    object as the row before, and a ``value_re`` that is its row's ``w0``,
    reuse its text.  Identity, not equality, decides, so ``-0.0`` beside
    ``0.0`` and each NaN object get their own text.
    """
    text = {flags: "|".join(names) for flags, names in _flag_names(records).items()}
    lines = [f"# {key}={value}\n" for key, value in meta.items()]
    lines.append("x,branch_id,w0,value_re,value_im,flags\n")
    x = w0 = re = im = object()  # the row before's float objects; none at first
    for row_x, branch_id, row_w0, row_re, row_im, flags in records:
        if row_x is not x:
            x, x_text = row_x, repr(float(row_x))
        if row_w0 is not w0:
            w0, w0_text = row_w0, repr(float(row_w0))
        if row_re is w0:
            re, re_text = row_re, w0_text
        elif row_re is not re:
            re, re_text = row_re, repr(float(row_re))
        if row_im is not im:
            im, im_text = row_im, repr(float(row_im))
        lines.append(f"{x_text},{branch_id},{w0_text},{re_text},{im_text},{text[flags]}\n")
    fh.write("".join(lines))


def _json_scalar(v) -> str:
    """``v`` as ``json.dumps`` writes it: an int or a finite float by its
    ``repr``, anything else (NaN, an infinity, a subclass) through
    ``json.dumps`` itself."""
    if type(v) is float and v - v == 0.0 or type(v) is int:
        return repr(v)
    return json.dumps(v)


def _json_number(v) -> str:
    """A value column's text: ``null`` where ``v`` is NaN."""
    return "null" if v != v else _json_scalar(v)


def records_to_json(records, fh, meta: dict) -> None:
    """Emit a sequence of records as the JSON object
    ``{"meta": meta, "records": [row, ...]}``; NaN is written as ``null``.

    The bytes are those of ``json.dumps(..., indent=1)`` of that object, but
    each row is filled into a fixed template: ``indent`` sends ``json.dumps``
    to its pure-Python encoder, which costs about eight times the CSV
    writer.  ``meta`` still goes through ``json.dumps``; each distinct flag
    set's list is made once.
    """
    flags = {key: "[\n" + ",\n".join(f"    {json.dumps(name)}" for name in names)
             + "\n   ]" if names else "[]"
             for key, names in _flag_names(records).items()}
    rows = ",\n".join([
        f'  {{\n   "x": {_json_scalar(r.x)},\n   "branch_id": {_json_scalar(r.branch_id)},'
        f'\n   "w0": {_json_number(r.w0)},\n   "value_re": {_json_number(r.value_re)},'
        f'\n   "value_im": {_json_number(r.value_im)},\n   "flags": {flags[r.flags]}\n  }}'
        for r in records])
    # a nested object is the top-level one with each line one space deeper;
    # json.dumps escapes every newline inside a string
    head = json.dumps(meta, indent=1).replace("\n", "\n ")
    fh.write(f'{{\n "meta": {head},\n "records": '
             + (f"[\n{rows}\n ]" if rows else "[]") + "\n}\n")
