#!/usr/bin/env python3
"""Write, or compare, a digest of seeded steady solves, responses and sweeps.

Usage: PYTHONPATH=src python scripts/seeded_points.py PERFBENCH_DIR > digest.jsonl
       PYTHONPATH=src python scripts/seeded_points.py --compare BASE HEAD [--rel-tol T]

The digest covers the paths the figures do not reach: a lone cubic, root
polish and branch assembly, and an uncertified sideband row per point, on
10,000 ``wide_box_params`` points (seeds 1 and 2); on every tenth point,
each branch's closed-form response beside its linear solve, and a
certified stacked delta0 sweep of branches far outside the preset box
with its closed-form twin that builds the same rows without the solve; the
branches of every grid point of ``steady.grid_roots``, whose branch rows
are assembled a grid at a time, on each member grid of the
inversion presets 2a-3b (whose figure rows carry only w0 and the labels)
and on 5 seeded 41-point ``wide_box_params`` grids along each of ep0,
delta_p0 and g0; every grid point's branch labels on 2,001-point ep0
windows of 2b around its folds and Hopf points (``LABEL_WINDOWS``), where
an eigenvalue nears the stability margin; the corner points of the branch
assembly that no seeded point reaches (``corner_points``), each solved
alone and on a 4-point ep0 grid (``CORNER_GRID``); and the 2,500 extreme
points of test_response on both backends.  Each line is one JSON object.  A point's
branches carry every field, the Jacobian's 49 entries and each response; a
failure is its ``Type: message``, so the errors are compared too.  Run it
once with each commit's ``src`` on PYTHONPATH, then compare the two
digests.

``--compare`` with T = 0 (the default) requires identical lines.  With
T > 0 a ``wide_box`` point or sweep must keep every string (labels, flags,
error types and messages), boolean, integer and NaN position, and every
other float within T relative (a complex value against its modulus, a
branch's ``jacobian`` as one matrix against its largest entry; a branch's
``residual`` is not compared).  An extreme point may change its outcome
(branches or error), its error type or its branch count only where its
exact cubic, rebuilt in rationals from ``extreme_points()``, finds the new
result no worse (``_exact_verdict``); each such change, and every label,
``physical`` or error-message change there, is printed.  Exits 1 at the
first difference beyond these rules.
"""
import argparse
import json
import pathlib
import random
import sys
from fractions import Fraction

import numpy as np


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _complex(z) -> dict:
    return {"re": z.real, "im": z.imag}


#: 2b's ep0 windows around its folds (2.680, 14.381) and Hopf points
#: (2.700, 20.875, 129.66).
LABEL_WINDOWS = ((2.60, 2.75), (14.3, 14.45), (20.7, 21.0), (129.5, 129.8))


#: The ep0 grid of each corner point; ep0 = 0 is undriven.
CORNER_GRID = (0.0, 2.0, 4.0, 6.0)


def corner_points():
    """(name, params) of the branch assembly's corners that the public solve
    reaches and no seeded point does: ``tw_overflows``, ``NonFinite`` where
    2 eta omega_k0 ** 3 overflows though omega_k0 ** 3 does not, and
    ``undriven``, whose real double root w = 1 sits on a coefficient pole
    beside its ground state w = -1."""
    from qdresponse.model import Params

    yield "tw_overflows", Params(delta_p0=-8.0, delta_c0=0.8, g0=1.0, eta=1.0, omega_k0=5e102,
                                 kappa_c0=1.35, gamma_q0=0.1, ep0=8.0)
    yield "undriven", Params(delta_p0=1.0, delta_c0=1.0, g0=1.0, eta=0.1, omega_k0=10.0,
                             kappa_c0=1.0, gamma_q0=0.1, ep0=0.0)


def extreme_points(count: int = 2500):
    """The extreme points of the digest and of test_response: ``count``
    seeded points that set one to three fields of a preset far outside the
    preset box, most between 1e20 and 1e200 and some between 1e-320 and
    1e308, a third of them with g0 = 0."""
    from qdresponse.model import PARAM_FIELDS
    from qdresponse.presets import figure_ids, get_preset

    rng = random.Random(1175)
    bases = [get_preset(fid).params.replace(delta0=get_preset(fid).oracle_delta0)
             for fid in figure_ids()]
    for _ in range(count):
        changes = {}
        for key in rng.sample(PARAM_FIELDS, rng.randint(1, 3)):
            lo, hi = (20, 200) if rng.random() < 0.7 else (-320, 308)
            changes[key] = 10.0 ** rng.uniform(lo, hi)
        if rng.random() < 0.3:
            changes["g0"] = 0.0
        yield rng.choice(bases).replace(**changes)


def digest(perfbench_dir: str, points: int = 5000, extremes: int = 2500, grids: int = 5,
           window_points: int = 2001):
    """The digest's lines, as objects: ``points`` seeded ``wide_box`` points
    per seed with a sweep on each backend on every tenth, the preset member
    grids, ``grids`` seeded grids per steady axis, the labels of
    ``window_points`` points of each 2b window and the corner points, then
    ``extremes`` extreme points."""
    sys.path.insert(0, perfbench_dir)
    from workloads import wide_box_params
    from qdresponse.model import SweepAxis
    from qdresponse.presets import get_preset
    from qdresponse.response import Backend, transmission_point
    from qdresponse.steady import grid_roots, solve_steady_branches
    from qdresponse.sweep import BranchPolicy, Observable, SweepConfig, run_sweep

    def response(p, b, backend):
        try:
            r = transmission_point(p, b, backend)
        except Exception as exc:
            return _error(exc)
        return {k: _complex(v) if isinstance(v, complex) else v
                for k, v in r._asdict().items()}

    def steady(p, backends, roots=None):
        try:
            branches = solve_steady_branches(p, roots=roots)
        except Exception as exc:
            return _error(exc)
        return [{"w0": b.w0, "a0": _complex(b.a0), "sigma0": _complex(b.sigma0),
                 "q0": b.q0, "residual": b.residual, "stability": b.stability.value,
                 "physical": b.physical, "jacobian": b.jacobian.ravel().tolist(),
                 "response": [response(p, b, backend) for backend in backends]}
                for b in branches]

    def sweep(p, backend=Backend.LINEAR_SOLVE):
        try:
            records = run_sweep(SweepConfig(
                p, SweepAxis.DELTA0, grid, Observable.A_OUT_PLUS, backend,
                branch_policy=BranchPolicy.ALL_BRANCHES))
        except Exception as exc:
            return _error(exc)
        return [[r.x, r.branch_id, r.w0, r.value_re, r.value_im,
                 "|".join(sorted(f.value for f in r.flags))] for r in records]

    def grid_steady(p, axis, xs):
        return [[x, steady(px, [], roots)] for x, px, roots in grid_roots(p, axis, xs)]

    grid = tuple(np.linspace(-60.0, 60.0, 64).tolist())
    for seed in (1, 2):
        rng = random.Random(seed)
        for k in range(points):
            p = wide_box_params(rng)
            yield {"set": "wide_box", "seed": seed, "k": k,
                   "steady": steady(p, list(Backend) if k % 10 == 0
                                    else [Backend.LINEAR_SOLVE])}
            if k % 10 == 0:
                yield {"set": "sweep", "seed": seed, "k": k, "records": sweep(p)}
                yield {"set": "sweep", "seed": seed, "k": k, "backend": "closed_form",
                       "records": sweep(p, Backend.CLOSED_FORM)}
    for fid in ("2a", "2b", "3a", "3b"):
        preset = get_preset(fid)
        for member, p in preset.members():
            yield {"set": "grid", "figure": fid, "member": member,
                   "steady": grid_steady(p, preset.axis, preset.grid)}
    rng = random.Random(3)
    axes = {SweepAxis.EP0: (0.0, 300.0), SweepAxis.DELTA_P0: (-50.0, 50.0),
            SweepAxis.G0: (0.0, 20.0)}
    for axis, (lo, hi) in axes.items():
        xs = np.linspace(lo, hi, 41).tolist()
        for k in range(grids):
            yield {"set": "grid", "axis": axis.value, "k": k,
                   "steady": grid_steady(wide_box_params(rng), axis, xs)}
    preset = get_preset("2b")
    for lo, hi in LABEL_WINDOWS:
        xs = np.linspace(lo, hi, window_points).tolist()
        yield {"set": "labels", "figure": "2b", "window": [lo, hi], "labels": [
            [x, _error(found) if isinstance(found, Exception)
             else [b.stability.value for b in found[3]]]
            for x, _, found in grid_roots(preset.params, preset.axis, xs)]}
    for name, p in corner_points():
        yield {"set": "corner", "point": name, "steady": steady(p, [Backend.LINEAR_SOLVE])}
        yield {"set": "corner", "point": name, "axis": "ep0",
               "steady": grid_steady(p, SweepAxis.EP0, CORNER_GRID)}
    for k, p in enumerate(extreme_points(extremes)):  # each on both backends
        yield {"set": "extreme", "k": k, "steady": steady(p, list(Backend))}


def _close(a, b, rel_tol: float, where: str) -> None:
    """AssertionError unless ``a`` and ``b`` are equal but for floats within
    ``rel_tol`` relative, NaN matching NaN.  A complex value ({"re", "im"})
    without NaN is compared relative to its modulus.  A branch's
    ``residual``, the rounding noise of the cubic at its root, is not
    compared: it changes wholly when the root moves by an ulp, and the
    solve itself bounds it."""
    assert type(a) is type(b), (where, a, b)
    if isinstance(a, float):
        if a != a or b != b:
            assert a != a and b != b, (where, "NaN position", a, b)
        elif a != b:
            assert abs(a - b) <= rel_tol * max(abs(a), abs(b)), (where, a, b)
    elif isinstance(a, list):
        assert len(a) == len(b), (where, "length", len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            _close(x, y, rel_tol, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), (where, "keys")
        if a.keys() == {"re", "im"}:
            x, y = complex(a["re"], a["im"]), complex(b["re"], b["im"])
            if x == x and y == y:  # no NaN part
                assert x == y or abs(x - y) <= rel_tol * max(abs(x), abs(y)), (where, x, y)
                return
        for key in a.keys() - {"residual"}:
            if key == "jacobian":
                _close_matrix(a[key], b[key], rel_tol, f"{where}.{key}")
            else:
                _close(a[key], b[key], rel_tol, f"{where}.{key}")
    else:
        assert a == b, (where, a, b)


def _close_matrix(a, b, rel_tol: float, where: str) -> None:
    """AssertionError unless two matrices' entries (flat lists) keep their
    NaN positions and infinities and every other entry is within
    ``rel_tol`` of the largest finite entry: an entry that cancels, such as
    delta_p0 + q0, moves by far more than T relative to itself."""
    assert len(a) == len(b), (where, "length", len(a), len(b))
    finite = [abs(x) for x in a + b if abs(x) < float("inf")]
    scale = max(finite, default=0.0)
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            assert x != x and y != y or abs(x - y) <= rel_tol * scale, (f"{where}[{i}]", x, y)


#: The relative half-width of the interval on which a branch's exact cubic
#: must change sign for the branch to be exact.
EXACT_REL = Fraction(1, 10 ** 12)


def _exact_cubic(p) -> list:
    """The exact coefficients, in rationals, of p's inversion cubic
    C(w) = -gamma1 (w + 1) |d1(w)|^2 - 4 g0^2 ep0^2 w, with
    d1(w) = (kappa + i delta_c)(s - i) + 2 i g0^2 w and
    s = delta_p - 2 omega_k eta w."""
    dp, dc, kc, g0, eta, wk, ep0, g1 = map(Fraction, (
        p.delta_p0, p.delta_c0, p.kappa_c0, p.g0, p.eta, p.omega_k0, p.ep0, p.gamma1_ratio))
    m = 2 * wk * eta
    re0, re1 = kc * dp + dc, -kc * m
    im0, im1 = dc * dp - kc, 2 * g0 * g0 - dc * m
    e2, e1, e0 = re1 ** 2 + im1 ** 2, 2 * (re0 * re1 + im0 * im1), re0 ** 2 + im0 ** 2
    return [-g1 * e2, -g1 * (e1 + e2), -g1 * (e0 + e1) - 4 * g0 ** 2 * ep0 ** 2, -g1 * e0]


def _exact_branches(cubic, steady) -> int:
    """The number of distinct ``w0`` among the branches of ``steady`` (a
    branch list or an error) whose exact cubic changes sign on
    [w0 (1 - EXACT_REL), w0 (1 + EXACT_REL)]."""
    def value(w):
        return ((cubic[0] * w + cubic[1]) * w + cubic[2]) * w + cubic[3]

    exact = set()
    for branch in [] if isinstance(steady, str) else steady:
        w0 = Fraction(branch["w0"])
        lo, hi = value(w0 - abs(w0) * EXACT_REL), value(w0 + abs(w0) * EXACT_REL)
        if lo * hi <= 0:
            exact.add(w0)
    return len(exact)


_EXTREMES = []


def _exact_verdict(a, b, k: int, where: str) -> str:
    """The exact check of an extreme point whose outcome, error type or
    branch count changed from ``a`` to ``b``; AssertionError unless the new
    result is no worse: every new branch exact and at least as many
    distinct exact branches kept, or a typed error where no old branch was
    exact."""
    if not _EXTREMES:
        _EXTREMES.extend(extreme_points())
    cubic = _exact_cubic(_EXTREMES[k])
    old, new = _exact_branches(cubic, a), _exact_branches(cubic, b)
    if isinstance(b, str):
        assert old == 0, (where, "an exact branch became an error", a, b)
    else:
        assert new == len({x["w0"] for x in b}) and new >= old, \
            (where, "exact branches", old, new, a, b)
    return f"{old} -> {new} exact"


def _summary(steady) -> str:
    return steady.split(":")[0] if isinstance(steady, str) else f"{len(steady)} branches"


def _extreme_changes(a, b, where: str, k: int) -> list:
    """The printed changes of one extreme point, ``k`` of
    ``extreme_points()``; AssertionError if its outcome, error type or
    branch count changes to a worse result (``_exact_verdict``)."""
    if isinstance(a, str) != isinstance(b, str) or (
            a.split(":")[0] != b.split(":")[0] if isinstance(a, str) else len(a) != len(b)):
        return [f"{where}: {_summary(a)} -> {_summary(b)}, "
                f"{_exact_verdict(a, b, k, where)}"]
    if isinstance(a, str):
        return [] if a == b else [f"{where}: message {a!r} -> {b!r}"]
    return [f"{where}: w0 {x['w0']!r} {key} {x[key]!r} -> w0 {y['w0']!r} {key} {y[key]!r}"
            for x, y in zip(a, b) for key in ("stability", "physical") if x[key] != y[key]]


_DATA = ("steady", "records", "labels")


def compare(base_lines, head_lines, rel_tol: float = 0.0) -> list:
    """The printed changes between two digests, given as lists of lines;
    raises AssertionError at the first difference beyond the rules above."""
    assert len(base_lines) == len(head_lines), ("line count", len(base_lines), len(head_lines))
    changes = []
    for n, (line, head_line) in enumerate(zip(base_lines, head_lines), 1):
        if line == head_line:
            continue
        assert rel_tol > 0.0, (f"line {n}", "differs")
        base, head = json.loads(line), json.loads(head_line)
        ids = {k: v for k, v in base.items() if k not in _DATA}
        assert ids == {k: v for k, v in head.items() if k not in _DATA}, \
            (f"line {n}", "ids")
        where = " ".join(f"{k}={v}" for k, v in ids.items())
        if base["set"] == "extreme":
            changes += _extreme_changes(base["steady"], head["steady"], where, base["k"])
        else:
            _close(base, head, rel_tol, where)
    return changes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("perfbench_dir", nargs="?")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--rel-tol", type=float, default=0.0)
    args = parser.parse_args(argv)
    if (args.perfbench_dir is None) == (args.compare is None):
        parser.error("give PERFBENCH_DIR or --compare BASE HEAD")
    if not args.rel_tol >= 0.0:
        parser.error("--rel-tol must be >= 0")
    if not __debug__:
        parser.error("the comparison is made of assertions: run without -O")
    if args.perfbench_dir is not None:
        for line in digest(args.perfbench_dir):
            print(json.dumps(line))
        return 0
    base, head = (pathlib.Path(path).read_text(encoding="utf-8").splitlines()
                  for path in args.compare)
    try:
        changes = compare(base, head, args.rel_tol)
    except AssertionError as exc:
        print(f"differs: {exc}", file=sys.stderr)
        return 1
    for change in changes:
        print(change)
    print(f"{len(base)} lines agree within {args.rel_tol:g}; "
          f"{len(changes)} changes at extreme points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
