"""Command-line front end.

Subcommands: steady, bistability, spectrum, kerr, peaks, figure, oracle-check.
Exit codes: 0 success, 1 usage/configuration error (bad parameter values and
bad grids included), 2 numerical failure or no result.  Identical invocations produce
byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from . import oracle, presets, response, steady, sweep
from .errors import (
    BadConfig,
    InvalidGrid,
    NegativeAmplitude,
    NonFinite,
    NonPositiveRate,
    QdResponseError,
    UnknownFigure,
    WriteFailure,
)
from .model import (
    Params,
    SweepAxis,
    checked_grid,
    default_signal_amplitude,
    params_from_mapping,
    read_param_file,
    validate_params,
)


def _member(enum, label: str, value: str):
    try:
        return enum(value)
    except ValueError:
        raise BadConfig(f"unknown {label} {value!r}; "
                        f"use {', '.join(m.value for m in enum)}") from None


class _NoResult(Exception):
    """A run that completed but has no result to give: exit 2."""


def _params(base: Params | None, items, config=None) -> Params:
    """Layer ``--config`` and ``--param KEY=VALUE`` items over ``base``.

    Out-of-range or non-finite values are configuration errors here: they
    come from the command line, not from a computation.
    """
    mapping = dict(vars(base)) if base is not None else {}
    try:
        if config:
            mapping.update(read_param_file(config))
        for item in items:
            key, eq, raw = item.partition("=")
            if not eq:
                raise BadConfig(f"--param expects KEY=VALUE, got {item!r}")
            mapping[key.strip()] = raw.strip()
        if not mapping:
            raise BadConfig("no parameters given; use --preset, --config or --param")
        return params_from_mapping(mapping)
    except (NonPositiveRate, NegativeAmplitude, NonFinite) as exc:
        raise BadConfig(str(exc)) from None


def _point(args):
    """The ``--preset`` entry (or None) and the parameters the options give."""
    preset = presets.get_preset(args.preset) if args.preset else None
    return preset, _params(preset and preset.params, args.param, args.config)


def _grid(args, preset):
    if args.grid:
        return presets.parse_grid(args.grid)
    if preset is not None:
        return preset.grid
    raise BadConfig("missing --grid start:stop:points")


def _axis(args, preset, default: SweepAxis) -> SweepAxis:
    """The ``--axis``, else the preset's axis, else ``default``."""
    if args.axis:
        return _member(SweepAxis, "axis", args.axis)
    return preset.axis if preset else default


def _params_meta(p: Params) -> dict:
    return {k: repr(v) for k, v in vars(p).items()}


# -- output ------------------------------------------------------------------

def _save(path, write) -> str:
    """Create ``path``, hand it to ``write`` and return the path."""
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise WriteFailure(f"cannot write {path}: {exc}") from None
    with fh:
        write(fh)
    return path


def _emit(out, write) -> None:
    """Run ``write`` on stdout, or on the file ``out`` and report it."""
    if out:
        print(f"wrote {_save(out, write)}")
    else:
        write(sys.stdout)


def _record_writer(records, fmt, meta):
    """A writer of sweep records as CSV or JSON with metadata."""
    write = sweep.records_to_csv if fmt == "csv" else sweep.records_to_json
    return lambda fh: write(records, fh, meta)


def _hysteresis(p, axis, grid, stem, fmt, meta) -> list[str]:
    """Run the hysteresis sweep; write ``<stem>_up``/``<stem>_down`` with P1/P2."""
    result = steady.hysteresis_sweep(p, axis, grid)
    meta = {**meta,
            "P1": "" if result.turning_up is None else repr(result.turning_up),
            "P2": "" if result.turning_down is None else repr(result.turning_down)}
    return [_save(f"{stem}_{tag}.{fmt}",
                  _record_writer(rows, fmt, {**meta, "trace": tag}))
            for tag, rows in (("up", result.up), ("down", result.down))]


def _clean_sweep(cfg, context=""):
    """The sweep's records; ``_NoResult`` if no grid point is clean."""
    records = sweep.run_sweep(cfg)
    if any(not r.flags and r.value_re == r.value_re for r in records):
        return records
    raise _NoResult(f"every grid point failed{context}")


def _sweep(args, context="", min_points=1):
    """Resolve preset, parameters, axis, observable and grid, then sweep."""
    preset, p = _point(args)
    axis = _axis(args, preset, SweepAxis.DELTA0)
    obs = _member(sweep.Observable, "observable", args.observable) \
        if args.observable else (preset.observable if preset else None)
    if obs is None:
        raise BadConfig("missing --observable")
    grid = _grid(args, preset)
    checked_grid(grid, min_points, ascending=False)
    cfg = sweep.SweepConfig(
        base=p, axis=axis, grid=grid, observable=obs,
        backend=response.Backend(args.backend),
        branch_policy=sweep.BranchPolicy(args.branch_policy),
    )
    return cfg, _clean_sweep(cfg, context)


# -- subcommands -------------------------------------------------------------

def _cmd_steady(args) -> int:
    _, p = _point(args)
    lines = ["w0,re_a0,im_a0,re_sigma0,im_sigma0,q0,residual,stability,physical"]
    for b in steady.solve_steady_branches(p):
        lines.append(",".join([
            repr(b.w0), repr(b.a0.real), repr(b.a0.imag),
            repr(b.sigma0.real), repr(b.sigma0.imag), repr(b.q0),
            repr(b.residual), b.stability.value, str(b.physical).lower(),
        ]))
    text = "\n".join(lines) + "\n"
    _emit(args.out, lambda fh: fh.write(text))
    return 0


def _cmd_bistability(args) -> int:
    preset, p = _point(args)
    axis = _axis(args, preset, SweepAxis.EP0)
    for path in _hysteresis(p, axis, _grid(args, preset), args.out or "bistability",
                            args.format, {**_params_meta(p), "axis": axis.value}):
        print(f"wrote {path}")
    return 0


def _cmd_spectrum(args) -> int:
    cfg, records = _sweep(args, " (pole or no steady branch)")
    meta = {**_params_meta(cfg.base), "axis": cfg.axis.value,
            "observable": cfg.observable.value, "backend": cfg.backend.value}
    _emit(args.out, _record_writer(records, args.format, meta))
    return 0


def _cmd_peaks(args) -> int:
    _, records = _sweep(args, min_points=3)
    kind = sweep.ExtremumKind(args.kind)
    found = sweep.locate_extrema(records, kind, component=args.component)
    text = "\n".join(["x,value"] + [f"{x!r},{v!r}" for x, v in found]) + "\n"
    _emit(args.out, lambda fh: fh.write(text))
    return 0


def _cmd_figure(args) -> int:
    preset = presets.get_preset(args.figure_id)
    stem = args.out or f"fig{preset.figure_id}"
    wrote = []
    for label, base in preset.members():
        p = _params(base, args.param)
        meta = {**_params_meta(p), "figure": preset.figure_id, "note": preset.note,
                "axis": preset.axis.value, "observable": preset.observable.value,
                "assumed": " ".join(preset.assumed)}
        member = stem + ("_" + label.replace("=", "-") if label else "")
        if preset.branch_policy is sweep.BranchPolicy.CONTINUATION:
            wrote += _hysteresis(p, preset.axis, preset.grid, member, args.format, meta)
            continue
        cfg = sweep.SweepConfig(p, preset.axis, preset.grid, preset.observable,
                                branch_policy=preset.branch_policy)
        records = _clean_sweep(cfg, f" for {label or 'preset'}")
        wrote.append(_save(f"{member}.{args.format}",
                           _record_writer(records, args.format, meta)))
    for path in wrote:
        print(f"wrote {path}")
    return 0


def _cmd_oracle_check(args) -> int:
    if not 0.0 < args.tolerance < math.inf:
        raise BadConfig(f"--tolerance must be finite and > 0, got {args.tolerance:g}")
    preset, p = _point(args)
    if p.delta0 == 0.0:
        p = p.replace(delta0=preset.oracle_delta0 if preset else presets.ORACLE_DELTA0)
    if p.es0 == 0.0:
        p = p.replace(es0=default_signal_amplitude(p))
    if p.es0 == 0.0:
        raise BadConfig("the signal amplitude is 0 (es0 defaults to 1e-3*ep0 "
                        "and ep0 is 0); pass --param es0=VALUE with VALUE > 0")
    validate_params(p)
    branches = steady.solve_steady_branches(p)
    stable = [b for b in branches if b.stability is steady.Stability.STABLE]
    if not stable:
        raise _NoResult("no stable branch at this point")
    branch = min(stable, key=lambda b: b.w0)
    dt = min(args.dt, oracle.max_step(p))
    traj = oracle.integrate_mean_field(
        p, oracle.steady_state_vector(branch), args.t_end, dt)
    if args.dump_trajectory:
        path = _save(args.dump_trajectory, lambda fh: oracle.dump_trajectory(traj, fh))
        print(f"wrote {path}")
    demod = oracle.demodulate_sidebands(traj, p.delta0)
    bands = response.solve_sidebands(p, branch)
    dev_a = oracle.relative_deviation(demod.a_plus, bands.a_plus)
    dev_s = oracle.relative_deviation(demod.sigma_plus, bands.sigma_plus)
    dev = max(dev_a, dev_s)
    print(f"branch w0 = {branch.w0!r}")
    print(f"a_plus  deviation = {dev_a:.3e}")
    print(f"sigma_plus deviation = {dev_s:.3e}")
    print(f"max relative deviation = {dev:.3e} (tolerance {args.tolerance:g})")
    return 0 if dev < args.tolerance else 2


# -- argument parser ---------------------------------------------------------

#: Options shared by several subcommands, by flag.
_OPTIONS = {
    "--preset": dict(help="start from a catalog entry (e.g. 4b)"),
    "--config": dict(help="flat key=value parameter file"),
    "--param": dict(action="append", default=[], metavar="KEY=VALUE",
                    help="override one parameter (repeatable)"),
    "--axis": dict(),
    "--grid": dict(help="start:stop:points"),
    "--observable": dict(),
    "--backend": dict(default="linear_solve",
                      choices=("linear_solve", "closed_form")),
    "--branch-policy": dict(default="stable_only",
                            choices=("stable_only", "all_branches")),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(help="output path (default: stdout or derived name)"),
}
_POINT = ("--preset", "--config", "--param")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdr",
        description="Steady-state, linear and nonlinear optical response of a "
                    "driven dot-cavity-phonon system.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *options, **defaults):
        """A subcommand; each option is a flag of _OPTIONS or a (flag, kwargs) pair."""
        s = subs.add_parser(name, help=summary)
        for option in options:
            flag, kwargs = (option, _OPTIONS[option]) if isinstance(option, str) \
                else option
            s.add_argument(flag, **kwargs)
        s.set_defaults(func=func, **defaults)

    command("steady", _cmd_steady, "solve the steady-state branches",
            *_POINT, "--out")
    command("bistability", _cmd_bistability, "hysteresis continuation sweep",
            *_POINT, "--axis", "--grid", "--format", "--out")
    command("spectrum", _cmd_spectrum, "sweep an observable over a grid",
            *_POINT, "--axis", "--grid", "--observable", "--backend",
            "--branch-policy", "--format", "--out")
    command("kerr", _cmd_spectrum, "Kerr coefficient vs signal-exciton detuning",
            *_POINT, ("--axis", dict(default="delta_s0")), "--grid", "--backend",
            "--branch-policy", "--format", "--out",
            observable=sweep.Observable.KERR.value)
    command("peaks", _cmd_peaks, "locate spectrum extrema",
            *_POINT, "--axis", "--grid", "--observable", "--backend",
            ("--kind", dict(default="peak", choices=("peak", "dip"))),
            ("--component", dict(default="re", choices=("re", "im", "abs"))),
            "--out", branch_policy=sweep.BranchPolicy.STABLE_ONLY.value)
    command("figure", _cmd_figure, "emit the sweep data for a catalog preset",
            ("figure_id", dict(metavar="ID")), "--param", "--format", "--out")
    command("oracle-check", _cmd_oracle_check,
            "compare the sideband solve against time-domain integration plus "
            "demodulation", *_POINT,
            ("--t-end", dict(type=float, default=260.0)),
            ("--dt", dict(type=float, default=0.01)),
            ("--tolerance", dict(type=float, default=1e-3)),
            ("--dump-trajectory", dict(metavar="PATH", help="also write the "
                                       "integrated trajectory as CSV")))
    return parser


def _joined_grid(argv: list[str]) -> list[str]:
    """``--grid -10:10:5`` as ``--grid=-10:10:5``.

    argparse reads a value that starts with ``-`` as an option unless it is a
    plain number, so a grid with a negative start is joined to its flag.
    Only a value that starts like a number is joined: ``--grid --out x``
    stays a usage error.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--grid" and re.match(r"-[\d.]", arg):
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first call and reused: a parse keeps
    no state in the parser."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_joined_grid(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (BadConfig, InvalidGrid, UnknownFigure, WriteFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QdResponseError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
