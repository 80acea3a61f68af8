"""The four benchmark workloads: their inputs, operations and output checks.

Each workload is a list of operations built from the seed.  An operation is
one closed-loop request: it runs to completion before the next one starts.
``run`` returns the program's output and is timed; ``check`` verifies that
output, untimed, and returns (attempted, failed, facts).  ``facts`` are counts
derived from the outputs alone; the traced run compares them with the
tracer's own counts to prove that no call escaped its span.
"""
from __future__ import annotations

import io
import math
import pathlib
import random
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

from qdresponse import cli, oracle, presets, response, steady
from qdresponse.model import Params, default_signal_amplitude

import reference

SPECTRA_PRESETS = ["4a", "4b", "5a", "5b", "5c", "6a", "6b", "6c", "6d",
                   "7a", "7b", "8a", "8b", "9a", "9b"]
BRANCH_PRESETS = ["2a", "2b", "3a", "3b"]
ORACLE_PRESETS = ["4b", "5a", "9b"]
ORACLE_T_END = 260.0
ORACLE_TOL = 1e-3
WIDE_BOX_POINTS = 5000
#: Scaled tolerance on the mean-field fixed point of a returned branch.  The
#: seed code's worst case over the box is about 2e-13.
FIXED_POINT_TOL = 1e-9

#: Reduced sizes for the self-test.
QUICK = {"spectra": ["4b", "9b"], "branches": ["2b"], "oracle": ["4b"],
         "wide_box": 300}


@dataclass
class Op:
    units: int
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Workload:
    unit: str
    ops: list
    #: Nominal duration of one pass in seconds, on a 2-CPU Intel Xeon virtual
    #: machine.  A run makes ``--seconds`` over this many passes, so the
    #: operations it attempts depend only on its arguments, never on the clock.
    pass_s: float
    #: Maps the facts of one pass to {tracer key: expected count}.
    expect: Callable[[Counter], dict]


# -- spectra and branches: qdr figure into a scratch directory ---------------

def _figure_op(fid: str, workdir: pathlib.Path, ref: dict) -> Op:
    preset = presets.get_preset(fid)
    directions = 2 if preset.branch_policy.value == "continuation" else 1
    units = len(preset.grid) * len(preset.members()) * directions
    outdir = workdir / fid
    outdir.mkdir(parents=True, exist_ok=True)
    argv = ["figure", fid, "--format", "csv", "--out", str(outdir / f"fig{fid}")]
    want = ref["presets"][fid]

    def run():
        for old in outdir.glob("*.csv"):
            old.unlink()
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code):
        facts = Counter(figures=1, solve_points=units)
        failed = 0
        if code != 0:
            return len(want), len(want), facts
        got_files = {p.name: p for p in outdir.glob("*.csv")}
        for name in sorted(set(want) | set(got_files)):
            if name not in got_files or name not in want:
                failed += 1
                continue
            summary = reference.summarize(got_files[name])
            if reference.mismatches(summary, want[name]):
                failed += 1
            facts["files"] += 1
            facts["rows"] += summary["rows"]
            facts["responses"] += summary["responses"]
            facts["bytes"] += got_files[name].stat().st_size
        return max(len(want), len(got_files)), failed, facts

    return Op(units, run, check)


def _figure_workload(ids, rng, workdir, ref, expect, pass_s):
    ids = list(ids)
    rng.shuffle(ids)
    ops = [_figure_op(fid, workdir, ref) for fid in ids]
    return Workload("grid point", ops, pass_s, expect)


def _spectra_expect(facts):
    return {
        "calls:cli.main": facts["figures"],
        "calls:presets.get_preset": facts["figures"],
        "calls:sweep.records_to_csv": facts["files"],
        "calls:sweep.run_sweep": facts["files"],
        "calls:steady.solve_steady_branches": facts["files"],
        "calls:model.apply_axis": facts["solve_points"],
        "calls:response.transmission_point": facts["responses"],
        "counts:sweep.records": facts["rows"],
    }


def _branches_expect(facts):
    return {
        "calls:cli.main": facts["figures"],
        "calls:presets.get_preset": facts["figures"],
        "calls:sweep.records_to_csv": facts["files"],
        "calls:steady.solve_steady_branches": facts["solve_points"],
        "calls:response.transmission_point": 0,
        "counts:sweep.records": facts["rows"],
    }


# -- wide_box: independent random points far outside the preset box ----------

def wide_box_params(rng: random.Random) -> Params:
    """One parameter point; ranges reach well beyond every preset."""
    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    return Params(
        delta_p0=rng.uniform(-50.0, 50.0),
        delta_c0=rng.uniform(-20.0, 20.0),
        g0=rng.uniform(0.0, 20.0),
        eta=rng.uniform(0.0, 1.0),
        omega_k0=log_uniform(0.1, 200.0),
        kappa_c0=log_uniform(0.1, 10.0),
        gamma_q0=log_uniform(0.01, 1.0),
        ep0=rng.uniform(0.0, 300.0),
        delta0=rng.uniform(-50.0, 50.0),
        gamma1_ratio=rng.uniform(1.0, 3.0),
    )


def fixed_point_residual(p: Params, branch) -> float:
    """Largest component of the mean-field right-hand side at the branch,
    each scaled by the magnitudes of the terms that make it up.

    The right-hand side comes from the oracle's ``mean_field_rhs``, a code
    path separate from the steady solver.
    """
    state = oracle.steady_state_vector(branch)
    rhs = oracle.mean_field_rhs(p, state, 0.0, es0=0.0)
    w, sx, sy, au, av, q, qd = state
    g0, shift = p.g0, abs(p.delta_p0 + q)
    scales = (
        p.gamma1_ratio * (abs(w) + 1.0) + 2.0 * g0 * (abs(av * sx) + abs(au * sy)),
        abs(sx) + shift * abs(sy) + 2.0 * g0 * abs(av * w),
        abs(sy) + shift * abs(sx) + 2.0 * g0 * abs(au * w),
        p.kappa_c0 * abs(au) + abs(p.delta_c0 * av) + g0 * abs(sy) + p.ep0,
        p.kappa_c0 * abs(av) + abs(p.delta_c0 * au) + g0 * abs(sx),
        1.0,
        p.gamma_q0 * abs(qd) + p.omega_k0 ** 2 * abs(q)
        + 2.0 * p.eta * p.omega_k0 ** 3 * abs(w),
    )
    return max(abs(r) / (s if s > 0.0 else 1.0) for r, s in zip(rhs, scales))


def _wide_box_op(p: Params) -> Op:
    def run():
        branches = steady.solve_steady_branches(p)
        points = [response.transmission_point(p, b) for b in branches
                  if b.stability is steady.Stability.STABLE]
        return branches, points

    def check(out):
        branches, points = out
        worst = max(fixed_point_residual(p, b) for b in branches)
        finite = all(math.isfinite(t.T) and math.isfinite(abs(t.chi1))
                     for t in points)
        facts = Counter(points=1, responses=len(points))
        facts["max_fixed_point_residual"] = worst
        ok = worst <= FIXED_POINT_TOL and finite
        return 1, 0 if ok else 1, facts

    return Op(1, run, check)


def _wide_box_expect(facts):
    return {
        "calls:steady.solve_steady_branches": facts["points"] + facts["errors"],
        "calls:response.transmission_point": facts["responses"],
    }


# -- oracle: time-domain cross-validation -----------------------------------

def _oracle_op(fid: str, factor: float) -> Op:
    preset = presets.get_preset(fid)
    p = preset.params.replace(delta0=preset.oracle_delta0)
    p = p.replace(es0=default_signal_amplitude(p))
    dt = min(0.01, oracle.max_step(p))
    steps = int(round(ORACLE_T_END / dt))
    es0 = factor * p.es0

    def run():
        stable = [b for b in steady.solve_steady_branches(p)
                  if b.stability is steady.Stability.STABLE]
        branch = min(stable, key=lambda b: b.w0)
        traj = oracle.integrate_mean_field(
            p, oracle.steady_state_vector(branch), ORACLE_T_END, dt, es0=es0)
        return branch, oracle.demodulate_sidebands(traj, p.delta0)

    def check(out):
        branch, demod = out
        bands = response.solve_sidebands(p.replace(es0=es0), branch)
        dev = max(abs(demod.a_plus - bands.a_plus) / abs(bands.a_plus),
                  abs(demod.sigma_plus - bands.sigma_plus) / abs(bands.sigma_plus))
        facts = Counter(trajectories=1, steps=steps)
        facts["max_rel_dev"] = dev
        return 1, 0 if dev < ORACLE_TOL else 1, facts

    return Op(steps, run, check)


def _oracle_expect(facts):
    return {
        "calls:oracle.integrate_mean_field": facts["trajectories"],
        "calls:oracle.demodulate_sidebands": facts["trajectories"],
        "counts:oracle.steps": facts["steps"],
        "calls:response.transmission_point": 0,
    }


# -- construction ------------------------------------------------------------

def build(name: str, seed: int, workdir: pathlib.Path, ref: dict,
          quick: bool = False) -> Workload:
    """The workload ``name`` with inputs made from ``seed``."""
    rng = random.Random(seed)
    if name == "spectra":
        return _figure_workload(QUICK[name] if quick else SPECTRA_PRESETS,
                                rng, workdir, ref, _spectra_expect, 5.0)
    if name == "branches":
        return _figure_workload(QUICK[name] if quick else BRANCH_PRESETS,
                                rng, workdir, ref, _branches_expect, 2.5)
    if name == "wide_box":
        n = QUICK[name] if quick else WIDE_BOX_POINTS
        ops = [_wide_box_op(wide_box_params(rng)) for _ in range(n)]
        return Workload("parameter point", ops, 1.6, _wide_box_expect)
    if name == "oracle":
        ids = list(QUICK[name] if quick else ORACLE_PRESETS)
        rng.shuffle(ids)
        ops = [_oracle_op(fid, f) for fid in ids for f in (1.0, 2.0)]
        return Workload("RK4 step", ops, 1.0, _oracle_expect)
    raise ValueError(f"unknown workload {name!r}")
