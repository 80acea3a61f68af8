#!/usr/bin/env python3
"""qdresponse benchmark: one workload per invocation, closed loop, one thread.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``./src``; the
benchmark never installs or builds anything.  The workload is repeated in
passes over the same seeded inputs; the number of passes is ``--seconds`` over
the workload's nominal pass time, so a run lasts about ``--seconds`` and the
operations it attempts (and any that fail) depend only on its arguments.
Operation times are corrected for the load other tenants put on the host
(``speed.py``; perfbench/README.md explains why and how).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
passes plus the tracing overhead (traced over untraced time, minus one).
Every pass checks every output; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A result
file with the provenance and the sample counts goes to ``.perfbench/results``.
The exit code is 0 only if every output was correct.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
#: One worker thread everywhere: BLAS pools and the package's sweep pool.
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "QDR_THREADS")
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qdresponse.cli\n"
    "from qdresponse import presets\n"
    "presets.figure_ids()\n"
    "print(time.perf_counter() - t0)\n"
)
STEADY_ERRORS = ("RootResidual", "NoRealRoot", "NonRealCoefficients",
                 "DegenerateDenominator")
RESPONSE_ERRORS = ("SingularSystem", "PoleHit", "ZeroPump")


def setup_package():
    """Pin one thread and import the package from the checkout's ``src``."""
    for var in SINGLE_THREAD_ENV:
        os.environ[var] = "1"
    if not (SRC / "qdresponse" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdresponse

    if pathlib.Path(qdresponse.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported {qdresponse.__file__}, not the "
                         f"package under {SRC}")


# -- provenance --------------------------------------------------------------

def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "qdresponse").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in SINGLE_THREAD_ENV},
    }


# -- measurement -------------------------------------------------------------

def measure_setup(n: int) -> list[float]:
    """Import the package and load the catalog in ``n`` fresh interpreters."""
    samples = []
    for _ in range(n):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                             capture_output=True, text=True, cwd=ROOT,
                             timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _merge_facts(total: Counter, facts: Counter):
    for key, value in facts.items():
        if key.startswith("max_"):
            total[key] = max(total[key], value)
        else:
            total[key] += value


def run_pass(workload, tracer=None) -> dict:
    """Run every operation once, recording its start and end; check outputs
    after the end is taken."""
    from qdresponse.errors import QdResponseError

    spans, facts, errors = [], Counter(), Counter()
    attempted = failed = 0
    clock = time.perf_counter
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in workload.ops:
            t0 = clock()
            try:
                out = op.run()
            except QdResponseError as exc:
                spans.append((t0, clock()))
                attempted += 1
                failed += 1
                errors[type(exc).__name__] += 1
                facts["errors"] += 1
                continue
            spans.append((t0, clock()))
            n, bad, op_facts = op.check(out)
            attempted += n
            failed += bad
            _merge_facts(facts, op_facts)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"spans": spans, "facts": facts, "errors": errors,
              "attempted": attempted, "failed": failed}
    if tracer is not None:
        result["trace"] = {
            "calls": Counter(tracer.calls), "self_s": Counter(tracer.self_s),
            "counts": Counter(tracer.counts), "errors": Counter(tracer.errors),
        }
    return result


def _trace_mismatches(workload, passes) -> list[str]:
    """Tracer counts that differ from counts derived from the outputs."""
    out = []
    for i, ps in enumerate(passes):
        for key, want in workload.expect(ps["facts"]).items():
            kind, name = key.split(":")
            got = ps["trace"][kind][name]
            if got != want:
                out.append(f"pass {i}: {kind} {name} = {got}, outputs imply {want}")
    return out


def end_to_end(workload, passes, setup) -> dict:
    """Metrics a user sees, from untraced passes only.

    Each operation's time is the mean over the passes of its duration at the
    reference host speed (``speed.SpeedProbe``); ``wall_s`` sums them over
    the workload.
    """
    import numpy

    per_op = list(zip(*(ps["times"] for ps in passes)))
    op_times = [statistics.fmean(samples) for samples in per_op]
    wall = sum(op_times)
    units = sum(op.units for op in workload.ops)
    # one value per unit of work: each unit takes its operation's time per unit
    per_point_us = numpy.repeat(
        [1e6 * t / op.units for t, op in zip(op_times, workload.ops)],
        [op.units for op in workload.ops])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (units / wall, "1/s"),
        "point_p50_us": (float(numpy.percentile(per_point_us, 50)), "us"),
        "point_p99_us": (float(numpy.percentile(per_point_us, 99)), "us"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(traced, untraced, attempted, failed) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass values.

    Self times are divided by their pass's mean slowdown.
    """
    from tracer import TRACED

    def med(kind, name):
        return statistics.median(
            ps["trace"][kind][name] / (ps["slowdown"] if kind == "self_s" else 1)
            for ps in traced)

    def med_fact(name):
        return statistics.median(ps["facts"][name] for ps in traced)

    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = (med("calls", name), "count")
        out[f"{name}.self_s"] = (med("self_s", name), "s")

    def ratio(a, b):
        return a / b if b else 0.0

    tp = "response.transmission_point"
    out[f"{tp}.us_per_call"] = (
        1e6 * ratio(out[f"{tp}.self_s"][0], out[f"{tp}.calls"][0]), "us")
    out["sweep.records"] = (med("counts", "sweep.records"), "count")
    out["sweep.records_to_csv.bytes"] = (med_fact("bytes"), "bytes")
    im = "oracle.integrate_mean_field"
    steps = med("counts", "oracle.steps")
    out[f"{im}.steps"] = (steps, "count")
    out[f"{im}.us_per_step"] = (1e6 * ratio(out[f"{im}.self_s"][0], steps), "us")
    solves = out["steady.solve_steady_branches.calls"][0]
    out["steady.roots_per_solve"] = (
        ratio(out["steady.inversion_roots.calls"][0], solves), "ratio")
    out["steady.branches_per_solve"] = (
        ratio(med("counts", "steady.branches"), solves), "ratio")
    out["steady.max_fixed_point_residual"] = (
        max(ps["facts"]["max_fixed_point_residual"] for ps in traced), "ratio")
    for module, names in (("steady", STEADY_ERRORS), ("response", RESPONSE_ERRORS)):
        for err in names:
            key = f"{module}.errors.{err}"
            out[key] = (med("errors", key), "count")
    out["oracle.max_rel_dev"] = (
        max(ps["facts"]["max_rel_dev"] for ps in traced), "ratio")
    out["failed_frac"] = (ratio(failed, attempted), "ratio")
    t_traced = statistics.median(sum(ps["times"]) for ps in traced)
    t_plain = statistics.median(sum(ps["times"]) for ps in untraced)
    out["trace.overhead_frac"] = (t_traced / t_plain - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("spectra", "branches", "wide_box", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced workload sizes (self-test only)")
    parser.add_argument("--reference", help="reference summary file "
                        "(default: perfbench/reference.json)")
    args = parser.parse_args(argv)

    setup_package()
    import reference
    import speed
    import workloads
    from tracer import Tracer

    ref = reference.load(args.reference or reference.REFERENCE)
    setup = measure_setup(SETUP_SAMPLES)
    workdir = WORK_ROOT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir, ref,
                                   quick=args.quick)
        tracer = Tracer() if args.trace else None
        n_passes = max(2 if tracer is not None else 1,
                       math.ceil(args.seconds / workload.pass_s))
        passes = []
        probe = speed.SpeedProbe()
        with probe:
            for i in range(n_passes):
                traced = tracer is not None and i % 2 == 1
                passes.append(run_pass(workload, tracer if traced else None))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for ps in passes:
        ps["times"] = [probe.corrected(t0, t1) for t0, t1 in ps["spans"]]
        ps["slowdown"] = probe.slowdown(ps["spans"][0][0], ps["spans"][-1][1])
    untraced = [ps for ps in passes if "trace" not in ps]
    traced = [ps for ps in passes if "trace" in ps]
    attempted = sum(ps["attempted"] for ps in passes)
    failed = sum(ps["failed"] for ps in passes)
    errors = sum((ps["errors"] for ps in passes), Counter())
    mismatches = _trace_mismatches(workload, traced)
    wrong = failed - sum(errors.values())
    correct = wrong == 0 and not mismatches

    if args.trace:
        metrics = per_layer(traced, untraced, attempted, failed)
    else:
        metrics = end_to_end(workload, untraced, setup)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "provenance": provenance(),
        "size": {"operations": len(workload.ops), "unit": workload.unit,
                 "units_per_pass": sum(op.units for op in workload.ops)},
        "samples": {"passes_untraced": len(untraced), "passes_traced": len(traced),
                    "setup": len(setup),
                    "percentile_population": sum(op.units for op in workload.ops)},
        "setup_samples_s": setup,
        "attempted": attempted,
        "failed": failed,
        "wrong_outputs": wrong,
        "errors_by_type": dict(errors),
        "trace_mismatches": mismatches,
        "speed_samples": len(probe.samples),
        "pass_traced": ["trace" in ps for ps in passes],
        "pass_slowdowns": [ps["slowdown"] for ps in passes],
        "pass_raw_s": [sum(t1 - t0 for t0, t1 in ps["spans"]) for ps in passes],
        "pass_corrected_s": [sum(ps["times"]) for ps in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in mismatches:
        print(f"trace mismatch: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, {attempted} attempted, "
          f"{failed} failed {dict(errors)}, result file {path}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
