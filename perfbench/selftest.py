#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at reduced size, untraced and traced,
and checks that each result line carries exactly the metrics BENCHMARK.json
names, each with its unit, and reports correct outputs.  Then checks that a
corrupted reference summary makes a run fail, and that a directory holding
only the benchmark (no package source) exits non-zero without a result.
"""
from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench" / "selftest"


def bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, str(pathlib.Path("perfbench") / "run.py"),
                          *args], capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, result, out.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            code, result, err = bench("--workload", wl["name"], "--seed", "7",
                                      "--seconds", "0", "--trace", str(trace),
                                      "--quick")
            tag = f"{wl['name']} trace {trace}"
            if result is None:
                problems.append(f"{tag}: no result line (exit {code}): {err[-500:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if code != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: exit {code}, result {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            print(f"ok? {not problems}  {tag}", flush=True)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        corruptions = {
            "spectra": lambda r: r["presets"]["4b"]["fig4b.csv"]["norms"].update(
                value_re=r["presets"]["4b"]["fig4b.csv"]["norms"]["value_re"] * (1 + 1e-7)),
            "branches": lambda r: r["presets"]["2b"]["fig2b_up.csv"].update(P1="14.45"),
        }
        for name, corrupt in corruptions.items():
            bad = json.loads(json.dumps(ref))
            corrupt(bad)
            path = WORK / f"bad-{name}.json"
            path.write_text(json.dumps(bad), encoding="utf-8")
            code, result, _ = bench("--workload", name, "--seed", "7", "--seconds", "0",
                                    "--trace", "0", "--quick", "--reference", str(path))
            if code == 0 or result is None or result["correct"] or result["failed"] < 1:
                problems.append(f"corrupted {name} reference was not detected: "
                                f"exit {code}, result {result}")
            print(f"ok? {not problems}  corrupted {name} reference", flush=True)

        bare = WORK / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, result, _ = bench("--workload", "spectra", "--seed", "1",
                                "--seconds", "1", "--trace", "0", cwd=bare)
        if code == 0 or result is not None:
            problems.append(f"bare benchmark directory: exit {code}, result {result}")
        print(f"ok? {not problems}  bare directory fails", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for line in problems:
        print(f"FAIL: {line}")
    print("selftest passed" if not problems else f"selftest failed ({len(problems)})")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
