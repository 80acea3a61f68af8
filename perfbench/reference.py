"""Compact summaries of emitted dataset files, and the check against them.

A summary holds, for one CSV file written by ``qdr figure``: the row count,
the count of each flag (and of rows with no flag), the ``P1``/``P2`` metadata,
and per numeric column the Euclidean norm of its finite values and the count
of NaN values.  ``reference.json`` holds the summaries of the seed commit's
output; every benchmark run compares its own files against it.

Regenerate (only when the program's answers are meant to change):

    python3 perfbench/reference.py --write
"""
from __future__ import annotations

import json
import math
import pathlib

#: Relative tolerance on norms and P1/P2.  An exact refactor moves the
#: norms by far less (reordered arithmetic, about 1e-13); a wrong answer
#: moves them by far more.
REL_TOL = 1e-9

COLUMNS = ("x", "branch_id", "w0", "value_re", "value_im")
HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def summarize(path) -> dict:
    """Summary of one dataset CSV file."""
    meta = {}
    sums = [0.0] * len(COLUMNS)
    nans = [0] * len(COLUMNS)
    flags = {}
    rows = 0
    responses = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[2:].rstrip("\n").partition("=")
                meta[key] = value
                continue
            if line.startswith("x,"):
                continue
            *numbers, flag_text = line.rstrip("\n").split(",")
            rows += 1
            for i, text in enumerate(numbers):
                v = float(text)
                if v != v:
                    nans[i] += 1
                else:
                    sums[i] += v * v
            for flag in flag_text.split("|") if flag_text else ("none",):
                flags[flag] = flags.get(flag, 0) + 1
            if meta.get("observable") != "w0" and int(numbers[1]) >= 0:
                responses += 1
    return {
        "rows": rows,
        "flags": dict(sorted(flags.items())),
        "P1": meta.get("P1"),
        "P2": meta.get("P2"),
        "norms": {c: math.sqrt(s) for c, s in zip(COLUMNS, sums)},
        "nans": dict(zip(COLUMNS, nans)),
        # rows whose observable came from transmission_point; used by the
        # trace-completeness check, not compared against the reference
        "responses": responses,
    }


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _close_meta(a, b) -> bool:
    if not a or not b:
        return a == b
    return _close(float(a), float(b))


def mismatches(got: dict, want: dict) -> list[str]:
    """Human-readable differences between a summary and its reference."""
    out = []
    for key in ("rows", "flags", "nans"):
        if got[key] != want[key]:
            out.append(f"{key}: {got[key]} != {want[key]}")
    for key in ("P1", "P2"):
        if not _close_meta(got[key], want[key]):
            out.append(f"{key}: {got[key]!r} != {want[key]!r}")
    for col in COLUMNS:
        if not _close(got["norms"][col], want["norms"][col]):
            out.append(f"norm({col}): {got['norms'][col]!r} != {want['norms'][col]!r}")
    return out


def load(path=REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write():
    """Run every spectra and branches preset once and store the summaries."""
    import io
    import tempfile
    from contextlib import redirect_stdout

    import run

    run.setup_package()
    from qdresponse import cli
    from workloads import BRANCH_PRESETS, SPECTRA_PRESETS

    summaries = {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        for fid in SPECTRA_PRESETS + BRANCH_PRESETS:
            stem = pathlib.Path(tmp) / fid / f"fig{fid}"
            stem.parent.mkdir()
            with redirect_stdout(io.StringIO()):
                code = cli.main(["figure", fid, "--format", "csv", "--out", str(stem)])
            if code != 0:
                raise SystemExit(f"qdr figure {fid} exited with {code}")
            summaries[fid] = {}
            for path in sorted(stem.parent.glob("*.csv")):
                summary = summarize(path)
                del summary["responses"]
                summaries[fid][path.name] = summary
    payload = {"rel_tol": REL_TOL, "provenance": run.provenance(),
               "presets": summaries}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python3 perfbench/reference.py --write")
    _write()
