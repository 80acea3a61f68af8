#!/usr/bin/env python3
"""Emit the sweep data for every preset in the catalog.

Usage: python scripts/reproduce_figures.py [outdir] [--format csv|json]

Writes one file per preset (one per family member where a preset is a
family), identical to running ``qdr figure <id>`` for every id, and prints
the time the writing took, from the first preset to the last file, on
stderr (``written in 1.9 s``).
"""
import argparse
import pathlib
import sys
import time

from qdresponse.cli import main as qdr_main
from qdresponse.presets import figure_ids


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="figures")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failures = []
    for fid in figure_ids():
        code = qdr_main(["figure", fid, "--format", args.format,
                         "--out", str(outdir / f"fig{fid}")])
        if code != 0:
            failures.append(fid)
    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
        return 2
    print(f"all {len(figure_ids())} presets written to {outdir}/")
    print(f"written in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
