#!/usr/bin/env python3
"""Run the README's examples as written.

Usage: PYTHONPATH=src python scripts/readme_examples.py [README]

Each ``qdr`` line of the "Command line" block runs as ``python -m
qdresponse.cli``, and the "Library use" block runs as ``python -c``, in the
current directory, where the commands write their files: run it from a
scratch directory, with an absolute ``PYTHONPATH``.  Exits 1 at the first
example that exits non-zero, naming it.
"""
import argparse
import pathlib
import re
import shlex
import subprocess
import sys

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def block(text: str, heading: str) -> str:
    """The first fenced code block under the ``## heading`` section."""
    found = re.search(rf"^## {heading}\n.*?^```\w*\n(.*?)^```", text, re.M | re.S)
    if found is None:
        raise SystemExit(f"error: no code block under '## {heading}'")
    return found.group(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("readme", nargs="?", type=pathlib.Path, default=README)
    text = parser.parse_args(argv).readme.read_text(encoding="utf-8")
    examples = []
    for line in block(text, "Command line").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["qdr"]:
            examples.append((line, ["-m", "qdresponse.cli", *words[1:]]))
    examples.append(("the Library use block", ["-c", block(text, "Library use")]))
    for name, args in examples:
        print("$", name, flush=True)
        try:
            subprocess.run([sys.executable, *args], check=True)
        except subprocess.CalledProcessError as exc:
            print(f"error: {name!r} exited {exc.returncode}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
