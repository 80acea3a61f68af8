#!/usr/bin/env python3
"""Compare two directories of figure files written by reproduce_figures.py.

Usage: python scripts/compare_figures.py BASE HEAD [--rel-tol T] [--count N]
       python scripts/compare_figures.py --csv-json CSV_DIR JSON_DIR [--count N]

Both directories must hold the same file names.  With ``--rel-tol 0`` (the
default) every file must be byte-identical.  With T > 0 each file that
differs is read as a table, CSV or JSON: its ``#`` lines (the JSON
``meta``), row count, ``x``, ``branch_id``, flags and NaN positions must be
equal, and every other value within T relative.  ``--count N`` requires
that each directory holds exactly N files.  The largest relative change of
each file is printed.  Exits 1 on the first difference, naming the file and
the row.

``--csv-json`` instead checks that one commit's CSV and JSON files hold the
same data: CSV_DIR's ``*.csv`` and JSON_DIR's ``*.json`` files have the same
stems, and in each pair the ``#`` lines are the JSON ``meta`` as written,
and every row has the same x, branch_id, flags and values, NaN as ``null``.
"""
import argparse
import json
import pathlib
import sys


def table(path: pathlib.Path):
    """(meta, [(x, branch_id, flags, values)]) of a figure file, CSV or
    JSON, with each NaN value as None."""
    if path.suffix == ".json":
        data = json.loads(path.read_text(encoding="utf-8"))
        return data["meta"], [(r["x"], r["branch_id"], r["flags"],
                               [r["w0"], r["value_re"], r["value_im"]])
                              for r in data["records"]]
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = [line for line in lines if line.startswith("#")]
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert rows[0] == "x,branch_id,w0,value_re,value_im,flags".split(","), path.name
    return meta, [(x, b, flags, [None if v == "nan" else float(v) for v in vals])
                  for x, b, *vals, flags in rows[1:]]


def largest_change(base: pathlib.Path, head: pathlib.Path, rel_tol: float) -> float:
    """The largest relative change between two figure files, or
    AssertionError naming the first difference beyond the rules above."""
    (meta, rows), (head_meta, head_rows) = table(base), table(head)
    assert meta == head_meta, f"{base.name}: the # lines differ"
    assert len(rows) == len(head_rows), f"{base.name}: the row counts differ"
    worst = 0.0
    for (x, b, flags, vals), (hx, hb, hflags, hvals) in zip(rows, head_rows):
        assert (x, b, flags) == (hx, hb, hflags), (base.name, x, "x, branch_id or flags")
        for v, hv in zip(vals, hvals):
            assert (v is None) == (hv is None), (base.name, x, "NaN position")
            if v is not None and v != hv:
                rel = abs(v - hv) / max(abs(v), abs(hv))
                assert rel <= rel_tol, (base.name, x, v, hv)
                worst = max(worst, rel)
    return worst


def compare(base_dir: pathlib.Path, head_dir: pathlib.Path, rel_tol: float = 0.0,
            count: int | None = None) -> dict:
    """{file name: largest relative change} of the files compared at
    ``rel_tol``; raises AssertionError at the first difference."""
    names = sorted(p.name for p in base_dir.iterdir())
    head_names = sorted(p.name for p in head_dir.iterdir())
    assert names, f"{base_dir} holds no file"
    assert names == head_names, f"file names differ: {sorted(set(names) ^ set(head_names))}"
    assert count is None or len(names) == count, f"{len(names)} files, not {count}"
    worst = {}
    for name in names:
        base, head = base_dir / name, head_dir / name
        if base.read_bytes() == head.read_bytes():
            worst[name] = 0.0
        elif rel_tol > 0.0:
            worst[name] = largest_change(base, head, rel_tol)
        else:
            raise AssertionError(f"{name}: the files differ")
    return worst


def same_data(csv_dir: pathlib.Path, json_dir: pathlib.Path,
              count: int | None = None) -> list:
    """The stems of the figures ``csv_dir`` holds as CSV and ``json_dir``
    as JSON; raises AssertionError at the first pair that holds different
    data."""
    stems = sorted(p.stem for p in csv_dir.glob("*.csv"))
    assert stems, f"{csv_dir} holds no CSV file"
    assert stems == sorted(p.stem for p in json_dir.glob("*.json")), \
        "the CSV and JSON file stems differ"
    assert count is None or len(stems) == count, f"{len(stems)} pairs, not {count}"
    for stem in stems:
        meta, rows = table(csv_dir / f"{stem}.csv")
        json_meta, json_rows = table(json_dir / f"{stem}.json")
        assert meta == [f"# {k}={v}" for k, v in json_meta.items()], \
            f"{stem}: the # lines are not the JSON meta"
        assert len(rows) == len(json_rows), f"{stem}: the row counts differ"
        for (x, b, flags, vals), json_row in zip(rows, json_rows):
            assert (float(x), int(b), flags.split("|") if flags else [], vals) \
                == json_row, f"{stem}, x={x}: the rows differ"
    return stems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("head", type=pathlib.Path)
    parser.add_argument("--rel-tol", type=float, default=0.0)
    parser.add_argument("--count", type=int)
    parser.add_argument("--csv-json", action="store_true",
                        help="check that CSV files and JSON files hold the same data")
    args = parser.parse_args(argv)
    if not args.rel_tol >= 0.0:
        parser.error("--rel-tol must be >= 0")
    if not __debug__:
        parser.error("the comparison is made of assertions: run without -O")
    if args.csv_json and args.rel_tol:
        parser.error("--csv-json compares exactly: no --rel-tol")
    try:
        if args.csv_json:
            stems = same_data(args.base, args.head, args.count)
            print(f"{len(stems)} CSV/JSON dataset pairs agree")
            return 0
        worst = compare(args.base, args.head, args.rel_tol, args.count)
    except AssertionError as exc:
        print(f"differs: {exc}", file=sys.stderr)
        return 1
    for name, rel in worst.items():
        print(f"{name}: largest relative change {rel:.2e}")
    print(f"{len(worst)} files agree within {args.rel_tol:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
