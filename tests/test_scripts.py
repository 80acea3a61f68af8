"""The repository scripts that compare two commits' outputs: each passes on
identical inputs and fails on a hand-edited value, flag, NaN or message; the
script that runs the README's examples; the one that writes every
preset; and the one that pairs two checkouts' benchmark runs."""
import json
import re

import pytest

from qdresponse import cli

from conftest import SCRIPTS, script

compare_figures = script("compare_figures")
pair_stats = script("pair_stats")
readme_examples = script("readme_examples")
reproduce_figures = script("reproduce_figures")
seeded_points = script("seeded_points")

_CSV = """# figure=t
# P1=2.7
x,branch_id,w0,value_re,value_im,flags
1.0,0,-0.5,0.25,0.125,
2.0,-1,nan,nan,nan,PoleSkipped
3.0,1,-0.125,0.001,2.5,NonPhysical|Unstable
"""


def _json_text(csv_text):
    """The JSON form of a CSV figure file, as ``records_to_json`` writes it."""
    lines = csv_text.splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    value = lambda text: None if text == "nan" else float(text)  # noqa: E731
    return json.dumps({"meta": meta, "records": [
        {"x": float(x), "branch_id": int(b), "w0": value(w0), "value_re": value(re),
         "value_im": value(im), "flags": flags.split("|") if flags else []}
        for x, b, w0, re, im, flags in rows]}, indent=1) + "\n"


def _figure_dirs(tmp_path, suffix, edit=None):
    """BASE and HEAD figure directories, each with a file ``fig.<suffix>``
    and an untouched ``other.<suffix>``; HEAD's ``fig`` has ``edit`` made
    to its CSV text."""
    dirs = []
    for name, text in (("base", _CSV), ("head", _CSV.replace(*edit) if edit else _CSV)):
        d = tmp_path / name
        d.mkdir()
        for stem, body in (("fig", text), ("other", _CSV)):
            (d / f"{stem}.{suffix}").write_text(
                body if suffix == "csv" else _json_text(body), encoding="utf-8")
        dirs.append(d)
    return dirs


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_compare_figures_passes_on_identical_files(tmp_path, suffix, capsys):
    base, head = _figure_dirs(tmp_path, suffix)
    assert compare_figures.main([str(base), str(head)]) == 0
    assert compare_figures.main([str(base), str(head), "--rel-tol", "1e-10",
                                 "--count", "2"]) == 0
    assert capsys.readouterr().out.endswith("2 files agree within 1e-10\n")


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_compare_figures_bounds_a_value_change_by_the_tolerance(tmp_path, suffix, capsys):
    base, head = _figure_dirs(tmp_path, suffix, ("0.125", "0.12500000000001"))
    assert compare_figures.main([str(base), str(head)]) == 1
    assert compare_figures.main([str(base), str(head), "--rel-tol", "1e-10"]) == 0
    assert "fig." + suffix + ": largest relative change 7.99e-14" in capsys.readouterr().out
    assert compare_figures.main([str(base), str(head), "--rel-tol", "1e-14"]) == 1
    assert compare_figures.main([str(base), str(head), "--rel-tol", "1e-10",
                                 "--count", "3"]) == 1


@pytest.mark.parametrize("suffix", ["csv", "json"])
@pytest.mark.parametrize("edit", [
    ("-0.125,0.001", "-0.125,0.0010001"),  # a value beyond the tolerance
    ("NonPhysical|Unstable", "Unstable"),  # a flag
    ("2.0,-1,nan,nan,nan", "2.0,-1,nan,0.5,nan"),  # a NaN position
    ("3.0,1,", "3.0,2,"),  # a branch id
    ("1.0,0,", "1.0000000000001,0,"),  # an x
    ("# P1=2.7", "# P1=2.8"),  # a # line
])
def test_compare_figures_fails_on_a_hand_edit(tmp_path, suffix, edit, capsys):
    base, head = _figure_dirs(tmp_path, suffix, edit)
    assert compare_figures.main([str(base), str(head), "--rel-tol", "1e-10"]) == 1
    assert capsys.readouterr().err.startswith("differs: ")


def test_compare_figures_fails_on_a_missing_file(tmp_path):
    base, head = _figure_dirs(tmp_path, "csv")
    (head / "other.csv").unlink()
    assert compare_figures.main([str(base), str(head), "--rel-tol", "1e-10"]) == 1


def test_csv_json_passes_on_a_reproduced_pair(tmp_path, capsys):
    """Presets 2a (NonPhysical|Unstable rows) and 3b (PoleSkipped rows with
    NaN values), nine members, written by ``qdr figure`` in each format."""
    dirs = [tmp_path / "csv", tmp_path / "json"]
    for d in dirs:
        d.mkdir()
        for fid in ("2a", "3b"):
            assert cli.main(["figure", fid, "--format", d.name,
                             "--out", str(d / f"fig{fid}")]) == 0
    assert "NonPhysical|Unstable" in (dirs[0] / "fig2a_ep0-81.csv").read_text(encoding="utf-8")
    assert ",nan,nan,0.0,PoleSkipped" in (dirs[0] / "fig3b_g0-1.5_up.csv").read_text(encoding="utf-8")
    capsys.readouterr()
    assert compare_figures.main(["--csv-json", *map(str, dirs), "--count", "9"]) == 0
    assert capsys.readouterr().out == "9 CSV/JSON dataset pairs agree\n"
    assert compare_figures.main(["--csv-json", *map(str, dirs), "--count", "38"]) == 1


def _format_dirs(root, csv_edit=None, json_edit=None):
    """A CSV and a JSON directory under ``root`` holding the same figures
    ``fig`` and ``other``, ``fig`` with ``csv_edit`` made to its CSV text
    and ``json_edit`` to its JSON text."""
    csv_dir, json_dir = root / "csv", root / "json"
    csv_dir.mkdir(parents=True)
    json_dir.mkdir()
    for stem in ("fig", "other"):
        csv_text, json_text = _CSV, _json_text(_CSV)
        if stem == "fig":
            csv_text = csv_text.replace(*csv_edit) if csv_edit else csv_text
            json_text = json_text.replace(*json_edit) if json_edit else json_text
        (csv_dir / f"{stem}.csv").write_text(csv_text, encoding="utf-8")
        (json_dir / f"{stem}.json").write_text(json_text, encoding="utf-8")
    return str(csv_dir), str(json_dir)


@pytest.mark.parametrize("csv_edit, json_edit", [
    (None, ('"value_im": 0.125', '"value_im": 0.12500000000001')),  # a value
    (("0.001,2.5", "0.001,2.5000000000000004"), None),  # a value, by 1 ulp
    (("NonPhysical|Unstable", "Unstable|NonPhysical"), None),  # a flag's order
    (None, ('"PoleSkipped"', '"Unstable"')),  # a flag
    (("# P1=2.7", "# P1=2.8"), None),  # a # line
    (("# P1=2.7", "#P1=2.7"), None),  # a # line's form
    (None, ('"w0": null', '"w0": NaN')),  # NaN written as a number
    (("3.0,1,", "3.0,2,"), None),  # a branch id
    (("2.0,-1,nan,nan,nan,PoleSkipped\n", ""), None),  # a row
])
def test_csv_json_fails_on_a_hand_edit(tmp_path, csv_edit, json_edit, capsys):
    assert compare_figures.main(["--csv-json", *_format_dirs(tmp_path / "same")]) == 0
    dirs = _format_dirs(tmp_path / "edited", csv_edit, json_edit)
    assert compare_figures.main(["--csv-json", *dirs]) == 1
    assert capsys.readouterr().err.startswith("differs: fig")


def test_csv_json_fails_on_a_missing_file(tmp_path):
    csv_dir, json_dir = _format_dirs(tmp_path)
    (tmp_path / "json" / "other.json").unlink()
    assert compare_figures.main(["--csv-json", csv_dir, json_dir]) == 1
    with pytest.raises(SystemExit):
        compare_figures.main(["--csv-json", csv_dir, json_dir, "--rel-tol", "1e-10"])


@pytest.fixture(scope="module")
def digest():
    """A small digest: 30 wide_box points a seed (3 sweeps on each
    backend), the 10 preset member grids, one seeded grid per steady axis,
    21 labelled points in each 2b window, the corner points and 60 extreme
    points."""
    lines = [json.dumps(line) for line in seeded_points.digest(
        str(SCRIPTS.parent / "perfbench"), points=30, extremes=60, grids=1, window_points=21)]
    kinds = {(d["set"], isinstance(d.get("steady", d.get("records")), str))
             for d in map(json.loads, lines)}
    assert kinds == {("wide_box", False), ("sweep", False), ("grid", False),
                     ("labels", False), ("corner", False), ("corner", True),
                     ("extreme", False), ("extreme", True)}
    # every tenth wide_box point carries the closed form beside the linear solve
    assert {(d["k"] % 10 == 0, len(b["response"])) for d in map(json.loads, lines)
            if d["set"] == "wide_box" for b in d["steady"]} == {(True, 2), (False, 1)}
    # each linear-solve sweep is followed by its closed-form twin
    sweeps = [(d["seed"], d["k"], d.get("backend")) for d in map(json.loads, lines)
              if d["set"] == "sweep"]
    assert len(sweeps) == 12
    assert sweeps[1::2] == [(seed, k, "closed_form") for seed, k, _ in sweeps[::2]]
    assert {backend for *_, backend in sweeps[::2]} == {None}
    corners = [d for d in map(json.loads, lines) if d["set"] == "corner"]
    assert [(d["point"], d["steady"] if isinstance(d["steady"], str) else len(d["steady"]))
            for d in corners] == [
        ("tw_overflows", "NonFinite: a steady branch overflows at these parameters"),
        ("tw_overflows", 4), ("undriven", 1), ("undriven", 4)]
    assert [x for x, _ in corners[3]["steady"]] == list(seeded_points.CORNER_GRID)
    assert corners[3]["steady"][0][1][0]["w0"] == -1.0
    grids = [d for d in map(json.loads, lines) if d["set"] == "grid"]
    assert [d.get("figure", d.get("axis")) for d in grids] == \
        ["2a"] * 3 + ["2b"] + ["3a"] * 3 + ["3b"] * 3 + ["ep0", "delta_p0", "g0"]
    assert all(len(d["steady"]) == 41 for d in grids[10:])
    windows = [d for d in map(json.loads, lines) if d["set"] == "labels"]
    assert [d["window"] for d in windows] == [list(w) for w in seeded_points.LABEL_WINDOWS]
    assert all(len(d["labels"]) == 21 for d in windows)
    assert {label for d in windows for _, labels in d["labels"] for label in labels} \
        == {"Stable", "Unstable"}
    return lines


def _edited(lines, set_name, edit):
    """``lines`` with ``edit`` applied to the first ``set_name`` line it
    changes."""
    out = list(lines)
    for n, line in enumerate(lines):
        obj = json.loads(line)
        if obj["set"] == set_name and edit(obj) is not False:
            out[n] = json.dumps(obj)
            if out[n] != line:
                return out
    raise AssertionError("no line to edit")


def _first_branch(obj):
    return obj["steady"][0] if isinstance(obj["steady"], list) and obj["steady"] else None


def _scale_w0(obj, factor):
    branch = _first_branch(obj)
    if branch is None:
        return False
    branch["w0"] *= factor


def _error_line(obj, edit):
    if not isinstance(obj["steady"], str):
        return False
    obj["steady"] = edit(obj["steady"])


def test_seeded_points_pass_on_identical_digests(digest, tmp_path, capsys):
    base, head = tmp_path / "base.jsonl", tmp_path / "head.jsonl"
    for path in (base, head):
        path.write_text("\n".join(digest) + "\n", encoding="utf-8")
    assert seeded_points.main(["--compare", str(base), str(head)]) == 0
    assert capsys.readouterr().out == \
        f"{len(digest)} lines agree within 0; 0 changes at extreme points\n"


def test_seeded_points_bound_a_float_change_by_the_tolerance(digest):
    head = _edited(digest, "wide_box", lambda obj: _scale_w0(obj, 1.0 + 1e-13))
    with pytest.raises(AssertionError):
        seeded_points.compare(digest, head)
    assert seeded_points.compare(digest, head, 1e-10) == []
    head = _edited(digest, "wide_box", lambda obj: _scale_w0(obj, 1.0 + 1e-8))
    with pytest.raises(AssertionError, match="w0"):
        seeded_points.compare(digest, head, 1e-10)


def _flip_label(obj):
    branch = _first_branch(obj)
    if branch is None:
        return False
    branch["stability"] = "Unstable" if branch["stability"] == "Stable" else "Stable"


def _set_nan(obj):
    if not isinstance(obj["records"], list):
        return False
    obj["records"][0][3] = float("nan") if obj["records"][0][3] == obj["records"][0][3] else 0.5


def _edit_flag(obj):
    if not isinstance(obj["records"], list):
        return False
    row = obj["records"][0]
    row[5] = "" if row[5] else "Unstable"


def _drop_branch(obj):
    if not isinstance(obj["steady"], list) or not obj["steady"]:
        return False
    obj["steady"].pop()


def _scale_grid_jacobian(obj):
    """Scale by 1 + 1e-8 the largest Jacobian entry of the last branch of
    the grid's first point that has branches."""
    for _, branches in obj["steady"]:
        if isinstance(branches, list) and branches:
            jacobian = branches[-1]["jacobian"]
            jacobian[max(range(49), key=lambda k: abs(jacobian[k]))] *= 1.0 + 1e-8
            return None
    return False


def _flip_window_label(obj):
    for _, labels in obj["labels"]:
        if labels:
            labels[0] = "Unstable" if labels[0] == "Stable" else "Stable"
            return None
    return False


@pytest.mark.parametrize("set_name, edit", [
    ("wide_box", _flip_label),
    ("wide_box", lambda obj: _scale_w0(obj, -1.0)),
    ("wide_box", _drop_branch),
    ("sweep", _set_nan),
    ("sweep", _edit_flag),
    ("grid", _scale_grid_jacobian),
    ("labels", _flip_window_label),
])
def test_seeded_points_fail_on_a_hand_edit(digest, set_name, edit):
    head = _edited(digest, set_name, edit)
    with pytest.raises(AssertionError):
        seeded_points.compare(digest, head, 1e-10)


def _exact_extreme(digest):
    """The line number and object of the first extreme point of ``digest``
    whose every branch is exact, and the count of its distinct branches."""
    for n, line in enumerate(digest):
        obj = json.loads(line)
        if obj["set"] == "extreme" and isinstance(obj["steady"], list) and obj["steady"]:
            cubic = seeded_points._exact_cubic(list(seeded_points.extreme_points(obj["k"] + 1))[-1])
            count = seeded_points._exact_branches(cubic, obj["steady"])
            if count == len({b["w0"] for b in obj["steady"]}):
                return n, obj, count
    raise AssertionError("no extreme point with exact branches")


def test_seeded_points_keep_each_extreme_outcome_and_print_its_changes(digest):
    head = _edited(digest, "extreme", lambda obj: _error_line(obj, lambda e: e + "!"))
    changes = seeded_points.compare(digest, head, 1e-10)
    assert len(changes) == 1 and changes[0].startswith("set=extreme k=")
    assert "message" in changes[0]
    head = _edited(digest, "extreme", _flip_label)
    changes = seeded_points.compare(digest, head, 1e-10)
    assert len(changes) == 1 and "stability" in changes[0]
    # an outcome may change only where the exact cubic finds it no worse
    n, obj, count = _exact_extreme(digest)
    branches = obj["steady"]

    def compared(base_steady, head_steady):
        base, head = list(digest), list(digest)
        base[n] = json.dumps({**obj, "steady": base_steady})
        head[n] = json.dumps({**obj, "steady": head_steady})
        return seeded_points.compare(base, head, 1e-10)

    wrong = [{**b, "w0": 7.5} for b in branches]  # no exact root there
    for head_steady, message in ((branches[:-1], "exact branches"),
                                 (branches + wrong[:1], "exact branches"),
                                 ("NoRealRoot: zero polynomial",
                                  "an exact branch became an error")):
        with pytest.raises(AssertionError, match=message):
            compared(branches, head_steady)
    # an error to exact branches, an error type change, and branches with no
    # exact root to an error are no worse; each is printed with its counts
    where = f"set=extreme k={obj['k']}"
    assert compared("NoRealRoot: zero polynomial", branches) == [
        f"{where}: NoRealRoot -> {len(branches)} branches, 0 -> {count} exact"]
    assert compared("NoRealRoot: zero polynomial", "NonFinite: overflows") == [
        f"{where}: NoRealRoot -> NonFinite, 0 -> 0 exact"]
    assert compared(wrong, "NonFinite: overflows") == [
        f"{where}: {len(wrong)} branches -> NonFinite, 0 -> 0 exact"]


def test_seeded_points_compare_a_jacobian_against_its_largest_entry():
    jacobian = [100.0, 1e-3, float("nan"), float("inf")] + [0.0] * 45
    line = {"set": "wide_box", "seed": 1, "k": 0,
            "steady": [{"w0": -0.5, "jacobian": jacobian}]}
    base = [json.dumps(line)]

    def compared(k, value):
        edited = json.loads(base[0])
        edited["steady"][0]["jacobian"][k] = value
        return seeded_points.compare(base, [json.dumps(edited)], 1e-10)

    # an entry that cancels moves by 1e-8 of itself, 1e-13 of the largest
    assert compared(1, 1e-3 * (1.0 + 1e-8)) == []
    assert compared(4, 5e-9) == []
    for k, value in ((0, 100.0 * (1.0 + 1e-9)), (1, 1.1e-3), (2, 0.0), (3, 1e300),
                     (4, float("nan")), (4, 2e-8)):
        with pytest.raises(AssertionError, match="jacobian"):
            compared(k, value)


def test_seeded_points_compare_an_error_message_of_a_wide_box_point(digest):
    lines = [json.dumps({"set": "wide_box", "seed": 1, "k": 0,
                         "steady": "RootResidual: monic residual 1.000e-09"})]
    head = [lines[0].replace("1.000e-09", "1.001e-09")]
    with pytest.raises(AssertionError):
        seeded_points.compare(lines, head, 1e-10)
    assert seeded_points.compare(lines, lines, 1e-10) == []


def test_seeded_points_compare_a_complex_value_by_its_modulus_and_skip_the_residual():
    line = {"set": "wide_box", "seed": 1, "k": 0, "steady": [
        {"w0": -0.5, "residual": 1e-17, "response": [{"chi1": {"re": 1.0, "im": 1e-12}}]}]}
    base = [json.dumps(line)]
    line["steady"][0]["response"][0]["chi1"]["im"] = 1.00001e-12  # 1e-17 of |chi1|
    assert seeded_points.compare(base, [json.dumps(line)], 1e-10) == []
    line["steady"][0]["response"][0]["chi1"]["im"] = 1e-9
    with pytest.raises(AssertionError, match="chi1"):
        seeded_points.compare(base, [json.dumps(line)], 1e-10)
    line["steady"][0]["response"][0]["chi1"]["im"] = 1e-12
    line["steady"][0]["residual"] = 0.0  # rounding noise at the root
    assert seeded_points.compare(base, [json.dumps(line)], 1e-10) == []
    with pytest.raises(AssertionError):
        seeded_points.compare(base, [json.dumps(line)])


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    """A scratch working directory, with the package on an absolute path."""
    monkeypatch.setenv("PYTHONPATH", str(SCRIPTS.parent / "src"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_readme_examples_pass_on_the_readme(readme_dir, capsys):
    commands = readme_examples.block(readme_examples.README.read_text(encoding="utf-8"),
                                     "Command line")
    assert readme_examples.main([]) == 0
    out = capsys.readouterr().out
    qdr_lines = sum(line.startswith("qdr ") for line in commands.splitlines())
    assert out.count("$ qdr ") == qdr_lines >= 1 and "$ the Library use block\n" in out
    assert any(readme_dir.iterdir())  # the commands write where they run


def test_readme_examples_fail_on_a_failing_command(readme_dir, capsys):
    text = readme_examples.README.read_text(encoding="utf-8")
    commands = readme_examples.block(text, "Command line")
    readme = readme_dir / "README.md"
    readme.write_text(text.replace(commands, "qdr figure 4z --format csv\n" + commands),
                      encoding="utf-8")
    assert readme_examples.main([str(readme)]) == 1
    out, err = capsys.readouterr()
    assert out == "$ qdr figure 4z --format csv\n"
    assert "error: 'qdr figure 4z --format csv' exited 1" in err


def test_reproduce_figures_prints_its_elapsed_time_on_stderr(tmp_path, monkeypatch,
                                                            capsys):
    monkeypatch.setattr(reproduce_figures, "figure_ids", lambda: ["4b", "9b"])
    assert reproduce_figures.main([str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    files = ["fig4b.csv"] + [f"fig9b_omega_k0-{wk}.csv" for wk in (10, 8, 5)]
    assert out == "".join(f"wrote {tmp_path / name}\n" for name in files) \
        + f"all 2 presets written to {tmp_path}/\n"
    assert re.fullmatch(r"written in \d+\.\d s\n", err)


_METRICS = {"setup_s": 0.1, "wall_s": 0.5, "points_per_s": 170000.0,
            "point_p50_us": 6.0, "point_p99_us": 9.0, "peak_rss_mb": 42.0}


def _bench_runs(checkout, seeds, workload="spectra", scale=None, **fields):
    """Write one synthetic untraced result file per seed into ``checkout``:
    each metric of ``_METRICS``, with a seed-dependent spread, times
    ``scale``'s factor for it."""
    results = checkout / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    for k, seed in enumerate(seeds):
        spread = 1.0 + 0.002 * (k % 5)
        metrics = {name: {"value": value * spread * (scale or {}).get(name, 1.0), "unit": "u"}
                   for name, value in _METRICS.items()}
        record = {"provenance": {"commit": checkout.name, "source_sha256": "ab" * 32},
                  "attempted": 100, "failed": 0, "wrong_outputs": 0,
                  "trace_mismatches": [], "metrics": metrics, **fields}
        (results / f"BENCH_{workload}_seed{seed}_trace0.json").write_text(
            json.dumps(record), encoding="utf-8")


def _pair_report(tmp_path, capsys):
    code = pair_stats.main([str(tmp_path / "parent"), str(tmp_path / "change")])
    lines = capsys.readouterr().out.splitlines()
    return code, {line.split()[0]: line for line in lines if line.startswith("  ")
                  and line.split()[0] in _METRICS}, lines


def test_pair_stats_meets_the_claim_and_keeps_every_bound(tmp_path, capsys):
    seeds = range(1001, 1011)
    _bench_runs(tmp_path / "parent", seeds)
    _bench_runs(tmp_path / "change", seeds, scale={"wall_s": 0.95, "setup_s": 1.2})
    _bench_runs(tmp_path / "change", [1011])
    code, rows, lines = _pair_report(tmp_path, capsys)
    assert code == 0
    assert lines[0] == "unpaired: spectra seed 1011 only in the change checkout"
    assert lines[1] == "spectra: 10 pairs, seeds " + ", ".join(map(str, seeds))
    assert "  parent: commit parent source_sha256 " + "ab" * 32 in lines
    assert "  change: failed 0 of 1000 attempted, wrong_outputs 0, trace mismatches 0" in lines
    assert rows["wall_s"].split()[-6:] == ["-5.00%", "10/10", "claim", "met,", "within", "bound"]
    # 20% worse, within its 25% bound; equal values win no pair
    assert rows["setup_s"].endswith("+20.00%   0/10   claim not met, within bound")
    assert rows["peak_rss_mb"].endswith("+0.00%   0/10   claim not met, within bound")


def test_pair_stats_needs_the_gap_to_exceed_the_parents_spread(tmp_path, capsys):
    seeds = range(1, 11)
    _bench_runs(tmp_path / "parent", seeds)
    # better in every pair, but by 0.3%: less than the parent's 0.4% IQR
    _bench_runs(tmp_path / "change", seeds, scale={"wall_s": 0.997})
    code, rows, _ = _pair_report(tmp_path, capsys)
    assert code == 0 and "10/10   claim not met" in rows["wall_s"]


@pytest.mark.parametrize("change, message", [
    ({"scale": {"peak_rss_mb": 1.11}}, None),
    ({"scale": {"points_per_s": 0.7}}, None),
    ({"wrong_outputs": 1}, "  FAIL: a change run is incorrect"),
    ({"trace_mismatches": ["calls:x 1 != 2"]}, "  FAIL: a change run is incorrect"),
    ({"failed": 1}, "  FAIL: the change failed 0.01 of its operations, the parent 0"),
])
def test_pair_stats_fails_beyond_a_bound_or_on_a_wrong_run(tmp_path, capsys, change, message):
    seeds = range(1, 6)
    _bench_runs(tmp_path / "parent", seeds)
    _bench_runs(tmp_path / "change", seeds, **change)
    code, rows, lines = _pair_report(tmp_path, capsys)
    assert code == 1
    if message:
        assert message in lines
    else:
        (name,) = change["scale"]
        assert "BEYOND its bound" in rows[name]
        assert all("within bound" in row for key, row in rows.items() if key != name)
