import json
import os

import numpy as np
import pytest

from qdresponse.cli import main


def read_csv(path):
    meta, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        header = None
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def run(args, tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(args)
    finally:
        os.chdir(cwd)


def test_figure_4b_emits_absorption_with_phonon_extrema(tmp_path):
    assert run(["figure", "4b", "--format", "csv"], tmp_path) == 0
    meta, rows = read_csv(tmp_path / "fig4b.csv")
    assert meta["figure"] == "4b"
    assert meta["observable"] == "chi1"
    assert "gamma_q0" in meta["assumed"]
    xs = np.array([float(r["x"]) for r in rows])
    absorption = np.abs(np.array([float(r["value_im"]) for r in rows]))
    step = xs[1] - xs[0]
    for x0 in (-10.0, 10.0):
        window = np.abs(xs - x0) <= 0.5
        peak_x = xs[window][np.argmax(absorption[window])]
        assert abs(peak_x - x0) <= step + 1e-9


def test_figure_2b_emits_two_traces_with_turning_points(tmp_path):
    assert run(["figure", "2b"], tmp_path) == 0
    up_meta, up_rows = read_csv(tmp_path / "fig2b_up.csv")
    down_meta, down_rows = read_csv(tmp_path / "fig2b_down.csv")
    p1 = float(up_meta["P1"])
    p2 = float(up_meta["P2"])
    assert p1 > p2 > 0.0
    assert down_meta["P1"] == up_meta["P1"]
    up = {r["x"]: float(r["w0"]) for r in up_rows}
    down = {r["x"]: float(r["w0"]) for r in down_rows}
    diffs = [float(x) for x in up if abs(up[x] - down[x]) > 1e-12]
    assert diffs and all(p2 <= x <= p1 for x in diffs)


def test_oracle_check_preset_4b_within_tolerance(tmp_path, capsys):
    code = run(["oracle-check", "--preset", "4b"], tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert "max relative deviation" in out
    dev = float(out.split("max relative deviation =")[1].split()[0])
    assert dev < 1e-3


def test_unknown_figure_is_usage_error(tmp_path, capsys):
    assert run(["figure", "zz"], tmp_path) == 1
    assert "unknown figure" in capsys.readouterr().err


def test_missing_parameters_is_usage_error(tmp_path, capsys):
    assert run(["spectrum", "--param", "g0=1"], tmp_path) == 1
    assert "missing" in capsys.readouterr().err


def test_bad_subcommand_is_usage_error(tmp_path, capsys):
    assert run(["definitely-not-a-command"], tmp_path) == 1


def test_steady_prints_branch_table(tmp_path, capsys):
    code = run(["steady", "--preset", "2b", "--param", "ep0=8"], tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("w0,")
    assert len(lines) == 4  # header + three branches
    assert "Unstable" in out


def test_spectrum_with_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "point.cfg"
    cfg.write_text(
        "delta_p0 = -10\ndelta_c0 = -10\ng0 = 1.5\neta = 0.015\n"
        "omega_k0 = 10\nkappa_c0 = 1.35\ngamma_q0 = 0.1\nep0 = 5\n",
        encoding="utf-8")
    code = run(["spectrum", "--config", str(cfg), "--param", "ep0=7",
                "--axis", "delta_s0", "--grid=-1:1:21",
                "--observable", "t2", "--out", "spec.csv"], tmp_path)
    assert code == 0
    meta, rows = read_csv(tmp_path / "spec.csv")
    assert meta["ep0"] == "7.0"
    assert len(rows) == 21


def test_kerr_subcommand(tmp_path):
    code = run(["kerr", "--preset", "9b", "--grid=-13:13:131",
                "--out", "kerr.csv"], tmp_path)
    assert code == 0
    meta, rows = read_csv(tmp_path / "kerr.csv")
    assert meta["observable"] == "kerr"
    assert len(rows) == 131


def test_peaks_subcommand_finds_kerr_lines(tmp_path, capsys):
    code = run(["peaks", "--preset", "9b", "--kind", "peak",
                "--component", "re"], tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    xs = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert any(abs(x - 10.0) < 0.2 for x in xs)
    assert any(abs(x + 10.0) < 0.2 for x in xs)


def test_bistability_subcommand(tmp_path):
    code = run(["bistability", "--preset", "2b", "--grid", "0.2:16:159",
                "--out", "hys"], tmp_path)
    assert code == 0
    meta, rows = read_csv(tmp_path / "hys_up.csv")
    assert meta["axis"] == "ep0"
    assert len(rows) == 159
    assert (tmp_path / "hys_down.csv").exists()


def test_figure_json_format(tmp_path):
    assert run(["figure", "4a", "--format", "json"], tmp_path) == 0
    payload = json.loads((tmp_path / "fig4a.json").read_text())
    assert payload["meta"]["figure"] == "4a"
    assert len(payload["records"]) == 601
    assert set(payload["records"][0]) == {
        "x", "branch_id", "w0", "value_re", "value_im", "flags"}
    assert run(["figure", "2b", "--format", "json"], tmp_path) == 0
    up = json.loads((tmp_path / "fig2b_up.json").read_text())
    down = json.loads((tmp_path / "fig2b_down.json").read_text())
    assert (up["meta"]["trace"], down["meta"]["trace"]) == ("up", "down")
    for key in ("P1", "P2"):
        assert up["meta"][key] == down["meta"][key] != ""
    assert float(up["meta"]["P1"]) > float(up["meta"]["P2"]) > 0.0
    assert len(up["records"]) == len(down["records"]) > 0


def test_identical_invocations_are_byte_identical(tmp_path):
    assert run(["figure", "4b", "--out", "first"], tmp_path) == 0
    assert run(["figure", "4b", "--out", "second"], tmp_path) == 0
    first = (tmp_path / "first.csv").read_bytes()
    second = (tmp_path / "second.csv").read_bytes()
    assert first == second


def test_figure_family_emits_one_file_per_member(tmp_path):
    assert run(["figure", "9b"], tmp_path) == 0
    for wk in (10, 8, 5):
        assert (tmp_path / f"fig9b_omega_k0-{wk}.csv").exists()


def test_param_override_applies_to_figure(tmp_path):
    assert run(["figure", "4a", "--param", "ep0=2.5", "--out", "ov"], tmp_path) == 0
    meta, _ = read_csv(tmp_path / "ov.csv")
    assert meta["ep0"] == "2.5"


def test_threads_env_does_not_change_output(tmp_path, monkeypatch):
    assert run(["figure", "4b", "--out", "serial"], tmp_path) == 0
    monkeypatch.setenv("QDR_THREADS", "4")
    assert run(["figure", "4b", "--out", "threaded"], tmp_path) == 0
    assert (tmp_path / "serial.csv").read_bytes() == \
        (tmp_path / "threaded.csv").read_bytes()


def test_oracle_check_failing_tolerance_is_numerical_error(tmp_path, capsys):
    code = run(["oracle-check", "--preset", "4b", "--tolerance", "1e-12"],
               tmp_path)
    capsys.readouterr()
    assert code == 2


def test_oracle_check_can_dump_trajectory(tmp_path, capsys):
    code = run(["oracle-check", "--preset", "4b", "--t-end", "150",
                "--dump-trajectory", "traj.csv"], tmp_path)
    capsys.readouterr()
    assert code == 0
    head = (tmp_path / "traj.csv").read_text().splitlines()[0]
    assert head == "t,w,re_sigma,im_sigma,re_a,im_a,q,qdot"


# A full parameter point given only through --param flags (no preset).
POINT = ["--param", "delta_p0=-10", "--param", "delta_c0=-10", "--param", "g0=1.5",
         "--param", "eta=0.015", "--param", "omega_k0=10",
         "--param", "kappa_c0=1.35", "--param", "gamma_q0=0.1", "--param", "ep0=5"]


@pytest.mark.parametrize("argv, code, message", [
    (["figure", "4a", "--param", "ep0"], 1, "--param expects KEY=VALUE, got 'ep0'"),
    (["steady", "--preset", "2b", "--param", "ep0"], 1,
     "--param expects KEY=VALUE, got 'ep0'"),
    (["spectrum", "--preset", "4a", "--axis", "zz"], 1,
     "unknown axis 'zz'; use delta0,"),
    (["spectrum", "--preset", "4a", "--observable", "zz"], 1,
     "unknown observable 'zz'; use chi1,"),
    (["peaks", "--preset", "4a", "--observable", "zz"], 1, "unknown observable 'zz'"),
    (["spectrum", *POINT, "--grid=-1:1:5"], 1, "missing --observable"),
    (["spectrum", *POINT, "--observable", "t2"], 1, "missing --grid start:stop:points"),
    (["bistability", *POINT], 1, "missing --grid start:stop:points"),
    (["spectrum", "--preset", "4a", "--grid=-1:1:3", "--out", "no_such_dir/x.csv"],
     1, "cannot write no_such_dir/x.csv"),
    (["bistability", "--preset", "2b", "--grid", "0.2:16:20",
      "--out", "no_such_dir/h"], 1, "cannot write no_such_dir/h_up.csv"),
])
def test_usage_error_paths(tmp_path, capsys, argv, code, message):
    assert run(argv, tmp_path) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, message", [
    (["steady", "--preset", "2b", "--param", "kappa_c0=0"],
     "kappa_c0 must be > 0, got 0.0"),
    (["steady", "--preset", "2b", "--param", "g0=-1"], "g0 must be >= 0, got -1.0"),
    (["steady", "--preset", "2b", "--param", "ep0=nan"], "ep0 is not finite: nan"),
    (["steady", "--config", "bad.cfg"], "gamma_q0 must be > 0, got -0.1"),
    (["figure", "4a", "--param", "ep0=inf"], "ep0 is not finite: inf"),
    (["bistability", "--preset", "2b", "--grid", "0:1:1"],
     "grid needs at least 2 points"),
    (["bistability", "--preset", "2b", "--grid", "5:1:10"],
     "grid must be strictly ascending"),
    (["oracle-check", "--preset", "4b", "--t-end", "-1"],
     "t_end and dt must be positive"),
    (["peaks", "--preset", "2b", "--observable", "w0", "--axis", "ep0",
      "--grid", "0.2:16:60"], "needs a single-branch record stream"),
    (["oracle-check", "--preset", "4b", "--t-end", "nan"],
     "t_end and dt must be positive and finite"),
    (["oracle-check", "--preset", "4b", "--t-end", "inf"],
     "t_end and dt must be positive and finite"),
    (["oracle-check", "--preset", "4b", "--dt", "nan"],
     "t_end and dt must be positive and finite"),
    (["oracle-check", "--preset", "4b", "--tolerance", "nan"],
     "--tolerance must be finite and > 0, got nan"),
    (["oracle-check", "--preset", "4b", "--tolerance", "-1"],
     "--tolerance must be finite and > 0, got -1"),
    (["oracle-check", "--preset", "4b", "--tolerance", "0"],
     "--tolerance must be finite and > 0, got 0"),
    (["steady", "--config", "missing.cfg"], "cannot read missing.cfg: "),
    (["steady", "--config", "."], "cannot read .: "),
    (["steady", "--config", "latin1.cfg"], "cannot read latin1.cfg: "),
    (["spectrum", "--preset", "4b", "--grid", "nan:nan:1"],
     "grid start and stop must be finite, got 'nan:nan:1'"),
    (["bistability", "--preset", "2b", "--grid", "0:nan:3"],
     "grid start and stop must be finite, got '0:nan:3'"),
    (["bistability", "--preset", "2b", "--grid", "0:inf:3"],
     "grid start and stop must be finite, got '0:inf:3'"),
    (["kerr", "--preset", "9b", "--grid=-inf:1:3"],
     "grid start and stop must be finite, got '-inf:1:3'"),
])
def test_bad_parameter_values_and_grids_are_usage_errors(tmp_path, capsys, argv,
                                                         message):
    (tmp_path / "bad.cfg").write_text(
        "delta_p0 = -10\ndelta_c0 = -10\ng0 = 1.5\neta = 0.015\n"
        "omega_k0 = 10\nkappa_c0 = 1.35\ngamma_q0 = -0.1\nep0 = 5\n",
        encoding="utf-8")
    (tmp_path / "latin1.cfg").write_bytes("ep0 = 5  # \xe9\n".encode("latin-1"))
    assert run(argv, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
