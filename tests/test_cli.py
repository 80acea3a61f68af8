import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qdresponse.cli import main
from qdresponse.model import PARAM_FIELDS


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


def test_negative_grid_start_needs_no_equals_sign(tmp_path, capsys):
    outs = []
    for grid in (["--grid", "-10:10:5"], ["--grid=-10:10:5"]):
        assert run(["spectrum", "--preset", "4b", *grid], tmp_path) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) > 5
    # only a value that starts like a number is joined to --grid
    assert run(["spectrum", "--preset", "4b", "--grid", "--out", "x"], tmp_path) == 1
    assert "expected one argument" in capsys.readouterr().err


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


@pytest.mark.parametrize("options", [["--axis", "delta_p0", "--grid=-50:10:601"],
                                     []])  # the preset's axis and grid
def test_bistability_along_the_pump_detuning(tmp_path, options):
    assert run(["bistability", "--preset", "2a", *options, "--out", "hys_dp"],
               tmp_path) == 0
    for tag in ("up", "down"):
        meta, rows = read_csv(tmp_path / f"hys_dp_{tag}.csv")
        assert (meta["axis"], meta["P1"], meta["P2"]) == ("delta_p0", "-17.4", "-33.3")
        assert len(rows) == 601


def test_config_file_may_list_only_the_keys_it_overrides(tmp_path, capsys):
    (tmp_path / "g0.cfg").write_text("g0 = 2\n", encoding="utf-8")
    outs = []
    for source in (["--config", "g0.cfg"], ["--param", "g0=2"]):
        assert run(["steady", "--preset", "4b", *source], tmp_path) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) > 1


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


def test_oracle_check_of_a_decoupled_dot_judges_the_cavity_sideband(tmp_path, capsys):
    # g0 = 0: sigma+ is exactly 0 in the linear solve and in the oracle
    code = run(["oracle-check", "--preset", "4b", "--param", "g0=0",
                "--t-end", "70"], tmp_path)
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert "sigma_plus deviation = 0.000e+00" in out
    dev_a = float(out.split("a_plus  deviation =")[1].split()[0])
    dev = float(out.split("max relative deviation =")[1].split()[0])
    assert dev == dev_a < 1e-3


@pytest.mark.parametrize("argv", [
    ["steady", "--preset", "2b", "--param", "ep0=1e200"],
    ["steady", "--preset", "2b", "--param", "g0=1e160"],
    ["spectrum", "--preset", "4b", "--param", "ep0=1e200"],
    # omega_k0 ** 3 overflows in the branch stage, not in the cubic
    ["steady", "--preset", "2b", "--param", "omega_k0=1e110"],
    ["spectrum", "--preset", "4b", "--param", "omega_k0=1e110", "--grid", "0:1:3"],
    ["bistability", "--preset", "2b", "--param", "omega_k0=1e110", "--grid", "1:2:3"],
    # |d1| overflows while the cubic's sample points are placed
    ["steady", "--preset", "2b", "--param", "eta=3e305"],
    ["bistability", "--preset", "2b", "--param", "eta=3e305", "--grid", "1:2:3"],
    ["spectrum", "--preset", "2b", "--param", "eta=3e305", "--grid", "1:2:3"],
    # the closed form's complex square A1**2 overflows; the linear solve
    # answers at these points
    ["spectrum", "--preset", "5a", "--backend", "closed_form", "--axis", "delta0",
     "--grid", "1e155:2e155:2"],
])
def test_overflowing_parameters_are_numerical_errors(tmp_path, capsys, argv):
    assert run(argv, tmp_path) == 2
    cause = "a steady branch" if "omega_k0=1e110" in argv else \
        "chi1_closed_form" if "closed_form" in argv else "the inversion cubic"
    assert capsys.readouterr().err \
        == f"numerical error: {cause} overflows at these parameters\n"


@pytest.mark.parametrize("argv", [
    ["steady", "--preset", "2b"],
    ["bistability", "--preset", "2b", "--grid", "1:2:3"],
    ["spectrum", "--preset", "4b", "--grid", "0:1:3"],
    ["spectrum", "--preset", "4b", "--axis", "ep0", "--grid", "1:2:3"],
])
def test_extreme_parameter_values_give_an_answer_or_a_typed_error(tmp_path, capsys,
                                                                  argv):
    for key in PARAM_FIELDS:
        for value in ("1e100", "1e155", "1e200", "3e305", "1e-320"):
            code = run([*argv, "--param", f"{key}={value}"], tmp_path)
            err = capsys.readouterr().err
            assert code == 0 or code in (1, 2) and err.startswith(
                ("error: ", "numerical error: ")), (key, value, code, err)


@pytest.mark.parametrize("argv, message", [
    (["kerr", "--preset", "9b", "--param", "ep0=0", "--grid", "0:1:3"],
     "every grid point failed (pole or no steady branch)"),
    (["peaks", "--preset", "9b", "--observable", "kerr", "--param", "ep0=0",
      "--grid", "0:1:3"], "every grid point failed"),
    (["figure", "9a", "--param", "ep0=0"], "every grid point failed for preset"),
    # above the Hopf point near ep0 = 20.9 no branch of 2b is stable
    (["oracle-check", "--preset", "2b", "--param", "ep0=25", "--param", "es0=0.01"],
     "no stable branch at this point"),
    # 3 ep0^2 overflows: chi3 is undefined, as at zero pump.  The T2 rows
    # never read chi3; the only branch sits 1 ulp below w = -1, NonPhysical
    (["spectrum", "--preset", "5a", "--param", "ep0=1e160", "--param", "g0=0"],
     "every grid point failed (pole or no steady branch)"),
    (["kerr", "--preset", "9b", "--param", "ep0=2e154", "--param", "g0=1e-150",
      "--grid", "0:1:2"], "every grid point failed (pole or no steady branch)"),
])
def test_commands_without_a_result_exit_2(tmp_path, capsys, argv, message):
    assert run(argv, tmp_path) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("preset, message", [
    ("2b", "preset 2b has no pump"), ("zz", "unknown figure id 'zz'")])
def test_oracle_audit_rejects_a_preset_it_cannot_check(preset, message):
    script = pathlib.Path(__file__).parents[1] / "scripts" / "oracle_audit.py"
    done = subprocess.run([sys.executable, str(script), preset],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(script.parents[1] / "src")})
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and message in done.stderr
    assert done.stderr.count("\n") == 1


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
    (["bistability", "--preset", "2a", "--axis", "g0", "--grid=-50:10:601"], 1,
     "hysteresis axis must be ep0 or delta_p0, got g0"),
    (["bistability", "--preset", "2a", "--axis", "zz"], 1, "unknown axis 'zz'"),
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
    (["oracle-check", "--preset", "2b"], "pass --param es0="),
    (["oracle-check", "--preset", "4b", "--param", "ep0=0"], "pass --param es0="),
    (["peaks", "--preset", "9b", "--grid", "0:1:2"],
     "grid needs at least 3 points, got 2"),
    (["spectrum", "--preset", "4b", "--axis", "ep0", "--grid=-1:1:3"],
     "ep0 grid reaches an invalid point: ep0 must be >= 0, got -1.0"),
    (["spectrum", "--preset", "4b", "--axis", "g0", "--grid=-1:1:3"],
     "g0 grid reaches an invalid point: g0 must be >= 0, got -1.0"),
    (["bistability", "--preset", "2b", "--grid=-1:1:3"],
     "ep0 grid reaches an invalid point: ep0 must be >= 0, got -1.0"),
    # step counts whose trajectory shape numpy refuses before allocating
    (["oracle-check", "--preset", "4b", "--dt", "1e-300"],
     "t_end/dt = 2.6e+302 steps do not fit in an array"),
    (["oracle-check", "--preset", "4b", "--t-end", "1e300"],
     "t_end/dt = 1e+302 steps do not fit in an array"),
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
