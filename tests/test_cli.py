"""End-to-end tests for the ``algpaths`` command-line interface.

Most tests call ``run(argv)`` in-process and parse the JSON payload off
captured stdout; one test goes through ``python -m algpaths.cli`` to pin
the module entry point.  Workspace configs are written to ``tmp_path``.
"""

import argparse
import json
import math
import subprocess
import sys

import pytest

import algpaths.expr as ex
from algpaths import numkernel
from algpaths.algebroid import make_tangent
from algpaths.apath import AHomotopy
from algpaths.cli import build_parser, run

PLANE = {"base_dim": 2, "rank": 2,
         "anchor": [["1", "0"], ["0", "1"]], "bracket": {}}
DISK = {"base_dim": 2, "rank": 2,
        "anchor": [["1", "0"], ["0", "1"]], "bracket": {},
        "domain": ["1 - x1^2 - x2^2"]}
IDENTITY_M = [["1", "0"], ["0", "1"]]


def write_config(tmp_path, data, name="ws.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_json(capsys, argv):
    """Run a CLI command and parse its JSON payload from stdout."""
    code = run(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture
def plane_cfg(tmp_path):
    return write_config(tmp_path, {"algebroids": {"plane": PLANE}})


@pytest.fixture
def lift_cfg(tmp_path):
    return write_config(tmp_path, {
        "algebroids": {"disk": DISK, "plane": PLANE},
        "comorphisms": {"incl": {"source": "disk", "target": "plane",
                                 "phi": ["x1", "x2"], "M": IDENTITY_M}}})


@pytest.fixture
def poisson_cfg(tmp_path):
    return write_config(tmp_path, {"poisson": {
        "plane": {"dim": 2, "Pi": {"1,2": "1"}},
        "line0": {"dim": 1, "Pi": {}},
        "disk": {"dim": 2, "Pi": {"1,2": "1"},
                 "domain": ["1 - x1^2 - x2^2"]}}})


# ------------------------------------------------------------ entry point

def test_module_entrypoint_sheets():
    proc = subprocess.run(
        [sys.executable, "-m", "algpaths.cli", "example3", "sheets",
         "--nu", "1/3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def test_sheets_irrational_prints_inf(capsys):
    assert run(["example3", "sheets", "--nu", "0.41421356237309515",
                "--k-max", "10000"]) == 0
    assert capsys.readouterr().out == "inf\n"


# ----------------------------------------------------------- flag surface

# Per leaf subcommand: its required flags, its optional flags, the
# defaults that are not None, and the choices.
FLAG_SURFACE = {
    "check-algebroid": ("--config", "--name --samples --tol --seed",
                        {"--tol": 1e-10}, {}),
    "integrate-path": ("--config --section --x0",
                       "--name --grid --bound --out --seed", {}, {}),
    "lift-path": ("--config --comorphism --path --x0",
                  "--interp --bound --out --seed", {"--interp": "cubic"},
                  {"--interp": ("cubic", "linear")}),
    "lift-homotopy": ("--config --comorphism --homotopy --x0",
                      "--interp --bound --out --seed", {"--interp": "cubic"},
                      {"--interp": ("cubic", "linear")}),
    "completeness-probe": ("--config --comorphism --section",
                           "--horizon --bound --seeds --x0 --seed", {}, {}),
    "compose": ("--config --first --second", "--seed", {}, {}),
    "holonomy": ("", "--config --connection --nu0 --h --h-grid --radius "
                     "--grid --z0 --x0 --k-max --out --seed",
                 {"--nu0": "1/3", "--h": "0.0", "--radius": 1.0,
                  "--z0": "1,0", "--k-max": 1e6}, {}),
    "example3 sheets": ("--nu", "--k-max --tol --seed",
                        {"--k-max": 1e6, "--tol": 1e-9}, {}),
    "example3 density": ("--nu", "--theta0 --z0 --tau-max --bins --seed",
                         {"--theta0": "0.0", "--z0": "1,0", "--bins": 32},
                         {}),
    "example3 self-intersect": ("--nu", "--h --tau --r --theta --rp --seed",
                                {"--h": "0.0", "--tau": "0.0", "--r": 1.0,
                                 "--theta": "0.0", "--rp": 1.0}, {}),
    "example3 gamma": ("", "--nu --r --theta --rp --tau --z --h --seed",
                       {"--nu": "1/3", "--r": 1.0, "--theta": "0.0",
                        "--rp": 1.0, "--tau": "0.0", "--z": "1,0",
                        "--h": "0.0"}, {}),
    "poisson check-map": ("--config --source --target --map",
                          "--samples --tol --seed", {"--tol": 1e-8}, {}),
    "poisson flow": ("--config --f --x0",
                     "--name --t1 --step --bound --out --seed", {}, {}),
    "poisson lift": ("--config --source --target --map",
                     "--samples --tol --seed", {"--tol": 1e-8}, {}),
    "poisson probe": ("--config --source --target --map",
                      "--f --horizon --bound --seeds --x0 --samples --seed",
                      {}, {}),
    "develop": ("--path --basis", "--config --name --out --seed", {}, {}),
    "logderiv": ("--gamma --basis", "--span-tol --out --seed",
                 {"--span-tol": 1e-6}, {}),
}


def leaf_parsers(parser, path=""):
    """(subcommand, parser) of every leaf subcommand."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path.strip(), parser
    else:
        for name, sub in subs[0].choices.items():
            yield from leaf_parsers(sub, f"{path} {name}")


def test_cli_flag_surface():
    surface = {}
    for path, leaf in leaf_parsers(build_parser()):
        required, optional, defaults, choices = set(), set(), {}, {}
        for action in leaf._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            flag = "/".join(action.option_strings)
            (required if action.required else optional).add(flag)
            if action.default is not None:
                defaults[flag] = action.default
            if action.choices is not None:
                choices[flag] = tuple(action.choices)
        surface[path] = (required, optional, defaults, choices)
    assert surface == {
        path: (set(required.split()), set(optional.split()), defaults,
               choices)
        for path, (required, optional, defaults, choices)
        in FLAG_SURFACE.items()}


# --------------------------------------------------------- config loading

def test_check_algebroid_report(plane_cfg, capsys):
    code, payload = run_json(capsys, ["check-algebroid", "--config",
                                      plane_cfg])
    assert code == 0
    assert payload["command"] == "check-algebroid"
    assert payload["name"] == "plane"
    assert payload["seed"] == 0
    assert payload["params"] == {"samples": 100, "tol": 1e-10}
    assert payload["ok"] is True
    assert payload["max_residual"] <= 1e-10


def test_name_required_with_multiple_objects(lift_cfg, capsys):
    assert run(["check-algebroid", "--config", lift_cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "--name required" in err and "2 algebroids" in err


def test_unknown_object_name(plane_cfg, capsys):
    assert run(["check-algebroid", "--config", plane_cfg,
                "--name", "nope"]) == 2
    assert "unknown algebroid 'nope'" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert run(["check-algebroid", "--config", "/no/such/file.json"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_config_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check-algebroid", "--config", str(bad)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_duplicate_object_names_rejected(tmp_path, capsys):
    a = json.dumps(PLANE)
    bad = tmp_path / "dup.json"
    bad.write_text('{"algebroids": {"a": %s, "a": %s}}' % (a, a))
    assert run(["check-algebroid", "--config", str(bad)]) == 2
    assert "duplicate name 'a'" in capsys.readouterr().err


def test_config_error_cites_json_pointer(tmp_path, capsys):
    bad = dict(PLANE, bracket={"1,2,2": "1"})
    cfg = write_config(tmp_path, {"algebroids": {"bad": bad}})
    assert run(["check-algebroid", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "/algebroids/bad" in err and "a < b" in err


def test_dangling_comorphism_reference(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "algebroids": {"plane": PLANE},
        "comorphisms": {"c": {"source": "plane", "target": "nope",
                              "phi": ["x1", "x2"], "M": IDENTITY_M}}})
    assert run(["check-algebroid", "--config", cfg, "--name", "plane"]) == 2
    assert ("/comorphisms/c/target: unknown algebroid 'nope'"
            in capsys.readouterr().err)


def test_unknown_defaults_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"defaults": {"bogus": 1},
                                  "algebroids": {"plane": PLANE}})
    assert run(["check-algebroid", "--config", cfg]) == 2
    assert "/defaults/bogus: unknown parameter" in capsys.readouterr().err


def test_load_time_axiom_spot_check(tmp_path, capsys):
    # rho([e1,e2]) = rho(e1) = d/dx1 but [rho e1, rho e2] = 0
    bad = {"base_dim": 1, "rank": 2, "anchor": [["1", "0"]],
           "bracket": {"1,1,2": "1"}}
    cfg = write_config(tmp_path, {"algebroids": {"bad": bad}})
    assert run(["check-algebroid", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "/algebroids/bad" in err and "axiom spot-check failed" in err


def test_bare_algebroid_config_accepted(tmp_path, capsys):
    cfg = write_config(tmp_path, PLANE)
    code, payload = run_json(capsys, ["check-algebroid", "--config", cfg])
    assert code == 0
    assert payload["name"] == "main"


# ---------------------------------------------- flag and default validation

INTEGRATE = ["integrate-path", "--config", "{cfg}", "--name", "plane",
             "--section", "1;0", "--x0", "0,0"]
PROBE = ["completeness-probe", "--config", "{cfg}", "--comorphism", "id",
         "--section", "1;0", "--x0", "0,0"]
CHECK = ["check-algebroid", "--config", "{cfg}", "--name", "plane"]
# Dphi.H - I is nan wherever x2 != 0
NAN_SECTION = {"x_coords": ["x1", "x2"], "phi": ["x1"],
               "H": [["1"], ["x2*1e300*1e300 - x2*1e300*1e300"]]}


BAD_INPUTS = [
    (INTEGRATE + ["--grid", "0"], {}, "--grid"),
    (INTEGRATE, {"defaults": {"grid": 0.5}}, "/defaults/grid"),
    (PROBE + ["--horizon", "inf"], {}, "--horizon"),
    (["example3", "sheets", "--nu", "1/3", "--k-max", "inf"], {}, "--k-max"),
    (INTEGRATE + ["--bound", "nan"], {}, "--bound"),
    (INTEGRATE, {"defaults": {"bound": math.nan}}, "/defaults/bound"),
    (CHECK + ["--tol", "nan"], {}, "--tol"),
    (["example3", "gamma", "--tau", "nan"], {}, "--tau"),
    (["holonomy", "--h", "nan"], {}, "--h"),
    (CHECK + ["--samples", "0"], {}, "--samples"),
    (PROBE[:-2] + ["--seeds", "0"], {}, "--seeds"),
    (["example3", "density", "--nu", "1/3", "--bins", "1000001"], {},
     "--bins"),
    (["holonomy", "--h-grid", "0:1:0"], {}, "--h-grid"),
    (["example3", "sheets", "--nu", "nan"], {}, "--nu"),
    (INTEGRATE[:-1] + ["nan,0"], {}, "--x0"),
    (["poisson", "flow", "--config", "{cfg}", "--name", "pplane", "--f",
      "x1", "--x0", "0,0", "--t1", "0"], {}, "--t1"),
    (["logderiv", "--gamma", "g.csv", "--basis", "[[[NaN]]]"], {},
     "--basis"),
    (CHECK, {"defaults": {"step": 0}}, "/defaults/step"),
    (CHECK, {"defaults": {"seeds": 2000000}}, "/defaults/seeds"),
    (CHECK, {"connections": {"bad": NAN_SECTION}}, "/connections/bad"),
    (INTEGRATE + ["--seed", "-1"], {}, "--seed"),
    (["example3", "sheets", "--nu", "1/3", "--seed", "-1"], {}, "--seed"),
    (CHECK + ["--seed", "2.5"], {}, "--seed"),
]


@pytest.mark.parametrize("argv, extra, where", BAD_INPUTS,
                         ids=[where for _, _, where in BAD_INPUTS])
def test_bad_flag_or_default_exits_2_naming_it(tmp_path, capsys, argv, extra,
                                               where):
    cfg = write_config(tmp_path, {
        "algebroids": {"plane": PLANE},
        "comorphisms": {"id": {"source": "plane", "target": "plane",
                               "phi": ["x1", "x2"], "M": IDENTITY_M}},
        "poisson": {"pplane": {"dim": 2, "Pi": {"1,2": "1"}}}, **extra})
    assert run([a.format(cfg=cfg) for a in argv]) == 2
    captured = capsys.readouterr()
    assert where in captured.err and captured.out == ""


@pytest.mark.parametrize("seed", ["-1", "2.5", "x"])
@pytest.mark.parametrize("argv", [
    INTEGRATE + ["--grid", "10"], ["example3", "sheets", "--nu", "1/3"]],
    ids=["integrate-path", "example3 sheets"])
def test_bad_seed_variable_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                             argv, seed):
    cfg = write_config(tmp_path, {"algebroids": {"plane": PLANE}})
    argv = [a.format(cfg=cfg) for a in argv]
    monkeypatch.setenv("ALGPATHS_SEED", seed)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "ALGPATHS_SEED" in captured.err and captured.out == ""
    # the flag takes precedence, so the variable is not read
    assert run(argv + ["--seed", "3"]) == 0


# ------------------------------------------------------- path integration

def test_integrate_path_csv_on_stdout(plane_cfg, capsys):
    code = run(["integrate-path", "--config", plane_cfg,
                "--section", "1;0", "--x0", "0,0", "--grid", "10"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,x1,x2,eta1,eta2"
    assert lines[-1] == "# status=completed"
    assert len(lines) == 13  # header + 11 grid samples + status trailer


def test_integrate_path_out_file_and_summary(plane_cfg, tmp_path, capsys):
    out = tmp_path / "line.csv"
    code, payload = run_json(capsys, [
        "integrate-path", "--config", plane_cfg, "--section", "1;0",
        "--x0", "0,0", "--out", str(out)])
    assert code == 0
    assert payload["status"] == "completed"
    assert payload["t_star"] is None
    assert payload["source"] == [0.0, 0.0]
    assert payload["target"] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert payload["admissibility_residual"] <= 1e-9
    text = out.read_text()
    assert text.startswith("t,x1,x2,eta1,eta2\n")
    assert text.rstrip().endswith("# status=completed")


def test_lift_path_completed(lift_cfg, tmp_path, capsys):
    path_csv = tmp_path / "circle.csv"
    assert run(["integrate-path", "--config", lift_cfg, "--name", "plane",
                "--section", "0 - x2;x1", "--x0", "0.5,0",
                "--out", str(path_csv)]) == 0
    capsys.readouterr()
    code, payload = run_json(capsys, [
        "lift-path", "--config", lift_cfg, "--comorphism", "incl",
        "--path", str(path_csv), "--x0", "0.5,0",
        "--out", str(tmp_path / "lifted.csv")])
    assert code == 0
    assert payload["status"] == "completed"
    assert payload["phi_projection_error"] <= 1e-6
    assert payload["target"] == pytest.approx(
        [0.5 * math.cos(1.0), 0.5 * math.sin(1.0)], abs=1e-6)


def test_lift_path_escape_is_exit_1(lift_cfg, tmp_path, capsys):
    path_csv = tmp_path / "ray.csv"
    assert run(["integrate-path", "--config", lift_cfg, "--name", "plane",
                "--section", "2;0", "--x0", "0,0",
                "--out", str(path_csv)]) == 0
    capsys.readouterr()
    code, payload = run_json(capsys, [
        "lift-path", "--config", lift_cfg, "--comorphism", "incl",
        "--path", str(path_csv), "--x0", "0,0",
        "--out", str(tmp_path / "lifted.csv")])
    assert code == 1
    assert payload["status"] == "domain_exit"
    assert payload["t_star"] == pytest.approx(0.5, abs=1e-3)
    assert payload["phi_projection_error"] <= 1e-9


def test_lift_homotopy_cli(lift_cfg, tmp_path, capsys):
    amp = 0.2
    H = AHomotopy.from_functions(
        make_tangent(2),
        lambda t, s: [0.5 * t, amp * s * math.sin(math.pi * t)],
        lambda t, s: [0.5, amp * s * math.pi * math.cos(math.pi * t)],
        lambda t, s: [0.0, amp * math.sin(math.pi * t)],
        nt=60, ns=12)
    hcsv = tmp_path / "homotopy.csv"
    with open(hcsv, "w") as f:
        H.write_csv(f)
    code, payload = run_json(capsys, [
        "lift-homotopy", "--config", lift_cfg, "--comorphism", "incl",
        "--homotopy", str(hcsv), "--x0", "0,0",
        "--out", str(tmp_path / "lifted.csv")])
    assert code == 0
    assert payload["residual_x"] <= 1e-3
    assert payload["residual_eta"] <= 1e-2
    assert payload["endpoint_spread"] <= 1e-5


# ----------------------------------------------------------- bad CSV input

def _grid_csv(tmp_path, name, rows, header):
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    return str(path)


def _apath_rows(times):
    # the straight path x(t) = (0.2 t, 0), eta = (0.2, 0)
    return [[t, 0.2 * t, 0.0, 0.2, 0.0] for t in times]


def _ahomotopy_rows(t_grid, s_grid):
    # the constant homotopy at the origin: every x, eta and beta vanishes
    return [[t, s] + [0.0] * 6 for t in t_grid for s in s_grid]


@pytest.mark.parametrize("interp", ["linear", "cubic"])
@pytest.mark.parametrize("defect, message", [
    ("nan", "non-finite"), ("inf", "non-finite"), ("grid", "not uniform")])
def test_lift_path_rejects_bad_path_csv(lift_cfg, tmp_path, capsys, interp,
                                        defect, message):
    times = [k / 10 for k in range(11)]
    if defect == "grid":
        times[5] = 0.52
    rows = _apath_rows(times)
    if defect != "grid":
        rows[5][3] = float(defect)
    path = _grid_csv(tmp_path, "bad.csv", rows, "t,x1,x2,eta1,eta2")
    assert run(["lift-path", "--config", lift_cfg, "--comorphism", "incl",
                "--path", path, "--x0", "0,0", "--interp", interp]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_cubic_lift_of_a_one_sample_path_is_a_usage_error(lift_cfg, tmp_path,
                                                         capsys):
    path = _grid_csv(tmp_path, "one.csv", _apath_rows([0.0]),
                     "t,x1,x2,eta1,eta2")
    assert run(["lift-path", "--config", lift_cfg, "--comorphism", "incl",
                "--path", path, "--x0", "0,0", "--interp", "cubic"]) == 2
    captured = capsys.readouterr()
    assert "at least 2 knots" in captured.err and captured.out == ""


@pytest.mark.parametrize("command, flag, header, row", [
    ("lift-path", "--path", "t,x1,x2,eta1,eta2", [0.0] * 4),
    ("lift-homotopy", "--homotopy", "t,s,x1,x2,eta1,eta2,beta1,beta2",
     [0.0, 0.0] + [0.0] * 6),
])
def test_csv_with_too_many_rows_exits_2_naming_the_file(
        lift_cfg, tmp_path, capsys, monkeypatch, command, flag, header, row):
    monkeypatch.setattr(numkernel, "MAX_COUNT", 10)
    path = _grid_csv(tmp_path, "long.csv",
                     [[k / 11] + row[1:] for k in range(12)], header)
    assert run([command, "--config", lift_cfg, "--comorphism", "incl",
                flag, path, "--x0", "0,0"]) == 2
    captured = capsys.readouterr()
    assert path in captured.err and "more than 11 data rows" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, flag, header", [
    ("lift-path", "--path", "t,x1,eta1,eta2"),
    ("lift-homotopy", "--homotopy", "t,s,x1,x2,eta1,eta2,beta1"),
])
def test_malformed_csv_header_is_a_usage_error(lift_cfg, tmp_path, capsys,
                                               command, flag, header):
    path = _grid_csv(tmp_path, "bad.csv", [[0.0] * 7, [1.0] * 7], header)
    assert run([command, "--config", lift_cfg, "--comorphism", "incl",
                flag, path, "--x0", "0,0"]) == 2
    assert "CSV header must be" in capsys.readouterr().err


@pytest.mark.parametrize("defect, message", [
    ("nan", "non-finite"), ("t", "t grid is not uniform"),
    ("s", "s grid is not uniform"), ("hole", "not a full grid")])
def test_lift_homotopy_rejects_bad_homotopy_csv(lift_cfg, tmp_path, capsys,
                                                defect, message):
    t_grid = [k / 10 for k in range(11)]
    s_grid = [0.0, 0.5, 1.0]
    if defect == "t":
        t_grid[3] = 0.35
    if defect == "s":
        s_grid[1] = 0.4
    rows = _ahomotopy_rows(t_grid, s_grid)
    if defect == "nan":
        rows[7][4] = math.nan
    if defect == "hole":
        del rows[7]
    path = _grid_csv(tmp_path, "bad.csv", rows,
                     "t,s,x1,x2,eta1,eta2,beta1,beta2")
    assert run(["lift-homotopy", "--config", lift_cfg, "--comorphism",
                "incl", "--homotopy", path, "--x0", "0,0"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("defect, message", [
    ("nan", "non-finite"), ("grid", "not uniform"), ("empty", "no data")])
def test_logderiv_rejects_bad_matrix_csv(tmp_path, capsys, defect, message):
    times = [k / 10 for k in range(11)]
    if defect == "grid":
        times[-1] = 1.2
    rows = [[t, 1.0, -0.1 * t, 0.1 * t, 1.0] for t in times]
    if defect == "nan":
        rows[2][1] = math.nan
    if defect == "empty":
        rows = []
    path = _grid_csv(tmp_path, "g.csv", rows, "t,g11,g12,g21,g22")
    assert run(["logderiv", "--gamma", path,
                "--basis", "[[[0, -1], [1, 0]]]"]) == 2
    assert message in capsys.readouterr().err


# ------------------------------------------------------ completeness/compose

def test_completeness_probe_escape(lift_cfg, capsys):
    code, payload = run_json(capsys, [
        "completeness-probe", "--config", lift_cfg, "--comorphism", "incl",
        "--section", "1;0", "--x0", "0,0", "--horizon", "2.0"])
    assert code == 1
    assert payload["escaped"] is True
    assert payload["params"]["n_seeds"] == 1
    assert payload["witness"]["status"] == "domain_exit"
    assert payload["witness"]["t_star"] == pytest.approx(1.0, abs=1e-3)


def test_completeness_probe_complete(lift_cfg, capsys):
    code, payload = run_json(capsys, [
        "completeness-probe", "--config", lift_cfg, "--comorphism", "incl",
        "--section", "0 - x2;x1", "--x0", "0.5,0", "--horizon", "2.0"])
    assert code == 0
    assert payload["escaped"] is False
    assert "witness" not in payload
    assert "no escape" in payload["verdict"]


def test_probes_use_and_report_the_workspace_step(tmp_path, capsys):
    # x1' = x1^2 from x1 = 1 blows up at t = 1; a blowup is reported at the
    # end of the RK4 step that crosses the bound, a multiple of the step
    step = 0.004
    cfg = write_config(tmp_path, {
        "defaults": {"step": step},
        "algebroids": {"plane": PLANE},
        "comorphisms": {"id": {"source": "plane", "target": "plane",
                               "phi": ["x1", "x2"], "M": IDENTITY_M}},
        "poisson": {"pplane": {"dim": 2, "Pi": {"1,2": "1"}},
                    "line0": {"dim": 1, "Pi": {}}}})
    code, payload = run_json(capsys, [
        "completeness-probe", "--config", cfg, "--comorphism", "id",
        "--section", "x1^2;0", "--x0", "1,0", "--horizon", "2"])
    code2, payload2 = run_json(capsys, [
        "poisson", "probe", "--config", cfg, "--source", "pplane",
        "--target", "line0", "--map", "x1^2*x2", "--f", "x1",
        "--x0", "1,0.5", "--horizon", "2"])
    assert code == code2 == 1
    (entry,) = payload2["entries"]
    witnesses = [payload["witness"], entry["hamiltonian"]["witness"],
                 entry["comorphism"]["witness"]]
    for report in (payload, payload2):
        assert report["params"]["step"] == step
    for w in witnesses:
        assert w["status"] == "blowup"
        assert 1.0 < w["t_star"] < 1.05
        assert w["t_star"] == pytest.approx(
            round(w["t_star"] / step) * step, abs=1e-12)


def test_compose_reports_composite(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "algebroids": {"plane": PLANE},
        "comorphisms": {
            "double": {"source": "plane", "target": "plane",
                       "phi": ["2*x1", "2*x2"],
                       "M": [["0.5", "0"], ["0", "0.5"]]},
            "shift": {"source": "plane", "target": "plane",
                      "phi": ["x1 + 1", "x2"], "M": IDENTITY_M}}})
    code, payload = run_json(capsys, ["compose", "--config", cfg,
                                      "--first", "double",
                                      "--second", "shift"])
    assert code == 0
    assert payload["anchor_compat_residual"] <= 1e-12
    d = payload["comorphism"]
    assert d["source"] == "plane" and d["target"] == "plane"
    env = {"x1": 0.3, "x2": -0.2}
    phi = [ex.parse(s, ["x1", "x2"]).eval(env) for s in d["phi"]]
    assert phi == pytest.approx([1.6, -0.4])
    M = [[ex.parse(s, ["x1", "x2"]).eval(env) for s in row]
         for row in d["M"]]
    assert M == [[0.5, 0.0], [0.0, 0.5]]


# -------------------------------------------------------------- holonomy

def test_holonomy_builtin_connection(capsys):
    code, payload = run_json(capsys, ["holonomy", "--nu0", "1/3",
                                      "--grid", "1000"])
    assert code == 0
    assert payload["connection"] == "example3(nu0=1/3)"
    assert payload["status"] == "completed"
    assert payload["nu"] == pytest.approx(1.0 / 3.0)
    assert payload["expected_phase"] == pytest.approx(2.0 * math.pi / 3.0)
    assert payload["phase"] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-6)
    assert payload["sheets"] == 3
    assert payload["phi_projection_error"] <= 1e-6


def test_holonomy_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, payload = run_json(capsys, [
        "holonomy", "--nu0", "1/3", "--h-grid", "0:0.6:2",
        "--grid", "400", "--out", str(out)])
    assert code == 0
    assert payload["rows"] == 2
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "h,nu,holonomy_angle,sheets"
    assert lines[1].endswith(",3")
    assert lines[2].endswith(",1")
    h0 = lines[1].split(",")
    assert float(h0[0]) == 0.0
    assert float(h0[1]) == pytest.approx(1.0 / 3.0)
    assert float(h0[2]) == pytest.approx(2.0 * math.pi / 3.0, abs=1e-5)
    h6 = lines[2].split(",")
    assert float(h6[0]) == pytest.approx(0.6)
    assert float(h6[1]) == 0.0  # outside the support, the twist vanishes
    assert abs(float(h6[2])) <= 1e-9


def test_holonomy_sweep_leading_dash_value(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, payload = run_json(capsys, [
        "holonomy", "--nu0", "1/3", "--h-grid=-0.6:0.6:3",
        "--grid", "200", "--out", str(out)])
    assert code == 0
    assert payload["rows"] == 3
    lines = out.read_text().strip().splitlines()
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["1", "3", "1"]


# -------------------------------------------------- example3 diagnostics

def test_example3_density_json(capsys):
    code, payload = run_json(capsys, [
        "example3", "density", "--nu", "1/3", "--bins", "16",
        "--tau-max", "1000"])
    assert code == 0
    assert payload["line_count"] == 3
    assert payload["max_gap"] == pytest.approx(2.0 * math.pi / 3.0,
                                               abs=1e-6)
    assert payload["cells_total"] == 256


def test_example3_density_caps_its_sample_count(capsys):
    # refused before any sample is taken: 1e9 * 4 * 32 samples
    assert run(["example3", "density", "--nu", "0.3",
                "--tau-max", repr(2e9 * math.pi)]) == 2
    assert "samples" in capsys.readouterr().err
    assert run(["example3", "density", "--nu", "0.3", "--tau-max", "-1"]) == 2


def test_example3_self_intersect_json(capsys):
    code, payload = run_json(capsys, ["example3", "self-intersect",
                                      "--nu", "1/4"])
    assert code == 0
    assert payload["image_mismatch"] <= 1e-12
    assert payload["gap"] == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert payload["expected_gap"] == pytest.approx(math.sqrt(2.0))
    assert payload["degenerate"] is False


def test_example3_gamma_json(capsys):
    code, payload = run_json(capsys, [
        "example3", "gamma", "--nu", "1/3", "--tau", "0.5", "--rp", "2.0"])
    assert code == 0
    assert payload["source"] == [1.0, 0.0, 1.0, 0.0, 0.0]
    tgt = payload["target"]
    angle = 0.5 / 3.0  # nu(0) * tau
    assert tgt[0] == 2.0
    assert tgt[1] == pytest.approx(0.5)
    assert tgt[2] == pytest.approx(math.cos(angle))
    assert tgt[3] == pytest.approx(math.sin(angle))
    assert payload["is_unit"] is False
    assert payload["nu_at_h"] == pytest.approx(1.0 / 3.0)


def test_example3_gamma_slab_violation(capsys):
    assert run(["example3", "gamma", "--h", "1.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "slab" in err


# ---------------------------------------------------------------- poisson

def test_poisson_check_map_accept(poisson_cfg, capsys):
    code, payload = run_json(capsys, [
        "poisson", "check-map", "--config", poisson_cfg,
        "--source", "plane", "--target", "line0", "--map", "x1"])
    assert code == 0
    assert payload["is_poisson_map"] is True
    assert payload["residual"] <= 1e-12


def test_poisson_check_map_reject(poisson_cfg, capsys):
    code, payload = run_json(capsys, [
        "poisson", "check-map", "--config", poisson_cfg,
        "--source", "plane", "--target", "plane", "--map", "2*x1;x2"])
    assert code == 1
    assert payload["is_poisson_map"] is False
    assert payload["residual"] == pytest.approx(1.0)


def test_poisson_map_arity_checked(poisson_cfg, capsys):
    assert run(["poisson", "check-map", "--config", poisson_cfg,
                "--source", "plane", "--target", "plane",
                "--map", "x1"]) == 2
    assert "--map has 1 components" in capsys.readouterr().err


def test_poisson_flow_energy_drift(poisson_cfg, tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code, payload = run_json(capsys, [
        "poisson", "flow", "--config", poisson_cfg, "--name", "plane",
        "--f", "(x1^2 + x2^2)/2", "--x0", "1,0",
        "--t1", "6.283185307179586", "--out", str(out)])
    assert code == 0
    assert payload["status"] == "completed"
    assert payload["endpoint"] == pytest.approx([1.0, 0.0], abs=1e-6)
    assert payload["energy_drift"] <= 1e-6
    assert out.read_text().startswith("t,x1,x2\n")


def test_poisson_lift_comorphism(poisson_cfg, capsys):
    code, payload = run_json(capsys, [
        "poisson", "lift", "--config", poisson_cfg,
        "--source", "plane", "--target", "line0", "--map", "x1"])
    assert code == 0
    assert payload["anchor_compat_residual"] <= 1e-9
    d = payload["comorphism"]
    assert d["source"] == "T*plane" and d["target"] == "T*line0"
    env = {"x1": 0.3, "x2": 0.4}
    M = [[ex.parse(s, ["x1", "x2"]).eval(env) for s in row]
         for row in d["M"]]
    assert M == [[1.0], [0.0]]


def test_poisson_lift_rejects_non_poisson_map(poisson_cfg, capsys):
    assert run(["poisson", "lift", "--config", poisson_cfg,
                "--source", "plane", "--target", "plane",
                "--map", "2*x1;x2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a Poisson map" in err


def test_poisson_probe_complete(poisson_cfg, capsys):
    code, payload = run_json(capsys, [
        "poisson", "probe", "--config", poisson_cfg,
        "--source", "plane", "--target", "line0", "--map", "x1",
        "--x0", "0,0", "--horizon", "2"])
    assert code == 0
    assert payload["all_agree"] is True
    assert payload["escaped"] is False
    assert len(payload["entries"]) == 2  # coordinate + cutoff quadratic
    for entry in payload["entries"]:
        assert entry["agree"] is True
        assert entry["field_mismatch"] <= 1e-9
        assert entry["hamiltonian"]["escaped"] is False
        assert entry["comorphism"]["escaped"] is False


def test_poisson_probe_escape(poisson_cfg, capsys):
    code, payload = run_json(capsys, [
        "poisson", "probe", "--config", poisson_cfg,
        "--source", "disk", "--target", "plane", "--map", "x1;x2",
        "--f", "x2", "--x0", "0,0", "--horizon", "2"])
    assert code == 1
    assert payload["escaped"] is True
    assert payload["all_agree"] is True
    (entry,) = payload["entries"]
    assert entry["hamiltonian"]["witness"]["status"] == "domain_exit"
    assert entry["hamiltonian"]["witness"]["t_star"] == pytest.approx(
        1.0, abs=1e-3)
    assert entry["t_star_diff"] <= 1e-6


# ------------------------------------------------------ develop/logderiv

def test_develop_logderiv_round_trip(tmp_path, capsys):
    carrier = {"base_dim": 1, "rank": 1, "anchor": [["0"]], "bracket": {}}
    cfg = write_config(tmp_path, carrier, name="carrier.json")
    omega = math.pi / 2.0
    path_csv = tmp_path / "apath.csv"
    assert run(["integrate-path", "--config", cfg,
                "--section", repr(omega), "--x0", "0",
                "--grid", "1000", "--out", str(path_csv)]) == 0
    capsys.readouterr()

    basis = "[[[0, -1], [1, 0]]]"  # so(2) generator
    gamma_csv = tmp_path / "gamma.csv"
    code, payload = run_json(capsys, [
        "develop", "--path", str(path_csv), "--basis", basis,
        "--out", str(gamma_csv)])
    assert code == 0
    quarter_turn = [[0.0, -1.0], [1.0, 0.0]]
    for i in range(2):
        for j in range(2):
            assert payload["endpoint"][i][j] == pytest.approx(
                quarter_turn[i][j], abs=1e-8)

    basis_file = tmp_path / "basis.json"
    basis_file.write_text(basis)
    code, payload = run_json(capsys, [
        "logderiv", "--gamma", str(gamma_csv), "--basis", str(basis_file),
        "--out", str(tmp_path / "eta.csv")])
    assert code == 0
    assert payload["eta_start"][0] == pytest.approx(omega, abs=1e-4)
    assert payload["eta_end"][0] == pytest.approx(omega, abs=1e-4)


def test_logderiv_rejects_bad_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert run(["logderiv", "--gamma", str(bad),
                "--basis", "[[[0, -1], [1, 0]]]"]) == 2
    assert "matrix-path CSV" in capsys.readouterr().err


# ------------------------------------------------- seeds and serialization

def test_seed_determinism_and_precedence(plane_cfg, capsys, monkeypatch):
    monkeypatch.delenv("ALGPATHS_SEED", raising=False)
    assert run(["check-algebroid", "--config", plane_cfg]) == 0
    first = capsys.readouterr().out
    assert run(["check-algebroid", "--config", plane_cfg]) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["seed"] == 0

    monkeypatch.setenv("ALGPATHS_SEED", "5")
    code, payload = run_json(capsys, ["check-algebroid", "--config",
                                      plane_cfg])
    assert code == 0 and payload["seed"] == 5

    code, payload = run_json(capsys, ["check-algebroid", "--config",
                                      plane_cfg, "--seed", "7"])
    assert code == 0 and payload["seed"] == 7


def test_infinite_sheets_serialized_as_string(capsys):
    code, payload = run_json(capsys, [
        "holonomy", "--nu0", "0.7071067811865476", "--grid", "200",
        "--k-max", "10000"])
    assert code == 0
    assert payload["sheets"] == "inf"
