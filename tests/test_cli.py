"""End-to-end tests for the ``algpaths`` command-line interface.

Most tests call ``run(argv)`` in-process and parse the JSON payload off
captured stdout; one test goes through ``python -m algpaths.cli`` to pin
the module entry point.  Workspace configs are written to ``tmp_path``.
"""

import argparse
import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import algpaths.expr as ex
from algpaths import cli, numkernel
from algpaths.algebroid import make_tangent
from algpaths.apath import AHomotopy
from algpaths.cli import build_parser, run
from algpaths.ehresmann import ExampleConnection

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


def values_at(sources, point):
    """The printed expressions of a report over x1, x2, read back with
    parse and compiled, at the point."""
    xs = ["x1", "x2"]
    return ex.compile_exprs([ex.parse(s, xs) for s in sources], xs)(*point)


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


def test_the_runtime_checks_pass():
    # the script continuous integration runs without scipy; its commands
    # run in a temporary directory, so the package is found by its path
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = os.path.join(os.path.dirname(__file__), "runtime_checks.py")
    proc = subprocess.run([sys.executable, script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("top", ["src", "tests", "bench"])
def test_every_source_file_parses_as_python_3_10(top):
    # pyproject's requires-python floor, the first leg of the CI matrix:
    # no syntax newer than 3.10 may reach a module
    files = sorted((REPO / top).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_sheets_irrational_prints_inf(capsys):
    assert run(["example3", "sheets", "--nu", "0.41421356237309515",
                "--k-max", "10000"]) == 0
    assert capsys.readouterr().out == "inf\n"


@pytest.mark.parametrize("flags, out", [
    (["--tol", "0"], "3"),              # 3 * fl(1/3) rounds to exactly 1
    (["--k-max", "1e30"], "3"),         # no cap: O(log k_max) steps
    (["--k-max", "2"], "inf"),
    (["--k-max", "3.0"], "3"),
])
def test_sheets_take_a_zero_tol_and_any_integral_k_max(capsys, flags, out):
    assert run(["example3", "sheets", "--nu", "1/3", *flags]) == 0
    assert capsys.readouterr().out == out + "\n"


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
                 {"--radius": 1.0, "--k-max": 1e6}, {}),
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
    assert capsys.readouterr().err == (
        "usage error: --name required: the workspace defines 2 "
        "algebroids\n")


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


def test_an_overflowing_structure_function_fails_its_spot_check(tmp_path,
                                                                capsys):
    # x2^2000 overflows at the samples: a float raises where a numpy
    # scalar gave inf, and the check fails naming the entry either way
    big = {"x_coords": ["x1", "x2"], "phi": ["x1"],
           "H": [["1"], ["x2^2000"]]}
    cfg = write_config(tmp_path, {"connections": {"big": big}})
    assert run(["holonomy", "--config", cfg, "--connection", "big"]) == 2
    assert ("/connections/big: spot-check failed"
            in capsys.readouterr().err)


def test_bare_algebroid_config_accepted(tmp_path, capsys):
    cfg = write_config(tmp_path, PLANE)
    code, payload = run_json(capsys, ["check-algebroid", "--config", cfg])
    assert code == 0
    assert payload["name"] == "main"


def test_bare_poisson_config_accepted(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dim": 2, "Pi": {"1,2": "1"}})
    code, payload = run_json(capsys, [
        "poisson", "flow", "--config", cfg, "--f", "(x1^2 + x2^2)/2",
        "--x0", "1,0", "--t1", "0.1", "--out", str(tmp_path / "orbit.csv")])
    assert code == 0
    assert payload["name"] == "main" and payload["status"] == "completed"


def test_a_config_that_is_not_a_json_object_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, [PLANE])
    assert run(["check-algebroid", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: /: config must be a JSON object\n"
    assert captured.out == ""


# ---------------------------------------------- flag and default validation

INTEGRATE = ["integrate-path", "--config", "{cfg}", "--name", "plane",
             "--section", "1;0", "--x0", "0,0"]
PROBE = ["completeness-probe", "--config", "{cfg}", "--comorphism", "id",
         "--section", "1;0", "--x0", "0,0"]
CHECK = ["check-algebroid", "--config", "{cfg}", "--name", "plane"]
# Dphi.H - I is nan wherever x2 != 0
NAN_SECTION = {"x_coords": ["x1", "x2"], "phi": ["x1"],
               "H": [["1"], ["x2*1e300*1e300 - x2*1e300*1e300"]]}
# the comorphism "id" with the unit disk as its source
DISK_ID = {"algebroids": {"plane": PLANE, "disk": DISK},
           "comorphisms": {"id": {"source": "disk", "target": "plane",
                                  "phi": ["x1", "x2"], "M": IDENTITY_M}}}
SHEETS = ["example3", "sheets", "--nu", "1/3"]
K_MAX = "--k-max: expected a finite integral number >= 1, got "
AT_LEAST_0 = ": expected a finite number >= 0, got '-1'"


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
    # a seed of 3 coordinates on a 2-dim source, with and without a domain
    (PROBE[:-1] + ["0.1,0.2,0.3"], {},
     "seed (0.1, 0.2, 0.3) has 3 coordinates, not 2"),
    (PROBE[:-1] + ["0.3,0.2,0.1"], DISK_ID,
     "seed (0.3, 0.2, 0.1) has 3 coordinates, not 2"),
    (["poisson", "probe", "--config", "{cfg}", "--source", "pplane",
      "--target", "pplane", "--map", "x1;x2", "--x0", "0.2,0.1,0.3"], {},
     "seed (0.2, 0.1, 0.3) has 3 coordinates, not 2"),
    (SHEETS + ["--k-max", "-1"], {}, K_MAX + "'-1'"),
    (SHEETS + ["--k-max", "0.5"], {}, K_MAX + "'0.5'"),
    (SHEETS + ["--k-max", "0"], {}, K_MAX + "'0'"),
    (["holonomy", "--k-max", "-3"], {}, K_MAX + "'-3'"),
    (SHEETS + ["--tol", "-1"], {}, "--tol" + AT_LEAST_0),
    (["logderiv", "--gamma", "g.csv", "--basis", "[[[0]]]", "--span-tol",
      "-1"], {}, "--span-tol" + AT_LEAST_0),
    (["logderiv", "--gamma", "g.csv", "--basis", "[[[1, 0, 0], [0, 1, 0]]]"],
     {}, "--basis: must be a list of equal square matrices"),
    (CHECK, {"connections": {"cyl": {"type": "example3", "slab": [1]}}},
     "/connections/cyl: slab must be two finite numbers lo < hi, got [1]"),
    (CHECK, {"connections": {"cyl": {"type": "example3", "support": [0.5]}}},
     "/connections/cyl: support must be two finite numbers lo < hi"),
    # misspelt or extra keys are refused, not read as their defaults
    (CHECK, {"connections": {"cyl": {"type": "example3", "nu": 0.5}}},
     "/connections/cyl/nu: unknown key"),
    (CHECK, {"connections": {"cyl": {"type": "example3",
                                     "suport": [-1, 1]}}},
     "/connections/cyl/suport: unknown key"),
    (CHECK, {"algebroids": {"plane": PLANE, "disk": {
        "base_dim": 2, "rank": 2, "anchor": IDENTITY_M,
        "domian": ["1 - x1^2 - x2^2"]}}},
     "/algebroids/disk/domian: unknown key"),
    (CHECK, {"algebroid": PLANE}, "/algebroid: unknown key"),
    (CHECK, {"comorphisms": {"id": {"source": "plane", "target": "plane",
                                    "phi": ["x1", "x2"], "M": IDENTITY_M,
                                    "extra": 1}}},
     "/comorphisms/id/extra: unknown key"),
    (CHECK, {"connections": {"cyl": {"type": "twist"}}},
     "/connections/cyl/type: unknown type 'twist'"),
    (CHECK, {"connections": {"cyl": ["example3"]}},
     "/connections/cyl: must be a JSON object"),
    (CHECK, {"connections": ["cyl"]}, "/connections: must be a JSON object"),
    (CHECK, {"connections": {"cyl": {"type": "example3", "nu0": "inf"}}},
     "/connections/cyl: nu0 must be a finite number, got inf"),
    # under the id it had when this message was "float division by zero"
    pytest.param(
        CHECK, {"connections": {"cyl": {"type": "example3", "nu0": "1/0"}}},
        "/connections/cyl: nu0 must be a finite number, got '1/0'",
        id="/connections/cyl: float division by zero"),
    (CHECK, {"connections": {"cyl": {"type": "example3", "nu0": "x"}}},
     "/connections/cyl: nu0 must be a finite number, got 'x'"),
    (CHECK, {"connections": {"cyl": {"type": "example3", "nu0": True}}},
     "/connections/cyl: nu0 must be a finite number, got True"),
    (CHECK, {"connections": {"cyl": {"type": ["example3"]}}},
     "/connections/cyl/type: unknown type ['example3']"),
    # one name in two sections: the algebroid plane and a Poisson plane
    (CHECK, {"poisson": {"plane": {"dim": 2, "Pi": {"1,2": "1"}}}},
     "config error: /poisson/plane: duplicate name 'plane'"),
    (["logderiv", "--gamma", "g.csv", "--basis", "[[[0, 1]"], {},
     "argument --basis: not a JSON list of matrices"),
]


@pytest.mark.parametrize("argv, extra, where", BAD_INPUTS,
                         ids=[getattr(row, "id", None) or row[2]
                              for row in BAD_INPUTS])
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


@pytest.mark.parametrize("section, grid, rows", [("1000", 10, 1),
                                                 ("4", 10, 2)])
def test_a_prefix_shorter_than_the_stencils_reports_no_residual(
        tmp_path, capsys, section, grid, rows):
    # the line leaves its domain x1 < 0.5 in the first or second step
    cfg = write_config(tmp_path, {"algebroids": {"line": {
        "base_dim": 1, "rank": 1, "anchor": [["1"]],
        "domain": ["0.5 - x1"]}}})
    out = tmp_path / "prefix.csv"
    code, payload = run_json(capsys, [
        "integrate-path", "--config", cfg, "--section", section, "--x0", "0",
        "--grid", str(grid), "--out", str(out)])
    assert code == 1
    assert payload["status"] == "domain_exit"
    assert payload["admissibility_residual"] is None
    assert len(out.read_text().splitlines()) == 1 + rows + 1


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
    # the tolerance the spread was held to, 1e-9 plus four estimated
    # discretisation errors when the spread exceeds 1e-9
    assert 1e-9 <= payload["endpoint_tol"] and (
        payload["endpoint_spread"] <= payload["endpoint_tol"])


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


@pytest.mark.parametrize("interp", ["cubic", "linear"])
def test_lift_of_a_one_sample_path_is_a_usage_error(lift_cfg, tmp_path,
                                                    capsys, interp):
    path = _grid_csv(tmp_path, "one.csv", _apath_rows([0.0]),
                     "t,x1,x2,eta1,eta2")
    assert run(["lift-path", "--config", lift_cfg, "--comorphism", "incl",
                "--path", path, "--x0", "0,0", "--interp", interp]) == 2
    captured = capsys.readouterr()
    assert f"{path}: an A-path needs at least 2 samples, got 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("interp", ["cubic", "linear"])
def test_a_rank_0_lift_loads_and_completes(tmp_path, capsys, interp):
    # loading spot-checks the axioms of a rank-0 algebroid (residuals
    # over no fiber components are 0.0); the lift stands still
    cfg = write_config(tmp_path, {
        "algebroids": {"pt": {"base_dim": 1, "rank": 0, "anchor": [[]],
                              "bracket": {}}},
        "comorphisms": {"c": {"source": "pt", "target": "pt",
                              "phi": ["x1"], "M": []}}})
    path = _grid_csv(tmp_path, "still.csv", [[0.0, 0.3], [0.5, 0.3],
                                              [1.0, 0.3]], "t,x1")
    code, payload = run_json(capsys, [
        "lift-path", "--config", cfg, "--comorphism", "c", "--path", path,
        "--x0", "0.3", "--interp", interp,
        "--out", str(tmp_path / "lifted.csv")])
    assert code == 0
    assert (payload["status"], payload["t_star"]) == ("completed", None)
    assert payload["target"] == [0.3]


@pytest.mark.parametrize("trailer", [
    "bogus", "blowup", "completed(t*=0.5)", "domain_exit(t*=nan)",
    "blowup(t*=inf)"])
@pytest.mark.parametrize("command", ["lift-path", "develop"])
def test_a_malformed_status_trailer_exits_2_naming_it(
        lift_cfg, tmp_path, capsys, trailer, command):
    # a path over a point for develop, one over the plane for lift-path
    if command == "develop":
        rows = [[k / 10, 0.0, 1.0] for k in range(11)]
        header = "t,x1,eta1"
        args = ["develop", "--basis", "[[[0, -1], [1, 0]]]"]
    else:
        rows = _apath_rows([k / 10 for k in range(11)])
        header = "t,x1,x2,eta1,eta2"
        args = ["lift-path", "--config", lift_cfg, "--comorphism", "incl",
                "--x0", "0,0"]
    path = _grid_csv(tmp_path, "bad.csv", rows, header)
    with open(path, "a") as f:
        f.write(f"# status={trailer}\n")
    assert run(args + ["--path", path]) == 2
    captured = capsys.readouterr()
    assert f"{path}: flow ending {trailer!r} is not" in captured.err
    assert captured.out == ""


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
    ("s", "s grid is not uniform"), ("hole", "not a full grid"),
    ("repeat", "each (t, s) grid point must appear once")])
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
    if defect == "repeat":         # (0.2, 0.5) twice and no (0.2, 1.0)
        rows[8] = list(rows[7])
    path = _grid_csv(tmp_path, "bad.csv", rows,
                     "t,s,x1,x2,eta1,eta2,beta1,beta2")
    assert run(["lift-homotopy", "--config", lift_cfg, "--comorphism",
                "incl", "--homotopy", path, "--x0", "0,0"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("t_grid, s_grid, interp, counts", [
    ([0.0, 0.5, 1.0], [0.0], "cubic", "3 and 1"),
    ([0.0], [0.0, 0.5, 1.0], "cubic", "1 and 3"),
    ([0.0], [0.0, 0.5, 1.0], "linear", "1 and 3")],
    ids=["one s value", "one t value", "one t value, linear"])
def test_a_homotopy_csv_with_one_value_on_an_axis_exits_2_naming_it(
        lift_cfg, tmp_path, capsys, t_grid, s_grid, interp, counts):
    path = _grid_csv(tmp_path, "thin.csv", _ahomotopy_rows(t_grid, s_grid),
                     "t,s,x1,x2,eta1,eta2,beta1,beta2")
    assert run(["lift-homotopy", "--config", lift_cfg, "--comorphism",
                "incl", "--homotopy", path, "--x0", "0,0", "--interp",
                interp]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"usage error: {path}: an A-homotopy needs at "
                            f"least 2 t values and 2 s values, got "
                            f"{counts}\n")
    assert captured.out == ""


def test_a_basis_of_the_wrong_size_exits_2(tmp_path, capsys):
    path = _grid_csv(tmp_path, "p.csv", _apath_rows([0.0, 0.5, 1.0]),
                     "t,x1,x2,eta1,eta2")
    assert run(["develop", "--path", path,
                "--basis", "[[[0, -1], [1, 0]]]"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("usage error: rank mismatch: 1 basis matrices "
                            "for rank 2\n")
    assert captured.out == ""


@pytest.mark.parametrize("defect, message", [
    ("nan", "non-finite"), ("grid", "not uniform"), ("empty", "no data"),
    ("one", "needs at least 5 samples, got 1"),
    ("three", "needs at least 5 samples, got 3")])
def test_logderiv_rejects_bad_matrix_csv(tmp_path, capsys, defect, message):
    times = [k / 10 for k in range(11)]
    if defect == "grid":
        times[-1] = 1.2
    rows = [[t, 1.0, -0.1 * t, 0.1 * t, 1.0] for t in times]
    if defect == "nan":
        rows[2][1] = math.nan
    if defect == "empty":
        rows = []
    if defect in ("one", "three"):
        rows = rows[:1 if defect == "one" else 3]
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
    phi = values_at(d["phi"], (0.3, -0.2))
    assert phi == pytest.approx([1.6, -0.4])
    M = [values_at(row, (0.3, -0.2)) for row in d["M"]]
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


def test_holonomy_of_a_workspace_connection_matches_the_builtin(tmp_path,
                                                               capsys):
    cfg = write_config(tmp_path, {"connections": {
        "c": {"type": "example3", "nu0": "1/4"}}})
    code, from_ws = run_json(capsys, ["holonomy", "--config", cfg,
                                      "--connection", "c"])
    assert code == 0
    code, builtin = run_json(capsys, ["holonomy", "--nu0", "1/4"])
    assert code == 0
    assert from_ws.pop("connection") == "c"
    assert builtin.pop("connection") == "example3(nu0=1/4)"
    assert from_ws == builtin


def test_holonomy_from_x0_reports_the_starts_height(capsys):
    # nu, the expected phase and the sheets are those of the height x0[4]
    # of the start, not of --h's default 0
    conn = ExampleConnection(1.0 / 3.0)
    nu = conn.nu(0.3)
    argv = ["holonomy", "--x0", "1,0,1,0,0.3", "--grid", "200"]
    code, payload = run_json(capsys, argv)
    assert code == 0 and payload["status"] == "completed"
    assert payload["params"]["h"] == 0.3 and payload["start"][4] == 0.3
    assert payload["nu"] == nu != 1.0 / 3.0
    assert payload["expected_phase"] == 2.0 * math.pi * nu
    assert payload["phase"] == pytest.approx(2.0 * math.pi * nu, abs=1e-6)
    assert payload["sheets"] == "inf"
    # an --h that repeats the height changes nothing
    assert run_json(capsys, argv + ["--h", "0.3"]) == (code, payload)
    # one that differs, or a start without a height, is refused
    for x0, height in (("1,0,1,0,0.3", "has the height x0[4] = 0.3"),
                       ("1,0,1,0", "has no height x0[4]")):
        assert run(["holonomy", "--x0", x0, "--h", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"usage error: --h 0.0 does not match "
                                f"--x0, which {height}\n")
        assert captured.out == ""


def test_holonomy_connection_needs_a_config(capsys):
    assert run(["holonomy", "--connection", "c"]) == 2
    captured = capsys.readouterr()
    assert "--connection needs --config" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("extra", [[], ["--h-grid", "0:0.6:2"]],
                         ids=["loop", "sweep"])
def test_holonomy_of_a_loop_whose_samples_overflow_exits_2(capsys, extra):
    # radius * 2 pi overflows: the loop used to be sampled with numpy
    # warnings and its x0 refused as outside the domain, exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["holonomy", "--radius", "1e308", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("usage error: a loop of radius 1e+308 about "
                            "(0.0, 0.0) has samples that are not finite\n")
    assert captured.out == ""


@pytest.mark.parametrize("extra", [[], ["--h-grid=0:0.1:2"]],
                         ids=["loop", "sweep"])
@pytest.mark.parametrize("radius", ["0", "1e-200"])
def test_holonomy_from_the_axis_exits_2(capsys, extra, radius):
    # the loop starts on the removed axis x1^2 + x2^2 > 0 (1e-200 squared
    # is 0.0): bad input, not an escape (exit 1)
    assert run(["holonomy", "--radius", radius, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"usage error: x0 = ({float(radius)!r}, 0.0, "
                            f"1.0, 0.0, 0.0) is outside the field's "
                            f"domain\n")
    assert captured.out == ""


def test_integrate_path_from_outside_the_domain_exits_2(lift_cfg, capsys):
    assert run(["integrate-path", "--config", lift_cfg, "--name", "disk",
                "--section", "1;0", "--x0", "2,0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("usage error: x0 = (2.0, 0.0) is outside the "
                            "field's domain\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["integrate-path", "poisson-flow",
                                     "lift-homotopy"])
def test_a_start_of_the_wrong_length_exits_2(lift_cfg, tmp_path, capsys,
                                             command):
    # bad input, as a start outside the domain is: a flow's start exited
    # 1, and a homotopy's start leaked a compiled function's arguments
    # where lift-path's is named
    if command == "integrate-path":
        argv = ["integrate-path", "--config", lift_cfg, "--name", "disk",
                "--section", "1;0"]
        message = "x0 has 1 components, the field needs 2"
    elif command == "poisson-flow":
        cfg = write_config(tmp_path, {"poisson": {"plane": {
            "dim": 2, "Pi": {"1,2": "1"}}}}, name="poisson.json")
        argv = ["poisson", "flow", "--config", cfg, "--f", "x1"]
        message = "x0 has 1 components, the field needs 2"
    else:
        path = _grid_csv(tmp_path, "homotopy.csv",
                         _ahomotopy_rows([k / 10 for k in range(11)],
                                         [0.0, 0.5, 1.0]),
                         "t,s,x1,x2,eta1,eta2,beta1,beta2")
        argv = ["lift-homotopy", "--config", lift_cfg, "--comorphism",
                "incl", "--homotopy", path]
        message = "x0 must be a point of 2 coordinates, got shape (1,)"
    assert run([*argv, "--x0", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["holonomy", "lift-path",
                                     "lift-homotopy"])
def test_a_start_whose_image_misses_the_path_source_exits_2(
        lift_cfg, tmp_path, capsys, command):
    # bad input, as a start outside the domain is; an escape exits 1
    if command == "holonomy":
        argv = ["--radius", "0.5", "--x0", "0,0,1,0,0"]
        image, source = "(0.0, 0.0)", "(0.5, 0.0)"
    elif command == "lift-path":
        path = _grid_csv(tmp_path, "path.csv",
                         _apath_rows([k / 10 for k in range(11)]),
                         "t,x1,x2,eta1,eta2")
        argv = ["--config", lift_cfg, "--comorphism", "incl", "--path",
                path, "--x0", "0.5,0"]
        image, source = "(0.5, 0.0)", "(0.0, 0.0)"
    else:
        path = _grid_csv(tmp_path, "homotopy.csv",
                         _ahomotopy_rows([k / 10 for k in range(11)],
                                         [0.0, 0.5, 1.0]),
                         "t,s,x1,x2,eta1,eta2,beta1,beta2")
        argv = ["--config", lift_cfg, "--comorphism", "incl", "--homotopy",
                path, "--x0", "0.5,0"]
        image, source = "(0.5, 0.0)", "(0.0, 0.0)"
    assert run([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"usage error: phi(x0) = {image} does not match "
                            f"the path source {source}\n")
    assert captured.out == ""


@pytest.mark.parametrize("flag", [["--x0", "5,5,1,0,0"], ["--h", "0.3"],
                                  ["--h=0.0"]], ids=["x0", "h", "h-zero"])
def test_a_sweep_refuses_the_flags_of_a_single_run(capsys, flag):
    # a sweep starts each lane at (radius, 0, z0, h): a start point or a
    # height of its own would be ignored, so it is refused by name
    assert run(["holonomy", "--h-grid", "0:0.1:2", "--grid", "50",
                *flag]) == 2
    captured = capsys.readouterr()
    name = flag[0].split("=")[0]
    assert captured.err == (f"usage error: {name} does not apply to a "
                            f"--h-grid sweep, which starts each lane at "
                            f"(radius, 0, z0, h)\n")
    assert captured.out == ""


def test_a_single_run_reads_an_absent_h_as_zero(capsys):
    code, payload = run_json(capsys, ["holonomy", "--grid", "50"])
    code_h, payload_h = run_json(capsys, ["holonomy", "--grid", "50",
                                          "--h", "0"])
    assert code == code_h == 0 and payload == payload_h
    assert payload["params"]["h"] == 0.0


@pytest.mark.parametrize("command", ["completeness-probe", "poisson-probe"])
def test_a_probe_seed_outside_the_domain_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {
        **DISK_ID, "poisson": {
            "pdisk": {"dim": 2, "Pi": {"1,2": "1"},
                      "domain": ["1 - x1^2 - x2^2"]},
            "pplane": {"dim": 2, "Pi": {"1,2": "1"}}}})
    argv = (["completeness-probe", "--config", cfg, "--comorphism", "id",
             "--section", "1;0"] if command == "completeness-probe" else
            ["poisson", "probe", "--config", cfg, "--source", "pdisk",
             "--target", "pplane", "--map", "x1;x2"])
    assert run([*argv, "--x0", "0,0;2,0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("usage error: seed (2.0, 0.0) is outside the "
                            "domain\n")
    assert captured.out == ""


@pytest.mark.parametrize("command, flag, message", [
    ("completeness-probe", "--x0", "no seeds to flow from"),
    ("poisson-probe", "--x0", "no seeds to flow from"),
    ("poisson-probe", "--f", "no test functions to probe with"),
])
def test_an_empty_probe_exits_2(tmp_path, capsys, command, flag, message):
    # ";" lists no seed or no test function: refused, not read as the
    # default (sampled seeds) or as a probe of nothing that agrees
    cfg = write_config(tmp_path, {
        **DISK_ID, "poisson": {"pplane": {"dim": 2, "Pi": {"1,2": "1"}}}})
    argv = (["completeness-probe", "--config", cfg, "--comorphism", "id",
             "--section", "1;0"] if command == "completeness-probe" else
            ["poisson", "probe", "--config", cfg, "--source", "pplane",
             "--target", "pplane", "--map", "x1;x2"])
    assert run([*argv, flag, ";", "--horizon", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""


def test_holonomy_on_a_grid_of_23294_steps_completes(capsys):
    # the loop's step 1 / 23294 used to be counted as 23295 steps, which
    # refused the loop's table of 23294
    code, payload = run_json(capsys, ["holonomy", "--grid", "23294"])
    assert code == 0
    assert payload["status"] == "completed"
    assert payload["phase"] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-9)


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
    # a flag's fault, as self-intersect reports the same check
    assert run(["example3", "gamma", "--h", "1.5"]) == 2
    assert capsys.readouterr().err == (
        "usage error: need h strictly inside the slab interval "
        "(-1.0, 1.0)\n")


POINT_OF_C = "expected two finite numbers 're,im', got "


@pytest.mark.parametrize("argv, flag, text", [
    (["holonomy"], "--z0", "1"),
    (["holonomy"], "--z0", "1,0,7"),
    (["holonomy", "--h-grid", "0:0.1:2"], "--z0", "1,0,7"),
    (["example3", "density", "--nu", "1/3"], "--z0", "1"),
    (["example3", "density", "--nu", "1/3"], "--z0", "1,0,5"),
    (["example3", "gamma"], "--z", "1"),
    (["example3", "gamma"], "--z", "1,0,0"),
], ids=["holonomy-1", "holonomy-3", "sweep-3", "density-1", "density-3",
        "gamma-1", "gamma-3"])
def test_a_point_of_c_is_two_numbers(capsys, argv, flag, text):
    # one number ended in an IndexError, a third one was dropped
    assert run([*argv, flag, text, "--grid", "50"] if argv[0] == "holonomy"
               else [*argv, flag, text]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: argument {flag}: {POINT_OF_C}"
                                 f"{text!r}\n")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("extra", [[], ["--h-grid", "0:0.1:2"]],
                         ids=["loop", "sweep"])
def test_a_holonomy_from_z0_0_exits_2(capsys, extra):
    # z = 0 has no phase: it used to report 0.0 against 2 pi / 3
    assert run(["holonomy", "--z0", "0,-0", "--grid", "50", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err == "usage error: z0 must be nonzero\n"
    assert captured.out == ""


FLAT_5 = {"connections": {"fc": {
    "x_coords": ["a", "b", "c", "d", "e"], "phi": ["a", "b"],
    "H": [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"], ["0", "0"]]}}}


@pytest.mark.parametrize("extra", [[], ["--h-grid", "0:1:3"]],
                         ids=["loop", "sweep"])
def test_the_twisted_cylinders_start_needs_the_twisted_cylinder(
        tmp_path, capsys, extra):
    # a plain flat connection has no (radius, 0, z0, h): a sweep ended in
    # an AttributeError, and a lift without --x0 started there anyway
    cfg = write_config(tmp_path, FLAT_5)
    argv = ["holonomy", "--config", cfg, "--connection", "fc", "--grid",
            "50"]
    assert run([*argv, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "usage error: connection 'fc' is no twisted cylinder: a --h-grid "
        "sweep or a lift without --x0 needs one\n")
    assert captured.out == ""
    # a start of its own lifts it: no phase and no nu
    code, payload = run_json(capsys, [*argv, "--x0", "1,0,2,3,4"])
    assert code == 0 and payload["status"] == "completed"
    assert payload["phase"] is None and "nu" not in payload
    assert payload["start"] == [1.0, 0.0, 2.0, 3.0, 4.0]
    assert payload["end"] == pytest.approx(payload["start"], abs=1e-5)


@pytest.mark.parametrize("flag, value, message", [
    ("--r", "0", "need r, r' > 0"), ("--rp", "-1", "need r, r' > 0"),
    ("--h", "2", "need h strictly inside the slab interval (-1.0, 1.0)"),
    ("--h", "-1", "need h strictly inside the slab interval (-1.0, 1.0)")])
def test_a_self_intersection_needs_a_groupoid_element(capsys, flag, value,
                                                      message):
    # the witness's images are two GammaElements', checked as gamma
    # checks them; they used to be reported
    assert run(["example3", "self-intersect", "--nu", "1/3",
                f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""


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


PFLOW = ["poisson", "flow", "--config", "{cfg}", "--name", "pplane", "--f",
         "x1", "--x0", "0,0"]
STEP_COUNTS = [
    # 10^12 steps would allocate until memory runs out; 10^600 overflows
    # the step count to inf
    (PFLOW + ["--t1", "1e6", "--step", "1e-6"], {},
     "t1 1000000.0 over step 1e-06"),
    (PFLOW + ["--t1", "1e300", "--step", "1e-300"], {},
     "t1 1e+300 over step 1e-300"),
    # the span and the step from workspace defaults
    (PFLOW, {"horizon": 2.0, "step": 1e-6}, "horizon 2.0 over step 1e-06"),
    (PROBE + ["--horizon", "20"], {"step": 1e-5},
     "horizon 20.0 over step 1e-05"),
    (["poisson", "probe", "--config", "{cfg}", "--source", "pplane",
      "--target", "pplane", "--map", "x1;x2", "--x0", "0,0"], {"step": 1e-7},
     "horizon 10.0 over step 1e-07"),
]


@pytest.mark.parametrize("argv, defaults, message", STEP_COUNTS,
                         ids=["t1", "t1-overflow", "defaults",
                              "completeness-probe", "poisson-probe"])
def test_a_flow_of_more_than_max_count_steps_exits_2(tmp_path, capsys, argv,
                                                     defaults, message):
    cfg = write_config(tmp_path, {
        "defaults": defaults, "algebroids": {"plane": PLANE},
        "comorphisms": {"id": {"source": "plane", "target": "plane",
                               "phi": ["x1", "x2"], "M": IDENTITY_M}},
        "poisson": {"pplane": {"dim": 2, "Pi": {"1,2": "1"}}}})
    assert run([a.format(cfg=cfg) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"usage error: {message} is more than 1000000 "
                            f"RK4 steps\n")


def test_a_flow_of_max_count_steps_runs(poisson_cfg, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_COUNT", 100)
    argv = ["poisson", "flow", "--config", poisson_cfg, "--name", "plane",
            "--f", "x1", "--x0", "0,0", "--t1", "1"]
    assert run(argv + ["--step", "0.01"]) == 0
    # the header, 101 samples and the status trailer
    assert len(capsys.readouterr().out.splitlines()) == 1 + 101 + 1
    assert run(argv + ["--step", "0.0099"]) == 2
    assert "is more than 100 RK4 steps" in capsys.readouterr().err


def _strict_json(text):
    """json.loads that refuses the bare NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def test_a_nan_in_a_report_is_a_json_string(poisson_cfg, tmp_path, capsys):
    # the energy is inf - inf = nan at every point
    code = run(["poisson", "flow", "--config", poisson_cfg, "--name", "plane",
                "--f", "x1*1e300*1e300 - x1*1e300*1e300", "--x0", "0.5,0",
                "--t1", "0.01", "--out", str(tmp_path / "o.csv")])
    assert code == 1
    payload = _strict_json(capsys.readouterr().out)
    assert payload["status"] == "blowup"
    assert payload["energy_drift"] == "nan"


def test_an_overflowing_number_literal_exits_2(poisson_cfg, tmp_path,
                                               capsys):
    # 1e400 would read as an infinite constant, which prints as "inf" and
    # does not parse back; the report would echo "inf - inf + x1"
    out = tmp_path / "t.csv"
    code = run(["poisson", "flow", "--config", poisson_cfg, "--name", "plane",
                "--f", "1e400 - 1e400 + x1", "--x0", "0.5,0", "--t1", "0.01",
                "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "bad number '1e400' (at offset 0)" in captured.err
    assert captured.out == "" and not out.exists()


# expressions over x1 nested n times, and the largest n that parses: a
# call, group, sign, sum or product operator is a level, an estep two, a
# bump six; "sum" nests each sum in the right operand of the last, a sum
# and a group per level, since a flat sum is one level however long
NESTED = {
    "sin": (lambda n: "sin(" * n + "x1" + ")" * n, 64),
    "parentheses": (lambda n: "(" * n + "x1" + ")" * n, 64),
    "minus": (lambda n: "-" * n + "x1", 64),
    "sum": (lambda n: "x1 + (" * n + "x1" + ")" * n, 32),
    "product": (lambda n: "*".join(["x1"] * (n + 1)), 64),
    "estep": (lambda n: "estep(" * n + "x1" + ")" * n, 32),
    "bump": (lambda n: "bump(-1, 1, " * n + "x1" + ")" * n, 10),
}


def nested_commands(tmp_path, e, second="i"):
    """check-algebroid of an anchor e, integrate-path of a section e and
    compose of the map (e, e) with the identity i, or with itself for
    second "c"."""
    cfg = write_config(tmp_path, {
        "algebroids": {"line": {"base_dim": 1, "rank": 1, "anchor": [[e]]},
                       "flat": {"base_dim": 1, "rank": 1, "anchor": [["1"]]},
                       "zero": {"base_dim": 1, "rank": 1, "anchor": [["0"]]}},
        "comorphisms": {"c": {"source": "zero", "target": "zero",
                              "phi": [e], "M": [[e]]},
                        "i": {"source": "zero", "target": "zero",
                              "phi": ["x1"], "M": [["1"]]}}})
    return [["check-algebroid", "--config", cfg, "--name", "line"],
            ["integrate-path", "--config", cfg, "--name", "flat",
             "--section=" + e, "--x0", "0", "--grid", "10"],
            ["compose", "--config", cfg, "--first", "c", "--second", second]]


@pytest.mark.parametrize("kind", NESTED)
def test_an_expression_at_the_nesting_bound_runs(tmp_path, capsys, kind):
    # the spot-checks differentiate e, and compose builds, differentiates
    # and prints a composite as deep as e
    assert ex.MAX_DEPTH == 64
    nested, n = NESTED[kind]
    for argv in nested_commands(tmp_path, nested(n)):
        assert run(argv) == 0, argv[0]
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", NESTED)
def test_an_expression_past_the_nesting_bound_exits_2(tmp_path, capsys,
                                                      kind):
    # 199 nested sin( and a 250-term sum used to end in a RecursionError
    # and a SyntaxError from compiling the generated source
    nested, n = NESTED[kind]
    for argv in nested_commands(tmp_path, nested(n + 1)):
        assert run(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert "expression nested more than 64 levels deep" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("kind", ["sin", "sum", "estep", "bump"])
def test_a_composite_past_the_nesting_bound_exits_2(tmp_path, capsys, kind):
    # (e, e) composed with itself nests e in e; its printed phi would
    # not parse back (parentheses and signs fold away and stay shallow)
    nested, n = NESTED[kind]
    argv = nested_commands(tmp_path, nested(n), second="c")[-1]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "usage error: the composite's phi[0] does not parse back "
        "(expression nested more than 64 levels deep")
    assert "expr.MAX_DEPTH = 64" in captured.err
    assert captured.out == ""


def test_a_composite_past_max_terms_exits_2(tmp_path, capsys):
    # x1 + ... + x1 in itself continues the chain with each copy of it
    e = " + ".join(["x1"] * ex.MAX_TERMS)
    argv = nested_commands(tmp_path, e, second="c")[-1]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "usage error: the composite's phi[0] does not parse back "
        "(sum or product of more than 1000 terms")
    assert "expr.MAX_TERMS = 1000" in captured.err
    assert captured.out == ""


def _long_sum_commands(tmp_path, terms):
    """integrate-path of the section (x1 + x2 + ... + x2, 1) of terms
    terms, on the plane and on an algebroid whose anchor fixes x2, so that
    the flow moves the x2 terms before its steps."""
    cfg = write_config(tmp_path, {"algebroids": {
        "plane": PLANE,
        "fixed": {"base_dim": 2, "rank": 2,
                  "anchor": [["1", "0"], ["0", "0"]], "bracket": {}}}})
    section = " + ".join(["x1"] + ["x2"] * (terms - 1)) + "; 1"
    return [["integrate-path", "--config", cfg, "--name", name,
             "--section", section, "--x0", "0,0.001", "--grid", "10",
             "--out", str(tmp_path / f"{name}.csv")]
            for name in ("plane", "fixed")]


def test_a_sum_of_max_terms_flows(tmp_path, capsys):
    # a 250-term sum used to end in CPython's "too many nested
    # parentheses", and a 66-term one was refused as 65 levels deep
    assert ex.MAX_TERMS == 1000
    for argv in _long_sum_commands(tmp_path, ex.MAX_TERMS):
        code, payload = run_json(capsys, argv)
        assert code == 0 and payload["status"] == "completed", argv[4]


def test_a_sum_past_max_terms_exits_2(tmp_path, capsys):
    for argv in _long_sum_commands(tmp_path, ex.MAX_TERMS + 1):
        assert run(argv) == 2
        captured = capsys.readouterr()
        offset = argv[6].rindex("+")
        assert (f"sum or product of more than 1000 terms (at offset "
                f"{offset})") in captured.err
        assert captured.out == ""


def test_poisson_lift_comorphism(poisson_cfg, capsys):
    code, payload = run_json(capsys, [
        "poisson", "lift", "--config", poisson_cfg,
        "--source", "plane", "--target", "line0", "--map", "x1"])
    assert code == 0
    assert payload["anchor_compat_residual"] <= 1e-9
    d = payload["comorphism"]
    assert d["source"] == "T*plane" and d["target"] == "T*line0"
    M = [values_at(row, (0.3, 0.4)) for row in d["M"]]
    assert M == [[1.0], [0.0]]


def test_poisson_lift_prints_a_zero_partial_as_zero(poisson_cfg, capsys):
    # the partial of 0 - x1 by x2 printed as "-0.0"
    code, payload = run_json(capsys, [
        "poisson", "lift", "--config", poisson_cfg,
        "--source", "plane", "--target", "plane", "--map", "x2;0-x1"])
    assert code == 0
    assert payload["comorphism"]["M"] == [["0", "-1"], ["1", "0"]]


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


def test_develop_reads_a_path_of_a_named_algebroid(tmp_path, capsys):
    cfg = write_config(tmp_path, {"algebroids": {"plane": PLANE,
                                                 "disk": DISK}})
    path_csv = tmp_path / "apath.csv"
    assert run(["integrate-path", "--config", cfg, "--name", "plane",
                "--section", "1; x1", "--x0", "0,0", "--grid", "100",
                "--out", str(path_csv)]) == 0
    capsys.readouterr()
    develop = ["develop", "--path", str(path_csv),
               "--basis", "[[[0, -1], [1, 0]], [[1, 0], [0, 0]]]", "--out"]
    code, named = run_json(capsys, develop + [
        str(tmp_path / "named.csv"), "--config", cfg, "--name", "plane"])
    assert code == 0
    code, counted = run_json(capsys, develop + [str(tmp_path / "g.csv")])
    assert code == 0
    assert named == counted
    assert ((tmp_path / "named.csv").read_text()
            == (tmp_path / "g.csv").read_text())


def test_develop_refuses_a_path_csv_with_other_column_names(tmp_path,
                                                           capsys):
    # the counts give n = 2 and r = 1, but eta1 is not the last column
    path = _grid_csv(tmp_path, "swapped.csv",
                     [[k / 10, 1.0, 0.0, 0.0] for k in range(11)],
                     "t,eta1,x1,x2")
    assert run(["develop", "--path", path,
                "--basis", "[[[0, -1], [1, 0]]]"]) == 2
    captured = capsys.readouterr()
    assert f"{path}: APath CSV header must be t,x1,x2,eta1" in captured.err
    assert captured.out == ""


def test_develop_reads_an_apath_over_a_point_without_its_x_column(
        tmp_path, capsys):
    # over a point, t,eta1 holds the path as t,x1,eta1 does; it used to
    # fail with numpy's "cannot reshape array of size 0 into shape (0)"
    rows = [[k / 4, 0.0, 1.5] for k in range(5)]
    with_x = _grid_csv(tmp_path, "with_x.csv", rows, "t,x1,eta1")
    without = _grid_csv(tmp_path, "without.csv",
                        [[t, eta] for t, _, eta in rows], "t,eta1")
    develop = ["develop", "--basis", "[[[0]]]", "--path"]
    reports = []
    for path in (with_x, without):
        code, payload = run_json(capsys, develop + [
            path, "--out", path + ".gamma.csv"])
        assert code == 0
        reports.append(payload)
    assert reports[0] == reports[1]
    assert reports[1]["endpoint"] == [[1.0]]
    assert ((tmp_path / "with_x.csv.gamma.csv").read_text()
            == (tmp_path / "without.csv.gamma.csv").read_text())


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


# ------------------------------------------------------------ fault kinds

FAULT_WS = {"algebroids": {"plane": PLANE, "disk": DISK},
            "comorphisms": {"incl": {"source": "disk", "target": "plane",
                                     "phi": ["x1", "x2"], "M": IDENTITY_M}},
            "connections": {"twist": {"type": "example3", "nu0": "2/7"}},
            "poisson": {"pplane": {"dim": 2, "Pi": {"1,2": "1"}}}}
NO_FILE = "[Errno 2] No such file or directory: "

# run() alone chooses a fault's kind: what a flag causes, a file it names
# included, is a usage error (these were config errors, as were the
# cases of test_name_required_with_multiple_objects and
# test_example3_gamma_slab_violation); a fault of the workspace file
# stays a config error
FAULT_KINDS = {
    "gamma-r": (["example3", "gamma", "--r", "0"],
                "usage error: need r, r' > 0"),
    "unknown-name": (["check-algebroid", "--config", "{cfg}", "--name",
                      "nope"], "usage error: unknown algebroid 'nope'"),
    "connection-without-config": (["holonomy", "--connection", "twist"],
                                  "usage error: --connection needs "
                                  "--config"),
    "map-length": (["poisson", "check-map", "--config", "{cfg}", "--source",
                    "pplane", "--target", "pplane", "--map", "x1"],
                   "usage error: --map has 1 components, target has dim 2"),
    "missing-path": (["lift-path", "--config", "{cfg}", "--comorphism",
                      "incl", "--path", "{tmp}/nosuch.csv", "--x0", "0,0"],
                     "usage error: " + NO_FILE + "'{tmp}/nosuch.csv'"),
    "unwritable-out": (["integrate-path", "--config", "{cfg}", "--name",
                        "plane", "--section", "1;0", "--x0", "0,0", "--out",
                        "{tmp}"],
                       "usage error: [Errno 21] Is a directory: '{tmp}'"),
    "missing-config": (["check-algebroid", "--config", "{tmp}/nosuch.json"],
                       "config error: cannot read config {tmp}/nosuch.json: "
                       + NO_FILE + "'{tmp}/nosuch.json'"),
}


@pytest.mark.parametrize("argv, line", FAULT_KINDS.values(),
                         ids=FAULT_KINDS.keys())
def test_run_alone_chooses_a_faults_kind(tmp_path, capsys, argv, line):
    cfg = write_config(tmp_path, FAULT_WS)
    argv = [a.format(cfg=cfg, tmp=tmp_path) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == line.format(tmp=tmp_path) + "\n"
    assert captured.out == ""


DEVELOP = ["develop", "--path", "{path}", "--basis",
           "[[[0, -1], [1, 0]], [[1, 0], [0, 0]]]"]
HOLONOMY_WS = ["holonomy", "--config", "{cfg}", "--connection", "twist",
               "--grid", "50"]
HOLONOMY_X0 = ["holonomy", "--x0", "1,0,1,0,0.3", "--grid", "50"]


@pytest.mark.parametrize("runs, refused, message", [
    (HOLONOMY_WS, HOLONOMY_WS + ["--nu0", "1/5"],
     "--nu0 does not apply to a workspace connection, only to the "
     "built-in twisted cylinder"),
    (HOLONOMY_X0, HOLONOMY_X0 + ["--z0", "5,5"],
     "--z0 does not apply to a lift from --x0, which gives the whole start"),
    (DEVELOP, DEVELOP + ["--name", "nosuch"], "--name needs --config"),
    (DEVELOP + ["--config", "{cfg}", "--name", "plane"],
     DEVELOP + ["--config", "{cfg}"],
     "--name required: the workspace defines 2 algebroids"),
], ids=["nu0-with-connection", "z0-with-x0", "name-without-config",
        "config-without-name"])
def test_a_flag_the_run_would_not_read_is_refused(tmp_path, capsys, runs,
                                                  refused, message):
    # each refused run ignored the flag (or picked no algebroid) and
    # exited 0
    cfg = write_config(tmp_path, FAULT_WS)
    path = _grid_csv(tmp_path, "path.csv",
                     _apath_rows([k / 10 for k in range(11)]),
                     "t,x1,x2,eta1,eta2")
    assert run([a.format(cfg=cfg, path=path) for a in runs]) == 0
    capsys.readouterr()
    assert run([a.format(cfg=cfg, path=path) for a in refused]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("extra", [[], ["--h-grid", "0:0.1:2"]],
                         ids=["loop", "sweep"])
def test_holonomy_applies_its_defaults_in_the_handler(capsys, extra):
    # --nu0 and --z0 default to None, so that a run can refuse them; the
    # handler reads an absent one as 1/3 and 1,0, byte for byte
    argv = ["holonomy", "--grid", "50", *extra]
    assert run(argv) == 0
    absent = capsys.readouterr().out
    assert run(argv + ["--nu0", "1/3", "--z0", "1,0"]) == 0
    assert capsys.readouterr().out == absent
    if not extra:
        assert json.loads(absent)["connection"] == "example3(nu0=1/3)"


# one fast run of every leaf subcommand over the workspace and files that
# test_no_malformed_flag_escapes_run writes; the test gives one flag of
# the run a malformed value
FUZZ_RUNS = {
    "check-algebroid": "--config ws.json --name plane --samples 5",
    "integrate-path": "--config ws.json --name plane --section 1;0 "
                      "--x0 0,0 --grid 10",
    "lift-path": "--config ws.json --comorphism id --path path.csv "
                 "--x0 0,0",
    "lift-homotopy": "--config ws.json --comorphism id --homotopy h.csv "
                     "--x0 0,0",
    "completeness-probe": "--config ws.json --comorphism id --section 1;0 "
                          "--x0 0,0 --horizon 0.1",
    "compose": "--config ws.json --first id --second id",
    "holonomy": "--grid 20",
    "example3 sheets": "--nu 1/3",
    "example3 density": "--nu 1/3 --tau-max 10 --bins 4",
    "example3 self-intersect": "--nu 1/3",
    "example3 gamma": "",
    "poisson check-map": "--config ws.json --source pplane --target pplane "
                         "--map x1;x2 --samples 5",
    "poisson flow": "--config ws.json --f x1 --x0 0,0 --t1 0.1",
    "poisson lift": "--config ws.json --source pplane --target pplane "
                    "--map x1;x2 --samples 5",
    "poisson probe": "--config ws.json --source pplane --target pplane "
                     "--map x1;x2 --x0 0,0 --horizon 0.1 --samples 5",
    "develop": "--path path.csv --basis [[[0]],[[0]]]",
    "logderiv": "--gamma g.csv --basis [[[0]]]",
}
MALFORMED = ["", "0", "-1", "2.5", "1/0", "nan", "-inf", "1e999", "x",
             "nosuch", ";", "1,2,3", "0:1:0", "[[", "[]", "/", "--"]


def test_no_malformed_flag_escapes_run(tmp_path, monkeypatch, capsys):
    # every fault of a flag's value is an exit code of run(), never an
    # exception out of it: run() names only the errors the program raises
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, {
        "algebroids": {"plane": PLANE},
        "comorphisms": {"id": {"source": "plane", "target": "plane",
                               "phi": ["x1", "x2"], "M": IDENTITY_M}},
        "poisson": {"pplane": {"dim": 2, "Pi": {"1,2": "1"}}}})
    times = [k / 10 for k in range(11)]
    _grid_csv(tmp_path, "path.csv", _apath_rows(times), "t,x1,x2,eta1,eta2")
    _grid_csv(tmp_path, "h.csv", _ahomotopy_rows(times, [0.0, 0.5, 1.0]),
              "t,s,x1,x2,eta1,eta2,beta1,beta2")
    _grid_csv(tmp_path, "g.csv", [[t, 1.0] for t in times], "t,g11")
    flags = {path: names.split() + ["--seed"]
             for path, _, _, names, _ in cli._commands()}
    assert flags.keys() == FUZZ_RUNS.keys()

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(sorted(FUZZ_RUNS)).flatmap(
        lambda path: st.tuples(st.just(path), st.sampled_from(flags[path]),
                               st.sampled_from(MALFORMED))))
    def fuzz(case):
        path, flag, value = case
        argv = path.split() + FUZZ_RUNS[path].split() + [f"{flag}={value}"]
        assert run(argv) in (0, 1, 2)
        capsys.readouterr()

    for path in FUZZ_RUNS:       # every handler runs at least once
        fuzz = example((path, "--seed", "3"))(fuzz)
    fuzz()


@pytest.mark.parametrize("argv", [
    ["example3", "gamma", "--z=--"], ["holonomy", "--z0=--"],
    ["example3", "density", "--nu", "1/3", "--z0=--"],
    ["holonomy", "--grid", "50", "--out=--"],
    ["poisson", "flow", "--config", "{cfg}", "--x0", "0,0", "--f=--"]],
    ids=["gamma-z", "holonomy-z0", "density-z0", "holonomy-out", "flow-f"])
def test_dashes_are_no_value(tmp_path, capsys, argv):
    # argparse before Python 3.13 read "--flag=--" as [] and skipped the
    # flag's converter: the first four ended in a traceback, and --out=--
    # wrote the CSV to stdout
    cfg = write_config(tmp_path, {"poisson": {"plane": {
        "dim": 2, "Pi": {"1,2": "1"}}}})
    assert run([a.format(cfg=cfg) for a in argv]) == 2
    captured = capsys.readouterr()
    flag = argv[-1].split("=")[0]
    assert captured.err.endswith(f"error: argument {flag}: expected one "
                                 f"argument\n")
    assert captured.out == ""


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_1_in_silence(buffered):
    # the reader of stdout is gone before the report is written: exit 1,
    # with no "config error: [Errno 32] Broken pipe" and nothing printed
    # at exit, whether the write fails in the handler or at the flush
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "algpaths.cli", "example3", "sheets",
             "--nu", "1/3"], stdout=write, stderr=subprocess.PIPE,
            text=True, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")
