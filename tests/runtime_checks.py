"""End-to-end checks of the algpaths CLI that need only the package's
runtime dependencies: every command runs, cubic lifts included, without
scipy. Continuous integration runs it in a virtual environment with no
extras installed; the tier-1 tests run it with their own interpreter.

usage: python tests/runtime_checks.py

Each command runs as `python -m algpaths.cli` with this interpreter, in a
fresh temporary directory. The script exits 1 with a message at the first
check that fails.
"""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile

PLANE_WS = {
    "algebroids": {"plane": {"base_dim": 2, "rank": 2,
                             "anchor": [["1", "0"], ["0", "1"]],
                             "bracket": {}}},
    "comorphisms": {"id": {"source": "plane", "target": "plane",
                           "phi": ["x1", "x2"],
                           "M": [["1", "0"], ["0", "1"]]}}}
SO2 = "[[[0, -1], [1, 0]]]"


def fail(message):
    sys.exit(message)


def algpaths(status, *args, out=None, options=()):
    """Run the CLI with args, its stdout written to the file out, under
    the interpreter options; fail, with its stderr, unless it exits with
    status and prints no traceback. Returns its stderr."""
    with open(out, "w") if out else open(os.devnull, "w") as stdout:
        proc = subprocess.run([sys.executable, *options, "-m", "algpaths.cli",
                               *args],
                              stdout=stdout, stderr=subprocess.PIPE,
                              text=True)
    if proc.returncode != status or "Traceback" in proc.stderr:
        fail(f"algpaths {' '.join(args)} exited {proc.returncode}, not "
             f"{status}, or with a traceback:\n{proc.stderr}")
    return proc.stderr


def ok(*args, out=None):
    algpaths(0, *args, out=out)


def expect_2(*args):
    algpaths(2, *args)


def write(name, content):
    with open(name, "w") as f:
        f.write(content if isinstance(content, str) else json.dumps(content))


def report(name):
    with open(name) as f:
        return json.load(f)


def main():
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        checks()


def expect_field(name, field, want, *args):
    """Run the CLI with args, its report written to the file name; fail
    unless it exits 0 and the report's field is want."""
    ok(*args, out=name)
    got = report(name)[field]
    if got != want:
        fail(f"algpaths {' '.join(args)} reported {field} = {got!r}, not "
             f"{want!r}")


def checks():
    ok("example3", "sheets", "--nu", "1/3")
    # nu = 1/3 winds the (theta', arg z') relation onto three lines; the
    # tau and tau + 2 pi images meet at z = 0; the default element of the
    # groupoid, at tau = 0, is a unit
    expect_field("density.json", "line_count", 3, "example3", "density",
                 "--nu", "1/3", "--tau-max", "100", "--bins", "8")
    expect_field("self.json", "image_mismatch", 0.0, "example3",
                 "self-intersect", "--nu", "1/3")
    expect_field("gamma.json", "is_unit", True, "example3", "gamma")

    # one holonomy lane: the lift's compiled field runs fused into the
    # generated RK4 loop
    ok("holonomy", "--nu0", "1/3", "--grid", "1000", out="holonomy.json")
    rep = report("holonomy.json")
    if rep["status"] != "completed" or rep["sheets"] != 3:
        fail(f"holonomy reported {rep['status']}, {rep['sheets']} sheets")

    # a lane from --x0 reports the start's height x0[4] and its nu; an
    # --h that differs from that height is refused
    ok("holonomy", "--x0", "1,0,1,0,0.3", "--grid", "200",
       out="holonomy_x0.json")
    rep = report("holonomy_x0.json")
    nu = rep.get("nu")
    if not (rep["params"]["h"] == 0.3 and 0.0 < nu < 0.1
            and rep["expected_phase"] == 2 * math.pi * nu
            and abs(rep["phase"] - rep["expected_phase"]) <= 1e-6):
        fail(f"holonomy --x0 ...,0.3 reported h = {rep['params']['h']}, "
             f"nu = {nu}, phase {rep['phase']} for {rep['expected_phase']}")
    expect_2("holonomy", "--x0", "1,0,1,0,0.3", "--h", "0")

    # a point of C is two finite numbers: one ended in a traceback, and a
    # third was dropped; z = 0 has no phase
    for flag, command in (("--z0", ["holonomy", "--grid", "50"]),
                          ("--z0", ["example3", "density", "--nu", "1/3"]),
                          ("--z", ["example3", "gamma"])):
        for z in ("1", "1,0,7"):
            expect_2(*command, flag, z)
    expect_2("holonomy", "--z0", "0,0", "--grid", "50")
    expect_2("holonomy", "--z0", "0,0", "--h-grid", "0:0.1:2", "--grid",
             "50")
    # the witness's images are two groupoid elements, which need r, r' > 0
    # and h inside the slab
    for flag in ("--r=0", "--rp=-1", "--h=2"):
        expect_2("example3", "self-intersect", "--nu", "1/3", flag)
    # a sweep, and a lift without --x0, start on the twisted cylinder: a
    # plain flat connection needs --x0
    write("flat.json", {"connections": {"fc": {
        "x_coords": ["a", "b", "c", "d", "e"], "phi": ["a", "b"],
        "H": [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"], ["0", "0"]]}}})
    flat = ["holonomy", "--config", "flat.json", "--connection", "fc",
            "--grid", "50"]
    expect_2(*flat, "--h-grid", "0:1:3")
    expect_2(*flat)
    ok(*flat, "--x0", "1,0,2,3,4")

    # a sweep with lanes outside the bump's support (the gate, computed
    # once before the steps, reads 0.0) and inside it: each lane's phase
    # is 2 pi nu, and nu = 0 is one sheet
    ok("holonomy", "--nu0", "1/4", "--h-grid=-0.7:0.7:8", "--out",
       "sweep.csv", out="sweep.json")
    with open("sweep.csv") as f:
        rows = list(csv.DictReader(f))
    nus = [float(row["nu"]) for row in rows]
    if len(rows) != 8 or 0.0 not in nus or max(nus) <= 0.0:
        fail(f"holonomy sweep: nu = {nus}")
    for row, nu in zip(rows, nus):
        d = (float(row["holonomy_angle"]) - 2 * math.pi * nu) % (2 * math.pi)
        err = min(d, 2 * math.pi - d)
        if not err <= 1e-6:
            fail(f"h = {row['h']}: phase error {err!r} > 1e-6")
        if nu == 0.0 and row["sheets"] != "1":
            fail(f"h = {row['h']}: nu = 0 but {row['sheets']} sheets")

    write("ws.json", PLANE_WS)
    # the plane satisfies the axioms, and a constant section pulled back
    # through id flows from every seed without escaping
    expect_field("axioms.json", "ok", True, "check-algebroid", "--config",
                 "ws.json")
    # its seeded samples are the library's own stream: the process never
    # imports numpy.random (11 modules, about 5 MB of memory)
    err = algpaths(0, "check-algebroid", "--config", "ws.json",
                   options=("-X", "importtime"))
    imported = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()
                if line.startswith("import time:")}
    if "numpy" not in imported or "numpy.random" in imported:
        fail("check-algebroid --config imported numpy.random")
    expect_field("complete.json", "escaped", False, "completeness-probe",
                 "--config", "ws.json", "--comorphism", "id", "--section",
                 "1;0", "--horizon", "2")
    ok("integrate-path", "--config", "ws.json", "--section", "0 - x2; x1",
       "--x0", "0.5,0", "--grid", "20", "--out", "path.csv")

    # the flow records each row's eta: it equals the section, compiled
    # again, at the row's (t, x), also where x2 = 0 keeps its value and
    # atan2 tells the -0.0 start from the 0.0 of the later rows
    section = ["t * x1 + atan2(x2, -1)", "0"]
    ok("integrate-path", "--config", "ws.json", "--section",
       "; ".join(section), "--x0=0.5,-0.0", "--grid", "20", "--out",
       "eta_rows.csv")
    from algpaths.expr import compile_exprs, parse
    names = ["t", "x1", "x2"]
    fn = compile_exprs([parse(e, names) for e in section], names)
    with open("eta_rows.csv") as f:
        rows = [list(map(float, line.split(","))) for line in f
                if line[0] not in "t#"]
    if len(rows) != 21 or math.copysign(1.0, rows[0][2]) != -1.0:
        fail(f"integrate-path --x0=0.5,-0.0 wrote {len(rows)} rows from "
             f"{rows[0][:3]}")
    for row in rows:
        if row[3:] != fn(*row[:3]):
            fail(f"integrate-path row {row}: the section there is "
                 f"{fn(*row[:3])}")
    ok("lift-path", "--config", "ws.json", "--comorphism", "id", "--path",
       "path.csv", "--x0", "0.5,0", "--interp", "cubic", "--out",
       "lifted.csv")

    # a homotopy of the plane, x = (t, s t (1 - t)) with eta = dx/dt and
    # beta = dx/ds, lifts through id; the lifted CSV reads back, and each
    # of its cells is the repr of its float
    write("homotopy.csv", "t,s,x1,x2,eta1,eta2,beta1,beta2\n" + "".join(
        ",".join(map(repr, (t, s, t, s * t * (1 - t), 1.0, s * (1 - 2 * t),
                            0.0, t * (1 - t)))) + "\n"
        for t in (0.0, 0.25, 0.5, 0.75, 1.0) for s in (0.0, 0.5, 1.0)))
    ok("lift-homotopy", "--config", "ws.json", "--comorphism", "id",
       "--homotopy", "homotopy.csv", "--x0", "0,0", "--out",
       "homotopy_lift.csv")
    from algpaths.algebroid import make_tangent
    from algpaths.apath import read_ahomotopy_csv
    with open("homotopy_lift.csv") as f:
        lifted = read_ahomotopy_csv(f, make_tangent(2))
    with open("homotopy_lift.csv") as f:
        cells = [c for line in f.read().splitlines()[1:]
                 if not line.startswith("#") for c in line.split(",")]
    if lifted.x.shape != (5, 3, 2) or len(cells) != 15 * 8:
        fail(f"lift-homotopy wrote {lifted!r}, {len(cells)} cells")
    for c in cells:
        if repr(float(c)) != c:
            fail(f"lift-homotopy wrote the cell {c!r}, not a float's repr")

    # through the unit disk's inclusion, a homotopy of the plane whose
    # middle slices bulge out of the disk, x = (t / 2, 4 a(s) t (1 - t))
    # with a(s) = 6 s (1 - s): the slices s = 0.25, 0.5 and 0.75 leave it,
    # and the error names the first
    write("incl.json", {
        "algebroids": {"disk": {"base_dim": 2, "rank": 2,
                                "anchor": [["1", "0"], ["0", "1"]],
                                "domain": ["1 - x1^2 - x2^2"]},
                       **PLANE_WS["algebroids"]},
        "comorphisms": {"incl": {"source": "disk", "target": "plane",
                                 "phi": ["x1", "x2"],
                                 "M": [["1", "0"], ["0", "1"]]}}})
    write("bulge.csv", "t,s,x1,x2,eta1,eta2,beta1,beta2\n" + "".join(
        ",".join(map(repr, (t, s, t / 2, 24 * s * (1 - s) * t * (1 - t),
                            0.5, 24 * s * (1 - s) * (1 - 2 * t), 0.0,
                            24 * (1 - 2 * s) * t * (1 - t)))) + "\n"
        for t in (k / 16 for k in range(17))
        for s in (0.0, 0.25, 0.5, 0.75, 1.0)))
    err = algpaths(1, "lift-homotopy", "--config", "incl.json",
                   "--comorphism", "incl", "--homotopy", "bulge.csv",
                   "--x0", "0,0")
    if not err.startswith("error: slice s=0.25 failed to lift: "
                          "domain_exit(t*="):
        fail(f"lift-homotopy through the disk reported {err!r}")

    # the composite's expressions, as the report prints them, read back
    # and compiled: id o id is the identity
    ok("compose", "--config", "ws.json", "--first", "id", "--second", "id",
       out="compose.json")
    d = report("compose.json")["comorphism"]
    xs, point = ["x1", "x2"], (0.3, -0.2)

    def at(sources):
        return compile_exprs([parse(s, xs) for s in sources], xs)(*point)

    phi, M = at(d["phi"]), [at(row) for row in d["M"]]
    if phi != list(point) or M != [[1.0, 0.0], [0.0, 1.0]]:
        fail(f"compose id id: phi = {phi}, M = {M}")

    # the dual-route probe of the identity of a symplectic plane: each
    # test function's two routes compile equal source, so they share one
    # compiled function and one fused RK4 loop
    write("poisson.json", {"poisson": {"plane": {"dim": 2,
                                                 "Pi": {"1,2": "1"}}}})
    ok("poisson", "probe", "--config", "poisson.json", "--source", "plane",
       "--target", "plane", "--map", "x1;x2", out="probe.json")
    rep = report("probe.json")
    if rep["all_agree"] is not True:
        fail(f"identity probe: all_agree = {rep['all_agree']}")

    # the identity is a Poisson map, and its cotangent lift is compatible
    # with the anchors
    identity = ["--config", "poisson.json", "--source", "plane", "--target",
                "plane", "--map", "x1;x2"]
    expect_field("check_map.json", "is_poisson_map", True, "poisson",
                 "check-map", *identity)
    expect_field("cotangent.json", "anchor_compat_residual", 0.0, "poisson",
                 "lift", *identity)

    # a probe of no seed or of no test function exits 2: ";" is neither
    # the sampled seeds nor a probe of nothing that agrees
    expect_2("poisson", "probe", *identity, "--x0", ";")
    expect_2("poisson", "probe", *identity, "--f", ";")
    expect_2("completeness-probe", "--config", "ws.json", "--comorphism",
             "id", "--section", "1;0", "--x0", ";")

    # a Hamiltonian flow: the cotangent algebroid's anchored field of df,
    # flowed without scipy, conserves f on the harmonic oscillator
    ok("poisson", "flow", "--config", "poisson.json", "--f",
       "(x1^2 + x2^2)/2", "--x0", "1,0", "--out", "orbit.csv",
       out="orbit.json")
    rep = report("orbit.json")
    if rep["status"] != "completed" or not rep["energy_drift"] < 1e-9:
        fail(f"poisson flow: {rep['status']}, "
             f"energy drift {rep['energy_drift']}")

    # bad input exits 2: a flow of 10^12 RK4 steps (refused before it
    # allocates), a seed of 3 coordinates on the 2-dim plane of ws.json,
    # and a k_max below 1
    expect_2("poisson", "flow", "--config", "poisson.json", "--name",
             "plane", "--f", "x1", "--x0", "0,0", "--t1", "1e6", "--step",
             "1e-6")
    expect_2("completeness-probe", "--config", "ws.json", "--comorphism",
             "id", "--section", "1;0", "--x0", "0.1,0.2,0.3")
    expect_2("example3", "sheets", "--nu", "1/3", "--k-max", "0")

    # a path CSV whose '# status=' trailer is no flow ending exits 2
    with open("path.csv") as f:
        lines = [("# status=bogus\n" if line.startswith("# status=")
                  else line) for line in f]
    write("bogus.csv", "".join(lines))
    expect_2("lift-path", "--config", "ws.json", "--comorphism", "id",
             "--path", "bogus.csv", "--x0", "0.5,0")

    # a path CSV with the right counts under other names (eta1 first), a
    # one-sample matrix path and an example3 slab that is not two numbers
    # lo < hi exit 2
    write("swapped.csv", "t,eta1,x1,x2\n0.0,1.0,0.0,0.0\n1.0,1.0,0.0,0.0\n")
    expect_2("develop", "--path", "swapped.csv", "--basis", SO2)
    write("one.csv", "t,g11,g12,g21,g22\n0.0,1.0,0.0,0.0,1.0\n")
    expect_2("logderiv", "--gamma", "one.csv", "--basis", SO2)
    write("slab.json", {"connections": {"c": {"type": "example3",
                                              "slab": [1]}}})
    expect_2("holonomy", "--config", "slab.json", "--connection", "c")

    # so do a homotopy CSV with one s value and a basis of one matrix for
    # the rank-2 path of path.csv
    write("one_s.csv", "t,s,x1,x2,eta1,eta2,beta1,beta2\n" + "".join(
        f"{t},0.0,0.0,0.0,0.0,0.0,0.0,0.0\n" for t in (0.0, 0.5, 1.0)))
    expect_2("lift-homotopy", "--config", "ws.json", "--comorphism", "id",
             "--homotopy", "one_s.csv", "--x0", "0,0")
    expect_2("develop", "--path", "path.csv", "--basis", SO2)

    # a workspace key its entry does not read (a misspelt nu0 or domain)
    # and a non-finite nu0 exit 2
    write("nu.json", {"connections": {"c": {"type": "example3", "nu": 0.5}}})
    expect_2("holonomy", "--config", "nu.json", "--connection", "c")
    write("nu0.json", {"connections": {"c": {"type": "example3",
                                             "nu0": "inf"}}})
    expect_2("holonomy", "--config", "nu0.json", "--connection", "c")
    write("domian.json", {"algebroids": {"disk": {
        "base_dim": 2, "rank": 2, "anchor": [["1", "0"], ["0", "1"]],
        "domian": ["1 - x1^2 - x2^2"]}}})
    expect_2("check-algebroid", "--config", "domian.json")

    # a lift through a rank-0 target flows x' = 0 and completes
    write("rank0.json", {
        "algebroids": {"pt": {"base_dim": 1, "rank": 0, "anchor": [[]],
                              "bracket": {}}},
        "comorphisms": {"c": {"source": "pt", "target": "pt",
                              "phi": ["x1"], "M": []}}})
    write("still.csv", "t,x1\n0.0,0.3\n0.5,0.3\n1.0,0.3\n")
    ok("lift-path", "--config", "rank0.json", "--comorphism", "c", "--path",
       "still.csv", "--x0", "0.3", "--out", "still_lift.csv")

    # develop a constant so(2) A-path over a point (a quarter turn) and
    # recover its eta by the logarithmic derivative
    write("point.json", {"algebroids": {"point": {
        "base_dim": 1, "rank": 1, "anchor": [["0"]], "bracket": {}}}})
    ok("integrate-path", "--config", "point.json", "--section",
       "1.5707963267948966", "--x0", "0", "--grid", "1000", "--out",
       "eta.csv")
    ok("develop", "--path", "eta.csv", "--basis", SO2, "--out", "gamma.csv")
    ok("logderiv", "--gamma", "gamma.csv", "--basis", SO2, "--out",
       "eta_back.csv", out="logderiv.json")
    eta = report("logderiv.json")["eta_end"][0]
    if not abs(eta - math.pi / 2) <= 1e-4:
        fail(f"logderiv recovered eta = {eta!r}, not pi/2")

    # the same path over a point without its x1 column develops the same
    with open("eta.csv") as f:
        lines = [line if line.startswith("#")
                 else ",".join(line.split(",")[::2]) for line in f]
    write("eta_only.csv", "".join(lines))
    ok("develop", "--path", "eta_only.csv", "--basis", SO2, "--out",
       "gamma_only.csv")
    with open("gamma.csv") as f, open("gamma_only.csv") as g:
        if f.read() != g.read():
            fail("develop of a t,eta1 path differs from its t,x1,eta1 form")

    # a span of m steps of span / m takes m steps, however the division
    # rounds: a loop of grid 23294 and a path of grid 100009, lifted,
    # complete
    ok("holonomy", "--grid", "23294", out="grid.json")
    rep = report("grid.json")
    if rep["status"] != "completed":
        fail(f"holonomy --grid 23294 reported {rep['status']}")
    ok("integrate-path", "--config", "ws.json", "--section", "0 - x2; x1",
       "--x0", "0.5,0", "--grid", "100009", "--out", "big.csv")
    ok("lift-path", "--config", "ws.json", "--comorphism", "id", "--path",
       "big.csv", "--x0", "0.5,0", "--out", "big_lift.csv")

    # a sum of expr.MAX_TERMS terms flows; a section nested one level past
    # expr.MAX_DEPTH, a bump nested past it (six levels each), a loop
    # whose samples overflow and an example3 nu0 that is no number exit 2
    long_sum = " + ".join(["x1"] + ["x2"] * 999)
    ok("integrate-path", "--config", "ws.json", "--section",
       f"{long_sum}; 1", "--x0", "0,0.001", "--grid", "10", "--out",
       "long.csv", out="long.json")
    rep = report("long.json")
    if rep["status"] != "completed":
        fail(f"a section of 1000 terms: {rep['status']}")
    deep = "sin(" * 65 + "x1" + ")" * 65
    expect_2("integrate-path", "--config", "ws.json", "--section",
             f"{deep}; x1", "--x0", "0,0")
    bumps = "bump(-1, 1, " * 11 + "x1" + ")" * 11
    expect_2("integrate-path", "--config", "ws.json", "--section",
             f"{bumps}; x1", "--x0", "0,0")
    expect_2("holonomy", "--radius", "1e308")
    write("nu0x.json", {"connections": {"c": {"type": "example3",
                                              "nu0": "x"}}})
    expect_2("holonomy", "--config", "nu0x.json", "--connection", "c")

    # a start point outside the domain is bad input (exit 2), not an
    # escape (exit 1): a loop on the removed axis, whose radius squares
    # to 0.0, and a path from outside the unit disk
    for radius in ("0", "1e-200"):
        expect_2("holonomy", "--radius", radius)
        expect_2("holonomy", "--radius", radius, "--h-grid=0:0.1:2")
    write("disk.json", {"algebroids": {"disk": {
        "base_dim": 2, "rank": 2, "anchor": [["1", "0"], ["0", "1"]],
        "domain": ["1 - x1^2 - x2^2"]}}})
    expect_2("integrate-path", "--config", "disk.json", "--section", "1;0",
             "--x0", "2,0")
    # and so is a start of another length, in every command that flows
    # one
    expect_2("integrate-path", "--config", "disk.json", "--section", "1;0",
             "--x0", "0.1")
    expect_2("poisson", "flow", "--config", "poisson.json", "--f", "x1",
             "--x0", "0.1")
    expect_2("lift-path", "--config", "ws.json", "--comorphism", "id",
             "--path", "path.csv", "--x0", "0.1")
    expect_2("lift-homotopy", "--config", "ws.json", "--comorphism", "id",
             "--homotopy", "homotopy.csv", "--x0", "0.1")

    # so are a probe seed outside the domain and a start whose image
    # misses the path's source
    write("probe.json", {
        "algebroids": {"disk": {
            "base_dim": 2, "rank": 2, "anchor": [["1", "0"], ["0", "1"]],
            "domain": ["1 - x1^2 - x2^2"]}, **PLANE_WS["algebroids"]},
        "comorphisms": {"incl": {"source": "disk", "target": "plane",
                                 "phi": ["x1", "x2"],
                                 "M": [["1", "0"], ["0", "1"]]}},
        "poisson": {"pdisk": {"dim": 2, "Pi": {"1,2": "1"},
                              "domain": ["1 - x1^2 - x2^2"]},
                    "pplane": {"dim": 2, "Pi": {"1,2": "1"}}}})
    expect_2("completeness-probe", "--config", "probe.json", "--comorphism",
             "incl", "--section", "1;0", "--x0", "2,0")
    expect_2("poisson", "probe", "--config", "probe.json", "--source",
             "pdisk", "--target", "pplane", "--map", "x1;x2", "--x0", "2,0")
    expect_2("holonomy", "--radius", "0.5", "--x0", "0,0,1,0,0")

    # a sweep starts each lane at (radius, 0, z0, h), so a start point or
    # a height given to it would be ignored: both exit 2
    expect_2("holonomy", "--h-grid", "0:0.1:2", "--x0", "5,5,1,0,0",
             "--grid", "50")
    expect_2("holonomy", "--h-grid", "0:0.1:2", "--h", "0.3", "--grid", "50")


if __name__ == "__main__":
    main()
