"""The four benchmark workloads: seeded inputs, one call, and its checks.

Each workload draws everything it needs from `random.Random(seed)` in its
constructor; the library sees only the generated inputs. `setup()` builds
the library objects (connections, algebroids, Poisson structures, compiled
expressions, workspace files) and is what `setup_s` times. `call(state, k)`
is one closed-loop call; calls cycle through `period` different kinds (the
fixtures of `dual-route-probe`, the commands of a `cli-cold` session), so
that a run of whole cycles always has the same mix. `check(k, result)`
returns an `Outcome`: the items completed, the accuracy figures, any
violated check, and a signature that must repeat exactly whenever kind k
is called again. `speed_elasticity` is how strongly a call's time follows
the speed of the benchmark's reference kernel (see `run.Speedometer`).
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

PHASE_TOL = 1e-6         # criterion 1: holonomy phase vs 2*pi*nu(h)
RESIDUAL_TOL = 1e-3      # criterion 6: lifted homotopy residuals
TDIFF_TOL = 1e-3         # criterion 7: escape times of the two routes
TSTAR_TOL = 0.05         # criterion 7: blowup of xdot = x^2 near t* = 1
CLI_TIMEOUT_S = 120.0

TWO_PI = 2.0 * math.pi


class Outcome:
    def __init__(self, items, accuracy=None, errors=(), signature=None,
                 counters=None):
        self.items = items
        self.accuracy = accuracy or {}
        self.errors = list(errors)
        self.signature = signature
        self.counters = counters or {}


def _phase_error(phase, expected):
    return abs((phase - expected + math.pi) % TWO_PI - math.pi)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


# ------------------------------------------------------- holonomy-sweep --

NU0_CHOICES = (("1/4", 0.25), ("1/3", 1.0 / 3.0),
               ("(sqrt5-1)/2", (math.sqrt(5.0) - 1.0) / 2.0))


class HolonomySweep:
    """`ehresmann.holonomy_sweep` over seeded h values; one item is one
    lane (one h value, one 1000-step RK4 loop of the 5-dim gated field).

    One h is drawn from each band outside the bump support, where nu = 0
    and the gates short-circuit, and the rest are stratified over the
    support, so that every seed has the same mix of cheap and full lanes.
    """

    name = "holonomy-sweep"
    item = "lane"
    period = 1
    speed_elasticity = 1.0

    def __init__(self, seed, size):
        rng = random.Random(seed)
        self.nu0_label, self.nu0 = rng.choice(NU0_CHOICES)
        lanes = 8 if size == "full" else 3
        inner = lanes - 2
        self.h_values = [-0.5 - 0.1 * rng.random(), 0.5 + 0.1 * rng.random()]
        self.h_values += [-0.5 + (i + rng.random()) / inner
                          for i in range(inner)]
        self.grid = 1000

    def describe(self):
        return {"nu0": self.nu0_label, "h_values": self.h_values,
                "grid": self.grid}

    def setup(self):
        from algpaths.ehresmann import ExampleConnection
        conn = ExampleConnection(self.nu0)
        conn.as_comorphism()      # built lazily and cached by the library
        return conn

    def call(self, conn, k):
        from algpaths.ehresmann import holonomy_sweep
        return holonomy_sweep(conn, self.h_values, grid=self.grid)

    def check(self, k, rows):
        errors = []
        worst = 0.0
        for row in rows:
            phase = row["holonomy_angle"]
            if phase is None or not math.isfinite(phase):
                errors.append(f"h={row['h']!r}: no phase (lift failed)")
                continue
            err = _phase_error(phase, TWO_PI * row["nu"])
            worst = max(worst, err)
            if err > PHASE_TOL:
                errors.append(f"h={row['h']!r}: phase error {err:.3e} "
                              f"> {PHASE_TOL:g}")
            if row["nu"] == 0.0 and row["sheets"] != 1:
                errors.append(f"h={row['h']!r}: nu = 0 but "
                              f"{row['sheets']} sheets")
        signature = tuple((row["holonomy_angle"], row["sheets"])
                          for row in rows)
        return Outcome(len(rows), {"holonomy.phase_err_max": worst},
                       errors, signature)


# -------------------------------------------------------- homotopy-lift --

class HomotopyLift:
    """Criterion 6 at 100x100: lift a seeded sine A-homotopy through the
    interval inclusion, write it as CSV, read it back and take the
    residuals of the read-back homotopy. One item is one s-slice.

    x(t, s) = t + a sin(s + p) sin(pi t) stays inside the domain (-2, 2)
    for a < 1, and its beta vanishes at t = 0, 1 for every phase p.
    """

    name = "homotopy-lift"
    item = "s-slice"
    period = 1
    speed_elasticity = 1.0

    def __init__(self, seed, size, workdir):
        rng = random.Random(seed)
        self.amplitude = 0.5 + 0.4 * rng.random()
        self.phase = TWO_PI * rng.random()
        # the residual bound needs the full grid; tiny runs fewer calls
        self.nt = self.ns = 100
        self.csv_path = Path(workdir) / "homotopy.csv"

    def describe(self):
        return {"amplitude": self.amplitude, "phase": self.phase,
                "grid": [self.nt, self.ns]}

    def setup(self):
        import algpaths.expr as ex
        from algpaths.algebroid import LieAlgebroid, make_tangent
        from algpaths.apath import AHomotopy
        from algpaths.comorph import Comorphism
        a, p = self.amplitude, self.phase
        A = LieAlgebroid(1, 1, [[ex.Const(1.0)]], {},
                         domain=[ex.parse("4 - x1^2", ["x1"])])
        B = make_tangent(1)
        c = Comorphism(A, B, [ex.Var("x1")], [[ex.Const(1.0)]])
        H = AHomotopy.from_functions(
            B,
            lambda t, s: [t + a * math.sin(s + p) * math.sin(math.pi * t)],
            lambda t, s: [1.0 + a * math.sin(s + p) * math.pi
                          * math.cos(math.pi * t)],
            lambda t, s: [a * math.cos(s + p) * math.sin(math.pi * t)],
            nt=self.nt, ns=self.ns)
        return c, H

    def call(self, state, k):
        from algpaths.apath import homotopy_residual, read_ahomotopy_csv
        from algpaths.comorph import lift_homotopy
        c, H = state
        lifted = lift_homotopy(c, H, [0.0])
        with open(self.csv_path, "w") as f:
            lifted.write_csv(f)
        with open(self.csv_path) as f:
            back = read_ahomotopy_csv(f, c.source)
        return lifted, back, homotopy_residual(back)

    def check(self, k, result):
        import numpy as np
        lifted, back, (res_x, res_eta) = result
        errors = []
        for label, res in (("x", res_x), ("eta", res_eta)):
            if not res <= RESIDUAL_TOL:
                errors.append(f"residual {label} {res:.3e} > {RESIDUAL_TOL:g}")
        if tuple(lifted.residuals) != (res_x, res_eta):
            errors.append(f"read-back residuals {(res_x, res_eta)} differ "
                          f"from the lift's {tuple(lifted.residuals)}")
        for field in ("t_grid", "s_grid", "x", "eta", "beta"):
            if not np.array_equal(getattr(lifted, field), getattr(back, field)):
                errors.append(f"CSV round trip changed {field}")
        signature = (res_x, res_eta,
                     _digest(lifted.x, lifted.eta, lifted.beta))
        return Outcome(len(lifted.s_grid),
                       {"homotopy.res_x": res_x, "homotopy.res_eta": res_eta},
                       errors, signature)


# ----------------------------------------------------- dual-route-probe --

class DualRouteProbe:
    """`poisson.complete_map_probe` on the three criterion-7 style
    fixtures, one fixture per call in a seeded order. One item is one flow.

    Seed counts are chosen so the three calls cost about the same and do
    not depend on the seed: the so(3)* identity map flows one seed to the
    horizon for each of its four test functions; the open disk and
    x1^2*x2 fixtures exit or blow up from their first seed and flow three
    seeds to the horizon for the bump function.
    """

    name = "dual-route-probe"
    item = "flow"
    period = 3
    speed_elasticity = 1.0
    FIXTURES = ("so3", "disk", "blowup")
    EXPECTED = {"so3": None, "disk": "domain_exit", "blowup": "blowup"}

    def __init__(self, seed, size):
        rng = random.Random(seed)
        self.order = list(self.FIXTURES)
        rng.shuffle(self.order)
        n = 3 if size == "full" else 1

        def disk_point():
            r, a = 0.8 * math.sqrt(rng.random()), TWO_PI * rng.random()
            return (r * math.cos(a), r * math.sin(a))

        # The escaping test functions stop at the first seed, so it fixes
        # the escape time: the disk's centre exits at t* = 1 (criterion 7),
        # and x1' = x1^2 from x1 = 1 blows up at t* = 1 whatever x2 is.
        # The bump function's flow must complete from every seed, or its
        # probe stops early and the call costs less: on x1^2*x2 it does
        # from (1, x2) with 0 <= x2 <= 0.8 and inside [-0.5, 0.5]^2.
        self.seeds = {
            "so3": [tuple(rng.uniform(-1.0, 1.0) for _ in range(3))],
            "disk": [(0.0, 0.0)] + [disk_point() for _ in range(n - 1)],
            "blowup": [(1.0, rng.uniform(0.0, 0.8))]
            + [(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
               for _ in range(n - 1)],
        }
        self.horizon = 2.0
        self.bounds = {"so3": 1e8, "disk": 1e8, "blowup": 1e6}

    def describe(self):
        return {"order": self.order, "seeds": self.seeds,
                "horizon": self.horizon}

    def setup(self):
        import algpaths.expr as ex
        from algpaths.poisson import PoissonManifold
        xyz = ["x1", "x2", "x3"]
        so3 = PoissonManifold(3, {(0, 1): ex.parse("x3", xyz),
                                  (0, 2): ex.parse("0 - x2", xyz),
                                  (1, 2): ex.parse("x1", xyz)})
        plane = PoissonManifold(2, {(0, 1): ex.Const(1.0)})
        line = PoissonManifold(1, {})
        disk = PoissonManifold(2, {(0, 1): ex.Const(1.0)},
                               domain=[ex.parse("1 - x1^2 - x2^2",
                                                ["x1", "x2"])])

        def smooth(components, P):
            return ex.SmoothMap(P.coords,
                                [ex.parse(s, P.coords) for s in components],
                                domain=P.domain)

        return {"so3": (smooth(xyz, so3), so3, so3),
                "disk": (smooth(["x1", "x2"], disk), disk, plane),
                "blowup": (smooth(["x1^2 * x2"], plane), plane, line)}

    def call(self, fixtures, k):
        from algpaths.poisson import complete_map_probe
        name = self.order[k % 3]
        phi, PX, PY = fixtures[name]
        return complete_map_probe(phi, PX, PY, horizon=self.horizon,
                                  bound=self.bounds[name],
                                  seeds=self.seeds[name])

    def check(self, k, rep):
        name = self.order[k % 3]
        seeds = [list(s) for s in self.seeds[name]]
        errors = []
        flows = 0
        statuses = set()
        tdiff = 0.0
        for e in rep.entries:
            for route in ("hamiltonian", "comorphism"):
                v = e[route]
                if v["escaped"]:
                    statuses.add(v["witness"]["status"])
                    flows += seeds.index(v["witness"]["seed"]) + 1
                else:
                    flows += len(seeds)
            if e["t_star_diff"] is not None:
                tdiff = max(tdiff, e["t_star_diff"])
        if not rep.all_agree:
            errors.append(f"{name}: the two routes disagree")
        expected = self.EXPECTED[name]
        if statuses != ({expected} if expected else set()):
            errors.append(f"{name}: escapes {sorted(statuses)}, "
                          f"expected {expected or 'none'}")
        if tdiff > TDIFF_TOL:
            errors.append(f"{name}: route t* differ by {tdiff:.3e}")
        accuracy = {"probe.route_tdiff_max": tdiff}
        if name == "blowup":
            first = rep.entries[0]["hamiltonian"]
            t_star = first["witness"]["t_star"] if first["escaped"] else math.inf
            accuracy["probe.tstar_err"] = abs(t_star - 1.0)
            if not abs(t_star - 1.0) <= TSTAR_TOL:
                errors.append(f"blowup t* = {t_star!r}, expected 1 "
                              f"within {TSTAR_TOL:g}")
        signature = json.dumps(rep.to_json(), sort_keys=True)
        return Outcome(flows, accuracy, errors, signature)


# ------------------------------------------------------------- cli-cold --

NU_FRACTIONS = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 5), (2, 7), (3, 8),
                (5, 9), (7, 12))


class CliCold:
    """One fresh `python -m algpaths.cli` process per call, replaying a
    seeded user session on a generated workspace. One item is one
    invocation. A session is five invocations, `integrate-path` always
    directly before the `lift-path` that reads its CSV.
    """

    name = "cli-cold"
    item = "invocation"
    # A cold CLI process runs mostly C code (unmarshalling, imports,
    # dynamic loading), not bytecode like the reference kernel: over 170
    # calls in two 90 s runs on the reference machine, log call time rose
    # by 0.67 and 0.74 per unit of log kernel time (correlation 0.88 and
    # 0.93), so its times are scaled by the speed to that power.
    speed_elasticity = 0.7

    def __init__(self, seed, size, workdir, src, bench_dir):
        rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.src = Path(src)
        self.traced_script = Path(bench_dir) / "cli_traced.py"
        self.radius2 = rng.uniform(1.0, 2.0)
        self.scale = rng.uniform(0.5, 2.0)
        self.nu0 = rng.choice(NU_FRACTIONS)
        self.h = rng.uniform(-0.3, 0.3)
        p, q = rng.choice(NU_FRACTIONS)
        w = rng.uniform(0.5, 2.0)
        rho = rng.uniform(0.2, 0.9)
        ang = TWO_PI * rng.random()
        x0 = f"{rho * math.cos(ang)!r},{rho * math.sin(ang)!r}"
        ws = "ws.json"
        units = [
            [(["example3", "sheets", "--nu", f"{p}/{q}"], 0, str(q))],
            [(["check-algebroid", "--config", ws, "--name", "tso3",
               "--seed", str(rng.randrange(1000))], 0, None)],
            [(["integrate-path", "--config", ws, "--name", "plane",
               "--section", f"0 - {w!r}*x2; {w!r}*x1", f"--x0={x0}",
               "--out", "path.csv"], 0, None),
             (["lift-path", "--config", ws, "--comorphism", "incl",
               "--path", "path.csv", f"--x0={x0}", "--out", "lifted.csv"],
              0, None)],
            [(["holonomy", "--config", ws, "--connection", "twist",
               f"--h={self.h!r}"], 0, None)],
        ]
        rng.shuffle(units)
        self.session = [cmd for unit in units for cmd in unit]
        self.period = len(self.session)

    def describe(self):
        return {"session": [argv for argv, _, _ in self.session]}

    def setup(self):
        s = self.scale
        workspace = {
            "algebroids": {
                "disk": {"base_dim": 2, "rank": 2,
                         "anchor": [["1", "0"], ["0", "1"]], "bracket": {},
                         "domain": [f"{self.radius2!r} - x1^2 - x2^2"]},
                "plane": {"base_dim": 2, "rank": 2,
                          "anchor": [["1", "0"], ["0", "1"]], "bracket": {}},
                # cotangent algebroid of a scaled so(3)*: rho = Pi,
                # f^c_ab = -d_c Pi^ab
                "tso3": {"base_dim": 3, "rank": 3,
                         "anchor": [["0", f"{s!r}*x3", f"0 - {s!r}*x2"],
                                    [f"0 - {s!r}*x3", "0", f"{s!r}*x1"],
                                    [f"{s!r}*x2", f"0 - {s!r}*x1", "0"]],
                         "bracket": {"3,1,2": f"0 - {s!r}", "2,1,3": repr(s),
                                     "1,2,3": f"0 - {s!r}"}},
            },
            "comorphisms": {
                "incl": {"source": "disk", "target": "plane",
                         "phi": ["x1", "x2"],
                         "M": [["1", "0"], ["0", "1"]]}},
            "connections": {
                "twist": {"type": "example3",
                          "nu0": f"{self.nu0[0]}/{self.nu0[1]}"}},
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        (self.workdir / "ws.json").write_text(json.dumps(workspace, indent=1))
        return self.workdir

    def env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env.pop("ALGPATHS_SEED", None)
        return env

    def call(self, workdir, k, trace_out=None):
        argv, _, _ = self.session[k % self.period]
        if trace_out is None:
            cmd = [sys.executable, "-m", "algpaths.cli"] + argv
        else:
            cmd = [sys.executable, str(self.traced_script), str(trace_out)] + argv
        proc = subprocess.run(cmd, cwd=workdir, env=self.env(),
                              capture_output=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, k, result):
        rc, out, err = result
        argv, want_rc, want_out = self.session[k % self.period]
        errors = []
        accuracy = {}
        mismatch = int(rc != want_rc)
        if mismatch:
            errors.append(f"{argv[0]}: exit {rc}, expected {want_rc}: "
                          f"{err.decode(errors='replace').strip()[-300:]}")
        elif want_out is not None:
            if out.decode().strip() != want_out:
                errors.append(f"{' '.join(argv)}: printed {out!r}, "
                              f"expected {want_out!r}")
        else:
            try:
                report = json.loads(out)
            except ValueError:
                report = None
                errors.append(f"{argv[0]}: stdout is not a JSON report")
            if report is not None:
                errors += self._check_report(argv[0], report, accuracy)
        return Outcome(1, accuracy, errors, signature=out,
                       counters={"cli.exit_mismatch": mismatch})

    def _check_report(self, command, report, accuracy):
        if command == "check-algebroid":
            return [] if report.get("ok") is True else [
                f"check-algebroid: not ok ({report.get('max_residual')})"]
        if report.get("status") != "completed":
            return [f"{command}: status {report.get('status')}"]
        if command == "holonomy":
            err = _phase_error(report["phase"], report["expected_phase"])
            accuracy["cli.holonomy_phase_err"] = err
            if err > PHASE_TOL:
                return [f"holonomy: phase error {err:.3e} > {PHASE_TOL:g}"]
        return []


def make(name, seed, size, workdir, src, bench_dir):
    if name == "holonomy-sweep":
        return HolonomySweep(seed, size)
    if name == "homotopy-lift":
        return HomotopyLift(seed, size, workdir)
    if name == "dual-route-probe":
        return DualRouteProbe(seed, size)
    if name == "cli-cold":
        return CliCold(seed, size, workdir, src, bench_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("holonomy-sweep", "homotopy-lift", "dual-route-probe", "cli-cold")
