"""Acceptance gate: the eleven numbered criteria, one pass/fail line each.

Every test computes its measured quantities through the public library
API, prints a single ``[PASS]``/``[FAIL]`` line with the measurements,
and asserts the stated tolerance.  Run with ``pytest -rA`` (the default
addopts) to see the lines for passing tests.
"""

import math
import time

import numpy as np

import algpaths.expr as ex
from algpaths.algebroid import (Draws, LieAlgebroid, SectionTD,
                                check_axioms, make_cotangent_poisson,
                                make_lie_algebra, make_tangent,
                                sample_points)
from algpaths.apath import (AHomotopy, APath, develop, integrate_apath,
                            log_derivative)
from algpaths.comorph import (Comorphism, compose, lift_homotopy, lift_path,
                              lift_uniqueness_check)
from algpaths.ehresmann import (ExampleConnection, circle_loop, density_scan,
                                holonomy, self_intersection_witness,
                                sheet_count)
from algpaths.poisson import (PoissonManifold, complete_map_probe,
                              standard_symplectic)

NU_CASES = (0.0, 0.25, 1.0 / 3.0, 0.5)


def report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _const(v):
    return ex.Const(float(v))


def _identity_M(r):
    return [[_const(1.0 if a == b else 0.0) for b in range(r)]
            for a in range(r)]


def _open_disk_inclusion():
    """Tangent algebroid of the open unit disk included into the plane."""
    coords = ["x1", "x2"]
    disk = LieAlgebroid(2, 2, [[_const(1), _const(0)], [_const(0), _const(1)]],
                        {}, domain=[ex.parse("1 - x1^2 - x2^2", coords)])
    plane = make_tangent(2)
    incl = Comorphism(disk, plane, [ex.Var("x1"), ex.Var("x2")],
                      _identity_M(2))
    return disk, plane, incl


def test_criterion_01_holonomy_phase():
    worst = 0.0
    slowest = 0.0
    all_completed = True
    for nu0 in NU_CASES:
        fc = ExampleConnection(nu0)
        t0 = time.monotonic()
        loop = circle_loop(fc, grid=1000)  # unit circle, step 1e-3
        rep = holonomy(fc, loop, [1.0, 0.0, 1.0, 0.0, 0.0])
        slowest = max(slowest, time.monotonic() - t0)
        expected = 2.0 * math.pi * nu0
        err = abs((rep.phase - expected + math.pi) % (2.0 * math.pi)
                  - math.pi)
        worst = max(worst, err)
        all_completed = all_completed and rep.completed
    ok = all_completed and worst <= 1e-6 and slowest < 5.0
    report(1, ok,
           "transported phase equals 2*pi*nu mod 2*pi for nu in "
           f"{{0, 1/4, 1/3, 1/2}} at step 1e-3 (max error {worst:.2e} "
           f"<= 1e-6, slowest case {slowest:.2f}s < 5s)")


def test_criterion_02_sheet_counts():
    got = [sheet_count(v) for v in NU_CASES]
    irr = sheet_count(math.sqrt(2.0) - 1.0, k_max=10**6)
    ok = got == [1, 4, 3, 2] and irr == math.inf
    report(2, ok,
           f"sheet counts for nu in {{0, 1/4, 1/3, 1/2}} are {got} "
           f"(expected [1, 4, 3, 2]); sqrt(2)-1 gives {irr} at k_max 1e6")


def test_criterion_03_density():
    tau_max = 1e4 * 2.0 * math.pi
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    dense = density_scan(golden, 0.0, [1.0, 0.0], tau_max, 32)
    lines = density_scan(1.0 / 3.0, 0.0, [1.0, 0.0], tau_max, 32)
    ok = dense.coverage == 1.0 and lines.line_count == 3
    report(3, ok,
           f"golden-ratio twist covers {dense.cells_hit}/{dense.cells_total} "
           f"torus cells by tau_max = 1e4*2*pi; nu = 1/3 traces "
           f"{lines.line_count} lines (expected 3)")


def test_criterion_04_self_intersection():
    worst_image = 0.0
    worst_gap = 0.0
    for nu0 in (0.25, 1.0 / 3.0):
        rep = self_intersection_witness(ExampleConnection(nu0), 0.0, 0.0)
        worst_image = max(worst_image, rep.image_mismatch)
        chord = 2.0 * abs(math.sin(math.pi * nu0))
        worst_gap = max(worst_gap, abs(rep.gap - chord))
    ok = worst_image <= 1e-12 and worst_gap <= 1e-6
    report(4, ok,
           f"at z = 0 the tau vs tau+2*pi images coincide (mismatch "
           f"{worst_image:.2e} <= 1e-12) while the tangent-plane gap "
           f"matches the 2|sin(pi nu)| chord within {worst_gap:.2e} <= 1e-6")


def test_criterion_05_path_lifting():
    # trivial flat connection: product projection (x1, x2) -> x1
    T2, T1 = make_tangent(2), make_tangent(1)
    trivial = Comorphism(T2, T1, [ex.Var("x1")], [[_const(1)], [_const(0)]])
    times = np.linspace(0.0, 1.0, 1001)  # step 1e-3
    g = APath(T1, times, [[math.sin(t)] for t in times],
              [[math.cos(t)] for t in times])
    lifted = lift_path(trivial, g, [0.0, 0.7])
    proj_trivial = lifted.phi_projection_error

    # twisted-cylinder connection: transport around the unit circle
    fc = ExampleConnection(1.0 / 3.0)
    loop = circle_loop(fc, grid=1000)
    rep = holonomy(fc, loop, [1.0, 0.0, 1.0, 0.0, 0.0])

    # incomplete open-disk fixture: an escaping ray fails with a witness
    _, plane, incl = _open_disk_inclusion()
    ray = APath(plane, times, [[2.0 * t, 0.0] for t in times],
                [[2.0, 0.0] for _ in times])
    esc = lift_path(incl, ray, [0.0, 0.0])
    ok = (lifted.completed and proj_trivial <= 1e-6
          and rep.completed and rep.phi_projection_error <= 1e-6
          and esc.status == "domain_exit" and esc.ending.t_star is not None
          and abs(esc.ending.t_star - 0.5) <= 1e-3)
    report(5, ok,
           f"lifts project onto the base path within "
           f"{max(proj_trivial, rep.phi_projection_error):.2e} <= 1e-6 "
           f"(trivial and twisted connections, step 1e-3); open-disk lift "
           f"fails with status {esc.status!r} at t* = {esc.ending.t_star}")


def _interval_inclusion():
    """1-d algebroid on (-2, 2) included into the tangent line."""
    A = LieAlgebroid(1, 1, [[_const(1)]], {},
                     domain=[ex.parse("4 - x1^2", ["x1"])])
    B = make_tangent(1)
    return A, B, Comorphism(A, B, [ex.Var("x1")], [[_const(1)]])


def _sine_homotopy(B, nt, ns):
    return AHomotopy.from_functions(
        B,
        lambda t, s: [t + math.sin(s) * math.sin(math.pi * t)],
        lambda t, s: [1.0 + math.sin(s) * math.pi * math.cos(math.pi * t)],
        lambda t, s: [math.cos(s) * math.sin(math.pi * t)],
        nt=nt, ns=ns)


def test_criterion_06_homotopy_lifting():
    _, B, c = _interval_inclusion()
    fine = lift_homotopy(c, _sine_homotopy(B, 200, 200), [0.0])
    coarse = lift_homotopy(c, _sine_homotopy(B, 100, 100), [0.0])
    res_x, res_eta = fine.residuals
    factor_x = coarse.residuals[0] / res_x
    factor_eta = coarse.residuals[1] / res_eta
    ok = (res_x <= 1e-3 and res_eta <= 1e-3
          and factor_x >= 3.0 and factor_eta >= 3.0)
    report(6, ok,
           f"lifted homotopy residuals on a 200x200 grid are "
           f"(x: {res_x:.2e}, eta: {res_eta:.2e}) <= 1e-3 and shrink by "
           f"(x: {factor_x:.2f}, eta: {factor_eta:.2f}) >= 3 under one "
           f"refinement level")


def test_criterion_07_completeness_equivalence():
    plane = PoissonManifold(2, {(0, 1): _const(1)})
    line = PoissonManifold(1, {})
    disk = PoissonManifold(2, {(0, 1): _const(1)},
                           domain=[ex.parse("1 - x1^2 - x2^2",
                                            ["x1", "x2"])])

    def smooth(components, P):
        return ex.SmoothMap(P.coords,
                            [ex.parse(s, P.coords) for s in components],
                            domain=P.domain)

    fixtures = [
        # (name, phi, PX, PY, test functions, seeds, bound)
        ("projection", smooth(["x1"], plane), plane, line,
         None, ((0.3, -0.2),), 1e8),
        ("identity", smooth(["x1", "x2"], plane), plane, plane,
         ["(x1^2 + x2^2)/2"], ((1.0, 0.0),), 1e8),
        ("open disk", smooth(["x1", "x2"], disk), disk, plane,
         ["x2"], ((0.0, 0.0),), 1e8),
        ("quadratic blowup", smooth(["x1^2 * x2"], plane), plane, line,
         None, ((1.0, 1.0),), 1e6),
    ]
    verdicts = []
    agree = True
    worst_tdiff = 0.0
    blowup_t = None
    for name, phi, PX, PY, fs, seeds, bound in fixtures:
        rep = complete_map_probe(phi, PX, PY, test_functions=fs,
                                 horizon=2.0, bound=bound, seeds=seeds)
        agree = agree and rep.all_agree
        escaped = any(e["hamiltonian"]["escaped"] for e in rep.entries)
        verdicts.append(escaped)
        for e in rep.entries:
            if e["t_star_diff"] is not None:
                worst_tdiff = max(worst_tdiff, e["t_star_diff"])
        if name == "quadratic blowup":
            entry = rep.entries[0]
            assert entry["hamiltonian"]["witness"]["status"] == "blowup"
            blowup_t = entry["hamiltonian"]["witness"]["t_star"]
    # xdot = x^2 from x0 = 1 blows up at t = 1/x0 = 1
    ok = (verdicts == [False, False, True, True] and agree
          and worst_tdiff <= 1e-3 and abs(blowup_t - 1.0) <= 0.05)
    report(7, ok,
           f"both probe routes classify 2 complete + 2 incomplete "
           f"fixtures identically (escape verdicts {verdicts}); escape "
           f"times agree within {worst_tdiff:.2e} <= 1e-3; xdot = x^2 "
           f"blowup at t* = {blowup_t:.4f} within 5% of 1/x0 = 1")


def test_criterion_08_functoriality():
    # two-stage flat-connection chain T(R^3) -> T(R^2) -> T(R)
    T3, T2, T1 = make_tangent(3), make_tangent(2), make_tangent(1)
    one, zero = _const(1), _const(0)
    # horizontal fields h1 = d1 + x2 d3, h2 = d2 + x1 d3 commute (flat)
    c1 = Comorphism(T3, T2, [ex.Var("x1"), ex.Var("x2")],
                    [[one, zero], [zero, one],
                     [ex.Var("x2"), ex.Var("x1")]])
    c2 = Comorphism(T2, T1, [ex.Var("x1")], [[one], [ex.Var("x1")]])

    s = SectionTD(T1, [ex.parse("1 + t/2", ["t", "x1"])])
    g = integrate_apath(T1, s, [0.0], grid_size=1000)

    staged_mid = lift_path(c2, g, [0.0, 0.5])
    staged = lift_path(c1, staged_mid, [0.0, 0.5, -0.3])
    direct = lift_path(compose(c1, c2), g, [0.0, 0.5, -0.3])
    gap = float(np.linalg.norm(np.asarray(staged.target)
                               - np.asarray(direct.target)))
    ok = staged.completed and direct.completed and gap <= 1e-6
    report(8, ok,
           f"composed-lift and lift-of-composite endpoints agree within "
           f"{gap:.2e} <= 1e-6 on a two-stage flat-connection chain")


def test_criterion_09_lift_uniqueness():
    _, plane, incl = _open_disk_inclusion()
    times = np.linspace(0.0, 1.0, 2001)  # N = 2000
    g = APath(plane, times,
              [[0.5 * math.cos(t), 0.5 * math.sin(t)] for t in times],
              [[-0.5 * math.sin(t), 0.5 * math.cos(t)] for t in times])
    rep = lift_uniqueness_check(incl, g, [0.5, 0.0])
    spread = rep.endpoint_spread
    ok = spread is not None and spread <= 1e-5
    report(9, ok,
           f"endpoint spread across {len(rep.runs)} interpolation/step "
           f"variants is {spread:.2e} <= 1e-5 at N = 2000")


def test_criterion_10_development_round_trip():
    times = np.linspace(0.0, 1.0, 1001)  # N = 1000
    base = [[0.0] for _ in times]

    # so(2): quarter rotation, endpoint against exp(pi/2 E), which is the
    # quarter turn E itself, exactly
    E = np.array([[0.0, -1.0], [1.0, 0.0]])
    so2 = make_lie_algebra(np.zeros((1, 1, 1)))
    g2 = APath(so2, times, base, [[math.pi / 2.0] for _ in times])
    mp2 = develop([E], g2)
    rot_err = float(np.max(np.abs(mp2.endpoint - E)))
    back2 = log_derivative(mp2, [E])
    rt2 = float(np.max(np.abs(np.asarray(back2.eta) - math.pi / 2.0)))

    # so(3): time-varying eta round trip
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[k, i, j], eps[k, j, i] = 1.0, -1.0
    so3 = make_lie_algebra(eps)
    basis3 = [np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
              np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
              np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])]
    eta3 = [[0.3 * math.sin(math.pi * t), -0.4 * t,
             0.5 * math.cos(math.pi * t)] for t in times]
    g3 = APath(so3, times, base, eta3)
    mp3 = develop(basis3, g3)
    back3 = log_derivative(mp3, basis3)
    rt3 = float(np.max(np.abs(np.asarray(back3.eta) - np.asarray(eta3))))

    ok = rt2 <= 1e-4 and rt3 <= 1e-4 and rot_err <= 1e-8
    report(10, ok,
           f"log_derivative(develop(.)) recovers eta within "
           f"(so(2): {rt2:.2e}, so(3): {rt3:.2e}) <= 1e-4 at N = 1000; "
           f"so(2) quarter rotation matches the exact rotation within "
           f"{rot_err:.2e} <= 1e-8")


def test_criterion_11_structure_integrity():
    draws = Draws(0)
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[k, i, j], eps[k, j, i] = 1.0, -1.0
    so3_dual = PoissonManifold(3, {
        (0, 1): ex.parse("x3", ["x1", "x2", "x3"]),
        (0, 2): ex.parse("0 - x2", ["x1", "x2", "x3"]),
        (1, 2): ex.parse("x1", ["x1", "x2", "x3"])})
    builtins = {
        "T(R)": make_tangent(1),
        "T(R^2)": make_tangent(2),
        "T(R^3)": make_tangent(3),
        "so(3)": make_lie_algebra(eps),
        "T*(so(3)*)": make_cotangent_poisson(so3_dual),
        "T*(R^2 sympl)": make_cotangent_poisson(standard_symplectic(2)),
        "T*(R^4 sympl)": make_cotangent_poisson(standard_symplectic(4)),
    }
    worst_axiom = 0.0
    for A in builtins.values():
        rep = check_axioms(A, sample_points(A, 100, draws))
        worst_axiom = max(worst_axiom, rep.max_residual())
    worst_jacobi = 0.0
    fixtures = (so3_dual, standard_symplectic(2), standard_symplectic(4))
    for P in fixtures:
        worst_jacobi = max(worst_jacobi,
                           P.jacobi_residual(sample_points(P, 100, draws)))

    # 100 random expression trees: symbolic derivative vs central FD. The
    # trees come from numpy's stream of seed 0 where the samples above
    # left it: past 100 points of each dimension, none rejected
    rng = np.random.default_rng(0)
    rng.random(100 * sum(S.n for S in (*builtins.values(), *fixtures)))
    assert rng.bit_generator.state["state"]["state"] == draws._state
    variables = ["x1", "x2"]

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return ex.Var(variables[int(rng.integers(len(variables)))])
            return ex.Const(round(float(rng.uniform(-1.5, 1.5)), 3))
        op = ("add", "sub", "mul", "sin", "cos", "exp",
              "pow")[int(rng.integers(7))]
        a = random_expr(depth - 1)
        if op == "add":
            return ex.add(a, random_expr(depth - 1))
        if op == "sub":
            return ex.sub(a, random_expr(depth - 1))
        if op == "mul":
            return ex.mul(a, random_expr(depth - 1))
        if op == "sin":
            return ex.fun("sin", a)
        if op == "cos":
            return ex.fun("cos", a)
        if op == "exp":
            return ex.mul(_const(0.3), ex.fun("exp", ex.mul(_const(0.4), a)))
        return ex.pow_(a, int(rng.integers(2, 4)))

    h = 1e-5
    worst_rel = 0.0
    for _ in range(100):
        e = random_expr(3)
        point = [float(rng.uniform(-0.8, 0.8)) for _ in variables]
        # e and its partials, compiled as the library evaluates them
        fn = ex.compile_exprs([e] + [e.d(v) for v in variables], variables)
        for i in range(len(variables)):
            analytic = fn(*point)[1 + i]
            hi, lo = list(point), list(point)
            hi[i] += h
            lo[i] -= h
            fd = (fn(*hi)[0] - fn(*lo)[0]) / (2.0 * h)
            rel = abs(analytic - fd) / max(1.0, abs(fd))
            worst_rel = max(worst_rel, rel)

    ok = worst_axiom <= 1e-10 and worst_jacobi <= 1e-10 and worst_rel <= 1e-6
    report(11, ok,
           f"{len(builtins)} built-in algebroids pass axiom residuals "
           f"<= 1e-10 at 100 seeded points (worst {worst_axiom:.2e}); "
           f"Poisson fixtures pass Jacobi (worst {worst_jacobi:.2e}); "
           f"100 random expression derivatives match finite differences "
           f"within {worst_rel:.2e} <= 1e-6 relative")
