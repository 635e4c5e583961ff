import io
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algpaths import comorph, ehresmann, expr as ex
from algpaths.algebroid import AlgebroidError
from algpaths.apath import APath
from algpaths.cli import ConfigError, load_workspace
from algpaths.comorph import anchor_compat_residual, lift_path
from algpaths.ehresmann import (ExampleConnection, FlatConnection,
                                GammaElement, circle_loop, density_scan,
                                flatness_residual, holonomy, holonomy_sweep,
                                self_intersection_witness, sheet_count,
                                write_sweep_csv)

TWO_PI = 2.0 * math.pi


def conn_samples(count=50, seed=0):
    """Points with r bounded away from the removed axis, h crossing both
    the nu support and the slab edges."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        pts.append([rng.uniform(0.6, 1.4), rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                    rng.uniform(-2.0, 2.0)])
    return pts


# ----------------------------------------------------- connection axioms

def test_example_connection_is_a_flat_section():
    conn = ExampleConnection(0.25)
    pts = conn_samples()
    assert anchor_compat_residual(conn, pts) == 0.0
    assert flatness_residual(conn, pts) <= 1e-10


def test_zero_twist_connection_is_exactly_flat():
    conn = ExampleConnection(0.0)
    pts = conn_samples(20)
    assert flatness_residual(conn, pts) == 0.0


def test_curved_horizontal_lift_is_detected():
    # H e_1 = d_1 + x2 d_3, H e_2 = d_2: [He_1, He_2] = -d_3, fully vertical
    coords = ["x1", "x2", "x3"]
    H = [[1.0, 0.0], [0.0, 1.0], [ex.Var("x2"), 0.0]]
    fc = FlatConnection(coords, [ex.Var("x1"), ex.Var("x2")], H)
    pts = [(0.3, -0.4, 0.1), (1.0, 2.0, -1.0)]
    assert anchor_compat_residual(fc, pts) == 0.0
    assert flatness_residual(fc, pts) == 1.0


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (2.0, -1.0), (0.5, 0.5),
                                  (-3.0, 0.25)])
def test_flatness_residual_is_the_vertical_commutator(a, b):
    # H e_1 = d_1 + a x2 d_3, H e_2 = d_2 + b x1 d_3: [He_1, He_2] =
    # (b - a) d_3, fully vertical, so the residual is exactly |b - a|
    coords = ["x1", "x2", "x3"]
    H = [[1.0, 0.0], [0.0, 1.0],
         [ex.mul(ex.Const(a), ex.Var("x2")),
          ex.mul(ex.Const(b), ex.Var("x1"))]]
    fc = FlatConnection(coords, [ex.Var("x1"), ex.Var("x2")], H)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (10, 3))
    assert anchor_compat_residual(fc, pts) == 0.0
    assert flatness_residual(fc, pts) == abs(b - a)


def test_the_section_property_is_the_anchor_compatibility(tmp_path):
    # for tangent algebroids Dphi . rho_X . H - rho_Y(phi) is Dphi H - I
    coords = ["x1", "x2", "x3"]
    bad = FlatConnection(coords, [ex.Var("x1"), ex.Var("x2")],
                         [[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
    assert anchor_compat_residual(bad, [(0.0, 0.0, 0.0)]) == 0.5
    cfg = tmp_path / "ws.json"
    cfg.write_text('{"connections": {"bad": {"x_coords": ["x1", "x2"], '
                   '"phi": ["x1"], "H": [["0.5"], ["0"]]}}}')
    with pytest.raises(ConfigError, match="section spot-check failed"):
        load_workspace(cfg)
    # the connection is the comorphism: one object, over tangent algebroids
    good = ExampleConnection(0.25)
    assert good.as_comorphism() is good
    assert good.source.coords == ["x", "y", "z1", "z2", "h"]
    assert good.target.coords == ["x", "y"]
    assert np.array_equal(good.source.anchor_matrix([1.0] * 5), np.eye(5))


def test_h_shape_is_validated():
    with pytest.raises(AlgebroidError, match="H must be"):
        FlatConnection(["x1", "x2"], [ex.Var("x1")], [[1.0]])


# -------------------------------------------------------------- holonomy

def test_circle_loop_is_closed_bitwise():
    conn = ExampleConnection(0.25)
    loop = circle_loop(conn, grid=100)
    assert np.array_equal(loop.base[0], loop.base[-1])
    assert np.array_equal(loop.eta[0], loop.eta[-1])
    assert len(loop.times) == 101


def test_holonomy_quarter_twist():
    conn = ExampleConnection(0.25)
    loop = circle_loop(conn, grid=1000)
    rep = holonomy(conn, loop, [1.0, 0.0, 1.0, 0.0, 0.0])
    assert rep.completed
    assert abs(rep.phase - TWO_PI * 0.25) <= 1e-6
    assert rep.phi_projection_error <= 1e-6
    # z transported from 1 to e^{i pi/2} = i, base point restored
    assert np.allclose(rep.target[:2], [1.0, 0.0], atol=1e-6)
    assert np.allclose(rep.target[2:4], [0.0, 1.0], atol=1e-6)


def test_holonomy_zero_twist_is_exactly_zero():
    conn = ExampleConnection(0.0)
    loop = circle_loop(conn, grid=500)
    rep = holonomy(conn, loop, [1.0, 0.0, 1.0, 0.0, 0.0])
    assert rep.phase == 0.0


def test_holonomy_outside_the_support_is_exactly_zero():
    conn = ExampleConnection(0.25)
    loop = circle_loop(conn, grid=500)
    rep = holonomy(conn, loop, [1.0, 0.0, 1.0, 0.0, 2.0])  # nu(2) = 0
    assert rep.phase == 0.0


@pytest.mark.parametrize("h", [-1.5, 0.7, 2.0])
def test_compiled_coefficients_stay_gated_on_the_axis(h):
    # x = y = 0 with nu(h) = 0: the gated 1/r^2 terms must not be touched
    conn = ExampleConnection(1.0 / 3.0)
    assert conn.nu(h) == 0.0
    x = [0.0, 0.0, 1.0, 0.5, h]
    assert conn.M_at(x)[2:4].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    lift = conn._lift_field
    # the field's 5 values, then M's 10 entries row by row, then phi's 2
    assert lift(0.3, -0.7, *x) == [0.3, -0.7, 0.0, 0.0, 0.0,
                                   *conn.M_at(x).ravel().tolist(),
                                   *conn.phi_at(x).tolist()]


@pytest.mark.parametrize("nu0", [0.0, -0.0])
def test_a_zero_nu0_folds_nu_and_every_gate(nu0):
    # 0 * bump is Const(0.0), of either zero, and a gate on it folds: the
    # lift field is xi, M's constant entries and phi
    conn = ExampleConnection(nu0)
    assert conn.nu_expr == ex.Const(0.0) and str(conn.nu_expr) == "0"
    body = conn._lift_field.body
    assert body.lines == () and body.outs == (
        "_v0", "_v1", "0.0", "0.0", "0.0", "1.0", "0.0", "0.0", "1.0",
        "0.0", "0.0", "0.0", "0.0", "0.0", "0.0", "_v2", "_v3")


def test_contractible_loop_has_no_holonomy():
    # a loop not encircling the removed axis transports z trivially
    conn = ExampleConnection(0.25)
    loop = circle_loop(conn, radius=0.5, center=(2.0, 0.0), grid=500)
    rep = holonomy(conn, loop, [2.5, 0.0, 1.0, 0.0, 0.0])
    assert rep.completed
    assert abs(rep.phase) <= 1e-9


def test_holonomy_is_additive_over_turns():
    conn = ExampleConnection(0.25)
    loop = circle_loop(conn, turns=3, grid=3000)
    rep = holonomy(conn, loop, [1.0, 0.0, 1.0, 0.0, 0.0])
    assert abs(rep.phase - 3 * TWO_PI * 0.25) <= 1e-6


def test_the_twisted_cylinder_owns_its_start_and_fiber():
    conn = ExampleConnection(0.25)
    assert conn.start(1.5, (1, -2), 0.3) == [1.5, 0.0, 1.0, -2.0, 0.3]
    # z = 0 has no phase, in either zero's sign
    for z0 in ((0.0, 0.0), (-0.0, 0.0), [0, -0.0]):
        with pytest.raises(ValueError, match="z0 must be nonzero"):
            conn.start(1.0, z0, 0.0)
    with pytest.raises(ValueError):
        conn.start(1.0, (1.0, 0.0, 7.0), 0.0)
    # the fiber is marked by the class: a plain flat connection has none
    assert "z_indices" not in vars(conn)
    assert ExampleConnection.z_indices == (2, 3)
    assert FlatConnection.z_indices is None


def test_holonomy_lifts_a_stack_of_starts_as_each_alone():
    conn = ExampleConnection(1.0 / 3.0)
    loop = circle_loop(conn, grid=300)
    starts = [conn.start(1.0, (1.0, 0.0), h) for h in (-0.7, 0.0, 0.3)]
    lifts = holonomy(conn, loop, starts)
    assert isinstance(lifts, list) and len(lifts) == 3
    for start, lifted in zip(starts, lifts):
        alone = holonomy(conn, loop, start)
        assert lifted.phase == alone.phase
        assert lifted.base.tobytes() == alone.base.tobytes()
        assert lifted.eta.tobytes() == alone.eta.tobytes()
    assert lifts[0].phase == 0.0
    assert abs(lifts[1].phase - TWO_PI / 3.0) <= 1e-6
    assert holonomy(conn, loop, np.empty((0, 5))) == []


def test_a_sweep_is_one_holonomy_of_its_starts(monkeypatch):
    conn = ExampleConnection(1.0 / 3.0)
    calls = []
    for name in ("holonomy", "lift_path"):
        inner = getattr(ehresmann, name)
        monkeypatch.setattr(ehresmann, name, lambda *a, inner=inner,
                            name=name: calls.append(name) or inner(*a))
    rows = holonomy_sweep(conn, [0.0, 0.6], grid=200, z0=(0.0, 2.0))
    assert calls == ["holonomy", "lift_path"]
    loop = circle_loop(conn, grid=200)
    lifts = holonomy(conn, loop, [[1.0, 0.0, 0.0, 2.0, 0.0],
                                  [1.0, 0.0, 0.0, 2.0, 0.6]])
    assert [row["holonomy_angle"] for row in rows] == [
        lifted.phase for lifted in lifts]
    with pytest.raises(ValueError, match="z0 must be nonzero"):
        holonomy_sweep(conn, [0.0], grid=200, z0=(0.0, 0.0))


def test_holonomy_requires_a_closed_loop():
    conn = ExampleConnection(0.25)
    tgt = conn.target
    times = np.linspace(0.0, 1.0, 11)
    line = APath(tgt, times, [[t, 0.0] for t in times],
                 [[1.0, 0.0]] * 11)
    with pytest.raises(AlgebroidError, match="closed"):
        holonomy(conn, line, [0.0, 0.0, 1.0, 0.0, 0.0])


def test_an_example3_connection_loads_and_spot_checks_with_7_compiles(
        tmp_path, monkeypatch):
    # the domain predicate; the two tangent anchors, phi and H (as M);
    # Dphi for the spot-check; nu, compiled on its first call. A second
    # compiled copy of the comorphism would show here.
    counted = []
    compile_exprs = ex.compile_exprs

    def counting(exprs, variables):
        counted.append(len(exprs))
        return compile_exprs(exprs, variables)

    monkeypatch.setattr(ex, "compile_exprs", counting)
    cfg = tmp_path / "ws.json"
    cfg.write_text('{"connections": {"twist": {"type": "example3"}}}')
    conn = load_workspace(cfg).connections["twist"]
    assert isinstance(conn, comorph.Comorphism)
    assert len(counted) == 6
    conn.nu(0.0)
    assert len(counted) == 7


# ------------------------------------------------------ inverse identity
# A reversed A-path, t -> 1 - t with fiber data -eta(1 - t), lifts to the
# reversed lift, and a reversed loop's holonomy is the inverse phase. At
# grid 1000 (h = 1e-3) the two lifts compared each carry the error of the
# not-a-knot interpolation of eta = 2 pi (-sin, cos)(2 pi t), at most
# 5/384 (2 pi)^5 h^4 < 130 h^4 per unit time, and RK4's global error,
# (2 pi / 3)^5 h^4 / 120 < h^4 for the fiber rotation. The tolerance is
# C h^4 with C = 1000, over three times that sum for both lifts.

INVERSE_TOL = 1000.0 * 1e-3 ** 4


def reversed_path(g):
    return APath(g.algebroid, g.times, g.base[::-1], -g.eta[::-1])


@pytest.mark.parametrize("nu0", [0.25, 1.0 / 3.0])
def test_lifting_a_reversed_path_gives_the_reversed_lift(nu0):
    conn = ExampleConnection(nu0)
    loop = circle_loop(conn, grid=1000)
    lifted = lift_path(conn, loop, [1.0, 0.0, 1.0, 0.0, 0.1])
    back = lift_path(conn, reversed_path(loop), lifted.target)
    assert lifted.completed and back.completed
    assert float(np.max(np.abs(back.base - lifted.base[::-1]))) \
        <= INVERSE_TOL
    assert float(np.max(np.abs(back.eta + lifted.eta[::-1]))) \
        <= INVERSE_TOL


@pytest.mark.parametrize("nu0", [0.25, 1.0 / 3.0])
def test_reversed_loop_holonomy_is_the_negated_phase(nu0):
    conn = ExampleConnection(nu0)
    loop = circle_loop(conn, grid=1000)
    x0 = [1.0, 0.0, 1.0, 0.0, 0.0]
    forward = holonomy(conn, loop, x0)
    backward = holonomy(conn, reversed_path(loop), x0)
    assert backward.completed
    assert abs(backward.phase + TWO_PI * nu0) <= INVERSE_TOL
    assert abs(backward.phase + forward.phase) <= INVERSE_TOL


# ---------------------------------------------------------- sheet counts

def test_sheet_counts_for_rational_twists():
    assert [sheet_count(v) for v in (0.0, 0.25, 1.0 / 3.0, 0.5)] == [1, 4, 3, 2]
    assert sheet_count(2.0 / 5.0) == 5


def test_sheet_count_irrational_exceeds_every_k():
    assert sheet_count(math.sqrt(2.0) - 1.0) == math.inf
    assert sheet_count((math.sqrt(5.0) - 1.0) / 2.0) == math.inf


def scan_sheet_count(nu, k_max, tol=1e-9):
    """The O(k_max) scan sheet_count used to run: every k <= k_max."""
    k = np.arange(1, k_max + 1, dtype=float)
    d = np.abs(k * nu - np.round(k * nu))
    hits = np.nonzero(d <= tol)[0]
    return math.inf if len(hits) == 0 else int(hits[0]) + 1


@st.composite
def twists(draw):
    """Arbitrary floats, exact ratios p/q, and ratios moved by up to
    3e-9/q, which straddle the tolerance at k = q."""
    kind = draw(st.sampled_from(["float", "ratio", "near"]))
    if kind == "float":
        return draw(st.floats(-3.0, 3.0))
    q = draw(st.integers(1, 20000))
    p = draw(st.integers(-3 * q, 3 * q))
    if kind == "ratio":
        return p / q
    return p / q + draw(st.floats(-3e-9, 3e-9)) / q


@settings(max_examples=300, deadline=None, derandomize=True)
@given(twists(), st.integers(1, 10**5), st.sampled_from([1e-9, 1e-6, 1e-3]))
def test_sheet_count_matches_the_full_scan(nu, k_max, tol):
    assert sheet_count(nu, k_max=k_max, tol=tol) == scan_sheet_count(
        nu, k_max, tol)


def test_sheet_count_is_logarithmic_in_k_max():
    nus = [(math.sqrt(5.0) - 1.0) / 2.0, math.pi, 1.0 / 3.0, 2.0 ** -40,
           math.sqrt(2.0) - 1.0]
    tracemalloc.start()
    t0 = time.perf_counter()
    counts = [sheet_count(nu, k_max=10**12) for nu in nus]
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 100_000
    assert counts[2:4] == [3, 1]
    for nu, k in zip(nus, counts):
        assert k <= 10**12 and abs(k * nu - round(k * nu)) <= 1e-9


def test_sheet_count_of_non_finite_twists_is_infinite():
    assert sheet_count(math.nan) == math.inf
    assert sheet_count(math.inf) == math.inf
    assert sheet_count(0.25, k_max=0) == math.inf


# ----------------------------------------------------------- density scan

def test_golden_twist_fills_the_torus():
    nu = (math.sqrt(5.0) - 1.0) / 2.0
    rep = density_scan(nu, 0.0, (1.0, 0.0), 1e4 * TWO_PI, 32)
    assert rep.cells_hit == rep.cells_total == 1024
    assert rep.coverage == 1.0


def test_rational_twist_traces_q_lines():
    rep = density_scan(1.0 / 3.0, 0.0, (1.0, 0.0), 1e3, 32)
    assert rep.line_count == 3
    assert abs(rep.max_gap - TWO_PI / 3.0) <= 1e-6
    for nu, q in ((0.5, 2), (2.0 / 5.0, 5), (3.0 / 7.0, 7), (5.0 / 12.0, 12)):
        assert density_scan(nu, 0.0, (1.0, 0.0), 200.0, 16).line_count == q


def test_density_scan_validates_inputs():
    with pytest.raises(ValueError, match="z0"):
        density_scan(0.5, 0.0, (0.0, 0.0), 10.0, 16)
    with pytest.raises(ValueError, match="bins"):
        density_scan(0.5, 0.0, (1.0, 0.0), 10.0, 1)
    with pytest.raises(ValueError, match="tau_max >= 0"):
        density_scan(0.5, 0.0, (1.0, 0.0), -1.0, 16)


@pytest.mark.parametrize("tau_max, bins", [
    (1e12, 32), (math.inf, 32), (math.nan, 32), (1e4 * TWO_PI, 10**6)])
def test_density_scan_refuses_too_many_samples_before_sampling(tau_max, bins):
    tracemalloc.start()
    with pytest.raises(ValueError, match="samples"):
        density_scan(0.5, 0.0, (1.0, 0.0), tau_max, bins)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 100_000


def test_density_report_serializes():
    rep = density_scan(0.5, 0.0, (1.0, 0.0), 100.0, 8)
    j = rep._asdict()
    assert j["bins"] == 8 and j["cells_total"] == 64
    assert j["line_count"] == 2 and 0.0 < j["coverage"] <= 1.0


# -------------------------------------------------------- self-intersection

def test_self_intersection_witness_quarter():
    conn = ExampleConnection(0.25)
    rep = self_intersection_witness(conn, 0.0, 0.7)
    assert rep.image_mismatch <= 1e-12
    assert abs(rep.gap - math.sqrt(2.0)) <= 1e-6     # 2 |sin(pi/4)|
    assert abs(rep.expected_gap - math.sqrt(2.0)) <= 1e-12
    assert not rep.degenerate


def test_self_intersection_witness_third():
    conn = ExampleConnection(1.0 / 3.0)
    rep = self_intersection_witness(conn, 0.0, 0.7)
    assert rep.image_mismatch <= 1e-12
    assert abs(rep.gap - math.sqrt(3.0)) <= 1e-6     # 2 |sin(pi/3)|


@pytest.mark.parametrize("r, rp, h", [(0.0, 1.0, 0.0), (1.0, -1.0, 0.0),
                                       (1.0, 1.0, 2.0), (1.0, 1.0, -1.0)])
def test_self_intersection_witness_needs_a_groupoid_element(r, rp, h):
    # its images are the source and target of two GammaElements
    conn = ExampleConnection(1.0 / 3.0)
    with pytest.raises(ValueError, match="need r, r' > 0|slab"):
        self_intersection_witness(conn, h, 0.7, r=r, rp=rp)


def test_self_intersection_degenerates_at_integer_twist():
    conn = ExampleConnection(1.0)
    rep = self_intersection_witness(conn, 0.0, 0.7)
    assert rep.degenerate
    assert rep.gap <= 1e-9


# ----------------------------------------------------------- the groupoid

def test_gamma_element_source_target():
    conn = ExampleConnection(1.0 / 3.0)
    g = GammaElement(conn, 1.0, 0.2, 1.5, 2.0, (1.0, 0.0), 0.0)
    assert g.source() == (1.0, 0.2, 1.0, 0.0, 0.0)
    r, th, w1, w2, h = g.target()
    assert (r, th, h) == (1.5, 2.2, 0.0)
    a = 2.0 / 3.0                                  # nu(0) tau
    assert math.isclose(w1, math.cos(a)) and math.isclose(w2, math.sin(a))


def test_gamma_composition_chains_taus_and_radii():
    conn = ExampleConnection(1.0 / 3.0)
    g1 = GammaElement(conn, 1.0, 0.2, 1.5, 2.0, (1.0, 0.0), 0.0)
    tgt = g1.target()
    g2 = GammaElement(conn, tgt[0], tgt[1], 2.0, 1.0, tgt[2:4], tgt[4])
    comp = g1.then(g2)
    assert comp.r == 1.0 and comp.rp == 2.0 and comp.tau == 3.0
    assert np.allclose(comp.target(), g2.target())
    assert not comp.is_unit()
    assert GammaElement(conn, 1.0, 0.3, 1.0, 0.0, (1.0, 0.0), 0.0).is_unit()


def test_gamma_composition_needs_matching_endpoints():
    conn = ExampleConnection(1.0 / 3.0)
    g1 = GammaElement(conn, 1.0, 0.2, 1.5, 2.0, (1.0, 0.0), 0.0)
    g2 = GammaElement(conn, 1.0, 0.0, 1.0, 1.0, (1.0, 0.0), 0.0)
    with pytest.raises(ValueError, match="cannot compose"):
        g1.then(g2)


@pytest.mark.parametrize("interval", [
    [0.5], (0.5, -0.5), (0.5, 0.5), (0.0, math.inf), (math.nan, 1.0), None])
@pytest.mark.parametrize("name", ["support", "slab"])
def test_example_connection_needs_finite_increasing_intervals(name,
                                                             interval):
    with pytest.raises(ValueError,
                       match=f"{name} must be two finite numbers lo < hi"):
        ExampleConnection(0.25, **{name: interval})


@pytest.mark.parametrize(
    "nu0", [math.inf, "inf", math.nan, "nan", "x", None],
    ids=["inf", "'inf'", "nan", "'nan'", "'x'", "None"])
def test_example_connection_needs_a_finite_nu0(nu0):
    with pytest.raises(ValueError, match="nu0 must be a finite number"):
        ExampleConnection(nu0)


def test_gamma_element_validates_its_chart():
    conn = ExampleConnection(0.25)
    with pytest.raises(ValueError, match="r, r'"):
        GammaElement(conn, 0.0, 0.0, 1.0, 1.0, (1.0, 0.0), 0.0)
    with pytest.raises(ValueError, match="slab"):
        GammaElement(conn, 1.0, 0.0, 1.0, 1.0, (1.0, 0.0), 1.5)


# ---------------------------------------------------------------- sweeps

def test_holonomy_sweep_rows_and_csv():
    conn = ExampleConnection(1.0 / 3.0)
    rows = holonomy_sweep(conn, [0.0, 0.6], grid=400)
    assert [r["sheets"] for r in rows] == [3, 1]
    assert abs(rows[0]["holonomy_angle"] - TWO_PI / 3.0) <= 1e-6
    assert abs(rows[1]["holonomy_angle"]) <= 1e-9
    assert rows[0]["nu"] == pytest.approx(1.0 / 3.0)
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "h,nu,holonomy_angle,sheets"
    assert lines[1].endswith(",3") and lines[2].endswith(",1")


def test_holonomy_sweep_builds_one_fiber_table(monkeypatch):
    conn = ExampleConnection(1.0 / 3.0)
    h_values = [-0.55, -0.2, 0.1, 0.3]
    alone = [holonomy_sweep(conn, [h], grid=300)[0] for h in h_values]
    builds = []
    build = comorph.stage_table
    monkeypatch.setattr(comorph, "stage_table",
                        lambda *a: builds.append(1) or build(*a))
    for _ in range(2):
        rows = holonomy_sweep(conn, h_values, grid=300)
        assert rows == alone
    assert len(builds) == 2
    assert holonomy_sweep(conn, [], grid=300) == []


def _sweep_csv_reference(rows):
    """The sweep CSV as one line per row, written by hand."""
    out = "h,nu,holonomy_angle,sheets\n"
    for row in rows:
        sheets = row["sheets"]
        out += (f"{row['h']!r},{row['nu']!r},{row['holonomy_angle']!r},"
                f"{'inf' if sheets == math.inf else int(sheets)}\n")
    return out


def test_a_sweep_csv_is_written_as_every_csv(monkeypatch):
    writes = []
    write = ehresmann.write_csv_rows
    monkeypatch.setattr(ehresmann, "write_csv_rows",
                        lambda *a: writes.append(1) or write(*a))
    rows = [{"h": -0.0, "nu": 1.0 / 3.0, "holonomy_angle": 2.0943951023931953,
             "sheets": 3},
            {"h": 0.1 + 0.2, "nu": 5e-324, "holonomy_angle": -1e300,
             "sheets": math.inf},
            {"h": 1e-7, "nu": 0.0, "holonomy_angle": 0.0, "sheets": 1.0}]
    for some in (rows, rows[:1], []):
        buf = io.StringIO()
        write_sweep_csv(some, buf)
        assert buf.getvalue() == _sweep_csv_reference(some)
    assert len(writes) == 3


def test_holonomy_sweep_reports_infinite_sheets():
    conn = ExampleConnection(math.sqrt(2.0) - 1.0)
    rows = holonomy_sweep(conn, [0.0], grid=200)
    assert rows[0]["sheets"] == math.inf
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    assert buf.getvalue().splitlines()[1].endswith(",inf")
