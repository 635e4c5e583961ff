import io
import math

import numpy as np
import pytest

from algpaths import expr as ex
from algpaths.algebroid import (AlgebroidError, LieAlgebroid, SectionTD,
                                make_tangent, sample_points)
from algpaths.apath import AHomotopy, APath, read_apath_csv
from algpaths.ehresmann import FlatConnection
from algpaths.comorph import (Comorphism, LiftError, anchor_compat_residual,
                              completeness_probe, compose,
                              identity_comorphism, lift_homotopy, lift_path,
                              lift_uniqueness_check, pullback_section)


def disk(radius=1.0):
    """Tangent algebroid of the open disk of the given radius."""
    dom = ex.parse(f"{radius * radius} - x1^2 - x2^2", ["x1", "x2"])
    anchor = [[ex.Const(1.0 if i == a else 0.0) for a in range(2)]
              for i in range(2)]
    return LieAlgebroid(2, 2, anchor, {}, domain=[dom])


def inclusion(A, B):
    """Identity-core comorphism between two 2d rank-2 algebroids."""
    return Comorphism(A, B, [ex.Var("x1"), ex.Var("x2")],
                      [[1.0, 0.0], [0.0, 1.0]])


def circle_path(B, N=500, radius=0.5):
    times = np.linspace(0.0, 1.0, N + 1)
    base = [[radius * math.cos(2 * math.pi * t),
             radius * math.sin(2 * math.pi * t)] for t in times]
    eta = [[-2 * math.pi * radius * math.sin(2 * math.pi * t),
            2 * math.pi * radius * math.cos(2 * math.pi * t)] for t in times]
    return APath(B, times, base, eta)


def line_path(B, N=200, speed=2.0):
    times = np.linspace(0.0, 1.0, N + 1)
    base = [[speed * t, 0.0] for t in times]
    eta = [[speed, 0.0] for _ in times]
    return APath(B, times, base, eta)


# ------------------------------------------------- anchor compatibility

def test_identity_comorphism_is_exactly_compatible():
    P = make_tangent(2)
    c = identity_comorphism(P)
    pts = sample_points(P, 20, np.random.default_rng(0))
    assert anchor_compat_residual(c, pts) == 0.0


def test_wrong_fiber_map_residual_is_exactly_one():
    # M = diag(1, 0) on the identity core: Dphi rho M - rho = diag(0, -1)
    P = make_tangent(2)
    c = Comorphism(P, P, [ex.Var("x1"), ex.Var("x2")],
                   [[1.0, 0.0], [0.0, 0.0]])
    pts = sample_points(P, 20, np.random.default_rng(0))
    assert anchor_compat_residual(c, pts) == 1.0


def test_scaling_core_needs_inverse_fiber_scale():
    # phi = 2x has Dphi = 2I, so M = I/2 restores compatibility exactly
    P = make_tangent(2)
    c = Comorphism(P, P, [ex.parse("2*x1", P.coords),
                          ex.parse("2*x2", P.coords)],
                   [[0.5, 0.0], [0.0, 0.5]])
    pts = sample_points(P, 20, np.random.default_rng(1))
    assert anchor_compat_residual(c, pts) == 0.0
    assert np.array_equal(c.dphi_at([0.3, -0.7]), 2.0 * np.eye(2))


def test_compat_checks_sample_domains():
    D = disk()
    blowup = Comorphism(D, D, [ex.parse("3*x1", D.coords),
                               ex.parse("3*x2", D.coords)],
                        [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ex.DomainError, match="target domain"):
        anchor_compat_residual(blowup, [(0.5, 0.0)])
    with pytest.raises(ex.DomainError, match="source domain"):
        anchor_compat_residual(blowup, [(2.0, 0.0)])


# ---------------------------------------------------------- construction

def test_constructor_validates_shapes_and_variables():
    P = make_tangent(2)
    with pytest.raises(AlgebroidError, match="phi needs 2"):
        Comorphism(P, P, [ex.Var("x1")], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(AlgebroidError, match="M must be"):
        Comorphism(P, P, [ex.Var("x1"), ex.Var("x2")], [[1.0, 0.0]])
    with pytest.raises(AlgebroidError, match="unknown variables"):
        Comorphism(P, P, [ex.parse("y1", ["y1"]), ex.Var("x2")],
                   [[1.0, 0.0], [0.0, 1.0]])


def test_spot_check_flags_points_leaving_the_target():
    D = disk()
    blowup = Comorphism(D, D, [ex.parse("3*x1", D.coords),
                               ex.parse("3*x2", D.coords)],
                        [[1.0, 0.0], [0.0, 1.0]])
    blowup.spot_check([(0.1, 0.1)])                   # 3x still inside
    with pytest.raises(ex.DomainError, match="target domain"):
        blowup.spot_check([(0.5, 0.0)])


def test_json_round_trip():
    D, P = disk(), make_tangent(2)
    c = Comorphism(D, P, [ex.parse("x1 + x2", D.coords), ex.Var("x2")],
                   [[1.0, 0.0], [ex.parse("x1*x2", D.coords), 1.0]])
    d = c.to_dict("disk", "plane")
    assert d["source"] == "disk" and d["target"] == "plane"
    back = Comorphism.from_dict(d, {"disk": D, "plane": P}.__getitem__)
    x = (0.3, -0.4)
    assert np.allclose(back.phi_at(x), c.phi_at(x))
    assert np.allclose(back.M_at(x), c.M_at(x))


# ------------------------------------------------------ section pullback

def test_pullback_section_is_symbolic():
    D, P = disk(), make_tangent(2)
    c = Comorphism(D, P, [ex.Var("x1"), ex.Var("x2")],
                   [[1.0, ex.Var("x1")], [0.0, 1.0]])
    s = SectionTD.from_strings(P, ["t", "x1*x2"])
    pulled = pullback_section(c, s)
    assert pulled.algebroid is D
    # M(x) s(t, phi(x)) = (t + x1 * x1 x2, x1 x2)
    assert np.allclose(pulled(2.0, (0.5, -1.0)), [2.0 - 0.25, -0.5])
    # symbolic: derivatives of the pulled components are available
    d0 = pulled.exprs[0].d("x1")
    assert math.isclose(d0.eval({"t": 2.0, "x1": 0.5, "x2": -1.0}),
                        2 * 0.5 * -1.0)


def test_pullback_rejects_sections_of_other_algebroids():
    D, P = disk(), make_tangent(2)
    c = inclusion(D, P)
    s = SectionTD.from_strings(D, ["1", "0"])
    with pytest.raises(AlgebroidError, match="target"):
        pullback_section(c, s)


# ----------------------------------------------------------- composition

def test_compose_chains_core_and_fiber_maps():
    P = make_tangent(2)
    c1 = Comorphism(P, P, [ex.parse("2*x1", P.coords),
                           ex.parse("2*x2", P.coords)],
                    [[0.5, 0.0], [0.0, 0.5]])
    c2 = Comorphism(P, P, [ex.parse("x1 + 1", P.coords), ex.Var("x2")],
                    [[1.0, 0.0], [0.0, 1.0]])
    comp = compose(c1, c2)                       # first c1, then c2
    assert np.allclose(comp.phi_at((0.3, -0.2)), [1.6, -0.4])
    assert np.allclose(comp.M_at((0.3, -0.2)), 0.5 * np.eye(2))
    pts = sample_points(P, 20, np.random.default_rng(2))
    assert anchor_compat_residual(comp, pts) == 0.0


def test_compose_pullback_is_contravariant():
    # (c2 o c1)† s == c1† (c2† s) pointwise
    P = make_tangent(2)
    c1 = Comorphism(P, P, [ex.parse("2*x1", P.coords),
                           ex.parse("x2 - x1", P.coords)],
                    [[0.5, 0.25], [0.0, 1.0]])
    c2 = Comorphism(P, P, [ex.parse("x1 + x2", P.coords), ex.Var("x2")],
                    [[1.0, ex.Var("x1")], [0.0, 1.0]])
    s = SectionTD.from_strings(P, ["x1*x2 + t", "x2"])
    via_composite = pullback_section(compose(c1, c2), s)
    via_stages = pullback_section(c1, pullback_section(c2, s))
    for t, x in ((0.0, (0.3, -0.2)), (1.5, (-0.4, 0.9))):
        assert np.allclose(via_composite(t, x), via_stages(t, x))


def test_compose_rejects_mismatched_chain():
    c1 = inclusion(disk(), make_tangent(2))
    line = make_tangent(1)
    # a different shape, and the same shape over another algebroid
    for c2 in (Comorphism(line, line, [ex.Var("x1")], [[1.0]]),
               identity_comorphism(disk())):
        with pytest.raises(AlgebroidError, match="chain"):
            compose(c1, c2)


# --------------------------------------------------- completeness probe

def test_probe_reports_domain_exit_with_witness():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    s = SectionTD.from_strings(B, ["1", "0"])
    # pullback pushes the seed straight at the boundary: exit at t* = 1
    v = completeness_probe(c, s, 2.0, 1e8, [(0.0, 0.0)])
    assert v.escaped
    seed, status, t_star = v.witness
    assert status == "domain_exit"
    assert abs(t_star - 1.0) <= 1e-6
    assert str(v).startswith("incomplete witness: domain_exit at t*=")
    j = v.to_json()
    assert j["escaped"] is True
    assert j["witness"]["seed"] == [0.0, 0.0]
    assert abs(j["witness"]["t_star"] - 1.0) <= 1e-6


def test_probe_bounded_field_reports_no_escape():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    # x' = 1 - x1^2 - x2^2 tends to the boundary without reaching it
    s = SectionTD.from_strings(B, ["1 - x1^2 - x2^2", "0"])
    v = completeness_probe(c, s, 2.0, 1e8, [(0.0, 0.0), (-0.5, 0.0)])
    assert not v.escaped
    assert v.witness is None
    assert str(v).startswith("no escape detected")
    j = v.to_json()
    assert j["escaped"] is False and "witness" not in j
    assert j["horizon"] == 2.0 and j["bound"] == 1e8


def test_probe_rejects_seeds_outside_the_source():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    s = SectionTD.from_strings(B, ["1", "0"])
    with pytest.raises(ex.DomainError, match="seed"):
        completeness_probe(c, s, 1.0, 1e8, [(2.0, 0.0)])


# ------------------------------------------------------------- lifting

def test_lift_circle_path_projects_back_onto_it():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    g = circle_path(B, N=500)
    lifted = lift_path(c, g, (0.5, 0.0))
    assert lifted.completed
    assert lifted.phi_projection_error <= 1e-6
    assert np.allclose(lifted.target, [0.5, 0.0], atol=1e-6)
    # fiber data transports through M = identity unchanged
    assert np.allclose(lifted.eta, g.eta)
    assert lifted.algebroid.n == 2


def test_lift_rejects_start_point_off_the_fiber():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    g = circle_path(B, N=100)
    with pytest.raises(LiftError, match="does not match"):
        lift_path(c, g, (0.7, 0.0))


def test_lift_escape_is_the_non_existence_witness():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    g = line_path(B, N=200, speed=2.0)       # leaves the unit disk
    lifted = lift_path(c, g, (0.0, 0.0))
    assert not lifted.completed
    assert lifted.status == "domain_exit"
    assert abs(lifted.t_event - 0.5) <= 1e-6
    # the integrated prefix still projects onto the path
    assert lifted.phi_projection_error <= 1e-9
    assert c.source.in_domain(lifted.base[-1])


def test_escaped_lift_csv_round_trip_keeps_its_witness():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    lifted = lift_path(c, line_path(B, N=200, speed=2.0), (0.0, 0.0))
    buf = io.StringIO()
    lifted.write_csv(buf)
    buf.seek(0)
    back = read_apath_csv(buf, c.source)
    assert (back.status, back.t_event) == ("domain_exit", lifted.t_event)


def test_lifted_samples_are_tested_against_the_domain_once():
    # the flow tests x0 and every sample it keeps; building the lifted
    # A-path from them tests none again
    A, B = disk(), make_tangent(2)
    test, calls = A.in_domain, []
    A.in_domain = lambda x: calls.append(1) or test(x)
    lifted = lift_path(inclusion(A, B), circle_path(B, N=100), (0.5, 0.0))
    assert lifted.completed
    assert len(calls) == len(lifted.times) == 101


def test_lift_uniqueness_on_a_completed_path():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    rep = lift_uniqueness_check(c, circle_path(B, N=2000), (0.5, 0.0))
    assert {r["status"] for r in rep.runs} == {"completed"}
    assert len(rep.runs) == 4
    assert rep.endpoint_spread <= 1e-5
    assert rep.exit_spread is None


def test_lift_uniqueness_on_an_escaping_path():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    rep = lift_uniqueness_check(c, line_path(B, N=200), (0.0, 0.0))
    assert {r["status"] for r in rep.runs} == {"domain_exit"}
    assert rep.endpoint_spread is None
    assert rep.exit_spread <= 1e-6


# ---------------------------------------------------- homotopy lifting

def interval_setup():
    dom = ex.parse("4 - x1^2", ["x1"])
    A = LieAlgebroid(1, 1, [[ex.Const(1.0)]], {}, domain=[dom])
    B = make_tangent(1)
    c = Comorphism(A, B, [ex.Var("x1")], [[1.0]])
    return A, B, c


def sine_homotopy(B, amp, nt=100, ns=20):
    pi = math.pi
    return AHomotopy.from_functions(
        B,
        lambda t, s: [t + amp * s * math.sin(pi * t)],
        lambda t, s: [1.0 + amp * s * pi * math.cos(pi * t)],
        lambda t, s: [amp * math.sin(pi * t)],
        nt=nt, ns=ns)


def test_lift_homotopy_keeps_residuals_and_endpoints():
    _, B, c = interval_setup()
    H = sine_homotopy(B, amp=0.5)
    lifted = lift_homotopy(c, H, [0.0])
    res_x, res_eta = lifted.residuals
    assert res_x <= 1e-6                       # x is linear in s: FD exact
    assert res_eta <= 1e-3                     # central-difference floor
    assert lifted.endpoint_spread <= 1e-7
    assert np.allclose(lifted.x[-1], 1.0, atol=1e-6)


def vertical_connection(h3):
    """Connection T R^3 -> T R^2, phi = (x1, x2), with horizontal lift
    H_3 = h3 in the x3 direction."""
    xs = ["x1", "x2", "x3"]
    return FlatConnection(xs, [ex.Var("x1"), ex.Var("x2")],
                          [[1.0, 0.0], [0.0, 1.0],
                           [ex.parse(h, xs) for h in h3]])


def plane_homotopy(B, x_fn, eta_fn, beta_fn):
    return AHomotopy.from_functions(B, x_fn, eta_fn, beta_fn, nt=50, ns=10)


@pytest.mark.parametrize("scale", [0.5, 0.005])
def test_lift_homotopy_rejects_endpoint_drift_of_a_curved_connection(scale):
    # Heisenberg connection H_3 = scale * (-x2, x1): the lift of
    # t -> (t, s sin(pi t)) ends at x3 = -4 scale s/pi, minus the area the
    # slice encloses with the x1 axis, so the endpoints drift in s
    fc = vertical_connection([f"0 - {scale} * x2", f"{scale} * x1"])
    pi = math.pi
    H = plane_homotopy(
        fc.as_comorphism().target,
        lambda t, s: [t, s * math.sin(pi * t)],
        lambda t, s: [1.0, s * pi * math.cos(pi * t)],
        lambda t, s: [0.0, math.sin(pi * t)])
    with pytest.raises(AlgebroidError, match="constant in s"):
        lift_homotopy(fc.as_comorphism(), H, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("h31, shape", [("x3", "symmetric"),
                                        ("x3", "skewed"), ("0", "skewed")])
def test_lift_homotopy_accepts_a_flat_connection_at_a_coarse_grid(h31, shape):
    # The endpoints of a flat lift agree across s only up to its
    # discretisation error at nt = 50. With H_3 = (x3, 0) the lift
    # x3' = x3 xi1 depends on x, so the RK4 error shows; the skewed family
    # adds the error of interpolating xi between samples, which is all
    # there is for H_3 = 0
    fc = vertical_connection([h31, "0"])
    pi = math.pi
    if shape == "symmetric":
        f, df = (lambda t: math.sin(pi * t)), (lambda t: pi * math.cos(pi * t))
    else:
        f = lambda t: math.sin(pi * t * t)
        df = lambda t: 2 * pi * t * math.cos(pi * t * t)
    H = plane_homotopy(
        fc.as_comorphism().target,
        lambda t, s: [t + s * f(t), s * f(t)],
        lambda t, s: [1.0 + s * df(t), s * df(t)],
        lambda t, s: [f(t), f(t)])
    lifted = lift_homotopy(fc.as_comorphism(), H, [0.0, 0.0, 1.0])
    assert 1e-9 < lifted.endpoint_spread <= 1e-5
    x3_end = math.e if h31 == "x3" else 1.0
    assert np.allclose(lifted.x[-1], [1.0, 0.0, x3_end], atol=1e-5)


def test_lift_homotopy_names_the_failing_slice():
    _, B, c = interval_setup()
    H = sine_homotopy(B, amp=2.0, nt=50, ns=20)   # large-s slices leave (-2, 2)
    with pytest.raises(LiftError, match=r"slice s=.* failed to lift"):
        lift_homotopy(c, H, [0.0])
