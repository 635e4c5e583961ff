import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from algpaths import comorph, expr as ex
from algpaths.algebroid import (AlgebroidError, Draws, LieAlgebroid,
                                SectionTD, make_tangent, matvec,
                                sample_points)
from algpaths.apath import (AHomotopy, APath, develop, integrate_apath,
                            read_apath_csv)
from algpaths.ehresmann import (ExampleConnection, FlatConnection,
                               circle_loop)
from algpaths.numkernel import StartError, VectorFieldTD
from test_numkernel import _reference_flow
from algpaths.comorph import (Comorphism, LiftError, anchor_compat_residual,
                              completeness_probe, compose, first_escape,
                              lift_homotopy, lift_path, lift_uniqueness_check,
                              pullback_section)


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


def identity(A):
    """The identity comorphism (id, id) on A."""
    return Comorphism(A, A, [ex.Var(v) for v in A.coords],
                      np.eye(A.r).tolist())


def line_path(B, N=200, speed=2.0):
    times = np.linspace(0.0, 1.0, N + 1)
    base = [[speed * t, 0.0] for t in times]
    eta = [[speed, 0.0] for _ in times]
    return APath(B, times, base, eta)


# ------------------------------------------------- anchor compatibility

def test_identity_comorphism_is_exactly_compatible():
    P = make_tangent(2)
    c = identity(P)
    pts = sample_points(P, 20, Draws(0))
    assert anchor_compat_residual(c, pts) == 0.0


def test_wrong_fiber_map_residual_is_exactly_one():
    # M = diag(1, 0) on the identity core: Dphi rho M - rho = diag(0, -1)
    P = make_tangent(2)
    c = Comorphism(P, P, [ex.Var("x1"), ex.Var("x2")],
                   [[1.0, 0.0], [0.0, 0.0]])
    pts = sample_points(P, 20, Draws(0))
    assert anchor_compat_residual(c, pts) == 1.0


def test_scaling_core_needs_inverse_fiber_scale():
    # phi = 2x has Dphi = 2I, so M = I/2 restores compatibility exactly
    P = make_tangent(2)
    c = Comorphism(P, P, [ex.parse("2*x1", P.coords),
                          ex.parse("2*x2", P.coords)],
                   [[0.5, 0.0], [0.0, 0.5]])
    pts = sample_points(P, 20, Draws(1))
    assert anchor_compat_residual(c, pts) == 0.0
    assert np.array_equal(c.dphi_at([0.3, -0.7]), 2.0 * np.eye(2))


def test_compat_checks_sample_domains():
    D = disk()
    blowup = Comorphism(D, D, [ex.parse("3*x1", D.coords),
                               ex.parse("3*x2", D.coords)],
                        [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ex.DomainError, match=r"sample image \(1\.5, 0\.0\) "
                                             r"is outside the domain"):
        anchor_compat_residual(blowup, [(0.5, 0.0)])
    with pytest.raises(ex.DomainError, match=r"sample \(2\.0, 0\.0\) is "
                                             r"outside the domain"):
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


def test_M_keeps_its_shape_when_the_source_has_rank_0():
    A = LieAlgebroid(1, 0, [[]], {})
    c = Comorphism(A, make_tangent(1), [ex.Var("x1")], [])
    assert c.M_at([0.5]).shape == (0, 1)
    assert c.M_at([[0.5], [0.25]]).shape == (2, 0, 1)
    assert anchor_compat_residual(c, [[0.5]]) == 1.0


def test_spot_check_flags_points_leaving_the_target():
    D = disk()
    blowup = Comorphism(D, D, [ex.parse("3*x1", D.coords),
                               ex.parse("3*x2", D.coords)],
                        [[1.0, 0.0], [0.0, 1.0]])
    blowup.spot_check([(0.1, 0.1)])                   # 3x still inside
    with pytest.raises(ex.DomainError, match="sample image"):
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
    assert math.isclose(
        ex.compile_exprs([d0], ["t", "x1", "x2"])(2.0, 0.5, -1.0)[0],
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
    pts = sample_points(P, 20, Draws(2))
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
               identity(disk())):
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
    seed, ending = v.witness
    assert ending.status == "domain_exit"
    assert abs(ending.t_star - 1.0) <= 1e-6
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
    with pytest.raises(StartError, match="seed"):
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


def test_a_start_whose_image_is_nan_does_not_match():
    # phi is inf - inf, nan wherever x1 != 0: the start check must read a
    # nan image as a miss, for one start and for the second of a stack
    A = make_tangent(1)
    c = Comorphism(A, A, [ex.parse("x1 * 1e300 * 1e300 - x1 * 1e300 * 1e300",
                                   A.coords)], [[1.0]])
    times = np.linspace(0.0, 1.0, 11)
    g = APath(A, times, times[:, None], np.ones((11, 1)))
    assert lift_path(c, g, [0.0]).completed
    for x0 in ([1.0], [[0.0], [1.0]]):
        with pytest.raises(comorph.StartMismatchError, match=re.escape(
                "phi(x0) = (nan,) does not match the path source (0.0,)")):
            lift_path(c, g, x0)


def test_lift_escape_is_the_non_existence_witness():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    g = line_path(B, N=200, speed=2.0)       # leaves the unit disk
    lifted = lift_path(c, g, (0.0, 0.0))
    assert not lifted.completed
    assert lifted.status == "domain_exit"
    assert abs(lifted.ending.t_star - 0.5) <= 1e-6
    # the integrated prefix still projects onto the path
    assert lifted.phi_projection_error <= 1e-9
    assert c.source.in_domain(lifted.base[-1])


@pytest.mark.parametrize("t1, m", [(1.0, 23294), (0.3, 18144),
                                   (1e-3, 16767)])
def test_a_path_of_m_steps_lifts_and_develops_in_m_steps(t1, m):
    # the flows take step t1 / m, whose float ratio to the span exceeds m
    # here by more than an absolute 1e-12; they took m + 1 steps and
    # refused the table of the path's m steps
    B = make_tangent(1)
    times = np.linspace(0.0, t1, m + 1)
    g = APath(B, times, (times / t1)[:, None], np.full((m + 1, 1), 1.0 / t1))
    for interp in ("cubic", "linear"):
        lifted = lift_path(identity(B), g, [0.0], interp=interp)
        assert lifted.completed and len(lifted.times) == m + 1
        assert lifted.target == pytest.approx([1.0], abs=1e-12)
    mp = develop([np.array([[0.0, -1.0], [1.0, 0.0]])], g)
    assert len(mp.times) == m + 1
    assert mp.endpoint.ravel() == pytest.approx(
        [math.cos(1.0), -math.sin(1.0), math.sin(1.0), math.cos(1.0)],
        abs=1e-12)


def rank_0_identity():
    """The identity of the rank-0 algebroid over the line, whose A-paths
    stand still: no fiber, and x' = 0."""
    return identity(LieAlgebroid(1, 0, [[]]))


@pytest.mark.parametrize("interp", ["cubic", "linear"])
def test_a_lift_through_a_rank_0_target_is_the_constant_path(interp):
    c = rank_0_identity()
    g = APath(c.target, [0.0, 0.5, 1.0], [[0.3]] * 3, np.zeros((3, 0)))
    lifted = lift_path(c, g, [0.3], interp=interp)
    assert lifted.ending == ("completed", None)
    assert lifted.times.tolist() == [0.0, 0.5, 1.0]
    assert lifted.base.tolist() == [[0.3]] * 3
    assert lifted.eta.shape == (3, 0)
    assert lifted.phi_projection_error == 0.0


@pytest.mark.parametrize("r_source, r_target", [(0, 0), (0, 1), (1, 0)])
def test_a_lift_with_an_empty_M_is_the_constant_path(r_source, r_target):
    # M has no entries, so the flow records none: the lift reads an empty
    # M at the steps' starts and evaluates it at the last point; with a
    # rank-1 source its fiber is M xi = 0
    line = {0: LieAlgebroid(1, 0, [[]]), 1: make_tangent(1)}
    c = Comorphism(line[r_source], line[r_target], [ex.Var("x1")],
                   [[]] * r_source)
    g = APath(c.target, [0.0, 0.25, 0.5, 0.75, 1.0], [[0.3]] * 5,
              np.zeros((5, r_target)))
    lifted = lift_path(c, g, [0.3])
    assert lifted.ending == ("completed", None)
    assert lifted.base.tolist() == [[0.3]] * 5
    assert lifted.eta.tolist() == [[0.0] * r_source] * 5
    assert lifted.phi_projection_error == 0.0


def test_a_rank_0_lift_still_refuses_an_unknown_interpolation():
    c = rank_0_identity()
    g = APath(c.target, [0.0, 1.0], [[0.3]] * 2, np.zeros((2, 0)))
    with pytest.raises(ValueError, match="unknown interpolation 'spline'"):
        lift_path(c, g, [0.3], interp="spline")


@pytest.mark.parametrize("interp", ["cubic", "linear"])
def test_a_homotopy_lift_through_a_rank_0_target_is_constant(interp):
    c = rank_0_identity()
    grid = [0.0, 0.5, 1.0]
    H = AHomotopy(c.target, grid, grid, np.full((3, 3, 1), 0.3),
                  np.zeros((3, 3, 0)), np.zeros((3, 3, 0)))
    lifted = lift_homotopy(c, H, [0.3], interp=interp)
    assert lifted.x.tolist() == np.full((3, 3, 1), 0.3).tolist()
    assert lifted.eta.shape == lifted.beta.shape == (3, 3, 0)
    assert lifted.endpoint_spread == 0.0
    assert lifted.residuals == (0.0, 0.0)


def test_escaped_lift_csv_round_trip_keeps_its_witness():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    lifted = lift_path(c, line_path(B, N=200, speed=2.0), (0.0, 0.0))
    buf = io.StringIO()
    lifted.write_csv(buf)
    buf.seek(0)
    back = read_apath_csv(buf, c.source)
    assert back.status == "domain_exit"
    assert back.ending == lifted.ending


def test_lifted_samples_are_tested_against_the_domain_once():
    # the flow calls the predicate for x0 and tests every sample it keeps
    # inline; building the lifted A-path from them tests none again
    A, B = disk(), make_tangent(2)
    pred, calls = A.in_domain.fn, []
    A.in_domain.fn = lambda *x: calls.append(1) or pred(*x)
    A.in_domain.fn.body = pred.body
    lifted = lift_path(inclusion(A, B), circle_path(B, N=100), (0.5, 0.0))
    assert lifted.completed and len(lifted.times) == 101
    assert len(calls) == 1


def test_lift_uniqueness_on_a_completed_path():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    rep = lift_uniqueness_check(c, circle_path(B, N=2000), (0.5, 0.0))
    assert {r["ending"].status for r in rep.runs} == {"completed"}
    assert len(rep.runs) == 4
    assert rep.endpoint_spread <= 1e-5
    assert rep.exit_spread is None


def test_lift_uniqueness_on_an_escaping_path():
    B = make_tangent(2)
    c = inclusion(disk(), B)
    rep = lift_uniqueness_check(c, line_path(B, N=200), (0.0, 0.0))
    assert {r["ending"].status for r in rep.runs} == {"domain_exit"}
    assert rep.endpoint_spread is None
    assert rep.exit_spread <= 1e-6


def test_lift_uniqueness_refuses_a_start_that_misses_the_path():
    # the identity of the plane lifts a path from (0, 0) only from (0, 0):
    # from (5, 5) the check reported an endpoint spread of 0.0
    B = make_tangent(2)
    c, g = identity(B), line_path(B, N=20)
    with pytest.raises(comorph.StartMismatchError, match=re.escape(
            "phi(x0) = (5.0, 5.0) does not match the path source "
            "(0.0, 0.0)")):
        lift_uniqueness_check(c, g, (5.0, 5.0))
    rep = lift_uniqueness_check(c, g, (0.0, 0.0))
    assert rep.endpoint_spread == 0.0
    assert all(type(v) is float for run in rep.runs for v in run["endpoint"])


# ------------------------------------------------------ multiplicativity --
# lift(concat(g1, g2)) = concat(lift g1, lift g2 from its endpoint), for a
# submersion R^3 -> R^2, phi = (x1, x2), whose M has the rows (1, 0),
# (0, 1) and (f, g): the lift moves x3 by f xi1 + g xi2. g2 is g1's flow
# continued: the section at t + 1, from g1's target.
#
# The lifts differ by the interpolation of the fiber samples, O(h^4) for
# the cubic spline. The step-halving run of
# test_multiplicativity_error_is_fourth_order on its fixed draw gives
# 2.2e-10, 1.3e-11 and 8.0e-13 at N = 50, 100 and 200: C h^4 with
# C = 1.3e-3. Each drawn case's tolerance is C h^4 at N = 100 scaled by its
# `_growth` over the two paths (t in [0, 2]) and by a margin of 10.
MULT_N = 100


def concat(g1, g2):
    """The product of A-paths g1 and g2, g2 starting at g1's target: first
    half 2 g1(2t), second half 2 g2(2t - 1), on equal grids. The shared
    sample at t = 1/2 takes g2's fiber value."""
    times = np.concatenate([0.5 * g1.times, 0.5 + 0.5 * g2.times[1:]])
    base = np.concatenate([g1.base, g2.base[1:]])
    eta = np.concatenate([2.0 * g1.eta[:-1], 2.0 * g2.eta])
    return APath(g1.algebroid, times, base, eta)


def _mult_tol(sec, f, g):
    return 1.3e-3 * MULT_N ** -4 * _growth(sec, f, g, 2.0, 4) * 10


def _gronwall(u0, p, q, s):
    """Bound at s of u >= 0 with u(0) = u0 and u' <= p + q u."""
    return u0 * math.exp(q * s) + p * (math.expm1(q * s) / q if q else s)


TERM = re.compile(r"(\S+) \+ (\S+) \* cos\(x\d(?: \+ (\S+) \* t)?\) "
                  r"\+ (\S+) \* (x\d)")


def _growth(sec, f, g, T, p, y0=(0.1, -0.2), z0=0.3):
    """R^p Z, from the coefficients of drawn `terms` alone: bounds over t
    in [0, T] of the rate R at which the fiber data varies and of the
    lifted fiber coordinate x3, which scale the lift's error.

    By Gronwall, |x|' <= a + b |x| keeps the base below X, so it moves at
    speed at most V = a + b X along a path no longer than X - |y0|; each
    t-derivative of cos(x_i + c2 t) brings a factor up to V + w, w the
    largest |c2|, so the fiber data's p-th derivative scales as R^p with
    R = max(1, V + w): no draw is scaled below the unit rate of the
    calibration draws, whose errors are far above rounding. Along that
    path |x3|' <= P + Q |x3|, the x3 terms of f and g giving Q and the
    rest P, which keeps x3 below Z. The c3 * x_j terms make both bounds
    exponential in the coefficients."""
    def coefficients(term):
        c0, c1, c2, c3, j = TERM.fullmatch(term).groups()
        return (abs(float(c0)) + abs(float(c1)), abs(float(c2 or 0.0)),
                abs(float(c3)), j)
    sc = [coefficients(e) for e in sec]
    a, w, b = (max(c[k] for c in sc) for k in range(3))
    x0 = max(map(abs, y0))
    X = _gronwall(x0, a, b, T)
    P = Q = 0.0
    for c01, _, c3, j in map(coefficients, (f, g)):
        P += c01 + (0.0 if j == "x3" else c3 * X)
        Q += c3 if j == "x3" else 0.0
    rate = max(1.0, a + b * X + w)
    return rate ** p * _gronwall(abs(z0), P, Q, X - x0)


def _submersion_lifts(sec, f, g, N, y0=(0.1, -0.2), z0=0.3):
    """The lift of concat(g1, g2) through the submersion with fiber row
    (f, g), and the lifts of g1 and of g2 after it; the section sec over
    (t, x1, x2) integrates g1 from y0 on N steps."""
    B, A = make_tangent(2), make_tangent(3)
    X = ["x1", "x2", "x3"]
    c = Comorphism(A, B, [ex.Var("x1"), ex.Var("x2")],
                   [[1.0, 0.0], [0.0, 1.0], [ex.parse(f, X), ex.parse(g, X)]])
    s1 = SectionTD.from_strings(B, sec)
    later = {"t": ex.add(ex.Var("t"), ex.Const(1.0))}
    s2 = SectionTD(B, [ex.substitute(e, later) for e in s1.exprs])
    g1 = integrate_apath(B, s1, y0, grid_size=N)
    g2 = integrate_apath(B, s2, g1.target, grid_size=N)
    lifted = lift_path(c, concat(g1, g2), (*y0, z0))
    L1 = lift_path(c, g1, (*y0, z0))
    # phi(L1.target) is within the lift's projection error of g2.source,
    # and a start point must map to within 1e-6 of it
    L2 = lift_path(c, g2, (*g2.source, L1.target[2]))
    assert lifted.completed and L1.completed and L2.completed
    return lifted, L1, L2


def _multiplicativity_error(*draw, N=MULT_N):
    lifted, L1, L2 = _submersion_lifts(*draw, N)
    return float(np.max(np.abs(
        lifted.base - np.concatenate([L1.base, L2.base[1:]]))))


def test_multiplicativity_error_is_fourth_order():
    draw = (["1.2 * sin(x2 - t)", "0.8 + 0.5 * x1"], "cos(x2) * x3",
            "0.5 * x1 - x3 * 0.4")
    errs = [_multiplicativity_error(*draw, N=N) for N in (50, 100, 200)]
    assert 0.0 < errs[2] < errs[1] < errs[0]
    assert math.log2(errs[0] / errs[1]) > 3.5
    assert math.log2(errs[1] / errs[2]) > 3.5
    assert errs[1] < 1.3e-11 * 1.1


unit = st.floats(-1.0, 1.0)


@st.composite
def terms(draw, names, t=False):
    """c0 + c1 * cos(x_i + c2 t) + c3 * x_j as source, over the names,
    with coefficients up to 1 in size."""
    c0, c1, c2, c3 = (draw(unit) for _ in range(4))
    i, j = (draw(st.sampled_from(names)) for _ in range(2))
    phase = f" + {c2!r} * t" if t else ""
    return f"{c0!r} + {c1!r} * cos({i}{phase}) + {c3!r} * {j}"


# a draw on which the fixed tolerances of a speed-3, e^2-growth model
# failed: x1' = 1 + cos(x1 - t) + x1 grows x1 to about 13.5 by t = 2,
# and x3' = x3 x1' grows x3 by about e^13
GROWING = dict(sec=["1.0 + 1.0 * cos(x1 + -1.0 * t) + 1.0 * x1",
                    "0.0 + 0.0 * cos(x1 + 0.0 * t) + 0.0 * x1"],
               f="0.0 + 0.0 * cos(x1) + 1.0 * x3",
               g="0.0 + 0.0 * cos(x1) + 0.0 * x1")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(terms(["x1", "x2"], t=True), min_size=2, max_size=2),
       terms(["x1", "x2", "x3"]), terms(["x1", "x2", "x3"]))
@example(**GROWING)
def test_the_lift_of_a_concatenation_is_the_concatenation_of_lifts(sec, f,
                                                                    g):
    lifted, L1, L2 = _submersion_lifts(sec, f, g, MULT_N)
    both = np.concatenate([L1.base, L2.base[1:]])
    tol = _mult_tol(sec, f, g)
    assert np.max(np.abs(lifted.base - both)) <= tol
    assert np.max(np.abs(lifted.target - L2.target)) <= tol


# ------------------------------------------------------------- inverses --
# The lift of the reversed path (t -> 1 - t, fiber data -eta(1 - t)) from
# the lift's target is the reversed lift, on the multiplicativity draws:
# the submersion R^3 -> R^2 with a drawn fiber row (f, g) of M and a
# drawn section, which integrates the path from y0 on N steps.
#
# The step-halving run of test_inverse_error_is_fourth_order on its fixed
# draw, another than the multiplicativity calibration's, gives 5.6e-12,
# 1.7e-13 and 5.5e-15 at N = 50, 100 and 200: the errors of the two lifts
# cancel to fifth order, and C h^4 at N = 100 is below 1.8e-13. Each drawn
# draw's tolerance is 1.8e-13 scaled by its `_growth` over the path
# (t in [0, 1]), the rate to the fifth power here, and by a margin of 10.
def _inv_tol(sec, f, g):
    return 1.8e-13 * _growth(sec, f, g, 1.0, 5) * 10


def _inverse_error(sec, f, g, N=MULT_N, y0=(0.1, -0.2), z0=0.3):
    """max |lift of the reversed path - reversed lift| over the base and
    the fiber samples, for the submersion with fiber row (f, g)."""
    B, A = make_tangent(2), make_tangent(3)
    X = ["x1", "x2", "x3"]
    c = Comorphism(A, B, [ex.Var("x1"), ex.Var("x2")],
                   [[1.0, 0.0], [0.0, 1.0], [ex.parse(f, X), ex.parse(g, X)]])
    g1 = integrate_apath(B, SectionTD.from_strings(B, sec), y0, grid_size=N)
    lifted = lift_path(c, g1, (*y0, z0))
    back = lift_path(c, APath(B, g1.times, g1.base[::-1], -g1.eta[::-1]),
                     lifted.target)
    assert lifted.completed and back.completed
    return max(float(np.max(np.abs(back.base - lifted.base[::-1]))),
               float(np.max(np.abs(back.eta + lifted.eta[::-1]))))


def test_inverse_error_is_fourth_order():
    draw = (["0.9 * cos(x1 + 0.5 * t)", "0.7 - 0.4 * x2"], "sin(x1) * x3",
            "0.3 * x2 + 0.6 * x3")
    errs = [_inverse_error(*draw, N=N) for N in (50, 100, 200)]
    assert 0.0 < errs[2] < errs[1] < errs[0]
    assert math.log2(errs[0] / errs[1]) > 3.5
    assert math.log2(errs[1] / errs[2]) > 3.5
    assert errs[1] < 1.8e-13


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(terms(["x1", "x2"], t=True), min_size=2, max_size=2),
       terms(["x1", "x2", "x3"]), terms(["x1", "x2", "x3"]))
@example(**GROWING)
def test_the_lift_of_the_reversed_path_is_the_reversed_lift(sec, f, g):
    assert _inverse_error(sec, f, g) <= _inv_tol(sec, f, g)


def _rhs_closure_lift(c, times, x0, m, table, bound=1e8):
    """The former lift flow, kept as the oracle, with `_lift_flow`'s
    arguments: a right-hand side closure that rounds its stage time to a
    row of the fiber table, called once per stage by the reference RK4
    loop of test_numkernel."""
    fn = c._lift_field
    t0, t1 = float(times[0]), float(times[-1])
    scale = 2.0 * m / (t1 - t0)

    def rhs(t, *x):
        return fn(*table[round((t - t0) * scale)], *x)

    vf = VectorFieldTD(c.source.n, rhs, domain=c.source.in_domain)
    return _reference_flow(vf, x0, (t0, t1), step=(t1 - t0) / m, bound=bound)


def blowup_setup():
    """x' = x1^2 xi along xi = 2 from x1 = 1: blows up at t = 1/2."""
    A = LieAlgebroid(1, 1, [[ex.parse("x1^2", ["x1"])]], {})
    B = make_tangent(1)
    c = Comorphism(A, B, [ex.parse("x1 - 1", ["x1"])], [[1.0]])
    times = np.linspace(0.0, 1.0, 101)
    g = APath(B, times, (2.0 * times)[:, None], np.full((101, 1), 2.0))
    return c, g, [1.0]


LIFT_CASES = {
    "completed": lambda: (inclusion(disk(), make_tangent(2)),
                          circle_path(make_tangent(2), N=200), [0.5, 0.0]),
    "domain_exit": lambda: (inclusion(disk(), make_tangent(2)),
                            line_path(make_tangent(2), N=200), [0.0, 0.0]),
    "blowup": blowup_setup,
}


@pytest.mark.parametrize("case", sorted(LIFT_CASES))
@pytest.mark.parametrize("interp", ["cubic", "linear"])
@pytest.mark.parametrize("refine", [1, 2])
def test_tabulated_lift_matches_the_rhs_closure(case, interp, refine):
    c, g, x0 = LIFT_CASES[case]()
    m, table = comorph._fiber_table(g.times, g.eta, interp, refine)
    got = comorph._lift_flow(c, g.times, x0, m, table.tolist())
    ref = _rhs_closure_lift(c, g.times, x0, m, table.tolist())
    assert got.status == ref.status == case
    assert got.times.tobytes() == ref.times.tobytes()
    assert got.points.tobytes() == ref.points.tobytes()
    assert repr(got.ending) == repr(ref.ending)


def twisted_cylinder_lift(h, composed=False):
    """The lift of the unit circle through ExampleConnection(1/3) from
    height h, or through its composite with a map of the plane that
    bends the first axis, x + 0.5 sin(y), which fixes the circle's start."""
    conn = ExampleConnection(1.0 / 3.0)
    loop = circle_loop(conn, grid=200)
    x0 = [1.0, 0.0, 1.0, 0.0, h]
    if not composed:
        return conn, loop, x0
    xy = conn.target.coords
    bend = Comorphism(conn.target, make_tangent(2),
                      [ex.parse("x + 0.5 * sin(y)", xy), ex.Var("y")],
                      [[1.0, 0.0], [0.0, 1.0]])
    return (compose(conn, bend),
            APath(bend.target, loop.times, loop.base, loop.eta), x0)


PHI_CASES = {
    "h=-0.7": lambda: twisted_cylinder_lift(-0.7),
    "h=0.0": lambda: twisted_cylinder_lift(0.0),
    "h=0.3": lambda: twisted_cylinder_lift(0.3),
    "composed": lambda: twisted_cylinder_lift(0.3, composed=True),
    "domain_exit": LIFT_CASES["domain_exit"],
    "blowup": blowup_setup,
}


@pytest.mark.parametrize("case", list(PHI_CASES))
def test_a_lift_records_phi_at_its_points(case):
    # the lift flow records phi after M's entries, at every point but the
    # last; lift_path's phi_projection_error reads those
    c, g, x0 = PHI_CASES[case]()
    m, table = comorph._fiber_table(g.times, g.eta, "cubic", 1)
    traj = comorph._lift_flow(c, g.times, x0, m, table.tolist())
    assert traj.status == (case if case in LIFT_CASES else "completed")
    recorded = traj.extras[:, c.source.r * c.target.r:]
    assert recorded.shape == (len(traj.points) - 1, c.target.n)
    assert recorded.tobytes() == c.phi_at(traj.points[:-1]).tobytes()
    lifted = lift_path(c, g, x0)
    assert lifted.phi_projection_error == float(np.max(np.abs(
        c.phi_at(traj.points) - g.base[:len(traj.points)])))


@pytest.mark.parametrize("seeds", [(), [], np.empty((0, 1))],
                         ids=["tuple", "list", "numpy"])
def test_a_probe_from_no_seed_is_refused(seeds):
    # no flow at all is no verdict, not "no escape detected"
    A = LieAlgebroid(1, 1, [[ex.Const(1.0)]], {})
    vf = A.flow_field(A.anchored_field([ex.Const(1.0)]))
    with pytest.raises(ValueError, match="no seeds to flow from"):
        first_escape(vf, 1.0, 1e8, seeds, 0.1)


@pytest.mark.parametrize("seeds", [np.array([[0.0]]), [[0.0]]],
                         ids=["numpy", "list"])
def test_a_seed_outside_the_domain_is_named_whatever_its_type(seeds):
    A = LieAlgebroid(1, 1, [[ex.Const(1.0)]], {},
                     domain=[ex.parse("1/x1", ["x1"])])
    vf = A.flow_field(A.anchored_field([ex.Const(1.0)]))
    with pytest.raises(StartError,
                       match=r"seed \(0\.0,\) is outside the domain"):
        first_escape(vf, 1.0, 1e8, seeds, 0.1)


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
        fc.target,
        lambda t, s: [t, s * math.sin(pi * t)],
        lambda t, s: [1.0, s * pi * math.cos(pi * t)],
        lambda t, s: [0.0, math.sin(pi * t)])
    # the farthest apart are the slices at either end of the s grid
    with pytest.raises(LiftError, match=r"slices s=0\.0 and s=1\.0 end "
                       r".* apart \(> tolerance .*\)"):
        lift_homotopy(fc, H, [0.0, 0.0, 0.0])


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
        fc.target,
        lambda t, s: [t + s * f(t), s * f(t)],
        lambda t, s: [1.0 + s * df(t), s * df(t)],
        lambda t, s: [f(t), f(t)])
    lifted = lift_homotopy(fc, H, [0.0, 0.0, 1.0])
    assert 1e-9 < lifted.endpoint_spread <= 1e-5
    x3_end = math.e if h31 == "x3" else 1.0
    assert np.allclose(lifted.x[-1], [1.0, 0.0, x3_end], atol=1e-5)


@pytest.mark.parametrize("x0", [[0.0, 0.0], [[0.0]], []])
def test_a_homotopy_lifts_from_one_start_point(x0):
    # a start of another shape is named, as lift_path names it
    _, B, c = interval_setup()
    H = sine_homotopy(B, amp=0.5, nt=10, ns=3)
    shape = np.shape(x0)
    with pytest.raises(ValueError, match=re.escape(
            f"x0 must be a point of 1 coordinates, got shape {shape}")):
        lift_homotopy(c, H, x0)


def test_lift_homotopy_names_the_failing_slice():
    _, B, c = interval_setup()
    H = sine_homotopy(B, amp=2.0, nt=50, ns=20)   # large-s slices leave (-2, 2)
    with pytest.raises(LiftError) as info:
        lift_homotopy(c, H, [0.0])
    # x = t + 2 s sin(pi t) reaches 2 first on slice s = 0.75, at t = 1/2,
    # and every later slice leaves too: the first, in s order, is named
    assert str(info.value) == ("slice s=0.75 failed to lift: "
                               "domain_exit(t*=0.5000000125169753)")


def test_lift_homotopy_names_the_first_base_sample_outside_the_target():
    # x1 < 1.05 on the target: the slices from s = 0.9 on leave it. The
    # samples are tested slice by slice, so the error names the first
    # outside on slice s = 0.9, not the earliest in t (1.05114..., on
    # slice s = 1)
    B = LieAlgebroid(1, 1, [[ex.Const(1.0)]], {},
                     domain=[ex.parse("1.05 - x1", ["x1"])])
    c = Comorphism(make_tangent(1), B, [ex.Var("x1")], [[1.0]])
    H = sine_homotopy(B, amp=0.5)
    with pytest.raises(AlgebroidError) as info:
        lift_homotopy(c, H, [0.0])
    assert str(info.value) == ("base sample (1.0505203820042828,) is "
                               "outside the domain")


def flat_plane_homotopy():
    """A rank-2 homotopy lifted through a flat connection whose endpoint
    spread exceeds 1e-9, so that the lift also builds refined tables."""
    fc = vertical_connection(["x3", "0"])
    f = lambda t: math.sin(math.pi * t * t)
    df = lambda t: 2 * math.pi * t * math.cos(math.pi * t * t)
    H = plane_homotopy(fc.target,
                       lambda t, s: [t + s * f(t), s * f(t)],
                       lambda t, s: [1.0 + s * df(t), s * df(t)],
                       lambda t, s: [f(t), f(t)])
    return fc, H, [0.0, 0.0, 1.0]


HOMOTOPY_CASES = {
    "interval": lambda: (interval_setup()[2],
                         sine_homotopy(make_tangent(1), amp=0.5, nt=60,
                                       ns=7), [0.0]),
    "flat-plane": flat_plane_homotopy,
}


@pytest.mark.parametrize("case", sorted(HOMOTOPY_CASES))
@pytest.mark.parametrize("interp", ["cubic", "linear"])
def test_homotopy_slices_are_the_lifts_of_each_slice(case, interp):
    # one fiber table for all slices gives each slice the bits of its own
    # table, at the path's grid and at the refined one
    c, H, x0 = HOMOTOPY_CASES[case]()
    lifted = lift_homotopy(c, H, x0, interp=interp)
    m, refined = comorph._fiber_table(H.t_grid, H.eta, interp, 2)
    for l in range(len(H.s_grid)):
        g = APath(c.target, H.t_grid, H.x[:, l], H.eta[:, l])
        alone = lift_path(c, g, x0, interp=interp)
        assert lifted.x[:, l].tobytes() == alone.base.tobytes()
        assert lifted.eta[:, l].tobytes() == alone.eta.tobytes()
        m_alone, table = comorph._fiber_table(g.times, g.eta, interp, 2)
        assert m == m_alone
        assert refined[:, l].tobytes() == table.tobytes()


@pytest.mark.parametrize("case", sorted(HOMOTOPY_CASES))
def test_homotopy_lift_builds_one_table_per_step_and_one_M_per_slice(
        case, monkeypatch):
    # the interval's endpoints agree to 1e-9, so only the flat plane's lift
    # estimates its discretisation error at the refined step
    c, H, x0 = HOMOTOPY_CASES[case]()
    reference = lift_homotopy(c, H, x0)
    refines, M_points = [], []
    build, M_at = comorph.stage_table, c.M_at
    monkeypatch.setattr(comorph, "stage_table",
                        lambda *a: refines.append(a[3]) or build(*a))
    monkeypatch.setattr(c, "M_at",
                        lambda x: M_points.append(len(x)) or M_at(x))
    lifted = lift_homotopy(c, H, x0)
    assert refines == ([1] if case == "interval" else [1, 2])
    # the flow records M at each slice's points but the last, and one
    # M_at takes it at the last points of all slices
    assert M_points == [len(H.s_grid)]
    for field in ("x", "eta", "beta"):
        assert (getattr(lifted, field).tobytes()
                == getattr(reference, field).tobytes())
    # beta is transported by the M of each lifted slice's samples
    for l in range(len(H.s_grid)):
        beta = matvec(M_at(lifted.x[:, l]), H.beta[:, l])
        assert lifted.beta[:, l].tobytes() == beta.tobytes()


def test_a_stack_of_lifts_that_end_apart_is_each_lift_alone():
    # rho_A = (1, x2^3) / (1 + x2^2) and M = 1 + x2^2 on x2 > -2, through
    # phi = x1: x1' = xi and x2' = x2^3 xi up to each lane's own rounding,
    # so from the same path the lanes complete, exit the domain (t =
    # 0.375), blow up (near t = 0.5) and complete; each keeps its own
    # prefix, its own M for its lifted fiber and its own phi
    xy = ["x1", "x2"]
    A = LieAlgebroid(2, 1, [[ex.parse("1 / (1 + x2^2)", xy)],
                            [ex.parse("x2^3 / (1 + x2^2)", xy)]], {},
                     domain=[ex.parse("x2 + 2", xy)])
    c = Comorphism(A, make_tangent(1), [ex.Var("x1")],
                   [[ex.parse("1 + x2^2", xy)]])
    times = np.linspace(0.0, 1.0, 101)
    g = APath(c.target, times, times[:, None], np.ones((101, 1)))
    starts = [[0.0, 0.1], [0.0, -1.0], [0.0, 1.0], [0.0, 0.3]]
    lifts = lift_path(c, g, np.array(starts), bound=1e3)
    assert [lifted.ending.status for lifted in lifts] == [
        "completed", "domain_exit", "blowup", "completed"]
    for x0, got in zip(starts, lifts):
        ref = lift_path(c, g, x0, bound=1e3)
        for field in ("times", "base", "eta"):
            assert (getattr(got, field).tobytes()
                    == getattr(ref, field).tobytes())
        assert repr(got.ending) == repr(ref.ending)
        assert got.phi_projection_error == ref.phi_projection_error


def test_a_stack_of_start_points_lifts_from_one_table(monkeypatch):
    fc = vertical_connection(["x3", "0"])
    g = APath(fc.target, np.linspace(0.0, 1.0, 201),
              [[t, t * t] for t in np.linspace(0.0, 1.0, 201)],
              [[1.0, 2.0 * t] for t in np.linspace(0.0, 1.0, 201)])
    starts = [[0.0, 0.0, z] for z in (-1.0, 0.0, 2.5)]
    alone = [lift_path(fc, g, x0) for x0 in starts]
    builds = []
    build = comorph.stage_table
    monkeypatch.setattr(comorph, "stage_table",
                        lambda *a: builds.append(1) or build(*a))
    lifts = lift_path(fc, g, np.array(starts))
    assert len(builds) == 1
    assert len(lifts) == 3
    for got, ref in zip(lifts, alone):
        assert got.base.tobytes() == ref.base.tobytes()
        assert got.eta.tobytes() == ref.eta.tobytes()
        assert got.phi_projection_error == ref.phi_projection_error
    assert len(lift_path(fc, g, np.empty((0, 3)))) == 0
    with pytest.raises(LiftError, match="does not match"):
        lift_path(fc, g, [[0.0, 0.0, 1.0], [0.5, 0.0, 1.0]])
    with pytest.raises(ValueError, match="3 coordinates"):
        lift_path(fc, g, [0.0, 0.0])
