import json
import math
from collections import Counter

import numpy as np
import pytest

from algpaths import comorph, expr as ex
from algpaths.algebroid import SectionTD
from algpaths.comorph import (anchor_compat_residual, compose, first_escape,
                              pullback_section)
from algpaths.expr import SmoothMap
from algpaths.numkernel import flow
from algpaths.poisson import (PoissonError, PoissonManifold,
                              complete_map_probe, cotangent_lift,
                              default_test_functions, hamiltonian_vf,
                              poisson_map_residual, standard_symplectic)

XY = ["x1", "x2"]


def so3_dual():
    c = ["x1", "x2", "x3"]
    return PoissonManifold(3, {(0, 1): ex.parse("x3", c),
                               (0, 2): ex.parse("-x2", c),
                               (1, 2): ex.parse("x1", c)})


def cube_samples(dim, count=100, seed=0):
    rng = np.random.default_rng(seed)
    return [list(rng.uniform(-1.0, 1.0, dim)) for _ in range(count)]


# ----------------------------------------------------- Hamiltonian fields

def test_hamiltonian_field_sign_convention():
    P = standard_symplectic(2)
    f = ex.parse("(x1^2 + x2^2)/2", XY)
    assert hamiltonian_vf(P, f).fn(0.0, 0.3, 0.7) == [0.7, -0.3]  # (y, -x)
    g = ex.parse("x1^2 * x2", XY)
    # (x^2, -2xy)
    assert hamiltonian_vf(P, g).fn(0.0, 0.5, -1.0) == [0.25, 1.0]


def test_a_hamiltonian_field_over_a_coordinate_named_t():
    # the field's time input takes a fresh name, so the coordinate t is
    # the state, not the time
    P = PoissonManifold(2, {(0, 1): ex.Const(1.0)}, coords=["t", "p"])
    f = ex.parse("(t^2 + p^2)/2", ["t", "p"])
    vf = hamiltonian_vf(P, f)
    assert vf.fn(5.0, 0.3, 0.7) == [0.7, -0.3]    # (p, -t), time ignored
    traj = flow(vf, (1.0, 0.0), (0.0, 0.5 * math.pi), step=1e-3)
    assert np.allclose(traj.points[-1], [0.0, -1.0], atol=1e-9)


def test_harmonic_oscillator_conserves_energy():
    P = standard_symplectic(2)
    f = ex.parse("(x1^2 + x2^2)/2", XY)
    traj = flow(hamiltonian_vf(P, f), (1.0, 0.0), (0.0, 2.0 * math.pi),
                step=1e-3)
    assert traj.completed
    energies = 0.5 * np.sum(np.asarray(traj.points) ** 2, axis=1)
    assert float(np.max(np.abs(energies - 0.5))) <= 1e-6
    assert np.allclose(traj.points[-1], [1.0, 0.0], atol=1e-9)


# ------------------------------------------------------- Jacobi residual

def test_so3_dual_bivector_is_poisson():
    assert so3_dual().jacobi_residual(cube_samples(3)) == 0.0


def test_symplectic_bivector_is_poisson():
    assert standard_symplectic(4).jacobi_residual(cube_samples(4, 20)) == 0.0


def test_broken_bivector_has_constant_jacobi_defect():
    # Pi^12 = 1, Pi^13 = x1, Pi^23 = x2: the cyclic sum is 2 everywhere
    c = ["x1", "x2", "x3"]
    P = PoissonManifold(3, {(0, 1): 1.0, (0, 2): ex.parse("x1", c),
                            (1, 2): ex.parse("x2", c)})
    assert P.jacobi_residual([(0.0, 0.0, 0.0)]) == 2.0
    assert P.jacobi_residual(cube_samples(3, 20)) == 2.0


def test_second_broken_bivector_defect_grows_with_x2():
    # Pi^12 = x1, Pi^13 = -x2, Pi^23 = x1: cyclic sum equals x2
    c = ["x1", "x2", "x3"]
    P = PoissonManifold(3, {(0, 1): ex.parse("x1", c),
                            (0, 2): ex.parse("-x2", c),
                            (1, 2): ex.parse("x1", c)})
    assert P.jacobi_residual([(0.0, 1.0, 0.0)]) == 1.0
    assert P.jacobi_residual([(0.0, -0.25, 0.0)]) == 0.25


# ------------------------------------------------------------ map residual

def test_poisson_map_residual_of_a_scaling():
    P = standard_symplectic(2)
    phi = SmoothMap.from_strings(XY, ["2*x1", "x2"])
    assert poisson_map_residual(phi, P, P, cube_samples(2, 20)) == 1.0


def test_projection_to_the_zero_structure_is_poisson():
    P = standard_symplectic(2)
    R = PoissonManifold(1, {})
    phi = SmoothMap.from_strings(XY, ["x1"])
    assert poisson_map_residual(phi, P, R, cube_samples(2, 20)) == 0.0


def test_any_function_to_the_line_is_poisson():
    P = standard_symplectic(2)
    R = PoissonManifold(1, {})
    phi = SmoothMap.from_strings(XY, ["x1^2 * x2"])
    assert poisson_map_residual(phi, P, R, cube_samples(2, 50)) <= 1e-12


def test_map_residual_needs_source_coordinates():
    P = standard_symplectic(2)
    phi = SmoothMap.from_strings(["y1", "y2"], ["y1", "y2"])
    with pytest.raises(PoissonError, match="source coordinates"):
        poisson_map_residual(phi, P, P, [(0.0, 0.0)])


def test_residual_samples_need_the_source_dimension_and_domain():
    # six values of 3-coordinate samples must not pass as three points
    P = standard_symplectic(2)
    phi = SmoothMap.from_strings(XY, XY)
    bad = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]
    with pytest.raises(ValueError, match=r"sample \(0\.1, 0\.2, 0\.3\) "
                                         r"has 3 coordinates, not 2"):
        P.jacobi_residual(bad)
    with pytest.raises(ValueError, match="has 3 coordinates, not 2"):
        poisson_map_residual(phi, P, P, bad)
    D = PoissonManifold(2, {(0, 1): ex.Const(1.0)},
                        domain=[ex.parse("1 - x1^2 - x2^2", XY)])
    with pytest.raises(ex.DomainError, match=r"sample \(2\.0, 0\.0\)"):
        D.jacobi_residual([[0.1, 0.0], [2.0, 0.0]])
    with pytest.raises(ex.DomainError, match=r"sample \(2\.0, 0\.0\)"):
        poisson_map_residual(phi, D, P, [[2.0, 0.0]])


# ---------------------------------------------------------- cotangent lift

def test_cotangent_lift_of_the_projection():
    P = standard_symplectic(2)
    R = PoissonManifold(1, {})
    phi = SmoothMap.from_strings(XY, ["x1"])
    c = cotangent_lift(phi, P, R)
    assert np.array_equal(c.M_at((0.3, -0.8)), [[1.0], [0.0]])  # Dphi^T
    # the cotangent algebroids carry Pi as their anchors
    assert np.array_equal(c.source.anchor_matrix((0.0, 0.0)),
                          [[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(c.target.anchor_matrix((0.0,)), [[0.0]])
    assert anchor_compat_residual(c, cube_samples(2, 20)) == 0.0


def test_cotangent_lift_of_the_identity():
    P = standard_symplectic(2)
    phi = SmoothMap.from_strings(XY, ["x1", "x2"])
    c = cotangent_lift(phi, P, P)
    assert np.array_equal(c.M_at((0.4, 0.9)), np.eye(2))
    assert np.allclose(c.phi_at((0.4, 0.9)), [0.4, 0.9])


def test_cotangent_lift_fiber_is_the_transposed_jacobian():
    P = standard_symplectic(2)
    R = PoissonManifold(1, {})
    phi = SmoothMap.from_strings(XY, ["x1^2 * x2"])
    c = cotangent_lift(phi, P, R)
    assert np.allclose(c.M_at((0.5, -1.0)), [[-1.0], [0.25]])


def test_cotangent_lift_rejects_non_poisson_maps():
    P = standard_symplectic(2)
    phi = SmoothMap.from_strings(XY, ["2*x1", "x2"])
    with pytest.raises(PoissonError, match=r"not a Poisson map \(residual"):
        cotangent_lift(phi, P, P)


def test_cotangent_lifts_compose_as_the_lift_of_the_composite():
    # the symplectization functor: phi = (x1, x3) projects standard
    # symplectic R^4 to R^2, psi rotates R^2 by (0.6, 0.8), and
    # compose(c1, c2) applies c1 first, so T*(psi o phi) is
    # compose(T*phi, T*psi); both read the manifolds' one cotangent
    # algebroid each
    P4, P2 = standard_symplectic(4), standard_symplectic(2)
    phi = SmoothMap.from_strings(P4.coords, ["x1", "x3"])
    psi = SmoothMap.from_strings(XY, ["0.6*x1 - 0.8*x2", "0.8*x1 + 0.6*x2"])
    composite = SmoothMap(P4.coords, [
        ex.substitute(e, {"x1": ex.Var("x1"), "x2": ex.Var("x3")})
        for e in psi.components])
    chained = compose(cotangent_lift(phi, P4, P2),
                      cotangent_lift(psi, P2, P2))
    direct = cotangent_lift(composite, P4, P2)
    assert chained.source is direct.source is P4.cotangent
    assert chained.target is direct.target is P2.cotangent
    pts = np.array(cube_samples(4, 20, seed=3))
    assert np.array_equal(chained.phi_at(pts), direct.phi_at(pts))
    assert np.array_equal(chained.M_at(pts), direct.M_at(pts))


# ------------------------------------------------------ completeness probe

def test_probe_projection_is_complete():
    P = standard_symplectic(2)
    R = PoissonManifold(1, {})
    phi = SmoothMap.from_strings(XY, ["x1"])
    rep = complete_map_probe(phi, P, R)
    assert rep.all_agree
    assert len(rep.entries) == 2                  # coordinate + bump cutoff
    for e in rep.entries:
        assert not e["hamiltonian"]["escaped"]
        assert not e["comorphism"]["escaped"]
        assert e["field_mismatch"] <= 1e-9


def test_probe_identity_closed_orbits_complete():
    P = standard_symplectic(2)
    phi = SmoothMap.from_strings(XY, ["x1", "x2"])
    rep = complete_map_probe(phi, P, P,
                             test_functions=["(x1^2 + x2^2)/2"],
                             seeds=((1.0, 0.0),))
    e = rep.entries[0]
    assert rep.all_agree
    assert not e["hamiltonian"]["escaped"] and not e["comorphism"]["escaped"]


def test_probe_detects_domain_exit_identically_on_both_routes():
    disk = PoissonManifold(2, {(0, 1): 1.0},
                           domain=[ex.parse("1 - x1^2 - x2^2", XY)])
    plane = standard_symplectic(2)
    phi = SmoothMap.from_strings(XY, ["x1", "x2"])
    rep = complete_map_probe(phi, disk, plane, test_functions=["x2"])
    e = rep.entries[0]
    assert rep.all_agree
    h, c = e["hamiltonian"], e["comorphism"]
    assert h["witness"]["status"] == c["witness"]["status"] == "domain_exit"
    assert abs(h["witness"]["t_star"] - 1.0) <= 1e-6
    assert e["t_star_diff"] <= 1e-6


def test_probe_blowup_time_matches_the_pole():
    P = standard_symplectic(2)
    R = PoissonManifold(1, {})
    phi = SmoothMap.from_strings(XY, ["x1^2 * x2"])
    rep = complete_map_probe(phi, P, R, seeds=((1.0, 1.0),), bound=1e6)
    coord = rep.entries[0]                        # f = x1, the Y coordinate
    assert rep.all_agree
    w = coord["hamiltonian"]["witness"]
    assert w["status"] == "blowup"
    assert abs(w["t_star"] - 1.0) <= 0.05         # pole of x' = x^2 at 1/x0
    assert coord["t_star_diff"] <= 1e-6


def test_probe_compiles_each_route_field_once(monkeypatch):
    compiled = []
    compile_exprs = ex.compile_exprs

    def counting(exprs, variables):
        compiled.append(len(exprs))
        return compile_exprs(exprs, variables)

    monkeypatch.setattr(ex, "compile_exprs", counting)
    counts = []
    for fs in (["x1"], ["x1", "x2 * x3", "x1^2 + x3"]):
        # fresh objects: what they compile on first use is a fixed cost
        P = so3_dual()
        phi = SmoothMap.from_strings(P.coords, P.coords)
        compiled.clear()
        rep = complete_map_probe(phi, P, P, test_functions=fs, horizon=0.1,
                                 seeds=((0.3, -0.2, 0.5),))
        assert rep.all_agree
        counts.append(len(compiled))
    # one Hamiltonian field and one fused comorphism field per function
    assert counts[1] - counts[0] == 2 * 2


def _counting_compiles(monkeypatch):
    """The source names of every compile() that expr and numkernel make."""
    from algpaths import numkernel
    names = []

    def counting(source, name, *args, **kwargs):
        names.append(name)
        return compile(source, name, *args, **kwargs)

    for module in (ex, numkernel):
        monkeypatch.setattr(module, "compile", counting, raising=False)
    return names


def test_the_two_routes_share_their_fused_loops(monkeypatch):
    # f o phi's Hamiltonian field and df's comorphism field are equal
    # source, so each test function's two routes share one loop
    ex._function.cache_clear()
    names = _counting_compiles(monkeypatch)
    P = so3_dual()
    phi = SmoothMap.from_strings(P.coords, P.coords)
    seeds = ((0.3, -0.2, 0.5),)
    first = complete_map_probe(phi, P, P, seeds=seeds).to_json()
    assert len(first["entries"]) == 4
    assert names.count("<rk4 loop>") == 4
    names.clear()
    again = complete_map_probe(phi, P, P, seeds=seeds).to_json()
    assert names == []
    assert json.dumps(again) == json.dumps(first)
    assert first["all_agree"]


def _counting_flows(monkeypatch):
    """The (function, seed) of every flow a first-escape probe makes."""
    flows = []
    flow = comorph.flow

    def counting(vf, x0, *args, **kwargs):
        flows.append((vf.fn, tuple(x0)))
        return flow(vf, x0, *args, **kwargs)

    monkeypatch.setattr(comorph, "flow", counting)
    return flows


def _probe_flowing_both_routes(phi, PX, PY, seeds, bound):
    """complete_map_probe's report, with its default test functions and
    horizon, as it reads when each route is flowed on its own: the
    reference of a probe that flows a route both share once."""
    c = cotangent_lift(phi, PX, PY)
    A = c.source
    mapping = {v: phi.components[j] for j, v in enumerate(PY.coords)}
    tpts = np.insert(np.asarray(seeds, dtype=float), 0, 0.0, axis=1)
    entries = []
    for f in default_test_functions(PY):
        ham = hamiltonian_vf(PX, ex.substitute(f, mapping))
        s = SectionTD(c.target, [f.d(v) for v in PY.coords])
        com = A.flow_field(A.anchored_field(pullback_section(c, s).exprs))
        worst = float(np.max(np.abs(ex.evaluate(com.fn, tpts, (A.n,))
                                    - ex.evaluate(ham.fn, tpts, (A.n,))),
                             initial=0.0))
        v_ham, v_com = (first_escape(vf, 2.0, bound, seeds, 1e-3)
                        for vf in (ham, com))
        t_diff = (abs(v_ham.witness[1].t_star - v_com.witness[1].t_star)
                  if v_ham.escaped and v_com.escaped else None)
        entries.append({
            "f": str(f), "hamiltonian": v_ham.to_json(),
            "comorphism": v_com.to_json(), "field_mismatch": worst,
            "agree": (v_ham.escaped == v_com.escaped
                      and (t_diff is None or t_diff <= 1e-3)),
            "t_star_diff": t_diff})
    return {"horizon": 2.0, "bound": bound,
            "all_agree": all(e["agree"] for e in entries),
            "entries": entries}


@pytest.mark.parametrize("fixture, flows", [
    # four test functions, each route the Hamiltonian one: one flow each,
    # not two
    ("so3", 4),
    # x1's route is shared and blows up from the seed; the bump's two
    # fields have different source, and each flows
    ("blowup", 1 + 2),
])
def test_a_shared_route_flows_once_and_reports_as_both(monkeypatch, fixture,
                                                      flows):
    if fixture == "so3":
        PX = PY = so3_dual()
        phi = SmoothMap.from_strings(PX.coords, PX.coords)
        seeds, bound = ((0.3, -0.2, 0.5),), 1e8
    else:
        PX, PY = standard_symplectic(2), PoissonManifold(1, {})
        phi = SmoothMap.from_strings(XY, ["x1^2 * x2"])
        seeds, bound = ((1.0, 0.5),), 1e6
    made = _counting_flows(monkeypatch)
    rep = complete_map_probe(phi, PX, PY, seeds=seeds, bound=bound)
    assert len(made) == flows
    reference = _probe_flowing_both_routes(phi, PX, PY, seeds, bound)
    assert json.dumps(rep.to_json()) == json.dumps(reference)


def test_routes_of_different_source_each_flow_from_every_seed(monkeypatch):
    # on x1^2 x2 from the plane to the line, the bump's Hamiltonian and
    # comorphism fields are equal, but not the same function
    P, R = standard_symplectic(2), PoissonManifold(1, {})
    phi = SmoothMap.from_strings(XY, ["x1^2 * x2"])
    seeds = [(1.0, 0.5), (0.2, -0.3), (-0.4, 0.1)]
    made = _counting_flows(monkeypatch)
    coord, bump = complete_map_probe(phi, P, R, seeds=seeds,
                                     bound=1e6).entries
    assert coord["hamiltonian"]["witness"]["seed"] == [1.0, 0.5]
    assert not bump["hamiltonian"]["escaped"]
    assert not bump["comorphism"]["escaped"]
    # x1's shared route escapes from the first seed, in one flow
    assert len(made) == 1 + 2 * len(seeds)
    fns = {fn for fn, _ in made[1:]}
    assert len(fns) == 2
    assert Counter(made[1:]) == Counter((fn, s) for fn in fns for s in seeds)


@pytest.mark.parametrize("kwargs, message", [
    ({"seeds": ()}, "no seeds to flow from"),
    ({"test_functions": []}, "no test functions to probe with"),
], ids=["no seeds", "no test functions"])
def test_an_empty_probe_is_refused(monkeypatch, kwargs, message):
    # a probe that flows nothing has no verdict, so it cannot agree
    P = standard_symplectic(2)
    phi = SmoothMap.from_strings(XY, XY)
    made = _counting_flows(monkeypatch)
    with pytest.raises(ValueError, match=message):
        complete_map_probe(phi, P, P, **kwargs)
    assert made == []


def test_probe_rejects_non_poisson_maps():
    P = standard_symplectic(2)
    phi = SmoothMap.from_strings(XY, ["2*x1", "x2"])
    with pytest.raises(PoissonError, match="not a Poisson map"):
        complete_map_probe(phi, P, P)


def test_probe_comparison_serializes():
    P = standard_symplectic(2)
    R = PoissonManifold(1, {})
    phi = SmoothMap.from_strings(XY, ["x1"])
    j = complete_map_probe(phi, P, R, test_functions=["x1"]).to_json()
    assert j["all_agree"] is True
    assert j["horizon"] == 2.0 and j["bound"] == 1e8
    assert {"f", "hamiltonian", "comorphism", "agree",
            "field_mismatch", "t_star_diff"} <= set(j["entries"][0])


def test_default_test_functions_cover_coordinates_and_a_cutoff():
    P = so3_dual()
    fs = default_test_functions(P)
    assert len(fs) == 4
    assert [str(f) for f in fs[:3]] == ["x1", "x2", "x3"]
    cutoff = ex.compile_exprs([fs[3]], P.coords)
    assert cutoff(0.0, 0.0, 0.0) == [1.0]         # plateau of the bump
    assert cutoff(3.0, 0.0, 0.0) == [0.0]         # outside the support


# ------------------------------------------------------------ construction

def test_pi_completion_and_antisymmetry():
    P = so3_dual()
    x = (0.4, -0.2, 0.9)
    M = P.pi_matrix(x)
    assert np.array_equal(M, -M.T)
    assert ex.compile_exprs([P.pi.expr(1, 0)], P.coords)(0.0, 0.0, 2.0) \
        == [-2.0]
    assert str(P.pi.expr(0, 0)) == "0"


def test_json_round_trip():
    P = PoissonManifold(3, {(0, 1): ex.parse("x3", ["x1", "x2", "x3"])},
                        domain=[ex.parse("x3", ["x1", "x2", "x3"])])
    Q = PoissonManifold.from_dict({"dim": 3, "Pi": {"1,2": "x3"},
                                   "domain": ["x3"]})
    x = (0.1, 0.2, 0.7)
    assert np.array_equal(Q.pi_matrix(x), P.pi_matrix(x))
    assert not Q.in_domain((0.0, 0.0, -1.0))


def test_constructor_and_json_validation():
    with pytest.raises(PoissonError, match="Pi keys"):
        PoissonManifold(2, {(1, 1): 1.0})
    with pytest.raises(PoissonError, match="Pi keys"):
        PoissonManifold.from_dict({"dim": 2, "Pi": {"2,1": "1"}})
    with pytest.raises(PoissonError, match="bad Pi key"):
        PoissonManifold.from_dict({"dim": 2, "Pi": {"12": "1"}})
    with pytest.raises(PoissonError, match="unknown variables"):
        PoissonManifold(2, {(0, 1): ex.parse("q", ["q"])})
    with pytest.raises(PoissonError, match="even"):
        standard_symplectic(3)
