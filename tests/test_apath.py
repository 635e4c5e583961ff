import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algpaths import expr as ex
from algpaths.algebroid import (AlgebroidError, Draws, LieAlgebroid,
                                SectionTD, check_axioms, make_lie_algebra,
                                make_tangent, sample_points)
from algpaths.apath import (AHomotopy, APath, BasisError, MatrixPath,
                            admissibility_residual, develop,
                            homotopy_residual, integrate_apath,
                            log_derivative, read_apath_csv,
                            read_ahomotopy_csv, read_matrix_csv)
from algpaths.numkernel import COMPLETED, Ending, Trajectory, flow
from test_numkernel import read_trajectory


def so3_constants():
    c = np.zeros((3, 3, 3))
    for d, a, b in ((2, 0, 1), (0, 1, 2), (1, 2, 0)):
        c[d, a, b] = 1.0
        c[d, b, a] = -1.0
    return c


SO2_BASIS = [np.array([[0.0, -1.0], [1.0, 0.0]])]
# exp(pi/2 E) of the so(2) generator E: the quarter turn, exact in floats
QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])
SO3_BASIS = [np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
             np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
             np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])]


# ------------------------------------------------------------ integration

def test_integrate_rotation_field():
    A = make_tangent(2)
    s = SectionTD.from_strings(A, ["x2", "-x1"])
    g = integrate_apath(A, s, [1.0, 0.0], grid_size=1000)
    assert g.completed
    assert g.target == pytest.approx([math.cos(1.0), -math.sin(1.0)],
                                     abs=1e-11)
    assert list(g.source) == [1.0, 0.0]
    assert len(g.times) == 1001


def test_integrate_partial_path_on_escape():
    A = make_tangent(1)
    s = SectionTD.from_strings(A, ["x1^2"])
    g = integrate_apath(A, s, [2.0], grid_size=1000, bound=1e6)
    assert g.status == "blowup"
    assert not g.completed
    assert g.ending.t_star == pytest.approx(0.5, rel=0.05)   # 1 / x0


def test_a_grid_of_m_steps_gives_m_plus_1_even_samples():
    # at grid 100009 the float ratio 1 / (1 / 100009) exceeds 100009 by
    # more than an absolute 1e-12, and the flow used to take one more,
    # 1.1e-16 long step, whose CSV read back as an uneven grid
    A = make_tangent(1)
    g = integrate_apath(A, SectionTD.from_strings(A, ["1"]), [0.0],
                        grid_size=100009)
    assert g.completed and len(g.times) == 100010
    assert g.times[-1] == 1.0
    buf = io.StringIO()
    g.write_csv(buf)
    buf.seek(0)
    back = read_apath_csv(buf, A)
    assert back.times.tobytes() == g.times.tobytes()


def test_a_section_over_a_coordinate_named_t_is_refused():
    # the section's variables are ("t", *coords): a coordinate t would
    # bind to one of the two, and x' = t would flow as x' = x
    A = make_tangent(1, coords=["t"])
    with pytest.raises(ValueError, match="variable names must be distinct"):
        SectionTD(A, [ex.Var("t")])


def test_admissibility_residual_shrinks_at_second_order():
    A = make_tangent(2)
    s = SectionTD.from_strings(A, ["x2", "-x1"])
    r1 = admissibility_residual(integrate_apath(A, s, [1.0, 0.0], 250))
    r2 = admissibility_residual(integrate_apath(A, s, [1.0, 0.0], 500))
    assert r1 / r2 == pytest.approx(4.0, abs=0.3)


def test_admissibility_detects_wrong_eta():
    A = make_tangent(1)
    g = APath(A, [0.0, 0.5, 1.0], [[0.0], [0.5], [1.0]],
              [[1.0], [0.75], [1.0]])            # middle eta off by 0.25
    assert admissibility_residual(g) == pytest.approx(0.25)


@pytest.mark.parametrize("n", [1, 2])
def test_admissibility_residual_names_the_stencils_minimum(n):
    g = APath(make_tangent(1), [0.0, 1.0][:n], [[0.0], [1.0]][:n],
              [[1.0], [1.0]][:n])
    with pytest.raises(ValueError, match=f"at least 3 samples, got {n}"):
        admissibility_residual(g)


# ------------------------------------------------------------- homotopies

def sine_homotopy(nt=100, ns=100):
    A = make_tangent(1)
    x_fn = lambda t, s: [t + math.sin(s) * math.sin(math.pi * t)]
    eta_fn = lambda t, s: [1 + math.sin(s) * math.pi * math.cos(math.pi * t)]
    beta_fn = lambda t, s: [math.cos(s) * math.sin(math.pi * t)]
    return AHomotopy.from_functions(A, x_fn, eta_fn, beta_fn, nt=nt, ns=ns)


def test_homotopy_residual_small_for_exact_family():
    res_x, res_eta = homotopy_residual(sine_homotopy())
    assert res_x <= 1e-3
    assert res_eta <= 1e-2


def test_homotopy_residual_detects_wrong_beta():
    H = sine_homotopy(40, 40)
    H2 = AHomotopy(H.algebroid, H.t_grid, H.s_grid, H.x, H.eta,
                   np.zeros_like(H.beta))
    res_x, _ = homotopy_residual(H2)
    # dy/ds = cos(s) sin(pi t) peaks near 1 on the interior grid
    assert res_x > 0.5


@pytest.mark.parametrize("axis", ["t", "s"])
def test_an_uneven_homotopy_grid_is_refused(axis):
    # on t = u^2 the residuals would difference with the first spacing
    # everywhere (res_eta read 308.6)
    H = sine_homotopy(40, 40)
    u = np.linspace(0.0, 1.0, 41)
    grids = {"t": H.t_grid, "s": H.s_grid, axis: u ** 2}
    with pytest.raises(ValueError, match=f"{axis} grid is not uniform"):
        AHomotopy(H.algebroid, grids["t"], grids["s"], H.x, H.eta, H.beta)


@pytest.mark.parametrize("nt, ns", [(3, 1), (1, 3), (1, 1)])
def test_the_residual_of_a_grid_with_one_value_on_an_axis_is_refused(nt, ns):
    # the constant homotopy at the origin; there is no spacing to
    # difference with on the axis of one value
    H = AHomotopy(make_tangent(1), np.linspace(0.0, 1.0, nt),
                  np.linspace(0.0, 1.0, ns), np.zeros((nt, ns, 1)),
                  np.zeros((nt, ns, 1)), np.zeros((nt, ns, 1)))
    with pytest.raises(ValueError, match=f"an A-homotopy needs at least 2 "
                       f"t values and 2 s values, got {nt} and {ns}"):
        homotopy_residual(H)


def test_homotopy_endpoints_enforced():
    A = make_tangent(1)
    with pytest.raises(AlgebroidError, match="beta"):
        AHomotopy.from_functions(
            A, lambda t, s: [t * (1 + s)], lambda t, s: [1 + s],
            lambda t, s: [t], nt=20, ns=20)


@pytest.mark.parametrize("field, t, message", [
    ("beta", 0.0, "beta must vanish"), ("beta", 1.0, "beta must vanish"),
    ("x", 0.0, "endpoints must be constant"),
    ("x", 1.0, "endpoints must be constant")])
def test_homotopy_endpoints_reject_nan(field, t, message):
    # the constant homotopy at the origin, with one nan at t = 0 or 1
    def sample(name):
        def fn(tt, s):
            return [math.nan if (name, tt, s) == (field, t, 0.5) else 0.0]
        return fn
    with pytest.raises(AlgebroidError, match=message):
        AHomotopy.from_functions(make_tangent(1), sample("x"), sample("eta"),
                                 sample("beta"), nt=4, ns=4)


def test_homotopy_csv_round_trip():
    H = sine_homotopy(20, 20)
    buf = io.StringIO()
    H.write_csv(buf)
    buf.seek(0)
    H2 = read_ahomotopy_csv(buf, H.algebroid)
    assert np.array_equal(H2.x, H.x)
    assert np.array_equal(H2.eta, H.eta)
    assert np.array_equal(H2.beta, H.beta)


# ------------------------------------------------------------ development

def quarter_turn_path(grid=1000):
    A = make_lie_algebra(np.zeros((1, 1, 1)))
    times = np.linspace(0.0, 1.0, grid + 1)
    base = np.zeros((grid + 1, 1))
    eta = np.full((grid + 1, 1), math.pi / 2.0)
    return APath(A, times, base, eta)


def test_develop_so2_quarter_turn_matches_expm():
    g = quarter_turn_path()
    mp = develop(SO2_BASIS, g)
    assert np.max(np.abs(mp.endpoint - QUARTER_TURN)) <= 1e-8


def so3_action():
    """so(3) acting on R^3: the anchor takes e_a to the field -E_a x, and
    the bracket is the structure constants of the E_a."""
    xs = [ex.Var(f"x{j + 1}") for j in range(3)]
    anchor = [[ex.dot([ex.Const(-E[i, j]) for j in range(3)], xs)
               for E in SO3_BASIS] for i in range(3)]
    c = so3_constants()
    bracket = {(d, a, b): ex.Const(c[d, a, b]) for d in range(3)
               for a in range(3) for b in range(a + 1, 3) if c[d, a, b]}
    return LieAlgebroid(3, 3, anchor, bracket)


def test_an_so3_action_path_ends_at_the_inverse_development():
    # x' = -xi(t) x and gamma' = gamma xi(t), xi = eta^a E_a, keep gamma x
    # constant: the A-path from x0 ends at gamma(1)^-1 x0. develop
    # interpolates eta linearly, so the two meet to C h^2. C = 0.2 bounds
    # err / h^2 = 0.1645 measured at N = 500, 1000 and 2000 on another
    # section, (sin 2t, t^2 - 1, 0.7 + t) from (-0.5, 0.2, 0.6).
    A = so3_action()
    samples = sample_points(A, 20, Draws(0))
    assert check_axioms(A, samples).max_residual() == 0.0
    x0 = np.array([0.3, -0.4, 0.8])
    s = SectionTD.from_strings(A, ["1 + t", "cos(3*t)", "0.5 - t^2"])
    g = integrate_apath(A, s, x0, grid_size=1000)
    gamma = develop(SO3_BASIS, g).endpoint
    assert np.max(np.abs(g.target - np.linalg.solve(gamma, x0))) <= 0.2e-6
    # acting on the other side misses by far
    assert np.max(np.abs(g.target - gamma @ x0)) > 1.0


def test_an_apath_over_a_point_carries_its_section_and_develops():
    # over R^0 the flow keeps no state: the A-path's eta is s(t_k) at every
    # sample, and develop takes it like any path over a point
    A = LieAlgebroid(0, 1, [], {})
    quarter = SectionTD(A, [ex.Const(math.pi / 2.0)])
    g = integrate_apath(A, quarter, [])
    assert g.completed and g.base.shape == (1001, 0)
    assert g.eta.tolist() == [[math.pi / 2.0]] * 1001
    assert np.max(np.abs(develop(SO2_BASIS, g).endpoint
                         - QUARTER_TURN)) <= 1e-8

    A = LieAlgebroid(0, 2, [], {})
    s = SectionTD.from_strings(A, ["sin(3*t)", "t^2 - 1"])
    g = integrate_apath(A, s, [], grid_size=50)
    assert g.completed and g.base.shape == (51, 0)
    assert g.eta.tobytes() == np.array([s(t, []) for t in g.times]).tobytes()


def test_an_ahomotopy_over_a_point_builds_and_round_trips_bitwise():
    # over R^0 the base endpoints have no coordinate that could drift
    A = LieAlgebroid(0, 1, [], {})
    H = AHomotopy.from_functions(
        A, lambda t, s: [],
        lambda t, s: [-0.0 if s == 0.0 else math.sin(t + s)],
        lambda t, s: [s * math.sin(math.pi * t)], nt=5, ns=4)
    assert H.x.shape == (6, 5, 0)
    back = round_trip(H, lambda f: read_ahomotopy_csv(f, A))
    for field in ("t_grid", "s_grid", "x", "eta", "beta"):
        assert same_bits(getattr(back, field), getattr(H, field))


def test_develop_rejects_rank_mismatch():
    g = quarter_turn_path(10)
    with pytest.raises(AlgebroidError, match="rank"):
        develop(SO3_BASIS, g)


@pytest.mark.parametrize("basis, message", [
    (SO3_BASIS, "rank mismatch: 3 basis matrices for rank 1"),
    ([np.zeros((2, 3))], "basis matrices must share a square shape")])
def test_a_basis_that_does_not_fit_the_path_is_bad_input(basis, message):
    # a ValueError too, which the CLI reports as a usage error (exit 2)
    with pytest.raises(BasisError, match=message) as info:
        develop(basis, quarter_turn_path(10))
    assert isinstance(info.value, ValueError)


def test_log_derivative_develop_round_trip_so3():
    A = make_lie_algebra(so3_constants())
    rng = np.random.default_rng(4)
    coeff = rng.normal(size=(3, 3))
    times = np.linspace(0.0, 1.0, 1001)
    eta = np.stack([np.polyval(coeff[a], times) for a in range(3)], axis=1)
    g = APath(A, times, np.zeros((1001, 1)), eta)
    mp = develop(SO3_BASIS, g)
    back = log_derivative(mp, SO3_BASIS, algebroid=A)
    assert np.max(np.abs(np.asarray(back.eta) - eta)) <= 1e-4


def _numpy_develop(basis, g):
    """The former development, kept as the oracle: its own numpy RK4 loop
    on g's grid, eta linearly interpolated at the stage times."""
    times, eta = g.times, g.eta

    def omega(t):
        w = (t - times[0]) / (times[-1] - times[0]) * (len(times) - 1)
        k = min(int(w), len(times) - 2)
        ev = (1.0 - (w - k)) * eta[k] + (w - k) * eta[k + 1]
        M = np.zeros_like(basis[0])
        for a, E in enumerate(basis):
            M += ev[a] * E
        return M

    gam = np.eye(len(basis[0]))
    out = [gam]
    for k in range(len(times) - 1):
        t, h = times[k], times[k + 1] - times[k]
        k1 = gam @ omega(t)
        k2 = (gam + 0.5 * h * k1) @ omega(t + 0.5 * h)
        k3 = (gam + 0.5 * h * k2) @ omega(t + 0.5 * h)
        k4 = (gam + h * k3) @ omega(t + h)
        gam = gam + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(gam)
    return np.array(out)


def test_develop_matches_the_numpy_loop():
    times = np.linspace(0.0, 1.0, 1001)
    so3 = make_lie_algebra(so3_constants())
    eta3 = np.stack([0.3 * np.sin(math.pi * times), -0.4 * times,
                     0.5 * np.cos(math.pi * times)], axis=1)
    for basis, g in ((SO2_BASIS, quarter_turn_path()),
                     (SO3_BASIS, APath(so3, times, np.zeros((1001, 1)),
                                       eta3))):
        mp = develop(basis, g)
        assert mp.times.tobytes() == g.times.tobytes()
        assert np.max(np.abs(mp.matrices - _numpy_develop(basis, g))) <= 1e-15


def test_develop_runs_on_flow(monkeypatch):
    import algpaths.apath as apath
    calls = []
    monkeypatch.setattr(apath, "flow",
                        lambda *a, **k: calls.append(1) or flow(*a, **k))
    develop(SO3_BASIS, APath(make_lie_algebra(so3_constants()),
                             np.linspace(0.0, 1.0, 11), np.zeros((11, 1)),
                             np.ones((11, 3))))
    assert len(calls) == 1


def test_a_development_that_goes_non_finite_raises():
    A = make_lie_algebra(np.zeros((1, 1, 1)))
    g = APath(A, np.linspace(0.0, 1.0, 11), np.zeros((11, 1)),
              np.full((11, 1), 10.0))
    with pytest.raises(AlgebroidError, match="not finite.*blowup"):
        develop([np.array([[1e300]])], g)


def test_develop_of_a_single_sample_is_the_identity():
    A = make_lie_algebra(np.zeros((1, 1, 1)))
    mp = develop(SO2_BASIS, APath(A, [0.0], [[0.0]], [[1.0]]))
    assert np.array_equal(mp.matrices, [np.eye(2)])


# eta_a(t) = a + b sin(w t + p) with |a|, |b| <= 1 and w <= 2 pi; the
# tolerance is criterion 10's
@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                          st.floats(0.0, 2.0 * math.pi),
                          st.floats(0.0, 2.0 * math.pi)),
                min_size=3, max_size=3))
def test_log_derivative_recovers_random_so3_developments(coeffs):
    A = make_lie_algebra(so3_constants())
    times = np.linspace(0.0, 1.0, 1001)
    eta = np.stack([a + b * np.sin(w * times + p)
                    for a, b, w, p in coeffs], axis=1)
    mp = develop(SO3_BASIS, APath(A, times, np.zeros((1001, 1)), eta))
    back = log_derivative(mp, SO3_BASIS, algebroid=A)
    assert np.max(np.abs(back.eta - eta)) <= 1e-4


def test_log_derivative_span_defect_raises():
    # gamma(t) = diag(e^t, 1): log-derivative diag(1, 0) is not in so(2)
    times = np.linspace(0.0, 1.0, 101)
    mats = np.stack([np.diag([math.exp(t), 1.0]) for t in times])
    with pytest.raises(AlgebroidError, match="span"):
        log_derivative(MatrixPath(times, mats), SO2_BASIS)


def test_log_derivative_names_the_first_singular_sample():
    times = np.linspace(0.0, 1.0, 101)
    mats = np.stack([np.eye(2)] * 101)
    mats[37] = mats[60] = np.zeros((2, 2))
    with pytest.raises(AlgebroidError, match=r"gamma\(t_37\) is singular"):
        log_derivative(MatrixPath(times, mats), SO2_BASIS)


@pytest.mark.parametrize("basis", [SO3_BASIS, [np.eye(1)], [np.eye(2, 3)]],
                         ids=["3x3", "1x1", "2x3"])
def test_log_derivative_refuses_a_basis_of_another_size(basis):
    times = np.linspace(0.0, 1.0, 11)
    mats = np.stack([np.eye(2)] * 11)
    shape = re.escape(str(basis[0].shape))
    with pytest.raises(ValueError, match=f"basis matrix of shape {shape} "
                                         f"for a path of 2 x 2 matrices"):
        log_derivative(MatrixPath(times, mats), basis)


def test_log_derivative_needs_five_samples():
    # checked before the first spacing is read, so one sample is refused
    # with the same message as three
    for count in (1, 3):
        times = np.linspace(0.0, 1.0, count)
        mats = np.stack([np.eye(2)] * count)
        with pytest.raises(ValueError, match=f"at least 5 samples, got "
                                             f"{count}$"):
            log_derivative(MatrixPath(times, mats), SO2_BASIS)


# ------------------------------------------------------------------- CSV

def test_apath_csv_round_trip():
    A = make_tangent(2)
    s = SectionTD.from_strings(A, ["x2", "-x1"])
    g = integrate_apath(A, s, [1.0, 0.0], grid_size=50)
    buf = io.StringIO()
    g.write_csv(buf)
    assert buf.getvalue().splitlines()[0] == "t,x1,x2,eta1,eta2"
    buf.seek(0)
    g2 = read_apath_csv(buf, A)
    assert np.array_equal(np.asarray(g2.base), np.asarray(g.base))
    assert np.array_equal(np.asarray(g2.eta), np.asarray(g.eta))
    assert g2.status == "completed"


def test_apath_base_must_stay_in_domain():
    A = make_tangent(1)
    D = type(A)(1, 1, [[ex.Const(1.0)]], {},
                domain=[ex.parse("1 - x1^2", ["x1"])])
    with pytest.raises(AlgebroidError, match="outside"):
        APath(D, [0.0, 1.0], [[0.0], [5.0]], [[1.0], [1.0]])


def test_an_apath_on_an_uneven_grid_is_refused():
    # x = t^2 sampled on the grid u^2: lifting it would pair the fiber
    # values with the times of a uniform grid
    B = make_tangent(1)
    u = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="time grid is not uniform"):
        APath(B, u ** 2, (u ** 2)[:, None], (2.0 * u)[:, None])
    with pytest.raises(ValueError, match="time grid is not uniform"):
        read_apath_csv(io.StringIO("t,x1,eta1\n0.0,0.0,0.0\n0.25,0.0,0.0\n"
                                   "1.0,0.0,0.0\n"), B)


def test_apath_csv_base_must_stay_in_domain():
    D = make_tangent(1, domain=[ex.parse("1 - x1^2", ["x1"])])
    with pytest.raises(AlgebroidError, match="outside"):
        read_apath_csv(io.StringIO("t,x1,eta1\n0.0,0.0,1.0\n1.0,5.0,1.0\n"),
                       D)


def test_apath_base_sample_at_a_zero_divisor_is_outside():
    # 1/x1 raises at x1 = 0 for a float; a numpy scalar would give inf > 0
    D = make_tangent(1, domain=[ex.parse("1/x1", ["x1"])])
    with pytest.raises(AlgebroidError, match=r"\(0\.0,\) is outside"):
        APath(D, [0.0, 0.5, 1.0], np.array([[1.0], [0.0], [1.0]]),
              [[1.0]] * 3)


@pytest.mark.parametrize("read, text, message", [
    (read_apath_csv, "t,x1,eta1\n0.0,0.0,1.0\n0.5,0.5\n1.0,1.0,1.0\n",
     "CSV row 2 has 2 cells, the header 3: 0.5,0.5"),
    (read_apath_csv, "t,x1,eta1\n0.0,0.0,1.0\n0.5,0.5,1.0,7.0\n",
     "CSV row 2 has 4 cells, the header 3"),
    (read_ahomotopy_csv, "t,s,x1,eta1,beta1\n" + "0.0,0.0,0.0,1.0,0.0\n" * 3
     + "1.0,1.0,1.0,1.0\n", "CSV row 4 has 4 cells, the header 5"),
], ids=["short", "long", "homotopy"])
def test_a_ragged_csv_row_is_named(read, text, message):
    with pytest.raises(ValueError, match=message):
        read(io.StringIO(text), make_tangent(1))


@pytest.mark.parametrize("read, header, names", [
    (lambda f: read_apath_csv(f, make_tangent(1)), "t,eta1,x1",
     "APath CSV header must be t,x1,eta1"),
    (lambda f: read_ahomotopy_csv(f, make_tangent(1)), "t,s,eta1,x1,beta1",
     "AHomotopy CSV header must be t,s,x1,eta1,beta1"),
    (read_matrix_csv, "t,a,b,c,d",
     "matrix-path CSV header must be t,g11,g12,g21,g22"),
], ids=["apath", "ahomotopy", "matrix"])
def test_a_csv_header_must_be_the_writers_names(read, header, names):
    # the right count of cells, under other names or in another order
    width = len(header.split(","))
    rows = "".join(",".join([repr(k / 2)] * width) + "\n" for k in range(3))
    with pytest.raises(ValueError, match=f"^{names}$"):
        read(io.StringIO(header + "\n" + rows))


def _rank2_algebroid():
    coords = ["x1", "x2"]
    anchor = [[ex.parse(e, coords) for e in row]
              for row in (["1", "x1"], ["x2^2", "cos(x1)"])]
    return LieAlgebroid(2, 2, anchor, {})


@pytest.mark.parametrize("section, status", [
    (["sin(3*t) - x2", "x1*exp(0 - t) + 1/3"], "completed"),
    (["5*x1^2 + t", "x1*x2/7"], "blowup"),
])
def test_integrated_eta_is_the_section_at_each_sample(section, status):
    # oracle: the flow of the field compiled on its own, and the section
    # evaluated point by point; the samples must agree to the bit
    A = _rank2_algebroid()
    s = SectionTD.from_strings(A, section)
    g = integrate_apath(A, s, [0.5, -0.25], grid_size=200, bound=1e3)
    traj = flow(A.flow_field(A.anchored_field(s.exprs)), [0.5, -0.25],
                (0.0, 1.0), step=1.0 / 200, bound=1e3)
    eta = [s(t, x) for t, x in zip(traj.times, traj.points)]
    assert g.status == traj.status == status
    assert g.ending.t_star == traj.ending.t_star
    assert np.array_equal(g.times, traj.times)
    assert np.array_equal(g.base, traj.points)
    assert np.array_equal(g.eta, np.asarray(eta))


def test_integrate_apath_compiles_once(monkeypatch):
    A = _rank2_algebroid()
    s = SectionTD.from_strings(A, ["x2", "t - x1"])
    compile_exprs, calls = ex.compile_exprs, []

    def counted(*args):
        calls.append(args)
        return compile_exprs(*args)

    monkeypatch.setattr(ex, "compile_exprs", counted)
    g = integrate_apath(A, s, [0.1, 0.2], grid_size=20)
    assert g.completed and len(calls) == 1


def test_integrated_samples_are_tested_against_the_domain_once():
    # the flow calls the predicate for x0 and tests every sample it keeps
    # inline; building the A-path from them tests none again
    D = make_tangent(2, domain=[ex.parse("4 - x1^2 - x2^2", ["x1", "x2"])])
    pred, calls = D.in_domain.fn, []
    D.in_domain.fn = lambda *x: calls.append(1) or pred(*x)
    D.in_domain.fn.body = pred.body
    g = integrate_apath(D, SectionTD.from_strings(D, ["x2", "-x1"]),
                        [1.0, 0.0], grid_size=50)
    assert g.completed and len(g.times) == 51
    assert len(calls) == 1


# CSV round trips must be exact for every finite float: negative zero,
# subnormals and the largest exponents included.
cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.225073858507201e-308,
                     1.7976931348623157e308, -1e-310]))


@st.composite
def tables(draw, rows, cols):
    flat = draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=float).reshape(rows, cols)


@st.composite
def grids(draw, size):
    t0 = draw(st.floats(-1e3, 1e3))
    h = draw(st.floats(1e-3, 1e3))
    return t0 + h * np.arange(size)


@st.composite
def outcomes(draw):
    """A flow's Ending: completed, or an escape with a finite t*."""
    status = draw(st.sampled_from(["completed", "blowup", "domain_exit"]))
    if status == "completed":
        return COMPLETED
    return Ending(status,
                  draw(st.floats(allow_nan=False, allow_infinity=False)))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def round_trip(obj, read):
    """Write obj, read it back with read(file), and check that writing the
    result gives the same text."""
    buf = io.StringIO()
    obj.write_csv(buf)
    text = buf.getvalue()
    back = read(io.StringIO(text))
    again = io.StringIO()
    back.write_csv(again)
    assert again.getvalue() == text
    return back


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(1, 3), st.data())
def test_trajectory_csv_round_trip_is_bitwise(size, n, data):
    times = data.draw(grids(size))
    # a flow's last step may be shorter than the others
    times[-1] = times[-2] + data.draw(st.floats(0.01, 1.0)) * (times[1]
                                                             - times[0])
    ending = data.draw(outcomes())
    traj = Trajectory(times, data.draw(tables(size, n)), ending)
    back = round_trip(traj, read_trajectory)
    assert same_bits(back.times, traj.times)
    assert same_bits(back.points, traj.points)
    assert repr(back.ending) == repr(ending)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(3, 6), st.integers(1, 3), st.data())
def test_apath_csv_round_trip_is_bitwise(size, n, data):
    A = make_tangent(n)
    ending = data.draw(outcomes())
    g = APath(A, data.draw(grids(size)), data.draw(tables(size, n)),
              data.draw(tables(size, n)), ending)
    back = round_trip(g, lambda f: read_apath_csv(f, A))
    for field in ("times", "base", "eta"):
        assert same_bits(getattr(back, field), getattr(g, field))
    assert repr(back.ending) == repr(ending)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 2), st.data())
def test_ahomotopy_csv_round_trip_is_bitwise(nt, ns, n, data):
    A = make_tangent(n)
    x = data.draw(tables(nt * ns, n)).reshape(nt, ns, n)
    x[0] = x[0, 0]
    x[-1] = x[-1, 0]
    beta = data.draw(tables(nt * ns, n)).reshape(nt, ns, n)
    beta[0] = data.draw(st.sampled_from([0.0, -0.0, 5e-324]))
    beta[-1] = -0.0
    H = AHomotopy(A, data.draw(grids(nt)), data.draw(grids(ns)), x,
                  data.draw(tables(nt * ns, n)).reshape(nt, ns, n), beta)
    back = round_trip(H, lambda f: read_ahomotopy_csv(f, A))
    for field in ("t_grid", "s_grid", "x", "eta", "beta"):
        assert same_bits(getattr(back, field), getattr(H, field))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(1, 3), st.data())
def test_matrix_path_csv_round_trip_is_bitwise(size, m, data):
    mp = MatrixPath(data.draw(grids(size)),
                    data.draw(tables(size, m * m)).reshape(size, m, m))
    back = round_trip(mp, read_matrix_csv)
    assert same_bits(back.times, mp.times)
    assert same_bits(back.matrices, mp.matrices)
