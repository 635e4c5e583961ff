import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from algpaths import expr as ex
from algpaths.algebroid import (AlgebroidError, LieAlgebroid, SectionTD,
                                make_lie_algebra, make_tangent)
from algpaths.apath import (AHomotopy, APath, MatrixPath,
                            admissibility_residual, concat, constant_apath,
                            develop, homotopy_residual, integrate_apath,
                            log_derivative, read_apath_csv,
                            read_ahomotopy_csv, read_matrix_csv)
from algpaths.numkernel import Trajectory, flow, read_trajectory_csv


def so3_constants():
    c = np.zeros((3, 3, 3))
    for d, a, b in ((2, 0, 1), (0, 1, 2), (1, 2, 0)):
        c[d, a, b] = 1.0
        c[d, b, a] = -1.0
    return c


SO2_BASIS = [np.array([[0.0, -1.0], [1.0, 0.0]])]
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
    assert g.t_event == pytest.approx(0.5, rel=0.05)   # 1 / x0


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


# ----------------------------------------------------------------- concat

def test_concat_l_shape():
    A = make_tangent(2)
    right = integrate_apath(A, SectionTD.from_strings(A, ["1", "0"]),
                            [0.0, 0.0], grid_size=100)
    up = integrate_apath(A, SectionTD.from_strings(A, ["0", "1"]),
                         [1.0, 0.0], grid_size=100)
    g = concat(right, up)
    assert list(g.source) == [0.0, 0.0]
    assert g.target == pytest.approx([1.0, 1.0], abs=1e-12)
    assert len(g.times) == 201
    assert g.junctions == frozenset({100})
    # the junction sample carries the second path's (time-scaled) fiber
    assert g.eta[100] == pytest.approx([0.0, 2.0])
    # concatenated path is admissible away from the junction
    assert admissibility_residual(g) <= 1e-3


def test_concat_requires_matching_endpoints():
    A = make_tangent(1)
    g1 = constant_apath(A, [0.0], grid_size=10)
    g2 = constant_apath(A, [1.0], grid_size=10)
    with pytest.raises(AlgebroidError, match="endpoint"):
        concat(g1, g2)


def test_constant_apath_has_zero_eta():
    A = make_tangent(2)
    g = constant_apath(A, [0.3, -0.4], grid_size=10)
    assert np.all(np.asarray(g.eta) == 0.0)
    assert admissibility_residual(g) <= 1e-12   # stencil FP noise only


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
    exact = expm((math.pi / 2.0) * SO2_BASIS[0])
    assert np.max(np.abs(mp.endpoint - exact)) <= 1e-8


def test_develop_rejects_rank_mismatch():
    g = quarter_turn_path(10)
    with pytest.raises(AlgebroidError, match="rank"):
        develop(SO3_BASIS, g)


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


def test_log_derivative_span_defect_raises():
    # gamma(t) = diag(e^t, 1): log-derivative diag(1, 0) is not in so(2)
    times = np.linspace(0.0, 1.0, 101)
    mats = np.stack([np.diag([math.exp(t), 1.0]) for t in times])
    with pytest.raises(AlgebroidError, match="span"):
        log_derivative(MatrixPath(times, mats), SO2_BASIS)


def test_log_derivative_needs_five_samples():
    times = np.linspace(0.0, 1.0, 3)
    mats = np.stack([np.eye(2)] * 3)
    with pytest.raises(AlgebroidError):
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


def test_apath_csv_base_must_stay_in_domain():
    D = make_tangent(1, domain=[ex.parse("1 - x1^2", ["x1"])])
    with pytest.raises(AlgebroidError, match="outside"):
        read_apath_csv(io.StringIO("t,x1,eta1\n0.0,0.0,1.0\n1.0,5.0,1.0\n"),
                       D)


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
    assert g.t_event == traj.t_event
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
    # the flow tests x0 and every sample it keeps; building the A-path
    # from them tests none again
    D = make_tangent(2, domain=[ex.parse("4 - x1^2 - x2^2", ["x1", "x2"])])
    test, calls = D.in_domain, []
    D.in_domain = lambda x: calls.append(1) or test(x)
    g = integrate_apath(D, SectionTD.from_strings(D, ["x2", "-x1"]),
                        [1.0, 0.0], grid_size=50)
    assert g.completed
    assert len(calls) == len(g.times) == 51


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
    """A flow status with its event time: completed, or an escape."""
    status = draw(st.sampled_from(["completed", "blowup", "domain_exit"]))
    if status == "completed":
        return status, None
    return status, draw(st.floats(allow_nan=False, allow_infinity=False))


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
    status, t_event = data.draw(outcomes())
    traj = Trajectory(times, data.draw(tables(size, n)), status, t_event)
    back = round_trip(traj, read_trajectory_csv)
    assert same_bits(back.times, traj.times)
    assert same_bits(back.points, traj.points)
    assert (back.status, back.t_event) == (status, t_event)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(3, 6), st.integers(1, 3), st.data())
def test_apath_csv_round_trip_is_bitwise(size, n, data):
    A = make_tangent(n)
    status, t_event = data.draw(outcomes())
    g = APath(A, data.draw(grids(size)), data.draw(tables(size, n)),
              data.draw(tables(size, n)), status, t_event)
    back = round_trip(g, lambda f: read_apath_csv(f, A))
    for field in ("times", "base", "eta"):
        assert same_bits(getattr(back, field), getattr(g, field))
    assert (back.status, back.t_event) == (status, t_event)


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
