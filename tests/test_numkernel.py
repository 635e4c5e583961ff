import ast
import copy
import gc
import io
import math
import re
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algpaths import cli, numkernel
from algpaths import expr as ex
from algpaths.algebroid import LieAlgebroid
from algpaths.apath import AHomotopy, read_apath_csv
from algpaths.expr import Domain
from algpaths.numkernel import (COMPLETED, Ending, FlowError, Trajectory,
                                VectorFieldTD, check_uniform_grid, flow,
                                read_csv, read_csv_rows, write_csv_rows)


def compiled_field(sources, domain=(), coords=("x1",)):
    names = ["t", *coords]
    fn = ex.compile_exprs([ex.parse(s, names) for s in sources], names)
    dom = ex.domain_predicate([ex.parse(s, list(coords)) for s in domain],
                              list(coords))
    return VectorFieldTD(len(coords), fn, dom)


def exp_field():
    return compiled_field(["x1"])


def test_flow_exponential_accuracy():
    traj = flow(exp_field(), [1.0], (0.0, 1.0), step=1e-3)
    assert traj.completed
    assert traj.endpoint[0] == pytest.approx(math.e, abs=1e-12)
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)


def endpoint_order(vf, x0, t_span, step):
    """Observed RK4 order by step halving: log2 of the ratio of the
    endpoint errors at step h and h/2, each against the run at h/4, or
    "exact" when both vanish."""
    ends = []
    for h in (step, step / 2.0, step / 4.0):
        traj = flow(vf, x0, t_span, step=h)
        assert traj.completed
        ends.append(traj.endpoint)
    err_h, err_h2 = (float(np.linalg.norm(e - ends[2])) for e in ends[:2])
    if err_h == 0.0 and err_h2 == 0.0:
        return "exact"
    return math.log2(err_h / err_h2)


def test_flow_is_fourth_order():
    p = endpoint_order(exp_field(), [1.0], (0.0, 1.0), step=0.05)
    assert 3.5 <= p <= 4.5


def test_flow_endpoint_order_exact_field():
    vf = compiled_field(["2.0"])                  # RK4 integrates it exactly
    assert endpoint_order(vf, [0.0], (0.0, 1.0), step=0.1) == "exact"


def test_reversed_time_span_rejected():
    # the kernel's contract is forward integration only
    with pytest.raises(FlowError, match="t_b > t_a"):
        flow(exp_field(), [1.0], (1.0, 0.0), step=1e-3)


def test_blowup_reports_grid_time_near_one_over_x0():
    vf = compiled_field(["x1^2"])
    traj = flow(vf, [1.0], (0.0, 2.0), step=1e-3, bound=1e6)
    assert traj.status == "blowup"
    assert abs(traj.ending.t_star - 1.0) <= 0.01         # within 1% of 1/x0
    assert not traj.completed
    assert str(traj.ending) == f"blowup(t*={traj.ending.t_star!r})"


def test_domain_exit_is_bisected_to_nanoseconds():
    vf = compiled_field(["1.0"], domain=["1.0 - x1"])
    traj = flow(vf, [0.0], (0.0, 2.0), step=1e-3)
    assert traj.status == "domain_exit"
    assert traj.ending.t_star == pytest.approx(1.0, abs=1e-8)
    assert traj.points[-1][0] < 1.0                 # last point still inside


def test_stage_failure_becomes_domain_exit_when_domain_explains_it():
    # 1/(0.5 - x) from 0 reaches x = 0.5 at t = 1/8 ((0.5 - x)^2 = 1/4 - 2t);
    # the stage failure there is explained by the domain predicate
    vf = compiled_field(["1.0 / (0.5 - x1)"], domain=["0.5 - x1"])
    traj = flow(vf, [0.0], (0.0, 1.0), step=1e-4)
    assert traj.status == "domain_exit"
    assert traj.ending.t_star == pytest.approx(0.125, abs=1e-3)


def test_stage_failure_without_domain_is_blowup():
    vf = compiled_field(["sqrt(0.25 - x1)"])
    traj = flow(vf, [0.0], (0.0, 2.0), step=1e-3)
    assert traj.status == "blowup"
    assert traj.ending.t_star is not None


def test_flow_rejects_bad_inputs():
    with pytest.raises(FlowError):
        flow(exp_field(), [1.0], (0.0, 0.0))
    with pytest.raises(FlowError):
        flow(exp_field(), [math.nan], (0.0, 1.0))
    with pytest.raises(FlowError):
        flow(exp_field(), [1.0, 2.0], (0.0, 1.0))   # dimension mismatch
    vf = compiled_field(["1.0"], domain=["-x1"])
    with pytest.raises(FlowError):
        flow(vf, [1.0], (0.0, 1.0))                 # starts outside


@pytest.mark.parametrize("x0, message", [
    ([1.0, 2.0], r"x0 has 2 components, the field needs 1"),
    ([], r"x0 has 0 components, the field needs 1"),
    ([math.nan], r"x0 is not finite"), ([-math.inf], r"x0 is not finite")])
def test_a_start_that_is_no_point_of_the_domain_is_a_start_error(x0,
                                                                 message):
    # bad input, which the CLI reports with exit 2, as a start outside
    # the domain, not an escape
    vf = compiled_field(["1.0"], domain=["x1"])
    for lanes in ([x0], [[0.5], x0]):
        with pytest.raises(numkernel.StartError, match=message):
            numkernel.flow_lanes(vf, lanes, (0.0, 1.0), 0.1)


def test_a_generated_loop_keeps_the_source_it_runs():
    from algpaths.ehresmann import ExampleConnection
    conn = ExampleConnection(1.0 / 3.0)
    for vf, tabulated in ((exp_field(), False),
                          (conn.source.flow_field(conn._lift_field), True)):
        loop = numkernel._rk4_loop(vf, tabulated)
        scope = dict(ex.SOURCE_GLOBALS)
        exec(compile(loop.source, "<rk4 loop>", "exec"), scope)
        code = scope["rk4_loop"].__code__
        assert (code.co_code, code.co_consts) == (loop.__code__.co_code,
                                                  loop.__code__.co_consts)


@pytest.mark.parametrize("step, bound", [
    (math.nan, 1e8), (0.0, 1e8), (-1e-3, 1e8), (1e-3, math.nan),
    (1e-3, 0.0), (1e-3, -math.inf)])
def test_flow_refuses_a_step_or_bound_that_is_not_positive(step, bound):
    with pytest.raises(FlowError, match="step and bound must be positive"):
        flow(exp_field(), [1.0], (0.0, 1.0), step=step, bound=bound)


def test_an_infinite_bound_is_no_bound():
    traj = flow(exp_field(), [1.0], (0.0, 1.0), step=1e-2, bound=math.inf)
    assert traj.completed
    assert traj.endpoint[0] == pytest.approx(math.e, rel=1e-8)


def test_flow_respects_norm_bound():
    traj = flow(exp_field(), [1.0], (0.0, 30.0), step=1e-2, bound=100.0)
    assert traj.status == "blowup"
    assert traj.ending.t_star == pytest.approx(math.log(100.0), abs=0.05)


def test_time_dependent_field():
    vf = compiled_field(["2.0 * t"])
    traj = flow(vf, [0.0], (0.0, 1.0), step=1e-3)
    assert traj.endpoint[0] == pytest.approx(1.0, abs=1e-12)


def read_trajectory(f):
    """A trajectory CSV as `Trajectory.write_csv` writes it: the header
    t,x1..xn, the rows and the '# status=' trailer."""
    rows, ending = read_csv(
        f, lambda header: Trajectory.columns(len(header) - 1), "trajectory")
    return Trajectory(rows[:, 0], rows[:, 1:], ending)


def test_csv_round_trip_exact():
    vf = compiled_field(["x2", "-x1"], coords=("x1", "x2"))
    traj = flow(vf, [1.0, 0.0], (0.0, 1.0), step=0.01)
    buf = io.StringIO()
    traj.write_csv(buf)
    buf.seek(0)
    back = read_trajectory(buf)
    assert back.status == traj.status
    assert np.array_equal(np.asarray(back.times), np.asarray(traj.times))
    assert np.array_equal(np.asarray(back.points), np.asarray(traj.points))


def test_csv_round_trip_keeps_event_status():
    vf = compiled_field(["x1^2"])
    traj = flow(vf, [1.0], (0.0, 2.0), step=1e-2, bound=1e6)
    buf = io.StringIO()
    traj.write_csv(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,x1"
    assert "# status=blowup(t*=" in text
    buf.seek(0)
    back = read_trajectory(buf)
    assert back.status == "blowup"
    assert back.ending.t_star == pytest.approx(traj.ending.t_star, abs=0)


def test_csv_round_trip_keeps_a_short_last_step():
    vf = compiled_field(["1.0"])
    traj = flow(vf, [0.0], (0.0, 0.25), step=0.1)     # steps .1 .1 .05
    buf = io.StringIO()
    traj.write_csv(buf)
    buf.seek(0)
    assert np.array_equal(read_trajectory(buf).times, traj.times)


@pytest.mark.parametrize("text, message", [
    ("t,x1\n0.0,1.0\n0.1,nan\n0.2,1.0\n", "non-finite"),
    ("t,x1\n0.0,1.0\n0.1,1.0\ninf,1.0\n", "non-finite"),
    ("t,x1\n0.0,1.0\n0.1,1.0\n0.3,1.0\n0.4,1.0\n", "not uniform"),
    ("t,x1\n0.0,1.0\n0.1,1.0\n0.1,1.0\n", "not uniform"),
    ("t,x1\n# status=completed\n", "no data rows"),
    ("x1\n0.0\n", "header"),
    ("t,y,zz\n0.0,1.0,2.0\n0.1,1.0,2.0\n", "CSV header must be t,x1,x2$"),
    # trailers that Ending.parse refuses, named in the message
    ("t,x1\n0.0,1.0\n0.1,1.0\n# status=bogus\n", "ending 'bogus' is not"),
    ("t,x1\n0.0,1.0\n0.1,1.0\n# status=blowup\n", "ending 'blowup' is not"),
    ("t,x1\n0.0,1.0\n# status=completed(t*=0.5)\n0.1,1.0\n",
     r"ending 'completed\(t\*=0.5\)' is not"),
    ("t,x1\n0.0,1.0\n0.1,1.0\n# status=domain_exit(t*=nan)\n",
     r"ending 'domain_exit\(t\*=nan\)' is not"),
    ("t,x1\n0.0,1.0\n0.1,1.0\n# status=domain_exit(t*=inf)\n",
     r"ending 'domain_exit\(t\*=inf\)' is not"),
    ("t,x1\n0.0,1.0\n0.1,1.0\n# status=blowup(t*=0.5\n",
     r"ending 'blowup\(t\*=0.5' is not"),
])
def test_trajectory_csv_rejects_bad_input(text, message):
    # read as an A-path of the rank-0 algebroid on R^n, whose header is a
    # trajectory's, t,x1..xn, with n one less than the header's cells
    n = max(text.split("\n")[0].count(","), 1)
    A = LieAlgebroid(n, 0, [[]] * n)
    with pytest.raises(ValueError, match=message):
        read_apath_csv(io.StringIO(text), A)


def test_an_uneven_grid_is_named_by_plain_numbers():
    # a t cell of 10.0 where 0.005 belongs: numpy scalars printed their
    # repr, np.float64(...)
    with pytest.raises(ValueError) as e:
        check_uniform_grid([0.0, 0.005, 10.005, 0.01])
    assert str(e.value) == ("time grid is not uniform (spacings from "
                            "-9.995000000000001 to 10.0)")


@pytest.mark.parametrize("ending, text", [
    (COMPLETED, "completed"),
    (Ending("blowup", 1.0010000000000001), "blowup(t*=1.0010000000000001)"),
    (Ending("domain_exit", -0.0), "domain_exit(t*=-0.0)"),
])
def test_an_ending_prints_its_trailer_and_parses_back(ending, text):
    assert str(ending) == text
    assert repr(Ending.parse(text)) == repr(ending)
    assert list(ending._asdict().items()) == [("status", ending.status),
                                              ("t_star", ending.t_star)]


def test_csv_row_count_is_capped_where_it_is_read(monkeypatch):
    assert numkernel.MAX_COUNT == cli.MAX_COUNT == 1_000_000
    monkeypatch.setattr(numkernel, "MAX_COUNT", 100)
    rows, _ = read_csv_rows(io.StringIO("0.5,1.0\n" * 101), 2)
    assert len(rows) == 101
    served = []

    def endless():
        yield "# a comment\n"
        while True:
            served.append(1)
            yield "0.5,1.0\n"

    with pytest.raises(ValueError, match="more than 101 data rows"):
        read_csv_rows(endless(), 2)
    # the reader stops at the first row too many
    assert len(served) == 102


def _row_loop_reader(f, width):
    """The former reader: one float() per cell, row by row; the oracle of
    read_csv_rows, whose rows numpy's loadtxt parses. Each '# status='
    trailer is read by Ending.parse once the rows are checked."""
    rows, trailers = [], []
    for line in f:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            text = line[1:].lstrip()
            if text.startswith("status="):
                trailers.append(text[len("status="):])
            continue
        if len(rows) > numkernel.MAX_COUNT:
            raise ValueError(f"CSV has more than {numkernel.MAX_COUNT + 1} "
                             f"data rows")
        rows.append(list(map(float, line.split(","))))
    if not rows:
        raise ValueError("CSV has no data rows")
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"CSV row {k + 1} has {len(row)} cells, the "
                             f"header {width}: {','.join(map(repr, row))}")
    table = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if len(bad):
        raise ValueError(f"CSV row {bad[0] + 1} has a non-finite value: "
                         f"{','.join(map(repr, rows[bad[0]]))}")
    ending = COMPLETED
    for text in trailers:
        ending = Ending.parse(text)
    return table, ending


def _read_outcome(reader, text, width):
    try:
        table, ending = reader(io.StringIO(text), width)
    except ValueError as e:
        return "raises", str(e)
    return table.shape, table.tobytes(), repr(ending)


CSV_LINES = ["0.5,1.0", "-0.0,5e-324", " 1e16 , 2.5e-308 ", "0.1,0.2,0.3",
             "7", "nan,1.0", "1.0,-inf", "1e400,0", "1_0,2", "abc,1",
             "1.0,", "1.0,2.0 # note", "", "   ", "# a comment",
             "# status=completed", "# status=blowup(t*=0.5)",
             "# status=domain_exit(t*=x)", "#status=blowup",
             "#  status=domain_exit(t*=-0.0)", "# status=bogus",
             "# status=completed(t*=0.5)", "# status=blowup(t*=inf)",
             "# statuses"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(CSV_LINES), max_size=8),
       st.sampled_from([1, 2, 3]), st.sampled_from(["\n", "\r\n"]))
def test_csv_reader_matches_the_row_loop(lines, width, newline):
    text = newline.join(lines) + newline
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numkernel, "MAX_COUNT", 4)      # so that caps are hit
        assert (_read_outcome(read_csv_rows, text, width)
                == _read_outcome(_row_loop_reader, text, width))


# ---------------------------------------------------- kernel equivalence --
# flow's stepping loop is generated per field, with the field's compiled
# body written into each stage; the reference below is the plain per-step
# RK4 loop it replaced, kept as the oracle. It calls the field once per
# stage, with the time or, given a table, with rows 2k, 2k+1, 2k+1, 2k+2
# of the table at step k. Each case runs flow with a field that fails
# when called (`_uncalled`) and compares it bit for bit with the
# reference.

def _reference_flow(vf, x0, t_span, step=1e-3, bound=1e8, table=None):
    t_a, t_b, step = float(t_span[0]), float(t_span[1]), float(step)
    x = [float(v) for v in x0]
    assert vf.in_domain(x)
    finite = lambda v: all(math.isfinite(a) for a in v)

    def norm(v):
        acc = 0                       # left to right, on every Python
        for a in v:
            acc = acc + a * a
        return math.sqrt(acc)

    n_steps = max(1, math.ceil((t_b - t_a) / step * (1.0 - 1e-12)))
    times, points = [t_a], [list(x)]
    t = t_a

    def f(k, row, t, *x):
        if table is None:
            return vf.fn(t, *x)
        return vf.fn(*table[2 * k + row], *x)

    for k in range(n_steps):
        t_next = t_b if k == n_steps - 1 else t_a + (k + 1) * step
        h = t_next - t
        try:
            k1 = f(k, 0, t, *x)
            k2 = f(k, 1, t + 0.5 * h,
                   *[xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
            k3 = f(k, 1, t + 0.5 * h,
                   *[xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
            k4 = f(k, 2, t + h, *[xi + h * ki for xi, ki in zip(x, k3)])
            x_next = [xi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                      for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
            stage_ok = finite(k1) and finite(x_next)
        except (ArithmeticError, ValueError):
            stage_ok = False
            k1 = None
        if not stage_ok:
            if k1 is not None and finite(k1):
                x_pred = [xi + h * ki for xi, ki in zip(x, k1)]
                if finite(x_pred) and not vf.in_domain(x_pred):
                    t_star = numkernel._bisect_exit(vf, t, x, t_next, x_pred)
                    return Trajectory(times, points,
                                      Ending("domain_exit", t_star))
            return Trajectory(times, points, Ending("blowup", t_next))
        if not vf.in_domain(x_next):
            t_star = numkernel._bisect_exit(vf, t, x, t_next, x_next)
            return Trajectory(times, points, Ending("domain_exit", t_star))
        if norm(x_next) > bound:
            return Trajectory(times, points, Ending("blowup", t_next))
        t, x = t_next, x_next
        times.append(t)
        points.append(list(x))
    return Trajectory(times, points)


def _uncalled(fn):
    """A callable that carries fn's kept body and fails when called."""
    def uncalled(*args):
        raise AssertionError("a fused loop called its field")

    uncalled.body = fn.body
    return uncalled


def assert_same_fused_flow(vf, x0, t_span, step, bound=1e8, table=None):
    """flow, run with a field that must not be called, and the reference,
    which calls it once per stage, give the same bits."""
    fused = copy.copy(vf)
    fused.fn = _uncalled(vf.fn)
    got = flow(fused, x0, t_span, step=step, bound=bound, table=table)
    ref = _reference_flow(vf, x0, t_span, step=step, bound=bound,
                          table=table)
    assert got.times.tobytes() == ref.times.tobytes()
    assert got.points.tobytes() == ref.points.tobytes()
    assert repr(got.ending) == repr(ref.ending)
    return got


def linear_field(A, b=None, time_dependent=False, domain=()):
    """x' = w (A x) + b, compiled, with w = cos(3 t) or 1, on the set
    where the domain sources are positive."""
    n = len(A)
    coords = [f"x{i + 1}" for i in range(n)]
    b = [0.0] * n if b is None else list(b)
    w = (ex.fun("cos", ex.mul(ex.Const(3.0), ex.Var("t"))) if time_dependent
         else ex.Const(1.0))
    rows = [ex.add(ex.mul(w, ex.dot([ex.Const(a) for a in row],
                                    [ex.Var(v) for v in coords])),
                   ex.Const(bi))
            for row, bi in zip(np.asarray(A, dtype=float).tolist(), b)]
    dom = ex.domain_predicate([ex.parse(s, coords) for s in domain], coords)
    return VectorFieldTD(n, ex.compile_exprs(rows, ["t", *coords]), dom)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("time_dependent", [False, True])
def test_flow_matches_the_reference_loop(n, time_dependent):
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n))
    b = rng.normal(size=n)
    vf = linear_field(A, b, time_dependent)
    traj = assert_same_fused_flow(vf, rng.normal(size=n), (0.0, 1.0), 0.01)
    assert traj.completed and len(traj.times) == 101


def test_span_that_is_not_a_whole_number_of_steps():
    vf = linear_field([[0.0, 1.0], [-1.0, 0.0]], time_dependent=True)
    traj = assert_same_fused_flow(vf, [1.0, 0.0], (0.25, 1.3), 0.1)
    assert traj.times[-1] == 1.3 and len(traj.times) == 12


def test_norm_bound_matches_the_reference():
    vf = linear_field([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 2.0]])
    traj = assert_same_fused_flow(vf, [1.0, -1.0, 0.5], (0.0, 10.0), 0.01,
                                  bound=50.0)
    assert traj.status == "blowup"


def test_non_finite_stage_matches_the_reference():
    # past x1 = 0.55 the first value overflows to inf without raising;
    # with no bound, only a value that is not finite stops the flow
    vf = compiled_field(["1 + estep(x1 - 0.55) * 1e308 * 1e308", "-x2"],
                        coords=("x1", "x2"))
    traj = assert_same_fused_flow(vf, [0.0, 1.0], (0.0, 2.0), 0.1,
                                  bound=math.inf)
    assert traj.status == "blowup"
    assert traj.ending.t_star == pytest.approx(0.6)


@pytest.mark.parametrize("domain", [(), ("0.5 - x1",)],
                         ids=["None", "domain"])
def test_raising_stage_matches_the_reference(domain):
    # sqrt raises ValueError past x1 = 0.5; a stage that raises is a
    # blowup even when the domain would explain it
    vf = compiled_field(["1 + sqrt(0.5 - x1)"], domain)
    traj = assert_same_fused_flow(vf, [0.0], (0.0, 2.0), 0.07)
    assert traj.status == "blowup"


def test_euler_predictor_domain_exit_matches_the_reference():
    # k1 is finite, a later stage is not (it overflows past x1 = 1), and
    # the Euler predictor leaves the domain x1 < 1: the step's failure is
    # a domain exit
    vf = compiled_field(["1 + estep(x1 - 1) * 1e308 * 1e308"], ["1 - x1"])
    traj = assert_same_fused_flow(vf, [0.0], (0.0, 3.0), 0.3)
    assert traj.status == "domain_exit"
    assert traj.ending.t_star == pytest.approx(1.0, abs=1e-8)


def test_bisected_domain_exit_matches_the_reference():
    vf = linear_field([[0.0, -1.0], [1.0, 0.0]], domain=["0.9 - x2"])
    traj = assert_same_fused_flow(vf, [1.0, 0.0], (0.0, 3.0), 0.05)
    assert traj.status == "domain_exit"
    # the chord of the last step crosses within O(step^2) of the curve
    assert traj.ending.t_star == pytest.approx(math.asin(0.9), abs=1e-3)


# The loop's guard: it binds s = y0 * y0 + ..., tests finiteness only when
# not s <= thr (and then only the new state, not k1), and blows up when
# s > over. `_reference_flow` runs the per-step checks that guard stands
# for, in their order: k1 and the new state finite, then the domain, then
# the norm sqrt(...) > bound.

@pytest.mark.parametrize("sources, domain, x0, t_span, step, bound, status", [
    # the norm passes the bound
    (["x1^2", "0.5"], (), [1.0, 0.0], (0.0, 2.0), 0.01, 1e6, "blowup"),
    # the first value overflows to inf past x1 = 0.55: not finite
    (["1 + estep(x1 - 0.55) * 1e308 * 1e308", "-x2"], (), [0.0, 1.0],
     (0.0, 2.0), 0.1, math.inf, "blowup"),
    # the step to x1 = 1.1 leaves the domain x1 < 1.05 and passes the
    # bound 1.0: the domain wins
    (["1"], ["1.05 - x1"], [0.5], (0.0, 2.0), 0.3, 1.0, "domain_exit"),
    # the squares overflow to inf, s > thr, while every value is finite:
    # with no bound the flow goes on, inside the domain too
    (["1", "0 - x2"], (), [1e200, 1e160], (0.0, 1.0), 0.1, math.inf,
     "completed"),
    (["1", "0"], ["1e300 - x1"], [1e200, 1e160], (0.0, 1.0), 0.1, math.inf,
     "completed"),
    # and overflow to inf passes any finite bound
    (["1"], (), [1e200], (0.0, 1.0), 0.1, 1e300, "blowup"),
    # steps below half an ulp of the time: h = 0.0, so h6 = 0.0 and
    # y = x + 0.0 * (...); a k1 of inf makes the new state nan
    (["1 - x1"], (), [0.5], (1e16, 1e16 + 2.0), 0.5, 1e8, "completed"),
    (["estep(x1) * 1e308 * 1e308"], (), [1.0], (1e16, 1e16 + 2.0), 0.5,
     1e8, "blowup"),
    # fixed coordinates of field value 0.0 and -0.0 count in the norm,
    # also from -0.0 starts
    (["x1", "0", "-0.0"], (), [1.0, -0.0, 3.0], (0.0, 5.0), 0.1, 5.0,
     "blowup"),
    (["x1", "0", "-0.0"], ["4 - x1"], [1.0, 0.0, -0.0], (0.0, 5.0), 0.1,
     1e8, "domain_exit"),
    # every coordinate fixed: no finiteness test, the norm 5 > 4.9
    (["0", "-0.0"], (), [3.0, -4.0], (0.0, 1.0), 0.1, 4.9, "blowup"),
], ids=["bound", "not-finite", "domain-and-bound", "overflow-no-bound",
        "overflow-in-domain", "overflow-over-bound", "zero-steps",
        "zero-steps-not-finite", "fixed-zeros-bound", "fixed-zeros-domain",
        "all-fixed"])
def test_the_guard_ends_flows_as_the_per_step_checks_do(sources, domain, x0,
                                                        t_span, step, bound,
                                                        status):
    coords = tuple(f"x{i + 1}" for i in range(len(x0)))
    vf = compiled_field(sources, domain, coords=coords)
    traj = assert_same_fused_flow(vf, x0, t_span, step, bound)
    assert traj.status == status
    assert len(traj.points) == len(traj.times) == len(traj.extras) + 1


@pytest.mark.parametrize("bound", [1e8, 1e6, 1.0, 5e-324, 1e-300, 1.34e154,
                                   1e300, sys.float_info.max, math.inf])
def test_the_squared_bound_is_the_last_square_within_the_bound(bound):
    # sqrt(s) > bound exactly when s > over
    over = numkernel._square_bound(bound)
    assert math.sqrt(over) <= bound
    if bound == math.inf:
        assert over == math.inf
    else:
        assert math.sqrt(math.nextafter(over, math.inf)) > bound


def _product_field():
    names = ["t", "x1", "x2"]
    return ex.compile_exprs([ex.parse("x1 * x2", names), ex.Const(1.0)],
                            names)


def _fused_loop(fn):
    flow(VectorFieldTD(2, fn), [0.0, 1.0], (0.0, 0.1), step=0.05)
    (loop,) = fn.body.loops.values()
    return weakref.ref(loop)


def test_a_fused_loop_is_kept_on_its_compiled_field():
    # the loop lives in the kept body of the field's function, which lives
    # while it is referenced or among the functions expr keeps cached
    ex._function.cache_clear()
    fn = _product_field()
    loop = _fused_loop(fn)
    flow(VectorFieldTD(2, _product_field()), [1.0, 1.0], (0.0, 0.1),
         step=0.05)
    assert _product_field() is fn
    assert list(fn.body.loops.values()) == [loop()]
    del fn
    gc.collect()
    assert loop() is not None                      # cached
    ex._function.cache_clear()
    gc.collect()
    assert loop() is None

    # the cache keeps the 128 sources used last, and no more
    assert ex._function.cache_info().maxsize == 128
    loop = _fused_loop(_product_field())
    for i in range(127):
        ex.compile_exprs([ex.Const(float(i))], ["x1"])
    gc.collect()
    assert loop() is not None
    ex.compile_exprs([ex.Const(127.0)], ["x1"])
    gc.collect()
    assert loop() is None
    assert not hasattr(numkernel, "_RK4_LOOPS")


def test_equal_fields_over_other_names_share_one_fused_loop():
    # parameters are named by position, so the names do not reach the source
    assert (ex.compile_exprs([ex.parse("-x1 * x1", ["x1"])], ["x1"])
            is ex.compile_exprs([ex.parse("-y * y", ["y"])], ["y"]))
    fns = [ex.compile_exprs([ex.parse(f"-{x} * {x}", [t, x])], [t, x])
           for t, x in (["t", "x1"], ["s", "y"])]
    assert fns[0] is fns[1]
    ends = [flow(VectorFieldTD(1, fn), [1.0], (0.0, 0.1), step=0.05).endpoint
            for fn in fns]
    assert len(fns[0].body.loops) == 1
    assert ends[0].tobytes() == ends[1].tobytes()


def test_a_domain_compiled_again_finds_its_fused_loop():
    # a field held across a cache clear keeps one loop per domain source
    vf = compiled_field(["1 + 0.5 * x1"], domain=["4 - x1"])
    for _ in range(3):
        ex._function.cache_clear()
        vf.domain = ex.domain_predicate([ex.parse("4 - x1", ["x1"])], ["x1"])
        assert flow(vf, [0.0], (0.0, 0.1), step=0.05).completed
    assert len(vf.fn.body.loops) == 1


def test_a_flow_that_fails_at_its_first_step_keeps_its_start_point():
    names = ["xi", "x1", "x2"]
    fn = ex.compile_exprs([ex.parse(s, names)
                           for s in ("xi / (x1 - 1)", "2 * x2")], names)
    for vf, table in (
            (compiled_field(["1 / (x1 - 1)", "2 * x2"], coords=("x1", "x2")),
             None),
            (VectorFieldTD(2, fn), [[1.0]] * 21)):
        traj = flow(vf, [1.0, 2.0], (0.0, 1.0), step=0.1, table=table)
        assert traj.status == "blowup" and traj.ending.t_star == 0.1
        assert traj.points.shape == (1, 2) and traj.times.shape == (1,)
        assert traj.endpoint.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("zero, first, later", [
    # the first stage reads the start x2 = -0.0, every later stage and
    # step x2 + 0.0 = 0.0
    ("0", 4 * math.pi / 6, math.pi),
    # x2 + -0.0 stays -0.0
    ("-0.0", -math.pi, -math.pi)], ids=["0.0", "-0.0"])
def test_a_constant_coordinate_that_starts_at_minus_zero(zero, first, later):
    # atan2(x2, -1) is -pi at x2 = -0.0 and pi at 0.0
    vf = compiled_field(["atan2(x2, -1)", zero], coords=("x1", "x2"))
    traj = assert_same_fused_flow(vf, [0.0, -0.0], (0.0, 1.0), 0.1)
    assert np.diff(traj.points[:, 0]).tolist() == pytest.approx(
        [0.1 * first] + [0.1 * later] * 9, rel=1e-12)
    assert np.signbit(traj.points[1:, 1]).all() == (zero == "-0.0")


@pytest.mark.parametrize("field, domain, x0, status", [
    # log(x2 - 1) raises at x2 = 1, in the first step's first stage
    (["log(x2 - 1)", "0"], (), [0.0, 1.0], "blowup"),
    # log(-atan2(x2, -1)) is log(pi) at the start x2 = -0.0 and raises
    # at x2 = 0.0, where the first step lands
    (["1", "0"], ["2 - x1 + log(-atan2(x2, -1))"], [0.0, -0.0],
     "domain_exit"),
    # atan2(x2, -1) * 1e308 * 1e308 is -inf at the start, +inf after it
    (["1", "0"], ["2 - x1 - atan2(x2, -1) * 1e308 * 1e308"], [0.0, -0.0],
     "domain_exit"),
], ids=["field-raises", "domain-raises", "domain-not-finite"])
def test_a_moved_term_that_fails_ends_the_first_step(field, domain, x0,
                                                     status):
    # each failing term reads only x2, whose field value is the constant
    # 0.0, so the loop computes it once, before its steps
    vf = compiled_field(field, domain, coords=("x1", "x2"))
    traj = assert_same_fused_flow(vf, x0, (0.0, 1.0), 0.1)
    assert traj.status == status and traj.times.tolist() == [0.0]
    assert traj.points.tobytes() == np.array([x0]).tobytes()
    assert status == "domain_exit" or traj.ending.t_star == 0.1
    src = numkernel._rk4_loop(vf, False).source
    assert _step_calls(src) == {"range"}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.data())
def test_random_linear_fields_match_the_reference(n, data):
    entry = st.floats(-3.0, 3.0)
    A = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    b = [data.draw(entry) for _ in range(n)]
    x0 = [data.draw(st.floats(-1.0, 1.0)) for _ in range(n)]
    t_a = data.draw(st.floats(-1.0, 1.0))
    span = data.draw(st.floats(0.01, 2.0))
    step = data.draw(st.floats(0.005, 0.5))
    bound = data.draw(st.sampled_from([1e8, 5.0]))
    domain = data.draw(st.sampled_from([(), ("1.5 - x1",)]))
    vf = linear_field(A, b, data.draw(st.booleans()), domain)
    assert_same_fused_flow(vf, x0, (t_a, t_a + span), step, bound)


# ----------------------------------------------------- fused library fields --

def test_fused_lift_of_the_twisted_cylinder_matches_the_reference():
    from algpaths import comorph
    from algpaths.ehresmann import ExampleConnection, circle_loop
    conn = ExampleConnection(1.0 / 3.0)
    loop = circle_loop(conn, grid=200)
    m, table = comorph._fiber_table(loop.times, loop.eta, "cubic", 1)
    # h = -0.7 and 0.55 lie outside the bump support, where the guard
    # reads 0.0; the others inside it
    vf = conn.source.flow_field(conn._lift_field)
    for h in (-0.7, -0.2, 0.0, 0.3, 0.55):
        traj = assert_same_fused_flow(vf, [1.0, 0.0, 1.0, 0.0, h],
                                      (0.0, 1.0), 1.0 / m,
                                      table=table.tolist())
        assert traj.completed and len(traj.times) == m + 1


def test_a_fused_extra_value_that_raises_stops_the_flow():
    # integrate_apath's field: x' = -1, then the section's value log(x1),
    # which raises once a stage reaches x1 <= 0
    from algpaths.algebroid import make_tangent
    A = make_tangent(1)
    fn = A.anchored_field([ex.Const(-1.0)],
                          extra=[ex.parse("log(x1)", ["x1"])])
    traj = assert_same_fused_flow(A.flow_field(fn), [1.0], (0.0, 2.0), 0.1)
    assert traj.status == "blowup" and traj.ending.t_star == pytest.approx(1.0)


def test_a_fused_domain_predicate_that_raises_reads_as_outside():
    vf = compiled_field(["0 - 1"], ["log(x1) + 1000"])
    counted = []

    def pred(*x):
        counted.append(1)
        return fn(*x)

    fn = vf.domain.fn
    pred.body = fn.body
    vf.domain = Domain(pred, 1)
    traj = assert_same_fused_flow(vf, [1.0], (0.0, 2.0), 0.3)
    assert traj.status == "domain_exit"
    assert traj.ending.t_star == pytest.approx(1.0, abs=1e-9)
    # the steps test the kept body inline; only the start point and the
    # bisection call the predicate
    counted.clear()
    assert flow(vf, [1.0], (0.0, 0.9), step=0.01).completed
    assert len(counted) == 1


@pytest.mark.parametrize("domain", [(), ("4 - x1",)])
@pytest.mark.parametrize("field, bound", [("x1^2", 1e6),
                                          ("x1 * x1 * x1 * x1", math.inf)])
def test_fused_blowups_match_the_reference(field, bound, domain):
    # x1^2 passes the bound; x1^4 without a bound overflows to inf, a
    # stage that is not finite, or leaves x1 < 4 first
    vf = compiled_field([field], domain)
    traj = assert_same_fused_flow(vf, [1.0], (0.0, 2.0), 0.01, bound)
    assert not traj.completed


def _field_exprs(names):
    """Random expressions over names: sums, products, quotients, esteps,
    atan2s and gates of the variables and small constants, with leaves
    atan2(x, c) and c / x, which tell 0.0 from -0.0 (a zero divisor
    raises)."""
    var = st.sampled_from(names).map(ex.Var)
    const = st.sampled_from([-1.5, -0.5, 0.25, 1.0, 2.0]).map(ex.Const)
    leaves = st.one_of(var, const,
                       st.tuples(var, const).map(lambda vc: ex.fun(
                           "atan2", *vc)),
                       st.tuples(const, var).map(lambda cv: ex.div(*cv)))

    def grow(sub):
        return st.one_of(
            st.tuples(sub, sub).map(lambda ab: ex.add(*ab)),
            st.tuples(sub, sub).map(lambda ab: ex.mul(*ab)),
            st.tuples(sub, sub).map(lambda ab: ex.div(*ab)),
            st.tuples(sub, sub).map(lambda ab: ex.fun("atan2", *ab)),
            sub.map(lambda a: ex.fun("estep", a)),
            st.tuples(sub, sub).map(lambda ge: ex.fun("gate", ex.fun(
                "estep", ge[0]), ge[1])))

    return st.recursive(leaves, grow, max_leaves=8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.data())
def test_random_fused_fields_match_the_reference(n, data):
    # a coordinate whose field value is 0.0 or -0.0 never changes,
    # and the loop computes what reads only such coordinates once; starts
    # of 0.0 and -0.0 tell the first stage's reads from the later ones
    coords = [f"x{i + 1}" for i in range(n)]
    zero = st.sampled_from([0.0, -0.0]).map(ex.Const)
    exprs = [data.draw(st.one_of(zero, _field_exprs(["t", *coords])))
             for _ in range(n)]
    x0 = [data.draw(st.one_of(st.floats(-1.0, 1.0),
                              st.sampled_from([0.0, -0.0])))
          for _ in range(n)]
    # the domain p(x) < p(x0) + 1/20, for p = ±x_i or a random p, when
    # p(x0) is finite
    axes = [ex.Var(v) for v in coords] + [ex.neg(ex.Var(v)) for v in coords]
    p = data.draw(st.one_of(st.sampled_from(axes), _field_exprs(coords)))
    try:
        level = ex.compile_exprs([p], coords)(*x0)[0] + 0.05
    except (ArithmeticError, ValueError):
        level = math.nan
    dom = ex.domain_predicate([ex.sub(ex.Const(level), p)], coords)
    if not (data.draw(st.booleans()) and dom(x0)):
        dom = None                  # (p(x0) + 1/20 may round to p(x0))
    vf = VectorFieldTD(n, ex.compile_exprs(exprs, ["t", *coords]), dom)
    span = data.draw(st.floats(0.01, 2.0))
    step = data.draw(st.floats(0.01, 0.5))
    bound = data.draw(st.sampled_from([1e8, 5.0]))
    assert_same_fused_flow(vf, x0, (0.0, span), step, bound)


# ------------------------------------------------------ recorded extra values --

def assert_recorded_extras(vf, x0, t_span, step, bound=1e8, table=None):
    """flow's recorded extras are, bit for bit, the field's values past
    the first n at every returned point but the last, at its time or its
    step's first table row, one row per point; returns the trajectory."""
    traj = assert_same_fused_flow(vf, x0, t_span, step, bound, table)
    k = len(traj.times) - 1
    inputs = (traj.times[:k, None] if table is None
              else np.asarray(table, dtype=float)[:2 * k:2])
    values = len(vf.fn.body.outs)
    expected = ex.evaluate(vf.fn, np.column_stack([inputs, traj.points[:k]]),
                           (values,))[:, vf.n:]
    assert traj.extras.shape == (k, values - vf.n)
    assert traj.extras.dtype == float
    assert traj.extras.tobytes() == expected.tobytes()
    return traj


def _gated_zeros(names):
    """Gates whose value is 0.0 or -0.0 where they are tested: a guard
    estep(v) of 0.0 gives 0.0, one above it g * (-0.0) = -0.0."""
    var = st.sampled_from(names).map(ex.Var)
    zero = st.sampled_from([0.0, -0.0]).map(ex.Const)
    return st.tuples(var, zero).map(
        lambda vz: ex.fun("gate", ex.fun("estep", vz[0]), vz[1]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 4), st.data())
def test_recorded_extras_are_the_field_at_the_returned_points(n, extras,
                                                              data):
    # time-dependent and tabulated fields, with coordinates whose field
    # value is 0.0 or -0.0 (their terms move before the loop) starting at
    # 0.0 or -0.0, extra values that are gates of 0.0 or -0.0 or bare
    # state coordinates (copied from the points), and flows that
    # complete, blow up, leave the domain or raise in a stage
    coords = [f"x{i + 1}" for i in range(n)]
    width = data.draw(st.sampled_from([None, 0, 1, 2]))
    inputs = (["t"] if width is None
              else [f"q{j}" for j in range(width)])
    names = [*inputs, *coords]
    zero = st.sampled_from([0.0, -0.0]).map(ex.Const)
    exprs = [data.draw(st.one_of(zero, _field_exprs(names)))
             for _ in range(n)]
    exprs += [data.draw(st.one_of(zero, _gated_zeros(names),
                                  st.sampled_from(coords).map(ex.Var),
                                  _field_exprs(names)))
              for _ in range(extras)]
    x0 = [data.draw(st.one_of(st.floats(-1.0, 1.0),
                              st.sampled_from([0.0, -0.0])))
          for _ in range(n)]
    dom = None
    if data.draw(st.booleans()):
        # |x1| < |x1(0)| + 1/2
        level = abs(x0[0]) + 0.5
        dom = ex.domain_predicate(
            [ex.parse(f"{level!r} - x1", coords),
             ex.parse(f"{level!r} + x1", coords)], coords)
    fn = ex.compile_exprs(exprs, names)
    steps = data.draw(st.integers(1, 40))
    span = data.draw(st.floats(0.01, 2.0))
    vf, table = VectorFieldTD(n, fn, dom), None
    if width is not None:
        cell = st.floats(-2.0, 2.0)
        table = [[data.draw(cell) for _ in range(width)]
                 for _ in range(2 * steps + 1)]
    bound = data.draw(st.sampled_from([1e8, 5.0]))
    assert_recorded_extras(vf, x0, (0.0, span), span / steps, bound, table)


@pytest.mark.parametrize("field, extra, domain, status", [
    ("x1^2", "x1 * t", (), "blowup"),
    ("1.0", "gate(estep(x1), -0.0)", ("1.0 - x1",), "domain_exit"),
    ("0 - 1", "log(x1)", (), "blowup"),             # a stage raises
], ids=["blowup", "domain-exit", "stage-raises"])
def test_a_flow_that_escapes_records_its_accepted_steps(field, extra, domain,
                                                        status):
    vf = compiled_field([field, extra], domain)
    traj = assert_recorded_extras(vf, [1.0] if field != "1.0" else [0.0],
                                  (0.0, 2.0), 0.01, 1e6)
    assert traj.status == status
    assert len(traj.extras) == len(traj.times) - 1 > 0


@pytest.mark.parametrize("fields, x0, domain, status", [
    (["1 - x1", "0", "-0.0"], [0.5, -0.0, -0.0], (), "completed"),
    (["x1^3", "0", "0"], [1.0, 0.0, -0.0], (), "blowup"),
    (["1.0", "0", "-0.0"], [0.0, -0.0, 0.0], ("1.0 - x1",), "domain_exit"),
    (["0 - 1", "log(x1)", "0"], [1.0, -0.0, -0.0], (), "blowup"),
], ids=["completes", "blowup", "domain-exit", "stage-raises"])
def test_an_extra_that_is_a_coordinate_is_copied_from_the_points(
        fields, x0, domain, status):
    # the extras x3, x1 and x2 are neither bound nor recorded: flow copies
    # them from the points, also for a fixed coordinate whose -0.0 start
    # turns 0.0 after the first step
    vf = compiled_field(fields + ["x3", "x1", "t * x2", "x2"], domain,
                        coords=("x1", "x2", "x3"))
    loop = numkernel._rk4_loop(vf, False)
    assert loop.kept == [2] and loop.copies == [(0, 2), (1, 0), (3, 1)]
    traj = assert_recorded_extras(vf, x0, (0.0, 2.0), 0.01, 1e6)
    assert traj.status == status and len(traj.extras) > 0


@pytest.mark.parametrize("x0, span, bound, domain, status", [
    (1.0, 2.0, 1e6, (), "blowup"),
    (1e100, 1.0, math.inf, (), "blowup"),
    (1e100, 1.0, math.inf, ("1e150 - x1",), "domain_exit"),
], ids=["bound", "overflowing-stage", "overflow-leaves-domain"])
def test_a_square_flows_as_the_product(x0, span, bound, domain, status):
    # an overflowing square is inf, not an error: the stage is not finite,
    # and the Euler predictor of k1 decides between blowup and domain exit
    square = compiled_field(["x1^2"], domain)
    product = compiled_field(["x1 * x1"], domain)
    got = assert_same_fused_flow(square, [x0], (0.0, span), 0.1, bound)
    ref = flow(product, [x0], (0.0, span), step=0.1, bound=bound)
    assert got.times.tobytes() == ref.times.tobytes()
    assert got.points.tobytes() == ref.points.tobytes()
    assert repr(got.ending) == repr(ref.ending) and got.status == status


# ------------------------------------------------ the generated loop's calls --

def _steps(src):
    """The `for` statement of the loop source src: the work of each step."""
    (steps,) = [node for node in ast.walk(ast.parse(src))
                if isinstance(node, ast.For)]
    return steps


def _step_calls(src):
    """The functions that the step loop of the loop source src calls."""
    return {ast.unparse(node.func) for node in ast.walk(_steps(src))
            if isinstance(node, ast.Call)}


def test_each_step_runs_the_field_four_times_and_the_domain_once():
    from algpaths.algebroid import make_tangent
    A = make_tangent(2, domain=[ex.parse("4 - x1^2 - x2^2", ["x1", "x2"])])
    fn = A.anchored_field([ex.parse("0 - x2", ["x1", "x2"]), ex.Var("x1")])
    src = numkernel._rk4_loop(A.flow_field(fn), False).source
    # the field's two values are assigned in each stage, the predicate's
    # once after the step
    lines = [line.strip() for line in src.splitlines()]
    values = [line.split(" = ")[0] for line in lines
              if re.fullmatch(r"[a-dg]\d+ = .*", line)]
    assert values == ["a0", "a1", "b0", "b1", "c0", "c1", "d0", "d1", "g0"]
    # and the loop calls neither
    calls = {ast.unparse(node.func) for node in ast.walk(ast.parse(src))
             if isinstance(node, ast.Call)}
    assert calls == {"range"}
    assert src.startswith("def rk4_loop(table, x, t_a, t_b, step, n_steps, "
                          "over, thr, record):")

    preds = []
    pred = A.in_domain.fn

    def counted(*x):
        preds.append(1)
        return pred(*x)

    counted.body = pred.body
    vf = A.flow_field(_uncalled(fn))
    vf.domain = Domain(counted, 1)
    traj = flow(vf, [1.0, 0.0], (0.0, 1.0), step=0.01)
    assert traj.completed and len(traj.times) == 101
    assert len(preds) == 1                          # x0's test only


def test_the_holonomy_lift_computes_its_bump_gate_before_its_steps():
    # the lift field's value for its last coordinate, the height h, is
    # 0.0: the bump gate and the domain's two esteps read only h, and
    # their exps run once per flow
    from algpaths.ehresmann import ExampleConnection
    conn = ExampleConnection(1.0 / 3.0)
    src = numkernel._rk4_loop(conn.source.flow_field(conn._lift_field),
                              True).source
    assert src.count("math.exp") == 6
    assert "math.exp" not in _step_calls(src)


def test_the_holonomy_lift_steps_only_what_changes():
    # the height h = x4 is fixed (field value 0.0): the loop binds
    # z4 = x4 + 0.0 before its steps, and a step binds no a4..d4 and
    # writes y4 = z4, which no finiteness test reads; the finiteness test
    # reads no k1 value; M's six constant entries are neither bound nor
    # recorded; the tabulated field reads no stage time th; the tests'
    # bounds are locals; one list records the new state and M's four other
    # entries, and phi = (x, y), the previous row's state, is neither
    # bound nor recorded
    from algpaths import comorph
    from algpaths.ehresmann import ExampleConnection, circle_loop
    conn = ExampleConnection(1.0 / 3.0)
    vf = conn.source.flow_field(conn._lift_field)
    src = numkernel._rk4_loop(vf, True).source
    steps = _steps(src)
    names = [node for node in ast.walk(steps) if isinstance(node, ast.Name)]
    stored = {node.id for node in names if isinstance(node.ctx, ast.Store)}
    assert {"a3", "d3", "y4", "e4", "e5", "e6", "e7"} <= stored
    assert not stored & {"th", "a4", "b4", "c4", "d4",
                         "e0", "e1", "e2", "e3", "e8", "e9", "e10", "e11"}
    assert "_inf" not in {node.id for node in names}
    assert "\n    z4 = x4 + 0.0\n" in src and "            y4 = z4\n" in src
    tested = [ast.unparse(node) for node in ast.walk(steps)
              if isinstance(node, ast.Compare) and len(node.ops) == 2]
    assert tested == [f"ninf < y{i} < inf" for i in range(4)]
    (record,) = [node for node in ast.walk(steps)
                 if isinstance(node, ast.AugAssign)]
    assert ast.unparse(record.target) == "record"
    assert ast.unparse(record.value) == ("(y0, y1, y2, y3, y4, e4, e5, e6, "
                                         "e7)")

    # flow fills the constant columns and phi's from the points: the
    # extras are M's ten entries and phi's two components
    loop = circle_loop(conn, grid=50)
    m, table = comorph._fiber_table(loop.times, loop.eta, "cubic", 1)
    for h in (-0.7, 0.3):           # outside and inside the bump's support
        traj = assert_recorded_extras(vf, [1.0, 0.0, 1.0, 0.0, h],
                                      (0.0, 1.0), 1.0 / m,
                                      table=table.tolist())
        assert traj.completed and traj.extras.shape == (m, 12)
        assert (traj.extras[:, [0, 3]] == 1.0).all()
        assert np.array_equal(traj.extras[:, 10:], traj.points[:-1, :2])


def test_a_fixed_coordinate_read_in_a_gates_arm_is_bound_once():
    # x2 is fixed and read only in the arm of a gate whose guard moves:
    # no root moves, and every stage reads the z1 bound before the steps,
    # a name, for which no stage binds a _v2_b, _v2_c or _v2_d
    vf = compiled_field(["gate(x1, x2 * x1)", "0"], coords=("x1", "x2"))
    src = numkernel._rk4_loop(vf, False).source
    assert "\n    z1 = x1 + 0.0\n    for k in range(n_steps):\n" in src
    assert not re.search(r"_v2_[bcd] =", src) and "pa0" not in src
    stored = {node.id for node in ast.walk(_steps(src))
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert "z1" not in stored
    for x0 in ([0.5, 2.0], [-0.5, -0.0], [0.0, 3.0]):
        assert_same_fused_flow(vf, x0, (0.0, 1.0), 0.1)


def _step_nodes(src):
    """The AST nodes of the work of each step of the loop source src."""
    return sum(1 for stmt in _steps(src).body for _ in ast.walk(stmt))


def _dual_route_fixtures():
    """The three dual-route fixtures of the benchmark: the so(3)* identity
    (complete), the open disk into the plane (exits its domain) and
    x1^2 x2 from the plane to the line (blows up), with a seed each."""
    from algpaths.poisson import PoissonManifold
    xyz, xy = ["x1", "x2", "x3"], ["x1", "x2"]
    so3 = PoissonManifold(3, {(0, 1): ex.parse("x3", xyz),
                              (0, 2): ex.parse("0 - x2", xyz),
                              (1, 2): ex.parse("x1", xyz)})
    plane = PoissonManifold(2, {(0, 1): ex.Const(1.0)})
    disk = PoissonManifold(2, {(0, 1): ex.Const(1.0)},
                           domain=[ex.parse("1 - x1^2 - x2^2", xy)])

    def smooth(components, P):
        return ex.SmoothMap(P.coords, [ex.parse(c, P.coords)
                                       for c in components], P.domain)

    return {"so3": (smooth(xyz, so3), so3, so3, (0.1, 0.2, 0.3), 1e8),
            "disk": (smooth(xy, disk), disk, plane, (0.0, 0.0), 1e8),
            "blowup": (smooth(["x1^2 * x2"], plane), plane,
                       PoissonManifold(1, {}), (1.0, 0.5), 1e6)}


# The per-step AST nodes of each loop the holonomy and homotopy lifts and
# the dual-route fixtures generate (one per distinct field, in the order
# they first flow), as the loops with squares written as products and
# signs folded into their operations wrote them, and, for the homotopy
# lift, with no stage binding a copied coordinate's unread input; the
# loops of the bump test function (so3's and disk's last, blowup's last
# two) as they were written with a bump's partials gate(slope, ds) and a
# gate of its own guard with an empty arm a conditional expression: no
# loop may do more work per step.
STEP_NODE_CEILINGS = {"holonomy": [1363], "homotopy": [305],
                      "so3": [400, 400, 400, 1571],
                      "disk": [298, 293, 1217], "blowup": [417, 1241, 1121]}


def _fixture_loops(monkeypatch):
    """The loop sources of the holonomy and homotopy lifts and of each
    dual-route fixture, one per distinct field, in the order they first
    flow."""
    from algpaths.algebroid import make_tangent
    from algpaths.comorph import Comorphism
    from algpaths.ehresmann import ExampleConnection
    from algpaths.poisson import complete_map_probe
    conn = ExampleConnection(1.0 / 3.0)
    loop_of = numkernel._rk4_loop
    loops = {"holonomy": [loop_of(conn.source.flow_field(conn._lift_field),
                                  True).source]}
    # the homotopy-lift benchmark's: the interval (-2, 2) included in the
    # line, whose phi = x1 is a copied coordinate
    A = LieAlgebroid(1, 1, [[ex.Const(1.0)]], {},
                     domain=[ex.parse("4 - x1^2", ["x1"])])
    c = Comorphism(A, make_tangent(1), [ex.Var("x1")], [[ex.Const(1.0)]])
    loops["homotopy"] = [loop_of(A.flow_field(c._lift_field), True).source]
    for name, (phi, PX, PY, seed, bound) in _dual_route_fixtures().items():
        # each loop the probe runs, kept alive so that no id is reused
        seen = {}

        def generated(vf, tabulated):
            loop = loop_of(vf, tabulated)
            seen.setdefault(id(loop), loop)
            return loop

        monkeypatch.setattr(numkernel, "_rk4_loop", generated)
        complete_map_probe(phi, PX, PY, horizon=0.01, bound=bound,
                           seeds=[seed])
        loops[name] = [loop.source for loop in seen.values()]
    return loops


def test_no_loop_does_more_per_step_than_its_ceiling(monkeypatch):
    nodes = {name: list(map(_step_nodes, sources))
             for name, sources in _fixture_loops(monkeypatch).items()}
    assert nodes.keys() == STEP_NODE_CEILINGS.keys()
    for name, ceilings in STEP_NODE_CEILINGS.items():
        assert len(nodes[name]) == len(ceilings), name
        assert all(n <= c for n, c in zip(nodes[name], ceilings)), (
            name, nodes[name])


def _negative_literal(node):
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant))


def test_no_loop_squares_with_pow_or_adds_a_negative_literal(monkeypatch):
    # a square is a product, x - (-c) is x + c, and (-1.0) * e is (-e)
    for name, sources in _fixture_loops(monkeypatch).items():
        for src in sources:
            for node in ast.walk(ast.parse(src)):
                if not isinstance(node, ast.BinOp):
                    continue
                op, right = type(node.op), node.right
                assert not (op is ast.Pow and isinstance(right, ast.Constant)
                            and right.value == 2), (name, ast.unparse(node))
                assert not (op in (ast.Add, ast.Sub)
                            and _negative_literal(right)), (
                    name, ast.unparse(node))
                assert not (op is ast.Mult and any(
                    _negative_literal(a) and a.operand.value == 1.0
                    for a in (node.left, right))), (name, ast.unparse(node))


def test_a_field_on_r0_flows():
    # no state: the loop unpacks, tests and appends none, counts its
    # accepted steps, and records the field's extra values
    fn = ex.compile_exprs([ex.parse("log(1.5 - t)", ["t"])], ["t"])
    traj = assert_recorded_extras(VectorFieldTD(0, fn), [], (0.0, 1.0), 0.1)
    assert traj.completed and traj.points.shape == (11, 0)
    assert traj.times.tolist() == [k * 0.1 for k in range(10)] + [1.0]
    assert traj.extras[:, 0].tolist() == [math.log(1.5 - t)
                                          for t in traj.times[:-1]]
    # log(0.55 - t) raises at the stage time 0.55 of the sixth step
    fn = ex.compile_exprs([ex.parse("log(0.55 - t)", ["t"])], ["t"])
    traj = assert_recorded_extras(VectorFieldTD(0, fn), [], (0.0, 1.0), 0.1)
    assert traj.status == "blowup" and traj.ending.t_star == 6 * 0.1
    assert traj.points.shape == (6, 0) and traj.extras.shape == (5, 1)


@pytest.mark.parametrize("t_a, span, step", [
    (-0.0, 1.0, 0.1),       # the first time keeps its sign
    (0.1, 0.7, 0.1),        # t_a + k * step, not a sum of k steps
    (1e16, 2.0, 0.5),       # steps below the time's half ulp: h = 0.0
    (-1.0, 1.0, 0.3),       # a short last step, which ends at t_b
], ids=["minus-zero", "tenths", "zero-steps", "short-last"])
def test_the_accepted_times_are_the_loops_step_times(t_a, span, step):
    # flow builds the times after the loop with the loop's t_next; x2 and
    # x3 are fixed, by 0.0 and -0.0, also over a step of h = 0.0
    vf = compiled_field(["1 - x1", "0", "-0.0"], coords=("x1", "x2", "x3"))
    traj = assert_same_fused_flow(vf, [0.5, -0.0, -0.0], (t_a, t_a + span),
                                  step)
    assert traj.completed and traj.times[-1] == t_a + span
    assert np.signbit(traj.points[1:, 1:]).tolist() == [[False, True]] * (
        len(traj.times) - 1)


def _callable_fields():
    """Fields that flow cannot inline: (field, the function it names, the
    table the flow is given)."""
    fn = compiled_field(["1 - x1"]).fn
    pred = ex.domain_predicate([ex.parse("1 - x1", ["x1"])], ["x1"])
    return [
        (VectorFieldTD(1, lambda t, x1: [1.0 - x1]), "the field", None),
        # refused before x0 is tested: x0 = 0 is outside this domain, and
        # the error is TypeError, not FlowError
        (VectorFieldTD(1, fn, Domain(lambda x1: [-1.0], 1)), "the domain",
         None),
        (VectorFieldTD(1, ex.compile_exprs([ex.Var("x1")], ["x1"])),
         "the field", None),                        # no time parameter
        (VectorFieldTD(2, fn), "the field", None),  # 2 parameters, not 3
        (VectorFieldTD(2, ex.compile_exprs([ex.Var("x2")], ["t", "x1",
                                                            "x2"])),
         "the field", None),                        # 1 value, not 2
        (VectorFieldTD(1, fn, Domain(fn, 1)), "the domain", None),
        (VectorFieldTD(1, fn, Domain(pred.fn, 2)), "the domain", None),
        # a table row for a field over (x1,) on R^2 would have -1 cells
        (VectorFieldTD(2, ex.compile_exprs([ex.Var("x1")] * 2, ["x1"])),
         "the field", [[]] * 21),
    ]


@pytest.mark.parametrize("case", range(8), ids=[
    "lambda", "lambda-domain", "no-time", "parameters", "values",
    "domain-parameters", "domain-values", "tabulated-parameters"])
def test_flow_refuses_a_field_it_cannot_inline(case):
    vf, what, table = _callable_fields()[case]
    with pytest.raises(TypeError, match=f"^{what} must be compiled by "
                                        f"expr.compile_exprs"):
        flow(vf, [0.0] * vf.n, (0.0, 1.0), step=0.1, table=table)


@pytest.mark.parametrize("pred, step", [("1/x1", 0.25),
                                        ("log(x1) + 1000", 0.3)])
def test_a_raising_domain_predicate_reads_as_outside(pred, step):
    # x' = -1 from x1 = 1: at step 0.25 a step lands on x1 = 0, a zero
    # divisor; at 0.3 on x1 = -0.2, where log raises. Either point is
    # outside, and t* is bisected as for the predicate x1, which raises
    # nowhere
    def exit_time(text):
        vf = compiled_field(["-1.0"], [text])
        traj = assert_same_fused_flow(vf, [1.0], (0.0, 2.0), step)
        assert traj.status == "domain_exit"
        return traj.ending.t_star

    raising = ex.domain_predicate([ex.parse(pred, ["x1"])], ["x1"])
    with pytest.raises((ArithmeticError, ValueError)):
        raising.fn(0.0 if step == 0.25 else -0.2)
    assert exit_time(pred) == pytest.approx(1.0, abs=1e-9)
    assert repr(exit_time(pred)) == repr(exit_time("x1"))


def test_a_domain_is_a_domain_object():
    with pytest.raises(TypeError, match="expr.Domain"):
        VectorFieldTD(1, lambda t, x1: [1.0], domain=lambda x: True)


def _table_field():
    """x1' = xi, xi read from a one-column table."""
    return VectorFieldTD(1, ex.compile_exprs([ex.Var("xi")], ["xi", "x1"]))


def test_a_tabulated_field_needs_two_rows_per_step_and_one():
    with pytest.raises(FlowError, match="lane 0's table must have 21 rows "
                                        "of the field's 1 inputs other "
                                        "than the state, got shape"):
        flow(_table_field(), [0.0], (0.0, 1.0), step=0.1,
             table=[[1.0]] * 20)


# ------------------------------------------------------------------ lanes --

LANE_STARTS = [[0.1, 10.0], [-1.0, 10.0], [1.0, 10.0], [0.1, 0.3],
               [0.2, 10.0]]


def _lanes(tabulated):
    """x1' = x1^3 + xi / 100, x2' = 0 and the extra value log(x2 - xi) on
    x1 > -2, with xi the time, or with tabulated lane l's own table, xi =
    (1 + l / 10) t at the stage times of 100 steps over [0, 1]: the field
    and the lanes' tables, an (L, 201, 1) array, None when untabulated.
    From LANE_STARTS, with bound 1e3, the lanes complete, exit the domain
    (near t = 0.375), blow up (near t = 0.5), end in a stage that raises
    (once xi reaches 0.3) and complete."""
    xi = "xi" if tabulated else "t"
    names = [xi, "x1", "x2"]
    fn = ex.compile_exprs([ex.parse(src, names) for src in (
        f"x1^3 + {xi} / 100", "0", f"log(x2 - {xi})")], names)
    dom = ex.domain_predicate([ex.parse("x1 + 2", ["x1", "x2"])],
                              ["x1", "x2"])
    if not tabulated:
        return VectorFieldTD(2, fn, dom), None
    stage_t = np.linspace(0.0, 1.0, 201)
    return VectorFieldTD(2, fn, dom), np.stack(
        [(1 + l / 10) * stage_t for l in range(len(LANE_STARTS))])[:, :, None]


def assert_same_trajectory(got, want):
    """Two trajectories with the same bits, extras and ending."""
    assert got.times.tobytes() == want.times.tobytes()
    assert got.points.tobytes() == want.points.tobytes()
    assert got.extras.tobytes() == want.extras.tobytes()
    assert got.extras.shape == want.extras.shape
    assert repr(got.ending) == repr(want.ending)


@pytest.mark.parametrize("tabulated", [False, True],
                         ids=["time", "own-tables"])
def test_one_lane_call_is_the_flows_of_its_lanes(tabulated):
    # each lane keeps its own prefix, extras and ending, also after a lane
    # that ends early, and reads its own table
    vf, tables = _lanes(tabulated)
    lanes = numkernel.flow_lanes(vf, LANE_STARTS, (0.0, 1.0), 0.01, 1e3,
                                 tables)
    assert [lane.status for lane in lanes] == [
        "completed", "domain_exit", "blowup", "blowup", "completed"]
    assert len({len(lane.times) for lane in lanes}) == 4
    for l, (x0, lane) in enumerate(zip(LANE_STARTS, lanes)):
        alone = flow(vf, x0, (0.0, 1.0), 0.01, 1e3,
                     None if tables is None else tables[l].tolist())
        assert_same_trajectory(lane, alone)


def test_a_table_is_read_alike_as_a_list_and_as_an_array():
    # an array is converted by tolist() before its lane runs, and a list
    # of lanes' tables is read as the array of them
    vf, tables = _lanes(True)
    as_lists = [table.tolist() for table in tables]
    for got, want in zip(
            numkernel.flow_lanes(vf, LANE_STARTS, (0.0, 1.0), 0.01, 1e3,
                                 as_lists),
            numkernel.flow_lanes(vf, LANE_STARTS, (0.0, 1.0), 0.01, 1e3,
                                 tables)):
        assert_same_trajectory(got, want)
    for x0, table, rows in zip(LANE_STARTS, tables, as_lists):
        assert_same_trajectory(flow(vf, x0, (0.0, 1.0), 0.01, 1e3, table),
                               flow(vf, x0, (0.0, 1.0), 0.01, 1e3, rows))


def test_a_lane_call_checks_its_lanes():
    vf, tables = _lanes(True)
    assert numkernel.flow_lanes(vf, [], (0.0, 1.0), 0.01,
                                tables=tables[:0]) == []
    with pytest.raises(FlowError, match="2 lanes need as many tables, got 5"):
        numkernel.flow_lanes(vf, LANE_STARTS[:2], (0.0, 1.0), 0.01,
                             tables=tables)
    with pytest.raises(numkernel.StartError, match=r"x0 = \(-3.0, 10.0\)"):
        numkernel.flow_lanes(vf, [*LANE_STARTS[:4], [-3.0, 10.0]],
                             (0.0, 1.0), 0.01, tables=tables)


@pytest.mark.parametrize("bad, shape", [
    (lambda t: t[:-1], (200, 1)),
    (lambda t: t[:, [0, 0]], (201, 2)),
    (lambda t: t[:, :0], (201, 0)),
    (lambda t: t[:, 0], (201,)),
    (lambda t: t.tolist()[:-1], (200, 1)),
    (lambda t: [*t.tolist()[:-1], [0.0, 0.0]], (201, 1, 2)),
    (lambda t: [row + row for row in t.tolist()], (201, 2)),
    (lambda t: t[:, 0].tolist(), None),
], ids=["rows", "width", "no-cells", "one-dimensional", "list-rows",
        "list-ragged", "list-width", "list-of-floats"])
def test_a_lane_table_of_another_shape_is_refused_before_any_lane_runs(
        bad, shape, monkeypatch):
    # lane 3's table is bad; its lane would raise from the loop's row
    # unpacking, or read past its rows, where the check names it first
    ran = []
    rk4_loop = numkernel._rk4_loop

    def counted(vf, tabulated):
        loop = rk4_loop(vf, tabulated)

        def run(*args):
            ran.append(1)
            return loop(*args)

        run.__dict__.update(loop.__dict__)
        return run

    monkeypatch.setattr(numkernel, "_rk4_loop", counted)
    vf, tables = _lanes(True)
    tables = [*tables[:3], bad(tables[3]), tables[4]]
    with pytest.raises(FlowError) as e:
        numkernel.flow_lanes(vf, LANE_STARTS, (0.0, 1.0), 0.01, 1e3, tables)
    assert str(e.value) == (
        f"lane 3's table must have 201 rows of the field's 1 inputs other "
        f"than the state, got shape {shape}")
    assert ran == []


def test_a_numpy_scalar_warning_in_the_loop_is_attributed_to_numkernel():
    # a table of numpy scalars hands them to the stages, which overflow in
    # the loop's own sums (an array table is converted to floats first)
    table = [[np.float64(1e308)]] * 5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warnings.filterwarnings("error", category=RuntimeWarning,
                                module=r"algpaths\.numkernel\Z")
        with pytest.raises(RuntimeWarning, match="overflow"):
            flow(_table_field(), [0.0], (0.0, 1.0), step=0.5, table=table)


# --------------------------------------------------------------- CSV writer --

class _Writes(io.StringIO):
    """A text buffer that records the line count of each write."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, text):
        self.lines.append(text.count("\n"))
        return super().write(text)


def _per_row_csv(header, table, ending=None):
    """The former writer: one join of reprs per row."""
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in np.asarray(table).tolist()]
    if ending is not None:
        lines.append(f"# status={ending}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [0, 1, 2047, 2048, 2049, 5000])
def test_bulk_csv_writer_matches_the_per_row_join(rows):
    special = [-0.0, 5e-324, 1e16, 0.1 + 0.2, -2.5e-308, 1.7976931348623157e308]
    rng = np.random.default_rng(rows)
    table = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300,
                                                              (rows, 3))
    flat = table.reshape(-1)
    flat[:len(special)] = special[:len(flat)]
    for ending in (None, Ending("blowup", 0.5)):
        buf = _Writes()
        write_csv_rows(buf, ["t", "x1", "x2"], list(table.T), ending)
        assert buf.getvalue() == _per_row_csv(["t", "x1", "x2"], table,
                                              ending)
        assert max(buf.lines) <= numkernel.CSV_BLOCK_ROWS


def test_a_homotopy_csv_is_the_per_row_join_of_its_grid():
    # 41 x 53 = 2173 rows cross CSV_BLOCK_ROWS, which 53 does not divide:
    # the second block starts inside a sweep of s
    nt, ns = 41, 53
    A = LieAlgebroid(2, 1, [[ex.Const(1.0)], [ex.Const(0.0)]], {})
    rng = np.random.default_rng(41)
    t_grid = 0.3 + 0.07 * np.arange(nt)
    s_grid = -1.0 + 0.1 * np.arange(ns)
    x = rng.normal(size=(nt, ns, 2))
    x[0], x[-1] = x[0, 0], x[-1, 0]
    eta = rng.normal(size=(nt, ns, 1))
    eta[1, :3, 0] = eta[-2, -3:, 0] = [-0.0, 5e-324, 1e16]
    beta = rng.normal(size=(nt, ns, 1))
    beta[[0, -1]] = -0.0
    x[1, :3, 1] = [-0.0, 5e-324, 1e16]
    H = AHomotopy(A, t_grid, s_grid, x, eta, beta)
    f = _Writes()
    H.write_csv(f)
    table = np.column_stack([np.repeat(t_grid, ns), np.tile(s_grid, nt),
                             x.reshape(-1, 2), eta.reshape(-1, 1),
                             beta.reshape(-1, 1)])
    assert f.getvalue() == _per_row_csv(AHomotopy.columns(2, 1), table)
    assert max(f.lines) <= numkernel.CSV_BLOCK_ROWS
