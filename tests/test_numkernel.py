import io
import math

import numpy as np
import pytest

from algpaths import cli, numkernel
from algpaths.numkernel import (FlowError, Trajectory, VectorFieldTD, flow,
                                flow_endpoint_order, read_csv_rows,
                                read_trajectory_csv)


def exp_field():
    return VectorFieldTD(1, lambda t, x: [x[0]])


def test_flow_exponential_accuracy():
    traj = flow(exp_field(), [1.0], (0.0, 1.0), step=1e-3)
    assert traj.completed
    assert traj.endpoint[0] == pytest.approx(math.e, abs=1e-12)
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)


def test_flow_is_fourth_order():
    p = flow_endpoint_order(exp_field(), [1.0], (0.0, 1.0), step=0.05)
    assert 3.5 <= p <= 4.5


def test_flow_endpoint_order_exact_field():
    vf = VectorFieldTD(1, lambda t, x: [2.0])    # RK4 integrates it exactly
    assert flow_endpoint_order(vf, [0.0], (0.0, 1.0), step=0.1) == "exact"


def test_reversed_time_span_rejected():
    # the kernel's contract is forward integration only
    with pytest.raises(FlowError, match="t_b > t_a"):
        flow(exp_field(), [1.0], (1.0, 0.0), step=1e-3)


def test_blowup_reports_grid_time_near_one_over_x0():
    vf = VectorFieldTD(1, lambda t, x: [x[0] ** 2])
    traj = flow(vf, [1.0], (0.0, 2.0), step=1e-3, bound=1e6)
    assert traj.status == "blowup"
    assert abs(traj.t_event - 1.0) <= 0.01         # within 1% of 1/x0
    assert not traj.completed
    assert "blowup" in traj.status_str() and "t*=" in traj.status_str()


def test_domain_exit_is_bisected_to_nanoseconds():
    vf = VectorFieldTD(1, lambda t, x: [1.0],
                       domain=lambda x: x[0] < 1.0)
    traj = flow(vf, [0.0], (0.0, 2.0), step=1e-3)
    assert traj.status == "domain_exit"
    assert traj.t_event == pytest.approx(1.0, abs=1e-8)
    assert traj.points[-1][0] < 1.0                 # last point still inside


def test_stage_failure_becomes_domain_exit_when_domain_explains_it():
    # 1/(0.5 - x) from 0 reaches x = 0.5 at t = 1/8 ((0.5 - x)^2 = 1/4 - 2t);
    # the stage failure there is explained by the domain predicate
    vf = VectorFieldTD(1, lambda t, x: [1.0 / (0.5 - x[0])],
                       domain=lambda x: x[0] < 0.5)
    traj = flow(vf, [0.0], (0.0, 1.0), step=1e-4)
    assert traj.status == "domain_exit"
    assert traj.t_event == pytest.approx(0.125, abs=1e-3)


def test_stage_failure_without_domain_is_blowup():
    vf = VectorFieldTD(1, lambda t, x: [math.sqrt(0.25 - x[0])])
    traj = flow(vf, [0.0], (0.0, 2.0), step=1e-3)
    assert traj.status == "blowup"
    assert traj.t_event is not None


def test_flow_rejects_bad_inputs():
    with pytest.raises(FlowError):
        flow(exp_field(), [1.0], (0.0, 0.0))
    with pytest.raises(FlowError):
        flow(exp_field(), [math.nan], (0.0, 1.0))
    with pytest.raises(FlowError):
        flow(exp_field(), [1.0, 2.0], (0.0, 1.0))   # dimension mismatch
    vf = VectorFieldTD(1, lambda t, x: [1.0], domain=lambda x: x[0] < 0.0)
    with pytest.raises(FlowError):
        flow(vf, [1.0], (0.0, 1.0))                 # starts outside


def test_flow_respects_norm_bound():
    traj = flow(exp_field(), [1.0], (0.0, 30.0), step=1e-2, bound=100.0)
    assert traj.status == "blowup"
    assert traj.t_event == pytest.approx(math.log(100.0), abs=0.05)


def test_time_dependent_field():
    vf = VectorFieldTD(1, lambda t, x: [2.0 * t])
    traj = flow(vf, [0.0], (0.0, 1.0), step=1e-3)
    assert traj.endpoint[0] == pytest.approx(1.0, abs=1e-12)


def test_csv_round_trip_exact():
    vf = VectorFieldTD(2, lambda t, x: [x[1], -x[0]])
    traj = flow(vf, [1.0, 0.0], (0.0, 1.0), step=0.01)
    buf = io.StringIO()
    traj.write_csv(buf)
    buf.seek(0)
    back = read_trajectory_csv(buf)
    assert back.status == traj.status
    assert np.array_equal(np.asarray(back.times), np.asarray(traj.times))
    assert np.array_equal(np.asarray(back.points), np.asarray(traj.points))


def test_csv_round_trip_keeps_event_status():
    vf = VectorFieldTD(1, lambda t, x: [x[0] ** 2])
    traj = flow(vf, [1.0], (0.0, 2.0), step=1e-2, bound=1e6)
    buf = io.StringIO()
    traj.write_csv(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,x1"
    assert "# status=blowup(t*=" in text
    buf.seek(0)
    back = read_trajectory_csv(buf)
    assert back.status == "blowup"
    assert back.t_event == pytest.approx(traj.t_event, abs=0)


def test_csv_round_trip_keeps_a_short_last_step():
    vf = VectorFieldTD(1, lambda t, x: [1.0])
    traj = flow(vf, [0.0], (0.0, 0.25), step=0.1)     # steps .1 .1 .05
    buf = io.StringIO()
    traj.write_csv(buf)
    buf.seek(0)
    assert np.array_equal(read_trajectory_csv(buf).times, traj.times)


@pytest.mark.parametrize("text, message", [
    ("t,x1\n0.0,1.0\n0.1,nan\n0.2,1.0\n", "non-finite"),
    ("t,x1\n0.0,1.0\n0.1,1.0\ninf,1.0\n", "non-finite"),
    ("t,x1\n0.0,1.0\n0.1,1.0\n0.3,1.0\n0.4,1.0\n", "not uniform"),
    ("t,x1\n0.0,1.0\n0.1,1.0\n0.1,1.0\n", "not uniform"),
    ("t,x1\n# status=completed\n", "no data rows"),
    ("x1\n0.0\n", "header"),
])
def test_trajectory_csv_rejects_bad_input(text, message):
    with pytest.raises(ValueError, match=message):
        read_trajectory_csv(io.StringIO(text))


def test_csv_row_count_is_capped_where_it_is_read(monkeypatch):
    assert numkernel.MAX_COUNT == cli.MAX_COUNT == 1_000_000
    monkeypatch.setattr(numkernel, "MAX_COUNT", 100)
    rows, _, _ = read_csv_rows(io.StringIO("0.5,1.0\n" * 101))
    assert len(rows) == 101
    served = []

    def endless():
        yield "# a comment\n"
        while True:
            served.append(1)
            yield "0.5,1.0\n"

    with pytest.raises(ValueError, match="more than 101 data rows"):
        read_csv_rows(endless())
    # the reader stops at the first row too many
    assert len(served) == 102
