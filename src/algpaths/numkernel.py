"""Fixed-step RK4 integration for time-dependent vector fields, with
blowup and domain-exit detection.

The single integration routine is `flow`; adaptive behaviour is obtained by
the caller halving the step and rerunning (see `flow_endpoint_order`).
A trajectory stops early in two ways:

* blowup(t*): the euclidean norm of the state exceeds `bound`, or a field
  evaluation produces a non-finite number or raises.
* domain_exit(t*): the domain predicate fails at the new point; t* is then
  bisected to 1e-9 time resolution along the linear interpolant of the last
  accepted RK4 segment.

In both cases the last recorded sample strictly precedes t*.
"""

import math
import re

import numpy as np

from .expr import point


class FlowError(Exception):
    pass


class VectorFieldTD:
    """Time-dependent field (t, x) -> dx/dt on an open subset of R^n.

    fn(t, x) takes a float and a length-n sequence and returns a length-n
    sequence; domain(x) -> bool guards the open set (None means all of R^n).
    """

    def __init__(self, n, fn, domain=None):
        self.n = n
        self.fn = fn
        self.domain = domain

    def __call__(self, t, x):
        return self.fn(t, x)

    def in_domain(self, x):
        if self.domain is None:
            return True
        return bool(self.domain(x))


class FlowOutcome:
    """How an integration ended: status is one of "completed", "blowup",
    "domain_exit"; t_event is the event time t* for the latter two and
    None when completed."""

    @property
    def completed(self):
        return self.status == "completed"

    def status_str(self):
        if self.status == "completed":
            return "completed"
        return f"{self.status}(t*={self.t_event!r})"


class Trajectory(FlowOutcome):
    """Samples of an integral curve plus the reason integration ended."""

    def __init__(self, times, points, status, t_event=None):
        self.times = np.asarray(times, dtype=float)
        self.points = np.asarray(points, dtype=float)
        self.status = status
        self.t_event = t_event
        if self.points.ndim == 1:
            self.points = self.points.reshape(len(self.times), -1)

    @property
    def endpoint(self):
        return self.points[-1]

    def write_csv(self, f):
        n = self.points.shape[1]
        f.write("t," + ",".join(f"x{i+1}" for i in range(n)) + "\n")
        for t, x in zip(self.times, self.points):
            f.write(f"{float(t)!r}," + ",".join(repr(float(v)) for v in x) + "\n")
        f.write(f"# status={self.status_str()}\n")

    def __repr__(self):
        return (f"Trajectory({len(self.times)} samples, "
                f"status={self.status_str()})")


def _finite(x):
    return all(math.isfinite(v) for v in x)


_STATUS_RE = re.compile(r"#\s*status=(\w+)(?:\(t\*=([^)]+)\))?")


GRID_RTOL = 1e-6


def read_csv_rows(f):
    """Rows of floats after the header line of a CSV, and the status of
    its '# status=' trailer: returns (rows, status, t_event), the status
    "completed" when there is no trailer. Other '#' lines are skipped.
    A non-finite cell or a file without rows raises ValueError."""
    rows = []
    status, t_event = "completed", None
    for line in f:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _STATUS_RE.match(line)
            if m:
                status = m.group(1)
                if m.group(2) is not None:
                    t_event = float(m.group(2))
            continue
        row = [float(v) for v in line.split(",")]
        if not _finite(row):
            raise ValueError(f"CSV row {len(rows) + 1} has a non-finite "
                             f"value: {line}")
        rows.append(row)
    if not rows:
        raise ValueError("CSV has no data rows")
    return rows, status, t_event


def check_uniform_grid(times, what="time", short_last=False):
    """Raise ValueError unless the grid steps up evenly: every spacing
    equal to the first up to GRID_RTOL of it. With short_last the last
    spacing may be shorter, as when a flow's span is not a whole number of
    steps."""
    d = np.diff(np.asarray(times, dtype=float))
    if len(d) == 0:
        return
    h = d[0]
    body = d[:-1] if short_last else d
    if not (h > 0.0 and np.all(np.abs(body - h) <= GRID_RTOL * h)
            and (not short_last or 0.0 < d[-1] <= h * (1.0 + GRID_RTOL))):
        raise ValueError(f"{what} grid is not uniform (spacings from "
                         f"{d.min()!r} to {d.max()!r})")


def read_trajectory_csv(f):
    """Inverse of Trajectory.write_csv (header + rows + status comment)."""
    header = f.readline()
    if not header.startswith("t,"):
        raise ValueError("trajectory CSV must start with a 't,x1,...' header")
    rows, status, t_event = read_csv_rows(f)
    check_uniform_grid([v[0] for v in rows], short_last=True)
    return Trajectory([v[0] for v in rows], [v[1:] for v in rows], status,
                      t_event)


def _norm(x):
    return math.sqrt(sum(v * v for v in x))


_EVAL_ERRORS = (ArithmeticError, ValueError)


def _bisect_exit(vf, t0, x0, t1, x1, resolution=1e-9):
    """Bisect the linear segment (t0,x0)->(t1,x1) for the domain boundary.

    Precondition: x0 in domain, x1 not. Returns the first out-of-domain
    time, within `resolution` of the true crossing of the interpolant.
    """
    lo, hi = t0, t1
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        w = (mid - t0) / (t1 - t0)
        xm = [a + w * (b - a) for a, b in zip(x0, x1)]
        if vf.in_domain(xm):
            lo = mid
        else:
            hi = mid
    return hi


def flow(vf, x0, t_span, step=1e-3, bound=1e8):
    """Integrate vf from x0 over t_span=[t_a,t_b] with fixed-step RK4."""
    # plain floats, so that event times print as numbers in status trailers
    t_a, t_b, step = float(t_span[0]), float(t_span[1]), float(step)
    if not t_b > t_a:
        raise FlowError(f"need t_b > t_a, got [{t_a}, {t_b}]")
    if step <= 0 or bound <= 0:
        raise FlowError("step and bound must be positive")
    x = [float(v) for v in x0]
    if len(x) != vf.n:
        raise FlowError(f"x0 has {len(x)} components, the field needs "
                        f"{vf.n}")
    if not _finite(x):
        raise FlowError("x0 is not finite")
    if not vf.in_domain(x):
        raise FlowError(f"x0 = {point(x)} is outside the field's domain")

    n_steps = max(1, math.ceil((t_b - t_a) / step - 1e-12))
    times = [t_a]
    points = [list(x)]
    f = vf.fn
    t = t_a
    for k in range(n_steps):
        t_next = t_b if k == n_steps - 1 else t_a + (k + 1) * step
        h = t_next - t
        try:
            k1 = f(t, x)
            k2 = f(t + 0.5 * h, [xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
            k3 = f(t + 0.5 * h, [xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
            k4 = f(t + h, [xi + h * ki for xi, ki in zip(x, k3)])
            x_next = [xi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                      for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
            stage_ok = _finite(k1) and _finite(x_next)
        except _EVAL_ERRORS:
            stage_ok = False
            k1 = None
        if not stage_ok:
            # a stage blew through the domain boundary or diverged; decide
            # which by probing an Euler predictor when k1 is available
            if k1 is not None and _finite(k1):
                x_pred = [xi + h * ki for xi, ki in zip(x, k1)]
                if _finite(x_pred) and not vf.in_domain(x_pred):
                    t_star = _bisect_exit(vf, t, x, t_next, x_pred)
                    return Trajectory(times, points, "domain_exit", t_star)
            return Trajectory(times, points, "blowup", t_next)
        if not vf.in_domain(x_next):
            t_star = _bisect_exit(vf, t, x, t_next, x_next)
            return Trajectory(times, points, "domain_exit", t_star)
        if _norm(x_next) > bound:
            return Trajectory(times, points, "blowup", t_next)
        t = t_next
        x = x_next
        times.append(t)
        points.append(list(x))
    return Trajectory(times, points, "completed")


def flow_endpoint_order(vf, x0, t_span, step, reference=None):
    """Observed RK4 convergence order from endpoint errors at h and h/2.

    With a `reference` endpoint the errors are measured against it;
    otherwise a run at h/4 serves as the Richardson reference. Returns the
    log2 error ratio (≈ 4 for smooth fields), or the string "exact" when
    both errors vanish identically.
    """
    ends = []
    for h in (step, step / 2.0) + (() if reference is not None else (step / 4.0,)):
        traj = flow(vf, x0, t_span, step=h)
        if not traj.completed:
            raise FlowError(f"order estimate needs completed flows, "
                            f"got {traj.status_str()} at step {h}")
        ends.append(np.asarray(traj.endpoint))
    ref = np.asarray(reference, dtype=float) if reference is not None else ends[2]
    err_h = float(np.linalg.norm(ends[0] - ref))
    err_h2 = float(np.linalg.norm(ends[1] - ref))
    if err_h == 0.0 and err_h2 == 0.0:
        return "exact"
    if err_h2 == 0.0:
        return math.inf
    return math.log2(err_h / err_h2)


__all__ = ["VectorFieldTD", "FlowOutcome", "Trajectory", "flow", "flow_endpoint_order",
           "read_csv_rows", "check_uniform_grid", "read_trajectory_csv",
           "FlowError"]
