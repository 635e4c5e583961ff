"""Fixed-step RK4 integration for time-dependent vector fields, with
blowup and domain-exit detection.

The integration routine is `flow_lanes`, which flows one field from many
start points, or over many tables, as independent lanes of one call; `flow`
is its one-lane case. Adaptive behaviour is obtained by the caller halving
the step and rerunning.
Fields and domain predicates are functions compiled by
`expr.compile_exprs`; the stepping loop (`_rk4_source`) is straight-line
Python that runs their kept bodies inline, with no call, in each stage
and in the domain test after each step, with scalar locals for the state
and the floats of a plain per-step loop. It is kept on the field's body,
so equal sources share one loop. A field is its function and its domain;
what drives it besides the state is an argument of the flow: the time, or
a table sampled at the stage times, one per lane, such as the fiber data
of a sampled path that a lift follows. A trajectory stops early in two
ways:

* blowup(t*): the euclidean norm of the state exceeds `bound`, or a field
  evaluation produces a non-finite number or raises.
* domain_exit(t*): the domain predicate fails at the new point; t* is then
  bisected to BISECT_RESOLUTION in time along the linear interpolant of
  the last accepted RK4 segment.

In both cases the last recorded sample strictly precedes t*. One `Ending`
records how a flow ended, for its trajectory, trailer, witness and report.

`stage_table` tabulates sampled data at the stage times of such a flow,
linearly or by the not-a-knot cubic spline (`not_a_knot_table`), for the
fields driven by sampled paths: lifts and matrix-group developments.
"""

import math
import re
import sys
from typing import NamedTuple

import numpy as np

from .expr import SOURCE_GLOBALS, Body, Domain, point


class FlowError(Exception):
    pass


class StartError(FlowError, ValueError):
    """A start point or probe seed that is no point of the field's domain
    (of another length, not finite, or outside it): bad input, so also a
    ValueError, where an escape later on is a flow's result."""


class VectorFieldTD:
    """Time-dependent field (t, x) -> dx/dt on an open subset of R^n.

    fn is a function compiled by `expr.compile_exprs` over ("t", *coords),
    or, for a flow given a table, over (*row, *coords): fn(t, x0, ...,
    x{n-1}) returns dx/dt as its first n values; `flow` records the
    further ones (a section's values, a lift's M) on its trajectory.
    domain is the `expr.Domain` that guards the open set; None means all
    of R^n. `flow` writes the kept bodies of fn and of domain.fn into its
    stepping loop, and refuses functions without them.
    """

    def __init__(self, n, fn, domain=None):
        if domain is None:
            domain = Domain(None, 0)
        elif not isinstance(domain, Domain):
            raise TypeError(f"domain must be an expr.Domain, got "
                            f"{type(domain).__name__}")
        self.n, self.fn, self.domain = n, fn, domain

    def in_domain(self, x):
        return self.domain(x)


class Ending(NamedTuple):
    """How a flow ended: status "completed", "blowup" or "domain_exit",
    and the event time t_star, None only when completed. str() is the
    text of a CSV's '# status=' trailer, which `parse` reads back, and
    `_asdict()` the fields of a report."""

    status: str
    t_star: "float | None" = None

    @property
    def completed(self):
        return self.status == "completed"

    def __str__(self):
        return ("completed" if self.completed
                else f"{self.status}(t*={self.t_star!r})")

    @classmethod
    def parse(cls, text):
        """The ending whose str() is text; ValueError for any other text,
        such as another status or a t* that is not a finite float."""
        if text == "completed":
            return COMPLETED
        status, _, rest = text.partition("(t*=")
        try:
            t_star = float(rest[:-1])
        except ValueError:
            t_star = math.nan
        if not (status in ("blowup", "domain_exit") and rest.endswith(")")
                and math.isfinite(t_star)):
            raise ValueError(f"flow ending {text!r} is not 'completed' or "
                             f"'<blowup|domain_exit>(t*=<finite time>)'")
        return cls(status, t_star)


COMPLETED = Ending("completed")


class FlowOutcome:
    """The status and completed of a record's `ending`."""

    @property
    def status(self):
        return self.ending.status

    @property
    def completed(self):
        return self.ending.completed


class Trajectory(FlowOutcome):
    """Samples of an integral curve plus the reason integration ended, and
    `extras`, the field's e extra values at every sample but the last:
    one (len(times) - 1, e) float array, with e = 0 when none are given."""

    def __init__(self, times, points, ending=COMPLETED, extras=None):
        self.times = np.asarray(times, dtype=float)
        self.points = np.asarray(points, dtype=float)
        self.ending = ending
        self.extras = (np.empty((len(self.times) - 1, 0)) if extras is None
                       else extras)

    @property
    def endpoint(self):
        return self.points[-1]

    @staticmethod
    def columns(n):
        """The CSV header of a trajectory in R^n."""
        return ["t"] + [f"x{i+1}" for i in range(n)]

    def write_csv(self, f):
        write_csv_rows(f, self.columns(self.points.shape[1]),
                       [self.times, *self.points.T], self.ending)

    def __repr__(self):
        return f"Trajectory({len(self.times)} samples, status={self.ending})"


def _finite(x):
    return all(math.isfinite(v) for v in x)


GRID_RTOL = 1e-6

# Largest count that outside input may ask for: a CSV holds at most
# MAX_COUNT + 1 data rows (the samples of MAX_COUNT steps), and the CLI
# bounds its counts by it.
MAX_COUNT = 1_000_000

# Rows per formatted block of write_csv_rows: one string of a block stays
# small next to the table it formats.
CSV_BLOCK_ROWS = 2048


def write_csv_rows(f, header, columns, ending=None):
    """Write the header names, one line per row of the table given by its
    columns, one per name, and the '# status=' trailer of an `Ending` when
    one is given; the inverse of read_csv_rows. A column is a float array,
    each cell written as the repr of a Python float, which reads back to
    the same bits, or a list of str, the text of its cells (so a caller
    that repeats values formats each once). Rows are written in blocks of
    up to CSV_BLOCK_ROWS, each with one join over the block's cells."""
    f.write(",".join(header) + "\n")
    for i in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        cells = [c[i:i + CSV_BLOCK_ROWS] if isinstance(c, list)
                 else map(repr, c[i:i + CSV_BLOCK_ROWS].tolist())
                 for c in columns]
        f.write("\n".join(map(",".join, zip(*cells))) + "\n")
    if ending is not None:
        f.write(f"# status={ending}\n")


def read_csv(f, columns, what):
    """read_csv_rows after a CSV's header line. ValueError unless the
    header's cells are exactly columns(header), in order: the columns its
    writer writes."""
    header = f.readline().strip().split(",")
    names = columns(header)
    if header != names:
        raise ValueError(f"{what} CSV header must be {','.join(names)}")
    return read_csv_rows(f, len(header))


def read_csv_rows(f, width):
    """The data rows after the header line of a CSV, as one 2-D float
    array, and the `Ending` of its '# status=' trailer: returns (table,
    ending), COMPLETED when there is no trailer. Other '#' lines are
    skipped. Once all rows are read, ValueError names the first row
    without `width` cells (the header's count), then the first with a
    non-finite cell, found by one check over the table, then the first
    trailer that `Ending.parse` refuses (the last trailer counts). It is
    also raised for a file without rows, and for one with a row past
    MAX_COUNT + 1, where reading stops.

    numpy's loadtxt parses the rows. When it refuses a row, or the rows
    are not `width` cells wide, `_parse_rows` parses them again, one
    float() per cell, which names the first bad row or accepts what
    float() accepts."""
    rows, trailers = [], []
    for line in f:
        line = line.strip()
        if line.startswith("#"):
            text = line[1:].lstrip()
            if text.startswith("status="):
                trailers.append(text[len("status="):])
        elif line:
            rows.append(line)
            if len(rows) > MAX_COUNT + 1:
                break
    if not rows:
        raise ValueError("CSV has no data rows")
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = None
    if table is not None and len(table) > MAX_COUNT + 1:
        raise ValueError(f"CSV has more than {MAX_COUNT + 1} data rows")
    if table is None or table.shape[1] != width:
        table = _parse_rows(rows, width)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if len(bad):
        raise ValueError(f"CSV row {bad[0] + 1} has a non-finite value: "
                         f"{','.join(map(repr, table[bad[0]].tolist()))}")
    endings = [COMPLETED] + [Ending.parse(text) for text in trailers]
    return table, endings[-1]


def _parse_rows(lines, width):
    """The data lines as a table, each cell parsed by float(): ValueError
    on reaching a row past MAX_COUNT + 1, then, once all are parsed, for
    the first row without `width` cells."""
    rows = []
    for line in lines:
        if len(rows) > MAX_COUNT:
            raise ValueError(f"CSV has more than {MAX_COUNT + 1} data rows")
        rows.append(list(map(float, line.split(","))))
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"CSV row {k + 1} has {len(row)} cells, the "
                             f"header {width}: {','.join(map(repr, row))}")
    return np.array(rows)


def check_uniform_grid(times, what="time"):
    """Raise ValueError unless the grid steps up evenly: every spacing
    equal to the first up to GRID_RTOL of it."""
    d = np.diff(np.asarray(times, dtype=float))
    if len(d) == 0:
        return
    h = d[0]
    if not (h > 0.0 and np.all(np.abs(d - h) <= GRID_RTOL * h)):
        raise ValueError(f"{what} grid is not uniform (spacings from "
                         f"{float(d.min())!r} to {float(d.max())!r})")


BISECT_RESOLUTION = 1e-9      # in time, of a domain exit's t*


def _bisect_exit(vf, t0, x0, t1, x1):
    """Bisect the linear segment (t0,x0)->(t1,x1) for the domain boundary.

    Precondition: x0 in domain, x1 not. Returns the first out-of-domain
    time, within BISECT_RESOLUTION of the interpolant's true crossing.
    """
    lo, hi = t0, t1
    while hi - lo > BISECT_RESOLUTION:
        mid = 0.5 * (lo + hi)
        w = (mid - t0) / (t1 - t0)
        xm = [a + w * (b - a) for a, b in zip(x0, x1)]
        if vf.in_domain(xm):
            lo = mid
        else:
            hi = mid
    return hi


def _compiled_body(fn, params, values, what):
    """fn's `expr.Body`, kept by `expr.compile_exprs` with its numbering
    and plan: TypeError unless it takes `params` arguments (with params
    None, `values` or more) and has `values` or more values."""
    body = getattr(fn, "body", None)
    if params is None:
        params = max(getattr(body, "params", 0), values)
    if not (isinstance(body, Body) and body.plan is not None
            and body.params == params and len(body.outs) >= values):
        raise TypeError(f"{what} must be compiled by expr.compile_exprs "
                        f"over {params} variables with at least {values} "
                        f"values, got {fn!r}")
    return body


def _plan(body, n):
    """Per value of the kept body of a field on R^n, a pair (c, i): the
    number c it is, else None, and the state coordinate x_i it is, else
    None, read from the body's `plan` (the state is its last n
    parameters). Only an extra value (past the n) with neither is kept by
    the loop and recorded; `flow` fills the column of each other with
    its number, or with the x_i of the points."""
    first = body.params - n
    return [(c, None if p is None or p < first else p - first)
            for c, p in body.plan]


def _rk4_source(n, width, field, m, dom):
    """Source of the RK4 stepping loop for states of dimension n, the kept
    `expr.Body` field of a field that takes the time (width None) or
    `width` values from each stage's row of a table, and the body dom of
    m domain predicates.

    The state lives in the scalar locals x0..x{n-1}. Each stage runs field
    inline (`Body.inline`) at the time, or at the stage's row of the
    table, and the stage's state: step k reads rows 2k, 2k+1, 2k+1, 2k+2,
    unpacked before the stages, the first of which keeps field's computed
    extra values (see `_plan`) in e0.., and the loop binds the new state's
    squared norm s = y0 * y0 + ... (left to right) and tests the new state
    y0.. in this order: finiteness, only when not s <= thr; the domain,
    with dom inline, each predicate compared with 0.0 (no test
    when m is 0); the bound, s > over. `flow` passes over, the largest
    double whose sqrt is at most the bound (`_square_bound`), so s > over
    is sqrt(s) > bound, and thr = min(over, the largest finite double), so
    s <= thr shows every y_i finite. A k1 value that is not finite makes
    its y_i not finite, since h6 is finite, so only the y_i are tested.
    The loop appends every accepted step's state and kept e0.. to the one
    flat list record; it returns None when all n_steps are taken, and
    `flow` builds the accepted times. At the first step k that fails it
    returns (cause, k, x, t_next, v), x the last accepted state: cause
    "stage" when a stage raised (v None) or the new state is not finite (v
    is k1's first n values), "domain" when the new state v is outside the
    domain, "bound" when its norm exceeds the bound (v None). On R^0 there
    is no state and no norm.

    Work that no step changes runs once, before the steps: the bounds
    -inf and inf of the finiteness tests are bound to locals there, and
    the stage time th is written only when the field reads it. A
    coordinate whose field value is the number 0.0 or -0.0 keeps its
    value: as h >= 0 is finite, y_i = x_i + h6 * (...) adds 0.0, which
    only turns a -0.0 start into 0.0, or adds -0.0. So the loop binds
    z_i = x_i + 0.0 (x_i for -0.0) before the steps, which every stage
    but the first reads, as do y_i = z_i and the domain test. Such a
    coordinate binds no k_i, and its new value is not tested for
    finiteness (x_i was, when the flow started). `Body.split`
    moves what the field and the domain compute from those coordinates
    and constants alone (never the time, a table cell or a gate's arm)
    before the steps: the field's at x_i (pa0.., for the first stage,
    which takes pz's values after each step) and at z_i (pz0..), the
    domain's at z_i (py0..). A moved field value that raises ends the
    flow as its first step would; a moved domain value that raises
    becomes nan, which fails the first step's domain test as the raise
    did: every run of the body computes each moved value, and compiled
    source turns a nan operand into nan or raises."""
    idx = range(n)

    def seq(fmt):
        return [fmt.format(i=i) for i in idx]

    def each(fmt, sep=", "):
        return sep.join(seq(fmt))

    def block(lines):
        return "".join(line + "\n" for line in lines)

    if width is None:
        fetch = ""
        inputs = [["t"], ["th"], ["th"], ["t + h"]]
    else:
        rows = [[f"q{r}_{i}" for i in range(width)] for r in range(3)]
        fetch = "        j = 2 * k\n" + "".join(
            f"        {', '.join(row)}, = table[{at}]\n"
            for row, at in zip(rows, ["j", "j + 1", "j + 2"]) if width)
        inputs = [rows[0], rows[1], rows[1], rows[2]]
    plan = _plan(field, n)
    # the coordinates whose value never changes, with the source of their
    # z_i, and z: the state as every stage but the first reads it
    zero = {i: f"x{i}" + " + 0.0" * (math.copysign(1.0, c) > 0)
            for i, (c, _) in enumerate(plan[:n]) if c == 0.0}
    z = [f"z{i}" if i in zero else f"x{i}" for i in idx]
    moving = [i for i in idx if i not in zero]
    extras = [f"e{j}" if p == (None, None) else "_"
              for j, p in enumerate(plan[n:])]
    kept = [e for e in extras if e != "_"]
    pre, field = field.split([len(inputs[0]) + i for i in zero])
    pa, pz = ([f"p{s}{j}" for j in range(len(pre.outs))] for s in "az")

    def later(fmt):
        return [z[i] if i in zero else fmt.format(i=i) for i in idx]

    # a fixed coordinate's value is a number, which is not written
    stages = "\n".join(
        line for tag, args, state, moved in zip(
            "abcd", inputs, [seq("x{i}"), later("x{i} + hh * a{i}"),
                             later("x{i} + hh * b{i}"),
                             later("x{i} + h * c{i}")], [pa, pz, pz, pz])
        for line in field.inline(
            args + state + moved,
            [f"{tag}{i}" if i not in zero else "_" for i in idx]
            + (extras if tag == "a" else []), tag, " " * 12))
    new_state = "\n".join(
        f"            y{i} = z{i}" if i in zero else
        f"            y{i} = x{i} + h6 * (a{i} + 2.0 * b{i} + 2.0 * c{i}"
        f" + d{i})" for i in idx)

    x, y = each("x{i}"), each("y{i}")
    before = block(f"    z{i} = {src}" for i, src in zero.items())
    if pa:
        before += f"""\
    try:
{block(pre.inline(inputs[0] + seq("x{i}"), pa, "pa", " " * 8))}\
{block(pre.inline(inputs[0] + z, pz, "pz", " " * 8))}\
    except EVAL_ERRORS:
        return "stage", 0, [{x}], t_b if last == 0 else t_a + step, None
"""
    py = []
    if m:
        dpre, dom = dom.split(list(zero))
        py = [f"py{j}" for j in range(len(dpre.outs))]
    if py:
        before += f"""\
    try:
{block(dpre.inline(z, py, "py", " " * 8))}\
    except EVAL_ERRORS:
        {" = ".join(py)} = _nan
"""
    # s <= thr shows every y_i finite; ninf < v < inf is math.isfinite(v)
    # for floats and numpy scalars alike, and comparing a nan raises no
    # warning
    finite = " and ".join(f"ninf < y{i} < inf" for i in moving)
    k1 = ", ".join(field.outs[i] if i in zero else f"a{i}" for i in idx)
    finite_test = "" if not moving else f"""\
        if not s <= thr:
            if not ({finite}):
                return "stage", k, [{x}], t_next, [{k1}]
"""
    domain_test = "" if not m else f"""\
        try:
{chr(10).join(dom.inline(seq("y{i}") + py, [f"g{i}" for i in range(m)],
                         "y", " " * 12))}
        except EVAL_ERRORS:
            return "domain", k, [{x}], t_next, [{y}]
        if not ({" and ".join(f"g{i} > 0.0" for i in range(m))}):
            return "domain", k, [{x}], t_next, [{y}]
"""
    square = "" if not n else f"        s = {each('y{i} * y{i}', ' + ')}\n"
    bound_test = "" if not n else f"""\
        if s > over:
            return "bound", k, [{x}], t_next, None
"""
    stage_time = ("        th = t + hh\n" if re.search(r"\bth\b", stages)
                  else "")
    recorded = ", ".join(seq("y{i}") + kept)
    record = recorded and f"        record += {recorded},\n"
    return f"""\
def rk4_loop(table, x, t_a, t_b, step, n_steps, over, thr, record):
{f"    {x}, = x{chr(10)}" if n else ""}\
    t = t_a
    last = n_steps - 1
    ninf, inf = -_inf, _inf
{before}\
    for k in range(n_steps):
        t_next = t_b if k == last else t_a + (k + 1) * step
        h = t_next - t
        hh = 0.5 * h
{stage_time}\
{fetch}\
        try:
{stages}
            h6 = h / 6.0
{new_state}
        except EVAL_ERRORS:
            return "stage", k, [{x}], t_next, None
{square}\
{finite_test}\
{domain_test}\
{bound_test}\
        t = t_next
{block(seq("        x{i} = y{i}"))}\
{block(f"        {a} = {b}" for a, b in zip(pa, pz))}\
{record}\
    return None
"""


def _rk4_loop(vf, tabulated):
    """The stepping loop for vf, whose field reads the time or, tabulated,
    its inputs other than the state from table rows, generated and
    compiled on first use (see _rk4_source) and kept in the `body.loops`
    of the field's function, with its source, `loop.source`, and the
    `_plan` of the field's extra values: `loop.extra_row` (the numbers,
    0.0 for the others), `loop.copies` (pairs (j, i), value j the x_i)
    and `loop.kept` (the computed ones, recorded after each state). Its
    scope's __name__ attributes a warning raised in the loop to this
    module."""
    dom = vf.domain
    field = _compiled_body(vf.fn, None if tabulated else vf.n + 1, vf.n,
                           "the field")
    width = field.params - vf.n if tabulated else None
    dom_body = dom.m and _compiled_body(dom.fn, vf.n, dom.m, "the domain")
    # the domain by its source, so that a domain compiled again (after
    # expr evicted it) finds the loop it had
    key = (vf.n, width, dom.m, dom_body and (dom_body.lines, dom_body.outs))
    loop = field.loops.get(key)
    if loop is None:
        scope = {**SOURCE_GLOBALS, "__name__": __name__,
                 "EVAL_ERRORS": (ArithmeticError, ValueError)}
        src = _rk4_source(vf.n, width, field, dom.m, dom_body)
        exec(compile(src, "<rk4 loop>", "exec"), scope)
        # popped, so that the loop and its scope are no reference cycle
        # and go with the field's function
        loop = field.loops[key] = scope.pop("rk4_loop")
        loop.source = src
        plan = _plan(field, vf.n)[vf.n:]
        loop.extra_row = np.array([0.0 if c is None else c for c, _ in plan])
        loop.kept = [j for j, p in enumerate(plan) if p == (None, None)]
        loop.copies = [(j, i) for j, (_, i) in enumerate(plan)
                       if i is not None]
    return loop


def _square_bound(bound):
    """The largest double whose sqrt is at most bound, inf for an infinite
    bound: as sqrt is correctly rounded, and so never decreases,
    sqrt(s) > bound exactly when s > _square_bound(bound), for any s >= 0
    up to inf."""
    if bound == math.inf:
        return bound
    big = sys.float_info.max
    over = min(bound * bound, big)
    while math.sqrt(over) > bound:
        over = math.nextafter(over, 0.0)
    while over < big and math.sqrt(math.nextafter(over, big)) <= bound:
        over = math.nextafter(over, big)
    return over


def flow_lanes(vf, starts, t_span, step=1e-3, bound=1e8, tables=None):
    """Integrate vf over t_span=[t_a,t_b] with fixed-step RK4 from each of
    the start points, one independent lane each: the list of their
    `Trajectory`s, each with its own prefix and `Ending`.

    The field reads the time, or, given tables, lane l reads tables[l]:
    step k's four stages read its rows 2k, 2k+1, 2k+1 and 2k+2, each the
    field's inputs other than the state, so a flow of n_steps steps needs
    2 * n_steps + 1 rows of `fn.body.params - vf.n` cells. A table is a
    list of rows, read as it is, or a float array, converted by `tolist()`
    just before its lane runs, so that one lane's rows are nested at a
    time.

    A lane takes the fewest steps that cover the span, the last ending at
    t_b. The count is rounded up from span / step less a relative 1e-12,
    so that a step of span / m takes exactly m steps. The checks, the
    loop (`_rk4_loop`) and its bounds over and thr (see `_rk4_source`)
    are taken once per call, and every start point and table is checked
    before the first lane runs: a table of another shape raises FlowError
    naming its lane. The loop then runs once per lane, in order, each
    lane appending its accepted steps to one flat record, which is
    converted once (`np.fromiter`), the field's extra values of all lanes
    filled in one pass, the columns the loop does not record as `_plan`
    says; each lane then takes its rows, its points after its start and
    its extra values. The loop keeps no times: the j-th
    accepted one is built after it as t_a + j * step, the loop's t_next,
    and a completed lane's last is t_b. On R^0 (vf.n = 0) a lane's points
    are (K + 1, 0)."""
    # plain floats, so that event times print as numbers in status trailers
    t_a, t_b, step = float(t_span[0]), float(t_span[1]), float(step)
    if not t_b > t_a:
        raise FlowError(f"need t_b > t_a, got [{t_a}, {t_b}]")
    # negated, so that nan is refused too; an infinite bound is no bound
    if not step > 0 or not bound > 0:
        raise FlowError("step and bound must be positive")
    n_steps = max(1, math.ceil((t_b - t_a) / step * (1.0 - 1e-12)))
    loop = _rk4_loop(vf, tables is not None)
    xs = [[float(v) for v in x0] for x0 in starts]
    if tables is not None:
        _check_tables(vf, tables, len(xs), n_steps)
    for x in xs:
        if len(x) != vf.n:
            raise StartError(f"x0 has {len(x)} components, the field needs "
                             f"{vf.n}")
        if not _finite(x):
            raise StartError("x0 is not finite")
        if not vf.in_domain(x):
            raise StartError(f"x0 = {point(x)} is outside the field's "
                             f"domain")
    over = _square_bound(float(bound))
    thr = min(over, sys.float_info.max)
    # each accepted step's new state and kept extra values, flat, lane
    # after lane
    record, fails = [], []
    for x, table in zip(xs, [None] * len(xs) if tables is None else tables):
        fails.append(loop(table.tolist() if isinstance(table, np.ndarray)
                          else table, x, t_a, t_b, step, n_steps, over, thr,
                          record))
    counts = [n_steps if f is None else f[1] for f in fails]
    total, width = sum(counts), vf.n + len(loop.kept)
    rows = np.fromiter(record, float, count=total * width).reshape(total,
                                                                   width)
    extras = np.repeat(loop.extra_row[None], total, axis=0)
    extras[:, loop.kept] = rows[:, vf.n:]
    times = t_a + np.arange(n_steps + 1) * step
    times[0] = t_a                          # a -0.0 keeps its sign
    times[-1] = t_b
    lanes, at = [], 0                       # at: the lane's first row
    for x, failed, k in zip(xs, fails, counts):
        points = np.empty((k + 1, vf.n))
        points[0], points[1:] = x, rows[at:at + k, :vf.n]
        lane_extras = extras[at:at + k]
        for j, i in loop.copies:
            lane_extras[:, j] = points[:-1, i]
        # a lane that stops early has accepted k < n_steps steps, so its
        # times are a prefix that ends before t_b
        ending = (COMPLETED if failed is None
                  else _ending(vf, failed, times[k].item()))
        lanes.append(Trajectory(times[:k + 1].copy(), points, ending,
                                lane_extras))
        at += k
    return lanes


def _ending(vf, failed, t):
    """The `Ending` of a lane whose loop returned failed, (cause, k, x,
    t_next, v) as `_rk4_source` says, after its last accepted time t."""
    cause, _, x, t_next, v = failed
    if cause == "stage" and v is not None and _finite(v):
        # a stage blew through the domain boundary or diverged; decide
        # which by probing an Euler predictor v
        h = t_next - t
        v = [xi + h * ki for xi, ki in zip(x, v)]
        if _finite(v) and not vf.in_domain(v):
            cause = "domain"
    if cause == "domain":
        return Ending("domain_exit", _bisect_exit(vf, t, x, t_next, v))
    return Ending("blowup", t_next)


def _check_tables(vf, tables, n, n_steps):
    """Raise FlowError unless there is one table for each of the n lanes,
    each of 2 * n_steps + 1 rows of the field's inputs other than the
    state: an array's shape, or a list's row count and the one length of
    its rows, must be (rows, inputs)."""
    shape = (2 * n_steps + 1, vf.fn.body.params - vf.n)
    if len(tables) != n:
        raise FlowError(f"{n} lanes need as many tables, got {len(tables)}")
    for l, table in enumerate(tables):
        try:
            got = (table.shape if isinstance(table, np.ndarray)
                   else (len(table), *sorted(set(map(len, table)))))
        except TypeError:                   # a row that is no sequence
            got = None
        if got != shape:
            raise FlowError(f"lane {l}'s table must have {shape[0]} rows "
                            f"of the field's {shape[1]} inputs other than "
                            f"the state, got shape {got}")


def flow(vf, x0, t_span, step=1e-3, bound=1e8, table=None):
    """Integrate vf from x0 over t_span=[t_a,t_b] with fixed-step RK4, the
    field reading the time or the table's rows: the `Trajectory` of the
    one lane of `flow_lanes`."""
    return flow_lanes(vf, [x0], t_span, step, bound,
                      None if table is None else [table])[0]


def _slope_equations(x, m):
    """Lower, diagonal and upper entries, and right-hand sides (one row
    per spline, from its secant slopes m), of the equations for the knot
    slopes of the not-a-knot cubic spline on knots x, set up as scipy's
    CubicSpline does. Interior row i matches S'' across x[i]; the end rows
    make S''' continuous across x[1] and x[-2] (de Boor, ch. IV). On 3
    knots the two ask the same, so S is the parabola through them; on 2,
    the line."""
    dx = np.diff(x)
    lower = np.concatenate([[0.0], dx[1:], [0.0]])
    diag = np.concatenate([[1.0], 2.0 * (dx[:-1] + dx[1:]), [1.0]])
    upper = np.concatenate([[0.0], dx[:-1], [0.0]])
    rhs = np.empty((len(m), len(x)))
    rhs[:, 1:-1] = 3 * (dx[1:] * m[:, :-1] + dx[:-1] * m[:, 1:])
    if len(x) == 2:
        rhs[:, 0] = rhs[:, 1] = m[:, 0]
    elif len(x) == 3:
        lower[-1] = upper[0] = 1.0
        rhs[:, 0], rhs[:, -1] = 2.0 * m[:, 0], 2.0 * m[:, -1]
    else:
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        diag[0], upper[0], diag[-1], lower[-1] = dx[1], d0, dx[-2], d1
        rhs[:, 0] = ((dx[0] + 2 * d0) * dx[1] * m[:, 0]
                     + dx[0] ** 2 * m[:, 1]) / d0
        rhs[:, -1] = (dx[-1] ** 2 * m[:, -2]
                      + (2 * d1 + dx[-1]) * dx[-2] * m[:, -1]) / d1
    return lower, diag, upper, rhs


# The column count from which `not_a_knot_table` sweeps all columns at
# once, one numpy row operation per knot, rather than one column at a time
# on plain floats: a row operation costs about 1.6 us per knot, a column
# about 75 ns per knot
SWEEP_ALL_COLUMNS = 24


def _thomas(v, facts, pivots, upper):
    """The forward and backward passes of a Thomas sweep, in place, with
    the elimination factors and pivots of tridiagonal equations whose
    upper diagonal is upper: v[i] is the right-hand side at knot i, a
    float (one column) or a numpy row (all columns), and the solution
    once the passes are done; returns v. Each entry of a row takes the
    float operations of a column, in the same order."""
    for i, f in enumerate(facts, 1):
        v[i] = v[i] - f * v[i - 1]
    v[-1] = v[-1] / pivots[-1]
    for i in range(len(v) - 2, -1, -1):
        v[i] = (v[i] - upper[i] * v[i + 1]) / pivots[i]
    return v


def not_a_knot_table(x, y, t):
    """Values at the times t of the not-a-knot cubic spline through
    (x[i], y[i]), splining each column of the (n, k) array y on its own.

    t holds (n-1)*q + 1 times: q in each interval [x[i], x[i+1]), the
    last at x[-1]. The knot slopes solve the spline's tridiagonal
    equations by one Thomas sweep (`_thomas`): the pivots and elimination
    factors depend on x only and are plain floats, computed knot by knot;
    the forward and backward passes then run column by column on plain
    floats, or, from SWEEP_ALL_COLUMNS columns on, as one numpy row
    operation per knot for all the columns at once, with the same bits.
    Each time is evaluated in its own interval. Equations, coefficients
    and order of operations are those of scipy's CubicSpline, so on 4 or
    more knots the values are its values to the bit, unless its solver
    pivots.
    Fewer than 2 knots raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    yt = np.asarray(y, dtype=float).T          # one row per spline
    if len(x) < 2:
        raise ValueError(f"a spline needs at least 2 knots, got {len(x)}")
    n, q = len(x), (len(t) - 1) // (len(x) - 1)
    dx = np.diff(x)
    m = np.diff(yt) / dx
    lower, diag, upper, rhs = _slope_equations(x, m)
    # the pivots, on plain floats: numpy scalars cost 10x per operation
    p = diag[0].item()
    pivots = [p]
    for a, b, c in zip(lower[1:].tolist(), diag[1:].tolist(),
                       upper.tolist()):
        p = b - a / p * c
        pivots.append(p)
    facts, up = (lower[1:] / pivots[:-1]).tolist(), upper.tolist()
    if len(rhs) < SWEEP_ALL_COLUMNS:
        s = np.array([_thomas(row, facts, pivots, up)
                      for row in rhs.tolist()])
    else:
        s = _thomas(rhs.T.copy(), facts, pivots, up).T
    tt = (s[:, :-1] + s[:, 1:] - 2 * m) / dx
    coef = [tt / dx, (m - s[:, :-1]) / dx - tt, s[:, :-1], yt[:, :-1]]

    def at(u, c0, c1, c2, c3):
        u2 = u * u
        return ((c3 + c2 * u) + c1 * u2) + c0 * (u2 * u)

    t = np.asarray(t, dtype=float)
    # body[b, j, i]: spline b at the j-th time of interval i
    body = at(t[:-1].reshape(n - 1, q).T - x[:-1],
              *(ci[:, None] for ci in coef))
    last = at(t[-1] - x[-2], *(ci[:, -1] for ci in coef))
    return np.concatenate([body.transpose(2, 1, 0).reshape(-1, len(s)),
                           last[None]])


def stage_table(times, values, interp, refine=1):
    """Each column of the (len(times), k) array values, interpolated
    ("cubic": `not_a_knot_table`, or "linear") at the 2m + 1 stage times
    of an m-step flow over the grid refined `refine` times: returns m and
    the (2m + 1, k) table, which a flow of m steps reads (see
    `flow_lanes`); with no columns (k = 0, a rank-0 fiber) it is empty."""
    if interp not in ("cubic", "linear"):
        raise ValueError(f"unknown interpolation {interp!r}")
    m = (len(times) - 1) * refine
    stage_t = np.linspace(times[0], times[-1], 2 * m + 1)
    if not values.shape[1]:
        table = np.empty((2 * m + 1, 0))
    elif interp == "cubic":
        table = not_a_knot_table(times, values, stage_t)
    else:
        table = np.stack([np.interp(stage_t, times, values[:, b])
                          for b in range(values.shape[1])], axis=1)
    return m, table


__all__ = ["VectorFieldTD", "Ending", "COMPLETED", "FlowOutcome",
           "Trajectory", "flow", "flow_lanes", "not_a_knot_table",
           "stage_table", "read_csv", "read_csv_rows", "write_csv_rows",
           "check_uniform_grid", "FlowError"]
