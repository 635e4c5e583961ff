"""Benchmark of the algpaths library: four closed-loop workloads, end-to-end
metrics, and a traced run for per-layer metrics.

    python3 bench/run.py --workload holonomy-sweep --seed 1 --seconds 25
    python3 bench/run.py --workload all --seed 1 --seconds 25
    python3 bench/run.py --workload cli-cold --seed 1 --seconds 25 --trace 1

Each run builds its inputs from --seed, sets them up several times
(`setup_s` is the median), makes one untimed warm-up call, then calls the
library one call at a time from this single process until --seconds have
passed and the call kinds have come round evenly. Every call's output is
checked; a call that raises or fails a check counts in `failed`.

With --trace 0 the end-to-end times are given at a fixed reference speed:
a fixed kernel, sampled every 30 ms while the run measures, tells how fast
the CPU was during each timed call (see `Speedometer`). The run stays on
one CPU.

With --trace 0 the last line of stdout carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, from calls that alternate
between untraced inputs and inputs built under the span tracer. The line
before it is a JSON report with everything measured: accuracy figures,
per-layer numbers split into set-up and per call, the tracing overhead and
the provenance of the run. Numbers are only comparable between runs with
the same provenance.
"""

import os

# one BLAS thread in this process and in every process it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse                                              # noqa: E402
import bisect                                                # noqa: E402
import gc                                                    # noqa: E402
import json                                                  # noqa: E402
import math                                                  # noqa: E402
import platform                                              # noqa: E402
import resource                                              # noqa: E402
import shutil                                                # noqa: E402
import signal                                                # noqa: E402
import statistics                                            # noqa: E402
import subprocess                                            # noqa: E402
import sys                                                   # noqa: E402
import time                                                  # noqa: E402
import traceback                                             # noqa: E402
from importlib import metadata                               # noqa: E402
from pathlib import Path                                     # noqa: E402

import workloads                                             # noqa: E402
from layertrace import Stat, Tracer                          # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5     # before the loop; one more after every timed call
IMPORT_REPEATS = 3
TAIL_BEYOND = 10

# The host's CPU speed swings by up to 2x within a tenth of a second and
# drifts for minutes, so raw wall times of whole 25 s runs spread by more
# than any useful bound. While a plain run measures, a timer signal
# therefore runs a small fixed reference kernel every SAMPLE_PERIOD_S, and
# each timed interval is reported as its wall time, less the time spent in
# those samples, times REFERENCE_S over the kernel's median time inside it:
# the end-to-end times are seconds at the speed at which the kernel takes
# REFERENCE_S. The kernel is plain interpreter work like the library's
# inner loops (float arithmetic, calls, list and dict traffic, an RK4
# loop); the raw wall times are in the report line. The speed differs
# between vCPUs, so the process and the CLI processes it starts are kept
# on one.
REFERENCE_S = 0.001
REFERENCE_STEPS = 100
SAMPLE_PERIOD_S = 0.03
MIN_SAMPLES = 4       # an interval shorter than that uses the nearest ones

E2E_METRICS = (
    ("setup_s", "s"),
    ("call_s", "s"),
    ("call_tail_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics on the last line of a traced run: every count, and the
# times that are non-zero on every workload. The times that are 0 on a
# workload which never enters their layer are in the report only.
LAYER_EXPORT = (
    ("expr.compile_calls", "count"),
    ("expr.compile_s", "s"),
    ("expr.fn_calls", "count"),
    ("expr.fn_ns_per_call", "ns"),
    ("numkernel.flow_calls", "count"),
    ("numkernel.rk4_steps", "count"),
    ("numkernel.rhs_evals", "count"),
    ("numkernel.flow_self_s", "s"),
    ("numkernel.us_per_step", "us"),
    ("numkernel.domain_checks", "count"),
    ("numkernel.escapes.blowup", "count"),
    ("numkernel.escapes.domain_exit", "count"),
    ("algebroid.anchor_matrix_calls", "count"),
    ("algebroid.bracket_tensor_calls", "count"),
    ("apath.residual_points", "count"),
    ("apath.csv_bytes", "B"),
    ("comorph.lift_path_calls", "count"),
    ("comorph.M_at_calls", "count"),
    ("comorph.rhs_self_s", "s"),
    ("comorph.flows_per_probe", "ratio"),
    ("cli.import_s", "s"),
    ("cli.exit_mismatch", "count"),
    ("trace.overhead_frac", "ratio"),
)

LAYER_REPORT_ONLY = (
    ("expr.parse_s", "s"),
    ("expr.substitute_s", "s"),
    ("algebroid.check_axioms_s", "s"),
    ("apath.homotopy_residual_self_s", "s"),
    ("apath.csv_write_s", "s"),
    ("apath.csv_read_s", "s"),
    ("comorph.lift_path_self_s", "s"),
    ("comorph.lift_homotopy_self_s", "s"),
    ("ehresmann.holonomy_self_s", "s"),
    ("ehresmann.sheet_count_s", "s"),
    ("poisson.cotangent_lift_s", "s"),
    ("poisson.poisson_map_residual_s", "s"),
    ("poisson.complete_map_probe_self_s", "s"),
    ("cli.load_workspace_s", "s"),
    ("cli.run_self_s", "s"),
)

# counters that must repeat exactly for every call of the same kind
DETERMINISM_COUNTERS = ("numkernel.rk4_steps", "numkernel.rhs_evals",
                        "expr.fn_calls")


# ----------------------------------------------------------- provenance --

def git_sha(root):
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------- stats --

def _reference_rhs(t, y):
    return [y[1], 0.1 * math.cos(t) - math.sin(y[0]), 0.5 * y[3], -y[2]]


def reference_s():
    """Wall time of one run of the fixed reference kernel."""
    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for i in range(20 * REFERENCE_STEPS):
        acc += 0.5 * math.sin(i * 1e-3)
        seen[i & 63] = acc
    y, t, h = [0.1, 0.0, 1.0, 0.0], 0.0, 1e-3
    for _ in range(REFERENCE_STEPS):
        k1 = _reference_rhs(t, y)
        k2 = _reference_rhs(t + h / 2, [a + h / 2 * b for a, b in zip(y, k1)])
        k3 = _reference_rhs(t + h / 2, [a + h / 2 * b for a, b in zip(y, k2)])
        k4 = _reference_rhs(t + h, [a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6 * (b + 2 * c + 2 * d + e)
             for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
        t += h
    return time.perf_counter() - t0


class Speedometer:
    """Within `with`, a SIGALRM handler runs the reference kernel every
    SAMPLE_PERIOD_S and records (start, kernel time, handler time)."""

    def __init__(self):
        self.samples = []
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel = reference_s()
        self.samples.append((t0, kernel, time.perf_counter() - t0))

    def __enter__(self):
        self._sample(None, None)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, t0, t1, elasticity):
        """Seconds at reference speed of the interval [t0, t1], for work
        whose time goes as the kernel's to the power `elasticity`.

        Medians, not sums or means: a CLI process on the same CPU can
        preempt a sample, which then holds some of the call's own time."""
        starts = [s[0] for s in self.samples]
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        inside = self.samples[lo:hi]
        busy = len(inside) * statistics.median(s[2] for s in inside) \
            if inside else 0.0
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            lo = max(0, min(bisect.bisect_left(starts, mid) - MIN_SAMPLES // 2,
                            len(starts) - MIN_SAMPLES))
            inside = self.samples[lo:lo + MIN_SAMPLES]
        kernel = statistics.median(s[1] for s in inside)
        return (t1 - t0 - busy) * (REFERENCE_S / kernel) ** elasticity


def tail(durations):
    """(value, percentile): the highest percentile with TAIL_BEYOND calls
    above it; the maximum when there are not that many calls."""
    xs = sorted(durations)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    i = n - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / n


def items_per_s(loop, times):
    """Items of one round of call kinds over that round's time, taking
    each kind's median call, so that a call slowed by the host does not
    count more than any other."""
    period = loop.workload.period
    items, secs = 0, 0.0
    for kind in range(period):
        idx = range(kind, len(times), period)
        items += statistics.median(loop.call_items[i] for i in idx)
        secs += statistics.median(times[i] for i in idx)
    return items / secs


def pin_to_one_cpu():
    """Keep this process, and the processes it starts, on one CPU."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def fresh_import_s():
    """Median time to import algpaths.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import algpaths.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout
        times.append(float(out))
    return statistics.median(times)


# ----------------------------------------------------------------- runs --

class Loop:
    """Closed-loop bookkeeping: timings, failures, accuracy, determinism."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.durations = []
        self.intervals = []   # (start, end) of each timed call
        self.call_items = []  # items completed by each timed call
        self.accuracy = {}
        self.errors = []
        self.first = {}       # call kind -> [signature, counters]

    def run(self, state, k, timed, trace=None):
        """One call of kind k: time it, check it, record it. `trace` is a
        (tracer, out_file) pair for a traced call."""
        w = self.workload
        self.attempted += 1
        before = trace[0].snapshot() if trace else None
        call = trace[0].wrap("bench.call", w.call) if trace else w.call
        t0 = time.perf_counter()
        try:
            if trace and w.name == "cli-cold":
                result = call(state, k, trace_out=trace[1])
            else:
                result = call(state, k)
            t1 = time.perf_counter()
            outcome = w.check(k, result)
        except Exception:
            # a failed call still took its time; it completes no items
            if timed:
                self._timed(t0, time.perf_counter(), 0)
            self.failed += 1
            self.errors.append(f"call {k}: {traceback.format_exc(limit=3)}")
            return
        counters = dict(outcome.counters)
        if trace:
            tracer, out_file = trace
            if w.name == "cli-cold":
                merge_child(tracer, out_file)
            counters.update(layer_counters(delta(before, tracer.snapshot())))
        errors = list(outcome.errors) + self._determinism(k, outcome, counters
                                                          if trace else None)
        if errors:
            self.failed += 1
            self.errors.extend(f"call {k}: {e}" for e in errors)
        for key, val in outcome.accuracy.items():
            self.accuracy[key] = max(self.accuracy.get(key, 0.0), val)
        if timed:
            self._timed(t0, t1, 0 if errors else outcome.items)

    def _timed(self, t0, t1, items):
        self.durations.append(t1 - t0)
        self.intervals.append((t0, t1))
        self.call_items.append(items)

    def _determinism(self, k, outcome, counters):
        kind = k % self.workload.period
        ref = self.first.setdefault(kind, [outcome.signature, None])
        errors = []
        if outcome.signature != ref[0]:
            errors.append("output differs from the first call of its kind")
        if counters is not None:
            picked = {c: counters.get(c, 0) for c in DETERMINISM_COUNTERS}
            if ref[1] is None:
                ref[1] = picked
            elif picked != ref[1]:
                errors.append(f"work counters {picked} differ from the "
                              f"first traced call's {ref[1]}")
        return errors


def timed_setups(workload, repeats, setups):
    """Set up `repeats` times; adds each (start, end) to `setups` and
    returns the last state."""
    state = None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        setups.append((t0, time.perf_counter()))
    return state


def measure(loop, seconds, step, setups):
    """Call step(k) for k = 1, 2, ... until `seconds` have passed and the
    call kinds have come round evenly. A timed set-up follows every call,
    so that `setup_s` samples the whole run like `call_s` does; its result
    is discarded."""
    period = loop.workload.period
    start = time.perf_counter()
    k = 0
    while True:
        k += 1
        step(k)
        timed_setups(loop.workload, 1, setups)
        if k % period == 0 and time.perf_counter() - start >= seconds:
            return time.perf_counter() - start


def plain_run(workload, seconds):
    setups = []
    with Speedometer() as speed:
        state = timed_setups(workload, SETUP_REPEATS, setups)
        loop = Loop(workload)
        loop.run(state, 0, timed=False)
        wall = measure(loop, seconds,
                       lambda k: loop.run(state, k, timed=True), setups)
    return loop, setups, speed, wall


def traced_run(workload, seconds):
    """Alternate untraced calls with calls on inputs set up under the
    tracer; returns the loops for both halves and the tracer."""
    plain_setups = []
    plain_state = timed_setups(workload, SETUP_REPEATS, plain_setups)
    tracer = Tracer()
    tracer.install()
    setup = tracer.wrap("bench.setup", workload.setup)
    t0 = time.perf_counter()
    traced_state = setup()
    traced_setup_s = time.perf_counter() - t0
    setup_snap = tracer.snapshot()
    tracer.uninstall()

    plain, traced = Loop(workload), Loop(workload)
    traced.first = plain.first      # tracing must not change any output
    plain.run(plain_state, 0, timed=False)
    child_out = OUT / f"child-{os.getpid()}.json"

    def step(k):
        plain.run(plain_state, k, timed=True)
        tracer.install()
        try:
            traced.run(traced_state, k, timed=True,
                       trace=(tracer, child_out))
        finally:
            tracer.uninstall()

    wall = measure(plain, seconds, step, plain_setups)
    per_setup = layer_values(delta(({}, {}), setup_snap))
    calls = delta(setup_snap, tracer.snapshot())
    n = max(1, len(traced.durations))
    per_call = {k: v / n for k, v in layer_values(calls).items()}
    return plain, traced, tracer, {
        "plain_setups": plain_setups, "traced_setup_s": traced_setup_s,
        "per_setup": per_setup, "per_call": per_call, "wall": wall}


# ---------------------------------------------------- per-layer numbers --

def delta(before, after):
    stats0, counters0 = before
    stats1, counters1 = after
    stats = {}
    for name, (c, t, s) in stats1.items():
        c0, t0, s0 = stats0.get(name, (0, 0.0, 0.0))
        if c != c0:
            stats[name] = (c - c0, t - t0, s - s0)
    counters = {k: v - counters0.get(k, 0) for k, v in counters1.items()}
    return stats, counters


def merge_child(tracer, path):
    """Add the totals a traced CLI process wrote to `path`."""
    data = json.loads(Path(path).read_text())
    Path(path).unlink()
    for name, (c, t, s) in data["stats"].items():
        st = tracer.stats.setdefault(name, Stat())
        st.count += c
        st.total += t
        st.self_time += s
    for name, v in data["counters"].items():
        tracer.count(name, v)


def layer_counters(d):
    values = layer_values(d)
    return {k: values[k] for k in DETERMINISM_COUNTERS}


def layer_values(d):
    """Additive per-layer quantities from a (stats, counters) delta."""
    stats, counters = d

    def count(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def counter(name):
        return counters.get(name, 0)

    rhs = [n for n in stats if n.endswith(".rhs")]
    return {
        "expr.compile_calls": count("expr.compile_exprs"),
        "expr.compile_s": total("expr.compile_exprs"),
        "expr.parse_s": total("expr.parse"),
        "expr.substitute_s": total("expr.substitute"),
        "expr.fn_calls": count("expr.fn"),
        "expr.fn_s": total("expr.fn"),
        "numkernel.flow_calls": count("numkernel.flow"),
        "numkernel.flow_s": total("numkernel.flow"),
        "numkernel.rk4_steps": counter("numkernel.rk4_steps"),
        "numkernel.rhs_evals": sum(count(n) for n in rhs),
        "numkernel.flow_self_s": self_s("numkernel.flow"),
        "numkernel.domain_checks": count("numkernel.VectorFieldTD.in_domain"),
        "numkernel.escapes.blowup": counter("numkernel.escapes.blowup"),
        "numkernel.escapes.domain_exit":
            counter("numkernel.escapes.domain_exit"),
        "algebroid.anchor_matrix_calls":
            count("algebroid.LieAlgebroid.anchor_matrix"),
        "algebroid.bracket_tensor_calls":
            count("algebroid.LieAlgebroid.bracket_tensor"),
        "algebroid.check_axioms_s": total("algebroid.check_axioms"),
        "apath.homotopy_residual_self_s": self_s("apath.homotopy_residual"),
        "apath.residual_points": counter("apath.residual_points"),
        "apath.csv_write_s": total("apath.AHomotopy.write_csv",
                                   "apath.APath.write_csv"),
        "apath.csv_read_s": total("apath.read_ahomotopy_csv",
                                  "apath.read_apath_csv"),
        "apath.csv_bytes": (counter("apath.csv_bytes_written")
                            + counter("apath.csv_bytes_read")),
        "comorph.lift_path_calls": count("comorph.lift_path"),
        "comorph.lift_path_self_s": self_s("comorph.lift_path"),
        "comorph.lift_homotopy_self_s": self_s("comorph.lift_homotopy"),
        "comorph.M_at_calls": count("comorph.Comorphism.M_at"),
        "comorph.rhs_self_s": self_s("comorph.rhs"),
        "comorph.probe_calls": counter("comorph.probe_calls"),
        "comorph.probe_flows": counter("comorph.probe_flows"),
        "ehresmann.holonomy_self_s": self_s("ehresmann.holonomy"),
        "ehresmann.sheet_count_s": total("ehresmann.sheet_count"),
        "poisson.cotangent_lift_s": total("poisson.cotangent_lift"),
        "poisson.poisson_map_residual_s":
            total("poisson.poisson_map_residual"),
        "poisson.complete_map_probe_self_s":
            self_s("poisson.complete_map_probe"),
        "cli.import_s": counter("cli.import_s"),
        "cli.load_workspace_s": total("cli.load_workspace"),
        "cli.run_self_s": self_s("cli.run"),
        "cli.exit_mismatch": counter("cli.exit_mismatch"),
    }


def layer_metrics(per_setup, per_call, import_s, overhead):
    """Values for one set-up plus one call; ratios from those sums."""
    v = {k: per_setup.get(k, 0) + per_call.get(k, 0) for k in per_call}
    if import_s is not None:
        v["cli.import_s"] = import_s
    out = {k: v[k] for k, _ in LAYER_EXPORT + LAYER_REPORT_ONLY
           if k in v}
    out["expr.fn_ns_per_call"] = (1e9 * v["expr.fn_s"] / v["expr.fn_calls"]
                                  if v["expr.fn_calls"] else 0.0)
    out["numkernel.us_per_step"] = (
        1e6 * v["numkernel.flow_s"] / v["numkernel.rk4_steps"]
        if v["numkernel.rk4_steps"] else 0.0)
    out["comorph.flows_per_probe"] = (
        v["comorph.probe_flows"] / v["comorph.probe_calls"]
        if v["comorph.probe_calls"] else 0.0)
    out["trace.overhead_frac"] = overhead
    return out


# --------------------------------------------------------------- output --

def metric_block(values, table):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in table}


def print_metrics(title, values, table):
    print(f"# {title}")
    for name, unit in table:
        print(f"{name:38s} {values[name]!r} {unit}")


def run_one(args):
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.make(args.workload, args.seed, args.size, workdir,
                           SRC, BENCH)
        report = {"workload": w.name, "seed": args.seed, "size": args.size,
                  "seconds": args.seconds, "trace": args.trace,
                  "item": w.item, "inputs": w.describe(),
                  "provenance": provenance()}
        if args.trace:
            plain, traced, tracer, t = traced_run(w, args.seconds)
            wall = t["wall"]
            loops = (plain, traced)
        else:
            plain, setups, speed, wall = plain_run(w, args.seconds)
            loops = (plain,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    accuracy = {}
    for lp in loops:
        for key, val in lp.accuracy.items():
            accuracy[key] = max(accuracy.get(key, 0.0), val)
    errors = [e for lp in loops for e in lp.errors]
    for e in errors[:20]:
        print(f"FAILED {e}", file=sys.stderr)

    call_tail_wall_s, tail_pct = tail(plain.durations)
    report.update({
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "timed_calls": len(plain.durations),
        "call_durations_s": plain.durations,
        "call_tail_percentile": tail_pct,
        "accuracy": accuracy,
        "wall_s": wall,
    })
    if args.trace:
        overhead = (statistics.median(traced.durations)
                    / statistics.median(plain.durations) - 1.0)
        import_s = None if w.name == "cli-cold" else fresh_import_s()
        layer = layer_metrics(t["per_setup"], t["per_call"], import_s,
                              overhead)
        report.update({
            "traced_calls": len(traced.durations),
            "overhead": {
                "call_s_untraced": statistics.median(plain.durations),
                "call_s_traced": statistics.median(traced.durations),
                "setup_s_untraced":
                    statistics.median(b - a for a, b in t["plain_setups"]),
                "setup_s_traced": t["traced_setup_s"],
            },
            "layers_per_setup": t["per_setup"],
            "layers_per_call": t["per_call"],
            "layers": layer,
            "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
        })
        spans_file = OUT / f"spans-{w.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"spans": tracer.spans, "dropped": tracer.dropped}))
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        table = LAYER_EXPORT
        values = layer
        print_metrics(f"{w.name}: per layer, one set-up plus one call "
                      f"({len(traced.durations)} traced calls)", layer,
                      LAYER_EXPORT + LAYER_REPORT_ONLY)
    else:
        e = w.speed_elasticity
        scaled = [speed.scaled(a, b, e) for a, b in plain.intervals]
        call_tail_s = tail(scaled)[0]
        kernels = [s[1] for s in speed.samples]
        values = {
            "setup_s": statistics.median(speed.scaled(a, b, e)
                                         for a, b in setups),
            "call_s": statistics.median(scaled),
            "call_tail_s": call_tail_s,
            "items_per_s": items_per_s(plain, scaled),
            "peak_rss_mb": peak_rss_mb(children=w.name == "cli-cold"),
        }
        report["wall"] = {
            "setup_s": statistics.median(b - a for a, b in setups),
            "call_s": statistics.median(plain.durations),
            "call_tail_s": call_tail_wall_s,
            "items_per_s": items_per_s(plain, plain.durations),
        }
        report["speed"] = {
            "samples": len(kernels),
            "kernel_s_median": statistics.median(kernels),
            "kernel_s_quartiles": statistics.quantiles(kernels, n=4),
            "busy_frac": (sum(s[2] for s in speed.samples)
                          / (speed.samples[-1][0] - speed.samples[0][0])),
            "calls_at_reference_s": scaled,
        }
        table = E2E_METRICS
        print_metrics(f"{w.name}: end to end ({len(plain.durations)} timed "
                      f"calls, tail = p{tail_pct:.1f})", values, E2E_METRICS)
    print(f"{'failed_frac':38s} {report['failed_frac']!r} 1")
    for key, val in sorted(accuracy.items()):
        print(f"{key:38s} {val!r} {'rad' if 'phase' in key else '1'}")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": metric_block(values, table)}))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for key, val in last["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: fewer lanes and seeds, for the smoke test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "algpaths" / "__init__.py").is_file():
        print(f"bench: no algpaths package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
