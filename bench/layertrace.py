"""Span tracer that wraps the public functions of the algpaths modules from
outside the library.

`Tracer.install()` replaces every public function and method of the
package modules (`__all__`, or the public top-level names of `cli`) with a
wrapper that records a span: name, start, end and the enclosing span.
Three kinds of callable are not module attributes and get wrapped where
they are created instead:

* the functions `expr.compile_exprs` returns, as span `expr.fn`;
* the right-hand-side closures handed to `numkernel.VectorFieldTD`, as
  span `<module>.rhs` (for example `comorph.rhs`).

The expression node classes are left alone: their methods recurse per
node, which would cost more than the work they do.

Self time is accumulated on a stack as spans close: a span's duration minus
the durations of its direct children. A re-entrant call of a span that is
already open (`expr.substitute` recurses through the module global) is not
a new span; its time stays with the outer one. Every span updates the
per-name totals; the first `max_spans` spans are also kept in memory as
(id, parent, name, start, end) records and written out by the caller when
the run ends. `uninstall()` restores every patched attribute.
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("expr", "numkernel", "algebroid", "apath", "comorph",
          "ehresmann", "poisson", "cli")

# Private helpers that are layer boundaries worth a span of their own.
EXTRA = {
    "numkernel": ("_bisect_exit",),
    "comorph": ("_lift_flow", "_fiber_table"),
    "poisson": ("_flow_field_probe",),
}


class Stat:
    __slots__ = ("count", "total", "self_time")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self, max_spans=100_000):
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.stats = {}
        self.counters = {}
        self._stack = []      # open frames: [child_time, span_id, name]
        self._open = {}       # name -> 1 while a span of that name is open
        self._next_id = 0
        self._patches = []
        self._wrapped = {}    # id(original) -> wrapper

    # ------------------------------------------------------------ spans --

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        """Wrapper recording span `name` around fn; after(args, result)
        runs once the span has closed, to derive counters from the call."""
        stack, open_, clock = self._stack, self._open, time.perf_counter
        stat = self.stats.setdefault(name, Stat())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_.get(name):
                return fn(*args, **kwargs)
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id, name]
            stack.append(frame)
            open_[name] = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_[name] = 0
                dur = t1 - t0
                stat.count += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, parent, name, t0, t1))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def snapshot(self):
        """Copy of the per-name totals and counters, for per-call deltas."""
        return ({k: (s.count, s.total, s.self_time)
                 for k, s in self.stats.items()}, dict(self.counters))

    # ---------------------------------------------------------- patching --

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_function(self, layer, qualname, fn, after=None):
        key = id(fn)
        if key not in self._wrapped:
            self._wrapped[key] = self.wrap(f"{layer}.{qualname}", fn, after)
        return self._wrapped[key]

    def install(self):
        """Wrap every public function and method of the package modules,
        in every module namespace that refers to it."""
        modules = {layer: importlib.import_module(f"algpaths.{layer}")
                   for layer in LAYERS}
        hooks = self._hooks(modules)
        expr_node = modules["expr"].Expr
        compile_exprs = modules["expr"].compile_exprs
        originals = {}          # id(fn) -> wrapper
        for layer, mod in modules.items():
            for name in _public_names(mod) + list(EXTRA.get(layer, ())):
                obj = getattr(mod, name)
                if inspect.isclass(obj):
                    if not issubclass(obj, (BaseException, expr_node)):
                        self._wrap_class(layer, obj, hooks)
                elif (inspect.isfunction(obj) and obj is not compile_exprs
                      and obj.__module__ == mod.__name__):
                    originals[id(obj)] = self._wrap_function(
                        layer, name, obj, hooks.get(f"{layer}.{name}"))
        # rebind every module global that refers to a wrapped function,
        # so that `from .comorph import lift_path` call sites see the span
        for mod in list(sys.modules.values()):
            if not (getattr(mod, "__name__", "") or "").startswith("algpaths"):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in originals:
                    self._patch(mod, attr, originals[id(val)])
        self._install_kernel_hooks(modules)

    def _wrap_class(self, layer, cls, hooks):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            qual = f"{cls.__name__}.{attr}"
            after = hooks.get(f"{layer}.{qual}")
            if isinstance(val, (classmethod, staticmethod)):
                inner = self._wrap_function(layer, qual, val.__func__, after)
                self._patch(cls, attr, type(val)(inner))
            elif inspect.isfunction(val):
                self._patch(cls, attr,
                            self._wrap_function(layer, qual, val, after))

    def _install_kernel_hooks(self, modules):
        ex, nk = modules["expr"], modules["numkernel"]
        tracer = self

        compile_exprs = ex.compile_exprs

        def compiled(exprs, variables):
            return tracer.wrap("expr.fn", compile_exprs(exprs, variables))

        self._patch(ex, "compile_exprs",
                    self.wrap("expr.compile_exprs", compiled))

        vf_init = nk.VectorFieldTD.__init__

        def init(vf, n, fn, domain=None):
            layer = fn.__module__.rpartition(".")[2]
            vf_init(vf, n, tracer.wrap(f"{layer}.rhs", fn), domain)

        self._patch(nk.VectorFieldTD, "__init__", init)

    def _hooks(self, modules):
        """Counters derived from arguments and results at a boundary."""
        def flow_done(args, traj):
            self.count("numkernel.rk4_steps",
                       len(traj.times) - 1 + (0 if traj.completed else 1))
            self.count(f"numkernel.escapes.{traj.status}")

        def residual_done(args, result):
            H = args[0]
            self.count("apath.residual_points",
                       max(0, len(H.t_grid) - 2) * max(0, len(H.s_grid) - 2))

        def csv_bytes(counter, position):
            def done(args, result):
                try:
                    n = args[position].tell()
                except (OSError, ValueError):     # a pipe such as stdout
                    return
                self.count(counter, n)
            return done

        csv_written = csv_bytes("apath.csv_bytes_written", 1)
        csv_read = csv_bytes("apath.csv_bytes_read", 0)

        def probed(seeds):
            def done(args, verdict):
                flows = len(seeds(args))
                if verdict.escaped:
                    start = list(verdict.witness[0])
                    flows = 1 + next(i for i, x in enumerate(seeds(args))
                                     if list(x) == start)
                self.count("comorph.probe_calls")
                self.count("comorph.probe_flows", flows)
            return done

        return {
            "numkernel.flow": flow_done,
            # completeness_probe(c, s, horizon, bound, seeds) and
            # _flow_field_probe(vf, horizon, bound, seeds): first-escape
            # probes, which flow seeds only until one escapes
            "comorph.completeness_probe": probed(lambda a: a[4]),
            "poisson._flow_field_probe": probed(lambda a: a[3]),
            "apath.homotopy_residual": residual_done,
            "apath.AHomotopy.write_csv": csv_written,
            "apath.APath.write_csv": csv_written,
            "apath.read_ahomotopy_csv": csv_read,
            "apath.read_apath_csv": csv_read,
        }

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        self._wrapped.clear()


def _public_names(mod):
    names = getattr(mod, "__all__", None)
    if names is not None:
        return list(names)
    return [name for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__]
