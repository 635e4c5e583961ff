"""Command-line interface: configuration ingestion, command dispatch,
and report emission.

Exit codes: 0 on success, 1 on a domain/numeric failure (the report
carries the witness) or a stdout whose reader is gone, 2 on usage or
configuration errors, whose kind run() alone decides. JSON reports
go to stdout and embed the numeric parameters and the PRNG seed used;
CSV payloads go to --out when given (with a JSON summary on stdout),
otherwise to stdout on their own. The sampling seed is taken from
--seed, else the ALGPATHS_SEED environment variable, else 0.
"""

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import expr as ex
from .algebroid import (AlgebroidError, Draws, LieAlgebroid, SectionTD,
                        check_axioms, sample_points)
from .apath import (develop, integrate_apath, admissibility_residual,
                    log_derivative, read_apath_csv, read_ahomotopy_csv,
                    read_matrix_csv)
from .comorph import (Comorphism, LiftError, anchor_compat_residual,
                      completeness_probe, compose, lift_homotopy, lift_path)
from .ehresmann import (ExampleConnection, FlatConnection, GammaElement,
                        circle_loop, density_scan, holonomy, holonomy_sweep,
                        self_intersection_witness, sheet_count,
                        write_sweep_csv)
from .numkernel import MAX_COUNT, FlowError, flow
from .poisson import (PoissonError, PoissonManifold, complete_map_probe,
                      cotangent_lift, hamiltonian_vf, poisson_map_residual)

DEFAULTS = {"step": 1e-3, "bound": 1e8, "horizon": 10.0, "grid": 1000,
            "samples": 100, "seeds": 5}

SPOT_TOL = 1e-8          # load-time axiom spot-check tolerance
SPOT_SAMPLES = 10

# MAX_COUNT bounds --grid, --samples, --seeds, --bins, the --h-grid count
# and a flow's steps (--t1 or --horizon over --step): each sizes an
# allocation or a loop, so an unbounded one is refused up front.


class ConfigError(Exception):
    """A fault of the workspace file, whose message carries a JSON-pointer
    path, or of ALGPATHS_SEED. A flag's fault is a ValueError."""


# ------------------------------------------------------------- converters
# Each flag's converter checks its value; workspace defaults go through
# the converter of the flag of the same name. A converter raises
# ArgumentTypeError, which argparse reports with the flag's name.

def _num(text):
    """Float, accepting exact fractions like '1/3'."""
    text = str(text).strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _finite(value, parse=float, positive=False, low=-math.inf,
            integral=False):
    """`value` parsed by `parse`: finite and at least low, and positive
    and integral when asked."""
    try:
        x = parse(value)
    except (TypeError, ValueError, ZeroDivisionError):
        x = math.nan
    if not (math.isfinite(x) and x >= low and (x > 0.0 or not positive)
            and (x == int(x) or not integral)):
        kind = ("positive" if positive else "finite") + (
            " integral" if integral else "")
        at_least = f" >= {low:g}" if low > -math.inf else ""
        raise argparse.ArgumentTypeError(
            f"expected a {kind} number{at_least}, got {value!r}")
    return x


_positive = functools.partial(_finite, positive=True)
_fraction = functools.partial(_finite, parse=_num)
# a tolerance of 0 asks for exact agreement; below it nothing passes
_tol = functools.partial(_finite, low=0.0)


def _count(value):
    """A positive integer up to MAX_COUNT: integer text from a flag, an
    integral number from a workspace."""
    try:
        n = int(value) if isinstance(value, str) else float(value)
    except (TypeError, ValueError):
        n = 0
    if not (1 <= n <= MAX_COUNT and n == int(n)):
        raise argparse.ArgumentTypeError(
            f"expected an integer from 1 to {MAX_COUNT}, got {value!r}")
    return int(n)


def _seed(value):
    """A non-negative integer, the seeds `algebroid.Draws` takes: its
    stream is numpy's `default_rng(seed).uniform`."""
    try:
        n = int(value)
    except (TypeError, ValueError):
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value!r}")
    return n


def _vector(text):
    return [_finite(v) for v in str(text).split(",")]


def _complex(text):
    """A point of C, 're,im': exactly two finite numbers."""
    z = _vector(text)
    if len(z) != 2:
        raise argparse.ArgumentTypeError(
            f"expected two finite numbers 're,im', got {text!r}")
    return z


def _point_list(text):
    return [_vector(part) for part in str(text).split(";") if part.strip()]


def _range(text):
    """'lo:hi:count' -> list of evenly spaced floats."""
    lo, hi, count = str(text).split(":")
    return list(np.linspace(_finite(lo), _finite(hi), _count(count)))


def _as_typed(convert):
    """Check the text with `convert` but keep it: reports echo it."""
    def check(text):
        convert(text)
        return text
    return check


def _basis(src):
    """Equal-shape finite matrices from a JSON file or inline JSON."""
    try:
        if Path(src).exists():
            src = Path(src).read_text()
    except OSError:          # no usable path: the text is the JSON
        pass
    try:
        basis = [np.asarray(M, dtype=float) for M in json.loads(src)]
    except (ValueError, TypeError) as e:
        raise argparse.ArgumentTypeError(f"not a JSON list of matrices: {e}")
    if not basis or any(M.ndim != 2 or M.shape != basis[0].shape
                        or M.shape[0] != M.shape[1]
                        or not np.isfinite(M).all() for M in basis):
        raise argparse.ArgumentTypeError(
            "must be a list of equal square matrices of finite numbers")
    return basis


def _expr_list(text, variables):
    return [ex.parse(part, variables)
            for part in str(text).split(";") if part.strip()]


# ------------------------------------------------------------------ flags
# The argparse keywords of every flag, declared once; a subcommand in
# _commands() states only what differs there.

FLAGS = {
    **dict.fromkeys(("--name", "--out", "--connection"), {}),
    **dict.fromkeys(("--config", "--comorphism", "--first", "--second",
                     "--source", "--target", "--map"), {"required": True}),
    **dict.fromkeys(("--step", "--bound", "--horizon"), {"type": _positive}),
    **dict.fromkeys(("--grid", "--samples", "--seeds"), {"type": _count}),
    **dict.fromkeys(("--r", "--rp", "--radius"),
                    {"type": _finite, "default": 1.0}),
    **dict.fromkeys(("--h", "--theta", "--theta0", "--tau"),
                    {"type": _fraction, "default": "0.0"}),
    "--seed": {"type": _seed,
               "help": "PRNG seed (default: ALGPATHS_SEED or 0)"},
    "--x0": {"required": True, "type": _vector},
    "--interp": {"choices": ("cubic", "linear"), "default": "cubic"},
    "--tol": {"type": _tol, "default": 1e-8},
    "--t1": {"type": functools.partial(_finite, parse=_num, positive=True)},
    "--bins": {"type": _count, "default": 32},
    "--section": {"required": True,
                  "help": "semicolon-separated expressions in t and the "
                          "base coordinates"},
    "--path": {"required": True,
               "help": "A-path CSV over the target algebroid"},
    "--homotopy": {"required": True,
                   "help": "A-homotopy CSV over the target algebroid"},
    "--gamma": {"required": True, "help": "matrix-path CSV"},
    "--basis": {"required": True, "type": _basis},
    "--f": {"help": "test functions on the target, semicolon-separated "
                    "(default: coordinates plus a cutoff quadratic)"},
    "--nu0": {"type": _as_typed(_fraction),
              "help": "built-in connection twist (fractions allowed)"},
    "--nu": {"required": True, "type": _as_typed(_fraction)},
    "--h-grid": {"type": _range, "help": "'lo:hi:count' sweep over h values"},
    "--tau-max": {"type": _fraction},
    "--z0": {"type": _as_typed(_complex), "default": "1,0"},
    "--z": {"type": _complex, "default": "1,0"},
    # sheet_count takes O(log k_max) steps, so k_max has no cap
    "--k-max": {"type": functools.partial(_finite, low=1, integral=True),
                "default": 1e6},
    "--span-tol": {"type": _tol, "default": 1e-6},
}

GROUPS = {"example3": ("diagnostics for the built-in twisted-cylinder "
                       "connection", "diagnostic"),
          "poisson": ("Poisson-map checks, Hamiltonian flows, lifts, and "
                      "probes", "action")}


# -------------------------------------------------------------- workspace

class Workspace:
    """Named objects from one JSON config plus default parameters."""

    def __init__(self):
        self.algebroids = {}
        self.poisson = {}
        self.comorphisms = {}
        self.connections = {}
        self.defaults = dict(DEFAULTS)


def _reject_duplicate_keys(pairs):
    seen = set()
    for k, _ in pairs:
        if k in seen:
            raise ValueError(f"duplicate name {k!r}")
        seen.add(k)
    return dict(pairs)


def _connection(d, ws):
    if d.get("type") == "example3":
        nu0 = d.get("nu0", "1/3")
        try:
            nu0 = _num(nu0)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"nu0 must be a finite number, got {nu0!r}")
        return ExampleConnection(
            nu0, support=d.get("support", (-0.5, 0.5)),
            slab=d.get("slab", (-1.0, 1.0)))
    x_coords = [str(v) for v in d["x_coords"]]
    phi = [ex.parse(str(s), x_coords) for s in d["phi"]]
    H = [[ex.parse(str(s), x_coords) for s in row] for row in d["H"]]
    dom = [ex.parse(str(s), x_coords) for s in d.get("domain") or []]
    return FlatConnection(x_coords, phi, H, domain=dom)


def _comorphism(d, ws):
    for side in ("source", "target"):
        ref = d.get(side)
        if ref not in ws.algebroids:
            raise ConfigError(f"/{side}: unknown algebroid {ref!r}")
    return Comorphism.from_dict(d, ws.algebroids.__getitem__)


def _check_keys(d, kinds):
    """Refuse an entry that is not a JSON object or has a key its kind does
    not read; kinds maps an entry's "type" (None if it has none) to keys."""
    if not isinstance(d, dict):
        raise ConfigError(": must be a JSON object")
    kind = d.get("type")
    if kind not in list(kinds):     # by ==: a JSON list is unhashable
        raise ConfigError(f"/type: unknown type {kind!r}")
    for key in d:
        if key not in kinds[kind].split():
            raise ConfigError(f"/{key}: unknown key")


# Workspace sections in load order (comorphisms refer to algebroids): an
# entry's keys by type (`_check_keys`), builder, spot-check residual given
# a sampler of SPOT_SAMPLES points, and the check's name and measure.
SECTIONS = {
    "algebroids": ({None: "base_dim rank anchor bracket domain"},
                   lambda d, ws: LieAlgebroid.from_dict(d),
                   lambda A, sample: check_axioms(A, sample(A)).max_residual(),
                   "axiom", "residual"),
    "poisson": ({None: "dim Pi domain"},
                lambda d, ws: PoissonManifold.from_dict(d),
                lambda P, sample: P.jacobi_residual(sample(P)),
                "Jacobi", "residual"),
    # a connection's anchor compatibility is its section property
    "connections": ({None: "x_coords phi H domain",
                     "example3": "type nu0 support slab"}, _connection,
                    lambda fc, sample: anchor_compat_residual(
                        fc, sample(fc.source)),
                    "section", "|Dphi.H - I| ="),
    "comorphisms": ({None: "source target phi M"}, _comorphism,
                    lambda c, sample: anchor_compat_residual(
                        c, sample(c.source)),
                    "anchor-compatibility", "residual"),
}


def load_workspace(path):
    """Parse and fully validate a workspace config; every object gets a
    10-sample axiom spot-check. Errors cite JSON-pointer paths."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except ValueError as e:
        raise ConfigError(f"{path}: malformed JSON: {e}")
    if not isinstance(data, dict):
        raise ConfigError("/: config must be a JSON object")
    # bare single-object configs are accepted as one-entry workspaces
    if "base_dim" in data:
        data = {"algebroids": {"main": data}}
    elif "Pi" in data or ("dim" in data and "algebroids" not in data):
        data = {"poisson": {"main": data}}

    for key, val in data.items():
        if key not in SECTIONS and key != "defaults":
            raise ConfigError(f"/{key}: unknown key")
        if not isinstance(val, (dict, type(None))):
            raise ConfigError(f"/{key}: must be a JSON object")
    ws = Workspace()
    for key, val in (data.get("defaults") or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"/defaults/{key}: unknown parameter")
        try:
            ws.defaults[key] = FLAGS[f"--{key}"]["type"](val)
        except argparse.ArgumentTypeError as e:
            raise ConfigError(f"/defaults/{key}: {e}")
    # load-time checks are deterministic
    sample = functools.partial(sample_points, count=SPOT_SAMPLES,
                               draws=Draws(0))

    for section, (keys, build, residual, check, measure) in SECTIONS.items():
        for name, d in (data.get(section) or {}).items():
            pointer = f"/{section}/{name}"
            if any(name in getattr(ws, other) for other in SECTIONS):
                raise ConfigError(f"{pointer}: duplicate name {name!r}")
            try:
                _check_keys(d, keys)
                obj = build(d, ws)
            except ConfigError as e:     # cites a pointer below the entry
                raise ConfigError(f"{pointer}{e}")
            except (AlgebroidError, PoissonError, ex.ExprError, KeyError,
                    TypeError, ValueError, ZeroDivisionError) as e:
                raise ConfigError(f"{pointer}: {e}")
            try:
                res = residual(obj, sample)
            except (AlgebroidError, ex.ExprError, ArithmeticError) as e:
                raise ConfigError(f"{pointer}: spot-check failed: {e}")
            if not res <= SPOT_TOL:
                raise ConfigError(
                    f"{pointer}: {check} spot-check failed ({measure} "
                    f"{res:.3e} > {SPOT_TOL:.0e} on {SPOT_SAMPLES} samples)")
            getattr(ws, section)[name] = obj
    return ws


# ---------------------------------------------------------------- helpers

def _emit(payload):
    """Print the report as strict JSON: inf, -inf and nan become the
    strings "inf", "-inf" and "nan"."""
    def clean(v):
        if isinstance(v, (np.floating, np.integer)):
            v = float(v)
        elif isinstance(v, np.ndarray):
            v = v.tolist()
        if isinstance(v, float) and not math.isfinite(v):
            if math.isnan(v):
                return "nan"
            return "inf" if v > 0 else "-inf"
        if isinstance(v, dict):
            return {k: clean(w) for k, w in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(w) for w in v]
        return v
    print(json.dumps(clean(payload), indent=2, allow_nan=False))


def _write_csv(write_fn, out_path):
    """Write CSV to out_path (returning True: emit JSON summary too) or
    to stdout (returning False: CSV is the whole output)."""
    if out_path:
        with open(out_path, "w") as f:
            write_fn(f)
        return True
    write_fn(sys.stdout)
    return False


def _read_csv(path, read, *args):
    """read(f, *args) on the open CSV file at path; a malformed file is a
    usage error that names it."""
    with open(path) as f:
        try:
            return read(f, *args)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def _steps(span, name, step):
    """Refuse a flow of more than MAX_COUNT steps of size step over the
    span given as `name`: each step keeps a sample."""
    if span / step > MAX_COUNT:
        raise ValueError(f"{name} {span!r} over step {step!r} is more than "
                         f"{MAX_COUNT} RK4 steps")


def _refuse(args, flags, target):
    """Refuse each of the flags, given to a run that would not read it."""
    for flag in flags.split():
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"{flag} does not apply to {target}")


def _pick(table, name, kind):
    if name is None:
        if len(table) == 1:
            return next(iter(table.items()))
        raise ValueError(
            f"--name required: the workspace defines {len(table)} {kind}")
    if name not in table:
        raise ValueError(f"unknown {kind.rstrip('s')} {name!r}")
    return name, table[name]


# ------------------------------------------------------------- subcommands
# Each handler takes the parsed flags, with the seed and the workspace
# defaults resolved by run(), and the loaded workspace (None without
# --config).

def cmd_check_algebroid(args, ws):
    name, A = _pick(ws.algebroids, args.name, "algebroids")
    rep = check_axioms(A, sample_points(A, args.samples, Draws(args.seed)))
    ok = rep.ok(args.tol)
    _emit({"command": "check-algebroid", "name": name, "seed": args.seed,
           "params": {"samples": args.samples, "tol": args.tol},
           "anchor_residual": rep.anchor_residual,
           "jacobi_residual": rep.jacobi_residual,
           "max_residual": rep.max_residual(), "ok": ok})
    return 0 if ok else 1


def cmd_integrate_path(args, ws):
    name, A = _pick(ws.algebroids, args.name, "algebroids")
    s = SectionTD(A, _expr_list(args.section, ["t"] + A.coords))
    g = integrate_apath(A, s, args.x0, grid_size=args.grid, bound=args.bound)
    if _write_csv(g.write_csv, args.out):
        try:
            residual = admissibility_residual(g)
        except ValueError:
            residual = None    # a prefix shorter than the stencils
        _emit({"command": "integrate-path", "algebroid": name,
               "seed": args.seed,
               "params": {"grid": args.grid, "bound": args.bound},
               **g.ending._asdict(),
               "source": list(g.source), "target": list(g.target),
               "admissibility_residual": residual})
    return 0 if g.completed else 1


def cmd_lift_path(args, ws):
    name, c = _pick(ws.comorphisms, args.comorphism, "comorphisms")
    g = _read_csv(args.path, read_apath_csv, c.target)
    lifted = lift_path(c, g, args.x0, interp=args.interp, bound=args.bound)
    if _write_csv(lifted.write_csv, args.out):
        _emit({"command": "lift-path", "comorphism": name, "seed": args.seed,
               "params": {"interp": args.interp, "bound": args.bound,
                          "grid": len(g.times) - 1},
               **lifted.ending._asdict(),
               "phi_projection_error": lifted.phi_projection_error,
               "source": list(lifted.source), "target": list(lifted.target)})
    return 0 if lifted.completed else 1


def cmd_lift_homotopy(args, ws):
    name, c = _pick(ws.comorphisms, args.comorphism, "comorphisms")
    H = _read_csv(args.homotopy, read_ahomotopy_csv, c.target)
    lifted = lift_homotopy(c, H, args.x0, interp=args.interp,
                           bound=args.bound)
    if _write_csv(lifted.write_csv, args.out):
        _emit({"command": "lift-homotopy", "comorphism": name,
               "seed": args.seed,
               "params": {"interp": args.interp, "bound": args.bound,
                          "grid": [len(H.t_grid), len(H.s_grid)]},
               "residual_x": lifted.residuals[0],
               "residual_eta": lifted.residuals[1],
               "endpoint_spread": lifted.endpoint_spread,
               "endpoint_tol": lifted.endpoint_tol})
    return 0


def cmd_completeness_probe(args, ws):
    name, c = _pick(ws.comorphisms, args.comorphism, "comorphisms")
    s = SectionTD(c.target, _expr_list(args.section,
                                       ["t"] + c.target.coords))
    _steps(args.horizon, "horizon", args.step)
    seeds = (args.x0 if args.x0 is not None
             else sample_points(c.source, args.seeds, Draws(args.seed)))
    verdict = completeness_probe(c, s, args.horizon, args.bound, seeds,
                                 args.step)
    _emit({"command": "completeness-probe", "comorphism": name,
           "seed": args.seed,
           "params": {"horizon": args.horizon, "bound": args.bound,
                      "step": args.step, "n_seeds": len(seeds)},
           **verdict.to_json()})
    return 1 if verdict.escaped else 0


def cmd_compose(args, ws):
    _, c1 = _pick(ws.comorphisms, args.first, "comorphisms")
    _, c2 = _pick(ws.comorphisms, args.second, "comorphisms")
    c = compose(c1, c2)
    pts = sample_points(c.source, SPOT_SAMPLES, Draws(args.seed))
    names = {id(A): name for name, A in ws.algebroids.items()}
    d = c.to_dict(names[id(c1.source)], names[id(c2.target)])
    # two maps within the nesting and length bounds can compose past them;
    # the report's expressions must read back into a workspace
    cells = [(f"phi[{i}]", s) for i, s in enumerate(d["phi"])] + [
        (f"M[{i}][{j}]", s) for i, row in enumerate(d["M"])
        for j, s in enumerate(row)]
    for where, s in cells:
        try:
            ex.parse(s, c.source.coords)
        except ex.ParseError as e:
            raise ValueError(f"the composite's {where} does not parse back "
                             f"({e}); see expr.MAX_DEPTH = {ex.MAX_DEPTH} "
                             f"and expr.MAX_TERMS = {ex.MAX_TERMS}")
    _emit({"command": "compose", "first": args.first, "second": args.second,
           "seed": args.seed, "params": {"samples": SPOT_SAMPLES},
           "anchor_compat_residual": anchor_compat_residual(c, pts),
           "comorphism": d})
    return 0


def cmd_holonomy(args, ws):
    if args.h_grid is not None:
        _refuse(args, "--x0 --h", "a --h-grid sweep, which starts each lane "
                                  "at (radius, 0, z0, h)")
    if args.x0 is not None:
        _refuse(args, "--z0", "a lift from --x0, which gives the whole start")
    z0 = _complex(args.z0 or "1,0")
    if args.connection is None:
        nu0 = args.nu0 or "1/3"
        conn_name = f"example3(nu0={nu0})"
        fc = ExampleConnection(_num(nu0))
    elif ws is None:
        raise ValueError("--connection needs --config")
    else:
        _refuse(args, "--nu0", "a workspace connection, only to the "
                               "built-in twisted cylinder")
        conn_name, fc = _pick(ws.connections, args.connection, "connections")
    twisted = isinstance(fc, ExampleConnection)
    if args.x0 is None and not twisted:
        raise ValueError(f"connection {conn_name!r} is no twisted cylinder: "
                         f"a --h-grid sweep or a lift without --x0 needs one")
    if args.h_grid is not None:
        rows = holonomy_sweep(fc, args.h_grid, radius=args.radius,
                              grid=args.grid, z0=z0, k_max=int(args.k_max))
        if _write_csv(lambda f: write_sweep_csv(rows, f), args.out):
            _emit({"command": "holonomy", "connection": conn_name,
                   "seed": args.seed,
                   "params": {"grid": args.grid, "radius": args.radius,
                              "k_max": int(args.k_max),
                              "h_count": len(args.h_grid)},
                   "rows": len(rows)})
        return 0
    if args.x0 is None:
        h = 0.0 if args.h is None else args.h
        x0 = fc.start(args.radius, z0, h)
    else:
        # the height is the start's, which --h may only repeat
        x0 = args.x0
        h = x0[4] if len(x0) > 4 else None
        if args.h is not None and args.h != h:
            height = ("has no height x0[4]" if h is None
                      else f"has the height x0[4] = {h!r}")
            raise ValueError(f"--h {args.h!r} does not match --x0, which "
                             f"{height}")
    loop = circle_loop(fc, radius=args.radius, grid=args.grid)
    lifted = holonomy(fc, loop, x0)
    payload = {"command": "holonomy", "connection": conn_name,
               "seed": args.seed,
               "params": {"grid": args.grid, "radius": args.radius,
                          "h": h},
               **lifted.ending._asdict(), "phase": lifted.phase,
               "phi_projection_error": lifted.phi_projection_error,
               "start": list(lifted.source), "end": list(lifted.target)}
    if twisted:
        nu = fc.nu(h)
        payload["nu"] = nu
        payload["expected_phase"] = 2.0 * math.pi * nu
        payload["sheets"] = sheet_count(nu, k_max=int(args.k_max))
    _emit(payload)
    return 0 if lifted.completed else 1


def cmd_sheets(args, ws):
    count = sheet_count(_num(args.nu), k_max=int(args.k_max), tol=args.tol)
    print("inf" if count == math.inf else int(count))
    return 0


def cmd_density(args, ws):
    tau_max = (args.tau_max if args.tau_max is not None
               else 1e4 * 2.0 * math.pi)
    rep = density_scan(_num(args.nu), args.theta0, _complex(args.z0),
                       tau_max, args.bins)
    _emit({"command": "example3 density", "seed": args.seed,
           "params": {"theta0": args.theta0, "z0": args.z0},
           **rep._asdict()})
    return 0


def cmd_self_intersect(args, ws):
    fc = ExampleConnection(_num(args.nu))
    rep = self_intersection_witness(fc, args.h, args.tau, r=args.r,
                                    theta=args.theta, rp=args.rp)
    _emit({"command": "example3 self-intersect", "seed": args.seed,
           "params": {"h": args.h, "tau": args.tau, "r": args.r,
                      "theta": args.theta, "rp": args.rp},
           **rep._asdict()})
    return 0


def cmd_gamma(args, ws):
    fc = ExampleConnection(_num(args.nu))
    g = GammaElement(fc, args.r, args.theta, args.rp, args.tau, args.z,
                     args.h)
    _emit({"command": "example3 gamma", "seed": args.seed,
           "params": {"nu0": args.nu},
           "source": list(g.source()), "target": list(g.target()),
           "is_unit": g.is_unit(), "nu_at_h": fc.nu(args.h)})
    return 0


def _poisson_map(args, ws):
    """Source, target and map of a Poisson-map command, its stream of
    sample draws and the head of its report."""
    _, PX = _pick(ws.poisson, args.source, "poisson manifolds")
    _, PY = _pick(ws.poisson, args.target, "poisson manifolds")
    phi = ex.SmoothMap(PX.coords,
                       _expr_list(args.map, PX.coords),
                       domain=PX.domain)
    if len(phi.components) != PY.dim:
        raise ValueError(
            f"--map has {len(phi.components)} components, target has "
            f"dim {PY.dim}")
    head = {"command": f"poisson {args.action}", "source": args.source,
            "target": args.target, "seed": args.seed}
    return PX, PY, phi, Draws(args.seed), head


def cmd_check_map(args, ws):
    PX, PY, phi, draws, head = _poisson_map(args, ws)
    res = poisson_map_residual(phi, PX, PY,
                               sample_points(PX, args.samples, draws))
    ok = res <= args.tol
    _emit({**head, "params": {"samples": args.samples, "tol": args.tol},
           "residual": res, "is_poisson_map": ok})
    return 0 if ok else 1


def cmd_poisson_flow(args, ws):
    name, P = _pick(ws.poisson, args.name, "poisson manifolds")
    t1 = args.t1 if args.t1 is not None else args.horizon
    _steps(t1, "horizon" if args.t1 is None else "t1", args.step)
    f = ex.parse(args.f, P.coords)
    vf = hamiltonian_vf(P, f)
    traj = flow(vf, args.x0, (0.0, t1), step=args.step, bound=args.bound)
    if _write_csv(traj.write_csv, args.out):
        energy = ex.SmoothMap(P.coords, f).eval_unchecked(
            traj.points[::max(1, len(traj.points) // 200)])
        drift = float(np.max(np.abs(energy - energy[0])))
        _emit({"command": "poisson flow", "name": name, "seed": args.seed,
               "params": {"step": args.step, "bound": args.bound, "t1": t1,
                          "f": str(f)},
               **traj.ending._asdict(),
               "endpoint": list(traj.endpoint),
               "energy_drift": drift})
    return 0 if traj.completed else 1


def cmd_poisson_lift(args, ws):
    PX, PY, phi, draws, head = _poisson_map(args, ws)
    pts = sample_points(PX, args.samples, draws)
    c = cotangent_lift(phi, PX, PY, samples=pts, tol=args.tol)
    _emit({**head, "params": {"samples": args.samples, "tol": args.tol},
           "anchor_compat_residual": anchor_compat_residual(
               c, sample_points(c.source, SPOT_SAMPLES, draws)),
           "comorphism": c.to_dict(f"T*{args.source}",
                                   f"T*{args.target}")})
    return 0


def cmd_poisson_probe(args, ws):
    PX, PY, phi, draws, head = _poisson_map(args, ws)
    _steps(args.horizon, "horizon", args.step)
    seeds = (args.x0 if args.x0 is not None
             else sample_points(PX, args.seeds, draws))
    fs = _expr_list(args.f, PY.coords) if args.f is not None else None
    map_samples = sample_points(PX, args.samples, draws)
    rep = complete_map_probe(phi, PX, PY, test_functions=fs,
                             horizon=args.horizon, bound=args.bound,
                             seeds=seeds, map_samples=map_samples,
                             step=args.step)
    escaped = any(e["hamiltonian"]["escaped"] for e in rep.entries)
    _emit({**head,
           "params": {"horizon": args.horizon, "bound": args.bound,
                      "step": args.step, "n_seeds": len(seeds)},
           "all_agree": rep.all_agree, "escaped": escaped,
           "entries": rep.entries})
    return 1 if (escaped or not rep.all_agree) else 0


def _read_apath_auto(path, ws, name):
    if ws is not None:
        _, A = _pick(ws.algebroids, name, "algebroids")
        return _read_csv(path, read_apath_csv, A)
    if name is not None:
        raise ValueError("--name needs --config")
    with open(path) as f:
        header = f.readline().strip().split(",")
    # n and r from the counts; read_apath_csv checks the names
    n = sum(1 for c in header if c.startswith("x"))
    r = sum(1 for c in header if c.startswith("eta"))
    zero = [[ex.Const(0.0) for _ in range(r)] for _ in range(n)]
    return _read_csv(path, read_apath_csv, LieAlgebroid(n, r, zero, {}))


def cmd_develop(args, ws):
    g = _read_apath_auto(args.path, ws, args.name)
    mp = develop(args.basis, g)
    if _write_csv(mp.write_csv, args.out):
        _emit({"command": "develop", "seed": args.seed,
               "params": {"rank": len(args.basis),
                          "matrix_dim": int(args.basis[0].shape[0]),
                          "samples": len(mp.times)},
               "endpoint": mp.endpoint.tolist()})
    return 0


def cmd_logderiv(args, ws):
    mp = _read_csv(args.gamma, read_matrix_csv)
    g = log_derivative(mp, args.basis, span_tol=args.span_tol)
    if _write_csv(g.write_csv, args.out):
        _emit({"command": "logderiv", "seed": args.seed,
               "params": {"rank": len(args.basis),
                          "span_tol": args.span_tol,
                          "samples": len(g.times)},
               "eta_start": list(g.eta[0]), "eta_end": list(g.eta[-1])})
    return 0


# ------------------------------------------------------------------ parser

def _commands():
    """(subcommand, help, handler, flags, differences) of every leaf, in
    help order: flags declared in FLAGS, then the keywords that differ
    there; every leaf also takes --seed. Built per call, so a handler is
    the module's attribute of the moment, a wrapped one included."""
    optional = {"required": False}
    seed_points = {"required": False, "type": _point_list,
                   "help": "explicit seed points 'a,b;c,d'"}
    return [
        ("check-algebroid", "axiom residual report for an algebroid",
         cmd_check_algebroid, "--config --name --samples --tol",
         {"--tol": {"default": 1e-10}}),
        ("integrate-path", "integrate an A-path from a section",
         cmd_integrate_path,
         "--config --name --section --x0 --grid --bound --out", {}),
        ("lift-path", "lift an A-path through a comorphism", cmd_lift_path,
         "--config --comorphism --path --x0 --interp --bound --out", {}),
        ("lift-homotopy", "lift an A-homotopy through a comorphism",
         cmd_lift_homotopy,
         "--config --comorphism --homotopy --x0 --interp --bound --out", {}),
        ("completeness-probe", "flow a pulled-back section from seed points",
         cmd_completeness_probe,
         "--config --comorphism --section --horizon --bound --seeds --x0",
         {"--section": {"help": "target section, semicolon-separated "
                                "expressions"},
          "--seeds": {"help": "number of random seed points"},
          "--x0": seed_points}),
        ("compose", "compose two comorphisms", cmd_compose,
         "--config --first --second", {}),
        ("holonomy", "fiber transport around the unit circle", cmd_holonomy,
         "--config --connection --nu0 --h --h-grid --radius --grid --z0 "
         "--x0 --k-max --out",
         {"--config": optional,
          # absent unless given, so that a run that would not read it
          # can refuse it
          "--z0": {"default": None},
          "--h": {"default": None,
                  "help": "lift height (default: 0, or x0[4] with --x0)"},
          "--x0": {"required": False,
                   "help": "explicit lift start point, whose x0[4] is the "
                           "height (default: loop start with --z0 fiber "
                           "and --h)"}}),
        ("example3 sheets", "order of nu in R/Z", cmd_sheets,
         "--nu --k-max --tol", {"--tol": {"default": 1e-9}}),
        ("example3 density",
         "torus coverage of the (theta', arg z') relation", cmd_density,
         "--nu --theta0 --z0 --tau-max --bins", {}),
        ("example3 self-intersect",
         "equal image, distinct tangent planes at z = 0", cmd_self_intersect,
         "--nu --h --tau --r --theta --rp", {}),
        ("example3 gamma", "source/target of a groupoid element", cmd_gamma,
         "--nu --r --theta --rp --tau --z --h",
         {"--nu": {"required": False, "default": "1/3"}}),
        ("poisson check-map", "Poisson-map residual of a map", cmd_check_map,
         "--config --source --target --map --samples --tol",
         {"--map": {"help": "semicolon-separated component expressions"}}),
        ("poisson flow", "flow a Hamiltonian vector field", cmd_poisson_flow,
         "--config --name --f --x0 --t1 --step --bound --out",
         {"--f": {"required": True, "help": "Hamiltonian expression"}}),
        ("poisson lift", "cotangent-lift comorphism of a Poisson map",
         cmd_poisson_lift, "--config --source --target --map --samples --tol",
         {}),
        ("poisson probe", "dual-route completeness probe of a Poisson map",
         cmd_poisson_probe, "--config --source --target --map --f --horizon "
         "--bound --seeds --x0 --samples", {"--x0": seed_points}),
        ("develop", "develop an A-path over a point into a matrix group",
         cmd_develop, "--path --basis --config --name --out",
         {"--path": {"help": "A-path CSV"}, "--config": optional,
          "--basis": {"help": "JSON list of basis matrices (inline or a "
                              "file)"}}),
        ("logderiv", "logarithmic derivative of a matrix path in a basis",
         cmd_logderiv, "--gamma --basis --span-tol --out", {}),
    ]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="algpaths",
        description="Lie algebroid path integration: A-paths, lifts, "
                    "holonomy, and completeness probes.")
    parsers = {"": parser.add_subparsers(dest="command", required=True)}
    for path, help_, handler, flags, differs in _commands():
        group, _, leaf = path.rpartition(" ")
        if group not in parsers:
            group_help, dest = GROUPS[group]
            parsers[group] = parsers[""].add_parser(
                group, help=group_help).add_subparsers(dest=dest,
                                                       required=True)
        p = parsers[group].add_parser(leaf, help=help_)
        for option in flags.split() + ["--seed"]:
            p.add_argument(option, **{**FLAGS[option],
                                      **differs.get(option, {})})
        p.set_defaults(handler=handler)
    return parser


def run(argv=None):
    """Dispatch one command; returns the exit code. The seed, the
    workspace and the flags that fall back to workspace defaults are
    resolved here, once, before the handler runs."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argparse before Python 3.13 reads "--flag=--" as the value []
        # and skips the flag's converter: "--" is no value, as in
        # "--flag --"
        for a in argv:
            flag, _, value = a.partition("=")
            if value == "--" and flag.startswith("--"):
                parser.error(f"argument {flag}: expected one argument")
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        ws = (load_workspace(args.config)
              if getattr(args, "config", None) is not None else None)
        if args.seed is None:
            try:
                args.seed = _seed(os.environ.get("ALGPATHS_SEED", 0))
            except argparse.ArgumentTypeError as e:
                raise ConfigError(f"ALGPATHS_SEED: {e}")
        for key, value in (DEFAULTS if ws is None else ws.defaults).items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)
        code = args.handler(args, ws)
        sys.stdout.flush()       # a closed stdout fails here, not at exit
        return code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ex.ParseError as e:
        print(f"expression error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader is gone: what is left of the report goes to
        # devnull, so that the flush at exit has nothing to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as e:     # a flag, or a file a flag names
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ex.ExprError, AlgebroidError, FlowError, LiftError,
            PoissonError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
