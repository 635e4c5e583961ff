"""Command-line interface: configuration ingestion, command dispatch,
and report emission.

Exit codes: 0 on success, 1 on a domain/numeric failure (the report
carries the witness), 2 on usage or configuration errors. JSON reports
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
from .algebroid import (AlgebroidError, LieAlgebroid, SectionTD,
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

# MAX_COUNT bounds --grid, --samples, --seeds, --bins and the --h-grid
# count: each sizes an allocation or a loop, so an unbounded one is refused
# up front.


class ConfigError(Exception):
    """Configuration problem; the message carries a JSON-pointer path."""


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


def _finite(value, parse=float, positive=False):
    """`value` parsed by `parse`: finite, and positive when asked."""
    try:
        x = parse(value)
    except (TypeError, ValueError, ZeroDivisionError):
        x = math.nan
    if not math.isfinite(x) or (positive and x <= 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a {'positive' if positive else 'finite'} number, "
            f"got {value!r}")
    return x


_positive = functools.partial(_finite, positive=True)
_fraction = functools.partial(_finite, parse=_num)


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
    """A non-negative integer, the seeds numpy's generators take."""
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
    "--tol": {"type": _finite, "default": 1e-8},
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
    "--nu0": {"type": _as_typed(_fraction), "default": "1/3",
              "help": "built-in connection twist (fractions allowed)"},
    "--nu": {"required": True, "type": _as_typed(_fraction)},
    "--h-grid": {"type": _range, "help": "'lo:hi:count' sweep over h values"},
    "--tau-max": {"type": _fraction},
    "--z0": {"type": _as_typed(_vector), "default": "1,0"},
    "--z": {"type": _vector, "default": "1,0"},
    "--k-max": {"type": _finite, "default": 1e6},
    "--span-tol": {"type": _finite, "default": 1e-6},
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
        return ExampleConnection(
            _num(d.get("nu0", "1/3")),
            support=tuple(d.get("support", (-0.5, 0.5))),
            slab=tuple(d.get("slab", (-1.0, 1.0))))
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


# Workspace sections in load order (comorphisms refer to algebroids):
# builder, spot-check residual given a sampler of SPOT_SAMPLES points,
# and the check's name and measure.
SECTIONS = {
    "algebroids": (lambda d, ws: LieAlgebroid.from_dict(d),
                   lambda A, sample: check_axioms(A, sample(A)).max_residual(),
                   "axiom", "residual"),
    "poisson": (lambda d, ws: PoissonManifold.from_dict(d),
                lambda P, sample: P.jacobi_residual(sample(P)),
                "Jacobi", "residual"),
    "connections": (_connection,
                    lambda fc, sample: fc.section_residual(
                        sample(fc.as_comorphism().source)),
                    "section", "|Dphi.H - I| ="),
    "comorphisms": (_comorphism,
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
                               rng=np.random.default_rng(0))

    for section, (build, residual, check, measure) in SECTIONS.items():
        for name, d in (data.get(section) or {}).items():
            pointer = f"/{section}/{name}"
            if any(name in getattr(ws, other) for other in SECTIONS):
                raise ConfigError(f"{pointer}: duplicate name {name!r}")
            try:
                obj = build(d, ws)
            except ConfigError as e:     # cites a pointer below the entry
                raise ConfigError(f"{pointer}{e}")
            except (AlgebroidError, PoissonError, ex.ExprError, KeyError,
                    TypeError, ValueError) as e:
                raise ConfigError(f"{pointer}: {e}")
            try:
                res = residual(obj, sample)
            except (AlgebroidError, ex.ExprError) as e:
                raise ConfigError(f"{pointer}: spot-check failed: {e}")
            if not res <= SPOT_TOL:
                raise ConfigError(
                    f"{pointer}: {check} spot-check failed ({measure} "
                    f"{res:.3e} > {SPOT_TOL:.0e} on {SPOT_SAMPLES} samples)")
            getattr(ws, section)[name] = obj
    return ws


# ---------------------------------------------------------------- helpers

def _jdefault(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _emit(payload):
    def clean(v):
        if isinstance(v, float) and math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if isinstance(v, dict):
            return {k: clean(w) for k, w in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(w) for w in v]
        return v
    print(json.dumps(clean(payload), indent=2, default=_jdefault))


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


def _pick(table, name, kind):
    if name is None:
        if len(table) == 1:
            return next(iter(table.items()))
        raise ConfigError(
            f"--name required: the workspace defines {len(table)} {kind}")
    if name not in table:
        raise ConfigError(f"unknown {kind.rstrip('s')} {name!r}")
    return name, table[name]


# ------------------------------------------------------------- subcommands
# Each handler takes the parsed flags, with the seed and the workspace
# defaults resolved by run(), and the loaded workspace (None without
# --config).

def cmd_check_algebroid(args, ws):
    name, A = _pick(ws.algebroids, args.name, "algebroids")
    rng = np.random.default_rng(args.seed)
    rep = check_axioms(A, sample_points(A, args.samples, rng))
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
        payload = {"command": "integrate-path", "algebroid": name,
                   "seed": args.seed,
                   "params": {"grid": args.grid, "bound": args.bound},
                   "status": g.status, "t_star": g.t_event,
                   "source": list(g.source), "target": list(g.target)}
        try:
            payload["admissibility_residual"] = admissibility_residual(g)
        except (AlgebroidError, ValueError, IndexError):
            pass
        _emit(payload)
    return 0 if g.completed else 1


def cmd_lift_path(args, ws):
    name, c = _pick(ws.comorphisms, args.comorphism, "comorphisms")
    g = _read_csv(args.path, read_apath_csv, c.target)
    lifted = lift_path(c, g, args.x0, interp=args.interp, bound=args.bound)
    if _write_csv(lifted.write_csv, args.out):
        _emit({"command": "lift-path", "comorphism": name, "seed": args.seed,
               "params": {"interp": args.interp, "bound": args.bound,
                          "grid": len(g.times) - 1},
               "status": lifted.status, "t_star": lifted.t_event,
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
               "endpoint_spread": lifted.endpoint_spread})
    return 0


def cmd_completeness_probe(args, ws):
    name, c = _pick(ws.comorphisms, args.comorphism, "comorphisms")
    s = SectionTD(c.target, _expr_list(args.section,
                                       ["t"] + c.target.coords))
    seeds = args.x0 or sample_points(c.source, args.seeds,
                                     np.random.default_rng(args.seed))
    verdict = completeness_probe(c, s, args.horizon, args.bound, seeds,
                                 args.step)
    payload = {"command": "completeness-probe", "comorphism": name,
               "seed": args.seed,
               "params": {"horizon": args.horizon, "bound": args.bound,
                          "step": args.step, "n_seeds": len(seeds)}}
    payload.update(verdict.to_json())
    _emit(payload)
    return 1 if verdict.escaped else 0


def cmd_compose(args, ws):
    _, c1 = _pick(ws.comorphisms, args.first, "comorphisms")
    _, c2 = _pick(ws.comorphisms, args.second, "comorphisms")
    c = compose(c1, c2)
    pts = sample_points(c.source, SPOT_SAMPLES,
                        np.random.default_rng(args.seed))
    names = {id(A): name for name, A in ws.algebroids.items()}
    _emit({"command": "compose", "first": args.first, "second": args.second,
           "seed": args.seed, "params": {"samples": SPOT_SAMPLES},
           "anchor_compat_residual": anchor_compat_residual(c, pts),
           "comorphism": c.to_dict(names[id(c1.source)],
                                   names[id(c2.target)])})
    return 0


def cmd_holonomy(args, ws):
    if args.connection is None:
        conn_name = f"example3(nu0={args.nu0})"
        fc = ExampleConnection(_num(args.nu0))
    elif ws is None:
        raise ConfigError("--connection needs --config")
    else:
        conn_name, fc = _pick(ws.connections, args.connection, "connections")
    z0 = _vector(args.z0)
    if args.h_grid is not None:
        rows = holonomy_sweep(fc, args.h_grid, radius=args.radius,
                              grid=args.grid, z0=tuple(z0),
                              k_max=int(args.k_max))
        if _write_csv(lambda f: write_sweep_csv(rows, f), args.out):
            _emit({"command": "holonomy", "connection": conn_name,
                   "seed": args.seed,
                   "params": {"grid": args.grid, "radius": args.radius,
                              "k_max": int(args.k_max),
                              "h_count": len(args.h_grid)},
                   "rows": len(rows)})
        return 0
    loop = circle_loop(fc, radius=args.radius, grid=args.grid)
    x0 = args.x0 or [args.radius, 0.0, z0[0], z0[1], args.h]
    rep = holonomy(fc, loop, x0)
    nu = fc.nu(args.h) if hasattr(fc, "nu") else None
    payload = {"command": "holonomy", "connection": conn_name,
               "seed": args.seed,
               "params": {"grid": args.grid, "radius": args.radius,
                          "h": args.h},
               "status": rep.status, "t_star": rep.t_event,
               "phase": rep.phase,
               "phi_projection_error": rep.phi_projection_error,
               "start": list(rep.start), "end": list(rep.end)}
    if nu is not None:
        payload["nu"] = nu
        payload["expected_phase"] = 2.0 * math.pi * nu
        payload["sheets"] = sheet_count(nu, k_max=int(args.k_max))
    _emit(payload)
    return 0 if rep.completed else 1


def cmd_sheets(args, ws):
    count = sheet_count(_num(args.nu), k_max=int(args.k_max), tol=args.tol)
    print("inf" if count == math.inf else int(count))
    return 0


def cmd_density(args, ws):
    tau_max = (args.tau_max if args.tau_max is not None
               else 1e4 * 2.0 * math.pi)
    rep = density_scan(_num(args.nu), args.theta0, _vector(args.z0),
                       tau_max, args.bins)
    payload = {"command": "example3 density", "seed": args.seed,
               "params": {"theta0": args.theta0, "z0": args.z0}}
    payload.update(rep.to_json())
    _emit(payload)
    return 0


def cmd_self_intersect(args, ws):
    fc = ExampleConnection(_num(args.nu))
    rep = self_intersection_witness(fc, args.h, args.tau, r=args.r,
                                    theta=args.theta, rp=args.rp)
    _emit({"command": "example3 self-intersect", "seed": args.seed,
           "params": {"h": args.h, "tau": args.tau, "r": args.r,
                      "theta": args.theta, "rp": args.rp},
           "nu": rep.nu, "image_mismatch": rep.image_mismatch,
           "gap": rep.gap, "expected_gap": rep.expected_gap,
           "degenerate": rep.degenerate})
    return 0


def cmd_gamma(args, ws):
    fc = ExampleConnection(_num(args.nu))
    try:
        g = GammaElement(fc, args.r, args.theta, args.rp, args.tau,
                         (args.z[0], args.z[1]), args.h)
    except ValueError as e:
        raise ConfigError(str(e))
    _emit({"command": "example3 gamma", "seed": args.seed,
           "params": {"nu0": args.nu},
           "source": list(g.source()), "target": list(g.target()),
           "is_unit": g.is_unit(), "nu_at_h": fc.nu(args.h)})
    return 0


def _poisson_map(args, ws):
    """Source, target and map of a Poisson-map command, its random
    generator and the head of its report."""
    _, PX = _pick(ws.poisson, args.source, "poisson manifolds")
    _, PY = _pick(ws.poisson, args.target, "poisson manifolds")
    phi = ex.SmoothMap(PX.coords,
                       _expr_list(args.map, PX.coords),
                       domain=PX.domain)
    if len(phi.components) != PY.dim:
        raise ConfigError(
            f"--map has {len(phi.components)} components, target has "
            f"dim {PY.dim}")
    head = {"command": f"poisson {args.action}", "source": args.source,
            "target": args.target, "seed": args.seed}
    return PX, PY, phi, np.random.default_rng(args.seed), head


def cmd_check_map(args, ws):
    PX, PY, phi, rng, head = _poisson_map(args, ws)
    res = poisson_map_residual(phi, PX, PY,
                               sample_points(PX, args.samples, rng))
    ok = res <= args.tol
    _emit({**head, "params": {"samples": args.samples, "tol": args.tol},
           "residual": res, "is_poisson_map": ok})
    return 0 if ok else 1


def cmd_poisson_flow(args, ws):
    name, P = _pick(ws.poisson, args.name, "poisson manifolds")
    t1 = args.t1 if args.t1 is not None else args.horizon
    f = ex.parse(args.f, P.coords)
    vf = hamiltonian_vf(P, f)
    traj = flow(vf, args.x0, (0.0, t1), step=args.step, bound=args.bound)
    if _write_csv(traj.write_csv, args.out):
        ffn = ex.compile_exprs([f], P.coords)
        drift = max(abs(ffn(*p)[0] - ffn(*traj.points[0])[0])
                    for p in traj.points[::max(1, len(traj.points) // 200)])
        _emit({"command": "poisson flow", "name": name, "seed": args.seed,
               "params": {"step": args.step, "bound": args.bound, "t1": t1,
                          "f": str(f)},
               "status": traj.status, "t_star": traj.t_event,
               "endpoint": list(traj.endpoint),
               "energy_drift": drift})
    return 0 if traj.completed else 1


def cmd_poisson_lift(args, ws):
    PX, PY, phi, rng, head = _poisson_map(args, ws)
    pts = sample_points(PX, args.samples, rng)
    c = cotangent_lift(phi, PX, PY, samples=pts, tol=args.tol)
    _emit({**head, "params": {"samples": args.samples, "tol": args.tol},
           "anchor_compat_residual": anchor_compat_residual(
               c, sample_points(c.source, SPOT_SAMPLES, rng)),
           "comorphism": c.to_dict(f"T*{args.source}",
                                   f"T*{args.target}")})
    return 0


def cmd_poisson_probe(args, ws):
    PX, PY, phi, rng, head = _poisson_map(args, ws)
    seeds = args.x0 or sample_points(PX, args.seeds, rng)
    fs = _expr_list(args.f, PY.coords) if args.f else None
    map_samples = sample_points(PX, args.samples, rng)
    rep = complete_map_probe(phi, PX, PY, test_functions=fs,
                             horizon=args.horizon, bound=args.bound,
                             seeds=seeds, map_samples=map_samples,
                             step=args.step)
    escaped = any(e["hamiltonian"]["escaped"] for e in rep.entries)
    payload = {**head,
               "params": {"horizon": args.horizon, "bound": args.bound,
                          "step": args.step, "n_seeds": len(seeds)},
               "all_agree": rep.all_agree, "escaped": escaped}
    payload["entries"] = rep.to_json()["entries"]
    _emit(payload)
    return 1 if (escaped or not rep.all_agree) else 0


def _read_apath_auto(path, ws, name):
    if ws is not None and (name is not None or len(ws.algebroids) == 1):
        _, A = _pick(ws.algebroids, name, "algebroids")
        return _read_csv(path, read_apath_csv, A)
    with open(path) as f:
        header = f.readline().strip().split(",")
    n = sum(1 for c in header if c.startswith("x"))
    r = sum(1 for c in header if c.startswith("eta"))
    if header[:1] != ["t"] or 1 + n + r != len(header):
        raise ConfigError(f"{path}: not an A-path CSV header")
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
          "--x0": {"required": False,
                   "help": "explicit lift start point (default: loop start "
                           "with --z0 fiber and --h)"}}),
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
    try:
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
        return args.handler(args, ws)
    except (ConfigError, OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ex.ParseError as e:
        print(f"expression error: {e}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ex.ExprError, AlgebroidError, FlowError, LiftError,
            PoissonError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
