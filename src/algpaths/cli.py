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
from .numkernel import FlowError, flow
from .poisson import (PoissonError, PoissonManifold, complete_map_probe,
                      cotangent_lift, hamiltonian_vf, poisson_map_residual)

DEFAULTS = {"step": 1e-3, "bound": 1e8, "horizon": 10.0, "grid": 1000,
            "samples": 100, "seeds": 5}

SPOT_TOL = 1e-8          # load-time axiom spot-check tolerance
SPOT_SAMPLES = 10


class ConfigError(Exception):
    """Configuration problem; the message carries a JSON-pointer path."""


class Workspace:
    """Named objects from one JSON config plus default parameters."""

    def __init__(self):
        self.algebroids = {}
        self.poisson = {}
        self.comorphisms = {}
        self.comorph_refs = {}
        self.connections = {}
        self.defaults = dict(DEFAULTS)


def _reject_duplicate_keys(pairs):
    seen = set()
    for k, _ in pairs:
        if k in seen:
            raise ValueError(f"duplicate name {k!r}")
        seen.add(k)
    return dict(pairs)


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
        ws.defaults[key] = float(val)
    rng = np.random.default_rng(0)   # load-time checks are deterministic

    names = set()

    def claim(pointer, name):
        if name in names:
            raise ConfigError(f"{pointer}: duplicate name {name!r}")
        names.add(name)

    for name, d in (data.get("algebroids") or {}).items():
        pointer = f"/algebroids/{name}"
        claim(pointer, name)
        try:
            A = LieAlgebroid.from_dict(d)
        except (AlgebroidError, ex.ExprError, KeyError, TypeError,
                ValueError) as e:
            raise ConfigError(f"{pointer}: {e}")
        try:
            rep = check_axioms(A, sample_points(A, SPOT_SAMPLES, rng))
        except (AlgebroidError, ex.ExprError) as e:
            raise ConfigError(f"{pointer}: spot-check failed: {e}")
        if rep.max_residual() > SPOT_TOL:
            raise ConfigError(
                f"{pointer}: axiom spot-check failed (residual "
                f"{rep.max_residual():.3e} > {SPOT_TOL:.0e} on "
                f"{SPOT_SAMPLES} samples)")
        ws.algebroids[name] = A

    for name, d in (data.get("poisson") or {}).items():
        pointer = f"/poisson/{name}"
        claim(pointer, name)
        try:
            P = PoissonManifold.from_dict(d)
        except (PoissonError, ex.ExprError, KeyError, TypeError,
                ValueError) as e:
            raise ConfigError(f"{pointer}: {e}")
        try:
            res = P.jacobi_residual(sample_points(P, SPOT_SAMPLES, rng))
        except (AlgebroidError, ex.ExprError) as e:
            raise ConfigError(f"{pointer}: spot-check failed: {e}")
        if res > SPOT_TOL:
            raise ConfigError(
                f"{pointer}: Jacobi spot-check failed (residual "
                f"{res:.3e} > {SPOT_TOL:.0e} on {SPOT_SAMPLES} samples)")
        ws.poisson[name] = P

    for name, d in (data.get("connections") or {}).items():
        pointer = f"/connections/{name}"
        claim(pointer, name)
        try:
            if d.get("type") == "example3":
                fc = ExampleConnection(
                    _num(d.get("nu0", "1/3")),
                    support=tuple(d.get("support", (-0.5, 0.5))),
                    slab=tuple(d.get("slab", (-1.0, 1.0))))
            else:
                x_coords = [str(v) for v in d["x_coords"]]
                phi = [ex.parse(str(s), x_coords) for s in d["phi"]]
                H = [[ex.parse(str(s), x_coords) for s in row]
                     for row in d["H"]]
                dom = [ex.parse(str(s), x_coords)
                       for s in d.get("domain") or []]
                fc = FlatConnection(x_coords, phi, H, domain=dom)
        except (AlgebroidError, ex.ExprError, KeyError, TypeError,
                ValueError) as e:
            raise ConfigError(f"{pointer}: {e}")
        try:
            pts = sample_points(fc.as_comorphism().source, SPOT_SAMPLES, rng)
            res = fc.section_residual(pts)
        except (AlgebroidError, ex.ExprError) as e:
            raise ConfigError(f"{pointer}: spot-check failed: {e}")
        if res > SPOT_TOL:
            raise ConfigError(
                f"{pointer}: section spot-check failed (|Dphi.H - I| = "
                f"{res:.3e} > {SPOT_TOL:.0e} on {SPOT_SAMPLES} samples)")
        ws.connections[name] = fc

    for name, d in (data.get("comorphisms") or {}).items():
        pointer = f"/comorphisms/{name}"
        claim(pointer, name)
        for side in ("source", "target"):
            ref = d.get(side)
            if ref not in ws.algebroids:
                raise ConfigError(
                    f"{pointer}/{side}: unknown algebroid {ref!r}")
        try:
            c = Comorphism.from_dict(d, ws.algebroids.__getitem__)
        except (AlgebroidError, ex.ExprError, KeyError, TypeError,
                ValueError) as e:
            raise ConfigError(f"{pointer}: {e}")
        try:
            res = anchor_compat_residual(
                c, sample_points(c.source, SPOT_SAMPLES, rng))
        except (AlgebroidError, ex.ExprError) as e:
            raise ConfigError(f"{pointer}: spot-check failed: {e}")
        if res > SPOT_TOL:
            raise ConfigError(
                f"{pointer}: anchor-compatibility spot-check failed "
                f"(residual {res:.3e} > {SPOT_TOL:.0e} on "
                f"{SPOT_SAMPLES} samples)")
        ws.comorphisms[name] = c
        ws.comorph_refs[name] = (d["source"], d["target"])

    return ws


# ---------------------------------------------------------------- helpers

def _num(text):
    """Float, accepting exact fractions like '1/3'."""
    text = str(text).strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _vector(text):
    return [float(v) for v in str(text).split(",")]


def _point_list(text):
    return [_vector(part) for part in str(text).split(";") if part.strip()]


def _expr_list(text, variables):
    return [ex.parse(part, variables)
            for part in str(text).split(";") if part.strip()]


def _range(text):
    """'lo:hi:count' -> list of evenly spaced floats."""
    lo, hi, count = str(text).split(":")
    return list(np.linspace(float(lo), float(hi), int(count)))


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("ALGPATHS_SEED")
    if env is not None:
        return int(env)
    return 0


def _default(args, ws, key, cast=float):
    val = getattr(args, key.replace("-", "_"), None)
    if val is None:
        val = ws.defaults[key] if ws is not None else DEFAULTS[key]
    return cast(val)


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


def _pick(table, name, kind):
    if name is None:
        if len(table) == 1:
            return next(iter(table.items()))
        raise ConfigError(
            f"--name required: the workspace defines {len(table)} {kind}")
    if name not in table:
        raise ConfigError(f"unknown {kind.rstrip('s')} {name!r}")
    return name, table[name]


def _workspace(args):
    if getattr(args, "config", None) is None:
        return None
    return load_workspace(args.config)


def _connection_for(args, ws):
    if getattr(args, "connection", None) is not None:
        if ws is None:
            raise ConfigError("--connection needs --config")
        name, fc = _pick(ws.connections, args.connection, "connections")
        return name, fc
    nu0 = _num(args.nu0)
    return f"example3(nu0={args.nu0})", ExampleConnection(nu0)


# ------------------------------------------------------------- subcommands

def cmd_check_algebroid(args):
    ws = load_workspace(args.config)
    name, A = _pick(ws.algebroids, args.name, "algebroids")
    seed = _resolve_seed(args)
    n_samples = int(_default(args, ws, "samples"))
    rng = np.random.default_rng(seed)
    rep = check_axioms(A, sample_points(A, n_samples, rng))
    ok = rep.ok(args.tol)
    _emit({"command": "check-algebroid", "name": name, "seed": seed,
           "params": {"samples": n_samples, "tol": args.tol},
           "anchor_residual": rep.anchor_residual,
           "jacobi_residual": rep.jacobi_residual,
           "max_residual": rep.max_residual(), "ok": ok})
    return 0 if ok else 1


def cmd_integrate_path(args):
    ws = load_workspace(args.config)
    name, A = _pick(ws.algebroids, args.name, "algebroids")
    seed = _resolve_seed(args)
    grid = int(_default(args, ws, "grid"))
    bound = _default(args, ws, "bound")
    s = SectionTD(A, _expr_list(args.section, ["t"] + A.coords))
    g = integrate_apath(A, s, _vector(args.x0), grid_size=grid, bound=bound)
    if _write_csv(g.write_csv, args.out):
        payload = {"command": "integrate-path", "algebroid": name,
                   "seed": seed, "params": {"grid": grid, "bound": bound},
                   "status": g.status, "t_star": g.t_event,
                   "source": list(g.source), "target": list(g.target)}
        try:
            payload["admissibility_residual"] = admissibility_residual(g)
        except (AlgebroidError, ValueError, IndexError):
            pass
        _emit(payload)
    return 0 if g.completed else 1


def cmd_lift_path(args):
    ws = load_workspace(args.config)
    name, c = _pick(ws.comorphisms, args.comorphism, "comorphisms")
    seed = _resolve_seed(args)
    bound = _default(args, ws, "bound")
    with open(args.path) as f:
        g = read_apath_csv(f, c.target)
    lifted = lift_path(c, g, _vector(args.x0), interp=args.interp,
                       bound=bound)
    if _write_csv(lifted.write_csv, args.out):
        _emit({"command": "lift-path", "comorphism": name, "seed": seed,
               "params": {"interp": args.interp, "bound": bound,
                          "grid": len(g.times) - 1},
               "status": lifted.status, "t_star": lifted.t_event,
               "phi_projection_error": lifted.phi_projection_error,
               "source": list(lifted.source), "target": list(lifted.target)})
    return 0 if lifted.completed else 1


def cmd_lift_homotopy(args):
    ws = load_workspace(args.config)
    name, c = _pick(ws.comorphisms, args.comorphism, "comorphisms")
    seed = _resolve_seed(args)
    bound = _default(args, ws, "bound")
    with open(args.homotopy) as f:
        H = read_ahomotopy_csv(f, c.target)
    lifted = lift_homotopy(c, H, _vector(args.x0), interp=args.interp,
                           bound=bound)
    if _write_csv(lifted.write_csv, args.out):
        _emit({"command": "lift-homotopy", "comorphism": name, "seed": seed,
               "params": {"interp": args.interp, "bound": bound,
                          "grid": [len(H.t_grid), len(H.s_grid)]},
               "residual_x": lifted.residuals[0],
               "residual_eta": lifted.residuals[1],
               "endpoint_spread": lifted.endpoint_spread})
    return 0


def cmd_completeness_probe(args):
    ws = load_workspace(args.config)
    name, c = _pick(ws.comorphisms, args.comorphism, "comorphisms")
    seed = _resolve_seed(args)
    horizon = _default(args, ws, "horizon")
    bound = _default(args, ws, "bound")
    step = _default(args, ws, "step")
    s = SectionTD(c.target, _expr_list(args.section,
                                       ["t"] + c.target.coords))
    if args.x0:
        seeds = _point_list(args.x0)
    else:
        n_seeds = int(_default(args, ws, "seeds"))
        rng = np.random.default_rng(seed)
        seeds = sample_points(c.source, n_seeds, rng)
    verdict = completeness_probe(c, s, horizon, bound, seeds, step)
    payload = {"command": "completeness-probe", "comorphism": name,
               "seed": seed,
               "params": {"horizon": horizon, "bound": bound, "step": step,
                          "n_seeds": len(seeds)}}
    payload.update(verdict.to_json())
    _emit(payload)
    return 1 if verdict.escaped else 0


def cmd_compose(args):
    ws = load_workspace(args.config)
    _, c1 = _pick(ws.comorphisms, args.first, "comorphisms")
    _, c2 = _pick(ws.comorphisms, args.second, "comorphisms")
    seed = _resolve_seed(args)
    c = compose(c1, c2)
    src_ref = ws.comorph_refs[args.first][0]
    tgt_ref = ws.comorph_refs[args.second][1]
    rng = np.random.default_rng(seed)
    pts = sample_points(c.source, SPOT_SAMPLES, rng)
    _emit({"command": "compose", "first": args.first, "second": args.second,
           "seed": seed, "params": {"samples": SPOT_SAMPLES},
           "anchor_compat_residual": anchor_compat_residual(c, pts),
           "comorphism": c.to_dict(src_ref, tgt_ref)})
    return 0


def cmd_holonomy(args):
    ws = _workspace(args)
    seed = _resolve_seed(args)
    conn_name, fc = _connection_for(args, ws)
    grid = int(_default(args, ws, "grid"))
    z0 = _vector(args.z0)
    if args.h_grid:
        hs = _range(args.h_grid)
        rows = holonomy_sweep(fc, hs, radius=args.radius, grid=grid,
                              z0=tuple(z0), k_max=int(args.k_max))
        if _write_csv(lambda f: write_sweep_csv(rows, f), args.out):
            _emit({"command": "holonomy", "connection": conn_name,
                   "seed": seed,
                   "params": {"grid": grid, "radius": args.radius,
                              "k_max": int(args.k_max), "h_count": len(hs)},
                   "rows": len(rows)})
        return 0
    h = _num(args.h)
    loop = circle_loop(fc, radius=args.radius, grid=grid)
    if args.x0:
        x0 = _vector(args.x0)
    else:
        x0 = [args.radius, 0.0, z0[0], z0[1], h]
    rep = holonomy(fc, loop, x0)
    nu = fc.nu(h) if hasattr(fc, "nu") else None
    payload = {"command": "holonomy", "connection": conn_name, "seed": seed,
               "params": {"grid": grid, "radius": args.radius, "h": h},
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


def cmd_example3(args):
    seed = _resolve_seed(args)
    if args.diagnostic == "sheets":
        count = sheet_count(_num(args.nu), k_max=int(args.k_max),
                            tol=args.tol)
        print("inf" if count == math.inf else int(count))
        return 0
    if args.diagnostic == "density":
        tau_max = (_num(args.tau_max) if args.tau_max is not None
                   else 1e4 * 2.0 * math.pi)
        rep = density_scan(_num(args.nu), _num(args.theta0),
                           _vector(args.z0), tau_max, int(args.bins))
        payload = {"command": "example3 density", "seed": seed,
                   "params": {"theta0": _num(args.theta0), "z0": args.z0}}
        payload.update(rep.to_json())
        _emit(payload)
        return 0
    if args.diagnostic == "self-intersect":
        fc = ExampleConnection(_num(args.nu))
        rep = self_intersection_witness(fc, _num(args.h), _num(args.tau),
                                        r=args.r, theta=_num(args.theta),
                                        rp=args.rp)
        _emit({"command": "example3 self-intersect", "seed": seed,
               "params": {"h": _num(args.h), "tau": _num(args.tau),
                          "r": args.r, "theta": _num(args.theta),
                          "rp": args.rp},
               "nu": rep.nu, "image_mismatch": rep.image_mismatch,
               "gap": rep.gap, "expected_gap": rep.expected_gap,
               "degenerate": rep.degenerate})
        return 0
    # gamma
    fc = ExampleConnection(_num(args.nu))
    z = _vector(args.z)
    try:
        g = GammaElement(fc, args.r, _num(args.theta), args.rp,
                         _num(args.tau), (z[0], z[1]), _num(args.h))
    except ValueError as e:
        raise ConfigError(str(e))
    _emit({"command": "example3 gamma", "seed": seed,
           "params": {"nu0": args.nu},
           "source": list(g.source()), "target": list(g.target()),
           "is_unit": g.is_unit(), "nu_at_h": fc.nu(_num(args.h))})
    return 0


def _poisson_pair(args, ws):
    _, PX = _pick(ws.poisson, args.source, "poisson manifolds")
    _, PY = _pick(ws.poisson, args.target, "poisson manifolds")
    phi = ex.SmoothMap(PX.coords,
                       _expr_list(args.map, PX.coords),
                       domain=PX.domain)
    if len(phi.components) != PY.dim:
        raise ConfigError(
            f"--map has {len(phi.components)} components, target has "
            f"dim {PY.dim}")
    return PX, PY, phi


def cmd_poisson(args):
    ws = load_workspace(args.config)
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    if args.action == "check-map":
        PX, PY, phi = _poisson_pair(args, ws)
        n_samples = int(_default(args, ws, "samples"))
        res = poisson_map_residual(phi, PX, PY,
                                   sample_points(PX, n_samples, rng))
        ok = res <= args.tol
        _emit({"command": "poisson check-map", "source": args.source,
               "target": args.target, "seed": seed,
               "params": {"samples": n_samples, "tol": args.tol},
               "residual": res, "is_poisson_map": ok})
        return 0 if ok else 1
    if args.action == "flow":
        name, P = _pick(ws.poisson, args.name, "poisson manifolds")
        step = _default(args, ws, "step")
        bound = _default(args, ws, "bound")
        t1 = (_num(args.t1) if args.t1 is not None
              else _default(args, ws, "horizon"))
        f = ex.parse(args.f, P.coords)
        vf = hamiltonian_vf(P, f)
        traj = flow(vf, _vector(args.x0), (0.0, t1), step=step, bound=bound)
        if _write_csv(traj.write_csv, args.out):
            ffn = ex.compile_exprs([f], P.coords)
            drift = max(abs(ffn(*p)[0] - ffn(*traj.points[0])[0])
                        for p in traj.points[::max(1, len(traj.points)
                                                   // 200)])
            _emit({"command": "poisson flow", "name": name, "seed": seed,
                   "params": {"step": step, "bound": bound, "t1": t1,
                              "f": str(f)},
                   "status": traj.status, "t_star": traj.t_event,
                   "endpoint": list(traj.endpoint),
                   "energy_drift": drift})
        return 0 if traj.completed else 1
    if args.action == "lift":
        PX, PY, phi = _poisson_pair(args, ws)
        n_samples = int(_default(args, ws, "samples"))
        pts = sample_points(PX, n_samples, rng)
        c = cotangent_lift(phi, PX, PY, samples=pts, tol=args.tol)
        _emit({"command": "poisson lift", "source": args.source,
               "target": args.target, "seed": seed,
               "params": {"samples": n_samples, "tol": args.tol},
               "anchor_compat_residual": anchor_compat_residual(
                   c, sample_points(c.source, SPOT_SAMPLES, rng)),
               "comorphism": c.to_dict(f"T*{args.source}",
                                       f"T*{args.target}")})
        return 0
    # probe
    PX, PY, phi = _poisson_pair(args, ws)
    horizon = _default(args, ws, "horizon")
    bound = _default(args, ws, "bound")
    step = _default(args, ws, "step")
    if args.x0:
        seeds = _point_list(args.x0)
    else:
        seeds = sample_points(PX, int(_default(args, ws, "seeds")), rng)
    fs = _expr_list(args.f, PY.coords) if args.f else None
    map_samples = sample_points(PX, int(_default(args, ws, "samples")), rng)
    rep = complete_map_probe(phi, PX, PY, test_functions=fs,
                             horizon=horizon, bound=bound, seeds=seeds,
                             map_samples=map_samples, step=step)
    escaped = any(e["hamiltonian"]["escaped"] for e in rep.entries)
    payload = {"command": "poisson probe", "source": args.source,
               "target": args.target, "seed": seed,
               "params": {"horizon": horizon, "bound": bound, "step": step,
                          "n_seeds": len(seeds)},
               "all_agree": rep.all_agree, "escaped": escaped}
    payload["entries"] = rep.to_json()["entries"]
    _emit(payload)
    return 1 if (escaped or not rep.all_agree) else 0


def _parse_basis(src):
    p = Path(src)
    try:
        if p.exists():
            src = p.read_text()
    except OSError:
        pass
    try:
        data = json.loads(src)
    except ValueError as e:
        raise ConfigError(f"--basis: malformed JSON: {e}")
    basis = [np.asarray(M, dtype=float) for M in data]
    if not basis or any(M.ndim != 2 or M.shape != basis[0].shape
                        for M in basis):
        raise ConfigError("--basis must be a list of equal square matrices")
    return basis


def _abelian_carrier(n, r):
    anchor = [[ex.Const(0.0) for _ in range(r)] for _ in range(n)]
    return LieAlgebroid(n, r, anchor, {})


def _read_apath_auto(path, ws, name):
    with open(path) as f:
        if ws is not None and (name is not None or len(ws.algebroids) == 1):
            _, A = _pick(ws.algebroids, name, "algebroids")
            return read_apath_csv(f, A)
        header = f.readline().strip().split(",")
        n = sum(1 for c in header if c.startswith("x"))
        r = sum(1 for c in header if c.startswith("eta"))
        if header[:1] != ["t"] or 1 + n + r != len(header):
            raise ConfigError(f"{path}: not an A-path CSV header")
        f.seek(0)
        return read_apath_csv(f, _abelian_carrier(n, r))


def cmd_develop(args):
    ws = _workspace(args)
    seed = _resolve_seed(args)
    basis = _parse_basis(args.basis)
    g = _read_apath_auto(args.path, ws, args.name)
    mp = develop(basis, g)
    if _write_csv(mp.write_csv, args.out):
        _emit({"command": "develop", "seed": seed,
               "params": {"rank": len(basis),
                          "matrix_dim": int(basis[0].shape[0]),
                          "samples": len(mp.times)},
               "endpoint": mp.endpoint.tolist()})
    return 0


def cmd_logderiv(args):
    seed = _resolve_seed(args)
    basis = _parse_basis(args.basis)
    with open(args.gamma) as f:
        mp = read_matrix_csv(f)
    g = log_derivative(mp, basis, span_tol=args.span_tol)
    if _write_csv(g.write_csv, args.out):
        _emit({"command": "logderiv", "seed": seed,
               "params": {"rank": len(basis), "span_tol": args.span_tol,
                          "samples": len(g.times)},
               "eta_start": list(g.eta[0]), "eta_end": list(g.eta[-1])})
    return 0


# ------------------------------------------------------------------ parser

def _add_seed(p):
    p.add_argument("--seed", type=int, default=None,
                   help="PRNG seed (default: ALGPATHS_SEED or 0)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="algpaths",
        description="Lie algebroid path integration: A-paths, lifts, "
                    "holonomy, and completeness probes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-algebroid",
                       help="axiom residual report for an algebroid")
    p.add_argument("--config", required=True)
    p.add_argument("--name")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_seed(p)
    p.set_defaults(handler=cmd_check_algebroid)

    p = sub.add_parser("integrate-path",
                       help="integrate an A-path from a section")
    p.add_argument("--config", required=True)
    p.add_argument("--name")
    p.add_argument("--section", required=True,
                   help="semicolon-separated expressions in t and the "
                        "base coordinates")
    p.add_argument("--x0", required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(handler=cmd_integrate_path)

    p = sub.add_parser("lift-path", help="lift an A-path through a "
                                         "comorphism")
    p.add_argument("--config", required=True)
    p.add_argument("--comorphism", required=True)
    p.add_argument("--path", required=True, help="A-path CSV over the "
                                                 "target algebroid")
    p.add_argument("--x0", required=True)
    p.add_argument("--interp", choices=("cubic", "linear"), default="cubic")
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(handler=cmd_lift_path)

    p = sub.add_parser("lift-homotopy", help="lift an A-homotopy through "
                                             "a comorphism")
    p.add_argument("--config", required=True)
    p.add_argument("--comorphism", required=True)
    p.add_argument("--homotopy", required=True,
                   help="A-homotopy CSV over the target algebroid")
    p.add_argument("--x0", required=True)
    p.add_argument("--interp", choices=("cubic", "linear"), default="cubic")
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(handler=cmd_lift_homotopy)

    p = sub.add_parser("completeness-probe",
                       help="flow a pulled-back section from seed points")
    p.add_argument("--config", required=True)
    p.add_argument("--comorphism", required=True)
    p.add_argument("--section", required=True,
                   help="target section, semicolon-separated expressions")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--seeds", type=int, default=None,
                   help="number of random seed points")
    p.add_argument("--x0", help="explicit seed points 'a,b;c,d'")
    _add_seed(p)
    p.set_defaults(handler=cmd_completeness_probe)

    p = sub.add_parser("compose", help="compose two comorphisms")
    p.add_argument("--config", required=True)
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    _add_seed(p)
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("holonomy",
                       help="fiber transport around the unit circle")
    p.add_argument("--config")
    p.add_argument("--connection")
    p.add_argument("--nu0", default="1/3",
                   help="built-in connection twist (fractions allowed)")
    p.add_argument("--h", default="0.0")
    p.add_argument("--h-grid", help="'lo:hi:count' sweep over h values")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--z0", default="1,0")
    p.add_argument("--x0", help="explicit lift start point (default: "
                                "loop start with --z0 fiber and --h)")
    p.add_argument("--k-max", type=float, default=1e6)
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(handler=cmd_holonomy)

    p = sub.add_parser("example3", help="diagnostics for the built-in "
                                        "twisted-cylinder connection")
    d = p.add_subparsers(dest="diagnostic", required=True)

    q = d.add_parser("sheets", help="order of nu in R/Z")
    q.add_argument("--nu", required=True)
    q.add_argument("--k-max", type=float, default=1e6)
    q.add_argument("--tol", type=float, default=1e-9)
    _add_seed(q)

    q = d.add_parser("density", help="torus coverage of the "
                                     "(theta', arg z') relation")
    q.add_argument("--nu", required=True)
    q.add_argument("--theta0", default="0.0")
    q.add_argument("--z0", default="1,0")
    q.add_argument("--tau-max", default=None)
    q.add_argument("--bins", type=int, default=32)
    _add_seed(q)

    q = d.add_parser("self-intersect",
                     help="equal image, distinct tangent planes at z = 0")
    q.add_argument("--nu", required=True)
    q.add_argument("--h", default="0.0")
    q.add_argument("--tau", default="0.0")
    q.add_argument("--r", type=float, default=1.0)
    q.add_argument("--theta", default="0.0")
    q.add_argument("--rp", type=float, default=1.0)
    _add_seed(q)

    q = d.add_parser("gamma", help="source/target of a groupoid element")
    q.add_argument("--nu", default="1/3")
    q.add_argument("--r", type=float, default=1.0)
    q.add_argument("--theta", default="0.0")
    q.add_argument("--rp", type=float, default=1.0)
    q.add_argument("--tau", default="0.0")
    q.add_argument("--z", default="1,0")
    q.add_argument("--h", default="0.0")
    _add_seed(q)
    p.set_defaults(handler=cmd_example3)

    p = sub.add_parser("poisson", help="Poisson-map checks, Hamiltonian "
                                       "flows, lifts, and probes")
    d = p.add_subparsers(dest="action", required=True)

    q = d.add_parser("check-map", help="Poisson-map residual of a map")
    q.add_argument("--config", required=True)
    q.add_argument("--source", required=True)
    q.add_argument("--target", required=True)
    q.add_argument("--map", required=True,
                   help="semicolon-separated component expressions")
    q.add_argument("--samples", type=int, default=None)
    q.add_argument("--tol", type=float, default=1e-8)
    _add_seed(q)

    q = d.add_parser("flow", help="flow a Hamiltonian vector field")
    q.add_argument("--config", required=True)
    q.add_argument("--name")
    q.add_argument("--f", required=True, help="Hamiltonian expression")
    q.add_argument("--x0", required=True)
    q.add_argument("--t1", default=None)
    q.add_argument("--step", type=float, default=None)
    q.add_argument("--bound", type=float, default=None)
    q.add_argument("--out")
    _add_seed(q)

    q = d.add_parser("lift", help="cotangent-lift comorphism of a "
                                  "Poisson map")
    q.add_argument("--config", required=True)
    q.add_argument("--source", required=True)
    q.add_argument("--target", required=True)
    q.add_argument("--map", required=True)
    q.add_argument("--samples", type=int, default=None)
    q.add_argument("--tol", type=float, default=1e-8)
    _add_seed(q)

    q = d.add_parser("probe", help="dual-route completeness probe of a "
                                   "Poisson map")
    q.add_argument("--config", required=True)
    q.add_argument("--source", required=True)
    q.add_argument("--target", required=True)
    q.add_argument("--map", required=True)
    q.add_argument("--f", help="test functions on the target, "
                               "semicolon-separated (default: coordinates "
                               "plus a cutoff quadratic)")
    q.add_argument("--horizon", type=float, default=None)
    q.add_argument("--bound", type=float, default=None)
    q.add_argument("--seeds", type=int, default=None)
    q.add_argument("--x0", help="explicit seed points 'a,b;c,d'")
    q.add_argument("--samples", type=int, default=None)
    _add_seed(q)
    p.set_defaults(handler=cmd_poisson)

    p = sub.add_parser("develop", help="develop an A-path over a point "
                                       "into a matrix group")
    p.add_argument("--path", required=True, help="A-path CSV")
    p.add_argument("--basis", required=True,
                   help="JSON list of basis matrices (inline or a file)")
    p.add_argument("--config")
    p.add_argument("--name")
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(handler=cmd_develop)

    p = sub.add_parser("logderiv", help="logarithmic derivative of a "
                                        "matrix path in a basis")
    p.add_argument("--gamma", required=True, help="matrix-path CSV")
    p.add_argument("--basis", required=True)
    p.add_argument("--span-tol", type=float, default=1e-6)
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(handler=cmd_logderiv)

    return parser


def run(argv=None):
    """Dispatch one command; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ex.ParseError as e:
        print(f"expression error: {e}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
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
