"""Lie algebroid comorphisms: section pullback, composition, anchor
compatibility, completeness probing, and path/homotopy lifting.

A comorphism (phi, Phi) from algebroid A over X to algebroid B over Y is
stored as the core map phi: X -> Y and a fiber matrix M(x) of shape
(rank A) x (rank B), all expression-valued; Phi(x, xi) = M(x) xi takes a
B-fiber vector over phi(x) to an A-fiber vector over x. The defining
anchor condition Dphi . rho_A . M = rho_B o phi is measured, not assumed.

Lifting integrates x' = rho_A(x) M(x) xi(t) with the fiber data xi of the
path to lift interpolated between its samples (by default with the
not-a-knot cubic spline, `numkernel.not_a_knot_table`); blowup
or domain exit of that flow is the numerical witness that the lift fails
to exist over the full interval.
"""

import numpy as np

from . import expr as ex
from .algebroid import AlgebroidError, SectionTD, evaluate, matvec
from .apath import APath, AHomotopy, homotopy_residual
from .expr import point
from .numkernel import VectorFieldTD, flow, not_a_knot_table


class LiftError(Exception):
    pass


class Comorphism:
    """Comorphism between algebroids, expression-backed.

    phi: list of target-base-dim expressions over source coordinates.
    M:   rank_A x rank_B nested list of expressions over source coords.
    """

    def __init__(self, source, target, phi, M):
        self.source = source
        self.target = target
        if len(phi) != target.n:
            raise AlgebroidError(
                f"phi needs {target.n} components, got {len(phi)}")
        self.phi = [ex.as_expr(e) for e in phi]
        if len(M) != source.r or any(len(row) != target.r for row in M):
            raise AlgebroidError(
                f"M must be {source.r} x {target.r}")
        self.M = [[ex.as_expr(e) for e in row] for row in M]
        for e in self.phi + [e for row in self.M for e in row]:
            extra = e.variables() - set(source.coords)
            if extra:
                raise AlgebroidError(
                    f"comorphism expression uses unknown variables "
                    f"{sorted(extra)}")
        self._phi_fn = ex.compile_exprs(self.phi, source.coords)
        self._M_fn = ex.compile_exprs(
            [e for row in self.M for e in row], source.coords)
        self._dphi_fn = None
        self._lift_fn = None

    def phi_at(self, x):
        return self._phi_fn(*x)

    def M_at(self, x):
        """M(x) as a (rank A, rank B) array; stacked to (N, rank A, rank B)
        for a stack of N points."""
        return evaluate(self._M_fn, x, (self.source.r, self.target.r))

    def _lift_field(self):
        """rho_A(x) M(x) xi compiled into one function of (*xi, *x), with
        the target fiber coordinates xi as inputs; compiled at the first
        lift and kept."""
        if self._lift_fn is None:
            xi = [f"xi{b+1}" for b in range(self.target.r)]
            while set(xi) & set(self.source.coords):
                xi = ["_" + v for v in xi]
            section = [ex.dot(row, [ex.Var(v) for v in xi])
                       for row in self.M]
            self._lift_fn = self.source.anchored_field(section, xi)
        return self._lift_fn

    def dphi_at(self, x):
        """Jacobian Dphi(x), (target.n x source.n), symbolic partials;
        stacked to (N, target.n, source.n) for a stack of N points."""
        if self._dphi_fn is None:
            flat = [p.d(v) for p in self.phi for v in self.source.coords]
            self._dphi_fn = ex.compile_exprs(flat, self.source.coords)
        return evaluate(self._dphi_fn, x, (self.target.n, self.source.n))

    def spot_check(self, samples):
        """Verify phi maps sample points of dom(A) into dom(B)."""
        for x in samples:
            if not self.source.in_domain(x):
                raise ex.DomainError(
                    f"sample {point(x)} outside the source domain")
            y = self.phi_at(x)
            if not self.target.in_domain(y):
                raise ex.DomainError(
                    f"phi({point(x)}) = {point(y)} outside the target domain")

    @classmethod
    def from_dict(cls, d, lookup):
        """Build from JSON {"source": ref, "target": ref, "phi": [...],
        "M": [[...]]}; `lookup` resolves algebroid references to objects."""
        source = lookup(d["source"])
        target = lookup(d["target"])
        phi = [ex.parse(str(s), source.coords) for s in d["phi"]]
        M = [[ex.parse(str(s), source.coords) for s in row]
             for row in d["M"]]
        return cls(source, target, phi, M)

    def to_dict(self, source_ref, target_ref):
        return {
            "source": source_ref,
            "target": target_ref,
            "phi": [str(e) for e in self.phi],
            "M": [[str(e) for e in row] for row in self.M],
        }

    def __repr__(self):
        return (f"Comorphism({self.source.n}d/r{self.source.r} -> "
                f"{self.target.n}d/r{self.target.r})")


def identity_comorphism(A):
    """The identity comorphism (id, id) on A."""
    phi = [ex.Var(v) for v in A.coords]
    M = [[ex.Const(1.0 if a == b else 0.0) for b in range(A.r)]
         for a in range(A.r)]
    return Comorphism(A, A, phi, M)


def anchor_compat_residual(c, samples):
    """max over samples of |Dphi(x) rho_A(x) M(x) - rho_B(phi(x))|, after
    the spot check that the samples and their images lie in the domains."""
    c.spot_check(samples)
    pts = np.asarray(samples, dtype=float).reshape(-1, c.source.n)
    lhs = c.dphi_at(pts) @ c.source.anchor_matrix(pts) @ c.M_at(pts)
    rhs = c.target.anchor_matrix(evaluate(c._phi_fn, pts, (c.target.n,)))
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def pullback_section(c, s):
    """Phi† s: the section (t, x) -> M(x) s(t, phi(x)) of the source,
    built symbolically so its derivatives stay available."""
    if s.algebroid is not c.target:
        raise AlgebroidError("section must live on the comorphism's target")
    mapping = {v: c.phi[j] for j, v in enumerate(c.target.coords)}
    s_at_phi = [ex.substitute(e, mapping) for e in s.exprs]
    return SectionTD(c.source, [ex.dot(row, s_at_phi) for row in c.M])


def compose(c1, c2):
    """Composite comorphism A -> C of c1: A -> B and c2: B -> C:
    core phi2 o phi1, fiber M1(x) . M2(phi1(x)), all symbolic."""
    if c1.target is not c2.source:
        raise AlgebroidError(
            "compose: c1's target does not chain with c2's source")
    mapping = {v: c1.phi[j] for j, v in enumerate(c2.source.coords)}
    phi = [ex.substitute(p, mapping) for p in c2.phi]
    M2_sub = [[ex.substitute(e, mapping) for e in row] for row in c2.M]
    M = [[ex.dot(c1.M[a], [M2_sub[b][cc] for b in range(c1.target.r)])
          for cc in range(c2.target.r)] for a in range(c1.source.r)]
    return Comorphism(c1.source, c2.target, phi, M)


class ProbeVerdict:
    """Outcome of a completeness probe. Only `escaped` is conclusive;
    a clean run is bounded by the horizon and bound it was run with."""

    def __init__(self, escaped, horizon, bound, witness=None):
        self.escaped = escaped
        self.horizon = horizon
        self.bound = bound
        self.witness = witness    # (seed, status, t_event) when escaped

    def __str__(self):
        if not self.escaped:
            return (f"no escape detected (T={self.horizon:g}, "
                    f"bound={self.bound:g})")
        seed, status, t_event = self.witness
        return (f"incomplete witness: {status} at t*={t_event!r} "
                f"from seed {point(seed)}")

    def to_json(self):
        out = {"verdict": str(self), "escaped": self.escaped,
               "horizon": self.horizon, "bound": self.bound}
        if self.witness is not None:
            seed, status, t_event = self.witness
            out["witness"] = {"seed": list(seed), "status": status,
                              "t_star": t_event}
        return out


def first_escape(vf, horizon, bound, seeds, step):
    """Flow vf over [0, horizon] from each seed in turn.

    Returns the witness of the first seed whose flow escapes, or the
    (inconclusive) no-escape verdict. Seeds outside vf's domain are an
    error.
    """
    for seed in seeds:
        if not vf.in_domain(seed):
            raise ex.DomainError(f"seed {point(seed)} outside the domain")
        traj = flow(vf, seed, (0.0, horizon), step=step, bound=bound)
        if not traj.completed:
            return ProbeVerdict(True, horizon, bound,
                                witness=(list(seed), traj.status,
                                         traj.t_event))
    return ProbeVerdict(False, horizon, bound)


def completeness_probe(c, s, horizon, bound, seeds, step=1e-3):
    """Flow rho_A . Phi† s from every seed over [0, horizon]: the first
    escape witness, or the (inconclusive) no-escape verdict."""
    A = c.source
    vf = A.flow_field(A.anchored_field(pullback_section(c, s).exprs))
    return first_escape(vf, horizon, bound, seeds, step)


def _fiber_table(g, interp, refine):
    """Tabulate g's fiber data at all RK4 stage times (half-step grid)."""
    m = (len(g.times) - 1) * refine
    stage_t = np.linspace(g.times[0], g.times[-1], 2 * m + 1)
    if interp == "cubic":
        table = not_a_knot_table(g.times, g.eta, stage_t)
    elif interp == "linear":
        table = np.stack([np.interp(stage_t, g.times, g.eta[:, b])
                          for b in range(g.eta.shape[1])], axis=1)
    else:
        raise ValueError(f"unknown interpolation {interp!r}")
    return m, table.tolist()


def _lift_flow(c, g, x0, interp="cubic", refine=1, bound=1e8):
    """Integrate x' = rho_A(x) M(x) xi(t) over g's (refined) grid."""
    m, table = _fiber_table(g, interp, refine)
    fn = c._lift_field()
    t0, t1 = g.times[0], g.times[-1]
    scale = 2.0 * m / (t1 - t0)

    def rhs(t, x):
        return fn(*table[round((t - t0) * scale)], *x)

    vf = VectorFieldTD(c.source.n, rhs, domain=c.source.in_domain)
    return flow(vf, x0, (t0, t1), step=(t1 - t0) / m, bound=bound)


def _fiber_products(c, points, vectors):
    """M(x_k) v_k for every sample k, as one (len(points), rank A) array."""
    return matvec(c.M_at(points), vectors[:len(points)])


def lift_path(c, g, x0, interp="cubic", bound=1e8):
    """Lift the B-path g through x0 to an A-path projecting onto it.

    The returned path carries status blowup/domain_exit with partial data
    when the horizontal flow escapes (the numerical witness that the lift
    does not exist globally), and its phi_projection_error reports
    max_k |phi(x_k) - y_k| over the integrated prefix.
    """
    y0 = np.asarray(c.phi_at(x0), dtype=float)
    if float(np.max(np.abs(y0 - g.source))) > 1e-6:
        raise LiftError(
            f"phi(x0) = {point(y0)} does not match the path source "
            f"{point(g.source)}")
    traj = _lift_flow(c, g, x0, interp=interp, bound=bound)
    points = traj.points
    eta = _fiber_products(c, points, g.eta)
    images = evaluate(c._phi_fn, points, (c.target.n,))
    proj = float(np.max(np.abs(images - g.base[:len(points)])))
    out = APath._from_flow(c.source, traj, eta)
    out.phi_projection_error = proj
    return out


def lift_homotopy(c, H, x0, interp="cubic", bound=1e8):
    """Lift a B-homotopy slice by slice from the common start point x0.

    beta lifts as beta_A(t, s) = M(x(t, s)) beta_B(t, s). A failing slice
    raises LiftError naming the failing s. Lifted endpoints must agree
    across s to 1e-9 plus four times the lift's discretisation error (see
    _endpoint_error), which is only estimated when the spread exceeds
    1e-9; a larger drift (a lift through a connection that is not flat)
    raises AlgebroidError. The lifted homotopy's residuals and endpoint
    spread across s are attached to the result.
    """
    B = c.target
    nt, ns = len(H.t_grid), len(H.s_grid)
    xs = np.empty((nt, ns, c.source.n))
    etas = np.empty((nt, ns, c.source.r))
    betas = np.empty((nt, ns, c.source.r))
    slices = [APath(B, H.t_grid, H.x[:, l], H.eta[:, l]) for l in range(ns)]
    for l, slice_path in enumerate(slices):
        lifted = lift_path(c, slice_path, x0, interp=interp, bound=bound)
        if not lifted.completed:
            raise LiftError(
                f"slice s={H.s_grid[l]!r} failed to lift: "
                f"{lifted.status_str()}")
        xs[:, l] = lifted.base
        etas[:, l] = lifted.eta
        betas[:, l] = _fiber_products(c, lifted.base, H.beta[:, l])
    spread = float(np.max(np.ptp(xs[-1], axis=0)))
    tol = 1e-9
    if spread > tol:
        tol += 4.0 * _endpoint_error(c, H.s_grid, slices, x0, xs[-1],
                                     interp, bound)
    out = AHomotopy(c.source, H.t_grid, H.s_grid, xs, etas, betas, tol=tol)
    out.endpoint_spread = spread
    out.residuals = homotopy_residual(out)
    return out


def _endpoint_error(c, s_grid, slices, x0, ends, interp, bound):
    """Largest discretisation error estimate of the lifted slice endpoints.

    Per slice it is the endpoint's change under a 2x refined step (the
    RK4 error) plus the distance of phi(endpoint) from the slice's sampled
    endpoint (the error of interpolating the fiber data between samples).
    A flat lift's endpoints differ across s by at most twice the largest
    per-slice error; the second term only sees the directions phi maps.
    """
    err = 0.0
    for s, g, end in zip(s_grid, slices, ends):
        fine = _lift_flow(c, g, x0, interp=interp, refine=2, bound=bound)
        if not fine.completed:
            raise LiftError(f"slice s={s!r} failed to lift at the refined "
                            f"step: {fine.status_str()}")
        step_err = np.max(np.abs(np.asarray(fine.endpoint) - end))
        sample_err = np.max(np.abs(np.asarray(c.phi_at(end)) - g.target))
        err = max(err, float(step_err + sample_err))
    return err


class UniquenessReport:
    """Endpoint (or exit-time) agreement of lifts under different
    interpolation schemes and step refinements."""

    def __init__(self, runs, endpoint_spread, exit_spread):
        self.runs = runs
        self.endpoint_spread = endpoint_spread
        self.exit_spread = exit_spread

    def __repr__(self):
        return (f"UniquenessReport(endpoint_spread={self.endpoint_spread}, "
                f"exit_spread={self.exit_spread})")


def lift_uniqueness_check(c, g, x0, bound=1e8):
    """Lift g through x0 with cubic and linear fiber interpolation at the
    path's grid and at a 2x refined grid; report the max pairwise endpoint
    distance (completed case) or exit-time spread (escaping case)."""
    runs = []
    for interp in ("cubic", "linear"):
        for refine in (1, 2):
            traj = _lift_flow(c, g, x0, interp=interp, refine=refine,
                              bound=bound)
            runs.append({
                "interp": interp, "refine": refine,
                "status": traj.status, "t_event": traj.t_event,
                "endpoint": list(traj.endpoint),
            })
    statuses = {r["status"] for r in runs}
    endpoint_spread = None
    exit_spread = None
    if statuses == {"completed"}:
        pts = [np.asarray(r["endpoint"]) for r in runs]
        endpoint_spread = max(
            float(np.linalg.norm(p - q)) for p in pts for q in pts)
    elif "completed" not in statuses:
        ts = [r["t_event"] for r in runs]
        exit_spread = max(ts) - min(ts)
    return UniquenessReport(runs, endpoint_spread, exit_spread)


__all__ = [
    "Comorphism", "LiftError", "ProbeVerdict", "UniquenessReport",
    "identity_comorphism", "anchor_compat_residual", "pullback_section",
    "compose", "first_escape", "completeness_probe", "lift_path",
    "lift_homotopy", "lift_uniqueness_check",
]
