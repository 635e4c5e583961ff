"""Lie algebroid comorphisms: section pullback, composition, anchor
compatibility, completeness probing, and path/homotopy lifting.

A comorphism (phi, Phi) from algebroid A over X to algebroid B over Y is
stored as the core map phi: X -> Y and a fiber matrix M(x) of shape
(rank A) x (rank B), both `expr.SmoothMap`s; Phi(x, xi) = M(x) xi takes a
B-fiber vector over phi(x) to an A-fiber vector over x. The defining
anchor condition Dphi . rho_A . M = rho_B o phi is measured, not assumed.

Lifting integrates x' = rho_A(x) M(x) xi(t) with the fiber data xi of the
path to lift interpolated between its samples (`numkernel.stage_table`,
by default with the not-a-knot cubic spline); blowup or domain exit of
that flow is the numerical witness that the lift fails to exist over the
full interval. The flow also returns M(x_k) and phi(x_k) at each lifted
point x_k but the last, for the lifted fiber M(x_k) xi_k and the lift's
distance from the path, max_k |phi(x_k) - y_k|; its loop records those
that are neither constants nor coordinates of x_k. The s-slices of a
homotopy are the lanes of one `numkernel.flow_lanes` call.
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .algebroid import AlgebroidError, SectionTD, matvec
from .apath import APath, AHomotopy, homotopy_residual
from .expr import point
from .numkernel import StartError, flow, flow_lanes, stage_table


class LiftError(Exception):
    pass


class StartMismatchError(LiftError, ValueError):
    """A start point whose image under phi misses the path's source: bad
    input, so also a ValueError, where a lift that escapes is a result."""


class Comorphism:
    """Comorphism between algebroids, expression-backed.

    phi: list of target-base-dim expressions over source coordinates.
    M:   rank_A x rank_B nested list of expressions over source coords.
    Each is kept as an `expr.SmoothMap`, `phi_map` and `M_map`.
    """

    def __init__(self, source, target, phi, M):
        self.source = source
        self.target = target
        if len(phi) != target.n:
            raise AlgebroidError(
                f"phi needs {target.n} components, got {len(phi)}")
        if len(M) != source.r or any(len(row) != target.r for row in M):
            raise AlgebroidError(
                f"M must be {source.r} x {target.r}")
        self.phi_map = ex.SmoothMap(source.coords, phi, error=AlgebroidError)
        # an object array keeps M's shape when a rank is 0 (M is [])
        self.M_map = ex.SmoothMap(source.coords, np.array(
            M, dtype=object).reshape(source.r, target.r), error=AlgebroidError)
        self.phi, self.M = self.phi_map.components, self.M_map.components

    @cached_property
    def _lift_field(self):
        """rho_A(x) M(x) xi compiled into one function of (*xi, *x), with
        the target fiber coordinates xi as inputs, followed by M(x)'s
        entries row by row and then phi(x)'s components, which a flow
        returns as its extras (see `_M_along` and `_phi_along`)."""
        xi = ex.fresh_names([f"xi{b+1}" for b in range(self.target.r)],
                            self.source.coords)
        section = [ex.dot(row, [ex.Var(v) for v in xi]) for row in self.M]
        return self.source.anchored_field(section, xi,
                                          extra=sum(self.M, []) + self.phi)

    def phi_at(self, x):
        """phi(x) as a (target.n,) array; stacked for a stack of points."""
        return self.phi_map.eval_unchecked(x)

    def M_at(self, x):
        """M(x) as a (rank A, rank B) array; stacked to (N, rank A, rank B)
        for a stack of N points."""
        return self.M_map.eval_unchecked(x)

    def dphi_at(self, x):
        """Dphi(x), [i, j] = d_j phi^i, (target.n x source.n), symbolic;
        stacked at a stack."""
        return self.phi_map.jacobian(x)

    def spot_check(self, samples):
        """Verify the samples lie in dom(A) and phi maps them into dom(B);
        returns the samples and their images as stacks of floats."""
        pts = self.source.in_domain.require(samples, self.source.n, "sample")
        images = self.phi_at(pts)
        self.target.in_domain.require(images, self.target.n, "sample image")
        return pts, images

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


def anchor_compat_residual(c, samples):
    """max over samples of |Dphi(x) rho_A(x) M(x) - rho_B(phi(x))|, after
    the spot check that the samples and their images lie in the domains."""
    pts, images = c.spot_check(samples)
    lhs = c.dphi_at(pts) @ c.source.anchor_matrix(pts) @ c.M_at(pts)
    rhs = c.target.anchor_matrix(images)
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


class ProbeVerdict(NamedTuple):
    """Outcome of a completeness probe. Only `escaped` is conclusive;
    a clean run is bounded by the horizon and bound it was run with. An
    escape's witness is (seed, ending): that seed's flow's `Ending`."""

    escaped: bool
    horizon: float
    bound: float
    witness: "tuple | None" = None

    def __str__(self):
        if not self.escaped:
            return (f"no escape detected (T={self.horizon:g}, "
                    f"bound={self.bound:g})")
        seed, ending = self.witness
        return (f"incomplete witness: {ending.status} at "
                f"t*={ending.t_star!r} from seed {point(seed)}")

    def to_json(self):
        out = {"verdict": str(self), "escaped": self.escaped,
               "horizon": self.horizon, "bound": self.bound}
        if self.witness is not None:
            seed, ending = self.witness
            out["witness"] = {"seed": list(seed), **ending._asdict()}
        return out


def first_escape(vf, horizon, bound, seeds, step):
    """Flow vf over [0, horizon] from each seed in turn.

    Returns the witness of the first seed whose flow escapes, or the
    (inconclusive) no-escape verdict. Every seed is tested against vf's
    domain before the first flow (`expr.Domain.require`); one outside it
    raises `numkernel.StartError`, and no seed at all `ValueError`.
    """
    pts = vf.domain.require(seeds, vf.n, "seed", StartError)
    if not len(pts):
        raise ValueError("no seeds to flow from")
    for seed in pts.tolist():
        traj = flow(vf, seed, (0.0, horizon), step=step, bound=bound)
        if not traj.completed:
            return ProbeVerdict(True, horizon, bound,
                                witness=(seed, traj.ending))
    return ProbeVerdict(False, horizon, bound)


def completeness_probe(c, s, horizon, bound, seeds, step=1e-3):
    """Flow rho_A . Phi† s from every seed over [0, horizon]: the first
    escape witness, or the (inconclusive) no-escape verdict."""
    A = c.source
    vf = A.flow_field(A.anchored_field(pullback_section(c, s).exprs))
    return first_escape(vf, horizon, bound, seeds, step)


def _fiber_table(times, eta, interp, refine):
    """The fiber samples eta of one path, (len(times), r), or of L paths
    on the same times, (len(times), L, r), at the RK4 stage times of a
    lift flow over the grid refined `refine` times: the step count m and
    one (2m + 1, *eta.shape[1:]) table, whose [:, l] is the table of path
    l alone."""
    m, table = stage_table(times, eta.reshape(len(times), -1), interp,
                           refine)
    return m, table.reshape(len(table), *eta.shape[1:])


def _lift_flow(c, times, x0, m, rows, bound=1e8):
    """Integrate x' = rho_A(x) M(x) xi(t) over the span of the time grid
    in m steps, xi read from the fiber table's rows at the stage times."""
    t0, t1 = float(times[0]), float(times[-1])
    return flow(c.source.flow_field(c._lift_field), x0, (t0, t1),
                step=(t1 - t0) / m, bound=bound, table=rows)


def _lift_lanes(c, times, x0, m, table, bound):
    """`_lift_flow` from x0 for each of the L paths of a (2m + 1, L, r)
    fiber table (see `_fiber_table`), as the lanes of one `flow_lanes`
    call, lane l reading column l: the list of their trajectories."""
    t0, t1 = float(times[0]), float(times[-1])
    return flow_lanes(c.source.flow_field(c._lift_field),
                      [x0] * table.shape[1], (t0, t1), step=(t1 - t0) / m,
                      bound=bound, tables=np.swapaxes(table, 0, 1))


def _M_along(c, trajs):
    """M at the points of the lift flows trajs, which have as many points
    each, (len(points), len(trajs), rank A, rank B): as the flows recorded
    it, in their first rank A * rank B extra values, and at their last
    points by one `M_at`."""
    r, q = c.source.r, c.target.r
    recorded = np.stack([traj.extras[:, :r * q] for traj in trajs], axis=1)
    last = c.M_at(np.stack([traj.points[-1] for traj in trajs]))
    return np.concatenate([recorded.reshape(len(recorded), len(trajs), r, q),
                           last[None]])


def _phi_along(c, traj):
    """phi at the points of a lift flow, (len(points), target.n): as the
    flow recorded it, after M's entries, and evaluated at the last
    point."""
    return np.concatenate([traj.extras[:, c.source.r * c.target.r:],
                           c.phi_at(traj.points[-1:])])


def _check_starts(c, x0, sources, stacks=False):
    """x0, one start point or, where stacks, a stack of them, as an
    (N, source.n) float stack. Raise ValueError for another shape, and
    StartMismatchError unless phi maps each start to within 1e-6 of its
    path source: sources is one point, or one per start. The first start
    that misses raises; the comparison is negated, so that a nan image
    misses."""
    starts, n = np.asarray(x0, dtype=float), c.source.n
    if starts.ndim not in (1, 1 + stacks) or starts.shape[-1] != n:
        raise ValueError(f"x0 must be a point of {n} coordinates"
                         f"{' or a stack of them' * stacks}, got shape "
                         f"{starts.shape}")
    stack = starts.reshape(-1, n)
    images, sources = np.broadcast_arrays(c.phi_at(stack), sources)
    bad = np.flatnonzero(~(np.abs(images - sources) <= 1e-6).all(axis=-1))
    if len(bad):
        k = bad[0]
        raise StartMismatchError(
            f"phi(x0) = {point(images[k])} does not match the path source "
            f"{point(sources[k])}")
    return stack


def lift_path(c, g, x0, interp="cubic", bound=1e8):
    """Lift the B-path g through x0 to an A-path projecting onto it.

    x0 is one start point, or a stack of N start points as for `M_at`;
    a stack gives the list of their N lifts, all flowed from one fiber
    table. A lift carries status blowup/domain_exit with partial data
    when the horizontal flow escapes (the numerical witness that the lift
    does not exist globally), and its phi_projection_error reports
    max_k |phi(x_k) - y_k| over the integrated prefix, phi as the flow
    recorded it and at the last point (`_phi_along`).
    """
    stack = _check_starts(c, x0, g.source, stacks=True)
    m, table = _fiber_table(g.times, g.eta, interp, 1)
    rows = table.tolist()
    lifts = []
    for start in stack.tolist():
        traj = _lift_flow(c, g.times, start, m, rows, bound)
        points = traj.points
        lifted = APath._from_flow(c.source, traj, matvec(
            _M_along(c, [traj])[:, 0], g.eta[:len(points)]))
        lifted.phi_projection_error = float(np.max(np.abs(
            _phi_along(c, traj) - g.base[:len(points)])))
        lifts.append(lifted)
    return lifts if np.ndim(x0) == 2 else lifts[0]


def lift_homotopy(c, H, x0, interp="cubic", bound=1e8):
    """Lift a B-homotopy from the common start point x0, each s-slice a
    lane of one flow call.

    Every base sample must lie in B's domain: the first outside it, in
    slice order, raises AlgebroidError. beta lifts as beta_A(t, s) =
    M(x(t, s)) beta_B(t, s), with M taken over all slices at once (one
    `M_at` at their last points) and one `matvec` each for eta and beta.
    The fiber data of all slices is interpolated as one table, whose
    column l slice l reads. A failing slice raises LiftError naming the
    first failing s.
    Lifted endpoints must agree across s to 1e-9 plus four times the
    lift's discretisation error (see _endpoint_error), which is only
    estimated when the spread exceeds 1e-9; a larger drift (a lift through
    a connection that is not flat) raises LiftError naming the two slices
    whose endpoints are farthest apart. The lifted homotopy's residuals,
    its endpoint spread across s and the tolerance applied to it
    (`endpoint_tol`) are attached to the result.
    """
    c.target.in_domain.require(np.swapaxes(H.x, 0, 1), c.target.n,
                               "base sample", AlgebroidError)
    s_vals = H.s_grid.tolist()          # plain floats, for messages
    _check_starts(c, x0, H.x[0])
    m, table = _fiber_table(H.t_grid, H.eta, interp, 1)
    trajs = _lift_lanes(c, H.t_grid, x0, m, table, bound)
    _require_completed(trajs, s_vals, "")
    xs = np.stack([traj.points for traj in trajs], axis=1)
    nt, ns, r, q = *xs.shape[:2], c.source.r, c.target.r
    M = _M_along(c, trajs).reshape(nt * ns, r, q)
    etas, betas = (matvec(M, v.reshape(nt * ns, q)).reshape(nt, ns, r)
                   for v in (H.eta, H.beta))
    ends = xs[-1]
    ranges = np.ptp(ends, axis=0)
    spread = float(np.max(ranges))
    tol = 1e-9
    if spread > tol:
        tol += 4.0 * _endpoint_error(c, H, x0, ends, interp, bound)
        if not spread <= tol:
            # the spread is the widest range of one coordinate
            k = int(np.argmax(ranges))
            i, j = sorted([int(np.argmin(ends[:, k])),
                           int(np.argmax(ends[:, k]))])
            raise LiftError(
                f"lifted endpoints drift across s: slices "
                f"s={s_vals[i]!r} and s={s_vals[j]!r} end {spread:.3e} "
                f"apart (> tolerance {tol:.3e})")
    out = AHomotopy(c.source, H.t_grid, H.s_grid, xs, etas, betas, tol=tol)
    out.endpoint_spread = spread
    out.endpoint_tol = tol
    out.residuals = homotopy_residual(out)
    return out


def _endpoint_error(c, H, x0, ends, interp, bound):
    """Largest discretisation error estimate of the lifted slice endpoints.

    Per slice it is the endpoint's change under a 2x refined step (the
    RK4 error) plus the distance of phi(endpoint) from the slice's sampled
    endpoint (the error of interpolating the fiber data between samples).
    A flat lift's endpoints differ across s by at most twice the largest
    per-slice error; the second term only sees the directions phi maps.
    """
    m, table = _fiber_table(H.t_grid, H.eta, interp, 2)
    fine = _lift_lanes(c, H.t_grid, x0, m, table, bound)
    _require_completed(fine, H.s_grid.tolist(), " at the refined step")
    step_err = np.max(np.abs(np.array([traj.endpoint for traj in fine])
                             - ends), axis=1)
    sample_err = np.max(np.abs(c.phi_at(ends) - H.x[-1]), axis=1)
    # folded as max(err, e) over the slices from 0.0, so that a nan is
    # skipped
    return max([0.0, *(step_err + sample_err).tolist()])


def _require_completed(trajs, s_vals, where):
    """Raise LiftError naming the first slice, in s order, whose lift
    failed."""
    for s, traj in zip(s_vals, trajs):
        if not traj.completed:
            raise LiftError(f"slice s={s!r} failed to lift{where}: "
                            f"{traj.ending}")


class UniquenessReport(NamedTuple):
    """Endpoint (or exit-time) agreement of lifts under different
    interpolation schemes and step refinements; a spread is None where
    it does not apply."""

    runs: list
    endpoint_spread: "float | None"
    exit_spread: "float | None"


def lift_uniqueness_check(c, g, x0):
    """Lift g through x0 with cubic and linear fiber interpolation at the
    path's grid and at a 2x refined grid; report the max pairwise endpoint
    distance (completed case) or exit-time spread (escaping case), each
    lift bounded by 1e8. A start point whose image misses the path's
    source raises StartMismatchError, as in `lift_path`."""
    _check_starts(c, x0, g.source)
    runs = []
    for interp in ("cubic", "linear"):
        for refine in (1, 2):
            m, table = _fiber_table(g.times, g.eta, interp, refine)
            traj = _lift_flow(c, g.times, x0, m, table.tolist())
            runs.append({
                "interp": interp, "refine": refine,
                "ending": traj.ending, "endpoint": traj.endpoint.tolist(),
            })
    statuses = {r["ending"].status for r in runs}
    endpoint_spread = None
    exit_spread = None
    if statuses == {"completed"}:
        pts = [np.asarray(r["endpoint"]) for r in runs]
        endpoint_spread = max(
            float(np.linalg.norm(p - q)) for p in pts for q in pts)
    elif "completed" not in statuses:
        ts = [r["ending"].t_star for r in runs]
        exit_spread = max(ts) - min(ts)
    return UniquenessReport(runs, endpoint_spread, exit_spread)


__all__ = [
    "Comorphism", "LiftError", "StartMismatchError", "ProbeVerdict",
    "UniquenessReport", "anchor_compat_residual", "pullback_section",
    "compose", "first_escape", "completeness_probe", "lift_path",
    "lift_homotopy", "lift_uniqueness_check",
]
