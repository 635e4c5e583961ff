"""A-paths and A-homotopies as sampled data, with residual diagnostics,
concatenation, and matrix-group development.

An A-path over an algebroid A is a pair (x(t), eta(t)) on [0,1] with
dx/dt = rho(x) eta; the defining equation is never assumed — it is
measured by `admissibility_residual`. A-homotopies carry the variation
section beta(t,s) and are diagnosed against the two homotopy equations

    dx^i/ds   = rho^i_a beta^a
    deta^c/ds = dbeta^c/dt + f^c_{ab} beta^a eta^b.

Development solves gamma' = gamma . (eta^a(t) E_a) in a matrix group;
`log_derivative` inverts it with 4th-order difference stencils (2nd-order
stencils leave O(h^2) components outside the Lie-algebra span, which would
trip the span tolerance at N = 1000).
"""

import math

import numpy as np

from .algebroid import AlgebroidError, evaluate, make_lie_algebra, matvec
from .expr import point
from .numkernel import (FlowOutcome, VectorFieldTD, check_uniform_grid, flow,
                        read_csv_rows, write_csv_rows)


class APath(FlowOutcome):
    """Sampled A-path: uniform grid on [0,1], base and fiber samples.

    junctions: indices excluded from residual maxima (concatenation
    points, where the path is only piecewise smooth). status/t_event
    record how integration ended when the path came from integrate_apath.
    """

    def __init__(self, algebroid, times, base, eta, status="completed",
                 t_event=None, junctions=()):
        self._store(algebroid, times, base, eta, status, t_event, junctions)
        for x in self.base:
            if not algebroid.in_domain(x):
                raise AlgebroidError(
                    f"base sample {point(x)} is outside the domain")

    @classmethod
    def _from_flow(cls, algebroid, traj, eta):
        """The A-path on the samples of a flow of a field on algebroid's
        domain, which are not tested again: `flow` keeps a sample only
        after its field's domain predicate accepted it."""
        g = cls.__new__(cls)
        g._store(algebroid, traj.times, traj.points, eta, traj.status,
                 traj.t_event, ())
        return g

    def _store(self, algebroid, times, base, eta, status, t_event,
               junctions):
        self.algebroid = algebroid
        self.times = np.asarray(times, dtype=float)
        self.base = np.asarray(base, dtype=float).reshape(len(self.times),
                                                          algebroid.n)
        self.eta = np.asarray(eta, dtype=float).reshape(len(self.times),
                                                        algebroid.r)
        self.status = status
        self.t_event = t_event
        self.junctions = frozenset(int(j) for j in junctions)

    @property
    def source(self):
        return self.base[0]

    @property
    def target(self):
        return self.base[-1]

    def write_csv(self, f):
        n, r = self.algebroid.n, self.algebroid.r
        cols = (["t"] + [f"x{i+1}" for i in range(n)]
                + [f"eta{a+1}" for a in range(r)])
        write_csv_rows(f, cols,
                       np.column_stack([self.times, self.base, self.eta]),
                       self.status_str())

    def __repr__(self):
        return (f"APath({len(self.times)} samples, n={self.algebroid.n}, "
                f"r={self.algebroid.r}, status={self.status_str()})")


def read_apath_csv(f, algebroid):
    """Inverse of APath.write_csv for a known algebroid. A malformed
    header, a non-finite cell or an uneven time grid raises ValueError."""
    header = f.readline().strip().split(",")
    n, r = algebroid.n, algebroid.r
    if len(header) != 1 + n + r or header[0] != "t":
        raise ValueError(
            f"APath CSV header must be t,x1..x{n},eta1..eta{r}")
    rows, status, t_event = read_csv_rows(f)
    check_uniform_grid([v[0] for v in rows])
    return APath(algebroid, [v[0] for v in rows], [v[1:1 + n] for v in rows],
                 [v[1 + n:] for v in rows], status, t_event)


def integrate_apath(A, s, x0, grid_size=1000, bound=1e8):
    """Solve dx/dt = rho(x) s(t, x) on [0,1]; eta_k = s(t_k, x_k).

    Returns an APath whose status records blowup/domain exit; the samples
    then cover only the integrated prefix.
    """
    n = A.n
    # one compiled function of (t, *x) gives rho(x) s(t, x), then s(t, x)
    fn = A.anchored_field(s.exprs, extra=s.exprs)
    vf = VectorFieldTD(n, lambda t, x: fn(t, *x)[:n], domain=A.in_domain)
    traj = flow(vf, x0, (0.0, 1.0), step=1.0 / grid_size, bound=bound)
    tx = np.column_stack([traj.times, traj.points])
    eta = evaluate(fn, tx, (n + A.r,))[:, n:]
    return APath._from_flow(A, traj, eta)


def _path_derivative(values, h):
    """d/dt of sampled values: central interior, 2nd-order one-sided ends."""
    v = np.asarray(values, dtype=float)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return d


def admissibility_residual(g):
    """max_k |finite-difference dx/dt - rho(x_k) eta_k|, junctions skipped.

    Central differences at interior grid points, one-sided second-order
    stencils at the two endpoints.
    """
    h = g.times[1] - g.times[0]
    dx = _path_derivative(g.base, h)
    keep = np.ones(len(g.times), dtype=bool)
    keep[list(g.junctions)] = False
    rho = g.algebroid.anchor_matrix(g.base[keep])
    r = dx[keep] - matvec(rho, g.eta[keep])
    return float(np.max(np.abs(r), initial=0.0))


def concat(g, g2):
    """Time-rescaled concatenation: first half 2g(2t), second half 2g'(2t-1).

    Requires matching grids and matching junction point; the junction
    becomes a grid index recorded in `junctions` (the concatenated path is
    only piecewise smooth there).
    """
    if g.algebroid is not g2.algebroid:
        raise AlgebroidError("concat needs paths over the same algebroid")
    if not (g.completed and g2.completed):
        raise AlgebroidError("concat needs completed paths")
    if len(g.times) != len(g2.times):
        raise AlgebroidError("concat needs equal grid sizes "
                             f"({len(g.times)} vs {len(g2.times)})")
    if float(np.max(np.abs(g.target - g2.source))) > 1e-9:
        raise AlgebroidError(
            f"endpoint mismatch: target {point(g.target)} vs "
            f"source {point(g2.source)}")
    m = len(g.times) - 1
    times = np.concatenate([0.5 * g.times, 0.5 + 0.5 * g2.times[1:]])
    base = np.concatenate([g.base, g2.base[1:]], axis=0)
    # the shared sample at t=1/2 takes the second path's fiber value
    # (the t >= 1/2 branch of the piecewise formula)
    eta = np.concatenate([2.0 * g.eta[:-1], 2.0 * g2.eta], axis=0)
    junctions = ({m}
                 | {j for j in g.junctions}
                 | {m + j for j in g2.junctions})
    return APath(g.algebroid, times, base, eta, junctions=junctions)


def constant_apath(A, x0, grid_size=1000):
    """The unit element at x0: constant base, zero fiber."""
    times = np.linspace(0.0, 1.0, grid_size + 1)
    base = np.tile(np.asarray(x0, dtype=float), (grid_size + 1, 1))
    eta = np.zeros((grid_size + 1, A.r))
    return APath(A, times, base, eta)


class AHomotopy:
    """Sampled A-homotopy: grids t, s on [0,1], samples x, eta, beta.

    x has shape (Nt, Ns, n); eta and beta have shape (Nt, Ns, r). The
    structural requirements — beta vanishing at t = 0, 1 and base
    endpoints constant in s — are enforced at construction.
    """

    def __init__(self, algebroid, t_grid, s_grid, x, eta, beta, tol=1e-9):
        self.algebroid = algebroid
        self.t_grid = np.asarray(t_grid, dtype=float)
        self.s_grid = np.asarray(s_grid, dtype=float)
        nt, ns = len(self.t_grid), len(self.s_grid)
        self.x = np.asarray(x, dtype=float).reshape(nt, ns, algebroid.n)
        self.eta = np.asarray(eta, dtype=float).reshape(nt, ns, algebroid.r)
        self.beta = np.asarray(beta, dtype=float).reshape(nt, ns, algebroid.r)
        # the negated comparisons reject nan
        bmax = float(np.max(np.abs(self.beta[[0, -1]])))
        if not bmax <= tol:
            raise AlgebroidError(
                f"beta must vanish at t = 0, 1 (max |beta| there: {bmax:.3e})")
        drift = float(np.ptp(self.x[[0, -1]], axis=1).max())
        if not drift <= tol:
            raise AlgebroidError(
                f"base endpoints must be constant in s (drift {drift:.3e} "
                f"> {tol:.3e})")

    @classmethod
    def from_functions(cls, algebroid, x_fn, eta_fn, beta_fn, nt=200, ns=200):
        """Sample callables (t, s) -> vector on an (nt+1) x (ns+1) grid."""
        t_grid = np.linspace(0.0, 1.0, nt + 1)
        s_grid = np.linspace(0.0, 1.0, ns + 1)
        x = np.array([[x_fn(t, s) for s in s_grid] for t in t_grid], float)
        eta = np.array([[eta_fn(t, s) for s in s_grid] for t in t_grid], float)
        beta = np.array([[beta_fn(t, s) for s in s_grid] for t in t_grid], float)
        return cls(algebroid, t_grid, s_grid, x, eta, beta)

    def write_csv(self, f):
        n, r = self.algebroid.n, self.algebroid.r
        cols = (["t", "s"] + [f"x{i+1}" for i in range(n)]
                + [f"eta{a+1}" for a in range(r)]
                + [f"beta{a+1}" for a in range(r)])
        nt, ns = len(self.t_grid), len(self.s_grid)
        # one row per grid point (k, l), row-major: t varies slowest
        write_csv_rows(f, cols, np.column_stack([
            np.repeat(self.t_grid, ns), np.tile(self.s_grid, nt),
            self.x.reshape(nt * ns, n), self.eta.reshape(nt * ns, r),
            self.beta.reshape(nt * ns, r)]))

    def __repr__(self):
        return (f"AHomotopy({len(self.t_grid)}x{len(self.s_grid)} grid, "
                f"n={self.algebroid.n}, r={self.algebroid.r})")


def read_ahomotopy_csv(f, algebroid):
    """Inverse of AHomotopy.write_csv for a known algebroid. A malformed
    header, a non-finite cell, a missing grid point or an uneven t or s
    grid raises ValueError."""
    n, r = algebroid.n, algebroid.r
    header = f.readline().strip().split(",")
    if len(header) != 2 + n + 2 * r or header[:2] != ["t", "s"]:
        raise ValueError(
            f"AHomotopy CSV header must be t,s,x1..x{n},eta1..eta{r},"
            f"beta1..beta{r}")
    rows = np.asarray(read_csv_rows(f)[0])
    t_grid = np.unique(rows[:, 0])
    s_grid = np.unique(rows[:, 1])
    nt, ns = len(t_grid), len(s_grid)
    if nt * ns != len(rows):
        raise ValueError("AHomotopy CSV is not a full grid")
    check_uniform_grid(t_grid, "t")
    check_uniform_grid(s_grid, "s")
    data = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    x = data[:, 2:2 + n].reshape(nt, ns, n)
    eta = data[:, 2 + n:2 + n + r].reshape(nt, ns, r)
    beta = data[:, 2 + n + r:].reshape(nt, ns, r)
    return AHomotopy(algebroid, t_grid, s_grid, x, eta, beta)


def homotopy_residual(H):
    """(res_x, res_eta): sup-norm residuals of the two homotopy equations
    over the interior of the (t, s) grid, derivatives by central
    differences, rho and f evaluated symbolically."""
    A = H.algebroid
    ht = H.t_grid[1] - H.t_grid[0]
    hs = H.s_grid[1] - H.s_grid[0]
    dx_ds = (H.x[:, 2:] - H.x[:, :-2]) / (2.0 * hs)
    deta_ds = (H.eta[:, 2:] - H.eta[:, :-2]) / (2.0 * hs)
    dbeta_dt = (H.beta[2:] - H.beta[:-2]) / (2.0 * ht)
    # the interior points (k, l), 0 < k < nt - 1 and 0 < l < ns - 1, as
    # one stack in row-major order
    n, r = A.n, A.r
    x = H.x[1:-1, 1:-1].reshape(-1, n)
    eta = H.eta[1:-1, 1:-1].reshape(-1, r)
    beta = H.beta[1:-1, 1:-1].reshape(-1, r)
    rho = A.anchor_matrix(x)
    f = A.bracket_tensor(x)
    r1 = dx_ds[1:-1].reshape(-1, n) - matvec(rho, beta)
    f_eta = (f @ eta[:, None, :, None])[..., 0]
    r2 = (deta_ds[1:-1].reshape(-1, r) - dbeta_dt[:, 1:-1].reshape(-1, r)
          - matvec(f_eta, beta))
    return (float(np.max(np.abs(r1), initial=0.0)),
            float(np.max(np.abs(r2), initial=0.0)))


class MatrixPath:
    """Sampled path in a matrix group: times plus (N+1, m, m) matrices."""

    def __init__(self, times, matrices):
        self.times = np.asarray(times, dtype=float)
        self.matrices = np.asarray(matrices, dtype=float)

    @property
    def endpoint(self):
        return self.matrices[-1]

    def write_csv(self, f):
        m = self.matrices.shape[-1]
        cols = ["t"] + [f"g{i+1}{j+1}" for i in range(m) for j in range(m)]
        write_csv_rows(f, cols, np.column_stack(
            [self.times, self.matrices.reshape(len(self.times), m * m)]))

    def __repr__(self):
        m = self.matrices.shape[-1]
        return f"MatrixPath({len(self.times)} samples, {m}x{m})"


def read_matrix_csv(f):
    """Inverse of MatrixPath.write_csv: header t,g11..gmm, row-major. A
    malformed header, a non-finite cell or an uneven time grid raises
    ValueError."""
    header = f.readline().strip().split(",")
    m2 = len(header) - 1
    m = int(round(math.sqrt(m2)))
    if header[:1] != ["t"] or m * m != m2:
        raise ValueError("not a matrix-path CSV header")
    rows = read_csv_rows(f)[0]
    check_uniform_grid([v[0] for v in rows])
    return MatrixPath([v[0] for v in rows],
                      [np.asarray(v[1:]).reshape(m, m) for v in rows])


def develop(basis, g):
    """Develop an A-path over a point into the matrix group: solve
    gamma' = gamma . (eta^a(t) E_a), gamma(0) = I, by RK4 on g's grid.

    eta between grid points is linearly interpolated.
    """
    basis = [np.asarray(E, dtype=float) for E in basis]
    if len(basis) != g.algebroid.r:
        raise AlgebroidError(
            f"rank mismatch: {len(basis)} basis matrices for rank "
            f"{g.algebroid.r}")
    m = basis[0].shape[0]
    if any(E.shape != (m, m) for E in basis):
        raise AlgebroidError("basis matrices must share a square shape")
    times = g.times
    eta = g.eta

    def eta_at(t):
        w = (t - times[0]) / (times[-1] - times[0]) * (len(times) - 1)
        k = min(int(w), len(times) - 2)
        frac = w - k
        return (1.0 - frac) * eta[k] + frac * eta[k + 1]

    def omega(t):
        ev = eta_at(t)
        M = np.zeros((m, m))
        for a, E in enumerate(basis):
            M += ev[a] * E
        return M

    gam = np.eye(m)
    out = [gam]
    for k in range(len(times) - 1):
        t, h = times[k], times[k + 1] - times[k]
        k1 = gam @ omega(t)
        k2 = (gam + 0.5 * h * k1) @ omega(t + 0.5 * h)
        k3 = (gam + 0.5 * h * k2) @ omega(t + 0.5 * h)
        k4 = (gam + h * k3) @ omega(t + h)
        gam = gam + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(gam)
    return MatrixPath(times, out)


def _matrix_path_derivative(gam, h):
    """4th-order finite-difference d/dt of a stacked matrix path."""
    if len(gam) < 5:
        raise AlgebroidError("log_derivative needs at least 5 samples")
    d = np.empty_like(gam)
    d[2:-2] = (gam[:-4] - 8.0 * gam[1:-3] + 8.0 * gam[3:-1] - gam[4:]) / (12.0 * h)
    d[0] = (-25.0 * gam[0] + 48.0 * gam[1] - 36.0 * gam[2]
            + 16.0 * gam[3] - 3.0 * gam[4]) / (12.0 * h)
    d[1] = (-3.0 * gam[0] - 10.0 * gam[1] + 18.0 * gam[2]
            - 6.0 * gam[3] + gam[4]) / (12.0 * h)
    d[-2] = (3.0 * gam[-1] + 10.0 * gam[-2] - 18.0 * gam[-3]
             + 6.0 * gam[-4] - gam[-5]) / (12.0 * h)
    d[-1] = (25.0 * gam[-1] - 48.0 * gam[-2] + 36.0 * gam[-3]
             - 16.0 * gam[-4] + 3.0 * gam[-5]) / (12.0 * h)
    return d


def log_derivative(gamma, basis, algebroid=None, span_tol=1e-6):
    """eta(t) = coordinates of gamma(t)^-1 gamma'(t) in the given basis.

    gamma' uses 4th-order stencils so that the component of the logarithmic
    derivative outside the Lie-algebra span stays at discretization noise;
    a span defect beyond span_tol raises. The result is an A-path over a
    point; `algebroid` chooses its carrier (default: abelian of matching
    rank — the output is frame-coordinate data, its bracket is not used).
    """
    gam = np.asarray(gamma.matrices, dtype=float)
    times = np.asarray(gamma.times, dtype=float)
    h = times[1] - times[0]
    m = gam.shape[-1]
    basis = [np.asarray(E, dtype=float) for E in basis]
    r = len(basis)
    B = np.stack([E.reshape(-1) for E in basis], axis=1)   # (m*m, r)
    B_pinv = np.linalg.pinv(B)
    dgam = _matrix_path_derivative(gam, h)
    eta = np.empty((len(times), r))
    defects = np.empty(len(times))
    for k in range(len(times)):
        try:
            V = np.linalg.solve(gam[k], dgam[k])
        except np.linalg.LinAlgError:
            raise AlgebroidError(f"gamma(t_{k}) is singular") from None
        v = V.reshape(-1)
        eta[k] = B_pinv @ v
        defects[k] = np.linalg.norm(v - B @ eta[k])
    worst = float(np.max(defects))
    if not worst <= span_tol:
        raise AlgebroidError(
            f"logarithmic derivative leaves the basis span "
            f"(defect {worst:.3e} > {span_tol:.1e})")
    if algebroid is None:
        algebroid = make_lie_algebra(np.zeros((r, r, r)))
    base = np.zeros((len(times), algebroid.n))
    return APath(algebroid, times, base, eta)


__all__ = [
    "APath", "AHomotopy", "MatrixPath", "integrate_apath",
    "admissibility_residual", "concat", "constant_apath",
    "homotopy_residual", "develop", "log_derivative",
    "read_apath_csv", "read_ahomotopy_csv", "read_matrix_csv",
]
