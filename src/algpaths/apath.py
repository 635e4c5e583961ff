"""A-paths and A-homotopies as sampled data, with residual diagnostics
and matrix-group development.

An A-path over an algebroid A is a pair (x(t), eta(t)) on [0,1] with
dx/dt = rho(x) eta; the defining equation is never assumed — it is
measured by `admissibility_residual`. A-homotopies carry the variation
section beta(t,s) and are diagnosed against the two homotopy equations

    dx^i/ds   = rho^i_a beta^a
    deta^c/ds = dbeta^c/dt + f^c_{ab} beta^a eta^b.

Development solves gamma' = gamma . (eta^a(t) E_a) in a matrix group
with the one RK4 kernel, `numkernel.flow`;
`log_derivative` inverts it with 4th-order difference stencils (2nd-order
stencils leave O(h^2) components outside the Lie-algebra span, which would
trip the span tolerance at N = 1000).
"""

import math

import numpy as np

from . import expr as ex
from .algebroid import AlgebroidError, make_lie_algebra, matvec
from .expr import evaluate
from .numkernel import (COMPLETED, FlowOutcome, TabulatedField, Trajectory,
                        check_uniform_grid, flow, read_csv, stage_table,
                        write_csv_rows)


class BasisError(AlgebroidError, ValueError):
    """A basis that does not fit the A-path to develop: bad input."""


class APath(FlowOutcome):
    """Sampled A-path: uniform grid on [0,1], base and fiber samples. An
    uneven time grid raises ValueError (`numkernel.check_uniform_grid`).

    ending is the `numkernel.Ending` of the flow it came from, COMPLETED
    for samples.
    """

    def __init__(self, algebroid, times, base, eta, ending=COMPLETED):
        self._store(algebroid, times, base, eta, ending)
        check_uniform_grid(self.times)
        algebroid.in_domain.require(self.base, algebroid.n, "base sample",
                                    AlgebroidError)

    @classmethod
    def _from_flow(cls, algebroid, traj, eta):
        """The A-path on the samples of a flow of a field on algebroid's
        domain, which are not tested again: `flow` keeps a sample only
        after its field's domain predicate accepted it."""
        g = cls.__new__(cls)
        g._store(algebroid, traj.times, traj.points, eta, traj.ending)
        return g

    def _store(self, algebroid, times, base, eta, ending):
        self.algebroid = algebroid
        self.times = np.asarray(times, dtype=float)
        self.base = np.asarray(base, dtype=float).reshape(len(self.times),
                                                          algebroid.n)
        self.eta = np.asarray(eta, dtype=float).reshape(len(self.times),
                                                        algebroid.r)
        self.ending = ending

    @property
    def source(self):
        return self.base[0]

    @property
    def target(self):
        return self.base[-1]

    @staticmethod
    def columns(n, r):
        """The CSV header of an A-path over a rank-r algebroid on R^n."""
        return Trajectory.columns(n) + [f"eta{a+1}" for a in range(r)]

    def write_csv(self, f):
        write_csv_rows(f, self.columns(self.algebroid.n, self.algebroid.r),
                       [self.times, *self.base.T, *self.eta.T], self.ending)

    def __repr__(self):
        return (f"APath({len(self.times)} samples, n={self.algebroid.n}, "
                f"r={self.algebroid.r}, status={self.ending})")


def read_apath_csv(f, algebroid):
    """Inverse of APath.write_csv for a known algebroid. A malformed
    header, a non-finite cell, fewer than 2 samples or an uneven time grid
    raises ValueError."""
    n, r = algebroid.n, algebroid.r
    rows, ending = read_csv(f, lambda _: APath.columns(n, r), "APath")
    if len(rows) < 2:
        raise ValueError(f"an A-path needs at least 2 samples, got "
                         f"{len(rows)}")
    return APath(algebroid, rows[:, 0], rows[:, 1:1 + n], rows[:, 1 + n:],
                 ending)


def integrate_apath(A, s, x0, grid_size=1000, bound=1e8):
    """Solve dx/dt = rho(x) s(t, x) on [0,1]; eta_k = s(t_k, x_k).

    Returns an APath whose status records blowup/domain exit; the samples
    then cover only the integrated prefix.
    """
    # one compiled function of (t, *x) gives rho(x) s(t, x), then s(t, x),
    # which the flow records at every sample but the last
    fn = A.anchored_field(s.exprs, extra=s.exprs)
    traj = flow(A.flow_field(fn), x0, (0.0, 1.0), step=1.0 / grid_size,
                bound=bound)
    last = evaluate(fn, [traj.times[-1], *traj.points[-1]], (A.n + A.r,))
    eta = np.concatenate([traj.extras, last[None, A.n:]])
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
    """max_k |finite-difference dx/dt - rho(x_k) eta_k|.

    Central differences at interior grid points, one-sided second-order
    stencils at the two endpoints: ValueError for a path of fewer than
    the 3 samples a stencil reads, such as the prefix of a flow that
    escaped in its first step.
    """
    if len(g.times) < 3:
        raise ValueError(f"the admissibility residual's stencils need at "
                         f"least 3 samples, got {len(g.times)}")
    h = g.times[1] - g.times[0]
    dx = _path_derivative(g.base, h)
    r = dx - matvec(g.algebroid.anchor_matrix(g.base), g.eta)
    return float(np.max(np.abs(r), initial=0.0))


class AHomotopy:
    """Sampled A-homotopy: grids t, s on [0,1], samples x, eta, beta.

    x has shape (Nt, Ns, n); eta and beta have shape (Nt, Ns, r). The
    structural requirements — beta vanishing at t = 0, 1 and base
    endpoints constant in s — are enforced at construction, and an uneven
    t or s grid raises ValueError (`numkernel.check_uniform_grid`): the
    residuals difference with the first spacing.
    """

    def __init__(self, algebroid, t_grid, s_grid, x, eta, beta, tol=1e-9):
        self.algebroid = algebroid
        self.t_grid = np.asarray(t_grid, dtype=float)
        self.s_grid = np.asarray(s_grid, dtype=float)
        check_uniform_grid(self.t_grid, "t")
        check_uniform_grid(self.s_grid, "s")
        nt, ns = len(self.t_grid), len(self.s_grid)
        self.x = np.asarray(x, dtype=float).reshape(nt, ns, algebroid.n)
        self.eta = np.asarray(eta, dtype=float).reshape(nt, ns, algebroid.r)
        self.beta = np.asarray(beta, dtype=float).reshape(nt, ns, algebroid.r)
        # the negated comparisons reject nan
        bmax = float(np.max(np.abs(self.beta[[0, -1]]), initial=0.0))
        if not bmax <= tol:
            raise AlgebroidError(
                f"beta must vanish at t = 0, 1 (max |beta| there: {bmax:.3e})")
        drift = float(np.ptp(self.x[[0, -1]], axis=1).max(initial=0.0))
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

    @staticmethod
    def columns(n, r):
        """The CSV header of an A-homotopy over a rank-r algebroid on R^n."""
        return (["t", "s"] + APath.columns(n, r)[1:]
                + [f"beta{a+1}" for a in range(r)])

    def write_csv(self, f):
        """One row per grid point (k, l), row-major: t varies slowest. The
        t and s values are formatted once each and their text repeated,
        so the grid columns cost nt + ns reprs, not 2 nt ns."""
        n, r = self.algebroid.n, self.algebroid.r
        nt, ns = len(self.t_grid), len(self.s_grid)
        t_text = list(map(repr, self.t_grid.tolist()))
        s_text = list(map(repr, self.s_grid.tolist()))
        write_csv_rows(f, self.columns(n, r), [
            [v for v in t_text for _ in range(ns)], s_text * nt,
            *self.x.reshape(nt * ns, n).T, *self.eta.reshape(nt * ns, r).T,
            *self.beta.reshape(nt * ns, r).T])

    def __repr__(self):
        return (f"AHomotopy({len(self.t_grid)}x{len(self.s_grid)} grid, "
                f"n={self.algebroid.n}, r={self.algebroid.r})")


def read_ahomotopy_csv(f, algebroid):
    """Inverse of AHomotopy.write_csv for a known algebroid. A malformed
    header, a non-finite cell, fewer than 2 t or s values, a grid point
    missing or repeated, or an uneven t or s grid raises ValueError."""
    n, r = algebroid.n, algebroid.r
    rows = read_csv(f, lambda _: AHomotopy.columns(n, r), "AHomotopy")[0]
    t_grid = np.unique(rows[:, 0])
    s_grid = np.unique(rows[:, 1])
    nt, ns = len(t_grid), len(s_grid)
    _check_grid_size(nt, ns)
    data = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    # sorted, the (t, s) columns of a full grid list each point once
    if not (np.array_equal(data[:, 0], np.repeat(t_grid, ns))
            and np.array_equal(data[:, 1], np.tile(s_grid, nt))):
        raise ValueError("AHomotopy CSV is not a full grid: each (t, s) "
                         "grid point must appear once")
    x = data[:, 2:2 + n].reshape(nt, ns, n)
    eta = data[:, 2 + n:2 + n + r].reshape(nt, ns, r)
    beta = data[:, 2 + n + r:].reshape(nt, ns, r)
    return AHomotopy(algebroid, t_grid, s_grid, x, eta, beta)


def _check_grid_size(nt, ns):
    """ValueError unless a homotopy grid has 2 or more t and s values."""
    if nt < 2 or ns < 2:
        raise ValueError(f"an A-homotopy needs at least 2 t values and 2 s "
                         f"values, got {nt} and {ns}")


def homotopy_residual(H):
    """(res_x, res_eta): sup-norm residuals of the two homotopy equations
    over the interior of the (t, s) grid, derivatives by central
    differences, rho and f evaluated symbolically. ValueError for a grid
    with fewer than 2 t or s values."""
    A = H.algebroid
    _check_grid_size(len(H.t_grid), len(H.s_grid))
    ht = H.t_grid[1] - H.t_grid[0]
    hs = H.s_grid[1] - H.s_grid[0]
    dx_ds = (H.x[:, 2:] - H.x[:, :-2]) / (2.0 * hs)
    deta_ds = (H.eta[:, 2:] - H.eta[:, :-2]) / (2.0 * hs)
    dbeta_dt = (H.beta[2:] - H.beta[:-2]) / (2.0 * ht)
    # the interior points (k, l), 0 < k < nt - 1 and 0 < l < ns - 1, as
    # one stack of N points in row-major order (N given: n or r may be 0)
    n, r = A.n, A.r
    N = (len(H.t_grid) - 2) * (len(H.s_grid) - 2)
    x = H.x[1:-1, 1:-1].reshape(N, n)
    eta = H.eta[1:-1, 1:-1].reshape(N, r)
    beta = H.beta[1:-1, 1:-1].reshape(N, r)
    rho = A.anchor_matrix(x)
    f = A.bracket_tensor(x)
    r1 = dx_ds[1:-1].reshape(N, n) - matvec(rho, beta)
    f_eta = (f @ eta[:, None, :, None])[..., 0]
    r2 = (deta_ds[1:-1].reshape(N, r) - dbeta_dt[:, 1:-1].reshape(N, r)
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

    @staticmethod
    def columns(m):
        """The CSV header of a path of m x m matrices, row-major."""
        return ["t"] + [f"g{i+1}{j+1}" for i in range(m) for j in range(m)]

    def write_csv(self, f):
        m = self.matrices.shape[-1]
        write_csv_rows(f, self.columns(m), [
            self.times, *self.matrices.reshape(len(self.times), m * m).T])

    def __repr__(self):
        m = self.matrices.shape[-1]
        return f"MatrixPath({len(self.times)} samples, {m}x{m})"


def read_matrix_csv(f):
    """Inverse of MatrixPath.write_csv: header t,g11..gmm, row-major. A
    malformed header, a non-finite cell or an uneven time grid raises
    ValueError."""
    rows = read_csv(f, lambda header: MatrixPath.columns(
        max(math.isqrt(len(header) - 1), 1)), "matrix-path")[0]
    check_uniform_grid(rows[:, 0])
    m = math.isqrt(rows.shape[1] - 1)
    return MatrixPath(rows[:, 0], rows[:, 1:].reshape(-1, m, m))


def develop(basis, g):
    """Develop an A-path over a point into the matrix group: solve
    gamma' = gamma . (eta^a(t) E_a), gamma(0) = I, by RK4 on g's grid.

    gamma . (sum_a xi_a E_a) is compiled once over (xi, gamma's entries)
    and flowed by `numkernel.flow`, xi being eta interpolated linearly.
    A basis that is not rank-many square matrices of one shape raises
    BasisError, a development that goes non-finite AlgebroidError.
    """
    basis = [np.asarray(E, dtype=float) for E in basis]
    if len(basis) != g.algebroid.r:
        raise BasisError(f"rank mismatch: {len(basis)} basis matrices for "
                         f"rank {g.algebroid.r}")
    m = basis[0].shape[0]
    if any(E.shape != (m, m) for E in basis):
        raise BasisError("basis matrices must share a square shape")
    if len(g.times) == 1:
        return MatrixPath(g.times, [np.eye(m)])
    xi = [ex.Var(f"xi{a+1}") for a in range(len(basis))]
    gam = [[ex.Var(f"g{i+1}_{j+1}") for j in range(m)] for i in range(m)]
    omega = [[ex.dot(xi, [ex.Const(E[k, j]) for E in basis])
              for j in range(m)] for k in range(m)]
    fn = ex.compile_exprs([ex.dot(gam[i], [row[j] for row in omega])
                           for i in range(m) for j in range(m)],
                          [v.name for v in xi + sum(gam, [])])
    steps, table = stage_table(g.times, g.eta, "linear")
    t0, t1 = float(g.times[0]), float(g.times[-1])
    traj = flow(TabulatedField(m * m, fn, table.tolist()), np.eye(m).ravel(),
                (t0, t1), step=(t1 - t0) / steps, bound=math.inf)
    if not traj.completed:
        raise AlgebroidError(f"the development is not finite: "
                             f"{traj.ending}")
    return MatrixPath(g.times, traj.points.reshape(-1, m, m))


def _matrix_path_derivative(gam, h):
    """4th-order finite-difference d/dt of a stacked matrix path."""
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
    if len(times) < 5:
        raise ValueError(f"log_derivative needs at least 5 samples, got "
                         f"{len(times)}")
    h = times[1] - times[0]
    m = gam.shape[-1]
    basis = [np.asarray(E, dtype=float) for E in basis]
    for E in basis:
        if E.shape != (m, m):
            raise ValueError(f"a basis matrix of shape {E.shape} for a path "
                             f"of {m} x {m} matrices")
    r = len(basis)
    B = np.stack([E.reshape(-1) for E in basis], axis=1)   # (m*m, r)
    B_pinv = np.linalg.pinv(B)
    dgam = _matrix_path_derivative(gam, h)
    # one stacked solve and projection, with the bits of one per sample
    try:
        v = np.linalg.solve(gam, dgam).reshape(len(times), -1)
    except np.linalg.LinAlgError:
        for k in range(len(times)):             # name the first singular
            try:
                np.linalg.solve(gam[k], dgam[k])
            except np.linalg.LinAlgError:
                raise AlgebroidError(f"gamma(t_{k}) is singular") from None
        raise
    eta = matvec(B_pinv, v)
    worst = float(np.max(np.linalg.norm(v - matvec(B, eta), axis=1)))
    if not worst <= span_tol:
        raise AlgebroidError(
            f"logarithmic derivative leaves the basis span "
            f"(defect {worst:.3e} > {span_tol:.1e})")
    if algebroid is None:
        algebroid = make_lie_algebra(np.zeros((r, r, r)))
    base = np.zeros((len(times), algebroid.n))
    return APath(algebroid, times, base, eta)


__all__ = [
    "APath", "AHomotopy", "BasisError", "MatrixPath", "integrate_apath",
    "admissibility_residual", "homotopy_residual", "develop", "log_derivative",
    "read_apath_csv", "read_ahomotopy_csv", "read_matrix_csv",
]
