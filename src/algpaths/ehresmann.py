"""Flat Ehresmann connections, which are tangent-algebroid comorphisms, and
the twisted-cylinder example: X = R^2 x C x R minus the slab
J = {x = y = 0, -1 <= h <= 1}, fibered over Y = R^2 by forgetting (z, h),
with connection form i nu(h) dtheta.

The horizontal lift of a base motion rotates z at rate nu(h) times the
angular speed of (x, y) about the origin:

    z' = i nu(h) theta' z,    theta = atan2(y, x)

so transporting once around a loop encircling the origin multiplies z by
e^{2 pi i nu(h)}. nu is a bump supported in [-1/2, 1/2]; all coefficient
expressions are gate-wrapped so that they evaluate to exactly 0 (without
touching 1/r^2) wherever nu vanishes, which is what lets the connection
extend over r = 0 for |h| > 1.

A `FlatConnection` (phi, H) is the comorphism TX -> TY of tangent
algebroids with core phi and fiber matrix H, and nothing else: it is
compiled, evaluated, spot-checked (`anchor_compat_residual`, which for
tangent algebroids is |Dphi H - I|) and lifted through as one.

`ExampleConnection` is the one place that knows the twisted cylinder's
coordinates (x, y, z1, z2, h), with the complex fiber stored as (z1, z2) =
(Re z, Im z): it builds a loop's start (`start`) and marks the fiber
(`z_indices`) whose angle a lift's phase measures, an atan2 angle
unwrapped by continuity along the lift; a `FlatConnection` marks none.
"""

import math
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .algebroid import AlgebroidError, make_tangent
from .apath import APath
from .comorph import Comorphism, lift_path
from .numkernel import write_csv_rows


class FlatConnection(Comorphism):
    """A submersion phi: X -> Y with an expression-valued horizontal lift
    H, as the comorphism (phi, H) from the tangent algebroid of the domain
    in X to that of Y. H, its fiber matrix M, is (dim X) x (dim Y) with
    Dphi(x) H(x) = I; neither this section property
    (`anchor_compat_residual`) nor flatness (`flatness_residual`) is
    assumed: both are measured on samples. z_indices are the coordinates
    (Re z, Im z) of a complex fiber whose angle `holonomy` measures, None
    for no such fiber."""

    z_indices = None

    def __init__(self, x_coords, phi, H, domain=(), y_coords=None):
        x_coords = list(x_coords)
        nx, ny = len(x_coords), len(phi)
        if len(H) != nx or any(len(row) != ny for row in H):
            raise AlgebroidError(f"H must be {nx} x {ny}")
        super().__init__(make_tangent(nx, coords=x_coords, domain=domain),
                         make_tangent(ny, coords=y_coords), phi, H)

    def as_comorphism(self):
        """The connection itself, which is its tangent comorphism."""
        return self


def flatness_residual(fc, samples):
    """max over samples and base pairs (i, j) of the vertical part
    c - H (Dphi c) of the commutator c = [H e_i, H e_j], all derivatives
    symbolic. Every pair is measured: c vanishes for i = j, and the
    (j, i) commutator is the negated (i, j) one."""
    pts = fc.source.in_domain.require(samples, fc.source.n, "sample")
    H = fc.M_at(pts)                          # [k, i]
    dH = fc.M_map.jacobian(pts)               # [k, j, l] = d_l H^k_j
    grad = np.einsum("...li,...kjl->...kij", H, dH)
    # one column per commutator: [k, (i, j)]
    cols = (grad - np.swapaxes(grad, -1, -2)).reshape(*H.shape[:2], -1)
    vert = cols - H @ (fc.dphi_at(pts) @ cols)
    return float(np.max(np.abs(vert), initial=0.0))


# ------------------------------------------------------- the 3.x example --

_XC = ["x", "y", "z1", "z2", "h"]


class ExampleConnection(FlatConnection):
    """The twisted-cylinder connection on X = R^2 x C x R minus the slab.

    nu(h) = nu0 * bump(support_lo, support_hi, h): exactly nu0 at the
    midpoint of the support and identically zero outside it. The domain
    predicate x^2 + y^2 + estep(h - h_hi) + estep(h_lo - h) > 0 excludes
    exactly the slab {r = 0, h_lo <= h <= h_hi} (slab [-1, 1] by default).
    nu0 must be finite, and support and slab two finite numbers lo < hi.
    """

    z_indices = (2, 3)

    def __init__(self, nu0, support=(-0.5, 0.5), slab=(-1.0, 1.0)):
        self.nu0 = nu0 = _finite("nu0", nu0)
        self.support = support = _finite("support", support, interval=True)
        self.slab = slab = _finite("slab", slab, interval=True)
        h = ex.Var("h")
        # Const(0.0) for nu0 = 0.0 or -0.0, which folds every gate on it
        self.nu_expr = ex.mul(
            ex.Const(nu0),
            ex.fun("bump", ex.Const(support[0]), ex.Const(support[1]), h))
        self._nu_map = ex.SmoothMap(["h"], self.nu_expr)
        x, y, z1, z2 = (ex.Var(v) for v in ("x", "y", "z1", "z2"))
        r2 = ex.add(ex.pow_(x, 2), ex.pow_(y, 2))
        nu = self.nu_expr

        def gate(e):
            return ex.fun("gate", nu, e)

        zero, one = ex.Const(0.0), ex.Const(1.0)
        H = [
            [one, zero],
            [zero, one],
            # z' = i nu theta' z with theta' = (-y/r^2, x/r^2) per base axis
            [gate(ex.div(ex.mul(y, z2), r2)),
             gate(ex.neg(ex.div(ex.mul(x, z2), r2)))],
            [gate(ex.neg(ex.div(ex.mul(y, z1), r2))),
             gate(ex.div(ex.mul(x, z1), r2))],
            [zero, zero],
        ]
        domain = [ex.add(ex.add(r2, ex.fun("estep", ex.sub(h, ex.Const(slab[1])))),
                         ex.fun("estep", ex.sub(ex.Const(slab[0]), h)))]
        super().__init__(_XC, [x, y], H, domain, y_coords=["x", "y"])

    def nu(self, h):
        return self._nu_map.eval_unchecked([h]).item()

    def start(self, radius, z0, h):
        """(radius, 0, z0, h), where the circle loop of that radius about
        the origin starts its lift; ValueError unless z0 = (Re z0, Im z0)
        is nonzero (see `_nonzero`)."""
        return [float(radius), 0.0, *_nonzero(z0), float(h)]


def _finite(name, value, interval=False):
    """value as a finite float, or as an interval (lo, hi) of two finite
    floats with lo < hi; ValueError naming it otherwise."""
    try:
        xs = tuple(map(float, value if interval else [value]))
    except (TypeError, ValueError):
        xs = ()
    if not (len(xs) == (2 if interval else 1) and all(map(math.isfinite, xs))
            and (not interval or xs[0] < xs[1])):
        what = "two finite numbers lo < hi" if interval else "a finite number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return xs if interval else xs[0]


def _nonzero(z0):
    """z0 = (Re z0, Im z0) as two floats; ValueError for z0 = 0, which has
    no phase, or for another number of coordinates."""
    z1, z2 = map(float, z0)
    if z1 == z2 == 0.0:
        raise ValueError("z0 must be nonzero")
    return z1, z2


def circle_loop(fc, radius=1.0, center=(0.0, 0.0), turns=1, grid=1000):
    """Closed circle in the base of fc's target, with exact fiber data
    eta = dy/dt; ValueError, before sampling, where samples, at most
    |centre| + |radius| and |radius * 2 pi turns| in size, are not finite."""
    tgt = fc.target
    times = np.linspace(0.0, 1.0, grid + 1)
    w = 2.0 * math.pi * turns
    if not all(map(math.isfinite, (abs(center[0]) + abs(radius),
                                   abs(center[1]) + abs(radius), radius * w))):
        raise ValueError(f"a loop of radius {radius!r} about {tuple(center)} "
                         f"has samples that are not finite")
    base = np.stack([center[0] + radius * np.cos(w * times),
                     center[1] + radius * np.sin(w * times)], axis=1)
    eta = np.stack([-radius * w * np.sin(w * times),
                    radius * w * np.cos(w * times)], axis=1)
    # exact closure: first and last samples coincide bitwise
    base[-1] = base[0]
    eta[-1] = eta[0]
    return APath(tgt, times, base, eta)


def holonomy(fc, loop, x0):
    """Lift the closed base loop through x0, one start point or a stack
    of them as for `lift_path`: the lifted A-path, which transports the
    fiber from `source` to `target`, or the list of them, each with
    `phase`, the unwrapped angle that fc's complex fiber sweeps (None
    when fc marks none or the lift has one sample)."""
    if float(np.max(np.abs(loop.base[0] - loop.base[-1]))) > 1e-9:
        raise AlgebroidError("holonomy needs a closed loop")
    lifts = lift_path(fc, loop, x0)
    zi = fc.z_indices
    for lifted in lifts if isinstance(lifts, list) else [lifts]:
        lifted.phase = None
        if zi is not None and len(lifted.base) > 1:
            angles = np.unwrap(np.arctan2(lifted.base[:, zi[1]],
                                          lifted.base[:, zi[0]]))
            lifted.phase = float(angles[-1] - angles[0])
    return lifts


def sheet_count(nu_value, k_max=10**6, tol=1e-9):
    """Order of nu in R/Z: smallest k <= k_max with k*nu within tol of an
    integer, else math.inf (reported honestly as 'order > k_max').

    Only the continued-fraction convergent denominators of nu (of the
    float's exact value) are tested: the smallest k with |k nu - round(k
    nu)| <= tol is nearer an integer than every smaller multiple, and such
    best approximations are convergent denominators. That takes
    O(log k_max) steps and no memory of size k_max. (A tol near the
    rounding error of k*nu, about k * |nu| * 2^-53, is below what the
    float test can resolve: a scan of every k could then also stop at a
    multiple of a denominator whose product happens to round to an
    integer.)
    """
    nu = float(nu_value)
    if not math.isfinite(nu):
        return math.inf
    p, q = nu.as_integer_ratio()       # nu = p/q exactly, q > 0
    k_prev, k = 0, 1
    while k <= k_max:
        x = k * nu
        if abs(x - round(x)) <= tol:
            return k
        # next partial quotient: invert the fractional part of p/q
        p, q = q, p % q
        if q == 0:
            break
        k_prev, k = k, (p // q) * k + k_prev
    return math.inf


class GammaElement:
    """Element gamma = (r, theta, r', tau, z, h) of the example groupoid.

    source(gamma) = (r, theta, z, h); target(gamma) =
    (r', theta + tau, e^{i nu(h) tau} z, h), both in the polar chart
    (radius, angle, z1, z2, h); theta + tau is returned unreduced.
    """

    def __init__(self, conn, r, theta, rp, tau, z, h):
        if r <= 0 or rp <= 0:
            raise ValueError("need r, r' > 0")
        lo, hi = conn.slab
        if not lo < h < hi:
            raise ValueError(f"need h strictly inside the slab interval "
                             f"({lo}, {hi})")
        self.conn = conn
        self.r = float(r)
        self.theta = float(theta)
        self.rp = float(rp)
        self.tau = float(tau)
        self.z = (float(z[0]), float(z[1]))
        self.h = float(h)

    def source(self):
        return (self.r, self.theta, self.z[0], self.z[1], self.h)

    def target(self):
        nu = self.conn.nu(self.h)
        a = nu * self.tau
        c, s = math.cos(a), math.sin(a)
        w = (c * self.z[0] - s * self.z[1], s * self.z[0] + c * self.z[1])
        return (self.rp, self.theta + self.tau, w[0], w[1], self.h)

    def then(self, other):
        """Composite doing self first, then other: taus add, radii chain.
        Requires source(other) to match target(self) to within 1e-9."""
        if other.conn is not self.conn:
            raise ValueError("elements belong to different connections")
        tgt = self.target()
        src = other.source()
        if max(abs(a - b) for a, b in zip(tgt, src)) > 1e-9:
            raise ValueError(f"cannot compose: target {tgt} != source {src}")
        return GammaElement(self.conn, self.r, self.theta, other.rp,
                            self.tau + other.tau, self.z, self.h)

    def is_unit(self):
        return self.tau == 0.0 and self.r == self.rp

    def __repr__(self):
        return (f"GammaElement(r={self.r}, theta={self.theta}, r'={self.rp}, "
                f"tau={self.tau}, z={self.z}, h={self.h})")


class DensityReport(NamedTuple):
    """Sampled picture of the (theta', arg z') relation on the 2-torus."""

    nu: float
    tau_max: float
    bins: int
    cells_hit: int
    cells_total: int
    coverage: float
    line_count: int
    max_gap: float


TWO_PI = 2.0 * math.pi
DENSITY_MAX_SAMPLES = 4 * 10**6


def density_scan(nu_value, theta_offset, z0, tau_max, bins):
    """Sample (theta', arg z') = (theta0 + tau, arg z0 + nu tau) mod 2pi
    for tau in [0, tau_max], four samples per bin width of theta'; more
    than DENSITY_MAX_SAMPLES samples are refused before any is taken.

    Reports the fraction of bins x bins cells hit, the number of distinct
    lines arg z' = nu theta' + b (cluster count of the intercepts b), and
    the maximum circular gap between consecutive intercepts.
    """
    z0 = _nonzero(z0)
    if bins < 2:
        raise ValueError("bins must be >= 2")
    nu_value = float(nu_value)
    a0 = math.atan2(z0[1], z0[0])
    step = TWO_PI / (4.0 * bins)
    samples = float(tau_max) / step + 1.0
    if not 1.0 <= samples <= DENSITY_MAX_SAMPLES:
        raise ValueError(
            f"tau_max = {tau_max!r} with {bins} bins needs {samples:.4g} "
            f"samples; need tau_max >= 0 and at most "
            f"{DENSITY_MAX_SAMPLES} samples")
    tau = np.arange(0.0, tau_max + step / 2.0, step)
    theta = np.mod(theta_offset + tau, TWO_PI)
    argz = np.mod(a0 + nu_value * tau, TWO_PI)
    it = np.minimum((theta / TWO_PI * bins).astype(int), bins - 1)
    ia = np.minimum((argz / TWO_PI * bins).astype(int), bins - 1)
    cells_hit = len(np.unique(it * bins + ia))

    # line intercepts b = (arg z' - nu theta') mod 2pi cluster into the
    # distinct lines traced on the torus
    b = np.sort(np.unique(np.round(
        np.mod(argz - nu_value * theta, TWO_PI), 9)))
    # merge clusters closer than 1e-6 (circularly)
    merged = [b[0]]
    for v in b[1:]:
        if v - merged[-1] > 1e-6:
            merged.append(v)
    if len(merged) > 1 and (TWO_PI - merged[-1] + merged[0]) <= 1e-6:
        merged.pop()
    line_count = len(merged)
    if line_count == 1:
        max_gap = TWO_PI
    else:
        arr = np.asarray(merged)
        gaps = np.diff(arr)
        max_gap = float(max(gaps.max(), TWO_PI - arr[-1] + arr[0]))
    return DensityReport(nu_value, tau_max, bins, cells_hit, bins * bins,
                         cells_hit / (bins * bins), line_count, max_gap)


class SelfIntersectionReport(NamedTuple):
    """Witness that the target-source immersion self-intersects: equal
    image points at tau and tau + 2pi, distinct tangent planes."""

    nu: float
    image_mismatch: float
    gap: float
    expected_gap: float
    degenerate: bool


def _ts_jacobian(nu, r, theta, rp, tau):
    """Jacobian of gamma -> (source, target) in the polar chart at z = 0.

    Parameter order (r, theta, r', tau, z1, z2, h); image coordinates
    (r, theta, z1, z2, h, r', theta + tau, w1, w2, h) with w = R(nu tau) z.
    Only the z-block depends on tau at z = 0.
    """
    J = np.zeros((10, 7))
    J[0, 0] = 1.0          # r
    J[1, 1] = 1.0          # theta
    J[2, 4] = 1.0          # z1
    J[3, 5] = 1.0          # z2
    J[4, 6] = 1.0          # h
    J[5, 2] = 1.0          # r'
    J[6, 1] = 1.0          # theta + tau
    J[6, 3] = 1.0
    a = nu * tau
    J[7, 4], J[7, 5] = math.cos(a), -math.sin(a)   # w1
    J[8, 4], J[8, 5] = math.sin(a), math.cos(a)    # w2
    J[9, 6] = 1.0          # h
    return J


def self_intersection_witness(conn, h, tau, r=1.0, theta=0.0, rp=1.0):
    """Compare the target-source immersion at tau and tau + 2pi, at z = 0.

    The two images are the (source, target) of the `GammaElement`s at tau
    and tau + 2pi, which check r, r' > 0 and h inside the slab. Verifies
    the image points coincide (angles reduced mod 2pi) and returns the
    Frobenius gap between the two tangent planes' orthogonal projectors;
    for the rotated z-columns this equals the chord distance
    2 |sin(pi nu)| of the rotation by 2 pi nu.
    """
    nu = conn.nu(h)

    def image(t):
        g = GammaElement(conn, r, theta, rp, t, (0.0, 0.0), h)
        img = np.array([*g.source(), *g.target()])
        img[[1, 6]] %= TWO_PI          # the angles theta and theta + tau
        return img

    # the mismatch is carried by the reduced angles
    mismatch = float(np.max(np.abs(image(tau) - image(tau + TWO_PI))))
    J1 = _ts_jacobian(nu, r, theta, rp, tau)
    J2 = _ts_jacobian(nu, r, theta, rp, tau + TWO_PI)

    def projector(J):
        Q, _ = np.linalg.qr(J)
        return Q @ Q.T

    gap = float(np.linalg.norm(projector(J1) - projector(J2), "fro"))
    frac = nu - round(nu)
    degenerate = abs(frac) <= 1e-12
    expected = 2.0 * abs(math.sin(math.pi * nu))
    return SelfIntersectionReport(nu, mismatch, gap, expected, degenerate)


def holonomy_sweep(conn, h_values, radius=1.0, grid=1000, z0=(1.0, 0.0),
                   k_max=10**6):
    """Numeric holonomy phase, nu(h), and sheet count across h values:
    one `holonomy` of the loop from the stack of their `start`s.

    Rows serialize to the CSV schema 'h,nu,holonomy_angle,sheets'.
    """
    loop = circle_loop(conn, radius=radius, grid=grid)
    starts = [conn.start(radius, z0, h) for h in h_values]
    lifts = holonomy(conn, loop, np.reshape(starts, (-1, conn.source.n)))
    nus = [conn.nu(h) for h in h_values]
    return [{"h": float(h), "nu": nu, "holonomy_angle": lifted.phase,
             "sheets": sheet_count(nu, k_max=k_max)}
            for h, nu, lifted in zip(h_values, nus, lifts)]


def write_sweep_csv(rows, f):
    """Write sweep rows as their CSV, an infinite sheet count as inf."""
    floats = ["h", "nu", "holonomy_angle"]
    write_csv_rows(f, floats + ["sheets"], [
        *(np.array([row[k] for row in rows], dtype=float) for k in floats),
        ["inf" if row["sheets"] == math.inf else str(int(row["sheets"]))
         for row in rows]])


__all__ = [
    "FlatConnection", "ExampleConnection", "GammaElement",
    "DensityReport", "SelfIntersectionReport",
    "flatness_residual", "holonomy", "circle_loop",
    "sheet_count", "density_scan",
    "self_intersection_witness", "holonomy_sweep", "write_sweep_csv",
]
