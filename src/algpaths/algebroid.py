"""Lie algebroids in a single chart, represented by structure functions.

A LieAlgebroid over an open subset of R^n with rank-r frame {e_1..e_r} is
stored as expression-valued structure functions

    anchor entries rho^i_a(x)   (i = 1..n base index, a = 1..r frame index)
    bracket entries f^c_{ab}(x) for a < b, with f^c_{ba} = -f^c_{ab}
    domain predicates (expressions required strictly positive)

The axioms are not assumed: `check_axioms` evaluates the anchor-morphism
and Jacobi residuals at sample points, with all derivatives symbolic.
"""

import numpy as np

from . import expr as ex
from .numkernel import VectorFieldTD


class AlgebroidError(Exception):
    pass


def _coords(n):
    return [f"x{i+1}" for i in range(n)]


def evaluate(fn, x, shape):
    """The values of a function compiled by `expr.compile_exprs` at the
    point x, as an array of `shape`; at a stack of points x of shape
    (N, n), one call per point as plain floats, stacked to (N, *shape)."""
    if np.ndim(x) == 1:
        return np.asarray(fn(*x), dtype=float).reshape(shape)
    pts = np.asarray(x, dtype=float)
    vals = [fn(*p) for p in pts.tolist()]
    return np.array(vals, dtype=float).reshape(len(pts), *shape)


def matvec(mats, vecs):
    """mats[k] @ vecs[k] for a stack of K matrices and K vectors, as a
    (K, rows) array."""
    v = np.ascontiguousarray(vecs, dtype=float)
    return (mats @ v[:, :, None])[:, :, 0]


def antisymmetric(keys, vals, shape):
    """Antisymmetric completion in the last two axes: the array of
    vals.shape[:-1] + shape holding vals[..., k] at keys[k] = (..., i, j),
    its negation at (..., j, i), and zero elsewhere."""
    out = np.zeros(vals.shape[:-1] + shape)
    idx = tuple(np.array(keys).T)
    out[(..., *idx)] = vals
    out[(..., *idx[:-2], idx[-1], idx[-2])] = -vals
    return out


def cyclic_sum(term):
    """T[..., a, b, c] + T[..., c, a, b] + T[..., b, c, a]: the cyclic sum
    over the last three axes."""
    return (term + np.moveaxis(term, -3, -1)) + np.moveaxis(term, -1, -3)


class LieAlgebroid:
    """Structure-function presentation of a Lie algebroid.

    anchor: n x r nested list of Expr over the base coordinates.
    bracket: dict {(c, a, b): Expr} with 0-based indices and a < b;
    missing entries are zero.
    domain: list of Expr, all strictly positive on the admissible set.
    """

    def __init__(self, base_dim, rank, anchor, bracket=None, domain=(),
                 coords=None):
        self.n = int(base_dim)
        self.r = int(rank)
        self.coords = list(coords) if coords is not None else _coords(self.n)
        if len(self.coords) != self.n:
            raise AlgebroidError("need one coordinate name per base dimension")
        self.anchor = [[ex.as_expr(anchor[i][a]) for a in range(self.r)]
                       for i in range(self.n)]
        self.bracket = {}
        for (c, a, b), e in (bracket or {}).items():
            if not (0 <= c < self.r and 0 <= a < self.r and 0 <= b < self.r):
                raise AlgebroidError(f"bracket index {(c, a, b)} out of range")
            if a >= b:
                raise AlgebroidError(
                    f"bracket keys must have a < b, got {(c, a, b)}")
            self.bracket[(c, a, b)] = ex.as_expr(e)
        self.domain = [ex.as_expr(e) for e in domain]
        for e in self._all_exprs():
            extra = e.variables() - set(self.coords)
            if extra:
                raise AlgebroidError(
                    f"expression {e} uses unknown variables {sorted(extra)}")

        flat_anchor = [self.anchor[i][a]
                       for i in range(self.n) for a in range(self.r)]
        self._anchor_fn = ex.compile_exprs(flat_anchor, self.coords)
        self._bkeys = sorted(self.bracket)
        self._bracket_fn = (ex.compile_exprs([self.bracket[k] for k in self._bkeys],
                                             self.coords)
                            if self._bkeys else None)
        self.in_domain = ex.domain_predicate(self.domain, self.coords)
        self._danchor_fn = None
        self._dbracket_fn = None

    def _all_exprs(self):
        for row in self.anchor:
            yield from row
        yield from self.bracket.values()
        yield from self.domain

    # ------------------------------------------------------- evaluation --

    def anchor_matrix(self, x):
        """rho(x) as an (n, r) array; (N, n, r) for a stack of N points."""
        return evaluate(self._anchor_fn, x, (self.n, self.r))

    def bracket_tensor(self, x):
        """f(x) as an (r, r, r) array indexed [c, a, b], antisymmetrized;
        (N, r, r, r) for a stack of N points."""
        shape = (self.r, self.r, self.r)
        if self._bracket_fn is None:
            return np.zeros(np.shape(x)[:-1] + shape)
        vals = evaluate(self._bracket_fn, x, (len(self._bkeys),))
        return antisymmetric(self._bkeys, vals, shape)

    def anchored_field(self, section, inputs=("t",), extra=()):
        """x' = rho(x) s compiled into one function of (*inputs, *x),
        which returns the n components of x' followed by the values of the
        Exprs in `extra`.

        section: the r components of s, Exprs over the names in `inputs`
        and the base coordinates. Each component sum_a rho^i_a s_a is the
        `expr.dot` of an anchor row with the section."""
        comps = [ex.dot(row, section) for row in self.anchor]
        return ex.compile_exprs(comps + list(extra),
                                list(inputs) + self.coords)

    def flow_field(self, fn):
        """The field x' = fn(t, *x) on the domain, for a function compiled
        by `anchored_field` with the time as its one input."""
        return VectorFieldTD(self.n, lambda t, x: fn(t, *x),
                             domain=self.in_domain)

    def bracket_expr(self, c, a, b):
        """f^c_{ab} as an Expr for any index pair (may be Const 0)."""
        if a == b:
            return ex.Const(0.0)
        if a < b:
            return self.bracket.get((c, a, b), ex.Const(0.0))
        return ex.neg(self.bracket.get((c, b, a), ex.Const(0.0)))

    def _danchor(self, x):
        """d rho as an (n_deriv, n, r) array: [j, i, a] = d_j rho^i_a;
        (N, n, n, r) for a stack of N points."""
        if self._danchor_fn is None:
            flat = [self.anchor[i][a].d(v)
                    for v in self.coords
                    for i in range(self.n) for a in range(self.r)]
            self._danchor_fn = ex.compile_exprs(flat, self.coords)
        return evaluate(self._danchor_fn, x, (self.n, self.n, self.r))

    def _dbracket(self, x):
        """d f as an (n, r, r, r) array: [j, c, a, b] = d_j f^c_{ab};
        (N, n, r, r, r) for a stack of N points."""
        if self._dbracket_fn is None:
            flat = [self.bracket_expr(c, a, b).d(v)
                    for v in self.coords
                    for c in range(self.r)
                    for a in range(self.r) for b in range(self.r)]
            self._dbracket_fn = ex.compile_exprs(flat, self.coords)
        return evaluate(self._dbracket_fn, x,
                        (self.n, self.r, self.r, self.r))

    # ---------------------------------------------------------- loading --

    @classmethod
    def from_dict(cls, d):
        """Build from the JSON schema:
        {"base_dim": n, "rank": r, "anchor": [[expr, ...], ...],
         "bracket": {"c,a,b": expr for a < b, 1-based indices},
         "domain": [expr, ...]}
        """
        n = int(d["base_dim"])
        r = int(d["rank"])
        coords = _coords(n)
        anchor_src = d["anchor"]
        if len(anchor_src) != n or any(len(row) != r for row in anchor_src):
            raise AlgebroidError(
                f"anchor must be {n} rows of {r} expressions")
        anchor = [[ex.parse(str(s), coords) for s in row] for row in anchor_src]
        bracket = {}
        for key, src in (d.get("bracket") or {}).items():
            try:
                c, a, b = (int(p) for p in key.split(","))
            except ValueError:
                raise AlgebroidError(f"bad bracket key {key!r}, want 'c,a,b'")
            if not a < b:
                raise AlgebroidError(
                    f"bracket key {key!r} needs a < b (store each pair "
                    f"once; the (b, a) entry is implied by antisymmetry)")
            bracket[(c - 1, a - 1, b - 1)] = ex.parse(str(src), coords)
        domain = [ex.parse(str(s), coords) for s in d.get("domain") or []]
        return cls(n, r, anchor, bracket, domain)

    def to_dict(self):
        out = {
            "base_dim": self.n,
            "rank": self.r,
            "anchor": [[str(e) for e in row] for row in self.anchor],
            "bracket": {f"{c+1},{a+1},{b+1}": str(e)
                        for (c, a, b), e in sorted(self.bracket.items())},
        }
        if self.domain:
            out["domain"] = [str(e) for e in self.domain]
        return out

    def __repr__(self):
        return (f"LieAlgebroid(base_dim={self.n}, rank={self.r}, "
                f"{len(self.bracket)} bracket entries)")


class SectionTD:
    """Time-dependent section s(t, x) of the algebroid, expression-backed.

    exprs: r expressions over ("t", x coordinates); __call__(t, x) gives
    the fiber coordinates of s at time t over base point x (compiled at
    the first call).
    """

    def __init__(self, algebroid, exprs):
        self.algebroid = algebroid
        self.variables = ["t"] + list(algebroid.coords)
        self.exprs = [ex.as_expr(e) for e in exprs]
        if len(self.exprs) != algebroid.r:
            raise AlgebroidError(
                f"section needs {algebroid.r} components, got {len(self.exprs)}")
        for e in self.exprs:
            extra = e.variables() - set(self.variables)
            if extra:
                raise AlgebroidError(
                    f"section expression uses unknown variables {sorted(extra)}")
        self._fn = None

    @classmethod
    def from_strings(cls, algebroid, sources):
        variables = ["t"] + list(algebroid.coords)
        return cls(algebroid, [ex.parse(s, variables) for s in sources])

    def __call__(self, t, x):
        if self._fn is None:
            self._fn = ex.compile_exprs(self.exprs, self.variables)
        return self._fn(t, *x)


# ------------------------------------------------------------ constructors

def make_tangent(n, coords=None, domain=()):
    """Tangent algebroid TR^n: identity anchor, vanishing bracket; with a
    domain, the tangent algebroid of that open subset."""
    if n < 1:
        raise AlgebroidError("base dimension must be >= 1")
    anchor = [[ex.Const(1.0 if i == a else 0.0) for a in range(n)]
              for i in range(n)]
    return LieAlgebroid(n, n, anchor, {}, domain=domain, coords=coords)


def make_lie_algebra(constants, tol=1e-10):
    """Lie algebra as an algebroid over a point (modeled as a 1-dim base
    with zero anchor and constant bracket).

    constants: full array c[k][i][j], antisymmetric in (i, j). Constants
    whose Jacobi residual exceeds tol are rejected.
    """
    c = np.asarray(constants, dtype=float)
    if c.ndim != 3 or len(set(c.shape)) != 1:
        raise AlgebroidError("constants must be an r x r x r array")
    r = c.shape[0]
    if np.max(np.abs(c + np.swapaxes(c, 1, 2))) != 0.0:
        raise AlgebroidError("constants must be exactly antisymmetric in (i, j)")
    res = lie_jacobi_residual(c)
    if res > tol:
        raise AlgebroidError(
            f"structure constants violate the Jacobi identity "
            f"(residual {res:.3e} > {tol:.1e})")
    anchor = [[ex.Const(0.0) for _ in range(r)]]
    bracket = {(k, i, j): ex.Const(c[k, i, j])
               for k in range(r) for i in range(r) for j in range(i + 1, r)
               if c[k, i, j] != 0.0}
    return LieAlgebroid(1, r, anchor, bracket)


def lie_jacobi_residual(c):
    """Max |cyclic_(i,j,k) sum_e c^e_{jk} c^d_{ie}| over d, i, j, k."""
    c = np.asarray(c, dtype=float)
    # term[d,i,j,k] = sum_e c^e_{jk} c^d_{ie}
    term = np.einsum("ejk,die->dijk", c, c)
    return float(np.max(np.abs(cyclic_sum(term))))


def make_cotangent_poisson(P):
    """Cotangent algebroid T*M of a Poisson manifold.

    Anchor rho^i_a = Pi^{ia}; bracket of coordinate one-forms
    f^c_{ab} = -d_c Pi^{ab}, both by symbolic differentiation. With the
    pinned anchor convention (Pi# xi)^i = Pi^{ij} xi_j this sign is the one
    that satisfies the algebroid axioms identically (the opposite sign
    fails the anchor-morphism residual already for linear Poisson
    structures).
    """
    n = P.dim
    coords = P.coords
    anchor = [[P.pi_expr(i, a) for a in range(n)] for i in range(n)]
    bracket = {}
    for a in range(n):
        for b in range(a + 1, n):
            pab = P.pi_expr(a, b)
            for c in range(n):
                e = ex.neg(pab.d(coords[c]))
                if e != ex.Const(0.0):
                    bracket[(c, a, b)] = e
    return LieAlgebroid(n, n, anchor, bracket, domain=P.domain,
                        coords=list(coords))


# ----------------------------------------------------------------- axioms

class AxiomReport:
    """Sup-norm residuals of the two algebroid axioms over sample points."""

    def __init__(self, anchor_residual, jacobi_residual, n_samples):
        self.anchor_residual = anchor_residual
        self.jacobi_residual = jacobi_residual
        self.n_samples = n_samples

    def max_residual(self):
        return float(np.max([self.anchor_residual, self.jacobi_residual]))

    def ok(self, tol=1e-10):
        return self.max_residual() <= tol

    def __repr__(self):
        return (f"AxiomReport(anchor={self.anchor_residual:.3e}, "
                f"jacobi={self.jacobi_residual:.3e}, "
                f"samples={self.n_samples})")


def anchor_morphism_residual_at(A, x):
    """max_{i,a,b} |rho^i_c f^c_{ab} - (rho^j_a d_j rho^i_b
                                        - rho^j_b d_j rho^i_a)| at x;
    at a stack of points, the (N,) array of the residuals at each."""
    rho = A.anchor_matrix(x)          # [i, a]
    f = A.bracket_tensor(x)           # [c, a, b]
    drho = A._danchor(x)              # [j, i, a]
    lhs = np.einsum("...ic,...cab->...iab", rho, f)
    grad = np.einsum("...ja,...jib->...iab", rho, drho)
    rhs = grad - np.swapaxes(grad, -1, -2)
    return _point_max(lhs - rhs, 3)


def jacobi_residual_at(A, x):
    """max_d |cyclic_(a,b,c) (f^e_{bc} f^d_{ae} + rho^j_a d_j f^d_{bc})| at x;
    at a stack of points, the (N,) array of the residuals at each."""
    rho = A.anchor_matrix(x)
    f = A.bracket_tensor(x)
    df = A._dbracket(x)               # [j, d, b, c] = d_j f^d_{bc}
    term = (np.einsum("...ebc,...dae->...dabc", f, f)
            + np.einsum("...ja,...jdbc->...dabc", rho, df))
    return _point_max(cyclic_sum(term), 4)


def _point_max(values, point_ndim):
    """max |values| over the last point_ndim axes: a float for one point,
    an array over the leading (stack) axes otherwise."""
    res = np.max(np.abs(values), axis=tuple(range(-point_ndim, 0)))
    return float(res) if res.ndim == 0 else res


def check_axioms(A, samples):
    """Evaluate both axiom residuals, reporting the sup over the samples."""
    samples = [list(map(float, x)) for x in samples]
    for x in samples:
        if not A.in_domain(x):
            raise ex.DomainError(f"sample {ex.point(x)} is outside the domain")
    pts = np.array(samples, dtype=float).reshape(len(samples), A.n)
    anchor_res = np.max(anchor_morphism_residual_at(A, pts), initial=0.0)
    jacobi_res = np.max(jacobi_residual_at(A, pts), initial=0.0)
    return AxiomReport(float(anchor_res), float(jacobi_res), len(samples))


def sample_points(A, count, rng, low=-1.5, high=1.5, max_tries=10000):
    """Rejection-sample `count` points of R^n inside the domain predicate."""
    pts = []
    for _ in range(max_tries):
        x = rng.uniform(low, high, size=A.n)
        if A.in_domain(x):
            pts.append(list(x))
            if len(pts) == count:
                return pts
    raise AlgebroidError(
        f"could not draw {count} domain points in {max_tries} tries")


__all__ = [
    "LieAlgebroid", "SectionTD", "AxiomReport", "AlgebroidError",
    "make_tangent", "make_lie_algebra", "make_cotangent_poisson",
    "check_axioms", "lie_jacobi_residual", "sample_points",
    "anchor_morphism_residual_at", "jacobi_residual_at",
]
