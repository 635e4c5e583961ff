"""Lie algebroids in a single chart, represented by structure functions.

A LieAlgebroid over an open subset of R^n with rank-r frame {e_1..e_r} is
stored as expression-valued structure functions

    anchor entries rho^i_a(x)   (i = 1..n base index, a = 1..r frame index)
    bracket entries f^c_{ab}(x) for a < b, with f^c_{ba} = -f^c_{ab}
    domain predicates (expressions required strictly positive)

The bracket is an `Antisymmetric` table, as is a Poisson bivector. Each
structure function is an `expr.SmoothMap`, the anchor's of shape (n, r)
and a table's of its full shape: it is compiled once and evaluated at one
point or at a stack of points, always with plain floats, and its partials
come last, [..., j] = d_j. Sample points are tested against the domain by
its `expr.Domain.require`; `sample_points` draws them from a `Draws`
stream, numpy's seeded uniform stream without numpy's random package.

The axioms are not assumed: `check_axioms` evaluates the anchor-morphism
and Jacobi residuals at sample points, with all derivatives symbolic.
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .numkernel import VectorFieldTD


class AlgebroidError(Exception):
    pass


def _coords(n):
    return [f"x{i+1}" for i in range(n)]


def matvec(mats, vecs):
    """mats[k] @ vecs[k] for a stack of K matrices and K vectors, as a
    (K, rows) array."""
    v = np.ascontiguousarray(vecs, dtype=float)
    return (mats @ v[:, :, None])[:, :, 0]


class Antisymmetric(dict):
    """Exprs T[..., i, j] over the base coordinates, antisymmetric in the
    last two indices: the dict holds the entries with i < j under 0-based
    index tuples, missing ones zero. An algebroid's bracket f^c_{ab} and a
    Poisson bivector Pi^{ij} are such tables. `kind`, such as
    (AlgebroidError, "bracket", "c,a,b"), gives the error to raise, the
    table's name and its index letters, which 1-based are its JSON keys.
    `map` is the full table as one `expr.SmoothMap`, built on first use."""

    def __init__(self, entries, size, coords, kind):
        super().__init__((tuple(k), ex.as_expr(e)) for k, e in entries.items())
        error, name, letters = kind
        self.coords = list(coords)
        self.shape = (size,) * (letters.count(",") + 1)
        for key in self:
            if not (len(key) == len(self.shape) and 0 <= min(key)
                    and max(key) < size and key[-2] < key[-1]):
                a, b = letters.split(",")[-2:]
                raise error(f"{name} keys need indices {letters} in "
                            f"0..{size - 1} with {a} < {b}, got {key} (the "
                            f"{b},{a} entry is implied by antisymmetry)")

    @staticmethod
    def parse(src, coords, kind):
        """The 0-based entries of a JSON object {"c,a,b": expression}."""
        error, name, letters = kind
        entries = {}
        for key, text in (src or {}).items():
            try:
                idx = tuple(int(p) - 1 for p in key.split(","))
            except ValueError:
                idx = ()
            if len(idx) != letters.count(",") + 1:
                raise error(f"bad {name} key {key!r}, want '{letters}'")
            entries[idx] = ex.parse(str(text), coords)
        return entries

    def expr(self, *key):
        """The entry at any index tuple as an Expr: Const 0 on the
        diagonal and where the table holds no entry."""
        *head, i, j = key
        if i > j:
            e = self.get((*head, j, i))
            return ex.Const(0.0) if e is None else ex.neg(e)
        return self.get(key, ex.Const(0.0))

    @cached_property
    def map(self):
        entries = [self.expr(*key) for key in np.ndindex(self.shape)]
        return ex.SmoothMap(self.coords, np.array(
            entries, dtype=object).reshape(self.shape))

    def at(self, x):
        """The full table at x, an array of `shape`; stacked at a stack."""
        return self.map.eval_unchecked(x)

    def d_at(self, x):
        """[..., j] = d_j T[...] at x, symbolic; stacked at a stack."""
        return self.map.jacobian(x)


def cyclic_sum(term):
    """T[..., a, b, c] + T[..., c, a, b] + T[..., b, c, a]: the cyclic sum
    over the last three axes."""
    return (term + np.moveaxis(term, -3, -1)) + np.moveaxis(term, -1, -3)


_BRACKET = (AlgebroidError, "bracket", "c,a,b")


class LieAlgebroid:
    """Structure-function presentation of a Lie algebroid.

    anchor: n x r nested list of Expr over the base coordinates, kept as
    the `expr.SmoothMap` `anchor_map` with the domain.
    bracket: dict {(c, a, b): Expr} with 0-based indices and a < b;
    missing entries are zero. Kept as an `Antisymmetric` table.
    domain: list of Expr, all strictly positive on the admissible set.
    """

    def __init__(self, base_dim, rank, anchor, bracket=None, domain=(),
                 coords=None):
        self.n = int(base_dim)
        self.r = int(rank)
        self.coords = list(coords) if coords is not None else _coords(self.n)
        if len(self.coords) != self.n:
            raise AlgebroidError("need one coordinate name per base dimension")
        # an object array keeps the anchor's shape when n is 0
        self.anchor_map = ex.SmoothMap(self.coords, np.array(
            [[anchor[i][a] for a in range(self.r)] for i in range(self.n)],
            dtype=object).reshape(self.n, self.r), domain, AlgebroidError)
        self.anchor = self.anchor_map.components
        self.domain = self.anchor_map.domain
        self.in_domain = self.anchor_map.in_domain
        self.bracket = Antisymmetric(bracket or {}, self.r, self.coords,
                                     _BRACKET)
        ex.check_variables(list(self.bracket.values()), self.coords,
                           AlgebroidError)

    # ------------------------------------------------------- evaluation --

    def anchor_matrix(self, x):
        """rho(x) as an (n, r) array; (N, n, r) for a stack of N points."""
        return self.anchor_map.eval_unchecked(x)

    def bracket_tensor(self, x):
        """f(x) as an (r, r, r) array indexed [c, a, b], antisymmetrized;
        (N, r, r, r) for a stack of N points."""
        return self.bracket.at(x)

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
        """The field x' = fn(*inputs, *x) on the domain, for a function
        compiled by `anchored_field`: a flow hands it the time, or, given
        a table, the row of the stage's inputs (see `numkernel.flow`)."""
        return VectorFieldTD(self.n, fn, domain=self.in_domain)

    def _danchor(self, x):
        """d rho as an (n, r, n) array: [i, a, j] = d_j rho^i_a;
        (N, n, r, n) for a stack of N points."""
        return self.anchor_map.jacobian(x)

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
        bracket = Antisymmetric.parse(d.get("bracket"), coords, _BRACKET)
        domain = [ex.parse(str(s), coords) for s in d.get("domain") or []]
        return cls(n, r, anchor, bracket, domain)

    def __repr__(self):
        return (f"LieAlgebroid(base_dim={self.n}, rank={self.r}, "
                f"{len(self.bracket)} bracket entries)")


class SectionTD:
    """Time-dependent section s(t, x) of the algebroid, expression-backed.

    exprs: r expressions over ("t", x coordinates), kept as the
    `expr.SmoothMap` `map`; __call__(t, x) gives the fiber coordinates of
    s at time t over base point x.
    """

    def __init__(self, algebroid, exprs):
        self.algebroid = algebroid
        if len(exprs) != algebroid.r:
            raise AlgebroidError(
                f"section needs {algebroid.r} components, got {len(exprs)}")
        self.map = ex.SmoothMap(["t"] + list(algebroid.coords), exprs,
                                error=AlgebroidError)
        self.variables = self.map.variables
        self.exprs = self.map.components

    @classmethod
    def from_strings(cls, algebroid, sources):
        variables = ["t"] + list(algebroid.coords)
        return cls(algebroid, [ex.parse(s, variables) for s in sources])

    def __call__(self, t, x):
        """s(t, x) as an (r,) array; (N, r) at a stack of N points."""
        tx = np.insert(np.asarray(x, dtype=float), 0, t, axis=-1)
        return self.map.eval_unchecked(tx)


# ------------------------------------------------------------ constructors

def make_tangent(n, coords=None, domain=()):
    """Tangent algebroid TR^n: identity anchor, vanishing bracket; with a
    domain, the tangent algebroid of that open subset."""
    if n < 1:
        raise AlgebroidError("base dimension must be >= 1")
    anchor = [[ex.Const(1.0 if i == a else 0.0) for a in range(n)]
              for i in range(n)]
    return LieAlgebroid(n, n, anchor, {}, domain=domain, coords=coords)


def make_lie_algebra(constants):
    """Lie algebra as an algebroid over a point (modeled as a 1-dim base
    with zero anchor and constant bracket).

    constants: full array c[k][i][j], antisymmetric in (i, j). Constants
    whose Jacobi residual exceeds 1e-10 are rejected.
    """
    c = np.asarray(constants, dtype=float)
    if c.ndim != 3 or len(set(c.shape)) != 1:
        raise AlgebroidError("constants must be an r x r x r array")
    r = c.shape[0]
    if np.max(np.abs(c + np.swapaxes(c, 1, 2)), initial=0.0) != 0.0:
        raise AlgebroidError("constants must be exactly antisymmetric in (i, j)")
    res = lie_jacobi_residual(c)
    if res > 1e-10:
        raise AlgebroidError(
            f"structure constants violate the Jacobi identity "
            f"(residual {res:.3e} > 1.0e-10)")
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
    return float(np.max(np.abs(cyclic_sum(term)), initial=0.0))


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
    anchor = [[P.pi.expr(i, a) for a in range(n)] for i in range(n)]
    bracket = {}
    for a in range(n):
        for b in range(a + 1, n):
            pab = P.pi.expr(a, b)
            for c in range(n):
                e = ex.neg(pab.d(coords[c]))
                if e != ex.Const(0.0):
                    bracket[(c, a, b)] = e
    return LieAlgebroid(n, n, anchor, bracket, domain=P.domain,
                        coords=list(coords))


# ----------------------------------------------------------------- axioms

class AxiomReport(NamedTuple):
    """Sup-norm residuals of the two algebroid axioms over sample points."""

    anchor_residual: float
    jacobi_residual: float
    n_samples: int

    def max_residual(self):
        return float(np.max([self.anchor_residual, self.jacobi_residual]))

    def ok(self, tol=1e-10):
        return self.max_residual() <= tol


def anchor_morphism_residual_at(A, x):
    """max_{i,a,b} |rho^i_c f^c_{ab} - (rho^j_a d_j rho^i_b
                                        - rho^j_b d_j rho^i_a)| at x;
    at a stack of points, the (N,) array of the residuals at each."""
    rho = A.anchor_matrix(x)          # [i, a]
    f = A.bracket_tensor(x)           # [c, a, b]
    drho = A._danchor(x)              # [i, b, j] = d_j rho^i_b
    lhs = np.einsum("...ic,...cab->...iab", rho, f)
    grad = np.einsum("...ja,...ibj->...iab", rho, drho)
    rhs = grad - np.swapaxes(grad, -1, -2)
    return _point_max(lhs - rhs, 3)


def jacobi_residual_at(A, x):
    """max_d |cyclic_(a,b,c) (f^e_{bc} f^d_{ae} + rho^j_a d_j f^d_{bc})| at x;
    at a stack of points, the (N,) array of the residuals at each."""
    rho = A.anchor_matrix(x)
    f = A.bracket_tensor(x)
    df = A.bracket.d_at(x)            # [d, b, c, j] = d_j f^d_{bc}
    term = (np.einsum("...ebc,...dae->...dabc", f, f)
            + np.einsum("...ja,...dbcj->...dabc", rho, df))
    return _point_max(cyclic_sum(term), 4)


def _point_max(values, point_ndim):
    """max |values| over the last point_ndim axes, 0.0 over none (rank 0):
    a float for one point, an array over the leading axes otherwise."""
    res = np.max(np.abs(values), axis=tuple(range(-point_ndim, 0)),
                 initial=0.0)
    return float(res) if res.ndim == 0 else res


def check_axioms(A, samples):
    """Evaluate both axiom residuals, reporting the sup over the samples."""
    pts = A.in_domain.require(samples, A.n, "sample")
    anchor_res = np.max(anchor_morphism_residual_at(A, pts), initial=0.0)
    jacobi_res = np.max(jacobi_residual_at(A, pts), initial=0.0)
    return AxiomReport(float(anchor_res), float(jacobi_res), len(pts))


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed):
    """numpy's `SeedSequence(seed).generate_state(4, np.uint64)` (NEP 19):
    the seed's 32-bit words, least significant first, hashed into a pool
    of four words; eight words hashed out of the pool, paired low word
    first into four 64-bit words."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, mult = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _MASK32
        value = value * mult & _MASK32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Draws:
    """The uniform draws of numpy's `default_rng(seed)` generator, bit for
    bit, in plain integer arithmetic, so that no process imports numpy's
    random package for them: PCG64 (O'Neill, HMC-CS-2014-0905; a 128-bit
    LCG state and its XSL-RR output) seeded through numpy's SeedSequence.
    One object is one stream, which later calls continue."""

    def __init__(self, seed):
        if seed < 0:
            raise ValueError(f"a seed must be non-negative, got {seed}")
        s_hi, s_lo, i_hi, i_lo = _seed_state(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # from state 0: step, add the initial state, step
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * _PCG_MULT
                       + self._inc) & _MASK128

    def uniform(self, low, high, size):
        """`size` floats, each low + (high - low) * u with u the next 53
        bits of the stream over 2**53, as `Generator.uniform` draws them."""
        span = high - low
        state, inc, out = self._state, self._inc, []
        for _ in range(size):
            state = (state * _PCG_MULT + inc) & _MASK128
            rot = state >> 122
            word = (state >> 64 ^ state) & _MASK64
            word = (word >> rot | word << (64 - rot)) & _MASK64
            out.append(low + span * ((word >> 11) * 2.0 ** -53))
        self._state = state
        return out


def sample_points(A, count, draws, low=-1.5, high=1.5, max_tries=10000):
    """Rejection-sample `count` points of R^n inside the domain predicate,
    each point's coordinates the next A.n uniform values of `draws` (a
    `Draws` stream) from low to high."""
    pts = []
    for _ in range(max_tries):
        x = draws.uniform(low, high, A.n)
        if A.in_domain(x):
            pts.append(x)
            if len(pts) == count:
                return pts
    raise AlgebroidError(
        f"could not draw {count} domain points in {max_tries} tries")


__all__ = [
    "LieAlgebroid", "SectionTD", "AxiomReport", "AlgebroidError",
    "make_tangent", "make_lie_algebra", "make_cotangent_poisson",
    "check_axioms", "lie_jacobi_residual", "Draws", "sample_points",
    "anchor_morphism_residual_at", "jacobi_residual_at",
]
