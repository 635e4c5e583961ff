"""Poisson manifolds, Hamiltonian dynamics, Poisson-map residuals,
cotangent-lift comorphisms, the tangent-lift bivector, and the probe-level
completeness equivalence.

Sign conventions, pinned once and asserted by the harmonic-oscillator
fixture: (Pi# xi)^i = Pi^{ij} xi_j and xi_f = Pi# df, so on standard
symplectic R^2 (Pi^{12} = 1) the Hamiltonian field of (x^2+y^2)/2 is
(y, -x). The bivector is stored as upper-triangle expressions; the full
matrix is always expanded antisymmetrically (in particular the tangent
lift below is antisymmetric by construction, entry by entry).
"""

import numpy as np

from . import expr as ex
from .algebroid import (SectionTD, antisymmetric, cyclic_sum, evaluate,
                        make_cotangent_poisson, sample_points)
from .comorph import Comorphism, first_escape, pullback_section
from .numkernel import VectorFieldTD


class PoissonError(Exception):
    pass


class PoissonManifold:
    """Bivector on an open subset of R^n, upper-triangle Exprs.

    pi: dict {(i, j): Expr} with 0-based i < j; missing entries are zero;
    the (j, i) entry is the negation. domain: strictly-positive Exprs.
    """

    def __init__(self, dim, pi, domain=(), coords=None):
        self.dim = int(dim)
        self.n = self.dim
        self.coords = (list(coords) if coords is not None
                       else [f"x{i+1}" for i in range(self.dim)])
        self.pi = {}
        for (i, j), e in (pi or {}).items():
            if not (0 <= i < j < self.dim):
                raise PoissonError(
                    f"Pi keys need 0 <= i < j < {self.dim}, got {(i, j)}")
            self.pi[(i, j)] = ex.as_expr(e)
        self.domain = [ex.as_expr(e) for e in domain]
        for e in list(self.pi.values()) + list(self.domain):
            extra = e.variables() - set(self.coords)
            if extra:
                raise PoissonError(
                    f"expression {e} uses unknown variables {sorted(extra)}")
        self._keys = sorted(self.pi)
        self._pi_fn = (ex.compile_exprs([self.pi[k] for k in self._keys],
                                        self.coords)
                       if self._keys else None)
        self.in_domain = ex.domain_predicate(self.domain, self.coords)
        self._jac_fn = None

    def pi_expr(self, i, j):
        """Pi^{ij} as an Expr for any index pair."""
        if i == j:
            return ex.Const(0.0)
        if i < j:
            return self.pi.get((i, j), ex.Const(0.0))
        return ex.neg(self.pi.get((j, i), ex.Const(0.0)))

    def pi_matrix(self, x):
        """Pi(x) as an (n, n) array; (N, n, n) for a stack of N points."""
        shape = (self.dim, self.dim)
        if self._pi_fn is None:
            return np.zeros(np.shape(x)[:-1] + shape)
        return antisymmetric(self._keys,
                             evaluate(self._pi_fn, x, (len(self._keys),)),
                             shape)

    def jacobi_residual(self, samples):
        """max over samples and (i,j,k) of
        |cyclic_(i,j,k) sum_l Pi^{il} d_l Pi^{jk}|, derivatives symbolic."""
        n = self.dim
        if self._jac_fn is None:
            flat = [self.pi_expr(i, j).d(v)
                    for v in self.coords for i in range(n) for j in range(n)]
            self._jac_fn = ex.compile_exprs(flat, self.coords)
        pts = np.asarray(samples, dtype=float).reshape(-1, n)
        P = self.pi_matrix(pts)
        dP = evaluate(self._jac_fn, pts, (n, n, n))
        term = np.einsum("...il,...ljk->...ijk", P, dP)
        return float(np.max(np.abs(cyclic_sum(term)), initial=0.0))

    @classmethod
    def from_dict(cls, d):
        """Build from JSON {"dim": n, "Pi": {"i,j": expr for i < j,
        1-based}, "domain": [expr, ...]}."""
        n = int(d["dim"])
        coords = [f"x{i+1}" for i in range(n)]
        pi = {}
        for key, src in (d.get("Pi") or {}).items():
            try:
                i, j = (int(p) for p in key.split(","))
            except ValueError:
                raise PoissonError(f"bad Pi key {key!r}, want 'i,j'")
            pi[(i - 1, j - 1)] = ex.parse(str(src), coords)
        domain = [ex.parse(str(s), coords) for s in d.get("domain") or []]
        return cls(n, pi, domain)

    def to_dict(self):
        out = {"dim": self.dim,
               "Pi": {f"{i+1},{j+1}": str(e)
                      for (i, j), e in sorted(self.pi.items())}}
        if self.domain:
            out["domain"] = [str(e) for e in self.domain]
        return out

    def __repr__(self):
        return (f"PoissonManifold(dim={self.dim}, "
                f"{len(self.pi)} Pi entries)")


def standard_symplectic(n=2):
    """Standard symplectic R^n for even n: Pi^{i, i + n/2} = 1."""
    if n % 2:
        raise PoissonError("standard symplectic needs even dimension")
    half = n // 2
    return PoissonManifold(n, {(i, i + half): ex.Const(1.0)
                               for i in range(half)})


def hamiltonian_vf_exprs(P, f):
    """Components of xi_f = Pi# df as Exprs: xi^i = Pi^{ij} d_j f."""
    comps = []
    for i in range(P.dim):
        acc = ex.Const(0.0)
        for j in range(P.dim):
            acc = ex.add(acc, ex.mul(P.pi_expr(i, j), f.d(P.coords[j])))
        comps.append(acc)
    return comps


def hamiltonian_vf(P, f):
    """xi_f as a VectorFieldTD (time-independent), gradient symbolic."""
    return _autonomous_field(P, _hamiltonian_fn(P, f))


def _hamiltonian_fn(P, f):
    return ex.compile_exprs(hamiltonian_vf_exprs(P, f), P.coords)


def _autonomous_field(P, fn):
    return VectorFieldTD(P.dim, lambda t, x: fn(*x), domain=P.in_domain)


def poisson_map_residual(phi, PX, PY, samples):
    """max over samples of |Dphi(x) Pi_X(x) Dphi(x)^T - Pi_Y(phi(x))|."""
    if phi.variables != PX.coords:
        raise PoissonError("phi must be a map in the source coordinates")
    res = 0.0
    for x in samples:
        J = np.asarray(phi.jacobian(x), dtype=float)
        push = J @ PX.pi_matrix(x) @ J.T
        pull = PY.pi_matrix(phi.eval_unchecked(x))
        res = max(res, float(np.max(np.abs(push - pull))))
    return res


def cotangent_lift(phi, PX, PY, samples=None, tol=1e-8):
    """The comorphism T*X -> T*Y of a Poisson map: core phi, fiber
    M(x) = Dphi(x)^T, over the cotangent algebroids of PX and PY.

    Rejected (with the residual as witness) when phi fails the Poisson-map
    condition on the probe samples.
    """
    if samples is None:
        samples = sample_points(PX, 20, np.random.default_rng(0), low=-1.0,
                                high=1.0, max_tries=4000)
    res = poisson_map_residual(phi, PX, PY, samples)
    if res > tol:
        raise PoissonError(
            f"phi is not a Poisson map (residual {res:.3e} > {tol:.1e} "
            f"on {len(samples)} samples)")
    source = make_cotangent_poisson(PX)
    target = make_cotangent_poisson(PY)
    M = [[phi.components[b].d(PX.coords[a]) for b in range(PY.dim)]
         for a in range(PX.dim)]
    return Comorphism(source, target, list(phi.components), M)


def tangent_lift_bivector(P):
    """The lifted Poisson structure on TX ~ R^{2n} in coordinates
    (x, v): block form [[0, Pi(x)], [-Pi(x)^T, d_k Pi(x) v^k]], realized
    as upper-triangle entries (so antisymmetry is structural)."""
    n = P.dim
    coords = list(P.coords) + [f"v{i+1}" for i in range(n)]
    vvars = [ex.Var(c) for c in coords[n:]]
    pi = {}
    for i in range(n):
        for j in range(n):
            e = P.pi_expr(i, j)
            if e != ex.Const(0.0):
                pi[(i, n + j)] = e
    for i in range(n):
        for j in range(i + 1, n):
            acc = ex.Const(0.0)
            for k in range(n):
                acc = ex.add(acc, ex.mul(vvars[k],
                                         P.pi_expr(i, j).d(P.coords[k])))
            if acc != ex.Const(0.0):
                pi[(n + i, n + j)] = acc
    return PoissonManifold(2 * n, pi, domain=P.domain, coords=coords)


class ProbeComparison:
    """Per-test-function agreement of the two completeness routes."""

    def __init__(self, entries, horizon, bound):
        self.entries = entries
        self.horizon = horizon
        self.bound = bound

    @property
    def all_agree(self):
        return all(e["agree"] for e in self.entries)

    def to_json(self):
        return {"horizon": self.horizon, "bound": self.bound,
                "all_agree": self.all_agree, "entries": self.entries}

    def __repr__(self):
        return (f"ProbeComparison({len(self.entries)} functions, "
                f"all_agree={self.all_agree})")


def _flow_field_probe(vf, horizon, bound, seeds, step):
    """The Hamiltonian route of complete_map_probe, a function of its own
    so that traces time it apart from the comorphism route."""
    return first_escape(vf, horizon, bound, seeds, step)


def default_test_functions(PY):
    """Coordinate functions plus a bump-cutoff quadratic (compactly
    supported, hence complete on Y)."""
    fs = [ex.Var(c) for c in PY.coords]
    q = ex.Const(0.0)
    for c in PY.coords:
        q = ex.add(q, ex.mul(ex.Const(0.5), ex.pow_(ex.Var(c), 2)))
    fs.append(ex.fun("bump", ex.Const(-1.0), ex.Const(1.0), q))
    return fs


def complete_map_probe(phi, PX, PY, test_functions=None, horizon=2.0,
                       bound=1e8, seeds=((0.0, 0.0),), map_samples=None,
                       field_tol=1e-9, step=1e-3):
    """Probe phi's completeness along both routes of the equivalence.

    For each test function f: flow xi_{phi*f} = Pi_X# d(f o phi) from the
    seeds, and independently run the comorphism completeness probe on
    cotangent_lift(phi) with the section df, both with RK4 step `step`.
    Each route's field is compiled once; the two are asserted pointwise
    equal at the seeds (they coincide by the chain rule), evaluating the
    very functions that are flowed. The verdicts must classify alike, with
    escape times within 1e-3.
    """
    c = cotangent_lift(phi, PX, PY, samples=map_samples)
    if test_functions is None:
        test_functions = default_test_functions(PY)
    seeds = [list(s) for s in seeds]
    A = c.source
    mapping = {v: phi.components[j] for j, v in enumerate(PY.coords)}
    entries = []
    for f in test_functions:
        f = f if isinstance(f, ex.Expr) else ex.parse(str(f), PY.coords)
        ham_fn = _hamiltonian_fn(PX, ex.substitute(f, mapping))
        s = SectionTD(c.target, [f.d(v) for v in PY.coords])
        com_fn = A.anchored_field(pullback_section(c, s).exprs)
        worst = 0.0
        for seed in seeds:
            for a, b in zip(com_fn(0.0, *seed), ham_fn(*seed)):
                worst = max(worst, abs(a - b))
        if worst > field_tol:
            raise PoissonError(
                f"route fields disagree by {worst:.3e} (> {field_tol:.1e})")

        v_ham = _flow_field_probe(_autonomous_field(PX, ham_fn), horizon,
                                  bound, seeds, step)
        v_com = first_escape(A.flow_field(com_fn), horizon, bound, seeds,
                             step)
        agree = v_ham.escaped == v_com.escaped
        t_diff = None
        if v_ham.escaped and v_com.escaped:
            t_diff = abs(v_ham.witness[2] - v_com.witness[2])
            agree = agree and t_diff <= 1e-3
        entries.append({
            "f": str(f),
            "hamiltonian": v_ham.to_json(),
            "comorphism": v_com.to_json(),
            "field_mismatch": worst,
            "agree": agree,
            "t_star_diff": t_diff,
        })
    return ProbeComparison(entries, horizon, bound)


__all__ = [
    "PoissonManifold", "PoissonError", "ProbeComparison",
    "standard_symplectic", "hamiltonian_vf", "hamiltonian_vf_exprs",
    "poisson_map_residual", "cotangent_lift", "tangent_lift_bivector",
    "complete_map_probe", "default_test_functions",
]
