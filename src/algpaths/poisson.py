"""Poisson manifolds, Hamiltonian dynamics, Poisson-map residuals,
cotangent-lift comorphisms, and the probe-level completeness equivalence.

Sign conventions, pinned once and asserted by the harmonic-oscillator
fixture: (Pi# xi)^i = Pi^{ij} xi_j and xi_f = Pi# df, so on standard
symplectic R^2 (Pi^{12} = 1) the Hamiltonian field of (x^2+y^2)/2 is
(y, -x). The bivector is stored as upper-triangle expressions in an
`algebroid.Antisymmetric` table, the one that holds an algebroid's
bracket; the full matrix is always expanded antisymmetrically.
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .algebroid import (Antisymmetric, Draws, SectionTD, cyclic_sum,
                        make_cotangent_poisson, sample_points)
from .comorph import Comorphism, first_escape, pullback_section
from .numkernel import StartError


class PoissonError(Exception):
    pass


_PI = (PoissonError, "Pi", "i,j")

# complete_map_probe's two route fields are equal, by the chain rule
ROUTE_FIELD_TOL = 1e-9


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
        self.pi = Antisymmetric(pi or {}, self.dim, self.coords, _PI)
        self.domain = [ex.as_expr(e) for e in domain]
        ex.check_variables(list(self.pi.values()) + self.domain, self.coords,
                           PoissonError)
        self.in_domain = ex.domain_predicate(self.domain, self.coords)

    @cached_property
    def cotangent(self):
        """The cotangent algebroid T*X (`make_cotangent_poisson`), built
        once, so that the cotangent lifts of composable maps chain."""
        return make_cotangent_poisson(self)

    def pi_matrix(self, x):
        """Pi(x) as an (n, n) array; (N, n, n) for a stack of N points."""
        return self.pi.at(x)

    def jacobi_residual(self, samples):
        """max over samples and (i,j,k) of
        |cyclic_(i,j,k) sum_l Pi^{il} d_l Pi^{jk}|, derivatives symbolic."""
        pts = self.in_domain.require(samples, self.dim, "sample")
        P = self.pi_matrix(pts)
        dP = self.pi.d_at(pts)            # [j, k, l] = d_l Pi^{jk}
        term = np.einsum("...il,...jkl->...ijk", P, dP)
        return float(np.max(np.abs(cyclic_sum(term)), initial=0.0))

    @classmethod
    def from_dict(cls, d):
        """Build from JSON {"dim": n, "Pi": {"i,j": expr for i < j,
        1-based}, "domain": [expr, ...]}."""
        n = int(d["dim"])
        coords = [f"x{i+1}" for i in range(n)]
        pi = Antisymmetric.parse(d.get("Pi"), coords, _PI)
        domain = [ex.parse(str(s), coords) for s in d.get("domain") or []]
        return cls(n, pi, domain)

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


def hamiltonian_vf(P, f):
    """xi_f = Pi# df as a VectorFieldTD (time-independent): the cotangent
    algebroid's anchored field of the exact section df, gradient
    symbolic."""
    A = P.cotangent
    return A.flow_field(A.anchored_field(
        [f.d(v) for v in P.coords], ex.fresh_names(["t"], P.coords)))


def poisson_map_residual(phi, PX, PY, samples):
    """max over samples of |Dphi(x) Pi_X(x) Dphi(x)^T - Pi_Y(phi(x))|."""
    if phi.variables != PX.coords:
        raise PoissonError("phi must be a map in the source coordinates")
    pts = PX.in_domain.require(samples, PX.dim, "sample")
    J = phi.jacobian(pts)
    push = J @ PX.pi_matrix(pts) @ np.swapaxes(J, -1, -2)
    diffs = np.abs(push - PY.pi_matrix(phi.eval_unchecked(pts)))
    return float(np.max(diffs, initial=0.0))


def cotangent_lift(phi, PX, PY, samples=None, tol=1e-8):
    """The comorphism T*X -> T*Y of a Poisson map: core phi, fiber
    M(x) = Dphi(x)^T, over the cotangent algebroids of PX and PY (their
    `cotangent`, so that `comorph.compose` chains two lifts).

    Rejected (with the residual as witness) when phi fails the Poisson-map
    condition on the probe samples.
    """
    if samples is None:
        samples = sample_points(PX, 20, Draws(0), low=-1.0, high=1.0,
                                max_tries=4000)
    res = poisson_map_residual(phi, PX, PY, samples)
    if not res <= tol:
        raise PoissonError(
            f"phi is not a Poisson map (residual {res:.3e} > {tol:.1e} "
            f"on {len(samples)} samples)")
    M = [[phi.components[b].d(PX.coords[a]) for b in range(PY.dim)]
         for a in range(PX.dim)]
    return Comorphism(PX.cotangent, PY.cotangent, list(phi.components), M)


class ProbeComparison(NamedTuple):
    """Per-test-function agreement of the two completeness routes."""

    entries: list
    horizon: float
    bound: float

    @property
    def all_agree(self):
        return all(e["agree"] for e in self.entries)

    def to_json(self):
        return {"horizon": self.horizon, "bound": self.bound,
                "all_agree": self.all_agree, "entries": self.entries}


def _flow_field_probe(vf, horizon, bound, seeds, step):
    """The Hamiltonian route of complete_map_probe, a function of its own
    so that traces time it apart from the comorphism route."""
    return first_escape(vf, horizon, bound, seeds, step)


def default_test_functions(PY):
    """Coordinate functions plus a bump-cutoff quadratic (compactly
    supported, hence complete on Y)."""
    fs = [ex.Var(c) for c in PY.coords]
    q = ex.dot([ex.Const(0.5)] * len(PY.coords),
               [ex.pow_(ex.Var(c), 2) for c in PY.coords])
    fs.append(ex.fun("bump", ex.Const(-1.0), ex.Const(1.0), q))
    return fs


def complete_map_probe(phi, PX, PY, test_functions=None, horizon=2.0,
                       bound=1e8, seeds=((0.0, 0.0),), map_samples=None,
                       step=1e-3):
    """Probe phi's completeness along both routes of the equivalence.

    For each test function f: flow xi_{phi*f} = Pi_X# d(f o phi) from the
    seeds, and independently run the comorphism completeness probe on
    cotangent_lift(phi) with the section df, both with RK4 step `step`.
    Each route's field is compiled once; the two are asserted pointwise
    equal at the seeds, within ROUTE_FIELD_TOL (they coincide by the chain
    rule), evaluating the very functions that are flowed. The verdicts
    must classify alike, with escape times within 1e-3. Equal source
    compiles to one function (`expr.compile_exprs`), so the comorphism
    route is often the Hamiltonian route's own function, of one `body`,
    on the same domain: it is then flowed once, and its verdict serves
    both routes, which there cannot disagree. No seed or no test function
    at all is a `ValueError`.
    """
    c = cotangent_lift(phi, PX, PY, samples=map_samples)
    if test_functions is None:
        test_functions = default_test_functions(PY)
    pts = PX.in_domain.require(seeds, PX.dim, "seed", StartError)
    if not len(pts):
        raise ValueError("no seeds to flow from")
    if not len(test_functions):
        raise ValueError("no test functions to probe with")
    seeds = pts.tolist()
    # the seeds at t = 0, where both route fields are compared
    tpts = np.insert(pts, 0, 0.0, axis=1)
    A = c.source
    mapping = {v: phi.components[j] for j, v in enumerate(PY.coords)}
    entries = []
    for f in test_functions:
        f = f if isinstance(f, ex.Expr) else ex.parse(str(f), PY.coords)
        ham = hamiltonian_vf(PX, ex.substitute(f, mapping))
        s = SectionTD(c.target, [f.d(v) for v in PY.coords])
        com_fn = A.anchored_field(pullback_section(c, s).exprs)
        worst = float(np.max(np.abs(
            ex.evaluate(com_fn, tpts, (A.n,))
            - ex.evaluate(ham.fn, tpts, (A.n,))), initial=0.0))
        if not worst <= ROUTE_FIELD_TOL:
            raise PoissonError(f"route fields disagree by {worst:.3e} "
                               f"(> ROUTE_FIELD_TOL = {ROUTE_FIELD_TOL:.1e})")

        v_ham = _flow_field_probe(ham, horizon, bound, seeds, step)
        com = A.flow_field(com_fn)
        # a flow writes its field's body into its loop, so the same body
        # on the same domain flows the same bits: the verdict, an
        # immutable tuple, is the Hamiltonian one
        v_com = (v_ham if com.fn.body is ham.fn.body
                 and com.domain is ham.domain
                 else first_escape(com, horizon, bound, seeds, step))
        agree = v_ham.escaped == v_com.escaped
        t_diff = None
        if v_ham.escaped and v_com.escaped:
            t_diff = abs(v_ham.witness[1].t_star - v_com.witness[1].t_star)
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
    "standard_symplectic", "hamiltonian_vf",
    "poisson_map_residual", "cotangent_lift", "complete_map_probe",
    "default_test_functions",
]
