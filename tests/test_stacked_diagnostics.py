"""The structure-function evaluators over stacks of points, and the residual
diagnostics built on them, against the per-point loops they replaced.

The loops below are kept verbatim as oracles. Where a loop multiplied with
`@`, the stacked code must return the same bits; where it contracted with
`einsum` (the axiom and Poisson Jacobi residuals), summation order may
differ, and a fixed tolerance applies (see EINSUM_TOL).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algpaths import expr as ex
from algpaths.algebroid import (LieAlgebroid, anchor_morphism_residual_at,
                                check_axioms, jacobi_residual_at,
                                make_tangent)
from algpaths.apath import (AHomotopy, APath, admissibility_residual,
                            homotopy_residual)
from algpaths.comorph import Comorphism, anchor_compat_residual
from algpaths.poisson import PoissonManifold

COORDS = ["x1", "x2", "x3", "x4"]

# Coefficients and points are bounded by 2, so every drawn entry and its
# derivatives are below 12 in size, every product summed in a residual is
# below 150, and a reordered sum of at most 18 of them moves by under
# 18 * 150 * 2.2e-16 < 1e-12.
EINSUM_TOL = 1e-12


# ----------------------------------------------------------- the oracles

def homotopy_residual_loop(H):
    A = H.algebroid
    ht = H.t_grid[1] - H.t_grid[0]
    hs = H.s_grid[1] - H.s_grid[0]
    dx_ds = (H.x[:, 2:] - H.x[:, :-2]) / (2.0 * hs)
    deta_ds = (H.eta[:, 2:] - H.eta[:, :-2]) / (2.0 * hs)
    dbeta_dt = (H.beta[2:] - H.beta[:-2]) / (2.0 * ht)
    res_x = 0.0
    res_eta = 0.0
    nt, ns = len(H.t_grid), len(H.s_grid)
    for k in range(1, nt - 1):
        for l in range(1, ns - 1):
            xkl = H.x[k, l]
            rho = A.anchor_matrix(xkl)
            f = A.bracket_tensor(xkl)
            beta = H.beta[k, l]
            r1 = dx_ds[k, l - 1] - rho @ beta
            r2 = (deta_ds[k, l - 1] - dbeta_dt[k - 1, l]
                  - f @ H.eta[k, l] @ beta)
            res_x = max(res_x, float(np.max(np.abs(r1))))
            res_eta = max(res_eta, float(np.max(np.abs(r2))))
    return res_x, res_eta


def admissibility_residual_loop(g):
    h = g.times[1] - g.times[0]
    v = g.base
    dx = np.empty_like(v)
    dx[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    dx[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    dx[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    res = 0.0
    for k in range(len(g.times)):
        if k in g.junctions:
            continue
        rho = g.algebroid.anchor_matrix(g.base[k])
        r = dx[k] - rho @ g.eta[k]
        res = max(res, float(np.max(np.abs(r))))
    return res


def bracket_tensor_loop(A, x):
    f = np.zeros((A.r, A.r, A.r))
    if A._bracket_fn is not None:
        vals = A._bracket_fn(*x)
        for (c, a, b), v in zip(A._bkeys, vals):
            f[c, a, b] = v
            f[c, b, a] = -v
    return f


def axioms_loop(A, samples):
    anchor_res = 0.0
    jacobi_res = 0.0
    for x in samples:
        rho = A.anchor_matrix(x)
        f = A.bracket_tensor(x)
        drho = A._danchor(x)
        lhs = np.einsum("ic,cab->iab", rho, f)
        grad = np.einsum("ja,jib->iab", rho, drho)
        rhs = grad - np.transpose(grad, (0, 2, 1))
        anchor_res = max(anchor_res, float(np.max(np.abs(lhs - rhs))))
        df = A._dbracket(x)
        term = (np.einsum("ebc,dae->dabc", f, f)
                + np.einsum("ja,jdbc->dabc", rho, df))
        cyc = (term + np.transpose(term, (0, 2, 3, 1))
               + np.transpose(term, (0, 3, 1, 2)))
        jacobi_res = max(jacobi_res, float(np.max(np.abs(cyc))))
    return anchor_res, jacobi_res


def anchor_compat_residual_loop(c, samples):
    res = 0.0
    for x in samples:
        lhs = c.dphi_at(x) @ c.source.anchor_matrix(x) @ c.M_at(x)
        rhs = c.target.anchor_matrix(c.phi_at(x))
        res = max(res, float(np.max(np.abs(lhs - rhs))))
    return res


def pi_matrix_loop(P, x):
    M = np.zeros((P.dim, P.dim))
    if P._pi_fn is not None:
        vals = P._pi_fn(*x)
        for (i, j), v in zip(P._keys, vals):
            M[i, j] = v
            M[j, i] = -v
    return M


def poisson_jacobi_loop(P, samples):
    n = P.dim
    P.jacobi_residual([])                      # compiles the derivatives
    res = 0.0
    for x in samples:
        M = P.pi_matrix(x)
        dP = np.asarray(P._jac_fn(*x), float).reshape(n, n, n)
        term = np.einsum("il,ljk->ijk", M, dP)
        cyc = (term + np.transpose(term, (1, 2, 0))
               + np.transpose(term, (2, 0, 1)))
        res = max(res, float(np.max(np.abs(cyc))))
    return res


# ------------------------------------------------------------ strategies

coefficients = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def entries(draw, n, nonzero=False):
    """c0 + c1 x_i x_j + c2 sin(x_k) over the first n coordinates; with
    nonzero, c0 is at least 0.1 in size."""
    c0 = draw(st.floats(0.1, 2.0) if nonzero else coefficients)
    c1, c2 = draw(coefficients), draw(coefficients)
    i, j, k = (ex.Var(COORDS[draw(st.integers(0, n - 1))]) for _ in range(3))
    return ex.add(ex.add(ex.Const(c0), ex.mul(ex.Const(c1), ex.mul(i, j))),
                  ex.mul(ex.Const(c2), ex.fun("sin", k)))


@st.composite
def algebroids(draw, n=None):
    """A rank 1-3 algebroid over R^1-3 with every bracket entry nonzero;
    the axioms need not hold, the residuals are only compared."""
    n = n or draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    anchor = [[draw(entries(n)) for _ in range(r)] for _ in range(n)]
    bracket = {(c, a, b): draw(entries(n, nonzero=True))
               for c in range(r) for a in range(r) for b in range(a + 1, r)}
    return LieAlgebroid(n, r, anchor, bracket, coords=COORDS[:n])


def uniform_points(seed, count, n):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(count, n))


seeds = st.integers(0, 2**32 - 1)


def random_homotopy(A, seed, nt, ns):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(nt, ns, A.n))
    x[0] = x[0, 0]
    x[-1] = x[-1, 0]
    eta = rng.uniform(-2.0, 2.0, size=(nt, ns, A.r))
    beta = rng.uniform(-2.0, 2.0, size=(nt, ns, A.r))
    beta[0] = beta[-1] = 0.0
    return AHomotopy(A, np.linspace(0.0, 1.0, nt), np.linspace(0.0, 1.0, ns),
                     x, eta, beta)


# ------------------------------------------------------------ evaluators

@settings(max_examples=30, deadline=None, derandomize=True)
@given(algebroids(), st.data(), seeds, st.integers(0, 6))
def test_stacked_evaluators_stack_the_point_values(A, data, seed, count):
    pts = uniform_points(seed, count, A.n)
    c = Comorphism(A, make_tangent(2), [data.draw(entries(A.n))] * 2,
                   [[data.draw(entries(A.n)) for _ in range(2)]
                    for _ in range(A.r)])
    n, r = A.n, A.r
    for fn, shape in ((A.anchor_matrix, (n, r)),
                      (A.bracket_tensor, (r, r, r)),
                      (A._danchor, (n, n, r)),
                      (A._dbracket, (n, r, r, r)),
                      (c.M_at, (r, 2)),
                      (c.dphi_at, (2, n))):
        stacked = fn(pts)
        assert stacked.shape == (count,) + shape
        for k in range(count):
            one = fn(pts[k])
            assert one.shape == shape
            assert np.array_equal(stacked[k], one)
            assert np.array_equal(fn(list(pts[k])), one)
    for x in pts:
        assert np.array_equal(A.bracket_tensor(x), bracket_tensor_loop(A, x))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 4), st.data(), seeds, st.integers(0, 6))
def test_stacked_pi_matrix_matches_the_loop(n, data, seed, count):
    pi = {(i, j): data.draw(entries(n))
          for i in range(n) for j in range(i + 1, n)
          if data.draw(st.booleans())}
    P = PoissonManifold(n, pi, coords=COORDS[:n])
    pts = uniform_points(seed, count, n)
    stacked = P.pi_matrix(pts)
    assert stacked.shape == (count, n, n)
    for k in range(count):
        assert np.array_equal(stacked[k], pi_matrix_loop(P, pts[k]))
        assert np.array_equal(P.pi_matrix(pts[k]), stacked[k])


# ----------------------------------------------------------- diagnostics

@settings(max_examples=40, deadline=None, derandomize=True)
@given(algebroids(), seeds, st.integers(2, 7), st.integers(2, 7))
def test_homotopy_residual_matches_the_loop_bitwise(A, seed, nt, ns):
    H = random_homotopy(A, seed, nt, ns)
    assert homotopy_residual(H) == homotopy_residual_loop(H)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(algebroids(), seeds, st.integers(3, 12), st.data())
def test_admissibility_residual_matches_the_loop_bitwise(A, seed, size, data):
    rng = np.random.default_rng(seed)
    junctions = data.draw(st.sets(st.integers(0, size - 1)))
    g = APath(A, np.linspace(0.0, 1.0, size),
              rng.uniform(-2.0, 2.0, size=(size, A.n)),
              rng.uniform(-2.0, 2.0, size=(size, A.r)), junctions=junctions)
    assert admissibility_residual(g) == admissibility_residual_loop(g)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(algebroids(), seeds, st.integers(0, 8))
def test_axiom_residuals_match_the_loop(A, seed, count):
    pts = uniform_points(seed, count, A.n)
    samples = pts.tolist()
    rep = check_axioms(A, samples)
    anchor_res, jacobi_res = axioms_loop(A, samples)
    assert rep.anchor_residual == pytest.approx(anchor_res, rel=0,
                                                abs=EINSUM_TOL)
    assert rep.jacobi_residual == pytest.approx(jacobi_res, rel=0,
                                                abs=EINSUM_TOL)
    per_point = anchor_morphism_residual_at(A, pts)
    assert per_point.shape == (count,)
    for k, x in enumerate(samples):
        assert per_point[k] == pytest.approx(
            anchor_morphism_residual_at(A, x), rel=0, abs=EINSUM_TOL)
        assert isinstance(jacobi_residual_at(A, x), float)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(algebroids(), algebroids(), st.data(), seeds, st.integers(0, 8))
def test_anchor_compat_residual_matches_the_loop_bitwise(A, B, data, seed,
                                                         count):
    phi = [data.draw(entries(A.n)) for _ in range(B.n)]
    M = [[data.draw(entries(A.n)) for _ in range(B.r)] for _ in range(A.r)]
    c = Comorphism(A, B, phi, M)
    samples = uniform_points(seed, count, A.n).tolist()
    assert (anchor_compat_residual(c, samples)
            == anchor_compat_residual_loop(c, samples))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 4), st.data(), seeds, st.integers(0, 8))
def test_poisson_jacobi_residual_matches_the_loop(n, data, seed, count):
    pi = {(i, j): data.draw(entries(n))
          for i in range(n) for j in range(i + 1, n)}
    P = PoissonManifold(n, pi, coords=COORDS[:n])
    samples = uniform_points(seed, count, n).tolist()
    assert P.jacobi_residual(samples) == pytest.approx(
        poisson_jacobi_loop(P, samples), rel=0, abs=EINSUM_TOL)


# ------------------------------------------------------------ empty sets

@pytest.mark.parametrize("nt, ns", [(2, 5), (5, 2), (2, 2)])
def test_homotopy_residual_of_an_empty_interior_is_zero(nt, ns):
    A = LieAlgebroid(1, 2, [[ex.Var("x1"), ex.Const(1.0)]],
                     {(0, 0, 1): ex.Const(1.0)})
    H = random_homotopy(A, 3, nt, ns)
    assert homotopy_residual(H) == (0.0, 0.0)


def test_residuals_over_no_points_are_zero():
    A = LieAlgebroid(1, 2, [[ex.Var("x1"), ex.Const(1.0)]],
                     {(0, 0, 1): ex.Const(1.0)})
    g = APath(A, [0.0, 0.5, 1.0], [[0.0], [1.0], [5.0]],
              [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], junctions=(0, 1, 2))
    assert admissibility_residual(g) == 0.0
    rep = check_axioms(A, [])
    assert (rep.anchor_residual, rep.jacobi_residual) == (0.0, 0.0)
    c = Comorphism(A, make_tangent(1), [ex.Var("x1")], [[1.0], [0.0]])
    assert anchor_compat_residual(c, []) == 0.0
    P = PoissonManifold(2, {(0, 1): ex.Var("x1")})
    assert P.jacobi_residual([]) == 0.0
    assert A.anchor_matrix(np.empty((0, 1))).shape == (0, 1, 2)
    assert A.bracket_tensor(np.empty((0, 1))).shape == (0, 2, 2, 2)


def test_a_nan_residual_is_not_read_as_zero():
    # inf - inf: the anchor is nan wherever x1 != 0, and a nan residual
    # must fail its check rather than drop out of the maximum
    nan_entry = ex.parse("x1*1e300*1e300 - x1*1e300*1e300", ["x1"])
    A = LieAlgebroid(1, 1, [[nan_entry]], {})
    rep = check_axioms(A, [[0.5], [0.25]])
    assert np.isnan(rep.anchor_residual)
    assert not rep.ok()
    g = APath(A, [0.0, 0.5, 1.0], [[0.25], [0.5], [0.75]],
              [[1.0], [1.0], [1.0]])
    assert np.isnan(admissibility_residual(g))
    assert np.isnan(homotopy_residual(random_homotopy(A, 5, 4, 4))[0])
