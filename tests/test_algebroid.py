import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from algpaths import expr as ex
from algpaths.algebroid import (AlgebroidError, Antisymmetric, Draws,
                                LieAlgebroid, SectionTD, check_axioms,
                                make_cotangent_poisson, make_lie_algebra,
                                make_tangent, sample_points)


def so3_constants():
    c = np.zeros((3, 3, 3))
    for d, a, b in ((2, 0, 1), (0, 1, 2), (1, 2, 0)):
        c[d, a, b] = 1.0
        c[d, b, a] = -1.0
    return c


def seeded_samples(A, count=100, seed=0):
    return sample_points(A, count, Draws(seed))


# ----------------------------------------------------------- construction

def test_tangent_algebroid_axioms_are_exact():
    A = make_tangent(3)
    rep = check_axioms(A, seeded_samples(A))
    assert rep.anchor_residual == 0.0
    assert rep.jacobi_residual == 0.0
    assert rep.ok()


def test_so3_lie_algebra_axioms_are_exact():
    A = make_lie_algebra(so3_constants())
    rep = check_axioms(A, seeded_samples(A, 50))
    assert rep.max_residual() == 0.0
    assert A.n == 1 and A.r == 3          # zero anchor over a point


def test_flipped_sign_constants_are_still_a_lie_algebra():
    make_lie_algebra(-so3_constants())    # so(3) with e -> -e: no raise


def test_the_rank_0_lie_algebra_builds():
    # its antisymmetry and Jacobi maxima are taken over no constants
    A = make_lie_algebra(np.zeros((0, 0, 0)))
    assert (A.n, A.r) == (1, 0)
    assert A.anchor_matrix(np.zeros((3, 1))).shape == (3, 1, 0)
    assert A.bracket_tensor(np.zeros((3, 1))).shape == (3, 0, 0, 0)


def test_perturbing_one_cyclic_constant_keeps_jacobi():
    # scaling c^1_23 alone rescales so(3) to an isomorphic algebra, so
    # make_lie_algebra must accept it (Jacobi residual is exactly zero)
    c = so3_constants()
    c[0, 1, 2] = 1.1
    c[0, 2, 1] = -1.1
    make_lie_algebra(c)                   # no raise


def test_genuinely_broken_constants_are_rejected_with_residual():
    c = np.zeros((3, 3, 3))
    c[0, 0, 1] = 0.1                      # [e1,e2] = 0.1 e1, rest zero
    c[0, 1, 0] = -0.1
    c += so3_constants()
    with pytest.raises(AlgebroidError, match="Jacobi"):
        make_lie_algebra(c)


def test_non_antisymmetric_constants_rejected():
    c = so3_constants()
    c[2, 1, 0] = 1.0                      # breaks c[d,a,b] = -c[d,b,a]
    with pytest.raises(AlgebroidError, match="antisymmetr"):
        make_lie_algebra(c)


def test_bracket_keys_validated():
    anchor = [[ex.Const(0.0)] * 2 for _ in range(2)]
    with pytest.raises(AlgebroidError):
        LieAlgebroid(2, 2, anchor, {(0, 1, 1): ex.Const(1.0)})  # a = b
    with pytest.raises(AlgebroidError):
        LieAlgebroid(2, 2, anchor, {(0, 1, 0): ex.Const(1.0)})  # a > b
    with pytest.raises(AlgebroidError):
        LieAlgebroid(2, 2, anchor, {(5, 0, 1): ex.Const(1.0)})  # out of range


def test_unknown_variables_rejected():
    with pytest.raises(AlgebroidError, match="unknown"):
        LieAlgebroid(1, 1, [[ex.Var("y7")]], {})


# ------------------------------------------------------------- residuals

def test_anchor_morphism_residual_detects_violation():
    # abelian R^2 tangent anchor, but with a nonzero bracket constant:
    # rho([e1,e2]) = rho(e1) = d/dx1 while [rho e1, rho e2] = 0
    A = LieAlgebroid(2, 2,
                     [[ex.Const(1.0), ex.Const(0.0)],
                      [ex.Const(0.0), ex.Const(1.0)]],
                     {(0, 0, 1): ex.Const(1.0)})
    rep = check_axioms(A, seeded_samples(A, 20))
    assert rep.anchor_residual == pytest.approx(1.0)
    assert not rep.ok()


def test_check_axioms_rejects_outside_samples():
    A = LieAlgebroid(1, 1, [[ex.Const(1.0)]], {},
                     domain=[ex.parse("1 - x1^2", ["x1"])])
    with pytest.raises(ex.DomainError):
        check_axioms(A, [[5.0]])


def test_sample_points_respect_domain():
    A = LieAlgebroid(2, 1, [[ex.Const(1.0)], [ex.Const(0.0)]], {},
                     domain=[ex.parse("x1", ["x1", "x2"])])
    pts = seeded_samples(A, 50)
    assert len(pts) == 50
    assert all(p[0] > 0 for p in pts)


FINITE = st.floats(-1e300, 1e300)
BOUNDS = st.one_of(
    st.sampled_from([(-1.5, 1.5), (-1.0, 1.0)]),
    st.tuples(FINITE, FINITE).filter(lambda b: b[0] < b[1]))


@settings(max_examples=300, deadline=None)
@example(seed=0, bounds=(-1.5, 1.5), first=3, second=5)
@example(seed=2**32 - 1, bounds=(-1.0, 1.0), first=8, second=0)
@example(seed=2**32, bounds=(-1.5, 1.5), first=0, second=8)
@example(seed=2**64, bounds=(-1.0, 1.0), first=2, second=2)
@example(seed=2**130 - 1, bounds=(-1.5, 1.5), first=1, second=7)
@given(seed=st.integers(0, 2**130 - 1), bounds=BOUNDS,
       first=st.integers(0, 8), second=st.integers(0, 8))
def test_draws_are_numpys_default_rng_bit_for_bit(seed, bounds, first,
                                                  second):
    # numpy's own generator is the oracle; two calls continue one stream
    draws = Draws(seed)
    got = draws.uniform(*bounds, first) + draws.uniform(*bounds, second)
    want = np.random.default_rng(seed).uniform(*bounds, first + second)
    assert all(type(v) is float for v in got)
    assert np.array(got, dtype=float).tobytes() == want.tobytes()


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        Draws(-1)


def test_sample_points_give_up_on_empty_domain():
    A = LieAlgebroid(1, 1, [[ex.Const(1.0)]], {},
                     domain=[ex.parse("-1 - x1^2", ["x1"])])
    with pytest.raises(AlgebroidError, match="could not draw"):
        sample_points(A, 5, Draws(0), max_tries=200)


# ------------------------------------------------------ bracket plumbing

def test_bracket_expr_antisymmetry_and_diagonal():
    A = make_lie_algebra(so3_constants())
    assert A.bracket.expr(2, 0, 1) == ex.Const(1.0)
    assert str(A.bracket.expr(2, 1, 0)) in ("-1", "-1.0")
    assert A.bracket.expr(0, 1, 1) == ex.Const(0.0)


def test_bracket_tensor_matches_constants():
    A = make_lie_algebra(so3_constants())
    assert np.allclose(A.bracket_tensor([0.0]), so3_constants())


def test_anchor_matrix_shape_and_values():
    A = LieAlgebroid(2, 1, [[ex.parse("x2", ["x1", "x2"])],
                            [ex.parse("-x1", ["x1", "x2"])]], {})
    assert np.allclose(A.anchor_matrix([3.0, 4.0]),
                       np.array([[4.0], [-3.0]]))


# ----------------------------------------------------------------- JSON

def test_json_round_trip_is_structural():
    A = make_lie_algebra(so3_constants())
    B = LieAlgebroid.from_dict({
        "base_dim": 1, "rank": 3, "anchor": [["0", "0", "0"]],
        "bracket": {"3,1,2": "1", "1,2,3": "1", "2,1,3": "-1"}})
    assert B.n == A.n and B.r == A.r
    for key, e in A.bracket.items():
        assert B.bracket[key] == e


def test_from_dict_rejects_equal_pair_key():
    d = {"base_dim": 1, "rank": 2, "anchor": [["0", "0"]],
         "bracket": {"1,2,2": "1"}}
    with pytest.raises(AlgebroidError, match="a < b"):
        LieAlgebroid.from_dict(d)


def test_an_empty_table_is_zero_at_a_point_and_at_a_stack():
    # a table without entries is a constant map, evaluated by one call
    T = Antisymmetric({}, 2, ["x1", "x2"], (AlgebroidError, "bracket",
                                            "c,a,b"))
    assert T.at([0.5, -1.0]).tobytes() == np.zeros((2, 2, 2)).tobytes()
    for N in (0, 1, 9801):
        pts = np.random.default_rng(N).normal(size=(N, 2))
        got = T.at(pts)
        assert got.shape == (N, 2, 2, 2)
        assert got.tobytes() == np.zeros((N, 2, 2, 2)).tobytes()


@pytest.mark.parametrize("r", [0, 1, 3])
def test_an_algebroid_over_a_point_keeps_its_anchor_shape(r):
    # the anchor map of R^0 has n x r = 0 x r entries, not 0
    A = LieAlgebroid(0, r, [], {})
    assert A.anchor_matrix(np.zeros((3, 0))).shape == (3, 0, r)
    assert A.anchor_matrix([]).shape == (0, r)


# ----------------------------------------------------- cotangent algebroid

class _PoissonStub:
    def __init__(self, dim, entries, domain=()):
        self.dim = dim
        self.coords = [f"x{i+1}" for i in range(dim)]
        self.domain = list(domain)
        self.pi = Antisymmetric(
            {key: ex.parse(src, self.coords) for key, src in entries.items()},
            dim, self.coords, (AlgebroidError, "Pi", "i,j"))


def test_cotangent_algebroid_of_linear_poisson_passes_axioms():
    P = _PoissonStub(3, {(0, 1): "x3", (0, 2): "-x2", (1, 2): "x1"})
    A = make_cotangent_poisson(P)
    assert A.n == 3 and A.r == 3
    rep = check_axioms(A, seeded_samples(A))
    assert rep.max_residual() <= 1e-10


def test_cotangent_anchor_is_pi_sharp():
    P = _PoissonStub(2, {(0, 1): "1"})
    A = make_cotangent_poisson(P)
    # (rho xi)^i = Pi^{ia} xi_a: columns of the anchor are Pi rows
    assert np.allclose(A.anchor_matrix([0.3, 0.7]),
                       np.array([[0.0, 1.0], [-1.0, 0.0]]))


# -------------------------------------------------------------- sections

def test_section_td_evaluates_time_and_space():
    A = make_tangent(2)
    s = SectionTD.from_strings(A, ["t * x1", "x2 - t"])
    assert s(0.5, [2.0, 3.0]) == pytest.approx([1.0, 2.5])


def test_section_td_rejects_wrong_arity():
    A = make_tangent(2)
    with pytest.raises(AlgebroidError):
        SectionTD.from_strings(A, ["t"])
