import functools
import itertools
import math
import operator
import re
import struct
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from algpaths import comorph, expr as ex
from algpaths.algebroid import LieAlgebroid
from algpaths.ehresmann import ExampleConnection, FlatConnection
from algpaths.expr import (Const, DomainError, ExprError, ParseError,
                           SmoothMap, Var, compile_exprs, domain_predicate,
                           parse, substitute)
from algpaths.numkernel import VectorFieldTD, flow
from algpaths.poisson import PoissonManifold

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def d(source, var="x", variables=XY):
    return parse(source, variables).d(var)


def val(e, **point):
    fn = compile_exprs([e], sorted(point))
    return fn(*[point[k] for k in sorted(point)])[0]


def tree_eval(e, env):
    """The reference value of e at the point env, by a walk of its tree:
    each node computed by the float operation or math function it names,
    a chain's operations one at a time, left to right, a gate's e only
    where g != 0.0, and a bump as its expansion. Compiled functions must
    return the same floats, and raise where this raises."""
    cls = type(e)
    if cls is Const:
        return e.value
    if cls is Var:
        return env[e.name]
    if cls is ex.Fun and e.name == "gate":
        g = tree_eval(e.args[0], env)
        return 0.0 if g == 0.0 else g * tree_eval(e.args[1], env)
    if cls is ex.Fun and e.name == "bump":
        return tree_eval(e.expansion, env)
    if cls in (ex.Sum, ex.Product):
        acc = tree_eval(e.args[0], env)
        for op, a in zip(e.ops, e.args[1:]):
            acc = OPERATORS[op](acc, tree_eval(a, env))
        return acc
    args = [tree_eval(a, env) for a in e.args]
    if cls is ex.Neg:
        return -args[0]
    if cls is ex.Pow:
        # a square is the product, the correctly rounded one
        return args[0] * args[0] if e.n == 2 else args[0] ** e.n
    if e.name == "estep":
        return 0.0 if args[0] <= 0.0 else math.exp(-1.0 / args[0])
    return getattr(math, e.name)(*args)


OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv}


# ------------------------------------------------------------ parsing

def test_parse_round_trip_is_structural_identity():
    sources = [
        "x + y * 2",
        "(x + y) * 2",
        "-x^2 + sin(x * y) / (1 + cos(y))",
        "atan2(y, x) - exp(-x)",
        "x^-2 + sqrt(x + 3)",
        "estep(x) * estep(1 - x)",
        "x - y - 2",
        "x / y / 2",
    ]
    for s in sources:
        e = parse(s, XY)
        again = parse(str(e), XY)
        assert again == e, s


def test_precedence_and_associativity():
    assert val(parse("2 + 3 * 4", XY), x=0, y=0) == 14.0
    assert val(parse("2 - 3 - 4", XY), x=0, y=0) == -5.0
    assert val(parse("24 / 4 / 2", XY), x=0, y=0) == 3.0
    assert val(parse("-2^2", XY), x=0, y=0) == -4.0   # power binds tighter
    assert val(parse("2^3", XY), x=0, y=0) == 8.0


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as info:
        parse("x + bogus", XY)
    assert "unknown identifier" in str(info.value)
    assert info.value.offset == 4

    with pytest.raises(ParseError, match="unbalanced"):
        parse("(x + y", XY)
    with pytest.raises(ParseError, match="argument"):
        parse("sin(x, y)", XY)
    with pytest.raises(ParseError, match="empty"):
        parse("   ", XY)
    with pytest.raises(ParseError, match="unknown function"):
        parse("frob(x)", XY)
    with pytest.raises(ParseError):
        parse("x ^ y", XY)          # exponents are integer literals only
    with pytest.raises(ValueError):
        parse("x", [])              # need at least one variable
    with pytest.raises(ValueError):
        parse("x", ["x", "x"])      # distinct names


def test_repeated_variable_names_are_refused():
    # the second "t" would shadow the first, and t would read 2.0
    with pytest.raises(ValueError, match="variable names must be distinct"):
        compile_exprs([Var("t")], ["t", "t"])
    with pytest.raises(ValueError, match="variable names must be distinct"):
        SmoothMap(["x", "y", "x"], [Var("y")])


def test_a_number_literal_must_be_finite():
    # 1e400 would read as an infinite constant, printed as "inf", which
    # does not parse back
    with pytest.raises(ParseError, match="bad number '1e400'") as info:
        parse("x + 1e400", XY)
    assert info.value.offset == 4
    with pytest.raises(ParseError, match="bad number '1.2.3'"):
        parse("1.2.3", XY)
    assert parse("1e308", XY) == Const(1e308)
    assert parse("1e-400", XY) == Const(0.0)


def test_unknown_variable_rejected_even_if_valid_name():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("z + 1", XY)


# ------------------------------------------------------ differentiation

def test_basic_derivatives():
    assert val(d("x^3"), x=2.0, y=0.0) == pytest.approx(12.0)
    assert val(d("sin(x) * cos(x)"), x=0.3, y=0.0) == pytest.approx(
        math.cos(0.6), abs=1e-12)
    assert val(d("x / y", "y"), x=1.0, y=2.0) == pytest.approx(-0.25)
    assert val(d("log(x)"), x=4.0, y=0.0) == pytest.approx(0.25)
    assert val(d("x^-1"), x=2.0, y=0.0) == pytest.approx(-0.25)


def test_atan2_gradient():
    # d/dx atan2(y, x) = -y / (x^2 + y^2)
    assert val(d("atan2(y, x)", "x"), x=1.0, y=1.0) == pytest.approx(-0.5)
    assert val(d("atan2(y, x)", "y"), x=1.0, y=1.0) == pytest.approx(0.5)


@pytest.mark.parametrize("text, var, partial", [
    ("0 - x", "y", "0"),                # neg of the partial 0.0
    ("-x * y", "z", "0"),
    ("cos(x)", "y", "0"),               # cos's rule negates sin(x) * 0.0
    ("cos(x) + cos(y)", "z", "0"),
    ("exp(-x) * cos(y)", "z", "0"),
    ("0 - x", "x", "-1"),               # a partial that is not zero
    ("cos(x)", "x", "-sin(x)"),
    # d gate(g, e) = gate(g', e) + gate(g, e'): a term whose guard or arm
    # is the constant 0 is 0
    ("estep(x)", "xy", "0"),
    ("gate(x, y)", "x", "gate(1, y)"),
])
def test_a_partial_that_is_identically_zero_is_plus_zero(text, var, partial):
    # a sign flip of a zero partial gave Const(-0.0), printed "-0.0"; -0.0
    # == 0.0, so the sign is tested, not only equality; var names the
    # variables of a repeated partial, in order
    e = parse(text, XYZ)
    for v in var:
        e = e.d(v)
    assert str(e) == partial
    assert parse(str(e), XYZ) == e
    if isinstance(e, Const):
        assert math.copysign(1.0, e.value) == (1.0 if partial == "0"
                                              else -1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.1, max_value=2.0))
def test_derivative_matches_finite_differences(x, y):
    sources = ["x^2 * y + sin(x)", "exp(x - y) / (2 + cos(x))",
               "sqrt(y + 3) * x", "atan2(y, x + 3)"]
    h = 1e-6
    for s in sources:
        e = parse(s, XY)
        fn = compile_exprs([e, e.d("x")], XY)
        lo = fn(x - h, y)[0]
        hi = fn(x + h, y)[0]
        fd = (hi - lo) / (2 * h)
        sym = fn(x, y)[1]
        assert sym == pytest.approx(fd, rel=1e-5, abs=1e-5), s


# -------------------------------------------------- smooth primitives

def test_estep_is_flat_at_zero_and_smooth():
    f = parse("estep(x)", XY)
    fn = compile_exprs([f, f.d("x")], XY)
    assert fn(-1.0, 0.0) == [0.0, 0.0]
    assert fn(0.0, 0.0) == [0.0, 0.0]
    v, dv = fn(0.5, 0.0)
    assert v == pytest.approx(math.exp(-2.0))
    assert dv == pytest.approx(math.exp(-2.0) * 4.0)
    # no overflow on the derivative at tiny positive arguments
    v, dv = fn(1e-300, 0.0)
    assert v == 0.0 and dv == 0.0


def test_bump_is_one_at_midpoint_zero_outside():
    b = parse("bump(-1, 1, x)", XY)
    fn = compile_exprs([b], XY)
    assert fn(0.0, 0.0)[0] == 1.0      # exactly, by normalization
    assert fn(1.0, 0.0)[0] == 0.0
    assert fn(-1.5, 0.0)[0] == 0.0
    assert 0.0 < fn(0.5, 0.0)[0] < 1.0


def test_gate_short_circuits_singular_branch():
    # gate(g, e) must not evaluate e when g == 0
    g = ex.fun("gate", parse("estep(x)", XY), parse("log(x)", XY))
    fn = compile_exprs([g], XY)
    assert fn(-2.0, 0.0)[0] == 0.0     # log(-2) never evaluated
    assert fn(1.0, 0.0)[0] == pytest.approx(math.exp(-1.0) * 0.0, abs=1e-12)


def test_estep_derivative_chain_is_gated():
    # d/dx estep(-x) at x > 0 must not divide by zero
    e = parse("estep(-x)", XY).d("x")
    fn = compile_exprs([e], XY)
    assert fn(2.0, 0.0)[0] == 0.0


# ----------------------------------------------------------- algebra

def test_structural_equality_and_hash():
    a = parse("x + y", XY)
    b = parse("x + y", XY)
    c = parse("y + x", XY)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_substitute():
    e = parse("x^2 + y", XY)
    out = substitute(e, {"x": parse("y + 1", XY)})
    fn = compile_exprs([out], XY)
    assert fn(0.0, 2.0)[0] == pytest.approx(11.0)


def test_dot_is_the_left_fold_of_a_loop():
    x, y = Var("x"), Var("y")
    assert ex.dot([], []) == Const(0.0)
    # zero terms and unit factors fold away; the rest adds left to right
    assert (ex.dot([Const(0.0), x, Const(2.0), y], [y, Const(1.0), y, x])
            == ex.add(ex.add(x, ex.mul(Const(2.0), y)), ex.mul(y, x)))
    assert ex.dot([Const(2.0), Const(3.0)],
                  [Const(4.0), Const(5.0)]) == Const(23.0)


def test_constant_folding_keeps_finite_values_only():
    e = parse("2 * 3 + x", XY)
    assert str(e) == "6 + x" or "6" in str(e)
    # folding must not bake in an overflow
    big = ex.mul(Const(1e308), Const(1e308))
    assert not isinstance(big, Const) or math.isfinite(big.value)


def test_variables_collection():
    e = parse("x * sin(y) + 2", XY)
    assert e.variables() == {"x", "y"}


# ---------------------------------------------------------- SmoothMap

def test_smooth_map_domain_and_jacobian():
    m = SmoothMap.from_strings(XY, ["x^2 + y", "x * y"],
                               domain_sources=["1 - x^2 - y^2"])
    assert m.in_domain([0.1, 0.2])
    assert not m.in_domain([2.0, 0.0])
    assert m([0.1, 0.2]) == pytest.approx([0.21, 0.02])
    with pytest.raises(DomainError):
        m([2.0, 0.0])
    J = m.jacobian([0.5, 2.0])
    assert J[0] == pytest.approx([1.0, 1.0])
    assert J[1] == pytest.approx([2.0, 0.5])


def test_a_smooth_map_keeps_the_shape_of_its_nesting():
    src = [["x", "y", "x * y"], ["x^2", "1", "y^3"]]
    m = SmoothMap(XY, [[parse(e, XY) for e in row] for row in src])
    assert m.shape == (2, 3)
    pts = [[0.5, 2.0], [-1.0, 3.0]]
    assert m.eval_unchecked(pts[0]).tolist() == [[0.5, 2.0, 1.0],
                                                 [0.25, 1.0, 8.0]]
    assert m.eval_unchecked(pts).shape == (2, 2, 3)
    # the partial index comes last: J[..., j] = d_j m[...]
    J = m.jacobian(pts)
    assert J.shape == (2, 2, 3, 2)
    assert J[0, 0].tolist() == [[1.0, 0.0], [0.0, 1.0], [2.0, 0.5]]
    assert J[1, 1].tolist() == [[-2.0, 0.0], [0.0, 0.0], [0.0, 27.0]]
    scalar = SmoothMap(XY, parse("x * y", XY))
    assert scalar.shape == ()
    assert scalar.eval_unchecked(pts).tolist() == [1.0, -3.0]
    assert scalar.jacobian(pts[0]).tolist() == [2.0, 0.5]
    # the shape of an object array is kept, an empty one's included
    empty = SmoothMap(XY, np.empty((2, 0, 3), dtype=object))
    assert empty.eval_unchecked(pts).shape == (2, 2, 0, 3)
    assert empty.jacobian(pts[0]).shape == (2, 0, 3, 2)
    with pytest.raises(TypeError):
        SmoothMap(XY, [[Var("x")], [Var("x"), Var("y")]])
    with pytest.raises(ExprError, match="unknown variables"):
        SmoothMap(XY, [Var("z")])
    with pytest.raises(KeyError, match="unknown variables"):
        SmoothMap(XY, [[Var("x")], [Var("z")]], error=KeyError)


def test_domain_require_tests_every_point_and_names_the_first_outside():
    disk = domain_predicate([parse("1 - x^2 - y^2", XY)], XY)
    pts = disk.require([[0.1, 0.2], [0.3, -0.4]], 2, "sample")
    assert pts.dtype == float and pts.tolist() == [[0.1, 0.2], [0.3, -0.4]]
    assert disk.require((0.1, 0.2), 2, "seed").shape == (1, 2)
    assert disk.require([], 2, "sample").shape == (0, 2)
    with pytest.raises(DomainError,
                       match=r"^sample \(2\.0, 0\.0\) is outside the domain$"):
        disk.require([[0.1, 0.2], [2.0, 0.0], [3.0, 0.0]], 2, "sample")
    with pytest.raises(KeyError, match="seed"):
        disk.require([[3.0, 0.0]], 2, "seed", KeyError)
    # the wrong number of coordinates, with or without predicates
    for dom in (disk, domain_predicate([], XY)):
        with pytest.raises(ValueError, match=r"^seed \(0\.1, 0\.2, 0\.3\) "
                                             r"has 3 coordinates, not 2$"):
            dom.require([[0.1, 0.2, 0.3]], 2, "seed")
    # points of R^0: an (N, 0) stack is N points, an empty vector one
    for dom in (domain_predicate([], []), domain_predicate([Const(1.0)], [])):
        assert dom.require(np.empty((3, 0)), 0, "point").shape == (3, 0)
        assert dom.require([], 0, "point").shape == (1, 0)
    # the predicate sees plain floats: 1/x is outside at 0 only if it raises
    inv = domain_predicate([parse("1 / x", ["x"])], ["x"])
    with pytest.raises(DomainError, match=r"\(0\.0,\)"):
        inv.require(np.zeros((1, 1)), 1, "point")


def test_smooth_map_domain_errors_mean_outside():
    m = SmoothMap.from_strings(["x"], ["x"], domain_sources=["log(x)"])
    assert not m.in_domain([-1.0])     # log raises -> outside, not crash
    assert m.in_domain([math.e])


@pytest.mark.parametrize("owner", [
    lambda dom: LieAlgebroid(1, 1, [[1.0]], {}, domain=dom),
    lambda dom: PoissonManifold(1, {}, domain=dom),
    lambda dom: FlatConnection(["x1"], [Var("x1")], [[1.0]],
                               domain=dom).source,
    lambda dom: SmoothMap(["x1"], [Var("x1")], domain=dom),
], ids=["LieAlgebroid", "PoissonManifold", "FlatConnection", "SmoothMap"])
def test_domain_predicate_errors_mean_outside(owner):
    obj = owner([parse("log(x1)", ["x1"])])
    assert not obj.in_domain([-1.0])   # log raises -> outside, not crash
    assert not obj.in_domain([0.0])
    assert not obj.in_domain([0.5])    # log(0.5) < 0
    assert obj.in_domain([math.e])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(min_value=-3.0, max_value=3.0))
def test_compiled_matches_tree_eval(x):
    e = parse("sin(x) * x^2 - exp(-x) + bump(-2, 2, x)", ["x"])
    fn = compile_exprs([e], ["x"])
    ref = tree_eval(e, {"x": x})
    assert fn(x)[0] == pytest.approx(ref, rel=1e-14, abs=1e-14)


# ------------------------------------------------------------ chains

def test_a_chain_is_the_left_deep_tree_kept_flat():
    x, y, z = Var("x"), Var("y"), Var("z")
    e = ex.div(ex.mul(ex.mul(x, y), z), Const(3.0))
    assert type(e) is ex.Product and e.args == (x, y, z, Const(3.0))
    assert e.ops == "**/" and str(e) == "x * y * z / 3"
    # a right operand nests; a first operand of the same kind continues
    r = ex.sub(x, ex.add(y, z))
    assert r.args == (x, ex.add(y, z)) and str(r) == "x - (y + z)"
    assert ex.Sum((ex.Sum((x, y), "-"), z), "+") == parse("x - y + z", XYZ)
    assert parse("(x - y) + z", XYZ) == parse("x - y + z", XYZ)
    # derived as the binary tree: each prefix times the next factor's
    # derivative
    assert parse("x * y * z", XYZ).d("z") == parse("x * y", XYZ)
    assert parse("x / y * z * x", XYZ).d("z") == parse("x / y * x", XYZ)
    # compiled without inner parentheses, left to right
    assert compile_exprs([parse("x - y + z", XYZ)], XYZ).body.outs == (
        "(_v0 - _v1 + _v2)",)


def test_a_bump_prints_whole_and_computes_its_expansion():
    e = parse("bump(-1, 1, x * y)", XY)
    assert str(e) == "bump(-1, 1, x * y)" and parse(str(e), XY) == e
    assert type(e) is ex.Fun and e.args[2] == parse("x * y", XY)
    s = "((x * y - -1) / 2)"
    expansion = parse(f"54.598150033144236 * estep({s}) * estep(1 - {s})",
                      XY)
    assert e.expansion == expansion
    assert compile_exprs([e], XY)(0.3, 0.5) == compile_exprs(
        [expansion], XY)(0.3, 0.5)
    # constant arguments fold to the value
    assert ex.fun("bump", Const(-1.0), Const(1.0), Const(0.0)) == Const(1.0)


def test_a_bump_is_differentiated_through_one_slope():
    # each partial is gate(slope, ds), the product of the one slope node
    # d bump / ds, built with the bump from estep's gated derivative, and
    # the partial of the expansion's own s; x and y share that node
    e = parse("bump(-1, 1, x * y)", XY)
    s = "((x * y - -1) / 2)"
    assert e.s == parse(s, XY) and e.expansion.args[1].args[0] is e.s
    assert e.slope == parse(
        f"54.598150033144236 * (gate(estep({s}), 1 / {s}^2) * estep(1 - {s})"
        f" - estep({s}) * gate(estep(1 - {s}), 1 / (1 - {s})^2))", XY)
    dx, dy = e.d("x"), e.d("y")
    assert dx == ex.fun("gate", e.slope, e.s.d("x"))
    assert dy == ex.fun("gate", e.slope, e.s.d("y"))
    assert dx.args[0] is e.slope and dy.args[0] is e.slope
    assert parse("bump(-1, 1, x)", XY).d("y") == Const(0.0)
    # the chain rule moves the last bits only: within 8 ulps of 4, above
    # the largest |partial| on the grid
    bound = 8 * math.ulp(4.0)
    fn = compile_exprs([dx, dy], XY)
    ref = compile_exprs([e.expansion.d("x"), e.expansion.d("y")], XY)
    grid = np.linspace(-1.5, 1.5, 13).tolist()
    largest = 0.0
    for x, y in itertools.product(grid, grid):
        want = ref(x, y)
        largest = max(largest, *map(abs, want))
        assert all(abs(g - w) <= bound for g, w in zip(fn(x, y), want))
    assert 3.0 < largest < 4.0
    # the slope is computed once for both partials, and tested once
    assert "".join(fn.body.lines).count("54.598150033144236") == 1
    assert sum(line.lstrip().startswith("if ") for line in fn.body.lines) \
        == 1


def test_a_bump_of_variable_ends_matches_central_differences():
    # a, b and t all vary; s = (t - a) / (b - a)
    e = parse("bump(y - 2, x^2 + 1, x * y + sin(x))", XY)
    first = [e.d(v) for v in XY]
    second = [first[0].d("x"), first[0].d("y"), first[1].d("y")]
    f = compile_exprs([e], XY)
    f1 = compile_exprs(first, XY)
    f2 = compile_exprs(second, XY)
    s = compile_exprs([e.s, e.s.d("x")], XY)
    h = 1e-6

    def central(fn, x, y):
        # the central differences of fn's values in x and in y
        return [[(p - m) / (2 * h) for p, m in zip(fn(x + h, y),
                                                   fn(x - h, y))],
                [(p - m) / (2 * h) for p, m in zip(fn(x, y + h),
                                                   fn(x, y - h))]]

    for x, y in [(0.5, 0.5), (1.2, -0.3), (3.0, 0.2), (2.5, 1.5)]:
        assert 0.2 < s(x, y)[0] < 0.9                # inside the support
        (fx,), (fy,) = central(f, x, y)
        assert f1(x, y) == pytest.approx([fx, fy], rel=0, abs=1e-8)
        (fxx, fyx), (fxy, fyy) = central(f1, x, y)
        assert fxy == pytest.approx(fyx, rel=0, abs=1e-8)
        assert f2(x, y) == pytest.approx([fxx, fxy, fyy], rel=0, abs=1e-8)
    # outside the support on both sides, for both signs of ds/dx, every
    # first and second partial is +0.0
    for x, y, side, sign in [(-0.7, 0.9, "<", 1), (-2.5, 1.5, "<", -1),
                             (0.5, 2.0, ">", 1), (2.0, 3.0, ">", -1)]:
        sv, ds = s(x, y)
        assert (sv < 0.0 if side == "<" else sv > 1.0) and ds * sign > 0.0
        assert f(x, y) == [0.0]
        assert list(map(_bits, f1(x, y) + f2(x, y))) == [_bits(0.0)] * 5


@st.composite
def chains(draw, depth=3):
    """An expression built by the folding constructors: sums and products
    of mixed operators whose right operands nest, atan2 and bump calls,
    over x, y, z and a few constants."""
    leaves = st.sampled_from([Var("x"), Var("y"), Var("z"), Const(2.0),
                              Const(0.5), Const(-1.5), Const(3.0)])

    def build(level):
        if level == 0 or draw(st.integers(0, 3)) == 0:
            return draw(leaves)
        kind = draw(st.sampled_from(["chain", "chain", "atan2", "bump"]))
        if kind == "atan2":
            return ex.fun("atan2", build(level - 1), build(level - 1))
        if kind == "bump":
            return ex.fun("bump", draw(leaves), draw(leaves), build(level - 1))
        e = build(level - 1)
        for op in draw(st.lists(st.sampled_from("+-*/"), min_size=1,
                                max_size=6)):
            e = {"+": ex.add, "-": ex.sub, "*": ex.mul, "/": ex.div}[op](
                e, build(level - 1))
        return e

    return build(depth)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chains(), st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.5]),
                          min_size=3, max_size=3))
def test_a_chain_prints_parses_and_compiles_as_its_tree(e, point):
    assert parse(str(e), XYZ) == e
    fn = compile_exprs([e], XYZ)
    env = dict(zip(XYZ, point))
    assert (_outcome(lambda: fn(*point))
            == _outcome(lambda: [tree_eval(e, env)]))


def test_a_sum_of_max_terms_parses_compiles_and_splits():
    assert ex.MAX_TERMS == 1000
    terms = ["x"] + ["y"] * (ex.MAX_TERMS - 1)
    e = parse(" + ".join(terms), XY)
    assert len(e.args) == ex.MAX_TERMS
    fn = compile_exprs([e, e.d("y")], XY)
    assert fn(0.5, 0.25) == [0.5 + 999 * 0.25, 999.0]
    # a bare fixed y is no root: nothing moves
    pre, rest = fn.body.split([1])
    assert pre.outs == () and rest is fn.body
    # the 999 leading fixed y's of a chain are one root, its prefix, found
    # at the chain's full depth
    fn = compile_exprs([parse(" + ".join(terms[::-1]), XY)], XY)
    pre, rest = fn.body.split([1])
    assert len(pre.outs) == 1 and rest.outs == ("(_v2 + _v0)",)
    run = ex._function
    moved = run(pre.params, pre.lines, pre.outs)(9.0, 0.25)
    assert (run(rest.params, rest.lines, rest.outs)(0.5, 0.25, *moved)
            == fn(0.5, 0.25))
    # a term past the bound is refused at the operator that adds it, also
    # where groups continue a chain
    source = " + ".join(terms + ["x"])
    with pytest.raises(ParseError, match="more than 1000 terms") as info:
        parse(source, XY)
    assert info.value.offset == source.rindex("+")
    with pytest.raises(ParseError, match="more than 1000 terms"):
        parse(f"({' + '.join(terms)}) - x", XY)
    # a product counts a level per operator, as its derivative nests
    with pytest.raises(ParseError, match="nested more than 64 levels"):
        parse(" * ".join(terms[:66]), XY)


def _nested_bumps(k):
    return parse("bump(-1, 1, " * k + "x1" + ")" * k, ["x1"])


def _distinct_nodes(e):
    seen, todo = set(), [e]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo += node.args
    return len(seen)


def test_nested_bumps_grow_linearly():
    # each bump adds a fixed number of nodes to its derivative (the bump,
    # its expansion, the chain rule's terms) and a fixed text to the
    # composite; a bump written out as its expansion, t twice, doubled
    # both with each level
    zero = LieAlgebroid(1, 1, [[0.0]], {})
    for k in range(1, 11):
        e = _nested_bumps(k)
        assert _distinct_nodes(e.d("x1")) <= 30 * k
        c = comorph.Comorphism(zero, zero, [e], [[e]])
        cc = comorph.compose(c, c)
        assert len(str(cc.phi[0])) <= 30 * k
        assert len(str(cc.M[0][0])) <= 50 * k


def test_the_composite_of_ten_nested_bumps_runs_in_a_second():
    start = time.perf_counter()
    zero = LieAlgebroid(1, 1, [[0.0]], {})
    e = _nested_bumps(10)
    c = comorph.Comorphism(zero, zero, [e], [[e]])
    cc = comorph.compose(c, c)
    text = str(cc.phi[0]) + str(cc.M[0][0])
    residual = comorph.anchor_compat_residual(
        cc, np.linspace(-0.9, 0.9, 10).reshape(10, 1))
    assert time.perf_counter() - start < 1.0
    # phi(phi(x)), and M(x) M(phi(x))
    assert text.count("bump(") == 20 + 30 and residual == 0.0


# --------------------------------------------- common subexpressions

_UNARY = ("neg", "sin", "exp", "log", "sqrt", "estep", "square", "inverse")
_BINARY = ("add", "sub", "mul", "div", "atan2", "gate")


@st.composite
def expression_lists(draw):
    """Expression lists over x, y, z whose nodes reuse earlier subtrees,
    both as the same object and as an equal copy, with gates nested in
    gates (guards include the constant 0 and estep, which vanishes on
    half the line). Half of the lists end in six gates, one for each pair
    of distinct variables u, v, whose arm is log, sqrt or the inverse of
    v alone and whose guard estep(u) * estep(v) is 0.0 where the arm
    raises, so that they never raise: a split that took such an arm out
    of its gate, for a fixed v, would raise."""
    variables = [Var("x"), Var("y"), Var("z")]
    pool = variables + [Const(0.0), Const(draw(st.floats(-3.0, 3.0)))]
    for _ in range(draw(st.integers(1, 30))):
        a = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            op = draw(st.sampled_from(_UNARY))
            node = {"neg": ex.Neg(a), "square": ex.Pow(a, 2),
                    "inverse": ex.Pow(a, -1)}.get(op) or ex.Fun(op, (a,))
        else:
            b = draw(st.sampled_from(pool))
            op = draw(st.sampled_from(_BINARY))
            node = {"add": lambda: ex.Sum((a, b), "+"),
                    "sub": lambda: ex.Sum((a, b), "-"),
                    "mul": lambda: ex.Product((a, b), "*"),
                    "div": lambda: ex.Product((a, b), "/"),
                    "atan2": lambda: ex.Fun("atan2", (a, b)),
                    "gate": lambda: ex.Fun("gate", (a, b))}[op]()
        pool.append(node)
        if draw(st.booleans()):
            pool.append(substitute(node, {}))       # an equal copy
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=6))
    gates = []
    if draw(st.booleans()):
        arms = [draw(st.sampled_from([ex.Fun("log", (v,)),
                                      ex.Fun("sqrt", (v,)), ex.Pow(v, -1)]))
                for v in variables]
        gates = [ex.Fun("gate", (ex.Product((ex.Fun("estep", (u,)),
                                             ex.Fun("estep", (v,))), "*"),
                                 arm))
                 for v, arm in zip(variables, arms)
                 for u in variables if u is not v]
    return [pool[-1]] + [pool[i] for i in picks] + gates


def _outcome(fn):
    try:
        return [repr(v) for v in fn()]    # repr keeps -0.0 and nan apart
    except (ArithmeticError, ValueError):
        return "raises"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expression_lists(),
       st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.5, 3.0]),
                min_size=3, max_size=3))
# squares where x ** 2 is not x * x, and where it overflows
@example([parse("x^2", XYZ)], [-4.21389664506147, 0.0, 0.0])
@example([parse("x^2 + y", XYZ)], [1e200, 0.5, 0.0])
def test_common_subexpressions_compile_to_the_reference_values(exprs, point):
    env = dict(zip("xyz", point))
    fn = compile_exprs(exprs, ["x", "y", "z"])
    assert (_outcome(lambda: fn(*point))
            == _outcome(lambda: [tree_eval(e, env) for e in exprs]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expression_lists(), st.sets(st.integers(0, 2)),
       *[st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.5, 3.0]),
                  min_size=3, max_size=3)] * 2)
def test_a_split_body_computes_the_body(exprs, fixed, point, other):
    # pre reads only the fixed coordinates, so it takes them from point
    # and the others from anywhere; it computes only what every run of
    # the body computes, so it raises only where the body raises; and
    # rest, given pre's values, computes the body's
    def run(body, *args):
        return ex._function(body.params, body.lines, body.outs)(*args)

    body = compile_exprs(exprs, XYZ).body
    pre, rest = body.split(fixed)
    assert pre.params == 3 and rest.params == 3 + len(pre.outs)
    at = [point[i] if i in fixed else other[i] for i in range(3)]
    assert (_outcome(lambda: run(rest, *point, *run(pre, *at)))
            == _outcome(lambda: run(body, *point)))


def test_a_gates_arm_keeps_what_reads_only_fixed_parameters():
    # log(y) reads only the fixed y but runs only where estep(x) != 0, so
    # it stays in its arm: moved, it would raise at y < 0 where the body
    # returns 0.0. The guard, read every run, moves when it is fixed
    body = compile_exprs([ex.fun("gate", parse("estep(x)", XY),
                                 parse("log(y) * x", XY))], XY).body
    pre, rest = body.split([1])
    assert pre.outs == () and rest is body
    body = compile_exprs([ex.fun("gate", parse("estep(y)", XY),
                                 parse("log(y) * x", XY))], XY).body
    pre, rest = body.split([1])
    assert pre.outs == ("(0.0 if _v1 <= 0.0 else math.exp(-1.0 / _v1))",)
    assert "math.log(_v1)" in "".join(rest.lines + rest.outs)


def test_equal_subexpressions_parsed_apart_are_one_moved_value():
    # the two exp(y) are distinct nodes, and one value of the numbering:
    # pre computes it once, and rest reads it in both places; the leading
    # fixed operands y * 2 of a product are one root too
    exprs = [parse("exp(y) * x", XY), parse("x - exp(y)", XY),
             parse("y * 2 * x", XY)]
    assert exprs[0].args[0] is not exprs[1].args[1]
    fn = compile_exprs(exprs, XY)
    pre, rest = fn.body.split([1])
    assert pre.outs == ("math.exp(_v1)", "(_v1 * 2.0)")
    assert rest.lines == () and rest.outs == (
        "(_v2 * _v0)", "(_v0 - _v2)", "(_v3 * _v0)")
    run = ex._function
    moved = run(pre.params, pre.lines, pre.outs)(9.0, 0.5)
    assert run(rest.params, rest.lines, rest.outs)(1.5, 0.5, *moved) == fn(
        1.5, 0.5)


def _run(lines, **names):
    """The names that the source lines bind, run with the given ones."""
    env = {**ex.SOURCE_GLOBALS, **names}
    exec("\n".join(lines), env)
    return env


def test_inline_binds_an_argument_exactly_where_the_numbering_reads_it():
    # x is read as the guard, y only in the gate's arm and z nowhere: the
    # arguments of x and y that are not names are bound, z's is not, and
    # a name is read as itself
    guard, arm = parse("estep(x)", XYZ), parse("log(y) * 2", XYZ)
    fn = compile_exprs([ex.fun("gate", guard, arm), Const(1.0)], XYZ)
    lines = fn.body.inline(["a + 0.5", "b * 2.0", "c - 3.0"], ["o"], "q",
                           "")
    assert lines[:2] == ["_v0_q = a + 0.5", "_v1_q = b * 2.0"]
    assert not any(re.search(r"_v2|\bc\b", line) for line in lines[2:])
    for a in (-1.0, 1.0):           # the arm is skipped, then taken
        env = _run(lines, a=a, b=2.0, c=7.0)
        assert [env["o"]] == fn(a + 0.5, 4.0, 4.0)[:1]
    named = fn.body.inline(["a", "b", "c"], ["o", "p"], "q", "")
    assert not any(re.search(r"_q|\bc\b", line) for line in named)
    assert "p = 1.0" in named

    # the rest of a split reads its root exp(y) as the parameter _v2, and
    # y no more
    pre, rest = compile_exprs([parse("exp(y) * x", XY)], XY).body.split([1])
    lines = rest.inline(["a", "b + 1.0", "p + 0.5"], ["o"], "r", "")
    assert lines == ["_v2_r = p + 0.5", "o = (_v2_r * a)"]
    assert _run(lines, a=3.0, p=1.5)["o"] == 6.0


def test_inline_binds_no_argument_that_only_an_unwritten_out_reads():
    # the second value is the parameter x itself: with no target its line
    # is not written, so x's argument is not bound, unless a written line
    # reads it, its own or another value's
    copied = compile_exprs([parse("2 * y", ["y", "x"]), Var("x")],
                           ["y", "x"])
    assert copied.body.inline(["q", "x0 + h"], ["a"], "b", "") == [
        "a = (2.0 * q)"]
    assert copied.body.inline(["q", "x0 + h"], ["a", "e"], "b", "") == [
        "_v1_b = x0 + h", "a = (2.0 * q)", "e = _v1_b"]
    negated = compile_exprs([parse("2 * y", ["y", "x"]),
                             parse("-x", ["y", "x"])], ["y", "x"])
    assert negated.body.inline(["q", "x0 + h"], ["a"], "b", "") == [
        "a = (2.0 * q)"]
    read = compile_exprs([parse("2 * y * x", ["y", "x"]), Var("x")],
                         ["y", "x"])
    assert read.body.inline(["q", "x0 + h"], ["a"], "b", "") == [
        "_v1_b = x0 + h", "a = (2.0 * q * _v1_b)"]


def test_a_cache_hit_over_other_names_splits_and_plans_as_the_first(
        monkeypatch):
    # equal source compiled over other names finds the body of the first
    # compile, which splits from its kept numbering: no _Compiler again
    ex._function.cache_clear()
    first = compile_exprs([parse("exp(x1) * t + x1", ["t", "x1"]),
                           Var("x1"), Const(0.5), Var("t")], ["t", "x1"])
    parts = [(b.params, b.lines, b.outs) for b in first.body.split([1])]
    assert first.body.plan == ((None, None), (None, 1), (0.5, None),
                               (None, 0))
    made = []

    class Counted(ex._Compiler):
        def __init__(self, variables):
            made.append(variables)
            super().__init__(variables)

    monkeypatch.setattr(ex, "_Compiler", Counted)
    again = compile_exprs([parse("exp(y) * s + y", ["s", "y"]), Var("y"),
                           Const(0.5), Var("s")], ["s", "y"])
    assert again is first and made == [["s", "y"]]
    assert again.body.plan == first.body.plan
    assert [(b.params, b.lines, b.outs)
            for b in again.body.split([1])] == parts
    assert parts[0][2] == ("math.exp(_v1)",) and made == [["s", "y"]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expression_lists())
def test_printed_expressions_read_back_to_the_same_values(exprs):
    # reports write expressions with str(), built by the folding
    # constructors; read back, each must compute the same values. Not the
    # same tree: the negation of z / 0 prints as -z / 0, which parses as
    # the quotient of -z and 0
    for e in exprs:
        e = substitute(e, {})
        fn = compile_exprs([e], XYZ)
        again = compile_exprs([parse(str(e), XYZ)], XYZ)
        for point in ((-2.0, 0.5, 0.0), (0.5, 1.5, 3.0), (1.5, -0.5, 0.5)):
            assert (_outcome(lambda: again(*point))
                    == _outcome(lambda: fn(*point))), str(e)


def test_compilation_is_linear_in_the_expression_dag():
    # 60 levels of e -> e*e + e: a DAG of 121 nodes, a tree of 3^60
    e = Var("x")
    for _ in range(60):
        e = ex.add(ex.mul(e, e), e)
    fn = compile_exprs([e], ["x"])
    v = 0.01
    for _ in range(60):
        v = v * v + v
    assert fn(0.01) == [v]


def test_a_repeated_subexpression_is_evaluated_once(monkeypatch):
    # estep is written inline, so count the exp calls of compiled code:
    # each estep of a positive argument makes one
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def exp(v):
            calls.append(v)
            return math.exp(v)

    monkeypatch.setitem(ex._COMPILE_GLOBALS, "math", CountingMath())
    # the twisted cylinder's four gated coefficients all read nu(h), a
    # bump with two esteps
    fc = ExampleConnection(1.0 / 3.0)
    fn = compile_exprs([e for row in fc.M for e in row], fc.source.coords)
    values = fn(0.6, 0.8, 1.0, 0.0, 0.1)
    assert len(calls) == 2
    assert values == fc.M_at([0.6, 0.8, 1.0, 0.0, 0.1]).reshape(-1).tolist()
    # equal subtrees parsed apart are separate objects, and still shared:
    # one exp for the estep, one for exp(estep(..))
    calls.clear()
    e = parse("estep(x + y) * 2 + exp(estep(x + y))", XY)
    assert compile_exprs([e, parse("estep(x + y)", XY)], XY)(0.5, 0.5) \
        == [tree_eval(e, {"x": 0.5, "y": 0.5}), math.exp(-1.0)]
    assert len(calls) == 2


def test_estep_of_the_smallest_subnormal_is_zero():
    # -1.0 / 5e-324 is -inf, not an error, and exp(-inf) is 0.0
    e = parse("estep(x)", ["x"])
    assert ex.fun("estep", Const(5e-324)) == Const(0.0)        # folded
    assert compile_exprs([e], ["x"])(5e-324) == [0.0]
    fn = compile_exprs([parse("estep(x1)", ["t", "x1"])], ["t", "x1"])
    traj = flow(VectorFieldTD(1, fn), [5e-324], (0.0, 1.0), step=0.25)
    assert traj.completed and traj.points.ravel().tolist() == [5e-324] * 5


def test_estep_is_written_inline_and_a_shared_guard_tested_once():
    fc = ExampleConnection(1.0 / 3.0)
    lines = fc._lift_field.body.lines
    assert not any("_estep" in line for line in lines)
    assert sum(line.lstrip().startswith("if ") for line in lines) == 1


def test_the_twisted_cylinders_partials_test_no_constant_guard():
    # each coefficient is gate(nu(h), e), whose partial in x has the term
    # gate(d nu / dx, e) with the guard d nu / dx = 0: folded, not
    # compiled as a block under "if 0.0 == 0.0:"
    lines = ExampleConnection(1.0 / 3.0).M_map._jac_fn.body.lines
    assert not any("0.0 ==" in line for line in lines)


def test_shared_gate_arms_stay_guarded():
    # the arms of both gates share 1/x but must not run when estep(x) == 0
    g = parse("estep(x)", XY)
    inv = parse("1 / x", XY)
    exprs = [ex.fun("gate", g, inv),
             ex.fun("gate", g, ex.mul(inv, Var("y"))),
             ex.fun("gate", parse("estep(y)", XY), inv)]
    fn = compile_exprs(exprs, XY)
    assert fn(0.0, -1.0) == [0.0, 0.0, 0.0]
    assert fn(-1.0, -1.0) == [0.0, 0.0, 0.0]
    with pytest.raises(ZeroDivisionError):
        fn(0.0, 1.0)                  # estep(y) != 0 opens the third arm
    assert fn(0.5, 2.0) == [tree_eval(e, {"x": 0.5, "y": 2.0})
                            for e in exprs]


def test_a_gate_of_its_own_guard_with_an_empty_arm_is_a_conditional():
    # such a gate is the expression (0.0 if g == 0.0 else g * e): inline
    # where it is read once, else named; gates sharing a guard keep one
    # block, so that the guard is tested once for all of them
    g, inv = parse("estep(x)", XY), parse("1 / x", XY)
    fn = compile_exprs([ex.mul(ex.fun("gate", g, inv), Var("y"))], XY)
    assert fn.body.outs == ("((0.0 if _t1 == 0.0 else _t1 * (1.0 / _v0))"
                            " * _v1)",)
    lone = ex.fun("gate", g, ex.fun("log", Var("y")))
    fn = compile_exprs([lone, ex.mul(lone, Var("x"))], XY)
    assert fn.body.lines[-1] == (
        "    _t2 = (0.0 if _t1 == 0.0 else _t1 * math.log(_v1))")
    assert fn(-1.0, -1.0) == [0.0, 0.0]         # log(-1) never evaluated
    with pytest.raises(ValueError):
        fn(1.0, -1.0)
    shared = [ex.fun("gate", g, inv), ex.fun("gate", g, Var("y"))]
    lines = compile_exprs(shared, XY).body.lines
    assert sum(line.lstrip().startswith("if ") for line in lines) == 1
    assert not any(" if _t1 == 0.0 else" in line for line in lines)


def test_non_finite_constants_compile():
    fn = compile_exprs([Const(math.inf), Const(-math.inf), Const(math.nan)],
                       ["x"])
    a, b, c = fn(0.0)
    assert a == math.inf and b == -math.inf and math.isnan(c)


def test_a_square_folds_and_compiles_as_the_product():
    # glibc's pow gives x ** 2 = 17.75692493526031, an ulp low; x * x is
    # the correctly rounded 17.756924935260315, and a folded square agrees
    # with a compiled one
    x = -4.21389664506147
    assert ex.pow_(Const(x), 2) == Const(17.756924935260315)
    fn = compile_exprs([parse("x1^2", ["x1"])], ["x1"])
    assert fn(x) == [17.756924935260315]


def _bits(v):
    """v's bits, with every nan alike."""
    return "nan" if v != v else struct.pack("<d", v)


# doubles that include both zeros, both infinities, subnormals and values
# whose square is near the overflow threshold
EDGE_DOUBLES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, -1.1e-308, 1.3407807929942596e154,
                -1.3407807929942597e154, 1.7976931348623157e308, -1e300]
doubles = st.one_of(st.floats(), st.sampled_from(EDGE_DOUBLES))
negatives = st.one_of(
    st.floats(max_value=-5e-324, allow_infinity=False),
    st.sampled_from([-5e-324, -1.0, -1.7976931348623157e308]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doubles, doubles, negatives)
def test_squares_and_sign_rewrites_are_exact(x, y, c):
    # compiled x1^2 is the product x * x, the correctly rounded square
    # (inf past the overflow threshold); x1 - c and x1 + c are written
    # with |c| and the flipped sign, and a factor -1.0 as a negation: each
    # gives the bits of the unrewritten float operations
    x1, e = Var("x1"), ex.add(Var("x1"), Var("x2"))
    fn = compile_exprs([ex.pow_(x1, 2), ex.sub(x1, Const(c)),
                        ex.add(x1, Const(c)), ex.mul(Const(-1.0), e),
                        ex.mul(e, Const(-1.0))], ["x1", "x2"])
    src = "\n".join(fn.body.lines + fn.body.outs)
    assert "**" not in src and not re.search(r"\(-\d", src)
    expected = [x * x, x - c, x + c, -1.0 * (x + y), (x + y) * -1.0]
    assert list(map(_bits, fn(x, y))) == list(map(_bits, expected))
    if math.isfinite(x):
        try:
            square = float(Fraction(x) ** 2)
        except OverflowError:
            square = math.inf
        assert _bits(x * x) == _bits(square)


def test_evaluate_stacks_the_values_of_each_point():
    fn = compile_exprs([parse(s, XY) for s in ("x + y", "x * y", "-x", "y")],
                       XY)
    pts = [[1.0, 2.0], [0.5, -3.0], [0.0, 0.25]]
    got = ex.evaluate(fn, pts, (2, 2))
    assert got.shape == (3, 2, 2)
    assert got.reshape(3, 4).tolist() == [fn(*p) for p in pts]
    assert ex.evaluate(fn, pts[1], (2, 2)).tolist() == [[-2.5, -1.5],
                                                       [-0.5, -3.0]]
    assert ex.evaluate(fn, [[1.0, 2.0]], (4,)).shape == (1, 4)
    assert ex.evaluate(fn, [[1.0, 2.0]] * 4, (4, 1)).shape == (4, 4, 1)
    for shape in ((4,), (2, 2)):
        empty = ex.evaluate(fn, np.empty((0, 2)), shape)
        assert empty.shape == (0, *shape) and empty.dtype == float


def counted(fn):
    """fn as a function that also records the arguments of each call (its
    `body` kept), and the list it records them in."""
    calls = []

    @functools.wraps(fn)
    def f(*args):
        calls.append(args)
        return fn(*args)

    return f, calls


@pytest.mark.parametrize("N", [0, 1, 9801])
def test_a_constant_map_on_a_stack_is_its_values_at_every_point(N):
    # one call gives the rows of all N points, with the bits of N calls
    consts = [Const(-0.0), Const(1.0), Const(5e-324), Const(-2.5)]
    fn, calls = counted(compile_exprs(consts, XY))
    pts = np.random.default_rng(N).normal(size=(N, 2))
    want = np.array([compile_exprs(consts, XY)(*p) for p in pts.tolist()],
                    dtype=float).reshape(N, 2, 2)
    got = ex.evaluate(fn, pts, (2, 2))
    assert got.shape == (N, 2, 2) and got.tobytes() == want.tobytes()
    assert len(calls) == min(N, 1)


def test_a_map_with_a_value_that_is_not_constant_is_called_at_every_point():
    fn, calls = counted(compile_exprs([Const(1.0), parse("x * y", XY)], XY))
    pts = np.random.default_rng(0).normal(size=(50, 2))
    got = ex.evaluate(fn, pts, (2,))
    assert calls == list(map(tuple, pts.tolist()))
    assert got.tolist() == [[1.0, x * y] for x, y in pts.tolist()]


@pytest.mark.parametrize("value, calls_at_3", [
    (Const(1.5), 1), (ex.Fun("sin", (Const(1.0),)), 3)])
def test_a_map_over_a_point_evaluates_at_a_stack(value, calls_at_3):
    # a stack of points in R^0 has no coordinate columns to map over
    plain = compile_exprs([value], [])
    fn, calls = counted(plain)
    for N in (0, 1, 3):
        calls.clear()
        got = ex.evaluate(fn, np.zeros((N, 0)), (1,))
        assert got.tolist() == [plain()] * N
    assert len(calls) == calls_at_3
    assert ex.SmoothMap([], [[value]]).eval_unchecked(
        np.zeros((2, 0))).shape == (2, 1, 1)


@pytest.mark.parametrize("negated_first", [True, False])
def test_a_negated_number_is_constant_in_either_compile_order(negated_first):
    # Neg(Const(2.5)) and Const(-2.5) compile to the one source (-2.5);
    # whichever compile of it comes first, the body plans the number, and
    # a stack of points is evaluated by one call
    ex._function.cache_clear()
    forms = [[ex.Neg(Const(2.5))], [Const(-2.5)]]
    fns = [compile_exprs(f, XY)
           for f in (forms if negated_first else forms[::-1])]
    assert fns[0] is fns[1] and fns[0].body.outs == ("(-2.5)",)
    assert fns[0].body.plan == ((-2.5, None),)
    fn, calls = counted(fns[0])
    got = ex.evaluate(fn, np.random.default_rng(1).normal(size=(9801, 2)),
                      ())
    assert len(calls) == 1 and got.shape == (9801,)
    assert (got == -2.5).all()
    # -(-2.5) is written as a negation, which the plan does not read
    assert compile_exprs([ex.Neg(Const(-2.5))], XY).body.plan == (
        (None, None),)


@pytest.mark.parametrize("shape", [(3,), (5,), (2, 3), ()])
def test_evaluate_refuses_a_shape_of_another_size(shape):
    fn = compile_exprs([parse(s, XY) for s in ("x", "y", "x + y", "x * y")],
                       XY)
    for pts in ([1.0, 2.0], [[1.0, 2.0]], [[1.0, 2.0]] * 3):
        with pytest.raises(ValueError):
            ex.evaluate(fn, pts, shape)
