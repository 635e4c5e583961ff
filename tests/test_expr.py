import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algpaths import expr as ex
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
    a gate's e only where g != 0.0. Compiled functions must return the
    same floats, and raise where this raises."""
    cls = type(e)
    if cls is Const:
        return e.value
    if cls is Var:
        return env[e.name]
    if cls is ex.Gate:
        g = tree_eval(e.g, env)
        return 0.0 if g == 0.0 else g * tree_eval(e.e, env)
    a = tree_eval(e.a, env)
    if cls is ex.Neg:
        return -a
    if cls is ex.Pow:
        return a ** e.n
    if cls is ex.Fun1:
        if e.name == "estep":
            return 0.0 if a <= 0.0 else math.exp(-1.0 / a)
        return getattr(math, e.name)(a)
    return {ex.Add: operator.add, ex.Sub: operator.sub, ex.Mul: operator.mul,
            ex.Div: operator.truediv, ex.Atan2: math.atan2}[cls](
                a, tree_eval(e.b, env))


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
    g = ex.Gate(parse("estep(x)", XY), parse("log(x)", XY))
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


# --------------------------------------------- common subexpressions

_UNARY = ("neg", "sin", "exp", "log", "sqrt", "estep", "square", "inverse")
_BINARY = ("add", "sub", "mul", "div", "atan2", "gate")


@st.composite
def expression_lists(draw):
    """Expression lists over x, y, z whose nodes reuse earlier subtrees,
    both as the same object and as an equal copy, with gates nested in
    gates (guards include the constant 0 and estep, which vanishes on
    half the line)."""
    pool = [Var("x"), Var("y"), Var("z"), Const(0.0),
            Const(draw(st.floats(-3.0, 3.0)))]
    for _ in range(draw(st.integers(1, 30))):
        a = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            op = draw(st.sampled_from(_UNARY))
            node = {"neg": ex.Neg(a), "square": ex.Pow(a, 2),
                    "inverse": ex.Pow(a, -1)}.get(op) or ex.Fun1(op, a)
        else:
            b = draw(st.sampled_from(pool))
            op = draw(st.sampled_from(_BINARY))
            node = {"add": ex.Add, "sub": ex.Sub, "mul": ex.Mul,
                    "div": ex.Div, "atan2": ex.Atan2, "gate": ex.Gate}[op](a, b)
        pool.append(node)
        if draw(st.booleans()):
            pool.append(substitute(node, {}))       # an equal copy
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=6))
    return [pool[-1]] + [pool[i] for i in picks]


def _outcome(fn):
    try:
        return [repr(v) for v in fn()]    # repr keeps -0.0 and nan apart
    except (ArithmeticError, ValueError):
        return "raises"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expression_lists(),
       st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.5, 3.0]),
                min_size=3, max_size=3))
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expression_lists())
def test_printed_expressions_read_back_to_the_same_values(exprs):
    # reports write expressions with str(), built by the folding
    # constructors; read back, each must compute the same values. Not the
    # same tree: Neg(Div(z, 0)) prints as -z / 0, which parses as
    # Div(Neg(z), 0)
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


def test_shared_gate_arms_stay_guarded():
    # the arms of both gates share 1/x but must not run when estep(x) == 0
    g = parse("estep(x)", XY)
    inv = parse("1 / x", XY)
    exprs = [ex.Gate(g, inv), ex.Gate(g, ex.mul(inv, Var("y"))),
             ex.Gate(parse("estep(y)", XY), inv)]
    fn = compile_exprs(exprs, XY)
    assert fn(0.0, -1.0) == [0.0, 0.0, 0.0]
    assert fn(-1.0, -1.0) == [0.0, 0.0, 0.0]
    with pytest.raises(ZeroDivisionError):
        fn(0.0, 1.0)                  # estep(y) != 0 opens the third arm
    assert fn(0.5, 2.0) == [tree_eval(e, {"x": 0.5, "y": 2.0})
                            for e in exprs]


def test_non_finite_constants_compile():
    fn = compile_exprs([Const(math.inf), Const(-math.inf), Const(math.nan)],
                       ["x"])
    a, b, c = fn(0.0)
    assert a == math.inf and b == -math.inf and math.isnan(c)


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


@pytest.mark.parametrize("shape", [(3,), (5,), (2, 3), ()])
def test_evaluate_refuses_a_shape_of_another_size(shape):
    fn = compile_exprs([parse(s, XY) for s in ("x", "y", "x + y", "x * y")],
                       XY)
    for pts in ([1.0, 2.0], [[1.0, 2.0]], [[1.0, 2.0]] * 3):
        with pytest.raises(ValueError):
            ex.evaluate(fn, pts, shape)
