import math

import pytest
from hypothesis import given, settings, strategies as st

from algpaths import expr as ex
from algpaths.algebroid import LieAlgebroid
from algpaths.ehresmann import FlatConnection
from algpaths.expr import (Const, DomainError, ParseError, SmoothMap, Var,
                           compile_exprs, differentiate, parse, substitute)
from algpaths.poisson import PoissonManifold

XY = ["x", "y"]


def d(source, var="x", variables=XY):
    return differentiate(parse(source, variables), var)


def val(e, **point):
    fn = compile_exprs([e], sorted(point))
    return fn(*[point[k] for k in sorted(point)])[0]


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
        fn = compile_exprs([e, differentiate(e, "x")], XY)
        lo = fn(x - h, y)[0]
        hi = fn(x + h, y)[0]
        fd = (hi - lo) / (2 * h)
        sym = fn(x, y)[1]
        assert sym == pytest.approx(fd, rel=1e-5, abs=1e-5), s


# -------------------------------------------------- smooth primitives

def test_estep_is_flat_at_zero_and_smooth():
    f = parse("estep(x)", XY)
    fn = compile_exprs([f, differentiate(f, "x")], XY)
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
    e = differentiate(parse("estep(-x)", XY), "x")
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


def test_smooth_map_domain_errors_mean_outside():
    m = SmoothMap.from_strings(["x"], ["x"], domain_sources=["log(x)"])
    assert not m.in_domain([-1.0])     # log raises -> outside, not crash
    assert m.in_domain([math.e])


@pytest.mark.parametrize("owner", [
    lambda dom: LieAlgebroid(1, 1, [[1.0]], {}, domain=dom),
    lambda dom: PoissonManifold(1, {}, domain=dom),
    lambda dom: FlatConnection(["x1"], [Var("x1")], [[1.0]], domain=dom),
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
    ref = e.eval({"x": x})
    assert fn(x)[0] == pytest.approx(ref, rel=1e-14, abs=1e-14)
