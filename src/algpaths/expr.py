"""Scalar expressions in named coordinates: parsing, exact symbolic
differentiation, and compilation to fast python callables, the one way an
expression is evaluated (`compile_exprs`).

The grammar is a conventional precedence-climbing calculator grammar over
+, -, *, /, integer ^, unary minus, parentheses, numbers, named variables
and a fixed set of smooth functions:

    sin cos tan exp log sqrt atan2 estep gate bump

estep(t) is exp(-1/t) for t > 0 and 0 otherwise (smooth, not analytic).
gate(g, e) is the product g*e except that e is not evaluated when g
evaluates to exactly 0.0; its derivative is gate(g',e) + gate(g,e').
bump(a, b, t) is exp(4)*estep(s)*estep(1-s) with s=(t-a)/(b-a), supported
on [a,b] and equal to 1 at the midpoint; it stays one node, bump(a, b, t),
compiled as that expansion and differentiated through its slope: its
partial is gate(slope(s), ds), with one slope node per bump. A sum or a
product is one flat chain of its operands, evaluated left to right.

'^' takes an integer literal exponent and binds tighter than unary minus,
so -x^2 parses as -(x^2). Everything is immutable after construction.
"""

import functools
import itertools
import math
import re
from collections import namedtuple

import numpy as np


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Raised on malformed input; .offset is the byte offset in the source."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(ExprError):
    """A domain predicate failed at an evaluation point."""


# ---------------------------------------------------------------- nodes ---

class Expr:
    """A node of an expression DAG: `args` are its subexpressions, in
    evaluation order, and a subexpression may be shared; `d`, `variables`
    and `substitute` visit a shared node once per call. `_rebuild(f)` is
    the node over f of each argument, built by the folding constructors;
    `_parts()`, of all but chains, the node's Python source as a format
    string over its arguments' sources, and those arguments."""

    __slots__ = ("_hash",)
    args = ()

    # printing precedences: Sum 1, Neg 1.5, Product 2, Pow 4, atoms 5
    prec = 5

    def __eq__(self, other):
        return self is other or (type(self) is type(other)
                                 and hash(self) == hash(other)
                                 and self._key() == other._key())

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((type(self).__name__, self._key()))
            return h

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"

    def _key(self):
        return self.args

    def d(self, var):
        """The exact partial derivative in var. The partial of each node
        that is identically zero is Const(0.0), never -0.0, which a sign
        flip of a zero (in -x or in cos's rule) would give: adding 0.0
        folds -0.0 to 0.0 and leaves any other partial as it is."""
        return _memoized(lambda e, D: add(e._d(var, D), Const(0.0)))(self)

    def _d(self, var, D):
        return self._rebuild(D)

    def variables(self):
        out, seen, todo = set(), set(), list(self.args)
        if type(self) is Var:
            out.add(self.name)
        while todo:
            e = todo.pop()
            if type(e) is Var:
                out.add(e.name)
            elif e.args and id(e) not in seen:
                seen.add(id(e))
                todo += e.args
        return out


def _memoized(rule):
    """e -> rule(e, itself), computed once per node: the memo of one walk
    over a DAG. It keeps the nodes it saw, so their ids stay theirs."""
    memo = {}

    def f(e):
        hit = memo.get(id(e))
        if hit is None:
            hit = memo[id(e)] = (e, rule(e, f))
        return hit[1]

    return f


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def _key(self):
        return self.value

    def _d(self, var, D):
        return Const(0.0)

    def __str__(self):
        # -0.0 prints as its repr, so that it reads back with its sign
        if math.isfinite(self.value) and self.value == int(self.value) \
                and abs(self.value) < 1e16 and str(self.value) != "-0.0":
            return str(int(self.value))
        return repr(self.value)

    def _rebuild(self, f):
        return self


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def _key(self):
        return self.name

    def _d(self, var, D):
        return Const(1.0 if self.name == var else 0.0)

    def __str__(self):
        return self.name


class _Chain(Expr):
    """args[0], then each further operand applied with its operator in
    `ops`, left to right: the left-deep tree of binary operations the
    folding constructors build, kept flat. A first operand of the chain's
    own kind continues the chain, so each such tree has one form."""

    __slots__ = ("args", "ops")

    def __init__(self, args, ops):
        if type(args[0]) is type(self):
            args, ops = args[0].args + tuple(args[1:]), args[0].ops + ops
        self.args = tuple(args)
        self.ops = ops

    def _key(self):
        return (self.args, self.ops)

    def __str__(self):
        return _paren(self.args[0], self.prec, left=True) + "".join(
            f" {op} {_paren(a, self.prec, left=False)}"
            for op, a in zip(self.ops, self.args[1:]))

    def _rebuild(self, f):
        acc = f(self.args[0])
        for op, a in zip(self.ops, self.args[1:]):
            acc = _FOLD[op](acc, f(a))
        return acc


class Sum(_Chain):
    __slots__ = ()
    prec = 1


class Product(_Chain):
    __slots__ = ()
    prec = 2

    def _d(self, var, D):
        # (p * b)' = p'b + pb' and (p / b)' = (p'b - pb')/b^2 for each
        # prefix p, as the binary tree the chain stands for is derived
        p, acc = self.args[0], D(self.args[0])
        for k, (op, b) in enumerate(zip(self.ops, self.args[1:]), 1):
            if op == "*":
                acc = add(mul(acc, b), mul(p, D(b)))
            else:
                acc = div(sub(mul(acc, b), mul(p, D(b))), pow_(b, 2))
            p = Product(self.args[:k + 1], self.ops[:k])
        return acc


class Neg(Expr):
    __slots__ = ("args",)
    prec = 1.5

    def __init__(self, a):
        self.args = (a,)

    def __str__(self):
        # a sign binds tighter than * and /: -(x * y) is not -x * y
        return f"-{_paren(self.args[0], Product.prec, left=False)}"

    def _parts(self):
        return _NEG, self.args

    def _rebuild(self, f):
        return neg(f(self.args[0]))


class Pow(Expr):
    """Integer power; the exponent is a plain int, not a subexpression."""

    __slots__ = ("args", "n")
    prec = 4

    def __init__(self, a, n):
        self.args = (a,)
        self.n = int(n)

    def _key(self):
        return (self.args, self.n)

    def _d(self, var, D):
        a = self.args[0]
        return mul(mul(Const(self.n), pow_(a, self.n - 1)), D(a))

    def __str__(self):
        return f"{_paren(self.args[0], self.prec, left=True)}^{self.n}"

    def _parts(self):
        # a * a is the correctly rounded square; a ** 2, libm's pow, is not
        if self.n == 2:
            return _OPS["*"], self.args * 2
        return f"({{0}} ** {self.n})", self.args

    def _rebuild(self, f):
        return pow_(f(self.args[0]), self.n)


class Fun(Expr):
    """A named function of its arguments: a row of `FUNCTIONS`. A bump
    is compiled as its `expansion` and differentiated through its `slope`,
    d bump / ds at its `s` (see `_bump`), all three built with the node:
    each partial is gate(slope, ds), so the partials in every variable
    share the one slope, and each is +0.0 outside the support."""

    __slots__ = ("name", "args", "expansion", "s", "slope")

    def __init__(self, name, args):
        self.name = name
        self.args = tuple(args)
        if name == "bump":
            self.expansion, self.s, self.slope = _bump(*self.args)

    def _key(self):
        return (self.name, self.args)

    def _d(self, var, D):
        if self.name == "bump":
            # gated, not multiplied: +0.0 outside the support, where slope
            # is 0.0, whatever the sign of ds
            return fun("gate", self.slope, D(self.s))
        return FUNCTIONS[self.name].d(*self.args, *map(D, self.args))

    def __str__(self):
        return f"{self.name}({', '.join(map(str, self.args))})"

    def _parts(self):
        args = (self.expansion,) if self.name == "bump" else self.args
        return FUNCTIONS[self.name].template, args

    def _rebuild(self, f):
        return fun(self.name, *map(f, self.args))


def _paren(child, parent_prec, left):
    # a left operand as tight as its parent continues its chain unwrapped
    if child.prec < parent_prec or (not left and child.prec == parent_prec):
        return f"({child})"
    return str(child)


def as_expr(v):
    """v as an Expr: Exprs pass through, ints and floats become Consts."""
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(v)
    raise TypeError(f"cannot use {type(v).__name__} in an expression")


def point(x):
    """A point as a tuple of plain floats (not numpy reprs), for messages."""
    return tuple(float(v) for v in x)


# --------------------------------------------- folding smart constructors --

def _const(e):
    return e.value if isinstance(e, Const) else None


def add(a, b):
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None and math.isfinite(ca + cb):
        return Const(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return Sum((a, b), "+")


def sub(a, b):
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None and math.isfinite(ca - cb):
        return Const(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return neg(b)
    return Sum((a, b), "-")


def mul(a, b):
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None and math.isfinite(ca * cb):
        return Const(ca * cb)
    if ca == 0.0 or cb == 0.0:
        return Const(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    return Product((a, b), "*")


def dot(us, vs):
    """sum_k us[k] * vs[k], folded left to right from Const(0.0) with the
    folding constructors: the expression a plain loop over k builds."""
    acc = Const(0.0)
    for u, v in zip(us, vs):
        acc = add(acc, mul(u, v))
    return acc


def div(a, b):
    ca, cb = _const(a), _const(b)
    if cb is not None and cb != 0.0:
        if ca is not None and math.isfinite(ca / cb):
            return Const(ca / cb)
        if cb == 1.0:
            return a
    if ca == 0.0 and cb != 0.0:
        return Const(0.0)
    return Product((a, b), "/")


# the folding constructor of each chain operator
_FOLD = {"+": add, "-": sub, "*": mul, "/": div}


def neg(a):
    ca = _const(a)
    if ca is not None:
        return Const(-ca)
    if isinstance(a, Neg):
        return a.args[0]
    return Neg(a)


def pow_(a, n):
    n = int(n)
    if n == 0:
        return Const(1.0)
    if n == 1:
        return a
    ca = _const(a)
    if ca is not None and not (ca == 0.0 and n < 0):
        try:
            v = ca * ca if n == 2 else ca ** n     # as a square compiles
        except OverflowError:
            v = math.inf
        if math.isfinite(v):
            return Const(v)
    return Pow(a, n)


def _bump(a, b, t):
    """bump(a, b, t) as it is computed, exp(4) * estep(s) * estep(1 - s)
    with s = (t - a) / (b - a), folded; s; and the slope d bump / ds,
    exp(4) * (estep'(s) * estep(1 - s) - estep(s) * estep'(1 - s)), each
    estep' the gated derivative of estep's row."""
    s = div(sub(t, a), sub(b, a))
    u = sub(Const(1.0), s)
    c, es, eu = fun("exp", Const(4.0)), fun("estep", s), fun("estep", u)
    d_estep = FUNCTIONS["estep"].d
    slope = mul(c, sub(mul(d_estep(s, Const(1.0)), eu),
                       mul(es, d_estep(u, Const(1.0)))))
    return mul(mul(c, es), eu), s, slope


def fun(name, *args):
    """Build a function application with constant folding."""
    if name == "gate":
        # 0.0 when either factor is a constant 0, as `mul` folds one
        return (Const(0.0) if 0.0 in (_const(args[0]), _const(args[1]))
                else Fun(name, args))
    if name == "bump":
        f = Fun(name, args)
        return f.expansion if isinstance(f.expansion, Const) else f
    if all(isinstance(a, Const) for a in args):
        z = [a.value for a in args]
        try:
            # as compiled: -1.0 / z at a subnormal z is -inf, not an error
            v = ((0.0 if z[0] <= 0.0 else math.exp(-1.0 / z[0]))
                 if name == "estep" else getattr(math, name)(*z))
            if math.isfinite(v):
                return Const(v)
        except (ValueError, OverflowError):
            pass
    return Fun(name, args)


# A row of FUNCTIONS: the number of arguments; the levels (see MAX_DEPTH)
# its compiled source nests; that source, a format string over its
# arguments' sources (None for a gate, written so that it evaluates e only
# where g != 0.0; a bump is its expansion, "{0}"); and its derivative, of
# its arguments followed by theirs (None for a bump, which `Fun` derives
# through its slope).
Function = namedtuple("Function", "arity levels template d")


def _math(name, d):
    """The row of the function math.name of one argument."""
    return Function(1, 1, f"math.{name}({{0}})", d)


# estep(z) written inline: {0} is z, {1} a name that holds it
_ESTEP = "(0.0 if {0} <= 0.0 else math.exp(-1.0 / {1}))"

FUNCTIONS = {
    "sin": _math("sin", lambda u, du: mul(Fun("cos", (u,)), du)),
    "cos": _math("cos", lambda u, du: neg(mul(Fun("sin", (u,)), du))),
    "tan": _math("tan", lambda u, du: mul(
        add(Const(1.0), pow_(Fun("tan", (u,)), 2)), du)),
    "exp": _math("exp", lambda u, du: mul(Fun("exp", (u,)), du)),
    "log": _math("log", lambda u, du: div(du, u)),
    "sqrt": _math("sqrt", lambda u, du: div(
        du, mul(Const(2.0), Fun("sqrt", (u,))))),
    # two levels, as := names the argument; d/dt exp(-1/t) =
    # exp(-1/t)/t^2, the gate keeping 1/t^2 unevaluated wherever estep is
    # identically zero
    "estep": Function(1, 2, _ESTEP, lambda u, du: mul(Fun("gate", (
        Fun("estep", (u,)), div(Const(1.0), pow_(u, 2)))), du)),
    # d atan2(y, x) = (y' x - y x') / (x^2 + y^2)
    "atan2": Function(2, 1, "math.atan2({0}, {1})",
                      lambda y, x, dy, dx: div(sub(mul(dy, x), mul(y, dx)),
                                               add(pow_(x, 2), pow_(y, 2)))),
    "gate": Function(2, 1, None, lambda g, e, dg, de: add(
        fun("gate", dg, e), fun("gate", g, de))),
    # six levels: the product, an estep, 1 - s, s and t - a
    "bump": Function(3, 6, "{0}", None),
}


# --------------------------------------------------------------- parsing ---

def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):    # 1.2.3, or 1e400: "inf" in str()
                raise ParseError(f"bad number {text!r}", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


# Deepest expression that `parse` accepts, in levels: the parentheses its
# compiled source nests. A sign, power or group is one, a sum one however
# long, a product one per operator (its derivative nests once per factor)
# and a call its function's `levels`. CPython refuses source nested 200
# parentheses deep, as a composite of two maps 100 levels deep is.
MAX_DEPTH = 64
# Longest sum or product that `parse` accepts, in terms: CPython compiles
# a chain by recursing once per operator, and fails near 3000 terms.
MAX_TERMS = 1000


class _Parser:
    """Recursive descent; each method returns the Expr it read and its
    depth in levels (see MAX_DEPTH), 0 for a leaf."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.groups = 0         # parenthesised groups and calls open

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def deeper(self, depth, offset, levels=1):
        """depth + levels, refused past MAX_DEPTH at the source offset."""
        if depth + levels > MAX_DEPTH:
            raise ParseError(f"expression nested more than {MAX_DEPTH} "
                             f"levels deep", offset)
        return depth + levels

    def parse(self):
        e = self.expr()[0]
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return e

    def expr(self):
        return self.chain(self.term, "+-")

    def term(self):
        return self.chain(self.unary, "*/")

    def chain(self, operand, ops):
        """A sum (ops "+-") or product ("*/") of operands, folded left to
        right: one level for a sum, one per operator for a product."""
        e, depth = operand()
        inner = depth
        while self.peek()[0] in ops:
            op, _, offset = self.take()
            rhs, d = operand()
            e = _FOLD[op](e, rhs)
            if isinstance(e, _Chain) and len(e.args) > MAX_TERMS:
                raise ParseError(f"sum or product of more than {MAX_TERMS} "
                                 f"terms", offset)
            inner = max(inner, d)
            depth = self.deeper(max(depth, d) if ops == "*/" else inner,
                                offset)
        return e, depth

    def unary(self):
        signs = []          # a loop, not a recursion per sign
        while self.peek()[0] == "-":
            signs.append(self.take()[2])
        e, depth = self.power()
        for offset in reversed(signs):
            e, depth = neg(e), self.deeper(depth, offset)
        return e, depth

    def power(self):
        e, depth = self.atom()
        while self.peek()[0] == "^":
            offset = self.take()[2]
            negate = self.peek()[0] == "-"
            if negate:
                self.take()
            tok = self.take()
            if tok[0] != "num" or tok[1] != int(tok[1]):
                raise ParseError("exponent must be an integer literal", tok[2])
            e = pow_(e, -int(tok[1]) if negate else int(tok[1]))
            depth = self.deeper(depth, offset)
        return e, depth

    def atom(self):
        kind, value, offset = self.take()
        if kind == "num":
            return Const(value), 0
        if kind == "(":
            # a group opens a level before it is read, which bounds the
            # recursion
            self.groups = self.deeper(self.groups, offset)
            e, depth = self.expr()
            closing = self.take()
            if closing[0] != ")":
                raise ParseError("unbalanced parentheses", closing[2])
            self.groups -= 1
            return e, self.deeper(depth, offset)
        if kind == "name":
            if self.peek()[0] == "(":
                return self.call(value, offset)
            if value in self.variables:
                return Var(value), 0
            raise ParseError(f"unknown identifier {value!r}", offset)
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected {value!r}", offset)

    def call(self, name, offset):
        row = FUNCTIONS.get(name)
        if row is None:
            raise ParseError(f"unknown function {name!r}", offset)
        self.take()                                 # the "("
        self.groups = self.deeper(self.groups, offset)
        e, depth = self.expr()
        args = [e]
        while self.peek()[0] == ",":
            self.take()
            e, d = self.expr()
            args.append(e)
            depth = max(depth, d)
        closing = self.take()
        if closing[0] != ")":
            raise ParseError("unbalanced parentheses", closing[2])
        self.groups -= 1
        if len(args) != row.arity:
            raise ParseError(f"{name} takes {row.arity} argument(s), got "
                             f"{len(args)}", offset)
        return fun(name, *args), self.deeper(depth, offset, row.levels)


def parse(source, variables):
    """Parse source text over the given variable names into an Expr."""
    if not variables:
        raise ValueError("variables must be a nonempty list of names")
    _distinct(variables)
    if not source.strip():
        raise ParseError("empty input", 0)
    return _Parser(_tokenize(source), set(variables)).parse()


def _distinct(variables):
    """The variable names; ValueError if a name repeats."""
    if len(set(variables)) != len(variables):
        raise ValueError(f"variable names must be distinct, got {variables}")
    return variables


def substitute(e, mapping):
    """Replace variables by expressions (used for symbolic composition),
    rebuilding with the folding constructors."""
    return _memoized(lambda node, S: mapping.get(node.name, node)
                     if type(node) is Var else node._rebuild(S))(e)


# ----------------------------------------------------------- compilation ---

class _Scope:
    """Values computed unconditionally at one level of a compiled function:
    its body, or the guarded arm of the gates that share one guard value
    inside a parent scope. A value of a scope is visible in its nested
    scopes; `lines` is the block being written while the scope is open,
    and `gate` locates its last gate block: (guard source, index of the
    block's `else:` line, index after the block)."""

    def __init__(self, parent=None, indent="    "):
        self.parent = parent
        self.indent = indent
        self.values = {}      # (template, arg values) or id(Expr) -> _Value
        self.arms = {}        # guard value -> arm _Scope
        self.lines = []
        self.gate = None

    def find(self, key):
        """The value of key in this scope or an enclosing one, or None."""
        scope = self
        while scope is not None and (v := scope.values.get(key)) is None:
            scope = scope.parent
        return scope and v


class _Value:
    """A node's value in a compiled function: its source template, the
    values of its arguments (a leaf's value is its source text), its scope
    and its number of users, counted by `_Compiler.emit`; `src` is the
    name that holds it once written. A gate's value has no template and
    its arm's scope."""

    __slots__ = ("template", "args", "scope", "arm", "uses", "src")

    def __init__(self, template, args, scope, arm=None):
        self.template = template
        self.args = args
        self.scope = scope
        self.arm = arm
        self.uses = 0
        self.src = None


def _plain(v):
    """Whether the value v, as just emitted, is a leaf, is written as a
    name or negates one: source that cannot raise."""
    return (type(v) is str or v.src is not None
            or v.template is _NEG and _plain(v.args[0]))


# a chain's operations, and the kind of each: + and - continue a sum,
# * and / a product
_OPS = {op: f"{{0}} {op} {{1}}" for op in "+-*/"}
_SPINE = {_OPS["+"]: 1, _OPS["-"]: 1, _OPS["*"]: 2, _OPS["/"]: 2}
_NEG = "(-{0})"
_MINUS_ONE = "(-1.0)"       # the source of Const(-1.0) (see _const_src)


def _const_src(v):
    # a negative literal is parenthesised (-0.5 ** 2 would negate the
    # power); any other stays bare, which is cheaper to compile
    if math.isfinite(v):
        return f"({v!r})" if math.copysign(1.0, v) < 0 else repr(v)
    if v != v:
        return "_nan"
    return "_inf" if v > 0 else "(-_inf)"


def _leaf_plan(src):
    """The plan (see `Body`) of the leaf of source src: a parameter _vi
    or a number, as `_const_src` writes it."""
    return ((None, int(src[2:])) if src.startswith("_v")
            else (float(src.strip("()").replace("_", "")), None))


class _Compiler:
    """Common-subexpression elimination and emission of straight-line code.

    `value` numbers every node by its template and its arguments' values,
    so the pass is linear in the size of the expression DAG and never
    hashes a subtree. A node equal to one computed in its scope or an
    enclosing one reuses that value. A variable or a number is a leaf,
    its source, and so is a negated number whose source is the source of
    the number it equals: Neg(Const(2.5)) is the leaf (-2.5), as
    Const(-2.5) is, so that equal source has one numbering. A gate's
    guard is a value of the gate's scope and its arm is numbered in the
    scope of that guard's arms, so nothing is hoisted out of an arm and e
    stays unevaluated when g == 0. `emit` then writes the values that
    some given values read: `src` writes a value used more than once to a
    temporary at its first use, and inlines the rest. A gate whose guard
    no other gate of its scope tests and whose arm writes no line is the
    expression (0.0 if g == 0.0 else g * e); any other gate is a block,
    written to a temporary.
    An estep names an argument that is not a name with `:=` where it
    computes it, so that it is tested and divided without a call. A gate
    block that directly follows one with the same guard joins it: one
    test of the guard for both, their values still computed in order.
    `made` lists the values in the order they were numbered, each after
    its arguments.
    """

    def __init__(self, variables):
        self.names = dict(zip(variables, map("_v{}".format,
                                             range(len(variables)))))
        self.temps = 0
        self.made = []

    def value(self, e, scope):
        cls = type(e)
        if cls is Var:
            try:
                return self.names[e.name]
            except KeyError:
                raise ExprError(f"unbound variable {e.name!r}") from None
        if cls is Const:
            return _const_src(e.value)
        if cls is Neg and type(a := e.args[0]) is Const and _NEG.format(
                _const_src(a.value)) == _const_src(-a.value):
            return _const_src(-a.value)     # the number it equals, a leaf
        v = scope.find(id(e))
        if v is not None:
            return v
        if isinstance(e, _Chain):
            # each prefix is a value, as the binary tree's nodes were; a
            # negative constant's sign flips its + or -, and a factor -1.0
            # is a negation, both exact in IEEE 754
            v = self.value(e.args[0], scope)
            for op, a in zip(e.ops, e.args[1:]):
                c = _const(a)
                if op in "+-" and c is not None and -math.inf < c < 0.0:
                    op, a = "+-"[op == "+"], Const(-c)
                w = self.value(a, scope)
                v = (self.number(_NEG, (w if v == _MINUS_ONE else v,), scope)
                     if op == "*" and _MINUS_ONE in (v, w)
                     else self.number(_OPS[op], (v, w), scope))
        else:
            template, parts = e._parts()
            if template is None:                        # a gate
                g = self.value(parts[0], scope)
                arm = scope.arms.get(g)
                if arm is None:
                    arm = scope.arms[g] = _Scope(scope, scope.indent + "    ")
                v = self.number(None, (g, self.value(parts[1], arm)), scope,
                                arm)
            else:
                args = tuple([self.value(p, scope) for p in parts])
                v = (args[0] if template == "{0}"       # a bump's expansion
                     else self.number(template, args, scope))
        scope.values[id(e)] = v
        return v

    def number(self, template, args, scope, arm=None):
        """The value of the node (template, args): the one computed in
        scope or an enclosing scope, else a new value of scope."""
        v = scope.find((template, args))
        if v is None:
            v = scope.values[template, args] = _Value(template, args, scope,
                                                      arm)
            self.made.append(v)
        return v

    def emit(self, top, outs, read, rename):
        """The lines, at the level of the scope top, that compute the
        values outs, numbered in top, and the sources of outs: a value
        that the dict `read` maps to a parameter is read as that
        parameter, and what only it reads is not written; a parameter is
        read as the name the dict `rename` maps it to, if any. Each
        value's users are counted anew, so one numbering can be written
        more than once."""
        top.lines, top.gate, self.temps, self.rename = [], None, 0, rename
        self.guards = {}    # (scope, guard) -> how many gates test it
        # each entry of todo is one read of a value or a leaf
        seen, todo = set(), list(outs)
        while todo:
            v = todo.pop()
            if type(v) is not _Value:
                continue
            if v not in seen:
                seen.add(v)
                v.uses, v.src = 0, read.get(v)
                if v.src is None:
                    todo += v.args
                    if v.arm is not None:
                        todo.append(v.args[0])  # tested, then multiplied
                        key = (v.scope, v.args[0])
                        self.guards[key] = self.guards.get(key, 0) + 1
                else:
                    todo.append(v.src)          # read as that leaf
            v.uses += 1
        outs = tuple(map(self.src, outs))
        return tuple(top.lines), outs

    def src(self, v):
        if type(v) is str:
            return self.rename.get(v, v)
        if v.src is not None:
            return self.rename.get(v.src, v.src)
        scope = v.scope
        if v.arm is None:
            text = self.text(v)
        else:
            g = self.src(v.args[0])
            v.arm.lines, v.arm.gate = [], None
            e = self.src(v.args[1])
            if v.arm.lines or self.guards[scope, v.args[0]] > 1:
                return self.block(v, g, e)
            text = f"(0.0 if {g} == 0.0 else {g} * {e})"
        if v.uses < 2:
            return f"({text})" if v.template in _SPINE else text
        v.src = self.temp()
        scope.lines.append(f"{scope.indent}{v.src} = {text}")
        return v.src

    def block(self, v, g, e):
        """The temporary that holds the gate v, of guard source g and arm
        source e, written as a block after v's arm lines; it joins the
        block just before it that tests the same guard."""
        v.src = self.temp()
        scope = v.scope
        ind, lines, last = scope.indent, scope.lines, scope.gate
        if last is not None and last[0] == g and last[2] == len(lines):
            lines.insert(last[1], f"{ind}    {v.src} = 0.0")
            at = last[1] + 1
        else:
            lines += [f"{ind}if {g} == 0.0:", f"{ind}    {v.src} = 0.0"]
            at = len(lines)
            lines.append(f"{ind}else:")
        lines += [*v.arm.lines, f"{ind}    {v.src} = {g} * {e}"]
        scope.gate = (g, at, len(lines))
        return v.src

    def text(self, v):
        """v's template over its arguments' sources; for a chain operation,
        without outer parentheses, continuing in place each left operand
        of its kind that is inlined (used once and not read as a name), so
        a chain of any length is one level."""
        kind = _SPINE.get(v.template)
        if kind is None:
            args = list(map(self.src, v.args))
            if v.template is _ESTEP:
                z = args[0]
                if z.isidentifier():
                    args.append(z)
                else:
                    name = self.temp()
                    args = [f"({name} := {z})", name]
            return v.template.format(*args)
        spine, left = [v], v.args[0]
        while (type(left) is _Value and _SPINE.get(left.template) == kind
               and left.uses < 2 and left.src is None):
            spine.append(left)
            left = left.args[0]
        text = self.src(left)
        for op in reversed(spine):
            text = op.template.format(text, self.src(op.args[1]))
        return text

    def temp(self):
        self.temps += 1
        return f"_t{self.temps}"


# the globals that compiled source reads
SOURCE_GLOBALS = {"math": math, "_inf": math.inf, "_nan": math.nan}
# __name__ attributes a warning raised in compiled code to this module
_COMPILE_GLOBALS = {**SOURCE_GLOBALS, "__builtins__": {},
                    "__name__": __name__}


class Body:
    """The straight-line source of a function compiled by `compile_exprs`,
    kept on it as `fn.body`: the function takes `params` arguments, its
    `lines`, indented by four spaces, compute its temporaries, and `outs`
    are the sources of its return values, in order. Besides its own
    names, the source reads only the names in `SOURCE_GLOBALS`.

    `numbering` is a view of the `_Compiler` numbering that wrote the
    source, kept by the first compile of it: the compiler, its top scope,
    the values of the outs, and the dict of the values read as parameters
    (see `_Compiler.emit`). `inline` writes the body into other source
    from it, and `split` divides it around the parameters a loop keeps
    fixed. `plan` gives, per value, a pair: the number the value is,
    else None, and the index of the parameter it is, else None. Equal
    source has one numbering and one plan, however it was reached.
    A body `compile_exprs` has not reached has neither; the parts of a
    split have a numbering and no plan. `loops` holds the stepping loops
    `numkernel.flow` writes around the body, so they live as long as the
    function: while a caller holds it or `_function` keeps it cached."""

    __slots__ = ("params", "lines", "outs", "numbering", "plan", "loops")

    def __init__(self, params, lines, outs, numbering=None):
        self.params = params
        self.lines = lines
        self.outs = outs
        self.numbering = numbering
        self.plan = None
        self.loops = {}

    def inline(self, args, targets, tag, indent):
        """Source lines at `indent` that compute the body at the argument
        sources args and assign its values in order to the targets, those
        past them that may raise (not a leaf or a name, nor the negation
        of one) to the throwaway `_`, so that the lines raise where a call
        would. The numbering emits them with each parameter read as its
        argument when that is a name; a parameter it reads whose argument
        is not a name is bound to `_v{i}_{tag}` first, when a line that is
        emitted reads it: an out that is not written, such as a copied
        coordinate, reads nothing. The temporaries keep their names, since
        the lines compute each before they read it."""
        comp, top, values, read = self.numbering
        rename = {f"_v{i}": a if a.isidentifier() else f"_v{i}_{tag}"
                  for i, a in enumerate(args)}
        body, outs = comp.emit(top, values, read, rename)
        lines = [indent + line[4:] for line in body]
        lines += [f"{indent}{o} = {src}" for o, src, v in
                  itertools.zip_longest(targets, outs, values, fillvalue="_")
                  if o != "_" or not _plain(v)]
        reads = set(re.findall(rf"\b_v\d+_{re.escape(tag)}\b",
                               "\n".join(lines)))
        return [f"{indent}{name} = {a}"
                for name, a in zip(rename.values(), args)
                if name in reads] + lines

    def split(self, fixed):
        """The body as two bodies (pre, rest) for a loop in which the
        parameters numbered in `fixed` keep their values: pre, over the
        same parameters, computes the roots, and rest takes their values
        as further parameters, after `params`, and computes the body's.

        Both are views of the body's numbering (see `_Compiler`), which
        is walked, not made again. The roots are the largest values that
        read only fixed parameters and constants and that every run
        computes: never a bare parameter or number, nor a value of a
        gate's arm, which runs only when its guard is not 0.0. A chain's
        prefixes are values, so its leading fixed operands are one root;
        equal subexpressions are one value. So pre raises only where
        every run of the body would. When there is no root, rest is the
        body itself."""
        comp, top, outs, _ = self.numbering
        # the free parameters, and the values that read one
        moving = {f"_v{i}" for i in range(self.params) if i not in fixed}
        for v in comp.made:
            if any(a in moving for a in v.args):
                moving.add(v)
        seen, todo = set(), list(outs)      # from the outs down to the roots
        while todo:
            v = todo.pop()
            if type(v) is _Value and v not in seen:
                seen.add(v)
                if v.scope is not top or v in moving:
                    todo += v.args
        roots = [v for v in comp.made
                 if v in seen and v.scope is top and v not in moving]
        if not roots:
            return Body(self.params, (), ()), self
        names = {v: f"_v{self.params + j}" for j, v in enumerate(roots)}
        return (Body(self.params, *comp.emit(top, roots, {}, {}),
                     (comp, top, roots, {})),
                Body(self.params + len(roots),
                     *comp.emit(top, outs, names, {}),
                     (comp, top, outs, names)))


def compile_exprs(exprs, variables):
    """Compile a list of Exprs over the same variables into one callable
    taking positional floats and returning a list of floats; its source
    is kept on it as a `Body`, `fn.body`.

    The callable is straight-line code in which every repeated
    subexpression is computed once (see `_Compiler`); where a node fails
    (a zero divisor, log of a negative number, an overflow) it raises
    ArithmeticError or ValueError. Its parameters are named by position,
    so equal expressions over other variable names give the same source,
    and the same source gives the same callable (see `_function`); the
    variable names must be distinct. The first compile of a source keeps
    its numbering and plan on the body; a later one finds them there."""
    comp, top = _Compiler(_distinct(variables)), _Scope()
    values = [comp.value(e, top) for e in exprs]
    fn = _function(len(variables), *comp.emit(top, values, {}, {}))
    if fn.body.numbering is None:
        fn.body.numbering = (comp, top, values, {})
        fn.body.plan = tuple(_leaf_plan(v) if type(v) is str
                             else (None, None) for v in values)
    return fn


@functools.lru_cache(maxsize=128)
def _function(params, lines, outs):
    """The function of `params` positional parameters _v0.. whose lines
    compute its temporaries and which returns the list of outs, with its
    `Body`. It carries no state besides the loops kept on its body, which
    depend only on the source too, so one function serves every caller
    that compiles equal source."""
    params_src = ", ".join(map("_v{}".format, range(params)))
    src = "\n".join([f"def _f({params_src}):", *lines,
                     f"    return [{', '.join(outs)}]", ""])
    scope = {}
    exec(compile(src, "<expr>", "exec"), _COMPILE_GLOBALS, scope)
    fn = scope["_f"]
    fn.body = Body(params, lines, outs)
    return fn


def evaluate(fn, x, shape):
    """The values of a function compiled by `compile_exprs` at the point x,
    as an array of `shape`; at a stack of points x of shape (N, n), one
    call per point, their values chained into one flat list and reshaped
    to (N, *shape). When the plan of fn's body gives every value a
    number, fn is called at the first point only and its values fill the
    N rows: the same bits.
    ValueError when fn's value count is not the size of shape. The calls
    take plain floats: numpy scalars would return inf or nan with a
    warning where a float raises (a zero divisor, an overflowing power
    other than a square)."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        return np.array(fn(*pts.tolist()), dtype=float).reshape(shape)
    if len(pts) and all(c is not None for c, _ in fn.body.plan):
        row = np.array(fn(*pts[0].tolist()), dtype=float)
        return np.tile(row, (len(pts), 1)).reshape(len(pts), *shape)
    cols = pts.T.tolist()
    # map needs an iterable: over a point (n = 0), one call per point
    calls = map(fn, *cols) if cols else (fn() for _ in pts)
    vals = itertools.chain.from_iterable(calls)
    return np.array(list(vals), dtype=float).reshape(len(pts), *shape)


def fresh_names(names, taken):
    """The names, each prefixed with "_" as often as it takes for none of
    them to be among the taken ones."""
    while set(names) & set(taken):
        names = ["_" + v for v in names]
    return names


def check_variables(exprs, variables, error):
    """Raise `error` unless the expressions use only the named variables."""
    for e in exprs:
        bad = e.variables() - set(variables)
        if bad:
            raise error(f"expression {e} uses unknown variables {sorted(bad)}")


class Domain:
    """The open set where each of m predicates is strictly positive.

    fn(*x) returns the m predicate values at x, as a function compiled by
    `compile_exprs` does (fn is None when m is 0: all of R^n). Calling the
    domain tests a point: x -> bool. A point where a predicate cannot be
    evaluated (log of a negative number, a zero divisor) is outside, not
    an error. `require` tests a set of points. `numkernel.flow` writes the
    same test into its stepping loop, with fn's kept body in it, and
    refuses an fn that keeps none.
    """

    __slots__ = ("fn", "m")

    def __init__(self, fn, m):
        self.fn = fn
        self.m = m

    def __call__(self, x):
        if not self.m:
            return True
        try:
            vals = self.fn(*x)
        except (ArithmeticError, ValueError):
            return False
        return all(v > 0.0 for v in vals)

    def require(self, points, n, what, error=DomainError):
        """The points, one or a stack, as an (N, n) stack of floats, each
        tested with plain floats. ValueError when they do not have n
        coordinates, `error` for the first point outside the domain; both
        name the point as `what`."""
        pts = np.asarray(points, dtype=float)
        k = pts.shape[-1] if pts.ndim else 1
        if k != n and pts.size:
            raise ValueError(f"{what} {point(pts.reshape(-1, k)[0])} has "
                             f"{k} coordinates, not {n}")
        # points in R^0 are counted by the leading axes: reshape(-1, 0)
        # is ambiguous
        pts = (pts.reshape(-1, n) if n
               else pts.reshape(math.prod(pts.shape[:-1]), 0))
        for p in pts.tolist() if self.m else ():
            if not self(p):
                raise error(f"{what} {point(p)} is outside the domain")
        return pts


def domain_predicate(exprs, variables):
    """The `Domain` where every expression in exprs is strictly positive
    (all of R^n when exprs is empty), compiled over the variables."""
    if not exprs:
        return Domain(None, 0)
    return Domain(compile_exprs(exprs, variables), len(exprs))


# -------------------------------------------------------------- SmoothMap --

class SmoothMap:
    """Expression-backed map from an open subset of R^n to the arrays of
    one shape: the compiled form of every structure function.

    components: Exprs or numbers over `variables`, nested in lists (or an
    object array) of `shape`; a single Expr has shape (). `domain` is a
    list of Exprs that must all evaluate strictly positive at admissible
    points. An expression over other variables raises `error`, a ragged
    nesting TypeError, repeated variable names ValueError. The values and
    the partials are each compiled into one function on first use; the
    partial index comes last.
    """

    def __init__(self, variables, components, domain=(), error=ExprError):
        self.variables = _distinct(list(variables))
        self.n = len(self.variables)
        nest = np.array(components, dtype=object)
        self.shape = nest.shape
        # a ragged nesting leaves a list among the entries
        self._flat = [as_expr(e) for e in nest.flat]
        self.components = np.array(self._flat, dtype=object).reshape(
            self.shape).tolist()
        self.domain = [as_expr(e) for e in domain]
        check_variables(self._flat + self.domain, self.variables, error)
        self.in_domain = domain_predicate(self.domain, self.variables)

    @classmethod
    def from_strings(cls, variables, sources, domain_sources=()):
        comps = [parse(s, variables) for s in sources]
        dom = [parse(s, variables) for s in domain_sources]
        return cls(variables, comps, dom)

    @functools.cached_property
    def _fn(self):
        return compile_exprs(self._flat, self.variables)

    @functools.cached_property
    def _jac_fn(self):
        return compile_exprs([e.d(v) for e in self._flat
                              for v in self.variables], self.variables)

    def __call__(self, x):
        """The map at x, or at a stack of points, after the domain test."""
        self.in_domain.require(x, self.n, "point")
        return self.eval_unchecked(x)

    def eval_unchecked(self, x):
        """The map at x, an array of `shape`, or at a stack of N points,
        (N, *shape), without the domain test."""
        return evaluate(self._fn, x, self.shape)

    def jacobian(self, x):
        """The exact symbolic partials at x, [..., j] = d_j map[...], an
        array of `shape + (n,)`; (N, *shape, n) at a stack of N points."""
        return evaluate(self._jac_fn, x, self.shape + (self.n,))


__all__ = [
    "Expr", "Const", "Var", "Sum", "Product", "Neg", "Pow", "Fun", "parse",
    "substitute", "fun",
    "add", "sub", "mul", "dot", "div", "neg", "pow_", "as_expr", "point",
    "compile_exprs", "Domain", "domain_predicate", "SmoothMap",
    "ExprError", "ParseError", "DomainError",
]
