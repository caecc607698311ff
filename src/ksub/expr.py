"""Scalar expression parsing and second-order forward-mode differentiation.

Expressions are parsed from text over a declared list of variables into an
immutable AST, then evaluated either as values or as ``Jet`` values carrying
(value, gradient, Hessian) with respect to the declared variables. One walker
serves both, with one arithmetic per kind: the value operations, and the
``Jet`` methods, which also check that the result is twice differentiable.
Each domain check is one function for both: ``_divide``, the values' log and
``_value_checked`` (sqrt). Exponents of ``^`` must be numeric literals, which
keeps the power rule exact.

Both arithmetics run over a batch of N points, given as one-dimensional
coordinate arrays, on a trailing axis: value (N,), gradient (n, N), Hessian
(n, n, N). A point of floats is a batch of one (:func:`at_point`, the one
adapter), which :func:`eval_jet` hands back as a float value and arrays.
Every ``**`` and function is one numpy kernel over the batch (:func:`power`,
:func:`_kernel`), which gives each element the bits it gets in a batch of
one, and ``+ - * /`` are the same IEEE operations on a batch as on a point,
so a batch equals its points bit for bit. Where the libm call of one float
raised (an overflow, a function of an infinite argument), the kernel raises
:class:`DomainEvalError` at the first such element. :func:`batched` tries
a batch once and keeps what it returns, non-finite values included; only a
batch that raises is searched, by bisection, until its first failing point
raises its own error as a batch of one.

Grammar::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" number)?
    base   := number | "pi" | ident | "(" expr ")" | func "(" expr ")" | "-" base
    func   := "sin"|"cos"|"tan"|"exp"|"log"|"sqrt"|"abs"

Whitespace is insignificant; identifiers match ``[a-zA-Z_][a-zA-Z0-9_]*``;
numbers are decimal literals with optional scientific notation.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import (
    ArityMismatchError,
    DomainEvalError,
    ExprSyntaxError,
    KsubError,
    POINT_FAILURES,
    UndeclaredVariableError,
)

__all__ = [
    "Expr",
    "Jet",
    "parse",
    "eval_jet",
    "eval_value",
    "compose_jet",
    "batched",
    "at_point",
    "pointwise",
    "power",
    "constant_jet",
    "variable_jet",
    "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")
_RESERVED = set(FUNCTIONS) | {"pi"}

_ABS_KINK_TOL = 1e-12


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: float


Node = Union[Const, Var, Neg, Call, Binary, Power]


@dataclass(frozen=True)
class Expr:
    """Parsed scalar expression over an ordered tuple of variable names."""

    root: Node
    variables: tuple[str, ...]

    def __str__(self) -> str:
        return _to_text(self.root, 0)

    def __call__(self, *point: float) -> float:
        return eval_value(self, point)


# precedence levels used by the printer: additive 1, multiplicative 2,
# power/unary 3, atoms 4
def _to_text(node: Node, parent_prec: int) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_to_text(node.arg, 0)})"
    if isinstance(node, Neg):
        inner = node.arg
        if isinstance(inner, (Const, Var, Call, Neg, Power)):
            text = "-" + _to_text(inner, 3)
        else:
            text = "-(" + _to_text(inner, 0) + ")"
        return f"({text})" if parent_prec > 3 else text
    if isinstance(node, Power):
        base = node.base
        if isinstance(base, (Const, Var, Call, Neg)):
            base_text = _to_text(base, 3)
        else:
            base_text = "(" + _to_text(base, 0) + ")"
        exp = node.exponent
        exp_text = repr(exp) if exp >= 0 else "-" + repr(-exp)
        text = f"{base_text}^{exp_text}"
        return f"({text})" if parent_prec > 3 else text
    if isinstance(node, Binary):
        prec = 1 if node.op in "+-" else 2
        left = _to_text(node.left, prec)
        # the grammar is left-associative, so any right child of equal
        # precedence needs parentheses to reparse to the same tree shape
        right = _to_text(node.right, prec + 1)
        # guard against "a+-b": wrap a leading-minus right operand
        if right.startswith("-"):
            right = "(" + right + ")"
        text = f"{left}{node.op}{right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.variables = variables
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = Binary(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = Binary(val, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            node = Power(node, self.exponent())
        return node

    def exponent(self) -> float:
        sign = 1.0
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            sign = -1.0
            kind, val, pos = self.peek()
        if kind != "num":
            raise ExprSyntaxError("constant exponent required for ^", pos)
        self.advance()
        return sign * float(val)

    def base(self) -> Node:
        kind, val, pos = self.advance()
        if kind == "num":
            return Const(float(val))
        if kind == "ident":
            if val == "pi":
                return Const(math.pi)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val not in self.variables:
                raise UndeclaredVariableError(f"undeclared variable {val!r}", pos)
            return Var(val)
        if kind == "op":
            if val == "(":
                node = self.expr()
                self.expect_op(")")
                return node
            if val == "-":
                return Neg(self.base())
        raise ExprSyntaxError(
            f"unexpected token {val!r}" if val else "unexpected end of input", pos
        )


def parse(text: str, variables) -> Expr:
    """Parse ``text`` into an :class:`Expr` over the given variable names."""
    variables = tuple(variables)
    for name in variables:
        if name in _RESERVED:
            raise KsubError(f"variable name {name!r} is reserved")
        if not re.fullmatch(r"[a-zA-Z_][a-zA-Z0-9_]*", name):
            raise KsubError(f"invalid variable name {name!r}")
    root = _Parser(text, variables).parse()
    return Expr(root, variables)


# ---------------------------------------------------------------------------
# Elementwise kernels and batches of points
# ---------------------------------------------------------------------------

def _kernel(ufunc, *args):
    """numpy's ``ufunc`` of ``args``, raising :class:`DomainEvalError` at
    the first element where the libm call of one float raised: a nan from
    arguments that are not nan (sin, cos or tan of an infinite argument),
    or an infinity from finite arguments (exp or pow overflowing). A float
    gives a numpy float."""
    out = ufunc(*args)
    if not np.isfinite(out).all():
        args = np.broadcast_arrays(*args)
        raised = ((np.isnan(out) & ~np.isnan(args).any(axis=0))
                  | (np.isinf(out) & np.isfinite(args).all(axis=0)))
        bad = _first_bad(raised, out, *args)
        if bad:
            raise DomainEvalError(
                f"{ufunc.__name__}({', '.join(map(repr, bad[1:]))}) "
                f"{'is undefined' if math.isnan(bad[0]) else 'overflows'}")
    return out


def power(value, p):
    """``value ** p`` by numpy's power kernel (see :func:`_kernel`); a
    float gives a numpy float."""
    return _kernel(np.power, value, p)


def _hypot(x, y) -> np.ndarray:
    """numpy's hypot of each pair of elements; libm's, on one float, gives
    inf past the float range rather than raising, and so does this."""
    return np.hypot(x, y)


def _first_bad(flags, *values):
    """The values as floats at the first point whose flag is set, or None
    if no flag is set; a float value is its own first point."""
    if not np.any(flags):
        return None
    i = int(np.argmax(flags))
    return tuple(float(np.ravel(v)[i]) for v in values)


def batched(fn, *coords):
    """``fn(*coords)`` over equal-length coordinate arrays in one pass, with
    exactly the results of its points one at a time.

    ``fn`` takes one array per coordinate. It runs once, under the
    caller's numpy error state, and what it returns stands, non-finite
    numbers included (they equal its points' bit for bit). If it raises an
    input or arithmetic error, bisection finds its first point that raises
    (of the points in question, the front half is kept if it raises under
    ``np.errstate(all="ignore")``, else the back half), and that point runs
    again alone, under the caller's error state, to raise its own error; if
    it does not, the batch's error stands.
    """
    try:
        return fn(*coords)
    except POINT_FAILURES:
        lo, hi = 0, len(coords[0]) if coords else 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                with np.errstate(all="ignore"):
                    fn(*(c[lo:mid] for c in coords))
                lo = mid
            except POINT_FAILURES:
                hi = mid
        fn(*(c[lo:hi] for c in coords))
        raise


def at_point(fn, *coords):
    """``fn(*coords)`` on a batch of coordinate arrays; on a point of
    floats, ``fn`` of it as a batch of one, unbatched (see :func:`_unbatch`).
    ``fn`` returns a Jet, an array or a tuple of them, batch axis last."""
    if coords and type(coords[0]) is np.ndarray:
        return fn(*coords)
    return _unbatch(fn(*(np.array([float(c)]) for c in coords)))


def pointwise(fn):
    """Batch code ``fn(owner, point, *args)`` as an entry taking a point too."""
    @functools.wraps(fn)
    def entry(owner, point, *args):
        return at_point(lambda *batch: fn(owner, batch, *args), *point)
    return entry


def _unbatch(out):
    """The one point of a batch of one: a Jet with a float value, an array
    without its batch axis (a float for a scalar), a tuple part by part."""
    if isinstance(out, Jet):
        return Jet(float(out.value[0]), out.grad[..., 0], out.hess[..., 0])
    if isinstance(out, tuple):
        return tuple(map(_unbatch, out))
    return out[..., 0] if out.ndim > 1 else float(out[0])


# ---------------------------------------------------------------------------
# Jets: truncated second-order Taylor data
# ---------------------------------------------------------------------------

class Jet:
    """Value, gradient and symmetric Hessian of a scalar in ``n`` variables.

    A batch of N points has value (N,), gradient (n, N) and Hessian
    (n, n, N); constant parts carry a singleton axis that broadcasting
    widens. At one point (what :func:`eval_jet` returns for a point of
    floats) the value is a float, the gradient (n,) and the Hessian
    (n, n). Arithmetic implements the exact second-order chain/product
    rules, so jets of polynomials of degree <= 2 are exact to machine
    precision, and a batch equals its points' jets bit for bit.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @property
    def nvars(self) -> int:
        return self.grad.shape[0]

    def __repr__(self):
        return f"Jet({self.value!r}, grad={self.grad.tolist()}, hess={self.hess.tolist()})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value + other.value, self.grad + other.grad,
                       self.hess + other.hess)
        return Jet(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value - other.value, self.grad - other.grad,
                       self.hess - other.hess)
        return Jet(self.value - other, self.grad, self.hess)

    def __rsub__(self, other):
        return Jet(other - self.value, -self.grad, -self.hess)

    def __neg__(self):
        return Jet(-self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, Jet):
            cross = self.grad[:, None] * other.grad[None, :]
            return Jet(
                self.value * other.value,
                self.value * other.grad + other.value * self.grad,
                self.value * other.hess + other.value * self.hess
                + cross + cross.swapaxes(0, 1),
            )
        return Jet(self.value * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def _reciprocal(self):
        v = self.value
        return self._lift(_divide(1.0, v), -1.0 / power(v, 2),
                          2.0 / power(v, 3))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return Jet(self.value / other, self.grad / other, self.hess / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        p = float(p)
        u = self.value
        if p == 0.0:
            return Jet(np.ones_like(u), np.zeros_like(self.grad),
                       np.zeros_like(self.hess))
        if p == 1.0:
            return Jet(u, self.grad.copy(), self.hess.copy())
        integral = p == int(p)
        if not integral and np.any(u < 0.0):
            raise DomainEvalError(f"negative base for non-integer power {p}")
        if (p < 2.0 or not integral) and np.any(u == 0.0):
            raise DomainEvalError(f"power {p} not twice differentiable at 0")
        f0 = power(u, p)
        f1 = p * power(u, p - 1.0)
        f2 = p * (p - 1.0) * power(u, p - 2.0) if p != 2.0 else 2.0
        return self._lift(f0, f1, f2)

    # -- analytic functions via the scalar chain rule -----------------------

    def _lift(self, f0, f1, f2) -> "Jet":
        cross = self.grad[:, None] * self.grad[None, :]
        return Jet(f0, f1 * self.grad, f1 * self.hess + f2 * cross)

    def sin(self):
        s, c = _kernel(np.sin, self.value), _kernel(np.cos, self.value)
        return self._lift(s, c, -s)

    def cos(self):
        s, c = _kernel(np.sin, self.value), _kernel(np.cos, self.value)
        return self._lift(c, -s, -c)

    def tan(self):
        t = _kernel(np.tan, self.value)
        d = 1.0 + t * t
        return self._lift(t, d, 2.0 * t * d)

    def exp(self):
        e = _kernel(np.exp, self.value)
        return self._lift(e, e, e)

    def log(self):
        v = self.value
        return self._lift(_VALUE_OPS["log"](v), 1.0 / v, -1.0 / power(v, 2))

    def sqrt(self):
        v = self.value
        s = _value_checked(np.sqrt, "sqrt of nonpositive", operator.le, v)
        return self._lift(s, 0.5 / s, -0.25 / (v * s))

    def __abs__(self):
        v = self.value
        if np.any(abs(v) < _ABS_KINK_TOL):
            raise DomainEvalError("abs is not differentiable at 0")
        return self._lift(abs(v), np.where(v > 0, 1.0, -1.0), 0.0)


def constant_jet(value: float, nvars: int) -> Jet:
    """The jet of a constant over any batch: its parts carry a singleton
    batch axis."""
    return Jet(value, np.zeros((nvars, 1)), np.zeros((nvars, nvars, 1)))


def variable_jet(value, index: int, nvars: int) -> Jet:
    """The jet of variable ``index`` at coordinates ``value`` (N,)."""
    grad = np.zeros((nvars, 1))
    grad[index] = 1.0
    return Jet(value, grad, np.zeros((nvars, nvars, 1)))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _divide(left, right):
    if np.any(right == 0.0):
        raise DomainEvalError("division by zero")
    return left / right


def _value_pow(base, p: float):
    """``base ** p`` (see :func:`power`) after the domain checks of each
    element in order: the first element with a negative base for a
    non-integer power, or a zero base for a negative one, raises."""
    negative = np.ravel(base < 0.0)
    zero = np.ravel((base == 0.0) & (p < 0.0))
    first_zero = int(np.argmax(zero)) if zero.any() else math.inf
    if (negative.any() and int(np.argmax(negative)) < first_zero
            and p != int(p)):
        raise DomainEvalError(f"negative base for non-integer power {p}")
    if zero.any():
        raise DomainEvalError("zero base for negative power")
    return power(base, p)


def _value_checked(kernel, what: str, outside, arg):
    """``kernel(arg)`` once no element is ``outside(element, 0.0)``."""
    bad = _first_bad(outside(arg, 0.0), arg)
    if bad:
        raise DomainEvalError(f"{what} value {bad[0]!r}")
    return kernel(arg)


def _value_leaf(value, *_):
    return value


# "/", "^" and the functions differ between the two arithmetics; "+", "-",
# "*" and negation are the operators of both arrays and jets. "^", "sqrt"
# and "log" check a whole batch first, in element order.
_JET_OPS = {"/": operator.truediv, "^": operator.pow, "sin": Jet.sin,
            "cos": Jet.cos, "tan": Jet.tan, "exp": Jet.exp, "log": Jet.log,
            "sqrt": Jet.sqrt, "abs": abs}
_VALUE_OPS = {
    **{name: functools.partial(_kernel, ufunc) for name, ufunc in (
        ("sin", np.sin), ("cos", np.cos), ("tan", np.tan), ("exp", np.exp))},
    "log": functools.partial(_value_checked, functools.partial(_kernel, np.log),
                             "log of nonpositive", operator.le),
    "sqrt": functools.partial(_value_checked, np.sqrt, "sqrt of negative",
                              operator.lt),
    "/": _divide, "abs": abs, "^": _value_pow}


class _Arithmetic(NamedTuple):
    """Leaves ``constant(value, n)`` and ``variable(value, index, n)`` over
    ``n`` variables, and the operations of that leaf type."""

    constant: Callable
    variable: Callable
    ops: dict


_JETS = _Arithmetic(constant_jet, variable_jet, _JET_OPS)
_VALUES = _Arithmetic(_value_leaf, _value_leaf, _VALUE_OPS)


def _evaluate(expr: Expr, coords, arithmetic: _Arithmetic):
    """The one traversal behind :func:`eval_jet` and :func:`eval_value`,
    over a batch of coordinate arrays (the others broadcast against the
    first)."""
    n = len(expr.variables)
    if len(coords) != n:
        raise ArityMismatchError(
            f"expected {n} coordinates for variables {expr.variables}, "
            f"got {len(coords)}")
    coords = np.broadcast_arrays(*(np.asarray(c, dtype=float)
                                   for c in coords))
    if coords and coords[0].ndim != 1:
        raise KsubError("a batch needs one-dimensional coordinate arrays")
    index = {name: i for i, name in enumerate(expr.variables)}
    return batched(functools.partial(_run, expr.root, index, arithmetic),
                   *coords)


def _run(root: Node, index: dict, arithmetic: _Arithmetic, *coords):
    """One traversal over a batch, widened to the batch's full shape."""
    n = len(coords)
    out = _walk(root, _Walk(coords, index, n, *arithmetic))
    size = len(coords[0]) if coords else 1
    if isinstance(out, Jet):
        return Jet(_widened(out.value, (size,)), _widened(out.grad, (n, size)),
                   _widened(out.hess, (n, n, size)))
    return _widened(out, (size,))


def _widened(part, shape) -> np.ndarray:
    """A new array of ``shape`` filled by broadcasting ``part``."""
    full = np.empty(shape)
    full[...] = part
    return full


class _Walk(NamedTuple):
    """What one evaluation's traversal reads at every node."""

    point: tuple
    index: dict
    n: int
    constant: Callable
    variable: Callable
    ops: dict


def _walk(node: Node, ctx: _Walk):
    # module level, taking its context as an argument: a nested function
    # that calls itself would leave a reference cycle behind per evaluation
    try:
        if isinstance(node, Const):
            return ctx.constant(node.value, ctx.n)
        if isinstance(node, Var):
            i = ctx.index[node.name]
            return ctx.variable(ctx.point[i], i, ctx.n)
        if isinstance(node, Neg):
            return -_walk(node.arg, ctx)
        if isinstance(node, Call):
            return ctx.ops[node.func](_walk(node.arg, ctx))
        if isinstance(node, Power):
            return ctx.ops["^"](_walk(node.base, ctx), node.exponent)
        if isinstance(node, Binary):
            left, right = _walk(node.left, ctx), _walk(node.right, ctx)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return ctx.ops["/"](left, right)
    except DomainEvalError as err:
        if " in '" in str(err):
            raise  # already annotated with the offending subexpression
        raise DomainEvalError(f"{err} in '{_to_text(node, 0)}'") from None
    raise TypeError(f"unknown node {node!r}")


@pointwise
def eval_jet(expr: Expr, point) -> Jet:
    """Evaluate ``expr`` at ``point``, returning exact second-order data.

    ``point`` must have one entry per declared variable. Domain problems
    (division by zero, log/sqrt of a nonpositive argument, the abs kink)
    raise :class:`DomainEvalError` naming the offending subexpression.
    One-dimensional coordinate arrays are a batch of N points, evaluated in
    one pass (see :func:`batched`): the jet's shapes are (N,), (n, N) and
    (n, n, N), and a failing batch raises the error of its first failing
    point. A point of floats is a batch of one whose jet comes back with a
    float value, an (n,) gradient and an (n, n) Hessian.
    """
    return _evaluate(expr, point, _JETS)


@pointwise
def eval_value(expr: Expr, point) -> float:
    """Value-only evaluation, cheaper than :func:`eval_jet` and independent
    of it; ``sqrt`` and ``abs`` have a value at 0 where they have no jet.
    Coordinate arrays give a batch of values, shape (N,), as
    :func:`eval_jet` does; a point of floats, a float."""
    return _evaluate(expr, point, _VALUES)


def compose_jet(outer: Jet, inners) -> Jet:
    """Second-order chain rule: jet of ``f(g_1(t), ..., g_m(t))`` at one
    point.

    ``outer`` is the jet of ``f`` in ``m`` variables at the inner values;
    ``inners`` are the ``m`` jets of the ``g_i``, all in the same parameter
    variables. The result is a jet in those parameter variables.
    """
    inners = list(inners)
    m = outer.nvars
    if len(inners) != m:
        raise ArityMismatchError(
            f"outer jet has {m} variables but {len(inners)} inner jets given")
    if not inners:
        raise ArityMismatchError("at least one inner jet required")
    n = inners[0].nvars
    for jet in inners:
        if jet.nvars != n:
            raise ArityMismatchError("inner jets disagree on variable count")

    inner_grads = np.stack([jet.grad for jet in inners])  # (m, n)
    grad = outer.grad @ inner_grads
    hess = np.einsum("i,ijk->jk", outer.grad,
                     np.stack([jet.hess for jet in inners]))
    hess = hess + inner_grads.T @ outer.hess @ inner_grads
    return Jet(outer.value, grad, hess)
