"""Scalar expression parsing and second-order forward-mode differentiation.

Expressions are parsed from text over a declared list of variables into an
immutable AST, then evaluated either as plain floats or as ``Jet`` values
carrying (value, gradient, Hessian) with respect to the declared variables.
One walker serves both, with two separate arithmetics: float operations with
their own domain checks, and the ``Jet`` methods, which also check that the
result is twice differentiable. Exponents of ``^`` must be numeric literals,
which keeps the power rule exact.

Both evaluate a batch of N points in one pass when the coordinates are
one-dimensional arrays. The batch sits on a trailing axis: value (N,),
gradient (n, N), Hessian (n, n, N). Every ``**`` and function of a batch is
the libm call of one point, applied element by element (:func:`power`;
numpy's own array power, exp, log and tan differ in the last bit), and
``+ - * /`` are IEEE operations either way, so a batch equals its points bit
for bit. :func:`batched` reruns a batch that raises or yields a non-finite
number point by point, so a failing batch raises its first failing point's
own error.

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
            raise ValueError(f"variable name {name!r} is reserved")
        if not re.fullmatch(r"[a-zA-Z_][a-zA-Z0-9_]*", name):
            raise ValueError(f"invalid variable name {name!r}")
    root = _Parser(text, variables).parse()
    return Expr(root, variables)


# ---------------------------------------------------------------------------
# Elementwise libm calls and batches of points
# ---------------------------------------------------------------------------

def power(value, p):
    """``value ** p``; on an array, one libm ``pow`` per element.

    numpy's own array power (``x * x`` for a square) and its ``exp``,
    ``log`` and ``tan`` differ from libm in the last bit on 0.1-5 % of
    arguments, so every power and function of a batch is taken element by
    element, to equal its one-point value bit for bit.
    """
    if type(value) is not np.ndarray:
        return value ** p
    return _each(functools.partial(pow, exp=p), value)


def _each(func, value):
    """``func(value)``, one element at a time on an array (see :func:`power`)."""
    if type(value) is not np.ndarray:
        return func(value)
    return np.array([func(v) for v in value.ravel().tolist()]
                    ).reshape(value.shape)


def _bad(flags) -> bool:
    """Whether a domain check fails: at the point, or anywhere in a batch (a
    batch reruns point by point to name the point)."""
    return flags if type(flags) is bool else bool(flags.any())


def batched(fn, *coords):
    """``fn(*coords)`` over equal-length coordinate arrays in one pass, with
    exactly the results of the one-point path.

    ``fn`` takes one value per coordinate, floats or arrays, and returns a
    Jet, a float, an array or a tuple of them, with the batch on the
    trailing axis. If the batch raises an input or arithmetic error or
    yields a non-finite number, ``fn`` runs again at each point in turn and
    the results are stacked: the first point that fails then raises its own
    error, and warnings and non-finite values are those of the one-point
    path.
    """
    try:
        with np.errstate(all="ignore"):
            out = fn(*coords)
        if _finite(out):
            return out
    except (ArithmeticError, ValueError, KsubError):
        pass
    return _stack([fn(*point) for point in zip(*(c.tolist() for c in coords))])


def _finite(out) -> bool:
    if isinstance(out, Jet):
        return _finite(out.value) and _finite(out.grad) and _finite(out.hess)
    if isinstance(out, tuple):
        return all(_finite(part) for part in out)
    return bool(np.isfinite(out).all())


def _stack(results):
    first = results[0]
    if isinstance(first, Jet):
        return Jet(_stack([jet.value for jet in results]),
                   _stack([jet.grad for jet in results]),
                   _stack([jet.hess for jet in results]))
    if isinstance(first, tuple):
        return tuple(_stack(list(parts)) for parts in zip(*results))
    return np.stack(results, axis=-1)


# ---------------------------------------------------------------------------
# Jets: truncated second-order Taylor data
# ---------------------------------------------------------------------------

class Jet:
    """Value, gradient and symmetric Hessian of a scalar in ``n`` variables.

    At one point the value is a float, the gradient has shape (n,) and the
    Hessian (n, n). A batch of N points adds a trailing axis: (N,), (n, N)
    and (n, n, N); inside a batch, constant parts carry a singleton axis
    that broadcasting widens. Arithmetic implements the exact second-order
    chain/product rules, so jets of polynomials of degree <= 2 are exact to
    machine precision, and a batch equals its points' jets bit for bit.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        if type(value) is not float and type(value) is not np.ndarray:
            value = float(value)
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
                + cross + _transpose(cross),
            )
        return Jet(self.value * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def _reciprocal(self):
        v = self.value
        if _bad(v == 0.0):
            raise DomainEvalError("division by zero")
        return self._lift(1.0 / v, -1.0 / power(v, 2), 2.0 / power(v, 3))

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
            one = np.ones_like(u) if type(u) is np.ndarray else 1.0
            return Jet(one, np.zeros_like(self.grad), np.zeros_like(self.hess))
        if p == 1.0:
            return Jet(u, self.grad.copy(), self.hess.copy())
        integral = p == int(p)
        if not integral and _bad(u < 0.0):
            raise DomainEvalError(f"negative base for non-integer power {p}")
        if (p < 2.0 or not integral) and _bad(u == 0.0):
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
        s, c = _each(math.sin, self.value), _each(math.cos, self.value)
        return self._lift(s, c, -s)

    def cos(self):
        s, c = _each(math.sin, self.value), _each(math.cos, self.value)
        return self._lift(c, -s, -c)

    def tan(self):
        t = _each(math.tan, self.value)
        d = 1.0 + t * t
        return self._lift(t, d, 2.0 * t * d)

    def exp(self):
        e = _each(math.exp, self.value)
        return self._lift(e, e, e)

    def log(self):
        v = self.value
        if _bad(v <= 0.0):
            raise DomainEvalError(f"log of nonpositive value {v!r}")
        return self._lift(_each(math.log, v), 1.0 / v, -1.0 / power(v, 2))

    def sqrt(self):
        v = self.value
        if _bad(v <= 0.0):
            raise DomainEvalError(f"sqrt of nonpositive value {v!r}")
        s = _each(math.sqrt, v)
        return self._lift(s, 0.5 / s, -0.25 / (v * s))

    def __abs__(self):
        v = self.value
        if _bad(abs(v) < _ABS_KINK_TOL):
            raise DomainEvalError("abs is not differentiable at 0")
        if type(v) is np.ndarray:
            sign = np.where(v > 0, 1.0, -1.0)
        else:
            sign = 1.0 if v > 0 else -1.0
        return self._lift(abs(v), sign, 0.0)


def _transpose(cross):
    """Swap the two variable axes of an (n, n) or batched (n, n, N) array."""
    return cross.T if cross.ndim == 2 else cross.swapaxes(0, 1)


def constant_jet(value: float, nvars: int) -> Jet:
    return Jet(value, np.zeros(nvars), np.zeros((nvars, nvars)))


def variable_jet(value: float, index: int, nvars: int) -> Jet:
    grad = np.zeros(nvars)
    grad[index] = 1.0
    return Jet(value, grad, np.zeros((nvars, nvars)))


def _batch_leaf(leaf):
    """A leaf constructor whose jets carry a singleton batch axis."""
    def batch_leaf(*args):
        jet = leaf(*args)
        return Jet(jet.value, jet.grad[:, None], jet.hess[..., None])
    return batch_leaf


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _value_div(left: float, right: float) -> float:
    if right == 0.0:
        raise DomainEvalError("division by zero")
    return left / right


def _value_pow(base: float, p: float) -> float:
    if base < 0.0 and p != int(p):
        raise DomainEvalError(f"negative base for non-integer power {p}")
    if base == 0.0 and p < 0.0:
        raise DomainEvalError("zero base for negative power")
    return base ** p


def _value_log(arg: float) -> float:
    if arg <= 0.0:
        raise DomainEvalError(f"log of nonpositive value {arg!r}")
    return math.log(arg)


def _value_sqrt(arg: float) -> float:
    if arg < 0.0:
        raise DomainEvalError(f"sqrt of negative value {arg!r}")
    return math.sqrt(arg)


def _value_leaf(value: float, *_) -> float:
    return value


def _batch_div(left, right):
    if np.any(right == 0.0):
        raise DomainEvalError("division by zero")
    return left / right


def _batch_value_pow(base, p: float):
    return _each(functools.partial(_value_pow, p=p), base)


# "/", "^" and the functions differ between the two arithmetics; "+", "-",
# "*" and negation are the operators of both floats and jets
_JET_OPS = {"/": operator.truediv, "^": operator.pow, "sin": Jet.sin,
            "cos": Jet.cos, "tan": Jet.tan, "exp": Jet.exp, "log": Jet.log,
            "sqrt": Jet.sqrt, "abs": abs}
_VALUE_OPS = {"/": _value_div, "^": _value_pow, "sin": math.sin,
              "cos": math.cos, "tan": math.tan, "exp": math.exp,
              "log": _value_log, "sqrt": _value_sqrt, "abs": abs}
# a batch of values applies the one-point functions element by element
_VALUE_BATCH_OPS = {
    **{name: functools.partial(_each, _VALUE_OPS[name])
       for name in ("sin", "cos", "tan", "exp", "log", "sqrt")},
    "/": _batch_div, "^": _batch_value_pow, "abs": abs}


class _Arithmetic(NamedTuple):
    """Leaves ``constant(value, n)`` and ``variable(value, index, n)`` over
    ``n`` variables, and the operations of that leaf type."""

    constant: Callable
    variable: Callable
    ops: dict


_JETS = (_Arithmetic(constant_jet, variable_jet, _JET_OPS),
         _Arithmetic(_batch_leaf(constant_jet), _batch_leaf(variable_jet),
                     _JET_OPS))
_VALUES = (_Arithmetic(_value_leaf, _value_leaf, _VALUE_OPS),
           _Arithmetic(_value_leaf, _value_leaf, _VALUE_BATCH_OPS))


def _evaluate(expr: Expr, point, arithmetics):
    """The one traversal behind :func:`eval_jet` and :func:`eval_value`, in
    the arithmetic of one point or, when the first coordinate is an array,
    of a batch (the other coordinates broadcast against it)."""
    point = tuple(point)
    n = len(expr.variables)
    if len(point) != n:
        raise ArityMismatchError(
            f"expected {n} coordinates for variables {expr.variables}, "
            f"got {len(point)}")
    index = {name: i for i, name in enumerate(expr.variables)}
    if point and type(point[0]) is np.ndarray:
        coords = np.broadcast_arrays(*(np.asarray(c, dtype=float)
                                       for c in point))
        if coords[0].ndim != 1:
            raise ValueError("a batch needs one-dimensional coordinate arrays")
        return batched(functools.partial(_run, expr.root, index, arithmetics),
                       *coords)
    constant, variable, ops = arithmetics[0]
    return _walk(expr.root, _Walk(tuple(map(float, point)), index, n,
                                  constant, variable, ops))


def _run(root: Node, index: dict, arithmetics, *coords):
    """One traversal over a batch (arrays), widened to the batch's full
    shape, or at one of its points (floats) when the batch reruns."""
    n = len(coords)
    if type(coords[0]) is not np.ndarray:
        return _walk(root, _Walk(coords, index, n, *arithmetics[0]))
    out = _walk(root, _Walk(coords, index, n, *arithmetics[1]))
    size = len(coords[0])
    if isinstance(out, Jet):
        return Jet(np.broadcast_to(out.value, (size,)).copy(),
                   np.broadcast_to(out.grad, (n, size)).copy(),
                   np.broadcast_to(out.hess, (n, n, size)).copy())
    return np.broadcast_to(out, (size,)).copy()


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


def eval_jet(expr: Expr, point) -> Jet:
    """Evaluate ``expr`` at ``point``, returning exact second-order data.

    ``point`` must have one entry per declared variable. Domain problems
    (division by zero, log/sqrt of a nonpositive argument, the abs kink)
    raise :class:`DomainEvalError` naming the offending subexpression.
    With one-dimensional coordinate arrays it evaluates that batch of N
    points in one pass (see :func:`batched`): the jet's shapes are (N,),
    (n, N) and (n, n, N), and a failing batch raises the error of its first
    failing point.
    """
    return _evaluate(expr, point, _JETS)


def eval_value(expr: Expr, point) -> float:
    """Value-only evaluation in float arithmetic, cheaper than
    :func:`eval_jet` and independent of it; ``sqrt`` and ``abs`` have a
    value at 0 where they have no jet. Coordinate arrays give a batch of
    values, shape (N,), as :func:`eval_jet` does."""
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
