"""Property tests: a batch of points evaluates exactly as its points do.

Random expressions in x and y use all seven functions, "/" and "^" with
integer and fractional exponents. A batched jet must equal the stacked
one-point jets (each a batch of one), and a batched value, like a one-point
value, must equal an independent float formulation of one point at a time
(:func:`float_value`), bit for bit (``==``, the sign of zero, nan where
nan); a batch in which some point fails must raise the error of the first
point that fails on its own.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ksub.errors import DomainEvalError  # noqa: E402
from ksub.expr import (  # noqa: E402
    FUNCTIONS, Binary, Call, Const, Expr, Neg, Power, Var, eval_jet,
    eval_value, parse)

EXPONENTS = ("0", "1", "2", "3", "-1", "-2", "0.5", "1.5", "-0.5", "2.5")

leaves = st.one_of(
    st.sampled_from(("x", "y")),
    st.floats(0.0, 4.0).map(lambda v: repr(round(v, 3))),
)


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children)
        .map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(st.sampled_from(FUNCTIONS), children)
        .map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, st.sampled_from(EXPONENTS))
        .map(lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda c: f"-({c})"),
    )


texts = st.recursive(leaves, _compound, max_leaves=8)
expressions = texts.map(lambda text: parse(text, ("x", "y")))
coordinates = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0, 1e-13)),
)
batches = st.lists(st.tuples(coordinates, coordinates), min_size=1,
                   max_size=6)


# The reference for batched values: the value arithmetic of one point in
# Python floats, each operation with its own domain check, independent of
# the batch code in ksub.expr. Functions and powers are numpy's kernels on
# one float; they raise where the math module's call of that float raises.

def _float_div(left: float, right: float) -> float:
    if right == 0.0:
        raise DomainEvalError("division by zero")
    return left / right


def _float_kernel(kernel, libm):
    """``kernel`` of floats, raising where ``libm`` of them raises."""
    def call(*args: float) -> float:
        try:
            libm(*args)
        except (OverflowError, ValueError) as err:
            what = "overflows" if isinstance(err, OverflowError) else (
                "is undefined")
            raise DomainEvalError(
                f"{kernel.__name__}({', '.join(map(repr, args))}) {what}"
            ) from None
        return float(kernel(*args))
    return call


_float_power = _float_kernel(np.power, math.pow)
_float_ln = _float_kernel(np.log, math.log)


def _float_pow(base: float, p: float) -> float:
    if base < 0.0 and p != int(p):
        raise DomainEvalError(f"negative base for non-integer power {p}")
    if base == 0.0 and p < 0.0:
        raise DomainEvalError("zero base for negative power")
    return _float_power(base, p)


def _float_log(arg: float) -> float:
    if arg <= 0.0:
        raise DomainEvalError(f"log of nonpositive value {arg!r}")
    return _float_ln(arg)


def _float_sqrt(arg: float) -> float:
    if arg < 0.0:
        raise DomainEvalError(f"sqrt of negative value {arg!r}")
    return math.sqrt(arg)


FLOAT_OPS = {"/": _float_div, "^": _float_pow,
             **{name: _float_kernel(getattr(np, name), getattr(math, name))
                for name in ("sin", "cos", "tan", "exp")},
             "log": _float_log, "sqrt": _float_sqrt, "abs": abs}


def _float_walk(node, values: dict, variables) -> float:
    try:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return values[node.name]
        if isinstance(node, Neg):
            return -_float_walk(node.arg, values, variables)
        if isinstance(node, Call):
            return FLOAT_OPS[node.func](_float_walk(node.arg, values,
                                                    variables))
        if isinstance(node, Power):
            return FLOAT_OPS["^"](_float_walk(node.base, values, variables),
                                  node.exponent)
        assert isinstance(node, Binary)
        left = _float_walk(node.left, values, variables)
        right = _float_walk(node.right, values, variables)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return FLOAT_OPS["/"](left, right)
    except DomainEvalError as err:
        if " in '" in str(err):
            raise
        raise DomainEvalError(
            f"{err} in '{Expr(node, variables)}'") from None


def float_value(expr, point) -> float:
    """``expr`` at one point in Python float arithmetic."""
    values = dict(zip(expr.variables, map(float, point)))
    return _float_walk(expr.root, values, expr.variables)


# numpy's power, exp, log and tan differ from libm's in the last bit on
# 0.1-5 % of arguments: seeded draws of 400 points meet such arguments,
# where random expressions might not, so a batch that took another kernel
# than its points' fails here
@pytest.mark.parametrize("text", [
    "x^2", "x^3", "x^-1", "y^-2", "x^1.5", "x^0.5", "1/x", "x/y",
    "sin(x)", "cos(x)", "tan(x)", "exp(x)", "log(x)", "sqrt(x)",
    "abs(x-y)", "exp(-(x^2+y^2)/4)*sin(x*y)+log(2+cos(y))/tan(x)",
])
def test_values_equal_the_float_reference_on_seeded_points(text):
    rng = np.random.default_rng(21)
    xs, ys = rng.uniform(0.05, 5.0, (2, 400))
    e = parse(text, ("x", "y"))
    expected = [float_value(e, p) for p in zip(xs.tolist(), ys.tolist())]
    _same_bits(eval_value(e, (xs, ys)), expected)
    if "/" not in text:  # a jet divides through the reciprocal
        _same_bits(eval_jet(e, (xs, ys)).value, expected)


def _one_by_one(evaluate, expr, points):
    """The stacked one-point results, or the first point's error."""
    results = []
    for point in points:
        try:
            results.append(evaluate(expr, point))
        except Exception as exc:  # noqa: BLE001 - compared with the batch's
            return None, exc
    return results, None


def _same_bits(batch, points):
    batch = np.asarray(batch, dtype=float)
    points = np.asarray(points, dtype=float)
    assert batch.shape == points.shape
    same = (batch == points) | (np.isnan(batch) & np.isnan(points))
    assert same.all()
    assert (np.signbit(batch) == np.signbit(points)).all()


def _point_by_point(evaluate):
    """``evaluate`` over a batch, one point of floats at a time."""
    def each(expr, batch):
        return [evaluate(expr, point)
                for point in zip(*(c.tolist() for c in batch))]
    return each


def _check(evaluate, expr, points, batch_evaluate=None):
    """The points evaluated one by one with ``evaluate`` and as one batch
    with ``batch_evaluate`` (the same by default); if a point fails, the
    batch must raise the first failing point's error. Random expressions
    overflow, and numpy's warnings about it are not compared here."""
    batch_evaluate = batch_evaluate or evaluate
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    with np.errstate(all="ignore"):
        expected, error = _one_by_one(evaluate, expr, points)
        if error is not None:
            with pytest.raises(type(error)) as got:
                batch_evaluate(expr, (xs, ys))
            assert str(got.value) == str(error)
            return None
        return expected, batch_evaluate(expr, (xs, ys))


@settings(max_examples=300, deadline=None)
@given(expressions, batches)
def test_batched_jets_equal_their_points(expr, points):
    checked = _check(eval_jet, expr, points)
    if checked is None:
        return
    expected, batch = checked
    _same_bits(batch.value, [jet.value for jet in expected])
    _same_bits(batch.grad, np.stack([jet.grad for jet in expected], axis=-1))
    _same_bits(batch.hess, np.stack([jet.hess for jet in expected], axis=-1))


@settings(max_examples=300, deadline=None)
@given(expressions, batches)
def test_batched_values_equal_their_points(expr, points):
    # the float reference point by point, against the batch and against
    # each point's own value (a batch of one), errors included
    for evaluate in (eval_value, _point_by_point(eval_value)):
        checked = _check(float_value, expr, points, evaluate)
        if checked is not None:
            _same_bits(checked[1], checked[0])

