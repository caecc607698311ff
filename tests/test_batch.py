"""Property tests: a batch of points evaluates exactly as its points do.

Random expressions in x and y use all seven functions, "/" and "^" with
integer and fractional exponents. A batched jet or value must equal the
stacked one-point results bit for bit (``==``, the sign of zero, nan where
nan), and a batch in which some point fails must raise the error of the
first point that fails on its own.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ksub.expr import FUNCTIONS, eval_jet, eval_value, parse  # noqa: E402

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


expressions = st.recursive(leaves, _compound, max_leaves=8).map(
    lambda text: parse(text, ("x", "y")))
coordinates = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0, 1e-13)),
)
batches = st.lists(st.tuples(coordinates, coordinates), min_size=1,
                   max_size=6)


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


def _check(evaluate, expr, points):
    expected, error = _one_by_one(evaluate, expr, points)
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    if error is not None:
        with pytest.raises(type(error)) as got:
            evaluate(expr, (xs, ys))
        assert str(got.value) == str(error)
        return None
    return expected, evaluate(expr, (xs, ys))


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
    checked = _check(eval_value, expr, points)
    if checked is None:
        return
    expected, batch = checked
    _same_bits(batch, expected)

