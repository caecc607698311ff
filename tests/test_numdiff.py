import numpy as np
import pytest

from ksub import numdiff as nd


# Polynomials of degree <= 4 (<= 5 for d2): one Richardson level removes the
# h^2 error term, so the stencils are exact up to rounding.
def cubic(x):
    return 2.0 * x ** 4 - x ** 3 + 3.0 * x - 1.0


def cubic_d1(x):
    return 8.0 * x ** 3 - 3.0 * x ** 2 + 3.0


def cubic_d2(x):
    return 24.0 * x ** 2 - 6.0 * x


def poly2(p):
    x, y = p
    return x ** 3 * y - 2.0 * x * y ** 2 + y ** 4 + 0.5 * x


P = (0.3, -1.2)
X, Y = P
EXACT = {
    "x": 3.0 * X ** 2 * Y - 2.0 * Y ** 2 + 0.5,
    "y": X ** 3 - 4.0 * X * Y + 4.0 * Y ** 3,
    "xx": 6.0 * X * Y,
    "yy": -4.0 * X + 12.0 * Y ** 2,
    "xy": 3.0 * X ** 2 - 4.0 * Y,
}


def _extrapolated(stencil, h):
    # the Richardson step in the operand order of the numdiff module
    coarse = stencil(h)
    return (4.0 * stencil(0.5 * h) - coarse) / 3.0


def _shifted(p, *steps):
    # p moved by steps[k] along coordinate i_k, steps given as (i, step)
    q = list(p)
    for i, step in steps:
        q[i] += step
    return q


class TestScalarStencils:
    @pytest.mark.parametrize("x", [-0.8, 0.0, 1.7])
    def test_d1_exact_on_quartic(self, x):
        assert nd.d1(cubic, x, 0.05) == pytest.approx(cubic_d1(x), abs=1e-11)

    @pytest.mark.parametrize("x", [-0.8, 0.0, 1.7])
    def test_d2_exact_on_quartic(self, x):
        assert nd.d2(cubic, x, 0.05) == pytest.approx(cubic_d2(x), abs=1e-9)

    def test_richardson_beats_plain_central(self):
        exact = cubic_d1(0.9)
        central = (cubic(0.9 + 0.05) - cubic(0.9 - 0.05)) / (2.0 * 0.05)
        plain = abs(central - exact)
        extrapolated = abs(nd.d1(cubic, 0.9, 0.05) - exact)
        assert extrapolated < 1e-3 * plain


class TestPartials:
    def test_partial1(self):
        assert nd.partial1(poly2, P, 0, 0.01) == pytest.approx(
            EXACT["x"], abs=1e-10)
        assert nd.partial1(poly2, P, 1, 0.01) == pytest.approx(
            EXACT["y"], abs=1e-10)

    def test_partial2(self):
        _, _, hess = nd.derivatives(poly2, P, 0.01)
        assert hess[0, 0] == pytest.approx(EXACT["xx"], abs=1e-7)
        assert hess[1, 1] == pytest.approx(EXACT["yy"], abs=1e-7)

    def test_mixed2(self):
        _, _, hess = nd.derivatives(poly2, P, 0.01)
        assert hess[0, 1] == pytest.approx(EXACT["xy"], abs=1e-7)
        assert hess[1, 0] == hess[0, 1]

    def test_value_and_gradient(self):
        value, grad, _ = nd.derivatives(poly2, P, 0.01)
        assert value == poly2(P)
        np.testing.assert_allclose(grad, [EXACT["x"], EXACT["y"]], atol=1e-10)

    def test_point_is_not_mutated(self):
        p = [0.3, -1.2]
        nd.partial1(poly2, p, 0, 0.01)
        nd.derivatives(poly2, p, 0.01)
        assert p == [0.3, -1.2]


class TestArrayValued:
    @staticmethod
    def field(p):
        x, y = p
        return np.array([[x * y, x ** 2, 1.0], [y ** 3, x - y, x * y ** 2]])

    def test_shapes(self):
        for result in (nd.partial1(self.field, P, 0, 0.01),
                       nd.d1(lambda t: self.field((t, Y)), X, 0.01),
                       nd.d2(lambda t: self.field((t, Y)), X, 0.01)):
            assert result.shape == (2, 3)
        value, grad, hess = nd.derivatives(lambda q: self.field((q[0], Y)),
                                           (X,), 0.01)
        assert value.shape == (2, 3)
        assert grad.shape == (1, 2, 3)
        assert hess.shape == (1, 1, 2, 3)
        value, grad, hess = nd.derivatives(self.field, P, 0.01)
        assert value.shape == (2, 3)
        assert grad.shape == (2, 2, 3)
        assert hess.shape == (2, 2, 2, 3)

    def test_componentwise_values(self):
        got = nd.partial1(self.field, P, 1, 0.01)
        want = np.array([[X, 0.0, 0.0], [3.0 * Y ** 2, -1.0, 2.0 * X * Y]])
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestEvaluationPoints:
    @staticmethod
    def record(calls):
        def f(q):
            calls.append(tuple(q))
            return 0.0
        return f

    @pytest.mark.parametrize("i", [0, 1])
    def test_partial1_shifts_only_coordinate_i(self, i):
        p, h = (0.3, -1.2), 0.01
        calls = []
        nd.partial1(self.record(calls), p, i, h)
        want = set()
        for step in (h, -h, 0.5 * h, -0.5 * h):
            q = list(p)
            q[i] = p[i] + step
            want.add(tuple(q))
        assert set(calls) == want
        assert len(calls) == 4

    def test_derivatives_samples_17_distinct_points_once(self):
        p, h = (0.3, -1.2), 0.01
        calls = []
        nd.derivatives(self.record(calls), p, h)
        want = {tuple(p)}
        for s in (h, 0.5 * h):
            for t in (s, -s):
                want.add(tuple(_shifted(p, (0, t))))
                want.add(tuple(_shifted(p, (1, t))))
                want.add(tuple(_shifted(p, (0, t), (1, s))))
                want.add(tuple(_shifted(p, (0, t), (1, -s))))
        assert len(want) == 17
        assert sorted(calls) == sorted(want)

    def test_derivatives_of_one_variable_samples_5_points_once(self):
        x, h = 0.7, 0.01
        calls = []
        nd.derivatives(lambda q: calls.append(q[0]) or 0.0, (x,), h)
        want = [x, x + h, x - h, x + 0.5 * h, x - 0.5 * h]
        assert len(set(want)) == 5
        assert sorted(calls) == sorted(want)


class TestOnePassEqualsSeparateStencils:
    """Each entry of ``derivatives`` is the number the separate stencils give:
    ``partial1``/``d1`` for the gradient, and the second-difference and cross
    quotients written out here for the Hessian."""

    @staticmethod
    def field(p):
        x, y = p
        return np.array([np.sin(3.0 * x) * np.exp(y), x / (1.0 + y * y)])

    @pytest.mark.parametrize("h", [0.01, 1e-3, 0.037])
    @pytest.mark.parametrize("scalar", [True, False])
    def test_two_coordinates(self, h, scalar):
        f, p = (poly2 if scalar else self.field), (0.37, -0.81)
        value, grad, hess = nd.derivatives(f, p, h)
        assert np.array_equal(value, f(list(p)))
        for i in range(2):
            assert np.array_equal(grad[i], nd.partial1(f, p, i, h))

            def second(s, i=i):
                plus, minus = f(_shifted(p, (i, s))), f(_shifted(p, (i, -s)))
                return (plus - 2.0 * f(list(p)) + minus) / (s * s)

            assert np.array_equal(hess[i, i], _extrapolated(second, h))

        def cross(s):
            pp = f(_shifted(p, (0, s), (1, s)))
            pm = f(_shifted(p, (0, s), (1, -s)))
            mp = f(_shifted(p, (0, -s), (1, s)))
            mm = f(_shifted(p, (0, -s), (1, -s)))
            return (pp - pm - mp + mm) / (4.0 * s * s)

        assert np.array_equal(hess[0, 1], _extrapolated(cross, h))
        assert np.array_equal(hess[1, 0], hess[0, 1])

    @pytest.mark.parametrize("x", [-0.8, 0.0, 1.7])
    def test_one_coordinate(self, x):
        h = 0.05
        value, grad, hess = nd.derivatives(lambda q: cubic(q[0]), (x,), h)
        assert value == cubic(x)
        assert grad[0] == nd.d1(cubic, x, h)
        second = hess[0, 0]

        def stencil(s):
            return (cubic(x + s) - 2.0 * cubic(x) + cubic(x - s)) / (s * s)

        assert second == _extrapolated(stencil, h)
        assert nd.d2(cubic, x, h) == second
