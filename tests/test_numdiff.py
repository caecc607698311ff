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
        assert nd.partial2(poly2, P, 0, 0.01) == pytest.approx(
            EXACT["xx"], abs=1e-7)
        assert nd.partial2(poly2, P, 1, 0.01) == pytest.approx(
            EXACT["yy"], abs=1e-7)

    def test_mixed2(self):
        assert nd.mixed2(poly2, P, 0, 1, 0.01) == pytest.approx(
            EXACT["xy"], abs=1e-7)
        assert nd.mixed2(poly2, P, 1, 0, 0.01) == pytest.approx(
            EXACT["xy"], abs=1e-7)

    def test_point_is_not_mutated(self):
        p = [0.3, -1.2]
        nd.partial1(poly2, p, 0, 0.01)
        nd.mixed2(poly2, p, 0, 1, 0.01)
        assert p == [0.3, -1.2]


class TestArrayValued:
    @staticmethod
    def field(p):
        x, y = p
        return np.array([[x * y, x ** 2, 1.0], [y ** 3, x - y, x * y ** 2]])

    def test_shapes(self):
        for result in (nd.partial1(self.field, P, 0, 0.01),
                       nd.partial2(self.field, P, 1, 0.01),
                       nd.mixed2(self.field, P, 0, 1, 0.01),
                       nd.d1(lambda t: self.field((t, Y)), X, 0.01),
                       nd.d2(lambda t: self.field((t, Y)), X, 0.01)):
            assert result.shape == (2, 3)

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
