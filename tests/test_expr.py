import ast
import math
from pathlib import Path

import numpy as np
import pytest

import ksub

from ksub.errors import (
    ArityMismatchError,
    DomainEvalError,
    ExprSyntaxError,
    UndeclaredVariableError,
)
from ksub.expr import (Expr, batched, compose_jet, eval_jet, eval_value,
                       parse)


def fd_gradient(expr, point, h=1e-4):
    point = np.asarray(point, dtype=float)
    out = np.empty(len(point))
    for i in range(len(point)):
        plus = point.copy()
        plus[i] += h
        minus = point.copy()
        minus[i] -= h
        out[i] = (eval_value(expr, plus) - eval_value(expr, minus)) / (2 * h)
    return out


def fd_hessian(expr, point, h=1e-4):
    point = np.asarray(point, dtype=float)
    n = len(point)
    out = np.empty((n, n))
    f0 = eval_value(expr, point)
    for i in range(n):
        for j in range(n):
            if i == j:
                plus = point.copy()
                plus[i] += h
                minus = point.copy()
                minus[i] -= h
                out[i, i] = (eval_value(expr, plus) - 2 * f0
                             + eval_value(expr, minus)) / h**2
            else:
                pp = point.copy(); pp[i] += h; pp[j] += h
                pm = point.copy(); pm[i] += h; pm[j] -= h
                mp = point.copy(); mp[i] -= h; mp[j] += h
                mm = point.copy(); mm[i] -= h; mm[j] -= h
                out[i, j] = (eval_value(expr, pp) - eval_value(expr, pm)
                             - eval_value(expr, mp) + eval_value(expr, mm)) / (4 * h**2)
    return out


class TestParse:
    def test_bcv_conformal_factor(self):
        e = parse("1/(1+(1/4)*(x^2+y^2))", ("x", "y"))
        assert eval_value(e, (0.0, 0.0)) == 1.0
        assert eval_value(e, (2.0, 0.0)) == 0.5

    def test_single_variable(self):
        e = parse("x", ("x", "y"))
        assert eval_value(e, (3.0, 7.0)) == 3.0

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("1+", ("x",))
        assert err.value.position == 2

    def test_undeclared_variable(self):
        with pytest.raises(UndeclaredVariableError):
            parse("x+z", ("x", "y"))

    def test_variable_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x^y", ("x", "y"))
        assert "constant exponent" in str(err.value)

    def test_negative_exponent(self):
        e = parse("x^-2", ("x",))
        assert eval_value(e, (2.0,)) == 0.25

    def test_pi_constant(self):
        assert eval_value(parse("cos(pi)", ()), ()) == -1.0

    def test_scientific_notation(self):
        assert eval_value(parse("1.5e-3+2E2", ()), ()) == 0.0015 + 200.0

    def test_whitespace_insignificant(self):
        a = parse("1 + 2 * x", ("x",))
        b = parse("1+2*x", ("x",))
        assert a.root == b.root

    def test_unary_minus_binds_tighter_than_power(self):
        # per the grammar, -x^2 parses as (-x)^2
        assert eval_value(parse("-x^2", ("x",)), (3.0,)) == 9.0
        assert eval_value(parse("-(x^2)", ("x",)), (3.0,)) == -9.0

    def test_function_names_reserved(self):
        with pytest.raises(ValueError):
            parse("sin", ("sin",))

    def test_double_power_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("x^2^3", ("x",))


class TestRoundTrip:
    CASES = [
        "1/(1+(1/4)*(x^2+y^2))",
        "-x^2+3*x*y-sin(x)*cos(y)",
        "exp(-(x^2+y^2)/4)",
        "sqrt(x+2)/(y-5)",
        "x-(y-1)-2",
        "x/(y/2)/3",
        "abs(x)+tan(y)^2",
        "-(x+y)",
        "x^-1*y",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_print_parse_identical(self, text):
        e = parse(text, ("x", "y"))
        again = parse(str(e), ("x", "y"))
        assert e.root == again.root

    def test_random_trees_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            e = _random_expr(rng, ("x", "y"), safe=False)
            again = parse(str(e), ("x", "y"))
            assert e.root == again.root

    def test_invalid_inputs_raise_positioned_errors(self):
        rng = np.random.default_rng(8)
        junk = "([+*/^)#$"
        for _ in range(200):
            base = str(_random_expr(rng, ("x",), safe=False))
            pos = int(rng.integers(0, len(base) + 1))
            mutated = base[:pos] + junk[int(rng.integers(0, len(junk)))] + base[pos:]
            try:
                parse(mutated, ("x",))
            except ExprSyntaxError as err:
                assert isinstance(err.position, int)
            # anything else escaping would fail the test


def _random_expr(rng, variables, depth=0, safe=True) -> Expr:
    """Random expression tree; `safe` keeps evaluation smooth on [-1, 1]^n."""
    def node(depth):
        if depth > 3 or rng.random() < 0.25:
            if rng.random() < 0.5:
                return repr(round(float(rng.uniform(-2, 2)), 3))
            return variables[int(rng.integers(0, len(variables)))]
        kind = rng.integers(0, 6)
        if kind == 0:
            return f"({node(depth+1)}+{node(depth+1)})"
        if kind == 1:
            return f"({node(depth+1)}-{node(depth+1)})"
        if kind == 2:
            return f"({node(depth+1)}*{node(depth+1)})"
        if kind == 3:
            if safe:
                return f"({node(depth+1)}/(4+({node(depth+1)})^2))"
            return f"({node(depth+1)}/{node(depth+1)})"
        if kind == 4:
            fn = ("sin", "cos", "exp")[int(rng.integers(0, 3))]
            inner = node(depth + 1)
            return f"{fn}(({inner})/4)" if safe and fn == "exp" else f"{fn}({inner})"
        return f"({node(depth+1)})^{int(rng.integers(1, 4))}"

    return parse(node(depth), variables)


class TestJets:
    def test_square(self):
        jet = eval_jet(parse("x^2", ("x",)), (3.0,))
        assert jet.value == 9.0
        assert jet.grad[0] == 6.0
        assert jet.hess[0, 0] == 2.0

    def test_bcv_factor_at_origin(self):
        jet = eval_jet(parse("1/(1+(1/4)*(x^2+y^2))", ("x", "y")), (0.0, 0.0))
        assert jet.value == 1.0
        np.testing.assert_allclose(jet.grad, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(jet.hess, [[-0.5, 0.0], [0.0, -0.5]],
                                   atol=1e-15)

    def test_product_mixed_partial(self):
        jet = eval_jet(parse("sin(x)*y", ("x", "y")), (0.0, 2.0))
        assert jet.value == 0.0
        np.testing.assert_allclose(jet.grad, [2.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(jet.hess, [[0.0, 1.0], [1.0, 0.0]],
                                   atol=1e-15)

    def test_quadratics_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c, d, e, f = (round(float(v), 3) for v in rng.uniform(-3, 3, 6))
            text = f"{a!r}*x^2+{b!r}*x*y+{c!r}*y^2+{d!r}*x+{e!r}*y+{f!r}"
            x0, y0 = (float(v) for v in rng.uniform(-2, 2, 2))
            jet = eval_jet(parse(text, ("x", "y")), (x0, y0))
            assert jet.value == pytest.approx(
                a*x0*x0 + b*x0*y0 + c*y0*y0 + d*x0 + e*y0 + f, abs=1e-12)
            np.testing.assert_allclose(
                jet.grad, [2*a*x0 + b*y0 + d, b*x0 + 2*c*y0 + e], atol=1e-12)
            np.testing.assert_allclose(
                jet.hess, [[2*a, b], [b, 2*c]], atol=1e-12)

    def test_hessian_symmetric(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            e = _random_expr(rng, ("x", "y"))
            jet = eval_jet(e, rng.uniform(-1, 1, 2))
            np.testing.assert_allclose(jet.hess, jet.hess.T, atol=1e-12)

    def test_fd_agreement_100_random_cases(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 100:
            e = _random_expr(rng, ("x", "y"))
            point = rng.uniform(-1, 1, 2)
            jet = eval_jet(e, point)
            scale = max(1.0, float(np.max(np.abs(jet.grad))),
                        float(np.max(np.abs(jet.hess))))
            if scale > 1e3:  # skip badly conditioned draws
                continue
            np.testing.assert_allclose(fd_gradient(e, point), jet.grad,
                                       atol=1e-5 * scale)
            np.testing.assert_allclose(fd_hessian(e, point), jet.hess,
                                       atol=1e-4 * scale)
            checked += 1

    # each domain error at one point and inside a batch, whose first
    # failing point it is: the message names the point's value as a
    # Python float ("-1.0", never "np.float64(-1.0)" or "array([-1.])")
    @pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
    @pytest.mark.parametrize("text, x, message", [
        ("1/x", 0.0, "division by zero in '1.0/x'"),
        ("log(x)", -1.0, "log of nonpositive value -1.0 in 'log(x)'"),
        ("sqrt(x)", -4.0, "sqrt of nonpositive value -4.0 in 'sqrt(x)'"),
        ("x^0.5", -1.0,
         "negative base for non-integer power 0.5 in 'x^0.5'"),
        ("x^-1", 0.0, "power -1.0 not twice differentiable at 0 in 'x^-1.0'"),
        ("abs(x)", 1e-13, "abs is not differentiable at 0 in 'abs(x)'"),
    ])
    def test_domain_errors_name_subexpression(self, text, x, message,
                                              batch):
        point = (np.array([2.0, x, x - 1.0]),) if batch else (x,)
        with pytest.raises(DomainEvalError) as err:
            eval_jet(parse(text, ("x",)), point)
        assert str(err.value) == message

    def test_abs_kink(self):
        with pytest.raises(DomainEvalError):
            eval_jet(parse("abs(x)", ("x",)), (1e-13,))
        jet = eval_jet(parse("abs(x)", ("x",)), (-2.0,))
        assert jet.value == 2.0
        assert jet.grad[0] == -1.0
        assert jet.hess[0, 0] == 0.0

    def test_point_arity_checked(self):
        for evaluate in (eval_jet, eval_value):
            with pytest.raises(ArityMismatchError):
                evaluate(parse("x", ("x", "y")), (1.0,))

    @pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
    @pytest.mark.parametrize("text, x, message", [
        ("1/x", 0.0, "division by zero in '1.0/x'"),
        ("log(x)", -1.0, "log of nonpositive value -1.0 in 'log(x)'"),
        ("sqrt(x)", -4.0, "sqrt of negative value -4.0 in 'sqrt(x)'"),
        ("x^0.5", -1.0,
         "negative base for non-integer power 0.5 in 'x^0.5'"),
        ("x^-1", 0.0, "zero base for negative power in 'x^-1.0'"),
    ])
    def test_value_domain_errors_name_subexpression(self, text, x, message,
                                                    batch):
        point = (np.array([2.0, x, x - 1.0]),) if batch else (x,)
        with pytest.raises(DomainEvalError) as err:
            eval_value(parse(text, ("x",)), point)
        assert str(err.value) == message

    def test_annotation_names_innermost_subexpression(self):
        e = parse("2+3*log(x)", ("x",))
        for evaluate in (eval_jet, eval_value):
            with pytest.raises(DomainEvalError) as err:
                evaluate(e, (0.0,))
            assert str(err.value) == "log of nonpositive value 0.0 in 'log(x)'"

    @pytest.mark.parametrize("text", ["sqrt(x)", "abs(x)"])
    def test_value_exists_where_jet_does_not(self, text):
        # the float path has a value at 0; the jet path needs derivatives
        e = parse(text, ("x",))
        assert eval_value(e, (0.0,)) == 0.0
        with pytest.raises(DomainEvalError):
            eval_jet(e, (0.0,))


class TestBatch:
    # the libm results of numpy's own array power, exp, log and tan differ
    # in the last bit on 0.1-5 % of arguments: seeded draws of 400 points
    # meet every such difference
    @pytest.mark.parametrize("text", [
        "x^2", "x^3", "x^-1", "y^-2", "x^1.5", "x^0.5", "1/x", "x/y",
        "sin(x)", "cos(x)", "tan(x)", "exp(x)", "log(x)", "sqrt(x)",
        "abs(x-y)", "exp(-(x^2+y^2)/4)*sin(x*y)+log(2+cos(y))/tan(x)",
    ])
    def test_batch_equals_its_points_bit_for_bit(self, text):
        rng = np.random.default_rng(21)
        xs, ys = rng.uniform(0.05, 5.0, (2, 400))
        e = parse(text, ("x", "y"))
        jets = [eval_jet(e, p) for p in zip(xs.tolist(), ys.tolist())]
        batch = eval_jet(e, (xs, ys))
        assert batch.value.shape == (400,)
        assert batch.grad.shape == (2, 400)
        assert batch.hess.shape == (2, 2, 400)
        np.testing.assert_array_equal(batch.value, [j.value for j in jets])
        np.testing.assert_array_equal(batch.grad,
                                      np.stack([j.grad for j in jets], -1))
        np.testing.assert_array_equal(batch.hess,
                                      np.stack([j.hess for j in jets], -1))
        np.testing.assert_array_equal(
            eval_value(e, (xs, ys)),
            [eval_value(e, p) for p in zip(xs.tolist(), ys.tolist())])

    def test_constant_expression_fills_the_batch(self):
        batch = eval_jet(parse("2^3+1", ("x", "y")), (np.zeros(3), np.ones(3)))
        np.testing.assert_array_equal(batch.value, [9.0, 9.0, 9.0])
        np.testing.assert_array_equal(batch.grad, np.zeros((2, 3)))
        np.testing.assert_array_equal(
            eval_value(parse("pi", ("x",)), (np.zeros(2),)),
            [np.pi, np.pi])

    def test_failing_batch_raises_its_first_failing_points_error(self):
        # one point at a time, (0.5, -1) fails in sqrt before (-1, 2)
        # reaches log; a batch walks log first, so it must rerun per point
        e = parse("log(x)+sqrt(y)", ("x", "y"))
        xs, ys = np.array([1.0, 0.5, -1.0]), np.array([1.0, -1.0, 2.0])
        for evaluate in (eval_jet, eval_value):
            with pytest.raises(DomainEvalError) as one:
                evaluate(e, (0.5, -1.0))
            with pytest.raises(DomainEvalError) as batch:
                evaluate(e, (xs, ys))
            assert str(batch.value) == str(one.value)

    @staticmethod
    def _failing(bad, calls):
        # raises at the points of `bad`; a batch names its size and its
        # first bad point, so a batch's error differs from its point's
        def fn(xs):
            calls.append(len(xs))
            hits = [x for x in xs.tolist() if x in bad]
            if hits:
                raise DomainEvalError(f"{len(xs)} points, first bad {hits[0]}")
            return xs * 2.0
        return fn

    @pytest.mark.parametrize("bad", [{143.0}, {0.0}, {37.0, 100.0, 143.0},
                                     set(map(float, range(50, 144)))])
    def test_failing_batch_bisects_to_its_first_failing_point(self, bad):
        # rerunning every point before the first bad one took n + 1 calls
        # (145 when only the last of 144 fails); bisection takes a batch
        # per halving and the bad point once more on its own
        calls = []
        with pytest.raises(DomainEvalError) as err:
            batched(self._failing(bad, calls), np.arange(144.0))
        assert str(err.value) == f"1 points, first bad {min(bad)}"
        assert calls[-1] == 1
        assert len(calls) <= 2 * math.ceil(math.log2(144)) + 2

    def test_batch_error_stands_when_no_point_fails_alone(self):
        calls = []
        fail = self._failing({5.0}, calls)

        def fn(xs):
            # only the whole batch fails
            return fail(xs if len(xs) == 8 else xs + 100.0)

        with pytest.raises(DomainEvalError, match="^8 points, first bad 5"):
            batched(fn, np.arange(8.0))
        assert calls[0] == 8 and calls[-1] == 1 and len(calls) <= 8

    def test_batch_coordinates_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            eval_jet(parse("x", ("x",)), (np.zeros((2, 2)),))

    def test_one_point_results_are_floats_and_arrays(self):
        e = parse("x*y^2", ("x", "y"))
        jet = eval_jet(e, (2.0, 3.0))
        assert type(jet.value) is float and jet.value == 18.0
        assert jet.grad.shape == (2,) and jet.hess.shape == (2, 2)
        assert type(eval_value(e, (2.0, 3.0))) is float

    # a point is a batch of one: only a public entry point that takes a
    # float may ask whether it holds an array, to hand back its point
    POINT_ENTRIES = {
        "expr": {"eval_jet", "eval_value"},
        "geometry": {"KillingData.base_jets", "_as_batch"},
        "hopf": {"ReparamCurve.point_jets", "geodesic_curvature"},
    }

    def test_point_or_array_branches_only_at_float_entry_points(self):
        found = {}
        for path in sorted(Path(ksub.__file__).parent.glob("*.py")):
            for scope in _array_branches(ast.parse(path.read_text())):
                found.setdefault(path.stem, []).append(scope)
        assert {module: sorted(scopes) for module, scopes in found.items()} \
            == {module: sorted(names)
                for module, names in self.POINT_ENTRIES.items()}


def _array_branches(tree) -> list[str]:
    """The qualified names of the functions holding a ``type(...) is
    np.ndarray`` or ``is not`` test, one entry per test."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Compare)
                    and isinstance(child.left, ast.Call)
                    and ast.unparse(child.left.func) == "type"
                    and all(isinstance(op, (ast.Is, ast.IsNot))
                            for op in child.ops)
                    and any(ast.unparse(c) == "np.ndarray"
                            for c in child.comparators)):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


class TestCompose:
    def test_square_of_identity(self):
        outer = eval_jet(parse("u^2", ("u",)), (3.0,))
        inner = eval_jet(parse("t", ("t",)), (3.0,))
        out = compose_jet(outer, [inner])
        assert out.value == 9.0
        assert out.grad[0] == 6.0
        assert out.hess[0, 0] == 2.0

    def test_along_horizontal_line_recovers_partial(self):
        field = parse("x^2*y+sin(x)", ("x", "y"))
        t0 = 0.7
        outer = eval_jet(field, (t0, 0.0))
        inner_x = eval_jet(parse("t", ("t",)), (t0,))
        inner_y = eval_jet(parse("0", ("t",)), (t0,))
        out = compose_jet(outer, [inner_x, inner_y])
        assert out.grad[0] == pytest.approx(outer.grad[0], abs=1e-14)

    def test_matches_symbolic_substitution(self):
        outer_text = "x^2*y+y^3-x"
        x_text = "t^3-2*t"
        y_text = "t^2+1"
        outer = parse(outer_text, ("x", "y"))
        xs = parse(x_text, ("t",))
        ys = parse(y_text, ("t",))
        literal = parse(
            f"(({x_text}))^2*(({y_text}))+(({y_text}))^3-(({x_text}))", ("t",))
        for t0 in (-1.3, 0.2, 0.9):
            jx = eval_jet(xs, (t0,))
            jy = eval_jet(ys, (t0,))
            fo = eval_jet(outer, (jx.value, jy.value))
            composed = compose_jet(fo, [jx, jy])
            direct = eval_jet(literal, (t0,))
            assert composed.value == pytest.approx(direct.value, rel=1e-12)
            assert composed.grad[0] == pytest.approx(direct.grad[0], rel=1e-12)
            assert composed.hess[0, 0] == pytest.approx(direct.hess[0, 0],
                                                        rel=1e-10, abs=1e-10)

    def test_random_cubics_match_fd(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a, b, c = (round(float(v), 3) for v in rng.uniform(-2, 2, 3))
            outer = parse(f"{a!r}*x^3+{b!r}*x*y^2+{c!r}*y", ("x", "y"))
            xs = parse("t^3-t", ("t",))
            ys = parse("2*t^2+t", ("t",))
            t0 = float(rng.uniform(-1, 1))

            def value(t):
                xv = eval_value(xs, (t,))
                yv = eval_value(ys, (t,))
                return eval_value(outer, (xv, yv))

            jx = eval_jet(xs, (t0,))
            jy = eval_jet(ys, (t0,))
            fo = eval_jet(outer, (jx.value, jy.value))
            composed = compose_jet(fo, [jx, jy])
            h = 1e-4
            fd1 = (value(t0 + h) - value(t0 - h)) / (2 * h)
            fd2 = (value(t0 + h) - 2 * value(t0) + value(t0 - h)) / h**2
            assert composed.grad[0] == pytest.approx(fd1, abs=1e-6 * max(1, abs(fd1)))
            assert composed.hess[0, 0] == pytest.approx(fd2, abs=1e-4 * max(1, abs(fd2)))

    def test_arity_mismatch(self):
        outer = eval_jet(parse("x+y", ("x", "y")), (1.0, 2.0))
        inner = eval_jet(parse("t", ("t",)), (1.0,))
        with pytest.raises(ArityMismatchError):
            compose_jet(outer, [inner])
        other = eval_jet(parse("u", ("u", "w")), (1.0, 1.0))
        with pytest.raises(ArityMismatchError):
            compose_jet(outer, [inner, other])

    def test_two_parameter_inners(self):
        # base field along a two-parameter immersion: jets in (u, v)
        field = parse("x^2+x*y", ("x", "y"))
        xs = parse("u*v", ("u", "v"))
        ys = parse("u+v^2", ("u", "v"))
        literal = parse("(u*v)^2+(u*v)*(u+v^2)", ("u", "v"))
        for point in ((0.3, -0.5), (1.1, 0.2)):
            jx = eval_jet(xs, point)
            jy = eval_jet(ys, point)
            outer = eval_jet(field, (jx.value, jy.value))
            composed = compose_jet(outer, [jx, jy])
            direct = eval_jet(literal, point)
            assert composed.value == pytest.approx(direct.value, abs=1e-12)
            np.testing.assert_allclose(composed.grad, direct.grad, atol=1e-12)
            np.testing.assert_allclose(composed.hess, direct.hess, atol=1e-12)
