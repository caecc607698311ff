import ast
import dataclasses
import functools
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

import ksub
from ksub import expr
from ksub import surface as srf

from ksub.errors import (
    ArityMismatchError,
    DomainEvalError,
    ExprSyntaxError,
    KsubError,
    POINT_FAILURES,
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


# each grammar function on an argument inside its smooth domain
SMOOTH_CALLS = {"sin": "sin({})", "cos": "cos({})", "tan": "tan(sin({})/2)",
                "exp": "exp(({})/4)", "log": "log(2+({})^2)",
                "sqrt": "sqrt(1+({})^2)", "abs": "abs(1.5+sin({}))"}


def _random_expr(rng, variables, depth=0, safe=True) -> Expr:
    """Random expression tree over every grammar function; `safe` keeps
    evaluation smooth on [-1, 1]^n."""
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
            fn = expr.FUNCTIONS[int(rng.integers(0, len(expr.FUNCTIONS)))]
            inner = node(depth + 1)
            return SMOOTH_CALLS[fn].format(inner) if safe else f"{fn}({inner})"
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

    # one case per grammar function, at a point inside its smooth domain;
    # abs's argument is negative there
    SYMPY_CASES = {"sin": "sin(x*y+0.3)", "cos": "cos(x-2*y)",
                   "tan": "tan(x/4+y^2/3)", "exp": "exp(x*y/2)",
                   "log": "log(2+x^2+y)", "sqrt": "sqrt(1+x^2+y^2/2)",
                   "abs": "abs(1.5*y+sin(x))"}

    @pytest.mark.parametrize("name", expr.FUNCTIONS)
    def test_every_function_jet_equals_sympy(self, name):
        sympy = pytest.importorskip("sympy")
        text = self.SYMPY_CASES[name]
        x, y = sympy.symbols("x y", real=True)
        f = sympy.sympify(text.replace("^", "**"), locals={"x": x, "y": y})
        point = (0.3, -0.7)

        def at(g):
            return float(g.subs({x: point[0], y: point[1]}).evalf(30))

        jet = eval_jet(parse(text, ("x", "y")), point)
        np.testing.assert_allclose(jet.value, at(f), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            jet.grad, [at(sympy.diff(f, v)) for v in (x, y)],
            rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            jet.hess, [[at(sympy.diff(f, v, w)) for w in (x, y)]
                       for v in (x, y)], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("c", [-4.0, 0.5])
    def test_float_operands_equal_constant_jet_operands(self, c):
        # a power of two, so dividing by c and multiplying by its
        # reciprocal round alike; + 0.0 sets both signed zeros to +0.0
        jet = eval_jet(parse("sin(x)*y+x^2", ("x", "y")), (0.3, -0.7))
        const = expr.Jet(c, np.zeros(2), np.zeros((2, 2)))
        for got, want in ((jet * c, jet * const), (c * jet, const * jet),
                          (jet / c, jet / const), (c / jet, const / jet)):
            assert [np.asarray(part + 0.0).tobytes()
                    for part in (got.value, got.grad, got.hess)] == [
                np.asarray(part + 0.0).tobytes()
                for part in (want.value, want.grad, want.hess)]

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

    # a batch whose first nonpositive element sits at index k, after
    # elements that log takes: a nan, an inf and a tiny positive value
    LOG_BATCHES = [[v] for v in (0.0, -0.0, -1e-300, math.nan, math.inf)] + [
        [2.5, math.nan, math.inf, 1e-300][:k] + [bad, -1.0, 0.0]
        for k, bad in enumerate((0.0, -0.0, -1e-300, 0.0, -0.0))] + [
        [2.5, math.nan, math.inf, 1e-300, 1e300]]

    @pytest.mark.parametrize("xs", LOG_BATCHES, ids=str)
    def test_value_log_checks_its_batch_in_element_order(self, xs):
        # the reference: log of each element in turn as a float, raising
        # at the first nonpositive one
        def outcome(run):
            try:
                return np.asarray(run(), dtype=float).tobytes()
            except DomainEvalError as err:
                return type(err), str(err)

        def reference():
            for v in xs:
                if v <= 0.0:
                    raise DomainEvalError(
                        f"log of nonpositive value {v!r} in 'log(x)'")
            return [math.log(v) for v in xs]

        e = parse("log(x)", ("x",))
        want = outcome(reference)
        assert outcome(lambda: eval_value(e, (np.array(xs),))) == want
        if len(xs) == 1:
            assert outcome(lambda: eval_value(e, (xs[0],))) == want

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
    # numpy's power, exp, log and tan differ from libm's in the last bit on
    # 0.1-5 % of arguments: seeded draws of 400 points meet such arguments
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

    def test_non_finite_batch_runs_once(self):
        # a batch that raises nothing stands as it is: its first non-finite
        # point was run again alone, only for its numpy warnings
        calls = []

        def fn(xs):
            calls.append(len(xs))
            return np.where(xs > 2.0, math.inf, xs)

        out = batched(fn, np.arange(8.0))
        assert calls == [8]
        assert out.tolist() == [0.0, 1.0, 2.0] + [math.inf] * 5

    def test_a_defects_value_error_is_not_bisected(self):
        # only an input or arithmetic error makes a point fail; a defect's
        # ValueError leaves the batch's one run unsearched (it took 8 calls)
        calls = []

        def fn(xs):
            calls.append(len(xs))
            raise ValueError("shape mismatch")

        with pytest.raises(ValueError, match="^shape mismatch$") as err:
            batched(fn, np.arange(64.0))
        assert calls == [64] and not isinstance(err.value, KsubError)

    def test_batch_coordinates_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            eval_jet(parse("x", ("x",)), (np.zeros((2, 2)),))

    def test_one_point_results_are_floats_and_arrays(self):
        e = parse("x*y^2", ("x", "y"))
        jet = eval_jet(e, (2.0, 3.0))
        assert type(jet.value) is float and jet.value == 18.0
        assert jet.grad.shape == (2,) and jet.hess.shape == (2, 2)
        assert type(eval_value(e, (2.0, 3.0))) is float

    # a point is a batch of one: only the one adapter asks whether it holds
    # an array, to run a point as a batch of one and hand back its point
    POINT_ENTRIES = {"expr": {"at_point"}}

    def test_point_or_array_branches_only_at_float_entry_points(self):
        found = {}
        for path in sorted(Path(ksub.__file__).parent.glob("*.py")):
            for scope in _array_branches(ast.parse(path.read_text())):
                found.setdefault(path.stem, []).append(scope)
        assert {module: sorted(scopes) for module, scopes in found.items()} \
            == {module: sorted(names)
                for module, names in self.POINT_ENTRIES.items()}

    def test_only_the_adapter_makes_a_batch_of_one(self):
        # a batch of one built by hand from a float is a second adapter
        found = {}
        for path in sorted(Path(ksub.__file__).parent.glob("*.py")):
            for scope in _scopes_where(ast.parse(path.read_text()),
                                       _is_batch_of_one):
                found.setdefault(path.stem, []).append(scope)
        assert found == {"expr": ["at_point"]}

    def test_defaulted_parameters_stay_counted(self):
        # every parameter with a default, and each **kwargs, is a knob; a
        # change that adds one raises this number on purpose
        knobs = 0
        for path in Path(ksub.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    args = node.args
                    knobs += (len(args.defaults)
                              + sum(d is not None for d in args.kw_defaults)
                              + (args.kwarg is not None))
        assert knobs <= 26

    def test_surface_stencils_take_no_callback(self):
        # the surface and biharmonic derivatives are quotients over lattice
        # columns, the Hopf sweep's over its stencil columns; a lambda or a
        # bound method handed to a numdiff stencil would read the points
        # one record (or one column) at a time again
        assert _callback_stencils("surface") == []
        assert _callback_stencils("biharmonic") == []
        assert _callback_stencils("hopf") == []

    def test_geometry_forms_no_derivative_through_a_callback(self):
        # the FD oracles of geometry difference batches of their stencil
        # points with numdiff's quotient formers; none samples a field
        # through numdiff's callback entry points
        source = (Path(ksub.__file__).parent / "geometry.py").read_text()
        callers = ("partial1", "derivatives", "d1", "d2")
        assert [ast.unparse(node) for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Call)
                and ast.unparse(node.func).split(".")[-1] in callers] == []


class TestOneOwnerPerBatchRule:
    # each batch rule is decided in the one module that owns it: numdiff
    # forms the stencil slopes, expr the elementwise hypot and the search
    # for a failing batch's first point, surface the masked lattice compute
    @staticmethod
    def owners(test) -> dict[str, list[str]]:
        found = {}
        for path in sorted(Path(ksub.__file__).parent.glob("*.py")):
            for scope in _scopes_where(ast.parse(path.read_text()), test):
                found.setdefault(path.stem, []).append(scope)
        return found

    @staticmethod
    def calls(name: str):
        return lambda node: (isinstance(node, ast.Call)
                             and ast.unparse(node.func).split(".")[-1] == name)

    def test_only_numdiff_forms_first_derivatives(self):
        assert set(self.owners(self.calls("_first"))) == {"numdiff"}

    def test_only_expr_calls_hypot(self):
        assert set(self.owners(
            lambda node: isinstance(node, ast.Attribute)
            and ast.unparse(node) == "np.hypot")) == {"expr"}

    def test_only_surface_takes_a_sub_lattice(self):
        # a lattice's take, not numpy's
        assert set(self.owners(
            lambda node: self.calls("take")(node)
            and ast.unparse(node.func.value) != "np")) == {"surface"}

    def test_surface_builds_only_through_batched(self):
        # every batch of lattice rows that raises its error, the regularity
        # grid's too, finds its first failing point through batched, which
        # _batch hands _build; the prefetch alone tries its batch once and
        # drops its error unsearched
        assert self.owners(self.calls("_build")) == {
            "surface": ["_batch", "_Lattice._prefetch"]}

    def test_the_lattice_alone_guards_the_adapted_frame(self):
        assert not hasattr(srf.SurfaceEvaluator, "adapted")

    def test_a_points_failures_are_named_once(self):
        # the exceptions that make a point of a batch fail are one tuple,
        # errors.POINT_FAILURES, which expr.batched and the lattice prefetch
        # read
        assert self.owners(
            lambda node: isinstance(node, ast.Tuple)
            and {"ArithmeticError", "KsubError"}
            <= {ast.unparse(elt) for elt in node.elts}) == {"errors": [""]}
        assert POINT_FAILURES == (ArithmeticError, KsubError)

    def test_value_error_is_named_only_as_the_input_errors_base(self):
        # every input error is a KsubError: no raise makes a ValueError of
        # another kind, and no except catches a defect's ValueError as input
        assert self.owners(
            lambda node: isinstance(node, ast.Name)
            and node.id == "ValueError") == {"errors": ["KsubError"]}
        assert not any("UsageError" in path.read_text() for path in
                       Path(ksub.__file__).parent.glob("*.py"))


class TestOneOwnerPerDomainRule:
    # each domain rule is checked in one place: the metric's rectangle where
    # a batch of base jets is evaluated (a memoised batch was checked then),
    # each analytic domain of expr where its message is formed, for values
    # and jets alike
    owners = staticmethod(TestOneOwnerPerBatchRule.owners)

    def test_only_the_base_jet_miss_path_checks_the_rectangle(self):
        assert self.owners(TestOneOwnerPerBatchRule.calls("require_inside")) \
            == {"geometry": ["KillingData._eval_base_jets"]}

    def test_lam_is_checked_positive_where_it_is_read(self):
        # by value on the validation grid, where a batch of base jets is
        # evaluated, and on the unmemoised lam jet of the speed of a curve
        assert self.owners(
            TestOneOwnerPerBatchRule.calls("require_positive")) == {
                "geometry": ["KillingData.__post_init__",
                             "KillingData._eval_base_jets"],
                "hopf": ["ConformalBase.speed_jet"]}

    def test_the_metric_is_read_by_value_only_on_the_validation_grid(self):
        # every other read of lam, a or b is a memoised, checked base jet
        assert self.owners(lambda node: (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("lam", "a", "b"))) \
            == {"geometry": ["KillingData.__post_init__"]}

    @pytest.mark.parametrize("message, owner", [
        ("division by zero", "_divide"),
        # the value arithmetic's log, which Jet.log calls
        ("log of nonpositive", ""),
        ("sqrt of nonpositive", "Jet.sqrt"),
    ])
    def test_each_analytic_domain_message_is_formed_once(self, message,
                                                         owner):
        tree = ast.parse(Path(expr.__file__).read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef,
                                           ast.FunctionDef))
                      and isinstance(node.body[0], ast.Expr)}
        assert _scopes_where(tree, lambda node: (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and message in node.value
            and id(node) not in docstrings)) == [owner]


def _signed(rng, top: float) -> np.ndarray:
    """370 signed arguments whose magnitudes spread over the binades from
    1e-3 to 10**top."""
    return rng.choice([-1.0, 1.0], 370) * 10.0 ** rng.uniform(-3.0, top, 370)


def _positive(rng) -> np.ndarray:
    return 10.0 ** rng.uniform(-3.0, 3.0, 370)


# each numpy kernel the package applies to a batch, with arguments from its
# domain; power at the exponents of the power rule for the literals of
# test_batch (p, p - 1 and p - 2) and the package's own squares and cubes
KERNELS = {
    "sin": (np.sin, lambda rng: [_signed(rng, 3.0)]),
    "cos": (np.cos, lambda rng: [_signed(rng, 3.0)]),
    "tan": (np.tan, lambda rng: [_signed(rng, 3.0)]),
    "exp": (np.exp, lambda rng: [_signed(rng, 2.8)]),
    "log": (np.log, lambda rng: [_positive(rng)]),
    "sqrt": (np.sqrt, lambda rng: [_positive(rng)]),
    "arccos": (np.arccos, lambda rng: [rng.uniform(-1.0, 1.0, 370)]),
    "square": (np.square, lambda rng: [_signed(rng, 3.0)]),
    "hypot": (np.hypot, lambda rng: [_signed(rng, 3.0), _signed(rng, 3.0)]),
    **{f"power^{p}": (lambda x, p=p: np.power(x, p),
                      lambda rng: [_positive(rng)])
       for p in (-3.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.5, 1.5, 2.0, 2.5,
                 3.0)},
}

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
LIBM = {"sin", "cos", "tan", "exp", "log", "acos", "asin", "atan", "atan2",
        "hypot", "pow", "sqrt"}


def _libm_loops(tree) -> list[str]:
    """The comprehensions that apply a math function, pow, ``**`` or a
    function-valued parameter to the elements of a batch (its ``.tolist()``
    or a parameter iterated as it is)."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
        for comp in ast.walk(fn):
            if not isinstance(comp, _COMPREHENSIONS):
                continue
            over_batch = any(
                ast.unparse(g.iter) in params
                or any(isinstance(n, ast.Attribute) and n.attr == "tolist"
                       for n in ast.walk(g.iter))
                for g in comp.generators)
            elt = comp.value if isinstance(comp, ast.DictComp) else comp.elt
            applies = any(
                isinstance(n, ast.Call)
                and (ast.unparse(n.func).startswith("math.")
                     or ast.unparse(n.func) in params | {"pow"})
                or isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                for n in ast.walk(elt))
            if over_batch and applies:
                found.append(ast.unparse(comp))
    return found


class TestElementwiseKernels:
    # a batch takes each function and power by numpy's kernel, which gives
    # an element the bits it gets in a batch of one; math keeps to the float
    # code of one point
    def test_no_function_is_applied_element_by_element(self):
        for path in sorted(Path(ksub.__file__).parent.glob("*.py")):
            source = path.read_text()
            assert "frompyfunc" not in source, path.name
            assert _libm_loops(ast.parse(source)) == [], path.name

    def test_math_functions_stay_in_float_code(self):
        found = {}
        for path in sorted(Path(ksub.__file__).parent.glob("*.py")):
            for scope in _scopes_where(
                    ast.parse(path.read_text()),
                    lambda node: isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[0] == "math"
                    and ast.unparse(node.func).split(".")[-1] in LIBM):
                found.setdefault(path.stem, set()).add(scope)
        assert found == {
            "biharmonic": {"angle_shape_alt_assembly",
                           "angle_system_scalars", "classify_scalars"},
            "hopf": {"circle_radius_for_kappa"},
            "verify": {"_random_graph", "check_branch_logic",
                       "check_surface_identities"},
        }

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_a_batch_has_the_bits_of_its_batches_of_one(self, name):
        # a build of numpy whose kernel takes another path for a long batch,
        # its tail or a start off the buffer's alignment fails here by name
        kernel, draw = KERNELS[name]
        args = draw(np.random.default_rng(29))
        for n in (1, 2, 17, 369):
            for start in (0, 1):  # 1: an offset slice
                part = [a[start:start + n] for a in args]
                ones = [kernel(*(a[i:i + 1] for a in part)) for i in range(n)]
                assert kernel(*part).tobytes() == np.concatenate(
                    ones).tobytes(), (n, start)

    SPECIAL = (0.0, -0.0, 0.5, -2.0, math.pi / 2, 709.0, 710.0, -746.0,
               1e-320, -1e-320, 1e154, 1e200, -1e200, 1.7976931348623157e308,
               math.inf, -math.inf, math.nan)

    @staticmethod
    def _raises(call) -> bool:
        try:
            with np.errstate(all="ignore"):
                call()
        except (OverflowError, ValueError, DomainEvalError):
            return True
        return False

    @pytest.mark.parametrize("name", ["sin", "cos", "tan", "exp", "log"])
    def test_a_function_raises_where_libm_raised(self, name):
        libm, ufunc = getattr(math, name), getattr(np, name)
        assert [x for x in self.SPECIAL
                if self._raises(lambda: libm(x))
                != self._raises(lambda: expr._kernel(ufunc, np.array([x])))
                ] == []

    @pytest.mark.parametrize("p", [2.0, 3.0, -1.0, -1.5, 0.5, 1.5])
    def test_power_raises_where_libm_raised(self, p):
        # a negative base meets the check for a non-integer power first
        # (numpy's power of -inf to 0.5 is nan where libm's is inf)
        bases = [x for x in self.SPECIAL if p == int(p) or not x < 0.0]
        assert [x for x in bases
                if self._raises(lambda: math.pow(x, p))
                != self._raises(lambda: expr.power(np.array([x]), p))] == []

    def test_hypot_overflows_to_inf_as_libm_does(self):
        assert math.hypot(1.5e308, 1.5e308) == math.inf
        with np.errstate(all="ignore"):
            assert expr._hypot(np.array([1.5e308]), np.array([1.5e308]))[0] \
                == math.inf

    @pytest.mark.parametrize("text, point, message", [
        ("exp(800*x)", 1.0, "exp(800.0) overflows in 'exp(800.0*x)'"),
        ("x^2", 1e200, "power(1e+200, 2.0) overflows in 'x^2.0'"),
        ("2+sin(x)", math.inf, "sin(inf) is undefined in 'sin(x)'"),
    ])
    def test_a_raising_element_names_its_value_and_subexpression(
            self, text, point, message):
        e = parse(text, ("x",))
        for evaluate in (eval_value, eval_jet):
            with np.errstate(all="ignore"), pytest.raises(DomainEvalError) \
                    as err:
                evaluate(e, (np.array([0.5, point]),))
            assert str(err.value) == message


class TestResultFields:
    @staticmethod
    @functools.cache
    def read() -> frozenset:
        """The attributes read anywhere in the package or its tests."""
        return frozenset(
            node.attr for path in [*Path(ksub.__file__).parent.glob("*.py"),
                                   *Path(__file__).parent.glob("*.py")]
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load))

    @pytest.mark.parametrize("result", [
        "hopf.HopfReport", "hopf.HopfVerdict", "hopf.RotationalCase",
        "biharmonic.BranchReport", "biharmonic.BitensionResidual",
        "verify.CheckReport"])
    def test_every_field_has_a_reader(self, result):
        # a field nothing reads is computed and carried for nothing; the
        # check goes by attribute name only, over the package and its tests,
        # so a field whose name another type also reads (r, gauss), or that
        # only tests read, passes
        module, name = result.split(".")
        cls = getattr(importlib.import_module(f"ksub.{module}"), name)
        assert [field.name for field in dataclasses.fields(cls)
                if field.name not in self.read()] == []


def _callback_stencils(module: str) -> list[str]:
    """The calls in a ksub module that hand a lambda or a bound method, as
    the field to differentiate, to ``numdiff.derivatives`` or ``partial1``
    (or to a surface operation that would pass it on)."""
    source = (Path(ksub.__file__).parent / f"{module}.py").read_text()
    formers = ("derivatives", "partial1", "dfield", "field_derivatives",
               "laplacian", "covariant_coeff")
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and node.args
            and ast.unparse(node.func).split(".")[-1] in formers
            and isinstance(node.args[0], (ast.Lambda, ast.Attribute))]


def _scopes_where(tree, test) -> list[str]:
    """The qualified names of the functions holding a node that passes
    ``test``, one entry per node."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if test(child):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def _is_array_branch(node) -> bool:
    """A ``type(...) is np.ndarray`` or ``is not`` test."""
    return (isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and ast.unparse(node.left.func) == "type"
            and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(ast.unparse(c) == "np.ndarray" for c in node.comparators))


def _is_batch_of_one(node) -> bool:
    """An ``np.array([float(...)])``: a batch of one made from a float."""
    return (isinstance(node, ast.Call)
            and ast.unparse(node).startswith("np.array([float("))


def _array_branches(tree) -> list[str]:
    return _scopes_where(tree, _is_array_branch)


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
