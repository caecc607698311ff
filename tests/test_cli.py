import ast
import builtins
import gc
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ksub
from ksub import cli
from ksub import expr
from ksub import geometry as geo
from ksub import hopf
from ksub import surface as srf
from ksub import verify
from ksub.cli import _surface_checks, dumps_json, main
from ksub.errors import DomainEvalError
from ksub.expr import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


class TestSerializer:
    def test_float_formatting(self):
        assert dumps_json(1.0) == "1.000000000000e+00"
        assert dumps_json({"a": [1, True, None]}) == '{"a":[1,true,null]}'

    def test_key_order_preserved(self):
        assert dumps_json({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_string_escaping(self):
        assert dumps_json('say "hi"') == '"say \\"hi\\""'

    def test_writer_equals_the_reference(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        floats = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True,
                      allow_subnormal=True),
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                             -2.2250738585072014e-308]))
        leaves = st.one_of(
            floats, floats.map(np.float64),
            st.floats(width=32).map(np.float32),
            st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
            st.integers(), st.booleans(), st.none(),
            st.text(alphabet=st.sampled_from('ab"\\/ \n\u00e9')))
        arrays = st.lists(floats, max_size=6).map(np.array)
        keys = st.one_of(st.text(alphabet=st.sampled_from('k"\\')),
                         st.integers(), floats, st.booleans(), st.none())
        payloads = st.recursive(
            st.one_of(leaves, arrays),
            lambda inner: st.one_of(
                st.lists(inner, max_size=5),
                st.lists(inner, max_size=5).map(tuple),
                st.dictionaries(keys, inner, max_size=5),
                st.integers(0, 3).flatmap(lambda n: st.lists(
                    st.lists(floats, min_size=n, max_size=n),
                    min_size=1, max_size=3)).map(np.array)),
            max_leaves=30)

        @settings(max_examples=100, deadline=None)
        @given(payloads)
        def check(payload):
            assert dumps_json(payload) == reference_json(payload)

        check()

    @pytest.mark.parametrize("obj", [{1.0}, np.bool_(True),
                                     {"a": [1.0, {2}]}],
                             ids=["set", "numpy-bool", "nested-set"])
    def test_unsupported_type_raises_as_the_reference(self, obj):
        with pytest.raises(TypeError) as want:
            reference_json(obj)
        with pytest.raises(TypeError) as got:
            dumps_json(obj)
        assert str(got.value) == str(want.value)


def reference_json(obj) -> str:
    """The recursive writer as it was before its exact-type fast path: an
    isinstance chain per value, and a helper per float."""
    pieces: list[str] = []
    _reference_write(obj, pieces)
    return "".join(pieces)


def _reference_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".12e")


def _reference_write(obj, out: list[str]):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_reference_float(float(obj)))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            _reference_write(str(key), out)
            out.append(":")
            _reference_write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, value in enumerate(list(obj)):
            if i:
                out.append(",")
            _reference_write(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


class TestInfo:
    def test_bcv_point(self, capsys):
        code, data, _ = run_json(capsys, "info", "--bcv", "1", "1",
                                 "--at", "0", "0")
        assert code == 0
        point = data["points"][0]
        assert point["r"] == pytest.approx(1.0)
        assert point["G"] == pytest.approx(1.0)

    def test_flat_point(self, capsys):
        code, data, _ = run_json(capsys, "info", "--lambda", "1", "--a", "0",
                                 "--b", "0", "--at", "0", "0")
        assert code == 0
        point = data["points"][0]
        assert point["r"] == 0.0
        assert point["G"] == 0.0
        assert all(abs(v) == 0.0 for row in point["ricci"] for v in row)

    def test_linear_b(self, capsys):
        code, data, _ = run_json(capsys, "info", "--lambda", "1", "--a", "0",
                                 "--b", "x", "--at", "0.3", "0.7")
        assert code == 0
        assert data["points"][0]["r"] == pytest.approx(0.5)

    def test_grid_sweep(self, capsys):
        code, data, _ = run_json(capsys, "info", "--bcv", "1", "0.5",
                                 "--grid", "3", "3")
        assert code == 0
        assert len(data["points"]) == 9

    def test_invalid_expression_exits_2(self, capsys):
        code, _, err = run(capsys, "info", "--lambda", "1+", "--at", "0", "0")
        assert code == 2
        assert "error" in err

    def test_missing_metric_exits_2(self, capsys):
        code, _, _ = run(capsys, "info", "--at", "0", "0")
        assert code == 2

    def test_domain_with_bcv_exits_2(self, capsys):
        # a BCV metric has its own domain; --domain would be ignored
        code, out, err = run(capsys, "info", "--bcv", "0", "0.5",
                             "--domain", "0", "0", "0", "1", "--at", "0", "0.5")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "--domain" in err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["info", "--nope"]) == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "info", "--bcv", "1", "1", "--at", "0", "0",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s_or_u,v,check,residual,tol,status"
        assert len(lines) == 2

    def test_overflow_exits_2_without_traceback(self, capsys):
        code, out, err = run(capsys, "info", "--lambda", "exp(400*x)",
                             "--domain", "0", "2", "0", "2",
                             "--at", "0.5", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("a", ["(" * 300 + "x" + ")" * 300,
                                   "+".join(["x"] * 3000),
                                   "-" * 1500 + "x"],
                             ids=["parentheses", "sum", "negations"])
    def test_deep_expression_exits_2(self, capsys, a):
        code, out, err = run(capsys, "info", "--lambda=1", f"--a={a}",
                             "--at", "0", "0")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: expression nested too deeply: "
            "maximum recursion depth exceeded"]

    def test_non_finite_result_exits_2(self, capsys):
        code, out, err = run(capsys, "info", "--lambda", "1",
                             "--b", "1e200*x^2", "--at", "1.5", "1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: non-finite result at points[0].ricci[0][0]"]

    def test_point_with_grid_exits_2(self, capsys):
        # one of the two was dropped without a word
        code, out, err = run(capsys, "info", "--bcv", "0", "0.5",
                             "--at", "0", "0", "--grid", "2", "2")
        assert (code, out) == (2, "")
        assert err == "error: give either --at or --grid, not both\n"

    @pytest.mark.parametrize("grid", [("0", "3"), ("3", "-1")])
    def test_empty_grid_exits_2(self, capsys, grid):
        code, out, err = run(capsys, "info", "--bcv", "0", "0.5",
                             "--grid", *grid)
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--grid" in err


GAUSSIAN = ("--lambda=exp(-(x^2+y^2)/4.5)", "--a=0.3*y-0.2*x*y",
            "--b=-0.4*x+0.15*x^2", "--domain", "-1.5", "1.5", "-1.5", "1.5")
TRIG = ("--lambda=1+0.25*sin(x)*cos(y)", "--a=-0.35*sin(0.8*y)",
        "--b=0.5*cos(1.2*x)", "--domain", "-1.5", "1.5", "-1.5", "1.5")
INFO_ARGVS = {
    **{f"bcv{c}": ("--bcv", c, "0.7") for c in ("-1", "0", "1", "4")},
    "gaussian": GAUSSIAN, "trig": TRIG,
}


def reference_info(argv) -> str:
    """``info``'s output built point by point, as before the payload was
    built column-wise: numpy scalars indexed out of the batch and one Ricci
    tensor per point."""
    args = cli._parser().parse_args(argv)
    data = cli._metric_from_args(args)
    points = ([tuple(args.at)] if args.at is not None
              else data.domain.grid(*(args.grid or (5, 5))))
    xs, ys = map(np.array, zip(*points))
    with np.errstate(all="ignore"):
        r_all, grad_all, g_all, lam_all = expr.batched(
            lambda x, y: cli._info_fields(data, x, y), xs, ys)
        records, rows = [], []
        for i, (x, y) in enumerate(points):
            r, grad, g_val = r_all[i], grad_all[:, i], g_all[i]
            ric = geo.ricci_from_scalars(r, grad, g_val, lam_all[i])
            records.append({
                "x": x, "y": y, "r": r, "G": g_val,
                "grad_r": [grad[0], grad[1]],
                "ricci": [[ric[i, j] for j in range(3)] for i in range(3)],
            })
            rows.append({"s_or_u": x, "v": y, "check": "info",
                         "residual": r, "tol": g_val, "status": "pass"})
    if args.format == "csv":
        return cli.dumps_csv(rows)
    return reference_json({"schema_version": cli.SCHEMA_VERSION,
                           "command": "info", "metric": data.description,
                           "points": records}) + "\n"


class TestColumnarInfo:
    @pytest.mark.parametrize("metric", sorted(INFO_ARGVS))
    @pytest.mark.parametrize("where", [
        ("--grid", "12", "12"), ("--at", "0.3", "-0.6"),
        ("--grid", "3", "4", "--format", "csv")], ids=["grid", "at", "csv"])
    def test_output_equals_the_per_point_reference(self, capsys, metric,
                                                   where):
        argv = ["info", *INFO_ARGVS[metric], *where]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == reference_info(argv)

    def test_one_ricci_tensor_per_op(self, capsys, monkeypatch):
        # the whole grid is one (3, 3, 144) call, where it was 144 calls
        shapes = []
        original = geo.ricci_from_scalars

        def counted(r, grad, g_curv, lam):
            shapes.append(np.shape(r))
            return original(r, grad, g_curv, lam)

        monkeypatch.setattr(geo, "ricci_from_scalars", counted)
        assert main(["info", *GAUSSIAN, "--grid", "12", "12"]) == 0
        capsys.readouterr()
        assert shapes == [(144,)]


def float_blocks(st):
    """(N, 15) blocks of finite doubles: the edges of the range, random bit
    patterns and hypothesis's own floats, N from 1 to 4; or, as a grid
    repeats its floats, N from 1 to 144 with entries drawn from a pool of
    at most 6 such floats."""
    edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                             1.7976931348623157e308,
                             -1.7976931348623157e308,
                             2.2250738585072014e-308])
    bits = st.integers(0, 2 ** 64 - 1).map(
        lambda n: struct.unpack("<d", n.to_bytes(8, "little"))[0])
    floats = st.one_of(edges, bits.filter(math.isfinite), st.floats(
        allow_nan=False, allow_infinity=False, allow_subnormal=True))
    rows = st.lists(floats, min_size=15, max_size=15)
    pooled = st.builds(
        lambda pool, n, seed: np.array(pool)[np.random.default_rng(
            seed).integers(len(pool), size=(n, 15))],
        st.lists(floats, min_size=1, max_size=6), st.integers(1, 144),
        st.integers(0, 2 ** 32 - 1))
    return st.one_of(st.lists(rows, min_size=1, max_size=4).map(np.array),
                     pooled)


def per_record_payload(block) -> dict:
    """``info``'s payload as it was built before the table: one dict per
    point from ``tolist()`` columns."""
    xs, ys, r, g_curv = block[:, :4].T
    grad = block[:, 4:6].T
    ricci = block[:, 6:].T.reshape(3, 3, -1)
    records = [{"x": x, "y": y, "r": r_i, "G": g_i, "grad_r": grad_i,
                "ricci": ricci_i}
               for x, y, r_i, g_i, grad_i, ricci_i in zip(
                   xs.tolist(), ys.tolist(), r.tolist(), g_curv.tolist(),
                   grad.T.tolist(), ricci.transpose(2, 0, 1).tolist())]
    return {"schema_version": cli.SCHEMA_VERSION, "command": "info",
            "metric": "metric", "points": records}


def info_of_block(block, monkeypatch) -> tuple[int, str, str]:
    """``info``'s exit code, stdout and stderr when its grid points and
    fields are the columns of ``block`` (N, 15)."""
    def fields(fn, xs, ys):
        return (block[:, 2].copy(), block[:, 4:6].T.copy(),
                block[:, 3].copy(), np.ones(len(block)))

    points = list(zip(block[:, 0].tolist(), block[:, 1].tolist()))
    data = types.SimpleNamespace(
        description="metric",
        domain=types.SimpleNamespace(grid=lambda nx, ny: points))
    monkeypatch.setattr(cli, "_metric_from_args", lambda args: data)
    monkeypatch.setattr(cli, "batched", fields)
    monkeypatch.setattr(geo, "ricci_from_scalars", lambda *args: (
        block[:, 6:].T.reshape(3, 3, -1).copy()))
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    code = main(["info", "--bcv", "1", "0.5", "--grid", "1", "1"])
    return code, out.getvalue(), err.getvalue()


class TestTableWriter:
    """``info`` writes its grid as one table, a record template applied
    with one ``%`` to the float block, with exactly the text of its
    per-record dicts."""

    def test_table_equals_the_per_record_dicts(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=150, deadline=None)
        @given(float_blocks(st))
        def check(block):
            with pytest.MonkeyPatch.context() as monkeypatch:
                code, out, err = info_of_block(block, monkeypatch)
            assert (code, err) == (0, "")
            assert out == dumps_json(per_record_payload(block)) + "\n"

        check()

    def test_each_distinct_float_is_formatted_once(self, monkeypatch):
        # x and y repeat along a grid, and a BCV metric's r, G and most
        # Ricci entries are constant: 2,160 entries, 7 distinct floats
        xs, ys = np.meshgrid([0.5, -1.25, 3.0], [2.0, -0.0], indexing="ij")
        block = np.zeros((6, 15))
        block[:, 0], block[:, 1] = xs.ravel(), ys.ravel()
        block[:, 2:4], block[:, 6] = 1.5, -0.0
        block = np.tile(block, (24, 1))
        expected = dumps_json(per_record_payload(block)) + "\n"
        formatted = []

        def counted(value, spec):
            formatted.append(value)
            return builtins.format(value, spec)

        monkeypatch.setattr(cli, "format", counted, raising=False)
        code, out, _ = info_of_block(block, monkeypatch)
        assert (code, out) == (0, expected)
        assert sorted(map(float.hex, formatted)) == sorted(map(float.hex, [
            0.5, -1.25, 3.0, 2.0, -0.0, 0.0, 1.5]))

    def test_both_zeros_print_in_their_own_places(self, monkeypatch):
        block = np.zeros((2, 15))
        block[0, 1::2] = -0.0
        block[1, 0::2] = -0.0
        code, out, _ = info_of_block(block, monkeypatch)
        assert code == 0
        points = json.loads(out)["points"]
        signs = [[math.copysign(1.0, value) for value in (
            point["x"], point["y"], point["r"], point["G"], *point["grad_r"],
            *np.ravel(point["ricci"]).tolist())] for point in points]
        assert signs == np.where(np.signbit(block), -1.0, 1.0).tolist()

    def test_non_finite_block_equals_the_per_record_dicts(self):
        # the table path quotes a non-finite float as the float path does
        block = np.arange(45.0).reshape(3, 15)
        block[0, 2], block[1, 7], block[2, 14] = math.nan, math.inf, -math.inf
        block[2, 0] = math.nan
        table = cli._Table(cli._INFO_LAYOUT, block)
        text = dumps_json(table)
        assert text == dumps_json(per_record_payload(block)["points"])
        assert text.count('"nan"') == 2
        assert text.count('"inf"') == 1 and text.count('"-inf"') == 1

    def test_non_finite_entry_names_the_per_record_path(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        cases = st.tuples(float_blocks(st), st.integers(0, 3),
                          st.integers(0, 14),
                          st.sampled_from([math.nan, math.inf, -math.inf]))

        @settings(max_examples=150, deadline=None)
        @given(cases)
        def check(case):
            block, row, column, bad = case
            row %= len(block)
            block[row, column] = bad
            payload = per_record_payload(block)
            path = next(path for path, value in cli._floats(payload)
                        if not math.isfinite(value))
            with pytest.MonkeyPatch.context() as monkeypatch:
                code, out, err = info_of_block(block, monkeypatch)
            assert (code, out) == (2, "")
            assert err == f"error: non-finite result at {path}\n"
            assert path.startswith(f"points[{row}].")

        check()

    def test_grid_takes_few_writer_calls(self, capsys, monkeypatch):
        # the per-record dicts took about 3,900 calls for 144 points
        calls = []
        write = cli._write_json

        def counted(obj, out):
            calls.append(obj)
            return write(obj, out)

        monkeypatch.setattr(cli, "_write_json", counted)
        assert main(["info", "--bcv", "1", "0.5", "--grid", "12", "12"]) == 0
        capsys.readouterr()
        assert len(calls) < 50

    @pytest.mark.parametrize("where", [("--grid", "12", "12"),
                                       ("--at", "0.3", "-0.6")],
                             ids=["grid", "at"])
    def test_out_writes_the_stdout_bytes(self, capsys, tmp_path, where):
        argv = ["info", *GAUSSIAN, *where]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        path = tmp_path / "info.json"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()


class TestNumericFaults:
    # b = 1e200 x^2 overflows r, the Ricci tensor and the hopf residuals;
    # a numpy warning would be a further stderr line, so warnings fail here
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ("check-surface", "--lambda", "1", "--b", "1e200*x^2",
         "--graph", "x*y", "--grid", "1", "1"),
        ("hopf", "check", "--lambda", "1", "--b", "1e200*x^2",
         "--curve", "cos(s);sin(s)", "--interval", "0", "6.28",
         "--samples", "4"),
    ])
    def test_overflowing_metric_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("error")
    def test_division_by_zero_names_its_subexpression(self, capsys):
        # a point is a batch of one: its error keeps the one-point message
        code, out, err = run(capsys, "info", "--lambda=1", "--a=x/0",
                             "--at", "0.5", "0.5")
        assert (code, out, err) == (2, "",
                                    "error: division by zero in 'x/0.0'\n")

    @pytest.mark.filterwarnings("error")
    def test_overflow_in_lazy_ambient_data_names_the_residual(self, capsys):
        # on a vertical cylinder only r and G, read on demand, overflow
        code, out, err = run(capsys, "check-surface", "--lambda", "1",
                             "--b", "1e200*x^2",
                             "--surface=0.8*cos(u);0.8*sin(u);v",
                             "--patch-domain", "0.5", "2.0", "0", "1",
                             "--grid", "1", "1")
        assert code == 2
        assert out == ""
        assert err == ("error: non-finite result at "
                       "points[0].checks[0].residual\n")

    @pytest.mark.parametrize("command", [
        ("check-surface", "--bcv", "0", "0.5", "--graph", "x*y"),
        ("hopf", "check", "--bcv", "1", "0", "--circle-kg", "1"),
        ("hopf", "example", "--f", "cos(t)", "--r", "0",
         "--interval", "0", "1.5"),
        ("verify-paper", "--only", "bcv"),
    ])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, command,
                                                    tol):
        code, out, err = run(capsys, *command, "--tol", tol)
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--tol" in err

    def test_nan_compatibility_component_fails(self, monkeypatch):
        patch = srf.SurfacePatch.graph(geo.bcv(0.0, 0.5), "x*y",
                                       geo.Rect(-0.45, 0.45, -0.45, 0.45))
        monkeypatch.setattr(srf, "_compatibility", lambda lat: np.array(
            [[1e-9, math.nan]] * len(lat.points)))
        lat = srf._Lattice(patch, [(0.2, 0.1)])
        [checks] = _surface_checks(lat, 1e-4)
        by_name = {c["check"]: c for c in checks}
        assert math.isnan(by_name["compatibility"]["residual"])
        assert by_name["compatibility"]["status"] == "fail"


class TestInputErrors:
    # exit 2 with an "error:" line is for a KsubError (and the arithmetic,
    # nesting and memory failures); any other exception is a defect

    def test_main_reports_only_the_input_errors_as_such(self):
        [fn] = [node for node in ast.parse(Path(cli.__file__).read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "main"]
        handlers = [ast.unparse(handler.type) for node in ast.walk(fn)
                    if isinstance(node, ast.Try) for handler in node.handlers]
        assert handlers == ["SystemExit", "KsubError", "ArithmeticError",
                            "RecursionError", "MemoryError"]

    def test_a_defects_value_error_escapes_main(self, capsys, monkeypatch):
        # a defect is no input error: no exit 2 and no "error:" line
        def broken(patch, us, vs):
            raise ValueError("shape mismatch")

        monkeypatch.setattr(srf, "_build", broken)
        with pytest.raises(ValueError, match="^shape mismatch$"):
            main(["check-surface", "--bcv", "1", "1", "--graph=x",
                  "--grid", "2", "2"])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, message", [
        # the grid's points would be nan and inf
        (["info", "--lambda=x^2-0.25", "--domain", "-1e308", "1e308", "-1",
          "1", "--grid", "2", "2"],
         "rectangle side (-1e+308, 1e+308) has length inf"),
        (["check-surface", "--bcv", "1", "1", "--graph=x",
          "--patch-domain", "-1e308", "1e308", "-1", "1"],
         "rectangle side (-1e+308, 1e+308) has length inf"),
        # the speed grid's parameters would be nan
        (["hopf", "check", "--bcv", "0", "0", "--curve=s;0",
          "--interval", "-1e308", "1e308"],
         "curve interval (-1e+308, 1e+308) has length inf"),
        (["hopf", "example", "--f=1+t^2", "--r", "0",
          "--interval", "-1e308", "1e308"],
         "interval (-1e+308, 1e+308) has length inf"),
    ])
    def test_a_side_of_no_finite_length_exits_2(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestBatchedGrid:
    # info evaluates its grid as one batch; a batch that fails reruns point
    # by point, so the error is the one the first failing point raises
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam, b", [
        ("1", "log(1.5-x)"),            # the 7th of 9 points fails
        ("1+abs(x-1.9)", "log(x-0.5)"),  # lam fails at the 7th, b at the 1st
    ])
    def test_error_is_the_first_failing_points(self, capsys, lam, b):
        data = geo.KillingData(parse(lam, ("x", "y")), parse("0", ("x", "y")),
                               parse(b, ("x", "y")), geo.Rect(0, 2, 0, 2))
        for k, point in enumerate(data.domain.grid(3, 3)):
            try:
                geo.bundle_curvature(data, point)
            except DomainEvalError as exc:
                expected = f"error: {exc}\n"
                break
        code, out, err = run(capsys, "info", "--lambda", lam, "--b", b,
                             "--domain", "0", "2", "0", "2", "--grid", "3", "3")
        assert (code, out, err) == (2, "", expected)
        assert k in (0, 6)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_value_names_its_point(self, capsys):
        # r = 1e154 x overflows r^2 in the Ricci tensor from x = 1.9 on
        code, out, err = run(capsys, "info", "--lambda", "1",
                             "--b", "1e154*x^2", "--domain", "0", "2", "0", "2",
                             "--grid", "2", "2")
        assert (code, out) == (2, "")
        assert err == "error: non-finite result at points[2].ricci[0][0]\n"

    def test_info_leaves_scipy_unimported(self):
        code = ("import sys\n"
                "from ksub.cli import main\n"
                "main(['info', '--bcv', '1', '1', '--grid', '2', '2'])\n"
                "print('scipy' in sys.modules)\n")
        env = {**os.environ,
               "PYTHONPATH": str(Path(ksub.__file__).resolve().parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"

    def test_hopf_circle_check_leaves_scipy_unimported(self):
        # a BCV circle, a curve reparametrized by arc length and the warped
        # root search: no Hopf path imports scipy
        code = ("import sys\n"
                "from ksub.cli import main\n"
                "codes = [main(['hopf', 'check', '--bcv', '4', '0.3',\n"
                "               '--circle-kg', '1.2']),\n"
                "         main(['hopf', 'check', '--lambda', '1',\n"
                "               '--domain', '-3', '3', '-3', '3',\n"
                "               '--curve', '2*cos(s);2*sin(s)',\n"
                "               '--interval', '0', '6.283185307']),\n"
                "         main(['hopf', 'example', '--f', 'cos(t)',\n"
                "               '--r', '0.25', '--interval', '0', '1.5'])]\n"
                "print(*codes, 'scipy' in sys.modules)\n")
        env = {**os.environ,
               "PYTHONPATH": str(Path(ksub.__file__).resolve().parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 0 0 False"


# each command with the exit code it documents for this input
SCIPY_FREE_ARGVS = [
    (["info", "--bcv", "1", "1", "--grid", "2", "2"], 0),
    (["check-surface", "--bcv", "0", "0.5", "--graph", "x*y",
      "--grid", "1", "1"], 0),
    (["hopf", "check", "--bcv", "1", "0", "--circle-kg", "1"], 0),
    (["hopf", "check", "--bcv", "1", "0", "--circle-kg", "0.6",
      "--expect", "pass"], 1),
    (["hopf", "check", "--lambda", "exp(-(x^2+y^2)/4)", "--b", "x",
      "--domain", "-1.5", "1.5", "-1.5", "1.5",
      "--curve", "0.7*cos(s);0.4*sin(s)", "--interval", "0", "6.283185307",
      "--samples", "16", "--expect", "pass"], 1),
    (["hopf", "check", "--lambda", "1", "--domain", "-3", "3", "-3", "3",
      "--curve", "2*cos(s);2*sin(s)", "--interval", "0", "6.283185307",
      "--samples", "16"], 0),
    (["hopf", "example", "--f", "cos(t)", "--r", "0.25",
      "--interval", "0", "1.5"], 0),
    (["hopf", "example", "--f", "cos(t)", "--r", "0",
      "--interval", "0", "0.5"], 2),
    (["verify-paper"], 0),
]


def test_runs_without_scipy():
    # scipy blocked from import: every command still ends in its exit code
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from ksub.cli import main\n"
            f"print([main(argv) for argv, _ in {SCIPY_FREE_ARGVS!r}])\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(ksub.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout.splitlines()[-1] == str(
        [want for _, want in SCIPY_FREE_ARGVS])


def test_leaves_numpy_random_unimported():
    # verify-paper draws its samples from Python's random: no command pays
    # for numpy's generators (and the secrets, hmac and hashlib they import)
    argvs = [SCIPY_FREE_ARGVS[k] for k in (0, 1, 2, -1)]  # info to verify
    code = ("import sys\n"
            "from ksub.cli import main\n"
            f"print([main(argv) for argv, _ in {argvs!r}],\n"
            "      'numpy.random' in sys.modules)\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(ksub.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == (
        f"{[want for _, want in argvs]} False")



LAYERS = ("surface", "biharmonic", "hopf", "verify")


@pytest.mark.parametrize("argv, ran", [
    ((), []),
    (("info", "--bcv", "1", "1", "--grid", "2", "2"), []),
    (("check-surface", "--bcv", "0", "0.5", "--graph", "x*y",
      "--grid", "1", "1"), ["surface", "biharmonic"]),
    (("hopf", "check", "--bcv", "1", "0", "--circle-kg", "1",
      "--samples", "4"), ["hopf"]),
    (("hopf", "example", "--f", "cos(t)", "--r", "0",
      "--interval", "0", "1.5"), ["hopf"]),
    (("verify-paper", "--only", "bcv"), ["verify"]),
    (("verify-paper", "--only", "harmonic"), list(LAYERS)),
], ids=["import", "info", "check-surface", "hopf-check", "hopf-example",
        "verify-bcv", "verify-harmonic"])
def test_each_command_runs_only_its_layers(argv, ran):
    # importing ksub.cli registers the layers without running them; a
    # command runs the bodies of those it reads. object.__getattribute__
    # reads a module's namespace without running its body.
    code = ("import contextlib, io, sys\n"
            "from ksub.cli import main\n"
            f"if {argv!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert main(list({argv!r})) == 0\n"
            f"print([name for name in {LAYERS!r} if '__all__' in\n"
            "       object.__getattribute__(sys.modules['ksub.' + name],\n"
            "                               '__dict__')])\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(ksub.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(ran)

OUT_ARGVS = [
    ("info", "--bcv", "1", "1", "--at", "0", "0"),
    ("check-surface", "--bcv", "0", "0.5", "--graph", "x*y",
     "--grid", "1", "1"),
    ("hopf", "check", "--bcv", "1", "0", "--circle-kg", "1",
     "--samples", "4"),
    ("hopf", "example", "--f", "cos(t)", "--r", "0",
     "--interval", "0", "1.5"),
    ("verify-paper", "--only", "bcv"),
]


def _argv_id(argv):
    return "-".join(argv[:2])


class TestOutputPath:
    @pytest.mark.parametrize("argv", OUT_ARGVS, ids=_argv_id)
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2_naming_the_path(self, capsys, tmp_path,
                                                    argv, target):
        path = (tmp_path / "missing" / "out.json"
                if target == "missing-directory" else tmp_path)
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot write {path}: ")

    @pytest.fixture
    def no_work(self, monkeypatch):
        # the grid, sweep and check functions of every subcommand
        def work(*args, **kwargs):
            raise AssertionError("work done for an --out that cannot be "
                                 "written")

        for owner, name in ((cli, "batched"), (cli, "_surface_checks"),
                            (hopf, "hopf_residuals"),
                            (hopf, "rotational_case_search"),
                            (verify, "run_checks")):
            monkeypatch.setattr(owner, name, work)

    @pytest.mark.parametrize("argv", OUT_ARGVS, ids=_argv_id)
    def test_unwritable_out_is_refused_before_any_work(self, capsys, tmp_path,
                                                        no_work, argv):
        path = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_read_only_directory_is_refused_before_any_work(
            self, capsys, tmp_path, monkeypatch, no_work):
        # os.access stands in for a directory without write permission,
        # which a superuser could still write
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        path = tmp_path / "out.json"
        code, out, err = run(capsys, "verify-paper", "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: Permission denied\n"
        assert not path.exists()

    def test_check_creates_no_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = run(capsys, "check-surface", "--bcv", "0", "0.5",
                         "--surface", "u;v", "--out", str(path))
        assert code == 2
        assert not path.exists()


class TestFiniteFlags:
    # one non-finite value per float flag: a usage error naming the flag,
    # not a misleading error from deeper down
    @pytest.mark.parametrize("flag, argv", [
        ("--bcv", ["info", "--bcv", "1", "nan", "--at", "0", "0"]),
        ("--domain", ["info", "--lambda", "1", "--domain", "0", "inf", "0", "1",
                      "--at", "0.5", "0.5"]),
        ("--at", ["info", "--bcv", "1", "1", "--at", "0", "inf"]),
        ("--patch-domain", ["check-surface", "--bcv", "0", "0.5",
                            "--graph", "x*y",
                            "--patch-domain", "0", "inf", "0", "1"]),
        ("--interval", ["hopf", "check", "--lambda", "1",
                        "--curve", "cos(s);sin(s)", "--interval", "0", "nan"]),
        ("--circle", ["hopf", "check", "--bcv", "1", "0", "--circle", "nan"]),
        ("--circle-kg", ["hopf", "check", "--bcv", "1", "0",
                         "--circle-kg", "inf"]),
        ("--r", ["hopf", "example", "--f=cos(t)", "--r", "nan",
                 "--interval", "0", "1.5"]),
    ])
    def test_non_finite_value_is_a_usage_error(self, capsys, flag, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "usage:" in err
        assert f"argument {flag}" in err and "must be finite" in err

    # argparse's own negative-number pattern has no exponent, so it took
    # these values for options and exited 2 with its usage text
    @pytest.mark.parametrize("argv, decimal", [
        (["info", "--lambda", "1", "--at", "-0.2", "-3e-05"],
         ["info", "--lambda", "1", "--at", "-0.2", "-0.00003"]),
        (["info", "--lambda", "1", "--domain", "-1e-1", "1", "-1", "1",
          "--at", "0", "0"],
         ["info", "--lambda", "1", "--domain", "-0.1", "1", "-1", "1",
          "--at", "0", "0"]),
        (["info", "--lambda", "1", "--domain", "-.5e3", "1", "-1", "1",
          "--at", "0", "0"],
         ["info", "--lambda", "1", "--domain", "-500", "1", "-1", "1",
          "--at", "0", "0"]),
        (["hopf", "check", "--bcv", "1", "-1e-3", "--circle-kg", "1"],
         ["hopf", "check", "--bcv", "1", "-0.001", "--circle-kg", "1"]),
        (["hopf", "example", "--f=cos(t)", "--r", "-1e-3",
          "--interval", "0", "1.5"],
         ["hopf", "example", "--f=cos(t)", "--r", "-0.001",
          "--interval", "0", "1.5"]),
        (["check-surface", "--lambda", "1", "--graph=x",
          "--patch-domain", "-4e-1", "0.4", "-0.4", "0.4", "--grid", "1", "1"],
         ["check-surface", "--lambda", "1", "--graph=x",
          "--patch-domain", "-0.4", "0.4", "-0.4", "0.4", "--grid", "1", "1"]),
    ], ids=["at", "domain", "domain-no-digit", "bcv", "r", "patch-domain"])
    def test_negative_exponent_is_a_value(self, capsys, argv, decimal):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, *decimal)

    def test_unknown_option_is_still_a_usage_error(self, capsys):
        code, out, err = run(capsys, "info", "--lambda", "1",
                             "--at", "-x", "1")
        assert (code, out) == (2, "")
        assert "usage:" in err
        assert "argument --at: expected 2 arguments" in err


class TestCheckSurface:
    def test_heisenberg_graph_identities_pass(self, capsys):
        code, data, _ = run_json(capsys, "check-surface", "--bcv", "0", "0.5",
                                 "--graph", "x*y", "--grid", "2", "2")
        assert code == 0
        for point in data["points"]:
            by_name = {c["check"]: c for c in point["checks"]}
            assert by_name["gauss"]["status"] == "pass"
            assert by_name["codazzi"]["status"] == "pass"
            assert by_name["compatibility"]["status"] == "pass"
            # xy-graph is not CMC: biharmonic checks skip, verdict no
            assert by_name["bitension-normal"]["status"] == "skipped"
            assert by_name["proper-biharmonic"]["status"] == "no"

    def test_vertical_plane_harmonic(self, capsys):
        code, data, _ = run_json(
            capsys, "check-surface", "--lambda", "1", "--a", "0", "--b", "0",
            "--surface", "u;0;v", "--patch-domain", "-1", "1", "-1", "1",
            "--grid", "2", "2")
        assert code == 0
        by_name = {c["check"]: c for c in data["points"][0]["checks"]}
        assert by_name["bitension-normal"]["status"] == "pass"
        assert by_name["branch"]["status"] == "a"
        assert by_name["proper-biharmonic"]["status"] == "no"  # H = 0

    def test_surface_needs_three_parts(self, capsys):
        code, _, err = run(capsys, "check-surface", "--bcv", "0", "0.5",
                           "--surface", "u;v")
        assert code == 2

    def test_empty_grid_exits_2(self, capsys):
        code, out, err = run(capsys, "check-surface", "--bcv", "0", "0.5",
                             "--graph", "x*y", "--grid", "2", "0")
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--grid" in err

    def test_sweep_through_angle_singular_point(self, capsys):
        # the 3x3 sweep of the xy-graph hits the horizontal tangent plane at
        # the origin; adapted-frame checks skip there, and the nonzero
        # biharmonicity residual is a verdict, not an integrity failure
        code, data, _ = run_json(capsys, "check-surface", "--bcv", "0", "0.5",
                                 "--graph", "x*y", "--grid", "3", "3")
        assert code == 0
        center = [pt for pt in data["points"]
                  if pt["u"] == 0.0 and pt["v"] == 0.0][0]
        by_name = {c["check"]: c for c in center["checks"]}
        assert by_name["gauss"]["status"] == "skipped"
        assert by_name["codazzi"]["status"] == "skipped"
        assert by_name["proper-biharmonic"]["status"] == "no"

    @staticmethod
    def check_thin_patch(capsys, surface):
        # every check point lies 2.5 h from a v-edge: the 4 h CMC probe of
        # the bitension rows would leave the patch, so those rows skip; the
        # Brioschi stencil reaches h and still runs
        code, data, err = run_json(
            capsys, "check-surface", "--lambda", "1",
            "--surface", surface, "--patch-domain", "0", "1", "0",
            "0.01", "--grid", "2", "2")
        assert code == 0, err
        assert len(data["points"]) == 4
        for point in data["points"]:
            by_name = {c["check"]: c for c in point["checks"]}
            for name in ("bitension-normal", "bitension-tangential",
                         "frame-system", "branch"):
                assert by_name[name]["status"] == "skipped"
            assert by_name["proper-biharmonic"]["status"] == "no"
            # measured 0, 0 and 2.3e-13 to 2.5e-13
            assert by_name["gauss"]["status"] == "pass"
            assert by_name["codazzi"]["status"] == "pass"
            assert by_name["compatibility"]["status"] == "pass"
            assert by_name["compatibility"]["residual"] < 1e-10

    def test_thin_patch_skips_stencil_bound_rows(self, capsys):
        self.check_thin_patch(capsys, "u;0.5*v^2;v")

    def test_thin_patch_probe_stays_inside(self, capsys):
        # the probe lattice around these points reaches v < 0, where log(v)
        # is undefined
        self.check_thin_patch(capsys, "u;v;log(v)")


EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


class TestErrorPathCorpus:
    # exit code, stderr and stdout sha256 of check-surface commands that end
    # in an error or in skipped rows, each on a 2x2 grid; the values were
    # taken while the point checks still read one record at a time
    CASES = {
        "probe-leaves-domain": (
            ["--lambda", "1", "--a=-0.5*y", "--b=0.5*x",
             "--domain", "-2", "2", "-2", "0.7999984",
             "--surface=0.8*cos(u);0.8*sin(u);v",
             "--patch-domain", "1.315139", "2.315139", "0", "1"],
            2, "error: point (3.780363233608751e-07, 0.7999999999999107) "
               "outside domain of custom\n", EMPTY_SHA256),
        "degenerate-immersion": (
            ["--lambda", "1", "--surface=u;u;0"],
            2, "error: immersion degenerate at parameters (0.02, 0.02)\n",
            EMPTY_SHA256),
        # only the regularity grid's points at u = 0 are singular; the
        # checked points' lattice is regular, so the grid alone fails
        "degenerate-grid-only": (
            ["--lambda", "1", "--surface=u^2;v;0",
             "--patch-domain", "-1", "1", "-1", "1"],
            2, "error: immersion degenerate at parameters (0.0, -0.96)\n",
            EMPTY_SHA256),
        "non-finite-result": (
            ["--lambda", "1", "--b=1e200*x^2", "--graph=x"],
            2, "error: non-finite result at points[0].checks[0].residual\n",
            EMPTY_SHA256),
        "no-adapted-frame": (
            ["--lambda", "1", "--graph=0.3"], 0, "",
            "fd42624ed8b67a3314a65c2c1f12485e"
            "85799dfce6d69225a63397caa5432b15"),
        "not-cmc": (
            ["--bcv", "0", "0.5", "--graph=x*y+0.9*x"], 0, "",
            "8dd41335acb5ba80da7ce177d20f46f8"
            "6c85bf051b5172965b0e3c3b93701cc0"),
        "branch-a-spreads": (
            ["--lambda", "1", "--surface=u;u;v"], 0, "",
            "a3ad9ac1af88e012eea92d16e128d72b"
            "026b257d99ae80edfff1ab1d53e6c667"),
        # the batch of the regularity grid and the lattice lets the
        # RecursionError through
        "deep-graph": (
            ["--lambda", "1", "--graph=" + "+".join(["x"] * 3000)],
            2, "error: expression nested too deeply: maximum recursion "
               "depth exceeded\n", EMPTY_SHA256),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_stderr_and_stdout_are_pinned(self, capsys, case):
        argv, code, err, digest = self.CASES[case]
        got_code, out, got_err = run(capsys, "check-surface", *argv,
                                     "--grid", "2", "2")
        assert (got_code, got_err) == (code, err)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the same for hopf commands; the values were taken while the sweep
    # still evaluated one stencil column per call. A --curve's first point
    # outside the domain is the first of the 257 samples of its speed grid
    # (arclength_reparam) that lies outside, named by its own parameter
    HOPF_CASES = {
        "curve-leaves-domain": (
            ["check", "--lambda", "1", "--domain", "-1", "1", "-1", "1",
             "--curve=0.9*cos(s);0.9*sin(s)+0.2",
             "--interval", "0", "6.283185307179586"],
            2, "error: curve leaves the base domain at s = "
               "1.1044661672776617: point (0.4046501966891459, "
               "1.0039018710759637)\n", EMPTY_SHA256),
        # every sweep sample inside, but an off-centre stencil column
        # outside: the metric is not read there (the sweep read it and
        # exited 0 while it checked only the samples)
        "stencil-leaves-domain": (
            ["check", "--lambda", "1", "--domain", "-2", "2", "-2", "0.9995",
             "--curve=cos(s);sin(s)", "--interval", "0", "6.283185307179586"],
            2, "error: curve leaves the base domain at s = "
               "1.5462526341887264: point (0.024541228522912264, "
               "0.9996988186962042)\n", EMPTY_SHA256),
        # the curve starts outside, where no sweep column reaches: the speed
        # grid read the metric there and the check exited 0, or, where lam
        # blows up at the edge, exited 2 on a negative arc length
        "curve-starts-outside-domain": (
            ["check", "--lambda", "1", "--domain", "-2", "2", "-2",
             "0.99999999", "--curve=cos(s);sin(s)",
             "--interval", "1.5707", "7.0"],
            2, "error: curve leaves the base domain at s = 1.5707: point "
               "(9.632679474766714e-05, 0.9999999953605743)\n",
            EMPTY_SHA256),
        "curve-starts-outside-singular-metric": (
            ["check", "--lambda=1/(0.99999999-y)", "--domain", "-2", "2",
             "-2", "0.99999999", "--curve=cos(s);sin(s)",
             "--interval", "1.5707", "7.0"],
            2, "error: curve leaves the base domain at s = 1.5707: point "
               "(9.632679474766714e-05, 0.9999999953605743)\n",
            EMPTY_SHA256),
        "example-no-root": (
            ["example", "--f", "1+t", "--r", "0", "--interval", "0", "1"],
            2, "error: no sign change of the circle condition on the "
               "interval\n", EMPTY_SHA256),
        "heisenberg-inadmissible": (
            ["check", "--bcv", "0", "0.5", "--circle", "1"], 0, "",
            "c5abfac42ae04ebeb19c223fda19f02e"
            "62b0a0eb62b9d379e6bd999b0c51dcc1"),
        "csv-pass": (
            ["check", "--bcv", "1", "0", "--circle-kg", "1",
             "--format", "csv"], 0, "",
            "e4e4dae62f5bd4f2f7de2ad256e091de"
            "fdbf4f2a8f4af93e1807cf90f94b5fff"),
        "example-six-roots": (
            ["example", "--f=1+0.5*sin(3*t)", "--r", "0.1",
             "--interval", "0.1", "6"], 0, "",
            "e16e60f44e4647613b4921cf0efdd8bf"
            "e3d7b423cf11746b8840383094409605"),
        # a curvature whose circle has no finite positive radius names the
        # curvature and the chart, not a radius that was never given
        "circle-kg-radius-overflows": (
            ["check", "--bcv", "1", "0", "--circle-kg", "1e308"],
            2, "error: geodesic curvature 1e+308 gives no finite positive "
               "circle radius in the BCV(c=1.0) chart\n", EMPTY_SHA256),
        "circle-kg-subnormal-flat": (
            ["check", "--bcv", "0", "0", "--circle-kg", "1e-320"],
            2, "error: geodesic curvature 1e-320 gives no finite positive "
               "circle radius in the BCV(c=0.0) chart\n", EMPTY_SHA256),
        "circle-kg-radius-underflows": (
            ["check", "--bcv", "-1", "0", "--circle-kg", "1e10"],
            2, "error: geodesic curvature 10000000000.0 gives no finite "
               "positive circle radius in the BCV(c=-1.0) chart\n",
            EMPTY_SHA256),
        # a geodesic line: the cylinder over it is minimal, not proper
        "minimal-line": (
            ["check", "--bcv", "0", "0", "--curve=s;0", "--interval", "0",
             "1"], 0, "",
            "8c0f20d7b94da2fd2c5efa74d44779a2"
            "b043cef405dba229b97b7f404607fe67"),
        # not unit speed: the sweep reads the curve through t(s)
        "reparam-ellipse": (
            ["check", "--bcv", "1", "0.3",
             "--curve=0.7*cos(s);0.4*sin(s)",
             "--interval", "0", "6.283185307179586"], 0, "",
            "2dc72af7ee8a56cbb99d508f3a6e230b"
            "55b6dcec1eec73f85eecdd94de55df1a"),
    }

    @pytest.mark.parametrize("case", sorted(HOPF_CASES))
    def test_hopf_exit_stderr_and_stdout_are_pinned(self, capsys, case):
        argv, code, err, digest = self.HOPF_CASES[case]
        got_code, out, got_err = run(capsys, "hopf", *argv)
        assert (got_code, got_err) == (code, err)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the same for whole command lines: where the libm call of one float
    # raised, the element's kernel raises and names its subexpression
    COMMANDS = {
        "exp-overflows": (
            ["check-surface", "--lambda", "1", "--surface=u;v;exp(800*u)",
             "--grid", "1", "1"],
            2, "error: exp(784.0) overflows in 'exp(800.0*u)'\n",
            EMPTY_SHA256),
        "sin-of-infinity": (
            ["info", "--lambda", "2+sin(1e200*1e200*x)", "--at", "0.5",
             "0.5"],
            2, "error: sin(-inf) is undefined in 'sin(1e+200*1e+200*x)'\n",
            EMPTY_SHA256),
        # a 6x6 lattice whose batch raises: some stencil and probe points
        # near u = pi/2 leave the domain's top edge
        "lattice-batch-raises": (
            ["check-surface", "--lambda", "1", "--a=-0.5*y", "--b=0.5*x",
             "--domain", "-2", "2", "-2", "0.7999984",
             "--surface=0.8*cos(u);0.8*sin(u);v",
             "--patch-domain", "0.815139", "1.815139", "0", "1",
             "--grid", "6", "6"],
            2, "error: point (3.780363233608751e-07, 0.7999999999999107) "
               "outside domain of custom\n", EMPTY_SHA256),
        # a 6x6 lattice whose batch is non-finite and raises nothing
        "lattice-batch-non-finite": (
            ["check-surface", "--lambda", "1", "--b=1e200*x^2",
             "--graph=x*y", "--grid", "6", "6"],
            2, "error: non-finite result at points[0].checks[0].residual\n",
            EMPTY_SHA256),
        # the u = 0 column is unframed, so the integrity checks run on
        # a sub-lattice of the other points (_Lattice.take)
        "lattice-take": (
            ["check-surface", "--lambda", "1", "--graph", "x^2",
             "--grid", "3", "3"], 0, "",
            "d916111cc0d4efcc5797c33f78a06f53"
            "792848c6855db0cc409ada72a1e24458"),
        # a domain side whose length overflows: its positivity grid was all
        # nan and inf, so lam < 0 at the point passed with exit 0
        "domain-side-overflows": (
            ["info", "--lambda=x^2-0.25", "--domain", "-1e308", "1e308",
             "-1", "1", "--at", "0", "0"],
            2, "error: rectangle side (-1e+308, 1e+308) has length inf\n",
            EMPTY_SHA256),
        # lam < 0 near x = 0, between the nodes of the 8x8 positivity grid
        # (x = +-0.274), so each read there passed with exit 0: info at the
        # dip, the patch's regularity grid and the arc-length speed grid
        "lam-dips-at-point": (
            ["info", "--lambda=x^2-0.0001", "--domain", "-2", "2", "-1", "1",
             "--at", "0", "0"],
            2, "error: lam must be positive on the domain; "
               "lam(0.0, 0.0) <= 0\n", EMPTY_SHA256),
        "lam-dips-under-patch": (
            ["check-surface", "--lambda=x^2-0.0001", "--domain", "-2", "2",
             "-1", "1", "--graph=0.5*x",
             "--patch-domain", "-0.4", "0.4", "-0.4", "0.4",
             "--grid", "1", "1"],
            2, "error: lam must be positive on the domain; "
               "lam(0.0, -0.384) <= 0\n", EMPTY_SHA256),
        "lam-dips-under-curve": (
            ["hopf", "check", "--lambda=x^2-0.0001", "--domain", "-2", "2",
             "-1", "1", "--curve=s;0.1", "--interval", "-1", "1"],
            2, "error: lam must be positive on the domain; "
               "lam(-0.0078125, 0.1) <= 0\n", EMPTY_SHA256),
        # finite sides whose diagonal overflows: the lattice step was inf
        # and every row skipped, with exit 0
        "patch-diameter-overflows": (
            ["check-surface", "--lambda", "1",
             "--domain", "-8.9e307", "8.9e307", "-8.9e307", "8.9e307",
             "--graph=x", "--patch-domain", "-8e307", "8e307", "-8e307",
             "8e307", "--grid", "1", "1"],
            2, "error: patch domain Rect(xmin=-8e+307, xmax=8e+307, "
               "ymin=-8e+307, ymax=8e+307) has diameter inf\n",
            EMPTY_SHA256),
    }

    @pytest.mark.parametrize("case", sorted(COMMANDS))
    def test_command_exit_stderr_and_stdout_are_pinned(self, capsys, case):
        argv, code, err, digest = self.COMMANDS[case]
        got_code, out, got_err = run(capsys, *argv)
        assert (got_code, got_err) == (code, err)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_a_corpus_line_takes_a_sub_lattice(self, capsys, monkeypatch):
        masks = []
        take = srf._Lattice.take

        def spied(lat, mask):
            masks.append(bool(np.all(mask)))
            return take(lat, mask)

        monkeypatch.setattr(srf._Lattice, "take", spied)
        assert run(capsys, *self.COMMANDS["lattice-take"][0])[0] == 0
        assert False in masks

    @pytest.mark.parametrize("case, builds", [
        # the joint batch, tried once, the grid, the centres, the
        # stencils, and the probes and the 11 builds of their bisection
        ("lattice-batch-raises", 16),
        # the joint batch, kept
        ("lattice-batch-non-finite", 1),
    ])
    def test_a_failed_lattice_builds_its_groups_as_batches(
            self, capsys, monkeypatch, case, builds):
        # 1,270 and 1,480 builds while a failed lattice split into a
        # lattice per point, each building its rows one at a time
        calls = []
        build = srf._build

        def counted(patch, us, vs):
            calls.append(len(us))
            return build(patch, us, vs)

        monkeypatch.setattr(srf, "_build", counted)
        run(capsys, *self.COMMANDS[case][0])
        assert len(calls) == builds


def assert_refused_for_memory(*argv) -> None:
    """Run the CLI in a child with its address space capped at 4 GiB, so
    no machine can overcommit a 7.28 TiB request, and expect exit 2 with
    one ``MemoryError`` line."""
    def cap():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(ksub.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-m", "ksub.cli", *argv],
                            env=env, preexec_fn=cap, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    [line] = result.stderr.splitlines()
    assert line.startswith("error: MemoryError: ")


@pytest.mark.parametrize("argv", [
    ("info", "--lambda", "1"),
    ("check-surface", "--lambda", "1", "--graph=x")], ids=["info", "surface"])
def test_grid_beyond_memory_exits_2(argv):
    # 10^6 x 10^6 points ask numpy for 7.28 TiB of coordinates at once; a
    # list of point tuples grew until the memory was gone
    assert_refused_for_memory(*argv, "--grid", "1000000", "1000000")


@pytest.mark.parametrize("flag, argv", [
    ("--grid", ["info", "--lambda", "1", "--grid", str(2 ** 63 - 1), "1"]),
    ("--grid", ["info", "--lambda", "1", "--grid", "2", str(2 ** 63)]),
    ("--grid", ["check-surface", "--lambda", "1", "--graph", "x",
                "--grid", str(2 ** 63 - 1), "1"]),
    ("--samples", ["hopf", "check", "--bcv", "1", "0", "--circle-kg", "1",
                   "--samples", str(2 ** 63)]),
], ids=["info-nx", "info-ny", "surface", "hopf"])
def test_count_numpy_cannot_size_is_a_usage_error(capsys, flag, argv):
    # np.linspace died on these counts with an IndexError traceback, exit 1;
    # they are refused as the flag is read, before any array is asked for
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert "usage:" in err and f"argument {flag}: must be at most" in err


class TestHopfCommand:
    def test_sample_count_beyond_memory_exits_2(self):
        # 10^12 samples ask numpy for a 7.28 TiB array
        assert_refused_for_memory("hopf", "check", "--bcv", "1", "0",
                                  "--circle-kg", "1",
                                  "--samples", "1000000000000")

    def test_example_cosine(self, capsys):
        code, data, _ = run_json(capsys, "hopf", "example", "--f", "cos(t)",
                                 "--r", "0", "--interval", "0", "1.5",
                                 "--expect", "pass")
        assert code == 0
        root = data["roots"][0]
        assert root["t0"] == pytest.approx(math.pi / 4, abs=1e-8)
        assert root["kappa_g_sq"] == pytest.approx(1.0, abs=1e-10)
        assert root["verdict"]["passed"] is True

    def test_heisenberg_circle_fails(self, capsys):
        code, data, _ = run_json(capsys, "hopf", "check", "--bcv", "0", "0.5",
                                 "--circle", "1")
        assert code == 0  # no --expect given
        assert data["verdict"]["passed"] is False
        assert data["verdict"]["admissible"] is False

    def test_expect_pass_on_failure_exits_1(self, capsys):
        code, _, _ = run(capsys, "hopf", "check", "--bcv", "0", "0.5",
                         "--circle", "1", "--expect", "pass")
        assert code == 1

    def test_expect_fail_on_failure_exits_0(self, capsys):
        code, _, _ = run(capsys, "hopf", "check", "--bcv", "0", "0.5",
                         "--circle", "1", "--expect", "fail")
        assert code == 0

    def test_circle_kg_passes(self, capsys):
        code, data, _ = run_json(capsys, "hopf", "check", "--bcv", "1", "0",
                                 "--circle-kg", "1", "--expect", "pass")
        assert code == 0
        assert data["verdict"]["passed"] is True
        assert data["max_residual"] <= 1e-5

    def test_custom_curve_reparametrized(self, capsys):
        code, data, _ = run_json(
            capsys, "hopf", "check", "--lambda", "1", "--a", "0", "--b", "0",
            "--domain", "-3", "3", "-3", "3",
            "--curve", "2*cos(s);2*sin(s)", "--interval", "0", "6.283185307",
            "--samples", "16")
        assert code == 0
        assert data["verdict"]["kappa_mean"] == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("argv", [
        ("check", "--bcv", "1", "0", "--circle-kg", "1"),
        ("example", "--f", "cos(t)", "--r", "0", "--interval", "0", "1.5"),
    ])
    def test_tol_sets_the_verdict_tolerance(self, capsys, argv):
        code, data, _ = run_json(capsys, "hopf", *argv, "--tol", "1e-30")
        assert code == 0  # no --expect given
        verdict = (data["verdict"] if argv[0] == "check"
                   else data["roots"][0]["verdict"])
        assert verdict["passed"] is False
        assert verdict["reason"] == "kappa_g, r or G varies along the curve"
        code, out, _ = run(capsys, "hopf", *argv, "--tol", "1e-30",
                           "--format", "csv")
        assert all(row.endswith(",fail") for row in out.splitlines()[1:])

    @pytest.mark.parametrize("circle", [
        ("--bcv", "4", "0", "--circle-kg", "1e200"),   # radius overflows
        ("--bcv", "0", "0", "--circle-kg", "1e-320"),  # radius overflows
        ("--bcv", "1", "0", "--circle", "1e308"),      # scale underflows
        ("--bcv", "1", "0", "--circle", "0"),
    ])
    def test_degenerate_circle_names_its_radius(self, capsys, circle):
        code, out, err = run(capsys, "hopf", "check", *circle)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "circle radius" in err
        assert "undeclared variable" not in err

    def test_zero_samples_exits_2(self, capsys):
        code, out, err = run(capsys, "hopf", "check", "--bcv", "1", "0",
                             "--circle-kg", "1", "--samples", "0")
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--samples" in err
        assert "zero-size" not in err

    def test_one_sample_exits_2(self, capsys):
        # one sample has no spread: it certified "constant" from nothing
        code, out, err = run(capsys, "hopf", "check", "--bcv", "1", "0",
                             "--circle-kg", "1", "--samples", "1")
        assert (code, out) == (2, "")
        assert err == ("error: a constancy check needs at least 2 samples, "
                       "got 1\n")

    def test_interval_shorter_than_the_stencil_exits_2(self, capsys):
        # the kappa'' stencil needs 6e-6 of arc length; the samples would
        # otherwise fall outside the curve
        code, out, err = run(capsys, "hopf", "check", "--lambda", "1",
                             "--curve", "cos(s);sin(s)",
                             "--interval", "0", "1e-9", "--samples", "3",
                             "--format", "csv")
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "1.000e-09" in err and "6.000e-06" in err

    def test_circle_with_curve_exits_2(self, capsys):
        # --curve was dropped without a word
        code, out, err = run(capsys, "hopf", "check", "--bcv", "1", "0",
                             "--circle", "0.5", "--curve", "cos(s);sin(s)",
                             "--interval", "0", "1")
        assert (code, out) == (2, "")
        assert err == ("error: give either --circle/--circle-kg or --curve, "
                       "not both\n")

    @pytest.mark.parametrize("circle", [("--circle", "0.5"),
                                        ("--circle-kg", "1")])
    def test_circle_with_interval_exits_2(self, capsys, circle):
        # --interval was dropped without a word: a circle is whole
        code, out, err = run(capsys, "hopf", "check", "--bcv", "1", "0",
                             *circle, "--interval", "0", "1")
        assert (code, out) == (2, "")
        assert err == ("error: give either --circle/--circle-kg or "
                       "--interval, not both\n")

    def test_example_identically_zero_exits_2(self, capsys):
        code, _, err = run(capsys, "hopf", "example", "--f", "1", "--r", "0",
                           "--interval", "0", "1")
        assert code == 2
        assert "no isolated root" in err


class TestVerifyPaper:
    def test_subset_runs(self, capsys):
        code, data, err = run_json(capsys, "verify-paper", "--only", "bcv")
        assert code == 0
        assert len(data["checks"]) == 1
        assert data["checks"][0]["check"] == "bcv-constants"
        assert data["checks"][0]["status"] == "pass"
        assert "PASS" in err

    def test_unmatched_subset_exits_2(self, capsys):
        code, out, err = run(capsys, "verify-paper", "--only", "nonexistent")
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "'nonexistent'" in err
        assert all(name in err for name in verify.CHECK_NAMES)

    def test_tightened_tolerance_fails_fd_limited_checks(self, capsys):
        code, data, _ = run_json(capsys, "verify-paper", "--only", "surface",
                                 "--tol", "1e-12")
        assert code == 1
        assert data["checks"][0]["status"] == "fail"
        assert data["checks"][0]["residual"] > 1e-12

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify-paper", "--only", "bcv",
                         "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["all_pass"] is True


OPS = {
    "info": ["info", "--bcv", "1", "1", "--grid", "12", "12"],
    "check-surface": ["check-surface", "--bcv", "1", "1",
                      "--surface", "0.8*cos(u);0.8*sin(u);v",
                      "--patch-domain", "0", "3", "0", "1", "--grid", "2", "2"],
    "hopf": ["hopf", "check", "--bcv", "1", "0", "--circle-kg", "1"],
}


class TestOnePointEvaluations:
    """Every consumer on the verify and check-surface paths evaluates its
    expressions as batches; one-point evaluations are the few left over
    (the counts are the same on a first and on a later run)."""

    @pytest.fixture
    def one_point(self, monkeypatch):
        # a point is a batch of one, so an evaluation of one point is a
        # batch of size one
        seen = []
        evaluate = expr._evaluate

        def counted(e, coords, arithmetic):
            if not coords or len(coords[0]) == 1:
                seen.append(e)
            return evaluate(e, coords, arithmetic)

        monkeypatch.setattr(expr, "_evaluate", counted)
        return seen

    def test_verify_suite(self, one_point):
        assert all(r.status == "pass" for r in verify.run_checks())
        assert len(one_point) < 1000

    def test_check_surface(self, one_point, capsys):
        assert main(["check-surface", "--bcv", "0", "0.5", "--graph", "x*y",
                     "--grid", "3", "3"]) == 0
        capsys.readouterr()
        assert len(one_point) < 20


class TestWorkingSet:
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_op_leaves_no_cycles_behind(self, op, capsys):
        # an op's working set is freed by reference count: evaluation,
        # point records and patches form no cycles for the collector
        assert main(OPS[op]) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(OPS[op]) == 0
            unreachable = gc.collect()
        finally:
            gc.enable()
        capsys.readouterr()
        # 0 measured (374 argparse objects while main built a parser per call)
        assert unreachable <= 10

    # calls per (op, points): info evaluates its grid as one batch, hopf
    # r and its base jets at the 5 stencil columns of its 64 samples as
    # one batch, check-surface the base points of its 25 regularity-grid
    # points and of its 164 lattice rows as one batch, a cylinder's
    # repeated base points included
    CALLS = {("info", 144): 1, ("hopf", 320): 1, ("check-surface", 189): 1}

    @staticmethod
    def _points(p):
        # base points in one call: one, or a batch of coordinate arrays
        return len(p[0]) if isinstance(p[0], np.ndarray) else 1

    @pytest.mark.parametrize("op, points", [("info", 144), ("hopf", 320)])
    def test_bundle_curvature_once_per_point(self, op, points, monkeypatch,
                                             capsys):
        seen = []
        original = geo.bundle_curvature

        def counted(data, p):
            seen.append(self._points(p))
            return original(data, p)

        monkeypatch.setattr(geo, "bundle_curvature", counted)
        assert main(OPS[op]) == 0
        capsys.readouterr()
        assert sum(seen) == points
        assert len(seen) == self.CALLS[op, points]

    @pytest.mark.parametrize("op, points", [("info", 144), ("hopf", 320),
                                            ("check-surface", 189)])
    def test_base_jets_evaluated_once_per_batch_row(self, op, points,
                                                    monkeypatch, capsys):
        # grad r is read from the point's own jets, so no base point is
        # evaluated only to feed a difference stencil; r and G share the
        # batch of info; a batch is evaluated as given, so check-surface
        # counts its rows, not its distinct base points
        seen = []
        original = geo.KillingData._eval_base_jets

        def counted(data, x, y):
            seen.append(self._points((x, y)))
            return original(data, x, y)

        monkeypatch.setattr(geo.KillingData, "_eval_base_jets", counted)
        assert main(OPS[op]) == 0
        capsys.readouterr()
        assert sum(seen) == points
        assert len(seen) == self.CALLS[op, points]

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_the_metric_is_evaluated_by_value_once(self, op, monkeypatch,
                                                   capsys):
        # the validation grid of lam; every other value of lam is read from
        # the base jets (info, check-surface and hopf made 2, 2 and 3 value
        # evaluations while info's lam, the surface records' lam and the
        # conformal chart's metric and Ricci values were read by value)
        seen = []
        original = expr._evaluate

        def counted(e, coords, arithmetic):
            if arithmetic is expr._VALUES:
                seen.append(e)
            return original(e, coords, arithmetic)

        monkeypatch.setattr(expr, "_evaluate", counted)
        assert main(OPS[op]) == 0
        capsys.readouterr()
        assert len(seen) == 1
