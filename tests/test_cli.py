import gc
import json
import math
import os
import subprocess
import sys
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
from ksub.cli import _surface_point_checks, dumps_json, main
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
        monkeypatch.setattr(srf, "compatibility_residuals",
                            lambda patch, q: (1e-9, math.nan))
        checks = _surface_point_checks(patch, (0.2, 0.1), 1e-4)
        by_name = {c["check"]: c for c in checks}
        assert math.isnan(by_name["compatibility"]["residual"])
        assert by_name["compatibility"]["status"] == "fail"


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
    (["hopf", "check", "--lambda", "1", "--curve", "2*cos(s);2*sin(s)",
      "--interval", "0", "6.283185307", "--samples", "16"], 0),
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

        for owner, name in ((cli, "batched"), (cli, "_surface_point_checks"),
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


class TestHopfCommand:
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
    # its 64 samples (r) and its 5 stencil columns of 64 (base jets) as
    # batches, check-surface the distinct base points of its regularity
    # grid and of its lattice as one batch each
    CALLS = {("info", 144): 1, ("hopf", 64): 1, ("hopf", 320): 5,
             ("check-surface", 23): 2}

    @staticmethod
    def _points(p):
        # base points in one call: one, or a batch of coordinate arrays
        return len(p[0]) if isinstance(p[0], np.ndarray) else 1

    @pytest.mark.parametrize("op, points", [("info", 144), ("hopf", 64)])
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
                                            ("check-surface", 23)])
    def test_base_jets_evaluated_once_per_point(self, op, points, monkeypatch,
                                                capsys):
        # grad r is read from the point's own jets, so no base point is
        # evaluated only to feed a difference stencil; r and G share the
        # batch of info
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
