"""Property test of ROADMAP aim 3: every generated command line ends in exit
0, 1 or 2, never in a traceback, and an exit 2 prints one ``error:`` line.

The metric fields of ``info`` and the graph height of ``check-surface`` are
the random expressions in x and y of ``test_batch``: all seven functions,
"/" and "^", so they divide by zero, overflow, leave their domains and go
non-finite. The ``check-surface --surface`` patches are random expressions
in u and v built the same way; each run must also equal the points of its
grid checked one at a time, each on a lattice of its own. The ``hopf check
--curve`` curves and the ``hopf example --f`` profiles are random
expressions in s and in t; a curve's run that ends in exit 0 or 1 must
have evaluated the metric's lam, a and b only inside ``--domain``.
"""

import contextlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ksub import cli  # noqa: E402
from ksub import expr  # noqa: E402
from ksub import surface as srf  # noqa: E402
from ksub.cli import main  # noqa: E402
from ksub.errors import KsubError, POINT_FAILURES  # noqa: E402
from test_batch import _compound, texts  # noqa: E402

# repr floats, "-3e-05" among them
points = st.lists(st.floats(-0.9, 0.9).map(repr), min_size=2, max_size=2)


def _texts_in(*names):
    """Random expressions in ``names``, built as ``test_batch`` builds
    them."""
    return st.recursive(
        st.one_of(st.sampled_from(names),
                  st.floats(0.0, 4.0).map(lambda v: repr(round(v, 3)))),
        _compound, max_leaves=6)


uv_texts = _texts_in("u", "v")
s_texts = _texts_in("s")


def _ends_cleanly(argv):
    """The exit code, stdout and error line of a run that ends cleanly."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping it would be a traceback
    assert code in (0, 1, 2)
    line = None
    if code == 2:
        assert out.getvalue() == ""
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: ")
    return code, out.getvalue(), line


@settings(max_examples=150, deadline=None, database=None)
@given(texts, texts, texts, points)
def test_generated_metrics_end_in_an_exit_code(lam, a, b, at):
    _ends_cleanly(["info", f"--lambda=1+({lam})^2", f"--a={a}", f"--b={b}",
                   "--at", *at])


@settings(max_examples=60, deadline=None, database=None)
@given(texts)
def test_generated_graphs_end_in_an_exit_code(height):
    _ends_cleanly(["check-surface", "--bcv", "1", "0.5", f"--graph={height}",
                   "--grid", "2", "2"])


def _error_line(err) -> str:
    """The line ``main`` prints for a point's error."""
    if isinstance(err, KsubError):
        return f"error: {err}"
    return f"error: {type(err).__name__}: {err}"


def _per_point(argv):
    """Per point of the command's grid, its check rows on a lattice of its
    own, and the error lines of the points that raise alone."""
    args = cli._parser().parse_args(argv)
    rows, errors = [], set()
    with np.errstate(all="ignore"):
        patch = cli._patch_from_args(args, cli._metric_from_args(args))
        for q in patch.domain.grid(2, 2, inset=0.25):
            try:
                [checks] = cli._surface_checks(srf._Lattice(patch, [q]),
                                               args.tol)
            except POINT_FAILURES as err:
                errors.add(_error_line(err))
            else:
                rows.append(checks)
    return rows, errors


@settings(max_examples=60, deadline=None, database=None)
@given(uv_texts, uv_texts, uv_texts)
def test_generated_patches_equal_their_points(x, y, z):
    argv = ["check-surface", "--bcv", "1", "0.5",
            f"--surface=u+0.2*({x});v+0.2*({y});{z}",
            "--grid", "2", "2"]
    code, out, line = _ends_cleanly(argv)
    rows, errors = _per_point(argv)
    if errors:
        # the error of the first failing row in read order is an error its
        # point raises alone
        assert code == 2 and line in errors
        return
    bad = [(n, k) for n, checks in enumerate(rows)
           for k, chk in enumerate(checks)
           if not math.isfinite(chk["residual"])]
    if bad:
        n, k = bad[0]
        assert (code, line) == (
            2, f"error: non-finite result at points[{n}].checks[{k}].residual")
        return
    failed = any(chk["status"] == "fail" and chk["check"] in cli._INTEGRITY
                 for checks in rows for chk in checks)
    assert code == (1 if failed else 0)
    assert [point["checks"] for point in json.loads(out)["points"]] \
        == json.loads(cli.dumps_json(rows))


@settings(max_examples=60, deadline=None, database=None)
@given(s_texts, s_texts, st.sampled_from(("pass", "fail")))
# starts 2e-4 outside and is back inside within the first 2 h of arc
# length, where no sweep column reaches: only the speed grid reads there
@example("2.501-s", "0", "pass")
def test_generated_curves_read_the_metric_inside_the_domain(x, y, expect):
    # a perturbed unit circle; every point where a run which ends in a
    # verdict evaluates lam, a or b (the command's only expressions in x
    # and y), values and jets alike, lies inside the rectangle
    batches = []
    original = expr._evaluate

    def recorded(e, coords, arithmetic):
        if e.variables == ("x", "y"):
            batches.append(tuple(np.array(c, dtype=float) for c in coords))
        return original(e, coords, arithmetic)

    with mock.patch.object(expr, "_evaluate", recorded):
        code, _, _ = _ends_cleanly([
            "hopf", "check", "--lambda", "1", "--a=-0.5*y", "--b=0.5*x",
            "--domain", "-1.5", "1.5", "-1.5", "1.5",
            f"--curve=cos(s)+0.2*({x});sin(s)+0.2*({y})",
            "--interval", "0", "1", "--samples", "8", "--expect", expect])
    if code != 2:
        assert batches
        for xs, ys in batches:
            assert ((-1.5 < xs) & (xs < 1.5) & (-1.5 < ys) & (ys < 1.5)).all()


@settings(max_examples=40, deadline=None, database=None)
@given(_texts_in("t"))
def test_generated_profiles_end_in_an_exit_code(f):
    # a perturbed profile with six roots of the circle condition
    _ends_cleanly(["hopf", "example", f"--f=1+0.5*sin(3*t)+0.1*({f})",
                   "--r", "0.1", "--interval", "0.1", "6", "--expect", "pass"])


# the nodes of the 8x8 positivity grid of --domain -2 2 -1 1 (inset 2 %)
GRID_X = np.linspace(-1.92, 1.92, 8)
GRID_Y = np.linspace(-0.96, 0.96, 8)


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 6), st.integers(0, 6), st.floats(0.2, 0.8),
       st.floats(0.2, 0.8), st.floats(1e-8, 1e-3),
       st.sampled_from(("info", "check-surface", "hopf")))
def test_a_dip_between_the_grid_nodes_never_exits_0(i, j, fx, fy, depth,
                                                     command):
    # lam < 0 only within sqrt(depth) <= 0.032 of (cx, cy), inside a cell of
    # the grid whose nodes stay more than 0.2 of a cell side (0.055) away,
    # so the grid passes; each command reads lam at the dip (a patch may
    # first meet a point where lam is so small that it is degenerate)
    x = float(GRID_X[i] + fx * (GRID_X[i + 1] - GRID_X[i]))
    y = float(GRID_Y[j] + fy * (GRID_Y[j + 1] - GRID_Y[j]))
    cx, cy = repr(x), repr(y)
    argv = {
        "info": ["info", "--at", cx, cy],
        # the centre of the 5x5 regularity grid is the dip
        "check-surface": ["check-surface", "--graph=0", "--patch-domain",
                          *map(repr, (x - 0.01, x + 0.01, y - 0.01, y + 0.01)),
                          "--grid", "1", "1"],
        # the middle of the 257 speed samples is the dip
        "hopf": ["hopf", "check", f"--curve=s;{cy}", "--interval",
                 repr(x - 0.05), repr(x + 0.05)],
    }[command]
    code, _, _ = _ends_cleanly(argv + [
        f"--lambda=(x-({cx}))^2+(y-({cy}))^2-{depth!r}",
        "--domain", "-2", "2", "-1", "1"])
    assert code == 2
