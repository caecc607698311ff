"""Property test of ROADMAP aim 3: every generated command line ends in exit
0, 1 or 2, never in a traceback, and an exit 2 prints one ``error:`` line.

The metric fields of ``info`` and the graph height of ``check-surface`` are
the random expressions in x and y of ``test_batch``: all seven functions,
"/" and "^", so they divide by zero, overflow, leave their domains and go
non-finite.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ksub.cli import main  # noqa: E402
from test_batch import texts  # noqa: E402

# repr floats, "-3e-05" among them
points = st.lists(st.floats(-0.9, 0.9).map(repr), min_size=2, max_size=2)


def _ends_cleanly(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping it would be a traceback
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: ")


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
