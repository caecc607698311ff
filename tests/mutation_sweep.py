"""Operator-swap mutation sweep of one module of ``src/ksub``::

    python tests/mutation_sweep.py MODULE

Each ``+``/``-`` and ``*``/``/`` of a binary operation in
``src/ksub/MODULE.py`` is one site, and each site gives one mutant with that
operator swapped (+ with -, * with /), found with ``ast``; the rest of the
file keeps its bytes. Each ``<``, ``<=``, ``>`` and ``>=`` of a comparison is
a site too, whose mutant flips it (``<`` with ``>=``, ``<=`` with ``>``): a
surviving flip is a branch decision that no run tells from its negation.
The boundary swap ``<`` with ``<=`` is left out, as it mostly gives
equivalent mutants. Each mutant runs in a fresh temporary copy of
``src``, ``tests`` and ``pyproject.toml`` (pytest's ``pythonpath =
["src"]`` would otherwise load the unmutated tree). A mutant
is killed when ``python -m ksub.cli verify-paper`` exits non-zero, or
failing that when ``pytest -x -q -p no:cacheprovider tests/test_MODULE.py``
fails; a run that outlasts TIMEOUT seconds counts as a kill too. The sweep
prints each survivor's line and swap, then the totals of each kind of
mutant.

The unmutated tree must pass both runs first, or no kill would mean
anything. One mutant costs a ``verify-paper`` run (about 1.5 s) and, for a
survivor of it, one test file. Pytest does not collect this file, and
Tier-1 does not run it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
         ast.Mult: ("*", "/"), ast.Div: ("/", "*")}
FLIPS = {ast.Lt: ("<", ">="), ast.GtE: (">=", "<"),
         ast.LtE: ("<=", ">"), ast.Gt: (">", "<=")}
TIMEOUT = 300  # seconds for one run; a hung mutant counts as killed


def _locate(lines, line: int, col: int, op: str) -> tuple[int, int]:
    """(line, byte column) of the first ``op`` at or after (line, col),
    skipping comments (only brackets, blanks and comments can sit between
    an operand and its operator)."""
    while lines[line - 1][col:col + len(op)] != op.encode():
        if lines[line - 1][col:col + 1] in (b"#", b"\n", b""):
            line, col = line + 1, 0
        else:
            col += 1
    return line, col


def sites(source: str) -> list[tuple[int, int, str, str]]:
    """(line, byte column, operator, swap) of each swappable binary
    operator and each flippable comparison, the operator located after its
    left operand."""
    lines = source.encode().splitlines(keepends=True)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            pairs = [(node.left, SWAPS[type(node.op)])]
        elif isinstance(node, ast.Compare):
            pairs = [(left, FLIPS[type(op)]) for left, op in zip(
                [node.left, *node.comparators], node.ops)
                if type(op) in FLIPS]
        else:
            continue
        for left, (op, swap) in pairs:
            found.append((*_locate(lines, left.end_lineno,
                                   left.end_col_offset, op), op, swap))
    return sorted(found)


def mutate(source: str, line: int, col: int, op: str, swap: str) -> str:
    lines = source.encode().splitlines(keepends=True)
    text = lines[line - 1]
    lines[line - 1] = text[:col] + swap.encode() + text[col + len(op):]
    return b"".join(lines).decode()


def killed(tree: Path, module: str) -> str | None:
    """What kills the tree at ``tree``: "verify-paper", the test file, or
    "timeout"; None if it survives both."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    runs = (("verify-paper", [sys.executable, "-m", "ksub.cli",
                              "verify-paper"]),
            (f"tests/test_{module}.py",
             [sys.executable, "-m", "pytest", "-x", "-q", "-p",
              "no:cacheprovider", f"tests/test_{module}.py"]))
    for name, command in runs:
        try:
            done = subprocess.run(command, cwd=tree, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout"
        if done.returncode != 0:
            return name
    return None


def run_tree(module: str, source: str) -> str | None:
    """:func:`killed` on a fresh copy of the checkout with ``source`` as
    ``src/ksub/MODULE.py``."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        (tree / "src" / "ksub" / f"{module}.py").write_text(source)
        return killed(tree, module)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Operator-swap mutation sweep of src/ksub/MODULE.py")
    parser.add_argument("module", metavar="MODULE",
                        help="a module of src/ksub, such as biharmonic")
    module = parser.parse_args().module
    path = ROOT / "src" / "ksub" / f"{module}.py"
    if not path.is_file() or not (ROOT / "tests" / f"test_{module}.py"
                                  ).is_file():
        parser.error(f"needs src/ksub/{module}.py and tests/test_{module}.py")
    source = path.read_text()
    unmutated = run_tree(module, source)
    if unmutated is not None:
        print(f"the unmutated tree fails {unmutated}; no sweep")
        return 1

    kinds = {"operator swaps": set(SWAPS.values()),
             "comparison flips": set(FLIPS.values())}
    counts = {kind: {"verify-paper": 0, f"tests/test_{module}.py": 0,
                     "timeout": 0, "survive": 0} for kind in kinds}
    found = sites(source)
    for line, col, op, swap in found:
        [kind] = [k for k, pairs in kinds.items() if (op, swap) in pairs]
        verdict = run_tree(module, mutate(source, line, col, op, swap))
        if verdict is None:
            verdict = "survive"
            text = source.splitlines()[line - 1].strip()
            print(f"survives {module}.py:{line}:{col + 1} {op} -> {swap}"
                  f"  {text}", flush=True)
        counts[kind][verdict] += 1
    for kind, tally in counts.items():
        survivors = tally.pop("survive")
        print(f"{sum(tally.values()) + survivors} {kind} in {module}.py: "
              + ", ".join(f"{n} killed by {name}"
                          for name, n in tally.items())
              + f", {survivors} survive")
    return 0


if __name__ == "__main__":
    sys.exit(main())
