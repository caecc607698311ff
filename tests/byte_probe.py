"""Byte-identity probe: one line per command of a fixed corpus, run on one
checkout, so that two checkouts compare with ``diff``::

    python tests/byte_probe.py CHECKOUT [--seeds 1 7] > probe.txt

It first prints ``#`` lines naming the seeds, the Python, numpy and C
library versions, and the command that writes the committed corpus
``byte_corpus.txt`` (seed 1), which ``test_byte_corpus.py`` replays.

A command's line is ``label exit-code sha256(stdout) sha256(stderr)``; a
``verify/`` line holds the status, the ``float.hex`` residual and the
location of one report of ``verify.run_checks()``. The corpus is

- every op of the four benchmark workloads at each seed, drawn by the
  checkout's ``perfbench/workloads.py`` (imported, never changed), and each
  ``check-surface`` and ``hopf check`` op again with ``--format csv``;
- the commands of ``TestErrorPathCorpus`` in the ``test_cli.py`` beside
  this file (read with ``ast``, so both checkouts run the same corpus);
- the robustness inputs of ROADMAP aim 3 and ``verify-paper --tol 1e-12``.

The commands run in order through ``ksub.cli.main`` in one child process
per checkout, with the checkout's ``src`` first on the path and the
address space capped at 4 GiB, since one input asks numpy for 7.28 TiB.
Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

RUN_SECONDS = 20  # the run length of BENCHMARK.json, so the ops are its ops
REGENERATE = "python tests/byte_probe.py . --seeds 1 > tests/byte_corpus.txt"


def versions() -> str:
    """The versions whose libm and numpy kernels fix the last bits."""
    import platform

    import numpy

    libc, libc_version = platform.libc_ver()
    return (f"python {platform.python_version()} numpy {numpy.__version__} "
            f"{libc or 'libc'} {libc_version or 'unknown'}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _value(node):
    """The value of a constant expression of the test file (a literal, or
    strings joined and concatenated), with no names in scope."""
    code = compile(ast.Expression(node), "test_cli.py", "eval")
    return eval(code, {"__builtins__": {}})


def _corpus_commands() -> list[tuple[str, list[str]]]:
    """The argv of each ``TestErrorPathCorpus`` command, as the tests run
    them."""
    source = (Path(__file__).parent / "test_cli.py").read_text()
    [cls] = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.ClassDef)
             and node.name == "TestErrorPathCorpus"]
    prefix = {"CASES": (["check-surface"], ["--grid", "2", "2"]),
              "HOPF_CASES": (["hopf"], []), "COMMANDS": ([], [])}
    commands = []
    for node in cls.body:
        if isinstance(node, ast.Assign) and node.targets[0].id in prefix:
            head, tail = prefix[node.targets[0].id]
            for key, value in zip(node.value.keys, node.value.values):
                commands.append((f"corpus/{_value(key)}",
                                 head + _value(value.elts[0]) + tail))
    return commands


def _edge_commands() -> list[tuple[str, list[str]]]:
    at = ["--at", "0", "0"]
    return [
        ("aim3/overflow", ["info", "--lambda", "exp(400*x)", "--domain", "0",
                           "2", "0", "2", "--at", "0.5", "0.5"]),
        ("aim3/non-finite", ["info", "--lambda", "1", "--b", "1e200*x^2",
                             "--at", "1.5", "1"]),
        ("aim3/parentheses", ["info", "--lambda=1",
                              "--a=" + "(" * 300 + "x" + ")" * 300] + at),
        ("aim3/sum", ["info", "--lambda=1", "--a=" + "+".join(["x"] * 3000)]
         + at),
        ("aim3/minus", ["info", "--lambda=1", "--a=" + "-" * 1500 + "x"] + at),
        ("aim3/samples", ["hopf", "check", "--bcv", "1", "0", "--circle-kg",
                          "1", "--samples", "1000000000000"]),
        ("edge/verify-tight", ["verify-paper", "--tol", "1e-12"]),
    ]


def _workload_commands(seeds) -> list[tuple[str, list[str]]]:
    import workloads

    commands = []
    for seed in seeds:
        for name in workloads.WORKLOADS:
            for n, op in enumerate(workloads.generate(name, seed,
                                                      RUN_SECONDS)):
                label = f"{name}/{seed}/{n}/{op.kind}"
                commands.append((label, list(op.argv)))
                if op.argv[0] == "check-surface" or op.argv[:2] == ("hopf",
                                                                    "check"):
                    commands.append((label + "/csv",
                                     list(op.argv) + ["--format", "csv"]))
    return commands


def _child(seeds) -> None:
    from ksub import verify
    from ksub.cli import main

    print(f"# byte_probe.py at seeds {' '.join(map(str, seeds))}: label, "
          "exit code, sha256 of stdout and of stderr per command; status, "
          "float.hex residual and location per verify check")
    print(f"# versions: {versions()}")
    print(f"# regenerate: {REGENERATE}", flush=True)
    for label, argv in (_workload_commands(seeds) + _corpus_commands()
                        + _edge_commands()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        print(label, code, _sha(out.getvalue()), _sha(err.getvalue()),
              flush=True)
    for report in verify.run_checks():
        print(f"verify/{report.name}", report.status,
              float(report.residual).hex(), repr(report.location), flush=True)


def _cap() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                          str(root / "perfbench")])}
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "import byte_probe; "
            f"byte_probe._child({args.seeds!r})")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          preexec_fn=_cap).returncode


if __name__ == "__main__":
    sys.exit(main())
