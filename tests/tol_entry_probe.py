"""Shows that the JSON of ``hopf check`` and ``hopf example`` moved only by
its ``"tol"`` entry between two checkouts::

    python tests/tol_entry_probe.py BEFORE AFTER

Each ``hopf`` command of the byte-identity corpus that writes JSON (the
workload ops of ``byte_probe.py`` at seed 1 and the ``HOPF_CASES`` of
``TestErrorPathCorpus``) runs in both checkouts, as ``byte_probe.py`` runs
them. AFTER's stdout loses its first ``"tol":VALUE,`` entry, the top-level
one, and must then equal BEFORE's stdout, with the same exit code and
stderr. One line per command: its label, ``same`` or ``differs``, and the
tol removed. The exit code is 1 if any command differs. Pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import byte_probe

TOL_ENTRY = re.compile(r'"tol":([^,]*),')


def _child() -> None:
    import contextlib
    import io

    from ksub.cli import main

    results = []
    for label, argv in (byte_probe._workload_commands([1])
                        + byte_probe._corpus_commands()):
        if argv[0] != "hopf" or "--format" in argv:
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results.append((label, code, out.getvalue(), err.getvalue()))
    print(json.dumps(results))


def _run(checkout: Path) -> list:
    root = checkout.resolve()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                          str(root / "perfbench")])}
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "import tol_entry_probe; tol_entry_probe._child()")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True,
                          preexec_fn=byte_probe._cap)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    before, after = _run(args.before), _run(args.after)
    if [run[0] for run in before] != [run[0] for run in after]:
        print("the two checkouts run different commands")
        return 1
    differs = 0
    for (label, *was), (_, code, out, err) in zip(before, after):
        entry = TOL_ENTRY.search(out)
        stripped = TOL_ENTRY.sub("", out, count=1)
        same = [code, stripped, err] == was
        differs += not same
        print(label, "same" if same else "differs",
              entry.group(1) if entry else "no-tol")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
