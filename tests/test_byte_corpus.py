"""Replay of the committed byte-identity corpus.

``byte_corpus.txt`` holds one line per command of ``byte_probe.py`` at seed
1: every op of the four benchmark workloads (and the ``--format csv``
reruns), the error-path and robustness commands, and the residuals of
``verify.run_checks()``. A change that moves any byte of any output fails
here; if the move is meant, regenerate the corpus with the command in its
header and say in CHANGES.md what moved and why. The last bits of libm and
numpy kernels depend on the versions the header names, so on other versions
the test fails and names them rather than skipping.
"""

import subprocess
import sys
from pathlib import Path

import byte_probe

HERE = Path(__file__).parent
CORPUS = HERE / "byte_corpus.txt"


def _split(text):
    lines = text.splitlines()
    return ([line for line in lines if line.startswith("#")],
            [line for line in lines if not line.startswith("#")])


def test_environment_matches_the_corpus():
    header, _ = _split(CORPUS.read_text())
    [made_on] = [line.removeprefix("# versions: ") for line in header
                 if line.startswith("# versions: ")]
    assert made_on == byte_probe.versions(), (
        f"the corpus was made on {made_on}, this is "
        f"{byte_probe.versions()}; regenerate it with "
        f"{byte_probe.REGENERATE!r} at a commit whose outputs are known good")


def test_every_output_equals_the_corpus():
    proc = subprocess.run(
        [sys.executable, str(HERE / "byte_probe.py"), str(HERE.parent),
         "--seeds", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _, got = _split(proc.stdout)
    _, want = _split(CORPUS.read_text())
    moved = [f"{w!r} -> {g!r}" for w, g in zip(want, got) if w != g]
    assert not moved and len(got) == len(want), (
        f"{len(moved)} of {len(want)} lines moved "
        f"({len(got)} lines now):\n" + "\n".join(moved[:20]))
