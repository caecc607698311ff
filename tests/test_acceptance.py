"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line with the worst residual and its pinned
tolerance (run pytest with -s to see them). The heavy numerical work lives
in ksub.verify, which the CLI `verify-paper` subcommand shares.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import ksub
from ksub import verify


def _report_line(report):
    return (f"{report.status.upper():4s} {report.name}: "
            f"residual={report.residual:.3e} tol={report.tol:.1e} "
            f"({report.location})")


def _assert_passes(report):
    print(_report_line(report))
    assert report.status == "pass", _report_line(report)


def test_criterion_01_connection_oracle():
    start = time.monotonic()
    report = verify.check_connection_oracle()
    elapsed = time.monotonic() - start
    _assert_passes(report)
    assert report.residual <= 1e-6
    assert elapsed < 5.0, f"connection oracle sweep took {elapsed:.2f}s"


def test_criterion_02_curvature_formula_equivalence():
    report = verify.check_curvature_formula()
    _assert_passes(report)
    assert report.residual <= 1e-5


def test_criterion_03_ricci_contraction():
    report = verify.check_ricci()
    _assert_passes(report)
    assert report.residual <= 1e-5
    assert report.details["heisenberg_residual"] <= 1e-8


def test_criterion_04_bcv_constants():
    report = verify.check_bcv_constants()
    _assert_passes(report)
    assert report.residual <= 1e-8


def test_criterion_05_hopf_tube_theorem():
    start = time.monotonic()
    report = verify.check_hopf_tube()
    elapsed = time.monotonic() - start
    _assert_passes(report)
    assert report.residual <= 1e-5
    assert report.details["kappa0.5_defect"] >= 0.1
    assert report.details["kappa2.0_defect"] >= 0.1
    assert report.details["heisenberg_admissible"] is False
    assert elapsed < 2.0, f"hopf tube checks took {elapsed:.2f}s"


def test_criterion_06_rotational_example():
    report = verify.check_rotational_example()
    _assert_passes(report)
    assert report.residual <= 1e-8
    assert report.details["residual_r0"] <= 1e-5


def test_criterion_07_surface_identity_suite():
    report = verify.check_surface_identities()
    _assert_passes(report)
    assert report.residual <= 1e-4


def test_criterion_08_harmonic_implies_biharmonic():
    report = verify.check_harmonic_sanity()
    _assert_passes(report)
    assert report.residual <= 1e-6


def test_criterion_09_branch_logic():
    report = verify.check_branch_logic()
    _assert_passes(report)
    assert report.residual <= 1e-12
    assert report.details["cylinder_branch"] == "a"
    assert report.details["degenerate_branch"] == "contradiction-propRconst"
    assert report.details["b2_branch"] == "b2"


def test_criterion_10_cli_determinism(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    # the child imports the package this run tests, installed or not
    env = {**os.environ,
           "PYTHONPATH": str(Path(ksub.__file__).resolve().parents[1])}
    for path in (first, second):
        proc = subprocess.run(
            [sys.executable, "-m", "ksub.cli", "verify-paper",
             "--out", str(path)],
            capture_output=True, text=True, timeout=600, env=env)
        assert proc.returncode == 0, proc.stderr
    same = first.read_bytes() == second.read_bytes()
    print(f"{'PASS' if same else 'FAIL'} cli-determinism: "
          f"{len(first.read_bytes())} bytes, byte-identical={same}")
    assert same
