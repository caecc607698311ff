"""The public surface: ``ksub.__all__``, each module's ``__all__`` and the
CLI flags. A change that adds, removes or renames a name or a flag fails
here and says so on purpose."""

import argparse
import importlib
import json
from pathlib import Path

import pytest

import ksub
from ksub import biharmonic as bih
from ksub import cli, hopf

MODULES = sorted(path.stem for path in Path(ksub.__file__).parent.glob("*.py")
                 if path.stem not in ("__init__", "__main__"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"ksub.{name}")
    for exported in getattr(module, "__all__", ()):
        assert hasattr(module, exported), f"ksub.{name}.{exported}"


def test_package_names():
    assert ksub.__all__ == ["Expr", "Jet", "parse", "eval_jet", "eval_value",
                            "compose_jet", "KillingData", "Rect", "bcv"]
    assert all(hasattr(ksub, name) for name in ksub.__all__)


def test_biharmonic_names():
    assert bih.__all__ == [
        "BitensionResidual", "BranchReport", "cmc_probe",
        "bitension_residual", "frame_system_residuals",
        "bitension_frame_identity", "angle_system_scalars",
        "angle_shape_residual", "classify_scalars", "classify_point"]


def command_flags(parser, command=()) -> dict:
    """Each (sub)command's option strings, read from the parser's actions."""
    found = {" ".join(command): {option for action in parser._actions
                                 for option in action.option_strings}}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(command_flags(sub, command + (name,)))
    return found


METRIC = {"--bcv", "--lambda", "--a", "--b", "--domain"}
OUTPUT = {"-h", "--help", "--format", "--out"}


def test_cli_flags():
    assert command_flags(cli.build_parser()) == {
        "": {"-h", "--help"},
        "info": OUTPUT | METRIC | {"--at", "--grid"},
        "check-surface": OUTPUT | METRIC | {"--surface", "--graph",
                                            "--patch-domain", "--grid",
                                            "--tol"},
        "hopf": {"-h", "--help"},
        "hopf check": OUTPUT | METRIC | {"--circle", "--circle-kg", "--curve",
                                         "--interval", "--samples", "--tol",
                                         "--expect"},
        "hopf example": OUTPUT | {"--f", "--r", "--interval", "--tol",
                                  "--expect"},
        "verify-paper": OUTPUT | {"--only", "--tol"},
    }


def test_defaults_read_their_module_constants(monkeypatch, capsys):
    # each default has one owner: the constant the library reads too, read
    # when the command runs, as the printed tol and the sample count show
    monkeypatch.setattr(bih, "RESIDUAL_TOL", 3e-4)
    monkeypatch.setattr(hopf, "CRITERION_TOL", 2e-5)
    monkeypatch.setattr(hopf, "SAMPLES", 16)

    def csv_rows(*argv):
        cli.main([*argv, "--format", "csv"])
        return [line.split(",") for line in
                capsys.readouterr().out.splitlines()[1:]]

    cli.main(["check-surface", "--bcv", "0", "0.5", "--graph", "x*y",
              "--grid", "1", "1"])
    assert json.loads(capsys.readouterr().out)["tol"] == 3e-4
    check = csv_rows("hopf", "check", "--bcv", "1", "0", "--circle-kg", "1")
    example = csv_rows("hopf", "example", "--f", "cos(t)", "--r", "0",
                       "--interval", "0", "1.5")
    assert (len(check), len(example)) == (16, 1)
    assert {row[4] for row in check + example} == {"2.000000000000e-05"}
