"""The public surface: ``ksub.__all__``, each module's ``__all__`` and the
CLI flags. A change that adds, removes or renames a name or a flag fails
here and says so on purpose."""

import argparse
import importlib
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


def test_defaults_read_their_module_constants(monkeypatch):
    # each default has one owner: the constant the library reads too
    monkeypatch.setattr(bih, "RESIDUAL_TOL", 3e-4)
    monkeypatch.setattr(hopf, "CRITERION_TOL", 2e-5)
    monkeypatch.setattr(hopf, "SAMPLES", 16)
    parser = cli.build_parser()
    surface = parser.parse_args(["check-surface"])
    check = parser.parse_args(["hopf", "check"])
    example = parser.parse_args(["hopf", "example"])
    assert surface.tol == 3e-4
    assert (check.tol, check.samples, example.tol) == (2e-5, 16, 2e-5)
