import ast
import inspect
import itertools
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from test_expr import _scopes_where

import ksub
from ksub import biharmonic as bih
from ksub import geometry as geo
from ksub import hopf
from ksub import surface as srf
from ksub import verify
from ksub.verify import _Worst

# the checks that take a tolerance, in run order; cli-determinism, which
# serializes the reports before it, takes none
TOL_CHECKS = ["connection-oracle", "curvature-formula", "ricci",
              "bcv-constants", "hopf-tube", "rotational-example",
              "surface-identities", "harmonic-sanity", "branch-logic"]


def _check(name):
    return getattr(verify, "check_" + name.replace("-", "_"))


class TestWorst:
    def test_keeps_largest_magnitude(self):
        worst = _Worst()
        worst.update(0.5, "a")
        worst.update(-2.0, "b")
        worst.update(1.0, "c")
        assert (worst.value, worst.location) == (2.0, "b")

    def test_nan_wins_and_stays(self):
        worst = _Worst()
        worst.update(1e-9, "a")
        worst.update(math.nan, "b")
        worst.update(5.0, "c")
        worst.update(math.nan, "d")
        assert math.isnan(worst.value) and worst.location == "b"
        report = worst.report("x", 1e-6, {})
        assert report.status == "fail"
        assert math.isnan(report.residual) and report.location == "b"

    @pytest.mark.parametrize("residual, holds, status", [
        (1e-6, True, "pass"), (2e-6, True, "fail"), (0.0, False, "fail")],
        ids=["within-tol", "over-tol", "failed-condition"])
    def test_report_passes_when_no_condition_fails_and_within_tol(
            self, residual, holds, status):
        worst = _Worst()
        worst.update(residual, "here")
        worst.require(holds, "|H| > 1e-9", "plane", 0.5)
        report = worst.report("x", 1e-6, {"n": 1})
        named = {} if holds else {"condition": "|H| > 1e-9", "where": "plane",
                                  "value": 0.5}
        assert (report.name, report.status, report.residual, report.tol,
                report.location, report.details) == (
            "x", status, residual, 1e-6,
            "here" if holds else "|H| > 1e-9, plane, 0.5", {"n": 1, **named})

    def test_the_first_failed_condition_is_kept(self):
        worst = _Worst()
        worst.require(True, "a", "p", 1)
        worst.require(False, "b", "q", 2)
        worst.require(False, "c", "r", 3)
        report = worst.report("x", 1.0, {})
        assert (report.status, report.location) == ("fail", "b, q, 2")


class TestRunChecksTolerances:
    def received(self, monkeypatch, **kwargs):
        """The ``tol`` each check is called with by run_checks(**kwargs);
        the check bodies do not run."""
        seen = {}
        for name in TOL_CHECKS:
            def fake(tol=None, _name=name):
                seen[_name] = tol
                return verify.CheckReport(_name, "pass", 0.0, 0.0)

            monkeypatch.setattr(verify, "check_" + name.replace("-", "_"),
                                fake)
        reports = verify.run_checks(**kwargs)
        assert [r.name for r in reports] == verify.CHECK_NAMES
        return seen

    @pytest.mark.parametrize("tol", [None, 3e-3, 0.0])
    def test_each_check_receives_the_one_tol(self, monkeypatch, tol):
        kwargs = {} if tol is None else {"tol": tol}
        seen = self.received(monkeypatch, **kwargs)
        assert seen == dict.fromkeys(TOL_CHECKS, tol)

    @pytest.mark.parametrize("name", TOL_CHECKS)
    def test_each_check_takes_one_tol_none_by_default(self, name):
        assert list(inspect.signature(_check(name)).parameters.values()) == [
            inspect.Parameter("tol", inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              default=None)]

    def test_check_names_keep_their_order(self):
        assert verify.CHECK_NAMES == [*TOL_CHECKS, "cli-determinism"]

    @pytest.mark.parametrize("only, default", [("connection-oracle", 1e-6),
                                               ("branch-logic", 1e-12)])
    def test_reports_carry_the_tolerance(self, only, default):
        assert [r.tol for r in verify.run_checks(only=only)] == [default]
        assert [r.tol for r in verify.run_checks(only=only, tol=2e-3)] == [2e-3]

    def test_zero_tol_is_an_override(self):
        # 0.0 once read as "no override": ricci reported 1e-05 and passed
        # on its finite-difference residual
        [report] = verify.run_checks(only="ricci", tol=0.0)
        assert (report.tol, report.status) == (0.0, "fail")
        assert report.residual > 0.0


def _offset(function, delta, where=None):
    """``function`` with ``delta`` added to what it returns (to the first
    part of a tuple), at every point or only at the point ``where``."""
    def wrapped(data, p):
        out = function(data, p)
        if where is not None and p != where:
            return out
        if isinstance(out, tuple):
            return (out[0] + delta, *out[1:])
        return out + delta
    return wrapped


def _sweep_off(cases, delta):
    return [replace(c, report=replace(c.report,
                                      residuals=c.report.residuals + delta))
            for c in cases]


class TestOverrideReachesEverySecondaryTolerance:
    # each row breaks one tolerance of a check that reads more than one:
    # the check fails at its defaults and passes once tol replaces them all
    ROWS = [
        # the Heisenberg entry (1e-8) next to the contraction's 1e-5
        ("ricci", geo, "ricci",
         lambda f: _offset(f, 1e-6, where=(0.3, -0.4)), 1e-5),
        # r (1e-10) and G (1e-8); the report carries the larger
        ("bcv-constants", geo, "bundle_curvature",
         lambda f: _offset(f, 1e-9), 1e-7),
        ("bcv-constants", geo, "gauss_curvature",
         lambda f: _offset(f, 1e-7), 1e-6),
        # the sweep residual (1e-5) next to the roots' 1e-8
        ("rotational-example", hopf, "rotational_case_search",
         lambda f: lambda *args: _sweep_off(f(*args), 1e-4), 1e-3),
    ]

    @pytest.mark.parametrize("check, module, name, spoil, loose", ROWS,
                             ids=["ricci-heisenberg", "bcv-r", "bcv-G",
                                  "rotational-sweep"])
    def test_fails_at_default_and_passes_loosened(self, check, module, name,
                                                  spoil, loose, monkeypatch):
        monkeypatch.setattr(module, name, spoil(getattr(module, name)))
        assert _check(check)().status == "fail"
        assert _check(check)(loose).status == "pass"

    def test_ricci_names_the_heisenberg_point(self, monkeypatch):
        # the residual was the Heisenberg deviation but the location stayed
        # on the contraction's worst point
        monkeypatch.setattr(geo, "ricci",
                            _offset(geo.ricci, 1e-6, where=(0.3, -0.4)))
        [report] = verify.run_checks(only="ricci")
        assert report.status == "fail"
        assert report.residual == pytest.approx(1e-6, rel=1e-9)
        assert report.details["heisenberg_residual"] == report.residual
        named = ("Heisenberg entry > 1e-08",
                 "BCV(c=0.0, mu=0.5) at (0.3, -0.4)", report.residual)
        assert tuple(report.details[key] for key in (
            "condition", "where", "value")) == named
        assert report.location == ", ".join(map(str, named))


def _stopwatch(monkeypatch):
    """verify's clock, each reading 100 s after the one before."""
    monkeypatch.setattr(verify, "time", SimpleNamespace(
        monotonic=itertools.count(0.0, 100.0).__next__))


class TestEveryConditionNamesItself:
    # one row per kind of condition a check states besides its residual:
    # each spoils a monkeypatched module attribute, the check fails, and
    # its location and details name the condition, where and the value
    ROWS = [
        # r between its bound (1e-10) and the report's tol (G's 1e-8)
        ("bcv-constants", lambda mp: mp.setattr(
            geo, "bundle_curvature", _offset(geo.bundle_curvature, 1e-9)),
         "|r - mu| > 1e-10", "BCV(1.0, 1.0) at (",
         pytest.approx(1e-9, rel=1e-6), {}),
        # the least defect of a circle that must fail (0.75 here)
        ("hopf-tube", lambda mp: mp.setattr(verify, "HOPF_DEFECT_MIN", 10.0),
         "defect < HOPF_DEFECT_MIN", "kappa=0.5 circle in BCV(1,0)",
         pytest.approx(0.75), {}),
        # the branch verdicts, whose residuals are FD-limited
        ("branch-logic", lambda mp: mp.setattr(bih, "RESIDUAL_TOL", 1e-20),
         "not a satisfied branch a", "kappa=1 cylinder in BCV(1,0)",
         "a, satisfied=False", {}),
        # the Hopf verdict, whose spread along the curve is FD-limited
        ("rotational-example",
         lambda mp: mp.setattr(hopf, "CRITERION_TOL", 1e-20),
         "Hopf verdict fails", "f=cos, r=0",
         "kappa_g, r or G varies along the curve", {}),
        # the Heisenberg entry between its bound (1e-8) and the tol (1e-5)
        ("ricci", lambda mp: mp.setattr(
            geo, "ricci", _offset(geo.ricci, 1e-7, where=(0.3, -0.4))),
         "Heisenberg entry > 1e-08", "BCV(c=0.0, mu=0.5) at (0.3, -0.4)",
         pytest.approx(1e-7, rel=1e-6), {}),
        # the runtime limits, 5 s and 2 s
        ("connection-oracle", _stopwatch, "runtime >= 5 s", "whole check",
         100.0, {"runtime_limit_exceeded": True}),
        ("hopf-tube", _stopwatch, "runtime >= 2 s", "whole check", 100.0,
         {"runtime_limit_exceeded": True}),
    ]

    @pytest.mark.parametrize(
        "check, spoil, condition, where, value, also", ROWS,
        ids=["bcv-r", "hopf-defect-min", "branch-verdict", "hopf-verdict",
             "ricci-heisenberg", "runtime-5s", "runtime-2s"])
    def test_fails_and_names_the_condition(self, check, spoil, condition,
                                           where, value, also, monkeypatch):
        spoil(monkeypatch)
        report = _check(check)()
        details = report.details
        assert report.status == "fail"
        assert (details["condition"], details["value"]) == (condition, value)
        assert details["where"].startswith(where)
        assert report.location == (f"{condition}, {details['where']}, "
                                   f"{details['value']}")
        assert details.items() >= also.items()


def _sources():
    return sorted(Path(ksub.__file__).parent.glob("*.py"))


def _writes(node, attrs) -> bool:
    """Whether ``node`` assigns to an attribute named in ``attrs``."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target]
               if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
    return any(isinstance(sub, ast.Attribute) and sub.attr in attrs
               for target in targets for sub in ast.walk(target))


def _verify_tree():
    return ast.parse(Path(verify.__file__).read_text())


class TestOneVerdictRule:
    def test_no_code_assigns_a_status_or_residual(self):
        # a status set again after the report was built is a second rule
        found = [f"{path.stem}: {ast.unparse(node)}" for path in _sources()
                 for node in ast.walk(ast.parse(path.read_text()))
                 if _writes(node, ("status", "residual"))]
        assert found == []

    def test_only_the_tracker_writes_a_location(self):
        # harmonic-sanity once wrote its failed condition over the location
        found = {}
        for path in _sources():
            for scope in _scopes_where(ast.parse(path.read_text()),
                                       lambda node: _writes(node,
                                                            ("location",))):
                found.setdefault(path.stem, []).append(scope)
        assert found == {"verify": ["_Worst.__init__", "_Worst.update"]}

    def test_report_takes_no_verdict_of_its_own(self):
        [tracker] = [node for node in _verify_tree().body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "_Worst"]
        [report] = [node for node in tracker.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "report"]
        assert [arg.arg for arg in report.args.args] == [
            "self", "name", "tol", "details"]

    def test_no_check_keeps_a_verdict_of_its_own(self):
        # an ``ok`` or ``failed`` flag, or a nested ``require``, decided
        # beside _Worst; every condition goes through _Worst.require
        checks = [node for node in _verify_tree().body
                  if isinstance(node, ast.FunctionDef)
                  and node.name.startswith("check_")]
        assert len(checks) == len(verify.CHECK_NAMES)
        found = [f"{check.name}: {ast.unparse(sub)[:40]}" for check in checks
                 for sub in ast.walk(check) if sub is not check and (
                     isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda))
                     or isinstance(sub, ast.Name)
                     and isinstance(sub.ctx, ast.Store)
                     and sub.id in ("ok", "failed"))]
        assert found == []

    def test_only_the_builder_makes_a_report(self):
        found = {}
        for path in _sources():
            for scope in _scopes_where(
                    ast.parse(path.read_text()),
                    lambda node: isinstance(node, ast.Call) and ast.unparse(
                        node.func).split(".")[-1] == "CheckReport"):
                found.setdefault(path.stem, []).append(scope)
        assert found == {"verify": ["_Worst.report",
                                    "check_serialization_determinism"]}


class TestHarmonicSanity:
    def test_builds_each_patch_and_its_flip_once(self, monkeypatch):
        # three vertical planes and a Hopf cylinder, each with its flipped
        # twin; 22 patches while both loops rebuilt the planes and every
        # comparison flipped its patch anew
        built = []
        original = srf.SurfacePatch.__post_init__

        def counted(patch):
            built.append(patch)
            original(patch)

        monkeypatch.setattr(srf.SurfacePatch, "__post_init__", counted)
        report = verify.check_harmonic_sanity()
        assert report.status == "pass"
        assert 0 < len(built) <= 8


class TestSurfaceIdentitiesDraw:
    def test_every_graph_is_tilted_and_grad_r_is_live(self, monkeypatch):
        # the check reads the graphs of _identity_graphs, 2 in each family;
        # each is tilted by construction (sin phi 0.66 to 0.80 here), and
        # gaussian-lambda's e2(r) (2.4e-2 and 3.0e-2 here) keeps the grad r
        # terms of the Gauss, Codazzi and compatibility residuals live
        graphs = verify._identity_graphs()
        read = []
        original = srf.gauss_residual

        def recorded(patch, q):
            read.append((patch.ambient.description, q))
            return original(patch, q)

        monkeypatch.setattr(srf, "gauss_residual", recorded)
        assert verify.check_surface_identities().status == "pass"
        assert read == [(data.description, q) for data, _, q in graphs]
        assert [data.description for data, _, _ in graphs] == [
            data.description for data in verify.metric_families()
            for _ in range(2)]

        e2_r = []
        for data, patch, q in graphs:
            assert math.sin(srf.analyze_point(patch, q).phi) >= 0.25
            if data.description == "gaussian-lambda":
                e2_r.append(abs(srf._directional_r(
                    srf.point_lattice(patch, q), "e2")[0]))
        assert max(e2_r) >= 1e-3
