"""Mutation table of ``verify-paper``: which checks catch a closed form of
``ksub.geometry`` that is off by a factor (1 + eps).

Each row scales what one closed form returns (every part of a tuple) through
a monkeypatched ``geometry`` attribute, so every caller in the package reads
the scaled values, and runs ``verify.run_checks()`` with its pinned
tolerances. The checks that fail must be exactly the listed ones.

Two gaps are known, and no tolerance was changed to close them:

- ``connection`` scaled by 1 + 1e-7 fails no check; the oracle's tolerance
  (1e-6, on a finite-difference table) first sees it at 1e-5.
- ``gauss_curvature`` scaled by 1 + 1e-9 fails no check; bcv-constants
  (tolerance 1e-8 on G, |G| <= 4) first sees it at 1e-7.

A second table puts a nan, through a monkeypatched attribute too, into one
value that one check reads, and that check alone must fail: ``max(a, nan)``
is ``a`` and ``nan > tol`` is False, so a test written either way would
pass it.

A third table spoils one of harmonic-sanity's own conditions, which its
``tol`` does not reach (|H| of a plane, the flip invariance of the verdicts
and of the frame system): the check fails at every ``tol``, and its location
and details name the condition, the patch and the value.

A last row puts a nan |grad r| into ``check-surface`` on a plane where
4 r^2 = G exactly: the branch row reads the contradiction, and the run exits
0 with no traceback.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from ksub import biharmonic as bih
from ksub import geometry as geo
from ksub import hopf
from ksub import surface as srf
from ksub import verify
from ksub.cli import main

TABLE = [
    ("connection", 1e-5, {"connection-oracle", "curvature-formula", "ricci"}),
    ("bundle_curvature", 1e-9, {"bcv-constants"}),
    ("gauss_curvature", 1e-7, {"bcv-constants"}),
    ("ricci", 1e-7, {"ricci"}),
]


def _scaled(closed_form, eps: float):
    def wrapped(*args):
        out = closed_form(*args)
        if isinstance(out, tuple):
            return tuple(part * (1.0 + eps) for part in out)
        return out * (1.0 + eps)
    return wrapped


def test_the_checks_pass_unmutated():
    assert [r.name for r in verify.run_checks() if r.status != "pass"] == []


@pytest.mark.parametrize("name, eps, caught", TABLE)
def test_a_scaled_closed_form_fails_its_checks(name, eps, caught,
                                               monkeypatch):
    monkeypatch.setattr(geo, name, _scaled(getattr(geo, name), eps))
    assert {r.name for r in verify.run_checks()
            if r.status != "pass"} == caught


NAN = float("nan")


def _nan_last(values):
    """A copy of ``values`` whose last entry is nan."""
    out = np.array(values, dtype=float)
    out.flat[-1] = NAN
    return out


# (check, module, attribute, what the nan does to the attribute's result)
NAN_TABLE = [
    ("bcv-constants", geo, "gauss_curvature",
     lambda g, args: _nan_last(g)),
    ("ricci", geo, "ricci",  # the Heisenberg entry only
     lambda ric, args: _nan_last(ric) if args[1] == (0.3, -0.4) else ric),
    ("hopf-tube", hopf, "hopf_residuals",  # the defect of a failing circle
     lambda rep, args: rep if rep.verdict.passed else replace(
         rep, verdict=replace(rep.verdict, defect=NAN))),
    ("rotational-example", hopf, "rotational_case_search",
     lambda cases, args: [replace(c, report=replace(
         c.report, residuals=_nan_last(c.report.residuals))) for c in cases]),
    ("surface-identities", srf, "compatibility_residuals",
     lambda c, args: (c[0], NAN)),
    ("harmonic-sanity", bih, "bitension_residual",
     lambda bt, args: replace(bt, tangential=_nan_last(bt.tangential))),
    ("harmonic-sanity", bih, "bitension_residual",
     lambda bt, args: replace(bt, mean_h=NAN)),
    ("harmonic-sanity", bih, "frame_system_residuals",
     lambda lines, args: _nan_last(lines)),
]


@pytest.mark.parametrize(
    "check, module, name, spoil", NAN_TABLE,
    ids=["bcv-G", "ricci-heisenberg", "hopf-tube-defect",
         "rotational-sweep", "surface-compatibility-2",
         "harmonic-tangential", "harmonic-mean-h", "harmonic-flip"])
def test_a_nan_fails_its_check(check, module, name, spoil, monkeypatch):
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: spoil(original(*args), args))
    assert [(r.name, r.status) for r in verify.run_checks(only=check)] == [
        (check, "fail")]


def _every_second(spoil):
    """A wrapper factory that spoils every second call's result."""
    def factory(original):
        calls = []

        def wrapped(*args):
            calls.append(args)
            out = original(*args)
            return spoil(out) if len(calls) % 2 == 0 else out
        return wrapped
    return factory


# (module, attribute, spoiled result, the condition the failure names, the
# patch it names, the value it names); ``tol`` reaches none of these
# conditions, so each fails at every tol and no failure reads as an empty
# location
CONDITION_TABLE = [
    (bih, "frame_system_residuals",
     _every_second(lambda lines: lines + 1e-9),
     "frame-system moved > 1e-10 under the flip",
     "vertical plane in flat-product", pytest.approx(1e-9, rel=1e-3)),
    (bih, "bitension_residual",
     lambda original: lambda *args: replace(original(*args), mean_h=1e-6),
     "|H| > PROPER_H_TOL (flip=False)",
     "vertical plane in flat-product", 1e-6),
    (bih, "bitension_residual",
     _every_second(lambda bt: replace(bt, normal=1.0)),
     "is_biharmonic changed under the flip",
     "vertical plane in flat-product", "True -> False"),
    (bih, "classify_point",
     _every_second(lambda rep: replace(rep, branch="b2")),
     "branch changed under the flip", "vertical plane in flat-product",
     "a -> b2"),
]


@pytest.mark.parametrize("module, name, wrap, condition, patch, value",
                         CONDITION_TABLE,
                         ids=["flip", "mean-h", "biharmonic", "branch"])
@pytest.mark.parametrize("tol", [None, 1e-3, 1.0])
def test_a_failed_condition_names_itself(module, name, wrap, condition,
                                         patch, value, tol, monkeypatch):
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    report = verify.check_harmonic_sanity(tol)
    assert report.status == "fail"
    assert report.details == {"condition": condition, "patch": patch,
                              "value": value}
    assert report.location.startswith(f"{condition}, {patch}, ")


def test_a_nan_grad_r_norm_reads_as_the_contradiction(monkeypatch, capsys):
    # a tilted minimal plane in the flat product: CMC, an interior angle
    # and 4 r^2 - G = 0 exactly
    monkeypatch.setattr(bih, "_grad_r_norm",
                        lambda grad_r, lam: [NAN] * np.size(lam))
    code = main(["check-surface", "--lambda", "1", "--graph", "0.3*x+0.4*y",
                 "--grid", "1", "1"])
    [point] = json.loads(capsys.readouterr().out)["points"]
    status = {chk["check"]: chk["status"] for chk in point["checks"]}
    assert code == 0
    assert status["branch"] == "contradiction-propRconst"
    assert status["proper-biharmonic"] == "no"
