import inspect
import math

import pytest

from ksub import surface as srf
from ksub import verify
from ksub.verify import CheckReport, _Worst

# every residual tolerance of the suite at its default
DEFAULT_TOLS = {
    "connection-oracle": {"tol": 1e-6},
    "curvature-formula": {"tol": 1e-5},
    "ricci": {"tol": 1e-5, "heis_tol": 1e-8},
    "bcv-constants": {"r_tol": 1e-10, "g_tol": 1e-8},
    "hopf-tube": {"residual_tol": 1e-5},
    "rotational-example": {"root_tol": 1e-8, "residual_tol": 1e-5},
    "surface-identities": {"tol": 1e-4},
    "harmonic-sanity": {"tol": 1e-6},
    "branch-logic": {"tan2_tol": 1e-12},
}


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
        report = CheckReport.from_residual("x", worst.value, 1e-6)
        assert report.status == "fail"


class TestRunChecksTolerances:
    def bound_arguments(self, monkeypatch, **kwargs):
        """The arguments each check is called with by run_checks(**kwargs),
        defaults applied; the check bodies do not run."""
        seen = {}
        for name in DEFAULT_TOLS:
            func = "check_" + name.replace("-", "_")
            signature = inspect.signature(getattr(verify, func))

            def fake(*args, _name=name, _sig=signature, **kw):
                bound = _sig.bind(*args, **kw)
                bound.apply_defaults()
                seen[_name] = dict(bound.arguments)
                return CheckReport(_name, "pass", 0.0, 0.0)

            monkeypatch.setattr(verify, func, fake)
        reports = verify.run_checks(**kwargs)
        assert [r.name for r in reports] == verify.CHECK_NAMES
        return seen

    def test_default_run_uses_the_default_tolerances(self, monkeypatch):
        seen = self.bound_arguments(monkeypatch)
        assert seen == DEFAULT_TOLS

    def test_tol_overrides_every_residual_tolerance(self, monkeypatch):
        seen = self.bound_arguments(monkeypatch, tol=3e-3)
        assert seen == {name: dict.fromkeys(tols, 3e-3)
                        for name, tols in DEFAULT_TOLS.items()}

    def test_check_names_keep_their_order(self):
        assert verify.CHECK_NAMES == [*DEFAULT_TOLS, "cli-determinism"]

    @pytest.mark.parametrize("only, default", [("connection-oracle", 1e-6),
                                               ("branch-logic", 1e-12)])
    def test_reports_carry_the_tolerance(self, only, default):
        assert [r.tol for r in verify.run_checks(only=only)] == [default]
        assert [r.tol for r in verify.run_checks(only=only, tol=2e-3)] == [2e-3]


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
