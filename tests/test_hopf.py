import math

import numpy as np
import pytest

from ksub import geometry as geo
from ksub import hopf
from ksub.errors import (
    NoIsolatedRootError,
    NotArcLengthError,
    OutsideDomainError,
)
from ksub.expr import parse


def make_data(lam, a, b, rect=(-3, 3, -3, 3), desc="test"):
    return geo.KillingData(parse(lam, ("x", "y")), parse(a, ("x", "y")),
                           parse(b, ("x", "y")), geo.Rect(*rect), desc)


FLAT = make_data("1", "0", "0", desc="flat")
FLAT_BASE = hopf.ConformalBase(FLAT)


class TestArclength:
    def test_unit_circle_already_arclength(self):
        circle = hopf.BaseCurve(parse("cos(t)", ("t",)), parse("sin(t)", ("t",)),
                                (0.0, 2 * math.pi))
        out = hopf.arclength_reparam(circle, FLAT_BASE)
        assert isinstance(out, hopf.BaseCurve)
        assert out.arc_length
        assert out.point(1.3) == pytest.approx(circle.point(1.3), abs=1e-10)

    def test_double_speed_line(self):
        line = hopf.BaseCurve(parse("2*t", ("t",)), parse("0", ("t",)),
                              (0.0, 1.0))
        out = hopf.arclength_reparam(line, FLAT_BASE)
        assert out.interval == pytest.approx((0.0, 2.0), abs=1e-10)
        assert out.point(1.5)[0] == pytest.approx(1.5, abs=1e-9)

    def test_scaled_metric_circle_length(self):
        data = make_data("2", "0", "0", desc="lam2")
        base = hopf.ConformalBase(data)
        circle = hopf.BaseCurve(parse("cos(t)", ("t",)), parse("sin(t)", ("t",)),
                                (0.0, 2 * math.pi))
        out = hopf.arclength_reparam(circle, base)
        assert out.interval[1] == pytest.approx(4 * math.pi, abs=1e-6)

    def test_unit_speed_invariant_at_samples(self):
        data = make_data("exp(-(x^2+y^2)/4)", "0", "x",
                         rect=(-1.5, 1.5, -1.5, 1.5))
        base = hopf.ConformalBase(data)
        ellipse = hopf.BaseCurve(parse("0.8*cos(t)", ("t",)),
                                 parse("0.5*sin(t)", ("t",)),
                                 (0.0, 2 * math.pi))
        out = hopf.arclength_reparam(ellipse, base)
        for s in np.linspace(0.0, out.interval[1], 50):
            jx, jy = out.point_jets(float(s))
            lam = data.lam(jx.value, jy.value)
            speed_sq = lam * lam * (jx.grad[0] ** 2 + jy.grad[0] ** 2)
            assert abs(speed_sq - 1.0) <= 1e-8

    def test_degenerate_curve_rejected(self):
        stopped = hopf.BaseCurve(parse("t^3", ("t",)), parse("0", ("t",)),
                                 (-1.0, 1.0))
        with pytest.raises(Exception):
            hopf.arclength_reparam(stopped, FLAT_BASE)


class TestGeodesicCurvature:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_flat_circle(self, radius):
        circ = hopf.bcv_circle(0.0, radius=radius)
        assert hopf.geodesic_curvature(circ, FLAT_BASE, 0.3) == pytest.approx(
            1.0 / radius, abs=1e-10)

    def test_straight_line_geodesic(self):
        line = hopf.BaseCurve(parse("s", ("s",)), parse("0.5", ("s",)),
                              (-1.0, 1.0), arc_length=True)
        assert hopf.geodesic_curvature(line, FLAT_BASE, 0.1) == pytest.approx(
            0.0, abs=1e-12)

    def test_warped_coordinate_circle(self):
        # in dt^2 + f(t)^2 dtheta^2 a coordinate circle has kappa = f'/f
        base = hopf.WarpedBase(parse("2+sin(t)", ("t",)), 0.0, (0.0, 3.0))
        t0 = 1.1
        f0 = 2 + math.sin(t0)
        curve = hopf.BaseCurve(parse(f"{t0!r}+0*s", ("s",)),
                               parse(f"s/{f0!r}", ("s",)),
                               (0.0, 2 * math.pi * f0), arc_length=True)
        expected = math.cos(t0) / f0
        assert hopf.geodesic_curvature(curve, base, 1.0) == pytest.approx(
            expected, abs=1e-12)

    def test_requires_arc_length(self):
        fast = hopf.BaseCurve(parse("2*s", ("s",)), parse("0", ("s",)),
                              (0.0, 1.0), arc_length=True)
        with pytest.raises(NotArcLengthError):
            hopf.geodesic_curvature(fast, FLAT_BASE, 0.5)

    def test_bcv_circle_hits_requested_kappa(self):
        for c, kappa in ((1.0, 1.0), (1.0, 0.8), (-1.0, 1.5), (4.0, 2.0)):
            data = geo.bcv(c, 0.0)
            base = hopf.ConformalBase(data)
            circ = hopf.bcv_circle(c, kappa=kappa)
            got = hopf.geodesic_curvature(circ, base, 0.2)
            assert got == pytest.approx(kappa, abs=1e-10)


class TestHopfResiduals:
    def test_proper_biharmonic_circle(self):
        base = hopf.ConformalBase(geo.bcv(1.0, 0.0))
        report = hopf.hopf_residuals(hopf.bcv_circle(1.0, kappa=1.0), base)
        assert report.verdict.passed
        assert np.max(np.abs(report.residuals)) <= 1e-5
        assert report.crosscheck <= 1e-6
        np.testing.assert_allclose(report.tau, 0.0, atol=1e-12)  # r = 0
        assert report.verdict.certified["H"] == pytest.approx(1.0, abs=1e-8)

    def test_nonzero_bundle_curvature_circle(self):
        data = geo.bcv(1.0, 0.3)
        base = hopf.ConformalBase(data)
        kappa = math.sqrt(1.0 - 4 * 0.09)
        report = hopf.hopf_residuals(hopf.bcv_circle(1.0, kappa=kappa), base)
        assert report.verdict.passed
        np.testing.assert_allclose(report.tau, -0.3, atol=1e-12)
        assert np.max(np.abs(report.residuals)) <= 1e-5

    def test_heisenberg_inadmissible(self):
        base = hopf.ConformalBase(geo.bcv(0.0, 0.5))
        verdict = hopf.classify_hopf(hopf.bcv_circle(0.0, kappa=1.0), base)
        assert not verdict.admissible
        assert not verdict.passed
        assert "G - 4 r^2" in verdict.reason

    def test_geodesic_minimal_not_proper(self):
        line = hopf.BaseCurve(parse("s", ("s",)), parse("0", ("s",)),
                              (-1.0, 1.0), arc_length=True)
        report = hopf.hopf_residuals(line, FLAT_BASE)
        assert np.max(np.abs(report.residuals)) <= 1e-10
        assert not report.verdict.passed
        assert "minimal" in report.verdict.reason

    def test_wrong_curvature_defect(self):
        base = hopf.ConformalBase(geo.bcv(2.0, 0.0))
        verdict = hopf.classify_hopf(hopf.bcv_circle(2.0, kappa=1.0), base)
        assert not verdict.passed
        assert verdict.defect == pytest.approx(1.0, abs=1e-9)

    def test_curve_leaving_domain(self):
        small = make_data("1", "0", "0", rect=(-0.5, 0.5, -0.5, 0.5))
        base = hopf.ConformalBase(small)
        circ = hopf.bcv_circle(0.0, radius=1.0)
        with pytest.raises(OutsideDomainError):
            hopf.hopf_residuals(circ, base)

    def test_requires_arclength_flag(self):
        fast = hopf.BaseCurve(parse("2*s", ("s",)), parse("0", ("s",)),
                              (0.0, 1.0))
        with pytest.raises(NotArcLengthError):
            hopf.hopf_residuals(fast, FLAT_BASE)

    def test_nan_in_second_system_reaches_crosscheck(self, monkeypatch):
        base = hopf.ConformalBase(geo.bcv(1.0, 0.0))
        monkeypatch.setattr(base, "ricci_values",
                            lambda *args: (math.nan, 0.0, 0.0))
        report = hopf.hopf_residuals(hopf.bcv_circle(1.0, kappa=1.0), base,
                                     n_samples=8)
        assert math.isnan(report.crosscheck)

    def test_five_geodesic_curvatures_per_sample(self, monkeypatch):
        # kappa, kappa' and kappa'' come from one pass over the 5-point
        # stencil of each sample (10 evaluations per sample before)
        calls = []
        original = hopf.geodesic_curvature

        def counted(curve, base, s):
            calls.append(s)
            return original(curve, base, s)

        monkeypatch.setattr(hopf, "geodesic_curvature", counted)
        base = hopf.ConformalBase(geo.bcv(1.0, 0.0))
        report = hopf.hopf_residuals(hopf.bcv_circle(1.0, kappa=1.0), base,
                                     n_samples=64)
        assert len(report.kappa) == 64
        assert len(calls) == 5 * 64
        assert len(set(calls)) == len(calls)

    def test_crosscheck_on_generic_curve(self):
        # variable r and G, non-constant kappa: the two systems still agree
        data = make_data("exp(-(x^2+y^2)/4)", "0", "x",
                         rect=(-1.5, 1.5, -1.5, 1.5))
        base = hopf.ConformalBase(data)
        ellipse = hopf.BaseCurve(parse("0.7*cos(t)", ("t",)),
                                 parse("0.4*sin(t)", ("t",)),
                                 (0.0, 2 * math.pi))
        curve = hopf.arclength_reparam(ellipse, base)
        report = hopf.hopf_residuals(curve, base, n_samples=16)
        assert report.crosscheck <= 1e-6
        assert not report.verdict.passed  # kappa varies

    def test_classification_equivalent_to_residuals(self):
        rng = np.random.default_rng(41)
        tol = 1e-5
        for _ in range(20):
            c = float(rng.uniform(0.5, 4.0))
            mu_max = 0.5 * math.sqrt(max(c - 0.25, 0.01))
            mu = float(rng.uniform(0.0, mu_max))
            target = math.sqrt(c - 4 * mu * mu)
            exact = bool(rng.integers(0, 2))
            kappa = target if exact else target * float(rng.uniform(1.2, 1.8))
            data = geo.bcv(c, mu)
            # keep the circle inside the domain
            radius = hopf.circle_radius_for_kappa(c, kappa)
            if not data.domain.contains(radius, 0.0, margin=0.05):
                continue
            base = hopf.ConformalBase(data)
            report = hopf.hopf_residuals(hopf.bcv_circle(c, kappa=kappa), base)
            residual_pass = float(np.max(np.abs(report.residuals))) <= tol
            assert report.verdict.passed == residual_pass


class TestCylinderSurfaceCheck:
    def test_torsion_and_mean_curvature(self):
        data = geo.bcv(1.0, 0.3)
        circ = hopf.bcv_circle(1.0, kappa=0.8)
        base = hopf.ConformalBase(data)
        kappa = hopf.geodesic_curvature(circ, base, 0.4)
        chk = hopf.cylinder_surface_check(data, circ, 0.4)
        # geodesic torsion equals -r; the lifted frame reverses the base
        # normal, so its mean curvature is -kappa in our sign convention
        assert chk["tau_g"] == pytest.approx(-0.3, abs=1e-8)
        assert chk["mean_h"] == pytest.approx(-kappa, abs=1e-8)
        assert chk["phi"] == pytest.approx(math.pi / 2, abs=1e-8)
        assert abs(chk["induced_curvature"]) <= 1e-4
        assert chk["norm_sq_shape"] == pytest.approx(
            kappa ** 2 + 2 * 0.09, abs=1e-6)


class TestRotationalSearch:
    def test_cosine_zero_bundle(self):
        case = hopf.rotational_case_search("cos(t)", 0.0, (0.0, 1.5))[0]
        assert case.t0 == pytest.approx(math.pi / 4, abs=1e-8)
        assert case.kappa_g ** 2 == pytest.approx(1.0, abs=1e-8)
        assert case.gauss == pytest.approx(1.0, abs=1e-8)
        assert case.report.verdict.passed
        assert np.max(np.abs(case.report.residuals)) <= 1e-5

    def test_cosine_quarter_bundle(self):
        case = hopf.rotational_case_search("cos(t)", 0.25, (0.0, 1.5))[0]
        assert case.t0 == pytest.approx(math.atan(math.sqrt(3) / 2), abs=1e-8)
        assert case.kappa_g ** 2 == pytest.approx(0.75, abs=1e-8)
        assert case.kappa_g ** 2 == pytest.approx(
            case.gauss - 4 * 0.25 ** 2, abs=1e-8)
        assert case.report.verdict.passed

    def test_flat_profile_degenerate(self):
        with pytest.raises(NoIsolatedRootError):
            hopf.rotational_case_search("1", 0.0, (0.0, 1.0))

    def test_nonpositive_profile_rejected(self):
        with pytest.raises(ValueError):
            hopf.rotational_case_search("cos(t)", 0.0, (0.0, 3.0))

    def test_multiple_roots_sorted(self):
        # cos on a symmetric window has roots at +-pi/4
        cases = hopf.rotational_case_search("cos(t)", 0.0, (-1.5, 1.5))
        assert len(cases) == 2
        assert cases[0].t0 == pytest.approx(-math.pi / 4, abs=1e-8)
        assert cases[1].t0 == pytest.approx(math.pi / 4, abs=1e-8)

    def test_no_root_in_window(self):
        with pytest.raises(NoIsolatedRootError):
            hopf.rotational_case_search("cos(t)", 0.0, (0.0, 0.5))


class TestConformalWarpedAgreement:
    """The hyperbolic-secant conformal chart is the warped cosine chart in
    isothermal coordinates; both must certify the same circles."""

    def sech_data(self, r):
        lam = "2/(exp(x)+exp(-x))"
        if r == 0.0:
            a = "0"
        else:
            a = f"-2*{r!r}*(2/(exp(x)+exp(-x)))*y"
        # the angular coordinate runs through a full period
        return make_data(lam, a, "0", rect=(-2, 2, -0.5, 7.0), desc="sech")

    @pytest.mark.parametrize("r", [0.0, 0.25])
    def test_bundle_and_gauss(self, r):
        data = self.sech_data(r)
        for p in ((0.0, 0.0), (0.5, 0.3), (-0.8, 1.0)):
            rv, grad = geo.bundle_curvature(data, p)
            assert rv == pytest.approx(r, abs=1e-10)
            np.testing.assert_allclose(grad, 0.0, atol=1e-8)
            assert geo.gauss_curvature(data, p) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("r,t0", [(0.0, math.pi / 4),
                                      (0.25, math.atan(math.sqrt(3) / 2))])
    def test_circle_matches_warped_construction(self, r, t0):
        data = self.sech_data(r)
        base = hopf.ConformalBase(data)
        u0 = math.asinh(math.tan(t0))
        lam0 = math.cos(t0)  # sech(u0)
        curve = hopf.BaseCurve(parse(f"{u0!r}+0*s", ("s",)),
                               parse(f"s/{lam0!r}", ("s",)),
                               (0.0, 2 * math.pi * lam0), arc_length=True)
        report = hopf.hopf_residuals(curve, base)
        assert report.verdict.passed
        assert report.verdict.kappa_mean ** 2 == pytest.approx(
            1.0 - 4 * r * r, abs=1e-8)
        assert np.max(np.abs(report.residuals)) <= 1e-5
