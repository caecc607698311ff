import math
from dataclasses import replace

import numpy as np
import pytest

from ksub import expr
from ksub import geometry as geo
from ksub import hopf, numdiff
from ksub.errors import (
    DegenerateCurveError,
    DomainEvalError,
    KsubError,
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
        assert out.point(1.3) == pytest.approx(circle.point(1.3), abs=1e-10)

    @pytest.mark.parametrize("interval, message", [
        ((0.0, 0.0), "curve interval must have positive length"),
        ((-1e308, 1e308), "curve interval (-1e+308, 1e+308) has length inf"),
    ])
    def test_interval_needs_a_finite_positive_length(self, interval, message):
        with pytest.raises(KsubError) as err:
            hopf.BaseCurve(parse("s", ("s",)), parse("0", ("s",)), interval)
        assert str(err.value) == message

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


def gaussian_ellipse(a=0.8, b=0.5):
    data = make_data("exp(-(x^2+y^2)/4)", "0", "x",
                     rect=(-1.5, 1.5, -1.5, 1.5))
    ellipse = hopf.BaseCurve(parse(f"{a}*cos(t)", ("t",)),
                             parse(f"{b}*sin(t)", ("t",)), (0.0, 2 * math.pi))
    return ellipse, hopf.ConformalBase(data)


class TestArcLengthOracle:
    """Arc length and its inverse against mpmath quadrature at 30 digits."""

    @pytest.fixture
    def mpmath(self):
        return pytest.importorskip("mpmath")

    @staticmethod
    def gaussian_speed(mpmath, a, b, c=0.0):
        """Speed of (a cos t, b sin t + c sin 12t) in exp(-(x^2+y^2)/4)."""
        a, b, c = (mpmath.mpf(v) for v in (a, b, c))

        def speed(t):
            x = a * mpmath.cos(t)
            y = b * mpmath.sin(t) + c * mpmath.sin(12 * t)
            return (mpmath.exp(-(x * x + y * y) / 4)
                    * mpmath.sqrt((a * mpmath.sin(t)) ** 2
                                  + (b * mpmath.cos(t)
                                     + 12 * c * mpmath.cos(12 * t)) ** 2))
        return speed

    @pytest.mark.parametrize("a, b, c, pieces", [(0.8, 0.5, 0.0, 9),
                                                 (0.7, 0.4, 0.0, 9),
                                                 (0.8, 0.5, 0.1, 49)])
    def test_gaussian_metric_length(self, mpmath, a, b, c, pieces):
        # with the wiggle c = 0.1 the speed dips to 0.065 near t = 3.05 and
        # 3.24, and the panel count doubles to 1024 before two totals agree
        curve, base = gaussian_ellipse(a, b)
        if c:
            curve = replace(curve, y=parse(f"{b}*sin(t)+{c}*sin(12*t)",
                                           ("t",)))
        with mpmath.workdps(30):
            t1 = mpmath.mpf(curve.interval[1])
            want = mpmath.quad(self.gaussian_speed(mpmath, a, b, c),
                               mpmath.linspace(0, t1, pieces))
            got = hopf.curve_length(curve, base)
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_scaled_circle_length(self, mpmath):
        base = hopf.ConformalBase(make_data("2", "0", "0", desc="lam2"))
        circle = hopf.BaseCurve(parse("cos(t)", ("t",)),
                                parse("sin(t)", ("t",)), (0.0, 2 * math.pi))
        with mpmath.workdps(30):
            t1 = mpmath.mpf(circle.interval[1])
            want = mpmath.quad(
                lambda t: 2 * mpmath.sqrt(mpmath.sin(t) ** 2
                                          + mpmath.cos(t) ** 2), [0, t1])
            got = hopf.curve_length(circle, base)
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_inverse_recovers_arc_length(self, mpmath):
        ellipse, base = gaussian_ellipse()
        curve = hopf.arclength_reparam(ellipse, base)
        s = np.linspace(0.0, curve.interval[1], 50)
        t = curve._times(s)
        with mpmath.workdps(30):
            speed = self.gaussian_speed(mpmath, 0.8, 0.5)
            arc, previous = mpmath.mpf(0), mpmath.mpf(0)
            for si, ti in zip(s.tolist(), t.tolist()):
                # S(t) piece by piece along the increasing t(s)
                arc += mpmath.quad(speed, [previous, mpmath.mpf(ti)])
                previous = mpmath.mpf(ti)
                assert abs(arc - si) <= 1e-12


class TestArcLengthErrors:
    def test_outside_the_interval(self):
        ellipse, base = gaussian_ellipse()
        curve = hopf.arclength_reparam(ellipse, base)
        length = curve.interval[1]
        with pytest.raises(OutsideDomainError) as err:
            curve.point_jets(np.array([0.5, length + 0.25]))
        assert str(err.value) == (f"arc length {length + 0.25} outside the "
                                  f"curve's [0, {length}]")

    def test_inversion_stops(self, monkeypatch):
        ellipse, base = gaussian_ellipse()
        curve = hopf.arclength_reparam(ellipse, base)
        monkeypatch.setattr(hopf, "NEWTON_MAXITER", 1)
        with pytest.raises(DegenerateCurveError,
                           match="did not converge at s = 0.3"):
            curve.point(0.3)

    def test_batches_equal_their_points(self):
        ellipse, base = gaussian_ellipse()
        curve = hopf.arclength_reparam(ellipse, base)
        s = np.linspace(0.0, curve.interval[1], 97)
        whole = curve._times(s)
        assert whole[10:40].tobytes() == curve._times(s[10:40]).tobytes()
        for x, t in zip(s.tolist(), whole.tolist()):
            assert curve._times(np.array([x]))[0].hex() == t.hex()


class TestRootRefinement:
    """``hopf._brentq`` returns the root of the C routine it ports, bit
    for bit (compared when scipy is installed)."""

    @pytest.fixture
    def reference(self):
        optimize = pytest.importorskip("scipy.optimize")
        return lambda f, a, b: optimize.brentq(f, a, b, xtol=1e-14,
                                               rtol=1e-15, maxiter=100)

    def test_circle_condition_brackets(self, reference):
        f = parse("cos(t)", ("t",))
        ts = np.linspace(-1.5, 1.5, 1024)
        count = 0
        for r in np.linspace(0.0, 0.45, 201).tolist():
            _, gv = hopf._circle_condition(f, r, ts)
            for i in np.flatnonzero(gv[:-1] * gv[1:] < 0.0).tolist():
                a, b = float(ts[i]), float(ts[i + 1])

                def g(t):
                    return hopf._circle_condition(f, r, t)[1]

                assert hopf._brentq(g, a, b).hex() == reference(g, a, b).hex()
                count += 1
        assert count >= 400

    def test_random_smooth_brackets(self, reference):
        rng = np.random.default_rng(2024)
        count = 0
        while count < 1000:
            c0, c1, c2, c3 = rng.normal(size=4).tolist()
            a, b = sorted(rng.uniform(-3.0, 3.0, 2).tolist())

            def g(x):
                return (math.exp(c0 * x) - 1.5 + c1 * math.sin(3 * c2 * x)
                        + c3 * x)

            if not g(a) * g(b) < 0.0:
                continue
            assert hopf._brentq(g, a, b).hex() == reference(g, a, b).hex()
            count += 1

    def test_zero_at_an_end(self, reference):
        def g(x):
            return x - 1.0

        for a, b in ((1.0, 2.0), (0.0, 1.0)):
            assert hopf._brentq(g, a, b) == 1.0 == reference(g, a, b)

    def test_same_sign_bracket(self):
        with pytest.raises(NoIsolatedRootError) as err:
            hopf._brentq(lambda x: x * x + 1.0, -1.0, 2.0)
        assert str(err.value) == ("no sign change to refine: f(-1.0) = 2.0, "
                                  "f(2.0) = 5.0")

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(hopf, "ROOT_MAXITER", 2)
        with pytest.raises(NoIsolatedRootError) as err:
            hopf._brentq(math.atan, -1.0, 3.0)
        assert str(err.value) == ("root refinement in [-1.0, 3.0] did not "
                                  "converge after 2 iterations")

    def test_nan_value(self):
        with pytest.raises(DomainEvalError, match="is nan"):
            hopf._brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)


class TestGeodesicCurvature:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_flat_circle(self, radius):
        circ = hopf.bcv_circle(0.0, radius=radius)
        assert hopf.geodesic_curvature(circ, FLAT_BASE, 0.3) == pytest.approx(
            1.0 / radius, abs=1e-10)

    def test_straight_line_geodesic(self):
        line = hopf.BaseCurve(parse("s", ("s",)), parse("0.5", ("s",)),
                              (-1.0, 1.0))
        assert hopf.geodesic_curvature(line, FLAT_BASE, 0.1) == pytest.approx(
            0.0, abs=1e-12)

    def test_warped_coordinate_circle(self):
        # in dt^2 + f(t)^2 dtheta^2 a coordinate circle has kappa = f'/f
        base = hopf.WarpedBase(parse("2+sin(t)", ("t",)), 0.0, (0.0, 3.0))
        t0 = 1.1
        f0 = 2 + math.sin(t0)
        curve = hopf.BaseCurve(parse(f"{t0!r}+0*s", ("s",)),
                               parse(f"s/{f0!r}", ("s",)),
                               (0.0, 2 * math.pi * f0))
        expected = math.cos(t0) / f0
        assert hopf.geodesic_curvature(curve, base, 1.0) == pytest.approx(
            expected, abs=1e-12)

    def test_requires_arc_length(self):
        fast = hopf.BaseCurve(parse("2*s", ("s",)), parse("0", ("s",)),
                              (0.0, 1.0))
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
        verdict = hopf.hopf_residuals(hopf.bcv_circle(0.0, kappa=1.0),
                                      base).verdict
        assert not verdict.admissible
        assert not verdict.passed
        assert "G - 4 r^2" in verdict.reason

    def test_geodesic_minimal_not_proper(self):
        line = hopf.BaseCurve(parse("s", ("s",)), parse("0", ("s",)),
                              (-1.0, 1.0))
        report = hopf.hopf_residuals(line, FLAT_BASE)
        assert np.max(np.abs(report.residuals)) <= 1e-10
        assert not report.verdict.passed
        assert "minimal" in report.verdict.reason

    def test_wrong_curvature_defect(self):
        base = hopf.ConformalBase(geo.bcv(2.0, 0.0))
        verdict = hopf.hopf_residuals(hopf.bcv_circle(2.0, kappa=1.0),
                                      base).verdict
        assert not verdict.passed
        assert verdict.defect == pytest.approx(1.0, abs=1e-9)

    def test_curve_leaving_domain(self):
        small = make_data("1", "0", "0", rect=(-0.5, 0.5, -0.5, 0.5))
        base = hopf.ConformalBase(small)
        circ = hopf.bcv_circle(0.0, radius=1.0)
        with pytest.raises(OutsideDomainError):
            hopf.hopf_residuals(circ, base)

    def test_requires_unit_speed(self):
        # unit speed is measured at every sample, not declared by a flag: an
        # unflagged line of speed 2 is refused at its first sample
        fast = hopf.BaseCurve(parse("2*s", ("s",)), parse("0", ("s",)),
                              (0.0, 1.0))
        with pytest.raises(NotArcLengthError) as err:
            hopf.hopf_residuals(fast, FLAT_BASE)
        assert str(err.value) == ("curve speed 2.0 at s = 0.003; "
                                  "reparametrize by arc length first")

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_constancy_needs_two_samples(self, n_samples):
        # one sample has no spread, so it certified "constant" from nothing
        base = hopf.ConformalBase(geo.bcv(1.0, 0.0))
        with pytest.raises(ValueError) as err:
            hopf.hopf_residuals(hopf.bcv_circle(1.0, kappa=1.0), base,
                                n_samples=n_samples)
        assert str(err.value) == ("a constancy check needs at least 2 "
                                  f"samples, got {n_samples}")

    def test_nan_in_second_system_reaches_crosscheck(self, monkeypatch):
        # a sweep that only goes non-finite keeps its own values: the 5
        # stencil columns of all samples as one batch, and no rerun (a
        # rerun of its first non-finite sample made a second call of 5)
        base = hopf.ConformalBase(geo.bcv(1.0, 0.0))
        circle = hopf.bcv_circle(1.0, kappa=1.0)
        finite = hopf.hopf_residuals(circle, base)
        monkeypatch.setattr(base, "ricci_values",
                            lambda *args: (math.nan, 0.0, 0.0))
        calls = []
        original = hopf._kappa

        def counted(base, jets, s):
            calls.append(len(s))
            return original(base, jets, s)

        monkeypatch.setattr(hopf, "_kappa", counted)
        report = hopf.hopf_residuals(circle, base, n_samples=64)
        assert math.isnan(report.crosscheck)
        assert calls == [320]
        assert report.kappa.tobytes() == finite.kappa.tobytes()
        assert report.residuals.tobytes() == finite.residuals.tobytes()

    def test_five_geodesic_curvatures_per_sample(self, monkeypatch):
        # kappa, kappa' and kappa'' come from the 5-point stencil of each
        # sample, evaluated as one batch of all its columns
        calls = []
        original = hopf._kappa

        def counted(base, jets, s):
            calls.append(np.array(s, ndmin=1))
            return original(base, jets, s)

        monkeypatch.setattr(hopf, "_kappa", counted)
        base = hopf.ConformalBase(geo.bcv(1.0, 0.0))
        report = hopf.hopf_residuals(hopf.bcv_circle(1.0, kappa=1.0), base,
                                     n_samples=64)
        assert len(report.kappa) == 64
        abscissae = np.concatenate(calls)
        assert len(calls) == 1
        assert len(abscissae) == 5 * 64
        assert len(set(abscissae.tolist())) == len(abscissae)

    def test_sample_jets_read_once(self, monkeypatch):
        # the 5 columns of the kappa stencil, the samples first, are one
        # batch: x and y and the base jets there, which r and G read too
        # (the base jets at the samples were 3 more)
        calls = []
        evaluate = expr._evaluate

        def counted(e, coords, arithmetic):
            calls.append(arithmetic is expr._JETS)
            return evaluate(e, coords, arithmetic)

        monkeypatch.setattr(expr, "_evaluate", counted)
        base = hopf.ConformalBase(geo.bcv(1.0, 0.0))
        hopf.hopf_residuals(hopf.bcv_circle(1.0, kappa=1.0), base,
                            n_samples=64)
        assert sum(calls) == 5

    def test_tolerances_read_when_called(self, monkeypatch):
        base = hopf.ConformalBase(geo.bcv(1.0, 0.0))
        circle = hopf.bcv_circle(1.0, kappa=1.0)
        assert hopf.hopf_residuals(circle, base, n_samples=8).verdict.passed
        # one tolerance bounds the spread, which is checked first
        monkeypatch.setattr(hopf, "CRITERION_TOL", -1.0)
        verdict = hopf.hopf_residuals(circle, base, n_samples=8).verdict
        assert not verdict.passed and "varies" in verdict.reason

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
            if not data.domain.margin_at(radius, 0.0) > 0.05:
                continue
            base = hopf.ConformalBase(data)
            report = hopf.hopf_residuals(hopf.bcv_circle(c, kappa=kappa), base)
            residual_pass = float(np.max(np.abs(report.residuals))) <= tol
            assert report.verdict.passed == residual_pass


def sweep_samples(curve, n_samples=64):
    """The step and the samples of :func:`hopf.hopf_residuals`."""
    s0, s1 = curve.interval
    h = max(1e-3 * (s1 - s0), 1e-6)
    return h, np.linspace(s0 + 3.0 * h, s1 - 3.0 * h, n_samples)


def loop_report(curve, base, n_samples=64):
    """The per-sample sweep as it was written before the batched one: each
    sample in turn, its 5 stencil points through the scalar geodesic
    curvature."""
    h, samples = sweep_samples(curve, n_samples)
    n = len(samples)
    kap, tau, rr, gg = (np.empty(n) for _ in range(4))
    res, gres = np.empty((n, 3)), np.empty((n, 3))
    for i, s in enumerate(samples):
        jx, jy = curve.point_jets(float(s))
        p = (jx.value, jy.value)
        if not base.contains(p):
            raise OutsideDomainError(
                f"curve leaves the base domain at s = {s}: point {p}")
        xp, yp = jx.grad[0], jy.grad[0]
        k, grad, hess = numdiff.derivatives(
            lambda q: hopf.geodesic_curvature(curve, base, q[0]),
            (float(s),), h)
        k1, k2 = grad[0], hess[0, 0]
        r, grad_r = base.bundle(p)
        g = base.gauss(p)
        rd = xp * grad_r[0] + yp * grad_r[1]
        t = -r
        ric_nn, ric_n1, ric_n2 = base.ricci_values(p, xp, yp, r, grad_r, g)
        kap[i], tau[i], rr[i], gg[i] = k, t, r, g
        res[i] = (k2 - expr.power(k, 3) + (g - 4.0 * r * r) * k, k * k1,
                  r * k1 + rd * k)
        gres[i] = (k2 - k * (k * k + 2.0 * t * t) + k * ric_nn,
                   3.0 * k1 * k - k * ric_n1, k1 * t + k * ric_n2)
    cross = float(np.max(np.abs([gres[:, 0] - res[:, 0],
                                 gres[:, 1] - 3.0 * res[:, 1],
                                 gres[:, 2] + res[:, 2]]), initial=0.0))
    verdict = hopf._verdict_from_samples(kap, rr, gg, hopf.CRITERION_TOL)
    return hopf.HopfReport(samples, kap, tau, res, cross, verdict)


def assert_same_report(got, want):
    # bit for bit: arrays by their bytes, so 0.0 and -0.0 differ too
    for name in hopf.HopfReport.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


def generic_ellipse():
    data = make_data("exp(-(x^2+y^2)/4)", "0", "x",
                     rect=(-1.5, 1.5, -1.5, 1.5))
    base = hopf.ConformalBase(data)
    ellipse = hopf.BaseCurve(parse("0.7*cos(t)", ("t",)),
                             parse("0.4*sin(t)", ("t",)), (0.0, 2 * math.pi))
    return hopf.arclength_reparam(ellipse, base), base


# circles with no sweep: kappa^2 + c <= 0 has no circle of curvature kappa,
# and at c = 0 the kappa = 0.3 circle (radius 1/0.3) leaves [-3, 3]^2
REFUSED = {(-1.0, 0.3), (-1.0, 1.0), (0.0, 0.3)}


class TestHopfTable:
    @pytest.mark.parametrize("mu", (0.0, 0.1, 0.25, 0.5, 1.0))
    @pytest.mark.parametrize("c", (-1.0, 0.0, 0.5, 1.0, 2.0, 4.0))
    def test_passes_exactly_on_the_root(self, c, mu):
        # the cylinder over a circle is proper biharmonic exactly when
        # kappa^2 = c - 4 mu^2 > 0; the roots' residuals and defects read
        # 1.7e-9 at most
        base = hopf.ConformalBase(geo.bcv(c, mu))
        kappas = [0.3, 1.0, 2.5]
        root = math.sqrt(c - 4.0 * mu * mu) if c > 4.0 * mu * mu else None
        if root is not None:
            kappas += [root, 1.01 * root]
        for kappa in kappas:
            if (c, kappa) in REFUSED:
                with pytest.raises(KsubError):
                    hopf.hopf_residuals(hopf.bcv_circle(c, kappa=kappa), base)
                continue
            report = hopf.hopf_residuals(hopf.bcv_circle(c, kappa=kappa),
                                         base)
            assert report.verdict.passed is (kappa == root)
            if kappa == root:
                assert report.verdict.defect <= 1e-8
                assert np.max(np.abs(report.residuals)) <= 1e-8


class TestBatchedSweep:
    """The batched sweep equals the per-sample loop bit for bit, and fails
    where and as the loop fails."""

    @pytest.mark.parametrize("n_samples", [2, 8, 64])
    @pytest.mark.parametrize("c, kappa", [(4.0, 1.2), (1.0, 1.0), (0.0, 1.0)])
    def test_bcv_circle(self, c, kappa, n_samples):
        base = hopf.ConformalBase(geo.bcv(c, 0.5))
        curve = hopf.bcv_circle(c, kappa=kappa)
        assert_same_report(hopf.hopf_residuals(curve, base, n_samples),
                           loop_report(curve, base, n_samples))

    @pytest.mark.parametrize("n_samples", [2, 8, 64])
    def test_warped_root(self, n_samples):
        case = hopf.rotational_case_search("cos(t)", 0.25, (0.0, 1.5))[0]
        assert_same_report(
            hopf.hopf_residuals(case.curve, case.base, n_samples),
            loop_report(case.curve, case.base, n_samples))

    @pytest.mark.parametrize("n_samples", [2, 8, 64])
    def test_reparametrized_ellipse(self, n_samples):
        curve, base = generic_ellipse()
        assert_same_report(hopf.hopf_residuals(curve, base, n_samples),
                           loop_report(curve, base, n_samples))

    def test_reparametrized_jets_equal_their_points(self):
        curve, _ = generic_ellipse()
        s = np.linspace(0.0, curve.interval[1], 33)
        batch = curve.point_jets(s)
        for i, si in enumerate(s.tolist()):
            for jet, one in zip(batch, curve.point_jets(si)):
                assert jet.value[i] == one.value
                assert jet.grad[:, i].tobytes() == one.grad.tobytes()
                assert jet.hess[:, :, i].tobytes() == one.hess.tobytes()

    def test_reparametrized_jets_read_the_curve_once(self, monkeypatch):
        # x and y are evaluated once at t(s): the speed jet and the chain
        # rule share that read
        curve, _ = generic_ellipse()
        s = np.linspace(0.0, curve.interval[1], 33)
        t = curve._times(s)
        reads = []
        point_jets = curve.curve.point_jets

        def counted(ts):
            reads.append(np.array_equal(ts, t))
            return point_jets(ts)

        monkeypatch.setattr(curve.curve, "point_jets", counted)
        curve.point_jets(s)
        assert sum(reads) == 1

    def test_first_sample_leaving_the_domain(self):
        small = hopf.ConformalBase(make_data("1", "0", "0",
                                             rect=(-0.5, 0.5, -0.5, 0.5)))
        line = hopf.BaseCurve(parse("s", ("s",)), parse("0", ("s",)),
                              (-0.3, 1.0))
        message = ("curve leaves the base domain at s = 0.5038333333333334: "
                   "point (0.5038333333333334, 0.0)")
        with pytest.raises(OutsideDomainError) as err:
            hopf.hopf_residuals(line, small)
        assert str(err.value) == message
        with pytest.raises(OutsideDomainError) as err:
            loop_report(line, small)
        assert str(err.value) == message

    def test_reparametrized_curve_leaving_the_domain(self):
        small = hopf.ConformalBase(make_data("1", "0", "0",
                                             rect=(-0.5, 0.5, -0.5, 0.5)))
        arc = hopf.BaseCurve(parse("s", ("s",)), parse("0.1*s^2", ("s",)),
                             (-0.3, 1.0))
        # the first of the 257 samples of the speed grid whose point is
        # outside, named by the curve's own parameter: the metric is not
        # read there (nor anywhere else outside)
        t, point = next((t, arc.point(t))
                        for t in np.linspace(-0.3, 1.0, 257).tolist()
                        if not small.contains(arc.point(t)))
        assert t == 0.5023437500000001
        with pytest.raises(OutsideDomainError) as err:
            hopf.arclength_reparam(arc, small)
        assert str(err.value) == (
            f"curve leaves the base domain at s = {t}: point {point}")

    def test_first_stencil_point_off_unit_speed(self):
        # unit speed up to s = a, which lies between the s + h/2 and s + h
        # stencil points of sample 20: the error names that s + h
        h = 1e-3
        a = float(np.linspace(3 * h, 1 - 3 * h, 64)[20] + 0.0007)
        curve = hopf.BaseCurve(
            parse(f"s+(s-{a!r}+abs(s-{a!r}))^2", ("s",)), parse("0", ("s",)),
            (0.0, 1.0))
        message = ("curve speed 1.0024000000000002 at s = 0.31955555555555554"
                   "; reparametrize by arc length first")
        with pytest.raises(NotArcLengthError) as err:
            hopf.hopf_residuals(curve, FLAT_BASE)
        assert str(err.value) == message
        with pytest.raises(NotArcLengthError) as err:
            loop_report(curve, FLAT_BASE)
        assert str(err.value) == message


def column_sweep(curve, base, h, s):
    """``hopf._sweep`` with one geodesic-curvature call per stencil column,
    through ``numdiff.derivatives``, as the sweep was written before its
    columns became one batch."""
    jx, jy = curve.point_jets(s)
    p = (jx.value, jy.value)
    bad = expr._first_bad(np.logical_not(base.contains(p)), s, *p)
    if bad:
        raise OutsideDomainError(f"curve leaves the base domain at s = "
                                 f"{bad[0]}: point {bad[1:]}")
    xp, yp = jx.grad[0], jy.grad[0]
    k, grad, hess = numdiff.derivatives(
        lambda q: hopf.geodesic_curvature(curve, base, q[0]), (s,), h)
    k1, k2 = grad[0], hess[0, 0]
    r, grad_r = base.bundle(p)
    g = base.gauss(p)
    rd = xp * grad_r[0] + yp * grad_r[1]
    t = -r
    ric_nn, ric_n1, ric_n2 = base.ricci_values(p, xp, yp, r, grad_r, g)
    return (k, t, r, g,
            k2 - expr.power(k, 3) + (g - 4.0 * r * r) * k,
            k * k1,
            r * k1 + rd * k,
            k2 - k * (k * k + 2.0 * t * t) + k * ric_nn,
            3.0 * k1 * k - k * ric_n1,
            k1 * t + k * ric_n2)


def sweep_cases():
    for c, kappa in ((-1.0, 1.5), (1.0, 1.0), (4.0, 1.2)):
        yield pytest.param(hopf.bcv_circle(c, kappa=kappa),
                           hopf.ConformalBase(geo.bcv(c, 0.3)), id=f"bcv{c}")
    case = hopf.rotational_case_search("cos(t)", 0.25, (0.0, 1.5))[0]
    yield pytest.param(case.curve, case.base, id="warped-root")
    yield pytest.param(*generic_ellipse(), id="ellipse")


class TestStencilColumns:
    """The sweep's one batch of its 5 stencil columns equals one call per
    column bit for bit, and fails as they fail."""

    @pytest.mark.parametrize("curve, base", list(sweep_cases()))
    def test_equals_one_call_per_column(self, curve, base):
        h, samples = sweep_samples(curve)
        got = hopf._sweep(curve, base, h, samples)
        want = column_sweep(curve, base, h, samples)
        assert len(got) == len(want) == 10
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_failing_off_centre_point(self, monkeypatch):
        # sample 7's s + h/2 and sample 9's s + h fail: the batch of the
        # off-centre columns meets sample 9 first (the s + h column leads),
        # but the sweep bisects to sample 7, whose point raises
        base = hopf.ConformalBase(geo.bcv(1.0, 0.3))
        curve = hopf.bcv_circle(1.0, kappa=1.0)
        h, samples = sweep_samples(curve)
        jx, jy = curve.point_jets(np.array([samples[7] + 0.5 * h,
                                            samples[9] + h]))
        targets = list(zip(jx.value.tolist(), jy.value.tolist()))
        metric = base.metric

        def failing_metric(p):
            flags = np.zeros(np.shape(p[0]), dtype=bool)
            for x, y in targets:
                flags |= (p[0] == x) & (p[1] == y)
            bad = expr._first_bad(flags, *p)
            if bad:
                raise DomainEvalError(f"chart fails at {bad}")
            return metric(p)

        monkeypatch.setattr(base, "metric", failing_metric)
        errors = []
        for sweep in (hopf._sweep, column_sweep):
            monkeypatch.setattr(hopf, "_sweep", sweep)
            with pytest.raises(DomainEvalError) as err:
                hopf.hopf_residuals(curve, base)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]
        assert errors[0][1] == f"chart fails at {targets[0]}"

    @pytest.mark.parametrize("column", range(4))
    def test_failing_sample_is_bisected_once(self, column, monkeypatch):
        # one off-centre point of sample 40 of 64 fails: the bisection over
        # samples runs 5 points per sample of each half it tries and the
        # failing sample once more alone; bisecting each failing batch of
        # off-centre points again took 47 calls over 992 points
        base = hopf.ConformalBase(geo.bcv(1.0, 0.3))
        curve = hopf.bcv_circle(1.0, kappa=1.0)
        h, samples = sweep_samples(curve)
        off = numdiff._abscissae((samples,), h)[1:]
        jx, jy = curve.point_jets(off[column][0][40:41])
        target = (float(jx.value[0]), float(jy.value[0]))
        metric = base.metric

        def failing_metric(p):
            bad = expr._first_bad((p[0] == target[0]) & (p[1] == target[1]),
                                  *p)
            if bad:
                raise DomainEvalError(f"chart fails at {bad}")
            return metric(p)

        points = []
        original = hopf._kappa

        def counted(base, jets, s):
            points.append(len(s))
            return original(base, jets, s)

        monkeypatch.setattr(base, "metric", failing_metric)
        monkeypatch.setattr(hopf, "_kappa", counted)
        with pytest.raises(DomainEvalError) as err:
            hopf.hopf_residuals(curve, base)
        assert str(err.value) == f"chart fails at {target}"
        assert sum(points) <= 640


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

    @pytest.mark.parametrize("c, kappa", [(1.0, 1.0), (1.0, 0.5), (0.0, 1.0),
                                          (4.0, 1.2), (-1.0, 1.2)])
    def test_patch_reuses_the_curve_program(self, c, kappa):
        circ = hopf.bcv_circle(c, kappa=kappa)
        patch = hopf.cylinder_patch(geo.bcv(c, 0.3), circ)
        assert (patch.x.program is circ.x.program
                and patch.y.program is circ.y.program)
        assert patch.x == parse(str(circ.x), ("s", "v"))

    def test_patch_needs_the_parameter_s(self):
        circle = hopf.BaseCurve(parse("cos(t)", ("t",)),
                                parse("sin(t)", ("t",)), (0.0, 6.0))
        with pytest.raises(ValueError, match="parameter s"):
            hopf.cylinder_patch(FLAT, circle)


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

    def test_interval_of_no_finite_length_rejected(self):
        # its 1024 scan points would be nan and inf
        with pytest.raises(KsubError) as err:
            hopf.rotational_case_search("1+t^2", 0.0, (-1e308, 1e308))
        assert str(err.value) == "interval (-1e+308, 1e+308) has length inf"

    def test_multiple_roots_sorted(self):
        # cos on a symmetric window has roots at +-pi/4
        cases = hopf.rotational_case_search("cos(t)", 0.0, (-1.5, 1.5))
        assert len(cases) == 2
        assert cases[0].t0 == pytest.approx(-math.pi / 4, abs=1e-8)
        assert cases[1].t0 == pytest.approx(math.pi / 4, abs=1e-8)

    def test_no_root_in_window(self):
        with pytest.raises(NoIsolatedRootError):
            hopf.rotational_case_search("cos(t)", 0.0, (0.0, 0.5))

    def test_tolerances_read_when_called(self, monkeypatch):
        monkeypatch.setattr(hopf, "CRITERION_TOL", -1.0)
        case = hopf.rotational_case_search("cos(t)", 0.0, (0.0, 1.5))[0]
        assert not case.report.verdict.passed


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
                               (0.0, 2 * math.pi * lam0))
        report = hopf.hopf_residuals(curve, base)
        assert report.verdict.passed
        assert report.verdict.kappa_mean ** 2 == pytest.approx(
            1.0 - 4 * r * r, abs=1e-8)
        assert np.max(np.abs(report.residuals)) <= 1e-5
