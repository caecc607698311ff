import itertools
import math
import re

import numpy as np
import pytest

from ksub import biharmonic as bih
from ksub import geometry as geo
from ksub import hopf
from ksub import surface as srf
from ksub import verify
from ksub.errors import AngleSingularError, FdMarginError, NotCMCError
from ksub.expr import parse

PV = ("u", "v")


def make_data(lam, a, b, rect=(-2, 2, -2, 2), desc="test"):
    return geo.KillingData(parse(lam, ("x", "y")), parse(a, ("x", "y")),
                           parse(b, ("x", "y")), geo.Rect(*rect), desc)


FLAT = make_data("1", "0", "0", desc="flat")
VARIABLE_R = make_data("1", "0", "x^2", desc="variable-r")
SPHERE = geo.bcv(1.0, 0.0)


def vertical_plane(data=FLAT):
    return srf.SurfacePatch(parse("u", PV), parse("0", PV), parse("v", PV),
                            geo.Rect(-1, 1, -1, 1), data)


def biharmonic_cylinder():
    circ = hopf.bcv_circle(1.0, kappa=1.0)
    patch = hopf.cylinder_patch(SPHERE, circ)
    return patch, (0.5 * circ.interval[1], 0.5)


def system_lines(d, e1, e2):
    """The frame system's lines at an analyzed point, in the pair (e1, e2)."""
    return bih._system_lines(d.gauss_base, d.r, d.grad_r[0], d.grad_r[1],
                             d.lam, e1, e2, d.normal, d.norm_sq)


def non_biharmonic_cylinder(kappa=0.5):
    circ = hopf.bcv_circle(1.0, kappa=kappa)
    patch = hopf.cylinder_patch(SPHERE, circ)
    return patch, (0.5 * circ.interval[1], 0.5)


class TestBitension:
    def test_minimal_plane_harmonic(self):
        bt = bih.bitension_residual(vertical_plane(), (0.1, 0.2))
        assert abs(bt.mean_h) <= 1e-12
        assert abs(bt.normal) <= 1e-10
        assert bt.tangential_norm <= 1e-10
        assert bt.is_biharmonic(1e-6)
        assert not bt.is_proper()

    def test_default_tolerance_read_when_called(self, monkeypatch):
        bt = bih.BitensionResidual(5e-5, np.zeros(2), 1.0)
        assert bt.is_biharmonic() and bt.is_proper()
        monkeypatch.setattr(bih, "RESIDUAL_TOL", 1e-5)
        assert not bt.is_biharmonic()
        assert not bt.is_proper()
        assert bt.is_proper(1e-4)

    @pytest.mark.parametrize("normal, tangential", [
        (float("nan"), [0.0, 0.0]), (0.0, [float("nan"), 0.0])])
    def test_a_nan_defect_is_not_biharmonic(self, normal, tangential):
        bt = bih.BitensionResidual(normal, np.array(tangential), 1.0)
        assert not bt.is_biharmonic()
        assert not bt.is_proper()

    def test_proper_biharmonic_cylinder(self):
        patch, q = biharmonic_cylinder()
        bt = bih.bitension_residual(patch, q)
        assert abs(bt.normal) <= 1e-4
        assert bt.tangential_norm <= 1e-4
        assert abs(bt.mean_h) == pytest.approx(1.0, abs=1e-8)
        assert bt.is_proper()

    def test_wrong_curvature_cylinder_fails(self):
        patch, q = non_biharmonic_cylinder(0.5)
        bt = bih.bitension_residual(patch, q)
        assert abs(bt.normal) >= 0.1
        assert bt.normal == pytest.approx(0.375, abs=1e-6)

    def test_notcmc_raises(self):
        paraboloid = srf.SurfacePatch.graph(FLAT, "x^2+y^2",
                                            geo.Rect(-0.6, 0.6, -0.6, 0.6))
        with pytest.raises(NotCMCError):
            bih.bitension_residual(paraboloid, (0.3, 0.2))


class TestFrameSystem:
    def test_biharmonic_cylinder_vanishes(self):
        patch, q = biharmonic_cylinder()
        res = bih.frame_system_residuals(patch, q)
        assert np.max(np.abs(res)) <= 1e-5

    def test_tangent_lines_vanish_for_vertical_constant_r(self):
        # c3 = 0 and grad r = 0 kill lines 2 and 3 identically
        patch, q = non_biharmonic_cylinder(0.7)
        res = bih.frame_system_residuals(patch, q)
        assert res[1] == pytest.approx(0.0, abs=1e-14)
        assert res[2] == pytest.approx(0.0, abs=1e-14)

    def test_rotation_invariance(self):
        patch, q = biharmonic_cylinder()
        base = bih.frame_system_residuals(patch, q)
        d = patch.evaluator().weingarten(*q)
        ca, sa = math.cos(0.7), math.sin(0.7)
        f1, f2 = d.ortho_basis
        rotated = system_lines(d, ca * f1 + sa * f2, -sa * f1 + ca * f2)
        assert base[0] == pytest.approx(rotated[0], abs=1e-12)
        assert np.hypot(base[1], base[2]) == pytest.approx(
            np.hypot(rotated[1], rotated[2]), abs=1e-12)

    def test_adapted_basis_agrees_on_invariants(self):
        patch, q = biharmonic_cylinder()
        ortho = bih.frame_system_residuals(patch, q)
        lat = srf.point_lattice(patch, q)
        lat.require_frame()
        d = lat.record()
        adapted = system_lines(d, d.e1, d.e2)
        assert ortho[0] == pytest.approx(adapted[0], abs=1e-12)
        assert np.hypot(ortho[1], ortho[2]) == pytest.approx(
            np.hypot(adapted[1], adapted[2]), abs=1e-12)

    def test_orientation_flip_preserves_magnitudes(self):
        patch, q = biharmonic_cylinder()
        one = np.abs(bih.frame_system_residuals(patch, q))
        other = np.abs(bih.frame_system_residuals(patch.flipped(), q))
        np.testing.assert_allclose(one, other, atol=1e-10)

    def test_consistency_chain_on_branch_a(self):
        # on the biharmonic cylinder: line 1 assembles as (G - 2r^2) - |A|^2,
        # and |A|^2 equals kappa^2 + 2 r^2
        patch, q = biharmonic_cylinder()
        ev = patch.evaluator()
        d = ev.data(*q)
        w = ev.weingarten(*q)
        res = bih.frame_system_residuals(patch, q)
        assembled = (d.gauss_base - 2.0 * d.r ** 2) - w.norm_sq
        assert res[0] == pytest.approx(assembled, abs=1e-5)
        kappa_sq = 1.0
        assert w.norm_sq == pytest.approx(kappa_sq + 2.0 * d.r ** 2, abs=1e-5)


class TestBitensionFrameIdentity:
    # the frame system is the bitension with its mean-curvature terms taken
    # out, on any surface (see bih.bitension_frame_identity, which
    # surface-identities reads too); both sides agree to 5.6e-17 here
    @pytest.mark.parametrize("data", verify.metric_families(),
                             ids=lambda data: data.description)
    def test_holds_off_cmc(self, data):
        patch = srf.SurfacePatch.graph(
            data, "0.1+0.5*x+0.3*y+0.2*x*y+0.25*x^2-0.15*y^2",
            geo.Rect(-0.45, 0.45, -0.45, 0.45))
        for q in ((0.1, -0.05), (-0.12, 0.08)):
            # H spreads by 1.2e-3 to 3.6e-3 over the probes
            assert bih._cmc(srf.point_lattice(patch, q))[1][0] > bih.CMC_TOL
            assert np.max(np.abs(bih.bitension_frame_identity(
                patch, q))) <= 1e-12


class TestRicciAssemblies:
    def test_system_lines_match_ricci_contractions(self):
        # lines 1-3 of the frame system are Ricc(eta,eta) - |A|^2 and the
        # two tangential Ricci components, assembled from frame components;
        # they must agree with contracting the Ricci matrix directly
        data = make_data("exp(-(x^2+y^2)/4)", "0", "x",
                         rect=(-1.5, 1.5, -1.5, 1.5), desc="gaussian")
        patch = srf.SurfacePatch.graph(data, "0.1+0.4*x+0.3*y+0.2*x*y",
                                       geo.Rect(-0.5, 0.5, -0.5, 0.5))
        q = (0.15, -0.1)
        ev = patch.evaluator()
        d = ev.data(*q)
        w = ev.weingarten(*q)
        lines = system_lines(w, *w.ortho_basis)
        ric = geo.ricci(data, d.point[:2])
        assert lines[0] == pytest.approx(
            float(d.normal @ ric @ d.normal) - w.norm_sq, abs=1e-12)
        assert lines[1] == pytest.approx(
            float(d.normal @ ric @ w.ortho_basis[0]), abs=1e-12)
        assert lines[2] == pytest.approx(
            float(d.normal @ ric @ w.ortho_basis[1]), abs=1e-12)


class TestAngleSystem:
    def test_synthetic_exact_angle(self):
        grad_norm, r, g_val = 0.4, 0.5, 0.3
        phi = 0.5 * math.atan2(2.0 * grad_norm, 4.0 * r * r - g_val)
        norm_sq = 2.0 * r * r + grad_norm * math.tan(phi)
        out = bih.angle_system_scalars(g_val, r, grad_norm, phi, norm_sq)
        assert abs(out["res2"]) <= 1e-12
        assert abs(out["tan2phi_residual"]) <= 1e-12
        assert abs(out["norm_residual"]) <= 1e-12
        assert abs(out["res1"]) <= 1e-12

    def test_reduced_system_equivalent_to_frame_system(self):
        # with e2 = grad r / |grad r| and the angle frame, the three-line
        # system collapses to the two scalar equations
        rng = np.random.default_rng(31)
        for _ in range(20):
            r = float(rng.uniform(-1, 1))
            g_val = float(rng.uniform(-1, 1))
            rx, ry = rng.uniform(-1, 1, 2)
            lam = float(rng.uniform(0.5, 2.0))
            phi = float(rng.uniform(0.1, math.pi / 2 - 0.1))
            norm_sq = float(rng.uniform(0.0, 3.0))
            grad = math.hypot(rx, ry) / lam
            b = np.array([rx / (lam * grad), ry / (lam * grad), 0.0])
            jb = np.array([-b[1], b[0], 0.0])
            e1 = math.cos(phi) * jb * -1.0 + math.sin(phi) * np.array([0, 0, 1.0])
            eta = math.sin(phi) * jb + math.cos(phi) * np.array([0, 0, 1.0])
            lines = bih._system_lines(g_val, r, rx, ry, lam, e1, b, eta,
                                      norm_sq)
            scal = bih.angle_system_scalars(g_val, r, grad, phi, norm_sq)
            assert lines[0] == pytest.approx(scal["res1"], abs=1e-10)
            assert lines[1] == pytest.approx(-scal["res2"], abs=1e-10)
            assert lines[2] == pytest.approx(0.0, abs=1e-12)


class TestAngleShapeIdentity:
    def test_flat_vertical_graph_constant_angle(self):
        # a tilted plane in the flat product: A = 0, phi constant
        patch = srf.SurfacePatch(parse("u", PV), parse("v", PV),
                                 parse("0.5*v", PV),
                                 geo.Rect(-1, 1, -1, 1), FLAT)
        res = bih.angle_shape_residual(patch, (0.1, 0.2))
        assert res == pytest.approx(0.0, abs=1e-9)

    def test_constant_angle_reduces_to_shape_norm(self):
        # with phi constant the identity defect is exactly 2 |A|^2
        patch = srf.SurfacePatch.graph(FLAT, "0.3*x+0.4*y",
                                       geo.Rect(-0.5, 0.5, -0.5, 0.5))
        q = (0.1, 0.1)
        d = srf.analyze_point(patch, q)
        res = bih.angle_shape_residual(patch, q)
        assert res == pytest.approx(2.0 * d.norm_sq, abs=1e-9)

    def test_two_assemblies_agree(self):
        patch = srf.SurfacePatch.graph(VARIABLE_R, "0.1+0.3*x+0.5*y+0.2*x*y",
                                       geo.Rect(-0.5, 0.5, -0.5, 0.5))
        q = (0.15, -0.1)
        a = bih.angle_shape_residual(patch, q)
        b = bih.angle_shape_alt_assembly(patch, q)
        # 1.0e-14 apart; 1.1e-9 while the alternative nested one stencil in
        # another
        assert a == pytest.approx(b, abs=1e-9)

    def test_alt_assembly_names_the_unframed_stencil_point(self):
        # the paraboloid's vertex is horizontal, so it has no frame; at q
        # one step right of it the centre has one, and stencil point 2,
        # (q[0] - h, q[1]), is the vertex
        patch = srf.SurfacePatch.graph(FLAT, "(x-0.2)^2+(y-0.1)^2",
                                       geo.Rect(-0.5, 0.5, -0.5, 0.5))
        h = srf.point_lattice(patch, (0.0, 0.0)).h
        q = (0.2 + h, 0.1)
        assert q[0] - h == 0.2
        with pytest.raises(AngleSingularError) as err:
            bih.angle_shape_alt_assembly(patch, q)
        assert str(err.value) == (
            "sin(phi) = 0.00e+00 at parameters (0.2, 0.1); the vertical "
            "field is normal and no adapted frame exists")


class TestProbeLattice:
    def test_probes_need_a_4h_margin(self):
        # the 5x5 lattice at 2 h spacing reaches 4 h from the point
        patch = vertical_plane()
        h = srf.point_lattice(patch, (0.0, 0.0)).h
        mean, dev = bih.cmc_probe(patch, (1.0 - 4.5 * h, 0.0))
        assert abs(mean) <= 1e-12 and dev <= 1e-12
        for probe in (bih.cmc_probe, bih.classify_point,
                      bih.bitension_residual):
            with pytest.raises(FdMarginError, match=re.escape(
                    f"for a stencil of width {4.0 * h}")):
                probe(patch, (1.0 - 3.5 * h, 0.0))


class TestClassify:
    def test_cylinder_is_branch_a(self):
        patch, q = biharmonic_cylinder()
        report = bih.classify_point(patch, q)
        assert report.branch == "a"
        assert report.satisfied
        assert report.diagnostics["hopf_criterion_residual"] <= 1e-4

    def test_wrong_cylinder_branch_a_unsatisfied(self):
        patch, q = non_biharmonic_cylinder(0.5)
        report = bih.classify_point(patch, q)
        assert report.branch == "a"
        assert not report.satisfied

    @pytest.mark.parametrize("kappa, satisfied, residual", [
        (1.0, True, 4.4e-16), (1.2, False, 0.44)])
    def test_branch_a_off_r_zero(self, kappa, satisfied, residual):
        # in BCV(2, 0.5), 4 r^2 = 1 and G = 2, so the criterion
        # H^2 = G - 4 r^2 holds on the cylinder over the kappa = 1 circle
        circ = hopf.bcv_circle(2.0, kappa=kappa)
        patch = hopf.cylinder_patch(geo.bcv(2.0, 0.5), circ)
        report = bih.classify_point(patch, (0.5 * circ.interval[1], 0.5))
        assert report.branch == "a"
        assert report.satisfied == satisfied
        assert report.diagnostics == {
            "hopf_criterion_residual": pytest.approx(residual, abs=1e-12)}

    def test_b1_scalars(self):
        mu = 0.7
        report = bih.classify_scalars(cos_phi=0.4, grad_norm=0.0,
                                      gauss=4 * mu * mu, r=mu,
                                      norm_sq=2 * mu * mu, mean_h=1.0)
        assert report.branch == "b1"
        assert report.satisfied
        assert report.diagnostics["sphere_condition_residual"] <= 1e-12

    def test_b1_wrong_norm_unsatisfied(self):
        mu = 0.7
        report = bih.classify_scalars(cos_phi=0.4, grad_norm=0.0,
                                      gauss=4 * mu * mu, r=mu,
                                      norm_sq=1.0, mean_h=1.0)
        assert report.branch == "b1"
        assert not report.satisfied

    @pytest.mark.parametrize("gauss, r", [(float("nan"), 0.7),
                                          (1.96, float("nan"))])
    def test_b1_nan_is_unsatisfied(self, gauss, r):
        report = bih.classify_scalars(cos_phi=0.4, grad_norm=0.0,
                                      gauss=gauss, r=r, norm_sq=0.98,
                                      mean_h=1.0)
        assert report.branch == "b1"
        assert not report.satisfied

    # 4 r^2 = G exactly: a nan |grad r| counts as nonzero, not as b2
    @pytest.mark.parametrize("grad_norm", [0.5, float("nan")])
    def test_contradiction_flag(self, grad_norm):
        report = bih.classify_scalars(cos_phi=0.5, grad_norm=grad_norm,
                                      gauss=4 * 0.09, r=0.3,
                                      norm_sq=1.0, mean_h=1.0)
        assert report.branch == "contradiction-propRconst"
        assert report.satisfied is False

    def test_contradiction_on_a_surface(self):
        # at x = 0: r = x so 4r^2 - G = 0 while grad r = (1, 0)
        patch = srf.SurfacePatch.graph(VARIABLE_R, "0.2+0.4*y",
                                       geo.Rect(-0.5, 0.5, -0.5, 0.5))
        report = bih.classify_point(patch, (0.0, 0.1))
        assert report.branch == "contradiction-propRconst"
        assert report.satisfied is False

    def test_constant_r_lattice_reads_b1(self):
        # r is constant in BCV(1, 0.5); the probe spread (1.47e-4) fails
        # the CMC gate, so the lattice is classified directly
        patch = srf.SurfacePatch.graph(geo.bcv(1.0, 0.5), "0.2+0.4*y",
                                       geo.Rect(-0.5, 0.5, -0.5, 0.5))
        [report] = bih._classify(srf.point_lattice(patch, (0.1, 0.1)))
        assert report.branch == "b1"
        assert report.satisfied is False

    def test_vertical_normal_rejected(self):
        report = bih.classify_scalars(cos_phi=1.0, grad_norm=0.1, gauss=1.0,
                                      r=0.2, norm_sq=0.5, mean_h=1.0)
        assert report.branch == "none"

    def test_synthetic_b2(self):
        grad_norm, r, g_val = 0.4, 0.5, 0.3
        phi = 0.5 * math.atan2(2.0 * grad_norm, 4.0 * r * r - g_val)
        norm_sq = 2.0 * r * r + grad_norm * math.tan(phi)
        report = bih.classify_scalars(cos_phi=math.cos(phi),
                                      grad_norm=grad_norm, gauss=g_val, r=r,
                                      norm_sq=norm_sq, mean_h=1.0)
        assert report.branch == "b2"
        assert report.satisfied
        assert abs(report.diagnostics["tan2phi_residual"]) <= 1e-12

    def test_generic_graph_lands_in_b2_with_residuals(self, monkeypatch):
        # tilted plane containing the r-gradient direction; CMC gate relaxed
        # to probe the branch logic on a non-CMC surface
        patch = srf.SurfacePatch(parse("u", PV), parse("0.6*v", PV),
                                 parse("0.8*v", PV),
                                 geo.Rect(-0.8, 0.8, -0.8, 0.8), VARIABLE_R)
        monkeypatch.setattr(bih, "CMC_TOL", 10.0)
        report = bih.classify_point(patch, (0.3, 0.1))
        assert report.branch == "b2"
        assert not report.satisfied
        assert set(report.diagnostics) == {"tan2phi_residual", "norm_residual"}

    def test_orientation_flip_keeps_branch(self):
        patch, q = biharmonic_cylinder()
        a = bih.classify_point(patch, q)
        b = bih.classify_point(patch.flipped(), q)
        assert a.branch == b.branch
        assert a.satisfied == b.satisfied


# every branch is reached, and 4 r^2 - G = 0 exactly at (G, r) = (0.36, 0.3)
NAN, INF = float("nan"), float("inf")
GRID = {"cos_phi": [0.0, 0.5, 1.0, NAN, INF, -INF],
        "grad_norm": [0.0, 0.4, NAN, INF, -INF],
        "gauss": [0.36, 0.3, NAN, INF, -INF],
        "r": [0.3, 0.5, NAN, INF, -INF],
        "norm_sq": [0.18, 1.0, NAN, INF],
        "mean_h": [0.0, 1.0, NAN, INF]}
READS = {"a": ("cos_phi", "mean_h", "r", "gauss"),
         "b1": ("cos_phi", "grad_norm", "r", "gauss", "norm_sq"),
         "b2": ("cos_phi", "grad_norm", "r", "gauss", "norm_sq")}


def test_classify_scalars_is_total():
    # never raises, always a bool, and a nan that the branch reads fails it
    branches = set()
    for values in itertools.product(*GRID.values()):
        args = dict(zip(GRID, values))
        report = bih.classify_scalars(**args)
        branches.add((report.branch, report.satisfied))
        assert type(report.satisfied) is bool, args
        if any(math.isnan(args[name]) for name in READS.get(report.branch,
                                                            ())):
            assert not report.satisfied, args
    assert {"none", "a", "contradiction-propRconst", "b1", "b2"} == {
        branch for branch, _ in branches}
    assert {("a", True), ("b1", True)} <= branches


def test_grad_r_norm_against_differences():
    # gaussian-lambda has lam != 1, so the division by lam is live
    data = verify.metric_families()[4]
    patch = srf.SurfacePatch.graph(data, "0", geo.Rect(-1, 1, -1, 1))
    h = 1e-4

    def r_at(x, y):
        return float(geo.bundle_curvature(data, (x, y))[0])

    for x, y in [(0.3, 0.2), (-0.25, 0.1), (0.1, -0.3)]:
        lat = srf.point_lattice(patch, (x, y))
        [norm] = bih._grad_r_norm(lat.centre("grad_r"), lat.centre("lam"))
        [lam] = lat.centre("lam").tolist()
        rx = (r_at(x + h, y) - r_at(x - h, y)) / (2 * h)
        ry = (r_at(x, y + h) - r_at(x, y - h)) / (2 * h)
        assert abs(lam - 1.0) >= 1e-3
        assert norm == pytest.approx(math.hypot(rx, ry) / lam, abs=1e-7)


class TestHarmonicImpliesBiharmonic:
    @pytest.mark.parametrize("data", [FLAT, geo.bcv(0.0, 0.5), geo.bcv(1.0, 1.0)])
    def test_minimal_planes(self, data):
        patch = vertical_plane(data)
        for flip in (False, True):
            p = patch.flipped() if flip else patch
            bt = bih.bitension_residual(p, (0.1, 0.2))
            assert abs(bt.mean_h) <= 1e-8
            assert max(abs(bt.normal), bt.tangential_norm) <= 1e-6
