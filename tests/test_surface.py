import ast
import gc
import math
import random
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import ksub
from ksub import biharmonic as bih
from ksub import geometry as geo
from ksub import hopf
from ksub import numdiff as nd
from ksub import surface as srf
from ksub.cli import main
from ksub.errors import (
    AngleSingularError,
    DegenerateImmersionError,
    FdMarginError,
    KsubError,
    NotCMCError,
    OutsideDomainError,
)
from ksub.expr import parse
from ksub.verify import _random_graph, metric_families

PV = ("u", "v")


def make_data(lam, a, b, rect=(-2, 2, -2, 2), desc="test"):
    return geo.KillingData(parse(lam, ("x", "y")), parse(a, ("x", "y")),
                           parse(b, ("x", "y")), geo.Rect(*rect), desc)


FLAT = make_data("1", "0", "0", desc="flat")
HEIS = geo.bcv(0.0, 0.5)
SPHERE_PRODUCT = geo.bcv(1.0, 0.0)
VARIABLE_R = make_data("1", "0", "x^2", desc="variable-r")


def vertical_plane(data=FLAT):
    return srf.SurfacePatch(parse("u", PV), parse("0", PV), parse("v", PV),
                            geo.Rect(-1, 1, -1, 1), data)


def flat_cylinder():
    return srf.SurfacePatch(parse("cos(u)", PV), parse("sin(u)", PV),
                            parse("v", PV), geo.Rect(0.2, 1.4, 0.0, 1.0), FLAT)


def horizontal_slice():
    return srf.SurfacePatch(parse("u", PV), parse("v", PV), parse("0.3", PV),
                            geo.Rect(-1, 1, -1, 1), FLAT)


def heis_graph():
    return srf.SurfacePatch.graph(HEIS, "0.2+0.5*x+0.3*y+0.4*x*y",
                                  geo.Rect(-0.5, 0.5, -0.5, 0.5))


def brioschi(patch, q):
    """The Brioschi curvature at one parameter point."""
    lat = srf.point_lattice(patch, q)
    return float(patch.evaluator().brioschi_curvature(lat)[0])


def laplacian(patch, q, samples):
    """The Laplacian at q of a field given by its samples at q's stencil
    points, a function of the stencil's (N, 17, 2) parameter points."""
    lat = srf.point_lattice(patch, q)
    values = samples(lat.column("stencil", "params"))
    return float(patch.evaluator().laplacian(lat, values)[0][0])


class TestAnalyzePoint:
    def test_vertical_plane_totally_geodesic(self):
        d = srf.analyze_point(vertical_plane(), (0.1, 0.2))
        assert d.mean_h == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(d.shape_ortho, np.zeros((2, 2)), atol=1e-12)
        assert d.phi == pytest.approx(math.pi / 2, abs=1e-12)

    def test_flat_cylinder(self):
        d = srf.analyze_point(flat_cylinder(), (0.7, 0.5))
        assert d.phi == pytest.approx(math.pi / 2, abs=1e-12)
        assert abs(d.mean_h) == pytest.approx(1.0, abs=1e-9)
        # principal curvatures 1 and 0 up to orientation sign
        eigs = sorted(np.linalg.eigvalsh(0.5 * (d.shape_ortho
                                                + d.shape_ortho.T)),
                      key=abs)
        assert eigs[0] == pytest.approx(0.0, abs=1e-9)
        assert abs(eigs[1]) == pytest.approx(1.0, abs=1e-9)

    def test_horizontal_slice(self):
        patch = horizontal_slice()
        d = srf.analyze_point(patch, (0.0, 0.0))
        assert d.phi == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(d.shape_ortho, np.zeros((2, 2)), atol=1e-12)
        assert d.e1 is None
        with pytest.raises(AngleSingularError):
            srf.point_lattice(patch, (0.0, 0.0)).require_frame()

    def test_normal_unit_and_orthogonal(self):
        d = srf.analyze_point(heis_graph(), (0.1, -0.2))
        assert np.linalg.norm(d.normal) == pytest.approx(1.0, abs=1e-12)
        assert d.normal @ d.tangents[0] == pytest.approx(0.0, abs=1e-10)
        assert d.normal @ d.tangents[1] == pytest.approx(0.0, abs=1e-10)

    def test_shape_operator_symmetric(self):
        d = srf.analyze_point(heis_graph(), (0.1, -0.2))
        assert abs(d.shape_ortho[0, 1] - d.shape_ortho[1, 0]) <= 1e-8

    def test_vertical_field_decomposition(self):
        d = srf.analyze_point(heis_graph(), (0.15, 0.1))
        xi = np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(
            d.vertical_tangent + d.cos_phi * d.normal, xi, atol=1e-12)
        assert d.vertical_tangent @ d.vertical_tangent == pytest.approx(
            math.sin(d.phi) ** 2, abs=1e-10)
        # and against the adapted frame
        np.testing.assert_allclose(
            math.sin(d.phi) * d.e1 + d.cos_phi * d.normal, xi, atol=1e-10)

    def test_first_form_matches_tangent_dots(self):
        d = srf.analyze_point(heis_graph(), (0.0, 0.0))
        np.testing.assert_allclose(d.first_form, d.tangents @ d.tangents.T,
                                   atol=1e-14)

    def test_degenerate_immersion_rejected(self):
        # the regularity grid is checked with the patch's first lattice
        # batch, so the first read raises, naming the grid's first point
        # rather than the point read; a flipped twin shares the grid
        patch = srf.SurfacePatch(parse("u", PV), parse("u", PV),
                                 parse("0", PV), geo.Rect(-1, 1, -1, 1), FLAT)
        for p in (patch, patch.flipped()):
            with pytest.raises(DegenerateImmersionError) as err:
                srf.analyze_point(p, (0.5, 0.25))
            assert str(err.value) \
                == "immersion degenerate at parameters (-0.96, -0.96)"


class TestAdaptedFrame:
    def test_orthonormal_on_random_graphs(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            coeffs = [round(float(c), 3) for c in rng.uniform(-0.5, 0.5, 3)]
            patch = srf.SurfacePatch.graph(
                HEIS, f"{coeffs[0]!r}+{coeffs[1]!r}*x+{coeffs[2]!r}*y",
                geo.Rect(-0.5, 0.5, -0.5, 0.5))
            q = (float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.2, 0.2)))
            d = srf.analyze_point(patch, q)
            if d.e1 is None:
                continue
            srf.point_lattice(patch, q).require_frame()
            e1, e2 = d.e1, d.e2
            assert e1 @ e1 == pytest.approx(1.0, abs=1e-10)
            assert e2 @ e2 == pytest.approx(1.0, abs=1e-10)
            assert e1 @ e2 == pytest.approx(0.0, abs=1e-10)
            assert e1 @ d.normal == pytest.approx(0.0, abs=1e-10)
            assert e2 @ d.normal == pytest.approx(0.0, abs=1e-10)

    def test_flat_cylinder_frame_is_vertical_and_horizontal(self):
        d = srf.analyze_point(flat_cylinder(), (0.7, 0.5))
        # T = xi on a vertical cylinder, so e1 is the vertical direction
        np.testing.assert_allclose(d.e1, [0.0, 0.0, 1.0], atol=1e-12)
        assert d.e2[2] == pytest.approx(0.0, abs=1e-12)


class TestShapeMatrixAdapted:
    def test_flat_cylinder_entries(self):
        patch = flat_cylinder()
        mat = srf.shape_matrix_adapted(patch, (0.7, 0.5))
        d = srf.analyze_point(patch, (0.7, 0.5))
        # off-diagonal -r = 0, vertical direction flat, circle direction H
        np.testing.assert_allclose(mat, [[0.0, 0.0], [0.0, d.mean_h]],
                                   atol=1e-9)

    def test_bcv_cylinder_off_diagonal_is_minus_r(self):
        data = geo.bcv(1.0, 0.4)
        lam0 = 1.0 / (1.0 + 0.25 * 0.81)
        patch = srf.SurfacePatch(
            parse("0.9*cos(u/" + repr(0.9 * lam0) + ")", PV),
            parse("0.9*sin(u/" + repr(0.9 * lam0) + ")", PV),
            parse("v", PV), geo.Rect(0.2, 1.4, 0.0, 1.0), data)
        q = (0.8, 0.5)
        mat = srf.shape_matrix_adapted(patch, q)
        assert mat[0, 1] == pytest.approx(-0.4, abs=1e-8)
        assert mat[0, 0] == pytest.approx(0.0, abs=1e-8)

    def test_matches_weingarten_in_adapted_basis(self):
        patch = heis_graph()
        q = (0.12, -0.08)
        mat = srf.shape_matrix_adapted(patch, q)
        d = srf.analyze_point(patch, q)
        ev = patch.evaluator()
        dd = ev.data(*q)
        w = np.empty((2, 2))
        for i, a in enumerate((d.e1, d.e2)):
            img = np.linalg.solve(dd.first_form, dd.tangents @ a) \
                @ dd.shape_frame
            for j, b in enumerate((d.e1, d.e2)):
                w[i, j] = img @ b
        np.testing.assert_allclose(mat, w, atol=1e-5)

    def test_minimal_plane_zero(self):
        np.testing.assert_allclose(
            srf.shape_matrix_adapted(vertical_plane(), (0.1, 0.2)),
            np.zeros((2, 2)), atol=1e-10)

    def test_angle_singular_raises(self):
        with pytest.raises(AngleSingularError):
            srf.shape_matrix_adapted(horizontal_slice(), (0.0, 0.0))
        with pytest.raises(AngleSingularError):
            srf.gauss_residual(horizontal_slice(), (0.0, 0.0))


class TestGaussResidual:
    def test_hopf_cylinder_in_curved_ambient(self):
        data = geo.bcv(1.0, 0.7)
        lam0 = 1.0 / (1.0 + 0.25 * 0.64)
        patch = srf.SurfacePatch(
            parse("0.8*cos(u/" + repr(0.8 * lam0) + ")", PV),
            parse("0.8*sin(u/" + repr(0.8 * lam0) + ")", PV),
            parse("v", PV), geo.Rect(0.2, 1.4, 0.0, 1.0), data)
        q = (0.8, 0.5)
        assert abs(srf.gauss_residual(patch, q)) <= 1e-5
        # det A = -r^2 and K_induced = 0 on any vertical cylinder
        d = srf.analyze_point(patch, q)
        assert np.linalg.det(d.shape_ortho) == pytest.approx(-0.49, abs=1e-7)
        assert brioschi(patch, q) == pytest.approx(0.0, abs=1e-8)

    def test_vertical_plane_zero(self):
        assert srf.gauss_residual(vertical_plane(), (0.1, 0.2)) == pytest.approx(
            0.0, abs=1e-12)

    def test_heisenberg_graph(self):
        assert abs(srf.gauss_residual(heis_graph(), (0.12, -0.08))) <= 1e-4

    def test_sphere_intrinsic_curvature(self):
        rho = 2.0
        patch = srf.SurfacePatch(
            parse(f"{rho!r}*sin(u)*cos(v)", PV),
            parse(f"{rho!r}*sin(u)*sin(v)", PV),
            parse(f"{rho!r}*cos(u)", PV),
            geo.Rect(0.4, 1.2, 0.1, 1.2),
            make_data("1", "0", "0", rect=(-3, 3, -3, 3)))
        assert brioschi(patch, (0.8, 0.6)) == pytest.approx(1.0 / rho**2,
                                                           abs=1e-7)


class TestCodazziResidual:
    def test_hopf_cylinder(self):
        data = geo.bcv(1.0, 0.5)
        lam0 = 1.0 / (1.0 + 0.25 * 0.49)
        patch = srf.SurfacePatch(
            parse("0.7*cos(u/" + repr(0.7 * lam0) + ")", PV),
            parse("0.7*sin(u/" + repr(0.7 * lam0) + ")", PV),
            parse("v", PV), geo.Rect(0.2, 1.4, 0.0, 1.0), data)
        res = srf.codazzi_residual(patch, (0.8, 0.5))
        assert np.max(np.abs(res)) <= 1e-4

    def test_vertical_plane_zero(self):
        res = srf.codazzi_residual(vertical_plane(), (0.1, 0.2))
        np.testing.assert_allclose(res, np.zeros(2), atol=1e-12)

    def test_heisenberg_graph(self):
        res = srf.codazzi_residual(heis_graph(), (0.12, -0.08))
        assert np.max(np.abs(res)) <= 1e-4

    def test_variable_r_graph(self):
        patch = srf.SurfacePatch.graph(VARIABLE_R, "0.1+0.4*x+0.5*y",
                                       geo.Rect(-0.5, 0.5, -0.5, 0.5))
        res = srf.codazzi_residual(patch, (0.1, 0.05))
        assert np.max(np.abs(res)) <= 1e-4


class TestCompatibility:
    def test_hopf_cylinder(self):
        data = geo.bcv(1.0, 0.5)
        lam0 = 1.0 / (1.0 + 0.25 * 0.49)
        patch = srf.SurfacePatch(
            parse("0.7*cos(u/" + repr(0.7 * lam0) + ")", PV),
            parse("0.7*sin(u/" + repr(0.7 * lam0) + ")", PV),
            parse("v", PV), geo.Rect(0.2, 1.4, 0.0, 1.0), data)
        r1, r2 = srf.compatibility_residuals(patch, (0.8, 0.5))
        assert r1 <= 1e-5 and r2 <= 1e-5

    def test_vertical_plane_zero(self):
        r1, r2 = srf.compatibility_residuals(vertical_plane(), (0.1, 0.2))
        assert r1 <= 1e-12 and r2 <= 1e-12

    def test_random_graph_bcv11(self):
        patch = srf.SurfacePatch.graph(geo.bcv(1.0, 1.0), "0.3*x+0.4*y+0.2*x*y",
                                       geo.Rect(-0.5, 0.5, -0.5, 0.5))
        r1, r2 = srf.compatibility_residuals(patch, (0.1, -0.1))
        assert r1 <= 1e-4 and r2 <= 1e-4


    def test_overflowing_metric_gives_nan_not_zero(self):
        # b = 1e200 x^2 overflows the ambient data; the residuals must say
        # so instead of reading as an exact identity
        data = make_data("1", "0", "1e200*x^2")
        with np.errstate(all="ignore"):
            patch = srf.SurfacePatch.graph(data, "x*y",
                                           geo.Rect(-0.45, 0.45, -0.45, 0.45))
            r1, r2 = srf.compatibility_residuals(patch, (-0.225, -0.225))
        assert math.isnan(r1) and math.isnan(r2)


class TestIdentitiesWithGradR:
    def test_random_graphs_in_gaussian_lambda(self):
        # r varies in gaussian-lambda, so the e2(r) terms of the Gauss and
        # Codazzi residuals are live (e2(r) reads 4.8e-3 to 3.9e-2 here;
        # Gauss 7.7e-10 and the others 2.1e-12 at most)
        [data] = [data for data in metric_families()
                  if data.description == "gaussian-lambda"]
        rng = random.Random(7)
        for _ in range(4):
            patch, q = _random_graph(data, rng)
            assert abs(srf._directional_r(srf.point_lattice(patch, q),
                                          "e2")[0]) >= 1e-3
            assert abs(srf.gauss_residual(patch, q)) <= 1e-8
            assert np.max(np.abs(srf.codazzi_residual(patch, q))) <= 1e-10
            assert np.max(srf.compatibility_residuals(patch, q)) <= 1e-10


class TestSurfaceLaplacian:
    def test_constant_field(self):
        assert laplacian(vertical_plane(), (0.1, 0.2),
                         lambda p: np.full(p.shape[:2], 3.5)) == pytest.approx(
            0.0, abs=1e-10)

    def test_euclidean_quadratic(self):
        assert laplacian(vertical_plane(), (0.1, 0.2),
                         lambda p: p[..., 0] * p[..., 0]) == pytest.approx(
            2.0, abs=1e-9)

    def test_margin_guard(self):
        with pytest.raises(FdMarginError):
            laplacian(vertical_plane(), (0.9999, 0.0), lambda p: p[..., 0])

    def test_margin_is_the_stencil_reach(self):
        # every numdiff stencil reaches h: a point 1.5 h from the edge
        # computes, one 0.5 h from it is refused before a sample leaves
        # the patch
        patch = heis_graph()
        ev = patch.evaluator()
        h = srf.point_lattice(patch, (0.0, 0.0)).h
        near, too_near = (0.5 - 1.5 * h, 0.0), (0.5 - 0.5 * h, 0.0)

        def mean_h_laplacian(q):
            lat = srf.point_lattice(patch, q)
            return ev.laplacian(lat, lat.column("stencil", "mean_h"))[0]

        for op in (mean_h_laplacian,
                   lambda q: brioschi(patch, q),
                   lambda q: srf._gradient(srf.point_lattice(patch, q), "phi"),
                   lambda q: srf.codazzi_residual(patch, q),
                   lambda q: srf.shape_frame_fd(patch, q),
                   lambda q: bih.angle_shape_alt_assembly(patch, q)):
            assert np.all(np.isfinite(op(near)))
            with pytest.raises(FdMarginError):
                op(too_near)

    def test_angle_laplacian_two_assemblies(self):
        # divergence-form Laplacian vs second frame derivatives with the
        # closed-form surface connection terms
        patch = heis_graph()
        q = (0.1, -0.05)
        ev = patch.evaluator()
        d = ev.data(*q)
        lat = srf.point_lattice(patch, q)
        lap = ev.laplacian(lat, lat.column("stencil", "phi"))[0][0]

        def frame_derivatives(p):
            # (e1(phi), e2(phi)) at p, from the stencil of p's own lattice
            at = srf.point_lattice(patch, p)
            dphi = srf._gradient(at, "phi")[0]
            return [float(at.centre(name)[0] @ dphi)
                    for name in ("e1_coeff", "e2_coeff")]

        # a stencil over stencils: the independent assembly of the test
        samples = np.array([[frame_derivatives(p) for p in
                             lat.column("stencil", "params")[0].tolist()]])
        grads = srf._derivatives(lat, samples)[1][0]
        e1e1 = float(d.e1_coeff @ grads[:, 0])
        e2e2 = float(d.e2_coeff @ grads[:, 1])
        e1_phi, e2_phi = frame_derivatives(q)
        w = ev.weingarten(*q)
        cot = d.cos_phi / d.sin_phi
        grad_sq = e1_phi ** 2 + e2_phi ** 2
        assembled = (e1e1 + e2e2
                     - cot * (grad_sq - (2.0 * d.r * e2_phi
                                         + w.mean_h * e1_phi)))
        assert lap == pytest.approx(assembled, abs=1e-3)


    def test_coordinate_functions_give_mean_curvature_vector(self):
        # in flat R^3 the Laplacian of the immersion is H eta. Worst 2.2e-10
        # (rounding of the second differences); 8.5e-8 on the sine graph
        # with the nested flux stencil, whose inner level was not
        # extrapolated
        for height in ("0.2+0.5*x+0.3*y+0.4*x*y-0.3*x^2",
                       "0.3*x^2-0.2*y^2+0.1*x*y", "0.5*sin(x)*cos(y)"):
            patch = srf.SurfacePatch.graph(FLAT, height,
                                           geo.Rect(-0.5, 0.5, -0.5, 0.5))
            ev = patch.evaluator()
            for q in ((0.1, -0.2), (0.3, 0.25), (-0.35, 0.05)):
                d = ev.weingarten(*q)
                lat = srf.point_lattice(patch, q)
                points = lat.column("stencil", "point")
                for i in range(3):
                    lap = ev.laplacian(lat, points[..., i])[0][0]
                    assert lap == pytest.approx(d.mean_h * d.normal[i],
                                                abs=1e-9)


class TestNormalFlip:
    def test_pointwise_quantities_flip(self):
        patch = heis_graph()
        q = (0.12, -0.08)
        d = srf.analyze_point(patch, q)
        f = srf.analyze_point(patch.flipped(), q)
        assert f.cos_phi == pytest.approx(-d.cos_phi, abs=1e-12)
        assert f.mean_h == pytest.approx(-d.mean_h, abs=1e-10)
        np.testing.assert_allclose(f.shape_ortho, -d.shape_ortho, atol=1e-9)

    def test_residuals_invariant(self):
        patch = heis_graph()
        q = (0.12, -0.08)
        flipped = patch.flipped()
        assert srf.gauss_residual(patch, q) == pytest.approx(
            srf.gauss_residual(flipped, q), abs=1e-10)
        a = np.abs(srf.codazzi_residual(patch, q))
        b = np.abs(srf.codazzi_residual(flipped, q))
        np.testing.assert_allclose(a, b, atol=1e-10)
        c = srf.compatibility_residuals(patch, q)
        d = srf.compatibility_residuals(flipped, q)
        np.testing.assert_allclose(c, d, atol=1e-10)


class TestShapeNormIdentity:
    def test_matches_weingarten_norm(self):
        for patch, q in ((heis_graph(), (0.12, -0.08)),
                         (srf.SurfacePatch.graph(
                             geo.bcv(1.0, 1.0), "0.3*x+0.5*y",
                             geo.Rect(-0.5, 0.5, -0.5, 0.5)), (0.1, 0.1))):
            d = srf.analyze_point(patch, q)
            if math.sin(d.phi) < 0.1:
                continue
            alt = srf.shape_norm_from_angle(patch, q)
            assert d.norm_sq == pytest.approx(alt, abs=1e-4)


class TestSurfaceConnection:
    def test_induced_christoffels_reproduce_closed_form(self):
        # <D_{e2} e1, e2> should equal (H - e1(phi)) cot(phi)
        patch = heis_graph()
        q = (0.1, -0.05)
        ev = patch.evaluator()
        d = ev.data(*q)
        assert d.sin_phi >= 0.1

        # D_{e2} e1 from the gradient of e1's coefficients over q's stencil
        lat = srf.point_lattice(patch, q)
        de1 = srf._gradient(lat, "e1_coeff")[0]
        du, dv = (de1[i] + d.christoffels[:, i, :] @ d.e1_coeff
                  for i in range(2))
        nabla = (d.e2_coeff[0] * du + d.e2_coeff[1] * dv) @ d.tangents
        got = float(nabla @ d.e2)
        e1_phi = float(d.e1_coeff @ srf._gradient(lat, "phi")[0])
        mu = ev.weingarten(*q).mean_h - e1_phi
        expected = mu * d.cos_phi / d.sin_phi
        assert got == pytest.approx(expected, abs=1e-3)


class TestExactChristoffels:
    @staticmethod
    def reference(ev, u, v):
        # Christoffels from the first form differentiated across the grid
        h = srf.point_lattice(ev.patch, (u, v)).h
        dg = np.stack([nd.partial1(lambda q: ev.data(*q).first_form, (u, v),
                                   c, h) for c in range(2)])
        g_inv = np.linalg.inv(ev.data(u, v).first_form)
        sym = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
        return 0.5 * np.einsum("cd,abd->cab", g_inv, sym)

    @pytest.mark.parametrize("data", metric_families(),
                             ids=lambda data: data.description)
    def test_graphs_match_finite_difference_reference(self, data):
        patch = srf.SurfacePatch.graph(data, "0.2+0.5*x+0.3*y+0.4*x*y-0.3*x^2",
                                       geo.Rect(-0.5, 0.5, -0.5, 0.5))
        ev = patch.evaluator()
        for q in ((0.1, -0.2), (0.3, 0.25), (-0.35, 0.05)):
            # worst 2.5e-13 measured, with entries up to 1.5
            np.testing.assert_allclose(ev.data(*q).christoffels,
                                       self.reference(ev, *q),
                                       rtol=0, atol=1e-12)

    def test_bcv_cylinder_matches_finite_difference_reference(self):
        # a cylinder over a BCV circle, parametrized so that the first form
        # varies (an arclength one has Gamma = 0)
        ev = srf.SurfacePatch(parse("0.8*cos(u^2)", PV),
                              parse("0.8*sin(u^2)", PV),
                              parse("v+0.2*u*v", PV), geo.Rect(0.5, 1.5, 0, 1),
                              geo.bcv(1.0, 1.0)).evaluator()
        for q in ((0.8, 0.3), (1.2, 0.6)):
            np.testing.assert_allclose(ev.data(*q).christoffels,
                                       self.reference(ev, *q),
                                       rtol=0, atol=1e-12)


class TestCaches:
    def test_memo_computes_once_per_key(self):
        store, calls = {}, []

        def compute(u, v):
            calls.append((u, v))
            return u + v

        assert geo.memo(store, (1.0, 2.0), compute) == 3.0
        assert geo.memo(store, (1.0, 2.0), compute) == 3.0
        assert calls == [(1.0, 2.0)]

    def test_full_store_is_emptied(self, monkeypatch):
        monkeypatch.setattr(geo, "CACHE_LIMIT", 3)
        store = {}
        for key in range(3):
            geo.memo(store, (key,), lambda k: k)
        assert len(store) == 3
        geo.memo(store, (3,), lambda k: k)
        assert store == {(3,): 3}

    def test_a_full_store_of_point_lattices_stays_small(self):
        # a point lattice and the base jets of its batch, as traced: a
        # store of point lattices holds under 128 MB before it is emptied
        # (about 11 GB while the limit was 200,000 entries)
        data = geo.bcv(0.0, 0.5)
        patch = srf.SurfacePatch.graph(data, "0.2+0.5*x+0.3*y+0.4*x*y",
                                       geo.Rect(-0.5, 0.5, -0.5, 0.5))
        srf.gauss_residual(patch, (0.0, 0.0))  # checks the regularity grid
        qs = [(0.02 * i, 0.02 * j) for i in range(1, 6) for j in range(1, 5)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for q in qs:
                srf.gauss_residual(patch, q)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(patch._lattices) == len(data._jets) == 1 + len(qs)
        assert held / len(qs) * geo.CACHE_LIMIT < 128 << 20

    def test_metric_is_not_pinned(self):
        data = geo.bcv(1.0, 0.5)
        data.base_jets(0.1, 0.2)
        geo.bundle_curvature(data, (0.3, -0.4))
        ref = weakref.ref(data)
        del data
        gc.collect()
        assert ref() is None

    def test_dropped_patch_is_freed_without_the_collector(self):
        patch = heis_graph()
        srf.gauss_residual(patch, (0.1, -0.1))
        ref = weakref.ref(patch)
        gc.disable()
        try:
            del patch
            assert ref() is None
        finally:
            gc.enable()

    def test_weingarten_fills_the_point_record(self):
        ev = heis_graph().evaluator()
        d = ev.weingarten(0.1, -0.1)
        assert d is ev.data(0.1, -0.1)
        assert d is srf.analyze_point(ev.patch, (0.1, -0.1))

    def test_point_lattices_tell_minus_zero_apart(self):
        # keyed by the coordinates' bits, as base_jets is: the lattice of
        # (0.0, 0.25) does not serve (-0.0, 0.25)
        def patch():
            return srf.SurfacePatch(parse("u", PV), parse("v", PV),
                                    parse("0.3*u+0.2*v", PV),
                                    geo.Rect(-0.5, 0.5, -0.5, 0.5),
                                    geo.bcv(0.0, 0.5))

        fresh = srf.analyze_point(patch(), (-0.0, 0.25)).point
        assert repr(fresh) == "(-0.0, 0.25, 0.05)"
        used = patch()
        assert srf.analyze_point(used, (0.0, 0.25)).point == fresh
        assert repr(srf.analyze_point(used, (-0.0, 0.25)).point) \
            == repr(fresh)

    def test_stores_stay_within_limit(self, monkeypatch):
        def residuals():
            data = geo.bcv(0.0, 0.5)
            patch = srf.SurfacePatch.graph(data, "0.2+0.5*x+0.3*y+0.4*x*y",
                                           geo.Rect(-0.5, 0.5, -0.5, 0.5))
            out = (srf.gauss_residual(patch, (0.1, -0.1)),
                   srf.codazzi_residual(patch, (0.1, -0.1)).tolist())
            return out, (data._jets, patch._lattices)

        unlimited, _ = residuals()
        monkeypatch.setattr(geo, "CACHE_LIMIT", 8)
        limited, stores = residuals()
        for store in stores:
            assert 0 < len(store) <= 8
        assert limited == unlimited


class TestLazyAmbientData:
    def test_check_surface_reads_grad_r_once_per_point(self, monkeypatch,
                                                       capsys):
        calls = []
        original = geo.bundle_curvature

        def counted(data, p):
            calls.append(p)
            return original(data, p)

        monkeypatch.setattr(geo, "bundle_curvature", counted)
        code = main(["check-surface", "--bcv", "1", "1",
                     "--graph", "0.1*x+0.2*y+0.3*x^2-0.2*y^2",
                     "--patch-domain", "-0.45", "0.45", "-0.45", "0.45",
                     "--grid", "2", "2"])
        capsys.readouterr()
        assert code == 0
        assert 0 < len(calls) <= 4

    def test_values_equal_direct_geometry_calls(self):
        patch = heis_graph()
        K, ev = patch.ambient, patch.evaluator()
        u, v = 0.1, -0.1
        srf.analyze_point(patch, (u, v))
        stencil = (u + srf.point_lattice(patch, (u, v)).h, v)
        # nothing is computed on read: a record, a row of q's lattice or a
        # batch of one, carries every field
        for q in ((u, v), stencil):
            d = ev.data(*q)
            assert all(getattr(d, name) is not None
                       for name in d._fields if name not in srf._FRAMED)
            x, y, z = d.point
            r, grad_r = geo.bundle_curvature(K, (x, y))
            gamma = geo.connection(K, (x, y, z))
            assert d.lam == K.lam(x, y)
            assert d.r == r
            assert d.grad_r.tobytes() == grad_r.tobytes()
            assert d.gauss_base == geo.gauss_curvature(K, (x, y))
            assert d.gamma.tobytes() == gamma.tobytes()


# lam, a and b all vary, so every term of the closed form is exercised
VARIABLE_ALL = make_data("1+0.2*x^2+0.1*y", "0.3*sin(y)+0.2*x", "x^2-0.4*x*y",
                         rect=(-1, 1, -1, 1), desc="variable-lam-a-b")


class TestExactWeingarten:
    @pytest.mark.parametrize("data", [HEIS, geo.bcv(1.0, 1.0), VARIABLE_ALL],
                             ids=lambda data: data.description)
    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_finite_difference_oracle(self, data, flip):
        patch = srf.SurfacePatch.graph(
            data, "0.2+0.5*x+0.3*y+0.4*x*y-0.3*x^2",
            geo.Rect(-0.5, 0.5, -0.5, 0.5))
        if flip:
            patch = patch.flipped()
        for q in ((0.1, -0.2), (0.3, 0.25), (-0.35, 0.05)):
            d = srf.analyze_point(patch, q)
            assert d.sin_phi >= 0.25  # tilted: every frame term contributes
            np.testing.assert_allclose(d.shape_frame,
                                       srf.shape_frame_fd(patch, q),
                                       rtol=0, atol=1e-7)

    @pytest.mark.parametrize("c, mu, kappa", [(1.0, 1.0, 1.0),
                                              (0.0, 0.5, 2.0),
                                              (-1.0, 0.3, 1.2)])
    def test_cylinder_mean_curvature_is_minus_kappa(self, c, mu, kappa):
        circle = hopf.bcv_circle(c, kappa=kappa)
        patch = hopf.cylinder_patch(geo.bcv(c, mu), circle)
        for s in (0.3, 0.7):
            d = srf.analyze_point(patch, (s * circle.interval[1], 0.5))
            assert d.mean_h == pytest.approx(-kappa, abs=1e-12)

    def test_needs_no_stencil_margin(self):
        # the exact map reads one record; only the oracle needs a stencil
        patch = heis_graph()
        q = (0.5 - 0.5 * srf.point_lattice(patch, (0.0, 0.0)).h, 0.0)
        assert srf.analyze_point(patch, q).mean_h is not None
        with pytest.raises(FdMarginError):
            srf.shape_frame_fd(patch, q)


class TestPointRecords:
    @pytest.mark.parametrize("argv, lattice, shared", [
        # 2,137 records while the normal was differentiated numerically,
        # 401 while the first form was, 393 while the lattice took its
        # centre from the regularity grid
        (["--bcv", "0", "0.5", "--graph", "x*y", "--grid", "3", "3"], 369,
         1),
        # 1,173 and 257 records in the first two stages
        (["--bcv", "1", "1", "--surface", "0.8*cos(u);0.8*sin(u);v",
          "--patch-domain", "0", "3", "0", "1", "--grid", "2", "2"], 164,
         0),
    ])
    def test_check_surface_record_count(self, argv, lattice, shared,
                                        monkeypatch, capsys):
        # parameter points the builder builds: the regularity grid's 25
        # ahead of every lattice row in the first batch, each once within
        # its part; the only repeat is a grid point that the lattice also
        # needs. No record is made of them, as the checks read columns
        batches, records = [], []
        build, record = srf._build, srf._record

        def counted_build(patch, us, vs):
            batches.append(list(zip(us.tolist(), vs.tolist())))
            return build(patch, us, vs)

        def counted_record(fields, n):
            records.append(n)
            return record(fields, n)

        monkeypatch.setattr(srf, "_build", counted_build)
        monkeypatch.setattr(srf, "_record", counted_record)
        code = main(["check-surface", *argv])
        capsys.readouterr()
        assert code == 0
        keys = [key for batch in batches for key in batch]
        grid, rows = batches[0][:25], keys[25:]
        assert len(grid) == len(set(grid)) == 25
        assert len(rows) == len(set(rows)) == lattice
        assert len(set(grid) & set(rows)) == shared
        assert records == []

    def test_every_field_has_a_reader(self):
        # a record field is read as a lattice column (.centre or .column
        # with its name) or as a record attribute somewhere in the package
        # or its tests; a field nothing reads is stored for every row for
        # nothing
        read = set()
        files = [*Path(ksub.__file__).parent.glob("*.py"),
                 *Path(__file__).parent.glob("*.py")]
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in ("centre", "column"):
                    read.update(arg.value for arg in node.args
                                if isinstance(arg, ast.Constant))
        assert [name for name in srf._PointData._fields
                if name not in read] == []

    @pytest.mark.parametrize("argv", [
        # 24 and 40 while every point operation rebuilt its lattice's keys
        ["--bcv", "0", "0.5", "--graph", "x*y", "--grid", "2", "2"],
        ["--bcv", "1", "1", "--surface", "0.8*cos(u);0.8*sin(u);v",
         "--patch-domain", "0", "3", "0", "1", "--grid", "2", "2"],
    ])
    def test_each_points_lattice_is_listed_once(self, argv, monkeypatch,
                                                capsys):
        # check-surface lists the lattices of its 4 points in one call;
        # the point operations after it find their points tried
        calls = []
        original = srf._abscissae

        def counted(p, h):
            calls.append(p)
            return original(p, h)

        monkeypatch.setattr(srf, "_abscissae", counted)
        code = main(["check-surface", *argv])
        capsys.readouterr()
        assert code == 0
        assert len(calls) == 4

    @pytest.mark.parametrize("argv, passes", [
        # 12 stencils per 4 points (20 while the bitension and angle-shape
        # residuals took a second gradient and the compatibility check one
        # per frame vector); not CMC, so no Laplacian
        pytest.param(["--bcv", "0", "0.5", "--graph", "x*y+0.9*x"], 4,
                     id="argv0"),
        # 12 per 4 points (24 in the same stage); branch a, and the
        # Laplacian of H
        pytest.param(["--bcv", "1", "1", "--surface",
                      "0.8*cos(u);0.8*sin(u);v", "--patch-domain", "0.5",
                      "2", "0", "1"], 5, id="argv1"),
    ])
    def test_each_field_differentiated_once_per_point(self, argv, passes,
                                                      monkeypatch, capsys):
        # per lattice, whatever its number of points: the first form
        # (Brioschi), the shape operator (Codazzi), the vertical tangent
        # and cos(phi) (compatibility) and, on a CMC surface, H (the
        # bitension Laplacian, which hands back its gradient)
        calls = []
        original = srf._quotients

        def counted(samples, h):
            calls.append(len(samples))
            return original(samples, h)

        monkeypatch.setattr(srf, "_quotients", counted)
        for grid in ("1", "2"):
            calls.clear()
            code = main(["check-surface", *argv, "--grid", grid, grid])
            capsys.readouterr()
            assert code == 0
            assert calls == [17] * passes


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


class TestBatchedLattice:
    # a tilted graph and a vertical cylinder, each in three ambients
    @staticmethod
    def patches(data):
        yield srf.SurfacePatch.graph(
            data, "0.1+1.1*x+0.2*y+0.1*x*y-0.2*x^2+0.1*y^2",
            geo.Rect(-0.45, 0.45, -0.45, 0.45))
        yield srf.SurfacePatch(parse("0.8*cos(u)", PV),
                               parse("0.8*sin(u)", PV), parse("v", PV),
                               geo.Rect(0.3, 1.8, 0.0, 1.0), data)

    @pytest.mark.parametrize("data", [FLAT, HEIS, geo.bcv(1.0, 1.0)],
                             ids=lambda data: data.description)
    @pytest.mark.parametrize("flip", [False, True])
    def test_lattice_records_equal_batches_of_one(self, data, flip):
        for patch in self.patches(data):
            if flip:
                patch = patch.flipped()
            qs = patch.domain.grid(2, 2, inset=0.25)
            lat = srf._Lattice(patch, qs)
            # 4 points x (the point, 16 stencil points, 24 probe points)
            assert len(lat._index) == 4 * 41
            assert len(srf._PointData._fields) == 26
            for key, row in lat._index.items():
                batched = srf._record(lat._fields, row)
                single = srf._record(srf._build(
                    patch, np.array([key[0]]), np.array([key[1]])), 0)
                for name in srf._PointData._fields:
                    got, want = getattr(batched, name), getattr(single, name)
                    assert type(got) is type(want), name
                    if want is not None:
                        got, want = (np.asarray(value, dtype=float).tobytes()
                                     for value in (got, want))
                        assert got == want, name

    @pytest.mark.parametrize("data", [FLAT, HEIS, geo.bcv(1.0, 1.0)],
                             ids=lambda data: data.description)
    @pytest.mark.parametrize("flip", [False, True])
    def test_columns_equal_the_point_functions(self, data, flip):
        # every check-surface residual, computed for 4 points at once,
        # equals its one-point module function to the bit
        for patch in self.patches(data):
            if flip:
                patch = patch.flipped()
            qs = patch.domain.grid(2, 2, inset=0.25)
            lat = srf._Lattice(patch, qs)
            columns = {
                "gauss": srf._gauss(lat),
                "codazzi": srf._codazzi(lat),
                "compatibility": srf._compatibility(lat),
            }
            # the biharmonicity residuals at the CMC points, as check-surface
            # computes them; the others raise at a single point
            cmc = ~(bih._cmc(lat)[1] > bih.CMC_TOL)
            bitension = lat.over(cmc, bih._bitension)
            branches = lat.over(cmc, bih._classify)
            lines = lat.over(cmc, lambda sub: bih._frame_system(sub).T)
            for n, q in enumerate(qs):
                points = {
                    "gauss": srf.gauss_residual(patch, q),
                    "codazzi": srf.codazzi_residual(patch, q),
                    "compatibility": srf.compatibility_residuals(patch, q),
                }
                for name, value in points.items():
                    assert hexes(columns[name][n]) == hexes(value), name
                if not cmc[n]:
                    for function in (bih.bitension_residual,
                                     bih.frame_system_residuals,
                                     bih.classify_point):
                        with pytest.raises(NotCMCError):
                            function(patch, q)
                    continue
                assert hexes(lines[n]) == hexes(
                    bih.frame_system_residuals(patch, q))
                one = bih.bitension_residual(patch, q)
                assert hexes([bitension[n].normal, bitension[n].mean_h,
                              *bitension[n].tangential]) \
                    == hexes([one.normal, one.mean_h, *one.tangential])
                branch = bih.classify_point(patch, q)
                assert (branches[n].branch, branches[n].satisfied) \
                    == (branch.branch, branch.satisfied)
                assert repr(branches[n].diagnostics) \
                    == repr(branch.diagnostics)

    # a cylinder of radius 0.8 whose ruling at u = pi/2 lies just beyond the
    # domain's top edge: the probe column 4 h from the checked point leaves
    # the domain, the point, its stencil and the regularity grid do not
    ARGV = ["check-surface", "--lambda", "1", "--a=-0.5*y", "--b=0.5*x",
            "--domain", "-2", "2", "-2", "0.7999984",
            "--surface=0.8*cos(u);0.8*sin(u);v",
            "--patch-domain", "1.315139", "2.315139", "0", "1",
            "--grid", "1", "1"]
    ERROR = ("point (3.780363233608751e-07, 0.7999999999999107) outside "
             "domain of custom")

    @staticmethod
    def failing_patch():
        data = make_data("1", "-0.5*y", "0.5*x", rect=(-2, 2, -2, 0.7999984),
                         desc="custom")
        patch = srf.SurfacePatch(parse("0.8*cos(u)", PV),
                                 parse("0.8*sin(u)", PV), parse("v", PV),
                                 geo.Rect(1.315139, 2.315139, 0.0, 1.0), data)
        return patch, patch.domain.grid(1, 1, inset=0.25)[0]

    def test_failing_lattice_keeps_the_one_point_rows_and_error(self, capsys):
        patch, q = self.failing_patch()
        # the lattice's batch fails: it keeps no row until one is read
        assert srf.point_lattice(patch, q)._index == {}
        # the rows before the probe, as computed one record at a time
        assert srf.gauss_residual(patch, q).hex() == "0x1.0000000000000p-54"
        assert ([c.hex() for c in srf.codazzi_residual(patch, q).tolist()]
                == ["0x1.792014d2fd57ep-48", "0x1.d7681a07bcaddp-47"])
        assert ([c.hex() for c in srf.compatibility_residuals(patch, q)]
                == ["0x1.118e18f76919bp-42", "0x1.308d3dcb08d3ep-54"])
        with pytest.raises(OutsideDomainError) as err:
            bih.bitension_residual(patch, q)
        assert str(err.value) == self.ERROR
        assert main(self.ARGV) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {self.ERROR}\n"

    def test_failed_lattice_reads_the_one_point_record(self):
        # a record read where the lattice's batch failed is the point's
        # batch of one, field by field
        patch, q = self.failing_patch()
        assert srf.point_lattice(patch, q)._index == {}
        got = srf.analyze_point(patch, q)
        want = srf._record(srf._build(patch, np.array([q[0]]),
                                      np.array([q[1]])), 0)
        for name in srf._PointData._fields:
            assert hexes(getattr(got, name)) == hexes(getattr(want, name)), \
                name
        # the other record readers run on it too
        assert math.isfinite(bih.normality_identity(patch, q))
        assert all(map(math.isfinite, bih.normality_assemblies(patch, q)))

    def test_failed_lattice_is_not_rebuilt(self, monkeypatch, capsys):
        # the failing lattice is tried once as a batch; then each group the
        # checks read is built as one batch, and kept, so no row is built
        # twice
        sizes = []
        build = srf._build

        def counted(patch, us, vs):
            sizes.append(len(us))
            return build(patch, us, vs)

        monkeypatch.setattr(srf, "_build", counted)
        assert main(self.ARGV) == 2
        capsys.readouterr()
        # the regularity grid with the checked point's lattice, tried once;
        # as that batch fails, the grid alone; then the centre, the stencil
        # (16 rows more) and the probes (24 more), whose batch is bisected
        # to the row that raises the error
        assert sizes == [66, 25, 1, 16, 24, 12, 6, 3, 1, 1, 1]

    def test_error_is_the_first_failing_row_in_read_order(self, capsys):
        # a probe of the first point and the centre of a later point leave
        # the domain's top edge; every centre is read before any probe, so
        # the error is the centre's (while each point had a lattice of its
        # own, the first point's probe raised first, at
        # (0.25565685424949236, 0.8))
        code = main(["check-surface", "--lambda", "1",
                     "--domain", "-2", "2", "-2", "0.7999984",
                     "--surface=u;0.8*cos(12.710169770110815"
                     "*(u-0.25565685424949236));v",
                     "--patch-domain", "0", "1", "0", "1", "--grid", "2", "2"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: point (0.75, 0.8) outside domain of custom\n"

    def test_rows_a_sub_lattice_builds_are_its_parents(self, monkeypatch):
        # a lattice whose batch failed shares one row store with the
        # sub-lattices it takes: a row one of them builds is not built again
        patch, _ = self.failing_patch()
        lat = srf._Lattice(patch, patch.domain.grid(2, 2, inset=0.25))
        assert lat._index == {}
        sizes = []
        build = srf._build

        def counted(patch, us, vs):
            sizes.append(len(us))
            return build(patch, us, vs)

        monkeypatch.setattr(srf, "_build", counted)
        sub = lat.take(np.array([True, False, False, True]))
        stencil = sub.column("stencil", "phi")
        assert sizes == [34]
        assert list(lat._index) == [key for keys in sub._keys["stencil"]
                                    for key in keys]
        # the parent reads the sub-lattice's rows and builds only the rest
        assert hexes(lat.column("stencil", "phi")[[0, 3]]) == hexes(stencil)
        lat.centre("phi")
        assert sizes == [34, 34]
        assert len(lat._index) == 4 * 17
        assert [lat._fields["params"][row].tolist()
                for row in lat._index.values()] == [list(k) for k in lat._index]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_diameter_that_overflows_is_the_domain_error_not_a_warning():
    # finite sides whose diagonal overflows, outside the CLI's np.errstate
    data = geo.KillingData(parse("1", ("x", "y")), parse("0", ("x", "y")),
                           parse("0", ("x", "y")),
                           geo.Rect(-8.9e307, 8.9e307, -8.9e307, 8.9e307))
    domain = geo.Rect(-8e307, 8e307, -8e307, 8e307)
    with pytest.raises(KsubError, match="^patch domain .* has diameter inf$"):
        srf.SurfacePatch.graph(data, "x", domain)


class TestRegularityGrid:
    @staticmethod
    def counted(monkeypatch) -> list:
        batches = []
        build = srf._build

        def counted_build(patch, us, vs):
            batches.append(list(zip(us.tolist(), vs.tolist())))
            return build(patch, us, vs)

        monkeypatch.setattr(srf, "_build", counted_build)
        return batches

    def test_rides_the_first_lattice_batch_and_keeps_no_row(self,
                                                            monkeypatch):
        # a graph whose grid shares a point with the checked points'
        # lattice: the batch holds it twice, the lattice keeps one row, its
        # own
        patch = srf.SurfacePatch.graph(HEIS, "x*y",
                                       geo.Rect(-0.45, 0.45, -0.45, 0.45))
        batches = self.counted(monkeypatch)
        lat = srf._Lattice(patch, patch.domain.grid(3, 3, inset=0.25))
        keys = list(dict.fromkeys(key for group in lat._keys.values()
                                  for keys in group for key in keys))
        grid = patch.domain.grid(5, 5, inset=0.02)
        assert batches == [grid + keys]
        assert list(lat._index) == keys
        assert lat._fields["params"].tolist() == [list(k) for k in keys]

    def test_flipped_twin_of_a_checked_patch_checks_no_grid(self,
                                                            monkeypatch):
        patch, q = heis_graph(), (0.1, 0.2)
        srf.analyze_point(patch, q)
        batches = self.counted(monkeypatch)
        srf.analyze_point(patch.flipped(), q)
        assert [len(batch) for batch in batches] \
            == [len(srf.point_lattice(patch, q)._index)]

    def test_a_twins_check_holds_for_its_patch(self, monkeypatch):
        # twins made before either is read, as harmonic-sanity makes them
        patch, q = heis_graph(), (0.1, 0.2)
        twin = patch.flipped()
        batches = self.counted(monkeypatch)
        srf.analyze_point(twin, q)
        srf.analyze_point(patch, q)
        rows = len(srf.point_lattice(patch, q)._index)
        assert [len(batch) for batch in batches] == [25 + rows, rows]

    @staticmethod
    def built(monkeypatch) -> list:
        """The field batches ``_build`` returns, as it returns them."""
        batches = []
        build = srf._build

        def recorded_build(patch, us, vs):
            batches.append(build(patch, us, vs))
            return batches[-1]

        monkeypatch.setattr(srf, "_build", recorded_build)
        return batches

    def test_a_lone_batch_is_kept_as_built(self, monkeypatch):
        # once the grid is checked, a lattice's one batch has no row to
        # drop, so its fields are the built arrays, not copies
        patch, q = heis_graph(), (0.1, 0.2)
        srf.analyze_point(patch, q)
        batches = self.built(monkeypatch)
        lat = srf.point_lattice(patch, (0.2, 0.1))
        [fields] = batches
        assert all(lat._fields[name] is field
                   for name, field in fields.items())

    def test_the_grid_rows_are_dropped_from_the_first_batch(self,
                                                             monkeypatch):
        # the first batch keeps its lattice rows in arrays of their own, so
        # the grid's 25 rows are not held through a view of the batch
        patch = heis_graph()
        batches = self.built(monkeypatch)
        lat = srf.point_lattice(patch, (0.1, 0.2))
        [fields] = batches
        for name, field in fields.items():
            kept = lat._fields[name]
            assert kept.base is None and len(kept) == len(lat._index)
            assert kept.tobytes() == field[25:].tobytes()
