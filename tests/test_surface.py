import gc
import math
import weakref

import numpy as np
import pytest

from ksub import geometry as geo
from ksub import hopf
from ksub import numdiff as nd
from ksub import surface as srf
from ksub.cli import main
from ksub.errors import (
    AngleSingularError,
    DegenerateImmersionError,
    FdMarginError,
)
from ksub.expr import parse
from ksub.verify import metric_families

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
        d = srf.analyze_point(horizontal_slice(), (0.0, 0.0))
        assert d.phi == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(d.shape_ortho, np.zeros((2, 2)), atol=1e-12)
        assert d.e1 is None
        with pytest.raises(AngleSingularError):
            srf.adapted_frame(d)

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
        with pytest.raises(DegenerateImmersionError):
            srf.SurfacePatch(parse("u", PV), parse("u", PV), parse("0", PV),
                             geo.Rect(-1, 1, -1, 1), FLAT)


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
            e1, e2 = srf.adapted_frame(d)
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
            img = ev.shape_apply_coeff(q[0], q[1],
                                       ev.tangent_coefficients(dd, a))
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
        assert srf.induced_gauss_curvature(patch, q) == pytest.approx(
            0.0, abs=1e-8)

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
        assert srf.induced_gauss_curvature(patch, (0.8, 0.6)) == pytest.approx(
            1.0 / rho**2, abs=1e-7)


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


class TestSurfaceLaplacian:
    def test_constant_field(self):
        assert srf.surface_laplacian(vertical_plane(), lambda u, v: 3.5,
                                     (0.1, 0.2)) == pytest.approx(0.0, abs=1e-10)

    def test_euclidean_quadratic(self):
        assert srf.surface_laplacian(vertical_plane(), lambda u, v: u * u,
                                     (0.1, 0.2)) == pytest.approx(2.0, abs=1e-9)

    def test_margin_guard(self):
        with pytest.raises(FdMarginError):
            srf.surface_laplacian(vertical_plane(), lambda u, v: u,
                                  (0.9999, 0.0))

    def test_margin_is_the_stencil_reach(self):
        # every numdiff stencil reaches h: a point 1.5 h from the edge
        # computes, one 0.5 h from it is refused before a sample leaves
        # the patch
        patch = heis_graph()
        ev = patch.evaluator()
        near, too_near = (0.5 - 1.5 * ev.h, 0.0), (0.5 - 0.5 * ev.h, 0.0)
        for op in (lambda q: ev.laplacian(ev.mean_h_field, *q),
                   lambda q: ev.brioschi_curvature(*q),
                   lambda q: ev.dfield(ev.phi_field, *q),
                   lambda q: srf.codazzi_residual(patch, q),
                   lambda q: srf.shape_frame_fd(patch, q)):
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
        lap = ev.laplacian(ev.phi_field, *q)

        def e1_phi(u, v):
            return ev.adapted_directional(ev.phi_field, 0, u, v)

        def e2_phi(u, v):
            return ev.adapted_directional(ev.phi_field, 1, u, v)

        e1e1 = ev.adapted_directional(e1_phi, 0, *q)
        e2e2 = ev.adapted_directional(e2_phi, 1, *q)
        w = ev.weingarten(*q)
        cot = d.cos_phi / d.sin_phi
        grad_sq = e1_phi(*q) ** 2 + e2_phi(*q) ** 2
        assembled = (e1e1 + e2e2
                     - cot * (grad_sq - (2.0 * d.r * e2_phi(*q)
                                         + w.mean_h * e1_phi(*q))))
        assert lap == pytest.approx(assembled, abs=1e-3)


    def test_coordinate_functions_give_mean_curvature_vector(self):
        # in flat R^3 the Laplacian of the immersion is H eta. Worst 2.2e-10
        # (rounding of the second differences); 8.5e-8 on the sine graph
        # with the nested flux stencil, whose inner level was not
        # extrapolated
        for height in ("0.2+0.5*x+0.3*y+0.4*x*y-0.3*x^2",
                       "0.3*x^2-0.2*y^2+0.1*x*y", "0.5*sin(x)*cos(y)"):
            ev = srf.SurfacePatch.graph(FLAT, height,
                                        geo.Rect(-0.5, 0.5, -0.5, 0.5)
                                        ).evaluator()
            for q in ((0.1, -0.2), (0.3, 0.25), (-0.35, 0.05)):
                d = ev.weingarten(*q)
                for i in range(3):
                    lap = ev.laplacian(lambda u, v: ev.data(u, v).point[i],
                                       *q)
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

        def e1_coeff(u, v):
            return ev.adapted_coeffs(u, v)[0]

        c2 = ev.adapted_coeffs(*q)[1]
        nabla = ev.covariant_coeff(e1_coeff, c2, *q) @ d.tangents
        e2_vec = ev.adapted(*q)[1]
        got = float(nabla @ e2_vec)
        e1_phi = ev.adapted_directional(ev.phi_field, 0, *q)
        mu = ev.weingarten(*q).mean_h - e1_phi
        expected = mu * d.cos_phi / d.sin_phi
        assert got == pytest.approx(expected, abs=1e-3)


class TestExactChristoffels:
    @staticmethod
    def reference(ev, u, v):
        # Christoffels from the first form differentiated across the grid
        dg = np.stack([nd.partial1(lambda q: ev.data(*q).first_form, (u, v),
                                   c, ev.h) for c in range(2)])
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

    def test_stores_stay_within_limit(self, monkeypatch):
        def residuals():
            data = geo.bcv(0.0, 0.5)
            patch = srf.SurfacePatch.graph(data, "0.2+0.5*x+0.3*y+0.4*x*y",
                                           geo.Rect(-0.5, 0.5, -0.5, 0.5))
            ev = patch.evaluator()
            out = (srf.gauss_residual(patch, (0.1, -0.1)),
                   srf.codazzi_residual(patch, (0.1, -0.1)).tolist())
            return out, (data._jets, ev._data)

        unlimited, _ = residuals()
        monkeypatch.setattr(geo, "CACHE_LIMIT", 8)
        limited, stores = residuals()
        for store in stores:
            assert 0 < len(store) <= 8
        assert limited == unlimited


class TestLazyAmbientData:
    AMBIENT = ("lam", "r", "grad_r", "gauss_base", "gamma")

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
        ev.weingarten(u, v)
        stencil = (u + ev.h, v)
        ev.data(*stencil)
        # the Weingarten map reads the connection at its centre only
        for q, read in (((u, v), {"gamma"}), (stencil, set())):
            d = ev.data(*q)
            assert set(self.AMBIENT) & set(vars(d)) == read
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
            geo.Rect(-0.5, 0.5, -0.5, 0.5), flip_normal=flip)
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
        q = (0.5 - 0.5 * patch.evaluator().h, 0.0)
        assert srf.analyze_point(patch, q).mean_h is not None
        with pytest.raises(FdMarginError):
            srf.shape_frame_fd(patch, q)


class TestPointRecords:
    @pytest.mark.parametrize("argv, limit", [
        # 2,137 records while the normal was differentiated numerically,
        # 401 while the first form was
        (["--bcv", "0", "0.5", "--graph", "x*y", "--grid", "3", "3"], 393),
        # 1,173 and 257 records in the same two stages
        (["--bcv", "1", "1", "--surface", "0.8*cos(u);0.8*sin(u);v",
          "--patch-domain", "0", "3", "0", "1", "--grid", "2", "2"], 189),
    ])
    def test_check_surface_record_count(self, argv, limit, monkeypatch,
                                        capsys):
        calls = []
        original = srf.SurfaceEvaluator._compute_data

        def counted(self, u, v):
            calls.append((u, v))
            return original(self, u, v)

        monkeypatch.setattr(srf.SurfaceEvaluator, "_compute_data", counted)
        code = main(["check-surface", *argv])
        capsys.readouterr()
        assert code == 0
        assert 0 < len(calls) <= limit
