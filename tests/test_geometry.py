import math

import numpy as np
import pytest

from ksub import geometry as geo
from ksub import numdiff
from ksub.errors import FdMarginError, OutsideDomainError
from ksub.expr import parse


def make_data(lam, a, b, rect=(-2, 2, -2, 2), desc="test"):
    return geo.KillingData(parse(lam, ("x", "y")), parse(a, ("x", "y")),
                           parse(b, ("x", "y")), geo.Rect(*rect), desc)


FLAT = make_data("1", "0", "0", desc="flat")
HEIS = geo.bcv(0.0, 0.5)
GAUSSIAN = make_data("exp(-(x^2+y^2)/4)", "0", "x", rect=(-1.5, 1.5, -1.5, 1.5),
                     desc="gaussian")
FAMILIES = [FLAT, HEIS, geo.bcv(1.0, 1.0), geo.bcv(-1.0, 0.3), GAUSSIAN]

# the five families of verify.metric_families plus a trig and a gaussian
# metric shaped like the custom metrics of the metric-grid benchmark
GRADIENT_METRICS = FAMILIES + [
    make_data("1+0.3*sin(x)*cos(y)", "0.4*sin(1.2*y)", "-0.5*cos(0.7*x)",
              rect=(-1.5, 1.5, -1.5, 1.5), desc="trig"),
    make_data("exp(-(x^2+y^2)/4.5)", "0.3*y-0.2*x*y", "-0.4*x+0.3*x^2",
              rect=(-1.5, 1.5, -1.5, 1.5), desc="gaussian-poly"),
]

BASIS = np.eye(3)


class TestBundleCurvature:
    @pytest.mark.parametrize("c,mu", [(1.0, 1.0), (0.0, 0.5), (-1.0, 0.3)])
    def test_bcv_constant(self, c, mu):
        data = geo.bcv(c, mu)
        for p in data.domain.grid(5, 5):
            r, grad = geo.bundle_curvature(data, p)
            assert r == pytest.approx(mu, abs=1e-12)
            np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_integrable_horizontal_distribution(self):
        data = make_data("1+x^2/10", "0", "0")
        for p in ((0.1, 0.3), (-0.5, 0.9)):
            r, _ = geo.bundle_curvature(data, p)
            assert r == pytest.approx(0.0, abs=1e-14)

    def test_linear_b(self):
        data = make_data("1", "0", "x")
        r, grad = geo.bundle_curvature(data, (0.3, 0.7))
        assert r == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-10)

    def test_gradient_matches_quadratic_b(self):
        # b = x^2 gives 2r = (x^2)_x = 2x, so r = x and grad r = (1, 0)
        data = make_data("1", "0", "x^2")
        r, grad = geo.bundle_curvature(data, (0.4, -0.2))
        assert r == pytest.approx(0.4, abs=1e-13)
        np.testing.assert_allclose(grad, [1.0, 0.0], atol=1e-9)

    def test_outside_domain(self):
        with pytest.raises(OutsideDomainError):
            geo.bundle_curvature(FLAT, (5.0, 0.0))

    @pytest.mark.parametrize(
        "data", GRADIENT_METRICS, ids=lambda d: d.description)
    def test_exact_gradient_matches_fd_of_r(self, data):
        # reference: Richardson difference of the closed-form r, step 1e-4
        # capped at a quarter of the distance to the edge (measured 9.3e-12)
        def r_at(q):
            return geo._bundle_value(data, q[0], q[1])

        worst = 0.0
        for x, y in data.domain.grid(12, 12, inset=1e-3):
            _, grad = geo.bundle_curvature(data, (x, y))
            margin = data.domain.margin_at(x, y)
            for i, coord in enumerate((x, y)):
                h = min(1e-4 * max(1.0, abs(coord)), 0.25 * margin)
                ref = numdiff.partial1(r_at, (x, y), i, h)
                worst = max(worst, abs(grad[i] - ref))
        assert worst < 1e-9

    def test_exact_gradient_at_the_domain_edge(self):
        # b = x^2: r = x, so grad r = (1, 0) exactly, however close the
        # point is to the edge
        data = make_data("1", "0", "x^2")
        r, grad = geo.bundle_curvature(data, (1.9999999, 0.3))
        assert r == pytest.approx(1.9999999, abs=1e-12)
        np.testing.assert_allclose(grad, [1.0, 0.0], rtol=0, atol=1e-12)


class TestBatchedScalars:
    @pytest.mark.parametrize("data", GRADIENT_METRICS,
                             ids=lambda d: d.description)
    def test_batch_equals_its_points_bit_for_bit(self, data):
        points = data.domain.grid(12, 12, inset=1e-3)
        xs, ys = map(np.array, zip(*points))
        r, grad = geo.bundle_curvature(data, (xs, ys))
        g = geo.gauss_curvature(data, (xs, ys))
        assert r.shape == g.shape == (144,) and grad.shape == (2, 144)
        for i, p in enumerate(points):
            r1, grad1 = geo.bundle_curvature(data, p)
            assert r[i] == r1
            assert (grad[:, i] == grad1).all()
            assert g[i] == geo.gauss_curvature(data, p)

    def test_batch_outside_the_domain_names_its_first_such_point(self):
        xs, ys = np.array([0.0, 2.5, 3.5]), np.array([0.0, 0.0, 0.0])
        with pytest.raises(OutsideDomainError, match=r"point \(2\.5, 0\.0\)"):
            geo.bundle_curvature(FLAT, (xs, ys))

    def test_positivity_is_checked_in_grid_order(self):
        # lam <= 0 at the first grid point, a log domain error only later:
        # the positivity error of the first point is the one raised
        with pytest.raises(ValueError, match=r"lam\(-1\.92, -1\.92\) <= 0"):
            make_data("-1+0*log(1.9-x)", "0", "0")


class TestGaussCurvature:
    @pytest.mark.parametrize("c", [1.0, 0.0, -1.0, 4.0])
    def test_bcv_constant(self, c):
        data = geo.bcv(c, 0.3)
        for p in data.domain.grid(4, 4):
            assert geo.gauss_curvature(data, p) == pytest.approx(c, abs=1e-12)

    def test_flat(self):
        assert geo.gauss_curvature(FLAT, (0.3, 0.4)) == 0.0

    def test_gaussian_profile(self):
        # log lam = -(x^2+y^2)/4 has flat-Laplacian -1, so G = 1/lam^2
        for p in ((0.0, 0.0), (0.5, -0.3), (1.0, 1.0)):
            expected = math.exp((p[0] ** 2 + p[1] ** 2) / 2.0)
            assert geo.gauss_curvature(GAUSSIAN, p) == pytest.approx(
                expected, rel=1e-12)

    def test_gaussian_vs_fd_laplacian(self):
        lam = GAUSSIAN.lam
        h = 1e-4
        for p in ((0.2, 0.1), (-0.4, 0.6)):
            def log_lam(x, y):
                return math.log(lam(x, y))
            lap = ((log_lam(p[0] + h, p[1]) - 2 * log_lam(*p)
                    + log_lam(p[0] - h, p[1])) / h**2
                   + (log_lam(p[0], p[1] + h) - 2 * log_lam(*p)
                      + log_lam(p[0], p[1] - h)) / h**2)
            expected = -lap / lam(*p) ** 2
            assert geo.gauss_curvature(GAUSSIAN, p) == pytest.approx(
                expected, abs=1e-6)


class TestFrame:
    def test_flat_frame_is_coordinate_basis(self):
        fp = geo.frame(FLAT, (0.3, 0.4, 1.0))
        np.testing.assert_allclose(fp.vectors, np.eye(3), atol=1e-15)

    def test_heisenberg_origin(self):
        fp = geo.frame(HEIS, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(fp.vectors, np.eye(3), atol=1e-15)

    def test_shifted_first_leg(self):
        data = make_data("2", "1", "0")
        fp = geo.frame(data, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(fp.vectors[0], [0.5, 0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("data", FAMILIES)
    def test_gram_matrix_identity(self, data):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, y = data.domain.random_point(rng)
            fp = geo.frame(data, (x, y, float(rng.uniform(-1, 1))))
            g = geo.metric_matrix(data, (x, y))
            gram = fp.vectors @ g @ fp.vectors.T
            np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_component_conversions_roundtrip(self):
        rng = np.random.default_rng(4)
        data = geo.bcv(1.0, 1.0)
        for _ in range(10):
            p = data.domain.random_point(rng)
            v = rng.standard_normal(3)
            back = geo.coord_components(data, p, geo.frame_components(data, p, v))
            np.testing.assert_allclose(back, v, atol=1e-12)


class TestConnection:
    def test_bcv_origin_values(self):
        gamma = geo.connection(geo.bcv(1.0, 1.0), (0.0, 0.0, 0.0))
        # horizontal covariant derivative produces only the vertical term r E3
        np.testing.assert_allclose(gamma[0, 1], [0.0, 0.0, 1.0], atol=1e-13)
        # the vertical field is parallel along itself
        np.testing.assert_allclose(gamma[2, 2], np.zeros(3), atol=1e-15)

    def test_flat_product_all_zero(self):
        gamma = geo.connection(FLAT, (0.3, -0.8, 2.0))
        np.testing.assert_allclose(gamma, np.zeros((3, 3, 3)), atol=1e-15)

    @pytest.mark.parametrize("data", FAMILIES)
    def test_metric_compatibility_closed_form(self, data):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x, y = data.domain.random_point(rng)
            gamma = geo.connection(data, (x, y, 0.0))
            np.testing.assert_allclose(gamma + gamma.transpose(0, 2, 1),
                                       np.zeros((3, 3, 3)), atol=1e-15)

    @pytest.mark.parametrize("data", FAMILIES)
    def test_oracle_agreement(self, data):
        rng = np.random.default_rng(6)
        for _ in range(4):
            x, y = data.domain.random_point(rng)
            p = (x, y, float(rng.uniform(-1, 1)))
            diff = np.abs(geo.connection(data, p) - geo.connection_oracle(data, p))
            assert np.max(diff) <= 1e-6

    def test_oracle_flat_zero(self):
        oracle = geo.connection_oracle(FLAT, (0.1, 0.2, 0.0))
        np.testing.assert_allclose(oracle, np.zeros((3, 3, 3)), atol=1e-8)

    def test_oracle_metric_compatibility(self):
        oracle = geo.connection_oracle(geo.bcv(1.0, 1.0), (0.1, 0.2, 0.0))
        np.testing.assert_allclose(oracle + oracle.transpose(0, 2, 1),
                                   np.zeros((3, 3, 3)), atol=1e-8)

    def test_oracle_margin_guard(self):
        with pytest.raises(FdMarginError):
            geo.connection_oracle(FLAT, (1.9999999, 0.0, 0.0))

    @pytest.mark.parametrize("data", [HEIS, geo.bcv(1.0, 1.0), GAUSSIAN])
    def test_torsion_free_vs_fd_bracket(self, data):
        rng = np.random.default_rng(7)
        for _ in range(3):
            x, y = data.domain.random_point(rng)
            p = (x, y, 0.0)
            gamma = geo.connection(data, p)
            for i in range(3):
                for j in range(3):
                    closed = gamma[i, j] - gamma[j, i]
                    fd = geo.frame_bracket_fd(data, p, i, j)
                    np.testing.assert_allclose(closed, fd, atol=1e-8)

    @pytest.mark.parametrize("data", FAMILIES)
    def test_vertical_bracket_component_is_twice_r(self, data):
        rng = np.random.default_rng(8)
        x, y = data.domain.random_point(rng)
        r, _ = geo.bundle_curvature(data, (x, y))
        bracket = geo.frame_bracket_fd(data, (x, y, 0.0), 0, 1)
        assert bracket[2] == pytest.approx(2.0 * r, abs=1e-8)

    @pytest.mark.parametrize("data", FAMILIES)
    def test_closed_bracket_matches_connection_antisymmetrization(self, data):
        rng = np.random.default_rng(80)
        x, y = data.domain.random_point(rng)
        gamma = geo.connection(data, (x, y, 0.0))
        np.testing.assert_allclose(geo.frame_bracket_12(data, (x, y)),
                                   gamma[0, 1] - gamma[1, 0], atol=1e-14)

    @pytest.mark.parametrize("data", FAMILIES)
    def test_killing_identity(self, data):
        rng = np.random.default_rng(9)
        x, y = data.domain.random_point(rng)
        gamma = geo.connection(data, (x, y, 0.0))
        r, _ = geo.bundle_curvature(data, (x, y))
        for _ in range(5):
            X = rng.standard_normal(3)
            Y = rng.standard_normal(3)
            # D_X xi in frame components
            dx_xi = np.einsum("i,ik->k", X, gamma[:, 2, :])
            dy_xi = np.einsum("i,ik->k", Y, gamma[:, 2, :])
            assert dx_xi @ Y + dy_xi @ X == pytest.approx(0.0, abs=1e-8)
            np.testing.assert_allclose(dx_xi, -r * geo.rotate_j(X), atol=1e-10)


class TestRotation:
    def test_basis_images(self):
        np.testing.assert_allclose(geo.rotate_j(BASIS[0]), BASIS[1])
        np.testing.assert_allclose(geo.rotate_j(BASIS[1]), -BASIS[0])
        np.testing.assert_allclose(geo.rotate_j(BASIS[2]), np.zeros(3))

    def test_antisymmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            assert x @ geo.rotate_j(y) == pytest.approx(-(y @ geo.rotate_j(x)),
                                                        abs=1e-12)


class TestWedge:
    def test_bit_identical_to_numpy_cross(self):
        rng = np.random.default_rng(11)
        vectors = list(rng.standard_normal((300, 3)) * 10.0 ** rng.integers(
            -3, 4, size=(300, 1)))
        for k in range(3):  # one zero component, of either sign
            for zero in (0.0, -0.0):
                for v in rng.standard_normal((20, 3)):
                    v[k] = zero
                    vectors.append(v)
        vectors += [np.array([0.0, -0.0, 0.0]), np.array([-0.0, -0.0, -0.0]),
                    np.array([1.0, 0.0, -0.0]), np.array([-0.0, 2.0, 0.0])]
        for i, u in enumerate(vectors):
            v = vectors[(7 * i + 3) % len(vectors)]
            got, want = geo.wedge(u, v), np.cross(u, v)
            assert np.all(got == want)
            # == does not tell -0.0 from 0.0; the bytes do
            assert got.tobytes() == want.tobytes()


class TestRiemann:
    def test_component_identities_heisenberg(self):
        p = (0.2, -0.3, 0.0)
        r = 0.5
        assert geo.riemann_closed(HEIS, p, BASIS[0], BASIS[1], BASIS[0],
                                  BASIS[1]) == pytest.approx(3 * r * r, abs=1e-12)
        for j in range(2):
            assert geo.riemann_closed(HEIS, p, BASIS[j], BASIS[2], BASIS[j],
                                      BASIS[2]) == pytest.approx(-r * r, abs=1e-12)
        assert geo.riemann_closed(HEIS, p, BASIS[0], BASIS[2], BASIS[1],
                                  BASIS[2]) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_identity_variable_r(self):
        data = GAUSSIAN
        p = (0.3, -0.2, 0.0)
        r, grad = geo.bundle_curvature(data, p[:2])
        lam = data.lam(*p[:2])
        for j in range(2):
            got = geo.riemann_closed(data, p, BASIS[0], BASIS[1], BASIS[j],
                                     BASIS[2])
            assert got == pytest.approx(-grad[j] / lam, abs=1e-9)

    def test_repeated_argument_vanishes(self):
        rng = np.random.default_rng(11)
        data = geo.bcv(1.0, 1.0)
        x, y = data.domain.random_point(rng)
        X = rng.standard_normal(3)
        Z = rng.standard_normal(3)
        W = rng.standard_normal(3)
        assert geo.riemann_closed(data, (x, y, 0.0), X, X, Z, W) == pytest.approx(
            0.0, abs=1e-12)

    @pytest.mark.parametrize("data", [HEIS, geo.bcv(1.0, 1.0), GAUSSIAN])
    def test_symmetries(self, data):
        rng = np.random.default_rng(12)
        x, y = data.domain.random_point(rng)
        p = (x, y, 0.0)
        for _ in range(5):
            X, Y, Z, W = rng.standard_normal((4, 3))
            base = geo.riemann_closed(data, p, X, Y, Z, W)
            assert geo.riemann_closed(data, p, Y, X, Z, W) == pytest.approx(
                -base, abs=1e-10)
            assert geo.riemann_closed(data, p, X, Y, W, Z) == pytest.approx(
                -base, abs=1e-10)
            assert geo.riemann_closed(data, p, Z, W, X, Y) == pytest.approx(
                base, abs=1e-10)
            bianchi = (geo.riemann_closed(data, p, X, Y, Z, W)
                       + geo.riemann_closed(data, p, Y, Z, X, W)
                       + geo.riemann_closed(data, p, Z, X, Y, W))
            assert bianchi == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("data", FAMILIES)
    def test_direct_matches_closed(self, data):
        rng = np.random.default_rng(13)
        for _ in range(8):
            x, y = data.domain.random_point(rng)
            p = (x, y, float(rng.uniform(-1, 1)))
            X, Y, Z, W = rng.standard_normal((4, 3))
            closed = geo.riemann_closed(data, p, X, Y, Z, W)
            direct = geo.riemann_direct(data, p, X, Y, Z, W)
            assert abs(direct - closed) <= 1e-5 * max(1.0, abs(closed))


class TestRicci:
    def test_heisenberg_diagonal(self):
        ric = geo.ricci(HEIS, (0.4, -0.1))
        np.testing.assert_allclose(ric, np.diag([-0.5, -0.5, 0.5]), atol=1e-12)

    def test_flat_zero(self):
        np.testing.assert_allclose(geo.ricci(FLAT, (0.3, 0.3)),
                                   np.zeros((3, 3)), atol=1e-14)

    @pytest.mark.parametrize("data", FAMILIES)
    def test_trace_is_twice_scalar_combination(self, data):
        rng = np.random.default_rng(14)
        x, y = data.domain.random_point(rng)
        r, _ = geo.bundle_curvature(data, (x, y))
        g_val = geo.gauss_curvature(data, (x, y))
        ric = geo.ricci(data, (x, y))
        assert np.trace(ric) == pytest.approx(2 * g_val - 2 * r * r, abs=1e-10)

    @pytest.mark.parametrize("data", [HEIS, geo.bcv(-1.0, 0.3), GAUSSIAN])
    def test_contraction_oracle(self, data):
        rng = np.random.default_rng(15)
        x, y = data.domain.random_point(rng)
        closed = geo.ricci(data, (x, y))
        contracted = geo.ricci_contraction(data, (x, y, 0.0))
        np.testing.assert_allclose(closed, contracted, atol=1e-5)

    def test_off_diagonal_variable_r(self):
        data = GAUSSIAN
        p = (0.2, 0.5)
        _, grad = geo.bundle_curvature(data, p)
        lam = data.lam(*p)
        ric = geo.ricci(data, p)
        assert ric[0, 2] == pytest.approx(-grad[1] / lam, abs=1e-10)
        assert ric[1, 2] == pytest.approx(grad[0] / lam, abs=1e-10)


def _random_metric(rng) -> geo.KillingData:
    """Random smooth metric: lam = exp(small quadratic) > 0, polynomial a, b."""
    def quad(scale):
        c = [round(float(v), 4) for v in rng.uniform(-scale, scale, 5)]
        return (f"{c[0]!r}+{c[1]!r}*x+{c[2]!r}*y+{c[3]!r}*x*y"
                f"+{c[4]!r}*(x^2-y^2)")

    return make_data(f"exp({quad(0.2)})", quad(0.5), quad(0.5),
                     rect=(-1.2, 1.2, -1.2, 1.2), desc="random")


class TestRandomMetrics:
    def test_connection_oracle_on_random_metrics(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            data = _random_metric(rng)
            x, y = data.domain.random_point(rng)
            p = (x, y, float(rng.uniform(-1, 1)))
            diff = np.max(np.abs(geo.connection(data, p)
                                 - geo.connection_oracle(data, p)))
            assert diff <= 1e-6

    def test_curvature_on_random_metrics(self):
        rng = np.random.default_rng(56)
        for _ in range(5):
            data = _random_metric(rng)
            x, y = data.domain.random_point(rng)
            p = (x, y, 0.0)
            X, Y, Z, W = rng.standard_normal((4, 3))
            closed = geo.riemann_closed(data, p, X, Y, Z, W)
            direct = geo.riemann_direct(data, p, X, Y, Z, W)
            assert abs(direct - closed) <= 1e-5 * max(1.0, abs(closed))

    def test_ricci_contraction_on_random_metrics(self):
        rng = np.random.default_rng(57)
        data = _random_metric(rng)
        x, y = data.domain.random_point(rng)
        np.testing.assert_allclose(geo.ricci(data, (x, y)),
                                   geo.ricci_contraction(data, (x, y, 0.0)),
                                   atol=1e-5)


class TestBcvConstructor:
    def test_heisenberg_scalars(self):
        data = geo.bcv(0.0, 0.5)
        r, _ = geo.bundle_curvature(data, (0.7, -0.7))
        assert r == pytest.approx(0.5, abs=1e-12)
        assert geo.gauss_curvature(data, (0.7, -0.7)) == pytest.approx(0.0,
                                                                       abs=1e-12)

    def test_product_space_zero_r(self):
        data = geo.bcv(1.0, 0.0)
        r, _ = geo.bundle_curvature(data, (0.4, 0.4))
        assert r == 0.0

    def test_unit_sphere_model(self):
        data = geo.bcv(1.0, 1.0)
        r, _ = geo.bundle_curvature(data, (0.1, 0.9))
        assert r == pytest.approx(1.0, abs=1e-12)
        assert geo.gauss_curvature(data, (0.1, 0.9)) == pytest.approx(1.0,
                                                                      abs=1e-12)

    def test_negative_curvature_domain_inside_disk(self):
        data = geo.bcv(-1.0, 0.3)
        corner = math.hypot(data.domain.xmax, data.domain.ymax)
        assert corner < 2.0  # strictly inside the disk of radius 2

    def test_lambda_positivity_enforced(self):
        with pytest.raises(ValueError):
            make_data("x", "0", "0")
