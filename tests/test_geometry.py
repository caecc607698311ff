import math

import numpy as np
import pytest

from ksub import geometry as geo
from ksub import numdiff, verify
from ksub.errors import FdMarginError, OutsideDomainError
from ksub.expr import eval_jet, parse


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

    def test_repeated_points_are_evaluated_once_and_gathered(self,
                                                             monkeypatch):
        data = make_data("1+x^2", "x", "-y")
        seen = []
        original = geo.KillingData._eval_base_jets

        def counted(self, x, y):
            seen.append(len(x))
            return original(self, x, y)

        monkeypatch.setattr(geo.KillingData, "_eval_base_jets", counted)
        xs = np.array([0.5, -0.0, 0.5, 0.0, -0.0])
        ys = np.array([0.25, 0.0, 0.25, -0.0, 0.0])
        jets = data.base_jets(xs, ys)
        # 0.5, -0.0 and 0.0 (told apart by their bits) in one batch
        assert seen == [3]
        for n, point in enumerate(zip(xs.tolist(), ys.tolist())):
            for jet, e in zip(jets, (data.lam, data.a, data.b)):
                one = eval_jet(e, point)
                for got, want in ((jet.value[n], one.value),
                                  (jet.grad[:, n], one.grad),
                                  (jet.hess[..., n], one.hess)):
                    assert same_bytes(got, want)

    def test_positivity_is_checked_in_grid_order(self):
        # lam <= 0 at the first grid point, a log domain error only later:
        # the positivity error of the first point is the one raised
        with pytest.raises(ValueError, match=r"lam\(-1\.92, -1\.92\) <= 0"):
            make_data("-1+0*log(1.9-x)", "0", "0")


class TestBatchedConnection:
    @pytest.mark.parametrize("data", FAMILIES, ids=lambda d: d.description)
    def test_batch_equals_its_points_bit_for_bit(self, data):
        points = data.domain.grid(9, 9, inset=1e-3)
        xs, ys = map(np.array, zip(*points))
        tables = geo.connection(data, (xs, ys, np.zeros_like(xs)))
        assert tables.shape == (3, 3, 3, 81)
        rows = geo.rows(tables)
        for i, (x, y) in enumerate(points):
            one = geo.connection(data, (x, y, 0.7))
            assert rows[i].tobytes() == one.tobytes()

    def test_batch_outside_the_domain_names_its_first_such_point(self):
        xs, ys = np.array([0.0, 1.0, 2.5]), np.array([0.0, -2.5, 0.0])
        with pytest.raises(OutsideDomainError,
                           match=r"point \(1\.0, -2\.5\)"):
            geo.connection(FLAT, (xs, ys))

    @pytest.mark.parametrize("data", FAMILIES, ids=lambda d: d.description)
    def test_riemann_direct_equals_its_stencil_one_point_at_a_time(self,
                                                                   data):
        rng = np.random.default_rng(3)
        for _ in range(4):
            p = (*data.domain.random_point(rng), 0.2)
            vecs = [rng.normal(size=3) for _ in range(4)]
            got = geo.riemann_direct(data, p, *vecs)
            assert np.float64(got).tobytes() == np.float64(
                one_point_riemann_direct(data, p[0], p[1], *vecs)).tobytes()


# The oracles as they were written for one point at a time, before they
# took batches: references that a batch must equal to the byte.

def one_point_metric_matrix(data, x, y):
    lam = data.lam(x, y)
    ax = lam * data.a(x, y)
    ay = lam * data.b(x, y)
    return np.array([
        [lam * lam + ax * ax, ax * ay, -ax],
        [ax * ay, lam * lam + ay * ay, -ay],
        [-ax, -ay, 1.0],
    ])


def one_point_frame(data, x, y):
    data.require_inside(x, y)
    lam, a, b = data.base_jets(x, y)
    return np.array([
        [1.0 / lam.value, 0.0, a.value],
        [0.0, 1.0 / lam.value, b.value],
        [0.0, 0.0, 1.0],
    ])


def one_point_connection_oracle(data, x, y):
    h = geo._oracle_step(x, y)
    if data.domain.margin_at(x, y) < 2.0 * h:
        raise FdMarginError(
            f"need margin >= {2 * h} inside the domain around ({x}, {y})")
    dg = np.zeros((3, 3, 3))
    dg[:2] = [numdiff.partial1(lambda q: one_point_metric_matrix(data, *q),
                               (x, y), c, h) for c in range(2)]
    g = one_point_metric_matrix(data, x, y)
    sym = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    christoffel = 0.5 * np.einsum("cd,abd->cab", np.linalg.inv(g), sym)
    eframe = one_point_frame(data, x, y)
    dE = np.zeros((3, 3, 3))
    dE[:2] = [numdiff.partial1(lambda q: one_point_frame(data, *q), (x, y),
                               c, h) for c in range(2)]
    cov = (np.einsum("ic,cjk->ijk", eframe, dE)
           + np.einsum("ia,jb,kab->ijk", eframe, eframe, christoffel))
    return np.einsum("ijc,cd,kd->ijk", cov, g, eframe)


def one_point_riemann_closed(data, x, y, X, Y, Z, W):
    r, grad = geo.bundle_curvature(data, (x, y))
    g_curv = geo.gauss_curvature(data, (x, y))
    lam = data.lam(x, y)

    def dr(v):
        return v[0] * grad[0] / lam + v[1] * grad[1] / lam

    def dot(u, v):
        return float(u @ v)

    def turn(v):
        return np.array([-v[1], v[0], 0.0])

    term1 = (g_curv - 3.0 * r * r) * (dot(Y, Z) * dot(X, W)
                                      - dot(X, Z) * dot(Y, W))
    term2 = -(g_curv - 4.0 * r * r) * (
        Y[2] * Z[2] * dot(X, W) - X[2] * Z[2] * dot(Y, W)
        + X[2] * dot(Y, Z) * W[2] - Y[2] * dot(X, Z) * W[2])
    term3 = (dot(Z, turn(W)) * dr(turn(np.cross(X, Y)))
             + dot(X, turn(Y)) * dr(turn(np.cross(Z, W))))
    return term1 + term2 + term3


def one_point_riemann_direct(data, x, y, X, Y, Z, W):
    # the definition with the d1 stencil of each flow sampled by one-point
    # connection calls
    h = geo._oracle_step(x, y)
    if data.domain.margin_at(x, y) < 2.0 * h:
        raise FdMarginError(f"need margin >= {2 * h} around ({x}, {y})")
    gamma = geo.connection(data, (x, y))

    def second_cov(A, B, C):
        vel = geo.coord_components(data, (x, y), A)
        ht = h / max(1.0, float(np.max(np.abs(vel[:2]))))

        def field(t):
            q = (x + t * vel[0], y + t * vel[1])
            return np.einsum("i,j,ijk->k", B, C, geo.connection(data, q))

        inner = np.einsum("i,j,ijk->k", B, C, gamma)
        return (numdiff.d1(field, 0.0, ht)
                + np.einsum("i,m,imk->k", A, inner, gamma))

    bracket = ((X[0] * Y[1] - X[1] * Y[0])
               * geo.frame_bracket_12(data, (x, y)))
    curl = (second_cov(X, Y, Z) - second_cov(Y, X, Z)
            - np.einsum("i,j,ijk->k", bracket, Z, gamma))
    return float(curl @ W)


def one_point_ricci_contraction(data, x, y):
    basis = np.eye(3)
    out = np.zeros((3, 3))
    for a in range(3):
        for b in range(a, 3):
            total = 0.0
            for i in range(3):
                total += one_point_riemann_direct(data, x, y, basis[i],
                                                  basis[a], basis[b], basis[i])
            out[a, b] = out[b, a] = total
    return out


def same_bytes(got, want) -> bool:
    return (np.asarray(got, dtype=float).tobytes()
            == np.asarray(want, dtype=float).tobytes())


def e1e2e1e2(p):
    """(E1, E2, E1, E2) at the one point or each point of a batch p."""
    return [np.repeat(BASIS[k][:, None], np.size(p[0]), axis=1)
            for k in (0, 1, 0, 1)]


class TestBatchedOracles:
    """Each oracle on a batch of points equals, point by point and to the
    byte, its one-point formulation; so does a one-point call."""

    @pytest.fixture(params=verify.metric_families(),
                    ids=lambda d: d.description)
    def sample(self, request):
        data = request.param
        rng = np.random.default_rng(21)
        points = [(*data.domain.random_point(rng),
                   float(rng.uniform(-1, 1))) for _ in range(6)]
        vecs = rng.standard_normal((6, 4, 3))
        return data, points, tuple(map(np.array, zip(*points))), vecs

    def test_metric_and_frame(self, sample):
        data, points, batch, _ = sample
        metric, frame = geo.metric_matrix(data, batch), geo.frame(data, batch)
        assert metric.shape == frame.shape == (3, 3, 6)
        for n, (x, y, z) in enumerate(points):
            for got, want in (
                    (metric[..., n], one_point_metric_matrix(data, x, y)),
                    (geo.metric_matrix(data, (x, y)),
                     one_point_metric_matrix(data, x, y)),
                    (frame[..., n], one_point_frame(data, x, y)),
                    (geo.frame(data, (x, y, z)), one_point_frame(data, x, y))):
                assert same_bytes(got, want)

    def test_connection_oracle(self, sample):
        data, points, batch, _ = sample
        tables = geo.connection_oracle(data, batch)
        assert tables.shape == (3, 3, 3, 6)
        for n, (x, y, z) in enumerate(points):
            want = one_point_connection_oracle(data, x, y)
            assert same_bytes(tables[..., n], want)
            assert same_bytes(geo.connection_oracle(data, (x, y, z)), want)

    def test_riemann(self, sample):
        data, points, batch, vecs = sample
        columns = vecs.transpose(1, 2, 0)  # four (3, N) vector batches
        closed = geo.riemann_closed(data, batch, *columns)
        direct = geo.riemann_direct(data, batch, *columns)
        assert closed.shape == direct.shape == (6,)
        for n, (x, y, z) in enumerate(points):
            want = one_point_riemann_closed(data, x, y, *vecs[n])
            assert same_bytes(closed[n], want)
            assert same_bytes(geo.riemann_closed(data, (x, y, z), *vecs[n]),
                              want)
            want = one_point_riemann_direct(data, x, y, *vecs[n])
            assert same_bytes(direct[n], want)
            assert same_bytes(geo.riemann_direct(data, (x, y, z), *vecs[n]),
                              want)

    def test_ricci(self, sample):
        data, points, batch, _ = sample
        tensors = geo.ricci(data, batch)
        assert tensors.shape == (3, 3, 6)
        for n, (x, y, z) in enumerate(points):
            assert same_bytes(tensors[..., n], geo.ricci(data, (x, y, z)))

    def test_ricci_contraction(self, sample):
        data, points, batch, _ = sample
        tensors = geo.ricci_contraction(data, tuple(c[:2] for c in batch))
        assert tensors.shape == (3, 3, 2)
        for n, (x, y, z) in enumerate(points[:2]):
            want = one_point_ricci_contraction(data, x, y)
            assert same_bytes(tensors[..., n], want)
            assert same_bytes(geo.ricci_contraction(data, (x, y, z)), want)

    # FLAT's domain is [-2, 2]^2 and its oracle step 2e-4 near the edge:
    # (1.9999, 0) is inside but within the 2 h margin
    INSIDE_MARGIN, OUTSIDE = (1.9999, 0.0), (0.5, 2.5)
    CALLS = {
        "connection_oracle": lambda p: geo.connection_oracle(FLAT, p),
        "riemann_direct": lambda p: geo.riemann_direct(FLAT, p,
                                                       *e1e2e1e2(p)),
        "ricci_contraction": lambda p: geo.ricci_contraction(FLAT, p),
        "ricci": lambda p: geo.ricci(FLAT, p),
        "frame": lambda p: geo.frame(FLAT, p),
        "riemann_closed": lambda p: geo.riemann_closed(FLAT, p,
                                                       *e1e2e1e2(p)),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("bad", [(INSIDE_MARGIN, OUTSIDE),
                                     (OUTSIDE, INSIDE_MARGIN)],
                             ids=["margin-first", "outside-first"])
    def test_batch_raises_the_error_of_its_first_bad_point(self, name, bad):
        call = self.CALLS[name]
        points = [(0.1, 0.2), *bad, (-0.3, 0.4)]
        errors = []
        for p in points:
            try:
                call(p)
            except (FdMarginError, OutsideDomainError) as err:
                errors.append(err)
        first = errors[0]
        with pytest.raises(type(first)) as err:
            call(tuple(map(np.array, zip(*points))))
        assert str(err.value) == str(first)


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
        vectors = geo.frame(FLAT, (0.3, 0.4, 1.0))
        np.testing.assert_allclose(vectors, np.eye(3), atol=1e-15)

    def test_heisenberg_origin(self):
        vectors = geo.frame(HEIS, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(vectors, np.eye(3), atol=1e-15)

    def test_shifted_first_leg(self):
        data = make_data("2", "1", "0")
        vectors = geo.frame(data, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(vectors[0], [0.5, 0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("data", FAMILIES)
    def test_gram_matrix_identity(self, data):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, y = data.domain.random_point(rng)
            vectors = geo.frame(data, (x, y, float(rng.uniform(-1, 1))))
            g = geo.metric_matrix(data, (x, y))
            gram = vectors @ g @ vectors.T
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
