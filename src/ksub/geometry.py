"""Canonical Killing-submersion metrics on a plane domain.

A metric here is determined by three scalar fields (lam, a, b) on an open
rectangle, lam > 0, through

    ds^2 = lam^2 (dx^2 + dy^2) + (dz - lam (a dx + b dy))^2

on ``domain x R``. The fibration (x, y, z) -> (x, y) is a Riemannian
submersion whose fibers flow along the unit Killing field E3 = d/dz. Two
functions of the base control all of the curvature: the bundle curvature

    2 r = ((lam b)_x - (lam a)_y) / lam^2

and the Gaussian curvature of the base metric lam^2 (dx^2 + dy^2),

    G = -(Laplacian of log lam) / lam^2.

The orthonormal frame used throughout is

    E1 = (1/lam) d/dx + a d/dz,   E2 = (1/lam) d/dy + b d/dz,   E3 = d/dz,

declared positively oriented; all ``Vec3`` quantities are components with
respect to it, so inner products are plain dot products. Every closed form
here has a finite-difference oracle that derives it from metric evaluations
only. The oracles run a batch of points; a point of floats is a batch of one
(:func:`ksub.expr.pointwise`), and the closed forms take it as numpy floats.
The jets of (lam, a, b) are memoised per batch, keyed by its coordinates'
bytes, and a batch is evaluated as given (:meth:`KillingData.base_jets`)
once it passes the one check of the domain rectangle and then lam > 0 is
checked on it; they are the one read of the metric, lam's values included.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .errors import FdMarginError, KsubError, OutsideDomainError
from .expr import (Expr, Jet, _first_bad, _hypot, at_point, batched, eval_jet,
                   parse, pointwise, power)

__all__ = [
    "Rect",
    "KillingData",
    "bcv",
    "bundle_curvature",
    "gauss_curvature",
    "frame",
    "metric_matrix",
    "frame_components",
    "coord_components",
    "connection",
    "connection_oracle",
    "frame_bracket_12",
    "frame_bracket_fd",
    "wedge",
    "rotate_j",
    "riemann_closed",
    "riemann_direct",
    "ricci",
    "ricci_from_scalars",
    "ricci_contraction",
]

# Oracle step scale: central differences with one Richardson level balance
# truncation against cancellation at this size for double precision.
FD_SCALE = 1e-4

# Entries a per-object memo store holds before it is emptied: a point
# lattice with the base jets of its batch holds about 55 KB, so a full store
# of them about 56 MB (no workload fills more than 6 entries)
CACHE_LIMIT = 1_024


def rows(a) -> np.ndarray:
    """A batch (on the trailing axis) as C-contiguous per-point rows."""
    a = np.asarray(a)
    return np.ascontiguousarray(a.transpose(a.ndim - 1, *range(a.ndim - 1)))


def product(*factors):
    """``u @ m @ ... @ w`` for vectors u, w and the matrices between them,
    at one point or at each point of a batch on the trailing axis.

    A batch goes through numpy's stacked matmul on C-contiguous per-point
    :func:`rows`, which rounds as the one-point product does; on a strided
    view, or as a sum written out by hand, the last bit differs at some
    points. The same holds for stacked ``einsum``, ``solve``, ``inv`` and
    ``det``, so batch code applies them to rows.
    """
    if np.ndim(factors[0]) == 1:
        return float(functools.reduce(np.matmul, factors))
    u, *mats, w = map(rows, factors)
    return (functools.reduce(np.matmul, mats, u[:, None, :])
            @ w[:, :, None])[:, 0, 0]


def memo(store: dict, key: tuple, compute):
    """``store[key]``, filled by ``compute(*key)`` on a miss; a full store is
    emptied first, so it never holds more than CACHE_LIMIT entries."""
    hit = store.get(key)
    if hit is None:
        if len(store) >= CACHE_LIMIT:
            store.clear()
        hit = store[key] = compute(*key)
    return hit


@dataclass(frozen=True)
class Rect:
    """Open axis-aligned rectangle in the base plane."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise KsubError("rectangle must have positive area")
        for lo, hi in (self.xmin, self.xmax), (self.ymin, self.ymax):
            if not np.isfinite(hi - lo):
                raise KsubError(f"rectangle side ({lo}, {hi}) has length inf")

    def contains(self, x, y):
        """Whether (x, y) lies inside; elementwise on coordinate arrays."""
        return ((self.xmin < x) & (x < self.xmax)
                & (self.ymin < y) & (y < self.ymax))

    def margin_at(self, x: float, y: float) -> float:
        """Distance from (x, y) to the boundary (negative outside)."""
        return min(x - self.xmin, self.xmax - x, y - self.ymin, self.ymax - y)

    @property
    def diameter(self) -> float:
        return float(_hypot(self.xmax - self.xmin, self.ymax - self.ymin))

    def grid(self, nx: int, ny: int, inset: float = 0.05):
        """Interior grid points, inset by a fraction of each side."""
        dx = (self.xmax - self.xmin) * inset
        dy = (self.ymax - self.ymin) * inset
        xs = np.linspace(self.xmin + dx, self.xmax - dx, nx)
        ys = np.linspace(self.ymin + dy, self.ymax - dy, ny)
        # x-major order; numpy refuses a grid past the memory at once
        return list(zip(np.repeat(xs, ny).tolist(), np.tile(ys, nx).tolist()))

    def random_point(self, rng):
        """A uniform point, kept 15 % of each side from the boundary."""
        dx = (self.xmax - self.xmin) * 0.15
        dy = (self.ymax - self.ymin) * 0.15
        return (float(rng.uniform(self.xmin + dx, self.xmax - dx)),
                float(rng.uniform(self.ymin + dy, self.ymax - dy)))


@dataclass(eq=False)
class KillingData:
    """A canonical metric: the triple (lam, a, b) on a rectangle.

    lam > 0 is checked on a value grid at construction and on each jet batch.
    Instances are immutable by convention and safe to share across workers.
    Base points are floats, or equal-length coordinate arrays for a batch
    (see :func:`ksub.expr.batched`).
    """

    lam: Expr
    a: Expr
    b: Expr
    domain: Rect
    description: str = ""

    def __post_init__(self):
        for name, e in (("lam", self.lam), ("a", self.a), ("b", self.b)):
            if tuple(e.variables) != ("x", "y"):
                raise KsubError(f"{name} must be an expression in (x, y)")
        xs, ys = map(np.array, zip(*self.domain.grid(8, 8, inset=0.02)))
        # values, not jets: a jet can fail where a value does not
        batched(lambda *p: self.require_positive(*p, self.lam(*p)), xs, ys)
        self._jets: dict[tuple, tuple[Jet, Jet, Jet]] = {}

    @staticmethod
    def require_positive(x, y, lam):
        """Raise KsubError naming the first point where lam <= 0."""
        bad = _first_bad(lam <= 0.0, x, y)
        if bad:
            raise KsubError("lam must be positive on the domain; "
                            f"lam({bad[0]}, {bad[1]}) <= 0")

    def base_jets(self, x, y) -> tuple[Jet, Jet, Jet]:
        """Jets of (lam, a, b) at each point of a batch of coordinate
        arrays: value (N,), gradient (2, N), Hessian (2, 2, N); a point of
        floats is a batch of one (see :func:`ksub.expr.at_point`).

        A batch is memoised by the bytes of its coordinates and evaluated as
        given, a point it repeats (a vertical cylinder's ruling sits over
        one) at each place with the same bits; the first point outside the
        domain raises before any is evaluated, the first with lam <= 0 after.
        """
        return at_point(self._batch_jets, x, y)

    def _batch_jets(self, x, y) -> tuple[Jet, Jet, Jet]:
        return memo(self._jets, (x.tobytes(), y.tobytes()),
                    lambda *_: self._eval_base_jets(x, y))

    def _eval_base_jets(self, x, y) -> tuple[Jet, Jet, Jet]:
        self.require_inside(x, y)
        jets = tuple(eval_jet(e, (x, y)) for e in (self.lam, self.a, self.b))
        self.require_positive(x, y, jets[0].value)
        return jets

    def require_inside(self, x, y):
        """Raise OutsideDomainError naming the first point outside."""
        bad = _first_bad(np.logical_not(self.domain.contains(x, y)), x, y)
        if bad:
            raise OutsideDomainError(
                f"point ({bad[0]}, {bad[1]}) outside domain of "
                f"{self.description or 'metric'}")


def bcv(c: float, mu: float) -> KillingData:
    """Bianchi-Cartan-Vranceanu space E(c, mu): constant G = c and r = mu.

    The domain is the square [-3, 3]^2. For c < 0 the conformal factor
    lives on a disk; the domain is then the inscribed axis-aligned square
    (slightly shrunk for a safety margin).
    """
    c, mu = float(c), float(mu)
    lam = parse(f"1/(1+({c!r}/4)*(x^2+y^2))", ("x", "y"))
    a = parse(f"-({mu!r})*y" if mu else "0", ("x", "y"))
    b = parse(f"({mu!r})*x" if mu else "0", ("x", "y"))
    if c < 0:
        half = 0.95 * (2.0 / np.sqrt(-c)) / np.sqrt(2.0)
    else:
        half = 3.0
    domain = Rect(-half, half, -half, half)
    return KillingData(lam, a, b, domain, description=f"BCV(c={c}, mu={mu})")


# ---------------------------------------------------------------------------
# Scalars of the submersion
# ---------------------------------------------------------------------------

def _bundle_value(data: KillingData, x, y):
    lam, a, b = data.base_jets(x, y)
    num = (lam.grad[0] * b.value + lam.value * b.grad[0]
           - lam.grad[1] * a.value - lam.value * a.grad[1])
    return 0.5 * num / power(lam.value, 2)


def bundle_curvature(data: KillingData, p) -> tuple[float, np.ndarray]:
    """Bundle curvature r at a base point, and its coordinate gradient.

    Both come from the point's exact second-order jets of (lam, a, b):
    differentiating ``2 r lam^2 = (lam b)_x - (lam a)_y`` needs only second
    derivatives, so grad r is exact without raising the jet order. On a
    batch of N points, r has shape (N,) and the gradient (2, N).
    """
    x, y = p[0], p[1]
    r = _bundle_value(data, x, y)
    lam, a, b = data.base_jets(x, y)
    lb, la = lam * b, lam * a
    grad = (0.5 * (lb.hess[0] - la.hess[1]) / lam.value
            - 2.0 * r * lam.grad) / lam.value
    return r, grad


def gauss_curvature(data: KillingData, p) -> float:
    """Gaussian curvature of the base metric, from exact jets of lam (shape
    (N,) on a batch)."""
    x, y = p[0], p[1]
    lam, _, _ = data.base_jets(x, y)
    lam_sq = power(lam.value, 2)
    # Laplacian of log(lam) in the flat background metric
    lap_log = ((lam.hess[0, 0] + lam.hess[1, 1]) / lam.value
               - (power(lam.grad[0], 2) + power(lam.grad[1], 2)) / lam_sq)
    return -lap_log / lam_sq


# ---------------------------------------------------------------------------
# Frame, metric and component conversions
# ---------------------------------------------------------------------------

def frame(data: KillingData, p) -> np.ndarray:
    """Orthonormal frame (E1, E2, E3) at a point of the total space: a
    (3, 3) matrix whose rows are the coordinate components of E1..E3;
    (3, 3, N) on a batch of N points, each equal to its one-point frame."""
    x, y = p[0], p[1]
    lam, a, b = data.base_jets(x, y)
    e = np.zeros((3, 3) + np.shape(lam.value))
    e[0, 0] = e[1, 1] = 1.0 / lam.value
    e[0, 2] = a.value
    e[1, 2] = b.value
    e[2, 2] = 1.0
    return e


def metric_matrix(data: KillingData, p) -> np.ndarray:
    """Coordinate metric tensor at a base point (independent of z), from
    the values of the checked base jets; (3, 3, N) on a batch of N points,
    each equal to its one-point matrix."""
    lam, a, b = (jet.value for jet in data.base_jets(p[0], p[1]))
    ax, ay = lam * a, lam * b
    g = np.empty((3, 3) + np.shape(lam))
    g[0, 0] = lam * lam + ax * ax
    g[0, 1] = g[1, 0] = ax * ay
    g[0, 2] = g[2, 0] = -ax
    g[1, 1] = lam * lam + ay * ay
    g[1, 2] = g[2, 1] = -ay
    g[2, 2] = 1.0
    return g


def frame_components(data: KillingData, p, v_coord) -> np.ndarray:
    """Convert a coordinate tangent vector at p to frame components; on a
    batch, v_coord is (3, N) and so is the result."""
    x, y = p[0], p[1]
    lam, a, b = data.base_jets(x, y)
    vx, vy, vz = v_coord
    return np.array([
        lam.value * vx,
        lam.value * vy,
        vz - lam.value * (a.value * vx + b.value * vy),
    ])


def coord_components(data: KillingData, p, v_frame) -> np.ndarray:
    """Convert frame components at p back to coordinate components; on a
    batch, v_frame is (3, N) and so is the result."""
    x, y = p[0], p[1]
    lam, a, b = data.base_jets(x, y)
    f1, f2, f3 = v_frame
    return np.array([
        f1 / lam.value,
        f2 / lam.value,
        f3 + a.value * f1 + b.value * f2,
    ])


def wedge(u, v) -> np.ndarray:
    """Cross product of frame-component vectors (right-hand rule).

    Spelled out on floats: the same products and differences as ``np.cross``,
    bit for bit, without its per-call axis handling. Vectors of shape (3, N)
    are a batch, crossed point by point.
    """
    u0, u1, u2 = np.asarray(u, dtype=float).tolist() if np.ndim(u) == 1 else u
    v0, v1, v2 = np.asarray(v, dtype=float).tolist() if np.ndim(v) == 1 else v
    return np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])


def rotate_j(v) -> np.ndarray:
    """Quarter-turn of the horizontal part: (v1, v2, *) -> (-v2, v1, 0);
    a (3, N) batch turns each vector."""
    v = np.asarray(v, dtype=float)
    return np.array([-v[1], v[0], np.zeros_like(v[0])])


# ---------------------------------------------------------------------------
# Levi-Civita connection
# ---------------------------------------------------------------------------

def connection(data: KillingData, p) -> np.ndarray:
    """Closed-form connection coefficients gamma[i, j, k] = <D_{Ei} Ej, Ek>;
    (3, 3, 3, N) on a batch of N points, each equal to its one-point
    table."""
    x, y = p[0], p[1]
    lam, _, _ = data.base_jets(x, y)
    r = _bundle_value(data, x, y)
    lx = lam.grad[0] / power(lam.value, 2)
    ly = lam.grad[1] / power(lam.value, 2)

    gamma = np.zeros((3, 3, 3) + np.shape(r))
    gamma[0, 0, 1] = -ly
    gamma[0, 1, 0] = ly
    gamma[0, 1, 2] = r
    gamma[0, 2, 1] = -r
    gamma[1, 0, 1] = lx
    gamma[1, 0, 2] = -r
    gamma[1, 1, 0] = -lx
    gamma[1, 2, 0] = r
    gamma[2, 0, 1] = -r
    gamma[2, 1, 0] = r
    return gamma


def _oracle_step(x: float, y: float) -> float:
    """FD step of the oracles at base point (x, y)."""
    return FD_SCALE * max(1.0, abs(x), abs(y))


def _oracle_steps(data: KillingData, x: np.ndarray, y: np.ndarray,
                  where: str) -> np.ndarray:
    """The oracles' FD step at each point of a batch; the first point
    closer than two steps to the domain's edge raises FdMarginError."""
    steps = []
    for a, b in zip(x.tolist(), y.tolist()):
        h = _oracle_step(a, b)
        if data.domain.margin_at(a, b) < 2.0 * h:
            raise FdMarginError(f"need margin >= {2 * h} {where} ({a}, {b})")
        steps.append(h)
    return np.array(steps)


def _oracle_stencil(data: KillingData, p):
    """x, y, the steps h (see :func:`_oracle_steps`) and the 9 N stencil
    points: the centres, then each d1 abscissa along x and y, of all points."""
    x, y = p[0], p[1]
    h = _oracle_steps(data, x, y, "inside the domain around")
    table = [[x, y]] + numdiff._axis((x, y), 0, h) + numdiff._axis((x, y), 1, h)
    return x, y, h, tuple(np.concatenate(c) for c in zip(*table))


@pointwise
def connection_oracle(data: KillingData, p) -> np.ndarray:
    """Connection table from metric evaluations only (no closed form).

    Coordinate Christoffel symbols come from central differences of the
    coordinate metric, the frame fields are differentiated the same way, and
    the result is projected back onto the frame. Needs an interior point with
    margin >= 2h. On a batch of N points the result is (3, 3, 3, N): the
    centre and eight d1 abscissae of every point are one :func:`metric_matrix`
    and one :func:`frame` batch of 9 N points, and each point's table equals
    its one-point table (a point too close to the edge names the first such
    point).
    """
    x, y, h, q = _oracle_stencil(data, p)
    samples = (metric_matrix(data, q).reshape(3, 3, 9, -1),
               frame(data, q).reshape(3, 3, 9, -1))

    def slopes(s):
        # d[c, a, b] = d s_ab / d x_c as (N, 3, 3, 3) rows; z-independent
        d = np.zeros((3, 3, 3, len(x)))
        d[:2] = numdiff._slopes(np.moveaxis(s, 2, 0), h)
        return rows(d)

    (g, dg), (eframe, dE) = ((rows(s[:, :, 0]), slopes(s)) for s in samples)
    # Gamma^c_{ab} = 1/2 g^{cd} (dg[a,b,d] + dg[b,a,d] - dg[d,a,b])
    sym = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    christoffel = 0.5 * np.einsum("ncd,nabd->ncab", np.linalg.inv(g), sym)
    # (D_{Ei} Ej)^k = Ei^c dE[c, j, k] + Ei^a Ej^b Gamma^k_{ab}
    cov = (np.einsum("nic,ncjk->nijk", eframe, dE)
           + np.einsum("nia,njb,nkab->nijk", eframe, eframe, christoffel))
    # project with the metric: gamma[i, j, k] = g(cov_ij, E_k)
    return np.moveaxis(np.einsum("nijc,ncd,nkd->nijk", cov, g, eframe), 0, -1)


def frame_bracket_12(data: KillingData, p) -> np.ndarray:
    """Frame components of [E1, E2] (the only nonzero frame bracket); (3, N)
    on a batch."""
    x, y = p[0], p[1]
    lam, _, _ = data.base_jets(x, y)
    r = _bundle_value(data, x, y)
    lam_sq = power(lam.value, 2)
    return np.array([lam.grad[1] / lam_sq, -lam.grad[0] / lam_sq, 2.0 * r])


@pointwise
def frame_bracket_fd(data: KillingData, p, i: int, j: int) -> np.ndarray:
    """[E_i, E_j] in frame components from differentiated frame flows.

    Needs an interior point with margin >= 2h. On a batch of N points the
    result is (3, N), from one :func:`frame` batch of the 9 N stencil
    points, and each point's bracket equals its one-point bracket (a point
    too close to the edge names the first such point).
    """
    x, y, h, q = _oracle_stencil(data, p)
    e = frame(data, q).reshape(3, 3, 9, -1)
    bracket = np.zeros((3, len(x)))  # z-derivatives vanish
    for c, de in enumerate(numdiff._slopes(np.moveaxis(e, 2, 0), h)):
        bracket = bracket + e[i, c, 0] * de[j] - e[j, c, 0] * de[i]
    return frame_components(data, (x, y), bracket)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------

def riemann_closed(data: KillingData, p, X, Y, Z, W):
    """<R(X,Y)Z, W> from the closed-form curvature of the canonical metric.

    Arguments are frame-component vectors at the common point p: (3,) at
    one point, (3, N) on a batch of N points, where the result is (N,) and
    each entry equals its one-point value.
    """
    x, y = p[0], p[1]
    X, Y, Z, W = (np.asarray(v, dtype=float) for v in (X, Y, Z, W))
    r, grad = bundle_curvature(data, (x, y))
    g_curv = gauss_curvature(data, (x, y))
    lam = data.base_jets(x, y)[0].value

    def dr(v):
        return v[0] * grad[0] / lam + v[1] * grad[1] / lam

    dot = product
    term1 = (g_curv - 3.0 * r * r) * (dot(Y, Z) * dot(X, W)
                                      - dot(X, Z) * dot(Y, W))
    term2 = -(g_curv - 4.0 * r * r) * (
        Y[2] * Z[2] * dot(X, W) - X[2] * Z[2] * dot(Y, W)
        + X[2] * dot(Y, Z) * W[2] - Y[2] * dot(X, Z) * W[2])
    term3 = (dot(Z, rotate_j(W)) * dr(rotate_j(wedge(X, Y)))
             + dot(X, rotate_j(Y)) * dr(rotate_j(wedge(Z, W))))
    return term1 + term2 + term3


@pointwise
def riemann_direct(data: KillingData, p, X, Y, Z, W):
    """<R(X,Y)Z, W> from the definition D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z.

    X, Y, Z, W are taken as constant-frame-component fields. Connection
    tables are differentiated numerically along the flows of X and Y (the
    eight off-centre stencil points of every point are one batched
    :func:`connection` call, their quotients formed by ``numdiff``); the
    frame bracket enters through its closed-form components. This is the
    oracle for :func:`riemann_closed`. On a batch of N points the vectors
    are (3, N) and the result is (N,), each entry equal to its one-point
    value (a point too close to the edge names the first such point).
    """
    x, y = p[0], p[1]
    X, Y, Z, W = (np.asarray(v, dtype=float).reshape(3, -1)
                  for v in (X, Y, Z, W))
    h = _oracle_steps(data, x, y, "around")
    gamma = rows(connection(data, (x, y)))

    # the four d1 abscissae along the flow of X, then of Y: one batch
    steps, xs, ys = [], [], []
    for A in (X, Y):
        vel = coord_components(data, (x, y), A)
        # keep the spatial displacement of the stencil at ~h (fmax: a nan
        # speed leaves h, as max(1.0, nan) does)
        steps.append(h / np.fmax(1.0, np.maximum(np.abs(vel[0]),
                                                  np.abs(vel[1]))))
        for (t,) in numdiff._axis((0.0,), 0, steps[-1]):
            xs.append(x + t * vel[0])
            ys.append(y + t * vel[1])
    tables = rows(connection(data, (np.concatenate(xs), np.concatenate(ys)))
                  ).reshape(8, len(x), 3, 3, 3)
    bracket = rows((X[0] * Y[1] - X[1] * Y[0]) * frame_bracket_12(data, (x, y)))
    X, Y, Z = map(rows, (X, Y, Z))

    def along(B, C, table):
        # B^i C^j table_ij^k at each point
        return np.einsum("ni,nj,nijk->nk", B, C, table)

    def second_cov(k, A, B, C):
        # D_A (D_B C) at p, where D_B C = B^i C^j gamma_ij^k varies
        centre = along(B, C, gamma)
        [deriv] = numdiff._slopes([centre] + [
            along(B, C, table) for table in tables[4 * k:4 * k + 4]],
            steps[k][:, None])
        return deriv + np.einsum("ni,nm,nimk->nk", A, centre, gamma)

    curl = (second_cov(0, X, Y, Z) - second_cov(1, Y, X, Z)
            - along(bracket, Z, gamma))
    return product(curl.T, W)


def ricci(data: KillingData, p) -> np.ndarray:
    """Ricci tensor in the frame, from the closed-form component formulas;
    (3, 3, N) on a batch of N points, each equal to its one-point tensor."""
    x, y = p[0], p[1]
    r, grad = bundle_curvature(data, (x, y))
    return ricci_from_scalars(r, grad, gauss_curvature(data, (x, y)),
                              data.base_jets(x, y)[0].value)


def ricci_from_scalars(r: float, grad, g_curv: float, lam: float) -> np.ndarray:
    """The closed-form Ricci tensor from r, its coordinate gradient, G and
    lam at one base point, or (3, 3, N) at a batch of N."""
    horizontal = g_curv - 2.0 * r * r
    m = np.zeros((3, 3) + np.shape(horizontal))
    m[0, 0] = m[1, 1] = horizontal
    m[2, 2] = 2.0 * r * r
    m[0, 2] = m[2, 0] = -grad[1] / lam
    m[1, 2] = m[2, 1] = grad[0] / lam
    return m


@pointwise
def ricci_contraction(data: KillingData, p) -> np.ndarray:
    """Ricci by contracting the finite-difference curvature (oracle),
    Ric(E_a, E_b) = sum_i <R(E_i, E_a) E_b, E_i>: the 18 tuples (a <= b, i)
    of every point are one :func:`riemann_direct` batch. (3, 3, N) on a
    batch of N points, each equal to its one-point tensor."""
    x, y = p[0], p[1]
    n = len(x)
    pairs = [(a, b) for a in range(3) for b in range(a, 3)]
    # the basis indices of (X, Y, Z, W) per tuple, each tuple at every point
    index = np.array([(i, a, b, i) for a, b in pairs for i in range(3)])
    values = riemann_direct(
        data, (np.tile(x, 18), np.tile(y, 18)),
        *(np.repeat(np.eye(3)[:, k], n, axis=1) for k in index.T)
    ).reshape(6, 3, n)
    out = np.zeros((n, 3, 3))
    for (a, b), (t0, t1, t2) in zip(pairs, values):
        # summed from 0.0 in order of i, as one point's sum is
        out[:, a, b] = out[:, b, a] = 0.0 + t0 + t1 + t2
    return np.moveaxis(out, 0, -1)
