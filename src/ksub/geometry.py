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
respect to it, so inner products are plain dot products. Every closed-form
tensor here is paired with a finite-difference oracle that derives the same
quantity from metric evaluations only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numdiff
from .errors import FdMarginError, OutsideDomainError
from .expr import Expr, Jet, batched, eval_jet, parse, power

__all__ = [
    "Rect",
    "KillingData",
    "FramePoint",
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

# Entries a per-object memo store holds before it is emptied.
CACHE_LIMIT = 200_000


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
            raise ValueError("rectangle must have positive area")

    def contains(self, x, y, margin: float = 0.0):
        """Whether (x, y) lies inside, by more than ``margin``; elementwise
        on coordinate arrays."""
        return ((self.xmin + margin < x) & (x < self.xmax - margin)
                & (self.ymin + margin < y) & (y < self.ymax - margin))

    def margin_at(self, x: float, y: float) -> float:
        """Distance from (x, y) to the boundary (negative outside)."""
        return min(x - self.xmin, self.xmax - x, y - self.ymin, self.ymax - y)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.xmax - self.xmin, self.ymax - self.ymin))

    def grid(self, nx: int, ny: int, inset: float = 0.05):
        """Interior grid points, inset by a fraction of each side."""
        dx = (self.xmax - self.xmin) * inset
        dy = (self.ymax - self.ymin) * inset
        xs = np.linspace(self.xmin + dx, self.xmax - dx, nx)
        ys = np.linspace(self.ymin + dy, self.ymax - dy, ny)
        return [(float(x), float(y)) for x in xs for y in ys]

    def random_point(self, rng, margin_frac: float = 0.15):
        dx = (self.xmax - self.xmin) * margin_frac
        dy = (self.ymax - self.ymin) * margin_frac
        return (float(rng.uniform(self.xmin + dx, self.xmax - dx)),
                float(rng.uniform(self.ymin + dy, self.ymax - dy)))


@dataclass(eq=False)
class KillingData:
    """A canonical metric: the triple (lam, a, b) on a rectangle.

    Positivity of lam is checked on a validation grid at construction.
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
                raise ValueError(f"{name} must be an expression in (x, y)")
        xs, ys = map(np.array, zip(*self.domain.grid(8, 8, inset=0.02)))
        batched(self._require_positive, xs, ys)
        self._jets: dict[tuple, tuple[Jet, Jet, Jet]] = {}

    def _require_positive(self, x, y):
        # a failing batch reruns point by point, so the error names a point
        lam = self.lam(x, y)
        if np.any(lam <= 0.0):
            raise ValueError(
                f"lam must be positive on the domain; lam({x}, {y}) <= 0")
        return lam

    def base_jets(self, x, y) -> tuple[Jet, Jet, Jet]:
        """Jets of (lam, a, b) at a base point, memoised per point; a batch
        is one memo entry, keyed by its coordinates' bytes."""
        if type(x) is np.ndarray:
            return memo(self._jets, (x.tobytes(), y.tobytes()),
                        lambda *_: self._eval_base_jets(x, y))
        return memo(self._jets, (float(x), float(y)), self._eval_base_jets)

    def _eval_base_jets(self, x: float, y: float) -> tuple[Jet, Jet, Jet]:
        point = (x, y)
        return (eval_jet(self.lam, point), eval_jet(self.a, point),
                eval_jet(self.b, point))

    def require_inside(self, x, y, margin: float = 0.0):
        inside = self.domain.contains(x, y, margin)
        if type(x) is np.ndarray:
            if inside.all():
                return
            first = inside.argmin()
            x, y = float(x[first]), float(y[first])
        elif inside:
            return
        raise OutsideDomainError(
            f"point ({x}, {y}) outside domain of {self.description or 'metric'}")


@dataclass(frozen=True)
class FramePoint:
    """Orthonormal frame at a point, rows = coordinate components of E1..E3."""

    point: tuple[float, float, float]
    lam_jet: Jet
    a_jet: Jet
    b_jet: Jet
    vectors: np.ndarray  # shape (3, 3)


def bcv(c: float, mu: float, half_width: float = 3.0) -> KillingData:
    """Bianchi-Cartan-Vranceanu space E(c, mu): constant G = c and r = mu.

    For c < 0 the conformal factor lives on a disk; the domain is the
    inscribed axis-aligned square (slightly shrunk for a safety margin).
    """
    c, mu = float(c), float(mu)
    lam = parse(f"1/(1+({c!r}/4)*(x^2+y^2))", ("x", "y"))
    a = parse(f"-({mu!r})*y" if mu else "0", ("x", "y"))
    b = parse(f"({mu!r})*x" if mu else "0", ("x", "y"))
    if c < 0:
        half = 0.95 * (2.0 / np.sqrt(-c)) / np.sqrt(2.0)
    else:
        half = half_width
    domain = Rect(-half, half, -half, half)
    return KillingData(lam, a, b, domain, description=f"BCV(c={c}, mu={mu})")


# ---------------------------------------------------------------------------
# Scalars of the submersion
# ---------------------------------------------------------------------------

def _base_point(p):
    """(x, y) of a base point: floats, or coordinate arrays for a batch."""
    if type(p[0]) is np.ndarray:
        return p[0], p[1]
    return float(p[0]), float(p[1])


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
    x, y = _base_point(p)
    data.require_inside(x, y)
    r = _bundle_value(data, x, y)
    lam, a, b = data.base_jets(x, y)
    lb, la = lam * b, lam * a
    grad = (0.5 * (lb.hess[0] - la.hess[1]) / lam.value
            - 2.0 * r * lam.grad) / lam.value
    return r, grad


def gauss_curvature(data: KillingData, p) -> float:
    """Gaussian curvature of the base metric, from exact jets of lam (shape
    (N,) on a batch)."""
    x, y = _base_point(p)
    data.require_inside(x, y)
    lam, _, _ = data.base_jets(x, y)
    lam_sq = power(lam.value, 2)
    # Laplacian of log(lam) in the flat background metric
    lap_log = ((lam.hess[0, 0] + lam.hess[1, 1]) / lam.value
               - (power(lam.grad[0], 2) + power(lam.grad[1], 2)) / lam_sq)
    return -lap_log / lam_sq


# ---------------------------------------------------------------------------
# Frame, metric and component conversions
# ---------------------------------------------------------------------------

def frame(data: KillingData, p) -> FramePoint:
    """Orthonormal frame (E1, E2, E3) at a point of the total space."""
    x, y, z = (float(v) for v in p)
    data.require_inside(x, y)
    lam, a, b = data.base_jets(x, y)
    vectors = np.array([
        [1.0 / lam.value, 0.0, a.value],
        [0.0, 1.0 / lam.value, b.value],
        [0.0, 0.0, 1.0],
    ])
    return FramePoint((x, y, z), lam, a, b, vectors)


def metric_matrix(data: KillingData, p) -> np.ndarray:
    """Coordinate metric tensor at a base point (independent of z)."""
    x, y = float(p[0]), float(p[1])
    lam = data.lam(x, y)
    ax = lam * data.a(x, y)
    ay = lam * data.b(x, y)
    return np.array([
        [lam * lam + ax * ax, ax * ay, -ax],
        [ax * ay, lam * lam + ay * ay, -ay],
        [-ax, -ay, 1.0],
    ])


def frame_components(data: KillingData, p, v_coord) -> np.ndarray:
    """Convert a coordinate tangent vector at p to frame components."""
    x, y = float(p[0]), float(p[1])
    lam, a, b = data.base_jets(x, y)
    vx, vy, vz = (float(c) for c in v_coord)
    return np.array([
        lam.value * vx,
        lam.value * vy,
        vz - lam.value * (a.value * vx + b.value * vy),
    ])


def coord_components(data: KillingData, p, v_frame) -> np.ndarray:
    """Convert frame components at p back to coordinate components."""
    x, y = float(p[0]), float(p[1])
    lam, a, b = data.base_jets(x, y)
    f1, f2, f3 = (float(c) for c in v_frame)
    return np.array([
        f1 / lam.value,
        f2 / lam.value,
        f3 + a.value * f1 + b.value * f2,
    ])


def wedge(u, v) -> np.ndarray:
    """Cross product of frame-component vectors (right-hand rule).

    Spelled out on floats: the same products and differences as ``np.cross``,
    bit for bit, without its per-call axis handling.
    """
    u0, u1, u2 = np.asarray(u, dtype=float).tolist()
    v0, v1, v2 = np.asarray(v, dtype=float).tolist()
    return np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])


def rotate_j(v) -> np.ndarray:
    """Quarter-turn of the horizontal part: (v1, v2, *) -> (-v2, v1, 0)."""
    v = np.asarray(v, dtype=float)
    return np.array([-v[1], v[0], 0.0])


# ---------------------------------------------------------------------------
# Levi-Civita connection
# ---------------------------------------------------------------------------

def connection(data: KillingData, p) -> np.ndarray:
    """Closed-form connection coefficients gamma[i, j, k] = <D_{Ei} Ej, Ek>."""
    x, y = float(p[0]), float(p[1])
    data.require_inside(x, y)
    lam, _, _ = data.base_jets(x, y)
    r = _bundle_value(data, x, y)
    lx = lam.grad[0] / lam.value ** 2
    ly = lam.grad[1] / lam.value ** 2

    gamma = np.zeros((3, 3, 3))
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


def connection_oracle(data: KillingData, p, h: float | None = None) -> np.ndarray:
    """Connection table from metric evaluations only (no closed form).

    Coordinate Christoffel symbols come from central differences of the
    coordinate metric, the frame fields are differentiated the same way, and
    the result is projected back onto the frame. Needs an interior point with
    margin >= 2h.
    """
    x, y, _ = (float(v) for v in p)
    if h is None:
        h = FD_SCALE * max(1.0, abs(x), abs(y))
    if data.domain.margin_at(x, y) < 2.0 * h:
        raise FdMarginError(
            f"need margin >= {2 * h} inside the domain around ({x}, {y})")

    def g_at(q):
        return metric_matrix(data, q)

    # dg[c, a, b] = d g_ab / d x_c ; everything is z-independent
    dg = np.zeros((3, 3, 3))
    for c in range(2):
        dg[c] = numdiff.partial1(g_at, (x, y), c, h)

    g = g_at((x, y))
    g_inv = np.linalg.inv(g)
    # Gamma^c_{ab} = 1/2 g^{cd} (dg[a,b,d] + dg[b,a,d] - dg[d,a,b])
    sym = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    christoffel = 0.5 * np.einsum("cd,abd->cab", g_inv, sym)

    def frame_matrix(q):
        return frame(data, (q[0], q[1], 0.0)).vectors

    eframe = frame_matrix((x, y))
    # dE[c, j, k] = d E_j^k / d x_c
    dE = np.zeros((3, 3, 3))
    for c in range(2):
        dE[c] = numdiff.partial1(frame_matrix, (x, y), c, h)

    # (D_{Ei} Ej)^k = Ei^c dE[c, j, k] + Ei^a Ej^b Gamma^k_{ab}
    cov = (np.einsum("ic,cjk->ijk", eframe, dE)
           + np.einsum("ia,jb,kab->ijk", eframe, eframe, christoffel))
    # project with the metric: gamma[i, j, k] = g(cov_ij, E_k)
    return np.einsum("ijc,cd,kd->ijk", cov, g, eframe)


def frame_bracket_12(data: KillingData, p) -> np.ndarray:
    """Frame components of [E1, E2] (the only nonzero frame bracket)."""
    x, y = float(p[0]), float(p[1])
    lam, _, _ = data.base_jets(x, y)
    r = _bundle_value(data, x, y)
    return np.array([lam.grad[1] / lam.value ** 2,
                     -lam.grad[0] / lam.value ** 2,
                     2.0 * r])


def frame_bracket_fd(data: KillingData, p, i: int, j: int,
                     h: float | None = None) -> np.ndarray:
    """[E_i, E_j] in frame components from differentiated frame flows."""
    x, y, z = (float(v) for v in p)
    if h is None:
        h = FD_SCALE * max(1.0, abs(x), abs(y))

    def coord_field(k):
        def field(q):
            return frame(data, (q[0], q[1], z)).vectors[k]
        return field

    ei = coord_field(i)((x, y))
    ej = coord_field(j)((x, y))
    bracket = np.zeros(3)
    for c in range(2):  # z-derivatives vanish
        di_ej = numdiff.partial1(lambda q, c=c: coord_field(j)(q), (x, y), c, h)
        di_ei = numdiff.partial1(lambda q, c=c: coord_field(i)(q), (x, y), c, h)
        bracket = bracket + ei[c] * di_ej - ej[c] * di_ei
    return frame_components(data, (x, y), bracket)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------

def riemann_closed(data: KillingData, p, X, Y, Z, W) -> float:
    """<R(X,Y)Z, W> from the closed-form curvature of the canonical metric.

    Arguments are frame-component vectors at the common point p.
    """
    x, y = float(p[0]), float(p[1])
    X, Y, Z, W = (np.asarray(v, dtype=float) for v in (X, Y, Z, W))
    r, grad = bundle_curvature(data, (x, y))
    g_curv = gauss_curvature(data, (x, y))
    lam = data.lam(x, y)

    def dr(v):
        return v[0] * grad[0] / lam + v[1] * grad[1] / lam

    def dot(u, v):
        return float(u @ v)

    term1 = (g_curv - 3.0 * r * r) * (dot(Y, Z) * dot(X, W)
                                      - dot(X, Z) * dot(Y, W))
    term2 = -(g_curv - 4.0 * r * r) * (
        Y[2] * Z[2] * dot(X, W) - X[2] * Z[2] * dot(Y, W)
        + X[2] * dot(Y, Z) * W[2] - Y[2] * dot(X, Z) * W[2])
    term3 = (dot(Z, rotate_j(W)) * dr(rotate_j(wedge(X, Y)))
             + dot(X, rotate_j(Y)) * dr(rotate_j(wedge(Z, W))))
    return term1 + term2 + term3


def riemann_direct(data: KillingData, p, X, Y, Z, W,
                   h: float | None = None) -> float:
    """<R(X,Y)Z, W> from the definition D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z.

    X, Y, Z, W are taken as constant-frame-component fields. Connection
    tables are differentiated numerically along the flows of X and Y; the
    frame bracket enters through its closed-form components. This is the
    oracle for :func:`riemann_closed`.
    """
    x, y, z = (float(v) for v in p)
    X, Y, Z, W = (np.asarray(v, dtype=float) for v in (X, Y, Z, W))
    if h is None:
        h = FD_SCALE * max(1.0, abs(x), abs(y))
    if data.domain.margin_at(x, y) < 2.0 * h:
        raise FdMarginError(f"need margin >= {2 * h} around ({x}, {y})")

    def gamma_at(q):
        return connection(data, q)

    def cov_const(A, B, q):
        # components of D_A B for constant-component A, B
        return np.einsum("i,j,ijk->k", A, B, gamma_at(q))

    def second_cov(A, B, C):
        # D_A (D_B C) at p, where D_B C is a varying field
        vel = coord_components(data, (x, y), A)
        # keep the spatial displacement of the stencil at ~h
        ht = h / max(1.0, float(np.max(np.abs(vel[:2]))))

        def field(t):
            q = (x + t * vel[0], y + t * vel[1])
            return cov_const(B, C, q)

        deriv = numdiff.d1(field, 0.0, ht)
        inner = cov_const(B, C, (x, y))
        correction = np.einsum("i,m,imk->k", A, inner, gamma_at((x, y)))
        return deriv + correction

    bracket = (X[0] * Y[1] - X[1] * Y[0]) * frame_bracket_12(data, (x, y))
    cov_bracket = np.einsum("i,j,ijk->k", bracket, Z, gamma_at((x, y)))
    curl = second_cov(X, Y, Z) - second_cov(Y, X, Z) - cov_bracket
    return float(curl @ W)


def ricci(data: KillingData, p) -> np.ndarray:
    """Ricci tensor in the frame, from the closed-form component formulas."""
    x, y = float(p[0]), float(p[1])
    r, grad = bundle_curvature(data, (x, y))
    return ricci_from_scalars(r, grad, gauss_curvature(data, (x, y)),
                              data.lam(x, y))


def ricci_from_scalars(r: float, grad, g_curv: float, lam: float) -> np.ndarray:
    """The closed-form Ricci tensor from r, its coordinate gradient, G and
    lam at one base point."""
    m = np.diag([g_curv - 2.0 * r * r, g_curv - 2.0 * r * r, 2.0 * r * r])
    m[0, 2] = m[2, 0] = -grad[1] / lam
    m[1, 2] = m[2, 1] = grad[0] / lam
    return m


def ricci_contraction(data: KillingData, p, h: float | None = None) -> np.ndarray:
    """Ricci by contracting the finite-difference curvature (oracle)."""
    basis = np.eye(3)
    out = np.zeros((3, 3))
    for a in range(3):
        for b in range(a, 3):
            total = 0.0
            for i in range(3):
                total += riemann_direct(data, p, basis[i], basis[a],
                                        basis[b], basis[i], h)
            out[a, b] = out[b, a] = total
    return out
