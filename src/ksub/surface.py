"""Immersed surfaces in a canonical Killing submersion.

A patch is three expressions (u, v) -> (x, y, z) into ``domain x R`` of a
:class:`~ksub.geometry.KillingData`. All tangent data is carried in frame
components, where the ambient inner product is the Euclidean dot.

The shape operator is computed as A(X) = -D_X eta: the unit normal field is
differentiated across the parameter grid (central differences, one
Richardson level) and corrected by the ambient connection. The tilt angle
phi between eta and the vertical Killing direction drives the adapted
tangent frame e1 = T/sin(phi), e2 = eta x T / sin(phi), where T is the
tangential part of the vertical field; the frame degenerates as phi -> 0 and
operations that need it raise :class:`AngleSingularError`.

The point record of :class:`SurfaceEvaluator` splits in two halves. The
immersion half (jets of x, y, z, tangents, first form, normal, the angle and
the vertical tangent) is computed at every point, the stencil points of the
parameter derivatives included. The ambient half (lam, r, its gradient, G and
the connection table at the image point) is computed on its first read: the
connection where a Weingarten map is built, r and G where a check reads them,
and the finite-difference gradient of r only at the points a check is made.

Derivatives of derived surface fields (phi, shape entries, mean curvature)
are finite differences in parameter space with step ``1e-3 * patch
diameter``; none of them raise the order of the exact jet core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import geometry as geo
from .errors import (
    AngleSingularError,
    DegenerateImmersionError,
    FdMarginError,
)
from .expr import Expr, eval_jet, parse
from .numdiff import mixed2, partial1, partial2

__all__ = [
    "SurfacePatch",
    "SurfacePointData",
    "analyze_point",
    "adapted_frame",
    "shape_matrix_adapted",
    "gauss_residual",
    "codazzi_residual",
    "compatibility_residuals",
    "surface_laplacian",
    "induced_gauss_curvature",
    "shape_norm_from_angle",
]

ANGLE_EPS = 1e-6   # sin(phi) below this: no adapted frame
PARAM_STEP_FRAC = 1e-3
REGULARITY_TOL = 1e-10


@dataclass(eq=False)
class SurfacePatch:
    """Parametrized surface (immersion expressions share the parameter pair)."""

    x: Expr
    y: Expr
    z: Expr
    domain: geo.Rect
    ambient: geo.KillingData
    flip_normal: bool = False
    name: str = ""

    def __post_init__(self):
        params = self.x.variables
        if len(params) != 2:
            raise ValueError("immersion expressions need exactly 2 parameters")
        if self.y.variables != params or self.z.variables != params:
            raise ValueError("immersion components disagree on parameters")
        self._evaluator = None
        ev = self.evaluator()
        for (u, v) in self.domain.grid(5, 5, inset=0.02):
            d = ev.data(u, v)
            if np.linalg.det(d.first_form) <= REGULARITY_TOL:
                raise DegenerateImmersionError(
                    f"immersion degenerate near parameters ({u}, {v})")

    @property
    def params(self) -> tuple[str, str]:
        return self.x.variables  # type: ignore[return-value]

    def evaluator(self) -> "SurfaceEvaluator":
        if self._evaluator is None:
            self._evaluator = SurfaceEvaluator(self)
        return self._evaluator

    def flipped(self) -> "SurfacePatch":
        return replace(self, flip_normal=not self.flip_normal)

    @classmethod
    def graph(cls, ambient: geo.KillingData, height, domain: geo.Rect | None = None,
              **kwargs) -> "SurfacePatch":
        """Vertical graph z = height(x, y) parametrized by the base coords."""
        if isinstance(height, str):
            height = parse(height, ("x", "y"))
        if domain is None:
            domain = ambient.domain
        return cls(parse("x", ("x", "y")), parse("y", ("x", "y")), height,
                   domain, ambient, **kwargs)


@dataclass
class _PointData:
    """Immersion data, computed at every point, and ambient data at the
    image point, each computed on its first read."""

    ambient: geo.KillingData
    params: tuple[float, float]
    point: tuple[float, float, float]
    coord_tangents: np.ndarray      # (2, 3) rows d/du, d/dv in coordinates
    tangents: np.ndarray            # (2, 3) same rows in frame components
    first_form: np.ndarray          # (2, 2)
    normal: np.ndarray              # unit, frame components, oriented
    cos_phi: float
    sin_phi: float
    phi: float
    vertical_tangent: np.ndarray    # T = xi - cos(phi) eta, frame components

    @cached_property
    def lam(self) -> float:
        return self.ambient.lam(*self.point[:2])

    @cached_property
    def r(self) -> float:
        return geo._bundle_value(self.ambient, *self.point[:2])

    @cached_property
    def grad_r(self) -> np.ndarray:
        """Coordinate gradient (r_x, r_y)."""
        return geo.bundle_curvature(self.ambient, self.point[:2])[1]

    @cached_property
    def gauss_base(self) -> float:
        return geo.gauss_curvature(self.ambient, self.point[:2])

    @cached_property
    def gamma(self) -> np.ndarray:
        """Ambient connection table at the point."""
        return geo.connection(self.ambient, self.point)


@dataclass
class _Weingarten:
    shape_frame: np.ndarray   # (2, 3): rows A(d/du), A(d/dv) in frame comps
    ortho_basis: np.ndarray   # (2, 3): rows f1, f2 (orthonormal tangents)
    ortho_coeffs: np.ndarray  # (2, 2): rows = (du, dv) coefficients of f1, f2
    shape_ortho: np.ndarray   # (2, 2): <A(f_a), f_b>
    mean_h: float
    norm_sq: float


@dataclass
class SurfacePointData:
    """Everything first- and second-order at one parameter point.

    The shape operator ``shape_ortho`` lives in the orthonormalized
    (d/du, d/dv) basis ``ortho_basis``; ``mean_h`` is its trace. ``e1, e2``
    form the adapted frame (None within ANGLE_EPS of a vertical normal).
    """

    params: tuple[float, float]
    point: tuple[float, float, float]
    tangents: np.ndarray
    first_form: np.ndarray
    normal: np.ndarray
    cos_phi: float
    phi: float
    vertical_tangent: np.ndarray
    ortho_basis: np.ndarray
    shape_ortho: np.ndarray
    mean_h: float
    norm_sq_shape: float
    e1: np.ndarray | None
    e2: np.ndarray | None
    r: float
    grad_r: np.ndarray
    gauss_base: float
    lam: float


class SurfaceEvaluator:
    """Memoized per-point computations over one patch."""

    def __init__(self, patch: SurfacePatch):
        self.patch = patch
        self.h = PARAM_STEP_FRAC * patch.domain.diameter
        self._data: dict[tuple[float, float], _PointData] = {}
        self._wein: dict[tuple[float, float], _Weingarten] = {}

    # -- core point data -----------------------------------------------------

    def data(self, u: float, v: float) -> _PointData:
        return geo.memo(self._data, (u, v), self._compute_data)

    def _compute_data(self, u: float, v: float) -> _PointData:
        patch = self.patch
        K = patch.ambient
        point = (u, v)
        jx = eval_jet(patch.x, point)
        jy = eval_jet(patch.y, point)
        jz = eval_jet(patch.z, point)
        x, y, z = jx.value, jy.value, jz.value
        K.require_inside(x, y)

        coord_tangents = np.array([
            [jx.grad[0], jy.grad[0], jz.grad[0]],
            [jx.grad[1], jy.grad[1], jz.grad[1]],
        ])
        tangents = np.stack([
            geo.frame_components(K, (x, y), coord_tangents[0]),
            geo.frame_components(K, (x, y), coord_tangents[1]),
        ])
        first_form = tangents @ tangents.T
        if np.linalg.det(first_form) <= REGULARITY_TOL:
            raise DegenerateImmersionError(
                f"immersion degenerate at parameters ({u}, {v})")

        raw = geo.wedge(tangents[0], tangents[1])
        normal = raw / np.linalg.norm(raw)
        if patch.flip_normal:
            normal = -normal

        cos_phi = float(normal[2])
        cos_phi = max(-1.0, min(1.0, cos_phi))
        phi = math.acos(cos_phi)
        sin_phi = math.sqrt(max(0.0, 1.0 - cos_phi * cos_phi))
        vertical_tangent = np.array([0.0, 0.0, 1.0]) - cos_phi * normal
        return _PointData(K, (u, v), (x, y, z), coord_tangents, tangents,
                          first_form, normal, cos_phi, sin_phi, phi,
                          vertical_tangent)

    # -- shape operator --------------------------------------------------------

    def weingarten(self, u: float, v: float) -> _Weingarten:
        return geo.memo(self._wein, (u, v), self._compute_weingarten)

    def _require_margin(self, u, v, need):
        if self.patch.domain.margin_at(u, v) < need:
            raise FdMarginError(
                f"parameter point ({u}, {v}) too close to the patch edge "
                f"for a stencil of width {need}")

    def _normal_derivatives(self, u: float, v: float) -> np.ndarray:
        """d eta / d(u, v) with one Richardson level; shape (2, 3)."""
        h = self.h
        self._require_margin(u, v, 1.5 * h)
        return np.stack([partial1(lambda q: self.data(*q).normal, (u, v), i, h)
                         for i in range(2)])

    def _compute_weingarten(self, u: float, v: float) -> _Weingarten:
        d = self.data(u, v)
        dn = self._normal_derivatives(u, v)
        shape_frame = np.empty((2, 3))
        for i in range(2):
            correction = np.einsum("i,m,imk->k", d.tangents[i], d.normal,
                                   d.gamma)
            shape_frame[i] = -(dn[i] + correction)

        g = d.first_form
        f1 = d.tangents[0] / math.sqrt(g[0, 0])
        c1 = np.array([1.0 / math.sqrt(g[0, 0]), 0.0])
        w = d.tangents[1] - (g[0, 1] / g[0, 0]) * d.tangents[0]
        wn = np.linalg.norm(w)
        f2 = w / wn
        c2 = np.array([-g[0, 1] / g[0, 0], 1.0]) / wn
        ortho_basis = np.stack([f1, f2])
        ortho_coeffs = np.stack([c1, c2])

        shape_ortho = np.empty((2, 2))
        for a in range(2):
            av = ortho_coeffs[a] @ shape_frame
            for b in range(2):
                shape_ortho[a, b] = float(av @ ortho_basis[b])
        mean_h = float(np.trace(shape_ortho))
        norm_sq = float(np.sum(shape_ortho * shape_ortho))
        return _Weingarten(shape_frame, ortho_basis, ortho_coeffs,
                           shape_ortho, mean_h, norm_sq)

    def shape_apply_coeff(self, u: float, v: float, coeff) -> np.ndarray:
        """A applied to a tangent vector given by (du, dv) coefficients."""
        return np.asarray(coeff, dtype=float) @ self.weingarten(u, v).shape_frame

    def shape_operator_coeff(self, u: float, v: float) -> np.ndarray:
        """Matrix M with A(d_j) = sum_i M[i, j] d_i in the coordinate basis."""
        d = self.data(u, v)
        w = self.weingarten(u, v)
        cols = [self.tangent_coefficients(d, w.shape_frame[j]) for j in range(2)]
        return np.stack(cols, axis=1)

    # -- adapted frame ---------------------------------------------------------

    def adapted(self, u: float, v: float) -> tuple[np.ndarray, np.ndarray]:
        d = self.data(u, v)
        if d.sin_phi < ANGLE_EPS:
            raise AngleSingularError(
                f"sin(phi) = {d.sin_phi:.2e} at parameters ({u}, {v}); "
                "the vertical field is normal and no adapted frame exists")
        e1 = d.vertical_tangent / d.sin_phi
        e2 = geo.wedge(d.normal, d.vertical_tangent) / d.sin_phi
        return e1, e2

    def tangent_coefficients(self, d: _PointData, vec_frame) -> np.ndarray:
        """(du, dv) coefficients of a tangent vector in frame components."""
        rhs = d.tangents @ np.asarray(vec_frame, dtype=float)
        return np.linalg.solve(d.first_form, rhs)

    # -- derivatives of scalar fields over parameters ---------------------------

    def dfield(self, field: Callable[[float, float], float],
               u: float, v: float) -> np.ndarray:
        """(d/du, d/dv) of a scalar field, central + Richardson."""
        return np.array([partial1(lambda q: field(*q), (u, v), i, self.h)
                         for i in range(2)])

    def directional(self, field, coeff, u, v) -> float:
        dd = self.dfield(field, u, v)
        return float(np.asarray(coeff) @ dd)

    def base_directional_r(self, d: _PointData, vec_frame) -> float:
        """Derivative of the bundle curvature along a tangent frame vector."""
        v = np.asarray(vec_frame, dtype=float)
        return float((v[0] * d.grad_r[0] + v[1] * d.grad_r[1]) / d.lam)

    def phi_field(self, u: float, v: float) -> float:
        return self.data(u, v).phi

    def mean_h_field(self, u: float, v: float) -> float:
        return self.weingarten(u, v).mean_h

    # -- induced metric machinery ----------------------------------------------

    def induced_christoffels(self, u: float, v: float) -> np.ndarray:
        """Christoffel symbols of the first fundamental form, (k, i, j)."""
        dg = np.stack([partial1(lambda q: self.data(*q).first_form, (u, v),
                                c, self.h) for c in range(2)])
        g_inv = np.linalg.inv(self.data(u, v).first_form)
        sym = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
        return 0.5 * np.einsum("cd,abd->cab", g_inv, sym)

    def covariant_coeff(self, field_coeff: Callable[[float, float], np.ndarray],
                        direction, u: float, v: float) -> np.ndarray:
        """Surface covariant derivative of a tangent coefficient field."""
        chris = self.induced_christoffels(u, v)
        w = field_coeff(u, v)
        direction = np.asarray(direction, dtype=float)
        out = np.zeros(2)
        for i in range(2):
            dw = partial1(lambda q: field_coeff(*q), (u, v), i, self.h)
            out += direction[i] * (dw + chris[:, i, :] @ w)
        return out

    def coordinate_bracket(self, a_coeff, b_coeff, u, v) -> np.ndarray:
        """[a, b] of tangent coefficient fields via the coordinate formula."""
        a0 = a_coeff(u, v)
        b0 = b_coeff(u, v)
        out = np.zeros(2)
        for i in range(2):
            da_i = partial1(lambda q: a_coeff(*q), (u, v), i, self.h)
            db_i = partial1(lambda q: b_coeff(*q), (u, v), i, self.h)
            out += a0[i] * db_i - b0[i] * da_i
        return out

    def laplacian(self, field: Callable[[float, float], float],
                  u: float, v: float) -> float:
        """Laplace-Beltrami (div grad convention) of a parameter field."""
        h = self.h
        self._require_margin(u, v, 3.0 * h)

        def flux(q):
            g = self.data(*q).first_form
            g_inv = np.linalg.inv(g)
            root = math.sqrt(np.linalg.det(g))
            grad = np.array([partial1(lambda s: field(*s), q, j, h,
                                      richardson=False) for j in range(2)])
            return root * (g_inv @ grad)

        div = 0.0
        for i in range(2):
            div += partial1(lambda q: flux(q)[i], (u, v), i, h)
        g = self.data(u, v).first_form
        return float(div / math.sqrt(np.linalg.det(g)))

    def brioschi_curvature(self, u: float, v: float) -> float:
        """Gaussian curvature of the induced metric, Brioschi formula."""
        h, p = self.h, (u, v)
        self._require_margin(u, v, 2.5 * h)

        def entry(i, j):
            return lambda q: self.data(*q).first_form[i, j]

        g = self.data(u, v).first_form
        E, F, G = g[0, 0], g[0, 1], g[1, 1]
        E_u, E_v = partial1(entry(0, 0), p, 0, h), partial1(entry(0, 0), p, 1, h)
        G_u, G_v = partial1(entry(1, 1), p, 0, h), partial1(entry(1, 1), p, 1, h)
        F_u, F_v = partial1(entry(0, 1), p, 0, h), partial1(entry(0, 1), p, 1, h)
        E_vv = partial2(entry(0, 0), p, 1, h)
        G_uu = partial2(entry(1, 1), p, 0, h)
        F_uv = mixed2(entry(0, 1), p, 0, 1, h)

        m1 = np.array([
            [-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v],
            [F_v - 0.5 * G_u, E, F],
            [0.5 * G_v, F, G],
        ])
        m2 = np.array([
            [0.0, 0.5 * E_v, 0.5 * G_u],
            [0.5 * E_v, E, F],
            [0.5 * G_u, F, G],
        ])
        denom = (E * G - F * F) ** 2
        return float((np.linalg.det(m1) - np.linalg.det(m2)) / denom)

    # -- adapted frame as coefficient fields -------------------------------------

    def adapted_coeffs(self, u: float, v: float) -> tuple[np.ndarray, np.ndarray]:
        d = self.data(u, v)
        e1, e2 = self.adapted(u, v)
        return (self.tangent_coefficients(d, e1),
                self.tangent_coefficients(d, e2))

    def adapted_directional(self, field, which: int, u: float, v: float) -> float:
        """e_i(field) for the adapted frame, i in {0, 1}."""
        coeffs = self.adapted_coeffs(u, v)[which]
        return self.directional(field, coeffs, u, v)


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def analyze_point(patch: SurfacePatch, q) -> SurfacePointData:
    """Full first/second-order package at a parameter point."""
    u, v = float(q[0]), float(q[1])
    ev = patch.evaluator()
    d = ev.data(u, v)
    w = ev.weingarten(u, v)
    if d.sin_phi >= ANGLE_EPS:
        e1, e2 = ev.adapted(u, v)
    else:
        e1 = e2 = None
    return SurfacePointData(
        params=(u, v), point=d.point, tangents=d.tangents,
        first_form=d.first_form, normal=d.normal, cos_phi=d.cos_phi,
        phi=d.phi, vertical_tangent=d.vertical_tangent,
        ortho_basis=w.ortho_basis, shape_ortho=w.shape_ortho,
        mean_h=w.mean_h, norm_sq_shape=w.norm_sq, e1=e1, e2=e2,
        r=d.r, grad_r=d.grad_r, gauss_base=d.gauss_base, lam=d.lam)


def adapted_frame(data: SurfacePointData) -> tuple[np.ndarray, np.ndarray]:
    """The adapted tangent pair of an analyzed point (raises if undefined)."""
    if data.e1 is None or data.e2 is None:
        raise AngleSingularError(
            f"adapted frame undefined at parameters {data.params}: "
            "the vertical field is normal to the surface")
    return data.e1, data.e2


def shape_matrix_adapted(patch: SurfacePatch, q) -> np.ndarray:
    """Shape operator in the adapted frame from angle derivatives.

    The matrix is [[e1(phi), e2(phi) - r], [e2(phi) - r, H - e1(phi)]];
    it must agree with the Weingarten computation expressed in (e1, e2).
    """
    u, v = float(q[0]), float(q[1])
    ev = patch.evaluator()
    d = ev.data(u, v)
    ev.adapted(u, v)  # raises when singular
    e1_phi = ev.adapted_directional(ev.phi_field, 0, u, v)
    e2_phi = ev.adapted_directional(ev.phi_field, 1, u, v)
    mean_h = ev.weingarten(u, v).mean_h
    off = e2_phi - d.r
    return np.array([[e1_phi, off], [off, mean_h - e1_phi]])


def induced_gauss_curvature(patch: SurfacePatch, q) -> float:
    """Intrinsic curvature of the induced metric (Brioschi, nested FD)."""
    return patch.evaluator().brioschi_curvature(float(q[0]), float(q[1]))


def gauss_residual(patch: SurfacePatch, q) -> float:
    """Gauss equation defect: K_induced minus the ambient-side expression

        det A + r^2 + (G - 4 r^2) cos^2(phi) - sin(2 phi) e2(r).
    """
    u, v = float(q[0]), float(q[1])
    ev = patch.evaluator()
    d = ev.data(u, v)
    _, e2 = ev.adapted(u, v)
    w = ev.weingarten(u, v)
    k_ind = ev.brioschi_curvature(u, v)
    e2_r = ev.base_directional_r(d, e2)
    rhs = (np.linalg.det(w.shape_ortho) + d.r ** 2
           + (d.gauss_base - 4.0 * d.r ** 2) * d.cos_phi ** 2
           - math.sin(2.0 * d.phi) * e2_r)
    return float(k_ind - rhs)


def codazzi_residual(patch: SurfacePatch, q) -> np.ndarray:
    """Codazzi equation defect in adapted-frame components.

    Left side: D_{e1} A(e2) - D_{e2} A(e1) - A([e1, e2]) with surface
    covariant derivatives from the induced-metric Christoffels. Right side:
    [(4 r^2 - G) cos(phi) sin(phi) - cos(2 phi) e2(r)] e2 - e1(r) e1.
    """
    u, v = float(q[0]), float(q[1])
    ev = patch.evaluator()
    d = ev.data(u, v)
    e1, e2 = ev.adapted(u, v)

    def e1_coeff(uu, vv):
        return ev.adapted_coeffs(uu, vv)[0]

    def e2_coeff(uu, vv):
        return ev.adapted_coeffs(uu, vv)[1]

    def a_of_e2(uu, vv):
        return ev.shape_operator_coeff(uu, vv) @ e2_coeff(uu, vv)

    def a_of_e1(uu, vv):
        return ev.shape_operator_coeff(uu, vv) @ e1_coeff(uu, vv)

    c1 = e1_coeff(u, v)
    c2 = e2_coeff(u, v)
    term1 = ev.covariant_coeff(a_of_e2, c1, u, v)
    term2 = ev.covariant_coeff(a_of_e1, c2, u, v)
    bracket = ev.coordinate_bracket(e1_coeff, e2_coeff, u, v)
    a_bracket = ev.shape_operator_coeff(u, v) @ bracket
    lhs_coeff = term1 - term2 - a_bracket
    lhs = lhs_coeff @ d.tangents  # frame components

    e1_r = ev.base_directional_r(d, e1)
    e2_r = ev.base_directional_r(d, e2)
    sin_phi = math.sin(d.phi)
    rhs_e2 = ((4.0 * d.r ** 2 - d.gauss_base) * d.cos_phi * sin_phi
              - math.cos(2.0 * d.phi) * e2_r)
    rhs = rhs_e2 * e2 - e1_r * e1
    diff = lhs - rhs
    return np.array([float(diff @ e1), float(diff @ e2)])


def compatibility_residuals(patch: SurfacePatch, q) -> tuple[float, float]:
    """Defects of the two structure identities tying T, A and the angle.

    First: D_X T = cos(phi) (A(X) - r eta x X) over X in the adapted frame
    (worst frame-component norm). Second: <A(X) - r eta x X, T> + X(cos phi)
    (worst absolute value).
    """
    u, v = float(q[0]), float(q[1])
    ev = patch.evaluator()
    d = ev.data(u, v)
    e1, e2 = ev.adapted(u, v)

    def t_coeff(uu, vv):
        dd = ev.data(uu, vv)
        return ev.tangent_coefficients(dd, dd.vertical_tangent)

    def cos_field(uu, vv):
        return ev.data(uu, vv).cos_phi

    res1 = []
    res2 = []
    for vec in (e1, e2):
        coeff = ev.tangent_coefficients(d, vec)
        nabla_t = ev.covariant_coeff(t_coeff, coeff, u, v) @ d.tangents
        a_vec = ev.shape_apply_coeff(u, v, coeff)
        eta_wedge = geo.wedge(d.normal, vec)
        first = nabla_t - d.cos_phi * (a_vec - d.r * eta_wedge)
        res1.append(np.linalg.norm(first))
        res2.append((a_vec - d.r * eta_wedge) @ d.vertical_tangent
                    + ev.directional(cos_field, coeff, u, v))
    # np.max, unlike max, propagates a nan, so a nan residual fails
    return float(np.max(res1)), float(np.max(np.abs(res2)))


def surface_laplacian(patch: SurfacePatch, field, q) -> float:
    """Laplace-Beltrami operator (div grad) applied to a parameter field."""
    return patch.evaluator().laplacian(field, float(q[0]), float(q[1]))


def shape_norm_from_angle(patch: SurfacePatch, q) -> float:
    """|A|^2 assembled from angle derivatives instead of the Weingarten map:

        2 (e1(phi)^2 + e2(phi)^2) + H^2 + 2 r^2 - 4 r e2(phi) - 2 H e1(phi)
    """
    u, v = float(q[0]), float(q[1])
    ev = patch.evaluator()
    d = ev.data(u, v)
    ev.adapted(u, v)  # raises when singular
    e1_phi = ev.adapted_directional(ev.phi_field, 0, u, v)
    e2_phi = ev.adapted_directional(ev.phi_field, 1, u, v)
    mean_h = ev.weingarten(u, v).mean_h
    return (2.0 * (e1_phi ** 2 + e2_phi ** 2) + mean_h ** 2 + 2.0 * d.r ** 2
            - 4.0 * d.r * e2_phi - 2.0 * mean_h * e1_phi)
