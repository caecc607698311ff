"""Immersed surfaces in a canonical Killing submersion.

A patch is three expressions (u, v) -> (x, y, z) into ``domain x R`` of a
:class:`~ksub.geometry.KillingData`. All tangent data is carried in frame
components, where the ambient inner product is the Euclidean dot.

The shape operator is exact: the second fundamental form
h_ij = <D_i t_j, eta> comes from the order-2 jets of the immersion and of
(lam, a, b) and the ambient connection, and A = I^-1 h; the same derivatives
d_i t_j of the frame tangents give the first form's Christoffels exactly.
The finite-difference route A(X) = -D_X eta (the unit normal differentiated
across the parameter grid) is kept as its oracle, :func:`shape_frame_fd`.
The tilt angle phi between eta and the vertical Killing direction drives the
adapted tangent frame e1 = T/sin(phi), e2 = eta x T / sin(phi), where T is
the tangential part of the vertical field; the frame degenerates as
phi -> 0 and operations that need it raise :class:`AngleSingularError`.

Each parameter point has one record, kept in its patch's store and read
through the patch's :class:`SurfaceEvaluator` view. The immersion half (jets
of x, y, z, tangents, first form, normal, the angle and the vertical tangent)
is computed at every point, the stencil points of the parameter derivatives
included. The ambient half (lam, r, its gradient, G and the connection table
at the image point), the Christoffels and the adapted frame are computed on
their first read, all from the order-2 jets at the point. The Weingarten
half (shape operator, mean curvature, |A|^2) is filled in place, from the
point's own record, where the shape operator is asked for.

Derivatives of derived surface fields (phi, shape entries, mean curvature)
are finite differences in parameter space with step h = ``1e-3 * patch
diameter``, one stencil level each, and need a margin of h from the patch
edge; only the Brioschi curvature, the Gauss check's intrinsic oracle,
differentiates the first form numerically.
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
from .numdiff import derivatives, partial1

__all__ = [
    "SurfacePatch",
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
        # the patch owns its point records; evaluators are views over them,
        # so a dropped patch frees its records by reference count
        self._points: dict[tuple[float, float], _PointData] = {}
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
        return SurfaceEvaluator(self)

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
    """Everything first- and second-order at one parameter point.

    Immersion data (the jets of x, y, z up to their Hessians) is computed at
    every point; ambient data at the image point, ``tangent_derivs``,
    ``christoffels`` and the adapted frame ``e1, e2`` (None within ANGLE_EPS
    of a vertical normal) on their first read. The Weingarten half is None
    until :meth:`SurfaceEvaluator.weingarten` fills it exactly: the shape
    operator ``shape_ortho`` lives in the orthonormalized (d/du, d/dv) basis
    ``ortho_basis``, ``mean_h`` is its trace and ``norm_sq`` is |A|^2.
    """

    ambient: geo.KillingData
    params: tuple[float, float]
    point: tuple[float, float, float]
    coord_tangents: np.ndarray      # (2, 3) rows d/du, d/dv in coordinates
    coord_hessians: np.ndarray      # (2, 2, 3) d^2/du_i du_j in coordinates
    tangents: np.ndarray            # (2, 3) same rows in frame components
    first_form: np.ndarray          # (2, 2)
    normal: np.ndarray              # unit, frame components, oriented
    cos_phi: float
    sin_phi: float
    phi: float
    vertical_tangent: np.ndarray    # T = xi - cos(phi) eta, frame components
    shape_frame: np.ndarray | None = None  # (2, 3): rows A(d/du), A(d/dv)
    ortho_basis: np.ndarray | None = None  # (2, 3): rows f1, f2 (orthonormal)
    shape_ortho: np.ndarray | None = None  # (2, 2): <A(f_a), f_b>
    mean_h: float | None = None
    norm_sq: float | None = None

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

    @cached_property
    def tangent_derivs(self) -> np.ndarray:
        """(2, 2, 3): d_i t_j, parameter derivatives of the frame tangents."""
        # t_j = M dF/du_j, M = [[lam, 0, 0], [0, lam, 0], [-lam a, -lam b, 1]]
        lam, ja, jb = self.ambient.base_jets(*self.point[:2])
        la = lam.value * ja.grad + ja.value * lam.grad   # grad of lam a
        lb = lam.value * jb.grad + jb.value * lam.grad
        m = np.array([[lam.value, 0.0, 0.0], [0.0, lam.value, 0.0],
                      [-lam.value * ja.value, -lam.value * jb.value, 1.0]])
        dm = np.array([[[lam.grad[c], 0.0, 0.0], [0.0, lam.grad[c], 0.0],
                        [-la[c], -lb[c], 0.0]] for c in range(2)])
        dm_du = np.einsum("ic,cab->iab", self.coord_tangents[:, :2], dm)
        return (np.einsum("iab,jb->ija", dm_du, self.coord_tangents)
                + self.coord_hessians @ m.T)

    @cached_property
    def christoffels(self) -> np.ndarray:
        """Christoffel symbols of the first fundamental form, (k, i, j)."""
        # d_i g_jk = <d_i t_j, t_k> + <t_j, d_i t_k>
        p = self.tangent_derivs @ self.tangents.T
        dg = p + p.transpose(0, 2, 1)
        sym = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
        return 0.5 * np.einsum("cd,abd->cab", np.linalg.inv(self.first_form),
                               sym)

    @cached_property
    def e1(self) -> np.ndarray | None:
        if self.sin_phi < ANGLE_EPS:
            return None
        return self.vertical_tangent / self.sin_phi

    @cached_property
    def e2(self) -> np.ndarray | None:
        if self.sin_phi < ANGLE_EPS:
            return None
        return geo.wedge(self.normal, self.vertical_tangent) / self.sin_phi


class SurfaceEvaluator:
    """Per-point computations over one patch, memoized in the patch's store."""

    def __init__(self, patch: SurfacePatch):
        self.patch = patch
        self.h = PARAM_STEP_FRAC * patch.domain.diameter
        self._data = patch._points

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
        coord_hessians = np.stack([jx.hess, jy.hess, jz.hess], axis=-1)
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
        return _PointData(K, (u, v), (x, y, z), coord_tangents,
                          coord_hessians, tangents, first_form, normal,
                          cos_phi, sin_phi, phi, vertical_tangent)

    # -- shape operator --------------------------------------------------------

    def weingarten(self, u: float, v: float) -> _PointData:
        """The point's record with its Weingarten half filled in."""
        d = self.data(u, v)
        if d.shape_frame is None:
            self._fill_weingarten(d)
        return d

    def require_margin(self, u, v, need):
        if self.patch.domain.margin_at(u, v) < need:
            raise FdMarginError(
                f"parameter point ({u}, {v}) too close to the patch edge "
                f"for a stencil of width {need}")

    def _fill_weingarten(self, d: _PointData) -> None:
        # h_ij = <d_i t_j + gamma(t_i, t_j), eta>
        cov = d.tangent_derivs + np.einsum("il,jm,lmk->ijk", d.tangents,
                                           d.tangents, d.gamma)
        shape_frame = np.linalg.solve(d.first_form, cov @ d.normal).T @ d.tangents

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
        d.ortho_basis, d.shape_ortho = ortho_basis, shape_ortho
        d.mean_h = float(np.trace(shape_ortho))
        d.norm_sq = float(np.sum(shape_ortho * shape_ortho))
        d.shape_frame = shape_frame  # last: weingarten() reads it as "filled"

    def shape_apply_coeff(self, u: float, v: float, coeff) -> np.ndarray:
        """A applied to a tangent vector given by (du, dv) coefficients."""
        return np.asarray(coeff, dtype=float) @ self.weingarten(u, v).shape_frame

    def shape_operator_coeff(self, u: float, v: float) -> np.ndarray:
        """Matrix M with A(d_j) = sum_i M[i, j] d_i in the coordinate basis."""
        d = self.weingarten(u, v)
        cols = [self.tangent_coefficients(d, d.shape_frame[j]) for j in range(2)]
        return np.stack(cols, axis=1)

    # -- adapted frame ---------------------------------------------------------

    def adapted(self, u: float, v: float) -> tuple[np.ndarray, np.ndarray]:
        d = self.data(u, v)
        if d.e1 is None:
            raise AngleSingularError(
                f"sin(phi) = {d.sin_phi:.2e} at parameters ({u}, {v}); "
                "the vertical field is normal and no adapted frame exists")
        return d.e1, d.e2

    def tangent_coefficients(self, d: _PointData, vec_frame) -> np.ndarray:
        """(du, dv) coefficients of a tangent vector in frame components."""
        rhs = d.tangents @ np.asarray(vec_frame, dtype=float)
        return np.linalg.solve(d.first_form, rhs)

    # -- derivatives of scalar fields over parameters ---------------------------

    def dfield(self, field: Callable, u: float, v: float) -> np.ndarray:
        """(d/du, d/dv) of a scalar or array field, central + Richardson;
        the stencil reaches h, so the point needs that margin."""
        self.require_margin(u, v, self.h)
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

    def covariant_coeff(self, field_coeff: Callable[[float, float], np.ndarray],
                        direction, u: float, v: float) -> np.ndarray:
        """Surface covariant derivative of a tangent coefficient field."""
        chris = self.data(u, v).christoffels
        w = field_coeff(u, v)
        dw = self.dfield(field_coeff, u, v)
        direction = np.asarray(direction, dtype=float)
        out = np.zeros(2)
        for i in range(2):
            out += direction[i] * (dw[i] + chris[:, i, :] @ w)
        return out

    def laplacian(self, field: Callable[[float, float], float],
                  u: float, v: float) -> float:
        """Laplace-Beltrami (div grad convention) of a parameter field:
        g^ij (f_ij - Gamma^k_ij f_k), one sampling pass over the field and
        the exact Christoffels of the point's record."""
        self.require_margin(u, v, self.h)
        d = self.data(u, v)
        _, grad, hess = derivatives(lambda q: field(*q), (u, v), self.h)
        hess -= np.einsum("kij,k->ij", d.christoffels, grad)
        return float(np.sum(np.linalg.inv(d.first_form) * hess))

    def brioschi_curvature(self, u: float, v: float) -> float:
        """Gaussian curvature of the induced metric, Brioschi formula, from
        one sampling pass over the first form."""
        self.require_margin(u, v, self.h)
        g, dg, ddg = derivatives(lambda q: self.data(*q).first_form, (u, v),
                                 self.h)
        E, F, G = g[0, 0], g[0, 1], g[1, 1]
        E_u, F_u, G_u = dg[0, 0, 0], dg[0, 0, 1], dg[0, 1, 1]
        E_v, F_v, G_v = dg[1, 0, 0], dg[1, 0, 1], dg[1, 1, 1]
        E_vv, F_uv, G_uu = ddg[1, 1, 0, 0], ddg[0, 1, 0, 1], ddg[0, 0, 1, 1]

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

def analyze_point(patch: SurfacePatch, q) -> _PointData:
    """Full first/second-order package at a parameter point."""
    return patch.evaluator().weingarten(float(q[0]), float(q[1]))


def shape_frame_fd(patch: SurfacePatch, q) -> np.ndarray:
    """Oracle for the exact Weingarten map: rows A(d/du), A(d/dv) from
    A(X) = -D_X eta, the unit normal differentiated across the parameter
    grid (central differences, one Richardson level) plus the connection."""
    u, v = float(q[0]), float(q[1])
    ev = patch.evaluator()
    d = ev.data(u, v)
    d_normal = ev.dfield(lambda uu, vv: ev.data(uu, vv).normal, u, v)
    return np.stack([
        -(d_normal[i]
          + np.einsum("i,m,imk->k", d.tangents[i], d.normal, d.gamma))
        for i in range(2)])


def adapted_frame(data: _PointData) -> tuple[np.ndarray, np.ndarray]:
    """The adapted tangent pair of an analyzed point (raises if undefined)."""
    if data.e1 is None or data.e2 is None:
        raise AngleSingularError(
            f"adapted frame undefined at parameters {data.params}: "
            "the vertical field is normal to the surface")
    return data.e1, data.e2


def _angle_derivatives(patch: SurfacePatch, q):
    """(record, e1(phi), e2(phi), H) at q; raises where no adapted frame."""
    u, v = float(q[0]), float(q[1])
    ev = patch.evaluator()
    d = ev.data(u, v)
    ev.adapted(u, v)  # raises when singular
    e1_phi = ev.adapted_directional(ev.phi_field, 0, u, v)
    e2_phi = ev.adapted_directional(ev.phi_field, 1, u, v)
    return d, e1_phi, e2_phi, ev.weingarten(u, v).mean_h


def shape_matrix_adapted(patch: SurfacePatch, q) -> np.ndarray:
    """Shape operator in the adapted frame from angle derivatives.

    The matrix is [[e1(phi), e2(phi) - r], [e2(phi) - r, H - e1(phi)]];
    it must agree with the Weingarten computation expressed in (e1, e2).
    """
    d, e1_phi, e2_phi, mean_h = _angle_derivatives(patch, q)
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
    _, e2 = ev.adapted(u, v)
    d = ev.weingarten(u, v)
    k_ind = ev.brioschi_curvature(u, v)
    e2_r = ev.base_directional_r(d, e2)
    rhs = (np.linalg.det(d.shape_ortho) + d.r ** 2
           + (d.gauss_base - 4.0 * d.r ** 2) * d.cos_phi ** 2
           - math.sin(2.0 * d.phi) * e2_r)
    return float(k_ind - rhs)


def codazzi_residual(patch: SurfacePatch, q) -> np.ndarray:
    """Codazzi equation defect in adapted-frame components.

    Left side: (nabla_{e1} A)(e2) - (nabla_{e2} A)(e1), tensorial and
    antisymmetric, so det(c1, c2) [d_u S_v - d_v S_u + Gamma_u S_v -
    Gamma_v S_u] with c1, c2 the coefficients of e1, e2, S_j the columns of
    :meth:`~SurfaceEvaluator.shape_operator_coeff` (one stencil level) and
    Gamma the exact Christoffels of the record. Right side:
    [(4 r^2 - G) cos(phi) sin(phi) - cos(2 phi) e2(r)] e2 - e1(r) e1.
    """
    u, v = float(q[0]), float(q[1])
    ev = patch.evaluator()
    d = ev.data(u, v)
    e1, e2 = ev.adapted(u, v)
    c1, c2 = ev.adapted_coeffs(u, v)
    s = ev.shape_operator_coeff(u, v)
    s_u, s_v = ev.dfield(ev.shape_operator_coeff, u, v)
    chris = d.christoffels
    curl = (s_u[:, 1] - s_v[:, 0]
            + chris[:, 0, :] @ s[:, 1] - chris[:, 1, :] @ s[:, 0])
    lhs = (c1[0] * c2[1] - c1[1] * c2[0]) * curl @ d.tangents  # frame comps

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
    d, e1_phi, e2_phi, mean_h = _angle_derivatives(patch, q)
    return (2.0 * (e1_phi ** 2 + e2_phi ** 2) + mean_h ** 2 + 2.0 * d.r ** 2
            - 4.0 * d.r * e2_phi - 2.0 * mean_h * e1_phi)
