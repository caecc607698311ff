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
through the patch's :class:`SurfaceEvaluator` view. Records are built in
batches by one builder, :func:`_build`, which runs every formula on a
trailing batch axis: the immersion half (jets of x, y, z, tangents, first
form, normal, the angle and the vertical tangent), the ambient half at the
image point (lam, r, its gradient, G and the connection table), the
Christoffels, the adapted frame and the Weingarten half (shape operator,
mean curvature, |A|^2). The ambient half reads the jets of (lam, a, b) at
the batch's distinct image points, evaluated as one batch and gathered by
index (:meth:`~ksub.geometry.KillingData.base_jets`); no jet is evaluated
point by point. A record is a row of its batch, and nothing is computed
on read. Every point operation first builds its point's lattice in one
batch (:meth:`SurfaceEvaluator.lattice`: the point, its derivative stencil
and its probe lattice), once per point and patch; a record read outside a
built lattice is built as a batch of one, and a batch agrees with its
points bit for bit. A lattice is a one-shot prefetch: a batch that fails
stores nothing, and its records are built one at a time where they are
read.

Derivatives of derived surface fields (phi, shape entries, mean curvature)
are finite differences in parameter space with step h = ``1e-3 * patch
diameter``, one stencil level each, and need a margin of h from the patch
edge; only the Brioschi curvature, the Gauss check's intrinsic oracle,
differentiates the first form numerically.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import geometry as geo
from .errors import (
    AngleSingularError,
    DegenerateImmersionError,
    FdMarginError,
    KsubError,
)
from .expr import Expr, _each, _finite, eval_jet, parse
from .numdiff import _abscissae, derivatives, partial1

__all__ = [
    "SurfacePatch",
    "analyze_point",
    "shape_matrix_adapted",
    "gauss_residual",
    "codazzi_residual",
    "compatibility_residuals",
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
        # the patch owns its point records (rows of the batches that built
        # them) and the parameter points whose lattice was tried once;
        # evaluators are views over them, so a dropped patch frees its
        # records by reference count
        self._points: dict[tuple[float, float], _PointData] = {}
        self._tried: set[tuple[float, float]] = set()
        # a record refuses a degenerate first form, so building the 5x5
        # grid's records (one batch; point by point where it fails) checks
        # the immersion's regularity
        ev = self.evaluator()
        grid = self.domain.grid(5, 5, inset=0.02)
        ev._prefetch(grid)
        for (u, v) in grid:
            ev.data(u, v)

    @property
    def params(self) -> tuple[str, str]:
        return self.x.variables  # type: ignore[return-value]

    def evaluator(self) -> "SurfaceEvaluator":
        return SurfaceEvaluator(self)

    def flipped(self) -> "SurfacePatch":
        return replace(self, flip_normal=not self.flip_normal)

    @classmethod
    def graph(cls, ambient: geo.KillingData, height,
              domain: geo.Rect) -> "SurfacePatch":
        """Vertical graph z = height(x, y) parametrized by the base coords."""
        if isinstance(height, str):
            height = parse(height, ("x", "y"))
        return cls(parse("x", ("x", "y")), parse("y", ("x", "y")), height,
                   domain, ambient)


_PointData = collections.namedtuple("_PointData", (
    "params", "point", "coord_tangents", "coord_hessians", "tangents",
    "first_form", "normal", "cos_phi", "sin_phi", "phi", "vertical_tangent",
    "lam", "r", "grad_r", "gauss_base", "gamma", "tangent_derivs",
    "christoffels", "shape_frame", "ortho_basis", "shape_ortho", "mean_h",
    "norm_sq", "e1", "e2"))
_PointData.__doc__ = """Everything first- and second-order at one parameter
point: a row of the batch :func:`_build` builds, made by :func:`_records`.

Immersion data: the jets of x, y, z up to their Hessians, the frame
tangents, the first form, the unit normal, the angle and the vertical
tangent. Ambient data at the image point: lam, r, grad r, G and the
connection table. From the order-2 jets: ``tangent_derivs``, the first
form's ``christoffels`` and the exact Weingarten half, in which the shape
operator ``shape_ortho`` lives in the orthonormalized (d/du, d/dv) basis
``ortho_basis``, ``mean_h`` is its trace and ``norm_sq`` is |A|^2. The
adapted frame ``e1, e2`` is None within ANGLE_EPS of a vertical normal.
Nothing is computed on read.
"""

# Fields of a batch that are floats per point; the others between the point
# and the frame are the batch's rows
_FLOATS = {"cos_phi", "sin_phi", "phi", "lam", "mean_h", "norm_sq"}


def _build(patch: SurfacePatch, us: np.ndarray, vs: np.ndarray) -> dict:
    """Every field of the records at the parameter points (us[n], vs[n]),
    one pass over the batch.

    Vectors and matrices are C-contiguous per-point rows, (N, ...), and
    the linear algebra is stacked ``matmul``, ``einsum``, ``solve``, ``inv``
    and ``det`` over them (see :func:`ksub.geometry.product`); scalars are
    (N,). Each point's values equal those of a batch of one at it, bit for
    bit. Raises the error of the batch's first failing point.
    """
    K = patch.ambient
    jx, jy, jz = (eval_jet(e, (us, vs)) for e in (patch.x, patch.y, patch.z))
    x, y = jx.value, jy.value
    K.require_inside(x, y)
    lam, ja, jb = K.base_jets(x, y)

    coord_tangents = np.stack([jx.grad, jy.grad, jz.grad], axis=1)
    tangents = geo.rows(np.stack([geo.frame_components(K, (x, y), c)
                                  for c in coord_tangents]))
    first_form = tangents @ tangents.transpose(0, 2, 1)
    degenerate = np.linalg.det(first_form) <= REGULARITY_TOL
    if degenerate.any():
        n = int(np.argmax(degenerate))
        raise DegenerateImmersionError(
            f"immersion degenerate at parameters ({float(us[n])}, "
            f"{float(vs[n])})")

    t0, t1 = tangents[:, 0].T, tangents[:, 1].T
    raw = geo.wedge(t0, t1)
    normal = raw / np.sqrt(geo.product(raw, raw))
    if patch.flip_normal:
        normal = -normal
    # max(-1, min(1, c)) as on floats, a nan going to 1
    cos_phi = np.where(normal[2] < 1.0, normal[2], 1.0)
    cos_phi = np.where(cos_phi > -1.0, cos_phi, -1.0)
    phi = _each(math.acos, cos_phi)
    sin_sq = 1.0 - cos_phi * cos_phi
    sin_phi = _each(math.sqrt, np.where(sin_sq > 0.0, sin_sq, 0.0))
    vertical = np.array([[0.0], [0.0], [1.0]]) - cos_phi * normal

    r, grad_r = geo.bundle_curvature(K, (x, y))

    # t_j = M dF/du_j, M = [[lam, 0, 0], [0, lam, 0], [-lam a, -lam b, 1]]
    la = lam.value * ja.grad + ja.value * lam.grad   # grad of lam a
    lb = lam.value * jb.grad + jb.value * lam.grad
    zero = np.zeros_like(lam.value)
    m = geo.rows(np.array([
        [lam.value, zero, zero], [zero, lam.value, zero],
        [-lam.value * ja.value, -lam.value * jb.value, zero + 1.0]]))
    dm = geo.rows(np.array([[[lam.grad[c], zero, zero],
                             [zero, lam.grad[c], zero],
                             [-la[c], -lb[c], zero]] for c in range(2)]))
    ct = geo.rows(coord_tangents)
    dm_du = np.einsum("nic,ncab->niab", ct[:, :, :2], dm)
    coord_hessians = geo.rows(np.stack([jx.hess, jy.hess, jz.hess], axis=2))
    tangent_derivs = (np.einsum("niab,njb->nija", dm_du, ct)
                      + coord_hessians @ m.transpose(0, 2, 1)[:, None])

    # d_i g_jk = <d_i t_j, t_k> + <t_j, d_i t_k>
    p = tangent_derivs @ tangents.transpose(0, 2, 1)[:, None]
    dg = p + p.transpose(0, 1, 3, 2)
    sym = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    christoffels = 0.5 * np.einsum("ncd,nabd->ncab",
                                   np.linalg.inv(first_form), sym)

    # h_ij = <d_i t_j + gamma(t_i, t_j), eta>; rows A(d/du), A(d/dv)
    gamma = geo.rows(geo.connection(K, (x, y)))
    cov = tangent_derivs + np.einsum("nil,njm,nlmk->nijk", tangents,
                                     tangents, gamma)
    normal_rows = geo.rows(normal)
    h = (cov @ normal_rows[:, None, :, None])[..., 0]
    shape_frame = (np.linalg.solve(first_form, h).transpose(0, 2, 1)
                   @ tangents)

    # Gram-Schmidt on the tangents: rows f1, f2 and their (du, dv)
    # coefficient rows
    g00, g01 = first_form[:, 0, 0], first_form[:, 0, 1]
    root = _each(math.sqrt, g00)
    w = t1 - (g01 / g00) * t0
    wn = np.sqrt(geo.product(w, w))
    ortho_basis = geo.rows(np.stack([t0 / root, w / wn]))
    coeffs = geo.rows(np.array([[1.0 / root, zero],
                                np.array([-g01 / g00, zero + 1.0]) / wn]))
    shape_ortho = ((coeffs @ shape_frame)
                   @ ortho_basis.transpose(0, 2, 1))
    diagonal = np.ascontiguousarray(np.diagonal(shape_ortho, 0, 1, 2))

    # the adapted frame only where sin(phi) is clear of 0
    framed = sin_phi >= ANGLE_EPS
    divisor = np.where(framed, sin_phi, 1.0)
    return {
        "point": (jx.value, jy.value, jz.value),
        "coord_tangents": ct,
        "coord_hessians": coord_hessians,
        "tangents": tangents,
        "first_form": first_form,
        "normal": normal_rows,
        "cos_phi": cos_phi,
        "sin_phi": sin_phi,
        "phi": phi,
        "vertical_tangent": geo.rows(vertical),
        "lam": K.lam(x, y),
        "r": r,
        "grad_r": geo.rows(grad_r),
        "gauss_base": geo.gauss_curvature(K, (x, y)),
        "gamma": gamma,
        "tangent_derivs": tangent_derivs,
        "christoffels": christoffels,
        "shape_frame": shape_frame,
        "ortho_basis": ortho_basis,
        "shape_ortho": shape_ortho,
        "mean_h": diagonal.sum(axis=1),
        "norm_sq": (shape_ortho * shape_ortho).reshape(-1, 4).sum(axis=1),
        "framed": framed,
        "e1": geo.rows(vertical / divisor),
        "e2": geo.rows(geo.wedge(normal, vertical) / divisor),
    }


def _records(keys, fields: dict) -> list[_PointData]:
    """The records of a built batch, one per parameter key, zipped from its
    columns: floats, numpy scalars for r and G (as ``geometry`` returns them
    at a point), views of the batch's rows for vectors and matrices, and
    None for e1, e2 where the point has no adapted frame."""
    framed = fields["framed"].tolist()
    columns = ([keys, list(zip(*(c.tolist() for c in fields["point"])))]
               + [fields[name].tolist() if name in _FLOATS
                  else list(fields[name])
                  for name in _PointData._fields[2:-2]]
               + [[row if f else None for row, f in zip(fields[name], framed)]
                  for name in ("e1", "e2")])
    return [_PointData._make(row) for row in zip(*columns)]


class SurfaceEvaluator:
    """Per-point computations over one patch, reading the records in the
    patch's store."""

    def __init__(self, patch: SurfacePatch):
        self.patch = patch
        self.h = PARAM_STEP_FRAC * patch.domain.diameter
        self._data = patch._points
        self._tried = patch._tried

    # -- core point data -----------------------------------------------------

    def data(self, u: float, v: float) -> _PointData:
        """The record at (u, v); a miss builds it as a batch of one."""
        return geo.memo(self._data, (u, v), self._build_one)

    def _build_one(self, u: float, v: float) -> _PointData:
        key = (u, v)
        return _records([key], _build(self.patch, np.array([u]),
                                      np.array([v])))[0]

    def _prefetch(self, keys) -> None:
        """Build the missing records among the parameter points ``keys`` in
        one batch. A batch that raises or yields a non-finite value stores
        nothing: its records are built where they are read, one at a time,
        and every error and warning arises there."""
        keys = [k for k in dict.fromkeys(keys) if k not in self._data]
        if not keys:
            return
        us, vs = (np.array(c) for c in zip(*keys))
        try:
            with np.errstate(all="ignore"):
                fields = _build(self.patch, us, vs)
        except (ArithmeticError, ValueError, KsubError, RecursionError):
            return
        if _finite(tuple(fields.values())):
            for key, record in zip(keys, _records(keys, fields)):
                geo.memo(self._data, key, lambda *_: record)

    def lattice(self, *qs) -> None:
        """Build, in one batch, the records every point operation at the
        parameter points ``qs`` reads: each q, its 17 derivative stencil
        points when its margin is at least h, and its 5x5 probe lattice
        when the margin is at least 4 h (see :meth:`_prefetch`). A point's
        lattice is tried once per patch: a q tried before adds nothing,
        whether its batch was built or failed."""
        keys = []
        for q in qs:
            u, v = float(q[0]), float(q[1])
            if (u, v) in self._tried:
                continue
            if len(self._tried) >= geo.CACHE_LIMIT:
                self._tried.clear()
            self._tried.add((u, v))
            keys.append((u, v))
            margin = self.patch.domain.margin_at(u, v)
            if margin >= self.h:
                keys += [tuple(p) for p in _abscissae((u, v), self.h)]
            if margin >= 4.0 * self.h:
                keys += self.probe_lattice(u, v)
        self._prefetch(keys)

    def probe_lattice(self, u: float, v: float) -> list[tuple[float, float]]:
        """The 5x5 parameter lattice at 2 h spacing around (u, v) that the
        CMC and constancy probes read; it reaches 4 h, so the point needs
        that margin."""
        self.require_margin(u, v, 4.0 * self.h)
        step = 2.0 * self.h
        return [(u + i * step, v + j * step)
                for i in range(-2, 3) for j in range(-2, 3)]

    # -- shape operator --------------------------------------------------------

    def weingarten(self, u: float, v: float) -> _PointData:
        """The point's record, read for its Weingarten half (shape operator,
        mean curvature, |A|^2), which every record carries."""
        return self.data(u, v)

    def require_margin(self, u, v, need):
        if self.patch.domain.margin_at(u, v) < need:
            raise FdMarginError(
                f"parameter point ({u}, {v}) too close to the patch edge "
                f"for a stencil of width {need}")

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
                        directions, u: float, v: float) -> np.ndarray:
        """Surface covariant derivatives of a tangent coefficient field, one
        row per (du, dv) direction given, from one stencil over the field."""
        chris = self.data(u, v).christoffels
        w = field_coeff(u, v)
        dw = self.dfield(field_coeff, u, v)
        du, dv = (dw[i] + chris[:, i, :] @ w for i in range(2))
        # summed from zero in coordinate order, so the output keeps its digits
        return np.array([np.zeros(2) + c[0] * du + c[1] * dv
                         for c in np.asarray(directions, dtype=float)])

    def field_derivatives(self, field: Callable, u: float, v: float):
        """(value, gradient, Hessian) of a parameter field, one sampling
        pass; like :meth:`dfield`, it needs a margin of h."""
        self.require_margin(u, v, self.h)
        return derivatives(lambda q: field(*q), (u, v), self.h)

    def laplacian(self, field: Callable[[float, float], float],
                  u: float, v: float) -> tuple[float, np.ndarray]:
        """Laplace-Beltrami (div grad convention) of a parameter field,
        g^ij (f_ij - Gamma^k_ij f_k), and its (d/du, d/dv) gradient, from
        one sampling pass over the field and the exact Christoffels of the
        point's record."""
        _, grad, hess = self.field_derivatives(field, u, v)
        d = self.data(u, v)
        hess -= np.einsum("kij,k->ij", d.christoffels, grad)
        return float(np.sum(np.linalg.inv(d.first_form) * hess)), grad

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


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def point_evaluator(patch: SurfacePatch, q):
    """(evaluator, u, v) for an operation at parameter point q, with the
    records of q's lattice built (:meth:`SurfaceEvaluator.lattice`)."""
    u, v = float(q[0]), float(q[1])
    ev = patch.evaluator()
    ev.lattice((u, v))
    return ev, u, v


def analyze_point(patch: SurfacePatch, q) -> _PointData:
    """Full first/second-order package at a parameter point."""
    ev, u, v = point_evaluator(patch, q)
    return ev.weingarten(u, v)


def shape_frame_fd(patch: SurfacePatch, q) -> np.ndarray:
    """Oracle for the exact Weingarten map: rows A(d/du), A(d/dv) from
    A(X) = -D_X eta, the unit normal differentiated across the parameter
    grid (central differences, one Richardson level) plus the connection."""
    ev, u, v = point_evaluator(patch, q)
    d = ev.data(u, v)
    d_normal = ev.dfield(lambda uu, vv: ev.data(uu, vv).normal, u, v)
    return np.stack([
        -(d_normal[i]
          + np.einsum("i,m,imk->k", d.tangents[i], d.normal, d.gamma))
        for i in range(2)])


def _angle_derivatives(patch: SurfacePatch, q):
    """(record, e1(phi), e2(phi), H) at q; raises where no adapted frame."""
    ev, u, v = point_evaluator(patch, q)
    d = ev.data(u, v)
    c1, c2 = ev.adapted_coeffs(u, v)  # raises when singular
    dphi = ev.dfield(ev.phi_field, u, v)
    return d, float(c1 @ dphi), float(c2 @ dphi), ev.weingarten(u, v).mean_h


def shape_matrix_adapted(patch: SurfacePatch, q) -> np.ndarray:
    """Shape operator in the adapted frame from angle derivatives.

    The matrix is [[e1(phi), e2(phi) - r], [e2(phi) - r, H - e1(phi)]];
    it must agree with the Weingarten computation expressed in (e1, e2).
    """
    d, e1_phi, e2_phi, mean_h = _angle_derivatives(patch, q)
    off = e2_phi - d.r
    return np.array([[e1_phi, off], [off, mean_h - e1_phi]])


def gauss_residual(patch: SurfacePatch, q) -> float:
    """Gauss equation defect: K_induced minus the ambient-side expression

        det A + r^2 + (G - 4 r^2) cos^2(phi) - sin(2 phi) e2(r).
    """
    ev, u, v = point_evaluator(patch, q)
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
    ev, u, v = point_evaluator(patch, q)
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
    ev, u, v = point_evaluator(patch, q)
    d = ev.data(u, v)
    e1, e2 = ev.adapted(u, v)

    def t_coeff(uu, vv):
        dd = ev.data(uu, vv)
        return ev.tangent_coefficients(dd, dd.vertical_tangent)

    # one gradient of T and one of cos(phi), read along both frame vectors
    coeffs = [ev.tangent_coefficients(d, vec) for vec in (e1, e2)]
    nablas = ev.covariant_coeff(t_coeff, coeffs, u, v)
    dcos = ev.dfield(lambda uu, vv: ev.data(uu, vv).cos_phi, u, v)
    res1 = []
    res2 = []
    for vec, coeff, nabla in zip((e1, e2), coeffs, nablas):
        nabla_t = nabla @ d.tangents
        a_vec = ev.shape_apply_coeff(u, v, coeff)
        eta_wedge = geo.wedge(d.normal, vec)
        first = nabla_t - d.cos_phi * (a_vec - d.r * eta_wedge)
        res1.append(np.linalg.norm(first))
        res2.append((a_vec - d.r * eta_wedge) @ d.vertical_tangent
                    + float(coeff @ dcos))
    # np.max, unlike max, propagates a nan, so a nan residual fails
    return float(np.max(res1)), float(np.max(np.abs(res2)))


def shape_norm_from_angle(patch: SurfacePatch, q) -> float:
    """|A|^2 assembled from angle derivatives instead of the Weingarten map:

        2 (e1(phi)^2 + e2(phi)^2) + H^2 + 2 r^2 - 4 r e2(phi) - 2 H e1(phi)
    """
    d, e1_phi, e2_phi, mean_h = _angle_derivatives(patch, q)
    return (2.0 * (e1_phi ** 2 + e2_phi ** 2) + mean_h ** 2 + 2.0 * d.r ** 2
            - 4.0 * d.r * e2_phi - 2.0 * mean_h * e1_phi)
