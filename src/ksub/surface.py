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

One builder, :func:`_build`, computes every field at a batch of parameter
points: the immersion half (jets of x, y, z, tangents, first form, normal,
the angle and the vertical tangent), the ambient half at the image point
(lam, r, its gradient, G and the connection table, from one batch of jets
of (lam, a, b) at the image points), the Christoffels, the adapted
frame, the Weingarten half (shape operator, mean curvature, |A|^2) and the
(du, dv) coefficients of the vertical tangent, of e1, e2 and of the shape
operator. A batch agrees with its points bit for bit.

Every point operation is array algebra over the columns of a lattice
(:class:`_Lattice`: for each of its points the point, its 17 stencil points
and its 5x5 probe lattice, built in one batch). A derivative is
:func:`~ksub.numdiff._quotients` over a stencil column, with no callback;
``check-surface`` computes each residual at once for the points it applies
to (:meth:`_Lattice.over` a mask), and a module function at one point runs
the same code on a lattice of one (:func:`point_lattice`, keyed by the
point's bits). A lattice whose batch raises builds its rows group by
group as the operations read them, one batch each, so the error that
arises is the first failing row's in read order. A record
(:class:`_PointData`) is one row of its point's lattice, made when
:meth:`SurfaceEvaluator.data` reads it; :meth:`_Lattice.require_frame`
guards the adapted frame. A patch's 5x5 regularity grid is checked with
its first lattice batch, ahead of the lattice's rows, which keeps none of
the grid's; a flipped twin inherits the check.

Derivatives of derived surface fields (phi, shape entries, mean curvature)
are finite differences in parameter space with step h = ``1e-3 * patch
diameter``, one stencil level each, and need a margin of h from the patch
edge; only the Brioschi curvature, the Gauss check's intrinsic oracle,
differentiates the first form numerically.
"""

from __future__ import annotations

import collections
import copy
import weakref
from dataclasses import dataclass, replace

import numpy as np

from . import geometry as geo
from .errors import (
    AngleSingularError,
    DegenerateImmersionError,
    FdMarginError,
    KsubError,
    POINT_FAILURES,
)
from .expr import Expr, batched, eval_jet, parse, power
from .numdiff import _abscissae, _quotients

__all__ = [
    "SurfacePatch",
    "analyze_point",
    "shape_matrix_adapted",
    "gauss_residual",
    "codazzi_residual",
    "compatibility_residuals",
]

ANGLE_EPS = 1e-6   # sin(phi) below this: no adapted frame
PARAM_STEP_FRAC = 1e-3
REGULARITY_TOL = 1e-10


@dataclass(eq=False)
class SurfacePatch:
    """Parametrized surface (immersion expressions share the parameter pair).

    The constructor validates the expressions; the first form is checked on
    a 5x5 regularity grid with the patch's first lattice batch, so a
    degenerate patch raises :class:`DegenerateImmersionError` at its first
    read, naming the grid's first degenerate point."""

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
            raise KsubError("immersion expressions need exactly 2 parameters")
        if self.y.variables != params or self.z.variables != params:
            raise KsubError("immersion components disagree on parameters")
        if not np.isfinite(self.domain.diameter):
            raise KsubError(f"patch domain {self.domain} has diameter inf")
        # the patch owns the lattices of the points operated on; they refer
        # to it weakly, so a dropped patch frees them by reference count
        self._lattices: dict[tuple[str, str], _Lattice] = {}
        # the 5x5 regularity grid, pending until the patch's first lattice
        # batch checks it (:meth:`_Lattice._prefetch`), then emptied
        self._grid = self.domain.grid(5, 5, inset=0.02)

    def evaluator(self) -> "SurfaceEvaluator":
        return SurfaceEvaluator(self)

    def flipped(self) -> "SurfacePatch":
        """The patch with the opposite normal. A flip leaves the first form
        alone, so the twin shares the regularity grid: a check by either
        holds for both."""
        twin = replace(self, flip_normal=not self.flip_normal)
        twin._grid = self._grid
        return twin

    @classmethod
    def graph(cls, ambient: geo.KillingData, height,
              domain: geo.Rect) -> "SurfacePatch":
        """Vertical graph z = height(x, y) parametrized by the base coords."""
        if isinstance(height, str):
            height = parse(height, ("x", "y"))
        return cls(parse("x", ("x", "y")), parse("y", ("x", "y")), height,
                   domain, ambient)


_PointData = collections.namedtuple("_PointData", (
    "params", "point", "tangents", "first_form", "normal", "cos_phi",
    "sin_phi", "phi", "vertical_tangent", "lam", "r", "grad_r", "gauss_base",
    "gamma", "christoffels", "shape_frame", "ortho_basis", "shape_ortho",
    "mean_h", "norm_sq", "vertical_coeff", "shape_coeff", "e1", "e2",
    "e1_coeff", "e2_coeff"))
_PointData.__doc__ = """Everything first- and second-order at one parameter
point: one row of a batch that :func:`_build` built, made by
:func:`_record` when it is read.

Immersion data: the parameters, the image point, the frame tangents, the
first form, the unit normal, the angle and the vertical tangent. Ambient
data at the image point: lam, r, grad r, G and the connection table. From
the order-2 jets: the first form's ``christoffels`` and the exact
Weingarten half, in which the shape operator ``shape_ortho`` lives in the
orthonormalized (d/du, d/dv) basis ``ortho_basis``, ``mean_h`` is its
trace and ``norm_sq`` is |A|^2. The (du, dv) coefficients of the vertical
tangent (``vertical_coeff``) and of the adapted frame (``e1_coeff``,
``e2_coeff``), and ``shape_coeff``, the matrix M with A(d_j) = sum_i
M[i, j] d_i. The adapted frame and its coefficients are None within
ANGLE_EPS of a vertical normal.
"""

# Fields of a record that are floats, and those that are None where the
# point has no adapted frame; the others are the batch's rows (numpy
# scalars for r and G, as ``geometry`` returns them at a point)
_FLOATS = {"cos_phi", "sin_phi", "phi", "lam", "mean_h", "norm_sq"}
_FRAMED = {"e1", "e2", "e1_coeff", "e2_coeff"}


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
    phi = np.arccos(cos_phi)
    sin_sq = 1.0 - cos_phi * cos_phi
    sin_phi = np.sqrt(np.where(sin_sq > 0.0, sin_sq, 0.0))
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
    root = np.sqrt(g00)
    w = t1 - (g01 / g00) * t0
    wn = np.sqrt(geo.product(w, w))
    ortho_basis = geo.rows(np.stack([t0 / root, w / wn]))
    coeffs = geo.rows(np.array([[1.0 / root, zero],
                                np.array([-g01 / g00, zero + 1.0]) / wn]))
    shape_ortho = ((coeffs @ shape_frame)
                   @ ortho_basis.transpose(0, 2, 1))
    diagonal = np.ascontiguousarray(np.diagonal(shape_ortho, 0, 1, 2))

    def coefficients(vectors):
        # (du, dv) coefficients of tangent vectors in frame components
        rhs = tangents @ np.ascontiguousarray(vectors)[:, :, None]
        return np.linalg.solve(first_form, rhs)[:, :, 0]

    # the adapted frame only where sin(phi) is clear of 0
    framed = sin_phi >= ANGLE_EPS
    divisor = np.where(framed, sin_phi, 1.0)
    vertical_rows = geo.rows(vertical)
    e1 = geo.rows(vertical / divisor)
    e2 = geo.rows(geo.wedge(normal, vertical) / divisor)
    return {
        "params": geo.rows(np.array([us, vs])),
        "point": geo.rows(np.array([jx.value, jy.value, jz.value])),
        "tangents": tangents,
        "first_form": first_form,
        "normal": normal_rows,
        "cos_phi": cos_phi,
        "sin_phi": sin_phi,
        "phi": phi,
        "vertical_tangent": vertical_rows,
        "lam": lam.value,
        "r": r,
        "grad_r": geo.rows(grad_r),
        "gauss_base": geo.gauss_curvature(K, (x, y)),
        "gamma": gamma,
        "christoffels": christoffels,
        "shape_frame": shape_frame,
        "ortho_basis": ortho_basis,
        "shape_ortho": shape_ortho,
        "mean_h": diagonal.sum(axis=1),
        "norm_sq": (shape_ortho * shape_ortho).reshape(-1, 4).sum(axis=1),
        "vertical_coeff": coefficients(vertical_rows),
        "shape_coeff": np.stack([coefficients(shape_frame[:, j])
                                 for j in range(2)], axis=2),
        "framed": framed,
        "e1": e1,
        "e2": e2,
        "e1_coeff": coefficients(e1),
        "e2_coeff": coefficients(e2),
    }


def _batch(patch: SurfacePatch, keys) -> dict:
    """The fields at the parameter points ``keys``, built in one batch by
    :func:`~ksub.expr.batched`: a batch that raises raises the error of its
    first failing point, and a non-finite one stands."""
    return batched(lambda us, vs: _build(patch, us, vs),
                   *map(np.array, zip(*keys)))


def _record(fields: dict, n: int) -> _PointData:
    """Row n of a built batch as a record: floats, numpy scalars for r and
    G, views of the batch's rows for vectors and matrices, and None for the
    adapted frame where the point has none."""
    framed = fields["framed"][n]
    return _PointData(
        tuple(fields["params"][n].tolist()),
        tuple(fields["point"][n].tolist()),
        *(float(fields[name][n]) if name in _FLOATS
          else None if name in _FRAMED and not framed
          else fields[name][n]
          for name in _PointData._fields[2:]))


def _no_frame(sin_phi: float, u: float, v: float) -> AngleSingularError:
    return AngleSingularError(
        f"sin(phi) = {sin_phi:.2e} at parameters ({u}, {v}); "
        "the vertical field is normal and no adapted frame exists")


class _Lattice:
    """The rows the point operations at N parameter points read, as columns.

    Three groups: each point ("centre"), its 17 stencil points in
    :func:`_abscissae` order ("stencil"; the point needs a margin of h from
    the patch edge) and its 5x5 probe lattice at 2 h spacing ("probes"; a
    margin of 4 h). :meth:`column` gathers a field of a group by row index,
    (N, ...), (N, 17, ...) or (N, 25, ...); a group that a point lacks the
    margin for raises :class:`FdMarginError` for the first such point. Rows
    are built in one batch, tried once (:meth:`_prefetch`), or, where it
    raises, group by group, one :func:`_batch` each, when the group is
    first read; the rows are one store that the lattice shares with its
    sub-lattices (:meth:`take`). The lattice refers to its patch weakly, so
    the patch can own it.
    """

    def __init__(self, patch: SurfacePatch, qs):
        self._patch = weakref.ref(patch)
        self.h = h = PARAM_STEP_FRAC * patch.domain.diameter
        self.points = [(float(q[0]), float(q[1])) for q in qs]
        reach = [patch.domain.margin_at(u, v) for u, v in self.points]
        self._keys = {
            "centre": [[q] for q in self.points],
            "stencil": [[tuple(p) for p in _abscissae(q, h)]
                        if m >= h else None
                        for q, m in zip(self.points, reach)],
            "probes": [[(q[0] + i * 2.0 * h, q[1] + j * 2.0 * h)
                        for i in range(-2, 3) for j in range(-2, 3)]
                       if m >= 4.0 * h else None
                       for q, m in zip(self.points, reach)],
        }
        self._fields, self._index, self._columns = {}, {}, {}
        self._record = None
        self._prefetch()

    def reaches(self, group: str) -> np.ndarray:
        """Per point, whether it has the margin that ``group`` needs."""
        return np.array([keys is not None for keys in self._keys[group]])

    def _keep(self, keys, fields) -> None:
        """Add the rows at ``keys``, the batch ``fields``, in place to the
        store the lattice shares with its sub-lattices; a first batch is
        kept as it is."""
        store, start = self._fields, len(self._index)
        store.update(fields if not store else {
            name: np.concatenate([store[name], field])
            for name, field in fields.items()})
        self._index.update((key, start + n) for n, key in enumerate(keys))

    def _prefetch(self) -> None:
        """Build every row in one batch, after the patch's pending regularity
        grid, whose rows are checked, not kept.

        The batch is tried once, with :func:`_build` itself: where it
        raises, its error is dropped unsearched, the grid's batch runs
        alone through :func:`_batch`, to raise the grid's own error, and no
        row is kept; each group builds its rows as one batch when first
        read. A non-finite batch is kept, as its rows built again would
        give the same bits."""
        patch = self._patch()
        grid = patch._grid
        keys = list(dict.fromkeys(key for group in self._keys.values()
                                  for keys in group if keys for key in keys))
        try:
            fields = _build(patch, *map(np.array, zip(*(grid + keys))))
        except POINT_FAILURES:
            if grid:
                _batch(patch, grid)
                grid.clear()
            return
        if grid:  # a copy of the rest, so the grid's rows are not kept
            fields = {name: field[len(grid):].copy()
                      for name, field in fields.items()}
            grid.clear()
        self._keep(keys, fields)

    def take(self, mask) -> "_Lattice":
        """The lattice of the points where ``mask`` is set, on the same
        rows."""
        if np.all(mask):
            return self
        sub = copy.copy(self)
        sub.points = [q for q, keep in zip(self.points, mask) if keep]
        sub._keys = {group: [k for k, keep in zip(keys, mask) if keep]
                     for group, keys in self._keys.items()}
        sub._columns, sub._record = {}, None
        return sub

    def over(self, mask, compute) -> list:
        """``compute`` of the lattice of the points where ``mask`` is set,
        one value per such point, and None at the other points."""
        values = iter(compute(self.take(mask)) if mask.any() else ())
        return [next(values) if m else None for m in mask]

    def _rows(self, group: str) -> np.ndarray:
        """Row indices of a group; its missing rows are built as one batch,
        which raises the error of its first failing row, and kept."""
        rows = self._columns.get(group)
        if rows is None:
            for (u, v), keys in zip(self.points, self._keys[group]):
                if keys is None:
                    raise FdMarginError(
                        f"parameter point ({u}, {v}) too close to the patch "
                        "edge for a stencil of width "
                        f"{self.h if group == 'stencil' else 4.0 * self.h}")
            missing = dict.fromkeys(key for keys in self._keys[group]
                                    for key in keys if key not in self._index)
            if missing:
                self._keep(missing, _batch(self._patch(), missing))
            rows = np.array([[self._index[key] for key in keys]
                             for keys in self._keys[group]], dtype=np.intp)
            rows = self._columns[group] = (rows[:, 0] if group == "centre"
                                           else rows)
        return rows

    def column(self, group: str, name: str) -> np.ndarray:
        """The field ``name`` at the rows of ``group``, C-contiguous."""
        col = self._columns.get((group, name))
        if col is None:
            rows = self._rows(group)  # first: it may build the rows
            col = self._columns[group, name] = self._fields[name][rows]
        return col

    def centre(self, name: str) -> np.ndarray:
        return self.column("centre", name)

    def record(self) -> _PointData:
        """The record of the lattice's first point, made once."""
        if self._record is None:
            n = int(self._rows("centre")[0])  # first: it may build the row
            self._record = _record(self._fields, n)
        return self._record

    def require_frame(self) -> None:
        """Raise :class:`AngleSingularError` for the first point with no
        adapted frame."""
        framed = self.centre("framed")
        if not framed.all():
            n = int(np.argmin(framed))
            raise _no_frame(float(self.centre("sin_phi")[n]),
                            *self.points[n])


def point_lattice(patch: SurfacePatch, q) -> _Lattice:
    """The lattice of one parameter point, built once per point and patch;
    points are told apart by their bits, so -0.0 is not 0.0."""
    u, v = float(q[0]), float(q[1])
    return geo.memo(patch._lattices, (u.hex(), v.hex()),
                    lambda *_: _Lattice(patch, [(u, v)]))


# ---------------------------------------------------------------------------
# Per-point rows: stacked products round as the one-point ones do
# ---------------------------------------------------------------------------

def _apply(m, x) -> np.ndarray:
    """m @ x per point, for (N, a, b) matrices and (N, b) vectors."""
    return (np.ascontiguousarray(m)
            @ np.ascontiguousarray(x)[:, :, None])[:, :, 0]


def _vecmat(x, m) -> np.ndarray:
    """x @ m per point, for (N, a) vectors and (N, a, b) matrices."""
    return (np.ascontiguousarray(x)[:, None, :]
            @ np.ascontiguousarray(m))[:, 0, :]


def _derivatives(lat: _Lattice, samples):
    """(value, gradient, Hessian) at each point of a lattice from the
    (N, 17, ...) stencil samples of a field: (N, ...), (N, 2, ...) and
    (N, 2, 2, ...)."""
    value, grad, hess = _quotients(samples.swapaxes(0, 1), lat.h)
    return (value, np.ascontiguousarray(grad.swapaxes(0, 1)),
            np.ascontiguousarray(hess.swapaxes(1, 2).swapaxes(0, 1)))


def _gradient(lat: _Lattice, name: str) -> np.ndarray:
    """(d/du, d/dv) of a field at each point, (N, 2, ...)."""
    return _derivatives(lat, lat.column("stencil", name))[1]


def _directional_r(lat: _Lattice, name: str) -> np.ndarray:
    """Derivative of the bundle curvature along a tangent frame vector."""
    vec, grad_r = lat.centre(name), lat.centre("grad_r")
    return (vec[:, 0] * grad_r[:, 0] + vec[:, 1] * grad_r[:, 1]) \
        / lat.centre("lam")


class SurfaceEvaluator:
    """A view of one patch: the records read at single parameter points,
    and the derivative operations over the columns of a lattice."""

    def __init__(self, patch: SurfacePatch):
        self.patch = patch

    def data(self, u: float, v: float) -> _PointData:
        """The record at (u, v), a row of its point lattice."""
        return point_lattice(self.patch, (u, v)).record()

    # the record, read for its Weingarten half (shape operator, mean
    # curvature, |A|^2), which every record carries
    weingarten = data

    @staticmethod
    def laplacian(lat: _Lattice, samples) -> tuple[np.ndarray, np.ndarray]:
        """Laplace-Beltrami (div grad convention) of a parameter field at
        each point of a lattice, g^ij (f_ij - Gamma^k_ij f_k), and its
        (d/du, d/dv) gradient, from the field's (N, 17) stencil samples and
        the exact Christoffels of the points."""
        _, grad, hess = _derivatives(lat, samples)
        hess = hess - np.einsum("nkij,nk->nij", lat.centre("christoffels"),
                                grad)
        inv = np.linalg.inv(lat.centre("first_form"))
        return (inv * hess).reshape(-1, 4).sum(axis=1), grad

    @staticmethod
    def brioschi_curvature(lat: _Lattice) -> np.ndarray:
        """Gaussian curvature of the induced metric at each point of a
        lattice, Brioschi formula, from the first form's stencil column."""
        g, dg, ddg = _derivatives(lat, lat.column("stencil", "first_form"))
        E, F, G = g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
        E_u, F_u, G_u = dg[:, 0, 0, 0], dg[:, 0, 0, 1], dg[:, 0, 1, 1]
        E_v, F_v, G_v = dg[:, 1, 0, 0], dg[:, 1, 0, 1], dg[:, 1, 1, 1]
        E_vv, F_uv = ddg[:, 1, 1, 0, 0], ddg[:, 0, 1, 0, 1]
        G_uu, zero = ddg[:, 0, 0, 1, 1], np.zeros_like(E)
        m1 = geo.rows(np.array([
            [-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v],
            [F_v - 0.5 * G_u, E, F],
            [0.5 * G_v, F, G],
        ]))
        m2 = geo.rows(np.array([
            [zero, 0.5 * E_v, 0.5 * G_u],
            [0.5 * E_v, E, F],
            [0.5 * G_u, F, G],
        ]))
        return ((np.linalg.det(m1) - np.linalg.det(m2))
                / np.square(E * G - F * F))


# ---------------------------------------------------------------------------
# Residuals over the points of a lattice
# ---------------------------------------------------------------------------

def _gauss(lat: _Lattice) -> np.ndarray:
    """:func:`gauss_residual` at every point of a lattice."""
    lat.require_frame()
    k_ind = SurfaceEvaluator.brioschi_curvature(lat)
    r, cos_phi = lat.centre("r"), lat.centre("cos_phi")
    rhs = (np.linalg.det(lat.centre("shape_ortho")) + np.square(r)
           + (lat.centre("gauss_base") - 4.0 * np.square(r))
           * power(cos_phi, 2)
           - np.sin(2.0 * lat.centre("phi"))
           * _directional_r(lat, "e2"))
    return k_ind - rhs


def _codazzi(lat: _Lattice) -> np.ndarray:
    """:func:`codazzi_residual` at every point of a lattice."""
    lat.require_frame()
    c1, c2 = lat.centre("e1_coeff"), lat.centre("e2_coeff")
    s = lat.centre("shape_coeff")
    ds = _gradient(lat, "shape_coeff")
    chris = lat.centre("christoffels")
    curl = (ds[:, 0, :, 1] - ds[:, 1, :, 0]
            + _apply(chris[:, :, 0], s[:, :, 1])
            - _apply(chris[:, :, 1], s[:, :, 0]))
    det = c1[:, 0] * c2[:, 1] - c1[:, 1] * c2[:, 0]
    lhs = _vecmat(det[:, None] * curl, lat.centre("tangents"))

    e1, e2 = lat.centre("e1"), lat.centre("e2")
    r, phi = lat.centre("r"), lat.centre("phi")
    rhs_e2 = ((4.0 * np.square(r) - lat.centre("gauss_base"))
              * lat.centre("cos_phi") * np.sin(phi)
              - np.cos(2.0 * phi) * _directional_r(lat, "e2"))
    diff = lhs - (rhs_e2[:, None] * e2
                  - _directional_r(lat, "e1")[:, None] * e1)
    return np.stack([geo.product(diff.T, e1.T), geo.product(diff.T, e2.T)],
                    axis=1)


def _compatibility(lat: _Lattice) -> np.ndarray:
    """:func:`compatibility_residuals` at every point of a lattice."""
    lat.require_frame()
    # one gradient of T's coefficients and one of cos(phi), read along both
    # frame vectors; nabla_X T = X^i (d_i w + Gamma_i w), summed from zero
    # in coordinate order
    chris, w = lat.centre("christoffels"), lat.centre("vertical_coeff")
    dw = _gradient(lat, "vertical_coeff")
    du, dv = (dw[:, i] + _apply(chris[:, :, i], w) for i in range(2))
    dcos = _gradient(lat, "cos_phi")
    tangents, normal = lat.centre("tangents"), lat.centre("normal")
    r, cos_phi = lat.centre("r")[:, None], lat.centre("cos_phi")[:, None]
    res1, res2 = [], []
    for name in ("e1", "e2"):
        vec, coeff = lat.centre(name), lat.centre(name + "_coeff")
        nabla = 0.0 + coeff[:, :1] * du + coeff[:, 1:] * dv
        nabla_t = _vecmat(nabla, tangents)
        a_vec = _vecmat(coeff, lat.centre("shape_frame"))
        eta_wedge = geo.wedge(normal.T, vec.T).T
        first = nabla_t - cos_phi * (a_vec - r * eta_wedge)
        res1.append(np.sqrt(geo.product(first.T, first.T)))
        res2.append(geo.product((a_vec - r * eta_wedge).T,
                                lat.centre("vertical_tangent").T)
                    + geo.product(coeff.T, dcos.T))
    # np.max, unlike max, propagates a nan, so a nan residual fails
    return np.stack([np.max(res1, axis=0), np.max(np.abs(res2), axis=0)],
                    axis=1)


def _angle_derivatives(lat: _Lattice):
    """(e1(phi), e2(phi)) at each point; raises where no adapted frame."""
    lat.require_frame()
    dphi = _gradient(lat, "phi")
    return (geo.product(lat.centre("e1_coeff").T, dphi.T),
            geo.product(lat.centre("e2_coeff").T, dphi.T))


# ---------------------------------------------------------------------------
# Module-level operations at one parameter point
# ---------------------------------------------------------------------------

def analyze_point(patch: SurfacePatch, q) -> _PointData:
    """Full first/second-order package at a parameter point."""
    return patch.evaluator().data(float(q[0]), float(q[1]))


def shape_frame_fd(patch: SurfacePatch, q) -> np.ndarray:
    """Oracle for the exact Weingarten map: rows A(d/du), A(d/dv) from
    A(X) = -D_X eta, the unit normal differentiated across the parameter
    grid (central differences, one Richardson level) plus the connection."""
    lat = point_lattice(patch, q)
    d_normal = _gradient(lat, "normal")
    tangents, normal = lat.centre("tangents"), lat.centre("normal")
    return np.stack([
        -(d_normal[:, i]
          + np.einsum("ni,nm,nimk->nk", np.ascontiguousarray(tangents[:, i]),
                      normal, lat.centre("gamma")))
        for i in range(2)], axis=1)[0]


def shape_matrix_adapted(patch: SurfacePatch, q) -> np.ndarray:
    """Shape operator in the adapted frame from angle derivatives.

    The matrix is [[e1(phi), e2(phi) - r], [e2(phi) - r, H - e1(phi)]];
    it must agree with the Weingarten computation expressed in (e1, e2).
    """
    lat = point_lattice(patch, q)
    e1_phi, e2_phi = (float(c[0]) for c in _angle_derivatives(lat))
    off = e2_phi - lat.centre("r")[0]
    return np.array([[e1_phi, off],
                     [off, float(lat.centre("mean_h")[0]) - e1_phi]])


def gauss_residual(patch: SurfacePatch, q) -> float:
    """Gauss equation defect: K_induced minus the ambient-side expression

        det A + r^2 + (G - 4 r^2) cos^2(phi) - sin(2 phi) e2(r).
    """
    return float(_gauss(point_lattice(patch, q))[0])


def codazzi_residual(patch: SurfacePatch, q) -> np.ndarray:
    """Codazzi equation defect in adapted-frame components.

    Left side: (nabla_{e1} A)(e2) - (nabla_{e2} A)(e1), tensorial and
    antisymmetric, so det(c1, c2) [d_u S_v - d_v S_u + Gamma_u S_v -
    Gamma_v S_u] with c1, c2 the coefficients of e1, e2, S_j the columns of
    the coordinate shape operator (one stencil level) and Gamma the exact
    Christoffels of the point. Right side:
    [(4 r^2 - G) cos(phi) sin(phi) - cos(2 phi) e2(r)] e2 - e1(r) e1.
    """
    return _codazzi(point_lattice(patch, q))[0]


def compatibility_residuals(patch: SurfacePatch, q) -> tuple[float, float]:
    """Defects of the two structure identities tying T, A and the angle.

    First: D_X T = cos(phi) (A(X) - r eta x X) over X in the adapted frame
    (worst frame-component norm). Second: <A(X) - r eta x X, T> + X(cos phi)
    (worst absolute value).
    """
    return tuple(_compatibility(point_lattice(patch, q))[0].tolist())

