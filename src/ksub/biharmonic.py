"""Biharmonicity residual systems for CMC surfaces and branch classification.

A surface with constant mean curvature H is biharmonic exactly when

    Delta H + H |A|^2 - H Ricc(eta, eta) = 0
    2 A(grad H) + H grad H - 2 H Ricc(eta)^T = 0,

and properly so when additionally H != 0. Both lines are evaluated honestly
(Delta H and grad H are finite differences of the mean-curvature field, not
assumed zero) so near-CMC inputs degrade gracefully; the mean-curvature
spread over the probe lattice (:func:`_cmc`, which each residual reads from
its lattice) enforces the CMC hypothesis up to a tolerance first.

Expanded in an adapted orthonormal frame e1, e2, eta with components
(a_i), (b_i), (c_i) against the ambient frame, the same condition becomes a
three-line algebraic system in the frame components, the bundle curvature r
and its gradient, and the base curvature G; when grad r is tangent and
nonzero the system reduces to two scalar equations in the tilt angle phi
(:func:`angle_system_scalars`, and b2's residuals below).
:func:`classify_scalars` alone sorts a point into the branches of the CMC
classification:

    a   phi = pi/2 (vertical tangent plane, Hopf-cylinder regime)
    b1  grad r = 0 (algebraic signature |A|^2 = 2 r^2 with G = 4 r^2)
    b2  grad r != 0 (angle pinned by tan(2 phi) = 2 |grad r| / (4 r^2 - G))

plus contradiction-propRconst for the impossible configuration 4 r^2 = G
with grad r != 0, and none for phi ~ 0. A nan among the inputs a branch
reads leaves its report unsatisfied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import AngleSingularError, NotCMCError
from . import surface as srf
from .expr import _hypot
from .surface import ANGLE_EPS, SurfacePatch

__all__ = [
    "BitensionResidual",
    "BranchReport",
    "cmc_probe",
    "bitension_residual",
    "frame_system_residuals",
    "bitension_frame_identity",
    "normality_identity",
    "normality_assemblies",
    "angle_system_scalars",
    "angle_shape_residual",
    "classify_scalars",
    "classify_point",
]

CMC_TOL = 1e-4         # allowed mean-curvature spread over the probe
RESIDUAL_TOL = 1e-4    # "residual vanishes" threshold (FD-limited)
GRAD_ZERO_TOL = 1e-6   # |grad r| below this counts as constant r
DEGENERATE_TOL = 1e-8  # |4 r^2 - G| below this with grad r != 0: contradiction
COS_EPS = 1e-8         # |cos phi| below this: tan(phi) checks are degenerate
PROPER_H_TOL = 1e-8    # |H| above this counts as H != 0 (proper)


@dataclass
class BitensionResidual:
    """Normal and tangential biharmonicity defects of a CMC surface point."""

    normal: float
    tangential: np.ndarray       # components in the orthonormal tangent basis
    mean_h: float

    @property
    def tangential_norm(self) -> float:
        return float(np.linalg.norm(self.tangential))

    def is_biharmonic(self, tol: float | None = None) -> bool:
        """Whether both defects are within ``tol`` (RESIDUAL_TOL as it is
        when called, by default)."""
        tol = RESIDUAL_TOL if tol is None else tol
        return abs(self.normal) <= tol and self.tangential_norm <= tol

    def is_proper(self, tol: float | None = None) -> bool:
        return self.is_biharmonic(tol) and abs(self.mean_h) > PROPER_H_TOL


@dataclass
class BranchReport:
    """Outcome of the branch classifier at one surface point, decided by
    :func:`classify_scalars` alone (none, a, contradiction-propRconst, b1 or
    b2); a nan input that the branch reads makes it unsatisfied. Its
    diagnostics are the residuals that decided it: ``hopf_criterion_residual``
    in a, ``sphere_condition_residual`` in b1, ``tan2phi_residual`` and
    ``norm_residual`` in b2, and none in none and contradiction-propRconst.
    """

    branch: str                  # a | b1 | b2 | none | contradiction-propRconst
    satisfied: bool
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# CMC gate
# ---------------------------------------------------------------------------

def _cmc(lat):
    """Mean curvature over the probe lattice of each point of a lattice:
    (mean value, max deviation from the mean)."""
    values = lat.column("probes", "mean_h")
    mean = values.mean(axis=1)
    return mean, np.max(np.abs(values - mean[:, None]), axis=1)


def cmc_probe(patch: SurfacePatch, q):
    """Mean curvature spread over the probe lattice around q.

    Returns (mean value, max deviation from the mean).
    """
    mean, dev = _cmc(srf.point_lattice(patch, q))
    return float(mean[0]), float(dev[0])


def _cmc_mask(dev) -> np.ndarray:
    """The CMC gate on a lattice's mean-curvature spreads ``_cmc(lat)[1]``:
    each is at most CMC_TOL. A nan spread passes."""
    return ~(dev > CMC_TOL)


def _cmc_lattice(patch: SurfacePatch, q):
    """The lattice of q, once the CMC gate passes at q."""
    lat = srf.point_lattice(patch, q)
    dev = _cmc(lat)[1]
    if not _cmc_mask(dev)[0]:
        raise NotCMCError(
            f"mean curvature varies by {dev[0]:.3e} (> {CMC_TOL:.1e}) around "
            f"parameters {tuple(q)}; the CMC residual systems do not apply")
    return lat


# ---------------------------------------------------------------------------
# Bitension decomposition
# ---------------------------------------------------------------------------

def _bitension(lat) -> list[BitensionResidual]:
    """:func:`bitension_residual` at every point of a lattice, each with
    the mean of H over its probe lattice (see :func:`_cmc`)."""
    centre = lat.centre
    lap_h, dh = srf.SurfaceEvaluator.laplacian(
        lat, lat.column("stencil", "mean_h"))
    grad_coeff = np.linalg.solve(centre("first_form"), dh[:, :, None])[:, :, 0]
    grad_h = srf._vecmat(grad_coeff, centre("tangents"))
    a_grad_h = srf._vecmat(grad_coeff, centre("shape_frame"))

    ric = geo.ricci_from_scalars(centre("r"), centre("grad_r").T,
                                 centre("gauss_base"), centre("lam"))
    normal, basis = centre("normal").T, centre("ortho_basis")
    f1, f2 = basis[:, 0], basis[:, 1]
    ric_nn = geo.product(normal, ric, normal)
    # summed from zero, so a -0.0 component reads +0.0
    ric_tangent = (0.0 + geo.product(normal, ric, f1.T)[:, None] * f1
                   + geo.product(normal, ric, f2.T)[:, None] * f2)

    h_val = centre("mean_h")
    normal_res = lap_h + h_val * centre("norm_sq") - h_val * ric_nn
    tangential_vec = (2.0 * a_grad_h + h_val[:, None] * grad_h
                      - (2.0 * h_val)[:, None] * ric_tangent)
    tangential = np.stack([geo.product(tangential_vec.T, f1.T),
                           geo.product(tangential_vec.T, f2.T)], axis=1)
    return [BitensionResidual(n, t, m) for n, t, m in zip(
        normal_res.tolist(), tangential, _cmc(lat)[0].tolist())]


def bitension_residual(patch: SurfacePatch, q) -> BitensionResidual:
    """Normal and tangential residuals of the biharmonicity system."""
    return _bitension(_cmc_lattice(patch, q))[0]


# ---------------------------------------------------------------------------
# Frame-component system
# ---------------------------------------------------------------------------

def _system_lines(gauss, r, rx, ry, lam, e1, e2, normal, norm_sq):
    a1, a2, a3 = e1
    b1, b2, b3 = e2
    c1, c2, c3 = normal
    diff = 4.0 * r * r - gauss
    line1 = ((gauss - 2.0 * r * r) + diff * c3 * c3
             + 2.0 * c3 * (c2 * rx - c1 * ry) / lam - norm_sq)
    line2 = (diff * c3 * a3
             + (rx * (c2 * a3 + c3 * a2) - ry * (c1 * a3 + c3 * a1)) / lam)
    line3 = (diff * c3 * b3
             + (rx * (c2 * b3 + c3 * b2) - ry * (c1 * b3 + c3 * b1)) / lam)
    return np.array([line1, line2, line3])


def _frame_system(lat) -> np.ndarray:
    """The three lines at each point of a lattice, (3, N)."""
    centre = lat.centre
    basis, grad_r = centre("ortho_basis"), centre("grad_r")
    return _system_lines(centre("gauss_base"), centre("r"), grad_r[:, 0],
                         grad_r[:, 1], centre("lam"), basis[:, 0].T,
                         basis[:, 1].T, centre("normal").T, centre("norm_sq"))


def frame_system_residuals(patch: SurfacePatch, q) -> np.ndarray:
    """The three biharmonicity residuals in the components of the
    orthonormalized coordinate tangents (no angle restriction).

    Line 1 and the norm of (line 2, line 3) do not depend on the tangent
    pair: any rotated or reflected orthonormal pair gives them too.
    """
    return _frame_system(_cmc_lattice(patch, q))[:, 0]


def bitension_frame_identity(patch: SurfacePatch, q) -> np.ndarray:
    """Defects of the bitension against the frame system at q, on any
    surface (no CMC gate): the frame system is the bitension with its
    mean-curvature terms taken out,

        normal = Delta H - H line1
        tangential_i = (2 A(grad H) + H grad H) . f_i - 2 H line_(i+1),

    with f_i the orthonormalized coordinate tangents. Returns the three
    defects, each side read from q's lattice."""
    lat = srf.point_lattice(patch, q)
    [bt] = _bitension(lat)
    lines = _frame_system(lat)[:, 0]
    lap_h, dh = srf.SurfaceEvaluator.laplacian(
        lat, lat.column("stencil", "mean_h"))
    coeff = np.linalg.solve(lat.centre("first_form")[0], dh[0])
    grad_h = coeff @ lat.centre("tangents")[0]
    a_grad_h = coeff @ lat.centre("shape_frame")[0]
    h = lat.centre("mean_h")[0]
    tangential = [(2.0 * a_grad_h + h * grad_h) @ f - 2.0 * h * line
                  for f, line in zip(lat.centre("ortho_basis")[0], lines[1:])]
    return np.array([bt.normal - (lap_h[0] - h * lines[0]),
                     *(bt.tangential - tangential)])


def normality_identity(patch: SurfacePatch, q) -> float:
    """cos(phi) <grad r, eta>: must vanish on proper biharmonic surfaces."""
    d = srf.analyze_point(patch, q)
    c1, c2, c3 = d.normal
    return float(c3 * (c1 * d.grad_r[0] + c2 * d.grad_r[1]) / d.lam)


def normality_assemblies(patch: SurfacePatch, q) -> tuple[float, float]:
    """The normality value assembled two ways (directly, and from the
    tangential system lines); they agree up to the frame handedness sign."""
    d = srf.analyze_point(patch, q)
    direct = normality_identity(patch, q)
    lines = _system_lines(d.gauss_base, d.r, d.grad_r[0], d.grad_r[1],
                          d.lam, d.ortho_basis[0], d.ortho_basis[1],
                          d.normal, d.norm_sq)
    a3 = d.ortho_basis[0][2]
    b3 = d.ortho_basis[1][2]
    handed = float(np.linalg.det(np.stack(
        [d.ortho_basis[0], d.ortho_basis[1], d.normal])))
    assembled = (lines[1] * b3 - lines[2] * a3) * math.copysign(1.0, handed)
    return direct, float(assembled)


# ---------------------------------------------------------------------------
# Reduced angle system (grad r tangent and nonzero)
# ---------------------------------------------------------------------------

def angle_system_scalars(gauss: float, r: float, grad_norm: float,
                         phi: float, norm_sq: float) -> dict:
    """Scalar core of the reduced two-equation system in the tilt angle.

    Returns the two residuals, the angle-determination defect
    tan(2 phi) - 2 |grad r| / (4 r^2 - G) (None in the degenerate case), and
    the derived norm identity defect |A|^2 - 2 r^2 - |grad r| tan(phi).
    """
    diff = 4.0 * r * r - gauss
    s2, c2 = math.sin(2.0 * phi), math.cos(2.0 * phi)
    res1 = (gauss - 2.0 * r * r + diff * math.cos(phi) ** 2
            + grad_norm * s2 - norm_sq)
    res2 = -diff * 0.5 * s2 + grad_norm * c2
    tan2_residual = None
    if diff != 0.0:
        tan2_residual = math.tan(2.0 * phi) - 2.0 * grad_norm / diff
    norm_residual = norm_sq - 2.0 * r * r - grad_norm * math.tan(phi)
    return {
        "res1": res1,
        "res2": res2,
        "tan2phi_residual": tan2_residual,
        "norm_residual": norm_residual,
    }


def _grad_r_norm(grad_r, lam) -> list[float]:
    """|grad r| at each point, from the rows of grad r and lam."""
    return (_hypot(*np.reshape(grad_r, (-1, 2)).T) / np.ravel(lam)).tolist()


def _angle_shape(lat) -> np.ndarray:
    """:func:`angle_shape_residual` at every point of a lattice."""
    lap_phi, dphi = srf.SurfaceEvaluator.laplacian(
        lat, lat.column("stencil", "phi"))
    grad_sq = geo.product(dphi.T, np.linalg.solve(
        lat.centre("first_form"), dphi[:, :, None])[:, :, 0].T)
    return (2.0 * lat.centre("norm_sq")
            - np.tan(lat.centre("phi")) * lap_phi - grad_sq)


def angle_shape_residual(patch: SurfacePatch, q) -> float:
    """Defect of 2 |A|^2 = tan(phi) Delta(phi) + |grad phi|^2."""
    lat = srf.point_lattice(patch, q)
    if lat.centre("sin_phi")[0] < ANGLE_EPS:
        raise AngleSingularError(f"phi ~ 0 at parameters {q}")
    if abs(lat.centre("cos_phi")[0]) < COS_EPS:
        raise AngleSingularError(
            f"phi ~ pi/2 at parameters {q}: tan(phi) check is degenerate")
    return float(_angle_shape(lat)[0])


def angle_shape_alt_assembly(patch: SurfacePatch, q) -> float:
    """Defect of the same identity assembled from second frame derivatives:

        2 |A|^2 = tan(phi)(e1 e1(phi) + e2 e2(phi)) + 2 r e2(phi) + H e1(phi)

    with e_a(e_a phi) = c_a^i c_a^j phi_ij + c_a^j (d_j c_a^i) phi_i, where
    c_a are the (du, dv) coefficients of e_a: phi's Hessian and the
    coefficients' derivatives each come from one stencil level.
    """
    lat = srf.point_lattice(patch, q)
    d = srf.analyze_point(patch, q)
    if d.sin_phi < ANGLE_EPS or abs(d.cos_phi) < COS_EPS:
        raise AngleSingularError(f"angle not interior at parameters {q}")

    _, dphi, hess = srf._derivatives(lat, lat.column("stencil", "phi"))
    dphi, hess = dphi[0], hess[0]
    # the coefficients at the stencil's axis points need a frame there
    framed = lat.column("stencil", "framed")[0, 1:9]
    if not framed.all():
        k = 1 + int(np.argmin(framed))
        raise srf._no_frame(float(lat.column("stencil", "sin_phi")[0, k]),
                            *lat.column("stencil", "params")[0, k].tolist())
    c = np.stack([d.e1_coeff, d.e2_coeff])
    # dc[j, a, i] = d_j c_a^i
    dc = srf._derivatives(lat, np.stack(
        [lat.column("stencil", "e1_coeff"),
         lat.column("stencil", "e2_coeff")], axis=2))[1][0]
    e_phi = c @ dphi
    e_e_phi = (np.einsum("ai,aj,ij->a", c, c, hess)
               + np.einsum("aj,jai,i->a", c, dc, dphi))
    rhs = (math.tan(d.phi) * (e_e_phi[0] + e_e_phi[1])
           + 2.0 * d.r * e_phi[1] + d.mean_h * e_phi[0])
    return 2.0 * d.norm_sq - rhs


# ---------------------------------------------------------------------------
# Branch classifier
# ---------------------------------------------------------------------------

def classify_scalars(cos_phi: float, grad_norm: float, gauss: float,
                     r: float, norm_sq: float, mean_h: float) -> BranchReport:
    """Branch decision from pointwise scalars (no surface machinery).

    This is the core behind :func:`classify_point`; it also serves synthetic
    data that has no backing surface patch.
    """
    diff = 4.0 * r * r - gauss
    if math.sqrt(max(0.0, 1.0 - cos_phi * cos_phi)) < ANGLE_EPS:
        # vertical field normal to the surface: rejected (a proper
        # biharmonic CMC surface cannot have phi = 0)
        return BranchReport("none", False)

    if abs(cos_phi) < ANGLE_EPS:
        # Hopf-cylinder regime: H^2 = G - 4 r^2 (and r, G constant along
        # the surface, which :func:`_classify` checks)
        residual = abs(mean_h * mean_h + diff)
        return BranchReport("a", residual <= RESIDUAL_TOL,
                            {"hopf_criterion_residual": residual})

    if abs(diff) <= DEGENERATE_TOL and not grad_norm <= GRAD_ZERO_TOL:
        # 4 r^2 = G with grad r != 0 (a nan |grad r| counts as nonzero): no
        # proper biharmonic CMC surface
        return BranchReport("contradiction-propRconst", False)

    if grad_norm <= GRAD_ZERO_TOL:
        # constant-r branch: |A|^2 = 2 r^2 with G = 4 r^2 (else the normal
        # is vertical and the surface minimal: not proper)
        residual = abs(norm_sq - 2.0 * r * r)
        return BranchReport(
            "b1", abs(diff) <= RESIDUAL_TOL and residual <= RESIDUAL_TOL,
            {"sphere_condition_residual": residual})

    # variable-r branch: angle pinned by tan(2 phi) (phi is interior here)
    scal = angle_system_scalars(gauss, r, grad_norm, math.acos(cos_phi),
                                norm_sq)
    residuals = {key: scal[key] for key in ("tan2phi_residual",
                                            "norm_residual")}
    return BranchReport("b2", all(abs(value) <= RESIDUAL_TOL
                                  for value in residuals.values()), residuals)


def _classify(lat) -> list[BranchReport]:
    """:func:`classify_point` at every point of a lattice."""
    centre = lat.centre
    reports = [classify_scalars(*args) for args in zip(
        centre("cos_phi").tolist(),
        _grad_r_norm(centre("grad_r"), centre("lam")),
        centre("gauss_base").tolist(), centre("r").tolist(),
        centre("norm_sq").tolist(), centre("mean_h").tolist())]
    # branch a: r and G constant over the probe lattice (a nan spread fails)
    spreads = np.maximum(np.ptp(lat.column("probes", "r"), axis=1),
                         np.ptp(lat.column("probes", "gauss_base"), axis=1))
    for report, spread in zip(reports, spreads.tolist()):
        if report.branch == "a" and not spread <= RESIDUAL_TOL:
            report.satisfied = False
    return reports


def classify_point(patch: SurfacePatch, q) -> BranchReport:
    """Classify a CMC surface point against the branches of the
    classification (see :func:`classify_scalars`)."""
    return _classify(_cmc_lattice(patch, q))[0]
