"""Biharmonicity residual systems for CMC surfaces and branch classification.

A surface with constant mean curvature H is biharmonic exactly when

    Delta H + H |A|^2 - H Ricc(eta, eta) = 0
    2 A(grad H) + H grad H - 2 H Ricc(eta)^T = 0,

and properly so when additionally H != 0. Both lines are evaluated honestly
(Delta H and grad H are finite differences of the mean-curvature field, not
assumed zero) so near-CMC inputs degrade gracefully; a probe stencil
enforces the CMC hypothesis up to a tolerance first.

Expanded in an adapted orthonormal frame e1, e2, eta with components
(a_i), (b_i), (c_i) against the ambient frame, the same condition becomes a
three-line algebraic system in the frame components, the bundle curvature r
and its gradient, and the base curvature G; when grad r is tangent and
nonzero the system reduces to two scalar equations in the tilt angle phi.
The classifier sorts a point into the branches of the CMC classification:

    a   phi = pi/2 (vertical tangent plane, Hopf-cylinder regime)
    b1  grad r = 0 (algebraic signature |A|^2 = 2 r^2 with G = 4 r^2)
    b2  grad r != 0 (angle pinned by tan(2 phi) = 2 |grad r| / (4 r^2 - G))

plus a contradiction flag for the impossible configuration 4 r^2 = G with
grad r != 0, and a rejection for phi ~ 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import (
    AngleSingularError,
    GaussBundleDegenerateError,
    NotCMCError,
    ZeroGradRError,
)
from .surface import ANGLE_EPS, SurfacePatch, point_evaluator

__all__ = [
    "BitensionResidual",
    "BranchReport",
    "cmc_probe",
    "bitension_residual",
    "frame_system_residuals",
    "normality_identity",
    "normality_assemblies",
    "angle_system_scalars",
    "reduced_angle_system",
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
    cmc_deviation: float
    mean_h: float

    @property
    def tangential_norm(self) -> float:
        return float(np.linalg.norm(self.tangential))

    def is_biharmonic(self, tol: float | None = None) -> bool:
        """Whether both defects are within ``tol`` (RESIDUAL_TOL as it is
        when called, by default)."""
        tol = RESIDUAL_TOL if tol is None else tol
        return max(abs(self.normal), self.tangential_norm) <= tol

    def is_proper(self, tol: float | None = None) -> bool:
        return self.is_biharmonic(tol) and abs(self.mean_h) > PROPER_H_TOL


@dataclass
class BranchReport:
    """Outcome of the branch classifier at one surface point."""

    branch: str                  # a | b1 | b2 | none | contradiction-propRconst
    satisfied: bool
    diagnostics: dict = field(default_factory=dict)
    note: str = ""


# ---------------------------------------------------------------------------
# CMC gate
# ---------------------------------------------------------------------------

def cmc_probe(patch: SurfacePatch, q):
    """Mean curvature spread over the probe lattice around q.

    Returns (mean value, max deviation from the mean).
    """
    ev, u, v = point_evaluator(patch, q)
    values = np.asarray([ev.weingarten(*p).mean_h
                         for p in ev.probe_lattice(u, v)])
    mean = float(values.mean())
    return mean, float(np.max(np.abs(values - mean)))


def _require_cmc(patch, q):
    mean, dev = cmc_probe(patch, q)
    if dev > CMC_TOL:
        raise NotCMCError(
            f"mean curvature varies by {dev:.3e} (> {CMC_TOL:.1e}) around "
            f"parameters {tuple(q)}; the CMC residual systems do not apply")
    return mean, dev


# ---------------------------------------------------------------------------
# Bitension decomposition
# ---------------------------------------------------------------------------

def bitension_residual(patch: SurfacePatch, q) -> BitensionResidual:
    """Normal and tangential residuals of the biharmonicity system."""
    ev, u, v = point_evaluator(patch, q)
    mean, dev = _require_cmc(patch, q)
    d = ev.weingarten(u, v)

    lap_h, dh = ev.laplacian(ev.mean_h_field, u, v)
    grad_coeff = np.linalg.solve(d.first_form, dh)
    grad_h = grad_coeff @ d.tangents
    a_grad_h = ev.shape_apply_coeff(u, v, grad_coeff)

    ric = geo.ricci_from_scalars(d.r, d.grad_r, d.gauss_base, d.lam)
    ric_nn = float(d.normal @ ric @ d.normal)
    ric_tangent = sum(float(d.normal @ ric @ f) * f for f in d.ortho_basis)

    h_val = d.mean_h
    normal = lap_h + h_val * d.norm_sq - h_val * ric_nn
    tangential_vec = 2.0 * a_grad_h + h_val * grad_h - 2.0 * h_val * ric_tangent
    tangential = np.array([float(tangential_vec @ f) for f in d.ortho_basis])
    return BitensionResidual(float(normal), tangential, dev, mean)


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


def frame_system_residuals(patch: SurfacePatch, q) -> np.ndarray:
    """The three biharmonicity residuals in the components of the
    orthonormalized coordinate tangents (no angle restriction).

    Line 1 and the norm of (line 2, line 3) do not depend on the tangent
    pair: any rotated or reflected orthonormal pair gives them too.
    """
    ev, u, v = point_evaluator(patch, q)
    _require_cmc(patch, q)
    d = ev.weingarten(u, v)
    e1, e2 = d.ortho_basis
    return _system_lines(d.gauss_base, d.r, d.grad_r[0], d.grad_r[1],
                         d.lam, e1, e2, d.normal, d.norm_sq)


def normality_identity(patch: SurfacePatch, q) -> float:
    """cos(phi) <grad r, eta>: must vanish on proper biharmonic surfaces."""
    ev, u, v = point_evaluator(patch, q)
    d = ev.data(u, v)
    c1, c2, c3 = d.normal
    return float(c3 * (c1 * d.grad_r[0] + c2 * d.grad_r[1]) / d.lam)


def normality_assemblies(patch: SurfacePatch, q) -> tuple[float, float]:
    """The normality value assembled two ways (directly, and from the
    tangential system lines); they agree up to the frame handedness sign."""
    ev, u, v = point_evaluator(patch, q)
    d = ev.weingarten(u, v)
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


def _grad_r_norm(d) -> float:
    return float(math.hypot(d.grad_r[0], d.grad_r[1]) / d.lam)


def reduced_angle_system(patch: SurfacePatch, q) -> dict:
    """Evaluate the reduced angle system at a surface point.

    Requires an interior angle (sin phi and |cos phi| both bounded away from
    0) and a nonzero bundle-curvature gradient. The impossible configuration
    4 r^2 = G with grad r != 0 raises
    :class:`GaussBundleDegenerateError`.
    """
    ev, u, v = point_evaluator(patch, q)
    d = ev.weingarten(u, v)
    if d.sin_phi < ANGLE_EPS or abs(d.cos_phi) < ANGLE_EPS:
        raise AngleSingularError(
            f"angle phi = {d.phi:.6f} is not interior at parameters {q}")
    grad_norm = _grad_r_norm(d)
    if grad_norm <= GRAD_ZERO_TOL:
        raise ZeroGradRError(
            f"|grad r| = {grad_norm:.2e} at parameters {q}; "
            "use the frame-component system instead")
    diff = 4.0 * d.r ** 2 - d.gauss_base
    if abs(diff) < DEGENERATE_TOL:
        raise GaussBundleDegenerateError(
            f"4 r^2 - G = {diff:.2e} with |grad r| = {grad_norm:.2e}: "
            "no proper biharmonic CMC surface exists here")
    return angle_system_scalars(d.gauss_base, d.r, grad_norm, d.phi, d.norm_sq)


def angle_shape_residual(patch: SurfacePatch, q) -> float:
    """Defect of 2 |A|^2 = tan(phi) Delta(phi) + |grad phi|^2."""
    ev, u, v = point_evaluator(patch, q)
    d = ev.weingarten(u, v)
    if d.sin_phi < ANGLE_EPS:
        raise AngleSingularError(f"phi ~ 0 at parameters {q}")
    if abs(d.cos_phi) < COS_EPS:
        raise AngleSingularError(
            f"phi ~ pi/2 at parameters {q}: tan(phi) check is degenerate")
    lap_phi, dphi = ev.laplacian(ev.phi_field, u, v)
    grad_sq = float(dphi @ np.linalg.solve(d.first_form, dphi))
    return 2.0 * d.norm_sq - math.tan(d.phi) * lap_phi - grad_sq


def angle_shape_alt_assembly(patch: SurfacePatch, q) -> float:
    """Defect of the same identity assembled from second frame derivatives:

        2 |A|^2 = tan(phi)(e1 e1(phi) + e2 e2(phi)) + 2 r e2(phi) + H e1(phi)

    with e_a(e_a phi) = c_a^i c_a^j phi_ij + c_a^j (d_j c_a^i) phi_i, where
    c_a are the (du, dv) coefficients of e_a: phi's Hessian and the
    coefficients' derivatives each come from one stencil level.
    """
    ev, u, v = point_evaluator(patch, q)
    d = ev.weingarten(u, v)
    if d.sin_phi < ANGLE_EPS or abs(d.cos_phi) < COS_EPS:
        raise AngleSingularError(f"angle not interior at parameters {q}")

    _, dphi, hess = ev.field_derivatives(ev.phi_field, u, v)
    c = np.stack(ev.adapted_coeffs(u, v))
    # dc[j, a, i] = d_j c_a^i
    dc = ev.dfield(lambda uu, vv: np.stack(ev.adapted_coeffs(uu, vv)), u, v)
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
    sin_phi = math.sqrt(max(0.0, 1.0 - cos_phi * cos_phi))
    phi = math.acos(max(-1.0, min(1.0, cos_phi)))
    diff = 4.0 * r * r - gauss

    if sin_phi < ANGLE_EPS:
        return BranchReport(
            "none", False,
            {"sin_phi": sin_phi},
            "vertical field normal to the surface: rejected (a proper "
            "biharmonic CMC surface cannot have phi = 0)")

    if abs(cos_phi) < ANGLE_EPS:
        hopf_residual = abs(mean_h * mean_h - (gauss - 4.0 * r * r))
        return BranchReport(
            "a", hopf_residual <= RESIDUAL_TOL,
            {"hopf_criterion_residual": hopf_residual,
             "admissible_h_sq": gauss - 4.0 * r * r},
            "Hopf-cylinder regime: needs r, G constant along the surface "
            "and H^2 = G - 4 r^2")

    if abs(diff) <= DEGENERATE_TOL and grad_norm > GRAD_ZERO_TOL:
        return BranchReport(
            "contradiction-propRconst", False,
            {"gauss_bundle_diff": diff, "grad_r_norm": grad_norm},
            "4 r^2 = G with grad r != 0: no proper biharmonic CMC surface")

    if grad_norm <= GRAD_ZERO_TOL:
        sphere_residual = abs(norm_sq - 2.0 * r * r)
        if abs(diff) > RESIDUAL_TOL:
            return BranchReport(
                "b1", False,
                {"sphere_condition_residual": sphere_residual,
                 "gauss_bundle_diff": diff},
                "constant r with G != 4 r^2 forces a vertical normal and a "
                "minimal surface: not proper")
        return BranchReport(
            "b1", sphere_residual <= RESIDUAL_TOL,
            {"sphere_condition_residual": sphere_residual,
             "gauss_bundle_diff": diff},
            "constant-r branch: algebraic signature |A|^2 = 2 r^2")

    scal = angle_system_scalars(gauss, r, grad_norm, phi, norm_sq)
    tan2 = scal["tan2phi_residual"]
    satisfied = (abs(tan2) <= RESIDUAL_TOL
                 and abs(scal["norm_residual"]) <= RESIDUAL_TOL)
    return BranchReport(
        "b2", satisfied,
        {"tan2phi_residual": tan2,
         "norm_residual": scal["norm_residual"],
         "res1": scal["res1"], "res2": scal["res2"]},
        "variable-r branch: angle pinned by tan(2 phi)")


def classify_point(patch: SurfacePatch, q) -> BranchReport:
    """Classify a CMC surface point against the branches of the
    classification (see :func:`classify_scalars`)."""
    ev, u, v = point_evaluator(patch, q)
    _require_cmc(patch, q)
    d = ev.weingarten(u, v)
    report = classify_scalars(d.cos_phi, _grad_r_norm(d), d.gauss_base, d.r,
                              d.norm_sq, d.mean_h)

    if report.branch == "a":
        # constancy of r and G along the surface, probed on the lattice
        pts = [ev.data(*p) for p in ev.probe_lattice(u, v)]
        r_vals = np.array([p.r for p in pts])
        g_vals = np.array([p.gauss_base for p in pts])
        report.diagnostics["r_spread"] = float(np.ptp(r_vals))
        report.diagnostics["gauss_spread"] = float(np.ptp(g_vals))
        constant = (report.diagnostics["r_spread"] <= RESIDUAL_TOL
                    and report.diagnostics["gauss_spread"] <= RESIDUAL_TOL)
        report.satisfied = bool(report.satisfied and constant)
    elif report.branch == "b2":
        try:
            report.diagnostics["aphi_residual"] = angle_shape_residual(patch, q)
        except AngleSingularError:
            report.diagnostics["aphi_residual"] = None
    return report
