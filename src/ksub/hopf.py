"""Base curves, their vertical cylinders, and the cylinder biharmonicity test.

A vertical cylinder over a base curve alpha (the preimage of alpha under the
submersion) has mean curvature equal to the geodesic curvature kappa_g of
alpha and geodesic torsion -r along it. For unit-speed alpha the cylinder is
properly biharmonic exactly when kappa_g, r and G are constant along alpha,
kappa_g != 0, and kappa_g^2 = G - 4 r^2; the residual form of that criterion
is the system

    kappa''  - kappa^3 + (G - 4 r^2) kappa = 0
    kappa kappa'                           = 0
    r kappa' + (x' r_x + y' r_y) kappa     = 0

evaluated along arc length. The general cylinder system (in terms of the
torsion tau_g and ambient Ricci values) is evaluated alongside it as a
cross-check; after substituting tau_g = -r and the Ricci components the two
agree line by line up to fixed factors.

Two base charts are supported: the conformal chart of a
:class:`~ksub.geometry.KillingData` (metric lam^2 (dx^2 + dy^2)) and a
rotationally symmetric warped chart dt^2 + f(t)^2 dtheta^2 with a prescribed
constant bundle curvature, which is how the constant-curvature circle
construction below works without ever building an isothermal conformal
factor.

Sign convention: kappa_g uses the normal n = J(alpha') with (alpha', n)
positively oriented, so an anticlockwise Euclidean circle of radius R in the
flat chart has kappa_g = +1/R. The lifted frame on the cylinder uses the
opposite base normal, so the surface-module mean curvature computed with
that frame equals -kappa_g; only kappa_g^2 enters the criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry as geo
from . import numdiff
from . import surface as srf
from .errors import (
    DegenerateCurveError,
    FdMarginError,
    NoIsolatedRootError,
    NotArcLengthError,
    OutsideDomainError,
)
from .expr import Expr, Jet, batched, compose_jet, eval_jet, parse, power

__all__ = [
    "BaseCurve",
    "ReparamCurve",
    "ConformalBase",
    "WarpedBase",
    "HopfReport",
    "HopfVerdict",
    "RotationalCase",
    "bcv_circle",
    "circle_kappa",
    "circle_radius_for_kappa",
    "arclength_reparam",
    "curve_length",
    "geodesic_curvature",
    "hopf_residuals",
    "classify_hopf",
    "rotational_case_search",
    "cylinder_patch",
    "cylinder_surface_check",
]

ARC_TOL = 1e-6         # allowed |speed - 1| for operations that assume arc length
CONST_TOL = 1e-5       # allowed spread for "constant along the curve"
CRITERION_TOL = 1e-5   # allowed defect in kappa^2 = G - 4 r^2
KAPPA_MIN = 1e-6       # |kappa| below this counts as minimal (not proper)


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BaseCurve:
    """Plane curve s -> (x(s), y(s)) given by expressions in one variable."""

    x: Expr
    y: Expr
    interval: tuple[float, float]
    arc_length: bool = False

    def __post_init__(self):
        if len(self.x.variables) != 1 or self.y.variables != self.x.variables:
            raise ValueError("curve components must share one parameter")
        if not self.interval[1] > self.interval[0]:
            raise ValueError("curve interval must have positive length")

    def point_jets(self, s: float) -> tuple[Jet, Jet]:
        return eval_jet(self.x, (s,)), eval_jet(self.y, (s,))

    def point(self, s: float) -> tuple[float, float]:
        jx, jy = self.point_jets(s)
        return jx.value, jy.value


class ReparamCurve:
    """Arc-length view of a curve, backed by a dense ODE solution t(s)."""

    def __init__(self, curve: BaseCurve, base, solution, length: float):
        self.curve = curve
        self.base = base
        self._solution = solution
        self.interval = (0.0, float(length))
        self.arc_length = True

    def point_jets(self, s: float) -> tuple[Jet, Jet]:
        t = float(self._solution(s)[0])
        sigma, dsigma = self.base.speed_jet(self.curve, t)
        tp = 1.0 / sigma
        tpp = -dsigma / sigma ** 3
        inner = Jet(t, [tp], [[tpp]])
        jx, jy = self.curve.point_jets(t)
        return compose_jet(jx, [inner]), compose_jet(jy, [inner])

    def point(self, s: float) -> tuple[float, float]:
        t = float(self._solution(s)[0])
        return self.curve.point(t)


# ---------------------------------------------------------------------------
# Base charts
# ---------------------------------------------------------------------------

class ConformalBase:
    """The base surface of a canonical metric: lam^2 (dx^2 + dy^2)."""

    def __init__(self, data: geo.KillingData):
        self.data = data

    def contains(self, p, margin: float = 0.0) -> bool:
        return self.data.domain.contains(p[0], p[1], margin)

    def metric(self, p) -> np.ndarray:
        lam = self.data.lam(p[0], p[1])
        return np.diag([lam * lam, lam * lam])

    def christoffels(self, p) -> np.ndarray:
        lam, _, _ = self.data.base_jets(p[0], p[1])
        ux = lam.grad[0] / lam.value
        uy = lam.grad[1] / lam.value
        gamma = np.empty((2, 2, 2))
        gamma[0] = [[ux, uy], [uy, -ux]]
        gamma[1] = [[-uy, ux], [ux, uy]]
        return gamma

    def gauss(self, p) -> float:
        return geo.gauss_curvature(self.data, p)

    def bundle(self, p) -> tuple[float, np.ndarray]:
        return geo.bundle_curvature(self.data, p)

    def ricci_values(self, p, xp: float, yp: float, r: float, grad_r,
                     gauss: float):
        """(Ricc(eta,eta), Ricc(eta,e1), Ricc(eta,e2)) for the lifted frame,
        from r, its gradient and G at ``p``."""
        lam = self.data.lam(p[0], p[1])
        eta = np.array([lam * yp, -lam * xp, 0.0])
        e1 = np.array([lam * xp, lam * yp, 0.0])
        e2 = np.array([0.0, 0.0, 1.0])
        ric = geo.ricci_from_scalars(r, grad_r, gauss, lam)
        return (float(eta @ ric @ eta), float(eta @ ric @ e1),
                float(eta @ ric @ e2))

    def speed_jet(self, curve: BaseCurve, t: float) -> tuple[float, float]:
        """(speed, d speed / dt) of a curve in this chart."""
        jx, jy = curve.point_jets(t)
        lam2 = eval_jet(self.data.lam, (jx.value, jy.value))
        lam = compose_jet(lam2, [jx, jy])
        xp, yp = jx.grad[0], jy.grad[0]
        xpp, ypp = jx.hess[0, 0], jy.hess[0, 0]
        qn = math.hypot(xp, yp)
        if qn == 0.0:
            raise DegenerateCurveError(f"curve has zero velocity at t = {t}")
        sigma = lam.value * qn
        dsigma = lam.grad[0] * qn + lam.value * (xp * xpp + yp * ypp) / qn
        return sigma, dsigma


class WarpedBase:
    """Rotationally symmetric chart dt^2 + f(t)^2 dtheta^2, constant bundle r.

    Curve components are read as (t(s), theta(s)). The angular coordinate is
    periodic, so only the t-range is checked for containment.
    """

    def __init__(self, f: Expr, r: float, t_interval: tuple[float, float]):
        if len(f.variables) != 1:
            raise ValueError("warp profile must be an expression in one variable")
        self.f = f
        self.r = float(r)
        self.t_interval = (float(t_interval[0]), float(t_interval[1]))

    def contains(self, p, margin: float = 0.0) -> bool:
        return (self.t_interval[0] + margin < p[0]
                < self.t_interval[1] - margin)

    def _fjet(self, t: float) -> Jet:
        jet = eval_jet(self.f, (t,))
        if jet.value <= 0.0:
            raise OutsideDomainError(f"warp profile nonpositive at t = {t}")
        return jet

    def metric(self, p) -> np.ndarray:
        f = self._fjet(p[0])
        return np.diag([1.0, f.value ** 2])

    def christoffels(self, p) -> np.ndarray:
        f = self._fjet(p[0])
        gamma = np.zeros((2, 2, 2))
        gamma[0, 1, 1] = -f.value * f.grad[0]
        gamma[1, 0, 1] = gamma[1, 1, 0] = f.grad[0] / f.value
        return gamma

    def gauss(self, p) -> float:
        f = self._fjet(p[0])
        return -f.hess[0, 0] / f.value

    def bundle(self, p) -> tuple[float, np.ndarray]:
        return self.r, np.zeros(2)

    def ricci_values(self, p, xp: float, yp: float, r: float, grad_r,
                     gauss: float):
        return (gauss - 2.0 * r ** 2, 0.0, 0.0)

    def speed_jet(self, curve: BaseCurve, t: float) -> tuple[float, float]:
        jx, jy = curve.point_jets(t)
        f = self._fjet(jx.value)
        tp, thp = jx.grad[0], jy.grad[0]
        tpp, thpp = jx.hess[0, 0], jy.hess[0, 0]
        sq = tp * tp + f.value ** 2 * thp * thp
        if sq <= 0.0:
            raise DegenerateCurveError(f"curve has zero velocity at t = {t}")
        sigma = math.sqrt(sq)
        dsq = (2.0 * tp * tpp + 2.0 * f.value * f.grad[0] * tp * thp * thp
               + 2.0 * f.value ** 2 * thp * thpp)
        return sigma, 0.5 * dsq / sigma


# ---------------------------------------------------------------------------
# Circles in a BCV chart (arc length in closed form)
# ---------------------------------------------------------------------------

def circle_kappa(c: float, radius: float) -> float:
    """Geodesic curvature of the origin-centered circle of Euclidean radius R
    in the rotationally symmetric chart with curvature c (anticlockwise)."""
    return 1.0 / radius - 0.25 * c * radius


def circle_radius_for_kappa(c: float, kappa: float) -> float:
    """Euclidean radius of the origin-centered circle with geodesic curvature
    kappa (kappa > -inf, kappa^2 + c > 0 required when c != 0)."""
    if c == 0.0:
        if kappa <= 0.0:
            raise ValueError("flat chart circles need kappa > 0")
        return 1.0 / kappa
    disc = kappa * kappa + c
    if disc <= 0.0:
        raise ValueError(f"no circle with geodesic curvature {kappa} when "
                         f"kappa^2 + c = {disc} <= 0")
    return 2.0 * (math.sqrt(disc) - kappa) / c


def bcv_circle(c: float, radius: float | None = None,
               kappa: float | None = None) -> BaseCurve:
    """Arc-length circle around the origin of the BCV base chart.

    Exactly one of ``radius`` (Euclidean) or ``kappa`` (geodesic curvature)
    must be given; the arc-length scaling is exact because the conformal
    factor is constant on the circle.
    """
    if (radius is None) == (kappa is None):
        raise ValueError("give exactly one of radius or kappa")
    c = float(c)
    if radius is None:
        radius = circle_radius_for_kappa(c, float(kappa))
    radius = float(radius)
    lam0 = 1.0 / (1.0 + 0.25 * c * radius * radius)
    scale = lam0 * radius  # metric speed of the unit-rate parametrization
    x = parse(f"{radius!r}*cos(s/{scale!r})", ("s",))
    y = parse(f"{radius!r}*sin(s/{scale!r})", ("s",))
    return BaseCurve(x, y, (0.0, 2.0 * math.pi * scale), arc_length=True)


# ---------------------------------------------------------------------------
# Arc length
# ---------------------------------------------------------------------------

def curve_length(curve: BaseCurve, base) -> float:
    """Metric length of the curve over its parameter interval."""
    from scipy.integrate import quad  # scipy costs most of an import of ksub

    t0, t1 = curve.interval
    value, _ = quad(lambda t: base.speed_jet(curve, t)[0], t0, t1,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    return float(value)


def arclength_reparam(curve: BaseCurve, base, samples: int = 257):
    """Reparametrize a regular curve by arc length.

    If the curve is already unit speed (within 1e-10 on a sample grid) it is
    returned unchanged with the flag set. Otherwise the parameter change
    solves dt/ds = 1/speed with a dense high-order integrator, so evaluation
    keeps exact jets of the original components chained through t(s).
    """
    t0, t1 = curve.interval
    ts = np.linspace(t0, t1, samples)
    speeds = np.array([base.speed_jet(curve, float(t))[0] for t in ts])
    if np.min(speeds) ** 2 <= 1e-12:
        raise DegenerateCurveError("curve speed vanishes on the interval")
    if np.max(np.abs(speeds - 1.0)) <= 1e-10:
        return replace(curve, arc_length=True) if not curve.arc_length else curve

    from scipy.integrate import solve_ivp

    length = curve_length(curve, base)
    sol = solve_ivp(
        lambda s, t: [1.0 / base.speed_jet(curve, float(t[0]))[0]],
        (0.0, length), [t0], dense_output=True,
        rtol=1e-12, atol=1e-13, method="DOP853")
    if not sol.success:
        raise DegenerateCurveError(f"arc-length integration failed: {sol.message}")
    return ReparamCurve(curve, base, sol.sol, length)


# ---------------------------------------------------------------------------
# Geodesic curvature
# ---------------------------------------------------------------------------

def geodesic_curvature(curve, base, s: float) -> float:
    """Signed geodesic curvature of a unit-speed curve at parameter s.

    The normal is the quarter-turn J(alpha') that makes (alpha', n)
    positively oriented.
    """
    jx, jy = curve.point_jets(s)
    p = (jx.value, jy.value)
    vel = np.array([jx.grad[0], jy.grad[0]])
    acc2 = np.array([jx.hess[0, 0], jy.hess[0, 0]])
    g = base.metric(p)
    speed = math.sqrt(float(vel @ g @ vel))
    if abs(speed - 1.0) > ARC_TOL:
        raise NotArcLengthError(
            f"curve speed {speed!r} at s = {s}; reparametrize by arc length first")
    gamma = base.christoffels(p)
    acc = acc2 + np.einsum("kij,i,j->k", gamma, vel, vel)
    root = math.sqrt(np.linalg.det(g))
    n = np.array([-(g[0, 1] * vel[0] + g[1, 1] * vel[1]) / root,
                  (g[0, 0] * vel[0] + g[0, 1] * vel[1]) / root])
    return float(acc @ g @ n)


# ---------------------------------------------------------------------------
# Cylinder residual systems
# ---------------------------------------------------------------------------

@dataclass
class HopfVerdict:
    passed: bool
    admissible: bool
    defect: float
    kappa_mean: float
    kappa_std: float
    r_mean: float
    r_std: float
    gauss_mean: float
    gauss_std: float
    reason: str
    certified: dict | None = None


@dataclass
class HopfReport:
    """Sampled data and residuals of the cylinder biharmonicity systems."""

    s: np.ndarray
    kappa: np.ndarray
    kappa_d1: np.ndarray
    kappa_d2: np.ndarray
    tau: np.ndarray
    r: np.ndarray
    gauss: np.ndarray
    r_dot: np.ndarray
    residuals: np.ndarray          # (n, 3): the constant-curvature system
    general_residuals: np.ndarray  # (n, 3): torsion/Ricci form, cross-check
    crosscheck: float              # max aligned deviation between the systems
    verdict: HopfVerdict


def _verdict_from_samples(kappa, r, gauss, const_tol, crit_tol) -> HopfVerdict:
    k_mean, k_std = float(np.mean(kappa)), float(np.std(kappa))
    r_mean, r_std = float(np.mean(r)), float(np.std(r))
    g_mean, g_std = float(np.mean(gauss)), float(np.std(gauss))
    target = g_mean - 4.0 * r_mean ** 2
    admissible = target > 0.0
    defect = abs(k_mean * k_mean - target)
    constant = k_std <= const_tol and r_std <= const_tol and g_std <= const_tol
    proper = abs(k_mean) > KAPPA_MIN

    passed, certified = False, None
    if not constant:
        reason = "kappa_g, r or G varies along the curve"
    elif not proper:
        reason = "kappa_g = 0: the cylinder is minimal, not proper"
    elif not admissible:
        reason = (f"G - 4 r^2 = {target:.6g} <= 0: no real mean curvature "
                  "satisfies H^2 = G - 4 r^2")
    elif defect > crit_tol:
        reason = f"kappa_g^2 - (G - 4 r^2) = {defect:.6g}"
    else:
        passed, reason = True, "proper biharmonic"
        certified = {"H": k_mean, "G": g_mean, "r": r_mean}
    return HopfVerdict(passed, admissible, defect, k_mean, k_std, r_mean,
                       r_std, g_mean, g_std, reason, certified)


def hopf_residuals(curve, base, n_samples: int = 64,
                   const_tol: float = CONST_TOL,
                   crit_tol: float = CRITERION_TOL) -> HopfReport:
    """Evaluate both cylinder systems along the curve and classify it."""
    if not getattr(curve, "arc_length", False):
        raise NotArcLengthError("hopf residuals need an arc-length curve")
    s0, s1 = curve.interval
    span = s1 - s0
    h = max(1e-3 * span, 1e-6)
    # each sample's kappa'' stencil reaches h either side; keep 3 h clear
    if not span >= 6.0 * h:
        raise FdMarginError(
            f"arc-length interval of length {span:.3e} is shorter than the "
            f"{6.0 * h:.3e} the geodesic-curvature stencil needs")
    samples = np.linspace(s0 + 3.0 * h, s1 - 3.0 * h, n_samples)

    n = len(samples)
    kap = np.empty(n)
    kd1 = np.empty(n)
    kd2 = np.empty(n)
    tau = np.empty(n)
    rr = np.empty(n)
    gg = np.empty(n)
    rdot = np.empty(n)
    res = np.empty((n, 3))
    gres = np.empty((n, 3))

    for i, s in enumerate(samples):
        jx, jy = curve.point_jets(float(s))
        p = (jx.value, jy.value)
        if not base.contains(p):
            raise OutsideDomainError(
                f"curve leaves the base domain at s = {s}: point {p}")
        xp, yp = jx.grad[0], jy.grad[0]
        k, grad, hess = numdiff.derivatives(
            lambda q: geodesic_curvature(curve, base, q[0]), (float(s),), h)
        k1, k2 = grad[0], hess[0, 0]
        r, grad_r = base.bundle(p)
        g = base.gauss(p)
        rd = xp * grad_r[0] + yp * grad_r[1]
        t = -r
        ric_nn, ric_n1, ric_n2 = base.ricci_values(p, xp, yp, r, grad_r, g)

        kap[i], kd1[i], kd2[i] = k, k1, k2
        tau[i], rr[i], gg[i], rdot[i] = t, r, g, rd
        res[i] = (k2 - k ** 3 + (g - 4.0 * r * r) * k,
                  k * k1,
                  r * k1 + rd * k)
        gres[i] = (k2 - k * (k * k + 2.0 * t * t) + k * ric_nn,
                   3.0 * k1 * k - k * ric_n1,
                   k1 * t + k * ric_n2)

    # np.max, unlike max, propagates a nan, so a nan crosscheck fails
    cross = float(np.max(np.abs([gres[:, 0] - res[:, 0],
                                 gres[:, 1] - 3.0 * res[:, 1],
                                 gres[:, 2] + res[:, 2]]), initial=0.0))
    verdict = _verdict_from_samples(kap, rr, gg, const_tol, crit_tol)
    return HopfReport(samples, kap, kd1, kd2, tau, rr, gg, rdot,
                      res, gres, cross, verdict)


def classify_hopf(curve, base, n_samples: int = 64,
                  const_tol: float = CONST_TOL,
                  crit_tol: float = CRITERION_TOL) -> HopfVerdict:
    """PASS iff kappa_g, r, G are constant along the curve, kappa_g != 0 and
    kappa_g^2 = G - 4 r^2 (all within tolerance)."""
    return hopf_residuals(curve, base, n_samples, const_tol, crit_tol).verdict


# ---------------------------------------------------------------------------
# Cylinders as surface patches (cross-checks against the surface module)
# ---------------------------------------------------------------------------

def cylinder_patch(data: geo.KillingData, curve: BaseCurve,
                   v_span: tuple[float, float] = (0.0, 1.0),
                   **kwargs) -> srf.SurfacePatch:
    """Vertical cylinder (x(s), y(s), v) over an expression-backed curve."""
    if not isinstance(curve, BaseCurve):
        raise TypeError("cylinder_patch needs an expression-backed BaseCurve")
    pvars = ("s", "v")
    x = parse(str(curve.x), pvars)
    y = parse(str(curve.y), pvars)
    z = parse("v", pvars)
    domain = geo.Rect(curve.interval[0], curve.interval[1], *v_span)
    return srf.SurfacePatch(x, y, z, domain, data, **kwargs)


def cylinder_surface_check(data: geo.KillingData, curve: BaseCurve,
                           s: float, v: float = 0.5) -> dict:
    """Frame invariants of the cylinder computed via the surface module.

    Uses the lifted frame (tangent lift, vertical, lifted normal): returns
    the geodesic torsion tau_g = -<A(beta'), xi>, the mean curvature with
    respect to that frame's normal, the tilt angle, and the intrinsic
    curvature of the induced metric.
    """
    patch = cylinder_patch(data, curve)
    ev = patch.evaluator()
    d = ev.weingarten(float(s), float(v))
    jx, jy = curve.point_jets(float(s))
    lam = data.lam(jx.value, jy.value)
    eta_lift = np.array([lam * jy.grad[0], -lam * jx.grad[0], 0.0])
    sign = 1.0 if float(d.normal @ eta_lift) >= 0.0 else -1.0

    xi = np.array([0.0, 0.0, 1.0])
    beta = d.tangents[0] - d.tangents[0][2] * xi
    beta = beta / np.linalg.norm(beta)
    coeff = ev.tangent_coefficients(d, beta)
    a_beta = ev.shape_apply_coeff(float(s), float(v), coeff)
    return {
        "tau_g": -sign * float(a_beta @ xi),
        "mean_h": sign * d.mean_h,
        "phi": d.phi,
        "induced_curvature": ev.brioschi_curvature(float(s), float(v)),
        "norm_sq_shape": d.norm_sq,
    }


# ---------------------------------------------------------------------------
# Rotationally symmetric construction
# ---------------------------------------------------------------------------

@dataclass
class RotationalCase:
    """One root of the circle condition in a warped chart."""

    t0: float
    kappa_g: float
    gauss: float
    curve: BaseCurve
    base: WarpedBase
    report: HopfReport


def rotational_case_search(f, r: float, interval: tuple[float, float],
                           n_scan: int = 1024,
                           const_tol: float = CONST_TOL,
                           crit_tol: float = CRITERION_TOL
                           ) -> list[RotationalCase]:
    """Find coordinate circles t = t0 whose vertical cylinder is proper
    biharmonic in the warped chart dt^2 + f(t)^2 dtheta^2 with bundle
    curvature r.

    The defining condition is f (f'' + 4 r^2 f) + f'^2 = 0 at t0; every root
    in the interval is located by scanning and bracketed root refinement.
    For each root the circle s -> (t0, s / f(t0)) is returned together with
    its full residual report, classified with ``const_tol`` and ``crit_tol``
    as in :func:`hopf_residuals`; the geodesic curvature is f'(t0)/f(t0) and
    the chart curvature is G = -f''(t0)/f(t0).
    """
    from scipy.optimize import brentq

    if isinstance(f, str):
        f = parse(f, ("t",))
    t0, t1 = float(interval[0]), float(interval[1])
    if not t1 > t0:
        raise ValueError("interval must have positive length")

    def circle_condition(t):
        # (f, f (f'' + 4 r^2 f) + f'^2) at t, or over an array of t
        j = eval_jet(f, (t,))
        return j.value, (j.value * (j.hess[0, 0] + 4.0 * r * r * j.value)
                         + power(j.grad[0], 2))

    ts = np.linspace(t0, t1, n_scan)
    fv, gv = batched(circle_condition, ts)
    if np.min(fv) <= 0.0:
        raise ValueError("warp profile f must be positive on the interval")
    scale = max(1.0, float(np.max(np.abs(fv))) ** 2)
    if np.max(np.abs(gv)) < 1e-13 * scale:
        raise NoIsolatedRootError(
            "circle condition vanishes identically: every circle is a "
            "geodesic (minimal case), no isolated root")

    roots: list[float] = []
    for i in range(len(ts) - 1):
        a, b = float(ts[i]), float(ts[i + 1])
        ga, gb = gv[i], gv[i + 1]
        if ga == 0.0:
            roots.append(a)
        elif ga * gb < 0.0:
            roots.append(float(brentq(lambda t: circle_condition(t)[1], a, b,
                                      xtol=1e-14, rtol=1e-15)))
    if gv[-1] == 0.0:
        roots.append(float(ts[-1]))
    if not roots:
        raise NoIsolatedRootError(
            "no sign change of the circle condition on the interval")
    # dedupe near-identical roots from adjacent brackets
    deduped: list[float] = []
    for root in sorted(roots):
        if not deduped or abs(root - deduped[-1]) > 1e-9 * max(1.0, abs(root)):
            deduped.append(root)

    base = WarpedBase(f, r, (t0, t1))
    cases = []
    for root in deduped:
        j = eval_jet(f, (root,))
        kappa = j.grad[0] / j.value
        gauss = -j.hess[0, 0] / j.value
        circumference = 2.0 * math.pi * j.value
        curve = BaseCurve(
            parse(f"{root!r}+0*s", ("s",)),
            parse(f"s/{j.value!r}", ("s",)),
            (0.0, circumference), arc_length=True)
        report = hopf_residuals(curve, base, const_tol=const_tol,
                                crit_tol=crit_tol)
        cases.append(RotationalCase(root, float(kappa), float(gauss),
                                    curve, base, report))
    return cases
