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

The sweep along the curve is one batch. :func:`hopf_residuals` evaluates
the geodesic curvature once per stencil column over all samples, and r, G
and the Ricci values once each; a chart method or :func:`geodesic_curvature`
given arrays of points (the batch on a trailing axis) equals its one-point
results bit for bit, and a float is a batch of one. A sweep that raises
reruns sample by sample (:func:`ksub.expr.batched`) until its first failing
sample raises its own error; a sweep that only goes non-finite keeps its
values and reruns its first non-finite sample alone.

Everything here is numpy or plain-float code. Arc length is a composite
Gauss-Legendre rule whose panel table also inverts it: t(s) is a batched
Newton solve of S(t) = s (:func:`arclength_reparam`). Roots of the
warped-chart circle condition are refined by :func:`_brentq`, a float port
of the C routine ``brentq.c`` that returns its root to the bit.

Sign convention: kappa_g uses the normal n = J(alpha') with (alpha', n)
positively oriented, so an anticlockwise Euclidean circle of radius R in the
flat chart has kappa_g = +1/R. The lifted frame on the cylinder uses the
opposite base normal, so the surface-module mean curvature computed with
that frame equals -kappa_g; only kappa_g^2 enters the criterion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry as geo
from . import numdiff
from . import surface as srf
from .errors import (
    DegenerateCurveError,
    DomainEvalError,
    FdMarginError,
    NoIsolatedRootError,
    NotArcLengthError,
    OutsideDomainError,
)
from .expr import (Expr, Jet, _first_bad, _unbatch, batched, eval_jet, parse,
                   power)

__all__ = [
    "BaseCurve",
    "ReparamCurve",
    "ConformalBase",
    "WarpedBase",
    "HopfReport",
    "HopfVerdict",
    "RotationalCase",
    "bcv_circle",
    "circle_radius_for_kappa",
    "arclength_reparam",
    "curve_length",
    "geodesic_curvature",
    "hopf_residuals",
    "rotational_case_search",
    "cylinder_patch",
    "cylinder_surface_check",
]

ARC_TOL = 1e-6         # allowed |speed - 1| for operations that assume arc length
CONST_TOL = 1e-5       # allowed spread for "constant along the curve"
CRITERION_TOL = 1e-5   # allowed defect in kappa^2 = G - 4 r^2
KAPPA_MIN = 1e-6       # |kappa| below this counts as minimal (not proper)
NEWTON_MAXITER = 50    # Newton steps of one t(s) before the inversion fails
ROOT_MAXITER = 100     # root refinement iterations before it fails


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

    def point_jets(self, s) -> tuple[Jet, Jet]:
        """Jets of x and y at s, a float or an array of parameters."""
        return eval_jet(self.x, (s,)), eval_jet(self.y, (s,))

    def point(self, s) -> tuple[float, float]:
        jx, jy = self.point_jets(s)
        return jx.value, jy.value


def _chain(jet: Jet, tp, tpp) -> Jet:
    """The jet in s of f(t(s)) from f's jet at t(s), t' and t'': the one-
    variable case of :func:`~ksub.expr.compose_jet`, whose matmul and
    einsum add each one-term product to +0.0 (so -0.0 comes out as 0.0).
    Elementwise, so t may be a float or an array."""
    fp, fpp = jet.grad[0], jet.hess[0, 0]
    grad = 0.0 + fp * tp
    hess = (0.0 + fp * tpp) + (0.0 + (0.0 + tp * fpp) * tp)
    return Jet(jet.value, np.array([grad]), np.array([[hess]]))


class ReparamCurve:
    """Arc-length view of a curve, backed by its table of panel lengths.

    ``edges`` are the parameter edges of the Gauss-Legendre panels of
    :func:`arclength_reparam` and ``cum`` the cumulative lengths at them.
    t(s) solves S(t) = s by Newton inside the panel holding s, with S(t)
    the table length up to the panel plus the same rule over [edge, t].
    """

    def __init__(self, curve: BaseCurve, base, edges: np.ndarray,
                 cum: np.ndarray):
        self.curve = curve
        self.base = base
        self._edges = edges
        self._cum = cum
        self.interval = (0.0, float(cum[-1]))
        self.arc_length = True

    def _times(self, s: np.ndarray) -> np.ndarray:
        """t(s) for an array of arc lengths, all at once. An element stops
        when |S(t) - s| <= 1e-14 max(1, length) and is not touched again,
        so each equals its batch of one bit for bit."""
        edges, cum = self._edges, self._cum
        length = self.interval[1]
        bad = _first_bad(np.logical_not((s >= 0.0) & (s <= length)), s)
        if bad:
            raise OutsideDomainError(
                f"arc length {bad[0]} outside the curve's [0, {length}]")
        # the panel holding s (the last one for s = length)
        k = np.minimum(np.searchsorted(cum, s, side="right"), len(cum) - 1) - 1
        lo, hi = edges[k], edges[k + 1]
        t = lo + (s - cum[k]) / (cum[k + 1] - cum[k]) * (hi - lo)
        tol = 1e-14 * max(1.0, length)
        todo = np.arange(len(s))
        for _ in range(NEWTON_MAXITER):
            # one speed batch: the rule's nodes in [edge, t], then t itself
            ta = t[todo]
            nodes = _gauss_nodes(lo[todo], ta)
            speeds = _speeds(self.curve, self.base, np.vstack([nodes, ta]))
            err = (cum[k[todo]] + _gauss_sums(lo[todo], ta, speeds[:-1])
                   - s[todo])
            open_ = np.abs(err) > tol
            todo = todo[open_]
            if not len(todo):
                return t
            t[todo] = np.clip(ta[open_] - err[open_] / speeds[-1][open_],
                              lo[todo], hi[todo])
        raise DegenerateCurveError("arc-length inversion did not converge "
                                   f"at s = {float(s[todo[0]])}")

    def point_jets(self, s) -> tuple[Jet, Jet]:
        """Jets in s at an array of s in one solve; a float s is a batch of
        one."""
        if type(s) is not np.ndarray:
            jx, jy = self.point_jets(np.array([float(s)]))
            return _unbatch(jx), _unbatch(jy)
        t = self._times(s)
        sigma, dsigma = self.base.speed_jet(self.curve, t)
        tp = 1.0 / sigma
        tpp = -dsigma / power(sigma, 3)
        jx, jy = self.curve.point_jets(t)
        return _chain(jx, tp, tpp), _chain(jy, tp, tpp)

    def point(self, s: float) -> tuple[float, float]:
        t = float(self._times(np.array([float(s)]))[0])
        return self.curve.point(t)


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

def _hypot(x, y):
    """``math.hypot``, one element at a time (numpy's hypot, libm's,
    differs from Python's in the last bit at about 0.6 % of arguments)."""
    return np.array([math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())])


# ---------------------------------------------------------------------------
# Base charts
# ---------------------------------------------------------------------------
# Every chart method takes a point of floats or of coordinate arrays (a batch
# on the trailing axis) and equals, point by point, its one-point result.

class ConformalBase:
    """The base surface of a canonical metric: lam^2 (dx^2 + dy^2)."""

    def __init__(self, data: geo.KillingData):
        self.data = data

    def contains(self, p):
        return self.data.domain.contains(p[0], p[1])

    def metric(self, p) -> np.ndarray:
        lam = self.data.lam(p[0], p[1])
        lam_sq = lam * lam
        zero = np.zeros_like(lam_sq)
        return np.array([[lam_sq, zero], [zero, lam_sq]])

    def christoffels(self, p) -> np.ndarray:
        lam, _, _ = self.data.base_jets(p[0], p[1])
        ux = lam.grad[0] / lam.value
        uy = lam.grad[1] / lam.value
        return np.array([[[ux, uy], [uy, -ux]], [[-uy, ux], [ux, uy]]])

    def gauss(self, p) -> float:
        return geo.gauss_curvature(self.data, p)

    def bundle(self, p) -> tuple[float, np.ndarray]:
        return geo.bundle_curvature(self.data, p)

    def ricci_values(self, p, xp: float, yp: float, r: float, grad_r,
                     gauss: float):
        """(Ricc(eta,eta), Ricc(eta,e1), Ricc(eta,e2)) for the lifted frame,
        from r, its gradient and G at ``p``."""
        lam = self.data.lam(p[0], p[1])
        zero = np.zeros_like(lam)
        eta = np.array([lam * yp, -lam * xp, zero])
        e1 = np.array([lam * xp, lam * yp, zero])
        e2 = np.array([zero, zero, zero + 1.0])
        ric = geo.ricci_from_scalars(r, grad_r, gauss, lam)
        return (geo.product(eta, ric, eta), geo.product(eta, ric, e1),
                geo.product(eta, ric, e2))

    def speed_jet(self, curve: BaseCurve, t) -> tuple[float, float]:
        """(speed, d speed / dt) of a curve in this chart."""
        jx, jy = curve.point_jets(t)
        lam = eval_jet(self.data.lam, (jx.value, jy.value))
        xp, yp = jx.grad[0], jy.grad[0]
        xpp, ypp = jx.hess[0, 0], jy.hess[0, 0]
        # as compose_jet forms it
        dlam = geo.product(lam.grad, np.array([xp, yp]))
        qn = _hypot(xp, yp)
        bad = _first_bad(qn == 0.0, t)
        if bad:
            raise DegenerateCurveError(f"curve has zero velocity at t = {bad[0]}")
        sigma = lam.value * qn
        dsigma = dlam * qn + lam.value * (xp * xpp + yp * ypp) / qn
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

    def contains(self, p):
        return (self.t_interval[0] < p[0]) & (p[0] < self.t_interval[1])

    def _fjet(self, t) -> Jet:
        jet = eval_jet(self.f, (t,))
        bad = _first_bad(jet.value <= 0.0, t)
        if bad:
            raise OutsideDomainError(f"warp profile nonpositive at t = {bad[0]}")
        return jet

    def metric(self, p) -> np.ndarray:
        f_sq = power(self._fjet(p[0]).value, 2)
        zero = np.zeros_like(f_sq)
        return np.array([[zero + 1.0, zero], [zero, f_sq]])

    def christoffels(self, p) -> np.ndarray:
        f = self._fjet(p[0])
        gamma = np.zeros((2, 2, 2) + np.shape(f.value))
        gamma[0, 1, 1] = -f.value * f.grad[0]
        gamma[1, 0, 1] = gamma[1, 1, 0] = f.grad[0] / f.value
        return gamma

    def gauss(self, p) -> float:
        f = self._fjet(p[0])
        return -f.hess[0, 0] / f.value

    def bundle(self, p) -> tuple[float, np.ndarray]:
        shape = np.shape(p[0])  # () at one point, where [()] gives a scalar
        return np.full(shape, self.r)[()], np.zeros((2,) + shape)

    def ricci_values(self, p, xp: float, yp: float, r: float, grad_r,
                     gauss: float):
        return (gauss - 2.0 * power(r, 2), 0.0, 0.0)

    def speed_jet(self, curve: BaseCurve, t) -> tuple[float, float]:
        jx, jy = curve.point_jets(t)
        f = self._fjet(jx.value)
        f_sq = power(f.value, 2)
        tp, thp = jx.grad[0], jy.grad[0]
        tpp, thpp = jx.hess[0, 0], jy.hess[0, 0]
        sq = tp * tp + f_sq * thp * thp
        bad = _first_bad(sq <= 0.0, t)
        if bad:
            raise DegenerateCurveError(f"curve has zero velocity at t = {bad[0]}")
        sigma = np.sqrt(sq)
        dsq = (2.0 * tp * tpp + 2.0 * f.value * f.grad[0] * tp * thp * thp
               + 2.0 * f_sq * thp * thpp)
        return sigma, 0.5 * dsq / sigma


# ---------------------------------------------------------------------------
# Circles in a BCV chart (arc length in closed form)
# ---------------------------------------------------------------------------

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
    factor is constant on the circle. The radius must be finite and > 0,
    and so must the metric speed of the circle's unit-rate parametrization.
    """
    if (radius is None) == (kappa is None):
        raise ValueError("give exactly one of radius or kappa")
    c = float(c)
    if radius is None:
        radius = circle_radius_for_kappa(c, float(kappa))
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"circle radius must be finite and > 0, got {radius}")
    stretch = 1.0 + 0.25 * c * radius * radius
    # metric speed of the unit-rate parametrization, lam * radius
    scale = 1.0 / stretch * radius if stretch > 0.0 else 0.0
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"circle radius {radius} gives no finite positive "
                         f"arc-length scale in the BCV(c={c}) chart")
    x = parse(f"{radius!r}*cos(s/{scale!r})", ("s",))
    y = parse(f"{radius!r}*sin(s/{scale!r})", ("s",))
    return BaseCurve(x, y, (0.0, 2.0 * math.pi * scale), arc_length=True)


# ---------------------------------------------------------------------------
# Arc length
# ---------------------------------------------------------------------------

@functools.cache
def _gauss() -> tuple[list[float], list[float]]:
    """Nodes and weights of the 10-point Gauss-Legendre rule on [0, 1], as
    floats (numpy.polynomial is imported once a curve needs arc length)."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(10)
    return ([0.5 * (xi + 1.0) for xi in x.tolist()],
            [0.5 * wi for wi in w.tolist()])


def _gauss_nodes(a, b) -> np.ndarray:
    """The rule's nodes in each [a_i, b_i], shape (10, n)."""
    return np.array([a + (b - a) * u for u in _gauss()[0]])


def _gauss_sums(a, b, speeds) -> np.ndarray:
    """The rule over each [a_i, b_i] from the speeds at its nodes, summed
    node by node, so each element is its own batch of one."""
    weights = _gauss()[1]
    total = weights[0] * speeds[0]
    for w, sp in zip(weights[1:], speeds[1:]):
        total = total + w * sp
    return (b - a) * total


def _speeds(curve, base, t: np.ndarray) -> np.ndarray:
    """Metric speed at a 2-d array of parameters, as one batch."""
    return base.speed_jet(curve, t.ravel())[0].reshape(t.shape)


def _length_table(curve, base) -> tuple[np.ndarray, np.ndarray]:
    """(edges, cumulative lengths) of composite Gauss-Legendre panels: the
    panel count doubles from 4 until two totals agree within 1e-13,
    absolute and relative (the tolerances the length had with adaptive
    quadrature), or reaches 4096, whose table is kept."""
    t0, t1 = curve.interval
    n, previous = 4, None
    while True:
        edges = np.linspace(t0, t1, n + 1)
        a, b = edges[:-1], edges[1:]
        lengths = _gauss_sums(a, b, _speeds(curve, base, _gauss_nodes(a, b)))
        cum = np.concatenate(([0.0], np.cumsum(lengths)))
        total = float(cum[-1])
        if not math.isfinite(total):
            raise DomainEvalError(f"curve length is not finite: {total}")
        if previous is not None and (abs(total - previous)
                                     <= 1e-13 * max(1.0, abs(total))):
            return edges, cum
        if n >= 4096:
            return edges, cum
        n, previous = 2 * n, total


def curve_length(curve: BaseCurve, base) -> float:
    """Metric length of the curve over its parameter interval: composite
    Gauss-Legendre panels (10 nodes each, the speeds of all panels one
    ``speed_jet`` batch), doubled until two estimates agree within 1e-13
    absolute and relative."""
    return float(_length_table(curve, base)[1][-1])


def arclength_reparam(curve: BaseCurve, base):
    """Reparametrize a regular curve by arc length.

    If the curve is already unit speed (within 1e-10 on a grid of 257
    samples) it is returned unchanged with the flag set. Otherwise it
    returns a :class:`ReparamCurve` over the panel table of
    :func:`curve_length`: t(s) is a Newton solve of S(t) = s for all
    abscissae at once, and evaluation keeps exact jets of the original
    components chained through t(s).
    """
    t0, t1 = curve.interval
    ts = np.linspace(t0, t1, 257)
    speeds = batched(lambda t: base.speed_jet(curve, t)[0], ts)
    if np.min(speeds) ** 2 <= 1e-12:
        raise DegenerateCurveError("curve speed vanishes on the interval")
    if np.max(np.abs(speeds - 1.0)) <= 1e-10:
        return replace(curve, arc_length=True) if not curve.arc_length else curve
    return ReparamCurve(curve, base, *_length_table(curve, base))


# ---------------------------------------------------------------------------
# Geodesic curvature
# ---------------------------------------------------------------------------

def geodesic_curvature(curve, base, s):
    """Signed geodesic curvature of a unit-speed curve at parameter s.

    The normal is the quarter-turn J(alpha') that makes (alpha', n)
    positively oriented. ``s`` may be a float or an array of parameters:
    an array is one pass, equal point by point to the float results, and a
    failing array raises the error of its first failing point (see
    :func:`ksub.expr.batched`); a float is a batch of one.
    """
    if type(s) is not np.ndarray:
        return float(_geodesic_curvature(curve, base, np.array([float(s)]))[0])
    return batched(functools.partial(_geodesic_curvature, curve, base), s)


def _geodesic_curvature(curve, base, s: np.ndarray) -> np.ndarray:
    jx, jy = curve.point_jets(s)
    p = (jx.value, jy.value)
    vel = np.array([jx.grad[0], jy.grad[0]])
    acc2 = np.array([jx.hess[0, 0], jy.hess[0, 0]])
    g = base.metric(p)
    speed = np.sqrt(geo.product(vel, g, vel))
    bad = _first_bad(np.abs(speed - 1.0) > ARC_TOL, speed, s)
    if bad:
        raise NotArcLengthError(f"curve speed {bad[0]!r} at s = {bad[1]}; "
                                "reparametrize by arc length first")
    gamma = base.christoffels(p)
    acc = acc2 + np.einsum("nkij,ni,nj->nk", geo.rows(gamma), geo.rows(vel),
                           geo.rows(vel)).T
    root = np.sqrt(np.linalg.det(geo.rows(g)))
    n = np.array([-(g[0, 1] * vel[0] + g[1, 1] * vel[1]) / root,
                  (g[0, 0] * vel[0] + g[0, 1] * vel[1]) / root])
    return geo.product(acc, g, n)


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


class _Sampled:
    """A curve whose jets at the sample array s are already read: the
    centre column of the stencil is s itself and reuses them."""

    def __init__(self, curve, s: np.ndarray, jets: tuple[Jet, Jet]):
        self.curve, self.s, self.jets = curve, s, jets

    def point_jets(self, t) -> tuple[Jet, Jet]:
        return self.jets if t is self.s else self.curve.point_jets(t)


def _sweep(curve, base, h: float, s):
    """kappa, kappa', kappa'', tau, r, G, r' and the residuals of both
    systems at an array of samples s, in the order of one sample's steps."""
    jx, jy = jets = curve.point_jets(s)
    p = (jx.value, jy.value)
    bad = _first_bad(np.logical_not(base.contains(p)), s, *p)
    if bad:
        raise OutsideDomainError(f"curve leaves the base domain at s = "
                                 f"{bad[0]}: point {bad[1:]}")
    xp, yp = jx.grad[0], jy.grad[0]
    sampled = _Sampled(curve, s, jets)
    k, grad, hess = numdiff.derivatives(
        lambda q: geodesic_curvature(sampled, base, q[0]), (s,), h)
    k1, k2 = grad[0], hess[0, 0]
    r, grad_r = base.bundle(p)
    g = base.gauss(p)
    rd = xp * grad_r[0] + yp * grad_r[1]
    t = -r
    ric_nn, ric_n1, ric_n2 = base.ricci_values(p, xp, yp, r, grad_r, g)
    return (k, k1, k2, t, r, g, rd,
            k2 - power(k, 3) + (g - 4.0 * r * r) * k,
            k * k1,
            r * k1 + rd * k,
            k2 - k * (k * k + 2.0 * t * t) + k * ric_nn,
            3.0 * k1 * k - k * ric_n1,
            k1 * t + k * ric_n2)


def hopf_residuals(curve, base, n_samples: int = 64,
                   const_tol: float | None = None,
                   crit_tol: float | None = None) -> HopfReport:
    """Evaluate both cylinder systems along the curve and classify it.

    All samples are one batch: each quantity is one pass over the sample
    array, the geodesic curvature one pass per stencil column. If the batch
    raises it reruns sample by sample, so the first failing sample raises
    its own error; if it only goes non-finite its first non-finite sample
    reruns alone (see :func:`ksub.expr.batched`). The tolerances default to CONST_TOL and CRITERION_TOL
    as they are when called.
    """
    const_tol = CONST_TOL if const_tol is None else const_tol
    crit_tol = CRITERION_TOL if crit_tol is None else crit_tol
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
    kap, kd1, kd2, tau, rr, gg, rdot, *systems = batched(
        functools.partial(_sweep, curve, base, h), samples)
    res = np.stack(systems[:3], axis=-1)
    gres = np.stack(systems[3:], axis=-1)

    # np.max, unlike max, propagates a nan, so a nan crosscheck fails
    cross = float(np.max(np.abs([gres[:, 0] - res[:, 0],
                                 gres[:, 1] - 3.0 * res[:, 1],
                                 gres[:, 2] + res[:, 2]]), initial=0.0))
    verdict = _verdict_from_samples(kap, rr, gg, const_tol, crit_tol)
    return HopfReport(samples, kap, kd1, kd2, tau, rr, gg, rdot,
                      res, gres, cross, verdict)


# ---------------------------------------------------------------------------
# Cylinders as surface patches (cross-checks against the surface module)
# ---------------------------------------------------------------------------

def cylinder_patch(data: geo.KillingData, curve: BaseCurve) -> srf.SurfacePatch:
    """Vertical cylinder (x(s), y(s), v), 0 < v < 1, over an
    expression-backed curve."""
    if not isinstance(curve, BaseCurve):
        raise TypeError("cylinder_patch needs an expression-backed BaseCurve")
    if curve.x.variables != ("s",):
        raise ValueError("cylinder_patch needs a curve in the parameter s")
    pvars = ("s", "v")
    x = Expr(curve.x.root, pvars)
    y = Expr(curve.y.root, pvars)
    z = parse("v", pvars)
    domain = geo.Rect(curve.interval[0], curve.interval[1], 0.0, 1.0)
    return srf.SurfacePatch(x, y, z, domain, data)


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

def _brentq(f, xa: float, xb: float) -> float:
    """A root of f in [xa, xb], where f changes sign, by Brent's method.

    A line-by-line port to Python floats of the C routine ``brentq.c``
    behind the usual Python ``brentq`` (Brent 1973, ch. 4), with xtol
    1e-14, rtol 1e-15, at most ROOT_MAXITER iterations and the same early
    returns on a zero at an end, so it returns that routine's root to the
    bit. A bracket without a sign change or no
    convergence raises :class:`NoIsolatedRootError`, a nan value
    :class:`DomainEvalError`.
    """
    xtol, rtol = 1e-14, 1e-15

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise DomainEvalError(f"function value at {x!r} is nan; root "
                                  "refinement cannot continue")
        return fx

    def negative(x):
        return math.copysign(1.0, x) < 0.0

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise NoIsolatedRootError(
            f"no sign change to refine: f({xa!r}) = {fpre!r}, "
            f"f({xb!r}) = {fcur!r}")
    for _ in range(ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NoIsolatedRootError(
        f"root refinement in [{xa!r}, {xb!r}] did not converge after "
        f"{ROOT_MAXITER} iterations")


@dataclass
class RotationalCase:
    """One root of the circle condition in a warped chart."""

    t0: float
    kappa_g: float
    gauss: float
    curve: BaseCurve
    base: WarpedBase
    report: HopfReport


def _circle_condition(f: Expr, r: float, t):
    """(f, f (f'' + 4 r^2 f) + f'^2) at t, or over an array of t."""
    j = eval_jet(f, (t,))
    return j.value, (j.value * (j.hess[0, 0] + 4.0 * r * r * j.value)
                     + power(j.grad[0], 2))


def rotational_case_search(f, r: float, interval: tuple[float, float],
                           const_tol: float | None = None,
                           crit_tol: float | None = None
                           ) -> list[RotationalCase]:
    """Find coordinate circles t = t0 whose vertical cylinder is proper
    biharmonic in the warped chart dt^2 + f(t)^2 dtheta^2 with bundle
    curvature r.

    The defining condition is f (f'' + 4 r^2 f) + f'^2 = 0 at t0; every root
    in the interval is located by a scan of 1024 points (one batch) and
    refined in its bracket by Brent's method (:func:`_brentq`, about 6
    evaluations of the condition per root).
    For each root the circle s -> (t0, s / f(t0)) is returned together with
    its full residual report, classified with ``const_tol`` and ``crit_tol``
    as in :func:`hopf_residuals` (which reads the module defaults); the
    geodesic curvature is f'(t0)/f(t0) and the chart curvature is
    G = -f''(t0)/f(t0).
    """
    if isinstance(f, str):
        f = parse(f, ("t",))
    t0, t1 = float(interval[0]), float(interval[1])
    if not t1 > t0:
        raise ValueError("interval must have positive length")

    ts = np.linspace(t0, t1, 1024)
    fv, gv = batched(functools.partial(_circle_condition, f, r), ts)
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
            roots.append(_brentq(
                lambda t: _circle_condition(f, r, t)[1], a, b))
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
