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

The sweep along the curve is one batch. :func:`hopf_residuals` reads the
curve's jets once at all 5 columns of each sample's stencil (the samples
first, then the 4 off-centre columns in table order), checks every column
against the base domain (``_require_on_base``, the one check of a curve
point, which each speed batch of :func:`arclength_reparam` passes too),
takes the geodesic curvature of that batch in one pass, forms kappa, kappa'
and kappa'' from its columns with :func:`ksub.numdiff._quotients`, and takes
r, G and the Ricci values at all 5 columns from their memoised base jets,
keeping the samples'. A chart method or :func:`geodesic_curvature` given
arrays of points (the batch on a trailing axis) equals its one-point results
bit for bit; a float is a batch of one (:func:`ksub.expr.at_point`). A sweep
runs once and its values stand, non-finite ones included; one that raises
bisects (:func:`ksub.expr.batched`) to its first failing sample, whose 5
points then go through each stage together and raise the error of the first
stage that fails.

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
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import numdiff
from .errors import (
    DegenerateCurveError,
    DomainEvalError,
    FdMarginError,
    KsubError,
    NoIsolatedRootError,
    NotArcLengthError,
    OutsideDomainError,
)
from .expr import (Expr, Jet, _first_bad, _hypot, at_point, batched,
                   eval_jet, parse, power)

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
CRITERION_TOL = 1e-5   # allowed spread along the curve and criterion defect
KAPPA_MIN = 1e-6       # |kappa| below this counts as minimal (not proper)
NEWTON_MAXITER = 50    # Newton steps of one t(s) before the inversion fails
ROOT_MAXITER = 100     # root refinement iterations before it fails
SAMPLES = 64           # arc-length samples of a cylinder sweep


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BaseCurve:
    """Plane curve s -> (x(s), y(s)) given by expressions in one variable."""

    x: Expr
    y: Expr
    interval: tuple[float, float]

    def __post_init__(self):
        if len(self.x.variables) != 1 or self.y.variables != self.x.variables:
            raise KsubError("curve components must share one parameter")
        if not self.interval[1] > self.interval[0]:
            raise KsubError("curve interval must have positive length")
        if not math.isfinite(self.interval[1] - self.interval[0]):
            raise KsubError(f"curve interval {self.interval} has length inf")

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
        """Jets in s at an array of s in one solve; a float is a batch of one."""
        return at_point(self._batch_jets, s)

    def _batch_jets(self, s: np.ndarray) -> tuple[Jet, Jet]:
        t = self._times(s)
        jx, jy = self.curve.point_jets(t)
        sigma, dsigma = self.base.speed_jet(jx, jy, t)
        tp = 1.0 / sigma
        tpp = -dsigma / power(sigma, 3)
        return _chain(jx, tp, tpp), _chain(jy, tp, tpp)

    def point(self, s) -> tuple[float, float]:
        return self.curve.point(at_point(self._times, s))


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
        lam = self.data.base_jets(p[0], p[1])[0].value
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
        lam = self.data.base_jets(p[0], p[1])[0].value
        zero = np.zeros_like(lam)
        eta = np.array([lam * yp, -lam * xp, zero])
        e1 = np.array([lam * xp, lam * yp, zero])
        e2 = np.array([zero, zero, zero + 1.0])
        ric = geo.ricci_from_scalars(r, grad_r, gauss, lam)
        return (geo.product(eta, ric, eta), geo.product(eta, ric, e1),
                geo.product(eta, ric, e2))

    def speed_jet(self, jx: Jet, jy: Jet, t) -> tuple[float, float]:
        """(speed, d speed / dt) of a curve in this chart, from the jets of
        its components at t; lam's jet is not memoised, as arc length's
        batches are many and read once."""
        lam = eval_jet(self.data.lam, (jx.value, jy.value))
        self.data.require_positive(jx.value, jy.value, lam.value)
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


def _profile_jet(f: Expr, t) -> Jet:
    """The jet of a warp profile at t; the first t where f <= 0 raises."""
    jet = eval_jet(f, (t,))
    bad = _first_bad(jet.value <= 0.0, t)
    if bad:
        raise OutsideDomainError(f"warp profile nonpositive at t = {bad[0]}")
    return jet


class WarpedBase:
    """Rotationally symmetric chart dt^2 + f(t)^2 dtheta^2, constant bundle r.

    Curve components are read as (t(s), theta(s)). The angular coordinate is
    periodic, so only the t-range is checked for containment. Its curves
    are built at unit speed, so it has no speed jet.
    """

    def __init__(self, f: Expr, r: float, t_interval: tuple[float, float]):
        if len(f.variables) != 1:
            raise KsubError("warp profile must be an expression in one variable")
        self.f = f
        self.r = float(r)
        self.t_interval = (float(t_interval[0]), float(t_interval[1]))

    def contains(self, p):
        return (self.t_interval[0] < p[0]) & (p[0] < self.t_interval[1])

    def metric(self, p) -> np.ndarray:
        f_sq = power(_profile_jet(self.f, p[0]).value, 2)
        zero = np.zeros_like(f_sq)
        return np.array([[zero + 1.0, zero], [zero, f_sq]])

    def christoffels(self, p) -> np.ndarray:
        f = _profile_jet(self.f, p[0])
        gamma = np.zeros((2, 2, 2) + np.shape(f.value))
        gamma[0, 1, 1] = -f.value * f.grad[0]
        gamma[1, 0, 1] = gamma[1, 1, 0] = f.grad[0] / f.value
        return gamma

    def gauss(self, p) -> float:
        f = _profile_jet(self.f, p[0])
        return -f.hess[0, 0] / f.value

    def bundle(self, p) -> tuple[float, np.ndarray]:
        shape = np.shape(p[0])  # () at one point, where [()] gives a scalar
        return np.full(shape, self.r)[()], np.zeros((2,) + shape)

    def ricci_values(self, p, xp: float, yp: float, r: float, grad_r,
                     gauss: float):
        return (gauss - 2.0 * power(r, 2), 0.0, 0.0)


# ---------------------------------------------------------------------------
# Circles in a BCV chart (arc length in closed form)
# ---------------------------------------------------------------------------

def circle_radius_for_kappa(c: float, kappa: float) -> float:
    """Euclidean radius, finite and > 0, of the origin-centered circle with
    geodesic curvature kappa (kappa^2 + c > 0 required when c != 0)."""
    if c == 0.0:
        if kappa <= 0.0:
            raise KsubError("flat chart circles need kappa > 0")
        radius = 1.0 / kappa
    else:
        disc = kappa * kappa + c
        if disc <= 0.0:
            raise KsubError(f"no circle with geodesic curvature {kappa} when "
                            f"kappa^2 + c = {disc} <= 0")
        radius = 2.0 * (math.sqrt(disc) - kappa) / c
    if not (math.isfinite(radius) and radius > 0.0):
        raise KsubError(f"geodesic curvature {kappa!r} gives no finite "
                        f"positive circle radius in the BCV(c={c}) chart")
    return radius


def bcv_circle(c: float, radius: float | None = None,
               kappa: float | None = None) -> BaseCurve:
    """Arc-length circle around the origin of the BCV base chart.

    Exactly one of ``radius`` (Euclidean) or ``kappa`` (geodesic curvature)
    must be given; the arc-length scaling is exact because the conformal
    factor is constant on the circle. The radius must be finite and > 0,
    and so must the metric speed of the circle's unit-rate parametrization.
    """
    if (radius is None) == (kappa is None):
        raise KsubError("give exactly one of radius or kappa")
    c = float(c)
    if radius is None:
        radius = circle_radius_for_kappa(c, float(kappa))
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise KsubError(f"circle radius must be finite and > 0, got {radius}")
    stretch = 1.0 + 0.25 * c * radius * radius
    # metric speed of the unit-rate parametrization, lam * radius
    scale = 1.0 / stretch * radius if stretch > 0.0 else 0.0
    if not (math.isfinite(scale) and scale > 0.0):
        raise KsubError(f"circle radius {radius} gives no finite positive "
                        f"arc-length scale in the BCV(c={c}) chart")
    x = parse(f"{radius!r}*cos(s/{scale!r})", ("s",))
    y = parse(f"{radius!r}*sin(s/{scale!r})", ("s",))
    return BaseCurve(x, y, (0.0, 2.0 * math.pi * scale))


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


def _require_on_base(base, params: np.ndarray, q) -> None:
    """Raise OutsideDomainError at the first curve point q off the base."""
    bad = _first_bad(np.logical_not(base.contains(q)), params, *q)
    if bad:
        raise OutsideDomainError(f"curve leaves the base domain at s = "
                                 f"{bad[0]}: point {bad[1:]}")


def _speeds(curve, base, t: np.ndarray) -> np.ndarray:
    """Metric speed at an array of parameters, as one batch."""
    flat = t.ravel()
    jx, jy = jets = curve.point_jets(flat)
    _require_on_base(base, flat, (jx.value, jy.value))
    return base.speed_jet(*jets, flat)[0].reshape(t.shape)


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
    samples) it is returned unchanged. Otherwise it
    returns a :class:`ReparamCurve` over the panel table of
    :func:`curve_length`: t(s) is a Newton solve of S(t) = s for all
    abscissae at once, and evaluation keeps exact jets of the original
    components chained through t(s).
    """
    t0, t1 = curve.interval
    ts = np.linspace(t0, t1, 257)
    speeds = batched(functools.partial(_speeds, curve, base), ts)
    if np.min(speeds) ** 2 <= 1e-12:
        raise DegenerateCurveError("curve speed vanishes on the interval")
    if np.max(np.abs(speeds - 1.0)) <= 1e-10:
        return curve
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
    :func:`ksub.expr.batched`); a float is a batch of one (see
    :func:`ksub.expr.at_point`). :func:`hopf_residuals` does not call
    it: its sweep reads the curve's jets at all stencil points at once
    and passes them to the same code.
    """
    return at_point(functools.partial(
        batched, lambda t: _kappa(base, curve.point_jets(t), t)), s)


def _kappa(base, jets: tuple[Jet, Jet], s: np.ndarray) -> np.ndarray:
    """Geodesic curvature from the jets of the curve at the parameters s."""
    jx, jy = jets
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
    """The samples with kappa and tau at each, the residuals of the
    constant-curvature system, their cross-check and the verdict."""

    s: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    residuals: np.ndarray  # (n, 3): the constant-curvature system
    crosscheck: float      # max aligned deviation from the torsion/Ricci form
    verdict: HopfVerdict


def _verdict_from_samples(kappa, r, gauss, tol: float) -> HopfVerdict:
    k_mean, k_std = float(np.mean(kappa)), float(np.std(kappa))
    r_mean, r_std = float(np.mean(r)), float(np.std(r))
    g_mean, g_std = float(np.mean(gauss)), float(np.std(gauss))
    target = g_mean - 4.0 * r_mean ** 2
    admissible = target > 0.0
    defect = abs(k_mean * k_mean - target)
    constant = k_std <= tol and r_std <= tol and g_std <= tol
    proper = abs(k_mean) > KAPPA_MIN

    passed, certified = False, None
    if not constant:
        reason = "kappa_g, r or G varies along the curve"
    elif not proper:
        reason = "kappa_g = 0: the cylinder is minimal, not proper"
    elif not admissible:
        reason = (f"G - 4 r^2 = {target:.6g} <= 0: no real mean curvature "
                  "satisfies H^2 = G - 4 r^2")
    elif defect > tol:
        reason = f"kappa_g^2 - (G - 4 r^2) = {defect:.6g}"
    else:
        passed, reason = True, "proper biharmonic"
        certified = {"H": k_mean, "G": g_mean, "r": r_mean}
    return HopfVerdict(passed, admissible, defect, k_mean, k_std, r_mean,
                       r_std, g_mean, g_std, reason, certified)


def _sweep(curve, base, h: float, s):
    """kappa, tau, r, G and the residuals of both systems at an array of
    samples s, in the order of one sample's steps."""
    # the 5 stencil columns in table order, the samples first, as one batch
    n = len(s)
    columns = np.concatenate([q[0] for q in numdiff._abscissae((s,), h)])
    jx, jy = jets = curve.point_jets(columns)
    q = (jx.value, jy.value)
    _require_on_base(base, columns, q)
    k, grad, hess = numdiff._quotients(
        np.split(_kappa(base, jets, columns), 5), h)
    k1, k2 = grad[0], hess[0, 0]
    # r, G and the Ricci values (a constant broadcast) at every column, whose
    # base jets _kappa memoised; the first n are the samples'
    r, grad_r = base.bundle(q)
    g = base.gauss(q)
    ric = base.ricci_values(q, jx.grad[0], jy.grad[0], r, grad_r, g)
    ric_nn, ric_n1, ric_n2 = (np.broadcast_to(v, g.shape)[:n] for v in ric)
    r, grad_r, g = r[:n], grad_r[:, :n], g[:n]
    rd = jx.grad[0, :n] * grad_r[0] + jy.grad[0, :n] * grad_r[1]
    t = -r
    return (k, t, r, g,
            k2 - power(k, 3) + (g - 4.0 * r * r) * k,
            k * k1,
            r * k1 + rd * k,
            k2 - k * (k * k + 2.0 * t * t) + k * ric_nn,
            3.0 * k1 * k - k * ric_n1,
            k1 * t + k * ric_n2)


def hopf_residuals(curve, base, n_samples: int = SAMPLES,
                   tol: float | None = None) -> HopfReport:
    """Evaluate both cylinder systems along the curve and classify it.

    All samples are one batch: each quantity is one pass over the sample
    array, and the curve's jets, the base jets and the geodesic curvature
    one pass over all 5 columns of the stencil, the samples first, each of
    which must lie in the base domain. The batch runs once; if it raises,
    bisection finds its first failing sample, which raises its own error
    (see :func:`ksub.expr.batched`). Constancy needs at least 2 samples.
    ``tol`` bounds both the spread of kappa, r and G and the criterion's
    defect; None reads CRITERION_TOL as it is when called.
    """
    if n_samples < 2:
        raise KsubError("a constancy check needs at least 2 samples, "
                        f"got {n_samples}")
    tol = CRITERION_TOL if tol is None else tol
    s0, s1 = curve.interval
    span = s1 - s0
    h = max(1e-3 * span, 1e-6)
    # each sample's kappa'' stencil reaches h either side; keep 3 h clear
    if not span >= 6.0 * h:
        raise FdMarginError(
            f"arc-length interval of length {span:.3e} is shorter than the "
            f"{6.0 * h:.3e} the geodesic-curvature stencil needs")
    samples = np.linspace(s0 + 3.0 * h, s1 - 3.0 * h, n_samples)
    kap, tau, rr, gg, *systems = batched(
        functools.partial(_sweep, curve, base, h), samples)
    res = np.stack(systems[:3], axis=-1)
    gres = np.stack(systems[3:], axis=-1)

    # np.max, unlike max, propagates a nan, so a nan crosscheck fails
    cross = float(np.max(np.abs([gres[:, 0] - res[:, 0],
                                 gres[:, 1] - 3.0 * res[:, 1],
                                 gres[:, 2] + res[:, 2]]), initial=0.0))
    verdict = _verdict_from_samples(kap, rr, gg, tol)
    return HopfReport(samples, kap, tau, res, cross, verdict)


# ---------------------------------------------------------------------------
# Cylinders as surface patches (cross-checks against the surface module)
# ---------------------------------------------------------------------------

def cylinder_patch(data: geo.KillingData, curve: BaseCurve) -> srf.SurfacePatch:
    """Vertical cylinder (x(s), y(s), v), 0 < v < 1, over an
    expression-backed curve."""
    from . import surface as srf  # only a patch needs the surface layer
    if not isinstance(curve, BaseCurve):
        raise TypeError("cylinder_patch needs an expression-backed BaseCurve")
    if curve.x.variables != ("s",):
        raise KsubError("cylinder_patch needs a curve in the parameter s")
    pvars = ("s", "v")
    x = Expr(curve.x.root, pvars)
    y = Expr(curve.y.root, pvars)
    z = parse("v", pvars)
    domain = geo.Rect(curve.interval[0], curve.interval[1], 0.0, 1.0)
    return srf.SurfacePatch(x, y, z, domain, data)


def cylinder_surface_check(data: geo.KillingData, curve: BaseCurve,
                           s: float) -> dict:
    """Frame invariants of the cylinder at (s, 0.5), via the surface module.

    Uses the lifted frame (tangent lift, vertical, lifted normal): returns
    the geodesic torsion tau_g = -<A(beta'), xi>, the mean curvature with
    respect to that frame's normal, the tilt angle, and the intrinsic
    curvature of the induced metric.
    """
    from . import surface as srf
    patch = cylinder_patch(data, curve)
    q = (float(s), 0.5)
    d = srf.analyze_point(patch, q)
    jx, jy = curve.point_jets(float(s))
    lam = data.base_jets(jx.value, jy.value)[0].value
    eta_lift = np.array([lam * jy.grad[0], -lam * jx.grad[0], 0.0])
    sign = 1.0 if float(d.normal @ eta_lift) >= 0.0 else -1.0

    xi = np.array([0.0, 0.0, 1.0])
    beta = d.tangents[0] - d.tangents[0][2] * xi
    beta = beta / np.linalg.norm(beta)
    a_beta = np.linalg.solve(d.first_form, d.tangents @ beta) @ d.shape_frame
    return {
        "tau_g": -sign * float(a_beta @ xi),
        "mean_h": sign * d.mean_h,
        "phi": d.phi,
        "induced_curvature": float(patch.evaluator().brioschi_curvature(
            srf.point_lattice(patch, q))[0]),
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
    j = _profile_jet(f, t)
    return j.value, (j.value * (j.hess[0, 0] + 4.0 * r * r * j.value)
                     + power(j.grad[0], 2))


def rotational_case_search(f, r: float, interval: tuple[float, float],
                           tol: float | None = None) -> list[RotationalCase]:
    """Find coordinate circles t = t0 whose vertical cylinder is proper
    biharmonic in the warped chart dt^2 + f(t)^2 dtheta^2 with bundle
    curvature r.

    The defining condition is f (f'' + 4 r^2 f) + f'^2 = 0 at t0; every root
    in the interval is located by a scan of 1024 points (one batch) and
    refined in its bracket by Brent's method (:func:`_brentq`, about 6
    evaluations of the condition per root).
    For each root the circle s -> (t0, s / f(t0)) is returned together with
    its full residual report, classified with ``tol`` as in
    :func:`hopf_residuals` (None reads CRITERION_TOL); the
    geodesic curvature is f'(t0)/f(t0) and the chart curvature is
    G = -f''(t0)/f(t0).
    """
    if isinstance(f, str):
        f = parse(f, ("t",))
    t0, t1 = float(interval[0]), float(interval[1])
    if not t1 > t0:
        raise KsubError("interval must have positive length")
    if not math.isfinite(t1 - t0):
        raise KsubError(f"interval ({t0}, {t1}) has length inf")

    ts = np.linspace(t0, t1, 1024)
    fv, gv = batched(functools.partial(_circle_condition, f, r), ts)
    scale = max(1.0, float(np.max(np.abs(fv))) ** 2)
    if np.max(np.abs(gv)) < 1e-13 * scale:
        raise NoIsolatedRootError(
            "circle condition vanishes identically: every circle is a "
            "geodesic (minimal case), no isolated root")

    # the exact zeros of the scan, then each sign-change bracket refined in
    # scan order, so the first bracket that fails raises
    signs = np.flatnonzero(gv[:-1] * gv[1:] < 0.0)
    roots = ts[gv == 0.0].tolist() + [
        _brentq(lambda t: _circle_condition(f, r, t)[1], a, b)
        for a, b in zip(ts[signs].tolist(), ts[signs + 1].tolist())]
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
            (0.0, circumference))
        report = hopf_residuals(curve, base, tol=tol)
        cases.append(RotationalCase(root, float(kappa), float(gauss),
                                    curve, base, report))
    return cases
