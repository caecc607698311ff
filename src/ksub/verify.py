"""Built-in verification suite.

Each check pits a closed-form quantity against an independent numerical
oracle (or a known constant) over fixed seeded samples, and reports the
worst residual, its tolerance and where it occurred. The CLI ``verify-paper``
subcommand runs the suite; the acceptance tests assert every check passes.

The samples come from Python's ``random.Random``, seeded per check from
``SEED``: Python keeps its ``random()`` and ``uniform`` streams stable, and
numpy's generators would cost every ``ksub`` process an import of about
10 ms and 5 MB (with ``secrets``, ``hmac`` and ``hashlib``) for a thousand
draws.

Every check decides its status in one place, ``_Worst.report``: it passes
when its own conditions hold and its worst residual is at most its
tolerance, and a nan never is. Each ``check_<name>`` takes one ``tol``:
``None`` reads the check's default tolerances, and any number, 0.0 included,
replaces the residual tolerances the check reads, to show which checks are
finite-difference-limited. The bounds of a check's own conditions are fixed
(see :func:`run_checks`), and so are the runtime limits; a condition that
fails names itself in the report.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import biharmonic as bih
from . import geometry as geo
from . import hopf
from . import surface as srf
from .errors import KsubError
from .expr import batched, parse

__all__ = ["CheckReport", "CHECK_NAMES", "run_checks", "metric_families"]

SEED = 20240817
HOPF_DEFECT_MIN = 0.1  # least defect of a non-biharmonic hopf-tube circle


@dataclass
class CheckReport:
    name: str
    status: str            # pass | fail
    residual: float
    tol: float
    location: str = ""
    details: dict = field(default_factory=dict)


class _Worst:
    """Track the largest residual and where it happened."""

    def __init__(self):
        self.value = 0.0
        self.location = ""

    def update(self, value, location):
        # a nan is the worst value: it wins and then stays, so it fails
        if not (abs(value) <= self.value or math.isnan(self.value)):
            self.value = abs(value)
            self.location = location

    def report(self, name, tol, ok, details) -> CheckReport:
        """The check's report: it passes when the check's own conditions
        hold (``ok``) and the worst residual is at most ``tol``; a nan is
        never ``<= tol``."""
        passed = ok and self.value <= tol
        return CheckReport(name, "pass" if passed else "fail",
                           float(self.value), float(tol), self.location,
                           details)


def _tol(override, default):
    """A check's tolerance: ``default`` unless the run overrides it. Only
    None keeps the default; 0.0 is an override like any other value."""
    return default if override is None else override


def _in_time(start, limit, details) -> bool:
    """Whether the check ran for less than ``limit`` seconds since
    ``start``; if not, its details say ``runtime_limit_exceeded``."""
    if time.monotonic() - start < limit:
        return True
    details["runtime_limit_exceeded"] = True
    return False


def metric_families() -> list[geo.KillingData]:
    """The five fixed metric families used across the suite."""
    two = geo.Rect(-2.0, 2.0, -2.0, 2.0)
    flat = geo.KillingData(parse("1", ("x", "y")), parse("0", ("x", "y")),
                           parse("0", ("x", "y")), two, "flat-product")
    gaussian = geo.KillingData(
        parse("exp(-(x^2+y^2)/4)", ("x", "y")), parse("0", ("x", "y")),
        parse("x", ("x", "y")), geo.Rect(-1.5, 1.5, -1.5, 1.5),
        "gaussian-lambda")
    return [flat, geo.bcv(0.0, 0.5), geo.bcv(1.0, 1.0), geo.bcv(-1.0, 0.3),
            gaussian]


# ---------------------------------------------------------------------------
# Criterion 1: closed-form connection vs Koszul finite-difference oracle
# ---------------------------------------------------------------------------

def check_connection_oracle(tol=None) -> CheckReport:
    rng = random.Random(SEED)
    families = metric_families()
    worst = _Worst()
    start = time.monotonic()
    for data in families:
        points = []
        for _ in range(20):
            x, y = data.domain.random_point(rng)
            points.append((x, y, rng.uniform(-1, 1)))
        # the 20 points as one batch: (3, 3, 3, 20) tables
        batch = tuple(map(np.array, zip(*points)))
        diffs = np.abs(geo.connection(data, batch)
                       - geo.connection_oracle(data, batch))
        for p, diff in zip(points, diffs.max(axis=(0, 1, 2))):
            worst.update(diff, f"{data.description} at {p}")
    details = {"points": 100, "families": len(families)}
    return worst.report("connection-oracle", _tol(tol, 1e-6),
                        _in_time(start, 5.0, details), details)


# ---------------------------------------------------------------------------
# Criterion 2: curvature formula vs direct definition, plus component identities
# ---------------------------------------------------------------------------

def check_curvature_formula(tol=None) -> CheckReport:
    rng = random.Random(SEED + 1)
    families = metric_families()
    # every sample drawn first, in the order the updates below read them:
    # a point, then its four tangent vectors row by row
    samples = [[((*data.domain.random_point(rng), rng.uniform(-1, 1)),
                 [[rng.uniform(-1.0, 1.0) for _ in range(3)]
                  for _ in range(4)]) for _ in range(40)]
               for data in families]
    identity_points = [[data.domain.random_point(rng) for _ in range(3)]
                       for data in families]
    e = np.eye(3)
    # <R(Ej,E3)Ej,E3> = -r^2 and <R(E1,E2)Ej,E3> = -Ej(r) for j = 1, 2,
    # then <R(E1,E2)E1,E2> = 3 r^2 - G
    identities = [(e[0], e[2], e[0], e[2]), (e[0], e[1], e[0], e[2]),
                  (e[1], e[2], e[1], e[2]), (e[0], e[1], e[1], e[2]),
                  (e[0], e[1], e[0], e[1])]

    worst = _Worst()
    identity_values = []
    for data, drawn, ident in zip(families, samples, identity_points):
        # one closed-form batch of the 40 samples, one direct batch of
        # them and the 5 identity tuples at each of the 3 identity points
        points = [p[:2] for p, _ in drawn] + [q for q in ident
                                               for _ in identities]
        xs, ys = map(np.array, zip(*points))
        vecs = np.array([v for _, v in drawn]
                        + identities * len(ident)).transpose(1, 2, 0)
        closed = geo.riemann_closed(data, (xs[:40], ys[:40]),
                                    *vecs[..., :40])
        direct = geo.riemann_direct(data, (xs, ys), *vecs)
        for (p, _), c, d in zip(drawn, closed.tolist(), direct.tolist()):
            worst.update(abs(d - c) / max(1.0, abs(c)),
                         f"{data.description} at {p}")
        identity_values.append(direct[40:].reshape(len(ident), -1))

    for data, ident, values in zip(families, identity_points, identity_values):
        xs, ys = map(np.array, zip(*ident))
        r, grad = geo.bundle_curvature(data, (xs, ys))
        g_curv = geo.gauss_curvature(data, (xs, ys))
        lam = data.base_jets(xs, ys)[0].value
        for n, got in enumerate(values):
            for j in range(2):
                worst.update(abs(got[2 * j] + r[n] * r[n]),
                             f"vertical-plane identity, {data.description}")
                expected = -grad[j, n] / lam[n]
                worst.update(abs(got[2 * j + 1] - expected),
                             f"mixed identity j={j}, {data.description}")
            worst.update(abs(got[4] - (3.0 * r[n] * r[n] - g_curv[n])),
                         f"horizontal identity, {data.description}")
    return worst.report("curvature-formula", _tol(tol, 1e-5), True,
                        {"tuples": 200})


# ---------------------------------------------------------------------------
# Criterion 3: Ricci closed form vs contraction of the FD curvature
# ---------------------------------------------------------------------------

def check_ricci(tol=None) -> CheckReport:
    rng = random.Random(SEED + 2)
    worst = _Worst()
    for data in metric_families():
        x, y = data.domain.random_point(rng)
        p = (x, y, 0.0)
        diff = np.max(np.abs(geo.ricci(data, (x, y))
                             - geo.ricci_contraction(data, p)))
        worst.update(diff, f"{data.description} at {p}")
    heis = geo.bcv(0.0, 0.5)
    expected = np.diag([-0.5, -0.5, 0.5])
    q = (0.3, -0.4)
    heis_diff = float(np.max(np.abs(geo.ricci(heis, q) - expected)))
    worst.update(heis_diff, f"Heisenberg entry, {heis.description} at {q}")
    return worst.report("ricci", _tol(tol, 1e-5), heis_diff <= _tol(tol, 1e-8),
                        {"heisenberg_residual": heis_diff})


# ---------------------------------------------------------------------------
# Criterion 4: BCV spaces have r = mu and G = c
# ---------------------------------------------------------------------------

def _bcv_scalars(data: geo.KillingData, x, y):
    return (geo.bundle_curvature(data, (x, y))[0],
            geo.gauss_curvature(data, (x, y)))


def check_bcv_constants(tol=None) -> CheckReport:
    r_bound, g_bound = _tol(tol, 1e-10), _tol(tol, 1e-8)
    worst = _Worst()
    ok = True
    for c, mu in ((1.0, 1.0), (-1.0, 0.3), (0.0, 0.5), (4.0, 1.0)):
        data = geo.bcv(c, mu)
        points = data.domain.grid(20, 20)
        rs, gs = batched(functools.partial(_bcv_scalars, data),
                         *map(np.array, zip(*points)))
        r_dev, g_dev = np.abs(rs - mu), np.abs(gs - c)
        ok = ok and bool(np.all(r_dev <= r_bound) and np.all(g_dev <= g_bound))
        # np.maximum and np.argmax keep a nan: the first nan, else the
        # first largest deviation, is the family's worst point
        deviation = np.maximum(r_dev, g_dev)
        k = int(np.argmax(deviation))
        x, y = points[k]
        worst.update(deviation[k], f"BCV({c}, {mu}) at ({x:.3f}, {y:.3f})")
    return worst.report("bcv-constants", max(r_bound, g_bound), ok,
                        {"grid": "20x20", "pairs": 4})


# ---------------------------------------------------------------------------
# Criterion 5: the Hopf-cylinder criterion
# ---------------------------------------------------------------------------

def check_hopf_tube(tol=None) -> CheckReport:
    start = time.monotonic()
    sphere = hopf.ConformalBase(geo.bcv(1.0, 0.0))
    good = hopf.hopf_residuals(hopf.bcv_circle(1.0, kappa=1.0), sphere)
    worst = _Worst()
    worst.update(np.max(np.abs(good.residuals)), "kappa=1 circle in BCV(1,0)")
    ok = good.verdict.passed

    details = {"kappa1_defect": good.verdict.defect}
    for kappa in (0.5, 2.0):
        v = hopf.hopf_residuals(hopf.bcv_circle(1.0, kappa=kappa),
                                sphere).verdict
        details[f"kappa{kappa}_defect"] = v.defect
        if v.passed or not v.defect >= HOPF_DEFECT_MIN:
            ok = False

    heis = hopf.ConformalBase(geo.bcv(0.0, 0.5))
    v = hopf.hopf_residuals(hopf.bcv_circle(0.0, kappa=1.0), heis).verdict
    details["heisenberg_admissible"] = v.admissible
    if v.admissible or v.passed:
        ok = False

    in_time = _in_time(start, 2.0, details)
    return worst.report("hopf-tube", _tol(tol, 1e-5), ok and in_time, details)


# ---------------------------------------------------------------------------
# Criterion 6: the rotationally symmetric construction
# ---------------------------------------------------------------------------

def check_rotational_example(tol=None) -> CheckReport:
    worst = _Worst()
    case = hopf.rotational_case_search("cos(t)", 0.0, (0.0, 1.5))[0]
    worst.update(abs(case.t0 - math.pi / 4.0), "root for f=cos, r=0")
    worst.update(abs(case.kappa_g ** 2 - 1.0), "kappa^2 for f=cos, r=0")
    worst.update(abs(case.gauss - 1.0), "G for f=cos, r=0")
    max_res = float(np.max(np.abs(case.report.residuals)))
    ok = case.report.verdict.passed and max_res <= _tol(tol, 1e-5)
    details = {"t0": case.t0, "residual_r0": max_res}

    case = hopf.rotational_case_search("cos(t)", 0.25, (0.0, 1.5))[0]
    target = case.gauss - 4.0 * 0.25 ** 2
    worst.update(abs(case.kappa_g ** 2 - 0.75), "kappa^2 for f=cos, r=1/4")
    worst.update(abs(case.kappa_g ** 2 - target), "criterion for f=cos, r=1/4")
    details["t0_quarter"] = case.t0
    ok = ok and case.report.verdict.passed
    return worst.report("rotational-example", _tol(tol, 1e-8), ok, details)


# ---------------------------------------------------------------------------
# Criterion 7: surface identity suite on random graphs
# ---------------------------------------------------------------------------

def _random_graph(data: geo.KillingData, rng) -> tuple[srf.SurfacePatch, tuple]:
    """A quadratic graph over [-0.45, 0.45]^2 and a point q of it, drawn
    once: an x slope of size 0.9 to 1.4 tilts the graph at q in every
    family of :func:`metric_families`."""
    coeffs = [rng.uniform(-0.6, 0.6) for _ in range(6)]
    coeffs[1] = math.copysign(rng.uniform(0.9, 1.4), coeffs[1])
    text = (f"{coeffs[0]!r}+{coeffs[1]!r}*x+{coeffs[2]!r}*y"
            f"+{coeffs[3]!r}*x*y+{coeffs[4]!r}*x^2+{coeffs[5]!r}*y^2")
    patch = srf.SurfacePatch.graph(data, text,
                                   geo.Rect(-0.45, 0.45, -0.45, 0.45))
    return patch, (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))


def _identity_graphs() -> list[tuple]:
    """surface-identities' 10 (family, graph, point) triples, 2 graphs in
    each metric family."""
    rng = random.Random(SEED + 3)
    return [(data, *_random_graph(data, rng)) for data in metric_families()
            for _ in range(2)]


def check_surface_identities(tol=None) -> CheckReport:
    worst = _Worst()
    for data, patch, q in _identity_graphs():
        where = f"{data.description}, graph at {q}"
        worst.update(srf.gauss_residual(patch, q), "gauss: " + where)
        worst.update(np.max(np.abs(srf.codazzi_residual(patch, q))),
                     "codazzi: " + where)
        c1, c2 = srf.compatibility_residuals(patch, q)
        worst.update(np.max((c1, c2)), "compatibility: " + where)
        d = srf.analyze_point(patch, q)
        oracle = srf.shape_frame_fd(patch, q)
        worst.update(np.max(np.abs(d.shape_frame - oracle)),
                     "weingarten-oracle: " + where)
        worst.update(d.norm_sq - srf.shape_norm_from_angle(patch, q),
                     "shape-norm: " + where)
        worst.update(np.max(np.abs(bih.bitension_frame_identity(patch, q))),
                     "bitension-frame: " + where)
    return worst.report("surface-identities", _tol(tol, 1e-4), True,
                        {"graphs": 10})


# ---------------------------------------------------------------------------
# Criterion 8: harmonic implies biharmonic; orientation invariance
# ---------------------------------------------------------------------------

def check_harmonic_sanity(tol=None) -> CheckReport:
    worst = _Worst()
    # the first of the check's own conditions to fail, which ``tol`` does
    # not reach: its location and details name it, the patch and the value
    failed = {}

    def require(holds, condition, patch, value):
        if not holds and not failed:
            failed.update(condition=condition, patch=patch.name, value=value)

    # vertical planes over base geodesics in three ambient families, which
    # are minimal, then a proper biharmonic cylinder; the orientation flip
    # of each must not change any verdict
    pvars = ("u", "v")
    cases = [(srf.SurfacePatch(
        parse("u", pvars), parse("0", pvars), parse("v", pvars),
        geo.Rect(-1.0, 1.0, -1.0, 1.0), data,
        name=f"vertical plane in {data.description}"), (0.1, 0.2))
        for data in metric_families()[:3]]
    K = geo.bcv(1.0, 0.0)
    circ = hopf.bcv_circle(1.0, kappa=1.0)
    cyl = hopf.cylinder_patch(K, circ)
    cyl.name = f"kappa=1 cylinder in {K.description}"
    cases.append((cyl, (0.5 * circ.interval[1], 0.5)))
    for patch, point in cases:
        twin = patch.flipped()
        one = bih.bitension_residual(patch, point)
        other = bih.bitension_residual(twin, point)
        if patch is not cyl:
            for flipped, bt in ((False, one), (True, other)):
                require(abs(bt.mean_h) <= bih.PROPER_H_TOL,
                        f"|H| > PROPER_H_TOL (flip={flipped})", patch,
                        abs(bt.mean_h))
                worst.update(np.max((abs(bt.normal), bt.tangential_norm)),
                             f"{patch.name} (flip={flipped})")
        verdicts = (one.is_biharmonic(), other.is_biharmonic())
        require(verdicts[0] == verdicts[1],
                "is_biharmonic changed under the flip", patch,
                "%s -> %s" % verdicts)
        branch_one = bih.classify_point(patch, point).branch
        branch_other = bih.classify_point(twin, point).branch
        require(branch_one == branch_other, "branch changed under the flip",
                patch, f"{branch_one} -> {branch_other}")
        lines_one = np.abs(bih.frame_system_residuals(patch, point))
        lines_other = np.abs(bih.frame_system_residuals(twin, point))
        worst_flip = float(np.max(np.abs(lines_one - lines_other)))
        require(worst_flip <= 1e-10, "frame-system moved > 1e-10 under the "
                "flip", patch, worst_flip)
    if failed:
        worst.location = ", ".join(map(str, failed.values()))
    return worst.report("harmonic-sanity", _tol(tol, 1e-6), not failed,
                        failed)


# ---------------------------------------------------------------------------
# Criterion 9: branch logic
# ---------------------------------------------------------------------------

def check_branch_logic(tol=None) -> CheckReport:
    worst = _Worst()
    ok = True
    details = {}

    K = geo.bcv(1.0, 0.0)
    circ = hopf.bcv_circle(1.0, kappa=1.0)
    cyl = hopf.cylinder_patch(K, circ)
    report_a = bih.classify_point(cyl, (0.5 * circ.interval[1], 0.5))
    details["cylinder_branch"] = report_a.branch
    if report_a.branch != "a" or not report_a.satisfied:
        ok = False

    flagged = bih.classify_scalars(cos_phi=0.5, grad_norm=0.5,
                                   gauss=4.0 * 0.09, r=0.3,
                                   norm_sq=1.0, mean_h=1.0)
    details["degenerate_branch"] = flagged.branch
    if flagged.branch != "contradiction-propRconst":
        ok = False

    grad_norm, r, g_val = 0.4, 0.5, 0.3
    phi = 0.5 * math.atan2(2.0 * grad_norm, 4.0 * r * r - g_val)
    norm_sq = 2.0 * r * r + grad_norm * math.tan(phi)
    synth = bih.classify_scalars(cos_phi=math.cos(phi), grad_norm=grad_norm,
                                 gauss=g_val, r=r, norm_sq=norm_sq, mean_h=1.0)
    worst.update(synth.diagnostics["tan2phi_residual"], "synthetic b2 data")
    details["b2_branch"] = synth.branch
    if synth.branch != "b2" or not synth.satisfied:
        ok = False

    mu = 0.7
    b1 = bih.classify_scalars(cos_phi=0.4, grad_norm=0.0, gauss=4.0 * mu * mu,
                              r=mu, norm_sq=2.0 * mu * mu, mean_h=1.0)
    details["b1_branch"] = b1.branch
    if b1.branch != "b1" or not b1.satisfied:
        ok = False
    return worst.report("branch-logic", _tol(tol, 1e-12), ok, details)


# ---------------------------------------------------------------------------
# Criterion 10: serialization determinism
# ---------------------------------------------------------------------------

def check_serialization_determinism(reports) -> CheckReport:
    from .cli import dumps_json  # local import to avoid a cycle
    payload = [report_to_dict(r) for r in reports]
    first = dumps_json({"schema_version": 1, "checks": payload})
    second = dumps_json({"schema_version": 1, "checks": payload})
    same = first == second
    return CheckReport("cli-determinism", "pass" if same else "fail",
                       0.0 if same else 1.0, 0.5, "",
                       {"bytes": len(first)})


def report_to_dict(report: CheckReport) -> dict:
    return {
        "check": report.name,
        "status": report.status,
        "residual": report.residual,
        "tol": report.tol,
        "location": report.location,
        "details": report.details,
    }


# The checks in run order. A check runs the module's ``check_<name>``
# function, looked up when it runs, so a function replaced on the module (a
# wrapper, a test fake) is the one called. cli-determinism comes last: it
# serializes the reports before it.
CHECK_NAMES = ["connection-oracle", "curvature-formula", "ricci",
               "bcv-constants", "hopf-tube", "rotational-example",
               "surface-identities", "harmonic-sanity", "branch-logic",
               "cli-determinism"]


def run_checks(only: str | None = None, tol: float | None = None) -> list[CheckReport]:
    """Run the verification suite, optionally filtered by substring.

    ``tol`` overrides each check's residual tolerances: the bound on the
    residual it reports, and ricci's Heisenberg entry and
    rotational-example's sweep residual. None keeps each check's defaults,
    and 0.0 is an override like any other. Tightening it below the
    finite-difference floor makes the FD-limited checks fail with their
    honest residuals. It does not reach the bounds of the checks' own
    conditions: ``biharmonic.PROPER_H_TOL`` and harmonic-sanity's 1e-10
    flip bound, ``biharmonic.RESIDUAL_TOL`` in the biharmonic and branch
    verdicts, ``hopf.CRITERION_TOL`` in the Hopf verdicts of hopf-tube and
    rotational-example, ``HOPF_DEFECT_MIN``, and the runtime limits (5 s
    and 2 s). A filter that matches no check is a KsubError, so a misspelt
    name cannot read as a pass.
    """
    if only and not any(only in name for name in CHECK_NAMES):
        raise KsubError(f"no check name contains {only!r}; the checks are "
                        + ", ".join(CHECK_NAMES))
    reports = []
    for name in CHECK_NAMES:
        if only and only not in name:
            continue
        if name == "cli-determinism":
            reports.append(check_serialization_determinism(reports))
        else:
            reports.append(globals()["check_" + name.replace("-", "_")](tol))
    return reports
