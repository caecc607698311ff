"""Seeded op sequences for the four benchmark workloads, and their oracles.

An op is one ``ksub`` CLI invocation: the argv handed to ``ksub.cli.main``
plus an untimed check of what it printed. Ops are generated from the seed
alone, and every op names a freshly drawn metric or patch, so no op can be
served from the work of another through a process-wide cache.

Each workload cycles through a fixed list of op kinds and draws only the
parameters from the seed; a run is a whole number of cycles. The mix of kinds
is therefore the same for every seed, and seeds vary the numbers, not the
amount of work. Where op kinds differ in cost, the mix gives one kind a clear
majority, so the median op time falls inside one cluster of op times and not
in the gap between two.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# Nominal ops per second of each workload on a 2-core x86 sandbox at the
# commit that introduced the benchmark. A run performs seconds * rate ops,
# rounded to whole cycles, so the op sequence depends on (seed, seconds)
# only and never on how fast the machine happens to be.
NOMINAL_RATE = {
    "metric-grid": 3.6,
    "surface-scan": 1.2,
    "hopf-sweep": 4.6,
    "verify-paper": 0.13,
}

GRID = 12                       # metric-grid: GRID x GRID base points per op
GRID_ARGV = ("--grid", str(GRID), str(GRID))
SURFACE_GRID = 2                # surface-scan: SURFACE_GRID^2 points per op
CUSTOM_DOMAIN = 1.5             # custom metrics live on (-1.5, 1.5)^2
RICCI_TOL = 1e-5                # closed-form Ricci vs contraction oracle
RICCI_PROBES = 3                # seeded grid points checked per custom op
R_TOL, G_TOL = 1e-10, 1e-8      # BCV constants: r = mu, G = c
INTEGRITY = ("gauss", "codazzi", "compatibility")
BITENSION = ("bitension-normal", "bitension-tangential", "frame-system",
             "branch")


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    points: int                 # base or parameter points (grid workloads)
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> error


def _num(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return _num(rng, lo, hi) * rng.choice((-1.0, 1.0))


def _poly(terms) -> str:
    """Sum of coefficient*monomial terms; negative coefficients stay inline."""
    return "+".join(f"{c!r}*{m}" if m else repr(c) for c, m in terms)


def _expr_flag(flag: str, text: str) -> str:
    # argparse reads "--b -0.3*x" as a flag with a missing value, so every
    # expression travels attached to its flag
    return f"--{flag}={text}"


# ---------------------------------------------------------------------------
# metric-grid: `info --grid 12 12` over a fresh metric
# ---------------------------------------------------------------------------

def _metric_grid_ops(rng: random.Random, cycles: int) -> list[Op]:
    ops = []
    for _ in range(cycles):
        for kind in ("bcv", "gaussian", "bcv", "trig"):
            ops.append(_bcv_info(rng) if kind == "bcv"
                       else _custom_info(rng, kind))
    return ops


def _bcv_info(rng: random.Random) -> Op:
    c = rng.choice((-1.0, 0.0, 1.0, 4.0))
    mu = _num(rng, 0.1, 1.2)
    argv = ("info", "--bcv", repr(c), repr(mu)) + GRID_ARGV

    def check(code, out):
        if code != 0:
            return f"exit {code}"
        points = json.loads(out)["points"]
        if len(points) != GRID * GRID:
            return f"{len(points)} points"
        for p in points:
            if abs(p["r"] - mu) > R_TOL or abs(p["G"] - c) > G_TOL:
                return f"BCV({c}, {mu}) at ({p['x']}, {p['y']}): r={p['r']}, G={p['G']}"
        return None

    return Op("bcv", argv, GRID * GRID, check)


def _custom_info(rng: random.Random, kind: str) -> Op:
    if kind == "gaussian":
        lam = f"exp(-(x^2+y^2)/{_num(rng, 3.0, 6.0)!r})"
        a = _poly([(_signed(rng, 0.1, 0.6), "y"), (_signed(rng, 0.1, 0.4), "x*y")])
        b = _poly([(_signed(rng, 0.1, 0.6), "x"), (_signed(rng, 0.1, 0.4), "x^2")])
    else:
        lam = f"1+{_num(rng, 0.1, 0.4)!r}*sin(x)*cos(y)"
        a = _poly([(_signed(rng, 0.1, 0.6), f"sin({_num(rng, 0.5, 1.5)!r}*y)")])
        b = _poly([(_signed(rng, 0.1, 0.6), f"cos({_num(rng, 0.5, 1.5)!r}*x)")])
    half = repr(CUSTOM_DOMAIN)
    argv = (("info", _expr_flag("lambda", lam), _expr_flag("a", a),
             _expr_flag("b", b), "--domain", "-" + half, half, "-" + half, half)
            + GRID_ARGV)
    probes = rng.sample(range(GRID * GRID), RICCI_PROBES)

    def check(code, out):
        if code != 0:
            return f"exit {code}"
        points = json.loads(out)["points"]
        if len(points) != GRID * GRID:
            return f"{len(points)} points"
        from ksub import geometry as geo
        from ksub.expr import parse
        xy = ("x", "y")
        data = geo.KillingData(parse(lam, xy), parse(a, xy), parse(b, xy),
                               geo.Rect(-CUSTOM_DOMAIN, CUSTOM_DOMAIN,
                                        -CUSTOM_DOMAIN, CUSTOM_DOMAIN))
        for p in (points[i] for i in probes):
            oracle = geo.ricci_contraction(data, (p["x"], p["y"], 0.0))
            worst = max(abs(p["ricci"][i][j] - oracle[i, j])
                        for i in range(3) for j in range(3))
            if not worst <= RICCI_TOL:
                return f"Ricci off its contraction oracle by {worst:.3e} at ({p['x']}, {p['y']})"
        return None

    return Op(kind, argv, GRID * GRID, check)


# ---------------------------------------------------------------------------
# surface-scan: `check-surface --grid 2 2` on tilted graphs and cylinders
# ---------------------------------------------------------------------------

AMBIENTS = (("--lambda", "1"), ("--bcv", "0", "0.5"), ("--bcv", "1", "1"))
# Graphs cost 2-5x a cylinder, and flat cylinders less than BCV ones. With
# three cylinders per graph the median op is the middle one of the BCV
# cylinders, not one on the tail of that cluster.
CYLINDERS_PER_GRAPH = 3


def _surface_scan_ops(rng: random.Random, cycles: int) -> list[Op]:
    ops = []
    for _ in range(cycles):
        for ambient in AMBIENTS:
            ops.append(_graph_op(rng, ambient))
            for _ in range(CYLINDERS_PER_GRAPH):
                ops.append(_cylinder_op(rng, ambient))
    return ops


def _graph_op(rng: random.Random, ambient) -> Op:
    # |z_x| >= 0.9 - 0.41 (quadratic terms) - 0.45 (BCV shear) keeps every
    # point of (-0.45, 0.45)^2 tilted, so the adapted-frame rows all run
    height = _poly([
        (_num(rng, -0.5, 0.5), ""),
        (_signed(rng, 0.9, 1.4), "x"),
        (_num(rng, -0.6, 0.6), "y"),
        (_num(rng, -0.3, 0.3), "x*y"),
        (_num(rng, -0.3, 0.3), "x^2"),
        (_num(rng, -0.3, 0.3), "y^2"),
    ])
    argv = (("check-surface",) + ambient
            + (_expr_flag("graph", height), "--grid", str(SURFACE_GRID),
               str(SURFACE_GRID)))
    return Op("graph", argv, SURFACE_GRID ** 2, _surface_check(cylinder=False))


def _cylinder_op(rng: random.Random, ambient) -> Op:
    # vertical cylinders over origin-centred circles are CMC in every
    # ambient here, so the biharmonicity rows must run rather than skip
    radius = _num(rng, 0.5, 1.2)
    u0 = _num(rng, 0.0, 3.0)
    argv = (("check-surface",) + ambient
            + (_expr_flag("surface",
                          f"{radius!r}*cos(u);{radius!r}*sin(u);v"),
               "--patch-domain", repr(u0), repr(round(u0 + 1.5, 4)), "0", "1",
               "--grid", str(SURFACE_GRID), str(SURFACE_GRID)))
    return Op("cylinder", argv, SURFACE_GRID ** 2, _surface_check(cylinder=True))


def _surface_check(cylinder: bool):
    def check(code, out):
        if code != 0:
            return f"exit {code}"
        points = json.loads(out)["points"]
        if len(points) != SURFACE_GRID ** 2:
            return f"{len(points)} points"
        for p in points:
            status = {c["check"]: c["status"] for c in p["checks"]}
            for name in INTEGRITY:
                if status.get(name) != "pass":
                    return f"{name} is {status.get(name)} at ({p['u']}, {p['v']})"
            if cylinder:
                for name in BITENSION:
                    if status.get(name) in (None, "skipped"):
                        return f"{name} skipped on a CMC cylinder at ({p['u']}, {p['v']})"
        return None
    return check


# ---------------------------------------------------------------------------
# hopf-sweep: a passing and a failing circle check per warped example
# ---------------------------------------------------------------------------

def _hopf_sweep_ops(rng: random.Random, cycles: int) -> list[Op]:
    ops = []
    for _ in range(cycles):
        ops.append(_circle_op(rng, expect_pass=True))
        ops.append(_example_op(rng))
        ops.append(_circle_op(rng, expect_pass=False))
    return ops


def _circle_op(rng: random.Random, expect_pass: bool) -> Op:
    c = rng.choice((1.0, 4.0))
    mu = _num(rng, 0.0, 0.4)
    kappa = math.sqrt(c - 4.0 * mu * mu)   # kappa^2 = G - 4 r^2 passes
    if not expect_pass:
        kappa *= rng.choice((0.6, 1.3))
    argv = ("hopf", "check", "--bcv", repr(c), repr(mu), "--circle-kg",
            repr(kappa), "--expect", "pass" if expect_pass else "fail")
    return Op("circle-pass" if expect_pass else "circle-fail", argv, 0,
              _exit_zero)


def _example_op(rng: random.Random) -> Op:
    argv = ("hopf", "example", _expr_flag("f", "cos(t)"), "--r",
            repr(_num(rng, 0.0, 0.4)), "--interval", "0", "1.5",
            "--expect", "pass")
    return Op("example", argv, 0, _exit_zero)


def _exit_zero(code, out):
    if code != 0:
        return f"exit {code}"
    json.loads(out)
    return None


# ---------------------------------------------------------------------------
# verify-paper: one full pass of the built-in suite
# ---------------------------------------------------------------------------

def _verify_paper_ops(rng: random.Random, cycles: int) -> list[Op]:
    return [Op("verify-paper", ("verify-paper",), 0, _verify_check)
            for _ in range(cycles)]


def _verify_check(code, out):
    from ksub.verify import CHECK_NAMES
    payload = json.loads(out)
    bad = [c["check"] + (" (runtime limit)" if c["details"].get(
               "runtime_limit_exceeded") else "")
           for c in payload["checks"] if c["status"] != "pass"]
    ran = [c["check"] for c in payload["checks"]]
    if bad or ran != CHECK_NAMES:
        return f"failed checks: {', '.join(bad)}; ran {ran}"
    if code != 0 or not payload["all_pass"]:
        return f"exit {code}, all_pass {payload['all_pass']}"
    return None


# ---------------------------------------------------------------------------

_SEQUENCES = {
    "metric-grid": (_metric_grid_ops, 4),
    "surface-scan": (_surface_scan_ops,
                     (1 + CYLINDERS_PER_GRAPH) * len(AMBIENTS)),
    "hopf-sweep": (_hopf_sweep_ops, 3),
    "verify-paper": (_verify_paper_ops, 1),
}
WORKLOADS = tuple(_SEQUENCES)


def generate(workload: str, seed: int, seconds: float) -> list[Op]:
    """The op sequence of one run: seconds * nominal rate, in whole cycles."""
    build, cycle = _SEQUENCES[workload]
    cycles = max(1, round(seconds * NOMINAL_RATE[workload] / cycle))
    return build(random.Random(f"{workload}/{seed}"), cycles)
