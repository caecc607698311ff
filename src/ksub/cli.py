"""Command-line front end.

Subcommands: ``info`` (metric scalars on points or grids), ``check-surface``
(identity and biharmonicity sweeps over a surface patch), ``hopf`` (cylinder
criterion for circles/curves, and the rotationally symmetric construction),
and ``verify-paper`` (the built-in verification suite).

Output is machine-readable JSON (default) or CSV. Serialization is
deterministic: fixed field order and %.12e float formatting, so identical
configurations produce byte-identical output. :func:`dumps_json` writes
exact Python floats, dicts, lists and strings on a fast path, so ``info``
builds its payload from ``tolist()`` columns; numpy values and subclasses
take an isinstance chain to the same text. Exit codes: 0 all requested
checks pass, 1 a check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys

import numpy as np

from . import biharmonic as bih
from . import geometry as geo
from . import hopf
from . import surface as srf
from . import verify
from .errors import (AngleSingularError, DomainEvalError, FdMarginError,
                     KsubError, NotCMCError)
from .expr import batched, parse

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def dumps_json(obj) -> str:
    """JSON text with insertion-ordered keys and %.12e floats."""
    pieces: list[str] = []
    _write_json(obj, pieces)
    return "".join(pieces)


def _write_json(obj, out: list[str]):
    # exact types first; numpy scalars and subclasses take isinstance below
    kind = type(obj)
    if kind is float:  # a non-finite float is quoted: "nan", "inf", "-inf"
        out.append(format(obj, ".12e") if math.isfinite(obj) else f'"{obj}"')
    elif kind is dict:
        sep = "{"
        for key, value in obj.items():
            out.append(sep)
            _write_json(str(key), out)
            out.append(":")
            _write_json(value, out)
            sep = ","
        out.append("}" if obj else "{}")
    elif kind is list or kind is tuple:
        sep = "["
        for value in obj:
            out.append(sep)
            _write_json(value, out)
            sep = ","
        out.append("]" if obj else "[]")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        _write_json(float(obj), out)
    elif isinstance(obj, dict):
        _write_json(dict(obj.items()), out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        _write_json(list(obj), out)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_csv(rows: list[dict]) -> str:
    header = "s_or_u,v,check,residual,tol,status"
    lines = [header]
    for row in rows:
        lines.append(",".join([
            format(float(row.get("s_or_u", 0.0)), ".12e"),
            format(float(row.get("v", 0.0)), ".12e"),
            str(row["check"]),
            format(float(row["residual"]), ".12e"),
            format(float(row["tol"]), ".12e"),
            str(row["status"]),
        ]))
    return "\n".join(lines) + "\n"


def _floats(obj, path: str = ""):
    """(path, value) of every float in a payload, in output order."""
    if isinstance(obj, (float, np.floating)):
        yield path, obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _floats(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for i, value in enumerate(obj):
            yield from _floats(value, f"{path}[{i}]")


def _emit(args, payload: dict, rows: list[dict]) -> None:
    # a non-finite CSV value is also one in the payload: one check serves
    # both. The writer quotes every non-finite float, so only text with such
    # a token needs the walk that finds the first one's path.
    text = dumps_json(payload)
    if '"nan"' in text or 'inf"' in text:
        for path, value in _floats(payload):
            if not math.isfinite(value):
                raise DomainEvalError(f"non-finite result at {path}")
    text = dumps_csv(rows) if args.format == "csv" else text + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as handle:
            handle.write(text)
    except OSError as err:
        raise UsageError(
            f"cannot write {args.out}: {err.strerror or err}") from None


def _check_writable(path: str) -> None:
    """Refuse an ``--out`` PATH that cannot be written before any work is
    done, without creating it; the write in :func:`_emit` stays the
    authoritative one."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {path}: {os.strerror(code)}")


# ---------------------------------------------------------------------------
# Shared flag handling
# ---------------------------------------------------------------------------

def _add_metric_flags(parser):
    parser.add_argument("--bcv", nargs=2, type=finite, metavar=("C", "MU"),
                        help="Bianchi-Cartan-Vranceanu space E(c, mu)")
    parser.add_argument("--lambda", dest="lam", metavar="EXPR",
                        help="conformal factor lambda(x, y) > 0")
    parser.add_argument("--a", metavar="EXPR", help="metric field a(x, y)")
    parser.add_argument("--b", metavar="EXPR", help="metric field b(x, y)")
    parser.add_argument("--domain", nargs=4, type=finite,
                        metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
                        help="base rectangle (default (-2,2)x(-2,2))")


def _metric_from_args(args) -> geo.KillingData:
    if args.bcv is not None:
        if args.lam or args.a or args.b:
            raise UsageError("give either --bcv or --lambda/--a/--b, not both")
        if args.domain:
            raise UsageError("--domain applies to --lambda metrics; --bcv "
                             "has its own domain")
        return geo.bcv(args.bcv[0], args.bcv[1])
    if not args.lam:
        raise UsageError("a metric is required: --bcv C MU or --lambda EXPR "
                         "(with optional --a/--b)")
    rect = geo.Rect(*args.domain) if args.domain else geo.Rect(-2, 2, -2, 2)
    lam = parse(args.lam, ("x", "y"))
    a = parse(args.a or "0", ("x", "y"))
    b = parse(args.b or "0", ("x", "y"))
    return geo.KillingData(lam, a, b, rect, description="custom")


class UsageError(Exception):
    pass


def count(text: str) -> int:
    """argparse type for grid sizes and sample counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def finite(text: str) -> float:
    """argparse type for coordinates, intervals, radii and constants: a
    finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def tolerance(text: str) -> float:
    """argparse type for --tol: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

def _info_fields(data: geo.KillingData, x, y):
    """r, grad r, G and lam at a point or over a batch. lam is the value
    path's, not the jet's: a jet divides through the reciprocal and can
    differ in the last bit."""
    r, grad = geo.bundle_curvature(data, (x, y))
    return r, grad, geo.gauss_curvature(data, (x, y)), data.lam(x, y)


def cmd_info(args) -> int:
    data = _metric_from_args(args)
    if args.at is not None:
        points = [tuple(args.at)]
    else:
        nx, ny = args.grid if args.grid else (5, 5)
        points = data.domain.grid(int(nx), int(ny))
    xs, ys = map(np.array, zip(*points))
    r, grad, g_curv, lam = batched(
        functools.partial(_info_fields, data), xs, ys)
    ricci = geo.ricci_from_scalars(r, grad, g_curv, lam)
    # Python floats, one tolist() per column: the writer's fast path
    records = [{"x": x, "y": y, "r": r_i, "G": g_i, "grad_r": grad_i,
                "ricci": ricci_i}
               for (x, y), r_i, g_i, grad_i, ricci_i in zip(
                   points, r.tolist(), g_curv.tolist(), grad.T.tolist(),
                   ricci.transpose(2, 0, 1).tolist())]
    rows = [{"s_or_u": p["x"], "v": p["y"], "check": "info",
             "residual": p["r"], "tol": p["G"], "status": "pass"}
            for p in records]
    payload = {"schema_version": SCHEMA_VERSION, "command": "info",
               "metric": data.description, "points": records}
    _emit(args, payload, rows)
    return 0


# ---------------------------------------------------------------------------
# check-surface
# ---------------------------------------------------------------------------

def _patch_from_args(args, data) -> srf.SurfacePatch:
    if args.surface and args.graph:
        raise UsageError("give either --surface or --graph, not both")
    if args.graph:
        rect = (geo.Rect(*args.patch_domain) if args.patch_domain
                else geo.Rect(-0.45, 0.45, -0.45, 0.45))
        return srf.SurfacePatch.graph(data, args.graph, rect)
    if not args.surface:
        raise UsageError("a surface is required: --surface \"X;Y;Z\" or "
                         "--graph \"z(x,y)\"")
    parts = args.surface.split(";")
    if len(parts) != 3:
        raise UsageError("--surface needs three ;-separated expressions")
    rect = (geo.Rect(*args.patch_domain) if args.patch_domain
            else geo.Rect(0.0, 1.0, 0.0, 1.0))
    pvars = ("u", "v")
    return srf.SurfacePatch(parse(parts[0], pvars), parse(parts[1], pvars),
                            parse(parts[2], pvars), rect, data)


def _surface_point_checks(patch, q, tol) -> list[dict]:
    checks = []

    def add(name, residual, status=None):
        state = status or ("pass" if abs(residual) <= tol else "fail")
        checks.append({"check": name, "residual": float(residual),
                       "tol": tol, "status": state})

    def skip(name):
        add(name, 0.0, "skipped")

    def add_guarded(name, compute):
        # adapted-frame checks are undefined where the vertical field is
        # normal to the surface, and stencil-bound ones where the point
        # sits too close to the patch edge; report them as skipped there
        try:
            add(name, compute())
        except (AngleSingularError, FdMarginError):
            skip(name)

    add_guarded("gauss", lambda: srf.gauss_residual(patch, q))
    add_guarded("codazzi",
                lambda: float(np.max(np.abs(srf.codazzi_residual(patch, q)))))
    add_guarded("compatibility",
                lambda: float(np.max(srf.compatibility_residuals(patch, q))))
    try:
        bt = bih.bitension_residual(patch, q)
        lines = bih.frame_system_residuals(patch, q)
        branch = bih.classify_point(patch, q)
    except (NotCMCError, FdMarginError):
        for name in ("bitension-normal", "bitension-tangential",
                     "frame-system", "branch"):
            skip(name)
        add("proper-biharmonic", 0.0, "no")
        return checks
    add("bitension-normal", bt.normal)
    add("bitension-tangential", bt.tangential_norm)
    add("frame-system", float(np.max(np.abs(lines))))
    verdict = "yes" if branch.satisfied and bt.is_proper(tol) else "no"
    add("branch", 0.0, branch.branch)
    add("proper-biharmonic", 0.0, verdict)
    return checks


def cmd_check_surface(args) -> int:
    data = _metric_from_args(args)
    patch = _patch_from_args(args, data)
    nx, ny = args.grid if args.grid else (3, 3)
    points = patch.domain.grid(int(nx), int(ny), inset=0.25)
    # the records every point reads, in one batch
    patch.evaluator().lattice(*points)
    tol = args.tol
    records = []
    rows = []
    failed = False
    # the structure equations must hold on any genuine surface; the
    # biharmonicity rows express a verdict, not an integrity failure
    integrity = {"gauss", "codazzi", "compatibility"}
    for q in points:
        checks = _surface_point_checks(patch, q, tol)
        for chk in checks:
            if chk["status"] == "fail" and chk["check"] in integrity:
                failed = True
            rows.append({"s_or_u": q[0], "v": q[1], **chk})
        records.append({"u": q[0], "v": q[1], "checks": checks})
    payload = {"schema_version": SCHEMA_VERSION, "command": "check-surface",
               "metric": data.description, "tol": tol, "points": records}
    _emit(args, payload, rows)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# hopf
# ---------------------------------------------------------------------------

def _verdict_dict(verdict: hopf.HopfVerdict) -> dict:
    return {
        "passed": verdict.passed,
        "admissible": verdict.admissible,
        "defect": verdict.defect,
        "kappa_mean": verdict.kappa_mean,
        "kappa_std": verdict.kappa_std,
        "r_mean": verdict.r_mean,
        "r_std": verdict.r_std,
        "G_mean": verdict.gauss_mean,
        "G_std": verdict.gauss_std,
        "reason": verdict.reason,
        "certified": verdict.certified,
    }


def cmd_hopf_check(args) -> int:
    data = _metric_from_args(args)
    base = hopf.ConformalBase(data)
    if args.circle is not None or args.circle_kg is not None:
        if args.bcv is None:
            raise UsageError("--circle/--circle-kg need a --bcv metric")
        c = args.bcv[0]
        curve = hopf.bcv_circle(c, radius=args.circle, kappa=args.circle_kg)
    elif args.curve:
        parts = args.curve.split(";")
        if len(parts) != 2:
            raise UsageError("--curve needs two ;-separated expressions in s")
        if not args.interval:
            raise UsageError("--curve needs --interval A B")
        curve = hopf.BaseCurve(parse(parts[0], ("s",)), parse(parts[1], ("s",)),
                               tuple(args.interval))
        curve = hopf.arclength_reparam(curve, base)
    else:
        raise UsageError("a curve is required: --circle R, --circle-kg K or "
                         "--curve \"x;y\" --interval A B")
    report = hopf.hopf_residuals(curve, base, n_samples=int(args.samples),
                                 const_tol=args.tol, crit_tol=args.tol)
    worst = float(np.max(np.abs(report.residuals)))
    payload = {
        "schema_version": SCHEMA_VERSION, "command": "hopf-check",
        "metric": data.description,
        "verdict": _verdict_dict(report.verdict),
        "max_residual": worst,
        "crosscheck": report.crosscheck,
    }
    status = "pass" if report.verdict.passed else "fail"
    rows = [{"s_or_u": float(s), "v": 0.0, "check": "hopf-residual",
             "residual": float(np.max(np.abs(res))), "tol": args.tol,
             "status": status}
            for s, res in zip(report.s, report.residuals)]
    _emit(args, payload, rows)
    return _expect_exit(args.expect, report.verdict.passed)


def cmd_hopf_example(args) -> int:
    if args.f is None or args.r is None or not args.interval:
        raise UsageError("example mode needs --f EXPR --r R --interval A B")
    cases = hopf.rotational_case_search(args.f, args.r, tuple(args.interval),
                                        const_tol=args.tol, crit_tol=args.tol)
    records = []
    all_pass = True
    rows = []
    for case in cases:
        verdict = case.report.verdict
        all_pass = all_pass and verdict.passed
        records.append({
            "t0": case.t0,
            "kappa_g": case.kappa_g,
            "kappa_g_sq": case.kappa_g ** 2,
            "G": case.gauss,
            "H_sq_target": case.gauss - 4.0 * args.r ** 2,
            "max_residual": float(np.max(np.abs(case.report.residuals))),
            "verdict": _verdict_dict(verdict),
        })
        rows.append({"s_or_u": case.t0, "v": 0.0, "check": "example-root",
                     "residual": float(np.max(np.abs(case.report.residuals))),
                     "tol": args.tol,
                     "status": "pass" if verdict.passed else "fail"})
    payload = {"schema_version": SCHEMA_VERSION, "command": "hopf-example",
               "f": args.f, "r": args.r, "roots": records}
    _emit(args, payload, rows)
    return _expect_exit(args.expect, all_pass)


def _expect_exit(expect: str | None, passed: bool) -> int:
    if expect == "pass":
        return 0 if passed else 1
    if expect == "fail":
        return 0 if not passed else 1
    return 0


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------

def cmd_verify_paper(args) -> int:
    reports = verify.run_checks(only=args.only, tol=args.tol_override)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-paper",
        "checks": [verify.report_to_dict(r) for r in reports],
        "all_pass": all(r.status == "pass" for r in reports),
    }
    rows = [{"s_or_u": 0.0, "v": 0.0, "check": r.name, "residual": r.residual,
             "tol": r.tol, "status": r.status} for r in reports]
    _emit(args, payload, rows)
    for r in reports:
        print(f"{r.status.upper():5s} {r.name}  residual={r.residual:.3e} "
              f"tol={r.tol:.1e}", file=sys.stderr)
    return 0 if payload["all_pass"] else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksub",
        description="Numerical engine for canonical Killing submersions")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv"), default="json")
    output.add_argument("--out", metavar="PATH", help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="metric scalars at points",
                            parents=[output])
    _add_metric_flags(p_info)
    p_info.add_argument("--at", nargs=2, type=finite, metavar=("X", "Y"))
    p_info.add_argument("--grid", nargs=2, type=count, metavar=("NX", "NY"))
    p_info.set_defaults(func=cmd_info)

    p_surf = sub.add_parser("check-surface", parents=[output],
                            help="identity and biharmonicity checks on a patch")
    _add_metric_flags(p_surf)
    p_surf.add_argument("--surface", metavar="\"X;Y;Z\"",
                        help="immersion expressions in (u, v)")
    p_surf.add_argument("--graph", metavar="EXPR",
                        help="graph height z(x, y)")
    p_surf.add_argument("--patch-domain", nargs=4, type=finite,
                        metavar=("UMIN", "UMAX", "VMIN", "VMAX"))
    p_surf.add_argument("--grid", nargs=2, type=count, metavar=("NU", "NV"))
    p_surf.add_argument("--tol", type=tolerance, default=1e-4)
    p_surf.set_defaults(func=cmd_check_surface)

    p_hopf = sub.add_parser("hopf", help="vertical cylinder analysis")
    hopf_sub = p_hopf.add_subparsers(dest="hopf_command", required=True)

    p_check = hopf_sub.add_parser("check", parents=[output],
                                  help="cylinder criterion for a curve")
    _add_metric_flags(p_check)
    p_check.add_argument("--circle", type=finite, metavar="R",
                         help="origin-centered circle of Euclidean radius R")
    p_check.add_argument("--circle-kg", type=finite, metavar="KAPPA",
                         help="origin-centered circle with geodesic curvature")
    p_check.add_argument("--curve", metavar="\"X;Y\"",
                         help="curve expressions in s")
    p_check.add_argument("--interval", nargs=2, type=finite, metavar=("A", "B"))
    p_check.add_argument("--samples", type=count, default=64)
    p_check.add_argument("--tol", type=tolerance, default=1e-5)
    p_check.add_argument("--expect", choices=("pass", "fail"))
    p_check.set_defaults(func=cmd_hopf_check)

    p_ex = hopf_sub.add_parser("example", parents=[output],
                               help="rotationally symmetric construction")
    p_ex.add_argument("--f", metavar="EXPR", help="warp profile f(t) > 0")
    p_ex.add_argument("--r", type=finite, help="constant bundle curvature")
    p_ex.add_argument("--interval", nargs=2, type=finite, metavar=("A", "B"))
    p_ex.add_argument("--tol", type=tolerance, default=1e-5)
    p_ex.add_argument("--expect", choices=("pass", "fail"))
    p_ex.set_defaults(func=cmd_hopf_example)

    p_verify = sub.add_parser("verify-paper", parents=[output],
                              help="run the built-in verification suite")
    p_verify.add_argument("--only", metavar="NAME",
                          help="run only checks whose name contains NAME")
    p_verify.add_argument("--tol", dest="tol_override", type=tolerance,
                          help="override every residual tolerance")
    p_verify.set_defaults(func=cmd_verify_paper)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.out:
            _check_writable(args.out)
        # numpy faults surface as non-finite results, which _emit refuses
        with np.errstate(all="ignore"):
            return args.func(args)
    except (UsageError, KsubError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:  # overflow, division by zero, FP traps
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except RecursionError as err:  # parsing and jets recurse on the tree
        print(f"error: expression nested too deeply: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
