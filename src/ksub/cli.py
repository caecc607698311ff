"""Command-line front end.

Subcommands: ``info`` (metric scalars on points or grids), ``check-surface``
(identity and biharmonicity sweeps over a surface patch), ``hopf`` (cylinder
criterion for circles/curves, and the rotationally symmetric construction),
and ``verify-paper`` (the built-in verification suite).

Output is machine-readable JSON (default) or CSV. Serialization is
deterministic: fixed field order and %.12e float formatting, so identical
configurations produce byte-identical output. :func:`dumps_json` writes
exact Python floats, dicts, lists and strings on a fast path; numpy values
and subclasses take an isinstance chain to the same text. ``info`` hands it
its grid as one table: the points' floats as an (N, 15) block, each
distinct float formatted once (a non-finite one as its quoted name) and
placed by one ``%`` of a record template. Exit codes: 0 all requested
checks pass, 1 a check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import re
import sys

import numpy as np

from . import biharmonic as bih
from . import geometry as geo
from . import hopf
from . import surface as srf
from . import verify
from .errors import DomainEvalError, KsubError
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


def _float_text(x: float) -> str:
    """A float's text: %.12e, or its quoted name "nan", "inf" or "-inf"."""
    return format(x, ".12e") if math.isfinite(x) else f'"{x}"'


def _write_json(obj, out: list[str]):
    # exact types first; numpy scalars and subclasses take isinstance below
    kind = type(obj)
    if kind is float:
        out.append(_float_text(obj))
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
    elif kind is _Table:
        # one text per distinct bit pattern (so -0.0 and 0.0 stay apart),
        # repeated through the inverse into the template's slots
        bits, slots = np.unique(obj.block.view(np.int64).ravel(),
                                return_inverse=True)
        texts = np.array(list(map(_float_text,
                                  bits.view(np.float64).tolist())),
                         dtype=object)[slots]
        out += ["[", ",".join([obj.template()] * len(obj.block))
                % tuple(texts), "]"]
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


class _Table:
    """A list of records of one layout, held as an (N, width) float block.

    ``layout`` pairs each key with the shape of its value: () for a float,
    (2,) for a list of two, (3, 3) for a 3x3 nested list. A row of
    ``block`` is one record's floats in key order, each value flattened
    row-major. :meth:`records` is the same list as dicts. The writer
    formats each distinct float of the block once (a grid repeats its
    coordinates, and a BCV metric most of its fields) and fills
    :meth:`template`'s slots with the texts. No key holds a "%", which the
    record template would read as a conversion.
    """

    __slots__ = ("layout", "block")

    def __init__(self, layout: tuple, block: np.ndarray):
        self.layout, self.block = layout, block

    def template(self) -> str:
        """One record's JSON text with a ``%s`` slot for each float."""
        def value(shape) -> str:
            if not shape:
                return "%s"
            return "[" + ",".join([value(shape[1:])] * shape[0]) + "]"

        pieces = ["{"]
        for key, shape in self.layout:
            _write_json(key, pieces)
            pieces += [":", value(shape), ","]
        pieces[-1] = "}"
        return "".join(pieces)

    def records(self) -> list[dict]:
        """The records as dicts of Python floats and nested lists."""
        columns, start = [], 0
        for _, shape in self.layout:
            width = math.prod(shape)
            columns.append(self.block[:, start:start + width]
                           .reshape(-1, *shape).tolist())
            start += width
        keys = [key for key, _ in self.layout]
        return [dict(zip(keys, values)) for values in zip(*columns)]


def dumps_csv(rows: list[dict]) -> str:
    lines = ["s_or_u,v,check,residual,tol,status"]
    for row in rows:
        lines.append(",".join([
            _float_text(float(row["s_or_u"])),
            _float_text(float(row["v"])),
            str(row["check"]),
            _float_text(float(row["residual"])),
            _float_text(float(row["tol"])),
            str(row["status"]),
        ]))
    return "\n".join(lines) + "\n"


def _floats(obj, path: str = ""):
    """(path, value) of every float in a payload, in output order."""
    if isinstance(obj, (float, np.floating)):
        yield path, obj
    elif isinstance(obj, _Table):
        yield from _floats(obj.records(), path)
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
        raise KsubError(
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
    raise KsubError(f"cannot write {path}: {os.strerror(code)}")


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
            raise KsubError("give either --bcv or --lambda/--a/--b, not both")
        if args.domain:
            raise KsubError("--domain applies to --lambda metrics; --bcv "
                            "has its own domain")
        return geo.bcv(args.bcv[0], args.bcv[1])
    if not args.lam:
        raise KsubError("a metric is required: --bcv C MU or --lambda EXPR "
                        "(with optional --a/--b)")
    rect = geo.Rect(*args.domain) if args.domain else geo.Rect(-2, 2, -2, 2)
    lam = parse(args.lam, ("x", "y"))
    a = parse(args.a or "0", ("x", "y"))
    b = parse(args.b or "0", ("x", "y"))
    return geo.KillingData(lam, a, b, rect, description="custom")


def count(text: str) -> int:
    """argparse type for grid sizes and sample counts: an integer from 1 to
    the most float64 elements numpy can size (np.linspace fails past it)."""
    value, most = int(text), np.iinfo(np.intp).max // 8
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > most:
        raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
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
    """r, grad r, G and lam over a batch, from its memoised base jets."""
    r, grad = geo.bundle_curvature(data, (x, y))
    return (r, grad, geo.gauss_curvature(data, (x, y)),
            data.base_jets(x, y)[0].value)


# an info record: its keys in output order and the shapes of their values
_INFO_LAYOUT = (("x", ()), ("y", ()), ("r", ()), ("G", ()),
                ("grad_r", (2,)), ("ricci", (3, 3)))


def cmd_info(args) -> int:
    data = _metric_from_args(args)
    if args.at is not None:
        if args.grid:
            raise KsubError("give either --at or --grid, not both")
        points = [tuple(args.at)]
    else:
        nx, ny = args.grid if args.grid else (5, 5)
        points = data.domain.grid(int(nx), int(ny))
    xs, ys = map(np.array, zip(*points))
    r, grad, g_curv, lam = batched(
        functools.partial(_info_fields, data), xs, ys)
    ricci = geo.ricci_from_scalars(r, grad, g_curv, lam)
    # one row per point: x, y, r, G, grad_r, then ricci row by row
    block = np.column_stack([xs, ys, r, g_curv, grad.T,
                             ricci.reshape(9, -1).T])
    rows = []
    if args.format == "csv":
        rows = [{"s_or_u": x, "v": y, "check": "info", "residual": r_i,
                 "tol": g_i, "status": "pass"}
                for x, y, r_i, g_i in block[:, :4].tolist()]
    payload = {"schema_version": SCHEMA_VERSION, "command": "info",
               "metric": data.description,
               "points": _Table(_INFO_LAYOUT, block)}
    _emit(args, payload, rows)
    return 0


# ---------------------------------------------------------------------------
# check-surface
# ---------------------------------------------------------------------------

def _patch_from_args(args, data) -> srf.SurfacePatch:
    if args.surface and args.graph:
        raise KsubError("give either --surface or --graph, not both")
    if args.graph:
        rect = (geo.Rect(*args.patch_domain) if args.patch_domain
                else geo.Rect(-0.45, 0.45, -0.45, 0.45))
        return srf.SurfacePatch.graph(data, args.graph, rect)
    if not args.surface:
        raise KsubError("a surface is required: --surface \"X;Y;Z\" or "
                        "--graph \"z(x,y)\"")
    parts = args.surface.split(";")
    if len(parts) != 3:
        raise KsubError("--surface needs three ;-separated expressions")
    rect = (geo.Rect(*args.patch_domain) if args.patch_domain
            else geo.Rect(0.0, 1.0, 0.0, 1.0))
    pvars = ("u", "v")
    return srf.SurfacePatch(parse(parts[0], pvars), parse(parts[1], pvars),
                            parse(parts[2], pvars), rect, data)


def _check(name, residual, tol, status) -> dict:
    return {"check": name, "residual": float(residual), "tol": tol,
            "status": status or ("pass" if abs(residual) <= tol else "fail")}


# The structure equations, which hold on any genuine surface, as residuals
# over a lattice; the biharmonicity rows are verdicts, not integrity checks
_INTEGRITY = {
    "gauss": lambda sub: srf._gauss(sub).tolist(),
    "codazzi": lambda sub: np.max(np.abs(srf._codazzi(sub)), axis=1).tolist(),
    "compatibility": lambda sub: np.max(srf._compatibility(sub),
                                        axis=1).tolist(),
}


def _surface_checks(lat, tol) -> list[list[dict]]:
    """The check rows of each point of a lattice: each residual is computed
    for all the points it applies to at once, and skipped at the others."""
    # adapted-frame checks are undefined where the vertical field is normal
    # to the surface, and stencil-bound ones where the point sits too close
    # to the patch edge
    framed = lat.centre("framed") & lat.reaches("stencil")
    integrity = {name: lat.over(framed, residual)
                 for name, residual in _INTEGRITY.items()}
    # the biharmonicity rows need the CMC probe's margin (None reads False)
    # and a CMC point (a nan spread passes)
    cmc = np.array(lat.over(lat.reaches("probes"), lambda sub: (
        bih._cmc_mask(bih._cmc(sub)[1]).tolist())), dtype=bool)
    verdicts = lat.over(cmc, lambda sub: zip(
        bih._bitension(sub),
        np.max(np.abs(bih._frame_system(sub)), axis=0).tolist(),
        bih._classify(sub)))
    rows = []
    for n, verdict in enumerate(verdicts):
        checks = [_check(name, 0.0, tol, "skipped") if values[n] is None
                  else _check(name, values[n], tol, None)
                  for name, values in integrity.items()]
        if verdict is None:
            checks += [_check(name, 0.0, tol, "skipped") for name in (
                "bitension-normal", "bitension-tangential", "frame-system",
                "branch")]
            checks.append(_check("proper-biharmonic", 0.0, tol, "no"))
        else:
            bt, lines, branch = verdict
            proper = branch.satisfied and bt.is_proper(tol)
            checks += [_check("bitension-normal", bt.normal, tol, None),
                       _check("bitension-tangential", bt.tangential_norm, tol,
                              None),
                       _check("frame-system", lines, tol, None),
                       _check("branch", 0.0, tol, branch.branch),
                       _check("proper-biharmonic", 0.0, tol,
                              "yes" if proper else "no")]
        rows.append(checks)
    return rows


def cmd_check_surface(args) -> int:
    data = _metric_from_args(args)
    patch = _patch_from_args(args, data)
    nx, ny = args.grid if args.grid else (3, 3)
    points = patch.domain.grid(int(nx), int(ny), inset=0.25)
    tol = args.tol
    # every point's residuals from the columns of one lattice
    checked = _surface_checks(srf._Lattice(patch, points), tol)
    records, rows = [], []
    for q, checks in zip(points, checked):
        rows += [{"s_or_u": q[0], "v": q[1], **chk} for chk in checks]
        records.append({"u": q[0], "v": q[1], "checks": checks})
    failed = any(chk["status"] == "fail" and chk["check"] in _INTEGRITY
                 for checks in checked for chk in checks)
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
        if args.curve:
            raise KsubError("give either --circle/--circle-kg or --curve, "
                            "not both")
        if args.interval:
            raise KsubError("give either --circle/--circle-kg or --interval, "
                            "not both")
        if args.bcv is None:
            raise KsubError("--circle/--circle-kg need a --bcv metric")
        c = args.bcv[0]
        curve = hopf.bcv_circle(c, radius=args.circle, kappa=args.circle_kg)
    elif args.curve:
        parts = args.curve.split(";")
        if len(parts) != 2:
            raise KsubError("--curve needs two ;-separated expressions in s")
        if not args.interval:
            raise KsubError("--curve needs --interval A B")
        curve = hopf.BaseCurve(parse(parts[0], ("s",)), parse(parts[1], ("s",)),
                               tuple(args.interval))
        curve = hopf.arclength_reparam(curve, base)
    else:
        raise KsubError("a curve is required: --circle R, --circle-kg K or "
                        "--curve \"x;y\" --interval A B")
    report = hopf.hopf_residuals(curve, base, n_samples=int(args.samples),
                                 tol=args.tol)
    worst_rows = np.max(np.abs(report.residuals), axis=1)
    payload = {
        "schema_version": SCHEMA_VERSION, "command": "hopf-check",
        "metric": data.description,
        "verdict": _verdict_dict(report.verdict),
        "max_residual": float(np.max(worst_rows)),
        "crosscheck": report.crosscheck,
    }
    status = "pass" if report.verdict.passed else "fail"
    rows = [{"s_or_u": s, "v": 0.0, "check": "hopf-residual",
             "residual": res, "tol": args.tol, "status": status}
            for s, res in zip(report.s.tolist(), worst_rows.tolist())]
    _emit(args, payload, rows)
    return _expect_exit(args.expect, report.verdict.passed)


def cmd_hopf_example(args) -> int:
    if args.f is None or args.r is None or not args.interval:
        raise KsubError("example mode needs --f EXPR --r R --interval A B")
    cases = hopf.rotational_case_search(args.f, args.r, tuple(args.interval),
                                        tol=args.tol)
    records = []
    all_pass = True
    rows = []
    for case in cases:
        verdict = case.report.verdict
        all_pass = all_pass and verdict.passed
        worst = float(np.max(np.abs(case.report.residuals)))
        records.append({
            "t0": case.t0,
            "kappa_g": case.kappa_g,
            "kappa_g_sq": case.kappa_g ** 2,
            "G": case.gauss,
            "H_sq_target": case.gauss - 4.0 * args.r ** 2,
            "max_residual": worst,
            "verdict": _verdict_dict(verdict),
        })
        rows.append({"s_or_u": case.t0, "v": 0.0, "check": "example-root",
                     "residual": worst, "tol": args.tol,
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

# a negative number, its exponent included: "-3e-05", "-.5e3"
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, reading every negative number as a value:
    argparse's own pattern knows no exponent, so it took "-3e-05" after
    --at or --domain for an option. Subparsers are made of the same class,
    and no flag of ksub looks like a negative number."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_NUMBER.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ksub",
        description="Numerical engine for canonical Killing submersions")
    output = _Parser(add_help=False)
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
    p_surf.add_argument("--tol", type=tolerance, default=bih.RESIDUAL_TOL)
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
    p_check.add_argument("--samples", type=count, default=hopf.SAMPLES)
    p_check.add_argument("--tol", type=tolerance, default=hopf.CRITERION_TOL)
    p_check.add_argument("--expect", choices=("pass", "fail"))
    p_check.set_defaults(func=cmd_hopf_check)

    p_ex = hopf_sub.add_parser("example", parents=[output],
                               help="rotationally symmetric construction")
    p_ex.add_argument("--f", metavar="EXPR", help="warp profile f(t) > 0")
    p_ex.add_argument("--r", type=finite, help="constant bundle curvature")
    p_ex.add_argument("--interval", nargs=2, type=finite, metavar=("A", "B"))
    p_ex.add_argument("--tol", type=tolerance, default=hopf.CRITERION_TOL)
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
    except KsubError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:  # overflow, division by zero, FP traps
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except RecursionError as err:  # parsing and jets recurse on the tree
        print(f"error: expression nested too deeply: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # numpy refuses an array past the memory
        print(f"error: MemoryError: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
