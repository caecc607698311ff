"""One workload process: import ksub, generate the ops, run them in a closed loop.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and one BLAS/OpenMP
thread. It prints ``ready`` once ``ksub.cli`` is imported and the ops are
generated (the end of set-up), then, unless ``--setup-only``, one JSON line
with the raw per-op results.

A single client sends each op to ``ksub.cli.main`` only after the previous
one returned. Only that call is timed; the oracle check of its output runs
between ops, untimed. With ``--trace 1`` every op runs twice, untraced and
traced in alternating order, so the tracing overhead is measured on the same
ops, and the traced output must be byte-identical to the untraced one.

A ``speed.SpeedSampler`` runs from the first line to the last, and takes one
more sample at the end of set-up, so set-up and every op also get their time
at the reference CPU speed (``scale``); time spent sampling is taken out of
both. The run is cut at ``TIMED_PHASE_CAP_S``; ``run.py`` reports a cut run
as not correct, since its op mix differs from the planned one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from speed import SpeedSampler

import workloads

# Stop issuing ops once the timed phase has run this long, so a run of a
# much slower program still ends within the benchmark's time limit.
TIMED_PHASE_CAP_S = 120.0


def _execute(cli, argv, sampler) -> tuple[dict, int, str, str]:
    """Run one op; return its timing, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        busy = sampler.busy_s
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # an escaped exception is a failed op
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
        end = time.perf_counter()
    timing = {"start": start, "end": end,
              "seconds": end - start - (sampler.busy_s - busy)}
    return timing, code, out.getvalue(), err.getvalue()


def _outcome(op, code: int, out: str, err: str) -> str | None:
    if code == -1:
        return "exception: " + err
    try:
        return op.check(code, out)
    except Exception as exc:  # unreadable output, or the oracle itself failed
        return f"check raised {type(exc).__name__}: {exc}"


def _run(cli, ops, tracer, sampler) -> list[dict]:
    records, timings = [], []
    phase_start = time.perf_counter()
    for index, op in enumerate(ops):
        if time.perf_counter() - phase_start > TIMED_PHASE_CAP_S:
            break
        traced = None
        if tracer is not None and index % 2 == 1:
            traced = _traced(cli, op, tracer, index, sampler)
        timing, code, out, err = _execute(cli, op.argv, sampler)
        if tracer is not None and index % 2 == 0:
            traced = _traced(cli, op, tracer, index, sampler)
        record = {"kind": op.kind, "seconds": timing["seconds"],
                  "points": op.points, "exit": code,
                  "error": _outcome(op, code, out, err),
                  "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
        if traced is not None:
            t_timing, t_code, t_out, t_err = traced
            record["traced_seconds"] = t_timing["seconds"]
            t_error = _outcome(op, t_code, t_out, t_err)
            if t_error is None and (t_code, t_out) != (code, out):
                t_error = "traced output differs from untraced output"
            record["traced_error"] = t_error
        records.append(record)
        timings.append(timing)
    # the samples just after the last op are in only now
    for record, timing in zip(records, timings):
        record["scale"] = sampler.scale(timing["start"], timing["end"])
    return records


def _traced(cli, op, tracer, index, sampler):
    tracer.install(index)
    try:
        return _execute(cli, op.argv, sampler)
    finally:
        tracer.remove()


def _layer_metrics(tracer, records) -> dict:
    """Per-layer calls and self time, the ratios, and verify check times."""
    metrics = {}
    verify_ops = sum(1 for r in records if r["kind"] == "verify-paper")
    for i, name in enumerate(tracer.names):
        if name.startswith("verify."):
            # mean wall time of the check per verify-paper op
            metrics[name + ".s"] = (tracer.total_s[i] / verify_ops
                                    if verify_ops else 0.0, "s")
            continue
        if name == "geometry.KillingData.base_jets":
            name = "geometry.base_jets"
        metrics[name + ".calls"] = (tracer.calls[i], "count")
        metrics[name + ".self_s"] = (tracer.self_s[i], "s")

    def calls(name):
        return tracer.calls[tracer.names.index(name)]

    def ratio(num, den):
        return num / den if den else 0.0

    surface_points = sum(r["points"] for r in records
                         if r["kind"] in ("graph", "cylinder"))
    metrics["geometry.base_jets.miss_ratio"] = (ratio(
        tracer.calls_from("expr.eval_jet", "ksub.geometry"),
        3 * calls("geometry.KillingData.base_jets")), "ratio")
    metrics["surface.data_per_point"] = (ratio(
        calls("surface.SurfaceEvaluator.data"), surface_points), "ratio")
    metrics["surface.grad_r_per_point"] = (ratio(
        calls("geometry.bundle_curvature"), surface_points), "ratio")
    metrics["trace.overhead_ratio"] = (ratio(
        sum(r["traced_seconds"] for r in records),
        sum(r["seconds"] for r in records)), "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", metavar="PATH",
                        help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    sampler = SpeedSampler()
    sampler.start()
    try:
        return _work(args, sampler)
    finally:
        sampler.stop()


def _work(args, sampler) -> int:
    import ksub.cli as cli
    ops = workloads.generate(args.workload, args.seed, args.seconds)
    sampler.sample()   # a set-up shorter than the timer interval has one too
    ready = time.perf_counter()
    # set-up as seen by run.py: sampling time to take out, and the speed
    setup = {"busy_s": sampler.busy_s, "scale": sampler.scale(0.0, ready)}
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"setup": setup}), flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        # spans leave out the time the sampler takes, as op times do
        tracer = Tracer(clock=lambda: time.perf_counter() - sampler.busy_s)
    records = _run(cli, ops, tracer, sampler)
    result = {
        "setup": setup,
        "ops": records,
        "planned_ops": len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": _versions(),
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, records)
        if args.spans:
            result["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads_env": {k: v for k, v in os.environ.items()
                            if k.endswith("_NUM_THREADS")}}


if __name__ == "__main__":
    sys.exit(main())
