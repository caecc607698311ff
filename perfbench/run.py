"""Benchmark of the ksub engine through its CLI entry point.

Run from the root of a ksub checkout:

    python3 perfbench/run.py --workload metric-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run sets up the workload process several times and reports the median
set-up time, then drives the workload's seeded op sequence through
``ksub.cli.main`` in that process (see ``worker.py``) and checks every
output. It prints a report, writes a run record under ``perfbench/out/`` and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5          # interpreter launches per run; set-up is their median
# Set-up (imports: file reads, unmarshalling, allocation) gains less from a
# fast CPU state than the speed probe's loop does, so its time is scaled by
# the probe's relative speed to this power. Fitted on 200 launches on a
# 2-vCPU sandbox; it halved the run-to-run spread of setup_s there, also on
# runs it was not fitted on (see README.md).
SETUP_SPEED_EXPONENT = 0.75
PROCESS_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def _worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def _launch(args, env, setup_only: bool, spans: Path | None):
    """Start a worker; return (process, seconds until it reported ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    # unbuffered, so readline takes no bytes beyond "ready" from the pipe
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, bufsize=0)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != b"ready":
        _stop(proc)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _result(proc) -> dict:
    """Wait for a worker; return the JSON line it printed after ``ready``."""
    try:
        out, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError(f"worker ran longer than {PROCESS_TIMEOUT_S} s")
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode} "
                         f"after {len(lines)} lines")
    return json.loads(lines[-1])


def _tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = min(99, math.floor(100 * (n - 10) / n))
    rank = math.ceil(pct / 100 * n)        # nearest-rank percentile
    return pct, sorted(values)[rank - 1]


def _end_to_end(ops, setup, setup_wall, peak_rss_mb, workload):
    """Gated metrics at the reference CPU speed, and the reported extras."""
    wall = [op["seconds"] for op in ops]
    seconds = [op["seconds"] * op["scale"] for op in ops]
    busy = sum(seconds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(ops) / busy, "1/s"),
        "op_p50_s": (statistics.median(seconds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # reported but not gated: defined on some workloads only, zero, or raw
    extra = {"fail_ratio": (sum(1 for op in ops if op["error"]) / len(ops), "-")}
    if workload in ("metric-grid", "surface-scan"):
        extra["points_per_s"] = (sum(op["points"] for op in ops) / busy, "1/s")
    tail = _tail(seconds)
    if tail is not None:
        extra[f"op_p{tail[0]}_s"] = (tail[1], "s")
    extra["wall.setup_s"] = (statistics.median(setup_wall), "s")
    extra["wall.ops_per_s"] = (len(ops) / sum(wall), "1/s")
    extra["wall.op_p50_s"] = (statistics.median(wall), "s")
    return metrics, extra


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "ksub").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(args) -> dict:
    src = Path.cwd() / "src"
    if not (src / "ksub" / "cli.py").is_file():
        raise BenchError("run from the root of a ksub checkout: "
                         "src/ksub/cli.py not found")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = out_dir / f"{stem}.spans" if args.trace else None
    env = _worker_env(src)
    load_before = os.getloadavg()

    setup_wall, setup = [], []
    for sample in range(SETUP_SAMPLES):
        last = sample == SETUP_SAMPLES - 1
        proc, ready = _launch(args, env, setup_only=not last,
                              spans=spans if last else None)
        result = _result(proc)
        ready -= result["setup"]["busy_s"]
        setup_wall.append(ready)
        setup.append(ready * result["setup"]["scale"] ** SETUP_SPEED_EXPONENT)
    ops = result["ops"]

    failed = sum(1 for op in ops if op["error"] or op.get("traced_error"))
    if args.trace:
        metrics, extra = result["layers"], {}
    else:
        gated, extra = _end_to_end(ops, setup, setup_wall,
                                   result["peak_rss_mb"], args.workload)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in gated.items()}
    digest = hashlib.sha256("".join(op["stdout_sha256"] for op in ops)
                            .encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": len(ops), "failed": failed,
        "planned_ops": result["planned_ops"], "stdout_sha256": digest,
        "metrics": metrics,
        "reported": {name: {"value": value, "unit": unit}
                     for name, (value, unit) in extra.items()},
        "setup_wall_s": setup_wall, "setup_s": setup,
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "load_before": load_before, "load_after": os.getloadavg(),
            **result["versions"],
        },
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(src),
        "spans_file": os.path.relpath(spans) if spans else None,
        "spans": result.get("spans"),
        "ops": ops,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _report(record) -> None:
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} ops={record['attempted']} "
          f"failed={record['failed']} stdout_sha256={record['stdout_sha256'][:16]}")
    if record["attempted"] < record["planned_ops"]:
        print(f"CUT SHORT: {record['attempted']} of {record['planned_ops']} "
              "planned ops ran; the op mix and the metrics are not comparable")
    for op in record["ops"]:
        for key in ("error", "traced_error"):
            if op.get(key):
                print(f"FAILED {op['kind']}: {op[key]}")
    shown = dict(record["metrics"], **record["reported"])
    for name, metric in shown.items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            record = run_workload(args)
        except BenchError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 2
        _report(record)
        # a cut run may end mid-cycle, so its figures compare with no other
        complete = record["attempted"] == record["planned_ops"]
        print(json.dumps({"correct": record["failed"] == 0 and complete,
                          "attempted": record["attempted"],
                          "failed": record["failed"],
                          "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
