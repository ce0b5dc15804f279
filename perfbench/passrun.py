"""One pass of a workload plan, in this fresh process.

Usage: python3 perfbench/passrun.py PLAN RESULT --trace 0|1

Runs every operation of ``PLAN`` through ``harmonic_ratios.cli.main``
in-process, one after another, times each call (wall time, CPU time of this
thread, and that CPU time at the reference speed of ``speed.py``), judges it
with the oracle (outside the timed region) and writes per-operation records,
the peak RSS and, when traced, the span summary to ``RESULT`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import time

import oracle
from speed import Speedometer


def run_pass(plan_path: str, trace: bool) -> dict:
    with open(plan_path) as fh:
        plan = json.load(fh)
    out_dir = os.path.join(os.path.dirname(plan_path), "out")
    os.makedirs(out_dir, exist_ok=True)

    import harmonic_ratios
    import harmonic_ratios.cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(harmonic_ratios)
    cli = harmonic_ratios.cli

    records = []
    clocks = []
    speedometer = Speedometer()
    speedometer.start()
    for op in plan["ops"]:
        stale = oracle.report_path(out_dir, op["cmd"])
        if os.path.exists(stale):
            os.remove(stale)
        sink = io.StringIO()
        rc = None
        error = ""
        t0 = time.perf_counter()
        c0 = time.thread_time()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = cli.main(["--out", out_dir] + op["argv"])
            except Exception as exc:  # an escaped exception is a failed op
                error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        c1 = time.thread_time()
        clocks.append((c0, c1))
        ok, wrong_on_success, detail = oracle.check(op, rc, out_dir)
        records.append({
            "cmd": op["cmd"],
            "seconds": seconds,
            "cpu_s": c1 - c0,
            "rc": rc,
            "ok": ok,
            "wrong_on_success": wrong_on_success,
            "detail": error or detail,
        })
    speedometer.stop()
    for record, (c0, c1) in zip(records, clocks):
        record["ref_s"] = speedometer.ref_seconds(c0, c1)
    result = {
        "ops": records,
        "run_s": sum(r["seconds"] for r in records),
        "run_cpu_s": sum(r["cpu_s"] for r in records),
        "run_ref_s": sum(r["ref_s"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_pass(args.plan, bool(args.trace))
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
