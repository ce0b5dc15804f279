"""Benchmark of the harmonic-ratios CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-ratio --seed 1 --seconds 30 --trace 0

The run generates the workload's inputs from ``--seed`` (see
``workloads.py``), times several fresh imports of ``harmonic_ratios.cli``
(``setup_s``), then runs passes of the workload, each in a fresh process
(``passrun.py``): at least two, and more while the next one is expected to
end within ``--seconds``.  Every operation's output is checked by
``oracle.py``.

Times are reference times (``speed.py``): CPU time converted to a fixed
reference speed measured alongside the program, because on a shared host
the speed of a CPU changes by up to about twice from one second to the next.
``run_ref_s`` is the sum over the pass's operations of each operation's
median reference time across the passes, so a burst of interference in one
pass does not move it.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: span statistics from the traced passes, the wall and CPU
time of a pass and the per-subcommand reference times from the untraced
ones, and the tracing overhead.
The last line of standard output is the JSON result; the lines before it
print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import metric_value  # noqa: E402

SETUP_REPEATS = 7
PASS_TIMEOUT_S = 150
SUBCOMMANDS = (
    "series", "divide", "certify",
    "nodal_count", "nodal_critical", "nodal_plot",
    "verify_harnack", "verify_max", "verify_elliptic",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> Dict[str, str]:
    """Import the program from this checkout's sources; cap native threads."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: List[str], env: Dict[str, str]) -> str:
    """Run a Python child to completion; return its standard output."""
    try:
        proc = subprocess.run(
            [sys.executable] + argv, cwd=ROOT, env=env, timeout=PASS_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[:2]} ran past {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(env: Dict[str, str]) -> float:
    """Median reference time of a fresh ``import harmonic_ratios.cli``,
    after one untimed import that fills the bytecode cache."""
    argv = [os.path.join(HERE, "setup_probe.py")]
    run_child(argv, env)
    return statistics.median(float(run_child(argv, env)) for _ in range(SETUP_REPEATS))


def run_pass(plan: str, workdir: str, index: int, trace: bool, env) -> dict:
    result_path = os.path.join(workdir, f"pass{index}.json")
    run_child(
        [os.path.join(HERE, "passrun.py"), plan, result_path, "--trace", str(int(trace))],
        env,
    )
    with open(result_path) as fh:
        return json.load(fh)


def median_of(results: List[dict], key) -> float:
    return statistics.median(key(r) for r in results)


def op_median_sum(results: List[dict], field: str, cmd: str = "") -> float:
    """Sum over the plan's operations (those of subcommand ``cmd``, if
    given) of each one's median ``field`` across passes."""
    return sum(
        statistics.median(op[field] for op in column)
        for column in zip(*(r["ops"] for r in results))
        if not cmd or column[0]["cmd"] == cmd
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="harmonic-ratios CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "harmonic_ratios", "cli.py")):
        print(f"error: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    workdir = os.path.join(
        ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}"
    )
    try:
        plan = workloads.generate(args.workload, args.seed, workdir)
        env = child_env()
        setup_s = measure_setup(env)
        plain: List[dict] = []
        traced: List[dict] = []
        start = time.perf_counter()
        step = 0.0
        while len(plain) < 2 or time.perf_counter() - start + step <= args.seconds:
            t0 = time.perf_counter()
            plain.append(run_pass(plan, workdir, len(plain) + len(traced), False, env))
            if args.trace:
                traced.append(run_pass(plan, workdir, len(plain) + len(traced), True, env))
            step = time.perf_counter() - t0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for r in plain + traced for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    correct = not any(op["wrong_on_success"] for op in ops)
    for op in ops:
        if not op["ok"]:
            print(f"failed op: {op['cmd']} rc={op['rc']} {op['detail']}")

    run_ref_s = op_median_sum(plain, "ref_s")
    e2e = {
        "setup_s": setup_s,
        "run_ref_s": run_ref_s,
        "peak_rss_mb": median_of(plain, lambda r: r["peak_rss_mb"]),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sub = {
        "run_wall_s": median_of(plain, lambda r: r["run_s"]),
        "run_cpu_s": op_median_sum(plain, "cpu_s"),
    }
    sub.update((f"{name}_s", op_median_sum(plain, "ref_s", name)) for name in SUBCOMMANDS)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced pass(es), "
          f"{len(traced)} traced, {len(ops)} ops, failed_ratio {failed / len(ops):.4g}")
    print("pass run_ref_s: " + ", ".join(f"{r['run_ref_s']:.4f}" for r in plain))
    print("pass run_cpu_s: " + ", ".join(f"{r['run_cpu_s']:.4f}" for r in plain))
    for name, value in list(e2e.items()) + list(sub.items()):
        print(f"{name} = {value:.6g} {units[name]}")

    if args.trace:
        summaries = [r["trace"] for r in traced]
        overhead = op_median_sum(traced, "ref_s") - run_ref_s
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name in sub:
                value = sub[name]
            elif name == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median(metric_value(s, name) for s in summaries)
            metrics[name] = {"value": value, "unit": m["unit"]}
            if name not in sub:
                print(f"{name} = {value:.6g} {m['unit']}")
        trace_path = os.path.join(
            ROOT, ".perfbench_work", f"trace-{args.workload}-s{args.seed}.json"
        )
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": summaries},
                      fh, indent=1)
        print(f"spans -> {trace_path}")
    else:
        metrics = {
            m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
