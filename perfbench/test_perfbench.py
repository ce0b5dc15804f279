"""Self-tests of the benchmark: oracle, seeding, tracing, refusal.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import oracle
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# flags whose values the seed draws; every other token must not depend on it
SEEDED_FLAGS = {"--ball", "--box", "--seed", "--a", "--c", "--r"}


def _write_report(out_dir: str, cmd: str, payload: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(oracle.report_path(out_dir, cmd), "w") as fh:
        json.dump(payload, fh)


def _skeleton(op: dict) -> tuple:
    tokens = []
    skip = False
    for tok in op["argv"]:
        if skip:
            skip = False
            continue
        if tok in SEEDED_FLAGS:
            tokens.append(tok)
            skip = True
        elif os.path.isabs(tok):
            tokens.append(os.path.basename(tok))
        elif tok.startswith(("rezk:", "imzk:")):
            tokens.append("zk:" + tok.split(":")[1])
        else:
            tokens.append(tok)
    check = {k: v for k, v in op["check"].items() if k in ("kind", "expect") and not
             (isinstance(v, str) and os.path.isabs(v))}
    return op["cmd"], tuple(tokens), tuple(sorted(check.items()))


def _plan(tmp_path, workload: str, seed: int, tag: str):
    workdir = str(tmp_path / f"{tag}")
    with open(workloads.generate(workload, seed, workdir)) as fh:
        plan = json.load(fh)
    files = {}
    for name in sorted(os.listdir(os.path.join(workdir, "in"))):
        with open(os.path.join(workdir, "in", name)) as fh:
            files[name] = fh.read()
    return plan["ops"], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_and_nothing_else(tmp_path, workload):
    ops_a, files_a = _plan(tmp_path, workload, 1, "a")
    ops_again, files_again = _plan(tmp_path, workload, 1, "again")
    ops_b, files_b = _plan(tmp_path, workload, 2, "b")
    assert [_skeleton(o) for o in ops_a] == [_skeleton(o) for o in ops_again]
    assert files_a == files_again
    assert [_skeleton(o) for o in ops_a] == [_skeleton(o) for o in ops_b]
    assert sorted(files_a) == sorted(files_b)
    changed = [a != b for a, b in zip(ops_a, ops_b)]
    changed += [files_a[n] != files_b[n] for n in files_a]
    assert any(changed)


def test_generated_quotients_divide_exactly():
    rng = workloads.random.Random(5)
    for dim in (2, 3):
        for k in (1, 2, 3):
            q = workloads.random_harmonic(rng, dim, k)
            assert q and not workloads.laplacian(q)
            assert {sum(a) for a in q} == {k}
    rot = workloads.rotated_paper_h(rng)
    assert len(rot) == 16 and not workloads.laplacian(rot)
    tanh = workloads.one_plus_tanh(5)
    assert tanh == {(0, 0): 1, (0, 1): 1, (0, 3): Fraction(-1, 3), (0, 5): Fraction(2, 15)}


def _series_op(tmp_path):
    """The first series op of a plan, and the directory its outputs go to."""
    ops, _ = _plan(tmp_path, "exact-ratio", 3, "plan")
    op = next(o for o in ops if o["cmd"] == "series")
    out_dir = os.path.dirname(op["check"]["output"])
    os.makedirs(out_dir, exist_ok=True)
    return op, out_dir


def test_oracle_accepts_exact_quotient_and_flags_perturbed_one(tmp_path):
    op, out_dir = _series_op(tmp_path)
    _write_report(out_dir, "series", {"residual_verified": True})
    shutil.copy(op["check"]["expect"], op["check"]["output"])
    assert oracle.check(op, 0, out_dir) == (True, False, "")

    with open(op["check"]["output"]) as fh:
        head, terms = workloads.parse_terms(fh.read())
    alpha = next(iter(terms))
    terms[alpha] += Fraction(1, 10**9)
    dim, maxdeg = int(head["dim"]), int(head["maxdeg"])
    with open(op["check"]["output"], "w") as fh:
        fh.write(workloads.format_series(terms, dim, maxdeg))
    ok, wrong_on_success, detail = oracle.check(op, 0, out_dir)
    assert not ok and wrong_on_success and "differ" in detail


def test_oracle_flags_unverified_residual_and_exit_codes(tmp_path):
    op, out_dir = _series_op(tmp_path)
    shutil.copy(op["check"]["expect"], op["check"]["output"])
    _write_report(out_dir, "series", {"residual_verified": False})
    assert oracle.check(op, 0, out_dir)[:2] == (False, True)
    _write_report(out_dir, "series", {"residual_verified": True})
    assert oracle.check(op, 1, out_dir)[:2] == (False, False)
    assert oracle.check(op, None, out_dir)[:2] == (False, False)
    with open(op["check"]["output"], "w") as fh:
        fh.write("dim 2\n1/0 : 1 1\n")
    assert oracle.check(op, 0, out_dir)[:2] == (False, True)
    os.remove(oracle.report_path(out_dir, "series"))
    assert oracle.check(op, 0, out_dir)[:2] == (False, True)


def test_oracle_flags_wrong_count(tmp_path):
    op = {"cmd": "nodal_count", "argv": [], "check": {"kind": "count", "expect": 2}}
    out_dir = str(tmp_path)
    _write_report(out_dir, "nodal_count", {"count": 2, "passed": True})
    assert oracle.check(op, 0, out_dir) == (True, False, "")
    _write_report(out_dir, "nodal_count", {"count": 3, "passed": False})
    assert oracle.check(op, 1, out_dir)[:2] == (False, False)
    assert oracle.check(op, 0, out_dir)[:2] == (False, True)


def test_oracle_checks_harnack_closed_form(tmp_path):
    op = {"cmd": "verify_harnack", "argv": [],
          "check": {"kind": "harnack", "y0": -1.0, "y1": 1.0}}
    out_dir = str(tmp_path)
    e2 = 7.38905609893065
    _write_report(out_dir, "verify_harnack", {"extremes": {"C_star": e2}})
    assert oracle.check(op, 0, out_dir)[0]
    _write_report(out_dir, "verify_harnack", {"extremes": {"C_star": e2 * 1.01}})
    assert oracle.check(op, 0, out_dir)[:2] == (False, True)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def test_reference_time_scales_by_measured_speed_and_drops_samples():
    meter = speed.Speedometer()
    slow = 2 * speed.REF_NOMINAL_S  # every sample ran the loop at half speed
    meter.marks = [(0.0, slow), (1.0, slow), (2.0, slow)]
    meter._build()
    assert meter.ref_seconds(0.5, 0.9) == pytest.approx(0.2)
    # the samples' own time is not the program's
    assert meter.ref_seconds(0.0, 2.0 + slow) == pytest.approx((2.0 - 2 * slow) / 2)
    # past the last sample, the last speed holds
    assert meter.ref_seconds(3.0, 5.0) == pytest.approx(1.0)


def test_traced_pass_rebinds_imported_names(tmp_path):
    p = {(1, 1): Fraction(1), (2, 1): Fraction(3)}
    q = {(1, 0): Fraction(1)}
    plan = workloads.Plan(str(tmp_path))
    p_path = plan.write("p.poly", workloads.format_poly(workloads.mul(p, q), 2))
    q_path = plan.write("q.poly", workloads.format_poly(q, 2))
    r_path = plan.write("r.poly", workloads.format_poly(p, 2))
    out = plan.out("quotient.poly")
    plan.op("divide", ["divide", "--dividend", p_path, "--divisor", q_path,
                       "--quotient-out", out],
            {"kind": "quotient", "output": out, "expect": r_path})
    plan.op("nodal_count", ["nodal", "count", "--fn", "rezk:2", "--ball", "0,0:1",
                            "--res", "32", "--expect", "4"],
            {"kind": "count", "expect": 4})
    plan_path = str(tmp_path / "plan.json")
    with open(plan_path, "w") as fh:
        json.dump({"ops": plan.ops}, fh)
    result_path = str(tmp_path / "result.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "passrun.py"), plan_path, result_path,
         "--trace", "1"],
        check=True, env=_env(), timeout=120,
    )
    with open(result_path) as fh:
        result = json.load(fh)
    assert [op["ok"] for op in result["ops"]] == [True, True]
    spans, counters = result["trace"]["spans"], result["trace"]["counters"]
    # cli calls divide_by_harmonic through its own imported name
    assert spans["division.divide_by_harmonic"]["calls"] == 1
    assert spans["cli.main"]["calls"] == 2
    assert spans["nodal.label"]["calls"] == 2
    assert counters["io_formats.parse_polynomial.bytes"] > 0
    assert counters["polynomial.evaluate_array.points"] >= 32 * 32
    for stats in spans.values():
        assert 0.0 <= stats["self_s"] <= stats["total_s"] + 1e-9
    main = spans["cli.main"]
    assert main["self_s"] < main["total_s"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-ratio", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
