"""Judge one CLI operation from its exit code, report and output files.

``check`` returns ``(ok, wrong_on_success, detail)``.  ``ok`` is False for an
unexpected exit code, a raised exception or a wrong answer; every such
operation counts as failed.  ``wrong_on_success`` marks the worse case of an
operation that exited 0 while its output is wrong: the program claimed a
result the oracle refutes.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Dict, Optional, Tuple

from workloads import parse_terms

Verdict = Tuple[bool, bool, str]


def report_path(out_dir: str, cmd: str) -> str:
    """Where the CLI writes the report of a plan's ``cmd`` (e.g. ``nodal_count``)."""
    return os.path.join(out_dir, f"{cmd}_report.json")


def _load_report(path: str) -> Optional[Dict]:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _same_file_contents(output: str, expect: str) -> Tuple[bool, str]:
    """Exact comparison of two ``.poly``/``.series`` files as rationals."""
    if not os.path.exists(output):
        return False, f"missing output {output}"
    with open(output) as fh:
        got_head, got = parse_terms(fh.read())
    with open(expect) as fh:
        want_head, want = parse_terms(fh.read())
    if int(got_head.get("dim", -1)) != int(want_head["dim"]):
        return False, "dimension differs"
    if "maxdeg" in want_head:
        if int(got_head.get("maxdeg", -1)) != int(want_head["maxdeg"]):
            return False, "truncation degree differs"
        got_c = [Fraction(t) for t in got_head.get("center", "").split()]
        want_c = [Fraction(t) for t in want_head["center"].split()]
        if got_c != want_c:
            return False, "center differs"
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        return False, f"{len(diff)} coefficient(s) differ, first at {diff[0][0]}"
    return True, ""


KINDS = ("exit0", "count", "quotient", "harnack", "critical", "plot")


def check(op: Dict, rc: Optional[int], out_dir: str) -> Verdict:
    """Verdict for ``op`` (a plan entry) given its exit code.

    ``rc`` is None when ``cli.main`` raised instead of returning.
    """
    spec = op["check"]
    if spec["kind"] not in KINDS:
        raise ValueError(f"unknown check kind {spec['kind']!r}")
    if rc is None:
        return False, False, "raised an exception"
    try:
        return _judge(spec, rc, _load_report(report_path(out_dir, op["cmd"])))
    except (ValueError, ArithmeticError, LookupError, TypeError) as exc:
        # a report or output file the oracle cannot read is a wrong output
        return False, rc == 0, f"unreadable output: {type(exc).__name__}: {exc}"


def _judge(spec: Dict, rc: int, report: Optional[Dict]) -> Verdict:
    kind = spec["kind"]
    if kind == "count" and report is not None and report.get("count") != spec["expect"]:
        # a miscount exits 1 under --expect: the program flagged it
        return False, rc == 0, f"count {report.get('count')} != {spec['expect']}"
    if rc != 0:
        return False, False, f"exit code {rc}"
    if report is None:
        return False, True, "no report written"
    if kind in ("exit0", "count"):
        return True, False, ""
    if kind == "quotient":
        if report.get("residual_verified") is not True:
            return False, True, "residual not verified"
        same, why = _same_file_contents(spec["output"], spec["expect"])
        return same, not same, why
    if kind == "harnack":
        c_star = report["extremes"]["C_star"]
        y0, y1 = spec["y0"], spec["y1"]
        want = (1 + math.exp(-2 * y0)) / (1 + math.exp(-2 * y1))
        ok = abs(c_star - want) <= 1e-3 * want
        return ok, not ok, "" if ok else f"C* {c_star} != {want}"
    if kind == "critical":
        pts = report.get("critical_points", [])
        ok = len(pts) == 1 and math.sqrt(sum(x * x for x in pts[0])) < 1e-8
        return ok, not ok, "" if ok else f"critical points {pts}"
    ok = report.get("points", 0) > 0 and report.get("segments", 0) > 0
    return ok, not ok, "" if ok else "empty zero set"
