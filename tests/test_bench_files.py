"""Every ``BENCH_*.json`` at the repository root parses and records the
end-to-end metrics of every workload that ``BENCHMARK.json`` declares, for
the parent commit and for the change."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_names_every_workload(path):
    with open(path) as fh:
        data = json.load(fh)
    assert set(WORKLOADS) <= set(data["workloads"])
    for workload in WORKLOADS:
        for side in ("parent", "change"):
            for metric in METRICS:
                median = data["workloads"][workload][side][metric]["median"]
                assert isinstance(median, (int, float)), (workload, side, metric)
