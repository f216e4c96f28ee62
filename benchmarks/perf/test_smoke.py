"""Smoke test of the benchmark: every workload at toy size, end to end.

Runs ``run.py --toy`` once (one sample process plus one traced process
per workload, tiny grids, an 8-event trace) through the real command
line, then checks its result line.  ``pytest benchmarks/perf`` runs it;
tier-1 (``testpaths = ["tests"]``) does not.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from compare import compare

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--toy"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_declared_metric_is_emitted_and_finite(line):
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            value = line["metrics"][f"{workload['name']}.{metric['name']}"]
            assert value["unit"] == metric["unit"]
            assert math.isfinite(value["value"]), (workload["name"], metric["name"])


def test_no_candidate_fails_its_checks(line):
    assert line["attempted"] > 0
    assert line["failed"] == 0 and line["correct"]


def test_routing_shares(line):
    shares = {
        name: line["metrics"][f"{name}.route.multiplexed_share"]["value"]
        for name in ("trace-healthy", "trace-policy", "trace-faults", "trace-carbon")
    }
    assert shares == {
        "trace-healthy": 1.0,
        "trace-policy": 0.5,
        "trace-faults": 0.0,
        "trace-carbon": 0.0,
    }


def test_compare_labels():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare(parent, [v * 1.2 for v in parent], "higher", 0.1)["label"] == "improved"
    assert compare(parent, [v * 0.8 for v in parent], "higher", 0.1)["label"] == "regressed"
    assert compare(parent, [v * 0.95 for v in parent], "higher", 0.1)["label"] == "no-worse"
    noisy = [100.0, 60.0, 140.0, 80.0, 120.0]
    assert compare(noisy, noisy, "lower", 0.1)["label"] == "unresolved"
    assert compare(noisy, [v / 10 for v in noisy], "lower", 0.1)["label"] == "no-worse"
    # a spread wider than the bound never hides a clear regression
    assert compare(noisy, [v * 2 for v in noisy], "lower", 0.1)["label"] == "regressed"
