"""Schema self-test of the benchmark suite (run explicitly, not tier-1):

    python3 -m pytest benchmarks/suite/test_suite_smoke.py -q

Drives ``run.py --smoke`` the way the gate drives the full suite and checks
the contract: legal names, every declared metric emitted with its unit, and
count metrics identical across two runs on one seed.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT_COUNTS = ("blast.hits", "mrblast.units", "mrmpi.pairs_moved", "mrmpi.bytes_moved",
                "serve.refused")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_suite(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke", *args],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-2000:]
    return proc.stdout


def driver_line(workload, trace, seed=5):
    out = run_suite("--workload", workload, "--seed", str(seed), "--trace", str(trace))
    return json.loads(out.strip().splitlines()[-1])


def test_declared_names_and_units_are_legal():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"]), metric
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    line = driver_line(workload, trace=0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0, (metric, got)


def test_traced_pass_emits_every_layer_and_counts_repeat_exactly():
    first = driver_line("blastn_batch", trace=1)
    second = driver_line("blastn_batch", trace=1)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_whole_suite_prints_every_declared_metric_by_name():
    out = run_suite("--seed", "5")
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(rf"^{re.escape(metric['name'])}\s", out, re.M), metric["name"]
    assert "ops_failed 0" in out and "FAILED" not in out
