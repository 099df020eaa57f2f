"""Smoke tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench -q
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_minimal_run_emits_every_metric_with_its_unit(workload, trace, kind):
    res = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_injected_fault_is_counted_as_failed(workload):
    res = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                "--inject-fault")
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_gives_identical_input_checksums(workload):
    def checksum(seed, i):
        wl = workloads.make_workloads()[workload]
        return workloads.checksum(wl.input_arrays(wl.setup(seed),
                                                  wl.make_input(seed, i)))

    assert checksum(5, 4) == checksum(5, 4)
    if workload != "verify":  # the selftest suites run at their own seeds
        assert checksum(5, 4) != checksum(6, 4)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_baseline_gets_the_same_inputs_as_the_library(workload):
    def checksum(package):
        wl = workloads.make_workloads(package)[workload]
        return workloads.checksum(wl.input_arrays(wl.setup(5), wl.make_input(5, 4)))

    assert checksum(workloads.LIBRARY) == checksum(workloads.BASELINE)


def test_benchmark_json_names_match_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("n,pct,beyond", [(100, 90, 10), (22, 54, 10),
                                          (200, 95, 10), (20, 50, 9), (7, 50, 3)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, beyond):
    samples = [float(v) for v in range(n)]
    got_pct, value, got_beyond = run.tail_percentile(samples)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert sum(s > value for s in samples) == got_beyond
    assert value >= statistics.median(samples)
