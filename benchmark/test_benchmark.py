"""Self-test of the benchmark at a tiny input size.

    python3 -m pytest benchmark -q

It runs every workload untraced and traced, feeds every output check a
bad output, and checks that the benchmark refuses to run in a directory
that holds no eegloop source.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from workloads import (  # noqa: E402
    PINNED_REPORTS, SIZES, check_cv, check_live, check_recording, pinned_key,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_what_the_benchmark_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_workload_runs_and_passes_its_checks(workload, trace):
    proc = run_tiny(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

    record = json.loads(
        (bench.OUT / f"result-{workload}-seed7-trace{trace}.json").read_text())
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "git_commit"} <= set(
        record["machine"])
    if trace:
        lines = (bench.OUT / f"trace-{workload}-seed7.jsonl").read_text().splitlines()
        span = json.loads(lines[-1])
        assert {"name", "start_ns", "end_ns", "parent", "op"} <= set(span)
    if trace and workload == "live_stream":
        metrics = result["metrics"]
        # features, gbt and consumer idle time account for run_live's wall time
        assert abs(metrics["pipeline.unaccounted_percent"]["value"]) < 10
        assert metrics["pipeline.produced"]["value"] == SIZES["tiny"].live_epochs
        assert metrics["pipeline.single_thread_epochs_per_s"]["value"] > 0


def test_live_checks_catch_bad_outputs():
    reference = ["sham_wake", "tbi_sleep"]
    log = [{"start_index": 0, "label": "sham_wake"}, {"start_index": 10, "label": "tbi_sleep"}]
    ok = {"produced": 2, "consumed": 2, "dropped": 0, "queued": 0}
    assert check_live(ok, log, reference, 10, True) == (set(), [])

    wrong_label = [log[0], {"start_index": 10, "label": "sham_sleep"}]
    assert check_live(ok, wrong_label, reference, 10, True)[0] == {1}
    everything = {0, 1}
    assert check_live({**ok, "produced": 3}, log, reference, 10, True)[0] == everything
    assert check_live(ok, log[:1], reference, 10, True)[0] == everything
    dropped = {"produced": 3, "consumed": 2, "dropped": 1, "queued": 0}
    assert check_live(dropped, log, reference, 10, True)[0] == everything
    assert check_live(ok, log, reference, 10, False)[0] == everything


def test_cv_checks_catch_bad_outputs():
    report = b'{"accuracy_mean": 0.95}\n'
    digest = hashlib.sha256(report).hexdigest()
    assert check_cv(0.95, report, report, digest) == []
    assert check_cv(0.95, report, None, None) == []
    assert check_cv(0.899, report, report, digest)
    assert check_cv(0.95, report, b"another report", digest)
    assert check_cv(0.95, report, report, "0" * 64)


def test_recording_checks_catch_bad_outputs():
    codes = np.arange(-5, 5, dtype=np.int16)
    assert check_recording(codes, codes.copy(), 0.5, 1.0, 0) == []
    flipped = codes.copy()
    flipped[3] ^= 1
    assert check_recording(flipped, codes, 0.5, 1.0, 0)
    assert check_recording(codes.astype(np.int64), codes, 0.5, 1.0, 0)
    assert check_recording(codes, codes, 1.01, 1.0, 0)
    assert check_recording(codes, codes, 0.5, 1.0, 1)


def test_report_digests_are_pinned_for_the_default_seed():
    pinned = json.loads(PINNED_REPORTS.read_text())
    assert pinned_key(7, SIZES["full"]) in pinned
    assert pinned_key(7, SIZES["tiny"]) in pinned


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_tiny("live_stream", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
