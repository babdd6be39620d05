"""Run one eegloop benchmark workload and print its metrics.

    python3 benchmark/run.py --workload live_stream --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The steps:

1. make the workload's inputs from ``--seed`` (untimed);
2. start fresh interpreters that import ``eegloop.cli`` and load the
   inputs through the program; the median of their set-up times is
   ``setup_s``;
3. in the last of them, run timed passes for ``--seconds`` and check
   every output;
4. print each metric with its unit, then one JSON line: ``correct``,
   ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
   end-to-end metrics, ``--trace 1`` the per-layer ones and writes the
   spans to ``.bench_out/``.

The exit code is 0 when every check passed, 1 when a check failed and
2 when the benchmark could not run (then no JSON line is printed).
README.md defines the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from tracing import Span, Tracer, durations, median, percentile, self_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# A run must end within 180 s; workers still running at this point are killed.
DEADLINE_S = 170

WORKLOAD_NAMES = ("live_stream", "train_cv", "record_replay")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_s": "s",
    "epochs_per_s": "1/s",
    "msamples_per_s": "Msamples/s",
    "ratio_percent": "%",
    "epoch_latency_p50_ms": "ms",
    "epoch_latency_p99_ms": "ms",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.load_s": "s",
    "features.preprocess_us_p50": "us",
    "features.extract_us_p50": "us",
    "features.featurize_us_p50": "us",
    "features.busy_s": "s",
    "features.calls": "count",
    "gbt.predict_us_p50": "us",
    "gbt.predict_calls": "count",
    "gbt.train_s": "s",
    "gbt.train_calls": "count",
    "gbt.load_model_ms": "ms",
    "pipeline.queue_wait_ms_p50": "ms",
    "pipeline.queue_wait_ms_p99": "ms",
    "pipeline.queue_depth_mean": "count",
    "pipeline.consumer_idle_s": "s",
    "pipeline.producer_wait_s": "s",
    "pipeline.produced": "count",
    "pipeline.dropped": "count",
    "pipeline.single_thread_epochs_per_s": "1/s",
    "pipeline.unaccounted_percent": "%",
    "edf.write_s": "s",
    "edf.parse_s": "s",
    "edf.to_trace_s": "s",
    "edf.bytes": "count",
    "loopback.replay_s": "s",
    "loopback.samples": "count",
    "loopback.clip_count": "count",
    "evaluate.self_s": "s",
    "synth.generate_s": "s",
    "synth.load_dataset_s": "s",
    "trace.overhead_percent": "%",
}

# Children run one process each and leave the two cores to run_live's
# producer and consumer: no BLAS or OpenMP worker pools.
_SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "platform": platform.platform(),
    }


def run_worker(args: argparse.Namespace, inputs: Path, out: Path, setup_only: bool,
               deadline: float) -> tuple[dict, float]:
    """Start a fresh interpreter; returns its document and its set-up seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--inputs", str(inputs), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **_SINGLE_THREAD_ENV, "PYTHONPATH": str(SRC)}
    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    timeout_s = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout_s, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout_s:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    doc = json.loads(out.read_text())
    return doc, (doc["ready_ns"] - start_ns) / 1e9


def end_to_end(passes: list[dict], setups: list[float], peak_rss_mb: float) -> dict:
    """End-to-end metrics: medians over the timed passes.

    Latency percentiles are taken within each pass and then the median
    over passes, so one burst of machine noise in a run moves the p99 of
    one pass, not the figure.
    """
    timed = [p for p in passes if p["wall_s"] > 0]
    return {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb,
        "wall_s": median([p["wall_s"] for p in timed]),
        "epochs_per_s": median([p["epochs"] / p["wall_s"] for p in timed]),
        "msamples_per_s": median([p["samples"] / p["wall_s"] / 1e6 for p in timed]),
        "ratio_percent": median([100 * p["processing_s"] / p["recorded_s"] for p in timed]),
        "epoch_latency_p50_ms": median([percentile(p["latencies_ms"], 50) for p in timed]),
        "epoch_latency_p99_ms": median([percentile(p["latencies_ms"], 99) for p in timed]),
    }


def per_layer(doc: dict, generate_spans: list, passes: list[dict]) -> dict:
    """Per-layer metrics from the traced passes; times and counts are per pass."""
    spans = [Span(**s) for s in doc["spans"]]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    n = len(traced)
    in_pass = [s for s in spans if s.pass_index is not None]
    setup = [s for s in spans if s.pass_index is None]

    def per_pass(name: str) -> float:
        return sum(durations(in_pass, name)) / n

    def count(name: str) -> float:
        return len(durations(in_pass, name)) / n

    def mean(values: list) -> float:
        return sum(values) / len(values) if values else 0.0

    def layer_mean(key: str) -> float:
        return mean([p["layer"][key] for p in traced if key in p["layer"]])

    def pooled(key: str) -> list:
        return [x for p in traced for x in p["layer"].get(key, [])]

    features_s = sum(per_pass(f"features.{s}") for s in ("preprocess", "extract", "featurize"))
    unaccounted = []  # share of run_live wall time not in features, gbt or idle
    for i, p in enumerate(passes):
        if p["traced"] and p["layer"].get("produced"):
            own = [s for s in in_pass if s.pass_index == i]
            busy = sum(durations(own, "features.preprocess") + durations(own, "features.extract")
                       + durations(own, "gbt.predict_class"))
            wall = sum(durations(own, "pipeline.run_live"))
            unaccounted.append(100 * (wall - busy - p["layer"]["consumer_idle_s"]) / wall)
    return {
        "setup.import_s": doc["import_s"],
        "setup.load_s": sum(s.seconds for s in setup if s.parent is None),
        "features.preprocess_us_p50": median(durations(in_pass, "features.preprocess")) * 1e6,
        "features.extract_us_p50": median(durations(in_pass, "features.extract")) * 1e6,
        "features.featurize_us_p50": median(durations(in_pass, "features.featurize")) * 1e6,
        "features.busy_s": features_s,
        "features.calls": count("features.extract") + count("features.featurize"),
        "gbt.predict_us_p50": median(durations(in_pass, "gbt.predict_class")) * 1e6,
        "gbt.predict_calls": count("gbt.predict_class"),
        "gbt.train_s": per_pass("gbt.train"),
        "gbt.train_calls": count("gbt.train"),
        "gbt.load_model_ms": sum(durations(setup, "gbt.load_model")) * 1e3,
        "pipeline.queue_wait_ms_p50": percentile(pooled("queue_wait_ms"), 50),
        "pipeline.queue_wait_ms_p99": percentile(pooled("queue_wait_ms"), 99),
        "pipeline.queue_depth_mean": mean(pooled("queue_depth")),
        "pipeline.consumer_idle_s": layer_mean("consumer_idle_s"),
        "pipeline.producer_wait_s": layer_mean("producer_wait_s"),
        "pipeline.produced": layer_mean("produced"),
        "pipeline.dropped": layer_mean("dropped"),
        "pipeline.single_thread_epochs_per_s": doc.get("single_thread_epochs_per_s", 0.0),
        "pipeline.unaccounted_percent": median(unaccounted),
        "edf.write_s": per_pass("edf.write_edf"),
        "edf.parse_s": per_pass("edf.parse_edf"),
        "edf.to_trace_s": per_pass("edf.to_trace"),
        "edf.bytes": layer_mean("bytes"),
        "loopback.replay_s": per_pass("loopback.replay_capture"),
        "loopback.samples": layer_mean("samples"),
        "loopback.clip_count": layer_mean("clip_count"),
        "evaluate.self_s": self_seconds(in_pass, "evaluate.kfold_cv") / n,
        "synth.generate_s": sum(s.seconds for s in generate_spans
                                if s.name.startswith("synth.generate")),
        "synth.load_dataset_s": per_pass("synth.load_dataset"),
        "trace.overhead_percent": 100 * (median([p["wall_s"] for p in traced])
                                         / median([p["wall_s"] for p in untraced]) - 1),
    }


def run(args: argparse.Namespace) -> int:
    if not (SRC / "eegloop" / "__init__.py").is_file():
        raise BenchError(f"no eegloop source under {SRC}")
    sys.path.insert(0, str(SRC))
    from workloads import SIZES, WORKLOADS

    size = SIZES[args.size]
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        inputs.mkdir(parents=True)
        generate = Tracer(enabled=True)
        workload.generate(inputs, args.seed, size, generate)

        setups = []
        for i in range(size.setup_starts - 1):
            _, setup_s = run_worker(args, inputs, work / f"setup{i}.json", True, deadline)
            setups.append(setup_s)
        doc, setup_s = run_worker(args, inputs, work / "run.json", False, deadline)
        setups.append(setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = doc["passes"]
    if args.trace:
        metrics = per_layer(doc, generate.spans, passes)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans = [{**asdict(s), "process": "generate"} for s in generate.spans]
        spans += [{**s, "process": "worker"} for s in doc["spans"]]
        (OUT / f"trace-{args.workload}-seed{args.seed}.jsonl").write_text(
            "".join(json.dumps(s, sort_keys=True) + "\n" for s in spans))
    else:
        metrics = end_to_end(passes, setups, doc["peak_rss_mb"])
        units = END_TO_END
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]] + doc["errors"]
    correct = failed == 0 and not errors

    facts = machine_facts()
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    OUT.mkdir(exist_ok=True)
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "setup_starts_s": setups, "errors": errors,
              "passes": [{"wall_s": p["wall_s"], "traced": p["traced"], "ops": p["ops"],
                          "failed": p["failed"],
                          "layer": {k: v for k, v in p["layer"].items()
                                    if not isinstance(v, list)}} for p in passes],
              "machine": facts}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed "
          f"(failed_fraction {failed / max(attempted, 1):.4f})")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    for error in errors[:20]:
        print(f"  check failed: {error}")
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
