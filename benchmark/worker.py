"""One fresh interpreter of a benchmark run: set-up, then the timed passes.

``run.py`` starts this script after it has generated the inputs. The
script imports ``eegloop.cli`` and loads the workload's files through
the program; the moment that ends is the end of set-up, stamped on the
system-wide monotonic clock so the parent can take the time from its own
start of this process. With ``--setup-only`` it stops there. Otherwise
it runs passes over the inputs until ``--seconds`` have gone by, and at
least three, so that a median over passes can reject one disturbed pass.
It writes the passes, the spans and its peak RSS as JSON to ``--out``.

With ``--trace 1`` every second pass is traced and the others are not,
so the tracing overhead is measured inside one process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

MIN_PASSES = 3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t = time.perf_counter_ns()
    import eegloop.cli  # noqa: F401  (what every CLI call pays first)
    import_s = (time.perf_counter_ns() - t) / 1e9

    import eegloop
    from tracing import Tracer, now_ns
    from workloads import SIZES, WORKLOADS, PassResult, live_single_thread

    src = Path(__file__).resolve().parents[1] / "src"
    if src not in Path(eegloop.__file__).resolve().parents:
        print(f"error: eegloop imported from {eegloop.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tracer = Tracer(enabled=bool(args.trace))
    state = workload.setup(Path(args.inputs), args.seed, SIZES[args.size], tracer)
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    doc = {"ready_ns": ready_ns, "import_s": import_s}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(doc))
        return 0

    passes = []
    t0 = now_ns()
    while len(passes) < MIN_PASSES or now_ns() - t0 < args.seconds * 1e9:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer.enabled = traced
        tracer.pass_index = len(passes)
        try:
            result = workload.run_pass(state, tracer)
        except Exception:  # a failing pass is counted, and the run goes on
            ops = workload.ops_per_pass(state)
            result = PassResult(wall_s=0.0, ops=ops, failed=ops, epochs=0, samples=0,
                                recorded_s=0.0, processing_s=0.0, latencies_ms=[],
                                errors=[traceback.format_exc(limit=3)])
        result.traced = traced
        passes.append(asdict(result))
    tracer.enabled = False

    doc["errors"] = []
    if args.trace and args.workload == "live_stream":
        doc["single_thread_epochs_per_s"], doc["errors"] = live_single_thread(state)

    doc["passes"] = passes
    doc["spans"] = [asdict(s) for s in tracer.spans]
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
