"""The benchmark's workloads: input generation, set-up, one timed pass, checks.

Every workload has four steps. ``generate`` makes the inputs from the
seed, in the parent process, before anything is timed. ``setup`` loads
them through the program in a fresh interpreter. ``run_pass`` is one
timed pass over the inputs and checks its outputs. The pure ``check_*``
functions hold the output checks, so the self-test can feed them bad
outputs. README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from eegloop import edf, features, gbt, loopback, pipeline, synth
from eegloop import evaluate as ev
from eegloop.classes import CLASS_NAMES

from tracing import Tracer, now_ns

PINNED_REPORTS = Path(__file__).resolve().parent / "pinned_reports.json"

LIVE_EPOCH_S = 64  # the `eegloop run` default
LIVE_CAPACITY = 8  # the RunConfig default
REPLAY_EPOCH_S = 64
CV_CONFIG = ev.CvConfig(folds=10, seed=0)  # the `eegloop evaluate` defaults
MIN_CV_ACCURACY = 0.90


@dataclass(frozen=True)
class Size:
    """Input sizes; ``full`` is the benchmark proper, ``tiny`` is for the self-test."""

    train_epochs_per_class: int  # 16 s epochs: the train_cv dataset and live's model
    live_epochs: int  # 64 s epochs in the live recording
    replay_records: int  # 64 s records in each of the four replay recordings
    setup_starts: int  # fresh interpreters whose set-up time is taken


SIZES = {
    "full": Size(train_epochs_per_class=200, live_epochs=100, replay_records=100,
                 setup_starts=5),
    "tiny": Size(train_epochs_per_class=10, live_epochs=12, replay_records=3,
                 setup_starts=2),
}


@dataclass
class PassResult:
    """One timed pass over a workload's inputs."""

    wall_s: float
    ops: int
    failed: int
    epochs: int
    samples: int
    recorded_s: float
    processing_s: float
    latencies_ms: list[float]
    errors: list[str] = field(default_factory=list)
    layer: dict = field(default_factory=dict)  # per-layer figures spans do not carry
    traced: bool = False


def _read_trace(data: bytes, tracer: Tracer, op: int | None = None):
    header, signals, digital = tracer.call("edf.parse_edf", op, edf.parse_edf, data)
    trace = tracer.call("edf.to_trace", op, edf.to_trace, header, signals[0], digital[0])
    return header, signals[0], digital[0], trace


def _train_dataset(gen: Path, seed: int, size: Size, tracer: Tracer) -> Path:
    out = gen / "dataset"
    spec = synth.SyntheticSpec(epochs_per_class=size.train_epochs_per_class, seed=seed)
    tracer.call("synth.generate_dataset", None, synth.generate_dataset, spec, out)
    return out


# --------------------------------------------------------------------------
# live_stream


def check_live(counters: dict, log: list[dict], reference: list[str],
               per_epoch: int, complete: bool) -> tuple[set[int], list[str]]:
    """Failed epoch indices and error lines for one ``run_live`` pass."""
    errors = []
    if counters["produced"] != counters["consumed"] + counters["dropped"] + counters["queued"]:
        errors.append(f"queue accounting broken: {counters}")
    if counters["consumed"] != len(log):
        errors.append(f"consumed {counters['consumed']} != {len(log)} log entries")
    if counters["dropped"]:
        errors.append(f"{counters['dropped']} epochs dropped")
    if not complete:
        errors.append("run_live reported an incomplete run")
    if errors:
        return set(range(len(reference))), errors
    labels = {entry["start_index"] // per_epoch: entry["label"] for entry in log}
    bad = {k for k, want in enumerate(reference) if labels.get(k) != want}
    errors = [f"epoch {k}: label {labels.get(k)!r}, reference {reference[k]!r}"
              for k in sorted(bad)[:5]]
    return bad, errors


def _mixed_recording(seed: int, num_epochs: int) -> bytes:
    """One recording of 64 s epochs whose classes follow a seeded random order."""
    spec = synth.SyntheticSpec(epoch_length_s=LIVE_EPOCH_S, seed=seed)
    rng = np.random.default_rng([seed, 1])
    classes = rng.integers(len(CLASS_NAMES), size=num_epochs)
    samples = np.concatenate(
        [synth.generate_epoch_samples(CLASS_NAMES[c], spec, rng) for c in classes]
    )
    limit = 20 * spec.amplitude_uv  # the synth writer's headroom
    signal = edf.EdfSignalHeader(label="EEG synth", physical_min=-limit,
                                 physical_max=limit,
                                 samples_per_record=spec.samples_per_epoch)
    header = edf.EdfFileHeader.create(num_signals=1, num_records=num_epochs,
                                      record_duration_s=float(LIVE_EPOCH_S),
                                      recording_id="benchmark live_stream")
    return edf.write_edf(header, [signal], [samples])


def _epochs(trace) -> list:
    return list(pipeline.assemble(trace.samples, LIVE_EPOCH_S, trace.rate_hz))


def generate_live(gen: Path, seed: int, size: Size, tracer: Tracer) -> None:
    config = features.PreprocessConfig()
    epochs = synth.load_dataset(_train_dataset(gen, seed, size, tracer))
    model = gbt.train([(features.featurize(e, config), e.label) for e in epochs])
    (gen / "model.json").write_bytes(gbt.save_model(model))
    recording = tracer.call("synth.generate_recording", None, _mixed_recording,
                            seed, size.live_epochs)
    (gen / "recording.edf").write_bytes(recording)
    # The reference goes through the same file round trips as the run.
    model = gbt.load_model((gen / "model.json").read_bytes())
    trace = _read_trace(recording, Tracer())[3]
    reference = [gbt.predict_class(model, features.featurize(e, config))[0]
                 for e in _epochs(trace)]
    (gen / "reference_labels.json").write_text(json.dumps(reference))


@dataclass
class LiveState:
    model: gbt.GbtModel
    trace: edf.SignalTrace
    reference: list[str]


def setup_live(gen: Path, seed: int, size: Size, tracer: Tracer) -> LiveState:
    model = tracer.call("gbt.load_model", None, gbt.load_model,
                        (gen / "model.json").read_bytes())
    trace = _read_trace((gen / "recording.edf").read_bytes(), tracer)[3]
    reference = json.loads((gen / "reference_labels.json").read_text())
    return LiveState(model, trace, reference)


def live_pass(state: LiveState, tracer: Tracer) -> PassResult:
    trace, model, reference = state.trace, state.model, state.reference
    per_epoch = int(LIVE_EPOCH_S * trace.rate_hz)
    n = len(reference)
    config = features.PreprocessConfig()
    queue = pipeline.EpochQueue(capacity=LIVE_CAPACITY)
    handover, resumed, started, done, depth = ([0] * n for _ in range(5))

    def source():
        for k, epoch in enumerate(pipeline.assemble(trace.samples, LIVE_EPOCH_S,
                                                    trace.rate_hz)):
            handover[k] = now_ns()
            yield epoch
            resumed[k] = now_ns()

    def processor(epoch: pipeline.Epoch) -> str:
        k = epoch.start_index // per_epoch
        started[k] = now_ns()
        if tracer.enabled:
            depth[k] = len(queue)
        with tracer.span("pipeline.processor", k):
            x = tracer.call("features.preprocess", k, features.preprocess, epoch, config)
            fv = tracer.call("features.extract", k, features.extract, x)
            label = tracer.call("gbt.predict_class", k, gbt.predict_class, model, fv)[0]
        done[k] = now_ns()
        return label

    clock = loopback.SampleClock(rate_hz=trace.rate_hz, acceleration=math.inf)
    with tracer.span("pipeline.run_live"):
        run_span = tracer.current()
        t0 = now_ns()
        log, report = pipeline.run_live(source(), processor, clock=clock, queue=queue)
        wall_s = (now_ns() - t0) / 1e9

    counters = queue.counters()
    bad, errors = check_live(counters, log, reference, per_epoch, report.complete)
    served = [entry["start_index"] // per_epoch for entry in log]
    layer = {}
    if tracer.enabled:
        for k in served:
            tracer.add("pipeline.queue_wait", handover[k], started[k], run_span, k)
        layer = {
            "queue_wait_ms": [(started[k] - handover[k]) / 1e6 for k in served],
            "queue_depth": [depth[k] for k in served],
            "consumer_idle_s": wall_s - sum(done[k] - started[k] for k in served) / 1e9,
            "producer_wait_s": sum(r - h for h, r in zip(handover, resumed) if r) / 1e9,
            "produced": counters["produced"],
            "dropped": counters["dropped"],
        }
    return PassResult(
        wall_s=wall_s, ops=n, failed=len(bad), epochs=len(log),
        samples=len(log) * per_epoch, recorded_s=report.collection_time_s,
        processing_s=report.processing_time_s,
        latencies_ms=[(done[k] - handover[k]) / 1e6 for k in served],
        errors=errors, layer=layer,
    )


def live_single_thread(state: LiveState) -> tuple[float, list[str]]:
    """Epochs per second of a ``deterministic=True`` pass, and its check errors."""
    config = features.PreprocessConfig()

    def processor(epoch: pipeline.Epoch) -> str:
        return gbt.predict_class(state.model, features.featurize(epoch, config))[0]

    queue = pipeline.EpochQueue(capacity=LIVE_CAPACITY)
    t0 = now_ns()
    log, report = pipeline.run_live(_epochs(state.trace), processor, queue=queue,
                                    deterministic=True)
    wall_s = (now_ns() - t0) / 1e9
    per_epoch = int(LIVE_EPOCH_S * state.trace.rate_hz)
    _, errors = check_live(queue.counters(), log, state.reference, per_epoch,
                           report.complete)
    return len(log) / wall_s, [f"single-threaded pass: {e}" for e in errors]


# --------------------------------------------------------------------------
# train_cv


def cv_report_bytes(result: ev.CvResult, config: ev.CvConfig, epoch_length_s: int,
                    num_epochs: int) -> bytes:
    """The CV report in the layout and encoding `eegloop evaluate` writes."""
    pooled = result.pooled_metrics
    doc = {
        "epoch_length_s": epoch_length_s,
        "num_epochs": num_epochs,
        "folds": config.folds,
        "seed": config.seed,
        "accuracy_mean": result.mean_accuracy,
        "accuracy_per_fold": [m.accuracy for m in result.per_fold],
        "per_class": {
            name: {"precision": pooled.precision[name], "recall": pooled.recall[name]}
            for name in result.pooled.classes
        },
        "pooled_confusion": result.pooled.counts.tolist(),
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def pinned_key(seed: int, size: Size) -> str:
    return f"seed={seed} epochs_per_class={size.train_epochs_per_class}"


def check_cv(mean_accuracy: float, report: bytes, first_report: bytes | None,
             pinned_sha256: str | None) -> list[str]:
    """Error lines for one cross-validation pass."""
    errors = []
    if not mean_accuracy >= MIN_CV_ACCURACY:
        errors.append(f"mean accuracy {mean_accuracy:.4f} < {MIN_CV_ACCURACY}")
    if first_report is not None and report != first_report:
        errors.append("report bytes differ from the run's first pass")
    digest = hashlib.sha256(report).hexdigest()
    if pinned_sha256 is not None and digest != pinned_sha256:
        errors.append(f"report sha256 {digest} != pinned {pinned_sha256}")
    return errors


def generate_cv(gen: Path, seed: int, size: Size, tracer: Tracer) -> None:
    _train_dataset(gen, seed, size, tracer)


@dataclass
class CvState:
    dataset: Path
    pinned_sha256: str | None
    first_report: bytes | None = None


def setup_cv(gen: Path, seed: int, size: Size, tracer: Tracer) -> CvState:
    pinned = json.loads(PINNED_REPORTS.read_text()).get(pinned_key(seed, size))
    return CvState(gen / "dataset", pinned)


def cv_pass(state: CvState, tracer: Tracer) -> PassResult:
    config = features.PreprocessConfig()
    train_config = gbt.TrainConfig()
    next_fold = iter(range(CV_CONFIG.folds))

    latencies_ms = []  # from the start of its fold until a held-out label returns

    t0 = now_ns()
    epochs = tracer.call("synth.load_dataset", None, synth.load_dataset, state.dataset)
    fvs = [tracer.call("features.featurize", i, features.featurize, epoch, config)
           for i, epoch in enumerate(epochs)]
    labels = [e.label for e in epochs]

    def trainer(train_fvs, train_labels):
        fold = next(next_fold)
        fold_start = now_ns()
        with tracer.span("evaluate.trainer", fold):
            model = tracer.call("gbt.train", fold, gbt.train,
                                list(zip(train_fvs, train_labels)), train_config)

        def predictor(fv):
            with tracer.span("evaluate.predictor", fold):
                label = tracer.call("gbt.predict_class", fold, gbt.predict_class,
                                    model, fv)[0]
            latencies_ms.append((now_ns() - fold_start) / 1e6)
            return label

        return predictor

    result = tracer.call("evaluate.kfold_cv", None, ev.kfold_cv, fvs, labels, trainer,
                         CV_CONFIG)
    report = cv_report_bytes(result, CV_CONFIG, epochs[0].length_s, len(fvs))
    wall_s = (now_ns() - t0) / 1e9

    errors = check_cv(result.mean_accuracy, report, state.first_report,
                      state.pinned_sha256)
    if state.first_report is None:
        state.first_report = report
    return PassResult(
        wall_s=wall_s, ops=CV_CONFIG.folds, failed=CV_CONFIG.folds if errors else 0,
        epochs=len(epochs), samples=sum(e.num_samples for e in epochs),
        recorded_s=float(sum(e.length_s for e in epochs)), processing_s=wall_s,
        latencies_ms=latencies_ms, errors=errors,
        layer={"mean_accuracy": result.mean_accuracy,
               "report_sha256": hashlib.sha256(report).hexdigest()},
    )


# --------------------------------------------------------------------------
# record_replay


def check_recording(codes: np.ndarray, expected_codes: np.ndarray, mse: float,
                    bound: float, clip_count: int) -> list[str]:
    """Error lines for one recording's write, parse and replay."""
    errors = []
    if codes.dtype != expected_codes.dtype or not np.array_equal(codes, expected_codes):
        errors.append("parse_edf(write_edf(x)) changed the digital codes")
    if not mse <= bound**2:
        errors.append(f"replay mse {mse} > bound^2 {bound**2}")
    if clip_count:
        errors.append(f"{clip_count} samples clipped")
    return errors


@dataclass
class Recording:
    header: edf.EdfFileHeader
    signal: edf.EdfSignalHeader
    codes: np.ndarray
    trace: edf.SignalTrace
    mapping: loopback.VoltageMapping


@dataclass
class ReplayState:
    recordings: list[Recording]
    dac: loopback.DacModel
    adc: loopback.AdcModel


def generate_replay(gen: Path, seed: int, size: Size, tracer: Tracer) -> None:
    spec = synth.SyntheticSpec(epoch_length_s=REPLAY_EPOCH_S,
                               epochs_per_class=size.replay_records, seed=seed)
    tracer.call("synth.generate_dataset", None, synth.generate_dataset, spec,
                gen / "recordings")


def setup_replay(gen: Path, seed: int, size: Size, tracer: Tracer) -> ReplayState:
    recordings = []
    for path in sorted((gen / "recordings").glob("*.edf")):
        header, signal, codes, trace = _read_trace(path.read_bytes(), tracer)
        # The `eegloop replay` defaults: 12-bit DAC into 10-bit ADC, 90% span.
        mapping = loopback.VoltageMapping.centered(signal.physical_min,
                                                   signal.physical_max)
        recordings.append(Recording(header, signal, codes, trace, mapping))
    return ReplayState(recordings, loopback.DacModel(12), loopback.AdcModel(10))


def replay_pass(state: ReplayState, tracer: Tracer) -> PassResult:
    chain_ms, errors, failed = [], [], 0
    layer = {"bytes": 0, "samples": 0, "clip_count": 0}
    for r, rec in enumerate(state.recordings):
        with tracer.span("record_replay.recording", r):
            t0 = now_ns()
            data = tracer.call("edf.write_edf", r, edf.write_edf, rec.header,
                               [rec.signal], [rec.trace.samples])
            _, _, codes, trace = _read_trace(data, tracer, r)
            result = tracer.call("loopback.replay_capture", r, loopback.replay_capture,
                                 trace, rec.mapping, state.dac, state.adc)
            chain_ms.append((now_ns() - t0) / 1e6)
        bound = loopback.quantization_error_bound(rec.mapping, state.dac, state.adc)
        rec_errors = check_recording(codes, rec.codes, result.mse, bound,
                                     result.clip_count)
        failed += bool(rec_errors)
        errors += [f"recording {r}: {e}" for e in rec_errors]
        layer["bytes"] += len(data)
        layer["samples"] += result.n
        layer["clip_count"] += result.clip_count
    wall_s = sum(chain_ms) / 1e3
    records = sum(rec.header.num_records for rec in state.recordings)
    return PassResult(
        wall_s=wall_s, ops=len(state.recordings), failed=failed, epochs=records,
        samples=layer["samples"], recorded_s=float(records * REPLAY_EPOCH_S),
        processing_s=wall_s, latencies_ms=chain_ms, errors=errors, layer=layer,
    )


@dataclass(frozen=True)
class Workload:
    generate: Callable[[Path, int, Size, Tracer], None]
    setup: Callable[[Path, int, Size, Tracer], object]
    run_pass: Callable[[object, Tracer], PassResult]
    ops_per_pass: Callable[[object], int]


WORKLOADS = {
    "live_stream": Workload(generate_live, setup_live, live_pass,
                            lambda state: len(state.reference)),
    "train_cv": Workload(generate_cv, setup_cv, cv_pass, lambda state: CV_CONFIG.folds),
    "record_replay": Workload(generate_replay, setup_replay, replay_pass,
                              lambda state: len(state.recordings)),
}
