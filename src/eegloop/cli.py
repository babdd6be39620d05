"""Command-line surface: synth, train, evaluate, replay, run, bench.

Every command reads an optional JSON config file (validated before any
work starts), lets flags override file values, derives all randomness
from one explicit seed, and exits nonzero with a single ``error: ...``
line on stderr when anything fails. Verbosity is controlled only by the
``EEGLOOP_LOG`` environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import features, gbt, loopback, pipeline, synth
from .edf import parse_edf, to_trace

log = logging.getLogger("eegloop")


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one live run."""

    input_source: str  # EDF path, or "-" for floats on stdin
    model_path: str
    epoch_length_s: int = 64
    rate_hz: float = 256.0
    capacity: int = 8
    acceleration: float = 1.0
    deterministic: bool = False
    log_path: str | None = None
    timing_path: str | None = None
    signal: int = 0

    def __post_init__(self) -> None:
        if self.epoch_length_s not in pipeline.EPOCH_LENGTHS_S:
            raise ValueError(
                f"epoch length must be one of {pipeline.EPOCH_LENGTHS_S}"
            )
        if self.capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if self.acceleration < 1:
            raise ValueError("acceleration must be >= 1")
        if self.input_source != "-" and not Path(self.input_source).exists():
            raise ValueError(f"input not found: {self.input_source}")
        if not Path(self.model_path).exists():
            raise ValueError(f"model not found: {self.model_path}")


_SYNTH_FIELDS = {
    "seed": int,
    "epochs_per_class": int,
    "epoch_length_s": int,
    "rate_hz": (int, float),
    "amplitude_uv": (int, float),
    "noise_level": (int, float),
    "amplitude_jitter": (int, float),
    "profiles": dict,
}

_TRAIN_FIELDS = {
    "rounds": int,
    "max_depth": int,
    "learning_rate": (int, float),
    "l2_lambda": (int, float),
    "min_child_weight": (int, float),
    "seed": int,
}


def _load_config(path: str | None, allowed: dict) -> dict:
    if path is None:
        return {}
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    for key, value in doc.items():
        if key not in allowed:
            raise ValueError(f"config {path}: unknown field {key!r}")
        if not isinstance(value, allowed[key]):
            raise ValueError(f"config {path}: field {key!r} has the wrong type")
    return doc


def _write_json(path: str | Path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _parse_acceleration(text: str) -> float:
    if text.lower() in ("max", "inf"):
        return math.inf
    value = float(text)
    if value < 1:
        raise argparse.ArgumentTypeError("acceleration must be >= 1 or 'max'")
    return value


def _parse_profiles(doc: dict) -> dict[str, synth.ClassProfile]:
    profiles = {}
    for name, entry in doc.items():
        profiles[name] = synth.ClassProfile(
            bumps=tuple(tuple(b) for b in entry["bumps"]),
            power_scale=entry.get("power_scale", 1.0),
        )
    return profiles


def _build_synth_spec(args: argparse.Namespace) -> synth.SyntheticSpec:
    values = _load_config(args.config, _SYNTH_FIELDS)
    if "profiles" in values:
        values["profiles"] = _parse_profiles(values["profiles"])
    for flag in ("seed", "epochs_per_class", "epoch_length_s", "rate_hz",
                 "amplitude_uv", "noise_level", "amplitude_jitter"):
        override = getattr(args, flag)
        if override is not None:
            values[flag] = override
    return synth.SyntheticSpec(**values)


def _build_train_config(args: argparse.Namespace) -> gbt.TrainConfig:
    values = _load_config(getattr(args, "train_config", None), _TRAIN_FIELDS)
    for flag in _TRAIN_FIELDS:
        override = getattr(args, flag, None)
        if override is not None:
            values[flag] = override
    return gbt.TrainConfig(**values)


def _featurize_dataset(
    dataset_dir: str,
) -> tuple[list[features.FeatureVector], list[str], int]:
    epochs = synth.load_dataset(dataset_dir)
    config = features.PreprocessConfig()
    fvs = [features.featurize(e, config) for e in epochs]
    labels = [e.label for e in epochs]
    return fvs, labels, epochs[0].length_s


def _make_processor(model: gbt.GbtModel):
    config = features.PreprocessConfig()

    def processor(epoch: pipeline.Epoch) -> str:
        return gbt.predict_class(model, features.featurize(epoch, config))[0]

    return processor


def _read_samples(config: RunConfig) -> tuple[np.ndarray, float]:
    if config.input_source == "-":
        samples = np.loadtxt(sys.stdin, dtype=np.float64).reshape(-1)
        return samples, config.rate_hz
    header, sig_headers, digital = parse_edf(Path(config.input_source).read_bytes())
    trace = to_trace(header, sig_headers[config.signal], digital[config.signal])
    return trace.samples, trace.rate_hz


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _build_synth_spec(args)
    index_path = synth.generate_dataset(spec, args.out)
    log.info("wrote dataset under %s", args.out)
    print(str(index_path))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _build_train_config(args)
    fvs, labels, _ = _featurize_dataset(args.data)
    model = gbt.train(list(zip(fvs, labels)), config)
    Path(args.out).write_bytes(gbt.save_model(model))
    if args.log_file:
        _write_json(
            args.log_file,
            {
                "config": asdict(config),
                "num_epochs": len(fvs),
                "log_loss_per_round": model.training_loss,
            },
        )
    print(args.out)
    return 0


def _metrics_doc(
    cm: ev.ConfusionMatrix,
    report: ev.MetricsReport,
    epoch_length_s: int,
    *,
    folds: int | None,
    seed: int | None,
    accuracy_mean: float,
    accuracy_per_fold: list[float],
) -> dict:
    return {
        "epoch_length_s": epoch_length_s,
        "num_epochs": int(cm.counts.sum()),
        "folds": folds,
        "seed": seed,
        "accuracy_mean": accuracy_mean,
        "accuracy_per_fold": accuracy_per_fold,
        "per_class": {
            name: {"precision": report.precision[name], "recall": report.recall[name]}
            for name in cm.classes
        },
        "pooled_confusion": cm.counts.tolist(),
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    fvs, labels, epoch_length_s = _featurize_dataset(args.data)
    if args.model:
        model = gbt.load_model(Path(args.model).read_bytes())
        cm = ev.confusion(labels, gbt.predict_labels(model, fvs))
        report = ev.metrics(cm)
        doc = _metrics_doc(cm, report, epoch_length_s, folds=None, seed=None,
                           accuracy_mean=report.accuracy, accuracy_per_fold=[])
    else:
        train_config = _build_train_config(args)
        cv_config = ev.CvConfig(folds=args.folds, seed=args.seed or 0)

        def trainer(train_fvs, train_labels):
            model = gbt.train(list(zip(train_fvs, train_labels)), train_config)
            return lambda fv: gbt.predict_class(model, fv)[0]

        result = ev.kfold_cv(fvs, labels, trainer, cv_config)
        doc = _metrics_doc(
            result.pooled, result.pooled_metrics, epoch_length_s,
            folds=cv_config.folds, seed=cv_config.seed,
            accuracy_mean=result.mean_accuracy,
            accuracy_per_fold=[m.accuracy for m in result.per_fold],
        )
    _write_json(args.out, doc)
    print(args.out)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    header, sig_headers, digital = parse_edf(Path(args.edf).read_bytes())
    sig = sig_headers[args.signal]
    trace = to_trace(header, sig, digital[args.signal])
    if args.gain is not None:
        mapping = loopback.VoltageMapping(args.gain, args.offset)
    else:
        mapping = loopback.VoltageMapping.centered(
            sig.physical_min, sig.physical_max, args.vref, args.span
        )
    dac = None if args.bypass else loopback.DacModel(args.dac_bits, args.vref)
    adc = None if args.bypass else loopback.AdcModel(args.adc_bits, args.vref)
    result = loopback.replay_capture(trace, mapping, dac, adc)
    doc = {
        "edf": str(args.edf),
        "n": result.n,
        "mse": result.mse,
        "max_abs_error": result.max_abs_error,
        "clip_count": result.clip_count,
        "bypass": bool(args.bypass),
        "dac_bits": None if args.bypass else args.dac_bits,
        "adc_bits": None if args.bypass else args.adc_bits,
        "error_bound": (
            0.0 if args.bypass else loopback.quantization_error_bound(mapping, dac, adc)
        ),
        "signal_variance": float(np.var(trace.samples)),
        "hardware_reference_mse": loopback.HARDWARE_LOOPBACK_REFERENCE_MSE,
    }
    if args.out:
        _write_json(args.out, doc)
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = RunConfig(
        input_source=args.input,
        model_path=args.model,
        epoch_length_s=args.epoch_length_s,
        rate_hz=args.rate_hz,
        capacity=args.capacity,
        acceleration=args.acceleration,
        deterministic=args.deterministic,
        log_path=args.log_file,
        timing_path=args.timing,
        signal=args.signal,
    )
    model = gbt.load_model(Path(config.model_path).read_bytes())
    samples, rate_hz = _read_samples(config)
    source = pipeline.assemble(samples, config.epoch_length_s, rate_hz)
    queue = pipeline.EpochQueue(capacity=config.capacity)
    clock = loopback.SampleClock(rate_hz=rate_hz, acceleration=config.acceleration)
    entries, report = pipeline.run_live(
        source,
        _make_processor(model),
        clock=clock,
        queue=queue,
        deterministic=config.deterministic,
    )
    if config.log_path:
        with Path(config.log_path).open("w") as fh:
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    if config.timing_path:
        with Path(config.timing_path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["num_epochs", "collection_s", "processing_s", "ratio_percent"])
            writer.writerow(
                [
                    report.num_epochs,
                    report.collection_time_s,
                    report.processing_time_s,
                    report.ratio_percent,
                ]
            )
    summary = {
        **queue.counters(),
        "complete": report.complete,
        "error": report.error,
        "collection_s": report.collection_time_s,
        "processing_s": report.processing_time_s,
        "ratio_percent": report.ratio_percent,
    }
    print(json.dumps(summary, sort_keys=True))
    if not report.complete:
        print(f"error: run incomplete: {report.error}", file=sys.stderr)
        return 2
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if min(args.batch_sizes) < 1:
        raise ValueError("batch sizes must be >= 1")
    model = gbt.load_model(Path(args.model).read_bytes())
    processor = _make_processor(model)
    rng = np.random.default_rng(args.seed or 0)
    rows = []
    for length_s in args.epoch_lengths:
        spec = synth.SyntheticSpec(
            epochs_per_class=1, epoch_length_s=length_s, rate_hz=args.rate_hz,
            seed=args.seed or 0,
        )
        epochs = [
            pipeline.Epoch(
                synth.generate_epoch_samples("sham_wake", spec, rng),
                start_index=i * spec.samples_per_epoch,
                length_s=length_s,
                rate_hz=args.rate_hz,
            )
            for i in range(max(args.batch_sizes))
        ]
        # Inference-only latency, separated from preprocessing and extraction.
        config = features.PreprocessConfig()
        fvs = [features.featurize(e, config) for e in epochs]
        t0 = time.perf_counter_ns()
        for fv in fvs:
            gbt.predict_class(model, fv)
        predict_us = (time.perf_counter_ns() - t0) / 1e3 / len(fvs)
        for size in args.batch_sizes:
            _, report = pipeline.run_live(epochs[:size], processor, deterministic=True)
            rows.append(
                {
                    "epoch_length_s": length_s,
                    "num_epochs": report.num_epochs,
                    "collection_s": report.collection_time_s,
                    "processing_s": report.processing_time_s,
                    "ratio_percent": report.ratio_percent,
                    "predict_per_epoch_us": predict_us,
                }
            )
    with Path(args.out).open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "epoch_length_s",
                "num_epochs",
                "collection_s",
                "processing_s",
                "ratio_percent",
                "predict_per_epoch_us",
            ],
        )
        writer.writeheader()
        writer.writerows(rows)
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegloop",
        description="EDF replay, epoch streaming, and boosted-tree EEG classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labelled synthetic EDF dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON generator spec")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs-per-class", dest="epochs_per_class", type=int)
    p.add_argument("--epoch-length", dest="epoch_length_s", type=int)
    p.add_argument("--rate", dest="rate_hz", type=float)
    p.add_argument("--amplitude", dest="amplitude_uv", type=float)
    p.add_argument("--noise", dest="noise_level", type=float)
    p.add_argument("--jitter", dest="amplitude_jitter", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a boosted-tree model on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory (EDFs + labels.csv)")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--train-config", dest="train_config", help="JSON training config")
    p.add_argument("--log", dest="log_file", help="write a JSON training log here")
    p.add_argument("--rounds", type=int)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--l2-lambda", dest="l2_lambda", type=float)
    p.add_argument("--min-child-weight", dest="min_child_weight", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="k-fold cross-validate (or score a fixed model)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output metrics JSON path")
    p.add_argument("--model", help="score this model instead of cross-validating")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-config", dest="train_config")
    p.add_argument("--rounds", type=int)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--l2-lambda", dest="l2_lambda", type=float)
    p.add_argument("--min-child-weight", dest="min_child_weight", type=float)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replay", help="replay an EDF through the converter models")
    p.add_argument("--edf", required=True)
    p.add_argument("--signal", type=int, default=0)
    p.add_argument("--out", help="write the fidelity report JSON here")
    p.add_argument("--dac-bits", dest="dac_bits", type=int, default=12)
    p.add_argument("--adc-bits", dest="adc_bits", type=int, default=10)
    p.add_argument("--vref", type=float, default=3.3)
    p.add_argument("--span", type=float, default=0.9)
    p.add_argument("--gain", type=float, help="volts per unit (overrides --span)")
    p.add_argument("--offset", type=float, default=1.65, help="volts, with --gain")
    p.add_argument("--bypass", action="store_true", help="bypass both converters")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("run", help="live-classify epochs streamed from an EDF or stdin")
    p.add_argument("--input", required=True, help="EDF path, or '-' for stdin floats")
    p.add_argument("--model", required=True)
    p.add_argument("--signal", type=int, default=0)
    p.add_argument("--epoch-length", dest="epoch_length_s", type=int, default=64)
    p.add_argument("--rate", dest="rate_hz", type=float, default=256.0,
                   help="sample rate for stdin input (EDF carries its own)")
    p.add_argument("--capacity", type=int, default=8)
    p.add_argument("--acceleration", type=_parse_acceleration, default=1.0,
                   help="clock speed-up factor, or 'max'")
    p.add_argument("--deterministic", action="store_true",
                   help="single-threaded interleaved stepping")
    p.add_argument("--log", dest="log_file", help="JSONL classification log path")
    p.add_argument("--timing", help="timing CSV path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="time epoch processing across batch sizes")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--epoch-lengths", dest="epoch_lengths", default="16,32,64",
                   type=lambda s: [int(x) for x in s.split(",")])
    p.add_argument("--batch-sizes", dest="batch_sizes", default="1,10,100",
                   type=lambda s: [int(x) for x in s.split(",")])
    p.add_argument("--rate", dest="rate_hz", type=float, default=256.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("EEGLOOP_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
