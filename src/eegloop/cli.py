"""Command-line surface: synth, train, evaluate, replay, run, bench.

Settings are the library's own dataclasses: ``synth``, ``train`` and
``evaluate`` read an optional JSON config file of dataclass fields
(checked before any work starts) and let flags override file values,
and every value is checked by the class or constructor that uses it.
``synth``, ``evaluate`` and ``bench`` take ``--seed``. Every command
exits nonzero with a single ``error: ...``
line on stderr when anything fails, and a library warning is one
``warning: ...`` line. A command opens its output files once its flags
and model are checked and before any other work, and a failure removes
them again. Verbosity is controlled only by the
``EEGLOOP_LOG`` environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import math
import os
import sys
import typing
import warnings
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import features, gbt, loopback, pipeline, synth
from .edf import read_signal

log = logging.getLogger("eegloop")


def _fits(value, hint) -> bool:
    """Whether the JSON value ``value`` can set a field annotated ``hint``."""
    if isinstance(value, bool):
        return hint is bool
    if hint is float:  # an int must fit a float64
        return isinstance(value, float) or (
            isinstance(value, int) and abs(value) <= sys.float_info.max)
    return isinstance(value, typing.get_origin(hint) or hint)


def _settings(cls, path: str | None, args: argparse.Namespace, **parsers):
    """Build the dataclass ``cls`` from a JSON config file, then flags.

    The file may set any field of ``cls`` with a value of the field's
    type; ``parsers`` turn a field's JSON value into the field's value. A
    flag whose ``dest`` is a field name overrides the file, and ``cls``
    checks the result.
    """
    hints = typing.get_type_hints(cls)
    types = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    values = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or too deep
            raise ValueError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ValueError(f"config {path} must hold a JSON object")
        for key, value in doc.items():
            if key not in types:
                raise ValueError(f"config {path}: unknown field {key!r}")
            if not _fits(value, types[key]):
                raise ValueError(f"config {path}: field {key!r} has the wrong type")
            values[key] = parsers.get(key, lambda v: v)(value)
    for name in types:
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    return cls(**values)


def _add_field_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One ``--field-name`` flag per field of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            type=hints[f.name])


def _write_json(fh: typing.TextIO, doc: dict) -> None:
    fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_csv(fh: typing.TextIO, rows: list[dict]) -> None:
    """A header named by the first row's keys, then one line per row."""
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


@contextlib.contextmanager
def _output_files():
    """Yield ``open_output(path, mode="w")``, which opens an output file at once, so a
    bad path fails before any work. If the block raises, the regular files opened (not
    a device such as /dev/null) are removed: a failed command leaves no output behind."""
    with contextlib.ExitStack() as unfinished, contextlib.ExitStack() as files:
        def open_output(path: str, mode: str = "w") -> typing.IO:
            fh = files.enter_context(open(path, mode, newline=None if "b" in mode else ""))
            if os.path.isfile(path):
                unfinished.callback(Path(path).unlink, missing_ok=True)
            return fh

        yield open_output
        unfinished.pop_all()


def _timing_row(report: pipeline.TimingReport) -> dict:
    """The timing fields of a run report, as the summary and CSVs give them."""
    return {
        "num_epochs": report.num_epochs,
        "collection_s": report.collection_time_s,
        "processing_s": report.processing_time_s,
        "ratio_percent": report.ratio_percent,
    }


def _parse_acceleration(text: str) -> float:
    if text.lower() in ("max", "inf"):
        return math.inf
    return float(text)


def _parse_profiles(doc: dict) -> dict[str, synth.ClassProfile]:
    profiles = {}
    for name, entry in doc.items():
        if not (isinstance(entry, dict) and "bumps" in entry
                and entry.keys() <= {"bumps", "power_scale"}):
            raise ValueError(
                f"profile {name!r} needs 'bumps' and may set only 'power_scale'"
            )
        bumps, power_scale = entry["bumps"], entry.get("power_scale", 1.0)
        if not isinstance(bumps, list) or not all(
            isinstance(b, list) and len(b) == 3 and all(_fits(v, float) for v in b)
            for b in bumps
        ) or not _fits(power_scale, float):
            raise ValueError(f"profile {name!r}: bumps must be [center_hz, width_hz, "
                             "weight] numbers and power_scale a number")
        profiles[name] = synth.ClassProfile(tuple(map(tuple, bumps)), power_scale)
    return profiles


def _featurize_dataset(
    dataset_dir: str,
) -> tuple[list[features.FeatureVector], list[str], int]:
    epochs = synth.load_dataset(dataset_dir)
    fvs = [features.featurize(e) for e in epochs]
    labels = [e.label for e in epochs]
    return fvs, labels, epochs[0].length_s


def _warm_up(length_s: int, rate_hz: float) -> None:
    """One silent epoch imports scipy and designs the filter and Welch window before a
    run's clock starts, so epoch 0 is timed like the rest; a band past Nyquist fails."""
    silence = np.zeros(pipeline.samples_per_epoch(length_s, rate_hz))
    features.featurize(pipeline.Epoch(silence, 0, length_s, rate_hz))


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers: {text!r}") from None


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _settings(synth.SyntheticSpec, args.config, args, profiles=_parse_profiles)
    index_path = synth.generate_dataset(spec, args.out)
    log.info("wrote dataset under %s", args.out)
    print(str(index_path))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _settings(gbt.TrainConfig, args.train_config, args)
    with _output_files() as open_output:
        model_fh = open_output(args.out, "wb")
        log_fh = open_output(args.log_file) if args.log_file else None
        fvs, labels, _ = _featurize_dataset(args.data)
        model = gbt.train(list(zip(fvs, labels)), config)
        model_fh.write(gbt.save_model(model))
        if log_fh:
            _write_json(
                log_fh,
                {
                    "config": dataclasses.asdict(config),
                    "num_epochs": len(fvs),
                    "log_loss_per_round": model.training_loss,
                },
            )
    print(args.out)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    # The model or the settings fail before the dataset is featurized.
    if args.model:
        model = gbt.load_model(Path(args.model).read_bytes())
    else:
        train_config = _settings(gbt.TrainConfig, args.train_config, args)
        cv_config = _settings(ev.CvConfig, None, args)
    with _output_files() as open_output:
        out = open_output(args.out, "wb")
        fvs, labels, epoch_length_s = _featurize_dataset(args.data)
        if args.model:
            cm = ev.confusion(labels, gbt.predict_labels(model, fvs))
            report = ev.report_bytes(cm, epoch_length_s, folds=None, seed=None,
                                     accuracy_mean=ev.metrics(cm).accuracy,
                                     accuracy_per_fold=[])
        else:
            def trainer(train_fvs, train_labels):
                model = gbt.train(list(zip(train_fvs, train_labels)), train_config)
                return lambda fv: gbt.predict_labels(model, [fv])[0]

            result = ev.kfold_cv(fvs, labels, trainer, cv_config)
            report = ev.report_bytes(
                result.pooled, epoch_length_s, folds=cv_config.folds,
                seed=cv_config.seed, accuracy_mean=result.mean_accuracy,
                accuracy_per_fold=[m.accuracy for m in result.per_fold],
            )
        out.write(report)
    print(args.out)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    converters = (loopback.DacModel(args.dac_bits, args.vref),  # checked even if bypassed
                  loopback.AdcModel(args.adc_bits, args.vref))
    dac, adc = (None, None) if args.bypass else converters
    if args.offset is not None and args.gain is None:
        raise ValueError("--offset applies only with --gain")
    with _output_files() as open_output:
        out = open_output(args.out) if args.out else None
        _, sig, trace = read_signal(Path(args.edf).read_bytes(), args.signal)
        if args.gain is not None:
            offset = args.vref / 2 if args.offset is None else args.offset
            mapping = loopback.VoltageMapping(args.gain, offset)
        else:
            mapping = loopback.VoltageMapping.centered(
                sig.physical_min, sig.physical_max, args.vref, args.span
            )
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
            "signal_variance": loopback.variance(trace.samples),
            "hardware_reference_mse": loopback.HARDWARE_LOOPBACK_REFERENCE_MSE,
        }
        if out:
            _write_json(out, doc)
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    queue = pipeline.EpochQueue(capacity=args.capacity)
    model = gbt.load_model(Path(args.model).read_bytes())
    # stdin is read to its end before epoch 0, so it is its own clock.
    acceleration = args.acceleration
    if acceleration is None:
        acceleration = math.inf if args.input == "-" else 1.0
    clock = loopback.SampleClock(acceleration=acceleration)
    with _output_files() as open_output:
        # Both are written when the run ends, complete or not.
        log_fh, timing_fh = (open_output(path) if path else None
                             for path in (args.log_file, args.timing))
        if args.input == "-":
            with warnings.catch_warnings():
                # An empty stdin is reported below as one error line.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                samples = np.loadtxt(sys.stdin, dtype=np.float64).reshape(-1)
            if samples.size == 0:
                raise ValueError("stdin holds no samples")
            if not (finite := np.isfinite(samples)).all():
                i = int(np.argmin(finite))
                raise ValueError(f"stdin sample {i} is not finite: {samples[i]}")
            rate_hz = args.rate_hz
        else:
            _, _, trace = read_signal(Path(args.input).read_bytes(), args.signal)
            samples, rate_hz = trace.samples, trace.rate_hz
        per_epoch = pipeline.samples_per_epoch(args.epoch_length_s, rate_hz)
        if samples.size < per_epoch:
            raise ValueError(f"input holds {samples.size} samples, fewer than one "
                             f"{args.epoch_length_s} s epoch of {per_epoch}")
        source = pipeline.assemble(samples, args.epoch_length_s, rate_hz)
        _warm_up(args.epoch_length_s, rate_hz)
        entries, report = pipeline.run_live(
            source, lambda epoch: gbt.predict_labels(model, [features.featurize(epoch)])[0],
            clock=clock, queue=queue)
        if log_fh:
            log_fh.writelines(json.dumps(entry, sort_keys=True) + "\n" for entry in entries)
        if timing_fh:
            _write_csv(timing_fh, [_timing_row(report)])
    summary = {
        **queue.counters(),
        **_timing_row(report),
        "complete": report.complete,
        "error": report.error,
    }
    print(json.dumps(summary, sort_keys=True))
    if not report.complete:
        print(f"error: run incomplete: {report.error}", file=sys.stderr)
        return 2
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    epoch_lengths = _int_list(args.epoch_lengths, "--epoch-lengths")
    batch_sizes = _int_list(args.batch_sizes, "--batch-sizes")
    if min(batch_sizes) < 1:
        raise ValueError("batch sizes must be >= 1")
    specs = [synth.SyntheticSpec(epochs_per_class=1, epoch_length_s=length_s,
                                 rate_hz=args.rate_hz, seed=args.seed)
             for length_s in epoch_lengths]
    model = gbt.load_model(Path(args.model).read_bytes())
    clock = loopback.SampleClock(acceleration=math.inf)
    predict_ns: list[int] = []

    def processor(epoch: pipeline.Epoch) -> str:
        fv = features.featurize(epoch)
        t0 = clock.now_ns()
        label = gbt.predict_labels(model, [fv])[0]
        predict_ns.append(clock.now_ns() - t0)
        return label

    with _output_files() as open_output:
        out = open_output(args.out)
        rng = np.random.default_rng(args.seed)
        rows = []
        for spec in specs:
            stream = np.concatenate([synth.generate_epoch_samples("sham_wake", spec, rng)
                                     for _ in range(max(batch_sizes))])
            _warm_up(spec.epoch_length_s, spec.rate_hz)
            predict_ns.clear()
            entries, report = pipeline.run_live(pipeline.assemble(
                stream, spec.epoch_length_s, spec.rate_hz), processor, clock=clock)
            if not report.complete:
                raise ValueError(f"bench run incomplete: {report.error}")
            predict_us = sum(predict_ns) / len(predict_ns) / 1e3
            for size in batch_sizes:  # the row for N epochs reads the first N entries
                processing_s = sum(entry["processing_us"] for entry in entries[:size]) / 1e6
                prefix = pipeline.TimingReport(size, float(size * spec.epoch_length_s),
                                               processing_s)
                rows.append({"epoch_length_s": spec.epoch_length_s, **_timing_row(prefix),
                             "predict_per_epoch_us": predict_us})
        _write_csv(out, rows)
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
    _add_field_flags(p, gbt.TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="k-fold cross-validate (or score a fixed model)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output metrics JSON path")
    p.add_argument("--model", help="score this model instead of cross-validating")
    _add_field_flags(p, ev.CvConfig)
    p.add_argument("--train-config", dest="train_config")
    _add_field_flags(p, gbt.TrainConfig)
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
    p.add_argument("--offset", type=float, help="volts, with --gain (default: --vref / 2)")
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
    p.add_argument("--acceleration", type=_parse_acceleration,
                   help="clock speed-up factor, or 'max' to classify each "
                        "epoch as soon as it is read (default: 1 for an EDF, "
                        "max for stdin)")
    p.add_argument("--log", dest="log_file", help="JSONL classification log path")
    p.add_argument("--timing", help="timing CSV path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="time epoch processing across batch sizes")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--epoch-lengths", dest="epoch_lengths", default="16,32,64")
    p.add_argument("--batch-sizes", dest="batch_sizes", default="1,10,100")
    p.add_argument("--rate", dest="rate_hz", type=float, default=256.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("EEGLOOP_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:  # Ctrl-C outside the live loop, which reports its own
            print("error: interrupted", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
