"""Command-line surface: synth, train, evaluate, replay, run, bench.

Settings are the library's own dataclasses: each field is set by its
flag alone, and every value is checked by the class or constructor that
uses it. ``synth``, ``evaluate`` and ``bench`` take ``--seed``. Every
command exits nonzero with a single ``error: ...`` line on stderr when
anything fails, naming the input file it refuses, and a library warning is one
``warning: ...`` line. A command stages its output files once its flags
and model are checked and before any other work, and commits them only
if it succeeds, so a failure, Ctrl-C, SIGTERM or SIGHUP leaves each
output path as it was; an output that resolves to an input or to another
output is refused. Verbosity is controlled only by the
``EEGLOOP_LOG`` environment variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import signal
import sys
import typing
import warnings
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import features, gbt, loopback, pipeline, synth
from .edf import read_signal

log = logging.getLogger("eegloop")


def _settings(cls, args: argparse.Namespace):
    """The dataclass ``cls`` built from the flags given whose ``dest`` is a field
    name; ``cls`` holds every default and checks every value."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)}
    return cls(**{name: value for name, value in given.items() if value is not None})


def _read(path: str, parse, *args):
    """``parse(bytes of the file at path, *args)``; a ``ValueError`` it raises is
    prefixed with ``path`` as given, so every refused input names its file."""
    data = Path(path).read_bytes()
    try:
        return parse(data, *args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_field_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One ``--field-name`` flag per field of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        parser.add_argument(_flag(f.name), dest=f.name, type=hints[f.name])


def _write_json(fh: typing.TextIO, doc: dict) -> None:
    fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_csv(fh: typing.TextIO, rows: list[dict]) -> None:
    """A header named by the first row's keys, then one line per row."""
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


def _output_files(inputs: list[tuple[str, str | Path | None]],
                  outputs: dict[str, tuple[str | None, str]]):
    """Refuse an output ``{flag: (path, mode)}`` whose path resolves to that of an input
    ``(flag, path or None)`` or an earlier output, naming both flags (a device such as
    /dev/null may repeat), then stage them all, before any work, with ``synth._staged``."""
    named = [(flag, path) for flag, (path, _) in outputs.items() if path is not None]
    for i, (flag, path) in enumerate(named):
        for other, other_path in inputs + named[:i]:
            if (other_path is not None and (os.path.isfile(path) or not os.path.exists(path))
                    and os.path.realpath(path) == os.path.realpath(other_path)):
                raise ValueError(f"{flag} {path} is the same file as {other} {other_path}")
    return synth._staged(list(outputs.values()))


def _dataset_inputs(index: tuple[Path, list]) -> list[tuple[str, Path]]:
    """``--data``'s label index and the files its ``file`` column names.

    ``index`` is ``synth.read_label_index``'s result, read once per command
    before any output is opened, so a bad index fails first."""
    path, rows = index
    names = sorted({row["file"] for _, row in rows})
    return [("--data", path)] + [("--data", path.parent / name) for name in names]


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
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a speed-up factor or 'max', got {text!r}") from None


def _featurize_dataset(
    index: tuple[Path, list],
) -> tuple[list[features.FeatureVector], list[str], int]:
    epochs = synth.cut_epochs(*index)
    fvs = [features.featurize(e) for e in epochs]
    labels = [e.label for e in epochs]
    return fvs, labels, epochs[0].length_s


def _warm_up(model: gbt.GbtModel, length_s: int, rate_hz: float) -> None:
    """One 10 Hz sine epoch imports scipy, designs the filter and Welch window, runs
    the filter and the feature branches that a constant epoch skips, and walks the
    trees before a run's clock starts, so epoch 0 is timed like the rest; a band past
    Nyquist fails."""
    t = np.arange(pipeline.samples_per_epoch(length_s, rate_hz)) / rate_hz
    sine = pipeline.Epoch(np.sin(2 * np.pi * 10.0 * t), 0, length_s, rate_hz)
    gbt.predict_labels(model, [features.featurize(sine)])


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers: {text!r}") from None


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _settings(synth.SyntheticSpec, args)
    index_path = synth.generate_dataset(spec, args.out)
    log.info("wrote dataset under %s", args.out)
    print(str(index_path))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _settings(gbt.TrainConfig, args)
    index = synth.read_label_index(args.data)
    outputs = {"--out": (args.out, "wb"), "--log": (args.log_file, "w")}
    with _output_files(_dataset_inputs(index), outputs) as (model_fh, log_fh):
        fvs, labels, _ = _featurize_dataset(index)
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
    # The model, the settings or a fold count past the epoch count fail before
    # the dataset is featurized.
    if args.model:
        for name in (f.name for cls in (ev.CvConfig, gbt.TrainConfig)
                     for f in dataclasses.fields(cls)):
            if getattr(args, name) is not None:
                raise ValueError(f"{_flag(name)} does not apply with --model")
        model, cv_config = _read(args.model, gbt.load_model), None
    else:
        config = _settings(gbt.TrainConfig, args)
        cv_config = _settings(ev.CvConfig, args)
    index = synth.read_label_index(args.data)
    if cv_config is not None:
        ev.fold_indices(len(index[1]), cv_config)
    inputs = [*_dataset_inputs(index), ("--model", args.model)]
    with _output_files(inputs, {"--out": (args.out, "wb")}) as (out,):
        fvs, labels, epoch_length_s = _featurize_dataset(index)
        if args.model:
            cm = ev.confusion(labels, gbt.predict_labels(model, fvs))
            result = ev.CvResult([], ev.metrics(cm).accuracy, cm)
        else:
            def trainer(train_fvs, train_labels):
                model = gbt.train(list(zip(train_fvs, train_labels)), config)
                return lambda fv: gbt.predict_labels(model, [fv])[0]

            result = ev.kfold_cv(fvs, labels, trainer, cv_config)
        out.write(ev.report_bytes(result, epoch_length_s, cv_config))
    print(args.out)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    converters = (loopback.DacModel(args.dac_bits, args.vref),  # checked even if bypassed
                  loopback.AdcModel(args.adc_bits, args.vref))
    dac, adc = (None, None) if args.bypass else converters
    if args.offset is not None and args.gain is None:
        raise ValueError("--offset applies only with --gain")
    with _output_files([("--edf", args.edf)], {"--out": (args.out, "w")}) as (out,):
        _, sig, trace = _read(args.edf, read_signal, args.signal)
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
            "error_bound": loopback.quantization_error_bound(mapping, dac, adc),
            "signal_variance": loopback.variance(trace.samples),
            "hardware_reference_mse": loopback.HARDWARE_LOOPBACK_REFERENCE_MSE,
        }
        if out:
            _write_json(out, doc)
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.input == "-" and args.signal is not None:
        raise ValueError("--signal does not apply with --input -")
    if args.input != "-" and args.rate_hz is not None:
        raise ValueError("--rate does not apply with an EDF --input")
    queue = pipeline.EpochQueue(capacity=args.capacity)
    model = _read(args.model, gbt.load_model)
    # stdin is read to its end before epoch 0, so it is its own clock.
    acceleration = args.acceleration
    if acceleration is None:
        acceleration = math.inf if args.input == "-" else 1.0
    clock = pipeline.SampleClock(acceleration=acceleration)
    inputs = [("--input", None if args.input == "-" else args.input), ("--model", args.model)]
    # Both are written when the run ends, complete or not.
    outputs = {"--log": (args.log_file, "w"), "--timing": (args.timing, "w")}
    with _output_files(inputs, outputs) as (log_fh, timing_fh):
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
            rate_hz = 256.0 if args.rate_hz is None else args.rate_hz
        else:
            _, _, trace = _read(args.input, read_signal, args.signal or 0)
            samples, rate_hz = trace.samples, trace.rate_hz
        per_epoch = pipeline.samples_per_epoch(args.epoch_length_s, rate_hz)
        if samples.size < per_epoch:
            raise ValueError(f"input holds {samples.size} samples, fewer than one "
                             f"{args.epoch_length_s} s epoch of {per_epoch}")
        source = pipeline.assemble(samples, args.epoch_length_s, rate_hz)
        _warm_up(model, args.epoch_length_s, rate_hz)
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
    model = _read(args.model, gbt.load_model)
    clock = pipeline.SampleClock(acceleration=math.inf)
    predict_ns: list[int] = []

    def processor(epoch: pipeline.Epoch) -> str:
        fv = features.featurize(epoch)
        t0 = clock.now_ns()
        label = gbt.predict_labels(model, [fv])[0]
        predict_ns.append(clock.now_ns() - t0)
        return label

    with _output_files([("--model", args.model)], {"--out": (args.out, "w")}) as (out,):
        rng = np.random.default_rng(args.seed)
        rows = []
        for spec in specs:
            stream = np.concatenate([synth.generate_epoch_samples("sham_wake", spec, rng)
                                     for _ in range(max(batch_sizes))])
            _warm_up(model, spec.epoch_length_s, spec.rate_hz)
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
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs-per-class", dest="epochs_per_class", type=int)
    p.add_argument("--epoch-length", dest="epoch_length_s", type=int)
    p.add_argument("--rate", dest="rate_hz", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a boosted-tree model on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory (EDFs + labels.csv)")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--log", dest="log_file", help="write a JSON training log here")
    _add_field_flags(p, gbt.TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="k-fold cross-validate (or score a fixed model)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output metrics JSON path")
    p.add_argument("--model", help="score this model instead of cross-validating")
    _add_field_flags(p, ev.CvConfig)
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
    p.add_argument("--signal", type=int, help="signal of an EDF input (default: 0)")
    p.add_argument("--epoch-length", dest="epoch_length_s", type=int, default=64)
    p.add_argument("--rate", dest="rate_hz", type=float,
                   help="sample rate of stdin input (default: 256; an EDF carries its own)")
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


def _interrupt(signum: int, frame) -> None:
    raise KeyboardInterrupt(signal.Signals(signum).name)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("EEGLOOP_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    # A service manager's stop, or a closed terminal, acts like Ctrl-C; one that is
    # ignored, as under nohup, stays ignored.
    previous = {sig: signal.signal(sig, _interrupt) for sig in (signal.SIGTERM, signal.SIGHUP)
                if signal.getsignal(sig) != signal.SIG_IGN}
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt as exc:  # outside the live loop, which reports its own
            print(f"error: interrupted{f' by {exc}' if exc.args else ''}", file=sys.stderr)
            return 2
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)


if __name__ == "__main__":
    sys.exit(main())
