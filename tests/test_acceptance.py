"""Acceptance gate: one test per shipped guarantee, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Everything here drives the public surfaces (CLI commands and
library API) end to end on synthetic data.
"""

import contextlib
import csv
import io
import json
import time

import numpy as np
import pytest

from eegloop import (
    AdcModel,
    CLASS_NAMES,
    CvConfig,
    DacModel,
    EdfFileHeader,
    EdfSignalHeader,
    EpochQueue,
    FeatureVector,
    SignalTrace,
    TrainConfig,
    VoltageMapping,
    capture,
    confusion,
    extract,
    featurize,
    fold_indices,
    load_dataset,
    load_model,
    metrics,
    parse_edf,
    predict_class,
    predict_margins,
    quantization_error_bound,
    replay_capture,
    save_model,
    to_trace,
    train,
    write_edf,
)
from eegloop.cli import main
from eegloop.features import FEATURE_NAMES
from eegloop.pipeline import Epoch
from eegloop.synth import SyntheticSpec, generate_dataset, generate_epoch_samples


def report(criterion, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {criterion}: {description}{suffix}", flush=True)
    assert passed, f"criterion {criterion} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept-ds")
    generate_dataset(SyntheticSpec(epochs_per_class=30, epoch_length_s=16, seed=7), path)
    return path


@pytest.fixture(scope="module")
def model(small_dataset):
    epochs = load_dataset(small_dataset)
    fvs = [featurize(e) for e in epochs]
    return train(list(zip(fvs, [e.label for e in epochs])), TrainConfig(rounds=20))


@pytest.fixture(scope="module")
def model_path(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("accept-model") / "model.json"
    path.write_bytes(save_model(model))
    return path


def write_stream_edf(path, n_epochs, epoch_length_s, seed):
    """A single-signal EDF holding ``n_epochs`` whole-epoch records."""
    spec = SyntheticSpec(
        epochs_per_class=1, epoch_length_s=epoch_length_s, seed=seed
    )
    rng = np.random.default_rng(seed)
    samples = np.concatenate(
        [generate_epoch_samples("sham_wake", spec, rng) for _ in range(n_epochs)]
    )
    header = EdfFileHeader.create(
        num_signals=1, num_records=n_epochs, record_duration_s=float(epoch_length_s)
    )
    sig = EdfSignalHeader(
        physical_min=-2000.0, physical_max=2000.0,
        samples_per_record=spec.samples_per_epoch,
    )
    path.write_bytes(write_edf(header, [sig], [samples]))
    return path


@pytest.fixture(scope="module")
def live_run_summaries(model_path, tmp_path_factory):
    """The summaries of five ``run --acceleration max`` calls on 100-epoch
    EDFs, one per seed, and the wall time of the five."""
    root = tmp_path_factory.mktemp("accept-run")
    summaries = []
    start = time.time()
    for seed in range(5):
        edf_path = write_stream_edf(root / f"stream{seed}.edf", 100, 64, seed)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["run", "--input", str(edf_path), "--model", str(model_path),
                         "--epoch-length", "64", "--acceleration", "max"]) == 0
        summaries.append(json.loads(out.getvalue()))
    return summaries, time.time() - start


@pytest.fixture(scope="module")
def bench_rows(model_path, tmp_path_factory):
    """The rows of one ``bench`` CSV over 16/32/64 s epochs and batches of
    1, 10 and 100."""
    out = tmp_path_factory.mktemp("accept-bench") / "bench.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["bench", "--model", str(model_path), "--out", str(out),
                     "--epoch-lengths", "16,32,64", "--batch-sizes", "1,10,100"]) == 0
    with out.open(newline="") as fh:
        return list(csv.DictReader(fh))


class TestCriterion1:
    def test_metric_identity_across_runs(self, small_dataset, tmp_path):
        start = time.time()
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "evaluate", "--data", str(small_dataset), "--out", str(out),
                "--folds", "10", "--seed", "7", "--rounds", "15",
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        elapsed = time.time() - start
        report(
            1, "fixed-seed evaluate produces byte-identical metrics JSON",
            outputs[0] == outputs[1] and elapsed < 120,
            f"{len(outputs[0])} bytes each, {elapsed:.1f} s",
        )


class TestCriterion2:
    def test_zero_epoch_loss_across_five_seeded_runs(self, live_run_summaries):
        summaries, elapsed = live_run_summaries
        ok = all(
            s["produced"] == 100 and s["consumed"] == 100 and s["dropped"] == 0
            for s in summaries
        )
        report(
            2, "100 x 64 s accelerated epochs, 5 seeds: produced=consumed=100, dropped=0",
            ok and elapsed < 60,
            f"total {elapsed:.1f} s",
        )


class TestCriterion3:
    def test_processing_far_below_collection(self, live_run_summaries):
        summaries, _ = live_run_summaries
        ratios = [s["ratio_percent"] for s in summaries]
        per_epoch_ms = [1000 * s["processing_s"] / s["num_epochs"] for s in summaries]
        report(
            3, "processing ratio < 1% for 64 s epochs at 256 Hz",
            all(r < 1.0 for r in ratios),
            f"ratios {max(ratios):.4f}% max, per-epoch {np.mean(per_epoch_ms):.2f} ms mean",
        )


class TestCriterion4:
    def test_inference_latency_under_one_millisecond(self, bench_rows):
        mean_us = {row["epoch_length_s"]: float(row["predict_per_epoch_us"])
                   for row in bench_rows}
        report(
            4, "bench: mean predict time < 1 ms over each length's 100 live epochs",
            all(us < 1000 for us in mean_us.values()),
            ", ".join(f"{length} s: {us:.1f} us" for length, us in mean_us.items()),
        )


class TestCriterion5:
    def test_loopback_fidelity_bound_and_bypass(self, small_dataset):
        header, sig_headers, digital = parse_edf(
            (small_dataset / "sham_wake.edf").read_bytes()
        )
        sig = sig_headers[0]
        trace = to_trace(header, sig, digital[0])
        mapping = VoltageMapping.centered(sig.physical_min, sig.physical_max)
        dac, adc = DacModel(12), AdcModel(10)

        # exhaustive sweep oracle for the analytic bound
        sweep = SignalTrace(
            np.linspace(sig.physical_min, sig.physical_max, 200_001), 256.0
        )
        bound = quantization_error_bound(mapping, dac, adc)
        sweep_result = replay_capture(sweep, mapping, dac, adc)
        sweep_ok = sweep_result.max_abs_error <= bound

        result = replay_capture(trace, mapping, dac, adc)
        bypass = replay_capture(trace, mapping, dac=None, adc=None)
        report(
            5, "replay MSE within analytic cascade bound; bypass is exact",
            sweep_ok and result.mse <= bound**2 and bypass.mse == 0.0,
            f"mse {result.mse:.4f} <= {bound**2:.4f} uV^2 "
            f"(hardware reference point: 0.26, units differ; not asserted)",
        )


class TestCriterion6:
    def test_cross_validated_accuracy_bar(self, tmp_path):
        dataset_dir = tmp_path / "default-ds"
        out = tmp_path / "metrics.json"
        assert main(["synth", "--out", str(dataset_dir), "--seed", "0"]) == 0
        assert main([
            "evaluate", "--data", str(dataset_dir), "--out", str(out),
            "--folds", "10", "--seed", "7",
        ]) == 0
        doc = json.loads(out.read_text())
        report(
            6, "10-fold CV on the default synthetic dataset reaches mean accuracy >= 0.90",
            doc["num_epochs"] == 800 and doc["accuracy_mean"] >= 0.90,
            f"mean {doc['accuracy_mean']:.4f}, folds "
            f"{[round(a, 3) for a in doc['accuracy_per_fold']]}",
        )


class TestCriterion7:
    def test_property_suites(self):
        rng = np.random.default_rng(123)
        checks = {}

        # EDF round-trip bit-exactness
        header = EdfFileHeader.create(num_signals=1, num_records=4)
        sig = EdfSignalHeader(samples_per_record=32)
        signal = rng.uniform(-900, 900, 128)
        data = write_edf(header, [sig], [signal])
        parsed, parsed_sigs, digital = parse_edf(data)
        rewritten = write_edf(parsed, parsed_sigs,
                              [to_trace(parsed, parsed_sigs[0], digital[0]).samples])
        checks["edf_round_trip"] = rewritten == data and parsed == header

        # calibration endpoints, and every code decoded by to_trace, encoded by
        # write_edf and read back by parse_edf
        codes = np.arange(sig.digital_min, sig.digital_max + 1)
        phys = to_trace(parsed, sig, codes).samples
        endpoints = phys[0] == sig.physical_min and phys[-1] == sig.physical_max
        every_code = EdfFileHeader.create(num_signals=1,
                                          num_records=codes.size // sig.samples_per_record)
        _, _, (back,) = parse_edf(write_edf(every_code, [sig], [phys]))
        checks["calibration"] = bool(endpoints and np.array_equal(back, codes))

        # ADC monotonicity sweep: through the identity mapping with the DAC
        # bypassed, the observed samples are the ADC codes times its LSB
        sweep = SignalTrace(np.linspace(-1, 5, 10_000), 256.0)
        swept = np.concatenate([block for block, _ in capture(
            sweep, VoltageMapping(1.0, 0.0), None, AdcModel())])
        checks["adc_monotonic"] = bool(np.all(np.diff(swept) >= 0))

        # queue conservation under a random interleaving
        queue = EpochQueue(capacity=3)
        epoch = Epoch(np.zeros(1024), 0, 4, 256.0)
        for op in rng.integers(0, 2, 500):
            queue.enqueue(epoch) if op else queue.dequeue()
        counters = queue.counters()
        checks["queue_conservation"] = counters["produced"] == (
            counters["consumed"] + counters["dropped"] + counters["queued"]
        )

        # relative band powers sum to 1
        noise_epoch = Epoch(rng.standard_normal(4096), 0, 16, 256.0)
        fv = featurize(noise_epoch)
        rel = [fv.values[FEATURE_NAMES.index(f"{b}_rel_power")]
               for b in ("delta", "theta", "alpha", "beta", "gamma")]
        checks["relative_powers"] = abs(sum(rel) - 1.0) < 1e-9

        # Parseval-style band power check within 5%
        n = 4096
        freqs = np.fft.rfftfreq(n, 1 / 256.0)
        spectrum = rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size)
        spectrum[(freqs < 0.5) | (freqs > 60.0)] = 0
        band_limited = np.fft.irfft(spectrum, n)
        fv2 = extract(Epoch(band_limited, 0, 16, 256.0))
        total_band = sum(
            fv2.values[FEATURE_NAMES.index(f"{b}_power")]
            for b in ("delta", "theta", "alpha", "beta", "gamma")
        )
        checks["parseval"] = abs(total_band - np.var(band_limited)) < 0.05 * np.var(band_limited)

        # metrics vs brute-force recount on 1000 random labels
        truth = [CLASS_NAMES[i] for i in rng.integers(0, 4, 1000)]
        pred = [CLASS_NAMES[i] for i in rng.integers(0, 4, 1000)]
        rep = metrics(confusion(truth, pred))
        brute_acc = sum(t == p for t, p in zip(truth, pred)) / 1000
        brute_ok = rep.accuracy == brute_acc
        for c in CLASS_NAMES:
            tp = sum(1 for t, p in zip(truth, pred) if t == c and p == c)
            fp = sum(1 for t, p in zip(truth, pred) if t != c and p == c)
            fn = sum(1 for t, p in zip(truth, pred) if t == c and p != c)
            brute_ok &= rep.precision[c] == tp / (tp + fp)
            brute_ok &= rep.recall[c] == tp / (tp + fn)
        checks["metrics_brute_force"] = brute_ok

        # leaf weight formula -G/(H + lambda) on hand-built gradients; each
        # single-leaf tree's value is that weight times the learning rate
        flat = [FeatureVector(np.zeros(21)) for _ in range(4)]
        labels = [CLASS_NAMES[0], CLASS_NAMES[1], CLASS_NAMES[0], CLASS_NAMES[0]]
        config = TrainConfig(rounds=1, l2_lambda=1.0)
        stump_model = train(list(zip(flat, labels)), config)
        weights = [t["value"] for t in stump_model.trees[0]]
        checks["leaf_weight_formula"] = weights == [
            [config.learning_rate * w] for w in [2.0 / 1.75, 0.0, -1.0 / 1.75, -1.0 / 1.75]
        ]

        # save/load prediction equivalence on 1000 random vectors
        fvs = [FeatureVector(np.zeros(21)) for _ in range(8)]
        seeded = []
        for i, f in enumerate(fvs):
            v = np.zeros(21)
            v[0] = i % 4 + rng.uniform(0, 0.5)
            seeded.append((FeatureVector(v), CLASS_NAMES[i % 4]))
        trained = train(seeded, TrainConfig(rounds=4))
        loaded = load_model(save_model(trained))
        equal = all(
            np.array_equal(
                predict_margins(trained, probe), predict_margins(loaded, probe)
            )
            for probe in (FeatureVector(rng.uniform(-5, 5, 21)) for _ in range(1000))
        )
        checks["save_load_equivalence"] = equal

        # softmax normalization to 1e-12; argmax tie-break and shift invariance
        _, probs = predict_class(trained, FeatureVector(rng.uniform(-5, 5, 21)))
        checks["softmax_normalized"] = abs(float(probs.sum()) - 1.0) < 1e-12
        empty = train(seeded, TrainConfig(rounds=0))
        tie_label, tie_probs = predict_class(empty, FeatureVector(np.zeros(21)))
        checks["argmax_rules"] = (
            tie_label == CLASS_NAMES[0]
            and np.array_equal(tie_probs, np.full(4, 0.25))
        )

        # fold partition properties
        folds = fold_indices(103, CvConfig(folds=10, seed=3))
        sizes = [len(f) for f in folds]
        checks["fold_partition"] = (
            max(sizes) - min(sizes) <= 1
            and np.array_equal(np.sort(np.concatenate(folds)), np.arange(103))
        )

        failed = [name for name, ok in checks.items() if not ok]
        report(
            7, "property suites (EDF, calibration, ADC, queue, features, metrics, GBT)",
            not failed, f"{len(checks)} checks" + (f"; failed: {failed}" if failed else ""),
        )


class TestCriterion8:
    def test_epoch_length_sweep(self, bench_rows):
        per_length_us = {row["epoch_length_s"]: float(row["predict_per_epoch_us"])
                         for row in bench_rows}
        spread_us = max(per_length_us.values()) - min(per_length_us.values())
        report(
            8, "bench sweeps 16/32/64 s epochs; inference time varies < 0.5 ms",
            per_length_us.keys() == {"16", "32", "64"} and len(bench_rows) == 9
            and spread_us < 500,
            f"spread {spread_us:.1f} us across lengths",
        )
