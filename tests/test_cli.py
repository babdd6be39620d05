"""End-to-end command-line behaviour: outputs, determinism, error paths."""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import VirtualClock
from eegloop import cli, features, gbt, pipeline, synth
from eegloop import evaluate as ev
from eegloop.classes import CLASS_NAMES
from eegloop.cli import main
from eegloop.edf import EdfFileHeader, EdfSignalHeader, write_edf
from eegloop.features import SCHEMA_ID, schema_id


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic dataset plus a trained model."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "ds"
    model = root / "model.json"
    assert main(["synth", "--out", str(data), "--seed", "7",
                 "--epochs-per-class", "10", "--epoch-length", "4"]) == 0
    assert main(["train", "--data", str(data), "--out", str(model),
                 "--rounds", "8"]) == 0
    return root, data, model


@pytest.fixture(scope="module")
def seed7_data(tmp_path_factory):
    """The default synthetic dataset of seed 7: 800 epochs of 16 s."""
    data = tmp_path_factory.mktemp("seed7") / "ds"
    assert main(["synth", "--out", str(data), "--seed", "7"]) == 0
    return data


@pytest.fixture(autouse=True)
def no_staged_file_left(tmp_path):
    """After each test, no output's temp file (``synth._staged``'s) is left."""
    yield
    assert sorted(tmp_path.rglob(".eegloop-*")) == []


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_one_error_line(err):
    assert err.startswith("error:") and err.count("\n") == 1


def edited_model(model, tmp_path, edit):
    """A copy of ``model`` whose parsed JSON ``edit`` has changed in place."""
    doc = json.loads(model.read_text())
    edit(doc)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    return edited


def mismatched_model(model, tmp_path):
    """A copy of ``model`` that loads, under a schema no extractor produces."""
    def edit(doc):
        schema = doc["feature_schema"]
        schema["parameters"]["welch_overlap"] = 0.25
        del schema["schema_id"]
        schema["schema_id"] = schema_id(schema)

    return edited_model(model, tmp_path, edit)


@pytest.fixture
def failing_classifier(monkeypatch):
    """The CLI's classifier, made to raise from its second call on."""
    predict_margins, calls = gbt.predict_margins, []

    def failing_predict_margins(model, fv):
        calls.append(fv)
        if len(calls) >= 2:
            raise ValueError("classifier failed")
        return predict_margins(model, fv)

    monkeypatch.setattr(gbt, "predict_margins", failing_predict_margins)


def tampered_model(model, tmp_path):
    """A copy of ``model`` under the current schema id whose feature list
    is longer than any vector's, and whose first split routes on it."""
    def edit(doc):
        doc["feature_schema"]["features"] += [f"extra_{i}" for i in range(5)]
        root = doc["trees"][0][0]
        assert root["left"][0] == 1
        root["feature"][0] = 25

    return edited_model(model, tmp_path, edit)


class TestSynth:
    def test_writes_one_edf_per_class_and_index(self, workspace):
        _, data, _ = workspace
        for cls in CLASS_NAMES:
            assert (data / f"{cls}.edf").exists()
        assert (data / "labels.csv").exists()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        _, data, _ = workspace
        again = tmp_path / "again"
        assert main(["synth", "--out", str(again), "--seed", "7",
                     "--epochs-per-class", "10", "--epoch-length", "4"]) == 0
        for cls in CLASS_NAMES:
            assert (again / f"{cls}.edf").read_bytes() == (data / f"{cls}.edf").read_bytes()

    def test_flags_set_the_spec(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth", "--out", str(out), "--seed", "1", "--epoch-length", "4",
                     "--epochs-per-class", "3"]) == 0
        rows = (out / "labels.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3 * 4  # header + epochs

    def test_setting_that_overflows_fails_by_its_class(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "x"), "--noise", "1e308",
                     "--epochs-per-class", "1", "--epoch-length", "4"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith("error: class 'sham_wake' cannot be generated: overflow ")

    @pytest.mark.parametrize("found", ["new_dir", "existing_dir", "existing_dataset"])
    def test_class_that_fails_leaves_out_as_found(self, tmp_path, capsys, monkeypatch,
                                                  found):
        out = tmp_path / "ds" / "nested"
        flags = ["synth", "--out", str(out), "--epochs-per-class", "1", "--epoch-length", "4"]
        if found == "existing_dir":
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept")
        if found == "existing_dataset":  # a later run of other settings fails
            assert main([*flags, "--seed", "3"]) == 0
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        # tbi_sleep is the last class, so the other three are written first.
        generate = synth.generate_epoch_samples

        def failing_generate(label, spec, rng):
            if label == "tbi_sleep":
                raise FloatingPointError("overflow encountered in multiply")
            return generate(label, spec, rng)

        monkeypatch.setattr(synth, "generate_epoch_samples", failing_generate)
        capsys.readouterr()
        assert main(flags) == 2
        assert "class 'tbi_sleep' cannot be generated" in capsys.readouterr().err
        after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        assert after == before
        if found == "new_dir":
            assert not (tmp_path / "ds").exists()
        if found == "existing_dataset":
            assert len(before) == 5

    @pytest.mark.parametrize(
        "flags, cause",
        [(["--noise", "nan"], "noise_level"),
         (["--jitter", "nan"], "amplitude_jitter"),
         (["--jitter", "-1"], "amplitude_jitter"),
         (["--amplitude", "nan"], "amplitude_uv"),
         (["--amplitude", "0.04"], "amplitude_uv"),
         (["--amplitude", "1e7"], "amplitude_uv"),
         (["--rate", "1e9"], "samples_per_record")],
        ids=["nan_noise", "nan_jitter", "negative_jitter", "nan_amplitude",
             "tiny_amplitude", "huge_amplitude", "huge_rate"],
    )
    def test_invalid_setting_fails_cleanly(self, tmp_path, capsys, flags, cause):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--epochs-per-class", "2",
                     "--epoch-length", "4", *flags]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert cause in err
        assert not out.exists()


def fresh_interpreter_env():
    """The environment for a subprocess that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_does_not_load_scipy():
    # scipy costs about a second to import; only feature extraction needs it.
    code = "import sys, eegloop.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_interpreter_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


class TestTrain:
    def test_same_seed_same_model_bytes(self, workspace, tmp_path):
        _, data, model = workspace
        second = tmp_path / "model2.json"
        assert main(["train", "--data", str(data), "--out", str(second),
                     "--rounds", "8"]) == 0
        assert second.read_bytes() == model.read_bytes()

    def test_empty_dataset_dir_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["train", "--data", str(empty), "--out", str(tmp_path / "m.json")])
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_annotation_only_file_fails_cleanly(self, tmp_path, capsys):
        header = EdfFileHeader(num_records=3, record_duration_s=4.0)
        notes = EdfSignalHeader(label="EDF Annotations", samples_per_record=1024)
        (tmp_path / "notes.edf").write_bytes(write_edf(header, [notes], [np.zeros(3072)]))
        (tmp_path / "labels.csv").write_text("file,epoch_index,class\nnotes.edf,0,sham_wake\n")
        code = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "warning: skipping annotation signal at index 0",
            "error: notes.edf: no signal 0; the file has 0 signal(s)",
        ]

    @pytest.mark.parametrize("epoch_index", ["-2", "10"])
    def test_epoch_index_outside_its_file_fails_cleanly(self, workspace, tmp_path,
                                                        capsys, epoch_index):
        _, data, _ = workspace
        copy = tmp_path / "ds"
        shutil.copytree(data, copy)
        index = copy / "labels.csv"
        lines = index.read_text().splitlines()
        lines[1] = f"sham_wake.edf,{epoch_index},sham_wake"
        index.write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(copy), "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert (f"error: label index {index} line 2: epoch_index {epoch_index} "
                f"is outside sham_wake.edf's 10 epochs\n") == err

    def test_epoch_index_that_is_not_an_integer_fails_cleanly(self, workspace, tmp_path,
                                                              capsys):
        _, data, _ = workspace
        copy = tmp_path / "ds"
        shutil.copytree(data, copy)
        index = copy / "labels.csv"
        lines = index.read_text().splitlines()
        lines[1] = "sham_wake.edf,1.0,sham_wake"
        index.write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(copy), "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"{index} line 2: epoch_index '1.0' is not an integer" in err

    def test_unknown_class_label_fails_cleanly(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        copy = tmp_path / "ds"
        shutil.copytree(data, copy)
        index = copy / "labels.csv"
        lines = index.read_text().splitlines()
        lines[1] = "sham_wake.edf,0,sham_wak"
        index.write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(copy), "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"{index} line 2: unknown class label: 'sham_wak'" in err

    def test_no_l2_penalty_trains_past_an_empty_leaf(self, tmp_path):
        # This dataset reaches a split that sends no sample left, and with
        # no penalty that leaf's weight used to divide 0 by 0.
        data, model = tmp_path / "ds", tmp_path / "m.json"
        assert main(["synth", "--out", str(data), "--seed", "1",
                     "--epochs-per-class", "15", "--epoch-length", "4"]) == 0
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--l2-lambda", "0", "--min-child-weight", "0"]) == 0
        assert len(gbt.load_model(model.read_bytes()).trees) == 30

    def test_default_model_bytes_match_the_pin(self, seed7_data, tmp_path):
        # The format 1 model of the per-node sort that the presorted split
        # search replaced, converted to format 2 apart from the trainer.
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(seed7_data), "--out", str(model)]) == 0
        assert sha256(model) == (
            "173c8a5352758833777c036f932e3bf0d30b300c73b68e2d49b7a3b9ed61f51d")

    def test_no_l2_penalty_trains_without_dividing_by_zero(self, seed7_data, tmp_path,
                                                           capsys):
        # Here a right side's hessian sum rounds to 0, and the gain table
        # used to divide by it: numpy warned, and the inf gains won splits.
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert main(["train", "--data", str(seed7_data), "--out", str(model),
                     "--rounds", "200", "--learning-rate", "1", "--l2-lambda", "0",
                     "--min-child-weight", "0"]) == 0
        assert "warning:" not in capsys.readouterr().err
        assert sha256(model) == (
            "8b55a1d5b2932fb8716c2d824bbec2b09c2afc99daff57eca0bc2bbb35768e89")

    def test_training_log_loss_is_non_increasing(self, workspace, tmp_path):
        _, data, _ = workspace
        log_path = tmp_path / "train_log.json"
        assert main(["train", "--data", str(data), "--out",
                     str(tmp_path / "m.json"), "--rounds", "6",
                     "--log", str(log_path)]) == 0
        doc = json.loads(log_path.read_text())
        losses = doc["log_loss_per_round"]
        assert len(losses) == 7
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_flags_set_the_logged_config(self, workspace, tmp_path):
        _, data, _ = workspace
        log_path = tmp_path / "train_log.json"
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                     "--max-depth", "2", "--rounds", "3",
                     "--log", str(log_path)]) == 0
        doc = json.loads(log_path.read_text())
        assert doc["config"]["rounds"] == 3
        assert doc["config"]["max_depth"] == 2
        assert len(doc["log_loss_per_round"]) == 1 + 3

    def test_integer_for_a_float_flag_logs_as_the_default(self, workspace, tmp_path):
        _, data, _ = workspace
        default_log, flag_log = tmp_path / "default.json", tmp_path / "flag.json"
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "a.json"),
                     "--rounds", "2", "--log", str(default_log)]) == 0
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "b.json"),
                     "--rounds", "2", "--l2-lambda", "1", "--log", str(flag_log)]) == 0
        assert flag_log.read_bytes() == default_log.read_bytes()
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()

    @pytest.mark.parametrize(
        "flags, cause",
        [(["--l2-lambda", "nan"], "l2_lambda must be >= 0"),
         (["--min-child-weight", "nan"], "min_child_weight must be >= 0"),
         (["--min-child-weight", "-5"], "min_child_weight must be >= 0")],
        ids=["nan_l2_lambda", "nan_min_child_weight", "negative_min_child_weight"],
    )
    def test_bad_train_setting_rejected(self, workspace, tmp_path, capsys, flags, cause):
        _, data, _ = workspace
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"error: {cause}\n"
        assert not out.exists()


class TestEvaluate:
    def test_cross_validation_report_shape(self, workspace, tmp_path):
        _, data, _ = workspace
        out = tmp_path / "metrics.json"
        assert main(["evaluate", "--data", str(data), "--out", str(out),
                     "--folds", "5", "--seed", "7", "--rounds", "8"]) == 0
        doc = json.loads(out.read_text())
        assert doc["folds"] == 5
        assert len(doc["accuracy_per_fold"]) == 5
        assert set(doc["per_class"]) == set(CLASS_NAMES)
        assert np.array(doc["pooled_confusion"]).sum() == 40

    def test_repeat_run_is_byte_identical(self, workspace, tmp_path):
        _, data, _ = workspace
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["evaluate", "--data", str(data), "--folds", "5",
                "--seed", "7", "--rounds", "8"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cross_validation_report_matches_the_pin(self, tmp_path):
        data, out = tmp_path / "ds", tmp_path / "metrics.json"
        assert main(["synth", "--out", str(data), "--seed", "7",
                     "--epochs-per-class", "12"]) == 0
        assert main(["evaluate", "--data", str(data), "--out", str(out),
                     "--folds", "3"]) == 0
        assert sha256(out) == (
            "4bd06e3101cd20049bdfca6513b0e64b264d4fbbeadb99bcb040fb1ec3f18ddd")

    def test_fixed_model_mode(self, workspace, tmp_path):
        _, data, model = workspace
        out = tmp_path / "fixed.json"
        assert main(["evaluate", "--data", str(data), "--out", str(out),
                     "--model", str(model)]) == 0
        doc = json.loads(out.read_text())
        assert doc["folds"] is None
        assert doc["accuracy_mean"] > 0.5  # scored on its own training data

    def test_fixed_model_report_matches_the_pin(self, workspace, tmp_path):
        _, _, model = workspace
        data, out = tmp_path / "ds", tmp_path / "fixed.json"
        assert main(["synth", "--out", str(data), "--seed", "8",
                     "--epochs-per-class", "10", "--epoch-length", "4"]) == 0
        assert main(["evaluate", "--data", str(data), "--out", str(out),
                     "--model", str(model)]) == 0
        assert sha256(out) == (
            "3761885e61bbaf9e64aea1d7db796db29e7317f9e5c4750d94529643e4df851d")

    def test_file_of_another_epoch_length_fails_cleanly(self, workspace, tmp_path,
                                                         capsys):
        _, data, _ = workspace
        copy, other = tmp_path / "ds", tmp_path / "other"
        shutil.copytree(data, copy)
        assert main(["synth", "--out", str(other), "--seed", "7",
                     "--epochs-per-class", "10", "--epoch-length", "16"]) == 0
        shutil.copy(other / "tbi_sleep.edf", copy / "tbi_sleep.edf")
        capsys.readouterr()
        assert main(["evaluate", "--data", str(copy), "--out", str(tmp_path / "m.json"),
                     "--folds", "3"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "tbi_sleep.edf: records of 16 s at 256 Hz differ from" in err

    def test_label_index_error_names_the_physical_line(self, workspace, tmp_path, capsys,
                                                        bad_class_on_line_5):
        _, data, _ = workspace
        copy = tmp_path / "ds"
        shutil.copytree(data, copy)
        index = copy / "labels.csv"
        index.write_text(bad_class_on_line_5)
        assert main(["evaluate", "--data", str(copy), "--out", str(tmp_path / "m.json"),
                     "--folds", "2"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"{index} line 5: unknown class label: 'sham_wak'" in err

    @pytest.mark.parametrize("label", ["sham_wake", "tbi_sleep"], ids=["same", "other"])
    def test_epoch_listed_twice_fails_cleanly(self, workspace, tmp_path, capsys, label):
        _, data, _ = workspace
        copy = tmp_path / "ds"
        shutil.copytree(data, copy)
        index = copy / "labels.csv"
        index.write_text(index.read_text() + f"sham_wake.edf,0,{label}\n")
        assert main(["evaluate", "--data", str(copy), "--out", str(tmp_path / "m.json"),
                     "--folds", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err)
        assert f"{index} line 42: epoch 0 of sham_wake.edf is already listed on line 2" in err

    @pytest.mark.parametrize("command", [["train"], ["evaluate", "--folds", "2"]],
                             ids=["train", "evaluate"])
    @pytest.mark.parametrize(
        "tail, cause",
        [(b'sham_wake.edf,0,"' + b"x" * 131_073 + b'"\n',
          "is not CSV text: field larger than field limit (131072)"),
         (b"sham_wake.edf,0,sham_\xffwake\n",
          "is not CSV text: 'utf-8' codec can't decode byte 0xff"),
         (b"sham_wake.edf\n", "line 42: too few fields")],
        ids=["field_too_large", "undecodable_byte", "short_row"],
    )
    def test_unreadable_label_index_fails_before_any_output(self, workspace, tmp_path,
                                                            capsys, command, tail, cause):
        _, data, _ = workspace
        copy, out = tmp_path / "ds", tmp_path / "out.json"
        shutil.copytree(data, copy)
        index = copy / "labels.csv"
        index.write_bytes(index.read_bytes() + tail)
        assert main([*command, "--data", str(copy), "--out", str(out)]) == 2
        std_out, err = capsys.readouterr()
        assert std_out == ""
        assert_one_error_line(err)
        assert err.startswith(f"error: label index {index} {cause}")
        assert not out.exists()

    def test_cross_validation_predicts_without_a_softmax(self, workspace, tmp_path,
                                                          softmax_calls):
        _, data, _ = workspace
        assert main(["evaluate", "--data", str(data), "--out", str(tmp_path / "m.json"),
                     "--folds", "2", "--rounds", "3"]) == 0
        # Each fold's train runs one per round plus one; its predictor runs none.
        assert softmax_calls == [(20, len(CLASS_NAMES))] * 2 * (3 + 1)

    def test_more_folds_than_epochs_fails(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        code = main(["evaluate", "--data", str(data), "--out",
                     str(tmp_path / "m.json"), "--folds", "100"])
        assert code != 0
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["train", "--rounds", "2"],
                                     ["evaluate", "--folds", "2", "--rounds", "2"],
                                     ["evaluate", "--model"]],
                         ids=["train", "evaluate", "evaluate_model"])
def test_dataset_commands_read_the_label_index_once(workspace, tmp_path, monkeypatch,
                                                    command):
    _, data, model = workspace
    read, reads = synth.read_label_index, []

    def counted(dataset_dir):
        reads.append(dataset_dir)
        return read(dataset_dir)

    monkeypatch.setattr(synth, "read_label_index", counted)
    if command[-1] == "--model":
        command = [*command, str(model)]
    assert main([*command, "--data", str(data), "--out", str(tmp_path / "out")]) == 0
    assert reads == [str(data)]


class TestReplay:
    def test_high_resolution_mse_below_variance_fraction(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        assert main(["replay", "--edf", str(data / "sham_wake.edf"),
                     "--dac-bits", "16", "--adc-bits", "16"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["mse"] < 1e-6 * doc["signal_variance"]

    def test_default_path_within_error_bound(self, workspace, capsys):
        _, data, _ = workspace
        assert main(["replay", "--edf", str(data / "tbi_sleep.edf")]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["mse"] <= doc["error_bound"] ** 2
        assert doc["max_abs_error"] <= doc["error_bound"]
        assert doc["clip_count"] == 0
        assert doc["hardware_reference_mse"] == 0.26

    def test_bypass_is_lossless(self, workspace, capsys):
        _, data, _ = workspace
        assert main(["replay", "--edf", str(data / "sham_wake.edf"), "--bypass"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["mse"] == 0.0

    def test_excess_gain_reports_clipping(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        out = tmp_path / "clip.json"
        assert main(["replay", "--edf", str(data / "sham_wake.edf"),
                     "--gain", "0.05", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["clip_count"] > 0

    @pytest.mark.parametrize(
        "flags, digest",
        [([], "8037e64e4d63690fd0e929a7687af56db7b590aa82f7b1e45bb78e9475ca644a"),
         (["--dac-bits", "16", "--adc-bits", "16"],
          "e0b86f61bd987d5736a81150b8de569b90ec57bdc74c50d5702d7b8a2bfccff9"),
         (["--gain", "0.1", "--offset", "1.65"],
          "ee832b2555100eeb5d0bd3c1a71964d2e5fd5feffdaaa05d1b6e059c55e31c85"),
         (["--bypass"], "9c4322e9046ec8aeca934f5561e27d308027f9ef094123e9c076f3c388b1e145")],
        ids=["default", "16_bit", "gain_offset", "bypass"],
    )
    def test_report_matches_the_pin(self, workspace, tmp_path, monkeypatch, flags, digest):
        _, data, _ = workspace
        out = tmp_path / "replay.json"
        monkeypatch.chdir(data)  # the report names the EDF as it was given
        assert main(["replay", "--edf", "sham_wake.edf", "--out", str(out), *flags]) == 0
        assert sha256(out) == digest

    def test_calibration_from_high_to_low_replays(self, tmp_path, capsys):
        # The same samples under the one calibration, written either way round.
        samples = 100 * np.sin(np.linspace(0, 60, 4096))
        reports = []
        for low, high in [(-500.0, 500.0), (500.0, -500.0)]:
            sig = EdfSignalHeader(physical_min=low, physical_max=high,
                                  samples_per_record=1024)
            edf = tmp_path / f"{low:+g}.edf"
            edf.write_bytes(write_edf(EdfFileHeader(num_records=4, record_duration_s=4.0),
                                      [sig], [samples]))
            assert main(["replay", "--edf", str(edf)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        ordered, reversed_ = reports
        assert reversed_["mse"] <= reversed_["error_bound"] ** 2
        assert reversed_["error_bound"] == ordered["error_bound"]

    def test_signal_out_of_range_fails_cleanly(self, workspace, capsys):
        _, data, _ = workspace
        assert main(["replay", "--edf", str(data / "sham_wake.edf"),
                     "--signal", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err)
        assert "1 signal" in err

    def test_offset_without_gain_fails_cleanly(self, workspace, capsys):
        _, data, _ = workspace
        assert main(["replay", "--edf", str(data / "sham_wake.edf"),
                     "--offset", "1.0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --offset applies only with --gain\n"

    def test_gain_offset_defaults_to_half_vref(self, workspace, capsys):
        _, data, _ = workspace
        reports = []
        for flags in ([], ["--offset", "2.5"], ["--offset", "1.65"]):
            assert main(["replay", "--edf", str(data / "sham_wake.edf"), "--vref", "5",
                         "--gain", "0.01", *flags]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1] != reports[2]

    @pytest.mark.parametrize(
        "flags, cause",
        [(["--vref", "nan"], "vref"),
         (["--span", "nan"], "gain"),
         (["--gain", "inf"], "gain"),
         (["--gain", "1", "--offset", "nan"], "offset")],
        ids=["vref_nan", "span_nan", "gain_inf", "offset_nan"],
    )
    def test_non_finite_setting_fails_cleanly(self, workspace, capsys, flags, cause):
        _, data, _ = workspace
        assert main(["replay", "--edf", str(data / "sham_wake.edf"), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no report
        assert_one_error_line(err)
        assert cause in err

    @pytest.mark.parametrize(
        "flags, cause",
        [(["--vref", "-5"], "vref_volts must be positive and finite, got -5.0"),
         (["--dac-bits", "40"], "converter bits must be in [1, 16], got 40"),
         (["--vref", "nan"], "vref_volts must be positive and finite, got nan"),
         (["--gain", "1", "--vref", "nan"], "vref_volts must be positive and finite")],
        ids=["negative_vref", "dac_bits_40", "vref_nan", "gain_vref_nan"],
    )
    def test_bypass_checks_the_converter_flags(self, workspace, capsys, flags, cause):
        _, data, _ = workspace
        assert main(["replay", "--edf", str(data / "sham_wake.edf"), "--bypass",
                     *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err)
        assert cause in err


# A paced clock, 40 ms between 4 s epochs, admits each epoch at its
# deadline; 'max' classifies each epoch as soon as it is read.
MODES = [["--acceleration", "100"], ["--acceleration", "max"]]


class TestRun:
    def test_log_schema_and_zero_loss(self, workspace, tmp_path, capsys):
        _, data, model = workspace
        log_path = tmp_path / "log.jsonl"
        timing = tmp_path / "timing.csv"
        assert main(["run", "--input", str(data / "sham_sleep.edf"),
                     "--model", str(model), "--epoch-length", "4",
                     "--acceleration", "max", "--log", str(log_path),
                     "--timing", str(timing)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["produced"] == summary["consumed"] == 10
        assert summary["dropped"] == 0
        assert summary["complete"] is True
        entries = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert len(entries) == 10
        for entry in entries:
            assert set(entry) == {"epoch_index", "start_index", "label", "processing_us"}
            assert entry["label"] in CLASS_NAMES
        header, row = timing.read_text().strip().splitlines()
        assert header == "num_epochs,collection_s,processing_s,ratio_percent"
        assert row.split(",")[0] == "10"

    def test_max_acceleration_drops_nothing(self, workspace, capsys):
        _, data, model = workspace
        assert main(["run", "--input", str(data / "tbi_wake.edf"),
                     "--model", str(model), "--epoch-length", "4",
                     "--acceleration", "max"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["dropped"] == 0

    def test_missing_model_fails_cleanly(self, workspace, capsys):
        _, data, _ = workspace
        code = main(["run", "--input", str(data / "sham_wake.edf"),
                     "--model", "/nonexistent/model.json"])
        assert code != 0
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "edit",
        [lambda text: "[" * 100_000, lambda text: text.replace('"sham_wake"', '"a"')],
        ids=["deep_nesting", "classes"],
    )
    def test_malformed_model_fails_cleanly(self, workspace, tmp_path, capsys, edit):
        _, data, model = workspace
        edited = tmp_path / "malformed.json"
        edited.write_text(edit(model.read_text()))
        code = main(["run", "--input", str(data / "sham_wake.edf"),
                     "--model", str(edited), "--epoch-length", "4", "--acceleration", "max"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err)

    @pytest.mark.parametrize("mode", MODES, ids=["paced", "max"])
    def test_processor_failure_exits_nonzero(self, workspace, capsys,
                                             failing_classifier, mode):
        _, data, model = workspace
        code = main(["run", "--input", str(data / "sham_wake.edf"),
                     "--model", str(model), "--epoch-length", "4", *mode])
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "classifier failed" in err

    @pytest.mark.parametrize("mode", MODES, ids=["paced", "max"])
    def test_processor_failure_writes_partial_outputs(self, workspace, tmp_path, capsys,
                                                      failing_classifier, mode):
        _, data, model = workspace
        log_path, timing = tmp_path / "log.jsonl", tmp_path / "timing.csv"
        code = main(["run", "--input", str(data / "sham_wake.edf"),
                     "--model", str(model), "--epoch-length", "4",
                     "--log", str(log_path), "--timing", str(timing), *mode])
        assert code == 2
        out, err = capsys.readouterr()
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["complete"] is False
        assert summary["error"] == "ValueError: classifier failed"
        entries = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert summary["consumed"] == len(entries) >= 1
        assert entries[-1]["label"] is None
        assert summary["num_epochs"] == summary["produced"] == (
            summary["consumed"] + summary["dropped"] + summary["queued"])
        header, row = timing.read_text().strip().splitlines()
        assert header == "num_epochs,collection_s,processing_s,ratio_percent"
        assert row.split(",")[0] == str(summary["produced"])
        assert_one_error_line(err)
        assert err.startswith("error: run incomplete: ")

    @pytest.mark.parametrize("mode", MODES, ids=["paced", "max"])
    def test_source_failure_exits_nonzero_with_cause(self, workspace, capsys,
                                                     monkeypatch, mode):
        _, data, model = workspace
        assemble = pipeline.assemble

        def failing_assemble(*args):
            epochs = assemble(*args)
            yield next(epochs)
            raise OSError("sensor unplugged")

        monkeypatch.setattr(pipeline, "assemble", failing_assemble)
        code = main(["run", "--input", str(data / "sham_wake.edf"),
                     "--model", str(model), "--epoch-length", "4", *mode])
        assert code != 0
        out, err = capsys.readouterr()
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["complete"] is False
        assert summary["error"] == "OSError: sensor unplugged"
        assert summary["produced"] == summary["consumed"] == 1
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, cause",
        [(["--epoch-length", "5"], "epoch length"),
         (["--capacity", "0"], "capacity"),
         (["--acceleration", "0.5"], "acceleration"),
         (["--acceleration", "nan"], "acceleration"),
         (["--input", "/nonexistent/input.edf"], "No such file"),
         (["--signal", "5"], "1 signal")],
        ids=["epoch_length", "capacity", "acceleration", "nan_acceleration",
             "missing_input", "signal"],
    )
    def test_invalid_setting_fails_cleanly(self, workspace, capsys, flags, cause):
        _, data, model = workspace
        code = main(["run", "--input", str(data / "sham_wake.edf"), "--model",
                     str(model), "--epoch-length", "4", "--acceleration", "max", *flags])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""  # no summary
        assert_one_error_line(err)
        assert cause in err

    def test_unparsable_acceleration_names_what_it_expects(self, workspace, capsys):
        _, data, model = workspace
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--input", str(data / "sham_wake.edf"), "--model", str(model),
                  "--acceleration", "fast"])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "eegloop run: error: argument --acceleration: expected a speed-up factor "
            "or 'max', got 'fast'")

    @pytest.mark.parametrize("flag", ["--log", "--timing"])
    def test_bad_output_path_fails_before_the_run(self, workspace, tmp_path, capsys,
                                                  monkeypatch, flag):
        _, data, model = workspace
        featurized = []
        monkeypatch.setattr(features, "featurize", featurized.append)
        assert main(["run", "--input", str(data / "sham_wake.edf"), "--model",
                     str(model), "--epoch-length", "4", "--acceleration", "1",
                     flag, str(tmp_path / "missing" / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no summary: the run never started
        assert featurized == []
        assert_one_error_line(err)
        assert "No such file" in err

    @staticmethod
    def assert_interrupted_run(workspace, tmp_path, sig, acceleration, cause):
        """Send ``sig`` to a paced ``run`` once its loop reads epoch 2, by which
        time it has classified epoch 0 (while epoch 1 was not yet due), and
        check that the run ends under the failure rule with ``cause``. The
        child announces that read on stdout, ahead of the summary."""
        _, data, model = workspace
        log_path, timing = tmp_path / "log.jsonl", tmp_path / "timing.csv"
        code = "\n".join([
            "import signal, sys",
            "from eegloop import cli, pipeline",
            "signal.signal(signal.SIGINT, signal.default_int_handler)",
            "assemble = pipeline.assemble",
            "def announcing(*args):",
            "    for k, epoch in enumerate(assemble(*args)):",
            "        if k == 2:",
            "            print('epoch 2 read', flush=True)",
            "        yield epoch",
            "pipeline.assemble = announcing",
            "sys.exit(cli.main(sys.argv[1:]))",
        ])
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "run", "--input", str(data / "sham_wake.edf"),
             "--model", str(model), "--epoch-length", "4", "--acceleration", acceleration,
             "--log", str(log_path), "--timing", str(timing)],
            env=fresh_interpreter_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            assert proc.stdout.readline() == "epoch 2 read\n"
            proc.send_signal(sig)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 2
        assert err == f"error: run incomplete: {cause}\n"
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["complete"] is False and summary["error"] == cause
        entries = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert entries[0]["label"] in CLASS_NAMES
        assert summary["consumed"] == len(entries)
        assert summary["num_epochs"] == summary["produced"] == (
            summary["consumed"] + summary["dropped"] + summary["queued"])
        assert timing.read_text().strip().splitlines()[1].split(",")[0] == str(
            summary["produced"])

    def test_interrupt_ends_the_run_under_the_failure_rule(self, workspace, tmp_path):
        # Ctrl-C in a terminal.
        self.assert_interrupted_run(workspace, tmp_path, signal.SIGINT, "4",
                                    "KeyboardInterrupt")

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGHUP], ids=["TERM", "HUP"])
    def test_stop_signal_ends_the_run_like_ctrl_c(self, workspace, tmp_path, sig):
        # A service manager's stop, or a closed terminal, names its signal.
        self.assert_interrupted_run(workspace, tmp_path, sig, "8",
                                    f"KeyboardInterrupt: {sig.name}")

    def test_interrupt_before_the_run_gives_one_error_line(self, workspace, capsys,
                                                            monkeypatch):
        # Ctrl-C while the input is read, before the live loop starts.
        _, data, model = workspace

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "read_signal", interrupted)
        try:
            code = main(["run", "--input", str(data / "sham_wake.edf"), "--model",
                         str(model), "--epoch-length", "4"])
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: interrupted\n"

    def test_raw_samples_on_stdin(self, workspace, capsys, monkeypatch):
        import io

        _, _, model = workspace
        rng = np.random.default_rng(0)
        text = "\n".join(f"{v:.6f}" for v in rng.normal(0, 100, 3 * 1024))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["run", "--input", "-", "--model", str(model),
                     "--epoch-length", "4", "--rate", "256",
                     "--acceleration", "max"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["produced"] == 3
        assert summary["dropped"] == 0

    @pytest.mark.parametrize(
        "source, flags, acceleration",
        [("-", [], math.inf), ("-", ["--acceleration", "100"], 100.0),
         ("sham_wake.edf", [], 1.0), ("sham_wake.edf", ["--acceleration", "max"], math.inf)],
        ids=["stdin", "stdin_paced", "edf", "edf_max"],
    )
    def test_stdin_is_not_paced_unless_asked(self, workspace, monkeypatch, source, flags,
                                              acceleration):
        import io

        _, data, model = workspace
        clocks = []

        def capture(*args, clock, **kwargs):
            clocks.append(clock)
            raise ValueError("clock captured")

        monkeypatch.setattr(pipeline, "run_live", capture)
        monkeypatch.setattr("sys.stdin", io.StringIO("0.0\n" * 2048))
        path = source if source == "-" else str(data / source)
        assert main(["run", "--input", path, "--model", str(model),
                     "--epoch-length", "4", *flags]) == 2
        assert [clock.acceleration for clock in clocks] == [acceleration]

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_stdin_rate_fails_cleanly(self, workspace, capsys, monkeypatch,
                                                 rate):
        import io

        _, _, model = workspace
        monkeypatch.setattr("sys.stdin", io.StringIO("0.0\n" * 2048))
        assert main(["run", "--input", "-", "--model", str(model),
                     "--epoch-length", "4", "--rate", rate]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err)
        assert "whole number of samples" in err

    def test_band_above_the_stdin_nyquist_fails_before_the_run(self, workspace, capsys,
                                                               monkeypatch):
        import io

        _, _, model = workspace
        monkeypatch.setattr("sys.stdin", io.StringIO("0.0\n" * 1200))
        assert main(["run", "--input", "-", "--model", str(model),
                     "--epoch-length", "4", "--rate", "100", "--acceleration", "max"]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no summary: the run never started
        assert_one_error_line(err)
        assert "band [0.5, 60.0] Hz invalid for 100.0 Hz sampling" in err

    def test_outputs_of_a_run_that_fails_in_the_warm_up_are_removed(
            self, workspace, tmp_path, capsys, monkeypatch):
        import io

        _, _, model = workspace
        monkeypatch.setattr("sys.stdin", io.StringIO("0.0\n" * 1200))
        outputs = [tmp_path / "log.jsonl", tmp_path / "timing.csv"]
        assert main(["run", "--input", "-", "--model", str(model), "--epoch-length", "4",
                     "--rate", "100", "--acceleration", "max", "--log", str(outputs[0]),
                     "--timing", str(outputs[1])]) == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not any(path.exists() for path in outputs)

    def test_output_opened_before_a_bad_path_is_removed(self, workspace, tmp_path,
                                                        capsys):
        _, data, model = workspace
        log_path = tmp_path / "ok.jsonl"
        assert main(["run", "--input", str(data / "sham_wake.edf"), "--model",
                     str(model), "--epoch-length", "4", "--acceleration", "max",
                     "--log", str(log_path),
                     "--timing", str(tmp_path / "missing" / "t.csv")]) == 2
        assert "No such file" in capsys.readouterr().err
        assert not log_path.exists()

    def test_first_epoch_is_timed_like_the_rest(self, workspace, tmp_path):
        # A fresh interpreter, since this one has imported scipy already:
        # the import and the filter design come before the clock starts.
        # 64 s epochs take ~1 ms each, so a scheduler hiccup stays small.
        _, _, model = workspace
        data, log_path = tmp_path / "ds", tmp_path / "log.jsonl"
        assert main(["synth", "--out", str(data), "--seed", "7",
                     "--epochs-per-class", "10", "--epoch-length", "64"]) == 0
        subprocess.run([sys.executable, "-m", "eegloop.cli", "run",
                        "--input", str(data / "sham_sleep.edf"), "--model", str(model),
                        "--acceleration", "max", "--log", str(log_path)],
                       env=fresh_interpreter_env(), capture_output=True, check=True)
        times = [json.loads(line)["processing_us"]
                 for line in log_path.read_text().splitlines()]
        assert len(times) == 10
        assert times[0] <= 10 * np.median(times[1:])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_stdin_sample_fails_before_the_run(self, workspace, capsys,
                                                          monkeypatch, bad):
        import io

        _, _, model = workspace
        lines = ["0.0"] * 2048
        lines[1500] = lines[1700] = bad
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))
        assert main(["run", "--input", "-", "--model", str(model),
                     "--epoch-length", "4", "--acceleration", "max"]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no summary: the run never started
        assert_one_error_line(err)
        assert "stdin sample 1500 is not finite" in err

    def test_stdin_shorter_than_one_epoch_fails_cleanly(self, workspace, capsys,
                                                        monkeypatch):
        import io

        _, _, model = workspace
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n3\n"))
        assert main(["run", "--input", "-", "--model", str(model),
                     "--epoch-length", "4", "--acceleration", "max"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err)
        assert "input holds 3 samples, fewer than one 4 s epoch of 1024" in err

    def test_edf_shorter_than_one_epoch_fails_cleanly(self, workspace, tmp_path,
                                                      capsys):
        _, _, model = workspace
        data = tmp_path / "ds"
        assert main(["synth", "--out", str(data), "--seed", "7",
                     "--epochs-per-class", "1", "--epoch-length", "16"]) == 0
        capsys.readouterr()
        assert main(["run", "--input", str(data / "sham_wake.edf"),
                     "--model", str(model), "--acceleration", "max"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err)
        assert "input holds 4096 samples, fewer than one 64 s epoch of 16384" in err

    @pytest.mark.parametrize("text", ["", "# no samples\n"], ids=["empty", "comment_only"])
    def test_empty_stdin_fails_cleanly(self, workspace, capsys, monkeypatch, text):
        import io

        _, _, model = workspace
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["run", "--input", "-", "--model", str(model),
                     "--epoch-length", "4", "--rate", "256",
                     "--acceleration", "max"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err)
        assert "stdin holds no samples" in err


@pytest.mark.parametrize("command", ["evaluate", "run", "bench"])
def test_labels_are_predicted_without_a_softmax(workspace, tmp_path, capsys,
                                                softmax_calls, command):
    _, data, model = workspace
    out = tmp_path / "out"
    args = {
        "evaluate": ["--data", str(data), "--out", str(out)],
        "run": ["--input", str(data / "sham_wake.edf"), "--epoch-length", "4",
                "--acceleration", "max"],
        "bench": ["--out", str(out), "--epoch-lengths", "16", "--batch-sizes", "2"],
    }[command]
    assert main([command, "--model", str(model), *args]) == 0
    assert softmax_calls == []


@pytest.mark.parametrize("command", ["evaluate", "run", "bench"])
def test_tampered_model_fails_at_load(workspace, tmp_path, capsys, command):
    _, data, model = workspace
    out = tmp_path / "out"
    args = {
        "evaluate": ["--data", str(data), "--out", str(out)],
        "run": ["--input", str(data / "sham_wake.edf"), "--epoch-length", "4",
                "--acceleration", "max"],
        "bench": ["--out", str(out), "--epoch-lengths", "16", "--batch-sizes", "2"],
    }[command]
    assert main([command, "--model", str(tampered_model(model, tmp_path)), *args]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert_one_error_line(err)
    assert "is not the hash of its contents" in err


@pytest.mark.parametrize("command", ["evaluate", "run", "bench"])
def test_model_of_another_schema_fails_before_any_work(workspace, tmp_path, capsys,
                                                       monkeypatch, command):
    _, data, model = workspace
    edited = mismatched_model(model, tmp_path)
    other = json.loads(edited.read_text())["feature_schema"]["schema_id"]
    outputs = [tmp_path / name for name in ("out", "log.jsonl", "timing.csv")]
    args = {
        "evaluate": ["--data", str(data), "--out", str(outputs[0])],
        "run": ["--input", str(data / "sham_wake.edf"), "--epoch-length", "4",
                "--acceleration", "max", "--log", str(outputs[1]),
                "--timing", str(outputs[2])],
        "bench": ["--out", str(outputs[0]), "--epoch-lengths", "16",
                  "--batch-sizes", "2"],
    }[command]
    featurized = []
    monkeypatch.setattr(features, "featurize", featurized.append)
    assert main([command, "--model", str(edited), *args]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert not any(path.exists() for path in outputs)
    assert featurized == []
    assert err == (f"error: {edited}: model feature schema {other} "
                   f"is not this build's schema {SCHEMA_ID}\n")


@pytest.mark.parametrize(
    "flags, cause",
    [(["--model", "bad.json"], "missing field"),
     (["--model", "v1.json"], "format_version 1 is no longer read: retrain"),
     (["--folds", "1"], "folds"),
     (["--seed", "-1"], "seed must be >= 0, got -1")],
    ids=["malformed_model", "format_1_model", "folds", "negative_seed"],
)
def test_evaluate_fails_before_featurizing(workspace, tmp_path, capsys, monkeypatch,
                                           flags, cause):
    _, data, _ = workspace
    (tmp_path / "bad.json").write_text('{"format_version": 2}')
    (tmp_path / "v1.json").write_text('{"format_version": 1, "base_score": 0.0}')
    monkeypatch.chdir(tmp_path)
    featurized = []
    monkeypatch.setattr(features, "featurize", featurized.append)
    assert main(["evaluate", "--data", str(data), "--out", "out.json", *flags]) == 2
    assert featurized == [] and not (tmp_path / "out.json").exists()
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert cause in err


@pytest.mark.parametrize(
    "command, flags",
    [("synth", ["--out", "out", "--seed", "-1"]),
     ("bench", ["--model", "{model}", "--out", "out", "--seed", "-1"])],
    ids=["synth", "bench"],
)
def test_negative_seed_fails_first_by_name(workspace, tmp_path, capsys, monkeypatch,
                                           command, flags):
    # evaluate's case is in test_evaluate_fails_before_featurizing.
    _, _, model = workspace
    monkeypatch.chdir(tmp_path)
    featurized = []
    monkeypatch.setattr(features, "featurize", featurized.append)
    assert main([command, *(f.format(model=model) for f in flags)]) == 2
    assert featurized == [] and not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "seed must be >= 0, got -1" in err


@pytest.mark.parametrize(
    "command, flags",
    [("train", ["--data", "{data}", "--out", "{bad}"]),
     ("train", ["--data", "{data}", "--out", "{ok}", "--log", "{bad}"]),
     ("evaluate", ["--data", "{data}", "--out", "{bad}"]),
     ("evaluate", ["--data", "{data}", "--model", "{model}", "--out", "{bad}"]),
     ("replay", ["--edf", "{data}/sham_wake.edf", "--out", "{bad}"]),
     ("bench", ["--model", "{model}", "--out", "{bad}", "--epoch-lengths", "16",
                "--batch-sizes", "2"])],
    ids=["train", "train_log", "evaluate", "evaluate_model", "replay", "bench"],
)
def test_bad_output_path_fails_before_any_work(workspace, tmp_path, capsys, monkeypatch,
                                               command, flags):
    _, data, model = workspace
    paths = {"data": data, "model": model, "ok": tmp_path / "ok.json",
             "bad": tmp_path / "missing" / "out"}
    featurized = []
    monkeypatch.setattr(features, "featurize", featurized.append)
    assert main([command, *(flag.format(**paths) for flag in flags)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and featurized == []
    assert list(tmp_path.iterdir()) == []  # the output opened first is removed
    assert_one_error_line(err)
    assert "No such file" in err


@pytest.mark.parametrize(
    "command, existing",
    [(command, existing) for existing in (False, True)
     for command in ("train", "evaluate", "replay")],
    ids=["train", "evaluate", "replay", "train_existing", "evaluate_existing",
         "replay_existing"],
)
def test_failure_after_the_outputs_opened_removes_them(tmp_path, capsys, command,
                                                       existing):
    # A dataset whose one file is not an EDF, or that file, fails once the
    # outputs are open; bench's processor failure is in TestBench. An output
    # that was already there is left as it was.
    (tmp_path / "bad").mkdir()
    (tmp_path / "bad" / "labels.csv").write_text("file,epoch_index,class\n"
                                                 "bad.edf,0,sham_wake\n")
    (tmp_path / "bad" / "bad.edf").write_bytes(b"not an EDF")
    outputs = [tmp_path / "out.json", tmp_path / "log.json"]
    if existing:
        for path in outputs:
            path.write_text(f"kept {path.name}\n")
    before = {path: path.read_bytes() for path in outputs if path.exists()}
    args = {
        "train": ["--data", str(tmp_path / "bad"), "--out", str(outputs[0]),
                  "--log", str(outputs[1])],
        "evaluate": ["--data", str(tmp_path / "bad"), "--out", str(outputs[0])],
        "replay": ["--edf", str(tmp_path / "bad" / "bad.edf"), "--out", str(outputs[0])],
    }[command]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "EDF header" in err
    assert {path: path.read_bytes() for path in outputs if path.exists()} == before


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGHUP], ids=["TERM", "HUP"])
def test_stop_signal_during_train_leaves_the_outputs_as_found(workspace, tmp_path, sig):
    # The child announces on stdout that training has started, then waits
    # in it for the signal.
    _, data, model = workspace
    out, log_path = tmp_path / "model.json", tmp_path / "log.json"
    shutil.copy(model, out)
    code = "\n".join([
        "import sys, time",
        "from eegloop import cli, gbt",
        "def waiting_train(*args):",
        "    print('training', flush=True)",
        "    time.sleep(60)",
        "gbt.train = waiting_train",
        "sys.exit(cli.main(sys.argv[1:]))",
    ])
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "train", "--data", str(data), "--out", str(out),
         "--log", str(log_path)],
        env=fresh_interpreter_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        assert proc.stdout.readline() == "training\n"
        proc.send_signal(sig)
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert err == f"error: interrupted by {sig.name}\n"
    assert out.read_bytes() == model.read_bytes()
    assert [path.name for path in tmp_path.iterdir()] == ["model.json"]


def test_stop_signals_are_caught_only_while_main_runs(tmp_path, capsys, monkeypatch):
    # A signal that is ignored, as under nohup, stays ignored.
    stops = (signal.SIGTERM, signal.SIGHUP)
    seen = []

    def record(spec, out):
        seen.extend(signal.getsignal(sig) for sig in stops)
        raise ValueError("recorded")

    monkeypatch.setattr(synth, "generate_dataset", record)
    hup = signal.signal(signal.SIGHUP, signal.SIG_IGN)
    try:
        before = [signal.getsignal(sig) for sig in stops]
        assert main(["synth", "--out", str(tmp_path / "ds")]) == 2
        after = [signal.getsignal(sig) for sig in stops]
    finally:
        signal.signal(signal.SIGHUP, hup)
    assert capsys.readouterr().err == "error: recorded\n"
    assert seen == [cli._interrupt, signal.SIG_IGN]
    assert after == before


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "dangling"])
def test_output_through_a_symlink_replaces_the_file_it_names(workspace, tmp_path, capsys,
                                                             existing):
    _, data, _ = workspace
    (tmp_path / "reports").mkdir()
    target, link = tmp_path / "reports" / "replay.json", tmp_path / "replay.json"
    if existing:
        target.write_text("old\n")
    link.symlink_to(target)
    assert main(["replay", "--edf", str(data / "sham_wake.edf"), "--out", str(link)]) == 0
    assert link.is_symlink() and link.readlink() == target
    assert json.loads(target.read_text())["edf"] == str(data / "sham_wake.edf")


@pytest.mark.parametrize("old_mode", [None, 0o604], ids=["new", "replaced"])
def test_output_has_the_mode_that_open_gives(workspace, tmp_path, capsys, old_mode):
    # A new file gets 0o666 less the umask, not a temp file's 0o600; a
    # replaced one keeps its mode.
    _, data, _ = workspace
    out = tmp_path / "replay.json"
    if old_mode is not None:
        out.write_text("old\n")
        out.chmod(old_mode)
    umask = os.umask(0o027)
    try:
        assert main(["replay", "--edf", str(data / "sham_wake.edf"), "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == (0o640 if old_mode is None else old_mode)


@pytest.mark.parametrize(
    "command, flags",
    [("train", ["--data", "{data}", "--out", "{dir}"]),
     ("evaluate", ["--data", "{data}", "--out", "{dir}"]),
     ("replay", ["--edf", "{data}/sham_wake.edf", "--out", "{dir}"]),
     ("run", ["--input", "{data}/sham_wake.edf", "--model", "{model}", "--log", "{dir}"]),
     ("bench", ["--model", "{model}", "--out", "{dir}", "--epoch-lengths", "16",
                "--batch-sizes", "2"])],
    ids=["train", "evaluate", "replay", "run", "bench"],
)
def test_directory_at_an_output_path_fails_before_any_work(workspace, tmp_path, capsys,
                                                           monkeypatch, command, flags):
    _, data, model = workspace
    (tmp_path / "out").mkdir()
    paths = {"data": data, "model": model, "dir": tmp_path / "out"}
    featurized = []
    monkeypatch.setattr(features, "featurize", featurized.append)
    assert main([command, *(flag.format(**paths) for flag in flags)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and featurized == []
    assert_one_error_line(err)
    assert f"Is a directory: '{tmp_path / 'out'}'" in err
    assert [path.name for path in tmp_path.rglob("*")] == ["out"]


@pytest.mark.parametrize(
    "command, flags, clash",
    [("train", ["--data", "ds", "--out", "ds/labels.csv"], ("--out", "--data")),
     ("train", ["--data", "ds", "--out", "m.json", "--log", "ds/tbi_wake.edf"],
      ("--log", "--data")),
     ("evaluate", ["--data", "ds", "--out", "ds/sham_sleep.edf"], ("--out", "--data")),
     ("evaluate", ["--data", "ds", "--model", "model.json", "--out", "model.json"],
      ("--out", "--model")),
     ("replay", ["--edf", "ds/sham_wake.edf", "--out", "ds/sham_wake.edf"],
      ("--out", "--edf")),
     ("replay", ["--edf", "ds/sham_wake.edf", "--out", "link.edf"], ("--out", "--edf")),
     ("run", ["--input", "ds/sham_wake.edf", "--model", "model.json",
              "--log", "ds/sham_wake.edf"], ("--log", "--input")),
     ("run", ["--input", "ds/sham_wake.edf", "--model", "model.json",
              "--timing", "model.json"], ("--timing", "--model")),
     ("run", ["--input", "ds/sham_wake.edf", "--model", "model.json",
              "--log", "kept.csv", "--timing", "kept.csv"], ("--timing", "--log")),
     ("run", ["--input", "ds/sham_wake.edf", "--model", "model.json",
              "--log", "new.csv", "--timing", "./new.csv"], ("--timing", "--log")),
     ("bench", ["--model", "model.json", "--out", "model.json"], ("--out", "--model"))],
    ids=["train_labels", "train_log_edf", "evaluate_edf", "evaluate_model",
         "replay", "replay_symlink", "run_input", "run_model", "run_outputs",
         "run_new_outputs", "bench"],
)
def test_output_that_is_an_input_or_output_is_refused(workspace, tmp_path, capsys,
                                                       monkeypatch, command, flags, clash):
    _, data, model = workspace
    shutil.copytree(data, tmp_path / "ds")
    shutil.copy(model, tmp_path / "model.json")
    (tmp_path / "kept.csv").write_text("kept\n")
    (tmp_path / "link.edf").symlink_to(tmp_path / "ds" / "sham_wake.edf")

    def files():
        return {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

    before = files()
    featurized = []
    monkeypatch.setattr(features, "featurize", featurized.append)
    monkeypatch.chdir(tmp_path)
    assert main([command, *flags]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    output, other = clash
    assert err.startswith(f"error: {output} ") and f" is the same file as {other} " in err
    assert featurized == [] and files() == before


def test_a_device_may_be_named_twice(workspace, capsys):
    _, data, model = workspace
    assert main(["run", "--input", str(data / "sham_wake.edf"), "--model", str(model),
                 "--epoch-length", "4", "--acceleration", "max",
                 "--log", os.devnull, "--timing", os.devnull]) == 0


def test_an_output_piped_through_dev_stdout_is_written_directly(workspace):
    # /dev/stdout resolves to a pipe that no file can be renamed onto.
    _, data, _ = workspace
    proc = subprocess.run([sys.executable, "-m", "eegloop.cli", "replay",
                           "--edf", str(data / "sham_wake.edf"), "--out", "/dev/stdout"],
                          env=fresh_interpreter_env(), capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    report, summary = proc.stdout.split("}\n", 1)
    assert json.loads(report + "}") == json.loads(summary)


@pytest.mark.parametrize("flag", ["--folds", "--seed", "--rounds", "--max-depth",
                                  "--learning-rate", "--l2-lambda", "--min-child-weight"])
def test_evaluate_model_refuses_the_flags_it_ignores(workspace, tmp_path, capsys,
                                                     monkeypatch, flag):
    _, data, model = workspace
    featurized = []
    monkeypatch.setattr(features, "featurize", featurized.append)
    out = tmp_path / "out.json"
    assert main(["evaluate", "--data", str(data), "--model", str(model),
                 "--out", str(out), flag, "1"]) == 2
    assert capsys.readouterr().err == f"error: {flag} does not apply with --model\n"
    assert featurized == [] and not out.exists()


def subcommands() -> dict:
    """Each subcommand's parser, by name."""
    (sub,) = [action for action in cli.build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


@pytest.mark.parametrize("command, cls", [("synth", synth.SyntheticSpec),
                                          ("train", gbt.TrainConfig),
                                          ("evaluate", ev.CvConfig),
                                          ("evaluate", gbt.TrainConfig)])
def test_every_setting_is_the_dest_of_a_flag(command, cls):
    # A field without a flag could not be set at all: flags are the one way in.
    dests = {action.dest for action in subcommands()[command]._actions
             if action.option_strings}
    assert {f.name for f in dataclasses.fields(cls)} <= dests


def test_readme_names_only_flags_the_parser_accepts():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    accepted = {option for parser in subcommands().values()
                for action in parser._actions for option in action.option_strings}
    assert "--seed" in named and named - accepted == set()


@pytest.mark.parametrize("argv", [["synth", "--out", "ds", "--config", "x.json"],
                                  ["train", "--data", "ds", "--out", "m.json",
                                   "--train-config", "x.json"],
                                  ["evaluate", "--data", "ds", "--out", "r.json",
                                   "--train-config", "x.json"]],
                         ids=["synth", "train", "evaluate"])
def test_config_file_flags_are_gone(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, flags, named, cause",
    [("replay", ["--edf", "{short}"], "short", "file too short for EDF header: 10 bytes"),
     ("run", ["--input", "{short}", "--model", "{model}"], "short",
      "file too short for EDF header: 10 bytes"),
     ("run", ["--input", "{edf}", "--model", "{model}", "--signal", "2"], "edf",
      "no signal 2; the file has 1 signal(s)"),
     ("evaluate", ["--data", "{data}", "--out", "out", "--model", "{short}"], "short",
      "model file is not valid JSON: "),
     ("run", ["--input", "{edf}", "--model", "{short}"], "short",
      "model file is not valid JSON: "),
     ("bench", ["--out", "out", "--model", "{short}"], "short",
      "model file is not valid JSON: ")],
    ids=["replay_edf", "run_edf", "run_signal", "evaluate_model", "run_model",
         "bench_model"],
)
def test_refused_input_names_its_file(workspace, tmp_path, capsys, monkeypatch,
                                      command, flags, named, cause):
    _, data, model = workspace
    monkeypatch.chdir(tmp_path)
    Path("bad.edf").write_bytes(b"0123456789")  # named as given, relative
    paths = {"short": "bad.edf", "model": model, "data": data, "edf": data / "sham_wake.edf"}
    assert main([command, *(flag.format(**paths) for flag in flags)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert_one_error_line(err)
    assert err.startswith(f"error: {paths[named]}: {cause}")


@pytest.mark.parametrize("source, flag, value, applies",
                         [("sham_wake.edf", "--rate", "256", "an EDF --input"),
                          ("-", "--signal", "0", "--input -")],
                         ids=["rate_with_edf", "signal_with_stdin"])
def test_run_refuses_the_flag_its_input_ignores(workspace, tmp_path, capsys, monkeypatch,
                                                source, flag, value, applies):
    _, data, model = workspace
    monkeypatch.setattr("sys.stdin", io.StringIO("0.0\n" * 2048))
    log = tmp_path / "log.jsonl"
    path = source if source == "-" else str(data / source)
    assert main(["run", "--input", path, "--model", str(model), "--epoch-length", "4",
                 "--acceleration", "max", "--log", str(log), flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {flag} does not apply with {applies}\n"
    assert not log.exists()


@pytest.mark.parametrize("command", ["run", "bench"])
def test_warm_up_featurizes_and_predicts_before_each_run(workspace, tmp_path, monkeypatch,
                                                         command):
    _, data, model = workspace
    calls = []

    def recorded(module, name):
        call = getattr(module, name)

        def recording(*args, **kwargs):
            calls.append(name)
            return call(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    for module, name in [(features, "featurize"), (gbt, "predict_labels"),
                         (pipeline, "run_live")]:
        recorded(module, name)
    args, runs, epochs = {
        "run": (["--input", str(data / "sham_wake.edf"), "--epoch-length", "4",
                 "--acceleration", "max"], 1, 10),
        "bench": (["--out", str(tmp_path / "bench.csv"), "--epoch-lengths", "4,16",
                   "--batch-sizes", "3"], 2, 3),
    }[command]
    assert main([command, "--model", str(model), *args]) == 0
    per_epoch = ["featurize", "predict_labels"]
    assert calls == (per_epoch + ["run_live"] + per_epoch * epochs) * runs


@pytest.mark.parametrize("length_s, rate_hz", [(4, 256.0), (16, 128.0)])
def test_warm_up_runs_the_filter_and_the_branches_of_a_real_epoch(workspace, monkeypatch,
                                                                  length_s, rate_hz):
    # A constant epoch would return before the filter, with zero variance and power.
    _, _, model = workspace
    bandpass, moments, extract = features._bandpass, features._moments, features.extract
    seen = []

    def spied(name, call, record):
        def spy(*args):
            result = call(*args)
            seen.append((name, record(result)))
            return result
        return spy

    # The filter binds sosfilt when it is designed, so the spy wraps the filter itself.
    monkeypatch.setattr(features, "_bandpass", lambda rate_hz: spied(
        "sosfilt", bandpass(rate_hz), lambda out: out.size))
    monkeypatch.setattr(features, "_moments",
                        spied("variance", moments, lambda m: m[0] > 0))
    monkeypatch.setattr(features, "extract", spied(
        "spectral_entropy", extract,
        lambda fv: fv.values[features.FEATURE_NAMES.index("spectral_entropy")] > 0))
    cli._warm_up(gbt.load_model(model.read_bytes()), length_s, rate_hz)
    assert seen == [("sosfilt", length_s * rate_hz), ("variance", True),
                    ("spectral_entropy", True)]


class TestBench:
    def test_rows_are_prefixes_of_one_run_per_length(self, workspace, tmp_path,
                                                      monkeypatch):
        # Under the virtual clock, featurize call k spends k * 100 us and
        # predict call k spends k us, so every figure is exact.
        _, _, model = workspace
        clock, featurized, predict_ns, logs = VirtualClock(), [], [], []
        featurize, predict_labels = features.featurize, gbt.predict_labels
        run_live = pipeline.run_live

        def spending_featurize(epoch):
            featurized.append(epoch)
            clock.spend(1e-4 * len(featurized))
            return featurize(epoch)

        def spending_predict_labels(model, fvs):
            predict_ns.append(1000 * (len(predict_ns) + 1))
            clock.spend(predict_ns[-1] / 1e9)
            return predict_labels(model, fvs)

        def logged_run_live(*args, **kwargs):
            log, report = run_live(*args, **kwargs)
            logs.append([entry["processing_us"] for entry in log])
            return log, report

        monkeypatch.setattr(pipeline, "SampleClock", lambda acceleration: clock)
        monkeypatch.setattr(features, "featurize", spending_featurize)
        monkeypatch.setattr(gbt, "predict_labels", spending_predict_labels)
        monkeypatch.setattr(pipeline, "run_live", logged_run_live)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--model", str(model), "--out", str(out),
                     "--epoch-lengths", "16,32", "--batch-sizes", "1,3,5"]) == 0
        # One run per length, each epoch featurized and predicted once after a
        # silent warm-up on a 10 Hz sine that does both: calls 1 and 7.
        def is_warm_up(epoch):
            t = np.arange(epoch.samples.size) / epoch.rate_hz
            return np.array_equal(epoch.samples, np.sin(2 * np.pi * 10.0 * t))

        assert [i for i, e in enumerate(featurized) if is_warm_up(e)] == [0, 6]
        assert len(featurized) == 12
        assert len(predict_ns) == 12
        assert logs == [[202, 303, 404, 505, 606], [808, 909, 1010, 1111, 1212]]
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = []
        for length, log, predicted in zip([16, 32], logs, [predict_ns[1:6], predict_ns[7:]]):
            for size in (1, 3, 5):
                processing_s = sum(log[:size]) / 1e6
                expected.append({
                    "epoch_length_s": length, "num_epochs": size,
                    "collection_s": float(size * length), "processing_s": processing_s,
                    "ratio_percent": 100.0 * processing_s / (size * length),
                    "predict_per_epoch_us": sum(predicted) / len(predicted) / 1e3,
                })
        assert len(rows) == len(expected)
        assert [{k: type(v)(row[k]) for k, v in e.items()} for row, e in zip(rows, expected)
                ] == expected

    def test_row_per_length_and_batch_combination(self, workspace, tmp_path):
        _, _, model = workspace
        out = tmp_path / "bench.csv"
        assert main(["bench", "--model", str(model), "--out", str(out),
                     "--epoch-lengths", "16,32", "--batch-sizes", "1,5"]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2
        assert lines[0].split(",")[:5] == [
            "epoch_length_s", "num_epochs", "collection_s", "processing_s",
            "ratio_percent",
        ]
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["16", "1"], ["16", "5"], ["32", "1"], ["32", "5"],
        ]

    def test_predict_latency_column_is_sane(self, workspace, tmp_path):
        _, _, model = workspace
        out = tmp_path / "bench.csv"
        assert main(["bench", "--model", str(model), "--out", str(out),
                     "--epoch-lengths", "16", "--batch-sizes", "2"]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert 0 < float(row[5]) < 1e5

    def test_processor_failure_fails_cleanly(self, workspace, tmp_path, capsys,
                                             failing_classifier):
        _, _, model = workspace
        out = tmp_path / "bench.csv"
        assert main(["bench", "--model", str(model), "--out", str(out),
                     "--epoch-lengths", "16", "--batch-sizes", "2"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "classifier failed" in err

    def test_bad_batch_size_rejected(self, workspace, tmp_path, capsys):
        _, _, model = workspace
        for sizes in ["0", "", "1,x"]:
            code = main(["bench", "--model", str(model), "--out",
                         str(tmp_path / "b.csv"), "--batch-sizes", sizes])
            assert code == 2
            assert_one_error_line(capsys.readouterr().err)

    def test_bad_epoch_lengths_rejected(self, workspace, tmp_path, capsys):
        _, _, model = workspace
        for lengths in ["", "16,x", "5"]:
            code = main(["bench", "--model", str(model), "--out",
                         str(tmp_path / "b.csv"), "--epoch-lengths", lengths])
            assert code == 2
            assert_one_error_line(capsys.readouterr().err)


# Fuzzed untrusted input: a label index, stdin floats. Each
# input gives a valid result or exactly one error line with exit 2, and
# never a traceback, since main() turns only ValueError and OSError into
# that line.
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def assert_result_or_one_error(code, out, err):
    if code == 0:
        assert out and not err
    else:
        assert code == 2 and out == ""
        assert_one_error_line(err)


class TestFuzzedInput:
    @given(st.lists(st.tuples(st.sampled_from([f"{c}.edf" for c in CLASS_NAMES])
                              | st.text(max_size=6),
                              st.integers(-2, 12).map(str) | st.text(max_size=4),
                              st.sampled_from(CLASS_NAMES) | st.text(max_size=6)),
                    max_size=6),
           st.sampled_from([["file", "epoch_index", "class"], ["class", "file"], []])
           | st.lists(st.text(max_size=6), max_size=4),
           st.binary(max_size=20))
    @FUZZ
    def test_label_index(self, workspace, tmp_path, capsys, rows, columns, tail):
        _, data, model = workspace
        dataset = tmp_path / "ds"
        if not dataset.exists():
            shutil.copytree(data, dataset)
        text = io.StringIO(newline="")
        csv.writer(text).writerows([columns, *rows])
        (dataset / "labels.csv").write_bytes(text.getvalue().encode() + tail)
        code = main(["evaluate", "--data", str(dataset), "--model", str(model),
                     "--out", str(tmp_path / "report.json")])
        assert_result_or_one_error(code, *capsys.readouterr())

    @given(st.sampled_from(["", "0.5\n" * 1024]),
           st.lists(st.floats().map(repr) | st.text(max_size=5)
                    | st.sampled_from(["", "#", ",", "1 2", "1e400", "\t"]), max_size=20),
           st.sampled_from(["\n", " ", ",", "\r\n"]),
           st.binary(max_size=8))
    @FUZZ
    def test_stdin_floats(self, workspace, capsys, monkeypatch, head, tokens, sep, tail):
        _, _, model = workspace
        stdin = (head + sep.join(tokens)).encode() + tail
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), "utf-8"))
        code = main(["run", "--input", "-", "--model", str(model), "--epoch-length", "4",
                     "--rate", "256", "--acceleration", "max"])
        assert_result_or_one_error(code, *capsys.readouterr())
