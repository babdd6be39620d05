"""Synthetic dataset determinism, class structure, and the label index."""

import csv

import numpy as np
import pytest

from eegloop.classes import CLASS_NAMES
from eegloop.edf import EdfError, EdfFileHeader, EdfSignalHeader, write_edf
from eegloop.features import FEATURE_NAMES, featurize
from eegloop.synth import SyntheticSpec, generate_dataset, load_dataset

SMALL = SyntheticSpec(epochs_per_class=8, epoch_length_s=4, seed=123)


def rel_delta(epoch):
    fv = featurize(epoch)
    return fv.values[FEATURE_NAMES.index("delta_rel_power")]


class TestDeterminism:
    def test_same_seed_writes_byte_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(SMALL, a)
        generate_dataset(SMALL, b)
        for name in [f"{c}.edf" for c in CLASS_NAMES] + ["labels.csv"]:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(SMALL, a)
        generate_dataset(SyntheticSpec(epochs_per_class=8, epoch_length_s=4, seed=124), b)
        assert (a / "sham_wake.edf").read_bytes() != (b / "sham_wake.edf").read_bytes()


class TestLabelIndex:
    def test_row_count_and_schema(self, tmp_path):
        spec = SyntheticSpec(epochs_per_class=50, epoch_length_s=16, seed=0)
        index = generate_dataset(spec, tmp_path)
        with index.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        assert set(rows[0]) == {"file", "epoch_index", "class"}
        per_class = {c: sum(1 for r in rows if r["class"] == c) for c in CLASS_NAMES}
        assert per_class == {c: 50 for c in CLASS_NAMES}

    def test_load_round_trip(self, tmp_path):
        generate_dataset(SMALL, tmp_path)
        epochs = load_dataset(tmp_path)
        assert len(epochs) == 8 * 4
        assert {e.label for e in epochs} == set(CLASS_NAMES)
        assert all(e.rate_hz == 256.0 for e in epochs)
        assert all(e.num_samples == 4 * 256 for e in epochs)

    def test_missing_index_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_index_missing_a_column_rejected(self, tmp_path):
        index = generate_dataset(SMALL, tmp_path)
        rows = index.read_text().splitlines()
        index.write_text("\n".join(line.rsplit(",", 1)[0] for line in rows) + "\n")
        with pytest.raises(ValueError, match="lacks column\\(s\\) class"):
            load_dataset(tmp_path)

    def test_epochs_are_the_files_records(self, tmp_path):
        generate_dataset(SMALL, tmp_path)
        with (tmp_path / "labels.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, epoch in zip(rows, load_dataset(tmp_path)):
            assert epoch.label == row["class"]
            assert epoch.start_index == int(row["epoch_index"]) * 4 * 256

    @pytest.mark.parametrize("epoch_index", [-1, -2, SMALL.epochs_per_class])
    def test_epoch_index_outside_its_file_rejected(self, tmp_path, epoch_index):
        index = generate_dataset(SMALL, tmp_path)
        lines = index.read_text().splitlines()
        lines[1] = f"sham_wake.edf,{epoch_index},sham_wake"
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"sham_wake.edf: epoch_index {epoch_index} "
                                             f"is outside the file's 8 epochs"):
            load_dataset(tmp_path)

    def test_file_with_only_an_annotation_signal_rejected(self, tmp_path):
        header = EdfFileHeader(num_records=3, record_duration_s=4.0)
        notes = EdfSignalHeader(label="EDF Annotations", samples_per_record=1024)
        (tmp_path / "notes.edf").write_bytes(write_edf(header, [notes], [np.zeros(3072)]))
        (tmp_path / "labels.csv").write_text("file,epoch_index,class\nnotes.edf,0,sham_wake\n")
        with pytest.warns(UserWarning, match="annotation"), \
                pytest.raises(EdfError, match="notes.edf: no signal 0"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("value", ["1.0", "", "one"])
    def test_epoch_index_that_is_not_an_integer_rejected(self, tmp_path, value):
        index = generate_dataset(SMALL, tmp_path)
        lines = index.read_text().splitlines()
        lines[3] = f"sham_wake.edf,{value},sham_wake"
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"labels.csv line 4: epoch_index "
                                             f"'{value}' is not an integer"):
            load_dataset(tmp_path)

    def test_unknown_class_label_names_its_line(self, tmp_path):
        index = generate_dataset(SMALL, tmp_path)
        lines = index.read_text().splitlines()
        lines[3] = "sham_wake.edf,1,sham_wak"
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="labels.csv line 4: unknown class "
                                             "label: 'sham_wak'"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("label", ["sham_wake", "tbi_sleep"], ids=["same", "other"])
    def test_epoch_listed_twice_names_both_lines(self, tmp_path, label):
        index = generate_dataset(SMALL, tmp_path)
        index.write_text(index.read_text() + f"sham_wake.edf,0,{label}\n")
        with pytest.raises(ValueError, match="labels.csv line 34: epoch 0 of sham_wake.edf "
                                             "is already listed on line 2"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("length, rate, form", [(16, 256.0, "16 s at 256 Hz"),
                                                     (4, 128.0, "4 s at 128 Hz")],
                             ids=["16s", "128Hz"])
    def test_file_with_another_record_form_rejected(self, tmp_path, length, rate, form):
        generate_dataset(SMALL, tmp_path / "ds")
        other = SyntheticSpec(epochs_per_class=8, epoch_length_s=length, rate_hz=rate,
                              seed=123)
        generate_dataset(other, tmp_path / "other")
        (tmp_path / "ds" / "tbi_sleep.edf").write_bytes(
            (tmp_path / "other" / "tbi_sleep.edf").read_bytes())
        with pytest.raises(ValueError, match=f"tbi_sleep.edf: records of {form} "
                                             f"differ from sham_wake.edf's 4 s at 256 Hz"):
            load_dataset(tmp_path / "ds")

    def test_record_length_that_is_no_epoch_length_names_the_file(self, tmp_path):
        header = EdfFileHeader(num_records=2, record_duration_s=8.0)
        sig = EdfSignalHeader(samples_per_record=2048)
        (tmp_path / "eight.edf").write_bytes(write_edf(header, [sig], [np.zeros(4096)]))
        (tmp_path / "labels.csv").write_text("file,epoch_index,class\neight.edf,0,sham_wake\n")
        with pytest.raises(ValueError, match=r"^eight.edf: epoch length must be one of "
                                             r"\(4, 16, 32, 64\), got 8$"):
            load_dataset(tmp_path)

    def test_digital_code_outside_the_header_range_names_the_file(self, tmp_path):
        header = EdfFileHeader(num_records=3, record_duration_s=4.0)
        sig = EdfSignalHeader(digital_min=-100, digital_max=100, samples_per_record=1024)
        data = bytearray(write_edf(header, [sig], [np.zeros(3072)]))
        data[header.header_bytes:header.header_bytes + 2] = (101).to_bytes(2, "little")
        (tmp_path / "codes.edf").write_bytes(bytes(data))
        (tmp_path / "labels.csv").write_text("file,epoch_index,class\ncodes.edf,0,sham_wake\n")
        with pytest.raises(EdfError, match=r"codes.edf: digital code outside \[-100, 100\]"):
            load_dataset(tmp_path)


class TestClassStructure:
    def test_sleep_classes_have_more_relative_delta_than_wake(self, tmp_path):
        spec = SyntheticSpec(epochs_per_class=12, epoch_length_s=4, seed=5)
        generate_dataset(spec, tmp_path)
        epochs = load_dataset(tmp_path)
        mean_delta = {
            cls: np.mean([rel_delta(e) for e in epochs if e.label == cls])
            for cls in CLASS_NAMES
        }
        assert mean_delta["sham_sleep"] > mean_delta["sham_wake"]
        assert mean_delta["tbi_sleep"] > mean_delta["tbi_wake"]

    def test_signals_are_band_limited_and_scaled(self, tmp_path):
        generate_dataset(SMALL, tmp_path)
        epochs = load_dataset(tmp_path)
        rms = np.sqrt(np.mean(epochs[0].samples ** 2))
        assert 10 < rms < 2000  # near the 100 uV target, with jitter

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="profiles"):
            SyntheticSpec(profiles={"sham_wake": None})
        with pytest.raises(ValueError, match="epochs_per_class"):
            SyntheticSpec(epochs_per_class=0)
        with pytest.raises(ValueError, match="epoch length"):
            SyntheticSpec(epoch_length_s=8)
        with pytest.raises(ValueError, match="whole number"):
            SyntheticSpec(epoch_length_s=4, rate_hz=100.1)

    @pytest.mark.parametrize(
        "field, value",
        [("amplitude_uv", float("nan")), ("amplitude_uv", 0.0),
         ("amplitude_uv", float("inf")), ("amplitude_uv", 0.04),
         ("amplitude_uv", 1e7), ("noise_level", float("nan")),
         ("noise_level", -0.1), ("amplitude_jitter", float("nan")),
         ("amplitude_jitter", -1.0), ("amplitude_jitter", float("inf"))],
    )
    def test_non_finite_or_out_of_range_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(**{field: value})

    def test_epoch_past_one_edf_record_rejected(self):
        # 4e9 samples: rejected by arithmetic on the spec, before any allocation.
        with pytest.raises(ValueError, match="samples_per_record must be 1 to 99999999"):
            SyntheticSpec(epoch_length_s=4, rate_hz=1e9)
