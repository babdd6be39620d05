"""Seeded synthetic 4-class EEG dataset generation.

Real labelled rodent recordings are not redistributable, so end-to-end
runs use a generated stand-in with the same shape: single-channel EDF
files at 256 Hz, cut into whole-epoch records, with a CSV label index.

Each epoch is coloured noise shaped in the frequency domain: a sum of
Gaussian spectral bumps (class-specific centers, widths, and weights)
plus a flat broadband noise floor, with random phases and a log-normal
per-epoch amplitude jitter. The fixed profiles give the wake classes
theta/beta-dominant spectra and the sleep classes delta-dominant ones,
with the injured-group classes shifted toward lower theta (at reduced
total power) and elevated slow-wave amplitude respectively. Classes
overlap on purpose: a classifier should score well on held-out epochs,
not perfectly.

Everything is driven by one seed; equal specs produce byte-identical
EDF files.
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .classes import CLASS_NAMES, class_index
from .edf import EdfError, EdfFileHeader, EdfSignalHeader, read_signal, write_edf
from .pipeline import Epoch, assemble, samples_per_epoch

LABEL_INDEX_NAME = "labels.csv"
# +/- 20x the target RMS leaves the jittered peaks clear of clipping.
_HEADROOM = 20
_INDEX_COLUMNS = ("file", "epoch_index", "class")


@dataclass(frozen=True)
class ClassProfile:
    """Spectral shape of one class: (center_hz, width_hz, weight) bumps."""

    bumps: tuple[tuple[float, float, float], ...]
    power_scale: float = 1.0


PROFILES: dict[str, ClassProfile] = {
    "sham_wake": ClassProfile(bumps=((6.5, 1.5, 1.0), (20.0, 5.0, 0.8))),
    "sham_sleep": ClassProfile(bumps=((1.5, 1.0, 1.6), (6.5, 1.5, 0.3))),
    "tbi_wake": ClassProfile(
        bumps=((4.8, 1.2, 1.0), (20.0, 5.0, 0.5)), power_scale=0.7
    ),
    "tbi_sleep": ClassProfile(
        bumps=((1.2, 0.9, 2.2), (6.5, 1.5, 0.2)), power_scale=1.15
    ),
}


@dataclass(frozen=True)
class SyntheticSpec:
    """The dataset's size, sample rate and seed; the amplitude, noise floor and
    jitter are fixed, and the defaults make a moderately hard 4-class task."""

    amplitude_uv: ClassVar[float] = 100.0
    noise_level: ClassVar[float] = 0.4
    amplitude_jitter: ClassVar[float] = 0.3
    epochs_per_class: int = 200
    epoch_length_s: int = 16
    rate_hz: float = 256.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs_per_class < 1:
            raise ValueError("epochs_per_class must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Checks the epoch length, that one epoch fits one EDF record and that
        # the record count fits its field, before any sample is allocated.
        try:
            _signal_header(self)
        except EdfError as exc:
            raise ValueError(
                f"epoch_length_s and rate_hz overflow one EDF record: {exc}") from None
        try:
            _file_header(self, CLASS_NAMES[0])
        except EdfError as exc:
            raise ValueError(f"epochs_per_class overflows its EDF field: {exc}") from None

    @property
    def samples_per_epoch(self) -> int:
        return samples_per_epoch(self.epoch_length_s, self.rate_hz)


def _spectral_envelope(freqs: np.ndarray, profile: ClassProfile, spec: SyntheticSpec) -> np.ndarray:
    envelope = np.full(freqs.shape, spec.noise_level, dtype=np.float64)
    for center, width, weight in profile.bumps:
        envelope += weight * np.exp(-((freqs - center) ** 2) / (2 * width**2))
    envelope[(freqs < 0.5) | (freqs > 60.0)] = 0.0
    return envelope


def generate_epoch_samples(
    label: str, spec: SyntheticSpec, rng: np.random.Generator
) -> np.ndarray:
    """One epoch of class-coloured noise, scaled to its jittered target RMS."""
    profile = PROFILES[label]
    n = spec.samples_per_epoch
    freqs = np.fft.rfftfreq(n, 1.0 / spec.rate_hz)
    envelope = _spectral_envelope(freqs, profile, spec)
    phases = rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size)
    x = np.fft.irfft(envelope * phases, n)
    rms = float(np.sqrt(np.mean(x**2)))
    if rms == 0:
        return x
    jitter = float(np.exp(rng.normal(0.0, spec.amplitude_jitter)))
    return x * (spec.amplitude_uv * profile.power_scale * jitter / rms)


def _signal_header(spec: SyntheticSpec) -> EdfSignalHeader:
    limit = float(int(_HEADROOM * spec.amplitude_uv))
    return EdfSignalHeader(
        label="EEG synth",
        physical_dimension="uV",
        physical_min=-limit,
        physical_max=limit,
        digital_min=-32768,
        digital_max=32767,
        samples_per_record=spec.samples_per_epoch,
    )


def _file_header(spec: SyntheticSpec, label: str) -> EdfFileHeader:
    return EdfFileHeader(
        num_records=spec.epochs_per_class,
        record_duration_s=float(spec.epoch_length_s),
        recording_id=f"synthetic {label}",
    )


@contextlib.contextmanager
def _staged(targets: list[tuple[str | Path | None, str]]):
    """Yield a handle on each ``(path, mode)`` (None for a path of None). A regular or
    new file is written to a temp file beside the file a symlink names; if the block
    returns, each is fsynced and renamed onto that file in order, keeping its mode, and
    if it raises, KeyboardInterrupt included, each is removed. A device is opened as is."""
    with contextlib.ExitStack() as files:
        handles, staged = [], []
        try:
            for path, mode in targets:
                if path is None or os.path.exists(path) and not os.path.isfile(path):
                    handles.append(path and files.enter_context(open(path, mode)))
                    continue
                real = Path(path).resolve()
                temp = real.with_name(f".eegloop-{os.urandom(4).hex()}-{real.name}")
                try:  # "x" gives a new file the permissions that "w" would
                    handles.append(files.enter_context(open(
                        temp, mode.replace("w", "x"), newline=None if "b" in mode else "")))
                except OSError as exc:  # named by its target, as open() names it
                    raise type(exc)(exc.errno, exc.strerror, str(path)) from None
                staged.append((handles[-1], temp, real))
                if real.is_file():
                    temp.chmod(real.stat().st_mode & 0o7777)
            yield handles
            for fh, temp, real in staged:
                fh.flush()
                os.fsync(fh.fileno())
                os.replace(temp, real)
        except BaseException:
            for _, temp, _ in staged:
                temp.unlink(missing_ok=True)
            raise


def generate_dataset(spec: SyntheticSpec, out_dir: str | Path) -> Path:
    """Write one EDF per class plus the label index CSV; returns the CSV path.

    Each EDF data record holds exactly one epoch. Deterministic: equal
    specs (including the seed) produce byte-identical files. Each class is
    generated and staged in turn, and all five files are renamed at the end;
    if a step fails, every file stays as it was and new directories are removed.
    """
    out = Path(out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as unfinished:
        for d in reversed(made):
            unfinished.callback(d.rmdir)
        # The index is renamed last, so it never names an EDF that is not in place.
        with _staged([(out / f"{label}.edf", "wb") for label in CLASS_NAMES]
                     + [(out / LABEL_INDEX_NAME, "w")]) as (*edfs, index):
            rng = np.random.default_rng(spec.seed)
            writer = csv.writer(index)
            writer.writerow(_INDEX_COLUMNS)
            for label, fh in zip(CLASS_NAMES, edfs):
                samples = np.concatenate([generate_epoch_samples(label, spec, rng)
                                          for _ in range(spec.epochs_per_class)])
                fh.write(write_edf(_file_header(spec, label), [_signal_header(spec)],
                                   [samples]))
                writer.writerows((f"{label}.edf", idx, label)
                                 for idx in range(spec.epochs_per_class))
        unfinished.pop_all()
    return out / LABEL_INDEX_NAME


def read_label_index(
    dataset_dir: str | Path,
) -> tuple[Path, list[tuple[int, dict[str, str]]]]:
    """The path of ``dataset_dir``'s label index and its rows, keyed by column,
    each after the number of the line it ends on.

    Blank lines are skipped, and a quoted field may span lines, so a row's
    line is the count of lines read when it ends, not its place in the
    list. ``FileNotFoundError`` if there is no index; one ``ValueError``
    naming it if it is not CSV text, lacks a column, holds no rows or a row
    that is too short.
    """
    index_path = Path(dataset_dir) / LABEL_INDEX_NAME
    if not index_path.exists():
        raise FileNotFoundError(f"label index not found: {index_path}")
    try:
        with index_path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            rows = [(reader.line_num, row) for row in reader]
            columns = reader.fieldnames or ()
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"label index {index_path} is not CSV text: {exc}") from None
    if missing := [c for c in _INDEX_COLUMNS if c not in columns]:
        raise ValueError(f"label index {index_path} lacks column(s) {', '.join(missing)}")
    if not rows:
        raise ValueError(f"label index {index_path} holds no entries")
    for line, row in rows:
        if None in (row[c] for c in _INDEX_COLUMNS):
            raise ValueError(f"label index {index_path} line {line}: too few fields")
    return index_path, rows


def load_dataset(dataset_dir: str | Path) -> list[Epoch]:
    """Read a generated dataset back as labelled epochs: its label index by
    :func:`read_label_index`, then the epochs it lists by :func:`cut_epochs`."""
    return cut_epochs(*read_label_index(dataset_dir))


def cut_epochs(index_path: Path, rows: list[tuple[int, dict[str, str]]]) -> list[Epoch]:
    """The labelled epochs that the rows of the label index at ``index_path``
    list, as :func:`read_label_index` returns them.

    The EDF files named are read next to the index. Each file's first
    signal is cut into epochs of one record by :func:`assemble`, and a
    row's ``epoch_index`` must be an integer inside its file and its
    ``class`` one of ``CLASS_NAMES``; no epoch may be listed twice. Every
    file must have the first file's record duration and sample rate.
    Epochs are returned in index order with physical sample values.
    """
    root = index_path.parent
    cut: dict[str, list[Epoch]] = {}
    listed: dict[tuple[str, int], int] = {}  # (file, epoch_index) -> its line
    first = None  # (file, record duration, rate) of the first file read
    epochs = []
    for line, row in rows:
        filename = row["file"]
        if filename not in cut:
            try:
                header, _, trace = read_signal((root / filename).read_bytes())
            except EdfError as exc:
                raise EdfError(f"{filename}: {exc}") from None
            length_s = header.record_duration_s
            if length_s != int(length_s):
                raise ValueError(f"{filename}: record duration must be whole seconds")
            if first is None:
                first = (filename, length_s, trace.rate_hz)
            elif (length_s, trace.rate_hz) != first[1:]:
                raise ValueError(
                    f"{filename}: records of {length_s:g} s at {trace.rate_hz:.17g} Hz "
                    f"differ from {first[0]}'s {first[1]:g} s at {first[2]:.17g} Hz"
                )
            try:  # the record length must be an epoch length
                cut[filename] = list(assemble(trace.samples, int(length_s), trace.rate_hz))
            except ValueError as exc:
                raise ValueError(f"{filename}: {exc}") from None
        file_epochs = cut[filename]
        try:
            idx = int(row["epoch_index"])
        except ValueError:
            raise ValueError(
                f"label index {index_path} line {line}: epoch_index "
                f"{row['epoch_index']!r} is not an integer"
            ) from None
        if not 0 <= idx < len(file_epochs):
            raise ValueError(
                f"label index {index_path} line {line}: epoch_index {idx} is outside "
                f"{filename}'s {len(file_epochs)} epochs"
            )
        try:
            class_index(row["class"])
        except ValueError as exc:
            raise ValueError(f"label index {index_path} line {line}: {exc}") from None
        if (seen := listed.setdefault((filename, idx), line)) != line:
            raise ValueError(f"label index {index_path} line {line}: epoch {idx} of "
                             f"{filename} is already listed on line {seen}")
        epochs.append(replace(file_epochs[idx], label=row["class"]))
    return epochs
