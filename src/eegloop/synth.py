"""Seeded synthetic 4-class EEG dataset generation.

Real labelled rodent recordings are not redistributable, so end-to-end
runs use a generated stand-in with the same shape: single-channel EDF
files at 256 Hz, cut into whole-epoch records, with a CSV label index.

Each epoch is coloured noise shaped in the frequency domain: a sum of
Gaussian spectral bumps (class-specific centers, widths, and weights)
plus a flat broadband noise floor, with random phases and a log-normal
per-epoch amplitude jitter. The default profiles give the wake classes
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
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

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


DEFAULT_PROFILES: dict[str, ClassProfile] = {
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
    """Knobs for the generator; defaults make a moderately hard 4-class task."""

    profiles: dict[str, ClassProfile] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES)
    )
    amplitude_uv: float = 100.0
    noise_level: float = 0.4
    amplitude_jitter: float = 0.3
    epochs_per_class: int = 200
    epoch_length_s: int = 16
    rate_hz: float = 256.0
    seed: int = 0

    def __post_init__(self) -> None:
        if set(self.profiles) != set(CLASS_NAMES):
            raise ValueError(f"profiles must cover exactly the classes {CLASS_NAMES}")
        if self.epochs_per_class < 1:
            raise ValueError("epochs_per_class must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Written so that NaN fails each check. The EDF limits are
        # -/+int(_HEADROOM * amplitude_uv); with its sign, a limit of 1 to 7
        # digits fits its 8-character header field.
        if not 1 <= _HEADROOM * self.amplitude_uv < 10_000_000:
            raise ValueError(
                f"amplitude_uv must be {1 / _HEADROOM:g} to under "
                f"{10_000_000 / _HEADROOM:g}, so that the EDF limit fits its field, "
                f"got {self.amplitude_uv}"
            )
        if not 0 <= self.noise_level < math.inf:
            raise ValueError(
                f"noise_level must be >= 0 and finite, got {self.noise_level}"
            )
        if not 0 <= self.amplitude_jitter < math.inf:
            raise ValueError(
                f"amplitude_jitter must be >= 0 and finite, got {self.amplitude_jitter}"
            )
        # Checks the epoch length, and that one epoch fits one EDF record,
        # before any sample is allocated.
        _signal_header(self)

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
    profile = spec.profiles[label]
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


def generate_dataset(spec: SyntheticSpec, out_dir: str | Path) -> Path:
    """Write one EDF per class plus the label index CSV; returns the CSV path.

    Each EDF data record holds exactly one epoch. Deterministic: equal
    specs (including the seed) produce byte-identical files. Classes are
    generated and written one at a time; if any step fails, the files
    this call wrote and the directories it made are removed.
    """
    out = Path(out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as unfinished:
        for d in reversed(made):
            unfinished.callback(d.rmdir)
        rng = np.random.default_rng(spec.seed)
        rows = []
        for label in CLASS_NAMES:
            try:  # settings whose numbers overflow fail by the class, not with warnings
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    samples = np.concatenate([generate_epoch_samples(label, spec, rng)
                                              for _ in range(spec.epochs_per_class)])
            except ArithmeticError as exc:
                raise ValueError(
                    f"class {label!r} cannot be generated: {exc.args[-1]}") from None
            header = EdfFileHeader(
                num_records=spec.epochs_per_class,
                record_duration_s=float(spec.epoch_length_s),
                recording_id=f"synthetic {label}",
            )
            filename = f"{label}.edf"
            unfinished.callback((out / filename).unlink, missing_ok=True)
            (out / filename).write_bytes(
                write_edf(header, [_signal_header(spec)], [samples])
            )
            rows.extend(
                (filename, idx, label) for idx in range(spec.epochs_per_class)
            )
        index_path = out / LABEL_INDEX_NAME
        unfinished.callback(index_path.unlink, missing_ok=True)
        with index_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_INDEX_COLUMNS)
            writer.writerows(rows)
        unfinished.pop_all()
    return index_path


def load_dataset(dataset_dir: str | Path) -> list[Epoch]:
    """Read a generated dataset back as labelled epochs.

    Expects the label index CSV next to the EDF files it names. Each file's
    first signal is cut into epochs of one record by :func:`assemble`, and
    a row's ``epoch_index`` must be an integer inside its file and its
    ``class`` one of ``CLASS_NAMES``; no epoch may be listed twice. Every
    file must have the first file's record duration and sample rate.
    Epochs are returned in index order with physical sample values.
    """
    root = Path(dataset_dir)
    index_path = root / LABEL_INDEX_NAME
    if not index_path.exists():
        raise FileNotFoundError(f"label index not found: {index_path}")
    with index_path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _INDEX_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(
                f"label index {index_path} lacks column(s) {', '.join(missing)}"
            )
        rows = list(reader)
    if not rows:
        raise ValueError(f"label index {index_path} holds no entries")

    cut: dict[str, list[Epoch]] = {}
    listed: dict[tuple[str, int], int] = {}  # (file, epoch_index) -> its line
    first = None  # (file, record duration, rate) of the first file read
    epochs = []
    for line, row in enumerate(rows, start=2):
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
        except (TypeError, ValueError):
            raise ValueError(
                f"label index {index_path} line {line}: epoch_index "
                f"{row['epoch_index']!r} is not an integer"
            ) from None
        if not 0 <= idx < len(file_epochs):
            raise ValueError(
                f"{filename}: epoch_index {idx} is outside the file's "
                f"{len(file_epochs)} epochs"
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
