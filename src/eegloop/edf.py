"""Bit-exact reader and writer for plain EDF recordings.

EDF stores a 256-byte fixed ASCII header, one 256-byte ASCII header per
signal (field-major order), and data records of little-endian signed
16-bit samples interleaved per signal. Digital codes map linearly onto
physical units through the per-signal calibration fields.

The reader and the writer walk one (name, width, type) table per header.
Every header byte is ASCII, reserved bytes included; numbers are plain
decimals (no ``nan``, ``inf`` or ``1_0``); the record duration and the
physical limits are finite; ``header_bytes`` is derived from the signal
count, and the reader checks the stored value against it. Each header
class checks its fields when built, so no invalid header exists.

The calibration maps between physical values and digital codes are
each written once, as a private step that writes into a float64 array
it is given. :func:`write_edf` is the one encoder and :func:`to_trace`
the one decoder: they run them over one cache-sized block of samples at
a time, writing straight into the record buffer or the output trace, so
besides their output they hold O(block) memory (a block of whole
records when writing).

Only continuous, plain EDF is handled here: annotation signals (the
EDF+ "EDF Annotations" channel) are skipped with a warning, and the
24-bit BDF variant is rejected by virtue of its non-numeric header.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

ANNOTATION_LABEL = "EDF Annotations"

# The fixed header and each signal's header are 256 bytes long.
_BLOCK_BYTES = 256

# Samples per block of the sample codecs here, and the most per block of
# the loopback replay, whose blocks are the leaves of numpy's pairwise-sum
# tree (so about _BLOCK_LEN / 2 to _BLOCK_LEN samples on long traces):
# 2**15 float64 values (256 KiB) keep a block's buffers in L2. Blocks of
# 2**14 to 2**17 samples timed within noise of each other; at 2**12 the
# per-block numpy calls made the replay ~1.5x slower (BENCH_18.json).
_BLOCK_LEN = 2**15

# (field name, byte width, type) for the fixed header, in file order.
_FIXED_FIELDS = (
    ("version", 8, str),
    ("patient_id", 80, str),
    ("recording_id", 80, str),
    ("start_date", 8, str),
    ("start_time", 8, str),
    ("header_bytes", 8, int),
    ("reserved", 44, str),
    ("num_records", 8, int),
    ("record_duration_s", 8, float),
    ("num_signals", 4, int),
)

# (field name, byte width per signal, type) for the signal headers, in file order.
_SIGNAL_FIELDS = (
    ("label", 16, str),
    ("transducer", 80, str),
    ("physical_dimension", 8, str),
    ("physical_min", 8, float),
    ("physical_max", 8, float),
    ("digital_min", 8, int),
    ("digital_max", 8, int),
    ("prefiltering", 80, str),
    ("samples_per_record", 8, int),
    ("reserved", 32, str),
)

# The most samples one signal's record can hold: as many digits as its field is wide.
_MAX_SAMPLES_PER_RECORD = (
    10 ** next(w for n, w, _ in _SIGNAL_FIELDS if n == "samples_per_record") - 1
)

# The plain ASCII decimals a numeric field may hold.
_NUMBER = {
    int: re.compile(r"[+-]?[0-9]+"),
    float: re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"),
}


class EdfError(ValueError):
    """Structural or encoding problem in an EDF byte stream."""


@dataclass(frozen=True)
class EdfFileHeader:
    """Decoded fixed header of an EDF file; ``EdfError`` if a field is invalid."""

    version: str = "0"
    patient_id: str = ""
    recording_id: str = ""
    start_date: str = "01.01.01"
    start_time: str = "00.00.00"
    num_records: int = -1
    record_duration_s: float = 1.0
    num_signals: int = 1

    # The constructor under an old name, kept only because benchmark/workloads.py
    # calls it; it goes when that stops.
    create = classmethod(lambda cls, **fields: cls(**fields))

    @property
    def header_bytes(self) -> int:
        """Length of the fixed header plus every signal header."""
        return _BLOCK_BYTES * (self.num_signals + 1)

    def __post_init__(self) -> None:
        if self.num_signals < 1:
            raise EdfError(f"num_signals must be >= 1, got {self.num_signals}")
        if not 0 < self.record_duration_s < math.inf:
            raise EdfError("record duration must be positive and finite")


@dataclass(frozen=True)
class EdfSignalHeader:
    """Per-signal calibration and record layout; ``EdfError`` if a field is invalid."""

    label: str = "EEG"
    transducer: str = ""
    physical_dimension: str = "uV"
    physical_min: float = -1000.0
    physical_max: float = 1000.0
    digital_min: int = -32768
    digital_max: int = 32767
    prefiltering: str = ""
    samples_per_record: int = 256

    def __post_init__(self) -> None:
        if self.digital_min >= self.digital_max:
            raise EdfError("digital_min must be < digital_max")
        if not (math.isfinite(self.physical_min) and math.isfinite(self.physical_max)):
            raise EdfError("physical limits must be finite")
        if self.physical_min == self.physical_max:
            raise EdfError("physical_min must differ from physical_max")
        if not 1 <= self.samples_per_record <= _MAX_SAMPLES_PER_RECORD:
            raise EdfError(
                f"samples_per_record must be 1 to {_MAX_SAMPLES_PER_RECORD}, "
                f"got {self.samples_per_record}"
            )
        for v in (self.digital_min, self.digital_max):
            if not -32768 <= v <= 32767:
                raise EdfError("digital range must fit in signed 16 bits")


@dataclass
class SignalTrace:
    """A decoded signal: physical sample values at a fixed rate."""

    samples: np.ndarray
    rate_hz: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")


def _to_physical(
    codes: np.ndarray, out: np.ndarray, hdr: EdfSignalHeader
) -> np.ndarray:
    """Codes to physical values in ``out``: ``pmin + (codes - dmin) * scale``."""
    if codes.size and (codes.min() < hdr.digital_min or codes.max() > hdr.digital_max):
        raise EdfError(
            f"digital code outside [{hdr.digital_min}, {hdr.digital_max}]"
        )
    scale = (hdr.physical_max - hdr.physical_min) / (hdr.digital_max - hdr.digital_min)
    np.subtract(codes, hdr.digital_min, out=out, dtype=np.float64)
    out *= scale
    out += hdr.physical_min
    return out


def _to_digital(
    values: np.ndarray, out: np.ndarray, sign: np.ndarray, hdr: EdfSignalHeader,
    first: int,
) -> np.ndarray:
    """Physical values to codes in ``out``, float64 holding integral values.

    ``raw = dmin + (values - pmin) * scale``, rounded half away from zero
    and clamped to the digital range. ``sign`` is scratch of the same
    shape; ``first`` is the index of ``values[0]`` in its signal, for the
    error a NaN raises.
    """
    scale = (hdr.digital_max - hdr.digital_min) / (hdr.physical_max - hdr.physical_min)
    np.subtract(values, hdr.physical_min, out=out)
    out *= scale
    out += hdr.digital_min
    # Rounding is symmetric, so x + copysign(0.5, x) is exactly sign(x) * (|x| + 0.5)
    # and its trunc rounds x half away from zero; only a zero's sign can differ.
    out += np.copysign(0.5, out, out=sign)
    np.trunc(out, out=out)
    np.clip(out, hdr.digital_min, hdr.digital_max, out=out)
    if out.size and np.isnan(out.max()):
        index = first + int(np.flatnonzero(np.isnan(out))[0])
        raise EdfError(f"signal {hdr.label!r} has a NaN sample at index {index}")
    return out


def to_trace(
    file_hdr: EdfFileHeader, sig_hdr: EdfSignalHeader, digital: np.ndarray
) -> SignalTrace:
    """Decode one signal's digital samples into a physical trace.

    Decodes one block at a time, straight into the returned trace.
    """
    rate = sig_hdr.samples_per_record / file_hdr.record_duration_s
    digital = np.asarray(digital)
    samples = np.empty(digital.shape)
    for start in range(0, len(samples), _BLOCK_LEN):
        block = slice(start, start + _BLOCK_LEN)
        _to_physical(digital[block], samples[block], sig_hdr)
    return SignalTrace(samples, rate)


def read_signal(
    data: bytes, index: int = 0
) -> tuple[EdfFileHeader, EdfSignalHeader, SignalTrace]:
    """The file header, signal header and physical trace of signal ``index``.

    ``index`` counts the signals :func:`parse_edf` returns, so annotation
    signals are not counted; a missing signal raises ``EdfError``.
    """
    header, sig_headers, digital = parse_edf(data)
    if not 0 <= index < len(sig_headers):
        raise EdfError(f"no signal {index}; the file has {len(sig_headers)} signal(s)")
    sig = sig_headers[index]
    return header, sig, to_trace(header, sig, digital[index])


def _decode(raw: bytes, field: str, kind: type) -> str | int | float:
    try:
        text = raw.decode("ascii").rstrip(" ")
    except UnicodeDecodeError as exc:
        raise EdfError(f"non-ASCII bytes in header field {field!r}") from exc
    if kind is str:
        return text
    text = text.strip()
    if not _NUMBER[kind].fullmatch(text):
        raise EdfError(f"non-numeric value {text!r} in header field {field!r}")
    return kind(text)


def _decode_fields(data: bytes, fields: tuple, count: int) -> list[dict]:
    """Decode ``count`` field-major headers from ``data``, dropping reserved fields."""
    rows: list[dict] = [{} for _ in range(count)]
    pos = 0
    for name, width, kind in fields:
        for row in rows:
            row[name] = _decode(data[pos : pos + width], name, kind)
            pos += width
    for row in rows:
        del row["reserved"]
    return rows


def parse_edf(
    data: bytes,
) -> tuple[EdfFileHeader, list[EdfSignalHeader], list[np.ndarray]]:
    """Parse EDF bytes into headers and per-signal digital sample arrays.

    Returns the fixed header, the non-annotation signal headers, and one
    ``int16`` array of digital samples per returned header (records
    concatenated in order). Annotation signals are skipped with a warning;
    ``header.num_signals`` keeps the on-file count. Every returned array is
    read-only; a one-signal file's array is a view of ``data``, not a copy.

    Raises ``EdfError`` on truncated input, non-ASCII header bytes,
    numeric fields that are not plain decimals, an inconsistent
    ``header_bytes``, a field its header class refuses, or a data
    section shorter than the declared records.
    """
    if len(data) < _BLOCK_BYTES:
        raise EdfError(f"file too short for EDF header: {len(data)} bytes")

    (fixed,) = _decode_fields(data, _FIXED_FIELDS, 1)
    stored_header_bytes = fixed.pop("header_bytes")
    header = EdfFileHeader(**fixed)
    ns = header.num_signals
    if stored_header_bytes != header.header_bytes:
        raise EdfError(
            f"header_bytes {stored_header_bytes} inconsistent with "
            f"{ns} signals (expected {header.header_bytes})"
        )
    if len(data) < header.header_bytes:
        raise EdfError("file truncated inside signal headers")

    signal_block = data[_BLOCK_BYTES : header.header_bytes]
    signal_headers = [
        EdfSignalHeader(**row) for row in _decode_fields(signal_block, _SIGNAL_FIELDS, ns)
    ]

    samples_per_record = [h.samples_per_record for h in signal_headers]
    record_samples = sum(samples_per_record)
    record_bytes = record_samples * 2
    body = len(data) - header.header_bytes

    num_records = header.num_records
    if num_records < 0:
        if body % record_bytes:
            raise EdfError("data section is not a whole number of records")
        num_records = body // record_bytes
    elif body < num_records * record_bytes:
        raise EdfError(
            f"data section holds {body} bytes, expected "
            f"{num_records * record_bytes} for {num_records} records"
        )

    raw = np.frombuffer(
        data, dtype="<i2", count=num_records * record_samples, offset=header.header_bytes
    )
    records = raw.reshape(num_records, record_samples)
    offsets = np.concatenate(([0], np.cumsum(samples_per_record)))

    out_headers: list[EdfSignalHeader] = []
    out_samples: list[np.ndarray] = []
    for i, sig in enumerate(signal_headers):
        if sig.label == ANNOTATION_LABEL:
            warnings.warn(f"skipping annotation signal at index {i}", stacklevel=2)
            continue
        out_headers.append(sig)
        samples = records[:, offsets[i] : offsets[i + 1]].reshape(-1)
        samples.flags.writeable = False
        out_samples.append(samples)
    return header, out_headers, out_samples


def _encode(value: str | int | float, width: int, field: str, kind: type) -> bytes:
    if kind is str:
        text = value
    elif kind is int or float(value).is_integer():
        text = str(int(value))
    else:
        text = repr(float(value))
    if kind is not str and (len(text) > width or float(text) != float(value)):
        raise EdfError(
            f"value {value!r} for field {field!r} has no exact "
            f"{width}-character representation"
        )
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise EdfError(f"field {field!r} is not ASCII") from exc
    if len(raw) > width:
        raise EdfError(f"field {field!r} longer than {width} bytes: {value!r}")
    return raw.ljust(width)


def write_edf(
    header: EdfFileHeader,
    signal_headers: list[EdfSignalHeader],
    signals: list[np.ndarray],
) -> bytes:
    """Encode physical signals into EDF bytes.

    ``signals`` holds one physical sample array per signal header. Each
    value is mapped to a code by the calibration line, rounded half away
    from zero and clamped to the digital range, so out-of-range values and
    infinities saturate; a NaN raises ``EdfError`` naming the signal and
    the sample's index. Every code decoded by :func:`to_trace` encodes back
    to itself, and reparsing the output reproduces the header fields and
    digital samples bit-exactly.

    Each signal is encoded one block of whole records at a time, straight
    into the data-record buffer.
    """
    ns = header.num_signals
    if ns != len(signal_headers) or ns != len(signals):
        raise EdfError("header.num_signals disagrees with provided signals")
    if header.num_records < 1:
        raise EdfError("num_records must be >= 1 when writing")
    for sig, samples in zip(signal_headers, signals):
        expected = header.num_records * sig.samples_per_record
        if len(samples) != expected:
            raise EdfError(
                f"signal {sig.label!r} has {len(samples)} samples, expected "
                f"{header.num_records} x {sig.samples_per_record}"
            )

    # Field-major, like the reader; reserved fields have no attribute and are blank.
    parts = [
        _encode(getattr(hdr, name, ""), width, name, kind)
        for fields, hdrs in ((_FIXED_FIELDS, [header]), (_SIGNAL_FIELDS, signal_headers))
        for name, width, kind in fields
        for hdr in hdrs
    ]

    num_records = header.num_records
    record = np.empty(
        (num_records, sum(s.samples_per_record for s in signal_headers)), dtype="<i2"
    )
    col = 0
    for sig, samples in zip(signal_headers, signals):
        spr = sig.samples_per_record
        physical = np.asarray(samples, dtype=np.float64).reshape(num_records, spr)
        rows = min(max(1, _BLOCK_LEN // spr), num_records)
        codes, sign = np.empty((rows, spr)), np.empty((rows, spr))
        for r in range(0, num_records, rows):
            block = physical[r : r + rows]
            n = len(block)
            _to_digital(block, codes[:n], sign[:n], sig, r * spr)
            record[r : r + n, col : col + spr] = codes[:n]
        col += spr
    parts.append(memoryview(record))
    return b"".join(parts)
