"""
EDF files: write, parse, and calibrate
======================================

Builds a two-signal EDF recording in memory, writes it to disk, parses
it back, and walks through the digital/physical calibration map with
the one codec path: ``write_edf`` encodes, ``parse_edf`` reads the codes
back, and ``to_trace`` decodes them.
"""

import dataclasses

import numpy as np

from eegloop import EdfFileHeader, EdfSignalHeader, parse_edf, to_trace, write_edf

# A 10-second recording: 1 s data records, two signals at different rates.
header = EdfFileHeader.create(
    num_signals=2,
    num_records=10,
    record_duration_s=1.0,
    patient_id="demo subject",
    recording_id="round-trip demo",
)
eeg = EdfSignalHeader(
    label="EEG Fpz-Cz", physical_dimension="uV",
    physical_min=-500.0, physical_max=500.0, samples_per_record=256,
)
marker = EdfSignalHeader(
    label="marker", physical_dimension="",
    physical_min=0.0, physical_max=100.0,
    digital_min=0, digital_max=100, samples_per_record=1,
)

t = np.arange(2560) / 256.0
eeg_signal = 120 * np.sin(2 * np.pi * 8 * t) + 40 * np.sin(2 * np.pi * 23 * t)
marker_signal = np.arange(10.0) * 10

data = write_edf(header, [eeg, marker], [eeg_signal, marker_signal])
print(f"wrote {len(data)} bytes "
      f"(= 256 x {header.num_signals + 1} header + records)")

# Parse it back: headers and int16 digital codes, bit-exact.
parsed, signals, digital = parse_edf(data)
print(f"parsed: {parsed.num_records} records, {len(signals)} signals")
for sig, codes in zip(signals, digital):
    print(f"  {sig.label!r:16} {codes.size:5d} samples, "
          f"digital range seen [{codes.min()}, {codes.max()}]")

# The calibration map is the exact line through the header's endpoints:
# decode three codes, then encode their values, and two beyond the range,
# into a one-record file and read the codes back.
print("\ncalibration for", eeg.label)
codes = np.array([eeg.digital_min, 0, eeg.digital_max])
phys = to_trace(parsed, eeg, codes).samples
probe = dataclasses.replace(eeg, samples_per_record=5)
_, _, (back,) = parse_edf(write_edf(EdfFileHeader.create(num_signals=1, num_records=1),
                                    [probe], [np.append(phys, [1e9, -np.inf])]))
for code, value, again in zip(codes, phys, back):
    print(f"  code {code:6d} -> {value:10.4f} uV -> code {again:6d}")

# Physical values beyond the declared range saturate instead of failing,
# mirroring what a converter would do.
print(f"  1e9 uV -> {back[3]}, -inf uV -> {back[4]} (clamped)")

trace = to_trace(parsed, signals[0], digital[0])
recovered_rmse = np.sqrt(np.mean((trace.samples - eeg_signal) ** 2))
print(f"\ndecoded trace: {trace.samples.size} samples at {trace.rate_hz} Hz, "
      f"quantization RMSE {recovered_rmse:.4f} uV")
