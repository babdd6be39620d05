"""Software models of the DAC replay and ADC capture path.

The physical rig this package emulates drives an EEG recording out of a
12-bit DAC, across a wire, and back into a 10-bit ADC, then compares the
recaptured waveform against the stored one. Here both converters are
deterministic quantizer models joined by an ideal wire, so the same
fidelity measurements run entirely in software.

Conventions: the DAC rounds to the nearest output level on the grid
``code / (2**bits - 1) * vref``; the ADC truncates, ``floor(2**bits *
volts / vref)``. Both saturate at their code limits and never raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edf import SignalTrace

# Typical mean-squared error measured on the physical DAC-to-ADC loopback
# this module models, in the source recording's units squared. Reported
# alongside software results for orientation; never asserted against.
HARDWARE_LOOPBACK_REFERENCE_MSE = 0.26


@dataclass(frozen=True)
class DacModel:
    """Digital-to-analog converter: rounds to the nearest of 2**bits levels."""

    bits: int = 12
    vref_volts: float = 3.3

    def __post_init__(self) -> None:
        _check_converter(self.bits, self.vref_volts)

    @property
    def lsb_volts(self) -> float:
        return self.vref_volts / (2**self.bits - 1)


@dataclass(frozen=True)
class AdcModel:
    """Analog-to-digital converter: truncating quantizer over [0, vref)."""

    bits: int = 10
    vref_volts: float = 3.3

    def __post_init__(self) -> None:
        _check_converter(self.bits, self.vref_volts)

    @property
    def lsb_volts(self) -> float:
        return self.vref_volts / 2**self.bits


def _check_converter(bits: int, vref: float) -> None:
    if not 1 <= bits <= 16:
        raise ValueError(f"converter bits must be in [1, 16], got {bits}")
    if not 0 < vref < math.inf:
        raise ValueError(f"vref_volts must be positive and finite, got {vref}")


@dataclass(frozen=True)
class VoltageMapping:
    """Affine map from physical signal units into the converter voltage window."""

    gain_volts_per_unit: float
    offset_volts: float

    def __post_init__(self) -> None:
        gain = self.gain_volts_per_unit
        if not math.isfinite(gain) or gain == 0:
            raise ValueError(f"gain must be finite and nonzero, got {gain}")
        if not math.isfinite(self.offset_volts):
            raise ValueError(f"offset must be finite, got {self.offset_volts}")

    @classmethod
    def centered(
        cls, physical_min: float, physical_max: float,
        vref_volts: float = 3.3, span: float = 0.9,
    ) -> "VoltageMapping":
        """Map [physical_min, physical_max] onto the middle ``span`` of [0, vref].

        The midpoint of the physical range lands on vref/2; the default 90%
        span leaves headroom against clipping at both rails.
        """
        if physical_max <= physical_min:
            raise ValueError("physical_max must exceed physical_min")
        gain = span * vref_volts / (physical_max - physical_min)
        center = 0.5 * (physical_min + physical_max)
        return cls(gain, vref_volts / 2 - gain * center)

    def to_volts(self, value: float | np.ndarray) -> float | np.ndarray:
        return self.gain_volts_per_unit * value + self.offset_volts

    def to_units(self, volts: float | np.ndarray) -> float | np.ndarray:
        return (volts - self.offset_volts) / self.gain_volts_per_unit


@dataclass(frozen=True)
class SampleClock:
    """Sample timing: the nominal rate plus a simulation speed-up factor.

    ``acceleration`` of 1 is real time; larger values compress the wall-clock
    delivery interval accordingly, ``math.inf`` meaning "as fast as the
    consumer allows".
    """

    rate_hz: float = 256.0
    acceleration: float = 1.0

    def __post_init__(self) -> None:
        if not self.rate_hz > 0:
            raise ValueError("rate_hz must be positive")
        if not self.acceleration >= 1:
            raise ValueError("acceleration must be >= 1")


@dataclass
class LoopbackResult:
    """Stored-versus-recaptured traces and their fidelity summary."""

    expected_trace: SignalTrace
    observed_trace: SignalTrace
    n: int
    mse: float
    clip_count: int = 0

    @property
    def max_abs_error(self) -> float:
        return float(
            np.max(np.abs(self.observed_trace.samples - self.expected_trace.samples))
        )


def dac_emit(
    value: float | np.ndarray, mapping: VoltageMapping, dac: DacModel
) -> tuple[int | np.ndarray, float | np.ndarray]:
    """Quantize a physical value onto the DAC output grid.

    Returns ``(code, volts)`` where ``code = round(v / vref * (2**bits - 1))``
    clamped to the code range and ``volts`` is the emitted level
    ``code / (2**bits - 1) * vref``. Saturates instead of raising.
    """
    full_scale = 2**dac.bits - 1
    v = np.asarray(mapping.to_volts(value), dtype=np.float64)
    raw = v / dac.vref_volts * full_scale
    code = np.clip(np.floor(raw + 0.5), 0, full_scale).astype(np.int64)
    volts = code.astype(np.float64) / full_scale * dac.vref_volts
    if np.isscalar(value):
        return int(code), float(volts)
    return code, volts


def adc_sample(volts: float | np.ndarray, adc: AdcModel) -> int | np.ndarray:
    """Truncating ADC transfer: ``floor(2**bits * volts / vref)``, saturated.

    Monotonic non-decreasing in the input voltage.
    """
    raw = np.floor(2**adc.bits * np.asarray(volts, dtype=np.float64) / adc.vref_volts)
    code = np.clip(raw, 0, 2**adc.bits - 1).astype(np.int64)
    return int(code) if np.isscalar(volts) else code


def mse(expected: np.ndarray, observed: np.ndarray) -> float:
    """Mean squared error between two equal-length sequences."""
    e = np.asarray(expected, dtype=np.float64)
    o = np.asarray(observed, dtype=np.float64)
    if e.shape != o.shape:
        raise ValueError(f"length mismatch: {e.shape} vs {o.shape}")
    if e.size == 0:
        raise ValueError("mse requires at least one sample")
    return float(np.mean((o - e) ** 2))


def quantization_error_bound(
    mapping: VoltageMapping, dac: DacModel | None, adc: AdcModel | None
) -> float:
    """Worst-case per-sample |observed - expected| in physical units.

    With noiseless converters the DAC contributes half an LSB (round to
    nearest) and the ADC one full LSB (truncation), both divided by the
    mapping gain. The loopback MSE can never exceed this bound squared.
    """
    volts = 0.0
    if dac is not None:
        volts += dac.lsb_volts / 2
    if adc is not None:
        volts += adc.lsb_volts
    return volts / abs(mapping.gain_volts_per_unit)


_DEFAULT_DAC = DacModel()
_DEFAULT_ADC = AdcModel()


def replay_capture(
    trace: SignalTrace,
    mapping: VoltageMapping,
    dac: DacModel | None = _DEFAULT_DAC,
    adc: AdcModel | None = _DEFAULT_ADC,
) -> LoopbackResult:
    """Replay a stored trace through the DAC and recapture it via the ADC.

    Each sample is mapped to volts, quantized by the DAC model, sampled
    by the ADC model, and mapped back to physical units. Defaults are the
    modelled hardware: a 12-bit DAC into a 10-bit ADC at 3.3 V.
    ``dac=None`` or ``adc=None`` bypasses that converter; bypassing both
    reproduces the input exactly.
    """
    x = trace.samples
    if x.size == 0:
        raise ValueError("cannot replay an empty trace")
    if dac is None and adc is None:
        observed = x.copy()
        clip_count = 0
    else:
        v = np.asarray(mapping.to_volts(x), dtype=np.float64)
        clipped = np.zeros(x.shape, dtype=bool)
        if dac is not None:
            clipped |= (v < 0) | (v > dac.vref_volts)
            _, v = dac_emit(x, mapping, dac)
        if adc is not None:
            clipped |= (v < 0) | (v > adc.vref_volts)
            code = adc_sample(v, adc)
            v = np.asarray(code, dtype=np.float64) * adc.lsb_volts
        observed = np.asarray(mapping.to_units(v), dtype=np.float64)
        clip_count = int(np.count_nonzero(clipped))
    return LoopbackResult(
        expected_trace=trace,
        observed_trace=SignalTrace(observed, trace.rate_hz),
        n=int(x.size),
        mse=mse(x, observed),
        clip_count=clip_count,
    )
