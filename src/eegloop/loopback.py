"""Software models of the DAC replay and ADC capture path.

The physical rig this package emulates drives an EEG recording out of a
12-bit DAC, across a wire, and back into a 10-bit ADC, then compares the
recaptured waveform against the stored one. Here both converters are
deterministic quantizer models joined by an ideal wire, so the same
fidelity measurements run entirely in software.

Conventions: the DAC rounds to the nearest output level on the grid
``code / (2**bits - 1) * vref``; the ADC truncates, ``floor(2**bits *
volts / vref)``. Both saturate at their code limits and never raise.

Each transfer rule (the voltage mapping, the DAC, the ADC) is written
once, as a private step that writes into a float64 array it is given,
codes held as integral float64 values (never ``-0.0``); the public
functions run it on a fresh array. :func:`replay_capture` runs
the whole chain over one cache-sized block of samples at a time, in
the block of its output array. After the DAC a sample is one of
``2**bits`` codes, so the rest of the chain runs once per code, into a
table that each block indexes. ``mse`` is summed block by block in
numpy's own pairwise order, so a replay holds the observed trace plus
O(block) scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .edf import _BLOCK_LEN, SignalTrace

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

    def _quantize(self, v: np.ndarray) -> np.ndarray:
        """Volts to codes, in place: ``clip(floor(v / vref * full_scale + 0.5))``."""
        return np.clip(self._round(v), 0, 2**self.bits - 1, out=v)

    def _round(self, v: np.ndarray) -> np.ndarray:
        """The codes before the clip, in place: ``floor(v / vref * full_scale + 0.5)``.

        The clip is a no-op when every ``v`` lies in ``[0, vref]``.
        """
        v /= self.vref_volts
        v *= 2**self.bits - 1
        v += 0.5
        return np.floor(v, out=v)

    def _level(self, code: np.ndarray) -> np.ndarray:
        """Codes to the emitted volts, in place: ``code / full_scale * vref``."""
        code /= 2**self.bits - 1
        code *= self.vref_volts
        return code


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

    def _quantize(self, v: np.ndarray) -> np.ndarray:
        """Volts to codes, in place: ``clip(floor(2**bits * v / vref))``."""
        v *= 2**self.bits
        v /= self.vref_volts
        np.floor(v, out=v)
        np.clip(v, 0, 2**self.bits - 1, out=v)
        v += 0.0  # floor(-0.0) survives the clip; the code is +0.0
        return v


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
        return _scalar_or_array(self._to_volts(value, np.empty(np.shape(value))))

    def to_units(self, volts: float | np.ndarray) -> float | np.ndarray:
        return _scalar_or_array(self._to_units(volts, np.empty(np.shape(volts))))

    def _to_volts(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Units to volts in ``out``, which may be ``x``: ``gain * x + offset``."""
        np.multiply(x, self.gain_volts_per_unit, out=out)
        out += self.offset_volts
        return out

    def _to_units(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Volts to units in ``out``, which may be ``v``: ``(v - offset) / gain``."""
        np.subtract(v, self.offset_volts, out=out)
        out /= self.gain_volts_per_unit
        return out


def _scalar_or_array(a: np.ndarray) -> float | np.ndarray:
    return a if a.ndim else float(a)


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
        """``max(|observed - expected|)``, one block at a time."""
        observed, expected = self.observed_trace.samples, self.expected_trace.samples
        error = np.empty(observed[:_BLOCK_LEN].shape)
        peak = -math.inf
        for start in range(0, len(observed), _BLOCK_LEN):
            block = slice(start, start + _BLOCK_LEN)
            e = np.subtract(observed[block], expected[block], out=error[: len(observed) - start])
            peak = np.maximum(peak, np.abs(e, out=e).max())  # a NaN stays, as in np.max
        return float(peak)


def dac_emit(
    value: float | np.ndarray, mapping: VoltageMapping, dac: DacModel
) -> tuple[int | np.ndarray, float | np.ndarray]:
    """Quantize a physical value onto the DAC output grid.

    Returns ``(code, volts)`` where ``code = round(v / vref * (2**bits - 1))``
    clamped to the code range and ``volts`` is the emitted level
    ``code / (2**bits - 1) * vref``. Saturates instead of raising.
    """
    levels = dac._quantize(mapping._to_volts(value, np.empty(np.shape(value))))
    code = levels.astype(np.int64)
    volts = dac._level(levels)
    if np.isscalar(value):
        return int(code), float(volts)
    return code, volts


def adc_sample(volts: float | np.ndarray, adc: AdcModel) -> int | np.ndarray:
    """Truncating ADC transfer: ``floor(2**bits * volts / vref)``, saturated.

    Monotonic non-decreasing in the input voltage.
    """
    code = adc._quantize(np.array(volts, dtype=np.float64)).astype(np.int64)
    return int(code) if np.isscalar(volts) else code


def mse(expected: np.ndarray, observed: np.ndarray) -> float:
    """Mean squared error between two equal-length sequences."""
    e = np.asarray(expected, dtype=np.float64)
    o = np.asarray(observed, dtype=np.float64)
    if e.shape != o.shape:
        raise ValueError(f"length mismatch: {e.shape} vs {o.shape}")
    if e.size == 0:
        raise ValueError("mse requires at least one sample")
    return float(np.mean(_squared_error(o, e)))


def _squared_error(
    observed: np.ndarray, expected: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``(observed - expected) ** 2``, written into ``out`` when given."""
    d = np.subtract(observed, expected, out=out)
    return np.square(d, out=d)


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
    reproduces the input exactly. A non-finite sample raises
    ``ValueError`` naming its index.

    The chain runs one block of samples at a time, in place in the
    observed trace. With a DAC, the steps after it run once per DAC
    code into a table, and each block looks its codes up. The blocks
    are the leaves of numpy's pairwise-summation tree, so ``mse`` is
    ``np.mean`` of the squared errors to the bit without holding them.
    Memory: the observed trace plus O(block).
    """
    x = trace.samples
    if x.size == 0:
        raise ValueError("cannot replay an empty trace")
    observed = np.empty_like(x)
    squared_error = np.empty(x[:_BLOCK_LEN].shape)
    codes = np.empty(squared_error.shape, dtype=np.intp)
    clipped = np.empty(squared_error.shape, dtype=bool)
    scratch = np.empty_like(clipped)
    if dac is not None:
        table = dac._level(np.arange(2.0**dac.bits))
        table_clipped = np.zeros(table.shape, dtype=bool)
        _capture(table, mapping, adc, table_clipped, np.empty_like(table_clipped))
        table_clips = bool(table_clipped.any())
    clip_count = 0

    def replay_block(start: int, stop: int) -> float:
        nonlocal clip_count
        n = stop - start
        v, c, s, k = observed[start:stop], clipped[:n], scratch[:n], codes[:n]
        if dac is None and adc is None:
            v[...] = x[start:stop]
        else:
            c[...] = False
            mapping._to_volts(x[start:stop], v)
            if dac is None:
                _capture(v, mapping, adc, c, s)
            else:
                low = v.min()
                if math.isnan(low):
                    _check_finite(x)
                if low < 0 or v.max() > dac.vref_volts:
                    _flag_outside(v, dac.vref_volts, c, s)
                    dac._quantize(v)
                else:  # nothing to flag, and the clip is a no-op
                    dac._round(v)
                np.copyto(k, v, casting="unsafe")
                # The codes lie in the table, so "clip" only skips take's buffered check.
                if table_clips:
                    c |= np.take(table_clipped, k, out=s, mode="clip")
                np.take(table, k, out=v, mode="clip")
            clip_count += int(np.count_nonzero(c))
        return np.add.reduce(_squared_error(v, x[start:stop], out=squared_error[:n]))

    error = float(_pairwise_sum(0, len(x), replay_block) / len(x))
    if not math.isfinite(error):  # as any non-finite sample makes it; so can overflow
        _check_finite(x)
    return LoopbackResult(
        expected_trace=trace,
        observed_trace=SignalTrace(observed, trace.rate_hz),
        n=int(x.size),
        mse=error,
        clip_count=clip_count,
    )


def _capture(
    v: np.ndarray, mapping: VoltageMapping, adc: AdcModel | None,
    flags: np.ndarray, scratch: np.ndarray,
) -> np.ndarray:
    """The chain after the DAC, in place on volts ``v``.

    Runs the ADC unless it is bypassed, ORing its clips into ``flags``,
    then maps back to units. :func:`replay_capture` runs it once per DAC
    code, or on each block when the DAC is bypassed.
    """
    if adc is not None:
        _flag_outside(v, adc.vref_volts, flags, scratch)
        adc._quantize(v)
        v *= adc.lsb_volts
    return mapping._to_units(v, v)


def _pairwise_sum(
    start: int, stop: int, leaf_sum: Callable[[int, int], float]
) -> float:
    """``leaf_sum`` over ``[start, stop)``, added in numpy's pairwise order.

    numpy sums a contiguous float64 array along a fixed binary tree: a
    node of more than 128 values splits at ``n//2 - n//2 % 8``. Splitting
    the same way down to nodes of at most ``_BLOCK_LEN`` values, and
    adding the leaves' ``np.add.reduce`` sums up the tree, gives the
    whole-array ``np.add.reduce`` to the bit. A module-level function:
    a closure that called itself would be a reference cycle, holding
    the caller's arrays until the garbage collector runs.
    """
    n = stop - start
    if n <= _BLOCK_LEN:
        return leaf_sum(start, stop)
    half = n // 2 - n // 2 % 8
    return (_pairwise_sum(start, start + half, leaf_sum)
            + _pairwise_sum(start + half, stop, leaf_sum))


def _check_finite(x: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first non-finite sample, if there is one."""
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(
            f"cannot replay a non-finite sample: index {bad[0]} is {x.flat[bad[0]]}"
        )


def _flag_outside(
    v: np.ndarray, vref: float, flags: np.ndarray, scratch: np.ndarray
) -> None:
    """``flags |= (v < 0) | (v > vref)``, in place."""
    flags |= np.less(v, 0, out=scratch)
    flags |= np.greater(v, vref, out=scratch)
