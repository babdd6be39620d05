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
codes held as integral float64 values (never ``-0.0``).
:func:`capture` is the one stage that runs them: it runs the whole chain
over one cache-sized block of samples at a time and yields each observed
block. After the DAC a sample is one of ``2**bits`` codes, so the rest
of the chain runs once per code, into a table that each block indexes.
:func:`replay_capture` reduces those blocks to the fidelity summary as
they come, summing the MSE in numpy's own pairwise order, so a replay
holds O(block) memory beyond its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .edf import _BLOCK_LEN, SignalTrace
# SampleClock lives in pipeline; it is re-exported here only because
# benchmark/workloads.py builds loopback.SampleClock(...).
from .pipeline import SampleClock

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
        """Map the range between the two limits onto the middle ``span`` of [0, vref].

        The limits may come either way round, as an EDF calibration may run
        from high to low. The midpoint of the range lands on vref/2; the
        default 90% span leaves headroom against clipping at both rails.
        """
        width = abs(physical_max - physical_min)
        if not width > 0:
            raise ValueError(f"physical limits must differ and not be NaN, got "
                             f"{physical_min} and {physical_max}")
        gain = span * vref_volts / width
        center = 0.5 * (physical_min + physical_max)
        return cls(gain, vref_volts / 2 - gain * center)

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


@dataclass
class LoopbackResult:
    """The fidelity summary of one replay: stored versus recaptured samples."""

    n: int
    mse: float
    max_abs_error: float
    clip_count: int


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


def capture(
    trace: SignalTrace,
    mapping: VoltageMapping,
    dac: DacModel | None = _DEFAULT_DAC,
    adc: AdcModel | None = _DEFAULT_ADC,
) -> Iterator[tuple[np.ndarray, int]]:
    """Replay a stored trace through the DAC and recapture it via the ADC,
    one block at a time.

    Each sample is mapped to volts, quantized by the DAC model, sampled
    by the ADC model, and mapped back to physical units. Defaults are the
    modelled hardware: a 12-bit DAC into a 10-bit ADC at 3.3 V.
    ``dac=None`` or ``adc=None`` bypasses that converter; bypassing both
    reproduces the input exactly. An empty trace, and a NaN that would
    reach a DAC code, raise ``ValueError``; the NaN's message names the
    first non-finite index.

    The blocks are the leaves of numpy's pairwise-summation tree, in
    order. For each it yields a fresh float64 array of observed samples
    and the number of them that left a converter's ``[0, vref]``. With a
    DAC, the steps after it run once per DAC code into a table, and each
    block looks its codes up.
    """
    x = trace.samples
    if x.size == 0:
        raise ValueError("cannot replay an empty trace")
    codes = np.empty(x[:_BLOCK_LEN].shape, dtype=np.intp)
    clipped = np.empty(codes.shape, dtype=bool)
    scratch = np.empty_like(clipped)
    if dac is not None:
        table = dac._level(np.arange(2.0**dac.bits))
        table_clipped = np.zeros(table.shape, dtype=bool)
        _after_dac(table, mapping, adc, table_clipped, np.empty_like(table_clipped))
        table_clips = bool(table_clipped.any())
    for start, stop in _leaves(0, len(x)):
        n = stop - start
        v, c, s, k = np.empty(n), clipped[:n], scratch[:n], codes[:n]
        c[...] = False
        if dac is None and adc is None:
            v[...] = x[start:stop]
        else:
            mapping._to_volts(x[start:stop], v)
            if dac is None:
                _after_dac(v, mapping, adc, c, s)
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
        yield v, int(np.count_nonzero(c))


def replay_capture(
    trace: SignalTrace,
    mapping: VoltageMapping,
    dac: DacModel | None = _DEFAULT_DAC,
    adc: AdcModel | None = _DEFAULT_ADC,
) -> LoopbackResult:
    """The fidelity of :func:`capture`: its MSE, largest error and clip count.

    Each observed block is compared with its stored samples as it comes,
    and then dropped, so a replay holds O(block) memory beyond ``trace``.
    The per-block sums of squared errors are added in numpy's pairwise
    order, so ``mse`` is ``np.mean`` of the squared errors to the bit. A
    non-finite sample raises ``ValueError`` naming its index.
    """
    x = trace.samples
    sums, peak, clip_count, start = [], 0.0, 0, 0
    for observed, clips in capture(trace, mapping, dac, adc):
        stop = start + len(observed)
        d = np.subtract(observed, x[start:stop], out=observed)
        peak = max(peak, abs(max(d.max(), -d.min())))  # abs: +0.0, as np.abs gives it
        sums.append(np.add.reduce(np.multiply(d, d, out=d)))
        clip_count += clips
        start = stop
    error = float(_pairwise_sum(len(x), iter(sums)) / len(x))
    if not math.isfinite(error):  # as any non-finite sample makes it; so can overflow
        _check_finite(x)
    return LoopbackResult(n=int(x.size), mse=error, max_abs_error=float(peak),
                          clip_count=clip_count)


def _after_dac(
    v: np.ndarray, mapping: VoltageMapping, adc: AdcModel | None,
    flags: np.ndarray, scratch: np.ndarray,
) -> np.ndarray:
    """The chain after the DAC, in place on volts ``v``.

    Runs the ADC unless it is bypassed, ORing its clips into ``flags``,
    then maps back to units. :func:`capture` runs it once per DAC code, or
    on each block when the DAC is bypassed.
    """
    if adc is not None:
        _flag_outside(v, adc.vref_volts, flags, scratch)
        adc._quantize(v)
        v *= adc.lsb_volts
    return mapping._to_units(v, v)


def variance(x: np.ndarray) -> float:
    """``np.var(x)`` to the bit, squaring the deviations one block at a time."""
    mean = np.add.reduce(x) / len(x)
    scratch = np.empty(x[:_BLOCK_LEN].shape)
    sums = []
    for start, stop in _leaves(0, len(x)):
        d = np.subtract(x[start:stop], mean, out=scratch[: stop - start])
        sums.append(np.add.reduce(np.multiply(d, d, out=d)))
    return float(_pairwise_sum(len(x), iter(sums)) / len(x))


def _half(n: int) -> int:
    """The size of the first child of a node of ``n > 128`` values in numpy's
    pairwise sum of a contiguous float64 array: ``n//2 - n//2 % 8``."""
    return n // 2 - n // 2 % 8


def _leaves(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """``[start, stop)`` split as numpy's pairwise sum splits it, down to
    nodes of at most ``_BLOCK_LEN`` values: the leaves, in order."""
    if stop - start <= _BLOCK_LEN:
        yield start, stop
        return
    middle = start + _half(stop - start)
    yield from _leaves(start, middle)
    yield from _leaves(middle, stop)


def _pairwise_sum(n: int, leaf_sums: Iterator[float]) -> float:
    """The ``np.add.reduce`` sums of the :func:`_leaves` of ``n`` values, taken
    in order from ``leaf_sums`` and added up numpy's pairwise tree: the
    whole-array ``np.add.reduce`` to the bit."""
    if n <= _BLOCK_LEN:
        return next(leaf_sums)
    half = _half(n)
    return _pairwise_sum(half, leaf_sums) + _pairwise_sum(n - half, leaf_sums)


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
