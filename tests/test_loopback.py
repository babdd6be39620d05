"""Converter model transfer functions, Nyquist check, and loopback fidelity."""

import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegloop.edf import _BLOCK_LEN, SignalTrace
from eegloop.features import _bandpass
from eegloop.loopback import (
    AdcModel,
    DacModel,
    VoltageMapping,
    capture,
    quantization_error_bound,
    replay_capture,
    variance,
)


def reference_dac(x, mapping, dac):
    """The DAC levels of units ``x`` as first written: whole-array steps, int64 codes."""
    full_scale = 2**dac.bits - 1
    v = mapping.gain_volts_per_unit * x + mapping.offset_volts
    code = np.clip(np.floor(v / dac.vref_volts * full_scale + 0.5), 0,
                   full_scale).astype(np.int64)
    return code.astype(np.float64) / full_scale * dac.vref_volts


def reference_adc(volts, adc):
    """The ADC codes of ``volts`` as first written."""
    raw = np.floor(2**adc.bits * volts / adc.vref_volts)
    return np.clip(raw, 0, 2**adc.bits - 1).astype(np.int64)


def reference_replay(x, mapping, dac, adc):
    """(observed, mse, clip_count) of a replay as first written."""
    if dac is None and adc is None:
        observed, clip_count = x.copy(), 0
    else:
        v = mapping.gain_volts_per_unit * x + mapping.offset_volts
        clipped = np.zeros(x.shape, dtype=bool)
        if dac is not None:
            clipped |= (v < 0) | (v > dac.vref_volts)
            v = reference_dac(x, mapping, dac)
        if adc is not None:
            clipped |= (v < 0) | (v > adc.vref_volts)
            v = reference_adc(v, adc).astype(np.float64) * adc.lsb_volts
        observed = (v - mapping.offset_volts) / mapping.gain_volts_per_unit
        clip_count = int(np.count_nonzero(clipped))
    return observed, float(np.mean((observed - x) ** 2)), clip_count


# One sample, around one block boundary, and several blocks.
REPLAY_LENGTHS = [1, 2, _BLOCK_LEN - 1, _BLOCK_LEN, _BLOCK_LEN + 1, 3 * _BLOCK_LEN + 5]

# Around the splits of numpy's pairwise sum: its 8-wide unrolled leaves, its
# 128-value leaves, one block, a split into two blocks, and a 6400 s recording.
PAIRWISE_LENGTHS = [1, 7, 8, 9, 127, 128, 129, _BLOCK_LEN - 1, _BLOCK_LEN + 1,
                    2 * _BLOCK_LEN - 8, 2 * _BLOCK_LEN + 8, 3 * _BLOCK_LEN + 5, 1_638_400]

# Short arrays, one block ± 1, several blocks, and a 6400 s recording with and
# without a tail past a block boundary.
VARIANCE_LENGTHS = [1, 2, 7, 128, 129, 1000, _BLOCK_LEN - 1, _BLOCK_LEN + 1,
                    3 * _BLOCK_LEN + 5, 1_638_400, 1_638_417]

converters = st.integers(min_value=1, max_value=16), st.floats(min_value=0.1, max_value=10.0)


@st.composite
def replay_cases(draw):
    """A trace, a mapping and converters; the trace spans past both rails."""
    n = draw(st.sampled_from(REPLAY_LENGTHS))
    gain = draw(st.floats(min_value=-1e3, max_value=1e3).filter(lambda g: abs(g) > 1e-3))
    offset = draw(st.sampled_from([0.0, -0.0]) | st.floats(min_value=-10, max_value=10))
    mapping = VoltageMapping(gain, offset)
    dac = draw(st.none() | st.builds(DacModel, *converters))
    adc = draw(st.none() | st.builds(AdcModel, *converters))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    window = (dac or adc or DacModel()).vref_volts
    x = (rng.uniform(-0.2, 1.2, n) * window - offset) / gain
    rails = [(volts - offset) / gain for c in (dac, adc) if c for volts in (0.0, c.vref_volts)]
    specials = rails + [np.nextafter(r, np.inf) for r in rails] + [
        0.0, -0.0, -5e-324, -1e-300, 1e300, -1e300]
    picks = draw(st.lists(st.sampled_from(specials) | st.floats(-1e6, 1e6), max_size=8))
    x[rng.integers(0, n, len(picks))] = picks
    return SignalTrace(x, 256.0), mapping, dac, adc


class TestNyquist:
    """The band-pass must end strictly below half the sampling rate."""

    def test_default_rates_satisfy_criterion(self):
        _bandpass(256.0)  # 60 Hz band at the default 256 Hz

    def test_boundary_is_excluded(self):
        with pytest.raises(ValueError, match="band"):
            _bandpass(120.0)

    def test_undersampling_fails(self):
        with pytest.raises(ValueError, match="band"):
            _bandpass(100.0)


IDENTITY = VoltageMapping(1.0, 0.0)  # volts in = volts out


def captured(x, mapping, dac, adc):
    """(observed samples, clip count) of ``capture``, its blocks joined."""
    blocks = list(capture(SignalTrace(x, 256.0), mapping, dac, adc))
    return np.concatenate([b for b, _ in blocks]), sum(c for _, c in blocks)


def converted(volts, dac=None, adc=None):
    """``replay_capture`` of ``volts`` under the identity mapping."""
    trace = SignalTrace(np.array(volts, dtype=np.float64, ndmin=1), 256.0)
    return replay_capture(trace, IDENTITY, dac, adc)


def observed(volts, dac=None, adc=None):
    """The captured ``volts`` under the identity mapping: the DAC levels, or
    the ADC codes times ``lsb_volts``."""
    return captured(np.array(volts, dtype=np.float64, ndmin=1), IDENTITY, dac, adc)[0]


class TestDac:
    def test_full_scale(self):
        assert observed(3.3, dac=DacModel(12, 3.3)).tolist() == [3.3]  # code 4095

    def test_zero(self):
        assert observed(0.0, dac=DacModel()).tolist() == [0.0]

    def test_midscale_rounds_up(self):
        (volts,) = observed(1.65, dac=DacModel(12, 3.3))
        assert volts == pytest.approx(2048 / 4095 * 3.3, abs=1e-12)  # round(4095 * 0.5)

    def test_saturates_without_raising(self):
        for volts, level in [(10.0, 3.3), (-1.0, 0.0)]:
            assert observed(volts, dac=DacModel()).tolist() == [level]
            assert converted(volts, dac=DacModel()).clip_count == 1

    def test_rounding_error_within_half_lsb(self):
        dac = DacModel(12, 3.3)
        v = np.linspace(0, 3.3, 20001)
        out = observed(v, dac=dac)
        assert np.max(np.abs(out - v)) <= dac.lsb_volts / 2 + 1e-12


class TestAdc:
    def test_midscale_truncates(self):
        adc = AdcModel(10, 3.3)
        assert observed(1.65, adc=adc).tolist() == [512 * adc.lsb_volts]

    def test_endpoints_and_saturation(self):
        adc = AdcModel(10, 3.3)
        top = 1023 * adc.lsb_volts
        assert observed([0.0, 3.3, 99.0, -1.0], adc=adc).tolist() == [0.0, top, top, 0.0]
        assert converted([99.0, -1.0], adc=adc).clip_count == 2

    def test_monotonic_over_ascending_sweep(self):
        volts = observed(np.linspace(-0.5, 4.0, 10000), adc=AdcModel())
        assert np.all(np.diff(volts) >= 0)

    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonic_and_saturating_pairwise(self, v1, v2, bits):
        adc = AdcModel(bits, 3.3)
        lo, hi = observed(sorted((v1, v2)), adc=adc)
        assert lo <= hi
        assert 0 <= lo and hi <= (2**bits - 1) * adc.lsb_volts

    def test_bits_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AdcModel(bits=0)
        with pytest.raises(ValueError):
            DacModel(bits=17)


class TestReplayCapture:
    def ramp_trace(self, n=50000, lo=-100.0, hi=100.0):
        return SignalTrace(np.linspace(lo, hi, n), 256.0)

    def test_constant_input_is_deterministic(self):
        trace = SignalTrace(np.full(1000, 12.5), 256.0)
        mapping = VoltageMapping.centered(-100, 100)
        o1, _ = captured(trace.samples, mapping, DacModel(), AdcModel())
        o2, _ = captured(trace.samples, mapping, DacModel(), AdcModel())
        assert np.ptp(o1) == 0.0
        assert np.array_equal(o1, o2)

    def test_full_range_ramp_within_cascade_bound(self):
        trace = self.ramp_trace()
        mapping = VoltageMapping.centered(-100, 100)
        dac, adc = DacModel(12, 3.3), AdcModel(10, 3.3)
        result = replay_capture(trace, mapping, dac, adc)
        bound = quantization_error_bound(mapping, dac, adc)
        assert result.max_abs_error <= bound
        assert result.mse <= bound**2
        # 1.5 ADC LSB, expressed in physical units, also caps the error
        assert result.max_abs_error <= 1.5 * adc.lsb_volts / mapping.gain_volts_per_unit

    def test_high_resolution_limit(self):
        trace = self.ramp_trace(n=20000)
        mapping = VoltageMapping.centered(-100, 100)
        result = replay_capture(trace, mapping, DacModel(16), AdcModel(16))
        assert result.mse < 1e-6 * np.var(trace.samples)

    def test_bypass_is_exact(self):
        trace = self.ramp_trace(n=500)
        mapping = VoltageMapping.centered(-100, 100)
        result = replay_capture(trace, mapping, dac=None, adc=None)
        assert result.mse == 0.0
        assert result.max_abs_error == 0.0
        assert result.clip_count == 0

    def test_excess_gain_clips_and_is_counted(self):
        trace = self.ramp_trace(n=2000)
        mapping = VoltageMapping(gain_volts_per_unit=0.1, offset_volts=1.65)
        result = replay_capture(trace, mapping)  # +/-10 V swing into a 3.3 V window
        assert result.clip_count > 0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            replay_capture(SignalTrace(np.array([]), 256.0),
                           VoltageMapping.centered(-1, 1))

    def test_result_summarizes_its_capture(self):
        trace = self.ramp_trace(n=300)
        mapping = VoltageMapping(gain_volts_per_unit=0.02, offset_volts=1.65)  # clips
        result = replay_capture(trace, mapping)
        observed, clip_count = captured(trace.samples, mapping, DacModel(), AdcModel())
        assert result.n == observed.size == 300
        assert result.mse == float(np.mean((observed - trace.samples) ** 2))
        assert result.max_abs_error == float(np.max(np.abs(observed - trace.samples)))
        assert result.clip_count == clip_count > 0

    def test_mse_of_a_hand_computed_case(self):
        # A 1-bit DAC over 8 V emits level 0 for both samples.
        assert converted([1.0, 3.0], dac=DacModel(1, 8.0)).mse == 5.0

    @given(st.integers(min_value=4, max_value=16), st.integers(min_value=4, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_bound_holds_for_any_resolution(self, dac_bits, adc_bits):
        trace = self.ramp_trace(n=4000)
        mapping = VoltageMapping.centered(-100, 100)
        dac, adc = DacModel(dac_bits), AdcModel(adc_bits)
        result = replay_capture(trace, mapping, dac, adc)
        assert result.max_abs_error <= quantization_error_bound(mapping, dac, adc)


class TestReplayMatchesReference:
    """The blocked, in-place chain gives the whole-array result to the byte."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")  # +-1e300 samples
    @given(replay_cases())
    @settings(max_examples=80, deadline=None)
    def test_replay_is_byte_identical(self, case):
        trace, mapping, dac, adc = case
        x = trace.samples
        result = replay_capture(trace, mapping, dac, adc)
        observed, expected_mse, clip_count = reference_replay(x, mapping, dac, adc)
        captured_observed, captured_clips = captured(x, mapping, dac, adc)
        assert captured_observed.tobytes() == observed.tobytes()
        assert result.mse == expected_mse
        peak = np.abs(observed - x).max()
        assert np.float64(result.max_abs_error).tobytes() == peak.tobytes()
        assert result.clip_count == captured_clips == clip_count

    def test_adc_code_of_a_negative_zero_is_positive_zero(self):
        # 2 * -5e-324 / 10 rounds to -0.0, and floor and clip keep its sign.
        x = np.array([-5e-324, 1.0])
        mapping, adc = VoltageMapping(1.0, 0.0), AdcModel(1, 10.0)
        observed, _, _ = reference_replay(x, mapping, None, adc)
        assert captured(x, mapping, None, adc)[0].tobytes() == observed.tobytes()

    @pytest.mark.parametrize("n", PAIRWISE_LENGTHS)
    def test_mse_is_numpy_mean_to_the_bit(self, n):
        # Clipped samples far past the rails give squared errors over many
        # magnitudes, so another summation order would likely differ.
        rng = np.random.default_rng(n)
        x = rng.uniform(-100.0, 100.0, n) * 10.0 ** rng.uniform(-2, 2, n)
        mapping, dac, adc = VoltageMapping.centered(-100, 100), DacModel(), AdcModel()
        result = replay_capture(SignalTrace(x, 256.0), mapping, dac, adc)
        observed, _, clip_count = reference_replay(x, mapping, dac, adc)
        assert captured(x, mapping, dac, adc)[0].tobytes() == observed.tobytes()
        assert result.mse == float(np.mean((observed - x) ** 2))
        assert result.clip_count == clip_count

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dac, adc", [(DacModel(), AdcModel()), (None, AdcModel()),
                                          (DacModel(), None), (None, None)],
                             ids=["both", "adc", "dac", "bypass"])
    def test_non_finite_sample_rejected_by_index(self, bad, dac, adc):
        x = np.linspace(-100.0, 100.0, _BLOCK_LEN + 10)
        x[_BLOCK_LEN + 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # so a NaN cast to an integer code fails here
            # The bypass's squared error takes inf - inf before the check names it.
            warnings.filterwarnings("ignore", "invalid value encountered in subtract")
            with pytest.raises(ValueError, match=f"index {_BLOCK_LEN + 3} is {bad}"):
                replay_capture(SignalTrace(x, 256.0), VoltageMapping.centered(-100, 100),
                               dac, adc)

    @pytest.mark.parametrize("dac, adc", [(DacModel(), AdcModel()), (None, AdcModel()),
                                          (DacModel(16), None), (None, None)],
                             ids=["both", "adc", "dac16", "bypass"])
    def test_memory_is_a_few_blocks(self, dac, adc):
        # A 16-bit table is 64 Ki levels (512 KiB); a block is 256 KiB.
        trace = SignalTrace(np.linspace(-100.0, 100.0, 2**20), 256.0)  # 8 MiB
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            result = replay_capture(trace, VoltageMapping.centered(-100, 100), dac, adc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.n == 2**20
        assert peak <= 2 * 2**20

    def test_replay_leaves_no_reference_cycle(self):
        trace = SignalTrace(np.linspace(-100.0, 100.0, 2**18), 256.0)
        mapping = VoltageMapping.centered(-100, 100)
        gc.disable()  # so that only reference counts can free the replay's arrays
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            result = replay_capture(trace, mapping)
            del result
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held - baseline < 0.05 * trace.samples.nbytes

    @pytest.mark.parametrize("n", [1, _BLOCK_LEN + 1, 3 * _BLOCK_LEN + 5])
    def test_max_abs_error_is_the_whole_array_max(self, n):
        x = np.random.default_rng(n).uniform(-150.0, 150.0, n)  # clips at both rails
        mapping = VoltageMapping.centered(-100, 100)
        result = replay_capture(SignalTrace(x, 256.0), mapping)
        observed, _ = captured(x, mapping, DacModel(), AdcModel())
        assert result.max_abs_error == float(np.max(np.abs(observed - x)))

    @pytest.mark.parametrize("n", [1, _BLOCK_LEN, _BLOCK_LEN + 1, 3 * _BLOCK_LEN + 5])
    def test_capture_yields_fresh_blocks_no_longer_than_a_block(self, n):
        x = np.linspace(-100.0, 100.0, n)
        blocks = [b for b, _ in capture(SignalTrace(x, 256.0), IDENTITY, None, None)]
        assert all(0 < b.size <= _BLOCK_LEN for b in blocks)
        assert np.concatenate(blocks).tobytes() == x.tobytes()
        assert not any(np.shares_memory(b, x) for b in blocks)


class TestVariance:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    @pytest.mark.parametrize("n", VARIANCE_LENGTHS)
    def test_variance_is_numpy_var_to_the_bit(self, n, scale):
        rng = np.random.default_rng(n)
        x = (rng.normal(size=n) + rng.uniform(-50.0, 50.0)) * scale
        assert variance(x) == float(np.var(x))

    def test_variance_holds_a_block(self):
        x = np.random.default_rng(0).normal(size=2**20)
        tracemalloc.start()
        try:
            variance(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * x.nbytes


class TestVoltageMapping:
    def test_centered_mapping_spans_90_percent(self):
        mapping = VoltageMapping.centered(-100, 100, vref_volts=3.3)
        volts = mapping._to_volts(np.array([0.0, -100.0, 100.0]), np.empty(3))
        assert volts.tolist() == pytest.approx([1.65, 0.05 * 3.3, 0.95 * 3.3])

    def test_inverse_round_trips(self):
        mapping = VoltageMapping.centered(-40, 260)
        x = np.linspace(-40, 260, 101)
        v = mapping._to_volts(x, np.empty_like(x))
        np.testing.assert_allclose(mapping._to_units(v, v), x, atol=1e-12)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            VoltageMapping(0.0, 1.0)

    @pytest.mark.parametrize("low, high", [(-100, 100), (-40, 260), (-3.25, 3.25)])
    def test_centered_limits_may_come_either_way_round(self, low, high):
        assert VoltageMapping.centered(high, low) == VoltageMapping.centered(low, high)

    @pytest.mark.parametrize("low, high", [(5.0, 5.0), (math.nan, 1.0), (1.0, math.nan)],
                             ids=["equal", "nan_min", "nan_max"])
    def test_centered_refuses_equal_or_nan_limits(self, low, high):
        with pytest.raises(ValueError, match="physical limits must differ and not be NaN"):
            VoltageMapping.centered(low, high)
