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
from eegloop.features import bandpass_sos
from eegloop.loopback import (
    AdcModel,
    DacModel,
    SampleClock,
    VoltageMapping,
    adc_sample,
    dac_emit,
    mse,
    quantization_error_bound,
    replay_capture,
    variance,
)


def reference_dac_emit(x, mapping, dac):
    """``dac_emit`` on arrays as first written: whole-array steps, int64 codes."""
    full_scale = 2**dac.bits - 1
    v = mapping.gain_volts_per_unit * x + mapping.offset_volts
    code = np.clip(np.floor(v / dac.vref_volts * full_scale + 0.5), 0,
                   full_scale).astype(np.int64)
    return code, code.astype(np.float64) / full_scale * dac.vref_volts


def reference_adc_sample(volts, adc):
    """``adc_sample`` on arrays as first written."""
    raw = np.floor(2**adc.bits * volts / adc.vref_volts)
    return np.clip(raw, 0, 2**adc.bits - 1).astype(np.int64)


def reference_replay(x, mapping, dac, adc):
    """(observed, mse, clip_count) of ``replay_capture`` as first written."""
    if dac is None and adc is None:
        observed, clip_count = x.copy(), 0
    else:
        v = mapping.gain_volts_per_unit * x + mapping.offset_volts
        clipped = np.zeros(x.shape, dtype=bool)
        if dac is not None:
            clipped |= (v < 0) | (v > dac.vref_volts)
            _, v = reference_dac_emit(x, mapping, dac)
        if adc is not None:
            clipped |= (v < 0) | (v > adc.vref_volts)
            v = reference_adc_sample(v, adc).astype(np.float64) * adc.lsb_volts
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
        bandpass_sos(256.0)  # 60 Hz band at the default 256 Hz

    def test_boundary_is_excluded(self):
        with pytest.raises(ValueError, match="band"):
            bandpass_sos(120.0)

    def test_undersampling_fails(self):
        with pytest.raises(ValueError, match="band"):
            bandpass_sos(100.0)


class TestSampleClock:
    @pytest.mark.parametrize(
        "rate_hz, acceleration",
        [(0.0, 1.0), (math.nan, 1.0), (256.0, 0.5), (256.0, math.nan)],
        ids=["zero_rate", "nan_rate", "slow", "nan_acceleration"],
    )
    def test_invalid_clock_rejected(self, rate_hz, acceleration):
        with pytest.raises(ValueError):
            SampleClock(rate_hz, acceleration)


class TestDac:
    MAP = VoltageMapping(1.0, 0.0)  # volts in = volts out

    def test_full_scale(self):
        code, volts = dac_emit(3.3, self.MAP, DacModel(12, 3.3))
        assert code == 4095
        assert volts == 3.3

    def test_zero(self):
        assert dac_emit(0.0, self.MAP, DacModel()) == (0, 0.0)

    def test_midscale_rounds_up(self):
        code, volts = dac_emit(1.65, self.MAP, DacModel(12, 3.3))
        assert code == 2048  # round(4095 * 0.5)
        assert volts == pytest.approx(2048 / 4095 * 3.3, abs=1e-12)

    def test_saturates_without_raising(self):
        assert dac_emit(10.0, self.MAP, DacModel())[0] == 4095
        assert dac_emit(-1.0, self.MAP, DacModel())[0] == 0

    def test_rounding_error_within_half_lsb(self):
        dac = DacModel(12, 3.3)
        v = np.linspace(0, 3.3, 20001)
        _, out = dac_emit(v, self.MAP, dac)
        assert np.max(np.abs(out - v)) <= dac.lsb_volts / 2 + 1e-12


class TestAdc:
    def test_midscale_truncates(self):
        assert adc_sample(1.65, AdcModel(10, 3.3)) == 512

    def test_endpoints_and_saturation(self):
        adc = AdcModel(10, 3.3)
        assert adc_sample(0.0, adc) == 0
        assert adc_sample(3.3, adc) == 1023
        assert adc_sample(99.0, adc) == 1023
        assert adc_sample(-1.0, adc) == 0

    def test_monotonic_over_ascending_sweep(self):
        codes = adc_sample(np.linspace(-0.5, 4.0, 10000), AdcModel())
        assert np.all(np.diff(codes) >= 0)

    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonic_and_saturating_pairwise(self, v1, v2, bits):
        adc = AdcModel(bits, 3.3)
        lo, hi = sorted((v1, v2))
        c_lo, c_hi = adc_sample(lo, adc), adc_sample(hi, adc)
        assert c_lo <= c_hi
        assert 0 <= c_lo and c_hi <= 2**bits - 1

    def test_bits_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AdcModel(bits=0)
        with pytest.raises(ValueError):
            DacModel(bits=17)


class TestMse:
    def test_identical_sequences_give_zero(self):
        x = np.array([1.5, -2.0, 7.0])
        assert mse(x, x) == 0.0

    def test_hand_computed_value(self):
        assert mse([0.0, 0.0], [1.0, 3.0]) == 5.0

    def test_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least one"):
            mse([], [])

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_negative_and_symmetric(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert mse(a, b) >= 0.0
        assert mse(a, b) == mse(b, a)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_zero_iff_equal(self, a):
        assert mse(a, a) == 0.0
        bumped = list(a)
        bumped[0] += 1.0
        assert mse(a, bumped) > 0.0


class TestReplayCapture:
    def ramp_trace(self, n=50000, lo=-100.0, hi=100.0):
        return SignalTrace(np.linspace(lo, hi, n), 256.0)

    def test_constant_input_is_deterministic(self):
        trace = SignalTrace(np.full(1000, 12.5), 256.0)
        mapping = VoltageMapping.centered(-100, 100)
        r1 = replay_capture(trace, mapping)
        r2 = replay_capture(trace, mapping)
        assert np.ptp(r1.observed_trace.samples) == 0.0
        assert np.array_equal(r1.observed_trace.samples, r2.observed_trace.samples)

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

    def test_result_traces_consistent(self):
        trace = self.ramp_trace(n=300)
        result = replay_capture(trace, VoltageMapping.centered(-100, 100))
        assert result.n == 300
        assert result.expected_trace.samples.size == result.observed_trace.samples.size
        assert result.mse == mse(result.expected_trace.samples,
                                 result.observed_trace.samples)

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
        result = replay_capture(trace, mapping, dac, adc)
        observed, expected_mse, clip_count = reference_replay(trace.samples, mapping,
                                                              dac, adc)
        assert result.observed_trace.samples.tobytes() == observed.tobytes()
        assert result.mse == expected_mse
        assert result.clip_count == clip_count

    def test_adc_code_of_a_negative_zero_is_positive_zero(self):
        # 2 * -5e-324 / 10 rounds to -0.0, and floor and clip keep its sign.
        x = np.array([-5e-324, 1.0])
        mapping, adc = VoltageMapping(1.0, 0.0), AdcModel(1, 10.0)
        result = replay_capture(SignalTrace(x, 256.0), mapping, None, adc)
        observed, _, _ = reference_replay(x, mapping, None, adc)
        assert result.observed_trace.samples.tobytes() == observed.tobytes()

    @given(replay_cases())
    @settings(max_examples=40, deadline=None)
    def test_converters_are_byte_identical(self, case):
        trace, mapping, dac, adc = case
        x = trace.samples
        dac, adc = dac or DacModel(), adc or AdcModel()
        code, volts = dac_emit(x, mapping, dac)
        ref_code, ref_volts = reference_dac_emit(x, mapping, dac)
        assert code.tobytes() == ref_code.tobytes()
        assert volts.tobytes() == ref_volts.tobytes()
        assert adc_sample(volts, adc).tobytes() == reference_adc_sample(volts, adc).tobytes()

    @pytest.mark.parametrize("n", PAIRWISE_LENGTHS)
    def test_mse_is_numpy_mean_to_the_bit(self, n):
        # Clipped samples far past the rails give squared errors over many
        # magnitudes, so another summation order would likely differ.
        rng = np.random.default_rng(n)
        x = rng.uniform(-100.0, 100.0, n) * 10.0 ** rng.uniform(-2, 2, n)
        mapping, dac, adc = VoltageMapping.centered(-100, 100), DacModel(), AdcModel()
        result = replay_capture(SignalTrace(x, 256.0), mapping, dac, adc)
        observed, _, clip_count = reference_replay(x, mapping, dac, adc)
        assert result.observed_trace.samples.tobytes() == observed.tobytes()
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

    def test_memory_is_output_squared_errors_and_a_block(self):
        trace = SignalTrace(np.linspace(-100.0, 100.0, 2**20), 256.0)
        mapping = VoltageMapping.centered(-100, 100)
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            result = replay_capture(trace, mapping)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.clip_count == 0
        assert peak < 2.5 * trace.samples.nbytes

    def test_memory_is_the_output_and_a_block(self):
        trace = SignalTrace(np.linspace(-100.0, 100.0, 2**20), 256.0)
        tracemalloc.start()
        try:
            result = replay_capture(trace, VoltageMapping.centered(-100, 100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.n == 2**20
        assert peak < 1.25 * trace.samples.nbytes

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
        result = replay_capture(SignalTrace(x, 256.0), VoltageMapping.centered(-100, 100))
        assert result.max_abs_error == float(np.max(np.abs(result.observed_trace.samples - x)))

    def test_max_abs_error_holds_a_block(self):
        trace = SignalTrace(np.linspace(-100.0, 100.0, 2**20), 256.0)
        mapping = VoltageMapping.centered(-100, 100)
        result = replay_capture(trace, mapping)
        tracemalloc.start()
        try:
            error = result.max_abs_error
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < error <= quantization_error_bound(mapping, DacModel(), AdcModel())
        assert peak < trace.samples.nbytes


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
        assert mapping.to_volts(0.0) == pytest.approx(1.65)
        assert mapping.to_volts(-100.0) == pytest.approx(0.05 * 3.3)
        assert mapping.to_volts(100.0) == pytest.approx(0.95 * 3.3)

    def test_inverse_round_trips(self):
        mapping = VoltageMapping.centered(-40, 260)
        x = np.linspace(-40, 260, 101)
        np.testing.assert_allclose(mapping.to_units(mapping.to_volts(x)), x, atol=1e-12)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            VoltageMapping(0.0, 1.0)
