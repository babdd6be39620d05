"""Converter model transfer functions, Nyquist check, and loopback fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegloop.edf import SignalTrace
from eegloop.features import PreprocessConfig
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
)


class TestNyquist:
    """The band-pass must end strictly below half the sampling rate."""

    def test_default_rates_satisfy_criterion(self):
        PreprocessConfig().validate(SampleClock().rate_hz)  # 60 Hz band at 256 Hz

    def test_boundary_is_excluded(self):
        with pytest.raises(ValueError, match="band"):
            PreprocessConfig().validate(120.0)

    def test_undersampling_fails(self):
        with pytest.raises(ValueError, match="band"):
            PreprocessConfig().validate(100.0)


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
