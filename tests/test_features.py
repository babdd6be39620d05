"""Filter response oracles, feature values on known signals, and invariants."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from eegloop.classes import CLASS_NAMES
from eegloop.features import (
    BANDS_HZ,
    FEATURE_NAMES,
    SCHEMA,
    SCHEMA_ID,
    WELCH_OVERLAP,
    FeatureVector,
    PreprocessConfig,
    _bandpass,
    _moments,
    _welch,
    _welch_setup,
    extract,
    featurize,
    preprocess,
    schema_descriptor,
    schema_id,
)
from eegloop.pipeline import Epoch
from eegloop.synth import SyntheticSpec, generate_epoch_samples

RATE = 256.0


def make_epoch(samples, length_s=16, rate_hz=RATE, label=None):
    return Epoch(np.asarray(samples, dtype=float), 0, length_s, rate_hz, label)


def tone(freq_hz, length_s=16, rate_hz=RATE, amplitude=1.0):
    t = np.arange(int(length_s * rate_hz)) / rate_hz
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


def band_limited_noise(seed=0, length_s=16, rate_hz=RATE, lo=0.5, hi=60.0):
    n = int(length_s * rate_hz)
    rng = np.random.default_rng(seed)
    freqs = np.fft.rfftfreq(n, 1 / rate_hz)
    spectrum = (rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size))
    spectrum[(freqs < lo) | (freqs > hi)] = 0
    return np.fft.irfft(spectrum, n)


def feat(fv, name):
    return fv.values[FEATURE_NAMES.index(name)]


def reference_sos(rate_hz):
    """The design ``_bandpass`` must filter with, as scipy makes it."""
    return sps.butter(4, [0.5, 60.0], btype="bandpass", fs=rate_hz, output="sos")


class TestBandpass:
    def test_dc_is_rejected(self):
        # direct response oracle at 0 Hz
        w, h = sps.sosfreqz(reference_sos(RATE), worN=[0.0], fs=RATE)
        assert np.abs(h[0]) < 1e-6
        x = np.full(int(64 * RATE), 5.0)
        y = _bandpass(RATE)(x)
        steady = y[int(8 * RATE):]
        assert np.mean(steady**2) < 0.01 * np.mean(x**2)

    def test_in_band_tone_passes(self):
        x = tone(10.0, length_s=16)
        y = _bandpass(RATE)(x)
        x_rms = np.sqrt(np.mean(x[int(2 * RATE):] ** 2))
        y_rms = np.sqrt(np.mean(y[int(2 * RATE):] ** 2))
        assert abs(y_rms - x_rms) / x_rms < 0.2

    @pytest.mark.parametrize("rate_hz", [128.0, 256.0, 512.0])
    @pytest.mark.parametrize("length_s", [4, 16, 64])
    def test_bytes_equal_scipy_on_the_first_and_the_cached_call(self, rate_hz, length_s):
        _bandpass.cache_clear()  # so the first call designs the filter
        x = np.random.default_rng(length_s).standard_normal(int(length_s * rate_hz)) * 40.0
        expected = sps.sosfilt(reference_sos(rate_hz), x).tobytes()
        for _ in range(2):  # the design call, then the cached one
            assert _bandpass(rate_hz)(x).tobytes() == expected

    @pytest.mark.parametrize("rate", [120.0, 100.0])
    def test_refused_rate_raises_on_every_call_before_scipy_loads(self, monkeypatch, rate):
        monkeypatch.setitem(sys.modules, "scipy", None)  # so importing it fails
        message = re.escape(f"band [0.5, 60.0] Hz invalid for {rate} Hz sampling")
        for _ in range(3):  # a refused rate is never cached
            with pytest.raises(ValueError, match=f"^{message}$"):
                _bandpass(rate)

    def test_band_edges_validated(self):
        # A constant epoch skips filtering, but not the band check.
        epoch = make_epoch(np.zeros(400), length_s=4, rate_hz=100.0)
        with pytest.raises(ValueError, match="band"):
            preprocess(epoch)


class TestPreprocess:
    @pytest.mark.parametrize(
        "setting",
        [{"band_low_hz": 1.0}, {"band_high_hz": 40.0}, {"filter_order": 3},
         {"normalize": False}],
        ids=["band_low_hz", "band_high_hz", "filter_order", "normalize"],
    )
    def test_no_preprocessing_value_can_be_set(self, setting):
        with pytest.raises(TypeError):
            PreprocessConfig(**setting)

    def test_an_explicit_config_changes_nothing(self):
        epoch = make_epoch(tone(10.0) + 0.3 * tone(25.0))
        config = PreprocessConfig()
        np.testing.assert_array_equal(preprocess(epoch, config).samples,
                                      preprocess(epoch).samples)
        np.testing.assert_array_equal(featurize(epoch, config).values,
                                      featurize(epoch).values)

    def test_normalized_output_is_zero_mean_unit_variance(self):
        epoch = make_epoch(tone(10.0) + 0.3 * tone(25.0))
        out = preprocess(epoch)
        assert abs(out.samples.mean()) < 1e-6
        assert abs(out.samples.std() - 1.0) < 1e-6

    def test_constant_epoch_returned_unchanged(self):
        epoch = make_epoch(np.full(4096, 7.0))
        out = preprocess(epoch)
        np.testing.assert_array_equal(out.samples, epoch.samples)

    def test_original_epoch_untouched(self):
        epoch = make_epoch(tone(10.0))
        before = epoch.samples.copy()
        preprocess(epoch)
        np.testing.assert_array_equal(epoch.samples, before)


class TestExtract:
    def test_pure_alpha_tone_dominates_relative_power(self):
        fv = extract(make_epoch(tone(10.0)))
        assert feat(fv, "alpha_rel_power") > 0.9

    def test_band_powers_account_for_variance_of_band_limited_noise(self):
        x = band_limited_noise(seed=3)
        fv = extract(make_epoch(x))
        total_band_power = sum(
            feat(fv, f"{band}_power") for band in BANDS_HZ
        )
        assert total_band_power == pytest.approx(np.var(x), rel=0.05)

    def test_zero_signal_hits_floors(self):
        fv = extract(make_epoch(np.zeros(4096)))
        assert feat(fv, "zero_crossing_rate") == 0.0
        assert feat(fv, "spectral_entropy") == 0.0
        assert feat(fv, "spectral_edge_hz") == 0.5
        assert np.all(np.isfinite(fv.values))

    def test_relative_powers_sum_to_one(self):
        fv = extract(make_epoch(band_limited_noise(seed=1)))
        rel = [feat(fv, f"{band}_rel_power") for band in BANDS_HZ]
        assert all(0 <= r <= 1 for r in rel)
        assert sum(rel) == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_relative_powers_sum_to_one_for_any_noise(self, seed):
        fv = extract(make_epoch(band_limited_noise(seed=seed, length_s=4), length_s=4))
        rel = [feat(fv, f"{band}_rel_power") for band in BANDS_HZ]
        assert sum(rel) == pytest.approx(1.0, abs=1e-9)
        assert all(-1e-12 <= r <= 1 + 1e-12 for r in rel)

    def test_scaling_signal_scales_only_absolute_features(self):
        x = band_limited_noise(seed=5)
        k = 3.7
        a = extract(make_epoch(x))
        b = extract(make_epoch(k * x))
        for i, name in enumerate(FEATURE_NAMES):
            if name.endswith("_power") and not name.endswith("_rel_power"):
                assert b.values[i] == pytest.approx(k**2 * a.values[i], rel=1e-9)
            elif name == "variance":
                assert b.values[i] == pytest.approx(k**2 * a.values[i], rel=1e-9)
            else:
                assert b.values[i] == pytest.approx(a.values[i], abs=1e-9)

    def test_extraction_is_deterministic(self):
        x = band_limited_noise(seed=8)
        v1 = extract(make_epoch(x)).values
        v2 = extract(make_epoch(x.copy())).values
        np.testing.assert_array_equal(v1, v2)

    def test_feature_vector_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureVector(np.array([1.0, np.nan]))

    def test_feature_vector_is_a_read_only_copy(self):
        source = np.array([1.0, 2.0])
        fv = FeatureVector(source)
        with pytest.raises(ValueError, match="read-only"):
            fv.values[0] = np.nan
        source[0] = np.nan
        np.testing.assert_array_equal(fv.values, [1.0, 2.0])


def reference_welch(x, rate_hz, nperseg):
    return sps.welch(x, fs=rate_hz, window="hann", nperseg=nperseg,
                     noverlap=int(nperseg * WELCH_OVERLAP), detrend="constant",
                     scaling="density")


def assert_welch_matches_scipy(x, rate_hz):
    nperseg = int(round(4.0 * rate_hz))
    freqs, psd = _welch(x, rate_hz, nperseg)
    ref_freqs, ref_psd = reference_welch(x, rate_hz, nperseg)
    assert freqs.tobytes() == ref_freqs.tobytes()
    assert psd.tobytes() == ref_psd.tobytes()


class TestWelch:
    @pytest.mark.parametrize("n, rate_hz", [(1024, RATE), (1500, RATE), (1536, RATE),
                                            (4097, RATE), (5000, RATE), (3000, 100.0),
                                            (1001, 250.25)])
    @pytest.mark.parametrize("kind", ["noise", "zero", "constant"])
    def test_bytes_equal_scipy(self, n, rate_hz, kind):
        x = {"noise": np.random.default_rng(n).standard_normal(n) * 40.0,
             "zero": np.zeros(n),
             "constant": np.full(n, 3.7)}[kind]
        assert_welch_matches_scipy(x, rate_hz)

    @pytest.mark.parametrize("rate_hz", [100, 128, 200, 250, 256, 500, 512, 1000])
    def test_window_and_axis_equal_short_time_fft(self, rate_hz):
        nperseg = 4 * rate_hz
        stft = sps.ShortTimeFFT(sps.get_window("hann", nperseg),
                                nperseg - int(nperseg * WELCH_OVERLAP), float(rate_hz),
                                fft_mode="onesided", mfft=nperseg, scale_to="psd",
                                phase_shift=None)
        window, freqs, _ = _welch_setup(float(rate_hz), nperseg)
        assert window.tobytes() == stft.win.conj().tobytes()
        assert freqs.tobytes() == stft.f.tobytes()

    def test_runs_without_scipy(self, monkeypatch):
        x = np.random.default_rng(3).standard_normal(1500)
        expected = reference_welch(x, 300.0, 1200)
        monkeypatch.setitem(sys.modules, "scipy", None)  # so importing it fails
        freqs, psd = _welch(x, 300.0, 1200)  # a rate no other test sets up
        assert (freqs.tobytes(), psd.tobytes()) == tuple(a.tobytes() for a in expected)

    @pytest.mark.parametrize("length_s", [16, 32, 64])
    def test_bytes_equal_scipy_on_synthetic_epochs(self, length_s):
        spec = SyntheticSpec(epochs_per_class=1, epoch_length_s=length_s, seed=length_s)
        rng = np.random.default_rng(spec.seed)
        for label in CLASS_NAMES:
            epoch = make_epoch(generate_epoch_samples(label, spec, rng), length_s)
            assert_welch_matches_scipy(epoch.samples, RATE)
            assert_welch_matches_scipy(preprocess(epoch).samples, RATE)


def power_moments(x):
    """The np.power formulation ``_moments`` replaced, kept as its reference."""
    centered = x - x.mean()
    m2 = np.mean(centered**2)
    return m2, np.mean(centered**3) / m2**1.5, np.mean(centered**4) / m2**2 - 3.0


class TestMoments:
    @pytest.mark.parametrize("seed", range(5))
    def test_match_the_power_formulation(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(4096) * 30.0 + rng.exponential(5.0, 4096)
        np.testing.assert_allclose(_moments(x), power_moments(x), rtol=1e-12)

    def test_constant_input_hits_floors(self):
        assert _moments(np.full(64, 2.5)) == (0.0, 0.0, 0.0)


def reference_featurize(epoch):
    """``featurize`` as first written, kept as its reference: ``np.std`` then
    the z-score, ``np.var`` in Hjorth, ``np.mean(centered**2)`` in the
    moments, and ``np.trapezoid`` over boolean band masks."""
    x = epoch.samples
    if np.ptp(x) != 0:
        x = sps.sosfilt(reference_sos(epoch.rate_hz), x)
        std = x.std()
        if std > 0 and np.isfinite(std):
            x = (x - x.mean()) / std

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    freqs, psd = _welch(x, epoch.rate_hz, int(round(4.0 * epoch.rate_hz)))
    masks = [(freqs >= lo) & (freqs <= hi) for lo, hi in [*BANDS_HZ.values(), (0.5, 60.0)]]
    powers = [float(np.trapezoid(psd[mask], freqs[mask])) for mask in masks[:-1]]
    delta, theta, alpha, beta, _ = powers
    ratios = [ratio(theta, delta), ratio(alpha, delta), ratio(beta, alpha + theta)]

    centered = x - x.mean()
    m2 = float(np.mean(centered**2))
    moments = [0.0, 0.0, 0.0]
    if m2 != 0:
        sq = centered * centered
        moments = [m2, float(np.mean(sq * centered)) / m2**1.5,
                   float(np.mean(sq * sq)) / m2**2 - 3.0]
    zcr = float(np.count_nonzero(x[:-1] * x[1:] < 0)) / max(x.size - 1, 1)
    hjorth = [0.0, 0.0]
    var0 = float(np.var(x))
    d1 = np.diff(x)
    var1 = float(np.var(d1))
    if var0 != 0 and var1 != 0:
        mobility = np.sqrt(var1 / var0)
        hjorth = [float(mobility),
                  float(np.sqrt(float(np.var(np.diff(d1))) / var1) / mobility)]

    band_psd, band_freqs = psd[masks[-1]], freqs[masks[-1]]
    psd_sum = float(band_psd.sum())
    entropy, edge_hz = 0.0, 0.5
    if psd_sum > 0:
        p = band_psd / psd_sum
        nonzero = p[p > 0]
        entropy = float(-(nonzero * np.log(nonzero)).sum() / np.log(p.size))
        edge_idx = int(np.searchsorted(np.cumsum(band_psd), 0.95 * psd_sum))
        edge_hz = float(band_freqs[min(edge_idx, band_freqs.size - 1)])
    return np.array(powers + [ratio(p, sum(powers)) for p in powers] + ratios + moments
                    + [zcr] + hjorth + [entropy, edge_hz])


class TestAgainstTheReference:
    @pytest.mark.parametrize("length_s", [4, 16, 64])
    @pytest.mark.parametrize("rate_hz", [128.0, 256.0, 512.0])
    def test_featurize_equals_the_reference_bit_for_bit(self, rate_hz, length_s):
        spec = SyntheticSpec(epochs_per_class=1, epoch_length_s=length_s, rate_hz=rate_hz,
                             seed=length_s)
        rng = np.random.default_rng(spec.seed)
        signals = [generate_epoch_samples(label, spec, rng) for label in CLASS_NAMES]
        n = signals[0].size
        signals += [np.full(n, 3.7), np.zeros(n)]  # constant, and zero power
        for x in signals:
            epoch = make_epoch(x, length_s, rate_hz)
            assert np.array_equal(featurize(epoch).values, reference_featurize(epoch))


class TestSchema:
    def test_schema_id_is_stable(self):
        assert SCHEMA_ID == "fee39d39bb7b34f8"
        assert schema_id(SCHEMA) == SCHEMA_ID

    def test_schema_id_tracks_definition_changes(self):
        altered = {**SCHEMA, "features": list(SCHEMA["features"])[::-1]}
        assert schema_id(altered) != SCHEMA_ID
        reparam = {
            **SCHEMA,
            "parameters": {**SCHEMA["parameters"], "welch_segment_s": 2.0},
        }
        assert schema_id(reparam) != SCHEMA_ID

    def test_descriptor_carries_names_order_and_id(self):
        desc = schema_descriptor()
        assert desc["features"] == list(FEATURE_NAMES)
        assert desc["schema_id"] == SCHEMA_ID
        assert len(FEATURE_NAMES) == 21

    def test_vectors_have_one_value_per_feature_name(self):
        # A model file's feature_index is bounded by this length.
        assert featurize(make_epoch(tone(6.0))).values.size == len(FEATURE_NAMES)
