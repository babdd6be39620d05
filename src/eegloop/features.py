"""Per-epoch preprocessing and hand-crafted feature extraction.

The classifier input is a fixed, schema-versioned vector of 21 features
per epoch:

* absolute power in the five canonical EEG bands (delta 0.5-4 Hz, theta
  4-8, alpha 8-12, beta 12-30, gamma 30-60), integrated from a Welch
  periodogram (4 s Hann segments, 50% overlap);
* the five relative band powers (each absolute power over their sum);
* three band ratios: theta/delta, alpha/delta, beta/(alpha+theta);
* variance, skewness, excess kurtosis, zero-crossing rate;
* Hjorth mobility and complexity;
* spectral entropy, scaled to [0, 1], and the 95% spectral edge
  frequency, both over the 0.5-60 Hz analysis band.

Preprocessing is fixed, with nothing to set: a causal (forward-only)
Butterworth band-pass of ``FILTER_ORDER`` over ``ANALYSIS_BAND_HZ``, then
a per-epoch z-score; causality keeps the chain usable in a live capture
loop. Degenerate inputs (constant signals, zero power) hit documented
floor values instead of NaNs, so every vector is finite.

``SCHEMA`` describes the feature list and parameters. It is a constant
of the build, so every vector this module makes has it; its hash
``SCHEMA_ID`` is embedded in model files, and ``gbt.load_model``
refuses a file written by a build with any other schema.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .pipeline import Epoch

# scipy is imported inside _bandpass, its one user: importing it costs about a
# second, which the CLI, synth, replay and EDF-only callers would pay for nothing.

BANDS_HZ: dict[str, tuple[float, float]] = {
    "delta": (0.5, 4.0),
    "theta": (4.0, 8.0),
    "alpha": (8.0, 12.0),
    "beta": (12.0, 30.0),
    "gamma": (30.0, 60.0),
}

ANALYSIS_BAND_HZ = (0.5, 60.0)
FILTER_ORDER = 4
WELCH_SEGMENT_S = 4.0
WELCH_OVERLAP = 0.5
SPECTRAL_EDGE_FRACTION = 0.95

FEATURE_NAMES: tuple[str, ...] = (
    "delta_power",
    "theta_power",
    "alpha_power",
    "beta_power",
    "gamma_power",
    "delta_rel_power",
    "theta_rel_power",
    "alpha_rel_power",
    "beta_rel_power",
    "gamma_rel_power",
    "theta_delta_ratio",
    "alpha_delta_ratio",
    "beta_alpha_theta_ratio",
    "variance",
    "skewness",
    "kurtosis",
    "zero_crossing_rate",
    "hjorth_mobility",
    "hjorth_complexity",
    "spectral_entropy",
    "spectral_edge_hz",
)

SCHEMA: dict = {
    "schema_version": 1,
    "features": list(FEATURE_NAMES),
    "parameters": {
        "bands_hz": {name: list(edges) for name, edges in BANDS_HZ.items()},
        "analysis_band_hz": list(ANALYSIS_BAND_HZ),
        "welch_segment_s": WELCH_SEGMENT_S,
        "welch_overlap": WELCH_OVERLAP,
        "welch_window": "hann",
        "welch_detrend": "constant",
        "spectral_edge_fraction": SPECTRAL_EDGE_FRACTION,
    },
}


def schema_id(schema: dict = SCHEMA) -> str:
    """Stable 16-hex-digit hash of a feature schema definition."""
    canonical = json.dumps(schema, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


SCHEMA_ID = schema_id()


def schema_descriptor() -> dict:
    """The feature schema plus its identifying hash, as shipped in model files."""
    return {**SCHEMA, "schema_id": SCHEMA_ID}


# This class and the config parameter of preprocess and featurize exist only
# because benchmark/workloads.py passes them; both go when it stops.
@dataclass(frozen=True)
class PreprocessConfig:
    """The fixed preprocessing: no settings."""


# Compared and hashed by identity: an array field has no one truth value.
@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Feature values in ``FEATURE_NAMES`` order, kept as a finite read-only copy."""

    values: np.ndarray

    def __post_init__(self) -> None:
        # A private read-only copy: the values checked here stay the values used.
        values = np.array(self.values, dtype=np.float64)
        values.flags.writeable = False
        if not np.isfinite(values).all():
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", values)


@functools.lru_cache(maxsize=16)  # a refused rate raises, so it is never cached
def _bandpass(rate_hz: float) -> functools.partial:
    """The causal Butterworth band-pass at ``rate_hz``, designed once per rate.

    Raises ``ValueError``, before scipy loads, unless the analysis band
    ends below half of ``rate_hz``.
    """
    if not ANALYSIS_BAND_HZ[1] < rate_hz / 2:
        lo, hi = ANALYSIS_BAND_HZ
        raise ValueError(f"band [{lo}, {hi}] Hz invalid for {rate_hz} Hz sampling")
    from scipy import signal as sps

    sos = sps.butter(
        FILTER_ORDER, ANALYSIS_BAND_HZ, btype="bandpass", fs=rate_hz, output="sos"
    )
    return functools.partial(sps.sosfilt, sos)


# The per-epoch steps call numpy's primitives directly, in the order its wrappers
# would: ``np.add.reduce(a) / a.size`` sums and divides as ``a.mean()`` does. Each
# operation keeps its operands, so every value is the same to the bit, and arrays
# the step made itself are updated in place.


def preprocess(epoch: Epoch, config: PreprocessConfig | None = None) -> Epoch:
    """Band-pass filter forward-only (causal), then z-score one epoch.

    Returns a new epoch whose samples have mean 0 and unit variance to
    within 1e-6. A constant input cannot be z-scored and is returned
    unchanged, and a filtered epoch whose std is zero or non-finite is
    returned filtered only. Raises ``ValueError`` when the analysis band
    does not fit below the epoch's Nyquist frequency.
    """
    bandpass = _bandpass(epoch.rate_hz)
    x = epoch.samples
    if np.maximum.reduce(x) - np.minimum.reduce(x) == 0:  # np.ptp
        return replace(epoch, samples=x.copy())
    out = bandpass(x)
    # np.std's steps, in place on the filter's own output, which is then z-scored.
    out -= np.add.reduce(out) / out.size
    std = math.sqrt(np.add.reduce(out * out) / out.size)
    if not (std > 0 and math.isfinite(std)):
        return replace(epoch, samples=bandpass(x))  # ``out`` is centred: filter again
    out /= std
    return replace(epoch, samples=out)


def _var(d: np.ndarray) -> float:
    """``np.var(d)``, to the bit, overwriting ``d`` with its squared deviations."""
    d -= np.add.reduce(d) / d.size
    d *= d
    return float(np.add.reduce(d) / d.size)


def _moments(x: np.ndarray) -> tuple[float, float, float]:
    """Population variance, skewness, and excess kurtosis with zero floors."""
    centered = x - np.add.reduce(x) / x.size
    # Products, not np.power: an order of magnitude cheaper, last-ulp differences
    # for the cube and the fourth power (numpy squares a float as x * x).
    sq = centered * centered
    m2 = float(np.add.reduce(sq) / x.size)
    if m2 == 0:
        return 0.0, 0.0, 0.0
    cubes = np.multiply(centered, sq, out=centered)
    m3 = float(np.add.reduce(cubes) / x.size)
    sq *= sq
    m4 = float(np.add.reduce(sq) / x.size)
    return m2, m3 / m2**1.5, m4 / m2**2 - 3.0


def _hjorth(x: np.ndarray, var0: float) -> tuple[float, float]:
    """Mobility and complexity from first/second difference variances.

    ``var0`` is ``np.var(x)``, which is ``_moments(x)[0]`` to the bit.
    """
    if var0 == 0:
        return 0.0, 0.0
    d1 = np.subtract(x[1:], x[:-1])  # np.diff
    d2 = np.subtract(d1[1:], d1[:-1])  # before _var overwrites d1
    var1 = _var(d1)
    if var1 == 0:
        return 0.0, 0.0
    mobility = math.sqrt(var1 / var0)
    return mobility, math.sqrt(_var(d2) / var1) / mobility


@functools.lru_cache(maxsize=16)
def _welch_setup(
    rate_hz: float, nperseg: int
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[slice, np.ndarray], ...]]:
    """The PSD-scaled Hann window and the frequency axis ``sps.welch`` uses,
    and the bands on that axis.

    The window is scipy's periodic Hann scaled to ``"psd"``, in scipy's
    steps, so it is the same to the bit. The axis ascends, so each band of
    ``BANDS_HZ``, then ``ANALYSIS_BAND_HZ``, is one slice of it; each comes
    with the ``np.diff`` of its frequencies, the spacing ``np.trapezoid`` uses.
    """
    hann = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    window = hann * (1 / np.sqrt(sum(hann * hann) / (1 / rate_hz)))  # Python's sum
    freqs = np.fft.rfftfreq(nperseg, 1 / rate_hz)
    bands = []
    for lo, hi in [*BANDS_HZ.values(), ANALYSIS_BAND_HZ]:
        inside = np.flatnonzero((freqs >= lo) & (freqs <= hi))
        band = slice(inside[0], inside[-1] + 1) if inside.size else slice(0, 0)
        spacing = np.diff(freqs[band])
        spacing.flags.writeable = False
        bands.append((band, spacing))
    window.flags.writeable = freqs.flags.writeable = False
    return window, freqs, tuple(bands)


def _welch(x: np.ndarray, rate_hz: float, nperseg: int) -> tuple[np.ndarray, np.ndarray]:
    """Welch PSD (Hann, constant detrend, density) in one batched FFT.

    Bit for bit equal to ``sps.welch(x, rate_hz, "hann", nperseg,
    int(nperseg * WELCH_OVERLAP), detrend="constant", scaling="density")``,
    which transforms its segments one at a time: each step here, the
    per-row reductions and the (frequency, segment) layout of the average
    included, rounds as scipy's does.
    """
    noverlap = int(nperseg * WELCH_OVERLAP)
    hop = nperseg - noverlap
    window, freqs, _ = _welch_setup(rate_hz, nperseg)
    nseg = (x.size - noverlap) // hop
    step = x.strides[0]
    segments = as_strided(x, (nseg, nperseg), (hop * step, step), writeable=False)
    detrended = segments - np.add.reduce(segments, axis=-1, keepdims=True) / nperseg
    detrended *= window
    spectra = np.fft.rfft(detrended, axis=-1)
    parts = spectra.view(np.float64)  # real and imaginary parts, interleaved
    np.square(parts, out=parts)
    power = np.empty((freqs.size, nseg))  # the (frequency, segment) layout
    np.add(parts[:, 0::2].T, parts[:, 1::2].T, out=power)
    power[1 : -1 if nperseg % 2 == 0 else None] *= 2  # one-sided: fold negative bins
    psd = np.add.reduce(power, axis=-1)
    psd /= nseg
    return freqs, psd


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def extract(epoch: Epoch) -> FeatureVector:
    """Compute the 21-feature vector for one (preprocessed) epoch.

    On zero-power input the spectral features take their floors: relative
    powers and entropy 0, edge frequency at the analysis band's low edge.
    """
    x = epoch.samples
    nperseg = int(round(WELCH_SEGMENT_S * epoch.rate_hz))
    freqs, psd = _welch(x, epoch.rate_hz, nperseg)
    *bands, (analysis, _) = _welch_setup(epoch.rate_hz, nperseg)[2]

    band_powers = []
    for band, spacing in bands:
        y = psd[band]
        # np.trapezoid(y, freqs[band]), formula for formula.
        area = np.add(y[1:], y[:-1])
        area *= spacing
        area /= 2.0
        band_powers.append(float(np.add.reduce(area)))
    total = sum(band_powers)
    rel_powers = [_ratio(p, total) for p in band_powers]
    delta, theta, alpha, beta, _ = band_powers
    ratios = [
        _ratio(theta, delta),
        _ratio(alpha, delta),
        _ratio(beta, alpha + theta),
    ]

    variance, skewness, kurtosis = _moments(x)
    zcr = float(np.count_nonzero(np.multiply(x[:-1], x[1:]) < 0)) / max(x.size - 1, 1)
    mobility, complexity = _hjorth(x, variance)

    band_psd = psd[analysis]
    psd_sum = float(np.add.reduce(band_psd))
    if psd_sum > 0:
        p = band_psd / psd_sum
        nonzero = p[p > 0]
        terms = np.log(nonzero)
        terms *= nonzero
        entropy = float(-np.add.reduce(terms) / np.log(p.size))
        cumulative = np.add.accumulate(band_psd)  # np.cumsum
        edge_idx = int(cumulative.searchsorted(SPECTRAL_EDGE_FRACTION * psd_sum))
        band_freqs = freqs[analysis]
        edge_hz = float(band_freqs[min(edge_idx, band_freqs.size - 1)])
    else:
        entropy = 0.0
        edge_hz = ANALYSIS_BAND_HZ[0]

    return FeatureVector(
        band_powers
        + rel_powers
        + ratios
        + [variance, skewness, kurtosis, zcr, mobility, complexity, entropy, edge_hz]
    )


def featurize(epoch: Epoch, config: PreprocessConfig | None = None) -> FeatureVector:
    """Preprocess then extract: the standard path from raw epoch to features."""
    return extract(preprocess(epoch))
