"""
What the feature extractor sees
===============================

Runs the preprocessing chain and the 21-feature extractor over signals
with known structure (band-limited tones, shaped noise, a constant) and
prints the resulting vectors side by side.
"""

import numpy as np

from eegloop import Epoch, FEATURE_NAMES, featurize, preprocess
from eegloop.synth import SyntheticSpec, generate_epoch_samples

RATE = 256.0
N = int(16 * RATE)
t = np.arange(N) / RATE

spec = SyntheticSpec(epochs_per_class=1, epoch_length_s=16, seed=9)
signals = {
    "10 Hz tone": np.sin(2 * np.pi * 10 * t),
    "3 Hz tone": np.sin(2 * np.pi * 3 * t),
    "tone + noise": np.sin(2 * np.pi * 10 * t)
    + 0.5 * np.random.default_rng(0).standard_normal(N),
    "delta-ish synth": generate_epoch_samples(
        "sham_sleep", spec, np.random.default_rng(9)
    ),
}

vectors = {
    name: featurize(Epoch(x, 0, 16, RATE)) for name, x in signals.items()
}

header = f"{'feature':<24}" + "".join(f"{name:>18}" for name in vectors)
print(header)
print("-" * len(header))
for i, fname in enumerate(FEATURE_NAMES):
    row = f"{fname:<24}"
    for fv in vectors.values():
        row += f"{fv.values[i]:18.4f}"
    print(row)

# The alpha tone puts >90% of its band power in alpha; the 3 Hz tone in
# delta. Spectral entropy separates pure tones from noise.
alpha_rel = FEATURE_NAMES.index("alpha_rel_power")
entropy = FEATURE_NAMES.index("spectral_entropy")
print(f"\nalpha share of the 10 Hz tone: {vectors['10 Hz tone'].values[alpha_rel]:.3f}")
print(f"entropy, tone vs noisy tone:   "
      f"{vectors['10 Hz tone'].values[entropy]:.3f} vs "
      f"{vectors['tone + noise'].values[entropy]:.3f}")

# A constant input is passed through unchanged, not z-scored into garbage.
flat = preprocess(Epoch(np.full(N, 3.3), 0, 16, RATE))
print("\nconstant epoch unchanged:", bool(np.all(flat.samples == 3.3)))
