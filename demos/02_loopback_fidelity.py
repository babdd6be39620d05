"""
Converter loopback: how many bits does replay fidelity cost?
============================================================

Replays a synthetic EEG trace through the DAC/ADC models at several
resolutions and compares the measured MSE against the analytic
worst-case quantization bound. Saves a stored-vs-recaptured overlay to
loopback_overlay.png.
"""

import numpy as np

from eegloop import (
    AdcModel,
    DacModel,
    SignalTrace,
    VoltageMapping,
    capture,
    quantization_error_bound,
    replay_capture,
)
from eegloop.loopback import HARDWARE_LOOPBACK_REFERENCE_MSE
from eegloop.synth import SyntheticSpec, generate_epoch_samples

# One 16 s epoch of delta-dominant synthetic EEG as the stored waveform.
spec = SyntheticSpec(epochs_per_class=1, epoch_length_s=16, seed=42)
samples = generate_epoch_samples("sham_sleep", spec, np.random.default_rng(42))
trace = SignalTrace(samples, 256.0)
mapping = VoltageMapping.centered(samples.min(), samples.max())

print(f"\n{'dac':>4} {'adc':>4} {'mse uV^2':>12} {'bound^2':>12} {'max err uV':>12}")
for dac_bits, adc_bits in [(12, 10), (12, 8), (16, 16), (8, 8), (6, 6)]:
    dac, adc = DacModel(dac_bits), AdcModel(adc_bits)
    result = replay_capture(trace, mapping, dac, adc)
    bound = quantization_error_bound(mapping, dac, adc)
    print(f"{dac_bits:>4} {adc_bits:>4} {result.mse:12.5f} {bound**2:12.5f} "
          f"{result.max_abs_error:12.5f}")

# Bypassing both converters is the identity path.
bypass = replay_capture(trace, mapping, dac=None, adc=None)
print(f"\nbypass mse: {bypass.mse} (exact zero)")
print(f"physical rig reference point: typical mse {HARDWARE_LOOPBACK_REFERENCE_MSE} "
      "(source units; not directly comparable)")

# The first 2 s of the default 12/10-bit path, from its first captured block.
block, _ = next(capture(trace, mapping))
stored, recaptured = samples[:512], block[:512]
print(f"first 2 s: max |recaptured - stored| {np.abs(recaptured - stored).max():.5f} uV")
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    t = np.arange(512) / 256.0
    fig, ax = plt.subplots(figsize=(9, 4))
    ax.plot(t, stored, label="stored", lw=1.2)
    ax.plot(t, recaptured, label="recaptured", lw=0.8, alpha=0.8)
    ax.set_xlabel("time (s)")
    ax.set_ylabel("amplitude (uV)")
    ax.set_title("12-bit DAC -> 10-bit ADC loopback")
    ax.legend()
    fig.tight_layout()
    fig.savefig("loopback_overlay.png", dpi=120)
    print("wrote loopback_overlay.png")
except ImportError:
    print("matplotlib not installed; skipping the overlay plot")
