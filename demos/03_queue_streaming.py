"""
Streaming epochs through the bounded queue
==========================================

Cuts a continuous synthetic stream into 4 s epochs, classifies them at
maximum acceleration, and shows the loss
accounting and collection-vs-processing timing. Then forces overflow
with a deliberately slow consumer under real-time pacing.
"""

import math
import time

import numpy as np

from eegloop.pipeline import EpochQueue, SampleClock, assemble, run_live
from eegloop.synth import SyntheticSpec, generate_epoch_samples

rng = np.random.default_rng(1)
spec = SyntheticSpec(epochs_per_class=1, epoch_length_s=4, seed=1)
stream = np.concatenate(
    [generate_epoch_samples("sham_wake", spec, rng) for _ in range(30)]
)
print(f"stream: {stream.size} samples = 30 whole epochs of 4 s at 256 Hz")


# A stand-in classifier: threshold the epoch's RMS.
def processor(epoch):
    return "sham_wake" if np.sqrt(np.mean(epoch.samples**2)) > 80 else "sham_sleep"


# Infinite clock: each epoch is classified as soon as it is read, so a
# 120 s recording streams in milliseconds with zero loss.
queue = EpochQueue(capacity=8)
t0 = time.time()
log, report = run_live(
    assemble(stream, 4, 256.0), processor,
    clock=SampleClock(acceleration=math.inf), queue=queue,
)
print(f"\naccelerated run took {time.time() - t0:.3f} s of wall time")
print("counters:", queue.counters())
print(f"collection {report.collection_time_s:.0f} s (analytic), "
      f"processing {report.processing_time_s * 1000:.2f} ms, "
      f"ratio {report.ratio_percent:.5f}%")
print("first log entries:")
for entry in log[:3]:
    print("  ", entry)

# A finite clock admits each epoch at its deadline, classifying queued
# epochs while it waits: with a consumer slower than the (highly
# accelerated) delivery interval, epochs that come due during a
# classification are admitted behind it, and overflow is counted and
# dropped instead of delaying the later epochs.
def slow_processor(epoch):
    time.sleep(0.02)
    return processor(epoch)


queue = EpochQueue(capacity=2)
_, report = run_live(
    assemble(stream, 4, 256.0), slow_processor,
    clock=SampleClock(acceleration=2000.0), queue=queue,
)
print("\nslow consumer under finite acceleration:", queue.counters())
print("conservation: produced == consumed + dropped + queued ->",
      queue.counters()["produced"],
      "==",
      queue.counters()["consumed"], "+", queue.counters()["dropped"],
      "+", queue.counters()["queued"])
