"""Queue-based epoch capture and processing.

A continuous sample stream is cut into fixed-length, non-overlapping
epochs that pass through a bounded FIFO queue to a processor that
classifies each one. The queue accounts for every epoch:
``produced == consumed + dropped + queued`` holds at any quiescent point,
and overflow is counted rather than raised so the sampling side is never
stalled by a slow consumer.

:func:`run_live` is one loop on the calling thread. A finite clock
acceleration admits each epoch at its absolute deadline and classifies
queued epochs while that deadline is still ahead, so a slow processor
lets later epochs queue or drop. ``acceleration=math.inf`` classifies
each epoch as soon as it is read, and none is dropped.

There is one failure rule: whatever fails, source or processor, or a
``KeyboardInterrupt``, ends the run, and :func:`run_live` returns the
partial log with a report whose ``error`` names the cause. Nothing is
raised, and the queue's counters and the log agree on every exit.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .classes import class_index

logger = logging.getLogger(__name__)

EPOCH_LENGTHS_S = (4, 16, 32, 64)


def samples_per_epoch(length_s: int, rate_hz: float) -> int:
    """Samples in one epoch of ``length_s`` seconds at ``rate_hz``.

    The length must be one of :data:`EPOCH_LENGTHS_S`, and the epoch must
    hold a positive whole number of samples.
    """
    if length_s not in EPOCH_LENGTHS_S:
        raise ValueError(
            f"epoch length must be one of {EPOCH_LENGTHS_S}, got {length_s}"
        )
    n = length_s * rate_hz
    if not 0 < n < math.inf or n != int(n):
        raise ValueError(
            f"{length_s} s at {rate_hz} Hz is not a positive whole number of samples"
        )
    return int(n)


@dataclass(frozen=True)
class SampleClock:
    """The live loop's one time source: wall time sped up by ``acceleration``.

    ``now_ns`` reads monotonic nanoseconds and ``sleep_until`` waits for a
    reading. ``acceleration`` of 1 is real time, ``math.inf`` "as fast as the
    consumer allows". ``rate_hz`` is unread; benchmark/workloads.py passes it.
    """

    rate_hz: float = 256.0
    acceleration: float = 1.0

    def __post_init__(self) -> None:
        if not self.rate_hz > 0:
            raise ValueError("rate_hz must be positive")
        if not self.acceleration >= 1:
            raise ValueError("acceleration must be >= 1")

    def now_ns(self) -> int:
        return time.monotonic_ns()

    def sleep_until(self, t_ns: int) -> None:
        if (wait_ns := t_ns - time.monotonic_ns()) > 0:
            time.sleep(wait_ns / 1e9)


# Compared and hashed by identity: an array field has no one truth value.
@dataclass(frozen=True, eq=False)
class Epoch:
    """A fixed-duration window of physical samples from one stream.

    Frozen, so the sample count checked when it is built holds for its life.
    """

    samples: np.ndarray
    start_index: int
    length_s: int
    rate_hz: float
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        expected = samples_per_epoch(self.length_s, self.rate_hz)
        if self.samples.size != expected:
            raise ValueError(
                f"epoch needs exactly {expected} samples "
                f"({self.length_s} s at {self.rate_hz} Hz), got {self.samples.size}"
            )
        if self.label is not None:
            class_index(self.label)

    @property
    def num_samples(self) -> int:
        return int(self.samples.size)


def assemble(samples: np.ndarray, length_s: int, rate_hz: float) -> Iterator[Epoch]:
    """Cut a sample stream into contiguous non-overlapping epochs.

    Emits ``floor(len(samples) / (length_s * rate_hz))`` epochs with start
    indices at exact multiples of the epoch sample count; a trailing
    partial window is discarded. The length and rate are checked here,
    before the first epoch is asked for.
    """
    per_epoch = samples_per_epoch(length_s, rate_hz)
    samples = np.asarray(samples, dtype=np.float64)
    return (
        Epoch(samples[start : start + per_epoch], start, length_s, rate_hz)
        for start in range(0, samples.size - per_epoch + 1, per_epoch)
    )


class EpochQueue:
    """Bounded FIFO with produced/consumed/dropped accounting.

    ``enqueue`` never blocks: when the queue is full the epoch is counted
    as dropped and refused.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.produced = 0
        self.consumed = 0
        self.dropped = 0
        self._items: deque[Epoch] = deque()

    def enqueue(self, epoch: Epoch) -> bool:
        """Append an epoch; returns False (and counts a drop) when full."""
        self.produced += 1
        if len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(epoch)
        return True

    def dequeue(self) -> Epoch | None:
        """Pop the oldest epoch, or None when empty."""
        if not self._items:
            return None
        self.consumed += 1
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def counters(self) -> dict[str, int]:
        """Snapshot of the conservation counters."""
        return {
            "produced": self.produced,
            "consumed": self.consumed,
            "dropped": self.dropped,
            "queued": len(self._items),
        }


@dataclass
class TimingReport:
    """Collection versus processing time over one run.

    ``error`` holds the failure that ended the run early, as
    ``"Type: message"``; a run that ended with its source is complete.
    """

    num_epochs: int
    collection_time_s: float
    processing_time_s: float
    error: str | None = None

    @property
    def complete(self) -> bool:
        return self.error is None

    @property
    def ratio_percent(self) -> float:
        if self.collection_time_s == 0:
            return math.inf if self.processing_time_s > 0 else 0.0
        return 100.0 * self.processing_time_s / self.collection_time_s


def _describe(exc: BaseException) -> str:
    """``"Type: message"`` (``"Type"`` alone if it has no message) for the
    report; the traceback goes to the debug log."""
    logger.debug("run stopped by a failure", exc_info=exc)
    return f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__


def run_live(
    source: Iterable[Epoch],
    processor: Callable[[Epoch], str],
    clock: SampleClock = SampleClock(),
    queue: EpochQueue | None = None,
    deterministic: bool = False,
) -> tuple[list[dict], TimingReport]:
    """Stream epochs from ``source`` through the queue into ``processor``.

    Every produced epoch is either logged (its label and processing time
    in microseconds), counted as dropped, or still queued when the run
    ends. Collection time is analytic, ``sum(epoch.length_s)`` over the
    produced epochs, so accelerated runs report the real-time figure.

    One loop on the calling thread reads each epoch, and its deadline is
    the start plus the recording up to its end, divided by the clock's
    ``acceleration``. While that deadline is ahead the loop classifies
    queued epochs; it sleeps out the rest, then admits the epoch, and a
    full queue drops it. When the source ends, the queued epochs are
    classified. An infinite acceleration classifies each admitted epoch
    at once, before the next is read. ``deterministic=True`` does the
    same whatever the clock; it exists only because
    benchmark/workloads.py passes it, and goes when that stops. Time is
    read only from the clock: deadlines and ``processing_us`` from its
    ``now_ns()``, and the waits are its ``sleep_until``.

    Any failure, of the source or of the processor, or a
    ``KeyboardInterrupt``, ends the run. The queued epochs are still
    classified after a source failure, and a processor failure ends the
    run at once. The partial log comes back with the cause,
    ``"Type: message"``, in the report's ``error`` (the processor's if
    both fail). The epoch whose processor raised is logged with
    ``label`` None. ``produced == consumed + dropped + queued`` and
    ``consumed == len(log)`` hold on every exit.
    """
    q = queue if queue is not None else EpochQueue()
    pace = math.inf if deterministic else clock.acceleration
    log: list[dict] = []
    collected_s = 0.0
    source_error: str | None = None
    processor_error: str | None = None

    def consume(epoch: Epoch) -> bool:
        """Classify and log one epoch; False once the processor has failed."""
        nonlocal processor_error
        t0 = clock.now_ns()
        try:
            label = processor(epoch)
        except (Exception, KeyboardInterrupt) as exc:
            label, processor_error = None, _describe(exc)
        log.append(
            {
                "epoch_index": len(log),
                "start_index": epoch.start_index,
                "label": label,
                "processing_us": (clock.now_ns() - t0) // 1000,
            }
        )
        return processor_error is None

    def classify_until(deadline_ns: float) -> bool:
        """Classify queued epochs while ``deadline_ns`` is ahead; False once
        the processor has failed."""
        while len(q) and clock.now_ns() < deadline_ns:
            if not consume(q.dequeue()):
                return False
        return True

    start_ns = clock.now_ns()
    try:  # consume() keeps the processor's failures to itself
        for epoch in source:
            due_ns = start_ns + round((collected_s + epoch.length_s) * 1e9 / pace)
            if not classify_until(due_ns):
                break
            clock.sleep_until(due_ns)
            collected_s += epoch.length_s
            q.enqueue(epoch)
            if pace == math.inf and not classify_until(math.inf):
                break
    except (Exception, KeyboardInterrupt) as exc:
        source_error = _describe(exc)
    if processor_error is None:
        classify_until(math.inf)

    processing_s = sum(entry["processing_us"] for entry in log) / 1e6
    report = TimingReport(
        num_epochs=q.produced,
        collection_time_s=collected_s,
        processing_time_s=processing_s,
        error=processor_error or source_error,
    )
    return log, report
