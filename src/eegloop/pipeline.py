"""Queue-based epoch capture and processing.

A producer turns a continuous sample stream into fixed-length,
non-overlapping epochs and feeds them through a bounded FIFO queue to a
consumer that classifies each one. The queue accounts for every epoch:
``produced == consumed + dropped + queued`` holds at any quiescent point,
and overflow is counted rather than raised so the sampling side is never
stalled by a slow consumer.

Two execution modes share one consume step. The threaded mode runs one
producer thread against the calling thread as consumer, which blocks on
the queue until an epoch arrives or the producer closes it. Delivery is
paced from a :class:`~eegloop.loopback.SampleClock`: a finite
acceleration hands over each epoch at its absolute deadline, while
``acceleration=math.inf`` delivers each epoch as soon as the queue has
room, pausing the virtual clock instead of dropping. The deterministic
mode interleaves produce and consume steps on a single thread for
reproducible logs.

Both modes have one failure rule: whatever fails, source or processor,
ends the run, stops the producer, and :func:`run_live` returns the
partial log with a report whose ``error`` names the cause. Nothing is
raised, and the queue's counters and the log agree on every exit.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .classes import class_index
from .loopback import SampleClock

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


@dataclass
class Epoch:
    """A fixed-duration window of physical samples from one stream."""

    samples: np.ndarray
    start_index: int
    length_s: int
    rate_hz: float
    label: str | None = None

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
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
    as dropped and refused. ``get`` and ``wait_for_room`` block until the
    queue changes or is closed; a closed queue stays closed. Safe for one
    producer and one consumer thread.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.produced = 0
        self.consumed = 0
        self.dropped = 0
        self._items: deque[Epoch] = deque()
        self._closed = False
        self._changed = threading.Condition()

    def enqueue(self, epoch: Epoch) -> bool:
        """Append an epoch; returns False (and counts a drop) when full."""
        with self._changed:
            self.produced += 1
            if len(self._items) >= self.capacity:
                self.dropped += 1
                return False
            self._items.append(epoch)
            self._changed.notify_all()
            return True

    def dequeue(self) -> Epoch | None:
        """Pop the oldest epoch, or None when empty."""
        with self._changed:
            if not self._items:
                return None
            self.consumed += 1
            self._changed.notify_all()
            return self._items.popleft()

    def get(self) -> Epoch | None:
        """Block until an epoch is queued; None once closed and drained."""
        with self._changed:
            self._changed.wait_for(lambda: self._items or self._closed)
            return self.dequeue()

    def wait_for_room(self) -> bool:
        """Block until the queue has room; False once it is closed."""
        with self._changed:
            self._changed.wait_for(
                lambda: len(self._items) < self.capacity or self._closed
            )
            return not self._closed

    def close(self) -> None:
        """Wake every waiter; ``get`` then drains and ``wait_for_room`` fails."""
        with self._changed:
            self._closed = True
            self._changed.notify_all()

    def __len__(self) -> int:
        with self._changed:
            return len(self._items)

    def counters(self) -> dict[str, int]:
        """Atomic snapshot of the conservation counters."""
        with self._changed:
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


def _describe(exc: Exception) -> str:
    """``"Type: message"`` for the report; the traceback goes to the debug log."""
    logger.debug("run stopped by a failure", exc_info=exc)
    return f"{type(exc).__name__}: {exc}"


def run_live(
    source: Iterable[Epoch],
    processor: Callable[[Epoch], str],
    clock: SampleClock = SampleClock(),
    queue: EpochQueue | None = None,
    deterministic: bool = False,
    timer: Callable[[], int] = time.perf_counter_ns,
) -> tuple[list[dict], TimingReport]:
    """Stream epochs from ``source`` through the queue into ``processor``.

    Every produced epoch is either logged (its label and processing time
    in microseconds), counted as dropped, or still queued when the run
    ends. Collection time is analytic, ``sum(epoch.length_s)`` over the
    produced epochs, so accelerated runs report the real-time figure.

    In threaded mode the producer hands epochs over through blocking
    queue calls and closes the queue when the source ends; the consumer
    runs until the queue is closed and drained. A finite clock
    acceleration delivers each epoch once the recording up to its end,
    divided by the acceleration, has elapsed since the start; an infinite
    one delivers it as soon as the queue has room.

    Any failure, of the source or of the processor, ends the run in both
    modes and stops the producer; the partial log comes back with the
    cause, ``"Type: message"``, in the report's ``error`` (the
    processor's if both fail). The epoch whose processor raised is logged
    with ``label`` None. ``produced == consumed + dropped + queued`` and
    ``consumed == len(log)`` hold on every exit.
    ``timer`` must return monotonic nanoseconds; it is injectable so
    deterministic runs can produce byte-identical logs.
    """
    q = queue if queue is not None else EpochQueue()
    log: list[dict] = []
    collected_s = 0.0
    source_error: str | None = None
    processor_error: str | None = None

    def consume(epoch: Epoch) -> bool:
        """Classify and log one epoch; False once the processor has failed."""
        nonlocal processor_error
        t0 = timer()
        try:
            label = processor(epoch)
        except Exception as exc:
            label, processor_error = None, _describe(exc)
        elapsed_us = (timer() - t0) // 1000
        log.append(
            {
                "epoch_index": len(log),
                "start_index": epoch.start_index,
                "label": label,
                "processing_us": int(elapsed_us),
            }
        )
        return processor_error is None

    if deterministic:
        epochs = iter(source)
        while True:
            try:
                epoch = next(epochs)
            except StopIteration:
                break
            except Exception as exc:
                source_error = _describe(exc)
                break
            collected_s += epoch.length_s
            if q.enqueue(epoch) and not consume(q.dequeue()):
                break
    else:
        stop = threading.Event()  # consumer exited; wakes a pacing producer

        def produce() -> None:
            nonlocal collected_s, source_error
            start = time.monotonic()
            due_s = 0.0
            try:
                for epoch in source:
                    if clock.acceleration == math.inf:
                        # Virtual clock: pause delivery instead of dropping.
                        if not q.wait_for_room():
                            return
                    else:
                        due_s += epoch.length_s / clock.acceleration
                        if stop.wait(max(0.0, start + due_s - time.monotonic())):
                            return
                    collected_s += epoch.length_s
                    q.enqueue(epoch)
            except Exception as exc:
                source_error = _describe(exc)
            finally:
                q.close()

        producer = threading.Thread(target=produce, name="epoch-producer", daemon=True)
        producer.start()
        try:
            while (epoch := q.get()) is not None:
                if not consume(epoch):
                    break
        finally:
            stop.set()
            q.close()
            producer.join()

    processing_s = sum(entry["processing_us"] for entry in log) / 1e6
    report = TimingReport(
        num_epochs=q.produced,
        collection_time_s=collected_s,
        processing_time_s=processing_s,
        error=processor_error or source_error,
    )
    return log, report

