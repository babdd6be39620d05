"""Epoch assembly, queue accounting, live runs, and batch timing."""

import json
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegloop.loopback import SampleClock
from eegloop.pipeline import (Epoch, EpochQueue, TimingReport, assemble, run_live,
                              samples_per_epoch)


def make_epoch(i=0, length_s=4, rate_hz=16.0, fill=0.0):
    n = int(length_s * rate_hz)
    return Epoch(np.full(n, fill), start_index=i * n, length_s=length_s, rate_hz=rate_hz)


def assert_accounted(queue, log):
    """The queue's conservation identity, and one log entry per consumed epoch."""
    c = queue.counters()
    assert c["produced"] == c["consumed"] + c["dropped"] + c["queued"]
    assert c["consumed"] == len(log)


def paced_clock():
    """A finite clock with 40 ms between 4 s epochs."""
    return SampleClock(rate_hz=16.0, acceleration=100.0)


def inline_clock():
    return SampleClock(rate_hz=16.0, acceleration=math.inf)


def slow_then(seconds, then):
    """A processor whose first call sleeps ``seconds`` and returns a label,
    and whose later calls return ``then(epoch)``."""
    calls = []

    def processor(epoch):
        calls.append(epoch)
        if len(calls) == 1:
            time.sleep(seconds)
            return "sham_wake"
        return then(epoch)

    return processor


def explode(epoch):
    raise RuntimeError("model exploded")


class FakeTimer:
    """Monotonic-ns stand-in advancing a fixed step per call."""

    def __init__(self, step_ns=1000):
        self.now = 0
        self.step_ns = step_ns

    def __call__(self):
        self.now += self.step_ns
        return self.now


class TestEpoch:
    def test_sample_count_must_match_duration(self):
        with pytest.raises(ValueError, match="samples"):
            Epoch(np.zeros(100), 0, 4, 256.0)

    def test_length_restricted_to_supported_values(self):
        with pytest.raises(ValueError, match="length"):
            Epoch(np.zeros(8 * 256), 0, 8, 256.0)

    def test_label_checked(self):
        with pytest.raises(ValueError, match="label"):
            Epoch(np.zeros(1024), 0, 4, 256.0, label="awake")


class TestAssemble:
    def test_64s_epoch_sample_count(self):
        epochs = list(assemble(np.zeros(16384), 64, 256.0))
        assert len(epochs) == 1
        assert epochs[0].num_samples == 16384

    def test_below_one_window_yields_nothing(self):
        assert list(assemble(np.zeros(16383), 64, 256.0)) == []

    def test_start_indices_are_contiguous_and_non_overlapping(self):
        epochs = list(assemble(np.zeros(3 * 16384 + 100), 64, 256.0))
        assert [e.start_index for e in epochs] == [0, 16384, 32768]
        deltas = np.diff([e.start_index for e in epochs])
        assert all(d == epochs[0].num_samples for d in deltas)

    def test_non_integer_epoch_size_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            list(assemble(np.zeros(100), 4, 0.3))

    @pytest.mark.parametrize("rate_hz", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, rate_hz):
        with pytest.raises(ValueError, match="whole number"):
            samples_per_epoch(4, rate_hz)
        with pytest.raises(ValueError, match="whole number"):
            assemble(np.zeros(100), 4, rate_hz)

    def test_samples_sliced_in_order(self):
        stream = np.arange(2 * 64, dtype=float)
        epochs = list(assemble(stream, 4, 16.0))
        np.testing.assert_array_equal(epochs[0].samples, stream[:64])
        np.testing.assert_array_equal(epochs[1].samples, stream[64:128])


class TestEpochQueue:
    def test_overflow_drops_newest_and_counts(self):
        q = EpochQueue(capacity=2)
        assert q.enqueue(make_epoch(0))
        assert q.enqueue(make_epoch(1))
        assert not q.enqueue(make_epoch(2))
        assert q.counters() == {"produced": 3, "consumed": 0, "dropped": 1, "queued": 2}

    def test_fifo_order(self):
        q = EpochQueue(capacity=8)
        for i in range(5):
            q.enqueue(make_epoch(i, fill=float(i)))
        fills = [q.dequeue().samples[0] for _ in range(5)]
        assert fills == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert q.dequeue() is None

    def test_consumer_keeping_up_never_drops(self):
        q = EpochQueue(capacity=2)
        for i in range(100):
            q.enqueue(make_epoch(i))
            q.dequeue()
        assert q.counters() == {"produced": 100, "consumed": 100, "dropped": 0, "queued": 0}

    @given(st.lists(st.booleans(), min_size=1, max_size=200),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_conservation_under_random_interleavings(self, ops, capacity):
        q = EpochQueue(capacity=capacity)
        n_enqueued = 0
        expected_order = []
        seen = []
        for is_enqueue in ops:
            if is_enqueue:
                accepted = q.enqueue(make_epoch(n_enqueued, fill=float(n_enqueued)))
                if accepted:
                    expected_order.append(float(n_enqueued))
                n_enqueued += 1
            else:
                epoch = q.dequeue()
                if epoch is not None:
                    seen.append(epoch.samples[0])
        counters = q.counters()
        assert counters["produced"] == n_enqueued
        assert counters["produced"] == (
            counters["consumed"] + counters["dropped"] + counters["queued"]
        )
        # FIFO: consumed prefix matches the accepted order
        assert seen == expected_order[: len(seen)]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EpochQueue(capacity=0)


class TestRunLive:
    def test_constant_processor_logs_every_epoch(self):
        source = [make_epoch(i) for i in range(10)]
        log, report = run_live(iter(source), lambda e: "sham_wake",
                               deterministic=True, timer=FakeTimer())
        assert len(log) == 10
        assert {entry["label"] for entry in log} == {"sham_wake"}
        assert [entry["start_index"] for entry in log] == [e.start_index for e in source]
        assert report.num_epochs == 10
        assert report.processing_time_s == pytest.approx(10 * 1e-6)
        assert report.complete

    def test_collection_time_is_analytic(self):
        source = [make_epoch(i, length_s=64, rate_hz=4.0) for i in range(3)]
        _, report = run_live(iter(source), lambda e: "sham_wake",
                             deterministic=True, timer=FakeTimer())
        assert report.collection_time_s == 3 * 64

    def test_deterministic_log_is_byte_identical(self):
        def encode(log):
            return "\n".join(json.dumps(e, sort_keys=True) for e in log)

        runs = []
        for _ in range(2):
            source = [make_epoch(i, fill=float(i % 3)) for i in range(20)]
            log, _ = run_live(iter(source),
                              lambda e: "tbi_wake" if e.samples[0] > 1 else "sham_wake",
                              deterministic=True, timer=FakeTimer())
            runs.append(encode(log))
        assert runs[0] == runs[1]

    def test_source_failure_flags_incomplete(self):
        def bad_source():
            yield make_epoch(0)
            yield make_epoch(1)
            raise IOError("sensor unplugged")

        for clock, deterministic in ((inline_clock(), True), (paced_clock(), False)):
            q = EpochQueue(capacity=8)
            log, report = run_live(bad_source(), lambda e: "sham_wake",
                                   clock=clock, queue=q, deterministic=deterministic,
                                   timer=FakeTimer())
            assert not report.complete
            assert report.error == "OSError: sensor unplugged"
            assert len(log) == 2
            assert q.counters() == {"produced": 2, "consumed": 2, "dropped": 0,
                                    "queued": 0}

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_processor_failure_ends_run_with_partial_log(self, deterministic):
        def failing(epoch):
            if epoch.start_index > 0:
                raise RuntimeError("model exploded")
            return "sham_wake"

        source = [make_epoch(i) for i in range(10)]
        q = EpochQueue(capacity=8)
        clock = inline_clock() if deterministic else paced_clock()
        log, report = run_live(iter(source), failing, clock=clock, queue=q,
                               deterministic=deterministic, timer=FakeTimer())
        assert not report.complete
        assert report.error == "RuntimeError: model exploded"
        assert [entry["label"] for entry in log] == ["sham_wake", None]
        assert log[-1]["processing_us"] == 1
        assert_accounted(q, log)
        if deterministic:
            assert q.counters() == {"produced": 2, "consumed": 2, "dropped": 0,
                                    "queued": 0}

    def test_paced_processor_failure_accounts_for_queued_epochs(self):
        # Epoch 0 is classified for 0.42 s, over ten 40 ms intervals: epochs
        # 1-4 fill the queue behind it and epochs 5-10 at least are dropped.
        # Epoch 1 then fails, with the queue still holding 2-4.
        q = EpochQueue(capacity=4)
        source = [make_epoch(i) for i in range(20)]
        log, report = run_live(iter(source), slow_then(0.42, explode),
                               clock=paced_clock(), queue=q)
        assert report.error == "RuntimeError: model exploded"
        assert [entry["label"] for entry in log] == ["sham_wake", None]
        c = q.counters()
        assert (c["consumed"], c["queued"]) == (2, 3)
        assert c["dropped"] >= 6
        assert report.num_epochs == c["produced"] == 5 + c["dropped"]
        assert_accounted(q, log)

    def test_paced_processor_error_wins_over_source_error(self):
        # Epoch 0 is classified for 0.1 s, past the deadlines of epochs 1
        # and 2, which queue. The source then fails, the queued epochs are
        # classified, and epoch 1 fails: that error wins, and epoch 2 stays.
        def bad_source():
            yield from (make_epoch(i) for i in range(3))
            raise IOError("sensor unplugged")

        q = EpochQueue(capacity=8)
        log, report = run_live(bad_source(), slow_then(0.1, explode),
                               clock=paced_clock(), queue=q)
        assert report.error == "RuntimeError: model exploded"
        assert [entry["label"] for entry in log] == ["sham_wake", None]
        assert q.counters() == {"produced": 3, "consumed": 2, "dropped": 0, "queued": 1}
        assert_accounted(q, log)

    def test_paced_slow_consumer_drops_its_overflow(self):
        def slow(epoch):  # 2.5 intervals of the paced clock
            time.sleep(0.1)
            return "sham_wake"

        q = EpochQueue(capacity=2)
        log, report = run_live(iter([make_epoch(i) for i in range(10)]), slow,
                               clock=paced_clock(), queue=q)
        assert report.complete
        assert q.produced == 10 and q.dropped > 0
        assert_accounted(q, log)

    @pytest.mark.parametrize("clock", [inline_clock(), paced_clock()],
                             ids=["inline", "paced"])
    def test_processor_interrupt_ends_run_with_partial_log(self, clock):
        def interrupt(epoch):
            raise KeyboardInterrupt

        q = EpochQueue(capacity=8)
        log, report = run_live(iter([make_epoch(i) for i in range(5)]),
                               slow_then(0, interrupt), clock=clock, queue=q)
        assert report.error == "KeyboardInterrupt"
        assert [entry["label"] for entry in log] == ["sham_wake", None]
        assert_accounted(q, log)

    @pytest.mark.parametrize("clock", [inline_clock(), paced_clock()],
                             ids=["inline", "paced"])
    def test_source_interrupt_ends_run_after_the_queued_epochs(self, clock):
        def interrupted_source():
            yield from (make_epoch(i) for i in range(2))
            raise KeyboardInterrupt

        q = EpochQueue(capacity=8)
        log, report = run_live(interrupted_source(), lambda e: "sham_wake",
                               clock=clock, queue=q)
        assert report.error == "KeyboardInterrupt"
        assert [entry["label"] for entry in log] == ["sham_wake"] * 2
        assert q.counters() == {"produced": 2, "consumed": 2, "dropped": 0, "queued": 0}
        assert_accounted(q, log)

    @staticmethod
    def assert_runs_on_the_calling_thread(clock):
        threads, counts = [], []
        before = threading.active_count()

        def source():
            for i in range(3):
                threads.append(threading.current_thread())
                yield make_epoch(i)

        def processor(epoch):
            threads.append(threading.current_thread())
            counts.append(threading.active_count())
            return "sham_wake"

        log, report = run_live(source(), processor, clock=clock)
        assert report.complete and len(log) == 3
        assert threads == [threading.current_thread()] * 6
        assert counts == [before] * 3

    def test_infinite_clock_runs_on_the_calling_thread(self):
        self.assert_runs_on_the_calling_thread(inline_clock())

    def test_paced_clock_runs_on_the_calling_thread(self):
        self.assert_runs_on_the_calling_thread(paced_clock())

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_infinite_clock_never_drops(self, seed):
        rng = np.random.default_rng(seed)
        source = [make_epoch(i, fill=float(rng.uniform())) for i in range(100)]
        q = EpochQueue(capacity=8)
        log, report = run_live(
            iter(source), lambda e: "sham_sleep",
            clock=inline_clock(), queue=q,
        )
        counters = q.counters()
        assert counters["produced"] == 100
        assert counters["consumed"] == 100
        assert counters["dropped"] == 0
        assert len(log) == 100
        assert report.complete

    def test_finite_acceleration_paces_and_completes(self):
        source = [make_epoch(i) for i in range(5)]
        q = EpochQueue(capacity=8)
        log, report = run_live(
            iter(source), lambda e: "sham_wake",
            clock=SampleClock(rate_hz=16.0, acceleration=4000.0), queue=q,
        )
        assert len(log) == 5
        assert q.counters()["dropped"] == 0

    def test_paced_producer_keeps_absolute_deadlines(self):
        # 20 epochs at a 10 ms interval, each costing ~5 ms to read: relative
        # sleeps would take 20 * 15 ms = 300 ms.
        def slow_source():
            for i in range(20):
                time.sleep(0.005)
                yield make_epoch(i)

        start = time.monotonic()
        log, report = run_live(slow_source(), lambda e: "sham_wake",
                               clock=SampleClock(rate_hz=16.0, acceleration=400.0))
        elapsed = time.monotonic() - start
        assert len(log) == 20 and report.complete
        assert 0.2 <= elapsed < 0.27

    def test_paced_processor_failure_stops_producer_promptly(self):
        # Eight 4 s epochs at 16x: one 0.25 s interval each, 2 s in all.
        def failing(epoch):
            raise RuntimeError("model exploded")

        source = [make_epoch(i) for i in range(8)]
        q = EpochQueue(capacity=8)
        start = time.monotonic()
        log, report = run_live(iter(source), failing,
                               clock=SampleClock(rate_hz=16.0, acceleration=16.0),
                               queue=q)
        assert time.monotonic() - start < 0.6
        assert report.error == "RuntimeError: model exploded"
        assert log[-1]["label"] is None
        assert_accounted(q, log)

    def test_timing_report_ratio(self):
        report = TimingReport(num_epochs=1, collection_time_s=64.0,
                              processing_time_s=0.02)
        assert report.ratio_percent == pytest.approx(100 * 0.02 / 64.0)


class TestBench:
    """Batch timing as `eegloop bench` does it: one run per size at an
    infinite clock, which classifies on the calling thread."""

    @staticmethod
    def bench(batch_sizes, processor, epochs):
        clock = inline_clock()
        return [run_live(epochs[:size], processor, clock=clock)[1]
                for size in batch_sizes]

    def test_row_per_batch_size(self):
        epochs = [make_epoch(i) for i in range(100)]
        reports = self.bench([1, 10, 100], lambda e: "sham_wake", epochs)
        assert [r.num_epochs for r in reports] == [1, 10, 100]
        assert all(r.complete for r in reports)
        assert [r.collection_time_s for r in reports] == [4.0, 40.0, 400.0]
        assert all(r.ratio_percent == pytest.approx(
            100 * r.processing_time_s / r.collection_time_s) for r in reports)

    def test_fixed_cost_processor_scales_roughly_linearly(self):
        epochs = [make_epoch(i) for i in range(200)]

        def fixed_cost(e):  # ~100 us, so one scheduler pause cannot set the ratio
            np.dot(e.samples, e.samples)
            deadline = time.perf_counter_ns() + 100_000
            while time.perf_counter_ns() < deadline:
                pass
            return "sham_wake"

        reports = self.bench([100, 200], fixed_cost, epochs)
        scale = reports[1].processing_time_s / reports[0].processing_time_s
        assert scale < 3 * 2  # doubling the batch stays within 3x of doubling time
