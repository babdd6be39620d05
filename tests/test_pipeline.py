"""Epoch assembly, queue accounting, live runs, and batch timing."""

import dataclasses
import json
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VirtualClock
from eegloop.pipeline import (Epoch, EpochQueue, SampleClock, TimingReport, assemble,
                              run_live, samples_per_epoch)


def make_epoch(i=0, length_s=4, rate_hz=16.0, fill=0.0):
    n = int(length_s * rate_hz)
    return Epoch(np.full(n, fill), start_index=i * n, length_s=length_s, rate_hz=rate_hz)


def assert_accounted(queue, log):
    """The queue's conservation identity, and one log entry per consumed epoch."""
    c = queue.counters()
    assert c["produced"] == c["consumed"] + c["dropped"] + c["queued"]
    assert c["consumed"] == len(log)


MS = 1_000_000  # nanoseconds


def paced_clock():
    """A virtual clock with 40 ms between 4 s epochs."""
    return VirtualClock(acceleration=100.0)


def inline_clock():
    return VirtualClock()


def spending(clock, seconds, then=lambda epoch: "sham_wake"):
    """A processor that spends ``seconds`` of ``clock`` on each epoch, then
    returns ``then(epoch)``."""

    def processor(epoch):
        clock.spend(seconds)
        return then(epoch)

    return processor


def slow_then(clock, seconds, then):
    """A processor whose first call spends ``seconds`` of ``clock`` and
    returns a label, and whose later calls return ``then(epoch)``."""
    calls = []

    def processor(epoch):
        calls.append(epoch)
        if len(calls) == 1:
            clock.spend(seconds)
            return "sham_wake"
        return then(epoch)

    return processor


def explode(epoch):
    raise RuntimeError("model exploded")


class AdmissionQueue(EpochQueue):
    """An ``EpochQueue`` that records each offered epoch as ``(epoch
    number, clock time in ms, admitted)``."""

    def __init__(self, clock, capacity):
        super().__init__(capacity)
        self.clock = clock
        self.offers = []

    def enqueue(self, epoch):
        admitted = super().enqueue(epoch)
        self.offers.append((epoch.start_index // epoch.num_samples,
                            self.clock.now_ns() / MS, admitted))
        return admitted

    @property
    def dropped_epochs(self):
        return [i for i, _, admitted in self.offers if not admitted]

    @property
    def admission_ms(self):
        return [t for _, t, admitted in self.offers if admitted]


def encode(log):
    return "\n".join(json.dumps(entry, sort_keys=True) for entry in log)


class TestSampleClock:
    @pytest.mark.parametrize(
        "rate_hz, acceleration",
        [(0.0, 1.0), (math.nan, 1.0), (256.0, 0.5), (256.0, math.nan)],
        ids=["zero_rate", "nan_rate", "slow", "nan_acceleration"],
    )
    def test_invalid_clock_rejected(self, rate_hz, acceleration):
        with pytest.raises(ValueError):
            SampleClock(rate_hz, acceleration)

    def test_loopback_re_exports_the_clock(self):
        from eegloop import loopback
        assert loopback.SampleClock is SampleClock


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

    def test_samples_cannot_be_swapped_after_the_check(self):
        # The length is checked once, when an epoch is built; a new one is checked again.
        epoch = Epoch(np.zeros(1024), 0, 4, 256.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            epoch.samples = epoch.samples[:100]
        with pytest.raises(ValueError, match="samples"):
            dataclasses.replace(epoch, samples=epoch.samples[:100])


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
        clock = inline_clock()
        log, report = run_live(iter(source), spending(clock, 1e-6), clock=clock)
        assert len(log) == 10
        assert {entry["label"] for entry in log} == {"sham_wake"}
        assert [entry["start_index"] for entry in log] == [e.start_index for e in source]
        assert [entry["processing_us"] for entry in log] == [1] * 10
        assert report.num_epochs == 10
        assert report.processing_time_s == 10e-6
        assert report.complete

    def test_collection_time_is_analytic(self):
        source = [make_epoch(i, length_s=64, rate_hz=4.0) for i in range(3)]
        _, report = run_live(iter(source), lambda e: "sham_wake", clock=inline_clock())
        assert report.collection_time_s == 3 * 64

    def test_deterministic_log_is_byte_identical(self):
        runs = []
        for _ in range(2):
            source = [make_epoch(i, fill=float(i % 3)) for i in range(20)]
            clock = inline_clock()
            log, _ = run_live(iter(source),
                              spending(clock, 1e-6, lambda e: "tbi_wake"
                                       if e.samples[0] > 1 else "sham_wake"),
                              clock=clock)
            runs.append(encode(log))
        assert runs[0] == runs[1]

    def test_paced_log_is_byte_identical(self):
        # Epoch i costs 30, 50 or 70 ms against a 40 ms interval, so the
        # queue fills and drains, and processing_us is part of each line.
        def varying(epoch):
            clock.spend(0.03 + 0.02 * epoch.samples[0])
            return "sham_wake"

        runs = []
        for _ in range(2):
            clock = paced_clock()
            q = AdmissionQueue(clock, capacity=2)
            log, report = run_live(
                iter([make_epoch(i, fill=float(i % 3)) for i in range(12)]),
                varying, clock=clock, queue=q)
            assert report.complete
            assert_accounted(q, log)
            runs.append((encode(log), q.offers, clock.now_ns()))
        assert runs[0] == runs[1]
        assert [e["processing_us"] for e in log] == [
            [30_000, 50_000, 70_000][e["start_index"] // 64 % 3] for e in log]

    def test_deterministic_ignores_a_finite_clock(self):
        # Only benchmark/workloads.py still passes deterministic=True.
        clock = VirtualClock(acceleration=1.0)
        log, report = run_live(iter([make_epoch(i) for i in range(3)]),
                               lambda e: "sham_wake", clock=clock, deterministic=True)
        assert len(log) == 3 and report.complete
        assert clock.now_ns() == 0  # never slept

    def test_source_failure_flags_incomplete(self):
        def bad_source():
            yield make_epoch(0)
            yield make_epoch(1)
            raise IOError("sensor unplugged")

        for clock in (inline_clock(), paced_clock()):
            q = EpochQueue(capacity=8)
            log, report = run_live(bad_source(), lambda e: "sham_wake",
                                   clock=clock, queue=q)
            assert not report.complete
            assert report.error == "OSError: sensor unplugged"
            assert len(log) == 2
            assert q.counters() == {"produced": 2, "consumed": 2, "dropped": 0,
                                    "queued": 0}

    @pytest.mark.parametrize("make_clock", [inline_clock, paced_clock],
                             ids=["inline", "paced"])
    def test_processor_failure_ends_run_with_partial_log(self, make_clock):
        # Paced, epoch 0 is classified in the 40 ms before epoch 1 is due,
        # and epoch 1 fails before epoch 2 is admitted: as inline.
        def failing(epoch):
            if epoch.start_index > 0:
                raise RuntimeError("model exploded")
            return "sham_wake"

        source = [make_epoch(i) for i in range(10)]
        q = EpochQueue(capacity=8)
        clock = make_clock()
        log, report = run_live(iter(source), spending(clock, 1e-6, failing),
                               clock=clock, queue=q)
        assert not report.complete
        assert report.error == "RuntimeError: model exploded"
        assert [entry["label"] for entry in log] == ["sham_wake", None]
        assert log[-1]["processing_us"] == 1
        assert_accounted(q, log)
        assert q.counters() == {"produced": 2, "consumed": 2, "dropped": 0, "queued": 0}

    def test_paced_processor_failure_accounts_for_queued_epochs(self):
        # Epoch 0, admitted at 40 ms, is classified for 420 ms: epochs 1-4,
        # each past its deadline, fill the queue at 460 ms, and epochs 5-10
        # are dropped. Epoch 11 is due at 480 ms, so epoch 1 is classified
        # first; it fails, with the queue still holding 2-4.
        clock = paced_clock()
        q = AdmissionQueue(clock, capacity=4)
        source = [make_epoch(i) for i in range(20)]
        log, report = run_live(iter(source), slow_then(clock, 0.42, explode),
                               clock=clock, queue=q)
        assert report.error == "RuntimeError: model exploded"
        assert [entry["label"] for entry in log] == ["sham_wake", None]
        assert q.counters() == {"produced": 11, "consumed": 2, "dropped": 6, "queued": 3}
        assert q.dropped_epochs == [5, 6, 7, 8, 9, 10]
        assert q.admission_ms == [40, 460, 460, 460, 460]
        assert report.num_epochs == 11
        assert_accounted(q, log)

    def test_paced_processor_error_wins_over_source_error(self):
        # Epoch 0 is classified for 0.1 s, past the deadlines of epochs 1
        # and 2, which queue. The source then fails, the queued epochs are
        # classified, and epoch 1 fails: that error wins, and epoch 2 stays.
        def bad_source():
            yield from (make_epoch(i) for i in range(3))
            raise IOError("sensor unplugged")

        clock = paced_clock()
        q = AdmissionQueue(clock, capacity=8)
        log, report = run_live(bad_source(), slow_then(clock, 0.1, explode),
                               clock=clock, queue=q)
        assert report.error == "RuntimeError: model exploded"
        assert [entry["label"] for entry in log] == ["sham_wake", None]
        assert q.counters() == {"produced": 3, "consumed": 2, "dropped": 0, "queued": 1}
        assert q.admission_ms == [40, 140, 140]
        assert_accounted(q, log)

    def test_paced_slow_consumer_drops_its_overflow(self):
        # 100 ms per epoch is 2.5 intervals of 40 ms, and the queue holds
        # two: epochs 4, 5, 7 and 9 are due while it is full.
        clock = paced_clock()
        q = AdmissionQueue(clock, capacity=2)
        log, report = run_live(iter([make_epoch(i) for i in range(10)]),
                               spending(clock, 0.1), clock=clock, queue=q)
        assert report.complete
        assert q.produced == 10
        assert q.dropped_epochs == [4, 5, 7, 9]
        assert q.admission_ms == [40, 140, 140, 240, 340, 440]
        assert [entry["start_index"] // 64 for entry in log] == [0, 1, 2, 3, 6, 8]
        assert {entry["processing_us"] for entry in log} == {100_000}
        assert clock.now_ns() == 640 * MS
        assert_accounted(q, log)

    def test_paced_admissions_keep_absolute_deadlines(self):
        # 20 epochs at a 10 ms interval, each costing 5 ms to read: each is
        # admitted at its deadline, not 5 ms after it.
        clock = VirtualClock(acceleration=400.0)

        def slow_source():
            for i in range(20):
                clock.spend(0.005)
                yield make_epoch(i)

        q = AdmissionQueue(clock, capacity=8)
        log, report = run_live(slow_source(), lambda e: "sham_wake", clock=clock, queue=q)
        assert len(log) == 20 and report.complete
        assert q.admission_ms == [10 * (i + 1) for i in range(20)]

    @pytest.mark.parametrize("make_clock", [inline_clock, paced_clock],
                             ids=["inline", "paced"])
    def test_processor_interrupt_ends_run_with_partial_log(self, make_clock):
        def interrupt(epoch):
            raise KeyboardInterrupt

        q = EpochQueue(capacity=8)
        clock = make_clock()
        log, report = run_live(iter([make_epoch(i) for i in range(5)]),
                               slow_then(clock, 0, interrupt), clock=clock, queue=q)
        assert report.error == "KeyboardInterrupt"
        assert [entry["label"] for entry in log] == ["sham_wake", None]
        assert_accounted(q, log)

    @pytest.mark.parametrize("make_clock", [inline_clock, paced_clock],
                             ids=["inline", "paced"])
    def test_source_interrupt_ends_run_after_the_queued_epochs(self, make_clock):
        def interrupted_source():
            yield from (make_epoch(i) for i in range(2))
            raise KeyboardInterrupt

        q = EpochQueue(capacity=8)
        log, report = run_live(interrupted_source(), lambda e: "sham_wake",
                               clock=make_clock(), queue=q)
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
        clock = VirtualClock(acceleration=4000.0)
        q = AdmissionQueue(clock, capacity=8)
        log, report = run_live(iter([make_epoch(i) for i in range(5)]),
                               lambda e: "sham_wake", clock=clock, queue=q)
        assert len(log) == 5
        assert q.counters()["dropped"] == 0
        assert q.admission_ms == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("acceleration", [math.inf, 100.0], ids=["inline", "paced"])
    def test_reads_no_time_but_its_clock(self, monkeypatch, acceleration):
        def no_time(*args):
            raise AssertionError("run_live read the time outside its clock")

        for name in ("monotonic", "monotonic_ns", "perf_counter_ns", "sleep"):
            monkeypatch.setattr(time, name, no_time)
        clock = VirtualClock(acceleration)
        q = EpochQueue(capacity=8)
        log, report = run_live(iter([make_epoch(i) for i in range(5)]),
                               spending(clock, 0.01), clock=clock, queue=q)
        assert report.complete
        assert log == [{"epoch_index": i, "start_index": 64 * i, "label": "sham_wake",
                        "processing_us": 10_000} for i in range(5)]
        assert q.counters() == {"produced": 5, "consumed": 5, "dropped": 0, "queued": 0}
        assert clock.now_ns() == (50 if acceleration == math.inf else 210) * MS

    def test_paced_producer_keeps_absolute_deadlines(self):
        # 20 epochs at a 10 ms interval, each costing ~5 ms to read: relative
        # sleeps would take 20 * 15 ms = 300 ms.
        def slow_source():
            for i in range(20):
                time.sleep(0.005)
                yield make_epoch(i)

        start = time.monotonic()
        log, report = run_live(slow_source(), lambda e: "sham_wake",
                               clock=SampleClock(acceleration=400.0))
        elapsed = time.monotonic() - start
        assert len(log) == 20 and report.complete
        assert 0.2 <= elapsed < 0.27

    def test_paced_processor_failure_stops_producer_promptly(self):
        # Eight 4 s epochs at 16x: one 0.25 s interval each, 2 s in all.
        # Epoch 0 is admitted at 0.25 s and fails then, and the run stops
        # without waiting for epoch 1's deadline.
        def failing(epoch):
            raise RuntimeError("model exploded")

        source = [make_epoch(i) for i in range(8)]
        q = EpochQueue(capacity=8)
        clock = VirtualClock(acceleration=16.0)
        log, report = run_live(iter(source), failing, clock=clock, queue=q)
        assert clock.now_ns() == 250 * MS
        assert report.error == "RuntimeError: model exploded"
        assert log[-1]["label"] is None
        assert q.counters() == {"produced": 1, "consumed": 1, "dropped": 0, "queued": 0}
        assert_accounted(q, log)

    def test_timing_report_ratio(self):
        report = TimingReport(num_epochs=1, collection_time_s=64.0,
                              processing_time_s=0.02)
        assert report.ratio_percent == pytest.approx(100 * 0.02 / 64.0)


class TestBench:
    """Batch timing as `eegloop bench` does it: one run per size at an
    infinite real clock, which classifies on the calling thread."""

    @staticmethod
    def bench(batch_sizes, processor, epochs):
        clock = SampleClock(acceleration=math.inf)
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
