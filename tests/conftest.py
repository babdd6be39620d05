"""Fixtures shared by more than one test module."""

import math

import pytest

from eegloop import gbt


class VirtualClock:
    """A stand-in for ``SampleClock`` whose time moves only when it is
    slept or spent, the auto-jump idea of ``trio.testing.MockClock``.

    ``run_live`` sleeps it to each deadline; a scripted processor or
    source calls ``spend`` for the time its work would take. So a paced
    run's drops, admission times and ``processing_us`` are exact.
    """

    def __init__(self, acceleration=math.inf):
        self.acceleration = acceleration
        self.t_ns = 0

    def now_ns(self):
        return self.t_ns

    def sleep_until(self, t_ns):
        self.t_ns = max(self.t_ns, t_ns)

    def spend(self, seconds):
        self.t_ns += round(seconds * 1e9)


@pytest.fixture
def softmax_calls(monkeypatch):
    """A list that grows by one on each call of ``gbt._softmax``."""
    softmax, calls = gbt._softmax, []

    def counted(margins):
        calls.append(margins.shape)
        return softmax(margins)

    monkeypatch.setattr(gbt, "_softmax", counted)
    return calls
