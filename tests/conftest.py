"""Fixtures shared by more than one test module."""

import math

import pytest
from hypothesis import settings

from eegloop import gbt

# CI selects this profile with ``--hypothesis-profile=ci``: derandomized
# examples give one verdict per commit, and a failure prints the blob that
# reproduces it. Local runs keep the default profile's random examples.
settings.register_profile("ci", derandomize=True, print_blob=True)


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


# A label index whose row on physical line 5 names an unknown class, after
# lines that are not one row each: blank lines, or a quoted field (of a
# column that nothing reads) spanning two lines.
BAD_CLASS_ON_LINE_5 = {
    "blank_lines": "file,epoch_index,class\n"
                   "sham_wake.edf,0,sham_wake\n\n\n"
                   "sham_wake.edf,1,sham_wak\n",
    "multi_line_field": "file,epoch_index,class,note\n"
                        'sham_wake.edf,0,sham_wake,"two\nlines"\n'
                        "sham_wake.edf,1,sham_wake,\n"
                        "sham_wake.edf,2,sham_wak,\n",
}


@pytest.fixture(params=sorted(BAD_CLASS_ON_LINE_5))
def bad_class_on_line_5(request):
    """The text of a label index whose unknown class is on line 5."""
    return BAD_CLASS_ON_LINE_5[request.param]
