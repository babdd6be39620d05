"""Fixtures shared by more than one test module."""

import pytest

from eegloop import gbt


@pytest.fixture
def softmax_calls(monkeypatch):
    """A list that grows by one on each call of ``gbt._softmax``."""
    softmax, calls = gbt._softmax, []

    def counted(margins):
        calls.append(margins.shape)
        return softmax(margins)

    monkeypatch.setattr(gbt, "_softmax", counted)
    return calls
