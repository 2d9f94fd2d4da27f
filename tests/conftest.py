"""Shared fixtures."""

import pytest


@pytest.fixture
def cold_ratio(monkeypatch):
    """An empty `qexp` ladder-ratio holder for one test; the process's holder is restored after it."""
    from eiscomp import qexp

    monkeypatch.setattr(qexp, "_RATIO", None)
