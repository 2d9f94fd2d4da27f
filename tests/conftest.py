"""Shared fixtures."""

import pytest


@pytest.fixture
def cold_bases(monkeypatch):
    """An empty `qexp` basis cache for one test; the process's cache is restored after it.

    Returns the test's cache dict itself: `miller_basis` evicts in place, so the
    dict stays the one in use, and `cold_bases.clear()` makes the next call cold.
    """
    from eiscomp import qexp

    cache = {}
    monkeypatch.setattr(qexp, "_BASIS_CACHE", cache)
    return cache
