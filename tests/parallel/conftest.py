"""Shared fixtures for the worker-pool tests."""

import multiprocessing

import pytest

from repro.parallel import workers


@pytest.fixture()
def start_method(request, monkeypatch):
    """Run the test's pools under its class's ``start_method`` (``fork``
    unless the class sets another); skip where the host lacks it."""
    method = getattr(request.cls, "start_method", "fork")
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} unavailable on this host")
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(workers, "pool_context", lambda: context)
    return method
