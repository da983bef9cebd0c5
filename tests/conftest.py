"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak_mib():
    """A function that runs `fn(*args)` under `tracemalloc` and returns its peak in MiB.

    numpy reports its array buffers to `tracemalloc`, so the peak counts
    every array the call allocates, and unlike a process-wide RSS reading
    it does not depend on what earlier tests left in the allocator.
    """

    def measure(fn, *args) -> float:
        tracing = tracemalloc.is_tracing()
        if tracing:
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        return (peak - before) / 2**20

    return measure
