import pytest

from rootpoly import complete_graph, validate


@pytest.fixture
def k3():
    return complete_graph(3)


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def square_graph():
    # Q of this graph is a square; the full polytope is a square pyramid.
    return validate(4, [(1, 3), (1, 4), (2, 3), (2, 4)])


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its process count and maps in-process."""

    sizes: list = []

    def __init__(self, processes):
        RecordingPool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        return map(fn, items)

    imap_unordered = imap


@pytest.fixture
def recording_pool(monkeypatch):
    """RecordingPool with os.cpu_count() reporting 2 CPUs; yields the list of pool sizes."""
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    return RecordingPool
