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


def _canonical(face):
    return face.dim, face.descriptor.contains_origin, face.descriptor.subgraph.indices


def faces_in_mask_range(g, include_empty=False, start=0, stop=None):
    """The reference sweep: every spanning subgraph whose mask lies in [start, stop), one analysis each.

    With r undirected components of H, the origin-containing face has
    dimension n - r and the origin-free one n - r - 1.  Returns the faces
    found, sorted canonically as ``enumerate_faces`` sorts them.
    """
    from rootpoly.enumeration import EnumeratedFace
    from rootpoly.faces import FaceDescriptor, build_hcomp
    from rootpoly.graphs import Subgraph

    m = len(g.edges)
    out = []
    for mask in range(start, 1 << m if stop is None else stop):
        h = Subgraph(g, frozenset(i for i in range(m) if mask >> i & 1))
        hc = build_hcomp(g, h)
        dim = g.n - hc.vertex_count
        if hc.is_tilde_face():
            out.append(EnumeratedFace(FaceDescriptor(h, True), dim))
        if (mask or include_empty) and hc.is_q_face():
            out.append(EnumeratedFace(FaceDescriptor(h, False), dim - 1))
    out.sort(key=_canonical)
    return out


@pytest.fixture
def sweep():
    """The 2^m subgraph sweep, kept as the reference oracle for ``enumerate_faces``."""
    return faces_in_mask_range
