import pytest

from rootpoly import complete_graph, validate
from rootpoly.hull import FaceLattice, _face_lp, affine_dimension, polytope_vertices


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


def lp_lattice(g):
    """The face lattice by one exact separation LP per vertex subset: the reference for the facet route.

    Each face's dimension comes from the nullspace its test builds; only the
    whole polytope's is computed apart, once.
    """
    points = polytope_vertices(g)
    k = len(points)
    faces = {frozenset(): -1}
    for mask in range(1, (1 << k) - 1):
        included = frozenset(i for i in range(k) if mask >> i & 1)
        ok, dim = _face_lp(points, included, want_witness=False)
        if ok:
            faces[included] = dim
    faces[frozenset(range(k))] = affine_dimension(points)
    return FaceLattice(points, faces)


@pytest.fixture
def lp_reference():
    """The per-subset LP lattice, kept as the reference for ``enumerate_faces_bruteforce``."""
    return lp_lattice


def _canonical(face):
    return face.dim, face.contains_origin, face.subgraph.indices


def faces_in_mask_range(g, include_empty=False, start=0, stop=None):
    """The reference sweep: every spanning subgraph whose mask lies in [start, stop), one analysis each.

    With r undirected components of H, the origin-containing face has
    dimension n - r and the origin-free one n - r - 1.  Returns the faces
    found, sorted canonically as ``enumerate_faces`` sorts them.
    """
    from rootpoly.enumeration import EnumeratedFace
    from rootpoly.faces import build_hcomp
    from rootpoly.graphs import Subgraph

    m = len(g.edges)
    out = []
    for mask in range(start, 1 << m if stop is None else stop):
        h = Subgraph(g, frozenset(i for i in range(m) if mask >> i & 1))
        hc = build_hcomp(g, h)
        dim = g.n - hc.vertex_count
        if hc.is_tilde_face():
            out.append(EnumeratedFace(h, True, dim))
        if (mask or include_empty) and hc.is_q_face():
            out.append(EnumeratedFace(h, False, dim - 1))
    out.sort(key=_canonical)
    return out


@pytest.fixture
def sweep():
    """The 2^m subgraph sweep, kept as the reference oracle for ``enumerate_faces``."""
    return faces_in_mask_range


def edge_list_text(n, edges):
    """Canonical edge-list text with the edges in the given order."""
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def mutate_edge_list(text, rng, count):
    """Apply ``count`` random edits to an edge-list text written one row per line.

    The edits are the ways a hand-written or damaged file differs from
    canonical text: swapped, dropped and doubled tokens; signs, leading
    zeros and ``1_0``; ``\\r\\n`` line ends, tabs, blank lines and a missing
    last newline; the non-ASCII digit ``\\u0663``; a 5,000-digit token; a
    wrong edge count; and the vertices 0 and n + 1.
    """
    rows = [line.split() for line in text.splitlines()]
    n, m = int(rows[0][0]), int(rows[0][1])
    parts = [[token, sep] for row in rows for token, sep in zip(row, (" ", "\n"))]
    for _ in range(count):
        i = rng.randrange(len(parts))
        token, sep = parts[i]
        edit = rng.choice(("swap", "drop", "double", "sign", "zero", "underscore", "crlf", "tab", "blank",
                           "unterminated", "arabic", "long", "count", "vertex"))
        if edit == "swap":
            j = rng.randrange(len(parts))
            parts[i][0], parts[j][0] = parts[j][0], token
        elif edit == "drop" and len(parts) > 1:
            del parts[i]
        elif edit == "double":
            parts.insert(i, [token, " "])
        elif edit == "sign":
            parts[i][0] = rng.choice("+-") + token
        elif edit == "zero":
            parts[i][0] = "0" + token
        elif edit == "underscore":
            parts[i][0] = token[0] + "_" + token[1:] if len(token) > 1 else "1_0"
        elif edit == "crlf":
            for part in parts:
                part[1] = part[1].replace("\n", "\r\n")
        elif edit == "tab":
            parts[i][1] = sep.replace(" ", "\t")
        elif edit == "blank":
            parts[i][1] = sep + rng.choice(("\n", " \n", "\t\n"))
        elif edit == "unterminated":
            parts[-1][1] = ""
        elif edit == "arabic":
            parts[i][0] = "\u0663"
        elif edit == "long":
            parts[i][0] = "9" * 5000
        elif edit == "count" and len(parts) > 1:
            parts[1][0] = str(m + rng.choice((-1, 1)))
        elif edit == "vertex":
            parts[i][0] = rng.choice(("0", str(n + 1)))
    return "".join(token + sep for token, sep in parts)
