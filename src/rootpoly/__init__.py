"""Faces of root polytopes of directed acyclic graphs.

The polytope of a DAG G is the convex hull of the origin together with one
point e_i - e_j per directed edge (i, j).  This package decides, purely
combinatorially, which subgraphs of G cut out faces of that polytope,
emits exact rational supporting-hyperplane certificates for the positive
answers, enumerates full face lattices, and cross-checks everything
against an independent brute-force oracle built on exact linear
programming.
"""

from .certificates import (
    Certificate,
    NotAFaceError,
    q_certificate,
    solve_shift_vector,
    tilde_certificate,
    verify_certificate,
)
from .enumeration import (
    EnumeratedFace,
    KnFaceDatum,
    NotConnectedError,
    NotTransitivelyClosedError,
    enumerate_faces,
    facets_alternating,
    facets_transitively_closed,
    faces_alternating_codim,
    fvector,
    kn_face_data,
    kn_q_faces,
    kn_tilde_faces,
)
from .faces import (
    ConflictObstruction,
    CycleObstruction,
    FaceDescriptor,
    HComp,
    InadmissibleCycleObstruction,
    LoopObstruction,
    WeightFunction,
    build_hcomp,
    is_admissible,
    is_q_face,
    is_tilde_face,
    loopless_partition,
    path_consistency,
    q_dimension_alternating,
    q_obstruction,
    tilde_dimension,
    tilde_obstruction,
)
from .graphs import (
    ComponentStructure,
    Digraph,
    DirectedCycleError,
    DuplicateEdgeError,
    EdgeNotInParentError,
    GraphError,
    NotAlternatingError,
    OverlappingPartsError,
    SelfLoopError,
    Subgraph,
    VertexRangeError,
    alternating_induced,
    bipartition,
    complete_graph,
    induced,
    is_alternating,
    is_transitively_closed,
    load_digraph,
    load_subgraph,
    parse_digraph,
    parse_subgraph,
    undirected_components,
    validate,
)
from .hull import (
    EmptySetError,
    FaceLattice,
    NotASubsetOfVerticesError,
    TooLargeError,
    VertexSet,
    affine_dimension,
    enumerate_faces_bruteforce,
    is_face_bruteforce,
    polytope_vertices,
    supporting_hyperplane,
)

__version__ = "0.1.0"
