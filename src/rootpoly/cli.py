"""Command-line interface.

Commands: check, cert, enumerate, kn, fvector, verify.  Graphs are read
from edge-list files ("n m" header, then one "u v" line per edge).  Exit
codes: 0 for a positive answer / clean run, 1 for a negative answer or any
cross-check disagreement, 2 for input errors, unreadable files included.
A reader closing the pipe early silences the rest, not the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import crosscheck
from .certificates import NotAFaceError, certify, verify_certificate
from .enumeration import count_by_dimension, enumerate_faces, fvector, kn_face_counts, kn_q_faces, kn_tilde_faces
from .faces import (
    ConflictObstruction,
    CycleObstruction,
    InadmissibleCycleObstruction,
    LoopObstruction,
    build_hcomp,
)
from .graphs import GraphError, load_digraph, load_subgraph
from .hull import BRUTE_FORCE_CAP, TooLargeError


class InputError(Exception):
    pass


def _diagnostic_dict(obs) -> dict:
    if isinstance(obs, LoopObstruction):
        return {"kind": "loop", "edge": list(obs.edge)}
    if isinstance(obs, CycleObstruction):
        return {"kind": "cycle", "edges": [list(e) for e in obs.edges]}
    if isinstance(obs, ConflictObstruction):
        return {
            "kind": "path-conflict",
            "vertex": obs.vertex,
            "weights": [obs.existing, obs.implied],
            "edge": list(obs.edge),
        }
    if isinstance(obs, InadmissibleCycleObstruction):
        return {
            "kind": "inadmissible-cycle",
            "edges": [list(e) for e in obs.edges],
            "wd_total": obs.total,
            "length": obs.length,
        }
    raise TypeError(f"unknown diagnostic {obs!r}")


def _query_result(args) -> dict:
    g = load_digraph(args.graph)
    h = load_subgraph(args.subgraph, g)
    hc = build_hcomp(g, h)
    if args.with_origin:
        obs = hc.tilde_obstruction()
        kind = "face-with-origin"
    else:
        obs = hc.q_obstruction()
        kind = "face-without-origin"
    result: dict = {"query": kind, "face": obs is None}
    if obs is None:
        cert = certify(hc, args.with_origin)
        if not verify_certificate(g, h, cert, args.with_origin):
            raise RuntimeError("emitted certificate failed verification")
        result["certificate"] = cert.to_json_dict()
    else:
        result["diagnostic"] = _diagnostic_dict(obs)
    return result


def _print_doc(doc: dict, as_json: bool, text_lines: list[str]) -> None:
    """Write a command's output; a reader that closes the pipe early gets the rest discarded."""
    try:
        if as_json:
            print(json.dumps(doc, indent=2))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_check(args) -> int:
    result = _query_result(args)
    if result["face"]:
        lines = [f"{result['query']}: face", f"certificate: {json.dumps(result['certificate'])}"]
    else:
        lines = [f"{result['query']}: not a face", f"diagnostic: {json.dumps(result['diagnostic'])}"]
    _print_doc(result, args.json, lines)
    return 0 if result["face"] else 1


def _cmd_cert(args) -> int:
    result = _query_result(args)
    doc = result["certificate"] if result["face"] else {"diagnostic": result["diagnostic"]}
    _print_doc(doc, True, [])
    return 0 if result["face"] else 1


def _face_json(face) -> dict:
    return {
        "edges": [list(e) for e in face.descriptor.subgraph.edges],
        "origin": face.descriptor.contains_origin,
        "dim": face.dim,
    }


def _cmd_enumerate(args) -> int:
    g = load_digraph(args.graph)
    trivial = args.include_trivial_faces
    faces = enumerate_faces(g, args.max_edges, trivial)
    doc = {
        "faces": [_face_json(f) for f in faces],
        "fvector": {str(d): c for d, c in count_by_dimension(faces, trivial).items()},
    }
    lines = [f"{len(faces)} faces (improper included)"]
    lines += [f"  dim {f['dim']}: edges {f['edges']} origin={str(f['origin']).lower()}" for f in doc["faces"]]
    lines.append("f-vector " + json.dumps(doc["fvector"]))
    _print_doc(doc, args.json, lines)
    return 0


def _cmd_kn(args) -> int:
    n = args.n
    if n < 1:
        raise InputError("n must be positive")
    if n > 14:
        raise InputError("n above 14 generates too many faces to list")
    if n > 10 and not args.fvector:
        # A listing is built whole before it prints: kn 11 --json peaked near 1 GB.
        raise InputError("listings stop at n = 10; kn N --fvector counts the faces up to n = 14")
    doc: dict = {"n": n}
    lines: list[str] = []
    empty = args.include_trivial_faces and not args.tilde_only  # the empty face: listed and counted alike
    if args.fvector:
        counts = Counter()
        if not args.q_only:
            counts += kn_face_counts(n, True)
            if not args.include_trivial_faces:
                counts -= Counter({n - 1: 1})  # the improper face: always listed, counted only on request
        if not args.tilde_only:
            counts += kn_face_counts(n, False)
        if empty:
            counts[-1] += 1
        doc["fvector"] = {str(d): c for d, c in sorted(counts.items())}
        lines.append("f-vector " + json.dumps(doc["fvector"]))
    else:
        out = []
        if not args.q_only:
            out += [{"edges": [list(e) for e in h.edges], "origin": True} for h in kn_tilde_faces(n)]
        if not args.tilde_only:
            if empty:
                out.append({"edges": [], "origin": False})
            out += [{"edges": [list(e) for e in h.edges], "origin": False} for h in kn_q_faces(n)]
        doc["faces"] = out
        lines.append(f"{len(out)} generated faces")
        lines += [f"  origin={str(f['origin']).lower()} edges {f['edges']}" for f in out]
    _print_doc(doc, args.json, lines)
    return 0


def _cmd_fvector(args) -> int:
    g = load_digraph(args.graph)
    counts = fvector(g, args.include_trivial_faces, args.max_edges)
    doc = {"fvector": {str(d): c for d, c in counts.items()}}
    _print_doc(doc, args.json, ["f-vector " + json.dumps(doc["fvector"])])
    return 0


def _cmd_verify(args) -> int:
    if (args.graph is None) == (args.random is None):
        raise InputError("provide a graph file or --random N, not both")
    if args.random is not None:
        if args.random < 1:
            raise InputError("--random needs at least 1 vertex")
        if args.count < 1:
            raise InputError("--count must be at least 1")
        if args.max_edges < 0:
            raise InputError("--max-edges must be nonnegative")
        graphs = crosscheck.random_dags(args.seed, args.random, args.count, args.max_edges)
        source = f"random n={args.random} count={args.count} max-edges={args.max_edges} seed={args.seed}"
    else:
        g = load_digraph(args.graph)
        if len(g.edges) + 1 > BRUTE_FORCE_CAP:
            raise InputError(f"graph too large for the brute-force oracle (more than {BRUTE_FORCE_CAP - 1} edges)")
        graphs = [g]
        source = f"graph {args.graph}"
    report = crosscheck.check_graphs(graphs, jobs=args.jobs)
    doc = {
        "source": source,
        "graphs": report.graphs,
        "checks": report.checks,
        "certificates": report.certificates,
        "disagreements": [
            {
                "n": d.n,
                "graph": [list(e) for e in d.graph_edges],
                "subgraph": [list(e) for e in d.subgraph_edges],
                "origin": d.contains_origin,
                "combinatorial": d.combinatorial,
                "bruteforce": d.bruteforce,
            }
            for d in report.disagreements + report.certificate_failures
        ],
    }
    lines = [
        source,
        f"{report.checks} checks, {len(report.disagreements)} disagreements",
        f"{report.certificates} certificates verified, {len(report.certificate_failures)} failures",
    ]
    _print_doc(doc, args.json, lines)
    return 0 if report.ok else 1


def _add_pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="edge-list file of the ambient graph")
    p.add_argument("subgraph", help="edge-list file of the subgraph (subset of the parent's edges)")
    origin = p.add_mutually_exclusive_group(required=True)
    origin.add_argument("--with-origin", dest="with_origin", action="store_true",
                        help="ask about the face containing the origin")
    origin.add_argument("--without-origin", dest="with_origin", action="store_false",
                        help="ask about the face avoiding the origin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rootpoly",
                                     description="Face oracle and enumerator for root polytopes of DAGs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether a subgraph defines a face")
    _add_pair_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("cert", help="emit the supporting-hyperplane certificate")
    _add_pair_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cert)

    p = sub.add_parser("enumerate", help="enumerate all faces of a graph's polytope")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-edges", type=int, default=20)
    p.add_argument("--include-trivial-faces", action="store_true",
                   help="also report the empty face and count the improper face")
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored: the enumeration is sequential")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("kn", help="generate faces of the complete graph's polytope directly")
    p.add_argument("n", type=int)
    p.add_argument("--fvector", action="store_true", help="print counts by dimension instead of faces")
    p.add_argument("--json", action="store_true")
    p.add_argument("--include-trivial-faces", action="store_true")
    only = p.add_mutually_exclusive_group()
    only.add_argument("--tilde-only", action="store_true", help="origin-containing faces only")
    only.add_argument("--q-only", action="store_true", help="origin-free faces only")
    p.set_defaults(func=_cmd_kn)

    p = sub.add_parser("fvector", help="f-vector of a graph's polytope, counted from its enumerated faces")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-edges", type=int, default=20)
    p.add_argument("--include-trivial-faces", action="store_true")
    p.set_defaults(func=_cmd_fvector)

    p = sub.add_parser("verify", help="cross-check the oracle against brute force")
    p.add_argument("graph", nargs="?", help="edge-list file; exhaustive over its subgraphs")
    p.add_argument("--random", type=int, metavar="N", help="check random DAGs on N vertices instead")
    p.add_argument("--count", type=int, default=100, help="number of random graphs")
    p.add_argument("--max-edges", type=int, default=10, help="edge cap for random graphs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, GraphError, InputError, TooLargeError, NotAFaceError, crosscheck.UnreachableCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
