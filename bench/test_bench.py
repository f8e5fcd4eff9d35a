"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import importlib
import json
import random
import sys
from fractions import Fraction

import pytest

import run  # puts bench/ and src/ on sys.path
import corpus as corpora
import reference
from tracing import TRACED, Tracer

cli = importlib.import_module("rootpoly.cli")


def small_corpus(workload: str, n: int = 4) -> corpora.Corpus:
    g = corpora.complete_graph(n)
    argv = {"sweep": ("enumerate", "{dir}/g0.txt", "--json", "--jobs", "1"),
            "crosscheck": ("verify", "{dir}/g0.txt", "--json", "--jobs", "1")}[workload]
    return corpora.Corpus(workload, (g,), (), (corpora.Op(argv, "kn", 0),))


def run_once(c: corpora.Corpus, directory, tracer=None) -> list[run.Result]:
    """One pass over the corpus, checked."""
    corpora.write_corpus(c, directory)
    results = run.run_pass(c, directory, tracer)
    run.check(c, results, random.Random(0))
    return results


@pytest.mark.parametrize("workload", sorted(corpora.CORPORA))
def test_same_seed_gives_identical_files(workload, tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        corpora.write_corpus(corpora.CORPORA[workload](seed), tmp_path / name)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes() for f in files)


@pytest.fixture(scope="module")
def queries(tmp_path_factory):
    directory = tmp_path_factory.mktemp("query")
    c = corpora.query_corpus(3)
    corpora.write_corpus(c, directory)
    return c, directory


def test_every_query_answer_passes_the_reference(queries):
    c, directory = queries
    results = run_once(c, directory)
    assert [r.errors for r in results] == [[]] * len(c.ops)
    assert {c.queries[c.ops[r.op_index].query].is_face for r in results} == {True, False}
    kinds = {q.kind for q in c.queries if not q.is_face}
    assert kinds == {"loop", "cycle", "path-conflict", "inadmissible-cycle"}


def first_face(c: corpora.Corpus, with_origin: bool) -> corpora.Op:
    return next(op for op in c.ops if c.queries[op.query].is_face and c.queries[op.query].with_origin == with_origin)


@pytest.mark.parametrize("with_origin", (True, False))
def test_reference_rejects_wrong_verdicts_and_certificates(queries, capsys, with_origin):
    c, directory = queries
    op = first_face(c, with_origin)
    capsys.readouterr()
    code = cli.main([a.replace("{dir}", str(directory)) for a in op.argv])
    out = capsys.readouterr().out
    assert reference.check_errors(c, op, code, out) == []

    doc = json.loads(out)
    assert reference.check_errors(c, op, 1, out)  # wrong exit code
    wrong = dict(doc, face=False, diagnostic={"kind": "loop", "edge": [1, 2]})
    del wrong["certificate"]
    assert reference.check_errors(c, op, 1, json.dumps(wrong))

    cert = doc["certificate"]
    q = c.queries[op.query]
    g = c.graphs[q.graph]
    u, v = q.edges[0]
    bumped = list(cert["c"])
    bumped[u - 1] = str(Fraction(bumped[u - 1]) + 1)
    for corrupt in (dict(cert, c=bumped), dict(cert, c0="5"), dict(cert, c=cert["c"][:-1])):
        assert reference.certificate_errors(g, q.edges, q.with_origin, corrupt)
        assert reference.check_errors(c, op, code, json.dumps(dict(doc, certificate=corrupt)))
    # The certificate of the face does not certify a smaller subgraph.
    assert reference.certificate_errors(g, q.edges[1:], q.with_origin, cert)


def test_reference_rejects_a_planted_non_face_answer(queries, capsys):
    c, directory = queries
    op = next(op for op in c.ops if not c.queries[op.query].is_face)
    capsys.readouterr()
    code = cli.main([a.replace("{dir}", str(directory)) for a in op.argv])
    doc = json.loads(capsys.readouterr().out)
    assert reference.check_errors(c, op, code, json.dumps(doc)) == []
    other = "cycle" if doc["diagnostic"]["kind"] == "loop" else "loop"
    assert reference.check_errors(c, op, code, json.dumps(dict(doc, diagnostic={"kind": other})))
    planted = {"query": doc["query"], "face": True, "certificate": {"c": ["0"] * c.graphs[op.graph].n, "c0": "0"}}
    assert reference.check_errors(c, op, 0, json.dumps(planted))


def test_reference_rejects_wrong_face_listings(tmp_path, capsys):
    c = small_corpus("sweep")
    corpora.write_corpus(c, tmp_path)
    op = c.ops[0]
    capsys.readouterr()
    code = cli.main([a.replace("{dir}", str(tmp_path)) for a in op.argv])
    doc = json.loads(capsys.readouterr().out)
    errors, faces = reference.enumerate_errors(c, op, code, json.dumps(doc), random.Random(1))
    assert errors == [] and faces == len(doc["faces"])

    # A face relabelled as a non-face: the listing then omits a face and
    # claims a non-face, and the hull sample finds one or the other.
    def planted(seed):
        broken = json.loads(json.dumps(doc))
        face = broken["faces"][seed % len(broken["faces"])]
        face["origin"] = not face["origin"]
        return json.dumps(broken)

    found = 0
    for seed in range(20):
        errors, _ = reference.enumerate_errors(c, op, code, planted(seed), random.Random(seed))
        found += bool(errors)
    assert found >= 10
    dropped = dict(doc, faces=doc["faces"][1:])
    assert reference.enumerate_errors(c, op, code, json.dumps(dropped), random.Random(0))[0]


def test_reference_rejects_a_disagreeing_cross_check(tmp_path, capsys):
    c = small_corpus("crosscheck", 3)
    corpora.write_corpus(c, tmp_path)
    op = c.ops[0]
    capsys.readouterr()
    code = cli.main([a.replace("{dir}", str(tmp_path)) for a in op.argv])
    doc = json.loads(capsys.readouterr().out)
    assert reference.verify_errors(c, op, code, json.dumps(doc)) == ([], 16)
    assert reference.verify_errors(c, op, code, json.dumps(dict(doc, checks=8)))[0]
    bad = dict(doc, disagreements=[{"n": 3}])
    assert reference.verify_errors(c, op, 1, json.dumps(bad))[0]


def test_affine_rank():
    assert reference.affine_rank([(0, 0, 0)]) == 0
    assert reference.affine_rank([(0, 0), (1, -1), (2, -2)]) == 1
    assert reference.affine_rank([(0, 0, 0), (1, -1, 0), (0, 1, -1), (1, 0, -1)]) == 2


def package_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "rootpoly" or name.startswith("rootpoly.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_traced_run_restores_every_attribute(tmp_path):
    before = package_bindings()
    tracer = Tracer()
    with tracer:
        assert package_bindings() != before
        (result,) = run_once(small_corpus("sweep"), tmp_path, tracer=tracer)
    assert package_bindings() == before
    assert result.errors == []
    assert tracer.count("cli.main") == 1 and tracer.count("enumeration.enumerate_faces") == 1

    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("interrupted run")
    assert package_bindings() == before


def test_every_traced_name_is_wrapped_where_it_is_bound(tmp_path):
    tracer = Tracer()
    with tracer:
        for qualified in TRACED:
            module, func = qualified.rsplit(".", 1)
            assert getattr(sys.modules[f"rootpoly.{module}"], func).__wrapped__ is not None
        assert sys.modules["rootpoly.hull"].simplex_maximize is sys.modules["rootpoly.linprog"].simplex_maximize
        assert sys.modules["rootpoly.cli"].load_digraph is sys.modules["rootpoly.graphs"].load_digraph


def test_spans_nest_and_self_times_add_up(tmp_path):
    tracer = Tracer()
    with tracer:
        (result,) = run_once(small_corpus("crosscheck", 3), tmp_path, tracer=tracer)
    assert result.errors == []
    spans = tracer.spans
    count = len(spans["name"])
    assert count == sum(tracer.calls) > 0
    assert all(spans["start"][i] <= spans["end"][i] for i in range(count))
    for i in range(count):
        p = spans["parent"][i]
        assert p < i and (p < 0 or spans["start"][p] <= spans["start"][i] <= spans["end"][i] <= spans["end"][p])
    roots = [i for i in range(count) if spans["parent"][i] < 0]
    assert [TRACED[spans["name"][i]] for i in roots] == ["cli.main"]
    assert sum(tracer.self_s) == pytest.approx(tracer.root_s, rel=1e-9)
    assert tracer.root_s <= result.seconds
    # The hull oracle runs inside the cross-check, and the sample checks of
    # the sweep reference run outside any operation, leaving no spans.
    assert tracer.count("linprog.simplex_maximize") > 0
    sweep = small_corpus("sweep")
    sweep_tracer = Tracer()
    with sweep_tracer:
        assert run_once(sweep, tmp_path, tracer=sweep_tracer)[0].errors == []
    assert sweep_tracer.count("linprog.simplex_maximize") == 0
    assert run.kn_calls(sweep_tracer, sweep) == 0


def test_write_spans(tmp_path):
    tracer = Tracer()
    with tracer:
        run_once(small_corpus("sweep", 3), tmp_path / "in", tracer=tracer)
    tracer.write(tmp_path / "trace")
    index = json.loads((tmp_path / "trace.json").read_text())
    size = sum(width for _, _, width in index["fields"])
    assert index["count"] == len(tracer.spans["name"])
    assert (tmp_path / "trace.spans").stat().st_size == size * index["count"]
