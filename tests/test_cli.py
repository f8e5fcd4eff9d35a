import json
import random
import subprocess
import sys
import time
from collections import Counter

import pytest
from conftest import edge_list_text, mutate_edge_list

from rootpoly.cli import main
from rootpoly.crosscheck import random_dag
from rootpoly.graphs import validate

K3 = "3 3\n1 2\n1 3\n2 3\n"
SQUARE = "4 4\n1 3\n1 4\n2 3\n2 4\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "k3": K3,
        "k3full": K3,
        "h12": "3 1\n1 2\n",
        "square": SQUARE,
        "diag": "4 2\n1 3\n2 4\n",
        "edgeless": "3 0\n",
        "k4": "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n",
        "cyclic": "2 2\n1 2\n2 1\n",
        "notsub": "3 1\n2 1\n",
    }.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_path_conflict(self, files, capsys):
        code, out, _ = run(capsys, "check", files["k3"], files["k3full"], "--without-origin", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["face"] is False
        assert doc["diagnostic"]["kind"] == "path-conflict"
        assert doc["diagnostic"]["vertex"] == 3

    def test_inadmissible_cycle(self, files, capsys):
        code, out, _ = run(capsys, "check", files["square"], files["diag"], "--without-origin", "--json")
        assert code == 1
        diag = json.loads(out)["diagnostic"]
        assert diag["kind"] == "inadmissible-cycle"
        assert diag["wd_total"] == -2 and diag["length"] == 2
        assert sorted(map(tuple, diag["edges"])) == [(1, 4), (2, 3)]

    def test_loop_at_edge_index_zero(self, tmp_path, capsys):
        # The loop is G's edge 0, which a truthiness test on the loop's index would miss.
        (tmp_path / "g.txt").write_text("3 3\n1 3\n1 2\n2 3\n")
        (tmp_path / "h.txt").write_text("3 2\n1 2\n2 3\n")
        code, out, _ = run(capsys, "check", str(tmp_path / "g.txt"), str(tmp_path / "h.txt"), "--with-origin", "--json")
        assert code == 1
        assert json.loads(out)["diagnostic"] == {"kind": "loop", "edge": [1, 3]}

    def test_positive_with_certificate(self, files, capsys):
        code, out, _ = run(capsys, "check", files["k3"], files["h12"], "--with-origin", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["face"] is True
        assert doc["certificate"] == {"c": ["2", "2", "1"], "c0": "0"}

    def test_empty_subgraph_without_origin_is_the_empty_face(self, files, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("3 0\n")
        code, out, _ = run(capsys, "check", files["k3"], str(empty), "--without-origin", "--json")
        assert code == 0
        assert json.loads(out)["certificate"]["c0"] == "-1"

    def test_missing_file(self, files, capsys):
        code, _, err = run(capsys, "check", files["k3"], "/nonexistent", "--with-origin")
        assert code == 2 and "error" in err

    def test_cyclic_graph_rejected(self, files, capsys):
        code, _, err = run(capsys, "check", files["cyclic"], files["cyclic"], "--with-origin")
        assert code == 2

    def test_subgraph_not_subset(self, files, capsys):
        code, _, err = run(capsys, "check", files["k3"], files["notsub"], "--with-origin")
        assert code == 2

    def test_byte_identical_runs(self, files, capsys):
        _, out1, _ = run(capsys, "check", files["square"], files["diag"], "--without-origin", "--json")
        _, out2, _ = run(capsys, "check", files["square"], files["diag"], "--without-origin", "--json")
        assert out1 == out2


class TestCert:
    def test_emits_certificate_document(self, files, capsys):
        code, out, _ = run(capsys, "cert", files["k3"], files["h12"], "--with-origin")
        assert code == 0
        assert json.loads(out) == {"c": ["2", "2", "1"], "c0": "0"}

    def test_nonface_exits_one(self, files, capsys):
        code, out, _ = run(capsys, "cert", files["k3"], files["k3full"], "--without-origin")
        assert code == 1
        assert "diagnostic" in json.loads(out)


class TestEnumerate:
    def test_edgeless_single_face(self, files, capsys):
        code, out, _ = run(capsys, "enumerate", files["edgeless"], "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["faces"] == [{"edges": [], "origin": True, "dim": 0}]

    def test_rhombus(self, files, capsys):
        code, out, _ = run(capsys, "enumerate", files["k3"], "--json")
        doc = json.loads(out)
        assert doc["fvector"] == {"0": 4, "1": 4}
        assert len(doc["faces"]) == 9  # 8 proper plus the polytope itself

    def test_jobs_is_accepted_and_ignored(self, files, capsys):
        for name in ("k3", "square", "k4"):
            assert run(capsys, "enumerate", files[name], "--jobs", "2") == run(capsys, "enumerate", files[name])

    def test_max_edges_cap(self, files, capsys):
        code, _, err = run(capsys, "enumerate", files["k4"], "--max-edges", "3")
        assert code == 2

    @pytest.mark.parametrize("command", ["enumerate", "fvector"])
    @pytest.mark.parametrize("graph", ["k3", "edgeless"])
    def test_negative_edge_cap_is_rejected(self, files, capsys, command, graph):
        # With verify's message: the edgeless graph was told that 0 edges exceed a cap of -1.
        code, out, err = run(capsys, command, files[graph], "--max-edges", "-1")
        assert code == 2 and out == ""
        assert err == "error: --max-edges must be nonnegative\n"


class TestKn:
    def test_tilde_fvector(self, capsys):
        code, out, _ = run(capsys, "kn", "3", "--fvector", "--tilde-only", "--json")
        assert code == 0
        assert json.loads(out)["fvector"] == {"0": 1, "1": 2}

    def test_generated_faces_n2(self, capsys):
        code, out, _ = run(capsys, "kn", "2", "--json")
        doc = json.loads(out)
        assert {"edges": [[1, 2]], "origin": False} in doc["faces"]

    def test_combined_fvector_matches_rhombus(self, capsys):
        code, out, _ = run(capsys, "kn", "3", "--fvector", "--json")
        # The improper face, the rhombus itself, is counted only with --include-trivial-faces.
        assert json.loads(out)["fvector"] == {"0": 4, "1": 4}
        code, out, _ = run(capsys, "kn", "3", "--fvector", "--json", "--include-trivial-faces")
        assert json.loads(out)["fvector"] == {"-1": 1, "0": 4, "1": 4, "2": 1}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_fvector_agrees_with_the_library_and_the_oracle(self, capsys, n):
        # The closed form against the enumeration, in order of dimension, under the one trivial-face rule.
        from rootpoly.enumeration import fvector
        from rootpoly.graphs import complete_graph

        kn = complete_graph(n)
        for trivial in ([], ["--include-trivial-faces"]):
            code, out, _ = run(capsys, "kn", str(n), "--fvector", "--json", *trivial)
            oracle = fvector(kn, bool(trivial), max_edges=len(kn.edges))
            assert code == 0
            assert list(json.loads(out)["fvector"].items()) == [(str(d), c) for d, c in oracle.items()]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_listing_holds_the_faces_the_count_counts(self, capsys, n):
        # A listing always holds the improper face; a count holds it only with --include-trivial-faces.
        improper = {"edges": [[u, v] for u in range(1, n + 1) for v in range(u + 1, n + 1)], "origin": True}
        for only in ([], ["--tilde-only"], ["--q-only"]):
            for trivial in ([], ["--include-trivial-faces"]):
                _, listed, _ = run(capsys, "kn", str(n), "--json", *only, *trivial)
                _, counted, _ = run(capsys, "kn", str(n), "--fvector", "--json", *only, *trivial)
                faces = json.loads(listed)["faces"]
                assert (improper in faces) == (only != ["--q-only"])
                counted_faces = faces if trivial else [f for f in faces if f != improper]
                assert len(counted_faces) == sum(json.loads(counted)["fvector"].values())

    def test_trivial_faces_flag_lists_the_empty_face_first_without_the_origin(self, capsys):
        _, out, _ = run(capsys, "kn", "3", "--json")
        plain = json.loads(out)["faces"]
        tilde = [f for f in plain if f["origin"]]
        q = [f for f in plain if not f["origin"]]
        empty = {"edges": [], "origin": False}
        assert plain == tilde + q
        for only, want in (((), tilde + [empty] + q), (("--q-only",), [empty] + q), (("--tilde-only",), tilde)):
            _, out, _ = run(capsys, "kn", "3", "--json", "--include-trivial-faces", *only)
            assert json.loads(out)["faces"] == want


def _old_enumerate_output(g, trivial):
    """enumerate's stdout, without and with --json, as the dict-based writer produced it: str() and json.dumps(indent=2)."""
    from rootpoly.enumeration import count_by_dimension, enumerate_faces

    faces = enumerate_faces(g, len(g.edges), trivial)
    doc = {"faces": [{"edges": [list(e) for e in f.subgraph.edges], "origin": f.contains_origin, "dim": f.dim}
                     for f in faces],
           "fvector": {str(d): c for d, c in count_by_dimension(faces, trivial).items()}}
    lines = [f"{len(faces)} faces (improper included)"]
    lines += [f"  dim {f['dim']}: edges {f['edges']} origin={str(f['origin']).lower()}" for f in doc["faces"]]
    lines.append("f-vector " + json.dumps(doc["fvector"]))
    return "".join(line + "\n" for line in lines), json.dumps(doc, indent=2) + "\n"


def _old_kn_listing(n, only, trivial, as_json):
    """kn N's listing as the dict-based writer produced it."""
    from rootpoly.enumeration import kn_q_faces, kn_tilde_faces

    out = []
    if only != "--q-only":
        out += [{"edges": [list(e) for e in h.edges], "origin": True} for h in kn_tilde_faces(n)]
    if only != "--tilde-only":
        if trivial:
            out.append({"edges": [], "origin": False})
        out += [{"edges": [list(e) for e in h.edges], "origin": False} for h in kn_q_faces(n)]
    if as_json:
        return json.dumps({"n": n, "faces": out}, indent=2) + "\n"
    lines = [f"{len(out)} generated faces"]
    lines += [f"  origin={str(f['origin']).lower()} edges {f['edges']}" for f in out]
    return "".join(line + "\n" for line in lines)


def _seeded_dag(rng, n, m):
    """A DAG on n vertices with m edges, in a shuffled vertex order and a shuffled edge order."""
    order = rng.sample(range(1, n + 1), n)
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    return validate(n, rng.sample(pairs, m))


class TestListingWriter:
    # Listings are written from one text per edge; every byte must be what
    # json.dumps(doc, indent=2) and str() of the face dicts wrote before.

    @staticmethod
    def _check_enumerate(g, path, capsys):
        path.write_text(edge_list_text(g.n, g.edges))
        for trivial in ([], ["--include-trivial-faces"]):
            for as_json, want in zip(([], ["--json"]), _old_enumerate_output(g, bool(trivial))):
                code, out, err = run(capsys, "enumerate", str(path), *trivial, *as_json)
                assert (code, out, err) == (0, want, ""), (g, trivial, as_json)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_enumerate_on_every_small_dag(self, n, tmp_path, capsys):
        from rootpoly.crosscheck import all_dags

        for g in all_dags(n):
            self._check_enumerate(g, tmp_path / "g.txt", capsys)

    def test_enumerate_on_complete_and_seeded_dags(self, tmp_path, capsys):
        from rootpoly.graphs import complete_graph

        rng = random.Random(23)
        graphs = [complete_graph(5), complete_graph(6)]
        graphs += [_seeded_dag(rng, n, m) for n, m in ((7, 12), (7, 13), (8, 14), (8, 12))]
        for g in graphs:
            self._check_enumerate(g, tmp_path / "g.txt", capsys)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_kn_with_every_flag(self, n, capsys):
        for only in ("", "--tilde-only", "--q-only"):
            for trivial in ([], ["--include-trivial-faces"]):
                flags = [only] * bool(only) + trivial
                _, text, _ = run(capsys, "kn", str(n), *flags)
                _, listed, _ = run(capsys, "kn", str(n), "--json", *flags)
                assert text == _old_kn_listing(n, only, bool(trivial), False)
                assert listed == _old_kn_listing(n, only, bool(trivial), True)
                _, text, _ = run(capsys, "kn", str(n), "--fvector", *flags)
                _, counted, _ = run(capsys, "kn", str(n), "--fvector", "--json", *flags)
                doc = json.loads(counted)
                assert counted == json.dumps(doc, indent=2) + "\n"
                assert text == "f-vector " + json.dumps(doc["fvector"]) + "\n"


class TestFVector:
    def test_agrees_with_enumerate(self, tmp_path, capsys):
        # Both commands count the same faces: every DAG on at most 3 vertices, K_4 and the square graph.
        from rootpoly.crosscheck import all_dags
        from rootpoly.graphs import complete_graph, validate

        graphs = [g for n in range(1, 4) for g in all_dags(n)]
        graphs += [complete_graph(4), validate(4, [(1, 3), (1, 4), (2, 3), (2, 4)])]
        path = tmp_path / "g.txt"
        for g in graphs:
            path.write_text(f"{g.n} {len(g.edges)}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
            for trivial in ([], ["--include-trivial-faces"]):
                counted = run(capsys, "fvector", str(path), "--json", *trivial)
                listed = run(capsys, "enumerate", str(path), "--json", *trivial)
                assert counted[0] == listed[0] == 0
                assert json.loads(counted[1])["fvector"] == json.loads(listed[1])["fvector"]

    def test_square_pyramid(self, files, capsys):
        code, out, _ = run(capsys, "fvector", files["square"], "--json")
        assert json.loads(out)["fvector"] == {"0": 5, "1": 8, "2": 5}

    def test_trivial_faces_flag(self, files, capsys):
        code, out, _ = run(capsys, "fvector", files["square"], "--include-trivial-faces", "--json")
        assert json.loads(out)["fvector"] == {"-1": 1, "0": 5, "1": 8, "2": 5, "3": 1}


class TestVerify:
    def test_exhaustive_k4(self, files, capsys):
        code, out, _ = run(capsys, "verify", files["k4"])
        assert code == 0
        assert "128 checks, 0 disagreements" in out

    def test_random_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "4", "--count", "3", "--seed", "5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["graphs"] == 3 and not doc["disagreements"]
        assert "seed=5" in doc["source"]

    def test_requires_exactly_one_source(self, files, capsys):
        code, _, err = run(capsys, "verify", files["k4"], "--random", "4")
        assert code == 2
        code, _, err = run(capsys, "verify")
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_random_needs_a_vertex(self, capsys, n):
        code, out, err = run(capsys, "verify", "--random", n)
        assert code == 2 and out == ""
        assert err.startswith("error: --random")

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_count_must_be_positive(self, capsys, count):
        code, out, err = run(capsys, "verify", "--random", "4", "--count", count)
        assert code == 2 and out == ""
        assert err.startswith("error: --count")

    def test_negative_edge_cap_is_rejected(self):
        # No draw can meet a negative cap, so sampling would never end; a
        # subprocess with a timeout keeps a regression from hanging the suite.
        proc = subprocess.run(
            [sys.executable, "-m", "rootpoly", "verify", "--random", "4", "--max-edges", "-1"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: --max-edges")

    def test_unreachable_edge_cap_is_rejected(self):
        # An edgeless DAG on 10 vertices is one draw in 2^45: refused at once.
        proc = subprocess.run(
            [sys.executable, "-m", "rootpoly", "verify", "--random", "10", "--max-edges", "0"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: edge cap 0 ")

    def test_random_graphs_over_the_oracle_cap_are_refused(self, capsys):
        # Some of three DAGs on 8 vertices with up to 20 edges have 16 or more.
        code, out, err = run(capsys, "verify", "--random", "8", "--count", "3", "--max-edges", "20", "--seed", "1")
        assert code == 2 and out == ""
        assert err == "error: graph too large for the brute-force oracle (more than 15 edges)\n"

    def test_an_edge_cap_above_the_oracle_cap_needs_only_small_draws(self, capsys):
        # A DAG on 5 vertices has at most 10 edges, whatever the cap.
        code, out, _ = run(capsys, "verify", "--random", "5", "--count", "3", "--max-edges", "16")
        assert code == 0 and "0 disagreements" in out

    def test_brute_force_cap_is_refused_at_once(self, tmp_path):
        # 17 points for the brute-force oracle, 2^16 subgraphs to check: refused before any work.
        edges = [(i, j) for i in range(1, 8) for j in range(i + 1, 8)][:16]
        graph = tmp_path / "g16.txt"
        graph.write_text("7 16\n" + "".join(f"{u} {v}\n" for u, v in edges))
        proc = subprocess.run([sys.executable, "-m", "rootpoly", "verify", str(graph)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: graph too large for the brute-force oracle (more than 15 edges)\n"


class TestOutputBoundary:
    def test_reader_closing_the_pipe_early(self, tmp_path):
        # `rootpoly kn 10 | head -1`: the rest of the listing is dropped
        # quietly and the command keeps its own exit code.
        with open(tmp_path / "err.txt", "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "rootpoly", "kn", "10"],
                                    stdout=subprocess.PIPE, stderr=err)
            try:
                assert proc.stdout.readline() == b"32031 generated faces\n"
                proc.stdout.close()
                assert proc.wait(timeout=60) == 0
            finally:
                proc.kill()
            err.seek(0)
            assert err.read() == b""

    def test_reader_closing_an_enumerate_listing_early(self, tmp_path):
        # `rootpoly enumerate K6 --json | head -1`, on the fragment-built listing.  Its 61 kB
        # would fit a default 64 kB pipe whole, so the pipe is shrunk to one page.
        import fcntl
        import os

        k6 = tmp_path / "k6.txt"
        k6.write_text(edge_list_text(6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]))
        read_end, write_end = os.pipe()
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        with open(tmp_path / "err.txt", "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "rootpoly", "enumerate", str(k6), "--json"],
                                    stdout=write_end, stderr=err)
            os.close(write_end)
            try:
                with os.fdopen(read_end, "rb") as out:
                    assert out.readline() == b"{\n"
                assert proc.wait(timeout=60) == 0
            finally:
                proc.kill()
            err.seek(0)
            assert err.read() == b""

    def test_back_to_back_calls_print_what_fresh_processes_print(self, files, capsys):
        # The parser is built once per process; no parsed option may carry over to the next call.
        calls = [("check", files["k3"], files["h12"], "--with-origin", "--json"),
                 ("check", files["k3"], files["h12"], "--without-origin"),
                 ("enumerate", files["square"]),
                 ("kn", "4", "--fvector")]
        in_process = [run(capsys, *argv) for argv in calls]
        for argv, got in zip(calls, in_process):
            proc = subprocess.run([sys.executable, "-m", "rootpoly", *argv], capture_output=True, text=True, timeout=60)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv

    def test_cert_goes_through_the_same_writer(self, files, monkeypatch, capsys):
        import rootpoly.cli as cli

        docs = []
        monkeypatch.setattr(cli, "_print_doc", lambda doc, as_json, lines: docs.append((doc, as_json)))
        assert main(["cert", files["k3"], files["h12"], "--with-origin"]) == 0
        assert docs == [({"c": ["2", "2", "1"], "c0": "0"}, True)]

    def test_huge_vertex_count_in_header(self, tmp_path):
        # A 10-byte file once asked for two million per-vertex entries.
        huge = tmp_path / "huge.txt"
        huge.write_text("2000000 0\n")
        proc = subprocess.run([sys.executable, "-m", "rootpoly", "fvector", str(huge)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: header declares 2000000 vertices, above the limit of 100000\n"

    def test_kn_listing_above_10_is_refused_at_once(self):
        # The listing is built whole before it prints; kn 11 --json once took 18 s and 911 MB.
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "rootpoly", "kn", "11"],
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: listings stop at n = 10")

    def test_kn_14_fvector_counts_without_listing(self):
        proc = subprocess.run([sys.executable, "-m", "rootpoly", "kn", "14", "--fvector", "--json",
                               "--include-trivial-faces"], capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0 and proc.stderr == ""
        fv = {int(d): c for d, c in json.loads(proc.stdout)["fvector"].items()}
        assert min(fv) == -1 and max(fv) == 13 and fv[-1] == fv[13] == 1
        # Euler-Poincare, with both trivial faces counted.
        assert sum((-1) ** d * c for d, c in fv.items()) == 0


class TestNonAsciiInput:
    def test_graph_file(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"3 1\n1 2\x80\n")
        for argv in (("check", str(bad), files["h12"], "--with-origin"), ("enumerate", str(bad)),
                     ("fvector", str(bad)), ("verify", str(bad))):
            code, _, err = run(capsys, *argv)
            assert code == 2 and err.startswith("error:") and "not ASCII" in err

    def test_subgraph_file(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes("3 1\n1 2 \u2192\n".encode("utf-8"))
        code, _, err = run(capsys, "check", files["k3"], str(bad), "--without-origin")
        assert code == 2 and err.startswith("error:") and "not ASCII" in err


@pytest.mark.parametrize("command", ["check", "cert"])
def test_mutated_files_end_in_an_exit_code(command, tmp_path, capsys):
    # Seeded fuzz of the two commands that read a graph and a subgraph.
    # fvector and verify are not fuzzed: their cost grows with isolated vertices.
    rng = random.Random(2020)
    g_path, h_path = tmp_path / "g.txt", tmp_path / "h.txt"
    codes = Counter()
    for _ in range(200):
        g = random_dag(rng, rng.randint(1, 25))
        rows = rng.sample(g.edges, rng.randint(0, len(g.edges)))
        if rng.random() < 0.2:  # a reversed, missing, looped or repeated edge
            rows.append(rng.choice(((2, 1), (1, 2), rows[0] if rows else (1, 1))))
        for path, text in ((g_path, edge_list_text(g.n, g.edges)), (h_path, edge_list_text(g.n, rows))):
            path.write_text(mutate_edge_list(text, rng, rng.choice((0, 0, 1, 2, 3))), encoding="utf-8")
        argv = [command, str(g_path), str(h_path), rng.choice(("--with-origin", "--without-origin"))]
        argv += rng.sample(["--json"], rng.randint(0, 1))
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2, argv
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
        assert len(err) < 200, (argv, err)
        codes[code] += 1
    assert set(codes) == {0, 1, 2}  # faces, non-faces and input errors are all reached


def test_module_entry_point(tmp_path):
    k3 = tmp_path / "k3.txt"
    k3.write_text(K3)
    h = tmp_path / "h.txt"
    h.write_text("3 1\n1 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "rootpoly", "check", str(k3), str(h), "--with-origin", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["face"] is True


def test_readme_cli_block_names_every_option():
    # Each "rootpoly CMD ..." usage line in the README's CLI block names exactly the parser's long options.
    import argparse
    import re
    from pathlib import Path

    from rootpoly.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
                  for line in block.splitlines() if line.startswith("rootpoly ")}
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    accepted = {name: {s for a in p._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
                for name, p in commands.items()}
    assert documented == accepted


def test_readme_library_blocks_give_the_values_they_state():
    # The ```python blocks under "## Library" run in one namespace; each bare
    # expression's value is what its comment says.
    import ast
    import re
    from fractions import Fraction
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    values = []
    for block in blocks:
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    cert = namespace["cert"]
    assert cert.c == (Fraction(-1, 3), 0, Fraction(2, 3)) and cert.c0 == -1
    assert values == [False, True, True, None, cert]
