"""Benchmark of the rootpoly CLI on seeded corpora.

    python3 bench/run.py --workload {query,sweep,crosscheck} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Every operation is one CLI command, ``rootpoly.cli.main(argv)``
called in-process with stdout captured, on edge-list files generated from
the seed.  One client runs a closed loop over the corpus, in whole passes,
until about ``--seconds`` have been spent in CLI calls; after each pass,
every output is checked against the references in ``reference.py``.

With ``--trace 0`` the end-to-end metrics are measured.  With ``--trace 1``
the traced functions of ``tracing.py`` record spans, the per-layer metrics are
reported, and the same operations are then timed again untraced to give the
tracing overhead.  A table of the metrics goes to stdout, and the last line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path[:0] = [str(HERE), str(SRC)]

import corpus as corpora  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 9
# 200 queries leave ten samples beyond the p95.
MIN_OPS = {"query": 200, "sweep": 1, "crosscheck": 1}
# The two parts of each corpus, reported separately: known faces and known
# non-faces; complete graphs and random DAGs; graphs with up to 8 edges and
# with 9 or 10.
PARTS = {"query": ("yes", "no"), "sweep": ("kn", "dag"), "crosscheck": ("small", "large")}
WORK_UNIT = {"query": "queries", "sweep": "subgraphs", "crosscheck": "checks"}


@dataclass
class Result:
    op_index: int
    seconds: float
    code: int | None
    out: str
    work: int = 0
    faces: int = 0
    errors: list[str] = field(default_factory=list)


def import_program() -> None:
    """Import rootpoly afresh from src/."""
    for name in [m for m in sys.modules if m == "rootpoly" or m.startswith("rootpoly.")]:
        del sys.modules[name]
    importlib.import_module("rootpoly")
    cli = importlib.import_module("rootpoly.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rootpoly was imported from {cli.__file__}, not from {SRC}")


def set_up(workload: str, seed: int, directory: Path) -> tuple[corpora.Corpus, list[float]]:
    """Import the program and write the inputs, SETUP_REPEATS times; return the corpus and the times."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        import_program()
        corpus = corpora.CORPORA[workload](seed)
        corpora.write_corpus(corpus, directory)
        times.append(time.perf_counter() - start)
    return corpus, times


def call_cli(argv: list[str], tracer: Tracer | None, op_index: int) -> tuple[float, int | None, str]:
    """Run one CLI command in-process; return its wall time, exit code (None if it raised) and stdout."""
    cli = sys.modules["rootpoly.cli"]
    buf = io.StringIO()
    code = None
    with contextlib.redirect_stdout(buf):
        if tracer is not None:
            tracer.begin_op(op_index)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            print(f"{' '.join(argv)} raised {exc!r}", file=sys.stderr)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
    return elapsed, code, buf.getvalue()


def run_pass(corpus: corpora.Corpus, directory: Path, tracer: Tracer | None) -> list[Result]:
    results = []
    for i, op in enumerate(corpus.ops):
        argv = [a.replace("{dir}", str(directory)) for a in op.argv]
        results.append(Result(i, *call_cli(argv, tracer, i)))
    return results


def run_loop(corpus: corpora.Corpus, directory: Path, seconds: float, tracer: Tracer | None, seed: int) -> list[Result]:
    """Closed loop over whole passes of the corpus, each checked after it ends.

    Stops after the pass that brings the time spent in CLI calls closest to
    ``seconds``, and not before MIN_OPS operations.
    """
    rng = random.Random(seed)
    results: list[Result] = []
    passes = 0
    while True:
        done = run_pass(corpus, directory, tracer)
        check(corpus, done, rng)
        results += done
        passes += 1
        measured = sum(r.seconds for r in results)
        if len(results) >= MIN_OPS[corpus.workload] and measured + measured / passes / 2 >= seconds:
            return results


def check(corpus: corpora.Corpus, results: list[Result], rng: random.Random) -> None:
    """Check outputs against the references, outside any CLI call; set work and errors, drop the output.

    The work of a sweep call is the 2^m subgraphs of its graph, so that its
    throughput does not move with how many faces a seeded graph happens to have.
    """
    for r in results:
        op = corpus.ops[r.op_index]
        if r.code is None:
            r.errors = ["raised"]
        elif corpus.workload == "query":
            r.errors, r.work = reference.check_errors(corpus, op, r.code, r.out), 1
        elif corpus.workload == "sweep":
            r.errors, r.faces = reference.enumerate_errors(corpus, op, r.code, r.out, rng)
            r.work = 2 ** len(corpus.graphs[op.graph].edges)
        else:
            r.errors, r.work = reference.verify_errors(corpus, op, r.code, r.out)
        r.out = ""


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def block_rate(results: list[Result], corpus: corpora.Corpus, part: str | None = None) -> tuple[float, int]:
    """Median over the run's blocks of work per second of CLI time, and the number of blocks.

    A block is one ``Op.block`` of one pass: a stretch of a few seconds with
    the same mix of inputs as the others, so a slow spell of the host moves
    a few blocks and not the median.
    """
    work: dict[tuple[int, int], list[float]] = {}
    for position, r in enumerate(results):
        op = corpus.ops[r.op_index]
        if part is None or op.part == part:
            totals = work.setdefault((position // len(corpus.ops), op.block), [0, 0.0])
            totals[0] += r.work
            totals[1] += r.seconds
    return statistics.median(w / s for w, s in work.values()), len(work)


def end_to_end(workload: str, results: list[Result], corpus: corpora.Corpus, setup_times: list[float]):
    """Metrics as {name: (value, unit, samples)}."""
    ms = [r.seconds * 1e3 for r in results]
    out = {
        "p50_ms": (statistics.median(ms), "ms", len(ms)),
        "p95_ms": (percentile(ms, 95), "ms", len(ms)),
    }
    for name, part in (("throughput_per_s", None), *zip(("part_a_per_s", "part_b_per_s"), PARTS[workload])):
        rate, blocks = block_rate(results, corpus, part)
        out[name] = (rate, "1/s", blocks)
    out["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return out


def per_layer(tracer: Tracer, results: list[Result], corpus: corpora.Corpus, untraced: list[Result]):
    out = {name: (value, unit, len(results)) for name, (value, unit) in tracer.layer_metrics().items()}
    ops = len(results)
    checks = sum(r.work for r in results) if corpus.workload == "crosscheck" else 0
    out["faces.build_hcomp.per_op"] = (tracer.count("faces.build_hcomp") / ops, "calls/op", ops)
    out["linprog.simplex_maximize.per_check"] = (
        tracer.count("linprog.simplex_maximize") / checks if checks else 0.0, "calls/check", checks)
    tested = sum(r.work for r in results) if corpus.workload == "sweep" else 0
    faces = sum(r.faces for r in results)
    out["enumeration.yield"] = (faces / tested if tested else 0.0, "faces/subgraph", tested)
    out["hull.affine_dimension.kn_calls"] = (kn_calls(tracer, corpus), "count", ops)
    traced = sum(r.seconds for r in results)
    out["trace.wall_s"] = (traced, "s", ops)
    out["trace.unwrapped_s"] = (traced - tracer.root_s, "s", ops)
    out["trace.overhead_s"] = (traced - sum(u.seconds for u in untraced), "s", ops)
    out["trace.spans"] = (len(tracer.spans["name"]), "count", ops)
    return out


def kn_calls(tracer: Tracer, corpus: corpora.Corpus) -> int:
    """Calls of hull.affine_dimension made while enumerating the K_n graphs."""
    per_op = tracer.op_counts("hull.affine_dimension")
    return sum(count for op, count in per_op.items() if corpus.ops[op].part == "kn")


def replay_untraced(corpus: corpora.Corpus, results: list[Result], directory: Path) -> list[Result]:
    """Run the traced run's passes again, untraced and unchecked, comparing exit codes."""
    untraced: list[Result] = []
    for _ in range(len(results) // len(corpus.ops)):
        untraced += run_pass(corpus, directory, None)
    for r, u in zip(results, untraced):
        if u.code != r.code:
            r.errors.append(f"untraced replay exited {u.code}, traced run {r.code}")
    return untraced


def print_table(workload: str, metrics: dict) -> None:
    print(f"{'metric':<40} {'value':>14} {'unit':<15} samples  ({workload}; work unit: {WORK_UNIT[workload]})")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit:<15} {samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpora.CORPORA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rootpoly" / "__init__.py").is_file():
        print(f"error: no rootpoly sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        corpus, setup_times = set_up(args.workload, args.seed, directory)
        if args.trace:
            tracer = Tracer()
            with tracer:
                results = run_loop(corpus, directory, args.seconds, tracer, args.seed)
            untraced = replay_untraced(corpus, results, directory)
            metrics = per_layer(tracer, results, corpus, untraced)
            tracer.write(WORK / f"trace-{args.workload}")
        else:
            results = run_loop(corpus, directory, args.seconds, None, args.seed)
            metrics = end_to_end(args.workload, results, corpus, setup_times)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    failed = [r for r in results if r.errors]
    for r in failed[:5]:
        print(f"FAILED {' '.join(corpus.ops[r.op_index].argv)}: {'; '.join(r.errors)}", file=sys.stderr)
    print_table(args.workload, metrics)
    print(f"error_rate {len(failed) / len(results):.6g} ({len(failed)} of {len(results)} operations failed)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
