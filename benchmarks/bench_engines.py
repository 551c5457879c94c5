"""BENCH-ENGINES -- per-query cost of every registered parallelism engine.

The engine registry (:mod:`repro.dpst.engines`) makes the paper's LCA
walks one option among several: incremental vector clocks
(arXiv:2001.04961) and DePa graded dag-path labels (arXiv:2204.14168)
answer the same ``parallel(a, b)`` question.
This harness measures what each answer *costs*, per query, on workloads
chosen to separate the asymptotics:

* **deep** -- a deep comb (nested finish chain), the regime the LCA
  engine likes least: every uncached query walks O(depth) parents,
  while DePa compares two machine integers.  The harness asserts that
  DePa beats LCA here -- that is the headline claim of constant-time
  labels, and CI keys off the exit status.
* **wide** -- a flat fan-out of siblings, where LCA walks are short and
  constant-factor differences dominate.
* **mixed** -- a random tree from a seeded generator, the
  no-particular-structure case.

Engines are enumerated from :func:`repro.dpst.engines.available_engines`,
so a newly registered engine lands in the comparison (and the JSON
artifact) without touching this file.  Labels/clocks are materialized
once before timing and the verdict memo is disabled, so the numbers are
the steady-state *query* path, not one-time build work.

Two entry points:

* pytest-benchmark (runs with the rest of the bench suite)::

      PYTHONPATH=src python -m pytest benchmarks/bench_engines.py --benchmark-only

* standalone harness::

      PYTHONPATH=src python benchmarks/bench_engines.py [--depth D]
          [--pairs N] [--repeats R] [--quick] [--json OUT.json]
"""

import argparse
import json
import random
import sys
import time

import pytest

from repro.dpst import ArrayDPST, NodeKind, ROOT_ID
from repro.dpst.engines import available_engines, make_engine


def deep_tree(depth, width=2):
    """A nested-finish comb: queries span long ancestor chains."""
    tree = ArrayDPST()
    steps = []
    parent = ROOT_ID
    for _ in range(depth):
        finish = tree.add_node(parent, NodeKind.FINISH)
        for _ in range(width):
            async_node = tree.add_node(finish, NodeKind.ASYNC)
            steps.append(tree.add_node(async_node, NodeKind.STEP))
        parent = finish
    return tree, steps


def wide_tree(fanout):
    """One finish, *fanout* parallel tasks: shortest possible walks."""
    tree = ArrayDPST()
    steps = []
    for _ in range(fanout):
        async_node = tree.add_node(ROOT_ID, NodeKind.ASYNC)
        steps.append(tree.add_node(async_node, NodeKind.STEP))
    return tree, steps


def mixed_tree(nodes, seed=11):
    """A random well-formed tree: the no-particular-structure case."""
    rng = random.Random(seed)
    tree = ArrayDPST()
    scopes = [ROOT_ID]
    steps = []
    for _ in range(nodes):
        parent = rng.choice(scopes)
        kind = rng.choice((NodeKind.STEP, NodeKind.ASYNC, NodeKind.FINISH))
        node = tree.add_node(parent, kind)
        if kind is NodeKind.STEP:
            steps.append(node)
        else:
            scopes.append(node)
    if not steps:  # pragma: no cover - seeds are pinned
        steps.append(tree.add_node(ROOT_ID, NodeKind.STEP))
    return tree, steps


def query_pairs(steps, count, seed=7):
    rng = random.Random(seed)
    return [(rng.choice(steps), rng.choice(steps)) for _ in range(count)]


def warm_engine(name, tree, pairs):
    """An engine with labels/clocks materialized but no verdict memo."""
    engine = make_engine(name, tree, cache=False)
    for a, b in pairs:
        engine.parallel(a, b)
    engine.reset_stats()
    return engine


def time_queries(engine, pairs, repeats):
    """Best-of-*repeats* seconds for one pass over *pairs*."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        parallel = engine.parallel
        for a, b in pairs:
            parallel(a, b)
        best = min(best, time.perf_counter() - started)
    return best


def run_matrix(workloads, pair_count, repeats):
    """``{engine: {workload: row}}`` over every registered engine."""
    results = {}
    for name in available_engines():
        per_workload = {}
        for label, (tree, steps) in workloads.items():
            pairs = query_pairs(steps, pair_count)
            engine = warm_engine(name, tree, pairs)
            seconds = time_queries(engine, pairs, repeats)
            per_workload[label] = {
                "seconds": seconds,
                "per_query_us": 1e6 * seconds / len(pairs),
                "queries": engine.stats.queries,
                "hops": engine.stats.hops,
            }
        results[name] = per_workload
    return results


# -- pytest-benchmark hooks --------------------------------------------------

BENCH_DEPTH = 48
BENCH_PAIRS = 400


@pytest.fixture(scope="module")
def bench_workloads():
    return {
        "deep": deep_tree(BENCH_DEPTH),
        "wide": wide_tree(BENCH_DEPTH * 2),
    }


@pytest.mark.parametrize("workload", ["deep", "wide"])
@pytest.mark.parametrize("engine_name", available_engines())
def test_engine_query_cost(benchmark, bench_workloads, engine_name, workload):
    tree, steps = bench_workloads[workload]
    pairs = query_pairs(steps, BENCH_PAIRS)
    engine = warm_engine(engine_name, tree, pairs)
    benchmark.extra_info["engine"] = engine_name
    benchmark.extra_info["workload"] = workload

    def run():
        hits = 0
        for a, b in pairs:
            if engine.parallel(a, b):
                hits += 1
        return hits

    benchmark(run)


# -- standalone harness ------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depth", type=int, default=192,
                        help="nesting depth of the deep comb (default: 192)")
    parser.add_argument("--pairs", type=int, default=2000,
                        help="query pairs per workload (default: 2000)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller trees, fewer pairs")
    parser.add_argument("--json", metavar="OUT.json", default=None)
    args = parser.parse_args(argv)

    depth = 64 if args.quick else args.depth
    pair_count = 500 if args.quick else args.pairs
    repeats = 3 if args.quick else args.repeats

    workloads = {
        "deep": deep_tree(depth),
        "wide": wide_tree(depth * 2),
        "mixed": mixed_tree(depth * 6),
    }
    print(
        f"engines: {', '.join(available_engines())}; "
        f"depth={depth} pairs={pair_count} repeats={repeats}",
        flush=True,
    )
    results = run_matrix(workloads, pair_count, repeats)

    labels = list(workloads)
    header = f"{'engine':>8}" + "".join(f"{label + ' us/q':>14}" for label in labels)
    print("\n" + header)
    for name in available_engines():
        row = results[name]
        print(
            f"{name:>8}"
            + "".join(f"{row[label]['per_query_us']:>14.3f}" for label in labels)
        )

    depa_us = results["depa"]["deep"]["per_query_us"]
    lca_us = results["lca"]["deep"]["per_query_us"]
    ok = depa_us < lca_us
    print(
        f"\ndeep nesting: depa {depa_us:.3f} us/query vs lca {lca_us:.3f} "
        f"us/query: {'OK (depa faster)' if ok else 'FAIL (depa not faster)'}"
    )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "benchmark": "engines",
                    "depth": depth,
                    "pairs": pair_count,
                    "repeats": repeats,
                    "engines": results,
                    "depa_beats_lca_on_deep": ok,
                },
                handle,
                indent=2,
            )
        print(f"json written to {args.json}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
