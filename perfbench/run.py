"""The repository benchmark: four workloads, every verdict checked.

Run every workload and print each end-to-end metric with its unit::

    python3 perfbench/run.py

Run one workload at one seed::

    python3 perfbench/run.py --workload forkjoin-v3 --seed 3 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced pass that reports the per-layer
metrics and writes the benchmark's spans to
``.perfbench/spans-<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is non-zero
when any check raised or returned a wrong verdict, or when the program
under test cannot be imported.

The metric names and units are read from ``BENCHMARK.json`` at the
repository root.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up is timed at least this many times, and for at least this long.
SETUP_REPS = 5
SETUP_SECONDS = 2.0
#: The held-out input of a run is generated from ``seed + HELD_OUT``.
HELD_OUT = 1_000_003
#: Hash seed every run executes under (set iteration order is part of
#: the measured work, so it is pinned).
HASH_SEED = "0"


def load_manifest() -> dict:
    """``BENCHMARK.json``: the one list of metric names, units and bounds,
    and the default run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def machine_facts() -> dict:
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
        "gc_policy": "full collection before every timed call; default thresholds inside it",
    }


def run_one(args, manifest: dict) -> int:
    from perfbench.harness import PROBE, Tracer, Verdicts, timed
    from perfbench.workloads import WORKLOADS

    end_to_end = [m["name"] for m in manifest["end_to_end"]]
    per_layer = [m["name"] for m in manifest["per_layer"]]
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    workload = WORKLOADS[args.workload]
    # A terminated run still removes its trace files (the ``finally``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    machine = machine_facts()
    print("machine: " + json.dumps(machine, sort_keys=True), flush=True)
    verdicts = Verdicts()
    tracer = Tracer(cpus=workload.jobs)
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    held_dir = os.path.join(workdir, "held-out")
    os.makedirs(held_dir)
    try:
        # The held-out input goes first: building it imports and warms
        # everything the timed set-up below would otherwise pay for once.
        held_source = workload.generate(args.seed + HELD_OUT)
        held = workload.setup(held_source, held_dir)
        workload.reference(held, held_source, verdicts, held_dir)
        del held_source
        # Generating the input is benchmark code and is not timed; set-up
        # times the program turning it into what the check reads.
        source = workload.generate(args.seed)
        started = time.perf_counter()
        while (len(tracer.durations("setup")) < SETUP_REPS
               or time.perf_counter() - started < SETUP_SECONDS):
            tracer.probe()
            _, inp = timed(lambda: workload.setup(source, workdir), tracer, "setup")
        tracer.probe()
        setup_s = tracer.time("setup")
        workload.reference(inp, source, verdicts, workdir)
        del source
        workload.verify(held, verdicts, f"{workload.name}:held-out")
        if args.trace:
            layer = workload.traced(inp, args.seconds, verdicts, tracer)
            unknown = set(layer) - set(per_layer)
            if unknown:
                raise KeyError(f"per-layer metrics {sorted(unknown)} not in BENCHMARK.json")
            values = {name: float(layer.get(name, 0)) for name in per_layer}
            out = os.path.join(ROOT, ".perfbench", f"spans-{workload.name}-seed{args.seed}.json")
            with open(out, "w", encoding="utf-8") as handle:
                json.dump({"workload": workload.name, "seed": args.seed,
                           "machine": machine, "metrics": values,
                           "spans": tracer.to_dict()}, handle)
        else:
            values = workload.measure(inp, args.seconds, verdicts, tracer)
            values["setup_s"] = setup_s
            if set(values) != set(end_to_end):
                raise KeyError(f"end-to-end metrics {sorted(values)} != BENCHMARK.json")
            values = {name: values[name] for name in end_to_end}
    finally:
        tracer.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"host: timings scaled to the reference speed by "
          f"{len(tracer.durations(PROBE))} reference-loop probes; the median probe "
          f"ran {tracer.host_stretch():.3f}x the reference time")
    for name, value in values.items():
        print(f"{workload.name:>16}  {name:<34} {value:>16.6g} {units[name]}")
    print(f"{workload.name:>16}  {'failed_ratio':<34} {verdicts.ratio:>16.6g} "
          f"ratio  ({verdicts.failed} of {verdicts.attempted} checks)")
    for error in verdicts.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }), flush=True)
    return 0 if verdicts.failed == 0 else 1


def run_all(args, names) -> int:
    """Each workload in its own interpreter, one after the other."""
    status = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        status |= subprocess.run(command, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        import repro  # the program under test
        import benchmarks.bench_sharded_pipeline  # noqa: F401  -- its generators
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not from this "
              "checkout's src/", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run_one(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
