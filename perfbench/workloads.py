"""The four workloads of the repository benchmark.

Each workload turns a seed into inputs (:meth:`generate`, benchmark code
that is not timed), has the program turn them into what the check reads
(:meth:`setup`, the timed set-up), derives the verdict it must reproduce
from how those inputs were built (:meth:`reference`), then either
measures the end-to-end metrics with tracing off (:meth:`measure`) or
splits the time across the layers in a separate traced pass
(:meth:`traced`).  See ``perfbench/README.md`` for
why each workload exists and which layer it is the control for.

The trace generators are imported from ``benchmarks/`` rather than
copied, so the benchmark measures the same inputs the older standalone
scripts do.
"""

from __future__ import annotations

import os
import random
import resource
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from perfbench.harness import (
    Tracer,
    Verdicts,
    closed_loop,
    drain,
    geomean,
    median,
    peak_bytes,
    timed,
)

#: Input size multiplier of the 13 paper kernels (ROADMAP's Fig. 13 scale).
LIVE_SCALE = 4
#: Memory events of the fork-join trace (3,492 violations at seed 0).
FORKJOIN_EVENTS = 100_000
#: Memory events of both churn traces: large enough that the sharded
#: streaming defect dominates ``churn-v2-jobs2``.
CHURN_EVENTS = 25_000
#: Streaming compaction window of both churn workloads.
WINDOW = 64
#: Shard workers of ``churn-v2-jobs2`` (never more than the 2 CPUs).
JOBS = 2


def _checker_counters(counters: Dict[str, float]) -> Dict[str, float]:
    """The engine/checker/report counts every workload reports."""
    queries = counters.get("engine.queries", 0)
    unique = counters.get("engine.unique", 0)
    hits = counters.get("checker.optimized.memo_hits", 0)
    pattern_checks = counters.get("checker.optimized.pattern_checks", 0)
    return {
        "dpst.engine.queries": queries,
        "dpst.engine.unique": unique,
        "dpst.engine.unique_ratio": unique / queries if queries else 0.0,
        "checker.accesses_checked": counters.get("checker.accesses_checked", 0),
        "checker.optimized.promotions": counters.get("checker.optimized.promotions", 0),
        "checker.optimized.pattern_checks": pattern_checks,
        "checker.optimized.memo_hits": hits,
        "checker.optimized.memo_hit_ratio": (
            hits / (hits + pattern_checks) if hits + pattern_checks else 0.0
        ),
        "report.violations": counters.get("report.violations", 0),
    }


def _sum_counters(snapshots) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.counters.items():
            total[name] = total.get(name, 0) + value
    return total


# -- live: the 13 paper kernels under the instrumented runtime ---------------


@dataclass
class LiveInput:
    programs: List[Any]  # (kernel name, TaskProgram) in run order
    accesses_checked: int = 0
    memory_events: int = 0
    tasks: int = 0


class LivePaper13:
    name = "live-paper13"
    jobs = 1

    def generate(self, seed: int):
        """The 13 kernel specs.  The kernels fix their own inputs; the
        seed sets the order they run in within each pass."""
        from repro.workloads import all_workloads

        specs = all_workloads()
        random.Random(seed).shuffle(specs)
        return specs

    def setup(self, specs, workdir: str) -> LiveInput:
        """Build the 13 programs."""
        return LiveInput([(spec.name, spec.build(LIVE_SCALE)) for spec in specs])

    def reference(self, inp: LiveInput, specs, verdicts: Verdicts, workdir: str) -> None:
        """The kernels are violation-free: every checked run must report
        nothing.  This pass, which is not timed, also counts the memory
        events checked and, through ``collect_stats``, the runtime's
        memory events and tasks."""
        from repro.runtime.program import run_program

        for name, program in inp.programs:
            result = run_program(program, checkers=["optimized"], collect_stats=True)
            inp.accesses_checked += result.metrics["checker.accesses_checked"]
            inp.memory_events += result.stats.memory_events
            inp.tasks += result.stats.tasks
            verdicts.run(f"{self.name}:{name}:reference", result.report, ())

    @staticmethod
    def _checked(program, **options):
        from repro.runtime.program import run_program

        return run_program(program, checkers=["optimized"], **options).report()

    def verify(self, inp: LiveInput, verdicts: Verdicts, label: str) -> None:
        for name, program in inp.programs:
            verdicts.run(f"{label}:{name}", lambda: self._checked(program), ())

    def _pass(self, inp, verdicts, tracer, index, snapshots=None) -> None:
        """One pass: each kernel bare, DPST only and checked, back to back
        (plus checked with a recorder when *snapshots* collects them)."""
        from repro.obs import MetricsRecorder
        from repro.report import normalize_report
        from repro.runtime.program import run_program

        tracer.run = index
        for name, program in inp.programs:
            tracer.probe()
            timed(lambda: run_program(program, build_dpst=False), tracer, "runtime.bare", name)
            timed(lambda: run_program(program, build_dpst=True), tracer, "runtime.dpst", name)
            _, report = verdicts.run(
                f"{self.name}:{name}#{index}", lambda: self._checked(program), (),
                tracer=tracer, span="runtime.checked", key=name,
            )
            if snapshots is None:
                continue
            recorder = MetricsRecorder()
            verdicts.run(
                f"{self.name}:{name}#{index}:traced",
                lambda: self._checked(program, recorder=recorder),
                (), tracer=tracer, span="runtime.checked.traced", key=name,
            )
            if index == 0:
                snapshots.append(recorder.snapshot())
            if report is not None:
                timed(lambda: normalize_report(report), tracer, "report.normalize", name)

    def measure(
        self, inp: LiveInput, seconds: float, verdicts: Verdicts, tracer: Tracer
    ) -> Dict[str, float]:
        peak = 0
        for name, program in inp.programs:
            found, _ = peak_bytes(lambda: verdicts.run(
                f"{self.name}:{name}:peak", lambda: self._checked(program), ()
            ))
            peak = max(peak, found)
        closed_loop(seconds, lambda index: self._pass(inp, verdicts, tracer, index))
        tracer.probe()
        wall = tracer.time_sum("runtime.checked")
        return {
            "wall_s": wall,
            "events_per_s": inp.accesses_checked / wall,
            "slowdown_x": geomean(
                tracer.time("runtime.checked", name) / tracer.time("runtime.bare", name)
                for name, _ in inp.programs
            ),
            "peak_mb": peak / 1e6,
        }

    def traced(
        self, inp: LiveInput, seconds: float, verdicts: Verdicts, tracer: Tracer
    ) -> Dict[str, float]:
        snapshots: List[Any] = []
        closed_loop(seconds, lambda index: self._pass(inp, verdicts, tracer, index, snapshots))
        tracer.probe()
        bare = tracer.time_sum("runtime.bare")
        dpst = tracer.time_sum("runtime.dpst")
        checked = tracer.time_sum("runtime.checked")
        counters = _sum_counters(snapshots)
        metrics = _checker_counters(counters)
        metrics.update({
            "runtime.bare_s": bare,
            "runtime.instrument_s": dpst - bare,
            "checker.online_s": checked - dpst,
            "runtime.memory_events": inp.memory_events,
            "runtime.tasks": inp.tasks,
            "dpst.nodes": sum(s.gauges.get("dpst.nodes", 0) for s in snapshots),
            "report.normalize_s": tracer.time_sum("report.normalize"),
            "session.check_s": checked,
            "obs.traced_overhead_ratio": tracer.time_sum("runtime.checked.traced") / checked,
        })
        return metrics


# -- offline trace workloads ---------------------------------------------------


@dataclass
class TraceInput:
    path: str
    memory_events: int = 0
    locations: tuple = ()
    normal: Optional[tuple] = None


class TraceWorkload:
    """A trace written once in set-up and checked through ``CheckSession``."""

    name = ""
    format = "columnar"
    suffix = ".trc"
    jobs = 1
    streaming = False

    def generate(self, seed: int):
        raise NotImplementedError

    def expected_locations(self, trace) -> tuple:
        raise NotImplementedError

    def setup(self, trace, workdir: str) -> TraceInput:
        """Write the trace in this workload's format."""
        from repro.trace.serialize import dump_trace

        path = os.path.join(workdir, self.name + self.suffix)
        dump_trace(trace, path, format=self.format)
        return TraceInput(path)

    def reference(self, inp: TraceInput, trace, verdicts: Verdicts, workdir: str) -> None:
        inp.memory_events = sum(1 for _ in trace.memory_events())
        inp.locations = self.expected_locations(trace)

    def check_kwargs(self) -> Dict[str, Any]:
        return {"streaming": True, "window": WINDOW} if self.streaming else {}

    def check(self, inp: TraceInput, recorder=None):
        from repro.session import CheckSession

        return CheckSession(inp.path, jobs=self.jobs, recorder=recorder).check(
            **self.check_kwargs()
        )

    def decode(self, reader) -> List[Any]:
        """Drain what this workload's check reads from the trace."""
        return list(reader.memory_events())

    def replay(self, decoded, dpst):
        from repro.checker import make_checker
        from repro.trace.replay import replay_memory_events

        return replay_memory_events(decoded, make_checker("optimized"), dpst=dpst)

    def read(self, inp: TraceInput) -> int:
        """Everything the check does except checking: open, load the
        DPST, decode.  The denominator of ``slowdown_x`` here."""
        from repro.trace.serialize import open_trace

        with open_trace(inp.path) as reader:
            reader.dpst
            return drain(self.decode(reader))

    def _run_check(self, inp, verdicts, label, recorder=None, **span):
        return verdicts.run(
            label, lambda: self.check(inp, recorder), inp.locations, inp.normal, **span
        )

    def verify(self, inp: TraceInput, verdicts: Verdicts, label: str) -> None:
        self._run_check(inp, verdicts, label)

    def measure(
        self, inp: TraceInput, seconds: float, verdicts: Verdicts, tracer: Tracer
    ) -> Dict[str, float]:
        def one_round(index: int) -> None:
            tracer.run = index
            tracer.probe()
            timed(lambda: self.read(inp), tracer, "read")
            tracer.probe()
            self._run_check(inp, verdicts, f"{self.name}#{index}",
                            tracer=tracer, span="session.check")

        closed_loop(seconds, one_round)
        tracer.probe()
        wall = tracer.time("session.check", cpus=self.jobs)
        return {
            "wall_s": wall,
            "events_per_s": inp.memory_events / wall,
            # Both on one scale, so the ratio is that of the raw medians.
            "slowdown_x": wall / tracer.time("read", cpus=self.jobs),
            "peak_mb": self.check_peak_bytes(inp, verdicts) / 1e6,
        }

    def check_peak_bytes(self, inp: TraceInput, verdicts: Verdicts) -> int:
        """The ``tracemalloc`` peak of one check, in a pass of its own."""
        peak, _ = peak_bytes(lambda: self._run_check(inp, verdicts, f"{self.name}:peak"))
        return peak

    def traced(
        self, inp: TraceInput, seconds: float, verdicts: Verdicts, tracer: Tracer
    ) -> Dict[str, float]:
        from repro.obs import MetricsRecorder
        from repro.report import normalize_report
        from repro.trace.serialize import open_trace

        snapshots: List[Any] = []
        nodes: List[int] = []

        def load():
            with open_trace(inp.path) as reader:
                return reader.dpst

        def one_round(index: int) -> None:
            tracer.run = index
            tracer.probe()
            self._run_check(inp, verdicts, f"{self.name}#{index}",
                            tracer=tracer, span="session.check")
            tracer.probe()
            recorder = MetricsRecorder()
            self._run_check(inp, verdicts, f"{self.name}#{index}:traced", recorder,
                            tracer=tracer, span="session.check.traced")
            snapshots.append(recorder.snapshot())
            tracer.probe()
            _, dpst = timed(load, tracer, "dpst.load")
            nodes.append(len(dpst))
            with open_trace(inp.path) as reader:
                reader.dpst
                tracer.probe()
                _, decoded = timed(lambda: self.decode(reader), tracer, "trace.decode")
            tracer.probe()
            _, report = verdicts.run(
                f"{self.name}#{index}:replay", lambda: self.replay(decoded, dpst),
                inp.locations, tracer=tracer, span="checker.replay",
            )
            del decoded
            if report is not None:
                tracer.probe()
                timed(lambda: normalize_report(report), tracer, "report.normalize")

        closed_loop(seconds, one_round)
        tracer.probe()
        parts = {
            "session.check_s": tracer.time("session.check", cpus=self.jobs),
            "dpst.load_s": tracer.time("dpst.load"),
            "trace.decode_s": tracer.time("trace.decode"),
            "checker.replay_s": tracer.time("checker.replay"),
        }
        metrics = _checker_counters(snapshots[0].counters)
        metrics.update(parts)
        metrics.update({
            "dpst.nodes": nodes[0],
            "trace.decode_events_per_s": inp.memory_events / parts["trace.decode_s"],
            "trace.file_bytes": os.path.getsize(inp.path),
            "report.normalize_s": tracer.time("report.normalize"),
            "obs.traced_overhead_ratio": (
                tracer.time("session.check.traced", cpus=self.jobs)
                / parts["session.check_s"]
            ),
        })
        metrics.update(self.layer_extras(
            snapshots, 1 / tracer.host_stretch("session.check.traced", self.jobs), parts
        ))
        return metrics

    def layer_extras(self, snapshots, scale, parts) -> Dict[str, float]:
        # In-process: what the separately timed layers leave of the check
        # is the front door plus the decode -> checker generator hand-off.
        return {"session.unattributed_s": parts["session.check_s"] - parts["dpst.load_s"]
                - parts["trace.decode_s"] - parts["checker.replay_s"]}


def _streaming_counters(counters: Dict[str, float], prefix: str = "streaming") -> Dict[str, float]:
    return {
        f"{prefix}.sweeps": counters.get("streaming.compactions", 0),
        f"{prefix}.evicted": counters.get("streaming.evicted", 0),
        f"{prefix}.peak_window": counters.get("streaming.peak_window", 0),
    }


class ForkjoinV3(TraceWorkload):
    name = "forkjoin-v3"

    def generate(self, seed: int):
        from benchmarks.bench_sharded_pipeline import synthetic_trace

        return synthetic_trace(FORKJOIN_EVENTS, seed=seed)

    def expected_locations(self, trace) -> tuple:
        """Each contended slot RMW-touched by two or more tasks -- every
        task is parallel with every other -- holds a violation; the
        task-partitioned private scalars never do."""
        from repro.report import normalize_locations

        tasks: Dict[Any, set] = {}
        for event in trace.memory_events():
            if event.location[0] == "shared":
                tasks.setdefault(event.location, set()).add(event.task)
        return normalize_locations(loc for loc, who in tasks.items() if len(who) > 1)


def seeded_churn_trace(memory_events: int, seed: int):
    """``bench_streaming.churn_trace`` relabelled by *seed*.

    The shape (task churn, locked RMW pairs, one racy pair on ``"bug"``)
    is the generator's; the seed permutes which shared scalar each
    task-relative slot maps to and renames the locks, keeping every
    critical section's lock shared by its own RMW pair only.
    """
    from benchmarks.bench_streaming import LOCATIONS, churn_trace
    from repro.runtime.events import MemoryEvent
    from repro.trace.trace import Trace

    rng = random.Random(seed)
    slots = list(range(LOCATIONS))
    rng.shuffle(slots)
    prefix = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4))
    base = churn_trace(memory_events)
    events = []
    for event in base.events:
        if isinstance(event, MemoryEvent) and event.location != "bug":
            slot = slots[event.location[1]]
            version = event.lockset[0].rsplit("@", 1)[1]
            event = replace(
                event,
                location=("shared", slot),
                lockset=(f"{prefix}{slot}@{version}",),
            )
        events.append(event)
    return Trace(events, dpst=base.dpst)


class ChurnV3Stream(TraceWorkload):
    name = "churn-v3-stream"
    streaming = True

    def generate(self, seed: int):
        return seeded_churn_trace(CHURN_EVENTS, seed)

    def expected_locations(self, trace) -> tuple:
        # Only the unlocked round-0 pair races; every other RMW pair holds
        # its own critical section's lock.
        return ("'bug'",)

    def decode(self, reader) -> List[Any]:
        return list(reader.events())

    def replay(self, decoded, dpst):
        from repro.checker.streaming import StreamingChecker
        from repro.trace.replay import replay_events

        return replay_events(decoded, StreamingChecker(window=WINDOW), dpst=dpst)

    def layer_extras(self, snapshots, scale, parts) -> Dict[str, float]:
        extras = super().layer_extras(snapshots, scale, parts)
        extras.update(_streaming_counters(snapshots[0].counters))
        return extras


class ChurnV2Jobs2(ChurnV3Stream):
    name = "churn-v2-jobs2"
    format = "jsonl"
    suffix = ".jsonl"
    jobs = JOBS

    def reference(self, inp: TraceInput, trace, verdicts: Verdicts, workdir: str) -> None:
        """Besides ``{'bug'}``, the whole report must equal the one
        ``churn-v3-stream`` produces from the same churn."""
        from repro.report import normalize_report
        from repro.trace.serialize import dump_trace

        super().reference(inp, trace, verdicts, workdir)
        v3 = TraceInput(os.path.join(workdir, self.name + ".reference.trc"))
        dump_trace(trace, v3.path, format="columnar")
        _, report = verdicts.run(
            f"{self.name}:reference",
            lambda: ChurnV3Stream().check(v3),
            inp.locations,
        )
        os.remove(v3.path)
        if report is not None:
            inp.normal = normalize_report(report)

    def decode(self, reader) -> List[List[Any]]:
        # What each shard worker decodes: its own slice of the lines.
        return [list(reader.memory_events(shard=i, jobs=JOBS)) for i in range(JOBS)]

    def replay(self, decoded, dpst):
        """What each shard worker checks: its memory events only, through
        a fresh streaming checker (``_check_shard_from_file``)."""
        from repro.checker.streaming import StreamingChecker
        from repro.report import ViolationReport
        from repro.trace.replay import replay_memory_events

        return ViolationReport.merge(
            replay_memory_events(shard, StreamingChecker(window=WINDOW), dpst=dpst)
            for shard in decoded
        )

    def check_peak_bytes(self, inp: TraceInput, verdicts: Verdicts) -> int:
        """The largest shard worker's peak resident set, over every check
        of the run so far.  ``tracemalloc`` would see only this process,
        and the forked workers would inherit it and run several times
        slower; the workers are where the window of the known defect
        grows."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024

    def read(self, inp: TraceInput) -> int:
        from repro.trace.serialize import open_trace

        with open_trace(inp.path) as reader:
            reader.dpst
            return sum(
                drain(reader.memory_events(shard=i, jobs=JOBS)) for i in range(JOBS)
            )

    def layer_extras(self, snapshots, scale, parts) -> Dict[str, float]:
        extras = _streaming_counters(snapshots[0].counters)
        for shard in snapshots[0].shards:
            extras.update(_streaming_counters(
                shard["counters"], f"streaming.shard{shard['shard']}"
            ))
        rounds: Dict[str, List[float]] = {}
        for snapshot in snapshots:
            elapsed = [shard["gauges"]["worker.elapsed_s"] for shard in snapshot.shards]
            map_s = snapshot.spans["check/sharded/map"].total_s
            for name, value in (
                ("sharded.map_s", map_s * scale),
                ("sharded.merge_s", snapshot.spans["check/sharded/merge"].total_s * scale),
                ("sharded.worker_busy_s", sum(elapsed) * scale),
                ("sharded.ipc_s", (map_s - max(elapsed)) * scale),
                ("sharded.skew", max(elapsed) / (sum(elapsed) / len(elapsed))),
            ):
                rounds.setdefault(name, []).append(value)
        failures = _sum_counters(snapshots)
        extras.update({name: median(values) for name, values in rounds.items()})
        extras["sharded.retries"] = failures.get("sharded.retries", 0)
        extras["sharded.shard_failures"] = failures.get("sharded.shard_failures", 0)
        return extras


WORKLOADS = {
    workload.name: workload
    for workload in (LivePaper13(), ForkjoinV3(), ChurnV3Stream(), ChurnV2Jobs2())
}
