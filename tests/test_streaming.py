"""Online/streaming checking: windowed compaction is observationally
invisible.

The contract under test: a streaming check -- live observer, in-memory
trace, or either trace file format, in-process or sharded -- reports
exactly what the offline optimized checker reports, at *every* window
(including ``window=1``, where a sweep follows every event, and the
unbounded window, where no sweep ever fires).  What the window changes is
peak live metadata, which ``benchmarks/bench_streaming.py`` measures; what
it must never change is the verdict.
"""

import pytest

from repro import CheckSession, TaskProgram, run_program
from repro.checker import make_checker
from repro.checker.streaming import DEFAULT_WINDOW, StreamingChecker
from repro.errors import CheckerError
from repro.obs import METRIC_NAMES, MetricsRecorder
from repro.report import normalize_report
from repro.runtime.executor import SerialExecutor
from repro.suite import all_cases
from repro.trace.serialize import dump_trace

WINDOWS = (1, 8, 64, 0)  # 0 = unbounded, via the session's window= mapping


def _rmw(ctx):
    value = ctx.read("X")
    ctx.write("X", value + 1)


def buggy_body(ctx):
    ctx.write("X", 0)
    ctx.spawn(_rmw)
    ctx.spawn(_rmw)
    ctx.sync()


def recorded_trace():
    return run_program(TaskProgram(buggy_body), record_trace=True).trace


# ---------------------------------------------------------------------------
# Construction and refusals
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_registered_with_factory(self):
        checker = make_checker("streaming")
        assert isinstance(checker, StreamingChecker)
        assert checker.window == DEFAULT_WINDOW

    def test_kwargs_reach_inner_checker(self):
        checker = StreamingChecker(window=8, checker="optimized", mode="paper")
        assert checker.inner.mode == "paper"

    def test_capabilities_mirror_inner(self):
        checker = StreamingChecker()
        assert checker.requires_dpst == checker.inner.requires_dpst
        assert checker.location_sharded == checker.inner.location_sharded

    @pytest.mark.parametrize("window", [0, -1, 2.5, "8"])
    def test_bad_window_refused(self, window):
        with pytest.raises(CheckerError):
            StreamingChecker(window=window)

    def test_unbounded_window_is_none(self):
        assert StreamingChecker(window=None).window is None

    @pytest.mark.parametrize("inner", ["velodrome", "basic", "regiontrack"])
    def test_uncompactable_checkers_refused(self, inner):
        with pytest.raises(CheckerError, match="cannot stream"):
            StreamingChecker(checker=inner)

    def test_window_without_streaming_refused_by_session(self):
        with pytest.raises(CheckerError, match="streaming=True"):
            CheckSession(recorded_trace()).check(window=8)


# ---------------------------------------------------------------------------
# Equivalence: the 36-program suite, every window
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.name)
def test_suite_streaming_equals_offline(case):
    program = case.build()
    trace = run_program(
        program, executor=SerialExecutor(), record_trace=True
    ).trace
    session = CheckSession(trace, annotations=program.annotations)
    offline = normalize_report(session.check(mode="thorough"))
    for window in WINDOWS:
        streamed = session.check(streaming=True, window=window, mode="thorough")
        assert normalize_report(streamed) == offline, (case.name, window)
        assert set(streamed.locations()) == set(case.expected), (case.name, window)


@pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.name)
def test_suite_sharded_streaming_equals_offline(case):
    """Shard workers get the task ends as well; at window 1 a task end
    reaching a shard before that task's last access there would release
    live cells and drop violations."""
    program = case.build()
    trace = run_program(
        program, executor=SerialExecutor(), record_trace=True
    ).trace
    session = CheckSession(trace, annotations=program.annotations)
    offline = normalize_report(session.check(mode="thorough"))
    for jobs in (2, 4):
        streamed = session.check(
            jobs=jobs, streaming=True, window=1, mode="thorough"
        )
        assert normalize_report(streamed) == offline, (case.name, jobs)


class TestSources:
    def test_file_sources_both_formats(self, tmp_path):
        trace = recorded_trace()
        offline = normalize_report(CheckSession(trace).check(mode="thorough"))
        for format, suffix in (("jsonl", ".jsonl"), ("columnar", ".trc")):
            path = tmp_path / ("t" + suffix)
            dump_trace(trace, str(path), format=format)
            for window in WINDOWS:
                report = CheckSession(str(path)).check(
                    streaming=True, window=window, mode="thorough"
                )
                assert normalize_report(report) == offline, (format, window)

    def test_sharded_streaming(self, tmp_path):
        trace = recorded_trace()
        offline = normalize_report(CheckSession(trace).check(mode="thorough"))
        path = tmp_path / "t.trc"
        dump_trace(trace, str(path), format="columnar")
        for source in (trace, str(path)):
            report = CheckSession(source, jobs=4).check(
                streaming=True, window=1, mode="thorough"
            )
            assert normalize_report(report) == offline

    def test_live_observer_attachment(self):
        checker = StreamingChecker(window=1)
        result = run_program(TaskProgram(buggy_body), observers=[checker])
        assert set(result.report().locations()) == {"X"}
        offline = CheckSession(TaskProgram(buggy_body)).check()
        assert normalize_report(checker.report) == normalize_report(offline)

    def test_default_window_used_when_unspecified(self):
        report = CheckSession(recorded_trace()).check(streaming=True)
        assert set(report.locations()) == {"X"}


# ---------------------------------------------------------------------------
# Compaction actually happens (and is invisible)
# ---------------------------------------------------------------------------


class TestCompaction:
    def _many_tasks_program(self):
        def body(ctx):
            def worker(inner, i):
                with inner.lock("m"):
                    value = inner.read("X")
                    inner.write("X", value + 1)
                inner.write(("private", i), i)

            ctx.write("X", 0)
            for i in range(12):
                ctx.spawn(worker, i)
                ctx.sync()

        return TaskProgram(body)

    def test_sweeps_fire_and_evict(self):
        trace = run_program(
            self._many_tasks_program(), executor=SerialExecutor(), record_trace=True
        ).trace
        recorder = MetricsRecorder()
        session = CheckSession(trace, recorder=recorder)
        session.check(streaming=True, window=1)
        counters = recorder.snapshot().counters
        assert counters["streaming.events"] == len(trace.memory_events())
        assert counters["streaming.compactions"] >= counters["streaming.events"]
        assert counters["streaming.evicted"] > 0

    def test_unbounded_window_never_sweeps(self):
        trace = recorded_trace()
        recorder = MetricsRecorder()
        CheckSession(trace, recorder=recorder).check(streaming=True, window=0)
        counters = recorder.snapshot().counters
        assert counters["streaming.compactions"] == 0
        assert counters["streaming.evicted"] == 0

    def test_peak_window_bounded_by_window(self):
        """A tighter window keeps fewer live local entries at sweep time."""
        trace = run_program(
            self._many_tasks_program(), executor=SerialExecutor(), record_trace=True
        ).trace

        def peak(window):
            recorder = MetricsRecorder()
            CheckSession(trace, recorder=recorder).check(
                streaming=True, window=window
            )
            return recorder.snapshot().counters["streaming.peak_window"]

        assert peak(1) <= peak(0)

    def test_metric_names_registered(self):
        checker = StreamingChecker(window=1)
        run_program(TaskProgram(buggy_body), observers=[checker])
        names = set(checker.metrics())
        assert names <= set(METRIC_NAMES), names - set(METRIC_NAMES)
        assert {
            "streaming.events",
            "streaming.compactions",
            "streaming.evicted",
            "streaming.peak_window",
        } <= names

    def test_events_counter_partitions_across_shards(self, tmp_path):
        """``streaming.events`` is shard-summable: jobs=4 totals jobs=1."""
        trace = recorded_trace()
        path = tmp_path / "t.trc"
        dump_trace(trace, str(path), format="columnar")

        def events(jobs):
            recorder = MetricsRecorder()
            CheckSession(str(path), jobs=jobs, recorder=recorder).check(
                streaming=True, window=2
            )
            return recorder.snapshot().counters["streaming.events"]

        assert events(1) == events(4) == len(trace.memory_events())


# ---------------------------------------------------------------------------
# Cache interaction: streaming always bypasses, loudly
# ---------------------------------------------------------------------------


class TestCacheBypass:
    def test_streaming_bypasses_result_cache(self, tmp_path):
        trace = recorded_trace()
        session = CheckSession(trace)
        session.check(streaming=True, cache_dir=str(tmp_path))
        info = session.cache_info
        assert info["requested"] and not info["applied"] and not info["hit"]
        assert "streaming" in info["reason"]
        # Nothing was stored: a later offline check through the same
        # directory must be a miss, not a bogus hit.
        offline_session = CheckSession(trace)
        offline_session.check(cache_dir=str(tmp_path))
        assert offline_session.cache_info["applied"]
        assert not offline_session.cache_info["hit"]


# ---------------------------------------------------------------------------
# Bounded memory at shard edges: every shard sees the task ends
# ---------------------------------------------------------------------------


def _churn(events):
    from benchmarks.bench_streaming import churn_trace

    return churn_trace(events)


def _streaming_counters(snapshot, jobs):
    """Per-shard streaming counters (one entry for an in-process check)."""
    if jobs == 1:
        return [snapshot.counters]
    return [shard["counters"] for shard in snapshot.shards]


class TestShardedBoundedWindows:
    """A sharded streaming check keeps each shard's window as small as the
    in-process one, at any trace size and from any source.

    Before shard workers received task ends they never released a task,
    so each shard's peak window grew with the trace (thousands of live
    entries where the in-process check holds under a hundred).
    """

    SIZES = (8_000, 32_000)
    WINDOW = 64

    @pytest.fixture(scope="class")
    def churns(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("churn")
        churns = {}
        for size in self.SIZES:
            trace = _churn(size)
            paths = {}
            for format, suffix in (("jsonl", ".jsonl"), ("columnar", ".trc")):
                paths[format] = str(tmp / f"churn-{size}{suffix}")
                dump_trace(trace, paths[format], format=format)
            offline = normalize_report(CheckSession(paths["columnar"]).check())
            churns[size] = (trace, paths, offline)
        return churns

    def streamed(self, source, jobs, **options):
        recorder = MetricsRecorder()
        report = CheckSession(source, jobs=jobs, recorder=recorder).check(
            streaming=True, window=self.WINDOW, **options
        )
        return normalize_report(report), _streaming_counters(
            recorder.snapshot(), jobs
        )

    def test_every_source_and_job_count(self, churns, tmp_path):
        _, paths, _ = churns[self.SIZES[0]]
        _, (baseline,) = self.streamed(paths["columnar"], jobs=1)
        bound = 2 * baseline["streaming.peak_window"]
        for size, (trace, paths, offline) in churns.items():
            runs = [
                (name, source, jobs, {})
                for name, source in (
                    ("v2", paths["jsonl"]),
                    ("v3", paths["columnar"]),
                    ("trace", trace),
                )
                for jobs in (2, 4)
            ]
            runs.append((
                "checkpointed", paths["columnar"], 1,
                {"checkpoint_dir": str(tmp_path / f"ck-{size}")},
            ))
            for name, source, jobs, options in runs:
                label = (size, name, jobs)
                normal, shards = self.streamed(source, jobs, **options)
                assert normal == offline, label
                assert len(shards) == jobs, label
                for counters in shards:
                    assert counters["streaming.evicted"] > 0, label
                    assert counters["streaming.peak_window"] <= bound, (
                        label, counters["streaming.peak_window"], bound
                    )


class TestShardedEventsView:
    """``TraceReader.events(shard=, jobs=)``: one shard's memory events
    plus every other event, in file order, for every trace format."""

    def program_trace(self):
        def body(ctx):
            def worker(inner, i):
                with inner.lock("m"):
                    inner.write(("slot", i % 5), i)
                inner.read(("private", i))

            for i in range(10):
                ctx.spawn(worker, i)
            ctx.sync()

        return run_program(
            TaskProgram(body), executor=SerialExecutor(), record_trace=True
        ).trace

    def files(self, trace, tmp_path):
        import json

        files = {}
        for format, suffix in (
            ("json", ".json"), ("jsonl", ".jsonl"), ("columnar", ".trc")
        ):
            files[format] = str(tmp_path / ("t" + suffix))
            dump_trace(trace, files[format], format=format)
        # A v2 file from another producer: no "sk" stamps to filter on.
        with open(files["jsonl"]) as handle:
            lines = handle.read().splitlines()
        unstamped = [lines[0]]
        for line in lines[1:]:
            row = json.loads(line)
            row.pop("sk", None)
            unstamped.append(json.dumps(row))
        files["jsonl-unstamped"] = str(tmp_path / "unstamped.jsonl")
        with open(files["jsonl-unstamped"], "w") as handle:
            handle.write("\n".join(unstamped) + "\n")
        return files

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_partition_and_lifecycle_order(self, tmp_path, jobs):
        from repro.checker.sharded import shard_for_location
        from repro.runtime.events import MemoryEvent
        from repro.trace.serialize import open_trace

        trace = self.program_trace()
        for format, path in self.files(trace, tmp_path).items():
            with open_trace(path) as reader:
                full = list(reader.events())
                memory = list(reader.memory_events())
                lifecycle = [e for e in full if not isinstance(e, MemoryEvent)]
                assert lifecycle, format
                owned = []
                for shard in range(jobs):
                    view = list(reader.events(shard=shard, jobs=jobs))
                    assert view == [
                        e for e in full
                        if not isinstance(e, MemoryEvent)
                        or shard_for_location(e.location, jobs) == shard
                    ], (format, shard)
                    assert [
                        e for e in view if not isinstance(e, MemoryEvent)
                    ] == lifecycle, (format, shard)
                    owned.extend(e for e in view if isinstance(e, MemoryEvent))
                assert sorted(owned, key=lambda e: e.seq) == memory, format
                assert len(owned) == len(memory), format


class TestAnnotationKeyedShards:
    """Grouped annotations re-key every decoded line in the worker; the
    task ends must still reach each shard through that path."""

    def program(self):
        from repro.checker.annotations import AtomicAnnotations

        def audit(ctx):
            ctx.read("checking")
            ctx.read("savings")

        def move(ctx):
            ctx.write("checking", 0)
            ctx.write("savings", 100)

        def churn(ctx, i):
            ctx.write(("slot", i % 8), i)
            ctx.read(("slot", i % 8))

        def main(ctx):
            ctx.spawn(audit)
            ctx.spawn(move)
            ctx.sync()
            for i in range(64):
                ctx.spawn(churn, i)
                if i % 8 == 7:
                    ctx.sync()

        annotations = (
            AtomicAnnotations()
            .annotate_group("account", ["checking", "savings"])
            .annotate_prefix("slot")
        )
        return TaskProgram(
            main,
            initial_memory={"checking": 100, "savings": 0},
            annotations=annotations,
        )

    def test_keyed_file_worker_streams_lifecycle(self, tmp_path):
        program = self.program()
        trace = run_program(
            program, executor=SerialExecutor(), record_trace=True
        ).trace
        offline = normalize_report(
            CheckSession(trace, annotations=program.annotations).check()
        )
        assert offline  # the cross-variable violation exists
        for format, suffix in (("jsonl", ".jsonl"), ("columnar", ".trc")):
            path = str(tmp_path / ("t" + suffix))
            dump_trace(trace, path, format=format)
            for source in (path, trace):
                recorder = MetricsRecorder()
                report = CheckSession(
                    source, jobs=2, annotations=program.annotations,
                    recorder=recorder,
                ).check(streaming=True, window=1)
                assert normalize_report(report) == offline, format
                shards = recorder.snapshot().shards
                assert len(shards) == 2, format
                for shard in shards:
                    assert shard["counters"]["streaming.evicted"] > 0, format
