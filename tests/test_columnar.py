"""The columnar (v3) trace format: writer, reader, sniffing, sharding."""

import json
import os
import struct

import pytest

from repro.errors import TraceError
from repro.runtime import TaskProgram, run_program
from repro.runtime.events import (
    AcquireEvent,
    MemoryEvent,
    ReleaseEvent,
    SyncEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSpawnEvent,
)
from repro.trace.columnar import (
    COLUMNAR_MAGIC,
    ColumnarTraceReader,
    ColumnarTraceWriter,
    dump_trace_columnar,
    is_columnar_trace,
)
from repro.trace.serialize import (
    TraceReader,
    dump_trace,
    dump_trace_jsonl,
    is_jsonl_trace,
    load_trace,
    open_trace,
)
from repro.trace.trace import Trace

from tests.conftest import write_v1_trace


def recorded_run():
    def child(ctx, i):
        with ctx.lock("L"):
            ctx.add(("cell", i % 2), 1)

    def main(ctx):
        for i in range(3):
            ctx.spawn(child, i)
        ctx.sync()

    return run_program(
        TaskProgram(main, initial_memory={("cell", 0): 0, ("cell", 1): 0}),
        record_trace=True,
    )


@pytest.fixture
def trace():
    return recorded_run().trace


def event_rows(events):
    """Comparable rows: every field of every event, in order."""
    return [(type(e).__name__,) + tuple(vars(e).values()) for e in events]


class TestRoundTrip:
    def test_every_event_type_survives(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        loaded = load_trace(path)
        assert event_rows(loaded.events) == event_rows(trace.events)
        assert len(loaded.dpst) == len(trace.dpst)
        loaded.validate()

    def test_all_seven_event_kinds_covered(self, trace):
        # The fixture must keep exercising every tag the format encodes.
        kinds = {type(e) for e in trace.events}
        assert kinds == {
            TaskSpawnEvent, TaskBeginEvent, TaskEndEvent, SyncEvent,
            MemoryEvent, AcquireEvent, ReleaseEvent,
        }

    def test_exotic_locations(self, tmp_path):
        # Locations that collide under == / hash (1, 1.0, True) must
        # intern separately; floats, None, and nesting must round-trip.
        locations = [
            1, 1.0, True, 0, False, None, "x",
            ("a", 0.5, None), ("a", ("b", False)),
        ]
        events = [
            MemoryEvent(i, 0, i, loc, "read", ()) for i, loc in
            enumerate(locations)
        ]
        path = str(tmp_path / "t.trc")
        with ColumnarTraceWriter(path) as writer:
            writer.write_all(events)
        loaded = list(ColumnarTraceReader(path).events())
        got = [e.location for e in loaded]
        assert [repr(l) for l in got] == [repr(l) for l in locations]

    def test_locksets_survive(self, tmp_path):
        events = [
            MemoryEvent(0, 0, 0, "x", "write", ("L", "M")),
            MemoryEvent(1, 1, 0, "x", "write", ()),
            MemoryEvent(2, 2, 0, "x", "write", ("L",)),
        ]
        path = str(tmp_path / "t.trc")
        with ColumnarTraceWriter(path) as writer:
            writer.write_all(events)
        loaded = list(ColumnarTraceReader(path).events())
        assert [e.lockset for e in loaded] == [("L", "M"), (), ("L",)]

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(Trace([]), path)
        reader = ColumnarTraceReader(path)
        assert reader.count == 0
        assert list(reader.events()) == []
        assert list(reader.memory_events(shard=0, jobs=4)) == []

    def test_dpst_free_trace(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        with ColumnarTraceWriter(path) as writer:
            writer.write_all(trace.events)
        reader = open_trace(path)
        assert reader.dpst is None
        assert len(list(reader.events())) == len(trace.events)

    def test_uncompressed_frames(self, trace, tmp_path):
        plain = str(tmp_path / "plain.trc")
        packed = str(tmp_path / "packed.trc")
        dump_trace_columnar(trace, plain, compress=False)
        dump_trace_columnar(trace, packed, compress=True)
        assert event_rows(load_trace(plain).events) == event_rows(
            load_trace(packed).events
        )

    def test_small_frames_flush_correctly(self, trace, tmp_path):
        for frame_events in (1, 2, len(trace.events), 10_000):
            path = str(tmp_path / f"t{frame_events}.trc")
            dump_trace_columnar(trace, path, frame_events=frame_events)
            assert len(load_trace(path)) == len(trace)

    def test_multiple_passes(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        reader = open_trace(path)
        first = [e.seq for e in reader.events()]
        second = [e.seq for e in reader.events()]
        assert first == second == [e.seq for e in trace.events]


class TestWriter:
    def test_closed_writer_rejects_events(self, trace, tmp_path):
        writer = ColumnarTraceWriter(str(tmp_path / "t.trc"))
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(TraceError):
            writer.write(trace.events[0])

    def test_bad_frame_events(self, tmp_path):
        with pytest.raises(TraceError):
            ColumnarTraceWriter(str(tmp_path / "t.trc"), frame_events=0)

    def test_unknown_event_type_rejected(self, tmp_path):
        path = str(tmp_path / "t.trc")
        with ColumnarTraceWriter(path) as writer:
            with pytest.raises(TraceError):
                writer.write(object())
            writer.close()

    def test_unserializable_location_rejected_eagerly(self, tmp_path):
        writer = ColumnarTraceWriter(str(tmp_path / "t.trc"))
        with pytest.raises(TraceError):
            writer.write(MemoryEvent(0, 0, 0, {"not": "hashable-loc"}, "read", ()))
        writer.discard()

    def test_publish_is_atomic(self, trace, tmp_path):
        # Nothing appears at the target path until close(); the temp
        # sibling disappears after publication.
        path = str(tmp_path / "t.trc")
        writer = ColumnarTraceWriter(path, dpst=trace.dpst)
        writer.write_all(trace.events)
        assert not os.path.exists(path)
        assert any(n.startswith("t.trc.tmp.") for n in os.listdir(tmp_path))
        writer.close()
        assert os.path.exists(path)
        assert os.listdir(tmp_path) == ["t.trc"]

    def test_context_manager_discards_on_error(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        with pytest.raises(RuntimeError):
            with ColumnarTraceWriter(path) as writer:
                writer.write_all(trace.events)
                raise RuntimeError("recording failed")
        assert os.listdir(tmp_path) == []  # no trace, no temp litter

    def test_discard_is_idempotent(self, tmp_path):
        writer = ColumnarTraceWriter(str(tmp_path / "t.trc"))
        writer.discard()
        writer.discard()
        assert os.listdir(tmp_path) == []


class TestSharding:
    def shards(self, reader, jobs):
        return [
            [e.seq for e in reader.memory_events(shard=s, jobs=jobs)]
            for s in range(jobs)
        ]

    def test_shards_partition_the_memory_events(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        shards = self.shards(open_trace(path), 3)
        merged = sorted(seq for shard in shards for seq in shard)
        assert merged == [e.seq for e in trace.memory_events()]

    def test_v2_and_v3_assign_identical_shards(self, trace, tmp_path):
        # The footer shard keys must agree with the v2 "sk" stamps --
        # a checkpointed v2 run must be resumable against a v3 copy.
        v2 = str(tmp_path / "t.jsonl")
        v3 = str(tmp_path / "t.trc")
        dump_trace_jsonl(trace, v2)
        dump_trace_columnar(trace, v3)
        for jobs in (1, 2, 4, 7):
            assert self.shards(open_trace(v2), jobs) == self.shards(
                open_trace(v3), jobs
            )

    def test_unsharded_memory_stream(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        streamed = list(open_trace(path).memory_events())
        assert event_rows(streamed) == event_rows(list(trace.memory_events()))


class TestSniffing:
    def test_magic_prefix(self, trace, tmp_path):
        v1 = write_v1_trace(trace, tmp_path / "t.json")
        v2 = str(tmp_path / "t.jsonl")
        v3 = str(tmp_path / "t.trc")
        dump_trace(trace, v2, format="jsonl")
        dump_trace(trace, v3, format="columnar")
        assert is_columnar_trace(v3)
        assert not is_columnar_trace(v1)
        assert not is_columnar_trace(v2)
        assert not is_jsonl_trace(v3)

    def test_missing_file_is_not_columnar(self, tmp_path):
        assert not is_columnar_trace(str(tmp_path / "absent.trc"))

    def test_extension_does_not_matter(self, trace, tmp_path):
        path = str(tmp_path / "mislabeled.jsonl")
        dump_trace(trace, path, format="columnar")
        assert is_columnar_trace(path)
        assert TraceReader(path).version == 3

    def test_trc_extension_selects_columnar_automatically(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace(trace, path)  # format="auto"
        assert is_columnar_trace(path)


class TestFrontDoor:
    """v3 files flow through the same TraceReader facade as v1/v2."""

    def test_reader_delegates(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        reader = TraceReader(path)
        assert reader.version == 3
        assert len(reader.dpst) == len(trace.dpst)
        assert len(reader.read()) == len(trace)
        assert len(list(reader.memory_events(shard=0, jobs=1))) == len(
            trace.memory_events()
        )
        assert reader.lines_skipped == 0

    def test_facade_close_reaches_the_v3_reader(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        with open_trace(path) as reader:
            next(reader.events())
        assert reader.closed
        with pytest.raises(TraceError):
            list(reader.events())

    def test_closed_v3_reader_refuses_sharded_streams(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        reader = open_trace(path)
        reader.close()
        with pytest.raises(TraceError):
            list(reader.memory_events(shard=0, jobs=2))


class TestCorruption:
    def dump(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path, frame_events=4)
        return path

    def test_truncated_trailer(self, trace, tmp_path):
        path = self.dump(trace, tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-4])
        with pytest.raises(TraceError) as err:
            ColumnarTraceReader(path)
        assert "t.trc" in str(err.value)

    def test_magicless_file(self, trace, tmp_path):
        path = str(tmp_path / "bad.trc")
        open(path, "wb").write(b"definitely not a trace")
        with pytest.raises(TraceError):
            ColumnarTraceReader(path)

    def test_header_only_file(self, tmp_path):
        path = str(tmp_path / "torn.trc")
        open(path, "wb").write(COLUMNAR_MAGIC)
        with pytest.raises(TraceError):
            ColumnarTraceReader(path)

    def corrupt_first_frame(self, path):
        reader = ColumnarTraceReader(path)
        offset, _ = reader._frames[0]
        reader.close()
        with open(path, "r+b") as handle:
            handle.seek(offset + struct.calcsize("<BII"))
            handle.write(b"\xff" * 8)  # stomp the compressed payload
        return path

    def test_strict_reader_raises_on_bad_frame(self, trace, tmp_path):
        path = self.corrupt_first_frame(self.dump(trace, tmp_path))
        with pytest.raises(TraceError):
            list(open_trace(path).events())

    def test_lenient_reader_skips_frames_and_counts(self, trace, tmp_path):
        path = self.corrupt_first_frame(self.dump(trace, tmp_path))
        reader = open_trace(path, strict=False)
        events = list(reader.events())
        assert len(events) == len(trace.events) - 4  # one 4-event frame lost
        assert reader.lines_skipped == 4

    def test_lenient_sharded_scan_skips_frames_too(self, trace, tmp_path):
        path = self.corrupt_first_frame(self.dump(trace, tmp_path))
        reader = open_trace(path, strict=False)
        list(reader.memory_events(shard=0, jobs=2))
        assert reader.lines_skipped == 4


class TestStreamingLenientCounting:
    """Streaming must not disturb the skipped-frame accounting.

    The jobs>1 pipeline counts skipped lines on shard 0 only (every
    worker re-scans the whole file, so summing would multiply the
    count); a jobs=1 streaming check counts the reader's delta directly.
    Both paths must land on the same ``trace.lines_skipped`` total --
    and on the same report, since both lost the same frame.
    """

    def damaged(self, trace, tmp_path):
        helper = TestCorruption()
        return helper.corrupt_first_frame(helper.dump(trace, tmp_path))

    def checked(self, path, jobs):
        from repro import CheckSession
        from repro.obs import MetricsRecorder

        recorder = MetricsRecorder()
        session = CheckSession(path, jobs=jobs, recorder=recorder, strict=False)
        report = session.check(streaming=True, window=1)
        return report, recorder.snapshot().counters

    def test_lines_skipped_equal_across_job_counts(self, trace, tmp_path):
        from repro.report import normalize_report

        path = self.damaged(trace, tmp_path)
        report_one, counters_one = self.checked(path, jobs=1)
        report_four, counters_four = self.checked(path, jobs=4)
        assert counters_one["trace.lines_skipped"] == 4
        assert counters_four["trace.lines_skipped"] == 4
        assert normalize_report(report_four) == normalize_report(report_one)


class TestDumpTraceDispatch:
    def test_explicit_format(self, trace, tmp_path):
        path = str(tmp_path / "t.dat")
        dump_trace(trace, path, format="columnar")
        assert is_columnar_trace(path)
        assert len(load_trace(path)) == len(trace)

    def test_v3_file_is_binary_not_json(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        with pytest.raises(ValueError):
            json.loads(open(path, "rb").read().decode("utf-8", "replace"))
