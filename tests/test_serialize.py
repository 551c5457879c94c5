"""Trace serialization round-trips and format guards."""

import json

import pytest

from repro.checker import OptAtomicityChecker
from repro.errors import TraceError
from repro.runtime import TaskProgram, run_program
from repro.trace.replay import replay_trace
from repro.trace.serialize import (
    decode_location,
    dpst_from_dict,
    dpst_to_dict,
    dump_trace,
    encode_location,
    event_from_dict,
    event_to_dict,
    load_trace,
    trace_from_dict,
)

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


class TestLocationEncoding:
    @pytest.mark.parametrize(
        "location",
        ["X", 7, 3.5, None, True, ("a", 1), ("grid", 2, 3), (("deep", 1), "x")],
    )
    def test_roundtrip(self, location):
        assert decode_location(encode_location(location)) == location

    def test_tuple_stays_tuple(self):
        decoded = decode_location(encode_location(("a", 1)))
        assert isinstance(decoded, tuple)

    def test_unserializable_rejected(self):
        with pytest.raises(TraceError):
            encode_location(object())

    def test_malformed_rejected(self):
        with pytest.raises(TraceError):
            decode_location({"bogus": 1})


class TestDpstRoundtrip:
    def test_structure_preserved(self):
        result = recorded_run()
        rebuilt = dpst_from_dict(dpst_to_dict(result.dpst))
        assert len(rebuilt) == len(result.dpst)
        for node in result.dpst.nodes():
            assert rebuilt.kind(node) == result.dpst.kind(node)
            assert rebuilt.parent(node) == result.dpst.parent(node)
            assert rebuilt.sibling_rank(node) == result.dpst.sibling_rank(node)

    def test_bad_root_rejected(self):
        with pytest.raises(TraceError):
            dpst_from_dict({"layout": "array", "kinds": [0], "parents": [-1]})


class TestEventRoundtrip:
    def test_all_events_roundtrip(self):
        result = recorded_run()
        for event in result.recorder.events:
            clone = event_from_dict(event_to_dict(event))
            assert clone == event

    def test_unknown_type_rejected(self):
        with pytest.raises(TraceError):
            event_from_dict({"type": "MysteryEvent"})


class TestTraceRoundtrip:
    def test_dict_roundtrip_is_json_safe(self, tmp_path):
        result = recorded_run()
        path = write_v1_trace(result.trace, tmp_path / "trace.json")
        with open(path, encoding="utf-8") as handle:
            rehydrated = trace_from_dict(json.load(handle))
        assert len(rehydrated) == len(result.trace)
        rehydrated.validate()

    def test_file_roundtrip(self, tmp_path):
        result = recorded_run()
        path = str(tmp_path / "trace.json")
        dump_trace(result.trace, path)
        loaded = load_trace(path)
        assert [e.seq for e in loaded.memory_events()] == [
            e.seq for e in result.trace.memory_events()
        ]

    def test_replay_after_roundtrip_same_verdict(self, tmp_path):
        result = recorded_run()
        path = str(tmp_path / "trace.json")
        dump_trace(result.trace, path)
        loaded = load_trace(path)
        original = replay_trace(result.trace, OptAtomicityChecker())
        replayed = replay_trace(loaded, OptAtomicityChecker())
        assert set(replayed.locations()) == set(original.locations())

    def test_version_guard(self):
        with pytest.raises(TraceError):
            trace_from_dict({"version": 99, "events": []})
