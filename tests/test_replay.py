"""Trace replay: offline == online, and permutation invariance.

The optimized checker's verdict must be identical when a recorded trace is
replayed in any *legal* alternative order (a schedule the explorer deems
possible) -- the operational form of the paper's schedule-insensitivity
claim.
"""

import pytest

from repro.checker import (
    BasicAtomicityChecker,
    ExploringVelodrome,
    OptAtomicityChecker,
    VelodromeChecker,
)
from repro.errors import TraceError
from repro.report import normalize_report
from repro.runtime import TaskProgram, run_program
from repro.session import CheckSession
from repro.suite import all_cases
from repro.trace.explore import InterleavingExplorer
from repro.trace.replay import checker_events, replay_memory_events, replay_trace
from repro.trace.serialize import dump_trace, open_trace
from repro.trace.trace import Trace


def record(body, initial=None):
    result = run_program(
        TaskProgram(body, initial_memory=initial or {}), record_trace=True
    )
    return result


def rmw_vs_writer(ctx):
    def rmw(inner):
        value = inner.read("X")
        inner.write("X", value + 1)

    def writer(inner):
        inner.write("X", 100)

    ctx.spawn(rmw)
    ctx.spawn(writer)
    ctx.sync()


class TestOfflineEqualsOnline:
    @pytest.mark.parametrize(
        "make_checker",
        [OptAtomicityChecker, BasicAtomicityChecker, VelodromeChecker],
        ids=["optimized", "basic", "velodrome"],
    )
    def test_replay_matches_live(self, make_checker):
        live_checker = make_checker()
        result = run_program(
            TaskProgram(rmw_vs_writer), observers=[live_checker], record_trace=True
        )
        replayed = replay_trace(result.trace, make_checker())
        assert set(replayed.locations()) == set(live_checker.report.locations())
        assert len(replayed) == len(live_checker.report)


@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.name)
def test_offline_explorer_matches_live(case):
    """The schedule explorer also gets the trace's lock events offline:
    without them it enumerates schedules the locks forbid."""
    program = case.build()
    live = ExploringVelodrome()
    result = run_program(program, observers=[live], record_trace=True)
    expected = normalize_report(live.report)
    annotations = program.annotations
    replayed = replay_trace(
        result.trace, ExploringVelodrome(), annotations=annotations
    )
    checked = CheckSession(
        result.trace, checker="velodrome+explorer", annotations=annotations
    ).check()
    assert normalize_report(replayed) == expected
    assert normalize_report(checked) == expected


def test_memory_only_checkers_get_memory_events_only(tmp_path):
    """Lifecycle-free checkers read no task or lock event, so a v3 reader
    decodes only the memory frames for them."""
    result = record(rmw_vs_writer)
    path = str(tmp_path / "t.trc")
    dump_trace(result.trace, path)
    with open_trace(path) as reader:
        events = list(checker_events(reader, OptAtomicityChecker()))
    assert events == result.trace.memory_events()
    assert list(checker_events(result.trace, ExploringVelodrome())) == (
        result.trace.events
    )


class TestPermutationInvariance:
    def test_every_legal_order_same_verdict(self):
        result = record(rmw_vs_writer)
        explorer = InterleavingExplorer(result.trace)
        verdicts = set()
        for schedule in explorer.schedules():
            checker = OptAtomicityChecker()
            report = replay_memory_events(schedule, checker, dpst=result.trace.dpst)
            verdicts.add(frozenset(report.locations()))
        assert verdicts == {frozenset({"X"})}

    def test_velodrome_is_order_sensitive(self):
        """The contrast: some legal orders show Velodrome the cycle, the
        serial ones do not."""
        result = record(rmw_vs_writer)
        explorer = InterleavingExplorer(result.trace)
        verdicts = set()
        for schedule in explorer.schedules():
            checker = VelodromeChecker()
            report = replay_memory_events(schedule, checker)
            verdicts.add(bool(report))
        assert verdicts == {True, False}


class TestReplayGuards:
    def test_dpst_checker_requires_tree(self):
        trace = Trace([], dpst=None)
        with pytest.raises(TraceError):
            replay_trace(trace, OptAtomicityChecker())

    def test_velodrome_replays_without_tree(self):
        trace = Trace([], dpst=None)
        report = replay_trace(trace, VelodromeChecker())
        assert not report
