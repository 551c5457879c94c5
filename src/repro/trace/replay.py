"""Offline replay of traces through checkers.

The checkers are runtime observers, but their verdicts rest only on the
memory events plus the DPST -- so any recorded (or generated, or
permuted) trace can be fed to them without re-executing a program.
Replay is what lets the test suite demonstrate the paper's
schedule-insensitivity claim: permuting the legal order of a trace's
events never changes the optimized checker's verdict, while it very much
changes Velodrome's.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.checker.annotations import AtomicAnnotations
from repro.dpst.base import DPSTBase
from repro.dpst.engines import make_engine
from repro.errors import TraceError
from repro.report import ViolationReport
from repro.runtime.events import (
    AcquireEvent,
    MemoryEvent,
    ReleaseEvent,
    SyncEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSpawnEvent,
)
from repro.runtime.executor import RunContext
from repro.runtime.observer import RuntimeObserver
from repro.runtime.shadow import ShadowMemory
from repro.runtime.locks import LockTable
from repro.trace.trace import Trace


def _make_context(
    dpst: Optional[DPSTBase],
    annotations: Optional[AtomicAnnotations],
    lca_cache: bool = True,
    parallel_engine: str = "lca",
    recorder=None,
) -> RunContext:
    if dpst is None:
        engine = None
    else:
        # Registry resolution: raises UnknownEngineError (a CheckerError
        # and ValueError) naming the valid engines.
        engine = make_engine(parallel_engine, dpst, cache=lca_cache)
    return RunContext(
        dpst=dpst,
        engine=engine,
        shadow=ShadowMemory(),
        locks=LockTable(),
        annotations=annotations or AtomicAnnotations(),
        parallel_engine=parallel_engine,
        recorder=recorder,
    )


#: Observer hook for each non-memory event type (memory goes to on_memory).
_LIFECYCLE_HOOKS = (
    (TaskEndEvent, "on_task_end"),
    (TaskSpawnEvent, "on_task_spawn"),
    (TaskBeginEvent, "on_task_begin"),
    (SyncEvent, "on_sync"),
    (AcquireEvent, "on_acquire"),
    (ReleaseEvent, "on_release"),
)


def replay_events(
    events: Iterable[object],
    checker: RuntimeObserver,
    dpst: Optional[DPSTBase] = None,
    annotations: Optional[AtomicAnnotations] = None,
    lca_cache: bool = True,
    parallel_engine: str = "lca",
    recorder=None,
) -> ViolationReport:
    """Feed *events* (in the given order) to *checker*; return its report.

    Each event goes to the matching observer hook: memory accesses to
    ``on_memory``, task, sync and lock events to ``on_task_end`` and its
    siblings; unknown event types are ignored.  A memory-only stream is
    the common case -- plain checkers consume nothing else.  Streaming
    checkers also want the task lifecycle: a ``TaskEndEvent`` proves a
    task's local metadata dead, letting the windowed compaction sweep
    reclaim it (see :class:`repro.checker.streaming.StreamingChecker`).

    *dpst* is required for checkers that issue parallelism queries (the
    basic and optimized checkers); Velodrome replays happily without one
    because the events already carry their step ids.  *events* may be any
    iterable, including a streaming generator over a trace file that never
    materializes the full event list.

    *recorder* is an optional :class:`repro.obs.Recorder`.  When enabled,
    the replay runs under a ``"replay"`` span, counts the memory events
    routed as ``trace.events.routed`` (so the counter is the same whether
    or not the stream carries lifecycle events), and flushes the checker's
    and engine's accumulated counters at the end.  When disabled (or
    ``None``) observability costs nothing it does not use.
    """
    needs_tree = getattr(checker, "requires_lca", checker.requires_dpst)
    if needs_tree and dpst is None:
        raise TraceError(
            f"{type(checker).__name__} needs the producing DPST to replay"
        )
    context = _make_context(dpst, annotations, lca_cache, parallel_engine, recorder)
    hooks = {
        kind: getattr(checker, name)
        for kind, name in _LIFECYCLE_HOOKS
        if hasattr(checker, name)
    }

    def drive() -> int:
        routed = 0
        on_memory = checker.on_memory
        for event in events:
            if type(event) is MemoryEvent:
                on_memory(event)
                routed += 1
            else:
                hook = hooks.get(type(event))
                if hook is not None:
                    hook(event)
        return routed

    checker.on_run_begin(context)
    if recorder is not None and recorder.enabled:
        from repro.obs import (
            SPAN_REPLAY,
            flush_engine_stats,
            flush_observer_metrics,
        )

        with recorder.span(SPAN_REPLAY):
            routed = drive()
        checker.on_run_end(context)
        recorder.count("trace.events.routed", routed)
        flush_observer_metrics(recorder, checker)
        flush_engine_stats(recorder, context.engine)
    else:
        drive()
        checker.on_run_end(context)
    report = getattr(checker, "report", None)
    if not isinstance(report, ViolationReport):
        raise TraceError(f"{type(checker).__name__} exposes no report")
    return report


#: The historical name, from when memory-only streams had their own body.
replay_memory_events = replay_events


def checker_events(
    source,
    checker: RuntimeObserver,
    shard: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Iterable[object]:
    """The event stream the built *checker* consumes from *source*.

    An observer with ``lifecycle = True`` (the streaming checker, the
    schedule explorer) gets the full stream; every other checker gets the
    memory events only.  *source* is a :class:`Trace`, returned whole, or
    a :class:`~repro.trace.serialize.TraceReader`, for which
    ``shard``/``jobs`` keep one shard's memory events (and, for the full
    stream, every non-memory event).
    """
    if isinstance(source, Trace):
        return source.events if checker.lifecycle else source.memory_events()
    view = source.events if checker.lifecycle else source.memory_events
    return view(shard=shard, jobs=jobs)


def replay_trace(
    trace: Trace,
    checker: RuntimeObserver,
    annotations: Optional[AtomicAnnotations] = None,
    lca_cache: bool = True,
    parallel_engine: str = "lca",
    recorder=None,
) -> ViolationReport:
    """Replay a full :class:`Trace` through *checker*: the events
    :func:`checker_events` selects for it."""
    return replay_events(
        checker_events(trace, checker),
        checker,
        dpst=trace.dpst,
        annotations=annotations,
        lca_cache=lca_cache,
        parallel_engine=parallel_engine,
        recorder=recorder,
    )
