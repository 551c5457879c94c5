"""Location-sharded parallel trace checking.

The optimized checker's state (paper Figures 6-9) is keyed entirely by
location: one :class:`~repro.checker.metadata.GlobalSpace` per location
and one :class:`~repro.checker.metadata.LocalCell` per (task, location).
Against an immutable, fully-built DPST the analysis of one location never
reads or writes another location's metadata, so a recorded trace can be
partitioned by location hash and each shard checked in its own process --
the verdict is the union of the per-shard verdicts.  The same holds for
the basic checker (per-location access histories) and the race detector
(per-location shadow cells); such observers advertise it with
``location_sharded = True``.  Velodrome does *not* qualify: its
happens-before graph spans locations, and sharding would silently drop
cross-location cycles, so its check plan is refused for ``jobs > 1``.

Sharding key: multi-variable annotation groups share one metadata cell, so
events are bucketed by ``annotations.metadata_key(location)`` -- a group's
members always land in the same shard.

Two input shapes:

* an in-memory :class:`~repro.trace.trace.Trace` -- events are partitioned
  in the parent and shipped to workers (with the DPST flattened once);
* a trace *file path* -- each worker streams the file itself through
  :class:`~repro.trace.serialize.TraceReader` and keeps only its shard, so
  the parent never materializes the events and traces larger than RAM can
  be checked.

Workers replay their shard with :func:`repro.trace.replay.replay_events`
and return a :class:`~repro.report.ViolationReport`; the driver merges them
with :meth:`ViolationReport.merge`.  A shard holds its own memory events;
a streaming checker's shard also holds every task lifecycle event, in
trace order (:func:`~repro.trace.replay.checker_events`), so each worker
releases finished tasks and its memory stays O(window).  The one entry
point is :func:`run_plan`, which runs a built
:class:`~repro.plan.CheckPlan`.

Static prefilter: ``skip_locations`` (normally produced by
``repro.static.lint`` serial-location proofs, via
``CheckSession.check(static_prefilter=...)``) drops every memory event on
those locations before replay -- in the parent for in-memory sources, in
each worker for streamed files, so ``jobs=1`` and ``jobs=N`` drop (and
count) exactly the same events.  The driver never decides *whether*
skipping is sound; callers must only pass locations proven
schedule-serial.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Hashable, Iterable, List, Optional, Tuple, Union

from repro.checker import make_checker
from repro.checker.annotations import AtomicAnnotations
from repro.checker.supervisor import (
    CheckpointStore,
    ShardOutcome,
    ShardTask,
    WorkerPolicy,
    maybe_inject_fault,
    run_supervised,
)
from repro.errors import CheckerError, TraceError
from repro.plan import CheckPlan, default_jobs  # noqa: F401 -- re-exported
from repro.report import ViolationReport
from repro.runtime.events import MemoryEvent
from repro.trace.replay import checker_events, replay_events
from repro.trace.serialize import (
    TraceReader,
    dpst_from_dict,
    dpst_to_dict,
    location_shard_key,
    open_trace,
)
from repro.trace.trace import Trace

Location = Hashable

#: Any form :func:`repro.checker.make_checker` accepts.
CheckerSpec = Any

TraceSource = Union[Trace, TraceReader, str, "os.PathLike[str]"]

#: Locations whose events the driver may drop (proven schedule-serial).
SkipLocations = Optional[frozenset]


def filter_skipped(
    events: Iterable[MemoryEvent],
    skip_locations: frozenset,
    recorder=None,
) -> Iterable[MemoryEvent]:
    """Drop events on *skip_locations*, counting every drop.

    The count lands on *recorder* (when enabled) as
    ``static.prefilter.events_skipped`` (one per drop, historical name)
    and ``static.prefilter.dropped_events`` (same value, the
    per-location prefilter's counter family) -- in the parent for
    in-memory sources and ``jobs=1``, in the worker snapshot for
    streamed shards, so the summed totals match across job counts.
    """
    counting = recorder is not None and recorder.enabled
    for event in events:
        if isinstance(event, MemoryEvent) and event.location in skip_locations:
            if counting:
                recorder.count("static.prefilter.events_skipped")
                recorder.count("static.prefilter.dropped_events")
            continue
        yield event


def shard_for_location(location: Location, jobs: int) -> int:
    """Deterministic shard index of *location* in ``[0, jobs)``.

    Keys on :func:`~repro.trace.serialize.location_shard_key` (CRC-32 of
    the location's ``repr``) rather than Python's builtin ``hash``: string
    hashing is randomized per process (PYTHONHASHSEED), and every worker
    process must agree on the partition.  The same key is stamped on v2
    trace lines, so file-streaming workers route lines without decoding
    them.
    """
    if jobs <= 1:
        return 0
    return location_shard_key(location) % jobs


def _shard_of(event: MemoryEvent, jobs: int, annotations) -> int:
    """Shard of *event*, keyed on its annotation group when *annotations*
    is given (members of a multi-variable group share a metadata cell)."""
    location = event.location
    if annotations is not None:
        location = annotations.metadata_key(location)
    return shard_for_location(location, jobs)


def partition_events(
    events: Iterable[object],
    jobs: int,
    annotations: Optional[AtomicAnnotations] = None,
) -> List[List[object]]:
    """Bucket *events* into ``jobs`` shards.

    Each memory event goes to its location's shard; every other event is
    copied into every shard.  Relative order within each shard is trace
    order.  With non-trivial *annotations*, bucketing keys on
    ``metadata_key`` so every member of a multi-variable group shares a
    shard (they share a metadata cell).
    """
    shards: List[List[object]] = [[] for _ in range(jobs)]
    if annotations is not None and annotations.trivial:
        annotations = None
    for event in events:
        if isinstance(event, MemoryEvent):
            shards[_shard_of(event, jobs, annotations)].append(event)
        else:
            for shard in shards:
                shard.append(event)
    return shards


@dataclass(frozen=True)
class ShardReplay:
    """What every shard of one check replays with: the plan, plus the
    source-side settings a plan does not carry.

    Picklable and shipped to every worker; each worker unpickles its own
    copy of an instance checker spec, so sharing a pre-built instance
    across shards is safe -- every shard replays into private state.
    """

    plan: CheckPlan
    annotations: Optional[AtomicAnnotations]
    lca_cache: bool
    skip_locations: SkipLocations
    strict: bool
    collect: bool

    def replay(self, events: Iterable[object], checker, dpst, recorder):
        return replay_events(
            events,
            checker,
            dpst=dpst,
            annotations=self.annotations,
            lca_cache=self.lca_cache,
            parallel_engine=self.plan.engine,
            recorder=recorder,
        )


# -- worker bodies (top level so multiprocessing can pickle them) -----------


def _worker_recorder(collect: bool):
    """A per-shard :class:`~repro.obs.MetricsRecorder`, or ``None``.

    Workers never share a recorder with the parent -- each shard records
    into a private snapshot that travels back as a plain dict and is
    merged by :meth:`repro.obs.MetricsRecorder.add_shard`.
    """
    if not collect:
        return None
    from repro.obs import MetricsRecorder

    return MetricsRecorder()


def _worker_snapshot(recorder, elapsed: float):
    """Finalize a worker recorder into its wire-format snapshot dict."""
    if recorder is None:
        return None
    recorder.gauge("worker.elapsed_s", elapsed)
    recorder.gauge("worker.pid", float(os.getpid()))
    return recorder.snapshot().to_dict()


def _check_shard_events(
    payload: Tuple[int, ShardReplay, Optional[dict], List[object]],
    attempt: int = 0,
) -> Tuple[ViolationReport, Optional[dict]]:
    """Replay one pre-partitioned shard of in-memory events."""
    shard_id, run, dpst_dict, events = payload
    maybe_inject_fault(shard_id, attempt)
    dpst = None if dpst_dict is None else dpst_from_dict(dpst_dict)
    recorder = _worker_recorder(run.collect)
    started = time.perf_counter()
    checker = make_checker(run.plan.analysis)
    report = run.replay(events, checker, dpst, recorder)
    return report, _worker_snapshot(recorder, time.perf_counter() - started)


def _check_shard_from_file(
    payload: Tuple[int, ShardReplay, str], attempt: int = 0
) -> Tuple[ViolationReport, Optional[dict]]:
    """Stream a trace file and replay only this worker's shard."""
    shard_id, run, path = payload
    jobs = run.plan.jobs
    annotations = run.annotations
    maybe_inject_fault(shard_id, attempt)
    reader = TraceReader(path, strict=run.strict)
    try:
        checker = make_checker(run.plan.analysis)
        if annotations is not None and not annotations.trivial:
            # Group-aware key: the line's "sk" stamp (raw location) may
            # not match metadata_key, so decode every line and re-key.
            events = (
                event
                for event in checker_events(reader, checker)
                if not isinstance(event, MemoryEvent)
                or _shard_of(event, jobs, annotations) == shard_id
            )
        else:
            # Fast path: the reader shard-filters raw lines by their "sk"
            # stamp, so this worker only JSON-decodes its own 1/jobs slice.
            events = checker_events(reader, checker, shard_id, jobs)

        recorder = _worker_recorder(run.collect)
        if run.skip_locations:
            # Each worker drops its own shard's skipped events (the parent
            # never sees the stream), counting into its private snapshot.
            events = filter_skipped(events, run.skip_locations, recorder)
        started = time.perf_counter()
        report = run.replay(events, checker, reader.dpst, recorder)
        # Every worker scans (and in lenient mode skips) the same
        # unstamped garbage lines; shard 0 alone reports the count so
        # jobs=1 and jobs=N totals agree.
        if recorder is not None and shard_id == 0 and reader.lines_skipped:
            recorder.count("trace.lines_skipped", reader.lines_skipped)
        return report, _worker_snapshot(recorder, time.perf_counter() - started)
    finally:
        reader.close()


def _mp_context(start_method: Optional[str] = None):
    """Resolve the multiprocessing context for worker processes.

    Prefers fork (cheap, inherits the already-imported interpreter);
    an explicit *start_method* -- or the ``REPRO_START_METHOD``
    environment variable, which the CI matrix uses to run the test
    suite under spawn -- overrides.  All worker payloads are picklable,
    so every start method produces identical reports; an unpicklable
    *checker instance* surfaces as a :class:`CheckerError` from the
    supervisor, not a pickle traceback.
    """
    if start_method is None:
        start_method = os.environ.get("REPRO_START_METHOD") or None
    methods = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in methods:
            raise CheckerError(
                f"start method {start_method!r} is not available on this "
                f"platform (have: {', '.join(methods)})"
            )
        return multiprocessing.get_context(start_method)
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_plan(
    plan: CheckPlan,
    source: TraceSource,
    annotations: Optional[AtomicAnnotations] = None,
    lca_cache: bool = True,
    recorder=None,
    skip_locations: SkipLocations = None,
    strict: Optional[bool] = None,
    retry_backoff: float = 0.05,
    digest: Optional[str] = None,
) -> ViolationReport:
    """Run a built *plan* over *source*: the one check driver.

    With ``plan.jobs > 1`` the checker must be ``location_sharded``.

    Parameters
    ----------
    source:
        A :class:`Trace`, a :class:`TraceReader`, or a trace file path
        (any serialization format; file workers stream their own shard,
        so the parent never materializes the events).
    annotations / lca_cache:
        Forwarded to replay; annotations also steer the sharding key so
        multi-variable groups stay together.
    recorder:
        Optional :class:`repro.obs.Recorder`.  When enabled, each worker
        collects a private per-shard snapshot (counters, gauges, spans)
        that the driver folds back in with
        :meth:`~repro.obs.MetricsRecorder.add_shard`: counters sum into
        the parent totals while each shard's spans stay listed under the
        snapshot's ``shards`` array.  Disabled or ``None`` costs nothing.
    skip_locations:
        Locations proven schedule-serial by the static lint pass: their
        memory events are dropped before replay (and counted, never
        silently).  Soundness is the caller's responsibility -- use
        :meth:`repro.session.CheckSession.check` with
        ``static_prefilter=...`` for the safety-gated path.
    strict:
        ``False`` turns on lenient trace ingestion for file sources
        (undecodable JSONL lines are counted as ``trace.lines_skipped``
        and skipped, never silently); ``None`` inherits the reader's
        own mode (``True`` for paths).
    retry_backoff:
        Base delay in seconds before a shard retry (see
        :class:`~repro.checker.supervisor.WorkerPolicy`).
    digest:
        The source's :func:`repro.cache.source_digest` when the caller
        already has it; it is only needed (and otherwise computed) when
        the plan checkpoints.

    Returns the merged, deduplicated :class:`ViolationReport`.
    """
    if skip_locations is not None and not skip_locations:
        skip_locations = None
    collect = recorder is not None and recorder.enabled
    if skip_locations and collect:
        recorder.count("static.prefilter.locations", len(skip_locations))

    owned_reader: Optional[TraceReader] = None
    if isinstance(source, (str, os.PathLike)):
        reader: Optional[TraceReader] = open_trace(
            source, strict=True if strict is None else strict
        )
        owned_reader = reader
        trace: Optional[Trace] = None
    elif isinstance(source, TraceReader):
        reader = source
        trace = None
    elif isinstance(source, Trace):
        reader = None
        trace = source
    else:
        raise TraceError(
            f"cannot check {type(source).__name__}: expected a Trace, "
            "a TraceReader, or a trace file path"
        )
    if strict is None:
        strict = reader.strict if reader is not None else True
    run = ShardReplay(
        plan, annotations, lca_cache, skip_locations, strict, collect
    )

    try:
        store: Optional[CheckpointStore] = None
        if plan.checkpoint_dir is not None:
            if digest is None:
                from repro.cache import source_digest

                digest = source_digest(trace if trace is not None else reader)
            store = plan.checkpoint_store(digest)
        if plan.jobs == 1:
            source = trace if trace is not None else reader
            return _check_single(run, source, reader, store, recorder)
        return _check_supervised(
            run,
            trace,
            None if reader is None else reader.path,
            store,
            recorder,
            replace(plan.policy, retry_backoff=retry_backoff),
            _mp_context(plan.start_method),
        )
    finally:
        # A worker raising must not leak the handles of a reader this
        # driver opened; readers passed in stay the caller's to close.
        if owned_reader is not None:
            owned_reader.close()


def _check_single(
    run: ShardReplay,
    source: Union[Trace, TraceReader],
    reader: Optional[TraceReader],
    store: Optional[CheckpointStore],
    recorder,
) -> ViolationReport:
    """``jobs=1``: in-process replay, with optional checkpointing.

    Checkpointing treats the whole run as shard 0, so
    ``--checkpoint/--resume`` behave uniformly across job counts.
    """
    if store is not None:
        cached = store.load(0)
        if cached is not None:
            if run.collect:
                recorder.count("sharded.resumed_shards")
            return cached[0]
    analysis = make_checker(run.plan.analysis)
    events = checker_events(source, analysis)
    if run.skip_locations:
        events = filter_skipped(events, run.skip_locations, recorder)
    skipped_before = reader.lines_skipped if reader is not None else 0
    report = run.replay(events, analysis, source.dpst, recorder)
    if run.collect and reader is not None:
        skipped = reader.lines_skipped - skipped_before
        if skipped:
            recorder.count("trace.lines_skipped", skipped)
    if store is not None:
        store.store(0, report, None)
    return report


def _check_supervised(
    run: ShardReplay,
    trace: Optional[Trace],
    path: Optional[str],
    store: Optional[CheckpointStore],
    recorder,
    policy: WorkerPolicy,
    context,
) -> ViolationReport:
    """The ``jobs > 1`` path: supervised workers, checkpoints, metrics.

    One control flow for the observed and unobserved configurations --
    spans and counters are per-phase, so gating them on ``run.collect``
    keeps the disabled path free of measurable overhead.
    """
    collect = run.collect
    jobs = run.plan.jobs
    if collect:
        from repro.obs import SPAN_MAP, SPAN_MERGE, SPAN_PARTITION, SPAN_SHARDED

        sharded_span = recorder.span(SPAN_SHARDED)
    else:
        SPAN_MAP = SPAN_MERGE = SPAN_PARTITION = None
        sharded_span = contextlib.nullcontext()

    def span(name):
        return recorder.span(name) if collect else contextlib.nullcontext()

    with sharded_span:
        if trace is not None:
            with span(SPAN_PARTITION):
                source_events = checker_events(
                    trace, make_checker(run.plan.analysis)
                )
                if run.skip_locations:
                    source_events = filter_skipped(
                        source_events,
                        run.skip_locations,
                        recorder if collect else None,
                    )
                shards = partition_events(source_events, jobs, run.annotations)
                dpst_dict = None if trace.dpst is None else dpst_to_dict(trace.dpst)
                tasks = [
                    ShardTask(
                        shard_id=index,
                        fn=_check_shard_events,
                        payload=(index, run, dpst_dict, shard),
                    )
                    for index, shard in enumerate(shards)
                    if any(isinstance(event, MemoryEvent) for event in shard)
                ]
            if not tasks:
                if collect:
                    recorder.count("sharded.workers", 0)
                return ViolationReport()
        else:
            tasks = [
                ShardTask(
                    shard_id=shard,
                    fn=_check_shard_from_file,
                    payload=(shard, run, path),
                )
                for shard in range(jobs)
            ]

        # Shards already completed by an earlier interrupted run merge
        # from their checkpoints; only the remainder runs.
        resumed: List[ShardOutcome] = []
        if store is not None and store.resume:
            remaining = []
            for task in tasks:
                cached = store.load(task.shard_id)
                if cached is None:
                    remaining.append(task)
                else:
                    resumed.append(
                        ShardOutcome(
                            shard_id=task.shard_id,
                            report=cached[0],
                            snapshot=cached[1],
                            resumed=True,
                        )
                    )
            tasks = remaining

        def on_event(kind: str, shard_id: int, detail: str) -> None:
            if not collect:
                return
            if kind == "failure":
                recorder.count("sharded.shard_failures")
            elif kind == "retry":
                recorder.count("sharded.retries")
            elif kind == "inline":
                recorder.count("sharded.inline_fallbacks")

        def on_outcome(outcome: ShardOutcome) -> None:
            # Persist the moment a shard completes, not at the end: a
            # later shard aborting the run must not lose finished work.
            if store is not None:
                store.store(outcome.shard_id, outcome.report, outcome.snapshot)

        with span(SPAN_MAP):
            fresh = run_supervised(
                tasks,
                jobs=jobs,
                context=context,
                policy=policy,
                on_event=on_event,
                on_outcome=on_outcome,
            )

        with span(SPAN_MERGE):
            outcomes = sorted(resumed + fresh, key=lambda o: o.shard_id)
            if collect:
                nonempty = 0
                for outcome in outcomes:
                    snapshot = outcome.snapshot
                    if snapshot is None:
                        continue
                    recorder.add_shard(outcome.shard_id, snapshot)
                    if not outcome.resumed:
                        recorder.count("sharded.heartbeats")
                    if snapshot.get("counters", {}).get("trace.events.routed"):
                        nonempty += 1
                recorder.count("sharded.workers", len(fresh))
                recorder.count("sharded.shards_nonempty", nonempty)
                if resumed:
                    recorder.count("sharded.resumed_shards", len(resumed))
            merged = ViolationReport.merge(
                [outcome.report for outcome in outcomes]
            )
    return merged
