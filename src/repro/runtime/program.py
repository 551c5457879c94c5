"""Program packaging and the one-call entry points.

:class:`TaskProgram` bundles a root task body with its initial memory and
atomicity annotations, so examples, tests, the 36-program violation suite
and the 13 benchmark workloads all share one shape.  :func:`run_program`
(and the :meth:`TaskProgram.run` convenience) executes a program under a
chosen executor with a chosen set of observers and returns a
:class:`RunResult` gathering everything an experiment needs: the DPST, the
collected trace, per-run statistics and each checker's violation report.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Union

from repro.checker.annotations import AtomicAnnotations
from repro.dpst.base import DPSTBase
from repro.report import ViolationReport
from repro.runtime.executor import Executor, RunContext, Runtime, SerialExecutor
from repro.runtime.observer import RuntimeObserver, StatsObserver, TraceRecorder
from repro.runtime.shadow import ShadowMemory
from repro.runtime.task import TaskBody

Location = Hashable


class TaskProgram:
    """A runnable task-parallel program.

    Parameters
    ----------
    body:
        The root task function: ``body(ctx, *args, **kwargs)``.
    name:
        Human-readable name (used in reports and benchmark tables).
    initial_memory:
        Pre-initialized shared locations.
    annotations:
        Atomicity annotations; defaults to check-everything.
    args / kwargs:
        Extra arguments passed to *body* after the context.
    """

    def __init__(
        self,
        body: TaskBody,
        name: Optional[str] = None,
        initial_memory: Optional[Mapping[Location, Any]] = None,
        annotations: Optional[AtomicAnnotations] = None,
        args: Sequence[Any] = (),
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.body = body
        self.name = name or getattr(body, "__name__", "program")
        self.initial_memory = dict(initial_memory) if initial_memory else {}
        self.annotations = annotations if annotations is not None else AtomicAnnotations()
        self.args = tuple(args)
        self.kwargs = dict(kwargs) if kwargs else {}

    def run(self, **options: Any) -> "RunResult":
        """Execute this program; see :func:`run_program` for options."""
        return run_program(self, **options)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<TaskProgram {self.name!r}>"


class RunResult:
    """Everything produced by one execution of a :class:`TaskProgram`."""

    def __init__(
        self,
        program: TaskProgram,
        context: RunContext,
        observers: Sequence[RuntimeObserver],
        stats: Optional[StatsObserver],
        recorder: Optional[TraceRecorder],
        value: Any,
    ) -> None:
        self.program = program
        self.context = context
        self.observers = list(observers)
        self.stats = stats
        self.recorder = recorder
        #: Return value of the root task body.
        self.value = value

    # -- convenience accessors -------------------------------------------------

    @property
    def dpst(self) -> Optional[DPSTBase]:
        return self.context.dpst

    @property
    def engine(self) -> Any:
        """The run's parallelism engine (see :mod:`repro.dpst.engines`)."""
        return self.context.engine

    @property
    def shadow(self) -> ShadowMemory:
        return self.context.shadow

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds spent executing the root task."""
        return self.context.elapsed

    @property
    def trace(self):
        """The recorded trace, when a recorder was attached."""
        return None if self.recorder is None else self.recorder.as_trace()

    def report(self) -> ViolationReport:
        """Merged violation report across all attached checkers."""
        merged = ViolationReport()
        for observer in self.observers:
            found = getattr(observer, "report", None)
            if isinstance(found, ViolationReport):
                merged.extend(found)
        return merged

    @property
    def reports(self) -> Dict[str, ViolationReport]:
        """Per-checker reports, keyed by the checker's ``checker_name``.

        The one sanctioned way to get at a specific checker's findings --
        no reaching into observer internals::

            result = run_program(program, checkers=["optimized", "basic"])
            result.reports["optimized"].locations()
        """
        out: Dict[str, ViolationReport] = {}
        for observer in self.observers:
            found = getattr(observer, "report", None)
            if isinstance(found, ViolationReport):
                out[getattr(observer, "checker_name", type(observer).__name__)] = found
        return out

    def reports_by_checker(self) -> Dict[str, ViolationReport]:
        """Alias of :attr:`reports` (kept for existing callers)."""
        return self.reports

    def first_violation(self):
        """The first violation any attached checker found, or ``None``."""
        for found in self.report():
            return found
        return None

    @property
    def metrics(self) -> Dict[str, int]:
        """Flat observability counters for this run.

        Sums every attached observer's ``metrics()`` and folds in the
        parallelism engine's :class:`~repro.dpst.stats.EngineStats` and
        the runtime's lock-version bumps -- all under the canonical
        :data:`repro.obs.METRIC_NAMES` names, so a live run, an offline
        ``jobs=1`` replay, and a ``jobs=N`` sharded run report
        field-for-field comparable numbers.
        """
        merged: Dict[str, int] = {}
        for observer in self.observers:
            for name, value in observer.metrics().items():
                merged[name] = merged.get(name, 0) + value
        engine = self.context.engine
        if engine is not None:
            from repro.dpst.engines import engine_name_of

            folded = engine.stats.as_metrics(engine_name_of(engine))
            for name, value in folded.items():
                merged[name] = merged.get(name, 0) + value
        merged["runtime.lock_version_bumps"] = sum(
            task.lock_state.versions_minted
            for task in self.context.tasks.values()
        )
        return merged

    @property
    def checker_metrics(self) -> Dict[str, Dict[str, int]]:
        """Per-observer counters, keyed like :attr:`reports`."""
        out: Dict[str, Dict[str, int]] = {}
        for observer in self.observers:
            found = observer.metrics()
            if found:
                name = getattr(observer, "checker_name", type(observer).__name__)
                out[name] = dict(found)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<RunResult {self.program.name!r} elapsed={self.elapsed:.4f}s "
            f"violations={len(self.report())}>"
        )


def run_program(
    program: Union[TaskProgram, TaskBody],
    executor: Optional[Executor] = None,
    observers: Sequence[RuntimeObserver] = (),
    checkers: Sequence[Any] = (),
    dpst_layout: str = "array",
    build_dpst: Optional[bool] = None,
    lca_cache: bool = True,
    parallel_engine: str = "lca",
    record_trace: bool = False,
    collect_stats: bool = False,
    recorder: Any = None,
) -> RunResult:
    """Run *program* and return a :class:`RunResult`.

    Parameters
    ----------
    program:
        A :class:`TaskProgram`, or a bare body function (wrapped on the fly).
    executor:
        Scheduling strategy; defaults to the Cilk-style serial elision.
    observers:
        Analyses to attach (checkers etc.).
    checkers:
        Additional analyses given as :func:`repro.checker.make_checker`
        specs -- registered names, checker classes, or instances -- so
        callers need not construct observers by hand::

            run_program(program, checkers=["optimized", BasicAtomicityChecker])
    dpst_layout:
        ``"array"`` (paper's optimized layout) or ``"linked"``.
    build_dpst:
        Force DPST construction on/off; default: build iff any observer is
        attached.
    lca_cache:
        Enable the LCA memo table (the paper's caching optimization).
    parallel_engine:
        Registry name of the parallelism engine answering series-parallel
        queries -- any name in
        :func:`repro.dpst.engines.available_engines` (built-ins:
        ``"lca"``, ``"vc"``, ``"depa"``; default the paper's tree-walk
        ``"lca"``).  Unknown names raise
        :class:`repro.dpst.engines.UnknownEngineError`.
    record_trace / collect_stats:
        Attach a :class:`TraceRecorder` / :class:`StatsObserver`
        automatically and expose them on the result.
    recorder:
        Optional :class:`repro.obs.Recorder`.  When enabled, the run
        executes under a ``"record"`` span and every observer's
        accumulated counters (plus engine stats, lock-version bumps and
        the DPST node count) are flushed into it at the end.  Disabled
        or ``None`` adds nothing to the execution path.
    """
    if not isinstance(program, TaskProgram):
        program = TaskProgram(program)
    if executor is None:
        executor = SerialExecutor()
    attached: List[RuntimeObserver] = list(observers)
    if checkers:
        from repro.checker import make_checker

        attached.extend(make_checker(spec) for spec in checkers)
    trace_recorder: Optional[TraceRecorder] = None
    stats: Optional[StatsObserver] = None
    if record_trace:
        trace_recorder = TraceRecorder()
        attached.append(trace_recorder)
    if collect_stats:
        stats = StatsObserver()
        attached.append(stats)
    runtime = Runtime(
        executor=executor,
        observers=attached,
        shadow=ShadowMemory(initial=program.initial_memory),
        annotations=program.annotations,
        dpst_layout=dpst_layout,
        build_dpst=build_dpst,
        lca_cache=lca_cache,
        parallel_engine=parallel_engine,
        recorder=recorder,
    )
    if recorder is not None and recorder.enabled:
        from repro.obs import (
            SPAN_RECORD,
            flush_engine_stats,
            flush_observer_metrics,
        )

        with recorder.span(SPAN_RECORD):
            context = runtime.run(program.body, *program.args, **program.kwargs)
        for observer in attached:
            flush_observer_metrics(recorder, observer)
        flush_engine_stats(recorder, context.engine)
        recorder.count(
            "runtime.lock_version_bumps",
            sum(
                task.lock_state.versions_minted
                for task in context.tasks.values()
            ),
        )
        recorder.gauge("dpst.nodes", float(context.dpst_nodes))
    else:
        context = runtime.run(program.body, *program.args, **program.kwargs)
    root_task = context.tasks.get(0)
    value = None if root_task is None else root_task.result
    return RunResult(program, context, attached, stats, trace_recorder, value)

