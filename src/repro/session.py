"""The unified checking front door: :class:`CheckSession`.

One entry point for every way of checking something:

* a live :class:`~repro.runtime.program.TaskProgram` (or a bare body
  function) -- executed once with trace recording, then checked;
* an in-memory recorded :class:`~repro.trace.trace.Trace`;
* a trace *file path* (either serialization format; the streaming JSONL
  format is checked without ever materializing the events).

and every way of running a checker over it: any :func:`make_checker`
spec (name, class, or instance), in-process (``jobs=1``) or through the
location-sharded multiprocessing pipeline (``jobs>1``, see
:mod:`repro.checker.sharded`).

::

    from repro import CheckSession

    report = CheckSession("run.jsonl", jobs=4).check()
    report = CheckSession(program, checker="basic").check()

    session = CheckSession(trace)
    session.check("optimized")
    session.check("racedetector")
    session.reports          # {"optimized": ..., "racedetector": ...}
    session.first_violation  # first finding across every check so far

:func:`check_trace` is the one-call convenience wrapper.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Dict, Optional, Tuple, Union

from repro.checker import checker_name_of
from repro.checker.annotations import AtomicAnnotations
from repro.checker.sharded import CheckerSpec, run_plan
from repro.errors import TraceError
from repro.plan import CheckPlan
from repro.report import ViolationReport
from repro.runtime.program import TaskProgram, run_program
from repro.trace.serialize import TraceReader, open_trace
from repro.trace.trace import Trace

Source = Union[TaskProgram, Trace, TraceReader, str, "os.PathLike[str]"]


class CheckSession:
    """A checking session over one program, trace, or trace file.

    Parameters
    ----------
    source:
        What to check.  A :class:`TaskProgram` (or bare callable body) is
        executed once -- lazily, on first use -- with trace recording
        under *executor*; a :class:`Trace` / :class:`TraceReader` / path
        is checked offline as-is.
    checker:
        Default checker spec for :meth:`check` -- a registered name, a
        checker class, or a pre-built instance.
    jobs:
        Default worker count for :meth:`check`.  ``1`` (default) checks
        in-process; ``N > 1`` runs the location-sharded pipeline;
        ``None`` uses one worker per CPU.
    engine:
        Parallelism-query engine: any registered name in
        :func:`repro.dpst.engines.available_engines` (built-ins:
        ``"lca"``, ``"vc"``, ``"depa"``).  Unknown names
        raise :class:`repro.dpst.engines.UnknownEngineError` at check
        time, naming the valid engines.
    executor:
        Scheduling strategy when *source* is a program.
    annotations:
        Atomicity annotations.  Defaults to the program's own annotations
        for program sources, check-everything otherwise.
    lca_cache:
        Enable the LCA memo table during replay.
    recorder:
        Optional :class:`repro.obs.Recorder` collecting metrics and
        phase spans for everything this session does (recording, DPST
        builds, every check, the sharded pipeline).  Defaults to the
        no-op :data:`repro.obs.NULL_RECORDER`; pass a
        :class:`repro.obs.MetricsRecorder` and read :attr:`metrics`
        afterwards.
    strict:
        ``False`` opens file sources in lenient mode: undecodable or
        truncated JSONL lines are counted (:attr:`lines_skipped`, and
        the ``trace.lines_skipped`` metric when observed) and skipped
        instead of aborting the check mid-stream.  Ignored for
        non-file sources.
    """

    def __init__(
        self,
        source: Source,
        checker: CheckerSpec = "optimized",
        jobs: Optional[int] = 1,
        engine: str = "lca",
        executor: Any = None,
        annotations: Optional[AtomicAnnotations] = None,
        lca_cache: bool = True,
        recorder: Any = None,
        strict: bool = True,
    ) -> None:
        if recorder is None:
            from repro.obs import NULL_RECORDER

            recorder = NULL_RECORDER
        self.checker = checker
        self.jobs = jobs
        self.engine = engine
        self.executor = executor
        self.lca_cache = lca_cache
        self.strict = strict
        #: The session's observability sink (a :class:`repro.obs.Recorder`).
        self.recorder = recorder
        #: Reports of every :meth:`check` call, keyed by checker name.
        self.reports: Dict[str, ViolationReport] = {}
        #: Outcome of the last ``static_prefilter=`` request (see
        #: :meth:`check`): ``{"requested", "applied", "locations",
        #: "reason"}`` -- the CLI renders this so skips are never silent.
        self.prefilter_info: Optional[Dict[str, Any]] = None
        #: Outcome of the last ``cache_dir=`` request (see :meth:`check`):
        #: ``{"requested", "applied", "hit", "key", "reason"}`` -- like
        #: :attr:`prefilter_info`, a bypassed cache is never silent.
        self.cache_info: Optional[Dict[str, Any]] = None
        #: The :class:`~repro.plan.CheckPlan` of the last :meth:`check`.
        self.plan: Optional[CheckPlan] = None
        self._lint_report = None
        self._source_digest_memo: Optional[str] = None

        self._program: Optional[TaskProgram] = None
        self._trace: Optional[Trace] = None
        self._reader: Optional[TraceReader] = None
        self._run_result = None
        self._dpst_spanned = False

        if isinstance(source, TaskProgram):
            self._program = source
        elif callable(source):
            self._program = TaskProgram(source)
        elif isinstance(source, Trace):
            self._trace = source
        elif isinstance(source, TraceReader):
            self._reader = source
        elif isinstance(source, (str, os.PathLike)):
            self._reader = open_trace(source, strict=strict)
        else:
            raise TraceError(
                f"cannot check {type(source).__name__}: expected a "
                "TaskProgram, a body callable, a Trace, a TraceReader, "
                "or a trace file path"
            )
        if annotations is not None:
            self.annotations = annotations
        elif self._program is not None:
            self.annotations = self._program.annotations
        else:
            self.annotations = None

    # -- source access ----------------------------------------------------

    @property
    def source_kind(self) -> str:
        """``"program"``, ``"trace"``, or ``"file"``."""
        if self._program is not None:
            return "program"
        if self._reader is not None:
            return "file"
        return "trace"

    @property
    def run_result(self):
        """The :class:`RunResult` of a program source (run on demand)."""
        if self._program is None:
            return None
        if self._run_result is None:
            self._run_result = run_program(
                self._program,
                executor=self.executor,
                record_trace=True,
                # Runtime counters (tasks, memory events, lock ops, syncs)
                # ride along whenever the session is observed.
                collect_stats=self.recorder.enabled,
                parallel_engine=self.engine,
                lca_cache=self.lca_cache,
                recorder=self.recorder,
            )
        return self._run_result

    @property
    def trace(self) -> Trace:
        """The trace under check, materialized in memory on first access."""
        if self._trace is None:
            if self._program is not None:
                self._trace = self.run_result.trace
            else:
                self._trace = self._reader.read()
        return self._trace

    @property
    def dpst(self):
        """The DPST of the execution under check."""
        if self._trace is not None:
            return self._trace.dpst
        if self._reader is not None:
            return self._reader.dpst
        return self.trace.dpst

    # -- checking ----------------------------------------------------------

    def check(
        self,
        checker: Optional[CheckerSpec] = None,
        jobs: Optional[int] = None,
        engine: Optional[str] = None,
        static_prefilter: Any = False,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        on_shard_failure: str = "retry",
        max_retries: int = 2,
        shard_timeout: Optional[float] = None,
        start_method: Optional[str] = None,
        cache_dir: Optional[str] = None,
        streaming: bool = False,
        window: Optional[int] = None,
        **checker_kwargs: Any,
    ) -> ViolationReport:
        """Run one checker over the source; return (and remember) its report.

        The keywords build one :class:`~repro.plan.CheckPlan` (kept as
        :attr:`plan`), which refuses incompatible combinations before
        anything runs; ``docs/api.md`` ("Check plans") describes each
        keyword.  *checker* / *jobs* / *engine* default to the session's
        settings; ``checker_kwargs`` are forwarded to checker
        construction (names and classes only).  Repeated calls reuse the
        recorded trace, so a program source executes exactly once per
        session.  The per-call *engine* applies to offline replays -- a
        program source's recording engine stays the session's.

        ``static_prefilter`` and ``cache_dir`` are never silent: a refused
        filter or a bypassed cache leaves its reason in
        :attr:`prefilter_info` / :attr:`cache_info`.
        """
        plan = CheckPlan(
            checker=self.checker if checker is None else checker,
            checker_kwargs=checker_kwargs,
            jobs=self.jobs if jobs is None else jobs,
            engine=self.engine if engine is None else engine,
            static_prefilter=static_prefilter,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            on_shard_failure=on_shard_failure,
            max_retries=max_retries,
            shard_timeout=shard_timeout,
            start_method=start_method,
            cache_dir=cache_dir,
            streaming=streaming,
            window=window,
        )
        self.plan = plan
        cache_state = self._resolve_cache(plan)
        if cache_state is not None:
            cache, key, meta = cache_state
            entry = cache.load(key)
            if entry is not None:
                self.cache_info["hit"] = True
                if self.recorder.enabled:
                    self.recorder.count("cache.hit")
                    self.recorder.count("cache.bytes", entry.nbytes)
                self.reports[plan.checker_name] = entry.report
                return entry.report
        skip = self._resolve_prefilter(static_prefilter)
        span = contextlib.nullcontext()
        if self.recorder.enabled:
            from repro.obs import SPAN_CHECK

            self._span_dpst_build()
            span = self.recorder.span(SPAN_CHECK)
        with span:
            report = run_plan(
                plan,
                self._sharded_source(),
                annotations=self.annotations,
                lca_cache=self.lca_cache,
                recorder=self.recorder,
                skip_locations=skip,
                digest=self._source_digest_memo,
            )
        if cache_state is not None:
            from repro.cache import normalized_report_copy

            report = normalized_report_copy(report)
            nbytes = cache.store(key, report, meta=meta)
            if self.recorder.enabled:
                self.recorder.count("cache.miss")
                self.recorder.count("cache.bytes", nbytes)
        self.reports[plan.checker_name] = report
        return report

    def _source_digest(self) -> str:
        """Content digest of the source, memoized for the session."""
        if self._source_digest_memo is None:
            from repro.cache import source_digest

            self._source_digest_memo = source_digest(self._sharded_source())
        return self._source_digest_memo

    def _resolve_cache(
        self, plan: CheckPlan
    ) -> Optional[Tuple[Any, str, Dict[str, Any]]]:
        """Turn the plan's ``cache_dir`` into a ready cache lookup:
        ``(cache, key, meta)``, or ``None`` when there is none.

        Mirrors :meth:`_resolve_prefilter`: the decision (and any reason
        for bypassing) lands in :attr:`cache_info`, never silently.
        """
        if plan.cache_dir is None:
            return None
        from repro.cache import ResultCache

        info: Dict[str, Any] = {
            "requested": True,
            "applied": False,
            "hit": False,
            "key": None,
            "reason": plan.cache_bypass(self.annotations),
        }
        self.cache_info = info
        if info["reason"]:
            if self.recorder.enabled:
                self.recorder.count("cache.bypass")
            return None
        key, meta = plan.cache_entry(self._source_digest(), self.strict)
        info["applied"] = True
        info["key"] = key
        info["reason"] = "content-addressed lookup enabled"
        return ResultCache(plan.cache_dir), key, meta

    def _span_dpst_build(self) -> None:
        """Time the one-off DPST materialization under ``dpst.build``.

        Program sources build their tree inside :func:`run_program`'s
        ``record`` span, so only offline sources get the explicit span.
        Subsequent checks reuse the built tree; the span fires once.
        """
        if self._dpst_spanned or self._program is not None:
            return
        self._dpst_spanned = True
        from repro.obs import SPAN_DPST_BUILD

        with self.recorder.span(SPAN_DPST_BUILD):
            self.dpst

    def check_all(self, *checkers: CheckerSpec) -> Dict[str, ViolationReport]:
        """Run several checkers (session defaults apply); return the mapping."""
        for spec in checkers:
            self.check(spec)
        return dict(self.reports)

    def _sharded_source(self):
        """The cheapest source shape to hand to the sharded driver."""
        if self._trace is not None:
            return self._trace
        if self._reader is not None:
            return self._reader
        return self.trace  # program: record, then shard the trace

    # -- static analysis ---------------------------------------------------

    def lint(self, target: Any = None):
        """Run the static lint pass; return its
        :class:`~repro.static.lint.LintReport`.

        With no *target* the session's program source is linted (and the
        report cached); offline sessions must pass the task body,
        :class:`TaskProgram`, or generator spec the trace came from.
        """
        from repro.static.lint import LintReport, lint_program

        if isinstance(target, LintReport):
            return target
        if target is None:
            if self._lint_report is not None:
                return self._lint_report
            if self._program is None:
                raise TraceError(
                    "lint needs program text: this session checks a "
                    f"{self.source_kind}; pass the task body, TaskProgram "
                    "or generator spec explicitly"
                )
            target = self._program
        if self.recorder.enabled:
            from repro.obs import SPAN_LINT

            with self.recorder.span(SPAN_LINT):
                report = lint_program(target)
            counts = report.severity_counts()
            self.recorder.count("static.lint.runs")
            self.recorder.count(
                "static.lint.accesses", len(report.skeleton.accesses)
            )
            self.recorder.count("static.lint.steps", len(report.skeleton.steps()))
            self.recorder.count("static.lint.candidates", len(report.candidates))
            self.recorder.count("static.lint.errors", counts["error"])
            self.recorder.count("static.lint.warnings", counts["warning"])
            self.recorder.count(
                "static.lint.serial_locations", len(report.serial_locations)
            )
            stats = report.callgraph_stats()
            if stats is not None:
                self.recorder.count(
                    "static.callgraph.functions", stats["functions"]
                )
                self.recorder.count("static.callgraph.sccs", stats["sccs"])
                self.recorder.count(
                    "static.callgraph.unresolved_calls",
                    stats["unresolved_calls"],
                )
        else:
            report = lint_program(target)
        if target is self._program:
            self._lint_report = report
        return report

    def _resolve_prefilter(self, request: Any) -> Optional[frozenset]:
        """Turn a ``static_prefilter=`` request into safe skip locations.

        Never silent: the decision (and the reason for refusing) lands in
        :attr:`prefilter_info`.
        """
        if request is False or request is None:
            return None
        report = self.lint(None if request is True else request)
        info: Dict[str, Any] = {
            "requested": True,
            "applied": False,
            "locations": [],
            "poisoned": {},
            "reason": "",
        }
        self.prefilter_info = info
        if self.annotations is not None and not self.annotations.trivial:
            info["reason"] = (
                "non-trivial atomicity annotations (grouped locations "
                "share metadata, so per-location proofs do not compose)"
            )
            if self.recorder.enabled:
                self.recorder.count("static.prefilter.disabled")
            return None
        locations = report.prefilter_locations()
        poisoned = report.poisoned_locations
        info["poisoned"] = {
            repr(location): list(reasons)
            for location, reasons in sorted(
                poisoned.items(), key=lambda kv: repr(kv[0])
            )
        }
        if self.recorder.enabled:
            self.recorder.count("static.prefilter.proven", len(locations))
            self.recorder.count("static.prefilter.poisoned", len(poisoned))
        if not locations:
            info["reason"] = (
                "no locations proven schedule-serial"
                + (f" ({len(poisoned)} poisoned by imprecision)" if poisoned else "")
            )
            if self.recorder.enabled:
                self.recorder.count("static.prefilter.disabled")
            return None
        info["applied"] = True
        info["locations"] = sorted(repr(loc) for loc in locations)
        info["reason"] = (
            f"{len(locations)} location(s) proven schedule-serial"
            + (f" ({len(poisoned)} poisoned by imprecision)" if poisoned else "")
        )
        return frozenset(locations)

    # -- aggregate views ---------------------------------------------------

    def report(self) -> ViolationReport:
        """Merged report across every :meth:`check` so far (checks the
        session default on first use)."""
        if not self.reports:
            self.check()
        return ViolationReport.merge(self.reports.values())

    @property
    def first_violation(self):
        """The first violation found so far, or ``None``."""
        for found in self.report():
            return found
        return None

    @property
    def lines_skipped(self) -> int:
        """Undecodable lines skipped so far by a lenient file reader.

        Always ``0`` for strict or non-file sources; never silent --
        the CLI surfaces a non-zero count after every lenient check.
        """
        return self._reader.lines_skipped if self._reader is not None else 0

    @property
    def metrics(self):
        """A :class:`repro.obs.MetricsSnapshot` of everything recorded so
        far, or ``None`` when the session runs with the no-op recorder."""
        if not self.recorder.enabled:
            return None
        return self.recorder.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<CheckSession {self.source_kind} checker="
            f"{checker_name_of(self.checker)!r} jobs={self.jobs} "
            f"checked={sorted(self.reports)}>"
        )


def check_trace(
    source: Source,
    checker: CheckerSpec = "optimized",
    jobs: Optional[int] = 1,
    **session_options: Any,
) -> ViolationReport:
    """One-call convenience: check any source through a fresh session."""
    return CheckSession(
        source, checker=checker, jobs=jobs, **session_options
    ).check()
