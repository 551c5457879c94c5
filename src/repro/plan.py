"""Check plans: every option of one check, validated in one place.

A :class:`CheckPlan` is the frozen configuration of one check, and its
fields are the only list of check keywords.
:meth:`repro.session.CheckSession.check` passes its keywords to
:meth:`CheckPlan.from_options`, ``repro check-trace`` derives its flags
from the fields, and the one driver,
:func:`repro.checker.sharded.run_plan`, runs the result.  Building a plan
is the only place that refuses an option combination or resolves a
default.  ``docs/api.md`` ("Check plans") lists the fields, the refused
combinations and what is derived from a plan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.checker import checker_name_of, make_checker
from repro.checker.streaming import DEFAULT_WINDOW, StreamingChecker
from repro.checker.supervisor import CheckpointStore, WorkerPolicy
from repro.errors import CheckerError, TraceError


def default_jobs() -> int:
    """Default worker count: one per *usable* CPU.

    ``os.sched_getaffinity`` reflects cgroup and affinity limits --
    CI containers routinely expose 2 usable cores on a 64-core host,
    where ``os.cpu_count()`` would oversubscribe 32x.  Platforms
    without it (macOS) fall back to ``cpu_count``.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platform behavior
            pass
    return os.cpu_count() or 1


class UsageError(CheckerError):
    """An option given without the option it only works with.

    ``option`` and ``needs`` are :class:`CheckPlan` field names and
    ``reason`` is the shared text.  The message spells the fields as
    keywords (:func:`_keyword_spelling`); :meth:`spelled` lets a front end
    spell them its own way.
    """

    def __init__(self, option: str, needs: str, reason: str) -> None:
        self.option = option
        self.needs = needs
        self.reason = reason
        super().__init__(self.spelled(_keyword_spelling))

    def spelled(self, spell: Callable[[str, bool], str]) -> str:
        """The message with each field spelled by ``spell(name, valued)``:
        the option bare, the option it needs with its value placeholder."""
        option = spell(self.option, False)
        return f"{option} needs {spell(self.needs, True)}: {self.reason}"


def _keyword_spelling(name: str, valued: bool) -> str:
    """Plan field *name* as a keyword: ``name=True`` for a switch, else
    ``name=`` followed, when *valued*, by the field's ``metavar``."""
    plan_field = PLAN_FIELDS[name]
    if plan_field.default is False:
        return f"{name}=True"
    if not valued:
        return f"{name}="
    return f"{name}={plan_field.metadata.get('metavar', '')}"


@dataclass(frozen=True)
class CheckPlan:
    """The validated configuration of one check.

    Fields are the :meth:`~repro.session.CheckSession.check` keywords;
    ``docs/api.md`` ("Check plans") describes each one.  A ``metavar``
    in a field's metadata names its value in messages and CLI help.  The
    attributes after ``window`` are derived while the plan is built.
    """

    checker: Any = "optimized"
    checker_kwargs: Dict[str, Any] = field(default_factory=dict)
    jobs: Optional[int] = field(default=1, metadata={"metavar": "N"})
    engine: str = "lca"
    static_prefilter: Any = False
    checkpoint_dir: Optional[str] = field(
        default=None, metadata={"metavar": "DIR"}
    )
    resume: bool = False
    on_shard_failure: str = "retry"
    max_retries: int = field(default=2, metadata={"metavar": "N"})
    shard_timeout: Optional[float] = field(
        default=None, metadata={"metavar": "SECONDS"}
    )
    start_method: Optional[str] = None
    cache_dir: Optional[str] = field(
        default=None, metadata={"metavar": "DIR"}
    )
    streaming: bool = False
    window: Optional[int] = field(default=None, metadata={"metavar": "N"})

    #: Events between compaction sweeps (``None``: never sweep).
    sweep_window: Optional[int] = field(init=False)
    #: The checker spec every shard builds from: a name, class or instance.
    analysis: Any = field(init=False)
    policy: WorkerPolicy = field(init=False)

    def __post_init__(self) -> None:
        def derive(name: str, value: Any) -> None:
            object.__setattr__(self, name, value)

        derive("checker_kwargs", dict(self.checker_kwargs))
        jobs = default_jobs() if self.jobs is None else self.jobs
        if jobs < 1:
            raise TraceError(f"jobs must be >= 1, got {jobs}")
        derive("jobs", jobs)
        if self.window is not None and not self.streaming:
            raise UsageError(
                "window",
                "streaming",
                "the window only applies to streaming checks",
            )
        if self.resume and self.checkpoint_dir is None:
            raise UsageError(
                "resume",
                "checkpoint_dir",
                "resuming only applies to checkpointed checks",
            )
        derive(
            "policy",
            WorkerPolicy(
                on_failure=self.on_shard_failure,
                max_retries=self.max_retries,
                timeout_s=self.shard_timeout,
            ),
        )
        if self.window == 0:
            sweep = None  # the unbounded window: never sweep
        else:
            sweep = DEFAULT_WINDOW if self.window is None else self.window
        derive("sweep_window", sweep)
        if self.streaming:
            analysis = StreamingChecker(
                window=self.sweep_window,
                checker=self.checker,
                **self.checker_kwargs,
            )
        elif self.checker_kwargs:
            analysis = make_checker(self.checker, **self.checker_kwargs)
        else:
            analysis = self.checker
        derive("analysis", analysis)
        if jobs > 1:
            if isinstance(analysis, str):
                prototype = make_checker(analysis)
            else:
                prototype = analysis
            if not getattr(prototype, "location_sharded", False):
                raise CheckerError(
                    f"checker {checker_name_of(analysis)!r} is not "
                    "location-sharded (its verdict depends on cross-location "
                    "event order); run it with jobs=1"
                )

    @classmethod
    def from_options(
        cls, options: Mapping[str, Any], **defaults: Any
    ) -> "CheckPlan":
        """Build a plan from check keywords.

        A key naming a plan field (:data:`PLAN_FIELDS`) sets it; every
        other key is a checker kwarg.  *defaults* fill the fields that
        *options* leaves out or sets to ``None`` -- a session's checker,
        jobs and engine.
        """
        settings = dict(defaults)
        checker_kwargs = {}
        for name, value in options.items():
            if name not in PLAN_FIELDS:
                checker_kwargs[name] = value
            elif value is not None or name not in defaults:
                settings[name] = value
        return cls(checker_kwargs=checker_kwargs, **settings)

    def __getstate__(self) -> Dict[str, Any]:
        # Workers receive resolved skip locations, never the lint target,
        # which may be an unpicklable closure.
        return dict(self.__dict__, static_prefilter=False)

    @property
    def checker_name(self) -> str:
        """Display name of the checker this plan runs."""
        return checker_name_of(self.analysis)

    @property
    def checker_token(self) -> Optional[str]:
        """Content identity of the checker request (see
        :func:`repro.cache.checker_cache_token`); ``None`` if it has none."""
        # Imported here: hashing is only needed when a check caches or
        # checkpoints, and hashlib's OpenSSL binding costs every process
        # (shard workers included) megabytes of resident memory.
        from repro.cache import checker_cache_token

        return checker_cache_token(self.checker, self.checker_kwargs)

    # -- result cache -------------------------------------------------------

    def cache_bypass(self, annotations: Any) -> str:
        """Why the result cache cannot serve this plan, or ``""``."""
        if self.streaming:
            return (
                "streaming checks consume the trace incrementally; "
                "serving (or storing) a cached offline result would "
                "defeat the bounded-memory contract"
            )
        if self.checker_token is None:
            return (
                "checker spec is not content-addressable (pass a "
                "registered name, not a class or instance, with "
                "JSON-safe kwargs)"
            )
        if self.static_prefilter not in (False, None):
            return (
                "static prefilter requests carry program text the "
                "cache key cannot see"
            )
        if annotations is not None and not annotations.trivial:
            return (
                "non-trivial atomicity annotations are not part of "
                "the cache key"
            )
        return ""

    def cache_entry(
        self, digest: str, strict: bool
    ) -> Tuple[str, Dict[str, Any]]:
        """The result-cache key of this plan over trace *digest*, with the
        metadata stored next to the report."""
        from repro.cache import result_cache_key

        key = result_cache_key(
            digest, self.checker_token, self.engine, False, strict
        )
        meta = {
            "trace": digest,
            "checker": self.checker_token,
            "engine": self.engine,
            "strict": bool(strict),
        }
        return key, meta

    # -- checkpoints --------------------------------------------------------

    def checkpoint_store(self, digest: str) -> CheckpointStore:
        """The checkpoint store of this plan over trace *digest*.

        The manifest is keyed like the result cache (same trace digest,
        same checker token) plus the jobs count the shard partition
        depends on, so a resume can never mix results across traces or
        checker configurations.
        """
        return CheckpointStore(
            self.checkpoint_dir,
            jobs=self.jobs,
            checker=self.checker_name,
            token=self.checker_token,
            trace=digest,
            resume=self.resume,
        )


#: The check keywords: every field set at construction except
#: ``checker_kwargs``, which collects the rest.
PLAN_FIELDS = {
    plan_field.name: plan_field
    for plan_field in fields(CheckPlan)
    if plan_field.init and plan_field.name != "checker_kwargs"
}
