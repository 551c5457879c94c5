"""Check plans: every option of one check, validated in one place.

A :class:`CheckPlan` is the frozen configuration of one check -- exactly
the keywords of :meth:`repro.session.CheckSession.check`.  Building it is
the only place that refuses an option combination or resolves a default;
``CheckSession.check`` and :func:`repro.checker.sharded.check_sharded`
(and through them ``repro check-trace``) each build one and hand it to
the one driver, :func:`repro.checker.sharded.run_plan`.  ``docs/api.md``
("Check plans") lists the fields, the refused combinations and what is
derived from a plan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

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

    ``option`` and ``needs`` are :class:`CheckPlan` field names, so each
    front end can spell them its own way; ``reason`` is the shared text.
    """

    #: How the dependent options are spelled as keyword arguments.
    SPELLING = {
        "window": "window=",
        "streaming": "streaming=True",
        "resume": "resume=True",
        "checkpoint_dir": "checkpoint_dir=DIR",
    }

    def __init__(self, option: str, needs: str, reason: str) -> None:
        self.option = option
        self.needs = needs
        self.reason = reason
        super().__init__(
            f"{self.SPELLING[option]} needs {self.SPELLING[needs]}: {reason}"
        )


@dataclass(frozen=True)
class CheckPlan:
    """The validated configuration of one check.

    Fields are the :meth:`~repro.session.CheckSession.check` keywords;
    ``docs/api.md`` ("Check plans") describes each one.  The attributes
    after ``window`` are derived while the plan is built.
    """

    checker: Any = "optimized"
    checker_kwargs: Dict[str, Any] = field(default_factory=dict)
    jobs: Optional[int] = 1
    engine: str = "lca"
    static_prefilter: Any = False
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    on_shard_failure: str = "retry"
    max_retries: int = 2
    shard_timeout: Optional[float] = None
    start_method: Optional[str] = None
    cache_dir: Optional[str] = None
    streaming: bool = False
    window: Optional[int] = None

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
