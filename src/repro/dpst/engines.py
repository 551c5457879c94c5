"""The parallelism-engine API: protocol, registry, construction.

Every atomicity checker in this reproduction spends its hot path asking
one question -- *may these two steps logically execute in parallel?* --
and the paper answers it with memoized DPST LCA walks.  The related work
answers the same question very differently (DePa's graded dag-path
labels, vector clocks), so the question itself is worth a formal
surface:

* :class:`ParallelismEngine` is the protocol every engine implements:
  ``parallel(a, b)`` / ``series(a, b)`` / ``precedes(a, b)`` queries over
  DPST node ids, plus ``stats`` (an
  :class:`~repro.dpst.stats.EngineStats`) and ``reset_stats()``.
* :func:`register_engine` / :func:`available_engines` /
  :func:`make_engine` form the registry.  Everything that accepts an
  engine name -- :func:`repro.runtime.program.run_program`,
  :class:`repro.session.CheckSession`, the sharded driver, the CLI's
  ``--engine`` flags and the fuzz oracle's configuration matrix --
  resolves it here, so registering an engine makes it reachable from
  every entry point at once (and automatically covered by the
  engine-equivalence property tests and the differential fuzz oracle).

Built-in engines
----------------
``lca``
    :class:`~repro.dpst.lca.LCAEngine` -- memoized tree walks (the
    paper's approach; the default everywhere).
``vc``
    :class:`~repro.dpst.vclock.VectorClockEngine` -- per-task vector
    clocks maintained incrementally over spawn/finish, a linear total
    number of clock operations (Mathur & Viswanathan, arXiv:2001.04961).
``depa``
    :class:`~repro.dpst.depa.DePaEngine` -- graded dag-path labels
    packed into machine integers, O(1) word operations per query and no
    tree walk (Westrick, Wang & Acar, arXiv:2204.14168).

Adding an engine (see ``docs/api.md``)::

    from repro.dpst.engines import register_engine

    register_engine("mine", lambda tree, cache=True: MyEngine(tree, cache))

Unknown names raise :class:`UnknownEngineError`, which subclasses both
:class:`~repro.errors.CheckerError` (the library's error family) and
:class:`ValueError` (what historical callers caught), and always names
the valid choices.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

try:  # pragma: no cover - Protocol exists on every supported version
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - pre-3.8 fallback, never hit
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from repro.dpst.base import DPSTBase
from repro.dpst.stats import EngineStats
from repro.errors import CheckerError, TraceError


@runtime_checkable
class ParallelismEngine(Protocol):
    """The query surface every parallelism engine implements.

    Engines answer series-parallel questions about DPST node ids.  All
    verdicts must match the SPD3 tree semantics implemented by
    :mod:`repro.dpst.relation` -- the registry-driven property tests and
    the differential fuzz oracle enforce exactly that for every
    registered engine.

    Required attributes: ``tree`` (the DPST queried), ``cache_enabled``
    (whether per-pair memoization is on), ``stats`` (an
    :class:`~repro.dpst.stats.EngineStats`), and ``engine_name`` (the
    registry name, used to label per-engine metrics).
    """

    tree: DPSTBase
    cache_enabled: bool
    stats: EngineStats
    engine_name: str

    def parallel(self, a: int, b: int) -> bool:
        """May nodes *a* and *b* logically execute in parallel?"""
        ...

    def series(self, a: int, b: int) -> bool:
        """Are *a* and *b* distinct and ordered (either direction)?"""
        ...

    def precedes(self, a: int, b: int) -> bool:
        """Must *a* complete before *b* starts?"""
        ...

    def reset_stats(self) -> None:
        """Zero the query counters (caches may be kept)."""
        ...


#: A factory: ``factory(tree, cache=True) -> ParallelismEngine``.
EngineFactory = Callable[..., Any]


class UnknownEngineError(CheckerError, TraceError, ValueError):
    """An engine name that is not in the registry.

    Subclasses :class:`ValueError` (what the pre-registry runtime raised
    for a name it did not know) and
    :class:`~repro.errors.TraceError` (what the replay path raised), so
    every historical ``except`` clause keeps working while new code can
    catch the one precise type.
    """

    def __init__(self, name: Any) -> None:
        choices = ", ".join(available_engines())
        super().__init__(
            f"unknown parallelism engine {name!r} "
            f"(valid engines: {choices})"
        )
        self.name = name


_ENGINE_FACTORIES: Dict[str, EngineFactory] = {}


def register_engine(name: str, factory: EngineFactory) -> None:
    """Register *factory* under *name* (replacing any previous binding).

    The factory is called as ``factory(tree, cache=...)`` and must
    return a :class:`ParallelismEngine`.  Registration also reserves the
    engine's per-engine metric names (``engine.<name>.queries`` etc.) in
    the :data:`repro.obs.METRIC_NAMES` registry so its counters render
    in ``repro stats`` output like the built-ins'.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"engine name must be a non-empty string, got {name!r}")
    _ENGINE_FACTORIES[name] = factory
    # Lazy import: repro.obs is optional at registration time and must
    # not become an import cycle (it never imports this module's users).
    try:
        from repro.obs import register_engine_metric_names
    except ImportError:  # pragma: no cover - partial-install safety only
        return
    register_engine_metric_names(name)


def available_engines() -> Tuple[str, ...]:
    """The registered engine names, sorted (the CLI renders these)."""
    return tuple(sorted(_ENGINE_FACTORIES))


def make_engine(name: str, tree: DPSTBase, cache: bool = True) -> Any:
    """Build the registered engine *name* over *tree*.

    Raises :class:`UnknownEngineError` -- naming the valid engines --
    for anything not registered.
    """
    factory = _ENGINE_FACTORIES.get(name)
    if factory is None:
        raise UnknownEngineError(name)
    return factory(tree, cache=cache)


def engine_name_of(engine: Any) -> str:
    """The registry name an engine labels its metrics with."""
    return getattr(engine, "engine_name", type(engine).__name__)


# -- built-in registrations ---------------------------------------------------


def _make_lca(tree: DPSTBase, cache: bool = True):
    from repro.dpst.lca import LCAEngine

    return LCAEngine(tree, cache=cache)


def _make_vc(tree: DPSTBase, cache: bool = True):
    from repro.dpst.vclock import VectorClockEngine

    return VectorClockEngine(tree, cache=cache)


def _make_depa(tree: DPSTBase, cache: bool = True):
    from repro.dpst.depa import DePaEngine

    return DePaEngine(tree, cache=cache)


register_engine("lca", _make_lca)
register_engine("vc", _make_vc)
register_engine("depa", _make_depa)
