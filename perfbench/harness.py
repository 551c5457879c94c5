"""Measurement plumbing shared by every workload of the repository benchmark.

Nothing here knows about a particular workload: a closed-loop timer, the
verdict ledger that turns wrong answers and exceptions into counted
failures, the benchmark's own span recorder with its host-speed probe,
and a ``tracemalloc`` peak probe.  Each object is created per run and
passed to the workload, so importing this module has no side effects.
"""

from __future__ import annotations

import bisect
import gc
import math
import multiprocessing
import statistics
import time
import tracemalloc
import traceback
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timed(
    fn: Callable[[], Any], tracer: Optional["Tracer"] = None, span: str = "", key: Any = None
):
    """``(seconds, result)`` of one call, after a full collection.

    Collecting first keeps garbage left by the previous call from being
    charged to this one; the collector stays enabled with its default
    thresholds inside the timed region, as a user's process would have it.
    With a *tracer*, the call (and nothing else) is recorded as *span*.
    """
    gc.collect()
    with tracer.span(span, key) if tracer is not None else nullcontext():
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
    return elapsed, result


def drain(iterable: Iterable[Any]) -> int:
    """Consume *iterable* completely; return how many items it yielded."""
    count = 0
    for _ in iterable:
        count += 1
    return count


def closed_loop(seconds: float, body: Callable[[int], None], min_rounds: int = 3) -> int:
    """Run ``body(round)`` back to back for *seconds* (and at least
    *min_rounds* times): one client, the next round starts when the
    previous one returns.  Returns the number of rounds run."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        body(rounds)
        rounds += 1
    return rounds


def peak_bytes(fn: Callable[[], Any]):
    """``(peak_bytes, result)`` of *fn* under ``tracemalloc`` (not timed)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def reference_loop() -> int:
    """A fixed piece of pure-Python work timed next to every measured
    call to read the host's current speed.  It allocates and walks a few
    megabytes of tuples and dicts (4.2 ms at fastest and 6.4 ms at the
    median of 400 calls on a 2.1 GHz Xeon vCPU), so it slows down with
    cache and memory contention the way the checker does.  It is
    benchmark code: no change to the program under test can move it."""
    table: Dict[Any, int] = {}
    for i in range(20_000):
        table[(i, i & 7)] = i
    total = 0
    for key, value in table.items():
        total += value - key[0]
    return total + len({key[1] for key in table})


def _loop_time() -> float:
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def _probe_helper(conn) -> None:
    """Body of a probe process: for each request of *n* loops, the
    fastest of *n* timed reference loops, until it receives ``0``."""
    while loops := conn.recv():
        conn.send(min(_loop_time() for _ in range(loops)))


class Verdicts:
    """Counts checks and compares each verdict with its reference.

    A check fails when it raises or when the report's implicated-location
    set (``normalized_locations``) -- and, where one is given, its whole
    normal form (``normalize_report``) -- differs from what the workload
    knows by construction.  Failures are counted, never raised, so one bad
    check cannot hide the rest of the run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run(
        self,
        label: str,
        fn: Callable[[], Any],
        locations: tuple,
        normal: Optional[tuple] = None,
        tracer: Optional["Tracer"] = None,
        span: str = "",
        key: Any = None,
    ):
        """Time one check (as *span* of *tracer*, if given); return
        ``(seconds, report)``, the report ``None`` on an exception."""
        from repro.report import normalize_report, normalized_locations

        self.attempted += 1
        started = time.perf_counter()
        try:
            elapsed, report = timed(fn, tracer, span, key)
        except Exception:  # counted as a failed check, run continues
            self.failed += 1
            self.errors.append(f"{label}: {traceback.format_exc(limit=3)}")
            return time.perf_counter() - started, None
        got = normalized_locations(report)
        if got != locations:
            self.failed += 1
            self.errors.append(f"{label}: locations {got} != expected {locations}")
        elif normal is not None and normalize_report(report) != normal:
            self.failed += 1
            self.errors.append(f"{label}: report differs from the reference report")
        return elapsed, report

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


#: Span name of the host-speed probe (:func:`reference_loop`).
PROBE = "host.probe"
#: Probes on each side of a call in this process that estimate the
#: host's speed during it: one probe alone is too short to read a
#: one-second call.
NEIGHBOURS = 2
#: Loops each CPU runs in a probe on more than one CPU; the fastest
#: counts.  A helper wakes from idle for every probe, and its first loop
#: then runs slow.
WIDE_LOOPS = 4
#: The fixed time every timing is expressed at: a round figure between
#: the fastest (4.2 ms) and the median (6.4 ms) :func:`reference_loop`
#: call on the reference host (an Intel Xeon vCPU at 2.1 GHz, CPython
#: 3.11.7).  A reported time is what the call takes when the loop takes
#: exactly this long.
REFERENCE_S = 0.005


class Tracer:
    """The benchmark's own spans around calls into each layer.

    Each span is ``{id, name, key, start, end, parent, run}``: *key* names
    the part of a pass it timed (a kernel), *parent* is the id of the
    enclosing span, *run* the round it belongs to.  Spans stay in memory
    until :meth:`to_dict` hands them to the writer at the end.  The
    workloads read their timings back from here, in untraced runs too.

    Between measured calls the workloads call :meth:`probe`, which times
    :func:`reference_loop` as a ``host.probe`` span.  :meth:`time` scales
    each measured call by :data:`REFERENCE_S` over the probes around it
    and takes the median: the time the call takes at a fixed host speed,
    whatever the current load.

    The probe runs the loop in this process, so it meets the same heap
    as the calls it scales.  A workload that checks on *cpus* CPUs gets
    ``cpus - 1`` helper processes, forked when the tracer is made: a
    probe times the loop here alone, then here and on one helper at
    once, and so on up to *cpus* -- the speed a call gets on that many
    CPUs.  Call :meth:`close` to stop the helpers.
    """

    def __init__(self, cpus: int = 1) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.run: Any = None
        self._stack: List[int] = []
        self._helpers = []
        fork = multiprocessing.get_context("fork")
        for _ in range(cpus - 1):
            conn, child = fork.Pipe()
            helper = fork.Process(target=_probe_helper, args=(child,), daemon=True)
            helper.start()
            child.close()
            self._helpers.append((helper, conn))

    def _loop_times(self, cpus: int) -> List[float]:
        """The loop's time here and on ``cpus - 1`` helpers at once."""
        helpers = self._helpers[:cpus - 1]
        loops = WIDE_LOOPS if helpers else 1
        for _, conn in helpers:
            conn.send(loops)
        mine = min(_loop_time() for _ in range(loops))
        return [mine] + [conn.recv() for _, conn in helpers]

    def close(self) -> None:
        for helper, conn in self._helpers:
            try:
                conn.send(0)
            except OSError:
                helper.terminate()
            helper.join()
            conn.close()
        self._helpers = []

    @contextmanager
    def span(self, name: str, key: Any = None) -> Iterator[None]:
        span = {
            "id": len(self.spans),
            "name": name,
            "key": key,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def probe(self) -> None:
        """``loop_s[n - 1]``: the mean loop time on *n* CPUs at once."""
        gc.collect()
        with self.span(PROBE):
            widths = [self._loop_times(n) for n in range(1, len(self._helpers) + 2)]
        self.spans[-1]["loop_s"] = [sum(loops) / len(loops) for loops in widths]

    def _matching(self, name: str, key: Any = None) -> List[Dict[str, Any]]:
        return [
            s for s in self.spans
            if s["name"] == name and (key is None or s["key"] == key)
        ]

    def durations(self, name: str, key: Any = None) -> List[float]:
        return [s["end"] - s["start"] for s in self._matching(name, key)]

    def host_stretch(self, name: Optional[str] = None, cpus: int = 1) -> float:
        """Median probe on *cpus* CPUs over :data:`REFERENCE_S`: how far
        the host was from the reference speed while span *name* was
        measured (from the probe before its first span to the probe after
        its last), or over the whole run."""
        probes = self._matching(PROBE)
        if name is not None:
            spans = self._matching(name)
            starts = [p["start"] for p in probes]
            first = max(bisect.bisect_left(starts, spans[0]["start"]) - 1, 0)
            last = bisect.bisect_left(starts, spans[-1]["end"])
            probes = probes[first:last + 1]
        return median(p["loop_s"][cpus - 1] for p in probes) / REFERENCE_S

    def corrected(self, name: str, key: Any = None) -> List[float]:
        """Durations of span *name*, each scaled to the reference speed by
        the :data:`NEIGHBOURS` one-CPU probes on either side of it."""
        probes = self._matching(PROBE)
        starts = [p["start"] for p in probes]
        lengths = [p["loop_s"][0] for p in probes]
        out = []
        for span in self._matching(name, key):
            before = bisect.bisect_left(starts, span["start"])
            after = bisect.bisect_left(starts, span["end"])
            around = (lengths[max(before - NEIGHBOURS, 0):before]
                      + lengths[after:after + NEIGHBOURS])
            elapsed = span["end"] - span["start"]
            out.append(elapsed * REFERENCE_S * len(around) / sum(around))
        return out

    def time(self, name: str, key: Any = None, cpus: int = 1) -> float:
        """Median duration of span *name* at the reference speed.

        A call that runs in this process is scaled by the probes on either
        side of it, which meet the same heap and the same moment.  A call
        on *cpus* > 1 CPUs, the sharded check whose work runs in other
        processes, is scaled by the median *cpus*-wide probe of its phase:
        the probes of this process do not follow its workers round by
        round."""
        if cpus == 1:
            return median(self.corrected(name, key))
        return median(self.durations(name, key)) / self.host_stretch(name, cpus)

    def time_sum(self, name: str) -> float:
        """Sum over keys of each key's :meth:`time`: one pass's worth."""
        keys = {s["key"] for s in self._matching(name)}
        return sum(self.time(name, key) for key in keys)

    def to_dict(self) -> List[Dict[str, Any]]:
        return list(self.spans)
