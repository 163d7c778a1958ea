"""Nested tracing spans and typed counters for the whole pipeline.

The experiments stack runs behind three layers of caching (topology
cache, event-artifact cache, result store) and a process pool, but none
of that machinery used to report on itself: cache hit rates, per-phase
wall time and worker utilisation were invisible.  This module is the
single, dependency-free (stdlib-only) telemetry core everything else
reports into:

* **Spans** — nested wall-time intervals (:func:`span`) measured with
  ``time.perf_counter``; each carries a name, static attributes and its
  children, forming a per-run trace tree.
* **Counters** — monotonically increasing totals (:func:`count`):
  cache hits/misses/evictions, store resume hits, events generated vs.
  reused, messages routed, pool busy-seconds.
* **Gauges** — last-written point-in-time values (:func:`gauge`): pool
  size, queue occupancy, resident cache bytes.

Observability is **off by default**: the module-level recorder slot is
``None`` and every entry point degrades to one attribute load plus an
``is None`` test (``span`` returns a shared no-op context manager), so
instrumented hot paths stay within noise of the uninstrumented code —
and recorded runs stay bit-identical, since nothing here feeds back
into the computation.

Worker processes never share a recorder with the parent (no shared
memory); the runner captures each unit's counters in the worker with
:func:`record_unit` and merges them into the parent recorder through
the normal result plumbing (see
:func:`repro.experiments.executor.execute_units`).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "Span",
    "Recorder",
    "enabled",
    "get_recorder",
    "set_recorder",
    "recording",
    "span",
    "count",
    "gauge",
    "record_unit",
    "render_trace",
]


class Span:
    """One timed interval of the trace tree.

    ``duration`` is ``None`` while the span is still open; ``attrs``
    are static labels captured at entry (study name, unit counts, ...).
    """

    __slots__ = ("name", "attrs", "start", "duration", "children")

    def __init__(self, name: str, attrs: Mapping[str, Any]):
        self.name = name
        self.attrs = dict(attrs)
        self.start = time.perf_counter()
        self.duration: float | None = None
        self.children: list[Span] = []

    def as_dict(self) -> dict[str, Any]:
        """JSON-able representation (durations in seconds)."""
        node: dict[str, Any] = {"name": self.name, "duration_s": self.duration}
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.children:
            node["children"] = [c.as_dict() for c in self.children]
        return node

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class _NullSpan:
    """Shared no-op context manager — the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager closing one :class:`Span` on a recorder.

    Built by :meth:`Recorder.span`, which attaches the span to the
    trace tree before handing the context out.
    """

    __slots__ = ("_recorder", "_span")

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: object) -> bool:
        self._recorder._close(self._span)
        return False


class Recorder:
    """Thread-safe sink for spans, counters and gauges.

    Span nesting is tracked per thread (a span opened on a worker
    thread nests under that thread's open span, or becomes a root);
    counters and gauges are global to the recorder.  All methods are
    safe to call concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._local = threading.local()
        self.roots: list[Span] = []
        self.counters: dict[str, int | float] = {}
        self.gauges: dict[str, float] = {}

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested span (use as a context manager)."""
        ctx = _SpanContext.__new__(_SpanContext)
        ctx._recorder = self
        node = Span(name, attrs)
        ctx._span = node
        stack = self._stack()
        with self._lock:
            if stack:
                stack[-1].children.append(node)
            else:
                self.roots.append(node)
        stack.append(node)
        node.start = time.perf_counter()  # restart after bookkeeping
        return ctx

    def _close(self, node: Span) -> None:
        node.duration = time.perf_counter() - node.start
        stack = self._stack()
        # tolerate exotic exits (generator finalisation on another frame)
        if stack and stack[-1] is node:
            stack.pop()
        elif node in stack:
            while stack and stack.pop() is not node:
                pass

    # -- counters and gauges -------------------------------------------------
    def count(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` to the monotonically increasing counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time value (last write wins)."""
        with self._lock:
            self.gauges[name] = value

    def merge_counters(self, counters: Mapping[str, int | float]) -> None:
        """Fold another process's counter totals into this recorder."""
        with self._lock:
            for name, n in counters.items():
                self.counters[name] = self.counters.get(name, 0) + n

    # -- export --------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-able dump of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "spans": [root.as_dict() for root in self.roots],
            }

    def find_spans(self, name: str) -> list[Span]:
        """Every recorded span called ``name``, in trace order."""
        with self._lock:
            return [s for root in self.roots for s in root.walk() if s.name == name]


# -- the process-wide recorder slot -----------------------------------------

_recorder: Recorder | None = None


def enabled() -> bool:
    """Whether a recorder is currently installed."""
    return _recorder is not None


def get_recorder() -> Recorder | None:
    """The installed recorder, or ``None`` when observability is off."""
    return _recorder


def set_recorder(recorder: Recorder | None) -> Recorder | None:
    """Install (or remove, with ``None``) the process-wide recorder.

    Returns the previous recorder so callers can restore it.
    """
    global _recorder
    if recorder is not None and not isinstance(recorder, Recorder):
        raise TypeError(f"expected a Recorder or None, got {type(recorder).__name__}")
    previous = _recorder
    _recorder = recorder
    return previous


class recording:
    """``with recording() as rec:`` — scoped observability.

    Installs a fresh (or given) recorder on entry and restores the
    previous one on exit; the recorder stays readable after the block.
    """

    def __init__(self, recorder: Recorder | None = None):
        self.recorder = recorder if recorder is not None else Recorder()
        self._previous: Recorder | None = None

    def __enter__(self) -> Recorder:
        self._previous = set_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc: object) -> bool:
        set_recorder(self._previous)
        return False


def span(name: str, **attrs: Any):
    """A nested span on the installed recorder, or a shared no-op."""
    rec = _recorder
    if rec is None:
        return _NULL_SPAN
    return rec.span(name, **attrs)


def count(name: str, n: int | float = 1) -> None:
    """Bump a counter on the installed recorder (no-op when disabled)."""
    rec = _recorder
    if rec is not None:
        rec.count(name, n)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the installed recorder (no-op when disabled)."""
    rec = _recorder
    if rec is not None:
        rec.gauge(name, value)


def record_unit(
    fn: Callable[..., Any],
    *args: Any,
    unit_index: int | None = None,
    attempt: int = 0,
    faults: Any = None,
    in_worker: bool = True,
) -> tuple[Any, dict[str, int | float], float]:
    """Run one unit under a private recorder; return its telemetry.

    The worker-side half of cross-process aggregation: executes
    ``fn(*args)`` with a fresh recorder installed (so cache and store
    instrumentation inside the call lands somewhere collectable even
    when the worker process has no recorder of its own) and returns
    ``(result, counters, busy_seconds)``.  Top-level and picklable, so
    process pools can execute it; the parent merges the counters back
    through the ordinary result stream — no shared memory involved.

    This is also where deterministic fault injection enters the worker:
    when the executor passes a :class:`repro.faults.FaultPlan` (plus
    the unit's index and attempt number), the scheduled fault — crash,
    hang or transient raise — fires *before* the unit runs, so every
    failure mode of the execution layer is reproducible in tests.
    """
    unit_recorder = Recorder()
    previous = set_recorder(unit_recorder)
    start = time.perf_counter()
    try:
        if faults is not None:
            from repro.faults import inject  # stdlib-only, cycle-free

            inject(faults, unit_index if unit_index is not None else 0, attempt, in_worker)
        result = fn(*args)
    finally:
        busy = time.perf_counter() - start
        set_recorder(previous)
    return result, unit_recorder.counters, busy


def render_trace(recorder: Recorder, min_duration: float = 0.0) -> str:
    """Human-readable span tree plus counter/gauge totals."""
    lines: list[str] = []

    def emit(node: Span, depth: int) -> None:
        duration = node.duration
        if duration is not None and duration < min_duration:
            return
        label = f"{duration * 1e3:10.2f} ms" if duration is not None else "      open"
        attrs = "".join(f" {k}={v}" for k, v in node.attrs.items())
        lines.append(f"{label}  {'  ' * depth}{node.name}{attrs}")
        for child in node.children:
            emit(child, depth + 1)

    snap = recorder.snapshot()
    for root in recorder.roots:
        emit(root, 0)
    if snap["counters"]:
        lines.append("counters:")
        for name in sorted(snap["counters"]):
            value = snap["counters"][name]
            shown = f"{value:.6f}".rstrip("0").rstrip(".") if isinstance(value, float) else value
            lines.append(f"  {name} = {shown}")
    if snap["gauges"]:
        lines.append("gauges:")
        for name in sorted(snap["gauges"]):
            lines.append(f"  {name} = {snap['gauges'][name]:g}")
    return "\n".join(lines)
