"""Per-layer tracing from outside the program.

The benchmark times each pipeline layer by wrapping the layer's public
function at its call sites (the module attribute the caller looks up, or
the method on its class) inside the benchmark's own process.  Nothing in
``src/`` changes; the program's only existing layer span,
``topo.matrix_build``, is picked up by wrapping ``repro.obs.span``.

Accounting:

* every wrapped call opens a span on a per-thread stack; its *self*
  time is its duration minus the time of the layer spans nested in it.
  A call into the same layer as the enclosing span is a continuation of
  that span, so layers never count themselves twice;
* totals (calls, self nanoseconds, counts) are integers.  In the process
  that installed the tracer they accumulate in :attr:`Tracer.totals`;
  in forked pool workers they go through ``repro.obs.count`` into the
  unit recorder of ``record_unit``, which the executor merges into the
  parent's recorder exactly as it merges the program's own counters.
  :meth:`Tracer.merged` adds the two;
* spans (id, layer, start, end, parent id, unit id) are kept in memory
  for the installing process only and written out by
  :meth:`Tracer.write_spans`; worker spans reach the parent only as
  the merged totals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from collections.abc import Mapping

#: Counter prefix under which worker totals travel through repro.obs.
PREFIX = "e2e."

STUDIES = ("tables", "fig6", "dynamic")
STATIC = ("tables", "fig6", "service")  # event generation through artifacts
EVERY = STUDIES + ("service",)

#: (layer, call site, workloads that must reach it).  A call site is
#: ``module:attr``, ``module:Class.method`` or ``span:<obs span name>``.
HOOKS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("distributions.sample", "repro.distributions.base:ParticleDistribution.sample", EVERY),
    ("sfc.encode", "repro.partition.ordering:curve_keys", EVERY),
    ("sfc.encode", "repro.dynamics.repartition:curve_keys", ("dynamic",)),
    ("partition.order", "repro.experiments.artifacts:partition_particles", STATIC),
    ("partition.order", "repro.experiments.dynamics_study:partition_particles", ("dynamic",)),
    ("partition.owner_grid", "repro.partition.assignment:Assignment.owner_grid", EVERY),
    ("fmm.nfi", "repro.experiments.artifacts:nfi_events", STATIC),
    ("fmm.nfi", "repro.experiments.dynamics_study:nfi_events", ("dynamic",)),
    ("fmm.ffi", "repro.experiments.artifacts:ffi_events", STATIC),
    ("fmm.ffi", "repro.experiments.dynamics_study:ffi_events", ("dynamic",)),
    # the dynamic study re-adds every far-field chunk into one container
    ("fmm.ffi", "repro.fmm.ffi:FfiEvents.combined", ("dynamic",)),
    ("fmm.compact", "repro.fmm.events:CommunicationEvents.compact", EVERY),
    ("topology.build", "repro.experiments.runner:make_topology", STATIC),
    ("topology.build", "repro.experiments.dynamics_study:make_topology", ("dynamic",)),
    ("topology.matrix", "span:topo.matrix_build", EVERY),
    ("metrics.evaluate", "repro.experiments.artifacts:compute_acd", STATIC),
    ("metrics.evaluate", "repro.experiments.artifacts:acd_breakdown", STATIC),
    ("metrics.evaluate", "repro.metrics.registry:AcdMetric.evaluate", ("dynamic",)),
    ("metrics.evaluate", "repro.metrics.energy:EnergyMetric.evaluate", ("dynamic",)),
    ("metrics.evaluate", "repro.metrics.data_volume:DataVolumeMetric.evaluate", ()),
    ("metrics.evaluate", "repro.metrics.surface_volume:SurfaceVolumeMetric.evaluate", ()),
    ("dynamics.evolve", "repro.experiments.dynamics_study:trajectory", ("dynamic",)),
    ("dynamics.repartition", "repro.experiments.dynamics_study:owners_by_id", ("dynamic",)),
    ("dynamics.repartition", "repro.experiments.dynamics_study:stale_assignment", ("dynamic",)),
    ("dynamics.repartition", "repro.experiments.dynamics_study:migration_volume", ("dynamic",)),
    ("store.get", "repro.experiments.store:ResultStore.get", EVERY),
    ("store.put", "repro.experiments.store:ResultStore.put", EVERY),
    ("service.parse", "repro.service:RecommendRequest.from_payload", ("service",)),
    ("service.plan", "repro.service:request_plan", ("service",)),
    ("service.rank", "repro.service:rank_results", ("service",)),
    # the main process blocked on the worker pool: what it does not do meanwhile
    ("pool.wait", "repro.experiments.executor:wait", ("dynamic",)),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in HOOKS))

#: The functions one unit of work runs in; they tag spans with a unit id
#: and are not layers themselves.
UNIT_SITES = (
    "repro.experiments.campaign:run_instance_trial",
    "repro.experiments.study:execute_compute_unit",
)


def _histogram_pairs(value) -> int:
    """Distinct rank pairs in a histogram, or in a mapping of them."""
    if isinstance(value, Mapping):
        return sum(_histogram_pairs(v) for v in value.values())
    return int(getattr(value, "num_pairs", 0))


def _make_measures(miss) -> dict[str, object]:
    """Counts taken from a call's arguments and result, by function name."""

    def pairs(args, out):  # every wrapped evaluator takes (..., events, topology)
        return {"metrics.evaluate.pairs": _histogram_pairs(args[-2])}

    return {
        "nfi_events": lambda args, out: {"fmm.events": len(out)},
        "ffi_events": lambda args, out: {
            "fmm.events": sum(len(e) for e in out.as_mapping().values())
        },
        "compact": lambda args, out: {"fmm.compact.pairs": out.num_pairs},
        "compute_acd": pairs,
        "acd_breakdown": pairs,
        "evaluate": pairs,
        "get": lambda args, out: {"store.get.hits": int(out is not miss)},
    }


class _Frame:
    __slots__ = ("id", "layer", "start", "child_ns", "parent")

    def __init__(self, span_id, layer, parent):
        self.id = span_id
        self.layer = layer
        self.parent = parent
        self.child_ns = 0
        self.start = time.perf_counter_ns()


class Tracer:
    """Layer spans, self times and counts of one traced process tree."""

    def __init__(self) -> None:
        #: Off, every wrapper calls straight through (untraced reference runs).
        self.enabled = True
        self.pid = os.getpid()
        self.totals: defaultdict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._units = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        from repro.obs import recorder

        self._obs_count = recorder.count  # the unwrapped counter

    # -- accounting ------------------------------------------------------
    def add(self, key: str, n: int) -> None:
        if os.getpid() == self.pid:
            with self._lock:
                self.totals[key] += n
        else:  # forked pool worker: ride record_unit's counter merge
            self._obs_count(PREFIX + key, n)

    def merged(self, counters: Mapping[str, float]) -> dict[str, int]:
        """Local totals plus worker totals merged into ``counters``."""
        out = dict(self.totals)
        for key, value in counters.items():
            if key.startswith(PREFIX):
                name = key[len(PREFIX):]
                out[name] = out.get(name, 0) + int(value)
        return out

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> _Frame | None:
        """Open a layer span; ``None`` continues an enclosing one."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent.layer == layer:
            return None
        frame = _Frame(next(self._ids), layer, parent)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame | None, counts: Mapping[str, int] | None = None) -> None:
        if frame is None:
            return
        end = time.perf_counter_ns()
        self._stack().pop()
        duration = end - frame.start
        self_ns = duration - frame.child_ns
        if frame.parent is not None:
            frame.parent.child_ns += duration
        unit = getattr(self._local, "unit", None)
        self.add(f"{frame.layer}.calls", 1)
        self.add(f"{frame.layer}.self_ns", self_ns)
        if unit is not None:
            self.add("unit.layer_ns", self_ns)
        for key, n in (counts or {}).items():
            self.add(key, n)
        if os.getpid() == self.pid:
            parent_id = frame.parent.id if frame.parent is not None else None
            with self._lock:
                self.spans.append((frame.id, frame.layer, frame.start, end, parent_id, unit))

    # -- wrappers --------------------------------------------------------
    def layer_wrapper(self, layer: str, hook: str, fn, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.add(f"hook.{hook}", 1)
            frame = self.enter(layer)
            counts = None
            try:
                out = fn(*args, **kwargs)
                if measure is not None and frame is not None:
                    counts = measure(args, out)
            finally:
                self.exit(frame, counts)
            return out

        return wrapper

    def unit_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            previous = getattr(self._local, "unit", None)
            self._local.unit = f"{os.getpid()}-{next(self._units)}"
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.unit = previous

        return wrapper

    def write_spans(self, path) -> None:
        """Write the installing process's spans as JSON."""
        with self._lock:
            spans = [
                {"id": i, "name": name, "start_ns": s, "end_ns": e, "parent": p, "unit": u}
                for i, name, s, e, p, u in sorted(self.spans, key=lambda span: span[2])
            ]
        with open(path, "w") as fh:
            json.dump({"pid": self.pid, "spans": spans}, fh)


def _patch(target: str, make) -> None:
    """Replace ``module:attr`` or ``module:Class.method`` by ``make(fn)``."""
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.rpartition(".")
    if not owner_name:
        setattr(module, attr, make(getattr(module, attr)))
        return
    owner = getattr(module, owner_name)
    raw = owner.__dict__[method]
    if isinstance(raw, classmethod):
        setattr(owner, method, classmethod(make(raw.__func__)))
    else:
        setattr(owner, method, make(raw))


def install() -> Tracer:
    """Wrap every hook and unit site; return the tracer collecting them."""
    import repro.experiments  # noqa: F401  (registers every module the hooks name)
    from repro import obs
    from repro.experiments.store import MISS

    tracer = Tracer()
    measures = _make_measures(MISS)
    span_hooks = {}
    for layer, site, _ in HOOKS:
        hook = f"{layer}@{site}"
        if site.startswith("span:"):
            span_hooks[site[len("span:"):]] = (layer, hook)
            continue
        measure = measures.get(site.rpartition(":")[2].rpartition(".")[2])
        _patch(site, functools.partial(tracer.layer_wrapper, layer, hook, measure=measure))
    for site in UNIT_SITES:
        _patch(site, tracer.unit_wrapper)

    original_span, original_count = obs.span, obs.count

    class _ProgramSpan:
        """A program span that is also a layer span."""

        def __init__(self, inner, layer, hook):
            self.inner, self.layer, self.hook = inner, layer, hook

        def __enter__(self):
            tracer.add(f"hook.{self.hook}", 1)
            self.frame = tracer.enter(self.layer)
            return self.inner.__enter__()

        def __exit__(self, *exc):
            try:
                return self.inner.__exit__(*exc)
            finally:
                tracer.exit(self.frame)

    def span(name, **attrs):
        inner = original_span(name, **attrs)
        if tracer.enabled and name in span_hooks:
            return _ProgramSpan(inner, *span_hooks[name])
        return inner

    def count(name, n=1):
        if tracer.enabled and name == "topo_cache.matrix_bytes_built":
            tracer.add("topology.matrix.bytes", int(n))
        original_count(name, n)

    obs.span, obs.count = span, count
    return tracer


def gate_failures(workload: str, totals: Mapping[str, int]) -> list[str]:
    """Call sites the workload must reach but recorded no call."""
    return [
        f"{layer}@{site}"
        for layer, site, workloads in HOOKS
        if workload in workloads and totals.get(f"hook.{layer}@{site}", 0) == 0
    ]


def layer_seconds(totals: Mapping[str, int]) -> float:
    return sum(v for k, v in totals.items() if k.endswith(".self_ns")) / 1e9


def other_seconds(tracer: Tracer, wall_s: float, counters: Mapping[str, float]) -> float:
    """Time in no layer: the main process's wall time less its layer time,
    plus the pool workers' busy time less theirs (``pool.wait`` is a layer,
    so the main process's idle wait for the workers is not counted twice)."""
    main = layer_seconds(tracer.totals)
    workers = layer_seconds(tracer.merged(counters)) - main
    return (wall_s - main) + (counters.get("pool.busy_s", 0.0) - workers)


def layer_metrics(totals: Mapping[str, int], wall_s: float, other_s: float) -> dict[str, float]:
    """``<layer>.calls/.self_s/.share`` plus ``other``; shares of ``wall_s``."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        self_s = totals.get(f"{layer}.self_ns", 0) / 1e9
        out[f"{layer}.calls"] = totals.get(f"{layer}.calls", 0)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / wall_s
    out["other.self_s"] = other_s
    out["other.share"] = other_s / wall_s
    return out
