"""Trial artifacts: shared event histograms keyed by experiment instance.

The event stream of an :class:`~repro.experiments.config.FmmCase` trial
depends only on the case's *instance* fields (distribution, particle
count, lattice order, particle-order SFC, processor count, radius, NFI
metric) and the trial seed — never on the network being evaluated.  The
paper's own campaign grid (§VI, six topologies x four processor
orderings against a fixed workload) therefore regenerates identical
particles, assignments and NFI/FFI events up to 24 times per trial.

This module makes the generated events a first-class, reusable
**artifact**:

* :func:`build_trial_artifact` runs particles → assignment → events for
  one ``(instance, trial seed)`` and compacts each event stream into a
  :class:`~repro.fmm.events.PairHistogram` (bounded by ``p**2`` entries,
  typically far smaller), so the artifact is cheap to hold and ACD
  evaluation against *any* topology is one gather + dot product.
* :class:`EventArtifactCache` is the process-wide, thread-safe,
  byte-budgeted LRU holding finished artifacts — the event-side sibling
  of :class:`~repro.topology.cache.TopologyCache`.  Workers and repeated
  studies reuse artifacts instead of regenerating events.
* :func:`get_trial_artifact` is the memoised entry point the campaign
  engine uses; :func:`evaluate_artifact` turns an artifact into the
  classic ``(nfi, ffi)`` trial result for a concrete network.

Because every ACD sum on a histogram stays in integer arithmetic, the
artifact path is bit-identical to streaming over freshly generated
events.

The process-wide cache holds up to 256 artifacts and 256 MiB of
histograms; call :func:`set_event_cache` to swap in a differently-sized
one.  Hits, misses, evictions and the generated-vs-reused event balance
are reported to :mod:`repro.obs` (``event_cache.*`` / ``events.*``
counters).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro import obs
from repro._typing import SeedLike
from repro.distributions.registry import get_distribution
from repro.experiments.config import FmmCase
from repro.fmm.events import PairHistogram
from repro.fmm.ffi import ffi_events
from repro.fmm.nfi import nfi_events
from repro.metrics.acd import acd_breakdown, compute_acd
from repro.metrics.base import MetricValue
from repro.partition.assignment import partition_particles
from repro.topology.base import Topology

__all__ = [
    "TrialArtifact",
    "EventArtifactCache",
    "build_trial_artifact",
    "get_trial_artifact",
    "evaluate_artifact",
    "artifact_seed_key",
    "get_event_cache",
    "set_event_cache",
]

#: Far-field phase order (fixed so artifacts evaluate deterministically).
FFI_PHASES: tuple[str, ...] = ("interpolation", "anterpolation", "interaction")


@dataclass(frozen=True)
class TrialArtifact:
    """Compacted event histograms of one ``(instance, trial)`` unit.

    ``nfi`` / ``ffi`` are ``None`` when the corresponding part was not
    requested; ``ffi`` maps the three far-field phase names to their
    histograms.
    """

    nfi: PairHistogram | None
    ffi: dict[str, PairHistogram] | None

    @property
    def parts(self) -> frozenset[str]:
        """Which interaction models this artifact covers."""
        have = set()
        if self.nfi is not None:
            have.add("nfi")
        if self.ffi is not None:
            have.add("ffi")
        return frozenset(have)

    @property
    def nbytes(self) -> int:
        """Total footprint of the histogram arrays."""
        total = self.nfi.nbytes if self.nfi is not None else 0
        if self.ffi is not None:
            total += sum(h.nbytes for h in self.ffi.values())
        return total


def build_trial_artifact(
    case: FmmCase,
    child_seed: SeedLike,
    parts: tuple[str, ...] = ("nfi", "ffi"),
) -> TrialArtifact:
    """Generate and compact one trial's events (instance fields only).

    Draws the trial's particles from ``child_seed``, partitions them
    along the particle-order SFC, and compacts the requested event
    streams into histograms over the case's rank space.  Only
    :data:`INSTANCE_FIELDS` of ``case`` are read — the network fields
    never influence the result.
    """
    obs.count("events.generated")
    distribution = get_distribution(case.distribution)
    particles = distribution.sample(
        case.num_particles, case.order, rng=np.random.default_rng(child_seed)
    )
    assignment = partition_particles(
        particles, case.particle_curve, case.num_processors
    )
    p = case.num_processors
    nfi = None
    if "nfi" in parts:
        nfi = nfi_events(
            assignment, radius=case.radius, metric=case.nfi_metric
        ).compact(p)
    ffi = None
    if "ffi" in parts:
        phase_events = ffi_events(assignment).as_mapping()
        ffi = {name: phase_events[name].compact(p) for name in FFI_PHASES}
    return TrialArtifact(nfi=nfi, ffi=ffi)


def evaluate_artifact(
    artifact: TrialArtifact,
    topology: Topology,
    parts: tuple[str, ...] = ("nfi", "ffi"),
) -> tuple[MetricValue, dict[str, MetricValue]]:
    """ACD of a shared artifact on one concrete network.

    Returns the classic trial result shape ``(nfi, {phase: acd})``;
    skipped parts report empty :class:`MetricValue` aggregates.  Integer
    arithmetic throughout keeps the output bit-identical to evaluating
    the raw events.
    """
    if "nfi" in parts:
        if artifact.nfi is None:
            raise ValueError("artifact does not carry near-field events")
        nfi = compute_acd(artifact.nfi, topology)
    else:
        nfi = MetricValue(0, 0)
    if "ffi" in parts:
        if artifact.ffi is None:
            raise ValueError("artifact does not carry far-field events")
        ffi = acd_breakdown(artifact.ffi, topology)
    else:
        ffi = {"combined": MetricValue(0, 0)}
    return nfi, ffi


def artifact_seed_key(seed: SeedLike) -> Hashable | None:
    """A stable hashable identity for a trial seed, or ``None``.

    ``SeedSequence`` children spawned from the same root compare equal
    by ``(entropy, spawn_key, pool_size)``; raw ints/None hash as-is.
    ``Generator`` inputs (stateful, unrepeatable) return ``None`` so the
    cache is bypassed rather than serving a stale artifact.
    """
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = tuple(int(e) for e in entropy)
        return ("seedseq", entropy, tuple(seed.spawn_key), seed.pool_size)
    if isinstance(seed, np.random.Generator):
        return None
    try:
        hash(seed)
    except TypeError:
        return None
    return ("raw", seed)


class EventArtifactCache:
    """Thread-safe, byte-budgeted LRU of finished trial artifacts.

    Parameters
    ----------
    max_bytes:
        Total histogram bytes across resident artifacts; least-recently
        used artifacts are evicted beyond this.  ``0`` disables caching
        (every lookup builds).
    max_entries:
        Resident artifact count bound, independent of size.
    """

    def __init__(self, max_bytes: int = 256 << 20, max_entries: int = 256):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_bytes = int(max_bytes)
        self.max_entries = int(max_entries)
        self._lock = threading.RLock()
        self._data: OrderedDict[Hashable, TrialArtifact] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _evict(self) -> None:
        while self._data and (
            self._bytes > self.max_bytes or len(self._data) > self.max_entries
        ):
            _, evicted = self._data.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.evictions += 1
            obs.count("event_cache.evictions")
            obs.count("event_cache.bytes_evicted", evicted.nbytes)

    def get_or_build(
        self,
        key: Hashable | None,
        parts: tuple[str, ...],
        builder: Callable[[tuple[str, ...]], TrialArtifact],
    ) -> TrialArtifact:
        """Serve ``key`` from the cache, building (and caching) on miss.

        ``builder(parts)`` must produce an artifact covering ``parts``.
        A resident artifact is reused when it covers every requested
        part; a partial hit (e.g. an ``("nfi",)`` artifact when
        ``("nfi", "ffi")`` is now needed) rebuilds the union of parts
        and replaces the entry.  ``key=None`` (unkeyable seed) bypasses
        the cache entirely.  An artifact larger than the whole byte
        budget is returned but never retained.
        """
        want = tuple(sorted(set(parts)))
        if key is None or self.max_bytes == 0:
            return builder(want)
        with self._lock:
            cached = self._data.get(key)
            if cached is not None:
                if set(want) <= cached.parts:
                    self._data.move_to_end(key)
                    self.hits += 1
                    obs.count("event_cache.hits")
                    obs.count("events.reused")
                    return cached
                # partial hit: rebuild the union, replace the stale entry
                want = tuple(sorted(set(want) | cached.parts))
                self._bytes -= cached.nbytes
                del self._data[key]
            self.misses += 1
            obs.count("event_cache.misses")
            artifact = builder(want)
            if artifact.nbytes <= self.max_bytes:
                self._data[key] = artifact
                self._bytes += artifact.nbytes
                self._evict()
                obs.gauge("event_cache.resident_bytes", self._bytes)
            return artifact

    def clear(self) -> None:
        """Drop every artifact and reset the statistics."""
        with self._lock:
            self._data.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/residency counters (for tests and diagnostics)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "artifacts": len(self._data),
                "bytes": self._bytes,
            }


_default_cache = EventArtifactCache()
_default_lock = threading.Lock()


def get_event_cache() -> EventArtifactCache:
    """The process-wide shared artifact cache."""
    return _default_cache


def set_event_cache(cache: EventArtifactCache) -> EventArtifactCache:
    """Replace the process-wide artifact cache; returns the previous one."""
    global _default_cache
    if not isinstance(cache, EventArtifactCache):
        raise TypeError(f"expected an EventArtifactCache, got {type(cache).__name__}")
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
    return previous


def get_trial_artifact(
    case: FmmCase,
    child_seed: SeedLike,
    parts: tuple[str, ...] = ("nfi", "ffi"),
    cache: EventArtifactCache | None = None,
) -> TrialArtifact:
    """The (possibly cached) artifact of one ``(instance, trial)`` unit.

    A cached artifact is reused when it covers every requested part; a
    partial hit (e.g. an ``("nfi",)`` artifact when ``("nfi", "ffi")``
    is now needed) rebuilds the union and replaces the entry.  The
    evaluation result never depends on cache state.
    """
    cache = get_event_cache() if cache is None else cache
    seed_key = artifact_seed_key(child_seed)
    key = None if seed_key is None else (case.instance_key(), seed_key)
    return cache.get_or_build(
        key, parts, lambda want: build_trial_artifact(case, child_seed, want)
    )
