"""Shared per-topology memoisation: distance matrices and routing tables.

Trial-averaged experiments evaluate the same network over and over —
each trial draws fresh particles but the topology (and hence every hop
distance and every routed path) is identical across trials.
This module provides a process-wide, thread-safe, size-capped LRU cache
so that :func:`repro.metrics.acd.compute_acd`,
:mod:`repro.metrics.anns` and the contention simulator stop recomputing
those invariants per call:

* **distance matrices** — the full ``p x p`` hop-distance table of a
  topology, built once and indexed thereafter (``int32``; a 4096-rank
  torus costs 64 MiB).  Matrices are only materialised when they fit
  the byte budget *and* the topology has seen enough query volume to
  amortise the build (see :meth:`TopologyCache.distances`).
* **routing/lookup tables** — arbitrary named per-topology arrays
  (rank grids, switch-id tables, curve index grids...) memoised through
  the generic :meth:`TopologyCache.table` hook.

Cache keys are derived from the *parameters* of a topology (class, size,
processor curve, hop convention, ...), not object identity, so two
equal-parameter instances share entries.

The process-wide cache caps any single distance matrix at 256 MiB and
holds at most 32 entries per section, evicting the least recently used
beyond that; call :func:`set_topology_cache` to swap in a
differently-sized cache.

Every hit, miss and eviction is also reported to :mod:`repro.obs`
(``topo_cache.*`` counters) so recorded runs can prove their reuse.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

import numpy as np

from repro import obs
from repro._typing import IntArray
from repro.topology.base import Topology

__all__ = [
    "TopologyCache",
    "topology_cache_key",
    "get_topology_cache",
    "set_topology_cache",
]


def topology_cache_key(topology: Topology) -> tuple:
    """A hashable key identifying a topology by its parameters.

    Includes everything that determines the hop metric and the routed
    paths: concrete class, processor count, the processor-order SFC (for
    grid-embedded networks), the hypercube label layout and the tree hop
    convention.  Two instances built with the same parameters map to the
    same key.
    """
    parts: list[Hashable] = [type(topology).__name__, topology.num_processors]
    layout = getattr(topology, "layout", None)
    if layout is not None:
        parts.append(getattr(layout, "curve_name", None))
    parts.append(getattr(topology, "layout_name", None))  # hypercube embedding
    parts.append(getattr(topology, "hop_convention", None))  # tree charging
    return tuple(parts)


class _LruSection:
    """One bounded LRU mapping (not thread-safe; callers hold the lock).

    ``label`` names the section in the :mod:`repro.obs` counter stream
    (``<label>_hits`` / ``<label>_misses`` / ``<label>_evictions``).
    ``on_evict(key, value)`` fires for every eviction so side tables
    keyed alongside the section can be pruned in lockstep.
    """

    def __init__(
        self,
        max_entries: int,
        label: str = "topo_cache.section",
        on_evict: Callable[[Hashable, object], None] | None = None,
    ):
        self.max_entries = max_entries
        self.on_evict = on_evict
        self.data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._hit_key = f"{label}_hits"
        self._miss_key = f"{label}_misses"
        self._evict_key = f"{label}_evictions"

    def get(self, key):
        if key in self.data:
            self.data.move_to_end(key)
            self.hits += 1
            obs.count(self._hit_key)
            return self.data[key]
        self.misses += 1
        obs.count(self._miss_key)
        return None

    def put(self, key, value) -> None:
        self.data[key] = value
        self.data.move_to_end(key)
        while len(self.data) > self.max_entries:
            evicted_key, evicted = self.data.popitem(last=False)
            self.evictions += 1
            obs.count(self._evict_key)
            if self.on_evict is not None:
                self.on_evict(evicted_key, evicted)

    def clear(self) -> None:
        self.data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class TopologyCache:
    """Thread-safe LRU cache of per-topology derived data.

    Parameters
    ----------
    max_entries:
        Resident entries per section (matrices / tables) before LRU
        eviction.
    max_matrix_bytes:
        Upper bound on the size of any single distance matrix; larger
        topologies transparently fall back to the vectorised distance
        kernel.  ``0`` disables matrix caching.
    """

    _MATRIX_DTYPE = np.int32  # diameters comfortably fit 32 bits

    def __init__(self, max_entries: int = 32, max_matrix_bytes: int = 256 << 20):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_matrix_bytes < 0:
            raise ValueError(f"max_matrix_bytes must be >= 0, got {max_matrix_bytes}")
        self.max_matrix_bytes = int(max_matrix_bytes)
        self.max_entries = int(max_entries)
        self._lock = threading.RLock()
        self._query_volume: dict[tuple, int] = {}
        # Volume accounting is pruned in lockstep with evictions, so a
        # long campaign over many topologies cannot grow the side dict
        # unboundedly and a re-inserted entry never inherits stale volume.
        self._matrices = _LruSection(
            max_entries,
            label="topo_cache.matrix",
            on_evict=lambda key, _v: self._query_volume.pop(key, None),
        )
        self._tables = _LruSection(max_entries, label="topo_cache.table")

    # -- distance matrices ---------------------------------------------------
    def matrix_fits(self, topology: Topology) -> bool:
        """Whether a full distance matrix of ``topology`` is within budget."""
        p = topology.num_processors
        return p * p * np.dtype(self._MATRIX_DTYPE).itemsize <= self.max_matrix_bytes

    def _build_matrix(self, topology: Topology) -> IntArray:
        p = topology.num_processors
        with obs.span("topo.matrix_build", processors=p):
            ranks = np.arange(p, dtype=np.int64)
            matrix = np.empty((p, p), dtype=self._MATRIX_DTYPE)
            # Row-blocked so the int64 intermediates stay bounded (~16 MiB).
            block = max(1, (2 << 20) // max(p, 1))
            for lo in range(0, p, block):
                hi = min(lo + block, p)
                matrix[lo:hi] = topology.distance(ranks[lo:hi, None], ranks[None, :])
            obs.count("topo_cache.matrix_bytes_built", matrix.nbytes)
        return matrix

    def matrix_for_queries(self, topology: Topology, volume: int) -> IntArray | None:
        """The cached matrix, accounting ``volume`` queries toward its build.

        Returns ``None`` while the matrix is not worth materialising:
        either it exceeds the byte budget, or the cumulative query
        volume for this topology has not yet reached ``p`` elements
        (one trial's worth of lookups, the point where the ``O(p^2)``
        build pays for itself).  Callers fall back to
        :meth:`Topology.distance` in that case — results are identical
        either way.  This is the primitive behind :meth:`distances`;
        the histogram ACD calls it directly and gathers from the matrix
        itself.
        """
        if not self.matrix_fits(topology):
            return None
        key = topology_cache_key(topology)
        with self._lock:
            matrix = self._matrices.get(key)
            if matrix is None:
                total = self._query_volume.get(key, 0) + int(volume)
                self._query_volume[key] = total
                if total < topology.num_processors:
                    return None
                matrix = self._build_matrix(topology)
                self._matrices.put(key, matrix)
                # The accumulated volume did its job; a future rebuild
                # (after an eviction) must amortise from zero again.
                self._query_volume.pop(key, None)
        return matrix

    def distances(self, topology: Topology, a, b) -> IntArray:
        """Hop distances, served from the cached matrix when worthwhile.

        See :meth:`matrix_for_queries` for the lazy-build policy; this
        wrapper gathers from the matrix once it exists and forwards to
        :meth:`Topology.distance` until then.
        """
        matrix = self.matrix_for_queries(topology, np.asarray(a).size)
        if matrix is None:
            return topology.distance(a, b)
        return matrix[a, b].astype(np.int64)

    # -- generic per-topology tables ----------------------------------------
    def table(self, key: Hashable, builder: Callable[[], object]) -> object:
        """Memoise ``builder()`` under ``key`` (LRU, thread-safe).

        Used by the batch router for per-topology link tables and by the
        ANNS pipeline for curve index grids; any hashable key works.
        """
        with self._lock:
            cached = self._tables.get(key)
            if cached is None:
                cached = builder()
                self._tables.put(key, cached)
            return cached

    def topology_table(
        self, topology: Topology, name: str, builder: Callable[[], object]
    ) -> object:
        """:meth:`table` keyed by ``(name, topology parameters)``."""
        return self.table((name, topology_cache_key(topology)), builder)

    # -- maintenance ---------------------------------------------------------
    def clear(self) -> None:
        """Drop every cached entry and reset the statistics."""
        with self._lock:
            for section in (self._matrices, self._tables):
                section.clear()
            self._query_volume.clear()

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/residency counters (for tests and diagnostics)."""
        with self._lock:
            return {
                "matrix_hits": self._matrices.hits,
                "matrix_misses": self._matrices.misses,
                "matrix_evictions": self._matrices.evictions,
                "matrices": len(self._matrices.data),
                "table_hits": self._tables.hits,
                "table_misses": self._tables.misses,
                "table_evictions": self._tables.evictions,
                "tables": len(self._tables.data),
            }


_default_cache = TopologyCache()
_default_lock = threading.Lock()


def get_topology_cache() -> TopologyCache:
    """The process-wide shared cache instance."""
    return _default_cache


def set_topology_cache(cache: TopologyCache) -> TopologyCache:
    """Replace the process-wide cache; returns the previous instance."""
    global _default_cache
    if not isinstance(cache, TopologyCache):
        raise TypeError(f"expected a TopologyCache, got {type(cache).__name__}")
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
    return previous
