"""The Average Communicated Distance (ACD) metric — Definition 1 of the paper.

    "Given a particular problem instance, the ACD is defined as the
    average distance for every pairwise communication made over the
    course of the entire application.  The communication distance
    between any two communicating processors is given by the length of
    the shortest path (measured in the number of hops) between the two
    processors along the network interconnect."

:func:`compute_acd` evaluates this for any
:class:`~repro.fmm.events.CommunicationEvents` against any
:class:`~repro.topology.Topology`, streaming over event chunks so the
peak memory stays bounded by the largest chunk.  The result is the
common :class:`~repro.metrics.base.MetricValue` aggregate: ``total`` is
the (weighted) hop-distance sum, ``count`` the event weight and
``mean`` the ACD itself.  The model is contention-unaware by
construction (§IV step 6 note).

Distance lookups go through the shared
:class:`~repro.topology.cache.TopologyCache`, so trial-averaged studies
that re-evaluate the same network serve hop distances from a memoised
``p x p`` matrix instead of re-running the distance kernel; pass
``cache=None`` to force direct kernel evaluation (results are
identical either way).

Both entry points also accept a pre-compacted
:class:`~repro.fmm.events.PairHistogram` in place of raw events.  A
histogram evaluation is one gather + dot product against the (cached)
``p x p`` distance matrix — ``O(p**2)`` worst case instead of
``O(#events)`` — and, because every sum stays in integer arithmetic, is
bit-identical to streaming over the events the histogram was compacted
from.

Memory-bounded evaluation
-------------------------
A ``p x p`` distance matrix is 4 TiB at ``p = 2**20`` — far beyond any
budget — so both entry points also take a ``memory_budget`` (defaulting
to :attr:`repro.runtime.RuntimeConfig.memory_budget`,
``REPRO_MEMORY_BUDGET`` / ``--memory-budget``).  When the dense matrix
would not fit the budget, no matrix is built: a histogram is evaluated
matrix-free, through the vectorised distance kernel over chunks of at
most ``budget // 32`` pairs, and streamed events bypass the cache.
Every partial sum is exact ``int64`` arithmetic, so the result is
bit-identical to the dense and streaming paths for any budget.
"""

from __future__ import annotations

from typing import Mapping, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.metrics.base import MetricValue
from repro.runtime import runtime_config
from repro.topology.base import Topology
from repro.topology.cache import TopologyCache, get_topology_cache

__all__ = [
    "compute_acd",
    "acd_breakdown",
    "dense_matrix_bytes",
]

#: Either form of an event multiset accepted by the ACD evaluators.
EventsLike = Union[CommunicationEvents, PairHistogram]

_DEFAULT_CACHE = "default"  # sentinel: resolve the shared cache at call time
_DEFAULT_BUDGET = "config"  # sentinel: read RuntimeConfig.memory_budget at call time

#: Conservative working-set estimate per pair of an over-budget chunk:
#: the ``int64`` distances, their ``int64`` copy and the intermediates
#: the vectorised distance kernels allocate.  A 2 GiB budget evaluates
#: chunks of 64 Mi pairs.
_CHUNK_BYTES_PER_PAIR = 32


def _check_ranks(src, dst, num_processors: int) -> None:
    """Reject ranks outside ``[0, num_processors)`` (cheap min/max scan)."""
    if not np.asarray(src).size:
        return
    low = min(int(np.min(src)), int(np.min(dst)))
    high = max(int(np.max(src)), int(np.max(dst)))
    if low < 0 or high >= num_processors:
        offender = high if high >= num_processors else low
        raise ValueError(
            f"events reference rank {offender} outside the "
            f"{num_processors}-processor rank space of the topology"
        )


def dense_matrix_bytes(num_processors: int) -> int:
    """Bytes of the full ``p x p`` ``int32`` distance matrix."""
    return num_processors * num_processors * 4


def _resolve_budget(memory_budget: "int | None | str") -> int | None:
    if memory_budget == _DEFAULT_BUDGET:
        return runtime_config().memory_budget
    if memory_budget is not None and int(memory_budget) < 1:
        raise ValueError(f"memory_budget must be >= 1 byte, got {memory_budget}")
    return memory_budget


def _histogram_acd(
    histogram: PairHistogram,
    topology: Topology,
    cache: TopologyCache | None,
    memory_budget: int | None,
) -> MetricValue:
    """ACD of a compacted histogram: distance gather + integer dot product.

    Within the budget the distances come from the cached matrix when it
    is (or becomes) resident, else from the vectorised distance kernel
    in one call.  Over the budget no matrix is built and the kernel runs
    over chunks of at most ``memory_budget // 32`` pairs.  All paths are
    bit-identical.
    """
    p = topology.num_processors
    if histogram.num_processors > p:
        raise ValueError(
            f"histogram spans {histogram.num_processors} ranks but the "
            f"topology only has {p}"
        )
    if histogram.num_pairs == 0:
        return MetricValue(0, 0)
    src, dst, weights = histogram.src, histogram.dst, histogram.weights
    _check_ranks(src, dst, p)
    step = src.size
    matrix = None
    if memory_budget is not None and dense_matrix_bytes(p) > memory_budget:
        step = max(1, memory_budget // _CHUNK_BYTES_PER_PAIR)
    elif cache is not None:
        matrix = cache.matrix_for_queries(topology, src.size)
    total = 0
    for lo in range(0, src.size, step):
        a, b = src[lo : lo + step], dst[lo : lo + step]
        distances = topology.distance(a, b) if matrix is None else matrix[a, b]
        total += int(distances.astype(np.int64) @ weights[lo : lo + step])
    return MetricValue(total=total, count=histogram.total_weight)


def compute_acd(
    events: EventsLike,
    topology: Topology,
    *,
    cache: TopologyCache | None | str = _DEFAULT_CACHE,
    memory_budget: "int | None | str" = _DEFAULT_BUDGET,
) -> MetricValue:
    """Evaluate the ACD of an event multiset on a topology.

    Weighted events contribute ``weight * distance`` to the total and
    ``weight`` to the count, so the ``mean`` of the returned
    :class:`MetricValue` is the average distance per unit of data
    volume; unweighted events behave as weight 1.

    ``events`` may be raw :class:`CommunicationEvents` (streamed chunk
    by chunk) or a :class:`PairHistogram` (one gather + dot product on
    the distinct rank pairs); the results are bit-identical.

    ``cache`` selects the topology cache serving the distance lookups
    (the process-wide default when omitted, ``None`` to bypass caching).

    ``memory_budget`` bounds the evaluation's working set in bytes
    (default: :attr:`RuntimeConfig.memory_budget`; ``None`` for
    unbounded).  When the dense ``p x p`` distance matrix would exceed
    it, no matrix is materialised: histogram evaluations run the
    distance kernel over budget-sized chunks of pairs and streamed
    evaluations bypass the cache — results are identical for any
    budget.
    """
    if cache == _DEFAULT_CACHE:
        cache = get_topology_cache()
    memory_budget = _resolve_budget(memory_budget)
    if isinstance(events, PairHistogram):
        return _histogram_acd(events, topology, cache, memory_budget)
    if (
        memory_budget is not None
        and dense_matrix_bytes(topology.num_processors) > memory_budget
    ):
        # The cache's matrix section would happily materialise p x p as
        # long as it fits *its* budget; an explicit memory budget that
        # the dense matrix exceeds must keep streaming matrix-free.
        cache = None
    total = 0
    count = 0
    for src, dst, weights in events.iter_weighted_chunks():
        # Guard every chunk before any distance lookup: a cached matrix
        # would otherwise wrap negative ranks silently (garbage
        # distances) and turn over-range ranks into an IndexError
        # instead of the ValueError the histogram path raises.
        _check_ranks(src, dst, topology.num_processors)
        if cache is None:
            distances = topology.distance(src, dst)
        else:
            distances = cache.distances(topology, src, dst)
        if weights is None:
            total += int(distances.sum())
            count += int(src.size)
        else:
            total += int((distances * weights).sum())
            count += int(weights.sum())
    return MetricValue(total=total, count=count)


def acd_breakdown(
    phases: Mapping[str, EventsLike],
    topology: Topology,
    *,
    cache: TopologyCache | None | str = _DEFAULT_CACHE,
    memory_budget: "int | None | str" = _DEFAULT_BUDGET,
) -> dict[str, MetricValue]:
    """Per-phase ACD plus a pooled ``"combined"`` entry.

    Used for the far-field model where interpolation, anterpolation and
    interaction-list traffic are reported separately and together (§IV
    step 10 sums over all three).  Each phase may be raw events or a
    :class:`PairHistogram`.  The phase name ``"combined"`` is reserved
    for that pooled entry; passing a phase with that name raises
    :class:`~repro.errors.ConfigurationError` instead of silently
    overwriting it.

    ``cache`` and ``memory_budget`` are forwarded verbatim to every
    per-phase :func:`compute_acd` call (the shared process cache and
    the configured budget when omitted, ``None`` to bypass caching /
    run unbounded — e.g. for cache ablations).
    """
    if "combined" in phases:
        raise ConfigurationError(
            'phase name "combined" is reserved for the pooled ACD entry; '
            "rename the phase before calling acd_breakdown"
        )
    out: dict[str, MetricValue] = {}
    combined = MetricValue(0, 0)
    for name, events in phases.items():
        result = compute_acd(events, topology, cache=cache, memory_budget=memory_budget)
        out[name] = result
        combined = combined.merged(result)
    out["combined"] = combined
    return out
