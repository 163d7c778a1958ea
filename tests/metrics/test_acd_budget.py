"""Property tests: over-budget (chunked, matrix-free) ACD ≡ dense ≡ streaming.

Past the memory budget a histogram is evaluated without any distance
matrix, through ``Topology.distance`` over chunks of at most
``budget // 32`` pairs; these tests pin the bit-identity the
million-rank evaluations rest on, that no matrix is built, and that no
distance call exceeds the chunk bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.metrics.acd import acd_breakdown, compute_acd, dense_matrix_bytes
from repro.runtime import configure
from repro.topology.cache import TopologyCache
from repro.topology.registry import make_topology, topology_names

#: 64 ranks is valid for every registered topology.
P = 64


def random_events(rng: np.random.Generator, p: int, weighted: bool) -> CommunicationEvents:
    events = CommunicationEvents(component="random")
    for _ in range(rng.integers(1, 5)):
        n = int(rng.integers(1, 400))
        weights = rng.integers(0, 7, n) if weighted else None
        events.add(rng.integers(0, p, n), rng.integers(0, p, n), weights)
    return events


def record_distance_calls(monkeypatch, topology) -> list[int]:
    """Wrap ``topology.distance``; the returned list collects each call's size."""
    sizes: list[int] = []
    distance = topology.distance

    def recording(a, b):
        sizes.append(int(np.asarray(a).size))
        return distance(a, b)

    monkeypatch.setattr(topology, "distance", recording)
    return sizes


@pytest.mark.parametrize("topology_name", topology_names())
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_over_budget_matches_dense_and_streaming(topology_name, weighted, monkeypatch):
    topology = make_topology(topology_name, P, processor_curve="hilbert")
    rng = np.random.default_rng(sum(map(ord, topology_name)) * 3 + int(weighted))
    for _ in range(2):
        events = random_events(rng, P, weighted)
        # pairs touching the last rank
        events.add([P - 1, 0, P - 1], [0, P - 1, P - 1], [3, 5, 7] if weighted else None)
        # every rank to its successor: a streamed evaluation queries at
        # least p pairs, enough for a consulted cache to build the matrix
        ranks = np.arange(P)
        events.add(ranks, np.roll(ranks, -1), ranks % 5 if weighted else None)
        histogram = events.compact(P)
        assert histogram.src.max() == P - 1 and histogram.dst.max() == P - 1
        dense_cache = TopologyCache()
        assert dense_cache.matrix_for_queries(topology, P) is not None  # dense reference
        dense = compute_acd(histogram, topology, cache=dense_cache, memory_budget=None)
        streamed = compute_acd(events, topology, cache=None, memory_budget=None)
        assert dense == streamed
        # 1 byte, three pairs per chunk, and just under the dense matrix
        for budget in (1, 3 * 32, dense_matrix_bytes(P) - 1):
            cache = TopologyCache()
            with obs.recording() as rec:
                with monkeypatch.context() as patch:
                    sizes = record_distance_calls(patch, topology)
                    assert compute_acd(histogram, topology, cache=cache, memory_budget=budget) == dense
                assert compute_acd(events, topology, cache=cache, memory_budget=budget) == dense
            assert rec.counters.get("topo_cache.matrix_bytes_built", 0) == 0
            assert cache.stats["matrices"] == 0
            assert sizes and max(sizes) <= max(1, budget // 32)
            assert sum(sizes) == histogram.num_pairs


def test_budget_resolves_from_runtime_config(monkeypatch):
    topology = make_topology("torus", 16, processor_curve="hilbert")
    events = CommunicationEvents()
    events.add(np.arange(10), np.arange(10)[::-1] + 6, np.full(10, 2))
    histogram = events.compact(16)
    dense = compute_acd(histogram, topology)
    with configure(memory_budget=64):
        sizes = record_distance_calls(monkeypatch, topology)
        assert compute_acd(histogram, topology) == dense
    assert max(sizes) <= 64 // 32  # the configured budget chunked the pairs


def test_invalid_explicit_budget_rejected():
    topology = make_topology("ring", 4)
    events = CommunicationEvents()
    events.add([0], [1])
    with pytest.raises(ValueError, match="memory_budget"):
        compute_acd(events.compact(4), topology, memory_budget=0)


def test_acd_breakdown_forwards_budget(monkeypatch):
    rng = np.random.default_rng(9)
    topology = make_topology("hypercube", P)
    phases = {name: random_events(rng, P, weighted=True) for name in ("a", "b")}
    unbounded = acd_breakdown(phases, topology, memory_budget=None)
    sizes = record_distance_calls(monkeypatch, topology)
    chunked = acd_breakdown(
        {name: ev.compact(P) for name, ev in phases.items()},
        topology,
        memory_budget=500,
    )
    assert unbounded == chunked
    assert max(sizes) <= 500 // 32


@pytest.mark.parametrize("path", ["dense", "direct", "chunked"])
def test_large_weights_accumulate_in_int64(path):
    """Totals past 2**53 stay exact on every histogram path."""
    p = 1024
    topology = make_topology("ring", p)
    dst = np.arange(p, dtype=np.int64)
    # irregular low bits, so a float64 accumulation would round
    weights = np.random.default_rng(0).integers(10**12, 10**13, p)
    histogram = PairHistogram(
        src=np.zeros(p, dtype=np.int64),
        dst=dst,
        weights=weights,
        num_processors=p,
        num_events=p,
    )
    want = sum(min(d, p - d) * w for d, w in zip(dst.tolist(), weights.tolist()))
    assert want > 2**53
    cache = TopologyCache() if path == "dense" else None
    budget = 1000 if path == "chunked" else None
    result = compute_acd(histogram, topology, cache=cache, memory_budget=budget)
    assert result.total == want
    assert result.count == sum(weights.tolist())
    if cache is not None:
        assert cache.stats["matrices"] == 1


@pytest.mark.parametrize("bad", [-1, 4, 99])
@pytest.mark.parametrize("budget", [None, 1], ids=["dense", "chunked"])
def test_out_of_range_ranks_raise(bad, budget):
    topology = make_topology("ring", 4)
    cache = TopologyCache()
    cache.distances(topology, np.arange(4), np.arange(4))  # matrix resident
    for src, dst in ((bad, 1), (1, bad)):
        histogram = PairHistogram(
            src=np.array([0, src], dtype=np.int64),
            dst=np.array([0, dst], dtype=np.int64),
            weights=np.array([1, 1], dtype=np.int64),
            num_processors=4,
            num_events=2,
        )
        with pytest.raises(ValueError, match=f"rank {bad} outside"):
            compute_acd(histogram, topology, cache=cache, memory_budget=budget)
