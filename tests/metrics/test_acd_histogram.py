"""Property tests: pair-histogram ACD ≡ streaming ACD.

The campaign runner evaluates shared event artifacts as
:class:`~repro.fmm.events.PairHistogram` instances; these tests pin the
exact equivalence (integer arithmetic, any topology, weighted or not)
that the bit-identity of grouped campaigns rests on.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.metrics.acd import acd_breakdown, compute_acd
from repro.topology.registry import make_topology, topology_names

#: 64 ranks is valid for every registered topology (4**3 quadtree
#: leaves, 8**2 octree leaves, 4**3 cube for the 3D grids, 2**6
#: hypercube labels).
P = 64


def random_events(rng: np.random.Generator, p: int, weighted: bool) -> CommunicationEvents:
    """A multi-chunk event multiset with repeated pairs and varied sizes."""
    events = CommunicationEvents(component="random")
    for _ in range(rng.integers(1, 5)):
        n = int(rng.integers(1, 400))
        src = rng.integers(0, p, n)
        dst = rng.integers(0, p, n)
        weights = rng.integers(0, 7, n) if weighted else None
        events.add(src, dst, weights)
    return events


@pytest.mark.parametrize("topology_name", topology_names())
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_histogram_acd_matches_streaming(topology_name, weighted):
    topology = make_topology(topology_name, P, processor_curve="hilbert")
    rng = np.random.default_rng(sum(map(ord, topology_name)) * 2 + int(weighted))
    for trial in range(5):
        events = random_events(rng, P, weighted)
        histogram = events.compact(P)
        streamed = compute_acd(events, topology)
        compacted = compute_acd(histogram, topology)
        assert streamed == compacted  # exact, both integer aggregates
        # and identically without the distance-matrix cache
        assert compute_acd(histogram, topology, cache=None) == streamed


def test_compact_aggregates_weights():
    events = CommunicationEvents()
    events.add([0, 1, 0], [2, 3, 2], [5, 1, 2])
    events.add([0], [2])  # unweighted chunk behaves as weight 1
    hist = events.compact(4)
    assert hist.num_events == 4
    assert hist.num_pairs == 2
    by_pair = dict(zip(zip(hist.src.tolist(), hist.dst.tolist()), hist.weights.tolist()))
    assert by_pair == {(0, 2): 8, (1, 3): 1}
    assert hist.total_weight == events.total_weight == 9


def test_compact_drops_zero_weight_pairs():
    events = CommunicationEvents()
    events.add([0, 1], [1, 2], [0, 3])
    hist = events.compact(3)
    assert hist.num_pairs == 1
    assert hist.total_weight == 3
    topology = make_topology("ring", 3)
    assert compute_acd(hist, topology) == compute_acd(events, topology)


def test_compact_empty_events():
    hist = CommunicationEvents().compact(8)
    assert hist.num_pairs == 0 and hist.num_events == 0 and hist.total_weight == 0
    assert compute_acd(hist, make_topology("ring", 8)).mean == 0.0


def test_compact_rejects_out_of_range_ranks():
    events = CommunicationEvents()
    events.add([0, 5], [1, 2])
    with pytest.raises(ValueError, match="outside"):
        events.compact(4)


def counter_histogram(chunks) -> dict[tuple[int, int], int]:
    """Reference compaction: integer weight per pair, zero totals dropped."""
    totals: Counter = Counter()
    for src, dst, weights in chunks:
        ws = [1] * len(src) if weights is None else [int(w) for w in weights]
        for s, d, w in zip(src, dst, ws):
            totals[int(s), int(d)] += w
    return {pair: w for pair, w in totals.items() if w}


def test_compact_matches_counter_oracle():
    rng = np.random.default_rng(11)
    p = 33
    chunks = []
    for i in range(12):  # unweighted, weighted and all-zero-weight chunks
        n = int(rng.integers(1, 300))
        weights = (None, rng.integers(0, 7, n), np.zeros(n, np.int64))[i % 3]
        chunks.append((rng.integers(0, p - 1, n), rng.integers(0, p - 1, n), weights))
    # a pair of its own whose weights sum past 2**53: float64 would round
    # 2**53 + 1 down to 2**53, the int64 sum must not
    chunks.append((np.array([32]), np.array([32]), np.array([2**53])))
    chunks.append((np.array([32]), np.array([32]), np.array([1])))
    for order in (range(len(chunks)), rng.permutation(len(chunks))):
        events = CommunicationEvents()
        for i in order:
            events.add(*chunks[i])
        hist = events.compact(p)
        want = counter_histogram(chunks)
        assert list(zip(hist.src.tolist(), hist.dst.tolist())) == sorted(want)
        assert hist.weights.tolist() == [want[pair] for pair in sorted(want)]
        assert hist.weights.dtype == np.int64
        assert hist.num_events == len(events)
        assert hist.total_weight == events.total_weight
    assert hist.weights[-1] == want[32, 32] == 2**53 + 1


def test_compact_independent_of_chunk_boundaries():
    rng = np.random.default_rng(3)
    src = rng.integers(0, 16, 200)
    dst = rng.integers(0, 16, 200)
    one_chunk = CommunicationEvents()
    one_chunk.add(src, dst)
    many_chunks = CommunicationEvents()
    for lo in range(0, 200, 17):
        many_chunks.add(src[lo : lo + 17], dst[lo : lo + 17])
    a, b = one_chunk.compact(16), many_chunks.compact(16)
    np.testing.assert_array_equal(a.src, b.src)
    np.testing.assert_array_equal(a.dst, b.dst)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_histogram_rejects_larger_rank_space_than_topology():
    events = CommunicationEvents()
    events.add([0, 9], [1, 3])
    hist = events.compact(16)
    with pytest.raises(ValueError, match="ranks"):
        compute_acd(hist, make_topology("ring", 8))


def test_acd_breakdown_accepts_histograms():
    rng = np.random.default_rng(7)
    topology = make_topology("torus", 16, processor_curve="hilbert")
    phases = {name: random_events(rng, 16, weighted=False) for name in ("a", "b")}
    streamed = acd_breakdown(phases, topology)
    compacted = acd_breakdown(
        {name: ev.compact(16) for name, ev in phases.items()}, topology
    )
    assert streamed == compacted


def test_flat_keys_round_trip():
    events = CommunicationEvents()
    events.add([3, 1], [2, 0])
    hist = events.compact(5)
    np.testing.assert_array_equal(hist.flat_keys(), hist.src * 5 + hist.dst)
    assert isinstance(hist, PairHistogram)
