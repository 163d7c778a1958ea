"""Batched simulator engine vs the pure-Python reference oracle.

The engine and the oracle (:func:`tests.contention.oracle.reference_drain`,
swapped in for the engine's drain loop) implement one scheduling
discipline and must agree *exactly* — same makespan, same
congestion/dilation, same latency statistics — on every topology,
weighted or not.  These tests pin that equivalence and the
weighted-traffic semantics (an event of weight ``w`` injects ``w`` unit
messages).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.contention import RoutedBatch, route, route_batch, simulate_exchange, simulator
from repro.fmm.events import CommunicationEvents
from repro.topology import make_topology
from repro.topology.cache import TopologyCache
from repro.topology.registry import PAPER_TOPOLOGIES, TOPOLOGIES
from tests.contention.oracle import reference_drain

ALL_TOPOLOGIES = tuple(sorted(TOPOLOGIES))


def simulate_both(monkeypatch, events, topology):
    """``simulate_exchange`` on the NumPy engine, then on the oracle."""
    fast = simulate_exchange(events, topology)
    with monkeypatch.context() as patched:
        patched.setattr(simulator, "_drain_batched", reference_drain)
        slow = simulate_exchange(events, topology)
    return fast, slow


def _random_events(p: int, n: int, seed: int, weighted: bool) -> CommunicationEvents:
    rng = np.random.default_rng(seed)
    events = CommunicationEvents("test")
    src = rng.integers(0, p, n)
    dst = rng.integers(0, p, n)
    if weighted:
        # include zeros to exercise the drop-empty path
        weights = rng.integers(0, 4, n)
        events.add(src, dst, weights)
    else:
        events.add(src, dst)
    return events


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", PAPER_TOPOLOGIES)
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_paper_topologies(self, name, weighted, monkeypatch):
        topo = make_topology(name, 64, processor_curve="hilbert")
        events = _random_events(64, 400, seed=hash((name, weighted)) % 2**31, weighted=weighted)
        fast, slow = simulate_both(monkeypatch, events, topo)
        assert fast == slow

    @pytest.mark.parametrize("name", ["mesh3d", "torus3d", "octree"])
    def test_3d_topologies(self, name, monkeypatch):
        topo = make_topology(name, 64)
        events = _random_events(64, 300, seed=5, weighted=True)
        fast, slow = simulate_both(monkeypatch, events, topo)
        assert fast == slow


class TestWeightedSemantics:
    """Regression: weighted events used to be silently treated as weight 1."""

    def test_weight_equals_repeated_unit_events(self, monkeypatch):
        topo = make_topology("torus", 16, processor_curve="hilbert")
        weighted = CommunicationEvents()
        weighted.add([0, 3, 7], [5, 12, 2], [3, 1, 2])
        expanded = CommunicationEvents()
        expanded.add([0, 0, 0, 3, 7, 7], [5, 5, 5, 12, 2, 2])
        assert simulate_both(monkeypatch, weighted, topo) == simulate_both(
            monkeypatch, expanded, topo
        )

    def test_weights_inject_proportional_traffic(self):
        topo = make_topology("ring", 8)
        unit = CommunicationEvents()
        unit.add([0], [4])
        heavy = CommunicationEvents()
        heavy.add([0], [4], [5])
        r1 = simulate_exchange(unit, topo)
        r5 = simulate_exchange(heavy, topo)
        assert r1.num_messages == 1 and r5.num_messages == 5
        assert r5.congestion == 5 * r1.congestion
        # five flits pipelined over one 4-hop path: last one lands at 4 + 4
        assert r1.makespan == 4 and r5.makespan == 8

    def test_zero_weight_sends_nothing(self):
        topo = make_topology("mesh", 16)
        events = CommunicationEvents()
        events.add([1, 2], [9, 10], [0, 0])
        result = simulate_exchange(events, topo)
        assert result.num_messages == 0 and result.makespan == 0

    def test_self_messages_excluded_even_weighted(self):
        topo = make_topology("hypercube", 16)
        events = CommunicationEvents()
        events.add([3, 3], [3, 7], [9, 1])
        result = simulate_exchange(events, topo)
        assert result.num_messages == 1


class TestRouteBatch:
    @pytest.mark.parametrize("name", ALL_TOPOLOGIES)
    def test_matches_scalar_router(self, name):
        topo = make_topology(name, 64)
        rng = np.random.default_rng(11)
        src = rng.integers(0, 64, 300)
        dst = rng.integers(0, 64, 300)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        batch = route_batch(topo, src, dst)
        assert isinstance(batch, RoutedBatch)
        hops = batch.hop_counts()
        for i, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
            assert hops[i] == len(route(topo, a, b)) - 1, (name, a, b)
        np.testing.assert_array_equal(hops, topo.distance(src, dst))
        assert batch.dilation == int(hops.max())
        assert batch.total_hops == int(hops.sum())
        loads = batch.link_loads()
        assert loads.sum() == batch.total_hops
        assert batch.congestion == int(loads.max())

    def test_rejects_self_messages(self):
        topo = make_topology("ring", 8)
        with pytest.raises(ValueError):
            route_batch(topo, np.array([1, 2]), np.array([1, 5]))

    def test_rejects_shape_mismatch(self):
        topo = make_topology("ring", 8)
        with pytest.raises(ValueError):
            route_batch(topo, np.array([1, 2]), np.array([3]))

    def test_private_cache_isolated(self):
        topo = make_topology("torus", 16)
        cache = TopologyCache(max_entries=4)
        batch = route_batch(topo, np.array([0, 5]), np.array([9, 2]), cache=cache)
        assert batch.num_messages == 2
        assert cache.stats["tables"] > 0


class TestExistingFixturesUnchanged:
    """Makespans the seed implementation produced must survive the rewrite."""

    def test_shared_first_link_serialises(self, monkeypatch):
        # both messages need link 0->1; the second waits one cycle and the
        # first pipelines onward, so both land at cycle 2
        topo = make_topology("bus", 4)
        events = CommunicationEvents()
        events.add([0, 0], [2, 1])
        for result in simulate_both(monkeypatch, events, topo):
            assert result.makespan == 2

    def test_disjoint_paths_run_concurrently(self, monkeypatch):
        topo = make_topology("ring", 8)
        events = CommunicationEvents()
        events.add([0, 4], [2, 6])
        for result in simulate_both(monkeypatch, events, topo):
            assert result.makespan == 2
