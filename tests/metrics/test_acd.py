"""Tests for the ACD metric itself."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fmm import CommunicationEvents
from repro.metrics import MetricValue, acd_breakdown, compute_acd
from repro.topology import make_topology


def events_of(pairs):
    ev = CommunicationEvents()
    if pairs:
        arr = np.asarray(pairs)
        ev.add(arr[:, 0], arr[:, 1])
    return ev


class TestACDResult:
    """The ACD's result aggregate is the common :class:`MetricValue`."""

    def test_mean(self):
        assert MetricValue(10, 4).mean == 2.5

    def test_empty_is_zero(self):
        assert MetricValue(0, 0).mean == 0.0

    def test_merged(self):
        merged = MetricValue(10, 4).merged(MetricValue(2, 2))
        assert merged.total == 12 and merged.count == 6


class TestComputeACD:
    def test_hand_computed_bus(self):
        bus = make_topology("bus", 8)
        result = compute_acd(events_of([(0, 7), (1, 1), (2, 4)]), bus)
        assert result.total == 7 + 0 + 2
        assert result.count == 3
        assert result.mean == 3.0

    def test_streams_over_chunks(self):
        bus = make_topology("bus", 8)
        ev = CommunicationEvents()
        ev.add([0], [7])
        ev.add([1], [2])
        result = compute_acd(ev, bus)
        assert result.total == 8 and result.count == 2

    def test_empty_events(self):
        result = compute_acd(CommunicationEvents(), make_topology("ring", 8))
        assert result.count == 0 and result.mean == 0.0

    def test_rank_out_of_range_raises(self):
        bus = make_topology("bus", 4)
        with pytest.raises(ValueError):
            compute_acd(events_of([(0, 4)]), bus)

    @pytest.mark.parametrize("topo", ["bus", "ring", "mesh", "torus", "quadtree", "hypercube"])
    def test_self_communication_is_free(self, topo):
        net = make_topology(topo, 16)
        ranks = np.arange(16)
        ev = CommunicationEvents()
        ev.add(ranks, ranks)
        assert compute_acd(ev, net).mean == 0.0


class TestBreakdown:
    def test_combined_is_pooled_mean(self):
        bus = make_topology("bus", 16)
        phases = {
            "a": events_of([(0, 4)]),  # distance 4
            "b": events_of([(0, 1), (1, 2)]),  # distances 1, 1
        }
        out = acd_breakdown(phases, bus)
        assert out["a"].mean == 4.0
        assert out["b"].mean == 1.0
        assert out["combined"].mean == pytest.approx(6 / 3)

    def test_keys(self):
        out = acd_breakdown({"only": events_of([(0, 1)])}, make_topology("bus", 4))
        assert set(out) == {"only", "combined"}

    def test_reserved_phase_name_rejected(self):
        """A user phase named "combined" must not be silently overwritten."""
        from repro.errors import ConfigurationError

        phases = {"combined": events_of([(0, 1)]), "other": events_of([(1, 2)])}
        with pytest.raises(ConfigurationError, match="combined"):
            acd_breakdown(phases, make_topology("bus", 4))


class TestCacheIntegration:
    def test_cached_and_uncached_agree(self):
        from repro.topology.cache import TopologyCache

        net = make_topology("torus", 64, processor_curve="hilbert")
        rng = np.random.default_rng(3)
        ev = CommunicationEvents()
        # enough volume to force the cache over its lazy-build threshold
        ev.add(rng.integers(0, 64, 500), rng.integers(0, 64, 500))
        fresh = compute_acd(ev, net, cache=None)
        cached = compute_acd(ev, net, cache=TopologyCache())
        assert fresh == cached


class TestRankValidation:
    """Streaming and histogram evaluation reject bad ranks identically.

    Regression: the streaming path used to hand raw ranks straight to
    the distance lookup, so a cached matrix silently wrapped negative
    ranks (garbage totals) and turned over-range ranks into an
    IndexError instead of the ValueError the histogram path raises.
    """

    @staticmethod
    def _warm_cache(net):
        from repro.topology.cache import TopologyCache

        cache = TopologyCache()
        # push the query-volume account over the lazy-build threshold
        ranks = np.arange(net.num_processors)
        cache.distances(net, ranks, ranks[::-1])
        assert cache.stats["matrices"] == 1
        return cache

    @pytest.mark.parametrize("bad_rank", [-1, 16, 1000])
    def test_streaming_rejects_bad_ranks_without_cache(self, bad_rank):
        net = make_topology("torus", 16)
        with pytest.raises(ValueError, match="rank"):
            compute_acd(events_of([(0, 1), (bad_rank, 2)]), net, cache=None)

    @pytest.mark.parametrize("bad_rank", [-1, 16, 1000])
    def test_streaming_rejects_bad_ranks_with_warm_cache(self, bad_rank):
        net = make_topology("torus", 16)
        cache = self._warm_cache(net)
        with pytest.raises(ValueError, match="rank"):
            compute_acd(events_of([(3, bad_rank)]), net, cache=cache)

    @pytest.mark.parametrize("bad_rank", [-1, 16, 1000])
    def test_histogram_raises_the_same_error(self, bad_rank):
        from repro.fmm.events import PairHistogram

        net = make_topology("torus", 16)
        cache = self._warm_cache(net)
        histogram = PairHistogram(
            src=np.array([3], dtype=np.int64),
            dst=np.array([bad_rank], dtype=np.int64),
            weights=np.array([1], dtype=np.int64),
            num_processors=net.num_processors,
            num_events=1,
        )
        with pytest.raises(ValueError, match="rank") as hist_err:
            compute_acd(histogram, net, cache=cache)
        with pytest.raises(ValueError, match="rank") as stream_err:
            compute_acd(events_of([(3, bad_rank)]), net, cache=cache)
        assert str(hist_err.value) == str(stream_err.value)

    def test_negative_ranks_no_longer_wrap_through_the_matrix(self):
        # With the matrix resident, rank -1 used to gather column p-1.
        net = make_topology("ring", 8)
        cache = self._warm_cache(net)
        with pytest.raises(ValueError, match="rank -1"):
            compute_acd(events_of([(0, -1)]), net, cache=cache)


class TestBreakdownCacheForwarding:
    """``acd_breakdown`` forwards its ``cache`` argument to every phase.

    Regression: the breakdown used to have no ``cache`` parameter, so
    cache ablations could not bypass the shared process cache.
    """

    @staticmethod
    def _phases(p, n=200):
        rng = np.random.default_rng(7)
        return {
            "near": events_of(list(zip(rng.integers(0, p, n), rng.integers(0, p, n)))),
            "far": events_of(list(zip(rng.integers(0, p, n), rng.integers(0, p, n)))),
        }

    def test_cache_none_bypasses_shared_cache(self):
        from repro import obs
        from repro.topology.cache import TopologyCache, set_topology_cache

        net = make_topology("torus", 64)
        previous = set_topology_cache(TopologyCache())
        try:
            with obs.recording() as rec:
                acd_breakdown(self._phases(64), net, cache=None)
            from repro.topology.cache import get_topology_cache

            stats = get_topology_cache().stats
            assert stats["matrix_hits"] == 0 and stats["matrix_misses"] == 0
            deltas = {k: v for k, v in rec.counters.items() if k.startswith("topo_cache.")}
            assert deltas == {}
        finally:
            set_topology_cache(previous)

    def test_explicit_cache_is_used_by_every_phase(self):
        from repro.topology.cache import TopologyCache

        net = make_topology("torus", 64)
        cache = TopologyCache()
        shared = acd_breakdown(self._phases(64), net, cache=cache)
        bypass = acd_breakdown(self._phases(64), net, cache=None)
        assert shared == bypass  # bit-identical results either way
        stats = cache.stats
        assert stats["matrix_hits"] + stats["matrix_misses"] > 0
