"""Tests for the shared per-topology memoisation layer."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    TopologyCache,
    get_topology_cache,
    make_topology,
    set_topology_cache,
    topology_cache_key,
)
from repro.topology.registry import TOPOLOGIES

ALL_TOPOLOGIES = tuple(sorted(TOPOLOGIES))


class TestCacheKey:
    def test_equal_parameters_share_a_key(self):
        a = make_topology("torus", 64, processor_curve="hilbert")
        b = make_topology("torus", 64, processor_curve="hilbert")
        assert a is not b
        assert topology_cache_key(a) == topology_cache_key(b)

    @pytest.mark.parametrize(
        "other",
        [
            ("torus", 64, "rowmajor"),  # different layout curve
            ("torus", 256, "hilbert"),  # different size
            ("mesh", 64, "hilbert"),  # different class
        ],
    )
    def test_different_parameters_differ(self, other):
        base = make_topology("torus", 64, processor_curve="hilbert")
        name, p, curve = other
        assert topology_cache_key(base) != topology_cache_key(
            make_topology(name, p, processor_curve=curve)
        )

    def test_hop_convention_distinguishes_trees(self):
        from repro.topology import QuadtreeTopology

        up = QuadtreeTopology(64, hop_convention="updown")
        lv = QuadtreeTopology(64, hop_convention="levels")
        assert topology_cache_key(up) != topology_cache_key(lv)


class TestDistanceMatrix:
    @pytest.mark.parametrize("name", ALL_TOPOLOGIES)
    def test_matrix_matches_distance_kernel(self, name):
        topo = make_topology(name, 64)
        cache = TopologyCache()
        matrix = cache.matrix_for_queries(topo, 64)
        assert matrix.dtype == np.int32
        ranks = np.arange(64, dtype=np.int64)
        expected = topo.distance(ranks[:, None], ranks[None, :])
        np.testing.assert_array_equal(matrix, expected)

    def test_matrix_is_cached(self):
        topo = make_topology("ring", 32)
        cache = TopologyCache()
        assert cache.matrix_for_queries(topo, 32) is cache.matrix_for_queries(topo, 1)
        assert cache.stats["matrix_hits"] == 1

    def test_over_budget_matrix_refused(self):
        topo = make_topology("ring", 64)
        cache = TopologyCache(max_matrix_bytes=100)
        assert not cache.matrix_fits(topo)
        assert cache.matrix_for_queries(topo, 10**9) is None
        assert cache.stats["matrices"] == 0

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_cached_distances_equal_fresh(self, seed):
        """Property: `distances` is indistinguishable from `Topology.distance`."""
        rng = np.random.default_rng(seed)
        name = ALL_TOPOLOGIES[int(rng.integers(len(ALL_TOPOLOGIES)))]
        topo = make_topology(name, 64)
        cache = TopologyCache()
        for _ in range(3):  # crosses the lazy-build threshold mid-stream
            a = rng.integers(0, 64, 50)
            b = rng.integers(0, 64, 50)
            np.testing.assert_array_equal(
                cache.distances(topo, a, b), topo.distance(a, b)
            )

    def test_distances_build_is_lazy(self):
        topo = make_topology("torus", 64)
        cache = TopologyCache()
        small = np.arange(4)
        cache.distances(topo, small, small[::-1])
        assert cache.stats["matrices"] == 0  # below the p-element volume gate
        big = np.arange(64)
        cache.distances(topo, big, big[::-1])
        assert cache.stats["matrices"] == 1

    def test_zero_budget_disables_matrices(self):
        topo = make_topology("ring", 16)
        cache = TopologyCache(max_matrix_bytes=0)
        a = np.arange(16)
        np.testing.assert_array_equal(cache.distances(topo, a, a[::-1]),
                                      topo.distance(a, a[::-1]))
        assert cache.stats["matrices"] == 0


class TestQueryVolumeAccounting:
    def test_volume_pruned_on_matrix_eviction(self):
        """Regression: evicting a matrix used to leak its volume entry,
        so a re-inserted topology inherited stale volume and the side
        dict grew unboundedly over long multi-topology campaigns."""
        cache = TopologyCache(max_entries=1)
        a = make_topology("ring", 16)
        b = make_topology("ring", 32)
        # Partial volume toward `a`, below its build gate.
        assert cache.matrix_for_queries(a, 8) is None
        assert topology_cache_key(a) in cache._query_volume
        # Build `b`: evicts nothing yet (gate), then force both builds.
        assert cache.matrix_for_queries(b, 32) is not None
        # Building `a` evicts `b` (max_entries=1)...
        assert cache.matrix_for_queries(a, 8) is not None
        assert cache.stats["matrix_evictions"] == 1
        # ...and neither key retains volume: built keys are reset and
        # evicted keys are pruned.
        assert cache._query_volume == {}

    def test_re_inserted_topology_pays_full_volume_gate(self):
        cache = TopologyCache(max_entries=1)
        a = make_topology("ring", 16)
        b = make_topology("ring", 32)
        assert cache.matrix_for_queries(a, 16) is not None  # built
        assert cache.matrix_for_queries(b, 32) is not None  # built, evicts a
        # `a` was evicted; with pruned volume it must re-amortise from
        # zero rather than building instantly off stale credit.
        assert cache.matrix_for_queries(a, 15) is None


class TestLruAndTables:
    def test_lru_eviction(self):
        cache = TopologyCache(max_entries=2)
        for p in (16, 32, 64):
            cache.matrix_for_queries(make_topology("ring", p), p)
        assert cache.stats["matrices"] == 2
        # the oldest (16) was evicted, so rebuilding it is a miss
        misses = cache.stats["matrix_misses"]
        cache.matrix_for_queries(make_topology("ring", 16), 16)
        assert cache.stats["matrix_misses"] == misses + 1

    def test_table_memoises_builder(self):
        cache = TopologyCache()
        calls = []
        for _ in range(3):
            value = cache.table("k", lambda: calls.append(1) or "built")
        assert value == "built" and len(calls) == 1

    def test_topology_table_keys_by_parameters(self):
        cache = TopologyCache()
        a = make_topology("mesh", 16)
        b = make_topology("mesh", 16)
        t1 = cache.topology_table(a, "demo", lambda: object())
        t2 = cache.topology_table(b, "demo", lambda: object())
        assert t1 is t2

    def test_clear_resets_everything(self):
        cache = TopologyCache()
        cache.matrix_for_queries(make_topology("ring", 16), 16)
        cache.matrix_for_queries(make_topology("ring", 32), 1)  # volume pending
        cache.table("x", lambda: 1)
        cache.clear()
        stats = cache.stats
        assert stats["matrices"] == 0 and stats["tables"] == 0
        assert stats["matrix_hits"] == 0 and stats["table_misses"] == 0
        assert not cache._query_volume

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            TopologyCache(max_entries=0)
        with pytest.raises(ValueError):
            TopologyCache(max_matrix_bytes=-1)


class TestThreadSafety:
    def test_concurrent_mixed_access(self):
        cache = TopologyCache(max_entries=4)
        topos = [make_topology("ring", p) for p in (16, 32, 64, 128)]
        errors = []

        def worker(i):
            try:
                rng = np.random.default_rng(i)
                for _ in range(50):
                    topo = topos[int(rng.integers(len(topos)))]
                    p = topo.num_processors
                    a = rng.integers(0, p, p)
                    b = rng.integers(0, p, p)
                    np.testing.assert_array_equal(
                        cache.distances(topo, a, b), topo.distance(a, b)
                    )
                    cache.topology_table(topo, "t", lambda: p)
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestGlobalCache:
    def test_swap_and_restore(self):
        original = get_topology_cache()
        replacement = TopologyCache(max_entries=2)
        try:
            assert set_topology_cache(replacement) is original
            assert get_topology_cache() is replacement
        finally:
            set_topology_cache(original)

    def test_rejects_non_cache(self):
        with pytest.raises(TypeError):
            set_topology_cache(object())
