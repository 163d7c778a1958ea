"""Tests for the store-and-forward contention simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contention import simulate_exchange
from repro.fmm import CommunicationEvents
from repro.metrics import compute_acd
from repro.topology import make_topology


def events_of(pairs):
    ev = CommunicationEvents()
    arr = np.asarray(pairs).reshape(-1, 2)
    ev.add(arr[:, 0], arr[:, 1])
    return ev


class TestBasics:
    def test_empty(self):
        result = simulate_exchange(CommunicationEvents(), make_topology("bus", 4))
        assert result.makespan == 0 and result.num_messages == 0
        assert result.stretch_over_bounds == 1.0

    def test_self_messages_are_free(self):
        result = simulate_exchange(events_of([(2, 2), (3, 3)]), make_topology("bus", 4))
        assert result.num_messages == 0

    def test_single_message_latency_is_distance(self):
        bus = make_topology("bus", 8)
        result = simulate_exchange(events_of([(0, 5)]), bus)
        assert result.makespan == 5
        assert result.mean_latency == 5.0
        assert result.congestion == 1 and result.dilation == 5

    def test_two_disjoint_messages_run_in_parallel(self):
        bus = make_topology("bus", 8)
        result = simulate_exchange(events_of([(0, 1), (6, 7)]), bus)
        assert result.makespan == 1

    def test_two_messages_sharing_a_link_serialise(self):
        bus = make_topology("bus", 4)
        # both need link 1->2 in the same direction
        result = simulate_exchange(events_of([(1, 2), (1, 2)]), bus)
        assert result.makespan == 2
        assert result.congestion == 2

    def test_opposite_directions_do_not_conflict(self):
        """Links are full-duplex: one message per direction per cycle."""
        bus = make_topology("bus", 4)
        result = simulate_exchange(events_of([(1, 2), (2, 1)]), bus)
        assert result.makespan == 1

    def test_pipeline_through_shared_path(self):
        bus = make_topology("bus", 8)
        # three messages 0->7: they pipeline, finishing 7, 8, 9
        result = simulate_exchange(events_of([(0, 7)] * 3), bus)
        assert result.makespan == 9
        assert result.max_latency == 9

    def test_makespan_at_least_lower_bounds(self):
        torus = make_topology("torus", 64, processor_curve="hilbert")
        rng = np.random.default_rng(0)
        ev = events_of(np.stack([rng.integers(0, 64, 300), rng.integers(0, 64, 300)], 1))
        result = simulate_exchange(ev, torus)
        assert result.makespan >= result.congestion
        assert result.makespan >= result.dilation
        assert result.stretch_over_bounds >= 1.0

    def test_total_hops_matches_acd_total(self):
        torus = make_topology("torus", 64, processor_curve="hilbert")
        rng = np.random.default_rng(1)
        ev = events_of(np.stack([rng.integers(0, 64, 200), rng.integers(0, 64, 200)], 1))
        result = simulate_exchange(ev, torus)
        assert result.total_hops == compute_acd(ev, torus).total

    def test_cycle_guard(self):
        bus = make_topology("bus", 4)
        with pytest.raises(RuntimeError, match="cycles"):
            simulate_exchange(events_of([(0, 3)] * 5), bus, max_cycles=2)


class TestAcrossTopologies:
    @pytest.mark.parametrize("name", ["bus", "ring", "mesh", "torus", "quadtree", "hypercube"])
    def test_everything_delivers(self, name):
        topo = make_topology(name, 64, processor_curve="hilbert")
        rng = np.random.default_rng(2)
        ev = events_of(np.stack([rng.integers(0, 64, 500), rng.integers(0, 64, 500)], 1))
        result = simulate_exchange(ev, topo)
        assert result.num_messages <= 500
        assert result.makespan >= result.max_latency * 0 + result.congestion


class TestContentionFindings:
    def test_hilbert_nfi_exchange_finishes_faster_than_rowmajor(self):
        """The paper's deferred question: does the ACD winner also win
        once contention serialises the links?  For FMM near-field
        traffic on a torus — yes."""
        from repro.distributions import get_distribution
        from repro.fmm import nfi_events
        from repro.partition import partition_particles

        particles = get_distribution("uniform").sample(2_000, 7, rng=3)
        results = {}
        for curve in ("hilbert", "rowmajor"):
            net = make_topology("torus", 256, processor_curve=curve)
            asg = partition_particles(particles, curve, 256)
            results[curve] = simulate_exchange(nfi_events(asg), net)
        assert results["hilbert"].makespan < results["rowmajor"].makespan
        assert results["hilbert"].mean_latency < results["rowmajor"].mean_latency
