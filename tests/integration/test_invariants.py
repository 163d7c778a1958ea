"""Cross-cutting model invariants, several property-based.

These tests pin down structural facts that hold regardless of the
concrete workload — the kind of invariant that catches subtle modelling
regressions which per-module unit tests miss.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contention import simulate_exchange
from repro.distributions import get_distribution
from repro.fmm import CommunicationEvents, ffi_events, nfi_events
from repro.metrics import compute_acd
from repro.partition import partition_particles
from repro.primitives import allgather_ring, allreduce, alltoall, broadcast, scan
from repro.topology import make_topology


@pytest.fixture(scope="module")
def particles():
    return get_distribution("uniform").sample(600, 5, rng=20)


class TestEventCountInvariants:
    def test_nfi_count_independent_of_curve(self, particles):
        """Neighbour pairs are a property of the *positions*; the curve
        only changes who owns them."""
        counts = {
            curve: len(nfi_events(partition_particles(particles, curve, 16)))
            for curve in ("hilbert", "zcurve", "gray", "rowmajor")
        }
        assert len(set(counts.values())) == 1

    def test_ffi_count_independent_of_curve(self, particles):
        counts = {
            curve: len(ffi_events(partition_particles(particles, curve, 16)).combined())
            for curve in ("hilbert", "zcurve", "gray", "rowmajor")
        }
        assert len(set(counts.values())) == 1

    def test_nfi_events_monotone_in_radius(self, particles):
        asg = partition_particles(particles, "hilbert", 16)
        sizes = [len(nfi_events(asg, radius=r)) for r in (1, 2, 3, 4)]
        assert sizes == sorted(sizes)

    def test_nfi_manhattan_subset_of_chebyshev(self, particles):
        asg = partition_particles(particles, "hilbert", 16)
        for r in (1, 2, 3):
            assert len(nfi_events(asg, r, "manhattan")) <= len(
                nfi_events(asg, r, "chebyshev")
            )


class TestAcdInvariants:
    def test_alltoall_acd_is_layout_invariant(self):
        """The all-pairs mean cannot depend on a bijective relabelling."""
        ev = alltoall(np.arange(64))
        values = {
            curve: compute_acd(ev, make_topology("torus", 64, processor_curve=curve)).mean
            for curve in ("hilbert", "zcurve", "gray", "rowmajor")
        }
        assert len({round(v, 12) for v in values.values()}) == 1

    def test_acd_bounded_by_diameter(self, particles):
        for topo_name in ("torus", "quadtree", "hypercube"):
            net = make_topology(topo_name, 16, processor_curve="hilbert")
            asg = partition_particles(particles, "hilbert", 16)
            assert compute_acd(nfi_events(asg), net).mean <= net.diameter

    def test_single_processor_acd_is_zero(self, particles):
        asg = partition_particles(particles, "hilbert", 1)
        net = make_topology("bus", 1)
        assert compute_acd(nfi_events(asg), net).mean == 0.0
        assert compute_acd(ffi_events(asg).combined(), net).mean == 0.0

    def test_acd_identical_for_reversed_events(self, particles):
        """Hop metrics are symmetric, so direction cannot matter."""
        asg = partition_particles(particles, "zcurve", 16)
        net = make_topology("torus", 16, processor_curve="hilbert")
        ev = nfi_events(asg)
        assert compute_acd(ev, net).mean == compute_acd(ev.reversed(), net).mean


participant_lists = st.lists(
    st.integers(0, 63), min_size=1, max_size=24, unique=True
).map(np.asarray)


class TestPrimitiveProperties:
    @given(participant_lists)
    @settings(max_examples=60, deadline=None)
    def test_broadcast_reaches_every_participant(self, parts):
        ev = broadcast(parts)
        assert len(ev) == parts.size - 1
        have = {int(parts[0])}
        for s, d in zip(*ev.pairs()):
            assert int(s) in have
            have.add(int(d))
        assert have == set(parts.tolist())

    @given(participant_lists)
    @settings(max_examples=60, deadline=None)
    def test_primitives_only_touch_participants(self, parts):
        allowed = set(parts.tolist())
        for prim in (broadcast, allreduce, allgather_ring, scan, alltoall):
            src, dst = prim(parts).pairs()
            assert set(src.tolist()) <= allowed
            assert set(dst.tolist()) <= allowed

    @given(participant_lists)
    @settings(max_examples=40, deadline=None)
    def test_no_self_messages(self, parts):
        for prim in (broadcast, allgather_ring, scan, alltoall):
            src, dst = prim(parts).pairs()
            assert np.all(src != dst)


class TestSimulatorProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 31)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_within_classical_bounds(self, pairs):
        ring = make_topology("ring", 32)
        ev = CommunicationEvents()
        arr = np.asarray(pairs)
        ev.add(arr[:, 0], arr[:, 1])
        result = simulate_exchange(ev, ring)
        if result.num_messages == 0:
            assert result.makespan == 0
            return
        lower = max(result.congestion, result.dilation)
        assert result.makespan >= lower
        # greedy FIFO store-and-forward never exceeds congestion * dilation
        assert result.makespan <= result.congestion * result.dilation
        assert result.max_latency == result.makespan
