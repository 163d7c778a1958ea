"""Tests for weighted events and the data-volume FFI model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import get_distribution
from repro.fmm import CommunicationEvents, ffi_events
from repro.fmm.volume import weighted_ffi_events
from repro.metrics import acd_breakdown, compute_acd
from repro.partition import partition_particles
from repro.quadtree.pyramid import occupancy_pyramid, representative_pyramid
from repro.topology import make_topology
from tests.fmm import oracle


class TestWeightedEvents:
    def test_weight_accounting(self):
        ev = CommunicationEvents()
        ev.add([0, 1], [2, 3], weights=[5, 2])
        ev.add([4], [5])  # implicit weight 1
        assert len(ev) == 3
        assert ev.total_weight == 8

    def test_weighted_acd(self):
        bus = make_topology("bus", 8)
        ev = CommunicationEvents()
        ev.add([0, 0], [4, 1], weights=[2, 6])  # 2*4 + 6*1 = 14 over weight 8
        result = compute_acd(ev, bus)
        assert result.total == 14
        assert result.count == 8
        assert result.mean == pytest.approx(14 / 8)

    def test_zero_weight_events_ignored_in_mean(self):
        bus = make_topology("bus", 8)
        ev = CommunicationEvents()
        ev.add([0], [7], weights=[0])
        assert compute_acd(ev, bus).mean == 0.0

    def test_negative_weight_rejected(self):
        ev = CommunicationEvents()
        with pytest.raises(ValueError):
            ev.add([0], [1], weights=[-1])

    def test_length_mismatch_rejected(self):
        ev = CommunicationEvents()
        with pytest.raises(ValueError):
            ev.add([0, 1], [2, 3], weights=[1])

    def test_reversed_preserves_weights(self):
        ev = CommunicationEvents()
        ev.add([0], [1], weights=[7])
        rev = ev.reversed()
        assert rev.total_weight == 7

    def test_extend_preserves_weights(self):
        a = CommunicationEvents()
        a.add([0], [1], weights=[3])
        b = CommunicationEvents()
        b.extend(a)
        assert b.total_weight == 3


def weighted_arrays(events):
    """``(src, dst, weights)`` of every event, in order (all chunks weighted)."""
    src, dst = events.pairs()
    return src, dst, np.concatenate([w for _, _, w in events.iter_weighted_chunks()])


@pytest.fixture(scope="module")
def assignment():
    particles = get_distribution("uniform").sample(500, 5, rng=8)
    return partition_particles(particles, "hilbert", 16)


class TestWeightedFfi:
    def test_multipole_model_matches_unweighted(self, assignment):
        net = make_topology("torus", 16, processor_curve="hilbert")
        plain = acd_breakdown(ffi_events(assignment).as_mapping(), net)
        weighted = acd_breakdown(
            weighted_ffi_events(assignment, "multipole").as_mapping(), net
        )
        assert weighted["combined"].mean == pytest.approx(plain["combined"].mean)

    def test_multipole_expansion_size_scales_totals(self, assignment):
        net = make_topology("torus", 16, processor_curve="hilbert")
        one = acd_breakdown(
            weighted_ffi_events(assignment, "multipole", expansion_size=1).as_mapping(), net
        )
        ten = acd_breakdown(
            weighted_ffi_events(assignment, "multipole", expansion_size=10).as_mapping(), net
        )
        assert ten["combined"].total == 10 * one["combined"].total
        assert ten["combined"].mean == pytest.approx(one["combined"].mean)

    def test_aggregate_weights_equal_cell_occupancy(self, assignment):
        ffi = weighted_ffi_events(assignment, "aggregate")
        # the root-level transfer(s) carry every particle
        total_interp_weight = ffi.interpolation.total_weight
        # one transfer per non-empty cell per level, weighted by its count:
        # summing over all levels the weights telescope to levels * n
        from repro.quadtree import occupancy_pyramid

        occ = occupancy_pyramid(assignment.owner_grid())
        expected = sum(int(g.sum()) for g in occ[1:])
        assert total_interp_weight == expected

    def test_aggregate_raises_acd_on_torus(self, assignment):
        """Shifting weight to coarse (long-haul) transfers raises the
        volume-weighted ACD above the per-message ACD."""
        net = make_topology("torus", 16, processor_curve="hilbert")
        plain = acd_breakdown(ffi_events(assignment).as_mapping(), net)
        agg = acd_breakdown(
            weighted_ffi_events(assignment, "aggregate").as_mapping(), net
        )
        assert agg["interpolation"].mean > plain["interpolation"].mean

    @pytest.mark.parametrize(
        "distribution, processors", [("uniform", 16), ("plummer", 7), ("normal", 64)]
    )
    def test_aggregate_interaction_matches_per_offset_oracle(self, distribution, processors):
        """Pairs, weights and order equal the per-offset loop's, element for
        element; each transfer weighs its *source* cell's particle count."""
        particles = get_distribution(distribution).sample(400, 5, rng=3)
        asg = partition_particles(particles, "hilbert", processors)
        owner = asg.owner_grid()
        want = oracle.interaction_events(
            representative_pyramid(owner), volumes=occupancy_pyramid(owner)
        )
        got = weighted_ffi_events(asg, "aggregate").interaction
        assert len(got) > 0
        for g, w in zip(weighted_arrays(got), weighted_arrays(want), strict=True):
            np.testing.assert_array_equal(g, w)

    def test_unknown_model_rejected(self, assignment):
        with pytest.raises(ValueError, match="volume_model"):
            weighted_ffi_events(assignment, "bytes")
