"""Tests for the collective communication primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import compute_acd
from repro.primitives import (
    allgather_ring,
    allreduce,
    alltoall,
    gather_linear,
    point_to_point,
    scan,
    scatter_linear,
)
from repro.topology import make_topology


class TestAlltoall:
    def test_counts(self):
        assert len(alltoall(np.arange(7))) == 42

    def test_every_ordered_pair_once(self):
        src, dst = alltoall(np.arange(4)).pairs()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert pairs == {(a, b) for a in range(4) for b in range(4) if a != b}

    def test_trivial_sizes(self):
        assert len(alltoall([5])) == 0
        assert len(alltoall([])) == 0


class TestAllreduce:
    @pytest.mark.parametrize("m", [2, 4, 8, 32])
    def test_power_of_two_counts(self, m):
        # log2(m) rounds of pairwise exchange = m * log2(m) messages
        assert len(allreduce(np.arange(m))) == m * int(np.log2(m))

    @pytest.mark.parametrize("m", [3, 5, 6, 12])
    def test_non_power_of_two_fold_unfold(self, m):
        pow2 = 1 << ((m - 1).bit_length() - 1)
        excess = m - pow2
        expected = pow2 * int(np.log2(pow2)) + 2 * excess
        assert len(allreduce(np.arange(m))) == expected

    def test_rounds_pair_symmetric(self):
        src, dst = allreduce(np.arange(8)).pairs()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert all((b, a) in pairs for a, b in pairs)


class TestAllgatherRing:
    def test_counts(self):
        assert len(allgather_ring(np.arange(6))) == 30

    def test_only_neighbour_messages(self):
        parts = np.array([3, 1, 4, 1 + 4, 9])
        src, dst = allgather_ring(parts).pairs()
        position = {int(r): i for i, r in enumerate(parts)}
        for s, d in zip(src.tolist(), dst.tolist()):
            assert (position[s] + 1) % 5 == position[d]


class TestScan:
    def test_counts(self):
        # Hillis-Steele: sum over rounds of (m - 2**i)
        m = 16
        expected = sum(m - (1 << i) for i in range(4))
        assert len(scan(np.arange(m))) == expected

    def test_messages_go_forward(self):
        parts = np.arange(10, 20)
        src, dst = scan(parts).pairs()
        assert np.all(dst > src)


class TestGatherScatter:
    def test_gather_counts_and_target(self):
        ev = gather_linear(np.arange(8), root_position=3)
        src, dst = ev.pairs()
        assert len(ev) == 7
        assert np.all(dst == 3)
        assert 3 not in src.tolist()

    def test_scatter_mirrors_gather(self):
        g_src, g_dst = gather_linear(np.arange(5)).pairs()
        s_src, s_dst = scatter_linear(np.arange(5)).pairs()
        assert np.array_equal(g_src, s_dst)
        assert np.array_equal(g_dst, s_src)


class TestPointToPoint:
    def test_explicit_pairs(self):
        ev = point_to_point([0, 1], [2, 3])
        assert len(ev) == 2


class TestAcdIntegration:
    def test_gray_hypercube_allgather_is_unit_acd(self):
        """Gray-coded hypercube: ring neighbours are physical neighbours."""
        cube = make_topology("hypercube", 32)
        from repro.topology import HypercubeTopology

        gray_cube = HypercubeTopology(32, layout="gray")
        ev = allgather_ring(np.arange(32))
        identity_acd = compute_acd(ev, cube).mean
        gray_acd = compute_acd(ev, gray_cube).mean
        assert gray_acd < identity_acd
        # all but the closing wrap edge are unit hops: ACD slightly above 1
        assert gray_acd == pytest.approx((31 * 1 + 1) / 32)

    def test_layout_choice_depends_on_stride_pattern(self):
        """§VII's point in miniature: the best processor-order SFC depends
        on the application's communication pattern.  Unit-stride traffic
        (ring allgather) favours the Hilbert layout, while power-of-two
        strides (Hillis-Steele scan) align with row-major rows/columns."""
        hil = make_topology("torus", 64, processor_curve="hilbert")
        rm = make_topology("torus", 64, processor_curve="rowmajor")
        ring_ev = allgather_ring(np.arange(64))
        assert compute_acd(ring_ev, hil).mean < compute_acd(ring_ev, rm).mean
        scan_ev = scan(np.arange(64))
        assert compute_acd(scan_ev, rm).mean < compute_acd(scan_ev, hil).mean
