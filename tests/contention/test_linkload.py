"""Tests for the link-load contention extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contention import link_loads
from repro.fmm import CommunicationEvents
from repro.metrics import compute_acd
from repro.topology import MeshTopology, TorusTopology, make_topology


def events_of(pairs):
    ev = CommunicationEvents()
    arr = np.asarray(pairs).reshape(-1, 2)
    ev.add(arr[:, 0], arr[:, 1])
    return ev


class TestMeshRouting:
    def test_single_straight_message(self):
        mesh = MeshTopology(16, processor_curve="rowmajor")  # rank = 4x + y
        # (0,0) -> (3,0): crosses horizontal links at x = 0,1,2 in row 0
        res = link_loads(events_of([(0, 12)]), mesh)
        assert res.horizontal[:, 0].tolist() == [1, 1, 1]
        assert res.horizontal[:, 1:].sum() == 0
        assert res.vertical.sum() == 0

    def test_xy_turn(self):
        mesh = MeshTopology(16, processor_curve="rowmajor")
        # (0,0) -> (1,1): x leg at row 0, then y leg at column 1
        res = link_loads(events_of([(0, 5)]), mesh)
        assert res.horizontal[0, 0] == 1
        assert res.vertical[1, 0] == 1
        assert res.total_traffic == 2

    def test_total_equals_acd_total(self):
        mesh = MeshTopology(256, processor_curve="hilbert")
        rng = np.random.default_rng(0)
        ev = events_of(np.stack([rng.integers(0, 256, 3000), rng.integers(0, 256, 3000)], 1))
        res = link_loads(ev, mesh)
        assert res.total_traffic == compute_acd(ev, mesh).total

    def test_shapes(self):
        res = link_loads(events_of([(0, 1)]), MeshTopology(64))
        assert res.horizontal.shape == (7, 8)
        assert res.vertical.shape == (8, 7)


class TestTorusRouting:
    def test_wrap_link_used(self):
        torus = TorusTopology(16, processor_curve="rowmajor")
        # (0,0) -> (3,0) is one hop through the x wrap link at x = 3
        res = link_loads(events_of([(0, 12)]), torus)
        assert res.total_traffic == 1
        assert res.horizontal[3, 0] == 1

    def test_total_equals_acd_total(self):
        torus = TorusTopology(1024, processor_curve="zcurve")
        rng = np.random.default_rng(1)
        ev = events_of(np.stack([rng.integers(0, 1024, 5000), rng.integers(0, 1024, 5000)], 1))
        res = link_loads(ev, torus)
        assert res.total_traffic == compute_acd(ev, torus).total

    def test_shapes(self):
        res = link_loads(events_of([(0, 1)]), TorusTopology(64))
        assert res.horizontal.shape == (8, 8)
        assert res.vertical.shape == (8, 8)


class TestResultStats:
    def test_max_and_mean(self):
        mesh = MeshTopology(16, processor_curve="rowmajor")
        res = link_loads(events_of([(0, 12), (0, 12)]), mesh)
        assert res.max_load == 2
        assert res.mean_load == pytest.approx(6 / (12 + 12))

    def test_histogram(self):
        mesh = MeshTopology(64, processor_curve="hilbert")
        rng = np.random.default_rng(2)
        ev = events_of(np.stack([rng.integers(0, 64, 500), rng.integers(0, 64, 500)], 1))
        counts, edges = link_loads(ev, mesh).load_histogram(bins=10)
        assert counts.sum() == 7 * 8 + 8 * 7
        assert edges.size == 11

    def test_unsupported_topology_rejected(self):
        with pytest.raises(TypeError):
            link_loads(events_of([(0, 1)]), make_topology("hypercube", 16))


class TestContentionInsight:
    def test_hilbert_lowers_congestion_vs_rowmajor(self):
        """The extension's headline: better layouts also reduce max load."""
        from repro.distributions import get_distribution
        from repro.fmm import FmmCommunicationModel

        particles = get_distribution("uniform").sample(2000, 7, rng=4)
        hil_net = TorusTopology(256, processor_curve="hilbert")
        rm_net = TorusTopology(256, processor_curve="rowmajor")
        hil_ev = FmmCommunicationModel(hil_net, "hilbert").near_field_events(
            FmmCommunicationModel(hil_net, "hilbert").assign(particles)
        )
        rm_ev = FmmCommunicationModel(rm_net, "rowmajor").near_field_events(
            FmmCommunicationModel(rm_net, "rowmajor").assign(particles)
        )
        assert link_loads(hil_ev, hil_net).max_load <= link_loads(rm_ev, rm_net).max_load
