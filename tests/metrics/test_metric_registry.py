"""Tests for the pluggable metric protocol and registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import UnknownNameError
from repro.fmm.events import CommunicationEvents
from repro.metrics.base import CommunicationMetric, MetricValue, PartitionMetric
from repro.metrics.data_volume import DataVolumeMetric
from repro.metrics.energy import EnergyMetric
from repro.metrics.registry import METRICS, get_metric, list_metrics, metric_names
from repro.topology import make_topology


def _histogram(pairs, p):
    ev = CommunicationEvents("test")
    for src, dst, w in pairs:
        ev.add(np.array([src]), np.array([dst]), np.array([w]))
    return ev.compact(p)


class TestMetricValue:
    def test_mean(self):
        assert MetricValue(10, 4).mean == 2.5
        assert MetricValue(0, 0).mean == 0.0

    def test_merged(self):
        assert MetricValue(3, 2).merged(MetricValue(5, 1)) == MetricValue(8, 3)

    def test_scaled(self):
        assert MetricValue(3, 2).scaled(4) == MetricValue(12, 8)


class TestRegistry:
    def test_names(self):
        assert list_metrics() == ("acd", "energy", "data_volume", "surface_to_volume")
        assert metric_names() == list_metrics()

    def test_aliases(self):
        assert METRICS.canonical("Average Communicated Distance") == "acd"
        assert METRICS.canonical("bytes") == "data_volume"
        assert METRICS.canonical("surface volume") == "surface_to_volume"

    def test_kinds(self):
        for name in ("acd", "energy", "data_volume"):
            assert isinstance(get_metric(name), CommunicationMetric)
        assert isinstance(get_metric("surface_to_volume"), PartitionMetric)

    def test_unknown_lists_sorted_names(self):
        with pytest.raises(UnknownNameError) as exc:
            get_metric("latency")
        msg = str(exc.value)
        assert "acd, data_volume, energy, surface_to_volume" in msg


class TestCommunicationMetrics:
    """Hand-computable evaluations on a 4-node ring (d(0,2) = 2)."""

    def setup_method(self):
        self.topo = make_topology("ring", 4)
        # 3 units rank-local, 2 units one hop, 1 unit two hops
        self.hist = _histogram([(1, 1, 3), (0, 1, 2), (0, 2, 1)], 4)

    def test_acd_through_protocol(self):
        value = get_metric("acd").evaluate(self.hist, self.topo)
        assert value == MetricValue(total=2 * 1 + 1 * 2, count=6)

    def test_energy(self):
        value = EnergyMetric(hop_cost=3, message_cost=5).evaluate(self.hist, self.topo)
        # hops: 3*4 = 12; messages: 5*6 = 30 (local pays overhead, no hops)
        assert value == MetricValue(total=42, count=6)

    def test_data_volume(self):
        value = DataVolumeMetric(bytes_per_unit=10).evaluate(self.hist, self.topo)
        # link crossings 4 + send/recv copies 2*3 + local copy 3 = 13 units
        assert value == MetricValue(total=130, count=6)

    def test_cost_parameters_validated(self):
        with pytest.raises(ValueError):
            EnergyMetric(hop_cost=0)
        with pytest.raises(ValueError):
            DataVolumeMetric(bytes_per_unit=-1)

    def test_rankings_agree_with_acd_on_uniform_costs(self):
        """Energy is a positive affine map of (total, count), so
        fixing the event multiset preserves the ACD's topology ranking."""
        hist = _histogram([(0, 5, 4), (2, 9, 1), (3, 3, 7), (1, 14, 2)], 16)
        topologies = [make_topology(n, 16) for n in ("bus", "ring", "hypercube")]
        acd = [get_metric("acd").evaluate(hist, t).total for t in topologies]
        energy = [get_metric("energy").evaluate(hist, t).total for t in topologies]
        assert np.argsort(acd).tolist() == np.argsort(energy).tolist()
