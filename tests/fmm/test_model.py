"""Tests for the end-to-end FMM communication model."""

from __future__ import annotations

import pytest

from repro.distributions import get_distribution
from repro.fmm import FmmCommunicationModel
from repro.topology import make_topology


@pytest.fixture
def particles():
    return get_distribution("uniform").sample(400, 5, rng=13)


@pytest.fixture
def model():
    net = make_topology("torus", 16, processor_curve="hilbert")
    return FmmCommunicationModel(net, particle_curve="hilbert", radius=1)


class TestFmmModel:
    def test_report_structure(self, model, particles):
        report = model.evaluate(particles)
        assert report.nfi.count > 0
        assert set(report.ffi) == {
            "interpolation",
            "anterpolation",
            "interaction",
            "combined",
        }
        assert report.nfi_acd >= 0
        assert report.ffi_acd >= 0

    def test_combined_pools_phases(self, model, particles):
        report = model.evaluate(particles)
        combined = report.ffi["combined"]
        assert combined.count == sum(
            report.ffi[k].count for k in ("interpolation", "anterpolation", "interaction")
        )
        assert combined.total == sum(
            report.ffi[k].total
            for k in ("interpolation", "anterpolation", "interaction")
        )

    def test_interp_anterp_have_equal_acd(self, model, particles):
        report = model.evaluate(particles)
        assert report.ffi["interpolation"].mean == report.ffi["anterpolation"].mean

    def test_deterministic(self, model, particles):
        a = model.evaluate(particles)
        b = model.evaluate(particles)
        assert a.nfi_acd == b.nfi_acd and a.ffi_acd == b.ffi_acd

    def test_acd_bounded_by_diameter(self, model, particles):
        report = model.evaluate(particles)
        assert report.nfi_acd <= model.topology.diameter
        assert report.ffi_acd <= model.topology.diameter

    def test_assignment_uses_topology_size(self, model, particles):
        asg = model.assign(particles)
        assert asg.num_processors == 16

    def test_radius_respected(self, particles):
        net = make_topology("torus", 16, processor_curve="hilbert")
        small = FmmCommunicationModel(net, "hilbert", radius=1).evaluate(particles)
        big = FmmCommunicationModel(net, "hilbert", radius=3).evaluate(particles)
        assert big.nfi.count > small.nfi.count

    def test_better_curve_beats_rowmajor(self, particles):
        """The paper's core claim at miniature scale."""
        hil_net = make_topology("torus", 64, processor_curve="hilbert")
        rm_net = make_topology("torus", 64, processor_curve="rowmajor")
        hil = FmmCommunicationModel(hil_net, "hilbert").evaluate(particles)
        rm = FmmCommunicationModel(rm_net, "rowmajor").evaluate(particles)
        assert hil.nfi_acd < rm.nfi_acd
        assert hil.ffi_acd < rm.ffi_acd
