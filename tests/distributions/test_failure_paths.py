"""Failure-injection tests for the sampling machinery."""

from __future__ import annotations

import pytest

from repro.distributions import NormalDistribution
from repro.distributions.three_d import Normal3D
from repro.errors import SamplingError


class TestRejectionExhaustion:
    def test_degenerate_normal_cannot_fill_request(self):
        """A near-zero sigma collapses every draw onto a handful of
        cells; the resampler must give up with a clear error instead of
        spinning forever."""
        dist = NormalDistribution(sigma_fraction=1e-9)
        with pytest.raises(SamplingError, match="distinct cells"):
            dist.sample(1000, 8, rng=0, max_batches=4)

    def test_degenerate_normal3d(self):
        dist = Normal3D(sigma_fraction=1e-9)
        with pytest.raises(SamplingError, match="distinct cells"):
            dist.sample(1000, 5, rng=0, max_batches=4)

    def test_small_request_still_succeeds(self):
        """The same degenerate law can still serve a tiny request."""
        dist = NormalDistribution(sigma_fraction=1e-9)
        particles = dist.sample(1, 8, rng=0)
        assert len(particles) == 1

    def test_error_message_reports_progress(self):
        dist = NormalDistribution(sigma_fraction=1e-9)
        with pytest.raises(SamplingError) as exc:
            dist.sample(1000, 8, rng=0, max_batches=3)
        message = str(exc.value)
        assert "3 batches" in message and "1000" in message


class TestRunnerValidation:
    def test_invalid_parts_rejected(self):
        from repro.experiments import FmmCase, run_campaign

        case = FmmCase(100, 5, 16, "torus", "hilbert", "hilbert", "uniform")
        with pytest.raises(ValueError, match="parts"):
            run_campaign([case], trials=1, parts=("nfi", "magic"))
        with pytest.raises(ValueError, match="parts"):
            run_campaign([case], trials=1, parts=())

    def test_case_with_impossible_density_fails_loudly(self):
        from repro.experiments import ExecutionPolicy, FmmCase, UnitFailedError, run_campaign

        case = FmmCase(100, 3, 16, "torus", "hilbert", "hilbert", "uniform")
        with pytest.raises(UnitFailedError) as failed:
            # 100 particles on an 8x8 lattice
            run_campaign([case], trials=1, jobs=1, policy=ExecutionPolicy(max_retries=0))
        assert isinstance(failed.value.__cause__, SamplingError)


class TestEventValidation:
    def test_weighted_chunks_roundtrip(self):
        from repro.fmm import CommunicationEvents

        ev = CommunicationEvents()
        ev.add([0, 1], [2, 3], weights=[4, 5])
        ev.add([6], [7])
        chunks = list(ev.iter_weighted_chunks())
        assert chunks[0][2].tolist() == [4, 5]
        assert chunks[1][2] is None

    def test_negative_ranks_rejected_by_acd(self):
        from repro.fmm import CommunicationEvents
        from repro.metrics import compute_acd
        from repro.topology import make_topology

        ev = CommunicationEvents()
        ev.add([-1], [0])
        with pytest.raises(ValueError):
            compute_acd(ev, make_topology("bus", 4))
