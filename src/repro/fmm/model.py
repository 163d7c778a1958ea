"""High-level FMM communication model: particles in, ACD report out.

This orchestrates the full §IV pipeline:

1. order the particles with the particle-order SFC,
2. chunk them onto ``p`` processors,
3. (the topology already encodes the processor-order SFC),
4. generate near-field and far-field communication events,
5. evaluate the ACD of each phase on the network.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributions.base import Particles
from repro.fmm.events import CommunicationEvents
from repro.fmm.ffi import FfiEvents, ffi_events
from repro.fmm.nfi import nfi_events
from repro.metrics.acd import acd_breakdown, compute_acd
from repro.metrics.base import MetricValue
from repro.partition.assignment import Assignment, partition_particles
from repro.topology.base import Topology

__all__ = ["FmmReport", "FmmCommunicationModel"]


@dataclass(frozen=True)
class FmmReport:
    """ACD evaluation of one FMM problem instance.

    Attributes
    ----------
    nfi:
        Near-field result (one event per neighbouring particle pair).
    ffi:
        Per-phase far-field results with keys ``"interpolation"``,
        ``"anterpolation"``, ``"interaction"`` and ``"combined"``.
    """

    nfi: MetricValue
    ffi: dict[str, MetricValue]

    @property
    def nfi_acd(self) -> float:
        """Near-field Average Communicated Distance."""
        return self.nfi.mean

    @property
    def ffi_acd(self) -> float:
        """Far-field ACD pooled over all three phases (§IV step 10)."""
        return self.ffi["combined"].mean


class FmmCommunicationModel:
    """The paper's FMM communication abstraction on a fixed network.

    Parameters
    ----------
    topology:
        The processor network (its layout already realises the
        processor-order SFC for grid networks).
    particle_curve:
        Name of the particle-order SFC.
    radius:
        Near-field neighbourhood radius ``r``.
    nfi_metric:
        Neighbourhood shape for the near field (``"chebyshev"`` default).
    ffi_granularity:
        ``"cell"`` (§III reading, default) or ``"processor"`` (§IV
        reading, deduplicated per level); see :mod:`repro.fmm.ffi`.
    """

    def __init__(
        self,
        topology: Topology,
        particle_curve: str = "hilbert",
        radius: int = 1,
        nfi_metric: str = "chebyshev",
        ffi_granularity: str = "cell",
    ):
        self.topology = topology
        self.particle_curve = particle_curve
        self.radius = int(radius)
        self.nfi_metric = nfi_metric
        self.ffi_granularity = ffi_granularity

    def assign(self, particles: Particles) -> Assignment:
        """Steps 1–4: order and chunk the particles onto the network."""
        return partition_particles(
            particles, self.particle_curve, self.topology.num_processors
        )

    def near_field_events(self, assignment: Assignment) -> CommunicationEvents:
        """Step 5–7 (near field): neighbour-pair communications."""
        return nfi_events(assignment, radius=self.radius, metric=self.nfi_metric)

    def far_field_events(self, assignment: Assignment) -> FfiEvents:
        """Step 5–10 (far field): tree accumulations + interaction lists."""
        return ffi_events(assignment, granularity=self.ffi_granularity)

    def evaluate(self, particles: Particles) -> FmmReport:
        """Run the full pipeline and report per-phase ACD values."""
        assignment = self.assign(particles)
        nfi = compute_acd(self.near_field_events(assignment), self.topology)
        ffi = acd_breakdown(self.far_field_events(assignment).as_mapping(), self.topology)
        return FmmReport(nfi=nfi, ffi=ffi)
