"""Metric protocol: pluggable objectives over the shared substrates.

The paper scores every curve/topology pairing through one objective —
the ACD.  Related work derives a family of sibling cost models from the
very same inputs: Reissmann et al. attach per-hop and per-message
*energy* terms to the communication pattern, Walker & Skjellum count
*bytes moved*, and Gadouleau & Weinzierl score the *partition quality*
of SFC chunkings.  This module defines the small protocol that lets all
of them plug into the experiment harness (studies, store, ``/recommend``
objectives) uniformly:

* :class:`MetricValue` — the ``(total, count)`` integer aggregate every
  evaluation produces.  Totals are exact integers so pooling across
  trials, processes and store round trips is bit-identical.
* :class:`CommunicationMetric` — evaluates a
  :class:`~repro.fmm.events.PairHistogram` against a topology (the ACD
  substrate: one gather over the distinct rank pairs).
* :class:`PartitionMetric` — evaluates a contiguous SFC chunking of the
  full curve lattice, with no topology involved.

Concrete metrics register in :mod:`repro.metrics.registry`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.fmm.events import PairHistogram
from repro.topology.base import Topology

__all__ = ["MetricValue", "Metric", "CommunicationMetric", "PartitionMetric"]


@dataclass(frozen=True)
class MetricValue:
    """Integer aggregate of one metric evaluation.

    ``total`` is the metric's summed cost (hop-weighted distance, energy
    units, bytes, ...) and ``count`` the event weight it covers; the
    ``mean`` is cost per unit of communication — for the ACD
    (:func:`~repro.metrics.acd.compute_acd`), the Average Communicated
    Distance itself.
    """

    total: int
    count: int

    @property
    def mean(self) -> float:
        """Cost per unit of event weight (0.0 for an empty evaluation)."""
        return self.total / self.count if self.count else 0.0

    def merged(self, other: "MetricValue") -> "MetricValue":
        """Pool two evaluations of the same metric into one aggregate."""
        return MetricValue(self.total + other.total, self.count + other.count)

    def scaled(self, repetitions: int) -> "MetricValue":
        """The aggregate of ``repetitions`` identical evaluations."""
        return MetricValue(self.total * repetitions, self.count * repetitions)


class Metric(abc.ABC):
    """A registered objective; concrete kinds define the evaluate shape."""

    #: Registry name of the metric (e.g. ``"energy"``); set by subclasses.
    name: str = ""
    #: ``"communication"`` (histogram x topology) or ``"partition"``
    #: (SFC chunking quality); selects which study/service inputs apply.
    kind: str = ""


class CommunicationMetric(Metric):
    """A metric of a communication pattern evaluated on a network."""

    kind = "communication"

    @abc.abstractmethod
    def evaluate(self, histogram: PairHistogram, topology: Topology) -> MetricValue:
        """Score one compacted event histogram on one concrete network.

        Implementations must stay in integer arithmetic (bit-identical
        across chunkings, tilings and store round trips) and must not
        depend on any state outside ``(histogram, topology)``.
        """


class PartitionMetric(Metric):
    """A metric of the contiguous chunking an SFC induces on its lattice."""

    kind = "partition"

    @abc.abstractmethod
    def evaluate(self, curve: str, order: int, num_processors: int) -> dict:
        """Score the ``p``-way contiguous chunking of the full curve.

        Returns a JSON-native mapping (ints and floats only) so results
        persist through the store unchanged.
        """
