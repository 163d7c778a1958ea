"""Energy cost model (after Reissmann & Fernau's locality/energy study).

Reissmann et al. ("A Study of Energy and Locality Effects using
Space-filling Curves") model the energy of a communication pattern as a
per-hop term — every link and router a flit traverses burns a fixed
amount — plus a per-message term for injection/ejection overhead at the
endpoints.  Both inputs are already on hand: the pair histogram gives
the message multiset and the topology's hop metric prices each pair, so

    E = hop_cost * sum(w * d)  +  message_cost * sum(w)

in integer energy units.  The constants are unit-normalised defaults
(a hop is link + router traversal, a message is NIC overhead); only
their *ratio* affects rankings, and both are constructor-overridable.
Rank-local messages (``d = 0``) pay the per-message overhead but no hop
energy, exactly as in the source model.
"""

from __future__ import annotations

from repro.fmm.events import PairHistogram
from repro.metrics.acd import compute_acd
from repro.metrics.base import CommunicationMetric, MetricValue
from repro.topology.base import Topology
from repro.util.validation import check_positive

__all__ = ["EnergyMetric", "DEFAULT_HOP_COST", "DEFAULT_MESSAGE_COST"]

#: Energy units burned per link/router traversal of one unit of weight.
DEFAULT_HOP_COST = 3
#: Energy units of fixed endpoint overhead per unit of message weight.
DEFAULT_MESSAGE_COST = 5


class EnergyMetric(CommunicationMetric):
    """Per-hop plus per-message energy of a communication pattern."""

    name = "energy"

    def __init__(
        self,
        hop_cost: int = DEFAULT_HOP_COST,
        message_cost: int = DEFAULT_MESSAGE_COST,
    ):
        self.hop_cost = check_positive(hop_cost, "hop_cost")
        self.message_cost = check_positive(message_cost, "message_cost")

    def evaluate(self, histogram: PairHistogram, topology: Topology) -> MetricValue:
        # compute_acd supplies the exact integer sums (matrix-free chunks
        # past a memory budget, cached distances within it); energy is a
        # linear form.
        acd = compute_acd(histogram, topology)
        return MetricValue(
            total=self.hop_cost * acd.total + self.message_cost * acd.count,
            count=acd.count,
        )
