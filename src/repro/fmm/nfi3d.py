"""Near-field interaction events in 3D (extension).

Identical to :mod:`repro.fmm.nfi`, with the half stencil gathered over
the dense 3D owner volume by the same
:func:`~repro.fmm.stencil.stencil_pairs` kernel.
"""

from __future__ import annotations

from repro.fmm.events import CommunicationEvents
from repro.fmm.stencil import half_stencil, stencil_pairs
from repro.octree.cells import neighbor_offsets3d
from repro.partition.assignment3d import Assignment3D

__all__ = ["nfi_events3d"]


def nfi_events3d(
    assignment: Assignment3D,
    radius: int = 1,
    metric: str = "chebyshev",
) -> CommunicationEvents:
    """All 3D near-field neighbour communications (one per unordered pair)."""
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    offsets = half_stencil(neighbor_offsets3d(radius, metric))
    events = CommunicationEvents(component="nfi3d")
    events.add(*stencil_pairs(assignment.owner_volume(), offsets, empty=-1))
    return events
