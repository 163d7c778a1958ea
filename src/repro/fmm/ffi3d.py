"""Far-field interaction events in 3D (extension).

The octree analogue of :mod:`repro.fmm.ffi`: interpolation and
anterpolation walk the representative pyramid, and every non-empty cell
exchanges with its (up to 189-member) 3D interaction list.  Both phases
run through the dimension-generic generators of :mod:`repro.fmm.ffi`.
"""

from __future__ import annotations

from repro._typing import IntArray
from repro.fmm.events import CommunicationEvents
from repro.fmm.ffi import FfiEvents, interaction_events, interpolation_events
from repro.octree.pyramid import representative_pyramid3d
from repro.partition.assignment3d import Assignment3D

__all__ = ["FfiEvents3D", "ffi_events3d", "interpolation_events3d", "interaction_events3d"]


class FfiEvents3D(FfiEvents):
    """The three far-field phases of the 3D model."""


def interpolation_events3d(pyramid: list[IntArray]) -> CommunicationEvents:
    """Child-representative → parent-representative transfers, all levels."""
    return interpolation_events(pyramid)


def interaction_events3d(pyramid: list[IntArray]) -> CommunicationEvents:
    """Interaction-list exchanges at every octree level (ordered pairs)."""
    return interaction_events(pyramid)


def ffi_events3d(assignment: Assignment3D) -> FfiEvents3D:
    """All 3D far-field communications for a partitioned input."""
    pyramid = representative_pyramid3d(assignment.owner_volume())
    interp = interpolation_events3d(pyramid)
    anterp = interp.reversed()
    anterp.component = "anterpolation"
    inter = interaction_events3d(pyramid)
    return FfiEvents3D(interpolation=interp, anterpolation=anterp, interaction=inter)
