"""Near-field interaction (NFI) communication events (§III, §IV).

Every particle must read all particles within radius ``r`` of its cell;
each such pair induces one communication between the owning processors
(distance possibly zero when both particles share a processor).  §III
uses the edge/corner (Chebyshev) neighbourhood — "the number of nearest
neighbors which share an edge/corner with a cell is bounded by 8
(corresponding to r = 1)".

The neighbourhood is a fixed stencil on the owner grid, so the events
come from one :func:`~repro.fmm.stencil.stencil_pairs` gather over the
occupied cells, with no Python-level per-particle or per-offset loop.
Each unordered neighbour pair is counted exactly once (the stencil is
cut to a half-space by :func:`~repro.fmm.stencil.half_stencil`); the
ACD is invariant to this choice and the companion ordered-pair count is
simply twice ours.  Events come out offset by offset, each offset's in
row-major order of the source cell.
"""

from __future__ import annotations

from repro.fmm.events import CommunicationEvents
from repro.fmm.stencil import half_stencil, stencil_pairs
from repro.partition.assignment import Assignment
from repro.quadtree.cells import neighbor_offsets

__all__ = ["nfi_events"]


def nfi_events(
    assignment: Assignment,
    radius: int = 1,
    metric: str = "chebyshev",
) -> CommunicationEvents:
    """All near-field neighbour communications for a partitioned input.

    Parameters
    ----------
    assignment:
        The SFC-ordered, chunked particle set
        (:func:`repro.partition.partition_particles`).
    radius:
        Neighbourhood radius ``r`` (default 1, the paper's standard).
    metric:
        ``"chebyshev"`` (paper's NFI neighbourhood) or ``"manhattan"``.

    Returns
    -------
    :class:`~repro.fmm.events.CommunicationEvents` with one event per
    unordered pair of neighbouring particles.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    offsets = half_stencil(neighbor_offsets(radius, metric))
    events = CommunicationEvents(component="nfi")
    events.add(*stencil_pairs(assignment.owner_grid(), offsets, empty=-1))
    return events
