"""Data-volume-weighted FMM communication (future-work item i).

§VIII of the paper lists "the impact of data volume ... on communication
efficiency, and ... the modeling of the ACD metric" as future work.  The
plain ACD counts every message equally; this module attaches volumes so
the metric becomes *average distance per unit of data moved*.

Two far-field volume models are provided:

* ``"multipole"`` — every far-field transfer carries a fixed-size
  multipole expansion (``expansion_size`` units).  This is how a real
  FMM behaves: the expansion order, not the particle count, fixes the
  message size, so the weighted ACD equals the unweighted one.
* ``"aggregate"`` — a transfer out of a cell carries one unit per
  particle the cell contains (a tree-code-like upper bound where source
  data is shipped verbatim).  Coarse-level messages become heavy, which
  shifts weight onto exactly the long-distance transfers and stresses
  the topology far more than the unweighted metric.

Near-field messages always weigh 1 per particle pair (each pair
exchanges one particle record), matching the unweighted NFI.
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray
from repro.fmm.events import CommunicationEvents
from repro.fmm.ffi import FfiEvents, interaction_table
from repro.fmm.stencil import stencil_pairs
from repro.partition.assignment import Assignment
from repro.quadtree.pyramid import EMPTY, occupancy_pyramid, representative_pyramid

__all__ = ["weighted_ffi_events"]


def weighted_ffi_events(
    assignment: Assignment,
    volume_model: str = "aggregate",
    expansion_size: int = 1,
) -> FfiEvents:
    """Far-field events with per-message data volumes attached.

    Parameters
    ----------
    volume_model:
        ``"multipole"`` (fixed ``expansion_size`` per transfer) or
        ``"aggregate"`` (volume = particle count of the sending cell).
    expansion_size:
        Units carried by one multipole transfer (``"multipole"`` only).
    """
    if volume_model not in ("multipole", "aggregate"):
        raise ValueError(
            f"unknown volume_model {volume_model!r}; use 'multipole' or 'aggregate'"
        )
    owner = assignment.owner_grid()
    pyramid = representative_pyramid(owner)
    occupancy = occupancy_pyramid(owner)

    def cell_volume(level: int) -> IntArray:
        """What a transfer out of each cell of ``level`` carries."""
        if volume_model == "multipole":
            return np.broadcast_to(np.int64(expansion_size), occupancy[level].shape)
        return occupancy[level]

    interp = CommunicationEvents(component="interpolation")
    for level in range(len(pyramid) - 1, 0, -1):
        child, parent = pyramid[level], pyramid[level - 1]
        cx, cy = np.nonzero(child != EMPTY)
        interp.add(child[cx, cy], parent[cx >> 1, cy >> 1], cell_volume(level)[cx, cy])

    anterp = interp.reversed()
    anterp.component = "anterpolation"

    inter = CommunicationEvents(component="interaction")
    for level in range(2, len(pyramid)):
        grid = pyramid[level]
        # gather cell indices, so every pair names the cell whose volume it carries
        cells = np.where(grid != EMPTY, np.arange(grid.size).reshape(grid.shape), EMPTY)
        src, dst = stencil_pairs(cells, interaction_table(2), EMPTY)
        ranks = grid.ravel()
        inter.add(ranks[src], ranks[dst], cell_volume(level)[np.unravel_index(src, grid.shape)])
    return FfiEvents(interpolation=interp, anterpolation=anterp, interaction=inter)
