"""Far-field interaction (FFI) communication events (§III, §IV).

The far field decomposes into three communication phases over the
spatial quadtree:

* **Interpolation** — upward accumulation: each non-empty cell's
  representative sends to its parent cell's representative.
* **Anterpolation** — downward accumulation: the same parent → child
  transfers in the opposite direction.
* **Interaction list** — at every level, each non-empty cell's
  representative exchanges with the representative of every non-empty
  cell in its interaction list (children of the parent's neighbours that
  are not adjacent; ≤ 27 peers in 2D).

Cell representatives are the lowest owning ranks
(:mod:`repro.quadtree.pyramid`).  Interaction-list pairs are counted
once per *ordered* pair — each cell walks its own list, exactly as §IV
step 9 describes — so every unordered pair appears twice, which leaves
the average unchanged.

Each phase adds one chunk per level.  An interaction list depends only
on the cell's parity class, so each level is one
:func:`~repro.fmm.stencil.stencil_pairs` gather with one offset table
per class; its events come out by class, then offset, then row-major
cell.  Both phases take pyramids of any dimension: the 3D far field
(:mod:`repro.fmm.ffi3d`) runs through the same two functions.

Granularity
-----------
The paper describes the far field twice: §III walks quadtree *cells*
(every non-empty cell communicates with its parent and its interaction
list), while §IV steps 8–9 phrase the same traffic per *processor*
("construct the interaction list for each processor at each level").
``granularity="cell"`` (default) counts one event per cell pair;
``granularity="processor"`` deduplicates to one event per distinct
(source rank, destination rank) pair per level — the same messages, but
coarse levels carry relatively more weight.  The ablation study
(:mod:`repro.experiments.ablation`) quantifies the difference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro._typing import IntArray
from repro.fmm.events import CommunicationEvents
from repro.fmm.stencil import stencil_pairs
from repro.octree.interaction import interaction_offsets3d
from repro.partition.assignment import Assignment
from repro.quadtree.interaction import interaction_offsets
from repro.quadtree.pyramid import EMPTY, representative_pyramid

__all__ = ["FfiEvents", "ffi_events", "interpolation_events", "interaction_events"]


@dataclass(frozen=True)
class FfiEvents:
    """The three far-field phases, kept separate for per-phase analysis."""

    interpolation: CommunicationEvents
    anterpolation: CommunicationEvents
    interaction: CommunicationEvents

    def combined(self) -> CommunicationEvents:
        """All far-field events merged into one container."""
        out = CommunicationEvents(component="ffi")
        out.extend(self.interpolation)
        out.extend(self.anterpolation)
        out.extend(self.interaction)
        return out

    def as_mapping(self) -> dict[str, CommunicationEvents]:
        """Phase-name → events mapping (for breakdown reporting)."""
        return {
            "interpolation": self.interpolation,
            "anterpolation": self.anterpolation,
            "interaction": self.interaction,
        }


def _check_granularity(granularity: str) -> bool:
    if granularity not in ("cell", "processor"):
        raise ValueError(
            f"unknown granularity {granularity!r}; use 'cell' or 'processor'"
        )
    return granularity == "processor"


def _dedup(src: IntArray, dst: IntArray) -> tuple[IntArray, IntArray]:
    """Collapse to distinct (src, dst) pairs, in lexicographic order."""
    if src.size == 0:
        return src, dst
    base = int(max(src.max(), dst.max())) + 1
    keys = np.unique(src * base + dst)
    return keys // base, keys % base


@lru_cache(maxsize=2)
def interaction_table(ndim: int) -> IntArray:
    """Interaction-list offsets of every parity class, ``(2**ndim, m, ndim)``.

    Class ``k`` holds the offsets of cells whose coordinate parities,
    read as binary digits with axis 0 most significant, spell ``k`` —
    the layout :func:`~repro.fmm.stencil.stencil_pairs` expects.
    """
    offsets = {2: interaction_offsets, 3: interaction_offsets3d}[ndim]
    table = np.stack([offsets(*parity) for parity in itertools.product((0, 1), repeat=ndim)])
    table.setflags(write=False)  # cached and shared — keep immutable
    return table


def interpolation_events(
    pyramid: list[IntArray], granularity: str = "cell"
) -> CommunicationEvents:
    """Child-representative → parent-representative transfers, all levels."""
    per_processor = _check_granularity(granularity)
    events = CommunicationEvents(component="interpolation")
    for level in range(len(pyramid) - 1, 0, -1):
        child, parent = pyramid[level], pyramid[level - 1]
        cells = np.nonzero(child != EMPTY)
        src, dst = child[cells], parent[tuple(c >> 1 for c in cells)]
        if per_processor:
            src, dst = _dedup(src, dst)
        events.add(src, dst)
    return events


def interaction_events(
    pyramid: list[IntArray], granularity: str = "cell"
) -> CommunicationEvents:
    """Interaction-list exchanges at every level (ordered pairs).

    Levels 0 and 1 contribute nothing: the root has no parent and the
    level-1 cells' parent (the root) has no neighbours.
    """
    per_processor = _check_granularity(granularity)
    events = CommunicationEvents(component="interaction")
    for grid in pyramid[2:]:
        src, dst = stencil_pairs(grid, interaction_table(grid.ndim), EMPTY)
        if per_processor:
            src, dst = _dedup(src, dst)
        events.add(src, dst)
    return events


def ffi_events(assignment: Assignment, granularity: str = "cell") -> FfiEvents:
    """All far-field communications for a partitioned input (§IV steps 5–10)."""
    pyramid = representative_pyramid(assignment.owner_grid())
    interp = interpolation_events(pyramid, granularity)
    anterp = interp.reversed()
    anterp.component = "anterpolation"
    inter = interaction_events(pyramid, granularity)
    return FfiEvents(interpolation=interp, anterpolation=anterp, interaction=inter)
