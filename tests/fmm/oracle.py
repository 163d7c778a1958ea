"""Reference FMM event generators that walk one stencil offset at a time.

The near field aligns the grid with a shifted copy of itself per
offset; the far field walks one parity class and one interaction offset
at a time.  Every offset's pairs are added as their own chunk.  They are
slow but plainly correct, and they fix the event order the stencil
kernel must reproduce: offset by offset (class by class for interaction
lists), each offset's events in row-major order of the source cell.
"""

from __future__ import annotations

import numpy as np

from repro.fmm.events import CommunicationEvents
from repro.octree.cells import neighbor_offsets3d
from repro.octree.interaction import interaction_offsets3d
from repro.quadtree.cells import neighbor_offsets
from repro.quadtree.interaction import interaction_offsets
from repro.quadtree.pyramid import EMPTY


def shifted_occupied_pairs(grid, offset):
    """Owner pairs ``(grid[c], grid[c + offset])`` over occupied cells, any dimension."""
    side = grid.shape[0]
    if max(abs(int(o)) for o in offset) >= side:
        empty = np.empty(0, dtype=grid.dtype)
        return empty, empty.copy()
    lo = [max(0, -int(o)) for o in offset]
    hi = [side - max(0, int(o)) for o in offset]
    a = grid[tuple(slice(start, stop) for start, stop in zip(lo, hi))]
    b = grid[tuple(slice(start + o, stop + o) for start, stop, o in zip(lo, hi, map(int, offset)))]
    both = (a >= 0) & (b >= 0)
    return a[both], b[both]


def _first_positive(offset) -> bool:
    for o in offset:
        if o:
            return o > 0
    return False


def nfi_events(owner_grid, radius=1, metric="chebyshev", component="nfi"):
    """Near-field events over a 2D owner grid or 3D owner volume (``-1`` = empty)."""
    stencil = neighbor_offsets if owner_grid.ndim == 2 else neighbor_offsets3d
    events = CommunicationEvents(component=component)
    for offset in stencil(radius, metric):
        if not _first_positive(offset):
            continue  # count each unordered pair once
        events.add(*shifted_occupied_pairs(owner_grid, offset))
    return events


def interaction_events(pyramid, granularity="cell", volumes=None):
    """Interaction-list events of a 2D or 3D representative pyramid.

    ``volumes`` (cell granularity only) is a pyramid of per-cell volumes,
    e.g. :func:`repro.quadtree.pyramid.occupancy_pyramid`; each event
    then weighs the volume of its source cell.
    """
    per_processor = granularity == "processor"
    events = CommunicationEvents(component="interaction")
    for level in range(2, len(pyramid)):
        grid = pyramid[level]
        side, ndim = grid.shape[0], grid.ndim
        occ = np.nonzero(grid != EMPTY)
        if occ[0].size == 0:
            continue
        src_all = grid[occ]
        vol_all = None if volumes is None else volumes[level][occ]
        level_chunks = []
        for parity in np.ndindex(*(2,) * ndim):
            sel = np.logical_and.reduce([(c & 1) == p for c, p in zip(occ, parity)])
            if not np.any(sel):
                continue
            cells, srcs = [c[sel] for c in occ], src_all[sel]
            vols = None if vol_all is None else vol_all[sel]
            table = interaction_offsets(*parity) if ndim == 2 else interaction_offsets3d(*parity)
            for offset in table:
                target = [c + o for c, o in zip(cells, offset)]
                inb = np.logical_and.reduce([(t >= 0) & (t < side) for t in target])
                if not np.any(inb):
                    continue
                dsts = grid[tuple(t[inb] for t in target)]
                occupied = dsts != EMPTY
                src, dst = srcs[inb][occupied], dsts[occupied]
                if per_processor:
                    level_chunks.append(np.stack([src, dst], axis=1))
                else:
                    events.add(src, dst, None if vols is None else vols[inb][occupied])
        if per_processor and level_chunks:
            pairs = np.unique(np.concatenate(level_chunks), axis=0)
            events.add(pairs[:, 0], pairs[:, 1])
    return events
