"""Occupied-cell pairs at fixed stencil offsets, in any dimension.

Both FMM communication models are fixed stencils on a grid of owning
ranks: the radius-``r`` near field (§III), and each quadtree cell's
interaction list (§III–IV, Fig. 4), whose offsets depend only on the
cell's parity class — its child slot within the parent.  As in
Holzmüller's neighbour finding on space-filling curves, each cell class
reads its neighbours through one fixed offset table.

:func:`stencil_pairs` pads the grid by the largest offset, turns the
offsets into flat offsets of the padded array, and gathers every
``(offset, occupied cell)`` candidate of a class in one broadcast.  Its
cost is bounded by the occupied cells, not the lattice.
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray

__all__ = ["stencil_pairs", "half_stencil"]

#: Most ``(offset, cell)`` candidates one broadcast gather holds; a
#: larger stencil is gathered in blocks of offsets.
_MAX_CANDIDATES = 1 << 20


def half_stencil(offsets: IntArray) -> IntArray:
    """The offsets whose first non-zero coordinate is positive.

    Exactly one of ``o`` and ``-o`` survives, so a symmetric stencil cut
    this way visits each unordered neighbour pair once.  Order is kept.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lead = offsets[np.arange(len(offsets)), np.argmax(offsets != 0, axis=1)]
    return offsets[lead > 0]


def stencil_pairs(
    grid: IntArray, offsets: IntArray, empty: int
) -> tuple[IntArray, IntArray]:
    """Value pairs ``(grid[c], grid[c + o])`` where both cells are occupied.

    Parameters
    ----------
    grid:
        A ``d``-dimensional array; cells equal to ``empty`` are unoccupied.
    offsets:
        ``(m, d)``: one stencil for every cell.  ``(2**d, m, d)``: one
        stencil per parity class, where class ``k`` holds the cells
        whose coordinates modulo 2, read as binary digits with axis 0
        most significant, spell ``k``.
    empty:
        The value of an unoccupied cell; targets outside the grid count
        as unoccupied.

    Returns
    -------
    ``(src, dst)`` arrays ordered by parity class, then offset (in table
    order), then source cell in row-major order.
    """
    grid = np.asarray(grid)
    tables = np.asarray(offsets, dtype=np.int64)
    per_class = tables.ndim == 3
    if (
        tables.ndim not in (2, 3)
        or tables.shape[-1] != grid.ndim
        or (per_class and len(tables) != 1 << grid.ndim)
    ):
        raise ValueError(f"offsets of shape {tables.shape} do not fit a {grid.ndim}D grid")
    if not per_class:
        tables = tables[None]
    coords = np.nonzero(grid != empty)
    if coords[0].size == 0 or tables.size == 0:
        none = np.empty(0, dtype=grid.dtype)
        return none, none.copy()

    pad = int(np.abs(tables).max())
    padded = np.full([n + 2 * pad for n in grid.shape], empty, dtype=grid.dtype)
    padded[tuple(slice(pad, pad + n) for n in grid.shape)] = grid
    flat = padded.ravel()
    cells = np.ravel_multi_index(tuple(c + pad for c in coords), padded.shape)
    values = grid[coords]
    flat_offsets = tables @ (np.asarray(padded.strides, dtype=np.int64) // padded.itemsize)
    if per_class:
        parity = sum((c & 1) << (grid.ndim - 1 - axis) for axis, c in enumerate(coords))
        members = [np.flatnonzero(parity == k) for k in range(len(tables))]
    else:
        members = [slice(None)]

    src, dst = [], []
    for table, member in zip(flat_offsets, members):
        class_cells, class_values = cells[member], values[member]
        if class_cells.size == 0:
            continue
        step = max(1, _MAX_CANDIDATES // class_cells.size)
        for lo in range(0, table.size, step):
            # offset-major: row i holds every cell's target at offset i
            targets = flat[table[lo : lo + step, None] + class_cells]
            hit = targets != empty
            src.append(np.broadcast_to(class_values, targets.shape)[hit])
            dst.append(targets[hit])
    return np.concatenate(src), np.concatenate(dst)
