"""Tests for near-field event generation and the stencil-gather kernel.

The generators must match two references: a brute-force enumeration of
neighbour pairs (content), and the per-offset loops of
:mod:`tests.fmm.oracle` (content *and* order, element for element).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import get_distribution
from repro.fmm import nfi_events, nfi_events3d
from repro.fmm.ffi import interaction_events
from repro.fmm.stencil import stencil_pairs
from repro.metrics import compute_acd
from repro.octree.pyramid import representative_pyramid3d
from repro.partition import partition_particles
from repro.quadtree.pyramid import representative_pyramid
from repro.topology import make_topology
from tests.fmm import oracle


def brute_force_nfi(assignment, radius, metric):
    """O(n^2) enumeration of unordered neighbour pairs."""
    x, y, proc = assignment.particles.x, assignment.particles.y, assignment.processor
    pairs = []
    n = len(assignment.particles)
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = abs(int(x[i] - x[j])), abs(int(y[i] - y[j]))
            d = max(dx, dy) if metric == "chebyshev" else dx + dy
            if 1 <= d <= radius:
                pairs.append((int(proc[i]), int(proc[j])))
    return pairs


@pytest.fixture
def assignment():
    particles = get_distribution("uniform").sample(120, 4, rng=5)
    return partition_particles(particles, "hilbert", 8)


def pair_list(src, dst):
    return list(zip(src.tolist(), dst.tolist()))


class TestShiftedPairs:
    """``stencil_pairs`` with one offset is the shifted-grid pairing."""

    def test_simple_shift(self):
        grid = np.array([[0, -1], [1, 2]], dtype=np.int64)
        src, dst = stencil_pairs(grid, [[1, 0]], empty=-1)
        assert sorted(pair_list(src, dst)) == [(0, 1)]

    def test_diagonal_shift(self):
        grid = np.array([[0, -1], [-1, 2]], dtype=np.int64)
        src, dst = stencil_pairs(grid, [[1, 1]], empty=-1)
        assert pair_list(src, dst) == [(0, 2)]

    def test_negative_shift_mirrors_positive(self):
        grid = np.arange(16, dtype=np.int64).reshape(4, 4)
        s1, d1 = stencil_pairs(grid, [[1, 0]], empty=-1)
        s2, d2 = stencil_pairs(grid, [[-1, 0]], empty=-1)
        assert sorted(pair_list(s1, d1)) == sorted(pair_list(d2, s2))

    def test_3d_shift(self):
        vol = np.full((2, 2, 2), -1, dtype=np.int64)
        vol[0, 0, 0], vol[0, 0, 1], vol[1, 1, 1] = 3, 4, 5
        src, dst = stencil_pairs(vol, [[0, 0, 1], [1, 1, 1], [1, 1, 0]], empty=-1)
        assert pair_list(src, dst) == [(3, 4), (3, 5), (4, 5)]

    def test_parity_table(self):
        """Each cell reads the table of its parity class, classes in binary order."""
        grid = np.arange(16, dtype=np.int64).reshape(4, 4)
        # class k = 2 * (x & 1) + (y & 1); targets off the grid are dropped
        table = np.array([[[1, 0]], [[0, -1]], [[1, 1]], [[9, 9]]])
        src, dst = stencil_pairs(grid, table, empty=-1)
        want = (
            [(g, g + 4) for g in (0, 2, 8, 10)]  # class 0 reads (x+1, y)
            + [(g, g - 1) for g in (1, 3, 9, 11)]  # class 1 reads (x, y-1)
            + [(4, 9), (6, 11)]  # class 2 reads (x+1, y+1): only x = 1 stays on the grid
        )  # class 3 reads nothing on the grid
        assert pair_list(src, dst) == want

    @pytest.mark.parametrize(
        "offsets",
        [
            [[1, 0], [0, 1], [1, 1]],  # 2D offsets; 3 * 2 values would read as two 3D ones
            [1, 0, 0],  # one offset, not an (m, d) stencil
            np.zeros((4, 1, 3), dtype=int),  # a 2D parity table for a 3D grid
        ],
    )
    def test_offsets_must_fit_the_grid(self, offsets):
        vol = np.zeros((2, 2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="do not fit a 3D grid"):
            stencil_pairs(vol, offsets, empty=-1)


class TestNfiEvents:
    @pytest.mark.parametrize("metric", ["chebyshev", "manhattan"])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_matches_brute_force(self, assignment, radius, metric):
        events = nfi_events(assignment, radius=radius, metric=metric)
        expected = brute_force_nfi(assignment, radius, metric)
        src, dst = events.pairs()
        got = sorted(map(tuple, np.sort(np.stack([src, dst], 1), axis=1).tolist()))
        want = sorted(map(tuple, np.sort(np.array(expected).reshape(-1, 2), axis=1).tolist()))
        assert got == want

    def test_full_lattice_pair_count(self):
        """On a full lattice, r=1 Chebyshev yields all 8-neighbour pairs."""
        particles = get_distribution("uniform").sample(64, 3, rng=0)  # full 8x8
        asg = partition_particles(particles, "zcurve", 4)
        events = nfi_events(asg, radius=1, metric="chebyshev")
        side = 8
        horizontal = side * (side - 1)
        diagonal = (side - 1) * (side - 1)
        assert len(events) == 2 * horizontal + 2 * diagonal

    def test_acd_zero_on_single_processor(self, assignment):
        particles = assignment.particles
        solo = partition_particles(particles, "hilbert", 1)
        events = nfi_events(solo)
        topo = make_topology("bus", 1)
        assert compute_acd(events, topo).mean == 0.0
        assert len(events) > 0

    def test_radius_zero_rejected(self, assignment):
        with pytest.raises(ValueError):
            nfi_events(assignment, radius=0)

    def test_larger_radius_more_events(self, assignment):
        e1 = nfi_events(assignment, radius=1)
        e2 = nfi_events(assignment, radius=2)
        assert len(e2) > len(e1)

    def test_empty_particles(self):
        from repro.distributions import Particles

        empty = Particles(np.empty(0, dtype=int), np.empty(0, dtype=int), order=3)
        asg = partition_particles(empty, "hilbert", 4)
        assert len(nfi_events(asg)) == 0


@st.composite
def owner_grids(draw):
    """A random 2D or 3D owner grid over 8 ranks, ``-1`` marking empty cells."""
    ndim = draw(st.sampled_from([2, 3]))
    side = 1 << draw(st.integers(1, 5 if ndim == 2 else 3))
    occupancy = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.integers(0, 8, (side,) * ndim)
    grid[rng.random(grid.shape) >= occupancy] = -1
    return grid


def assert_same_events(got, want):
    """Equal content *and* order, element for element."""
    gs, gd = got.pairs()
    ws, wd = want.pairs()
    np.testing.assert_array_equal(gs, ws)
    np.testing.assert_array_equal(gd, wd)
    assert len(got) == len(want)


class TestAgainstPerOffsetOracle:
    """The stencil kernel reproduces the per-offset loops' event order."""

    @settings(max_examples=60, deadline=None)
    @given(
        grid=owner_grids(),
        radius=st.integers(1, 4),
        metric=st.sampled_from(["chebyshev", "manhattan"]),
    )
    def test_near_field(self, grid, radius, metric):
        class Owners:  # the one thing the generators read from an assignment
            def owner_grid(self):
                return grid

            owner_volume = owner_grid

        generate = nfi_events if grid.ndim == 2 else nfi_events3d
        assert_same_events(
            generate(Owners(), radius, metric), oracle.nfi_events(grid, radius, metric)
        )

    @settings(max_examples=60, deadline=None)
    @given(grid=owner_grids(), granularity=st.sampled_from(["cell", "processor"]))
    def test_far_field(self, grid, granularity):
        pyramid = (representative_pyramid if grid.ndim == 2 else representative_pyramid3d)(grid)
        assert_same_events(
            interaction_events(pyramid, granularity),
            oracle.interaction_events(pyramid, granularity),
        )

