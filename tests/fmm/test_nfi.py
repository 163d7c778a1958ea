"""Tests for near-field event generation, including a brute-force oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import get_distribution
from repro.fmm import nfi_events, shifted_occupied_pairs
from repro.metrics import compute_acd
from repro.partition import partition_particles
from repro.topology import make_topology


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


class TestShiftedPairs:
    def test_simple_shift(self):
        grid = np.array([[0, -1], [1, 2]], dtype=np.int64)
        src, dst = shifted_occupied_pairs(grid, 1, 0)
        assert sorted(zip(src.tolist(), dst.tolist())) == [(0, 1)]

    def test_diagonal_shift(self):
        grid = np.array([[0, -1], [-1, 2]], dtype=np.int64)
        src, dst = shifted_occupied_pairs(grid, 1, 1)
        assert list(zip(src.tolist(), dst.tolist())) == [(0, 2)]

    def test_negative_shift_mirrors_positive(self):
        grid = np.arange(16, dtype=np.int64).reshape(4, 4)
        s1, d1 = shifted_occupied_pairs(grid, 1, 0)
        s2, d2 = shifted_occupied_pairs(grid, -1, 0)
        assert sorted(zip(s1.tolist(), d1.tolist())) == sorted(zip(d2.tolist(), s2.tolist()))


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
