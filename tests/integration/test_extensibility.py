"""User-extensibility: custom curves, topologies and application models.

A downstream user should be able to plug their own curve or network into
the ACD machinery by subclassing the public ABCs; these tests exercise
that contract end-to-end.
"""

from __future__ import annotations

import numpy as np

from repro.distributions import get_distribution
from repro.fmm import FmmCommunicationModel
from repro.metrics import compute_acd
from repro.primitives import broadcast
from repro.sfc import SpaceFillingCurve
from repro.sfc.registry import CURVES
from repro.topology import Topology


class DiagonalSnakeCurve(SpaceFillingCurve):
    """A toy custom curve: snake order with the axes swapped."""

    name = "diagonal-snake"
    continuous = True

    def _encode(self, x, y):
        side = np.int64(self.side)
        xpos = np.where(y & 1, side - 1 - x, x)
        return y * side + xpos

    def _decode(self, index):
        side = np.int64(self.side)
        y, xpos = index // side, index % side
        return np.where(y & 1, side - 1 - xpos, xpos), y


class StarTopology(Topology):
    """A toy custom network: a hub (rank 0) with spokes."""

    name = "star"

    @property
    def diameter(self) -> int:
        return 2 if self.num_processors > 2 else self.num_processors - 1

    def _distance(self, a, b):
        through_hub = (a != 0).astype(np.int64) + (b != 0).astype(np.int64)
        return np.where(a == b, 0, through_hub)


class TestCustomCurve:
    def test_satisfies_curve_contract(self):
        curve = DiagonalSnakeCurve(4)
        idx = curve.index_grid()
        assert np.unique(idx).size == curve.size
        assert np.all(curve.step_lengths() == 1)

    def test_usable_as_particle_order(self):
        particles = get_distribution("uniform").sample(300, 5, rng=0)
        from repro.partition import partition_particles

        asg = partition_particles(particles, DiagonalSnakeCurve(5), 16)
        assert asg.particles_per_processor().sum() == 300

    def test_registrable(self):
        if "diagonal-snake" not in CURVES:
            CURVES.register("diagonal-snake", DiagonalSnakeCurve)
        assert isinstance(CURVES.create("diagonal-snake", 3), DiagonalSnakeCurve)


class TestCustomTopology:
    def test_satisfies_metric_contract(self):
        star = StarTopology(8)
        ranks = np.arange(8)
        d = star.distance(ranks[:, None], ranks[None, :])
        assert np.all(d == d.T)
        assert np.all(np.diag(d) == 0)
        assert d.max() == star.diameter

    def test_usable_for_acd(self):
        star = StarTopology(8)
        ev = broadcast(np.arange(8))
        result = compute_acd(ev, star)
        assert 0 < result.mean <= 2

    def test_usable_in_fmm_model(self):
        particles = get_distribution("uniform").sample(200, 4, rng=1)
        model = FmmCommunicationModel(StarTopology(8), particle_curve="hilbert")
        report = model.evaluate(particles)
        assert report.nfi_acd <= 2
        assert report.ffi_acd <= 2
