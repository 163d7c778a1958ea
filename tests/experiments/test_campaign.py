"""Tests for the campaign batch runner."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.experiments.artifacts import EventArtifactCache, set_event_cache
from repro.experiments.campaign import (
    case_groups,
    expand_grid,
    format_campaign,
    run_campaign,
)


@contextmanager
def fresh_event_cache():
    """Install an empty process-wide event cache for the block."""
    cache = EventArtifactCache()
    previous = set_event_cache(cache)
    try:
        yield cache
    finally:
        set_event_cache(previous)


def run_per_case(cases, **kwargs):
    """Each case in its own campaign, regenerating its own events.

    A fresh event cache per case keeps the reference from reading
    artifacts that a grouped run (or a sibling case) left behind.
    """
    results = []
    for case in cases:
        with fresh_event_cache():
            results.extend(run_campaign([case], jobs=1, **kwargs))
    return results


class TestExpandGrid:
    def test_scalar_and_sequence_axes(self):
        cases = expand_grid(
            num_particles=500,
            order=5,
            num_processors=16,
            topology=("torus", "hypercube"),
            particle_curve=("hilbert", "rowmajor"),
            processor_curve="hilbert",
            distribution="uniform",
        )
        assert len(cases) == 4
        assert {c.topology for c in cases} == {"torus", "hypercube"}
        assert all(c.radius == 1 for c in cases)  # default filled in

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            expand_grid(num_particles=10)

    def test_nfi_metric_axis(self):
        cases = expand_grid(
            num_particles=100,
            order=5,
            num_processors=16,
            topology="torus",
            particle_curve="hilbert",
            processor_curve="hilbert",
            distribution="uniform",
            nfi_metric=("chebyshev", "manhattan"),
        )
        assert {c.nfi_metric for c in cases} == {"chebyshev", "manhattan"}
        default = expand_grid(
            num_particles=100,
            order=5,
            num_processors=16,
            topology="torus",
            particle_curve="hilbert",
            processor_curve="hilbert",
            distribution="uniform",
        )
        assert all(c.nfi_metric == "chebyshev" for c in default)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown case fields"):
            expand_grid(
                num_particles=10,
                order=4,
                num_processors=4,
                topology="torus",
                particle_curve="hilbert",
                processor_curve="hilbert",
                distribution="uniform",
                colour="blue",
            )


class TestRunCampaign:
    @pytest.fixture(scope="class")
    def results(self):
        cases = expand_grid(
            num_particles=400,
            order=5,
            num_processors=16,
            topology="torus",
            particle_curve=("hilbert", "rowmajor"),
            processor_curve=("hilbert", "rowmajor"),
            distribution="uniform",
        )
        return run_campaign(cases, trials=1, seed=5)

    def test_one_result_per_case(self, results):
        assert len(results) == 4

    def test_results_reflect_cases(self, results):
        by_pair = {
            (r.case.processor_curve, r.case.particle_curve): r.nfi_acd for r in results
        }
        assert by_pair[("hilbert", "hilbert")] < by_pair[("rowmajor", "rowmajor")]

    def test_nfi_only_parts(self):
        cases = expand_grid(
            num_particles=200,
            order=5,
            num_processors=16,
            topology="torus",
            particle_curve="hilbert",
            processor_curve="hilbert",
            distribution="uniform",
        )
        result = run_campaign(cases, trials=1, seed=1, parts=("nfi",))[0]
        assert result.ffi_events == 0

    def test_format(self, results):
        text = format_campaign(results)
        lines = text.splitlines()
        assert len(lines) == 5  # header + 4 cases
        assert "nfi_acd" in lines[0]

    def test_parallel_equals_serial(self):
        cases = expand_grid(
            num_particles=200,
            order=5,
            num_processors=16,
            topology=("torus", "hypercube"),
            particle_curve="hilbert",
            processor_curve="hilbert",
            distribution="uniform",
        )
        serial = run_campaign(cases, trials=2, seed=9, jobs=1)
        parallel = run_campaign(cases, trials=2, seed=9, jobs=2)
        assert serial == parallel

    def test_empty_campaign(self):
        assert run_campaign([]) == []


class TestSharedEventGeneration:
    """Grouped campaigns must be bit-identical to per-case execution."""

    #: Mixed grid: the topology axis shares instances (one group per
    #: particle curve), the particle-curve axis splits them.
    @pytest.fixture(scope="class")
    def cases(self):
        return expand_grid(
            num_particles=300,
            order=5,
            num_processors=16,
            topology=("torus", "hypercube", "mesh", "ring"),
            particle_curve=("hilbert", "zcurve"),
            processor_curve="hilbert",
            distribution="uniform",
        )

    def test_grouping_by_instance_key(self, cases):
        groups = case_groups(cases)
        assert len(groups) == 2  # one per particle curve
        assert sorted(i for idxs in groups.values() for i in idxs) == list(
            range(len(cases))
        )

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_campaign_bit_identical_to_per_case(self, cases, jobs):
        with fresh_event_cache() as cache:
            grouped = run_campaign(cases, trials=2, seed=13, jobs=jobs)
            # served from the artifacts the cold run left in the cache
            warm = run_campaign(cases, trials=2, seed=13, jobs=jobs)
        if jobs == 1:  # 2 instance groups x 2 trials: built once, then reused
            assert (cache.stats["misses"], cache.stats["hits"]) == (4, 4)
        per_case = run_per_case(cases, trials=2, seed=13)
        # CaseResult equality is exact (floats included)
        assert grouped == warm == per_case

    def test_heterogeneous_instances_still_exact(self):
        # no two cases share an instance: grouping must be a no-op
        cases = expand_grid(
            num_particles=200,
            order=5,
            num_processors=16,
            topology="torus",
            particle_curve="hilbert",
            processor_curve="hilbert",
            distribution=("uniform", "normal", "exponential"),
        )
        assert len(case_groups(cases)) == 3
        grouped = run_campaign(cases, trials=1, seed=4)
        per_case = run_per_case(cases, trials=1, seed=4)
        assert grouped == per_case

    def test_nfi_only_campaign_matches_per_case(self, cases):
        grouped = run_campaign(cases, trials=1, seed=2, parts=("nfi",))
        per_case = run_per_case(cases, trials=1, seed=2, parts=("nfi",))
        assert grouped == per_case
