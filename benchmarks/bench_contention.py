"""Contention-extension ablation: link loads under XY routing.

Future-work item (i) of §VIII asks how network contention interacts with
the SFC choice; this bench routes the near-field traffic of every
same-SFC pairing on a torus and reports maximum and mean link load next
to the (contention-unaware) ACD, showing that the ACD ranking survives
when congestion is taken into account.
"""

from __future__ import annotations

import os

import pytest

from repro.contention import link_loads
from repro.distributions import get_distribution
from repro.experiments.reporting import format_rows
from repro.fmm import nfi_events
from repro.metrics import compute_acd
from repro.partition import partition_particles
from repro.sfc.registry import PAPER_CURVES
from repro.topology import make_topology


def bench_args(scale, tiny: tuple, small: tuple, paper: tuple) -> tuple:
    """Workload size for the active scale.

    ``REPRO_BENCH_TINY=1`` overrides everything with a seconds-not-minutes
    configuration so CI can smoke-test the bench scripts.
    """
    if os.environ.get("REPRO_BENCH_TINY"):
        return tiny
    return paper if scale.name == "paper" else small


def contention_table(num_particles: int, order: int, num_processors: int):
    particles = get_distribution("uniform").sample(num_particles, order, rng=5)
    rows = []
    for curve in PAPER_CURVES:
        net = make_topology("torus", num_processors, processor_curve=curve)
        assignment = partition_particles(particles, curve, num_processors)
        events = nfi_events(assignment)
        loads = link_loads(events, net)
        rows.append(
            {
                "curve": curve,
                "acd": compute_acd(events, net).mean,
                "max_link_load": loads.max_load,
                "mean_link_load": loads.mean_load,
                "total_traffic": loads.total_traffic,
            }
        )
    return rows


@pytest.mark.paper_artifact("ext-contention")
def test_contention_ablation(benchmark, scale, report):
    args = bench_args(
        scale, tiny=(2_000, 6, 256), small=(20_000, 8, 1_024), paper=(250_000, 10, 65_536)
    )
    rows = benchmark.pedantic(contention_table, args=args, rounds=1, iterations=1)
    report(
        f"Contention extension — NFI link loads on a torus (scale={scale.name})",
        format_rows(rows, ["curve", "acd", "max_link_load", "mean_link_load", "total_traffic"]),
    )
    by_curve = {r["curve"]: r for r in rows}
    # the ACD winner also carries the least total traffic
    assert by_curve["hilbert"]["total_traffic"] == min(r["total_traffic"] for r in rows)
    assert by_curve["hilbert"]["max_link_load"] <= by_curve["rowmajor"]["max_link_load"]
