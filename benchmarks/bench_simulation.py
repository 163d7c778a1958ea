"""Contention-simulation ablation: does the ACD ranking survive queueing?

§IV's note — "this manner of calculating the distance renders our model
contention-unaware" — leaves open whether the SFC recommendations hold
once messages queue on real links.  This bench replays the near-field
exchange through the store-and-forward simulator for every same-SFC
pairing on a torus and compares makespans with the ACD.

Regime note: at very light loads the exchange is latency-dominated
(makespan ≈ the longest single routed path) and the worst *single* seam
message decides the outcome, which can briefly favour row-major; the
bench uses a load where per-link congestion dominates — the regime the
paper's "all processors communicate at the same time" framing implies —
and there the ACD ranking carries over to wall-clock makespan.
"""

from __future__ import annotations

import os

import pytest

from repro.contention import simulate_exchange
from repro.distributions import get_distribution
from repro.experiments.reporting import format_rows
from repro.fmm import nfi_events
from repro.metrics import compute_acd
from repro.partition import partition_particles
from repro.sfc.registry import PAPER_CURVES
from repro.topology import make_topology


def simulation_table(num_particles: int, order: int, num_processors: int):
    particles = get_distribution("uniform").sample(num_particles, order, rng=17)
    rows = []
    for curve in PAPER_CURVES:
        net = make_topology("torus", num_processors, processor_curve=curve)
        events = nfi_events(partition_particles(particles, curve, num_processors))
        sim = simulate_exchange(events, net)
        rows.append(
            {
                "curve": curve,
                "acd": compute_acd(events, net).mean,
                "makespan": sim.makespan,
                "mean_latency": sim.mean_latency,
                "congestion": sim.congestion,
                "schedule_stretch": sim.stretch_over_bounds,
            }
        )
    return rows


@pytest.mark.paper_artifact("ext-simulation")
def test_contention_simulation(benchmark, scale, report):
    if os.environ.get("REPRO_BENCH_TINY"):
        args = (2_000, 6, 256)
    elif scale.name == "paper":
        args = (50_000, 9, 4_096)
    else:
        args = (20_000, 8, 1_024)
    rows = benchmark.pedantic(simulation_table, args=args, rounds=1, iterations=1)
    report(
        f"Store-and-forward simulation of the NFI exchange (scale={scale.name})",
        format_rows(
            rows,
            ["curve", "acd", "makespan", "mean_latency", "congestion", "schedule_stretch"],
        ),
    )
    if os.environ.get("REPRO_BENCH_TINY"):
        return  # latency-dominated regime (see docstring): ranking not meaningful
    by = {r["curve"]: r for r in rows}
    # the ACD winner also finishes the contended exchange first
    assert by["hilbert"]["makespan"] == min(r["makespan"] for r in rows)
    assert by["rowmajor"]["makespan"] == max(r["makespan"] for r in rows)
