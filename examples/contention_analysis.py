#!/usr/bin/env python
"""Contention extension: from average distance to link congestion.

The ACD is contention-unaware by design (§IV); the paper's future work
item (i) asks how congestion changes the picture.  This example routes
the near-field traffic of each SFC pairing on a torus with XY routing,
prints the per-link load statistics next to the ACD, and shows the load
distribution of the best and worst configuration.

Run with::

    python examples/contention_analysis.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.contention import link_loads, simulate_exchange
from repro.fmm import nfi_events
from repro.metrics import compute_acd
from repro.partition import partition_particles
from repro.sfc.registry import PAPER_CURVES

NUM_PARTICLES = 20_000
ORDER = 8
NUM_PROCESSORS = 1_024


def sparkline(counts: np.ndarray) -> str:
    """Tiny text histogram (one char per bin)."""
    blocks = " .:-=+*#%@"
    top = counts.max() if counts.max() else 1
    return "".join(blocks[min(int(9 * c / top), 9)] for c in counts)


def main() -> None:
    particles = repro.get_distribution("uniform").sample(NUM_PARTICLES, ORDER, rng=21)
    print(
        f"routing NFI traffic of {NUM_PARTICLES} particles on a "
        f"{NUM_PROCESSORS}-processor torus (XY routing)\n"
    )

    results = {}
    print(f"{'curve':>10} {'ACD':>8} {'max link':>9} {'mean link':>10} {'imbalance':>10}")
    for curve in PAPER_CURVES:
        network = repro.make_topology("torus", NUM_PROCESSORS, processor_curve=curve)
        assignment = partition_particles(particles, curve, NUM_PROCESSORS)
        events = nfi_events(assignment)
        acd = compute_acd(events, network).mean
        loads = link_loads(events, network)
        imbalance = loads.max_load / loads.mean_load if loads.mean_load else 0.0
        results[curve] = loads
        print(
            f"{curve:>10} {acd:8.4f} {loads.max_load:9d} "
            f"{loads.mean_load:10.3f} {imbalance:10.2f}x"
        )

    print("\nload histograms (20 bins, left = idle links, right = hottest):")
    for curve in ("hilbert", "rowmajor"):
        counts, _ = results[curve].load_histogram(bins=20)
        print(f"  {curve:>10} |{sparkline(counts)}|")

    print("\nstore-and-forward simulation (unit-capacity links, all injected at cycle 0):")
    print(f"{'curve':>10} {'makespan':>9} {'mean lat':>9} {'congestion':>11} {'stretch':>8}")
    for curve in PAPER_CURVES:
        network = repro.make_topology("torus", NUM_PROCESSORS, processor_curve=curve)
        assignment = partition_particles(particles, curve, NUM_PROCESSORS)
        sim = simulate_exchange(nfi_events(assignment), network)
        print(
            f"{curve:>10} {sim.makespan:9d} {sim.mean_latency:9.2f} "
            f"{sim.congestion:11d} {sim.stretch_over_bounds:8.2f}"
        )

    print(
        "\nthe ACD winner also minimises total traffic and its worst link"
        " carries far less than the row-major hot spot; in the simulation the"
        " recursive curves finish several times sooner than row-major — the"
        " contention-unaware ranking's headline survives queueing at this load."
    )


if __name__ == "__main__":
    main()
