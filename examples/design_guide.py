#!/usr/bin/env python
"""Design guide: choose SFCs and a topology for an FMM-type application.

The paper closes §VI with a list of recommendations for implementers.
This example reproduces that decision process for a concrete workload:
it sweeps the SFC pairings on the available networks, folds in the
collective phases the application performs between FMM iterations
(§VII), and prints a ranked recommendation.

Run with::

    python examples/design_guide.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.metrics import compute_acd
from repro.primitives import allgather_ring, allreduce
from repro.sfc.registry import PAPER_CURVES

NUM_PARTICLES = 15_000
ORDER = 9  # 512 x 512 lattice
NUM_PROCESSORS = 1_024
RADIUS = 2


def evaluate_candidate(topology_name: str, curve: str, particles) -> dict:
    """Total per-iteration ACD of the application on one configuration."""
    network = repro.make_topology(topology_name, NUM_PROCESSORS, processor_curve=curve)
    model = repro.FmmCommunicationModel(network, particle_curve=curve, radius=RADIUS)
    report = model.evaluate(particles)

    # Between iterations the application allreduces the error norm and
    # allgathers boundary metadata (one of each per timestep).
    ranks = np.arange(NUM_PROCESSORS)
    allreduce_acd = compute_acd(allreduce(ranks), network).mean
    allgather_acd = compute_acd(allgather_ring(ranks), network).mean

    return {
        "topology": topology_name,
        "curve": curve,
        "nfi": report.nfi_acd,
        "ffi": report.ffi_acd,
        "allreduce": allreduce_acd,
        "allgather": allgather_acd,
        # weight phases by their message volume share in a typical FMM step
        "score": (
            0.5 * report.nfi_acd
            + 0.4 * report.ffi_acd
            + 0.05 * allreduce_acd
            + 0.05 * allgather_acd
        ),
    }


def main() -> None:
    particles = repro.get_distribution("exponential").sample(NUM_PARTICLES, ORDER, rng=7)
    print(
        f"workload: {NUM_PARTICLES} exponentially-distributed particles, "
        f"{NUM_PROCESSORS} processors, near-field radius {RADIUS}\n"
    )

    candidates = [
        evaluate_candidate(topo, curve, particles)
        for topo in ("mesh", "torus", "quadtree", "hypercube")
        for curve in PAPER_CURVES
    ]
    candidates.sort(key=lambda c: c["score"])

    header = f"{'topology':>10} {'SFC':>10} {'NFI':>8} {'FFI':>8} {'allred':>8} {'allgat':>8} {'score':>8}"
    print(header)
    print("-" * len(header))
    for c in candidates:
        print(
            f"{c['topology']:>10} {c['curve']:>10} {c['nfi']:8.3f} {c['ffi']:8.3f} "
            f"{c['allreduce']:8.3f} {c['allgather']:8.3f} {c['score']:8.3f}"
        )

    best = candidates[0]
    print(
        f"\nrecommendation: run on a {best['topology']} with the "
        f"{best['curve']} curve for both particle and processor ordering."
    )
    print(
        "(the paper's §VI conclusion at this regime: recursive curves beat "
        "row-major by a wide margin, and the Hilbert curve is the safest default)"
    )


if __name__ == "__main__":
    main()
