#!/usr/bin/env python
"""§VII end-to-end: predict the best configuration for a custom solver.

An (invented, but structurally realistic) iterative PDE solver performs,
per timestep: a near-field halo exchange of its SFC-partitioned unknowns
(4 sub-iterations), one residual allreduce, one log-tree broadcast of
the new timestep size, and — every timestep — a ring allgather of
boundary metadata.  The paper's §VII claims the ACD of each primitive
"can be computed in advance ... to allow algorithm designers to select
the appropriate SFCs for data separation and processor ranking"; this
script does exactly that with :class:`repro.application.ApplicationModel`,
then sanity-checks the winner against the contention simulator.

Run with::

    python examples/custom_application.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.application import ApplicationModel, recommend_configuration
from repro.contention import simulate_exchange
from repro.fmm import nfi_events
from repro.partition import partition_particles
from repro.primitives import allgather_ring, allreduce, broadcast

NUM_PARTICLES = 10_000
ORDER = 8  # 256 x 256 unknowns lattice
NUM_PROCESSORS = 256


def build_model(particle_curve: str) -> ApplicationModel:
    """Assemble the solver's per-timestep communication phases."""
    particles = repro.get_distribution("uniform").sample(NUM_PARTICLES, ORDER, rng=5)
    assignment = partition_particles(particles, particle_curve, NUM_PROCESSORS)
    halo = nfi_events(assignment, radius=1)

    model = ApplicationModel(f"solver[{particle_curve}]")
    model.add_phase("halo exchange", halo, repeats=4)
    model.add_phase("residual allreduce", lambda t: allreduce(np.arange(t.num_processors)))
    model.add_phase("dt broadcast", lambda t: broadcast(np.arange(t.num_processors)))
    model.add_phase("boundary allgather", lambda t: allgather_ring(np.arange(t.num_processors)))
    return model


def main() -> None:
    candidates = {}
    for topo in ("mesh", "torus", "quadtree", "hypercube"):
        for proc_curve in ("hilbert", "zcurve", "rowmajor"):
            label = f"{topo}/{proc_curve}"
            candidates[label] = repro.make_topology(
                topo, NUM_PROCESSORS, processor_curve=proc_curve
            )

    model = build_model(particle_curve="hilbert")
    ranked = recommend_configuration(model, candidates)

    print(f"candidate configurations for '{model.name}' (best first):\n")
    header = f"{'configuration':>22} {'total hops/step':>16} {'ACD':>8}"
    print(header)
    print("-" * len(header))
    for label, report in ranked[:6]:
        total = report.total
        print(f"{label:>22} {total.total:>16} {total.mean:>8.3f}")
    print("   ...")
    for label, report in ranked[-2:]:
        total = report.total
        print(f"{label:>22} {total.total:>16} {total.mean:>8.3f}")

    best_label, best_report = ranked[0]
    print(f"\nper-phase breakdown on {best_label}:")
    for phase, result in best_report.phases.items():
        reps = best_report.repeats[phase]
        print(f"  {phase:<20s} x{reps}: ACD {result.mean:7.3f} ({result.count} msgs)")

    # sanity-check the winner under contention for the dominant phase
    best_net = candidates[best_label]
    particles = repro.get_distribution("uniform").sample(NUM_PARTICLES, ORDER, rng=5)
    halo = nfi_events(partition_particles(particles, "hilbert", NUM_PROCESSORS))
    sim = simulate_exchange(halo, best_net)
    print(
        f"\ncontention check on {best_label}: halo exchange drains in "
        f"{sim.makespan} cycles (congestion bound {sim.congestion}, "
        f"schedule stretch {sim.stretch_over_bounds:.2f})"
    )


if __name__ == "__main__":
    main()
