#!/usr/bin/env python
"""Quickstart: evaluate the ACD of one FMM problem instance.

This walks the paper's §IV pipeline end to end on a small problem:

1. draw particles from an input distribution,
2. build a processor network whose ranks are placed by a
   processor-order SFC,
3. order and chunk the particles with a particle-order SFC,
4. generate the near-field and far-field communication events,
5. report the Average Communicated Distance of each phase.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import repro


def main() -> None:
    # 1. 20 000 particles on a 256 x 256 lattice, uniformly distributed.
    distribution = repro.get_distribution("uniform")
    particles = distribution.sample(20_000, order=8, rng=42)
    print(f"sampled {len(particles)} particles on a {particles.side}x{particles.side} lattice")

    # 2. A 32 x 32 torus (1024 processors) ranked by the Hilbert curve.
    network = repro.make_topology("torus", 1024, processor_curve="hilbert")
    print(f"network: {network!r}, diameter {network.diameter}")

    # 3-5. The FMM communication model evaluates everything in one call.
    model = repro.FmmCommunicationModel(network, particle_curve="hilbert", radius=1)
    report = model.evaluate(particles)

    print(f"\nnear-field ACD : {report.nfi_acd:8.4f}  ({report.nfi.count} communications)")
    print(f"far-field  ACD : {report.ffi_acd:8.4f}  ({report.ffi['combined'].count} communications)")
    for phase in ("interpolation", "anterpolation", "interaction"):
        result = report.ffi[phase]
        print(f"  {phase:<14s}: {result.mean:8.4f}  ({result.count} communications)")

    # Contrast with the naive row-major baseline the paper warns about.
    baseline_net = repro.make_topology("torus", 1024, processor_curve="rowmajor")
    baseline = repro.FmmCommunicationModel(baseline_net, particle_curve="rowmajor", radius=1)
    base_report = baseline.evaluate(particles)
    print(f"\nrow-major/row-major baseline: NFI {base_report.nfi_acd:.4f}, FFI {base_report.ffi_acd:.4f}")
    print(
        f"Hilbert/Hilbert reduces NFI ACD by "
        f"{base_report.nfi_acd / report.nfi_acd:.1f}x and FFI ACD by "
        f"{base_report.ffi_acd / report.ffi_acd:.1f}x"
    )


if __name__ == "__main__":
    main()
