"""Regenerate the §VII design guide: ACD of communication primitives.

§VII argues that the ACD of classic collectives "can be computed in
advance ... to allow algorithm designers to select the appropriate SFCs
for data separation and processor ranking".  This bench evaluates every
primitive on every processor-ordering of a torus and prints the
resulting decision matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.reporting import format_matrix
from repro.metrics import compute_acd
from repro.primitives import allgather_ring, allreduce, alltoall, broadcast, scan
from repro.sfc.registry import PAPER_CURVES
from repro.topology import make_topology

PRIMITIVES = {
    "broadcast": broadcast,
    "allreduce": allreduce,
    "allgather": allgather_ring,
    "alltoall": alltoall,
    "scan": scan,
}


def primitive_matrix(num_processors: int) -> dict[str, dict[str, float]]:
    participants = np.arange(num_processors)
    events = {name: fn(participants) for name, fn in PRIMITIVES.items()}
    matrix: dict[str, dict[str, float]] = {}
    for prim, ev in events.items():
        matrix[prim] = {}
        for curve in PAPER_CURVES:
            net = make_topology("torus", num_processors, processor_curve=curve)
            matrix[prim][curve] = compute_acd(ev, net).mean
    return matrix


@pytest.mark.paper_artifact("sec7")
def test_primitive_design_guide(benchmark, scale, report):
    p = 4096 if scale.name == "paper" else 256
    matrix = benchmark.pedantic(primitive_matrix, args=(p,), rounds=1, iterations=1)
    report(
        f"§VII primitive ACD on a {p}-processor torus (scale={scale.name})",
        format_matrix(
            matrix,
            list(PRIMITIVES),
            list(PAPER_CURVES),
            title="ACD per {primitive, processor-order SFC}",
            row_axis="Primitive",
            col_axis="Processor Order",
        ),
    )
    # unit-stride allgather must be optimal on the Hilbert layout
    assert matrix["allgather"]["hilbert"] == min(matrix["allgather"].values())
