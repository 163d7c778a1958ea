"""Fig. 6 — effect of the network topology (§VI-B).

One sub-case per {topology, SFC} pair, using the *same* curve for both
particle and processor ordering, on a fixed uniform input (1 000 000
particles on a 4096-lattice with r = 4 at paper scale).  The paper plots
mesh/torus/quadtree/hypercube and omits bus/ring (and the near-field
row-major entries) as off-scale; we compute everything and let the
formatter annotate the omissions.

All topologies of one curve share a single event-generating instance, so
the grouped campaign engine generates each trial's events once per curve
and evaluates all six networks against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import FmmCase
from repro.experiments.io import ResultSchema
from repro.experiments.reporting import format_matrix
from repro.experiments.study import (
    FmmUnit,
    Study,
    StudyContext,
    StudyPlan,
    outputs_by_key,
    register_study,
    run_study,
)
from repro.sfc.registry import PAPER_CURVES
from repro.topology.registry import PAPER_TOPOLOGIES

__all__ = [
    "TopologyStudyResult",
    "TOPOLOGY_STUDY",
    "format_topology_study",
]

#: The four topologies Fig. 6 actually plots.
FIG6_TOPOLOGIES: tuple[str, ...] = ("mesh", "torus", "quadtree", "hypercube")


@dataclass(frozen=True)
class TopologyStudyResult:
    """ACD per {topology, curve} for both interaction models.

    ``nfi[topology][curve]`` / ``ffi[topology][curve]`` hold the
    trial-averaged ACD values.
    """

    topologies: tuple[str, ...]
    curves: tuple[str, ...]
    nfi: dict[str, dict[str, float]]
    ffi: dict[str, dict[str, float]]


def plan_topology_study(
    ctx: StudyContext,
    topologies: tuple[str, ...] = PAPER_TOPOLOGIES,
    curves: tuple[str, ...] = PAPER_CURVES,
    distribution: str = "uniform",
) -> StudyPlan:
    """Declare the §VI-B grid: every {topology, curve} pair."""
    preset = ctx.preset()
    units = tuple(
        FmmUnit(
            key=(topo, curve),
            case=FmmCase(
                num_particles=preset.topo_particles,
                order=preset.topo_order,
                num_processors=preset.topo_processors,
                topology=topo,
                particle_curve=curve,
                processor_curve=curve,  # same SFC for both roles (§VI-B)
                distribution=distribution,
                radius=preset.topo_radius,
            ),
        )
        for topo in topologies
        for curve in curves
    )
    return StudyPlan(
        units=units,
        trials=preset.resolve_trials(ctx.trials),
        seed=ctx.seed,
        meta={"topologies": tuple(topologies), "curves": tuple(curves)},
    )


def collect_topology_study(plan: StudyPlan, outputs: list) -> TopologyStudyResult:
    """Assemble the topology x curve matrices from per-pair results."""
    by_key = outputs_by_key(plan, outputs)
    topologies, curves = plan.meta["topologies"], plan.meta["curves"]
    nfi = {t: {c: by_key[(t, c)].nfi_acd for c in curves} for t in topologies}
    ffi = {t: {c: by_key[(t, c)].ffi_acd for c in curves} for t in topologies}
    return TopologyStudyResult(topologies=topologies, curves=curves, nfi=nfi, ffi=ffi)


def format_topology_study(result: TopologyStudyResult) -> str:
    """Render both Fig. 6 panels as topology x curve matrices."""
    blocks = []
    for panel, data in (("Fig. 6(a) NFI ACD", result.nfi), ("Fig. 6(b) FFI ACD", result.ffi)):
        blocks.append(
            format_matrix(
                data,
                result.topologies,
                result.curves,
                title=panel,
                row_axis="Topology",
                col_axis="SFC",
            )
        )
    blocks.append(
        "(the paper's plot omits bus/ring and the NFI row-major entries as off-scale)"
    )
    return "\n\n".join(blocks)


def _flatten(result: TopologyStudyResult) -> list[dict]:
    return [
        {"model": model, "topology": topo, "curve": curve, "acd": table[topo][curve]}
        for model, table in (("nfi", result.nfi), ("ffi", result.ffi))
        for topo in result.topologies
        for curve in result.curves
    ]


TOPOLOGY_STUDY = register_study(
    Study(
        name="fig6",
        title="Fig. 6 — network-topology comparison",
        result_type=TopologyStudyResult,
        plan=plan_topology_study,
        collect=collect_topology_study,
        render=format_topology_study,
        schema=ResultSchema(TopologyStudyResult, flatten=_flatten),
    )
)


def main() -> None:  # pragma: no cover - exercised via CLI test
    print(format_topology_study(run_study(TOPOLOGY_STUDY)))


if __name__ == "__main__":  # pragma: no cover
    main()
