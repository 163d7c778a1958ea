"""3D validation study (paper's future-work item ii).

§VIII lists "validation of the communication trends projected by the
ACD metric ... using 3D" as future work.  This study re-runs the core
evaluation in three dimensions: same-SFC particle/processor pairings of
the four (3D) curves on the 3D torus, octree and hypercube networks,
plus a 3D ANNS sweep — and checks whether the 2D conclusions carry over.

The 3D model does not go through the 2D campaign engine, so both
studies declare :class:`~repro.experiments.study.ComputeUnit` grids —
one unit per ``(topology, curve)`` pairing (resp. ``(curve, order)``
ANNS point) — which the shared driver fans out over ``--jobs`` and
persists in the result store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.three_d import get_distribution3d
from repro.experiments.io import ResultSchema
from repro.experiments.reporting import format_matrix, format_series
from repro.experiments.study import (
    ComputeUnit,
    Study,
    StudyContext,
    StudyPlan,
    outputs_by_key,
    register_study,
)
from repro.fmm.model3d import FmmCommunicationModel3D
from repro.metrics.anns3d import neighbor_stretch3d
from repro.topology.registry import make_topology
from repro.util.rng import spawn_seeds

__all__ = [
    "PAPER_CURVES_3D",
    "Study3DResult",
    "Anns3dStudyResult",
    "STUDY3D",
    "ANNS3D_STUDY",
    "format_study3d",
    "format_anns3d_study",
]

#: 3D counterparts of the paper's four curves, in table order.
PAPER_CURVES_3D: tuple[str, ...] = ("hilbert3d", "morton3d", "gray3d", "rowmajor3d")

#: 3D networks evaluated (hypercube needs no curve; octree/torus3d do).
TOPOLOGIES_3D: tuple[str, ...] = ("mesh3d", "torus3d", "octree", "hypercube")

#: Default 3D workload (kept well below the 2D sizes: the 3D model is
#: denser per particle and this study is a trend check, not a table).
DEFAULT_PARTICLES_3D = 20_000
DEFAULT_ORDER_3D = 6
DEFAULT_PROCESSORS_3D = 4_096
DEFAULT_TRIALS_3D = 2
DEFAULT_ANNS3D_ORDERS: tuple[int, ...] = (1, 2, 3, 4)


@dataclass(frozen=True)
class Study3DResult:
    """ACD per {topology, 3D curve} for both interaction models."""

    topologies: tuple[str, ...]
    curves: tuple[str, ...]
    nfi: dict[str, dict[str, float]]
    ffi: dict[str, dict[str, float]]


@dataclass(frozen=True)
class Anns3dStudyResult:
    """3D ANNS stretch series per curve over a cube-resolution sweep."""

    orders: tuple[int, ...]
    radius: int
    #: ``values[curve][i]`` = mean stretch at ``orders[i]``.
    values: dict[str, list[float]]

    def sides(self) -> list[int]:
        """Cube side lengths corresponding to :attr:`orders`."""
        return [1 << k for k in self.orders]


def study3d_point(
    topology: str,
    curve: str,
    num_particles: int,
    order: int,
    num_processors: int,
    radius: int,
    distribution: str,
    trials: int,
    seed,
) -> list[float]:
    """One 3D pairing: trial-averaged ``[nfi_acd, ffi_acd]``."""
    dist = get_distribution3d(distribution)
    net = make_topology(topology, num_processors, processor_curve=curve)
    model = FmmCommunicationModel3D(net, particle_curve=curve, radius=radius)
    nfi_vals, ffi_vals = [], []
    for child in spawn_seeds(seed, trials):
        particles = dist.sample(num_particles, order, rng=np.random.default_rng(child))
        report = model.evaluate(particles)
        nfi_vals.append(report.nfi_acd)
        ffi_vals.append(report.ffi_acd)
    return [float(np.mean(nfi_vals)), float(np.mean(ffi_vals))]


def anns3d_point(curve: str, order: int, radius: int) -> float:
    """One 3D ANNS grid point: mean stretch at one cube resolution."""
    return neighbor_stretch3d(curve, order, radius=radius).mean


def plan_study3d(
    ctx: StudyContext,
    num_particles: int = DEFAULT_PARTICLES_3D,
    order: int = DEFAULT_ORDER_3D,
    num_processors: int = DEFAULT_PROCESSORS_3D,
    radius: int = 1,
    distribution: str = "uniform3d",
    topologies: tuple[str, ...] = TOPOLOGIES_3D,
    curves: tuple[str, ...] = PAPER_CURVES_3D,
) -> StudyPlan:
    """Declare the 3D validation grid: every {topology, curve} pairing."""
    trials = ctx.trials if ctx.trials is not None else DEFAULT_TRIALS_3D
    units = tuple(
        ComputeUnit(
            key=(topo, curve),
            fn=study3d_point,
            args=(
                topo,
                curve,
                num_particles,
                order,
                num_processors,
                radius,
                distribution,
                trials,
                ctx.seed,
            ),
        )
        for topo in topologies
        for curve in curves
    )
    return StudyPlan(
        units=units,
        trials=trials,
        seed=ctx.seed,
        meta={"topologies": tuple(topologies), "curves": tuple(curves)},
    )


def collect_study3d(plan: StudyPlan, outputs: list) -> Study3DResult:
    """Assemble the topology x curve matrices from per-pairing outputs."""
    by_key = outputs_by_key(plan, outputs)
    topologies, curves = plan.meta["topologies"], plan.meta["curves"]
    nfi = {t: {c: by_key[(t, c)][0] for c in curves} for t in topologies}
    ffi = {t: {c: by_key[(t, c)][1] for c in curves} for t in topologies}
    return Study3DResult(topologies=topologies, curves=curves, nfi=nfi, ffi=ffi)


def plan_anns3d_study(
    ctx: StudyContext,
    orders: tuple[int, ...] = DEFAULT_ANNS3D_ORDERS,
    curves: tuple[str, ...] = PAPER_CURVES_3D,
    radius: int = 1,
) -> StudyPlan:
    """Declare the 3D ANNS grid: every (curve, order) point."""
    units = tuple(
        ComputeUnit(key=(curve, order), fn=anns3d_point, args=(curve, order, radius))
        for curve in curves
        for order in orders
    )
    return StudyPlan(
        units=units,
        meta={"orders": tuple(orders), "curves": tuple(curves), "radius": radius},
    )


def collect_anns3d_study(plan: StudyPlan, outputs: list) -> Anns3dStudyResult:
    """Assemble the per-curve series in sweep order."""
    by_key = outputs_by_key(plan, outputs)
    orders, curves = plan.meta["orders"], plan.meta["curves"]
    values = {c: [by_key[(c, k)] for k in orders] for c in curves}
    return Anns3dStudyResult(orders=orders, radius=plan.meta["radius"], values=values)


def format_study3d(result: Study3DResult) -> str:
    """Render the 3D study as topology x curve matrices."""
    return "\n\n".join(
        [
            format_matrix(
                result.nfi,
                result.topologies,
                result.curves,
                title="3D validation — NFI ACD",
                row_axis="Topology",
                col_axis="3D SFC",
            ),
            format_matrix(
                result.ffi,
                result.topologies,
                result.curves,
                title="3D validation — FFI ACD",
                row_axis="Topology",
                col_axis="3D SFC",
            ),
        ]
    )


def format_anns3d_study(result: Anns3dStudyResult) -> str:
    """Render the 3D ANNS sweep as a text table."""
    return format_series(
        result.values,
        result.sides(),
        f"3D ANNS (r={result.radius})",
        x_label="cube side",
    )


def _flatten_study3d(result: Study3DResult) -> list[dict]:
    return [
        {"model": model, "topology": topo, "curve": curve, "acd": table[topo][curve]}
        for model, table in (("nfi", result.nfi), ("ffi", result.ffi))
        for topo in result.topologies
        for curve in result.curves
    ]


def _flatten_anns3d(result: Anns3dStudyResult) -> list[dict]:
    return [
        {"curve": curve, "side": 1 << order, "stretch": val}
        for curve in result.values
        for order, val in zip(result.orders, result.values[curve])
    ]


STUDY3D = register_study(
    Study(
        name="validate3d",
        title="3D validation — same-SFC pairings across 3D networks",
        result_type=Study3DResult,
        plan=plan_study3d,
        collect=collect_study3d,
        render=format_study3d,
        schema=ResultSchema(Study3DResult, flatten=_flatten_study3d),
    )
)

ANNS3D_STUDY = register_study(
    Study(
        name="anns3d",
        title="3D ANNS stretch sweep",
        result_type=Anns3dStudyResult,
        plan=plan_anns3d_study,
        collect=collect_anns3d_study,
        render=format_anns3d_study,
        schema=ResultSchema(Anns3dStudyResult, flatten=_flatten_anns3d),
    )
)
