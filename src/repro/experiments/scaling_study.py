"""Fig. 7 — ACD as a function of the processor count (§VI-C).

Fixed uniform input, torus network, same SFC for particle and processor
ordering; the processor count sweeps over powers of four.  Each
``(processor count, curve)`` point is one declared unit; the campaign
engine shares event generation between points with equal instance keys
and fans the sweep out over ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import FmmCase
from repro.experiments.io import ResultSchema
from repro.experiments.reporting import format_series
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

__all__ = [
    "ScalingStudyResult",
    "SCALING_STUDY",
    "format_scaling_study",
]


@dataclass(frozen=True)
class ScalingStudyResult:
    """ACD series per curve across the processor sweep."""

    processor_counts: tuple[int, ...]
    curves: tuple[str, ...]
    #: ``nfi[curve][i]`` = ACD at ``processor_counts[i]`` (``ffi`` alike).
    nfi: dict[str, list[float]]
    ffi: dict[str, list[float]]


def plan_scaling_study(
    ctx: StudyContext,
    curves: tuple[str, ...] = PAPER_CURVES,
    topology: str = "torus",
    distribution: str = "uniform",
) -> StudyPlan:
    """Declare the Fig. 7 grid: every (processor count, curve) point."""
    preset = ctx.preset()
    counts = tuple(preset.scaling_processors)
    units = tuple(
        FmmUnit(
            key=(p, curve),
            case=FmmCase(
                num_particles=preset.scaling_particles,
                order=preset.scaling_order,
                num_processors=p,
                topology=topology,
                particle_curve=curve,
                processor_curve=curve,
                distribution=distribution,
                radius=1,
            ),
        )
        for p in counts
        for curve in curves
    )
    return StudyPlan(
        units=units,
        trials=preset.resolve_trials(ctx.trials),
        seed=ctx.seed,
        meta={"processor_counts": counts, "curves": tuple(curves)},
    )


def collect_scaling_study(plan: StudyPlan, outputs: list) -> ScalingStudyResult:
    """Assemble the per-curve series in sweep order."""
    by_key = outputs_by_key(plan, outputs)
    counts, curves = plan.meta["processor_counts"], plan.meta["curves"]
    nfi = {c: [by_key[(p, c)].nfi_acd for p in counts] for c in curves}
    ffi = {c: [by_key[(p, c)].ffi_acd for p in counts] for c in curves}
    return ScalingStudyResult(
        processor_counts=counts, curves=curves, nfi=nfi, ffi=ffi
    )


def format_scaling_study(result: ScalingStudyResult) -> str:
    """Render both Fig. 7 panels as processor-count series."""
    blocks = [
        format_series(result.nfi, result.processor_counts, "Fig. 7(a) NFI ACD vs processors", "processors"),
        format_series(result.ffi, result.processor_counts, "Fig. 7(b) FFI ACD vs processors", "processors"),
    ]
    return "\n\n".join(blocks)


def _flatten(result: ScalingStudyResult) -> list[dict]:
    return [
        {"model": model, "curve": curve, "processors": p, "acd": val}
        for model, table in (("nfi", result.nfi), ("ffi", result.ffi))
        for curve in result.curves
        for p, val in zip(result.processor_counts, table[curve])
    ]


SCALING_STUDY = register_study(
    Study(
        name="fig7",
        title="Fig. 7 — ACD vs processor count",
        result_type=ScalingStudyResult,
        plan=plan_scaling_study,
        collect=collect_scaling_study,
        render=format_scaling_study,
        schema=ResultSchema(ScalingStudyResult, flatten=_flatten),
    )
)


def main() -> None:  # pragma: no cover - exercised via CLI test
    print(format_scaling_study(run_study(SCALING_STUDY)))


if __name__ == "__main__":  # pragma: no cover
    main()
