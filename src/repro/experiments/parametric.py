"""§VI-C parametric studies: radius, input size and distribution sweeps.

The text of §VI-C reports three observations beyond Fig. 7:

* increasing the near-field radius raises all ACDs proportionately and
  never reorders the curves;
* growing the particle count (fixed processors) preserves the ordering
  while amplifying the row-major penalty;
* across distributions the NFI ACD is best for uniform, then
  exponential, then normal, while the FFI ACD is largely insensitive.

Each sweep is a registered study sharing one :class:`SweepResult`
reducer; a ``(value, curve)`` grid point is one declared unit, so the
campaign engine shares event generation across points with equal
instance keys (e.g. every radius of a curve reuses the same particle
assignment) and fans the grid out over ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributions.registry import PAPER_DISTRIBUTIONS
from repro.experiments.config import FmmCase, Scale
from repro.experiments.io import ResultSchema
from repro.experiments.reporting import format_series
from repro.experiments.study import (
    FmmUnit,
    Study,
    StudyContext,
    StudyPlan,
    outputs_by_key,
    register_study,
)
from repro.sfc.registry import PAPER_CURVES

__all__ = [
    "SweepResult",
    "RADIUS_SWEEP_STUDY",
    "INPUT_SIZE_SWEEP_STUDY",
    "DISTRIBUTION_SWEEP_STUDY",
    "format_sweep",
]

#: Default sweep axes (§VI-C text).
DEFAULT_RADII: tuple[int, ...] = (1, 2, 4, 6)
DEFAULT_FRACTIONS: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class SweepResult:
    """ACD series per curve over a one-dimensional parameter sweep."""

    parameter: str
    values: tuple[object, ...]
    curves: tuple[str, ...]
    nfi: dict[str, list[float]]
    ffi: dict[str, list[float]]


def _sweep_plan(
    ctx: StudyContext,
    parameter: str,
    values: tuple[object, ...],
    case_for,
    curves: tuple[str, ...],
) -> StudyPlan:
    preset = ctx.preset()
    units = tuple(
        FmmUnit(key=(value, curve), case=case_for(preset, value, curve))
        for value in values
        for curve in curves
    )
    return StudyPlan(
        units=units,
        trials=preset.resolve_trials(ctx.trials),
        seed=ctx.seed,
        meta={"parameter": parameter, "values": values, "curves": tuple(curves)},
    )


def collect_sweep(plan: StudyPlan, outputs: list) -> SweepResult:
    """Assemble the per-curve series in sweep order (shared by all sweeps)."""
    by_key = outputs_by_key(plan, outputs)
    values, curves = plan.meta["values"], plan.meta["curves"]
    nfi = {c: [by_key[(v, c)].nfi_acd for v in values] for c in curves}
    ffi = {c: [by_key[(v, c)].ffi_acd for v in values] for c in curves}
    return SweepResult(
        parameter=plan.meta["parameter"], values=values, curves=curves, nfi=nfi, ffi=ffi
    )


def _torus_case(preset: Scale, *, n=None, radius=1, distribution="uniform", curve):
    return FmmCase(
        num_particles=int(n) if n is not None else preset.pairs_particles,
        order=preset.pairs_order,
        num_processors=preset.pairs_processors,
        topology="torus",
        particle_curve=curve,
        processor_curve=curve,
        distribution=distribution,
        radius=int(radius),
    )


def plan_radius_sweep(
    ctx: StudyContext,
    radii: tuple[int, ...] = DEFAULT_RADII,
    curves: tuple[str, ...] = PAPER_CURVES,
) -> StudyPlan:
    """Near-field radius sweep on the torus (fixed uniform input)."""
    return _sweep_plan(
        ctx,
        "radius",
        tuple(radii),
        lambda preset, radius, curve: _torus_case(preset, radius=radius, curve=curve),
        curves,
    )


def plan_input_size_sweep(
    ctx: StudyContext,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    curves: tuple[str, ...] = PAPER_CURVES,
) -> StudyPlan:
    """Particle-count sweep (multiples of the preset size) on the torus."""
    preset = ctx.preset()
    cells = 4**preset.pairs_order
    sizes = tuple(min(int(preset.pairs_particles * f), cells // 2) for f in fractions)
    return _sweep_plan(
        ctx,
        "num_particles",
        sizes,
        lambda preset, n, curve: _torus_case(preset, n=n, curve=curve),
        curves,
    )


def plan_distribution_sweep(
    ctx: StudyContext,
    distributions: tuple[str, ...] = PAPER_DISTRIBUTIONS,
    curves: tuple[str, ...] = PAPER_CURVES,
) -> StudyPlan:
    """Distribution sweep on the torus (fixed size, same-SFC pairing)."""
    return _sweep_plan(
        ctx,
        "distribution",
        tuple(distributions),
        lambda preset, dist, curve: _torus_case(preset, distribution=str(dist), curve=curve),
        curves,
    )


def format_sweep(result: SweepResult) -> str:
    """Render NFI and FFI panels of a sweep as text tables."""
    return "\n\n".join(
        [
            format_series(
                result.nfi, result.values, f"NFI ACD vs {result.parameter}", result.parameter
            ),
            format_series(
                result.ffi, result.values, f"FFI ACD vs {result.parameter}", result.parameter
            ),
        ]
    )


def _flatten(result: SweepResult) -> list[dict]:
    return [
        {"model": model, "curve": curve, result.parameter: value, "acd": val}
        for model, table in (("nfi", result.nfi), ("ffi", result.ffi))
        for curve in result.curves
        for value, val in zip(result.values, table[curve])
    ]


_SWEEP_SCHEMA = ResultSchema(SweepResult, flatten=_flatten)

RADIUS_SWEEP_STUDY = register_study(
    Study(
        name="sweep_radius",
        title="§VI-C — ACD vs near-field radius",
        result_type=SweepResult,
        plan=plan_radius_sweep,
        collect=collect_sweep,
        render=format_sweep,
        schema=_SWEEP_SCHEMA,
    )
)

INPUT_SIZE_SWEEP_STUDY = register_study(
    Study(
        name="sweep_input_size",
        title="§VI-C — ACD vs input size",
        result_type=SweepResult,
        plan=plan_input_size_sweep,
        collect=collect_sweep,
        render=format_sweep,
        schema=_SWEEP_SCHEMA,
    )
)

DISTRIBUTION_SWEEP_STUDY = register_study(
    Study(
        name="sweep_distribution",
        title="§VI-C — ACD vs input distribution",
        result_type=SweepResult,
        plan=plan_distribution_sweep,
        collect=collect_sweep,
        render=format_sweep,
        schema=_SWEEP_SCHEMA,
    )
)
