"""Trial averaging, job resolution and network memoisation for FMM cases.

"The results presented here are averages over multiple independent
trials for each set of parameters" (§VI).  Trials run through the
grouped campaign engine (:func:`repro.experiments.campaign.run_campaign`),
which draws every trial from NumPy's spawned seed sequences so any
single trial can be re-derived from the experiment seed; this module
holds the pieces it shares with the studies: :func:`aggregate_trials`
pools per-trial aggregates into a :class:`CaseResult`,
:func:`case_topology` memoises each case's network per process, and
:func:`resolve_jobs` picks the worker count.

``jobs`` defaults to the process-wide setting installed by
:func:`set_default_jobs` (the CLI's ``--jobs`` flag) or the
``REPRO_JOBS`` environment variable, falling back to serial execution.
Results are bit-identical for any value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import FmmCase
from repro.experiments.executor import (  # noqa: F401  (re-exported API)
    ExecutionPolicy,
    UnitFailedError,
    UnitTimeoutError,
    execute_units,
    shared_executor,
    shutdown_shared_executor,
)
from repro.metrics.base import MetricValue
from repro.runtime import runtime_config
from repro.topology.base import Topology
from repro.topology.registry import make_topology

__all__ = [
    "CaseResult",
    "aggregate_trials",
    "set_default_jobs",
    "resolve_jobs",
    "execute_units",
    "ExecutionPolicy",
    "UnitFailedError",
    "UnitTimeoutError",
    "shared_executor",
    "shutdown_shared_executor",
]

_default_jobs: int | None = None

#: A trial's raw output: the NFI aggregate and the per-phase FFI aggregates.
TrialResult = tuple[MetricValue, dict[str, MetricValue]]


def set_default_jobs(jobs: int | None) -> None:
    """Install a process-wide default for the ``jobs`` arguments.

    ``None`` restores the built-in behaviour (serial unless the
    ``REPRO_JOBS`` environment variable is set).  Worker processes never
    inherit this setting, so nested parallelism cannot occur.
    """
    global _default_jobs
    if jobs is not None and int(jobs) < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _default_jobs = None if jobs is None else int(jobs)


def resolve_jobs(jobs: int | None) -> int:
    """Resolve an explicit ``jobs`` argument against the defaults."""
    if jobs is not None:
        if int(jobs) < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        return int(jobs)
    if _default_jobs is not None:
        return _default_jobs
    configured = runtime_config().jobs  # REPRO_JOBS parsed in repro.runtime
    return configured if configured is not None else 1


@dataclass(frozen=True)
class CaseResult:
    """Trial-averaged ACD values for one experiment case."""

    case: FmmCase
    trials: int
    nfi_acd: float
    nfi_acd_std: float
    ffi_acd: float
    ffi_acd_std: float
    ffi_phases: dict[str, float]
    nfi_events: float
    ffi_events: float

    def row(self) -> dict[str, object]:
        """Flat mapping for tabular reporting / serialisation."""
        return {
            "topology": self.case.topology,
            "particle_curve": self.case.particle_curve,
            "processor_curve": self.case.processor_curve,
            "distribution": self.case.distribution,
            "num_particles": self.case.num_particles,
            "num_processors": self.case.num_processors,
            "radius": self.case.radius,
            "nfi_acd": self.nfi_acd,
            "ffi_acd": self.ffi_acd,
        }


# Worker processes rebuild the (deterministic) network once per distinct
# evaluation key rather than once per trial.
_worker_topologies: dict[tuple, Topology] = {}


def case_topology(case: FmmCase) -> Topology:
    """The case's network, memoised per process by evaluation key."""
    key = case.evaluation_key()
    topology = _worker_topologies.get(key)
    if topology is None:
        topology = make_topology(
            case.topology, case.num_processors, processor_curve=case.processor_curve
        )
        _worker_topologies[key] = topology
    return topology


def aggregate_trials(case: FmmCase, outputs: list[TrialResult]) -> CaseResult:
    """Pool per-trial results into the trial-averaged :class:`CaseResult`."""
    trials = len(outputs)
    nfi_vals, ffi_vals = [], []
    nfi_counts, ffi_counts = [], []
    phase_sums: dict[str, float] = {}
    for nfi, ffi in outputs:
        nfi_vals.append(nfi.mean)
        ffi_vals.append(ffi["combined"].mean)
        nfi_counts.append(nfi.count)
        ffi_counts.append(ffi["combined"].count)
        for phase, result in ffi.items():
            phase_sums[phase] = phase_sums.get(phase, 0.0) + result.mean
    return CaseResult(
        case=case,
        trials=trials,
        nfi_acd=float(np.mean(nfi_vals)),
        nfi_acd_std=float(np.std(nfi_vals)),
        ffi_acd=float(np.mean(ffi_vals)),
        ffi_acd_std=float(np.std(ffi_vals)),
        ffi_phases={k: v / trials for k, v in phase_sums.items()},
        nfi_events=float(np.mean(nfi_counts)),
        ffi_events=float(np.mean(ffi_counts)),
    )


def _check_parts(parts: tuple[str, ...]) -> None:
    unknown = set(parts) - {"nfi", "ffi"}
    if unknown or not parts:
        raise ValueError(f"parts must be a non-empty subset of ('nfi', 'ffi'), got {parts}")
