"""Experiment harness: one registered study per paper table/figure.

Every paper artefact is a :class:`~repro.experiments.study.Study` in the
:data:`~repro.experiments.study.STUDIES` registry.  The stable public
surface is:

* :func:`~repro.experiments.study.run_study` /
  :func:`~repro.experiments.study.list_studies` — execute and discover
  studies by name (``run_study("fig6")``);
* :class:`~repro.runtime.RuntimeConfig` /
  :func:`~repro.runtime.configure` — every runtime knob (scale, jobs,
  store, memory budget, fault policy, trace/metrics sinks) in one
  declarative object;
* :class:`~repro.obs.RunManifest` — the per-run observability document.

Custom parameters go through the exported ``plan_*`` builders:
``run_study("tables", ctx, plan=plan_sfc_pairs(ctx, parts=("nfi",)))``.
"""

from repro.faults import FaultPlan, InjectedFault, parse_faults
from repro.obs import RunManifest
from repro.runtime import RuntimeConfig, configure, runtime_config

from repro.experiments.ablation import (
    ABLATION_STUDIES,
    AblationResult,
    AblationRow,
    continuity_ablation,
    ffi_granularity_ablation,
    format_ablation,
    hypercube_layout_ablation,
    interpolation_reading_ablation,
    quadtree_convention_ablation,
)
from repro.experiments.anns_study import (
    AnnsStudyResult,
    format_anns_study,
    plan_anns_study,
)
from repro.experiments.clustering_study import (
    ClusteringStudyResult,
    format_clustering_study,
    plan_clustering_study,
)
from repro.experiments.artifacts import (
    EventArtifactCache,
    TrialArtifact,
    build_trial_artifact,
    evaluate_artifact,
    get_event_cache,
    get_trial_artifact,
    set_event_cache,
)
from repro.experiments.campaign import (
    case_groups,
    expand_grid,
    format_campaign,
    iter_campaign,
    run_campaign,
)
from repro.experiments.config import (
    EVALUATION_FIELDS,
    INSTANCE_FIELDS,
    PAPER,
    SCALES,
    SMALL,
    FmmCase,
    Scale,
    active_scale,
)
from repro.experiments.dynamics_study import (
    DYNAMIC_GRID,
    DYNAMIC_OBJECTIVES,
    DYNAMIC_TOPOLOGIES,
    DynamicStudyResult,
    evaluate_dynamic_step,
    format_dynamic_study,
    plan_dynamic_study,
)
from repro.experiments.io import load_result, result_to_csv_rows, save_result, write_csv
from repro.experiments.metric_studies import (
    METRIC_TOPOLOGIES,
    CommunicationMetricResult,
    SurfaceVolumeStudyResult,
    evaluate_communication_metric,
    evaluate_partition_metric,
    format_communication_metric,
    format_surface_volume_study,
    plan_data_volume_study,
    plan_energy_study,
    plan_surface_volume_study,
)
from repro.experiments.parametric import (
    SweepResult,
    format_sweep,
    plan_distribution_sweep,
    plan_input_size_sweep,
    plan_radius_sweep,
)
from repro.experiments.reporting import format_matrix, format_rows, format_series
from repro.experiments.runner import (
    CaseResult,
    ExecutionPolicy,
    UnitFailedError,
    UnitTimeoutError,
    execute_units,
)
from repro.experiments.scaling_study import (
    ScalingStudyResult,
    format_scaling_study,
    plan_scaling_study,
)
from repro.experiments.sfc_pairs import (
    SfcPairsResult,
    format_sfc_pairs,
    plan_sfc_pairs,
)
from repro.experiments.backends import (
    DirectoryBackend,
    SqliteBackend,
    StoreBackend,
    open_backend,
)
from repro.experiments.store import (
    MISS,
    STORE_SCHEMA_VERSION,
    ResultStore,
    default_store,
    open_store,
    register_store_codec,
)
from repro.experiments.study import (
    STUDIES,
    ComputeUnit,
    FmmUnit,
    Study,
    StudyContext,
    StudyPlan,
    get_study,
    list_studies,
    register_study,
    run_study,
    study_names,
)
from repro.experiments.study3d import (
    PAPER_CURVES_3D,
    Anns3dStudyResult,
    Study3DResult,
    format_anns3d_study,
    format_study3d,
    plan_anns3d_study,
    plan_study3d,
)
from repro.experiments.topology_study import (
    TopologyStudyResult,
    format_topology_study,
    plan_topology_study,
)
from repro.metrics.registry import METRICS, get_metric, list_metrics, metric_names

__all__ = [
    "RunManifest",
    "RuntimeConfig",
    "configure",
    "runtime_config",
    "list_studies",
    "FmmCase",
    "Scale",
    "SMALL",
    "PAPER",
    "SCALES",
    "active_scale",
    "CaseResult",
    "ExecutionPolicy",
    "UnitFailedError",
    "UnitTimeoutError",
    "execute_units",
    "FaultPlan",
    "InjectedFault",
    "parse_faults",
    "AnnsStudyResult",
    "format_anns_study",
    "SfcPairsResult",
    "format_sfc_pairs",
    "TopologyStudyResult",
    "format_topology_study",
    "ScalingStudyResult",
    "format_scaling_study",
    "SweepResult",
    "format_sweep",
    "format_matrix",
    "format_series",
    "format_rows",
    "AblationRow",
    "quadtree_convention_ablation",
    "ffi_granularity_ablation",
    "interpolation_reading_ablation",
    "hypercube_layout_ablation",
    "continuity_ablation",
    "PAPER_CURVES_3D",
    "Study3DResult",
    "format_study3d",
    "save_result",
    "load_result",
    "result_to_csv_rows",
    "write_csv",
    "ClusteringStudyResult",
    "format_clustering_study",
    "METRICS",
    "get_metric",
    "list_metrics",
    "metric_names",
    "METRIC_TOPOLOGIES",
    "DYNAMIC_GRID",
    "DYNAMIC_OBJECTIVES",
    "DYNAMIC_TOPOLOGIES",
    "DynamicStudyResult",
    "evaluate_dynamic_step",
    "format_dynamic_study",
    "plan_dynamic_study",
    "CommunicationMetricResult",
    "SurfaceVolumeStudyResult",
    "evaluate_communication_metric",
    "evaluate_partition_metric",
    "format_communication_metric",
    "format_surface_volume_study",
    "expand_grid",
    "run_campaign",
    "iter_campaign",
    "format_campaign",
    "case_groups",
    "Study",
    "StudyContext",
    "StudyPlan",
    "FmmUnit",
    "ComputeUnit",
    "STUDIES",
    "register_study",
    "get_study",
    "study_names",
    "run_study",
    "plan_anns_study",
    "plan_anns3d_study",
    "plan_clustering_study",
    "plan_data_volume_study",
    "plan_distribution_sweep",
    "plan_energy_study",
    "plan_input_size_sweep",
    "plan_radius_sweep",
    "plan_scaling_study",
    "plan_sfc_pairs",
    "plan_study3d",
    "plan_surface_volume_study",
    "plan_topology_study",
    "ResultStore",
    "StoreBackend",
    "DirectoryBackend",
    "SqliteBackend",
    "open_backend",
    "open_store",
    "default_store",
    "register_store_codec",
    "MISS",
    "STORE_SCHEMA_VERSION",
    "AblationResult",
    "ABLATION_STUDIES",
    "format_ablation",
    "Anns3dStudyResult",
    "format_anns3d_study",
    "INSTANCE_FIELDS",
    "EVALUATION_FIELDS",
    "TrialArtifact",
    "EventArtifactCache",
    "build_trial_artifact",
    "get_trial_artifact",
    "evaluate_artifact",
    "get_event_cache",
    "set_event_cache",
]
