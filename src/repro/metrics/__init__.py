"""Evaluation metrics: ACD (the paper's contribution), ANNS, clustering,
plus the pluggable objective registry (energy, data volume, partition
surface-to-volume)."""

from repro.metrics.acd import acd_breakdown, compute_acd
from repro.metrics.anns import (
    StretchResult,
    analytic_anns_gray,
    analytic_anns_rowmajor,
    analytic_anns_zcurve,
    anns,
    neighbor_stretch,
)
from repro.metrics.anns3d import anns3d, neighbor_stretch3d
from repro.metrics.base import CommunicationMetric, Metric, MetricValue, PartitionMetric
from repro.metrics.clustering import average_clusters, cluster_count
from repro.metrics.data_volume import DataVolumeMetric
from repro.metrics.energy import EnergyMetric
from repro.metrics.registry import (
    METRICS,
    AcdMetric,
    get_metric,
    list_metrics,
    metric_names,
)
from repro.metrics.stretch import all_pairs_stretch, max_nearest_neighbor_stretch
from repro.metrics.surface_volume import SurfaceVolumeMetric, partition_surfaces

__all__ = [
    "compute_acd",
    "acd_breakdown",
    "StretchResult",
    "anns",
    "neighbor_stretch",
    "analytic_anns_rowmajor",
    "analytic_anns_zcurve",
    "analytic_anns_gray",
    "anns3d",
    "neighbor_stretch3d",
    "cluster_count",
    "average_clusters",
    "all_pairs_stretch",
    "max_nearest_neighbor_stretch",
    "Metric",
    "MetricValue",
    "CommunicationMetric",
    "PartitionMetric",
    "AcdMetric",
    "EnergyMetric",
    "DataVolumeMetric",
    "SurfaceVolumeMetric",
    "partition_surfaces",
    "METRICS",
    "get_metric",
    "list_metrics",
    "metric_names",
]
