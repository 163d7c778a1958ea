"""repro — reproduction of *Empirical Analysis of Space-Filling Curves for
Scientific Computing Applications* (DeFord & Kalyanaraman, ICPP 2013).

The package implements the paper's **Average Communicated Distance**
(ACD) metric, the Fast Multipole Method communication model it is
evaluated with, and every substrate the study depends on: four
space-filling curves (plus extensions), six network topologies, three
input distributions, SFC-based particle partitioning, communication
primitives for the generalised metric, and an experiment harness that
regenerates every table and figure of the paper.

Quick start::

    import repro

    particles = repro.get_distribution("uniform").sample(20_000, order=8, rng=42)
    network = repro.make_topology("torus", 1024, processor_curve="hilbert")
    model = repro.FmmCommunicationModel(network, particle_curve="hilbert")
    report = model.evaluate(particles)
    print(report.nfi_acd, report.ffi_acd)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the paper-vs-measured record.
"""

from repro.application import (
    ApplicationModel,
    ApplicationPhase,
    ApplicationReport,
    recommend_configuration,
)
from repro.distributions import (
    ExponentialDistribution,
    NormalDistribution,
    ParticleDistribution,
    Particles,
    UniformDistribution,
    get_distribution,
)
from repro.errors import (
    ConfigurationError,
    ReproError,
    ResolutionError,
    SamplingError,
    TopologySizeError,
    UnknownNameError,
)
from repro.fmm import (
    CommunicationEvents,
    FfiEvents,
    FmmCommunicationModel,
    FmmReport,
    ffi_events,
    nfi_events,
)
from repro.metrics import (
    MetricValue,
    acd_breakdown,
    anns,
    average_clusters,
    compute_acd,
    neighbor_stretch,
)
from repro.partition import Assignment, partition_particles
from repro.sfc import (
    GrayCurve,
    HilbertCurve,
    RowMajorCurve,
    SnakeCurve,
    SpaceFillingCurve,
    ZCurve,
    get_curve,
    get_curve3d,
)
from repro.topology import (
    BusTopology,
    HypercubeTopology,
    MeshTopology,
    QuadtreeTopology,
    RingTopology,
    Topology,
    TorusTopology,
    make_topology,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # curves
    "SpaceFillingCurve",
    "HilbertCurve",
    "ZCurve",
    "GrayCurve",
    "RowMajorCurve",
    "SnakeCurve",
    "get_curve",
    "get_curve3d",
    # topologies
    "Topology",
    "BusTopology",
    "RingTopology",
    "MeshTopology",
    "TorusTopology",
    "QuadtreeTopology",
    "HypercubeTopology",
    "make_topology",
    # distributions & partitioning
    "Particles",
    "ParticleDistribution",
    "UniformDistribution",
    "NormalDistribution",
    "ExponentialDistribution",
    "get_distribution",
    "Assignment",
    "partition_particles",
    # FMM model
    "CommunicationEvents",
    "FfiEvents",
    "FmmCommunicationModel",
    "FmmReport",
    "nfi_events",
    "ffi_events",
    # metrics
    "MetricValue",
    "compute_acd",
    "acd_breakdown",
    "anns",
    "neighbor_stretch",
    "average_clusters",
    # application composition (§VII)
    "ApplicationModel",
    "ApplicationPhase",
    "ApplicationReport",
    "recommend_configuration",
    # errors
    "ReproError",
    "ConfigurationError",
    "ResolutionError",
    "TopologySizeError",
    "SamplingError",
    "UnknownNameError",
]
