"""Experiment configuration: cases, scale presets and runtime knobs.

Every study in the paper's evaluation (§V–§VI) is expressed as a set of
:class:`FmmCase` instances plus a :class:`Scale` preset that pins the
workload sizes.  ``PAPER`` uses the exact published parameters;
``SMALL`` keeps the same shape at roughly 16x smaller sizes so the whole
suite runs in seconds (used by tests and default benchmark runs; export
``REPRO_SCALE=paper`` to regenerate the full-size numbers).

The *how* of a run — worker processes, store directory, memory budget,
fault policy, trace/metrics sinks — is the :class:`RuntimeConfig` (re-exported here
from :mod:`repro.runtime`, its import-light home): the ``REPRO_*``
environment variables are its documented defaults, parsed in exactly
one place, and :func:`configure` installs overrides either permanently
or scoped::

    from repro.experiments import configure, run_study

    with configure(jobs=4, store_dir="results/", trace=True):
        run_study("fig6")
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime import RuntimeConfig, configure, runtime_config

__all__ = [
    "FmmCase",
    "INSTANCE_FIELDS",
    "EVALUATION_FIELDS",
    "Scale",
    "SMALL",
    "PAPER",
    "SCALES",
    "active_scale",
    "RuntimeConfig",
    "configure",
    "runtime_config",
]


#: The :class:`FmmCase` fields that determine the generated event stream
#: (particles → assignment → NFI/FFI events).  Two cases agreeing on all
#: of these produce bit-identical events for the same trial seed — the
#: network never enters event generation, only ACD evaluation.
INSTANCE_FIELDS: tuple[str, ...] = (
    "distribution",
    "num_particles",
    "order",
    "particle_curve",
    "num_processors",
    "radius",
    "nfi_metric",
)

#: The fields that determine how a fixed event stream is *evaluated*:
#: the network and its processor-order embedding.
EVALUATION_FIELDS: tuple[str, ...] = ("topology", "num_processors", "processor_curve")


@dataclass(frozen=True)
class FmmCase:
    """One fully specified FMM communication experiment.

    A case factors into an *instance* (the event-generating fields, see
    :data:`INSTANCE_FIELDS`) and an *evaluation* (the network fields,
    see :data:`EVALUATION_FIELDS`); ``num_processors`` belongs to both
    because the particle chunking and the network share the rank space.
    The campaign runner exploits this split to generate events once per
    instance and evaluate them against every network in the grid.
    """

    num_particles: int
    order: int
    num_processors: int
    topology: str
    particle_curve: str
    processor_curve: str
    distribution: str
    radius: int = 1
    nfi_metric: str = "chebyshev"

    def instance_key(self) -> tuple:
        """Hashable key of the event-generating fields."""
        return tuple(getattr(self, f) for f in INSTANCE_FIELDS)

    def evaluation_key(self) -> tuple:
        """Hashable key of the network-evaluation fields."""
        return tuple(getattr(self, f) for f in EVALUATION_FIELDS)

    def describe(self) -> str:
        """Short human-readable summary used in logs and reports."""
        return (
            f"n={self.num_particles} lattice=2^{self.order} p={self.num_processors} "
            f"{self.topology} particle={self.particle_curve} "
            f"processor={self.processor_curve} dist={self.distribution} r={self.radius}"
        )


@dataclass(frozen=True)
class Scale:
    """Workload sizes for every study at one scale.

    Attributes mirror the paper's experimental designs:

    * ``pairs_*`` — Tables I/II (16 SFC combinations x 3 distributions).
    * ``topo_*`` — Fig. 6 (topology comparison, uniform input, r = 4).
    * ``scaling_*`` — Fig. 7 (ACD vs processor count).
    * ``anns_orders`` — Fig. 5 (lattice orders for the stretch study).
    """

    name: str
    pairs_particles: int
    pairs_order: int
    pairs_processors: int
    topo_particles: int
    topo_order: int
    topo_processors: int
    topo_radius: int
    scaling_particles: int
    scaling_order: int
    scaling_processors: tuple[int, ...]
    anns_orders: tuple[int, ...]
    trials: int = 3

    def __post_init__(self):
        if self.pairs_particles > 4**self.pairs_order:
            raise ValueError("pairs study: more particles than lattice cells")
        if self.topo_particles > 4**self.topo_order:
            raise ValueError("topology study: more particles than lattice cells")

    def resolve_trials(self, trials: int | None = None) -> int:
        """An explicit trial count, or this scale's default."""
        return trials if trials is not None else self.trials


SMALL = Scale(
    name="small",
    pairs_particles=20_000,
    pairs_order=8,  # 256 x 256
    pairs_processors=1_024,
    # Fig. 6 shape needs the paper's low occupancy (~6%) and low
    # particles-per-processor (~15); see EXPERIMENTS.md.
    topo_particles=60_000,
    topo_order=10,  # 1024 x 1024
    topo_processors=4_096,
    topo_radius=4,
    scaling_particles=50_000,
    scaling_order=9,
    scaling_processors=(16, 64, 256, 1_024, 4_096),
    anns_orders=tuple(range(1, 8)),  # sides 2 .. 128
    trials=3,
)

PAPER = Scale(
    name="paper",
    pairs_particles=250_000,
    pairs_order=10,  # 1024 x 1024 (Tables I/II)
    pairs_processors=65_536,
    # Fig. 6 does not state the processor count; 65 536 keeps the
    # particles-per-processor ratio of Tables I/II (see EXPERIMENTS.md).
    topo_particles=1_000_000,
    topo_order=12,  # 4096 x 4096 (Fig. 6)
    topo_processors=65_536,
    topo_radius=4,
    scaling_particles=1_000_000,
    scaling_order=11,
    scaling_processors=(64, 256, 1_024, 4_096, 16_384, 65_536),
    anns_orders=tuple(range(1, 10)),  # sides 2 .. 512 (Fig. 5)
    trials=3,
)

SCALES: dict[str, Scale] = {"small": SMALL, "paper": PAPER}


def active_scale(name: str | None = None) -> Scale:
    """Resolve a scale by name, the runtime config (``REPRO_SCALE``), or small."""
    chosen = name or runtime_config().scale
    try:
        return SCALES[chosen.lower()]
    except KeyError:
        source = "" if name else " (REPRO_SCALE)"
        raise ValueError(
            f"unknown scale {chosen!r}{source}; available: {', '.join(SCALES)}"
        ) from None
