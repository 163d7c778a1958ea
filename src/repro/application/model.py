"""Composable application communication models (§VII made concrete).

§VII of the paper sketches the workflow: "the ACD value can be
calculated for each type of communication, point-to-point, all-to-all,
etc., and these can be combined to predict the performance of the
implementation."  :class:`ApplicationModel` implements exactly that
composition: phases (event multisets with per-timestep repeat counts)
are registered once, then evaluated against any candidate network, and
:func:`recommend_configuration` ranks candidate {topology,
processor-order} configurations by the predicted per-timestep cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.metrics.acd import _DEFAULT_CACHE, compute_acd
from repro.metrics.base import MetricValue
from repro.metrics.registry import METRICS, get_metric
from repro.topology.base import Topology
from repro.topology.cache import TopologyCache

__all__ = ["ApplicationPhase", "ApplicationReport", "ApplicationModel", "recommend_configuration"]


@dataclass(frozen=True)
class ApplicationPhase:
    """One communication phase of an application.

    Attributes
    ----------
    name:
        Label used in reports.
    events:
        The phase's communication multiset (for one execution).
    repeats:
        How many times the phase runs per timestep.
    """

    name: str
    events: CommunicationEvents
    repeats: int = 1

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


@dataclass(frozen=True)
class ApplicationReport:
    """Per-phase and pooled objective value of an application on one network.

    ``phases`` holds one :class:`~repro.metrics.base.MetricValue` per
    phase (for the default ``"acd"`` objective its ``total`` is the hop
    distance moved and its ``mean`` the phase's ACD); values pool with
    exact integer arithmetic.
    """

    phases: dict[str, MetricValue]
    repeats: dict[str, int]
    objective: str = "acd"

    @property
    def total(self) -> MetricValue:
        """All phases pooled, each weighted by its repeat count."""
        value = MetricValue(0, 0)
        for name, result in self.phases.items():
            value = value.merged(result.scaled(self.repeats[name]))
        return value

    @property
    def cost_per_timestep(self) -> int:
        """Total objective cost per timestep — the quantity to minimise."""
        return self.total.total


class ApplicationModel:
    """A named collection of communication phases.

    Phases can be added as ready-made event multisets or as factories
    taking the topology (so rank-count-dependent patterns, e.g. "an
    allreduce over all ranks", adapt to each candidate network).
    """

    def __init__(self, name: str = "application"):
        self.name = name
        self._phases: list[tuple[str, object, int]] = []

    def add_phase(
        self,
        name: str,
        events: CommunicationEvents | Callable[[Topology], CommunicationEvents],
        repeats: int = 1,
    ) -> "ApplicationModel":
        """Register a phase; returns ``self`` for chaining."""
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        if any(existing == name for existing, _, _ in self._phases):
            raise ValueError(f"phase {name!r} already registered")
        self._phases.append((name, events, repeats))
        return self

    @property
    def phase_names(self) -> tuple[str, ...]:
        """Names of the registered phases, in registration order."""
        return tuple(name for name, _, _ in self._phases)

    def evaluate(
        self,
        topology: Topology,
        *,
        objective: str = "acd",
        cache: TopologyCache | None | str = _DEFAULT_CACHE,
    ) -> ApplicationReport:
        """Per-phase objective value of the whole application on one network.

        ``objective`` names any registered *communication* metric
        (:mod:`repro.metrics.registry`); the default is the paper's
        ACD.  ``cache`` is passed through to :func:`~repro.metrics.acd.
        compute_acd` (default: the shared process-wide topology cache;
        ``None`` disables caching).  Non-ACD objectives evaluate the
        compacted phase histograms through the metric protocol, which
        always uses the shared cache.
        """
        if not self._phases:
            raise ValueError("no phases registered")
        objective = METRICS.canonical(objective)
        if objective == "acd":
            metric = None
        else:
            metric = get_metric(objective)
            if metric.kind != "communication":
                raise ValueError(
                    f"objective {objective!r} is a {metric.kind} metric; "
                    "application models need a communication metric"
                )
        results: dict[str, MetricValue] = {}
        repeats: dict[str, int] = {}
        for name, events, reps in self._phases:
            ev = events(topology) if callable(events) else events
            if metric is None:
                results[name] = compute_acd(ev, topology, cache=cache)
            else:
                if isinstance(ev, PairHistogram):
                    histogram = ev
                else:
                    histogram = ev.compact(topology.num_processors)
                results[name] = metric.evaluate(histogram, topology)
            repeats[name] = reps
        return ApplicationReport(phases=results, repeats=repeats, objective=objective)


def recommend_configuration(
    model: ApplicationModel,
    candidates: Mapping[str, Topology] | Iterable[tuple[str, Topology]],
    *,
    objective: str = "acd",
    cache: TopologyCache | None | str = _DEFAULT_CACHE,
) -> list[tuple[str, ApplicationReport]]:
    """Rank candidate networks by predicted per-timestep communication cost.

    Returns ``(label, report)`` pairs sorted best-first by the chosen
    ``objective``'s total cost — the §VII selection rule ("the curve
    that gives rise to the lowest ACD value can then be selected"),
    generalised to any registered communication metric.  ``cache`` is
    passed through to every evaluation, like
    :func:`~repro.metrics.acd.acd_breakdown`.

    An empty ``candidates`` iterable is rejected *before* any
    evaluation runs — an exhausted generator fails fast instead of
    surfacing as a late, confusing error.
    """
    items = list(candidates.items() if isinstance(candidates, Mapping) else candidates)
    if not items:
        raise ValueError("no candidate configurations supplied")
    ranked = [
        (label, model.evaluate(topo, objective=objective, cache=cache))
        for label, topo in items
    ]
    ranked.sort(key=lambda pair: pair[1].cost_per_timestep)
    return ranked
