"""Per-run manifest: what ran, how long each phase took, what was reused.

Walker & Skjellum and Reissmann et al. both argue that SFC conclusions
should rest on *measured* data-movement and cost profiles; the
:class:`RunManifest` applies the same discipline to this reproduction
itself.  One JSON document per run — written next to the study outputs
by ``repro-experiments --metrics`` — records:

* the effective :class:`~repro.runtime.RuntimeConfig` and experiment
  seed/scale,
* per-study, per-phase wall time (plan / store lookup / campaign /
  compute / collect), distilled from the recorder's span tree,
* every counter and gauge: cache hits/misses/evictions, store resume
  hits, events generated vs. reused, messages routed, and
* worker utilisation (pool busy-seconds over ``jobs x`` wall time).

A warm-store rerun is *provable* from the manifest alone:
``counters["campaign.trials"] == 0`` and ``studies[...].store_hits ==
units`` — no log diffing required (the CI studies-smoke job asserts
exactly that).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.obs.recorder import Recorder, Span

__all__ = ["RunManifest", "MANIFEST_SCHEMA_VERSION"]

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1

#: ``run_study`` phase spans surfaced as first-class per-study timings.
STUDY_PHASES: tuple[str, ...] = ("plan", "store.lookup", "campaign", "compute", "collect")


def _span_total(parent: Span, name: str) -> float | None:
    """Summed duration of ``parent``'s direct children called ``name``."""
    matches = [c.duration for c in parent.children if c.name == name and c.duration is not None]
    return round(sum(matches), 6) if matches else None


def _study_entries(recorder: Recorder) -> dict[str, dict[str, Any]]:
    """Per-study wall time and phase breakdown from the span tree."""
    studies: dict[str, dict[str, Any]] = {}
    for node in recorder.find_spans("study"):
        name = str(node.attrs.get("study", "?"))
        phases = {p: _span_total(node, p) for p in STUDY_PHASES}
        entry: dict[str, Any] = {
            "wall_s": round(node.duration, 6) if node.duration is not None else None,
            "phases": {p: d for p, d in phases.items() if d is not None},
        }
        for attr in ("units", "store_hits", "store_misses"):
            if attr in node.attrs:
                entry[attr] = node.attrs[attr]
        if name in studies:  # same study run twice: keep the latest pass
            studies[f"{name}#{sum(k.startswith(name) for k in studies)}"] = entry
        else:
            studies[name] = entry
    return studies


def _worker_stats(recorder: Recorder) -> dict[str, Any]:
    """Pool utilisation from the fan-out counters (see ``execute_units``)."""
    counters, gauges = recorder.counters, recorder.gauges
    busy = float(counters.get("pool.busy_s", 0.0)) + float(counters.get("units.busy_s", 0.0))
    wall = float(counters.get("pool.wall_s", 0.0))
    jobs = int(gauges.get("pool.jobs", 1))
    stats: dict[str, Any] = {
        "jobs": jobs,
        "parallel_units": int(counters.get("pool.units", 0)),
        "serial_units": int(counters.get("units.serial", 0)),
        "busy_s": round(busy, 6),
    }
    if wall > 0 and jobs > 0:
        stats["pool_wall_s"] = round(wall, 6)
        stats["utilization"] = round(
            min(1.0, float(counters.get("pool.busy_s", 0.0)) / (wall * jobs)), 4
        )
    return stats


#: Fault-tolerance counters surfaced as a first-class manifest section:
#: how often the pool broke and was rebuilt, and how many units were
#: retried, timed out or finished in degraded-serial mode.
_RESILIENCE_COUNTERS: dict[str, str] = {
    "pool.broken": "pool_broken",
    "pool.rebuilds": "pool_rebuilds",
    "units.retries": "retries",
    "units.timeouts": "timeouts",
    "units.degraded_serial": "degraded_serial",
    "store.corrupt": "store_corrupt",
}


def _resilience(counters: Mapping[str, int | float]) -> dict[str, int]:
    """Fault/recovery profile of the run (empty when nothing went wrong)."""
    return {
        label: int(counters[name])
        for name, label in _RESILIENCE_COUNTERS.items()
        if name in counters
    }


def _service_section(counters: Mapping[str, int | float]) -> dict[str, int]:
    """Query-service lifetime profile (empty when no service ran).

    Distilled from the ``service.*`` counters merged at shutdown:
    requests answered, warm store hits, coalesced joiners (identical
    in-flight requests that shared one computation) and cold
    computations actually executed.
    """
    return {
        name[len("service."):]: int(value)
        for name, value in counters.items()
        if name.startswith("service.")
    }


def _dynamics_section(counters: Mapping[str, int | float]) -> dict[str, int]:
    """Time-evolution profile (empty when no dynamic study ran).

    Distilled from the ``dynamics.*`` counters: evolution steps
    evaluated, particles that changed owner between consecutive frames
    (``migrated``), and curve re-sorts performed (``resorts``).
    """
    return {
        name[len("dynamics."):]: int(value)
        for name, value in counters.items()
        if name.startswith("dynamics.")
    }


def _cache_sections(counters: Mapping[str, int | float]) -> dict[str, dict[str, int | float]]:
    """Group dotted counters into per-subsystem cache sections.

    Counters are the cross-process truth (worker deltas are merged into
    the parent), unlike the in-process ``.stats`` of any one cache
    object.
    """
    sections: dict[str, dict[str, int | float]] = {}
    for prefix in ("topo_cache", "event_cache", "store", "events"):
        section = {
            name[len(prefix) + 1:]: value
            for name, value in counters.items()
            if name.startswith(prefix + ".")
        }
        if section:
            sections[prefix] = section
    return sections


@dataclass(frozen=True)
class RunManifest:
    """One run's observable profile, JSON-serialisable.

    Build with :meth:`from_recorder` at the end of a recorded run;
    persist with :meth:`write` (atomic) and reload with :meth:`load`.
    """

    schema: int = MANIFEST_SCHEMA_VERSION
    created: str = ""
    command: list[str] | None = None
    config: dict[str, Any] = field(default_factory=dict)
    scale: str | None = None
    seed: Any = None
    studies: dict[str, dict[str, Any]] = field(default_factory=dict)
    counters: dict[str, int | float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    caches: dict[str, dict[str, int | float]] = field(default_factory=dict)
    workers: dict[str, Any] = field(default_factory=dict)
    resilience: dict[str, int] = field(default_factory=dict)
    service: dict[str, int] = field(default_factory=dict)
    dynamics: dict[str, int] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_recorder(
        cls,
        recorder: Recorder,
        *,
        config: Mapping[str, Any] | None = None,
        scale: str | None = None,
        seed: Any = None,
        command: list[str] | None = None,
    ) -> "RunManifest":
        """Distil a finished recorder into a manifest."""
        snap = recorder.snapshot()
        return cls(
            created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            command=list(command) if command is not None else None,
            config=dict(config) if config is not None else {},
            scale=scale,
            seed=seed,
            studies=_study_entries(recorder),
            counters=snap["counters"],
            gauges=snap["gauges"],
            caches=_cache_sections(snap["counters"]),
            workers=_worker_stats(recorder),
            resilience=_resilience(snap["counters"]),
            service=_service_section(snap["counters"]),
            dynamics=_dynamics_section(snap["counters"]),
            spans=snap["spans"],
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (what :meth:`write` serialises)."""
        return asdict(self)

    def write(self, path: str | Path) -> Path:
        """Write the manifest JSON atomically; returns the final path.

        A directory path receives ``run_manifest.json`` inside it.
        """
        target = Path(path)
        if target.is_dir() or str(path).endswith(("/", "\\")):
            target.mkdir(parents=True, exist_ok=True)
            target = target / "run_manifest.json"
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.to_dict(), handle, indent=2, sort_keys=True, default=str)
                handle.write("\n")
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        return target

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """Read a manifest back from disk."""
        data = json.loads(Path(path).read_text())
        known = {f for f in cls.__dataclass_fields__}  # tolerate newer writers
        return cls(**{k: v for k, v in data.items() if k in known})
