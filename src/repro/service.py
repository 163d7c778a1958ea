"""Configuration-recommendation query service over the result store.

The paper's §VII payoff is *configuration selection*: "the curve that
gives rise to the lowest ACD value can then be selected."  At
production scale that selection is a per-deployment *query* — "given
``p`` processors, this particle distribution and this problem size,
which {topology, processor-order} should I run?" — and it only earns
its keep if the answer comes from precomputed results in microseconds,
not a fresh multi-minute campaign per request.

This module is that query layer, built from three pieces:

* :class:`RecommendRequest` — the canonical query: workload fields
  (``num_processors``, ``distribution``, ``num_particles``) plus the
  candidate grid (topologies x processor curves), campaign parameters
  (``trials``/``seed``) and the ranking ``objective`` — any registered
  communication metric (``acd`` by default; ``energy``,
  ``data_volume``, ... — see :mod:`repro.metrics.registry`).  Requests
  lower to the *same* :func:`~repro.experiments.study.store_key`
  content addresses the study driver uses — the objective name is part
  of every non-ACD unit's key — so a store warmed by ``precompute``
  (or by any earlier study run over the same cases) answers requests
  directly.
* :class:`QueryService` — answers requests from the store when warm;
  on a miss it computes exactly the missing cases through the grouped
  campaign engine (:func:`~repro.experiments.campaign.iter_campaign`,
  which fans ``(instance, trial)`` units out through
  ``execute_units``), persisting each case as it completes.  Identical
  in-flight requests **coalesce**: the canonical request key maps to
  one shared computation that every concurrent caller awaits
  (``service.coalesced`` counts the joiners), so a thundering herd of
  the same cold query costs one campaign, not N.
* a stdlib-``asyncio`` HTTP front end (:func:`serve`) with
  ``POST /recommend``, ``GET /healthz``, ``GET /stats`` and
  ``POST /shutdown`` — plus the ``precompute`` command that fills the
  chosen store backend over the whole paper grid and ``store stats``
  for inspecting any backend uniformly.

Every answer carries a per-request manifest section; a warm request
proves its cheapness with ``"campaign.trials": 0``.  Service lifetime
counters (``service.requests/hits/coalesced/computed``) surface in the
:class:`~repro.obs.RunManifest` written at shutdown.

Usage::

    repro-service precompute --store sqlite://results.db --scale small
    repro-service serve --store sqlite://results.db --port 8023
    curl -d '{"num_processors": 4096, "distribution": "uniform",
              "num_particles": 60000}' localhost:8023/recommend
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from dataclasses import dataclass, replace
from http import HTTPStatus
from typing import Any, Mapping, Sequence

from repro import obs
from repro.distributions.registry import PAPER_DISTRIBUTIONS
from repro.errors import UnknownNameError
from repro.experiments.campaign import iter_campaign
from repro.experiments.config import FmmCase, active_scale
from repro.experiments.metric_studies import evaluate_communication_metric
from repro.experiments.runner import execute_units, resolve_jobs
from repro.experiments.store import MISS, ResultStore, canonical_key, open_store
from repro.experiments.study import (
    ComputeUnit,
    FmmUnit,
    StudyPlan,
    execute_compute_unit,
    store_key,
)
from repro.experiments.topology_study import FIG6_TOPOLOGIES
from repro.metrics.registry import METRICS, get_metric
from repro.obs import RunManifest, recording
from repro.runtime import runtime_config
from repro.sfc.registry import PAPER_CURVES
from repro.topology.registry import topology_names

__all__ = [
    "RecommendRequest",
    "QueryService",
    "RequestError",
    "default_order",
    "request_plan",
    "rank_results",
    "serve",
    "precompute",
    "main",
]

#: The candidate networks a request ranks by default (the Fig. 6 set).
DEFAULT_TOPOLOGIES: tuple[str, ...] = FIG6_TOPOLOGIES

#: The paper's three particle distributions (§V).
DEFAULT_DISTRIBUTIONS: tuple[str, ...] = PAPER_DISTRIBUTIONS


class RequestError(ValueError):
    """A recommend request that cannot be served (HTTP 400)."""


def default_order(num_particles: int) -> int:
    """Lattice order for a problem size: <= 25% cell occupancy, min 2^4.

    The paper's workloads keep the lattice sparse (250k particles on a
    1024x1024 lattice is ~24% occupancy); matching that keeps derived
    requests in the regime the published results characterise.
    """
    order = 4
    while 4**order < 4 * num_particles:
        order += 1
    return order


@dataclass(frozen=True)
class RecommendRequest:
    """One canonical "which configuration should I run?" query.

    The workload triple (``num_processors``, ``distribution``,
    ``num_particles``) is required; everything else defaults to the
    paper's conventions (Fig. 6 candidate topologies, the four paper
    curves as processor orders, Hilbert particle order, r = 1).
    ``order`` defaults to the sparsest-paper-like lattice for the
    problem size (:func:`default_order`).

    Two requests with equal payloads coalesce; the payload also seeds
    the store keys, so equality here is exactly "same precomputed
    answer".
    """

    num_processors: int
    distribution: str
    num_particles: int
    order: int = 0  # 0 -> derived from num_particles in __post_init__
    radius: int = 1
    particle_curve: str = "hilbert"
    topologies: tuple[str, ...] = DEFAULT_TOPOLOGIES
    curves: tuple[str, ...] = PAPER_CURVES
    trials: int = 1
    seed: int = 2013
    #: The objective to rank by: any registered *communication* metric
    #: (see :mod:`repro.metrics.registry`).  Stored canonically so two
    #: spellings of the same objective coalesce and share store keys.
    objective: str = "acd"

    def __post_init__(self):
        try:
            object.__setattr__(self, "objective", METRICS.canonical(self.objective))
        except UnknownNameError:
            raise RequestError(
                f"unknown objective {self.objective!r}; registered: "
                f"{', '.join(sorted(METRICS.names()))}"
            ) from None
        engine = get_metric(self.objective)
        if engine.kind != "communication":
            raise RequestError(
                f"objective {self.objective!r} is a {engine.kind} metric; "
                "/recommend ranks communication objectives"
            )
        if self.order == 0:
            object.__setattr__(self, "order", default_order(self.num_particles))
        if self.num_particles < 1:
            raise RequestError(f"num_particles must be >= 1, got {self.num_particles}")
        p = self.num_processors
        if p < 4 or p & (p - 1) or (p.bit_length() - 1) % 2:
            # Mesh/torus need a square side, quadtree a power of four,
            # hypercube a power of two: powers of four satisfy all.
            raise RequestError(f"num_processors must be a power of four >= 4, got {p}")
        if self.num_particles > 4**self.order:
            raise RequestError(
                f"{self.num_particles} particles exceed the 2^{self.order} "
                f"lattice's {4**self.order} cells"
            )
        if self.trials < 1:
            raise RequestError(f"trials must be >= 1, got {self.trials}")
        if not self.topologies or not self.curves:
            raise RequestError("topologies and curves must be non-empty")
        known = set(topology_names())
        for name in self.topologies:
            if name not in known:
                raise RequestError(
                    f"unknown topology {name!r}; known: {', '.join(sorted(known))}"
                )

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RecommendRequest":
        """Build a request from a JSON body, rejecting unknown fields."""
        if not isinstance(payload, Mapping):
            raise RequestError("request body must be a JSON object")
        fields = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(payload) - fields
        if unknown:
            raise RequestError(f"unknown request fields: {', '.join(sorted(unknown))}")
        missing = {"num_processors", "distribution", "num_particles"} - set(payload)
        if missing:
            raise RequestError(f"missing request fields: {', '.join(sorted(missing))}")
        kwargs = dict(payload)
        for name in ("topologies", "curves"):
            if name in kwargs:
                value = kwargs[name]
                if isinstance(value, str) or not isinstance(value, Sequence):
                    raise RequestError(f"{name} must be a list of names")
                kwargs[name] = tuple(value)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise RequestError(str(exc)) from None

    def payload(self) -> dict[str, Any]:
        """JSON-able identity of the request (the coalescing key)."""
        return {
            "num_processors": self.num_processors,
            "distribution": self.distribution,
            "num_particles": self.num_particles,
            "order": self.order,
            "radius": self.radius,
            "particle_curve": self.particle_curve,
            "topologies": list(self.topologies),
            "curves": list(self.curves),
            "trials": self.trials,
            "seed": self.seed,
            "objective": self.objective,
        }

    def canonical(self) -> str:
        """Canonical JSON text of the payload (coalescing map key)."""
        return canonical_key(self.payload())


def request_plan(request: RecommendRequest) -> StudyPlan:
    """Lower a request to a study plan over its candidate grid.

    One unit per (topology, processor-curve) pair.  The default
    ``"acd"`` objective lowers to :class:`~repro.experiments.study.
    FmmUnit`\\ s: every case shares the instance fields, so a cold
    request generates each trial's events exactly once and evaluates
    them against all candidate networks — and :func:`~repro.experiments.
    study.store_key` gives each unit the same content address a study
    over the same case would use.  Any other objective lowers to
    :class:`~repro.experiments.study.ComputeUnit`\\ s over
    :func:`~repro.experiments.metric_studies.
    evaluate_communication_metric`, whose keyword arguments — metric
    name included — form the store key, so per-objective results never
    collide and stay addressable by the metric studies.
    """
    if request.objective == "acd":
        units: tuple[FmmUnit | ComputeUnit, ...] = tuple(
            FmmUnit(
                key=(topology, curve),
                case=FmmCase(
                    num_particles=request.num_particles,
                    order=request.order,
                    num_processors=request.num_processors,
                    topology=topology,
                    particle_curve=request.particle_curve,
                    processor_curve=curve,
                    distribution=request.distribution,
                    radius=request.radius,
                ),
            )
            for topology in request.topologies
            for curve in request.curves
        )
    else:
        units = tuple(
            ComputeUnit(
                key=(topology, curve),
                fn=evaluate_communication_metric,
                kwargs=(
                    ("metric", request.objective),
                    (
                        "case",
                        {
                            "num_particles": request.num_particles,
                            "order": request.order,
                            "num_processors": request.num_processors,
                            "topology": topology,
                            "particle_curve": request.particle_curve,
                            "processor_curve": curve,
                            "distribution": request.distribution,
                            "radius": request.radius,
                        },
                    ),
                    ("trials", request.trials),
                    ("seed", request.seed),
                ),
            )
            for topology in request.topologies
            for curve in request.curves
        )
    return StudyPlan(units=units, trials=request.trials, seed=request.seed)


def rank_results(plan: StudyPlan, outputs: Sequence[Any]) -> list[dict[str, Any]]:
    """Rank candidate configurations best-first by predicted cost.

    The §VII selection rule generalised to any objective: total cost
    per case, ascending, with (topology, curve) as the deterministic
    tie-break.  For the ``"acd"`` objective that total is the weighted
    hop count (``nfi_acd * nfi_events + ffi_acd * ffi_events``); other
    objectives report the metric's own exact integer totals (energy
    units, bytes, ...) with per-event means alongside.
    """
    entries = []
    for unit, result in zip(plan.units, outputs):
        topology, curve = unit.key
        if isinstance(result, Mapping):  # metric-objective ComputeUnit output
            score = result["nfi"]["total"] + result["ffi"]["total"]
            entries.append(
                {
                    "topology": topology,
                    "processor_curve": curve,
                    "score": score,
                    "nfi_mean": result["nfi"]["mean"],
                    "ffi_mean": result["ffi"]["mean"],
                }
            )
            continue
        score = result.nfi_acd * result.nfi_events + result.ffi_acd * result.ffi_events
        entries.append(
            {
                "topology": topology,
                "processor_curve": curve,
                "score": score,
                "nfi_acd": result.nfi_acd,
                "ffi_acd": result.ffi_acd,
            }
        )
    entries.sort(key=lambda e: (e["score"], e["topology"], e["processor_curve"]))
    for rank, entry in enumerate(entries, start=1):
        entry["rank"] = rank
    return entries


class QueryService:
    """Store-first request answering with in-flight coalescing.

    The service owns no event loop — :meth:`recommend` is a coroutine
    the HTTP front end (or a test) drives.  Lifetime counters live in
    :attr:`counters` (plain ints, merged into the shutdown manifest);
    each response additionally carries its own exact manifest section.

    Concurrency model: coalescing and counter updates happen on the
    event loop (single-threaded, no awaits between check and insert, so
    the in-flight map is race-free); actual campaign computation runs
    in a worker thread, serialized by a lock so each computation's
    fresh recorder observes only its own ``campaign.trials``.
    """

    def __init__(self, store: ResultStore | None, *, jobs: int | None = None):
        self.store = store
        self.jobs = jobs
        self.counters: dict[str, int] = {
            "service.requests": 0,
            "service.hits": 0,
            "service.coalesced": 0,
            "service.computed": 0,
        }
        self._inflight: dict[str, asyncio.Task] = {}
        self._compute_lock = asyncio.Lock()
        #: Bound HTTP port, published by :func:`serve` (useful with port=0).
        self.port: int | None = None

    async def recommend(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Answer one request, joining an identical in-flight one if any."""
        request = RecommendRequest.from_payload(payload)
        key = request.canonical()
        self.counters["service.requests"] += 1
        task = self._inflight.get(key)
        if task is not None:
            self.counters["service.coalesced"] += 1
            return await asyncio.shield(task)
        task = asyncio.create_task(self._answer(request))
        self._inflight[key] = task
        try:
            return await task
        finally:
            del self._inflight[key]

    async def _answer(self, request: RecommendRequest) -> dict[str, Any]:
        with obs.span("service.request", distribution=request.distribution):
            plan = request_plan(request)
            keys = [store_key(unit, plan) for unit in plan.units]
            if self.store is not None:
                outputs = [self.store.get(k) if k is not None else MISS for k in keys]
            else:
                outputs = [MISS] * len(keys)
            missing = [i for i, out in enumerate(outputs) if out is MISS]
            if not missing:
                self.counters["service.hits"] += 1
                section = {
                    "campaign.trials": 0,
                    "cases": len(outputs),
                    "store.hits": len(outputs),
                    "store.misses": 0,
                }
                return self._respond(request, plan, outputs, "store", section)
            self.counters["service.computed"] += 1
            async with self._compute_lock:
                section = await asyncio.to_thread(
                    self._compute, plan, keys, outputs, missing
                )
            return self._respond(request, plan, outputs, "computed", section)

    def _compute(
        self,
        plan: StudyPlan,
        keys: list[Any],
        outputs: list[Any],
        missing: list[int],
    ) -> dict[str, Any]:
        """Run the missing cases (worker thread, serialized by the lock).

        A fresh recorder scopes the campaign counters to this request,
        so the returned section's ``campaign.trials`` is exactly what
        this computation executed; cases persist as they complete, so
        even an aborted request leaves its finished cases warm.
        ``"acd"`` requests run through the grouped campaign engine;
        metric objectives fan their compute units out over the same
        worker pool.
        """
        case_idx = [i for i in missing if isinstance(plan.units[i], FmmUnit)]
        comp_idx = [i for i in missing if isinstance(plan.units[i], ComputeUnit)]
        with recording() as rec:
            if case_idx:
                stream = iter_campaign(
                    [plan.units[i].case for i in case_idx],
                    trials=plan.trials,
                    seed=plan.seed,
                    parts=plan.parts,
                    jobs=self.jobs,
                )
                for local, result in stream:
                    i = case_idx[local]
                    outputs[i] = result
                    if self.store is not None and keys[i] is not None:
                        self.store.put(keys[i], result)
            if comp_idx:
                results = execute_units(
                    execute_compute_unit,
                    [(plan.units[i],) for i in comp_idx],
                    resolve_jobs(self.jobs),
                )
                for local, result in results:
                    i = comp_idx[local]
                    outputs[i] = result
                    if self.store is not None and keys[i] is not None:
                        self.store.put(keys[i], result)
        return {
            "campaign.trials": int(rec.counters.get("campaign.trials", 0)),
            "cases": len(outputs),
            "store.hits": len(outputs) - len(missing),
            "store.misses": len(missing),
        }

    def _respond(
        self,
        request: RecommendRequest,
        plan: StudyPlan,
        outputs: Sequence[Any],
        source: str,
        section: dict[str, Any],
    ) -> dict[str, Any]:
        return {
            "request": request.payload(),
            "ranking": rank_results(plan, outputs),
            "source": source,
            "manifest": section,
        }

    def stats(self) -> dict[str, Any]:
        """Lifetime counters plus the backing store's storage profile."""
        out: dict[str, Any] = dict(self.counters)
        if self.store is not None:
            out["store"] = self.store.storage_stats()
        return out


# --------------------------------------------------------------------------
# HTTP front end (stdlib asyncio; one short-lived connection per request)
# --------------------------------------------------------------------------

_MAX_BODY = 1 << 20  # 1 MiB: recommend payloads are tiny


class _LineTooLong(Exception):
    """A request (414) or header (431) line past the reader's 64 KiB limit."""


async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str, bytes]:
    """Parse method, path and body from one HTTP/1.x request."""
    status = 414
    try:
        line = await reader.readline()
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise RequestError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        length = 0
        status = 431
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise RequestError("bad Content-Length") from None
                if length < 0:
                    raise RequestError("bad Content-Length")
    except RequestError:
        raise
    except ValueError:  # readline() past the limit
        raise _LineTooLong(status) from None
    if length > _MAX_BODY:
        raise RequestError("request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, path, body


def _http_response(status: int, payload: dict[str, Any]) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _dispatch(
    service: QueryService,
    shutdown: asyncio.Event,
    method: str,
    path: str,
    body: bytes,
) -> tuple[int, dict[str, Any]]:
    if path == "/healthz":
        return 200, {"status": "ok"}
    if path == "/stats":
        return 200, service.stats()
    if path == "/shutdown":
        shutdown.set()
        return 200, {"status": "shutting down"}
    if path == "/recommend":
        if method not in ("POST", "GET"):
            return 405, {"error": "use POST /recommend"}
        try:
            payload = json.loads(body.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError):
            return 400, {"error": "request body must be JSON"}
        return 200, await service.recommend(payload)
    return 404, {"error": f"unknown path {path!r}"}


async def serve(
    service: QueryService,
    *,
    host: str = "127.0.0.1",
    port: int = 8023,
    ready: "asyncio.Event | None" = None,
) -> None:
    """Serve requests until ``POST /shutdown`` (or cancellation).

    ``ready`` (if given) is set once the socket is listening — tests
    use it to avoid polling.  With ``port=0`` the OS picks a free port;
    the bound address is printed to stderr either way.
    """

    shutdown = asyncio.Event()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            method, path, body = await _read_request(reader)
        except _LineTooLong as exc:
            status = exc.args[0]
            payload = {"error": HTTPStatus(status).phrase}
        except (RequestError, asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        else:
            try:
                status, payload = await _dispatch(service, shutdown, method, path, body)
            except RequestError as exc:
                status, payload = 400, {"error": str(exc)}
            except Exception as exc:  # a failing computation must not kill the server
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        writer.write(_http_response(status, payload))
        try:
            await writer.drain()
        except ConnectionError:
            pass
        writer.close()

    server = await asyncio.start_server(handle, host, port)
    bound = server.sockets[0].getsockname()[1]
    service.port = bound  # published for tests/tools driving port=0
    print(f"repro-service listening on http://{host}:{bound}", file=sys.stderr, flush=True)
    if ready is not None:
        ready.set()
    async with server:
        await shutdown.wait()


# --------------------------------------------------------------------------
# precompute: fill a store over the paper grid
# --------------------------------------------------------------------------


def precompute(
    store: ResultStore,
    *,
    scale: str | None = None,
    num_particles: int | None = None,
    num_processors: int | None = None,
    distributions: Sequence[str] = DEFAULT_DISTRIBUTIONS,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    curves: Sequence[str] = PAPER_CURVES,
    trials: int = 1,
    seed: int = 2013,
    jobs: int | None = None,
    objective: str = "acd",
) -> dict[str, int]:
    """Warm a store over the full recommendation grid.

    Builds, per distribution, the *same* plan a ``/recommend`` request
    for that workload (and ``objective``) would build — so every
    precomputed entry is addressable by the service with zero key
    drift.  Workload size defaults to the active scale's Fig. 6
    parameters.  Already-stored cases are skipped; the grid resumes and
    extends incrementally.
    """
    preset = active_scale(scale)
    n = num_particles if num_particles is not None else preset.topo_particles
    p = num_processors if num_processors is not None else preset.topo_processors
    stats = {"cases": 0, "reused": 0, "computed": 0, "trials": 0}
    base = RecommendRequest(
        num_processors=p,
        distribution=distributions[0],
        num_particles=n,
        topologies=tuple(topologies),
        curves=tuple(curves),
        trials=trials,
        seed=seed,
        objective=objective,
    )
    for distribution in distributions:
        request = replace(base, distribution=distribution)
        plan = request_plan(request)
        keys = [store_key(unit, plan) for unit in plan.units]
        missing = [i for i, k in enumerate(keys) if k is None or store.get(k) is MISS]
        stats["cases"] += len(keys)
        stats["reused"] += len(keys) - len(missing)
        if not missing:
            continue
        case_idx = [i for i in missing if isinstance(plan.units[i], FmmUnit)]
        comp_idx = [i for i in missing if isinstance(plan.units[i], ComputeUnit)]
        with recording() as rec:
            if case_idx:
                stream = iter_campaign(
                    [plan.units[i].case for i in case_idx],
                    trials=plan.trials,
                    seed=plan.seed,
                    parts=plan.parts,
                    jobs=jobs,
                )
                for local, result in stream:
                    i = case_idx[local]
                    if keys[i] is not None:
                        store.put(keys[i], result)
                    stats["computed"] += 1
            if comp_idx:
                results = execute_units(
                    execute_compute_unit,
                    [(plan.units[i],) for i in comp_idx],
                    resolve_jobs(jobs),
                )
                for local, result in results:
                    i = comp_idx[local]
                    if keys[i] is not None:
                        store.put(keys[i], result)
                    stats["computed"] += 1
        stats["trials"] += int(rec.counters.get("campaign.trials", 0))
    return stats


# --------------------------------------------------------------------------
# CLI: repro-service {serve, precompute, store stats}
# --------------------------------------------------------------------------


def _store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="URL",
        help="result store: a directory path or sqlite://path URL "
        "(default: REPRO_STORE env var)",
    )


def _resolve_store(url: str | None, *, required: bool) -> ResultStore | None:
    target = url if url is not None else runtime_config().store_dir
    if target is None:
        if required:
            raise SystemExit("no store configured: pass --store or set REPRO_STORE")
        return None
    return open_store(target)


def _run_serve(args: argparse.Namespace) -> int:
    store = _resolve_store(args.store, required=False)
    service = QueryService(store, jobs=args.jobs)

    async def run() -> None:
        await serve(service, host=args.host, port=args.port)

    with recording() as rec:
        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            pass
    rec.merge_counters(service.counters)
    metrics_path = args.metrics or runtime_config().metrics_path
    if metrics_path:
        manifest = RunManifest.from_recorder(
            rec, config=runtime_config().as_dict(), command=["serve"]
        )
        target = manifest.write(metrics_path)
        print(f"wrote run manifest to {target}", file=sys.stderr)
    return 0


def _run_precompute(args: argparse.Namespace) -> int:
    store = _resolve_store(args.store, required=True)
    assert store is not None
    stats = precompute(
        store,
        scale=args.scale,
        num_particles=args.particles,
        num_processors=args.processors,
        distributions=tuple(args.distributions),
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        objective=args.objective,
    )
    print(
        f"precompute: {stats['cases']} cases "
        f"({stats['reused']} reused, {stats['computed']} computed, "
        f"{stats['trials']} trials) -> {store.backend.kind}:{store.backend.location}"
    )
    return 0


def _run_store_stats(args: argparse.Namespace) -> int:
    store = _resolve_store(args.store, required=True)
    assert store is not None
    stats = store.storage_stats()
    if args.json:
        print(json.dumps(stats, sort_keys=True))
    else:
        width = max(len(k) for k in stats)
        for name, value in stats.items():
            print(f"{name:<{width}}  {value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-service`` (also reachable through
    ``repro-experiments serve|precompute|store``)."""
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Query service and store tooling for SFC configuration selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="serve /recommend over HTTP")
    _store_arg(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8023, help="0 picks a free port")
    p_serve.add_argument("--jobs", type=int, default=None, help="workers for cold requests")
    p_serve.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a RunManifest (with the service section) at shutdown",
    )

    p_pre = sub.add_parser("precompute", help="warm a store over the paper grid")
    _store_arg(p_pre)
    p_pre.add_argument("--scale", default=None, choices=["small", "paper"])
    p_pre.add_argument("--particles", type=int, default=None, help="override workload size")
    p_pre.add_argument(
        "--processors", type=int, default=None, help="override processor count"
    )
    p_pre.add_argument(
        "--distributions",
        nargs="+",
        default=list(DEFAULT_DISTRIBUTIONS),
        metavar="NAME",
    )
    p_pre.add_argument("--trials", type=int, default=1)
    p_pre.add_argument("--seed", type=int, default=2013)
    p_pre.add_argument("--jobs", type=int, default=None)
    p_pre.add_argument(
        "--objective",
        default="acd",
        metavar="NAME",
        help="communication metric to precompute (any registered objective; "
        "default: acd)",
    )

    p_store = sub.add_parser("store", help="inspect a store backend")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_stats = store_sub.add_parser("stats", help="entry count, bytes, schema, quarantine")
    _store_arg(p_stats)
    p_stats.add_argument("--json", action="store_true", help="machine-readable output")

    args = parser.parse_args(argv)
    try:  # a malformed REPRO_* value is a usage error
        runtime_config()
        if args.command == "precompute":
            active_scale(args.scale)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "precompute":
        return _run_precompute(args)
    return _run_store_stats(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
