"""Child processes of the end-to-end benchmark (see run.py).

Every command runs in a fresh interpreter, so every process-wide cache
(event artifacts, topology matrices, dynamics memos, the worker pool)
starts empty.  With ``--samples PATH`` the process samples its speed
into PATH from its first statement on (see speed.py); times it reports
are ``time.perf_counter()`` readings, which the parent shares.

``plan WORKLOAD [--store DIR]``
    import ``repro.experiments``, build the study plan, print ``ready``
    (the set-up probe); with a filled store, then replay the study from
    it ``--warm-replays`` times and print one JSON line.
``study WORKLOAD --store DIR``
    one cold ``run_study`` into an empty directory store, print ``cold``
    as soon as it returns, then one warm replay from the store; prints
    one JSON line.
``service-prep --store URL``
    fill an empty SQLite store with ``repro.service.precompute`` (timed)
    and print the expected ranking of each warm request.
``serve --store URL [--cpu N]``
    ``repro-service serve`` on a free port, in this process; with
    ``--cpu``, every thread of the process runs on that CPU only.
``service-trace --store URL``
    host ``serve(QueryService(store))`` in a thread of this process and
    drive it untraced, then traced; prints one JSON line.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

import speed

#: Worker processes per study: only ``dynamic`` runs on the pool.
JOBS = {"tables": 1, "fig6": 1, "dynamic": 2}

#: Seconds-scale stand-ins for the smoke mode.
QUICK_SCALE = dict(
    name="e2e-quick",
    pairs_particles=2_000,
    pairs_order=6,
    pairs_processors=64,
    topo_particles=2_000,
    topo_order=6,
    topo_processors=256,
    topo_radius=2,
    trials=2,
)
QUICK_DYNAMIC = dict(steps=2, num_particles=500, order=6, num_processors=16)


def result_digest(value) -> str:
    """sha256 of a result's canonical JSON (floats at full precision)."""
    tree = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    return hashlib.sha256(json.dumps(tree, sort_keys=True).encode()).hexdigest()


def study_plan(workload: str, seed: int, quick: bool, store=None):
    """The study context and plan a repetition runs."""
    import repro.experiments as ex

    scale = dataclasses.replace(ex.SMALL, **QUICK_SCALE) if quick else ex.SMALL
    ctx = ex.StudyContext(scale=scale, seed=seed, jobs=JOBS[workload], store=store)
    if workload == "tables":
        return ctx, ex.plan_sfc_pairs(ctx)
    if workload == "fig6":
        return ctx, ex.plan_topology_study(ctx)
    return ctx, ex.plan_dynamic_study(ctx, **(QUICK_DYNAMIC if quick else {}))


def peak_rss_mib() -> float:
    """High-water RSS of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cmd_plan(args) -> dict | None:
    import repro.experiments as ex

    store = ex.open_store(args.store) if args.store else None
    ctx, plan = study_plan(args.workload, args.seed, args.quick, store)
    print("ready", flush=True)
    if store is None:
        return None
    # warm replays from a store a cold repetition filled; the first one,
    # which pays this interpreter's lazy imports, is not timed.  A replay
    # takes a few ms, less than the sampling period, so a speed sample
    # right before and after each one gives its speed, and the timer is
    # stopped: a tick inside a replay would add its kernel to the time.
    speed.stop()
    first = ex.run_study(args.workload, ctx, plan=plan)
    warm, mismatches = [], 0
    for _ in range(args.warm_replays):
        speed.sample()
        start = time.perf_counter()
        result = ex.run_study(args.workload, ctx, plan=plan)
        warm.append((start, time.perf_counter()))
        mismatches += result != first
    speed.sample()
    return {"warm": warm, "digest": result_digest(first), "mismatches": mismatches}


def cmd_study(args) -> dict:
    import repro.experiments as ex
    from repro import obs
    from repro.experiments.runner import shutdown_shared_executor

    tracer = recorder = None
    if args.trace:
        import layers

        tracer = layers.install()
        recorder = obs.Recorder()
        obs.set_recorder(recorder)
    store = ex.open_store(args.store)
    ctx, plan = study_plan(args.workload, args.seed, args.quick, store)
    start = time.perf_counter()
    cold = ex.run_study(args.workload, ctx, plan=plan)
    end = time.perf_counter()
    print("cold", flush=True)  # the caller's cold latency ends here
    shutdown_shared_executor()  # reap the workers so their RSS is counted
    out: dict = {
        "cold": (start, end),
        "peak_rss_mib": peak_rss_mib(),
        "digest": result_digest(cold),
    }
    if tracer is not None:
        obs.set_recorder(None)
        tracer.enabled = False
        counters = dict(recorder.counters)
        cache = ex.get_event_cache().stats
        out["trace"] = {
            "totals": tracer.merged(counters),
            "other_s": layers.other_seconds(tracer, end - start, counters),
            "busy_s": counters.get("units.busy_s", 0.0) + counters.get("pool.busy_s", 0.0),
            "event_cache": [cache["hits"], cache["hits"] + cache["misses"]],
        }
        tracer.write_spans(args.spans)
    out["warm_matches"] = ex.run_study(args.workload, ctx, plan=plan) == cold
    return out


def cmd_service_prep(args) -> dict:
    import asyncio

    from repro.experiments import open_store
    from repro.service import QueryService, precompute

    import service_load

    sizes = service_load.service_sizes(args.quick)
    store = open_store(args.store)
    start = time.perf_counter()
    precompute(store, num_particles=sizes["warm_n"], num_processors=sizes["warm_p"], seed=args.seed)
    end = time.perf_counter()
    service = QueryService(store, jobs=1)
    expected = {}
    for dist in service_load.DISTRIBUTIONS:
        payload = service_load.warm_payload(dist, sizes, args.seed)
        answer = asyncio.run(service.recommend(payload))
        if answer["source"] != "store":
            raise RuntimeError(f"precompute left {dist} unanswered by the store")
        expected[dist] = answer["ranking"]
    store.close()
    return {"cold": (start, end), "expected": expected, "digest": result_digest(expected)}


def cmd_serve(args) -> None:
    from repro.service import main

    if args.cpu is not None:  # before any thread starts: threads inherit it
        os.sched_setaffinity(0, {args.cpu})
    main(["serve", "--store", args.store, "--port", "0", "--jobs", "1"])


def cmd_service_trace(args) -> dict:
    import asyncio
    import threading

    from repro.experiments import get_event_cache, open_store
    from repro.service import QueryService, serve

    import layers
    import service_load

    with open(args.expected) as fh:
        expected = json.load(fh)
    service = QueryService(open_store(args.store), jobs=1)
    ready = threading.Event()

    def host() -> None:
        async def main() -> None:
            listening = asyncio.Event()
            task = asyncio.create_task(serve(service, port=0, ready=listening))
            await listening.wait()
            ready.set()
            await task

        asyncio.run(main())

    thread = threading.Thread(target=host, name="service")
    thread.start()
    try:
        if not ready.wait(30):
            raise RuntimeError("in-process service did not start")
        sizes = service_load.service_sizes(args.quick)
        half = args.seconds / 2
        # traced first, while the process's topology and matrix caches are cold
        tracer = layers.install()
        start = time.perf_counter()
        port, quick = service.port, args.quick
        traced = service_load.run_load(port, expected, sizes, args.seed, half, quick, 0)
        wall = time.perf_counter() - start
        cache = get_event_cache().stats
        tracer.enabled = False
        offset = traced["next_offset"]
        plain = service_load.run_load(port, expected, sizes, args.seed, half, quick, offset)
    finally:
        if ready.is_set():
            service_load.shutdown(service.port)
        thread.join(30)
    tracer.write_spans(args.spans)
    return {
        "plain": plain,
        "traced": traced,
        "trace": {
            "totals": dict(tracer.totals),
            "other_s": layers.other_seconds(tracer, wall, {}),
            "wall_s": wall,
            "event_cache": [cache["hits"], cache["hits"] + cache["misses"]],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "command", choices=["plan", "study", "service-prep", "serve", "service-trace"]
    )
    parser.add_argument("workload", nargs="?", default="service")
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--store")
    parser.add_argument("--samples", help="sample this process's speed into this file")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--warm-replays", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--expected", help="file of expected rankings for service-trace")
    parser.add_argument("--cpu", type=int, help="run serve on this CPU only")
    args = parser.parse_args(argv)
    if args.samples:
        speed.start(args.samples)
    handler = {
        "plan": cmd_plan,
        "study": cmd_study,
        "service-prep": cmd_service_prep,
        "serve": cmd_serve,
        "service-trace": cmd_service_trace,
    }[args.command]
    out = handler(args)
    if out is not None:
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
