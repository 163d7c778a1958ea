"""End-to-end benchmark of the reproduction: four paper-shaped workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--repeat N] [--out PATH]

Prints every end-to-end metric of each workload by name and unit (with
``--trace``, every per-layer metric instead), checks that every output
is correct, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  Exit status: 0 when every check passed, 1 when
one failed, 2 when the program to benchmark is missing.  The workloads,
metrics and layers are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import layers
import service_load
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
OUT = HERE / "out"
REP = HERE / "rep.py"
DIGESTS = HERE / "digests.json"

#: A child that prints no first line, or does not finish after it, within
#: this many seconds is killed (exit status -9).
CHILD_TIMEOUT_S = 120
SETUP_SPAWNS = {"study": 10, "service": 5, "quick": 3}
#: Timed warm replays in each set-up probe.  A ``dynamic`` replay takes
#: ~20 ms, so it makes 60, and keeps half of its 30 s run for cold
#: repetitions.
WARM_REPLAYS = {"tables": 250, "fig6": 250, "dynamic": 60, "quick": 10}
#: Cold fills of the service's store, each in a fresh process.
COLD_FILLS = {"full": 5, "quick": 1}
QUICK_SECONDS = 2
#: Counts the traced run reports beside the layer metrics.
TRACE_COUNTS = (
    "fmm.events", "fmm.compact.pairs", "topology.matrix.bytes", "metrics.evaluate.pairs"
)
#: ``trace.overhead`` above this is worth a warning.
OVERHEAD_WARN = 1.05
#: Minimum share of unit busy time that layer self time must cover.
COVERAGE_FLOOR = 0.9


class ChildFailed(RuntimeError):
    """A benchmark child process exited non-zero or printed no result."""


class Outcome:
    """Operations attempted and failed, plus the metrics of one workload.

    ``metrics`` holds end-to-end summaries (value, unit, quartiles, n) at
    the reference host speed, ``extra["raw"]`` the same from wall times,
    ``per_layer`` the traced run's values.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.per_layer: dict[str, float] = {}
        self.extra: dict[str, object] = {}

    def op(self, error: str | None = None, count: int = 1) -> None:
        self.attempted += count
        if error is not None:
            self.errors.extend([error] * count)

    def add(self, attempted: int, errors: list[str]) -> None:
        self.attempted += attempted
        self.errors.extend(errors)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.errors),
            "errors": self.errors[:20],
            "metrics": self.metrics,
            "per_layer": self.per_layer,
            "extra": self.extra,
        }


class Timings:
    """Every timing of a run, per process, twice: as measured, and at the
    reference host speed (speed.py)."""

    def __init__(self) -> None:
        #: timing name -> one list of values per process
        self.raw: defaultdict[str, list[list[float]]] = defaultdict(list)
        self.norm: defaultdict[str, list[list[float]]] = defaultdict(list)

    def add(self, name: str, samples: speed.Samples, intervals, unit: float = 1.0) -> None:
        """One process's intervals ``(start, end)`` of timing ``name``, in
        seconds times ``unit``; ``samples`` holds that process's speed."""
        self.raw[name].append([(end - start) * unit for start, end in intervals])
        self.norm[name].append([samples.seconds(start, end) * unit for start, end in intervals])


# -- statistics -----------------------------------------------------------------


percentile = service_load.percentile


def summary(values, unit: str) -> dict:
    """The median of ``values`` with their quartiles."""
    values = list(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def timing_metrics(t: dict[str, list[list[float]]], completed: list[int]) -> dict[str, dict]:
    """The timing metrics of one run, each the median over the run's
    processes (set-up probes, repetitions, fills or servers) of one value
    per process.  ``t`` holds each process's timings; ``t["busy"]`` the
    seconds in which each process completed ``completed`` warm answers.
    The warm tail is the 99th percentile of all of the run's warm
    samples (600 on ``dynamic``, over 1000 elsewhere), so that it rests
    on several samples beyond it rather than on one process's worst two."""

    def per_process(name: str, value) -> list[float]:
        return [value(group) for group in t[name] if group]

    warm = [x for group in t["warm_ms"] for x in group]
    return {
        "setup_s": summary(per_process("setup", statistics.median), "s"),
        "cold_s": summary(per_process("cold", statistics.median), "s"),
        "cold_p50_ms": summary(per_process("cold_ms", statistics.median), "ms"),
        "p50_ms": summary(per_process("warm_ms", statistics.median), "ms"),
        "p99_ms": summary([percentile(warm, 0.99)], "ms"),
        "warm_rps": summary([n / busy for n, (busy,) in zip(completed, t["busy"])], "1/s"),
    }


# -- child processes ------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The environment of every child: no inherited REPRO_* knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK)
    return env


def reap(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Wait for ``proc`` (killing it after ``timeout``) and close its pipes."""
    try:
        proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    for pipe in (proc.stdout, proc.stderr):
        if pipe is not None:
            pipe.close()


def spawn(cmd: list[str], stream: str, stderr=subprocess.DEVNULL):
    """Start ``cmd``: when it started, when its first line on ``stream``
    arrived, the process and that line."""
    pipes = {"stdout": subprocess.DEVNULL, "stderr": stderr, stream: subprocess.PIPE}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True, **pipes)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = getattr(proc, stream).readline()
    except BaseException:
        proc.kill()
        reap(proc)
        raise
    finally:
        timer.cancel()
    return start, time.perf_counter(), proc, line


def sample_file() -> Path:
    fd, path = tempfile.mkstemp(suffix=".speed", dir=WORK)
    os.close(fd)
    return Path(path)


def load_samples(path: Path) -> speed.Samples:
    try:
        return speed.Samples(path)
    except ValueError as exc:
        raise ChildFailed(str(exc)) from exc
    finally:
        path.unlink(missing_ok=True)


def run_child(*args: str, sampled: bool = True):
    """Run ``rep.py ARGS`` to completion: when it started, when its first
    line of output (``ready`` or ``cold``) arrived, its last line as
    JSON and, when ``sampled``, its speed samples."""
    path = sample_file() if sampled else None
    cmd = [sys.executable, str(REP), *args] + (["--samples", str(path)] if path else [])
    with tempfile.TemporaryFile("w+", dir=WORK) as err:
        start, first_at, proc, first = spawn(cmd, "stdout", err)
        # read on through the same buffered stream: readline() may have
        # buffered more than the first line
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            rest = proc.stdout.read()
            proc.wait()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            reap(proc)
        lines = (first + rest).strip().splitlines()
        if proc.returncode != 0 or not lines:
            err.seek(0)
            if path:
                path.unlink(missing_ok=True)
            raise ChildFailed(f"rep.py {args[0]} exited {proc.returncode}: {err.read()[-2000:]}")
    return start, first_at, json.loads(lines[-1]), load_samples(path) if path else None


def probe(workload: str, opts, store: str):
    """A fresh interpreter's set-up, then its warm replays of ``store``."""
    return run_child(
        "plan", workload, "--seed", str(opts.seed), "--store", store,
        "--warm-replays", str(WARM_REPLAYS["quick" if opts.quick else workload]),
        *opts.quick_flag,
    )


def cold_rep(workload: str, opts, store: str, traced: bool = False):
    """One cold repetition into the empty directory store ``store``."""
    args = ["study", workload, "--seed", str(opts.seed), "--store", store, *opts.quick_flag]
    if traced:
        args += ["--trace", "--spans", str(OUT / f"trace-{workload}.json")]
    return run_child(*args, sampled=not opts.trace)


def fresh_cold_rep(workload: str, opts, traced: bool = False):
    store = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        return cold_rep(workload, opts, store, traced)
    finally:
        shutil.rmtree(store, ignore_errors=True)


def digest_error(key: str, digest: str, first: str, opts) -> str | None:
    """Why a result digest is wrong: it must equal the one recorded for
    ``key`` or, with none recorded, ``first``, the run's first result."""
    if opts.record_digests:
        opts.digests[key] = first
    want = opts.digests.get(key, first)
    return None if digest == want else f"{key} result digest {digest[:12]} != expected {want[:12]}"


def check_cold(workload: str, rep: dict, reps: list[dict], opts, outcome: Outcome) -> None:
    """A cold result must match its warm replay, the run's other cold
    results and, for a recorded seed, the recorded digest."""
    first = (reps[0] if reps else rep)["digest"]
    error = digest_error(f"{opts.mode}/{workload}/{opts.seed}", rep["digest"], first, opts)
    if error is None and not rep["warm_matches"]:
        error = f"{workload} warm replay differs from the cold result"
    outcome.op(error)


def repeat(seconds: float, once) -> None:
    """Call ``once(i)`` until ``seconds`` would be overrun (at least once)."""
    start = time.perf_counter()
    durations: list[float] = []
    while not durations or (
        time.perf_counter() - start + statistics.fmean(durations) <= seconds
    ):
        t = time.perf_counter()
        once(len(durations))
        durations.append(time.perf_counter() - t)


def study_workload(workload: str, opts) -> Outcome:
    """Cold repetitions, and set-up probes that replay the first one's store.

    Every timing is sampled in several processes per run (the cold
    repetitions, ten set-up probes), so that no one process decides it.
    The probes are spread evenly between the cold repetitions that fit
    into the run, so that both kinds of timing see the host over the
    whole run rather than over one part of it.
    """
    outcome = Outcome()
    if opts.trace:
        return traced_study(workload, opts, outcome)
    start = time.perf_counter()
    reps: list[dict] = []
    timings = Timings()

    def timed(step, *args) -> float:
        t = time.perf_counter()
        try:
            step(*args)
        except ChildFailed as exc:
            outcome.op(str(exc))
        return time.perf_counter() - t

    def cold(store: str | None = None) -> None:
        spawned, answered, rep, samples = (
            cold_rep(workload, opts, store) if store else fresh_cold_rep(workload, opts)
        )
        check_cold(workload, rep, reps, opts, outcome)
        reps.append(rep)
        timings.add("cold", samples, [rep["cold"]])
        timings.add("cold_ms", samples, [(spawned, answered)], 1e3)

    def set_up(store: str) -> None:
        spawned, ready, out, samples = probe(workload, opts, store)
        timings.add("setup", samples, [(spawned, ready)])
        timings.add("warm_ms", samples, out["warm"], 1e3)
        same = out["mismatches"] == 0 and out["digest"] == reps[0]["digest"]
        error = None if same else f"{workload} warm replay differs from the cold result"
        outcome.op(error, len(out["warm"]))

    store = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        cold_walls = [timed(cold, store)]
        if reps:
            probe_walls = [timed(set_up, store)]
            probes = SETUP_SPAWNS["quick" if opts.quick else "study"] - 1
            while True:
                # how many more cold repetitions fit beside the probes left,
                # judged by the slowest so far, so that a slow spell does
                # not overrun the run
                left = opts.seconds - (time.perf_counter() - start)
                fit = int((left - probes * statistics.fmean(probe_walls)) / max(cold_walls))
                if fit <= 0:
                    break
                for _ in range(probes // (fit + 1)):
                    probe_walls.append(timed(set_up, store))
                    probes -= 1
                cold_walls.append(timed(cold))
            for _ in range(probes):
                timed(set_up, store)
    finally:
        shutil.rmtree(store, ignore_errors=True)

    if not timings.raw["setup"]:
        return outcome
    replays = [len(warm) for warm in timings.raw["warm_ms"]]
    for t in (timings.norm, timings.raw):
        t["busy"] = [[sum(warm) / 1e3] for warm in t["warm_ms"]]
    outcome.metrics = timing_metrics(timings.norm, replays)
    outcome.metrics["peak_rss_mib"] = summary([rep["peak_rss_mib"] for rep in reps], "MiB")
    outcome.extra["raw"] = timing_metrics(timings.raw, replays)
    return outcome


def layer_values(workload: str, trace: dict, wall_s: float, outcome: Outcome) -> dict:
    """Per-layer metrics of one traced run; gate failures go to ``outcome``."""
    totals = trace["totals"]
    values = layers.layer_metrics(totals, wall_s, trace["other_s"])
    for key in TRACE_COUNTS:
        values[key] = totals.get(key, 0)
    hits, lookups = trace["event_cache"]
    values["event_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    gets = totals.get("store.get.calls", 0)
    values["store.get.hit_ratio"] = totals.get("store.get.hits", 0) / gets if gets else 0.0
    if "busy_s" in trace:  # study: layer time inside units over unit busy time
        values["trace.coverage"] = totals.get("unit.layer_ns", 0) / 1e9 / trace["busy_s"]
    else:  # service: layer time over the traced load window
        values["trace.coverage"] = 1.0 - values["other.share"]
    for hook in layers.gate_failures(workload, totals):
        outcome.op(f"hook gate: {hook} recorded no call on {workload}")
    if workload in layers.STUDIES and values["trace.coverage"] < COVERAGE_FLOOR:
        outcome.op(
            f"coverage gate: layers cover {values['trace.coverage']:.1%} of unit busy time "
            f"on {workload} (< {COVERAGE_FLOOR:.0%})"
        )
    return values


def traced_study(workload: str, opts, outcome: Outcome) -> Outcome:
    """Alternate untraced and traced cold repetitions."""
    plain: list[dict] = []
    traced: list[dict] = []

    def once(i: int) -> None:
        is_traced = i % 2 == 1
        try:
            _, _, rep, _ = fresh_cold_rep(workload, opts, traced=is_traced)
        except ChildFailed as exc:
            outcome.op(str(exc))
            return
        check_cold(workload, rep, plain + traced, opts, outcome)
        rep["cold_s"] = rep["cold"][1] - rep["cold"][0]
        (traced if is_traced else plain).append(rep)

    repeat(opts.seconds, once)
    if not traced:
        once(1)
    if not (plain and traced):
        return outcome
    per_rep = [layer_values(workload, r["trace"], r["cold_s"], outcome) for r in traced]
    values = {key: statistics.median(v[key] for v in per_rep) for key in per_rep[0]}
    cold = [statistics.median(r["cold_s"] for r in reps) for reps in (traced, plain)]
    values["trace.overhead"] = cold[0] / cold[1]
    outcome.per_layer = values
    return outcome


# -- service workload -----------------------------------------------------------


def read_port(line: str) -> int:
    if "listening on" not in line:
        raise ChildFailed(f"repro-service did not start: {line.strip()!r}")
    return int(line.strip().rsplit(":", 1)[1])


def stop_server(proc: subprocess.Popen, port: int | None) -> None:
    if port is not None and proc.poll() is None:
        try:
            service_load.shutdown(port)
        except (OSError, ValueError):
            pass  # already gone: reap() kills what is left
    reap(proc)


def peak_rss_of(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ChildFailed(f"no VmHWM for pid {pid}")


def service_workload(opts) -> Outcome:
    """Cold fills of empty SQLite stores, then load on the first one."""
    outcome = Outcome()
    work = Path(tempfile.mkdtemp(prefix="service-", dir=WORK))
    key = f"{opts.mode}/service/{opts.seed}"
    timings = Timings()
    preps: list[dict] = []
    try:
        for i in range(1 if opts.trace else COLD_FILLS[opts.mode]):
            url = f"sqlite://{work / f'store-{i}.db'}"
            _, _, prep, samples = run_child(
                "service-prep", "--store", url, "--seed", str(opts.seed), *opts.quick_flag,
                sampled=not opts.trace,
            )
            first = (preps[0] if preps else prep)["digest"]
            outcome.op(digest_error(key, prep["digest"], first, opts))
            if samples is not None:
                timings.add("cold", samples, [prep["cold"]])
            preps.append(prep)
        url = f"sqlite://{work / 'store-0.db'}"
        if opts.trace:
            return traced_service(opts, outcome, work, url, preps[0]["expected"])
        return served_service(opts, outcome, url, preps[0]["expected"], timings)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def with_server(url: str, load, cpu: int | None = None):
    """Run ``load(port)`` against a fresh ``repro-service serve`` (on one
    ``cpu`` if given): its spawn and listening times, its speed samples,
    its peak RSS, and what ``load`` returned."""
    path = sample_file()
    cmd = [sys.executable, str(REP), "serve", "--store", url, "--samples", str(path)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    proc, port = None, None
    try:
        spawned, listening, proc, line = spawn(cmd, "stderr")
        port = read_port(line)
        result = load(port)
        rss = peak_rss_of(proc.pid)
    finally:
        if proc is not None:
            stop_server(proc, port)
    return (spawned, listening), load_samples(path), rss, result


def served_service(opts, outcome: Outcome, url: str, expected: dict, timings: Timings) -> Outcome:
    """``repro-service serve`` subprocesses: set-up spawns, then the load.

    Each set-up spawn is shut down as soon as it listens.  Phases B and A
    run on one more server, after an untimed warm-up, so that the warm
    tail is the wait behind cold computations, not a fresh process's
    first requests.  Phase C runs on one more server, held to one CPU: the
    server computes in a worker thread, and only on the CPU of its main
    thread, which samples the speed, is that speed the worker's too.
    Latencies are normalised with the server's speed.
    """
    sizes = service_load.service_sizes(opts.quick)
    tally = service_load.Tally()

    def phases_b_a(port: int):
        service_load.warm_up(port, expected, sizes, opts.seed, 0, tally)
        done, b_start, b_stop = service_load.closed_loop(
            port, expected, sizes, opts.seed, opts.seconds * service_load.PHASE_B, tally
        )
        phase = service_load.open_loop(
            port, expected, sizes, opts.seed, opts.seconds * service_load.PHASE_A,
            opts.quick, 0, tally,
        )
        service_load.replay_cold(port, phase["cold_answers"], tally)
        return done, (b_start, b_stop), phase

    def phase_c(port: int):
        service_load.warm_up(port, expected, sizes, opts.seed, 1, tally)
        seconds = opts.seconds * service_load.PHASE_C
        phase = service_load.cold_loop(port, sizes, opts.seed, seconds, tally)
        service_load.replay_cold(port, phase["cold_answers"], tally)
        return phase["cold"]

    for _ in range(SETUP_SPAWNS["quick" if opts.quick else "service"]):
        started, samples, _, _ = with_server(url, lambda port: None)
        timings.add("setup", samples, [started])
    _, samples, rss, (done, busy, phase) = with_server(url, phases_b_a)
    timings.add("busy", samples, [busy])
    timings.add("warm_ms", samples, phase["warm"], 1e3)
    _, samples, _, cold = with_server(url, phase_c, cpu=max(os.sched_getaffinity(0)))
    for interval in cold:  # the median over requests: one per "process"
        timings.add("cold_ms", samples, [interval], 1e3)
    outcome.add(tally.attempted, tally.errors)
    if not (phase["warm"] and cold):
        outcome.op("service load produced no successful warm and cold requests")
        return outcome
    outcome.metrics = timing_metrics(timings.norm, [done])
    outcome.metrics["peak_rss_mib"] = summary([rss], "MiB")
    outcome.extra = {
        "raw": timing_metrics(timings.raw, [done]),
        "lateness_ms": phase["lateness_ms"],
    }
    return outcome


def traced_service(opts, outcome: Outcome, work: Path, url: str, expected: dict) -> Outcome:
    """The service hosted in a child's thread: traced, then untraced."""
    expected_path = work / "expected.json"
    expected_path.write_text(json.dumps(expected))
    _, _, out, _ = run_child(
        "service-trace", "--store", url, "--expected", str(expected_path), "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--spans", str(OUT / "trace-service.json"),
        *opts.quick_flag, sampled=False,
    )
    for load in (out["plain"], out["traced"]):
        outcome.add(load["attempted"], load["errors"])
    trace = out["trace"]
    values = layer_values("service", trace, trace["wall_s"], outcome)
    traced, plain = (
        statistics.median(done - due for due, done in out[k]["warm"]) for k in ("traced", "plain")
    )
    values["trace.overhead"] = traced / plain
    outcome.per_layer = values
    return outcome


# -- reporting ------------------------------------------------------------------


def metadata() -> dict:
    """Commit, machine and toolchain of a recorded run."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True,
        text=True,
        env=child_env(),
    ).stdout.strip()
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "machine": platform.machine(),
    }


def report(workload: str, outcome: Outcome, spec: dict, trace: bool) -> None:
    print(f"== {workload}: {len(outcome.errors)} of {outcome.attempted} operations failed")
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in outcome.per_layer.items():
            unit = units.get(name, "s" if name.endswith("_s") else "")
            print(f"  {name:32s} {value:14.6g} {unit}")
    else:
        raw = outcome.extra.get("raw", {})
        for name, m in outcome.metrics.items():
            measured = f"  (measured {raw[name]['value']:.4f})" if name in raw else ""
            print(
                f"  {name:14s} {m['value']:12.4f} {m['unit']:12s}"
                f"  q1 {m['q1']:.4f}  q3 {m['q3']:.4f}  n={m['n']}{measured}"
            )
    for error in outcome.errors[:5]:
        print(f"  FAILED: {error}", file=sys.stderr)


def combine(runs: list[dict[str, Outcome]]) -> dict[str, dict]:
    """Per workload, operations and metrics over every run.

    With one run a metric keeps the quartiles of its own samples; with
    several, its value is the median of the runs' values and its
    quartiles are the run-to-run spread.
    """
    combined = {}
    for workload in runs[0]:
        outcomes = [run[workload] for run in runs]
        metrics = outcomes[0].metrics
        if len(runs) > 1:
            metrics = {
                name: summary([o.metrics[name]["value"] for o in outcomes], m["unit"])
                for name, m in metrics.items()
                if all(name in o.metrics for o in outcomes)
            }
        combined[workload] = {
            "attempted": sum(o.attempted for o in outcomes),
            "failed": sum(len(o.errors) for o in outcomes),
            "metrics": metrics,
            "per_layer": {
                name: statistics.median(o.per_layer[name] for o in outcomes)
                for name in outcomes[0].per_layer
                if all(name in o.per_layer for o in outcomes)
            },
        }
    return combined


def result_line(combined: dict[str, dict], spec: dict, trace: bool) -> dict:
    """The closing JSON object: every wanted metric of every workload."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics: dict[str, dict] = {}
    correct = True
    for workload, result in combined.items():
        values = result["per_layer"] if trace else {
            name: m["value"] for name, m in result["metrics"].items()
        }
        for m in wanted:
            name = m["name"] if len(combined) == 1 else f"{workload}.{m['name']}"
            if m["name"] not in values:
                correct = False
                continue
            metrics[name] = {"value": values[m["name"]], "unit": m["unit"]}
        correct = correct and result["failed"] == 0
    return {
        "correct": correct,
        "attempted": max(1, sum(r["attempted"] for r in combined.values())),
        "failed": sum(r["failed"] for r in combined.values()),
        "metrics": metrics,
    }


def run_workloads(workloads: list[str], opts, spec: dict) -> dict[str, Outcome]:
    results: dict[str, Outcome] = {}
    for workload in workloads:
        try:
            if workload == "service":
                outcome = service_workload(opts)
            else:
                outcome = study_workload(workload, opts)
        except ChildFailed as exc:
            outcome = Outcome()
            outcome.op(str(exc))
        if outcome.metrics:
            ok = 1.0 - len(outcome.errors) / outcome.attempted
            outcome.metrics["success_rate"] = summary([ok], "ok/attempted")
        results[workload] = outcome
        report(workload, outcome, spec, bool(opts.trace))
        overhead = outcome.per_layer.get("trace.overhead")
        if overhead is not None and overhead > OVERHEAD_WARN:
            print(f"  warning: tracing slowed {workload} by {overhead - 1:.1%}", file=sys.stderr)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument(
        "--seconds", type=float,
        help="measured time per workload (default: run_seconds of BENCHMARK.json, "
        "which runners of BENCHMARK.json pass)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer metrics from a separate traced run; bare --trace means 1 "
        "(runners of BENCHMARK.json pass 0 or 1)",
    )
    parser.add_argument("--quick", action="store_true", help="tiny presets: a smoke run")
    parser.add_argument(
        "--repeat", type=int, default=1, help="whole runs, with seeds SEED, SEED+1, ..."
    )
    parser.add_argument("--out", type=Path, help="write every run and summary as JSON here")
    parser.add_argument(
        "--record-digests", action="store_true", help="store this run's digests instead of checking"
    )
    opts = parser.parse_args(argv)
    # a terminated run unwinds, so every child it started is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if opts.workload is not None and opts.workload not in names:
        parser.error(f"unknown workload {opts.workload!r}; choose from {', '.join(names)}")
    if opts.repeat < 1:
        parser.error("--repeat must be at least 1")
    opts.mode = "quick" if opts.quick else "full"
    opts.quick_flag = ["--quick"] if opts.quick else []
    if opts.seconds is None:
        opts.seconds = QUICK_SECONDS if opts.quick else spec["run_seconds"]
    opts.digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    WORK.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    base_seed = opts.seed
    runs: list[dict[str, Outcome]] = []
    try:
        for i in range(opts.repeat):
            opts.seed = base_seed + i
            runs.append(run_workloads([opts.workload] if opts.workload else names, opts, spec))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)  # scratch stores and speed samples
    combined = combine(runs)

    if opts.record_digests:
        DIGESTS.write_text(json.dumps(dict(sorted(opts.digests.items())), indent=2) + "\n")
    if opts.out is not None:
        record = {
            **metadata(),
            "mode": opts.mode,
            "trace": bool(opts.trace),
            "seed": base_seed,
            "seconds": opts.seconds,
            "repeat": opts.repeat,
            "wall_s": time.perf_counter() - started,
            "summary": combined,
            "runs": [
                {"seed": base_seed + i, "workloads": {w: o.as_dict() for w, o in run.items()}}
                for i, run in enumerate(runs)
            ],
        }
        opts.out.parent.mkdir(parents=True, exist_ok=True)
        opts.out.write_text(json.dumps(record, indent=2) + "\n")
    line = result_line(combined, spec, bool(opts.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
