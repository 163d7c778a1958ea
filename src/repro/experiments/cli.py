"""Command-line entry point: regenerate any paper table or figure.

Usage::

    repro-experiments fig5                   # ANNS study (Fig. 5)
    repro-experiments tables --scale paper   # Tables I & II, full size
    repro-experiments fig6                   # topology comparison
    repro-experiments fig7                   # processor scaling
    repro-experiments sweeps                 # §VI-C parametric sweeps
    repro-experiments ablations              # DESIGN.md convention ablations
    repro-experiments validate3d             # future-work 3D validation
    repro-experiments metrics                # objective metrics (energy, ...)
    repro-experiments dynamic                # time-evolving repartitioning
    repro-experiments all                    # everything, in paper order

    repro-experiments fig5 --json fig5.json --csv fig5.csv
    repro-experiments all --json out/ --csv out/   # one file per study
    repro-experiments fig7 --store results/        # resumable result store

    repro-experiments precompute --store sqlite://results.db   # warm the grid
    repro-experiments serve --store sqlite://results.db        # /recommend HTTP
    repro-experiments store stats --store sqlite://results.db  # backend profile

The last three delegate to :mod:`repro.service` (also installed as
``repro-service``): the store accepts a directory path or a
``sqlite://`` URL — a WAL-mode database many processes share safely.

Every command resolves to one or more registered studies (see
:mod:`repro.experiments.study`) executed by the shared driver — grouped
campaign lowering, ``--jobs`` fan-out and the persistent result store
apply uniformly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Importing the study modules populates the STUDIES registry.
import repro.experiments  # noqa: F401
from repro.obs import RunManifest, recording, render_trace
from repro.experiments.config import active_scale
from repro.experiments.io import save_result, write_csv
from repro.experiments.runner import set_default_jobs
from repro.experiments.store import ResultStore
from repro.experiments.study import ENV_STORE, StudyContext, get_study, run_study
from repro.runtime import configure, parse_bytes, runtime_config

__all__ = ["main", "COMMANDS", "EXPERIMENTS"]

#: CLI command -> the registered studies it runs, in print order.
COMMANDS: dict[str, tuple[str, ...]] = {
    "fig5": ("fig5",),
    "tables": ("tables",),
    "fig6": ("fig6",),
    "fig7": ("fig7",),
    "sweeps": ("sweep_radius", "sweep_input_size", "sweep_distribution"),
    "ablations": (
        "ablation_quadtree_convention",
        "ablation_ffi_granularity",
        "ablation_interpolation_reading",
        "ablation_hypercube_layout",
        "ablation_continuity",
    ),
    "validate3d": ("validate3d", "anns3d"),
    "clustering": ("clustering",),
    "metrics": ("energy", "data_volume", "surface_to_volume"),
    "dynamic": ("dynamic",),
}

#: ``all`` regenerates every artefact in the paper's order (the metric
#: studies are extensions, so they come last).
ALL_ORDER = (
    "fig5",
    "tables",
    "fig6",
    "fig7",
    "sweeps",
    "ablations",
    "validate3d",
    "clustering",
    "metrics",
    "dynamic",
)

EXPERIMENTS = (*COMMANDS, "all")


def _print(text: str) -> None:
    print(text)
    print()


#: Subcommands handled by the service CLI (:mod:`repro.service`) —
#: dispatched before the experiment parser so ``repro-experiments
#: serve/precompute/store ...`` and ``repro-service ...`` are the same
#: tool with two front doors.
SERVICE_COMMANDS = ("serve", "precompute", "store")


def main(argv: list[str] | None = None) -> int:
    """Run one (or all) of the paper's experiments and print the results."""
    raw = sys.argv[1:] if argv is None else argv
    if raw and raw[0] in SERVICE_COMMANDS:
        from repro.service import main as service_main

        return service_main(list(raw))
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of DeFord & Kalyanaraman (ICPP 2013).",
    )
    parser.add_argument(
        "experiment", choices=EXPERIMENTS, help="which paper artefact to regenerate"
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=["small", "paper"],
        help="workload scale (default: REPRO_SCALE env var or 'small')",
    )
    parser.add_argument("--seed", type=int, default=2013, help="experiment seed")
    parser.add_argument("--trials", type=int, default=None, help="trials per case")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for trial fan-out (default: REPRO_JOBS env var or serial); "
        "results are identical for any value",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="URL",
        help="persistent result store: a directory path or a sqlite://path URL "
        "(default: REPRO_STORE env var); finished cases are reused, "
        "interrupted sweeps resume",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="bypass the result store even if REPRO_STORE is set",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also save results as JSON (a directory when the command runs several studies)",
    )
    parser.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="also save results as CSV (a directory when the command runs several studies)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts for a unit that raised or timed out before the run "
        "fails (default: REPRO_MAX_RETRIES env var or 2; 0 disables retries)",
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock budget; a hung worker is torn down and the unit "
        "retried (default: REPRO_UNIT_TIMEOUT env var or no limit)",
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="peak working-set budget for metric evaluation, e.g. 2GiB or 512MiB; "
        "ACD evaluations build no distance matrix and chunk their distance lookups "
        "when the dense matrix would exceed it (default: REPRO_MEMORY_BUDGET env var "
        "or unbounded); "
        "results are identical for any budget",
    )
    tolerance = parser.add_mutually_exclusive_group()
    tolerance.add_argument(
        "--strict",
        dest="strict",
        action="store_true",
        default=None,
        help="fail fast on the first worker fault (no retries, rebuilds or "
        "serial degradation); completed cases still flush to the store",
    )
    tolerance.add_argument(
        "--best-effort",
        dest="strict",
        action="store_false",
        help="survive worker faults: retry transient errors, rebuild a broken "
        "pool, degrade to serial execution if it keeps breaking (default)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record the run and print a span/counter summary to stderr "
        "(also enabled by REPRO_TRACE=1)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="record the run and write a RunManifest JSON to PATH "
        "(a directory receives run_manifest.json; also REPRO_METRICS)",
    )
    args = parser.parse_args(argv)
    try:  # a malformed REPRO_* value is a usage error
        runtime_config()
        active_scale(args.scale)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.store and args.no_store:
        parser.error("--store and --no-store are mutually exclusive")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.unit_timeout is not None and args.unit_timeout <= 0:
        parser.error("--unit-timeout must be > 0")
    memory_budget = None
    if args.memory_budget is not None:
        try:
            memory_budget = parse_bytes(args.memory_budget)
        except ValueError as exc:
            parser.error(str(exc))
        if memory_budget < 1:
            parser.error("--memory-budget must be >= 1 byte")
    # Fault-tolerance knobs install through the runtime config (before
    # the jobs default, which set_default_jobs below must win).
    policy_overrides = {
        name: value
        for name, value in (
            ("max_retries", args.max_retries),
            ("unit_timeout", args.unit_timeout),
            ("strict", args.strict),
            ("memory_budget", memory_budget),
        )
        if value is not None
    }
    if policy_overrides:
        configure(**policy_overrides)
    set_default_jobs(args.jobs)

    if args.no_store:
        store = None
    elif args.store:
        store = ResultStore(args.store)
    else:
        store = ENV_STORE
    ctx = StudyContext(
        scale=None if args.scale is None else active_scale(args.scale),
        seed=args.seed,
        trials=args.trials,
        store=store,
    )

    runtime = runtime_config()
    trace = args.trace or runtime.trace
    metrics_path = args.metrics or runtime.metrics_path

    names = [
        study
        for command in (ALL_ORDER if args.experiment == "all" else (args.experiment,))
        for study in COMMANDS[command]
    ]
    results: dict[str, object] = {}

    def execute() -> None:
        for name in names:
            study = get_study(name)
            result = run_study(study, ctx)
            _print(study.render(result))
            results[name] = result

    if trace or metrics_path:
        with recording() as rec:
            execute()
        # stderr keeps stdout byte-stable across recorded and plain runs
        if metrics_path:
            manifest = RunManifest.from_recorder(
                rec,
                config=runtime.as_dict(),
                scale=ctx.preset().name,
                seed=args.seed,
                command=list(sys.argv[1:] if argv is None else argv),
            )
            target = manifest.write(metrics_path)
            print(f"wrote run manifest to {target}", file=sys.stderr)
        if trace:
            print(render_trace(rec), file=sys.stderr)
    else:
        execute()

    for flag, path, writer, label in (
        ("--json", args.json, save_result, "JSON"),
        ("--csv", args.csv, write_csv, "CSV"),
    ):
        if not path:
            continue
        ext = label.lower()
        if len(results) == 1:
            ((name, result),) = results.items()
            target = Path(path)
            if target.is_dir() or str(path).endswith(("/", "\\")):
                target.mkdir(parents=True, exist_ok=True)
                target = target / f"{name}.{ext}"
            writer(result, target)
            print(f"saved {label} to {target}")
        else:
            out_dir = Path(path)
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, result in results.items():
                writer(result, out_dir / f"{name}.{ext}")
            print(f"saved {label} for {len(results)} studies to {out_dir}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
