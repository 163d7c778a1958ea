"""One place for every runtime knob: the :class:`RuntimeConfig`.

Every ``REPRO_*`` environment variable is a *documented default* for
one :class:`RuntimeConfig` field, read in exactly one place
(:meth:`RuntimeConfig.from_env`).  The consuming modules — the runner,
the store, the executor, the ACD evaluator,
:func:`repro.experiments.config.active_scale` — ask
:func:`runtime_config` instead of ``os.environ``, and only when they
need the value, so a malformed variable fails the call that reads it
with a ``ValueError``, never ``import repro``.

===========================  =======================  ==================
Environment variable         Field                    Default
===========================  =======================  ==================
``REPRO_SCALE``              ``scale``                ``"small"``
``REPRO_JOBS``               ``jobs``                 ``None`` (serial)
``REPRO_STORE``              ``store_dir``            ``None`` (no store; dir path or ``sqlite://`` URL)
``REPRO_TRACE``              ``trace``                ``False``
``REPRO_METRICS``            ``metrics_path``         ``None``
``REPRO_MAX_RETRIES``        ``max_retries``          ``2``
``REPRO_UNIT_TIMEOUT``       ``unit_timeout``         ``None`` (no limit)
``REPRO_STRICT``             ``strict``               ``False``
``REPRO_FAULTS``             ``faults``               ``None`` (no faults)
``REPRO_MEMORY_BUDGET``      ``memory_budget``        ``None`` (unbounded)
===========================  =======================  ==================

Precedence: an explicit :func:`configure` (or ``with configure(...):``)
beats the environment, which beats the built-in defaults.  While no
config is installed, :func:`runtime_config` re-reads the environment on
every call, so tests that monkeypatch ``REPRO_*`` keep working.

This module is import-light (stdlib only) so the lowest layers — the
ACD evaluator in particular — can read it without import cycles; the
side-effectful application of a config (pool default, recorder
installation) lives in :func:`configure` behind local imports.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "RuntimeConfig",
    "runtime_config",
    "configure",
    "parse_bytes",
    "parse_store_url",
    "ENV_VARS",
    "STORE_SCHEMES",
]

#: Environment variable -> :class:`RuntimeConfig` field, the documented
#: defaults table above in code form.
ENV_VARS: dict[str, str] = {
    "REPRO_SCALE": "scale",
    "REPRO_JOBS": "jobs",
    "REPRO_STORE": "store_dir",
    "REPRO_TRACE": "trace",
    "REPRO_METRICS": "metrics_path",
    "REPRO_MAX_RETRIES": "max_retries",
    "REPRO_UNIT_TIMEOUT": "unit_timeout",
    "REPRO_STRICT": "strict",
    "REPRO_FAULTS": "faults",
    "REPRO_MEMORY_BUDGET": "memory_budget",
}

#: Store-URL schemes accepted by :func:`parse_store_url` (see
#: :mod:`repro.experiments.backends` for the backends they select).
STORE_SCHEMES = ("dir", "sqlite")

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Byte-size suffixes accepted by :func:`parse_bytes`.  All multiples are
#: binary (``K == KB == KiB == 2**10``) — memory budgets describe RAM.
_BYTE_SUFFIXES: dict[str, int] = {
    "": 1,
    "b": 1,
    **{
        prefix + suffix: 1 << shift
        for prefix, shift in (("k", 10), ("m", 20), ("g", 30), ("t", 40))
        for suffix in ("", "b", "ib")
    },
}


def parse_bytes(size: "int | str") -> int:
    """Parse a byte count like ``"2GiB"``, ``"512M"`` or ``"1048576"``.

    Suffixes are case-insensitive binary multiples (``K``/``KB``/``KiB``
    all mean ``2**10``); a bare number is bytes.  Fractions are allowed
    with a suffix (``"1.5GiB"``) and truncate to whole bytes.
    """
    if isinstance(size, int):
        return size
    import re

    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([a-zA-Z]*)\s*", str(size))
    unit = match.group(2).lower() if match else None
    if match is None or unit not in _BYTE_SUFFIXES:
        raise ValueError(
            f"cannot parse byte size {size!r}; expected e.g. 1048576, 512MiB, 2GiB"
        )
    return int(float(match.group(1)) * _BYTE_SUFFIXES[unit])


def parse_store_url(url: str) -> tuple[str, str]:
    """Parse a result-store URL into ``(scheme, filesystem path)``.

    The one grammar behind ``REPRO_STORE``, ``--store`` and
    :func:`repro.experiments.store.open_store`:

    * a plain path (no scheme) — a directory store: ``results/`` or
      ``/var/cache/repro`` → ``("dir", path)``;
    * ``dir://<path>`` — the same, explicitly;
    * ``sqlite://<path>`` — a shared SQLite (WAL) database file:
      everything after the scheme is the path verbatim, so
      ``sqlite:///var/results.db`` is absolute and
      ``sqlite://results.db`` is relative.

    Raises ``ValueError`` for an unknown scheme or an empty path, so a
    typo in ``REPRO_STORE`` fails loudly at configuration time instead
    of silently creating a directory named ``sqlite:``.
    """
    text = str(url).strip()
    scheme, sep, rest = text.partition("://")
    if not sep:
        scheme, rest = "dir", text
    elif scheme not in STORE_SCHEMES:
        raise ValueError(
            f"unknown store scheme {scheme!r} in {url!r}; "
            f"expected a plain directory path or one of: "
            + ", ".join(f"{s}://" for s in STORE_SCHEMES)
        )
    if not rest:
        raise ValueError(f"store URL {url!r} has an empty path")
    return scheme, rest


def _int_env(
    env: Mapping[str, str], var: str, default: int | None, minimum: int = 0
) -> int | None:
    raw = env.get(var, "").strip()
    if not raw:
        return default
    try:
        return max(minimum, int(raw))
    except ValueError:
        raise ValueError(f"{var} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class RuntimeConfig:
    """Every knob controlling *how* experiments run (never *what* they
    compute — results are bit-identical under any config).

    Attributes
    ----------
    scale:
        Default workload scale name (``"small"`` / ``"paper"``).
    jobs:
        Worker processes for trial/unit fan-out; ``None`` means serial.
    store_dir:
        Location of the persistent result store — a directory path or a
        backend URL (``sqlite://path/to/results.db`` for the shared
        WAL-mode SQLite backend; see :func:`parse_store_url` for the
        grammar).  ``None`` disables the store.
    trace:
        Install an :mod:`repro.obs` recorder for the run.
    metrics_path:
        Where to write the :class:`~repro.obs.RunManifest` (implies
        ``trace`` for CLI runs); ``None`` writes nothing.
    max_retries:
        Additional attempts granted to a unit that raised or timed out
        before the failure becomes fatal (``0`` disables retries).
    unit_timeout:
        Per-unit wall-clock budget in seconds for pool execution; a
        hung worker is torn down and the unit retried.  ``None``
        disables timeouts.
    strict:
        Fail fast on the first fault instead of retrying, rebuilding
        the pool or degrading to serial (completed units still flush
        to the store first).
    faults:
        Deterministic fault-injection plan (see :mod:`repro.faults`),
        e.g. ``"crash:unit=3; raise:rate=0.1:seed=7; hang:unit=5"``.
    memory_budget:
        Peak working-set bytes one metric evaluation may allocate
        (``REPRO_MEMORY_BUDGET``, e.g. ``"2GiB"``).  When set and the
        dense ``p x p`` distance matrix would exceed it, ACD builds no
        matrix and evaluates histograms through the distance kernel in
        chunks of ``budget // 32`` pairs (see :mod:`repro.metrics.acd`).
        ``None`` leaves the dense matrix path unbounded (the previous
        behaviour).  Results are bit-identical under any budget.
    """

    scale: str = "small"
    jobs: int | None = None
    store_dir: str | None = None
    trace: bool = False
    metrics_path: str | None = None
    max_retries: int = 2
    unit_timeout: float | None = None
    strict: bool = False
    faults: str | None = None
    memory_budget: int | None = None

    def __post_init__(self) -> None:
        if self.store_dir is not None:
            parse_store_url(self.store_dir)  # raises ValueError on a bad URL
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ValueError(
                f"memory_budget must be >= 1 byte or None, got {self.memory_budget}"
            )
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1 or None, got {self.jobs}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValueError(f"unit_timeout must be > 0 or None, got {self.unit_timeout}")
        if self.faults:
            from repro.faults import parse_faults  # stdlib-only, cycle-free

            parse_faults(self.faults)  # raises ValueError on a bad plan

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "RuntimeConfig":
        """Parse the ``REPRO_*`` variables (the one place that does)."""
        if env is None:
            env = os.environ
        store_raw = env.get("REPRO_STORE", "").strip()
        metrics_raw = env.get("REPRO_METRICS", "").strip()
        timeout_raw = env.get("REPRO_UNIT_TIMEOUT", "").strip()
        faults_raw = env.get("REPRO_FAULTS", "").strip()
        budget_raw = env.get("REPRO_MEMORY_BUDGET", "").strip()
        if store_raw:
            try:
                parse_store_url(store_raw)
            except ValueError as exc:
                raise ValueError(f"REPRO_STORE: {exc}") from None
        try:
            memory_budget = parse_bytes(budget_raw) if budget_raw else None
        except ValueError:
            raise ValueError(
                f"REPRO_MEMORY_BUDGET must be a byte size (e.g. 2GiB), got {budget_raw!r}"
            ) from None
        try:
            unit_timeout = float(timeout_raw) if timeout_raw else None
        except ValueError:
            raise ValueError(
                f"REPRO_UNIT_TIMEOUT must be a number of seconds, got {timeout_raw!r}"
            ) from None
        return cls(
            scale=env.get("REPRO_SCALE", "").strip() or "small",
            jobs=_int_env(env, "REPRO_JOBS", None, minimum=1),
            store_dir=store_raw or None,
            trace=env.get("REPRO_TRACE", "").strip().lower() in _TRUTHY,
            metrics_path=metrics_raw or None,
            max_retries=_int_env(env, "REPRO_MAX_RETRIES", 2),
            unit_timeout=unit_timeout,
            strict=env.get("REPRO_STRICT", "").strip().lower() in _TRUTHY,
            faults=faults_raw or None,
            memory_budget=memory_budget,
        )

    def replace(self, **overrides: Any) -> "RuntimeConfig":
        """A copy with ``overrides`` applied (validated)."""
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict[str, Any]:
        """JSON-able form (recorded verbatim in the run manifest)."""
        return dataclasses.asdict(self)


#: The explicitly installed config, or ``None`` (= read the environment).
_active: RuntimeConfig | None = None


def runtime_config() -> RuntimeConfig:
    """The effective config: the installed one, else freshly env-parsed."""
    return _active if _active is not None else RuntimeConfig.from_env()


class _Configured:
    """Handle returned by :func:`configure`; context manager restores.

    The config is applied *immediately* on construction — using the
    handle as a context manager is optional and merely makes the change
    scoped.
    """

    def __init__(self, config: RuntimeConfig):
        self.config = config
        self._restore = _apply(config)

    def __enter__(self) -> RuntimeConfig:
        return self.config

    def __exit__(self, *exc: object) -> bool:
        self.restore()
        return False

    def restore(self) -> None:
        """Undo this configure (idempotent)."""
        actions, self._restore = self._restore, []
        for action in reversed(actions):
            action()


def _apply(config: RuntimeConfig) -> list:
    """Install ``config`` process-wide; returns undo actions (LIFO).

    Local imports keep :mod:`repro.runtime` import-light; by the time
    anyone calls :func:`configure`, the experiment layers are loadable.
    """
    global _active
    from repro import obs
    from repro.experiments import runner

    undo: list = []

    previous_active = _active
    _active = config

    def restore_active(prev=previous_active):
        global _active
        _active = prev

    undo.append(restore_active)

    previous_jobs = runner._default_jobs
    runner.set_default_jobs(config.jobs)
    undo.append(lambda: runner.set_default_jobs(previous_jobs))

    if config.trace and obs.get_recorder() is None:
        previous_recorder = obs.set_recorder(obs.Recorder())
        undo.append(lambda: obs.set_recorder(previous_recorder))

    return undo


def configure(config: RuntimeConfig | None = None, **overrides: Any) -> _Configured:
    """Install a runtime config (optionally scoped).

    Either pass a full :class:`RuntimeConfig`, or field overrides that
    are applied on top of the current effective config::

        configure(jobs=8, store_dir="results/")          # permanent

        with configure(trace=True, jobs=4):              # scoped
            run_study("fig6")

    Applying a config installs the ``jobs`` default for the process
    pool and installs an :mod:`repro.obs` recorder when ``trace`` is
    set and none is active.
    The returned handle restores all of it on ``__exit__`` (or via
    ``.restore()``).
    """
    base = config if config is not None else runtime_config()
    effective = base.replace(**overrides) if overrides else base
    return _Configured(effective)
