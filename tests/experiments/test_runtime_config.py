"""Tests for the consolidated runtime configuration (repro.runtime)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.experiments import artifacts
from repro.experiments import config as experiments_config
from repro.experiments.runner import execute_units, resolve_jobs
from repro.experiments.store import default_store
from repro.runtime import ENV_VARS, RuntimeConfig, configure, runtime_config
from repro.topology import cache as topo_cache


class TestFromEnv:
    def test_defaults_with_empty_env(self):
        config = RuntimeConfig.from_env({})
        assert config == RuntimeConfig()
        assert config.scale == "small"
        assert config.jobs is None
        assert config.store_dir is None
        assert config.trace is False
        assert config.metrics_path is None

    def test_every_documented_var_parses(self):
        env = {
            "REPRO_SCALE": "paper",
            "REPRO_JOBS": "4",
            "REPRO_STORE": "results/",
            "REPRO_TRACE": "1",
            "REPRO_METRICS": "out/manifest.json",
            "REPRO_MAX_RETRIES": "5",
            "REPRO_UNIT_TIMEOUT": "2.5",
            "REPRO_STRICT": "1",
            "REPRO_FAULTS": "raise:rate=0.1:seed=7",
            "REPRO_MEMORY_BUDGET": "2GiB",
        }
        assert set(env) == set(ENV_VARS)
        config = RuntimeConfig.from_env(env)
        assert config.scale == "paper"
        assert config.jobs == 4
        assert config.store_dir == "results/"
        assert config.trace is True
        assert config.metrics_path == "out/manifest.json"
        assert config.max_retries == 5
        assert config.unit_timeout == 2.5
        assert config.strict is True
        assert config.faults == "raise:rate=0.1:seed=7"
        assert config.memory_budget == 2 << 30

    def test_fault_tolerance_defaults(self):
        config = RuntimeConfig.from_env({})
        assert config.max_retries == 2
        assert config.unit_timeout is None
        assert config.strict is False
        assert config.faults is None

    def test_bad_unit_timeout_raises(self):
        with pytest.raises(ValueError, match="REPRO_UNIT_TIMEOUT"):
            RuntimeConfig.from_env({"REPRO_UNIT_TIMEOUT": "fast"})

    def test_bad_fault_plan_raises(self):
        with pytest.raises(ValueError, match="fault"):
            RuntimeConfig(faults="explode:unit=1")

    def test_fault_tolerance_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(max_retries=-1)
        with pytest.raises(ValueError):
            RuntimeConfig(unit_timeout=0.0)

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("", False), ("off", False),
    ])
    def test_trace_truthiness(self, raw, expected):
        assert RuntimeConfig.from_env({"REPRO_TRACE": raw}).trace is expected

    def test_invalid_int_raises(self):
        with pytest.raises(ValueError, match="REPRO_MAX_RETRIES"):
            RuntimeConfig.from_env({"REPRO_MAX_RETRIES": "lots"})

    def test_invalid_jobs_names_the_variable(self):
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            RuntimeConfig.from_env({"REPRO_JOBS": "lots"})
        assert RuntimeConfig.from_env({"REPRO_JOBS": "0"}).jobs == 1  # clamped, as before

    def test_malformed_env_does_not_break_import(self):
        """Nothing reads the config at import time, so a bad variable
        fails the call that needs it, not ``import repro``."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
            "REPRO_JOBS": "lots",
            "REPRO_MEMORY_BUDGET": "lots",
        }
        done = subprocess.run(
            [sys.executable, "-c", "import repro, repro.experiments"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_memory_budget_parsing(self):
        from repro.runtime import parse_bytes

        assert RuntimeConfig.from_env({}).memory_budget is None
        assert RuntimeConfig.from_env({"REPRO_MEMORY_BUDGET": "1048576"}).memory_budget == 1 << 20
        assert RuntimeConfig.from_env({"REPRO_MEMORY_BUDGET": "512MiB"}).memory_budget == 512 << 20
        assert parse_bytes("2GiB") == parse_bytes("2g") == parse_bytes("2GB") == 2 << 30
        assert parse_bytes("1.5KiB") == 1536
        assert parse_bytes(4096) == 4096
        assert parse_bytes("64k") == 64 << 10  # binary multiples throughout
        for bad in ("", "fast", "12 parsecs", "-1", "5..0MB"):
            with pytest.raises(ValueError):
                parse_bytes(bad)
        with pytest.raises(ValueError, match="REPRO_MEMORY_BUDGET"):
            RuntimeConfig.from_env({"REPRO_MEMORY_BUDGET": "plenty"})
        with pytest.raises(ValueError, match="memory_budget"):
            RuntimeConfig(memory_budget=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(jobs=0)

    def test_roundtrip_as_dict(self):
        config = RuntimeConfig(jobs=2, store_dir="x", trace=True)
        assert RuntimeConfig(**config.as_dict()) == config


class TestPrecedence:
    def test_env_var_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert runtime_config().scale == "paper"

    def test_configure_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        with configure(scale="small"):
            assert runtime_config().scale == "small"
        assert runtime_config().scale == "paper"

    def test_env_reread_when_not_configured(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert runtime_config().jobs == 3
        monkeypatch.delenv("REPRO_JOBS")
        assert runtime_config().jobs is None


class TestSingleParseSite:
    """The consuming layers read the config, not os.environ."""

    def test_resolve_jobs_uses_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_store_uses_config(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "s"))
        store = default_store()
        assert store is not None
        assert store.root == tmp_path / "s"
        monkeypatch.delenv("REPRO_STORE")
        assert default_store() is None

    def test_active_scale_uses_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert experiments_config.active_scale().name == "paper"

    def test_no_direct_environ_reads_in_consumers(self):
        import inspect

        import repro.experiments.artifacts
        import repro.experiments.runner
        import repro.experiments.store
        import repro.topology.cache

        for mod in (
            repro.experiments.artifacts,
            repro.experiments.runner,
            repro.experiments.store,
            repro.topology.cache,
        ):
            assert "os.environ" not in inspect.getsource(mod)

    def test_reexported_from_experiments_config(self):
        assert experiments_config.RuntimeConfig is RuntimeConfig
        assert experiments_config.configure is configure
        assert experiments_config.runtime_config is runtime_config


class TestConfigureSideEffects:
    def test_unchanged_budgets_keep_caches(self):
        before_topo = topo_cache.get_topology_cache()
        before_events = artifacts.get_event_cache()
        with configure(scale="paper", jobs=2, memory_budget=1 << 20):
            assert topo_cache.get_topology_cache() is before_topo
            assert artifacts.get_event_cache() is before_events

    def test_jobs_default_installed_and_restored(self):
        with configure(jobs=2):
            assert resolve_jobs(None) == 2
        assert resolve_jobs(None) == 1

    def test_trace_installs_recorder(self):
        assert obs.get_recorder() is None
        with configure(trace=True):
            assert obs.get_recorder() is not None
        assert obs.get_recorder() is None

    def test_restore_is_idempotent(self):
        handle = configure(jobs=2)
        handle.restore()
        handle.restore()
        assert resolve_jobs(None) == 1


def _counting_unit(n: int) -> int:
    """Top-level (picklable) unit that reports deterministic telemetry."""
    obs.count("test.calls")
    obs.count("test.total", n)
    return n * n


class TestMapUnitsAggregation:
    """Worker counters merge into the parent identically at any job count."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_counters_agree_with_serial_totals(self, jobs):
        args = [(i,) for i in range(8)]
        with obs.recording() as rec:
            results = [out for _, out in sorted(execute_units(_counting_unit, args, jobs))]
        assert results == [i * i for i in range(8)]
        assert rec.counters["test.calls"] == 8
        assert rec.counters["test.total"] == sum(range(8))
        if jobs > 1:
            assert rec.counters["pool.units"] == 8
            assert rec.counters["pool.busy_s"] >= 0
            assert rec.gauges["pool.jobs"] == 4
        else:
            assert rec.counters["units.serial"] == 8

    def test_no_recorder_no_overhead_path(self):
        results = [out for _, out in sorted(execute_units(_counting_unit, [(2,), (3,)], 1))]
        assert results == [4, 9]
        assert obs.get_recorder() is None
