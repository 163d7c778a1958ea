"""Tests for trial-averaged case execution and the shared executor.

Every FMM trial runs through the campaign engine; a one-case campaign
is how a single case is evaluated.
"""

from __future__ import annotations

import pytest

from repro.experiments import FmmCase, run_campaign


def run_one(case, **kwargs):
    """The trial-averaged result of one case on its own."""
    (result,) = run_campaign([case], **kwargs)
    return result


@pytest.fixture
def case():
    return FmmCase(
        num_particles=300,
        order=5,
        num_processors=16,
        topology="torus",
        particle_curve="hilbert",
        processor_curve="hilbert",
        distribution="uniform",
        radius=1,
    )


class TestRunCase:
    def test_result_fields(self, case):
        result = run_one(case, trials=2, seed=0)
        assert result.trials == 2
        assert result.nfi_acd >= 0 and result.ffi_acd >= 0
        assert result.nfi_events > 0 and result.ffi_events > 0
        assert set(result.ffi_phases) == {
            "interpolation",
            "anterpolation",
            "interaction",
            "combined",
        }

    def test_deterministic_across_runs(self, case):
        a = run_one(case, trials=3, seed=99)
        b = run_one(case, trials=3, seed=99)
        assert a.nfi_acd == b.nfi_acd and a.ffi_acd == b.ffi_acd

    def test_seed_changes_results(self, case):
        a = run_one(case, trials=1, seed=1)
        b = run_one(case, trials=1, seed=2)
        assert a.nfi_acd != b.nfi_acd

    def test_single_trial_has_zero_std(self, case):
        result = run_one(case, trials=1, seed=0)
        assert result.nfi_acd_std == 0.0

    def test_invalid_trials(self, case):
        with pytest.raises(ValueError):
            run_one(case, trials=0)

    def test_row_serialisation(self, case):
        row = run_one(case, trials=1, seed=0).row()
        assert row["topology"] == "torus"
        assert isinstance(row["nfi_acd"], float)


class TestParallelRunner:
    def test_parallel_equals_serial(self, case):
        serial = run_one(case, trials=3, seed=42, jobs=1)
        parallel = run_one(case, trials=3, seed=42, jobs=2)
        assert serial == parallel

    def test_jobs_env_var(self, case, monkeypatch):
        from repro.experiments.runner import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(1) == 1  # explicit argument wins
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs(None) == 1

    def test_set_default_jobs(self, case):
        from repro.experiments.runner import resolve_jobs, set_default_jobs

        set_default_jobs(2)
        try:
            assert resolve_jobs(None) == 2
        finally:
            set_default_jobs(None)
        assert resolve_jobs(None) == 1

    def test_invalid_jobs_rejected(self, case):
        from repro.experiments.runner import set_default_jobs

        with pytest.raises(ValueError):
            run_one(case, trials=1, jobs=0)
        with pytest.raises(ValueError):
            set_default_jobs(0)

    def test_run_instance_trial_is_picklable(self):
        import pickle

        from repro.experiments.campaign import run_instance_trial

        assert pickle.loads(pickle.dumps(run_instance_trial)) is run_instance_trial


class TestSharedExecutor:
    def test_growth_retires_old_pool(self):
        from repro.experiments import runner

        runner.shutdown_shared_executor()  # earlier tests may have left a pool
        try:
            first = runner.shared_executor(1)
            assert runner.shared_executor(1) is first  # reused, not rebuilt
            second = runner.shared_executor(2)
            assert second is not first
            # the old pool was shut down, not orphaned
            with pytest.raises(RuntimeError):
                first.submit(int)
            assert second.submit(int).result() == 0
        finally:
            runner.shutdown_shared_executor()

    def test_shutdown_is_idempotent(self):
        from repro.experiments import runner

        runner.shutdown_shared_executor()
        runner.shutdown_shared_executor()  # no pool alive: no-op
        pool = runner.shared_executor(1)
        assert pool.submit(int).result() == 0
        runner.shutdown_shared_executor()
        with pytest.raises(RuntimeError):
            pool.submit(int)

    def test_broken_pool_is_replaced_not_returned(self):
        """Regression: a worker crash used to poison the shared global —
        every later shared_executor() call returned the broken pool."""
        import os

        from concurrent.futures import BrokenExecutor

        from repro.experiments import runner

        runner.shutdown_shared_executor()
        try:
            poisoned = runner.shared_executor(2)
            with pytest.raises(BrokenExecutor):
                poisoned.submit(os._exit, 1).result()
            fresh = runner.shared_executor(2)
            assert fresh is not poisoned
            assert fresh.submit(int).result() == 0
        finally:
            runner.shutdown_shared_executor()

    def test_externally_shutdown_pool_is_replaced(self):
        from repro.experiments import runner

        runner.shutdown_shared_executor()
        try:
            pool = runner.shared_executor(1)
            pool.shutdown(wait=True)  # someone shut the global down directly
            fresh = runner.shared_executor(1)
            assert fresh is not pool
            assert fresh.submit(int).result() == 0
        finally:
            runner.shutdown_shared_executor()

    def test_bounded_shutdown_terminates_hung_worker(self):
        """Regression: atexit shutdown(wait=True) hung forever on a stuck
        worker; the bounded path must return promptly and kill it."""
        import time

        from repro.experiments import runner

        runner.shutdown_shared_executor()
        pool = runner.shared_executor(1)
        pool.submit(time.sleep, 600)
        time.sleep(0.2)  # let the worker pick the task up
        start = time.monotonic()
        runner.shutdown_shared_executor(wait=False, cancel_futures=True, timeout=1.0)
        assert time.monotonic() - start < 10.0
        # the module forgot the pool; the next call builds a fresh one
        assert runner.shared_executor(1).submit(int).result() == 0
        runner.shutdown_shared_executor()

    def test_atexit_hook_is_bounded(self):
        import time

        from repro.experiments import executor

        executor.shutdown_shared_executor()
        pool = executor.shared_executor(1)
        pool.submit(time.sleep, 600)
        time.sleep(0.2)
        start = time.monotonic()
        executor._shutdown_at_exit()
        assert time.monotonic() - start < executor.ATEXIT_TIMEOUT_S + 10.0
