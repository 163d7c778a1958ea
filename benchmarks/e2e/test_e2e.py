"""Self-test of the end-to-end benchmark on its seconds-scale presets.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

Runs ``run.py --quick`` per workload, untraced and traced, and checks the
contract the benchmark is held to: every metric of BENCHMARK.json is
emitted with its unit, the hook and coverage gates pass, a wrong result
digest is an error, and without the program the command fails.  Also
checks the arithmetic of the host-speed normalisation (speed.py).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
import speed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), "--quick", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_emits(result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    # the options as runners of BENCHMARK.json pass them
    proc = run("--workload", workload, "--seed", "2013", "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert result["correct"] and result["failed"] == 0
    assert_emits(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_the_hook_and_coverage_gates(workload):
    proc = run("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert_emits(result, SPEC["per_layer"])
    assert (HERE / "out" / f"trace-{workload}.json").is_file()


def copy_benchmark(root: Path) -> Path:
    """The benchmark's files and BENCHMARK.json under ``root``; its directory."""
    skip = shutil.ignore_patterns(".work", "out", "__pycache__")
    shutil.copytree(HERE, root / "benchmarks" / "e2e", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root / "benchmarks" / "e2e"


def test_corrupted_digest_is_reported_as_an_error(tmp_path):
    copy = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    digests = json.loads((copy / "digests.json").read_text())
    key = "quick/tables/2013"
    assert key in digests
    digests[key] = "0" * 64
    (copy / "digests.json").write_text(json.dumps(digests))
    proc = run("--workload", "tables", "--seed", "2013", cwd=tmp_path)
    assert proc.returncode == 1
    result = result_line(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert "digest" in proc.stderr


def test_fails_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = run("--workload", "tables", cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert proc.stdout == ""


def test_intervals_are_scaled_by_the_mean_speed_of_their_samples(tmp_path):
    path = tmp_path / "samples.speed"
    ref = speed.REFERENCE_S
    # (time, kernel seconds): full speed, then half speed, from two processes
    records = [(1.0, ref), (2.0, ref), (3.0, 2 * ref), (3.5, 2 * ref), (4.0, 2 * ref)]
    path.write_bytes(b"".join(speed._RECORD.pack(t, k) for t, k in reversed(records)))
    samples = speed.Samples(path)
    assert samples.factor(0.5, 2.5) == pytest.approx(1.0)
    assert samples.seconds(2.9, 4.1) == pytest.approx(1.2 * 0.5)
    assert samples.factor(1.5, 3.2) == pytest.approx((1.0 + 0.5) / 2)
    # no sample inside: the two bracketing it, or the last one
    assert samples.factor(2.6, 2.7) == pytest.approx((1.0 + 0.5) / 2)
    assert samples.factor(9.0, 9.5) == pytest.approx(0.5)
    empty = tmp_path / "empty.speed"
    empty.write_bytes(b"")
    with pytest.raises(ValueError):
        speed.Samples(empty)


def test_a_sampled_child_outlives_its_timer(tmp_path):
    """Interpreter shutdown restores SIGALRM's default action; an armed
    timer would then kill the child."""
    path = tmp_path / "child.speed"
    code = (
        f"import sys, time; sys.path.insert(0, {str(HERE)!r}); import speed; "
        f"speed.start({str(path)!r}); time.sleep(0.2)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(speed.Samples(path).times) >= 5
