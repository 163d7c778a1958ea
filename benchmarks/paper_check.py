"""Paper-scale check: rerun ``tables`` and ``fig6`` at the published sizes.

The goldens run at TINY scale and ``benchmarks/e2e`` at SMALL, so some
paths run only at paper scale: rank spaces of 65 536 processors, whose
distance matrix never fits, and lattices of 1024**2 and 4096**2 cells.
This script reruns the two paper studies that exercise them and checks
the results against the record::

    python benchmarks/paper_check.py            # check (make paper-check)
    python benchmarks/paper_check.py --update   # re-record paper_digests.json

Each study runs in a fresh interpreter as ``repro-experiments <study>
--seed 2013 --no-store`` with ``REPRO_SCALE=paper`` and no other
``REPRO_*`` variable.  Two checks per study:

* the sha256 of the result's canonical JSON (sorted keys, no spaces,
  floats at full precision) equals the digest recorded in
  ``benchmarks/paper_digests.json``;
* every block the study prints appears verbatim in
  ``paper_scale_results.txt``.

It prints each study's wall time and peak RSS, and exits 1 on any
mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "benchmarks" / "paper_digests.json"
RECORD = ROOT / "paper_scale_results.txt"
STUDIES = ("tables", "fig6")
SEED = 2013


def canonical_digest(result_json: Path) -> str:
    """sha256 of a saved study result, re-serialised canonically."""
    payload = json.loads(result_json.read_text())
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_study(study: str, workdir: Path) -> tuple[int, str, Path, float, float]:
    """Run one study in a fresh process: (status, stdout, json, wall s, peak RSS MiB)."""
    result_json = workdir / f"{study}.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_SCALE"] = "paper"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    cmd = [
        sys.executable, "-m", "repro.experiments.cli", study,
        "--seed", str(SEED), "--no-store", "--json", str(result_json),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return proc.returncode, stdout, result_json, wall, usage.ru_maxrss / 1024


def printed_blocks(stdout: str) -> list[str]:
    """The rendered result blocks (blank-line separated), without the save note."""
    blocks = (block.strip("\n") for block in stdout.split("\n\n"))
    return [b for b in blocks if b and not b.startswith("saved JSON")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--update", action="store_true", help=f"re-record the digests in {DIGESTS.name}"
    )
    args = parser.parse_args(argv)

    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    record = RECORD.read_text()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="paper-check-") as tmp:
        for study in STUDIES:
            status, stdout, result_json, wall, rss = run_study(study, Path(tmp))
            print(f"{study}: {wall:.1f} s, peak RSS {rss:.0f} MiB", flush=True)
            if status != 0:
                print(f"  FAIL: exit status {status}")
                failures += 1
                continue
            digest = canonical_digest(result_json)
            if args.update:
                digests[study] = digest
                print(f"  recorded digest {digest}")
            elif digests.get(study) == digest:
                print(f"  digest ok ({digest[:16]})")
            else:
                print(f"  FAIL: digest {digest} != recorded {digests.get(study)}")
                failures += 1
            blocks = printed_blocks(stdout)
            missing = [b for b in blocks if b not in record]
            if blocks and not missing:
                print(f"  {len(blocks)} printed blocks match {RECORD.name}")
            else:
                print(f"  FAIL: {len(missing)} of {len(blocks)} blocks not in {RECORD.name}")
                for block in missing:
                    print("    " + block.replace("\n", "\n    "))
                failures += 1
    if args.update and not failures:
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print("paper check " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
