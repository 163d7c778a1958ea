"""Compare two benchmark records written by ``run.py --repeat N --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every workload and end-to-end metric in both records, prints the
median and quartiles of each side's runs and B's change against A.  A
row is ``unresolved`` when either side's run-to-run spread (quartile
distance over the median) is wider than the metric's bound in
BENCHMARK.json, else ``regressed`` when B's median is worse than A's by
more than the bound.  Exits 1 when any row is regressed or unresolved, 2
when a record holds fewer than two runs, so has no run-to-run spread.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / m["value"]


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    worse = change > bound if better == "lower" else change < -bound
    return "regressed" if worse else "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [json.loads(p.read_text()) for p in (args.a, args.b)]
    for path, record in zip((args.a, args.b), records):
        if record["repeat"] < 2:
            print(f"{path}: one run; record with --repeat 2 or more", file=sys.stderr)
            return 2
    a, b = (record["summary"] for record in records)
    bad = 0
    print(f"{'workload':9s} {'metric':32s} {'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s}"
          f" {'change':>8s}  verdict")
    for workload in [w for w in a if w in b]:
        ma, mb = a[workload]["metrics"], b[workload]["metrics"]
        for m in [m for m in spec["end_to_end"] if m["name"] in ma and m["name"] in mb]:
            x, y = ma[m["name"]], mb[m["name"]]
            status = verdict(x, y, m["bound"], m["better"])
            bad += status != "ok"
            change = (y["value"] - x["value"]) / x["value"]
            print(
                f"{workload:9s} {m['name']:32s}"
                f" {x['value']:12.4f} [{x['q1']:8.4f}, {x['q3']:8.4f}]"
                f" {y['value']:12.4f} [{y['q1']:8.4f}, {y['q3']:8.4f}]"
                f" {change:+8.1%}  {status} (bound {m['bound']:.1%})"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
