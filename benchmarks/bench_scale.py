"""Memory-bounded scale tier: chunked matrix-free ACD wall time and peak RSS.

The dense ACD path needs a ``p x p`` int32 distance matrix — 64 MiB at
the paper's 4096-rank tier, 16 GiB at ``p = 2**16`` and 4 TiB at
``p = 2**20`` — so rank counts beyond the paper were simply impossible
allocations.  Past the memory budget (``REPRO_MEMORY_BUDGET``) no
matrix is built: the histogram is evaluated through the vectorised
distance kernel over chunks of at most ``budget // 32`` pairs.  This
benchmark walks the rank ladder ``p ∈ {4096, 2**16, 2**18}`` (plus the
``2**20`` acceptance tier at full size) recording wall time and the
process high-water RSS, and cross-checks bit-identity against the
tractable references at every tier:

* at ``p = 4096`` the chunked result must equal the *dense* matrix path;
* at every tier it must equal the streaming evaluation (per-event
  distances — exact at any ``p``).

Each run appends one record to ``benchmarks/BENCH_scale.json`` so the
trajectory across commits stays visible.
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.fmm.events import CommunicationEvents
from repro.metrics.acd import compute_acd, dense_matrix_bytes
from repro.topology.registry import make_topology

TRAJECTORY = Path(__file__).parent / "BENCH_scale.json"

_TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
#: Rank ladder: the paper's largest tier plus the out-of-core tiers.
TIERS = (4_096, 1 << 16) if _TINY else (4_096, 1 << 16, 1 << 18, 1 << 20)
N_EVENTS = 30_000 if _TINY else 400_000
#: The acceptance budget: 2 GiB, under which even p=2**20 must complete.
BUDGET = 2 << 30


def _peak_rss_kib() -> int:
    """Process high-water RSS in KiB (monotonic; ru_maxrss is KiB on Linux)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def append_trajectory(record: dict) -> None:
    history = []
    if TRAJECTORY.exists():
        history = json.loads(TRAJECTORY.read_text())
    history.append(record)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")


def _random_histogram(p: int, n_events: int, seed: int):
    rng = np.random.default_rng(seed)
    events = CommunicationEvents()
    events.add(
        rng.integers(0, p, n_events),
        rng.integers(0, p, n_events),
        rng.integers(1, 9, n_events),
    )
    return events, events.compact(p)


def _matrix_bytes_built(rec) -> int:
    return rec.counters.get("topo_cache.matrix_bytes_built", 0)


def test_scale_ladder(report):
    rows = []
    for tier, p in enumerate(TIERS):
        # The chunked path only engages once the dense matrix exceeds
        # the budget; at small tiers shrink the budget so the chunked
        # path is always the one being measured (and compared against
        # dense).
        budget = min(BUDGET, dense_matrix_bytes(p) // 2)
        topology = make_topology("torus", p, processor_curve="hilbert")
        events, histogram = _random_histogram(p, N_EVENTS, seed=tier)
        with obs.recording() as rec:
            chunked, chunked_s = _timed(
                lambda: compute_acd(histogram, topology, memory_budget=budget)
            )
        assert _matrix_bytes_built(rec) == 0  # over budget: matrix-free
        streamed, stream_s = _timed(
            lambda: compute_acd(events, topology, cache=None, memory_budget=budget)
        )
        assert chunked == streamed  # exact at every rank count
        dense_s = None
        if dense_matrix_bytes(p) <= BUDGET:  # tractable reference tier
            dense, dense_s = _timed(
                lambda: compute_acd(histogram, topology, memory_budget=None)
            )
            assert chunked == dense  # bit-identical to the dense matrix path
        rows.append(
            {
                "p": p,
                "events": N_EVENTS,
                "pairs": histogram.num_pairs,
                "budget_bytes": budget,
                "dense_matrix_bytes": dense_matrix_bytes(p),
                "chunked_s": round(chunked_s, 4),
                "streaming_s": round(stream_s, 4),
                "dense_s": None if dense_s is None else round(dense_s, 4),
                "acd": chunked.mean,
                "peak_rss_kib": _peak_rss_kib(),
            }
        )
    record = {"bench": "scale", "tiny": _TINY, "tiers": rows}
    append_trajectory(record)
    report("Memory-bounded ACD scale ladder (torus/hilbert)", json.dumps(record, indent=2))
    # The acceptance envelope: the million-rank tier completed with the
    # whole process staying under the 2 GiB budget (the dense matrix it
    # replaced would have been 4 TiB).
    if not _TINY:
        assert rows[-1]["p"] == 1 << 20
        assert rows[-1]["peak_rss_kib"] * 1024 < BUDGET


def test_scale_smoke_2e16(report):
    """The CI scale-smoke scenario: 2**16 ranks under a deliberately tiny
    budget must build no matrix and match the streaming reference."""
    p = 1 << 16
    budget = 8 << 20  # 8 MiB: dense would need 16 GiB
    topology = make_topology("torus", p, processor_curve="hilbert")
    events, histogram = _random_histogram(p, 20_000, seed=99)
    with obs.recording() as rec:
        chunked, chunked_s = _timed(
            lambda: compute_acd(histogram, topology, memory_budget=budget)
        )
    reference = compute_acd(events, topology, cache=None, memory_budget=budget)
    assert chunked == reference
    assert _matrix_bytes_built(rec) == 0
    report(
        "scale-smoke: 2**16 ranks under an 8 MiB budget",
        json.dumps(
            {
                "p": p,
                "budget_bytes": budget,
                "chunked_s": round(chunked_s, 4),
                "acd": chunked.mean,
                "peak_rss_kib": _peak_rss_kib(),
            },
            indent=2,
        ),
    )
