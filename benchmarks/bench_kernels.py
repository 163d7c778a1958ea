"""Kernel-tier speedups: table-driven Hilbert encode/decode.

The retained per-level rotation kernels (``loop_encode`` /
``skilling_encode``) vs the table-driven state machines that replaced
them inside :class:`~repro.sfc.hilbert.HilbertCurve` / ``Hilbert3D``,
at the paper's 4096-side (order 12) 2D tier and the order-7 3D tier;
both are bit-identical by construction.

Each run appends one record to ``benchmarks/BENCH_kernels.json`` so the
trajectory across commits stays visible.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.sfc.curves3d import Hilbert3D, skilling_decode, skilling_encode
from repro.sfc.hilbert import HilbertCurve, loop_decode, loop_encode

TRAJECTORY = Path(__file__).parent / "BENCH_kernels.json"

_TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
N_POINTS = 20_000 if _TINY else 1_000_000
ORDER_2D = 12  # side 4096, the paper's largest 2D lattice
ORDER_3D = 7
# Throughput gates (tiny CI sizes are dominated by fixed overheads).
FLOOR_2D = 1.0 if _TINY else 3.0
FLOOR_3D = 1.0 if _TINY else 3.0


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def append_trajectory(record: dict) -> None:
    history = []
    if TRAJECTORY.exists():
        history = json.loads(TRAJECTORY.read_text())
    history.append(record)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")


def test_hilbert2d_table_vs_loop(report):
    side = 1 << ORDER_2D
    rng = np.random.default_rng(0)
    x = rng.integers(0, side, N_POINTS)
    y = rng.integers(0, side, N_POINTS)
    curve = HilbertCurve(order=ORDER_2D)
    idx = curve.encode(x, y)  # warm-up builds the chunk tables

    assert np.array_equal(idx, loop_encode(side, x, y))
    dx, dy = curve.decode(idx)
    lx, ly = loop_decode(side, idx)
    assert np.array_equal(dx, lx) and np.array_equal(dy, ly)

    loop_enc_s = _best_of(lambda: loop_encode(side, x, y))
    table_enc_s = _best_of(lambda: curve.encode(x, y))
    loop_dec_s = _best_of(lambda: loop_decode(side, idx))
    table_dec_s = _best_of(lambda: curve.decode(idx))

    record = {
        "bench": "hilbert2d",
        "tiny": _TINY,
        "order": ORDER_2D,
        "points": N_POINTS,
        "loop_encode_s": round(loop_enc_s, 4),
        "table_encode_s": round(table_enc_s, 4),
        "loop_decode_s": round(loop_dec_s, 4),
        "table_decode_s": round(table_dec_s, 4),
        "encode_speedup": round(loop_enc_s / table_enc_s, 2),
        "decode_speedup": round(loop_dec_s / table_dec_s, 2),
    }
    append_trajectory(record)
    report("Hilbert 2D: table-driven vs rotation loop", json.dumps(record, indent=2))
    assert record["encode_speedup"] >= FLOOR_2D
    assert record["decode_speedup"] >= FLOOR_2D


def test_hilbert3d_table_vs_loop(report):
    side = 1 << ORDER_3D
    rng = np.random.default_rng(1)
    x = rng.integers(0, side, N_POINTS)
    y = rng.integers(0, side, N_POINTS)
    z = rng.integers(0, side, N_POINTS)
    curve = Hilbert3D(order=ORDER_3D)
    idx = curve.encode(x, y, z)

    assert np.array_equal(idx, skilling_encode(ORDER_3D, x, y, z))
    assert all(
        np.array_equal(a, b)
        for a, b in zip(curve.decode(idx), skilling_decode(ORDER_3D, idx))
    )

    loop_enc_s = _best_of(lambda: skilling_encode(ORDER_3D, x, y, z))
    table_enc_s = _best_of(lambda: curve.encode(x, y, z))
    loop_dec_s = _best_of(lambda: skilling_decode(ORDER_3D, idx))
    table_dec_s = _best_of(lambda: curve.decode(idx))

    record = {
        "bench": "hilbert3d",
        "tiny": _TINY,
        "order": ORDER_3D,
        "points": N_POINTS,
        "loop_encode_s": round(loop_enc_s, 4),
        "table_encode_s": round(table_enc_s, 4),
        "loop_decode_s": round(loop_dec_s, 4),
        "table_decode_s": round(table_dec_s, 4),
        "encode_speedup": round(loop_enc_s / table_enc_s, 2),
        "decode_speedup": round(loop_dec_s / table_dec_s, 2),
    }
    append_trajectory(record)
    report("Hilbert 3D: table-driven vs Skilling loop", json.dumps(record, indent=2))
    assert record["encode_speedup"] >= FLOOR_3D
    assert record["decode_speedup"] >= FLOOR_3D

