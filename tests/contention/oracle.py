"""Pure-Python reference drain for the contention simulator.

A deque per link, the busy-link set kept incrementally (links join when
their queue becomes non-empty and leave when it drains), and the same
deterministic enqueue order as the NumPy engine: every busy link
forwards its queue head each cycle, same-cycle arrivals enqueue in
ascending order of the link they crossed, and the initial injection
enqueues in event order.  Tests swap it in for
``repro.contention.simulator._drain_batched`` and require identical
results.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.contention.routing import RoutedBatch


def reference_drain(batch: RoutedBatch, max_cycles: int) -> np.ndarray:
    """Arrival cycle of every message of ``batch``, one cycle at a time."""
    links = batch.links.tolist()
    offsets = batch.offsets.tolist()
    num_messages = batch.num_messages
    pos = list(offsets[:-1])
    queues: dict[int, deque[int]] = {}
    active: set[int] = set()
    for msg in range(num_messages):
        link = links[pos[msg]]
        queue = queues.get(link)
        if queue is None:
            queues[link] = queue = deque()
            active.add(link)
        queue.append(msg)
    arrivals = np.zeros(num_messages, dtype=np.int64)
    delivered = 0
    cycle = 0
    while delivered < num_messages:
        cycle += 1
        if cycle > max_cycles:
            raise RuntimeError(
                f"simulation exceeded {max_cycles} cycles with "
                f"{num_messages - delivered} messages in flight"
            )
        moved: list[int] = []
        drained: list[int] = []
        for link in sorted(active):
            queue = queues[link]
            moved.append(queue.popleft())
            if not queue:
                drained.append(link)
        active.difference_update(drained)
        for msg in moved:
            pos[msg] += 1
            if pos[msg] == offsets[msg + 1]:
                arrivals[msg] = cycle
                delivered += 1
            else:
                link = links[pos[msg]]
                queue = queues.get(link)
                if queue is None:
                    queues[link] = queue = deque()
                if not queue:
                    active.add(link)
                queue.append(msg)
    return arrivals
