"""Cycle-based store-and-forward network simulation.

The ACD metric is deliberately contention-unaware (§IV step 6 of the
paper): it averages shortest-path lengths as if every message travelled
alone.  This simulator replays a communication event multiset on the
actual network with **unit-capacity directed links** (one message per
link per cycle, FIFO queueing), which yields:

* the **makespan** — cycles until every message is delivered, the
  quantity a real bulk-synchronous exchange step would observe,
* per-message **latencies** (mean and maximum),
* link **utilisation**, and
* the two classical lower bounds (max link load = congestion, max path
  length = dilation), so the schedule quality is visible.

Messages follow the deterministic minimal routes of
:mod:`repro.contention.routing`; injection is all-at-once at cycle 0
(the paper's "all of the processors are trying to communicate at the
same time over the same network" scenario).

Weighted events (see :mod:`repro.fmm.events`) inject proportional
traffic: an event of weight ``w`` becomes ``w`` unit messages (flits)
that each traverse the full route, matching the weighted-ACD semantics
where a weighted event counts ``w`` times.  Zero-weight events send
nothing.

The engine schedules links per cycle with NumPy over the CSR arrays of
:func:`repro.contention.routing.route_batch`.  All routes are
precomputed in one vectorised pass; per-link FIFO queues are intrusive
linked lists in flat arrays; the set of busy links is maintained
incrementally, so a cycle costs ``O(active links)`` NumPy work
regardless of how many links the exchange ever touched.  The
test-suite cross-checks it against a pure-Python oracle
(``tests/contention/oracle.py``).

Scheduling discipline: every busy link forwards the message at its
queue head each cycle; messages arriving at a queue in the same cycle
enqueue in ascending order of the link they crossed, and the initial
injection enqueues in event order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro._typing import IntArray
from repro.contention.routing import RoutedBatch, route_batch
from repro.fmm.events import CommunicationEvents
from repro.topology.base import Topology
from repro.topology.cache import TopologyCache

__all__ = ["SimulationResult", "simulate_exchange"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one contention simulation.

    Attributes
    ----------
    makespan:
        Cycle at which the last message arrived (0 for no messages).
    num_messages:
        Number of simulated unit messages (zero-hop self-messages
        excluded; an event of weight ``w`` contributes ``w``).
    mean_latency, max_latency:
        Delivery-cycle statistics over the simulated messages.
    congestion:
        Max messages sharing one directed link (lower bound on makespan).
    dilation:
        Longest routed path in hops (lower bound on makespan).
    total_hops:
        Total message-hops transmitted (= total link busy-cycles).
    """

    makespan: int
    num_messages: int
    mean_latency: float
    max_latency: int
    congestion: int
    dilation: int
    total_hops: int

    @property
    def stretch_over_bounds(self) -> float:
        """Makespan divided by the larger lower bound (1.0 = optimal)."""
        bound = max(self.congestion, self.dilation)
        return self.makespan / bound if bound else 1.0


def _network_pairs(events: CommunicationEvents) -> tuple[IntArray, IntArray]:
    """Flatten events into unit-message pairs (weights expanded, locals dropped)."""
    srcs: list[IntArray] = []
    dsts: list[IntArray] = []
    for s, d, w in events.iter_weighted_chunks():
        keep = s != d
        if w is not None:
            keep &= w > 0
        s, d = s[keep], d[keep]
        if w is not None:
            wk = w[keep]
            s, d = np.repeat(s, wk), np.repeat(d, wk)
        if s.size:
            srcs.append(s)
            dsts.append(d)
    if not srcs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(srcs), np.concatenate(dsts)


def _overflow(max_cycles: int, in_flight: int) -> RuntimeError:
    return RuntimeError(
        f"simulation exceeded {max_cycles} cycles with {in_flight} messages in flight"
    )


def _drain_batched(batch: RoutedBatch, max_cycles: int) -> IntArray:
    """NumPy per-cycle engine; returns the arrival cycle of every message."""
    links, offsets = batch.links, batch.offsets
    num_messages = batch.num_messages
    pos = offsets[:-1].copy()  # index into ``links`` of each message's next hop
    end = offsets[1:]
    # Intrusive per-link FIFO: head/tail message per link, next-in-queue per message.
    head = np.full(batch.num_links, -1, dtype=np.int64)
    tail = np.full(batch.num_links, -1, dtype=np.int64)
    nxt = np.full(num_messages, -1, dtype=np.int64)

    def enqueue(msgs: IntArray, targets: IntArray) -> IntArray:
        """Append ``msgs`` (already ordered) to their target queues.

        Returns the sorted unique target links.  Within one call,
        messages bound for the same link enqueue in their given order.
        """
        order = np.argsort(targets, kind="stable")
        q, ql = msgs[order], targets[order]
        starts = np.flatnonzero(np.concatenate([[True], ql[1:] != ql[:-1]]))
        ends = np.concatenate([starts[1:], [q.size]])
        nxt[q[:-1]] = q[1:]  # chain everything, then cut at group boundaries
        nxt[q[ends - 1]] = -1
        group_links = ql[starts]
        first, last = q[starts], q[ends - 1]
        empty = head[group_links] == -1
        head[group_links[empty]] = first[empty]
        occupied = ~empty
        nxt[tail[group_links[occupied]]] = first[occupied]
        tail[group_links] = last
        return group_links

    arrivals = np.zeros(num_messages, dtype=np.int64)
    active = enqueue(np.arange(num_messages, dtype=np.int64), links[pos])
    delivered = 0
    cycle = 0
    while delivered < num_messages:
        cycle += 1
        if cycle > max_cycles:
            raise _overflow(max_cycles, num_messages - delivered)
        moved = head[active]  # every active link forwards its queue head
        new_heads = nxt[moved]
        head[active] = new_heads
        tail[active[new_heads == -1]] = -1
        pos[moved] += 1
        done = pos[moved] == end[moved]
        finished = moved[done]
        arrivals[finished] = cycle
        delivered += finished.size
        in_flight = moved[~done]
        if in_flight.size:
            # ``moved`` follows ``active`` (ascending link id), so same-cycle
            # arrivals enqueue ordered by the link they just crossed.
            refilled = enqueue(in_flight, links[pos[in_flight]])
            # merge two sorted id sets (cheaper than a hashed union1d)
            merged = np.sort(np.concatenate([active[head[active] != -1], refilled]))
            keep = np.empty(merged.size, dtype=bool)
            keep[:1] = True
            np.not_equal(merged[1:], merged[:-1], out=keep[1:])
            active = merged[keep]
        else:
            active = active[head[active] != -1]
    return arrivals


def simulate_exchange(
    events: CommunicationEvents,
    topology: Topology,
    *,
    max_cycles: int = 10_000_000,
    cache: TopologyCache | None = None,
) -> SimulationResult:
    """Simulate the delivery of all events injected at cycle 0.

    Parameters
    ----------
    cache:
        Topology cache for the batch router's lookup tables (shared
        default when omitted).

    Raises ``RuntimeError`` if the exchange has not drained within
    ``max_cycles`` (a guard against pathological inputs; FIFO queueing
    over finite traffic always terminates well before this).
    """
    with obs.span("simulate", processors=topology.num_processors):
        with obs.span("simulate.route"):
            src, dst = _network_pairs(events)
            if not src.size:
                return SimulationResult(0, 0, 0.0, 0, 0, 0, 0)
            batch = route_batch(topology, src, dst, cache=cache)
        obs.count("sim.messages", batch.num_messages)
        obs.count("sim.hops", batch.total_hops)
        with obs.span("simulate.drain"):
            arrivals = _drain_batched(batch, max_cycles)
        obs.count("sim.cycles", int(arrivals.max()))
    return SimulationResult(
        makespan=int(arrivals.max()),
        num_messages=batch.num_messages,
        mean_latency=float(arrivals.mean()),
        max_latency=int(arrivals.max()),
        congestion=batch.congestion,
        dilation=batch.dilation,
        total_hops=batch.total_hops,
    )
